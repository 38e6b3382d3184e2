//! The flight recorder: an always-on, bounded, lock-striped ring of
//! structured service events (DESIGN.md §16).
//!
//! Spans answer "where does time go"; the flight recorder answers
//! "what happened to request X" after the fact. Every admission
//! decision, queue transition, worker fault and client-side breaker
//! decision appends one [`FlightEvent`] stamped with the request id
//! and a monotonic timestamp. The buffer is bounded (old events are
//! overwritten, never allocated past capacity) so it can stay on in
//! production, and its contents — the last `capacity()` events,
//! exactly — are dumped as a "blackbox" on worker death, panic,
//! takeover, or on demand.
//!
//! Layout: one global `AtomicU64` hands out sequence numbers; event
//! `seq` lives in stripe `seq % STRIPES` at slot
//! `(seq / STRIPES) % per_stripe`. A slot only ever takes a newer
//! event than the one it holds (a writer delayed between taking its
//! `seq` and locking its stripe drops its stale event), so once writers
//! settle the surviving events are exactly the last
//! `STRIPES * per_stripe` sequence numbers — exact global oldest-first
//! eviction without any cross-stripe coordination. Writers contend
//! only on their own stripe's mutex (held for a field-wise store, no
//! allocation), so recording is ~zero cost next to the request work
//! around it.

use serde::{ser_key, ser_str, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};

/// Number of independently locked stripes.
pub const STRIPES: usize = 8;

/// Default total capacity (events) when [`configure`] was never called.
pub const DEFAULT_CAPACITY: usize = 4096;

/// One recorded event. `ts_ns` is nanoseconds since the process obs
/// epoch (the same clock spans use), so flight events and trace events
/// interleave on one timeline.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence number (dense, starts at 0).
    pub seq: u64,
    /// Monotonic nanoseconds since the obs epoch.
    pub ts_ns: u64,
    /// Event class, e.g. `"enqueue"`, `"shed"`, `"breaker_trip"`.
    pub kind: &'static str,
    /// The request this event belongs to ("" for process-scoped events
    /// such as takeover or respawn).
    pub request_id: String,
    /// Free-form `key=value` detail.
    pub detail: String,
}

impl Serialize for FlightEvent {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        ser_key(out, "seq");
        self.seq.serialize_json(out);
        out.push(',');
        ser_key(out, "ts_ns");
        self.ts_ns.serialize_json(out);
        out.push(',');
        ser_key(out, "kind");
        ser_str(out, self.kind);
        out.push(',');
        ser_key(out, "request_id");
        ser_str(out, &self.request_id);
        out.push(',');
        ser_key(out, "detail");
        ser_str(out, &self.detail);
        out.push('}');
    }
}

struct Recorder {
    per_stripe: usize,
    next_seq: AtomicU64,
    stripes: [Mutex<Vec<Option<FlightEvent>>>; STRIPES],
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static CAPACITY_HINT: AtomicU64 = AtomicU64::new(0);
static RECORDER: OnceLock<Recorder> = OnceLock::new();

fn recorder() -> &'static Recorder {
    RECORDER.get_or_init(|| {
        let hint = CAPACITY_HINT.load(Ordering::SeqCst) as usize;
        let total = if hint == 0 { DEFAULT_CAPACITY } else { hint };
        let per_stripe = total.div_ceil(STRIPES).max(1);
        Recorder {
            per_stripe,
            next_seq: AtomicU64::new(0),
            stripes: std::array::from_fn(|_| Mutex::new((0..per_stripe).map(|_| None).collect())),
        }
    })
}

/// Requests a total ring capacity (rounded up to a multiple of
/// [`STRIPES`]). Takes effect only if called before the first
/// [`event`]/[`snapshot`]; returns whether the hint landed.
pub fn configure(total_capacity: usize) -> bool {
    CAPACITY_HINT.store(total_capacity as u64, Ordering::SeqCst);
    RECORDER.get().is_none()
}

/// Total events the ring retains.
pub fn capacity() -> usize {
    let r = recorder();
    r.per_stripe * STRIPES
}

/// Total events recorded since process start (including evicted ones).
pub fn recorded() -> u64 {
    recorder().next_seq.load(Ordering::Relaxed)
}

/// Appends one event. Always on — there is no enable gate; the cost is
/// one `fetch_add`, one striped lock, and the two argument `String`s.
pub fn event(kind: &'static str, request_id: &str, detail: String) {
    let r = recorder();
    let seq = r.next_seq.fetch_add(1, Ordering::Relaxed);
    let ev = FlightEvent {
        seq,
        ts_ns: crate::now_ns(),
        kind,
        request_id: request_id.to_string(),
        detail,
    };
    let stripe = (seq as usize) % STRIPES;
    let slot = &mut lock(&r.stripes[stripe])[(seq as usize / STRIPES) % r.per_stripe];
    if slot.as_ref().is_none_or(|held| held.seq < seq) {
        *slot = Some(ev);
    }
}

/// Copies out every surviving event, oldest first (sorted by `seq`).
/// Non-destructive: the ring keeps recording.
pub fn snapshot() -> Vec<FlightEvent> {
    let r = recorder();
    let mut out = Vec::with_capacity(r.per_stripe * STRIPES);
    for stripe in &r.stripes {
        out.extend(lock(stripe).iter().flatten().cloned());
    }
    out.sort_unstable_by_key(|e| e.seq);
    out
}

/// Renders the blackbox dump: `events` (a [`snapshot`]) plus the reason
/// it was taken and ring accounting, as one JSON object.
pub fn blackbox_json(reason: &str, events: &[FlightEvent]) -> String {
    let mut out = String::with_capacity(64 + events.len() * 96);
    out.push('{');
    ser_key(&mut out, "reason");
    ser_str(&mut out, reason);
    out.push(',');
    ser_key(&mut out, "recorded");
    recorded().serialize_json(&mut out);
    out.push(',');
    ser_key(&mut out, "capacity");
    capacity().serialize_json(&mut out);
    out.push(',');
    ser_key(&mut out, "events");
    events.serialize_json(&mut out);
    out.push_str("}\n");
    out
}

/// Writes [`blackbox_json`] of a fresh snapshot to `path`; returns the
/// number of events written.
pub fn write_blackbox(path: &std::path::Path, reason: &str) -> std::io::Result<usize> {
    let events = snapshot();
    std::fs::write(path, blackbox_json(reason, &events))?;
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The ring is process-global, so tests share it; they only assert
    // properties that hold regardless of interleaving with other tests
    // (dedicated wraparound/concurrency tests run in their own binary,
    // crates/obs/tests/flight.rs).
    #[test]
    fn events_survive_and_snapshot_is_seq_ordered() {
        event("test_evt", "rid-1", "k=v".to_string());
        event("test_evt", "rid-2", "k=w".to_string());
        let snap = snapshot();
        assert!(!snap.is_empty());
        for pair in snap.windows(2) {
            assert!(pair[0].seq < pair[1].seq, "snapshot sorted by seq");
        }
        assert!(snap
            .iter()
            .any(|e| e.kind == "test_evt" && e.request_id == "rid-2" && e.detail == "k=w"));
        assert!(recorded() >= 2);

        let json = blackbox_json("unit_test", &snap);
        let v = crate::json::parse(&json).expect("blackbox parses");
        assert_eq!(v.get("reason").and_then(|r| r.as_str()), Some("unit_test"));
        assert!(v.get("events").and_then(|e| e.as_arr()).is_some());
    }
}
