//! The resident daemon: accept loop, admission control, worker pool,
//! watchdog.
//!
//! Concurrency layout (std-only, sized for small machines):
//!
//! - one **accept thread** polls a nonblocking unix listener;
//! - one **reader thread per connection** parses request lines and
//!   answers control ops and rejections in line;
//! - a pool of **serve workers** drains the admission queue and runs
//!   analyses through a shared [`Engine`] (one work-stealing match
//!   pool and one bounded LRU match cache across all requests);
//! - one **watchdog thread** that keeps the pool whole: it requeues
//!   work stranded by a dead worker, respawns the worker, supersedes
//!   workers stalled past `stall_timeout_ms`, and heals the engine's
//!   match pool.
//!
//! Admission is a single bounded queue guarded by one mutex/condvar
//! pair; the same lock covers the drain protocol, so a request can
//! never slip into the queue after the workers have decided to exit.
//! Per-connection backpressure is a counting window: a reader that has
//! `conn_window` requests in flight blocks before parsing more, which
//! pushes back on the client through the kernel socket buffer.
//!
//! Self-healing invariant: every admitted job is answered exactly
//! once. A worker parks its job in its slot before processing, so if
//! the thread dies the watchdog finds the orphan, pushes it back to
//! the queue front, and respawns the slot — the job is answered by the
//! replacement. A *stalled* worker (heartbeat frozen past the timeout)
//! is superseded instead: a fresh worker takes the slot for new work
//! while the old thread keeps its job and still answers it when it
//! finally wakes, then notices its slot was taken and exits.
//! Lock order is workers → busy → queue; workers never take the
//! workers lock, so the watchdog cannot deadlock against them.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use obs::Counter;
use repro_engine::{AnalysisRequest, Engine, EngineConfig, EngineError, EngineMetrics};
use repro_ir::ContentHasher;
use repro_query::{LoadReport, QueryConfig, QueryDb};
use serde::Serialize;

use crate::protocol::{
    error_line, parse_request, read_bounded_line, status, AnalyzeRequest, LineRead, Request,
    ResponseLine,
};
use crate::quota::{QuotaConfig, TenantQuotas};

#[cfg(feature = "fault-inject")]
use crate::chaos::{ChaosState, JobChaos};

#[cfg(feature = "fault-inject")]
type ChaosHandle = Option<Arc<ChaosState>>;
#[cfg(not(feature = "fault-inject"))]
type ChaosHandle = ();

/// Daemon knobs. Defaults are sized for a small CI box: two serve
/// workers over a two-thread match pool, a 64-deep admission queue,
/// and quotas off.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    pub socket: PathBuf,
    /// Serve workers (concurrent analyses). 0 means 2.
    pub workers: usize,
    /// Match-pool threads inside the shared engine. 0 means 2.
    pub analysis_threads: usize,
    /// Admission queue bound; a full queue rejects with `overloaded`.
    pub admission_capacity: usize,
    /// Per-connection in-flight window (backpressure), minimum 1.
    pub conn_window: usize,
    pub quota: QuotaConfig,
    /// Shared match-cache entry bound (0 = unbounded).
    pub cache_capacity: usize,
    /// Shared match-cache byte bound (0 = unbounded); eviction honors
    /// whichever of the entry and byte caps trips first.
    pub cache_capacity_bytes: usize,
    /// Default per-sub-DDG match budget when the request names none.
    pub default_budget_ms: u64,
    /// Default whole-request deadline when the request names none.
    pub default_deadline_ms: Option<u64>,
    /// Request lines longer than this are refused with
    /// `protocol_error` and the connection dropped (a slow-loris or
    /// runaway client must not buffer without bound).
    pub max_line_bytes: usize,
    /// Watchdog sweep interval.
    pub watchdog_interval_ms: u64,
    /// A worker busy on one request longer than this is presumed
    /// stalled and superseded (its answer, if it ever comes, still
    /// goes out).
    pub stall_timeout_ms: u64,
    /// How long the startup probe waits for a predecessor daemon to
    /// answer a ping before declaring its socket stale.
    pub probe_timeout_ms: u64,
    /// SLO objective and window geometry (good/bad accounting surfaces
    /// in `stats` and the metrics stream).
    pub slo: obs::SloConfig,
    /// Where automatic flight-recorder dumps land (worker death, panic,
    /// stale-socket takeover). `None` derives `<socket>.blackbox.json`.
    pub blackbox_path: Option<PathBuf>,
    /// Directory for the persistent query cache (DESIGN.md §18):
    /// segments are loaded at startup — so a restarted daemon answers
    /// repeated requests as query hits — and rewritten on clean
    /// shutdown. `None` (the default) keeps the cache memory-only.
    pub cache_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("repro-serve.sock"),
            workers: 2,
            analysis_threads: 2,
            admission_capacity: 64,
            conn_window: 8,
            quota: QuotaConfig::default(),
            cache_capacity: repro_query::DEFAULT_CACHE_CAPACITY,
            cache_capacity_bytes: 0,
            default_budget_ms: 60_000,
            default_deadline_ms: Some(10_000),
            max_line_bytes: 256 * 1024,
            watchdog_interval_ms: 100,
            stall_timeout_ms: 10_000,
            probe_timeout_ms: 500,
            slo: obs::SloConfig::default(),
            blackbox_path: None,
            cache_dir: None,
        }
    }
}

/// Serve-side counter snapshot. The same counts are registered in the
/// obs metrics registry under `serve.*`.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct ServeMetrics {
    pub connections: u64,
    pub requests: u64,
    pub ok: u64,
    pub degraded: u64,
    pub overloaded: u64,
    pub quota: u64,
    pub bad_requests: u64,
    pub trace_errors: u64,
    pub worker_lost: u64,
    pub internal_errors: u64,
    /// Requests answered `overloaded` because their queue wait had
    /// already consumed the deadline (subset of `overloaded`).
    pub shed: u64,
    /// Serve workers respawned by the watchdog (dead or stalled).
    pub workers_respawned: u64,
    /// Serve workers superseded for stalling (subset of respawned).
    pub workers_stalled: u64,
    /// Request lines refused for exceeding `max_line_bytes`.
    pub oversized_lines: u64,
    /// Stale predecessor sockets taken over at startup.
    pub stale_takeovers: u64,
    /// Analyze requests answered by another in-flight request's
    /// computation (single-flight coalescing).
    pub coalesced: u64,
}

/// One serve counter: a per-server count plus the process-global
/// `serve.*` registry counter (the registry is shared, so a test
/// process running several servers still gets exact per-server
/// numbers from the local half).
struct Stat {
    local: std::sync::atomic::AtomicU64,
    global: Counter,
}

impl Stat {
    fn new(name: &str) -> Stat {
        Stat {
            local: std::sync::atomic::AtomicU64::new(0),
            global: obs::counter(name),
        }
    }

    fn inc(&self) {
        self.local.fetch_add(1, Ordering::Relaxed);
        self.global.inc();
    }

    fn get(&self) -> u64 {
        self.local.load(Ordering::Relaxed)
    }
}

struct Counters {
    connections: Stat,
    requests: Stat,
    ok: Stat,
    degraded: Stat,
    overloaded: Stat,
    quota: Stat,
    bad_requests: Stat,
    trace_errors: Stat,
    worker_lost: Stat,
    internal_errors: Stat,
    shed: Stat,
    workers_respawned: Stat,
    workers_stalled: Stat,
    oversized_lines: Stat,
    stale_takeovers: Stat,
    coalesced: Stat,
}

impl Counters {
    fn new() -> Counters {
        Counters {
            connections: Stat::new("serve.connections"),
            requests: Stat::new("serve.requests"),
            ok: Stat::new("serve.ok"),
            degraded: Stat::new("serve.degraded"),
            overloaded: Stat::new("serve.overloaded"),
            quota: Stat::new("serve.quota"),
            bad_requests: Stat::new("serve.bad_requests"),
            trace_errors: Stat::new("serve.trace_errors"),
            worker_lost: Stat::new("serve.worker_lost"),
            internal_errors: Stat::new("serve.internal_errors"),
            shed: Stat::new("serve.shed"),
            workers_respawned: Stat::new("serve.workers_respawned"),
            workers_stalled: Stat::new("serve.workers_stalled"),
            oversized_lines: Stat::new("serve.oversized_lines"),
            stale_takeovers: Stat::new("serve.stale_takeovers"),
            coalesced: Stat::new("serve.coalesced"),
        }
    }

    fn snapshot(&self) -> ServeMetrics {
        ServeMetrics {
            connections: self.connections.get(),
            requests: self.requests.get(),
            ok: self.ok.get(),
            degraded: self.degraded.get(),
            overloaded: self.overloaded.get(),
            quota: self.quota.get(),
            bad_requests: self.bad_requests.get(),
            trace_errors: self.trace_errors.get(),
            worker_lost: self.worker_lost.get(),
            internal_errors: self.internal_errors.get(),
            shed: self.shed.get(),
            workers_respawned: self.workers_respawned.get(),
            workers_stalled: self.workers_stalled.get(),
            oversized_lines: self.oversized_lines.get(),
            stale_takeovers: self.stale_takeovers.get(),
            coalesced: self.coalesced.get(),
        }
    }
}

/// One admitted analyze request waiting for (or on) a worker. `Clone`
/// because a worker parks a copy in its slot while processing, so the
/// watchdog can recover the job if the worker dies.
#[derive(Clone)]
struct Job {
    req: Arc<AnalyzeRequest>,
    conn: Arc<Conn>,
    enqueued: Instant,
}

struct QueueState {
    jobs: VecDeque<Job>,
    /// Jobs currently on a worker.
    active: usize,
    /// Set once; after this no job enters the queue, and the queue
    /// going idle (empty + no active) is final.
    draining: bool,
}

/// What one worker incarnation is doing right now. The parked `job` is
/// the self-healing handle: it outlives the thread.
#[derive(Default)]
struct BusyState {
    job: Option<Job>,
    since: Option<Instant>,
}

/// State shared between one worker incarnation and the watchdog. A
/// fresh `WorkerShared` is installed per incarnation, so `exit` only
/// ever signals the thread it was born with.
struct WorkerShared {
    /// Set by the watchdog to supersede a stalled worker: finish the
    /// current job, answer it, then exit instead of looping.
    exit: AtomicBool,
    busy: Mutex<BusyState>,
    /// Process-unique incarnation number, stamped into flight-recorder
    /// pickup events so a dump distinguishes the worker that died on a
    /// request from the respawn that answered its retry.
    incarnation: u64,
}

impl WorkerShared {
    fn new(incarnation: u64) -> WorkerShared {
        WorkerShared {
            exit: AtomicBool::new(false),
            busy: Mutex::new(BusyState::default()),
            incarnation,
        }
    }
}

/// One position in the serve-worker pool: the incarnation currently
/// holding it, plus its join handle (`None` only after a drain-time
/// death with nothing left to do).
struct WorkerSlot {
    shared: Arc<WorkerShared>,
    handle: Option<JoinHandle<()>>,
}

/// Per-connection write half and backpressure window.
struct Conn {
    stream: UnixStream,
    write: Mutex<()>,
    inflight: Mutex<usize>,
    inflight_cv: Condvar,
    #[cfg(feature = "fault-inject")]
    chaos: ChaosHandle,
}

impl Conn {
    fn send(&self, line: &str) {
        // A vanished client is not a daemon error; drop the response.
        let _ = self.send_ok(line);
    }

    /// Like [`Conn::send`] but reports whether the write landed — the
    /// metrics streamer uses this to stop when its subscriber is gone.
    fn send_ok(&self, line: &str) -> bool {
        let _guard = self.write.lock().unwrap_or_else(|e| e.into_inner());
        #[cfg(feature = "fault-inject")]
        if let Some(chaos) = &self.chaos {
            if let Some((chunk, delay)) = chaos.torn_write() {
                // Torn write: the full line still goes out, but in
                // tiny flushed pieces with sleeps between, exercising
                // the client's frame reassembly.
                let mut buf = Vec::with_capacity(line.len() + 1);
                buf.extend_from_slice(line.as_bytes());
                buf.push(b'\n');
                let mut s = &self.stream;
                for piece in buf.chunks(chunk) {
                    if s.write_all(piece).and_then(|_| s.flush()).is_err() {
                        return false;
                    }
                    std::thread::sleep(delay);
                }
                return true;
            }
        }
        let mut s = &self.stream;
        s.write_all(line.as_bytes())
            .and_then(|_| s.write_all(b"\n"))
            .and_then(|_| s.flush())
            .is_ok()
    }

    fn acquire_window(&self, limit: usize) {
        let mut n = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        while *n >= limit {
            n = self.inflight_cv.wait(n).unwrap_or_else(|e| e.into_inner());
        }
        *n += 1;
    }

    fn release_window(&self) {
        let mut n = self.inflight.lock().unwrap_or_else(|e| e.into_inner());
        *n = n.saturating_sub(1);
        self.inflight_cv.notify_all();
    }
}

/// One analyze computation in flight, for single-flight coalescing.
/// `leader` is the request `Arc` of the job actually computing; any
/// *identical* request picked up meanwhile parks itself in `followers`
/// and is answered from the leader's outcome. The `Arc` identity also
/// resolves the recovered-leader case: a watchdog-requeued leader job
/// is ptr-equal to `leader`, so its replacement worker computes
/// instead of waiting on a thread that no longer exists.
struct Inflight {
    leader: Arc<AnalyzeRequest>,
    followers: Vec<Job>,
}

struct Shared {
    config: ServeConfig,
    engine: Engine,
    /// The engine's query DB (shared handle, for persistence + stats).
    db: Arc<QueryDb>,
    /// What loading `cache_dir` found at startup, surfaced in `stats`.
    cache_load: Option<LoadReport>,
    /// Single-flight table: canonical analyze fingerprint → in-flight
    /// computation.
    inflight: Mutex<HashMap<u128, Inflight>>,
    queue: Mutex<QueueState>,
    queue_cv: Condvar,
    quotas: TenantQuotas,
    counters: Counters,
    stop: AtomicBool,
    conns: Mutex<Vec<Arc<Conn>>>,
    /// Compiled starbench programs, keyed `"name:version"`.
    programs: Mutex<HashMap<String, repro_ir::Program>>,
    started: Instant,
    /// The worker pool's slots (watchdog-managed).
    workers: Mutex<Vec<WorkerSlot>>,
    /// Handles of superseded workers, joined at [`Server::join`].
    retired: Mutex<Vec<JoinHandle<()>>>,
    /// Metric-stream threads spawned by `subscribe`, joined at
    /// [`Server::join`].
    streamers: Mutex<Vec<JoinHandle<()>>>,
    /// Good/bad SLO accounting for answered requests.
    slo: obs::SloTracker,
    /// Resolved target for automatic flight-recorder dumps.
    blackbox_path: PathBuf,
    /// Hands out worker incarnation numbers (process-unique).
    next_incarnation: std::sync::atomic::AtomicU64,
    #[cfg(feature = "fault-inject")]
    chaos: ChaosHandle,
}

/// Writes the flight recorder to the configured blackbox path. Called
/// on worker death, worker panic, stall supersede, and stale-socket
/// takeover; failures are counted, never fatal — losing a dump must
/// not take down the daemon that is busy surviving a fault.
fn auto_blackbox(shared: &Shared, reason: &str) {
    obs::flight::event("blackbox_dump", "", format!("reason={reason}"));
    if obs::flight::write_blackbox(&shared.blackbox_path, reason).is_ok() {
        obs::counter("serve.blackbox_dumps").inc();
    } else {
        obs::counter("serve.blackbox_dump_failures").inc();
    }
}

/// A running daemon. [`Server::start`] binds and spawns the threads;
/// shutdown arrives either over the wire (`{"op":"shutdown"}`) or via
/// [`Server::shutdown`], and [`Server::join`] blocks until the drain
/// completes and every thread has exited.
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    watchdog: Option<JoinHandle<()>>,
}

impl Server {
    pub fn start(config: ServeConfig) -> std::io::Result<Server> {
        // Under `fault-inject` the no-chaos handle is `None`; without
        // the feature it degenerates to `()` — clippy's unit-arg lint
        // fires on the latter cfg only.
        #[allow(clippy::unit_arg, clippy::default_constructed_unit_structs)]
        Server::start_inner(config, ChaosHandle::default())
    }

    /// Starts a daemon with a scripted chaos plan wired into its
    /// workers and sockets (test/benchmark harness only).
    #[cfg(feature = "fault-inject")]
    pub fn start_with_chaos(
        config: ServeConfig,
        plan: crate::chaos::ChaosPlan,
    ) -> std::io::Result<(Server, Arc<ChaosState>)> {
        let state = Arc::new(ChaosState::new(plan));
        let server = Server::start_inner(config, Some(Arc::clone(&state)))?;
        Ok((server, state))
    }

    fn start_inner(config: ServeConfig, chaos: ChaosHandle) -> std::io::Result<Server> {
        #[cfg(not(feature = "fault-inject"))]
        let () = chaos;
        let socket = config.socket.clone();
        let mut took_over_stale = false;
        if socket.exists() {
            // Probe the predecessor. Three outcomes: it answers a ping
            // (live daemon — refuse to start), it accepts the connect
            // but never answers (hung daemon — its socket is as dead
            // as a crashed one), or the connect fails (crashed daemon
            // left a stale file). The latter two are taken over.
            match UnixStream::connect(&socket) {
                Ok(probe) => {
                    let timeout = Duration::from_millis(config.probe_timeout_ms.max(1));
                    let _ = probe.set_read_timeout(Some(timeout));
                    let _ = probe.set_write_timeout(Some(timeout));
                    let mut alive = false;
                    let mut w = &probe;
                    if w.write_all(b"{\"op\":\"ping\"}\n")
                        .and_then(|_| w.flush())
                        .is_ok()
                    {
                        let mut line = String::new();
                        let mut reader = BufReader::new(&probe);
                        alive = reader.read_line(&mut line).is_ok_and(|n| n > 0);
                    }
                    if alive {
                        return Err(std::io::Error::new(
                            ErrorKind::AddrInUse,
                            format!("{} already has a live daemon", socket.display()),
                        ));
                    }
                    std::fs::remove_file(&socket)?;
                    took_over_stale = true;
                }
                Err(_) => {
                    std::fs::remove_file(&socket)?;
                    took_over_stale = true;
                }
            }
        }
        let listener = UnixListener::bind(&socket)?;
        listener.set_nonblocking(true)?;

        // A resident process is exactly the workload the trace/sub-DDG/
        // find stages pay off for (repeated and lightly-edited
        // requests). This is the one place the configured match-cache
        // caps take effect.
        let db = Arc::new(QueryDb::full(QueryConfig {
            match_capacity: config.cache_capacity,
            match_capacity_bytes: config.cache_capacity_bytes,
            ..QueryConfig::default()
        }));
        let cache_load = config.cache_dir.as_deref().map(|dir| {
            let report = repro_query::load_dir(&db, dir);
            obs::counter("serve.cache_records_loaded").add(report.records_loaded as u64);
            obs::counter("serve.cache_corrupt_records").add(report.corrupt_records as u64);
            obs::counter("serve.cache_version_skips").add(report.version_mismatches as u64);
            obs::flight::event(
                "cache_load",
                "",
                format!(
                    "records={} corrupt={} version_skips={}",
                    report.records_loaded, report.corrupt_records, report.version_mismatches
                ),
            );
            report
        });
        let engine = Engine::with_query(
            EngineConfig {
                workers: if config.analysis_threads == 0 {
                    2
                } else {
                    config.analysis_threads
                },
                max_concurrent_requests: 1,
                ..EngineConfig::default()
            },
            Arc::clone(&db),
        );
        let worker_count = if config.workers == 0 {
            2
        } else {
            config.workers
        };
        let blackbox_path = config
            .blackbox_path
            .clone()
            .unwrap_or_else(|| PathBuf::from(format!("{}.blackbox.json", socket.display())));
        let shared = Arc::new(Shared {
            engine,
            db,
            cache_load,
            inflight: Mutex::new(HashMap::new()),
            quotas: TenantQuotas::new(config.quota),
            counters: Counters::new(),
            queue: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                active: 0,
                draining: false,
            }),
            queue_cv: Condvar::new(),
            stop: AtomicBool::new(false),
            conns: Mutex::new(Vec::new()),
            programs: Mutex::new(HashMap::new()),
            started: Instant::now(),
            workers: Mutex::new(Vec::new()),
            retired: Mutex::new(Vec::new()),
            streamers: Mutex::new(Vec::new()),
            slo: obs::SloTracker::new(config.slo),
            blackbox_path,
            next_incarnation: std::sync::atomic::AtomicU64::new(0),
            #[cfg(feature = "fault-inject")]
            chaos,
            config,
        });
        if took_over_stale {
            shared.counters.stale_takeovers.inc();
            obs::instant("serve.stale_takeover");
            obs::flight::event(
                "takeover",
                "",
                format!("socket={}", shared.config.socket.display()),
            );
            auto_blackbox(&shared, "stale_takeover");
        }

        {
            let mut slots = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
            for i in 0..worker_count {
                let ws = Arc::new(WorkerShared::new(next_incarnation(&shared)));
                let handle = spawn_worker(&shared, Arc::clone(&ws), i);
                slots.push(WorkerSlot {
                    shared: ws,
                    handle: Some(handle),
                });
            }
        }
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(listener, &shared))
                .expect("spawn accept loop")
        };
        let watchdog = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("serve-watchdog".into())
                .spawn(move || watchdog_loop(&shared))
                .expect("spawn watchdog")
        };
        Ok(Server {
            shared,
            accept: Some(accept),
            watchdog: Some(watchdog),
        })
    }

    pub fn socket(&self) -> &Path {
        &self.shared.config.socket
    }

    pub fn metrics(&self) -> ServeMetrics {
        self.shared.counters.snapshot()
    }

    pub fn engine_metrics(&self) -> EngineMetrics {
        self.shared.engine.metrics()
    }

    /// Skews the per-tenant quota clock (chaos injection only).
    #[cfg(feature = "fault-inject")]
    pub fn set_quota_skew_ms(&self, ms: i64) {
        self.shared.quotas.set_skew_ms(ms);
        obs::instant("chaos.quota_skew");
    }

    /// Programmatic shutdown: drain in-flight work, then stop every
    /// thread. Equivalent to a wire `shutdown` minus the response.
    pub fn shutdown(&self) {
        begin_drain(&self.shared);
        wait_drained(&self.shared);
        stop_all(&self.shared);
    }

    /// Blocks until the daemon has fully stopped (after a wire or
    /// programmatic shutdown) and the socket file is gone.
    pub fn join(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut slots = self
                .shared
                .workers
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            slots.iter_mut().filter_map(|s| s.handle.take()).collect()
        };
        for h in handles {
            let _ = h.join();
        }
        let retired: Vec<JoinHandle<()>> = {
            let mut r = self
                .shared
                .retired
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            r.drain(..).collect()
        };
        for h in retired {
            let _ = h.join();
        }
        let streamers: Vec<JoinHandle<()>> = {
            let mut s = self
                .shared
                .streamers
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.drain(..).collect()
        };
        for h in streamers {
            let _ = h.join();
        }
    }
}

fn next_incarnation(shared: &Shared) -> u64 {
    shared.next_incarnation.fetch_add(1, Ordering::Relaxed)
}

fn begin_drain(shared: &Shared) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    q.draining = true;
    shared.queue_cv.notify_all();
}

fn wait_drained(shared: &Shared) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    while q.active > 0 || !q.jobs.is_empty() {
        q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
    }
}

/// Stops the accept loop, the watchdog, and every connection reader.
/// A clean stop is also when the persistent query cache is rewritten:
/// the drain has completed, so the stores are quiescent.
fn stop_all(shared: &Shared) {
    if let Some(dir) = shared.config.cache_dir.as_deref() {
        match repro_query::save_dir(&shared.db, dir) {
            Ok(saved) => obs::flight::event(
                "cache_save",
                "",
                format!("trace={} find={}", saved.trace_records, saved.find_records),
            ),
            // Persistence is an optimization; failing to write it must
            // never block a shutdown.
            Err(e) => {
                obs::counter("serve.cache_save_failures").inc();
                obs::flight::event("cache_save_failed", "", e.to_string());
            }
        }
    }
    shared.stop.store(true, Ordering::SeqCst);
    let conns = shared.conns.lock().unwrap_or_else(|e| e.into_inner());
    for conn in conns.iter() {
        // EOF the readers; pending writes still flush.
        let _ = conn.stream.shutdown(std::net::Shutdown::Read);
    }
}

fn spawn_worker(shared: &Arc<Shared>, ws: Arc<WorkerShared>, idx: usize) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("serve-worker-{idx}"))
        .spawn(move || worker_loop(&shared, &ws, idx))
        .expect("spawn serve worker")
}

/// The watchdog: sweeps the worker slots every `watchdog_interval_ms`,
/// recovering from dead workers (requeue orphan + respawn) and stalled
/// ones (supersede), and heals the engine's match pool. Runs until
/// [`stop_all`], i.e. through the drain, so workers killed mid-drain
/// still get their jobs requeued and finished.
fn watchdog_loop(shared: &Arc<Shared>) {
    let ticks = obs::counter("serve.watchdog_ticks");
    let interval = Duration::from_millis(shared.config.watchdog_interval_ms.max(10));
    let stall_timeout = Duration::from_millis(shared.config.stall_timeout_ms.max(1));
    while !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(interval);
        ticks.inc();
        // Heal the engine's match pool first: a serve worker blocked
        // on an analysis needs the match workers alive to finish.
        shared.engine.heal();
        let mut slots = shared.workers.lock().unwrap_or_else(|e| e.into_inner());
        for idx in 0..slots.len() {
            let finished = slots[idx].handle.as_ref().is_none_or(|h| h.is_finished());
            if finished {
                heal_dead_slot(shared, &mut slots[idx], idx);
            } else {
                let stalled = {
                    let busy = slots[idx]
                        .shared
                        .busy
                        .lock()
                        .unwrap_or_else(|e| e.into_inner());
                    busy.since.is_some_and(|s| s.elapsed() >= stall_timeout)
                };
                if stalled {
                    supersede_stalled_slot(shared, &mut slots[idx], idx);
                }
            }
        }
    }
}

/// A worker thread died (or its slot was already empty). Recover its
/// parked job, if any, to the queue front, and respawn the slot unless
/// the daemon is draining with nothing left to do.
fn heal_dead_slot(shared: &Arc<Shared>, slot: &mut WorkerSlot, idx: usize) {
    let dead_incarnation = slot.shared.incarnation;
    let orphan = {
        let mut busy = slot.shared.busy.lock().unwrap_or_else(|e| e.into_inner());
        busy.since = None;
        busy.job.take()
    };
    let had_orphan = orphan.is_some();
    let orphan_id = orphan
        .as_ref()
        .map(|j| j.req.id.clone())
        .unwrap_or_default();
    let should_respawn = {
        let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(job) = orphan {
            // Front, not back: the orphan has already waited its turn.
            q.jobs.push_front(job);
            q.active -= 1;
        }
        let respawn = !q.draining || !q.jobs.is_empty();
        shared.queue_cv.notify_all();
        respawn
    };
    if let Some(h) = slot.handle.take() {
        let _ = h.join();
    }
    if should_respawn {
        // A worker exiting cleanly at drain time is not a death; only
        // count (and log) respawns that replace real capacity.
        shared.counters.workers_respawned.inc();
        obs::instant("serve.worker_respawn");
        obs::flight::event(
            "worker_dead",
            &orphan_id,
            format!("slot={idx} inc={dead_incarnation} requeued={had_orphan}"),
        );
        let ws = Arc::new(WorkerShared::new(next_incarnation(shared)));
        obs::flight::event(
            "worker_respawn",
            &orphan_id,
            format!("slot={idx} inc={}", ws.incarnation),
        );
        slot.shared = Arc::clone(&ws);
        slot.handle = Some(spawn_worker(shared, ws, idx));
        auto_blackbox(shared, "worker_death");
    } else if had_orphan {
        // Unreachable in practice (orphan ⇒ queue non-empty ⇒
        // respawn), kept for the invariant's sake.
        shared.queue_cv.notify_all();
    }
}

/// A worker has been busy on one job past the stall timeout. Supersede
/// it: signal the old incarnation to exit after (still) answering its
/// job, and install a fresh incarnation in the slot so the pool keeps
/// its capacity. Nothing is requeued — the job is answered exactly
/// once, by the stalled thread, whenever it wakes.
fn supersede_stalled_slot(shared: &Arc<Shared>, slot: &mut WorkerSlot, idx: usize) {
    slot.shared.exit.store(true, Ordering::SeqCst);
    shared.counters.workers_stalled.inc();
    shared.counters.workers_respawned.inc();
    obs::instant("serve.worker_superseded");
    let stalled_id = {
        let busy = slot.shared.busy.lock().unwrap_or_else(|e| e.into_inner());
        busy.job
            .as_ref()
            .map(|j| j.req.id.clone())
            .unwrap_or_default()
    };
    let old = slot.handle.take();
    let ws = Arc::new(WorkerShared::new(next_incarnation(shared)));
    obs::flight::event(
        "stall_supersede",
        &stalled_id,
        format!(
            "slot={idx} stalled_inc={} new_inc={}",
            slot.shared.incarnation, ws.incarnation
        ),
    );
    auto_blackbox(shared, "worker_stall");
    slot.shared = Arc::clone(&ws);
    slot.handle = Some(spawn_worker(shared, ws, idx));
    if let Some(h) = old {
        shared
            .retired
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(h);
    }
}

fn accept_loop(listener: UnixListener, shared: &Arc<Shared>) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                shared.counters.connections.inc();
                let conn = Arc::new(Conn {
                    stream,
                    write: Mutex::new(()),
                    inflight: Mutex::new(0),
                    inflight_cv: Condvar::new(),
                    #[cfg(feature = "fault-inject")]
                    chaos: shared.chaos.clone(),
                });
                shared
                    .conns
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .push(Arc::clone(&conn));
                let shared = Arc::clone(shared);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".into())
                    .spawn(move || reader_loop(&shared, &conn));
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => break,
        }
    }
    let _ = std::fs::remove_file(&shared.config.socket);
}

fn reader_loop(shared: &Arc<Shared>, conn: &Arc<Conn>) {
    let Ok(read_half) = conn.stream.try_clone() else {
        return;
    };
    let _ = read_half.set_nonblocking(false);
    let mut reader = BufReader::new(read_half);
    let max_line = shared.config.max_line_bytes.max(1024);
    loop {
        let line = match read_bounded_line(&mut reader, max_line) {
            Ok(LineRead::Line(line)) => line,
            Ok(LineRead::Eof) | Err(_) => break,
            Ok(LineRead::TooLong) => {
                // An unbounded line is indistinguishable from an
                // attack on daemon memory: answer with a labeled
                // error and drop the connection rather than keep
                // buffering.
                shared.counters.oversized_lines.inc();
                conn.send(&error_line(
                    "",
                    status::PROTOCOL_ERROR,
                    &format!("request line exceeds {max_line} bytes; closing connection"),
                ));
                // The registry in `shared.conns` keeps the stream
                // alive past this thread, so hang up explicitly: the
                // hostile peer must see the close, not a stall.
                let _ = conn.stream.shutdown(std::net::Shutdown::Both);
                break;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        #[cfg(feature = "fault-inject")]
        if let Some(chaos) = &shared.chaos {
            if let Some(delay) = chaos.read_delay() {
                std::thread::sleep(delay);
            }
        }
        // Per-op latency for the inline control ops (analyze latency is
        // recorded by the worker, end to end from admission).
        let control_timer = |op: &str| {
            let h = obs::histogram(&format!("serve.latency.op.{op}"));
            let t0 = Instant::now();
            move || h.record(t0.elapsed())
        };
        match parse_request(&line) {
            Err(msg) => {
                shared.counters.requests.inc();
                shared.counters.bad_requests.inc();
                conn.send(&error_line("", status::BAD_REQUEST, &msg));
            }
            Ok(Request::Ping) => {
                conn.send(&ResponseLine::new("", status::OK).str("op", "ping").finish());
            }
            Ok(Request::Stats) => {
                let done = control_timer("stats");
                conn.send(&stats_line(shared));
                done();
            }
            Ok(Request::TraceDump { path }) => {
                let done = control_timer("trace_dump");
                conn.send(&trace_dump_line(shared, &path));
                done();
            }
            Ok(Request::Blackbox { path }) => {
                let done = control_timer("blackbox");
                conn.send(&blackbox_line(&path));
                done();
            }
            Ok(Request::Prometheus) => {
                let done = control_timer("prometheus");
                conn.send(&prometheus_line(shared));
                done();
            }
            Ok(Request::Subscribe { interval_ms, ticks }) => {
                start_subscriber(shared, conn, interval_ms, ticks);
            }
            Ok(Request::Shutdown) => {
                begin_drain(shared);
                wait_drained(shared);
                conn.send(
                    &ResponseLine::new("", status::OK)
                        .str("op", "shutdown")
                        .num("served", shared.counters.requests.get() as f64)
                        .finish(),
                );
                stop_all(shared);
            }
            Ok(Request::Analyze(req)) => admit(shared, conn, req),
        }
    }
}

/// Runs admission for one analyze request: quota, then backpressure
/// window, then the bounded queue — all rejections answered in line.
fn admit(shared: &Arc<Shared>, conn: &Arc<Conn>, req: Box<AnalyzeRequest>) {
    shared.counters.requests.inc();
    if !shared.quotas.admit(&req.tenant) {
        shared.counters.quota.inc();
        obs::flight::event("quota_deny", &req.id, format!("tenant={}", req.tenant));
        conn.send(&error_line(
            &req.id,
            status::QUOTA,
            &format!("tenant {:?} is out of tokens", req.tenant),
        ));
        return;
    }
    conn.acquire_window(shared.config.conn_window.max(1));
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    if q.draining {
        drop(q);
        conn.release_window();
        shared.counters.overloaded.inc();
        obs::flight::event("overloaded", &req.id, "reason=draining".to_string());
        conn.send(&error_line(
            &req.id,
            status::OVERLOADED,
            "daemon is draining for shutdown",
        ));
    } else if q.jobs.len() >= shared.config.admission_capacity.max(1) {
        drop(q);
        conn.release_window();
        shared.counters.overloaded.inc();
        obs::flight::event("overloaded", &req.id, "reason=queue_full".to_string());
        conn.send(&error_line(
            &req.id,
            status::OVERLOADED,
            &format!(
                "admission queue full (capacity {})",
                shared.config.admission_capacity.max(1)
            ),
        ));
    } else {
        obs::flight::event(
            "enqueue",
            &req.id,
            format!("tenant={} depth={}", req.tenant, q.jobs.len()),
        );
        q.jobs.push_back(Job {
            req: Arc::from(req),
            conn: Arc::clone(conn),
            enqueued: Instant::now(),
        });
        shared.queue_cv.notify_all();
    }
}

/// Finishes one job's accounting: drop the active count and wake the
/// drain waiter if the queue just went idle.
fn finish_job(shared: &Shared) {
    let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    q.active -= 1;
    if q.draining && q.active == 0 && q.jobs.is_empty() {
        shared.queue_cv.notify_all();
    }
}

/// Extracts the `status` label from a response line built by
/// [`ResponseLine`] (always the second field). Used to classify the
/// answer for flight/SLO accounting without re-parsing the JSON.
fn response_status(line: &str) -> &str {
    line.split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map(|(status, _)| status)
        .unwrap_or("")
}

fn worker_loop(shared: &Arc<Shared>, ws: &Arc<WorkerShared>, idx: usize) {
    let heartbeats = obs::counter("serve.worker_heartbeats");
    loop {
        if ws.exit.load(Ordering::SeqCst) {
            return;
        }
        let job = {
            let mut q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if ws.exit.load(Ordering::SeqCst) {
                    return;
                }
                if let Some(job) = q.jobs.pop_front() {
                    q.active += 1;
                    break job;
                }
                if q.draining {
                    return;
                }
                q = shared.queue_cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        heartbeats.inc();
        // Deadline-aware shedding: if the queue wait alone has
        // consumed the request's deadline, nobody is waiting for the
        // answer — shed it now instead of burning a worker on it.
        let deadline_ms = job.req.deadline_ms.or(shared.config.default_deadline_ms);
        if let Some(ms) = deadline_ms {
            let waited = job.enqueued.elapsed();
            if waited >= Duration::from_millis(ms) {
                shared.counters.shed.inc();
                shared.counters.overloaded.inc();
                obs::instant("serve.shed");
                obs::flight::event(
                    "shed",
                    &job.req.id,
                    format!("waited_ms={} deadline_ms={ms}", waited.as_millis()),
                );
                job.conn.send(&error_line(
                    &job.req.id,
                    status::OVERLOADED,
                    &format!(
                        "shed: queued {}ms against a {ms}ms deadline",
                        waited.as_millis()
                    ),
                ));
                job.conn.release_window();
                finish_job(shared);
                continue;
            }
        }
        obs::flight::event(
            "pickup",
            &job.req.id,
            format!(
                "worker={idx} inc={} wait_ms={}",
                ws.incarnation,
                job.enqueued.elapsed().as_millis()
            ),
        );
        // Single-flight coalescing: if an identical computation is
        // already in flight, attach this job as a follower — it will be
        // answered from the leader's outcome — and free this worker for
        // other work. A requeued job that *is* the recorded leader (the
        // watchdog recovered it from a dead worker, `Arc` identity)
        // must compute, not wait on a thread that no longer exists.
        let flight_key = analyze_fingerprint(&job.req);
        let leads = {
            let mut infl = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
            match infl.get_mut(&flight_key) {
                Some(entry) if !Arc::ptr_eq(&entry.leader, &job.req) => {
                    entry.followers.push(job.clone());
                    false
                }
                Some(_) => true,
                None => {
                    infl.insert(
                        flight_key,
                        Inflight {
                            leader: Arc::clone(&job.req),
                            followers: Vec::new(),
                        },
                    );
                    true
                }
            }
        };
        if !leads {
            shared.counters.coalesced.inc();
            obs::instant("serve.coalesce");
            obs::flight::event("coalesce", &job.req.id, format!("worker={idx}"));
            // The follower's connection window stays held until the
            // leader sends its answer; only the queue slot is returned.
            finish_job(shared);
            continue;
        }
        // Park the job in the slot before touching it: from here until
        // the answer is sent, a death of this thread leaves the job
        // recoverable by the watchdog.
        {
            let mut busy = ws.busy.lock().unwrap_or_else(|e| e.into_inner());
            busy.job = Some(job.clone());
            busy.since = Some(Instant::now());
        }
        #[cfg(feature = "fault-inject")]
        if let Some(chaos) = &shared.chaos {
            match chaos.next_job_fault() {
                // Abrupt death: the job stays parked (and the active
                // count held) for the watchdog to recover.
                JobChaos::Kill => return,
                JobChaos::Stall(d) => std::thread::sleep(d),
                JobChaos::None => {}
            }
        }
        // Zero worker loss: a panic anywhere in request processing is
        // contained to an `internal_error` response for that request
        // (and its followers).
        let computed =
            catch_unwind(AssertUnwindSafe(|| compute(shared, &job.req))).unwrap_or_else(|_| {
                obs::flight::event(
                    "panic",
                    &job.req.id,
                    format!("worker={idx} inc={}", ws.incarnation),
                );
                auto_blackbox(shared, "worker_panic");
                Computed::Panicked
            });
        // Record before sending: a client that sees this answer and
        // immediately asks for `stats` must find it already counted.
        let line = render_answer(shared, &job.req.id, &computed, false);
        record_answer(shared, &job, &line);
        // Retire the in-flight entry *before* sending the leader's
        // answer: once a client holds that answer, an identical
        // follow-up must start fresh — and be a query-store hit — not
        // attach to a computation that already finished.
        let followers = {
            let mut infl = shared.inflight.lock().unwrap_or_else(|e| e.into_inner());
            infl.remove(&flight_key)
                .map(|e| e.followers)
                .unwrap_or_default()
        };
        job.conn.send(&line);
        for fjob in followers {
            let fline = render_answer(shared, &fjob.req.id, &computed, true);
            record_answer(shared, &fjob, &fline);
            fjob.conn.send(&fline);
            fjob.conn.release_window();
        }
        {
            let mut busy = ws.busy.lock().unwrap_or_else(|e| e.into_inner());
            busy.job = None;
            busy.since = None;
        }
        job.conn.release_window();
        finish_job(shared);
    }
}

/// Post-answer accounting: end-to-end latency histograms (per op and
/// per tenant), the flight-recorder `answer` event, and SLO
/// classification. Policy rejections never reach here (they are
/// answered in admission or shed before pickup); of what does, `ok` in
/// time is good, server faults (`internal_error`, `worker_lost`) and
/// over-threshold `ok` are bad, and request-side failures
/// (`trace_error`, `bad_request`) are excluded from SLO accounting.
fn record_answer(shared: &Shared, job: &Job, line: &str) {
    let latency = job.enqueued.elapsed();
    let latency_ms = latency.as_secs_f64() * 1e3;
    let status_label = response_status(line);
    obs::histogram("serve.latency.op.analyze").record(latency);
    obs::histogram(&format!("serve.latency.tenant.{}", job.req.tenant)).record(latency);
    obs::flight::event(
        "answer",
        &job.req.id,
        format!("status={status_label} latency_ms={latency_ms:.1}"),
    );
    match status_label {
        status::OK => shared.slo.record_latency_ms(latency_ms, false),
        status::INTERNAL_ERROR | status::WORKER_LOST => {
            shared.slo.record_latency_ms(latency_ms, true)
        }
        _ => {}
    }
}

/// Resolves the program/input pair an analyze request names.
fn resolve(
    shared: &Shared,
    req: &AnalyzeRequest,
) -> Result<(repro_ir::Program, trace::RunConfig), String> {
    if let Some(name) = &req.bench {
        let Some(bench) = starbench::benchmark(name) else {
            return Err(unknown_bench_message(name));
        };
        let version = match req.version.as_str() {
            "seq" => starbench::Version::Seq,
            "pthreads" => starbench::Version::Pthreads,
            other => {
                return Err(format!(
                    "unknown version {other:?} (expected \"seq\" or \"pthreads\")"
                ))
            }
        };
        let key = format!("{name}:{}", req.version);
        let mut programs = shared.programs.lock().unwrap_or_else(|e| e.into_inner());
        let program = programs
            .entry(key)
            .or_insert_with(|| bench.program(version))
            .clone();
        Ok((program, (bench.analysis_input)()))
    } else {
        let source = req.source.as_deref().unwrap_or_default();
        // Compiled-program reuse: inline sources are content-addressed
        // into the query DB's program stage, and a recompile (cache
        // miss) still reuses every unchanged function's IR through the
        // fn-IR stage.
        let key = repro_query::fingerprint_source("inline", &[("inline", source)]);
        let program = match shared.db.program_get(key) {
            Some(p) => (*p).clone(),
            None => {
                let p = minc::compile_files_with_cache(
                    "inline",
                    &[("inline", source)],
                    shared.db.fn_ir_cache(),
                )
                .map_err(|e| format!("minc: {e}"))?;
                shared.db.program_put(key, Arc::new(p.clone()));
                p
            }
        };
        let mut input = trace::RunConfig::default();
        for (name, data) in &req.inputs {
            input = input.with_f64(name, data);
        }
        Ok((program, input))
    }
}

/// The friendly unknown-benchmark message, shared with the CLI tools.
pub fn unknown_bench_message(name: &str) -> String {
    starbench::unknown_benchmark_message(name)
}

/// The canonical fingerprint of what an analyze request *computes* —
/// program selection, inputs, and effective budgets, but not the
/// request id or tenant. Two requests with equal fingerprints produce
/// identical analyses, which is what makes single-flight coalescing
/// sound.
fn analyze_fingerprint(req: &AnalyzeRequest) -> u128 {
    let mut h = ContentHasher::new();
    h.write_u32(req.bench.is_some() as u32);
    h.write_str(req.bench.as_deref().unwrap_or(""));
    h.write_str(&req.version);
    h.write_u32(req.source.is_some() as u32);
    h.write_str(req.source.as_deref().unwrap_or(""));
    h.write_u64(req.inputs.len() as u64);
    for (name, data) in &req.inputs {
        h.write_str(name);
        h.write_u64(data.len() as u64);
        for v in data {
            h.write_f64(*v);
        }
    }
    // Budgets change what a deadline-bound analysis can report, so they
    // are part of the computation's identity.
    h.write_u64(req.budget_ms.map_or(u64::MAX, |v| v));
    h.write_u64(req.deadline_ms.map_or(u64::MAX, |v| v));
    h.finish().0
}

/// What one leader computation produced, in a form every waiter
/// (leader and coalesced followers) can be answered from.
enum Computed {
    /// The request never reached the engine (unknown bench, compile
    /// error, ...).
    BadRequest(String),
    /// The engine answered (successfully or not).
    Done(Box<repro_engine::AnalysisResult>),
    /// The serve worker panicked mid-computation.
    Panicked,
}

/// Runs one analyze request through the engine. No response counters
/// here — [`render_answer`] counts per *answered* request, so coalesced
/// followers are accounted like any other.
fn compute(shared: &Shared, req: &AnalyzeRequest) -> Computed {
    let mut span = obs::span_args("serve.request", || {
        vec![
            ("id", obs::ArgValue::Str(req.id.clone())),
            ("tenant", obs::ArgValue::Str(req.tenant.clone())),
        ]
    });
    let (program, input) = match resolve(shared, req) {
        Ok(pair) => pair,
        Err(msg) => return Computed::BadRequest(msg),
    };
    let mut config = discovery::FinderConfig {
        budget: discovery::MatchBudget {
            time: Duration::from_millis(req.budget_ms.unwrap_or(shared.config.default_budget_ms)),
            deadline: None,
        },
        ..discovery::FinderConfig::default()
    };
    if let Some(ms) = req.deadline_ms.or(shared.config.default_deadline_ms) {
        config.deadline = Some(Duration::from_millis(ms));
    }
    let result = shared.engine.analyze_one(AnalysisRequest {
        id: req.id.clone(),
        program,
        input,
        config,
    });
    if let Ok(analysis) = &result.outcome {
        span.arg(
            "patterns",
            obs::ArgValue::U64(analysis.result.reported().count() as u64),
        );
    }
    Computed::Done(Box::new(result))
}

/// Renders (and counts) the response for one waiter of a computation.
/// `coalesced` marks followers answered from another request's work.
fn render_answer(shared: &Shared, req_id: &str, computed: &Computed, coalesced: bool) -> String {
    match computed {
        Computed::BadRequest(msg) => {
            shared.counters.bad_requests.inc();
            error_line(req_id, status::BAD_REQUEST, msg)
        }
        Computed::Panicked => {
            shared.counters.internal_errors.inc();
            error_line(
                req_id,
                status::INTERNAL_ERROR,
                "serve worker panicked; request aborted",
            )
        }
        Computed::Done(result) => match &result.outcome {
            Ok(analysis) => {
                shared.counters.ok.inc();
                let f = &analysis.result;
                if f.degraded {
                    shared.counters.degraded.inc();
                }
                let kinds: Vec<&str> = f
                    .found
                    .iter()
                    .filter(|p| p.reported)
                    .map(|p| p.pattern.kind.short())
                    .collect();
                let m = &result.metrics;
                ResponseLine::new(req_id, status::OK)
                    .num("patterns", kinds.len() as f64)
                    .strs("kinds", &kinds)
                    .num("iterations", f.iterations as f64)
                    .num("ddg_size", f.ddg_size as f64)
                    .bool("degraded", f.degraded)
                    .num("trace_ms", m.trace_time.as_secs_f64() * 1e3)
                    .num("find_ms", m.find_time.as_secs_f64() * 1e3)
                    .num("cache_hits", m.cache_hits as f64)
                    .num("cache_misses", m.cache_misses as f64)
                    .bool("query_hit", m.query_analyze_hit || m.query_find_hit)
                    .bool("coalesced", coalesced)
                    .finish()
            }
            Err(EngineError::Trace(e)) => {
                shared.counters.trace_errors.inc();
                error_line(req_id, status::TRACE_ERROR, &e.to_string())
            }
            Err(EngineError::WorkerLost { missing }) => {
                shared.counters.worker_lost.inc();
                error_line(
                    req_id,
                    status::WORKER_LOST,
                    &format!("match workers lost with {missing} outcomes missing"),
                )
            }
        },
    }
}

fn stats_line(shared: &Shared) -> String {
    let engine = shared.engine.metrics();
    obs::gauge("cache.bytes").set(engine.cache_bytes as f64);
    obs::gauge("cache.entries").set(engine.cache_entries as f64);
    let mut engine_json = String::new();
    engine.serialize_json(&mut engine_json);
    let serve = shared.counters.snapshot();
    let mut serve_json = String::new();
    serve.serialize_json(&mut serve_json);
    let mut slo_json = String::new();
    shared.slo.snapshot().serialize_json(&mut slo_json);
    // Query-layer stage stores (hit/miss/eviction per stage) and what
    // the persistent cache load found at startup.
    let mut query_json = String::new();
    shared.db.stats().serialize_json(&mut query_json);
    let mut cache_load_json = String::new();
    shared
        .cache_load
        .unwrap_or_default()
        .serialize_json(&mut cache_load_json);
    // End-to-end latency quantiles, per op and per tenant.
    let latency: Vec<obs::registry::HistogramValue> = obs::snapshot()
        .histograms
        .into_iter()
        .filter(|h| h.name.starts_with("serve.latency."))
        .collect();
    let mut latency_json = String::new();
    latency.serialize_json(&mut latency_json);
    let uptime_s = shared.started.elapsed().as_secs_f64().max(1e-9);
    ResponseLine::new("", status::OK)
        .str("op", "stats")
        .num("uptime_ms", uptime_s * 1e3)
        // Uptime-normalized rates, so two stats snapshots compare
        // without the caller doing the division.
        .num("requests_per_s", serve.requests as f64 / uptime_s)
        .num("ok_per_s", serve.ok as f64 / uptime_s)
        // Client-side breaker state, visible when clients share this
        // process's obs registry (in-process harnesses); zero
        // otherwise.
        .num(
            "breaker_opens",
            obs::counter("client.breaker_opens").get() as f64,
        )
        .num("breaker_open", obs::gauge("client.breaker_open").get())
        .num("flight_recorded", obs::flight::recorded() as f64)
        .raw("slo", &slo_json)
        .raw("latency", &latency_json)
        .raw("serve", &serve_json)
        .raw("engine", &engine_json)
        .raw("query", &query_json)
        .raw("cache_load", &cache_load_json)
        .finish()
}

fn trace_dump_line(shared: &Shared, path: &str) -> String {
    let _ = shared;
    if let Err(msg) = crate::protocol::validate_dump_path(path) {
        return error_line("", status::BAD_REQUEST, &msg);
    }
    if !obs::enabled() {
        return error_line(
            "",
            status::BAD_REQUEST,
            "observability is disabled; restart the daemon with --obs",
        );
    }
    let threads = obs::take_events();
    match obs::write_chrome_trace(Path::new(path), &threads) {
        Ok(()) => ResponseLine::new("", status::OK)
            .str("op", "trace_dump")
            .str("path", path)
            .num("threads", threads.len() as f64)
            .finish(),
        // The path validated but the write still failed (permissions,
        // disk full): a caller/host problem, answered structurally
        // rather than counted against the daemon as an internal error.
        Err(e) => error_line(
            "",
            status::BAD_REQUEST,
            &format!("cannot write {path}: {e}"),
        ),
    }
}

fn blackbox_line(path: &str) -> String {
    if let Err(msg) = crate::protocol::validate_dump_path(path) {
        return error_line("", status::BAD_REQUEST, &msg);
    }
    match obs::flight::write_blackbox(Path::new(path), "on_demand") {
        Ok(events) => ResponseLine::new("", status::OK)
            .str("op", "blackbox")
            .str("path", path)
            .num("events", events as f64)
            .num("recorded", obs::flight::recorded() as f64)
            .num("capacity", obs::flight::capacity() as f64)
            .finish(),
        Err(e) => error_line(
            "",
            status::BAD_REQUEST,
            &format!("cannot write {path}: {e}"),
        ),
    }
}

fn prometheus_line(shared: &Shared) -> String {
    // Refresh the gauges the scrape should reflect.
    let engine = shared.engine.metrics();
    obs::gauge("cache.bytes").set(engine.cache_bytes as f64);
    obs::gauge("cache.entries").set(engine.cache_entries as f64);
    let slo = shared.slo.snapshot();
    obs::gauge("serve.slo_short_burn").set(slo.short_burn);
    obs::gauge("serve.slo_long_burn").set(slo.long_burn);
    let text = obs::prometheus_text(&obs::snapshot());
    ResponseLine::new("", status::OK)
        .str("op", "prometheus")
        .str("content_type", "text/plain; version=0.0.4")
        .str("text", &text)
        .finish()
}

/// Spawns the metric-stream thread for one `subscribe` op. Stream
/// lines share the connection write lock with responses, so they
/// interleave whole-line atomically with any analyze traffic on the
/// same connection; `"op":"metrics"` distinguishes them.
fn start_subscriber(shared: &Arc<Shared>, conn: &Arc<Conn>, interval_ms: u64, ticks: u64) {
    conn.send(
        &ResponseLine::new("", status::OK)
            .str("op", "subscribe")
            .num("interval_ms", interval_ms as f64)
            .num("ticks", ticks as f64)
            .finish(),
    );
    let handle = {
        let shared = Arc::clone(shared);
        let conn = Arc::clone(conn);
        std::thread::Builder::new()
            .name("serve-metrics-stream".into())
            .spawn(move || subscriber_loop(&shared, &conn, interval_ms, ticks))
            .expect("spawn metrics streamer")
    };
    shared
        .streamers
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push(handle);
}

fn subscriber_loop(shared: &Shared, conn: &Conn, interval_ms: u64, ticks: u64) {
    let interval = Duration::from_millis(interval_ms.max(10));
    let mut prev = shared.counters.snapshot();
    let mut tick = 0u64;
    while !shared.stop.load(Ordering::SeqCst) && (ticks == 0 || tick < ticks) {
        // Sleep in slices so shutdown is noticed promptly even with a
        // long interval.
        let wake = Instant::now() + interval;
        loop {
            let now = Instant::now();
            if now >= wake || shared.stop.load(Ordering::SeqCst) {
                break;
            }
            std::thread::sleep((wake - now).min(Duration::from_millis(50)));
        }
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let cur = shared.counters.snapshot();
        let slo = shared.slo.snapshot();
        let queue_depth = {
            let q = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            q.jobs.len() as f64
        };
        let mut serve_json = String::new();
        cur.serialize_json(&mut serve_json);
        let line = ResponseLine::new("", status::OK)
            .str("op", "metrics")
            .num("tick", tick as f64)
            .num("uptime_ms", shared.started.elapsed().as_secs_f64() * 1e3)
            .num("queue_depth", queue_depth)
            .num("requests_delta", (cur.requests - prev.requests) as f64)
            .num("ok_delta", (cur.ok - prev.ok) as f64)
            .num(
                "rejected_delta",
                (cur.overloaded + cur.quota - prev.overloaded - prev.quota) as f64,
            )
            .num(
                "errors_delta",
                (cur.internal_errors + cur.worker_lost - prev.internal_errors - prev.worker_lost)
                    as f64,
            )
            .num("slo_short_burn", slo.short_burn)
            .num("slo_long_burn", slo.long_burn)
            .raw("serve", &serve_json)
            .finish();
        // A failed write means the subscriber hung up: stop streaming.
        if !conn.send_ok(&line) {
            return;
        }
        prev = cur;
        tick += 1;
    }
    let _ = conn.send_ok(
        &ResponseLine::new("", status::OK)
            .str("op", "subscribe_end")
            .num("ticks", tick as f64)
            .finish(),
    );
}
