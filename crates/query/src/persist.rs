//! Persistent on-disk cache for the trace, exec, and find stages.
//!
//! A restarted daemon should be warm: the expensive artifacts (traced
//! run summaries and complete finder results) are written as
//! *versioned append-only segments* on clean shutdown and loaded on
//! start. The in-memory sub-DDG and match stages are rebuilt on demand
//! — they are cheap relative to tracing and their entries are large.
//!
//! ## Segment format
//!
//! ```text
//! header:  magic "RQSEG\n" (6 bytes) | CACHE_SCHEMA_VERSION (u32 LE)
//! record:  stage (u8) | key (u128 LE) | len (u32 LE) | payload | fnv64(stage‖key‖payload) (u64 LE)
//! ```
//!
//! Loading is *tolerant by construction*: a segment with the wrong
//! magic or version is skipped and counted (never an error — an old
//! daemon's cache is simply cold); a record whose checksum fails is
//! dropped and counted; a record whose framing runs past the end of
//! the file (truncation, torn write) ends that segment. A corrupt
//! cache can cost recomputation, never wrong data and never a crash.

use crate::artifact::{ExecEntry, FindArtifact, TraceArtifact};
use crate::QueryDb;
use ddg::{BitSet, NodeId};
use discovery::patterns::{Detail, Found, Pattern, PatternKind};
use discovery::SimplifyStats;
use repro_ir::{ContentHash, Value};
use std::io;
use std::path::Path;

/// Bumped whenever the segment or payload encoding changes; a mismatch
/// makes old segments invisible (counted, not fatal).
///
/// Version 2: DDG fingerprints (the `ddg_fp` of trace and exec entries,
/// and the prefix of every find key) hash word-wise, and exec entries
/// carry the shape key that re-arms the exec gate on load.
pub const CACHE_SCHEMA_VERSION: u32 = 2;

const MAGIC: &[u8; 6] = b"RQSEG\n";
const STAGE_TRACE: u8 = 1;
const STAGE_FIND: u8 = 2;
const STAGE_EXEC: u8 = 3;

/// What loading a cache directory found.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct LoadReport {
    /// Segment files read to the end.
    pub segments_loaded: usize,
    /// Records admitted into the DB.
    pub records_loaded: usize,
    /// Segment files skipped for a magic/version mismatch.
    pub version_mismatches: usize,
    /// Records dropped (checksum failure, undecodable payload, or a
    /// truncated tail).
    pub corrupt_records: usize,
    /// Segment files that ended early or failed to read.
    pub corrupt_segments: usize,
}

/// What a save wrote.
#[derive(Clone, Copy, Debug, Default)]
pub struct SaveReport {
    pub trace_records: usize,
    pub find_records: usize,
    pub exec_records: usize,
}

/// Serializes the persistable stages into fresh segments under `dir`
/// (created if needed). Existing segments are replaced — written to a
/// temporary file first, renamed into place, so a crash mid-save
/// leaves either the old cache or the new one, never a torn file.
pub fn save_dir(db: &QueryDb, dir: &Path) -> io::Result<SaveReport> {
    std::fs::create_dir_all(dir)?;
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CACHE_SCHEMA_VERSION.to_le_bytes());
    let mut report = SaveReport::default();
    for (key, artifact) in db.export_trace() {
        write_record(&mut out, STAGE_TRACE, key, &encode_trace(&artifact));
        report.trace_records += 1;
    }
    for (key, artifact) in db.export_find() {
        write_record(&mut out, STAGE_FIND, key, &encode_find(&artifact));
        report.find_records += 1;
    }
    for (key, entry, shape) in db.export_exec() {
        write_record(&mut out, STAGE_EXEC, key, &encode_exec(&entry, shape));
        report.exec_records += 1;
    }
    let tmp = dir.join("segment-000.seg.tmp");
    let dst = dir.join("segment-000.seg");
    std::fs::write(&tmp, &out)?;
    std::fs::rename(&tmp, &dst)?;
    // Stale segments from older layouts (if any) are dropped so the
    // directory always reflects exactly the state at shutdown.
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            let path = entry.path();
            if path != dst && path.extension().is_some_and(|e| e == "seg") {
                let _ = std::fs::remove_file(path);
            }
        }
    }
    Ok(report)
}

/// Loads every segment under `dir` into the DB. Missing directory is
/// an empty (cold) cache, not an error.
pub fn load_dir(db: &QueryDb, dir: &Path) -> LoadReport {
    let mut report = LoadReport::default();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return report,
    };
    let mut paths: Vec<_> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "seg"))
        .collect();
    paths.sort();
    for path in paths {
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                report.corrupt_segments += 1;
                continue;
            }
        };
        load_segment(db, &bytes, &mut report);
    }
    report
}

fn load_segment(db: &QueryDb, bytes: &[u8], report: &mut LoadReport) {
    let mut d = Dec::new(bytes);
    let ok_header = d.take(6).map(|m| m == MAGIC).unwrap_or(false)
        && d.u32().map(|v| v == CACHE_SCHEMA_VERSION).unwrap_or(false);
    if !ok_header {
        report.version_mismatches += 1;
        return;
    }
    let mut clean = true;
    while !d.at_end() {
        let Some((stage, key, payload)) = read_record(&mut d) else {
            // Truncated or torn framing: the rest of this segment is
            // unreadable. Count the partial record and stop.
            report.corrupt_records += 1;
            clean = false;
            break;
        };
        let Some(payload) = payload else {
            // Framing intact but the checksum failed (e.g. a bit flip):
            // drop this record, keep reading the rest.
            report.corrupt_records += 1;
            continue;
        };
        let admitted = match stage {
            STAGE_TRACE => decode_trace(&mut Dec::new(payload))
                .map(|a| db.trace_put(key, a))
                .is_some(),
            STAGE_FIND => decode_find(&mut Dec::new(payload))
                .map(|a| db.find_put(key, a))
                .is_some(),
            STAGE_EXEC => decode_exec(&mut Dec::new(payload))
                .map(|(e, shape)| match shape {
                    Some(shape) => db.exec_put_shaped(key, e, shape),
                    None => db.exec_put(key, e),
                })
                .is_some(),
            _ => false,
        };
        if admitted {
            report.records_loaded += 1;
        } else {
            report.corrupt_records += 1;
        }
    }
    if clean {
        report.segments_loaded += 1;
    } else {
        report.corrupt_segments += 1;
    }
}

fn write_record(out: &mut Vec<u8>, stage: u8, key: ContentHash, payload: &[u8]) {
    out.push(stage);
    out.extend_from_slice(&key.0.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&record_checksum(stage, key, payload).to_le_bytes());
}

/// Reads one record. `None` = framing failure (stop the segment);
/// `Some((_, _, None))` = checksum mismatch (skip the record).
fn read_record<'a>(d: &mut Dec<'a>) -> Option<(u8, ContentHash, Option<&'a [u8]>)> {
    let stage = d.u8()?;
    let key = ContentHash(u128::from_le_bytes(d.take(16)?.try_into().ok()?));
    let len = d.u32()? as usize;
    let payload = d.take(len)?;
    let checksum = d.u64()?;
    if checksum == record_checksum(stage, key, payload) {
        Some((stage, key, Some(payload)))
    } else {
        Some((stage, key, None))
    }
}

fn record_checksum(stage: u8, key: ContentHash, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    eat(stage);
    for b in key.0.to_le_bytes() {
        eat(b);
    }
    for &b in payload {
        eat(b);
    }
    h
}

// ---- byte-level encoder/decoder ----

#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
    fn value(&mut self, v: &Value) {
        match v {
            Value::I64(x) => {
                self.u8(1);
                self.u64(*x as u64);
            }
            Value::F64(x) => {
                self.u8(2);
                self.f64(*x);
            }
            Value::Bool(x) => {
                self.u8(3);
                self.u8(*x as u8);
            }
        }
    }
}

/// Bounds-checked reader; every accessor returns `None` past the end,
/// so corrupt input can only ever produce a dropped record.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }
    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|b| u128::from_le_bytes(b.try_into().unwrap()))
    }
    fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }
    fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }
    fn value(&mut self) -> Option<Value> {
        match self.u8()? {
            1 => Some(Value::I64(self.u64()? as i64)),
            2 => Some(Value::F64(self.f64()?)),
            3 => Some(Value::Bool(self.u8()? != 0)),
            _ => None,
        }
    }
}

// ---- trace artifact codec ----

fn encode_trace(a: &TraceArtifact) -> Vec<u8> {
    let mut e = Enc::default();
    e.u128(a.ddg_fp.0);
    e.u64(a.ddg_nodes);
    e.u64(a.steps);
    match &a.return_value {
        None => e.u8(0),
        Some(v) => {
            e.u8(1);
            e.value(v);
        }
    }
    e.u32(a.arrays.len() as u32);
    for (name, values) in &a.arrays {
        e.str(name);
        e.u32(values.len() as u32);
        for v in values {
            e.value(v);
        }
    }
    e.buf
}

fn decode_trace(d: &mut Dec) -> Option<TraceArtifact> {
    let ddg_fp = ContentHash(d.u128()?);
    let ddg_nodes = d.u64()?;
    let steps = d.u64()?;
    let return_value = match d.u8()? {
        0 => None,
        1 => Some(d.value()?),
        _ => return None,
    };
    let n_arrays = d.u32()? as usize;
    let mut arrays = Vec::with_capacity(n_arrays.min(1024));
    for _ in 0..n_arrays {
        let name = d.str()?;
        let len = d.u32()? as usize;
        let mut values = Vec::with_capacity(len.min(65536));
        for _ in 0..len {
            values.push(d.value()?);
        }
        arrays.push((name, values));
    }
    Some(TraceArtifact {
        ddg_fp,
        ddg_nodes,
        steps,
        return_value,
        arrays,
    })
}

// ---- exec entry codec ----

fn encode_exec(e: &ExecEntry, shape: Option<ContentHash>) -> Vec<u8> {
    let mut enc = Enc::default();
    enc.u128(e.ddg_fp.0);
    enc.u64(e.ddg_nodes);
    match shape {
        None => enc.u8(0),
        Some(shape) => {
            enc.u8(1);
            enc.u128(shape.0);
        }
    }
    enc.buf
}

fn decode_exec(d: &mut Dec) -> Option<(ExecEntry, Option<ContentHash>)> {
    let entry = ExecEntry {
        ddg_fp: ContentHash(d.u128()?),
        ddg_nodes: d.u64()?,
    };
    let shape = match d.u8()? {
        0 => None,
        1 => Some(ContentHash(d.u128()?)),
        _ => return None,
    };
    Some((entry, shape))
}

// ---- find artifact codec ----

fn kind_tag(k: PatternKind) -> u8 {
    match k {
        PatternKind::Map => 0,
        PatternKind::ConditionalMap => 1,
        PatternKind::FusedMap => 2,
        PatternKind::LinearReduction => 3,
        PatternKind::TiledReduction => 4,
        PatternKind::LinearMapReduction => 5,
        PatternKind::TiledMapReduction => 6,
    }
}

fn tag_kind(t: u8) -> Option<PatternKind> {
    Some(match t {
        0 => PatternKind::Map,
        1 => PatternKind::ConditionalMap,
        2 => PatternKind::FusedMap,
        3 => PatternKind::LinearReduction,
        4 => PatternKind::TiledReduction,
        5 => PatternKind::LinearMapReduction,
        6 => PatternKind::TiledMapReduction,
        _ => return None,
    })
}

fn encode_chain(e: &mut Enc, chain: &[NodeId]) {
    e.u32(chain.len() as u32);
    for n in chain {
        e.u32(n.0);
    }
}

fn decode_chain(d: &mut Dec) -> Option<Vec<NodeId>> {
    let len = d.u32()? as usize;
    let mut chain = Vec::with_capacity(len.min(65536));
    for _ in 0..len {
        chain.push(NodeId(d.u32()?));
    }
    Some(chain)
}

fn encode_find(a: &FindArtifact) -> Vec<u8> {
    let mut e = Enc::default();
    e.u64(a.ddg_size);
    e.u64(a.simplified_size);
    e.u64(a.simplify_stats.nodes_before as u64);
    e.u64(a.simplify_stats.nodes_after as u64);
    e.u64(a.simplify_stats.iterator_removed as u64);
    e.u64(a.simplify_stats.address_removed as u64);
    e.u64(a.iterations);
    e.u64(a.subddgs_matched);
    e.u32(a.found.len() as u32);
    for f in &a.found {
        let p = &f.pattern;
        e.u64(f.iteration as u64);
        e.u8(f.reported as u8);
        e.u8(kind_tag(p.kind));
        e.u64(p.nodes.capacity() as u64);
        let members: Vec<usize> = p.nodes.iter().collect();
        e.u32(members.len() as u32);
        for m in members {
            e.u32(m as u32);
        }
        e.u64(p.components as u64);
        e.u32(p.op_labels.len() as u32);
        for l in &p.op_labels {
            e.str(l);
        }
        e.u32(p.lines.len() as u32);
        for (file, line) in &p.lines {
            e.u32(*file as u32);
            e.u32(*line);
        }
        e.u32(p.loops.len() as u32);
        for l in &p.loops {
            e.u32(*l);
        }
        match &p.detail {
            Detail::None => e.u8(0),
            Detail::Map { components } => {
                e.u8(1);
                e.u32(components.len() as u32);
                for c in components {
                    encode_chain(&mut e, c);
                }
            }
            Detail::Linear { chain } => {
                e.u8(2);
                encode_chain(&mut e, chain);
            }
            Detail::Tiled {
                partials,
                final_chain,
            } => {
                e.u8(3);
                e.u32(partials.len() as u32);
                for c in partials {
                    encode_chain(&mut e, c);
                }
                encode_chain(&mut e, final_chain);
            }
        }
    }
    e.buf
}

fn decode_find(d: &mut Dec) -> Option<FindArtifact> {
    let ddg_size = d.u64()?;
    let simplified_size = d.u64()?;
    let simplify_stats = SimplifyStats {
        nodes_before: d.u64()? as usize,
        nodes_after: d.u64()? as usize,
        iterator_removed: d.u64()? as usize,
        address_removed: d.u64()? as usize,
    };
    let iterations = d.u64()?;
    let subddgs_matched = d.u64()?;
    let n_found = d.u32()? as usize;
    let mut found = Vec::with_capacity(n_found.min(4096));
    for _ in 0..n_found {
        let iteration = d.u64()? as usize;
        let reported = d.u8()? != 0;
        let kind = tag_kind(d.u8()?)?;
        let capacity = d.u64()? as usize;
        if capacity > (1 << 32) {
            return None;
        }
        let n_members = d.u32()? as usize;
        let mut members = Vec::with_capacity(n_members.min(65536));
        for _ in 0..n_members {
            let m = d.u32()? as usize;
            if m >= capacity {
                return None;
            }
            members.push(m);
        }
        let nodes = BitSet::from_iter(capacity, members);
        let components = d.u64()? as usize;
        let n_labels = d.u32()? as usize;
        let mut op_labels = Vec::with_capacity(n_labels.min(1024));
        for _ in 0..n_labels {
            op_labels.push(d.str()?);
        }
        let n_lines = d.u32()? as usize;
        let mut lines = Vec::with_capacity(n_lines.min(65536));
        for _ in 0..n_lines {
            let file = d.u32()?;
            if file > u16::MAX as u32 {
                return None;
            }
            lines.push((file as u16, d.u32()?));
        }
        let n_loops = d.u32()? as usize;
        let mut loops = Vec::with_capacity(n_loops.min(65536));
        for _ in 0..n_loops {
            loops.push(d.u32()?);
        }
        let detail = match d.u8()? {
            0 => Detail::None,
            1 => {
                let n = d.u32()? as usize;
                let mut comps = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    comps.push(decode_chain(d)?);
                }
                Detail::Map { components: comps }
            }
            2 => Detail::Linear {
                chain: decode_chain(d)?,
            },
            3 => {
                let n = d.u32()? as usize;
                let mut partials = Vec::with_capacity(n.min(65536));
                for _ in 0..n {
                    partials.push(decode_chain(d)?);
                }
                Detail::Tiled {
                    partials,
                    final_chain: decode_chain(d)?,
                }
            }
            _ => return None,
        };
        found.push(Found {
            pattern: Pattern {
                kind,
                nodes,
                components,
                op_labels,
                lines,
                loops,
                detail,
            },
            iteration,
            reported,
        });
    }
    Some(FindArtifact {
        found,
        ddg_size,
        simplified_size,
        simplify_stats,
        iterations,
        subddgs_matched,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{QueryConfig, QueryDb};
    use repro_ir::fingerprint_str;

    fn sample_trace() -> TraceArtifact {
        TraceArtifact {
            ddg_fp: fingerprint_str("ddg"),
            ddg_nodes: 1234,
            steps: 99,
            return_value: Some(Value::F64(-0.5)),
            arrays: vec![
                ("a".into(), vec![Value::I64(-7), Value::Bool(true)]),
                ("b".into(), vec![Value::F64(2.5)]),
            ],
        }
    }

    fn sample_find() -> FindArtifact {
        FindArtifact {
            found: vec![Found {
                pattern: Pattern {
                    kind: PatternKind::TiledReduction,
                    nodes: BitSet::from_iter(100, [3, 17, 64]),
                    components: 3,
                    op_labels: vec!["fadd".into(), "fmul".into()],
                    lines: vec![(0, 12), (1, 44)],
                    loops: vec![2, 5],
                    detail: Detail::Tiled {
                        partials: vec![vec![NodeId(3), NodeId(17)]],
                        final_chain: vec![NodeId(64)],
                    },
                },
                iteration: 2,
                reported: true,
            }],
            ddg_size: 500,
            simplified_size: 120,
            simplify_stats: SimplifyStats {
                nodes_before: 500,
                nodes_after: 120,
                iterator_removed: 300,
                address_removed: 80,
            },
            iterations: 2,
            subddgs_matched: 9,
        }
    }

    #[test]
    fn trace_codec_round_trips() {
        let a = sample_trace();
        let decoded = decode_trace(&mut Dec::new(&encode_trace(&a))).unwrap();
        assert_eq!(a, decoded);
    }

    #[test]
    fn find_codec_round_trips() {
        let a = sample_find();
        let decoded = decode_find(&mut Dec::new(&encode_find(&a))).unwrap();
        assert_eq!(format!("{a:?}"), format!("{decoded:?}"));
    }

    #[test]
    fn save_load_round_trips_through_a_directory() {
        let dir = std::env::temp_dir().join("repro-query-persist-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let db = QueryDb::full(QueryConfig::default());
        let (tk, fk, ek) = (
            fingerprint_str("t"),
            fingerprint_str("f"),
            fingerprint_str("e"),
        );
        let exec = crate::ExecEntry {
            ddg_fp: fingerprint_str("ddg"),
            ddg_nodes: 1234,
        };
        db.trace_put(tk, sample_trace());
        db.find_put(fk, sample_find());
        db.exec_put(ek, exec);
        let saved = save_dir(&db, &dir).unwrap();
        assert_eq!(
            (saved.trace_records, saved.find_records, saved.exec_records),
            (1, 1, 1)
        );

        let db2 = QueryDb::full(QueryConfig::default());
        let report = load_dir(&db2, &dir);
        assert_eq!(report.records_loaded, 3);
        assert_eq!(report.segments_loaded, 1);
        assert_eq!(report.corrupt_records, 0);
        assert_eq!(*db2.trace_get(tk).unwrap(), sample_trace());
        assert_eq!(db2.exec_get(ek), Some(exec));
        assert_eq!(
            format!("{:?}", db2.find_get(fk).unwrap()),
            format!("{:?}", std::sync::Arc::new(sample_find()))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reloaded_store_still_arms_the_exec_gate() {
        let dir = std::env::temp_dir().join("repro-query-persist-gate");
        let _ = std::fs::remove_dir_all(&dir);
        // One program with a scale constant; the probe-shaped run is
        // untraced and fingerprinted, as the engine's probe is.
        let probe = |scale: &str| {
            let src = format!(
                "float in[4];\nfloat out[4];\nvoid main() {{\n  int i;\n  \
                 for (i = 0; i < 4; i++) {{\n    out[i] = in[i] * {scale};\n  }}\n  \
                 output(out);\n}}\n"
            );
            let program = minc::compile("gate", &src).unwrap();
            let mut input = trace::RunConfig::default()
                .with_f64("in", &[1.0, 2.0, 3.0, 4.0])
                .with_exec_fingerprint(true);
            input.trace = trace::TraceMode::Off;
            let fp = trace::run(&program, &input).unwrap().exec_fp.unwrap();
            (
                ContentHash(fp),
                crate::exec_shape_key(&program, &input).unwrap(),
            )
        };
        let (fp, shape) = probe("2.0");
        let entry = crate::ExecEntry {
            ddg_fp: fingerprint_str("ddg"),
            ddg_nodes: 4,
        };
        let db = QueryDb::full(QueryConfig::default());
        db.exec_put_shaped(fp, entry, shape);
        save_dir(&db, &dir).unwrap();

        let db2 = QueryDb::full(QueryConfig::default());
        assert_eq!(load_dir(&db2, &dir).records_loaded, 1);
        // A constant edit after the reload keeps the shape, so its probe
        // runs, and it hits the reloaded entry.
        let (edited_fp, edited_shape) = probe("3.0");
        assert_eq!(edited_shape, shape);
        assert!(db2.exec_gate(edited_shape));
        assert_eq!(db2.exec_get(edited_fp), Some(entry));
        assert_eq!(db2.stats().exec_skipped, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_directory_is_a_cold_cache() {
        let db = QueryDb::full(QueryConfig::default());
        let report = load_dir(&db, Path::new("/nonexistent/repro-query-cache"));
        assert_eq!(report.records_loaded, 0);
        assert_eq!(report.corrupt_segments, 0);
    }

    #[test]
    fn version_mismatch_is_skipped_and_counted() {
        let dir = std::env::temp_dir().join("repro-query-persist-version");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&(CACHE_SCHEMA_VERSION + 1).to_le_bytes());
        std::fs::write(dir.join("segment-000.seg"), &bytes).unwrap();
        let db = QueryDb::full(QueryConfig::default());
        let report = load_dir(&db, &dir);
        assert_eq!(report.version_mismatches, 1);
        assert_eq!(report.records_loaded, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_drops_the_record_not_the_loader() {
        let dir = std::env::temp_dir().join("repro-query-persist-bitflip");
        let _ = std::fs::remove_dir_all(&dir);
        let db = QueryDb::full(QueryConfig::default());
        db.trace_put(fingerprint_str("t"), sample_trace());
        save_dir(&db, &dir).unwrap();
        let path = dir.join("segment-000.seg");
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one bit in the middle of the record payload.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let db2 = QueryDb::full(QueryConfig::default());
        let report = load_dir(&db2, &dir);
        assert_eq!(report.records_loaded, 0);
        assert!(report.corrupt_records >= 1);
        assert!(db2.trace_get(fingerprint_str("t")).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_keeps_the_prefix() {
        let dir = std::env::temp_dir().join("repro-query-persist-trunc");
        let _ = std::fs::remove_dir_all(&dir);
        let db = QueryDb::full(QueryConfig::default());
        db.trace_put(fingerprint_str("t1"), sample_trace());
        db.find_put(fingerprint_str("f1"), sample_find());
        save_dir(&db, &dir).unwrap();
        let path = dir.join("segment-000.seg");
        let bytes = std::fs::read(&path).unwrap();
        // Drop the final 10 bytes: the last record loses its checksum.
        std::fs::write(&path, &bytes[..bytes.len() - 10]).unwrap();

        let db2 = QueryDb::full(QueryConfig::default());
        let report = load_dir(&db2, &dir);
        assert_eq!(report.records_loaded, 1, "the intact record survives");
        assert_eq!(report.corrupt_records, 1);
        assert_eq!(report.corrupt_segments, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
