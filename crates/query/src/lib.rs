//! `repro-query` — the incremental, content-addressed query layer
//! (DESIGN.md §18; ROADMAP open item 2).
//!
//! The analysis pipeline — minc parse → IR → trace → DDG → sub-DDG
//! decomposition → pattern matching — is a chain of pure functions, so
//! every stage can be memoized under a canonical content hash of its
//! input, salsa-style (SNIPPETS.md Snippet 1's `db: &dyn Db` idiom):
//!
//! | stage     | key                                   | value |
//! |-----------|---------------------------------------|-------|
//! | `program` | source fingerprint                    | compiled [`Program`](repro_ir::Program) |
//! | `fnir`    | env fp ⊕ fn AST ⊕ id bases            | one lowered function |
//! | `trace`   | program fp ⊕ input fp                 | [`TraceArtifact`] (run summary + DDG fp) |
//! | `exec`    | execution fingerprint                 | [`ExecEntry`] (which DDG this stream produces) |
//! | `subddg`  | ddg fp ⊕ simplify flag ⊕ task index   | extracted sub-DDG pool slice |
//! | `find`    | ddg fp ⊕ finder-config fp             | [`FindArtifact`] (complete finder result) |
//! | `match`   | [`MatchKey`]: 128-bit view hash (class as tag) ⊕ budget | match outcome in group space |
//!
//! Beside the exec stage sits its *gate*: the shape keys
//! ([`exec_shape_key`]) of the programs and inputs whose full runs put
//! an exec entry. The engine spends an exec probe only on a request
//! whose shape is armed, since a probe of any other shape cannot hit.
//!
//! Because keys are content hashes (the match stage's included),
//! *invalidation is implicit*: an edit produces new keys
//! and simply misses, while unchanged functions, traces, and structures
//! keep hitting. No entry can go stale, so the stores record no
//! dependency edges; every stage is one LRU-bounded [`Store`], and
//! eviction is the only way an entry leaves.
//!
//! The match stage's [`MatchCache`] is a codec over its store: it keys
//! each sub-DDG by dispatch class, structural hash and budget, and
//! stores outcomes in group-index space — which is what lets sub-DDGs
//! from an *edited* program hit match outcomes recorded for the
//! unedited one.
//!
//! Every [`QueryDb`] holds all seven stages and the gate, and every
//! engine runs on one — `Engine::new` builds a default-sized DB, the
//! daemon a configured one — so batch experiments and the daemon walk
//! the same memo chain.
//!
//! The trace, exec, and find stages persist across daemon restarts
//! ([`persist`]): versioned append-only segments, loaded on start,
//! rewritten on clean shutdown.

pub mod artifact;
pub mod match_cache;
pub mod persist;
pub mod store;

pub use artifact::{ExecEntry, FindArtifact, TraceArtifact};
pub use match_cache::{MatchCache, MatchKey, PendingEntry, Probe, DEFAULT_CACHE_CAPACITY};
pub use persist::{load_dir, save_dir, LoadReport, CACHE_SCHEMA_VERSION};
pub use store::{Store, StoreMetrics};

use ddg::{Ddg, LabelId};
use discovery::{FinderConfig, FinderResult, SubDdg};
use minc::{CachedFnIr, FnIrCache};
use repro_ir::{ContentHash, ContentHasher, Program, WordHasher};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use trace::RunConfig;

/// Sizing for the query DB. Every pipeline stage store gets the same
/// entry/byte caps; the match stage keeps its own (it has an order of
/// magnitude more, smaller, entries).
#[derive(Clone, Copy, Debug)]
pub struct QueryConfig {
    /// Match-stage entry/byte caps (0 = unbounded).
    pub match_capacity: usize,
    pub match_capacity_bytes: usize,
    /// Per-stage entry cap for the pipeline stores (0 = unbounded).
    pub stage_capacity: usize,
    /// Per-stage byte cap for the pipeline stores (0 = unbounded).
    /// Sub-DDG pools are the big entries; the byte cap is what really
    /// bounds a resident daemon's footprint.
    pub stage_capacity_bytes: usize,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            match_capacity: DEFAULT_CACHE_CAPACITY,
            match_capacity_bytes: 0,
            stage_capacity: 4096,
            stage_capacity_bytes: 64 << 20,
        }
    }
}

/// Aggregate statistics over every stage (serialized into `stats`
/// responses and `ObsReport` sections).
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct QueryStats {
    pub programs: StoreMetrics,
    pub fnir: StoreMetrics,
    pub trace: StoreMetrics,
    pub exec: StoreMetrics,
    pub subddg: StoreMetrics,
    pub find: StoreMetrics,
    pub match_cache: StoreMetrics,
    /// Exec probes the gate skipped: the exec stage held entries, but
    /// none for the request's shape ([`QueryDb::exec_gate`]).
    pub exec_skipped: u64,
}

/// The shared, cross-request memo database: all seven stages, plus the
/// exec probe's gate. One instance lives behind an `Arc` in the engine
/// (and the daemon), shared by every worker, so repeated and edited
/// requests reuse every unchanged stage.
pub struct QueryDb {
    match_cache: MatchCache,
    programs: Store<ContentHash, Program>,
    fnir: Store<ContentHash, CachedFnIr>,
    trace: Store<ContentHash, TraceArtifact>,
    /// Exec entries, each with the shape key of the run that put it
    /// (kept so a persisted entry re-arms the gate when reloaded).
    exec: Store<ContentHash, (ExecEntry, Option<ContentHash>)>,
    /// Shape keys of the exec entries' runs: the exec probe's gate.
    exec_shapes: Store<ContentHash, ()>,
    exec_skipped: AtomicU64,
    exec_skipped_counter: obs::Counter,
    subddg: Store<ContentHash, Vec<SubDdg>>,
    find: Store<ContentHash, FindArtifact>,
}

impl QueryDb {
    /// The pipeline DB, sized by `config`.
    pub fn full(config: QueryConfig) -> QueryDb {
        let (cap, bytes) = (config.stage_capacity, config.stage_capacity_bytes);
        QueryDb {
            match_cache: MatchCache::from_config(&config),
            programs: Store::new("program", cap, bytes),
            fnir: Store::new("fnir", cap, bytes),
            trace: Store::new("trace", cap, bytes),
            exec: Store::new("exec", cap, bytes),
            exec_shapes: Store::new("exec_shape", cap, bytes),
            exec_skipped: AtomicU64::new(0),
            exec_skipped_counter: obs::counter("query.exec.skipped"),
            subddg: Store::new("subddg", cap, bytes),
            find: Store::new("find", cap, bytes),
        }
    }

    pub fn match_cache(&self) -> &MatchCache {
        &self.match_cache
    }

    /// The per-function IR memo handle for
    /// [`minc::compile_files_with_cache`]. Always `Some`; the `Option`
    /// matches that function's parameter.
    pub fn fn_ir_cache(&self) -> Option<&dyn FnIrCache> {
        Some(self)
    }

    // ---- program stage ----

    pub fn program_get(&self, source_fp: ContentHash) -> Option<Arc<Program>> {
        self.programs.get(&source_fp)
    }

    pub fn program_put(&self, source_fp: ContentHash, program: Arc<Program>) {
        // Serialized-IR length approximates the resident footprint well
        // enough for eviction purposes.
        let mut buf = String::new();
        use serde::Serialize;
        program.serialize_json(&mut buf);
        self.programs.put(source_fp, program, 64 + buf.len());
    }

    // ---- trace stage ----

    pub fn trace_get(&self, key: ContentHash) -> Option<Arc<TraceArtifact>> {
        self.trace.get(&key)
    }

    pub fn trace_put(&self, key: ContentHash, artifact: TraceArtifact) {
        let bytes = artifact.approx_bytes();
        self.trace.put(key, Arc::new(artifact), bytes);
    }

    // ---- exec stage ----

    /// Which DDG an execution fingerprint corresponds to.
    pub fn exec_get(&self, exec_fp: ContentHash) -> Option<ExecEntry> {
        self.exec.get(&exec_fp).map(|e| e.0)
    }

    /// Records an exec entry without a shape: it can answer probes, but
    /// arms no gate. The engine always knows the shape
    /// ([`QueryDb::exec_put_shaped`]); this serves callers that drive
    /// the stages themselves.
    pub fn exec_put(&self, exec_fp: ContentHash, entry: ExecEntry) {
        self.exec.put(exec_fp, Arc::new((entry, None)), 64);
    }

    /// Records an exec entry and arms the gate for `shape`, the
    /// [`exec_shape_key`] of the run that produced it.
    pub fn exec_put_shaped(&self, exec_fp: ContentHash, entry: ExecEntry, shape: ContentHash) {
        self.exec.put(exec_fp, Arc::new((entry, Some(shape))), 80);
        self.exec_shapes.put(shape, Arc::new(()), 48);
    }

    /// Resident exec-stage entries. Zero means no traced run has
    /// recorded a fingerprint yet, so a probe run cannot hit — the
    /// engine skips the probe, and the gate, and keeps the cold path
    /// cold.
    pub fn exec_len(&self) -> usize {
        self.exec.len()
    }

    /// Whether an exec probe for a request of this shape can hit: some
    /// full run of the same constant-erased program on an input of the
    /// same shape put an exec entry. A `false` counts as a skipped
    /// probe (`query.exec.skipped`); it only ever loses a hit, since a
    /// probe of an unarmed shape has no entry to find.
    pub fn exec_gate(&self, shape: ContentHash) -> bool {
        let armed = self.exec_shapes.contains(&shape);
        if !armed {
            self.exec_skipped.fetch_add(1, Ordering::Relaxed);
            self.exec_skipped_counter.inc();
        }
        armed
    }

    // ---- sub-DDG stage ----

    pub fn subddg_get(&self, key: ContentHash) -> Option<Arc<Vec<SubDdg>>> {
        self.subddg.get(&key)
    }

    pub fn subddg_put(&self, key: ContentHash, subs: Arc<Vec<SubDdg>>) {
        let bytes: usize = subs
            .iter()
            .map(|sub| {
                64 + sub.nodes.capacity() / 8
                    + sub
                        .groups
                        .as_ref()
                        .map(|gs| gs.iter().map(|g| 24 + 4 * g.len()).sum::<usize>())
                        .unwrap_or(0)
            })
            .sum();
        self.subddg.put(key, subs, bytes);
    }

    // ---- find stage ----

    pub fn find_get(&self, key: ContentHash) -> Option<Arc<FindArtifact>> {
        self.find.get(&key)
    }

    pub fn find_put(&self, key: ContentHash, artifact: FindArtifact) {
        let bytes = artifact.approx_bytes();
        self.find.put(key, Arc::new(artifact), bytes);
    }

    // ---- persistence snapshots ----

    /// Snapshot of the trace stage for the persistence writer, sorted
    /// by key (deterministic segments). Does not count hits or misses.
    pub fn export_trace(&self) -> Vec<(ContentHash, Arc<TraceArtifact>)> {
        let mut out = Vec::new();
        self.trace.for_each(|k, v| out.push((*k, Arc::clone(v))));
        out.sort_by_key(|(k, _)| k.0);
        out
    }

    /// Snapshot of the exec stage for the persistence writer, each
    /// entry with its shape, sorted by key. Does not count hits or
    /// misses.
    pub fn export_exec(&self) -> Vec<(ContentHash, ExecEntry, Option<ContentHash>)> {
        let mut out = Vec::new();
        self.exec.for_each(|k, v| out.push((*k, v.0, v.1)));
        out.sort_by_key(|(k, ..)| k.0);
        out
    }

    /// Snapshot of the find stage for the persistence writer, sorted
    /// by key. Does not count hits or misses.
    pub fn export_find(&self) -> Vec<(ContentHash, Arc<FindArtifact>)> {
        let mut out = Vec::new();
        self.find.for_each(|k, v| out.push((*k, Arc::clone(v))));
        out.sort_by_key(|(k, _)| k.0);
        out
    }

    pub fn stats(&self) -> QueryStats {
        QueryStats {
            programs: self.programs.metrics(),
            fnir: self.fnir.metrics(),
            trace: self.trace.metrics(),
            exec: self.exec.metrics(),
            subddg: self.subddg.metrics(),
            find: self.find.metrics(),
            match_cache: self.match_cache.metrics(),
            exec_skipped: self.exec_skipped.load(Ordering::Relaxed),
        }
    }
}

/// The per-function IR memo: minc consults this during pass 2 of
/// lowering ([`minc::lower_with_cache`] documents the key).
impl FnIrCache for QueryDb {
    fn get(&self, key: ContentHash) -> Option<CachedFnIr> {
        self.fnir.get(&key).map(|arc| (*arc).clone())
    }

    fn put(&self, key: ContentHash, value: CachedFnIr) {
        let mut buf = String::new();
        use serde::Serialize;
        value.func.serialize_json(&mut buf);
        let bytes = 64 + buf.len();
        self.fnir.put(key, Arc::new(value), bytes);
    }
}

// ---- canonical fingerprints ----

/// Fingerprint of submitted source: program name plus every file's
/// name and contents, order-sensitive (file order determines file
/// indices in the IR).
pub fn fingerprint_source(program_name: &str, files: &[(&str, &str)]) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_str(program_name);
    h.write_u64(files.len() as u64);
    for (name, source) in files {
        h.write_str(name);
        h.write_str(source);
    }
    h.finish()
}

/// Fingerprint of the semantic run input: entry args, array sizing and
/// init, barrier shape, and fuel. Excludes the trace *mode*, deadline
/// and fingerprint request — those change how a run is recorded or
/// bounded, not what it computes, and the engine forces its own values
/// anyway.
pub fn fingerprint_input(cfg: &RunConfig) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_u64(cfg.entry_args.len() as u64);
    for v in &cfg.entry_args {
        write_value(&mut h, v);
    }
    let mut lens: Vec<_> = cfg.array_lens.iter().collect();
    lens.sort_by(|a, b| a.0.cmp(b.0));
    h.write_u64(lens.len() as u64);
    for (name, len) in lens {
        h.write_str(name);
        h.write_u64(*len as u64);
    }
    let mut inits: Vec<_> = cfg.array_init.iter().collect();
    inits.sort_by(|a, b| a.0.cmp(b.0));
    h.write_u64(inits.len() as u64);
    for (name, values) in inits {
        h.write_str(name);
        h.write_u64(values.len() as u64);
        for v in values {
            write_value(&mut h, v);
        }
    }
    h.write_u64(cfg.barrier_participants.len() as u64);
    for p in &cfg.barrier_participants {
        h.write_u64(*p as u64);
    }
    h.write_u64(cfg.max_steps);
    h.finish()
}

/// The shape key gating the exec probe ([`QueryDb::exec_gate`]): the
/// program's constant-erased fingerprint ([`trace::program_shape`])
/// combined with the input's shape — entry-argument count and types,
/// global array names and lengths, barrier participants, with every
/// value left out. A constant edit keeps both halves, so its probe runs;
/// an operator flip or a new input size changes one, so its probe —
/// which could not hit — is skipped. `None` for a program that fails
/// [`repro_ir::validate`]: it has no shape and gets no probe, and its
/// full run reports the validation error.
///
/// One [`WordHasher`] digest rather than a `combine` of two hashes: its
/// halves are independently mixed, so the gate's store spreads these
/// keys over all its shards.
pub fn exec_shape_key(program: &Program, input: &RunConfig) -> Option<ContentHash> {
    let program_shape = trace::program_shape(program)?;
    let mut h = WordHasher::new();
    h.write_u64((program_shape.0 >> 64) as u64);
    h.write_u64(program_shape.0 as u64);
    h.write_u32s(input.entry_args.iter().map(|v| v.ty() as u32));
    let mut lens: Vec<_> = input.array_lens.iter().collect();
    lens.sort_unstable();
    h.write_u64(lens.len() as u64);
    for (name, len) in lens {
        h.write_str(name);
        h.write_u64(*len as u64);
    }
    h.write_u64(input.barrier_participants.len() as u64);
    for &p in &input.barrier_participants {
        h.write_u64(p as u64);
    }
    Some(h.finish())
}

fn write_value(h: &mut ContentHasher, v: &repro_ir::Value) {
    match v {
        repro_ir::Value::I64(x) => {
            h.write_u32(1);
            h.write_u64(*x as u64);
        }
        repro_ir::Value::F64(x) => {
            h.write_u32(2);
            h.write_f64(*x);
        }
        repro_ir::Value::Bool(x) => {
            h.write_u32(3);
            h.write_u32(*x as u32);
        }
    }
}

/// Fingerprint of the finder configuration facts a result depends on:
/// per-sub-DDG budget, iteration cap, and the simplify toggle. The
/// request-level deadline is excluded — it bounds wall time, and
/// results that tripped it are never cached.
pub fn fingerprint_finder_config(cfg: &FinderConfig) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_u64(cfg.budget.time.as_millis() as u64);
    h.write_u64(cfg.max_iterations as u64);
    h.write_u32(cfg.enable_simplify as u32);
    h.finish()
}

/// Fingerprint of a traced DDG: the label table (each label's string
/// and associativity, once), then every node's label id, static op,
/// source position, thread, tracer flags and dynamic scope as
/// fixed-width words, then the successor CSR. One linear
/// [`WordHasher`] pass — cheap relative to tracing, and canonical: no
/// pointer, allocation or map-iteration order reaches it. Equal hashes
/// mean equal tables, nodes and arcs; two graphs that differ only in
/// label interning order hash apart, which can only cost a hit (the
/// tracer interns deterministically).
pub fn fingerprint_ddg(g: &Ddg) -> ContentHash {
    let mut h = WordHasher::new();
    h.write_u64(g.label_count() as u64);
    for l in 0..g.label_count() {
        let l = LabelId(l as u32);
        h.write_str(g.label_str(l));
        h.write_u64(g.label_is_associative(l) as u64);
    }
    h.write_u64(g.len() as u64);
    for id in g.node_ids() {
        let n = g.node(id);
        h.write_u64(n.label.0 as u64 | (n.static_op as u64) << 32);
        h.write_u64(n.line as u64 | (n.col as u64) << 32);
        h.write_u64(n.file as u64 | (n.thread as u64) << 16 | (n.flags.0 as u64) << 32);
        h.write_u64(n.scope.len() as u64);
        for e in n.scope.iter() {
            h.write_u64(e.loop_id as u64 | (e.instance as u64) << 32);
            h.write_u64(e.iter as u64);
        }
    }
    for id in g.node_ids() {
        h.write_u32s(g.succs(id).iter().map(|v| v.0));
    }
    h.finish()
}

/// The composed trace-stage key.
pub fn trace_key(program_fp: ContentHash, input_fp: ContentHash) -> ContentHash {
    program_fp.combine(input_fp)
}

/// The composed find-stage key.
pub fn find_key(ddg_fp: ContentHash, config_fp: ContentHash) -> ContentHash {
    ddg_fp.combine(config_fp)
}

/// The composed sub-DDG-stage key for one extraction task.
pub fn subddg_key(ddg_fp: ContentHash, enable_simplify: bool, task_index: usize) -> ContentHash {
    let mut h = ContentHasher::new();
    h.write_u64((ddg_fp.0 >> 64) as u64);
    h.write_u64(ddg_fp.0 as u64);
    h.write_u32(enable_simplify as u32);
    h.write_u64(task_index as u64);
    h.finish()
}

/// Canonical textual signature of a finder result's *semantic* payload
/// — everything the parity gate compares between a cold pipeline and
/// an incremental replay. Phase times and degradation flags are
/// timing, not semantics, and are excluded (results that degraded are
/// never cached in the first place).
pub fn pattern_signature(r: &FinderResult) -> String {
    let mut s = String::new();
    let st = &r.simplify_stats;
    let _ = writeln!(
        s,
        "ddg={} simplified={} stats=({},{},{},{}) iters={} subddgs={}",
        r.ddg_size,
        r.simplified_size,
        st.nodes_before,
        st.nodes_after,
        st.iterator_removed,
        st.address_removed,
        r.iterations,
        r.subddgs_matched,
    );
    for f in &r.found {
        let p = &f.pattern;
        let nodes: Vec<usize> = p.nodes.iter().collect();
        let _ = writeln!(
            s,
            "{:?} iter={} reported={} components={} labels={:?} lines={:?} loops={:?} \
             detail={:?} nodes={:?}",
            p.kind,
            f.iteration,
            f.reported,
            p.components,
            p.op_labels,
            p.lines,
            p.loops,
            p.detail,
            nodes,
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ray_rot_program(edit: Option<(&str, &str)>) -> Program {
        let bench = starbench::benchmark("ray-rot").unwrap();
        let files: Vec<(String, String)> = bench
            .files(starbench::Version::Seq)
            .iter()
            .map(|(n, src)| {
                let src = match edit {
                    Some((from, to)) => src.replace(from, to),
                    None => src.to_string(),
                };
                (n.to_string(), src)
            })
            .collect();
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        minc::compile_files("ray-rot-seq", &refs).unwrap()
    }

    #[test]
    fn program_fingerprint_is_stable_and_edit_sensitive() {
        let a = repro_ir::fingerprint_program(&ray_rot_program(None));
        let b = repro_ir::fingerprint_program(&ray_rot_program(None));
        assert_eq!(a, b, "recompiling identical source must fingerprint equal");
        let edited = repro_ir::fingerprint_program(&ray_rot_program(Some(("0.95", "0.85"))));
        assert_ne!(a, edited, "a constant edit must change the program hash");
    }

    #[test]
    fn input_fingerprint_ignores_trace_plumbing() {
        let bench = starbench::benchmark("ray-rot").unwrap();
        let base = (bench.analysis_input)();
        let a = fingerprint_input(&base);
        let mut plumbing = (bench.analysis_input)();
        plumbing.deadline = Some(std::time::Instant::now());
        assert_eq!(a, fingerprint_input(&plumbing));
        let mut semantic = (bench.analysis_input)();
        semantic.max_steps += 1;
        assert_ne!(a, fingerprint_input(&semantic));
    }

    #[test]
    fn ddg_fingerprint_identical_for_identical_runs() {
        let bench = starbench::benchmark("ray-rot").unwrap();
        let program = ray_rot_program(None);
        let run1 = trace::run(&program, &(bench.analysis_input)()).unwrap();
        let run2 = trace::run(&program, &(bench.analysis_input)()).unwrap();
        let fp1 = fingerprint_ddg(run1.ddg.as_ref().unwrap());
        let fp2 = fingerprint_ddg(run2.ddg.as_ref().unwrap());
        assert_eq!(fp1, fp2);
    }

    #[test]
    fn exec_shape_keys_ignore_values_and_spread_over_every_shard() {
        use crate::store::ShardKey;
        let program = ray_rot_program(None);
        let bench = starbench::benchmark("ray-rot").unwrap();
        let input = (bench.analysis_input)();
        let key = exec_shape_key(&program, &input).unwrap();
        let edited = ray_rot_program(Some(("0.95", "0.85")));
        assert_eq!(
            key,
            exec_shape_key(&edited, &input).unwrap(),
            "constant edit"
        );
        let mut shards = [false; 8];
        for len in 1..=64 {
            let resized = input.clone().with_len("extra", len);
            let k = exec_shape_key(&program, &resized).unwrap();
            assert_ne!(k, key, "array lengths are shape");
            shards[(k.shard_hash() % 8) as usize] = true;
        }
        assert!(shards.iter().all(|&s| s), "{shards:?}");
    }

    #[test]
    fn ddg_fingerprint_sees_every_node_field_and_arc() {
        use ddg::{DdgBuilder, ScopeEntry};
        // A two-node graph with one knob per fact the fingerprint covers.
        let build = |knob: usize| {
            let mut b = DdgBuilder::new();
            let l = b.intern_label("fadd", knob != 1);
            let scope = vec![ScopeEntry {
                loop_id: 0,
                instance: 0,
                iter: (knob == 2) as u32,
            }];
            let x = b.add_node(l, 0, 0, 1, 1, 0, scope);
            let y = b.add_node(l, (knob == 3) as u32, 0, 2, 1, (knob == 4) as u16, vec![]);
            if knob != 5 {
                b.add_arc(x, y);
            }
            if knob == 6 {
                b.mark_reads_input(x);
            }
            b.finish()
        };
        let base = fingerprint_ddg(&build(0));
        assert_eq!(base, fingerprint_ddg(&build(0)));
        for knob in 1..=6 {
            assert_ne!(base, fingerprint_ddg(&build(knob)), "knob {knob}");
        }
    }

    #[test]
    fn full_db_round_trips_every_stage() {
        let db = QueryDb::full(QueryConfig::default());
        let program = Arc::new(ray_rot_program(None));
        let source_fp = fingerprint_source("p", &[("a.mc", "void main() {}")]);
        assert!(db.program_get(source_fp).is_none());
        db.program_put(source_fp, Arc::clone(&program));
        assert!(db.program_get(source_fp).is_some());

        let tk = trace_key(fingerprint_str_local("p"), fingerprint_str_local("i"));
        let art = TraceArtifact {
            ddg_fp: fingerprint_str_local("d"),
            ddg_nodes: 10,
            steps: 100,
            return_value: None,
            arrays: vec![("x".into(), vec![repro_ir::Value::I64(1)])],
        };
        db.trace_put(tk, art.clone());
        assert_eq!(*db.trace_get(tk).unwrap(), art);

        let stats = db.stats();
        assert_eq!(stats.trace.hits, 1);
        assert_eq!(stats.programs.hits, 1);
        assert_eq!(stats.programs.misses, 1);
    }

    fn fingerprint_str_local(s: &str) -> ContentHash {
        repro_ir::fingerprint_str(s)
    }
}
