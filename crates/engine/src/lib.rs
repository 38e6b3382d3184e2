//! `repro-engine` — the parallel batch analysis engine.
//!
//! The paper's tool analyzes one program execution at a time; real use —
//! and the paper's own evaluation — runs *many* analyses: eight
//! benchmarks × two versions × several input scales. This crate runs
//! such batches as a job DAG over a work-stealing thread pool:
//!
//! - each [`AnalysisRequest`] (program + input + finder config) is
//!   driven by a *coordinator*: trace → simplify → decompose, then the
//!   iterative match/subtract/fuse loop of `discovery::FinderState`;
//! - within an iteration, the per-sub-DDG **match jobs are independent**
//!   and fan out across the shared [`pool::WorkPool`]; the coordinator
//!   re-applies the outcomes in pool order, so results are byte-identical
//!   to the sequential `discovery::find_patterns` no matter how jobs
//!   interleave (subtraction and fusion stay sequential on the
//!   coordinator — they are the cheap, order-sensitive part);
//! - across requests (and iterations), a [`repro_query::MatchCache`]
//!   memoizes match outcomes under a 128-bit structural hash of the
//!   compacted sub-DDG view, so op-isomorphic views match once (and,
//!   within one iteration, a repeated key waits for its first match
//!   instead of racing it);
//! - finished [`AnalysisResult`]s stream to the caller over a bounded
//!   channel in completion order, with per-phase wall times and
//!   cache/pool counters for the evaluation harness (Fig. 7, Table 3).
//!
//! The match cache is the top layer of the content-addressed
//! [`repro_query::QueryDb`] (DESIGN.md §18), whose trace, exec,
//! sub-DDG, and find stages let repeated or lightly-edited requests
//! skip whole phases of the pipeline. [`Engine::new`] builds a
//! default-sized DB, while [`Engine::with_query`] accepts a caller-sized
//! (or shared) one; both run the same pipeline.

#[cfg(feature = "fault-inject")]
pub mod fault;
pub mod pool;

use cp::CancelToken;
use ddg::Ddg;
use discovery::models::{match_subddg_full, MatchBudget, MatchOutcome};
use discovery::{FinderConfig, FinderResult, FinderState, FrontEnd, MatchJob, SubDdg};
use pool::{PoolMetrics, WorkPool};
use repro_query::{
    exec_shape_key, find_key, fingerprint_finder_config, fingerprint_input, subddg_key, trace_key,
    ExecEntry, FindArtifact, MatchCache, MatchKey, PendingEntry, QueryConfig, QueryDb,
    TraceArtifact,
};
use std::collections::{HashSet, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, Sender, SyncSender};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[cfg(feature = "fault-inject")]
pub use fault::FaultPlan;

/// One analysis to run: a program, the input to trace it on, and the
/// finder configuration.
pub struct AnalysisRequest {
    /// Caller-chosen identifier, echoed in the result.
    pub id: String,
    pub program: repro_ir::Program,
    pub input: trace::RunConfig,
    pub config: FinderConfig,
}

/// Why a request produced no analysis. Every failure is contained to its
/// request: the batch keeps streaming one labeled [`AnalysisResult`] per
/// submission regardless.
#[derive(Debug)]
pub enum EngineError {
    /// The traced program faulted (or hit its step limit / deadline).
    Trace(trace::MachineError),
    /// Match workers died without reporting their outcomes — the job's
    /// reply channel hung up mid-iteration. Contained panics degrade to
    /// per-job faults instead; this is the last-resort path for a panic
    /// outside the job's own containment.
    WorkerLost {
        /// Outcomes missing from the iteration when the channel closed.
        missing: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Trace(e) => write!(f, "trace failed: {e}"),
            EngineError::WorkerLost { missing } => {
                write!(f, "match workers lost: {missing} outcome(s) never arrived")
            }
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Trace(e) => Some(e),
            EngineError::WorkerLost { .. } => None,
        }
    }
}

impl From<trace::MachineError> for EngineError {
    fn from(e: trace::MachineError) -> EngineError {
        EngineError::Trace(e)
    }
}

/// A completed (or failed) analysis.
pub struct AnalysisResult {
    pub id: String,
    /// Position of the request in the submitted batch (results stream in
    /// completion order; sort by this to recover submission order).
    pub index: usize,
    pub outcome: Result<Analysis, EngineError>,
    pub metrics: RequestMetrics,
}

/// The successful payload: the finder result plus the rest of the run
/// (final array contents, return value) for output verification.
pub struct Analysis {
    pub result: FinderResult,
    /// The traced run, with the DDG taken out (it was consumed by the
    /// analysis); `arrays`, `return_value` and `steps` remain.
    pub run: trace::RunResult,
}

/// Per-request wall times and cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct RequestMetrics {
    /// Tracing (interpreting the program with DDG construction on).
    pub trace_time: Duration,
    /// Everything after tracing: simplify through merge, including time
    /// spent waiting on match jobs.
    pub find_time: Duration,
    /// Match jobs this request produced (cache hits included).
    pub match_jobs: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Jobs that bypassed the cache (fused sub-DDGs).
    pub cache_bypassed: u64,
    /// Match jobs that panicked and were degraded to no-match.
    pub match_faults: u64,
    /// Match searches cut short by the per-match budget or the request
    /// deadline.
    pub matches_exhausted: u64,
    /// The request's deadline expired before the analysis finished.
    pub deadline_hit: bool,
    /// The finder result is best-so-far rather than a full fixpoint (see
    /// [`FinderResult::degraded`]); always false for failed requests.
    pub degraded: bool,
    /// The whole analysis (trace *and* find) was replayed from the
    /// query layer — no interpretation, no matching.
    pub query_analyze_hit: bool,
    /// The find phase was replayed from the query layer (the trace ran,
    /// but its DDG hashed to a known finder result).
    pub query_find_hit: bool,
    /// The re-trace itself was skipped: an untraced fingerprint run
    /// resolved the edited program to a cached DDG identity (exec
    /// stage), and the find phase replayed from there. Implies
    /// `query_find_hit`.
    pub query_exec_hit: bool,
}

// Durations serialize as fractional milliseconds; the derive cannot see
// through `Duration`, hence the manual impl.
impl serde::Serialize for RequestMetrics {
    fn serialize_json(&self, out: &mut String) {
        out.push('{');
        serde::ser_key(out, "trace_ms");
        (self.trace_time.as_secs_f64() * 1e3).serialize_json(out);
        out.push(',');
        serde::ser_key(out, "find_ms");
        (self.find_time.as_secs_f64() * 1e3).serialize_json(out);
        let ints = [
            ("match_jobs", self.match_jobs),
            ("cache_hits", self.cache_hits),
            ("cache_misses", self.cache_misses),
            ("cache_bypassed", self.cache_bypassed),
            ("match_faults", self.match_faults),
            ("matches_exhausted", self.matches_exhausted),
        ];
        for (k, v) in ints {
            out.push(',');
            serde::ser_key(out, k);
            v.serialize_json(out);
        }
        out.push(',');
        serde::ser_key(out, "deadline_hit");
        self.deadline_hit.serialize_json(out);
        out.push(',');
        serde::ser_key(out, "degraded");
        self.degraded.serialize_json(out);
        out.push(',');
        serde::ser_key(out, "query_analyze_hit");
        self.query_analyze_hit.serialize_json(out);
        out.push(',');
        serde::ser_key(out, "query_find_hit");
        self.query_find_hit.serialize_json(out);
        out.push(',');
        serde::ser_key(out, "query_exec_hit");
        self.query_exec_hit.serialize_json(out);
        out.push('}');
    }
}

/// Engine-wide counter snapshot ([`Engine::metrics`]).
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct EngineMetrics {
    pub workers: usize,
    pub jobs_executed: u64,
    pub jobs_stolen: u64,
    pub peak_queue_depth: u64,
    pub requests_completed: u64,
    pub cache_entries: usize,
    /// Cache entry capacity (0 = unbounded).
    pub cache_capacity: usize,
    /// Cache byte capacity (0 = unbounded); whichever of the entry and
    /// byte caps trips first drives eviction.
    pub cache_capacity_bytes: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Entries evicted to keep the cache under capacity.
    pub cache_evictions: u64,
    /// Approximate resident cache footprint in bytes.
    pub cache_bytes: u64,
    /// Pool jobs whose panic was contained (worker survived).
    pub jobs_panicked: u64,
    /// Match jobs degraded to no-match after a contained panic.
    pub match_faults: u64,
    /// Requests that completed with a best-so-far (degraded) result.
    pub requests_degraded: u64,
    /// Requests that produced an [`EngineError`] instead of an analysis.
    pub requests_failed: u64,
    /// Poisoned cache shards cleared and recovered.
    pub cache_poison_recoveries: u64,
    /// Dead match workers replaced in place by [`Engine::heal`].
    pub workers_respawned: u64,
}

impl EngineMetrics {
    /// Cache hits over cacheable probes.
    pub fn cache_hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }
}

/// Engine construction knobs.
#[derive(Clone, Copy, Debug)]
pub struct EngineConfig {
    /// Match workers; 0 means one per available hardware thread.
    pub workers: usize,
    /// Requests analyzed concurrently (coordinator threads); 0 mirrors
    /// `workers`.
    pub max_concurrent_requests: usize,
    /// Bound of the result channel; a full channel backpressures the
    /// coordinators.
    pub results_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            workers: 0,
            max_concurrent_requests: 0,
            results_capacity: 16,
        }
    }
}

impl EngineConfig {
    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// The batch analysis engine. One engine owns one worker pool and one
/// query DB; batches submitted to it share both.
pub struct Engine {
    config: EngineConfig,
    pool: Arc<WorkPool>,
    db: Arc<QueryDb>,
    completed: Arc<AtomicU64>,
    degraded: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    faults: Arc<AtomicU64>,
    #[cfg(feature = "fault-inject")]
    fault_plan: Option<Arc<FaultPlan>>,
}

impl Engine {
    /// An engine over its own default-sized query DB
    /// ([`QueryConfig::default`]).
    pub fn new(config: EngineConfig) -> Engine {
        Engine::with_query(config, Arc::new(QueryDb::full(QueryConfig::default())))
    }

    /// An engine sharing a caller-owned query DB, which also sizes the
    /// stores. The daemon and the incremental bench construct their
    /// engines this way, to size the DB, persist it, or read its stats.
    pub fn with_query(config: EngineConfig, db: Arc<QueryDb>) -> Engine {
        Engine {
            pool: Arc::new(WorkPool::new(config.effective_workers())),
            db,
            completed: Arc::new(AtomicU64::new(0)),
            degraded: Arc::new(AtomicU64::new(0)),
            failed: Arc::new(AtomicU64::new(0)),
            faults: Arc::new(AtomicU64::new(0)),
            config,
            #[cfg(feature = "fault-inject")]
            fault_plan: None,
        }
    }

    /// The engine's query DB (shared with the daemon for persistence
    /// and stats).
    pub fn query_db(&self) -> &Arc<QueryDb> {
        &self.db
    }

    /// An engine with a deterministic fault-injection plan (test
    /// harness): selected match jobs panic or stall, selected traces
    /// sleep between steps.
    #[cfg(feature = "fault-inject")]
    pub fn with_fault_plan(config: EngineConfig, plan: FaultPlan) -> Engine {
        let mut e = Engine::new(config);
        e.fault_plan = Some(Arc::new(plan));
        e
    }

    /// Analyzes a batch. Returns immediately; results stream over the
    /// returned [`Batch`] in completion order.
    pub fn analyze_batch(&self, requests: Vec<AnalysisRequest>) -> Batch {
        let (tx, rx) = mpsc::sync_channel(self.config.results_capacity.max(1));
        let n = requests.len();
        let queue: Arc<Mutex<VecDeque<(usize, AnalysisRequest)>>> =
            Arc::new(Mutex::new(requests.into_iter().enumerate().collect()));
        let coordinators = {
            let cap = if self.config.max_concurrent_requests > 0 {
                self.config.max_concurrent_requests
            } else {
                self.config.effective_workers()
            };
            cap.min(n.max(1))
        };
        let handles = (0..coordinators)
            .map(|c| {
                let queue = Arc::clone(&queue);
                let tx: SyncSender<AnalysisResult> = tx.clone();
                let pool = Arc::clone(&self.pool);
                let db = Arc::clone(&self.db);
                let completed = Arc::clone(&self.completed);
                let degraded = Arc::clone(&self.degraded);
                let failed = Arc::clone(&self.failed);
                let faults = Arc::clone(&self.faults);
                #[cfg(feature = "fault-inject")]
                let plan = self.fault_plan.clone();
                std::thread::Builder::new()
                    .name(format!("engine-coordinator-{c}"))
                    .spawn(move || loop {
                        // A poisoned request queue (a coordinator panicked
                        // mid-pop) still pops cleanly: VecDeque::pop_front
                        // is atomic with respect to panics.
                        let next = queue
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .pop_front();
                        let Some((index, req)) = next else { break };
                        #[cfg(feature = "fault-inject")]
                        let result = run_request(&pool, &db, index, req, plan.as_deref());
                        #[cfg(not(feature = "fault-inject"))]
                        let result = run_request(&pool, &db, index, req);
                        note_result(&completed, &degraded, &failed, &faults, &result);
                        if tx.send(result).is_err() {
                            break; // receiver dropped: abandon the batch
                        }
                    })
                    .expect("spawn engine coordinator")
            })
            .collect();
        Batch { rx, handles }
    }

    /// Convenience: run a batch to completion and return the results in
    /// submission order.
    pub fn analyze_all(&self, requests: Vec<AnalysisRequest>) -> Vec<AnalysisResult> {
        let mut results: Vec<AnalysisResult> = self.analyze_batch(requests).collect();
        results.sort_by_key(|r| r.index);
        results
    }

    /// Runs a single request to completion *on the calling thread*,
    /// sharing the engine's worker pool and match cache. This is the
    /// serving path: a resident daemon keeps one engine alive and calls
    /// this from its own request workers, instead of paying a
    /// coordinator thread spawn per request the way [`analyze_batch`]
    /// does per batch. Match jobs still fan out across the shared pool.
    ///
    /// [`analyze_batch`]: Engine::analyze_batch
    pub fn analyze_one(&self, req: AnalysisRequest) -> AnalysisResult {
        #[cfg(feature = "fault-inject")]
        let result = run_request(&self.pool, &self.db, 0, req, self.fault_plan.as_deref());
        #[cfg(not(feature = "fault-inject"))]
        let result = run_request(&self.pool, &self.db, 0, req);
        note_result(
            &self.completed,
            &self.degraded,
            &self.failed,
            &self.faults,
            &result,
        );
        result
    }

    /// Self-healing sweep: replaces any match-worker thread that has
    /// died (a panic outside job containment, or an injected exit) with
    /// a fresh thread on the same slot. Safe to call from a watchdog at
    /// any cadence; returns the number of workers respawned.
    pub fn heal(&self) -> usize {
        self.pool.respawn_dead()
    }

    /// Orders one match worker to exit at its next safe point, so a
    /// harness can prove [`Engine::heal`] restores capacity.
    #[cfg(feature = "fault-inject")]
    pub fn inject_worker_exit(&self, worker: usize) {
        self.pool.inject_worker_exit(worker);
    }

    pub fn metrics(&self) -> EngineMetrics {
        let PoolMetrics {
            jobs_executed,
            jobs_stolen,
            peak_queue_depth,
            jobs_panicked,
            workers_respawned,
        } = self.pool.metrics();
        let cache = self.db.match_cache().metrics();
        EngineMetrics {
            workers: self.pool.worker_count(),
            jobs_executed,
            jobs_stolen,
            peak_queue_depth,
            requests_completed: self.completed.load(Ordering::Relaxed),
            cache_entries: cache.entries,
            cache_capacity: cache.capacity,
            cache_capacity_bytes: cache.capacity_bytes,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            cache_bytes: cache.approx_bytes,
            jobs_panicked,
            match_faults: self.faults.load(Ordering::Relaxed),
            requests_degraded: self.degraded.load(Ordering::Relaxed),
            requests_failed: self.failed.load(Ordering::Relaxed),
            cache_poison_recoveries: cache.poison_recoveries,
            workers_respawned,
        }
    }
}

/// A batch in flight: iterate to receive results in completion order.
/// Dropping it joins the coordinators (after disconnecting, so an
/// abandoned batch winds down instead of blocking on the channel).
pub struct Batch {
    rx: Receiver<AnalysisResult>,
    handles: Vec<JoinHandle<()>>,
}

impl Iterator for Batch {
    type Item = AnalysisResult;

    fn next(&mut self) -> Option<AnalysisResult> {
        self.rx.recv().ok()
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        // Disconnect first so coordinators blocked on send() observe the
        // hangup instead of deadlocking against our join.
        let (dead_tx, dead_rx) = mpsc::sync_channel(1);
        drop(dead_tx);
        let _ = std::mem::replace(&mut self.rx, dead_rx);
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Folds one finished request into the engine-wide counters (shared by
/// the batch coordinators and [`Engine::analyze_one`]).
fn note_result(
    completed: &AtomicU64,
    degraded: &AtomicU64,
    failed: &AtomicU64,
    faults: &AtomicU64,
    result: &AnalysisResult,
) {
    completed.fetch_add(1, Ordering::Relaxed);
    faults.fetch_add(result.metrics.match_faults, Ordering::Relaxed);
    if result.metrics.degraded {
        degraded.fetch_add(1, Ordering::Relaxed);
    }
    if result.outcome.is_err() {
        failed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A match job's reply to its coordinator.
enum JobReply {
    Done(MatchOutcome),
    /// The model panicked inside the job's own containment; the
    /// coordinator degrades the sub-DDG to no-match and counts the fault.
    Fault,
}

/// Traces and analyzes one request, fanning match jobs out to `pool`.
/// The request's deadline (when configured) is anchored *here*, before
/// tracing, so it covers the whole request: trace, finder iterations,
/// and every match search.
///
/// The request walks the query DB's memo chain top-down: a `trace` hit
/// whose DDG fingerprint also has a `find` hit replays the entire
/// analysis; a fresh trace whose DDG hashes to a known finder result
/// skips matching; otherwise sub-DDG extraction and the match stage
/// each memoize what they can.
fn run_request(
    pool: &Arc<WorkPool>,
    db: &Arc<QueryDb>,
    index: usize,
    req: AnalysisRequest,
    #[cfg(feature = "fault-inject")] plan: Option<&FaultPlan>,
) -> AnalysisResult {
    let mut req_span = obs::span_args("engine.request", || {
        vec![
            ("id", obs::ArgValue::Str(req.id.clone())),
            ("index", obs::ArgValue::U64(index as u64)),
        ]
    });
    let mut metrics = RequestMetrics::default();
    let cancel = match req.config.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let cache = db.match_cache();

    // Content-address the request. Only complete, deadline-free-at-cache
    // artifacts are ever stored, so a hit is always safe to replay.
    let tkey = trace_key(
        repro_ir::fingerprint_program(&req.program),
        fingerprint_input(&req.input),
    );
    let config_fp = fingerprint_finder_config(&req.config);
    if let Some(traced) = db.trace_get(tkey) {
        if let Some(found) = db.find_get(find_key(traced.ddg_fp, config_fp)) {
            metrics.query_analyze_hit = true;
            metrics.query_find_hit = true;
            req_span.arg("result", obs::ArgValue::Static("query-hit"));
            return AnalysisResult {
                id: req.id,
                index,
                outcome: Ok(Analysis {
                    result: found.to_result(),
                    run: traced.to_run_result(),
                }),
                metrics,
            };
        }
    }

    // The exec probe's gate key, computed only now that the pre-trace
    // lookup missed. An invalid program has no shape: it gets no probe,
    // and its full run below answers with the validation error.
    let shape = exec_shape_key(&req.program, &req.input);

    let t0 = Instant::now();
    let mut input = req.input.clone();
    input.trace = trace::TraceMode::Full;
    if let Some(d) = cancel.deadline() {
        input.deadline = Some(input.deadline.map_or(d, |existing| existing.min(d)));
    }
    #[cfg(feature = "fault-inject")]
    if let Some(f) = plan.and_then(|p| p.trace_fault_for(&req.id)) {
        input.fault = Some(f);
    }

    // Exec-fingerprint probe: spend an untraced run (~5x cheaper than
    // tracing) hashing the executed instruction/address stream. Equal
    // streams produce byte-identical DDGs, so a fingerprint hit re-keys
    // an *edited* program — a trace-stage miss — to its cached DDG
    // identity, and a find hit on that identity replays the whole
    // analysis without ever tracing. Any miss falls through to the
    // normal traced run. The probe runs only where it can hit: the exec
    // stage must hold entries (a cold DB never pays for the gate
    // either) and the gate must have this request's shape armed — a
    // full run of the same constant-erased program on an input of the
    // same shape. It is also skipped under injected trace faults (the
    // fault must surface through the real run).
    #[cfg(feature = "fault-inject")]
    let probe_safe = input.fault.is_none();
    #[cfg(not(feature = "fault-inject"))]
    let probe_safe = true;
    if shape.is_some_and(|shape| probe_safe && db.exec_len() > 0 && db.exec_gate(shape)) {
        let mut probe_input = input.clone();
        probe_input.trace = trace::TraceMode::Off;
        probe_input.exec_fingerprint = true;
        if let Ok(probe_run) = trace::run(&req.program, &probe_input) {
            if let Some(entry) = probe_run
                .exec_fp
                .and_then(|fp| db.exec_get(repro_ir::ContentHash(fp)))
            {
                if let Some(found) = db.find_get(find_key(entry.ddg_fp, config_fp)) {
                    db.trace_put(
                        tkey,
                        TraceArtifact::from_run(&probe_run, entry.ddg_fp, entry.ddg_nodes as usize),
                    );
                    metrics.query_find_hit = true;
                    metrics.query_exec_hit = true;
                    metrics.trace_time = t0.elapsed();
                    req_span.arg("result", obs::ArgValue::Static("query-exec-hit"));
                    return AnalysisResult {
                        id: req.id,
                        index,
                        outcome: Ok(Analysis {
                            result: found.to_result(),
                            run: probe_run,
                        }),
                        metrics,
                    };
                }
            }
        }
    }
    // Record the fingerprint on full runs so future edits can probe
    // against it, and arm the gate for their shape.
    input.exec_fingerprint = true;

    let run = trace::run(&req.program, &input);
    metrics.trace_time = t0.elapsed();

    let mut run = match run {
        Ok(r) => r,
        Err(e) => {
            metrics.deadline_hit = cancel.is_expired();
            req_span.arg("result", obs::ArgValue::Static("trace-error"));
            return AnalysisResult {
                id: req.id,
                index,
                outcome: Err(EngineError::Trace(e)),
                metrics,
            };
        }
    };
    let ddg = run.ddg.take().expect("tracing was enabled");

    // Memoize the fresh trace and try the find stage: an edited program
    // often re-traces to a byte-identical DDG (e.g. a constant change —
    // DDG nodes carry no runtime values), and then the whole find phase
    // replays from its fingerprint.
    let ddg_fp = repro_query::fingerprint_ddg(&ddg);
    db.trace_put(tkey, TraceArtifact::from_run(&run, ddg_fp, ddg.len()));
    // A program without a shape failed validation, so its run failed
    // above: every run that gets here records its entry and arms it.
    if let (Some(exec_fp), Some(shape)) = (run.exec_fp, shape) {
        db.exec_put_shaped(
            repro_ir::ContentHash(exec_fp),
            ExecEntry {
                ddg_fp,
                ddg_nodes: ddg.len() as u64,
            },
            shape,
        );
    }
    let fkey = find_key(ddg_fp, config_fp);
    if let Some(found) = db.find_get(fkey) {
        metrics.query_find_hit = true;
        req_span.arg("result", obs::ArgValue::Static("query-find-hit"));
        return AnalysisResult {
            id: req.id,
            index,
            outcome: Ok(Analysis {
                result: found.to_result(),
                run,
            }),
            metrics,
        };
    }

    let t0 = Instant::now();
    // Front-end: simplify on this coordinator, then fan the per-sub-DDG
    // extraction tasks out as pool jobs so they interleave with match
    // work from other requests. Results are reassembled in task order,
    // so the pool seeding — and with it every downstream byte — matches
    // the sequential finder exactly. Extraction jobs never wait on other
    // pool jobs; only this coordinator blocks on the reply channel.
    let mut fe = FrontEnd::new(&ddg, &req.config, cancel.clone());
    let tasks = fe.take_tasks();
    let n_tasks = tasks.len();
    let mut extracted: Vec<Option<Vec<SubDdg>>> = (0..n_tasks).map(|_| None).collect();
    // Sub-DDG stage: extraction is pure in (simplified graph, task
    // index), and the simplified graph is pure in (DDG, simplify flag),
    // so each task's pool slice is keyed off the DDG fingerprint.
    let skey = |i| subddg_key(ddg_fp, req.config.enable_simplify, i);
    {
        let (tx, rx) = mpsc::channel::<(usize, Vec<SubDdg>)>();
        let mut submitted = 0usize;
        for (i, task) in tasks.into_iter().enumerate() {
            if let Some(cached) = db.subddg_get(skey(i)) {
                extracted[i] = Some((*cached).clone());
                continue;
            }
            submitted += 1;
            let g = fe.graph_arc();
            let tx = tx.clone();
            pool.submit(Box::new(move || {
                // A panicking extraction is contained by the pool; the
                // dropped sender below surfaces it as a lost worker.
                let _ = tx.send((i, discovery::decompose::extract(&g, &task)));
            }));
        }
        drop(tx);
        for got in 0..submitted {
            match rx.recv() {
                Ok((i, subs)) => {
                    db.subddg_put(skey(i), Arc::new(subs.clone()));
                    extracted[i] = Some(subs);
                }
                Err(_) => {
                    metrics.deadline_hit = cancel.is_expired();
                    req_span.arg("result", obs::ArgValue::Static("worker-lost"));
                    return AnalysisResult {
                        id: req.id,
                        index,
                        outcome: Err(EngineError::WorkerLost {
                            missing: submitted - got,
                        }),
                        metrics,
                    };
                }
            }
        }
    }
    let mut state = fe.assemble(extracted.into_iter().map(Option::unwrap).collect());

    while !state.is_done() {
        let jobs = state.active_jobs();
        let budget = state.budget();
        // The finder owns the one wall clock (and obs span) for the match
        // phase — cache probes and job waits included — so the sequential
        // and parallel drivers report the same "matching" time (see
        // `FinderState::begin_matching`).
        let phase = state.begin_matching();
        let (tx, rx) = mpsc::channel::<(usize, JobReply)>();
        let mut outcomes: Vec<(usize, MatchOutcome)> = Vec::with_capacity(jobs.len());
        let mut in_flight = 0usize;
        // Keys this iteration already missed. A later job with one of
        // them is deferred until the first job's fulfil has landed,
        // instead of racing it, so which probes hit does not depend on
        // pool timing.
        let mut missed: HashSet<MatchKey> = HashSet::new();
        let mut deferred: Vec<(MatchJob, MatchKey)> = Vec::new();
        for job in jobs {
            // Fault ordinals count every job, deferred ones included.
            #[cfg(feature = "fault-inject")]
            let injected = plan.map_or(fault::JobFault::default(), |p| {
                p.match_fault(&req.id, metrics.match_jobs)
            });
            metrics.match_jobs += 1;
            // A job with a planned fault is never deferred: the fault
            // must fire in its own job.
            #[cfg(feature = "fault-inject")]
            let deferrable = !injected.is_planned();
            #[cfg(not(feature = "fault-inject"))]
            let deferrable = true;
            let key = MatchKey::of(state.graph(), &job.sub, &budget);
            let pending = match key {
                Some(key) if deferrable && missed.contains(&key) => {
                    deferred.push((job, key));
                    continue;
                }
                Some(key) => {
                    let Some(pending) =
                        lookup(cache, &state, &job, key, &mut metrics, &mut outcomes)
                    else {
                        continue;
                    };
                    missed.insert(key);
                    Some(pending)
                }
                None => {
                    metrics.cache_bypassed += 1;
                    obs::instant("cache.bypass");
                    None
                }
            };
            submit_match(
                pool,
                db,
                &tx,
                state.graph_arc(),
                job,
                budget,
                pending,
                #[cfg(feature = "fault-inject")]
                injected,
            );
            in_flight += 1;
        }
        drop(tx);
        // Wait out the first wave, then answer each deferred job from the
        // store its key's first miss filled. A miss here — that outcome
        // was exhausted or faulted, so nothing was stored — matches the
        // job after all, in a second wave.
        let mut lost = receive(&rx, in_flight, &mut outcomes, &mut state, &mut metrics);
        if lost.is_none() && !deferred.is_empty() {
            let (tx, rx) = mpsc::channel::<(usize, JobReply)>();
            let mut in_flight = 0usize;
            for (job, key) in deferred {
                if let Some(pending) = lookup(cache, &state, &job, key, &mut metrics, &mut outcomes)
                {
                    submit_match(
                        pool,
                        db,
                        &tx,
                        state.graph_arc(),
                        job,
                        budget,
                        Some(pending),
                        #[cfg(feature = "fault-inject")]
                        fault::JobFault::default(),
                    );
                    in_flight += 1;
                }
            }
            drop(tx);
            lost = receive(&rx, in_flight, &mut outcomes, &mut state, &mut metrics);
        }
        if let Some(missing) = lost {
            // Every sender hung up with outcomes still owed: a worker
            // died outside the job's containment. Fail this request; the
            // batch and the engine live on.
            metrics.deadline_hit = cancel.is_expired();
            req_span.arg("result", obs::ArgValue::Static("worker-lost"));
            return AnalysisResult {
                id: req.id,
                index,
                outcome: Err(EngineError::WorkerLost { missing }),
                metrics,
            };
        }
        state.end_matching(phase);
        // `apply_matches` re-applies in pool order; sorting here just
        // keeps the outcome list itself deterministic for debugging.
        outcomes.sort_by_key(|(i, _)| *i);
        state.apply_matches(outcomes);
    }

    let result = state.finish();
    // Only a complete fixpoint is worth remembering: a degraded or
    // deadline-cut result replayed later would silently under-report.
    if !result.degraded && !result.cancelled {
        db.find_put(fkey, FindArtifact::from_result(&result));
    }
    metrics.find_time = t0.elapsed();
    metrics.matches_exhausted = result.matches_exhausted as u64;
    metrics.deadline_hit = result.cancelled;
    metrics.degraded = result.degraded;
    req_span.arg(
        "result",
        obs::ArgValue::Static(if result.degraded { "degraded" } else { "ok" }),
    );
    AnalysisResult {
        id: req.id,
        index,
        outcome: Ok(Analysis { result, run }),
        metrics,
    }
}

/// Looks `job`'s key up in the match cache and counts the outcome. A
/// hit's rebuilt pattern joins `outcomes` (checked against the graph in
/// debug builds); a miss returns its ticket for the job that matches.
fn lookup(
    cache: &MatchCache,
    state: &FinderState,
    job: &MatchJob,
    key: MatchKey,
    metrics: &mut RequestMetrics,
    outcomes: &mut Vec<(usize, MatchOutcome)>,
) -> Option<PendingEntry> {
    match cache.lookup(state.graph(), &job.sub, key) {
        Ok(p) => {
            metrics.cache_hits += 1;
            obs::instant("cache.hit");
            #[cfg(debug_assertions)]
            if let Some(p) = &p {
                debug_assert!(
                    discovery::models::verify::check(state.graph(), p),
                    "cache rebuilt an invalid pattern: {}",
                    p.describe()
                );
            }
            outcomes.push((job.pool_index, MatchOutcome::definitive(p)));
            None
        }
        Err(pending) => {
            metrics.cache_misses += 1;
            obs::instant("cache.miss");
            Some(pending)
        }
    }
}

/// Runs one match job on the pool. The job replies over `tx` with its
/// outcome, or with a fault if the model panicked; a definitive outcome
/// of a missed probe also fulfils `pending`.
#[allow(clippy::too_many_arguments)]
fn submit_match(
    pool: &WorkPool,
    db: &Arc<QueryDb>,
    tx: &Sender<(usize, JobReply)>,
    g: Arc<Ddg>,
    job: MatchJob,
    budget: MatchBudget,
    pending: Option<PendingEntry>,
    #[cfg(feature = "fault-inject")] injected: fault::JobFault,
) {
    let db = Arc::clone(db);
    let tx = tx.clone();
    pool.submit(Box::new(move || {
        // Panic isolation: a panicking model (or injected fault) becomes
        // a recorded per-sub-DDG fault on the coordinator, degraded to
        // no-match — never a dead worker or a lost iteration.
        let matched = std::panic::catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "fault-inject")]
            injected.fire();
            match_subddg_full(&g, &job.sub, &budget)
        }));
        let reply = match matched {
            Ok(outcome) => {
                // Exhausted (time-truncated) outcomes are time-dependent,
                // not structural: memoizing one would serve a truncated
                // no-match to a request with time to spare. Only
                // definitive outcomes enter the cache.
                if let Some(pending) = pending {
                    if !outcome.exhausted {
                        db.match_cache().fulfil(pending, &job.sub, &outcome.pattern);
                    }
                }
                JobReply::Done(outcome)
            }
            Err(_) => JobReply::Fault,
        };
        // The coordinator may have abandoned the batch.
        let _ = tx.send((job.pool_index, reply));
    }));
}

/// Collects `n` job replies into `outcomes`, degrading faults to
/// no-match. Returns the number still owed if every sender hung up
/// first (a worker died outside its job's containment).
fn receive(
    rx: &Receiver<(usize, JobReply)>,
    n: usize,
    outcomes: &mut Vec<(usize, MatchOutcome)>,
    state: &mut FinderState,
    metrics: &mut RequestMetrics,
) -> Option<usize> {
    for got in 0..n {
        match rx.recv() {
            Ok((pool_index, JobReply::Done(outcome))) => outcomes.push((pool_index, outcome)),
            Ok((pool_index, JobReply::Fault)) => {
                state.note_fault();
                metrics.match_faults += 1;
                obs::instant("engine.match_fault");
                outcomes.push((pool_index, MatchOutcome::default()));
            }
            Err(_) => return Some(n - got),
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use discovery::PatternKind;

    fn map_source(elems: usize) -> String {
        format!(
            "float in[{elems}];\nfloat out[{elems}];\nvoid main() {{\n  int i;\n  \
             for (i = 0; i < {elems}; i++) {{\n    out[i] = in[i] * 2.0 + 1.0;\n  }}\n  \
             output(out);\n}}\n"
        )
    }

    /// A request for `src`, whose `in` array holds `0..elems`.
    fn request(id: &str, src: &str, elems: usize) -> AnalysisRequest {
        let program = minc::compile(id, src).unwrap();
        let input = trace::RunConfig::default()
            .with_f64("in", &(0..elems).map(|i| i as f64).collect::<Vec<_>>());
        AnalysisRequest {
            id: id.to_string(),
            program,
            input,
            config: FinderConfig::default(),
        }
    }

    fn map_request(id: &str, elems: usize) -> AnalysisRequest {
        request(id, &map_source(elems), elems)
    }

    /// `map_request`'s loop plus an independent second map over `tail`
    /// elements. Requests with equal `elems` share the first loop's
    /// sub-DDG shape, while distinct `tail`s keep every DDG distinct,
    /// so a repeated shape reaches the match cache instead of being
    /// replayed whole from the find stage.
    fn two_map_request(id: &str, elems: usize, tail: usize) -> AnalysisRequest {
        let src = format!(
            "float in[{elems}];\nfloat out[{elems}];\nfloat b_in[{tail}];\nfloat b_out[{tail}];\n\
             void main() {{\n  int i;\n  int j;\n  \
             for (i = 0; i < {elems}; i++) {{\n    out[i] = in[i] * 2.0 + 1.0;\n  }}\n  \
             for (j = 0; j < {tail}; j++) {{\n    b_out[j] = b_in[j] * 3.0;\n  }}\n  \
             output(out);\n  output(b_out);\n}}\n"
        );
        request(id, &src, elems)
    }

    /// The sequential finder's result for `req` (same trace, same config).
    fn sequential(req: &AnalysisRequest) -> FinderResult {
        let mut input = req.input.clone();
        input.trace = trace::TraceMode::Full;
        let run = trace::run(&req.program, &input).unwrap();
        discovery::find_patterns(&run.ddg.unwrap(), &req.config)
    }

    fn small_engine() -> Engine {
        Engine::new(EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn single_request_finds_the_map() {
        let engine = small_engine();
        let results = engine.analyze_all(vec![map_request("one", 4)]);
        assert_eq!(results.len(), 1);
        let analysis = results[0].outcome.as_ref().expect("trace ok");
        let kinds: Vec<_> = analysis.result.reported().map(|f| f.pattern.kind).collect();
        assert_eq!(kinds, vec![PatternKind::Map]);
        assert!(results[0].metrics.match_jobs > 0);
        // The run (sans DDG) is returned for output verification.
        assert_eq!(analysis.run.f64s("out"), vec![1.0, 3.0, 5.0, 7.0]);
        assert!(analysis.run.ddg.is_none());
    }

    #[test]
    fn batch_results_recover_submission_order_and_share_the_cache() {
        // One request at a time, so each probe sees the previous
        // request's stored outcomes (concurrent coordinators may race
        // past each other's fulfils — that only costs hits, never
        // correctness — which would make this assertion flaky).
        let engine = Engine::new(EngineConfig {
            workers: 4,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        });
        // Four requests over two structural shapes: the repeats must hit.
        let reqs = vec![
            two_map_request("a", 4, 2),
            two_map_request("b", 4, 3),
            two_map_request("c", 6, 4),
            two_map_request("d", 6, 5),
        ];
        let results = engine.analyze_all(reqs);
        assert_eq!(
            results.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
            vec!["a", "b", "c", "d"]
        );
        let m = engine.metrics();
        assert!(m.cache_hits > 0, "repeated shapes must hit: {m:?}");
        assert_eq!(m.requests_completed, 4);
        assert_eq!(m.workers, 4);
    }

    #[test]
    fn cached_and_uncached_runs_agree() {
        let cached = Engine::new(EngineConfig {
            workers: 4,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        });
        let reqs = || vec![two_map_request("x", 5, 2), two_map_request("y", 5, 3)];
        let a = cached.analyze_all(reqs());
        // The sequential finder, which has no cache, is the referee.
        let b: Vec<FinderResult> = reqs().iter().map(sequential).collect();
        assert!(cached.metrics().cache_hits > 0);
        for (ra, pb) in a.iter().zip(&b) {
            let pa = &ra.outcome.as_ref().unwrap().result;
            assert_eq!(pa.found.len(), pb.found.len());
            for (fa, fb) in pa.found.iter().zip(&pb.found) {
                assert_eq!(fa.pattern.kind, fb.pattern.kind);
                assert_eq!(fa.pattern.detail, fb.pattern.detail);
                assert_eq!(fa.iteration, fb.iteration);
            }
        }
    }

    #[test]
    fn new_engines_answer_repeats_and_constant_edits_from_the_query_db() {
        // `Engine::new` builds what fig7, table3 and the daemon run: the
        // full query DB.
        let engine = small_engine();
        let first = engine.analyze_one(map_request("m", 4));
        let cold = &first.outcome.as_ref().expect("cold analysis").result;
        assert!(first.metrics.cache_misses > 0, "{:?}", first.metrics);

        // An identical repeat is answered from the store: no trace, no
        // matching.
        let repeat = engine.analyze_one(map_request("m", 4));
        assert!(repeat.metrics.query_analyze_hit, "{:?}", repeat.metrics);
        assert_eq!(engine.query_db().stats().find.hits, 1);
        assert_eq!(
            repro_query::pattern_signature(&repeat.outcome.as_ref().unwrap().result),
            repro_query::pattern_signature(cold)
        );

        // A same-length constant edit re-keys the program but not its
        // execution stream: the exec probe resolves it to the cached DDG
        // and the find phase replays without a single match query.
        let before = engine.metrics();
        let src = map_source(4).replace("+ 1.0", "+ 5.0");
        let edited = engine.analyze_one(request("m", &src, 4));
        assert!(edited.metrics.query_exec_hit, "{:?}", edited.metrics);
        assert_eq!(
            (edited.metrics.cache_hits, edited.metrics.cache_misses),
            (0, 0)
        );
        let after = engine.metrics();
        assert_eq!(
            (after.cache_hits, after.cache_misses),
            (before.cache_hits, before.cache_misses)
        );
        // The replayed run still carries the edited program's outputs.
        let analysis = edited.outcome.as_ref().unwrap();
        assert_eq!(analysis.run.f64s("out"), vec![5.0, 7.0, 9.0, 11.0]);
        assert_eq!(
            repro_query::pattern_signature(&analysis.result),
            repro_query::pattern_signature(cold)
        );
    }

    #[test]
    fn trace_errors_are_reported_not_fatal() {
        let engine = small_engine();
        // An out-of-bounds store fails the simulated machine.
        let src = "float in[4];\nfloat out[2];\nvoid main() {\n  int i;\n  \
                   for (i = 0; i < 4; i++) {\n    out[i] = in[i];\n  }\n  output(out);\n}\n";
        let program = minc::compile("bad", src).unwrap();
        let req = AnalysisRequest {
            id: "bad".into(),
            program,
            input: trace::RunConfig::default(),
            config: FinderConfig::default(),
        };
        let results = engine.analyze_all(vec![req, map_request("good", 4)]);
        assert!(results[0].outcome.is_err());
        assert!(results[1].outcome.is_ok());
    }

    #[test]
    fn zero_match_budget_streams_a_degraded_partial_result() {
        // End-to-end budget exhaustion: a streamcluster-shaped program
        // whose tiled-reduction search gets no time. The request still
        // completes — cheap structural matches survive, the result is
        // flagged degraded, and the exhausted outcome is never cached.
        let src = r#"
float p[8];
float hizs[2];
float result[1];
barrier b;

float dist(float x, float y) {
    float d = x - y;
    return sqrt(d * d);
}

void pkmedian(int pid, int nproc) {
    int k1 = pid * 4;
    int k2 = k1 + 4;
    float myhiz = 0.0;
    int kk;
    for (kk = k1; kk < k2; kk++) {
        myhiz = myhiz + dist(p[kk], p[0]);
    }
    hizs[pid] = myhiz;
    barrier_wait(b);
    if (pid == 0) {
        float hiz = 0.0;
        int i;
        for (i = 0; i < nproc; i++) {
            hiz = hiz + hizs[i];
        }
        result[0] = hiz;
    }
}

void main() {
    int t0;
    int t1;
    t0 = spawn pkmedian(0, 2);
    t1 = spawn pkmedian(1, 2);
    join(t0);
    join(t1);
    output(result);
}
"#;
        let program = minc::compile("sc", src).unwrap();
        let input = trace::RunConfig::default()
            .with_f64("p", &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
            .with_barrier_participants(2);
        let mut config = FinderConfig::default();
        config.budget.time = Duration::ZERO;
        let req = AnalysisRequest {
            id: "sc".into(),
            program,
            input,
            config,
        };
        let engine = small_engine();
        let results = engine.analyze_all(vec![req]);
        let analysis = results[0].outcome.as_ref().expect("completes degraded");
        assert!(analysis.result.degraded);
        assert!(!analysis.result.cancelled, "budget, not deadline");
        assert!(analysis.result.matches_exhausted > 0);
        assert!(results[0].metrics.degraded);
        assert!(results[0].metrics.matches_exhausted > 0);
        // Best-so-far: the budget-free matchers still delivered.
        let kinds: Vec<_> = analysis
            .result
            .found
            .iter()
            .map(|f| f.pattern.kind)
            .collect();
        assert!(kinds.contains(&PatternKind::LinearReduction), "{kinds:?}");
        assert!(!kinds.contains(&PatternKind::TiledReduction), "{kinds:?}");
        assert_eq!(engine.metrics().requests_degraded, 1);
    }

    #[test]
    fn an_expired_deadline_still_streams_a_labeled_result() {
        let mut req = map_request("late", 4);
        req.config.deadline = Some(Duration::ZERO);
        let engine = small_engine();
        let results = engine.analyze_all(vec![req, map_request("on-time", 4)]);
        assert_eq!(results.len(), 2);
        // The deadline expired before (or during) the analysis; either a
        // degraded analysis or a trace-deadline error is acceptable, but
        // the result must be labeled and the batch must keep going.
        match &results[0].outcome {
            Ok(a) => {
                assert!(a.result.cancelled);
                assert!(a.result.degraded);
                assert!(results[0].metrics.deadline_hit);
            }
            Err(EngineError::Trace(e)) => {
                assert!(e.message.contains("deadline"), "{e}");
                assert!(results[0].metrics.deadline_hit);
            }
            Err(other) => panic!("unexpected failure: {other}"),
        }
        let on_time = results[1].outcome.as_ref().expect("unaffected sibling");
        assert!(!on_time.result.degraded);
    }

    #[test]
    fn dropping_a_batch_early_does_not_hang() {
        let engine = Engine::new(EngineConfig {
            workers: 2,
            results_capacity: 1,
            ..EngineConfig::default()
        });
        let reqs = (0..6).map(|i| map_request(&format!("r{i}"), 4)).collect();
        let mut batch = engine.analyze_batch(reqs);
        let first = batch.next();
        assert!(first.is_some());
        drop(batch); // joins coordinators; must not deadlock
    }
}
