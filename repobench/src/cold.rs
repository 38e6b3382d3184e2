//! `cold-batch`: every Starbench benchmark × {seq, pthreads} at the Fig. 7
//! scale factors, as one batch on a fresh engine over an empty
//! `QueryDb::full`. Trace, simplify, decompose and match do nearly all
//! the work; the query layer only misses and inserts.

use crate::gen::{self, CorpusProgram};
use crate::layers::{self, PhaseSums};
use crate::ledger::{print_ledger, Ledger};
use crate::stats::{median, ratio, Summary};
use crate::{Args, Outcome, WORKERS};
use discovery::models::MatchOutcome;
use discovery::{FinderConfig, FrontEnd};
use repro_engine::{AnalysisRequest, AnalysisResult, Engine, EngineMetrics};
use repro_query::{
    find_key, fingerprint_ddg, fingerprint_finder_config, fingerprint_input, subddg_key, trace_key,
    ExecEntry, FindArtifact, Probe, QueryConfig, QueryDb, QueryStats, TraceArtifact,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batches per run at the least, however short `--seconds` is.
const MIN_BATCHES: usize = 3;

fn fresh_engine() -> Engine {
    Engine::with_query(
        layers::engine_config(),
        Arc::new(QueryDb::full(QueryConfig::default())),
    )
}

fn request(p: CorpusProgram, factor: usize, program: repro_ir::Program) -> AnalysisRequest {
    AnalysisRequest {
        id: format!("{}-x{factor}", p.name()),
        program,
        input: (p.bench.scaled_input)(factor),
        config: FinderConfig::default(),
    }
}

/// Output checks for one batch result: the benchmark's own `verify` on
/// the run's arrays, and Table 3 ground truth on the patterns.
fn check(p: CorpusProgram, r: &AnalysisResult) -> Result<usize, String> {
    let a = r.outcome.as_ref().map_err(|e| e.to_string())?;
    if a.result.degraded {
        return Err("degraded result".into());
    }
    (p.bench.verify)(&a.run)?;
    let eval = starbench::evaluate(p.bench.name, p.version, &a.result);
    if !eval.perfect() {
        return Err(format!(
            "Table 3 ground truth not met: {:?}",
            layers::kinds(&a.result)
        ));
    }
    Ok(a.result.ddg_size)
}

pub fn run(args: &Args, out: &mut Outcome) {
    let plan = gen::cold_batch_order();
    println!(
        "cold-batch: {} requests per batch (8 benchmarks x {{seq, pthreads}} x factors {:?}; \
         {:?} at factor 1 only; fixed order, the seed changes nothing here), fresh engine + \
         empty QueryDb::full per batch; engine workers={}, concurrent requests={}",
        plan.len(),
        gen::COLD_FACTORS,
        gen::ANALYSIS_INPUT_ONLY,
        WORKERS,
        WORKERS
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setup_s, mut rates, mut request_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak = 0.0;
    while rates.len() < MIN_BATCHES || Instant::now() < deadline {
        let t = Instant::now();
        let engine = fresh_engine();
        let requests: Vec<AnalysisRequest> = plan
            .iter()
            .map(|&(p, f)| request(p, f, p.bench.program(p.version)))
            .collect();
        setup_s.push(t.elapsed().as_secs_f64());

        // With one request in flight, the gap between consecutive
        // results is each request's analysis time.
        let t0 = Instant::now();
        let mut last = 0.0;
        let mut results = Vec::with_capacity(plan.len());
        for r in engine.analyze_batch(requests) {
            let now = t0.elapsed().as_secs_f64() * 1e3;
            request_ms.push(now - last);
            last = now;
            results.push(r);
        }
        let wall = t0.elapsed().as_secs_f64();

        let mut nodes = 0usize;
        for r in &results {
            let (p, _) = plan[r.index];
            let checked = check(p, r).map(|n| nodes += n);
            out.check(&r.id, checked);
        }
        rates.push(nodes as f64 / wall);
        if rates.len() == MIN_BATCHES {
            // Later batches repeat the same work; reading the peak here
            // keeps it from growing with how many batches fit the run.
            peak = crate::peak_rss_mb("self").unwrap_or(0.0);
        }
    }
    let lat = Summary::of(&request_ms, 900).expect("batches ran");
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak);
    out.set("throughput_per_s", median(&rates));
    out.set("latency_ms_p50", lat.p50);
    out.set("latency_ms_tail", lat.tail);
    println!(
        "throughput_per_s = batch_nodes_per_s: {:.0} traced DDG nodes/s (median of n={} batches)",
        median(&rates),
        rates.len()
    );
    println!(
        "latency_ms_p50 = per-request analysis time p50: {:.3} ms; latency_ms_tail = {}: \
         {:.3} ms (n={}, {} beyond)",
        lat.p50,
        lat.tail_label(),
        lat.tail,
        lat.n,
        lat.beyond
    );
    println!(
        "setup_s: {:.4} s (median of n={} engine + store + request constructions)",
        median(&setup_s),
        setup_s.len()
    );
    println!("peak_rss_mb: {peak:.1} MB (benchmark process VmHWM after {MIN_BATCHES} batches)");
}

/// What the explicit layer-by-layer pass learned about one request.
struct Explicit {
    steps: u64,
    result: discovery::FinderResult,
}

/// One request through the layers' public functions in the engine's
/// order for a full query DB — pre-trace lookup, exec probe once the
/// exec index is non-empty, traced run, memo puts, simplify + plan,
/// extraction, match iterations with a match-cache probe before every
/// job and a fulfil after every miss, merge — with a span around every
/// call.
fn explicit_request(
    l: &mut Ledger,
    db: &QueryDb,
    p: CorpusProgram,
    factor: usize,
) -> Result<Explicit, String> {
    let config = FinderConfig::default();
    let program = l
        .span("minc::compile_files", |_| {
            minc::compile_files(&p.name(), p.bench.files(p.version))
        })
        .map_err(|e| e.to_string())?;
    let mut input = (p.bench.scaled_input)(factor);
    let (tkey, cfp) = l.span("query (keys, lookups, puts)", |_| {
        let key = trace_key(
            repro_ir::fingerprint_program(&program),
            fingerprint_input(&input),
        );
        let _ = db.trace_get(key);
        (key, fingerprint_finder_config(&config))
    });
    input.trace = trace::TraceMode::Full;
    input.exec_fingerprint = true;
    if db.exec_len() > 0 {
        let mut probe = input.clone();
        probe.trace = trace::TraceMode::Off;
        l.span("trace::run (exec probe)", |_| trace::run(&program, &probe))
            .map_err(|e| e.to_string())?;
    }
    let mut run = l
        .span("trace::run", |_| trace::run(&program, &input))
        .map_err(|e| e.to_string())?;
    let ddg = run.ddg.take().ok_or("traced run without a DDG")?;
    let (dfp, fkey) = l.span("query (keys, lookups, puts)", |_| {
        let dfp = fingerprint_ddg(&ddg);
        db.trace_put(tkey, TraceArtifact::from_run(&run, dfp, ddg.len()));
        if let Some(fp) = run.exec_fp {
            db.exec_put(
                repro_ir::ContentHash(fp),
                ExecEntry {
                    ddg_fp: dfp,
                    ddg_nodes: ddg.len() as u64,
                },
            );
        }
        let fkey = find_key(dfp, cfp);
        let _ = db.find_get(fkey);
        (dfp, fkey)
    });
    let mut fe = l.span("discovery::FrontEnd::new", |_| {
        FrontEnd::new(&ddg, &config, cp::CancelToken::new())
    });
    let graph = fe.graph_arc();
    let mut extracted = Vec::new();
    for (i, task) in fe.take_tasks().iter().enumerate() {
        let skey = subddg_key(dfp, config.enable_simplify, i);
        let _ = l.span("query (keys, lookups, puts)", |_| db.subddg_get(skey));
        let subs = l.span("decompose::extract", |_| {
            discovery::decompose::extract(&graph, task)
        });
        l.span("query (keys, lookups, puts)", |_| {
            db.subddg_put(skey, Arc::new(subs.clone()))
        });
        extracted.push(subs);
    }
    let mut state = fe.assemble(extracted);
    while !state.is_done() {
        let budget = state.budget();
        let phase = state.begin_matching();
        let outcomes = state
            .active_jobs()
            .into_iter()
            .map(|job| {
                let probe = l.span("query (keys, lookups, puts)", |_| {
                    db.match_cache().probe(state.graph(), &job.sub, &budget)
                });
                if let Probe::Hit(p) = probe {
                    return (job.pool_index, MatchOutcome::definitive(p));
                }
                let o = l.span("discovery::match_subddg_full", |_| {
                    discovery::match_subddg_full(state.graph(), &job.sub, &budget)
                });
                // Only definitive outcomes are memoized, as in the engine.
                if let (Probe::Miss(pending), false) = (probe, o.exhausted) {
                    l.span("query (keys, lookups, puts)", |_| {
                        db.match_cache().fulfil(pending, &job.sub, &o.pattern)
                    });
                }
                (job.pool_index, o)
            })
            .collect();
        state.end_matching(phase);
        l.span("FinderState::apply_matches", |_| {
            state.apply_matches(outcomes)
        });
    }
    let result = l.span("FinderState::finish", |_| state.finish());
    l.span("query (keys, lookups, puts)", |_| {
        db.find_put(fkey, FindArtifact::from_result(&result))
    });
    Ok(Explicit {
        steps: run.steps,
        result,
    })
}

/// Rounds of the traced run: each runs the engine batch, then the
/// explicit pass. Times are medians over the rounds, so neither side of
/// the overhead comparison is always the process's first batch; the
/// other figures come from the last round.
const TRACED_ROUNDS: usize = 5;

/// One engine batch as the untraced run makes it, with the engine's and
/// the store's counters around it.
struct EnginePass {
    seconds: f64,
    results: Vec<AnalysisResult>,
    metrics: (EngineMetrics, EngineMetrics),
    stats: (QueryStats, QueryStats),
    reach_nodes_visited: u64,
}

fn engine_pass(plan: &[(CorpusProgram, usize)]) -> EnginePass {
    let engine = fresh_engine();
    let requests: Vec<AnalysisRequest> = plan
        .iter()
        .map(|&(p, f)| request(p, f, p.bench.program(p.version)))
        .collect();
    let (m0, q0) = (engine.metrics(), engine.query_db().stats());
    let visited0 = layers::reach_nodes_visited();
    let t0 = Instant::now();
    let results = engine.analyze_all(requests);
    let seconds = t0.elapsed().as_secs_f64();
    EnginePass {
        seconds,
        results,
        metrics: (m0, engine.metrics()),
        stats: (q0, engine.query_db().stats()),
        reach_nodes_visited: layers::reach_nodes_visited() - visited0,
    }
}

/// Checks every result of an engine batch and returns each request's
/// pattern signature.
fn check_engine(
    out: &mut Outcome,
    plan: &[(CorpusProgram, usize)],
    e: &EnginePass,
) -> Vec<Option<String>> {
    e.results
        .iter()
        .map(|r| {
            out.check(&r.id, check(plan[r.index].0, r).map(|_| ()));
            r.outcome
                .as_ref()
                .map(|a| repro_query::pattern_signature(&a.result))
                .ok()
        })
        .collect()
}

/// Publishes the engine batch's own figures: core, trace nodes, shares,
/// engine, pool and query.
fn publish_engine(out: &mut Outcome, e: &EnginePass) {
    out.set("core.reach_nodes_visited", e.reach_nodes_visited as f64);
    layers::engine_metrics(out, &e.metrics.0, &e.metrics.1);
    layers::query_metrics(out, &e.stats.0, &e.stats.1);
    let mut request_ms = Vec::new();
    let (mut engine_residual_ms, mut trace_ms, mut nodes) = (0.0, 0.0, 0usize);
    let mut phases = PhaseSums::default();
    for r in &e.results {
        let m = &r.metrics;
        let t_ms = m.trace_time.as_secs_f64() * 1e3;
        let wall_ms = t_ms + m.find_time.as_secs_f64() * 1e3;
        request_ms.push(wall_ms);
        trace_ms += t_ms;
        let mut phases_ms = 0.0;
        if let Ok(a) = &r.outcome {
            phases.add(&a.result);
            phases_ms = a.result.phase_times.total().as_secs_f64() * 1e3;
            nodes += a.result.ddg_size;
        }
        engine_residual_ms += wall_ms - t_ms - phases_ms;
    }
    phases.publish(out);
    out.set("trace.ddg_nodes", nodes as f64);
    out.set("engine.request_ms_p50", median(&request_ms));
    out.set("engine.unattributed_ms", engine_residual_ms);
    layers::publish_shares(out, trace_ms, phases.match_ms, trace_ms + phases.total_ms());
}

/// The explicit layer-by-layer pass over the batch's requests, on a
/// scratch store, with a span around every call. Its patterns must equal
/// the engine's (`sigs`). Returns the ledger and the traced steps.
fn explicit_pass(
    out: &mut Outcome,
    plan: &[(CorpusProgram, usize)],
    sigs: &[Option<String>],
) -> (Ledger, u64) {
    let mut l = Ledger::default();
    let scratch = QueryDb::full(QueryConfig::default());
    let mut steps = 0u64;
    for (i, &(p, f)) in plan.iter().enumerate() {
        let got = l.span("request", |l| explicit_request(l, &scratch, p, f));
        let checked = got.and_then(|e| {
            steps += e.steps;
            match &sigs[i] {
                Some(sig) if *sig == repro_query::pattern_signature(&e.result) => Ok(()),
                _ => Err("explicit pass disagrees with the engine".to_string()),
            }
        });
        out.check(&format!("{}-x{f} (explicit)", p.name()), checked);
    }
    (l, steps)
}

pub fn traced(out: &mut Outcome) {
    let plan = gen::cold_batch_order();
    let (mut engine_s, mut explicit_s) = (Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..TRACED_ROUNDS {
        let e = engine_pass(&plan);
        let sigs = check_engine(out, &plan, &e);
        engine_s.push(e.seconds);
        let (l, steps) = explicit_pass(out, &plan, &sigs);
        // The engine batch compiles its programs before its clock starts,
        // so the explicit pass is compared without its compile spans.
        explicit_s.push((l.total_ms("request") - l.total_ms("minc::compile_files")) / 1e3);
        last = Some((e, l, steps));
    }
    let (e, l, steps) = last.expect("rounds ran");
    publish_engine(out, &e);
    let workers = e.metrics.1.workers;

    let run_ms = l.total_ms("trace::run");
    out.set("trace.run_ms", run_ms);
    out.set("trace.ns_per_step", ratio(run_ms * 1e6, steps as f64));
    let probes = l.samples_ms("trace::run (exec probe)");
    out.set(
        "trace.probe_ms_p50",
        if probes.is_empty() {
            0.0
        } else {
            median(&probes)
        },
    );
    out.set(
        "minc.compile_ms_p50",
        median(&l.samples_ms("minc::compile_files")),
    );
    out.set("query.insert_ms", l.total_ms("query (keys, lookups, puts)"));
    let rows = l.self_times("request");
    out.set(
        "unattributed_ms",
        rows.iter()
            .find(|r| r.0 == "unattributed")
            .map_or(0.0, |r| r.1),
    );
    print_ledger("cold-batch, explicit pass, all requests", &rows);
    let (engine_s, explicit_s) = (median(&engine_s), median(&explicit_s));
    out.set(
        "trace_overhead_share",
        ratio(explicit_s - engine_s, engine_s),
    );
    println!(
        "tracing overhead: engine batch {engine_s:.3} s untraced vs explicit pass with spans \
         {explicit_s:.3} s, compiles excluded ({:+.3} s; medians of n={TRACED_ROUNDS} rounds; \
         the explicit pass also skips the pool's job dispatch)",
        explicit_s - engine_s
    );
    println!(
        "threads: engine workers={workers} (EngineMetrics), concurrent requests={WORKERS}, \
         explicit pass 1"
    );
    out.set("threads.connections", 0.0);
}
