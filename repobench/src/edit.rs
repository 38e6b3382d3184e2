//! `edit-session`: one client makes a seeded sequence of single-site
//! source edits against a `QueryDb::full` warmed with the unedited
//! corpus. Each edit is compiled (through the store's function-IR memo)
//! and analyzed with `Engine::analyze_one`. Constant edits take the
//! exec-fingerprint replay path, operator flips re-trace and reuse the
//! match cache, exact repeats are full pre-trace hits.

use crate::gen::{self, CorpusProgram, Edit, EditKind};
use crate::layers::{self, PhaseSums};
use crate::ledger::print_ledger;
use crate::stats::{median, ratio, Summary};
use crate::{Args, Outcome, WORKERS};
use discovery::FinderConfig;
use repro_engine::{AnalysisRequest, AnalysisResult, Engine, RequestMetrics};
use repro_query::{pattern_signature, QueryConfig, QueryDb};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions per run at the least, however short `--seconds` is.
const MIN_SESSIONS: usize = 2;

struct Warm {
    engine: Engine,
    db: Arc<QueryDb>,
}

fn compile(
    db: &QueryDb,
    p: CorpusProgram,
    files: &[(String, String)],
) -> Result<repro_ir::Program, String> {
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    minc::compile_files_with_cache(&p.name(), &refs, db.fn_ir_cache()).map_err(|e| e.to_string())
}

fn analyze(engine: &Engine, p: CorpusProgram, program: repro_ir::Program) -> AnalysisResult {
    engine.analyze_one(AnalysisRequest {
        id: p.name(),
        program,
        input: (p.bench.analysis_input)(),
        config: FinderConfig::default(),
    })
}

/// Set-up: a fresh store and engine, warmed with the unedited corpus.
fn warm() -> Result<Warm, String> {
    let db = Arc::new(QueryDb::full(QueryConfig::default()));
    let engine = Engine::with_query(layers::engine_config(), Arc::clone(&db));
    for p in gen::corpus() {
        let files: Vec<(String, String)> = p
            .bench
            .files(p.version)
            .iter()
            .map(|(n, s)| (n.to_string(), s.to_string()))
            .collect();
        let program = compile(&db, p, &files)?;
        analyze(&engine, p, program)
            .outcome
            .map_err(|e| format!("warming {}: {e}", p.name()))?;
    }
    Ok(Warm { engine, db })
}

/// What one successful edit analysis produced, kept small so a long
/// session's memory does not grow with its edit count.
struct Analyzed {
    signature: String,
    phases: PhaseSums,
    steps: u64,
    ddg_size: usize,
}

/// One timed edit: compile through analysis result.
struct Done {
    pool_index: usize,
    repeat: bool,
    ms: f64,
    compile_ms: f64,
    metrics: RequestMetrics,
    outcome: Result<Analyzed, String>,
}

/// Runs one session's edits on a warmed store. Sources and inputs are
/// prepared before each clock starts; each result is reduced to its
/// signature and counters after the clock stops.
fn session(w: &Warm, pool: &[Edit], seq: &[(usize, bool)]) -> Vec<Done> {
    let mut done = Vec::with_capacity(seq.len());
    for &(i, repeat) in seq {
        let edit = &pool[i];
        let files = edit.files();
        let refs: Vec<(&str, &str)> = files
            .iter()
            .map(|(n, s)| (n.as_str(), s.as_str()))
            .collect();
        let name = edit.program.name();
        let input = (edit.program.bench.analysis_input)();
        let t0 = Instant::now();
        let program = minc::compile_files_with_cache(&name, &refs, w.db.fn_ir_cache());
        let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
        let result = match program {
            Ok(program) => w.engine.analyze_one(AnalysisRequest {
                id: name,
                program,
                input,
                config: FinderConfig::default(),
            }),
            Err(e) => panic!("pool edit {} stopped compiling: {e}", edit.describe()),
        };
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        done.push(Done {
            pool_index: i,
            repeat,
            ms,
            compile_ms,
            metrics: result.metrics,
            outcome: result
                .outcome
                .map(|a| Analyzed {
                    signature: pattern_signature(&a.result),
                    phases: PhaseSums::of(&a.result),
                    steps: a.run.steps,
                    ddg_size: a.result.ddg_size,
                })
                .map_err(|e| e.to_string()),
        });
    }
    done
}

/// Cold reference signature of every pool edit: compile, trace and find
/// patterns with no store at all.
fn references(pool: &[Edit]) -> Vec<Result<String, String>> {
    pool.iter()
        .map(|e| {
            let files = e.files();
            let refs: Vec<(&str, &str)> = files
                .iter()
                .map(|(n, s)| (n.as_str(), s.as_str()))
                .collect();
            let program =
                minc::compile_files(&e.program.name(), &refs).map_err(|err| err.to_string())?;
            let cfg = (e.program.bench.analysis_input)();
            discovery::analyze_program(&program, &cfg, &FinderConfig::default())
                .map(|r| pattern_signature(&r))
                .map_err(|err| err.to_string())
        })
        .collect()
}

fn label(pool: &[Edit], d: &Done) -> &'static str {
    if d.repeat {
        "repeat"
    } else {
        pool[d.pool_index].kind.name()
    }
}

/// Checks every edit against its cold reference and prints how each
/// edit class was answered.
fn check_all(out: &mut Outcome, pool: &[Edit], refs: &[Result<String, String>], done: &[Done]) {
    let mut paths: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for d in done {
        let m = &d.metrics;
        let path = if m.query_analyze_hit {
            "pre-trace hit"
        } else if m.query_exec_hit {
            "exec replay"
        } else if m.query_find_hit {
            "find hit"
        } else {
            "fresh find"
        };
        *paths.entry((label(pool, d), path)).or_default() += 1;
        let checked = match (&d.outcome, &refs[d.pool_index]) {
            (Ok(a), Ok(want)) if a.signature == *want => Ok(()),
            (Ok(_), Ok(_)) => Err("pattern_signature differs from a cold analysis".into()),
            (Err(e), _) => Err(e.clone()),
            (_, Err(e)) => Err(format!("reference failed: {e}")),
        };
        out.check(&pool[d.pool_index].describe(), checked);
    }
    for ((kind, path), n) in paths {
        println!("  {kind:<14} answered by {path:<14} x{n}");
    }
}

pub fn run(args: &Args, out: &mut Outcome) {
    let pool = gen::edit_pool(args.seed);
    let flips = pool
        .iter()
        .filter(|e| e.kind == EditKind::OperatorFlip)
        .count();
    println!(
        "edit-session: pool of {} constant edits + {flips} operator flips over 16 corpus programs \
         (analysis inputs), {} exact repeats per session; each session starts from a store \
         warmed with the unedited corpus; engine workers={}",
        pool.len() - flips,
        gen::SESSION_REPEATS,
        WORKERS
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let (mut setup_s, mut done) = (Vec::new(), Vec::new());
    let (mut sessions, mut peak) = (0u64, 0.0);
    while (sessions as usize) < MIN_SESSIONS || Instant::now() < deadline {
        let t = Instant::now();
        let w = match warm() {
            Ok(w) => w,
            Err(e) => {
                out.check("warm-up", Err(e));
                return;
            }
        };
        setup_s.push(t.elapsed().as_secs_f64());
        let seq = gen::session_sequence(args.seed, sessions, pool.len());
        done.extend(session(&w, &pool, &seq));
        sessions += 1;
        if sessions as usize == MIN_SESSIONS {
            // Later sessions repeat the same work; reading the peak here
            // keeps it from growing with how many sessions fit the run.
            peak = crate::peak_rss_mb("self").unwrap_or(0.0);
        }
    }
    let ms: Vec<f64> = done.iter().map(|d| d.ms).collect();
    let lat = Summary::of(&ms, 900).expect("edits ran");
    let busy_s: f64 = ms.iter().sum::<f64>() / 1e3;
    out.set("setup_s", median(&setup_s));
    out.set("peak_rss_mb", peak);
    out.set("throughput_per_s", ratio(ms.len() as f64, busy_s));
    out.set("latency_ms_p50", lat.p50);
    out.set("latency_ms_tail", lat.tail);
    println!(
        "latency_ms_p50 = edit_ms_p50: {:.3} ms; latency_ms_tail = edit_ms_{}: {:.3} ms \
         (n={}, {} beyond)",
        lat.p50,
        lat.tail_label(),
        lat.tail,
        lat.n,
        lat.beyond
    );
    println!(
        "throughput_per_s: {:.1} edits/s of busy time (n={} edits in {sessions} sessions)",
        ratio(ms.len() as f64, busy_s),
        ms.len()
    );
    println!(
        "setup_s: {:.4} s (median of n={} store warm-ups)",
        median(&setup_s),
        setup_s.len()
    );
    println!("peak_rss_mb: {peak:.1} MB (benchmark process VmHWM after {MIN_SESSIONS} sessions)");
    for kind in ["constant", "operator-flip", "repeat"] {
        let of: Vec<f64> = done
            .iter()
            .filter(|d| label(&pool, d) == kind)
            .map(|d| d.ms)
            .collect();
        if let Some(s) = Summary::of(&of, 900) {
            println!(
                "  {kind:<14} p50 {:.3} ms, {} {:.3} ms (n={})",
                s.p50,
                s.tail_label(),
                s.tail,
                s.n
            );
        }
    }
    let refs = references(&pool);
    check_all(out, &pool, &refs, &done);
}

pub fn traced(args: &Args, out: &mut Outcome) {
    let pool = gen::edit_pool(args.seed);
    let seq = gen::session_sequence(args.seed, 0, pool.len());
    let refs = references(&pool);

    let w = match warm() {
        Ok(w) => w,
        Err(e) => return out.check("warm-up", Err(e)),
    };
    let (m0, q0) = (w.engine.metrics(), w.db.stats());
    let visited0 = layers::reach_nodes_visited();
    let done = session(&w, &pool, &seq);
    let (m1, q1) = (w.engine.metrics(), w.db.stats());
    check_all(out, &pool, &refs, &done);
    layers::engine_metrics(out, &m0, &m1);
    layers::query_metrics(out, &q0, &q1);
    out.set(
        "core.reach_nodes_visited",
        (layers::reach_nodes_visited() - visited0) as f64,
    );

    // Fold each edit's own breakdown (RequestMetrics, PhaseTimes) under
    // its compile and analyze spans.
    let (mut compile_ms, mut probe_ms, mut request_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut trace_ms, mut steps, mut nodes) = (0.0, 0u64, 0usize);
    let (mut engine_residual, mut total_ms, mut all_trace_ms) = (0.0, 0.0, 0.0);
    let mut phases = PhaseSums::default();
    for d in &done {
        let m = &d.metrics;
        let t_ms = m.trace_time.as_secs_f64() * 1e3;
        let analyze_ms = d.ms - d.compile_ms;
        compile_ms.push(d.compile_ms);
        request_ms.push(analyze_ms);
        total_ms += d.ms;
        all_trace_ms += t_ms;
        let mut phase_ms = 0.0;
        if m.query_exec_hit {
            probe_ms.push(t_ms);
        }
        if let Ok(a) = &d.outcome {
            if !m.query_find_hit && !m.query_analyze_hit {
                phases.merge(&a.phases);
                phase_ms = a.phases.total_ms();
            }
            if !m.query_exec_hit && !m.query_analyze_hit {
                trace_ms += t_ms;
                steps += a.steps;
                nodes += a.ddg_size;
            }
        }
        engine_residual += analyze_ms - t_ms - phase_ms;
    }
    phases.publish(out);
    out.set("minc.compile_ms_p50", median(&compile_ms));
    out.set(
        "trace.probe_ms_p50",
        if probe_ms.is_empty() {
            0.0
        } else {
            median(&probe_ms)
        },
    );
    out.set("trace.run_ms", trace_ms);
    out.set("trace.ns_per_step", ratio(trace_ms * 1e6, steps as f64));
    out.set("trace.ddg_nodes", nodes as f64);
    out.set("engine.request_ms_p50", median(&request_ms));
    out.set("engine.unattributed_ms", engine_residual);
    out.set("unattributed_ms", engine_residual);
    layers::publish_shares(out, all_trace_ms, phases.match_ms, total_ms);
    let compile_total: f64 = compile_ms.iter().sum();
    let rows = vec![
        ("minc::compile_files_with_cache".to_string(), compile_total),
        ("trace (probe or run)".to_string(), all_trace_ms),
        ("core.simplify".to_string(), phases.simplify_ms),
        ("core.decompose".to_string(), phases.decompose_ms),
        ("core.match".to_string(), phases.match_ms),
        ("core.combine".to_string(), phases.combine_ms),
        ("core.merge".to_string(), phases.merge_ms),
        ("unattributed".to_string(), engine_residual),
    ];
    print_ledger("edit-session, one session, all edits", &rows);
    // The ledger rows are the layers' own breakdowns plus the per-edit
    // timings the untraced run takes as well: this run adds no spans.
    out.set("trace_overhead_share", 0.0);
    println!(
        "tracing overhead: 0 by construction (the traced session records no spans beyond the \
         untraced run's own per-edit timings)"
    );
    println!(
        "threads: engine workers={} (EngineMetrics), client threads 1",
        m1.workers
    );
    out.set("threads.connections", 0.0);
}
