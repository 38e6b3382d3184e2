//! Benchmarks the incremental query layer (DESIGN.md §18): how much of
//! the parse→IR→trace→sub-DDG→match pipeline is reused across repeated
//! and edited requests, and what that reuse buys in wall-clock.
//!
//! Three scenarios, one shared full [`QueryDb`]:
//!
//! 1. **Cold corpus** — all eight Starbench benchmarks, both versions,
//!    analysis-scale inputs, against an empty store. Every stage
//!    misses; this populates the database and records the baseline
//!    pattern signatures.
//! 2. **Warm corpus** — the identical requests again. The trace stage
//!    must answer nearly all of them (`warm_hit_rate`, gated ≥ 0.8 by
//!    `obs_check --incr`), and every replayed result must be
//!    byte-identical to its cold signature (`parity_mismatches`,
//!    gated = 0).
//! 3. **One-loop edit** — ray-rot seq at ×16, a same-length constant
//!    edit inside the rotate loop. The edit changes the program hash
//!    (compile and trace rerun) but not the DDG shape, so the find
//!    stage replays and the whole match phase is skipped. The median
//!    analysis time against a warmed store, over `--repeats` distinct
//!    edits, versus the same edits cold (`speedup_edit`, gated ≥ 5).
//!
//! Writes `BENCH_incr.json` with `speedup_edit`, `warm_hit_rate`, and
//! `parity_mismatches` in `meta` plus full query-store counters; CI
//! gates it via `obs_check --incr`.

use repro_bench::{cli, export_obs, obs_report, parse_or_exit, render_table};
use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use repro_query::{pattern_signature, QueryConfig, QueryDb};
use starbench::{all_benchmarks, Benchmark, Version};
use std::sync::Arc;
use std::time::Instant;

/// The edit target: ray-rot's rotate loop scales by this constant.
/// Replacements are same-length digit edits, so the DDG shape — and
/// with it the find-stage key — is unchanged.
const EDIT_FROM: &str = "* 0.95;";
const EDIT_BENCH: &str = "ray-rot";
const EDIT_FACTOR: usize = 16;

fn full_db() -> Arc<QueryDb> {
    Arc::new(QueryDb::full(QueryConfig::default()))
}

fn engine_on(db: &Arc<QueryDb>, workers: usize) -> Engine {
    Engine::with_query(
        EngineConfig {
            workers,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        },
        Arc::clone(db),
    )
}

/// Compiles a benchmark version, optionally with a source substring
/// replaced (the "edit").
fn compile(bench: &Benchmark, v: Version, edit: Option<(&str, &str)>) -> repro_ir::Program {
    let files: Vec<(String, String)> = bench
        .files(v)
        .iter()
        .map(|(n, s)| {
            let s = match edit {
                Some((from, to)) => s.replace(from, to),
                None => s.to_string(),
            };
            (n.to_string(), s)
        })
        .collect();
    let refs: Vec<(&str, &str)> = files
        .iter()
        .map(|(n, s)| (n.as_str(), s.as_str()))
        .collect();
    minc::compile_files(&format!("{}-{}", bench.name, v.name()), &refs)
        .unwrap_or_else(|e| panic!("{} {}: {e}", bench.name, v.name()))
}

fn corpus_requests(opts: &repro_bench::Cli) -> Vec<AnalysisRequest> {
    let mut reqs = Vec::new();
    for bench in all_benchmarks() {
        for v in Version::BOTH {
            reqs.push(AnalysisRequest {
                id: format!("{}-{}", bench.name, v.name()),
                program: compile(bench, v, None),
                input: (bench.analysis_input)(),
                config: opts.config.clone(),
            });
        }
    }
    reqs
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() {
    let opts = cli();
    let repeats: usize = match opts.positional.iter().position(|a| a == "--repeats") {
        Some(i) => parse_or_exit(
            "--repeats",
            opts.positional.get(i + 1).map(String::as_str).unwrap_or(""),
        ),
        None => 3,
    };
    println!("Incremental analysis: cold vs warm corpus, one-loop-edit replay.\n");

    // Scenario 1+2: the corpus, cold then warm, on one shared store.
    let db = full_db();
    let engine = engine_on(&db, opts.workers);

    let mut cold_sigs = Vec::new();
    let mut rows = Vec::new();
    let mut parity_mismatches = 0usize;
    let mut corpus_cold_s = 0.0f64;
    for req in corpus_requests(&opts) {
        let id = req.id.clone();
        let t0 = Instant::now();
        let res = engine.analyze_one(req);
        corpus_cold_s += t0.elapsed().as_secs_f64();
        let a = res.outcome.as_ref().unwrap_or_else(|e| panic!("{id}: {e}"));
        cold_sigs.push((id, pattern_signature(&a.result)));
    }
    let stats_cold = db.stats();

    let mut corpus_warm_s = 0.0f64;
    for (req, (id, cold_sig)) in corpus_requests(&opts).into_iter().zip(&cold_sigs) {
        let t0 = Instant::now();
        let res = engine.analyze_one(req);
        let warm_s = t0.elapsed().as_secs_f64();
        corpus_warm_s += warm_s;
        let a = res.outcome.as_ref().unwrap_or_else(|e| panic!("{id}: {e}"));
        let sig = pattern_signature(&a.result);
        if sig != *cold_sig {
            parity_mismatches += 1;
            eprintln!("PARITY MISMATCH (warm corpus) {id}:\n--- cold\n{cold_sig}--- warm\n{sig}");
        }
        rows.push(vec![
            id.clone(),
            if res.metrics.query_analyze_hit {
                "trace+find".into()
            } else if res.metrics.query_find_hit {
                "find".into()
            } else {
                "miss".into()
            },
            format!("{:.1}", warm_s * 1e3),
        ]);
    }
    let stats_warm = db.stats();
    let n_corpus = cold_sigs.len() as f64;
    let warm_hits = (stats_warm.trace.hits - stats_cold.trace.hits) as f64;
    let warm_hit_rate = warm_hits / n_corpus;
    println!(
        "{}",
        render_table(&["request", "warm replay", "warm ms"], &rows)
    );
    println!(
        "corpus: {:.0} requests, cold {:.2}s, warm {:.2}s, trace-stage hit rate {:.0}% \
         (gate: >= 80%)",
        n_corpus,
        corpus_cold_s,
        corpus_warm_s,
        100.0 * warm_hit_rate,
    );

    // Scenario 3: one-loop constant edits on ray-rot seq x16. Each
    // repeat uses a distinct same-length constant so the program hash
    // always changes (no trace-stage shortcut) while the DDG shape —
    // and the find-stage key — stays identical.
    let bench = starbench::benchmark(EDIT_BENCH).unwrap();
    let edits: Vec<String> = (0..repeats).map(|i| format!("* 0.8{i};")).collect();
    let edit_req = |edit: &str| AnalysisRequest {
        id: format!("{EDIT_BENCH}-edit"),
        program: compile(bench, Version::Seq, Some((EDIT_FROM, edit))),
        input: (bench.scaled_input)(EDIT_FACTOR),
        config: opts.config.clone(),
    };

    // Warm side: the shared store already knows the unedited program
    // from the corpus pass at factor 1; seed it at x16 too, then time
    // the edited replays.
    let seed = AnalysisRequest {
        id: format!("{EDIT_BENCH}-x{EDIT_FACTOR}-seed"),
        program: compile(bench, Version::Seq, None),
        input: (bench.scaled_input)(EDIT_FACTOR),
        config: opts.config.clone(),
    };
    let seed_res = engine.analyze_one(seed);
    seed_res
        .outcome
        .as_ref()
        .unwrap_or_else(|e| panic!("seed: {e}"));

    let mut warm_ms = Vec::new();
    let mut cold_ms = Vec::new();
    let mut edit_find_hits = 0usize;
    for edit in &edits {
        // Cold: a fresh store sees the edited program for the first time.
        let cold_db = full_db();
        let cold_engine = engine_on(&cold_db, opts.workers);
        let t0 = Instant::now();
        let cold = cold_engine.analyze_one(edit_req(edit));
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let cold_sig = pattern_signature(
            &cold
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("cold edit: {e}"))
                .result,
        );

        // Warm: the shared store replays everything below the re-trace.
        let t0 = Instant::now();
        let warm = engine.analyze_one(edit_req(edit));
        warm_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let a = warm
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("warm edit: {e}"));
        if warm.metrics.query_find_hit {
            edit_find_hits += 1;
        }
        eprintln!(
            "  edit {edit:?}: cold {:.0} ms (trace {:.0} find {:.0}) | warm {:.0} ms \
             (trace {:.0} find {:.0}, find_hit {})",
            cold_ms.last().unwrap(),
            cold.metrics.trace_time.as_secs_f64() * 1e3,
            cold.metrics.find_time.as_secs_f64() * 1e3,
            warm_ms.last().unwrap(),
            warm.metrics.trace_time.as_secs_f64() * 1e3,
            warm.metrics.find_time.as_secs_f64() * 1e3,
            warm.metrics.query_find_hit,
        );
        let warm_sig = pattern_signature(&a.result);
        if warm_sig != cold_sig {
            parity_mismatches += 1;
            eprintln!("PARITY MISMATCH (edit {edit:?}):\n--- cold\n{cold_sig}--- warm\n{warm_sig}");
        }
    }
    let cold_med = median(&mut cold_ms);
    let warm_med = median(&mut warm_ms);
    let speedup_edit = cold_med / warm_med.max(1e-9);
    println!(
        "one-loop edit ({EDIT_BENCH} seq x{EDIT_FACTOR}, {} edits): cold median {cold_med:.1} ms, \
         incremental median {warm_med:.1} ms — {speedup_edit:.2}x (gate: >= 5x); \
         {edit_find_hits}/{} edits replayed the find stage",
        edits.len(),
        edits.len(),
    );
    println!("parity mismatches: {parity_mismatches} (gate: 0)");

    let stats = db.stats();
    let mut report = obs_report("incr", &opts, &engine);
    report.meta_num("speedup_edit", speedup_edit);
    report.meta_num("warm_hit_rate", warm_hit_rate);
    report.meta_num("parity_mismatches", parity_mismatches as f64);
    report.meta_num("edit_cold_ms", cold_med);
    report.meta_num("edit_warm_ms", warm_med);
    report.meta_num("edit_find_hits", edit_find_hits as f64);
    report.meta_num("edit_repeats", edits.len() as f64);
    report.meta_num("corpus_requests", n_corpus);
    report.meta_num("corpus_cold_s", corpus_cold_s);
    report.meta_num("corpus_warm_s", corpus_warm_s);
    report.section("query", &stats);
    match report.write(std::path::Path::new("BENCH_incr.json")) {
        Ok(()) => eprintln!("(incremental report written to BENCH_incr.json)"),
        Err(e) => eprintln!("cannot write BENCH_incr.json: {e}"),
    }
    export_obs(&opts, &report);
    if parity_mismatches > 0 {
        std::process::exit(1);
    }
}
