//! Regenerates paper Fig. 7: pattern-finding time by DDG size, plus the
//! §5/§6.2 companion statistics — the simplification reduction factor
//! (paper: 3.82× average), the phase-time breakdown (paper: tracing ≈ 1%,
//! matching ≈ 48%, other phases ≈ 51%), and the Pthreads-vs-sequential
//! DDG size and time deltas (paper: +15% size, +28% time).
//!
//! The whole benchmark × version × factor series runs as one batch on
//! the `repro-engine` work-stealing engine; per-point timings come from
//! the engine's per-request metrics. `--workers <n>` sizes the match
//! pool, `--budget-ms <ms>` caps each solver run, and
//! `--deadline-ms <ms>` bounds each request wall-clock (expired runs
//! report best-so-far patterns, flagged degraded).

use repro_bench::{
    cli, engine, export_obs, obs_report, parse_or_exit, print_engine_metrics, render_table,
    write_record,
};
use repro_engine::AnalysisRequest;
use serde::Serialize;
use starbench::{all_benchmarks, Version};

#[derive(Serialize)]
struct Point {
    benchmark: String,
    version: String,
    factor: usize,
    ddg_nodes: usize,
    trace_seconds: f64,
    find_seconds: f64,
    reduction: f64,
    /// Per-phase wall times (fractional ms) — the Fig. 7 breakdown.
    phases: discovery::PhaseTimes,
}

fn main() {
    let opts = cli();
    let factors = parse_factors(&opts.positional);
    println!("Fig. 7: pattern finding time by DDG size (scale factors {factors:?}).\n");

    // One request per (benchmark, version, factor); the engine overlaps
    // tracing and matching across the whole series.
    let mut meta = Vec::new();
    let mut requests = Vec::new();
    for bench in all_benchmarks() {
        for version in Version::BOTH {
            for &factor in &factors {
                meta.push((bench.name, version.name(), factor));
                requests.push(AnalysisRequest {
                    id: format!("{}-{}-x{factor}", bench.name, version.name()),
                    program: bench.program(version),
                    input: (bench.scaled_input)(factor),
                    config: opts.config.clone(),
                });
            }
        }
    }
    let eng = engine(opts.workers);
    eprintln!("... analyzing {} runs", requests.len());
    let results = eng.analyze_all(requests);

    let mut points: Vec<Point> = Vec::new();
    let mut rows = Vec::new();
    let mut reductions = Vec::new();
    let mut phase = (0.0f64, 0.0f64, 0.0f64); // trace, match, other

    for (&(name, version, factor), res) in meta.iter().zip(&results) {
        let analysis = res
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{name} {version} x{factor}: {e}"));
        let result = &analysis.result;
        let trace_s = res.metrics.trace_time.as_secs_f64();
        let find_s = res.metrics.find_time.as_secs_f64();
        let t = &result.phase_times;
        phase.0 += trace_s;
        phase.1 += t.matching.as_secs_f64();
        phase.2 += t.simplify.as_secs_f64()
            + t.decompose.as_secs_f64()
            + t.combine.as_secs_f64()
            + t.merge.as_secs_f64();
        reductions.push(result.simplify_stats.reduction());
        rows.push(vec![
            name.to_string(),
            version.to_string(),
            factor.to_string(),
            result.ddg_size.to_string(),
            format!("{:.4}", trace_s),
            format!("{:.4}", find_s),
        ]);
        points.push(Point {
            benchmark: name.to_string(),
            version: version.to_string(),
            factor,
            ddg_nodes: result.ddg_size,
            trace_seconds: trace_s,
            find_seconds: find_s,
            reduction: result.simplify_stats.reduction(),
            phases: result.phase_times,
        });
    }

    println!(
        "{}",
        render_table(
            &[
                "benchmark",
                "version",
                "factor",
                "DDG nodes",
                "trace (s)",
                "find (s)"
            ],
            &rows
        )
    );

    // Scaling check: the paper reports linear scaling. Fit the log-log
    // slope of total time vs size over the scaled series.
    let sizes: Vec<f64> = points.iter().map(|p| p.ddg_nodes as f64).collect();
    let slope = loglog_slope(
        &sizes,
        &points
            .iter()
            .map(|p| (p.trace_seconds + p.find_seconds).max(1e-6))
            .collect::<Vec<_>>(),
    );
    println!("log-log slope of time vs DDG size: {slope:.2} (1.0 = linear; paper: linear)");

    // Per-phase slopes: a phase hiding a quadratic term shows up here
    // long before it dominates the total. Near-zero small-end times are
    // floored at 1 µs so the fit stays finite.
    let phase_slope = |time_s: fn(&discovery::PhaseTimes) -> f64| {
        loglog_slope(
            &sizes,
            &points
                .iter()
                .map(|p| time_s(&p.phases).max(1e-6))
                .collect::<Vec<_>>(),
        )
    };
    let slope_matching = phase_slope(|t| t.matching.as_secs_f64());
    let slope_simplify = phase_slope(|t| t.simplify.as_secs_f64());
    let slope_decompose = phase_slope(|t| t.decompose.as_secs_f64());
    let slope_trace = loglog_slope(
        &sizes,
        &points
            .iter()
            .map(|p| p.trace_seconds.max(1e-6))
            .collect::<Vec<_>>(),
    );
    println!(
        "per-phase slopes: matching {slope_matching:.2}, simplify {slope_simplify:.2}, \
         decompose {slope_decompose:.2}, trace {slope_trace:.2}"
    );

    let avg_red: f64 = reductions.iter().sum::<f64>() / reductions.len() as f64;
    println!("simplification reduces DDGs by {avg_red:.2}x on average (paper: 3.82x)");

    let total = phase.0 + phase.1 + phase.2;
    println!(
        "phase breakdown: tracing {:.0}%, matching {:.0}%, other finder phases {:.0}% \
         (paper: 1% / 48% / 51%)",
        100.0 * phase.0 / total,
        100.0 * phase.1 / total,
        100.0 * phase.2 / total,
    );

    // Pthreads vs sequential deltas at the largest factor.
    let last = *factors.last().unwrap();
    let (mut size_ratio, mut time_ratio, mut n) = (0.0, 0.0, 0);
    for bench in all_benchmarks() {
        let seq = points
            .iter()
            .find(|p| p.benchmark == bench.name && p.version == "seq" && p.factor == last)
            .unwrap();
        let pthr = points
            .iter()
            .find(|p| p.benchmark == bench.name && p.version == "pthreads" && p.factor == last)
            .unwrap();
        size_ratio += pthr.ddg_nodes as f64 / seq.ddg_nodes as f64;
        time_ratio += (pthr.trace_seconds + pthr.find_seconds).max(1e-6)
            / (seq.trace_seconds + seq.find_seconds).max(1e-6);
        n += 1;
    }
    println!(
        "Pthreads DDGs are {:.0}% larger and {:.0}% slower to analyze than sequential \
         (paper: +15% size, +28% time)",
        100.0 * (size_ratio / n as f64 - 1.0),
        100.0 * (time_ratio / n as f64 - 1.0),
    );
    print_engine_metrics(&eng);

    write_record("fig7", &points);

    // The repo's perf-trajectory seed: the full per-point phase breakdown
    // plus engine counters, written unconditionally as one ObsReport.
    let mut report = obs_report("fig7", &opts, &eng);
    report.meta_raw(
        "factors",
        format!(
            "[{}]",
            factors
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join(",")
        ),
    );
    report.meta_num("loglog_slope", slope);
    report.meta_num("slope_matching", slope_matching);
    report.meta_num("slope_simplify", slope_simplify);
    report.meta_num("slope_decompose", slope_decompose);
    report.meta_num("slope_trace", slope_trace);
    report.meta_num("avg_reduction", avg_red);
    report.section("points", &points);
    match report.write(std::path::Path::new("BENCH_fig7.json")) {
        Ok(()) => eprintln!("(phase breakdown written to BENCH_fig7.json)"),
        Err(e) => eprintln!("cannot write BENCH_fig7.json: {e}"),
    }
    export_obs(&opts, &report);
}

/// Scale factors from `--factors 1,4,16` (also accepted as a bare
/// positional comma list). Bad components exit 2 with the offending
/// value named rather than panicking.
fn parse_factors(positional: &[String]) -> Vec<usize> {
    let spec = positional
        .iter()
        .position(|a| a == "--factors")
        .map(|i| {
            positional.get(i + 1).cloned().unwrap_or_else(|| {
                eprintln!("missing value for --factors");
                std::process::exit(2);
            })
        })
        .or_else(|| positional.iter().find(|a| !a.starts_with("--")).cloned());
    match spec {
        Some(list) => list
            .split(',')
            .map(|x| parse_or_exit("--factors", x.trim()))
            .collect(),
        None => vec![1, 4, 16, 64],
    }
}

/// Least-squares slope of ln(y) over ln(x).
fn loglog_slope(x: &[f64], y: &[f64]) -> f64 {
    let lx: Vec<f64> = x.iter().map(|v| v.ln()).collect();
    let ly: Vec<f64> = y.iter().map(|v| v.ln()).collect();
    let n = lx.len() as f64;
    let (sx, sy) = (lx.iter().sum::<f64>(), ly.iter().sum::<f64>());
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    let sxx: f64 = lx.iter().map(|a| a * a).sum();
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}
