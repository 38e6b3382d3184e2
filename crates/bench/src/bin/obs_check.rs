//! CI gate for the observability artefacts: validates a Chrome trace and
//! a metrics JSON produced by `--trace-out` / `--metrics-json`.
//!
//! ```sh
//! obs_check <trace.json> <metrics.json> [required-section ...] [--counter <name> ...]
//! obs_check --fig7 <BENCH_fig7.json> [--max-slope 1.05]
//! obs_check --incr <BENCH_incr.json> [--min-speedup 5] [--min-hit-rate 0.8]
//! obs_check --serve <BENCH_serve.json> [--max-p99-ms <ms>]
//! obs_check --chaos <BENCH_chaos.json> [--max-p99-ms <ms>] [--min-requests <n>]
//! obs_check --slo <report.json> [--max-burn 1.0]
//! obs_check --prom <scrape.txt> [required-name ...]
//! ```
//!
//! The trace must parse, contain events, and have balanced begin/end
//! pairs on every thread; the metrics document must carry the
//! `meta`/`counters`/`gauges`/`histograms`/`sections` keys plus every
//! required section (default: `engine`). Each `--counter <name>` asserts
//! that the named registry counter appears in the metrics document — CI
//! uses this to prove an instrumented run actually exercised an
//! instrumentation site. Exits nonzero with a message on the first
//! violation.
//!
//! `--fig7` gates the Fig. 7 scaling report instead: the numeric meta
//! fields (including the per-phase `slope_*` fits) must be JSON numbers
//! (not stringified), `factors` must be a JSON array, and none of the
//! total log-log slope of analysis time vs DDG size, the matching,
//! simplify, or trace phase's slope may exceed `--max-slope` (default
//! 1.05 — superlinear extraction, matching, simplification, or tracing
//! regressions fail CI here).
//!
//! `--incr` gates the `repro-incr` report's query-layer reuse: warm
//! edit replays against cold, the trace-stage hit rate, find-stage
//! replays and byte parity. `--serve` gates a `repro-loadgen` report:
//! every request answered with a labeled status, zero lost workers,
//! zero protocol errors and a bounded p99. `--chaos` gates a
//! `repro-chaos` report: every fault class fired, no request was lost,
//! every killed worker was respawned, the breaker opened, and every
//! request is accounted as answered or breaker-skipped.
//!
//! `--slo <report> [--max-burn <b>]` gates the SLO burn rates a load or
//! chaos run recorded into its report's meta (`slo_short_burn`,
//! `slo_long_burn`): both must be finite and at most `--max-burn`
//! (default 1.0 — burning the error budget faster than it refills fails
//! CI). `--prom <file> [required-name ...]` validates a scraped
//! Prometheus text exposition and asserts each required metric family
//! is present.

use obs::json::{parse, Json};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--fig7") {
        fig7_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--incr") {
        incr_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--serve") {
        serve_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--chaos") {
        chaos_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--slo") {
        slo_gate(&args[1..]);
        return;
    }
    if args.first().map(String::as_str) == Some("--prom") {
        prom_gate(&args[1..]);
        return;
    }
    let (trace_path, metrics_path) = match (args.first(), args.get(1)) {
        (Some(t), Some(m)) => (t, m),
        _ => {
            eprintln!("usage: obs_check <trace.json> <metrics.json> [required-section ...]");
            eprintln!("       obs_check --fig7 <BENCH_fig7.json> [--max-slope <s>]");
            eprintln!(
                "       obs_check --incr <BENCH_incr.json> [--min-speedup <x>] [--min-hit-rate <r>]"
            );
            eprintln!("       obs_check --serve <BENCH_serve.json> [--max-p99-ms <ms>]");
            eprintln!("       obs_check --chaos <BENCH_chaos.json> [--max-p99-ms <ms>] [--min-requests <n>]");
            eprintln!("       obs_check --slo <report.json> [--max-burn <b>]");
            eprintln!("       obs_check --prom <scrape.txt> [required-name ...]");
            exit(2);
        }
    };
    // Trailing args: `--counter <name>` pairs assert registry counters;
    // everything else names a required section.
    let mut sections: Vec<&str> = Vec::new();
    let mut counters: Vec<&str> = Vec::new();
    let mut rest = args[2..].iter();
    while let Some(a) = rest.next() {
        if a == "--counter" {
            match rest.next() {
                Some(name) => counters.push(name),
                None => {
                    eprintln!("missing value for --counter");
                    exit(2);
                }
            }
        } else {
            sections.push(a);
        }
    }
    if sections.is_empty() {
        sections.push("engine");
    }

    let trace = read(trace_path);
    let summary = obs::validate_chrome_trace(&trace).unwrap_or_else(|e| {
        eprintln!("obs_check: {trace_path}: {e}");
        exit(1);
    });
    if summary.events == 0 {
        eprintln!("obs_check: {trace_path}: trace contains no events");
        exit(1);
    }
    if summary.begins != summary.ends {
        eprintln!(
            "obs_check: {trace_path}: {} begin events vs {} end events",
            summary.begins, summary.ends
        );
        exit(1);
    }

    let metrics = read(metrics_path);
    if let Err(e) = obs::validate_metrics_json(&metrics, &sections) {
        eprintln!("obs_check: {metrics_path}: {e}");
        exit(1);
    }
    if !counters.is_empty() {
        let doc = parse(&metrics).unwrap_or_else(|e| {
            eprintln!("obs_check: {metrics_path}: {e}");
            exit(1);
        });
        let registered: Vec<String> = match doc.get("counters") {
            Some(Json::Arr(items)) => items
                .iter()
                .filter_map(|c| match c.get("name") {
                    Some(Json::Str(s)) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            _ => Vec::new(),
        };
        for want in &counters {
            if !registered.iter().any(|name| name == want) {
                eprintln!(
                    "obs_check: {metrics_path}: required counter {want:?} not in the \
                     metrics registry — the instrumented run never reached its site"
                );
                exit(1);
            }
        }
    }

    println!(
        "obs_check: OK — {} events ({} spans, {} instants) on {} threads; \
         metrics sections {sections:?} present, counters {counters:?} present",
        summary.events, summary.begins, summary.instants, summary.threads
    );
}

/// The Fig. 7 scaling gate: `--fig7 <report> [--max-slope <s>]`.
fn fig7_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!("usage: obs_check --fig7 <BENCH_fig7.json> [--max-slope <s>]");
        exit(2);
    });
    let mut max_slope = 1.05f64;
    if let Some(i) = args.iter().position(|a| a == "--max-slope") {
        let v = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for --max-slope");
            exit(2);
        });
        max_slope = v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --max-slope: got {v:?}");
            exit(2);
        });
    }

    let doc = parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    let meta = doc.get("meta").unwrap_or_else(|| {
        eprintln!("obs_check: {path}: report has no \"meta\" object");
        exit(1);
    });

    // Typed-meta regression guard: run parameters and fit results must
    // be real JSON numbers, not stringified ("1.138").
    for key in [
        "workers",
        "budget_ms",
        "loglog_slope",
        "slope_matching",
        "slope_simplify",
        "slope_decompose",
        "slope_trace",
        "avg_reduction",
    ] {
        match meta.get(key) {
            Some(Json::Num(_)) => {}
            Some(Json::Str(s)) => {
                eprintln!("obs_check: {path}: meta.{key} is a JSON string ({s:?}), not a number");
                exit(1);
            }
            other => {
                eprintln!("obs_check: {path}: meta.{key} missing or non-numeric ({other:?})");
                exit(1);
            }
        }
    }
    match meta.get("factors") {
        Some(Json::Arr(_)) => {}
        other => {
            eprintln!("obs_check: {path}: meta.factors is not a JSON array ({other:?})");
            exit(1);
        }
    }

    let slope = meta.get("loglog_slope").and_then(Json::as_f64).unwrap();
    if !slope.is_finite() || slope > max_slope {
        eprintln!(
            "obs_check: {path}: log-log slope {slope:.3} exceeds {max_slope} — \
             pattern-finding time is growing superlinearly in DDG size"
        );
        exit(1);
    }
    // Per-phase gate: matching must scale linearly on its own, not just
    // hide inside a total dominated by tracing.
    let matching = meta.get("slope_matching").and_then(Json::as_f64).unwrap();
    if !matching.is_finite() || matching > max_slope {
        eprintln!(
            "obs_check: {path}: matching-phase slope {matching:.3} exceeds {max_slope} — \
             the match phase is growing superlinearly in DDG size"
        );
        exit(1);
    }
    // Simplification too: the worklist rewrite made it linear; a
    // superlinear regression here re-trips the very bug it fixed.
    let simplify = meta.get("slope_simplify").and_then(Json::as_f64).unwrap();
    if !simplify.is_finite() || simplify > max_slope {
        eprintln!(
            "obs_check: {path}: simplify-phase slope {simplify:.3} exceeds {max_slope} — \
             the simplify phase is growing superlinearly in DDG size"
        );
        exit(1);
    }
    // Tracing too: the machine emits one node per traced operation, so
    // a superlinear trace slope means per-step cost grows with the run.
    let trace = meta.get("slope_trace").and_then(Json::as_f64).unwrap();
    if !trace.is_finite() || trace > max_slope {
        eprintln!(
            "obs_check: {path}: trace-phase slope {trace:.3} exceeds {max_slope} — \
             tracing is growing superlinearly in DDG size"
        );
        exit(1);
    }
    println!(
        "obs_check: OK — fig7 log-log slope {slope:.3}, matching slope {matching:.3}, \
         simplify slope {simplify:.3}, trace slope {trace:.3} <= {max_slope}, meta fields typed"
    );
}

/// The incremental-analysis gate: `--incr <BENCH_incr.json>
/// [--min-speedup <x>] [--min-hit-rate <r>]`.
///
/// Gates the query layer's reuse promises (DESIGN.md §18) on the
/// `repro-incr` report: replaying a one-loop constant edit against a
/// warmed store must be at least `--min-speedup` (default 5) times
/// faster than the same edit cold, the warm full-corpus trace-stage
/// hit rate must reach `--min-hit-rate` (default 0.8), every edit
/// replay must have come from a find-stage hit (not a silently-fast
/// fresh analysis), and replayed results must be byte-identical to
/// their cold baselines (`parity_mismatches` = 0).
fn incr_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!(
            "usage: obs_check --incr <BENCH_incr.json> [--min-speedup <x>] [--min-hit-rate <r>]"
        );
        exit(2);
    });
    let flag_val = |name: &str, default: f64| -> f64 {
        match args.iter().position(|a| a == name) {
            None => default,
            Some(i) => {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    exit(2);
                });
                v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for {name}: got {v:?}");
                    exit(2);
                })
            }
        }
    };
    let min_speedup = flag_val("--min-speedup", 5.0);
    let min_hit_rate = flag_val("--min-hit-rate", 0.8);

    let doc = parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    let meta = doc.get("meta").unwrap_or_else(|| {
        eprintln!("obs_check: {path}: report has no \"meta\" object");
        exit(1);
    });
    let require_num = |key: &str| -> f64 {
        match meta.get(key) {
            Some(Json::Num(n)) => *n,
            other => {
                eprintln!("obs_check: {path}: meta.{key} missing or non-numeric ({other:?})");
                exit(1);
            }
        }
    };

    let mismatches = require_num("parity_mismatches");
    if mismatches != 0.0 {
        eprintln!(
            "obs_check: {path}: {mismatches:.0} parity mismatches — a replayed result \
             differed from the cold analysis; the memo layer is returning wrong answers"
        );
        exit(1);
    }
    let hit_rate = require_num("warm_hit_rate");
    if !hit_rate.is_finite() || hit_rate < min_hit_rate {
        eprintln!(
            "obs_check: {path}: warm corpus trace-stage hit rate {:.0}% is below {:.0}% — \
             repeated requests are not being answered from the store",
            100.0 * hit_rate,
            100.0 * min_hit_rate,
        );
        exit(1);
    }
    let find_hits = require_num("edit_find_hits");
    let repeats = require_num("edit_repeats");
    if find_hits < repeats {
        eprintln!(
            "obs_check: {path}: only {find_hits:.0}/{repeats:.0} edit replays hit the find \
             stage — edited programs are being fully re-analyzed"
        );
        exit(1);
    }
    let speedup = require_num("speedup_edit");
    if !speedup.is_finite() || speedup < min_speedup {
        eprintln!(
            "obs_check: {path}: one-loop-edit speedup {speedup:.2}x is below {min_speedup}x \
             (cold {:.1} ms vs warm {:.1} ms) — incremental replay is not paying for itself",
            require_num("edit_cold_ms"),
            require_num("edit_warm_ms"),
        );
        exit(1);
    }
    println!(
        "obs_check: OK — incr: edit speedup {speedup:.2}x >= {min_speedup}x, warm hit rate \
         {:.0}% >= {:.0}%, {find_hits:.0}/{repeats:.0} find-stage replays, 0 parity mismatches",
        100.0 * hit_rate,
        100.0 * min_hit_rate,
    );
}

/// The serving load gate: `--serve <report> [--max-p99-ms <ms>]`.
///
/// Checks the invariants the daemon promises under load: every request
/// answered with a labeled status (full accounting, zero protocol
/// errors), zero lost workers, a bounded p99, and cache counters
/// present for trend tracking.
fn serve_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!("usage: obs_check --serve <BENCH_serve.json> [--max-p99-ms <ms>]");
        exit(2);
    });
    let mut max_p99_ms = 60_000.0f64;
    if let Some(i) = args.iter().position(|a| a == "--max-p99-ms") {
        let v = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for --max-p99-ms");
            exit(2);
        });
        max_p99_ms = v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --max-p99-ms: got {v:?}");
            exit(2);
        });
    }

    let doc = parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    let meta = doc.get("meta").unwrap_or_else(|| {
        eprintln!("obs_check: {path}: report has no \"meta\" object");
        exit(1);
    });
    let require_num = |key: &str| -> f64 {
        match meta.get(key) {
            Some(Json::Num(n)) => *n,
            other => {
                eprintln!("obs_check: {path}: meta.{key} missing or non-numeric ({other:?})");
                exit(1);
            }
        }
    };

    let requests = require_num("requests");
    if requests < 1.0 {
        eprintln!("obs_check: {path}: the load run made no requests");
        exit(1);
    }
    // Zero-loss invariants: nothing crashed, nothing went unanswered.
    for key in ["worker_lost", "internal_errors", "protocol_errors"] {
        let v = require_num(key);
        if v != 0.0 {
            eprintln!("obs_check: {path}: meta.{key} = {v} — the load run must be loss-free");
            exit(1);
        }
    }
    // Full accounting: every request resolved to exactly one labeled
    // outcome (rejections are outcomes; hangs and drops are not).
    let answered = require_num("answered");
    let accounted = require_num("ok")
        + require_num("overloaded")
        + require_num("quota")
        + require_num("trace_errors")
        + require_num("bad_requests");
    if answered != requests || accounted != requests {
        eprintln!(
            "obs_check: {path}: accounting leak — {requests} requests, {answered} answered, \
             {accounted} across status labels"
        );
        exit(1);
    }
    let p99 = require_num("p99_ms");
    if !p99.is_finite() || p99 > max_p99_ms {
        eprintln!("obs_check: {path}: p99 latency {p99:.1} ms exceeds {max_p99_ms} ms");
        exit(1);
    }
    let hit_rate = require_num("cache_hit_rate");
    if !(0.0..=1.0).contains(&hit_rate) {
        eprintln!("obs_check: {path}: cache_hit_rate {hit_rate} outside [0, 1]");
        exit(1);
    }
    let evictions = require_num("cache_evictions");
    require_num("throughput_rps");
    require_num("p50_ms");
    println!(
        "obs_check: OK — serve load: {requests} requests fully accounted, zero loss, \
         p99 {p99:.1} ms <= {max_p99_ms} ms, cache hit rate {:.1}% ({evictions} evictions)",
        hit_rate * 100.0
    );
}

/// The chaos gate: `--chaos <report> [--max-p99-ms <ms>] [--min-requests <n>]`.
///
/// Gates the invariants a seeded chaos run must uphold: the run was
/// big enough, every fault class actually fired (a chaos run that
/// injected nothing proves nothing), zero requests were lost, every
/// killed worker was respawned, the breaker opened, and every request
/// is accounted as answered or breaker-skipped.
fn chaos_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!(
            "usage: obs_check --chaos <BENCH_chaos.json> [--max-p99-ms <ms>] [--min-requests <n>]"
        );
        exit(2);
    });
    let flag_val = |name: &str, default: f64| -> f64 {
        match args.iter().position(|a| a == name) {
            None => default,
            Some(i) => {
                let v = args.get(i + 1).unwrap_or_else(|| {
                    eprintln!("missing value for {name}");
                    exit(2);
                });
                v.parse().unwrap_or_else(|_| {
                    eprintln!("invalid value for {name}: got {v:?}");
                    exit(2);
                })
            }
        }
    };
    let max_p99_ms = flag_val("--max-p99-ms", 60_000.0);
    let min_requests = flag_val("--min-requests", 300.0);

    let doc = parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    let meta = doc.get("meta").unwrap_or_else(|| {
        eprintln!("obs_check: {path}: report has no \"meta\" object");
        exit(1);
    });
    let require_num = |key: &str| -> f64 {
        match meta.get(key) {
            Some(Json::Num(n)) => *n,
            other => {
                eprintln!("obs_check: {path}: meta.{key} missing or non-numeric ({other:?})");
                exit(1);
            }
        }
    };

    let requests = require_num("requests");
    if requests < min_requests {
        eprintln!(
            "obs_check: {path}: only {requests} requests under chaos (need >= {min_requests})"
        );
        exit(1);
    }
    // The run must have actually injected every fault class — a calm
    // "chaos" run that exercised nothing must not pass as proof.
    for (key, min) in [
        ("worker_kills", 2.0),
        ("worker_stalls", 1.0),
        ("torn_writes", 1.0),
        ("read_delays", 1.0),
        ("disconnects", 1.0),
        ("quota_skews", 1.0),
        ("slow_loris", 1.0),
        ("oversized_answered", 1.0),
        ("shed", 1.0),
        ("breaker_opens", 1.0),
    ] {
        let v = require_num(key);
        if v < min {
            eprintln!(
                "obs_check: {path}: meta.{key} = {v} (need >= {min}) — \
                 this fault class never fired, the chaos run proves nothing about it"
            );
            exit(1);
        }
    }
    // The invariants chaos must not break.
    let lost = require_num("lost");
    if lost != 0.0 {
        eprintln!("obs_check: {path}: {lost} requests LOST under chaos — answers were dropped");
        exit(1);
    }
    let kills = require_num("worker_kills");
    let respawned = require_num("workers_respawned");
    if respawned < kills {
        eprintln!(
            "obs_check: {path}: {kills} workers killed but only {respawned} respawned — \
             the watchdog failed to restore capacity"
        );
        exit(1);
    }
    for key in ["internal_errors", "worker_lost"] {
        let v = require_num(key);
        if v != 0.0 {
            eprintln!("obs_check: {path}: meta.{key} = {v} — chaos leaked into request errors");
            exit(1);
        }
    }
    let answered = require_num("answered");
    let skipped = require_num("breaker_skipped");
    if answered + skipped != requests {
        eprintln!(
            "obs_check: {path}: accounting leak — {requests} requests, {answered} answered \
             + {skipped} breaker-skipped"
        );
        exit(1);
    }
    let p99 = require_num("p99_ms");
    if !p99.is_finite() || p99 > max_p99_ms {
        eprintln!("obs_check: {path}: p99 latency under chaos {p99:.1} ms exceeds {max_p99_ms} ms");
        exit(1);
    }
    // The telemetry plane must have witnessed the whole run: every sent
    // request id reconstructable from the flight recorder, and the
    // on-demand blackbox dump non-empty.
    if require_num("trail_complete") != 1.0 {
        let incomplete = require_num("trail_incomplete");
        eprintln!(
            "obs_check: {path}: {incomplete} request ids are not reconstructable from the \
             flight recorder — faults left gaps in the event trail"
        );
        exit(1);
    }
    let blackbox_events = require_num("blackbox_events");
    if blackbox_events < 1.0 {
        eprintln!("obs_check: {path}: blackbox dump is missing or empty");
        exit(1);
    }
    let ids_sent = require_num("ids_sent");
    println!(
        "obs_check: OK — chaos: {requests} requests, 0 lost ({answered} answered + {skipped} \
         breaker-skipped), {kills} kills all respawned ({respawned}), p99 {p99:.1} ms <= {max_p99_ms} ms, \
         {ids_sent} request trails complete, blackbox {blackbox_events} events"
    );
}

/// The SLO burn-rate gate: `--slo <report> [--max-burn <b>]`.
///
/// Reads the `slo_*` meta a load or chaos run copied out of the
/// daemon's `stats`, and fails if either burn rate exceeds the cap. A
/// report with zero SLO-eligible outcomes fails too: a gate that never
/// measured anything proves nothing.
fn slo_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!("usage: obs_check --slo <report.json> [--max-burn <b>]");
        exit(2);
    });
    let mut max_burn = 1.0f64;
    if let Some(i) = args.iter().position(|a| a == "--max-burn") {
        let v = args.get(i + 1).unwrap_or_else(|| {
            eprintln!("missing value for --max-burn");
            exit(2);
        });
        max_burn = v.parse().unwrap_or_else(|_| {
            eprintln!("invalid value for --max-burn: got {v:?}");
            exit(2);
        });
    }

    let doc = parse(&read(path)).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    let meta = doc.get("meta").unwrap_or_else(|| {
        eprintln!("obs_check: {path}: report has no \"meta\" object");
        exit(1);
    });
    let require_num = |key: &str| -> f64 {
        match meta.get(key) {
            Some(Json::Num(n)) => *n,
            other => {
                eprintln!("obs_check: {path}: meta.{key} missing or non-numeric ({other:?})");
                exit(1);
            }
        }
    };

    let total = require_num("slo_total");
    if total < 1.0 {
        eprintln!(
            "obs_check: {path}: slo_total = {total} — the run recorded no SLO-eligible \
             outcomes, the burn gate measured nothing"
        );
        exit(1);
    }
    let short_burn = require_num("slo_short_burn");
    let long_burn = require_num("slo_long_burn");
    for (name, burn) in [("short", short_burn), ("long", long_burn)] {
        if !burn.is_finite() || burn > max_burn {
            eprintln!(
                "obs_check: {path}: {name}-window burn rate {burn:.3} exceeds {max_burn} — \
                 the error budget is being consumed faster than allowed"
            );
            exit(1);
        }
    }
    println!(
        "obs_check: OK — slo: {total} outcomes ({} good, {} bad), short burn {short_burn:.3}, \
         long burn {long_burn:.3} <= {max_burn}",
        require_num("slo_good"),
        require_num("slo_bad"),
    );
}

/// The Prometheus scrape gate: `--prom <scrape.txt> [required-name ...]`.
fn prom_gate(args: &[String]) {
    let path = args.first().unwrap_or_else(|| {
        eprintln!("usage: obs_check --prom <scrape.txt> [required-name ...]");
        exit(2);
    });
    let text = read(path);
    let summary = obs::validate_prometheus_text(&text).unwrap_or_else(|e| {
        eprintln!("obs_check: {path}: {e}");
        exit(1);
    });
    if summary.samples == 0 {
        eprintln!("obs_check: {path}: the scrape contains no samples");
        exit(1);
    }
    for want in &args[1..] {
        if !summary.families.iter().any(|f| f == want) {
            eprintln!(
                "obs_check: {path}: required metric family {want:?} not in the scrape \
                 (families: {:?})",
                summary.families
            );
            exit(1);
        }
    }
    println!(
        "obs_check: OK — prometheus: {} families, {} samples, required {:?} present",
        summary.families.len(),
        summary.samples,
        &args[1..]
    );
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("obs_check: cannot read {path}: {e}");
        exit(1);
    })
}
