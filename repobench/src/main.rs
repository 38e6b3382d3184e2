//! The repository benchmark: one command, three workloads, every
//! end-to-end metric with its unit and sample count, correctness checks
//! on every output, and — in a separate traced run — a per-layer cost
//! ledger measured from outside the system.
//!
//! ```text
//! repobench --workload cold-batch|edit-session|serve-open --seed N \
//!           --seconds S --trace 0|1 [--serve-bin PATH]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is
//! non-zero when any output was wrong or the run was invalid.

mod cold;
mod edit;
mod gen;
mod layers;
mod ledger;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, `(name, unit)`; reported by every workload.
/// Each workload's meaning is printed with the report (see
/// `predictions.json`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
];

/// Per-layer metrics, `(name, unit)`, named after the crates they
/// measure. A layer a workload bypasses (or cannot be observed from
/// outside on that workload) reads 0.
pub const PER_LAYER: [(&str, &str); 46] = [
    ("trace.run_ms", "ms"),
    ("trace.ns_per_step", "ns"),
    ("trace.ddg_nodes", "count"),
    ("trace.probe_ms_p50", "ms"),
    ("core.simplify_ms", "ms"),
    ("core.simplify_reduction", "ratio"),
    ("core.decompose_ms", "ms"),
    ("core.subddgs", "count"),
    ("core.match_ms", "ms"),
    ("core.match_us_per_subddg", "us"),
    ("core.iterations", "count"),
    ("core.matches_exhausted", "count"),
    ("core.combine_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.reach_nodes_visited", "count"),
    ("share.trace", "ratio"),
    ("share.match", "ratio"),
    ("share.other", "ratio"),
    ("engine.request_ms_p50", "ms"),
    ("engine.unattributed_ms", "ms"),
    ("engine.match_cache_hit_rate", "ratio"),
    ("pool.jobs_executed", "count"),
    ("pool.jobs_stolen", "count"),
    ("pool.peak_queue_depth", "count"),
    ("query.trace_hit_rate", "ratio"),
    ("query.exec_hit_rate", "ratio"),
    ("query.find_hit_rate", "ratio"),
    ("query.subddg_hit_rate", "ratio"),
    ("query.evictions", "count"),
    ("query.store_bytes", "bytes"),
    ("query.insert_ms", "ms"),
    ("minc.compile_ms_p50", "ms"),
    ("minc.fnir_hit_rate", "ratio"),
    ("serve.wait_ms_p50", "ms"),
    ("serve.wait_ms_p99", "ms"),
    ("serve.compute_ms_p50", "ms"),
    ("serve.coalesced_share", "ratio"),
    ("serve.query_hit_share", "ratio"),
    ("serve.overloaded_share", "ratio"),
    ("serve.send_lag_ms_p99", "ms"),
    ("serve.latency_ms_p99", "ms"),
    ("serve.max_rps", "1/s"),
    ("unattributed_ms", "ms"),
    ("trace_overhead_share", "ratio"),
    ("threads.engine_workers", "count"),
    ("threads.connections", "count"),
];

/// The prediction table: why each workload exists, which layers it loads
/// and bypasses, and which end-to-end metric each layer metric moves.
pub const PREDICTIONS: &str = include_str!("../predictions.json");

/// Worker threads of the system under test, in-process and in the
/// daemon. One, not one per hardware thread: on a 2-thread host a second
/// worker competes with the load generator and the host's other work,
/// and the run-to-run spread then exceeds the benchmark's bounds.
pub const WORKERS: usize = 1;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run measured something other than the system (a late
    /// load generator); an invalid run is reported, never scored.
    pub invalid: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts one attempted operation, failed when `check` is an error.
    pub fn check(&mut self, what: &str, check: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = check {
            self.failed += 1;
            if self.failed <= 10 {
                println!("FAILED {what}: {e}");
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Peak resident set of a process (`self` or a pid), in MiB.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: repobench --workload cold-batch|edit-session|serve-open --seed N \
         --seconds S --trace 0|1 [--serve-bin PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut serve_bin = PathBuf::from("target/release/repro-serve");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            usage(&format!("missing value for {flag}"))
        };
        let bad = |flag: &str, value: &str| -> ! {
            usage(&format!("invalid value for {flag}: got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--seconds" => seconds = value.parse().unwrap_or_else(|_| bad(&flag, &value)),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => bad(&flag, &value),
                }
            }
            "--serve-bin" => serve_bin = PathBuf::from(&value),
            _ => usage(&format!("unknown flag {flag}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !(seconds > 0.0) {
        usage("--seconds must be positive");
    }
    Args {
        workload,
        seed,
        seconds,
        trace,
        serve_bin,
    }
}

/// Formats a value with all its digits (shortest round-trip form); an
/// empty sum (`-0`) or a non-finite value prints as 0.
fn json_num(v: f64) -> String {
    if v.is_finite() && v != 0.0 {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() {
    let args = parse_args();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "repobench: workload={} seed={} seconds={} trace={} host threads={nproc}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let mut out = Outcome::default();
    match (args.workload.as_str(), args.trace) {
        ("cold-batch", false) => cold::run(&args, &mut out),
        ("cold-batch", true) => cold::traced(&mut out),
        ("edit-session", false) => edit::run(&args, &mut out),
        ("edit-session", true) => edit::traced(&args, &mut out),
        ("serve-open", false) => serve::run(&args, &mut out),
        ("serve-open", true) => serve::traced(&args, &mut out),
        (other, _) => usage(&format!("unknown workload {other:?}")),
    }
    if args.trace {
        println!("prediction table (layer metric -> end-to-end metric -> workload):");
        println!("{}", PREDICTIONS.trim_end());
    }

    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = String::new();
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            // Per-layer rows for a bypassed layer read 0; a missing
            // end-to-end metric is a benchmark bug.
            None if args.trace => 0.0,
            None => {
                out.invalid
                    .push(format!("end-to-end metric {name} was not measured"));
                0.0
            }
        };
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_num(value)
        ));
    }
    let error_rate = stats::ratio(out.failed as f64, out.attempted as f64);
    println!(
        "error_rate = {error_rate} ({} failed of {} attempted)",
        out.failed, out.attempted
    );
    for reason in &out.invalid {
        println!("INVALID RUN: {reason}");
    }
    let correct = out.failed == 0 && out.invalid.is_empty() && out.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(doc: &obs::json::Json, key: &str) -> Vec<String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .expect("metric list")
            .iter()
            .map(|m| m.get("name").and_then(|n| n.as_str()).unwrap().to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_command_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = obs::json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.0.to_string()).collect();
        let layer: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&doc, "end_to_end"), e2e);
        assert_eq!(names_in(&doc, "per_layer"), layer);
        let predictions = obs::json::parse(PREDICTIONS).expect("predictions parse");
        assert!(predictions.get("workloads").is_some());
    }

    #[test]
    fn error_rate_counts_refused_and_lost_requests_as_failures() {
        let mut out = Outcome::default();
        let responses = [
            Some("ok"),
            Some("overloaded"),
            None,
            Some("ok"),
            Some("quota"),
        ];
        for r in responses {
            out.check("request", serve::judge_status(r));
        }
        assert_eq!((out.attempted, out.failed), (5, 3));
        assert_eq!(stats::ratio(out.failed as f64, out.attempted as f64), 0.6);
    }
}
