//! Smoke tests for the benchmark binaries' CLI error handling: malformed
//! flag values must exit 2 with a message naming the flag and the
//! offending value — not panic with a bare `expect` backtrace.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("spawn benchmark binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn fig7_rejects_a_malformed_factor_list() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--factors", "1,banana"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid value for --factors"),
        "stderr: {}",
        stderr(&out)
    );
    assert!(stderr(&out).contains("banana"), "stderr: {}", stderr(&out));
}

#[test]
fn fig7_rejects_a_malformed_bare_factor_list() {
    // The legacy spelling (bare positional comma list) gets the same
    // friendly error.
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["2,x"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid value for --factors"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn fig7_rejects_a_malformed_workers_value() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--workers", "many"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid value for --workers"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn fig7_rejects_a_malformed_budget_value() {
    let out = run(env!("CARGO_BIN_EXE_fig7"), &["--budget-ms", "soon"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("invalid value for --budget-ms"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn report_rejects_an_unknown_benchmark_with_the_available_list() {
    let out = run(env!("CARGO_BIN_EXE_report"), &["linpack"]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("unknown benchmark \"linpack\""),
        "stderr: {err}"
    );
    // The error teaches the fix: it lists what exists.
    assert!(err.contains("available:"), "stderr: {err}");
    assert!(err.contains("rgbyuv"), "stderr: {err}");
    assert!(err.contains("streamcluster"), "stderr: {err}");
}

/// A loss-free serve-load report with `overrides` spliced into `meta`.
fn serve_report(dir: &str, overrides: &[(&str, &str)]) -> std::path::PathBuf {
    let mut meta: Vec<(&str, String)> = vec![
        ("requests", "100".into()),
        ("answered", "100".into()),
        ("ok", "90".into()),
        ("overloaded", "6".into()),
        ("quota", "4".into()),
        ("trace_errors", "0".into()),
        ("bad_requests", "0".into()),
        ("worker_lost", "0".into()),
        ("internal_errors", "0".into()),
        ("protocol_errors", "0".into()),
        ("p50_ms", "12.5".into()),
        ("p99_ms", "80.0".into()),
        ("throughput_rps", "450.0".into()),
        ("cache_hit_rate", "0.93".into()),
        ("cache_evictions", "3".into()),
    ];
    for (key, value) in overrides {
        let slot = meta.iter_mut().find(|(k, _)| k == key).unwrap();
        slot.1 = value.to_string();
    }
    let body = meta
        .iter()
        .map(|(k, v)| format!("{k:?}:{v}"))
        .collect::<Vec<_>>()
        .join(",");
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("BENCH_serve.json");
    std::fs::write(
        &path,
        format!(
            r#"{{"meta":{{{body}}},"counters":[],"gauges":[],"histograms":[],"sections":{{}}}}"#
        ),
    )
    .unwrap();
    path
}

#[test]
fn obs_check_serve_gate_passes_a_loss_free_report() {
    let path = serve_report("obs_check_serve_ok", &[]);
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--serve", path.to_str().unwrap(), "--max-p99-ms", "1000"],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
}

#[test]
fn obs_check_serve_gate_fails_worker_loss() {
    let path = serve_report("obs_check_serve_lost", &[("worker_lost", "1")]);
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--serve", path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("worker_lost"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_serve_gate_fails_an_accounting_leak() {
    // One request vanished without a labeled response.
    let path = serve_report("obs_check_serve_leak", &[("ok", "89"), ("answered", "99")]);
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--serve", path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("accounting leak"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_serve_gate_fails_an_unbounded_p99() {
    let path = serve_report("obs_check_serve_p99", &[("p99_ms", "1500.0")]);
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--serve", path.to_str().unwrap(), "--max-p99-ms", "1000"],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("p99 latency"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_fig7_gate_passes_a_linear_report() {
    let dir = std::env::temp_dir().join("obs_check_fig7_ok");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":1,"budget_ms":60000,"factors":[1,4,16],"loglog_slope":0.98,"slope_matching":0.85,"slope_simplify":0.9,"slope_decompose":0.8,"slope_trace":0.9,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap(), "--max-slope", "1.05"],
    );
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(stdout.contains("trace slope 0.900"), "stdout: {stdout}");
}

#[test]
fn obs_check_fig7_gate_fails_a_superlinear_slope() {
    let dir = std::env::temp_dir().join("obs_check_fig7_slope");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":1,"budget_ms":60000,"factors":[1,4,16],"loglog_slope":1.138,"slope_matching":0.85,"slope_simplify":0.9,"slope_decompose":0.8,"slope_trace":0.9,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap(), "--max-slope", "1.05"],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("superlinearly"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_fig7_gate_fails_a_superlinear_matching_phase() {
    // The total can look linear while the match phase alone is not —
    // that is exactly what the per-phase gate must catch.
    let dir = std::env::temp_dir().join("obs_check_fig7_match_slope");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":1,"budget_ms":60000,"factors":[1,4,16],"loglog_slope":0.98,"slope_matching":1.41,"slope_simplify":0.9,"slope_decompose":0.8,"slope_trace":0.9,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap(), "--max-slope", "1.05"],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("matching-phase slope"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_fig7_gate_fails_a_superlinear_simplify_phase() {
    let dir = std::env::temp_dir().join("obs_check_fig7_simplify_slope");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":1,"budget_ms":60000,"factors":[1,4,16],"loglog_slope":0.98,"slope_matching":0.85,"slope_simplify":1.38,"slope_decompose":0.8,"slope_trace":0.9,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap(), "--max-slope", "1.05"],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("simplify-phase slope"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_fig7_gate_fails_a_superlinear_trace_phase() {
    let dir = std::env::temp_dir().join("obs_check_fig7_trace_slope");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":1,"budget_ms":60000,"factors":[1,4,16],"loglog_slope":0.98,"slope_matching":0.85,"slope_simplify":0.9,"slope_decompose":0.8,"slope_trace":1.31,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap(), "--max-slope", "1.05"],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("trace-phase slope"),
        "stderr: {}",
        stderr(&out)
    );
}

#[test]
fn obs_check_fig7_gate_fails_stringified_meta_numbers() {
    let dir = std::env::temp_dir().join("obs_check_fig7_str");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("report.json");
    std::fs::write(
        &path,
        r#"{"meta":{"workers":"1","budget_ms":60000,"factors":[1,4,16],"loglog_slope":0.98,"slope_matching":0.85,"slope_simplify":0.9,"slope_decompose":0.8,"slope_trace":0.9,"avg_reduction":3.5},"counters":[],"gauges":[],"histograms":[],"sections":{}}"#,
    )
    .unwrap();
    let out = run(
        env!("CARGO_BIN_EXE_obs_check"),
        &["--fig7", path.to_str().unwrap()],
    );
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("meta.workers is a JSON string"),
        "stderr: {}",
        stderr(&out)
    );
}
