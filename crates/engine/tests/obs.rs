//! Observability must be a pure observer: enabling span tracing cannot
//! change a single byte of the analysis output, and the trace it emits
//! must be well-formed Chrome trace JSON with balanced begin/end pairs.
//!
//! One `#[test]` only — the obs enabled flag and event buffers are
//! process-global, and a separate integration test file is a separate
//! process, so this file owns the instrumented state for its process.

use discovery::{FinderConfig, FinderResult};
use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use starbench::Version;
use std::fmt::Write as _;

/// Every observable field of a finder result, canonically serialized.
fn canonical(r: &FinderResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "ddg={} simplified={} iterations={} matched={} degraded={} cancelled={} \
         exhausted={} faults={}",
        r.ddg_size,
        r.simplified_size,
        r.iterations,
        r.subddgs_matched,
        r.degraded,
        r.cancelled,
        r.matches_exhausted,
        r.match_faults
    );
    for f in &r.found {
        let p = &f.pattern;
        let _ = writeln!(
            out,
            "it={} reported={} kind={:?} comps={} nodes={:?} labels={:?} lines={:?} \
             loops={:?} detail={:?}",
            f.iteration,
            f.reported,
            p.kind,
            p.components,
            p.nodes.iter().collect::<Vec<_>>(),
            p.op_labels,
            p.lines,
            p.loops,
            p.detail,
        );
    }
    out
}

fn run_batch(names: &[&str]) -> Vec<String> {
    let mut requests = Vec::new();
    for name in names {
        let bench = starbench::benchmark(name).unwrap();
        for version in Version::BOTH {
            requests.push(AnalysisRequest {
                id: format!("{name}-{}", version.name()),
                program: bench.program(version),
                input: (bench.analysis_input)(),
                config: FinderConfig::default(),
            });
        }
    }
    let engine = Engine::new(EngineConfig {
        workers: 4,
        ..EngineConfig::default()
    });
    engine
        .analyze_all(requests)
        .iter()
        .map(|r| {
            let analysis = r
                .outcome
                .as_ref()
                .unwrap_or_else(|e| panic!("{}: {e}", r.id));
            canonical(&analysis.result)
        })
        .collect()
}

#[test]
fn tracing_is_invisible_to_results_and_emits_a_valid_chrome_trace() {
    let names = ["rgbyuv", "streamcluster"];

    // Reference run with observability off (the process default).
    assert!(!obs::enabled());
    let baseline = run_batch(&names);

    // Identical batch with span tracing on.
    obs::enable();
    let instrumented = run_batch(&names);
    obs::disable();
    assert_eq!(
        instrumented, baseline,
        "enabling observability changed the pattern reports"
    );

    // The emitted trace parses and every span is properly closed.
    let threads = obs::take_events();
    let doc = obs::chrome_trace_json(&threads);
    let summary = obs::validate_chrome_trace(&doc).expect("trace must validate");
    assert!(summary.events > 0, "instrumented run emitted no events");
    assert_eq!(
        summary.begins, summary.ends,
        "unbalanced begin/end events: {summary:?}"
    );
    assert!(summary.threads >= 2, "expected engine worker tracks");

    // The pipeline's layers all show up: engine scheduling, finder
    // phases, per-sub-DDG matching, and the trace VM.
    for name in [
        "engine.request",
        "pool.job",
        "trace.run",
        "vm.slice",
        "finder.simplify",
        "finder.decompose",
        "finder.match",
        "finder.match_subddg",
        "finder.combine",
        "finder.merge",
    ] {
        assert!(
            doc.contains(&format!("\"name\":\"{name}\"")),
            "trace is missing {name:?} spans"
        );
    }

    // Metrics made it into the registry alongside the spans.
    let mut report = obs::ObsReport::snapshot();
    report.meta("experiment", "engine-obs-test");
    let json = report.to_json();
    obs::validate_metrics_json(&json, &[]).expect("metrics report must validate");
    assert!(
        json.contains("trace.steps"),
        "metrics report is missing the \"trace.steps\" counter"
    );
}
