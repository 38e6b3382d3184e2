//! The fault-injection acceptance batch (`--features fault-inject`).
//!
//! One batch carries (a) a request whose match job panics by plan,
//! (b) a request whose injected match delays blow its deadline, (c) a
//! nonterminating traced program stopped by fuel, and (d) clean
//! requests. The engine must stream one labeled `AnalysisResult` per
//! request — faults contained, degradation flagged — and the clean
//! requests' patterns must stay byte-identical to the sequential
//! finder's.

use repro_engine::{AnalysisRequest, Engine, EngineConfig, EngineError, FaultPlan};
use std::fmt::Write as _;
use std::time::Duration;

/// A canonical dump of every observable finder field (mirrors the
/// parity test's encoding) for byte-identical comparison.
fn canonical(r: &discovery::FinderResult) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "ddg={} simplified={} iters={} matched={} degraded={} cancelled={} exhausted={} faults={}",
        r.ddg_size,
        r.simplified_size,
        r.iterations,
        r.subddgs_matched,
        r.degraded,
        r.cancelled,
        r.matches_exhausted,
        r.match_faults
    )
    .unwrap();
    for f in &r.found {
        writeln!(
            s,
            "it={} rep={} kind={:?} comps={} labels={:?} lines={:?} nodes={:?} detail={:?}",
            f.iteration,
            f.reported,
            f.pattern.kind,
            f.pattern.components,
            f.pattern.op_labels,
            f.pattern.lines,
            f.pattern.nodes.iter().collect::<Vec<_>>(),
            f.pattern.detail
        )
        .unwrap();
    }
    s
}

fn map_request(id: &str, elems: usize) -> AnalysisRequest {
    let src = format!(
        "float in[{elems}];\nfloat out[{elems}];\nvoid main() {{\n  int i;\n  \
         for (i = 0; i < {elems}; i++) {{\n    out[i] = in[i] * 2.0 + 1.0;\n  }}\n  \
         output(out);\n}}\n"
    );
    let program = minc::compile(id, &src).unwrap();
    let input = trace::RunConfig::default()
        .with_f64("in", &(0..elems).map(|i| i as f64).collect::<Vec<_>>());
    AnalysisRequest {
        id: id.to_string(),
        program,
        input,
        config: discovery::FinderConfig::default(),
    }
}

/// `while (i < 1) { i = 0; }` — spins forever; only fuel stops it.
fn nonterminating_request(id: &str) -> AnalysisRequest {
    let src = "int out[1];\nvoid main() {\n  int i;\n  i = 0;\n  \
               while (i < 1) {\n    i = 0;\n  }\n  output(out);\n}\n";
    let program = minc::compile(id, src).unwrap();
    let input = trace::RunConfig::default().with_max_steps(200_000);
    AnalysisRequest {
        id: id.to_string(),
        program,
        input,
        config: discovery::FinderConfig::default(),
    }
}

/// The sequential reference for a request (same trace, same config).
fn sequential(req: &AnalysisRequest) -> discovery::FinderResult {
    let mut cfg = req.input.clone();
    cfg.trace = trace::TraceMode::Full;
    let run = trace::run(&req.program, &cfg).unwrap();
    discovery::find_patterns(&run.ddg.unwrap(), &req.config)
}

#[test]
fn faulted_batch_streams_every_result_and_keeps_clean_requests_identical() {
    let plan = FaultPlan::new()
        // (a) the panicked request: its first match job dies.
        .panic_match_job("panicked", 0)
        // (b) the deadlined request: every match job stalls 50 ms
        // against a 20 ms request deadline.
        .delay_match_jobs("deadlined", Duration::from_millis(50));
    let engine = Engine::with_fault_plan(
        EngineConfig {
            workers: 4,
            ..EngineConfig::default()
        },
        plan,
    );

    let mut deadlined = map_request("deadlined", 5);
    deadlined.config.deadline = Some(Duration::from_millis(20));
    let clean_a = map_request("clean-a", 4);
    let clean_b = map_request("clean-b", 6);
    let seq_a = sequential(&clean_a);
    let seq_b = sequential(&clean_b);

    // Every request has its own shape: a clean request sharing the
    // panicked one's DDG could finish first and answer it from the find
    // stage before its planned panic fires.
    let results = engine.analyze_all(vec![
        map_request("panicked", 3),
        deadlined,
        nonterminating_request("spins"),
        clean_a,
        clean_b,
    ]);

    // Every request streamed a labeled result.
    assert_eq!(
        results.iter().map(|r| r.id.as_str()).collect::<Vec<_>>(),
        vec!["panicked", "deadlined", "spins", "clean-a", "clean-b"]
    );

    // (a) the planned panic was contained and recorded, and the request
    // still produced an analysis (degraded to no-match on that job).
    let panicked = &results[0];
    let analysis = panicked.outcome.as_ref().expect("contained, not fatal");
    assert_eq!(panicked.metrics.match_faults, 1);
    assert!(panicked.metrics.degraded);
    assert!(analysis.result.degraded);
    assert_eq!(analysis.result.match_faults, 1);

    // (b) the deadline expired mid-analysis: best-so-far, flagged.
    let dl = &results[1];
    let analysis = dl.outcome.as_ref().expect("degraded, not fatal");
    assert!(dl.metrics.deadline_hit);
    assert!(analysis.result.cancelled);
    assert!(analysis.result.degraded);
    assert!(
        dl.metrics.matches_exhausted > 0,
        "stalled jobs must report exhaustion: {:?}",
        dl.metrics
    );

    // (c) the nonterminating program hit its fuel, as a labeled error.
    let spins = &results[2];
    match &spins.outcome {
        Err(EngineError::Trace(e)) => {
            assert!(e.message.contains("step limit"), "{e}");
        }
        other => panic!(
            "expected a trace fuel error, got {:?}",
            other.as_ref().map(|_| "analysis")
        ),
    }

    // (d) the un-faulted requests are byte-identical to the sequential
    // finder.
    for (res, seq) in [(&results[3], &seq_a), (&results[4], &seq_b)] {
        let analysis = res.outcome.as_ref().expect("clean request");
        assert!(!analysis.result.degraded);
        assert_eq!(
            canonical(&analysis.result),
            canonical(seq),
            "clean request {} diverged from the sequential finder",
            res.id
        );
    }

    // Engine-wide counters saw all of it.
    let m = engine.metrics();
    assert_eq!(m.requests_completed, 5);
    assert_eq!(m.match_faults, 1);
    assert_eq!(m.requests_failed, 1);
    assert!(m.requests_degraded >= 2, "{m:?}");
}

#[test]
fn trace_step_delays_trip_the_request_deadline_during_tracing() {
    // (fault × deadline at the trace layer) — the injected per-step
    // delay makes the traced run alone exceed the request deadline; the
    // result is a labeled trace error, not a hang.
    let plan = FaultPlan::new().trace_fault("slow", 4_000, Duration::from_millis(10));
    let engine = Engine::with_fault_plan(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        plan,
    );
    let mut req = nonterminating_request("slow");
    req.input = req.input.with_max_steps(u64::MAX / 2);
    req.config.deadline = Some(Duration::from_millis(30));
    let results = engine.analyze_all(vec![req]);
    assert_eq!(results.len(), 1);
    assert!(results[0].metrics.deadline_hit);
    match &results[0].outcome {
        Err(EngineError::Trace(e)) => assert!(e.message.contains("deadline"), "{e}"),
        _ => panic!("expected a trace deadline error"),
    }
}

#[test]
fn planned_panics_do_not_poison_the_engine_for_later_batches() {
    // Job 0 is the request's only job: the panicked sub-DDG degrades to
    // no-match, so no subtraction/fusion produces a second iteration.
    let plan = FaultPlan::new().panic_match_job("victim", 0);
    let engine = Engine::with_fault_plan(
        EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        },
        plan,
    );
    let first = engine.analyze_all(vec![map_request("victim", 4)]);
    assert!(first[0].outcome.is_ok());
    assert_eq!(first[0].metrics.match_faults, 1);

    // A later clean batch on the same engine (same pool, same cache)
    // behaves exactly like the sequential finder.
    let clean = map_request("after", 4);
    let seq = sequential(&clean);
    let second = engine.analyze_all(vec![clean]);
    let analysis = second[0].outcome.as_ref().unwrap();
    assert!(!analysis.result.degraded);
    assert_eq!(canonical(&analysis.result), canonical(&seq));
    // The panic was contained inside the job itself (the pool-level
    // containment never saw it), so it shows up as a match fault.
    assert_eq!(engine.metrics().match_faults, 1);
}

#[test]
fn killed_match_workers_are_respawned_without_losing_work() {
    let engine = Engine::with_fault_plan(
        EngineConfig {
            workers: 3,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        },
        FaultPlan::new(),
    );
    // Warm request proves the pool works at full strength.
    let first = engine.analyze_all(vec![map_request("warm", 4)]);
    assert!(first[0].outcome.is_ok());

    // Kill two of the three workers at their next safe point, then give
    // them a moment to die. The injected exit only fires between jobs,
    // so nothing in flight is lost.
    engine.inject_worker_exit(0);
    engine.inject_worker_exit(2);
    std::thread::sleep(Duration::from_millis(50));

    // The engine still completes requests on the surviving worker.
    let wounded = engine.analyze_all(vec![map_request("wounded", 5)]);
    assert!(wounded[0].outcome.is_ok(), "one worker suffices");

    // The healing sweep replaces exactly the dead slots and counts them.
    let respawned = engine.heal();
    assert_eq!(respawned, 2, "both killed workers replaced");
    assert_eq!(engine.heal(), 0, "idempotent once healthy");
    let m = engine.metrics();
    assert_eq!(m.workers_respawned, 2);
    assert_eq!(m.workers, 3);

    // Full-strength service continues, byte-identical to sequential.
    let clean = map_request("healed", 6);
    let seq = sequential(&clean);
    let after = engine.analyze_all(vec![clean]);
    let analysis = after[0].outcome.as_ref().unwrap();
    assert_eq!(canonical(&analysis.result), canonical(&seq));
}
