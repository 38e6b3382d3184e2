//! Aborted runs must still flush their observability counters: a
//! fuel-exhausted (or deadline-expired) trace is exactly the run an
//! operator needs partial statistics for. Regression test for the
//! machine's flush-on-abort path.

use trace::RunConfig;

/// One test (not several) because `obs` counters are process-global
/// and cumulative; interleaved tests would race the delta reads.
#[test]
fn aborted_runs_flush_nonzero_counters() {
    // Thread 0 spins forever over memory, so shadow traffic accrues
    // before the fuel runs out.
    let src = "int out[4];\nvoid main() {\n  int i; i = 0;\n  \
               while (i < 1) {\n    out[0] = out[0] + 1;\n    i = 0;\n  }\n  \
               output(out);\n}\n";
    let p = minc::compile("spin_mem", src).unwrap();

    obs::enable();
    let steps0 = obs::counter("trace.steps").get();
    let reads0 = obs::counter("trace.shadow_reads").get();
    let writes0 = obs::counter("trace.shadow_writes").get();
    let slices0 = obs::counter("trace.slices").get();

    let cfg = RunConfig::default().with_max_steps(20_000);
    let err = trace::run(&p, &cfg).unwrap_err();
    assert!(err.message.contains("step limit"), "{err}");

    assert!(
        obs::counter("trace.steps").get() > steps0,
        "fuel-aborted run flushed no step count"
    );
    assert!(
        obs::counter("trace.shadow_reads").get() > reads0,
        "fuel-aborted run flushed no shadow reads"
    );
    assert!(
        obs::counter("trace.shadow_writes").get() > writes0,
        "fuel-aborted run flushed no shadow writes"
    );
    assert!(
        obs::counter("trace.slices").get() > slices0,
        "fuel-aborted run flushed no slices"
    );
    obs::disable();
    let _ = obs::take_events();
}
