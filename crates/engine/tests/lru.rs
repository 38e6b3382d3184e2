//! Engine-level LRU cache behavior: a thrashing capacity-1 cache must
//! change throughput characteristics only — never results. The
//! sequential finder, which has no cache, is the referee: the same
//! batch run with an ample cache and with a capacity-1 cache yields
//! byte-identical patterns, and the per-request counters reconcile with
//! the engine totals — and do not depend on how the pool interleaves
//! jobs.

use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use repro_query::{QueryConfig, QueryDb};
use std::sync::Arc;

/// A map over `elems` elements followed by an independent map over
/// `tail` elements. Distinct `elems` values produce structurally
/// distinct first-loop sub-DDGs (different cache keys); a distinct
/// `tail` per request keeps every DDG distinct, so no request is
/// replayed whole from the query DB's find stage.
fn map_request(id: &str, elems: usize, tail: usize) -> AnalysisRequest {
    let src = format!(
        "float in[{elems}];\nfloat out[{elems}];\nfloat b_in[{tail}];\nfloat b_out[{tail}];\n\
         void main() {{\n  int i;\n  int j;\n  \
         for (i = 0; i < {elems}; i++) {{\n    out[i] = in[i] * 2.0 + 1.0;\n  }}\n  \
         for (j = 0; j < {tail}; j++) {{\n    b_out[j] = b_in[j] * 3.0;\n  }}\n  \
         output(out);\n  output(b_out);\n}}\n"
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

/// Alternating shapes: every probe of one shape follows an insert of
/// the other, so a capacity-1 cache evicts on every fill.
fn alternating_batch() -> Vec<AnalysisRequest> {
    (0..6)
        .map(|i| map_request(&format!("r{i}"), if i % 2 == 0 { 4 } else { 6 }, 2 + i))
        .collect()
}

fn engine_with(cache_capacity: usize) -> Engine {
    Engine::with_query(
        EngineConfig {
            workers: 2,
            max_concurrent_requests: 1, // deterministic probe order
            ..EngineConfig::default()
        },
        Arc::new(QueryDb::full(QueryConfig {
            match_capacity: cache_capacity,
            ..QueryConfig::default()
        })),
    )
}

/// The comparable bytes of a finder result (pattern structure and
/// source metadata; timings excluded).
fn signature(id: &str, result: &discovery::FinderResult) -> String {
    result
        .found
        .iter()
        .map(|f| {
            format!(
                "{}:{:?}:{:?}:{:?}:{}:{}",
                id, f.pattern.kind, f.pattern.detail, f.pattern.lines, f.iteration, f.reported
            )
        })
        .collect::<Vec<_>>()
        .join("|")
}

fn fingerprint(results: &[repro_engine::AnalysisResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            let a = r.outcome.as_ref().expect("analysis succeeds");
            signature(&r.id, &a.result)
        })
        .collect()
}

/// The sequential finder's results for `batch` (same traces, same
/// configs).
fn sequential(batch: &[AnalysisRequest]) -> Vec<String> {
    batch
        .iter()
        .map(|req| {
            let mut input = req.input.clone();
            input.trace = trace::TraceMode::Full;
            let run = trace::run(&req.program, &input).expect("trace succeeds");
            signature(
                &req.id,
                &discovery::find_patterns(&run.ddg.unwrap(), &req.config),
            )
        })
        .collect()
}

#[test]
fn thrashing_cache_is_a_pure_performance_knob() {
    let ample = engine_with(4096);
    let tiny = engine_with(1);

    let referee = sequential(&alternating_batch());
    let ample_fp = fingerprint(&ample.analyze_all(alternating_batch()));
    let tiny_fp = fingerprint(&tiny.analyze_all(alternating_batch()));
    assert_eq!(referee, ample_fp, "ample cache must not change results");
    assert_eq!(referee, tiny_fp, "thrashing cache must not change results");

    // The ample cache memoizes across the repeats; the capacity-1 cache
    // actually evicts; neither engine ever exceeds its bound.
    let ample_m = ample.metrics();
    assert!(ample_m.cache_hits > 0, "{ample_m:?}");
    assert_eq!(ample_m.cache_evictions, 0, "{ample_m:?}");
    let tiny_m = tiny.metrics();
    assert!(tiny_m.cache_evictions > 0, "{tiny_m:?}");
    assert!(tiny_m.cache_entries <= 1, "{tiny_m:?}");
    assert_eq!(tiny_m.cache_capacity, 1);
}

#[test]
fn cache_counters_reconcile_with_request_counts() {
    let engine = engine_with(1);
    let results = engine.analyze_all(alternating_batch());

    // Per request: every match job either probed the cache (hit or
    // miss) or bypassed it — no job is unaccounted for.
    let (mut jobs, mut hits, mut misses, mut bypassed) = (0, 0, 0, 0);
    for r in &results {
        assert_eq!(
            r.metrics.cache_hits + r.metrics.cache_misses + r.metrics.cache_bypassed,
            r.metrics.match_jobs,
            "request {} leaks probes: {:?}",
            r.id,
            r.metrics
        );
        jobs += r.metrics.match_jobs;
        hits += r.metrics.cache_hits;
        misses += r.metrics.cache_misses;
        bypassed += r.metrics.cache_bypassed;
    }
    assert!(jobs > 0);

    // Engine totals equal the per-request sums (one coordinator, so no
    // double counting), and evictions never exceed fills.
    let m = engine.metrics();
    assert_eq!(m.cache_hits, hits);
    assert_eq!(m.cache_misses, misses);
    assert!(m.cache_evictions <= misses - bypassed.min(misses));
    assert!(
        m.cache_evictions + m.cache_entries as u64 <= misses,
        "every resident or evicted entry came from a missed probe: {m:?}"
    );
}

/// Starbench requests whose iterations repeat match keys: kmeans alone
/// repeats 23 of its 32 seq keys within one iteration.
fn repeating_batch() -> Vec<AnalysisRequest> {
    ["kmeans", "ray-rot", "streamcluster"]
        .iter()
        .flat_map(|name| {
            let bench = starbench::benchmark(name).unwrap();
            starbench::Version::BOTH.map(|v| AnalysisRequest {
                id: format!("{name}-{}", v.name()),
                program: bench.program(v),
                input: (bench.analysis_input)(),
                config: discovery::FinderConfig::default(),
            })
        })
        .collect()
}

#[test]
fn cache_counters_do_not_depend_on_pool_timing() {
    // A job whose key an earlier job of its iteration already missed
    // waits for that job's fulfil instead of racing it, so every run of
    // one batch hits, misses and executes the same counts.
    let counters = || {
        let engine = Engine::new(EngineConfig {
            workers: 4,
            max_concurrent_requests: 1,
            ..EngineConfig::default()
        });
        for r in engine.analyze_all(repeating_batch()) {
            r.outcome.unwrap_or_else(|e| panic!("{}: {e}", r.id));
        }
        let m = engine.metrics();
        (m.cache_hits, m.cache_misses, m.jobs_executed)
    };
    let first = counters();
    assert!(first.0 > 0, "repeated keys must hit: {first:?}");
    for _ in 1..5 {
        assert_eq!(counters(), first);
    }
}
