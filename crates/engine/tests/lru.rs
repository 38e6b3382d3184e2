//! Engine-level LRU cache behavior: a thrashing capacity-1 cache must
//! change throughput characteristics only — never results. An uncached
//! engine is the referee: the same batch run cache-less, with an ample
//! cache, and with a capacity-1 cache yields byte-identical patterns,
//! and the per-request counters reconcile with the engine totals.

use repro_engine::{AnalysisRequest, Engine, EngineConfig};
use repro_query::{QueryConfig, QueryDb};
use std::sync::Arc;

/// A map-shaped request over `elems` elements; distinct `elems` values
/// produce structurally distinct sub-DDGs (different cache keys).
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

/// Alternating shapes: every probe of one shape follows an insert of
/// the other, so a capacity-1 cache evicts on every fill.
fn alternating_batch() -> Vec<AnalysisRequest> {
    (0..6)
        .map(|i| map_request(&format!("r{i}"), if i % 2 == 0 { 4 } else { 6 }))
        .collect()
}

fn engine_with(cache_capacity: usize, use_cache: bool) -> Engine {
    Engine::with_query(
        EngineConfig {
            workers: 2,
            max_concurrent_requests: 1, // deterministic probe order
            ..EngineConfig::default()
        },
        Arc::new(QueryDb::match_only(QueryConfig {
            match_enabled: use_cache,
            match_capacity: cache_capacity,
            ..QueryConfig::default()
        })),
    )
}

/// The comparable bytes of a finder result (pattern structure and
/// source metadata; timings excluded).
fn fingerprint(results: &[repro_engine::AnalysisResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            let a = r.outcome.as_ref().expect("analysis succeeds");
            a.result
                .found
                .iter()
                .map(|f| {
                    format!(
                        "{}:{:?}:{:?}:{:?}:{}:{}",
                        r.id,
                        f.pattern.kind,
                        f.pattern.detail,
                        f.pattern.lines,
                        f.iteration,
                        f.reported
                    )
                })
                .collect::<Vec<_>>()
                .join("|")
        })
        .collect()
}

#[test]
fn thrashing_cache_is_a_pure_performance_knob() {
    let uncached = engine_with(0, false);
    let ample = engine_with(4096, true);
    let tiny = engine_with(1, true);

    let referee = fingerprint(&uncached.analyze_all(alternating_batch()));
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
    assert_eq!(uncached.metrics().cache_hits, 0);
}

#[test]
fn cache_counters_reconcile_with_request_counts() {
    let engine = engine_with(1, true);
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
