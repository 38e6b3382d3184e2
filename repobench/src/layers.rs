//! Readers for the breakdowns the layers already return — `EngineMetrics`,
//! `QueryDb::stats`, `RequestMetrics`, `PhaseTimes` — folded into the
//! per-layer metrics, plus the engine set-up both in-process workloads
//! share.

use crate::stats::ratio;
use crate::{Outcome, WORKERS};
use repro_engine::{EngineConfig, EngineMetrics};
use repro_query::{QueryStats, StoreMetrics};

/// Engine sizing: [`WORKERS`] match threads and as many concurrent
/// requests, both explicit so nothing falls back to "one per hardware
/// thread".
pub fn engine_config() -> EngineConfig {
    EngineConfig {
        workers: WORKERS,
        max_concurrent_requests: WORKERS,
        ..EngineConfig::default()
    }
}

fn store_hit_rate(before: &StoreMetrics, after: &StoreMetrics) -> f64 {
    let hits = (after.hits - before.hits) as f64;
    let misses = (after.misses - before.misses) as f64;
    ratio(hits, hits + misses)
}

/// Query-layer hit rates, evictions and resident bytes between two
/// snapshots of one store.
pub fn query_metrics(out: &mut Outcome, before: &QueryStats, after: &QueryStats) {
    out.set(
        "query.trace_hit_rate",
        store_hit_rate(&before.trace, &after.trace),
    );
    out.set(
        "query.exec_hit_rate",
        store_hit_rate(&before.exec, &after.exec),
    );
    out.set(
        "query.find_hit_rate",
        store_hit_rate(&before.find, &after.find),
    );
    out.set(
        "query.subddg_hit_rate",
        store_hit_rate(&before.subddg, &after.subddg),
    );
    out.set(
        "minc.fnir_hit_rate",
        store_hit_rate(&before.fnir, &after.fnir),
    );
    let stages = |s: &QueryStats| {
        [s.programs, s.fnir, s.trace, s.exec, s.subddg, s.find]
            .iter()
            .map(|m| (m.evictions, m.approx_bytes))
            .fold(
                (s.match_cache.evictions, s.match_cache.approx_bytes),
                |a, b| (a.0 + b.0, a.1 + b.1),
            )
    };
    let (ev0, _) = stages(before);
    let (ev1, bytes) = stages(after);
    out.set("query.evictions", (ev1 - ev0) as f64);
    out.set("query.store_bytes", bytes as f64);
}

/// Pool and match-cache counters between two engine snapshots.
pub fn engine_metrics(out: &mut Outcome, before: &EngineMetrics, after: &EngineMetrics) {
    out.set(
        "pool.jobs_executed",
        (after.jobs_executed - before.jobs_executed) as f64,
    );
    out.set(
        "pool.jobs_stolen",
        (after.jobs_stolen - before.jobs_stolen) as f64,
    );
    out.set("pool.peak_queue_depth", after.peak_queue_depth as f64);
    let hits = (after.cache_hits - before.cache_hits) as f64;
    let misses = (after.cache_misses - before.cache_misses) as f64;
    out.set("engine.match_cache_hit_rate", ratio(hits, hits + misses));
    out.set("threads.engine_workers", after.workers as f64);
}

/// Sums of the finder's own phase breakdown over a set of results.
#[derive(Clone, Default)]
pub struct PhaseSums {
    pub simplify_ms: f64,
    pub decompose_ms: f64,
    pub match_ms: f64,
    pub combine_ms: f64,
    pub merge_ms: f64,
    pub subddgs: f64,
    pub iterations: f64,
    pub exhausted: f64,
    pub nodes_before: f64,
    pub nodes_after: f64,
}

impl PhaseSums {
    pub fn add(&mut self, r: &discovery::FinderResult) {
        let p = &r.phase_times;
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        self.simplify_ms += ms(p.simplify);
        self.decompose_ms += ms(p.decompose);
        self.match_ms += ms(p.matching);
        self.combine_ms += ms(p.combine);
        self.merge_ms += ms(p.merge);
        self.subddgs += r.subddgs_matched as f64;
        self.iterations += r.iterations as f64;
        self.exhausted += r.matches_exhausted as f64;
        self.nodes_before += r.simplify_stats.nodes_before as f64;
        self.nodes_after += r.simplify_stats.nodes_after as f64;
    }

    pub fn of(r: &discovery::FinderResult) -> PhaseSums {
        let mut s = PhaseSums::default();
        s.add(r);
        s
    }

    pub fn merge(&mut self, o: &PhaseSums) {
        self.simplify_ms += o.simplify_ms;
        self.decompose_ms += o.decompose_ms;
        self.match_ms += o.match_ms;
        self.combine_ms += o.combine_ms;
        self.merge_ms += o.merge_ms;
        self.subddgs += o.subddgs;
        self.iterations += o.iterations;
        self.exhausted += o.exhausted;
        self.nodes_before += o.nodes_before;
        self.nodes_after += o.nodes_after;
    }

    pub fn total_ms(&self) -> f64 {
        self.simplify_ms + self.decompose_ms + self.match_ms + self.combine_ms + self.merge_ms
    }

    pub fn publish(&self, out: &mut Outcome) {
        out.set("core.simplify_ms", self.simplify_ms);
        out.set(
            "core.simplify_reduction",
            ratio(self.nodes_before, self.nodes_after),
        );
        out.set("core.decompose_ms", self.decompose_ms);
        out.set("core.subddgs", self.subddgs);
        out.set("core.match_ms", self.match_ms);
        out.set(
            "core.match_us_per_subddg",
            ratio(self.match_ms * 1e3, self.subddgs),
        );
        out.set("core.iterations", self.iterations);
        out.set("core.matches_exhausted", self.exhausted);
        out.set("core.combine_ms", self.combine_ms);
        out.set("core.merge_ms", self.merge_ms);
    }
}

/// The Fig. 7 split of analysis time, printed beside the paper's.
pub fn publish_shares(out: &mut Outcome, trace_ms: f64, match_ms: f64, total_ms: f64) {
    let (t, m) = (ratio(trace_ms, total_ms), ratio(match_ms, total_ms));
    out.set("share.trace", t);
    out.set("share.match", m);
    out.set(
        "share.other",
        if total_ms > 0.0 { 1.0 - t - m } else { 0.0 },
    );
    println!(
        "Fig. 7 split: trace {:.1}% / match {:.1}% / other {:.1}%   (paper: trace ~1% / match ~48% / other ~51%)",
        100.0 * t,
        100.0 * m,
        if total_ms > 0.0 { 100.0 * (1.0 - t - m) } else { 0.0 },
    );
}

/// The reported pattern kinds of a result, in report order.
pub fn kinds(r: &discovery::FinderResult) -> Vec<String> {
    r.reported()
        .map(|f| f.pattern.kind.short().to_string())
        .collect()
}

/// The quotient-oracle visit counter (always on in the program).
pub fn reach_nodes_visited() -> u64 {
    obs::counter("quotient.reach_nodes_visited").get()
}
