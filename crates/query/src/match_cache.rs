//! The structural-hash match cache.
//!
//! Matching dominates finder time (paper Fig. 7: ≈ 48%), and batches of
//! related analyses — the seq and Pthreads versions of one benchmark, or
//! one benchmark at several input scales — keep presenting the matcher
//! with sub-DDGs that are *op-isomorphic at the group level*: same label
//! multisets, flags, arc and reachability shape, static-op equality
//! pattern. The cache memoizes match outcomes under a [`MatchKey`]: the
//! 128-bit [`ddg::grouped_hash`] of the compacted view (dispatch class
//! as its tag) plus the match budget, so the second such view skips the
//! models entirely.
//!
//! Soundness rests on three facts, the first two enforced elsewhere:
//!
//! - the pattern models consume *only* the facts the key hashes (the
//!   `ddg` crate's property tests check that equal keys imply equal
//!   matcher-visible facts — no false hits — and the root
//!   `key_agreement` test that the hash splits every view the finder
//!   issues on the Starbench corpus exactly as the exact
//!   [`ddg::grouped_key`] does);
//! - a matcher is a deterministic function of those facts plus the
//!   dispatch class and time budget, which are part of the cache key;
//! - two different fact streams do not collide in 128 bits at cache
//!   scale — the same odds every other content-addressed stage rests on.
//!
//! Because a pattern's metadata (source lines, label strings, node ids)
//! is *not* structural, hits store the match in **group-index space**
//! and rebuild the concrete [`Pattern`] against the probing sub-DDG's
//! own groups and graph — a hit on an isomorphic view from another
//! program still reports the probing program's source locations, and is
//! byte-identical to what a fresh match would have produced.
//!
//! Fused sub-DDGs are not cached: their matchers re-derive the inner
//! map/reduction split from the `SubKind::Fused` payload (raw node
//! sets), which the group-level key does not see.
//!
//! **Bounded growth.** The table is the query layer's `match` stage: one
//! [`Store`] keyed by [`MatchKey`], bounded by [`QueryConfig`]'s match
//! entry and byte caps like every other stage. An entry costs its
//! 16-byte hash, its group-space outcome and a fixed slot overhead. An
//! evicted entry is recomputed (and re-inserted) on its next miss,
//! byte-identical to the first computation.

use crate::store::{ShardKey, Store, StoreMetrics};
use crate::QueryConfig;
use ddg::{Ddg, NodeId};
use discovery::models::MatchBudget;
use discovery::patterns::Detail;
use discovery::{Pattern, PatternKind, SubDdg, SubKind};
use repro_ir::ContentHash;
use std::collections::HashMap;
use std::sync::Arc;

/// Dispatch classes of the non-fused sub-DDG kinds. The finder matches
/// loop-shaped views against map-then-linear and associative views
/// against linear-then-tiled, so views from different classes must never
/// share a cache line even when structurally equal.
fn dispatch_class(kind: &SubKind) -> Option<u64> {
    match kind {
        SubKind::Loop { .. } | SubKind::Derived { from_loop: Some(_) } => Some(0),
        SubKind::Assoc { .. } | SubKind::Derived { from_loop: None } => Some(1),
        SubKind::Fused { .. } => None,
    }
}

/// The compaction groups a key and a reconstruction see: the sub-DDG's
/// own groups (borrowed, never cloned), or singletons in ascending node
/// order — exactly the view `discovery::quotient::Quotient::build`
/// compacts to.
enum View<'a> {
    Grouped(&'a [Vec<NodeId>]),
    Singletons(Vec<[NodeId; 1]>),
}

impl<'a> View<'a> {
    fn of(sub: &'a SubDdg) -> View<'a> {
        match &sub.groups {
            Some(gs) => View::Grouped(gs),
            None => View::Singletons(sub.nodes.iter().map(|n| [NodeId(n as u32)]).collect()),
        }
    }

    fn len(&self) -> usize {
        match self {
            View::Grouped(gs) => gs.len(),
            View::Singletons(ns) => ns.len(),
        }
    }

    fn members(&self, gi: usize) -> &[NodeId] {
        match self {
            View::Grouped(gs) => &gs[gi],
            View::Singletons(ns) => &ns[gi],
        }
    }

    fn hash(&self, g: &Ddg, class: u64) -> ContentHash {
        match self {
            View::Grouped(gs) => ddg::grouped_hash(g, gs, class),
            View::Singletons(ns) => ddg::grouped_hash(g, ns, class),
        }
    }
}

/// A sub-DDG's match-stage key: the structural hash of its compacted
/// view, tagged with the dispatch class, and the per-match budget.
/// `Copy` and comparable, so a caller can tell two probes of one key
/// apart from two probes of different keys before touching the store.
/// Its shard comes from the default SipHash of all its bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct MatchKey {
    shape: ContentHash,
    budget_ms: u64,
}

impl ShardKey for MatchKey {}

impl MatchKey {
    /// The key of `sub`'s compacted view, or `None` for a fused view
    /// (uncacheable).
    pub fn of(g: &Ddg, sub: &SubDdg, budget: &MatchBudget) -> Option<MatchKey> {
        Some(MatchKey {
            shape: View::of(sub).hash(g, dispatch_class(&sub.kind)?),
            budget_ms: budget.time.as_millis() as u64,
        })
    }
}

/// A match outcome in group-index space.
enum CachedMatch {
    Map {
        kind: PatternKind,
        components: Vec<Vec<u32>>,
    },
    Linear {
        chain: Vec<u32>,
    },
    Tiled {
        partials: Vec<Vec<u32>>,
        final_chain: Vec<u32>,
    },
}

/// Result of a cache probe.
pub enum Probe {
    /// Fused sub-DDG: match it directly.
    Uncacheable,
    /// Memoized outcome, rebuilt against the probing sub-DDG.
    Hit(Option<Pattern>),
    /// Unknown structure; match it, then [`MatchCache::fulfil`] the
    /// ticket with the outcome.
    Miss(PendingEntry),
}

/// A miss ticket carrying the computed key to the fulfil site.
pub struct PendingEntry {
    key: MatchKey,
}

/// Default entry capacity when the caller does not size the cache
/// ([`QueryConfig`]'s `match_capacity` defaults to this): large enough
/// that a full starbench batch never evicts, small enough that a
/// resident daemon's footprint stays bounded.
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// The match stage: probe/fulfil over one shared, thread-safe [`Store`]
/// of group-space outcomes (`None` = a memoized no-match).
pub struct MatchCache {
    store: Store<MatchKey, Option<CachedMatch>>,
}

impl MatchCache {
    /// The match stage sized by `config`'s `match_*` fields.
    pub(crate) fn from_config(config: &QueryConfig) -> MatchCache {
        MatchCache {
            store: Store::new("match", config.match_capacity, config.match_capacity_bytes),
        }
    }

    /// Looks `sub`'s key up. A hit counts as a touch: the entry moves
    /// to the back of its shard's eviction order.
    pub fn probe(&self, g: &Ddg, sub: &SubDdg, budget: &MatchBudget) -> Probe {
        match MatchKey::of(g, sub, budget) {
            None => Probe::Uncacheable,
            Some(key) => match self.lookup(g, sub, key) {
                Ok(hit) => Probe::Hit(hit),
                Err(pending) => Probe::Miss(pending),
            },
        }
    }

    /// [`MatchCache::probe`] for a key the caller already computed with
    /// [`MatchKey::of`] on the same `g` and `sub`: the memoized outcome
    /// rebuilt against `sub` on a hit, a miss ticket otherwise.
    pub fn lookup(
        &self,
        g: &Ddg,
        sub: &SubDdg,
        key: MatchKey,
    ) -> Result<Option<Pattern>, PendingEntry> {
        match self.store.get(&key) {
            Some(entry) => Ok((*entry)
                .as_ref()
                .map(|m| rebuild(g, sub, &View::of(sub), m))),
            None => Err(PendingEntry { key }),
        }
    }

    /// Stores the outcome of a missed probe. `sub` must be the sub-DDG
    /// the probe ran on.
    pub fn fulfil(&self, pending: PendingEntry, sub: &SubDdg, outcome: &Option<Pattern>) {
        let entry = match outcome {
            None => Some(None),
            Some(p) => encode(sub, p).map(Some),
        };
        // An unencodable pattern (a detail node outside the group view;
        // never produced by the current models) is simply not cached.
        if let Some(entry) = entry {
            let bytes = approx_bytes(&entry);
            self.store.put(pending.key, Arc::new(entry), bytes);
        }
    }

    pub fn metrics(&self) -> StoreMetrics {
        self.store.metrics()
    }
}

/// Approximate heap footprint of one cache line: the 16-byte hash,
/// entry vectors, and fixed per-slot overhead (map + recency
/// bookkeeping).
fn approx_bytes(entry: &Option<CachedMatch>) -> usize {
    let entry_bytes = match entry {
        None => 0,
        Some(CachedMatch::Map { components, .. }) => {
            components.iter().map(|c| 24 + 4 * c.len()).sum::<usize>()
        }
        Some(CachedMatch::Linear { chain }) => 4 * chain.len(),
        Some(CachedMatch::Tiled {
            partials,
            final_chain,
        }) => partials.iter().map(|c| 24 + 4 * c.len()).sum::<usize>() + 4 * final_chain.len(),
    };
    16 + entry_bytes + 96
}

/// Encodes a freshly matched pattern in group-index space. Every node a
/// detail references is mapped to its `(group, member)` position; chains
/// always reference group representatives (`members[0]`) and map
/// components cover whole groups, so group indices suffice.
fn encode(sub: &SubDdg, p: &Pattern) -> Option<CachedMatch> {
    let view = View::of(sub);
    let mut group_of: HashMap<u32, u32> = HashMap::new();
    for gi in 0..view.len() {
        for &m in view.members(gi) {
            group_of.insert(m.0, gi as u32);
        }
    }
    let map_chain = |chain: &[NodeId]| -> Option<Vec<u32>> {
        chain.iter().map(|n| group_of.get(&n.0).copied()).collect()
    };
    match &p.detail {
        // The cached dispatch classes always attach detail; a detail-less
        // pattern has no group-space encoding, so it is not cached.
        Detail::None => None,
        Detail::Map { components } => {
            // Members of one group are contiguous in a component; keep
            // each group index once, in order.
            let mut comps = Vec::with_capacity(components.len());
            for c in components {
                let mut gis: Vec<u32> = Vec::new();
                for n in c {
                    let gi = *group_of.get(&n.0)?;
                    if gis.last() != Some(&gi) {
                        gis.push(gi);
                    }
                }
                comps.push(gis);
            }
            Some(CachedMatch::Map {
                kind: p.kind,
                components: comps,
            })
        }
        Detail::Linear { chain } => Some(CachedMatch::Linear {
            chain: map_chain(chain)?,
        }),
        Detail::Tiled {
            partials,
            final_chain,
        } => Some(CachedMatch::Tiled {
            partials: partials
                .iter()
                .map(|c| map_chain(c))
                .collect::<Option<Vec<_>>>()?,
            final_chain: map_chain(final_chain)?,
        }),
    }
}

/// Rebuilds a concrete pattern for `sub` from a group-index match. The
/// probing view's key equals the stored view's key, so group count and
/// per-group member counts agree and every index resolves.
fn rebuild(g: &Ddg, sub: &SubDdg, view: &View, m: &CachedMatch) -> Pattern {
    let rep = |gi: &u32| view.members(*gi as usize)[0];
    match m {
        CachedMatch::Map { kind, components } => {
            let components: Vec<Vec<NodeId>> = components
                .iter()
                .map(|gis| {
                    gis.iter()
                        .flat_map(|gi| view.members(*gi as usize).iter().copied())
                        .collect()
                })
                .collect();
            let n = components.len();
            Pattern::with_metadata(*kind, sub.nodes.clone(), n, g)
                .with_detail(Detail::Map { components })
        }
        CachedMatch::Linear { chain } => {
            let n = chain.len();
            Pattern::with_metadata(PatternKind::LinearReduction, sub.nodes.clone(), n, g)
                .with_detail(Detail::Linear {
                    chain: chain.iter().map(rep).collect(),
                })
        }
        CachedMatch::Tiled {
            partials,
            final_chain,
        } => {
            let n = view.len();
            Pattern::with_metadata(PatternKind::TiledReduction, sub.nodes.clone(), n, g)
                .with_detail(Detail::Tiled {
                    partials: partials
                        .iter()
                        .map(|c| c.iter().map(rep).collect())
                        .collect(),
                    final_chain: final_chain.iter().map(rep).collect(),
                })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddg::{BitSet, DdgBuilder};
    use discovery::models::match_subddg;

    /// A chain of `n` adds with distinguishable static ops per position,
    /// fed from outside, last writing output — a linear reduction.
    fn chain(n: usize, op_base: u32, label: &str) -> (Ddg, SubDdg) {
        let mut b = DdgBuilder::new();
        let l = b.intern_label(label, true);
        let nodes: Vec<NodeId> = (0..n)
            .map(|_| b.add_node(l, op_base, 0, 1, 1, 0, vec![]))
            .collect();
        for i in 0..n {
            b.mark_reads_input(nodes[i]);
            if i > 0 {
                b.add_arc(nodes[i - 1], nodes[i]);
            }
        }
        b.mark_writes_output(nodes[n - 1]);
        let g = b.finish();
        let sub = SubDdg::ungrouped(
            BitSet::from_iter(g.len(), 0..n),
            SubKind::Assoc {
                label: label.into(),
            },
        );
        (g, sub)
    }

    /// A match cache sized like the default query DB's.
    fn default_cache() -> MatchCache {
        MatchCache::from_config(&QueryConfig::default())
    }

    fn probe_of(cache: &MatchCache, g: &Ddg, sub: &SubDdg) -> Probe {
        cache.probe(g, sub, &MatchBudget::default())
    }

    #[test]
    fn hit_rebuilds_byte_identical_pattern() {
        let cache = default_cache();
        let (g1, sub1) = chain(4, 0, "fadd");
        let Probe::Miss(pending) = probe_of(&cache, &g1, &sub1) else {
            panic!("first probe must miss")
        };
        let fresh = match_subddg(&g1, &sub1, &MatchBudget::default());
        assert!(fresh.is_some());
        cache.fulfil(pending, &sub1, &fresh);

        // An op-isomorphic view (different static op ids) from a second
        // graph: must hit and rebuild exactly what a fresh match yields.
        let (g2, sub2) = chain(4, 77, "fadd");
        let Probe::Hit(Some(rebuilt)) = probe_of(&cache, &g2, &sub2) else {
            panic!("isomorphic view must hit")
        };
        let direct = match_subddg(&g2, &sub2, &MatchBudget::default()).unwrap();
        assert_eq!(rebuilt.kind, direct.kind);
        assert_eq!(rebuilt.components, direct.components);
        assert_eq!(rebuilt.op_labels, direct.op_labels);
        assert_eq!(rebuilt.lines, direct.lines);
        assert_eq!(rebuilt.detail, direct.detail);
        assert_eq!(
            rebuilt.nodes.iter().collect::<Vec<_>>(),
            direct.nodes.iter().collect::<Vec<_>>()
        );
        assert_eq!(cache.metrics().hits, 1);
        assert_eq!(cache.metrics().misses, 1);
    }

    #[test]
    fn a_precomputed_key_probes_like_probe_and_an_entry_costs_its_hash() {
        let cache = default_cache();
        let (g, sub) = chain(200, 0, "fadd");
        let budget = MatchBudget::default();
        let key = MatchKey::of(&g, &sub, &budget).expect("assoc views are cacheable");
        let Err(pending) = cache.lookup(&g, &sub, key) else {
            panic!("first lookup must miss")
        };
        let fresh = match_subddg(&g, &sub, &budget);
        cache.fulfil(pending, &sub, &fresh);
        let Probe::Hit(Some(hit)) = probe_of(&cache, &g, &sub) else {
            panic!("probe must find the entry the lookup's ticket filled")
        };
        assert_eq!(hit.detail, fresh.unwrap().detail);
        // A 200-link chain: 16 bytes of key, 4 per link, slot overhead —
        // however many words the view's facts take.
        assert_eq!(cache.metrics().approx_bytes, 16 + 4 * 200 + 96);
    }

    #[test]
    fn negative_outcomes_are_cached_too() {
        let cache = default_cache();
        // A chain with no final output never matches.
        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let x = b.add_node(l, 0, 0, 1, 1, 0, vec![]);
        let y = b.add_node(l, 0, 0, 1, 1, 0, vec![]);
        b.mark_reads_input(x);
        b.mark_reads_input(y);
        b.add_arc(x, y);
        let g = b.finish();
        let sub = SubDdg::ungrouped(
            BitSet::from_iter(g.len(), 0..2),
            SubKind::Assoc {
                label: "fadd".into(),
            },
        );
        let Probe::Miss(pending) = probe_of(&cache, &g, &sub) else {
            panic!()
        };
        let outcome = match_subddg(&g, &sub, &MatchBudget::default());
        assert!(outcome.is_none());
        cache.fulfil(pending, &sub, &outcome);
        let Probe::Hit(None) = probe_of(&cache, &g, &sub) else {
            panic!("negative outcome must hit")
        };
    }

    #[test]
    fn different_labels_do_not_collide() {
        let cache = default_cache();
        let (g1, sub1) = chain(3, 0, "fadd");
        let Probe::Miss(p1) = probe_of(&cache, &g1, &sub1) else {
            panic!()
        };
        cache.fulfil(
            p1,
            &sub1,
            &match_subddg(&g1, &sub1, &MatchBudget::default()),
        );
        let (g2, sub2) = chain(3, 0, "fmul");
        assert!(
            matches!(probe_of(&cache, &g2, &sub2), Probe::Miss(_)),
            "a different operation label is a different structure"
        );
    }

    #[test]
    fn fused_views_are_uncacheable() {
        let (g, sub) = chain(4, 0, "fadd");
        let fused = SubDdg {
            nodes: sub.nodes.clone(),
            groups: None,
            kind: SubKind::Fused {
                map_part: sub.nodes.clone(),
                other_part: sub.nodes.clone(),
                other_kind: PatternKind::Map,
            },
        };
        let cache = default_cache();
        assert!(matches!(probe_of(&cache, &g, &fused), Probe::Uncacheable));
    }

    /// Runs the miss → match → fulfil cycle, asserting the probe missed.
    fn miss_and_fill(cache: &MatchCache, g: &Ddg, sub: &SubDdg) {
        let Probe::Miss(p) = probe_of(cache, g, sub) else {
            panic!("expected a miss")
        };
        cache.fulfil(p, sub, &match_subddg(g, sub, &MatchBudget::default()));
    }

    #[test]
    fn evicted_entries_recompute_byte_identical_results() {
        let cache = MatchCache::from_config(&QueryConfig {
            match_capacity: 1,
            ..QueryConfig::default()
        });
        let (g1, sub1) = chain(3, 0, "fadd");
        let (g2, sub2) = chain(4, 0, "fadd");
        let first = match_subddg(&g1, &sub1, &MatchBudget::default()).unwrap();
        miss_and_fill(&cache, &g1, &sub1);
        let small = cache.metrics().approx_bytes;
        miss_and_fill(&cache, &g2, &sub2); // evicts sub1's entry
        let m = cache.metrics();
        assert_eq!((m.entries, m.evictions), (1, 1));
        assert!(
            m.approx_bytes > small,
            "a 4-node chain's key and entry outweigh a 3-node chain's"
        );

        // Recompute after eviction, refill, and re-probe: every round
        // trip reproduces the original pattern exactly.
        let Probe::Miss(p) = probe_of(&cache, &g1, &sub1) else {
            panic!("evicted entry must miss")
        };
        let again = match_subddg(&g1, &sub1, &MatchBudget::default()).unwrap();
        assert_eq!(again.kind, first.kind);
        assert_eq!(again.detail, first.detail);
        assert_eq!(again.lines, first.lines);
        cache.fulfil(p, &sub1, &Some(again));
        let Probe::Hit(Some(rebuilt)) = probe_of(&cache, &g1, &sub1) else {
            panic!("refilled entry must hit")
        };
        assert_eq!(rebuilt.kind, first.kind);
        assert_eq!(rebuilt.detail, first.detail);
        assert_eq!(rebuilt.lines, first.lines);
    }

    #[test]
    fn loop_and_assoc_views_of_one_shape_do_not_collide() {
        let (g, sub) = chain(4, 0, "fadd");
        let as_loop = SubDdg::grouped(
            sub.nodes.clone(),
            (0..4).map(|i| vec![NodeId(i)]).collect(),
            SubKind::Loop { loop_id: 0 },
        );
        let cache = default_cache();
        let Probe::Miss(p1) = probe_of(&cache, &g, &sub) else {
            panic!()
        };
        cache.fulfil(p1, &sub, &match_subddg(&g, &sub, &MatchBudget::default()));
        assert!(
            matches!(probe_of(&cache, &g, &as_loop), Probe::Miss(_)),
            "different dispatch class must miss"
        );
    }
}
