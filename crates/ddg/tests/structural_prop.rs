//! Property tests of the match stage's structural key
//! ([`ddg::grouped_hash`]): equal keys must imply group-level
//! op-isomorphism of the compacted views (no false cache hits), and
//! op-preserving renamings must not change the key (no spurious misses
//! for isomorphic views). A third property checks that the hashed key
//! splits views exactly as the exact reference [`ddg::grouped_key`]
//! does, on graphs whose arcs ascend and on graphs with backward arcs.
//!
//! The oracle re-derives the §4-relevant facts with independent code
//! (naive DFS reachability, set-based encodings) so encoder bugs such as
//! ambiguous concatenation cannot hide.

use ddg::{grouped_hash, grouped_key, BitSet, Ddg, DdgBuilder, NodeId};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap};

const LABEL_BANK: [(&str, bool); 3] = [("fadd", true), ("fmul", true), ("call.sqrt", false)];

/// Specification of a random grouped view: a graph (arcs forced low →
/// high unless `backward`) plus a partition of a node subset into
/// consecutive groups.
#[derive(Clone, Debug)]
struct Spec {
    n: usize,
    arcs: Vec<(usize, usize)>,
    labels: Vec<usize>,
    ops: Vec<u32>,
    reads: Vec<bool>,
    writes: Vec<bool>,
    group_sizes: Vec<usize>,
    /// Keep arcs that run from a higher to a lower id too (the graph may
    /// then have cycles; both keys must still agree on it).
    backward: bool,
}

fn spec_strategy(max_n: usize) -> impl Strategy<Value = Spec> {
    (
        1usize..max_n,
        prop::collection::vec((0usize..8, 0usize..8), 0..10),
        prop::collection::vec(0usize..3, 8),
        prop::collection::vec(0u32..3, 8),
        prop::collection::vec(any::<bool>(), 8),
        prop::collection::vec(any::<bool>(), 8),
        prop::collection::vec(1usize..3, 1..4),
    )
        .prop_map(|(n, arcs, labels, ops, reads, writes, group_sizes)| Spec {
            n,
            arcs,
            labels,
            ops,
            reads,
            writes,
            group_sizes,
            backward: false,
        })
}

/// Materializes a spec. `label_perm` controls label interning order and
/// `op_offset` renames static ops — op-isomorphic transformations that
/// must not affect the key.
fn build(spec: &Spec, label_perm: bool, op_offset: u32) -> (Ddg, Vec<Vec<NodeId>>) {
    let mut b = DdgBuilder::new();
    let mut ids = HashMap::new();
    let order: Vec<usize> = if label_perm {
        vec![2, 1, 0]
    } else {
        vec![0, 1, 2]
    };
    for &k in &order {
        let (s, assoc) = LABEL_BANK[k];
        ids.insert(k, b.intern_label(s, assoc));
    }
    let nodes: Vec<NodeId> = (0..spec.n)
        .map(|i| {
            b.add_node(
                ids[&spec.labels[i]],
                spec.ops[i] + op_offset,
                0,
                1,
                1,
                0,
                vec![],
            )
        })
        .collect();
    for (i, &node) in nodes.iter().enumerate() {
        if spec.reads[i] {
            b.mark_reads_input(node);
        }
        if spec.writes[i] {
            b.mark_writes_output(node);
        }
    }
    for &(u, v) in &spec.arcs {
        let (u, v) = (u % spec.n, v % spec.n);
        if u < v || (spec.backward && u != v) {
            b.add_arc(nodes[u], nodes[v]);
        }
    }
    let g = b.finish();

    // Partition a prefix of the nodes into consecutive groups.
    let mut groups = Vec::new();
    let mut next = 0usize;
    for &size in &spec.group_sizes {
        let end = (next + size).min(spec.n);
        if next < end {
            groups.push((next..end).map(|i| nodes[i]).collect::<Vec<_>>());
        }
        next = end;
    }
    if groups.is_empty() {
        groups.push(vec![nodes[0]]);
    }
    (g, groups)
}

/// Per-group observables: sorted (label, assoc) pairs, the four
/// external/any-arc flags, and the canonical op sequence.
type GroupFacts = (Vec<(String, bool)>, [bool; 4], Vec<u64>);

/// Everything a §4 matcher can observe, derived with naive algorithms.
#[derive(PartialEq, Eq, Debug)]
struct Facts {
    groups: Vec<GroupFacts>,
    arcs: BTreeSet<(usize, usize)>,
    reaches: BTreeSet<(usize, usize)>,
    convex: bool,
}

fn naive_reach(g: &Ddg) -> Vec<BTreeSet<usize>> {
    let n = g.len();
    let mut reach: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
    for u in (0..n).rev() {
        let mut r = BTreeSet::new();
        for &v in g.succs(NodeId(u as u32)) {
            r.insert(v.index());
            r.extend(reach[v.index()].iter().copied());
        }
        reach[u] = r;
    }
    reach
}

fn facts(g: &Ddg, groups: &[Vec<NodeId>]) -> Facts {
    let mut group_of: HashMap<usize, usize> = HashMap::new();
    for (gi, members) in groups.iter().enumerate() {
        for &m in members {
            group_of.insert(m.index(), gi);
        }
    }
    let reach = naive_reach(g);

    let mut op_canon: HashMap<u32, u64> = HashMap::new();
    let mut out_groups = Vec::new();
    for members in groups {
        let mut labels: Vec<(String, bool)> = members
            .iter()
            .map(|&m| {
                let l = g.node(m).label;
                (g.label_str(l).to_string(), g.label_is_associative(l))
            })
            .collect();
        labels.sort();
        let ext_in = members.iter().any(|&m| {
            g.node(m).flags.contains(ddg::graph::NodeFlags::READS_INPUT)
                || g.preds(m)
                    .iter()
                    .any(|p| !group_of.contains_key(&p.index()))
        });
        let ext_out = members.iter().any(|&m| {
            g.node(m)
                .flags
                .contains(ddg::graph::NodeFlags::WRITES_OUTPUT)
                || g.succs(m)
                    .iter()
                    .any(|s| !group_of.contains_key(&s.index()))
        });
        let any_in = ext_in || members.iter().any(|&m| !g.preds(m).is_empty());
        let any_out = ext_out || members.iter().any(|&m| !g.succs(m).is_empty());
        let ops: Vec<u64> = members
            .iter()
            .map(|&m| {
                let fresh = op_canon.len() as u64;
                *op_canon.entry(g.node(m).static_op).or_insert(fresh)
            })
            .collect();
        out_groups.push((labels, [ext_in, ext_out, any_in, any_out], ops));
    }

    let mut arcs = BTreeSet::new();
    for (u, v) in g.arcs() {
        if let (Some(&gu), Some(&gv)) = (group_of.get(&u.index()), group_of.get(&v.index())) {
            if gu != gv {
                arcs.insert((gu, gv));
            }
        }
    }

    let mut reaches = BTreeSet::new();
    for (gi, members) in groups.iter().enumerate() {
        for &m in members {
            for &t in &reach[m.index()] {
                if let Some(&gt) = group_of.get(&t) {
                    if gt != gi {
                        reaches.insert((gi, gt));
                    }
                }
            }
        }
    }

    // Convex iff no outside node sits on a path between two subset nodes.
    let subset: BTreeSet<usize> = group_of.keys().copied().collect();
    let mut convex = true;
    for w in 0..g.len() {
        if subset.contains(&w) {
            continue;
        }
        let from_subset = subset.iter().any(|&u| reach[u].contains(&w));
        let to_subset = subset.iter().any(|&v| reach[w].contains(&v));
        if from_subset && to_subset {
            convex = false;
        }
    }

    Facts {
        groups: out_groups,
        arcs,
        reaches,
        convex,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Completeness: label-interning order and static-op renaming are
    /// invisible to the key (op-isomorphic views share a cache line).
    #[test]
    fn op_isomorphic_renaming_preserves_key(spec in spec_strategy(8)) {
        let (g1, groups1) = build(&spec, false, 0);
        let (g2, groups2) = build(&spec, true, 1000);
        prop_assert_eq!(
            grouped_hash(&g1, &groups1, 3),
            grouped_hash(&g2, &groups2, 3)
        );
    }

    /// Soundness: equal keys imply equal matcher-visible facts — a cache
    /// hit can never hand a sub-DDG a verdict derived from a view that a
    /// matcher could distinguish from it.
    #[test]
    fn equal_keys_imply_equal_facts(
        a in spec_strategy(4),
        b in spec_strategy(4),
    ) {
        let (ga, groups_a) = build(&a, false, 0);
        let (gb, groups_b) = build(&b, false, 0);
        if grouped_hash(&ga, &groups_a, 0) == grouped_hash(&gb, &groups_b, 0) {
            prop_assert_eq!(facts(&ga, &groups_a), facts(&gb, &groups_b));
        }
    }

    /// The hashed key splits views exactly as the exact reference does,
    /// whether the search bound applies (ascending arcs) or the key falls
    /// back to whole-graph searches (backward arcs).
    #[test]
    fn hashed_key_splits_views_like_the_exact_key(
        a in spec_strategy(4),
        b in spec_strategy(4),
        backward in any::<bool>(),
    ) {
        let (a, b) = (Spec { backward, ..a }, Spec { backward, ..b });
        let (ga, groups_a) = build(&a, false, 0);
        let (gb, groups_b) = build(&b, true, 7);
        prop_assert_eq!(
            grouped_key(&ga, &groups_a, 0) == grouped_key(&gb, &groups_b, 0),
            grouped_hash(&ga, &groups_a, 0) == grouped_hash(&gb, &groups_b, 0)
        );
    }

    /// The key agrees with the oracle on convexity of the grouped subset.
    #[test]
    fn convexity_bit_matches_naive_oracle(spec in spec_strategy(8)) {
        let (g, groups) = build(&spec, false, 0);
        let mut subset = BitSet::new(g.len());
        for members in &groups {
            for m in members {
                subset.insert(m.index());
            }
        }
        let fast = ddg::Reachability::compute(&g).is_convex(&g, &subset);
        prop_assert_eq!(fast, facts(&g, &groups).convex);
    }
}
