//! Structural keys for compacted (grouped) sub-DDG views.
//!
//! A [`StructuralKey`] is a canonical byte-exact encoding of everything a
//! pattern matcher can observe about a grouped sub-DDG under the paper's
//! §4 isomorphism relaxations:
//!
//! - per group, the sorted multiset of member operation labels with their
//!   associativity flags, and the member count (relaxed op-isomorphism);
//! - per group, external input/output availability and any-in/any-out
//!   flags (constraints 2c/2d/3e/3f);
//! - the deduplicated inter-group arcs, in group-index order;
//! - group-level reachability through the *full* graph, including paths
//!   through nodes outside the subset (convexity 1e, chaining 3c);
//! - the equality pattern of member static operations, canonically
//!   renumbered by first occurrence ("a reduction repeats one static
//!   operation");
//! - convexity of the whole subset within the full graph.
//!
//! Two sub-DDGs with equal keys are *op-isomorphic at the group level*
//! (same label multisets, flags, arc shape, reachability shape, and
//! static-op equality pattern, group-by-group in index order), so a
//! matcher that only consumes those facts — which the pattern models do —
//! must produce the same verdict for both. That is what makes the key
//! safe to use as a memo-cache key for match results. The encoding is
//! used directly as the cache key (no lossy hashing), so colliding hashes
//! cannot produce false cache hits.

use crate::algo::{is_convex, reachable_from};
use crate::bitset::BitSet;
use crate::graph::{Ddg, NodeFlags, NodeId};
use std::collections::HashMap;

/// A canonical structural encoding; equality ⇒ group-level
/// op-isomorphism of the encoded views.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StructuralKey {
    words: Vec<u64>,
}

impl StructuralKey {
    /// Size of the encoding in 64-bit words (the match cache's byte
    /// accounting).
    pub fn len_words(&self) -> usize {
        self.words.len()
    }
}

/// Streaming encoder producing [`StructuralKey`]s. Every record is
/// length- or tag-prefixed so distinct fact sequences can never encode to
/// the same word stream.
pub struct KeyBuilder {
    words: Vec<u64>,
}

impl KeyBuilder {
    pub fn new(tag: u64) -> Self {
        KeyBuilder { words: vec![tag] }
    }

    pub fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    /// Length-prefixed UTF-8 bytes packed into words.
    pub fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        self.words.push(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = 0u64;
            for (i, &b) in chunk.iter().enumerate() {
                w |= (b as u64) << (i * 8);
            }
            self.words.push(w);
        }
    }

    /// Length-prefixed word sequence.
    pub fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let start = self.words.len();
        self.words.push(0);
        let mut n = 0u64;
        for w in ws {
            self.words.push(w);
            n += 1;
        }
        self.words[start] = n;
    }

    pub fn finish(self) -> StructuralKey {
        StructuralKey { words: self.words }
    }
}

/// Computes the structural key of the grouped view of `groups` within
/// `g`. `tag` distinguishes encodings that share a shape but are matched
/// differently (callers pass the sub-DDG kind discriminant).
///
/// The group semantics mirror the finder's quotient view: flags and
/// reachability are computed against the *full* graph, so the key sees
/// exactly the facts the matcher's compaction would. Every graph fact
/// (per-group reachability, convexity) comes from targeted searches
/// bounded by the view's own cone — keying never pays for an all-pairs
/// closure of the full graph.
pub fn grouped_key(g: &Ddg, groups: &[Vec<NodeId>], tag: u64) -> StructuralKey {
    let mut b = KeyBuilder::new(tag);

    // node -> group index for membership tests.
    let mut group_of: Vec<Option<u32>> = vec![None; g.len()];
    for (gi, members) in groups.iter().enumerate() {
        for &m in members {
            group_of[m.index()] = Some(gi as u32);
        }
    }

    // Canonical static-op numbering by first occurrence across the whole
    // member stream; preserves the equality pattern, drops raw ids.
    let mut op_canon: HashMap<u32, u64> = HashMap::new();

    b.word(groups.len() as u64);
    for members in groups {
        // Label multiset: (string, associativity) sorted by string so the
        // encoding is independent of label-id interning order.
        let mut labels: Vec<(&str, bool)> = members
            .iter()
            .map(|&m| {
                let l = g.node(m).label;
                (g.label_str(l), g.label_is_associative(l))
            })
            .collect();
        labels.sort_unstable();
        b.word(labels.len() as u64);
        for (s, assoc) in labels {
            b.str(s);
            b.word(assoc as u64);
        }

        // Flags, mirroring the quotient's definitions.
        let ext_in = members.iter().any(|&m| {
            g.node(m).flags.contains(NodeFlags::READS_INPUT)
                || g.preds(m).iter().any(|p| group_of[p.index()].is_none())
        });
        let ext_out = members.iter().any(|&m| {
            g.node(m).flags.contains(NodeFlags::WRITES_OUTPUT)
                || g.succs(m).iter().any(|s| group_of[s.index()].is_none())
        });
        let any_in = ext_in || members.iter().any(|&m| !g.preds(m).is_empty());
        let any_out = ext_out || members.iter().any(|&m| !g.succs(m).is_empty());
        b.word(
            (ext_in as u64) | (ext_out as u64) << 1 | (any_in as u64) << 2 | (any_out as u64) << 3,
        );

        // Static-op equality pattern over members, in member order.
        let ops: Vec<u64> = members
            .iter()
            .map(|&m| {
                let id = g.node(m).static_op;
                let fresh = op_canon.len() as u64;
                *op_canon.entry(id).or_insert(fresh)
            })
            .collect();
        b.words(ops);
    }

    // Inter-group arcs, deduplicated, in index order.
    let n = groups.len();
    let mut arc_set: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, members) in groups.iter().enumerate() {
        for &m in members {
            for &s in g.succs(m) {
                if let Some(ti) = group_of[s.index()] {
                    let ti = ti as usize;
                    if ti != gi {
                        arc_set[gi].push(ti);
                    }
                }
            }
        }
    }
    let mut arc_words = Vec::new();
    for (gi, list) in arc_set.iter_mut().enumerate() {
        list.sort_unstable();
        list.dedup();
        for &t in list.iter() {
            arc_words.push(((gi as u64) << 32) | t as u64);
        }
    }
    b.words(arc_words);

    // Group-level reachability through the full graph (irreflexive).
    let mut reach_words = Vec::new();
    for (gi, members) in groups.iter().enumerate() {
        let closure = reachable_from(g, members.iter().copied());
        let mut targets: Vec<usize> = Vec::new();
        for x in closure.iter() {
            if let Some(t) = group_of[x] {
                let t = t as usize;
                if t != gi {
                    targets.push(t);
                }
            }
        }
        targets.sort_unstable();
        targets.dedup();
        for t in targets {
            reach_words.push(((gi as u64) << 32) | t as u64);
        }
    }
    b.words(reach_words);

    // Convexity of the member union within the full graph.
    let mut subset = BitSet::new(g.len());
    for members in groups {
        for &m in members {
            subset.insert(m.index());
        }
    }
    b.word(is_convex(g, &subset) as u64);

    b.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DdgBuilder;

    fn two_group_graph(label_order_swapped: bool) -> (Ddg, Vec<Vec<NodeId>>) {
        let mut b = DdgBuilder::new();
        // Interning order must not affect the key.
        let (f, a) = if label_order_swapped {
            let a = b.intern_label("fadd", true);
            let f = b.intern_label("fmul", true);
            (f, a)
        } else {
            let f = b.intern_label("fmul", true);
            let a = b.intern_label("fadd", true);
            (f, a)
        };
        let n: Vec<NodeId> = vec![
            b.add_node(f, 0, 0, 1, 1, 0, vec![]),
            b.add_node(a, 1, 0, 2, 1, 0, vec![]),
            b.add_node(f, 0, 0, 1, 1, 0, vec![]),
            b.add_node(a, 1, 0, 2, 1, 0, vec![]),
        ];
        b.add_arc(n[0], n[1]);
        b.add_arc(n[1], n[2]);
        b.add_arc(n[2], n[3]);
        b.mark_reads_input(n[0]);
        b.mark_writes_output(n[3]);
        let g = b.finish();
        (g, vec![vec![n[0], n[1]], vec![n[2], n[3]]])
    }

    #[test]
    fn key_is_independent_of_label_interning_order() {
        let (g1, groups1) = two_group_graph(false);
        let (g2, groups2) = two_group_graph(true);
        assert_eq!(grouped_key(&g1, &groups1, 0), grouped_key(&g2, &groups2, 0));
    }

    #[test]
    fn key_is_independent_of_static_op_ids() {
        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        // Same shape as a 3-chain but with static op 7 instead of 0.
        let n: Vec<NodeId> = (0..3)
            .map(|_| b.add_node(l, 7, 0, 1, 1, 0, vec![]))
            .collect();
        b.add_arc(n[0], n[1]);
        b.add_arc(n[1], n[2]);
        let g_renamed = b.finish();

        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let n: Vec<NodeId> = (0..3)
            .map(|_| b.add_node(l, 0, 0, 1, 1, 0, vec![]))
            .collect();
        b.add_arc(n[0], n[1]);
        b.add_arc(n[1], n[2]);
        let g = b.finish();

        let groups: Vec<Vec<NodeId>> = (0..3).map(|i| vec![NodeId(i)]).collect();
        assert_eq!(
            grouped_key(&g, &groups, 1),
            grouped_key(&g_renamed, &groups, 1)
        );
    }

    #[test]
    fn distinct_ops_get_distinct_numbers() {
        // Two nodes with DIFFERENT static ops in one group must not key
        // equal to two nodes with the SAME static op.
        let build = |ops: [u32; 2]| {
            let mut b = DdgBuilder::new();
            let l = b.intern_label("fadd", true);
            let x = b.add_node(l, ops[0], 0, 1, 1, 0, vec![]);
            let y = b.add_node(l, ops[1], 0, 1, 1, 0, vec![]);
            let g = b.finish();
            grouped_key(&g, &[vec![x, y]], 0)
        };
        assert_ne!(build([0, 0]), build([0, 1]));
        assert_eq!(
            build([3, 9]),
            build([0, 1]),
            "only the equality pattern matters"
        );
    }

    #[test]
    fn tag_and_shape_changes_change_the_key() {
        let (g, groups) = two_group_graph(false);
        let base = grouped_key(&g, &groups, 0);
        assert_ne!(base, grouped_key(&g, &groups, 1), "tag");

        // Dropping the cross-group arc changes arcs and reachability.
        let mut b = DdgBuilder::new();
        let f = b.intern_label("fmul", true);
        let a = b.intern_label("fadd", true);
        let n: Vec<NodeId> = vec![
            b.add_node(f, 0, 0, 1, 1, 0, vec![]),
            b.add_node(a, 1, 0, 2, 1, 0, vec![]),
            b.add_node(f, 0, 0, 1, 1, 0, vec![]),
            b.add_node(a, 1, 0, 2, 1, 0, vec![]),
        ];
        b.add_arc(n[0], n[1]);
        b.add_arc(n[2], n[3]);
        b.mark_reads_input(n[0]);
        b.mark_writes_output(n[3]);
        let g2 = b.finish();
        let groups2 = vec![vec![n[0], n[1]], vec![n[2], n[3]]];
        assert_ne!(base, grouped_key(&g2, &groups2, 0));
    }

    #[test]
    fn string_encoding_is_unambiguous() {
        // ["ab"] in one group vs ["a", "b"]-ish shapes must differ even
        // though the concatenated bytes agree.
        let build = |names: &[&str]| {
            let mut b = DdgBuilder::new();
            let ids: Vec<_> = names.iter().map(|s| b.intern_label(s, false)).collect();
            let nodes: Vec<NodeId> = ids
                .iter()
                .map(|&l| b.add_node(l, 0, 0, 1, 1, 0, vec![]))
                .collect();
            let g = b.finish();
            grouped_key(&g, &[nodes], 0)
        };
        assert_ne!(build(&["ab"]), build(&["a", "b"]));
    }

    #[test]
    fn reach_through_outside_is_part_of_the_key() {
        // 0 -> 1 -> 2 with only {0, 2} in the view: reach must be seen.
        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let n: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(l, i, 0, 1, 1, 0, vec![]))
            .collect();
        b.add_arc(n[0], n[1]);
        b.add_arc(n[1], n[2]);
        let g = b.finish();

        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let m: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(l, i, 0, 1, 1, 0, vec![]))
            .collect();
        // No arcs at all.
        let g_disjoint = b.finish();
        let _ = &m;

        let view = |g: &Ddg, a: NodeId, c: NodeId| grouped_key(g, &[vec![a], vec![c]], 0);
        assert_ne!(view(&g, n[0], n[2]), view(&g_disjoint, m[0], m[2]));
    }
}
