//! Structural keys for compacted (grouped) sub-DDG views.
//!
//! [`grouped_hash`] is the match stage's cache key: a 128-bit
//! [`WordHasher`] digest of everything a pattern matcher can observe
//! about a grouped sub-DDG under the paper's §4 isomorphism
//! relaxations:
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
//! Views with equal facts are *op-isomorphic at the group level* (same
//! label multisets, flags, arc shape, reachability shape, and static-op
//! equality pattern, group-by-group in index order), so a matcher that
//! only consumes those facts — which the pattern models do — must
//! produce the same verdict for both, and they hash equal. The converse
//! holds up to collision odds: like every other content-addressed stage
//! (DESIGN.md §18), the key is sound because two different fact streams
//! do not collide in 128 bits at cache scale, not because the encoding
//! is kept whole.
//!
//! [`grouped_key`] encodes the same facts as an exact word vector. It is
//! the reference the hashed key is tested against (the root
//! `key_agreement` corpus test and `ddg/tests/structural_prop.rs`), not
//! a production path.
//!
//! **Cost.** Keying is linear in the view plus its searches, and the
//! searches are bounded: arcs of a traced DDG run from lower to higher
//! node ids ([`Ddg::arcs_ascend`]), so no node after the view's largest
//! member can lead back into it, and every reachability and convexity
//! search stops there. A graph whose arcs do not ascend (only
//! hand-built ones) searches the whole graph instead, giving the exact
//! relation either way. All per-node state lives in one reusable
//! per-thread scratch, stamped per view and per search, so a probe
//! allocates nothing `g.len()`-sized.

use crate::algo::{is_convex, reachable_from};
use crate::bitset::BitSet;
use crate::graph::{Ddg, LabelId, NodeFlags, NodeId};
use repro_ir::{ContentHash, WordHasher};
use std::cell::RefCell;
use std::collections::HashMap;

/// A canonical structural encoding; equality ⇒ group-level
/// op-isomorphism of the encoded views. The exact reference for
/// [`grouped_hash`].
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct StructuralKey {
    words: Vec<u64>,
}

/// Streaming encoder producing [`StructuralKey`]s. Every record is
/// length- or tag-prefixed so distinct fact sequences can never encode to
/// the same word stream.
struct KeyBuilder {
    words: Vec<u64>,
}

impl KeyBuilder {
    fn new(tag: u64) -> Self {
        KeyBuilder { words: vec![tag] }
    }

    fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    /// Length-prefixed UTF-8 bytes packed into words.
    fn str(&mut self, s: &str) {
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
    fn words(&mut self, ws: impl IntoIterator<Item = u64>) {
        let start = self.words.len();
        self.words.push(0);
        let mut n = 0u64;
        for w in ws {
            self.words.push(w);
            n += 1;
        }
        self.words[start] = n;
    }

    fn finish(self) -> StructuralKey {
        StructuralKey { words: self.words }
    }
}

/// The exact structural key of the grouped view of `groups` within
/// `g`: the reference encoding [`grouped_hash`] streams into a hash.
/// `tag` distinguishes encodings that share a shape but are matched
/// differently (callers pass the sub-DDG kind discriminant).
///
/// The group semantics mirror the finder's quotient view: flags and
/// reachability are computed against the *full* graph, so the key sees
/// exactly the facts the matcher's compaction would. Its searches are
/// unbounded full-graph closures, one per group — the straightforward
/// form the bounded production key is checked against.
pub fn grouped_key<G: AsRef<[NodeId]>>(g: &Ddg, groups: &[G], tag: u64) -> StructuralKey {
    let mut b = KeyBuilder::new(tag);

    // node -> group index for membership tests.
    let mut group_of: Vec<Option<u32>> = vec![None; g.len()];
    for (gi, members) in groups.iter().enumerate() {
        for &m in members.as_ref() {
            group_of[m.index()] = Some(gi as u32);
        }
    }

    // Canonical static-op numbering by first occurrence across the whole
    // member stream; preserves the equality pattern, drops raw ids.
    let mut op_canon: HashMap<u32, u64> = HashMap::new();

    b.word(groups.len() as u64);
    for members in groups {
        let members = members.as_ref();
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
        for &m in members.as_ref() {
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
        let closure = reachable_from(g, members.as_ref().iter().copied());
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
        for &m in members.as_ref() {
            subset.insert(m.index());
        }
    }
    b.word(is_convex(g, &subset) as u64);

    b.finish()
}

/// The match stage's key for the grouped view of `groups` within `g`:
/// the facts [`grouped_key`] encodes, streamed in the same order with
/// the same length prefixes into a 128-bit [`WordHasher`] digest. Two
/// differences in form, none in content:
///
/// - the view's distinct `(label string, associativity)` pairs are
///   hashed once, sorted, up front; each member then contributes its
///   label's rank in that table, so a group's sorted ranks stand for
///   its sorted label multiset;
/// - reachability and convexity searches stop at the view's largest
///   member id when the graph's arcs ascend (see the module docs).
pub fn grouped_hash<G: AsRef<[NodeId]>>(g: &Ddg, groups: &[G], tag: u64) -> ContentHash {
    thread_local! {
        static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
    }
    SCRATCH.with(|s| s.borrow_mut().hash(g, groups, tag))
}

/// `member[n].0` sentinel: the node belongs to no view yet.
const NO_VIEW: u32 = 0;

/// Reusable keying state of one thread. Node- and label-indexed arrays
/// carry the stamp of the view or search that last wrote them, so a new
/// view or search starts by bumping a counter instead of clearing
/// `g.len()` entries.
#[derive(Default)]
struct Scratch {
    /// Per node: (view stamp, group index) — a member of the current
    /// view iff the stamp is `view`.
    member: Vec<(u32, u32)>,
    /// Per node: the search stamp that last visited it.
    seen: Vec<u32>,
    /// Per label id: (view stamp, rank in the view's label table).
    label: Vec<(u32, u32)>,
    /// Per group: the search stamp that last recorded it as a target.
    target: Vec<u32>,
    view: u32,
    search: u32,
    /// Static op -> canonical number, by first occurrence.
    ops: HashMap<u32, u32>,
    stack: Vec<NodeId>,
    /// Distinct label ids of the view, then per-group ranks or targets.
    ids: Vec<u32>,
    /// Arc or reach words of the whole view.
    pairs: Vec<u64>,
}

impl Scratch {
    /// Sizes the arrays for `g` and `n_groups` and opens a new view.
    fn begin_view(&mut self, g: &Ddg, n_groups: usize) {
        // A much larger graph seen earlier does not pin its footprint.
        if self.member.len() > (4 * g.len()).max(1 << 16) {
            *self = Scratch::default();
        }
        if self.member.len() < g.len() {
            self.member.resize(g.len(), (NO_VIEW, 0));
            self.seen.resize(g.len(), 0);
        }
        if self.label.len() < g.label_count() {
            self.label.resize(g.label_count(), (NO_VIEW, 0));
        }
        if self.target.len() < n_groups {
            self.target.resize(n_groups, 0);
        }
        self.view = self.view.wrapping_add(1);
        if self.view == NO_VIEW {
            self.member.fill((NO_VIEW, 0));
            self.label.fill((NO_VIEW, 0));
            self.view = 1;
        }
        self.ops.clear();
        self.stack.clear();
    }

    /// Opens a new search over `seen` and `target`.
    fn begin_search(&mut self) -> u32 {
        self.search = self.search.wrapping_add(1);
        if self.search == 0 {
            self.seen.fill(0);
            self.target.fill(0);
            self.search = 1;
        }
        self.search
    }

    #[inline]
    fn group_of(&self, n: NodeId) -> Option<u32> {
        let (stamp, gi) = self.member[n.index()];
        (stamp == self.view).then_some(gi)
    }

    fn hash<G: AsRef<[NodeId]>>(&mut self, g: &Ddg, groups: &[G], tag: u64) -> ContentHash {
        self.begin_view(g, groups.len());
        let view = self.view;
        let mut h = WordHasher::new();
        h.write_u64(tag);

        // Membership, the largest member id, and the view's label table.
        let mut hi = 0usize;
        self.ids.clear();
        for (gi, members) in groups.iter().enumerate() {
            for &m in members.as_ref() {
                self.member[m.index()] = (view, gi as u32);
                hi = hi.max(m.index());
                let l = g.node(m).label.0 as usize;
                if self.label[l].0 != view {
                    self.label[l].0 = view;
                    self.ids.push(l as u32);
                }
            }
        }
        let bound = if g.arcs_ascend() {
            hi
        } else {
            g.len().saturating_sub(1)
        };
        let entry = |l: u32| {
            let l = LabelId(l);
            (g.label_str(l), g.label_is_associative(l))
        };
        self.ids.sort_unstable_by(|&x, &y| entry(x).cmp(&entry(y)));
        let mut distinct = 0u64;
        for (i, &l) in self.ids.iter().enumerate() {
            if i == 0 || entry(self.ids[i - 1]) != entry(l) {
                distinct += 1;
            }
            self.label[l as usize].1 = distinct as u32;
        }
        h.write_u64(distinct);
        for (i, &l) in self.ids.iter().enumerate() {
            if i == 0 || entry(self.ids[i - 1]) != entry(l) {
                let (s, assoc) = entry(l);
                h.write_str(s);
                h.write_u64(assoc as u64);
            }
        }

        h.write_u64(groups.len() as u64);
        for members in groups {
            let members = members.as_ref();
            self.ids.clear();
            self.ids.extend(
                members
                    .iter()
                    .map(|&m| self.label[g.node(m).label.0 as usize].1),
            );
            self.ids.sort_unstable();
            h.write_u32s(self.ids.iter().copied());

            let outside = |n: &NodeId| self.member[n.index()].0 != view;
            let ext_in = members.iter().any(|&m| {
                g.node(m).flags.contains(NodeFlags::READS_INPUT) || g.preds(m).iter().any(outside)
            });
            let ext_out = members.iter().any(|&m| {
                g.node(m).flags.contains(NodeFlags::WRITES_OUTPUT) || g.succs(m).iter().any(outside)
            });
            let any_in = ext_in || members.iter().any(|&m| !g.preds(m).is_empty());
            let any_out = ext_out || members.iter().any(|&m| !g.succs(m).is_empty());
            h.write_u64(
                (ext_in as u64)
                    | (ext_out as u64) << 1
                    | (any_in as u64) << 2
                    | (any_out as u64) << 3,
            );

            let ops = &mut self.ops;
            h.write_u32s(members.iter().map(|&m| {
                let fresh = ops.len() as u32;
                *ops.entry(g.node(m).static_op).or_insert(fresh)
            }));
        }

        // Inter-group arcs, deduplicated, in index order.
        self.pairs.clear();
        for (gi, members) in groups.iter().enumerate() {
            self.ids.clear();
            for &m in members.as_ref() {
                for &s in g.succs(m) {
                    match self.group_of(s) {
                        Some(t) if t as usize != gi => self.ids.push(t),
                        _ => {}
                    }
                }
            }
            self.ids.sort_unstable();
            self.ids.dedup();
            self.pairs
                .extend(self.ids.iter().map(|&t| (gi as u64) << 32 | t as u64));
        }
        self.write_pairs(&mut h);

        // Group-level reachability (irreflexive), one bounded search
        // per group.
        self.pairs.clear();
        for (gi, members) in groups.iter().enumerate() {
            let stamp = self.begin_search();
            self.ids.clear();
            for &m in members.as_ref() {
                self.push_succs(g, m, bound, stamp);
            }
            while let Some(u) = self.stack.pop() {
                if let Some(t) = self.group_of(u) {
                    if t as usize != gi && self.target[t as usize] != stamp {
                        self.target[t as usize] = stamp;
                        self.ids.push(t);
                    }
                }
                self.push_succs(g, u, bound, stamp);
            }
            self.ids.sort_unstable();
            self.pairs
                .extend(self.ids.iter().map(|&t| (gi as u64) << 32 | t as u64));
        }
        self.write_pairs(&mut h);

        // Convexity of the member union: no search from an exit arc may
        // re-enter the view.
        let stamp = self.begin_search();
        for members in groups {
            for &m in members.as_ref() {
                for &v in g.succs(m) {
                    if self.group_of(v).is_none()
                        && v.index() <= bound
                        && self.seen[v.index()] != stamp
                    {
                        self.seen[v.index()] = stamp;
                        self.stack.push(v);
                    }
                }
            }
        }
        let mut convex = true;
        while let Some(u) = self.stack.pop() {
            if self.group_of(u).is_some() {
                convex = false;
                self.stack.clear();
                break;
            }
            self.push_succs(g, u, bound, stamp);
        }
        h.write_u64(convex as u64);

        h.finish()
    }

    /// Pushes `u`'s successors up to `bound` not yet seen by `stamp`.
    #[inline]
    fn push_succs(&mut self, g: &Ddg, u: NodeId, bound: usize, stamp: u32) {
        for &v in g.succs(u) {
            if v.index() <= bound && self.seen[v.index()] != stamp {
                self.seen[v.index()] = stamp;
                self.stack.push(v);
            }
        }
    }

    /// Writes `pairs` as one length-prefixed word sequence.
    fn write_pairs(&self, h: &mut WordHasher) {
        h.write_u64(self.pairs.len() as u64);
        for &w in &self.pairs {
            h.write_u64(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::DdgBuilder;

    type Keys = (StructuralKey, ContentHash);

    /// The exact reference and the hashed key of one view.
    fn keys<G: AsRef<[NodeId]>>(g: &Ddg, groups: &[G], tag: u64) -> Keys {
        (grouped_key(g, groups, tag), grouped_hash(g, groups, tag))
    }

    /// Whether two views key equal, checking that the hashed key splits
    /// them exactly as the reference does.
    fn same(a: Keys, b: Keys) -> bool {
        let exact = a.0 == b.0;
        assert_eq!(exact, a.1 == b.1, "hashed key disagrees with the reference");
        exact
    }

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
        assert!(same(keys(&g1, &groups1, 0), keys(&g2, &groups2, 0)));
    }

    #[test]
    fn key_is_independent_of_static_op_ids() {
        let chain = |op: u32| {
            let mut b = DdgBuilder::new();
            let l = b.intern_label("fadd", true);
            let n: Vec<NodeId> = (0..3)
                .map(|_| b.add_node(l, op, 0, 1, 1, 0, vec![]))
                .collect();
            b.add_arc(n[0], n[1]);
            b.add_arc(n[1], n[2]);
            b.finish()
        };
        // Same 3-chain, static op 7 instead of 0.
        let (g, g_renamed) = (chain(0), chain(7));
        let groups: Vec<Vec<NodeId>> = (0..3).map(|i| vec![NodeId(i)]).collect();
        assert!(same(keys(&g, &groups, 1), keys(&g_renamed, &groups, 1)));
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
            keys(&g, &[vec![x, y]], 0)
        };
        assert!(!same(build([0, 0]), build([0, 1])));
        assert!(
            same(build([3, 9]), build([0, 1])),
            "only the equality pattern matters"
        );
    }

    #[test]
    fn tag_and_shape_changes_change_the_key() {
        let (g, groups) = two_group_graph(false);
        assert!(!same(keys(&g, &groups, 0), keys(&g, &groups, 1)), "tag");

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
        assert!(!same(keys(&g, &groups, 0), keys(&g2, &groups2, 0)));
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
            keys(&g, &[nodes], 0)
        };
        assert!(!same(build(&["ab"]), build(&["a", "b"])));
    }

    /// Four nodes; the view is `{0}` and `{2}` (both reading input, so
    /// their flags cannot tell the graphs apart) plus `extra` arcs.
    fn view_graph(extra: &[(u32, u32)]) -> (Ddg, Vec<Vec<NodeId>>) {
        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let n: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(l, i, 0, 1, 1, 0, vec![]))
            .collect();
        b.mark_reads_input(n[0]);
        b.mark_reads_input(n[2]);
        for &(u, v) in extra {
            b.add_arc(NodeId(u), NodeId(v));
        }
        (b.finish(), vec![vec![n[0]], vec![n[2]]])
    }

    #[test]
    fn reach_through_outside_is_part_of_the_key() {
        // 0 -> 1 -> 2 with only {0, 2} in the view: reach must be seen.
        let (g, view) = view_graph(&[(0, 1), (1, 2)]);
        let (g_disjoint, _) = view_graph(&[(0, 1)]);
        assert!(!same(keys(&g, &view, 0), keys(&g_disjoint, &view, 0)));
    }

    #[test]
    fn a_backward_arc_beyond_the_view_falls_back_to_the_exact_relation() {
        // 0 -> 3 -> 2: the path into the view runs through node 3, past
        // the largest member id, over a backward arc. A search bounded at
        // the view's last member would miss it; the graph does not
        // ascend, so keying searches the whole graph and sees the reach
        // and the broken convexity, exactly as through a forward path.
        let (backward, view) = view_graph(&[(0, 3), (3, 2)]);
        assert!(!backward.arcs_ascend());
        let (forward, _) = view_graph(&[(0, 1), (1, 2), (0, 3)]);
        let (no_path, _) = view_graph(&[(0, 3), (1, 2)]);
        assert!(forward.arcs_ascend() && no_path.arcs_ascend());
        assert!(same(keys(&backward, &view, 0), keys(&forward, &view, 0)));
        assert!(!same(keys(&backward, &view, 0), keys(&no_path, &view, 0)));
    }

    #[test]
    fn scratch_reuse_across_graphs_and_views_is_stateless() {
        // Interleaved probes of different graphs and views on one thread
        // key exactly as each would alone.
        let (g1, groups1) = two_group_graph(false);
        let (g2, view2) = view_graph(&[(0, 1), (1, 2)]);
        let first = (grouped_hash(&g1, &groups1, 0), grouped_hash(&g2, &view2, 0));
        for _ in 0..3 {
            assert_eq!(grouped_hash(&g2, &view2, 0), first.1);
            assert_eq!(grouped_hash(&g1, &groups1, 0), first.0);
            assert_eq!(grouped_hash(&g1, &groups1[..1], 0), {
                let (g, gs) = two_group_graph(true);
                grouped_hash(&g, &gs[..1], 0)
            });
        }
    }
}
