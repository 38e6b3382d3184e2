//! The DDG graph type and its builder.

use crate::bitset::BitSet;
use serde::{Deserialize, Serialize};

/// Index of a DDG node (one execution of one IR operation).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl NodeId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Debug for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Interned operation label (`fadd`, `call.sqrt`, …).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct LabelId(pub u32);

/// One frame of a node's dynamic loop scope: the node executed within
/// iteration `iter` of dynamic activation `instance` of static loop
/// `loop_id`. A loop body re-entered by several threads (the worker loops of
/// Pthreads code) yields several instances of the same static loop — which
/// is exactly why the paper's loop DDGs span threads.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub struct ScopeEntry {
    pub loop_id: u32,
    pub instance: u32,
    pub iter: u32,
}

/// Minimal bitflags implementation (avoids an extra dependency).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])* pub struct $name:ident : $ty:ty {
            $($(#[$fmeta:meta])* const $flag:ident = $value:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, PartialEq, Eq, Default, Debug, Serialize, Deserialize)]
        pub struct $name(pub $ty);
        impl $name {
            $($(#[$fmeta])* pub const $flag: $name = $name($value);)*
            #[inline]
            pub fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }
            #[inline]
            pub fn insert(&mut self, other: $name) {
                self.0 |= other.0;
            }
        }
        impl std::ops::BitOr for $name {
            type Output = $name;
            fn bitor(self, rhs: $name) -> $name {
                $name(self.0 | rhs.0)
            }
        }
    };
}

bitflags_lite! {
    /// Per-node boolean facts recorded by the tracer.
    pub struct NodeFlags: u8 {
        /// The node's value was consumed as a memory address at least once.
        const ADDRESS_USED = 1;
        /// The node's value was consumed by a branch condition.
        const CONTROL_USED = 2;
        /// The node executes an operation classified as loop traversal by
        /// generalized iterator recognition.
        const ITERATOR = 4;
        /// At least one operand was read from raw program input (memory
        /// initialized by the host rather than a traced operation) — the
        /// paper's "sourceless arcs".
        const READS_INPUT = 8;
        /// The node's value reached program output (e.g. a buffer handed to
        /// `fwrite`, which the paper traces as a standard-function call).
        const WRITES_OUTPUT = 16;
    }
}

/// A DDG node: one dynamic execution of a static operation.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Node {
    /// Interned operation label.
    pub label: LabelId,
    /// Static operation id (`repro_ir::OpId` raw value).
    pub static_op: u32,
    /// Source position (file index, 1-based line/col; 0 = none).
    pub file: u16,
    pub line: u32,
    pub col: u32,
    /// Executing thread.
    pub thread: u16,
    /// Dynamic loop scope, outermost first.
    pub scope: Box<[ScopeEntry]>,
    /// Tracer-recorded facts.
    pub flags: NodeFlags,
}

/// An immutable dynamic dataflow graph.
///
/// Adjacency is stored in CSR form — one offsets array plus one flat
/// arcs array per direction — so the whole graph is four allocations
/// instead of two `Vec`s per node, and [`Self::succs`]/[`Self::preds`]
/// are offset-window slices. Per-node lists are sorted and deduplicated
/// by construction ([`DdgBuilder::finish`] and [`Self::induced`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Ddg {
    labels: Vec<String>,
    label_assoc: Vec<bool>,
    nodes: Vec<Node>,
    succ_offsets: Vec<u32>,
    succ_arcs: Vec<NodeId>,
    pred_offsets: Vec<u32>,
    pred_arcs: Vec<NodeId>,
    /// Every arc runs from a lower to a higher node id.
    ascending: bool,
}

impl Ddg {
    /// Number of nodes — the paper's "DDG size".
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total number of arcs.
    pub fn arc_count(&self) -> usize {
        self.succ_arcs.len()
    }

    /// True when every arc runs from a lower to a higher node id, so no
    /// path leads from a node to an earlier one. Traced graphs always
    /// ascend (a definition is traced before its uses) and
    /// [`Self::induced`] keeps the order; searches that bound themselves
    /// by id check this first.
    pub fn arcs_ascend(&self) -> bool {
        self.ascending
    }

    /// The node record.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Value-flow successors of a node.
    #[inline]
    pub fn succs(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.succ_arcs[self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize]
    }

    /// Value-flow predecessors of a node.
    #[inline]
    pub fn preds(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.pred_arcs[self.pred_offsets[i] as usize..self.pred_offsets[i + 1] as usize]
    }

    /// Number of interned labels; ids run `0..label_count()`.
    pub fn label_count(&self) -> usize {
        self.labels.len()
    }

    /// The string of a label.
    pub fn label_str(&self, l: LabelId) -> &str {
        &self.labels[l.0 as usize]
    }

    /// Whether the operation behind a label is known associative.
    pub fn label_is_associative(&self, l: LabelId) -> bool {
        self.label_assoc[l.0 as usize]
    }

    /// Looks up a label by string.
    pub fn find_label(&self, s: &str) -> Option<LabelId> {
        self.labels
            .iter()
            .position(|l| l == s)
            .map(|i| LabelId(i as u32))
    }

    /// All arcs `(u, v)`.
    pub fn arcs(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |u| self.succs(u).iter().map(move |&v| (u, v)))
    }

    /// The innermost loop scope frame of a node, if it executed in a loop.
    pub fn innermost_scope(&self, id: NodeId) -> Option<ScopeEntry> {
        self.node(id).scope.last().copied()
    }

    /// Restricts the graph to `keep`, dropping all other nodes and every
    /// arc touching them. Returns the new graph and the mapping from old
    /// node ids to new ones.
    ///
    /// Subset-local: walks only the kept nodes' successor lists, never
    /// the whole arc array, so the cost is O(|keep| + arcs leaving kept
    /// nodes) regardless of how big the rest of the graph is.
    pub fn induced(&self, keep: &BitSet) -> (Ddg, Vec<Option<NodeId>>) {
        let (g, map, _visited) = self.induced_counted(keep);
        (g, map)
    }

    /// [`Self::induced`], also returning the number of adjacency entries
    /// visited — exactly the sum of the kept nodes' out-degrees. Exposed
    /// so callers can report the extraction cost (and tests can pin the
    /// subset-locality bound).
    pub fn induced_counted(&self, keep: &BitSet) -> (Ddg, Vec<Option<NodeId>>, u64) {
        let mut map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        let mut nodes = Vec::with_capacity(keep.len());
        for (new_idx, old_idx) in keep.iter().enumerate() {
            map[old_idx] = Some(NodeId(new_idx as u32));
            nodes.push(self.nodes[old_idx].clone());
        }
        let n = nodes.len();
        let mut visited = 0u64;

        // Successor CSR: kept nodes in ascending old-id order, each list
        // filtered to kept targets. Old lists are sorted and the id map
        // is monotone, so the new lists stay sorted without a re-sort.
        let mut succ_offsets = Vec::with_capacity(n + 1);
        succ_offsets.push(0u32);
        let mut succ_arcs = Vec::new();
        let mut pred_counts = vec![0u32; n];
        let mut ascending = true;
        for (new_idx, old_idx) in keep.iter().enumerate() {
            let succs = self.succs(NodeId(old_idx as u32));
            visited += succs.len() as u64;
            for &v in succs {
                if let Some(nv) = map[v.index()] {
                    ascending &= nv.index() > new_idx;
                    succ_arcs.push(nv);
                    pred_counts[nv.index()] += 1;
                }
            }
            succ_offsets.push(succ_arcs.len() as u32);
        }

        // Predecessor CSR by counting sort over the successor arcs;
        // filling in ascending source order keeps each list sorted.
        let mut pred_offsets = vec![0u32; n + 1];
        for i in 0..n {
            pred_offsets[i + 1] = pred_offsets[i] + pred_counts[i];
        }
        let mut cursor: Vec<u32> = pred_offsets[..n].to_vec();
        let mut pred_arcs = vec![NodeId(0); succ_arcs.len()];
        for u in 0..n {
            let window = succ_offsets[u] as usize..succ_offsets[u + 1] as usize;
            for arc in &succ_arcs[window] {
                let v = arc.index();
                pred_arcs[cursor[v] as usize] = NodeId(u as u32);
                cursor[v] += 1;
            }
        }

        (
            Ddg {
                labels: self.labels.clone(),
                label_assoc: self.label_assoc.clone(),
                nodes,
                succ_offsets,
                succ_arcs,
                pred_offsets,
                pred_arcs,
                ascending,
            },
            map,
            visited,
        )
    }
}

/// Incrementally builds a [`Ddg`]; used by the tracer.
#[derive(Default)]
pub struct DdgBuilder {
    labels: Vec<String>,
    label_assoc: Vec<bool>,
    label_index: std::collections::HashMap<String, LabelId>,
    nodes: Vec<Node>,
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
}

impl DdgBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an operation label with its associativity fact.
    pub fn intern_label(&mut self, s: &str, associative: bool) -> LabelId {
        if let Some(&id) = self.label_index.get(s) {
            return id;
        }
        let id = LabelId(self.labels.len() as u32);
        self.labels.push(s.to_string());
        self.label_assoc.push(associative);
        self.label_index.insert(s.to_string(), id);
        id
    }

    /// Appends a node, returning its id.
    #[allow(clippy::too_many_arguments)]
    pub fn add_node(
        &mut self,
        label: LabelId,
        static_op: u32,
        file: u16,
        line: u32,
        col: u32,
        thread: u16,
        scope: Vec<ScopeEntry>,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            label,
            static_op,
            file,
            line,
            col,
            thread,
            scope: scope.into_boxed_slice(),
            flags: NodeFlags::default(),
        });
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Records a def-use arc. Duplicate arcs collapse at [`Self::finish`].
    #[inline]
    pub fn add_arc(&mut self, from: NodeId, to: NodeId) {
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
    }

    /// Marks a node's value as consumed at an address position.
    pub fn mark_address_use(&mut self, id: NodeId) {
        self.nodes[id.index()].flags.insert(NodeFlags::ADDRESS_USED);
    }

    /// Marks a node's value as consumed by a branch condition.
    pub fn mark_control_use(&mut self, id: NodeId) {
        self.nodes[id.index()].flags.insert(NodeFlags::CONTROL_USED);
    }

    /// Marks a node as executing a traversal (iterator) operation.
    pub fn mark_iterator(&mut self, id: NodeId) {
        self.nodes[id.index()].flags.insert(NodeFlags::ITERATOR);
    }

    /// Marks a node as consuming raw program input.
    pub fn mark_reads_input(&mut self, id: NodeId) {
        self.nodes[id.index()].flags.insert(NodeFlags::READS_INPUT);
    }

    /// Marks a node's value as reaching program output.
    pub fn mark_writes_output(&mut self, id: NodeId) {
        self.nodes[id.index()]
            .flags
            .insert(NodeFlags::WRITES_OUTPUT);
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node has been added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Freezes into an immutable graph, deduplicating arcs and flattening
    /// the per-node lists into the CSR arrays.
    pub fn finish(mut self) -> Ddg {
        for list in self.succs.iter_mut().chain(self.preds.iter_mut()) {
            list.sort_unstable();
            list.dedup();
        }
        fn flatten(lists: Vec<Vec<NodeId>>) -> (Vec<u32>, Vec<NodeId>) {
            let total: usize = lists.iter().map(Vec::len).sum();
            let mut offsets = Vec::with_capacity(lists.len() + 1);
            offsets.push(0u32);
            let mut arcs = Vec::with_capacity(total);
            for list in lists {
                arcs.extend_from_slice(&list);
                offsets.push(arcs.len() as u32);
            }
            (offsets, arcs)
        }
        let ascending = self
            .succs
            .iter()
            .enumerate()
            .all(|(u, list)| list.iter().all(|v| v.index() > u));
        let (succ_offsets, succ_arcs) = flatten(self.succs);
        let (pred_offsets, pred_arcs) = flatten(self.preds);
        Ddg {
            labels: self.labels,
            label_assoc: self.label_assoc,
            nodes: self.nodes,
            succ_offsets,
            succ_arcs,
            pred_offsets,
            pred_arcs,
            ascending,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A diamond: n0 -> n1, n0 -> n2, n1 -> n3, n2 -> n3.
    pub(crate) fn diamond() -> Ddg {
        let mut b = DdgBuilder::new();
        let add = b.intern_label("fadd", true);
        let mul = b.intern_label("fmul", true);
        let n0 = b.add_node(add, 0, 0, 1, 1, 0, vec![]);
        let n1 = b.add_node(mul, 1, 0, 2, 1, 0, vec![]);
        let n2 = b.add_node(mul, 1, 0, 2, 1, 1, vec![]);
        let n3 = b.add_node(add, 2, 0, 3, 1, 0, vec![]);
        b.add_arc(n0, n1);
        b.add_arc(n0, n2);
        b.add_arc(n1, n3);
        b.add_arc(n2, n3);
        b.add_arc(n1, n3); // duplicate, must collapse
        b.finish()
    }

    #[test]
    fn builds_and_dedups() {
        let g = diamond();
        assert_eq!(g.len(), 4);
        assert_eq!(g.arc_count(), 4);
        assert_eq!(g.succs(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(g.preds(NodeId(3)), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn arc_order_is_recorded_and_kept_by_induced() {
        let g = diamond();
        assert!(g.arcs_ascend());
        assert!(g.induced(&BitSet::from_iter(4, [0, 2, 3])).0.arcs_ascend());

        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let n: Vec<NodeId> = (0..3)
            .map(|i| b.add_node(l, i, 0, 1, 1, 0, vec![]))
            .collect();
        b.add_arc(n[2], n[1]);
        let g = b.finish();
        assert!(!g.arcs_ascend());
        assert!(!g.induced(&BitSet::from_iter(3, [1, 2])).0.arcs_ascend());
        assert!(g.induced(&BitSet::from_iter(3, [0, 1])).0.arcs_ascend());
    }

    #[test]
    fn labels_and_associativity() {
        let g = diamond();
        let fadd = g.find_label("fadd").unwrap();
        assert_eq!(g.label_str(fadd), "fadd");
        assert!(g.label_is_associative(fadd));
        assert!(g.find_label("missing").is_none());
    }

    #[test]
    fn induced_subgraph_remaps_ids() {
        let g = diamond();
        let keep = BitSet::from_iter(4, [0, 1, 3]);
        let (sub, map) = g.induced(&keep);
        assert_eq!(sub.len(), 3);
        // arcs kept: n0->n1, n1->n3 (via remapped ids)
        assert_eq!(sub.arc_count(), 2);
        assert_eq!(map[2], None);
        let n3_new = map[3].unwrap();
        assert_eq!(sub.preds(n3_new).len(), 1);
    }

    #[test]
    fn flags_are_recorded() {
        let mut b = DdgBuilder::new();
        let l = b.intern_label("mul", true);
        let n = b.add_node(l, 0, 0, 1, 1, 0, vec![]);
        b.mark_address_use(n);
        b.mark_iterator(n);
        let g = b.finish();
        assert!(g.node(n).flags.contains(NodeFlags::ADDRESS_USED));
        assert!(g.node(n).flags.contains(NodeFlags::ITERATOR));
        assert!(!g.node(n).flags.contains(NodeFlags::CONTROL_USED));
    }

    #[test]
    fn scopes_are_stored() {
        let mut b = DdgBuilder::new();
        let l = b.intern_label("fadd", true);
        let scope = vec![ScopeEntry {
            loop_id: 0,
            instance: 2,
            iter: 5,
        }];
        let n = b.add_node(l, 0, 0, 1, 1, 3, scope);
        let g = b.finish();
        assert_eq!(
            g.innermost_scope(n),
            Some(ScopeEntry {
                loop_id: 0,
                instance: 2,
                iter: 5
            })
        );
        assert_eq!(g.node(n).thread, 3);
    }
}
