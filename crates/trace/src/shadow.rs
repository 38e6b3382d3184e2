//! Shadow memory: the defining DDG node of every memory cell.
//!
//! Redux-style tracing (paper §3) keeps, for each memory location, the node
//! that defined its current value; a load then simply forwards that node to
//! the consumer, which is how data transfer stays out of the DDG while its
//! *effect* shapes the graph. The paper synchronizes shadow accesses to
//! trace multi-threaded programs seamlessly; our machine interleaves
//! threads deterministically on one OS thread, so the "synchronization" is
//! the machine's own serialization — the data structure is identical.

use ddg::NodeId;

/// Provenance of a value: who defined it.
///
/// `Input` is the state of memory the host initialized before the run (the
/// program's input data, whose "definitions" the paper draws as sourceless
/// arcs); `Const` is a value computed only from literals; `Node` is a traced
/// operation execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Taint {
    /// Untraced constant.
    Const,
    /// Raw program input.
    Input,
    /// Defined by a DDG node.
    Node(NodeId),
}

impl Taint {
    /// The defining node, when there is one.
    #[inline]
    pub fn node(self) -> Option<NodeId> {
        match self {
            Taint::Node(n) => Some(n),
            _ => None,
        }
    }
}

/// Shadow state for all global arrays (indexed `[array][element]`).
#[derive(Clone, Debug, Default)]
pub struct ShadowMemory {
    cells: Vec<Vec<Taint>>,
}

impl ShadowMemory {
    /// Creates shadow cells matching the given array lengths. All memory
    /// starts as [`Taint::Input`]: until the program overwrites a cell, its
    /// contents are whatever the host loaded (the program input).
    pub fn new(array_lens: &[usize]) -> Self {
        ShadowMemory {
            cells: array_lens.iter().map(|&n| vec![Taint::Input; n]).collect(),
        }
    }

    /// The provenance of `arr[idx]`.
    #[inline]
    pub fn get(&self, arr: usize, idx: usize) -> Taint {
        self.cells[arr][idx]
    }

    /// Records the provenance of `arr[idx]`.
    #[inline]
    pub fn set(&mut self, arr: usize, idx: usize, def: Taint) {
        self.cells[arr][idx] = def;
    }

    /// Number of shadowed arrays.
    pub fn array_count(&self) -> usize {
        self.cells.len()
    }

    /// Iterates over the provenance of a whole array (for `Output`).
    pub fn array(&self, arr: usize) -> &[Taint] {
        &self.cells[arr]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stores_and_forwards_definitions() {
        let mut s = ShadowMemory::new(&[4, 2]);
        assert_eq!(s.array_count(), 2);
        // Untouched memory is program input.
        assert_eq!(s.get(0, 3), Taint::Input);
        s.set(0, 3, Taint::Node(NodeId(7)));
        assert_eq!(s.get(0, 3), Taint::Node(NodeId(7)));
        // Overwrite models a second store to the same cell.
        s.set(0, 3, Taint::Node(NodeId(9)));
        assert_eq!(s.get(0, 3).node(), Some(NodeId(9)));
        // Constants erase the defining node.
        s.set(0, 3, Taint::Const);
        assert_eq!(s.get(0, 3), Taint::Const);
        assert_eq!(s.get(0, 3).node(), None);
    }
}
