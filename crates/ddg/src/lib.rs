//! `ddg` — dynamic dataflow graphs (DDGs) and the graph algorithms the
//! pattern finder is built on.
//!
//! A DDG is a directed acyclic graph in which every node corresponds to a
//! *single execution* of an IR operation and there is an arc `(u, v)`
//! whenever execution `v` uses a value defined by execution `u` (Nethercote
//! & Mycroft's Redux representation, as adopted by the paper's §3). Nodes
//! carry the context the finder needs:
//!
//! * an interned **operation label** (`fadd`, `call.sqrt`, …) driving the
//!   relaxed isomorphism and associativity constraints;
//! * the **static operation id** and **source location**, so patterns can be
//!   reported back at their exact source position;
//! * the executing **thread**, making parallel and sequential executions
//!   uniform;
//! * the dynamic **loop scope** — the stack of (loop, instance, iteration)
//!   frames active when the node executed — which powers loop
//!   decomposition and compaction.
//!
//! The crate is independent of the IR and the tracer: the `trace` crate
//! populates a [`DdgBuilder`]; the `discovery` crate consumes [`Ddg`]s.

pub mod algo;
pub mod bitset;
pub mod dot;
pub mod graph;
pub mod structural;

pub use algo::{is_convex, is_weakly_connected, reachable_from, topo_order, Reachability};
pub use bitset::BitSet;
pub use graph::{Ddg, DdgBuilder, LabelId, Node, NodeId, ScopeEntry};
pub use structural::{grouped_hash, grouped_key, StructuralKey};
