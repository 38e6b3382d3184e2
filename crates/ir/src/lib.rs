//! `repro-ir` — a compact, typed intermediate representation standing in for
//! LLVM IR in the PPoPP '21 *Modernizing Parallel Code with Pattern Analysis*
//! reproduction.
//!
//! The paper instruments LLVM IR so that every *execution* of an IR operation
//! becomes a node of a dynamic dataflow graph (DDG). This crate provides the
//! static side of that story:
//!
//! * a small structured IR ([`Program`], [`Function`], [`Stmt`], [`Expr`])
//!   with the operations that matter for pattern analysis — arithmetic,
//!   comparisons, array loads/stores, calls, loops, and Pthreads-style
//!   threading primitives (`spawn`/`join`/`barrier`/`lock`);
//! * stable static identities: every value-producing operation carries an
//!   [`OpId`] and a source [`Loc`], and every loop carries a [`LoopId`] —
//!   these become the labels of DDG nodes and the keys of loop-scope
//!   decomposition;
//! * static analyses used by the pattern finder's *simplification* phase:
//!   generalized iterator recognition ([`iter_rec`]) in the spirit of
//!   Manilov et al. (CC '18), which the paper uses to identify and strip
//!   data-structure traversals from DDGs.
//!
//! The interpreter that actually executes this IR and records the DDG lives
//! in the `trace` crate; the `minc` crate compiles a mini-C surface language
//! down to this IR so the Starbench benchmarks can be expressed in a form
//! close to their legacy C sources.

pub mod builder;
pub mod display;
pub mod expr;
pub mod fingerprint;
pub mod func;
pub mod ids;
pub mod iter_rec;
pub mod loc;
pub mod ops;
pub mod stmt;
pub mod types;
pub mod validate;
pub mod visit;

pub use builder::{FnBuilder, ProgramBuilder};
pub use expr::Expr;
pub use fingerprint::{
    fingerprint_function, fingerprint_program, fingerprint_serialized, fingerprint_str,
    ContentHash, ContentHasher, WordHasher,
};
pub use func::{Function, GlobalArray, Param, Program};
pub use ids::{ArrId, FnId, LoopId, OpId, VarId};
pub use iter_rec::IteratorInfo;
pub use loc::Loc;
pub use ops::{BinOp, Intrinsic, UnOp};
pub use stmt::Stmt;
pub use types::{Type, Value};
pub use validate::{validate, ValidationError};
