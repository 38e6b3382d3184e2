//! `trace` — the instrumenting runtime: it plays the role of the paper's
//! LLVM instrumentation pass plus the DataFlowSanitizer-based tracing
//! runtime (§3 and §6 "Implementation").
//!
//! A [`repro_ir::Program`] is compiled to a compact bytecode (the
//! "instrumented binary"), then executed by a deterministic multithreaded
//! virtual machine. During execution every value carries the DDG node that
//! defined it; a synchronized **shadow memory** records the defining node of
//! each memory cell, so dataflow through stores and loads — including
//! across threads — is traced seamlessly and data transfer itself never
//! becomes a node. The machine also maintains each thread's **dynamic loop
//! scope**, the runtime support the paper adds on loop boundaries, which
//! later drives loop decomposition and compaction.
//!
//! Tracing is optional: [`run()`] with [`TraceMode::Full`] produces a
//! [`ddg::Ddg`]; [`TraceMode::Off`] executes the same bytecode without
//! instrumentation overhead (used to time untraced runs).

pub mod bytecode;
pub mod compile;
mod exec;
mod fp;
pub mod machine;
pub mod run;
pub mod shadow;

pub use compile::compile_program;
pub use machine::MachineError;
pub use run::{program_shape, run, RunConfig, RunResult, TraceMode};

#[cfg(feature = "fault-inject")]
pub use run::TraceFault;
