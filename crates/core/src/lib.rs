//! `discovery` — the paper's primary contribution: an iterative,
//! constraint-based analysis that finds parallel-pattern instances (maps,
//! linear/tiled reductions, and their compositions) in the dynamic dataflow
//! graphs of legacy sequential *and* parallel programs.
//!
//! Pipeline (paper Fig. 4 / Algorithm 1):
//!
//! 1. [`simplify()`] — strip traversal bookkeeping, memory-address and
//!    branch-condition computation from the traced DDG;
//! 2. [`decompose`] — split the simplified DDG into *loop* sub-DDGs (the
//!    dynamic scope of each static loop) and *associative-component*
//!    sub-DDGs (weakly connected same-operator regions);
//! 3. compaction ([`quotient`]) — collapse each loop iteration into one
//!    node;
//! 4. [`models`] — match each active sub-DDG against the pattern models
//!    of §4: direct constraint checks plus one bounded backtracking
//!    search;
//! 5. [`finder`] — the iterative scheme: *subtract* matches from pool
//!    sub-DDGs (exposing maps hidden in complex loops) and *fuse* adjacent
//!    compatible sub-DDGs (building map-reductions), until a fixpoint;
//!    then *merge*, discarding subsumed patterns;
//! 6. [`report`] — human-readable text and HTML reports pointing at source
//!    lines (paper Fig. 6).
//!
//! Entry point: [`find_patterns`] (or [`analyze_program`] to go straight
//! from a `repro-ir` program).

pub mod decompose;
pub mod finder;
pub mod models;
pub mod partial;
pub mod patterns;
pub mod quotient;
pub mod report;
pub mod simplify;
pub mod subddg;

pub use decompose::ExtractTask;
pub use finder::{
    find_patterns, FinderConfig, FinderResult, FinderState, FrontEnd, MatchJob, MatchPhase,
    PhaseTimes,
};
pub use models::{match_subddg, match_subddg_full, MatchBudget, MatchOutcome};
pub use partial::{classify_across_inputs, partial_patterns, Stability};
pub use patterns::{Found, Pattern, PatternKind};
pub use simplify::{simplify, SimplifyStats};
pub use subddg::{SubDdg, SubKind};

/// Convenience: trace a program and run the full pattern-finding pipeline.
pub fn analyze_program(
    program: &repro_ir::Program,
    run: &trace::RunConfig,
    config: &FinderConfig,
) -> Result<FinderResult, trace::MachineError> {
    let mut cfg = run.clone();
    cfg.trace = trace::TraceMode::Full;
    let result = trace::run(program, &cfg)?;
    let ddg = result.ddg.expect("tracing was enabled");
    Ok(find_patterns(&ddg, config))
}
