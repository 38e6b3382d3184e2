//! `cp` — cooperative cancellation for the pattern matchers.
//!
//! The paper matches its pattern models with a MiniZinc/Chuffed run per
//! sub-DDG under a per-run time budget (§5, §6). This reproduction
//! matches with direct constraint checks plus one bounded backtracking
//! search (DESIGN.md §8), so what remains of a solver crate is the
//! [`CancelToken`] that carries request deadlines into every loop that
//! polls one.

mod cancel;

pub use cancel::CancelToken;
