//! Deterministic fault injection (the `fault-inject` test harness).
//!
//! A [`FaultPlan`] names faults by **request id** and, for match jobs,
//! by the job's **ordinal** — its 0-based position in the request's own
//! submission order (`RequestMetrics::match_jobs` at submission time).
//! Both are deterministic per request regardless of worker scheduling,
//! so a plan reproduces the same faults on every run:
//!
//! - [`FaultPlan::panic_match_job`] makes one match job panic inside its
//!   containment, exercising the degrade-to-no-match path;
//! - [`FaultPlan::delay_match_jobs`] stalls every match job of a request,
//!   the lever for deterministic deadline-expiry tests;
//! - [`FaultPlan::trace_fault`] injects a per-step delay into the traced
//!   run via [`trace::TraceFault`], tripping trace-level deadlines.
//!
//! The module exists only under the `fault-inject` feature; production
//! builds compile none of it.

use std::collections::{HashMap, HashSet};
use std::time::Duration;

/// What one match job should do before matching.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobFault {
    pub panic: bool,
    pub delay: Option<Duration>,
}

impl JobFault {
    /// True when anything is planned for the job. The engine never
    /// defers such a job behind an equal-keyed one, so the fault fires
    /// in the job it names.
    pub fn is_planned(&self) -> bool {
        self.panic || self.delay.is_some()
    }

    /// Executes the fault inside the job (and inside its panic
    /// containment): sleep first, then panic if planned.
    pub fn fire(&self) {
        if let Some(d) = self.delay {
            std::thread::sleep(d);
        }
        if self.panic {
            panic!("fault-inject: planned match-job panic");
        }
    }
}

/// A deterministic plan of injected faults, keyed by request id.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    panic_jobs: HashMap<String, HashSet<u64>>,
    job_delays: HashMap<String, Duration>,
    trace_faults: HashMap<String, trace::TraceFault>,
}

impl FaultPlan {
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The match job with this ordinal in request `id` panics.
    pub fn panic_match_job(mut self, id: &str, ordinal: u64) -> FaultPlan {
        self.panic_jobs
            .entry(id.to_string())
            .or_default()
            .insert(ordinal);
        self
    }

    /// Every match job of request `id` sleeps for `delay` before
    /// matching.
    pub fn delay_match_jobs(mut self, id: &str, delay: Duration) -> FaultPlan {
        self.job_delays.insert(id.to_string(), delay);
        self
    }

    /// The traced run of request `id` sleeps for `delay` every `every`
    /// machine steps.
    pub fn trace_fault(mut self, id: &str, every: u64, delay: Duration) -> FaultPlan {
        self.trace_faults
            .insert(id.to_string(), trace::TraceFault { every, delay });
        self
    }

    pub(crate) fn match_fault(&self, id: &str, ordinal: u64) -> JobFault {
        JobFault {
            panic: self
                .panic_jobs
                .get(id)
                .is_some_and(|s| s.contains(&ordinal)),
            delay: self.job_delays.get(id).copied(),
        }
    }

    pub(crate) fn trace_fault_for(&self, id: &str) -> Option<trace::TraceFault> {
        self.trace_faults.get(id).copied()
    }
}
