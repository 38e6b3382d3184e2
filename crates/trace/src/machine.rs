//! The deterministic multithreaded virtual machine.
//!
//! One OS thread interprets all simulated threads, handing out round-robin
//! slices and blocking threads at joins, barriers, and locks. Determinism
//! matters for reproducible experiments; it loses no generality for DDGs,
//! which capture dataflow and are therefore invariant under interleavings
//! of correctly synchronized programs (the same reason the paper's analysis
//! is "oblivious to whether the code is sequential or parallel").
//!
//! With tracing enabled, every value on the operand stack and in memory is
//! paired with the DDG node that defined it; executing an operation creates
//! a node labeled with the operation, the executing thread, and the current
//! dynamic loop scope, and adds def-use arcs from its operands.
//!
//! Instruction semantics live in [`crate::exec`]; this module owns the
//! scheduler and the synchronization instructions, which the interpreter
//! returns unexecuted.

use crate::bytecode::{CompiledProgram, Inst, Pos};
use crate::exec::{self, Slot, StepOut, ThreadCtx, TraceOp};
use crate::shadow::{ShadowMemory, Taint};
use ddg::{DdgBuilder, LabelId, NodeId, ScopeEntry};
use repro_ir::{BinOp, Intrinsic, Program, UnOp, Value};
use std::collections::HashSet;
use std::time::Instant;

/// Execution limits (and injected faults, under `fault-inject`), derived
/// from [`crate::RunConfig`]. Both limits make runaway programs surface
/// as a [`MachineError`] instead of wedging the caller: `max_steps` is
/// deterministic fuel, `deadline` is the wall clock.
pub(crate) struct Limits {
    pub max_steps: u64,
    pub deadline: Option<Instant>,
    #[cfg(feature = "fault-inject")]
    pub fault: Option<crate::run::TraceFault>,
}

/// A runtime failure, attributed to the simulated thread that caused it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MachineError {
    pub thread: usize,
    pub message: String,
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread {}: {}", self.thread, self.message)
    }
}

impl std::error::Error for MachineError {}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Runnable,
    /// Waiting for a thread to finish.
    Join(usize),
    /// Parked on a barrier (woken by the last arrival).
    Barrier(usize),
    /// Waiting for a mutex.
    Lock(usize),
    Done,
}

struct Thread {
    ctx: ThreadCtx,
    status: Status,
}

struct BarrierState {
    participants: usize,
    waiting: usize,
}

/// The interpreter's environment: global memory, shadow memory, and
/// direct-to-builder tracing.
pub(crate) struct SeqEnv<'a> {
    program: &'a Program,
    code: &'a CompiledProgram,
    pub(crate) globals: Vec<Vec<Value>>,
    shadow: ShadowMemory,
    tracing: bool,
    pub(crate) ddg: DdgBuilder,
    /// Interned labels for binary ops, unary ops, intrinsics.
    bin_labels: Vec<Option<LabelId>>,
    un_labels: Vec<Option<LabelId>>,
    intr_labels: Vec<Option<LabelId>>,
    loop_instances: Vec<u32>,
    iterator_ops: HashSet<u32>,
    /// Execution fingerprinting (see [`crate::fp`]), when requested.
    pub(crate) fp: Option<crate::fp::FpState>,
    /// Observability sampled once at construction: a run never changes
    /// its recording mode mid-flight, and the disabled path stays one
    /// branch per slice / per shadow access.
    obs_on: bool,
    shadow_reads: u64,
    shadow_writes: u64,
}

impl SeqEnv<'_> {
    fn bin_label(&mut self, op: BinOp) -> LabelId {
        let idx = op as usize;
        if let Some(l) = self.bin_labels[idx] {
            return l;
        }
        let l = self.ddg.intern_label(op.label(), op.is_associative());
        self.bin_labels[idx] = Some(l);
        l
    }

    fn un_label(&mut self, op: UnOp) -> LabelId {
        let idx = op as usize;
        if let Some(l) = self.un_labels[idx] {
            return l;
        }
        let l = self.ddg.intern_label(op.label(), false);
        self.un_labels[idx] = Some(l);
        l
    }

    fn intr_label(&mut self, op: Intrinsic) -> LabelId {
        let idx = op as usize;
        if let Some(l) = self.intr_labels[idx] {
            return l;
        }
        let l = self.ddg.intern_label(op.label(), false);
        self.intr_labels[idx] = Some(l);
        l
    }

    pub(crate) fn array_len(&self, arr: usize) -> usize {
        self.globals[arr].len()
    }

    /// The array's source name (error messages only).
    pub(crate) fn array_name(&self, arr: usize) -> String {
        self.program.globals[arr].name.clone()
    }

    /// Reads `arr[idx]`: the value and its provenance.
    pub(crate) fn load(&mut self, arr: usize, idx: usize) -> Slot {
        if let Some(fp) = &mut self.fp {
            fp.addr(arr, idx);
        }
        let v = self.globals[arr][idx];
        let def = self.shadow.get(arr, idx);
        if self.obs_on {
            self.shadow_reads += 1;
        }
        (v, def)
    }

    /// Writes `arr[idx]` with provenance.
    pub(crate) fn store(&mut self, arr: usize, idx: usize, v: Value, def: Taint) {
        if let Some(fp) = &mut self.fp {
            fp.addr(arr, idx);
        }
        self.globals[arr][idx] = v;
        self.shadow.set(arr, idx, def);
        if self.obs_on {
            self.shadow_writes += 1;
        }
    }

    /// Records one executed operation as a DDG node: label, def-use
    /// arcs from `operands`, input/iterator marks. Returns the node as
    /// provenance ([`Taint::Const`] when not tracing).
    pub(crate) fn trace_node(
        &mut self,
        t: usize,
        op: TraceOp,
        static_op: u32,
        pos: Pos,
        operands: &[Taint],
        scope: &[ScopeEntry],
    ) -> Taint {
        if !self.tracing {
            return Taint::Const;
        }
        let label = match op {
            TraceOp::Bin(op) => self.bin_label(op),
            TraceOp::Un(op) => self.un_label(op),
            TraceOp::Intr(op) => self.intr_label(op),
        };
        let node = self.ddg.add_node(
            label,
            static_op,
            pos.file,
            pos.line,
            pos.col,
            t as u16,
            scope.to_vec(),
        );
        for &op in operands {
            match op {
                Taint::Node(def) => self.ddg.add_arc(def, node),
                Taint::Input => self.ddg.mark_reads_input(node),
                Taint::Const => {}
            }
        }
        if self.iterator_ops.contains(&static_op) {
            self.ddg.mark_iterator(node);
        }
        Taint::Node(node)
    }

    /// The node's value was consumed as an address (or bound).
    pub(crate) fn mark_address(&mut self, n: NodeId) {
        if self.tracing {
            self.ddg.mark_address_use(n);
        }
    }

    /// The node's value was consumed by a branch condition.
    pub(crate) fn mark_control(&mut self, n: NodeId) {
        if self.tracing {
            self.ddg.mark_control_use(n);
        }
    }

    /// A loop body was entered: returns this activation's dynamic
    /// instance number for the static loop.
    pub(crate) fn loop_enter(&mut self, loop_id: u32) -> u32 {
        let instance = self.loop_instances[loop_id as usize];
        self.loop_instances[loop_id as usize] += 1;
        instance
    }

    /// An instruction dispatch (execution fingerprinting hook; see
    /// [`crate::fp`]). Called before the sync early-return, so every
    /// dispatch — including a retried blocking instruction — lands in
    /// the stream.
    #[inline]
    pub(crate) fn fp_step(&mut self, t: usize, func: usize, pc: usize) {
        if let Some(fp) = &mut self.fp {
            fp.step(t, func, pc);
        }
    }
}

/// The machine. Construct through [`crate::run()`].
pub struct Machine<'a> {
    pub(crate) env: SeqEnv<'a>,
    threads: Vec<Thread>,
    mutexes: Vec<Option<usize>>,
    barriers: Vec<BarrierState>,
    pub(crate) steps: u64,
    limits: Limits,
    pub(crate) entry_return: Option<Value>,
    /// Scheduler slices executed (spans are per slice, not per step).
    slices: u64,
}

/// Number of instructions a thread runs before the scheduler rotates.
const SLICE: u64 = 4096;

impl<'a> Machine<'a> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        program: &'a Program,
        code: &'a CompiledProgram,
        globals: Vec<Vec<Value>>,
        barrier_participants: &[usize],
        tracing: bool,
        iterator_ops: HashSet<u32>,
        fp: Option<crate::fp::FpState>,
        limits: Limits,
    ) -> Self {
        let lens: Vec<usize> = globals.iter().map(|g| g.len()).collect();
        assert_eq!(
            barrier_participants.len(),
            program.n_barriers,
            "barrier participant counts must match program barriers"
        );
        Machine {
            env: SeqEnv {
                program,
                code,
                globals,
                shadow: ShadowMemory::new(&lens),
                tracing,
                ddg: DdgBuilder::new(),
                bin_labels: vec![None; 64],
                un_labels: vec![None; 16],
                intr_labels: vec![None; 16],
                loop_instances: vec![0; program.loop_count as usize],
                iterator_ops,
                fp,
                obs_on: obs::enabled(),
                shadow_reads: 0,
                shadow_writes: 0,
            },
            threads: Vec::new(),
            mutexes: vec![None; program.n_mutexes],
            barriers: barrier_participants
                .iter()
                .map(|&p| BarrierState {
                    participants: p,
                    waiting: 0,
                })
                .collect(),
            steps: 0,
            limits,
            entry_return: None,
            slices: 0,
        }
    }

    /// Flushes the run's counters into the metrics registry. Called once
    /// per run by [`crate::run()`] — including on the error path, so
    /// aborted runs (fuel, deadline, runtime faults) still report the
    /// work they did. A no-op when recording is off.
    pub(crate) fn flush_obs(&self) {
        if !self.env.obs_on {
            return;
        }
        obs::counter("trace.steps").add(self.steps);
        obs::counter("trace.slices").add(self.slices);
        obs::counter("trace.shadow_reads").add(self.env.shadow_reads);
        obs::counter("trace.shadow_writes").add(self.env.shadow_writes);
        obs::counter("trace.threads").add(self.threads.len() as u64);
        if self.env.tracing {
            obs::counter("trace.ddg_nodes").add(self.env.ddg.len() as u64);
        }
    }

    /// Starts the entry function on thread 0.
    pub(crate) fn boot(&mut self, args: Vec<Value>) {
        let frame = exec::new_frame(
            self.env.program,
            self.env.code,
            self.env.code.entry,
            args.into_iter().map(|v| (v, Taint::Input)).collect(),
        );
        self.threads.push(Thread {
            ctx: ThreadCtx::new(frame),
            status: Status::Runnable,
        });
    }

    /// Runs until the entry thread finishes. Returns the step count.
    pub(crate) fn run_to_completion(&mut self) -> Result<(), MachineError> {
        let mut current = 0usize;
        loop {
            if self.threads[0].status == Status::Done {
                return Ok(());
            }
            // Find the next thread that can make progress.
            let n = self.threads.len();
            let mut picked = None;
            for off in 0..n {
                let t = (current + off) % n;
                if self.can_run(t) {
                    picked = Some(t);
                    break;
                }
            }
            let Some(t) = picked else {
                return Err(MachineError {
                    thread: 0,
                    message: "deadlock: no runnable thread".into(),
                });
            };
            self.run_slice(t)?;
            current = (t + 1) % self.threads.len().max(1);
        }
    }

    fn can_run(&self, t: usize) -> bool {
        match self.threads[t].status {
            Status::Runnable => true,
            Status::Join(target) => self.threads[target].status == Status::Done,
            Status::Lock(m) => self.mutexes[m].is_none(),
            Status::Barrier(_) | Status::Done => false,
        }
    }

    fn run_slice(&mut self, t: usize) -> Result<(), MachineError> {
        // Deadline expiry is checked once per slice: cheap enough to
        // leave on, frequent enough (≤ 4096 instructions) that a wedged
        // or slowed program cannot overrun its request deadline by much.
        if let Some(d) = self.limits.deadline {
            if Instant::now() >= d {
                return Err(MachineError {
                    thread: t,
                    message: format!("deadline exceeded after {} steps", self.steps),
                });
            }
        }
        // A blocked-but-now-eligible thread resumes by retrying its
        // blocking instruction (Join/Lock) — the pc was not advanced.
        self.threads[t].status = Status::Runnable;
        // One span per slice, not per step: at SLICE-instruction
        // granularity the timeline shows the scheduler's round-robin
        // interleaving without drowning the trace in events.
        let _slice_span = if self.env.obs_on {
            self.slices += 1;
            Some(obs::span_args("vm.slice", || {
                vec![("thread", obs::ArgValue::U64(t as u64))]
            }))
        } else {
            None
        };
        let mut budget = SLICE;
        while budget > 0 && self.threads[t].status == Status::Runnable {
            self.step(t)?;
            budget -= 1;
            self.steps += 1;
            if self.steps > self.limits.max_steps {
                return Err(MachineError {
                    thread: t,
                    message: format!("step limit {} exceeded", self.limits.max_steps),
                });
            }
            #[cfg(feature = "fault-inject")]
            if let Some(f) = self.limits.fault {
                if f.every > 0 && self.steps.is_multiple_of(f.every) {
                    std::thread::sleep(f.delay);
                }
            }
        }
        Ok(())
    }

    fn err(&self, t: usize, message: impl Into<String>) -> MachineError {
        MachineError {
            thread: t,
            message: message.into(),
        }
    }

    /// Executes one instruction of thread `t`: the interpreter for
    /// ordinary instructions, the machine for synchronization.
    fn step(&mut self, t: usize) -> Result<(), MachineError> {
        let program = self.env.program;
        let code = self.env.code;
        let th = &mut self.threads[t];
        let out = exec::step(&mut self.env, &mut th.ctx, program, code, t)
            .map_err(|message| MachineError { thread: t, message })?;
        match out {
            StepOut::Ran => Ok(()),
            StepOut::Done(ret) => {
                th.status = Status::Done;
                if t == 0 {
                    self.entry_return = ret.map(|(v, _)| v);
                }
                Ok(())
            }
            StepOut::Sync(inst) => self.sync_step(t, inst),
        }
    }

    /// Executes one synchronization instruction. The pc advances here
    /// (the interpreter returned without touching state);
    /// blocking instructions undo the advance to retry on wake-up.
    fn sync_step(&mut self, t: usize, inst: Inst) -> Result<(), MachineError> {
        self.threads[t].ctx.frame_mut().pc += 1;
        match inst {
            Inst::Spawn {
                func,
                nargs,
                handle,
            } => {
                let mut args = Vec::with_capacity(nargs);
                for _ in 0..nargs {
                    args.push(self.pop(t)?);
                }
                args.reverse();
                let frame = exec::new_frame(self.env.program, self.env.code, func, args);
                let tid = self.threads.len();
                if tid > u16::MAX as usize {
                    return Err(self.err(t, "too many threads"));
                }
                self.threads.push(Thread {
                    ctx: ThreadCtx::new(frame),
                    status: Status::Runnable,
                });
                self.threads[t].ctx.frame_mut().slots[handle.index()] =
                    (Value::I64(tid as i64), Taint::Const);
            }
            Inst::Join => {
                let (v, _) = self.pop(t)?;
                let target = v.as_i64("join handle").map_err(|m| self.err(t, m))? as usize;
                if target >= self.threads.len() {
                    return Err(self.err(t, format!("join of unknown thread {target}")));
                }
                if self.threads[target].status != Status::Done {
                    // Retry: restore the handle and re-execute this Join.
                    self.threads[t].ctx.push((v, Taint::Const));
                    self.threads[t].ctx.frame_mut().pc -= 1;
                    self.threads[t].status = Status::Join(target);
                }
            }
            Inst::Barrier { bar } => {
                if bar >= self.barriers.len() {
                    return Err(self.err(t, format!("unknown barrier {bar}")));
                }
                self.barriers[bar].waiting += 1;
                if self.barriers[bar].waiting >= self.barriers[bar].participants {
                    // Last arrival: release everyone.
                    self.barriers[bar].waiting = 0;
                    for th in &mut self.threads {
                        if th.status == Status::Barrier(bar) {
                            th.status = Status::Runnable;
                        }
                    }
                } else {
                    // pc already advanced: resume after the barrier.
                    self.threads[t].status = Status::Barrier(bar);
                }
            }
            Inst::Lock { m } => {
                if self.mutexes[m].is_none() {
                    self.mutexes[m] = Some(t);
                } else if self.mutexes[m] == Some(t) {
                    return Err(self.err(t, format!("relock of mutex {m}")));
                } else {
                    self.threads[t].ctx.frame_mut().pc -= 1;
                    self.threads[t].status = Status::Lock(m);
                }
            }
            Inst::Unlock { m } => {
                if self.mutexes[m] != Some(t) {
                    return Err(self.err(t, format!("unlock of mutex {m} not held")));
                }
                self.mutexes[m] = None;
            }
            Inst::Output { arr } => {
                if self.env.tracing {
                    let defs: Vec<NodeId> = self
                        .env
                        .shadow
                        .array(arr.index())
                        .iter()
                        .filter_map(|t| t.node())
                        .collect();
                    for def in defs {
                        self.env.ddg.mark_writes_output(def);
                    }
                }
            }
            other => unreachable!("not a synchronization instruction: {other:?}"),
        }
        Ok(())
    }

    // ---- frame/stack helpers ----

    #[inline]
    fn pop(&mut self, t: usize) -> Result<Slot, MachineError> {
        self.threads[t]
            .ctx
            .pop()
            .map_err(|message| MachineError { thread: t, message })
    }
}
