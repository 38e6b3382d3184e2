//! Top-level entry point: configure inputs, execute, collect results.

use crate::compile::compile_program;
use crate::machine::{Limits, Machine, MachineError};
use ddg::Ddg;
use repro_ir::{Program, Value};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Deterministic fault injection into the machine's step loop
/// (`fault-inject` feature only): sleep `delay` every `every` executed
/// steps. Simulates a slow or wedged traced program so the fuel and
/// deadline paths can be exercised without a genuinely nonterminating
/// workload.
#[cfg(feature = "fault-inject")]
#[derive(Clone, Copy, Debug)]
pub struct TraceFault {
    /// Inject after every `every` executed instructions (0 disables).
    pub every: u64,
    pub delay: std::time::Duration,
}

/// Whether to record a DDG during execution.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TraceMode {
    /// Record every operation execution into a DDG.
    Full,
    /// Execute only (baseline timing, correctness checks at scale).
    Off,
}

/// Run-time inputs for a program execution.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Arguments for the entry function.
    pub entry_args: Vec<Value>,
    /// Resizes of global arrays by name (lengths are program inputs: the
    /// paper's Table 2 "analysis" vs "reference" parameters).
    pub array_lens: HashMap<String, usize>,
    /// Initial contents of global arrays by name (shorter data is applied
    /// from index 0; the rest stays zeroed).
    pub array_init: HashMap<String, Vec<Value>>,
    /// Participant count per barrier object (legacy code sizes barriers by
    /// the thread count).
    pub barrier_participants: Vec<usize>,
    /// Tracing mode.
    pub trace: TraceMode,
    /// Abort the run after this many executed instructions — the trace
    /// *fuel*. A nonterminating program surfaces as a [`MachineError`]
    /// instead of wedging its caller.
    pub max_steps: u64,
    /// Abort the run at this wall-clock instant (request-level deadline;
    /// checked at scheduler-slice granularity).
    pub deadline: Option<Instant>,
    /// Compute an execution fingerprint (see [`crate::fp`]): a streaming
    /// digest over the executed instruction/address stream that
    /// identifies the DDG the run would produce under [`TraceMode::Full`]
    /// — equal fingerprints imply byte-identical DDGs. Combined with
    /// `TraceMode::Off` this is the incremental layer's cheap probe: it
    /// skips all shadow-taint and DDG construction yet still yields the
    /// DDG's identity.
    pub exec_fingerprint: bool,
    /// Injected machine faults (test harness only).
    #[cfg(feature = "fault-inject")]
    pub fault: Option<TraceFault>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            entry_args: Vec::new(),
            array_lens: HashMap::new(),
            array_init: HashMap::new(),
            barrier_participants: Vec::new(),
            trace: TraceMode::Full,
            max_steps: 500_000_000,
            deadline: None,
            exec_fingerprint: false,
            #[cfg(feature = "fault-inject")]
            fault: None,
        }
    }
}

impl RunConfig {
    /// A traced run with entry arguments only.
    pub fn traced(entry_args: Vec<Value>) -> Self {
        RunConfig {
            entry_args,
            ..Default::default()
        }
    }

    /// Sets a global array's length.
    pub fn with_len(mut self, name: &str, len: usize) -> Self {
        self.array_lens.insert(name.to_string(), len);
        self
    }

    /// Sets a global array's initial contents (and its length).
    pub fn with_data(mut self, name: &str, data: Vec<Value>) -> Self {
        self.array_lens.insert(name.to_string(), data.len());
        self.array_init.insert(name.to_string(), data);
        self
    }

    /// Sets initial f64 contents.
    pub fn with_f64(self, name: &str, data: &[f64]) -> Self {
        self.with_data(name, data.iter().map(|&v| Value::F64(v)).collect())
    }

    /// Sets initial i64 contents.
    pub fn with_i64(self, name: &str, data: &[i64]) -> Self {
        self.with_data(name, data.iter().map(|&v| Value::I64(v)).collect())
    }

    /// Sets all barrier participant counts to `n` (one entry per barrier
    /// object of the program is filled in by [`run`]).
    pub fn with_barrier_participants(mut self, n: usize) -> Self {
        self.barrier_participants = vec![n];
        self
    }

    /// Sets the trace fuel (instruction limit).
    pub fn with_max_steps(mut self, max_steps: u64) -> Self {
        self.max_steps = max_steps;
        self
    }

    /// Sets the wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Requests an execution fingerprint alongside the run.
    pub fn with_exec_fingerprint(mut self, on: bool) -> Self {
        self.exec_fingerprint = on;
        self
    }
}

/// Result of a program execution.
#[derive(Debug)]
pub struct RunResult {
    /// The traced DDG, when tracing was on.
    pub ddg: Option<Ddg>,
    /// Final contents of every global array, by name.
    pub arrays: HashMap<String, Vec<Value>>,
    /// Entry function's return value, if any.
    pub return_value: Option<Value>,
    /// Executed instruction count.
    pub steps: u64,
    /// The execution fingerprint, when requested
    /// ([`RunConfig::exec_fingerprint`]).
    pub exec_fp: Option<u128>,
}

impl RunResult {
    /// Final f64 contents of a global array.
    pub fn f64s(&self, name: &str) -> Vec<f64> {
        self.arrays[name]
            .iter()
            .map(|v| v.as_f64("result array").expect("f64 array"))
            .collect()
    }

    /// Final i64 contents of a global array.
    pub fn i64s(&self, name: &str) -> Vec<i64> {
        self.arrays[name]
            .iter()
            .map(|v| v.as_i64("result array").expect("i64 array"))
            .collect()
    }
}

/// Compiles, instruments (when tracing), and executes `program`.
pub fn run(program: &Program, config: &RunConfig) -> Result<RunResult, MachineError> {
    let _span = obs::span_args("trace.run", || {
        vec![("program", obs::ArgValue::Str(program.name.clone()))]
    });
    if let Err(errors) = repro_ir::validate(program) {
        return Err(MachineError {
            thread: 0,
            message: format!("invalid program: {}", errors[0]),
        });
    }
    let code = compile_program(program);

    // Materialize globals with configured lengths and contents.
    let mut globals: Vec<Vec<Value>> = Vec::with_capacity(program.globals.len());
    for g in &program.globals {
        let len = config.array_lens.get(&g.name).copied().unwrap_or(g.len);
        let mut data = vec![Value::zero(g.elem); len];
        if let Some(init) = config.array_init.get(&g.name) {
            for (i, v) in init.iter().enumerate().take(len) {
                assert_eq!(v.ty(), g.elem, "init type mismatch for {}", g.name);
                data[i] = *v;
            }
        }
        globals.push(data);
    }

    // Barrier participants: replicate a single configured count across all
    // barrier objects, or use the explicit per-object list.
    let participants: Vec<usize> = match config.barrier_participants.len() {
        0 => vec![1; program.n_barriers],
        1 => vec![config.barrier_participants[0]; program.n_barriers],
        _ => config.barrier_participants.clone(),
    };

    let tracing = config.trace == TraceMode::Full;
    // The fingerprint seeds over the iterator-op classification (it
    // lands in DDG node flags), so fingerprinted untraced runs need the
    // analysis too.
    let iterator_ops = if tracing || config.exec_fingerprint {
        iterator_ops(program)
    } else {
        Default::default()
    };
    let fp = config
        .exec_fingerprint
        .then(|| crate::fp::FpState::new(&code, &iterator_ops));

    let limits = Limits {
        max_steps: config.max_steps,
        deadline: config.deadline,
        #[cfg(feature = "fault-inject")]
        fault: config.fault,
    };

    let mut m = Machine::new(
        program,
        &code,
        globals,
        &participants,
        tracing,
        iterator_ops,
        fp,
        limits,
    );
    m.boot(config.entry_args.clone());
    // Flush VM counters even when the run errors (deadline, fault, …):
    // partial-run statistics are exactly what a stalled-trace
    // investigation needs.
    let outcome = m.run_to_completion();
    m.flush_obs();
    outcome?;

    let arrays = program
        .globals
        .iter()
        .zip(std::mem::take(&mut m.env.globals))
        .map(|(g, data)| (g.name.clone(), data))
        .collect();
    let steps = m.steps;
    let return_value = m.entry_return;
    let exec_fp = m.env.fp.as_ref().map(|f| f.finish());
    let ddg = if tracing {
        Some(std::mem::take(&mut m.env.ddg).finish())
    } else {
        None
    };
    Ok(RunResult {
        ddg,
        arrays,
        return_value,
        steps,
        exec_fp,
    })
}

/// Static ops classified as loop traversal (their nodes get
/// `NodeFlags::ITERATOR`).
fn iterator_ops(program: &Program) -> HashSet<u32> {
    repro_ir::iter_rec::analyze(program)
        .iterator_ops
        .into_iter()
        .map(|op| op.0)
        .collect()
}

/// The constant-erased fingerprint of `program`: what its execution
/// fingerprints hash per instruction — opcodes, operand ids, source
/// positions, constant *types* — plus the iterator-op seed, folded over
/// the whole program without running it. Two programs that differ only
/// in constant values share it. `None` when the program fails
/// [`repro_ir::validate`] (a [`run`] of it reports the error).
///
/// Costs one compile and one iterator analysis — microseconds for the
/// Starbench programs, with no serialization.
pub fn program_shape(program: &Program) -> Option<repro_ir::ContentHash> {
    repro_ir::validate(program).ok()?;
    let code = compile_program(program);
    Some(crate::fp::program_shape(&code, &iterator_ops(program)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use repro_ir::{BinOp, Expr, FnBuilder, ProgramBuilder, Stmt, Type};

    /// data[i] = in[i] * 2.0 over 4 elements — a textbook map.
    fn map_program() -> Program {
        let mut pb = ProgramBuilder::new("map");
        let inp = pb.global("in", Type::F64, 4);
        let out = pb.global("out", Type::F64, 4);
        let mut f = pb.function("main", vec![], None);
        f.for_loop("i", Expr::Int(0), Expr::Int(4), |f, i| {
            let ld = f.load(inp, Expr::Var(i));
            let v = f.bin(BinOp::FMul, ld, Expr::Float(2.0));
            vec![FnBuilder::stmt_store(out, Expr::Var(i), v)]
        });
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn map_executes_and_traces() {
        let p = map_program();
        let cfg = RunConfig::default().with_f64("in", &[1.0, 2.0, 3.0, 4.0]);
        let r = run(&p, &cfg).unwrap();
        assert_eq!(r.f64s("out"), vec![2.0, 4.0, 6.0, 8.0]);
        let g = r.ddg.unwrap();
        // One fmul node per iteration; no arcs (inputs come from memory
        // cells initialized by the host, which have no defining node).
        assert_eq!(g.len(), 4);
        assert_eq!(g.arc_count(), 0);
        // All four nodes share the static op but differ in iteration.
        let iters: Vec<u32> = g
            .node_ids()
            .map(|n| g.innermost_scope(n).unwrap().iter)
            .collect();
        assert_eq!(iters, vec![0, 1, 2, 3]);
    }

    /// acc = 0; for i { acc += in[i] } ; out[0] = acc — a linear reduction.
    fn reduction_program() -> Program {
        let mut pb = ProgramBuilder::new("red");
        let inp = pb.global("in", Type::F64, 4);
        let out = pb.global("out", Type::F64, 1);
        let mut f = pb.function("main", vec![], None);
        let acc = f.local("acc", Type::F64);
        f.assign(acc, Expr::Float(0.0));
        f.for_loop("i", Expr::Int(0), Expr::Int(4), |f, i| {
            let ld = f.load(inp, Expr::Var(i));
            let sum = f.bin(BinOp::FAdd, Expr::Var(acc), ld);
            vec![FnBuilder::stmt_assign(acc, sum)]
        });
        f.store(out, Expr::Int(0), Expr::Var(acc));
        let main = f.finish();
        pb.finish(main)
    }

    #[test]
    fn reduction_traces_a_chain() {
        let p = reduction_program();
        let cfg = RunConfig::default().with_f64("in", &[1.0, 2.0, 3.0, 4.0]);
        let r = run(&p, &cfg).unwrap();
        assert_eq!(r.f64s("out"), vec![10.0]);
        let g = r.ddg.unwrap();
        assert_eq!(g.len(), 4);
        // Chain: node k feeds node k+1 (taint through the accumulator).
        assert_eq!(g.arc_count(), 3);
        for (u, v) in g.arcs() {
            assert_eq!(u.0 + 1, v.0);
        }
    }

    #[test]
    fn address_uses_are_marked() {
        // out[i * 2] = in[i] + 1.0 — the i*2 node must be address-used.
        let mut pb = ProgramBuilder::new("addr");
        let inp = pb.global("in", Type::F64, 2);
        let out = pb.global("out", Type::F64, 4);
        let mut f = pb.function("main", vec![], None);
        f.for_loop("i", Expr::Int(0), Expr::Int(2), |f, i| {
            let ld = f.load(inp, Expr::Var(i));
            let v = f.bin(BinOp::FAdd, ld, Expr::Float(1.0));
            let idx = f.bin(BinOp::Mul, Expr::Var(i), Expr::Int(2));
            vec![FnBuilder::stmt_store(out, idx, v)]
        });
        let main = f.finish();
        let p = pb.finish(main);
        let r = run(&p, &RunConfig::default().with_f64("in", &[5.0, 6.0])).unwrap();
        assert_eq!(r.f64s("out"), vec![6.0, 0.0, 7.0, 0.0]);
        let g = r.ddg.unwrap();
        let mul = g.find_label("mul").unwrap();
        for n in g.node_ids() {
            let node = g.node(n);
            let is_mul = node.label == mul;
            assert_eq!(
                node.flags.contains(ddg::graph::NodeFlags::ADDRESS_USED),
                is_mul,
                "only index computations are address-used"
            );
        }
    }

    /// Two worker threads sum halves of `in` into partial[tid]; after a
    /// barrier, thread 0 folds partials into out[0] — the paper's Fig. 2
    /// shape in miniature.
    fn threaded_sum_program(nproc: i64) -> Program {
        let mut pb = ProgramBuilder::new("tsum");
        let inp = pb.global("in", Type::F64, 8);
        let partial = pb.global("partial", Type::F64, nproc as usize);
        let out = pb.global("out", Type::F64, 1);
        let bar = pb.barrier();
        let worker_id = repro_ir::FnId(1);

        let mut main = pb.function("main", vec![], None);
        let h = main.local("h", Type::I64);
        let handles = pb_handles(&mut main, nproc);
        for t in 0..nproc {
            main.push(Stmt::Spawn {
                func: worker_id,
                args: vec![Expr::Int(t), Expr::Int(nproc)],
                handle: handles[t as usize],
                loc: repro_ir::Loc::NONE,
            });
        }
        for t in 0..nproc {
            main.push(Stmt::Join {
                handle: Expr::Var(handles[t as usize]),
                loc: repro_ir::Loc::NONE,
            });
        }
        let _ = h;
        let main_id = main.finish();

        let mut w = pb.function("worker", vec![("tid", Type::I64), ("np", Type::I64)], None);
        let tid = w.param(0);
        let np = w.param(1);
        let acc = w.local("acc", Type::F64);
        let k1 = w.local("k1", Type::I64);
        let k2 = w.local("k2", Type::I64);
        // chunk = 8 / np; k1 = tid * chunk; k2 = k1 + chunk
        let chunk = w.bin(BinOp::Div, Expr::Int(8), Expr::Var(np));
        let cvar = w.local("chunk", Type::I64);
        w.assign(cvar, chunk);
        let k1v = w.bin(BinOp::Mul, Expr::Var(tid), Expr::Var(cvar));
        w.assign(k1, k1v);
        let k2v = w.bin(BinOp::Add, Expr::Var(k1), Expr::Var(cvar));
        w.assign(k2, k2v);
        w.assign(acc, Expr::Float(0.0));
        w.for_loop("k", Expr::Var(k1), Expr::Var(k2), |w, k| {
            let ld = w.load(inp, Expr::Var(k));
            let sum = w.bin(BinOp::FAdd, Expr::Var(acc), ld);
            vec![FnBuilder::stmt_assign(acc, sum)]
        });
        w.store(partial, Expr::Var(tid), Expr::Var(acc));
        w.push(Stmt::Barrier {
            bar,
            loc: repro_ir::Loc::NONE,
        });
        // Final reduction on thread with tid == 0 only.
        let is0 = w.bin(BinOp::Eq, Expr::Var(tid), Expr::Int(0));
        let total = w.local("total", Type::F64);
        let mut then_body = Vec::new();
        {
            // total = 0; for t in 0..np { total += partial[t] }; out[0] = total
            then_body.push(FnBuilder::stmt_assign(total, Expr::Float(0.0)));
            let tvar = w.local("t", Type::I64);
            let lid = pb_fresh_loop(&mut w);
            let ld = w.load(partial, Expr::Var(tvar));
            let sum = w.bin(BinOp::FAdd, Expr::Var(total), ld);
            then_body.push(Stmt::For {
                id: lid,
                var: tvar,
                from: Expr::Int(0),
                to: Expr::Var(np),
                step: 1,
                body: vec![FnBuilder::stmt_assign(total, sum)],
                loc: repro_ir::Loc::NONE,
            });
            then_body.push(FnBuilder::stmt_store(out, Expr::Int(0), Expr::Var(total)));
        }
        w.if_then(is0, then_body);
        let wid = w.finish();
        assert_eq!(wid, worker_id);
        pb.finish(main_id)
    }

    fn pb_handles(main: &mut FnBuilder<'_>, nproc: i64) -> Vec<repro_ir::VarId> {
        (0..nproc)
            .map(|t| main.local(format!("h{t}"), Type::I64))
            .collect()
    }

    fn pb_fresh_loop(w: &mut FnBuilder<'_>) -> repro_ir::LoopId {
        w.fresh_loop()
    }

    #[test]
    fn threaded_sum_crosses_threads() {
        let p = threaded_sum_program(2);
        let cfg = RunConfig::default()
            .with_f64("in", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .with_barrier_participants(2);
        let r = run(&p, &cfg).unwrap();
        assert_eq!(r.f64s("out"), vec![36.0]);
        let g = r.ddg.unwrap();
        // Cross-thread arcs: partial sums (threads 1, 2) flow into the
        // final adds executed by the first worker thread.
        let crossing = g
            .arcs()
            .filter(|&(u, v)| g.node(u).thread != g.node(v).thread)
            .count();
        assert!(crossing >= 1, "expected cross-thread dataflow, got none");
    }

    #[test]
    fn trace_off_executes_identically() {
        let p = threaded_sum_program(2);
        let mut cfg = RunConfig::default()
            .with_f64("in", &[1.0; 8])
            .with_barrier_participants(2);
        cfg.trace = TraceMode::Off;
        let r = run(&p, &cfg).unwrap();
        assert!(r.ddg.is_none());
        assert_eq!(r.f64s("out"), vec![8.0]);
    }

    /// A small program with a scale constant, a comparison, and a
    /// data-dependent store — enough surface for fingerprint edits.
    fn fp_program(scale: &str, op: &str, n: &str) -> Program {
        let src = format!(
            "float in[8];\nfloat out[8];\nvoid main() {{\n  int i;\n  \
             for (i = 0; i < {n}; i = i + 1) {{\n    \
             out[i] = in[i] {op} {scale};\n  }}\n  output(out);\n}}\n"
        );
        minc::compile("fp", &src).unwrap()
    }

    fn fp_of(p: &Program, trace: TraceMode) -> (u128, RunResult) {
        let mut cfg = RunConfig::default()
            .with_f64("in", &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
            .with_exec_fingerprint(true);
        cfg.trace = trace;
        let r = run(p, &cfg).unwrap();
        (r.exec_fp.expect("fingerprint requested"), r)
    }

    #[test]
    fn exec_fingerprint_ignores_constant_values_but_not_shape() {
        let base = fp_program("0.95", "*", "8");
        let (fp_base, r_base) = fp_of(&base, TraceMode::Off);
        assert_eq!(r_base.f64s("out")[1], 1.9);

        // Same-shape constant edit: identical instruction and address
        // streams, so the DDG identity — the fingerprint — is unchanged
        // even though every output value differs.
        let edited = fp_program("0.85", "*", "8");
        let (fp_edit, r_edit) = fp_of(&edited, TraceMode::Off);
        assert_eq!(fp_base, fp_edit);
        assert_ne!(r_base.f64s("out"), r_edit.f64s("out"));

        // Operation edit: different node labels, different fingerprint.
        let (fp_op, _) = fp_of(&fp_program("0.95", "+", "8"), TraceMode::Off);
        assert_ne!(fp_base, fp_op);

        // Trip-count edit: same per-iteration stream, fewer iterations.
        let (fp_n, _) = fp_of(&fp_program("0.95", "*", "4"), TraceMode::Off);
        assert_ne!(fp_base, fp_n);
    }

    #[test]
    fn program_shape_erases_constants_only() {
        let shape = |scale, op, n| program_shape(&fp_program(scale, op, n)).unwrap();
        let base = shape("0.95", "*", "8");
        assert_eq!(base, shape("0.85", "*", "8"), "constant value");
        assert_eq!(base, shape("0.95", "*", "4"), "a trip-count constant too");
        assert_ne!(base, shape("0.95", "+", "8"), "operator");
        assert_ne!(base, program_shape(&reduction_program()).unwrap());

        let mut broken = fp_program("0.95", "*", "8");
        broken.entry = repro_ir::FnId(99);
        assert_eq!(
            program_shape(&broken),
            None,
            "invalid programs have no shape"
        );
        let err = run(&broken, &RunConfig::default()).unwrap_err();
        assert!(err.message.contains("invalid program"), "{err}");
    }

    #[test]
    fn exec_fingerprint_is_trace_mode_independent() {
        // The engine records fingerprints during full traced runs and
        // probes with untraced ones; both fold the same stream.
        let p = fp_program("0.95", "*", "8");
        let (fp_off, r_off) = fp_of(&p, TraceMode::Off);
        let (fp_full, r_full) = fp_of(&p, TraceMode::Full);
        assert_eq!(fp_off, fp_full);
        assert!(r_off.ddg.is_none());
        assert!(r_full.ddg.is_some());
        assert_eq!(r_off.f64s("out"), r_full.f64s("out"));
    }

    #[test]
    fn exec_fingerprint_sees_data_dependent_addresses() {
        // out[(int) in[i]] = 1.0 — the address stream depends on input
        // *values*, so changing the data must change the fingerprint
        // even though the source text is identical.
        let src = "float in[4];\nfloat out[8];\nvoid main() {\n  int i;\n  \
                   for (i = 0; i < 4; i = i + 1) {\n    \
                   out[(int) in[i]] = 1.0;\n  }\n  output(out);\n}\n";
        let p = minc::compile("scatter", src).unwrap();
        let fp_for = |data: &[f64]| {
            let cfg = RunConfig::default()
                .with_f64("in", data)
                .with_exec_fingerprint(true);
            run(&p, &cfg).unwrap().exec_fp.unwrap()
        };
        assert_eq!(fp_for(&[0.0, 1.0, 2.0, 3.0]), fp_for(&[0.0, 1.0, 2.0, 3.0]));
        assert_ne!(fp_for(&[0.0, 1.0, 2.0, 3.0]), fp_for(&[3.0, 2.0, 1.0, 0.0]));
    }

    #[test]
    fn exec_fingerprint_covers_threaded_programs() {
        let p = threaded_sum_program(2);
        let mk = |data: &[f64]| {
            let cfg = RunConfig::default()
                .with_f64("in", data)
                .with_barrier_participants(2)
                .with_exec_fingerprint(true);
            let r = run(&p, &cfg).unwrap();
            (r.exec_fp.unwrap(), r.f64s("out"))
        };
        let (fp_a, out_a) = mk(&[1.0; 8]);
        let (fp_b, out_b) = mk(&[2.0; 8]);
        assert_eq!(out_a, vec![8.0]);
        assert_eq!(out_b, vec![16.0]);
        // Same addresses touched, same stream — values don't matter.
        assert_eq!(fp_a, fp_b);
    }

    #[test]
    fn mutexes_serialize_and_unlock_errors_are_caught() {
        let mut pb = ProgramBuilder::new("mtx");
        let out = pb.global("out", Type::I64, 1);
        let m = pb.mutex();
        let mut f = pb.function("main", vec![], None);
        f.push(Stmt::Lock {
            mutex: m,
            loc: repro_ir::Loc::NONE,
        });
        let ld = f.load(out, Expr::Int(0));
        let inc = f.bin(BinOp::Add, ld, Expr::Int(1));
        f.store(out, Expr::Int(0), inc);
        f.push(Stmt::Unlock {
            mutex: m,
            loc: repro_ir::Loc::NONE,
        });
        // Unlock again: runtime error.
        f.push(Stmt::Unlock {
            mutex: m,
            loc: repro_ir::Loc::NONE,
        });
        let main = f.finish();
        let p = pb.finish(main);
        let err = run(&p, &RunConfig::default()).unwrap_err();
        assert!(err.message.contains("not held"), "{err}");
    }

    #[test]
    fn deadlock_is_detected() {
        // Thread 0 waits on a 2-participant barrier no one else reaches.
        let mut pb = ProgramBuilder::new("dead");
        let bar = pb.barrier();
        let mut f = pb.function("main", vec![], None);
        f.push(Stmt::Barrier {
            bar,
            loc: repro_ir::Loc::NONE,
        });
        let main = f.finish();
        let p = pb.finish(main);
        let cfg = RunConfig::default().with_barrier_participants(2);
        let err = run(&p, &cfg).unwrap_err();
        assert!(err.message.contains("deadlock"), "{err}");
    }

    /// `while (i < 1) { i = 0; }` — spins forever.
    fn nonterminating_program() -> Program {
        let src = "int out[1];\nvoid main() {\n  int i;\n  i = 0;\n  \
                   while (i < 1) {\n    i = 0;\n  }\n  output(out);\n}\n";
        minc::compile("spin", src).unwrap()
    }

    #[test]
    fn trace_fuel_stops_a_nonterminating_program() {
        let p = nonterminating_program();
        let cfg = RunConfig::default().with_max_steps(10_000);
        let err = run(&p, &cfg).unwrap_err();
        assert!(err.message.contains("step limit"), "{err}");
    }

    #[test]
    fn deadline_stops_a_nonterminating_program() {
        let p = nonterminating_program();
        let cfg = RunConfig::default()
            .with_deadline(Instant::now() + std::time::Duration::from_millis(30));
        let t0 = Instant::now();
        let err = run(&p, &cfg).unwrap_err();
        assert!(err.message.contains("deadline"), "{err}");
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(20),
            "deadline must cut the run off promptly"
        );
    }

    #[test]
    fn unexpired_deadline_does_not_perturb_a_run() {
        let p = map_program();
        let cfg = RunConfig::default()
            .with_f64("in", &[1.0, 2.0, 3.0, 4.0])
            .with_deadline(Instant::now() + std::time::Duration::from_secs(3600));
        let r = run(&p, &cfg).unwrap();
        assert_eq!(r.f64s("out"), vec![2.0, 4.0, 6.0, 8.0]);
    }

    #[cfg(feature = "fault-inject")]
    #[test]
    fn injected_step_delay_trips_the_deadline() {
        // A spinning program slowed to ~10 ms per scheduler slice: the
        // 30 ms deadline must fire at a slice boundary long before the
        // (generous) fuel runs out.
        let p = nonterminating_program();
        let mut cfg = RunConfig::default()
            .with_deadline(Instant::now() + std::time::Duration::from_millis(30));
        cfg.fault = Some(TraceFault {
            every: 4000,
            delay: std::time::Duration::from_millis(10),
        });
        let err = run(&p, &cfg).unwrap_err();
        assert!(err.message.contains("deadline"), "{err}");
    }

    #[test]
    fn out_of_bounds_is_an_error() {
        let mut pb = ProgramBuilder::new("oob");
        let a = pb.global("a", Type::I64, 2);
        let mut f = pb.function("main", vec![], None);
        f.store(a, Expr::Int(5), Expr::Int(1));
        let main = f.finish();
        let p = pb.finish(main);
        let err = run(&p, &RunConfig::default()).unwrap_err();
        assert!(err.message.contains("out of bounds"), "{err}");
    }

    #[test]
    fn calls_flow_dataflow_through_return() {
        // f(x) = x * x; main: out[0] = f(in[0]) + 1.0
        let mut pb = ProgramBuilder::new("call");
        let inp = pb.global("in", Type::F64, 1);
        let out = pb.global("out", Type::F64, 1);
        let sq = {
            let mut f = pb.function("sq", vec![("x", Type::F64)], Some(Type::F64));
            let x = f.param(0);
            let v = f.bin(BinOp::FMul, Expr::Var(x), Expr::Var(x));
            f.ret(Some(v));
            f.finish()
        };
        let mut f = pb.function("main", vec![], None);
        let ld = f.load(inp, Expr::Int(0));
        let c = f.call(sq, vec![ld]);
        let v = f.bin(BinOp::FAdd, c, Expr::Float(1.0));
        f.store(out, Expr::Int(0), v);
        let main = f.finish();
        let p = pb.finish(main);
        let r = run(&p, &RunConfig::default().with_f64("in", &[3.0])).unwrap();
        assert_eq!(r.f64s("out"), vec![10.0]);
        let g = r.ddg.unwrap();
        // fmul (inside sq) -> fadd (in main): one arc.
        assert_eq!(g.len(), 2);
        assert_eq!(g.arc_count(), 1);
    }

    #[test]
    fn while_loop_iterator_ops_are_flagged() {
        // i = 0; while (i < 3) { out[0] = out[0] + 1; i = i + 1; }
        let mut pb = ProgramBuilder::new("wh");
        let out = pb.global("out", Type::I64, 1);
        let mut f = pb.function("main", vec![], None);
        let i = f.local("i", Type::I64);
        f.assign(i, Expr::Int(0));
        let cond = f.bin(BinOp::Lt, Expr::Var(i), Expr::Int(3));
        let ld = f.load(out, Expr::Int(0));
        let body_add = f.bin(BinOp::Add, ld, Expr::Int(1));
        let inc = f.bin(BinOp::Add, Expr::Var(i), Expr::Int(1));
        let lid = f.fresh_loop();
        f.push(Stmt::While {
            id: lid,
            cond,
            body: vec![
                FnBuilder::stmt_store(out, Expr::Int(0), body_add),
                FnBuilder::stmt_assign(i, inc),
            ],
            loc: repro_ir::Loc::NONE,
        });
        let main = f.finish();
        let p = pb.finish(main);
        let r = run(&p, &RunConfig::default()).unwrap();
        assert_eq!(r.i64s("out"), vec![3]);
        let g = r.ddg.unwrap();
        let flagged = g
            .node_ids()
            .filter(|&n| g.node(n).flags.contains(ddg::graph::NodeFlags::ITERATOR))
            .count();
        // Per executed iteration: 1 cond cmp + 1 increment; plus the final
        // failing test = 3*2 + 1 = 7 flagged nodes.
        assert_eq!(flagged, 7);
        // The accumulation adds are not flagged.
        let unflagged = g.len() - flagged;
        assert_eq!(unflagged, 3);
    }

    #[test]
    fn scopes_track_nested_loops() {
        let mut pb = ProgramBuilder::new("nest");
        let out = pb.global("out", Type::F64, 4);
        let mut f = pb.function("main", vec![], None);
        f.for_loop("i", Expr::Int(0), Expr::Int(2), |f, i| {
            let inner_var = f.local("j", Type::I64);
            let lid = f.fresh_loop();
            let idx = f.bin(BinOp::Mul, Expr::Var(i), Expr::Int(2));
            let idx2 = f.bin(BinOp::Add, idx, Expr::Var(inner_var));
            let ld = f.load(out, idx2.clone());
            let v = f.bin(BinOp::FAdd, ld, Expr::Float(1.0));
            vec![Stmt::For {
                id: lid,
                var: inner_var,
                from: Expr::Int(0),
                to: Expr::Int(2),
                step: 1,
                body: vec![FnBuilder::stmt_store(out, idx2, v)],
                loc: repro_ir::Loc::NONE,
            }]
        });
        let main = f.finish();
        let p = pb.finish(main);
        let r = run(&p, &RunConfig::default()).unwrap();
        assert_eq!(r.f64s("out"), vec![1.0; 4]);
        let g = r.ddg.unwrap();
        let fadds: Vec<_> = g
            .node_ids()
            .filter(|&n| g.label_str(g.node(n).label) == "fadd")
            .collect();
        assert_eq!(fadds.len(), 4);
        for n in fadds {
            assert_eq!(
                g.node(n).scope.len(),
                2,
                "fadd executes under two nested loops"
            );
        }
    }
}
