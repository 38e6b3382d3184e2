//! The single-step interpreter: instruction semantics for the
//! [`crate::machine::Machine`].
//!
//! [`step`] executes one non-synchronizing instruction against the
//! machine's [`SeqEnv`] (memory, tracing, loop-instance numbering), and
//! returns synchronization instructions *unexecuted* so the machine's
//! scheduler applies its blocking and wake-up rules to them.

use crate::bytecode::{CompiledProgram, Inst};
use crate::machine::SeqEnv;
use crate::shadow::Taint;
use ddg::ScopeEntry;
use repro_ir::{BinOp, FnId, Intrinsic, Program, UnOp, Value};

/// A value paired with its provenance.
pub(crate) type Slot = (Value, Taint);

/// One call frame of a simulated thread.
pub(crate) struct Frame {
    pub func: FnId,
    pub pc: usize,
    pub slots: Vec<Slot>,
    pub stack: Vec<Slot>,
}

/// The scheduler-independent state of a simulated thread: its call stack
/// and dynamic loop scope. Scheduling status lives with the machine.
pub(crate) struct ThreadCtx {
    pub frames: Vec<Frame>,
    pub scope: Vec<ScopeEntry>,
}

impl ThreadCtx {
    pub(crate) fn new(frame: Frame) -> Self {
        ThreadCtx {
            frames: vec![frame],
            scope: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn frame(&self) -> &Frame {
        self.frames.last().expect("no frame")
    }

    #[inline]
    pub(crate) fn frame_mut(&mut self) -> &mut Frame {
        self.frames.last_mut().expect("no frame")
    }

    #[inline]
    pub(crate) fn push(&mut self, s: Slot) {
        self.frame_mut().stack.push(s);
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Result<Slot, String> {
        self.frame_mut()
            .stack
            .pop()
            .ok_or_else(|| "operand stack underflow".to_string())
    }
}

/// The operation kind behind a traced node (label interning key).
#[derive(Clone, Copy)]
pub(crate) enum TraceOp {
    Bin(BinOp),
    Un(UnOp),
    Intr(Intrinsic),
}

/// Outcome of one [`step`].
pub(crate) enum StepOut {
    /// An ordinary instruction executed.
    Ran,
    /// The thread is at a synchronization instruction. *Nothing* was
    /// executed — no pc advance, no pops, no step counted; the machine
    /// owns the instruction's semantics and its scheduling effects.
    Sync(Inst),
    /// The final `Ret` executed (it counts as a step): the thread's
    /// last frame popped. Carries the return slot, if any.
    Done(Option<Slot>),
}

/// Allocates a frame with parameters bound and locals zero-initialized
/// by declared type (hidden bound slots are i64).
pub(crate) fn new_frame(
    program: &Program,
    code: &CompiledProgram,
    func: FnId,
    args: Vec<Slot>,
) -> Frame {
    let cf = code.function(func);
    let irf = program.function(func);
    let mut slots: Vec<Slot> = Vec::with_capacity(cf.n_slots);
    for (i, arg) in args.into_iter().enumerate() {
        debug_assert!(i < cf.n_params);
        slots.push(arg);
    }
    for i in slots.len()..cf.n_slots {
        let ty = if i < irf.slot_count() {
            irf.slot(repro_ir::VarId(i as u32)).1
        } else {
            repro_ir::Type::I64
        };
        // Zero-initialized locals behave like constants (C statics).
        slots.push((Value::zero(ty), Taint::Const));
    }
    Frame {
        func,
        pc: 0,
        slots,
        stack: Vec::new(),
    }
}

fn check_index(env: &SeqEnv<'_>, arr: usize, idx: Value) -> Result<usize, String> {
    let i = idx.as_i64("array index")?;
    let len = env.array_len(arr);
    if i < 0 || i as usize >= len {
        let name = env.array_name(arr);
        return Err(format!("index {i} out of bounds for {name}[{len}]"));
    }
    Ok(i as usize)
}

/// Executes one instruction of thread `t`. Errors carry the message
/// only; the machine attributes them to the thread.
pub(crate) fn step(
    env: &mut SeqEnv<'_>,
    ctx: &mut ThreadCtx,
    program: &Program,
    code: &CompiledProgram,
    t: usize,
) -> Result<StepOut, String> {
    let (func, pc) = {
        let f = ctx.frames.last().ok_or_else(|| "no frame".to_string())?;
        (f.func, f.pc)
    };
    env.fp_step(t, func.index(), pc);
    // Cloning one instruction keeps the borrow checker out of the way;
    // instructions are small (≤ 40 bytes).
    let inst = code.function(func).code[pc].clone();
    if matches!(
        inst,
        Inst::Spawn { .. }
            | Inst::Join
            | Inst::Barrier { .. }
            | Inst::Lock { .. }
            | Inst::Unlock { .. }
            | Inst::Output { .. }
    ) {
        return Ok(StepOut::Sync(inst));
    }
    // Default: advance. Jumps overwrite.
    ctx.frame_mut().pc += 1;

    match inst {
        Inst::Const(v) => ctx.push((v, Taint::Const)),
        Inst::LoadVar(v) => {
            let s = ctx.frame().slots[v.index()];
            ctx.push(s);
        }
        Inst::StoreVar(v) => {
            let s = ctx.pop()?;
            ctx.frame_mut().slots[v.index()] = s;
        }
        Inst::LoadArr(a) => {
            let (idx, it) = ctx.pop()?;
            if let Taint::Node(n) = it {
                env.mark_address(n);
            }
            let i = check_index(env, a.index(), idx)?;
            let s = env.load(a.index(), i);
            ctx.push(s);
        }
        Inst::StoreArr(a) => {
            let (v, vt) = ctx.pop()?;
            let (idx, it) = ctx.pop()?;
            if let Taint::Node(n) = it {
                env.mark_address(n);
            }
            let i = check_index(env, a.index(), idx)?;
            env.store(a.index(), i, v, vt);
        }
        Inst::Bin { op, id, pos } => {
            let (b, bt) = ctx.pop()?;
            let (a, at) = ctx.pop()?;
            let v = eval_bin(op, a, b)?;
            let def = env.trace_node(t, TraceOp::Bin(op), id.0, pos, &[at, bt], &ctx.scope);
            ctx.push((v, def));
        }
        Inst::Un { op, id, pos } => {
            let (a, at) = ctx.pop()?;
            let v = eval_un(op, a)?;
            let def = env.trace_node(t, TraceOp::Un(op), id.0, pos, &[at], &ctx.scope);
            ctx.push((v, def));
        }
        Inst::Intr { op, id, pos } => {
            let n = op.arity();
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(ctx.pop()?);
            }
            args.reverse();
            let v = eval_intr(op, &args)?;
            let taints: Vec<Taint> = args.iter().map(|&(_, ta)| ta).collect();
            let def = env.trace_node(t, TraceOp::Intr(op), id.0, pos, &taints, &ctx.scope);
            ctx.push((v, def));
        }
        Inst::Call(f) => {
            let n = code.function(f).n_params;
            let mut args = Vec::with_capacity(n);
            for _ in 0..n {
                args.push(ctx.pop()?);
            }
            args.reverse();
            let frame = new_frame(program, code, f, args);
            ctx.frames.push(frame);
        }
        Inst::Ret { has_value } => {
            let ret = if has_value { Some(ctx.pop()?) } else { None };
            ctx.frames.pop();
            if ctx.frames.is_empty() {
                return Ok(StepOut::Done(ret));
            } else if let Some(r) = ret {
                ctx.push(r);
            }
        }
        Inst::Pop => {
            ctx.pop()?;
        }
        Inst::Jump(target) => ctx.frame_mut().pc = target,
        Inst::JumpIfFalse(target) => {
            let (v, vt) = ctx.pop()?;
            if let Taint::Node(n) = vt {
                env.mark_control(n);
            }
            if !v.as_bool("branch condition")? {
                ctx.frame_mut().pc = target;
            }
        }
        Inst::ForInit { var } => {
            let (v, vt) = ctx.pop()?;
            // Bounds computation is traversal bookkeeping: record it
            // like an address use so simplification can strip the
            // work-splitting arithmetic (k1 = pid * chunk, ...).
            if let Taint::Node(n) = vt {
                env.mark_address(n);
            }
            ctx.frame_mut().slots[var.index()] = (v, Taint::Const);
        }
        Inst::StoreBound { slot } => {
            let (v, vt) = ctx.pop()?;
            if let Taint::Node(n) = vt {
                env.mark_address(n);
            }
            ctx.frame_mut().slots[slot.index()] = (v, Taint::Const);
        }
        Inst::LoopEnter { id } => {
            let instance = env.loop_enter(id.0);
            // iter starts one-before-zero; the first head test wraps to 0.
            ctx.scope.push(ScopeEntry {
                loop_id: id.0,
                instance,
                iter: u32::MAX,
            });
        }
        Inst::ForTest {
            var,
            bound,
            step,
            exit,
            id,
        } => {
            let v = ctx.frame().slots[var.index()].0.as_i64("loop var")?;
            let b = ctx.frame().slots[bound.index()].0.as_i64("loop bound")?;
            let cont = if step > 0 { v < b } else { v > b };
            if cont {
                let e = ctx.scope.last_mut().expect("ForTest outside loop scope");
                debug_assert_eq!(e.loop_id, id.0);
                e.iter = e.iter.wrapping_add(1);
            } else {
                ctx.frame_mut().pc = exit;
            }
        }
        Inst::ForStep { var, step } => {
            let slot = &mut ctx.frame_mut().slots[var.index()];
            if let Value::I64(v) = slot.0 {
                *slot = (Value::I64(v + step), Taint::Const);
            } else {
                return Err("loop variable must be i64".to_string());
            }
        }
        Inst::WhileIter { id } => {
            let e = ctx.scope.last_mut().expect("WhileIter outside scope");
            debug_assert_eq!(e.loop_id, id.0);
            e.iter = e.iter.wrapping_add(1);
        }
        Inst::LoopExit { id } => {
            let e = ctx.scope.pop().expect("LoopExit without scope");
            debug_assert_eq!(e.loop_id, id.0);
        }
        Inst::Spawn { .. }
        | Inst::Join
        | Inst::Barrier { .. }
        | Inst::Lock { .. }
        | Inst::Unlock { .. }
        | Inst::Output { .. } => unreachable!("sync instructions returned above"),
    }
    Ok(StepOut::Ran)
}

// ---- operation semantics ----

fn eval_bin(op: BinOp, a: Value, b: Value) -> Result<Value, String> {
    use BinOp::*;
    Ok(match op {
        Add => Value::I64(a.as_i64("add")?.wrapping_add(b.as_i64("add")?)),
        Sub => Value::I64(a.as_i64("sub")?.wrapping_sub(b.as_i64("sub")?)),
        Mul => Value::I64(a.as_i64("mul")?.wrapping_mul(b.as_i64("mul")?)),
        Div => {
            let d = b.as_i64("div")?;
            if d == 0 {
                return Err("division by zero".into());
            }
            Value::I64(a.as_i64("div")?.wrapping_div(d))
        }
        Rem => {
            let d = b.as_i64("rem")?;
            if d == 0 {
                return Err("remainder by zero".into());
            }
            Value::I64(a.as_i64("rem")?.wrapping_rem(d))
        }
        FAdd => Value::F64(a.as_f64("fadd")? + b.as_f64("fadd")?),
        FSub => Value::F64(a.as_f64("fsub")? - b.as_f64("fsub")?),
        FMul => Value::F64(a.as_f64("fmul")? * b.as_f64("fmul")?),
        FDiv => Value::F64(a.as_f64("fdiv")? / b.as_f64("fdiv")?),
        And => bitwise(a, b, |x, y| x & y, |x, y| x && y)?,
        Or => bitwise(a, b, |x, y| x | y, |x, y| x || y)?,
        Xor => bitwise(a, b, |x, y| x ^ y, |x, y| x ^ y)?,
        Shl => Value::I64(a.as_i64("shl")?.wrapping_shl(b.as_i64("shl")? as u32)),
        Shr => Value::I64((a.as_i64("shr")? as u64 >> (b.as_i64("shr")? as u32 & 63)) as i64),
        Eq => Value::Bool(a.as_i64("icmp")? == b.as_i64("icmp")?),
        Ne => Value::Bool(a.as_i64("icmp")? != b.as_i64("icmp")?),
        Lt => Value::Bool(a.as_i64("icmp")? < b.as_i64("icmp")?),
        Le => Value::Bool(a.as_i64("icmp")? <= b.as_i64("icmp")?),
        Gt => Value::Bool(a.as_i64("icmp")? > b.as_i64("icmp")?),
        Ge => Value::Bool(a.as_i64("icmp")? >= b.as_i64("icmp")?),
        FEq => Value::Bool(a.as_f64("fcmp")? == b.as_f64("fcmp")?),
        FNe => Value::Bool(a.as_f64("fcmp")? != b.as_f64("fcmp")?),
        FLt => Value::Bool(a.as_f64("fcmp")? < b.as_f64("fcmp")?),
        FLe => Value::Bool(a.as_f64("fcmp")? <= b.as_f64("fcmp")?),
        FGt => Value::Bool(a.as_f64("fcmp")? > b.as_f64("fcmp")?),
        FGe => Value::Bool(a.as_f64("fcmp")? >= b.as_f64("fcmp")?),
        Min => Value::I64(a.as_i64("smin")?.min(b.as_i64("smin")?)),
        Max => Value::I64(a.as_i64("smax")?.max(b.as_i64("smax")?)),
        FMin => Value::F64(a.as_f64("fmin")?.min(b.as_f64("fmin")?)),
        FMax => Value::F64(a.as_f64("fmax")?.max(b.as_f64("fmax")?)),
    })
}

fn bitwise(
    a: Value,
    b: Value,
    fi: impl Fn(i64, i64) -> i64,
    fb: impl Fn(bool, bool) -> bool,
) -> Result<Value, String> {
    match (a, b) {
        (Value::I64(x), Value::I64(y)) => Ok(Value::I64(fi(x, y))),
        (Value::Bool(x), Value::Bool(y)) => Ok(Value::Bool(fb(x, y))),
        _ => Err("bitwise op needs matching i64 or bool operands".into()),
    }
}

fn eval_un(op: UnOp, a: Value) -> Result<Value, String> {
    Ok(match op {
        UnOp::Neg => Value::I64(-a.as_i64("neg")?),
        UnOp::FNeg => Value::F64(-a.as_f64("fneg")?),
        UnOp::Not => Value::Bool(!a.as_bool("not")?),
        UnOp::IntToFloat => Value::F64(a.as_i64("sitofp")? as f64),
        UnOp::FloatToInt => Value::I64(a.as_f64("fptosi")? as i64),
    })
}

fn eval_intr(op: Intrinsic, args: &[Slot]) -> Result<Value, String> {
    Ok(match op {
        Intrinsic::Sqrt => Value::F64(args[0].0.as_f64("sqrt")?.sqrt()),
        Intrinsic::Abs => Value::I64(args[0].0.as_i64("abs")?.abs()),
        Intrinsic::FAbs => Value::F64(args[0].0.as_f64("fabs")?.abs()),
        Intrinsic::Floor => Value::F64(args[0].0.as_f64("floor")?.floor()),
        Intrinsic::Sin => Value::F64(args[0].0.as_f64("sin")?.sin()),
        Intrinsic::Cos => Value::F64(args[0].0.as_f64("cos")?.cos()),
        Intrinsic::Exp => Value::F64(args[0].0.as_f64("exp")?.exp()),
        Intrinsic::Log => Value::F64(args[0].0.as_f64("log")?.ln()),
        Intrinsic::Select => {
            if args[0].0.as_bool("select")? {
                args[1].0
            } else {
                args[2].0
            }
        }
    })
}
