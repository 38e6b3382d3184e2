//! Execution fingerprinting: a streaming hash over the executed
//! instruction stream that identifies the DDG a traced run *would*
//! produce, at untraced-execution cost.
//!
//! The incremental query layer (`repro-query`) keys trace artifacts by
//! program content, so any source edit — even one that only changes a
//! constant — forces a full re-trace. But the DDG does not depend on
//! runtime *values*: its nodes carry (operation, static op id, source
//! position, thread, dynamic loop scope) and its arcs follow dataflow
//! through slots, the operand stack, and array cells. All of that is a
//! deterministic function of *which instructions execute, in which
//! order, against which addresses*. [`FpState`] folds exactly that
//! stream into a 128-bit digest:
//!
//! - per executed instruction: a precomputed digest of its static
//!   content — opcode, operand slot/array/function/loop ids, source
//!   position, jump targets — mixed with the executing thread. Constant
//!   *values* are deliberately excluded (only the value's type tag is
//!   hashed), so a same-shape constant edit leaves the stream
//!   unchanged; they re-enter the stream indirectly wherever they
//!   matter, as branch outcomes or array addresses.
//! - per array access: the dynamic (array, index) pair — the address
//!   stream that determines every memory-carried def-use arc.
//! - a seed over the program's iterator-op classification (the only
//!   static analysis whose output lands in DDG node flags).
//!
//! Two executions with equal digests therefore executed element-wise
//! identical instruction streams with identical address streams, and
//! would have produced byte-identical DDGs. The engine exploits this:
//! a cheap fingerprint-only run (no DDG construction) resolves which
//! cached DDG an edited program still corresponds to.

use crate::bytecode::{CompiledProgram, Inst, Pos};
use repro_ir::{ContentHash, WordHasher};
use std::collections::HashSet;

/// FNV-1a 64-bit, word-at-a-time. Speed matters here — one mix per
/// executed instruction — and the keys are not adversarial.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn fnv(h: u64, w: u64) -> u64 {
    (h ^ w).wrapping_mul(FNV_PRIME)
}

/// Streaming fingerprint state for one run. Two independent lanes with
/// different initial offsets give a 128-bit digest without widening the
/// per-step arithmetic.
pub(crate) struct FpState {
    /// Per-instruction static digests, indexed `[function][pc]`.
    digests: Vec<Vec<u64>>,
    lo: u64,
    hi: u64,
}

impl FpState {
    pub(crate) fn new(code: &CompiledProgram, iterator_ops: &HashSet<u32>) -> FpState {
        let digests = code
            .functions
            .iter()
            .map(|f| f.code.iter().map(inst_digest).collect())
            .collect();
        // Seed with the iterator-op classification: it is derived from
        // the program, lands in node flags, and is the one DDG input
        // the instruction stream does not replay.
        let mut ops: Vec<u32> = iterator_ops.iter().copied().collect();
        ops.sort_unstable();
        let mut lo = FNV_OFFSET;
        let mut hi = FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15;
        lo = fnv(lo, ops.len() as u64);
        hi = fnv(hi, code.entry.index() as u64);
        for op in ops {
            lo = fnv(lo, op as u64);
            hi = fnv(hi, op as u64);
        }
        FpState { digests, lo, hi }
    }

    /// One instruction about to execute on thread `t`. Called for every
    /// dispatch, including retried synchronization instructions — a
    /// blocked `Join` hashing twice is deterministic, and equal streams
    /// still imply equal schedules.
    #[inline]
    pub(crate) fn step(&mut self, t: usize, func: usize, pc: usize) {
        let d = self.digests[func][pc] ^ (t as u64).rotate_left(48);
        self.lo = fnv(self.lo, d);
        self.hi = fnv(self.hi, d);
    }

    /// One dynamic array access (load or store).
    #[inline]
    pub(crate) fn addr(&mut self, arr: usize, idx: usize) {
        let w = ((arr as u64) << 48) ^ idx as u64;
        self.lo = fnv(self.lo, w);
        self.hi = fnv(self.hi, w);
    }

    pub(crate) fn finish(&self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }
}

/// The constant-erased fingerprint of a compiled program: the seed a
/// run's [`FpState`] starts from (the iterator-op classification and the
/// entry function), then every instruction's static digest in function
/// and pc order. The digests hash a constant's type, never its value,
/// so programs that differ only in constant values share it; any other
/// edit — an operator, a slot, a source position, a jump target —
/// changes it.
pub(crate) fn program_shape(code: &CompiledProgram, iterator_ops: &HashSet<u32>) -> ContentHash {
    let seed = FpState::new(code, iterator_ops);
    let mut h = WordHasher::new();
    h.write_u64(seed.lo);
    h.write_u64(seed.hi);
    for digests in &seed.digests {
        h.write_u64(digests.len() as u64);
        for &d in digests {
            h.write_u64(d);
        }
    }
    h.finish()
}

/// Digest of one instruction's static content. Everything that shapes
/// execution or the DDG is included; constant *values* are not — they
/// are exactly what an equivalent edit is allowed to change.
fn inst_digest(inst: &Inst) -> u64 {
    let h = FNV_OFFSET;
    let w = fnv;
    match inst {
        Inst::Const(v) => w(w(h, 1), value_tag(v)),
        Inst::LoadVar(v) => w(w(h, 2), v.index() as u64),
        Inst::StoreVar(v) => w(w(h, 3), v.index() as u64),
        Inst::LoadArr(a) => w(w(h, 4), a.index() as u64),
        Inst::StoreArr(a) => w(w(h, 5), a.index() as u64),
        Inst::Bin { op, id, pos } => pos_digest(w(w(w(h, 6), *op as u64), id.0 as u64), pos),
        Inst::Un { op, id, pos } => pos_digest(w(w(w(h, 7), *op as u64), id.0 as u64), pos),
        Inst::Intr { op, id, pos } => pos_digest(w(w(w(h, 8), *op as u64), id.0 as u64), pos),
        Inst::Call(f) => w(w(h, 9), f.index() as u64),
        Inst::Ret { has_value } => w(w(h, 10), *has_value as u64),
        Inst::Pop => w(h, 11),
        Inst::Jump(target) => w(w(h, 12), *target as u64),
        Inst::JumpIfFalse(target) => w(w(h, 13), *target as u64),
        Inst::ForInit { var } => w(w(h, 14), var.index() as u64),
        Inst::StoreBound { slot } => w(w(h, 15), slot.index() as u64),
        Inst::LoopEnter { id } => w(w(h, 16), id.0 as u64),
        Inst::ForTest {
            var,
            bound,
            step,
            exit,
            id,
        } => {
            let h = w(w(w(h, 17), var.index() as u64), bound.index() as u64);
            w(w(w(h, *step as u64), *exit as u64), id.0 as u64)
        }
        Inst::ForStep { var, step } => w(w(w(h, 18), var.index() as u64), *step as u64),
        Inst::WhileIter { id } => w(w(h, 19), id.0 as u64),
        Inst::LoopExit { id } => w(w(h, 20), id.0 as u64),
        Inst::Spawn {
            func,
            nargs,
            handle,
        } => w(
            w(w(w(h, 21), func.index() as u64), *nargs as u64),
            handle.index() as u64,
        ),
        Inst::Join => w(h, 22),
        Inst::Barrier { bar } => w(w(h, 23), *bar as u64),
        Inst::Lock { m } => w(w(h, 24), *m as u64),
        Inst::Unlock { m } => w(w(h, 25), *m as u64),
        Inst::Output { arr } => w(w(h, 26), arr.index() as u64),
    }
}

fn value_tag(v: &repro_ir::Value) -> u64 {
    match v {
        repro_ir::Value::I64(_) => 1,
        repro_ir::Value::F64(_) => 2,
        repro_ir::Value::Bool(_) => 3,
    }
}

fn pos_digest(h: u64, pos: &Pos) -> u64 {
    fnv(
        fnv(h, ((pos.file as u64) << 32) | pos.line as u64),
        pos.col as u64,
    )
}
