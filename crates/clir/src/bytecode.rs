//! Register bytecode: the compiled execution engine for kernels.
//!
//! The tree-walking interpreter in [`crate::interp`] re-fetches every
//! instruction through two levels of `Vec` indexing and re-resolves block
//! targets on every loop iteration — per-node overhead the real `aoc`
//! offline compiler would have compiled away. This module flattens a
//! verified [`Function`] once into a [`CompiledKernel`]: a linear stream
//! of register-machine ops with pre-resolved jump offsets, an interned
//! constant pool and specialized opcodes for the hot double-precision
//! arithmetic of the pricing kernels. [`LanesRun`] then executes it one
//! work-group at a time, dispatching each op once per lockstep group of
//! work-items (a single lane for single-work-item tasks).
//!
//! The engine is observationally identical to the tree-walker by
//! construction: same argument-binding errors, same [`ExecStats`]
//! counting (down to the order of count-vs-trap), same step-budget
//! accounting (one step per fetched position, terminators included), and
//! the same barrier-suspension protocol — divergence errors report
//! original `(block, instruction)` positions via a side table. The
//! differential suite in `tests/compile_pipeline.rs` and the proptests in
//! `crates/devtests` pin this contract down.

use crate::eval::{eval_bin, eval_cast, eval_cmp, eval_un};
use crate::interp::{
    check_pipe_shape, pipe_deadlock_trap, private_oob, stored_type, ExecError, GroupShape,
    KernelArgValue, Memory, RunOutcome, DEFAULT_STEP_LIMIT,
};
use crate::ir::{BinOp, Builtin, CmpOp, Function, Inst, Param, Terminator, UnOp, WiQuery};
use crate::mathlib::MathLib;
use crate::pipes::PipeHub;
use crate::stats::ExecStats;
use crate::types::{AddressSpace, ScalarType, Type};
use crate::value::{PtrValue, Value};
use std::collections::HashMap;
use std::fmt;

/// One flattened instruction. Register and constant-pool indices are
/// pre-resolved `u32`s; jump targets are program counters.
#[derive(Debug, Clone, PartialEq)]
enum Op {
    /// `r[dst] = consts[idx]`.
    Const {
        dst: u32,
        idx: u32,
    },
    /// `r[dst] = r[src]`.
    Mov {
        dst: u32,
        src: u32,
    },
    /// Specialized `f64` arithmetic (the hot path of both paper kernels).
    AddF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    SubF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MulF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    DivF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MinF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    MaxF64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Specialized `i64` addition (loop counters, index arithmetic).
    AddI64 {
        dst: u32,
        a: u32,
        b: u32,
    },
    /// Generic two-operand op, evaluated through [`eval_bin`] so trap
    /// messages match the tree-walker exactly.
    Bin {
        op: BinOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Un {
        op: UnOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
    },
    Cmp {
        op: CmpOp,
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    Select {
        ty: ScalarType,
        dst: u32,
        cond: u32,
        a: u32,
        b: u32,
    },
    Cast {
        dst: u32,
        a: u32,
        from: ScalarType,
        to: ScalarType,
    },
    /// One-argument math builtin (`exp`, `log`, `sqrt`).
    Call1 {
        func: Builtin,
        ty: ScalarType,
        dst: u32,
        a: u32,
    },
    /// `pow(a, b)`.
    Pow {
        ty: ScalarType,
        dst: u32,
        a: u32,
        b: u32,
    },
    WorkItem {
        query: WiQuery,
        dim: u8,
        dst: u32,
    },
    Gep {
        dst: u32,
        base: u32,
        index: u32,
        elem: ScalarType,
        /// Type of the index register, which decides how its cell
        /// widens to a 64-bit element count.
        index_ty: ScalarType,
    },
    Load {
        dst: u32,
        ptr: u32,
        ty: ScalarType,
    },
    Store {
        ptr: u32,
        val: u32,
        ty: ScalarType,
    },
    /// Peephole-fused `dst = a*b + c` (or `c + a*b` when `c_first`).
    /// Both roundings of the unfused pair are kept — this is a dispatch
    /// fusion, not a mathematical FMA — and it charges *two* steps plus
    /// one `mul64` and one `add64`, exactly what the tree-walker pays
    /// for the two source instructions.
    MulAddF64 {
        dst: u32,
        a: u32,
        b: u32,
        c: u32,
        /// Operand order of the original add (`c + prod` vs `prod + c`);
        /// preserved so NaN-payload propagation stays bit-identical.
        c_first: bool,
    },
    /// A self-move elided by the peephole: charges the step and the
    /// `mov` count the tree-walker pays, moves no data.
    ChargeMov,
    /// Peephole-threaded jump through a jump-only block: lands directly
    /// on `block` (pc `target`) but charges the skipped block's
    /// execution and step, so dynamic counts match the tree-walker
    /// hopping through `mid_block`.
    JumpThread {
        target: u32,
        mid_block: u32,
        block: u32,
    },
    Barrier,
    /// Blocking pipe read; suspends the item when the FIFO is empty.
    PipeRead {
        dst: u32,
        pipe: u32,
        ty: ScalarType,
    },
    /// Blocking pipe write; suspends the item when the FIFO is full.
    PipeWrite {
        pipe: u32,
        val: u32,
        ty: ScalarType,
    },
    /// Unconditional jump to `target` (pc); `block` is the destination
    /// block id, charged to `block_execs`.
    Jump {
        target: u32,
        block: u32,
    },
    /// Conditional branch; targets are pcs, blocks are the destination
    /// block ids.
    Branch {
        cond: u32,
        then_target: u32,
        then_block: u32,
        else_target: u32,
        else_block: u32,
    },
    Return,
}

/// Interning key for the constant pool. [`Value`] itself is not `Eq`
/// (floats), so constants are keyed on their bit patterns: `2.0` and
/// `2.0` share a slot, `0.0` and `-0.0` do not.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Bool(bool),
    I32(i32),
    I64(i64),
    F32(u32),
    F64(u64),
    Ptr(AddressSpace, u32, i64),
}

impl ConstKey {
    fn of(v: Value) -> ConstKey {
        match v {
            Value::Bool(b) => ConstKey::Bool(b),
            Value::I32(x) => ConstKey::I32(x),
            Value::I64(x) => ConstKey::I64(x),
            Value::F32(x) => ConstKey::F32(x.to_bits()),
            Value::F64(x) => ConstKey::F64(x.to_bits()),
            Value::Ptr(p) => ConstKey::Ptr(p.space, p.buffer, p.offset),
        }
    }
}

/// A kernel flattened to linear bytecode, ready for repeated dispatch.
///
/// Compilation is infallible on verified IR; build it once per kernel
/// (the OpenCL-style runtime caches it in the program object) and run it
/// many times via [`LanesRun`]. The `Display` impl renders a
/// disassembly listing (the `aoc` bench bin's `--dump-bytecode`).
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledKernel {
    name: String,
    params: Vec<Param>,
    reg_types: Vec<Type>,
    code: Vec<Op>,
    consts: Vec<Value>,
    block_starts: Vec<u32>,
    /// `(block, instruction)` source position of every pc, for error
    /// reports that must match the tree-walker.
    pos_of_pc: Vec<(u32, u32)>,
    private_bytes: usize,
    /// Row of each pointer-typed register in the lanes engine's pointer
    /// plane (`u32::MAX` for scalar registers), and the number of rows.
    ptr_slot: Vec<u32>,
    ptr_regs: usize,
}

impl CompiledKernel {
    /// Flatten `func` into bytecode. The function must be verified
    /// (see [`crate::verify::verify_function`]); compilation itself
    /// cannot fail.
    pub fn compile(func: &Function) -> CompiledKernel {
        let mut code: Vec<Op> = Vec::with_capacity(func.inst_count() + func.blocks.len());
        let mut pos_of_pc: Vec<(u32, u32)> = Vec::with_capacity(code.capacity());
        let mut consts: Vec<Value> = Vec::new();
        let mut intern: HashMap<ConstKey, u32> = HashMap::new();
        let mut block_starts: Vec<u32> = Vec::with_capacity(func.blocks.len());

        let mut intern_const = |val: Value| -> u32 {
            *intern.entry(ConstKey::of(val)).or_insert_with(|| {
                consts.push(val);
                consts.len() as u32 - 1
            })
        };

        for (bi, block) in func.blocks.iter().enumerate() {
            block_starts.push(code.len() as u32);
            for (ii, inst) in block.insts.iter().enumerate() {
                pos_of_pc.push((bi as u32, ii as u32));
                let r = |r: crate::ir::RegId| r.0;
                code.push(match inst {
                    Inst::Const { dst, val } => Op::Const { dst: r(*dst), idx: intern_const(*val) },
                    Inst::Mov { dst, src } => Op::Mov { dst: r(*dst), src: r(*src) },
                    Inst::Bin { op, ty, dst, a, b } => {
                        let (dst, a, b) = (r(*dst), r(*a), r(*b));
                        match (op, ty) {
                            (BinOp::Add, ScalarType::F64) => Op::AddF64 { dst, a, b },
                            (BinOp::Sub, ScalarType::F64) => Op::SubF64 { dst, a, b },
                            (BinOp::Mul, ScalarType::F64) => Op::MulF64 { dst, a, b },
                            (BinOp::Div, ScalarType::F64) => Op::DivF64 { dst, a, b },
                            (BinOp::Min, ScalarType::F64) => Op::MinF64 { dst, a, b },
                            (BinOp::Max, ScalarType::F64) => Op::MaxF64 { dst, a, b },
                            (BinOp::Add, ScalarType::I64) => Op::AddI64 { dst, a, b },
                            _ => Op::Bin { op: *op, ty: *ty, dst, a, b },
                        }
                    }
                    Inst::Un { op, ty, dst, a } => {
                        Op::Un { op: *op, ty: *ty, dst: r(*dst), a: r(*a) }
                    }
                    Inst::Cmp { op, ty, dst, a, b } => {
                        Op::Cmp { op: *op, ty: *ty, dst: r(*dst), a: r(*a), b: r(*b) }
                    }
                    Inst::Select { ty, dst, cond, a, b } => {
                        Op::Select { ty: *ty, dst: r(*dst), cond: r(*cond), a: r(*a), b: r(*b) }
                    }
                    Inst::Cast { dst, a, from, to } => {
                        Op::Cast { dst: r(*dst), a: r(*a), from: *from, to: *to }
                    }
                    Inst::Call { func: f, ty, dst, args } => match f {
                        Builtin::Pow => {
                            Op::Pow { ty: *ty, dst: r(*dst), a: r(args[0]), b: r(args[1]) }
                        }
                        _ => Op::Call1 { func: *f, ty: *ty, dst: r(*dst), a: r(args[0]) },
                    },
                    Inst::WorkItem { query, dim, dst } => {
                        Op::WorkItem { query: *query, dim: *dim, dst: r(*dst) }
                    }
                    Inst::Gep { dst, base, index, elem } => Op::Gep {
                        dst: r(*dst),
                        base: r(*base),
                        index: r(*index),
                        elem: *elem,
                        index_ty: match func.reg_types[index.index()] {
                            Type::Scalar(ty) => ty,
                            Type::Ptr(..) => unreachable!("verified gep indices are scalars"),
                        },
                    },
                    Inst::Load { dst, ptr, ty } => Op::Load { dst: r(*dst), ptr: r(*ptr), ty: *ty },
                    Inst::Store { ptr, val, ty } => {
                        Op::Store { ptr: r(*ptr), val: r(*val), ty: *ty }
                    }
                    Inst::Barrier => Op::Barrier,
                    Inst::PipeRead { dst, pipe, ty } => {
                        Op::PipeRead { dst: r(*dst), pipe: r(*pipe), ty: *ty }
                    }
                    Inst::PipeWrite { pipe, val, ty } => {
                        Op::PipeWrite { pipe: r(*pipe), val: r(*val), ty: *ty }
                    }
                    Inst::Phi { .. } => {
                        unreachable!("phis are eliminated before bytecode emission")
                    }
                });
            }
            pos_of_pc.push((bi as u32, block.insts.len() as u32));
            code.push(match &block.term {
                Terminator::Jump(t) => Op::Jump { target: 0, block: t.0 },
                Terminator::Branch { cond, then_bb, else_bb } => Op::Branch {
                    cond: cond.0,
                    then_target: 0,
                    then_block: then_bb.0,
                    else_target: 0,
                    else_block: else_bb.0,
                },
                Terminator::Return => Op::Return,
            });
        }

        // Peephole over the flattened stream while jump targets are
        // still block ids, then resolve block ids to program counters.
        peephole(&mut code, &mut pos_of_pc, &mut block_starts);
        for op in &mut code {
            match op {
                Op::Jump { target, block } => *target = block_starts[*block as usize],
                Op::JumpThread { target, block, .. } => *target = block_starts[*block as usize],
                Op::Branch { then_target, then_block, else_target, else_block, .. } => {
                    *then_target = block_starts[*then_block as usize];
                    *else_target = block_starts[*else_block as usize];
                }
                _ => {}
            }
        }

        let mut ptr_regs = 0;
        let ptr_slot = func
            .reg_types
            .iter()
            .map(|ty| match ty {
                Type::Ptr(..) => {
                    ptr_regs += 1;
                    ptr_regs as u32 - 1
                }
                Type::Scalar(_) => u32::MAX,
            })
            .collect();
        CompiledKernel {
            name: func.name.clone(),
            params: func.params.clone(),
            reg_types: func.reg_types.clone(),
            code,
            consts,
            block_starts,
            pos_of_pc,
            private_bytes: func.private_bytes,
            ptr_slot,
            ptr_regs,
        }
    }

    /// The kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of flattened ops (instructions plus terminators).
    pub fn code_len(&self) -> usize {
        self.code.len()
    }

    /// Number of interned constants in the pool.
    pub fn const_count(&self) -> usize {
        self.consts.len()
    }

    /// Number of basic blocks in the source function.
    pub fn num_blocks(&self) -> usize {
        self.block_starts.len()
    }

    fn pos(&self, pc: usize) -> (usize, usize) {
        let (b, i) = self.pos_of_pc[pc];
        (b as usize, i as usize)
    }
}

/// Visit every register an op reads.
fn op_sources(op: &Op, mut f: impl FnMut(u32)) {
    match op {
        Op::Const { .. }
        | Op::ChargeMov
        | Op::WorkItem { .. }
        | Op::Barrier
        | Op::Jump { .. }
        | Op::JumpThread { .. }
        | Op::Return => {}
        Op::Mov { src, .. } => f(*src),
        Op::Un { a, .. } | Op::Cast { a, .. } | Op::Call1 { a, .. } => f(*a),
        Op::AddF64 { a, b, .. }
        | Op::SubF64 { a, b, .. }
        | Op::MulF64 { a, b, .. }
        | Op::DivF64 { a, b, .. }
        | Op::MinF64 { a, b, .. }
        | Op::MaxF64 { a, b, .. }
        | Op::AddI64 { a, b, .. }
        | Op::Bin { a, b, .. }
        | Op::Cmp { a, b, .. }
        | Op::Pow { a, b, .. } => {
            f(*a);
            f(*b);
        }
        Op::MulAddF64 { a, b, c, .. } => {
            f(*a);
            f(*b);
            f(*c);
        }
        Op::Select { cond, a, b, .. } => {
            f(*cond);
            f(*a);
            f(*b);
        }
        Op::Gep { base, index, .. } => {
            f(*base);
            f(*index);
        }
        Op::Load { ptr, .. } => f(*ptr),
        Op::Store { ptr, val, .. } => {
            f(*ptr);
            f(*val);
        }
        Op::PipeRead { pipe, .. } => f(*pipe),
        Op::PipeWrite { pipe, val, .. } => {
            f(*pipe);
            f(*val);
        }
        Op::Branch { cond, .. } => f(*cond),
    }
}

/// Peephole optimisation over the flattened op stream, run before jump
/// targets are resolved (jump operands are still block ids).
///
/// Three rewrites, each *exactly* compensated so dynamic step counts,
/// [`ExecStats`] and trap behaviour stay bit-identical to the
/// tree-walker executing the unoptimised IR:
///
/// 1. **Fused multiply-add**: `t = a*b; d = t + c` (with `t` read
///    nowhere else) becomes [`Op::MulAddF64`] — one dispatch, both
///    roundings, two steps charged.
/// 2. **Redundant-move elimination**: a self-move `r = r` becomes
///    [`Op::ChargeMov`], which touches no registers.
/// 3. **Jump threading**: a jump whose destination block consists of a
///    single unconditional jump becomes [`Op::JumpThread`] straight to
///    the final block, charging the skipped hop.
fn peephole(code: &mut Vec<Op>, pos_of_pc: &mut Vec<(u32, u32)>, block_starts: &mut Vec<u32>) {
    // Whole-stream source-use counts gate the multiply-add fusion: the
    // mul's destination must die at the add.
    let mut uses: HashMap<u32, u32> = HashMap::new();
    for op in code.iter() {
        op_sources(op, |r| *uses.entry(r).or_insert(0) += 1);
    }

    let nblocks = block_starts.len();
    let mut new_code: Vec<Op> = Vec::with_capacity(code.len());
    let mut new_pos: Vec<(u32, u32)> = Vec::with_capacity(pos_of_pc.len());
    let mut new_starts: Vec<u32> = Vec::with_capacity(nblocks);
    for bi in 0..nblocks {
        let start = block_starts[bi] as usize;
        let end = if bi + 1 < nblocks { block_starts[bi + 1] as usize } else { code.len() };
        new_starts.push(new_code.len() as u32);
        let mut i = start;
        while i < end {
            let fused = if i + 1 < end {
                match (&code[i], &code[i + 1]) {
                    (&Op::MulF64 { dst: t, a, b }, &Op::AddF64 { dst, a: x, b: y })
                        if (x == t) != (y == t) && uses.get(&t) == Some(&1) =>
                    {
                        let (c, c_first) = if x == t { (y, false) } else { (x, true) };
                        Some(Op::MulAddF64 { dst, a, b, c, c_first })
                    }
                    _ => None,
                }
            } else {
                None
            };
            if let Some(op) = fused {
                new_code.push(op);
                new_pos.push(pos_of_pc[i]);
                i += 2;
                continue;
            }
            let op = match &code[i] {
                Op::Mov { dst, src } if dst == src => Op::ChargeMov,
                other => other.clone(),
            };
            new_code.push(op);
            new_pos.push(pos_of_pc[i]);
            i += 1;
        }
    }

    // Jump threading on the rebuilt stream: a block is "jump-only" when
    // it holds nothing but its unconditional terminator.
    let lone_jump: Vec<Option<u32>> = (0..nblocks)
        .map(|bi| {
            let start = new_starts[bi] as usize;
            let end = if bi + 1 < nblocks { new_starts[bi + 1] as usize } else { new_code.len() };
            match (end - start == 1).then(|| &new_code[start]) {
                Some(&Op::Jump { block, .. }) if block as usize != bi => Some(block),
                _ => None,
            }
        })
        .collect();
    for op in &mut new_code {
        if let Op::Jump { block, .. } = *op {
            if let Some(dest) = lone_jump[block as usize] {
                *op = Op::JumpThread { target: 0, mid_block: block, block: dest };
            }
        }
    }

    *code = new_code;
    *pos_of_pc = new_pos;
    *block_starts = new_starts;
}

fn reg_list(f: &mut fmt::Formatter<'_>, regs: &[u32]) -> fmt::Result {
    for (i, r) in regs.iter().enumerate() {
        if i > 0 {
            write!(f, ", ")?;
        }
        write!(f, "r{r}")?;
    }
    Ok(())
}

impl fmt::Display for CompiledKernel {
    /// Disassembly listing: constant pool, then the op stream with pc
    /// labels and block markers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use crate::display::{bin_name, cmp_name, un_name};
        write!(f, "bytecode @{}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} %{}", p.ty, p.name)?;
        }
        writeln!(
            f,
            ") [ops={}, regs={}, consts={}, private={}B]",
            self.code.len(),
            self.reg_types.len(),
            self.consts.len(),
            self.private_bytes
        )?;
        for (i, c) in self.consts.iter().enumerate() {
            writeln!(f, "  c{i} = {c}")?;
        }
        for (pc, op) in self.code.iter().enumerate() {
            if let Some(bi) = self.block_starts.iter().position(|&s| s as usize == pc) {
                writeln!(f, "b{bi}:")?;
            }
            write!(f, "  {pc:04}  ")?;
            match op {
                Op::Const { dst, idx } => {
                    write!(f, "r{dst} = const c{idx} ; {}", self.consts[*idx as usize])?
                }
                Op::Mov { dst, src } => write!(f, "r{dst} = r{src}")?,
                Op::AddF64 { dst, a, b } => write!(f, "r{dst} = add.double r{a}, r{b}")?,
                Op::SubF64 { dst, a, b } => write!(f, "r{dst} = sub.double r{a}, r{b}")?,
                Op::MulF64 { dst, a, b } => write!(f, "r{dst} = mul.double r{a}, r{b}")?,
                Op::DivF64 { dst, a, b } => write!(f, "r{dst} = div.double r{a}, r{b}")?,
                Op::MinF64 { dst, a, b } => write!(f, "r{dst} = min.double r{a}, r{b}")?,
                Op::MaxF64 { dst, a, b } => write!(f, "r{dst} = max.double r{a}, r{b}")?,
                Op::AddI64 { dst, a, b } => write!(f, "r{dst} = add.long r{a}, r{b}")?,
                Op::Bin { op, ty, dst, a, b } => {
                    write!(f, "r{dst} = {}.{ty} r{a}, r{b}", bin_name(*op))?
                }
                Op::Un { op, ty, dst, a } => write!(f, "r{dst} = {}.{ty} r{a}", un_name(*op))?,
                Op::Cmp { op, ty, dst, a, b } => {
                    write!(f, "r{dst} = cmp.{}.{ty} r{a}, r{b}", cmp_name(*op))?
                }
                Op::Select { ty, dst, cond, a, b } => {
                    write!(f, "r{dst} = select.{ty} r{cond}, r{a}, r{b}")?
                }
                Op::Cast { dst, a, from, to } => {
                    write!(f, "r{dst} = cast r{a} : {from} -> {to}")?
                }
                Op::Call1 { func, ty, dst, a } => {
                    write!(f, "r{dst} = {}.{ty}(", func.name())?;
                    reg_list(f, &[*a])?;
                    write!(f, ")")?
                }
                Op::Pow { ty, dst, a, b } => {
                    write!(f, "r{dst} = pow.{ty}(")?;
                    reg_list(f, &[*a, *b])?;
                    write!(f, ")")?
                }
                Op::WorkItem { query, dim, dst } => {
                    write!(f, "r{dst} = {}({dim})", query.name())?
                }
                Op::Gep { dst, base, index, elem, .. } => {
                    write!(f, "r{dst} = gep.{elem} r{base}, r{index}")?
                }
                Op::Load { dst, ptr, ty } => write!(f, "r{dst} = load.{ty} r{ptr}")?,
                Op::Store { ptr, val, ty } => write!(f, "store.{ty} r{ptr}, r{val}")?,
                Op::MulAddF64 { dst, a, b, c, c_first } => {
                    if *c_first {
                        write!(f, "r{dst} = muladd.double r{c} + r{a}*r{b}")?
                    } else {
                        write!(f, "r{dst} = muladd.double r{a}*r{b} + r{c}")?
                    }
                }
                Op::ChargeMov => write!(f, "mov (self, elided)")?,
                Op::JumpThread { target, mid_block, block } => {
                    write!(f, "jump @{target:04} (b{mid_block} -> b{block})")?
                }
                Op::Barrier => write!(f, "barrier")?,
                Op::PipeRead { dst, pipe, ty } => {
                    write!(f, "r{dst} = pipe_read.{ty} r{pipe}")?
                }
                Op::PipeWrite { pipe, val, ty } => {
                    write!(f, "pipe_write.{ty} r{pipe}, r{val}")?
                }
                Op::Jump { target, block } => write!(f, "jump @{target:04} (b{block})")?,
                Op::Branch { cond, then_target, then_block, else_target, else_block } => write!(
                    f,
                    "br r{cond}, @{then_target:04} (b{then_block}), @{else_target:04} (b{else_block})"
                )?,
                Op::Return => write!(f, "ret")?,
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// Where a lane stands between phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneStatus {
    Running,
    AtBarrier,
    AtPipe,
    Done,
}

/// Pack a scalar [`Value`] into a 64-bit register cell. Pointers live
/// in a separate plane (see [`LanesRun`]).
#[inline]
fn encode_scalar(v: Value) -> u64 {
    match v {
        Value::Bool(b) => b as u64,
        Value::I32(x) => x as u32 as u64,
        Value::I64(x) => x as u64,
        Value::F32(x) => x.to_bits() as u64,
        Value::F64(x) => x.to_bits(),
        Value::Ptr(_) => unreachable!("pointers live in the pointer plane"),
    }
}

/// Unpack a 64-bit register cell back into a typed scalar [`Value`].
#[inline]
fn decode_scalar(ty: ScalarType, bits: u64) -> Value {
    match ty {
        ScalarType::Bool => Value::Bool(bits != 0),
        ScalarType::I32 => Value::I32(bits as u32 as i32),
        ScalarType::I64 => Value::I64(bits as i64),
        ScalarType::F32 => Value::F32(f32::from_bits(bits as u32)),
        ScalarType::F64 => Value::F64(f64::from_bits(bits)),
    }
}

/// Little-endian bytes (at most 8) as a register cell.
#[inline(always)]
fn read_le(bytes: &[u8]) -> u64 {
    match <[u8; 8]>::try_from(bytes) {
        Ok(b) => u64::from_le_bytes(b),
        Err(_) => {
            let mut raw = [0u8; 8];
            raw[..bytes.len()].copy_from_slice(bytes);
            u64::from_le_bytes(raw)
        }
    }
}

/// The low `dst.len()` little-endian bytes of a register cell.
#[inline(always)]
fn write_le(dst: &mut [u8], bits: u64) {
    dst.copy_from_slice(&bits.to_le_bytes()[..dst.len()]);
}

/// Byte offset of a `len`-byte access through `p` into a private arena
/// of `size` bytes, if `p` is private and the access is in bounds.
#[inline(always)]
fn private_offset(p: PtrValue, len: usize, size: usize) -> Option<usize> {
    if p.space != AddressSpace::Private {
        return None;
    }
    usize::try_from(p.offset).ok().filter(|o| o + len <= size)
}

/// The lanes a lockstep group runs an op across. [`LanesRun::run_group`]
/// is generic over it and compiled once per shape: [`One`] for
/// single-lane groups (every pipe task, every fully diverged lane) with
/// no lane-list bookkeeping at all, [`Dense`] for contiguous runs with
/// bounds-check-free, auto-vectorizable loops, and [`Sparse`] for the
/// rest. Lanes are always visited in ascending order.
trait LaneSet: Copy {
    /// Number of lanes (at least one).
    fn len(self) -> usize;

    /// Lane at position `k < len()`.
    fn at(self, k: usize) -> usize;

    /// The lanes as a dense `lo..hi` range, when this shape is one.
    #[inline(always)]
    fn dense(self) -> Option<(usize, usize)> {
        None
    }

    #[inline(always)]
    fn for_each(self, mut f: impl FnMut(usize)) {
        for k in 0..self.len() {
            f(self.at(k));
        }
    }

    /// Run `keep` on the lanes from position `from` on (earlier lanes are
    /// kept as they are) and report which survive. Lane vectors come from
    /// and go back to `pool`.
    #[inline(always)]
    fn retain(
        self,
        from: usize,
        pool: &mut Vec<Vec<usize>>,
        mut keep: impl FnMut(usize) -> bool,
    ) -> Kept {
        let mut out: Option<Vec<usize>> = None;
        for k in from..self.len() {
            let l = self.at(k);
            match (keep(l), &mut out) {
                (true, Some(v)) => v.push(l),
                (false, None) => {
                    let mut v = pool.pop().unwrap_or_default();
                    v.clear();
                    v.extend((0..k).map(|j| self.at(j)));
                    out = Some(v);
                }
                _ => {}
            }
        }
        match out {
            None => Kept::All,
            Some(v) if v.is_empty() => {
                pool.push(v);
                Kept::Nothing
            }
            Some(v) => Kept::Part(v),
        }
    }
}

/// A single-lane group.
#[derive(Clone, Copy)]
struct One(usize);

/// The contiguous lanes `lo..hi`.
#[derive(Clone, Copy)]
struct Dense {
    lo: usize,
    hi: usize,
}

/// An ascending, non-contiguous lane list.
#[derive(Clone, Copy)]
struct Sparse<'a>(&'a [usize]);

impl LaneSet for One {
    #[inline(always)]
    fn len(self) -> usize {
        1
    }
    #[inline(always)]
    fn at(self, _: usize) -> usize {
        self.0
    }
}

impl LaneSet for Dense {
    #[inline(always)]
    fn len(self) -> usize {
        self.hi - self.lo
    }
    #[inline(always)]
    fn at(self, k: usize) -> usize {
        self.lo + k
    }
    #[inline(always)]
    fn dense(self) -> Option<(usize, usize)> {
        Some((self.lo, self.hi))
    }
    #[inline(always)]
    fn for_each(self, f: impl FnMut(usize)) {
        (self.lo..self.hi).for_each(f);
    }
}

impl LaneSet for Sparse<'_> {
    #[inline(always)]
    fn len(self) -> usize {
        self.0.len()
    }
    #[inline(always)]
    fn at(self, k: usize) -> usize {
        self.0[k]
    }
    #[inline(always)]
    fn for_each(self, f: impl FnMut(usize)) {
        self.0.iter().copied().for_each(f);
    }
}

/// Which lanes survived an op that can drop lanes (a trap or a pipe
/// stall).
enum Kept {
    All,
    Nothing,
    Part(Vec<usize>),
}

/// Write `v` to row `base` of a register plane across `lanes`.
#[inline(always)]
fn fill_lanes<T: Copy>(plane: &mut [T], base: usize, lanes: impl LaneSet, v: T) {
    match lanes.dense() {
        Some((lo, hi)) => plane[base + lo..base + hi].fill(v),
        None => lanes.for_each(|l| plane[base + l] = v),
    }
}

/// Copy row `src` to row `dst` of a register plane across `lanes`.
#[inline(always)]
fn copy_lanes<T: Copy>(plane: &mut [T], src: usize, dst: usize, lanes: impl LaneSet) {
    match lanes.dense() {
        // Register rows are disjoint (or identical, for a no-op mov), so
        // the dense case is a memmove.
        Some((lo, hi)) => plane.copy_within(src + lo..src + hi, dst + lo),
        None => lanes.for_each(|l| plane[dst + l] = plane[src + l]),
    }
}

/// `cells[d] = f(cells[a], cells[b])` across `lanes` (rows already scaled
/// by the lane count).
#[inline(always)]
fn map2(
    cells: &mut [u64],
    lanes: impl LaneSet,
    (d, a, b): (usize, usize, usize),
    f: impl Fn(u64, u64) -> u64,
) {
    if let Some((lo, hi)) = lanes.dense() {
        // One bounds check up front; the loop itself is then free of
        // per-iteration checks and auto-vectorizes.
        assert!(a.max(b).max(d) + hi <= cells.len());
        for i in lo..hi {
            // SAFETY: `a/b/d + i < cells.len()` per the assert above.
            unsafe {
                let out = f(*cells.get_unchecked(a + i), *cells.get_unchecked(b + i));
                *cells.get_unchecked_mut(d + i) = out;
            }
        }
    } else {
        lanes.for_each(|l| cells[d + l] = f(cells[a + l], cells[b + l]));
    }
}

/// `cells[d] = f(cells[a], cells[b], cells[c])` across `lanes`.
#[inline(always)]
fn map3(
    cells: &mut [u64],
    lanes: impl LaneSet,
    (d, a, b, c): (usize, usize, usize, usize),
    f: impl Fn(u64, u64, u64) -> u64,
) {
    if let Some((lo, hi)) = lanes.dense() {
        assert!(a.max(b).max(c).max(d) + hi <= cells.len());
        for i in lo..hi {
            // SAFETY: `a/b/c/d + i < cells.len()` per the assert above.
            unsafe {
                let out = f(
                    *cells.get_unchecked(a + i),
                    *cells.get_unchecked(b + i),
                    *cells.get_unchecked(c + i),
                );
                *cells.get_unchecked_mut(d + i) = out;
            }
        }
    } else {
        lanes.for_each(|l| cells[d + l] = f(cells[a + l], cells[b + l], cells[c + l]));
    }
}

/// Lift an `f64` binary op to register cells.
#[inline(always)]
fn f64s(f: impl Fn(f64, f64) -> f64) -> impl Fn(u64, u64) -> u64 {
    move |x, y| f(f64::from_bits(x), f64::from_bits(y)).to_bits()
}

/// Wrapping integer add, sub or mul (`op`) across `lanes`, computed at
/// 64 bits and stored through `wrap`.
#[inline(always)]
fn int_arith(
    cells: &mut [u64],
    lanes: impl LaneSet,
    rows: (usize, usize, usize),
    op: BinOp,
    wrap: impl Fn(i64) -> u64 + Copy,
) {
    let f = move |g: fn(i64, i64) -> i64| move |x: u64, y: u64| wrap(g(x as i64, y as i64));
    match op {
        BinOp::Add => map2(cells, lanes, rows, f(i64::wrapping_add)),
        BinOp::Sub => map2(cells, lanes, rows, f(i64::wrapping_sub)),
        BinOp::Mul => map2(cells, lanes, rows, f(i64::wrapping_mul)),
        other => unreachable!("{other:?} is not wrapping add/sub/mul"),
    }
}

/// Integer comparison `op` across `lanes` (0/1 result), with `widen`
/// sign-extending a cell to `i64`.
#[inline(always)]
fn int_cmp(
    cells: &mut [u64],
    lanes: impl LaneSet,
    rows: (usize, usize, usize),
    op: CmpOp,
    widen: impl Fn(u64) -> i64 + Copy,
) {
    let f = move |g: fn(&i64, &i64) -> bool| move |x: u64, y: u64| g(&widen(x), &widen(y)) as u64;
    match op {
        CmpOp::Eq => map2(cells, lanes, rows, f(i64::eq)),
        CmpOp::Ne => map2(cells, lanes, rows, f(i64::ne)),
        CmpOp::Lt => map2(cells, lanes, rows, f(i64::lt)),
        CmpOp::Le => map2(cells, lanes, rows, f(i64::le)),
        CmpOp::Gt => map2(cells, lanes, rows, f(i64::gt)),
        CmpOp::Ge => map2(cells, lanes, rows, f(i64::ge)),
    }
}

/// A group's program counter and the fetches each of its lanes has made
/// this phase (lanes of a group share an identical per-phase history).
#[derive(Debug, Clone, Copy)]
struct Cursor {
    pc: usize,
    fetched: u64,
}

/// A SIMT group: lanes in lockstep at one pc. Lane lists are always
/// ascending (divergence partitions and trap masking both preserve
/// order), so the group's [`LaneSet`] shape is detected in O(1).
struct LaneGroup {
    at: Cursor,
    lanes: Vec<usize>,
}

/// How [`LanesRun::run_group`] left its group.
enum Exit {
    /// Every lane retired, suspended, trapped or ran out of budget.
    Done,
    /// Some lanes dropped out (trap or pipe stall); the survivors go on
    /// from `at`.
    Narrowed { lanes: Vec<usize>, at: Cursor },
    /// A divergent branch: the then-lanes go on from `at`, the else-lanes
    /// from `else_pc` with the same fetch count.
    Split { then_l: Vec<usize>, else_l: Vec<usize>, at: Cursor, else_pc: usize },
}

/// State shared by the groups of one phase.
struct Phase<'a> {
    mem: &'a mut dyn Memory,
    math: &'a dyn MathLib,
    pipes: &'a mut PipeHub,
    /// Fetches a lane may consume before the shared budget would have
    /// run dry even with every other lane charging nothing.
    cap: u64,
    /// Σ fetches of the lanes that ended the phase cleanly.
    sum_fetches: u64,
    /// A lane trapped or overran `cap`: settlement takes the
    /// serial replay.
    any_bad: bool,
    trapped: Vec<(usize, ExecError)>,
    /// Reusable lane vectors: the steady state allocates nothing.
    pool: Vec<Vec<usize>>,
    /// No other group is queued behind the running one.
    alone: bool,
    /// A lane parked at a barrier this phase. (Pipe kernels are
    /// single-work-item tasks, so a lane stalled at a pipe never shares
    /// its work-group with another group.)
    parked: bool,
    /// The lanes of the current phase, in work-item order.
    lanes: PhaseLanes,
}

/// The lanes a phase runs: those it started with, or, after an in-place
/// barrier release, the released group.
enum PhaseLanes {
    Started,
    Range(usize, usize),
    List(Vec<usize>),
}

impl Phase<'_> {
    /// Make `lanes`, just released in place, the current phase's lanes.
    fn released(&mut self, lanes: impl LaneSet) {
        let (n, lo) = (lanes.len(), lanes.at(0));
        if lanes.at(n - 1) - lo + 1 == n {
            self.lanes = PhaseLanes::Range(lo, lo + n);
            return;
        }
        let mut list = match std::mem::replace(&mut self.lanes, PhaseLanes::Started) {
            PhaseLanes::List(v) => v,
            _ => self.pool.pop().unwrap_or_default(),
        };
        list.clear();
        lanes.for_each(|l| list.push(l));
        self.lanes = PhaseLanes::List(list);
    }
}

/// Continue (`None`) when every lane survived the op at `at`, else the
/// group's exit.
#[inline(always)]
fn narrowed(kept: Kept, at: Cursor) -> Option<Exit> {
    match kept {
        Kept::All => None,
        Kept::Nothing => Some(Exit::Done),
        Kept::Part(lanes) => Some(Exit::Narrowed { lanes, at: Cursor { pc: at.pc + 1, ..at } }),
    }
}

/// Lane-vectorized execution of one work-group over a
/// [`CompiledKernel`] — the compiled engine.
///
/// `LanesRun` keeps a structure-of-arrays register file (`W` lanes per
/// register, bit-packed `u64` cells for scalars, a parallel plane for
/// the pointer-typed registers only) and dispatches each op *once per
/// SIMT group*, running its inner loop across all live lanes. Control
/// divergence splits a group; lanes that trap or reach a barrier are
/// masked out and their outcome recorded. A one-lane group — every
/// single-work-item pipe task — runs the same op bodies compiled for a
/// single lane (see [`LaneSet`]), and private memory is read and written
/// in place in each lane's arena.
///
/// Observational parity with the tree-walker is maintained by
/// construction:
///
/// - per-op statistics are charged once per executing lane, and the
///   shared step budget is settled at each phase end by replaying the
///   per-lane fetch counts in work-item order — so `StepLimitExceeded`
///   vs. a real trap resolves exactly as in serial execution;
/// - argument binding, trap payloads, barrier divergence positions and
///   the barrier-release protocol mirror
///   [`crate::interp::WorkGroupRun`]; a barrier that every live lane
///   reaches in one group is released in place, with the same charges
///   as the general release in [`LanesRun::run_resumable`].
///
/// The one caveat is failed launches: lanes past a trapping work-item
/// may already have executed (and written memory) in lockstep, where the
/// walker would have stopped. Error values and successful runs are
/// bit-identical for race-free kernels; partially-written buffers of a
/// *failed* launch are not part of the contract on any engine.
pub struct LanesRun<'k> {
    kernel: &'k CompiledKernel,
    shape: GroupShape,
    /// Lane count = work-items per group.
    w: usize,
    /// Scalar register cells, SoA: register `r` of lane `l` is at `r*w + l`.
    cells: Vec<u64>,
    /// Pointer registers, SoA by pointer slot: pointer register `r` of
    /// lane `l` is at `ptr_slot[r]*w + l`.
    ptrs: Vec<PtrValue>,
    /// Per-lane private arenas, stride `private_bytes`.
    private: Vec<u8>,
    lid: Vec<[usize; 3]>,
    status: Vec<LaneStatus>,
    pc: Vec<usize>,
    stats: ExecStats,
    steps: u64,
    step_limit: u64,
    /// Per-lane fetch count of the current phase (`u64::MAX` marks a
    /// lane that stalled against the fetch cap). Scratch, valid for the
    /// lanes that ran the phase only.
    lane_fetches: Vec<u64>,
    /// Reusable group worklist and lane-vector pool.
    group_stack: Vec<LaneGroup>,
    lane_pool: Vec<Vec<usize>>,
}

impl<'k> LanesRun<'k> {
    /// Prepare a run of `kernel` for the group described by `shape`, with
    /// kernel arguments `args`. `step_limit` of 0 selects
    /// [`DEFAULT_STEP_LIMIT`].
    ///
    /// # Errors
    /// Returns [`ExecError::BadArgs`] if `args` does not match the kernel
    /// signature (same messages as the tree-walker).
    pub fn new(
        kernel: &'k CompiledKernel,
        shape: GroupShape,
        args: &[KernelArgValue],
        step_limit: u64,
    ) -> Result<LanesRun<'k>, ExecError> {
        check_pipe_shape(&kernel.name, &kernel.params, &shape)?;
        let bound = bind_args(kernel, args)?;
        let w = shape.items_per_group();
        // Zero cells are the zero-init of every scalar type (false, 0,
        // 0.0); pointer registers start at the poison buffer id.
        let mut cells = vec![0u64; kernel.reg_types.len() * w];
        let mut ptrs = Vec::with_capacity(kernel.ptr_regs * w);
        for ty in &kernel.reg_types {
            if let Type::Ptr(space, _) = ty {
                ptrs.extend(std::iter::repeat_n(PtrValue::new(*space, u32::MAX), w));
            }
        }
        for (r, v) in bound.iter().enumerate() {
            match *v {
                Value::Ptr(p) => {
                    let s = kernel.ptr_slot[r] as usize * w;
                    ptrs[s..s + w].fill(p);
                }
                v => cells[r * w..(r + 1) * w].fill(encode_scalar(v)),
            }
        }
        let mut stats = ExecStats::with_blocks(kernel.block_starts.len());
        // Every live item enters block 0.
        stats.block_execs[0] += w as u64;
        Ok(LanesRun {
            kernel,
            shape,
            w,
            cells,
            ptrs,
            private: vec![0; kernel.private_bytes * w],
            lid: (0..w).map(|i| shape.local_id(i)).collect(),
            status: vec![LaneStatus::Running; w],
            pc: vec![0; w],
            stats,
            steps: 0,
            step_limit: if step_limit == 0 { DEFAULT_STEP_LIMIT } else { step_limit },
            lane_fetches: vec![0; w],
            group_stack: Vec::new(),
            lane_pool: Vec::new(),
        })
    }

    /// Execution statistics accumulated so far.
    pub fn stats(&self) -> &ExecStats {
        &self.stats
    }

    /// Consume the run and return its statistics.
    pub fn into_stats(self) -> ExecStats {
        self.stats
    }

    /// Run the whole group to completion with no pipes attached; a pipe
    /// stall is reported as the deterministic deadlock trap (same
    /// contract as [`crate::interp::WorkGroupRun::run`]).
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and
    /// step-limit exhaustion, with the same payloads as the tree-walker.
    pub fn run(&mut self, mem: &mut dyn Memory, math: &dyn MathLib) -> Result<(), ExecError> {
        let mut pipes = PipeHub::default();
        match self.run_resumable(mem, math, &mut pipes)? {
            RunOutcome::Complete => Ok(()),
            RunOutcome::Stalled => Err(pipe_deadlock_trap()),
        }
    }

    /// Run until every lane retires or a pipe op stalls; same
    /// resume/accounting contract as
    /// [`crate::interp::WorkGroupRun::run_resumable`] (each resume
    /// attempt re-enters a phase, charging one `item_phases` and one step
    /// per attempting lane).
    ///
    /// # Errors
    /// Propagates memory errors, traps, barrier divergence and
    /// step-limit exhaustion, with the same payloads as the tree-walker.
    pub fn run_resumable(
        &mut self,
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<RunOutcome, ExecError> {
        // `running` is exactly the set of `LaneStatus::Running` lanes at
        // the top of each iteration: initially every lane (or, on a
        // resume, the lanes suspended at pipes), then the
        // barrier-released survivors of the previous phase — so the
        // live-set update only inspects lanes that ran, not all of `w`.
        let mut running: Vec<usize> = (0..self.w)
            .filter(|&i| matches!(self.status[i], LaneStatus::Running | LaneStatus::AtPipe))
            .collect();
        let mut live: Vec<usize> = Vec::with_capacity(running.len());
        loop {
            let any_running = !running.is_empty();
            if any_running {
                self.stats.item_phases += running.len() as u64;
                for &l in &running {
                    self.status[l] = LaneStatus::Running;
                }
                self.run_phase(&running, mem, math, pipes)?;
            }
            live.clear();
            live.extend(running.iter().copied().filter(|&i| self.status[i] != LaneStatus::Done));
            if live.is_empty() {
                return Ok(RunOutcome::Complete);
            }
            if live.iter().any(|&i| self.status[i] == LaneStatus::AtPipe) {
                // A stalled pipe op cannot be released locally; hand
                // control back to the co-scheduler.
                return Ok(RunOutcome::Stalled);
            }
            // All live lanes are now suspended at barriers. Equal pcs
            // (the overwhelmingly common case) imply equal positions, so
            // the position table is only consulted when pcs differ.
            let pc0 = self.pc[live[0]];
            if live[1..].iter().any(|&i| self.pc[i] != pc0) {
                let pos = self.kernel.pos(pc0);
                for &i in &live[1..] {
                    let p = self.kernel.pos(self.pc[i]);
                    if p != pos {
                        return Err(ExecError::BarrierDivergence { a: pos, b: p });
                    }
                }
            }
            if !any_running {
                // Defensive: should be unreachable, barrier release below
                // always makes progress.
                return Err(ExecError::Trap("scheduler made no progress".into()));
            }
            self.stats.barriers += 1;
            for &i in &live {
                self.pc[i] += 1;
                self.status[i] = LaneStatus::Running;
            }
            std::mem::swap(&mut running, &mut live);
        }
    }

    /// Execute one phase (all running lanes until barrier/retire/trap)
    /// as a worklist of lockstep groups, then settle the step budget.
    /// A group that holds every live lane releases its barriers in place
    /// (see the `Op::Barrier` arm of [`LanesRun::run_group`]), so one
    /// call may run many phases.
    ///
    /// Each group runs through [`LanesRun::run_group`] compiled for its
    /// shape — one lane, a dense range or a sparse list — and comes back
    /// here only when it ends or changes shape. Traps and stalls (rare)
    /// divert settlement to a serial replay in work-item order.
    fn run_phase(
        &mut self,
        running: &[usize],
        mem: &mut dyn Memory,
        math: &dyn MathLib,
        pipes: &mut PipeHub,
    ) -> Result<(), ExecError> {
        let start_pc = self.pc[running[0]];
        debug_assert!(running.iter().all(|&l| self.pc[l] == start_pc));
        let mut cx = Phase {
            mem,
            math,
            pipes,
            cap: (self.step_limit - self.steps).saturating_add(1),
            sum_fetches: 0,
            any_bad: false,
            trapped: Vec::new(),
            pool: std::mem::take(&mut self.lane_pool),
            alone: true,
            parked: false,
            lanes: PhaseLanes::Started,
        };
        let mut groups = std::mem::take(&mut self.group_stack);
        let mut first = cx.pool.pop().unwrap_or_default();
        first.clear();
        first.extend_from_slice(running);
        groups.push(LaneGroup { at: Cursor { pc: start_pc, fetched: 0 }, lanes: first });

        while let Some(mut g) = groups.pop() {
            loop {
                cx.alone = groups.is_empty();
                let (n, lo) = (g.lanes.len(), g.lanes[0]);
                let exit = if n == 1 {
                    self.run_group(&mut cx, g.at, One(lo))
                } else if g.lanes[n - 1] - lo + 1 == n {
                    self.run_group(&mut cx, g.at, Dense { lo, hi: lo + n })
                } else {
                    self.run_group(&mut cx, g.at, Sparse(&g.lanes))
                };
                match exit {
                    Exit::Done => {
                        cx.pool.push(g.lanes);
                        break;
                    }
                    Exit::Narrowed { lanes, at } => {
                        cx.pool.push(std::mem::replace(&mut g.lanes, lanes));
                        g.at = at;
                    }
                    Exit::Split { then_l, else_l, at, else_pc } => {
                        // The smaller side runs first: when it retires
                        // (a loop exit shedding lanes), the larger side
                        // then reaches its barrier alone and can release
                        // it in place.
                        let else_g = LaneGroup {
                            at: Cursor { pc: else_pc, fetched: at.fetched },
                            lanes: else_l,
                        };
                        let then_g = LaneGroup { at, lanes: then_l };
                        let (first, later) = if else_g.lanes.len() < then_g.lanes.len() {
                            (else_g, then_g)
                        } else {
                            (then_g, else_g)
                        };
                        groups.push(later);
                        cx.pool.push(std::mem::replace(&mut g, first).lanes);
                    }
                }
            }
        }

        self.group_stack = groups;
        self.lane_pool = std::mem::take(&mut cx.pool);
        let budget = self.step_limit - self.steps;
        if !cx.any_bad && cx.sum_fetches <= budget {
            self.steps += cx.sum_fetches;
            if let PhaseLanes::List(list) = cx.lanes {
                self.lane_pool.push(list);
            }
            return Ok(());
        }
        // Serial settlement (rare): replay per-lane fetch counts in
        // work-item order against the shared budget, exactly as the
        // walker interleaves them — deciding `StepLimitExceeded` vs. a
        // real trap per lane. Only the current phase's lanes replay:
        // lanes that retired before an in-place release were settled
        // by it, and their fetch counts are stale.
        match cx.lanes {
            PhaseLanes::Started => self.settle(running.iter().copied(), cx.trapped, budget),
            PhaseLanes::Range(lo, hi) => self.settle(lo..hi, cx.trapped, budget),
            PhaseLanes::List(list) => self.settle(list.into_iter(), cx.trapped, budget),
        }
    }

    /// The serial settlement of [`LanesRun::run_phase`] over `lanes`.
    fn settle(
        &mut self,
        lanes: impl Iterator<Item = usize>,
        mut trapped: Vec<(usize, ExecError)>,
        budget: u64,
    ) -> Result<(), ExecError> {
        let mut cum: u64 = 0;
        for l in lanes {
            let fetches = self.lane_fetches[l];
            if fetches == u64::MAX {
                return Err(ExecError::StepLimitExceeded);
            }
            let over = cum.checked_add(fetches).is_none_or(|s| s > budget);
            if let Some(pos) = trapped.iter().position(|(tl, _)| *tl == l) {
                let (_, err) = trapped.swap_remove(pos);
                return Err(if over { ExecError::StepLimitExceeded } else { err });
            }
            if over {
                return Err(ExecError::StepLimitExceeded);
            }
            cum += fetches;
        }
        self.steps += cum;
        Ok(())
    }

    /// Row of pointer register `r` in the pointer plane.
    #[inline(always)]
    fn prow(&self, r: u32) -> usize {
        self.kernel.ptr_slot[r as usize] as usize * self.w
    }

    /// Mark every lane of the group as having overrun the fetch cap.
    fn out_of_budget(&mut self, cx: &mut Phase<'_>, lanes: impl LaneSet) -> Exit {
        cx.any_bad = true;
        lanes.for_each(|l| self.lane_fetches[l] = u64::MAX);
        Exit::Done
    }

    /// End the group's phase cleanly: every lane retires or suspends at
    /// the barrier at `at.pc`.
    fn finish(
        &mut self,
        cx: &mut Phase<'_>,
        lanes: impl LaneSet,
        at: Cursor,
        status: LaneStatus,
    ) -> Exit {
        match lanes.dense() {
            Some((lo, hi)) => {
                self.lane_fetches[lo..hi].fill(at.fetched);
                self.status[lo..hi].fill(status);
                self.pc[lo..hi].fill(at.pc);
            }
            None => lanes.for_each(|l| {
                self.lane_fetches[l] = at.fetched;
                self.status[l] = status;
                self.pc[l] = at.pc;
            }),
        }
        let n = lanes.len() as u64;
        cx.sum_fetches = cx.sum_fetches.saturating_add(at.fetched.saturating_mul(n));
        Exit::Done
    }

    /// Run one lockstep group from `at` until every lane has left the
    /// phase or the group changes shape (lanes dropped, or a divergent
    /// branch). The cursor lives in registers for the whole run and
    /// leaves only through the returned [`Exit`].
    fn run_group<L: LaneSet>(&mut self, cx: &mut Phase<'_>, at: Cursor, lanes: L) -> Exit {
        let kernel = self.kernel;
        let w = self.w;
        let pb = kernel.private_bytes;
        let n = lanes.len() as u64;
        let row = |r: u32| r as usize * w;
        let mut at = at;
        loop {
            at.fetched += 1;
            if at.fetched > cx.cap {
                return self.out_of_budget(cx, lanes);
            }
            match &kernel.code[at.pc] {
                Op::Const { dst, idx } => match kernel.consts[*idx as usize] {
                    Value::Ptr(p) => {
                        let d = self.prow(*dst);
                        fill_lanes(&mut self.ptrs, d, lanes, p);
                    }
                    v => fill_lanes(&mut self.cells, row(*dst), lanes, encode_scalar(v)),
                },
                Op::Mov { dst, src } => {
                    if kernel.ptr_slot[*dst as usize] != u32::MAX {
                        let (s, d) = (self.prow(*src), self.prow(*dst));
                        copy_lanes(&mut self.ptrs, s, d, lanes);
                    } else {
                        copy_lanes(&mut self.cells, row(*src), row(*dst), lanes);
                    }
                    self.stats.ops.mov += n;
                }
                Op::AddF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(|x, y| x + y));
                    self.stats.ops.add64 += n;
                }
                Op::SubF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(|x, y| x - y));
                    self.stats.ops.add64 += n;
                }
                Op::MulF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(|x, y| x * y));
                    self.stats.ops.mul64 += n;
                }
                Op::DivF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(|x, y| x / y));
                    self.stats.ops.div64 += n;
                }
                Op::MinF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(f64::min));
                    self.stats.ops.minmax64 += n;
                }
                Op::MaxF64 { dst, a, b } => {
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), f64s(f64::max));
                    self.stats.ops.minmax64 += n;
                }
                Op::AddI64 { dst, a, b } => {
                    let rows = (row(*dst), row(*a), row(*b));
                    int_arith(&mut self.cells, lanes, rows, BinOp::Add, |v| v as u64);
                    self.stats.ops.int_alu += n;
                }
                Op::MulAddF64 { dst, a, b, c, c_first } => {
                    // Second step for the fused add.
                    at.fetched += 1;
                    if at.fetched > cx.cap {
                        return self.out_of_budget(cx, lanes);
                    }
                    let rows = (row(*dst), row(*a), row(*b), row(*c));
                    let cf = *c_first;
                    map3(&mut self.cells, lanes, rows, |x, y, z| {
                        let (prod, cv) = (f64::from_bits(x) * f64::from_bits(y), f64::from_bits(z));
                        // Operand order mirrors the unfused source expression
                        // so NaN payloads stay bit-identical to the walker.
                        #[allow(clippy::if_same_then_else)]
                        let out = if cf { cv + prod } else { prod + cv };
                        out.to_bits()
                    });
                    self.stats.ops.mul64 += n;
                    self.stats.ops.add64 += n;
                }
                Op::ChargeMov => {
                    self.stats.ops.mov += n;
                }
                Op::Bin { op, ty, dst, a, b } => {
                    // Wrapping i64 arithmetic inline (index/counter math of
                    // hot loops); other trap-free shapes per lane through
                    // the shared evaluator; only the trapping shapes
                    // (integer div/rem and verifier-rejected combinations)
                    // can drop lanes.
                    let (op, ty, rows) = (*op, *ty, (row(*dst), row(*a), row(*b)));
                    let c = &mut self.cells;
                    if matches!(op, BinOp::Add | BinOp::Sub | BinOp::Mul)
                        && matches!(ty, ScalarType::I32 | ScalarType::I64)
                    {
                        if ty == ScalarType::I64 {
                            int_arith(c, lanes, rows, op, |v| v as u64);
                        } else {
                            // An `int` cell holds its zero-extended bits;
                            // the low 32 bits of the 64-bit wrapping
                            // result are the `i32` wrapping result.
                            int_arith(c, lanes, rows, op, |v| v as u32 as u64);
                        }
                        self.stats.ops.int_alu += n;
                        at.pc += 1;
                        continue;
                    }
                    let trap_free = if ty.is_float() {
                        matches!(
                            op,
                            BinOp::Add
                                | BinOp::Sub
                                | BinOp::Mul
                                | BinOp::Div
                                | BinOp::Rem
                                | BinOp::Min
                                | BinOp::Max
                        )
                    } else if ty == ScalarType::Bool {
                        matches!(op, BinOp::And | BinOp::Or | BinOp::Xor)
                    } else {
                        !matches!(op, BinOp::Div | BinOp::Rem)
                    };
                    let (d, a, b) = rows;
                    if trap_free {
                        lanes.for_each(|l| {
                            let (va, vb) =
                                (decode_scalar(ty, c[a + l]), decode_scalar(ty, c[b + l]));
                            c[d + l] = encode_scalar(eval_bin(op, ty, va, vb).expect("trap-free"));
                        });
                        self.stats.ops.count_bins(op, ty, n);
                    } else {
                        let (stats, fetches, fetched) =
                            (&mut self.stats, &mut self.lane_fetches, at.fetched);
                        let kept = lanes.retain(0, &mut cx.pool, |l| {
                            let (va, vb) =
                                (decode_scalar(ty, c[a + l]), decode_scalar(ty, c[b + l]));
                            match eval_bin(op, ty, va, vb) {
                                Ok(out) => {
                                    stats.ops.count_bin(op, ty);
                                    c[d + l] = encode_scalar(out);
                                    true
                                }
                                Err(msg) => {
                                    cx.any_bad = true;
                                    fetches[l] = fetched;
                                    cx.trapped.push((l, ExecError::Trap(msg)));
                                    false
                                }
                            }
                        });
                        if let Some(exit) = narrowed(kept, at) {
                            return exit;
                        }
                    }
                }
                Op::Un { op, ty, dst, a } => {
                    let (c, d, a) = (&mut self.cells, row(*dst), row(*a));
                    lanes.for_each(|l| {
                        c[d + l] = encode_scalar(eval_un(*op, *ty, decode_scalar(*ty, c[a + l])));
                    });
                    self.stats.ops.int_alu += n;
                }
                Op::Cmp { op, ty, dst, a, b } => {
                    let (c, rows, ty) = (&mut self.cells, (row(*dst), row(*a), row(*b)), *ty);
                    match ty {
                        ScalarType::I64 => int_cmp(c, lanes, rows, *op, |x| x as i64),
                        ScalarType::I32 => int_cmp(c, lanes, rows, *op, |x| x as u32 as i32 as i64),
                        _ => map2(c, lanes, rows, |x, y| {
                            eval_cmp(*op, ty, decode_scalar(ty, x), decode_scalar(ty, y)) as u64
                        }),
                    }
                    self.stats.ops.cmp += n;
                }
                Op::Select { ty: _, dst, cond, a, b } => {
                    let rows = (row(*dst), row(*cond), row(*a), row(*b));
                    map3(&mut self.cells, lanes, rows, |c, x, y| if c != 0 { x } else { y });
                    self.stats.ops.select += n;
                }
                Op::Cast { dst, a, from, to } => {
                    let (c, d, a) = (&mut self.cells, row(*dst), row(*a));
                    if (*from, *to) == (ScalarType::I64, ScalarType::F64) {
                        lanes.for_each(|l| c[d + l] = (c[a + l] as i64 as f64).to_bits());
                    } else {
                        lanes.for_each(|l| {
                            let v = decode_scalar(*from, c[a + l]);
                            c[d + l] = encode_scalar(eval_cast(v, *from, *to));
                        });
                    }
                    self.stats.ops.cast += n;
                }
                Op::Call1 { func, ty, dst, a } => {
                    let (c, d, a, math) = (&mut self.cells, row(*dst), row(*a), cx.math);
                    lanes.for_each(|l| {
                        let x = decode_scalar(*ty, c[a + l]).as_f64();
                        c[d + l] = if *ty == ScalarType::F32 {
                            let x32 = x as f32;
                            (match func {
                                Builtin::Exp => math.exp32(x32),
                                Builtin::Log => math.log32(x32),
                                Builtin::Sqrt => math.sqrt32(x32),
                                Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                            })
                            .to_bits() as u64
                        } else {
                            (match func {
                                Builtin::Exp => math.exp64(x),
                                Builtin::Log => math.log64(x),
                                Builtin::Sqrt => math.sqrt64(x),
                                Builtin::Pow => unreachable!("pow lowered to Op::Pow"),
                            })
                            .to_bits()
                        };
                    });
                    self.stats.ops.count_builtins(*func, *ty, n);
                }
                Op::Pow { ty, dst, a, b } => {
                    let (ty, math) = (*ty, cx.math);
                    map2(&mut self.cells, lanes, (row(*dst), row(*a), row(*b)), |x, y| {
                        let (x, y) = (decode_scalar(ty, x).as_f64(), decode_scalar(ty, y).as_f64());
                        if ty == ScalarType::F32 {
                            math.pow32(x as f32, y as f32).to_bits() as u64
                        } else {
                            math.pow64(x, y).to_bits()
                        }
                    });
                    self.stats.ops.count_builtins(Builtin::Pow, ty, n);
                }
                Op::WorkItem { query, dim, dst } => {
                    let (shape, k, d) = (&self.shape, *dim as usize, row(*dst));
                    let (c, lid) = (&mut self.cells, &self.lid);
                    match query {
                        WiQuery::GlobalId => {
                            let base = shape.group_id[k] * shape.local_size[k];
                            lanes.for_each(|l| c[d + l] = (base + lid[l][k]) as i64 as u64);
                        }
                        WiQuery::LocalId => lanes.for_each(|l| c[d + l] = lid[l][k] as i64 as u64),
                        uniform => {
                            let v = match uniform {
                                WiQuery::GroupId => shape.group_id[k],
                                WiQuery::GlobalSize => shape.global_size[k],
                                WiQuery::LocalSize => shape.local_size[k],
                                _ => shape.num_groups()[k],
                            };
                            fill_lanes(c, d, lanes, v as i64 as u64);
                        }
                    }
                    self.stats.ops.wi_query += n;
                }
                Op::Gep { dst, base, index, elem, index_ty } => {
                    let (d, b, x) = (self.prow(*dst), self.prow(*base), row(*index));
                    let (ptrs, cells) = (&mut self.ptrs, &self.cells);
                    // An `int` index sign-extends, as `Value::as_i64` does.
                    let wide = *index_ty != ScalarType::I32;
                    lanes.for_each(|l| {
                        let i = cells[x + l];
                        let i = if wide { i as i64 } else { i as u32 as i32 as i64 };
                        ptrs[d + l] = ptrs[b + l].offset_by(i, *elem);
                    });
                    self.stats.ops.int_alu += n;
                }
                Op::Load { dst, ptr, ty } => {
                    let (ty, len, d, pr) = (*ty, ty.size_bytes(), row(*dst), self.prow(*ptr));
                    // Resolve the access once for the whole group: in
                    // race-free kernels a group's lanes nearly always
                    // address one buffer (a uniform base plus per-lane
                    // offsets), or their own private arenas. Lanes that
                    // miss — different space or buffer, out of bounds,
                    // bool loads from buffers (which canonicalize through
                    // `Value`) — take the per-lane slow path, which also
                    // produces the exact walker error payloads.
                    let p0 = self.ptrs[pr + lanes.at(0)];
                    let mut k = 0;
                    if p0.space == AddressSpace::Private {
                        while k < lanes.len() {
                            let l = lanes.at(k);
                            let Some(o) = private_offset(self.ptrs[pr + l], len, pb) else {
                                break;
                            };
                            let bits = read_le(&self.private[l * pb + o..l * pb + o + len]);
                            self.cells[d + l] =
                                if ty == ScalarType::Bool { (bits != 0) as u64 } else { bits };
                            k += 1;
                        }
                        self.stats.mem.count_loads(AddressSpace::Private, len, k as u64);
                    } else if ty != ScalarType::Bool {
                        if let Some((base, rlen)) = cx.mem.raw_region(p0.space, p0.buffer) {
                            while k < lanes.len() {
                                let l = lanes.at(k);
                                let p = self.ptrs[pr + l];
                                if p.space != p0.space || p.buffer != p0.buffer {
                                    break;
                                }
                                let Some(o) =
                                    usize::try_from(p.offset).ok().filter(|o| o + len <= rlen)
                                else {
                                    break;
                                };
                                // SAFETY: `o + len <= rlen` was just checked
                                // against the region the memory exposed;
                                // cross-group races are excluded by the
                                // race-freedom contract of `raw_region`.
                                let bits = unsafe {
                                    read_le(std::slice::from_raw_parts(base.add(o), len))
                                };
                                self.cells[d + l] = bits;
                                k += 1;
                            }
                            self.stats.mem.count_loads(p0.space, len, k as u64);
                        }
                    }
                    if k < lanes.len() {
                        let (cells, ptrs, private) = (&mut self.cells, &self.ptrs, &self.private);
                        let (stats, fetches, fetched) =
                            (&mut self.stats, &mut self.lane_fetches, at.fetched);
                        let kept = lanes.retain(k, &mut cx.pool, |l| {
                            let p = ptrs[pr + l];
                            let res = if p.space == AddressSpace::Private {
                                private_load(&private[l * pb..(l + 1) * pb], p, ty)
                            } else {
                                cx.mem.load(p, ty).map_err(ExecError::from)
                            };
                            match res {
                                Ok(v) => {
                                    stats.mem.count_load(p.space, len);
                                    cells[d + l] = encode_scalar(v);
                                    true
                                }
                                Err(err) => {
                                    cx.any_bad = true;
                                    fetches[l] = fetched;
                                    cx.trapped.push((l, err));
                                    false
                                }
                            }
                        });
                        if let Some(exit) = narrowed(kept, at) {
                            return exit;
                        }
                    }
                }
                Op::Store { ptr, val, ty } => {
                    let (ty, len, v, pr) = (*ty, ty.size_bytes(), row(*val), self.prow(*ptr));
                    // Same single-resolution fast paths as `Load`. Cells
                    // hold the exact little-endian bit patterns
                    // `Value::to_le_bytes` would produce (bool included:
                    // cells are canonical 0/1). Stores to `__constant`
                    // memory must keep erroring, so the constant space
                    // never takes a fast path.
                    let p0 = self.ptrs[pr + lanes.at(0)];
                    let mut k = 0;
                    if p0.space == AddressSpace::Private {
                        while k < lanes.len() {
                            let l = lanes.at(k);
                            let Some(o) = private_offset(self.ptrs[pr + l], len, pb) else {
                                break;
                            };
                            write_le(
                                &mut self.private[l * pb + o..l * pb + o + len],
                                self.cells[v + l],
                            );
                            k += 1;
                        }
                        self.stats.mem.count_stores(AddressSpace::Private, len, k as u64);
                    } else if matches!(p0.space, AddressSpace::Global | AddressSpace::Local) {
                        if let Some((base, rlen)) = cx.mem.raw_region(p0.space, p0.buffer) {
                            while k < lanes.len() {
                                let l = lanes.at(k);
                                let p = self.ptrs[pr + l];
                                if p.space != p0.space || p.buffer != p0.buffer {
                                    break;
                                }
                                let Some(o) =
                                    usize::try_from(p.offset).ok().filter(|o| o + len <= rlen)
                                else {
                                    break;
                                };
                                // SAFETY: bounds checked above; race-freedom
                                // per the `raw_region` contract.
                                unsafe {
                                    write_le(
                                        std::slice::from_raw_parts_mut(base.add(o), len),
                                        self.cells[v + l],
                                    );
                                }
                                k += 1;
                            }
                            self.stats.mem.count_stores(p0.space, len, k as u64);
                        }
                    }
                    if k < lanes.len() {
                        let (cells, ptrs, private) = (&self.cells, &self.ptrs, &mut self.private);
                        let (stats, fetches, fetched) =
                            (&mut self.stats, &mut self.lane_fetches, at.fetched);
                        let kept = lanes.retain(k, &mut cx.pool, |l| {
                            let p = ptrs[pr + l];
                            let val = decode_scalar(ty, cells[v + l]);
                            let res = if p.space == AddressSpace::Private {
                                private_store(&mut private[l * pb..(l + 1) * pb], p, val)
                            } else {
                                cx.mem.store(p, val).map_err(ExecError::from)
                            };
                            match res {
                                Ok(()) => {
                                    stats.mem.count_store(p.space, len);
                                    true
                                }
                                Err(err) => {
                                    cx.any_bad = true;
                                    fetches[l] = fetched;
                                    cx.trapped.push((l, err));
                                    false
                                }
                            }
                        });
                        if let Some(exit) = narrowed(kept, at) {
                            return exit;
                        }
                    }
                }
                Op::Barrier => {
                    // Release in place when the group is the whole live
                    // work-group: nothing queued behind it, no lane parked
                    // or trapped this phase, and the phase's steps fit the
                    // budget. Anything else parks the lanes for the
                    // general release in `run_resumable`.
                    let total = cx.sum_fetches.saturating_add(at.fetched.saturating_mul(n));
                    let budget = self.step_limit - self.steps;
                    if !cx.alone || cx.parked || cx.any_bad || total > budget {
                        cx.parked = true;
                        return self.finish(cx, lanes, at, LaneStatus::AtBarrier);
                    }
                    self.steps += total;
                    self.stats.barriers += 1;
                    self.stats.item_phases += n;
                    cx.sum_fetches = 0;
                    cx.cap = (budget - total).saturating_add(1);
                    cx.released(lanes);
                    at.fetched = 0;
                }
                Op::PipeRead { dst, pipe, ty } => {
                    // Pipe kernels are single-work-item tasks (enforced at
                    // construction), so this runs on `One`; a stalled lane
                    // leaves the phase suspended at this pc.
                    let (d, pr, ty) = (row(*dst), self.prow(*pipe), *ty);
                    let (cells, ptrs, stats) = (&mut self.cells, &self.ptrs, &mut self.stats);
                    let (fetches, status, pcs) =
                        (&mut self.lane_fetches, &mut self.status, &mut self.pc);
                    let kept = lanes.retain(0, &mut cx.pool, |l| {
                        match cx.pipes.try_read(ptrs[pr + l].buffer, ty) {
                            Err(msg) => {
                                cx.any_bad = true;
                                fetches[l] = at.fetched;
                                cx.trapped.push((l, ExecError::Trap(msg)));
                                false
                            }
                            Ok(None) => {
                                stats.pipe_read_stalls += 1;
                                fetches[l] = at.fetched;
                                status[l] = LaneStatus::AtPipe;
                                pcs[l] = at.pc;
                                cx.sum_fetches = cx.sum_fetches.saturating_add(at.fetched);
                                false
                            }
                            Ok(Some(bits)) => {
                                stats.pipe_reads += 1;
                                cells[d + l] = bits;
                                true
                            }
                        }
                    });
                    if let Some(exit) = narrowed(kept, at) {
                        return exit;
                    }
                }
                Op::PipeWrite { pipe, val, ty } => {
                    let (v, pr, ty) = (row(*val), self.prow(*pipe), *ty);
                    let (cells, ptrs, stats) = (&self.cells, &self.ptrs, &mut self.stats);
                    let (fetches, status, pcs) =
                        (&mut self.lane_fetches, &mut self.status, &mut self.pc);
                    let kept = lanes.retain(0, &mut cx.pool, |l| {
                        match cx.pipes.try_write(ptrs[pr + l].buffer, ty, cells[v + l]) {
                            Err(msg) => {
                                cx.any_bad = true;
                                fetches[l] = at.fetched;
                                cx.trapped.push((l, ExecError::Trap(msg)));
                                false
                            }
                            Ok(false) => {
                                stats.pipe_write_stalls += 1;
                                fetches[l] = at.fetched;
                                status[l] = LaneStatus::AtPipe;
                                pcs[l] = at.pc;
                                cx.sum_fetches = cx.sum_fetches.saturating_add(at.fetched);
                                false
                            }
                            Ok(true) => {
                                stats.pipe_writes += 1;
                                true
                            }
                        }
                    });
                    if let Some(exit) = narrowed(kept, at) {
                        return exit;
                    }
                }
                Op::Jump { target, block } => {
                    self.stats.block_execs[*block as usize] += n;
                    at.pc = *target as usize;
                    continue;
                }
                Op::JumpThread { target, mid_block, block } => {
                    // Second step for the threaded-through jump.
                    at.fetched += 1;
                    if at.fetched > cx.cap {
                        return self.out_of_budget(cx, lanes);
                    }
                    self.stats.block_execs[*mid_block as usize] += n;
                    self.stats.block_execs[*block as usize] += n;
                    at.pc = *target as usize;
                    continue;
                }
                Op::Branch { cond, then_target, then_block, else_target, else_block } => {
                    // Uniform branches (the common case, and the only case
                    // for one lane) redirect the whole group in place.
                    let (c, cells) = (row(*cond), &self.cells);
                    let first = cells[c + lanes.at(0)] != 0;
                    if (1..lanes.len()).all(|k| (cells[c + lanes.at(k)] != 0) == first) {
                        let (block, target) = if first {
                            (*then_block, *then_target)
                        } else {
                            (*else_block, *else_target)
                        };
                        self.stats.block_execs[block as usize] += n;
                        at.pc = target as usize;
                        continue;
                    }
                    let mut then_l = cx.pool.pop().unwrap_or_default();
                    then_l.clear();
                    let mut else_l = cx.pool.pop().unwrap_or_default();
                    else_l.clear();
                    lanes.for_each(|l| {
                        if cells[c + l] != 0 {
                            then_l.push(l);
                        } else {
                            else_l.push(l);
                        }
                    });
                    self.stats.block_execs[*then_block as usize] += then_l.len() as u64;
                    self.stats.block_execs[*else_block as usize] += else_l.len() as u64;
                    let at = Cursor { pc: *then_target as usize, ..at };
                    return Exit::Split { then_l, else_l, at, else_pc: *else_target as usize };
                }
                Op::Return => return self.finish(cx, lanes, at, LaneStatus::Done),
            }
            at.pc += 1;
        }
    }
}

/// Check `args` against the kernel signature and bind them to values,
/// with the exact error messages of the tree-walker.
fn bind_args(kernel: &CompiledKernel, args: &[KernelArgValue]) -> Result<Vec<Value>, ExecError> {
    if args.len() != kernel.params.len() {
        return Err(ExecError::BadArgs(format!(
            "kernel `{}` takes {} arguments, {} supplied",
            kernel.name,
            kernel.params.len(),
            args.len()
        )));
    }
    let mut bound = Vec::with_capacity(args.len());
    for (i, (arg, param)) in args.iter().zip(&kernel.params).enumerate() {
        let v = match (*arg, param.ty) {
            (KernelArgValue::Scalar(v), Type::Scalar(want)) => {
                if v.scalar_type() != Some(want) {
                    return Err(ExecError::BadArgs(format!(
                        "argument {i} (`{}`): expected {want}, got {v:?}",
                        param.name
                    )));
                }
                v
            }
            (KernelArgValue::GlobalBuffer(b), Type::Ptr(space, _))
                if matches!(space, AddressSpace::Global | AddressSpace::Constant) =>
            {
                Value::Ptr(PtrValue::new(space, b))
            }
            (KernelArgValue::LocalBuffer(slot), Type::Ptr(AddressSpace::Local, _)) => {
                Value::Ptr(PtrValue::new(AddressSpace::Local, slot))
            }
            (KernelArgValue::Pipe(id), Type::Ptr(AddressSpace::Pipe, _)) => {
                Value::Ptr(PtrValue::new(AddressSpace::Pipe, id))
            }
            _ => {
                return Err(ExecError::BadArgs(format!(
                    "argument {i} (`{}`): {arg:?} does not match parameter type {}",
                    param.name, param.ty
                )))
            }
        };
        bound.push(v);
    }
    Ok(bound)
}

fn private_load(arena: &[u8], p: PtrValue, ty: ScalarType) -> Result<Value, ExecError> {
    let len = ty.size_bytes();
    let off = usize::try_from(p.offset)
        .ok()
        .filter(|o| o + len <= arena.len())
        .ok_or_else(|| private_oob(p, len, arena.len()))?;
    Ok(Value::from_le_bytes(ty, &arena[off..off + len]))
}

fn private_store(arena: &mut [u8], p: PtrValue, v: Value) -> Result<(), ExecError> {
    let len = stored_type(p, v)?.size_bytes();
    let alen = arena.len();
    let off = usize::try_from(p.offset)
        .ok()
        .filter(|o| o + len <= alen)
        .ok_or_else(|| private_oob(p, len, alen))?;
    arena[off..off + len].copy_from_slice(&v.to_le_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::FunctionBuilder;
    use crate::interp::{VecMemory, WorkGroupRun};
    use crate::mathlib::ExactMath;

    /// Run `func` under the walker and the lanes engine over the same
    /// NDRange with identically initialised memories; return each memory
    /// and stats.
    #[allow(clippy::type_complexity)]
    fn run_all(
        func: &Function,
        global: usize,
        local: usize,
        init: impl Fn(&mut VecMemory) -> Vec<KernelArgValue>,
    ) -> ((VecMemory, ExecStats), (VecMemory, ExecStats)) {
        let compiled = CompiledKernel::compile(func);
        let mut walk_mem = VecMemory::new();
        let walk_args = init(&mut walk_mem);
        let mut walk_stats = ExecStats::with_blocks(func.blocks.len());
        let mut ln_mem = VecMemory::new();
        let ln_args = init(&mut ln_mem);
        let mut ln_stats = ExecStats::with_blocks(func.blocks.len());
        for group in 0..global / local {
            let shape = GroupShape::linear(global, local, group);
            let mut w = WorkGroupRun::new(func, shape, &walk_args, 0).expect("walk args");
            w.run(&mut walk_mem, &ExactMath).expect("walk runs");
            walk_stats.merge(w.stats());
            let mut l = LanesRun::new(&compiled, shape, &ln_args, 0).expect("lanes args");
            l.run(&mut ln_mem, &ExactMath).expect("lanes runs");
            ln_stats.merge(l.stats());
        }
        ((walk_mem, walk_stats), (ln_mem, ln_stats))
    }

    /// Looping kernel with barrier, local exchange, math call and private
    /// storage — exercises every structural feature at once.
    fn busy_kernel() -> Function {
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("busy", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let loc = b.param("l", Type::ptr(AddressSpace::Local, ScalarType::F64));
        let priv_slot = b.alloc_private(8, ScalarType::F64);
        let lid = b.local_id(0);
        let lid_f = b.cast(lid, ScalarType::I64, ScalarType::F64);
        // priv[0] = exp(lid / 8.0)
        let eight = b.const_f64(8.0);
        let frac = b.fdiv(lid_f, eight, ScalarType::F64);
        let e = b.call(Builtin::Exp, ScalarType::F64, &[frac]);
        b.store(priv_slot, e, ScalarType::F64);
        // l[lid] = lid; barrier; v = l[(lid+1)%n]
        let slot = b.gep(loc, lid, ScalarType::F64);
        b.store(slot, lid_f, ScalarType::F64);
        b.barrier();
        let one = b.const_i64(1);
        let n = b.wi_query(WiQuery::LocalSize, 0);
        let lp1 = b.bin(BinOp::Add, ScalarType::I64, lid, one);
        let idx = b.bin(BinOp::Rem, ScalarType::I64, lp1, n);
        let nslot = b.gep(loc, idx, ScalarType::F64);
        let v = b.load(nslot, ScalarType::F64);
        // acc = sum_{i=0}^{lid} i  (data-dependent trip count)
        let acc = b.fresh(Type::Scalar(ScalarType::F64));
        let zf = b.const_f64(0.0);
        b.mov_into(acc, zf);
        let i = b.fresh(Type::Scalar(ScalarType::I64));
        let z = b.const_i64(0);
        b.mov_into(i, z);
        let header = b.create_block();
        let body = b.create_block();
        let exit = b.create_block();
        b.jump(header);
        b.switch_to(header);
        let cond = b.cmp(CmpOp::Le, ScalarType::I64, i, lid);
        b.branch(cond, body, exit);
        b.switch_to(body);
        let i_f = b.cast(i, ScalarType::I64, ScalarType::F64);
        let newacc = b.fadd(acc, i_f, ScalarType::F64);
        b.mov_into(acc, newacc);
        let newi = b.bin(BinOp::Add, ScalarType::I64, i, one);
        b.mov_into(i, newi);
        b.jump(header);
        b.switch_to(exit);
        // out[gid] = acc + v + priv[0]
        let pv = b.load(priv_slot, ScalarType::F64);
        let s1 = b.fadd(acc, v, ScalarType::F64);
        let s2 = b.fadd(s1, pv, ScalarType::F64);
        let gid = b.global_id(0);
        let oslot = b.gep(out, gid, ScalarType::F64);
        b.store(oslot, s2, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn bytecode_and_lanes_match_walker_bit_for_bit() {
        let func = busy_kernel();
        let ((wm, ws), (lm, ls)) = run_all(&func, 8, 4, |mem| {
            let buf = mem.alloc_global(8 * 8);
            let l = mem.alloc_local(4 * 8);
            vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
        });
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "bit-identical lanes buffers");
        assert_eq!(ws, ls, "identical lanes ExecStats (blocks, ops, mem, barriers, phases)");
        assert!(ws.barriers > 0 && ws.ops.transc64 > 0, "kernel actually exercised features");
    }

    #[test]
    fn trap_messages_match_walker() {
        // out[0] = 1 / 0 (integer) — both engines must trap identically.
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("div0", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let one = b.const_i64(1);
        let zero = b.const_i64(0);
        let q = b.bin(BinOp::Div, ScalarType::I64, one, zero);
        let qf = b.cast(q, ScalarType::I64, ScalarType::F64);
        let z2 = b.const_i64(0);
        let slot = b.gep(out, z2, ScalarType::F64);
        b.store(slot, qf, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);

        let mut wm = VecMemory::new();
        let wbuf = wm.alloc_global(8);
        let mut w = WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(wbuf)], 0)
            .expect("args");
        let werr = w.run(&mut wm, &ExactMath).expect_err("walker traps");
        assert!(werr.to_string().contains("integer division by zero"));

        let mut lm = VecMemory::new();
        let lbuf = lm.alloc_global(8);
        let mut ln = LanesRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(lbuf)], 0)
            .expect("args");
        let lerr = ln.run(&mut lm, &ExactMath).expect_err("lanes traps");
        assert_eq!(werr.to_string(), lerr.to_string());
    }

    #[test]
    fn divergence_positions_match_walker() {
        let mut b = FunctionBuilder::new("div", true);
        let _out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let lid = b.local_id(0);
        let zero = b.const_i64(0);
        let cond = b.cmp(CmpOp::Eq, ScalarType::I64, lid, zero);
        let t = b.create_block();
        let e = b.create_block();
        let join = b.create_block();
        b.branch(cond, t, e);
        b.switch_to(t);
        b.barrier();
        b.jump(join);
        b.switch_to(e);
        b.barrier();
        b.jump(join);
        b.switch_to(join);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(2, 2, 0);

        let run_engine = |walk: bool| -> ExecError {
            let mut mem = VecMemory::new();
            let buf = mem.alloc_global(8);
            let args = [KernelArgValue::GlobalBuffer(buf)];
            if walk {
                let mut r = WorkGroupRun::new(&func, shape, &args, 0).expect("args");
                r.run(&mut mem, &ExactMath).expect_err("diverges")
            } else {
                let mut r = LanesRun::new(&compiled, shape, &args, 0).expect("args");
                r.run(&mut mem, &ExactMath).expect_err("diverges")
            }
        };
        let (we, le) = (run_engine(true), run_engine(false));
        assert_eq!(we.to_string(), le.to_string(), "same (block, inst) positions reported");
        assert!(matches!(le, ExecError::BarrierDivergence { .. }));
    }

    #[test]
    fn step_limit_applies_identically() {
        let mut b = FunctionBuilder::new("spin", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let header = b.create_block();
        b.jump(header);
        b.switch_to(header);
        b.jump(header);
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);
        let mut mem = VecMemory::new();
        let buf = mem.alloc_global(8);
        let mut r = WorkGroupRun::new(&func, shape, &[KernelArgValue::GlobalBuffer(buf)], 500)
            .expect("args");
        assert!(matches!(r.run(&mut mem, &ExactMath), Err(ExecError::StepLimitExceeded)));
        let mut r = LanesRun::new(&compiled, shape, &[KernelArgValue::GlobalBuffer(buf)], 500)
            .expect("args");
        assert!(matches!(r.run(&mut mem, &ExactMath), Err(ExecError::StepLimitExceeded)));
    }

    #[test]
    fn bad_args_rejected_with_walker_messages() {
        let mut b = FunctionBuilder::new("k", true);
        let _p = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let shape = GroupShape::linear(1, 1, 0);
        let walker_err = match WorkGroupRun::new(&func, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("walker accepted bad args"),
        };
        let lanes_err = match LanesRun::new(&compiled, shape, &[], 0) {
            Err(e) => e,
            Ok(_) => panic!("lanes accepted bad args"),
        };
        assert_eq!(walker_err.to_string(), lanes_err.to_string());
        assert!(matches!(
            LanesRun::new(&compiled, shape, &[KernelArgValue::Scalar(Value::F64(1.0))], 0),
            Err(ExecError::BadArgs(_))
        ));
    }

    /// `priv[lid + bias]` into a one-double private arena, loaded into
    /// `out[gid]` or stored from a constant: only lane `-bias` is in
    /// bounds, every other lane runs past the end (or before the start).
    /// A `narrow` index is an `int`, which must sign-extend.
    fn private_access_kernel(store: bool, bias: i64, narrow: bool) -> Function {
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("private_access", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let arena = b.alloc_private(8, ScalarType::F64);
        let lid = b.local_id(0);
        let k = b.const_i64(bias);
        let i = b.bin(BinOp::Add, ScalarType::I64, lid, k);
        let i = if narrow { b.cast(i, ScalarType::I64, ScalarType::I32) } else { i };
        let slot = b.gep(arena, i, ScalarType::F64);
        let v = if store {
            let v = b.const_f64(2.5);
            b.store(slot, v, ScalarType::F64);
            v
        } else {
            b.load(slot, ScalarType::F64)
        };
        let gid = b.global_id(0);
        let oslot = b.gep(out, gid, ScalarType::F64);
        b.store(oslot, v, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn private_out_of_bounds_reports_the_walker_payload() {
        for (store, narrow) in [(false, false), (true, false), (false, true), (true, true)] {
            for bias in [0, 1, -1] {
                for local in [1, 4] {
                    let func = private_access_kernel(store, bias, narrow);
                    let compiled = CompiledKernel::compile(&func);
                    let shape = GroupShape::linear(local, local, 0);
                    let what = format!("store={store} narrow={narrow} bias={bias} local={local}");
                    let mut wm = VecMemory::new();
                    let args = [KernelArgValue::GlobalBuffer(wm.alloc_global(8 * local))];
                    let mut w = WorkGroupRun::new(&func, shape, &args, 0).expect("args");
                    let wres = w.run(&mut wm, &ExactMath);
                    let mut lm = VecMemory::new();
                    let args = [KernelArgValue::GlobalBuffer(lm.alloc_global(8 * local))];
                    let mut l = LanesRun::new(&compiled, shape, &args, 0).expect("args");
                    let lres = l.run(&mut lm, &ExactMath);
                    // Only a lone in-bounds lane runs clean.
                    assert_eq!(wres.is_ok(), local == 1 && bias == 0, "{what}");
                    match (wres, lres) {
                        (Ok(()), Ok(())) => {
                            assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "{what}");
                            assert_eq!(w.stats(), l.stats(), "{what}");
                        }
                        (Err(we), Err(le)) => {
                            assert_eq!(we.to_string(), le.to_string(), "{what}");
                            assert!(le.to_string().contains("private arena size 8"), "{what}");
                        }
                        (wres, lres) => panic!("{what}: walker {wres:?}, lanes {lres:?}"),
                    }
                }
            }
        }
    }

    #[test]
    fn constants_are_interned_by_bits() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let a = b.const_f64(2.0);
        let c = b.const_f64(2.0); // same bits: shares a pool slot
        let d = b.const_f64(3.0);
        let s = b.fadd(a, c, ScalarType::F64);
        let s2 = b.fadd(s, d, ScalarType::F64);
        let z = b.const_i64(0);
        let slot = b.gep(out, z, ScalarType::F64);
        b.store(slot, s2, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        // Pool: 2.0, 3.0, 0i64 — the duplicate 2.0 is interned away.
        assert_eq!(compiled.const_count(), 3);
        assert_eq!(compiled.num_blocks(), 1);
    }

    #[test]
    fn disassembly_lists_pool_blocks_and_jumps() {
        let func = busy_kernel();
        let compiled = CompiledKernel::compile(&func);
        let dump = compiled.to_string();
        assert!(dump.contains("bytecode @busy("));
        assert!(dump.contains("c0 ="), "constant pool listed");
        assert!(dump.contains("b0:"), "block labels present");
        assert!(dump.contains("jump @"), "resolved jump offsets shown");
        assert!(dump.contains("br r"), "branches shown");
        assert!(dump.contains("barrier"));
        assert!(dump.contains("exp.double("), "builtin call shown");
        assert!(dump.contains("ret"));
    }

    /// `out[0] = x*y + z` with the product dead after the add: the
    /// peephole must fuse it, and all engines must agree bit-for-bit on
    /// result and stats (the fused op charges the unfused costs).
    fn muladd_kernel(c_first: bool) -> Function {
        use crate::ir::BinOp;
        let mut b = FunctionBuilder::new("fma", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.const_f64(3.0);
        let y = b.const_f64(5.0);
        let z = b.const_f64(7.0);
        let t = b.bin(BinOp::Mul, ScalarType::F64, x, y);
        let s = if c_first { b.fadd(z, t, ScalarType::F64) } else { b.fadd(t, z, ScalarType::F64) };
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, s, ScalarType::F64);
        b.ret();
        b.finish().expect("valid")
    }

    #[test]
    fn peephole_fuses_dead_product_multiply_add() {
        for c_first in [false, true] {
            let func = muladd_kernel(c_first);
            let compiled = CompiledKernel::compile(&func);
            assert!(
                compiled.to_string().contains("muladd.double"),
                "mul+add pair fused (c_first={c_first})"
            );
            let ((wm, ws), (lm, ls)) =
                run_all(&func, 1, 1, |mem| vec![KernelArgValue::GlobalBuffer(mem.alloc_global(8))]);
            assert_eq!(wm.read_f64(0, 0), 22.0);
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
            assert_eq!(ws, ls, "fused op charges exactly the unfused mul+add");
        }
    }

    #[test]
    fn peephole_leaves_live_products_unfused() {
        use crate::ir::BinOp;
        // t = x*y is read by the add AND the store: no fusion allowed.
        let mut b = FunctionBuilder::new("live", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.const_f64(3.0);
        let y = b.const_f64(5.0);
        let t = b.bin(BinOp::Mul, ScalarType::F64, x, y);
        let s = b.fadd(t, t, ScalarType::F64);
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, s, ScalarType::F64);
        let one = b.const_i64(1);
        let slot2 = b.gep(out, one, ScalarType::F64);
        b.store(slot2, t, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        assert!(!compiled.to_string().contains("muladd"), "live product not fused");
    }

    #[test]
    fn peephole_elides_self_moves_and_threads_jumps() {
        let mut b = FunctionBuilder::new("k", true);
        let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
        let x = b.fresh(Type::Scalar(ScalarType::F64));
        let one = b.const_f64(1.0);
        b.mov_into(x, one);
        b.mov_into(x, x); // self-move: elided but still charged
        let hop = b.create_block(); // jump-only: threaded through
        let tail = b.create_block();
        b.jump(hop);
        b.switch_to(hop);
        b.jump(tail);
        b.switch_to(tail);
        let zero = b.const_i64(0);
        let slot = b.gep(out, zero, ScalarType::F64);
        b.store(slot, x, ScalarType::F64);
        b.ret();
        let func = b.finish().expect("valid");
        let compiled = CompiledKernel::compile(&func);
        let dump = compiled.to_string();
        assert!(dump.contains("mov (self, elided)"), "self-move becomes a charge op");
        assert!(dump.contains("(b1 -> b2)"), "jump threaded through the hop block");
        let ((wm, ws), (lm, ls)) =
            run_all(&func, 2, 2, |mem| vec![KernelArgValue::GlobalBuffer(mem.alloc_global(16))]);
        assert_eq!(wm.global_bytes(0), lm.global_bytes(0));
        assert_eq!(ws, ls, "elided/threaded ops charge walker-identical stats");
        assert!(ws.ops.mov >= 4, "both movs charged on both items");
        assert_eq!(ws.block_execs[1], 2, "threaded-through block still charged");
    }

    #[test]
    fn lanes_match_on_divergent_data_dependent_branches() {
        // Per-lane trip counts force group splits and early retirement;
        // run under several group sizes to cross group boundaries.
        let func = busy_kernel();
        for local in [1, 2, 8] {
            let ((wm, ws), (lm, ls)) = run_all(&func, 8, local, |mem| {
                let buf = mem.alloc_global(8 * 8);
                let l = mem.alloc_local(local * 8);
                vec![KernelArgValue::GlobalBuffer(buf), KernelArgValue::LocalBuffer(l)]
            });
            assert_eq!(wm.global_bytes(0), lm.global_bytes(0), "local={local}");
            assert_eq!(ws, ls, "local={local}");
        }
    }
}
