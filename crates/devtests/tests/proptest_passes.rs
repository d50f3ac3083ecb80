//! Property test: the runtime pass pipeline preserves semantics.
//!
//! Generates random straight-line CLIR kernels (no control flow, no
//! trapping integer ops), runs them through the `standard` and
//! `standard+cse` pipelines, and checks that the optimised module is
//! still verifier-clean and that the tree-walking interpreter on the
//! original, the tree-walker on the optimised IR and the compiled lanes
//! engine on the optimised IR all produce bit-identical output buffers.

use bop_clir::builder::FunctionBuilder;
use bop_clir::bytecode::{CompiledKernel, LanesRun};
use bop_clir::interp::{GroupShape, KernelArgValue, VecMemory, WorkGroupRun};
use bop_clir::ir::{BinOp, Builtin, Function, Module};
use bop_clir::mathlib::ExactMath;
use bop_clir::passes::Pipeline;
use bop_clir::types::{AddressSpace, ScalarType, Type};
use proptest::prelude::*;

/// One generated instruction; operand fields index into the live
/// register pools modulo their length, so any byte is a valid pick.
#[derive(Debug, Clone)]
enum OpDesc {
    ConstF(f64),
    ConstI(i64),
    /// Float binop: selector, lhs pick, rhs pick.
    FBin(u8, u8, u8),
    /// Integer binop (non-trapping subset): selector, lhs, rhs.
    IBin(u8, u8, u8),
    IntToFloat(u8),
    FloatToInt(u8),
    /// Unary math call: builtin selector, operand pick.
    Call(u8, u8),
}

fn op_strategy() -> impl Strategy<Value = OpDesc> {
    prop_oneof![
        (-1e9f64..1e9).prop_map(OpDesc::ConstF),
        any::<i64>().prop_map(OpDesc::ConstI),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| OpDesc::FBin(o, a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(o, a, b)| OpDesc::IBin(o, a, b)),
        any::<u8>().prop_map(OpDesc::IntToFloat),
        any::<u8>().prop_map(OpDesc::FloatToInt),
        (any::<u8>(), any::<u8>()).prop_map(|(f, a)| OpDesc::Call(f, a)),
    ]
}

const FOPS: [BinOp; 6] = [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::Div, BinOp::Min, BinOp::Max];
// Integer Div/Rem trap on zero divisors and are deliberately absent.
const IOPS: [BinOp; 8] =
    [BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::And, BinOp::Or, BinOp::Xor, BinOp::Min, BinOp::Max];
const CALLS: [Builtin; 2] = [Builtin::Exp, Builtin::Sqrt];

fn pick(pool: &[bop_clir::ir::RegId], idx: u8) -> bop_clir::ir::RegId {
    pool[idx as usize % pool.len()]
}

/// Materialise the descriptor list as a single-block kernel that stores
/// a reduction of every live register to `out[gid]` (so dead-code
/// elimination cannot trivialise the test).
fn build_kernel(ops: &[OpDesc]) -> Function {
    let mut b = FunctionBuilder::new("randk", true);
    let out = b.param("out", Type::ptr(AddressSpace::Global, ScalarType::F64));
    let gid = b.global_id(0);
    let lid = b.local_id(0);
    let gid_f = b.cast(gid, ScalarType::I64, ScalarType::F64);
    let seed = b.const_f64(1.5);
    let mut fregs = vec![gid_f, seed];
    let mut iregs = vec![gid, lid];
    for op in ops {
        match op {
            OpDesc::ConstF(x) => fregs.push(b.const_f64(*x)),
            OpDesc::ConstI(x) => iregs.push(b.const_i64(*x)),
            OpDesc::FBin(o, x, y) => {
                let (a, c) = (pick(&fregs, *x), pick(&fregs, *y));
                fregs.push(b.bin(FOPS[*o as usize % FOPS.len()], ScalarType::F64, a, c));
            }
            OpDesc::IBin(o, x, y) => {
                let (a, c) = (pick(&iregs, *x), pick(&iregs, *y));
                iregs.push(b.bin(IOPS[*o as usize % IOPS.len()], ScalarType::I64, a, c));
            }
            OpDesc::IntToFloat(x) => {
                let a = pick(&iregs, *x);
                fregs.push(b.cast(a, ScalarType::I64, ScalarType::F64));
            }
            OpDesc::FloatToInt(x) => {
                let a = pick(&fregs, *x);
                iregs.push(b.cast(a, ScalarType::F64, ScalarType::I64));
            }
            OpDesc::Call(f, x) => {
                let a = pick(&fregs, *x);
                fregs.push(b.call(CALLS[*f as usize % CALLS.len()], ScalarType::F64, &[a]));
            }
        }
    }
    let mut acc = fregs[0];
    for &r in &fregs[1..] {
        acc = b.fadd(acc, r, ScalarType::F64);
    }
    let tail = b.cast(*iregs.last().expect("seeded"), ScalarType::I64, ScalarType::F64);
    acc = b.fadd(acc, tail, ScalarType::F64);
    let slot = b.gep(out, gid, ScalarType::F64);
    b.store(slot, acc, ScalarType::F64);
    b.ret();
    b.finish().expect("generated straight-line IR is valid")
}

const GLOBAL: usize = 8;
const LOCAL: usize = 4;

/// Run `func` on the tree-walker over the full NDRange; return the
/// output buffer bytes.
fn run_walker(func: &Function) -> Vec<u8> {
    let mut mem = VecMemory::new();
    let buf = mem.alloc_global(GLOBAL * 8);
    let args = vec![KernelArgValue::GlobalBuffer(buf)];
    for group in 0..GLOBAL / LOCAL {
        let shape = GroupShape::linear(GLOBAL, LOCAL, group);
        let mut run = WorkGroupRun::new(func, shape, &args, 0).expect("args bind");
        run.run(&mut mem, &ExactMath).expect("straight-line kernels cannot trap");
    }
    mem.global_bytes(buf).to_vec()
}

/// Same NDRange on the compiled (lanes) engine.
fn run_bytecode(func: &Function) -> Vec<u8> {
    let compiled = CompiledKernel::compile(func);
    let mut mem = VecMemory::new();
    let buf = mem.alloc_global(GLOBAL * 8);
    let args = vec![KernelArgValue::GlobalBuffer(buf)];
    for group in 0..GLOBAL / LOCAL {
        let shape = GroupShape::linear(GLOBAL, LOCAL, group);
        let mut run = LanesRun::new(&compiled, shape, &args, 0).expect("args bind");
        run.run(&mut mem, &ExactMath).expect("straight-line kernels cannot trap");
    }
    mem.global_bytes(buf).to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Optimised IR verifies, and all three execution paths agree bit
    /// for bit with the unoptimised reference.
    #[test]
    fn pipelines_preserve_straight_line_semantics(ops in prop::collection::vec(op_strategy(), 0..24)) {
        let func = build_kernel(&ops);
        let reference = run_walker(&func);

        for pipeline in [Pipeline::standard(), Pipeline::with_cse()] {
            let name = pipeline.name().to_owned();
            let module = Module::from_functions("randk.cl", vec![func.clone()]);
            let (optimized, report) = pipeline.run(module);
            bop_clir::verify::verify_module(&optimized)
                .unwrap_or_else(|e| panic!("pipeline `{name}` broke the IR: {e}"));
            let opt_func = optimized.kernel("randk").expect("kernel survives");
            prop_assert!(
                opt_func.inst_count() <= func.inst_count(),
                "pipeline `{}` must not grow the function", name
            );
            prop_assert!(!report.passes.is_empty(), "pipeline `{}` reports its passes", name);
            prop_assert_eq!(
                &run_walker(opt_func), &reference,
                "walker on `{}`-optimised IR diverges", name
            );
            prop_assert_eq!(
                &run_bytecode(opt_func), &reference,
                "bytecode on `{}`-optimised IR diverges", name
            );
        }
    }
}
