//! Integration: the compile pipeline (passes -> verify -> bytecode) and
//! the engine-equivalence contract.
//!
//! The tree-walking interpreter is the reference semantics; the
//! lane-vectorized bytecode engine is the default hot path. The first half
//! pins down the differential guarantee — both of the paper's host
//! programs on all three device models must produce bit-identical prices,
//! merged `ExecStats`, `QueueCounters` and exported traces on either
//! engine at any worker count. The second half covers the knobs and failure modes
//! around the pipeline: engine/step-limit selection (builder and env
//! syntax), the structured error for pass-corrupted IR, compile metrics,
//! and program sharing across pooled shards.

use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::straightforward::StraightforwardHost;
use bop_core::{devices, Accelerator, KernelArch, Precision};
use bop_finance::types::OptionParams;
use bop_ocl::queue::{parse_engine, parse_step_limit, resolve_engine};
use bop_ocl::{BuildOptions, CommandQueue, Context, Device, Engine, Program};
use std::sync::Arc;

struct Outcome {
    prices: Vec<f64>,
    stats: Option<bop_clir::stats::ExecStats>,
    counters: bop_ocl::queue::QueueCounters,
    chrome: String,
    sim_s: f64,
}

fn run_host(device: Arc<dyn Device>, arch: KernelArch, engine: Engine, workers: usize) -> Outcome {
    let ctx = Context::new(device);
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.set_engine(engine);
    queue.enable_trace();
    let program = Program::from_source(
        &ctx,
        "kernel.cl",
        &arch.source(Precision::Double),
        &BuildOptions::default(),
    )
    .expect("kernel builds");
    let options = vec![OptionParams::example(); 5];
    let n_steps = 24;
    let prices = match arch {
        KernelArch::Straightforward => {
            StraightforwardHost { n_steps, precision: Precision::Double, read_full: true }
                .run(&ctx, &queue, &program, &options)
        }
        _ => OptimizedHost {
            n_steps,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(&ctx, &queue, &program, &options),
    }
    .expect("host program runs");
    Outcome {
        prices,
        stats: queue.kernel_stats(arch.kernel_name()),
        counters: queue.counters(),
        chrome: queue.export_chrome_trace().to_string(),
        sim_s: queue.elapsed_s(),
    }
}

#[test]
fn bytecode_and_lanes_engines_are_bit_identical_to_the_tree_walker() {
    let archs = [KernelArch::Straightforward, KernelArch::Optimized];
    let device_of = [devices::fpga, devices::gpu, devices::cpu];
    for arch in archs {
        for make in device_of {
            let reference = run_host(make(), arch, Engine::Walk, 1);
            for (engine, workers) in [(Engine::Walk, 3), (Engine::Lanes, 1), (Engine::Lanes, 3)] {
                let run = run_host(make(), arch, engine, workers);
                let what = format!(
                    "{arch:?} on {:?}, {engine} engine, {workers} worker(s)",
                    make().info().kind
                );
                assert_eq!(run.prices, reference.prices, "prices differ: {what}");
                assert_eq!(run.stats, reference.stats, "kernel stats differ: {what}");
                assert_eq!(run.counters, reference.counters, "counters differ: {what}");
                assert_eq!(run.chrome, reference.chrome, "chrome export differs: {what}");
                assert_eq!(run.sim_s, reference.sim_s, "simulated clock differs: {what}");
            }
            assert!(reference.stats.is_some(), "launches must record kernel stats");
        }
    }
}

/// Deterministic anchor for the devtests `proptest_engines` template: a
/// branchy kernel with per-lane divergence, multiply-assigned locals,
/// barrier-separated local-memory traffic and an optional integer trap
/// behaves identically on both engines at several worker counts.
#[test]
fn engines_agree_on_branchy_divergent_kernel_and_trap() {
    let src = "__kernel void k(__global double* out, __global const double* in,
                     __local double* tmp, int divisor) {
        int lid = get_local_id(0);
        int gid = get_global_id(0);
        double acc = in[gid];
        int j = 0;
        for (int t = 0; t < 3; t++) {
            if (lid % 2 < 1) {
                acc = acc * 1.25 + (double)t;
                j = j + lid;
            } else {
                acc = acc - 0.75;
                j = j - 1;
            }
            tmp[lid] = acc;
            barrier(CLK_LOCAL_MEM_FENCE);
            double nb = tmp[(lid + 2) % 5];
            barrier(CLK_LOCAL_MEM_FENCE);
            acc = fmax(acc * 0.5, fmin(nb, acc));
        }
        if (lid == 3) {
            j = j / divisor;
        }
        out[gid] = acc + (double)j;
    }";
    let (w, groups) = (5usize, 2usize);
    let n = w * groups;
    let run = |engine: Engine, workers: usize, divisor: i32| {
        let ctx = Context::new(devices::gpu());
        let queue = CommandQueue::new(&ctx);
        queue.set_workers(workers);
        queue.set_engine(engine);
        let program = Program::from_source(&ctx, "branchy.cl", src, &BuildOptions::default())
            .expect("kernel builds");
        let kernel = program.kernel("k").expect("kernel k");
        let out = ctx.create_buffer(8 * n);
        let input = ctx.create_buffer(8 * n);
        let init: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 1.5).collect();
        queue.enqueue_write_f64(&input, &init).expect("write");
        kernel.set_arg_buffer(0, &out);
        kernel.set_arg_buffer(1, &input);
        kernel.set_arg_local(2, 8 * w);
        kernel.set_arg_i32(3, divisor);
        let launched = queue
            .enqueue_nd_range(&kernel, bop_ocl::Dispatch::new(n, w))
            .map_err(|e| e.to_string());
        let prices = launched.map(|_| {
            let mut prices = vec![0.0f64; n];
            queue.enqueue_read_f64(&out, &mut prices).expect("read");
            prices.iter().map(|p| p.to_bits()).collect::<Vec<u64>>()
        });
        (prices, queue.kernel_stats("k"), queue.counters(), queue.elapsed_s())
    };

    let good = run(Engine::Walk, 1, 2);
    assert!(good.0.is_ok(), "divisor 2 must not trap");
    let bad = run(Engine::Walk, 1, 0);
    let trap = bad.0.as_ref().expect_err("divisor 0 must trap");
    assert!(trap.contains("integer division by zero"), "typed trap payload: {trap}");
    for engine in [Engine::Walk, Engine::Lanes] {
        for workers in [1usize, 3] {
            let what = format!("{engine} engine, {workers} worker(s)");
            assert_eq!(run(engine, workers, 2), good, "success outcome differs: {what}");
            assert_eq!(run(engine, workers, 0), bad, "trap outcome differs: {what}");
        }
    }
}

#[test]
fn engine_knob_round_trips_and_env_syntax_parses() {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    assert_eq!(queue.engine(), Engine::default(), "queue starts on the default engine");
    queue.set_engine(Engine::Walk);
    assert_eq!(queue.engine(), Engine::Walk);
    queue.set_engine(Engine::Lanes);
    assert_eq!(queue.engine(), Engine::Lanes);
    assert_eq!(Engine::default(), Engine::Lanes, "lanes is the default hot path");

    // The BOP_SIM_ENGINE value syntax; `bytecode`/`bc` name the one
    // compiled engine.
    for (s, want) in [
        ("walk", Some(Engine::Walk)),
        ("tree", Some(Engine::Walk)),
        ("Bytecode", Some(Engine::Lanes)),
        (" bc ", Some(Engine::Lanes)),
        ("lanes", Some(Engine::Lanes)),
        (" SIMD ", Some(Engine::Lanes)),
        ("llvm", None),
        ("", None),
    ] {
        assert_eq!(parse_engine(s), want, "parse_engine({s:?})");
    }
    // An unset variable selects the default quietly; an unrecognised one
    // also falls back to the default, but never without a word.
    assert_eq!(resolve_engine(None), (Engine::Lanes, None));
    assert_eq!(resolve_engine(Some("walk")), (Engine::Walk, None));
    let (engine, warning) = resolve_engine(Some("llvm"));
    assert_eq!(engine, Engine::Lanes);
    let warning = warning.expect("an unrecognised engine name is reported");
    assert!(
        warning.contains("BOP_SIM_ENGINE=\"llvm\"") && warning.contains("using lanes"),
        "{warning}"
    );
    // The BOP_SIM_STEP_LIMIT value syntax.
    assert_eq!(parse_step_limit("1000"), Some(1000));
    assert_eq!(parse_step_limit(" 0 "), Some(0));
    assert_eq!(parse_step_limit("-3"), None);
    assert_eq!(parse_step_limit("lots"), None);
}

#[test]
fn step_limit_traps_runaway_kernels_and_lifts_on_raise() {
    let build = |limit: Option<u64>| {
        let mut b = Accelerator::builder(devices::gpu())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(48);
        if let Some(l) = limit {
            b = b.step_limit(l);
        }
        b.build().expect("builds")
    };
    let options = [OptionParams::example(); 2];

    // A 48-step lattice runs far more than 100 instructions per group:
    // the tight budget must fail the run with the typed trap, not hang
    // or panic.
    let err = build(Some(100)).price(&options).expect_err("budget must trap");
    assert!(
        err.to_string().contains("instruction budget exhausted"),
        "step-limit trap is typed and named: {err}"
    );

    // Raising the budget (and the interpreter default, limit 0) lets the
    // same workload through, with identical prices.
    let raised = build(Some(50_000_000)).price(&options).expect("raised budget passes");
    let default = build(None).price(&options).expect("default budget passes");
    assert_eq!(raised.prices, default.prices, "the budget is a wall-clock knob only");

    // Both engines enforce the same budget semantics.
    let walk_err = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(48)
        .engine(Engine::Walk)
        .step_limit(100)
        .build()
        .expect("builds")
        .price(&options)
        .expect_err("walker traps too");
    assert_eq!(err.to_string(), walk_err.to_string(), "identical trap report on both engines");
}

#[test]
fn accelerator_engine_knob_is_wall_clock_only() {
    let price = |engine: Option<Engine>| {
        let mut b = Accelerator::builder(devices::fpga())
            .arch(KernelArch::Optimized)
            .precision(Precision::Double)
            .n_steps(32);
        if let Some(e) = engine {
            b = b.engine(e);
        }
        b.build().expect("builds").price(&[OptionParams::example(); 4]).expect("prices")
    };
    let walk = price(Some(Engine::Walk));
    let lanes = price(Some(Engine::Lanes));
    let auto = price(None);
    assert_eq!(walk.prices, lanes.prices, "prices independent of engine");
    assert_eq!(walk.elapsed_s, lanes.elapsed_s, "simulated time independent of engine");
    assert_eq!(auto.prices, lanes.prices, "default engine gives the same prices");
    assert_eq!(auto.elapsed_s, lanes.elapsed_s, "default engine gives the same simulated time");
}

#[test]
fn pass_corrupted_ir_surfaces_as_a_structured_build_error() {
    // An empty kernel function is invalid IR (the verifier rejects
    // block-less functions); feeding it through the program build must
    // produce a typed error whose source chain reaches the verifier —
    // not a panic, not a bare string.
    use bop_clir::ir::{Function, Module};
    let module = Module::from_functions(
        "broken.cl",
        vec![Function {
            name: "empty".into(),
            params: vec![],
            is_kernel: true,
            reg_types: vec![],
            blocks: vec![],
            private_bytes: 0,
        }],
    );
    let ctx = Context::new(devices::gpu());
    let build_err = match Program::from_module(&ctx, Arc::new(module), &BuildOptions::default()) {
        Err(e) => e,
        Ok(_) => panic!("invalid IR must not build"),
    };
    assert!(
        build_err.message.contains("pass pipeline produced invalid IR"),
        "message names the pipeline: {}",
        build_err.message
    );
    let source = std::error::Error::source(&build_err).expect("source chain present");
    let verify = source
        .downcast_ref::<bop_clir::verify::VerifyError>()
        .expect("source is the verifier error");
    assert!(matches!(verify, bop_clir::verify::VerifyError::Empty { .. }));

    // And it maps into the crate-level error as Error::Build, keeping
    // the chain.
    let core_err = bop_core::Error::from(build_err);
    match core_err {
        bop_core::Error::Build(e) => {
            assert!(std::error::Error::source(&e).is_some(), "chain survives the wrap");
        }
        other => panic!("expected Error::Build, got {other}"),
    }
}

#[test]
fn compile_metrics_and_pass_report_are_published() {
    let metrics = Arc::new(bop_obs::MetricsRegistry::new());
    let acc = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(16)
        .metrics(metrics.clone())
        .build()
        .expect("builds");

    // Compilation happened exactly once, timed end to end.
    let labels = [("device", "GPU")];
    for name in [
        "compile.frontend_seconds",
        "compile.passes_seconds",
        "compile.device_seconds",
        "compile.bytecode_seconds",
        "compile.total_seconds",
    ] {
        let h = metrics.histogram(name, &labels).unwrap_or_else(|| panic!("{name} published"));
        assert_eq!(h.count, 1, "{name} observed once");
    }

    // The build report carries the pass pipeline statistics.
    let report = acc.program().report();
    let passes = report.passes.expect("report carries pass stats");
    assert_eq!(passes.pipeline, acc.program().pass_report().pipeline);
    assert_eq!(passes.pipeline, "ssa", "default build runs the SSA pipeline");
    assert!(!passes.passes.is_empty(), "ssa pipeline ran at least one pass");
}

#[test]
fn pooled_shards_share_one_compiled_program() {
    let pool = Accelerator::builder(devices::gpu())
        .arch(KernelArch::Optimized)
        .precision(Precision::Double)
        .n_steps(16)
        .build_pool(3)
        .expect("pool builds");
    assert_eq!(pool.len(), 3);
    let name = KernelArch::Optimized.kernel_name();
    let first = pool[0].program().compiled_kernel(name).expect("kernel compiled");
    for shard in &pool[1..] {
        let other = shard.program().compiled_kernel(name).expect("kernel compiled");
        assert!(Arc::ptr_eq(first, other), "shards share the cached bytecode");
        assert!(
            Arc::ptr_eq(pool[0].program().module(), shard.program().module()),
            "shards share the compiled module"
        );
    }
    // Shared programs still price independently and identically.
    let options = [OptionParams::example(); 3];
    let a = pool[0].price(&options).expect("prices");
    let b = pool[2].price(&options).expect("prices");
    assert_eq!(a.prices, b.prices);
}

/// An IV.B-shaped triangle: row `r` of a work-group iterates levels
/// `t = top-1` down to `r`, two barriers per level, so one row retires
/// per level and the last group standing releases its barriers in
/// place. `mirror` puts row `r` on lane `w-1-r`, so the low lanes retire
/// first; `src[2j + r]` at level `j = top-1-t` runs out of bounds once
/// `2j + r` reaches the buffer length; `split > 1` splits the lanes
/// before each level's first barrier; at `t == diverge_at`, row 0 takes
/// a barrier of its own.
const TRIANGLE: &str = "__kernel void tri(__global double* out, __global const double* src,
                  __local double* v, int top, int mirror, int split, int diverge_at) {
    long n = get_local_size(0);
    long l = get_local_id(0);
    long row = l;
    if (mirror != 0) {
        row = n - 1 - l;
    }
    v[l] = 0.25 * (double)l;
    barrier(CLK_LOCAL_MEM_FENCE);
    double acc = 1.0;
    for (long t = (long)top - 1; t >= row; t--) {
        long j = (long)top - 1 - t;
        double up = v[(l + 1) % n];
        double here = v[l];
        if ((l + j) % (long)split == 0) {
            acc = acc * 0.5 + src[2 * j + row];
        } else {
            acc = acc - src[2 * j + row];
        }
        barrier(CLK_LOCAL_MEM_FENCE);
        double next = fmax(0.5 * (up + here), acc);
        if (t == (long)diverge_at && row == 0) {
            v[l] = next;
            barrier(CLK_LOCAL_MEM_FENCE);
        } else {
            v[l] = next;
            barrier(CLK_LOCAL_MEM_FENCE);
        }
    }
    out[get_global_id(0)] = v[l] + acc;
}";

/// Work-groups per triangle launch.
const TRI_GROUPS: usize = 2;

/// One launch of [`TRIANGLE`].
#[derive(Debug, Clone, Copy)]
struct Triangle {
    local: usize,
    top: i32,
    mirror: bool,
    split: i32,
    diverge_at: i32,
    src_len: usize,
}

impl Triangle {
    /// The full triangle at `local` lanes (at least four levels), with
    /// no split, no divergence and an in-bounds `src`.
    fn ivb(local: usize, mirror: bool) -> Triangle {
        let top = (local as i32 - 1).max(4);
        Triangle { local, top, mirror, split: 1, diverge_at: -1, src_len: 2 * top as usize + 2 }
    }

    fn src(&self) -> Vec<f64> {
        (0..self.src_len).map(|i| 0.125 * i as f64 - 0.5).collect()
    }
}

/// Output bits or the exact error, kernel stats, counters, simulated time.
type Launch = (
    Result<Vec<u64>, String>,
    Option<bop_clir::stats::ExecStats>,
    bop_ocl::queue::QueueCounters,
    f64,
);

fn launch_triangle(tri: Triangle, engine: Engine, workers: usize, step_limit: u64) -> Launch {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.set_engine(engine);
    queue.set_step_limit(step_limit);
    let program = Program::from_source(&ctx, "tri.cl", TRIANGLE, &BuildOptions::default())
        .expect("kernel builds");
    let kernel = program.kernel("tri").expect("kernel tri");
    let n = tri.local * TRI_GROUPS;
    let out = ctx.create_buffer(8 * n);
    let src = ctx.create_buffer(8 * tri.src_len);
    queue.enqueue_write_f64(&src, &tri.src()).expect("write");
    kernel.set_arg_buffer(0, &out);
    kernel.set_arg_buffer(1, &src);
    kernel.set_arg_local(2, 8 * tri.local);
    kernel.set_arg_i32(3, tri.top);
    kernel.set_arg_i32(4, tri.mirror as i32);
    kernel.set_arg_i32(5, tri.split);
    kernel.set_arg_i32(6, tri.diverge_at);
    let launched = queue
        .enqueue_nd_range(&kernel, bop_ocl::Dispatch::new(n, tri.local))
        .map_err(|e| format!("{e:?}"));
    let out = launched.map(|_| {
        let mut vals = vec![0.0f64; n];
        queue.enqueue_read_f64(&out, &mut vals).expect("read");
        vals.iter().map(|v| v.to_bits()).collect()
    });
    (out, queue.kernel_stats("tri"), queue.counters(), queue.elapsed_s())
}

/// Group 0 of `tri` on the tree-walker outside the runtime, keeping the
/// statistics of a failed run (releases done, for instance).
fn walk_triangle_group(
    tri: Triangle,
    step_limit: u64,
) -> (Result<(), bop_clir::interp::ExecError>, bop_clir::stats::ExecStats) {
    use bop_clir::interp::{GroupShape, KernelArgValue as Arg, VecMemory, WorkGroupRun};
    use bop_clir::Value;
    let ctx = Context::new(devices::gpu());
    let program = Program::from_source(&ctx, "tri.cl", TRIANGLE, &BuildOptions::default())
        .expect("kernel builds");
    let func = program.module().kernel("tri").expect("kernel tri");
    let mut mem = VecMemory::new();
    let out = mem.alloc_global(8 * tri.local * TRI_GROUPS);
    let src = mem.alloc_global(8 * tri.src_len);
    for (i, x) in tri.src().into_iter().enumerate() {
        mem.write_f64(src, i, x);
    }
    let v = mem.alloc_local(8 * tri.local);
    let int = |x: i32| Arg::Scalar(Value::I32(x));
    let args = [
        Arg::GlobalBuffer(out),
        Arg::GlobalBuffer(src),
        Arg::LocalBuffer(v),
        int(tri.top),
        int(tri.mirror as i32),
        int(tri.split),
        int(tri.diverge_at),
    ];
    let shape = GroupShape::linear(tri.local * TRI_GROUPS, tri.local, 0);
    let mut run = WorkGroupRun::new(func, shape, &args, step_limit).expect("args bind");
    let res = run.run(&mut mem, &bop_clir::mathlib::ExactMath);
    (res, run.into_stats())
}

/// The least budget in `lo..=hi` for which `holds` (monotone, true at
/// `hi`) is true.
fn least_budget(mut lo: u64, mut hi: u64, holds: impl Fn(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if holds(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// At each step budget (0: the default), both engines at 1 and 3
/// workers give the walker's single-worker outcome: the same error
/// payload, or the same output bits, stats, counters and simulated time.
/// Returns the walker's outcomes.
fn assert_triangle_matches_walker(tri: Triangle, budgets: &[u64]) -> Vec<Launch> {
    budgets
        .iter()
        .map(|&b| {
            let reference = launch_triangle(tri, Engine::Walk, 1, b);
            for (engine, workers) in [(Engine::Walk, 3), (Engine::Lanes, 1), (Engine::Lanes, 3)] {
                assert_eq!(
                    launch_triangle(tri, engine, workers, b),
                    reference,
                    "{tri:?}, budget {b}: {engine} engine, {workers} worker(s)"
                );
            }
            reference
        })
        .collect()
}

#[test]
fn in_place_barrier_releases_match_the_walker_on_ivb_shaped_triangles() {
    for local in [1, 2, 65, 1024] {
        // `split` 3 divides each level's first phase into two groups, so
        // that barrier takes the general release and the second one the
        // in-place release. The 1024-lane cases are the expensive ones.
        let shapes: &[(bool, i32)] = if local == 1024 {
            &[(false, 1), (true, 3)]
        } else {
            &[(false, 1), (true, 1), (false, 3), (true, 3)]
        };
        for &(mirror, split) in shapes {
            let tri = Triangle { split, ..Triangle::ivb(local, mirror) };
            let (out, stats, ..) = &assert_triangle_matches_walker(tri, &[0])[0];
            assert!(out.is_ok(), "{tri:?}: {out:?}");
            let barriers = stats.as_ref().expect("launch recorded stats").barriers;
            assert_eq!(barriers, (TRI_GROUPS * (1 + 2 * tri.top as usize)) as u64, "{tri:?}");
        }
    }
}

#[test]
fn a_trap_after_in_place_releases_reports_the_walker_payload() {
    for local in [1, 2, 65, 1024] {
        for mirror in [false, true] {
            // `src` ends where level 3's top row reads: an out-of-bounds
            // load after seven releases. The least budget that reaches
            // the trap separates it from the step-limit trap; with
            // `mirror`, lanes retired before the last release precede the
            // trapping lane, so a settlement that replays them runs out
            // of budget first.
            let full = Triangle::ivb(local, mirror);
            let tri = Triangle { src_len: full.top as usize + 2, ..full };
            let reach = least_budget(1, 1 << 40, |b| {
                matches!(walk_triangle_group(tri, b).0, Err(bop_clir::interp::ExecError::Mem(_)))
            });
            let outcomes = assert_triangle_matches_walker(tri, &[reach - 1, reach, 0]);
            let msgs: Vec<&String> = outcomes.iter().map(|o| o.0.as_ref().unwrap_err()).collect();
            assert!(msgs[0].contains("StepLimitExceeded"), "{tri:?}: {}", msgs[0]);
            for msg in &msgs[1..] {
                assert!(msg.contains("out of bounds"), "{tri:?}: {msg}");
            }
        }
    }
}

#[test]
fn step_limit_exhausted_at_an_in_place_release_matches_the_walker() {
    for local in [1, 2, 65, 1024] {
        // At most 16 levels keeps the walker's budget search cheap.
        let full = Triangle::ivb(local, false);
        let tri = Triangle { top: full.top.min(16), ..full };
        let releases = 1 + 2 * tri.top as u64;
        // The least budget that completes the k-th release is exactly
        // the steps up to it: with one step less, that release is the
        // one that runs out.
        let mut budgets = Vec::new();
        for k in [1, 2, 3, 4, 5, releases] {
            let at = least_budget(1, 1 << 40, |b| walk_triangle_group(tri, b).1.barriers >= k);
            budgets.extend([at - 1, at]);
        }
        let total = least_budget(1, 1 << 40, |b| walk_triangle_group(tri, b).0.is_ok());
        budgets.extend([total - 1, total]);
        let outcomes = assert_triangle_matches_walker(tri, &budgets);
        let ok: Vec<bool> = outcomes.iter().map(|o| o.0.is_ok()).collect();
        let mut want = vec![false; budgets.len()];
        *want.last_mut().expect("budgets") = true;
        assert_eq!(ok, want, "{tri:?} at budgets {budgets:?}");
    }
}

#[test]
fn barrier_divergence_after_in_place_releases_reports_the_walker_positions() {
    for local in [1, 2, 65, 1024] {
        for mirror in [false, true] {
            // Row 0 leaves by a barrier of its own at level 1, after four
            // releases; a lone lane has nobody to diverge from.
            let full = Triangle::ivb(local, mirror);
            let tri = Triangle { diverge_at: full.top - 2, ..full };
            let outcome = &assert_triangle_matches_walker(tri, &[0])[0].0;
            match outcome {
                Ok(_) => assert_eq!(local, 1, "{tri:?}"),
                Err(msg) => assert!(msg.contains("BarrierDivergence"), "{tri:?}: {msg}"),
            }
        }
    }
}
