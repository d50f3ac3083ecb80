//! Property tests: the two execution engines (the tree-walker and the
//! compiled, lane-vectorized SIMT engine) are observationally identical.
//!
//! Strategy: generate random branchy work-group kernels — divergent
//! control flow keyed on the local id, multiply-assigned locals that
//! `mem2reg` promotes through phi nodes, barrier-separated local-memory
//! traffic, and an optional integer-division trap — then run them
//! through the full OpenCL-style runtime on every engine at several
//! worker counts and require bit-identical prices, merged `ExecStats`,
//! `QueueCounters` and the simulated clock (or the identical error, when
//! the kernel traps). A second property repeats the sweep under a seeded
//! `FaultPlan`: injected faults are deterministic in the launch
//! sequence, so they too must not depend on the engine.

use bop_core::devices;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::QueueCounters;
use bop_ocl::{BuildOptions, CommandQueue, Context, Engine, FaultPlan, Program};
use proptest::prelude::*;

/// One randomly generated kernel + launch configuration.
#[derive(Debug, Clone)]
struct Case {
    /// Work-group size (work-items per group).
    w: usize,
    /// Number of work-groups in the dispatch.
    groups: usize,
    /// Barrier-synchronised time steps.
    steps: usize,
    /// Branch divergence shape: lanes with `lid % m < r` take the
    /// then-side.
    m: usize,
    r: usize,
    /// Neighbour offset for the cross-lane local-memory read.
    shift: usize,
    /// Arithmetic constants.
    c1: f64,
    c2: f64,
    /// Lane that attempts the integer division (none if >= w).
    trap_lane: usize,
    /// Divisor for that division; zero traps.
    divisor: i32,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        2usize..=8,
        1usize..=3,
        0usize..=5,
        1usize..=4,
        0usize..=3,
        0usize..=7,
        -2.0..2.0f64,
        -2.0..2.0f64,
        0usize..=12,
        0i32..=2,
    )
        .prop_map(|(w, groups, steps, m, r, shift, c1, c2, trap_lane, divisor)| Case {
            w,
            groups,
            steps,
            m,
            r,
            shift,
            c1,
            c2,
            trap_lane,
            divisor,
        })
}

impl Case {
    /// Render the kernel. `acc` and `j` are multiply-assigned locals
    /// (promoted by mem2reg, merged back through phis at the join
    /// points); the `if`/`else` diverges per lane; the local-memory
    /// round-trip is race-free because barriers separate the write from
    /// the cross-lane read.
    fn source(&self) -> String {
        let Case { w, steps, m, r, shift, c1, c2, trap_lane, .. } = self;
        format!(
            "__kernel void k(__global double* out, __global const double* in,
                             __local double* tmp, int divisor) {{
                int lid = get_local_id(0);
                int gid = get_global_id(0);
                double acc = in[gid];
                int j = 0;
                for (int t = 0; t < {steps}; t++) {{
                    if (lid % {m} < {r}) {{
                        acc = acc * {c1:?} + (double)t;
                        j = j + lid;
                    }} else {{
                        acc = acc - {c2:?};
                        j = j - 1;
                    }}
                    tmp[lid] = acc;
                    barrier(CLK_LOCAL_MEM_FENCE);
                    double nb = tmp[(lid + {shift}) % {w}];
                    barrier(CLK_LOCAL_MEM_FENCE);
                    acc = fmax(acc * 0.5, fmin(nb, acc));
                }}
                if (lid == {trap_lane}) {{
                    j = j / divisor;
                }}
                out[gid] = acc + (double)j;
            }}"
        )
    }

    /// Whether the integer division executes and traps.
    fn traps(&self) -> bool {
        self.trap_lane < self.w && self.divisor == 0
    }
}

/// Everything an engine run observes.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    result: Result<Vec<u64>, String>,
    stats: Option<bop_clir::stats::ExecStats>,
    counters: QueueCounters,
    sim_s: f64,
}

fn run_case(case: &Case, engine: Engine, workers: usize, plan: Option<&FaultPlan>) -> Outcome {
    let ctx = Context::new(devices::gpu());
    let queue = CommandQueue::new(&ctx);
    queue.set_workers(workers);
    queue.set_engine(engine);
    if let Some(p) = plan {
        queue.set_fault_plan(p.clone());
    }
    let program =
        Program::from_source(&ctx, "prop.cl", &case.source(), &BuildOptions::default())
            .expect("generated kernel compiles");
    let kernel = program.kernel("k").expect("kernel k");
    let n = case.w * case.groups;
    let out = ctx.create_buffer(8 * n);
    let input = ctx.create_buffer(8 * n);
    let init: Vec<f64> = (0..n).map(|i| 0.25 * i as f64 - 1.5).collect();
    let result = (|| -> Result<Vec<u64>, String> {
        queue.enqueue_write_f64(&input, &init).map_err(|e| e.to_string())?;
        kernel.set_arg_buffer(0, &out);
        kernel.set_arg_buffer(1, &input);
        kernel.set_arg_local(2, 8 * case.w);
        kernel.set_arg_i32(3, case.divisor);
        queue
            .enqueue_nd_range(&kernel, Dispatch::new(n, case.w))
            .map_err(|e| e.to_string())?;
        let mut prices = vec![0.0f64; n];
        queue.enqueue_read_f64(&out, &mut prices).map_err(|e| e.to_string())?;
        // Compare bit patterns so NaNs cannot mask a divergence.
        Ok(prices.iter().map(|p| p.to_bits()).collect())
    })();
    queue.finish();
    Outcome { result, stats: queue.kernel_stats("k"), counters: queue.counters(), sim_s: queue.elapsed_s() }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Walk and lanes agree bit-for-bit on random branchy
    /// kernels — prices, stats, counters, simulated time — and report
    /// the identical trap when the kernel divides by zero.
    #[test]
    fn engines_bit_identical_on_random_kernels(case in case_strategy()) {
        let reference = run_case(&case, Engine::Walk, 1, None);
        prop_assert_eq!(
            reference.result.is_err(),
            case.traps(),
            "trap prediction for {:?}",
            &case
        );
        if case.traps() {
            let msg = reference.result.as_ref().unwrap_err();
            prop_assert!(
                msg.contains("integer division by zero"),
                "unexpected trap payload `{}`",
                msg
            );
        }
        for engine in [Engine::Walk, Engine::Lanes] {
            for workers in [1usize, 3] {
                let got = run_case(&case, engine, workers, None);
                let what = format!("{engine} engine, {workers} worker(s), case {case:?}");
                prop_assert_eq!(&got.result, &reference.result, "result differs: {}", &what);
                prop_assert_eq!(&got.stats, &reference.stats, "stats differ: {}", &what);
                prop_assert_eq!(&got.counters, &reference.counters, "counters differ: {}", &what);
                prop_assert_eq!(got.sim_s, reference.sim_s, "sim clock differs: {}", &what);
            }
        }
    }

    /// Under a seeded fault plan the injected faults are a deterministic
    /// function of the launch sequence, so every engine still observes
    /// the identical outcome — same results or the same injected error.
    #[test]
    fn engines_bit_identical_under_seeded_faults(
        case in case_strategy(),
        seed in any::<u64>(),
        rate in 0.0..0.6f64,
    ) {
        let plan = FaultPlan::new(rate, seed);
        let reference = run_case(&case, Engine::Walk, 1, Some(&plan));
        for engine in [Engine::Walk, Engine::Lanes] {
            for workers in [1usize, 3] {
                let got = run_case(&case, engine, workers, Some(&plan));
                let what = format!("{engine} engine, {workers} worker(s), case {case:?}");
                prop_assert_eq!(&got.result, &reference.result, "result differs: {}", &what);
                prop_assert_eq!(&got.stats, &reference.stats, "stats differ: {}", &what);
                prop_assert_eq!(&got.counters, &reference.counters, "counters differ: {}", &what);
                prop_assert_eq!(got.sim_s, reference.sim_s, "sim clock differs: {}", &what);
            }
        }
    }
}
