//! Property tests: pipe (on-chip FIFO) semantics are deterministic and
//! engine-independent.
//!
//! Strategy: generate random producer/consumer task pairs — random FIFO
//! depth, mismatched read/write counts (an excess of reads can never be
//! satisfied and must hit the deadlock trap), bursty write patterns that
//! force depth-full stalls, optional tiny step budgets and optional
//! seeded fault plans — then run the pair as one launch graph on every
//! engine at several worker counts. Whatever happens — values, stall
//! counters, queue counters, the simulated clock, a deadlock trap, a
//! step-budget trip or an injected fault — must be bit-identical across
//! walk and lanes, and no case may hang.

use bop_core::devices;
use bop_ocl::device::Dispatch;
use bop_ocl::queue::QueueCounters;
use bop_ocl::{BuildOptions, CommandQueue, Context, Engine, FaultPlan, Program};
use proptest::prelude::*;

/// One randomly generated pipe pair + launch configuration.
#[derive(Debug, Clone)]
struct Case {
    /// FIFO depth (1..=8 keeps depth-full stalls frequent).
    depth: usize,
    /// Values the producer writes.
    writes: usize,
    /// Values the consumer reads; more reads than writes deadlocks.
    reads: usize,
    /// Writes per burst before the producer does filler arithmetic —
    /// varies the interleaving the round-robin scheduler sees.
    burst: usize,
    /// Arithmetic constant for the streamed values.
    c: f64,
    /// Consumer listed before producer in the graph.
    consumer_first: bool,
    /// Step budget for the whole graph (`None` = default 2e9).
    step_limit: Option<u64>,
}

fn case_strategy() -> impl Strategy<Value = Case> {
    (
        1usize..=8,
        0usize..=24,
        0usize..=28,
        1usize..=5,
        -2.0..2.0f64,
        any::<bool>(),
        prop_oneof![3 => Just(None), 1 => Just(Some(150u64))],
    )
        .prop_map(|(depth, writes, reads, burst, c, consumer_first, step_limit)| Case {
            depth,
            writes,
            reads,
            burst,
            c,
            consumer_first,
            step_limit,
        })
}

impl Case {
    fn source(&self) -> String {
        let Case { writes, reads, burst, c, .. } = self;
        format!(
            "__kernel void produce(pipe double ch, __global double* side) {{
                double filler = 0.0;
                for (int i = 0; i < {writes}; i++) {{
                    write_pipe(ch, (double)i * {c:?} + 0.5);
                    if (i % {burst} == 0) {{
                        filler = filler + (double)i * 0.25;
                    }}
                }}
                side[0] = filler;
            }}
            __kernel void consume(pipe double ch, __global double* out) {{
                double acc = 0.0;
                for (int i = 0; i < {reads}; i++) {{
                    double v = read_pipe(ch);
                    acc = acc * 0.5 + v;
                    out[i] = v;
                }}
                out[{reads}] = acc;
            }}"
        )
    }

    /// More reads than writes can never be satisfied.
    fn deadlocks(&self) -> bool {
        self.reads > self.writes
    }
}

/// Everything one graph run observes.
#[derive(Debug, Clone, PartialEq)]
struct Outcome {
    result: Result<Vec<u64>, String>,
    producer_stats: Option<bop_clir::stats::ExecStats>,
    consumer_stats: Option<bop_clir::stats::ExecStats>,
    counters: QueueCounters,
    sim_s: f64,
}

fn run_case(case: &Case, engine: Engine, workers: usize, plan: Option<&FaultPlan>) -> Outcome {
    let ctx = Context::new(devices::fpga());
    let queue = CommandQueue::new(&ctx);
    queue.set_engine(engine);
    queue.set_workers(workers);
    if let Some(limit) = case.step_limit {
        queue.set_step_limit(limit);
    }
    if let Some(p) = plan {
        queue.set_fault_plan(p.clone());
    }
    let program = Program::from_source(&ctx, "pair.cl", &case.source(), &BuildOptions::default())
        .expect("generated pair compiles");
    let pipe = ctx.create_pipe(bop_clir::types::ScalarType::F64, case.depth);
    let side = ctx.create_buffer(8);
    let out = ctx.create_buffer(8 * (case.reads + 1));

    let produce = program.kernel("produce").expect("kernel");
    produce.set_arg_pipe(0, &pipe);
    produce.set_arg_buffer(1, &side);
    let consume = program.kernel("consume").expect("kernel");
    consume.set_arg_pipe(0, &pipe);
    consume.set_arg_buffer(1, &out);

    let result = (|| -> Result<Vec<u64>, String> {
        let d = Dispatch::new(1, 1);
        let graph: [(&bop_ocl::Kernel, Dispatch); 2] = if case.consumer_first {
            [(&consume, d), (&produce, d)]
        } else {
            [(&produce, d), (&consume, d)]
        };
        queue.enqueue_launch_graph(&graph).map_err(|e| e.to_string())?;
        let mut values = vec![0.0f64; case.reads + 1];
        queue.enqueue_read_f64(&out, &mut values).map_err(|e| e.to_string())?;
        // Compare bit patterns so NaNs cannot mask a divergence.
        Ok(values.iter().map(|v| v.to_bits()).collect())
    })();
    queue.finish();
    Outcome {
        result,
        producer_stats: queue.kernel_stats("produce"),
        consumer_stats: queue.kernel_stats("consume"),
        counters: queue.counters(),
        sim_s: queue.elapsed_s(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random pipe interleavings terminate on every engine with the
    /// identical outcome: values, per-kernel stats (stalls included),
    /// queue counters and the simulated clock — or the identical trap.
    #[test]
    fn engines_bit_identical_on_random_pipe_pairs(case in case_strategy()) {
        let reference = run_case(&case, Engine::Walk, 1, None);
        match &reference.result {
            Err(msg) => prop_assert!(
                msg.contains("pipe deadlock") || msg.contains("instruction budget exhausted"),
                "only a deadlock or budget trip may fail a fault-free case: `{}` for {:?}",
                msg,
                &case
            ),
            Ok(_) => prop_assert!(
                !case.deadlocks(),
                "an unsatisfiable read count must deadlock: {:?}",
                &case
            ),
        }
        if case.deadlocks() && case.step_limit.is_none() {
            let msg = reference.result.as_ref().unwrap_err();
            prop_assert!(msg.contains("pipe deadlock"), "unexpected payload `{}`", msg);
        }
        for engine in [Engine::Walk, Engine::Lanes] {
            for workers in [1usize, 3] {
                let got = run_case(&case, engine, workers, None);
                let what = format!("{engine} engine, {workers} worker(s), case {case:?}");
                prop_assert_eq!(&got, &reference, "outcome differs: {}", &what);
            }
        }
    }

    /// Under a seeded fault plan the faults are a deterministic function
    /// of the launch sequence, so the pipe pair still observes the
    /// identical outcome on every engine.
    #[test]
    fn pipe_pairs_bit_identical_under_seeded_faults(
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
                prop_assert_eq!(&got, &reference, "faulty outcome differs: {}", &what);
            }
        }
    }
}
