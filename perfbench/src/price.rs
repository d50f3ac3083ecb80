//! `price_ivb` / `price_ivc`: one closed-loop caller pricing 12-option
//! volatility curves at the paper's lattice size on the FPGA model.
//!
//! Why these workloads: kernel IV.B runs 1024-wide work-groups with
//! barriers and IV.C runs single-work-item tasks joined by a pipe under
//! the launch-graph co-scheduler, so the two stress the `clir` engines
//! and the `ocl` runtime in different ways while the serving layer is
//! bypassed. Each run also yields its kernel's Table II row.

use crate::layers::{self, Measured, ServeLayers, Tally};
use crate::report::{Clock, Report};
use crate::spans::{Parent, Spans};
use crate::speed::{self, Scaled};
use crate::stats::{median, process_cpu_s, supported_tail};
use crate::Args;
use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::streaming::StreamingHost;
use bop_core::perfmodel::CALIBRATION_STEPS;
use bop_core::{Accelerator, KernelArch, Precision};
use bop_finance::binomial::price_american_f64;
use bop_finance::workload::{volatility_curve, WorkloadConfig};
use bop_finance::OptionParams;
use bop_ocl::{CommandQueue, Context, Program};
use std::time::Instant;

/// The paper's lattice: 1024 leaf rows, 1023 induction steps.
const STEPS: usize = 1023;
/// Options per call: Table II's RMSE batch shape.
const OPTIONS: usize = 12;
/// Batch size of the Table II throughput projection.
const PROJECTED: usize = 10_000;
/// Seed of Table II's RMSE batch.
const TABLE2_SEED: u64 = 2014;
/// Largest absolute price error accepted against the host CRR reference.
const MAX_ABS_ERROR: f64 = 1e-3;
/// Accelerator builds per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Fewest timed calls a run makes, whatever its budget.
const MIN_CALLS: usize = 3;

fn build(arch: KernelArch) -> Result<Accelerator, bop_core::Error> {
    Accelerator::builder(bop_core::devices::fpga())
        .arch(arch)
        .precision(Precision::Double)
        .n_steps(STEPS)
        .build()
}

/// The inputs of timed call `call`: a fresh curve per call, derived from
/// the seed only.
fn curve(seed: u64, call: u64) -> Vec<OptionParams> {
    volatility_curve(
        &WorkloadConfig::default(),
        1.0,
        OPTIONS,
        seed.wrapping_mul(1_000_003).wrapping_add(call),
    )
}

fn reference(options: &[OptionParams]) -> Vec<f64> {
    options.iter().map(|o| price_american_f64(o, STEPS)).collect()
}

fn max_abs_error(prices: &[f64], reference: &[f64]) -> f64 {
    prices.iter().zip(reference).map(|(p, r)| (p - r).abs()).fold(0.0, f64::max)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Run the workload for `arch` (IV.B `Optimized` or IV.C `Streaming`).
pub fn run(
    arch: KernelArch,
    args: &Args,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), bop_core::Error> {
    if args.trace {
        return run_traced(arch, args, spans, report);
    }
    let mut setups = Scaled::start();
    let mut accs = Vec::with_capacity(2);
    for _ in 0..SETUP_REPS {
        let c = process_cpu_s();
        let acc = build(arch)?;
        setups.push_time(process_cpu_s() - c);
        if accs.len() < 2 {
            accs.push(acc);
        }
    }
    let acc = &accs[0];

    // Warm-up call on Table II's RMSE batch, which also gives `rmse`.
    let table2 = volatility_curve(&WorkloadConfig::default(), 1.0, OPTIONS, TABLE2_SEED);
    let table2_ref = reference(&table2);
    let table2_run = acc.price(&table2)?;
    report.check(table2_run.prices.len() == OPTIONS, || "Table II batch lost options".into());
    let rmse = bop_finance::rmse(&table2_run.prices, &table2_ref);
    report.check(max_abs_error(&table2_run.prices, &table2_ref) <= MAX_ABS_ERROR, || {
        format!("Table II batch off the CRR reference by more than {MAX_ABS_ERROR}")
    });

    // Timed closed loop: one caller, next call when the last returns.
    let (mut call_s, mut call_cpu_s) = (Vec::new(), Vec::new());
    let mut rates = Scaled::start();
    let (mut options, mut joules) = (0usize, 0.0);
    let mut first_batch = None;
    let loop_start = Instant::now();
    while call_s.len() < MIN_CALLS || loop_start.elapsed().as_secs_f64() < args.seconds {
        let batch = curve(args.seed, call_s.len() as u64);
        assert_eq!(batch.len(), OPTIONS, "every call prices its stated option count");
        report.attempted += 1;
        let (c, t) = (process_cpu_s(), Instant::now());
        let run = acc.price(std::hint::black_box(&batch));
        call_s.push(t.elapsed().as_secs_f64());
        call_cpu_s.push(process_cpu_s() - c);
        rates.push(OPTIONS as f64 / call_cpu_s[call_cpu_s.len() - 1]);
        let run = match run {
            Ok(run) => run,
            Err(e) => {
                report.failed += 1;
                report.fail(format!("call {} failed: {e}", call_s.len() - 1));
                continue;
            }
        };
        let err = max_abs_error(&run.prices, &reference(&batch));
        report.check(run.prices.len() == OPTIONS && err <= MAX_ABS_ERROR, || {
            format!(
                "call {}: {} prices, max error {err:e} vs CRR",
                call_s.len() - 1,
                run.prices.len()
            )
        });
        options += run.prices.len();
        joules += run.joules;
        first_batch.get_or_insert((batch, run.prices));
    }
    let loop_s = loop_start.elapsed().as_secs_f64();

    // Table II projection, twice on separately built accelerators: the
    // simulated clock must repeat bit for bit.
    let p1 = accs[0].project(PROJECTED)?;
    let p2 = accs[1].project(PROJECTED)?;
    report.check(
        p1.options_per_s.to_bits() == p2.options_per_s.to_bits()
            && p1.options_per_j.to_bits() == p2.options_per_j.to_bits(),
        || "Table II projection differs between two builds".into(),
    );

    if arch == KernelArch::Streaming {
        // IV.C and IV.B share the device math: their prices must agree bit
        // for bit on the same inputs.
        let ivb = build(KernelArch::Optimized)?;
        report.check(same_bits(&ivb.price(&table2)?.prices, &table2_run.prices), || {
            "IV.C and IV.B prices differ on the Table II batch".into()
        });
        if let Some((batch, prices)) = &first_batch {
            report.check(same_bits(&ivb.price(batch)?.prices, prices), || {
                "IV.C and IV.B prices differ on the first timed batch".into()
            });
        }
    }

    // A run makes tens of calls, so its tail is the highest percentile with
    // ten calls beyond it, not a p99 no sample of this size supports.
    let (tail, share) = supported_tail(&call_s, 0.99, 10);
    println!(
        "  {} calls x {OPTIONS} options at {STEPS} steps in {loop_s:.3} s (closed loop, 1 caller): median {:.3} ms, p{:.0} {:.3} ms; median {:.3} ms of process CPU time, {:.3} options per CPU second ({:.3} scaled to the nominal host; speed reference {:.3} ms, nominal {:.3} ms)",
        call_s.len(),
        1e3 * median(&call_s),
        100.0 * share,
        1e3 * tail,
        1e3 * median(&call_cpu_s),
        rates.median_raw(),
        rates.median(),
        1e3 * rates.median_reference_s(),
        1e3 * speed::NOMINAL_S,
    );
    println!(
        "  set-up: median {:.3} ms of process CPU time over {SETUP_REPS} accelerator builds",
        1e3 * setups.median_raw_time()
    );
    report.metric("setup_s", setups.median_time(), "s", Clock::Cpu);
    report.metric("serve_options_per_j", options as f64 / joules, "options/J", Clock::Sim);
    report.metric("host_options_per_s", rates.median(), "options/s", Clock::Cpu);
    report.metric("sim_options_per_s", p1.options_per_s, "options/s", Clock::Sim);
    report.metric("sim_options_per_j", p1.options_per_j, "options/J", Clock::Sim);
    report.metric("rmse", rmse, "price", Clock::Sim);
    Ok(())
}

/// The kernels a session of `arch` launches.
fn kernels(arch: KernelArch) -> Vec<&'static str> {
    match arch {
        KernelArch::Streaming => vec![KernelArch::STREAMING_PRODUCER, arch.kernel_name()],
        _ => vec![arch.kernel_name()],
    }
}

/// Price `options` through the host program of `arch` on `queue`.
fn host_run(
    arch: KernelArch,
    ctx: &std::sync::Arc<Context>,
    queue: &CommandQueue,
    program: &Program,
    options: &[OptionParams],
) -> Result<Vec<f64>, bop_ocl::queue::RuntimeError> {
    match arch {
        KernelArch::Streaming => StreamingHost { n_steps: STEPS, precision: Precision::Double }
            .run(ctx, queue, program, options),
        _ => OptimizedHost {
            n_steps: STEPS,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(ctx, queue, program, options),
    }
}

fn run_traced(
    arch: KernelArch,
    args: &Args,
    spans: &Spans,
    report: &mut Report,
) -> Result<(), bop_core::Error> {
    let device = bop_core::devices::fpga();
    let main = Parent::root("main");
    let (program, acc, projection) = spans.span(main, "setup", 0, |p| {
        let program = spans.span(p, "clc.compile", 0, |_| {
            let ctx = Context::new(device.clone());
            let source = arch.source_sized(Precision::Double, STEPS.max(CALIBRATION_STEPS[2]));
            Program::from_source(&ctx, "kernel.cl", &source, &arch.paper_build_options())
        });
        let acc = spans.span(p, "core.build", 0, |_| build(arch));
        let projection = match &acc {
            Ok(acc) => Some(spans.span(p, "core.project", 0, |_| acc.project(PROJECTED))),
            Err(_) => None,
        };
        (program, acc, projection)
    });
    let program = program?;
    let acc = acc?;
    let projection = projection.expect("built accelerator projects")?;

    // Each call prices one curve three ways: `Accelerator::price` with no
    // span around it (the untraced baseline), `Accelerator::price` inside
    // a span, and the same batch decomposed into a harness-owned session,
    // the host program and the host reference. Even calls run the
    // baseline first and odd calls last, so drift cancels in the ratios.
    let mut tally = Tally::default();
    let mut untraced_s = 0.0;
    let mut call = 0u64;
    let budget = Instant::now();
    while call < 2 || budget.elapsed().as_secs_f64() < args.seconds {
        let batch = curve(args.seed, call);
        assert_eq!(batch.len(), OPTIONS, "every call prices its stated option count");
        let mut untraced = || -> Result<(), bop_core::Error> {
            let t = Instant::now();
            acc.price(&batch)?;
            untraced_s += t.elapsed().as_secs_f64();
            Ok(())
        };
        if call.is_multiple_of(2) {
            untraced()?;
        }
        report.attempted += 1;
        spans.span(main, "call", call, |p| -> Result<(), bop_core::Error> {
            let priced = |p| spans.span(p, "core.price_call", call, |_| acc.price(&batch));
            let run = if call.is_multiple_of(2) { Some(priced(p)?) } else { None };
            let (ctx, queue) = spans.span(p, "ocl.session", call, |_| {
                let ctx = Context::new(device.clone());
                let queue = CommandQueue::new(&ctx);
                (ctx, queue)
            });
            let prices = spans.span(p, "ocl.hostprog", call, |_| {
                host_run(arch, &ctx, &queue, &program, &batch)
            })?;
            let reference = spans.span(p, "finance.reference", call, |_| reference(&batch));
            let run = match run {
                Some(run) => run,
                None => priced(p)?,
            };
            spans.span(p, "harness.check", call, |_| {
                tally.add_session(&queue, &kernels(arch));
                report.check(same_bits(&prices, &run.prices), || {
                    format!("call {call}: harness session and Accelerator::price disagree")
                });
                let err = max_abs_error(&prices, &reference);
                report.check(err <= MAX_ABS_ERROR, || {
                    format!("call {call}: max error {err:e} vs CRR")
                });
            });
            Ok(())
        })?;
        if !call.is_multiple_of(2) {
            untraced()?;
        }
        call += 1;
    }

    let traced_s = spans.total_s("core.price_call");
    println!(
        "  {call} calls x {OPTIONS} options at {STEPS} steps, each untraced, traced and decomposed"
    );
    layers::emit(
        report,
        spans,
        &Measured {
            tally,
            kernels_compiled: 1,
            build: &program.report(),
            projected_s_per_option: projection.elapsed_s / projection.n_options as f64,
            serve: ServeLayers::default(),
            trace_overhead: traced_s / untraced_s,
            unattributed_share: spans.unattributed_share("main"),
        },
    );
    Ok(())
}
