//! `serve_mixed`: an open-loop request stream into a `PricingService`
//! over two FPGA `PayoffSuite` shards at 64 steps.
//!
//! Why this workload: request `i` holds 4 options whose payoff class
//! cycles European / American / barrier / Bermudan by `i mod 4`, and odd
//! requests also ask for Greeks. Consecutive requests never share a class,
//! so every micro-batch is one request of 4 or 20 device options: the
//! serving layer, the per-batch session cost and small work-groups do
//! most of the work, and fixed per-batch costs show.

use crate::layers::{self, Measured, ServeLayers, Tally};
use crate::report::{Clock, Report};
use crate::spans::{Parent, Spans};
use crate::speed::{self, Scaled};
use crate::stats::{mean, median, process_cpu_s, quantile};
use crate::Args;
use bop_core::hostprog::optimized::OptimizedHost;
use bop_core::hostprog::payoff::PayoffHost;
use bop_core::perfmodel::CALIBRATION_STEPS;
use bop_core::{AcceleratorConfig, Error, KernelArch, PayoffSuite, Precision, RiskRequest};
use bop_finance::greeks::bump_scenarios;
use bop_finance::payoff::{price_payoff_f64, BarrierKind, Payoff};
use bop_finance::workload::{volatility_curve, WorkloadConfig};
use bop_finance::OptionParams;
use bop_obs::MetricsRegistry;
use bop_ocl::{CommandQueue, Context, Program};
use bop_serve::{OutputSet, PricingRequest, PricingResponse, PricingService, ServeConfig, Ticket};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Shards in the pool.
pub const SHARDS: usize = 2;
/// Lattice steps of every shard.
const STEPS: usize = 64;
/// Options per request.
const REQUEST_OPTIONS: usize = 4;
/// The fixed offered rate at which latency is reported, requests/s.
const FIXED_RATE: f64 = 100.0;
/// Latency limit of the max-rate search, on the p99.
const LATENCY_LIMIT_S: f64 = 0.050;
/// Ratio between neighbouring rates of the search ladder.
const LADDER_STEP: f64 = 1.05;
/// Ladder rungs: `FIXED_RATE * LADDER_STEP^k` for k in this range (about
/// 20 to 340 requests/s).
const LADDER: (i32, i32) = (-33, 25);
/// Requests of the fixed-rate stream replayed closed-loop per run.
const REPLAYED: usize = 64;
/// Slices of the fixed-rate stream whose p99s `serve_p99_ms` takes the
/// median of.
const P99_WINDOWS: usize = 6;
/// Slices of each search probe, likewise.
const PROBE_WINDOWS: usize = 3;
/// Share of the traced run's budget spent at the fixed rate; the max-rate
/// search gets the rest.
const FIXED_SHARE: f64 = 0.6;
/// Share of the end-to-end run's budget spent at the fixed rate, enough
/// requests to check the served responses and the failure count; the
/// closed-loop replay passes, which give `host_options_per_s`, get the
/// rest, so that their median spans most of the run.
const CHECKED_SHARE: f64 = 0.25;
/// Fewest closed-loop replay passes an end-to-end run makes.
const MIN_REPLAY_PASSES: usize = 3;
/// Pool builds and service starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Seed of the fixed batch that `rmse` is measured on.
const RMSE_SEED: u64 = 2014;
/// Largest absolute price error accepted against the host reference.
const MAX_ABS_ERROR: f64 = 1e-3;
/// Batch size of the throughput projection.
const PROJECTED: usize = 10_000;

fn payoff(i: u64) -> Payoff {
    match i % 4 {
        0 => Payoff::European,
        1 => Payoff::American,
        2 => Payoff::Barrier { kind: BarrierKind::UpAndOut, level: 170.0 },
        _ => Payoff::Bermudan { exercise_every: 4 },
    }
}

/// Request `i` of the stream seeded by `seed`.
fn request(seed: u64, i: u64) -> Vec<PricingRequest> {
    let outputs =
        if i.is_multiple_of(2) { OutputSet::PRICE } else { OutputSet::PRICE | OutputSet::GREEKS };
    volatility_curve(&WorkloadConfig::default(), 1.0, REQUEST_OPTIONS, seed.wrapping_add(i))
        .into_iter()
        .map(|params| PricingRequest { payoff: payoff(i), params, outputs })
        .collect()
}

fn risk(request: &[PricingRequest]) -> Vec<RiskRequest> {
    request
        .iter()
        .map(|r| RiskRequest { params: r.params, payoff: r.payoff, greeks: r.wants_greeks() })
        .collect()
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        queue_capacity: 64,
        max_batch: 32,
        max_linger: Duration::from_micros(500),
        ..ServeConfig::default()
    }
}

/// Build the shard pool and start the service; also returns a suite that
/// shares the pool's compiled programs, for closed-loop replays.
fn start(metrics: &Arc<MetricsRegistry>) -> Result<(PricingService, PayoffSuite), Error> {
    let mut config = AcceleratorConfig::new(bop_core::devices::fpga());
    config.n_steps = STEPS;
    config.metrics = Some(metrics.clone());
    let shards = PayoffSuite::pool(config, SHARDS)?;
    let replay = shards[0].clone();
    let service = PricingService::start_with_metrics(shards, serve_config(), metrics.clone())?;
    Ok((service, replay))
}

/// Outcome counts and latencies of one open-loop stream.
#[derive(Debug, Default)]
struct Load {
    attempted: usize,
    accepted: usize,
    rejected: usize,
    past_deadline: usize,
    errored: usize,
    /// Per attempted request, due time to `Ticket::wait` return, seconds;
    /// infinite for a request that was rejected or failed.
    latency_s: Vec<f64>,
    /// Per submitted request, how late the generator submitted it.
    lag_s: Vec<f64>,
    /// Per submitted request, time inside `PricingService::submit`.
    submit_s: Vec<f64>,
    /// Responses of completed requests, by request index.
    responses: Vec<Option<Vec<PricingResponse>>>,
    /// Completed requests per second from the first due time to the last
    /// completion.
    achieved_rps: f64,
}

impl Load {
    fn failures(&self) -> usize {
        self.rejected + self.past_deadline + self.errored
    }

    /// The median over `windows` consecutive equal slices of the stream of
    /// each slice's exact p99: the tail a typical stretch of the stream
    /// saw. A host stall that lands in one slice moves only that slice.
    fn window_p99(&self, windows: usize) -> f64 {
        let size = self.latency_s.len().div_ceil(windows);
        let p99s: Vec<f64> = self.latency_s.chunks(size).map(|w| quantile(w, 0.99)).collect();
        median(&p99s)
    }

    /// Whether the stream met the limit: nothing failed, the p99 (over
    /// `windows` slices, see [`Load::window_p99`]) is within the limit and
    /// the backlog did not grow (the last tenth of requests waited, at the
    /// median, at most half the limit longer than the first tenth).
    fn meets_limit(&self, windows: usize) -> bool {
        let n = self.latency_s.len();
        let tenth = (n / 10).max(1);
        let growth = median(&self.latency_s[n - tenth..]) - median(&self.latency_s[..tenth]);
        self.failures() == 0
            && self.window_p99(windows) <= LATENCY_LIMIT_S
            && growth <= LATENCY_LIMIT_S / 2.0
    }

    fn summary(&self) -> String {
        format!(
            "{} attempted, {} accepted, {} rejected, {} past deadline, {} errored; generator lag mean {:.3} ms, max {:.3} ms",
            self.attempted,
            self.accepted,
            self.rejected,
            self.past_deadline,
            self.errored,
            1e3 * mean(&self.lag_s),
            1e3 * self.lag_s.iter().copied().fold(0.0, f64::max),
        )
    }
}

/// Offer `requests` open-loop at `rate`: request `j` is due at
/// `start + j / rate` whatever happened to earlier ones. One submitter
/// (this thread) and one collector thread that waits on the tickets in
/// submission order. With `stop_on_reject`, the stream stops at the first
/// rejection (the search only needs to know the rate failed).
fn open_loop(
    service: &PricingService,
    requests: Vec<Vec<PricingRequest>>,
    rate: f64,
    stop_on_reject: bool,
    spans: &Spans,
    parent: Parent,
) -> Load {
    let n = requests.len();
    let mut load = Load { responses: vec![None; n], ..Load::default() };
    let mut latency_s = vec![f64::INFINITY; n];
    let start = Instant::now() + Duration::from_millis(2);
    let due = |j: usize| start + Duration::from_secs_f64(j as f64 / rate);
    let (tx, rx) = std::sync::mpsc::channel::<(usize, Instant, Ticket)>();
    let collected = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut out = Vec::new();
            spans.span(Parent::root("collector"), "collect", 0, |p| loop {
                let Ok((j, due, ticket)) = spans.span(p, "harness.recv", 0, |_| rx.recv()) else {
                    break;
                };
                let result = spans.span(p, "serve.wait", j as u64, |_| ticket.wait());
                out.push((j, due, Instant::now(), result));
            });
            out
        });
        for (j, request) in requests.into_iter().enumerate() {
            let due = due(j);
            spans.span(parent, "harness.pace", j as u64, |_| {
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
            });
            load.attempted += 1;
            let t = Instant::now();
            let submitted =
                spans.span(parent, "serve.submit", j as u64, |_| service.submit(request, None));
            load.submit_s.push(t.elapsed().as_secs_f64());
            load.lag_s.push(t.saturating_duration_since(due).as_secs_f64());
            match submitted {
                Ok(ticket) => {
                    load.accepted += 1;
                    tx.send((j, due, ticket)).expect("collector outlives the stream");
                }
                Err(Error::Rejected(_)) => {
                    load.rejected += 1;
                    if stop_on_reject {
                        break;
                    }
                }
                Err(_) => load.errored += 1,
            }
        }
        drop(tx);
        spans.span(parent, "harness.drain", 0, |_| {
            collector.join().expect("collector thread panicked")
        })
    });
    let mut last_done = start;
    for (j, due, done, result) in collected {
        match result {
            Ok(responses) => {
                latency_s[j] = done.duration_since(due).as_secs_f64();
                load.responses[j] = Some(responses);
                last_done = last_done.max(done);
            }
            Err(Error::DeadlineExceeded { .. }) => load.past_deadline += 1,
            Err(_) => load.errored += 1,
        }
    }
    latency_s.truncate(load.attempted);
    load.latency_s = latency_s;
    let completed = load.responses.iter().flatten().count();
    load.achieved_rps = completed as f64 / last_done.duration_since(start).as_secs_f64().max(1e-9);
    load
}

/// The requests due in `seconds` at `rate`, numbered from `first`.
fn stream(seed: u64, first: u64, rate: f64, seconds: f64) -> Vec<Vec<PricingRequest>> {
    let n = (rate * seconds).ceil() as u64;
    (first..first + n).map(|i| request(seed, i)).collect()
}

/// The mean over the four request classes (`i mod 4`) of each class's
/// exact median latency. The light classes (4 device options) and heavy
/// ones (20, with the Greeks bumps) are each half the stream, so the
/// overall median falls in the gap between them and jumps from run to
/// run; each class's median sits inside its own mode.
fn class_median_s(latency_s: &[f64]) -> f64 {
    let class = |c: usize| -> Vec<f64> { latency_s.iter().skip(c).step_by(4).copied().collect() };
    (0..4).map(|c| median(&class(c))).sum::<f64>() / 4.0
}

fn ladder(k: i32) -> f64 {
    FIXED_RATE * LADDER_STEP.powi(k)
}

/// Offer ladder rung `k` for `seconds`; its achieved rate if it met the
/// limit, and its rejections and failures.
fn probe(service: &PricingService, seed: u64, k: i32, seconds: f64) -> (Option<f64>, usize, usize) {
    let rate = ladder(k);
    // Probe streams use request numbers far from the fixed stream's.
    let first = 1_000_000 * (k - LADDER.0 + 1) as u64;
    let requests = stream(seed, first, rate, seconds);
    let load = open_loop(service, requests, rate, true, &Spans::new(false), Parent::root("main"));
    let ok = load.meets_limit(PROBE_WINDOWS);
    println!(
        "    probe {rate:>7.1} req/s: p99 {:>9.3} ms, {} -> {}",
        1e3 * quantile(&load.latency_s, 0.99),
        load.summary(),
        if ok { "meets limit" } else { "misses limit" }
    );
    (ok.then_some(load.achieved_rps), load.rejected, load.past_deadline + load.errored)
}

/// Binary search over the ladder for the highest rate whose stream meets
/// the limit, within `seconds`. Rung 0 is the fixed rate, already
/// measured: `fixed` is its achieved rate if it met the limit. Returns the
/// achieved rate at the best rung and the probes' rejections and
/// failures.
fn max_rate(
    service: &PricingService,
    seed: u64,
    seconds: f64,
    fixed: Option<f64>,
) -> (f64, usize, usize) {
    let (mut lo, mut hi) = if fixed.is_some() { (0, LADDER.1) } else { (LADDER.0, 0) };
    let probe_s = seconds / f64::from(hi - lo).log2().ceil();
    let mut best = fixed;
    let (mut rejected, mut failed) = (0, 0);
    let mut run = |k: i32| {
        let (achieved, r, f) = probe(service, seed, k, probe_s);
        rejected += r;
        failed += f;
        achieved
    };
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        match run(mid) {
            Some(achieved) => {
                lo = mid;
                best = Some(achieved);
            }
            None => hi = mid,
        }
    }
    let best = best.or_else(|| run(lo)).unwrap_or(0.0);
    (best, rejected, failed)
}

/// Closed-loop replays of the first requests of the fixed-rate stream
/// through a suite that shares the pool's programs.
struct Replay<'a> {
    suite: &'a PayoffSuite,
    requests: &'a [Vec<PricingRequest>],
    /// Base options per process CPU second, per pass, scaled to the
    /// nominal host.
    rates: Scaled,
    /// Base options per wall second, per pass.
    wall_rates: Vec<f64>,
    /// Simulated joules, per pass (summed in request order).
    joules: Vec<f64>,
    /// Base options per pass.
    options: usize,
}

impl<'a> Replay<'a> {
    fn new(suite: &'a PayoffSuite, requests: &'a [Vec<PricingRequest>]) -> Replay<'a> {
        let requests = &requests[..REPLAYED.min(requests.len())];
        Replay {
            suite,
            requests,
            rates: Scaled::start(),
            wall_rates: Vec::new(),
            joules: Vec::new(),
            options: 0,
        }
    }

    /// One pass, then a run of the host speed reference. With `served`,
    /// every direct result must equal the service's response bit for bit
    /// and lie within the error bound of the host reference.
    fn pass(&mut self, served: Option<&Load>, report: &mut Report) -> Result<(), Error> {
        let (mut options, mut joules, mut cpu_s, mut wall_s) = (0, 0.0, 0.0, 0.0);
        for (i, request) in self.requests.iter().enumerate() {
            let direct = risk(request);
            let (c, t) = (process_cpu_s(), Instant::now());
            let (results, run) = self.suite.price_risk(std::hint::black_box(&direct))?;
            wall_s += t.elapsed().as_secs_f64();
            cpu_s += process_cpu_s() - c;
            options += results.len();
            joules += run.joules;
            let Some(load) = served else { continue };
            let response = load.responses[i].as_deref().unwrap_or(&[]);
            report.check(
                response.len() == results.len()
                    && response.iter().zip(&results).all(|(s, d)| identical(s, d)),
                || format!("request {i}: served response differs from PayoffSuite::price_risk"),
            );
            let err = results
                .iter()
                .zip(request)
                .map(|(r, q)| (r.price - price_payoff_f64(&q.params, q.payoff, STEPS)).abs())
                .fold(0.0, f64::max);
            report.check(err <= MAX_ABS_ERROR, || {
                format!("request {i}: max error {err:e} vs host reference")
            });
        }
        self.options = options;
        self.rates.push(options as f64 / cpu_s);
        self.wall_rates.push(options as f64 / wall_s);
        self.joules.push(joules);
        Ok(())
    }
}

fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits()
}

/// Whether the service's response equals the direct suite result bit for
/// bit, Greeks included.
fn identical(served: &PricingResponse, direct: &bop_core::RiskResult) -> bool {
    same_bits(served.price, direct.price)
        && match (served.greeks, direct.greeks) {
            (None, None) => true,
            (Some(a), Some(b)) => [
                (a.price, b.price),
                (a.delta, b.delta),
                (a.gamma, b.gamma),
                (a.theta, b.theta),
                (a.vega, b.vega),
                (a.rho, b.rho),
            ]
            .iter()
            .all(|&(x, y)| same_bits(x, y)),
            _ => false,
        }
}

pub fn run(args: &Args, spans: &Spans, report: &mut Report) -> Result<(), Error> {
    if args.trace {
        return run_traced(args, spans, report);
    }
    let mut setups = Scaled::start();
    let mut started = None;
    for _ in 0..SETUP_REPS {
        let metrics = Arc::new(MetricsRegistry::new());
        let c = process_cpu_s();
        let next = start(&metrics)?;
        setups.push_time(process_cpu_s() - c);
        if let Some((spare, _)) = started.replace(next) {
            spare.shutdown();
        }
    }
    let (service, suite) = started.expect("at least one start");

    // Fixed offered rate: the served responses the replay checks, and the
    // latency the traced run reports.
    let requests = stream(args.seed, 0, FIXED_RATE, CHECKED_SHARE * args.seconds);
    let fixed =
        open_loop(&service, requests.clone(), FIXED_RATE, false, spans, Parent::root("main"));
    report.attempted += fixed.attempted as u64;
    report.failed += fixed.failures() as u64;
    println!("  fixed rate {FIXED_RATE} req/s: {}", fixed.summary());
    println!(
        "  latency from due time over {} requests (failures count as misses): median {:.3} ms overall, {:.3} ms mean of class medians; p99 {:.3} ms overall, {:.3} ms median of {P99_WINDOWS} slices",
        fixed.latency_s.len(),
        1e3 * quantile(&fixed.latency_s, 0.5),
        1e3 * class_median_s(&fixed.latency_s),
        1e3 * quantile(&fixed.latency_s, 0.99),
        1e3 * fixed.window_p99(P99_WINDOWS),
    );
    report.check(fixed.failures() == 0, || {
        format!("{} requests failed at the fixed rate", fixed.failures())
    });

    service.shutdown();

    // Closed-loop replays for the rest of the budget, the first checked
    // against the served responses. Every pass must spend the same
    // simulated energy, and the host rate is the median pass's.
    let mut replay = Replay::new(&suite, &requests);
    let replay_start = Instant::now();
    replay.pass(Some(&fixed), report)?;
    while replay.rates.len() < MIN_REPLAY_PASSES
        || replay_start.elapsed().as_secs_f64() < (1.0 - CHECKED_SHARE) * args.seconds
    {
        replay.pass(None, report)?;
    }
    let joules = replay.joules[0];
    report.check(replay.joules.iter().all(|j| j.to_bits() == joules.to_bits()), || {
        "simulated energy of the replayed stream differs between passes".into()
    });
    println!(
        "  {} replay passes of {} requests: median {:.1} options per CPU second ({:.1} scaled to the nominal host; speed reference {:.3} ms, nominal {:.3} ms), {:.1} per wall second",
        replay.rates.len(),
        replay.requests.len(),
        replay.rates.median_raw(),
        replay.rates.median(),
        1e3 * replay.rates.median_reference_s(),
        1e3 * speed::NOMINAL_S,
        median(&replay.wall_rates),
    );

    // Accuracy on a fixed batch of every payoff class, and the projection.
    let (mut prices, mut reference) = (Vec::new(), Vec::new());
    for class in 0..4 {
        let batch: Vec<RiskRequest> =
            volatility_curve(&WorkloadConfig::default(), 1.0, REQUEST_OPTIONS, RMSE_SEED)
                .into_iter()
                .map(|o| RiskRequest::price_only(o, payoff(class)))
                .collect();
        let (results, _) = suite.price_risk(&batch)?;
        prices.extend(results.iter().map(|r| r.price));
        reference.extend(batch.iter().map(|r| price_payoff_f64(&r.params, r.payoff, STEPS)));
    }
    // The projection, twice on separately built suites: the simulated
    // clock must repeat bit for bit.
    let projection = suite.project(PROJECTED)?;
    let again = PayoffSuite::build(bop_core::devices::fpga(), STEPS)?.project(PROJECTED)?;
    report.check(
        projection.options_per_s.to_bits() == again.options_per_s.to_bits()
            && projection.options_per_j.to_bits() == again.options_per_j.to_bits(),
        || "projection differs between two builds".into(),
    );

    println!(
        "  set-up: median {:.3} ms of process CPU time over {SETUP_REPS} pool builds and service starts",
        1e3 * setups.median_raw_time()
    );
    report.metric("setup_s", setups.median_time(), "s", Clock::Cpu);
    report.metric("serve_options_per_j", replay.options as f64 / joules, "options/J", Clock::Sim);
    report.metric("host_options_per_s", replay.rates.median(), "options/s", Clock::Cpu);
    report.metric("sim_options_per_s", projection.options_per_s, "options/s", Clock::Sim);
    report.metric("sim_options_per_j", projection.options_per_j, "options/J", Clock::Sim);
    report.metric("rmse", bop_finance::rmse(&prices, &reference), "price", Clock::Sim);
    Ok(())
}

/// The device batch `PayoffSuite::price_risk` prices for `requests`: the
/// base options, then four bump scenarios per Greeks request.
fn device_batch(requests: &[RiskRequest]) -> (Vec<OptionParams>, Vec<Payoff>) {
    let mut options: Vec<OptionParams> = requests.iter().map(|r| r.params).collect();
    let mut payoffs: Vec<Payoff> = requests.iter().map(|r| r.payoff).collect();
    for r in requests.iter().filter(|r| r.greeks) {
        options.extend(bump_scenarios(&r.params));
        payoffs.extend([r.payoff; 4]);
    }
    (options, payoffs)
}

/// The payoff kernels a pool compiles, each with the program the harness
/// built from its source.
struct Programs(Vec<(KernelArch, Program)>);

impl Programs {
    fn get(&self, arch: KernelArch) -> &Program {
        &self.0.iter().find(|(a, _)| *a == arch).expect("every payoff kernel is compiled").1
    }
}

/// Price a device batch through the payoff class's host program.
fn host_run(
    programs: &Programs,
    ctx: &Arc<Context>,
    queue: &CommandQueue,
    options: &[OptionParams],
    payoffs: &[Payoff],
) -> Result<Vec<f64>, bop_ocl::queue::RuntimeError> {
    let arch = KernelArch::for_payoff(payoffs[0]);
    let program = programs.get(arch);
    match arch {
        KernelArch::Barrier | KernelArch::Bermudan => PayoffHost {
            n_steps: STEPS,
            precision: Precision::Double,
            kernel_name: arch.kernel_name(),
        }
        .run(ctx, queue, program, options, payoffs),
        _ => OptimizedHost {
            n_steps: STEPS,
            precision: Precision::Double,
            host_leaves: false,
            kernel_name: arch.kernel_name(),
        }
        .run(ctx, queue, program, options),
    }
}

fn run_traced(args: &Args, spans: &Spans, report: &mut Report) -> Result<(), Error> {
    let device = bop_core::devices::fpga();
    let main = Parent::root("main");
    let metrics = Arc::new(MetricsRegistry::new());
    let archs = [
        KernelArch::Optimized,
        KernelArch::OptimizedEuropean,
        KernelArch::Barrier,
        KernelArch::Bermudan,
        KernelArch::Streaming,
    ];
    let (programs, started) = spans.span(main, "setup", 0, |p| {
        let programs: Result<Vec<(KernelArch, Program)>, Error> = archs
            .iter()
            .enumerate()
            .map(|(i, &arch)| {
                spans.span(p, "clc.compile", i as u64, |_| {
                    let ctx = Context::new(device.clone());
                    let source =
                        arch.source_sized(Precision::Double, STEPS.max(CALIBRATION_STEPS[2]));
                    Program::from_source(&ctx, "kernel.cl", &source, &arch.paper_build_options())
                        .map(|program| (arch, program))
                        .map_err(Error::from)
                })
            })
            .collect();
        (programs, spans.span(p, "serve.setup", 0, |_| start(&metrics)))
    });
    let programs = Programs(programs?);
    let (service, replay) = started?;
    let projection = replay.project(PROJECTED)?;

    let requests = stream(args.seed, 0, FIXED_RATE, FIXED_SHARE * args.seconds);
    let fixed = spans.span(main, "serve.open_loop", 0, |p| {
        open_loop(&service, requests.clone(), FIXED_RATE, false, spans, p)
    });
    report.attempted += fixed.attempted as u64;
    report.failed += fixed.failures() as u64;
    println!("  fixed rate {FIXED_RATE} req/s (traced): {}", fixed.summary());
    report.check(fixed.failures() == 0, || {
        format!("{} requests failed at the fixed rate", fixed.failures())
    });
    let m = service.metrics();
    let (batch_count, batch_options) =
        m.histogram("serve.batch.options", &[]).map_or((0, 0.0), |h| (h.count, h.sum));
    let hist_mean_ms =
        |name: &str| m.histogram(name, &[]).map_or(0.0, |h| 1e3 * h.sum / h.count.max(1) as f64);
    let mut serve = ServeLayers {
        submit_us: 1e6 * mean(&fixed.submit_s),
        batches: batch_count as f64,
        batch_options_mean: batch_options / batch_count.max(1) as f64,
        exec_mean_ms: hist_mean_ms("serve.exec_s"),
        wait_mean_ms: hist_mean_ms("serve.queue_wait_s"),
        retries: m.counter_total("serve.retries") as f64,
        rejected: m.counter_total("serve.requests.rejected") as f64,
        gen_lag_ms: 1e3 * mean(&fixed.lag_s),
        p50_ms: 1e3 * class_median_s(&fixed.latency_s),
        p99_ms: 1e3 * fixed.window_p99(P99_WINDOWS),
        max_rate_rps: 0.0,
        capacity_rps: 0.0,
    };

    // Highest rate meeting the limit, with the rest of the budget. The
    // probes record no spans; they run between the top-level spans.
    println!(
        "  max-rate search (p99 <= {} ms, no failure, no backlog growth):",
        1e3 * LATENCY_LIMIT_S
    );
    let fixed_ok = fixed.meets_limit(P99_WINDOWS).then_some(fixed.achieved_rps);
    let (max_rps, probe_rejected, probe_failed) =
        max_rate(&service, args.seed, (1.0 - FIXED_SHARE) * args.seconds, fixed_ok);
    println!("  search probes: {probe_rejected} rejected, {probe_failed} failed (above the limit, not counted)");
    report.check(max_rps > 0.0, || "no rate on the ladder met the latency limit".into());
    serve.max_rate_rps = max_rps;
    service.shutdown();

    // Closed-loop replay of the first requests. Each is priced three
    // ways: `PayoffSuite::price_risk` with no span around it (the untraced
    // baseline), `price_risk` inside a span, and its device batch
    // decomposed into a harness-owned session, the payoff class's host
    // program and the host reference. Even requests run the baseline
    // first and odd ones last, so drift cancels in the ratios.
    let replayed = REPLAYED.min(requests.len());
    let mut tally = Tally::default();
    let mut untraced_s = 0.0;
    for (i, request) in requests[..replayed].iter().enumerate() {
        let key = i as u64;
        let direct = risk(request);
        let mut untraced = || -> Result<(), Error> {
            let t = Instant::now();
            replay.price_risk(&direct)?;
            untraced_s += t.elapsed().as_secs_f64();
            Ok(())
        };
        if i.is_multiple_of(2) {
            untraced()?;
        }
        spans.span(main, "call", key, |p| -> Result<(), Error> {
            let priced = |p| spans.span(p, "core.price_call", key, |_| replay.price_risk(&direct));
            let first = if i.is_multiple_of(2) { Some(priced(p)?) } else { None };
            let (options, payoffs) = spans.span(p, "harness.batch", key, |_| device_batch(&direct));
            let (ctx, queue) = spans.span(p, "ocl.session", key, |_| {
                let ctx = Context::new(device.clone());
                let queue = CommandQueue::new(&ctx);
                (ctx, queue)
            });
            let prices = spans.span(p, "ocl.hostprog", key, |_| {
                host_run(&programs, &ctx, &queue, &options, &payoffs)
            })?;
            let reference = spans.span(p, "finance.reference", key, |_| {
                options
                    .iter()
                    .zip(&payoffs)
                    .map(|(o, q)| price_payoff_f64(o, *q, STEPS))
                    .collect::<Vec<f64>>()
            });
            let (results, run) = match first {
                Some(priced) => priced,
                None => priced(p)?,
            };
            spans.span(p, "harness.check", key, |_| {
                tally.add_session(&queue, &[KernelArch::for_payoff(payoffs[0]).kernel_name()]);
                report.check(
                    prices.len() == run.prices.len()
                        && prices.iter().zip(&run.prices).all(|(a, b)| same_bits(*a, *b)),
                    || format!("request {i}: harness session and price_risk disagree"),
                );
                let served = fixed.responses[i].as_deref().unwrap_or(&[]);
                report.check(
                    served.len() == results.len()
                        && served.iter().zip(&results).all(|(s, d)| identical(s, d)),
                    || format!("request {i}: served response differs from PayoffSuite::price_risk"),
                );
                let err =
                    prices.iter().zip(&reference).map(|(a, b)| (a - b).abs()).fold(0.0, f64::max);
                report.check(err <= MAX_ABS_ERROR, || {
                    format!("request {i}: max error {err:e} vs host reference")
                });
            });
            Ok(())
        })?;
        if !i.is_multiple_of(2) {
            untraced()?;
        }
    }

    let traced_s = spans.total_s("core.price_call");
    serve.capacity_rps = SHARDS as f64 * replayed as f64 / traced_s;
    println!("  {replayed} requests replayed closed-loop, each untraced, traced and decomposed");
    layers::emit(
        report,
        spans,
        &Measured {
            tally,
            kernels_compiled: programs.0.len(),
            build: &programs.get(KernelArch::Optimized).report(),
            projected_s_per_option: projection.elapsed_s / projection.n_options as f64,
            serve,
            trace_overhead: traced_s / untraced_s,
            unattributed_share: spans.unattributed_share("main"),
        },
    );
    Ok(())
}
