//! Two-clock benchmark of the bop workspace.
//!
//! ```text
//! perfbench --workload serve_mixed|price_ivb|price_ivc --seed N --seconds S --trace 0|1
//! ```
//!
//! Drives the public API of `bop-core` and `bop-serve` on one workload,
//! checks every output it measures, and ends its standard output with one
//! JSON line: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end set, measured untraced; with
//! `--trace 1` they are the per-layer set, from a separate run that
//! records wall-clock spans around the harness's own calls into each
//! crate. `README.md` beside this package describes each metric.

mod layers;
mod price;
mod report;
mod serve;
mod spans;
mod speed;
mod stats;

use report::Report;
use spans::Spans;

/// The workloads, as `--workload` names them.
const WORKLOADS: [&str; 3] = ["serve_mixed", "price_ivb", "price_ivc"];

/// End-to-end metrics, printed by every `--trace 0` run.
pub const END_TO_END: [&str; 7] = [
    "setup_s",
    "peak_rss_mb",
    "serve_options_per_j",
    "host_options_per_s",
    "sim_options_per_s",
    "sim_options_per_j",
    "rmse",
];

/// Per-layer metrics, printed by every `--trace 1` run (0 where a layer
/// does not take part in the workload).
pub const PER_LAYER: [&str; 32] = [
    "clc.compile_s",
    "clc.kernels",
    "clir.instructions",
    "clir.ns_per_instr",
    "clir.pipe_stalls",
    "ocl.session_s",
    "ocl.hostprog_s",
    "ocl.commands",
    "ocl.bytes",
    "ocl.sim_elapsed_s",
    "fpga.clock_mhz",
    "fpga.watts",
    "fpga.logic_utilization",
    "fpga.projected_s_per_option",
    "finance.reference_s",
    "core.price_call_s",
    "core.overhead_s",
    "core.capacity_rps",
    "serve.submit_us",
    "serve.batches",
    "serve.batch_options_mean",
    "serve.exec_mean_ms",
    "serve.wait_mean_ms",
    "serve.retries",
    "serve.rejected",
    "serve.gen_lag_ms",
    "serve.p50_ms",
    "serve.p99_ms",
    "serve.max_rate_rps",
    "obs.trace_overhead",
    "obs.spans",
    "obs.unattributed_share",
];

/// Environment variables that change how the simulator runs. The
/// benchmark measures the program's defaults, so it refuses to start
/// when any of them is set.
const PINNED_ENV: [&str; 4] =
    ["BOP_SIM_ENGINE", "BOP_SIM_WORKERS", "BOP_SIM_STEP_LIMIT", "BOP_SIM_FAULTS"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget of the run, seconds.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end run.
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&WORKLOADS.join(", ")));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a duration in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload serve_mixed|price_ivb|price_ivc --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let set: Vec<&str> =
        PINNED_ENV.iter().copied().filter(|v| std::env::var_os(v).is_some()).collect();
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to run with {} set; unset it to measure the defaults",
            set.join(", ")
        );
        std::process::exit(2);
    }

    let probe = bop_ocl::CommandQueue::new(&bop_ocl::Context::new(bop_core::devices::fpga()));
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "perfbench: workload={} seed={} seconds={} trace={} | engine={} sim_workers={} shards={} nproc={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        probe.engine(),
        probe.workers(),
        serve::SHARDS,
        nproc
    );

    let spans = Spans::new(args.trace);
    let mut report = Report::default();
    let outcome = match args.workload.as_str() {
        "serve_mixed" => serve::run(&args, &spans, &mut report),
        "price_ivb" => price::run(bop_core::KernelArch::Optimized, &args, &spans, &mut report),
        "price_ivc" => price::run(bop_core::KernelArch::Streaming, &args, &spans, &mut report),
        other => unreachable!("parse_args admits only known workloads, not `{other}`"),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {} failed: {e}", args.workload);
        std::process::exit(1);
    }
    if args.trace {
        let path = trace_path(&args);
        match std::fs::create_dir_all(path.parent().expect("trace path has a directory"))
            .and_then(|()| std::fs::write(&path, spans.to_chrome_json()))
        {
            Ok(()) => println!("perfbench: wrote {} spans to {}", spans.len(), path.display()),
            Err(e) => report.fail(format!("writing {}: {e}", path.display())),
        }
    } else {
        let rss = stats::peak_rss_mb();
        report.check(rss.is_some(), || "peak RSS unavailable (/proc/self/status)".into());
        report.metric("peak_rss_mb", rss.unwrap_or(0.0), "MB", report::Clock::Wall);
    }

    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut got = report.names();
    got.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    assert_eq!(got, want, "the workload must report exactly the declared metric set");
    report.check(report.attempted > 0, || "no operation was attempted".into());
    println!("{}", report.json_line());
    if !report.correct() {
        std::process::exit(1);
    }
}

/// Where the traced run's Chrome document goes: under the build
/// directory, which stays out of version control.
fn trace_path(args: &Args) -> std::path::PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| std::path::PathBuf::from("perfbench/target"), std::path::PathBuf::from);
    dir.join("perfbench-traces").join(format!("{}-seed{}.json", args.workload, args.seed))
}
