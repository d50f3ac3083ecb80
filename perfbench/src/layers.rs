//! Per-layer accounting shared by the workloads' traced runs.

use crate::report::{Clock, Report};
use crate::spans::Spans;
use bop_clir::stats::ExecStats;
use bop_ocl::{BuildReport, CommandQueue};

/// Exact per-session counts from harness-owned command queues.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Sessions (device batches) counted.
    pub batches: u64,
    /// Interpreted instructions over all counted kernels.
    pub instructions: u64,
    /// Pipe read plus write stalls.
    pub pipe_stalls: u64,
    /// Writes, reads and launches.
    pub commands: u64,
    /// Bytes moved host-to-device plus device-to-host.
    pub bytes: u64,
    /// Simulated elapsed time of the sessions, seconds.
    pub sim_elapsed_s: f64,
}

/// Instructions the engines interpreted: counted operations, memory
/// accesses of every space, pipe transfers, and one terminator per
/// executed basic block.
fn instructions(s: &ExecStats) -> u64 {
    let m = &s.mem;
    s.ops.total()
        + m.global_loads
        + m.global_stores
        + m.local_loads
        + m.local_stores
        + m.private_accesses
        + s.pipe_reads
        + s.pipe_writes
        + s.total_block_execs()
}

impl Tally {
    /// Add one finished session that ran `kernels` on `queue`.
    pub fn add_session(&mut self, queue: &CommandQueue, kernels: &[&str]) {
        let c = queue.counters();
        self.batches += 1;
        self.instructions += kernels
            .iter()
            .filter_map(|k| queue.kernel_stats(k))
            .map(|s| instructions(&s))
            .sum::<u64>();
        self.pipe_stalls += c.pipe_read_stalls + c.pipe_write_stalls;
        self.commands += c.writes + c.reads + c.launches;
        self.bytes += c.h2d_bytes + c.d2h_bytes;
        self.sim_elapsed_s += queue.finish();
    }
}

/// Serving-layer figures of the traced open-loop phase (all zero for
/// workloads that bypass the service).
#[derive(Debug, Default, Clone, Copy)]
pub struct ServeLayers {
    pub submit_us: f64,
    pub batches: f64,
    pub batch_options_mean: f64,
    pub exec_mean_ms: f64,
    pub wait_mean_ms: f64,
    pub retries: f64,
    pub rejected: f64,
    pub gen_lag_ms: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
    pub max_rate_rps: f64,
    pub capacity_rps: f64,
}

/// What a traced run measured besides its spans.
pub struct Measured<'a> {
    pub tally: Tally,
    /// Kernel sources the harness compiled.
    pub kernels_compiled: usize,
    /// Fitter report of the workload's main kernel.
    pub build: &'a BuildReport,
    pub projected_s_per_option: f64,
    pub serve: ServeLayers,
    /// Traced over untraced wall time of the same calls.
    pub trace_overhead: f64,
    /// Share of the top-level spans' wall time that no child covers.
    pub unattributed_share: f64,
}

/// Print the per-layer self-time table and record every per-layer
/// metric. Times are per device batch (one priced call or one request).
pub fn emit(report: &mut Report, spans: &Spans, m: &Measured) {
    let layers = spans.layer_times();
    println!("  per-layer self time (wall):");
    for (name, t) in &layers {
        println!("    {name:<22} {:>12.6} s  {:>7} spans", t.self_s, t.count);
    }
    let batches = m.tally.batches.max(1) as f64;
    let per_batch = |name: &str| layers.get(name).map_or(0.0, |t| t.self_s) / batches;
    let session = per_batch("ocl.session");
    let hostprog = per_batch("ocl.hostprog");
    let reference = per_batch("finance.reference");
    let price_call = per_batch("core.price_call");
    let instr = m.tally.instructions as f64 / batches;

    report.metric("clc.compile_s", spans.total_s("clc.compile"), "s", Clock::Wall);
    report.metric("clc.kernels", m.kernels_compiled as f64, "count", Clock::Count);
    report.metric("clir.instructions", instr, "count", Clock::Count);
    report.metric("clir.ns_per_instr", hostprog * 1e9 / instr.max(1.0), "ns", Clock::Wall);
    report.metric("clir.pipe_stalls", m.tally.pipe_stalls as f64 / batches, "count", Clock::Count);
    report.metric("ocl.session_s", session, "s", Clock::Wall);
    report.metric("ocl.hostprog_s", hostprog, "s", Clock::Wall);
    report.metric("ocl.commands", m.tally.commands as f64 / batches, "count", Clock::Count);
    report.metric("ocl.bytes", m.tally.bytes as f64 / batches, "B", Clock::Count);
    report.metric("ocl.sim_elapsed_s", m.tally.sim_elapsed_s / batches, "s", Clock::Sim);
    report.metric("fpga.clock_mhz", m.build.clock_hz / 1e6, "MHz", Clock::Sim);
    report.metric("fpga.watts", m.build.power_watts, "W", Clock::Sim);
    report.metric(
        "fpga.logic_utilization",
        m.build.logic_utilization.unwrap_or(0.0),
        "ratio",
        Clock::Sim,
    );
    report.metric("fpga.projected_s_per_option", m.projected_s_per_option, "s", Clock::Sim);
    report.metric("finance.reference_s", reference, "s", Clock::Wall);
    report.metric("core.price_call_s", price_call, "s", Clock::Wall);
    report.metric("core.overhead_s", price_call - session - hostprog - reference, "s", Clock::Wall);
    report.metric("core.capacity_rps", m.serve.capacity_rps, "1/s", Clock::Wall);
    report.metric("serve.submit_us", m.serve.submit_us, "us", Clock::Wall);
    report.metric("serve.batches", m.serve.batches, "count", Clock::Count);
    report.metric("serve.batch_options_mean", m.serve.batch_options_mean, "count", Clock::Count);
    report.metric("serve.exec_mean_ms", m.serve.exec_mean_ms, "ms", Clock::Wall);
    report.metric("serve.wait_mean_ms", m.serve.wait_mean_ms, "ms", Clock::Wall);
    report.metric("serve.retries", m.serve.retries, "count", Clock::Count);
    report.metric("serve.rejected", m.serve.rejected, "count", Clock::Count);
    report.metric("serve.gen_lag_ms", m.serve.gen_lag_ms, "ms", Clock::Wall);
    report.metric("serve.p50_ms", m.serve.p50_ms, "ms", Clock::Wall);
    report.metric("serve.p99_ms", m.serve.p99_ms, "ms", Clock::Wall);
    report.metric("serve.max_rate_rps", m.serve.max_rate_rps, "1/s", Clock::Wall);
    report.metric("obs.trace_overhead", m.trace_overhead, "ratio", Clock::Wall);
    report.metric("obs.spans", spans.len() as f64, "count", Clock::Count);
    report.metric("obs.unattributed_share", m.unattributed_share, "ratio", Clock::Wall);
    report.check(m.unattributed_share <= 0.05, || {
        format!(
            "spans cover only {:.1}% of the workload's wall time (conservation needs 95%)",
            100.0 * (1.0 - m.unattributed_share)
        )
    });
}
