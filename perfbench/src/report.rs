//! The run's result: named metrics with units and clocks, correctness
//! checks, and the one-line JSON summary the benchmark ends with.

use std::fmt::Write as _;

/// Which clock a metric is measured on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// The host wall clock: repeated and compared within a bound.
    Wall,
    /// The host CPU time of the process, all threads together: repeated
    /// and compared within a bound, like the wall clock, but it stops while
    /// the process waits for a CPU of the shared host.
    Cpu,
    /// The simulated device clock: deterministic, must repeat exactly.
    Sim,
    /// A count, exact like the simulated clock.
    Count,
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Cpu => "cpu",
            Clock::Sim => "sim",
            Clock::Count => "count",
        }
    }
}

/// Metrics and checks of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    failures: Vec<String>,
    /// Operations attempted at the workload's stated load.
    pub attempted: u64,
    /// Attempted operations that returned an error.
    pub failed: u64,
}

impl Report {
    /// Record a metric and print it with its unit and clock.
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str, clock: Clock) {
        println!("  {name:<28} {value:>18.6} {unit:<10} [{}]", clock.label());
        if !value.is_finite() {
            self.fail(format!("metric {name} is not finite ({value})"));
        }
        self.metrics.push((name, value, unit));
    }

    /// Record a correctness check; a failed check fails the run.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record a failed check.
    pub fn fail(&mut self, what: String) {
        eprintln!("perfbench: CHECK FAILED: {what}");
        self.failures.push(what);
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Names of the recorded metrics, in order.
    pub fn names(&self) -> Vec<&'static str> {
        self.metrics.iter().map(|m| m.0).collect()
    }

    /// The summary line: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let value = if value.is_finite() { *value } else { 0.0 };
            write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
                .expect("write to string");
        }
        out.push_str("}}");
        out
    }
}
