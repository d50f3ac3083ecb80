//! The host speed reference that `host_options_per_s` is scaled by.
//!
//! The shared host the benchmark runs on changes speed for minutes at a
//! time as its other tenants come and go: in one run the simulator's CPU
//! time per option halved from one pass to the next and stayed there. No
//! clock of the guest leaves that out. So the harness also times, between
//! every two timed units of work, a fixed computation of its own: a small
//! register machine dispatching over a short program, the kind of branchy,
//! cache-resident loop the simulator's interpreters run. No change to the
//! program moves it, so scaling a rate by the reference's time keeps the
//! program's speed and cancels most of the host's. In that run a
//! reference of this kind slowed 1.76x when the simulator slowed 2.06x.

use crate::stats::{median, process_cpu_s};

/// CPU seconds one run of the reference takes on the nominal host: the
/// 2-vCPU VM the benchmark was tuned on, in its more common, slower state.
/// A rate measured while the reference took this long is reported as is.
pub const NOMINAL_S: f64 = 0.040;

/// Loop iterations of one run of the reference.
const ITERATIONS: u32 = 1_000_000;

/// One instruction of the reference machine: registers `r`, a 64-slot
/// memory addressed relative to a moving base.
#[derive(Clone, Copy)]
enum Op {
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Max(u8, u8, u8),
    Load(u8, u8),
    Store(u8, u8),
    Count(u8),
    LoopIfPositive(u8, u8),
}

/// Run the reference machine for `iterations` loops; returns a value that
/// depends on every step, so none of it can be optimised away.
fn machine(iterations: u32) -> f64 {
    use Op::*;
    let program = std::hint::black_box([
        Load(1, 0),
        Mul(2, 1, 3),
        Add(2, 2, 4),
        Max(5, 2, 6),
        Store(5, 1),
        Load(7, 1),
        Mul(8, 7, 3),
        Add(8, 8, 5),
        Store(8, 0),
        Count(0),
        LoopIfPositive(0, 0),
    ]);
    let mut r = [0.0f64; 16];
    (r[0], r[3], r[4], r[6]) = (f64::from(iterations), 0.999, 0.001, 0.25);
    let mut memory = [0.5f64; 64];
    let (mut pc, mut base) = (0usize, 0usize);
    loop {
        match program[pc] {
            Add(d, a, b) => r[d as usize] = r[a as usize] + r[b as usize],
            Mul(d, a, b) => r[d as usize] = r[a as usize] * r[b as usize],
            Max(d, a, b) => r[d as usize] = r[a as usize].max(r[b as usize]),
            Load(d, at) => r[d as usize] = memory[(base + at as usize) % 64],
            Store(s, at) => memory[(base + at as usize) % 64] = r[s as usize],
            Count(d) => {
                r[d as usize] -= 1.0;
                base += 1;
            }
            LoopIfPositive(c, to) => {
                if r[c as usize] > 0.0 {
                    pc = to as usize;
                    continue;
                }
                break;
            }
        }
        pc += 1;
    }
    memory.iter().sum()
}

/// Process CPU seconds of one run of the reference. Call it only while
/// no other thread of the process is working.
pub fn reference_s() -> f64 {
    let before = process_cpu_s();
    std::hint::black_box(machine(std::hint::black_box(ITERATIONS)));
    process_cpu_s() - before
}

/// `rate`, measured between reference runs that took `before_s` and
/// `after_s`, scaled to the nominal host: a host on which the reference
/// runs twice as long does the work at half the rate.
fn scale(rate: f64, before_s: f64, after_s: f64) -> f64 {
    rate * 0.5 * (before_s + after_s) / NOMINAL_S
}

/// Rates of timed units of work, each scaled to the nominal host by the
/// reference runs on either side of it.
#[derive(Debug, Default)]
pub struct Scaled {
    /// Reference time before the first unit and after every unit.
    reference_s: Vec<f64>,
    /// Per unit, the rate as measured.
    raw: Vec<f64>,
    /// Per unit, the rate scaled to the nominal host.
    scaled: Vec<f64>,
}

impl Scaled {
    /// Start a series: runs the reference once, before the first unit.
    pub fn start() -> Scaled {
        Scaled { reference_s: vec![reference_s()], ..Scaled::default() }
    }

    /// Record a unit of work done at `rate`, measured on the process CPU
    /// clock since the last reference run, and run the reference again.
    pub fn push(&mut self, rate: f64) {
        let after = reference_s();
        let before = *self.reference_s.last().expect("start runs the reference");
        self.reference_s.push(after);
        self.raw.push(rate);
        self.scaled.push(scale(rate, before, after));
    }

    /// Record a unit of work that took `seconds` of process CPU time
    /// since the last reference run, and run the reference again.
    pub fn push_time(&mut self, seconds: f64) {
        self.push(1.0 / seconds);
    }

    /// The median scaled time of units recorded with
    /// [`Scaled::push_time`] (exact for an odd count).
    pub fn median_time(&self) -> f64 {
        1.0 / self.median()
    }

    /// The median time as measured, unscaled.
    pub fn median_raw_time(&self) -> f64 {
        1.0 / self.median_raw()
    }

    /// Units recorded.
    pub fn len(&self) -> usize {
        self.raw.len()
    }

    /// The median scaled rate.
    pub fn median(&self) -> f64 {
        median(&self.scaled)
    }

    /// The median rate as measured, unscaled.
    pub fn median_raw(&self) -> f64 {
        median(&self.raw)
    }

    /// The median reference time, CPU seconds.
    pub fn median_reference_s(&self) -> f64 {
        median(&self.reference_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic_and_takes_time() {
        assert_eq!(machine(1000).to_bits(), machine(1000).to_bits());
        assert!(reference_s() > 0.0);
    }

    #[test]
    fn rates_scale_by_the_mean_of_the_neighbouring_references() {
        assert_eq!(scale(10.0, NOMINAL_S, NOMINAL_S), 10.0);
        assert_eq!(scale(10.0, NOMINAL_S, 3.0 * NOMINAL_S), 20.0);
        let mut s = Scaled::start();
        s.push(5.0);
        s.push(7.0);
        assert_eq!((s.len(), s.median_raw()), (2, 6.0));
        assert!(s.median() > 0.0 && s.median_reference_s() > 0.0);
        let mut t = Scaled::start();
        for seconds in [0.5, 0.25, 2.0] {
            t.push_time(seconds);
        }
        assert_eq!(t.median_raw_time(), 0.5);
    }
}
