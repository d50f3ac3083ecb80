//! Exact order statistics and process measurements.

/// The median of `samples` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The exact nearest-rank `q`-quantile of `samples`: the smallest sample
/// with at least a `q` share of the samples at or below it. Never
/// interpolated, so it is always a latency some request really saw.
///
/// # Panics
/// Panics on an empty sample or a `q` outside `(0, 1]`.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile of `samples`, at most `q`, that has at least
/// `beyond` samples above it, with that percentile: the tail a sample of
/// this size supports. Never below the median.
///
/// # Panics
/// Panics on an empty sample or a `q` outside `(0, 1]`.
pub fn supported_tail(samples: &[f64], q: f64, beyond: usize) -> (f64, f64) {
    assert!(!samples.is_empty(), "tail of no samples");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let q_rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let rank = n.saturating_sub(beyond).max(n.div_ceil(2)).min(q_rank);
    (sorted[rank - 1], rank as f64 / n as f64)
}

/// The arithmetic mean of `samples`, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// CPU time this process has spent, all threads together (exited ones
/// included), in seconds: `CLOCK_PROCESS_CPUTIME_ID`. Unlike the wall
/// clock it does not run while the process waits for a CPU, so it leaves
/// out the time a shared host spends running other work. The `timespec`
/// layout is that of 64-bit Linux.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + 1e-9 * ts.tv_nsec as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_samples() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(supported_tail(&xs, 0.99, 10), (90.0, 0.9));
        assert_eq!(supported_tail(&xs[..12], 0.99, 10), (6.0, 0.5));
        let many: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&many, 0.99, 10), (1980.0, 0.99));
    }

    #[test]
    fn process_cpu_time_advances_with_work() {
        let before = process_cpu_s();
        let mut x = 0u64;
        while process_cpu_s() - before < 0.01 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        assert!(before > 0.0 && process_cpu_s() > before);
    }
}
