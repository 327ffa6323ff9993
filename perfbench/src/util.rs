//! Small helpers shared by the workloads and the ledger: clocks, order
//! statistics and the process's peak resident memory.

use std::time::Instant;

/// Seconds elapsed since `start`.
#[must_use]
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile `q` in `[0, 1]` of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest whole percentile of `count` samples that still has at
/// least ten samples above it, or `None` when there are too few samples.
#[must_use]
pub fn tail_percentile(count: usize) -> Option<u32> {
    if count <= 10 {
        return None;
    }
    // Nearest-rank: percentile p ranks ceil(p/100 * count); at least ten
    // samples must rank above it.
    (1..100u32)
        .rev()
        .find(|&p| count - (p as usize * count).div_ceil(100) >= 10)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Worker threads the machine offers (`available_parallelism`, at least 1).
#[must_use]
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), 5.0);
    }

    #[test]
    fn tail_percentile_leaves_ten_above() {
        assert_eq!(tail_percentile(10), None);
        assert_eq!(tail_percentile(24), Some(58));
        assert_eq!(tail_percentile(1000), Some(99));
        for n in 11..300 {
            let p = tail_percentile(n).unwrap() as usize;
            assert!(n - (p * n).div_ceil(100) >= 10, "n={n} p={p}");
        }
    }
}
