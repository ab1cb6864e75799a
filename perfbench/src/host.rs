//! Host-side measurement: process CPU time, peak resident memory, and
//! the order statistics every reported figure is built from.

use std::fs;

/// CPU time this process has spent on a CPU, in seconds (user + system).
/// Read from `/proc/self/schedstat` (nanosecond resolution); the
/// benchmark runs single-threaded, so the main task is the whole process.
pub fn cpu_seconds() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/schedstat")
        .map_err(|e| format!("reading /proc/self/schedstat: {e}"))?;
    let ns: u64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| format!("unparsable /proc/self/schedstat: {text:?}"))?;
    Ok(ns as f64 / 1e9)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: u64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (in `(0, 1]`) of a non-empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "percentile of an empty sample");
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The tail the sample supports: the highest of p99, p95, p90 and p50
/// that leaves at least ten samples beyond it. Returns the percentile,
/// its value, and how many samples lie beyond it.
pub fn supported_tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    for p in [0.99, 0.95, 0.90, 0.50] {
        let rank = ((p * n as f64).ceil() as usize).clamp(1, n.max(1));
        if n - rank >= 10 {
            return (p, percentile(values, p), n - rank);
        }
    }
    (0.50, percentile(values, 0.50), n / 2)
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of an empty sample");
    values.iter().sum::<f64>() / values.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        // 100 samples: p90 is the highest percentile with >= 10 beyond.
        assert_eq!(supported_tail(&v), (0.90, 90.0, 10));
        let w: Vec<f64> = (1..=400).map(f64::from).collect();
        assert_eq!(supported_tail(&w), (0.95, 380.0, 20));
    }

    #[test]
    fn host_clocks_read() {
        assert!(cpu_seconds().unwrap() > 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
