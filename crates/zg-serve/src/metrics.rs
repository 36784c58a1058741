//! Latency accounting for the server: a recorder accumulating per-request
//! latencies and a percentile summary (nearest-rank, deterministic).

/// Summary of a latency sample set, in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub n: usize,
    /// Median (nearest-rank 50th percentile).
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum.
    pub max: f64,
}

/// Accumulates request latencies, kept sorted on insert — percentile
/// queries are O(1) rank lookups with no per-call clone or re-sort.
#[derive(Debug, Default, Clone)]
pub struct LatencyRecorder {
    /// Samples in ascending `total_cmp` order.
    sorted: Vec<f64>,
}

impl LatencyRecorder {
    /// An empty recorder.
    pub fn new() -> LatencyRecorder {
        LatencyRecorder::default()
    }

    /// Record one latency in seconds (sorted insertion).
    pub fn record(&mut self, seconds: f64) {
        let at = self
            .sorted
            .partition_point(|x| x.total_cmp(&seconds).is_le());
        self.sorted.insert(at, seconds);
    }

    /// Summarize all samples. Returns an all-zero summary when empty
    /// (the bench treats `n == 0` as "no traffic").
    pub fn summary(&self) -> LatencySummary {
        if self.sorted.is_empty() {
            return LatencySummary {
                n: 0,
                p50: 0.0,
                p99: 0.0,
                mean: 0.0,
                max: 0.0,
            };
        }
        let n = self.sorted.len();
        LatencySummary {
            n,
            p50: rank(&self.sorted, 0.50),
            p99: rank(&self.sorted, 0.99),
            mean: self.sorted.iter().sum::<f64>() / n as f64,
            max: self.sorted[n - 1],
        }
    }
}

/// Nearest-rank percentile of a *sorted* non-empty slice.
fn rank(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    let r = (q * n as f64).ceil() as usize;
    sorted[r.clamp(1, n) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_zeroed() {
        let s = LatencyRecorder::new().summary();
        assert_eq!(s.n, 0);
        assert_eq!(s.p50, 0.0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut r = LatencyRecorder::new();
        // 1..=100 in scrambled insert order.
        for i in (1..=100u32).rev() {
            r.record(i as f64);
        }
        let s = r.summary();
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.0);
        assert_eq!(s.p99, 99.0);
        assert_eq!(s.max, 100.0);
        assert_eq!(s.mean, 50.5);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut r = LatencyRecorder::new();
        r.record(0.25);
        let s = r.summary();
        assert_eq!(s.p50, 0.25);
        assert_eq!(s.p99, 0.25);
        assert_eq!(s.max, 0.25);
    }

    #[test]
    fn record_keeps_samples_sorted() {
        let mut r = LatencyRecorder::new();
        for v in [0.3, 0.1, 0.2] {
            r.record(v);
        }
        let s = r.summary();
        assert_eq!(s.p50, 0.2);
        assert_eq!(s.max, 0.3);
    }
}
