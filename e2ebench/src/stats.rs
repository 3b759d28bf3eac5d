//! Order statistics over latency samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q · n` samples at or below it. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    let rank = rank_of(sorted.len(), q)?;
    sorted.get(rank - 1).copied()
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank_of(n: usize, q: f64) -> Option<usize> {
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    Some(((q * n as f64).ceil() as usize).clamp(1, n))
}

/// Samples strictly beyond the nearest rank of `q` among `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    rank_of(n, q).map_or(0, |r| n - r)
}

/// The highest of `candidates` (ascending quantiles) that still leaves at
/// least `min_beyond` samples beyond its rank — the highest percentile a
/// sample of `n` can report steadily. `None` when even the lowest fails.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .rev()
        .copied()
        .find(|&q| rank_of(n, q).is_some() && samples_beyond(n, q) >= min_beyond)
}

/// Median of an unsorted sample (nearest rank). `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    nearest_rank(&v, 0.5)
}

/// Latencies below this many milliseconds are binned at 1 µs; longer
/// ones are kept exactly.
const BINNED_MS: f64 = 200.0;
const BINS_PER_MS: f64 = 1000.0;

/// A latency sample whose memory does not grow with the number of
/// requests a run answers (so the benchmark's own bookkeeping does not
/// leak throughput into `peak_rss_mb`): 1 µs bins below 200 ms, exact
/// values above.
pub struct LatencyLog {
    bins: Vec<u32>,
    binned: u64,
    slow: Vec<f64>,
}

impl Default for LatencyLog {
    fn default() -> Self {
        Self {
            bins: vec![0; (BINNED_MS * BINS_PER_MS) as usize],
            binned: 0,
            slow: Vec::new(),
        }
    }
}

impl LatencyLog {
    /// Record one latency in milliseconds.
    pub fn record(&mut self, ms: f64) {
        let bin = (ms.max(0.0) * BINS_PER_MS) as usize;
        match self.bins.get_mut(bin) {
            Some(b) if ms < BINNED_MS => {
                *b += 1;
                self.binned += 1;
            }
            _ => self.slow.push(ms),
        }
    }

    /// Samples recorded.
    pub fn len(&self) -> usize {
        self.binned as usize + self.slow.len()
    }

    /// Nearest-rank percentile (a binned sample reads as its bin's
    /// midpoint). `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let rank = rank_of(self.len(), q)? as u64;
        if rank <= self.binned {
            let mut seen = 0u64;
            for (i, &c) in self.bins.iter().enumerate() {
                seen += u64::from(c);
                if seen >= rank {
                    return Some((i as f64 + 0.5) / BINS_PER_MS);
                }
            }
        }
        let mut slow = self.slow.clone();
        slow.sort_by(f64::total_cmp);
        slow.get((rank - self.binned - 1) as usize).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_log_matches_exact_nearest_rank() {
        let samples: Vec<f64> = (0..5000u32)
            .map(|i| f64::from(i.wrapping_mul(2_654_435_761) % 90_000) / 1000.0 + 0.25)
            .chain([250.0, 1500.5, 199.9999])
            .collect();
        let mut log = LatencyLog::default();
        for &s in &samples {
            log.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(log.len(), samples.len());
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let exact = nearest_rank(&sorted, q).unwrap();
            let got = log.percentile(q).unwrap();
            assert!(
                (got - exact).abs() <= 0.0005 + 1e-12,
                "q {q}: {got} vs {exact}"
            );
        }
        assert_eq!(log.percentile(1.0), Some(1500.5), "slow samples stay exact");
        assert_eq!(LatencyLog::default().percentile(0.5), None);
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.5), Some(5.0));
        assert_eq!(nearest_rank(&v, 0.9), Some(9.0));
        assert_eq!(nearest_rank(&v, 0.91), Some(10.0));
        assert_eq!(nearest_rank(&v, 1.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[], 0.5), None);
        assert_eq!(nearest_rank(&v, 1.5), None);
        assert_eq!(nearest_rank(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn ten_beyond_rule() {
        // p90 needs 100 samples to leave 10 beyond its rank; 99 leave 9.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(samples_beyond(1000, 0.99), 10);
        let qs = [0.5, 0.9, 0.99];
        assert_eq!(highest_supported(99, &qs, 10), Some(0.5));
        assert_eq!(highest_supported(100, &qs, 10), Some(0.9));
        assert_eq!(highest_supported(999, &qs, 10), Some(0.9));
        assert_eq!(highest_supported(1000, &qs, 10), Some(0.99));
        assert_eq!(highest_supported(19, &qs, 10), None);
        assert_eq!(highest_supported(0, &qs, 10), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }
}
