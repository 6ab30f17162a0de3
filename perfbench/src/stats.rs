//! Exact-rank statistics over raw samples.
//!
//! Every percentile the benchmark reports comes from here: the samples
//! are kept whole, sorted once, and the percentile is the sample at its
//! nearest rank. Nothing is bucketed, so 17µs and 32µs stay apart.

/// A sorted copy of raw samples with exact-rank queries.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values` (NaN-free by construction: every sample is a
    /// measured duration, rate or count).
    pub fn new(mut values: Vec<f64>) -> Samples {
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile: the smallest sample such that at least
    /// `p`% of the samples are at or below it. `p` is clamped to
    /// `(0, 100]`; an empty set yields `NaN`.
    pub fn percentile(&self, p: f64) -> f64 {
        match self.rank(p) {
            Some(r) => self.sorted[r - 1],
            None => f64::NAN,
        }
    }

    /// Samples strictly above the `p`-th percentile (how many samples the
    /// percentile summarizes beyond itself).
    pub fn beyond(&self, p: f64) -> usize {
        let value = self.percentile(p);
        self.sorted.iter().filter(|&&v| v > value).count()
    }

    /// The median: the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        if n % 2 == 1 {
            self.sorted[n / 2]
        } else {
            (self.sorted[n / 2 - 1] + self.sorted[n / 2]) / 2.0
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// 1-based nearest rank `ceil(p/100 · n)`, at least 1.
    fn rank(&self, p: f64) -> Option<usize> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let p = p.clamp(f64::MIN_POSITIVE, 100.0);
        let r = (p / 100.0 * n as f64).ceil() as usize;
        Some(r.clamp(1, n))
    }
}

/// Mean client latency left over once the in-process layer means are
/// subtracted: what the transport, the event loop and waiting cost
/// (`server.unattributed_us`). The residual closes the sum: layers plus
/// residual equal the client mean exactly.
pub fn unattributed(client_mean: f64, layer_means: &[f64]) -> f64 {
    client_mean - layer_means.iter().sum::<f64>()
}

/// Completed operations per fixed window: the completion timestamps (in
/// seconds since the window start) are binned into `window`-second bins
/// over `[0, span)`, and each full bin yields one rate sample. A partial
/// trailing bin is dropped so a ragged end cannot read low.
pub fn window_rates(completions: &[f64], window: f64, span: f64) -> Vec<f64> {
    let bins = (span / window).floor() as usize;
    let mut counts = vec![0u64; bins];
    for &t in completions {
        let b = (t / window).floor();
        if b >= 0.0 && (b as usize) < bins {
            counts[b as usize] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window).collect()
}

/// Wall time of each run of `size` consecutive completions inside one
/// kept window: completion times (seconds, ascending) are binned into
/// `window`-second bins, and within each bin whose `keep` flag is set,
/// every `size` completions yield the time from the first to the
/// `size`-th after it.
pub fn window_batches(completions: &[f64], window: f64, keep: &[bool], size: usize) -> Vec<f64> {
    let size = size.max(1);
    let mut out = Vec::new();
    for (w, _) in keep.iter().enumerate().filter(|(_, &k)| k) {
        let (lo, hi) = (w as f64 * window, (w + 1) as f64 * window);
        let inside: Vec<f64> = completions
            .iter()
            .copied()
            .filter(|&t| t >= lo && t < hi)
            .collect();
        let mut i = 0;
        while i + size < inside.len() {
            out.push(inside[i + size] - inside[i]);
            i += size;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_known_samples() {
        let s = Samples::new((1..=100).rev().map(f64::from).collect());
        assert_eq!(s.len(), 100);
        assert_eq!(s.percentile(50.0), 50.0);
        assert_eq!(s.percentile(99.0), 99.0);
        assert_eq!(s.percentile(100.0), 100.0);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.beyond(99.0), 1);
        assert_eq!(s.beyond(50.0), 50);
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn small_sets_take_the_rank_ceiling() {
        let s = Samples::new(vec![17.0, 32.0, 18.0]);
        // ceil(0.5 · 3) = 2 → the second-smallest sample.
        assert_eq!(s.percentile(50.0), 18.0);
        // ceil(0.99 · 3) = 3 → the maximum, with nothing beyond it.
        assert_eq!(s.percentile(99.0), 32.0);
        assert_eq!(s.beyond(99.0), 0);
        assert_eq!(s.median(), 18.0);
        // 17 and 32 stay distinct — no ×2 bucket ceiling.
        assert_ne!(s.percentile(1.0), s.percentile(99.0));
    }

    #[test]
    fn ties_count_as_not_beyond() {
        let s = Samples::new(vec![5.0; 10]);
        assert_eq!(s.percentile(99.0), 5.0);
        assert_eq!(s.beyond(99.0), 0);
    }

    #[test]
    fn empty_samples_are_nan() {
        let s = Samples::new(Vec::new());
        assert_eq!(s.len(), 0);
        assert!(s.percentile(50.0).is_nan());
        assert!(s.median().is_nan());
        assert!(s.mean().is_nan());
    }

    #[test]
    fn unattributed_residual_closes_the_sum() {
        let layers = [3.5, 12.25, 0.75];
        let client = 40.0;
        let residual = unattributed(client, &layers);
        assert_eq!(residual, 23.5);
        assert_eq!(layers.iter().sum::<f64>() + residual, client);
        // A layer sum above the client mean shows as a negative residual
        // instead of being clamped away.
        assert_eq!(unattributed(10.0, &[6.0, 6.0]), -2.0);
    }

    #[test]
    fn window_rates_drop_the_partial_tail() {
        let completions = [0.1, 0.2, 0.9, 1.5, 2.2, 2.3, 2.4, 2.95];
        let rates = window_rates(&completions, 1.0, 2.5);
        assert_eq!(rates, vec![3.0, 1.0]);
        let half = window_rates(&completions, 0.5, 3.0);
        assert_eq!(half, vec![4.0, 2.0, 0.0, 2.0, 6.0, 2.0]);
    }

    #[test]
    fn window_batches_stay_inside_kept_windows() {
        let completions = [0.1, 0.2, 0.4, 0.7, 0.9, 1.1, 1.2, 1.3, 1.4, 1.5, 2.5];
        let d = window_batches(&completions, 1.0, &[true, false, true], 2);
        // Window 0: 0.1 → 0.4, 0.4 → 0.9; window 1 skipped; window 2 has
        // one completion, too few for a batch.
        assert_eq!(d.len(), 2);
        assert!((d[0] - 0.3).abs() < 1e-12 && (d[1] - 0.5).abs() < 1e-12);
        let all = window_batches(&completions, 1.0, &[true, true, true], 2);
        assert_eq!(all.len(), 4);
    }
}
