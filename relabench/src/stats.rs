//! Sample statistics and the seed generator.
//!
//! Layer timings are medians; the tail is reported as the highest
//! percentile that still has ten samples beyond it, so a short loop never
//! passes one outlier off as "p99". The gated timings of the one-shot
//! workloads are taken at the [`floor`] of the op loop instead.

/// Median of a sample (mean of the two middle values for even sizes).
/// `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile `q` in `[0, 1]` of a sample.
/// `None` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The 10th percentile of a sample: what an op costs when nothing else
/// has the machine. On a shared host the neighbours only ever slow an op
/// down, and they do so for most of the ops of a run, by an amount that
/// drifts over minutes: over 25 twelve-second windows of back-to-back
/// `rela check` ops the window medians moved by 0.11 of themselves
/// (interquartile) and the window floors by 0.03. A change to the
/// program moves both alike, so the floor is the steadier place to look
/// for it. `None` for an empty sample.
pub fn floor(values: &[f64]) -> Option<f64> {
    quantile(values, 0.10)
}

/// The highest whole percentile with at least ten samples beyond it:
/// 40 samples → p75, 100 → p90, 300 → p96. `None` below 20 samples,
/// where that percentile would sit under the median.
pub fn tail_percentile(samples: usize) -> Option<u32> {
    if samples < 20 {
        return None;
    }
    Some((100 * (samples - 10) / samples) as u32)
}

/// The tail of a sample: `(percentile, value)` by the ten-samples-beyond
/// rule, or `None` when the sample is too small to have one.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let pct = tail_percentile(values.len())?;
    Some((pct, quantile(values, f64::from(pct) / 100.0)?))
}

/// Largest value of a sample.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// splitmix64: the benchmark's only source of randomness. The same seed
/// yields the same draws on every host, so `--seed` fully determines the
/// generated inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator keyed by `seed`.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw in `0..n` (`n` > 0). The modulo bias is irrelevant at the
    /// ranges used here (a few hundred at most).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct draws from `0..n`, in draw order (`k` ≤ `n`).
    pub fn distinct(&mut self, k: usize, n: u64) -> Vec<u64> {
        assert!(k as u64 <= n, "cannot draw {k} distinct values below {n}");
        let mut out = Vec::with_capacity(k);
        while out.len() < k {
            let v = self.below(n);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_on_odd_even_and_empty_samples() {
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[], 0.9), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        let v: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 0.25), Some(2.0));
        assert_eq!(quantile(&v, 1.0), Some(5.0));
        // interpolation between ranks
        assert_eq!(quantile(&[0.0, 10.0], 0.3), Some(3.0));
        assert_eq!(max(&[1.0, 9.0, 3.0]), Some(9.0));
        assert_eq!(max(&[]), None);
        // the floor is the 10th percentile, whatever the slow ops do
        let mut ops: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(floor(&ops), Some(10.0));
        ops[60..].iter_mut().for_each(|slow| *slow *= 3.0);
        assert_eq!(floor(&ops), Some(10.0));
        assert_eq!(floor(&[]), None);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(300), Some(96));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 90);
        assert!((value - 89.1).abs() < 1e-9);
        // at least ten samples lie beyond the reported value
        assert!(v.iter().filter(|&&x| x > value).count() >= 10);
        assert_eq!(tail(&v[..5]), None);
    }

    #[test]
    fn splitmix_is_deterministic_per_seed() {
        let draws = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..4).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draws(1), draws(1));
        assert_ne!(draws(1), draws(2));
        // reference values of splitmix64 from state 0
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xe220_a839_7b1d_cdaf);
        assert_eq!(rng.next_u64(), 0x6e78_9e6a_a1b9_65f4);
        let mut rng = SplitMix64::new(7);
        let picks = rng.distinct(5, 8);
        assert_eq!(picks.len(), 5);
        for (i, p) in picks.iter().enumerate() {
            assert!(*p < 8);
            assert!(!picks[..i].contains(p));
        }
    }
}
