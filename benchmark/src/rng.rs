//! The benchmark's own seeded randomness: every generated input — schedule
//! order, viewport trace, Zipf sample — is a pure function of `--seed`.

/// SplitMix64 (Steele, Lea & Flood): small, fast, and good enough to
/// shuffle schedules; the product's PRNGs are deliberately not used so the
/// inputs cannot change under the benchmark when they are refactored.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for a named purpose, so adding a draw in one
    /// generator never shifts another generator's sequence.
    pub fn stream(seed: u64, purpose: &str) -> Self {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in purpose.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Rng(seed ^ h)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2^-40 for any
    /// `n` the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One lap of a weighted schedule: class `c` appears exactly `weights[c]`
/// times, in seeded shuffled order. Exact counts (not random draws) keep
/// every lap's work identical, so throughput over whole laps does not
/// depend on where a phase happened to stop.
pub fn weighted_schedule(weights: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut lap: Vec<usize> = weights
        .iter()
        .enumerate()
        .flat_map(|(class, &w)| std::iter::repeat_n(class, w))
        .collect();
    rng.shuffle(&mut lap);
    lap
}

/// Zipf(s = 1) over ranks `0..n`: rank `k` is drawn with probability
/// proportional to `1 / (k + 1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let weights = [2, 2, 8, 6, 6, 2, 1, 4];
        let a = weighted_schedule(&weights, &mut Rng::stream(7, "schedule"));
        let b = weighted_schedule(&weights, &mut Rng::stream(7, "schedule"));
        let c = weighted_schedule(&weights, &mut Rng::stream(8, "schedule"));
        assert_eq!(a, b);
        assert_ne!(a, c, "another seed gives another order");
        for (class, &w) in weights.iter().enumerate() {
            assert_eq!(a.iter().filter(|&&x| x == class).count(), w);
            assert_eq!(c.iter().filter(|&&x| x == class).count(), w);
        }
    }

    #[test]
    fn zipf_is_seeded_and_skewed() {
        let zipf = Zipf::new(10_000);
        let draw = |seed| {
            let mut rng = Rng::stream(seed, "zipf");
            (0..5000).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        let a = draw(2019);
        assert_eq!(a, draw(2019));
        assert_ne!(a, draw(2020));
        assert!(a.iter().all(|&k| k < 10_000));
        // H(10) / H(10000) = 2.93 / 9.79: the ten hottest keys take about
        // 30 % of the draws.
        let hot = a.iter().filter(|&&k| k < 10).count() as f64 / a.len() as f64;
        assert!((0.25..0.35).contains(&hot), "hot share {hot}");
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        let mut a = Rng::stream(1, "schedule");
        let mut b = Rng::stream(1, "viewport");
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
