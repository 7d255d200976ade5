//! Seeded input generation: a SplitMix64 stream and a Zipf sampler.
//!
//! The benchmark keeps its own generator so that the inputs a seed
//! produces do not depend on the workspace's `rand` shim.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for `(seed, tag)`, so each use of the seed
    /// (hot set, client 0, client 1, warm-up, ...) draws its own numbers.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut base = SplitMix(seed ^ tag.wrapping_mul(0xA24B_AED4_963E_E407));
        base.next_u64();
        SplitMix(base.next_u64() ^ tag)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut items: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            items.swap(i, self.below(i + 1));
        }
        items
    }
}

/// Zipf(s) over ranks `0..n`: `P(rank r) ∝ (r + 1)^-s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, exponent: f64) -> Self {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += ((r + 1) as f64).powf(-exponent);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut SplitMix) -> usize {
        let total = *self.cumulative.last().expect("non-empty support");
        let x = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= x)
            .min(self.cumulative.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_tags_separate_streams() {
        let draws = |mut r: SplitMix| (0..8).map(|_| r.next_u64()).collect::<Vec<_>>();
        assert_eq!(draws(SplitMix::derive(7, 1)), draws(SplitMix::derive(7, 1)));
        assert_ne!(draws(SplitMix::derive(7, 1)), draws(SplitMix::derive(7, 2)));
        assert_ne!(draws(SplitMix::derive(7, 1)), draws(SplitMix::derive(8, 1)));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let zipf = Zipf::new(1000, 1.1);
        let mut rng = SplitMix::derive(3, 0);
        let mut counts = vec![0usize; 1000];
        for _ in 0..20_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[500]);
        // P(rank 0) = 1 / H(1000, 1.1) ≈ 0.18.
        let p0 = counts[0] as f64 / 20_000.0;
        assert!((p0 - 0.18).abs() < 0.02, "p0 = {p0}");
    }

    #[test]
    fn permutation_is_a_permutation() {
        let mut p = SplitMix::derive(11, 0).permutation(1024);
        p.sort_unstable();
        assert_eq!(p, (0..1024).collect::<Vec<_>>());
    }
}
