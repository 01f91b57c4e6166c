//! Deterministic zipf-distributed rank sampler for the traffic generator.

use hsc_sim::DetRng;

/// 2⁻⁵³: scales a 53-bit draw to a uniform `u` in `[0, 1)`. A power of
/// two, so the product is exact and equals dividing by 2⁵³.
const UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// Guide-table buckets per rank before rounding up to a power of two.
const BUCKETS_PER_RANK: u64 = 16;

/// Most guide-table buckets: 2¹⁶.
const MAX_BUCKETS: u64 = 1 << 16;

/// A zipf(θ) sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k+1)^θ`. `θ = 0` is the uniform
/// distribution; larger θ concentrates traffic on low ranks (the hot
/// lines), which is how shared-data skew is modelled everywhere from
/// YCSB to gem5's synthetic traffic generators.
///
/// A draw maps a [`DetRng`] value to `u` in `[0, 1)` and returns the
/// first rank whose CDF is `>= u`, found through a guide table: `K`
/// buckets (a power of two, about 16 per rank, at most 2¹⁶), where
/// `guide[j]` is the first rank with `cdf >= j/K`. Sampling starts at
/// `guide[⌊u·K⌋]` and scans forward, usually zero or one step.
///
/// The result is exactly the binary search's (`cdf.partition_point(|&c|
/// c < u)`): `K` is a power of two, so `⌊u·K⌋` and `j/K` are exact, and
/// every rank below `guide[⌊u·K⌋]` has `cdf < j/K <= u`, so the scan
/// starts at or before the answer. A given `(n, θ, seed)` triple
/// therefore always yields the same rank sequence — the property the
/// generator's determinism tests pin.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]`: the first rank with `cdf >= j / guide.len()`.
    guide: Vec<usize>,
}

impl Zipf {
    /// Builds the sampler for ranks `0..n` with skew `theta >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or non-finite.
    #[must_use]
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty rank space");
        assert!(theta >= 0.0 && theta.is_finite(), "zipf skew must be finite and >= 0");
        let mut cdf = Vec::with_capacity(n as usize);
        let mut total = 0.0f64;
        for k in 0..n {
            total += 1.0 / ((k + 1) as f64).powf(theta);
            cdf.push(total);
        }
        // Normalize so the final entry is exactly 1.0 and the scan can
        // never fall off the end.
        for c in &mut cdf {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        // One merge pass over the bucket starts and the CDF; `k` stops at
        // the last rank at the latest, whose CDF of 1.0 is >= every j/K.
        let buckets =
            (n.min(MAX_BUCKETS / BUCKETS_PER_RANK) * BUCKETS_PER_RANK).next_power_of_two();
        let mut guide = Vec::with_capacity(buckets as usize);
        let mut k = 0;
        for j in 0..buckets {
            let start = j as f64 / buckets as f64;
            while cdf[k] < start {
                k += 1;
            }
            guide.push(k);
        }
        Zipf { cdf, guide }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the rank space is empty (never true — `new` rejects `n == 0`).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draws the next rank in `[0, n)` from `rng`.
    pub fn sample(&self, rng: &mut DetRng) -> u64 {
        // 53 uniform mantissa bits: enough resolution for any corpus the
        // generator emits, and exactly representable in the CDF's f64s.
        self.rank((rng.next_u64() >> 11) as f64 * UNIT)
    }

    /// The first rank whose CDF is `>= u`, for `u` in `[0, 1)`.
    fn rank(&self, u: f64) -> u64 {
        let start = self.guide[(u * self.guide.len() as f64) as usize];
        (start + self.cdf[start..].iter().take_while(|&&c| c < u).count()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_rank_sequence() {
        let z = Zipf::new(128, 0.9);
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        let sa: Vec<u64> = (0..256).map(|_| z.sample(&mut a)).collect();
        let sb: Vec<u64> = (0..256).map(|_| z.sample(&mut b)).collect();
        assert_eq!(sa, sb, "sampling is a pure function of (n, theta, rng state)");
    }

    #[test]
    fn different_seeds_diverge() {
        let z = Zipf::new(128, 0.9);
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let sa: Vec<u64> = (0..64).map(|_| z.sample(&mut a)).collect();
        let sb: Vec<u64> = (0..64).map(|_| z.sample(&mut b)).collect();
        assert_ne!(sa, sb);
    }

    #[test]
    fn samples_stay_in_range() {
        for n in [1u64, 2, 7, 100] {
            let z = Zipf::new(n, 1.1);
            let mut rng = DetRng::new(5);
            for _ in 0..500 {
                assert!(z.sample(&mut rng) < n);
            }
        }
    }

    #[test]
    fn theta_zero_is_roughly_uniform() {
        let n = 16u64;
        let z = Zipf::new(n, 0.0);
        let mut rng = DetRng::new(9);
        let mut counts = vec![0u64; n as usize];
        let draws = 32_000;
        for _ in 0..draws {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let expected = draws / n;
        for (k, &c) in counts.iter().enumerate() {
            assert!(
                c > expected / 2 && c < expected * 2,
                "rank {k} count {c} too far from uniform {expected}"
            );
        }
    }

    #[test]
    fn skew_concentrates_on_low_ranks() {
        let n = 64u64;
        let z = Zipf::new(n, 1.2);
        let mut rng = DetRng::new(3);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..32_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        assert!(
            counts[0] > counts[31] * 4,
            "rank 0 ({}) must dominate rank 31 ({}) at theta=1.2",
            counts[0],
            counts[31]
        );
        // The head (first quarter of the ranks) carries a clear majority.
        let head: u64 = counts[..16].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(head * 3 > total * 2, "head {head} of {total} below 2/3");
        // Monotone-ish decay: averaged over octiles to smooth noise.
        let octile = |i: usize| counts[i * 8..(i + 1) * 8].iter().sum::<u64>();
        assert!(octile(0) > octile(3), "octile 0 must beat octile 3");
        assert!(octile(0) > octile(7), "octile 0 must beat octile 7");
    }

    #[test]
    fn single_rank_always_samples_zero() {
        let z = Zipf::new(1, 2.0);
        let mut rng = DetRng::new(1);
        assert!((0..100).all(|_| z.sample(&mut rng) == 0));
        assert_eq!(z.len(), 1);
        assert!(!z.is_empty());
    }

    const RANKS: [u64; 7] = [1, 2, 3, 7, 256, 4096, 65536];
    const THETAS: [f64; 5] = [0.0, 0.3, 0.9, 1.2, 2.5];

    /// The binary search the guide table replaces: the exactness oracle.
    fn oracle(z: &Zipf, u: f64) -> u64 {
        z.cdf.partition_point(|&c| c < u) as u64
    }

    /// `draws` seeded samples of every `(n, θ)` pair agree with the oracle.
    fn agrees_with_oracle_on_draws(draws: usize) {
        for n in RANKS {
            for theta in THETAS {
                let z = Zipf::new(n, theta);
                let mut rng = DetRng::new(n ^ theta.to_bits());
                let mut twin = rng.clone();
                for i in 0..draws {
                    // `u` by division, so the multiply by `UNIT` is checked too.
                    let u = (twin.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                    let want = oracle(&z, u);
                    assert_eq!(z.sample(&mut rng), want, "n={n} theta={theta} draw {i} u={u:e}");
                }
            }
        }
    }

    #[test]
    fn guide_table_sampling_matches_the_binary_search() {
        agrees_with_oracle_on_draws(20_000);
    }

    #[test]
    fn guide_table_is_exact_at_bucket_boundaries() {
        let largest = 1.0 - UNIT;
        assert_eq!(largest, ((1u64 << 53) - 1) as f64 / (1u64 << 53) as f64);
        for n in RANKS {
            for theta in THETAS {
                let z = Zipf::new(n, theta);
                let buckets = z.guide.len() as u64;
                assert!(buckets.is_power_of_two() && buckets <= MAX_BUCKETS);
                for j in 0..buckets {
                    let at = j as f64 / buckets as f64;
                    let below = if j == 0 { 0.0 } else { f64::from_bits(at.to_bits() - 1) };
                    for u in [at, below] {
                        assert_eq!(z.rank(u), oracle(&z, u), "n={n} theta={theta} u={u:e}");
                    }
                }
                assert_eq!(z.rank(largest), oracle(&z, largest), "n={n} theta={theta} u=1-2^-53");
            }
        }
    }

    #[test]
    #[ignore = "350M draws: run in release with --ignored"]
    fn guide_table_sampling_release_soak() {
        agrees_with_oracle_on_draws(10_000_000);
    }
}
