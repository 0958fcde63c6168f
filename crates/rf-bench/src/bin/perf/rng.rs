//! Seeded input generation owned by the benchmark.
//!
//! Every tensor, slot/lane sequence and arrival schedule derives from the one
//! `seed` argument through [`Rng::fork`], so a stream's values depend only on
//! the seed and the stream's tag — never on the order streams are drawn in,
//! and never on code outside the benchmark's directory.

use rf_workloads::Matrix;

/// SplitMix64: small, fast, and good enough for synthetic tensors.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// An independent stream for `tag`, derived from this stream's state
    /// without advancing it.
    pub fn fork(&self, tag: &str) -> Rng {
        // FNV-1a over the tag, mixed into the parent state.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        let mut child = Rng(self.0 ^ h.rotate_left(17));
        child.next_u64();
        child
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, low: f64, high: f64) -> f64 {
        low + (high - low) * self.unit()
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn vector(&mut self, len: usize, low: f64, high: f64) -> Vec<f64> {
        (0..len).map(|_| self.range(low, high)).collect()
    }

    pub fn matrix(&mut self, rows: usize, cols: usize, low: f64, high: f64) -> Matrix {
        Matrix::from_vec(rows, cols, self.vector(rows * cols, low, high))
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Arrival offsets (ns from phase start) of a steady Poisson process at
/// `rate_rps` covering `duration_s`.
pub fn poisson_schedule(rng: &mut Rng, rate_rps: f64, duration_s: f64) -> Vec<u64> {
    let horizon_ns = duration_s * 1e9;
    let mut due = Vec::with_capacity((rate_rps * duration_s * 1.05) as usize + 16);
    let mut t_ns = 0.0f64;
    loop {
        // Inverse CDF of the exponential gap; 1 - unit() is in (0, 1].
        t_ns += -(1.0 - rng.unit()).ln() / rate_rps * 1e9;
        if t_ns >= horizon_ns {
            return due;
        }
        due.push(t_ns as u64);
    }
}

/// Order-sensitive checksum of a tensor's exact bit patterns (FNV-1a).
#[cfg(test)]
pub fn checksum(values: &[f64]) -> u64 {
    values.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forks_depend_on_seed_and_tag_only() {
        let root = Rng::new(42);
        let mut a = root.fork("mha.q");
        // Drawing from one fork does not disturb a sibling forked later.
        root.fork("mha.k").next_u64();
        let mut b = root.fork("mha.q");
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(
            Rng::new(42).fork("mha.q").next_u64(),
            Rng::new(42).fork("mha.k").next_u64()
        );
        assert_ne!(
            Rng::new(42).fork("mha.q").next_u64(),
            Rng::new(43).fork("mha.q").next_u64()
        );
    }

    #[test]
    fn same_seed_same_schedule_and_tensors_different_seed_differs() {
        let schedule = |seed| poisson_schedule(&mut Rng::new(seed).fork("open"), 10_000.0, 0.05);
        assert_eq!(schedule(7), schedule(7));
        assert_ne!(schedule(7), schedule(8));
        let sum = |seed| checksum(Rng::new(seed).fork("x").matrix(4, 16, -1.0, 1.0).as_slice());
        assert_eq!(sum(7), sum(7));
        assert_ne!(sum(7), sum(8));
    }

    #[test]
    fn poisson_schedule_is_sorted_in_range_and_near_the_rate() {
        let due = poisson_schedule(&mut Rng::new(1), 20_000.0, 0.5);
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(*due.last().unwrap() < 500_000_000);
        // 10k expected arrivals; 5 sigma of a Poisson count is 500.
        assert!((9_500..=10_500).contains(&due.len()), "{}", due.len());
    }

    #[test]
    fn values_stay_in_range() {
        let mut rng = Rng::new(3);
        assert!(rng
            .vector(1000, -2.0, 3.0)
            .iter()
            .all(|v| (-2.0..3.0).contains(v)));
        assert!((0..1000).all(|_| rng.below(7) < 7));
        let mut items: Vec<usize> = (0..20).collect();
        rng.shuffle(&mut items);
        items.sort_unstable();
        assert_eq!(items, (0..20).collect::<Vec<_>>());
    }
}
