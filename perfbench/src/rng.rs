//! A small seeded generator (SplitMix64): every input of a run derives
//! from the `--seed` argument through it, so one seed always yields the
//! same datasets and the same request stream.

/// SplitMix64 state.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from other streams by `salt`.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A uniform point of the standard simplex (a valid weighting vector:
    /// non-negative, summing to one).
    pub fn simplex(&mut self, dim: usize) -> Vec<f64> {
        let mut w: Vec<f64> = (0..dim)
            .map(|_| -(self.unit().max(f64::EPSILON)).ln())
            .collect();
        let total: f64 = w.iter().sum();
        for x in &mut w {
            *x /= total;
        }
        w
    }
}
