//! The workspace's one pseudo-random number generator, and the seeded
//! property-check driver built on it.
//!
//! [`Rng64`] drives everything random in the simulator — fault
//! injection, campaign backoff jitter, chaos storms — and [`check`]
//! draws every property-test input from it, so a failing case is named
//! by one `u64` seed. The crate has no dependencies, in the same spirit
//! as `dtsvliw-json`: the build must work with no registry access.

pub mod check;

/// SplitMix64: a tiny, fast, seed-reproducible PRNG. Not cryptographic —
/// fault campaigns need reproducibility, not unpredictability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rng64 {
    state: u64,
}

impl Rng64 {
    /// Seeded generator; equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        Rng64 { state: seed }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, n)`; 0 when `n` is 0.
    pub fn below(&mut self, n: u64) -> u64 {
        if n == 0 {
            0
        } else {
            self.next_u64() % n
        }
    }

    /// Uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The raw generator state (machine snapshots).
    pub fn state(&self) -> u64 {
        self.state
    }

    /// A generator resumed at a previously captured [`Rng64::state`].
    pub fn from_state(state: u64) -> Self {
        Rng64 { state }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_reproducible_and_varied() {
        let mut a = Rng64::new(42);
        let mut b = Rng64::new(42);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        assert_eq!(xs, ys);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), xs.len(), "no collisions in 16 draws");
        let mut c = Rng64::new(43);
        assert_ne!(c.next_u64(), xs[0]);
    }

    #[test]
    fn unit_stays_in_range() {
        let mut r = Rng64::new(7);
        for _ in 0..1000 {
            let v = r.unit();
            assert!((0.0..1.0).contains(&v));
        }
    }
}
