//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace-local package shadows `rand 0.8` with a deterministic
//! SplitMix64 generator implementing exactly the API surface the
//! workspace uses: `rngs::StdRng`, `SeedableRng::seed_from_u64`, and
//! `Rng::{gen_range, gen_bool}` over primitive integer ranges.
//!
//! The stream differs from the real `rand` crate's ChaCha-based
//! `StdRng`, but every consumer in this workspace records its own
//! ground truth alongside the draws (e.g. `vault_corpus::synth` returns
//! the seeded-bug list it actually generated), so only determinism per
//! seed matters — and SplitMix64 is fully deterministic.

/// Generators, mirroring `rand::rngs`.
pub mod rngs {
    /// Deterministic generator standing in for `rand::rngs::StdRng`.
    ///
    /// SplitMix64 (Steele, Lea & Flood, *Fast splittable pseudorandom
    /// number generators*, OOPSLA 2014): passes BigCrush, one u64 of
    /// state, and trivially seedable from a u64 — ideal for a
    /// reproducible test/bench workload generator.
    #[derive(Clone, Debug)]
    pub struct StdRng {
        state: u64,
    }

    impl StdRng {
        pub(crate) fn from_u64_seed(seed: u64) -> Self {
            StdRng { state: seed }
        }

        /// Next raw 64-bit output.
        pub(crate) fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }
}

/// Seeding, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    /// Create a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

impl SeedableRng for rngs::StdRng {
    fn seed_from_u64(seed: u64) -> Self {
        rngs::StdRng::from_u64_seed(seed)
    }
}

/// A half-open range a value can be drawn from, mirroring
/// `rand::distributions::uniform::SampleRange`.
pub trait SampleRange<T> {
    /// Draw a value uniformly from the range.
    fn sample(self, rng: &mut rngs::StdRng) -> T;
}

macro_rules! impl_sample_range {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u128;
                // Modulo bias is ~2^-64 for the tiny spans used here;
                // irrelevant for workload generation.
                let draw = (rng.next_u64() as u128) % span;
                (self.start as i128 + draw as i128) as $t
            }
        }
        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample(self, rng: &mut rngs::StdRng) -> $t {
                let (start, end) = (*self.start(), *self.end());
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128) as u128 + 1;
                let draw = (rng.next_u64() as u128) % span;
                (start as i128 + draw as i128) as $t
            }
        }
    )*};
}

impl_sample_range!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Random-value methods, mirroring `rand::Rng`.
pub trait Rng {
    /// Draw uniformly from `range`.
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T;
    /// Bernoulli draw: `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool;
}

impl Rng for rngs::StdRng {
    fn gen_range<T, R: SampleRange<T>>(&mut self, range: R) -> T {
        range.sample(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} out of [0, 1]");
        // 53 high bits -> uniform f64 in [0, 1).
        ((self.next_u64() >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rngs::StdRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = StdRng::seed_from_u64(43);
        assert_ne!(StdRng::seed_from_u64(42).next_u64(), c.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            let x: u8 = rng.gen_range(0..6u8);
            assert!(x < 6);
            let y = rng.gen_range(-5i64..5);
            assert!((-5..5).contains(&y));
            let z: usize = rng.gen_range(1..=4usize);
            assert!((1..=4).contains(&z));
        }
    }

    #[test]
    fn gen_bool_respects_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        let hits = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "hits={hits}");
    }
}
