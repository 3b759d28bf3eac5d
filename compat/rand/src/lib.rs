//! Offline stand-in for the [`rand`](https://crates.io/crates/rand) crate.
//!
//! The build environment has no registry access, so the workspace vendors the
//! tiny slice of the `rand 0.8` API it actually uses: the [`Rng`] /
//! [`SeedableRng`] traits, `gen_range` over half-open and inclusive ranges,
//! and a deterministic [`rngs::SmallRng`] (xoshiro256++ seeded via SplitMix64,
//! the same construction real `rand` uses for its small RNG).
//!
//! Determinism is the only contract the workspace relies on: the same seed
//! always yields the same stream on every platform.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Low-level source of random `u32`/`u64` values.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// User-facing random-value methods, mirroring `rand::Rng`.
pub trait Rng: RngCore {
    /// Uniform sample from `range` (half-open `a..b` or inclusive `a..=b`).
    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        R: SampleRange<T>,
        Self: Sized,
    {
        range.sample_from(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// RNGs constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Build the generator from a single `u64` seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Types that can be sampled uniformly from a range, mirroring `rand`'s
/// `SampleUniform`.
///
/// Keeping a *single* generic [`SampleRange`] impl over this trait (rather
/// than one impl per concrete type) is what lets type inference unify an
/// unsuffixed literal range like `0.0..1.0` with a surrounding `f32` context,
/// exactly as real `rand` does.
pub trait SampleUniform: Copy {
    /// Uniform sample from `[lo, hi)`.
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
    /// Uniform sample from `[lo, hi]`.
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self;
}

/// Ranges that can produce a uniform sample, mirroring `rand`'s `SampleRange`.
pub trait SampleRange<T> {
    /// Draw one uniform sample from the range.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::Range<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        assert!(self.start < self.end, "gen_range on empty range");
        T::sample_half_open(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + PartialOrd> SampleRange<T> for core::ops::RangeInclusive<T> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (lo, hi) = self.into_inner();
        assert!(lo <= hi, "gen_range on empty range");
        T::sample_inclusive(rng, lo, hi)
    }
}

macro_rules! int_uniform_impls {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
            fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
                let span = (hi as i128 - lo as i128) as u128 + 1;
                let v = (rng.next_u64() as u128) % span;
                (lo as i128 + v as i128) as $t
            }
        }
    )*};
}

int_uniform_impls!(usize, u64, u32, i64, i32, i16, u16, u8, i8);

impl SampleUniform for f32 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        // 24 random mantissa bits -> u in [0, 1) with full f32 resolution.
        let u = (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32);
        let v = lo + (hi - lo) * u;
        // Guard against rounding up to the excluded endpoint.
        if v >= hi {
            hi - (hi - lo) * f32::EPSILON
        } else {
            v
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u32() >> 8) as f32 * (1.0 / ((1u32 << 24) - 1) as f32);
        (lo + (hi - lo) * u).clamp(lo, hi)
    }
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let v = lo + (hi - lo) * u;
        if v >= hi {
            hi - (hi - lo) * f64::EPSILON
        } else {
            v
        }
    }
    fn sample_inclusive<R: RngCore + ?Sized>(rng: &mut R, lo: Self, hi: Self) -> Self {
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / ((1u64 << 53) - 1) as f64);
        (lo + (hi - lo) * u).clamp(lo, hi)
    }
}

/// Concrete generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// Deterministic xoshiro256++ generator (the algorithm behind real
    /// `rand`'s `SmallRng` on 64-bit targets).
    #[derive(Clone, Debug)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(seed: u64) -> Self {
            // SplitMix64 expansion, as real rand does for small seeds.
            let mut sm = seed;
            let mut next = || {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^ (z >> 31)
            };
            let s = [next(), next(), next(), next()];
            SmallRng { s }
        }
    }

    impl SmallRng {
        /// Snapshot the raw xoshiro256++ state (checkpoint support).
        ///
        /// Together with [`SmallRng::from_state`] this makes the generator
        /// fully serialisable: a restored generator continues the exact
        /// stream the snapshot was taken from.
        pub fn state(&self) -> [u64; 4] {
            self.s
        }

        /// Rebuild a generator from a snapshot taken with
        /// [`SmallRng::state`].
        ///
        /// # Panics
        /// Panics on the all-zero state, which is invalid for xoshiro256++
        /// (the generator would emit zeros forever).
        pub fn from_state(s: [u64; 4]) -> Self {
            assert!(
                s.iter().any(|&w| w != 0),
                "all-zero xoshiro256++ state is invalid"
            );
            SmallRng { s }
        }
    }

    impl RngCore for SmallRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::SmallRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn deterministic_across_instances() {
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.gen_range(0usize..1000), b.gen_range(0usize..1000));
        }
    }

    #[test]
    fn float_range_respects_bounds() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = rng.gen_range(-0.5f32..0.5);
            assert!((-0.5..0.5).contains(&v), "{v}");
        }
    }

    #[test]
    fn int_ranges_cover_span() {
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[rng.gen_range(0usize..5)] = true;
            let inc = rng.gen_range(0usize..=4);
            assert!(inc <= 4);
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn state_roundtrip_continues_stream() {
        let mut a = SmallRng::seed_from_u64(11);
        for _ in 0..17 {
            a.gen_range(0usize..100);
        }
        let mut b = SmallRng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.gen_range(0u64..1 << 40), b.gen_range(0u64..1 << 40));
        }
    }

    #[test]
    #[should_panic]
    fn all_zero_state_rejected() {
        let _ = SmallRng::from_state([0; 4]);
    }

    #[test]
    fn works_through_mut_reference() {
        fn take(rng: &mut impl Rng) -> f32 {
            rng.gen_range(0.0f32..1.0)
        }
        let mut rng = SmallRng::seed_from_u64(3);
        let v = take(&mut rng);
        assert!((0.0..1.0).contains(&v));
    }
}
