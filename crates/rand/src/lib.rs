//! Offline stand-in for the `rand` crate.
//!
//! The build environment has no access to crates.io, so this workspace
//! vendors the *exact* API subset it uses: [`RngCore`], [`SeedableRng`],
//! the [`Rng`] extension trait (`gen`, `gen_range`), and
//! [`rngs::StdRng`]. The generator behind `StdRng` is xoshiro256\*\*
//! (public domain, Blackman & Vigna) seeded via the SplitMix64 expansion —
//! a different bitstream than upstream `rand`'s ChaCha12, but with the
//! same statistical quality and the same determinism contract: identical
//! seeds produce identical streams, forever, on every platform.
//!
//! Nothing in this workspace depends on upstream `rand`'s exact output;
//! every calibration band and golden snapshot was produced against this
//! implementation.
//!
//! There is deliberately no entropy constructor: no `from_entropy`,
//! `thread_rng`, `OsRng`, or `rand::random`. Every random stream in the
//! workspace must be reproducible from an explicit seed, and this API is
//! what enforces it — an unseeded generator does not compile.

#![forbid(unsafe_code)]

/// The core of every random number generator: a source of random words.
///
/// Mirrors `rand_core::RngCore` minus the fallible API.
pub trait RngCore {
    /// Returns the next random `u32`.
    fn next_u32(&mut self) -> u32;

    /// Returns the next random `u64`.
    fn next_u64(&mut self) -> u64;

    /// Fills `dest` with random bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let word = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&word[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A type that can be sampled uniformly from an [`RngCore`] via
/// [`Rng::gen`]. Stands in for `Standard: Distribution<T>`.
pub trait StandardSample {
    /// Draws one uniform value.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision — the same
    /// construction upstream `rand` uses for its `Standard` `f64`.
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardSample for f32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl StandardSample for u64 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl StandardSample for u32 {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl StandardSample for bool {
    fn standard_sample<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        rng.next_u64() & 1 == 1
    }
}

/// A range argument accepted by [`Rng::gen_range`].
pub trait SampleRange<T> {
    /// Draws one value uniformly from the range.
    ///
    /// # Panics
    ///
    /// Panics when the range is empty.
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl SampleRange<f64> for std::ops::Range<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        assert!(self.start < self.end, "empty f64 range");
        self.start + f64::standard_sample(rng) * (self.end - self.start)
    }
}

impl SampleRange<f64> for std::ops::RangeInclusive<f64> {
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "empty f64 range");
        lo + f64::standard_sample(rng) * (hi - lo)
    }
}

// Each integer type samples through its same-width unsigned twin: the
// span `hi - lo` is computed there, where it cannot overflow even for a
// full-width signed range, and the offset is added back with wrapping
// arithmetic, which lands in `[lo, hi]` because the true sum does.
macro_rules! int_sample_range {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange<$t> for std::ops::Range<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty integer range");
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                self.start.wrapping_add(reject_free_mod(rng, span) as $t)
            }
        }

        impl SampleRange<$t> for std::ops::RangeInclusive<$t> {
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty integer range");
                let Some(span) = ((hi as $u).wrapping_sub(lo as $u) as u64).checked_add(1) else {
                    // Full-width inclusive range of a 64-bit type.
                    return rng.next_u64() as $t;
                };
                lo.wrapping_add(reject_free_mod(rng, span) as $t)
            }
        }
    )*};
}

int_sample_range!(u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize, i32 => u32, i64 => u64);

/// Uniform integer in `[0, span)` by rejection sampling (Lemire-style
/// threshold), so small spans carry no modulo bias.
fn reject_free_mod<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = u64::MAX - u64::MAX.wrapping_rem(span);
    loop {
        let v = rng.next_u64();
        if v < zone {
            return v % span;
        }
    }
}

/// Convenience extension methods over any [`RngCore`].
pub trait Rng: RngCore {
    /// Uniform sample of a [`StandardSample`] type (`f64` in `[0,1)`,
    /// full-width integers, …).
    fn gen<T: StandardSample>(&mut self) -> T {
        T::standard_sample(self)
    }

    /// Uniform sample from a range (`lo..hi` or `lo..=hi`).
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_from(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        f64::standard_sample(self) < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// A generator seedable from a `u64` — the only constructor, so every
/// stream is reproducible from its seed.
pub trait SeedableRng: Sized {
    /// Builds a generator whose stream is fully determined by `state`.
    fn seed_from_u64(state: u64) -> Self;
}

/// Named generators, mirroring `rand::rngs`.
pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The workspace's standard deterministic generator: xoshiro256\*\*
    /// seeded by SplitMix64 expansion of a `u64`.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    /// SplitMix64 step, used to expand a 64-bit seed into generator state.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(state: u64) -> StdRng {
            let mut sm = state;
            let mut s = [0u64; 4];
            for word in &mut s {
                *word = splitmix64(&mut sm);
            }
            // xoshiro's all-zero state is a fixed point; SplitMix64 cannot
            // produce four zero outputs in a row, but guard anyway.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            // xoshiro256** by David Blackman and Sebastiano Vigna.
            let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = self.s[1] << 17;
            self.s[2] ^= self.s[0];
            self.s[3] ^= self.s[1];
            self.s[1] ^= self.s[2];
            self.s[0] ^= self.s[3];
            self.s[2] ^= t;
            self.s[3] = self.s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, RngCore, SeedableRng};

    #[test]
    fn same_seed_same_stream() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a: u64 = StdRng::seed_from_u64(1).next_u64();
        let b: u64 = StdRng::seed_from_u64(2).next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn f64_samples_stay_in_unit_interval_and_cover_it() {
        let mut rng = StdRng::seed_from_u64(42);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        for _ in 0..10_000 {
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
        }
        assert!(lo < 0.01 && hi > 0.99, "poor coverage: [{lo}, {hi}]");
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..1_000 {
            let x = rng.gen_range(3u64..10);
            assert!((3..10).contains(&x));
            let y = rng.gen_range(5.0f64..=6.0);
            assert!((5.0..=6.0).contains(&y));
            let z = rng.gen_range(-4i64..=4);
            assert!((-4..=4).contains(&z));
        }
    }

    #[test]
    fn gen_range_mean_is_centered() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| rng.gen_range(0.0f64..1.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn dyn_rng_core_supports_gen() {
        // `&mut dyn RngCore` must support the `Rng` extension methods —
        // ssfa-stats samples distributions through exactly this shape.
        let mut rng = StdRng::seed_from_u64(5);
        let dyn_rng: &mut dyn RngCore = &mut rng;
        let u: f64 = dyn_rng.gen();
        assert!((0.0..1.0).contains(&u));
    }

    #[test]
    fn fill_bytes_covers_partial_words() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }

    /// Every type's full-width ranges, inclusive and exclusive, sample in
    /// bounds without overflowing (this suite runs in debug builds, where
    /// overflow panics).
    #[test]
    fn full_width_ranges_sample_in_bounds() {
        macro_rules! full_width {
            ($rng:expr, $($t:ty),*) => {$(
                for _ in 0..200 {
                    let x = $rng.gen_range(<$t>::MIN..=<$t>::MAX);
                    assert!((<$t>::MIN..=<$t>::MAX).contains(&x));
                    let y = $rng.gen_range(<$t>::MIN..<$t>::MAX);
                    assert!((<$t>::MIN..<$t>::MAX).contains(&y));
                }
            )*};
        }
        let mut rng = StdRng::seed_from_u64(13);
        full_width!(rng, u8, u16, u32, u64, usize, i32, i64);
    }

    /// A full signed range covers both signs, so the offset is added back
    /// with the right wrap rather than clamped or shifted.
    #[test]
    fn full_signed_ranges_yield_negative_and_positive_values() {
        let mut rng = StdRng::seed_from_u64(17);
        let inclusive: Vec<i32> = (0..200)
            .map(|_| rng.gen_range(i32::MIN..=i32::MAX))
            .collect();
        let exclusive: Vec<i32> = (0..200)
            .map(|_| rng.gen_range(i32::MIN..i32::MAX))
            .collect();
        let wide: Vec<i64> = (0..200)
            .map(|_| rng.gen_range(i64::MIN..=i64::MAX))
            .collect();
        assert!(inclusive.iter().any(|&x| x < 0) && inclusive.iter().any(|&x| x > 0));
        assert!(exclusive.iter().any(|&x| x < 0) && exclusive.iter().any(|&x| x > 0));
        assert!(wide.iter().any(|&x| x < 0) && wide.iter().any(|&x| x > 0));
    }
}
