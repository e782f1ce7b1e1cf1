//! Offline stand-in for the part of `rand` 0.8 that grade10 uses.
//!
//! The algorithms follow rand 0.8 step for step — PCG32 seed expansion,
//! widening-multiply integer ranges with the conservative rejection zone,
//! 52-bit float ranges, 64-bit Bernoulli — because the committed goldens
//! pin the value stream, not just its distribution.

use std::ops::{Range, RangeInclusive};

/// Source of random words.
pub trait RngCore {
    /// Next 32 random bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64;
}

/// A generator that can be built from a fixed-size seed.
pub trait SeedableRng: Sized {
    /// Seed type, a byte array.
    type Seed: Default + AsMut<[u8]>;

    /// Builds the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as rand 0.8 does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let bytes = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u32 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        rng.next_u32()
    }
}

impl Standard for u64 {
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for f64 {
    /// 53 random bits scaled into `[0, 1)`.
    fn draw<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges `Rng::gen_range` accepts.
pub trait SampleRange<T> {
    /// Draws one value from the range.
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Types with a uniform sampler over `[low, high)`. The range impls below
/// are generic over this trait (not one impl per type) so that
/// `gen_range(0..4)` infers its integer type from how the result is used,
/// as it does with rand.
pub trait SampleUniform: Sized {
    /// Uniform in `[low, high)`.
    fn sample_half_open<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

/// Types that can also be sampled over `[low, high]`: the integers.
pub trait SampleInclusive: Sized {
    /// Uniform in `[low, high]`.
    fn sample_inclusive<R: RngCore + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_half_open(self.start, self.end, rng)
    }
}

impl<T: SampleInclusive> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_inclusive(low, high, rng)
    }
}

/// Integer samplers: `$large` is the word drawn (u32 for types up to 32
/// bits, u64 above), `$wide` holds its widening product with the range.
macro_rules! uniform_int {
    ($($ty:ty, $unsigned:ty, $large:ty, $wide:ty);* $(;)?) => {$(
        impl SampleInclusive for $ty {
            fn sample_inclusive<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low <= high, "gen_range: low > high");
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    // The whole type: any word will do.
                    return <$large as Standard>::draw(rng) as $ty;
                }
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as Standard>::draw(rng);
                    let wide = v as $wide * range as $wide;
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }

        impl SampleUniform for $ty {
            fn sample_half_open<R: RngCore + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                assert!(low < high, "gen_range: empty range");
                Self::sample_inclusive(low, high - 1, rng)
            }
        }
    )*};
}

uniform_int! {
    u8, u8, u32, u64;
    u16, u16, u32, u64;
    u32, u32, u32, u64;
    u64, u64, u64, u128;
    usize, usize, u64, u128;
    i8, u8, u32, u64;
    i16, u16, u32, u64;
    i32, u32, u32, u64;
    i64, u64, u64, u128;
    isize, usize, u64, u128;
}

impl SampleUniform for f64 {
    fn sample_half_open<R: RngCore + ?Sized>(low: f64, high: f64, rng: &mut R) -> f64 {
        assert!(low < high, "gen_range: empty range");
        let mut scale = high - low;
        assert!(scale.is_finite(), "gen_range: range overflow");
        loop {
            // 52 random mantissa bits under exponent 0 give [1, 2).
            let value1_2 = f64::from_bits((rng.next_u64() >> 12) | (1023u64 << 52));
            let res = (value1_2 - 1.0) * scale + low;
            if res < high {
                return res;
            }
            // Rounding reached `high`: shrink the scale by one ulp and retry.
            scale = f64::from_bits(scale.to_bits() - 1);
        }
    }
}

/// User-facing sampling methods, implemented for every [`RngCore`].
pub trait Rng: RngCore {
    /// A value of `T` from its standard distribution.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// A value uniform in `range`.
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!(
            (0.0..=1.0).contains(&p),
            "gen_bool: p={p} is outside [0, 1]"
        );
        if p == 1.0 {
            return true;
        }
        // 2^64 as f64; p < 1 keeps the product in u64 range.
        let p_int = (p * (2.0 * (1u64 << 63) as f64)) as u64;
        self.next_u64() < p_int
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter generator: every draw is predictable, so the tests pin
    /// the arithmetic rather than a stream.
    struct Counter(u64);

    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            self.0
        }
    }

    #[test]
    fn integer_ranges_stay_in_bounds() {
        let mut rng = Counter(1);
        for _ in 0..10_000 {
            assert!((3..17usize).contains(&rng.gen_range(3..17usize)));
            assert!((-5..=5i32).contains(&rng.gen_range(-5..=5)));
            assert!((0..=u64::MAX).contains(&rng.gen_range(0..=u64::MAX)));
            assert_eq!(rng.gen_range(9..10u16), 9);
        }
    }

    #[test]
    fn float_ranges_are_half_open() {
        let mut rng = Counter(7);
        for _ in 0..10_000 {
            let x: f64 = rng.gen_range(0.5..10.0);
            assert!((0.5..10.0).contains(&x));
            let u: f64 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn gen_bool_extremes_are_certain() {
        let mut rng = Counter(3);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
    }

    #[test]
    fn seed_expansion_matches_pcg32_reference() {
        struct Raw([u8; 8]);
        impl SeedableRng for Raw {
            type Seed = [u8; 8];
            fn from_seed(seed: [u8; 8]) -> Raw {
                Raw(seed)
            }
        }
        // First two PCG32 outputs for state 0 with rand's constants.
        let Raw(seed) = Raw::seed_from_u64(0);
        let mut state = 0u64;
        let mut expect = Vec::new();
        for _ in 0..2 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(11634580027462260723);
            let x = ((((state >> 18) ^ state) >> 27) as u32).rotate_right((state >> 59) as u32);
            expect.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(seed.to_vec(), expect);
    }
}
