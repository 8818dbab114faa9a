//! Offline stand-in for `rand` 0.8: the traits and sampling algorithms this
//! repository calls (`Rng::{gen, gen_range, gen_bool}`, `SeedableRng::
//! seed_from_u64`, `SliceRandom::shuffle`). The algorithms follow rand 0.8's
//! (widening-multiply integers, mantissa-fill floats, PCG32 seed expansion)
//! but bit-identity with the published crate is not promised: a stream is
//! reproducible under this stand-in only.

use std::ops::{Range, RangeInclusive};

pub trait RngCore {
    fn next_u32(&mut self) -> u32;
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

pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as rand_core does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// Types `Rng::gen` can produce (rand's `Standard` distribution).
pub trait StandardSample: Sized {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardSample for u32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32()
    }
}
impl StandardSample for u64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64()
    }
}
impl StandardSample for usize {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() as usize
    }
}
impl StandardSample for bool {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() as i32) < 0
    }
}
impl StandardSample for f32 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}
impl StandardSample for f64 {
    fn sample_standard<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Types `Rng::gen_range` can produce.
pub trait SampleUniform: Sized {
    /// Uniform over `[low, high)`, or `[low, high]` when `inclusive`.
    fn sample_between<R: RngCore + ?Sized>(
        low: Self,
        high: Self,
        inclusive: bool,
        rng: &mut R,
    ) -> Self;
}

macro_rules! uniform_int {
    ($ty:ty, $unsigned:ty, $large:ty) => {
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                let high = if inclusive {
                    assert!(low <= high, "gen_range: empty range");
                    high
                } else {
                    assert!(low < high, "gen_range: empty range");
                    high - 1
                };
                let range = high.wrapping_sub(low).wrapping_add(1) as $unsigned as $large;
                if range == 0 {
                    return <$large as StandardSample>::sample_standard(rng) as $ty;
                }
                let zone = if <$unsigned>::MAX as u64 <= u16::MAX as u64 {
                    let ints_to_reject = (<$large>::MAX - range + 1) % range;
                    <$large>::MAX - ints_to_reject
                } else {
                    (range << range.leading_zeros()).wrapping_sub(1)
                };
                loop {
                    let v = <$large as StandardSample>::sample_standard(rng);
                    let wide = (v as u128) * (range as u128);
                    let (hi, lo) = ((wide >> <$large>::BITS) as $large, wide as $large);
                    if lo <= zone {
                        return low.wrapping_add(hi as $ty);
                    }
                }
            }
        }
    };
}

uniform_int!(u8, u8, u32);
uniform_int!(u16, u16, u32);
uniform_int!(u32, u32, u32);
uniform_int!(u64, u64, u64);
uniform_int!(usize, usize, u64);
uniform_int!(i8, u8, u32);
uniform_int!(i16, u16, u32);
uniform_int!(i32, u32, u32);
uniform_int!(i64, u64, u64);

macro_rules! uniform_float {
    ($ty:ty, $uty:ty, $discard:expr, $exp_bits:expr) => {
        impl SampleUniform for $ty {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self {
                // A mantissa of random bits under exponent 0 is uniform in [1, 2).
                let one_two = |bits: $uty| <$ty>::from_bits((bits >> $discard) | $exp_bits);
                let mut scale = if inclusive {
                    assert!(low <= high, "gen_range: empty range");
                    (high - low) / (one_two(<$uty>::MAX) - 1.0)
                } else {
                    assert!(low < high, "gen_range: empty range");
                    high - low
                };
                assert!(scale.is_finite(), "gen_range: non-finite range");
                loop {
                    let bits = <$uty as StandardSample>::sample_standard(rng);
                    let res = (one_two(bits) - 1.0) * scale + low;
                    if res < high || (inclusive && res <= high) {
                        return res;
                    }
                    // Rounding pushed the product onto `high`: shrink the
                    // scale by one ulp and redraw.
                    scale = <$ty>::from_bits(scale.to_bits() - 1);
                }
            }
        }
    };
}

uniform_float!(f32, u32, 9, 127u32 << 23);
uniform_float!(f64, u64, 12, 1023u64 << 52);

/// Range types `Rng::gen_range` accepts. One generic impl per range type
/// (not one per element type) so float-literal ranges infer from context.
pub trait SampleRange<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for Range<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_between(self.start, self.end, false, rng)
    }
}

impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
    fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        let (low, high) = self.into_inner();
        T::sample_between(low, high, true, rng)
    }
}

pub trait Rng: RngCore {
    fn gen<T: StandardSample>(&mut self) -> T {
        T::sample_standard(self)
    }

    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample_single(self)
    }

    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        self.next_u64() < (p * 2f64.powi(64)) as u64
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::{Rng, RngCore};

    pub trait SliceRandom {
        /// Fisher–Yates, high index first, as rand 0.8 does.
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R);
    }

    impl<T> SliceRandom for [T] {
        fn shuffle<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let bound = i + 1;
                let j = if bound <= u32::MAX as usize {
                    rng.gen_range(0..bound as u32) as usize
                } else {
                    rng.gen_range(0..bound)
                };
                self.swap(i, j);
            }
        }
    }
}
