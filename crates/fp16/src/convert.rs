//! Bit-level conversions between binary32 and binary16.
//!
//! Both directions are implemented directly on the IEEE-754 bit patterns.
//! `f32 -> f16` uses round-to-nearest, ties-to-even, including the subnormal
//! range; `f16 -> f32` is exact (every binary16 value is representable in
//! binary32).
//!
//! Neither function branches on its input. Every `F16` kernel converts
//! once per `x`/B element it reads and once per `y` element it writes, and
//! on such data a test like "round up?" goes either way at random: the
//! earlier branch-tree bodies mispredicted on about every other output
//! element. Each function now computes the candidate result of every
//! input class with plain integer and `f32` arithmetic and picks one with
//! [`select_unpredictable`], which keeps the compiler from turning the
//! pick back into a branch (it did so for the subnormal test). The tests
//! keep those earlier bodies as references and hold both functions bit for
//! bit equal to them on every input (every `f32` input in release builds).

use core::hint::select_unpredictable;

/// `0.5`: adding it to a magnitude below 2^-14 leaves the binary16
/// subnormal lattice (steps of 2^-24) as the low bits of the sum, rounded
/// to nearest even by the `f32` add itself.
const HALF: f32 = 0.5;

/// Converts an `f32` to the nearest binary16 bit pattern.
///
/// Rounding is round-to-nearest, ties-to-even. Values whose magnitude exceeds
/// the binary16 maximum (65504) round to infinity; values below the smallest
/// subnormal round to (signed) zero. NaNs map to a quiet NaN that preserves
/// the sign and sets a payload bit so the result stays a NaN.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = (bits >> 16) & 0x8000;
    let a = bits & 0x7fff_ffff;
    // |x| < 2^-14: subnormal or zero result, rounded by the f32 add.
    let subnormal = (f32::from_bits(a) + HALF).to_bits() - HALF.to_bits();
    // 2^-14 <= |x|: re-bias the exponent (127 -> 15) and round the 13 cut
    // mantissa bits to nearest even; a carry moves into the exponent, up
    // to infinity at 65520.
    let normal = a
        .wrapping_sub(112 << 23)
        .wrapping_add(0xfff + ((a >> 13) & 1))
        >> 13;
    let finite = select_unpredictable(a < 113 << 23, subnormal, normal);
    // |x| >= 65536, infinity or NaN (which keeps a payload bit).
    let special = select_unpredictable(a > 0x7f80_0000, 0x7e00, 0x7c00);
    let mag = select_unpredictable(a >= 143 << 23, special, finite);
    (sign | mag) as u16
}

/// Converts a binary16 bit pattern to the exactly-equal `f32`.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let h = u32::from(h);
    let sign = (h & 0x8000) << 16;
    let mag = h & 0x7fff;
    // Zeros, subnormals and normals: the magnitude's bits, placed in the
    // f32 fields, read 2^-112 times the value (the exponent biases differ
    // by 112; a binary16 subnormal lands on an f32 subnormal), so one
    // exact scaling by 2^112 finishes the job.
    let finite = (f32::from_bits(mag << 13) * f32::from_bits((127 + 112) << 23)).to_bits();
    // Infinity or NaN: all-ones exponent, payload shifted up.
    let special = 0x7f80_0000 | (mag << 13);
    f32::from_bits(sign | select_unpredictable(mag >= 0x7c00, special, finite))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The branch-tree narrowing this module shipped before the branch-free
    /// form; the exhaustive tests hold the two equal on every input.
    fn reference_f32_to_f16_bits(x: f32) -> u16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp32 = ((bits >> 23) & 0xff) as i32;
        let man = bits & 0x007f_ffff;

        if exp32 == 0xff {
            // Infinity or NaN. Force a payload bit for NaN so it stays NaN.
            return if man != 0 {
                sign | 0x7e00
            } else {
                sign | 0x7c00
            };
        }

        // Re-bias the exponent from binary32 (127) to binary16 (15).
        let exp = exp32 - 127 + 15;

        if exp >= 0x1f {
            // Overflow: round to infinity.
            return sign | 0x7c00;
        }

        if exp <= 0 {
            // Result is subnormal (or rounds to zero). The binary16 subnormal
            // lattice is k * 2^-24; shift the 24-bit significand into place.
            if exp < -10 {
                // Magnitude < 2^-25: below half the smallest subnormal => 0.
                // (exp == -10 can still round up to the smallest subnormal.)
                return sign;
            }
            let significand = man | 0x0080_0000; // add the implicit leading 1
            let shift = (14 - exp) as u32; // in 15..=24
            let halfway = 1u32 << (shift - 1);
            let rem = significand & ((1u32 << shift) - 1);
            let mut m = significand >> shift;
            if rem > halfway || (rem == halfway && (m & 1) == 1) {
                m += 1; // may carry into the exponent field: smallest normal, still correct
            }
            return sign | m as u16;
        }

        // Normal range: round the 23-bit mantissa down to 10 bits.
        let rem = man & 0x1fff;
        let mut m = man >> 13;
        let mut e = exp as u32;
        if rem > 0x1000 || (rem == 0x1000 && (m & 1) == 1) {
            m += 1;
            if m == 0x400 {
                // Mantissa overflowed into the exponent.
                m = 0;
                e += 1;
                if e >= 0x1f {
                    return sign | 0x7c00;
                }
            }
        }
        sign | ((e as u16) << 10) | m as u16
    }

    /// The branch-tree widening this module shipped before the branch-free
    /// form.
    fn reference_f16_bits_to_f32(h: u16) -> f32 {
        let sign = ((h & 0x8000) as u32) << 16;
        let exp = (h >> 10) & 0x1f;
        let man = (h & 0x03ff) as u32;

        if exp == 0x1f {
            // Infinity or NaN; shift the payload up to the binary32 field.
            return f32::from_bits(sign | 0x7f80_0000 | (man << 13));
        }
        if exp == 0 {
            if man == 0 {
                return f32::from_bits(sign); // signed zero
            }
            // Subnormal: value is man * 2^-24, exact in f32.
            let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
            return if sign != 0 { -v } else { v };
        }
        // Normal: re-bias exponent (15 -> 127 is +112) and widen the mantissa.
        f32::from_bits(sign | ((exp as u32 + 112) << 23) | (man << 13))
    }

    #[test]
    fn known_values_round_trip() {
        let cases: &[(f32, u16)] = &[
            (0.0, 0x0000),
            (-0.0, 0x8000),
            (1.0, 0x3c00),
            (-1.0, 0xbc00),
            (2.0, 0x4000),
            (0.5, 0x3800),
            (65504.0, 0x7bff), // largest finite f16
            (-65504.0, 0xfbff),
            (f32::INFINITY, 0x7c00),
            (f32::NEG_INFINITY, 0xfc00),
            (6.103_515_6e-5, 0x0400), // smallest normal, 2^-14
            (5.960_464_5e-8, 0x0001), // smallest subnormal, 2^-24
            (0.333_251_95, 0x3555),   // nearest f16 to 1/3
        ];
        for &(f, bits) in cases {
            assert_eq!(f32_to_f16_bits(f), bits, "encoding {f}");
            assert_eq!(f16_bits_to_f32(bits), f, "decoding {bits:#06x}");
        }
    }

    #[test]
    fn overflow_rounds_to_infinity() {
        // Halfway point between 65504 (max) and 65536 ("next" value) is
        // 65520; at and above it, round-to-nearest-even gives infinity.
        assert_eq!(f32_to_f16_bits(65520.0), 0x7c00);
        assert_eq!(f32_to_f16_bits(65519.996), 0x7bff);
        assert_eq!(f32_to_f16_bits(1e30), 0x7c00);
        assert_eq!(f32_to_f16_bits(-1e30), 0xfc00);
    }

    #[test]
    fn underflow_rounds_to_zero() {
        // Half the smallest subnormal is 2^-25; exactly there, ties-to-even
        // rounds to zero. Just above, it rounds up to the smallest subnormal.
        let half_min = f32::from_bits(0x3300_0000); // 2^-25
        assert_eq!(f32_to_f16_bits(half_min), 0x0000);
        assert_eq!(f32_to_f16_bits(half_min * 1.0001), 0x0001);
        assert_eq!(f32_to_f16_bits(-half_min), 0x8000);
        assert_eq!(f32_to_f16_bits(1e-20), 0x0000);
    }

    #[test]
    fn nan_is_preserved() {
        let enc = f32_to_f16_bits(f32::NAN);
        assert_eq!(enc & 0x7c00, 0x7c00);
        assert_ne!(enc & 0x03ff, 0);
        assert!(f16_bits_to_f32(enc).is_nan());
        assert!(f16_bits_to_f32(0x7c01).is_nan());
        assert!(f16_bits_to_f32(0xfe00).is_nan());
    }

    #[test]
    fn ties_round_to_even_mantissa() {
        // 1 + 2^-11 is exactly halfway between 1.0 (even mantissa) and
        // 1 + 2^-10; it must round down to 1.0.
        let tie = 1.0 + f32::from_bits(0x3a00_0000); // 1 + 2^-11
        assert_eq!(f32_to_f16_bits(tie), 0x3c00);
        // (1 + 2^-10) + 2^-11 is halfway between odd-mantissa 0x3c01 and
        // even-mantissa 0x3c02; it must round up.
        let tie_up = 1.0 + 3.0 * f32::from_bits(0x3a00_0000);
        assert_eq!(f32_to_f16_bits(tie_up), 0x3c02);
    }

    #[test]
    fn exhaustive_bits_round_trip_through_f32() {
        // Every non-NaN f16 bit pattern must survive a trip through f32.
        for h in 0..=u16::MAX {
            let f = f16_bits_to_f32(h);
            if f.is_nan() {
                assert!(f16_bits_to_f32(f32_to_f16_bits(f)).is_nan());
            } else {
                assert_eq!(f32_to_f16_bits(f), h, "bit pattern {h:#06x}");
            }
        }
    }

    #[test]
    fn exhaustive_rounding_is_correct() {
        // For every pair of adjacent finite positive f16 values, probe the
        // interval between them: below the midpoint rounds down, above it
        // rounds up, and exactly at it we round to the even mantissa.
        for h in 0..0x7bff_u16 {
            let lo = f16_bits_to_f32(h) as f64;
            let hi = f16_bits_to_f32(h + 1) as f64;
            let mid = (lo + hi) / 2.0;
            let below = (mid - (hi - lo) * 0.01) as f32;
            let above = (mid + (hi - lo) * 0.01) as f32;
            assert_eq!(f32_to_f16_bits(below), h, "below midpoint of {h:#06x}");
            assert_eq!(f32_to_f16_bits(above), h + 1, "above midpoint of {h:#06x}");
            // The midpoint itself is exactly representable in f32 for all
            // f16 intervals, so the tie rule is observable.
            let even = if h & 1 == 0 { h } else { h + 1 };
            assert_eq!(f32_to_f16_bits(mid as f32), even, "tie at {h:#06x}");
        }
    }

    /// Asserts the branch-free narrowing equals the reference on every
    /// pattern of `bits`, NaNs included (both give `sign | 0x7e00`).
    fn assert_narrowing_matches(bits: impl Iterator<Item = u32>) {
        for b in bits {
            let x = f32::from_bits(b);
            assert_eq!(
                f32_to_f16_bits(x),
                reference_f32_to_f16_bits(x),
                "f32 pattern {b:#010x}"
            );
        }
    }

    #[test]
    fn widening_matches_the_reference_on_every_f16() {
        for h in 0..=u16::MAX {
            assert_eq!(
                f16_bits_to_f32(h).to_bits(),
                reference_f16_bits_to_f32(h).to_bits(),
                "f16 pattern {h:#06x}"
            );
        }
    }

    /// All 2^32 patterns in release builds, split over the 512 sign and
    /// exponent values. A debug build is too slow for that and sweeps
    /// every sign and exponent with all 2^13 values of the cut bits under
    /// a few kept mantissas, plus every positive pattern of the exponents
    /// whose result is subnormal or rounds to zero (2^-26 <= x < 2^-14).
    #[test]
    fn narrowing_matches_the_reference_on_every_f32() {
        let high = |se: u32| se << 23..=se << 23 | 0x7f_ffff;
        if cfg!(debug_assertions) {
            for se in 0..512 {
                for kept in [0, 1, 0x155, 0x2aa, 0x3fe, 0x3ff] {
                    let base = se << 23 | kept << 13;
                    assert_narrowing_matches(base..=base | 0x1fff);
                }
            }
            assert_narrowing_matches((101..113).flat_map(high));
        } else {
            let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
            std::thread::scope(|s| {
                for t in 0..threads as u32 {
                    s.spawn(move || {
                        assert_narrowing_matches((t..512).step_by(threads).flat_map(high))
                    });
                }
            });
        }
    }
}
