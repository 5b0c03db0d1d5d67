//! Software IEEE 754 binary16 ("half precision").
//!
//! Bit-accurate conversions with round-to-nearest-even, matching what
//! tensor-core hardware does to FP16 operands. Only conversions are needed:
//! arithmetic is performed by converting to `f32`, operating, and rounding
//! back (which is exactly the numerical behaviour of FP16 multiply units
//! with wider internal products).

/// An IEEE 754 binary16 value stored as raw bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F16(pub u16);

impl F16 {
    /// Positive zero.
    pub const ZERO: F16 = F16(0);
    /// One.
    pub const ONE: F16 = F16(0x3C00);
    /// Positive infinity.
    pub const INFINITY: F16 = F16(0x7C00);
    /// Largest finite value (65504).
    pub const MAX: F16 = F16(0x7BFF);

    /// Convert from `f32` with round-to-nearest-even.
    pub fn from_f32(x: f32) -> F16 {
        let bits = x.to_bits();
        let sign = ((bits >> 16) & 0x8000) as u16;
        let exp = ((bits >> 23) & 0xFF) as i32;
        let mant = bits & 0x007F_FFFF;

        if exp == 0xFF {
            // Inf or NaN.
            return if mant == 0 {
                F16(sign | 0x7C00)
            } else {
                F16(sign | 0x7E00) // quiet NaN
            };
        }

        // Unbiased exponent.
        let e = exp - 127;
        if e > 15 {
            // Overflow → infinity (IEEE RNE behaviour for binary16).
            return F16(sign | 0x7C00);
        }
        if e >= -14 {
            // Normal range: 10-bit mantissa, RNE on the dropped 13 bits.
            let mant16 = mant >> 13;
            let rest = mant & 0x1FFF;
            let halfway = 0x1000;
            let mut h = sign | (((e + 15) as u16) << 10) | mant16 as u16;
            if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
                h = h.wrapping_add(1); // carries propagate into the exponent correctly
            }
            return F16(h);
        }
        if e >= -24 {
            // Subnormal: shift the implicit-1 mantissa right.
            let full = mant | 0x0080_0000; // 24-bit significand
            let shift = (-14 - e) + 13;
            let mant16 = (full >> shift) as u16;
            let rest = full & ((1 << shift) - 1);
            let halfway = 1u32 << (shift - 1);
            let mut h = sign | mant16;
            if rest > halfway || (rest == halfway && (mant16 & 1) == 1) {
                h = h.wrapping_add(1);
            }
            return F16(h);
        }
        // Underflow to signed zero.
        F16(sign)
    }

    /// Convert to `f32` (exact).
    pub fn to_f32(self) -> f32 {
        let h = self.0 as u32;
        let sign = (h & 0x8000) << 16;
        let exp = (h >> 10) & 0x1F;
        let mant = h & 0x03FF;
        let bits = if exp == 0 {
            if mant == 0 {
                sign // signed zero
            } else {
                // Subnormal: value = mant·2⁻²⁴; normalize so the implicit
                // bit sits at position 10, tracking the f32 biased exponent
                // (113 − shifts).
                let mut e = 113i32;
                let mut m = mant;
                while m & 0x0400 == 0 {
                    m <<= 1;
                    e -= 1;
                }
                m &= 0x03FF;
                sign | ((e as u32) << 23) | (m << 13)
            }
        } else if exp == 0x1F {
            sign | 0x7F80_0000 | (mant << 13) // inf/nan
        } else {
            sign | ((exp + 112) << 23) | (mant << 13)
        };
        f32::from_bits(bits)
    }

    /// Round a `f64` through binary16.
    pub fn round_f64(x: f64) -> f64 {
        F16::from_f32(x as f32).to_f32() as f64
    }

    /// True if the value is NaN.
    pub fn is_nan(self) -> bool {
        (self.0 & 0x7C00) == 0x7C00 && (self.0 & 0x03FF) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_constants() {
        assert_eq!(F16::from_f32(0.0), F16::ZERO);
        assert_eq!(F16::from_f32(1.0), F16::ONE);
        assert_eq!(F16::ONE.to_f32(), 1.0);
        assert_eq!(F16::from_f32(-2.0).to_f32(), -2.0);
        assert_eq!(F16::from_f32(0.5).to_f32(), 0.5);
        assert_eq!(F16::MAX.to_f32(), 65504.0);
    }

    #[test]
    fn exact_small_integers_roundtrip() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(F16::from_f32(x).to_f32(), x, "integer {i} must be exact");
        }
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between 1.0 and 1+2^-10: RNE → 1.0.
        let halfway = 1.0f32 + 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway).to_f32(), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0f32 + 2.0f32.powi(-11) + 2.0f32.powi(-20);
        assert_eq!(F16::from_f32(above).to_f32(), 1.0 + 2.0f32.powi(-10));
        // 1 + 3·2^-11 is halfway between 1+2^-10 and 1+2^-9: RNE → even
        // mantissa (1 + 2^-9).
        let halfway2 = 1.0f32 + 3.0 * 2.0f32.powi(-11);
        assert_eq!(F16::from_f32(halfway2).to_f32(), 1.0 + 2.0f32.powi(-9));
    }

    #[test]
    fn overflow_to_infinity() {
        assert_eq!(F16::from_f32(1e6).to_f32(), f32::INFINITY);
        assert_eq!(F16::from_f32(-1e6).to_f32(), f32::NEG_INFINITY);
        assert_eq!(F16::from_f32(65504.0).to_f32(), 65504.0);
        // 65520 is halfway to the next (unrepresentable) step: rounds to inf.
        assert_eq!(F16::from_f32(65520.0).to_f32(), f32::INFINITY);
    }

    #[test]
    fn subnormals_roundtrip() {
        // Smallest positive subnormal: 2^-24.
        let tiny = 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(tiny).to_f32(), tiny);
        // Largest subnormal.
        let sub = 2.0f32.powi(-14) - 2.0f32.powi(-24);
        assert_eq!(F16::from_f32(sub).to_f32(), sub);
        // Below half the smallest subnormal: flush to zero.
        assert_eq!(F16::from_f32(2.0f32.powi(-26)).to_f32(), 0.0);
    }

    #[test]
    fn nan_propagates() {
        assert!(F16::from_f32(f32::NAN).is_nan());
        assert!(F16::from_f32(f32::NAN).to_f32().is_nan());
        assert!(!F16::from_f32(1.0).is_nan());
    }

    #[test]
    fn signs_preserved() {
        assert_eq!(F16::from_f32(-0.0).0 & 0x8000, 0x8000);
        assert_eq!(F16::from_f32(-1.5).to_f32(), -1.5);
        assert_eq!(F16::from_f32(f32::NEG_INFINITY).to_f32(), f32::NEG_INFINITY);
    }

    #[test]
    fn roundtrip_is_idempotent() {
        // Rounding an already-rounded value must be exact.
        for i in 0..1000 {
            let x = (i as f32 * 0.37).sin() * 3.0;
            let once = F16::round_f64(x as f64);
            let twice = F16::round_f64(once);
            assert_eq!(once, twice);
        }
    }

    #[test]
    fn half_precision_error_bound() {
        // Relative error of normal-range rounding ≤ 2^-11.
        for i in 1..2000 {
            let x = i as f64 * 0.013 + 0.5;
            let r = F16::round_f64(x);
            assert!(((r - x) / x).abs() <= 2.0f64.powi(-11) + 1e-12);
        }
    }

    #[test]
    fn exhaustive_f16_f32_f16_roundtrip() {
        // Every finite f16 bit pattern must survive the f32 roundtrip.
        for bits in 0u16..=0xFFFF {
            let h = F16(bits);
            if h.is_nan() {
                continue;
            }
            let back = F16::from_f32(h.to_f32());
            assert_eq!(back.0, h.0, "bit pattern {bits:#06x} not preserved");
        }
    }
}
