//! Shortest round-trip decimal text for `f64`, byte for byte as `{}`
//! (`Display`) writes it, after Ryu (Ulf Adams, "Ryū: fast float-to-string
//! conversion", PLDI 2018). [`crate::io::write_f64`] is the public entry.
//!
//! [`format`] finds the fewest decimal digits that read back to the same
//! `f64`, rounded to the value's nearest, with a few 64×128-bit multiplies
//! against Ryu's tables of powers of five ([`tables`]). It then lays the
//! digits out as `Display` does: fixed notation, never an exponent, no
//! `.0` on integers, a `-` on every negative value including `-0`, and
//! `NaN`, `inf` or `-inf` for the non-finite values.
//!
//! One rule differs from textbook Ryu. When the value lies exactly halfway
//! between the two nearest shortest candidates, Ryu picks the even one,
//! while `Display` rounds half up: `1095000590158071.25` prints as
//! `1095000590158071.3`. This module rounds half up, so it keeps none of
//! Ryu's record of whether the digits removed from `vr` were all zeros.

mod tables;

use tables::{POW5_INV_SPLIT, POW5_SPLIT};

const MANTISSA_BITS: u32 = 52;
const EXPONENT_BITS: u32 = 11;
const EXPONENT_BIAS: i32 = 1023;
const POW5_INV_BITCOUNT: i32 = 125;
const POW5_BITCOUNT: i32 = 125;

/// The longest text: `-5e-324` as `-0.` then 323 zeros then `5`.
pub(crate) const MAX_LEN: usize = 327;

/// `"00"`, `"01"`, …, `"99"`: two digits per lookup.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// A finite nonzero magnitude as `mantissa × 10^exponent`, with the
/// shortest `mantissa` that reads back to it.
struct Decimal {
    mantissa: u64,
    exponent: i32,
}

/// Write `value` as `format!("{value}")` would into `out`, returning the
/// number of bytes written (at most [`MAX_LEN`]).
pub(crate) fn format(value: f64, out: &mut [u8; MAX_LEN]) -> usize {
    let bits = value.to_bits();
    let ieee_mantissa = bits & ((1 << MANTISSA_BITS) - 1);
    let ieee_exponent = ((bits >> MANTISSA_BITS) & ((1 << EXPONENT_BITS) - 1)) as u32;
    let negative = bits >> 63 != 0;
    if ieee_exponent == (1 << EXPONENT_BITS) - 1 {
        let text: &[u8] = match (ieee_mantissa != 0, negative) {
            (true, _) => b"NaN",
            (false, false) => b"inf",
            (false, true) => b"-inf",
        };
        out[..text.len()].copy_from_slice(text);
        return text.len();
    }
    let sign = usize::from(negative);
    if negative {
        out[0] = b'-';
    }
    if ieee_exponent == 0 && ieee_mantissa == 0 {
        out[sign] = b'0';
        return sign + 1;
    }
    sign + write_fixed(shortest(ieee_mantissa, ieee_exponent), &mut out[sign..])
}

/// Ryu's shortest digits of a finite nonzero magnitude (`d2d` in the
/// reference implementation), rounding an exact tie half up.
fn shortest(ieee_mantissa: u64, ieee_exponent: u32) -> Decimal {
    // Two extra bits of exponent leave room for the interval bounds below.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2, ieee_mantissa)
    } else {
        (
            ieee_exponent as i32 - EXPONENT_BIAS - MANTISSA_BITS as i32 - 2,
            (1 << MANTISSA_BITS) | ieee_mantissa,
        )
    };
    // A round-to-nearest-even reader maps the interval's bounds back to
    // this value exactly when its mantissa is even.
    let accept_bounds = m2 & 1 == 0;

    // The value is mv × 2^e2; every decimal strictly between mm × 2^e2 and
    // mp × 2^e2 reads back to it. The lower gap halves at a power of two.
    let mv = 4 * m2;
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent <= 1);
    let mp = mv + 2;
    let mm = mv - 1 - mm_shift;

    // vr, vp and vm are mv, mp and mm scaled by 10^-e10 and truncated.
    let (mut vr, mut vp, mut vm, e10);
    let mut vm_is_trailing_zeros = false;
    if e2 >= 0 {
        let q = log10_pow2(e2) - u32::from(e2 > 3);
        e10 = q as i32;
        let k = POW5_INV_BITCOUNT + pow5_bits(q as i32) - 1;
        let shift = (-e2 + q as i32 + k) as u32;
        let multiplier = POW5_INV_SPLIT[q as usize];
        vr = mul_shift(mv, multiplier, shift);
        vp = mul_shift(mp, multiplier, shift);
        vm = mul_shift(mm, multiplier, shift);
        // At most one of mp, mv and mm is a multiple of 5. When it is mv,
        // its removed digits would only decide an exact tie, and a tie
        // rounds up here whatever they are.
        if q <= 21 && !mv.is_multiple_of(5) {
            if accept_bounds {
                vm_is_trailing_zeros = multiple_of_power_of_5(mm, q);
            } else {
                vp -= u64::from(multiple_of_power_of_5(mp, q));
            }
        }
    } else {
        let q = log10_pow5(-e2) - u32::from(-e2 > 1);
        e10 = q as i32 + e2;
        let i = -e2 - q as i32;
        let k = pow5_bits(i) - POW5_BITCOUNT;
        let shift = (q as i32 - k) as u32;
        let multiplier = POW5_SPLIT[i as usize];
        vr = mul_shift(mv, multiplier, shift);
        vp = mul_shift(mp, multiplier, shift);
        vm = mul_shift(mm, multiplier, shift);
        if q <= 1 {
            // mm has one trailing zero bit exactly when mm_shift is 1, and
            // mp = mv + 2 always has one.
            if accept_bounds {
                vm_is_trailing_zeros = mm_shift == 1;
            } else {
                vp -= 1;
            }
        }
    }

    // Remove digits while the interval still holds a shorter decimal, then
    // round vr at the last removed digit: 5 or more rounds up.
    let mut removed = 0;
    let output = if vm_is_trailing_zeros {
        // Rare: the lower bound may itself be the shortest decimal.
        let mut last_removed_digit = 0;
        while vp / 10 > vm / 10 {
            vm_is_trailing_zeros &= vm.is_multiple_of(10);
            last_removed_digit = vr % 10;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        if vm_is_trailing_zeros {
            while vm.is_multiple_of(10) {
                last_removed_digit = vr % 10;
                vr /= 10;
                vm /= 10;
                removed += 1;
            }
        }
        let below_interval = vr == vm && (!accept_bounds || !vm_is_trailing_zeros);
        vr + u64::from(below_interval || last_removed_digit >= 5)
    } else {
        let mut round_up = false;
        // Two digits at a time first: most values lose at least two.
        if vp / 100 > vm / 100 {
            round_up = vr % 100 >= 50;
            vr /= 100;
            vp /= 100;
            vm /= 100;
            removed += 2;
        }
        while vp / 10 > vm / 10 {
            round_up = vr % 10 >= 5;
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed += 1;
        }
        vr + u64::from(vr == vm || round_up)
    };
    Decimal {
        mantissa: output,
        exponent: e10 + removed,
    }
}

/// `(m × multiplier) >> shift`, dropping the low 64 bits of the low
/// partial product as Ryu's error bounds allow; `shift` is at least 64.
fn mul_shift(m: u64, multiplier: u128, shift: u32) -> u64 {
    let low = u128::from(m) * (multiplier as u64 as u128);
    let high = u128::from(m) * (multiplier >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// `ceil(log2(5^e))` for `e` in `1..=3528`, and 1 for `e = 0`.
fn pow5_bits(e: i32) -> i32 {
    ((e as u32 * 1_217_359) >> 19) as i32 + 1
}

/// `floor(log10(2^e))` for `e` in `0..=1650`.
fn log10_pow2(e: i32) -> u32 {
    (e as u32 * 78_913) >> 18
}

/// `floor(log10(5^e))` for `e` in `0..=2620`.
fn log10_pow5(e: i32) -> u32 {
    (e as u32 * 732_923) >> 20
}

/// Whether 5^p divides the nonzero `value`.
fn multiple_of_power_of_5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// Lay `decimal` out in fixed notation at the start of `out`, returning
/// the length: its digits then zeros for an integer, the digits split by
/// a `.`, or `0.`, zeros and the digits below 1.
fn write_fixed(decimal: Decimal, out: &mut [u8]) -> usize {
    let Decimal { mantissa, exponent } = decimal;
    let digits = mantissa.ilog10() as usize + 1;
    let integer_digits = digits as i32 + exponent;
    if exponent >= 0 {
        write_digits(mantissa, &mut out[..digits]);
        let end = digits + exponent as usize;
        out[digits..end].fill(b'0');
        end
    } else if integer_digits > 0 {
        let point = integer_digits as usize;
        write_digits(mantissa, &mut out[1..=digits]);
        out.copy_within(1..=point, 0);
        out[point] = b'.';
        digits + 1
    } else {
        let start = 2 + (-integer_digits) as usize;
        out[..start].fill(b'0');
        out[1] = b'.';
        write_digits(mantissa, &mut out[start..start + digits]);
        start + digits
    }
}

/// Write the decimal digits of `value`, which has exactly `out.len()` of
/// them, into `out`.
fn write_digits(mut value: u64, out: &mut [u8]) {
    let mut end = out.len();
    while value >= 100 {
        let pair = (value % 100) as usize * 2;
        value /= 100;
        end -= 2;
        out[end..end + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if value >= 10 {
        let pair = value as usize * 2;
        out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        out[0] = b'0' + value as u8;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An unsigned big integer: 64-bit limbs, least significant first.
    struct Big(Vec<u64>);

    impl Big {
        fn one() -> Big {
            Big(vec![1])
        }

        fn mul_small(&mut self, factor: u64) {
            let mut carry = 0u128;
            for limb in &mut self.0 {
                let product = u128::from(*limb) * u128::from(factor) + carry;
                *limb = product as u64;
                carry = product >> 64;
            }
            if carry != 0 {
                self.0.push(carry as u64);
            }
        }

        fn bit_length(&self) -> u32 {
            let top = self.0.iter().rposition(|&limb| limb != 0).unwrap();
            64 * top as u32 + (64 - self.0[top].leading_zeros())
        }

        fn bit(&self, index: u32) -> bool {
            self.0
                .get((index / 64) as usize)
                .is_some_and(|limb| limb >> (index % 64) & 1 == 1)
        }

        /// Bits `from..from + 128` as a `u128`.
        fn bits_from(&self, from: u32) -> u128 {
            (0..128).fold(0, |acc, k| acc | u128::from(self.bit(from + k)) << k)
        }

        fn shl1(&mut self) {
            let mut carry = 0;
            for limb in &mut self.0 {
                let next = *limb >> 63;
                *limb = *limb << 1 | carry;
                carry = next;
            }
            if carry != 0 {
                self.0.push(carry);
            }
        }

        fn sub(&mut self, other: &Big) {
            let mut borrow = false;
            for (index, limb) in self.0.iter_mut().enumerate() {
                let rhs = other.0.get(index).copied().unwrap_or(0);
                let (diff, under1) = limb.overflowing_sub(rhs);
                let (diff, under2) = diff.overflowing_sub(u64::from(borrow));
                *limb = diff;
                borrow = under1 || under2;
            }
            assert!(!borrow);
        }

        fn at_least(&self, other: &Big) -> bool {
            let limb = |big: &Big, index: usize| big.0.get(index).copied().unwrap_or(0);
            let len = self.0.len().max(other.0.len());
            (0..len)
                .rev()
                .map(|index| (limb(self, index), limb(other, index)))
                .find(|(a, b)| a != b)
                .is_none_or(|(a, b)| a > b)
        }

        /// `floor(2^exponent / self)`, by restoring long division; the
        /// quotient must fit 128 bits.
        fn divide_power_of_two(&self, exponent: u32) -> u128 {
            let mut remainder = Big(vec![0]);
            let mut quotient = 0u128;
            for position in (0..=exponent).rev() {
                remainder.shl1();
                if position == exponent {
                    remainder.0[0] |= 1;
                }
                if remainder.at_least(self) {
                    remainder.sub(self);
                    assert!(position < 128, "quotient wider than 128 bits");
                    quotient |= 1 << position;
                }
            }
            quotient
        }
    }

    #[test]
    fn pow5_tables_match_exact_arithmetic() {
        let mut power = Big::one();
        for i in 0..POW5_INV_SPLIT.len().max(POW5_SPLIT.len()) {
            let length = power.bit_length();
            if let Some(&entry) = POW5_INV_SPLIT.get(i) {
                let shift = length - 1 + POW5_INV_BITCOUNT as u32;
                assert_eq!(entry, power.divide_power_of_two(shift) + 1, "inverse {i}");
            }
            if let Some(&entry) = POW5_SPLIT.get(i) {
                let expected = match length.checked_sub(POW5_BITCOUNT as u32) {
                    Some(drop) => power.bits_from(drop),
                    None => power.bits_from(0) << (POW5_BITCOUNT as u32 - length),
                };
                assert_eq!(entry, expected, "power {i}");
            }
            power.mul_small(5);
        }
    }
}
