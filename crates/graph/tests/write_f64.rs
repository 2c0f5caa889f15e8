//! `io::write_f64` against its oracle, `format!("{}")`: random bit
//! patterns (every exponent, both signs, NaN payloads), every power of two
//! and of ten with the f64s one ulp either side, the integers up to 65536
//! and around 2^53, and a family of exact decimal ties, where textbook Ryu
//! would round to even but `Display` rounds half up.

use backboning_graph::io::write_f64;
use proptest::prelude::*;

fn written(value: f64) -> Vec<u8> {
    let mut out = Vec::new();
    write_f64(&mut out, value).unwrap();
    out
}

/// Assert that `write_f64` writes the bytes of `{}` for `value` and `-value`.
fn check(value: f64) {
    for value in [value, -value] {
        let expected = format!("{value}");
        let actual = written(value);
        assert!(
            actual == expected.as_bytes(),
            "bits {:#018x}: wrote {:?}, Display writes {expected:?}",
            value.to_bits(),
            String::from_utf8_lossy(&actual)
        );
    }
}

/// `value` and the f64s whose bit patterns are one below and one above.
fn check_with_neighbours(value: f64) {
    let bits = value.to_bits();
    for bits in [bits.saturating_sub(1), bits, bits + 1] {
        check(f64::from_bits(bits));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    fn random_bit_patterns_write_as_display(bits in 0u64..u64::MAX) {
        let value = f64::from_bits(bits);
        prop_assert_eq!(written(value), format!("{value}").into_bytes());
    }
}

#[test]
fn every_power_of_two_and_its_neighbours() {
    for k in -1074i32..=1023 {
        let bits = if k >= -1022 {
            ((k + 1023) as u64) << 52
        } else {
            1 << (k + 1074)
        };
        check_with_neighbours(f64::from_bits(bits));
    }
}

#[test]
fn every_power_of_ten_and_its_neighbours() {
    for k in -323i32..=308 {
        let value: f64 = format!("1e{k}").parse().unwrap();
        check_with_neighbours(value);
    }
}

#[test]
fn integers_to_65536_and_around_2_pow_53() {
    for n in 0..=65_536u32 {
        check(f64::from(n));
    }
    let two_53 = 1i64 << 53;
    for n in two_53 - 4096..=two_53 + 4096 {
        check(n as f64);
    }
    check_with_neighbours(two_53 as f64);
}

#[test]
fn exact_ties_round_half_up_like_display() {
    // Below 2^50 the f64 grid is 1/8, so n + j/8 is exact; with 16
    // integer digits, j = 2 and j = 6 sit exactly halfway between two
    // 17-digit candidates (`….2`/`….3` and `….7`/`….8`).
    let tie = f64::from_bits(4_832_115_205_635_065_786);
    assert_eq!(tie, 1_095_000_590_158_071.0 + 0.25);
    assert_eq!(written(tie), b"1095000590158071.3");
    let two_50 = 1u64 << 50;
    for n in two_50 - 4096..two_50 + 4096 {
        for j in 0..8 {
            check(n as f64 + f64::from(j) / 8.0);
        }
    }
}

#[test]
fn specials_extremes_and_nan_payloads() {
    for value in [
        0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        f64::EPSILON,
        f64::INFINITY,
        f64::NAN,
        0.1,
        0.2 + 0.1,
        1.0 / 3.0,
        123_456.789,
    ] {
        check_with_neighbours(value);
    }
    for bits in [
        0x7ff0_0000_0000_0001,
        0x7ff8_0000_0000_0000,
        0x7fff_ffff_ffff_ffff,
        0xfff0_0000_0000_0001,
        0xffff_ffff_ffff_ffff,
    ] {
        assert_eq!(written(f64::from_bits(bits)), b"NaN", "{bits:#x}");
    }
    assert_eq!(written(-0.0), b"-0");
    assert_eq!(written(5e-324).len(), 326);
    assert_eq!(written(-f64::MAX).len(), 310);
}
