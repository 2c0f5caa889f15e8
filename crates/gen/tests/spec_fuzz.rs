//! Never-panic and round-trip fuzzing of [`ScenarioSpec::parse`], the
//! parser behind `backbone gen` and the benchmark's scenario strings.
//!
//! Inputs are built from token alphabets (as in the server's
//! `parser_fuzz.rs`): mostly the family tags, keys, values and separators
//! the grammar expects, so many inputs parse and many fail only somewhere
//! inside, plus rare tokens the parser must reject — unknown names,
//! malformed and non-finite numbers, integers past `u64`, unbalanced
//! calls. Every input must return `Ok` or a [`SpecError`], and every spec
//! that parses must render to a string that parses back to the same spec.

use backboning_gen::{ScenarioSpec, SpecError};
use proptest::prelude::*;

/// The family tags (two of them twice), then a wrong case and an unknown
/// family.
const FAMILIES: [&str; 8] = ["ba", "er", "geo", "sb", "ba", "sb", "BA", "tree"];

/// The keys each family takes besides `n`, then the shared optional keys.
const FAMILY_KEYS: [&[&str]; 8] = [
    &["m"],
    &["e"],
    &["r"],
    &["b", "pin", "pout"],
    &["m"],
    &["b", "pin", "pout"],
    &[],
    &[],
];
const SHARED_KEYS: [&str; 3] = ["w", "noise", "seed"];

/// Values the grammar accepts for `key` (some still fail validation, such
/// as `m` ≥ `n`). `n` includes `2^32 + 1`, where `n·(n − 1)` overflows 64
/// bits.
fn values(key: &str) -> [&'static str; 6] {
    match key {
        "n" => ["2", "3", "40", "2000", "4294967297", "18446744073709551615"],
        "m" => ["1", "2", "3", "39", "40", "0"],
        "e" => ["1", "10", "40", "780", "781", "0"],
        "r" => ["0.05", "0.5", "1.5", "1e-3", "1.6", "0"],
        "b" => ["1", "2", "8", "40", "41", "0"],
        "pin" | "pout" => ["0", "0.05", "0.5", "1", "1e-4", "1.01"],
        "w" => [
            "unit",
            "uniform(10)",
            "powerlaw(2.5)",
            "lognormal(0,1)",
            "lognormal(-1.5,0.25)",
            "powerlaw(1)",
        ],
        "noise" => ["0", "0.1", "0.5", "-0", "0.999", "1"],
        _ => ["0", "7", "4242", "18446744073709551615", "1", "99"],
    }
}

/// Tokens that stand in for a key, a value or a separator one time in
/// eight: empty, non-finite, negative, past `u64`, malformed numbers and
/// calls, separators, a foreign key and non-ASCII text.
const RARE: [&str; 16] = [
    "",
    "nan",
    "inf",
    "-1",
    "18446744073709551616",
    "2.5e",
    "uniform()",
    "lognormal(0,1",
    "gamma(2)",
    "=",
    ",",
    "(",
    "m",
    "\u{fc}",
    " ",
    "seed",
];

/// Strategy: a family tag and `:`, the required `n`, and each of the
/// family's and the shared optional keys with probability one half, in a
/// random order. A key, value or separator is a rare token one time in
/// eight.
fn spec_text() -> impl Strategy<Value = String> {
    (
        (0usize..8, 0usize..8, 0usize..8),
        proptest::collection::vec(
            (0usize..2, 0usize..8, 0usize..8, 0usize..16, 0u64..u64::MAX),
            7,
        ),
    )
        .prop_map(|((family, colon, rare_n), draws)| {
            let rare = |pick: usize| RARE[pick % RARE.len()];
            let mut text = String::from(FAMILIES[family]);
            text.push_str(if colon == 0 { rare(draws[0].3) } else { ":" });
            let keys = std::iter::once("n")
                .chain(FAMILY_KEYS[family].iter().copied())
                .chain(SHARED_KEYS);
            let mut pairs: Vec<(u64, String)> = keys
                .zip(draws)
                .filter(|&(key, (include, ..))| key == "n" && rare_n != 0 || include == 1)
                .map(|(key, (_, value, slot, pick, order))| {
                    let (key, value) = match slot {
                        0 => (rare(pick), values(key)[value % 6]),
                        1 => (key, rare(pick)),
                        _ => (key, values(key)[value % 6]),
                    };
                    let gap = if slot == 2 && pick < 4 {
                        rare(pick)
                    } else {
                        "="
                    };
                    (order, format!("{key}{gap}{value}"))
                })
                .collect();
            pairs.sort();
            let pairs: Vec<String> = pairs.into_iter().map(|(_, pair)| pair).collect();
            text.push_str(&pairs.join(","));
            text
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// `parse` returns a spec or a `SpecError` and never panics, and a
    /// parsed spec's canonical form parses back to the same spec (and
    /// renders to the same string).
    #[test]
    fn parse_never_panics_and_round_trips(text in spec_text()) {
        let parsed: Result<ScenarioSpec, SpecError> = ScenarioSpec::parse(&text);
        if let Ok(spec) = parsed {
            let rendered = spec.render();
            let reparsed = ScenarioSpec::parse(&rendered);
            prop_assert_eq!(&reparsed, &Ok(spec));
            prop_assert_eq!(reparsed.unwrap().render(), rendered);
        }
    }
}

/// An ER node count whose `n·(n − 1)` overflows 64 bits is checked by
/// value, not by an overflowing multiply.
#[test]
fn huge_er_node_counts_do_not_overflow() {
    let spec = ScenarioSpec::parse("er:n=4294967297,e=1").unwrap();
    assert_eq!(spec.nodes, 4_294_967_297);
    assert!(ScenarioSpec::parse("er:n=18446744073709551615").is_ok());
    assert!(ScenarioSpec::parse("er:n=3,e=4").is_err());
}
