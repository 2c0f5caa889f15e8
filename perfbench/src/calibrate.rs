//! The reference workload that puts every end-to-end timing on one host
//! speed.
//!
//! The shared two-vCPU hosts this benchmark runs on change speed by up to
//! 2× over tens of seconds: the machine slows down, not the scheduler.
//! Within a second, too, the same 20 ms of work flips between two speeds
//! about 1.5× apart, each held for a tenth of a second to a second. A
//! run-to-run spread that wide hides any regression a bound of 25% could
//! catch. So each run also times a fixed workload of this package's own
//! (parse, intern, sort and format 60 000 synthetic edges, standard library
//! only) next to the ops, and scales each timing by [`NOMINAL_MS`] over the
//! reference's time measured beside it. A scaled time reads as milliseconds
//! on a host where the reference takes [`NOMINAL_MS`]. The raw times go to
//! the run record.
//!
//! - The reference is timed only while the program under test is idle
//!   (between CLI ops, between stretches of the server's closed loop, after
//!   each set-up), so that the scale measures the host and not the load the
//!   program puts on it.
//! - It is timed on the wall clock, like the ops, so that time the
//!   hypervisor steals slows both alike.
//! - A scale comes from the interquartile mean of several timings. A mean
//!   follows the share of time the host spent at each of its two speeds,
//!   where a median jumps from one speed to the other; leaving out the
//!   outer quarters keeps a rare stall in one timing from moving the scale
//!   of many ops.

use crate::stats;
use std::collections::HashMap;
use std::fmt::Write;
use std::time::Instant;

/// The reference's time, in milliseconds, on the nominal host.
pub const NOMINAL_MS: f64 = 20.0;

/// Lines of the synthetic edge list the reference works on.
const LINES: u64 = 60_000;

/// SplitMix64: a small seeded random stream.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A number in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The fixed reference workload.
pub struct Reference {
    text: String,
}

impl Reference {
    /// Build the reference's input; it is the same in every run.
    pub fn new() -> Reference {
        let mut rng = SplitMix64(0x5EED);
        let mut text = String::new();
        for _ in 0..LINES {
            let source = rng.below(20_000);
            let target = rng.below(20_000);
            let weight = rng.next() as f64 / u64::MAX as f64 * 10.0;
            writeln!(text, "{source}\t{target}\t{weight}").expect("writing to a String");
        }
        Reference { text }
    }

    /// Run the reference once; the time it took, in milliseconds.
    pub fn time_ms(&self) -> f64 {
        let start = Instant::now();
        let mut ids: HashMap<&str, u32> = HashMap::new();
        let mut edges: Vec<(u32, u32, f64)> = Vec::with_capacity(LINES as usize);
        for line in self.text.lines() {
            let mut fields = line.split('\t');
            let (Some(source), Some(target), Some(weight)) =
                (fields.next(), fields.next(), fields.next())
            else {
                continue;
            };
            let source = intern(&mut ids, source);
            let target = intern(&mut ids, target);
            edges.push((source, target, weight.parse().unwrap_or(0.0)));
        }
        edges.sort_by(|a, b| b.2.total_cmp(&a.2));
        let mut out = String::new();
        for (source, target, weight) in &edges[..edges.len() / 10] {
            writeln!(out, "{source}\t{target}\t{weight}").expect("writing to a String");
        }
        std::hint::black_box(out.len());
        start.elapsed().as_secs_f64() * 1e3
    }
}

fn intern<'a>(ids: &mut HashMap<&'a str, u32>, label: &'a str) -> u32 {
    let next = ids.len() as u32;
    *ids.entry(label).or_insert(next)
}

/// [`NOMINAL_MS`] over the interquartile mean of `reference_ms`.
pub fn scale(reference_ms: &[f64]) -> f64 {
    NOMINAL_MS / stats::interquartile_mean(reference_ms).expect("at least one reference timing")
}

/// How many timings on either side of its own a rolling scale takes in.
const ROLLING_REACH: usize = 2;

/// For each of `reference_ms`, the scale from the timings within
/// [`ROLLING_REACH`] places of it: one reference timing per op, smoothed
/// over the ops next to it.
pub fn rolling_scales(reference_ms: &[f64]) -> Vec<f64> {
    (0..reference_ms.len())
        .map(|i| {
            let end = (i + ROLLING_REACH + 1).min(reference_ms.len());
            scale(&reference_ms[i.saturating_sub(ROLLING_REACH)..end])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_put_the_mean_reference_at_the_nominal_time() {
        assert_eq!(scale(&[40.0, 10.0, 30.0]), 0.75);
        assert_eq!(scale(&[10.0, 30.0, 50.0, 900.0]), 0.5);
        // A change of host speed moves the scale over the timings within
        // reach on either side of it, and no further.
        let mut timings = vec![20.0; 8];
        timings.extend([40.0; 8]);
        let scales = rolling_scales(&timings);
        assert_eq!(&scales[..8 - ROLLING_REACH], &[1.0; 8 - ROLLING_REACH]);
        assert_eq!(&scales[8 + ROLLING_REACH..], &[0.5; 8 - ROLLING_REACH]);
        assert!(scales.windows(2).all(|pair| pair[1] <= pair[0]));
    }

    #[test]
    fn the_reference_input_is_fixed() {
        let (a, b) = (Reference::new(), Reference::new());
        assert_eq!(a.text, b.text);
        assert_eq!(a.text.lines().count() as u64, LINES);
        assert!(a.time_ms() > 0.0);
    }
}
