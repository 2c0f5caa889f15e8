//! # backboning-parallel
//!
//! Std-only data-parallel primitives for the scoring hot paths of the
//! `backboning-rs` workspace. The container building this workspace has no
//! crates.io access, so instead of rayon the workspace carries this small
//! engine built on [`std::thread::scope`].
//!
//! ## Threading model
//!
//! Work is always split into **contiguous index ranges**, one per worker, and
//! results are merged **in range order** on the calling thread. Two
//! consequences:
//!
//! * **Determinism** — [`par_map`] and [`par_chunks`] return element `i`'s
//!   result at position `i` no matter how many threads ran, [`par_split`]
//!   lets each worker fill its own range of an output in place, and
//!   [`par_accumulate`] merges the per-worker accumulators in ascending range
//!   order. Callers whose per-item work is a pure function therefore get
//!   *bit-identical* output at 1, 2 or N threads; callers that accumulate
//!   floats must either merge exactly (integers, index lists) or perform the
//!   order-sensitive reduction sequentially on the returned per-item values.
//!   Every extractor in `crates/core` follows one of those two patterns, which
//!   is what the parity test suite pins down.
//! * **No work stealing** — ranges are equal-sized, which is the right shape
//!   for the homogeneous per-edge and per-root workloads here (edge scoring,
//!   one Dijkstra per root, one Monte Carlo trial per seed).
//!
//! The worker count defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `BACKBONING_THREADS` environment variable (a
//! positive integer; `BACKBONING_THREADS=1` forces the sequential path, which
//! runs inline on the calling thread without spawning).
//!
//! ## Example
//!
//! ```
//! use backboning_parallel::{par_map, par_accumulate};
//!
//! // Order-preserving parallel map: result `i` is `map(i, &items[i])`,
//! // bit-identical at any worker count.
//! let squares = par_map(&[1u64, 2, 3, 4], 2, |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//!
//! // Accumulate-then-merge over an index range: each worker folds its own
//! // contiguous range, and the partials merge in ascending range order.
//! let sum = par_accumulate(
//!     100,
//!     4,
//!     || 0u64,
//!     |acc, i| *acc += i as u64,
//!     |acc, partial| *acc += partial,
//! );
//! assert_eq!(sum, 4950);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Environment variable overriding the default worker count.
pub const THREADS_ENV: &str = "BACKBONING_THREADS";

/// The default number of worker threads: the `BACKBONING_THREADS` environment
/// variable when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`] (1 when unknown).
pub fn available_threads() -> usize {
    match std::env::var(THREADS_ENV) {
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => default_parallelism(),
        },
        Err(_) => default_parallelism(),
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolve an explicit thread request: `0` means "use [`available_threads`]",
/// anything else is taken literally.
pub fn resolve_threads(requested: usize) -> usize {
    if requested == 0 {
        available_threads()
    } else {
        requested
    }
}

/// Resolve a thread request and clamp it so every worker gets at least
/// `min_items_per_worker` of the `items` to process.
///
/// Spawning an OS thread costs far more than scoring a handful of edges, so
/// cheap per-item workloads should stay inline on small inputs; expensive
/// per-item workloads (a full Dijkstra per item) pass a small minimum. The
/// clamp only changes *which* worker computes an item, never the result.
pub fn clamped_threads(requested: usize, items: usize, min_items_per_worker: usize) -> usize {
    resolve_threads(requested)
        .min(items.div_ceil(min_items_per_worker.max(1)))
        .max(1)
}

/// Split `0..total` into at most `threads` contiguous equal-sized ranges, run
/// `work` on each range (in parallel when `threads > 1`), and return the
/// per-range results in ascending range order.
///
/// The partition is a pure function of `(total, threads)`, so repeated calls
/// are deterministic. With one thread (or at most one item) `work` runs inline
/// on the calling thread.
pub fn par_ranges<R, F>(total: usize, threads: usize, work: F) -> Vec<R>
where
    R: Send,
    F: Fn(Range<usize>) -> R + Sync,
{
    par_split(total, threads, (), |range, ()| work(range))
}

/// Output storage that can be cut at an item boundary, so each worker of
/// [`par_split`] fills its own contiguous part in place.
pub trait SplitAt: Sized {
    /// Split into the first `mid` items and the rest.
    fn split_at(self, mid: usize) -> (Self, Self);
}

impl<T> SplitAt for &mut [T] {
    fn split_at(self, mid: usize) -> (Self, Self) {
        self.split_at_mut(mid)
    }
}

/// No output: [`par_ranges`] is [`par_split`] over `()`.
impl SplitAt for () {
    fn split_at(self, _mid: usize) -> (Self, Self) {
        ((), ())
    }
}

/// [`par_ranges`] with in-place output: `output` holds one slot per index of
/// `0..total`, and each worker receives its range together with the part of
/// `output` covering exactly that range (part `i` starts at the range's
/// first index). Workers write disjoint parts, so nothing is collected or
/// copied afterwards; the per-range results come back in ascending range
/// order, over the same partition as [`par_ranges`].
pub fn par_split<S, R, F>(total: usize, threads: usize, output: S, work: F) -> Vec<R>
where
    S: SplitAt + Send,
    R: Send,
    F: Fn(Range<usize>, S) -> R + Sync,
{
    let threads = threads.max(1).min(total.max(1));
    if threads == 1 {
        return vec![work(0..total, output)];
    }
    // `ceil(total / chunk)` ranges cover `0..total`; never spawn a worker for
    // an empty tail range (e.g. total = 5, threads = 4 needs only 3 chunks).
    let chunk = total.div_ceil(threads);
    let mut parts = Vec::with_capacity(threads);
    let mut rest = output;
    let mut start = 0;
    while start < total {
        let end = (start + chunk).min(total);
        let (part, tail) = rest.split_at(end - start);
        parts.push((start..end, part));
        rest = tail;
        start = end;
    }
    let mut results: Vec<Option<R>> = Vec::new();
    results.resize_with(parts.len(), || None);
    std::thread::scope(|scope| {
        for ((range, part), slot) in parts.into_iter().zip(results.iter_mut()) {
            let work = &work;
            scope.spawn(move || *slot = Some(work(range, part)));
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("scoped worker completed"))
        .collect()
}

/// Apply `map` to every item of `items` across `threads` workers, preserving
/// order: the result at position `i` is `map(i, &items[i])`.
///
/// The output is identical for every thread count; parallelism only changes
/// which worker computed each element.
pub fn par_map<T, R, F>(items: &[T], threads: usize, map: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let chunks = par_ranges(items.len(), threads, |range| {
        range.map(|i| map(i, &items[i])).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for chunk in chunks {
        out.extend(chunk);
    }
    out
}

/// Apply `work` to contiguous chunks of `items` (one chunk per worker) and
/// return the per-chunk results in chunk order. `work` receives the absolute
/// start index of its chunk alongside the chunk slice.
pub fn par_chunks<T, R, F>(items: &[T], threads: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &[T]) -> R + Sync,
{
    par_ranges(items.len(), threads, |range| {
        work(range.start, &items[range])
    })
}

/// Accumulate-then-merge over the index range `0..total`.
///
/// Each worker builds a private accumulator with `init`, folds its contiguous
/// index range into it with `fold`, and the per-worker accumulators are merged
/// **in ascending range order** on the calling thread with `merge`. When the
/// fold performs only order-insensitive updates (integer counters, disjoint
/// slots), the result is bit-identical for every thread count.
///
/// The accumulator may carry per-worker scratch (e.g. a reusable Dijkstra
/// workspace) alongside the data being reduced; `merge` simply drops the
/// absorbed worker's scratch.
pub fn par_accumulate<A, I, F, M>(total: usize, threads: usize, init: I, fold: F, merge: M) -> A
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, usize) + Sync,
    M: Fn(&mut A, A),
{
    let partials = par_ranges(total, threads, |range| {
        let mut accumulator = init();
        for index in range {
            fold(&mut accumulator, index);
        }
        accumulator
    });
    let mut iter = partials.into_iter();
    let mut merged = iter.next().expect("par_ranges yields at least one range");
    for partial in iter {
        merge(&mut merged, partial);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_at_any_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        let expected: Vec<usize> = items.iter().map(|&x| x * 2 + 1).collect();
        for threads in [1, 2, 3, 7, 16, 200] {
            let got = par_map(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * 2 + 1
            });
            assert_eq!(got, expected, "threads = {threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_tiny_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(par_map(&[9u8], 4, |_, &x| x), vec![9]);
    }

    #[test]
    fn par_ranges_covers_every_index_exactly_once() {
        for total in [0usize, 1, 2, 5, 17, 64] {
            for threads in [1usize, 2, 3, 5, 32] {
                let ranges = par_ranges(total, threads, |r| r);
                let mut seen = vec![0usize; total];
                for range in &ranges {
                    for i in range.clone() {
                        seen[i] += 1;
                    }
                }
                assert!(
                    seen.iter().all(|&c| c == 1),
                    "total {total}, threads {threads}: {ranges:?}"
                );
            }
        }
    }

    #[test]
    fn par_split_hands_each_worker_its_own_part() {
        for total in [0usize, 1, 5, 17, 64] {
            for threads in [1usize, 2, 3, 5, 32] {
                let mut out = vec![usize::MAX; total];
                let lens = par_split(total, threads, out.as_mut_slice(), |range, part| {
                    assert_eq!(range.len(), part.len());
                    for (slot, i) in part.iter_mut().zip(range) {
                        *slot = i;
                    }
                    part.len()
                });
                assert_eq!(out, (0..total).collect::<Vec<_>>());
                assert_eq!(lens.iter().sum::<usize>(), total);
                let ranges = par_ranges(total, threads, |r| r.len());
                assert_eq!(lens, ranges, "same partition as par_ranges");
            }
        }
    }

    #[test]
    fn par_chunks_passes_absolute_offsets() {
        let items: Vec<usize> = (100..150).collect();
        let chunks = par_chunks(&items, 4, |start, chunk| {
            for (i, &value) in chunk.iter().enumerate() {
                assert_eq!(value, 100 + start + i);
            }
            chunk.len()
        });
        assert_eq!(chunks.iter().sum::<usize>(), items.len());
    }

    #[test]
    fn par_accumulate_counts_exactly() {
        for threads in [1, 2, 5, 8] {
            let (sum, hits) = par_accumulate(
                1000,
                threads,
                || (0u64, vec![0u32; 10]),
                |(sum, hits), i| {
                    *sum += i as u64;
                    hits[i % 10] += 1;
                },
                |(sum, hits), (other_sum, other_hits)| {
                    *sum += other_sum;
                    for (h, o) in hits.iter_mut().zip(other_hits) {
                        *h += o;
                    }
                },
            );
            assert_eq!(sum, 499_500, "threads = {threads}");
            assert!(hits.iter().all(|&h| h == 100));
        }
    }

    #[test]
    fn par_accumulate_on_empty_range_returns_init() {
        let acc = par_accumulate(0, 8, || 42usize, |_, _| panic!("no work"), |_, _| {});
        assert_eq!(acc, 42);
    }

    #[test]
    fn resolve_threads_zero_means_auto() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn clamped_threads_keeps_workers_busy() {
        // 100 items at min 2048 per worker: stay inline.
        assert_eq!(clamped_threads(8, 100, 2048), 1);
        // 5000 items at min 2048: at most 3 workers.
        assert_eq!(clamped_threads(8, 5000, 2048), 3);
        // Plenty of items: the request wins.
        assert_eq!(clamped_threads(4, 1_000_000, 2048), 4);
        // Degenerate inputs stay sane.
        assert_eq!(clamped_threads(8, 0, 2048), 1);
        assert_eq!(clamped_threads(8, 10, 0), 8);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
