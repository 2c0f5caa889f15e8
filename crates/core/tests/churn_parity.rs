//! Churn-parity property suite: randomized PATCH sequences over generated
//! substrates, pinning that the incremental `delta_rescore` path is *exact*.
//!
//! For every local method (nt / df / nc / ds), any randomized
//! add / remove / reweight sequence must yield scores **bit-identical** to
//! from-scratch scoring on the final patched graph, invariant under
//! 1 / 2 / 3 / 8 scoring threads and under any batch split of the same op
//! sequence; the pipeline's kept-edge sets must agree too. The patched
//! graph itself must equal a from-scratch build of the edge list the ops
//! leave. Substrates are undirected (with endpoint tokens written in
//! either order) and directed (with both `x y` and `y x` present). Doubly
//! stochastic is allowed to fail (Sinkhorn non-convergence on a mutated
//! graph) only if the from-scratch pass fails identically.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use backboning::delta::{apply_batch, delta_rescore, delta_rescore_in_place};
use backboning::{Method, Pipeline, ScoredEdges, ThresholdPolicy};
use backboning_gen::ScenarioSpec;
use backboning_graph::{CsrGraph, DeltaBatch, DeltaGraph, Direction};

/// Small versions of the bench-matrix substrate families.
const SPECS: [&str; 3] = [
    "ba:n=80,m=3,w=powerlaw(2.5),noise=0.1,seed=4242",
    "er:n=80,e=240,w=uniform(10),noise=0.1,seed=4242",
    "sb:n=80,b=4,pin=0.2,pout=0.02,w=uniform(10),noise=0.1,seed=4242",
];

const METHODS: [Method; 4] = [
    Method::NaiveThreshold,
    Method::DisparityFilter,
    Method::NoiseCorrected,
    Method::DoublyStochastic,
];

const THREAD_COUNTS: [usize; 4] = [1, 2, 3, 8];

fn substrate(spec: &str, direction: Direction) -> CsrGraph {
    let graph = ScenarioSpec::parse(spec)
        .expect("valid spec")
        .generate()
        .expect("generation succeeds");
    if direction == Direction::Undirected {
        return graph;
    }
    // Odd edges point from the higher id to the lower, and every third edge
    // also gets its reverse, so pairs `x y` and `y x` both occur.
    let mut triples = Vec::new();
    for edge in graph.edges() {
        let (source, target) = if edge.index % 2 == 1 {
            (edge.target, edge.source)
        } else {
            (edge.source, edge.target)
        };
        triples.push((source, target, edge.weight));
        if edge.index % 3 == 0 {
            triples.push((target, source, 0.5 * edge.weight));
        }
    }
    CsrGraph::from_edges(Direction::Directed, graph.node_count(), triples)
        .expect("directed substrate builds")
}

/// Turn abstract proptest choices into always-valid delta lines by
/// interpreting them against a shadow of the evolving edge list, and return
/// them with a from-scratch build of the edge list they leave. The shadow
/// mirrors `DeltaGraph` order exactly: removals delete in place (survivors
/// keep relative order), additions append. On an undirected graph,
/// `choice / 3` picks which endpoint token a line writes first.
fn realize_ops(base: &CsrGraph, raw: &[(u8, usize, usize, f64)]) -> (Vec<String>, CsrGraph) {
    let direction = base.direction();
    let node_range = base.node_count() + 4; // occasionally grow the graph
    let mut node_count = base.node_count();
    let mut edges: Vec<(usize, usize, f64)> = base
        .edges()
        .map(|e| (e.source, e.target, e.weight))
        .collect();
    let mut present: HashSet<(usize, usize)> = edges.iter().map(|&(s, t, _)| (s, t)).collect();
    let mut lines = Vec::new();
    for &(choice, a, b, weight) in raw {
        let pair = |s: usize, t: usize| {
            if choice / 3 == 1 && direction == Direction::Undirected {
                format!("{t} {s}")
            } else {
                format!("{s} {t}")
            }
        };
        match choice % 3 {
            0 => {
                let source = a % node_range;
                let target = b % node_range;
                let (s, t) = match direction {
                    Direction::Directed => (source, target),
                    Direction::Undirected => (source.min(target), source.max(target)),
                };
                if present.contains(&(s, t)) {
                    let position = edges.iter().position(|&(es, et, _)| (es, et) == (s, t));
                    if let Some(position) = position {
                        edges[position].2 = weight;
                        lines.push(format!("reweight {} {weight}", pair(s, t)));
                    }
                } else {
                    present.insert((s, t));
                    node_count = node_count.max(s.max(t) + 1);
                    edges.push((s, t, weight));
                    lines.push(format!("add {} {weight}", pair(s, t)));
                }
            }
            1 => {
                if edges.is_empty() {
                    continue;
                }
                let position = a % edges.len();
                let (s, t, _) = edges.remove(position);
                present.remove(&(s, t));
                lines.push(format!("remove {}", pair(s, t)));
            }
            _ => {
                if edges.is_empty() {
                    continue;
                }
                let position = a % edges.len();
                edges[position].2 = weight;
                let (s, t, _) = edges[position];
                lines.push(format!("reweight {} {weight}", pair(s, t)));
            }
        }
    }
    let expected =
        CsrGraph::from_edges(direction, node_count, edges).expect("shadow edge list builds");
    (lines, expected)
}

/// Split `lines` into batches following the proptest-chosen chunk sizes
/// (cycled); an empty pattern means one batch with everything.
fn split_batches(lines: &[String], pattern: &[usize]) -> Vec<String> {
    if lines.is_empty() {
        return Vec::new();
    }
    if pattern.is_empty() {
        return vec![lines.join("\n")];
    }
    let mut batches = Vec::new();
    let mut cursor = 0;
    let mut turn = 0;
    while cursor < lines.len() {
        let take = pattern[turn % pattern.len()]
            .max(1)
            .min(lines.len() - cursor);
        batches.push(lines[cursor..cursor + take].join("\n"));
        cursor += take;
        turn += 1;
    }
    batches
}

/// Apply a batch sequence, chaining incremental rescores per method, and
/// return the final graph plus per-method incremental scores (`None` where
/// the method errored — allowed only if from-scratch errors identically).
fn churn(
    base: &CsrGraph,
    batches: &[String],
    threads: usize,
) -> (CsrGraph, HashMap<&'static str, Option<ScoredEdges>>) {
    let mut graph = base.clone();
    let mut scores: HashMap<&'static str, Option<ScoredEdges>> = METHODS
        .iter()
        .map(|&m| (m.score_name(), m.score_with_threads(&graph, threads).ok()))
        .collect();
    for text in batches {
        let batch = DeltaBatch::parse_tsv(text).expect("realized ops parse");
        let (patched, effect) = apply_batch(&graph, &batch).expect("realized ops apply");
        for &method in &METHODS {
            let name = method.score_name();
            let next = match scores.get(name).and_then(|s| s.as_ref()) {
                Some(previous) => {
                    // The borrowing and the consuming (in-place) forms must
                    // agree bit-for-bit — the latter is the maintained-state
                    // fast path that skips the carry-over copy.
                    let borrowed = delta_rescore(method, &patched, previous, &effect, threads).ok();
                    let consumed = delta_rescore_in_place(
                        method,
                        &patched,
                        previous.clone(),
                        &effect,
                        threads,
                    )
                    .ok();
                    assert_eq!(
                        borrowed,
                        consumed,
                        "{} in-place rescore diverged from the borrowing form",
                        method.score_name()
                    );
                    consumed
                }
                None => method.score_with_threads(&patched, threads).ok(),
            };
            scores.insert(name, next);
        }
        graph = patched;
    }
    (graph, scores)
}

/// The churn invariants on one substrate and one op sequence: the
/// patched graph equals a from-scratch build of the shadow edge list, and
/// incremental scores equal from-scratch scores for every thread count and
/// batch split, with the same pipeline edge sets.
fn check_churn(
    base: &CsrGraph,
    raw: &[(u8, usize, usize, f64)],
    pattern: &[usize],
) -> Result<(), TestCaseError> {
    let (lines, expected) = realize_ops(base, raw);
    if lines.is_empty() {
        return Ok(());
    }
    let single = split_batches(&lines, &[]);
    let split = split_batches(&lines, pattern);

    let (final_graph, single_scores) = churn(base, &single, 1);
    prop_assert_eq!(&final_graph, &expected);
    // One `DeltaGraph` applying the split batches ends on the graph the
    // chained single batch built, so both paths score the identical graph
    // object.
    {
        let mut delta = DeltaGraph::from_csr(base);
        for text in &split {
            delta.apply(&DeltaBatch::parse_tsv(text).unwrap()).unwrap();
        }
        prop_assert_eq!(delta.graph(), &final_graph);
    }

    for threads in THREAD_COUNTS {
        let (graph_t, incremental) = churn(base, &split, threads);
        prop_assert_eq!(&graph_t, &final_graph);
        for &method in &METHODS {
            let name = method.score_name();
            let fresh = method.score_with_threads(&final_graph, threads).ok();
            let got = incremental.get(name).cloned().flatten();
            match (&fresh, &got) {
                (Some(fresh), Some(got)) => {
                    prop_assert!(
                        got == fresh,
                        "{} scores at {} threads differ from from-scratch",
                        name,
                        threads
                    );
                    // Batch-split invariance against the single-batch run.
                    if let Some(Some(single_run)) = single_scores.get(name) {
                        prop_assert!(
                            got == single_run,
                            "{} scores differ across batch splits",
                            name
                        );
                    }
                    // Pipeline parity on the kept edge set.
                    let pipeline =
                        Pipeline::new(method, ThresholdPolicy::TopShare(0.4)).with_threads(threads);
                    let from_incremental = pipeline
                        .run_with_scores(&final_graph, Arc::new(got.clone()))
                        .unwrap();
                    let from_fresh = pipeline
                        .run_with_scores(&final_graph, Arc::new(fresh.clone()))
                        .unwrap();
                    prop_assert!(
                        from_incremental.kept == from_fresh.kept,
                        "{} pipeline edge sets differ",
                        name
                    );
                }
                (None, None) => {} // both failed (DS non-convergence) — parity holds
                (fresh, got) => prop_assert!(
                    false,
                    "{}: from-scratch ok={} but incremental ok={}",
                    name,
                    fresh.is_some(),
                    got.is_some()
                ),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The tentpole invariant: incremental scores after arbitrary churn are
    /// bit-identical to from-scratch scores on the final graph, for every
    /// thread count and any batch split, and the pipeline keeps the same
    /// edge sets.
    #[test]
    fn incremental_rescoring_is_exact_under_churn(
        spec_index in 0usize..SPECS.len(),
        raw in proptest::collection::vec(
            ((0u8..6), (0usize..10_000), (0usize..10_000), 0.05f64..25.0),
            1..24,
        ),
        pattern in proptest::collection::vec(1usize..6, 0..5),
    ) {
        check_churn(&substrate(SPECS[spec_index], Direction::Undirected), &raw, &pattern)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same invariant on directed substrates, where `x y` and `y x` are
    /// distinct edges and both occur.
    #[test]
    fn incremental_rescoring_is_exact_under_directed_churn(
        spec_index in 0usize..SPECS.len(),
        raw in proptest::collection::vec(
            ((0u8..6), (0usize..10_000), (0usize..10_000), 0.05f64..25.0),
            1..24,
        ),
        pattern in proptest::collection::vec(1usize..6, 0..5),
    ) {
        check_churn(&substrate(SPECS[spec_index], Direction::Directed), &raw, &pattern)?;
    }
}
