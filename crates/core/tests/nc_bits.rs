//! Bit pins for the Noise-Corrected scores.
//!
//! The goldens pin backbones (which edges survive), not the scores behind
//! them, so a change that moves a score by one ulp without flipping a kept
//! edge passes them. This suite digests the bits of `score`, `raw_score`
//! and `std_dev` of every edge (FNV-1a over the little-endian bytes, in
//! edge-id order) and compares them with constants recorded before the
//! Beta–Binomial chain of Eqs. 5–8 was made `#[inline]` for the scorer,
//! so any reordering of its float operations fails here.
//!
//! Besides two generated graphs, one row per refusal branch of the
//! posterior pins the graphs on which the prior's moments are refused and
//! the plug-in estimate takes over. Each row also names the parameter the
//! stats crate's `Result` API refuses for at least one of its edges, so a
//! row that stops reaching its branch fails too. CI runs this suite in
//! release mode as well, where the posterior is inlined into the scorer.

use std::collections::BTreeSet;

use backboning::{BackboneError, NoiseCorrected, ScoredEdges};
use backboning_gen::ScenarioSpec;
use backboning_graph::{CsrGraph, Direction};
use backboning_stats::{BetaBinomialModel, StatsError};

const SPEC: &str = "ba:n=3000,m=3,w=powerlaw(2.5),noise=0.1,seed=701";

fn digest(scored: &ScoredEdges) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for edge in scored.iter() {
        let values = [
            edge.score,
            edge.raw_score.expect("NC fills raw_score"),
            edge.std_dev.expect("NC fills std_dev"),
        ];
        for value in values {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

fn score(graph: &CsrGraph) -> Result<ScoredEdges, BackboneError> {
    NoiseCorrected::default().score_with_threads(graph, 0)
}

/// The parameters the `Result` API refuses over the edges of `graph`, with
/// the strengths and total NC scores each edge with.
fn refused_parameters(graph: &CsrGraph) -> BTreeSet<&'static str> {
    let n = graph.node_count();
    let (mut out_strength, mut in_strength) = (vec![0.0; n], vec![0.0; n]);
    for edge in graph.edges() {
        out_strength[edge.source] += edge.weight;
        in_strength[edge.target] += edge.weight;
        if !graph.is_directed() && edge.source != edge.target {
            out_strength[edge.target] += edge.weight;
            in_strength[edge.source] += edge.weight;
        }
    }
    let total: f64 = if graph.is_directed() {
        graph.edges().map(|edge| edge.weight).sum()
    } else {
        out_strength.iter().sum()
    };
    graph
        .edges()
        .filter_map(|edge| {
            let posterior = BetaBinomialModel::edge_prior(
                out_strength[edge.source],
                in_strength[edge.target],
                total,
            )
            .and_then(|model| model.posterior(edge.weight.min(total), total));
            match posterior {
                Ok(_) => None,
                Err(StatsError::InvalidParameter { parameter, .. }) => Some(parameter),
                Err(other) => panic!("unexpected refusal {other}"),
            }
        })
        .collect()
}

fn generated(direction: Direction) -> CsrGraph {
    let graph = ScenarioSpec::parse(SPEC).unwrap().generate().unwrap();
    match direction {
        Direction::Undirected => graph,
        // The same triples read as arcs: out- and in-strengths now differ.
        Direction::Directed => CsrGraph::from_edges(
            Direction::Directed,
            graph.node_count(),
            graph
                .edges()
                .map(|edge| (edge.source, edge.target, edge.weight))
                .collect::<Vec<_>>(),
        )
        .unwrap(),
    }
}

#[test]
fn generated_graphs_keep_their_score_bits() {
    for (direction, expected) in [
        (Direction::Undirected, 0xc0e8_378e_8d98_21b1_u64),
        (Direction::Directed, 0x967c_7669_1ef8_d27e_u64),
    ] {
        let graph = generated(direction);
        assert!(graph.edge_count() > 8000, "{direction:?}: degenerate");
        // Every edge takes the posterior, none the plug-in fallback.
        assert_eq!(refused_parameters(&graph), BTreeSet::new(), "{direction:?}");
        let actual = digest(&score(&graph).unwrap());
        assert_eq!(actual, expected, "{direction:?}: digest {actual:#018x}");
    }
}

/// One hand-built graph per refusal branch: its arcs, the parameters the
/// stats crate refuses on them and the digest of its NC scores.
struct RefusalRow {
    name: &'static str,
    arcs: &'static [(usize, usize, f64)],
    refused: &'static [&'static str],
    digest: u64,
}

const REFUSAL_ROWS: [RefusalRow; 4] = [
    RefusalRow {
        // N.. ≤ 1: NC scores every edge as (0, 0) before asking for a prior.
        name: "total at most 1",
        arcs: &[(0, 1, 0.25), (1, 2, 0.5)],
        refused: &["total_weight"],
        digest: 0xa09d_945a_1cd8_d6e5,
    },
    RefusalRow {
        // N_i. N_.j = N..², so E[P_ij] = 1: the plug-in estimate takes over.
        name: "a lone edge",
        arcs: &[(0, 1, 5.0)],
        refused: &["mean"],
        digest: 0x81d2_3fd7_003c_2305,
    },
    RefusalRow {
        // Node 1 receives every unit, so N.. − N_.j = 0 and V[P_ij] = 0 is
        // not inside (0, E[P_ij](1 − E[P_ij])).
        name: "a hub holding nearly all the weight",
        arcs: &[(0, 1, 1000.0), (2, 1, 1.0)],
        refused: &["variance"],
        digest: 0x60ea_60b9_8c05_b8a8,
    },
    RefusalRow {
        // 2 → 1 has zero weight between nodes of positive strength and takes
        // the posterior; node 3 has zero strength, so 3 → 0 scores (0, 0).
        name: "a zero weight",
        arcs: &[
            (0, 1, 3.0),
            (1, 2, 5.0),
            (2, 0, 4.0),
            (2, 1, 0.0),
            (3, 0, 0.0),
        ],
        refused: &["out_strength/in_strength"],
        digest: 0x78c5_22f9_5c34_a014,
    },
];

#[test]
fn refusal_branches_keep_their_score_bits() {
    for row in &REFUSAL_ROWS {
        let nodes = row
            .arcs
            .iter()
            .map(|&(s, t, _)| s.max(t) + 1)
            .max()
            .unwrap();
        let graph = CsrGraph::from_edges(Direction::Directed, nodes, row.arcs.to_vec()).unwrap();
        let refused: BTreeSet<_> = row.refused.iter().copied().collect();
        assert_eq!(refused_parameters(&graph), refused, "{}", row.name);
        let actual = digest(&score(&graph).unwrap());
        assert_eq!(actual, row.digest, "{}: digest {actual:#018x}", row.name);
    }
}

#[test]
fn an_underflowing_strength_product_is_refused() {
    // N_i. N_.j = 1e-400 underflows to 0, so κ = N.. / 0 and the lift is NaN.
    let graph =
        CsrGraph::from_edges(Direction::Directed, 4, vec![(0, 1, 1e-200), (2, 3, 5.0)]).unwrap();
    assert_eq!(
        refused_parameters(&graph),
        BTreeSet::from(["mean"]),
        "both edges fall back to the plug-in estimate"
    );
    let err = score(&graph).unwrap_err();
    assert!(
        matches!(err, BackboneError::UnsupportedGraph { .. }),
        "{err}"
    );
    assert_eq!(
        err.to_string(),
        "noise_corrected cannot process this graph: node strengths 1e-200 and 1e-200 are too \
         small for f64: their edge's lift comes out NaN with standard deviation NaN"
    );
}
