//! Property tests for the compact-core refactor seams in this crate:
//!
//! * the streaming CSR edge-list reader must agree with the in-memory
//!   adjacency reader on **every** input — well-formed, malformed, and
//!   degenerate alike (same graph on success, same error message on failure),
//!   and neither may panic on arbitrary bytes;
//! * every way of feeding [`CsrBuilder`] duplicate-heavy edges must equal the
//!   adjacency-map oracle bit for bit (its `f64` weights compared exactly);
//! * both readers must intern labels exactly like an independent
//!   first-appearance `HashMap` oracle, whichever route of the label table
//!   a label takes (decimal or hashed, before or after the decimal bound
//!   grows);
//! * union-find connectivity (the engine behind `algorithms::components` and
//!   the comparison report) must match an independent BFS reference, on both
//!   the adjacency graph and its CSR image.

use std::collections::HashMap;

use proptest::prelude::*;

use backboning_graph::algorithms::components::{component_count, largest_component_size};
use backboning_graph::algorithms::union_find::UnionFind;
use backboning_graph::io::{read_edge_list_csr_named, read_edge_list_named, EdgeListOptions};
use backboning_graph::{CsrBuilder, CsrGraph, Direction, GraphView, WeightedGraph};

const LABELS: [&str; 6] = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"];

/// Strategy: raw edge-list text mixing valid weighted lines, weightless
/// lines, duplicate edges (the same label pair recurs freely), comments,
/// blank lines, malformed weights, and negative weights.
fn edge_list_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(
        ((0usize..8), (0usize..6), (0usize..6), 0.05f64..50.0),
        0..40,
    )
    .prop_map(|lines| {
        let mut text = String::new();
        for (kind, a, b, weight) in lines {
            let a = LABELS[a];
            let b = LABELS[b];
            match kind {
                0..=2 => text.push_str(&format!("{a} {b} {weight}\n")),
                3 => text.push_str(&format!("{a}\t{b}\n")),
                4 => text.push_str("# interleaved comment\n"),
                5 => text.push_str("   \n"),
                6 => text.push_str(&format!("{a} {b} not-a-number\n")),
                _ => text.push_str(&format!("{a} {b} -{weight}\n")),
            }
        }
        text
    })
}

/// Reader-fuzz tokens for the first two fields of a line: plain,
/// numeric, comment-mark-bearing and non-ASCII labels.
const LABEL_TOKENS: [&[u8]; 8] = [
    b"alpha",
    b"beta",
    b"gamma",
    b"delta",
    b"7",
    b"x#y",
    "\u{fc}ber".as_bytes(),
    b"-",
];

/// Reader-fuzz tokens for the third field on: weights that parse.
const WEIGHT_TOKENS: [&[u8]; 8] = [b"1.5", b"0", b"12", b"3e2", b"0.1", b"2", b"+4", b"1e-3"];

/// Reader-fuzz tokens that may stand in any field: weights the reader must
/// reject (`nan`, negative, overflowing to infinity), a comment mark, a
/// byte-order mark, an empty field, and bytes that are not UTF-8.
const RARE_TOKENS: [&[u8]; 8] = [
    b"nan",
    b"-2",
    b"1e400",
    b"#",
    "\u{feff}".as_bytes(),
    b"",
    b"\xff",
    b"\xe3\x80",
];

/// Field gaps other than the one the options name: ASCII and Unicode
/// (U+00A0, U+3000) spaces, doubled separators that leave an empty field,
/// and a bare carriage return.
const STRAY_GAPS: [&[u8]; 8] = [
    b",",
    b"\t",
    b"  ",
    "\u{a0}".as_bytes(),
    "\u{3000}".as_bytes(),
    b",,",
    b"\t\t",
    b"\r",
];

/// Strategy: edge-list bytes built from the token alphabets above, read
/// under random options: separator (whitespace, `,`, tab or space),
/// header, direction. Lines end in `\n` or `\r\n`; one input in three
/// starts with a byte-order mark. Two gaps in three are the named
/// separator and one field in 24 is a rare token, so many lines parse and
/// many inputs fail only somewhere inside.
fn fuzzed_input() -> impl Strategy<Value = (Vec<u8>, EdgeListOptions)> {
    (
        proptest::collection::vec(
            (
                proptest::collection::vec((0usize..8, 0usize..24, 0usize..24), 2..5),
                0usize..4,
            ),
            0..12,
        ),
        (0usize..4, 0usize..2, 0usize..2, 0usize..3),
    )
        .prop_map(|(lines, (separator, header, directed, bom))| {
            let own_gap: &[u8] = [b" ", b",", b"\t", b" "][separator];
            let mut bytes = Vec::new();
            if bom == 0 {
                bytes.extend_from_slice("\u{feff}".as_bytes());
            }
            for (fields, end) in lines {
                for (position, (pick, rare, gap)) in fields.into_iter().enumerate() {
                    if position > 0 {
                        bytes.extend_from_slice(if gap < 16 {
                            own_gap
                        } else {
                            STRAY_GAPS[gap - 16]
                        });
                    }
                    bytes.extend_from_slice(match (rare, position) {
                        (0, _) => RARE_TOKENS[pick],
                        (_, 0 | 1) => LABEL_TOKENS[pick],
                        _ => WEIGHT_TOKENS[pick],
                    });
                }
                bytes.extend_from_slice(if end == 0 { b"\r\n" } else { b"\n" });
            }
            let options = EdgeListOptions {
                direction: if directed == 0 {
                    Direction::Directed
                } else {
                    Direction::Undirected
                },
                separator: [None, Some(','), Some('\t'), Some(' ')][separator],
                has_header: header == 1,
                ..Default::default()
            };
            (bytes, options)
        })
}

/// Interning tokens: canonical decimals (`3000` lies past the decimal bound
/// of a short input but not of a long one), non-canonical decimals,
/// decimals past any bound, and non-ASCII names (one of them an Arabic-Indic
/// digit).
const INTERN_TOKENS: [&str; 16] = [
    "0",
    "1",
    "7",
    "42",
    "1023",
    "3000",
    "007",
    "+5",
    "-0",
    "5.0",
    "00",
    "999999999",
    "4294967296",
    "\u{fc}ber",
    "\u{6771}\u{4eac}",
    "\u{663}",
];

/// Filler lines `v v+1 1` for `v` in `0..1500`: they grow the decimal bound
/// past every canonical token above.
const FILLER_LINES: usize = 1500;

/// Strategy: up to 40 lines over the interning tokens, with the filler
/// lines absent, first, or in the middle (so a token can be interned
/// before the bound grows and looked up after), read in either direction.
fn interning_input() -> impl Strategy<Value = (String, Direction)> {
    (
        proptest::collection::vec((0usize..16, 0usize..16, 0usize..4), 0..40),
        0usize..3,
        0usize..2,
    )
        .prop_map(|(lines, filler, directed)| {
            let filler_at = match filler {
                0 => usize::MAX,
                1 => 0,
                _ => lines.len() / 2,
            };
            let mut text = String::new();
            for (index, (a, b, weight)) in lines.iter().enumerate() {
                if index == filler_at {
                    for v in 0..FILLER_LINES {
                        text.push_str(&format!("{v} {} 1\n", v + 1));
                    }
                }
                let weight = ["1", "2.5", "0.125", "3"][*weight];
                text.push_str(&format!(
                    "{} {} {weight}\n",
                    INTERN_TOKENS[*a], INTERN_TOKENS[*b]
                ));
            }
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            (text, direction)
        })
}

/// Independent interning reference: node ids by first appearance in a
/// `HashMap<String, usize>`, edges by first occurrence of their canonical
/// endpoint pair, a repeated edge's weight added left to right.
#[allow(clippy::type_complexity)]
fn interning_oracle(text: &str, direction: Direction) -> (Vec<String>, Vec<(usize, usize, f64)>) {
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut labels: Vec<String> = Vec::new();
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut edge_ids: HashMap<(usize, usize), usize> = HashMap::new();
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        let mut id_of = |label: &str| {
            *ids.entry(label.to_string()).or_insert_with(|| {
                labels.push(label.to_string());
                labels.len() - 1
            })
        };
        let (source, target) = (id_of(fields[0]), id_of(fields[1]));
        let weight: f64 = fields[2].parse().unwrap();
        let pair = match direction {
            Direction::Directed => (source, target),
            Direction::Undirected => (source.min(target), source.max(target)),
        };
        match edge_ids.get(&pair) {
            Some(&edge) => edges[edge].2 += weight,
            None => {
                edge_ids.insert(pair, edges.len());
                edges.push((pair.0, pair.1, weight));
            }
        }
    }
    (labels, edges)
}

/// Strategy: duplicate-heavy `(source, target, weight)` triples on 1–64
/// nodes of either direction. Most triples fall on a few hot nodes, so
/// pairs recur in both orientations and as self-loops; the rest land
/// anywhere. Also draws a labelled-node mask for the builder variants.
#[allow(clippy::type_complexity)]
fn duplicate_heavy_triples(
) -> impl Strategy<Value = (Direction, usize, Vec<(usize, usize, f64)>, u64)> {
    (
        0usize..2,
        1usize..65,
        1usize..9,
        proptest::collection::vec((0usize..64, 0usize..64, 0usize..5, 0.0f64..10.0), 0..160),
        0u64..u64::MAX,
    )
        .prop_map(|(directed, nodes, hot, picks, label_mask)| {
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let hot = hot.min(nodes);
            let triples = picks
                .into_iter()
                .map(|(a, b, kind, weight)| {
                    let (a, b) = match kind {
                        0 => (a % hot, b % hot),
                        1 => (b % hot, a % hot),
                        2 => (a % hot, a % hot),
                        _ => (a % nodes, b % nodes),
                    };
                    (a, b, weight)
                })
                .collect();
            (direction, nodes, triples, label_mask)
        })
}

/// The adjacency-map graph with one node per `labels` entry (labelled where
/// it says) after `add_edge` of every triple, in CSR form.
fn labeled_oracle(
    direction: Direction,
    labels: &[Option<String>],
    triples: &[(usize, usize, f64)],
) -> CsrGraph {
    let mut graph = WeightedGraph::new(direction);
    for label in labels {
        match label {
            Some(label) => graph.add_labeled_node(label.clone()).unwrap(),
            None => graph.add_node(),
        };
    }
    for &(source, target, weight) in triples {
        graph.add_edge(source, target, weight).unwrap();
    }
    CsrGraph::from_graph(&graph).unwrap()
}

/// Strategy: a small random graph of either direction with duplicate edges
/// accumulated and isolated nodes possible (same shape as the core crate's
/// parity harnesses).
fn random_graph() -> impl Strategy<Value = WeightedGraph> {
    (
        proptest::collection::vec(((0usize..12), (0usize..12), 0.05f64..50.0), 0..60),
        0usize..2,
    )
        .prop_map(|(edges, directed)| {
            let direction = if directed == 0 {
                Direction::Directed
            } else {
                Direction::Undirected
            };
            let mut graph = WeightedGraph::with_nodes(direction, 12);
            for (source, target, weight) in edges {
                if source != target {
                    graph.add_edge(source, target, weight).unwrap();
                }
            }
            graph
        })
}

/// Independent reference: weak connectivity via BFS over an adjacency list
/// built from scratch, ignoring edge direction.
fn bfs_component_sizes<G: GraphView>(graph: &G) -> Vec<usize> {
    let node_count = graph.node_count();
    let mut neighbors = vec![Vec::new(); node_count];
    for edge in graph.edges() {
        neighbors[edge.source].push(edge.target);
        neighbors[edge.target].push(edge.source);
    }
    let mut visited = vec![false; node_count];
    let mut sizes = Vec::new();
    for start in 0..node_count {
        if visited[start] {
            continue;
        }
        visited[start] = true;
        let mut queue = std::collections::VecDeque::from([start]);
        let mut size = 0usize;
        while let Some(node) = queue.pop_front() {
            size += 1;
            for &next in &neighbors[node] {
                if !visited[next] {
                    visited[next] = true;
                    queue.push_back(next);
                }
            }
        }
        sizes.push(size);
    }
    sizes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Streaming CSR ingestion is a drop-in replacement for the adjacency
    /// reader: identical graphs on success, identical diagnostics on failure.
    #[test]
    fn streaming_reader_matches_adjacency_reader(
        (text, directed) in (edge_list_text(), 0usize..2)
    ) {
        let direction = if directed == 0 {
            Direction::Directed
        } else {
            Direction::Undirected
        };
        let options = EdgeListOptions::with_direction(direction);
        let adjacency = read_edge_list_named(text.as_bytes(), &options, "<prop>");
        let streamed = read_edge_list_csr_named(text.as_bytes(), &options, "<prop>");
        match (adjacency, streamed) {
            (Ok(graph), Ok(csr)) => {
                let compact = CsrGraph::from_graph(&graph).unwrap();
                prop_assert!(
                    compact == csr,
                    "graphs differ for input {text:?} ({direction:?})"
                );
            }
            (Err(expected), Err(got)) => {
                prop_assert_eq!(expected.to_string(), got.to_string());
            }
            (adjacency, streamed) => prop_assert!(
                false,
                "readers disagree on success for {:?}: adjacency ok={}, streamed ok={}",
                text,
                adjacency.is_ok(),
                streamed.is_ok()
            ),
        }
    }

    /// Union-find connectivity agrees with an independent BFS reference, and
    /// is view-invariant: the CSR image reports the same components as the
    /// adjacency graph it was built from.
    #[test]
    fn union_find_connectivity_matches_bfs(graph in random_graph()) {
        let bfs_sizes = bfs_component_sizes(&graph);
        let bfs_components = bfs_sizes.len();
        let bfs_largest = bfs_sizes.iter().copied().max().unwrap_or(0);

        prop_assert_eq!(component_count(&graph), bfs_components);
        prop_assert_eq!(largest_component_size(&graph), bfs_largest);

        // Raw union-find, driven the same way the comparison report drives it.
        let mut union_find = UnionFind::new(graph.node_count());
        for edge in graph.edges() {
            union_find.union(edge.source, edge.target);
        }
        prop_assert_eq!(union_find.component_count(), bfs_components);

        let csr = CsrGraph::from_graph(&graph).unwrap();
        prop_assert_eq!(component_count(&csr), bfs_components);
        prop_assert_eq!(largest_component_size(&csr), bfs_largest);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both readers number nodes by first appearance and resolve every
    /// label to one node, on the decimal route and the hashed one alike.
    #[test]
    fn readers_intern_labels_like_a_first_appearance_oracle(
        (text, direction) in interning_input()
    ) {
        let (labels, edges) = interning_oracle(&text, direction);
        let options = EdgeListOptions::with_direction(direction);
        let adjacency = read_edge_list_named(text.as_bytes(), &options, "<intern>").unwrap();
        let streamed = read_edge_list_csr_named(text.as_bytes(), &options, "<intern>").unwrap();
        for (id, label) in labels.iter().enumerate() {
            prop_assert_eq!((label, adjacency.node_by_label(label)), (label, Some(id)));
            prop_assert_eq!((label, streamed.node_by_label(label)), (label, Some(id)));
        }
        for graph in [&CsrGraph::from_graph(&adjacency).unwrap(), &streamed] {
            prop_assert_eq!(graph.node_count(), labels.len());
            for (id, label) in labels.iter().enumerate() {
                prop_assert_eq!(graph.label(id), Some(label.as_str()));
            }
            let got: Vec<(usize, usize, f64)> = graph
                .edges()
                .map(|edge| (edge.source, edge.target, edge.weight))
                .collect();
            prop_assert_eq!(&got, &edges);
        }
        for label in ["1502", "3001", "0007", "\u{fc}", "n0"] {
            prop_assert_eq!(streamed.node_by_label(label), None);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Neither reader panics on arbitrary bytes, and both return the same
    /// graph or the same error. A graph never holds a node named `""`.
    #[test]
    fn edge_list_readers_agree_on_fuzzed_bytes((bytes, options) in fuzzed_input()) {
        let adjacency = read_edge_list_named(bytes.as_slice(), &options, "<fuzz>");
        let streamed = read_edge_list_csr_named(bytes.as_slice(), &options, "<fuzz>");
        match (adjacency, streamed) {
            (Ok(graph), Ok(csr)) => {
                prop_assert!(
                    CsrGraph::from_graph(&graph).unwrap() == csr,
                    "graphs differ for input {:?} ({options:?})",
                    String::from_utf8_lossy(&bytes)
                );
                prop_assert!(csr.nodes().all(|node| csr.label(node) != Some("")));
            }
            (Err(expected), Err(got)) => {
                prop_assert_eq!(expected.to_string(), got.to_string());
            }
            (adjacency, streamed) => prop_assert!(
                false,
                "readers disagree on success for {:?}: adjacency ok={}, streamed ok={}",
                String::from_utf8_lossy(&bytes),
                adjacency.is_ok(),
                streamed.is_ok()
            ),
        }
    }

    /// `CsrBuilder` deduplicates exactly like repeated
    /// `WeightedGraph::add_edge` calls, however it is fed: by index through
    /// `from_edges`, through `ensure_node` after pre-declared nodes, and
    /// over a partially labelled table. Each build equals the adjacency-map
    /// oracle carrying the same labels, `f64` weights compared exactly.
    #[test]
    fn builder_dedup_matches_the_adjacency_oracle(
        (direction, nodes, triples, label_mask) in duplicate_heavy_triples()
    ) {
        let oracle = CsrGraph::from_graph(
            &WeightedGraph::from_edges(direction, nodes, triples.clone()).unwrap(),
        )
        .unwrap();
        prop_assert!(
            CsrGraph::from_edges(direction, nodes, triples.clone()).unwrap() == oracle,
            "from_edges differs for {triples:?} ({direction:?})"
        );

        // Nodes from `declared` on are interned by label on first appearance,
        // on both sides.
        let declared = nodes / 2;
        let mut builder = CsrBuilder::with_nodes(direction, declared).unwrap();
        let mut reference = WeightedGraph::with_nodes(direction, declared);
        for &(source, target, weight) in &triples {
            let mut ids = [source, target];
            let mut reference_ids = ids;
            for (id, reference_id) in ids.iter_mut().zip(&mut reference_ids) {
                if *id >= declared {
                    let label = format!("n{id}");
                    *reference_id = reference.ensure_node(&label);
                    *id = builder.ensure_node(&label).unwrap();
                }
            }
            builder.add_edge(ids[0], ids[1], weight).unwrap();
            reference.add_edge(reference_ids[0], reference_ids[1], weight).unwrap();
        }
        prop_assert!(
            builder.finish().unwrap() == CsrGraph::from_graph(&reference).unwrap(),
            "ensure_node build differs for {triples:?} ({direction:?})"
        );

        // A label table covering a prefix of the nodes, labelled by mask.
        let table_len = (label_mask as usize >> 8) % (nodes + 1);
        let table: Vec<Option<String>> = (0..table_len)
            .map(|id| (label_mask >> (id % 64) & 1 == 1).then(|| format!("n{id}")))
            .collect();
        let mut builder =
            CsrBuilder::with_labeled_nodes(direction, nodes, table.clone()).unwrap();
        for &(source, target, weight) in &triples {
            builder.add_edge(source, target, weight).unwrap();
        }
        let mut padded = table;
        padded.resize(nodes, None);
        prop_assert!(
            builder.finish().unwrap() == labeled_oracle(direction, &padded, &triples),
            "labelled build differs for {triples:?} ({direction:?})"
        );
    }
}
