//! Plain-text edge-list input/output.
//!
//! The reference Python implementation of the paper exchanges networks as
//! whitespace- or tab-separated edge lists (`source target weight`, one edge
//! per line, optional header). This module reads and writes the same format so
//! that networks can be moved between this crate and external tools.
//!
//! Reading is **streaming**: lines are consumed one at a time from any
//! [`BufRead`] source (a file, stdin, a byte slice), so arbitrarily large
//! edge lists are ingested without buffering the whole file or materializing
//! an intermediate `Vec` of parsed lines. Parse failures report the offending
//! source name and line number. A data line holds two or three fields
//! (`source target [weight]`); a fourth is an error. A node name may not be
//! empty, nor hold a tab or a carriage return, which the tab-separated
//! writers could not carry back (both are possible only with an explicit
//! separator). One byte-order mark (U+FEFF) leading the input is dropped.
//!
//! Two families of readers share one parser:
//!
//! * `read_edge_list*` build the mutable adjacency-map [`WeightedGraph`]
//!   (small graphs, fixtures, compat);
//! * `read_edge_list_csr*` stream straight into a [`CsrBuilder`] and return
//!   the compact [`CsrGraph`] — the canonical ingestion path of the CLI and
//!   the HTTP server. Both produce bit-identical structures (same node ids,
//!   edge ids and accumulated weights; pinned by the ingestion parity suite).
//!
//! ```
//! use backboning_graph::io::{read_edge_list_str, write_edge_list_string, EdgeListOptions};
//! use backboning_graph::Direction;
//!
//! // Comments and blank lines are skipped; duplicate edges accumulate.
//! let text = "# world trade, USD\nNLD DEU 4.0\nNLD DEU 1.5\nDEU FRA 2.0\n";
//! let options = EdgeListOptions::with_direction(Direction::Undirected);
//! let graph = read_edge_list_str(text, &options).unwrap();
//! assert_eq!(graph.edge_count(), 2);
//!
//! let nld = graph.node_by_label("NLD").unwrap();
//! let deu = graph.node_by_label("DEU").unwrap();
//! assert_eq!(graph.edge_weight(nld, deu), Some(5.5));
//!
//! // Errors carry the source name and the line number.
//! let err = read_edge_list_str("A B not_a_number", &options).unwrap_err();
//! assert!(err.to_string().contains("line 1"));
//!
//! // Writing round-trips through the same format.
//! let round = write_edge_list_string(&graph).unwrap();
//! assert!(round.contains("NLD\tDEU\t5.5"));
//! ```

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::csr::{CsrBuilder, CsrGraph};
use crate::error::{GraphError, GraphResult};
use crate::graph::{Direction, NodeId, WeightedGraph};
use crate::view::GraphView;

/// The source name used in error messages when none is supplied.
const ANONYMOUS_SOURCE: &str = "<edge list>";

/// Options controlling edge-list parsing.
#[derive(Debug, Clone)]
pub struct EdgeListOptions {
    /// Direction semantics of the resulting graph.
    pub direction: Direction,
    /// Field separator (`None` splits on arbitrary whitespace).
    pub separator: Option<char>,
    /// Whether the first non-comment line is a header to skip.
    pub has_header: bool,
    /// Lines starting with this prefix are ignored.
    pub comment_prefix: Option<char>,
}

impl Default for EdgeListOptions {
    fn default() -> Self {
        EdgeListOptions {
            direction: Direction::Directed,
            separator: None,
            has_header: false,
            comment_prefix: Some('#'),
        }
    }
}

impl EdgeListOptions {
    /// Default options with the given direction.
    pub fn with_direction(direction: Direction) -> Self {
        EdgeListOptions {
            direction,
            ..Default::default()
        }
    }
}

/// The shared streaming parser: feed every data line's
/// `(source, target, weight)` to `sink`, wrapping both parse failures and
/// sink errors with `source_name` and the 1-based line number.
///
/// One `String` is refilled for every line and at most four fields are
/// split off, so parsing a line allocates nothing. A line with a fourth
/// field is an error, not an edge that drops it: such a line is often a
/// node name holding the separator, read in the wrong mode. A leading U+FEFF
/// byte-order mark on line 1 is dropped. An empty source or target name
/// (possible only with an explicit separator, as in `a,,3`) is an error
/// rather than a node labelled `""`, and so is a name that
/// [`check_node_name`] refuses (with an explicit separator, one holding a
/// tab or a carriage return, as in `x\t2,3,1`).
fn parse_edge_lines<R, F>(
    mut reader: R,
    options: &EdgeListOptions,
    source_name: &str,
    mut sink: F,
) -> GraphResult<()>
where
    R: BufRead,
    F: FnMut(&str, &str, f64) -> GraphResult<()>,
{
    let mut skipped_header = !options.has_header;
    let mut line = String::new();
    let mut line_number = 0usize;
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| GraphError::Io {
            message: format!("{source_name}: line {}: {e}", line_number + 1),
        })?;
        if read == 0 {
            return Ok(());
        }
        line_number += 1;
        let mut text = line.as_str();
        if line_number == 1 {
            text = text.strip_prefix('\u{feff}').unwrap_or(text);
        }
        let trimmed = text.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(prefix) = options.comment_prefix {
            if trimmed.starts_with(prefix) {
                continue;
            }
        }
        if !skipped_header {
            skipped_header = true;
            continue;
        }
        let (fields, count) = match options.separator {
            Some(separator) => first_four(trimmed.split(separator).map(str::trim)),
            None => first_four(trimmed.split_whitespace()),
        };
        if count < 2 {
            return Err(GraphError::Io {
                message: format!(
                    "{source_name}: line {line_number}: expected at least `source target`, got `{trimmed}`"
                ),
            });
        }
        if count > 3 {
            return Err(GraphError::Io {
                message: format!(
                    "{source_name}: line {line_number}: expected at most `source target weight`, got `{trimmed}`"
                ),
            });
        }
        for (field, role) in fields[..2].iter().zip(["source", "target"]) {
            if field.is_empty() {
                return Err(GraphError::Io {
                    message: format!(
                        "{source_name}: line {line_number}: empty {role} node name in `{trimmed}`"
                    ),
                });
            }
            // Whitespace splitting leaves no whitespace inside a field.
            if options.separator.is_some() {
                check_node_name(field).map_err(|message| GraphError::Io {
                    message: format!("{source_name}: line {line_number}: {message}"),
                })?;
            }
        }
        let weight = if count == 3 {
            fields[2].parse::<f64>().map_err(|_| GraphError::Io {
                message: format!(
                    "{source_name}: line {line_number}: cannot parse weight `{}`",
                    fields[2]
                ),
            })?
        } else {
            1.0
        };
        sink(fields[0], fields[1], weight).map_err(|e| GraphError::Io {
            message: format!("{source_name}: line {line_number}: {e}"),
        })?;
    }
}

/// Refuse a node name that an edge list could not carry back: an empty
/// name, one padded with whitespace (the readers trim fields), or one
/// holding a tab or a line break (the writers' field and line separators).
/// The error reads `node name "…" <problem>, which an edge list cannot
/// carry`. The readers apply it to every name split off by an explicit
/// separator, and a PATCH to every name it adds.
pub(crate) fn check_node_name(name: &str) -> Result<(), String> {
    let problem = if name.is_empty() {
        "is empty"
    } else if name.trim() != name {
        "has leading or trailing whitespace"
    } else if name.contains(['\t', '\r', '\n']) {
        "contains a tab or line break"
    } else {
        return Ok(());
    };
    Err(format!(
        "node name {name:?} {problem}, which an edge list cannot carry"
    ))
}

/// The first four items of `fields` and how many there were (at most 4, so
/// 4 means "more than three"); later items are never split off.
fn first_four<'a>(fields: impl Iterator<Item = &'a str>) -> ([&'a str; 4], usize) {
    let mut first = [""; 4];
    let mut count = 0;
    for (slot, field) in first.iter_mut().zip(fields) {
        *slot = field;
        count += 1;
    }
    (first, count)
}

/// Parse a weighted edge list from any reader.
///
/// Each data line must contain `source target [weight]` and nothing more;
/// when the weight column is missing the edge gets weight 1. Node names are
/// arbitrary non-empty strings and become node labels. Duplicate edges
/// accumulate their weights.
///
/// Error messages use a generic source name; use [`read_edge_list_named`]
/// (or [`read_edge_list_file`], which names the file automatically) to report
/// where a malformed line came from.
pub fn read_edge_list<R: BufRead>(
    reader: R,
    options: &EdgeListOptions,
) -> GraphResult<WeightedGraph> {
    read_edge_list_named(reader, options, ANONYMOUS_SOURCE)
}

/// [`read_edge_list`], reporting `source_name` (a file path, `<stdin>`, …) in
/// every parse error alongside the 1-based line number.
pub fn read_edge_list_named<R: BufRead>(
    reader: R,
    options: &EdgeListOptions,
    source_name: &str,
) -> GraphResult<WeightedGraph> {
    let mut graph = WeightedGraph::new(options.direction);
    parse_edge_lines(reader, options, source_name, |source, target, weight| {
        let source = graph.intern_node(source)?;
        let target = graph.intern_node(target)?;
        graph.add_edge(source, target, weight).map(|_| ())
    })?;
    Ok(graph)
}

/// Parse a weighted edge list from a string.
pub fn read_edge_list_str(text: &str, options: &EdgeListOptions) -> GraphResult<WeightedGraph> {
    read_edge_list(text.as_bytes(), options)
}

/// Read a weighted edge list from a file.
///
/// Both open failures and parse failures name the offending path.
pub fn read_edge_list_file(
    path: impl AsRef<Path>,
    options: &EdgeListOptions,
) -> GraphResult<WeightedGraph> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io {
        message: format!("{}: {e}", path.display()),
    })?;
    read_edge_list_named(
        std::io::BufReader::new(file),
        options,
        &path.display().to_string(),
    )
}

/// Parse a weighted edge list straight into the compact [`CsrGraph`] — the
/// large-scale ingestion path. Parse semantics, error messages, node-id
/// assignment and duplicate-edge accumulation are identical to
/// [`read_edge_list`]; the difference is that no adjacency-map graph is ever
/// materialized.
pub fn read_edge_list_csr<R: BufRead>(
    reader: R,
    options: &EdgeListOptions,
) -> GraphResult<CsrGraph> {
    read_edge_list_csr_named(reader, options, ANONYMOUS_SOURCE)
}

/// [`read_edge_list_csr`], reporting `source_name` in every parse error.
pub fn read_edge_list_csr_named<R: BufRead>(
    reader: R,
    options: &EdgeListOptions,
    source_name: &str,
) -> GraphResult<CsrGraph> {
    let mut builder = CsrBuilder::new(options.direction);
    parse_edge_lines(reader, options, source_name, |source, target, weight| {
        builder.add_labeled_edge(source, target, weight)
    })?;
    builder.finish()
}

/// Parse a weighted edge list string into the compact [`CsrGraph`].
pub fn read_edge_list_csr_str(text: &str, options: &EdgeListOptions) -> GraphResult<CsrGraph> {
    read_edge_list_csr(text.as_bytes(), options)
}

/// Read a weighted edge list file into the compact [`CsrGraph`].
pub fn read_edge_list_csr_file(
    path: impl AsRef<Path>,
    options: &EdgeListOptions,
) -> GraphResult<CsrGraph> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|e| GraphError::Io {
        message: format!("{}: {e}", path.display()),
    })?;
    read_edge_list_csr_named(
        std::io::BufReader::new(file),
        options,
        &path.display().to_string(),
    )
}

/// Write a graph as a tab-separated edge list (`source<TAB>target<TAB>weight`).
///
/// Accepts either representation through [`GraphView`]. Nodes without labels
/// are written as their numeric id.
pub fn write_edge_list<G: GraphView, W: Write>(graph: &G, writer: W) -> GraphResult<()> {
    write_edges(graph, 0..graph.edge_count(), writer)
}

/// Write the edges with the listed dense ids, in list order, in the
/// [`write_edge_list`] format.
///
/// For a duplicate-free id list the bytes equal
/// `write_edge_list(&graph.subgraph_with_edges(ids))`, but no subgraph is
/// built: each line is read from `graph` by edge id. An id out of range is
/// an error, as in [`GraphView::subgraph_with_edges`].
pub fn write_edges<G, W, I>(graph: &G, edge_ids: I, writer: W) -> GraphResult<()>
where
    G: GraphView,
    W: Write,
    I: IntoIterator<Item = usize>,
{
    let mut writer = BufWriter::new(writer);
    writer.write_all(b"# source\ttarget\tweight\n")?;
    for index in edge_ids {
        let edge = graph
            .edge(index)
            .ok_or_else(|| GraphError::InvalidParameter {
                parameter: "edge_indices",
                message: format!("edge index {index} out of bounds"),
            })?;
        write_edge_fields(graph, edge.source, edge.target, edge.weight, &mut writer)?;
        writer.write_all(b"\n")?;
    }
    writer.flush()?;
    Ok(())
}

/// Write one edge's `source<TAB>target<TAB>weight` fields, without a line
/// terminator, straight into `writer`: each endpoint as its label in
/// `graph`, or as its numeric id when unlabeled. Every edge-list line and
/// every scored-edge row starts with these fields.
pub fn write_edge_fields<G: GraphView, W: Write>(
    graph: &G,
    source: NodeId,
    target: NodeId,
    weight: f64,
    writer: &mut W,
) -> std::io::Result<()> {
    write_node(graph, source, writer)?;
    writer.write_all(b"\t")?;
    write_node(graph, target, writer)?;
    writer.write_all(b"\t")?;
    write_f64(writer, weight)
}

/// Write `value` exactly as `write!(writer, "{value}")` would, byte for
/// byte, for every `f64`: the fewest digits that read back to the same
/// value (a tie between two rounds half up), in fixed notation with no
/// exponent and no `.0` on integers (`5`, `0.001`, `1e21` as `1` and 21
/// zeros, `5e-324` as 326 bytes), a `-` on every negative value including
/// `-0`, and `NaN`, `inf`, `-inf`.
///
/// The edge weights of `backbone gen`, CLI backbones and served TSV (via
/// [`write_edge_fields`]), the four float columns of `-o scores` and the
/// core crate's `json::number` are written here. Text rounded to a fixed
/// number of decimals (`json::number_fixed`, used for summary shares and
/// compare statistics) and the evaluation tables and bench records format
/// their floats themselves. The digits come from Ryu's shortest-digit
/// search (Adams, PLDI 2018), a few 64×128-bit multiplies
/// against tables of powers of five, and the text is laid out in a stack
/// buffer and handed to `writer` in one `write_all`.
///
/// ```
/// use backboning_graph::io::write_f64;
///
/// let mut out = Vec::new();
/// for value in [0.1, 1e21, -0.0, 1095000590158071.25] {
///     write_f64(&mut out, value).unwrap();
///     out.push(b' ');
/// }
/// assert_eq!(out, b"0.1 1000000000000000000000 -0 1095000590158071.3 ");
/// ```
pub fn write_f64<W: Write + ?Sized>(writer: &mut W, value: f64) -> std::io::Result<()> {
    let mut text = [0; crate::ryu::MAX_LEN];
    let len = crate::ryu::format(value, &mut text);
    writer.write_all(&text[..len])
}

fn write_node<G: GraphView, W: Write>(
    graph: &G,
    node: NodeId,
    writer: &mut W,
) -> std::io::Result<()> {
    match graph.label(node) {
        Some(label) => writer.write_all(label.as_bytes()),
        None => write!(writer, "{node}"),
    }
}

/// Write a graph as a tab-separated edge list to a file.
pub fn write_edge_list_file<G: GraphView>(graph: &G, path: impl AsRef<Path>) -> GraphResult<()> {
    let file = std::fs::File::create(path)?;
    write_edge_list(graph, file)
}

/// Serialise a graph to an edge-list string.
pub fn write_edge_list_string<G: GraphView>(graph: &G) -> GraphResult<String> {
    let mut buffer = Vec::new();
    write_edge_list(graph, &mut buffer)?;
    String::from_utf8(buffer).map_err(|e| GraphError::Io {
        message: format!("generated edge list is not valid UTF-8: {e}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::CsrGraph;

    #[test]
    fn reads_whitespace_separated_edges() {
        let text = "A B 2.0\nB C 3.5\n";
        let graph = read_edge_list_str(text, &EdgeListOptions::default()).unwrap();
        assert_eq!(graph.node_count(), 3);
        assert_eq!(graph.edge_count(), 2);
        let a = graph.node_by_label("A").unwrap();
        let b = graph.node_by_label("B").unwrap();
        assert_eq!(graph.edge_weight(a, b), Some(2.0));
    }

    #[test]
    fn missing_weight_defaults_to_one() {
        let graph = read_edge_list_str("A B\n", &EdgeListOptions::default()).unwrap();
        let a = graph.node_by_label("A").unwrap();
        let b = graph.node_by_label("B").unwrap();
        assert_eq!(graph.edge_weight(a, b), Some(1.0));
    }

    #[test]
    fn skips_comments_blank_lines_and_header() {
        let text = "# a comment\n\nsource target weight\nA B 1\nB C 2\n";
        let options = EdgeListOptions {
            has_header: true,
            ..Default::default()
        };
        let graph = read_edge_list_str(text, &options).unwrap();
        assert_eq!(graph.edge_count(), 2);
        assert!(graph.node_by_label("source").is_none());
    }

    #[test]
    fn custom_separator() {
        let text = "A,B,4.5\nB,C,1.0\n";
        let options = EdgeListOptions {
            separator: Some(','),
            ..Default::default()
        };
        let graph = read_edge_list_str(text, &options).unwrap();
        assert_eq!(graph.edge_count(), 2);
    }

    #[test]
    fn undirected_option_merges_orientations() {
        let text = "A B 1.0\nB A 2.0\n";
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        let graph = read_edge_list_str(text, &options).unwrap();
        assert_eq!(graph.edge_count(), 1);
        let a = graph.node_by_label("A").unwrap();
        let b = graph.node_by_label("B").unwrap();
        assert_eq!(graph.edge_weight(a, b), Some(3.0));
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(read_edge_list_str("just_one_field\n", &EdgeListOptions::default()).is_err());
        assert!(read_edge_list_str("A B not_a_number\n", &EdgeListOptions::default()).is_err());
    }

    #[test]
    fn a_fourth_field_is_refused_in_every_separator_mode() {
        // `x\t5 6\t3` is what a CSV node name `5 6` becomes in TSV output;
        // read back on whitespace it has four fields, not the edge `x 5`.
        for (text, separator) in [
            ("a b 1\na b 3 extra\n", None),
            ("a b 1\nx\t5 6\t3\n", None),
            ("a,b,1\na,b,3,extra\n", Some(',')),
            ("a\tb\t1\na\tb\t3\textra\n", Some('\t')),
        ] {
            let options = EdgeListOptions {
                separator,
                ..Default::default()
            };
            let adjacency = read_edge_list_named(text.as_bytes(), &options, "in").unwrap_err();
            let csr = read_edge_list_csr_named(text.as_bytes(), &options, "in").unwrap_err();
            assert_eq!(adjacency, csr, "{text:?}");
            let message = adjacency.to_string();
            assert!(
                message.contains("in: line 2: expected at most `source target weight`"),
                "{message}"
            );
        }
    }

    #[test]
    fn csr_reader_matches_adjacency_reader() {
        // Duplicates, both orientations, comments, header, missing weights.
        let text = "# trade\nsrc dst w\nA B 2.0\nB A 1.5\nB C\nA B 0.5\nC C 3.0\n";
        for direction in [Direction::Directed, Direction::Undirected] {
            let options = EdgeListOptions {
                direction,
                has_header: true,
                ..Default::default()
            };
            let graph = read_edge_list_str(text, &options).unwrap();
            let streamed = read_edge_list_csr_str(text, &options).unwrap();
            assert_eq!(
                streamed,
                CsrGraph::from_graph(&graph).unwrap(),
                "{direction:?}"
            );
        }
    }

    #[test]
    fn csr_reader_reports_identical_errors() {
        for bad in ["just_one_field\n", "A B not_a_number\n", "A B -2.0\n"] {
            let adjacency =
                read_edge_list_named(bad.as_bytes(), &EdgeListOptions::default(), "input.tsv")
                    .unwrap_err();
            let csr =
                read_edge_list_csr_named(bad.as_bytes(), &EdgeListOptions::default(), "input.tsv")
                    .unwrap_err();
            assert_eq!(adjacency, csr, "{bad:?}");
        }
    }

    #[test]
    fn write_edges_follows_the_id_list_and_rejects_unknown_ids() {
        let options = EdgeListOptions::default();
        let graph = read_edge_list_csr_str("a b 1\nb c 2\nc a 3.5\n", &options).unwrap();
        let mut out = Vec::new();
        write_edges(&graph, [2, 0], &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# source\ttarget\tweight\nc\ta\t3.5\na\tb\t1\n"
        );
        assert!(write_edges(&graph, [3], Vec::new()).is_err());
    }

    #[test]
    fn write_then_read_round_trips() {
        let original = WeightedGraph::from_labeled_edges(
            Direction::Directed,
            vec![("A", "B", 1.5), ("B", "C", 2.5), ("C", "A", 3.0)],
        )
        .unwrap();
        let text = write_edge_list_string(&original).unwrap();
        let restored = read_edge_list_str(&text, &EdgeListOptions::default()).unwrap();
        assert_eq!(restored.node_count(), original.node_count());
        assert_eq!(restored.edge_count(), original.edge_count());
        for edge in original.edges() {
            let source_label = original.label(edge.source).unwrap();
            let target_label = original.label(edge.target).unwrap();
            let restored_source = restored.node_by_label(source_label).unwrap();
            let restored_target = restored.node_by_label(target_label).unwrap();
            assert_eq!(
                restored.edge_weight(restored_source, restored_target),
                Some(edge.weight)
            );
        }
    }

    #[test]
    fn csr_graphs_serialize_identically() {
        let graph = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("X", "Y", 1.0), ("Y", "Z", 2.0)],
        )
        .unwrap();
        let csr = CsrGraph::from_graph(&graph).unwrap();
        assert_eq!(
            write_edge_list_string(&graph).unwrap(),
            write_edge_list_string(&csr).unwrap()
        );
    }

    #[test]
    fn unlabeled_nodes_are_written_as_ids() {
        let graph = WeightedGraph::from_edges(Direction::Directed, 2, vec![(0, 1, 7.0)]).unwrap();
        let text = write_edge_list_string(&graph).unwrap();
        assert!(text.contains("0\t1\t7"));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("backboning_graph_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("edges.tsv");
        let graph = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("X", "Y", 1.0), ("Y", "Z", 2.0)],
        )
        .unwrap();
        write_edge_list_file(&graph, &path).unwrap();
        let options = EdgeListOptions::with_direction(Direction::Undirected);
        let restored = read_edge_list_file(&path, &options).unwrap();
        assert_eq!(restored.edge_count(), 2);
        let compact = read_edge_list_csr_file(&path, &options).unwrap();
        assert_eq!(compact, CsrGraph::from_graph(&restored).unwrap());
        std::fs::remove_file(&path).unwrap();
    }
}
