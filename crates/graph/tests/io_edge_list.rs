//! Regression tests for edge-list parsing: error reporting (source name +
//! line number), malformed weights, empty node names and names holding a
//! tab or a carriage return, a leading byte-order mark, blank lines, and
//! duplicate-edge accumulation semantics.

use backboning_graph::io::{
    read_edge_list_csr_named, read_edge_list_csr_str, read_edge_list_file, read_edge_list_named,
    read_edge_list_str, EdgeListOptions,
};
use backboning_graph::{CsrGraph, Direction};

fn temp_path(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("backboning_graph_io_edge_list");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn file_parse_errors_name_the_offending_path() {
    let path = temp_path("malformed_weight.tsv");
    std::fs::write(&path, "A B 1.0\nB C twelve\n").unwrap();
    let err = read_edge_list_file(&path, &EdgeListOptions::default()).unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("malformed_weight.tsv"),
        "missing path in `{message}`"
    );
    assert!(message.contains("line 2"), "missing line in `{message}`");
    assert!(message.contains("twelve"), "missing token in `{message}`");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn open_errors_name_the_missing_path() {
    let path = temp_path("does_not_exist.tsv");
    let err = read_edge_list_file(&path, &EdgeListOptions::default()).unwrap_err();
    assert!(
        err.to_string().contains("does_not_exist.tsv"),
        "missing path in `{err}`"
    );
}

#[test]
fn named_reader_reports_custom_source() {
    let err = read_edge_list_named(
        "A B 1.0\nlonely\n".as_bytes(),
        &EdgeListOptions::default(),
        "<stdin>",
    )
    .unwrap_err();
    let message = err.to_string();
    assert!(message.contains("<stdin>"), "missing source in `{message}`");
    assert!(message.contains("line 2"), "missing line in `{message}`");
}

#[test]
fn malformed_weight_variants_are_rejected_with_line_numbers() {
    for (text, bad_line) in [
        ("A B x\n", 1),
        ("A B 1.0\nB C 2.0\nC D 1..5\n", 3),
        ("A B 1.0\n\n\nB C nan_but_worse\n", 4),
    ] {
        let err = read_edge_list_str(text, &EdgeListOptions::default()).unwrap_err();
        assert!(
            err.to_string().contains(&format!("line {bad_line}")),
            "`{text:?}` should fail on line {bad_line}, got `{err}`"
        );
    }
}

#[test]
fn negative_weights_are_rejected_with_line_numbers() {
    let err = read_edge_list_str("A B 1.0\nB C -3.5\n", &EdgeListOptions::default()).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("line 2"), "missing line in `{message}`");
    assert!(message.contains("-3.5"), "missing weight in `{message}`");
}

#[test]
fn empty_lines_and_whitespace_only_lines_are_skipped() {
    let text = "\n  \nA B 1.0\n\t\nB C 2.0\n\n";
    let graph = read_edge_list_str(text, &EdgeListOptions::default()).unwrap();
    assert_eq!(graph.node_count(), 3);
    assert_eq!(graph.edge_count(), 2);
}

#[test]
fn entirely_empty_input_yields_an_empty_graph() {
    for text in ["", "\n\n", "# only comments\n"] {
        let graph = read_edge_list_str(text, &EdgeListOptions::default()).unwrap();
        assert_eq!(graph.node_count(), 0, "input {text:?}");
        assert_eq!(graph.edge_count(), 0, "input {text:?}");
    }
}

#[test]
fn duplicate_directed_edges_accumulate_weights() {
    let text = "A B 1.5\nA B 2.5\nA B\n";
    let graph = read_edge_list_str(text, &EdgeListOptions::default()).unwrap();
    assert_eq!(graph.edge_count(), 1);
    let a = graph.node_by_label("A").unwrap();
    let b = graph.node_by_label("B").unwrap();
    // 1.5 + 2.5 + the implicit weight 1 of the weightless line.
    assert_eq!(graph.edge_weight(a, b), Some(5.0));
}

#[test]
fn duplicate_undirected_edges_accumulate_across_orientations() {
    let options = EdgeListOptions::with_direction(Direction::Undirected);
    let graph = read_edge_list_str("A B 1.0\nB A 2.0\nA B 4.0\n", &options).unwrap();
    assert_eq!(graph.edge_count(), 1);
    let a = graph.node_by_label("A").unwrap();
    let b = graph.node_by_label("B").unwrap();
    assert_eq!(graph.edge_weight(a, b), Some(7.0));
    assert_eq!(graph.edge_weight(b, a), Some(7.0));
}

#[test]
fn empty_node_names_are_rejected_by_both_readers() {
    for (text, separator, line, role) in [
        ("a,b,1\na,,3\n", ',', 2, "target"),
        ("a\t\t3\n", '\t', 1, "target"),
        (",b,2\n", ',', 1, "source"),
        ("x,y\na,\n", ',', 2, "target"),
        (" , \n", ',', 1, "source"),
    ] {
        let options = EdgeListOptions {
            separator: Some(separator),
            ..Default::default()
        };
        let adjacency = read_edge_list_named(text.as_bytes(), &options, "edges.csv").unwrap_err();
        let compact = read_edge_list_csr_named(text.as_bytes(), &options, "edges.csv").unwrap_err();
        assert_eq!(adjacency, compact, "{text:?}");
        let message = adjacency.to_string();
        assert!(
            message.contains(&format!("edges.csv: line {line}: empty {role} node name")),
            "{text:?}: `{message}`"
        );
    }
}

#[test]
fn names_an_edge_list_cannot_carry_are_rejected_by_both_readers() {
    // With an explicit separator a tab or a carriage return can land
    // inside a name; written back as TSV, that line would read as a
    // different edge.
    for (text, separator, line, name) in [
        ("x\t2,3,1\n3,4,5\n", ',', 1, "x\t2"),
        ("a,b,1\nc,d\re,2\n", ',', 2, "d\re"),
        ("a;b\rc;1\n", ';', 1, "b\rc"),
        ("a\tb\rc\t4\n", '\t', 1, "b\rc"),
    ] {
        let options = EdgeListOptions {
            separator: Some(separator),
            ..Default::default()
        };
        let adjacency = read_edge_list_named(text.as_bytes(), &options, "edges.csv").unwrap_err();
        let compact = read_edge_list_csr_named(text.as_bytes(), &options, "edges.csv").unwrap_err();
        assert_eq!(adjacency, compact, "{text:?}");
        let message = adjacency.to_string();
        let expected = format!(
            "edges.csv: line {line}: node name {name:?} contains a tab or line break, \
             which an edge list cannot carry"
        );
        assert!(message.contains(&expected), "{text:?}: `{message}`");
    }
    // A name with an inner space is carried by a tab-separated line.
    let options = EdgeListOptions {
        separator: Some(','),
        ..Default::default()
    };
    let graph = read_edge_list_csr_str("New York,Boston,3\n", &options).unwrap();
    assert_eq!(graph.node_count(), 2);
}

#[test]
fn a_leading_byte_order_mark_is_dropped_by_both_readers() {
    let plain = "a,b,1\na,c,2\n";
    let marked = format!("\u{feff}{plain}");
    for direction in [Direction::Directed, Direction::Undirected] {
        let options = EdgeListOptions {
            direction,
            separator: Some(','),
            ..Default::default()
        };
        let graph = read_edge_list_str(&marked, &options).unwrap();
        assert_eq!(graph.node_count(), 3);
        assert_eq!(
            CsrGraph::from_graph(&graph).unwrap(),
            CsrGraph::from_graph(&read_edge_list_str(plain, &options).unwrap()).unwrap()
        );
        assert_eq!(
            read_edge_list_csr_str(&marked, &options).unwrap(),
            read_edge_list_csr_str(plain, &options).unwrap()
        );
    }
    // Only line 1 may carry the mark: elsewhere U+FEFF is part of a name.
    let later = read_edge_list_str("a b 1\n\u{feff}a c 2\n", &EdgeListOptions::default()).unwrap();
    assert_eq!(later.node_count(), 4);
}

#[test]
fn directed_reader_keeps_orientations_distinct() {
    let graph = read_edge_list_str("A B 1.0\nB A 2.0\n", &EdgeListOptions::default()).unwrap();
    assert_eq!(graph.edge_count(), 2);
    let a = graph.node_by_label("A").unwrap();
    let b = graph.node_by_label("B").unwrap();
    assert_eq!(graph.edge_weight(a, b), Some(1.0));
    assert_eq!(graph.edge_weight(b, a), Some(2.0));
}
