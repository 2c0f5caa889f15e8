//! The keyed-row section writer behind `BENCH_backbones.json`'s
//! harness-owned sections (`"matrix"`, `"patch"`).
//!
//! Such a section holds one JSON object per line:
//!
//! ```text
//!   "patch": [
//!     {"substrate": "ba_100k", "method": "nc", …},
//!     {"substrate": "ba_100k", "method": "df", …}
//!   ]
//! ```
//!
//! A [`SectionRow`] names its section, renders its line and lists the
//! fields that key its cell. [`upsert`] merges new rows over the section's
//! lines: a row whose key fields match an existing line replaces that line,
//! any other row is appended. The section is rewritten where it stands, or
//! appended as the document's last key, and read back before the document
//! is returned. Existing lines are kept as text, so an upsert into an
//! existing section changes only the lines of the cells it writes.

use std::path::Path;

/// One row of a keyed section.
pub trait SectionRow {
    /// The section's key in the snapshot document.
    const SECTION: &'static str;
    /// The fields that name the row's cell.
    const KEY: &'static [&'static str];
    /// The row as one JSON object line, without indentation or comma.
    fn render(&self) -> String;
}

const CLOSE: &str = "\n  ]";

/// The value of `key` in a rendered row line: the text between its quotes,
/// or up to the next `,` or `}`.
pub(crate) fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let marker = format!("\"{key}\": ");
    let rest = &line[line.find(&marker)? + marker.len()..];
    match rest.strip_prefix('"') {
        Some(quoted) => Some(&quoted[..quoted.find('"')?]),
        None => Some(rest[..rest.find([',', '}']).unwrap_or(rest.len())].trim()),
    }
}

/// The byte range of `section`'s row lines in `doc`, if it has the section.
fn body(doc: &str, section: &str) -> Option<(usize, usize)> {
    let open = format!("\n  \"{section}\": [\n");
    let start = doc.find(&open)? + open.len();
    Some((start, start + doc[start..].find(CLOSE)?))
}

/// The row lines of `section` in `doc`, without indentation or commas;
/// empty when the document has no such section.
pub fn rows<'a>(doc: &'a str, section: &str) -> Vec<&'a str> {
    body(doc, section).map_or_else(Vec::new, |(start, end)| {
        doc[start..end]
            .lines()
            .map(|line| line.trim().trim_end_matches(','))
            .filter(|line| !line.is_empty())
            .collect()
    })
}

/// `doc` with `section`'s rows replaced by `lines` where the section
/// stands, or with the section appended as the last key. No lines leave the
/// document as it is.
fn with_rows(doc: &str, section: &str, lines: &[impl AsRef<str>]) -> Result<String, String> {
    if lines.is_empty() {
        return Ok(doc.to_string());
    }
    let rendered = lines
        .iter()
        .map(|line| format!("    {}", line.as_ref()))
        .collect::<Vec<_>>()
        .join(",\n");
    if let Some((start, end)) = body(doc, section) {
        return Ok(format!("{}{rendered}{}", &doc[..start], &doc[end..]));
    }
    let head = doc
        .trim_end()
        .strip_suffix('}')
        .ok_or("existing file is not a snapshot JSON document")?
        .trim_end();
    let joiner = if head.ends_with('{') { "" } else { "," };
    Ok(format!(
        "{head}{joiner}\n  \"{section}\": [\n{rendered}{CLOSE}\n}}\n"
    ))
}

/// Merge `new_rows` into `doc`'s section by cell key, rewrite it and read
/// it back. `doc` must be a snapshot document: an object ending in `}`.
pub fn upsert<R: SectionRow>(doc: &str, new_rows: &[R]) -> Result<String, String> {
    let same_cell = |a: &str, b: &str| R::KEY.iter().all(|k| field(a, k) == field(b, k));
    let mut lines: Vec<String> = rows(doc, R::SECTION)
        .into_iter()
        .map(String::from)
        .collect();
    for row in new_rows {
        let line = row.render();
        match lines.iter_mut().find(|old| same_cell(old, &line)) {
            Some(slot) => *slot = line,
            None => lines.push(line),
        }
    }
    let updated = with_rows(doc, R::SECTION, &lines)?;
    let read_back = rows(&updated, R::SECTION);
    if read_back != lines {
        return Err(format!(
            "\"{}\" section self-check failed: {} rows written, {} read back",
            R::SECTION,
            lines.len(),
            read_back.len()
        ));
    }
    Ok(updated)
}

/// [`upsert`] into the file at `path` and return the section's row count.
/// A missing or blank file starts a new document; any other file that is
/// not a snapshot document is refused and left untouched.
pub fn upsert_file<R: SectionRow>(path: &Path, new_rows: &[R]) -> Result<usize, String> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) if !text.trim().is_empty() => text,
        Ok(_) => "{\n}\n".to_string(),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => "{\n}\n".to_string(),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let updated = upsert(&existing, new_rows).map_err(|e| format!("{}: {e}", path.display()))?;
    std::fs::write(path, &updated).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(rows(&updated, R::SECTION).len())
}

/// `doc` with the rows of each of `sections` carried over from `old`, so a
/// rewrite of the rest of the snapshot keeps the harness-owned sections.
pub fn carry_over(doc: &str, old: &str, sections: &[&str]) -> Result<String, String> {
    sections.iter().try_fold(doc.to_string(), |doc, section| {
        with_rows(&doc, section, &rows(old, section))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixRow;
    use crate::patchbench::PatchRow;

    const COMMITTED: &str = include_str!("../../../BENCH_backbones.json");

    struct Cell(&'static str, u32);

    impl SectionRow for Cell {
        const SECTION: &'static str = "cells";
        const KEY: &'static [&'static str] = &["name"];
        fn render(&self) -> String {
            format!("{{\"name\": \"{}\", \"ms\": {}}}", self.0, self.1)
        }
    }

    #[test]
    fn fields_are_read_quoted_or_bare() {
        let line = "{\"name\": \"a,b\", \"ms\": 12, \"last\": 3.5}";
        assert_eq!(field(line, "name"), Some("a,b"));
        assert_eq!(field(line, "ms"), Some("12"));
        assert_eq!(field(line, "last"), Some("3.5"));
        assert_eq!(field(line, "absent"), None);
    }

    /// Parsing a committed section back into rows and upserting them
    /// reproduces the file byte for byte: every line renders as it was
    /// read, and the sections stay where they stand.
    #[test]
    fn re_upserting_committed_rows_reproduces_the_file() {
        let matrix: Vec<MatrixRow> = rows(COMMITTED, "matrix")
            .into_iter()
            .map(|line| MatrixRow::parse(line).expect("committed matrix row"))
            .collect();
        let patch: Vec<PatchRow> = rows(COMMITTED, "patch")
            .into_iter()
            .map(|line| PatchRow::parse(line).expect("committed patch row"))
            .collect();
        assert!(!matrix.is_empty() && !patch.is_empty());
        assert_eq!(upsert(COMMITTED, &matrix).unwrap(), COMMITTED);
        assert_eq!(upsert(COMMITTED, &patch).unwrap(), COMMITTED);
        assert_eq!(
            upsert(COMMITTED, &matrix[matrix.len() / 2..]).unwrap(),
            COMMITTED
        );
    }

    #[test]
    fn an_upsert_rewrites_only_its_cells_where_the_section_stands() {
        let doc = "{\n  \"cells\": [\n    {\"name\": \"a\", \"ms\": 1},\n    \
                   {\"name\": \"b\", \"ms\": 2}\n  ],\n  \"after\": 1\n}\n";
        let updated = upsert(doc, &[Cell("b", 9), Cell("c", 3)]).unwrap();
        assert_eq!(
            updated,
            "{\n  \"cells\": [\n    {\"name\": \"a\", \"ms\": 1},\n    \
             {\"name\": \"b\", \"ms\": 9},\n    {\"name\": \"c\", \"ms\": 3}\n  ],\n  \
             \"after\": 1\n}\n"
        );
        assert_eq!(upsert(doc, &Vec::<Cell>::new()).unwrap(), doc);
    }

    #[test]
    fn a_missing_section_is_appended_as_the_last_key() {
        let doc = "{\n  \"entries\": []\n}\n";
        let updated = upsert(doc, &[Cell("a", 1)]).unwrap();
        assert_eq!(
            updated,
            "{\n  \"entries\": [],\n  \"cells\": [\n    {\"name\": \"a\", \"ms\": 1}\n  ]\n}\n"
        );
        assert_eq!(
            upsert("{\n}\n", &[Cell("a", 1)]).unwrap(),
            "{\n  \"cells\": [\n    {\"name\": \"a\", \"ms\": 1}\n  ]\n}\n"
        );
    }

    #[test]
    fn a_blank_file_starts_a_document_and_a_foreign_file_is_refused_untouched() {
        let dir = std::env::temp_dir().join(format!("bench_section_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let blank = dir.join("blank.json");
        std::fs::write(&blank, "").unwrap();
        assert_eq!(upsert_file(&blank, &[Cell("a", 1), Cell("b", 2)]), Ok(2));
        assert_eq!(upsert_file(&blank, &[Cell("a", 3)]), Ok(2));
        let written = std::fs::read_to_string(&blank).unwrap();
        assert_eq!(rows(&written, "cells")[0], "{\"name\": \"a\", \"ms\": 3}");

        let missing = dir.join("missing.json");
        assert_eq!(upsert_file(&missing, &[Cell("a", 1)]), Ok(1));

        let notes = dir.join("notes.txt");
        std::fs::write(&notes, "not a snapshot\n").unwrap();
        let err = upsert_file(&notes, &[Cell("a", 1)]).unwrap_err();
        assert!(err.contains("not a snapshot"), "{err}");
        assert_eq!(std::fs::read_to_string(&notes).unwrap(), "not a snapshot\n");
        // A file that is not text is no new document either.
        let binary = dir.join("binary.json");
        std::fs::write(&binary, [0xff, 0xfe, b'}']).unwrap();
        assert!(upsert_file(&binary, &[Cell("a", 1)]).is_err());
        assert_eq!(std::fs::read(&binary).unwrap(), [0xff, 0xfe, b'}']);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_row_that_cannot_be_read_back_is_refused() {
        struct Broken;
        impl SectionRow for Broken {
            const SECTION: &'static str = "cells";
            const KEY: &'static [&'static str] = &["name"];
            fn render(&self) -> String {
                "{\"name\": \"x\"}\n  ]".to_string()
            }
        }
        let err = upsert("{\n}\n", &[Broken]).unwrap_err();
        assert!(err.contains("self-check failed"), "{err}");
    }

    #[test]
    fn carry_over_moves_each_section_into_a_rewritten_document() {
        let fresh = "{\n  \"entries\": []\n}\n";
        let carried = carry_over(fresh, COMMITTED, &["matrix", "patch"]).unwrap();
        // Both sections follow the rewritten keys in the order given, as in
        // the committed file.
        let tail = &COMMITTED[COMMITTED.find("\n  \"matrix\": [").unwrap()..];
        assert_eq!(carried, format!("{{\n  \"entries\": [],{tail}"));
        assert_eq!(carry_over(fresh, "", &["matrix", "patch"]).unwrap(), fresh);
    }
}
