//! Spans recorded around layer calls, kept in memory, and their self times.
//!
//! A span holds a name, start, end, parent and op id. A layer's self time is
//! its span's duration minus the part of that interval its child spans
//! cover.

use std::collections::BTreeMap;
use std::time::{SystemTime, UNIX_EPOCH};

/// Nanoseconds on the wall clock. Spans use it rather than `Instant` because
/// a traced CLI op records its layer spans in its own process, and those must
/// nest inside the op span the harness records around that process.
pub fn now_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |elapsed| elapsed.as_nanos() as u64)
}

/// One timed interval of one op.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `graph.io.read`.
    pub name: String,
    /// Start, in [`now_ns`] nanoseconds.
    pub start_ns: u64,
    /// End, in [`now_ns`] nanoseconds.
    pub end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
}

impl Span {
    /// The span's length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Every span of one run, in the order they were opened.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Add a finished span and return its index.
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span now; [`Trace::close`] sets its end.
    pub fn open(&mut self, name: &str, parent: Option<usize>, op: u64) -> usize {
        let now = now_ns();
        self.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent,
            op,
        })
    }

    /// End the span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, parent: usize, f: impl FnOnce() -> T) -> T {
        let op = self.spans[parent].op;
        let id = self.open(name, Some(parent), op);
        let value = f();
        self.close(id);
        value
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's duration minus the union of its children's intervals
    /// (clipped to the span), indexed like [`Trace::spans`].
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut intervals)| {
                intervals.sort_unstable();
                let mut covered = 0;
                let mut reached = span.start_ns;
                for (start, end) in intervals {
                    let start = start.max(reached);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reached = end;
                    }
                }
                span.duration_ns() - covered
            })
            .collect()
    }

    /// Per span name, the self time each op spent in it, in milliseconds
    /// (spans of one name within one op are summed).
    pub fn self_ms_per_op(&self) -> BTreeMap<String, Vec<f64>> {
        let mut per_op: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times_ns()) {
            *per_op.entry((span.name.as_str(), span.op)).or_default() += self_ns;
        }
        let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), self_ns) in per_op {
            by_name
                .entry(name.to_string())
                .or_default()
                .push(self_ns as f64 / 1e6);
        }
        by_name
    }

    /// For each span named `name`, the share of it its child spans cover.
    pub fn child_coverage(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times_ns())
            .filter(|(span, _)| span.name == name && span.duration_ns() > 0)
            .map(|(span, own)| 1.0 - own as f64 / span.duration_ns() as f64)
            .collect()
    }

    /// The spans as tab-separated text, one per line, with self times.
    pub fn to_tsv(&self) -> String {
        let mut text = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, (span, self_ns)) in self.spans.iter().zip(self.self_times_ns()).enumerate() {
            let parent = span.parent.map_or("-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{}\t{id}\t{parent}\t{}\t{}\t{}\t{self_ns}\n",
                span.op, span.name, span.start_ns, span.end_ns
            ));
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>, op: u64) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            op,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_child_intervals() {
        let mut trace = Trace::default();
        let op = trace.push(span("op", 0, 100, None, 1));
        trace.push(span("graph.io.read", 10, 40, Some(op), 1));
        let score = trace.push(span("core.score", 40, 70, Some(op), 1));
        // Two overlapping grandchildren cover 45..60 of the score span once.
        trace.push(span("root", 45, 55, Some(score), 1));
        trace.push(span("root", 50, 60, Some(score), 1));
        // A child reaching past its parent only counts inside the parent.
        trace.push(span("graph.io.write", 90, 120, Some(op), 1));

        assert_eq!(trace.self_times_ns(), vec![30, 30, 15, 10, 10, 30]);

        let per_op = trace.self_ms_per_op();
        assert_eq!(per_op["op"], vec![30e-6]);
        assert_eq!(per_op["root"], vec![20e-6]);
        let coverage = trace.child_coverage("op");
        assert!(coverage.len() == 1 && (coverage[0] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn self_time_per_op_keeps_ops_apart() {
        let mut trace = Trace::default();
        for op in 0..3 {
            let base = op * 1_000;
            let parent = trace.push(span("op", base, base + 500, None, op));
            trace.push(span(
                "core.select",
                base,
                base + 200 * (op + 1),
                Some(parent),
                op,
            ));
        }
        let per_op = trace.self_ms_per_op();
        assert_eq!(per_op["core.select"], vec![200e-6, 400e-6, 600e-6]);
        assert_eq!(per_op["op"], vec![300e-6, 100e-6, 0.0]);
        assert!(trace
            .to_tsv()
            .lines()
            .nth(2)
            .unwrap()
            .starts_with("0\t1\t0\tcore.select"));
    }
}
