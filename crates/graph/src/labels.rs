//! Node labels: one table that stores every label once and maps labels to
//! node ids.
//!
//! [`LabelTable`] is the only label interner in this crate: the edge-list
//! readers, [`CsrBuilder`](crate::CsrBuilder), [`CsrGraph`](crate::CsrGraph),
//! [`WeightedGraph`](crate::WeightedGraph) and the labels a PATCH batch
//! adds in [`DeltaGraph::apply`](crate::DeltaGraph::apply) all keep their
//! labels in one.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;
use std::mem::size_of;

use crate::csr::check_capacity;
use crate::error::{GraphError, GraphResult};
use crate::graph::NodeId;

/// Set in a node's span end when the node has no label.
const UNLABELLED: u32 = 1 << 31;

/// The most label bytes one table holds: a span end keeps its top bit for
/// the unlabelled flag.
pub const LABEL_BYTES_LIMIT: u64 = UNLABELLED as u64 - 1;

/// A free slot of the decimal table; node ids stay below `u32::MAX`.
const NO_NODE: u32 = u32::MAX;

/// A free slot of the hash index: no node id has all 32 low bits set.
const FREE_SLOT: u64 = u64::MAX;

/// Decimal values below this always take the decimal route.
const DECIMAL_SLACK: usize = 1024;

/// Digits of the longest canonical decimal label: 9 digits fit a `u32`.
const DECIMAL_DIGITS: usize = 9;

/// The smallest hash index allocated.
const MIN_SLOTS: usize = 16;

/// Node labels stored once, in an arena, with an index from label to id.
///
/// **Storage.** Every label's bytes sit back to back in one `String` arena,
/// in node-id order, and each node id has one `u32` span end: a label runs
/// from the previous node's end to its own. A node without a label keeps
/// the top bit of its end set, so it stays distinct from a node labelled
/// `""`. Ids from [`LabelTable::len`] on are unlabelled, and a table is
/// empty exactly when no node has a label. The arena holds at most
/// [`LABEL_BYTES_LIMIT`] bytes; interning past it, or past `u32::MAX`
/// nodes, is a [`GraphError::CapacityExceeded`].
///
/// **Decimal route.** A canonical decimal label — `0`, or a nonzero digit
/// followed by at most eight digits, with no sign, leading zero or point —
/// that is new to the table goes into a direct `Vec<u32>` indexed by its value,
/// as long as the value is below the decimal bound: 1024 plus twice the
/// node count plus twice the number of [`LabelTable::intern`] calls so far
/// (one per edge endpoint when reading an edge list). The direct table
/// therefore grows at most linearly with the input read, whatever values
/// it holds: the input `0 999999999` costs four bytes of it, not four
/// gigabytes. Generated and most published edge lists name nodes
/// `0..n` in near first-appearance order, so their lookups never hash.
///
/// **Hash route.** Every other label — `007`, `+5`, `5.0`, non-ASCII
/// names, and decimals at or past the bound — goes to an open-addressing
/// index that stores node ids (with 32 bits of each label's hash) and no
/// second copy of the label; a probe compares against the arena. The hash
/// is SipHash with keys drawn at random per process (std's
/// [`RandomState`]), never fixed: uploaded edge lists are untrusted, and
/// fixed keys would let a client pick labels that all collide and make
/// every lookup walk the whole index.
///
/// A decimal label interned through the hash route stays there: once the
/// bound has grown past its value, a miss in the direct table still checks
/// the index, so the label keeps resolving to its one node.
///
/// Equality compares labels node by node, never the index layout.
#[derive(Debug, Clone, Default)]
pub struct LabelTable {
    /// Every label's bytes, back to back in node-id order.
    arena: String,
    /// Per node id: where its label ends in `arena`, flagged `UNLABELLED`
    /// when it has none.
    ends: Vec<u32>,
    /// The decimal route: `decimal[v]` is the id of the node labelled `v`,
    /// or `NO_NODE`.
    decimal: Vec<u32>,
    /// Whether any canonical decimal label went to the hash route.
    hashed_decimals: bool,
    /// [`LabelTable::intern`] calls so far, which grow the decimal bound.
    interned: usize,
    /// The hash route: a power-of-two array probed linearly, each slot the
    /// label hash's high 32 bits above a node id, or `FREE_SLOT`. At most
    /// half full.
    slots: Vec<u64>,
    /// Occupied slots.
    hashed: usize,
    /// SipHash keys, random per process.
    hasher: RandomState,
}

/// The value of a canonical decimal label, or `None` for any other label.
fn decimal_value(label: &str) -> Option<usize> {
    match label.as_bytes() {
        [b'0'] => Some(0),
        bytes @ [b'1'..=b'9', ..] if bytes.len() <= DECIMAL_DIGITS => {
            let mut value = 0usize;
            for &byte in bytes {
                if !byte.is_ascii_digit() {
                    return None;
                }
                value = value * 10 + usize::from(byte - b'0');
            }
            Some(value)
        }
        _ => None,
    }
}

impl LabelTable {
    /// An empty table.
    pub fn new() -> LabelTable {
        LabelTable::default()
    }

    /// Number of node ids the table covers: the highest labelled id plus
    /// one. Ids from here on are unlabelled.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no node has a label.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The label of node `id`, if it has one.
    pub fn label(&self, id: NodeId) -> Option<&str> {
        let end = *self.ends.get(id)?;
        if end & UNLABELLED != 0 {
            return None;
        }
        let start = match id {
            0 => 0,
            _ => self.ends[id - 1] & !UNLABELLED,
        };
        Some(&self.arena[start as usize..end as usize])
    }

    /// The node labelled `label`, if any.
    pub fn get(&self, label: &str) -> Option<NodeId> {
        let value = decimal_value(label);
        if let Some(value) = value {
            if let Some(id) = self.direct(value) {
                return Some(id);
            }
            if !self.hashed_decimals {
                return None;
            }
        }
        self.find(label, self.tag(label))
    }

    /// The node labelled `label`, interning it as node `new_id` when the
    /// table has no such label. Ids from [`LabelTable::len`] up to `new_id`
    /// stay unlabelled; `new_id` below `len()` is an error.
    pub fn intern(&mut self, label: &str, new_id: NodeId) -> GraphResult<NodeId> {
        self.interned += 1;
        let value = decimal_value(label);
        if let Some(value) = value {
            if let Some(id) = self.direct(value) {
                return Ok(id);
            }
        }
        let mut tag = None;
        if value.is_none() || self.hashed_decimals {
            let label_tag = self.tag(label);
            if let Some(id) = self.find(label, label_tag) {
                return Ok(id);
            }
            tag = Some(label_tag);
        }
        let id = self.push(label, new_id)?;
        match value {
            Some(value) if value < self.decimal_bound() => {
                if value >= self.decimal.len() {
                    self.decimal.resize(value + 1, NO_NODE);
                }
                self.decimal[value] = id;
            }
            _ => {
                self.hashed_decimals |= value.is_some();
                let tag = tag.unwrap_or_else(|| self.tag(label));
                self.insert_hashed(tag, id);
            }
        }
        Ok(id as NodeId)
    }

    /// Heap bytes of the table: the arena, the span ends, the decimal table
    /// and the hash index.
    pub fn memory_bytes(&self) -> usize {
        self.arena.capacity()
            + self.ends.capacity() * size_of::<u32>()
            + self.decimal.capacity() * size_of::<u32>()
            + self.slots.capacity() * size_of::<u64>()
    }

    /// Release the spare capacity that growing left behind.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.arena.shrink_to_fit();
        self.ends.shrink_to_fit();
        self.decimal.shrink_to_fit();
    }

    /// Intern every label of `other` as nodes `first_id`, `first_id + 1`,
    /// …, in `other`'s id order. Every one of those labels must be new to
    /// this table. Fails, changing nothing, when they do not fit.
    pub(crate) fn append(&mut self, other: &LabelTable, first_id: NodeId) -> GraphResult<()> {
        check_capacity("nodes", (first_id + other.len()) as u64)?;
        self.check_bytes(other.arena.len())?;
        for local in 0..other.len() {
            let label = other.label(local).expect("a staged table labels every id");
            let id = self.intern(label, first_id + local)?;
            debug_assert_eq!(id, first_id + local, "appended labels are new");
        }
        Ok(())
    }

    /// Values below this take the decimal route when first interned.
    fn decimal_bound(&self) -> usize {
        DECIMAL_SLACK + 2 * (self.ends.len() + self.interned)
    }

    /// The node holding decimal `value` in the direct table.
    fn direct(&self, value: usize) -> Option<NodeId> {
        match self.decimal.get(value) {
            Some(&id) if id != NO_NODE => Some(id as NodeId),
            _ => None,
        }
    }

    /// The high 32 bits of `label`'s SipHash: the probe start and the
    /// filter stored beside each id.
    fn tag(&self, label: &str) -> u32 {
        (self.hasher.hash_one(label) >> 32) as u32
    }

    /// The node labelled `label` in the hash index.
    fn find(&self, label: &str, tag: u32) -> Option<NodeId> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == FREE_SLOT {
                return None;
            }
            let id = slot as u32 as NodeId;
            if (slot >> 32) as u32 == tag && self.label(id) == Some(label) {
                return Some(id);
            }
            at = (at + 1) & mask;
        }
    }

    /// Add node `id` to the hash index, doubling it first when it would be
    /// more than half full.
    fn insert_hashed(&mut self, tag: u32, id: u32) {
        if (self.hashed + 1) * 2 > self.slots.len() {
            let grown = (self.slots.len() * 2).max(MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![FREE_SLOT; grown]);
            for slot in old.into_iter().filter(|&slot| slot != FREE_SLOT) {
                self.place((slot >> 32) as u32, slot);
            }
        }
        self.place(tag, (u64::from(tag) << 32) | u64::from(id));
        self.hashed += 1;
    }

    /// Store `slot` in the first free slot from `tag`'s start.
    fn place(&mut self, tag: u32, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut at = tag as usize & mask;
        while self.slots[at] != FREE_SLOT {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Fail unless `extra` more label bytes fit in the arena.
    fn check_bytes(&self, extra: usize) -> GraphResult<()> {
        let requested = self.arena.len() as u64 + extra as u64;
        if requested > LABEL_BYTES_LIMIT {
            return Err(GraphError::CapacityExceeded {
                what: "label bytes",
                requested,
                limit: LABEL_BYTES_LIMIT,
            });
        }
        Ok(())
    }

    /// Store `label` as node `id`'s, with every id from `len()` up to it
    /// unlabelled.
    fn push(&mut self, label: &str, id: NodeId) -> GraphResult<u32> {
        if id < self.ends.len() {
            return Err(GraphError::InvalidParameter {
                parameter: "new_id",
                message: format!("node {id} already has a table entry"),
            });
        }
        check_capacity("nodes", id as u64 + 1)?;
        self.check_bytes(label.len())?;
        let unlabelled = self.arena.len() as u32 | UNLABELLED;
        self.ends.resize(id, unlabelled);
        self.arena.push_str(label);
        self.ends.push(self.arena.len() as u32);
        Ok(id as u32)
    }
}

impl PartialEq for LabelTable {
    fn eq(&self, other: &LabelTable) -> bool {
        let len = self.len().max(other.len());
        (0..len).all(|id| self.label(id) == other.label(id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interned(labels: &[&str]) -> LabelTable {
        let mut table = LabelTable::new();
        for label in labels {
            let next = table.len();
            table.intern(label, next).unwrap();
        }
        table
    }

    #[test]
    fn canonical_decimals_are_recognised() {
        for (label, value) in [
            ("0", Some(0)),
            ("7", Some(7)),
            ("999999999", Some(999_999_999)),
        ] {
            assert_eq!(decimal_value(label), value, "{label}");
        }
        for label in [
            "",
            "00",
            "007",
            "+5",
            "-0",
            "5.0",
            "1e3",
            "1000000000",
            "4294967296",
            "\u{661}",
        ] {
            assert_eq!(decimal_value(label), None, "{label}");
        }
    }

    #[test]
    fn ids_follow_first_appearance_on_both_routes() {
        let mut table = LabelTable::new();
        let labels = ["3", "b", "007", "0", "3", "b", "\u{fc}ber", "7", "007"];
        let ids: Vec<NodeId> = labels
            .iter()
            .map(|label| {
                let next = table.len();
                table.intern(label, next).unwrap()
            })
            .collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 0, 1, 4, 5, 2]);
        for (id, label) in ["3", "b", "007", "0", "\u{fc}ber", "7"].iter().enumerate() {
            assert_eq!(table.label(id), Some(*label));
            assert_eq!(table.get(label), Some(id));
        }
        assert_eq!(table.get("7.0"), None);
        assert_eq!(table.get("8"), None);
        assert_eq!(table.label(6), None);
    }

    #[test]
    fn unlabelled_nodes_differ_from_empty_labels() {
        let mut table = LabelTable::new();
        assert_eq!(table.intern("a", 2).unwrap(), 2);
        assert_eq!(table.intern("", 4).unwrap(), 4);
        assert_eq!(table.len(), 5);
        assert_eq!(
            (0..6).map(|id| table.label(id)).collect::<Vec<_>>(),
            vec![None, None, Some("a"), None, Some(""), None]
        );
        assert_eq!(table.get(""), Some(4));
        assert!(table.intern("c", 1).is_err());
        assert_ne!(table, interned(&["a", ""]));
    }

    #[test]
    fn a_decimal_hashed_past_the_bound_keeps_resolving_there() {
        let mut table = LabelTable::new();
        // Past the bound of an empty table: the hash route.
        assert_eq!(table.intern("5000", 0).unwrap(), 0);
        assert!(table.decimal.is_empty());
        // Three thousand more nodes grow the bound past 5000 ...
        for value in 0..3000 {
            let next = table.len();
            table.intern(&value.to_string(), next).unwrap();
        }
        assert!(table.decimal_bound() > 5000);
        // ... yet `5000` still resolves to its one node, and a new decimal
        // that size now takes the decimal route.
        assert_eq!(table.intern("5000", 3001).unwrap(), 0);
        assert_eq!(table.get("5000"), Some(0));
        assert_eq!(table.len(), 3001);
        assert_eq!(table.intern("4999", 3001).unwrap(), 3001);
        assert_eq!(table.direct(4999), Some(3001));
        assert_eq!(table.hashed, 1);
    }

    #[test]
    fn equality_compares_labels_not_routes() {
        let hashed = interned(&["5000", "x"]);
        assert_eq!(hashed.hashed, 2);
        let mut direct = LabelTable::new();
        direct.interned = 5000;
        direct.intern("5000", 0).unwrap();
        direct.intern("x", 1).unwrap();
        assert_eq!(direct.hashed, 1);
        assert_eq!(hashed, direct);
        assert_ne!(hashed, interned(&["5000", "y"]));
        assert_ne!(hashed, interned(&["5000"]));
    }

    #[test]
    fn append_interns_a_staged_table_after_the_last_node() {
        let mut table = interned(&["a", "1"]);
        let staged = interned(&["2", "z"]);
        table.append(&staged, 3).unwrap();
        assert_eq!(table.len(), 5);
        assert_eq!(table.label(2), None);
        assert_eq!(table.get("2"), Some(3));
        assert_eq!(table.get("z"), Some(4));
    }

    #[test]
    fn memory_bytes_counts_arena_spans_and_both_routes() {
        let mut table = interned(&["0", "1", "2", "alpha", "beta"]);
        table.shrink_to_fit();
        // 12 arena bytes, 5 span ends, 3 decimal slots, 16 hash slots.
        assert_eq!(table.memory_bytes(), 12 + 5 * 4 + 3 * 4 + 16 * 8);
        assert_eq!(LabelTable::new().memory_bytes(), 0);
    }
}
