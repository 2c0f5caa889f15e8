//! Dijkstra's algorithm and shortest-path trees.
//!
//! The High Salience Skeleton (Grady et al., 2012; paper Section III-B) is the
//! superposition of the shortest-path trees rooted at every node, where path
//! length is measured on a *distance* transform of the (proximity-like) edge
//! weights. Both the transform and the tree construction live here.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::csr::CsrGraph;
use crate::error::{GraphError, GraphResult};
use crate::graph::{NodeId, WeightedGraph};

/// How proximity-like edge weights are converted into distances for
/// shortest-path computations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DistanceTransform {
    /// `distance = 1 / weight` (the convention of the original HSS paper).
    #[default]
    Inverse,
    /// `distance = −ln(weight / max_weight)`, an alternative that compresses
    /// very heavy tails; exposed for the ablation benchmarks.
    NegativeLog,
    /// Use the weights directly as distances (for graphs that already carry
    /// distance semantics).
    Identity,
}

impl DistanceTransform {
    /// Convert a single weight into a distance. `max_weight` is the maximum
    /// weight in the graph (used only by [`DistanceTransform::NegativeLog`]).
    pub fn apply(self, weight: f64, max_weight: f64) -> f64 {
        match self {
            DistanceTransform::Inverse => {
                if weight > 0.0 {
                    1.0 / weight
                } else {
                    f64::INFINITY
                }
            }
            DistanceTransform::NegativeLog => {
                if weight > 0.0 && max_weight > 0.0 {
                    // Add a tiny offset so the heaviest edge has a small positive distance.
                    (max_weight / weight).ln() + 1e-12
                } else {
                    f64::INFINITY
                }
            }
            DistanceTransform::Identity => {
                if weight >= 0.0 {
                    weight
                } else {
                    f64::INFINITY
                }
            }
        }
    }
}

/// Result of a single-source shortest path computation.
#[derive(Debug, Clone, PartialEq)]
pub struct ShortestPathTree {
    /// The root of the tree.
    pub source: NodeId,
    /// Shortest distance from the root to each node (infinity when unreachable).
    pub distances: Vec<f64>,
    /// Predecessor of each node on its shortest path (`None` for the root and
    /// unreachable nodes).
    pub predecessors: Vec<Option<NodeId>>,
}

impl ShortestPathTree {
    /// Whether `node` is reachable from the source.
    pub fn is_reachable(&self, node: NodeId) -> bool {
        self.distances.get(node).is_some_and(|d| d.is_finite())
    }

    /// The tree edges as `(parent, child)` pairs.
    pub fn tree_edges(&self) -> Vec<(NodeId, NodeId)> {
        self.predecessors
            .iter()
            .enumerate()
            .filter_map(|(child, parent)| parent.map(|p| (p, child)))
            .collect()
    }

    /// Reconstruct the shortest path from the source to `target`
    /// (inclusive of both endpoints), or `None` if unreachable.
    pub fn path_to(&self, target: NodeId) -> Option<Vec<NodeId>> {
        if !self.is_reachable(target) {
            return None;
        }
        let mut path = vec![target];
        let mut current = target;
        while let Some(parent) = self.predecessors[current] {
            path.push(parent);
            current = parent;
        }
        path.reverse();
        Some(path)
    }
}

/// Entry in the Dijkstra priority queue (min-heap by distance).
#[derive(Debug, Clone, PartialEq)]
struct QueueEntry {
    distance: f64,
    node: NodeId,
}

impl Eq for QueueEntry {}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse so BinaryHeap (a max-heap) pops the smallest distance first.
        other
            .distance
            .partial_cmp(&self.distance)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Single-source shortest paths with Dijkstra's algorithm on transformed
/// edge weights.
///
/// Edge weights are interpreted as proximities and converted to distances via
/// `transform`; zero-weight edges become unreachable (infinite distance) under
/// the inverse and negative-log transforms.
pub fn dijkstra(
    graph: &WeightedGraph,
    source: NodeId,
    transform: DistanceTransform,
) -> GraphResult<ShortestPathTree> {
    if source >= graph.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            node: source,
            node_count: graph.node_count(),
        });
    }
    let max_weight = graph.edges().map(|e| e.weight).fold(0.0_f64, f64::max);

    let node_count = graph.node_count();
    let mut distances = vec![f64::INFINITY; node_count];
    let mut predecessors: Vec<Option<NodeId>> = vec![None; node_count];
    let mut settled = vec![false; node_count];
    let mut heap = BinaryHeap::new();

    distances[source] = 0.0;
    heap.push(QueueEntry {
        distance: 0.0,
        node: source,
    });

    while let Some(QueueEntry { distance, node }) = heap.pop() {
        if settled[node] {
            continue;
        }
        settled[node] = true;
        for (neighbor, weight) in graph.out_neighbors(node) {
            let edge_distance = transform.apply(weight, max_weight);
            if !edge_distance.is_finite() {
                continue;
            }
            let candidate = distance + edge_distance;
            if candidate < distances[neighbor] {
                distances[neighbor] = candidate;
                predecessors[neighbor] = Some(node);
                heap.push(QueueEntry {
                    distance: candidate,
                    node: neighbor,
                });
            }
        }
    }

    Ok(ShortestPathTree {
        source,
        distances,
        predecessors,
    })
}

/// Precomputed transformed distances of every CSR adjacency entry, plus what
/// [`CsrDijkstra`] and [`UniformBfsBatch`] read off their distribution.
#[derive(Debug, Clone)]
pub struct EntryDistances {
    values: Vec<f64>,
    /// `Some(d)` when every *finite* entry distance equals `d` (and at least
    /// one entry is finite) — the case of uniform-weight and unweighted
    /// networks under any transform. Dijkstra then degenerates to
    /// level-synchronous BFS, which [`UniformBfsBatch`] exploits with
    /// bit-identical output.
    /// Equal distances of exactly `0.0` do NOT qualify: with a zero step
    /// every level shares the same packed distance bits, so Dijkstra's pops
    /// interleave across levels by node id and level-synchronous processing
    /// would assign different parents.
    uniform: Option<f64>,
    /// Whether `uniform` covers *every* entry (no infinite distances at all),
    /// letting the BFS paths skip the per-entry distance check.
    uniform_total: bool,
    /// Bucket width of [`CsrDijkstra`]'s queue (see [`Self::bucket_width`]).
    bucket_width: f64,
}

impl EntryDistances {
    /// The transformed distance per CSR adjacency entry.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The uniform finite distance, when the graph has one (see struct docs).
    pub fn uniform(&self) -> Option<f64> {
        self.uniform
    }

    /// Whether the uniform distance covers every entry (no entry is
    /// infinite), so uniform-path scans need no per-entry distance check.
    pub fn uniform_is_total(&self) -> bool {
        self.uniform_total
    }

    /// The bucket width of [`CsrDijkstra`]'s frontier-bucketed queue,
    /// always finite and positive:
    ///
    /// * the [`uniform`](Self::uniform) step, when there is one;
    /// * otherwise the 25th percentile of the finite positive entry distances
    ///   (clamped from below so the whole per-entry range spans a bounded
    ///   number of buckets). With that width at least three quarters of all
    ///   relaxations jump past the current bucket and cost `O(1)` ring pushes
    ///   instead of heap sifts;
    /// * otherwise `1.0`: no entry distance is finite and positive, so every
    ///   reachable distance is zero, every key sits in bucket 0, and the
    ///   queue's in-bucket heap orders them all.
    pub fn bucket_width(&self) -> f64 {
        self.bucket_width
    }
}

/// Precompute the transformed distance of every CSR adjacency entry.
///
/// Applying the transform once per entry (instead of once per entry *per
/// Dijkstra root*) is one of the two wins of the CSR hot path; the other is
/// the cache-friendly flat layout. The values are identical to what
/// [`dijkstra`] computes on the fly, since `max_weight` is the same maximum
/// (each undirected edge merely appears twice in the entry array).
pub fn csr_entry_distances(csr: &CsrGraph, transform: DistanceTransform) -> EntryDistances {
    let max_weight = csr.entry_weights().iter().copied().fold(0.0_f64, f64::max);
    let values: Vec<f64> = csr
        .entry_weights()
        .iter()
        .map(|&weight| transform.apply(weight, max_weight))
        .collect();
    let mut uniform = None;
    let mut distinct_finite = false;
    let mut any_non_finite = false;
    for &value in &values {
        if !value.is_finite() {
            any_non_finite = true;
            continue;
        }
        match uniform {
            None if !distinct_finite => uniform = Some(value),
            Some(d) if d == value => {}
            _ => {
                uniform = None;
                distinct_finite = true;
            }
        }
    }
    // A zero step cannot drive the BFS path (see field docs).
    if uniform == Some(0.0) {
        uniform = None;
    }
    let uniform_total = uniform.is_some() && !any_non_finite;
    let bucket_width = match uniform {
        Some(step) => step,
        None => tuned_bucket_width(&values).unwrap_or(1.0),
    };
    EntryDistances {
        values,
        uniform,
        uniform_total,
        bucket_width,
    }
}

/// Pick the [`BucketQueue`] width from the finite positive entry distances:
/// their 25th percentile, clamped so the largest single entry distance spans
/// at most 2^16 buckets (heavier tails only cost overflow redistributions,
/// never correctness, but a bounded span keeps them rare). `None` when no
/// entry distance is finite and positive.
fn tuned_bucket_width(values: &[f64]) -> Option<f64> {
    let mut finite: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v > 0.0)
        .collect();
    if finite.is_empty() {
        return None;
    }
    let k = finite.len() / 4;
    let (_, &mut quartile, _) = finite.select_nth_unstable_by(k, f64::total_cmp);
    let max = finite.iter().copied().fold(0.0_f64, f64::max);
    Some(quartile.max(max / 65536.0))
}

/// Sentinel for "no parent" in [`CsrDijkstra`]'s dense parent arrays.
const NO_PARENT: usize = usize::MAX;

/// Bit pattern of `f64::INFINITY` — the "unreached" marker in the packed
/// distance array.
const INFINITY_BITS: u64 = 0x7FF0_0000_0000_0000;

/// A queue entry packed into one integer: distance bits in the high 64 bits,
/// node id in the low 64.
///
/// All distances reaching the queue are finite and non-negative (they are
/// sums of non-negative transformed edge distances, and `-0.0` cannot arise
/// from `0.0 + x` with `x ≥ 0`), and for such floats the IEEE-754 bit pattern
/// is monotone in the value. Popping the minimum packed key therefore yields
/// exactly the ascending `(distance, node)` order of [`QueueEntry`]'s
/// comparator — same pops, same relaxation order, same tree — while costing a
/// single integer comparison instead of a float/tie-break chain.
#[inline]
fn pack_entry(distance_bits: u64, node: NodeId) -> u128 {
    (u128::from(distance_bits) << 64) | node as u128
}

#[inline]
fn unpack_entry(key: u128) -> (u64, NodeId) {
    ((key >> 64) as u64, (key & u128::from(u64::MAX)) as usize)
}

/// Number of future buckets directly addressable in [`BucketQueue`]'s ring.
const BUCKET_RING: usize = 1024;
const BUCKET_RING_WORDS: usize = BUCKET_RING / 64;

/// A frontier-bucketed (delta-stepping style) monotone min-queue over packed
/// `(distance bits, node)` keys.
///
/// Keys are grouped by `floor(distance / width)`. The bucket currently being
/// drained is held in a small exact binary heap; future buckets live in a
/// circular ring of `O(1)`-push vectors; keys more than [`BUCKET_RING`]
/// buckets ahead wait in an overflow list that is redistributed when the
/// window advances past them.
///
/// **Pops come in exactly ascending key order** — the order of a plain
/// binary heap over the same keys, and the property that keeps the SPT
/// parents (and therefore every HSS salience bit) identical to [`dijkstra`]:
///
/// * the bucket index is monotone in the key (a positive multiply and a
///   truncation preserve order, and the `as u64` saturation only merges
///   far-future buckets), so every key in bucket `b` orders below every key
///   in any bucket `b' > b`;
/// * within the current bucket the binary heap pops exact ascending `u128`
///   order, including the node-id tie-break for equal distances;
/// * Dijkstra's monotonicity (a relaxation pushes `settled + edge ≥ settled`)
///   guarantees no key ever lands in a bucket below the one being drained,
///   so draining buckets in ascending index yields globally ascending pops.
///
/// Every key in the queue is unique — a strict relaxation can never
/// re-insert a node at a distance it already holds — so that order is fully
/// determined. The common case, a relaxation jumping past the current bucket,
/// is an `O(1)` ring push instead of an `O(log n)` sift.
#[derive(Debug, Clone)]
struct BucketQueue {
    inv_width: f64,
    /// Bucket id currently being drained (through `current`).
    base: u64,
    /// Exact min-heap over the keys of bucket `base`.
    current: BinaryHeap<std::cmp::Reverse<u128>>,
    /// Future buckets `base+1 .. base+BUCKET_RING`, at slot `bucket % BUCKET_RING`.
    ring: Vec<Vec<u128>>,
    /// One bit per ring slot: slot holds at least one key.
    occupied: [u64; BUCKET_RING_WORDS],
    /// Keys at least [`BUCKET_RING`] buckets ahead of `base`.
    overflow: Vec<u128>,
    /// Minimum bucket id among `overflow` keys (when non-empty).
    overflow_min: u64,
}

impl BucketQueue {
    fn new(width: f64) -> Self {
        let mut queue = BucketQueue {
            inv_width: 1.0,
            base: 0,
            current: BinaryHeap::new(),
            ring: vec![Vec::new(); BUCKET_RING],
            occupied: [0; BUCKET_RING_WORDS],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
        };
        queue.reset(width);
        queue
    }

    #[inline]
    fn bucket_of(&self, key: u128) -> u64 {
        // Monotone in the distance; saturates for enormous quotients, which
        // only merges far-future buckets (the in-bucket heap re-orders them
        // exactly once they become current).
        (f64::from_bits((key >> 64) as u64) * self.inv_width) as u64
    }

    /// Empty the queue and restart it at bucket zero with buckets `width`
    /// wide. Sparse: only slots the last run left occupied are visited (a
    /// fully drained run leaves none).
    fn reset(&mut self, width: f64) {
        assert!(
            width.is_finite() && width > 0.0,
            "bucket width must be positive"
        );
        self.inv_width = width.recip();
        self.current.clear();
        for (word_index, word) in self.occupied.iter_mut().enumerate() {
            let mut bits = *word;
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                self.ring[word_index * 64 + bit].clear();
                bits &= bits - 1;
            }
            *word = 0;
        }
        self.overflow.clear();
        self.overflow_min = u64::MAX;
        self.base = 0;
    }

    /// First occupied ring slot at or after `start` in circular window order
    /// (window order equals ascending bucket offset from `base`).
    fn next_occupied_slot(&self, start: usize) -> Option<usize> {
        let word0 = start / 64;
        let masked = self.occupied[word0] & (!0u64 << (start % 64));
        if masked != 0 {
            return Some(word0 * 64 + masked.trailing_zeros() as usize);
        }
        for step in 1..=BUCKET_RING_WORDS {
            let word = (word0 + step) % BUCKET_RING_WORDS;
            if self.occupied[word] != 0 {
                return Some(word * 64 + self.occupied[word].trailing_zeros() as usize);
            }
        }
        None
    }

    /// Move `base` to the next non-empty bucket and load it into `current`.
    /// Returns `false` when the queue is exhausted.
    ///
    /// Keys land in `overflow` relative to the base at *push* time and the
    /// window slides afterwards, so the earliest pending bucket can be in the
    /// overflow list even while ring slots are occupied. The next bucket is
    /// therefore the minimum of the two sources; when they tie, both load
    /// into `current` together so the in-bucket heap keeps exact order.
    fn advance(&mut self) -> bool {
        let base_slot = (self.base % BUCKET_RING as u64) as usize;
        let ring_next = self
            .next_occupied_slot((base_slot + 1) % BUCKET_RING)
            .map(|slot| {
                let offset = ((slot + BUCKET_RING - base_slot) % BUCKET_RING) as u64;
                (slot, self.base + offset)
            });
        let overflow_next = (!self.overflow.is_empty()).then_some(self.overflow_min);
        let target = match (ring_next, overflow_next) {
            (None, None) => return false,
            (Some((_, bucket)), None) => bucket,
            (None, Some(bucket)) => bucket,
            (Some((_, ring_bucket)), Some(overflow_bucket)) => ring_bucket.min(overflow_bucket),
        };
        self.base = target;
        if let Some((slot, bucket)) = ring_next {
            if bucket == target {
                self.occupied[slot / 64] &= !(1u64 << (slot % 64));
                // `drain` keeps the slot's allocation for later buckets.
                self.current
                    .extend(self.ring[slot].drain(..).map(std::cmp::Reverse));
            }
        }
        if overflow_next == Some(target) {
            // Re-push with the re-based window: bucket-`target` keys join
            // `current`, in-window keys go to ring slots, the rest overflow
            // again (with a freshly tracked minimum).
            self.overflow_min = u64::MAX;
            let pending = std::mem::take(&mut self.overflow);
            for key in pending {
                self.push(key);
            }
        }
        true
    }

    // With a plain `#[inline]` the relaxation loop calls this out of line,
    // and 16-root hss-approx scoring on a 16k-node weighted graph measured
    // about 3% slower (2-vCPU x86-64 VM).
    #[inline(always)]
    fn push(&mut self, key: u128) {
        let bucket = self.bucket_of(key);
        if bucket <= self.base {
            // Same-bucket relaxation (equal or near-equal distance): the
            // exact heap keeps it ordered among the remaining current keys.
            self.current.push(std::cmp::Reverse(key));
        } else if bucket - self.base < BUCKET_RING as u64 {
            let slot = (bucket % BUCKET_RING as u64) as usize;
            self.ring[slot].push(key);
            self.occupied[slot / 64] |= 1u64 << (slot % 64);
        } else {
            if bucket < self.overflow_min {
                self.overflow_min = bucket;
            }
            self.overflow.push(key);
        }
    }

    #[inline]
    fn pop(&mut self) -> Option<u128> {
        loop {
            if let Some(std::cmp::Reverse(key)) = self.current.pop() {
                return Some(key);
            }
            if !self.advance() {
                return None;
            }
        }
    }
}

/// Reusable single-source shortest-path workspace over a [`CsrGraph`].
///
/// The High Salience Skeleton runs one Dijkstra per root; allocating the
/// distance/parent/queue structures per root dominated the seed
/// implementation on small trees. This scratch allocates once and resets
/// only the entries touched by the previous run, so consecutive roots on a
/// sparse graph cost `O(reached · log reached)` with no allocation at all.
///
/// Every run drives one frontier-bucketed queue, its buckets
/// [`EntryDistances::bucket_width`] wide. Its pops, the relaxation order,
/// the tie-breaking and the floating-point operations are exactly those of
/// [`dijkstra`], so for any root the resulting tree is bit-identical to the
/// adjacency-list implementation (pinned by the parity test suite).
#[derive(Debug, Clone)]
pub struct CsrDijkstra {
    /// Distance per node as an IEEE-754 bit pattern. All reachable distances
    /// are non-negative finite floats, for which the bit pattern is monotone
    /// in the value, so `u64` comparisons order exactly like `f64` ones (with
    /// [`INFINITY_BITS`] above every finite distance).
    distance_bits: Vec<u64>,
    parent_node: Vec<usize>,
    parent_entry: Vec<usize>,
    reached: Vec<NodeId>,
    /// Reused, ring allocations and all, across runs; each run sets its width.
    queue: BucketQueue,
}

impl CsrDijkstra {
    /// Allocate a workspace for graphs with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        CsrDijkstra {
            distance_bits: vec![INFINITY_BITS; node_count],
            parent_node: vec![NO_PARENT; node_count],
            parent_entry: vec![NO_PARENT; node_count],
            reached: Vec::with_capacity(node_count),
            queue: BucketQueue::new(1.0),
        }
    }

    /// Sparse reset: undo only what the previous run touched.
    fn reset(&mut self, bucket_width: f64) {
        for &node in &self.reached {
            self.distance_bits[node] = INFINITY_BITS;
            self.parent_node[node] = NO_PARENT;
            self.parent_entry[node] = NO_PARENT;
        }
        self.reached.clear();
        self.queue.reset(bucket_width);
    }

    /// Run Dijkstra from `source` over `csr`, using the precomputed
    /// [`csr_entry_distances`] as per-entry edge lengths.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds for the workspace, or if
    /// `entry_distances` is shorter than the graph's entry array.
    pub fn run(&mut self, csr: &CsrGraph, entry_distances: &EntryDistances, source: NodeId) {
        assert!(source < self.distance_bits.len(), "source out of bounds");
        assert!(entry_distances.values().len() >= csr.entry_count());
        self.reset(entry_distances.bucket_width());
        self.distance_bits[source] = 0.0_f64.to_bits();
        self.reached.push(source);
        let CsrDijkstra {
            distance_bits,
            parent_node,
            parent_entry,
            reached,
            queue,
        } = self;
        run_queue(
            queue,
            csr,
            entry_distances.values(),
            distance_bits,
            parent_node,
            parent_entry,
            reached,
            source,
        );
    }

    /// Shortest distance from the current root to `node`.
    pub fn distance(&self, node: NodeId) -> f64 {
        f64::from_bits(self.distance_bits[node])
    }

    /// Parent of `node` in the current shortest-path tree.
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        match self.parent_node[node] {
            NO_PARENT => None,
            parent => Some(parent),
        }
    }

    /// CSR entry index of the tree edge into `node`, if any. Combined with
    /// [`CsrGraph::entry_edge_id`] this maps a tree edge straight to its dense
    /// edge id, with no hash lookup.
    pub fn parent_entry(&self, node: NodeId) -> Option<usize> {
        match self.parent_entry[node] {
            NO_PARENT => None,
            entry => Some(entry),
        }
    }

    /// The nodes reached by the current run (the root first, then in order of
    /// first relaxation).
    pub fn reached(&self) -> &[NodeId] {
        &self.reached
    }
}

/// The relaxation loop: lazy-deletion Dijkstra over the bucket queue. It
/// takes the workspace as separate slices rather than `&mut CsrDijkstra`, so
/// the compiler sees that they do not alias.
#[allow(clippy::too_many_arguments)]
fn run_queue(
    queue: &mut BucketQueue,
    csr: &CsrGraph,
    entry_distances: &[f64],
    distance_bits: &mut [u64],
    parent_node: &mut [usize],
    parent_entry: &mut [usize],
    reached: &mut Vec<NodeId>,
    source: NodeId,
) {
    queue.push(pack_entry(0.0_f64.to_bits(), source));
    while let Some(top) = queue.pop() {
        let (top_bits, node) = unpack_entry(top);
        // Stale-pop check, equivalent to a `settled` flag: a strict
        // relaxation can never re-push a node at its current (minimal)
        // distance, so the first pop of a node carries exactly its stored
        // bits and every later pop carries strictly larger ones.
        if top_bits != distance_bits[node] {
            continue;
        }
        let distance = f64::from_bits(top_bits);
        let range = csr.entry_range(node);
        let entry_base = range.start;
        let targets = csr.neighbors(node);
        let distances = &entry_distances[range];
        for (slot, (&neighbor, &edge_distance)) in targets.iter().zip(distances).enumerate() {
            let neighbor = neighbor as NodeId;
            // An unreachable (infinite) edge distance can never relax:
            // `distance + ∞` compares above every stored pattern,
            // including `INFINITY_BITS` itself.
            let candidate_bits = (distance + edge_distance).to_bits();
            if candidate_bits < distance_bits[neighbor] {
                if distance_bits[neighbor] == INFINITY_BITS {
                    reached.push(neighbor);
                }
                distance_bits[neighbor] = candidate_bits;
                parent_node[neighbor] = node;
                parent_entry[neighbor] = entry_base + slot;
                queue.push(pack_entry(candidate_bits, neighbor));
            }
        }
    }
}

/// Lane width of [`UniformBfsBatch`]: one `u64` mask packs 64 roots.
pub const UNIFORM_BFS_LANES: usize = 64;

/// Batched multi-root BFS over uniform entry distances: up to
/// [`UNIFORM_BFS_LANES`] shortest-path trees grown in one pass over the
/// edges per level, with per-root membership delivered as bitmask counts.
///
/// This is the engine behind exact HSS on uniform-weight graphs: instead of
/// one level-synchronous BFS per root (`O(V · E)` entry visits overall), each
/// batch advances 64 roots simultaneously — a node holds one `u64` frontier
/// mask and one `u64` undiscovered mask, and an edge scan settles it for all
/// 64 lanes at once (`O(V · E / 64)` plus per-discovery bit work).
///
/// **Output equivalence with Dijkstra** (pinned by the HSS parity
/// proptests): with one nonzero finite step, Dijkstra pops nodes in ascending
/// `(distance, node)` order, i.e. level by level and by ascending node id
/// within a level (every level-`k` node holds the identical accumulated float
/// `k·step`). Every level here processes its nodes in ascending node id — the
/// union of the lanes' frontiers, sorted — and a lane's discoveries happen at
/// exactly the (node, slot) position of that lane's own relaxations, because
/// nodes not in the lane's frontier contribute an empty lane mask. First
/// discovery wins per lane (the undiscovered-mask test), which is Dijkstra's
/// strict-relaxation parent rule: a later equal-distance candidate never
/// replaces an earlier one. Levels stay synchronized across lanes since every
/// tree edge has the same step; distances are not materialized (no caller of
/// the batch needs them).
#[derive(Debug, Clone)]
pub struct UniformBfsBatch {
    /// Per node: lanes that hold the node in the current BFS level.
    frontier: Vec<u64>,
    /// Per node: lanes that discovered the node while scanning this level.
    next_frontier: Vec<u64>,
    /// Per node: lanes that have NOT yet discovered the node.
    undiscovered: Vec<u64>,
    /// Current level, ascending; the union over all lanes.
    active: Vec<NodeId>,
    next_active: Vec<NodeId>,
    /// Nodes whose `undiscovered` mask was touched, for the sparse reset.
    touched: Vec<NodeId>,
}

impl UniformBfsBatch {
    /// Allocate a batch workspace for graphs with `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        UniformBfsBatch {
            frontier: vec![0; node_count],
            next_frontier: vec![0; node_count],
            undiscovered: vec![u64::MAX; node_count],
            active: Vec::new(),
            next_active: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Grow the shortest-path trees of up to 64 distinct `roots` at once.
    ///
    /// `on_tree_entry(entry, lanes)` fires once per discovery event: the CSR
    /// entry is the tree edge into the discovered node for exactly `lanes`
    /// roots of this batch. Summed over a whole batch sweep this yields the
    /// HSS tree-membership counts, bit-identical to running the roots one by
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `entry_distances` is not uniform, `roots` has more than
    /// [`UNIFORM_BFS_LANES`] entries, or a root is out of bounds. Roots must
    /// be distinct (checked in debug builds).
    pub fn run(
        &mut self,
        csr: &CsrGraph,
        entry_distances: &EntryDistances,
        roots: &[NodeId],
        on_tree_entry: impl FnMut(usize, u32),
    ) {
        let step = entry_distances
            .uniform()
            .expect("batched BFS requires uniform entry distances");
        assert!(roots.len() <= UNIFORM_BFS_LANES, "too many roots per batch");
        if entry_distances.uniform_is_total() {
            self.run_inner::<false>(csr, entry_distances.values(), step, roots, on_tree_entry);
        } else {
            self.run_inner::<true>(csr, entry_distances.values(), step, roots, on_tree_entry);
        }
    }

    fn run_inner<const CHECK_STEP: bool>(
        &mut self,
        csr: &CsrGraph,
        entry_distances: &[f64],
        step: f64,
        roots: &[NodeId],
        mut on_tree_entry: impl FnMut(usize, u32),
    ) {
        let UniformBfsBatch {
            frontier,
            next_frontier,
            undiscovered,
            active,
            next_active,
            touched,
        } = self;
        for (lane, &root) in roots.iter().enumerate() {
            let bit = 1u64 << lane;
            debug_assert!(undiscovered[root] & bit != 0, "roots must be distinct");
            if undiscovered[root] == u64::MAX {
                touched.push(root);
            }
            undiscovered[root] &= !bit;
            if frontier[root] == 0 {
                active.push(root);
            }
            frontier[root] |= bit;
        }
        active.sort_unstable();
        while !active.is_empty() {
            for &node in active.iter() {
                let lanes = frontier[node];
                let range = csr.entry_range(node);
                let entry_base = range.start;
                for (slot, &neighbor) in csr.neighbors(node).iter().enumerate() {
                    if CHECK_STEP && entry_distances[entry_base + slot] != step {
                        continue;
                    }
                    let neighbor = neighbor as NodeId;
                    let newly = lanes & undiscovered[neighbor];
                    if newly != 0 {
                        if undiscovered[neighbor] == u64::MAX {
                            touched.push(neighbor);
                        }
                        undiscovered[neighbor] &= !newly;
                        if next_frontier[neighbor] == 0 {
                            next_active.push(neighbor);
                        }
                        next_frontier[neighbor] |= newly;
                        on_tree_entry(entry_base + slot, newly.count_ones());
                    }
                }
            }
            // Clear the old level's masks before installing the new ones (a
            // node can sit in the current level for one lane and be freshly
            // discovered for another).
            for &node in active.iter() {
                frontier[node] = 0;
            }
            next_active.sort_unstable();
            for &node in next_active.iter() {
                frontier[node] = next_frontier[node];
                next_frontier[node] = 0;
            }
            std::mem::swap(active, next_active);
            next_active.clear();
        }
        // Sparse reset for the next batch.
        for &node in touched.iter() {
            undiscovered[node] = u64::MAX;
        }
        touched.clear();
    }
}

/// Single-source shortest paths over a [`CsrGraph`], equivalent to
/// [`dijkstra`] on the originating adjacency-list graph.
pub fn csr_dijkstra(
    csr: &CsrGraph,
    source: NodeId,
    transform: DistanceTransform,
) -> GraphResult<ShortestPathTree> {
    if source >= csr.node_count() {
        return Err(GraphError::NodeOutOfBounds {
            node: source,
            node_count: csr.node_count(),
        });
    }
    let entry_distances = csr_entry_distances(csr, transform);
    let mut scratch = CsrDijkstra::new(csr.node_count());
    scratch.run(csr, &entry_distances, source);
    Ok(ShortestPathTree {
        source,
        distances: (0..csr.node_count()).map(|n| scratch.distance(n)).collect(),
        predecessors: (0..csr.node_count()).map(|n| scratch.parent(n)).collect(),
    })
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::graph::Direction;

    /// Triangle where the direct edge A-C is weak and the detour A-B-C is strong.
    fn detour_graph() -> WeightedGraph {
        WeightedGraph::from_edges(
            Direction::Undirected,
            3,
            vec![(0, 1, 10.0), (1, 2, 10.0), (0, 2, 1.0)],
        )
        .unwrap()
    }

    #[test]
    fn inverse_transform_prefers_heavy_edges() {
        let g = detour_graph();
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        // Distance via the heavy detour: 1/10 + 1/10 = 0.2 < 1/1 = 1.0 direct.
        assert!((tree.distances[2] - 0.2).abs() < 1e-12);
        assert_eq!(tree.predecessors[2], Some(1));
        assert_eq!(tree.path_to(2), Some(vec![0, 1, 2]));
    }

    #[test]
    fn identity_transform_prefers_light_edges() {
        let g = detour_graph();
        let tree = dijkstra(&g, 0, DistanceTransform::Identity).unwrap();
        assert!((tree.distances[2] - 1.0).abs() < 1e-12);
        assert_eq!(tree.predecessors[2], Some(0));
    }

    #[test]
    fn negative_log_transform_orders_like_inverse() {
        let g = detour_graph();
        let inverse = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        let neg_log = dijkstra(&g, 0, DistanceTransform::NegativeLog).unwrap();
        assert_eq!(inverse.predecessors[2], neg_log.predecessors[2]);
    }

    #[test]
    fn unreachable_nodes_have_infinite_distance() {
        let g = WeightedGraph::from_edges(Direction::Directed, 4, vec![(0, 1, 1.0), (2, 3, 1.0)])
            .unwrap();
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        assert!(tree.is_reachable(1));
        assert!(!tree.is_reachable(3));
        assert_eq!(tree.path_to(3), None);
    }

    #[test]
    fn zero_weight_edges_are_ignored() {
        let g = WeightedGraph::from_edges(Direction::Undirected, 2, vec![(0, 1, 0.0)]).unwrap();
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        assert!(!tree.is_reachable(1));
    }

    #[test]
    fn tree_edges_form_a_tree() {
        // A small dense graph: the SPT must have exactly (reachable − 1) edges.
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 6);
        for i in 0..6usize {
            for j in (i + 1)..6usize {
                g.add_edge(i, j, ((i + 2 * j) % 7 + 1) as f64).unwrap();
            }
        }
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        assert_eq!(tree.tree_edges().len(), 5);
        for node in 1..6 {
            assert!(tree.is_reachable(node));
        }
    }

    #[test]
    fn directed_shortest_paths_respect_direction() {
        let g = WeightedGraph::from_edges(
            Direction::Directed,
            3,
            vec![(0, 1, 5.0), (1, 2, 5.0), (2, 0, 5.0)],
        )
        .unwrap();
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        // 0 → 1 → 2 reachable; distances accumulate along direction.
        assert!((tree.distances[1] - 0.2).abs() < 1e-12);
        assert!((tree.distances[2] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn invalid_source_is_rejected() {
        let g = detour_graph();
        assert!(dijkstra(&g, 10, DistanceTransform::Inverse).is_err());
    }

    #[test]
    fn csr_dijkstra_matches_adjacency_dijkstra() {
        let g = detour_graph();
        let csr = CsrGraph::from_graph(&g).unwrap();
        for transform in [
            DistanceTransform::Inverse,
            DistanceTransform::NegativeLog,
            DistanceTransform::Identity,
        ] {
            for source in 0..g.node_count() {
                let adjacency = dijkstra(&g, source, transform).unwrap();
                let csr_tree = csr_dijkstra(&csr, source, transform).unwrap();
                assert_eq!(adjacency, csr_tree, "source {source}, {transform:?}");
            }
        }
    }

    #[test]
    fn csr_scratch_is_reusable_across_roots() {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 8);
        for i in 0..8usize {
            for j in (i + 1)..8usize {
                if (i + j) % 3 != 0 {
                    g.add_edge(i, j, ((i * 5 + j) % 11 + 1) as f64).unwrap();
                }
            }
        }
        let csr = CsrGraph::from_graph(&g).unwrap();
        let entry_distances = csr_entry_distances(&csr, DistanceTransform::Inverse);
        let mut scratch = CsrDijkstra::new(csr.node_count());
        for source in 0..g.node_count() {
            scratch.run(&csr, &entry_distances, source);
            let reference = dijkstra(&g, source, DistanceTransform::Inverse).unwrap();
            for node in 0..g.node_count() {
                assert_eq!(scratch.distance(node), reference.distances[node]);
                assert_eq!(scratch.parent(node), reference.predecessors[node]);
            }
            // Parent entries resolve to real edges of the original graph.
            for node in 0..g.node_count() {
                if let Some(entry) = scratch.parent_entry(node) {
                    let edge_id = csr.entry_edge_id(entry);
                    let parent = scratch.parent(node).unwrap();
                    assert_eq!(g.edge_index(parent, node), Some(edge_id));
                }
            }
        }
    }

    #[test]
    fn csr_dijkstra_rejects_invalid_source() {
        let g = detour_graph();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert!(csr_dijkstra(&csr, 10, DistanceTransform::Inverse).is_err());
    }

    #[test]
    fn csr_entry_distances_match_on_the_fly_transform() {
        let g = detour_graph();
        let csr = CsrGraph::from_graph(&g).unwrap();
        let max_weight = g.edges().map(|e| e.weight).fold(0.0_f64, f64::max);
        for transform in [DistanceTransform::Inverse, DistanceTransform::NegativeLog] {
            let distances = csr_entry_distances(&csr, transform);
            for (entry, &distance) in distances.values().iter().enumerate() {
                let weight = csr.entry_weights()[entry];
                assert_eq!(distance, transform.apply(weight, max_weight));
            }
        }
    }

    #[test]
    fn uniform_distances_are_detected() {
        // Unit weights → all inverse distances equal 1.0.
        let mut unit = WeightedGraph::with_nodes(Direction::Undirected, 4);
        unit.add_edge(0, 1, 1.0).unwrap();
        unit.add_edge(1, 2, 1.0).unwrap();
        unit.add_edge(2, 3, 1.0).unwrap();
        let csr = CsrGraph::from_graph(&unit).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Inverse).uniform(),
            Some(1.0)
        );
        // A zero-weight edge (infinite distance) does not break uniformity.
        unit.add_edge(0, 3, 0.0).unwrap();
        let csr = CsrGraph::from_graph(&unit).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Inverse).uniform(),
            Some(1.0)
        );
        // Distinct weights do.
        let g = detour_graph();
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Inverse).uniform(),
            None
        );
    }

    #[test]
    fn zero_step_uniform_graphs_take_the_general_path() {
        // All-zero weights under the identity transform: every edge distance
        // is 0.0, so all levels share one packed distance and a
        // level-synchronous BFS would assign different parents than
        // Dijkstra's by-node-id pops. Such a graph is not uniform, and the
        // queue orders every key in bucket 0.
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 10);
        for (a, b) in [(0, 9), (0, 1), (1, 2), (2, 8), (9, 8)] {
            g.add_edge(a, b, 0.0).unwrap();
        }
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Identity).uniform(),
            None
        );
        for source in g.nodes() {
            let adjacency = dijkstra(&g, source, DistanceTransform::Identity).unwrap();
            let csr_tree = csr_dijkstra(&csr, source, DistanceTransform::Identity).unwrap();
            assert_eq!(adjacency, csr_tree, "source {source}");
        }
    }

    #[test]
    fn uniform_fast_path_matches_adjacency_dijkstra() {
        // A unit-weight graph with branching, cycles, a zero-weight edge and a
        // disconnected part: the queue runs with the uniform step as its
        // bucket width.
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 10);
        for (a, b) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (2, 5),
            (7, 8),
        ] {
            g.add_edge(a, b, 1.0).unwrap();
        }
        g.add_edge(0, 6, 0.0).unwrap(); // unreachable under inverse transform
        let csr = CsrGraph::from_graph(&g).unwrap();
        assert!(csr_entry_distances(&csr, DistanceTransform::Inverse)
            .uniform()
            .is_some());
        for source in g.nodes() {
            let adjacency = dijkstra(&g, source, DistanceTransform::Inverse).unwrap();
            let csr_tree = csr_dijkstra(&csr, source, DistanceTransform::Inverse).unwrap();
            assert_eq!(adjacency, csr_tree, "source {source}");
        }
    }

    /// Pseudo-random weighted graph for the weighted parity checks.
    fn scrambled_graph(nodes: usize, seed: u64) -> WeightedGraph {
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, nodes);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..nodes {
            for _ in 0..3 {
                let j = (next() as usize) % nodes;
                if i != j {
                    let weight = (next() % 1000) as f64 / 20.0 + 0.05;
                    g.add_edge(i, j, weight).unwrap();
                }
            }
        }
        g
    }

    /// Drain `queue`, returning its pops in order.
    fn drain(queue: &mut BucketQueue) -> Vec<u128> {
        std::iter::from_fn(|| queue.pop()).collect()
    }

    #[test]
    fn bucket_queue_pops_in_ascending_key_order() {
        // Keys with duplicate distances and scrambled pushes, over a width
        // small enough to exercise the ring.
        let mut queue = BucketQueue::new(0.25);
        let mut keys = Vec::new();
        let mut state = 0x9E37u64;
        for node in 0..500usize {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let distance = ((state >> 33) % 64) as f64 / 4.0;
            keys.push(pack_entry(distance.to_bits(), node));
        }
        for &key in &keys {
            queue.push(key);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut queue), keys);
    }

    #[test]
    fn bucket_queue_overflow_and_rebase_keep_exact_order() {
        // A tiny width spreads these keys across far more than BUCKET_RING
        // buckets, forcing the overflow list and repeated window re-bases.
        let mut queue = BucketQueue::new(1e-3);
        let mut keys = Vec::new();
        for node in 0..300usize {
            let distance = ((node * 7919) % 300) as f64 * 17.0;
            keys.push(pack_entry(distance.to_bits(), node));
        }
        for &key in &keys {
            queue.push(key);
        }
        keys.sort_unstable();
        assert_eq!(drain(&mut queue), keys);
        // The queue is reusable after a full drain.
        queue.reset(1e-3);
        queue.push(pack_entry(1.0f64.to_bits(), 7));
        assert_eq!(queue.pop(), Some(pack_entry(1.0f64.to_bits(), 7)));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn bucket_queue_matches_an_ordered_set_under_monotone_interleaving() {
        // Dijkstra's use of the queue: pushes interleave with pops, and every
        // pushed key is at or above the last popped one. Some pushes land in
        // the current bucket, some in the ring, and some jump more than
        // BUCKET_RING buckets ahead into the overflow list, which later
        // pushes into the ring must not overtake once the window has slid.
        // Every pop is checked against an ordered set of the pending keys.
        for (width, seed) in [(1e-3, 1u64), (0.05, 2), (1.0, 3), (37.0, 4)] {
            let mut queue = BucketQueue::new(width);
            let mut oracle = BTreeSet::new();
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut floor = 0.0_f64;
            let mut node = 0usize;
            for pop in 0..6000 {
                for _ in 0..(next() % 3) {
                    let buckets = match next() % 8 {
                        0 => 0.0,
                        1..=4 => (next() % 64) as f64,
                        5 | 6 => (next() % 900) as f64,
                        _ => 1024.0 + (next() % 4096) as f64,
                    };
                    let fraction = (next() % 1000) as f64 / 1000.0;
                    let distance = floor + (buckets + fraction) * width;
                    let key = pack_entry(distance.to_bits(), node);
                    node += 1;
                    queue.push(key);
                    oracle.insert(key);
                }
                let expected = oracle.pop_first();
                assert_eq!(queue.pop(), expected, "width {width}, pop {pop}");
                if let Some(key) = expected {
                    floor = f64::from_bits(unpack_entry(key).0);
                }
            }
            while let Some(expected) = oracle.pop_first() {
                assert_eq!(queue.pop(), Some(expected), "width {width}, drain");
            }
            assert_eq!(queue.pop(), None);
        }
    }

    #[test]
    fn auto_engine_matches_adjacency_on_weighted_graphs() {
        for g in [scrambled_graph(40, 7), scrambled_graph(60, 42)] {
            let csr = CsrGraph::from_graph(&g).unwrap();
            for transform in [
                DistanceTransform::Inverse,
                DistanceTransform::NegativeLog,
                DistanceTransform::Identity,
            ] {
                assert_eq!(csr_entry_distances(&csr, transform).uniform(), None);
                for source in 0..g.node_count() {
                    let adjacency = dijkstra(&g, source, transform).unwrap();
                    let csr_tree = csr_dijkstra(&csr, source, transform).unwrap();
                    assert_eq!(adjacency, csr_tree, "source {source}, {transform:?}");
                }
            }
        }
    }

    #[test]
    fn batched_bfs_matches_per_root_trees() {
        // The uniform_fast_path graph plus extra lanes: compare per-entry
        // tree-membership counts of the batch against per-root CsrDijkstra.
        let mut g = WeightedGraph::with_nodes(Direction::Undirected, 10);
        for (a, b) in [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 3),
            (3, 4),
            (4, 5),
            (2, 5),
            (7, 8),
        ] {
            g.add_edge(a, b, 1.0).unwrap();
        }
        g.add_edge(0, 6, 0.0).unwrap(); // infinite distance: must be skipped
        let csr = CsrGraph::from_graph(&g).unwrap();
        let entry_distances = csr_entry_distances(&csr, DistanceTransform::Inverse);
        assert!(entry_distances.uniform().is_some());
        assert!(!entry_distances.uniform_is_total());

        let roots: Vec<NodeId> = (0..csr.node_count()).collect();
        let mut batch_counts = vec![0usize; csr.entry_count()];
        let mut batch = UniformBfsBatch::new(csr.node_count());
        batch.run(&csr, &entry_distances, &roots, |entry, lanes| {
            batch_counts[entry] += lanes as usize;
        });

        let mut per_root_counts = vec![0usize; csr.entry_count()];
        let mut scratch = CsrDijkstra::new(csr.node_count());
        for root in 0..csr.node_count() {
            scratch.run(&csr, &entry_distances, root);
            for &node in scratch.reached() {
                if let Some(entry) = scratch.parent_entry(node) {
                    per_root_counts[entry] += 1;
                }
            }
        }
        assert_eq!(batch_counts, per_root_counts);
    }

    #[test]
    fn batched_bfs_is_reusable_across_batches() {
        // A directed unit-weight cycle with a chord, swept in two batches of
        // two roots each; totals must match a single four-root batch.
        let mut g = WeightedGraph::with_nodes(Direction::Directed, 4);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)] {
            g.add_edge(a, b, 1.0).unwrap();
        }
        let csr = CsrGraph::from_graph(&g).unwrap();
        let entry_distances = csr_entry_distances(&csr, DistanceTransform::Inverse);
        assert!(entry_distances.uniform_is_total());

        let mut split_counts = vec![0usize; csr.entry_count()];
        let mut batch = UniformBfsBatch::new(csr.node_count());
        for roots in [[0, 1], [2, 3]] {
            batch.run(&csr, &entry_distances, &roots, |entry, lanes| {
                split_counts[entry] += lanes as usize;
            });
        }
        let mut whole_counts = vec![0usize; csr.entry_count()];
        batch.run(&csr, &entry_distances, &[0, 1, 2, 3], |entry, lanes| {
            whole_counts[entry] += lanes as usize;
        });
        assert_eq!(split_counts, whole_counts);
    }

    #[test]
    fn bucket_width_is_tuned_from_the_distance_distribution() {
        // Uniform distances: the width is the step.
        let mut uniform = WeightedGraph::with_nodes(Direction::Undirected, 3);
        uniform.add_edge(0, 1, 2.0).unwrap();
        uniform.add_edge(1, 2, 2.0).unwrap();
        let csr = CsrGraph::from_graph(&uniform).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Inverse).bucket_width(),
            0.5
        );
        // All-zero distances (identity transform on zero weights) offer
        // nothing to tune on: width 1.0 keeps every key in bucket 0.
        let mut zeros = WeightedGraph::with_nodes(Direction::Directed, 3);
        zeros.add_edge(0, 1, 0.0).unwrap();
        zeros.add_edge(1, 2, 0.0).unwrap();
        let csr = CsrGraph::from_graph(&zeros).unwrap();
        assert_eq!(
            csr_entry_distances(&csr, DistanceTransform::Identity).bucket_width(),
            1.0
        );
        // A weighted graph yields a positive width no larger than the median
        // entry distance.
        let g = detour_graph();
        let csr = CsrGraph::from_graph(&g).unwrap();
        let width = csr_entry_distances(&csr, DistanceTransform::Inverse).bucket_width();
        assert!(width > 0.0 && width <= 1.0);
    }

    #[test]
    fn path_to_source_is_trivial() {
        let g = detour_graph();
        let tree = dijkstra(&g, 0, DistanceTransform::Inverse).unwrap();
        assert_eq!(tree.path_to(0), Some(vec![0]));
        assert_eq!(tree.distances[0], 0.0);
    }
}
