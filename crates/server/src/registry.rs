//! The graph registry, its scored-edge cache, and patch generations.
//!
//! A [`Registry`] owns every named graph the server can answer queries
//! about: graphs loaded from a directory at startup plus graphs uploaded
//! over HTTP. Each [`GraphEntry`] publishes an immutable [`GraphState`]
//! snapshot — the compact graph plus every cache — behind a generation
//! counter. Readers clone one `Arc` per request and then work on a frozen
//! world: a concurrent `PATCH` publishes a *new* state (generation + 1)
//! without touching the old one, so a response is always computed against
//! exactly one generation's graph and scores — **torn reads are
//! structurally impossible**, not merely avoided (pinned by the
//! concurrent-churn soak).
//!
//! Each state carries a **scored-edge cache** keyed by
//! [`Method::cache_key`] — the CLI name for exact methods, and a key that
//! embeds `roots` and `seed` for the sampled `hss-approx` estimator — so
//! the expensive scoring pass (Sinkhorn for DS, one SSSP per root for HSS,
//! the NC posterior, Monte Carlo-free but still O(E) work for the rest)
//! runs **once per `(generation, method configuration)`** and every
//! subsequent threshold policy is answered from the cached
//! [`backboning::ScoredEdges`] at selection cost.
//!
//! [`Registry::patch`] applies a batched delta to the published graph
//! through [`backboning_graph::delta`], which builds the next [`CsrGraph`]
//! (writers are serialized per graph; readers are never blocked), and
//! **seeds the successor state's cache** by exact
//! incremental rescoring ([`backboning::delta::delta_rescore`]) of every
//! method cached in the previous generation whose
//! [`DeltaStrategy`] permits it — so the cache
//! stays hot under churn for the local methods, while HSS / hss-approx /
//! MST results invalidate to a staged full recompute on next request.
//! Cache invalidation is thereby *keyed by generation*: stale entries are
//! unreachable the instant the new state is published.
//!
//! Each state additionally carries a **comparison report cache** keyed by
//! the canonical `/compare` configuration: a comparison's noise Monte
//! Carlo re-scores perturbed graph copies, which the scored-edge cache
//! cannot help with, but the finished report is a pure function of
//! `(graph, config)`, so its bytes are stored and repeated requests skip
//! the Monte Carlo entirely (bounded per state; see
//! [`GraphState::store_compare`]).
//!
//! Concurrency model: the graph map is behind an `RwLock` (lookups are
//! reads; uploads are rare writes), as is each entry's published state.
//! Each cache slot is an `Arc<OnceLock<…>>`, so concurrent first hits on
//! the same `(graph, method)` block on one scoring pass instead of
//! duplicating it, while queries for *other* methods or graphs proceed
//! unhindered. Failed scoring attempts are cached too — a graph with no
//! doubly-stochastic scaling answers every DS query with the same error
//! without re-running Sinkhorn.
//!
//! A cached set is ranked lazily: the first `top_k`, `top_share` or
//! `coverage` read of each (generation, method) builds its rank order
//! ([`backboning::ScoredEdges::ranked`]) and later reads copy a prefix of
//! it. [`Registry::patch`] seeds the successor with unranked sets, so a
//! PATCH never pays for a sort.
//!
//! Both caches are **LRU-bounded**: a `ScoredEdges` set costs 24–40 bytes
//! per edge, 28–44 once ranked (see [`backboning::scored`]), the same
//! order as the 32–48 bytes per edge (plus per-node arrays) of the
//! [`CsrGraph`] it scores, so a client sweeping methods could otherwise
//! pin several graphs' worth of memory. At most `MAX_SCORED_METHODS` score
//! sets (and `MAX_COMPARE_REPORTS` reports) are retained per state,
//! evicting the least-recently-used slot.
//! Eviction is always safe: every cached value is a pure function of
//! `(graph, key)`, so a re-scored response is byte-identical to the
//! evicted one (pinned by the integration suite).

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::{Duration, Instant};

use backboning::error::BackboneError;
use backboning::{delta_rescore, DeltaStrategy, Method, ScoredEdges};
use backboning_graph::io::{read_edge_list_csr_file, EdgeListOptions};
use backboning_graph::{CsrGraph, DeltaBatch, DeltaGraph, GraphError, PatchEffect};

type ScoreSlot = Arc<OnceLock<Result<Arc<ScoredEdges>, BackboneError>>>;

/// Registry-lifetime event counters. One instance is shared (via `Arc`)
/// between the [`Registry`] and every [`GraphEntry`] / [`GraphState`] it
/// creates, so counts accumulate across graph re-inserts, removals and
/// patch generations: they describe the server process, not any single
/// graph's cache.
#[derive(Default)]
struct CacheAtomics {
    scored_evictions: AtomicU64,
    compare_hits: AtomicU64,
    compare_misses: AtomicU64,
    compare_evictions: AtomicU64,
    patches: AtomicU64,
    patch_ops: AtomicU64,
    compactions: AtomicU64,
}

/// A point-in-time copy of every cache and patch counter the registry
/// keeps, for `/health` and `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheCounters {
    /// Scored-edge lookups answered from the cache.
    pub scored_hits: u64,
    /// Scored-edge lookups that ran a scoring pass.
    pub scored_misses: u64,
    /// Scored-edge slots evicted by the per-state LRU bound.
    pub scored_evictions: u64,
    /// Comparison-report lookups answered from the cache.
    pub compare_hits: u64,
    /// Comparison-report lookups that missed (the report was computed).
    pub compare_misses: u64,
    /// Comparison reports evicted by the per-state LRU bound.
    pub compare_evictions: u64,
    /// PATCH batches committed across all graphs.
    pub patches: u64,
    /// Individual delta ops committed across all PATCH batches.
    pub patch_ops: u64,
    /// Structural patches, whose new generation was rebuilt through the
    /// CSR builder.
    pub compactions: u64,
}

/// Maximum number of cached comparison reports per state. A comparison
/// report is small (a few KiB of JSON), but its cache key includes
/// free-form query parameters, so the map is bounded to keep a client
/// sweeping parameters from growing it without limit.
const MAX_COMPARE_REPORTS: usize = 32;

/// Maximum number of scored-edge sets retained per state. A score set
/// carries 24–40 bytes per edge, comparable to the CSR arrays themselves;
/// bounding the per-state set keeps a client sweeping methods from pinning
/// `7 × O(E)` memory.
const MAX_SCORED_METHODS: usize = 4;

/// One immutable generation of a graph: the compact CSR plus the caches
/// computed against it. Requests snapshot the current state once
/// ([`GraphEntry::snapshot`]) and never observe a later patch.
pub struct GraphState {
    graph: Arc<CsrGraph>,
    generation: u64,
    /// Logical clock driving both LRU caches: bumped on every cache touch,
    /// so the entry with the smallest stamp is the least recently used.
    clock: AtomicU64,
    /// Keyed by [`Method::cache_key`]; the stored [`Method`] lets a patch
    /// seed the successor generation's cache by incremental rescoring.
    cache: Mutex<HashMap<String, (u64, Method, ScoreSlot)>>,
    compare_cache: Mutex<HashMap<String, (u64, Arc<str>)>>,
    /// Shared with the owning [`Registry`] so cache events survive graph
    /// re-inserts and patches (which drop the state, but not the
    /// process-wide counts).
    counters: Arc<CacheAtomics>,
}

impl GraphState {
    fn new(graph: Arc<CsrGraph>, generation: u64, counters: Arc<CacheAtomics>) -> Self {
        GraphState {
            graph,
            generation,
            clock: AtomicU64::new(0),
            cache: Mutex::new(HashMap::new()),
            compare_cache: Mutex::new(HashMap::new()),
            counters,
        }
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// The graph of this generation, in its compact CSR form.
    pub fn graph(&self) -> &Arc<CsrGraph> {
        &self.graph
    }

    /// The generation number (0 for a freshly inserted graph, +1 per
    /// committed patch).
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The cached comparison report body for a canonical configuration key,
    /// if one was stored. Comparison reports are pure functions of
    /// `(graph, config)` — no wall times — so serving the stored bytes is
    /// indistinguishable from recomputing them. A hit refreshes the entry's
    /// LRU stamp.
    pub fn cached_compare(&self, key: &str) -> Option<Arc<str>> {
        let stamp = self.tick();
        let mut cache = self.compare_cache.lock().unwrap_or_else(|e| e.into_inner());
        let body = cache.get_mut(key).map(|(used, body)| {
            *used = stamp;
            Arc::clone(body)
        });
        if body.is_some() {
            self.counters.compare_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.counters.compare_misses.fetch_add(1, Ordering::Relaxed);
        }
        body
    }

    /// Store a comparison report body under its configuration key. The map
    /// is bounded (`MAX_COMPARE_REPORTS`); storing past the bound evicts
    /// the least-recently-used report rather than growing. Eviction is
    /// lossless: the report is a pure function of `(graph, config)`, so a
    /// recomputed body is byte-identical. Concurrent first requests may
    /// both compute and store; last-write-wins is harmless for the same
    /// reason.
    pub fn store_compare(&self, key: String, body: Arc<str>) {
        let stamp = self.tick();
        let mut cache = self.compare_cache.lock().unwrap_or_else(|e| e.into_inner());
        if cache.len() >= MAX_COMPARE_REPORTS && !cache.contains_key(&key) {
            evict_least_recently_used(&mut cache, |(used, _)| *used);
            self.counters
                .compare_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        cache.insert(key, (stamp, body));
    }

    /// Cache keys of the methods whose scores are currently cached
    /// (successfully computed ones only), sorted for stable output. Exact
    /// methods appear under their CLI name; sampled HSS under its full
    /// `hss-approx:roots=K:seed=S` key.
    pub fn cached_methods(&self) -> Vec<String> {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let mut names: Vec<String> = cache
            .iter()
            .filter(|(_, (_, _, slot))| matches!(slot.get(), Some(Ok(_))))
            .map(|(name, _)| name.clone())
            .collect();
        names.sort_unstable();
        names
    }

    /// Bytes held by this state's successfully cached score sets
    /// ([`ScoredEdges::memory_bytes`]).
    pub fn score_cache_bytes(&self) -> usize {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .values()
            .filter_map(|(_, _, slot)| match slot.get() {
                Some(Ok(scored)) => Some(scored.memory_bytes()),
                _ => None,
            })
            .sum()
    }

    /// Every successfully cached `(key, method, scores)` triple — the raw
    /// material a patch uses to seed its successor state.
    fn cached_scores(&self) -> Vec<(String, Method, Arc<ScoredEdges>)> {
        let cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        cache
            .iter()
            .filter_map(|(key, (_, method, slot))| match slot.get() {
                Some(Ok(scored)) => Some((key.clone(), *method, Arc::clone(scored))),
                _ => None,
            })
            .collect()
    }

    /// Pre-populate a score slot (used when a patch carries scores over to
    /// the next generation). Counts neither as hit nor miss — no lookup
    /// happened.
    fn store_scored(&self, key: String, method: Method, scored: Arc<ScoredEdges>) {
        let stamp = self.tick();
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        if cache.len() >= MAX_SCORED_METHODS && !cache.contains_key(&key) {
            evict_least_recently_used(&mut cache, |(used, _, _)| *used);
            self.counters
                .scored_evictions
                .fetch_add(1, Ordering::Relaxed);
        }
        let slot: ScoreSlot = Arc::default();
        let _ = slot.set(Ok(scored));
        cache.insert(key, (stamp, method, slot));
    }
}

/// A named graph: the currently published [`GraphState`] plus the lock
/// that serializes its [`Registry::patch`] writers.
pub struct GraphEntry {
    name: String,
    state: RwLock<Arc<GraphState>>,
    /// Held by [`Registry::patch`] from reading the published state to
    /// publishing the next; readers never take it.
    writer: Mutex<()>,
}

impl GraphEntry {
    fn new(name: String, graph: CsrGraph, counters: Arc<CacheAtomics>) -> Self {
        let state = GraphState::new(Arc::new(graph), 0, counters);
        GraphEntry {
            name,
            state: RwLock::new(Arc::new(state)),
            writer: Mutex::new(()),
        }
    }

    /// The currently published generation. Handlers snapshot **once** per
    /// request and use the snapshot's graph and caches throughout, so a
    /// concurrent patch can never tear a response.
    pub fn snapshot(&self) -> Arc<GraphState> {
        Arc::clone(&self.state.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// The registry name of the graph.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The current generation's graph, in its compact CSR form.
    pub fn graph(&self) -> Arc<CsrGraph> {
        Arc::clone(&self.snapshot().graph)
    }

    /// The current generation number.
    pub fn generation(&self) -> u64 {
        self.snapshot().generation
    }

    /// [`GraphState::cached_compare`] on the current generation.
    pub fn cached_compare(&self, key: &str) -> Option<Arc<str>> {
        self.snapshot().cached_compare(key)
    }

    /// [`GraphState::store_compare`] on the current generation.
    pub fn store_compare(&self, key: String, body: Arc<str>) {
        self.snapshot().store_compare(key, body)
    }

    /// [`GraphState::cached_methods`] on the current generation.
    pub fn cached_methods(&self) -> Vec<String> {
        self.snapshot().cached_methods()
    }
}

/// Remove the entry with the smallest LRU stamp from a bounded cache map.
fn evict_least_recently_used<K: Clone + std::hash::Hash + Eq, V>(
    map: &mut HashMap<K, V>,
    stamp: impl Fn(&V) -> u64,
) {
    if let Some(oldest) = map
        .iter()
        .min_by_key(|(_, value)| stamp(value))
        .map(|(key, _)| key.clone())
    {
        map.remove(&oldest);
    }
}

/// What a committed [`Registry::patch`] did, for the PATCH response body.
#[derive(Debug, Clone)]
pub struct PatchOutcome {
    /// The newly published generation number.
    pub generation: u64,
    /// Node count of the new generation.
    pub nodes: usize,
    /// Edge count of the new generation.
    pub edges: usize,
    /// What the batch did, as [`DeltaGraph::apply`] reports it.
    pub effect: PatchEffect,
    /// Whether the batch changed the edge structure, so the new generation
    /// was rebuilt through the CSR builder (a reweight-only batch rewrites
    /// the weights of a copy instead).
    pub compacted: bool,
    /// Cache keys carried over to the new generation by incremental
    /// rescoring, sorted.
    pub rescored_methods: Vec<String>,
    /// Wall time of the apply step: resolving the batch against the
    /// published graph and building the next generation.
    pub apply_time: Duration,
    /// Wall time of each carried method's `delta_rescore`, in the order
    /// they ran.
    pub rescore_times: Vec<(Method, Duration)>,
}

/// Maximum accepted graph-name length.
const MAX_NAME_LEN: usize = 100;

/// Whether `name` is a legal registry name: 1–100 characters from
/// `[A-Za-z0-9._-]`, not starting with a dot.
pub fn valid_graph_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= MAX_NAME_LEN
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

/// The server's set of named graphs and their scored-edge caches.
pub struct Registry {
    graphs: RwLock<BTreeMap<String, Arc<GraphEntry>>>,
    threads: usize,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    counters: Arc<CacheAtomics>,
}

impl Registry {
    /// An empty registry whose scoring passes use `threads` workers
    /// (`0` = automatic, honouring `BACKBONING_THREADS`).
    pub fn new(threads: usize) -> Self {
        Registry {
            graphs: RwLock::new(BTreeMap::new()),
            threads,
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            counters: Arc::new(CacheAtomics::default()),
        }
    }

    /// The configured scoring worker count (`0` = automatic).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Load every edge-list file of `dir` (extensions `tsv`, `csv`, `txt`,
    /// `edges`) as a named graph; the file stem becomes the name. `csv`
    /// files are parsed comma-separated, everything else with `options`.
    /// Returns the loaded names; any unreadable or malformed file fails the
    /// whole load (a server should not come up half-configured).
    pub fn load_dir(&self, dir: &Path, options: &EdgeListOptions) -> Result<Vec<String>, String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let mut paths: Vec<std::path::PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|path| {
                path.extension()
                    .and_then(|ext| ext.to_str())
                    .is_some_and(|ext| matches!(ext, "tsv" | "csv" | "txt" | "edges"))
            })
            .collect();
        paths.sort();
        let mut loaded = Vec::new();
        for path in paths {
            let name = path
                .file_stem()
                .and_then(|stem| stem.to_str())
                .unwrap_or_default()
                .to_string();
            if !valid_graph_name(&name) {
                return Err(format!(
                    "{}: `{name}` is not a valid graph name (use [A-Za-z0-9._-])",
                    path.display()
                ));
            }
            let mut file_options = options.clone();
            if path.extension().and_then(|e| e.to_str()) == Some("csv") {
                file_options.separator = Some(',');
            }
            // Stream straight into the CSR builder — no adjacency-map
            // intermediate, so startup memory is the CSR arrays plus one
            // line buffer even for multi-million-edge files.
            let graph = read_edge_list_csr_file(&path, &file_options).map_err(|e| e.to_string())?;
            self.insert(&name, graph)?;
            loaded.push(name);
        }
        Ok(loaded)
    }

    /// Register `graph` under `name`, replacing any previous graph of that
    /// name (and dropping its caches and generation counter).
    /// Rejects invalid names.
    pub fn insert(&self, name: &str, graph: CsrGraph) -> Result<Arc<GraphEntry>, String> {
        if !valid_graph_name(name) {
            return Err(format!(
                "invalid graph name `{name}` (1-{MAX_NAME_LEN} characters from [A-Za-z0-9._-], not starting with a dot)"
            ));
        }
        let entry = Arc::new(GraphEntry::new(
            name.to_string(),
            graph,
            Arc::clone(&self.counters),
        ));
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        graphs.insert(name.to_string(), Arc::clone(&entry));
        Ok(entry)
    }

    /// Remove the graph registered under `name`. Returns whether it existed.
    pub fn remove(&self, name: &str) -> bool {
        let mut graphs = self.graphs.write().unwrap_or_else(|e| e.into_inner());
        graphs.remove(name).is_some()
    }

    /// Look up a graph by name.
    pub fn get(&self, name: &str) -> Option<Arc<GraphEntry>> {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs.get(name).cloned()
    }

    /// All registered graphs in name order.
    pub fn list(&self) -> Vec<Arc<GraphEntry>> {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs.values().cloned().collect()
    }

    /// Number of registered graphs.
    pub fn graph_count(&self) -> usize {
        let graphs = self.graphs.read().unwrap_or_else(|e| e.into_inner());
        graphs.len()
    }

    /// The scored edges of `entry`'s **current** generation under `method`
    /// — a convenience wrapper over [`Registry::scored_state`] for callers
    /// that don't hold a snapshot.
    pub fn scored(
        &self,
        entry: &GraphEntry,
        method: Method,
    ) -> Result<Arc<ScoredEdges>, BackboneError> {
        self.scored_state(&entry.snapshot(), method)
    }

    /// The scored edges of one pinned generation under `method`, from the
    /// state's cache when present, scoring (once, with concurrent callers
    /// blocking on the same pass) when not. At most `MAX_SCORED_METHODS`
    /// score sets are retained per state; a lookup past the bound evicts
    /// the least-recently-used method's slot (whose scores are recomputed —
    /// bit-identically — if it is ever asked for again).
    pub fn scored_state(
        &self,
        state: &GraphState,
        method: Method,
    ) -> Result<Arc<ScoredEdges>, BackboneError> {
        let stamp = state.tick();
        let key = method.cache_key();
        let slot = {
            let mut cache = state.cache.lock().unwrap_or_else(|e| e.into_inner());
            if cache.len() >= MAX_SCORED_METHODS && !cache.contains_key(&key) {
                evict_least_recently_used(&mut cache, |(used, _, _)| *used);
                self.counters
                    .scored_evictions
                    .fetch_add(1, Ordering::Relaxed);
            }
            let (used, _, slot) = cache
                .entry(key)
                .or_insert_with(|| (0, method, Arc::default()));
            *used = stamp;
            Arc::clone(slot)
        };
        let mut computed_here = false;
        let result = slot.get_or_init(|| {
            computed_here = true;
            method
                .score_with_threads(state.graph.as_ref(), self.threads)
                .map(Arc::new)
        });
        if computed_here {
            self.cache_misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        result.clone()
    }

    /// Apply a batched delta to `entry` and publish the next generation.
    ///
    /// Writers are serialized per graph by the entry's writer lock; readers
    /// keep serving the previous state until the new one is published (one
    /// `RwLock` write of an `Arc`), so they never block on scoring and
    /// never observe a half-applied batch. [`DeltaGraph::apply`] resolves
    /// the batch against the published graph and builds the next one.
    /// Every method cached on the old state whose
    /// [`DeltaStrategy`] is not `Invalidate` is
    /// carried to the new state via exact incremental rescoring, so the
    /// cache stays hot under churn. Validation failures (including
    /// [`GraphError::CapacityExceeded`]) leave the published state
    /// untouched.
    pub fn patch(
        &self,
        entry: &GraphEntry,
        batch: &DeltaBatch,
    ) -> Result<PatchOutcome, GraphError> {
        let _writer = entry.writer.lock().unwrap_or_else(|e| e.into_inner());
        let old_state = entry.snapshot();
        let applying = Instant::now();
        let mut delta = DeltaGraph::from_csr(old_state.graph.as_ref());
        let effect = delta.apply(batch)?;
        let new_graph = Arc::new(delta.into_csr());
        let apply_time = applying.elapsed();
        if effect.structure_changed {
            self.counters.compactions.fetch_add(1, Ordering::Relaxed);
        }

        let new_state = Arc::new(GraphState::new(
            Arc::clone(&new_graph),
            old_state.generation + 1,
            Arc::clone(&self.counters),
        ));
        // Seed the successor's cache: exact incremental rescore of every
        // carryable method cached on the old generation. HSS / hss-approx /
        // MST invalidate — their next request is a staged full recompute on
        // the new state.
        let mut rescored = Vec::new();
        let mut rescore_times = Vec::new();
        for (key, method, previous) in old_state.cached_scores() {
            if method.delta_strategy() == DeltaStrategy::Invalidate {
                continue;
            }
            let rescoring = Instant::now();
            let scored = delta_rescore(
                method,
                new_graph.as_ref(),
                previous.as_ref(),
                &effect,
                self.threads,
            );
            if let Ok(scored) = scored {
                rescore_times.push((method, rescoring.elapsed()));
                new_state.store_scored(key.clone(), method, Arc::new(scored));
                rescored.push(key);
            }
        }
        rescored.sort_unstable();

        *entry.state.write().unwrap_or_else(|e| e.into_inner()) = Arc::clone(&new_state);
        self.counters.patches.fetch_add(1, Ordering::Relaxed);
        self.counters
            .patch_ops
            .fetch_add(batch.len() as u64, Ordering::Relaxed);
        Ok(PatchOutcome {
            generation: new_state.generation,
            nodes: new_graph.node_count(),
            edges: new_graph.edge_count(),
            compacted: effect.structure_changed,
            effect,
            rescored_methods: rescored,
            apply_time,
            rescore_times,
        })
    }

    /// Bytes held by every registered graph's current generation:
    /// `(graph bytes, score-cache bytes)`, the sums of
    /// [`CsrGraph::memory_bytes`] and [`GraphState::score_cache_bytes`].
    /// Generations a patch has replaced are not counted, even while an
    /// in-flight request still holds one.
    pub fn memory_bytes(&self) -> (usize, usize) {
        self.list().iter().fold((0, 0), |(graphs, scores), entry| {
            let state = entry.snapshot();
            (
                graphs + state.graph.memory_bytes(),
                scores + state.score_cache_bytes(),
            )
        })
    }

    /// Lifetime cache statistics: `(hits, misses)`. A hit is any scored
    /// lookup answered without running a scoring pass on the calling thread.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.cache_hits.load(Ordering::Relaxed),
            self.cache_misses.load(Ordering::Relaxed),
        )
    }

    /// Every cache counter the registry keeps, in one consistent-enough
    /// snapshot (each counter is read atomically; the set is advisory).
    pub fn cache_counters(&self) -> CacheCounters {
        CacheCounters {
            scored_hits: self.cache_hits.load(Ordering::Relaxed),
            scored_misses: self.cache_misses.load(Ordering::Relaxed),
            scored_evictions: self.counters.scored_evictions.load(Ordering::Relaxed),
            compare_hits: self.counters.compare_hits.load(Ordering::Relaxed),
            compare_misses: self.counters.compare_misses.load(Ordering::Relaxed),
            compare_evictions: self.counters.compare_evictions.load(Ordering::Relaxed),
            patches: self.counters.patches.load(Ordering::Relaxed),
            patch_ops: self.counters.patch_ops.load(Ordering::Relaxed),
            compactions: self.counters.compactions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::{Direction, WeightedGraph};

    fn sample_graph() -> CsrGraph {
        let graph = WeightedGraph::from_labeled_edges(
            Direction::Undirected,
            vec![("a", "b", 4.0), ("b", "c", 3.0), ("c", "a", 2.0)],
        )
        .unwrap();
        CsrGraph::from_graph(&graph).unwrap()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let registry = Registry::new(1);
        assert_eq!(registry.graph_count(), 0);
        registry.insert("g1", sample_graph()).unwrap();
        assert_eq!(registry.graph_count(), 1);
        let entry = registry.get("g1").expect("registered graph");
        assert_eq!(entry.name(), "g1");
        assert_eq!(entry.graph().edge_count(), 3);
        assert!(registry.get("g2").is_none());
        assert!(registry.remove("g1"));
        assert!(!registry.remove("g1"));
        assert_eq!(registry.graph_count(), 0);
    }

    #[test]
    fn graph_names_are_validated() {
        let registry = Registry::new(1);
        for bad in [
            "",
            ".hidden",
            "has space",
            "sla/sh",
            "q?x",
            &"x".repeat(101),
        ] {
            assert!(registry.insert(bad, sample_graph()).is_err(), "`{bad}`");
        }
        for good in ["trade", "my-graph_2.v1", "X"] {
            assert!(registry.insert(good, sample_graph()).is_ok(), "`{good}`");
        }
    }

    #[test]
    fn scoring_is_cached_per_method() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        assert_eq!(registry.cache_stats(), (0, 0));
        let first = registry.scored(&entry, Method::NoiseCorrected).unwrap();
        assert_eq!(registry.cache_stats(), (0, 1));
        let second = registry.scored(&entry, Method::NoiseCorrected).unwrap();
        assert_eq!(registry.cache_stats(), (1, 1));
        // Same allocation, not merely equal scores.
        assert!(Arc::ptr_eq(&first, &second));
        let _ = registry.scored(&entry, Method::DisparityFilter).unwrap();
        assert_eq!(registry.cache_stats(), (1, 2));
        assert_eq!(entry.cached_methods(), vec!["df", "nc"]);
    }

    #[test]
    fn sampled_hss_configurations_get_distinct_cache_slots() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        let first = Method::HssApprox { roots: 2, seed: 1 };
        let second = Method::HssApprox { roots: 2, seed: 2 };
        let a = registry.scored(&entry, first).unwrap();
        let b = registry.scored(&entry, second).unwrap();
        // Different seeds are different scoring passes, never a shared slot.
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(registry.cache_stats(), (0, 2));
        assert_eq!(
            entry.cached_methods(),
            vec!["hss-approx:roots=2:seed=1", "hss-approx:roots=2:seed=2"]
        );
        // Repeating either configuration is a hit on its own slot.
        let again = registry.scored(&entry, first).unwrap();
        assert!(Arc::ptr_eq(&a, &again));
        assert_eq!(registry.cache_stats(), (1, 2));
    }

    #[test]
    fn reinserting_a_name_drops_the_old_cache() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        let _ = registry.scored(&entry, Method::NaiveThreshold).unwrap();
        assert_eq!(entry.cached_methods(), vec!["naive"]);
        let replacement = registry.insert("g", sample_graph()).unwrap();
        assert!(replacement.cached_methods().is_empty());
    }

    #[test]
    fn compare_reports_are_cached_and_lru_bounded() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        assert!(entry.cached_compare("key").is_none());
        entry.store_compare("key".to_string(), Arc::from("{}"));
        assert_eq!(entry.cached_compare("key").as_deref(), Some("{}"));

        // Filling the map up to the bound keeps everything.
        for index in 0..MAX_COMPARE_REPORTS - 1 {
            entry.store_compare(format!("filler-{index}"), Arc::from("{}"));
        }
        assert!(entry.cached_compare("filler-1").is_some());
        // "key" was just touched above, so the store past the bound evicts
        // the least-recently-used entry — filler-0 — and nothing else.
        assert!(entry.cached_compare("key").is_some());
        entry.store_compare("one-too-many".to_string(), Arc::from("{}"));
        assert!(entry.cached_compare("filler-0").is_none());
        assert!(entry.cached_compare("key").is_some());
        assert!(entry.cached_compare("filler-1").is_some());
        assert!(entry.cached_compare("one-too-many").is_some());

        // Re-inserting the graph drops the report cache with the entry.
        let replacement = registry.insert("g", sample_graph()).unwrap();
        assert!(replacement.cached_compare("key").is_none());
    }

    #[test]
    fn score_cache_evicts_least_recently_used_method() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        let methods = [
            Method::NoiseCorrected,
            Method::DisparityFilter,
            Method::NaiveThreshold,
            Method::MaximumSpanningTree,
        ];
        assert_eq!(methods.len(), MAX_SCORED_METHODS);
        let first = registry.scored(&entry, methods[0]).unwrap();
        for &method in &methods[1..] {
            registry.scored(&entry, method).unwrap();
        }
        assert_eq!(entry.cached_methods().len(), MAX_SCORED_METHODS);

        // A fifth method evicts the least-recently-used slot (nc).
        registry
            .scored(&entry, Method::HighSalienceSkeleton)
            .unwrap();
        assert_eq!(entry.cached_methods().len(), MAX_SCORED_METHODS);
        assert!(!entry.cached_methods().iter().any(|key| key == "nc"));

        // Re-scoring the evicted method is a fresh pass with bit-identical
        // results — eviction is lossless.
        let rescored = registry.scored(&entry, methods[0]).unwrap();
        assert!(!Arc::ptr_eq(&first, &rescored), "a fresh scoring pass ran");
        assert_eq!(first.scores(), rescored.scores());
    }

    #[test]
    fn cache_counters_track_evictions_and_compare_traffic() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        // Compare cache: one miss, one hit, then one eviction past the bound.
        assert!(entry.cached_compare("k").is_none());
        entry.store_compare("k".to_string(), Arc::from("{}"));
        assert!(entry.cached_compare("k").is_some());
        for index in 0..MAX_COMPARE_REPORTS {
            entry.store_compare(format!("filler-{index}"), Arc::from("{}"));
        }
        let counters = registry.cache_counters();
        assert_eq!(counters.compare_misses, 1);
        assert_eq!(counters.compare_hits, 1);
        assert_eq!(counters.compare_evictions, 1);

        // Scored-cache evictions count too, and mirror cache_stats.
        for method in [
            Method::NoiseCorrected,
            Method::DisparityFilter,
            Method::NaiveThreshold,
            Method::MaximumSpanningTree,
            Method::HighSalienceSkeleton,
        ] {
            registry.scored(&entry, method).unwrap();
        }
        let counters = registry.cache_counters();
        assert_eq!(counters.scored_evictions, 1);
        assert_eq!(counters.scored_misses, 5);
        assert_eq!(counters.scored_hits, 0);
        assert_eq!(registry.cache_stats(), (0, 5));

        // Counters describe the process, not one graph entry: re-inserting
        // the graph drops its caches but never the counts.
        registry.insert("g", sample_graph()).unwrap();
        assert_eq!(registry.cache_counters(), counters);
    }

    #[test]
    fn patch_publishes_a_new_generation_and_seeds_the_cache() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        assert_eq!(entry.generation(), 0);
        let nt = registry.scored(&entry, Method::NaiveThreshold).unwrap();
        let _ = registry.scored(&entry, Method::DisparityFilter).unwrap();
        let _ = registry
            .scored(&entry, Method::MaximumSpanningTree)
            .unwrap();

        let old_state = entry.snapshot();
        let batch = DeltaBatch::parse_tsv("reweight a b 9\n").unwrap();
        let outcome = registry.patch(&entry, &batch).unwrap();
        assert_eq!(outcome.generation, 1);
        assert!(!outcome.compacted);
        assert_eq!(outcome.effect.reweighted, 1);
        // Local methods were carried over; MST invalidated.
        assert_eq!(
            outcome.rescored_methods,
            vec!["df".to_string(), "naive".to_string()]
        );
        assert_eq!(entry.generation(), 1);
        assert_eq!(entry.cached_methods(), vec!["df", "naive"]);

        // The old snapshot is frozen — readers holding it never tear.
        assert_eq!(old_state.generation(), 0);
        assert_eq!(old_state.graph().edge_count(), 3);
        assert!(Arc::ptr_eq(
            &nt,
            &registry
                .scored_state(&old_state, Method::NaiveThreshold)
                .unwrap()
        ));

        // The seeded cache answers without a scoring pass and matches a
        // from-scratch score of the patched graph bit-for-bit.
        let (hits_before, misses_before) = registry.cache_stats();
        let seeded = registry.scored(&entry, Method::NaiveThreshold).unwrap();
        assert_eq!(
            registry.cache_stats(),
            (hits_before + 1, misses_before),
            "seeded slot must be a cache hit"
        );
        let fresh = Method::NaiveThreshold
            .score_with_threads(entry.graph().as_ref(), 1)
            .unwrap();
        assert_eq!(seeded.as_ref(), &fresh);
    }

    #[test]
    fn structural_patches_compact_and_invalidate_hss() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        let _ = registry
            .scored(&entry, Method::HighSalienceSkeleton)
            .unwrap();
        let batch = DeltaBatch::parse_tsv("add a d 5\nremove b c\n").unwrap();
        let outcome = registry.patch(&entry, &batch).unwrap();
        assert!(outcome.compacted);
        assert_eq!(outcome.generation, 1);
        assert_eq!(outcome.nodes, 4);
        assert_eq!(outcome.edges, 3);
        assert!(outcome.rescored_methods.is_empty());
        assert!(entry.cached_methods().is_empty());
        let counters = registry.cache_counters();
        assert_eq!(counters.patches, 1);
        assert_eq!(counters.patch_ops, 2);
        assert_eq!(counters.compactions, 1);
    }

    #[test]
    fn failed_patches_change_nothing() {
        let registry = Registry::new(1);
        let entry = registry.insert("g", sample_graph()).unwrap();
        let batch = DeltaBatch::parse_tsv("add a b 1\n").unwrap(); // already exists
        let err = registry.patch(&entry, &batch).unwrap_err().to_string();
        assert!(err.contains("line 1"), "{err}");
        assert_eq!(entry.generation(), 0);
        assert_eq!(registry.cache_counters().patches, 0);
        // A valid follow-up still works against the unchanged state.
        let ok = DeltaBatch::parse_tsv("reweight a b 1\n").unwrap();
        assert_eq!(registry.patch(&entry, &ok).unwrap().generation, 1);
    }

    #[test]
    fn load_dir_names_graphs_by_file_stem() {
        let dir = std::env::temp_dir().join("backboning_server_registry_test");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("tiny.tsv"), "a b 2\nb c 1\n").unwrap();
        std::fs::write(dir.join("comma.csv"), "a,b,2\n").unwrap();
        std::fs::write(dir.join("ignored.md"), "not an edge list").unwrap();

        let registry = Registry::new(1);
        let loaded = registry
            .load_dir(&dir, &EdgeListOptions::default())
            .unwrap();
        assert_eq!(loaded, vec!["comma".to_string(), "tiny".to_string()]);
        assert_eq!(registry.get("tiny").unwrap().graph().edge_count(), 2);
        assert_eq!(registry.get("comma").unwrap().graph().edge_count(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_dir_fails_on_malformed_files() {
        let dir = std::env::temp_dir().join("backboning_server_registry_bad");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("broken.tsv"), "a b heavy\n").unwrap();
        let registry = Registry::new(1);
        let err = registry
            .load_dir(&dir, &EdgeListOptions::default())
            .unwrap_err();
        assert!(err.contains("broken.tsv"), "`{err}`");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
