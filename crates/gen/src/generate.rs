//! Turning a [`ScenarioSpec`] into a concrete [`CsrGraph`].
//!
//! Generation is a three-stage pipeline, each stage on its own decorrelated
//! random stream derived from the spec seed:
//!
//! 1. **Topology** — the family generator emits the edge set. BA and ER
//!    reuse the existing `backboning_graph` CSR generators verbatim (same
//!    stream, same bytes as the historical bench substrates); geometric and
//!    stochastic-block are implemented here.
//! 2. **Weights** — the weight distribution overwrites (or, for the
//!    ER×uniform fast path, keeps) the topology's edge weights, drawn in
//!    edge-id order.
//! 3. **Noise** — the paper's multiplicative noise model scales each weight
//!    by a factor uniform in `[1 − noise, 1 + noise)`.
//!
//! Every stage is sequential and seed-addressed, so the output is
//! bit-identical across runs, machines and thread counts.

use backboning_graph::generators::{barabasi_albert_csr, erdos_renyi_csr};
use backboning_graph::{CsrBuilder, CsrGraph, Direction, GraphResult, NodeId};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::spec::{Family, ScenarioSpec, SpecError, WeightDist};

/// Salt XORed into the seed for the weight-drawing stream, so weights are
/// decorrelated from the topology draws made with the raw seed.
const WEIGHT_STREAM: u64 = 0x5745_4947_4854_u64; // "WEIGHT"

/// Salt XORed into the seed for the noise stream.
const NOISE_STREAM: u64 = 0x004e_4f49_5345_u64; // "NOISE"

impl ScenarioSpec {
    /// Generate the scenario as a compact CSR graph.
    ///
    /// Deterministic: the same spec yields a bit-identical graph (node ids,
    /// edge ids, weights) on every call. Specs built directly (not via
    /// [`ScenarioSpec::parse`]) are validated first.
    pub fn generate(&self) -> Result<CsrGraph, SpecError> {
        self.validate()?;
        self.generate_validated().map_err(|error| {
            // Validation precludes generator-side parameter rejections, so
            // any surviving error is a capacity overflow worth surfacing.
            SpecError(format!(
                "generation failed for `{}`: {error}",
                self.render()
            ))
        })
    }

    fn generate_validated(&self) -> GraphResult<CsrGraph> {
        let base = match self.family {
            Family::BarabasiAlbert { edges_per_node } => {
                barabasi_albert_csr(self.nodes, edges_per_node, self.seed)?
            }
            Family::ErdosRenyi { edges } => {
                // The uniform distribution is drawn inline by the shared ER
                // generator — the historical bench-substrate stream. Other
                // distributions take unit weights and reweigh below.
                let max = match self.weights {
                    WeightDist::Uniform { max } => max,
                    _ => 1.0,
                };
                erdos_renyi_csr(self.nodes, edges, max, Direction::Undirected, self.seed)?
            }
            Family::Geometric { radius } => geometric_csr(self.nodes, radius, self.seed)?,
            Family::StochasticBlock {
                blocks,
                p_within,
                p_between,
            } => stochastic_block_csr(self.nodes, blocks, p_within, p_between, self.seed)?,
        };

        // Weight pass. ER draws uniform weights inline above; every other
        // family leaves unit weights, which is already what `Unit` means.
        let reweigh = !matches!(
            (self.family, self.weights),
            (_, WeightDist::Unit) | (Family::ErdosRenyi { .. }, WeightDist::Uniform { .. })
        );
        if !reweigh && self.noise == 0.0 {
            return Ok(base);
        }

        let mut triples: Vec<(NodeId, NodeId, f64)> = base
            .edges()
            .map(|edge| (edge.source, edge.target, edge.weight))
            .collect();
        if reweigh {
            let mut rng = StdRng::seed_from_u64(self.seed ^ WEIGHT_STREAM);
            for triple in &mut triples {
                triple.2 = draw_weight(&mut rng, self.weights);
            }
        }
        if self.noise > 0.0 {
            let mut rng = StdRng::seed_from_u64(self.seed ^ NOISE_STREAM);
            for triple in &mut triples {
                // The paper's multiplicative noise model (Section V): scale
                // by a factor uniform in [1 - noise, 1 + noise).
                triple.2 *= 1.0 - self.noise + 2.0 * self.noise * rng.random::<f64>();
            }
        }
        CsrGraph::from_edges(Direction::Undirected, base.node_count(), triples)
    }
}

/// Draw one edge weight from `dist` (never `Unit` on the reweigh path, but
/// handled for completeness).
fn draw_weight(rng: &mut StdRng, dist: WeightDist) -> f64 {
    match dist {
        WeightDist::Unit => 1.0,
        WeightDist::Uniform { max } => {
            // Same open-interval nudge as the shared ER generator: weights
            // must be strictly positive.
            rng.random_range(0.0..max) + f64::MIN_POSITIVE
        }
        WeightDist::PowerLaw { alpha } => {
            // Inverse-CDF Pareto with minimum 1: u in [0,1) keeps the base
            // 1 - u in (0,1], so the weight lies in [1, inf).
            let u: f64 = rng.random();
            (1.0 - u).powf(-1.0 / (alpha - 1.0))
        }
        WeightDist::LogNormal { mu, sigma } => {
            // Box–Muller; 1 - u keeps the log argument strictly positive.
            let u1 = 1.0 - rng.random::<f64>();
            let u2: f64 = rng.random();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            (mu + sigma * z).exp()
        }
    }
}

/// Random geometric graph on the unit square: `nodes` points uniform in
/// `[0,1)²`, an edge between every pair closer than `radius`.
///
/// Points are drawn in node-id order (two draws each), then pairs are found
/// with a grid of cells no smaller than the radius — only the 3×3 cell
/// neighbourhood can contain a partner. Candidate partners of each node are
/// sorted, so the edge order is a pure function of the point set.
fn geometric_csr(nodes: usize, radius: f64, seed: u64) -> GraphResult<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<(f64, f64)> = (0..nodes)
        .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
        .collect();

    // Cell side >= radius (dim <= 1/radius), capped so tiny radii on small
    // graphs don't allocate a huge empty grid.
    let dim = ((1.0 / radius) as usize).clamp(1, 2048);
    let cell_of = |coord: f64| ((coord * dim as f64) as usize).min(dim - 1);
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); dim * dim];
    for (id, &(x, y)) in points.iter().enumerate() {
        cells[cell_of(y) * dim + cell_of(x)].push(id as u32);
    }

    let mut builder = CsrBuilder::with_nodes(Direction::Undirected, nodes)?;
    let radius_sq = radius * radius;
    let mut partners: Vec<usize> = Vec::new();
    for (id, &(x, y)) in points.iter().enumerate() {
        let (cx, cy) = (cell_of(x), cell_of(y));
        partners.clear();
        for gy in cy.saturating_sub(1)..=(cy + 1).min(dim - 1) {
            for gx in cx.saturating_sub(1)..=(cx + 1).min(dim - 1) {
                for &other in &cells[gy * dim + gx] {
                    let other = other as usize;
                    if other > id {
                        let (dx, dy) = (points[other].0 - x, points[other].1 - y);
                        if dx * dx + dy * dy <= radius_sq {
                            partners.push(other);
                        }
                    }
                }
            }
        }
        partners.sort_unstable();
        for &other in &partners {
            builder.add_edge(id, other, 1.0)?;
        }
    }
    builder.finish()
}

/// Stochastic block model with `blocks` contiguous, balanced blocks (block
/// `k` covers node ids `[k·n/b, (k+1)·n/b)`): each within-block pair is an
/// edge with probability `p_within`, each cross-block pair with `p_between`.
///
/// Pairs are visited in a fixed row-major order per block pair, and the
/// Bernoulli trials are compressed into geometric gap draws — O(edges)
/// instead of the O(n²) loop of the adjacency-map SBM generator, and still
/// a single sequential stream.
fn stochastic_block_csr(
    nodes: usize,
    blocks: usize,
    p_within: f64,
    p_between: f64,
    seed: u64,
) -> GraphResult<CsrGraph> {
    let mut rng = StdRng::seed_from_u64(seed);
    let bounds: Vec<usize> = (0..=blocks).map(|k| k * nodes / blocks).collect();
    let mut builder = CsrBuilder::with_nodes(Direction::Undirected, nodes)?;
    for a in 0..blocks {
        sample_triangle(&mut rng, bounds[a], bounds[a + 1], p_within, &mut builder)?;
        for b in (a + 1)..blocks {
            sample_rectangle(
                &mut rng,
                (bounds[a], bounds[a + 1]),
                (bounds[b], bounds[b + 1]),
                p_between,
                &mut builder,
            )?;
        }
    }
    builder.finish()
}

/// Number of candidates skipped before the next Bernoulli(`p`) success,
/// via the inverse geometric CDF. Caller handles `p <= 0` and `p >= 1`.
fn geometric_gap(rng: &mut StdRng, p: f64) -> u64 {
    let u: f64 = rng.random();
    let gap = ((1.0 - u).ln() / (1.0 - p).ln()).floor();
    if gap.is_finite() && gap >= 0.0 {
        gap as u64
    } else {
        0
    }
}

/// Bernoulli-sample the ordered pairs `start <= i < j < end`.
fn sample_triangle(
    rng: &mut StdRng,
    start: usize,
    end: usize,
    p: f64,
    builder: &mut CsrBuilder,
) -> GraphResult<()> {
    if end - start < 2 || p <= 0.0 {
        return Ok(());
    }
    if p >= 1.0 {
        for i in start..end {
            for j in (i + 1)..end {
                builder.add_edge(i, j, 1.0)?;
            }
        }
        return Ok(());
    }
    let (mut i, mut j) = (start, start + 1);
    loop {
        let mut gap = geometric_gap(rng, p);
        loop {
            let row_left = (end - j) as u64;
            if gap < row_left {
                j += gap as usize;
                break;
            }
            gap -= row_left;
            i += 1;
            if i + 1 >= end {
                return Ok(());
            }
            j = i + 1;
        }
        builder.add_edge(i, j, 1.0)?;
        j += 1;
        if j >= end {
            i += 1;
            if i + 1 >= end {
                return Ok(());
            }
            j = i + 1;
        }
    }
}

/// Bernoulli-sample the cross pairs of two disjoint id ranges.
fn sample_rectangle(
    rng: &mut StdRng,
    (a_start, a_end): (usize, usize),
    (b_start, b_end): (usize, usize),
    p: f64,
    builder: &mut CsrBuilder,
) -> GraphResult<()> {
    let width = (b_end - b_start) as u64;
    if width == 0 || a_start >= a_end || p <= 0.0 {
        return Ok(());
    }
    if p >= 1.0 {
        for i in a_start..a_end {
            for j in b_start..b_end {
                builder.add_edge(i, j, 1.0)?;
            }
        }
        return Ok(());
    }
    let (mut i, mut offset) = (a_start, 0u64);
    loop {
        let mut gap = geometric_gap(rng, p);
        loop {
            let row_left = width - offset;
            if gap < row_left {
                offset += gap;
                break;
            }
            gap -= row_left;
            i += 1;
            offset = 0;
            if i >= a_end {
                return Ok(());
            }
        }
        builder.add_edge(i, b_start + offset as usize, 1.0)?;
        offset += 1;
        if offset >= width {
            i += 1;
            offset = 0;
            if i >= a_end {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backboning_graph::io::write_edge_list_string;

    fn generate(text: &str) -> CsrGraph {
        ScenarioSpec::parse(text).unwrap().generate().unwrap()
    }

    fn weights(graph: &CsrGraph) -> Vec<f64> {
        graph.edges().map(|edge| edge.weight).collect()
    }

    /// The spec reproduces the direct generator's edge list byte for byte,
    /// at a small size and at the bench substrates' 2000 nodes.
    #[test]
    fn ba_spec_matches_shared_generator_stream() {
        for (nodes, seed) in [(300, 4242), (2000, 4242)] {
            let via_spec = generate(&format!("ba:n={nodes},m=3,seed={seed}"));
            let direct = barabasi_albert_csr(nodes, 3, seed).unwrap();
            assert_eq!(
                write_edge_list_string(&via_spec).unwrap(),
                write_edge_list_string(&direct).unwrap(),
                "n={nodes}"
            );
        }
    }

    #[test]
    fn er_uniform_spec_matches_shared_generator_stream() {
        for (nodes, edges) in [(300, 900), (2000, 6000)] {
            let via_spec = generate(&format!("er:n={nodes},e={edges},w=uniform(10),seed=99"));
            let direct = erdos_renyi_csr(nodes, edges, 10.0, Direction::Undirected, 99).unwrap();
            assert_eq!(
                write_edge_list_string(&via_spec).unwrap(),
                write_edge_list_string(&direct).unwrap(),
                "n={nodes}"
            );
        }
    }

    #[test]
    fn geometric_edges_respect_the_radius() {
        let spec = ScenarioSpec::parse("geo:n=400,r=0.08,seed=7").unwrap();
        let graph = spec.generate().unwrap();
        assert!(
            graph.edge_count() > 0,
            "radius 0.08 on 400 nodes links some pairs"
        );
        // Re-derive the point set from the same stream and check every edge.
        let mut rng = StdRng::seed_from_u64(7);
        let points: Vec<(f64, f64)> = (0..400)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        for edge in graph.edges() {
            let (x1, y1) = points[edge.source];
            let (x2, y2) = points[edge.target];
            let dist_sq = (x1 - x2).powi(2) + (y1 - y2).powi(2);
            assert!(dist_sq <= 0.08f64 * 0.08, "edge beyond the radius");
            assert!(edge.source < edge.target);
        }
    }

    #[test]
    fn geometric_brute_force_parity_on_small_graph() {
        // The gridded generator must find exactly the pairs a full O(n²)
        // scan finds.
        let spec = ScenarioSpec::parse("geo:n=120,r=0.15,seed=11").unwrap();
        let graph = spec.generate().unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let points: Vec<(f64, f64)> = (0..120)
            .map(|_| (rng.random::<f64>(), rng.random::<f64>()))
            .collect();
        let mut expected = Vec::new();
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                let (dx, dy) = (points[j].0 - points[i].0, points[j].1 - points[i].1);
                if dx * dx + dy * dy <= 0.15 * 0.15 {
                    expected.push((i, j));
                }
            }
        }
        let mut actual: Vec<(usize, usize)> = graph
            .edges()
            .map(|edge| (edge.source, edge.target))
            .collect();
        actual.sort_unstable();
        expected.sort_unstable();
        assert_eq!(actual, expected);
    }

    #[test]
    fn stochastic_block_respects_planted_structure() {
        let spec = ScenarioSpec::parse("sb:n=800,b=4,pin=0.1,pout=0.002,seed=5").unwrap();
        let graph = spec.generate().unwrap();
        let block_of = |id: usize| id * 4 / 800;
        let (mut within, mut between) = (0usize, 0usize);
        for edge in graph.edges() {
            assert!(edge.source < edge.target, "pairs are canonical");
            if block_of(edge.source) == block_of(edge.target) {
                within += 1;
            } else {
                between += 1;
            }
        }
        // Expectations: within ≈ 4 * C(200,2) * 0.1 ≈ 7960,
        // between ≈ 6 * 200 * 200 * 0.002 = 480. Loose factor-of-2 bands.
        assert!(
            (4000..12000).contains(&within),
            "within-block edges: {within}"
        );
        assert!(
            (200..1000).contains(&between),
            "between-block edges: {between}"
        );
    }

    #[test]
    fn stochastic_block_extreme_probabilities() {
        let complete = ScenarioSpec::parse("sb:n=12,b=3,pin=1,pout=1,seed=1")
            .unwrap()
            .generate()
            .unwrap();
        assert_eq!(complete.edge_count(), 12 * 11 / 2);

        let cliques_only = ScenarioSpec::parse("sb:n=12,b=3,pin=1,pout=0,seed=1")
            .unwrap()
            .generate()
            .unwrap();
        assert_eq!(cliques_only.edge_count(), 3 * (4 * 3 / 2));

        let empty = ScenarioSpec::parse("sb:n=12,b=3,pin=0,pout=0,seed=1")
            .unwrap()
            .generate()
            .unwrap();
        assert_eq!(empty.edge_count(), 0);
    }

    #[test]
    fn weight_distributions_have_expected_support() {
        let powerlaw = generate("ba:n=500,m=2,w=powerlaw(2.5),seed=3");
        assert!(weights(&powerlaw).iter().all(|&w| w >= 1.0));

        let lognormal = generate("ba:n=500,m=2,w=lognormal(0,1),seed=3");
        assert!(weights(&lognormal).iter().all(|&w| w > 0.0));

        let uniform = generate("geo:n=500,r=0.06,w=uniform(10),seed=3");
        assert!(weights(&uniform).iter().all(|&w| w > 0.0 && w <= 10.0));

        // Same topology, different weight distribution: weights differ,
        // structure does not.
        let unit = generate("ba:n=500,m=2,seed=3");
        assert_eq!(unit.edge_count(), powerlaw.edge_count());
        assert_ne!(weights(&unit), weights(&powerlaw));
    }

    #[test]
    fn noise_layer_scales_weights_within_the_paper_band() {
        let clean = generate("er:n=400,e=1200,w=uniform(10),seed=17");
        let noisy = generate("er:n=400,e=1200,w=uniform(10),noise=0.3,seed=17");
        assert_eq!(clean.edge_count(), noisy.edge_count());
        let mut saw_change = false;
        for (before, after) in weights(&clean).iter().zip(weights(&noisy)) {
            let factor = after / before;
            assert!(
                (0.7..1.3 + 1e-12).contains(&factor),
                "factor {factor} outside [1-noise, 1+noise)"
            );
            saw_change |= (factor - 1.0).abs() > 1e-9;
        }
        assert!(saw_change, "noise=0.3 must actually perturb weights");
    }

    #[test]
    fn weight_and_noise_streams_are_decorrelated_from_topology() {
        // Changing only the weight distribution must not change which draws
        // the topology makes, and vice versa: same seed, same edges.
        let a = generate("sb:n=300,b=3,pin=0.1,pout=0.01,w=powerlaw(3),seed=9");
        let b = generate("sb:n=300,b=3,pin=0.1,pout=0.01,w=lognormal(1,0.5),seed=9");
        let pairs = |g: &CsrGraph| -> Vec<(usize, usize)> {
            g.edges().map(|e| (e.source, e.target)).collect()
        };
        assert_eq!(pairs(&a), pairs(&b));
        assert_ne!(weights(&a), weights(&b));
    }
}
