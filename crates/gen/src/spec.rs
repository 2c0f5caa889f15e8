//! The scenario specification: a compact, canonical, round-trippable string
//! form describing one generated graph.
//!
//! Grammar (whitespace-free; keys in any order, each at most once):
//!
//! ```text
//! <family>:<key>=<value>[,<key>=<value>...]
//!
//! ba:n=2000,m=3,w=unit,noise=0,seed=4242            Barabási–Albert
//! er:n=2000,e=6000,w=uniform(10),noise=0,seed=99    Erdős–Rényi
//! geo:n=2000,r=0.04,w=powerlaw(2.5),noise=0,seed=7  random geometric
//! sb:n=2000,b=8,pin=0.05,pout=0.002,w=lognormal(0,1),noise=0.1,seed=7
//! ```
//!
//! Shared keys: `n` (nodes, required), `w` (weight distribution, default
//! `unit`), `noise` (multiplicative noise level in `[0, 1)`, default `0`),
//! `seed` (default `4242`). Family keys: `m` (BA attachment edges, default
//! 3), `e` (ER edge count, default `3·n`), `r` (geometric radius, default
//! `0.05`), `b`/`pin`/`pout` (block count and within/between edge
//! probabilities, defaults `8`/`0.05`/`0.002`).
//!
//! [`ScenarioSpec::render`] emits the canonical form with every key
//! explicit, in a fixed order, with Rust's shortest-round-trip float
//! formatting — so `parse(render(s)) == s` exactly (pinned by proptest) and
//! the rendered string doubles as a cache key.

use std::fmt;
use std::str::FromStr;

/// Default sampling seed shared with the rest of the workspace's substrate
/// generators.
pub const DEFAULT_SEED: u64 = 4242;

/// A malformed or out-of-range scenario specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid scenario spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

fn spec_error(message: impl Into<String>) -> SpecError {
    SpecError(message.into())
}

/// The topology family of a generated scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Barabási–Albert preferential attachment: heavy-tailed degrees, hubs.
    BarabasiAlbert {
        /// Edges each new node attaches with (`m`).
        edges_per_node: usize,
    },
    /// Erdős–Rényi with a fixed edge count: homogeneous degrees.
    ErdosRenyi {
        /// Number of sampled edges (`e`).
        edges: usize,
    },
    /// Random geometric graph on the unit square: spatial clustering, high
    /// transitivity.
    Geometric {
        /// Connection radius (`r`): nodes closer than this are linked.
        radius: f64,
    },
    /// Stochastic block model: planted community structure.
    StochasticBlock {
        /// Number of equal-sized blocks (`b`).
        blocks: usize,
        /// Within-block edge probability (`pin`).
        p_within: f64,
        /// Between-block edge probability (`pout`).
        p_between: f64,
    },
}

impl Family {
    /// The family tag leading the spec string.
    pub fn tag(&self) -> &'static str {
        match self {
            Family::BarabasiAlbert { .. } => "ba",
            Family::ErdosRenyi { .. } => "er",
            Family::Geometric { .. } => "geo",
            Family::StochasticBlock { .. } => "sb",
        }
    }
}

/// The edge-weight distribution layered onto the generated topology.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightDist {
    /// Every edge weighs exactly 1.
    Unit,
    /// Weights uniform in `(0, max]` — the classic bench-substrate weights.
    Uniform {
        /// Upper bound of the uniform draw.
        max: f64,
    },
    /// Pareto (power-law) weights with minimum 1:
    /// `w = (1 − u)^(−1 / (alpha − 1))`, heavy-tailed for small `alpha`.
    PowerLaw {
        /// Tail exponent (`> 1`; smaller means heavier tail).
        alpha: f64,
    },
    /// Log-normal weights `exp(mu + sigma·z)` with standard-normal `z`.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal (`≥ 0`).
        sigma: f64,
    },
}

impl WeightDist {
    fn render(&self) -> String {
        match self {
            WeightDist::Unit => "unit".to_string(),
            WeightDist::Uniform { max } => format!("uniform({max})"),
            WeightDist::PowerLaw { alpha } => format!("powerlaw({alpha})"),
            WeightDist::LogNormal { mu, sigma } => format!("lognormal({mu},{sigma})"),
        }
    }

    fn parse(text: &str) -> Result<WeightDist, SpecError> {
        if text == "unit" {
            return Ok(WeightDist::Unit);
        }
        let (name, args) = split_call(text)?;
        match (name, args.as_slice()) {
            ("uniform", [max]) => Ok(WeightDist::Uniform { max: *max }),
            ("powerlaw", [alpha]) => Ok(WeightDist::PowerLaw { alpha: *alpha }),
            ("lognormal", [mu, sigma]) => Ok(WeightDist::LogNormal {
                mu: *mu,
                sigma: *sigma,
            }),
            _ => Err(spec_error(format!(
                "unknown weight distribution `{text}` (expected unit, uniform(MAX), \
                 powerlaw(ALPHA) or lognormal(MU,SIGMA))"
            ))),
        }
    }
}

/// Parse `name(arg[,arg...])` into the name and its float arguments.
fn split_call(text: &str) -> Result<(&str, Vec<f64>), SpecError> {
    let open = text
        .find('(')
        .ok_or_else(|| spec_error(format!("unknown weight distribution `{text}`")))?;
    let inner = text[open..]
        .strip_prefix('(')
        .and_then(|rest| rest.strip_suffix(')'))
        .ok_or_else(|| spec_error(format!("unbalanced parentheses in `{text}`")))?;
    let args = inner
        .split(',')
        .map(|arg| parse_float(text, arg))
        .collect::<Result<Vec<f64>, SpecError>>()?;
    Ok((&text[..open], args))
}

fn parse_float(context: &str, value: &str) -> Result<f64, SpecError> {
    let parsed = value
        .parse::<f64>()
        .map_err(|_| spec_error(format!("`{context}`: cannot parse `{value}` as a number")))?;
    if parsed.is_finite() {
        Ok(parsed)
    } else {
        Err(spec_error(format!(
            "`{context}`: `{value}` is not a finite number"
        )))
    }
}

fn parse_int<T: FromStr>(key: &str, value: &str) -> Result<T, SpecError> {
    value
        .parse::<T>()
        .map_err(|_| spec_error(format!("`{key}`: cannot parse `{value}` as an integer")))
}

/// A fully resolved scenario: family, size, weights, noise level and seed.
///
/// The canonical string form ([`ScenarioSpec::render`] / [`fmt::Display`])
/// round-trips exactly through [`ScenarioSpec::parse`] / [`FromStr`], so it
/// is usable as a cache key.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Topology family and its parameters.
    pub family: Family,
    /// Number of nodes (`n`).
    pub nodes: usize,
    /// Edge-weight distribution (`w`).
    pub weights: WeightDist,
    /// Multiplicative noise level in `[0, 1)` — the paper's noise model:
    /// each weight is scaled by a factor uniform in
    /// `[1 − noise, 1 + noise)`. `0` disables the layer.
    pub noise: f64,
    /// Seed of every random stream the scenario consumes.
    pub seed: u64,
}

/// Split a key-value list on commas, ignoring commas inside parentheses
/// (so `w=lognormal(0,1),noise=0.1` splits into two pairs).
fn split_pairs(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (index, ch) in text.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                parts.push(&text[start..index]);
                start = index + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

impl ScenarioSpec {
    /// Parse a spec string — see the [module docs](self) for the grammar.
    pub fn parse(text: &str) -> Result<ScenarioSpec, SpecError> {
        let (tag, rest) = match text.split_once(':') {
            Some((tag, rest)) => (tag, rest),
            None => (text, ""),
        };

        let mut nodes: Option<usize> = None;
        let mut weights: Option<WeightDist> = None;
        let mut noise: Option<f64> = None;
        let mut seed: Option<u64> = None;
        // Family parameters, collected untyped and resolved per family below.
        let mut m: Option<usize> = None;
        let mut e: Option<usize> = None;
        let mut r: Option<f64> = None;
        let mut b: Option<usize> = None;
        let mut pin: Option<f64> = None;
        let mut pout: Option<f64> = None;

        fn set<T>(key: &str, slot: &mut Option<T>, value: T) -> Result<(), SpecError> {
            if slot.is_some() {
                return Err(spec_error(format!("duplicate key `{key}`")));
            }
            *slot = Some(value);
            Ok(())
        }

        for pair in split_pairs(rest) {
            if pair.is_empty() {
                continue;
            }
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| spec_error(format!("expected `key=value`, got `{pair}`")))?;
            match key {
                "n" => set(key, &mut nodes, parse_int(key, value)?)?,
                "w" => set(key, &mut weights, WeightDist::parse(value)?)?,
                "noise" => set(key, &mut noise, parse_float(key, value)?)?,
                "seed" => set(key, &mut seed, parse_int(key, value)?)?,
                "m" => set(key, &mut m, parse_int(key, value)?)?,
                "e" => set(key, &mut e, parse_int(key, value)?)?,
                "r" => set(key, &mut r, parse_float(key, value)?)?,
                "b" => set(key, &mut b, parse_int(key, value)?)?,
                "pin" => set(key, &mut pin, parse_float(key, value)?)?,
                "pout" => set(key, &mut pout, parse_float(key, value)?)?,
                other => return Err(spec_error(format!("unknown key `{other}`"))),
            }
        }

        let nodes = nodes.ok_or_else(|| spec_error("`n` (node count) is required"))?;
        let reject_foreign = |tag: &str, foreign: &[(&str, bool)]| -> Result<(), SpecError> {
            for (key, present) in foreign {
                if *present {
                    return Err(spec_error(format!(
                        "key `{key}` does not apply to family `{tag}`"
                    )));
                }
            }
            Ok(())
        };
        let family = match tag {
            "ba" => {
                reject_foreign(
                    tag,
                    &[
                        ("e", e.is_some()),
                        ("r", r.is_some()),
                        ("b", b.is_some()),
                        ("pin", pin.is_some()),
                        ("pout", pout.is_some()),
                    ],
                )?;
                Family::BarabasiAlbert {
                    edges_per_node: m.unwrap_or(3),
                }
            }
            "er" => {
                reject_foreign(
                    tag,
                    &[
                        ("m", m.is_some()),
                        ("r", r.is_some()),
                        ("b", b.is_some()),
                        ("pin", pin.is_some()),
                        ("pout", pout.is_some()),
                    ],
                )?;
                Family::ErdosRenyi {
                    edges: e.unwrap_or(nodes.saturating_mul(3)),
                }
            }
            "geo" => {
                reject_foreign(
                    tag,
                    &[
                        ("m", m.is_some()),
                        ("e", e.is_some()),
                        ("b", b.is_some()),
                        ("pin", pin.is_some()),
                        ("pout", pout.is_some()),
                    ],
                )?;
                Family::Geometric {
                    radius: r.unwrap_or(0.05),
                }
            }
            "sb" => {
                reject_foreign(
                    tag,
                    &[("m", m.is_some()), ("e", e.is_some()), ("r", r.is_some())],
                )?;
                Family::StochasticBlock {
                    blocks: b.unwrap_or(8),
                    p_within: pin.unwrap_or(0.05),
                    p_between: pout.unwrap_or(0.002),
                }
            }
            other => {
                return Err(spec_error(format!(
                    "unknown family `{other}` (expected ba, er, geo or sb)"
                )))
            }
        };

        let spec = ScenarioSpec {
            family,
            nodes,
            weights: weights.unwrap_or(WeightDist::Unit),
            noise: noise.unwrap_or(0.0),
            seed: seed.unwrap_or(DEFAULT_SEED),
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Check every parameter is in range; [`ScenarioSpec::parse`] calls this,
    /// and [`ScenarioSpec::generate`](crate::ScenarioSpec::generate) re-checks
    /// specs constructed directly.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.nodes < 2 {
            return Err(spec_error(format!(
                "`n` must be at least 2, got {}",
                self.nodes
            )));
        }
        match self.family {
            Family::BarabasiAlbert { edges_per_node } => {
                if edges_per_node == 0 {
                    return Err(spec_error("`m` must be at least 1"));
                }
                if self.nodes <= edges_per_node {
                    return Err(spec_error(format!(
                        "`n` ({}) must exceed `m` ({edges_per_node})",
                        self.nodes
                    )));
                }
            }
            Family::ErdosRenyi { edges } => {
                if edges == 0 {
                    return Err(spec_error("`e` must be at least 1"));
                }
                // In u128: `n·(n − 1)` overflows u64 from n = 2^32 + 1 on.
                let max_pairs = self.nodes as u128 * (self.nodes as u128 - 1) / 2;
                if edges as u128 > max_pairs {
                    return Err(spec_error(format!(
                        "`e` ({edges}) exceeds the {max_pairs} distinct pairs of n={}",
                        self.nodes
                    )));
                }
            }
            Family::Geometric { radius } => {
                if !(radius > 0.0 && radius <= 1.5) {
                    return Err(spec_error(format!(
                        "`r` must lie in (0, 1.5], got {radius}"
                    )));
                }
            }
            Family::StochasticBlock {
                blocks,
                p_within,
                p_between,
            } => {
                if blocks == 0 || blocks > self.nodes {
                    return Err(spec_error(format!(
                        "`b` must lie in [1, n], got {blocks} for n={}",
                        self.nodes
                    )));
                }
                for (key, p) in [("pin", p_within), ("pout", p_between)] {
                    if !(0.0..=1.0).contains(&p) {
                        return Err(spec_error(format!("`{key}` must lie in [0, 1], got {p}")));
                    }
                }
            }
        }
        match self.weights {
            WeightDist::Unit => {}
            WeightDist::Uniform { max } => {
                if max <= 0.0 {
                    return Err(spec_error(format!(
                        "uniform max must be positive, got {max}"
                    )));
                }
            }
            WeightDist::PowerLaw { alpha } => {
                if alpha <= 1.0 {
                    return Err(spec_error(format!(
                        "powerlaw alpha must exceed 1, got {alpha}"
                    )));
                }
            }
            WeightDist::LogNormal { mu: _, sigma } => {
                if sigma < 0.0 {
                    return Err(spec_error(format!(
                        "lognormal sigma must be non-negative, got {sigma}"
                    )));
                }
            }
        }
        if !(0.0..1.0).contains(&self.noise) {
            return Err(spec_error(format!(
                "`noise` must lie in [0, 1), got {}",
                self.noise
            )));
        }
        Ok(())
    }

    /// The canonical string form: every key explicit, fixed order, shortest
    /// round-trip float formatting. Usable verbatim as a cache key.
    pub fn render(&self) -> String {
        let family = match self.family {
            Family::BarabasiAlbert { edges_per_node } => format!("m={edges_per_node}"),
            Family::ErdosRenyi { edges } => format!("e={edges}"),
            Family::Geometric { radius } => format!("r={radius}"),
            Family::StochasticBlock {
                blocks,
                p_within,
                p_between,
            } => format!("b={blocks},pin={p_within},pout={p_between}"),
        };
        format!(
            "{}:n={},{},w={},noise={},seed={}",
            self.family.tag(),
            self.nodes,
            family,
            self.weights.render(),
            self.noise,
            self.seed
        )
    }
}

impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl FromStr for ScenarioSpec {
    type Err = SpecError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScenarioSpec::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family_with_defaults() {
        let ba = ScenarioSpec::parse("ba:n=100").unwrap();
        assert_eq!(ba.family, Family::BarabasiAlbert { edges_per_node: 3 });
        assert_eq!(ba.nodes, 100);
        assert_eq!(ba.weights, WeightDist::Unit);
        assert_eq!(ba.noise, 0.0);
        assert_eq!(ba.seed, DEFAULT_SEED);

        let er = ScenarioSpec::parse("er:n=100").unwrap();
        assert_eq!(er.family, Family::ErdosRenyi { edges: 300 });

        let geo = ScenarioSpec::parse("geo:n=100").unwrap();
        assert_eq!(geo.family, Family::Geometric { radius: 0.05 });

        let sb = ScenarioSpec::parse("sb:n=100").unwrap();
        assert_eq!(
            sb.family,
            Family::StochasticBlock {
                blocks: 8,
                p_within: 0.05,
                p_between: 0.002
            }
        );
    }

    #[test]
    fn parses_explicit_keys_in_any_order() {
        let spec = ScenarioSpec::parse(
            "sb:seed=7,pout=0.001,n=500,w=lognormal(0,1),b=4,pin=0.1,noise=0.2",
        )
        .unwrap();
        assert_eq!(spec.nodes, 500);
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.noise, 0.2);
        assert_eq!(
            spec.family,
            Family::StochasticBlock {
                blocks: 4,
                p_within: 0.1,
                p_between: 0.001
            }
        );
        assert_eq!(
            spec.weights,
            WeightDist::LogNormal {
                mu: 0.0,
                sigma: 1.0
            }
        );
    }

    #[test]
    fn render_is_canonical_and_round_trips() {
        for text in [
            "ba:n=2000,m=3,w=unit,noise=0,seed=4242",
            "er:n=2000,e=6000,w=uniform(10),noise=0,seed=99",
            "geo:n=1000,r=0.04,w=powerlaw(2.5),noise=0.1,seed=1",
            "sb:n=500,b=4,pin=0.1,pout=0.001,w=lognormal(0,1),noise=0.25,seed=7",
        ] {
            let spec = ScenarioSpec::parse(text).unwrap();
            assert_eq!(spec.render(), text);
            assert_eq!(ScenarioSpec::parse(&spec.render()).unwrap(), spec);
            assert_eq!(text.parse::<ScenarioSpec>().unwrap().to_string(), text);
        }
    }

    #[test]
    fn rejects_malformed_specs() {
        for (text, needle) in [
            ("zz:n=10", "unknown family"),
            ("ba", "`n` (node count) is required"),
            ("ba:n=10,n=20", "duplicate key"),
            ("ba:n=10,wat=1", "unknown key"),
            ("ba:n=10,m", "key=value"),
            ("ba:n=x", "integer"),
            ("ba:n=10,w=gauss(1)", "unknown weight distribution"),
            ("ba:n=10,w=uniform(1", "unbalanced parentheses"),
            ("ba:n=10,w=uniform(a)", "as a number"),
            ("ba:n=10,w=uniform(inf)", "finite"),
            ("er:n=10,m=3", "does not apply"),
            ("ba:n=10,pin=0.5", "does not apply"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        for (text, needle) in [
            ("ba:n=1", "at least 2"),
            ("ba:n=3,m=0", "at least 1"),
            ("ba:n=3,m=3", "must exceed"),
            ("er:n=10,e=0", "at least 1"),
            ("er:n=10,e=46", "distinct pairs"),
            ("geo:n=10,r=0", "(0, 1.5]"),
            ("geo:n=10,r=2", "(0, 1.5]"),
            ("sb:n=10,b=0", "[1, n]"),
            ("sb:n=10,b=11", "[1, n]"),
            ("sb:n=10,pin=1.5", "[0, 1]"),
            ("sb:n=10,pout=-0.1", "[0, 1]"),
            ("ba:n=10,w=uniform(0)", "positive"),
            ("ba:n=10,w=powerlaw(1)", "exceed 1"),
            ("ba:n=10,w=lognormal(0,-1)", "non-negative"),
            ("ba:n=10,noise=1", "[0, 1)"),
            ("ba:n=10,noise=-0.1", "[0, 1)"),
        ] {
            let err = ScenarioSpec::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text}: {err}");
        }
    }

    #[test]
    fn er_at_the_pair_limit_is_accepted() {
        // e == n(n-1)/2 exactly is a complete graph: valid.
        assert!(ScenarioSpec::parse("er:n=10,e=45").is_ok());
    }
}
