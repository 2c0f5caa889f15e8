//! Beta–Binomial conjugate Bayesian machinery.
//!
//! This module implements exactly the chain of Eqs. 3–8 of *Network Backboning
//! with Noisy Data*: given prior moments for the edge-formation probability
//! `P_ij` (derived from a hypergeometric null model), build the conjugate Beta
//! prior, update it with the observed edge weight, and read off the posterior
//! mean and variance that feed into the Noise-Corrected variance estimate.
//!
//! # How the Noise-Corrected scorer calls it
//!
//! The scorer runs the chain once per edge, as
//! `edge_prior(..).and_then(|model| model.posterior(..))`. That chain is
//! `#[inline]` ([`BetaBinomialModel::edge_prior`],
//! [`BetaBinomialModel::from_prior_moments`], [`BetaBinomialModel::posterior`]
//! and the [`Beta`] constructors it goes through), because the scorer lives
//! in another crate and nothing here inlines across crates without it: out of
//! line, the per-edge calls were about a quarter of the NC pass. Every
//! refusal builds its message in one `#[cold]` function that takes the
//! refused values by value, so the straight-line path of the inlined chain
//! holds only the arithmetic of Eqs. 5–8 and their domain checks. A refused edge (the scorer then takes the plug-in estimate)
//! still formats and frees its message; on the generated graphs the bit pins
//! cover, no edge is refused.

use crate::distributions::{Beta, ContinuousDistribution};
use crate::error::{StatsError, StatsResult};

/// A Beta–Binomial model for one edge's interaction probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BetaBinomialModel {
    prior: Beta,
}

impl BetaBinomialModel {
    /// Build the model from prior mean and variance (Eqs. 5–8 of the paper).
    #[inline]
    pub fn from_prior_moments(mean: f64, variance: f64) -> StatsResult<Self> {
        Ok(BetaBinomialModel {
            prior: Beta::from_mean_and_variance(mean, variance)?,
        })
    }

    /// Build the model directly from Beta shape parameters.
    pub fn from_shape(alpha: f64, beta: f64) -> StatsResult<Self> {
        Ok(BetaBinomialModel {
            prior: Beta::new(alpha, beta)?,
        })
    }

    /// Build the paper's hypergeometric-motivated prior for an edge `(i, j)`
    /// given the node strengths and total weight:
    ///
    /// ```text
    /// E[P_ij] = N_i. N_.j / N_..²
    /// V[P_ij] = N_i. N_.j (N_.. − N_i.)(N_.. − N_.j) / (N_..⁴ (N_.. − 1))
    /// ```
    #[inline]
    pub fn edge_prior(out_strength: f64, in_strength: f64, total_weight: f64) -> StatsResult<Self> {
        if total_weight <= 1.0 {
            return Err(StatsError::invalid_parameter("total_weight", move || {
                format!("total network weight must exceed 1, got {total_weight}")
            }));
        }
        if out_strength <= 0.0 || in_strength <= 0.0 {
            return Err(StatsError::invalid_parameter(
                "out_strength/in_strength",
                move || {
                    format!("node strengths must be positive, got {out_strength} and {in_strength}")
                },
            ));
        }
        let mean = out_strength * in_strength / (total_weight * total_weight);
        let variance = out_strength
            * in_strength
            * (total_weight - out_strength)
            * (total_weight - in_strength)
            / (total_weight.powi(4) * (total_weight - 1.0));
        Self::from_prior_moments(mean, variance)
    }

    /// The prior distribution.
    pub fn prior(&self) -> Beta {
        self.prior
    }

    /// The posterior distribution after observing `successes` successes in
    /// `trials` Bernoulli trials (edge weight `N_ij` out of `N_..` interactions).
    #[inline]
    pub fn posterior(&self, successes: f64, trials: f64) -> StatsResult<Beta> {
        self.prior.posterior(successes, trials)
    }

    /// Posterior mean of `P_ij` after the observation.
    pub fn posterior_mean(&self, successes: f64, trials: f64) -> StatsResult<f64> {
        Ok(self.posterior(successes, trials)?.mean())
    }

    /// Posterior variance of `P_ij` after the observation.
    pub fn posterior_variance(&self, successes: f64, trials: f64) -> StatsResult<f64> {
        Ok(self.posterior(successes, trials)?.variance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(actual: f64, expected: f64, tolerance: f64) {
        assert!(
            (actual - expected).abs() <= tolerance,
            "expected {expected}, got {actual}"
        );
    }

    #[test]
    fn prior_moments_round_trip() {
        let model = BetaBinomialModel::from_prior_moments(0.1, 0.005).unwrap();
        assert_close(model.prior().mean(), 0.1, 1e-10);
        assert_close(model.prior().variance(), 0.005, 1e-10);
    }

    #[test]
    fn edge_prior_matches_paper_formulas() {
        let (ni, nj, nt) = (120.0, 75.0, 1000.0);
        let model = BetaBinomialModel::edge_prior(ni, nj, nt).unwrap();
        let expected_mean = ni * nj / (nt * nt);
        let expected_var = ni * nj * (nt - ni) * (nt - nj) / (nt.powi(4) * (nt - 1.0));
        assert_close(model.prior().mean(), expected_mean, 1e-10);
        assert_close(model.prior().variance(), expected_var, 1e-12);
    }

    #[test]
    fn edge_prior_rejects_degenerate_inputs() {
        assert!(BetaBinomialModel::edge_prior(0.0, 10.0, 100.0).is_err());
        assert!(BetaBinomialModel::edge_prior(10.0, 10.0, 1.0).is_err());
    }

    #[test]
    fn posterior_shifts_towards_observation() {
        let model = BetaBinomialModel::edge_prior(50.0, 50.0, 1000.0).unwrap();
        let prior_mean = model.prior().mean(); // 0.0025
                                               // A much larger observed frequency pulls the posterior mean upward.
        let posterior_mean = model.posterior_mean(100.0, 1000.0).unwrap();
        assert!(posterior_mean > prior_mean);
        assert!(posterior_mean < 0.1 + 1e-9); // but not beyond the empirical frequency
    }

    #[test]
    fn zero_weight_edges_have_positive_posterior_mean_and_variance() {
        // The whole point of the Bayesian framework (paper, Section IV): when
        // N_ij = 0 the naive estimator degenerates to zero variance, but the
        // posterior stays strictly positive.
        let model = BetaBinomialModel::edge_prior(10.0, 10.0, 10_000.0).unwrap();
        let mean = model.posterior_mean(0.0, 10_000.0).unwrap();
        let variance = model.posterior_variance(0.0, 10_000.0).unwrap();
        assert!(mean > 0.0);
        assert!(variance > 0.0);
    }

    #[test]
    fn posterior_variance_shrinks_with_more_data() {
        let model = BetaBinomialModel::from_prior_moments(0.2, 0.01).unwrap();
        let small_sample = model.posterior_variance(2.0, 10.0).unwrap();
        let large_sample = model.posterior_variance(200.0, 1000.0).unwrap();
        assert!(large_sample < small_sample);
    }

    #[test]
    fn every_refusal_keeps_its_message() {
        let refuse = |result: StatsResult<()>| result.unwrap_err().to_string();
        let prior = Beta::new(2.0, 3.0).unwrap();
        for (actual, expected) in [
            (
                refuse(Beta::new(0.0, 1.0).map(drop)),
                "invalid parameter `alpha`: must be finite and positive, got 0",
            ),
            (
                refuse(Beta::new(1.0, f64::NAN).map(drop)),
                "invalid parameter `beta`: must be finite and positive, got NaN",
            ),
            (
                refuse(Beta::from_mean_and_variance(1.0, 0.01).map(drop)),
                "invalid parameter `mean`: must lie strictly inside (0, 1), got 1",
            ),
            (
                refuse(Beta::from_mean_and_variance(0.5, 0.3).map(drop)),
                "invalid parameter `variance`: must lie strictly inside (0, mean·(1−mean)) \
                 = (0, 0.25), got 0.3",
            ),
            (
                refuse(Beta::from_mean_and_variance(0.5, 1e-320).map(drop)),
                "invalid parameter `alpha`: must be finite and positive, got inf",
            ),
            (
                refuse(Beta::from_mean_and_variance(1e-10, 1e-310).map(drop)),
                "invalid parameter `beta`: must be finite and positive, got inf",
            ),
            (
                refuse(prior.posterior(5.0, 3.0).map(drop)),
                "invalid parameter `successes/trials`: need 0 ≤ successes ≤ trials, \
                 got successes=5, trials=3",
            ),
            (
                refuse(prior.posterior(-1.0, 3.0).map(drop)),
                "invalid parameter `successes/trials`: need 0 ≤ successes ≤ trials, \
                 got successes=-1, trials=3",
            ),
            (
                refuse(prior.posterior(0.0, f64::INFINITY).map(drop)),
                "invalid parameter `beta`: must be finite and positive, got inf",
            ),
            (
                refuse(BetaBinomialModel::edge_prior(10.0, 10.0, 1.0).map(drop)),
                "invalid parameter `total_weight`: total network weight must exceed 1, got 1",
            ),
            (
                refuse(BetaBinomialModel::edge_prior(0.0, 10.0, 100.0).map(drop)),
                "invalid parameter `out_strength/in_strength`: node strengths must be \
                 positive, got 0 and 10",
            ),
            (
                refuse(BetaBinomialModel::edge_prior(1000.0, 1001.0, 1001.0).map(drop)),
                "invalid parameter `variance`: must lie strictly inside (0, mean·(1−mean)) \
                 = (0, 0.0009980029960049602), got 0",
            ),
            (
                refuse(BetaBinomialModel::from_prior_moments(0.0, 0.01).map(drop)),
                "invalid parameter `mean`: must lie strictly inside (0, 1), got 0",
            ),
            (
                refuse(BetaBinomialModel::from_shape(1.0, -2.0).map(drop)),
                "invalid parameter `beta`: must be finite and positive, got -2",
            ),
            (
                refuse(
                    BetaBinomialModel::from_shape(1.0, 2.0)
                        .unwrap()
                        .posterior(4.0, 2.0)
                        .map(drop),
                ),
                "invalid parameter `successes/trials`: need 0 ≤ successes ≤ trials, \
                 got successes=4, trials=2",
            ),
        ] {
            assert_eq!(actual, expected);
        }
    }

    #[test]
    fn from_shape_exposes_parameters() {
        let model = BetaBinomialModel::from_shape(2.0, 8.0).unwrap();
        assert_close(model.prior().mean(), 0.2, 1e-12);
        let posterior = model.posterior(3.0, 10.0).unwrap();
        assert_close(posterior.alpha(), 5.0, 1e-12);
        assert_close(posterior.beta(), 15.0, 1e-12);
    }
}
