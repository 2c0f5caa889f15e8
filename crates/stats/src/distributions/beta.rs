//! Beta distribution.

use super::ContinuousDistribution;
use crate::error::{StatsError, StatsResult};
use crate::special::{ln_beta, regularized_incomplete_beta};

/// A Beta distribution `BETA[α, β]` on the unit interval.
///
/// The Beta distribution is the conjugate prior of the Binomial distribution
/// and therefore the prior/posterior family used by the Noise-Corrected
/// backbone for the edge-formation probability `P_ij` (Eq. 4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Beta {
    alpha: f64,
    beta: f64,
}

impl Beta {
    /// Create a Beta distribution with shape parameters `alpha, beta > 0`.
    #[inline]
    pub fn new(alpha: f64, beta: f64) -> StatsResult<Self> {
        if !(alpha.is_finite() && alpha > 0.0) {
            return Err(StatsError::invalid_parameter("alpha", move || {
                format!("must be finite and positive, got {alpha}")
            }));
        }
        if !(beta.is_finite() && beta > 0.0) {
            return Err(StatsError::invalid_parameter("beta", move || {
                format!("must be finite and positive, got {beta}")
            }));
        }
        Ok(Self { alpha, beta })
    }

    /// Construct a Beta distribution from a desired mean `μ ∈ (0, 1)` and
    /// variance `σ² < μ(1 − μ)` by the method of moments (Eqs. 7–8 of the paper):
    ///
    /// ```text
    /// α = μ²/σ² (1 − μ) − μ
    /// β = μ ((1 − μ)²/σ² + 1) − 1
    /// ```
    #[inline]
    pub fn from_mean_and_variance(mean: f64, variance: f64) -> StatsResult<Self> {
        if !(mean > 0.0 && mean < 1.0) {
            return Err(StatsError::invalid_parameter("mean", move || {
                format!("must lie strictly inside (0, 1), got {mean}")
            }));
        }
        if !(variance > 0.0 && variance < mean * (1.0 - mean)) {
            return Err(StatsError::invalid_parameter("variance", move || {
                format!(
                    "must lie strictly inside (0, mean·(1−mean)) = (0, {}), got {variance}",
                    mean * (1.0 - mean)
                )
            }));
        }
        let alpha = mean * mean / variance * (1.0 - mean) - mean;
        let beta = mean * ((1.0 - mean) * (1.0 - mean) / variance + 1.0) - 1.0;
        Self::new(alpha, beta)
    }

    /// First shape parameter `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Second shape parameter `β`.
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Posterior distribution after observing `successes` successes out of
    /// `trials` Bernoulli trials (the Beta–Binomial conjugate update of Eq. 4):
    /// `BETA[α + successes, β + trials − successes]`.
    #[inline]
    pub fn posterior(&self, successes: f64, trials: f64) -> StatsResult<Self> {
        if successes < 0.0 || trials < successes {
            return Err(StatsError::invalid_parameter(
                "successes/trials",
                move || {
                    format!(
                        "need 0 ≤ successes ≤ trials, got successes={successes}, trials={trials}"
                    )
                },
            ));
        }
        Self::new(self.alpha + successes, self.beta + trials - successes)
    }
}

impl ContinuousDistribution for Beta {
    fn pdf(&self, x: f64) -> f64 {
        if !(0.0..=1.0).contains(&x) {
            return 0.0;
        }
        if x == 0.0 || x == 1.0 {
            // Handle boundary carefully: density may diverge, is zero, or finite.
            return match (self.alpha, self.beta, x) {
                (a, _, 0.0) if a < 1.0 => f64::INFINITY,
                (a, _, 0.0) if a > 1.0 => 0.0,
                (_, b, 1.0) if b < 1.0 => f64::INFINITY,
                (_, b, 1.0) if b > 1.0 => 0.0,
                _ => (-ln_beta(self.alpha, self.beta)).exp(),
            };
        }
        ((self.alpha - 1.0) * x.ln() + (self.beta - 1.0) * (1.0 - x).ln()
            - ln_beta(self.alpha, self.beta))
        .exp()
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else if x >= 1.0 {
            1.0
        } else {
            regularized_incomplete_beta(self.alpha, self.beta, x)
                .expect("parameters validated at construction")
        }
    }

    #[inline]
    fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    fn variance(&self) -> f64 {
        let s = self.alpha + self.beta;
        self.alpha * self.beta / (s * s * (s + 1.0))
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
    fn constructor_validates_parameters() {
        assert!(Beta::new(1.0, 1.0).is_ok());
        assert!(Beta::new(0.0, 1.0).is_err());
        assert!(Beta::new(1.0, -2.0).is_err());
        assert!(Beta::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn uniform_special_case() {
        let b = Beta::new(1.0, 1.0).unwrap();
        assert_close(b.mean(), 0.5, 1e-12);
        assert_close(b.variance(), 1.0 / 12.0, 1e-12);
        assert_close(b.pdf(0.3), 1.0, 1e-12);
        assert_close(b.cdf(0.3), 0.3, 1e-12);
    }

    #[test]
    fn moments_match_formulas() {
        let b = Beta::new(2.0, 5.0).unwrap();
        assert_close(b.mean(), 2.0 / 7.0, 1e-12);
        assert_close(b.variance(), 10.0 / (49.0 * 8.0), 1e-12);
    }

    #[test]
    fn from_mean_and_variance_round_trips_moments() {
        let b = Beta::from_mean_and_variance(0.2, 0.01).unwrap();
        assert_close(b.mean(), 0.2, 1e-10);
        assert_close(b.variance(), 0.01, 1e-10);
    }

    #[test]
    fn from_mean_and_variance_matches_paper_formulas() {
        // Hand-computed from Eqs. 7–8 with μ = 0.3, σ² = 0.02.
        let mu = 0.3;
        let sigma2 = 0.02;
        let b = Beta::from_mean_and_variance(mu, sigma2).unwrap();
        let expected_alpha = mu * mu / sigma2 * (1.0 - mu) - mu;
        let expected_beta = mu * ((1.0 - mu) * (1.0 - mu) / sigma2 + 1.0) - 1.0;
        assert_close(b.alpha(), expected_alpha, 1e-12);
        assert_close(b.beta(), expected_beta, 1e-12);
    }

    #[test]
    fn from_mean_and_variance_rejects_impossible_moments() {
        assert!(Beta::from_mean_and_variance(0.5, 0.3).is_err()); // var ≥ μ(1−μ)
        assert!(Beta::from_mean_and_variance(0.0, 0.01).is_err());
        assert!(Beta::from_mean_and_variance(1.0, 0.01).is_err());
        assert!(Beta::from_mean_and_variance(0.5, 0.0).is_err());
    }

    #[test]
    fn posterior_update_is_conjugate() {
        let prior = Beta::new(2.0, 3.0).unwrap();
        let post = prior.posterior(4.0, 10.0).unwrap();
        assert_close(post.alpha(), 6.0, 1e-12);
        assert_close(post.beta(), 9.0, 1e-12);
        assert!(prior.posterior(5.0, 3.0).is_err());
        assert!(prior.posterior(-1.0, 3.0).is_err());
    }

    #[test]
    fn cdf_is_monotone() {
        let b = Beta::new(2.5, 4.5).unwrap();
        let mut previous = -1.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let c = b.cdf(x);
            assert!(c >= previous);
            previous = c;
        }
        assert_close(b.cdf(0.0), 0.0, 1e-15);
        assert_close(b.cdf(1.0), 1.0, 1e-15);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simple trapezoid integration sanity check.
        let b = Beta::new(3.0, 2.0).unwrap();
        let n = 10_000;
        let mut sum = 0.0;
        for i in 0..n {
            let x0 = i as f64 / n as f64;
            let x1 = (i + 1) as f64 / n as f64;
            sum += 0.5 * (b.pdf(x0) + b.pdf(x1)) * (x1 - x0);
        }
        assert_close(sum, 1.0, 1e-6);
    }

    #[test]
    fn pdf_boundary_behaviour() {
        assert_eq!(Beta::new(0.5, 2.0).unwrap().pdf(0.0), f64::INFINITY);
        assert_eq!(Beta::new(2.0, 0.5).unwrap().pdf(1.0), f64::INFINITY);
        assert_eq!(Beta::new(2.0, 2.0).unwrap().pdf(0.0), 0.0);
        assert_eq!(Beta::new(2.0, 2.0).unwrap().pdf(-0.1), 0.0);
        assert_eq!(Beta::new(2.0, 2.0).unwrap().pdf(1.1), 0.0);
    }
}
