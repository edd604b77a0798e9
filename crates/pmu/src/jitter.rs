//! PMU measurement error model.
//!
//! Real hardware counters are not exact: Weaver et al. (cited by the paper
//! as the reason Vapro tolerates small workload differences inside one
//! cluster) measured both non-determinism and systematic overcount. We
//! model this as independent multiplicative Gaussian noise on hardware
//! events. The default relative σ of 0.3 % is far below Vapro's 5 %
//! clustering threshold — exactly the regime the paper designs for.

use crate::counters::{CounterDelta, CounterId};
use rand::Rng;

/// Multiplicative jitter applied to hardware counter readings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JitterModel {
    /// Relative standard deviation of the multiplicative error.
    pub relative_sigma: f64,
}

impl Default for JitterModel {
    fn default() -> Self {
        JitterModel { relative_sigma: 0.003 }
    }
}

impl JitterModel {
    /// No measurement error at all — useful for tests asserting exact
    /// model identities.
    pub fn exact() -> Self {
        JitterModel { relative_sigma: 0.0 }
    }

    /// A model with the given relative σ.
    pub fn with_sigma(relative_sigma: f64) -> Self {
        assert!(relative_sigma >= 0.0 && relative_sigma.is_finite());
        JitterModel { relative_sigma }
    }

    /// Apply jitter in place to the jitter-eligible counters of `delta`.
    pub fn apply<R: Rng + ?Sized>(&self, delta: &mut CounterDelta, rng: &mut R) {
        if self.relative_sigma == 0.0 {
            return;
        }
        for id in CounterId::ALL {
            if !id.is_jittered() {
                continue;
            }
            if let Some(v) = delta.get(id) {
                if v != 0.0 {
                    let eps = gaussian(rng) * self.relative_sigma;
                    // Clamp so a counter can never go negative.
                    delta.put(id, v * (1.0 + eps.clamp(-0.5, 0.5)));
                }
            }
        }
    }
}

/// Standard normal via Box–Muller (sufficient quality for an error model,
/// no extra dependency needed).
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        let u2: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn exact_model_is_identity() {
        let mut d = CounterDelta::default();
        d.put(CounterId::TotIns, 12345.0);
        let before = d.clone();
        JitterModel::exact().apply(&mut d, &mut ChaCha8Rng::seed_from_u64(1));
        assert_eq!(d, before);
    }

    #[test]
    fn jitter_leaves_software_counters_and_tsc_exact() {
        let mut d = CounterDelta::default();
        d.put(CounterId::Tsc, 1e6);
        d.put(CounterId::PageFaultsSoft, 7.0);
        d.put(CounterId::SuspensionNs, 500.0);
        d.put(CounterId::TotIns, 1e6);
        JitterModel::default().apply(&mut d, &mut ChaCha8Rng::seed_from_u64(2));
        assert_eq!(d.get(CounterId::Tsc), Some(1e6));
        assert_eq!(d.get(CounterId::PageFaultsSoft), Some(7.0));
        assert_eq!(d.get(CounterId::SuspensionNs), Some(500.0));
        assert_ne!(d.get(CounterId::TotIns), Some(1e6));
    }

    #[test]
    fn jitter_is_small_and_unbiased() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let jm = JitterModel::default();
        let n = 10_000;
        let mut sum = 0.0;
        let mut max_rel = 0.0f64;
        for _ in 0..n {
            let mut d = CounterDelta::default();
            d.put(CounterId::TotIns, 1e6);
            jm.apply(&mut d, &mut rng);
            let v = d.get_or_zero(CounterId::TotIns);
            sum += v;
            max_rel = max_rel.max(((v - 1e6) / 1e6).abs());
        }
        let mean = sum / n as f64;
        assert!(((mean - 1e6) / 1e6).abs() < 1e-3, "biased mean {mean}");
        // Well below the 5 % clustering threshold.
        assert!(max_rel < 0.02, "max relative error {max_rel}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let n = 50_000;
        let (mut s, mut s2) = (0.0, 0.0);
        for _ in 0..n {
            let g = gaussian(&mut rng);
            s += g;
            s2 += g * g;
        }
        let mean = s / n as f64;
        let var = s2 / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn zero_values_stay_zero() {
        let mut d = CounterDelta::default();
        d.put(CounterId::BranchMisses, 0.0);
        JitterModel::default().apply(&mut d, &mut ChaCha8Rng::seed_from_u64(5));
        assert_eq!(d.get(CounterId::BranchMisses), Some(0.0));
    }
}
