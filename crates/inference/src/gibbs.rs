//! What every Gibbs run shares (§2.2): the schedule configuration, the
//! marginal estimates it produces, and the logistic conditional.
//!
//! ProbKB performs *marginal* inference so results can be stored back in
//! the knowledge base. The sampler itself — one kernel for full runs and
//! for blanket-scoped passes — lives in [`crate::partitioned`].

/// Sampler configuration, read by the partitioned sampler for full runs
/// and blanket-scoped passes alike.
#[derive(Debug, Clone, Copy)]
pub struct GibbsConfig {
    /// Sweeps discarded before estimation starts.
    pub burn_in: usize,
    /// Sweeps used for estimation (per chain, when `target_rhat` is
    /// `None`; ignored under convergence control, where `max_sweeps`
    /// caps the run instead).
    pub samples: usize,
    /// RNG seed (runs are deterministic given the seed and chain count,
    /// independent of the worker count).
    pub seed: u64,
    /// Independent chains run by the partitioned sampler. Marginals
    /// average over all chains; split-R̂ needs at least 2.
    pub chains: usize,
    /// Fork-join worker cap for the partitioned sampler. `None` reads
    /// `PROBKB_GIBBS_WORKERS` once per process (unset/zero → 1). The
    /// worker count never changes results, only wall-clock time.
    pub workers: Option<usize>,
    /// Online convergence control: when `Some(target)`, sampling stops as
    /// soon as the worst per-variable split-R̂ across chains drops to
    /// `target` or below (checked every `check_interval` sweeps), instead
    /// of running a fixed `samples` schedule.
    pub target_rhat: Option<f64>,
    /// Hard cap on sampling sweeps per chain under convergence control.
    pub max_sweeps: usize,
    /// Sweeps per convergence-check block (also the batch size for the
    /// incremental R̂/ESS accumulators).
    pub check_interval: usize,
}

impl Default for GibbsConfig {
    fn default() -> Self {
        GibbsConfig {
            burn_in: 200,
            samples: 2000,
            seed: 0x9e3779b9,
            chains: 2,
            workers: None,
            target_rhat: None,
            max_sweeps: 20_000,
            check_interval: 100,
        }
    }
}

impl GibbsConfig {
    /// The worker budget this config resolves to: the explicit override,
    /// or the process-wide [`default_gibbs_workers`].
    pub fn resolved_workers(&self) -> usize {
        self.workers.unwrap_or_else(default_gibbs_workers).max(1)
    }
}

/// The process-wide default inference worker budget, read **once** from
/// `PROBKB_GIBBS_WORKERS` and cached (the same contract as the grounding
/// layer's `PROBKB_THREADS`). Unset, unparsable, or zero all mean 1 —
/// parallel inference is opt-in. Tests comparing worker counts should set
/// [`GibbsConfig::workers`] explicitly instead of re-reading the
/// environment.
pub fn default_gibbs_workers() -> usize {
    static WORKERS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *WORKERS.get_or_init(|| probkb_support::sync::env_workers("PROBKB_GIBBS_WORKERS").unwrap_or(1))
}

/// Estimated marginals: `p[v]` ≈ `P(X_v = 1)`.
#[derive(Debug, Clone)]
pub struct Marginals {
    /// Per-variable probability estimates.
    pub p: Vec<f64>,
    /// Number of samples averaged.
    pub samples: usize,
}

impl Marginals {
    /// Largest absolute difference to another estimate (convergence
    /// diagnostics between chains).
    pub fn max_diff(&self, other: &Marginals) -> f64 {
        self.p
            .iter()
            .zip(other.p.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }
}

/// Numerically stable logistic function.
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(30.0) > 0.999999);
        assert!(sigmoid(-30.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn max_diff_measures_chain_disagreement() {
        let a = Marginals {
            p: vec![0.1, 0.9],
            samples: 10,
        };
        let b = Marginals {
            p: vec![0.2, 0.85],
            samples: 10,
        };
        assert!((a.max_diff(&b) - 0.1).abs() < 1e-12);
    }
}
