//! Markov-blanket-scoped re-sampling for incremental expansion.
//!
//! When a delta is applied to a live KB, only the variables the new
//! factors touch — and their Markov blanket — have changed conditionals;
//! everything else's marginal estimate is still valid. A blanket pass is
//! the partitioned sampler's one Gibbs loop
//! ([`crate::partitioned::PartitionedGibbs`]) run with a touched-variable
//! mask from warm chain states, so it keeps that sampler's determinism
//! contract: one RNG stream per `(seed, chain, sweep, shard)`, untouched
//! variables draw nothing, and results are a pure function of `(graph,
//! coloring, touched, warm states, config)` at **any** worker count.
//!
//! With `touched` = all variables and cold (all-false) chains, a pass
//! *is* the full run `partitioned_marginals` performs — the incremental
//! path degrades gracefully to the restart it replaces.

use std::time::{Duration, Instant};

use probkb_factorgraph::prelude::{color, Coloring, FactorGraph, VarId};

use crate::gibbs::{GibbsConfig, Marginals};
use crate::partitioned::PartitionedGibbs;

/// The seed variables of a delta plus their Markov blanket: every
/// variable whose conditional distribution an update to `seeds` can have
/// changed. Sorted and deduplicated.
pub fn blanket_of(graph: &FactorGraph, seeds: &[VarId]) -> Vec<VarId> {
    let mut out: Vec<VarId> = seeds.to_vec();
    for &v in seeds {
        out.extend(graph.neighbors(v));
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// What a blanket-scoped re-sampling run did.
#[derive(Debug, Clone)]
pub struct BlanketReport {
    /// Variables actually resampled (the touched set).
    pub touched: usize,
    /// Total variables in the graph.
    pub vars: usize,
    /// Color classes in the schedule.
    pub colors: usize,
    /// Shards containing at least one touched variable (the only shards
    /// that do any work or consume randomness).
    pub active_shards: usize,
    /// Total shards in the schedule.
    pub shards: usize,
    /// Chains advanced.
    pub chains: usize,
    /// Fork-join workers used (never affects results).
    pub workers: usize,
    /// Burn-in sweeps per chain.
    pub burn_in: usize,
    /// Sampling sweeps per chain.
    pub sweeps: usize,
    /// Wall-clock time.
    pub elapsed: Duration,
}

impl BlanketReport {
    /// One-line `EXPLAIN ANALYZE`-style annotation.
    pub fn annotate(&self) -> String {
        probkb_core::explain::annotate(
            "BlanketGibbs",
            &[
                ("touched", format!("{}/{}", self.touched, self.vars)),
                ("chains", self.chains.to_string()),
                ("workers", self.workers.to_string()),
                ("colors", self.colors.to_string()),
                (
                    "shards",
                    format!("{}/{}", self.active_shards, self.shards),
                ),
                ("sweeps", format!("{}+{}", self.burn_in, self.sweeps)),
                (
                    "time",
                    probkb_relational::explain::fmt_duration(self.elapsed),
                ),
            ],
        )
    }
}

/// Marginals, final chain states (for the next warm start), and report.
#[derive(Debug, Clone)]
pub struct BlanketRun {
    /// Updated marginals: fresh estimates for touched variables, the
    /// prior estimate carried through for everything else.
    pub marginals: Marginals,
    /// Final per-chain states, one `Vec<bool>` per chain — feed these
    /// back as `warm` on the next delta.
    pub states: Vec<Vec<bool>>,
    /// Execution report.
    pub report: BlanketReport,
}

/// Resample `touched` with warm-started chains, coloring the graph from
/// scratch. See [`blanket_resample_with`] for the full contract.
pub fn blanket_resample(
    graph: &FactorGraph,
    touched: &[VarId],
    warm: &[Vec<bool>],
    prior: &[f64],
    config: &GibbsConfig,
) -> BlanketRun {
    blanket_resample_with(graph, &color(graph), touched, warm, prior, config)
}

/// Resample exactly the `touched` variables of `graph` under `coloring`
/// (any proper coloring works; incremental callers pass the one they
/// maintain with `extend_color`).
///
/// * Chains warm-start from `warm` (per-chain states, padded with `false`
///   for variables beyond each state's length; missing chains start cold).
/// * `prior[v]` supplies the marginal reported for untouched variables
///   (missing entries default to 0.0 — new variables are always in the
///   touched set, so this only pads degenerate inputs).
/// * The schedule is the one [`GibbsConfig`] describes, as for a full run:
///   `burn_in` + `samples` sweeps, or under `target_rhat` blocks until the
///   touched variables' split-R̂ reaches it (capped by `max_sweeps`).
pub fn blanket_resample_with(
    graph: &FactorGraph,
    coloring: &Coloring,
    touched: &[VarId],
    warm: &[Vec<bool>],
    prior: &[f64],
    config: &GibbsConfig,
) -> BlanketRun {
    let start = Instant::now();
    let sampler = PartitionedGibbs::with_coloring(graph, coloring, config);
    let run = sampler.sample(touched, warm);
    let mut p = prior.to_vec();
    p.resize(graph.num_vars(), 0.0);
    for (&v, &estimate) in run.touched.iter().zip(&run.p) {
        p[v] = estimate;
    }
    BlanketRun {
        marginals: Marginals {
            p,
            samples: run.report.sweeps,
        },
        states: run.states,
        report: BlanketReport {
            touched: run.report.vars,
            vars: graph.num_vars(),
            colors: run.report.colors,
            active_shards: run.report.shards,
            shards: sampler.num_shards(),
            chains: run.report.chains,
            workers: run.report.workers,
            burn_in: run.report.burn_in,
            sweeps: run.report.sweeps,
            elapsed: start.elapsed(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use crate::partitioned::partitioned_marginals;
    use probkb_factorgraph::prelude::Factor;

    fn chain_graph(n: usize) -> FactorGraph {
        let mut factors = vec![Factor::singleton(0, 1.5)];
        for v in 1..n {
            factors.push(Factor::rule(v, vec![v - 1], 1.0));
        }
        FactorGraph::new(n, factors)
    }

    fn config(samples: usize) -> GibbsConfig {
        GibbsConfig {
            burn_in: 100,
            samples,
            chains: 2,
            workers: Some(1),
            target_rhat: None,
            ..GibbsConfig::default()
        }
    }

    #[test]
    fn all_touched_cold_start_matches_partitioned_fixed_schedule() {
        let g = chain_graph(9);
        let cfg = config(400);
        let full = partitioned_marginals(&g, &cfg);
        let all: Vec<VarId> = (0..g.num_vars()).collect();
        let scoped = blanket_resample(&g, &all, &[], &[], &cfg);
        // Same draws in the same order: byte-identical marginals.
        assert_eq!(scoped.marginals.p, full.marginals.p);
    }

    #[test]
    fn untouched_vars_keep_prior_and_state() {
        let g = chain_graph(6);
        let cfg = config(50);
        let prior = vec![0.11, 0.22, 0.33, 0.44, 0.55, 0.66];
        let warm = vec![vec![true; 6], vec![false; 6]];
        let run = blanket_resample(&g, &[4, 5], &warm, &prior, &cfg);
        for v in 0..4 {
            assert_eq!(run.marginals.p[v], prior[v], "var {v}");
            // Untouched variables never flip.
            assert!(run.states[0][v]);
            assert!(!run.states[1][v]);
        }
    }

    #[test]
    fn empty_touched_set_is_a_no_op() {
        let g = chain_graph(4);
        let prior = vec![0.1, 0.2, 0.3, 0.4];
        let warm = vec![vec![true, false, true, false]];
        let run = blanket_resample(&g, &[], &warm, &prior, &config(100));
        assert_eq!(run.marginals.p, prior);
        assert_eq!(run.report.sweeps, 0);
        assert_eq!(run.states[0], warm[0]);
    }

    #[test]
    fn worker_count_never_changes_results() {
        let g = chain_graph(40);
        let touched: Vec<VarId> = (20..40).collect();
        let warm = vec![vec![false; 40]; 2];
        let prior = vec![0.5; 40];
        let mut baseline: Option<Vec<f64>> = None;
        for workers in [1usize, 2, 4] {
            let cfg = GibbsConfig {
                workers: Some(workers),
                ..config(200)
            };
            let run = blanket_resample(&g, &touched, &warm, &prior, &cfg);
            match &baseline {
                None => baseline = Some(run.marginals.p),
                Some(b) => assert_eq!(&run.marginals.p, b, "workers={workers}"),
            }
        }
    }

    #[test]
    fn masked_pass_honours_convergence_control() {
        // The scoped pass runs the config's schedule like a full run:
        // under `target_rhat` it stops on the touched variables' R̂ — at
        // the same sweep for any worker count — and never looks at the
        // untouched ones (frozen at different values per chain here, which
        // would read as R̂ = ∞).
        let g = chain_graph(12);
        let warm = vec![vec![true; 12], vec![false; 12]];
        let run = |workers: usize| {
            let cfg = GibbsConfig {
                workers: Some(workers),
                target_rhat: Some(1.05),
                max_sweeps: 20_000,
                ..config(0)
            };
            blanket_resample(&g, &[8, 9, 10, 11], &warm, &[0.5; 12], &cfg)
        };
        let a = run(1);
        assert!(
            a.report.sweeps > 0 && a.report.sweeps < 20_000,
            "{}",
            a.report.annotate()
        );
        assert_eq!(a.marginals.samples, a.report.sweeps);
        let b = run(4);
        assert_eq!(a.report.sweeps, b.report.sweeps);
        assert_eq!(a.marginals.p, b.marginals.p);
    }

    #[test]
    fn blanket_estimates_agree_with_exact_on_touched_vars() {
        // Small graph where the oracle is cheap: resample the right half
        // only, with the left half frozen at its prior.
        let g = chain_graph(5);
        let exact = exact_marginals(&g);
        let cfg = GibbsConfig {
            burn_in: 300,
            samples: 6000,
            chains: 2,
            workers: Some(1),
            target_rhat: None,
            ..GibbsConfig::default()
        };
        let all: Vec<VarId> = (0..5).collect();
        let run = blanket_resample(&g, &all, &[], &[], &cfg);
        for v in 0..5 {
            assert!(
                (run.marginals.p[v] - exact[v]).abs() < 0.05,
                "var {v}: {} vs {}",
                run.marginals.p[v],
                exact[v]
            );
        }
    }

    #[test]
    fn report_annotation_shape() {
        let g = chain_graph(3);
        let run = blanket_resample(&g, &[2], &[], &[0.5; 3], &config(10));
        let line = run.report.annotate();
        assert!(line.starts_with("BlanketGibbs"), "{line}");
        assert!(line.contains("touched=1/3"), "{line}");
        assert!(line.contains("sweeps=100+10"), "{line}");
    }
}
