//! The one Gibbs kernel: partition-sharded parallel Gibbs with online
//! convergence control (Wick et al.'s factor-graph/MCMC shape: shard the
//! graph across workers by independent sets, stop when the marginals
//! stabilize rather than after a fixed sample count, and run the same
//! kernel for cold queries and for updates — only the set of resampled
//! variables and the starting state differ).
//!
//! Variables are partitioned into color classes such that no two
//! same-color variables share a factor (Gonzalez et al. \[14\], the
//! chromatic schedule the paper runs on GraphLab): a whole class is
//! conditionally independent given the rest, so it is resampled
//! concurrently from a frozen snapshot while classes are swept in
//! sequence. On top of that schedule:
//!
//! * **Multiple independent chains.** `GibbsConfig::chains` chains run on
//!   the `probkb-support` fork-join pool (`PROBKB_GIBBS_WORKERS` /
//!   `GibbsConfig::workers`), each from its own seed stream. Marginals
//!   average over all chains; the cross-chain disagreement feeds split-R̂.
//! * **Fixed sharding as the unit of randomness.** Every color class is
//!   cut into shards of [`SHARD_SIZE`] variables; one RNG stream is seeded
//!   per `(seed, chain, sweep, shard)`. Workers pick up shards in any
//!   interleaving, but the draws — and therefore the marginals, the
//!   diagnostics, and the early-stop sweep — are a pure function of
//!   `(seed, chains)` at **any** worker count, mirroring the guarantee
//!   the grounding layer gives per thread count.
//! * **Shape-batched factor evaluation.** Factors are compiled into
//!   per-shape CSR arrays (singletons fold into a constant, unary/binary
//!   head and body positions each get a tight loop), replacing the
//!   per-factor dispatch of [`FactorGraph::flip_delta_ro`] inside the hot
//!   resampling loop.
//! * **A touched-variable mask and warm chains.** A full run
//!   ([`PartitionedGibbs::run`]) touches every variable from a cold
//!   start; a blanket pass ([`crate::blanket`]) resamples only the
//!   variables a delta touched, from the previous run's final states.
//!   Untouched variables draw nothing and shards without a touched
//!   variable consume no randomness.
//!
//! Convergence control runs sampling in blocks of
//! `GibbsConfig::check_interval` sweeps, feeding per-block true counts to
//! [`ChainStats`]; when the worst per-variable split-R̂ reaches
//! `GibbsConfig::target_rhat` the run stops (capped by `max_sweeps`).

use std::borrow::Cow;
use std::time::{Duration, Instant};

use probkb_factorgraph::prelude::{color, Coloring, FactorGraph, Sharding, VarId};
use probkb_support::rng::{Rng, SeedableRng, StdRng};
use probkb_support::sync::{for_each_chunk_mut, map_chunks};

use crate::diagnostics::ChainStats;
use crate::gibbs::{sigmoid, GibbsConfig, Marginals};

/// Variables per shard — the fixed work/randomness granule. Chosen so a
/// shard amortizes its RNG setup but a big color class still splits into
/// enough shards to feed every worker.
pub const SHARD_SIZE: usize = 1024;

/// A factor graph compiled into per-shape evaluation arrays.
///
/// For a flip of variable `v` the conditional logit decomposes by the
/// position `v` takes in each factor shape (`w` if the clause is satisfied,
/// `0` otherwise, Equation 4):
///
/// | shape | position | contribution |
/// |---|---|---|
/// | singleton `v` | head | `+w` (constant) |
/// | `v ← u` | head | `+w` if `u` |
/// | `v ← u₁,u₂` | head | `+w` if `u₁ ∧ u₂` |
/// | `h ← v` | body | `−w` if `¬h` |
/// | `h ← v,u` | body | `−w` if `u ∧ ¬h` |
///
/// Factors with repeated variables or arity beyond the paper's shapes fall
/// back to the generic [`FactorGraph`] evaluation.
#[derive(Debug, Clone)]
pub struct BatchedPlan {
    /// Constant logit per variable (sum of its singleton weights).
    base: Vec<f64>,
    head1_off: Vec<usize>,
    head1: Vec<(u32, f64)>,
    head2_off: Vec<usize>,
    head2: Vec<(u32, u32, f64)>,
    body1_off: Vec<usize>,
    body1: Vec<(u32, f64)>,
    body2_off: Vec<usize>,
    body2: Vec<(u32, u32, f64)>,
    general_off: Vec<usize>,
    general: Vec<u32>,
}

fn flatten<T: Copy>(per_var: Vec<Vec<T>>) -> (Vec<usize>, Vec<T>) {
    let mut off = Vec::with_capacity(per_var.len() + 1);
    let mut flat = Vec::new();
    off.push(0);
    for items in per_var {
        flat.extend(items);
        off.push(flat.len());
    }
    (off, flat)
}

impl BatchedPlan {
    /// Compile a graph's factors into shape-batched arrays.
    pub fn build(graph: &FactorGraph) -> Self {
        let n = graph.num_vars();
        let mut base = vec![0.0f64; n];
        let mut head1 = vec![Vec::new(); n];
        let mut head2 = vec![Vec::new(); n];
        let mut body1 = vec![Vec::new(); n];
        let mut body2 = vec![Vec::new(); n];
        let mut general = vec![Vec::new(); n];
        for (fi, f) in graph.factors().iter().enumerate() {
            let mut vars: Vec<usize> = f.vars().collect();
            vars.sort_unstable();
            let duplicated = vars.windows(2).any(|w| w[0] == w[1]);
            if duplicated || f.body.len() > 2 {
                vars.dedup();
                for v in vars {
                    general[v].push(fi as u32);
                }
                continue;
            }
            match f.body.as_slice() {
                [] => base[f.head] += f.weight,
                [u] => {
                    head1[f.head].push((*u as u32, f.weight));
                    body1[*u].push((f.head as u32, f.weight));
                }
                [u1, u2] => {
                    head2[f.head].push((*u1 as u32, *u2 as u32, f.weight));
                    body2[*u1].push((f.head as u32, *u2 as u32, f.weight));
                    body2[*u2].push((f.head as u32, *u1 as u32, f.weight));
                }
                _ => unreachable!("arity > 2 handled above"),
            }
        }
        let (head1_off, head1) = flatten(head1);
        let (head2_off, head2) = flatten(head2);
        let (body1_off, body1) = flatten(body1);
        let (body2_off, body2) = flatten(body2);
        let (general_off, general) = flatten(general);
        BatchedPlan {
            base,
            head1_off,
            head1,
            head2_off,
            head2,
            body1_off,
            body1,
            body2_off,
            body2,
            general_off,
            general,
        }
    }

    /// The Gibbs conditional logit for flipping `v`, evaluated against a
    /// frozen assignment. Same value as [`FactorGraph::flip_delta_ro`] up
    /// to floating-point summation order.
    #[inline]
    pub fn delta(&self, graph: &FactorGraph, v: usize, state: &[bool]) -> f64 {
        let mut delta = self.base[v];
        for &(u, w) in &self.head1[self.head1_off[v]..self.head1_off[v + 1]] {
            if state[u as usize] {
                delta += w;
            }
        }
        for &(u1, u2, w) in &self.head2[self.head2_off[v]..self.head2_off[v + 1]] {
            if state[u1 as usize] && state[u2 as usize] {
                delta += w;
            }
        }
        for &(h, w) in &self.body1[self.body1_off[v]..self.body1_off[v + 1]] {
            if !state[h as usize] {
                delta -= w;
            }
        }
        for &(h, u, w) in &self.body2[self.body2_off[v]..self.body2_off[v + 1]] {
            if state[u as usize] && !state[h as usize] {
                delta -= w;
            }
        }
        for &fi in &self.general[self.general_off[v]..self.general_off[v + 1]] {
            let f = &graph.factors()[fi as usize];
            delta += f.log_value_with(state, v, true) - f.log_value_with(state, v, false);
        }
        delta
    }
}

/// What an inference run did — the sampler-side mirror of the grounding
/// layer's `EXPLAIN ANALYZE` annotations.
#[derive(Debug, Clone)]
pub struct GibbsReport {
    /// Independent chains run.
    pub chains: usize,
    /// Fork-join workers used (never affects results).
    pub workers: usize,
    /// Color classes in the chromatic schedule.
    pub colors: usize,
    /// Fixed shards the classes were cut into.
    pub shards: usize,
    /// Variables sampled.
    pub vars: usize,
    /// Burn-in sweeps per chain.
    pub burn_in: usize,
    /// Sampling sweeps per chain actually run.
    pub sweeps: usize,
    /// True when the run stopped because split-R̂ reached the target
    /// (always false for fixed-schedule runs).
    pub converged: bool,
    /// Worst per-variable split-R̂ at the end of the run, when ≥ 2 chains
    /// completed ≥ 2 diagnostic blocks.
    pub rhat: Option<f64>,
    /// Smallest per-variable batch-means effective sample size.
    pub ess: Option<f64>,
    /// Wall-clock time of the whole run.
    pub elapsed: Duration,
}

impl GibbsReport {
    /// Total variable draws taken (burn-in included, all chains).
    pub fn total_samples(&self) -> u64 {
        self.vars as u64 * self.chains as u64 * (self.sweeps + self.burn_in) as u64
    }

    /// Sampling throughput normalized by the worker count — the number
    /// the `gibbs` bench reports so multi-core hosts show real scaling.
    pub fn samples_per_sec_per_worker(&self) -> f64 {
        self.total_samples() as f64 / self.elapsed.as_secs_f64().max(1e-9) / self.workers as f64
    }

    /// One-line `EXPLAIN ANALYZE`-style annotation.
    pub fn annotate(&self) -> String {
        let fmt_opt = |x: Option<f64>, digits: usize| {
            x.map(|x| format!("{x:.digits$}")).unwrap_or_else(|| "-".into())
        };
        probkb_core::explain::annotate(
            "PartitionedGibbs",
            &[
                ("chains", self.chains.to_string()),
                ("workers", self.workers.to_string()),
                ("colors", self.colors.to_string()),
                ("shards", self.shards.to_string()),
                ("vars", self.vars.to_string()),
                ("sweeps", format!("{}+{}", self.burn_in, self.sweeps)),
                (
                    "stop",
                    if self.converged { "rhat" } else { "schedule" }.to_string(),
                ),
                ("rhat", fmt_opt(self.rhat, 4)),
                ("ess", fmt_opt(self.ess, 1)),
                (
                    "time",
                    probkb_relational::explain::fmt_duration(self.elapsed),
                ),
            ],
        )
    }
}

/// Marginals plus the run report.
#[derive(Debug, Clone)]
pub struct GibbsRun {
    /// Estimated marginals (averaged over all chains).
    pub marginals: Marginals,
    /// Execution report.
    pub report: GibbsReport,
}

struct ChainState {
    id: usize,
    state: Vec<bool>,
    /// True counts per touched variable over all sampling sweeps (drives
    /// the marginals).
    counts: Vec<u64>,
    /// True counts per touched variable within the current diagnostic
    /// block.
    block: Vec<u32>,
}

/// Which variables one run resamples: a pure function of (coloring,
/// touched set), never of the worker count.
struct Schedule {
    /// The touched variables, ascending; chain counters and the returned
    /// estimates are indexed by position in this list.
    touched: Vec<VarId>,
    /// Per color class, the shards holding a touched variable — the only
    /// shards that do work or consume randomness — as (global shard
    /// index, touched variables in shard order).
    classes: Vec<Vec<(u64, Vec<VarId>)>>,
}

/// What [`PartitionedGibbs::sample`] hands back to its two callers.
pub(crate) struct Sampled {
    /// The resampled variables, ascending.
    pub(crate) touched: Vec<VarId>,
    /// `p[i]` estimates `touched[i]` (averaged over all chains).
    pub(crate) p: Vec<f64>,
    /// Final per-chain assignments — the next run's warm start.
    pub(crate) states: Vec<Vec<bool>>,
    /// `vars` and `shards` count what the run actually resampled.
    pub(crate) report: GibbsReport,
}

/// The partitioned multi-chain sampler.
pub struct PartitionedGibbs<'a> {
    graph: &'a FactorGraph,
    coloring: Cow<'a, Coloring>,
    partitioning: Sharding,
    plan: BatchedPlan,
    config: GibbsConfig,
}

impl<'a> PartitionedGibbs<'a> {
    /// Compile the schedule (coloring, sharding, shape batching) for a
    /// graph. The schedule depends only on the graph, never on workers.
    pub fn new(graph: &'a FactorGraph, config: &GibbsConfig) -> Self {
        Self::compile(graph, Cow::Owned(color(graph)), config)
    }

    /// Like [`PartitionedGibbs::new`] under a coloring the caller
    /// maintains (any proper coloring works; incremental callers pass the
    /// one they grow with `extend_color`).
    pub fn with_coloring(
        graph: &'a FactorGraph,
        coloring: &'a Coloring,
        config: &GibbsConfig,
    ) -> Self {
        Self::compile(graph, Cow::Borrowed(coloring), config)
    }

    fn compile(graph: &'a FactorGraph, coloring: Cow<'a, Coloring>, config: &GibbsConfig) -> Self {
        PartitionedGibbs {
            graph,
            partitioning: coloring.partition(SHARD_SIZE),
            coloring,
            plan: BatchedPlan::build(graph),
            config: *config,
        }
    }

    /// Number of color classes.
    pub fn num_colors(&self) -> usize {
        self.coloring.num_colors()
    }

    /// Number of fixed shards.
    pub fn num_shards(&self) -> usize {
        self.partitioning.num_shards()
    }

    fn schedule(&self, touched: &[VarId]) -> Schedule {
        let mut mask = vec![false; self.graph.num_vars()];
        for &v in touched {
            mask[v] = true;
        }
        let classes = (0..self.num_colors())
            .map(|class| {
                self.partitioning
                    .shards_of(class)
                    .iter()
                    .map(|shard| {
                        let vars: Vec<VarId> = self
                            .coloring
                            .shard_vars(shard)
                            .iter()
                            .copied()
                            .filter(|&v| mask[v])
                            .collect();
                        (shard.index as u64, vars)
                    })
                    .filter(|(_, vars)| !vars.is_empty())
                    .collect::<Vec<_>>()
            })
            .filter(|shards| !shards.is_empty())
            .collect();
        let touched = (0..mask.len()).filter(|&v| mask[v]).collect();
        Schedule { touched, classes }
    }

    /// One chromatic sweep of one chain: classes in sequence, shards of a
    /// class resampled against the frozen pre-class snapshot, shard
    /// results applied in shard order. Untouched variables draw nothing.
    fn chain_sweep(
        &self,
        schedule: &Schedule,
        chain: &mut ChainState,
        sweep: u64,
        inner_workers: usize,
    ) {
        for shards in &schedule.classes {
            let state: &[bool] = &chain.state;
            let chain_id = chain.id as u64;
            let updates = map_chunks(shards, inner_workers, |_, part| {
                let mut out = Vec::new();
                for (shard, vars) in part {
                    let mut rng = StdRng::seed_from_u64(shard_seed(
                        self.config.seed,
                        chain_id,
                        sweep,
                        *shard,
                    ));
                    for &v in vars {
                        let delta = self.plan.delta(self.graph, v, state);
                        out.push((v, rng.random::<f64>() < sigmoid(delta)));
                    }
                }
                out
            });
            for (v, value) in updates {
                chain.state[v] = value;
            }
        }
    }

    /// Run the full schedule — every variable touched, chains started
    /// cold: burn-in, then either the fixed `samples` sweeps or
    /// convergence-controlled blocks until split-R̂ reaches `target_rhat`
    /// (or `max_sweeps`).
    pub fn run(&self) -> GibbsRun {
        let all: Vec<VarId> = (0..self.graph.num_vars()).collect();
        let run = self.sample(&all, &[]);
        GibbsRun {
            marginals: Marginals {
                p: run.p,
                samples: run.report.sweeps,
            },
            report: run.report,
        }
    }

    /// The one Gibbs loop. Resamples exactly the `touched` variables, each
    /// chain starting from its `warm` state (padded with `false` for
    /// variables beyond the state's length; missing chains start cold),
    /// under the config's schedule; the convergence diagnostics see the
    /// touched variables only. Nothing touched means nothing to run.
    pub(crate) fn sample(&self, touched: &[VarId], warm: &[Vec<bool>]) -> Sampled {
        let start = Instant::now();
        let n = self.graph.num_vars();
        let config = &self.config;
        let chains = config.chains.max(1);
        let workers = config.resolved_workers();
        // Chains are the coarse parallelism; leftover workers split each
        // chain's shard lists. Both levels are result-invariant.
        let outer = workers.min(chains).max(1);
        let inner = (workers / outer).max(1);
        let check = config.check_interval.max(1);

        let schedule = self.schedule(touched);
        let t = schedule.touched.len();
        let budget = match config.target_rhat {
            Some(_) => config.max_sweeps,
            None => config.samples,
        };
        let (burn_in, budget) = if t == 0 {
            (0, 0)
        } else {
            (config.burn_in, budget)
        };
        let mut report = GibbsReport {
            chains,
            workers,
            colors: self.num_colors(),
            shards: schedule.classes.iter().map(Vec::len).sum(),
            vars: t,
            burn_in,
            sweeps: 0,
            // A convergence-controlled run over nothing is trivially
            // converged.
            converged: t == 0 && config.target_rhat.is_some(),
            rhat: None,
            ess: None,
            elapsed: Duration::ZERO,
        };

        let mut states: Vec<ChainState> = (0..chains)
            .map(|id| {
                let mut state = warm.get(id).cloned().unwrap_or_default();
                state.resize(n, false);
                ChainState {
                    id,
                    state,
                    counts: vec![0u64; t],
                    block: vec![0u32; t],
                }
            })
            .collect();

        // Advance every chain by `sweeps` sweeps from global sweep number
        // `base`, fanning chains over the outer workers. While `sampling`,
        // per-sweep true counts accumulate into each chain's marginal and
        // block counters.
        let advance = |states: &mut [ChainState], base: u64, sweeps: usize, sampling: bool| {
            for_each_chunk_mut(states, outer, |_, part| {
                for chain in part {
                    for s in 0..sweeps {
                        self.chain_sweep(&schedule, chain, base + s as u64, inner);
                        if sampling {
                            // Only touched variables change, so counting
                            // costs O(touched) per sweep, not O(vars).
                            for (i, &v) in schedule.touched.iter().enumerate() {
                                let bit = chain.state[v];
                                chain.counts[i] += bit as u64;
                                chain.block[i] += bit as u32;
                            }
                        }
                    }
                }
            });
        };

        advance(&mut states, 0, burn_in, false);
        let mut sweep_no = burn_in as u64;
        let mut stats = ChainStats::new(chains, t, check);
        let mut done = 0usize;
        while done < budget {
            let step = check.min(budget - done);
            advance(&mut states, sweep_no, step, true);
            sweep_no += step as u64;
            done += step;
            for chain in &mut states {
                let block = std::mem::replace(&mut chain.block, vec![0u32; t]);
                if step == check {
                    stats.push_block(chain.id, block);
                }
                // Partial trailing blocks still count toward marginals but
                // carry no diagnostic weight.
            }
            if let Some(target) = config.target_rhat {
                if let Some(rhat) = stats.max_split_rhat() {
                    if rhat <= target {
                        report.converged = true;
                        break;
                    }
                }
            }
        }

        report.sweeps = done;
        report.rhat = stats.max_split_rhat();
        report.ess = stats.min_batch_ess();
        let denom = (chains * done.max(1)) as f64;
        let p = (0..t)
            .map(|i| states.iter().map(|c| c.counts[i]).sum::<u64>() as f64 / denom)
            .collect();
        report.elapsed = start.elapsed();
        Sampled {
            touched: schedule.touched,
            p,
            states: states.into_iter().map(|c| c.state).collect(),
            report,
        }
    }
}

/// Mix a shard's RNG seed from the run seed and the shard coordinates.
/// SplitMix64-style finalization keeps nearby coordinates uncorrelated.
fn shard_seed(seed: u64, chain: u64, sweep: u64, shard: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for x in [chain, sweep, shard] {
        h = (h ^ x).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
    }
    h
}

/// Run the partitioned sampler with a config and return marginals plus
/// the execution report.
pub fn partitioned_marginals(graph: &FactorGraph, config: &GibbsConfig) -> GibbsRun {
    PartitionedGibbs::new(graph, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_marginals;
    use probkb_factorgraph::prelude::Factor;
    use probkb_support::rng::{Rng, SeedableRng, StdRng};

    fn chain_graph(n: usize) -> FactorGraph {
        let mut factors = vec![Factor::singleton(0, 1.5)];
        for v in 1..n {
            factors.push(Factor::rule(v, vec![v - 1], 1.0));
        }
        FactorGraph::new(n, factors)
    }

    fn random_graph(seed: u64, n: usize, m: usize) -> FactorGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut factors = Vec::new();
        for _ in 0..m {
            let head = (rng.random::<u64>() as usize) % n;
            let arity = (rng.random::<u64>() as usize) % 3;
            let mut body = Vec::new();
            while body.len() < arity {
                let u = (rng.random::<u64>() as usize) % n;
                if u != head && !body.contains(&u) {
                    body.push(u);
                }
            }
            let weight = rng.random::<f64>() * 4.0 - 2.0;
            factors.push(Factor { head, body, weight });
        }
        FactorGraph::new(n, factors)
    }

    #[test]
    fn batched_plan_matches_flip_delta_ro() {
        let g = random_graph(7, 9, 30);
        let plan = BatchedPlan::build(&g);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let state: Vec<bool> = (0..9).map(|_| rng.random::<f64>() < 0.5).collect();
            for v in 0..9 {
                let batched = plan.delta(&g, v, &state);
                let reference = g.flip_delta_ro(v, &state);
                assert!(
                    (batched - reference).abs() < 1e-9,
                    "var {v}: batched {batched} vs reference {reference}"
                );
            }
        }
    }

    #[test]
    fn batched_plan_handles_degenerate_factors() {
        // Head repeated in the body and a 3-atom body: both must route
        // through the general fallback and still match the reference.
        let g = FactorGraph::new(
            4,
            vec![
                Factor::rule(0, vec![0], 1.3),
                Factor::rule(1, vec![2, 3, 0], 0.7),
                Factor::rule(2, vec![3, 3], 0.9),
            ],
        );
        let plan = BatchedPlan::build(&g);
        for mask in 0u8..16 {
            let state: Vec<bool> = (0..4).map(|v| (mask >> v) & 1 == 1).collect();
            for v in 0..4 {
                let batched = plan.delta(&g, v, &state);
                let reference = g.flip_delta_ro(v, &state);
                assert!(
                    (batched - reference).abs() < 1e-9,
                    "mask {mask} var {v}: {batched} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn matches_exact_on_small_chain() {
        let g = chain_graph(6);
        let exact = exact_marginals(&g);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 300,
                samples: 10_000,
                seed: 3,
                chains: 2,
                workers: Some(2),
                ..GibbsConfig::default()
            },
        );
        for (v, (got, want)) in run.marginals.p.iter().zip(exact.iter()).enumerate() {
            assert!(
                (got - want).abs() < 0.03,
                "var {v}: partitioned {got} vs exact {want}"
            );
        }
        assert_eq!(run.report.sweeps, 10_000);
        assert!(!run.report.converged);
        assert!(run.report.rhat.is_some());
    }

    #[test]
    fn convergence_control_stops_early_on_well_mixed_graph() {
        let g = chain_graph(6);
        let exact = exact_marginals(&g);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 100,
                seed: 5,
                chains: 4,
                workers: Some(1),
                target_rhat: Some(1.02),
                max_sweeps: 50_000,
                check_interval: 500,
                ..GibbsConfig::default()
            },
        );
        assert!(run.report.converged, "R̂ never reached 1.02: {:?}", run.report.rhat);
        assert!(
            run.report.sweeps < 50_000,
            "early stop did not fire (ran {} sweeps)",
            run.report.sweeps
        );
        assert!(run.report.rhat.unwrap() <= 1.02);
        // Equal marginal accuracy: the stopped run still tracks the oracle.
        for (v, (got, want)) in run.marginals.p.iter().zip(exact.iter()).enumerate() {
            assert!(
                (got - want).abs() < 0.05,
                "var {v}: converged run {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn implication_raises_head_probability() {
        // Strong body, strong rule: head should be likely even with no
        // direct evidence.
        let g = FactorGraph::new(
            2,
            vec![Factor::singleton(0, 3.0), Factor::rule(1, vec![0], 2.0)],
        );
        let m = partitioned_marginals(&g, &GibbsConfig::default()).marginals;
        assert!(m.p[0] > 0.9);
        assert!(m.p[1] > 0.7, "head marginal {}", m.p[1]);
        // An isolated variable with no factors sits near 0.5.
        let free = FactorGraph::new(1, vec![]);
        let mf = partitioned_marginals(&free, &GibbsConfig::default()).marginals;
        assert!((mf.p[0] - 0.5).abs() < 0.05);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = chain_graph(5);
        let config = GibbsConfig {
            burn_in: 10,
            samples: 100,
            seed: 42,
            ..GibbsConfig::default()
        };
        let a = partitioned_marginals(&g, &config).marginals;
        let b = partitioned_marginals(&g, &config).marginals;
        assert_eq!(a.p, b.p);
    }

    #[test]
    fn colors_match_graph_structure() {
        let g = chain_graph(10);
        let sampler = PartitionedGibbs::new(&g, &GibbsConfig::default());
        assert_eq!(sampler.num_colors(), 2); // a chain is 2-colorable
    }

    #[test]
    fn annotation_contains_the_explain_fields() {
        let g = chain_graph(4);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 20,
                samples: 200,
                seed: 9,
                chains: 2,
                workers: Some(3),
                ..GibbsConfig::default()
            },
        );
        let line = run.report.annotate();
        assert!(line.starts_with("PartitionedGibbs  ("), "{line}");
        for key in ["chains=2", "workers=3", "sweeps=20+200", "rhat=", "time="] {
            assert!(line.contains(key), "missing {key} in {line}");
        }
        assert!(run.report.samples_per_sec_per_worker() > 0.0);
    }
}
