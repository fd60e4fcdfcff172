//! # probkb-inference
//!
//! Marginal inference over ProbKB's ground factor graphs — the stand-in
//! for the external engine (GraphLab + parallel Gibbs) the paper hands
//! its grounding output to (Figure 1, §2.2).
//!
//! * [`partitioned`] — the one Gibbs kernel: partition-sharded
//!   multi-chain sampling on the fork-join pool (`PROBKB_GIBBS_WORKERS`)
//!   with shape-batched factor evaluation and online convergence control.
//!   A full run resamples everything from a cold start.
//! * [`blanket`] — the same kernel run with a touched-variable mask from
//!   warm chains: Markov-blanket-scoped resampling for incremental
//!   expansion (`apply_delta`).
//! * [`gibbs`] — what both share: `GibbsConfig`, `Marginals`, `sigmoid`.
//! * [`bp`] — deterministic loopy belief propagation; [`map`] — MAP
//!   search (ICM, annealing).
//! * [`diagnostics`] — split-R̂ (Gelman–Rubin) and effective-sample-size
//!   estimators, incremental across chains.
//! * [`exact`] — brute-force enumeration oracle (≤ 24 variables) used by
//!   the test suite to validate the sampler.
//! * [`writeback`] — store estimated marginals back into `TΠ` weights so
//!   queries need no inference at run time.

#![warn(missing_docs)]

pub mod blanket;
pub mod bp;
pub mod diagnostics;
pub mod exact;
pub mod gibbs;
pub mod local;
pub mod map;
pub mod partitioned;
pub mod writeback;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::blanket::{
        blanket_of, blanket_resample, blanket_resample_with, BlanketReport, BlanketRun,
    };
    pub use crate::bp::{belief_propagation, max_product, BpConfig, BpResult};
    pub use crate::diagnostics::{ess, split_rhat, ChainStats};
    pub use crate::exact::{exact_marginals, log_partition};
    pub use crate::gibbs::{default_gibbs_workers, sigmoid, GibbsConfig, Marginals};
    pub use crate::local::{LocalAnswer, LocalSession, LOCAL_EXACT_MAX_VARS};
    pub use crate::map::{anneal, exact_map, icm, icm_from, AnnealConfig, MapSolution};
    pub use crate::partitioned::{
        partitioned_marginals, BatchedPlan, GibbsReport, GibbsRun, PartitionedGibbs, SHARD_SIZE,
    };
    pub use crate::writeback::{marginal_of, write_marginals};
}
