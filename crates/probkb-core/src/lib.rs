//! # probkb-core
//!
//! ProbKB's core contribution (SIGMOD 2014): a relational model for
//! probabilistic knowledge bases and an SQL-style grounding algorithm that
//! applies MLN inference rules **in batches** — one join query per
//! structural rule partition (`O(k)` queries) instead of one query per
//! rule (`O(n)`, the Tuffy approach).
//!
//! * [`relmodel`] — the `TΠ` / `M1..M6` / `TΩ` / `TΦ` schemas and the KB
//!   loader (§4.2, Definitions 2–7).
//! * [`queries`] — the grounding join plans (Queries 1-i, 2-i, 3) derived
//!   from one shared [`queries::JoinSpec`] per pattern.
//! * [`grounding`] — Algorithm 1: iterate to closure, apply constraints,
//!   redistribute, then build ground factors. One resumable stepper is
//!   the only loop body; [`checkpoint`] drives the same stepper with a
//!   WAL frame and periodic snapshots between steps.
//! * [`engine`] — the backend trait, with three implementations:
//!   [`single_node::SingleNodeEngine`] (PostgreSQL-style; naive
//!   Algorithm 1 via `new()`, frontier-restricted semi-naive evaluation
//!   via `semi_naive()`), [`mpp_engine::MppEngine`] (Greenplum-style,
//!   with redistributed materialized views), and [`tuffy::TuffyEngine`]
//!   (the per-rule, per-relation-table baseline).
//! * [`delta`] / [`delta_store`] — incremental expansion (`apply_delta`)
//!   over the same frontier plans, and its WAL-backed durable session.
//! * [`local`] — query-time budgeted local grounding.
//! * [`explain`] — `EXPLAIN`-style rendering of grounding reports.
//! * [`api`] — the high-level knowledge-expansion facade.
//!
//! ```
//! use probkb_core::prelude::*;
//! use probkb_kb::prelude::parse;
//!
//! let kb = parse(r#"
//!     fact 0.96 born_in(Ruth_Gruber:Writer, New_York_City:City)
//!     rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
//! "#).unwrap().build();
//!
//! let mut engine = SingleNodeEngine::new();
//! let out = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();
//! assert_eq!(out.facts.len(), 2);     // base fact + inferred live_in
//! assert_eq!(out.factors.len(), 2);   // 1 singleton + 1 rule factor
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod checkpoint;
pub mod delta;
pub mod delta_store;
pub mod engine;
pub mod explain;
pub mod grounding;
pub mod local;
pub mod mpp_engine;
pub mod queries;
pub mod relmodel;
pub mod single_node;
pub mod tuffy;

/// Convenient glob import for downstream crates.
pub mod prelude {
    pub use crate::api::{decode_inferred, expand, expand_with, Backend, ExpandOptions, Expansion};
    pub use crate::checkpoint::{
        ground_checkpointed, CheckpointConfig, CheckpointError, CheckpointResult, CheckpointedRun,
        ResumeSummary, CRASH_EXIT_CODE,
    };
    pub use crate::delta::{DeltaApplied, DeltaReport, DeltaRound, DeltaSession, KbDelta};
    pub use crate::delta_store::{
        DeltaResume, DurableDeltaSession, CRASH_AFTER_DELTA_ENV, CRASH_MID_DELTA_ENV,
        DELTA_SNAPSHOT_FILE, DELTA_WAL_FILE,
    };
    pub use crate::engine::{GroundingEngine, ViolatorKey};
    pub use crate::explain::{annotate, explain_grounding, render_report};
    pub use crate::grounding::{
        ground, ground_loaded, GroundingConfig, GroundingOutcome, GroundingReport,
        IterationStats,
    };
    pub use crate::local::{
        CacheAdvance, LocalBudget, LocalCache, LocalCacheEntry, LocalCacheStatus, LocalGround,
        LocalGrounder,
    };
    pub use crate::mpp_engine::{MppEngine, MppMode};
    pub use crate::queries::{
        ground_atoms_plan, ground_factors_plan, join_spec, singleton_factors_plan,
        violators_plan, JoinSpec,
    };
    pub use crate::relmodel::{
        candidate_schema, load, m2_schema, m3_schema, names, tomega_schema, tphi, tphi_schema,
        tpi, tpi_schema, FactRegistry, RelationalKb,
    };
    pub use crate::single_node::SingleNodeEngine;
    pub use crate::tuffy::TuffyEngine;
}
