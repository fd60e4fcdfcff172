//! The six workloads. Each runs the same journey — expand a KB in batch,
//! then serve reads, local marginals and writes from a server — on
//! different inputs and with a different part made large, so that each
//! stresses another layer while every metric stays defined everywhere.
//!
//! The KBs are pinned datasets (generator seed fixed): at one scale the
//! closure size varies 4x across generator seeds, which would swamp
//! every bound. `--seed` drives what a user chooses instead: sampler
//! seeds, request streams, which facts are asked for, delta contents.

use probkb::prelude::{generate, s1_with_rules, ProbKb, ReverbConfig};

/// Which KB the batch expansion grounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BatchKb {
    /// ReVerb-Sherlock shape at this scale of Table 2, constraints on.
    Reverb(f64),
    /// The sampler-heavy family of the `gibbs`/`local` benches: few
    /// rules over a dense fact set, no constraints.
    Table2Family,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub batch_kb: BatchKb,
    /// Ground through `Store::Paged` (spill policy over a 1 MiB pool).
    pub paged: bool,
    /// Burn-in and sampling sweeps of the batch expansion's Gibbs run.
    pub gibbs_sweeps: (usize, usize),
    /// Share of `--seconds` spent repeating the batch expansion.
    pub batch_share: f64,
    /// Share of `--seconds` the read window on the quiet server lasts.
    pub read_share: f64,
    /// Distinct inferred facts asked for through `MARGINAL_LOCAL`.
    pub local_misses: usize,
    /// Share of `--seconds` the same facts are asked for again and
    /// again (cache hits).
    pub hit_share: f64,
    pub deltas: usize,
    /// Take the read metrics from the reader that runs beside the
    /// writer instead of from the quiet read window.
    pub reads_beside_writes: bool,
    /// Restart a server from the WAL alone and compare (costs a start
    /// plus a replay, so only where writes are the point).
    pub check_wal_restart: bool,
}

const REVERB_BATCH_SCALE: f64 = 0.02;
const SMALL_BATCH_SCALE: f64 = 0.004;
/// Every workload serves this KB: 3,054 base facts, ~15K facts and ~17K
/// factors after expansion without constraints.
pub const SERVE_SCALE: f64 = 0.0075;
/// Sampler schedule of the server (cold start, blanket resampling and
/// local inference over more than 20 variables).
pub const SERVE_SWEEPS: (usize, usize) = (50, 300);
/// Facts per delta.
pub const DELTA_FACTS: usize = 20;
pub const SPILL_THRESHOLD_ROWS: usize = 4096;
pub const SPILL_POOL_PAGES: usize = 128;

const MINOR: Workload = Workload {
    name: "",
    batch_kb: BatchKb::Reverb(SMALL_BATCH_SCALE),
    paged: false,
    gibbs_sweeps: (20, 100),
    batch_share: 0.1,
    read_share: 0.15,
    local_misses: 1_000,
    hit_share: 0.1,
    deltas: 15,
    reads_beside_writes: false,
    check_wal_restart: false,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "expand_reverb",
        batch_kb: BatchKb::Reverb(REVERB_BATCH_SCALE),
        batch_share: 0.4,
        ..MINOR
    },
    Workload {
        name: "ground_paged",
        batch_kb: BatchKb::Reverb(REVERB_BATCH_SCALE),
        paged: true,
        batch_share: 0.5,
        ..MINOR
    },
    Workload {
        name: "infer_gibbs",
        batch_kb: BatchKb::Table2Family,
        gibbs_sweeps: (200, 2_000),
        batch_share: 0.4,
        ..MINOR
    },
    Workload {
        name: "serve_read",
        read_share: 0.4,
        ..MINOR
    },
    Workload {
        name: "serve_local",
        local_misses: 3_000,
        hit_share: 0.2,
        ..MINOR
    },
    Workload {
        name: "serve_write",
        read_share: 0.0,
        deltas: 30,
        reads_beside_writes: true,
        check_wal_restart: true,
        ..MINOR
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// `--quick` divides every size by ten so the harness tests itself in
/// seconds; its numbers are not comparable with a full run's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sizing {
    pub quick: bool,
}

impl Sizing {
    pub fn scale(&self, scale: f64) -> f64 {
        if self.quick {
            scale / 10.0
        } else {
            scale
        }
    }

    pub fn count(&self, n: usize) -> usize {
        if self.quick {
            (n / 10).max(2)
        } else {
            n
        }
    }
}

pub fn batch_kb(kind: BatchKb, sizing: Sizing) -> ProbKb {
    match kind {
        BatchKb::Reverb(scale) => generate(&ReverbConfig::scaled(sizing.scale(scale))),
        BatchKb::Table2Family => {
            let seeded = generate(&ReverbConfig {
                entities: sizing.count(2_000),
                classes: 10,
                relations: 200,
                facts: sizing.count(5_000),
                rules: sizing.count(40).max(8),
                functional_frac: 0.0,
                pseudo_frac: 0.0,
                zipf_s: 0.8,
                rule_zipf_s: 0.6,
                seed: 7,
            });
            s1_with_rules(&seeded, sizing.count(65).max(12), 3)
        }
    }
}

pub fn serve_kb(sizing: Sizing) -> ProbKb {
    generate(&ReverbConfig::scaled(sizing.scale(SERVE_SCALE)))
}
