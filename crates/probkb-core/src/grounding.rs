//! Algorithm 1: the grounding driver.
//!
//! Repeats `groundAtoms` over all partitions until the transitive closure
//! is reached (or a blow-up guard trips), applying constraints and
//! redistributing after each iteration, then builds the ground factors.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use probkb_kb::prelude::ProbKb;
use probkb_relational::prelude::{Result, Row, Table, Value};

use crate::engine::{GroundingEngine, ViolatorKey};
use crate::relmodel::{load, tphi, tpi, FactRegistry, RelationalKb};

/// Tuning knobs for Algorithm 1.
#[derive(Debug, Clone)]
pub struct GroundingConfig {
    /// Iteration cap (the paper grounds most KBs in ~15 iterations).
    pub max_iterations: usize,
    /// Run Query 3 (constraint enforcement) once before iteration 1,
    /// cleaning the extracted facts (§6.1.1 does this).
    pub preclean: bool,
    /// Run Query 3 after every iteration (the `applyConstraints` call in
    /// Algorithm 1 line 6). Without it, machine-built KBs blow up
    /// (Table 3's 592M factors).
    pub apply_constraints: bool,
    /// Abort when `TΠ` exceeds this many facts (guard for the deliberate
    /// no-constraints blow-up experiments).
    pub max_total_facts: Option<usize>,
    /// Fork-join worker cap forwarded to the engine via
    /// [`GroundingEngine::set_threads`] before loading. `None` keeps the
    /// engine's own default (`PROBKB_THREADS` for single-node engines,
    /// one worker per segment for MPP).
    pub threads: Option<usize>,
    /// Enable the statistics-driven cost-based planner, forwarded to the
    /// engine via [`GroundingEngine::set_optimize`] before loading.
    /// `None` keeps the engine's own default (`PROBKB_OPTIMIZE`, on
    /// unless set to `0`). Plan choice never changes grounding output —
    /// the unoptimized path stays available as a differential oracle.
    pub optimize: Option<bool>,
}

impl Default for GroundingConfig {
    fn default() -> Self {
        GroundingConfig {
            max_iterations: 15,
            preclean: false,
            apply_constraints: true,
            max_total_facts: None,
            threads: None,
            optimize: None,
        }
    }
}

impl GroundingConfig {
    /// The raw configuration of §6.1.1's performance runs: constraints
    /// once up front, none during inference, fixed iteration budget.
    pub fn performance_run(iterations: usize) -> Self {
        GroundingConfig {
            max_iterations: iterations,
            preclean: true,
            apply_constraints: false,
            max_total_facts: None,
            threads: None,
            optimize: None,
        }
    }
}

/// Statistics for one grounding iteration.
#[derive(Debug, Clone)]
pub struct IterationStats {
    /// 1-based iteration number.
    pub iteration: usize,
    /// Facts newly added this iteration.
    pub new_facts: usize,
    /// Facts deleted by constraint enforcement this iteration.
    pub deleted_facts: usize,
    /// `TΠ` size after this iteration.
    pub facts_after: usize,
    /// Queries executed this iteration (6 for ProbKB, ~30,912 for Tuffy).
    pub queries: usize,
    /// Wall-clock time of this iteration.
    pub elapsed: Duration,
}

/// Full report of a grounding run — the raw material for Table 3 and
/// Figure 6.
#[derive(Debug, Clone)]
pub struct GroundingReport {
    /// Engine name.
    pub engine: String,
    /// Bulkload time (Table 3, "Load" column).
    pub load_time: Duration,
    /// Facts deleted by the pre-inference cleaning pass.
    pub precleaned: usize,
    /// Per-iteration stats (Table 3, "Query 1" columns).
    pub iterations: Vec<IterationStats>,
    /// Whether the closure was reached (vs. hitting a cap).
    pub converged: bool,
    /// Time to build `TΦ` (Table 3, "Query 2" column).
    pub factor_time: Duration,
    /// Queries used to build `TΦ`.
    pub factor_queries: usize,
    /// Final fact count.
    pub total_facts: usize,
    /// Final factor count (Table 3, "Result size").
    pub total_factors: usize,
}

impl GroundingReport {
    /// Total grounding time across load, iterations, and factors.
    pub fn total_time(&self) -> Duration {
        self.load_time
            + self.factor_time
            + self.iterations.iter().map(|i| i.elapsed).sum::<Duration>()
    }

    /// Total queries across iterations and the factor pass.
    pub fn total_queries(&self) -> usize {
        self.factor_queries + self.iterations.iter().map(|i| i.queries).sum::<usize>()
    }

    /// Facts inferred beyond the base KB.
    pub fn inferred_facts(&self) -> usize {
        self.iterations.iter().map(|i| i.new_facts).sum()
    }
}

/// The result of grounding: the expanded facts, the factor graph table,
/// and the run report.
#[derive(Debug)]
pub struct GroundingOutcome {
    /// Final `TΠ` snapshot (base + inferred facts, post-constraints).
    pub facts: Table,
    /// The ground factors `TΦ(I1, I2, I3, w)`.
    pub factors: Table,
    /// The iteration at which each inferred fact id was first derived
    /// (base facts are absent; they exist "at iteration 0"). Quality
    /// evaluation uses this to plot precision as inference proceeds.
    pub fact_iteration: HashMap<i64, usize>,
    /// Run statistics.
    pub report: GroundingReport,
}

/// Run Algorithm 1 over a KB with the given engine.
pub fn ground(
    kb: &ProbKb,
    engine: &mut dyn GroundingEngine,
    config: &GroundingConfig,
) -> Result<GroundingOutcome> {
    let rel = load(kb);
    ground_loaded(rel, engine, config)
}

/// Run Algorithm 1 from an already-built relational KB (lets benchmarks
/// exclude or measure the load step separately).
pub fn ground_loaded(
    rel: RelationalKb,
    engine: &mut dyn GroundingEngine,
    config: &GroundingConfig,
) -> Result<GroundingOutcome> {
    apply_engine_knobs(engine, config);
    let load_start = Instant::now();
    engine.load(&rel)?;
    let load_time = load_start.elapsed();

    let mut run = GroundingRun::new(rel.registry);
    if config.preclean {
        run.preclean(engine)?;
    }
    while run.wants_step(config) {
        run.step(engine, config)?;
    }
    let factors = run.ground_factors(engine)?;
    run.finish(engine, load_time, factors)
}

/// Forward the config's scheduling knobs to the engine (before loading).
pub(crate) fn apply_engine_knobs(engine: &mut dyn GroundingEngine, config: &GroundingConfig) {
    if let Some(threads) = config.threads {
        engine.set_threads(threads);
    }
    if let Some(optimize) = config.optimize {
        engine.set_optimize(optimize);
    }
}

/// What one [`GroundingRun::step`] changed in the engine — exactly what a
/// durable driver must log to re-apply the iteration without re-running
/// its joins.
#[derive(Debug)]
pub(crate) struct StepApplied {
    /// The `TΠ` rows the iteration appended (empty when it converged).
    pub new_rows: Vec<Row>,
    /// The violators the iteration deleted, sorted.
    pub violators: Vec<ViolatorKey>,
}

/// The `TΦ` pass of a run: the canonical factor table and its cost.
#[derive(Debug, Clone)]
pub(crate) struct FactorPass {
    pub table: Table,
    pub queries: usize,
    pub elapsed: Duration,
}

/// The driver-side state of one Algorithm 1 run, advanced one iteration
/// at a time — the only implementation of the loop body. The plain
/// driver ([`ground_loaded`]) steps it to completion; the checkpointed
/// driver (`crate::checkpoint`) logs between steps and rebuilds one from
/// disk to resume mid-run.
#[derive(Debug)]
pub(crate) struct GroundingRun {
    pub registry: FactRegistry,
    /// Facts deleted by the pre-inference cleaning pass; `None` until
    /// that pass has run.
    pub precleaned: Option<usize>,
    pub iterations: Vec<IterationStats>,
    pub fact_iteration: HashMap<i64, usize>,
    pub converged: bool,
    /// The `max_total_facts` guard tripped.
    pub capped: bool,
}

impl GroundingRun {
    /// A run about to start over a freshly loaded engine.
    pub fn new(registry: FactRegistry) -> GroundingRun {
        GroundingRun {
            registry,
            precleaned: None,
            iterations: Vec::new(),
            fact_iteration: HashMap::new(),
            converged: false,
            capped: false,
        }
    }

    /// Number of the last completed iteration (0 before the first).
    pub fn last_iteration(&self) -> usize {
        self.iterations.last().map_or(0, |s| s.iteration)
    }

    /// Whether Algorithm 1's loop has another iteration to run.
    pub fn wants_step(&self, config: &GroundingConfig) -> bool {
        !self.converged && !self.capped && self.last_iteration() < config.max_iterations
    }

    /// Record whether the blow-up guard trips at the current `TΠ` size.
    pub fn check_cap(&mut self, config: &GroundingConfig) {
        let facts_after = self.iterations.last().map_or(0, |s| s.facts_after);
        self.capped = config.max_total_facts.is_some_and(|cap| facts_after > cap);
    }

    /// Query 3 once before iteration 1 (§6.1.1). Returns the violators
    /// it deleted, sorted.
    pub fn preclean(&mut self, engine: &mut dyn GroundingEngine) -> Result<Vec<ViolatorKey>> {
        let violators = engine.find_violators()?;
        self.precleaned = Some(engine.delete_violators(&violators)?);
        engine.redistribute()?;
        Ok(sorted_violators(&violators))
    }

    /// One iteration of Algorithm 1 (lines 3–7): ground atoms over every
    /// partition, merge the new facts, apply constraints, redistribute.
    pub fn step(
        &mut self,
        engine: &mut dyn GroundingEngine,
        config: &GroundingConfig,
    ) -> Result<StepApplied> {
        let iteration = self.last_iteration() + 1;
        let start = Instant::now();
        let (candidates, mut queries) = engine.ground_atoms()?;
        let new_rows = register_candidates(&mut self.registry, &candidates);
        for row in &new_rows {
            self.fact_iteration
                .insert(row[tpi::I].as_int().expect("fact id"), iteration);
        }
        let mut deleted_facts = 0;
        let mut violators = Vec::new();
        if new_rows.is_empty() {
            self.converged = true;
        } else {
            engine.insert_facts(new_rows.clone())?;
            if config.apply_constraints {
                let found = engine.find_violators()?;
                queries += 2; // Type I + Type II violator queries
                deleted_facts = engine.delete_violators(&found)?;
                violators = sorted_violators(&found);
            }
            engine.redistribute()?;
        }
        self.iterations.push(IterationStats {
            iteration,
            new_facts: new_rows.len(),
            deleted_facts,
            facts_after: engine.fact_count()?,
            queries,
            elapsed: start.elapsed(),
        });
        self.check_cap(config);
        Ok(StepApplied {
            new_rows,
            violators,
        })
    }

    /// Algorithm 1 lines 8–10: build `TΦ` in canonical order.
    pub fn ground_factors(&self, engine: &mut dyn GroundingEngine) -> Result<FactorPass> {
        let start = Instant::now();
        let (mut table, queries) = engine.ground_factors()?;
        canonicalize_factors(&mut table);
        Ok(FactorPass {
            table,
            queries,
            elapsed: start.elapsed(),
        })
    }

    /// Gather the final `TΠ` and assemble the outcome.
    pub fn finish(
        self,
        engine: &mut dyn GroundingEngine,
        load_time: Duration,
        factors: FactorPass,
    ) -> Result<GroundingOutcome> {
        let mut facts = engine.facts()?;
        facts.sort_by_cols(&[tpi::I]);
        let report = GroundingReport {
            engine: engine.name().to_string(),
            load_time,
            precleaned: self.precleaned.unwrap_or(0),
            converged: self.converged,
            factor_time: factors.elapsed,
            factor_queries: factors.queries,
            total_facts: facts.len(),
            total_factors: factors.table.len(),
            iterations: self.iterations,
        };
        Ok(GroundingOutcome {
            facts,
            factors: factors.table,
            fact_iteration: self.fact_iteration,
            report,
        })
    }
}

fn sorted_violators(set: &HashSet<ViolatorKey>) -> Vec<ViolatorKey> {
    let mut v: Vec<ViolatorKey> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// Dedupe candidates against everything ever seen, assign ids, and build
/// the new `TΠ` rows (weight NULL — to be filled by marginal inference).
/// Shared with the incremental replay (`crate::delta`), which registers
/// its rounds the same way.
///
/// Candidate row order depends on the physical plans the engine ran
/// (join order, build sides, motions), but fact ids must not — so the
/// keys are sorted before registration. This makes grounding output
/// identical across optimizer settings, thread counts, and engines.
pub(crate) fn register_candidates(registry: &mut FactRegistry, candidates: &Table) -> Vec<Row> {
    let mut keys: Vec<[i64; 5]> = candidates
        .rows()
        .iter()
        .map(|row| FactRegistry::key_of_candidate(row))
        .collect();
    keys.sort_unstable();
    let mut rows = Vec::new();
    for key in keys {
        if let Some(id) = registry.register(key) {
            rows.push(vec![
                Value::Int(id),
                Value::Int(key[0]),
                Value::Int(key[1]),
                Value::Int(key[2]),
                Value::Int(key[3]),
                Value::Int(key[4]),
                Value::Null,
            ]);
        }
    }
    rows
}

/// Sort `TΦ` into its canonical order (all four columns ascending), so
/// the factor table is byte-identical no matter which physical plans
/// produced it. Bag semantics are preserved — duplicates stay.
pub(crate) fn canonicalize_factors(factors: &mut Table) {
    factors.sort_by_cols(&[tphi::I1, tphi::I2, tphi::I3, tphi::W]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relmodel::tphi;
    use crate::single_node::SingleNodeEngine;
    use probkb_kb::prelude::parse;

    /// The complete Table 1 / Figure 3 running example.
    pub(crate) const TABLE1: &str = r#"
        fact 0.96 born_in(Ruth_Gruber:Writer, New_York_City:City)
        fact 0.93 born_in(Ruth_Gruber:Writer, Brooklyn:Place)
        rule 1.40 live_in(x:Writer, y:Place) :- born_in(x, y)
        rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
        rule 2.68 grow_up_in(x:Writer, y:Place) :- born_in(x, y)
        rule 0.74 grow_up_in(x:Writer, y:City) :- born_in(x, y)
        rule 0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x), live_in(z, y)
        rule 0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)
    "#;

    #[test]
    fn figure3_worked_example() {
        let kb = parse(TABLE1).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let outcome = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();

        // Final TΠ (Figure 3(g)): the 2 base facts + live_in ×2 +
        // grow_up_in ×2 + located_in(Brooklyn, NYC) = 7 facts.
        assert_eq!(outcome.facts.len(), 7);
        assert!(outcome.report.converged);

        // Final TΦ (Figure 3(e)): 2 singleton factors + 4 M1 factors +
        // 2 M3 factors (same head via born_in-rule and live_in-rule) = 8.
        assert_eq!(outcome.factors.len(), 8);

        // The located_in head has TWO factors (bag union keeps both
        // derivations — Proposition 1 discussion).
        let located_head: Vec<_> = outcome
            .factors
            .rows()
            .iter()
            .filter(|r| !r[tphi::I3].is_null())
            .collect();
        assert_eq!(located_head.len(), 2);
        assert_eq!(located_head[0][tphi::I1], located_head[1][tphi::I1]);
    }

    #[test]
    fn convergence_detected() {
        let kb = parse(TABLE1).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let outcome = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();
        // Iter 1 infers 5 facts (4 via M1, 1 via M3-born_in); iter 2 finds
        // only duplicates (the M3-live_in derivation) and converges.
        let news: Vec<usize> = outcome
            .report
            .iterations
            .iter()
            .map(|i| i.new_facts)
            .collect();
        assert_eq!(news, vec![5, 0]);
        assert_eq!(outcome.report.inferred_facts(), 5);
    }

    #[test]
    fn queries_per_iteration_equal_partition_count() {
        let kb = parse(TABLE1).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let config = GroundingConfig {
            apply_constraints: false,
            ..GroundingConfig::default()
        };
        let outcome = ground(&kb, &mut engine, &config).unwrap();
        // Two non-empty partitions (M1, M3) → 2 queries per iteration,
        // regardless of the 8 rules.
        for iter in &outcome.report.iterations {
            assert_eq!(iter.queries, 2);
        }
    }

    #[test]
    fn constraints_remove_ambiguous_entities_during_grounding() {
        let kb = parse(
            r#"
            fact 0.9 born_in(Mandel:Writer, Berlin:City)
            fact 0.9 born_in(Mandel:Writer, Baltimore:City)
            rule 0.52 located_in(x:City, y:City) :- born_in(z:Writer, x), born_in(z, y)
            functional born_in 1 1
            "#,
        )
        .unwrap()
        .build();

        // Without constraints: the ambiguous "Mandel" fabricates four
        // located_in facts — Berlin/Baltimore in both orders plus the two
        // reflexive groundings (Horn rules do not require x ≠ y).
        let mut engine = SingleNodeEngine::new();
        let loose = GroundingConfig {
            apply_constraints: false,
            ..GroundingConfig::default()
        };
        let out = ground(&kb, &mut engine, &loose).unwrap();
        assert_eq!(out.report.inferred_facts(), 4);

        // With preclean: Mandel is removed before any inference happens.
        let mut engine = SingleNodeEngine::new();
        let strict = GroundingConfig {
            preclean: true,
            ..GroundingConfig::default()
        };
        let out = ground(&kb, &mut engine, &strict).unwrap();
        assert_eq!(out.report.precleaned, 2);
        assert_eq!(out.report.inferred_facts(), 0);
        assert_eq!(out.facts.len(), 0);
    }

    #[test]
    fn blowup_guard_stops_runaway_grounding() {
        // A transitive-closure-style rule over a chain keeps inferring.
        let mut text = String::new();
        for i in 0..30 {
            text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        text.push_str("rule 1.0 next(x:Node, y:Node) :- next(x, z:Node), next(z, y)\n");
        let kb = parse(&text).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let config = GroundingConfig {
            max_total_facts: Some(100),
            apply_constraints: false,
            ..GroundingConfig::default()
        };
        let out = ground(&kb, &mut engine, &config).unwrap();
        assert!(!out.report.converged);
        assert!(out.facts.len() > 100); // crossed the cap, then stopped
        assert!(out.report.iterations.len() < 15);
    }

    #[test]
    fn max_iterations_caps_work() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        text.push_str("rule 1.0 next(x:Node, y:Node) :- next(x, z:Node), next(z, y)\n");
        let kb = parse(&text).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let config = GroundingConfig {
            max_iterations: 2,
            apply_constraints: false,
            ..GroundingConfig::default()
        };
        let out = ground(&kb, &mut engine, &config).unwrap();
        assert_eq!(out.report.iterations.len(), 2);
        assert!(!out.report.converged);
    }

    #[test]
    fn report_totals_are_consistent() {
        let kb = parse(TABLE1).unwrap().build();
        let mut engine = SingleNodeEngine::new();
        let out = ground(&kb, &mut engine, &GroundingConfig::default()).unwrap();
        let r = &out.report;
        assert_eq!(r.total_facts, out.facts.len());
        assert_eq!(r.total_factors, out.factors.len());
        assert!(r.total_time() >= r.load_time + r.factor_time);
        assert!(r.total_queries() >= r.factor_queries);
        assert_eq!(r.engine, "ProbKB");
    }
}
