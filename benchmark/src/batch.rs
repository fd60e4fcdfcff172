//! The batch half of the journey: load → ground to closure → `TΦ` →
//! factor graph + coloring → Gibbs → marginals written back → lineage.

use std::hint::black_box;
use std::time::Instant;

use probkb::prelude::{
    color, expand_with, from_phi, ground_atoms_plan, ground_factors_plan, names,
    partitioned_marginals, singleton_factors_plan, write_marginals, GibbsConfig, GibbsReport,
    GroundingConfig, GroundingReport, Lineage, ProbKb, RulePattern, SingleNodeEngine,
};
use probkb_relational::prelude::{ExecMetrics, Executor, Plan, Table, Value};

use crate::spans::Tracer;
use crate::timed_engine::TimedEngine;

/// What one expansion cost and produced.
pub struct ExpandRun {
    pub expand_s: f64,
    pub ground_s: f64,
    pub gibbs_s: f64,
    pub facts: usize,
    pub factors: usize,
    /// Variable draws of the Gibbs run, burn-in included.
    pub draws: u64,
    /// Hash of the facts, the factors and the per-iteration schedule.
    pub digest: u64,
    pub grounding: GroundingReport,
    pub gibbs: GibbsReport,
    /// Every written marginal is a probability.
    pub marginals_in_range: bool,
    /// Rows `ground_atoms` returned (traced runs only).
    pub candidate_rows: u64,
}

fn timed<T>(tracer: Option<&Tracer>, name: &'static str, op_id: u64, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(tracer) => tracer.time(name, op_id, f),
        None => f(),
    }
}

/// Run the whole batch pipeline once. With a tracer, the engine is
/// wrapped in a [`TimedEngine`] and every stage is a span under one
/// `expand` root; without, nothing but a few clock reads is added.
/// Also returns the engine: its catalog holds the final tables.
pub fn expand_once(
    kb: &ProbKb,
    grounding: &GroundingConfig,
    gibbs: &GibbsConfig,
    tracer: Option<&Tracer>,
    op_id: u64,
) -> Result<(ExpandRun, SingleNodeEngine), String> {
    let started = Instant::now();
    let root = tracer.map(|t| t.span("expand", op_id));

    let (expansion, engine, candidate_rows) = match tracer {
        None => {
            let mut engine = SingleNodeEngine::new();
            let expansion = expand_with(kb, &mut engine, grounding).map_err(|e| e.to_string())?;
            (expansion, engine, 0)
        }
        Some(tracer) => {
            let mut engine = TimedEngine::new(tracer, op_id);
            let expansion = tracer
                .time("core.ground", op_id, || {
                    expand_with(kb, &mut engine, grounding)
                })
                .map_err(|e| e.to_string())?;
            let candidate_rows = engine.candidate_rows;
            (expansion, engine.into_inner(), candidate_rows)
        }
    };
    let ground_s = started.elapsed().as_secs_f64();
    let outcome = &expansion.outcome;

    let graph = timed(tracer, "factorgraph.from_phi", op_id, || {
        from_phi(&outcome.factors)
    });
    black_box(timed(tracer, "factorgraph.color", op_id, || {
        color(&graph.graph)
    }));
    let gibbs_started = Instant::now();
    let run = timed(tracer, "inference.gibbs", op_id, || {
        partitioned_marginals(&graph.graph, gibbs)
    });
    let gibbs_s = gibbs_started.elapsed().as_secs_f64();
    let (with_marginals, _) = timed(tracer, "inference.write_marginals", op_id, || {
        write_marginals(&outcome.facts, &graph, &run.marginals)
    });
    black_box(timed(tracer, "factorgraph.lineage", op_id, || {
        Lineage::from_phi(&outcome.factors)
    }));
    drop(root);
    let expand_s = started.elapsed().as_secs_f64();

    let run = ExpandRun {
        expand_s,
        ground_s,
        gibbs_s,
        facts: outcome.facts.len(),
        factors: outcome.factors.len(),
        draws: run.report.total_samples(),
        digest: digest(&outcome.facts, &outcome.factors, &outcome.report),
        marginals_in_range: run.marginals.p.iter().all(|p| (0.0..=1.0).contains(p))
            && black_box(&with_marginals).len() == outcome.facts.len(),
        grounding: outcome.report.clone(),
        gibbs: run.report,
        candidate_rows,
    };
    Ok((run, engine))
}

struct Fnv(u64);

impl Fnv {
    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn table(&mut self, table: &Table) {
        self.word(table.len() as u64);
        for row in table.rows() {
            for value in row {
                match value {
                    Value::Null => self.word(0),
                    Value::Int(i) => self.word(*i as u64 ^ 1 << 62),
                    Value::Float(f) => self.word(f.to_bits()),
                    Value::Str(s) => s.bytes().for_each(|b| self.word(u64::from(b))),
                }
            }
        }
    }
}

/// FNV-1a over `TΠ`, `TΦ` and the per-iteration schedule: equal exactly
/// when two runs inferred the same facts, in the same iterations, with
/// the same factors.
fn digest(facts: &Table, factors: &Table, report: &GroundingReport) -> u64 {
    let mut fnv = Fnv(0xcbf2_9ce4_8422_2325);
    fnv.table(facts);
    fnv.table(factors);
    for it in &report.iterations {
        for n in [it.new_facts, it.deleted_facts, it.facts_after] {
            fnv.word(n as u64);
        }
    }
    fnv.0
}

/// Executor self times by operator kind, summed over the grounding
/// queries re-run on a finished engine's catalog.
#[derive(Debug, Default, Clone, Copy)]
pub struct ExecProfile {
    pub wall_s: f64,
    pub join_s: f64,
    pub scan_s: f64,
    pub distinct_s: f64,
    pub other_s: f64,
    /// Rows the query roots produced.
    pub rows_out: u64,
    /// Sum over plan nodes of |estimated − actual| rows, over the sum
    /// of actual rows: 0 is a perfect planner estimate.
    pub est_error_ratio: f64,
}

/// Re-run every `groundAtoms` and `groundFactors` query once on the
/// final catalog (the state the last, converging iteration ran on) and
/// split the executor's time by operator kind from its `ExecMetrics`.
pub fn profile_queries(engine: &SingleNodeEngine, threads: usize) -> Result<ExecProfile, String> {
    let catalog = engine.catalog();
    let mut plans: Vec<Plan> = Vec::new();
    for pattern in RulePattern::ALL {
        let m_table = names::mln(pattern.index());
        if catalog.contains(&m_table) {
            plans.push(ground_atoms_plan(pattern, &m_table, names::TPI));
            plans.push(ground_factors_plan(pattern, &m_table, names::TPI));
        }
    }
    plans.push(singleton_factors_plan(names::TPI));

    let executor = Executor::new(catalog).with_threads(threads);
    let mut profile = ExecProfile::default();
    let (mut abs_error, mut actual) = (0u64, 0u64);
    for plan in &plans {
        let (table, metrics) = executor.execute(plan).map_err(|e| e.to_string())?;
        black_box(table.len());
        profile.wall_s += metrics.wall.as_secs_f64();
        profile.rows_out += metrics.rows_out as u64;
        metrics.visit(&mut |node: &ExecMetrics, _| {
            let own = node.elapsed.as_secs_f64();
            let what = &node.description;
            if what.contains("Join") || what.starts_with("Index Probe") {
                profile.join_s += own;
            } else if what.starts_with("Seq Scan") {
                profile.scan_s += own;
            } else if what.contains("Distinct") {
                profile.distinct_s += own;
            } else {
                profile.other_s += own;
            }
            abs_error += node.est_rows.abs_diff(node.rows_out) as u64;
            actual += node.rows_out as u64;
        });
    }
    profile.est_error_ratio = abs_error as f64 / actual.max(1) as f64;
    Ok(profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use probkb::prelude::{generate, ReverbConfig};

    /// The decorator must be invisible to the program: same facts, same
    /// factors, same schedule with and without it.
    #[test]
    fn timed_engine_is_transparent() {
        let kb = generate(&ReverbConfig::tiny());
        let grounding = GroundingConfig::default();
        let gibbs = GibbsConfig {
            burn_in: 5,
            samples: 20,
            workers: Some(1),
            ..GibbsConfig::default()
        };
        let (plain, _) = expand_once(&kb, &grounding, &gibbs, None, 0).unwrap();
        let tracer = Tracer::new();
        let (traced, engine) = expand_once(&kb, &grounding, &gibbs, Some(&tracer), 1).unwrap();
        assert_eq!(plain.digest, traced.digest);
        assert_eq!((plain.facts, plain.factors), (traced.facts, traced.factors));
        assert!(plain.facts > kb.facts.len(), "the tiny KB infers something");
        assert!(traced.candidate_rows > 0 && plain.candidate_rows == 0);

        let spans = tracer.spans();
        let root = spans.iter().position(|s| s.name == "expand").unwrap();
        let ground = spans.iter().position(|s| s.name == "core.ground").unwrap();
        assert_eq!(spans[ground].parent, Some(root));
        for name in [
            "engine.load",
            "engine.ground_atoms",
            "engine.ground_factors",
        ] {
            let span = spans.iter().find(|s| s.name == name).unwrap();
            assert_eq!(span.parent, Some(ground), "{name}");
        }
        // Driver self time + engine calls = the ground() span.
        let engine_ns: u64 = spans
            .iter()
            .filter(|s| s.parent == Some(ground))
            .map(|s| s.duration_ns())
            .sum();
        let own = crate::spans::self_time_ns(&spans, ground);
        assert_eq!(own + engine_ns, spans[ground].duration_ns());

        let profile = profile_queries(&engine, 1).unwrap();
        assert!(profile.rows_out > 0 && profile.wall_s > 0.0);
    }
}
