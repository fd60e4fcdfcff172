//! The single-node engine: ProbKB on "PostgreSQL" — one facts table, six
//! MLN tables, batch join queries through the relational executor.
//!
//! One engine serves two evaluation modes. [`SingleNodeEngine::new`] is
//! the paper's Algorithm 1 verbatim: every iteration re-joins the whole
//! of `TΠ`, so iteration `n` re-derives everything iterations `1..n-1`
//! already found. [`SingleNodeEngine::semi_naive`] (an extension beyond
//! the paper) is the classic datalog fix: `insert_facts` records the
//! rows it appends as the **frontier** `ΔTΠ`, and while a frontier table
//! exists `ground_atoms` only runs joins in which at least one body atom
//! binds to a frontier row (`queries::frontier_atoms_plans`). The
//! fixpoint is identical (standard semi-naive correctness); only the
//! per-iteration work shrinks. Iteration 1 has no frontier yet and runs
//! the full partition plans in both modes.

use std::collections::HashSet;

use probkb_kb::prelude::RulePattern;
use probkb_relational::prelude::*;
use probkb_support::sync::{default_threads, map_indices};

use crate::engine::{GroundingEngine, ViolatorKey};
use crate::queries::{
    frontier_atoms_plans, ground_atoms_plan, ground_factors_plan, singleton_factors_plan,
    violators_plan,
};
use crate::relmodel::{candidate_schema, names, tphi_schema, tpi, tpi_schema, RelationalKb};

/// Catalog name of the frontier table `ΔTΠ`: the rows the last
/// `insert_facts` appended (semi-naive mode only). It rides along in
/// [`GroundingEngine::export_state`], so a resumed engine continues from
/// exactly the frontier it was killed at.
const FRONTIER: &str = "T_delta";

/// Single-node batch-grounding engine.
#[derive(Debug)]
pub struct SingleNodeEngine {
    catalog: Catalog,
    patterns: Vec<RulePattern>,
    threads: usize,
    optimize: bool,
    semi_naive: bool,
}

impl Default for SingleNodeEngine {
    fn default() -> Self {
        SingleNodeEngine {
            catalog: Catalog::new(),
            patterns: Vec::new(),
            threads: default_threads(),
            optimize: default_optimize(),
            semi_naive: false,
        }
    }
}

impl SingleNodeEngine {
    /// A fresh, unloaded engine running the paper's naive Algorithm 1
    /// (engine name `"ProbKB"`).
    pub fn new() -> Self {
        SingleNodeEngine::default()
    }

    /// A fresh, unloaded engine in semi-naive mode (engine name
    /// `"ProbKB-sn"`): per-iteration cost proportional to the new facts
    /// instead of the whole KB, same grounding output.
    pub fn semi_naive() -> Self {
        SingleNodeEngine {
            semi_naive: true,
            ..SingleNodeEngine::default()
        }
    }

    /// Builder-style [`GroundingEngine::set_threads`].
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Builder-style [`GroundingEngine::set_optimize`].
    pub fn with_optimize(mut self, optimize: bool) -> Self {
        self.optimize = optimize;
        self
    }

    /// Direct access to the underlying catalog (tests, lineage queries).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    fn run(&self, plan: &Plan) -> Result<Table> {
        Executor::new(&self.catalog)
            .with_threads(self.threads)
            .with_optimize(self.optimize)
            .execute_table(plan)
    }

    /// Run independent per-partition plans on the fork-join pool and
    /// concatenate their outputs in plan order (so the result matches the
    /// serial loop row-for-row before deduplication).
    fn run_all_into(&self, plans: &[Plan], into: &mut Table) -> Result<()> {
        let outputs = map_indices(plans.len(), self.threads, |i| self.run(&plans[i]));
        for out in outputs {
            into.extend_from(out?);
        }
        Ok(())
    }
}

impl GroundingEngine for SingleNodeEngine {
    fn name(&self) -> &str {
        if self.semi_naive {
            "ProbKB-sn"
        } else {
            "ProbKB"
        }
    }

    fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    fn set_optimize(&mut self, optimize: bool) {
        self.optimize = optimize;
    }

    fn load(&mut self, rel: &RelationalKb) -> Result<()> {
        self.catalog.create_or_replace(names::TPI, rel.t_pi.clone());
        self.catalog
            .create_or_replace(names::TOMEGA, rel.t_omega.clone());
        // A reloaded engine starts without a frontier, like a fresh one.
        self.catalog.drop_table(FRONTIER);
        self.patterns.clear();
        for (pattern, table) in &rel.mln {
            self.catalog
                .create_or_replace(names::mln(pattern.index()), table.clone());
            self.patterns.push(*pattern);
        }
        Ok(())
    }

    fn ground_atoms(&mut self) -> Result<(Table, usize)> {
        // One plan per structural partition (two for a length-3 partition
        // once a frontier exists); the plans only read the catalog, so
        // they run concurrently on the fork-join pool.
        let has_frontier = self.catalog.contains(FRONTIER);
        let plans: Vec<Plan> = self
            .patterns
            .iter()
            .flat_map(|p| {
                let m_table = names::mln(p.index());
                if has_frontier {
                    frontier_atoms_plans(*p, &m_table, FRONTIER, names::TPI)
                } else {
                    vec![ground_atoms_plan(*p, &m_table, names::TPI)]
                }
            })
            .collect();
        let mut all = Table::empty(candidate_schema());
        self.run_all_into(&plans, &mut all)?;
        all.dedup_rows();
        Ok((all, plans.len()))
    }

    fn insert_facts(&mut self, rows: Vec<Row>) -> Result<usize> {
        if self.semi_naive {
            // The new rows are the next iteration's frontier.
            self.catalog.create_or_replace(
                FRONTIER,
                Table::from_rows_unchecked(tpi_schema(), rows.clone()),
            );
        }
        self.catalog.insert_rows_unchecked(names::TPI, rows)
    }

    fn find_violators(&mut self) -> Result<HashSet<ViolatorKey>> {
        let mut violators = HashSet::new();
        for alpha in [1, 2] {
            let out = self.run(&violators_plan(names::TPI, names::TOMEGA, alpha))?;
            for row in out.rows() {
                violators.insert((
                    row[0].as_int().expect("entity id"),
                    row[1].as_int().expect("class id"),
                ));
            }
        }
        Ok(violators)
    }

    fn delete_violators(&mut self, violators: &HashSet<ViolatorKey>) -> Result<usize> {
        if violators.is_empty() {
            return Ok(0);
        }
        let keys: HashSet<Vec<Value>> = violators
            .iter()
            .map(|(e, c)| vec![Value::Int(*e), Value::Int(*c)])
            .collect();
        let delete_from = |table: &str| -> Result<usize> {
            let subj = self
                .catalog
                .delete_matching(table, &[tpi::X, tpi::C1], &keys)?;
            let obj = self
                .catalog
                .delete_matching(table, &[tpi::Y, tpi::C2], &keys)?;
            Ok(subj + obj)
        };
        // The frontier must not resurrect deleted facts' derivations, so
        // it is cleaned too — but only `TΠ` deletions are reported.
        if self.catalog.contains(FRONTIER) {
            delete_from(FRONTIER)?;
        }
        delete_from(names::TPI)
    }

    fn redistribute(&mut self) -> Result<()> {
        Ok(()) // single node: nothing to collocate
    }

    fn ground_factors(&mut self) -> Result<(Table, usize)> {
        // Bag union (∪B): duplicates across partitions are distinct
        // factors (Proposition 1 discussion). Plan-order concatenation
        // keeps the bag's row order identical to the serial loop. Factors
        // always run over the full closure, in both modes.
        let mut plans: Vec<Plan> = self
            .patterns
            .iter()
            .map(|p| ground_factors_plan(*p, &names::mln(p.index()), names::TPI))
            .collect();
        plans.push(singleton_factors_plan(names::TPI));
        let mut phi = Table::empty(tphi_schema());
        self.run_all_into(&plans, &mut phi)?;
        Ok((phi, plans.len()))
    }

    fn fact_count(&self) -> Result<usize> {
        self.catalog.row_count(names::TPI)
    }

    fn facts(&self) -> Result<Table> {
        Ok((*self.catalog.get(names::TPI)?).clone())
    }

    fn export_state(&self) -> Result<Vec<(String, Table)>> {
        let mut state = Vec::new();
        for name in self.catalog.names() {
            state.push((name.clone(), (*self.catalog.get(&name)?).clone()));
        }
        Ok(state)
    }

    fn import_state(&mut self, state: &[(String, Table)]) -> Result<()> {
        self.catalog = Catalog::new();
        for (name, table) in state {
            self.catalog.create_or_replace(name.clone(), table.clone());
        }
        // Rebuild the pattern list from which Mi tables exist; iterating
        // ALL reproduces load()'s partition order.
        self.patterns = RulePattern::ALL
            .into_iter()
            .filter(|p| self.catalog.contains(&names::mln(p.index())))
            .collect();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::{ground, GroundingConfig};
    use crate::relmodel::load;
    use probkb_kb::prelude::parse;

    fn engine_with(text: &str) -> (SingleNodeEngine, crate::relmodel::RelationalKb) {
        let kb = parse(text).unwrap().build();
        let rel = load(&kb);
        let mut engine = SingleNodeEngine::new();
        engine.load(&rel).unwrap();
        (engine, rel)
    }

    #[test]
    fn ground_atoms_applies_rules_in_batches() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.96 born_in(RG:Writer, NYC:City)
            fact 0.93 born_in(RG:Writer, Brooklyn:Place)
            rule 1.40 live_in(x:Writer, y:Place) :- born_in(x, y)
            rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
            rule 2.68 grow_up_in(x:Writer, y:Place) :- born_in(x, y)
            rule 0.74 grow_up_in(x:Writer, y:City) :- born_in(x, y)
            "#,
        );
        let (candidates, queries) = engine.ground_atoms().unwrap();
        // Four new facts (live_in/grow_up_in × NYC/Brooklyn) from ONE query
        // — all four M1 rules applied in a single batch.
        assert_eq!(queries, 1);
        assert_eq!(candidates.len(), 4);
    }

    #[test]
    fn length3_rules_join_on_z() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.96 born_in(RG:Writer, NYC:City)
            fact 0.93 born_in(RG:Writer, Brooklyn:Place)
            rule 0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)
            "#,
        );
        let (candidates, _) = engine.ground_atoms().unwrap();
        assert_eq!(candidates.len(), 1); // located_in(Brooklyn, NYC)
    }

    #[test]
    fn violators_found_and_deleted() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.9 born_in(Mandel:Person, Berlin:City)
            fact 0.9 born_in(Mandel:Person, Baltimore:City)
            fact 0.9 born_in(Freud:Person, Vienna:City)
            functional born_in 1 1
            "#,
        );
        let violators = engine.find_violators().unwrap();
        assert_eq!(violators.len(), 1); // Mandel violates: two birth cities
        let deleted = engine.delete_violators(&violators).unwrap();
        assert_eq!(deleted, 2); // both Mandel facts removed
        assert_eq!(engine.fact_count().unwrap(), 1); // Freud survives
    }

    #[test]
    fn pseudo_functional_degree_allows_slack() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.9 live_in(A:Person, P1:City)
            fact 0.9 live_in(A:Person, P2:City)
            fact 0.9 live_in(B:Person, P1:City)
            functional live_in 1 2
            "#,
        );
        // A lives in two cities, allowed at degree 2.
        assert!(engine.find_violators().unwrap().is_empty());
    }

    #[test]
    fn type2_constraints_check_object_side() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.9 capital_of(Delhi:City, India:Country)
            fact 0.9 capital_of(Calcutta:City, India:Country)
            functional capital_of 2 1
            "#,
        );
        let violators = engine.find_violators().unwrap();
        assert_eq!(violators.len(), 1); // India has two capitals
        assert_eq!(engine.delete_violators(&violators).unwrap(), 2);
    }

    #[test]
    fn class_restricted_constraints_only_see_their_classes() {
        // born_in is functional only for (Person, City); the
        // (Person, Country) facts are exempt.
        let (mut engine, _) = engine_with(
            r#"
            fact 0.9 born_in(M:Person, Berlin:City)
            fact 0.9 born_in(M:Person, Munich:City)
            fact 0.9 born_in(M:Person, Germany:Country)
            fact 0.9 born_in(M:Person, Bavaria:Country)
            functional born_in 1 1 Person City
            "#,
        );
        let violators = engine.find_violators().unwrap();
        assert_eq!(violators.len(), 1); // (M, Person) — two birth cities
        // Deleting removes ALL facts of the violating entity (greedy
        // removal, §5.2), not only the in-class ones.
        assert_eq!(engine.delete_violators(&violators).unwrap(), 4);
    }

    #[test]
    fn unrestricted_constraints_span_class_pairs() {
        // The same data with an unrestricted constraint: the Country pair
        // also counts, but groups are per (R, x, C1, C2), so M violates
        // in both class groups and is detected once.
        let (mut engine, _) = engine_with(
            r#"
            fact 0.9 born_in(M:Person, Berlin:City)
            fact 0.9 born_in(M:Person, Munich:City)
            fact 0.9 born_in(M:Person, Germany:Country)
            functional born_in 1 1
            "#,
        );
        let violators = engine.find_violators().unwrap();
        assert_eq!(violators.len(), 1);
    }

    #[test]
    fn stats_rebuild_through_state_roundtrip() {
        // Planner statistics must never go stale across checkpoint
        // export/import: the imported catalog replaces every table, which
        // invalidates cached stats, and the next lookup re-analyzes.
        let (mut engine, _) = engine_with(
            r#"
            fact 0.96 born_in(RG:Writer, NYC:City)
            fact 0.93 born_in(RG:Writer, Brooklyn:Place)
            rule 1.40 live_in(x:Writer, y:Place) :- born_in(x, y)
            "#,
        );
        let before = engine.catalog().stats_of(names::TPI).unwrap();
        assert_eq!(before.row_count(), 2);

        // Mutate after the stats were cached, then export.
        engine
            .insert_facts(vec![vec![
                Value::Int(2),
                Value::Int(0),
                Value::Int(0),
                Value::Int(0),
                Value::Int(1),
                Value::Int(1),
                Value::Null,
            ]])
            .unwrap();
        let state = engine.export_state().unwrap();

        let mut resumed = SingleNodeEngine::new();
        resumed.import_state(&state).unwrap();
        let after = resumed.catalog().stats_of(names::TPI).unwrap();
        assert_eq!(after.row_count(), 3);
        assert_eq!(after.row_count(), resumed.fact_count().unwrap());
    }

    // ----- semi-naive mode -----

    fn chain_kb(n: usize) -> probkb_kb::prelude::ProbKb {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        text.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
        text.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
        parse(&text).unwrap().build()
    }

    fn keys(t: &Table) -> Vec<Vec<i64>> {
        let mut k: Vec<Vec<i64>> = t
            .rows()
            .iter()
            .map(|r| tpi::KEY.iter().map(|&c| r[c].as_int().unwrap()).collect())
            .collect();
        k.sort();
        k
    }

    fn no_constraints(max_iterations: usize) -> GroundingConfig {
        GroundingConfig {
            max_iterations,
            apply_constraints: false,
            ..GroundingConfig::default()
        }
    }

    #[test]
    fn semi_naive_matches_naive_on_transitive_closure() {
        let kb = chain_kb(12);
        let config = no_constraints(20);
        let n = ground(&kb, &mut SingleNodeEngine::new(), &config).unwrap();
        let s = ground(&kb, &mut SingleNodeEngine::semi_naive(), &config).unwrap();
        // Full transitive closure of a 12-edge chain: 13 nodes → 78 reach
        // pairs + 12 base next facts.
        assert_eq!(n.facts.len(), 12 + 78);
        assert_eq!(keys(&s.facts), keys(&n.facts));
        assert_eq!(s.factors.len(), n.factors.len());
        assert!(s.report.converged && n.report.converged);
        assert_eq!(n.report.engine, "ProbKB");
        assert_eq!(s.report.engine, "ProbKB-sn");
    }

    #[test]
    fn semi_naive_matches_naive_on_table1() {
        let kb = parse(
            r#"
            fact 0.96 born_in(Ruth_Gruber:Writer, New_York_City:City)
            fact 0.93 born_in(Ruth_Gruber:Writer, Brooklyn:Place)
            rule 1.40 live_in(x:Writer, y:Place) :- born_in(x, y)
            rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
            rule 0.32 located_in(x:Place, y:City) :- live_in(z:Writer, x), live_in(z, y)
            rule 0.52 located_in(x:Place, y:City) :- born_in(z:Writer, x), born_in(z, y)
            functional born_in 1 1
            "#,
        )
        .unwrap()
        .build();
        let config = GroundingConfig::default();
        let n = ground(&kb, &mut SingleNodeEngine::new(), &config).unwrap();
        let s = ground(&kb, &mut SingleNodeEngine::semi_naive(), &config).unwrap();
        assert_eq!(keys(&s.facts), keys(&n.facts));
        assert_eq!(s.factors.len(), n.factors.len());
    }

    #[test]
    fn frontier_shrinks_per_iteration_work() {
        // On a long chain, late iterations touch only the frontier: the
        // frontier table holds the last iteration's new facts, not the KB.
        let kb = chain_kb(30);
        let mut sn = SingleNodeEngine::semi_naive();
        let out = ground(&kb, &mut sn, &no_constraints(40)).unwrap();
        assert!(out.report.converged);
        let news: Vec<usize> = out.report.iterations.iter().map(|i| i.new_facts).collect();
        assert!(news.windows(2).any(|w| w[1] < w[0]), "work should shrink");
        // The converging iteration inserts nothing, so the engine is left
        // holding the last non-empty frontier.
        let last_new = news[news.len() - 2];
        assert_eq!(sn.catalog().row_count(FRONTIER).unwrap(), last_new);
        // The naive mode never materializes one.
        let mut naive = SingleNodeEngine::new();
        ground(&kb, &mut naive, &no_constraints(40)).unwrap();
        assert!(!naive.catalog().contains(FRONTIER));
    }

    #[test]
    fn preclean_runs_before_any_frontier_exists() {
        let kb = parse(
            r#"
            fact 0.9 born_in(M:Person, A:City)
            fact 0.9 born_in(M:Person, B:City)
            rule 1.0 live_in(x:Person, y:City) :- born_in(x, y)
            functional born_in 1 1
            "#,
        )
        .unwrap()
        .build();
        let config = GroundingConfig {
            preclean: true,
            ..GroundingConfig::default()
        };
        let mut sn = SingleNodeEngine::semi_naive();
        let out = ground(&kb, &mut sn, &config).unwrap();
        // Preclean removes both M facts from TΠ before iteration 1's full
        // plans run, so nothing is derivable.
        assert_eq!(out.report.precleaned, 2);
        assert_eq!(out.facts.len(), 0);
        assert_eq!(out.report.inferred_facts(), 0);
    }

    #[test]
    fn query_count_tracks_the_frontier_plans() {
        let kb = chain_kb(5);
        let mut sn = SingleNodeEngine::semi_naive();
        let out = ground(&kb, &mut sn, &no_constraints(15)).unwrap();
        // Two partitions (P1 length-2, P4 length-3). Iteration 1 has no
        // frontier: one query per partition. Later: 1 + 2 = 3.
        let queries: Vec<usize> = out.report.iterations.iter().map(|i| i.queries).collect();
        assert_eq!(queries[0], 2);
        assert!(queries.len() > 1);
        for q in &queries[1..] {
            assert!(*q <= 3, "got {q} queries");
        }
    }

    #[test]
    fn constraint_deletions_count_t_pi_rows_only() {
        // Iteration 1 derives q(a,b2), v(a,b1) and v(c,b1); `a` then
        // violates `functional q 1 1` and loses all six of its TΠ facts,
        // only two of which are frontier rows. Halving a TΠ + frontier
        // total (6 + 2) used to report 4.
        let kb = parse(
            r#"
            fact 0.9 q(a:A, b1:B)
            fact 0.9 s(a:A, b2:B)
            fact 0.9 t(a:A, b3:B)
            fact 0.9 u(a:A, b4:B)
            fact 0.9 q(c:A, b1:B)
            rule 1.0 q(x:A, y:B) :- s(x, y)
            rule 1.0 v(x:A, y:B) :- q(x, y)
            functional q 1 1
            "#,
        )
        .unwrap()
        .build();
        let counts = |engine: &mut SingleNodeEngine| -> Vec<(usize, usize, usize)> {
            ground(&kb, engine, &GroundingConfig::default())
                .unwrap()
                .report
                .iterations
                .iter()
                .map(|i| (i.new_facts, i.deleted_facts, i.facts_after))
                .collect()
        };
        let expected = vec![(3, 6, 2), (0, 0, 2)];
        assert_eq!(counts(&mut SingleNodeEngine::new()), expected);
        assert_eq!(counts(&mut SingleNodeEngine::semi_naive()), expected);
    }

    #[test]
    fn ground_factors_includes_singletons() {
        let (mut engine, _) = engine_with(
            r#"
            fact 0.96 born_in(RG:Writer, NYC:City)
            rule 1.53 live_in(x:Writer, y:City) :- born_in(x, y)
            "#,
        );
        let (phi0, _) = engine.ground_factors().unwrap();
        // Before inferring anything: 1 singleton, 0 rule factors (the head
        // fact does not exist yet).
        assert_eq!(phi0.len(), 1);
    }
}
