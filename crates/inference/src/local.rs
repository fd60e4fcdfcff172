//! Query-time local inference: marginals over budgeted proof
//! neighborhoods (DESIGN.md, "Local grounding").
//!
//! [`LocalSession`] glues a [`LocalGrounder`] (the budgeted
//! backward/forward chaining expander in `probkb_core::local`) to this
//! crate's inference: the canonical local `TΦ` slice becomes a
//! [`FactorGraph`] via [`from_phi`], tiny subgraphs
//! (≤ [`LOCAL_EXACT_MAX_VARS`] variables) are answered by brute-force
//! [`exact_marginals`] enumeration, larger ones by the production
//! partitioned Gibbs sampler under the same `(seed, chain, sweep,
//! shard)` determinism contract as the global path — so a local answer
//! is byte-reproducible for a fixed `(epoch, query, budget)` triple.
//!
//! Answers are memoized in a [`LocalCache`]; the serving layer carries
//! the cache across `apply_delta` epochs with
//! [`LocalCache::advance`], which keeps exactly the entries whose
//! support the delta's touched-blanket set provably missed.
//!
//! [`FactorGraph`]: probkb_factorgraph::graph::FactorGraph

use probkb_core::local::{
    LocalBudget, LocalCache, LocalCacheEntry, LocalCacheStatus, LocalGrounder,
};
use probkb_core::prelude::annotate;
use probkb_factorgraph::prelude::from_phi;

use crate::exact::exact_marginals;
use crate::gibbs::GibbsConfig;
use crate::partitioned::partitioned_marginals;

/// Largest local subgraph answered by exact enumeration. Kept below the
/// `exact_marginals` hard limit (24) so local queries never panic, with
/// headroom because enumeration is `O(2^n)`.
pub const LOCAL_EXACT_MAX_VARS: usize = 20;

/// One served local marginal, with the observability fields the
/// EXPLAIN-style annotation and the wire protocol expose.
#[derive(Debug, Clone)]
pub struct LocalAnswer {
    /// The query's fact id.
    pub id: i64,
    /// Estimated `P(fact = true)`.
    pub p: f64,
    /// Variables in the local subgraph.
    pub nodes: u64,
    /// Factors materialized.
    pub factors: u64,
    /// Factor admissions the budget refused (0 ⇒ the subgraph is the
    /// query's whole connected component ⇒ `p` matches the global
    /// sampler within sampler tolerance).
    pub frontier_stops: u64,
    /// The budget the answer was computed under.
    pub budget: LocalBudget,
    /// True when exact enumeration produced `p` (≤ 20 variables).
    pub exact: bool,
    /// How the cache participated.
    pub cache: LocalCacheStatus,
}

impl LocalAnswer {
    /// EXPLAIN-style annotation:
    /// `LocalGround  (nodes=…, factors=…, budget=…, frontier_stops=…, cache=…, method=…)`.
    pub fn annotate(&self) -> String {
        annotate(
            "LocalGround",
            &[
                ("nodes", self.nodes.to_string()),
                ("factors", self.factors.to_string()),
                ("budget", self.budget.render()),
                ("frontier_stops", self.frontier_stops.to_string()),
                ("cache", self.cache.as_str().to_string()),
                (
                    "method",
                    if self.exact { "exact" } else { "gibbs" }.to_string(),
                ),
            ],
        )
    }
}

/// A query-time local inference session over one epoch's `TΠ` snapshot.
#[derive(Debug)]
pub struct LocalSession {
    grounder: LocalGrounder,
    cache: LocalCache,
    gibbs: GibbsConfig,
    default_budget: LocalBudget,
    epoch: u64,
}

impl LocalSession {
    /// Build a session with an empty cache and the process default
    /// budget (`PROBKB_LOCAL_BUDGET`).
    pub fn new(grounder: LocalGrounder, gibbs: GibbsConfig, epoch: u64) -> Self {
        Self::with_cache(grounder, gibbs, epoch, LocalCache::new())
    }

    /// Build a session seeded with a cache carried from a previous
    /// epoch (entries must already be advanced to `epoch`).
    pub fn with_cache(
        grounder: LocalGrounder,
        gibbs: GibbsConfig,
        epoch: u64,
        cache: LocalCache,
    ) -> Self {
        LocalSession {
            grounder,
            cache,
            gibbs,
            default_budget: LocalBudget::from_env(),
            epoch,
        }
    }

    /// The epoch this session serves.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The underlying grounder.
    pub fn grounder(&self) -> &LocalGrounder {
        &self.grounder
    }

    /// The memoized answers.
    pub fn cache(&self) -> &LocalCache {
        &self.cache
    }

    /// Clone the cache out (the writer carries it to the next epoch).
    pub fn cache_snapshot(&self) -> LocalCache {
        self.cache.clone()
    }

    /// The budget used when a request does not carry one.
    pub fn default_budget(&self) -> LocalBudget {
        self.default_budget
    }

    /// Override the default budget (tests; the server passes explicit
    /// budgets through from the wire).
    pub fn set_default_budget(&mut self, budget: LocalBudget) {
        self.default_budget = budget;
    }

    /// Local marginal of fact `id` under `budget` (default budget when
    /// `None`). Returns `None` for a fact id the snapshot doesn't hold.
    pub fn marginal(&mut self, id: i64, budget: Option<LocalBudget>) -> Option<LocalAnswer> {
        let budget = budget.unwrap_or(self.default_budget);
        let key = self.grounder.key_of(id)?;
        if let Some(entry) = self.cache.get(&key, budget, self.epoch) {
            return Some(LocalAnswer {
                id,
                p: entry.p,
                nodes: entry.nodes,
                factors: entry.factors,
                frontier_stops: entry.frontier_stops,
                budget,
                exact: entry.exact,
                cache: if entry.carried {
                    LocalCacheStatus::Carried
                } else {
                    LocalCacheStatus::Hit
                },
            });
        }

        let ground = self.grounder.expand(id, budget)?;
        let graph = from_phi(&ground.factors);
        let n = graph.graph.num_vars();
        let exact = n <= LOCAL_EXACT_MAX_VARS;
        let p = if n == 0 {
            // No factor touches the subgraph: a fact with no prior and
            // no derivations is uniform.
            0.5
        } else {
            let marginals = if exact {
                exact_marginals(&graph.graph)
            } else {
                partitioned_marginals(&graph.graph, &self.gibbs).marginals.p
            };
            match graph.var_of(id) {
                Some(v) => marginals[v],
                None => 0.5,
            }
        };

        self.cache.put(
            key,
            budget,
            LocalCacheEntry {
                epoch: self.epoch,
                p,
                nodes: ground.fact_ids.len() as u64,
                factors: ground.factors.len() as u64,
                frontier_stops: ground.frontier_stops,
                exact,
                support: ground.fact_ids.clone(),
                carried: false,
            },
        );
        Some(LocalAnswer {
            id,
            p,
            nodes: ground.fact_ids.len() as u64,
            factors: ground.factors.len() as u64,
            frontier_stops: ground.frontier_stops,
            budget,
            exact,
            cache: LocalCacheStatus::Miss,
        })
    }

    /// Local marginal by `(R, x, C1, y, C2)` key instead of fact id.
    pub fn marginal_by_key(
        &mut self,
        key: &[i64; 5],
        budget: Option<LocalBudget>,
    ) -> Option<LocalAnswer> {
        let id = self.grounder.id_of(key)?;
        self.marginal(id, budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::sigmoid;
    use probkb_core::prelude::{expand, ExpandOptions};
    use probkb_kb::prelude::parse;

    fn session(text: &str) -> LocalSession {
        let kb = parse(text).unwrap().build();
        let expansion = expand(&kb, &ExpandOptions::default()).unwrap();
        let grounder = LocalGrounder::new(expansion.outcome.facts, &kb.rules).unwrap();
        LocalSession::new(grounder, GibbsConfig::default(), 0)
    }

    #[test]
    fn isolated_weighted_fact_is_sigmoid_of_weight() {
        let mut s = session("fact 0.9 q(a:A, b:B)");
        let ans = s.marginal(0, Some(LocalBudget::UNLIMITED)).unwrap();
        assert!(ans.exact);
        assert!((ans.p - sigmoid(0.9)).abs() < 1e-12, "p={}", ans.p);
        assert_eq!(ans.cache, LocalCacheStatus::Miss);
        // Second ask is a hit with the same bits.
        let again = s.marginal(0, Some(LocalBudget::UNLIMITED)).unwrap();
        assert_eq!(again.cache, LocalCacheStatus::Hit);
        assert_eq!(again.p.to_bits(), ans.p.to_bits());
    }

    #[test]
    fn chained_fact_matches_exact_two_var_enumeration() {
        let mut s = session(
            r#"
            fact 0.9 q(a:A, b:B)
            rule 1.5 p(x:A, y:B) :- q(x, y)
            "#,
        );
        // TΠ: id 0 = q(a,b) weighted, id 1 = p(a,b) inferred.
        let ans = s.marginal(1, Some(LocalBudget::UNLIMITED)).unwrap();
        assert!(ans.exact);
        assert_eq!(ans.nodes, 2);
        assert_eq!(ans.factors, 2); // singleton + rule factor
        assert_eq!(ans.frontier_stops, 0);
        // Exact 2-var enumeration: states (q,p) with φ_q = e^{0.9·q},
        // φ_r = e^{1.5·[q→p]} (violated only at q=1,p=0).
        let wq = 0.9f64;
        let wr = 1.5f64;
        let z00 = 1.0 * wr.exp(); // q=0,p=0: rule satisfied
        let z01 = 1.0 * wr.exp(); // q=0,p=1
        let z10 = wq.exp() * 1.0; // q=1,p=0: rule violated
        let z11 = wq.exp() * wr.exp();
        let expect = (z01 + z11) / (z00 + z01 + z10 + z11);
        assert!((ans.p - expect).abs() < 1e-9, "p={} expect={expect}", ans.p);
    }

    #[test]
    fn unknown_fact_is_none_and_budget_zero_is_uniform() {
        let mut s = session(
            r#"
            fact 0.9 q(a:A, b:B)
            rule 1.5 p(x:A, y:B) :- q(x, y)
            "#,
        );
        assert!(s.marginal(77, None).is_none());
        let ans = s.marginal(1, Some(LocalBudget::uniform(0))).unwrap();
        assert_eq!(ans.nodes, 1);
        assert_eq!(ans.factors, 0);
        assert!(ans.frontier_stops > 0);
        assert!((ans.p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn annotation_carries_all_fields() {
        let mut s = session("fact 0.9 q(a:A, b:B)");
        let ans = s.marginal(0, Some(LocalBudget::uniform(8))).unwrap();
        let a = ans.annotate();
        for needle in [
            "LocalGround",
            "nodes=1",
            "factors=1",
            "budget=8/8",
            "frontier_stops=",
            "cache=miss",
            "method=exact",
        ] {
            assert!(a.contains(needle), "missing {needle} in {a}");
        }
    }
}
