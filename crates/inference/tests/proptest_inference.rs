//! Property tests: the sampler and BP validated against the exact oracle on
//! random small factor graphs.

use probkb_support::check::prelude::*;

use probkb_factorgraph::prelude::{Factor, FactorGraph};
use probkb_inference::prelude::*;

/// Random small factor graphs (≤ 7 variables so exact enumeration is
/// instant) with up to `max_body` body atoms per factor. Beyond 2 atoms —
/// or with a variable repeated across non-adjacent positions — a factor
/// leaves the paper's shapes and takes `BatchedPlan`'s general fallback.
fn arb_graph_with(max_body: usize) -> impl Strategy<Value = FactorGraph> {
    (2usize..7).prop_flat_map(move |n| {
        let body = prop::collection::vec(0..n, 0..=max_body);
        let factor = (0..n, body, -2.0f64..2.0).prop_map(move |(head, mut body, weight)| {
            body.retain(|&v| v != head);
            body.dedup();
            Factor { head, body, weight }
        });
        prop::collection::vec(factor, 1..8).prop_map(move |f| FactorGraph::new(n, f))
    })
}

fn arb_graph() -> impl Strategy<Value = FactorGraph> {
    arb_graph_with(2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Gibbs marginals converge to the exact ones.
    #[test]
    fn gibbs_matches_exact(g in arb_graph_with(3)) {
        let exact = exact_marginals(&g);
        let est = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 300,
                samples: 12_000,
                seed: 17,
                workers: Some(3),
                ..GibbsConfig::default()
            },
        )
        .marginals;
        for (v, (e, m)) in exact.iter().zip(est.p.iter()).enumerate() {
            prop_assert!((e - m).abs() < 0.05, "var {v}: exact {e} vs gibbs {m}");
        }
    }

    /// Exact marginals are proper probabilities and respect evidence sign:
    /// adding a positive singleton never lowers that variable's marginal.
    #[test]
    fn marginals_monotone_in_evidence(g in arb_graph(), boost in 0.1f64..2.0) {
        let before = exact_marginals(&g);
        prop_assert!(before.iter().all(|p| (0.0..=1.0).contains(p)));
        let mut factors = g.factors().to_vec();
        factors.push(Factor::singleton(0, boost));
        let g2 = FactorGraph::new(g.num_vars(), factors);
        let after = exact_marginals(&g2);
        prop_assert!(
            after[0] >= before[0] - 1e-9,
            "positive evidence lowered P: {} -> {}",
            before[0],
            after[0]
        );
    }

    /// MAP solutions: annealing's score is ≥ ICM's, and the exact MAP
    /// scores ≥ both.
    #[test]
    fn map_solver_ordering(g in arb_graph()) {
        let oracle = exact_map(&g);
        let (icm_sol, _) = icm(&g);
        let annealed = anneal(&g, &AnnealConfig { sweeps: 150, seed: 31, ..AnnealConfig::default() });
        prop_assert!(oracle.log_score >= icm_sol.log_score - 1e-9);
        prop_assert!(oracle.log_score >= annealed.log_score - 1e-9);
        prop_assert!(annealed.log_score >= icm_sol.log_score - 1e-9);
    }

    /// BP beliefs are proper probabilities, and exact when the graph is a
    /// tree (every variable in ≤ 1 multi-variable factor ⇒ acyclic).
    #[test]
    fn bp_sane_and_exact_on_trees(g in arb_graph()) {
        let r = belief_propagation(&g, &BpConfig::default());
        prop_assert!(r.marginals.p.iter().all(|p| (0.0..=1.0).contains(p)));

        let mut seen = vec![0usize; g.num_vars()];
        for f in g.factors() {
            if !f.body.is_empty() {
                for v in f.vars() {
                    seen[v] += 1;
                }
            }
        }
        let tree_like = seen.iter().all(|&c| c <= 1);
        if tree_like && r.converged {
            let exact = exact_marginals(&g);
            for (v, (e, m)) in exact.iter().zip(r.marginals.p.iter()).enumerate() {
                prop_assert!((e - m).abs() < 1e-4, "var {v}: exact {e} vs bp {m}");
            }
        }
    }
}
