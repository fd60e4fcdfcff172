//! Exact marginal inference by enumeration — the test oracle that keeps
//! the sampler honest on small graphs.

use probkb_factorgraph::prelude::FactorGraph;

/// Exact marginals `P(X_v = 1)` by summing over all `2^n` assignments.
///
/// # Panics
/// Panics when the graph has more than 24 variables (enumeration would be
/// unreasonable; use the sampler).
pub fn exact_marginals(graph: &FactorGraph) -> Vec<f64> {
    let n = graph.num_vars();
    assert!(n <= 24, "exact inference limited to 24 variables, got {n}");
    let mut numerators = vec![0.0f64; n];
    let mut z = 0.0f64;
    let mut assignment = vec![false; n];
    // Stream assignments via binary counting; stabilize with the max
    // log-score to avoid overflow on large weights.
    let mut log_scores = Vec::with_capacity(1usize << n);
    for mask in 0u64..(1u64 << n) {
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (mask >> v) & 1 == 1;
        }
        log_scores.push(graph.log_score(&assignment));
    }
    let max_log = log_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for (mask, log_score) in log_scores.iter().enumerate() {
        let w = (log_score - max_log).exp();
        z += w;
        for (v, numerator) in numerators.iter_mut().enumerate() {
            if (mask >> v) & 1 == 1 {
                *numerator += w;
            }
        }
    }
    numerators.iter().map(|&x| x / z).collect()
}

/// Exact log partition function `ln Z` (for diagnostics and tests).
pub fn log_partition(graph: &FactorGraph) -> f64 {
    let n = graph.num_vars();
    assert!(n <= 24, "exact inference limited to 24 variables, got {n}");
    let mut assignment = vec![false; n];
    let mut max_log = f64::NEG_INFINITY;
    let mut scores = Vec::with_capacity(1usize << n);
    for mask in 0u64..(1u64 << n) {
        for (v, slot) in assignment.iter_mut().enumerate() {
            *slot = (mask >> v) & 1 == 1;
        }
        let s = graph.log_score(&assignment);
        max_log = max_log.max(s);
        scores.push(s);
    }
    max_log + scores.iter().map(|s| (s - max_log).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gibbs::sigmoid;
    use probkb_factorgraph::prelude::Factor;

    #[test]
    fn single_singleton_matches_sigmoid() {
        for w in [-2.0, 0.0, 0.7, 3.5] {
            let g = FactorGraph::new(1, vec![Factor::singleton(0, w)]);
            let m = exact_marginals(&g);
            assert!((m[0] - sigmoid(w)).abs() < 1e-12, "w={w}");
        }
    }

    #[test]
    fn empty_graph_is_uniform() {
        let g = FactorGraph::new(3, vec![]);
        for p in exact_marginals(&g) {
            assert!((p - 0.5).abs() < 1e-12);
        }
        // ln Z = ln 2^3.
        assert!((log_partition(&g) - (8f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn implication_computed_by_hand() {
        // Vars (b, h); factors: singleton(b, w1), rule h <- b with w2.
        // Assignments (b,h): (0,0): w2 (vacuous); (0,1): w2; (1,0): w1;
        // (1,1): w1 + w2.
        let w1 = 1.0;
        let w2 = 0.5;
        let g = FactorGraph::new(
            2,
            vec![Factor::singleton(0, w1), Factor::rule(1, vec![0], w2)],
        );
        let e = |x: f64| x.exp();
        let z = e(w2) + e(w2) + e(w1) + e(w1 + w2);
        let p_b = (e(w1) + e(w1 + w2)) / z;
        let p_h = (e(w2) + e(w1 + w2)) / z;
        let m = exact_marginals(&g);
        assert!((m[0] - p_b).abs() < 1e-12);
        assert!((m[1] - p_h).abs() < 1e-12);
    }

    #[test]
    fn large_weights_do_not_overflow() {
        let g = FactorGraph::new(2, vec![Factor::rule(1, vec![0], 800.0)]);
        let m = exact_marginals(&g);
        assert!(m.iter().all(|p| p.is_finite()));
        // The one violating assignment (b=1, h=0) has ~zero mass; the
        // other three are uniform: P(b)=0.5 is wrong — P(b)= (01? ...)
        // assignments: (0,0),(0,1),(1,1) equal mass → P(b=1)=1/3, P(h=1)=2/3.
        assert!((m[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((m[1] - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "limited to 24")]
    fn refuses_huge_graphs() {
        let g = FactorGraph::new(30, vec![]);
        let _ = exact_marginals(&g);
    }
}
