//! Property tests for factor graphs, coloring, and lineage.

use probkb_support::check::prelude::*;

use probkb_factorgraph::prelude::*;

/// Random factor graphs: `n` variables, factors with 0–2 body vars.
fn arb_graph() -> impl Strategy<Value = FactorGraph> {
    (2usize..12).prop_flat_map(|n| {
        let factor = (0..n, prop::collection::vec(0..n, 0..=2), -3.0f64..3.0).prop_map(
            move |(head, mut body, weight)| {
                body.retain(|&v| v != head);
                body.dedup();
                Factor { head, body, weight }
            },
        );
        prop::collection::vec(factor, 0..20)
            .prop_map(move |factors| FactorGraph::new(n, factors))
    })
}

proptest! {
    /// Greedy coloring is always proper and uses at most max-degree+1
    /// colors.
    #[test]
    fn coloring_proper_and_bounded(g in arb_graph()) {
        let c = color(&g);
        prop_assert!(is_proper(&g, &c));
        let max_degree = (0..g.num_vars())
            .map(|v| g.neighbors(v).len())
            .max()
            .unwrap_or(0);
        prop_assert!(c.num_colors() <= max_degree + 1);
        // Classes partition the variables.
        let total: usize = c.classes.iter().map(Vec::len).sum();
        prop_assert_eq!(total, g.num_vars());
    }

    /// flip_delta_ro equals the brute-force log-score difference.
    #[test]
    fn flip_delta_matches_log_score(g in arb_graph(), bits in prop::collection::vec(any::<bool>(), 12)) {
        let assignment: Vec<bool> = (0..g.num_vars()).map(|v| bits[v]).collect();
        for v in 0..g.num_vars() {
            let ro = g.flip_delta_ro(v, &assignment);
            let mut hi = assignment.clone();
            hi[v] = true;
            let mut lo = assignment.clone();
            lo[v] = false;
            let brute = g.log_score(&hi) - g.log_score(&lo);
            prop_assert!((ro - brute).abs() < 1e-9);
        }
    }

    /// JSON export/import preserves graphs exactly.
    #[test]
    fn export_roundtrip(g in arb_graph()) {
        let gg = GroundGraph {
            var_to_fact: (0..g.num_vars() as i64).map(|i| i * 7 + 3).collect(),
            fact_to_var: (0..g.num_vars())
                .map(|v| ((v as i64) * 7 + 3, v))
                .collect(),
            graph: g,
        };
        let back = from_json(&to_json(&gg)).unwrap();
        prop_assert_eq!(back.graph.factors(), gg.graph.factors());
        prop_assert_eq!(back.var_to_fact, gg.var_to_fact);
    }

    /// Lineage ancestors/descendants are dual: a ∈ ancestors(b) iff
    /// b ∈ descendants(a).
    #[test]
    fn lineage_duality(
        edges in prop::collection::vec((0i64..10, 0i64..10), 0..20),
    ) {
        use probkb_core::relmodel::tphi_schema;
        use probkb_relational::prelude::{Table, Value};
        // Derivation rows head <- body (self-loops skipped to keep the
        // lineage a DAG-ish relation; cycles are fine for the duality but
        // trivial ones add no information).
        let rows: Vec<Vec<Value>> = edges
            .iter()
            .filter(|(h, b)| h != b)
            .map(|&(h, b)| {
                vec![Value::Int(h), Value::Int(b), Value::Null, Value::Float(1.0)]
            })
            .collect();
        let phi = Table::from_rows(tphi_schema(), rows).unwrap();
        let lineage = Lineage::from_phi(&phi);
        for a in 0..10i64 {
            let descendants = lineage.descendants(a);
            for &d in &descendants {
                prop_assert!(
                    lineage.ancestors(d).contains(&a),
                    "{a} -> {d} but {a} not in ancestors({d})"
                );
            }
            for b in 0..10i64 {
                if lineage.ancestors(b).contains(&a) {
                    prop_assert!(descendants.contains(&b));
                }
            }
        }
    }

    /// log_score is the sum of satisfied weights: adding a factor changes
    /// the score by exactly its log value.
    #[test]
    fn log_score_additivity(
        g in arb_graph(),
        extra_head in 0usize..12,
        extra_weight in -2.0f64..2.0,
        bits in prop::collection::vec(any::<bool>(), 12),
    ) {
        let n = g.num_vars();
        let head = extra_head % n;
        let assignment: Vec<bool> = (0..n).map(|v| bits[v]).collect();
        let base = g.log_score(&assignment);
        let mut factors = g.factors().to_vec();
        let extra = Factor::singleton(head, extra_weight);
        let delta = extra.log_value(&assignment);
        factors.push(extra);
        let g2 = FactorGraph::new(n, factors);
        prop_assert!((g2.log_score(&assignment) - base - delta).abs() < 1e-12);
    }
}
