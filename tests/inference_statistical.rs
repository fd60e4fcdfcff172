//! Statistical validation of the samplers against the exact enumeration
//! oracle: multi-chain partitioned Gibbs on random small factor graphs and
//! on KBs that ground through all six rule partitions (P1–P6), and belief
//! propagation on tree-shaped graphs where loopy BP is exact.

use probkb::pipeline::{run_pipeline, PipelineOptions};
use probkb::prelude::*;
use probkb_support::rng::{Rng, SeedableRng, StdRng};

/// Assert every estimated marginal is within `tol` of the oracle.
fn assert_marginals_close(got: &[f64], want: &[f64], tol: f64, label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: length mismatch");
    for (v, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert!(
            (g - w).abs() < tol,
            "{label}: var {v} estimated {g} vs exact {w} (tol {tol})"
        );
    }
}

/// A random factor graph over `n` variables with singleton, unary and
/// binary rule factors — the paper's clause shapes with random weights.
fn random_graph(seed: u64, n: usize, m: usize) -> FactorGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut factors = Vec::new();
    for _ in 0..m {
        let head = (rng.random::<u64>() as usize) % n;
        let arity = (rng.random::<u64>() as usize) % 3;
        let mut body = Vec::new();
        while body.len() < arity {
            let u = (rng.random::<u64>() as usize) % n;
            if u != head && !body.contains(&u) {
                body.push(u);
            }
        }
        let weight = rng.random::<f64>() * 4.0 - 2.0;
        factors.push(Factor { head, body, weight });
    }
    FactorGraph::new(n, factors)
}

#[test]
fn multi_chain_gibbs_tracks_exact_on_random_graphs() {
    for seed in [11u64, 23, 47] {
        let g = random_graph(seed, 10, 25);
        let exact = exact_marginals(&g);
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 500,
                samples: 12_000,
                seed,
                chains: 3,
                workers: Some(2),
                ..GibbsConfig::default()
            },
        );
        assert_marginals_close(
            &run.marginals.p,
            &exact,
            0.04,
            &format!("random graph seed {seed}"),
        );
        assert!(run.report.rhat.is_some());
    }
}

/// A KB whose six rules fall into the six structural partitions of §4.2.2,
/// grounding to 12 variables (6 base facts + 6 inferred heads).
fn six_pattern_kb() -> ProbKb {
    parse(
        r#"
        fact 1.8 q1(a1:A, b1:B)
        fact 1.5 q2(b1:B, a1:A)
        fact 1.2 qa(a1:A, c1:C)
        fact 1.4 qc(c1:C, a1:A)
        fact 1.6 rb(c1:C, b1:B)
        fact 1.3 ry(b1:B, c1:C)

        rule 1.1 p1(x:A, y:B) :- q1(x, y)
        rule 0.9 p2(x:A, y:B) :- q2(y, x)
        rule 1.3 p3(x:A, y:B) :- qc(z:C, x), rb(z, y)
        rule 0.8 p4(x:A, y:B) :- qa(x, z:C), rb(z, y)
        rule 1.0 p5(x:A, y:B) :- qc(z:C, x), ry(y, z)
        rule 1.2 p6(x:A, y:B) :- qa(x, z:C), ry(y, z)
        "#,
    )
    .unwrap()
    .build()
}

#[test]
fn six_pattern_kb_covers_every_rule_partition() {
    let kb = six_pattern_kb();
    let partitioning = Partitioning::build(&kb.rules);
    assert_eq!(partitioning.k(), 6);
    assert_eq!(partitioning.non_empty_patterns(), RulePattern::ALL.to_vec());
}

#[test]
fn multi_chain_gibbs_tracks_exact_through_all_six_partitions() {
    // The real path: parse → ground (Algorithm 1) → factor graph →
    // partitioned multi-chain Gibbs, checked against exact enumeration.
    let kb = six_pattern_kb();
    let options = PipelineOptions {
        gibbs: GibbsConfig {
            burn_in: 500,
            samples: 12_000,
            seed: 7,
            chains: 3,
            workers: Some(2),
            ..GibbsConfig::default()
        },
        ..PipelineOptions::default()
    };
    let result = run_pipeline(&kb, &options).unwrap();
    assert_eq!(result.expansion.new_facts.len(), 6);
    assert_eq!(result.graph.graph.num_vars(), 12);

    let exact = exact_marginals(&result.graph.graph);
    assert_marginals_close(&result.marginals.p, &exact, 0.04, "six-pattern KB");

    let report = result.inference.expect("partitioned sampler reports");
    assert_eq!(report.vars, 12);
    assert!(report.annotate().contains("workers=2"));
}

/// Tree-shaped graphs: a chain and a star, with singleton evidence. Loopy
/// BP is exact on trees, so the same harness pins it to the oracle with a
/// tight tolerance.
fn tree_graphs() -> Vec<(String, FactorGraph)> {
    let chain = FactorGraph::new(
        7,
        vec![
            Factor::singleton(0, 1.5),
            Factor::singleton(3, -0.7),
            Factor::rule(1, vec![0], 1.2),
            Factor::rule(2, vec![1], 0.8),
            Factor::rule(3, vec![2], 1.0),
            Factor::rule(4, vec![3], -0.6),
            Factor::rule(5, vec![4], 0.9),
            Factor::rule(6, vec![5], 1.1),
        ],
    );
    let star = FactorGraph::new(
        6,
        vec![
            Factor::singleton(0, 0.8),
            Factor::rule(1, vec![0], 1.3),
            Factor::rule(2, vec![0], -0.9),
            Factor::rule(3, vec![0], 0.5),
            Factor::rule(4, vec![0], 1.7),
            Factor::rule(5, vec![0], -1.1),
        ],
    );
    vec![("chain".into(), chain), ("star".into(), star)]
}

#[test]
fn belief_propagation_is_exact_on_trees() {
    for (name, g) in tree_graphs() {
        let exact = exact_marginals(&g);
        let bp = belief_propagation(&g, &BpConfig::default());
        assert!(bp.converged, "{name}: BP did not converge");
        assert_marginals_close(&bp.marginals.p, &exact, 1e-6, &name);
    }
}

#[test]
fn gibbs_and_bp_agree_on_trees() {
    for (name, g) in tree_graphs() {
        let bp = belief_propagation(&g, &BpConfig::default());
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                burn_in: 500,
                samples: 12_000,
                seed: 13,
                chains: 2,
                workers: Some(2),
                ..GibbsConfig::default()
            },
        );
        assert_marginals_close(&run.marginals.p, &bp.marginals.p, 0.04, &name);
    }
}
