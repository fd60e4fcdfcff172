//! Incremental inference: after `IncrementalPipeline::apply_delta`, the
//! blanket-scoped warm-restart marginals must (a) agree with the exact
//! enumeration oracle, (b) agree with a full cold restart over the
//! merged KB, (c) be byte-identical at any worker count, and (d) leave
//! variables outside the delta's Markov blanket bitwise untouched.

use probkb::core::relmodel::tpi;
use probkb::prelude::*;

/// Two disconnected components: the delta only ever touches `qa`/`pa`,
/// so the `qb`/`pb` component must never be resampled.
const BASE: &str = r#"
    fact 0.90 qa(a1:A, b1:B)
    fact 0.80 qa(a2:A, b2:B)
    fact 0.70 qb(c1:C, d1:D)
    rule 1.20 pa(x:A, y:B) :- qa(x, y)
    rule 0.80 pb(x:C, y:D) :- qb(x, y)
"#;

const UNION: &str = r#"
    fact 0.90 qa(a1:A, b1:B)
    fact 0.80 qa(a2:A, b2:B)
    fact 0.70 qb(c1:C, d1:D)
    rule 1.20 pa(x:A, y:B) :- qa(x, y)
    rule 0.80 pb(x:C, y:D) :- qb(x, y)
    fact 0.85 qa(a3:A, b3:B)
"#;

fn base_and_delta() -> (ProbKb, KbDelta) {
    let union = parse(UNION).unwrap().build();
    let n_base_facts = parse(BASE).unwrap().build().facts.len();
    let delta = KbDelta {
        facts: union.facts[n_base_facts..].to_vec(),
        rules: vec![],
    };
    let mut base = union;
    base.facts.truncate(n_base_facts);
    (base, delta)
}

fn ground_config(threads: usize) -> GroundingConfig {
    GroundingConfig {
        apply_constraints: false,
        threads: Some(threads),
        ..GroundingConfig::default()
    }
}

fn gibbs(workers: usize) -> GibbsConfig {
    GibbsConfig {
        burn_in: 200,
        samples: 20_000,
        seed: 11,
        chains: 2,
        workers: Some(workers),
        ..GibbsConfig::default()
    }
}

const TOL: f64 = 0.05;

#[test]
fn delta_marginals_match_exact_oracle() {
    let (base, delta) = base_and_delta();
    let mut pipeline = IncrementalPipeline::new(base, ground_config(1), gibbs(1)).unwrap();
    let out = pipeline.apply_delta(&delta).unwrap();
    assert!(!out.grounding.full_fallback);
    // The disconnected qb/pb component stays outside the blanket.
    assert!(
        out.inference.touched < pipeline.graph().graph.num_vars(),
        "delta should not touch the whole graph"
    );

    let exact = exact_marginals(&pipeline.graph().graph);
    for (v, (&got, &want)) in pipeline
        .marginals()
        .iter()
        .zip(exact.iter())
        .enumerate()
    {
        assert!(
            (got - want).abs() < TOL,
            "var {v}: incremental {got:.4} vs exact {want:.4}"
        );
    }
}

#[test]
fn incremental_matches_full_restart_within_tolerance() {
    let (base, delta) = base_and_delta();
    let mut incremental =
        IncrementalPipeline::new(base.clone(), ground_config(1), gibbs(1)).unwrap();
    incremental.apply_delta(&delta).unwrap();

    // Cold restart over the merged KB: same facts and factors
    // (byte-identical grounding), independent sampling run.
    let mut union_kb = base;
    union_kb.facts.extend(delta.facts.iter().cloned());
    let restart = IncrementalPipeline::new(union_kb, ground_config(1), gibbs(1)).unwrap();

    assert_eq!(
        format!("{:?}", incremental.session().facts()),
        format!("{:?}", restart.session().facts()),
        "incremental and restart grounding diverged"
    );
    // Graphs may order variables differently (splice vs fresh build), so
    // compare per fact id.
    for (v, &fact_id) in restart.graph().var_to_fact.iter().enumerate() {
        let cold = restart.marginals()[v];
        let warm = incremental
            .marginal_of_fact(fact_id)
            .expect("fact missing from incremental graph");
        assert!(
            (cold - warm).abs() < TOL,
            "fact {fact_id}: restart {cold:.4} vs incremental {warm:.4}"
        );
    }
}

#[test]
fn worker_count_never_changes_delta_marginals() {
    let (base, delta) = base_and_delta();
    let run = |workers: usize| {
        let mut p =
            IncrementalPipeline::new(base.clone(), ground_config(workers), gibbs(workers))
                .unwrap();
        p.apply_delta(&delta).unwrap();
        p.marginals()
            .iter()
            .map(|x| x.to_bits())
            .collect::<Vec<u64>>()
    };
    let baseline = run(1);
    for workers in [2usize, 4] {
        assert_eq!(baseline, run(workers), "workers=1 vs workers={workers}");
    }
}

#[test]
fn untouched_component_keeps_marginals_bitwise() {
    let (base, delta) = base_and_delta();
    let mut pipeline = IncrementalPipeline::new(base.clone(), ground_config(1), gibbs(1)).unwrap();

    // All facts of the disconnected qb/pb component, by relation id.
    let quiet: Vec<u32> = ["qb", "pb"]
        .iter()
        .filter_map(|name| base.relations.get(name))
        .collect();
    assert_eq!(quiet.len(), 2);
    let before: Vec<(i64, u64)> = pipeline
        .session()
        .facts()
        .rows()
        .iter()
        .filter_map(|row| {
            let rel = row[tpi::R].as_int()? as u32;
            if !quiet.contains(&rel) {
                return None;
            }
            let id = row[tpi::I].as_int()?;
            Some((id, pipeline.marginal_of_fact(id)?.to_bits()))
        })
        .collect();
    assert_eq!(before.len(), 2, "expected the qb fact and the derived pb fact");

    let out = pipeline.apply_delta(&delta).unwrap();
    for (old_id, bits) in before {
        let new_id = out.remap[old_id as usize];
        let after = pipeline
            .marginal_of_fact(new_id)
            .expect("untouched fact lost its variable")
            .to_bits();
        assert_eq!(
            bits, after,
            "marginal of untouched fact {old_id} (now {new_id}) changed"
        );
    }
}

#[test]
fn cold_start_is_a_full_run_under_convergence_control() {
    // A cold start used to take the fixed `samples` schedule whatever
    // `target_rhat` said; it is a full run, so it must stop where
    // `partitioned_marginals` stops and land on the same bits.
    let (base, _) = base_and_delta();
    let config = GibbsConfig {
        target_rhat: Some(1.05),
        max_sweeps: 20_000,
        ..gibbs(1)
    };
    let pipeline = IncrementalPipeline::new(base, ground_config(1), config).unwrap();
    let full = partitioned_marginals(&pipeline.graph().graph, &config);
    assert!(full.report.converged && full.report.sweeps < config.samples);
    let bits = |p: &[f64]| p.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
    assert_eq!(bits(pipeline.marginals()), bits(&full.marginals.p));
}

#[test]
fn cold_start_and_warm_masked_delta_draws_are_pinned() {
    // Digests recorded at 286e311, before the sampler collapse (ISSUE 14):
    // the cold start (everything touched, cold chains) and the delta's
    // masked pass over warm chains must keep their draws bit for bit.
    let digest = |p: &[f64]| {
        let bytes: Vec<u8> = p.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
        crc32(&bytes)
    };
    let mut base = generate(&ReverbConfig::tiny());
    let delta = KbDelta {
        facts: base.facts.split_off(base.facts.len() - 40),
        rules: vec![],
    };
    for workers in [1usize, 4] {
        let gibbs = GibbsConfig {
            burn_in: 50,
            samples: 400,
            seed: 17,
            chains: 2,
            workers: Some(workers),
            ..GibbsConfig::default()
        };
        let mut pipeline = IncrementalPipeline::new(base.clone(), ground_config(1), gibbs).unwrap();
        assert_eq!(
            digest(pipeline.marginals()),
            0xf01e_2edf,
            "cold, workers={workers}"
        );
        let out = pipeline.apply_delta(&delta).unwrap();
        assert!(!out.grounding.full_fallback);
        assert!(
            0 < out.inference.touched && out.inference.touched < out.inference.vars,
            "delta must resample a proper subset: {}",
            out.inference.annotate()
        );
        assert_eq!(
            digest(pipeline.marginals()),
            0x8ae8_eaa5,
            "warm, workers={workers}"
        );
    }
}
