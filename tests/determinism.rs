//! Workspace-level determinism: the paper's pipeline (grounding → factor
//! graph → Gibbs) must be a pure function of the seed. Two runs with the
//! same configuration have to agree bit for bit — marginals, grounded
//! fact tables, and exported graph documents alike — or no experiment in
//! `crates/bench` is reproducible.

use probkb::pipeline::{run_pipeline, PipelineOptions, PipelineResult, Sampler};
use probkb::prelude::*;

fn options(sampler: Sampler) -> PipelineOptions {
    PipelineOptions {
        sampler,
        gibbs: GibbsConfig {
            burn_in: 50,
            samples: 400,
            seed: 17,
            ..GibbsConfig::default()
        },
        ..PipelineOptions::default()
    }
}

fn marginal_bits(result: &PipelineResult) -> Vec<u64> {
    result.marginals.p.iter().map(|p| p.to_bits()).collect()
}

#[test]
fn same_seed_same_marginals_and_fact_sets() {
    let kb = generate(&ReverbConfig::tiny());
    for sampler in [
        Sampler::Gibbs,
        Sampler::BeliefPropagation(BpConfig::default()),
    ] {
        let a = run_pipeline(&kb, &options(sampler)).expect("pipeline");
        let b = run_pipeline(&kb, &options(sampler)).expect("pipeline");

        // Marginals byte-identical (bit patterns, not approximate equality).
        assert_eq!(
            marginal_bits(&a),
            marginal_bits(&b),
            "marginals must be bit-identical under {sampler:?}"
        );

        // Grounded fact sets byte-identical, row order included.
        assert_eq!(
            format!("{:?}", a.expansion.outcome.facts),
            format!("{:?}", b.expansion.outcome.facts),
            "grounded TΠ must match exactly under {sampler:?}"
        );
        assert_eq!(a.expansion.outcome.facts.len(), b.expansion.outcome.facts.len());
        assert!(a.expansion.outcome.facts.len() >= kb.facts.len());

        // The exported factor-graph document is byte-identical too.
        assert_eq!(to_json(&a.graph), to_json(&b.graph));
    }
}

#[test]
fn same_seed_byte_identical_across_gibbs_worker_counts() {
    // The shard, not the worker chunk, is the sampler's unit of
    // randomness, so the inference worker count must not leak into the
    // pipeline's marginals either. (Set via GibbsConfig rather than
    // PROBKB_GIBBS_WORKERS — the env var is read once per process.)
    let kb = generate(&ReverbConfig::tiny().with_seed(3));
    let run = |workers: usize| {
        let mut o = options(Sampler::Gibbs);
        o.gibbs.workers = Some(workers);
        run_pipeline(&kb, &o).expect("pipeline")
    };
    let serial = run(1);
    let pooled = run(4);
    assert_eq!(marginal_bits(&serial), marginal_bits(&pooled));
    assert_eq!(
        format!("{:?}", serial.facts_with_marginals),
        format!("{:?}", pooled.facts_with_marginals),
        "written-back TΠ must not depend on the worker count"
    );
}

#[test]
fn same_seed_byte_identical_across_grounding_thread_counts() {
    // The morsel-driven executor guarantees chunk-ordered concatenation,
    // so the grounding thread count must not leak into any output: same
    // seed at 1 vs 4 grounding threads → bit-identical marginals, fact
    // tables, and exported graphs. (Set via GroundingConfig rather than
    // PROBKB_THREADS — the env var is read once per process.)
    let kb = generate(&ReverbConfig::tiny());
    let run = |threads: usize| {
        let mut o = options(Sampler::Gibbs);
        o.expand.config.threads = Some(threads);
        run_pipeline(&kb, &o).expect("pipeline")
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(marginal_bits(&serial), marginal_bits(&parallel));
    assert_eq!(
        format!("{:?}", serial.expansion.outcome.facts),
        format!("{:?}", parallel.expansion.outcome.facts),
        "grounded TΠ must not depend on the thread count"
    );
    assert_eq!(
        format!("{:?}", serial.expansion.outcome.factors),
        format!("{:?}", parallel.expansion.outcome.factors),
        "ground factors must not depend on the thread count"
    );
    assert_eq!(to_json(&serial.graph), to_json(&parallel.graph));
}

#[test]
fn kb_generation_and_snapshots_are_deterministic() {
    // Same generator seed → same KB; and the JSON snapshot itself is
    // canonical (sets serialized in sorted order), so snapshots of equal
    // KBs are byte-identical.
    let a = generate(&ReverbConfig::tiny());
    let b = generate(&ReverbConfig::tiny());
    let snapshot_a = probkb::kb::io::to_json(&a);
    let snapshot_b = probkb::kb::io::to_json(&b);
    assert_eq!(snapshot_a, snapshot_b);
    let back = probkb::kb::io::from_json(&snapshot_a).expect("roundtrip");
    assert_eq!(probkb::kb::io::to_json(&back), snapshot_a);
}
