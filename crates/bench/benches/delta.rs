//! Incremental expansion benchmark: merging a 1% fact delta into a live
//! session vs re-running from scratch, for (a) grounding alone and
//! (b) time-to-updated-marginals (grounding + graph splice + blanket
//! resampling vs full re-ground + cold sampling).
//!
//! Manual harness (not the microbench shim): each side needs fresh
//! mutable state per repetition, built *outside* the timed region.
//! `MICROBENCH_SAMPLES=<n>` overrides the repetition count (CI smoke).

use std::time::{Duration, Instant};

use probkb::prelude::{IncrementalPipeline, PipelineDelta};
use probkb_core::prelude::*;
use probkb_datagen::prelude::*;
use probkb_inference::prelude::GibbsConfig;
use probkb_kb::prelude::ProbKb;

fn reps() -> usize {
    std::env::var("MICROBENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n > 0)
        .unwrap_or(5)
}

fn workload() -> (ProbKb, KbDelta, ProbKb) {
    let seeded = generate(&ReverbConfig {
        entities: 8_000,
        classes: 10,
        relations: 200,
        facts: 20_000,
        rules: 150,
        functional_frac: 0.0,
        pseudo_frac: 0.0,
        zipf_s: 0.8,
        rule_zipf_s: 0.6,
        seed: 7,
    });
    let union = s1_with_rules(&seeded, 250, 3);
    let cut = union.facts.len() - union.facts.len() / 100;
    let mut base = union.clone();
    base.facts.truncate(cut);
    let delta = KbDelta {
        facts: union.facts[cut..].to_vec(),
        rules: vec![],
    };
    (base, delta, union)
}

fn config() -> GroundingConfig {
    GroundingConfig {
        apply_constraints: false,
        max_total_facts: Some(500_000),
        ..GroundingConfig::default()
    }
}

fn gibbs() -> GibbsConfig {
    GibbsConfig {
        burn_in: 50,
        samples: 300,
        seed: 9,
        chains: 2,
        workers: Some(1),
        ..GibbsConfig::default()
    }
}

fn secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

fn main() {
    let reps = reps();
    let (base, delta, union) = workload();
    let n_delta = delta.facts.len();
    println!(
        "delta bench: {} base facts, {} delta facts ({}%), {} rules, {} reps",
        base.facts.len(),
        n_delta,
        100 * n_delta / union.facts.len().max(1),
        union.rules.len(),
        reps
    );

    // ---------------- grounding only ----------------
    let mut full_ground = Duration::MAX;
    let mut oracle_fp = String::new();
    for _ in 0..reps {
        let mut engine = SingleNodeEngine::semi_naive();
        let t = Instant::now();
        let out = ground(&union, &mut engine, &config()).expect("full ground");
        full_ground = full_ground.min(t.elapsed());
        oracle_fp = format!("{:?}{:?}", out.facts, out.factors);
    }

    let session0 = DeltaSession::new(base.clone(), config()).expect("base ground");
    let mut incr_ground = Duration::MAX;
    let mut incr_fp = String::new();
    let mut rounds = 0usize;
    for _ in 0..reps {
        let mut session = DeltaSession::from_parts(
            session0.kb().clone(),
            config(),
            session0.facts().clone(),
            session0.factors().clone(),
            session0.fact_iteration().clone(),
        );
        // A live session does this maintenance between deltas, off the
        // update critical path.
        session.prepare().expect("prepare");
        let t = Instant::now();
        let applied = session.apply_delta(&delta).expect("apply_delta");
        incr_ground = incr_ground.min(t.elapsed());
        rounds = applied.report.rounds.len();
        incr_fp = format!("{:?}{:?}", session.facts(), session.factors());
    }
    assert_eq!(incr_fp, oracle_fp, "incremental grounding diverged");

    println!(
        "grounding:  full {} vs delta {} ({} rounds)  -> {:.1}x",
        secs(full_ground),
        secs(incr_ground),
        rounds,
        full_ground.as_secs_f64() / incr_ground.as_secs_f64()
    );

    // ------------- time to updated marginals -------------
    let mut full_pipe = Duration::MAX;
    for _ in 0..reps {
        let t = Instant::now();
        let p = IncrementalPipeline::new(union.clone(), config(), gibbs()).expect("full pipeline");
        full_pipe = full_pipe.min(t.elapsed());
        std::hint::black_box(p.marginals().len());
    }

    let mut incr_pipe = Duration::MAX;
    let mut last: Option<PipelineDelta> = None;
    for _ in 0..reps {
        let mut p =
            IncrementalPipeline::new(base.clone(), config(), gibbs()).expect("base pipeline");
        let t = Instant::now();
        let out = p.apply_delta(&delta).expect("pipeline delta");
        incr_pipe = incr_pipe.min(t.elapsed());
        last = Some(out);
    }
    if let Some(out) = last {
        println!(
            "  blanket: resampled {}/{} vars across {} active/{} shards",
            out.inference.touched, out.inference.vars, out.inference.active_shards,
            out.inference.shards
        );
    }
    println!(
        "marginals:  full {} vs delta {}  -> {:.1}x",
        secs(full_pipe),
        secs(incr_pipe),
        full_pipe.as_secs_f64() / incr_pipe.as_secs_f64()
    );
}
