//! Criterion microbenchmarks for the inference stage: the partitioned
//! multi-chain Gibbs kernel over a grounding-shaped factor graph — a
//! worker sweep of full runs, a masked warm pass (10 % of the variables
//! touched, the shape `apply_delta` runs), and a convergence-control
//! comparison (fixed schedule vs R̂-triggered early stop) with
//! `samples/sec/worker` throughput lines.

use probkb_support::microbench::{BenchmarkId, Criterion};
use probkb_support::{criterion_group, criterion_main};

use probkb_core::prelude::*;
use probkb_datagen::prelude::*;
use probkb_factorgraph::prelude::*;
use probkb_inference::prelude::*;

fn ground_graph() -> GroundGraph {
    // A dense grounding (many rules per head) so each variable's Markov
    // blanket carries real work — the regime where parallel sampling pays.
    let kb = generate(&ReverbConfig {
        entities: 2_000,
        classes: 10,
        relations: 80,
        facts: 4_000,
        rules: 1_500,
        functional_frac: 0.0,
        pseudo_frac: 0.0,
        zipf_s: 1.05,
        rule_zipf_s: 0.6,
        seed: 21,
    });
    let mut engine = SingleNodeEngine::new();
    let config = GroundingConfig {
        max_iterations: 2,
        preclean: false,
        apply_constraints: false,
        max_total_facts: Some(100_000),
        threads: None,
        optimize: None,
    };
    let out = ground(&kb, &mut engine, &config).expect("grounding");
    from_phi(&out.factors)
}

fn bench_samplers(c: &mut Criterion) {
    let gg = ground_graph();
    let vars = gg.graph.num_vars();
    let mut group = c.benchmark_group(format!("gibbs_{vars}_vars_20_sweeps"));
    group.sample_size(10);
    let schedule = GibbsConfig {
        burn_in: 0,
        samples: 20,
        seed: 1,
        chains: 2,
        workers: Some(1),
        ..GibbsConfig::default()
    };

    for workers in [1usize, 2, 4, 8] {
        let config = GibbsConfig {
            workers: Some(workers),
            ..schedule
        };
        let sampler = PartitionedGibbs::new(&gg.graph, &config);
        let mut last = None;
        group.bench_function(BenchmarkId::new("partitioned", workers), |b| {
            b.iter(|| {
                let run = sampler.run();
                let p0 = run.marginals.p[0];
                last = Some(run.report);
                std::hint::black_box(p0)
            });
        });
        if let Some(report) = &last {
            println!(
                "  partitioned/{workers}: {:.0} samples/sec/worker",
                report.samples_per_sec_per_worker()
            );
        }
    }

    // The scoped path: every tenth variable touched, chains warm-started
    // from a full run's final states. Includes the per-pass schedule
    // compilation `apply_delta` pays (plan, sharding, mask).
    let coloring = color(&gg.graph);
    let all: Vec<VarId> = (0..vars).collect();
    let touched: Vec<VarId> = (0..vars).step_by(10).collect();
    let cold = blanket_resample_with(&gg.graph, &coloring, &all, &[], &[], &schedule);
    group.bench_function(BenchmarkId::new("masked_10pct_warm", 1), |b| {
        b.iter(|| {
            let run = blanket_resample_with(
                &gg.graph,
                &coloring,
                &touched,
                &cold.states,
                &cold.marginals.p,
                &schedule,
            );
            std::hint::black_box(run.marginals.p[0])
        });
    });
    group.finish();
}

/// Convergence control vs a fixed schedule: the R̂-triggered run should
/// stop well short of `max_sweeps` while landing on the same marginals.
fn bench_convergence(c: &mut Criterion) {
    let gg = ground_graph();
    let vars = gg.graph.num_vars();
    let mut group = c.benchmark_group(format!("gibbs_convergence_{vars}_vars"));
    group.sample_size(1);

    let fixed = GibbsConfig {
        burn_in: 50,
        samples: 2_000,
        seed: 1,
        chains: 4,
        workers: Some(4),
        ..GibbsConfig::default()
    };
    let controlled = GibbsConfig {
        target_rhat: Some(1.05),
        max_sweeps: 2_000,
        check_interval: 100,
        ..fixed
    };

    let mut fixed_run = None;
    group.bench_function("fixed/2000_sweeps", |b| {
        b.iter(|| {
            let run = partitioned_marginals(&gg.graph, &fixed);
            let p0 = run.marginals.p[0];
            fixed_run = Some(run);
            std::hint::black_box(p0)
        });
    });
    let mut controlled_run = None;
    group.bench_function("controlled/rhat_1.05", |b| {
        b.iter(|| {
            let run = partitioned_marginals(&gg.graph, &controlled);
            let p0 = run.marginals.p[0];
            controlled_run = Some(run);
            std::hint::black_box(p0)
        });
    });

    if let (Some(fixed_run), Some(controlled_run)) = (fixed_run, controlled_run) {
        let gap = fixed_run
            .marginals
            .p
            .iter()
            .zip(controlled_run.marginals.p.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("  fixed:      {}", fixed_run.report.annotate());
        println!("  controlled: {}", controlled_run.report.annotate());
        println!(
            "  controlled ran {}/{} sweeps; max marginal gap vs fixed = {gap:.4}",
            controlled_run.report.sweeps, fixed_run.report.sweeps
        );
        println!(
            "  throughput: fixed {:.0} vs controlled {:.0} samples/sec/worker",
            fixed_run.report.samples_per_sec_per_worker(),
            controlled_run.report.samples_per_sec_per_worker()
        );
    }
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_convergence);
criterion_main!(benches);
