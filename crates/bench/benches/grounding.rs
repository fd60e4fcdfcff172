//! Criterion microbenchmark: batch rule application (ProbKB) vs per-rule
//! queries (Tuffy-T) — the core ablation behind Figure 6(a).

use probkb_support::microbench::{BenchmarkId, Criterion};
use probkb_support::{criterion_group, criterion_main};

use probkb_core::prelude::*;
use probkb_datagen::prelude::*;

fn bench_ground_atoms(c: &mut Criterion) {
    let base = generate(&ReverbConfig {
        entities: 2_000,
        classes: 10,
        relations: 100,
        facts: 5_000,
        rules: 100,
        functional_frac: 0.0,
        pseudo_frac: 0.0,
        zipf_s: 1.05,
        rule_zipf_s: 0.6,
        seed: 5,
    });

    let mut group = c.benchmark_group("ground_atoms_one_iteration");
    group.sample_size(10);
    for rules in [200usize, 1_000, 5_000] {
        let kb = s1_with_rules(&base, rules, 3);
        let rel = load(&kb);

        group.bench_with_input(BenchmarkId::new("probkb_batch", rules), &rel, |b, rel| {
            let mut engine = SingleNodeEngine::new();
            engine.load(rel).unwrap();
            b.iter(|| {
                let (candidates, queries) = engine.ground_atoms().unwrap();
                assert!(queries <= 6);
                std::hint::black_box(candidates.len())
            });
        });

        group.bench_with_input(
            BenchmarkId::new("probkb_semi_naive", rules),
            &rel,
            |b, rel| {
                let mut engine = SingleNodeEngine::semi_naive();
                engine.load(rel).unwrap();
                b.iter(|| {
                    // Iteration 1 has no frontier yet, so the mode runs
                    // the same one-query-per-partition plans as naive.
                    let (candidates, queries) = engine.ground_atoms().unwrap();
                    assert!(queries <= 6);
                    std::hint::black_box(candidates.len())
                });
            },
        );

        group.bench_with_input(BenchmarkId::new("tuffy_per_rule", rules), &rel, |b, rel| {
            let mut engine = TuffyEngine::new();
            engine.load(rel).unwrap();
            b.iter(|| {
                let (candidates, queries) = engine.ground_atoms().unwrap();
                // M tables deduplicate identical synthetic rules, so the
                // query count can fall slightly below the nominal target.
                assert!(queries > rules / 2 && queries <= rules);
                std::hint::black_box(candidates.len())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ground_atoms);
criterion_main!(benches);
