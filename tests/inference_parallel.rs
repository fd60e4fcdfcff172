//! Worker-count invariance and edge cases of the partitioned sampler.
//!
//! The shard — not the worker chunk — is the unit of randomness, so for a
//! fixed `(seed, chains)` the marginals must be byte-identical at any
//! worker count, and an R̂-triggered early stop must fire at the same
//! sweep number no matter how many workers run the chains.

use probkb::prelude::*;

fn bits(p: &[f64]) -> Vec<u64> {
    p.iter().map(|x| x.to_bits()).collect()
}

fn run_with_workers(g: &FactorGraph, workers: usize, extra: &GibbsConfig) -> GibbsRun {
    partitioned_marginals(
        g,
        &GibbsConfig {
            workers: Some(workers),
            ..*extra
        },
    )
}

fn test_graph() -> FactorGraph {
    FactorGraph::new(
        8,
        vec![
            Factor::singleton(0, 1.1),
            Factor::singleton(5, -0.4),
            Factor::rule(1, vec![0], 0.9),
            Factor::rule(2, vec![0, 1], 1.3),
            Factor::rule(3, vec![2], 0.7),
            Factor::rule(4, vec![3], -0.5),
            Factor::rule(6, vec![5], 1.0),
            Factor::rule(7, vec![6, 5], 0.8),
        ],
    )
}

#[test]
fn marginals_are_byte_identical_across_worker_counts() {
    let g = test_graph();
    let config = GibbsConfig {
        burn_in: 100,
        samples: 1_000,
        seed: 42,
        chains: 3,
        ..GibbsConfig::default()
    };
    let baseline = run_with_workers(&g, 1, &config);
    for workers in [2usize, 4, 7] {
        let run = run_with_workers(&g, workers, &config);
        assert_eq!(
            bits(&baseline.marginals.p),
            bits(&run.marginals.p),
            "workers=1 vs workers={workers} diverged"
        );
        assert_eq!(run.report.workers, workers);
    }
}

#[test]
fn rhat_early_stop_fires_at_the_same_sweep_for_any_worker_count() {
    let g = test_graph();
    let config = GibbsConfig {
        burn_in: 100,
        seed: 8,
        chains: 4,
        target_rhat: Some(1.05),
        max_sweeps: 20_000,
        check_interval: 200,
        ..GibbsConfig::default()
    };
    let baseline = run_with_workers(&g, 1, &config);
    assert!(baseline.report.converged, "baseline never converged");
    for workers in [2usize, 4] {
        let run = run_with_workers(&g, workers, &config);
        assert!(run.report.converged);
        assert_eq!(
            baseline.report.sweeps, run.report.sweeps,
            "early stop moved between workers=1 and workers={workers}"
        );
        assert_eq!(bits(&baseline.marginals.p), bits(&run.marginals.p));
        assert_eq!(
            baseline.report.rhat.map(f64::to_bits),
            run.report.rhat.map(f64::to_bits)
        );
    }
}

#[test]
fn empty_graph_yields_empty_marginals() {
    let g = FactorGraph::new(0, Vec::new());
    for &target in &[None, Some(1.05)] {
        let run = partitioned_marginals(
            &g,
            &GibbsConfig {
                target_rhat: target,
                ..GibbsConfig::default()
            },
        );
        assert!(run.marginals.p.is_empty());
        assert_eq!(run.report.vars, 0);
        assert_eq!(run.report.sweeps, 0);
        // A convergence-controlled run over nothing is trivially converged.
        assert_eq!(run.report.converged, target.is_some());
    }
}

#[test]
fn single_variable_graph_matches_its_sigmoid() {
    let g = FactorGraph::new(1, vec![Factor::singleton(0, 1.5)]);
    let run = partitioned_marginals(
        &g,
        &GibbsConfig {
            burn_in: 200,
            samples: 8_000,
            seed: 3,
            chains: 2,
            workers: Some(4),
            ..GibbsConfig::default()
        },
    );
    let want = sigmoid(1.5);
    assert!(
        (run.marginals.p[0] - want).abs() < 0.03,
        "p {} vs sigmoid {want}",
        run.marginals.p[0]
    );
    assert_eq!(run.report.colors, 1);
    assert_eq!(run.report.shards, 1);
}

#[test]
fn fully_disconnected_components_sample_independently() {
    // Singletons only: every variable is its own component, one color.
    let weights = [1.2f64, -0.8, 0.0, 2.0, -1.5];
    let g = FactorGraph::new(
        5,
        weights
            .iter()
            .enumerate()
            .map(|(v, &w)| Factor::singleton(v, w))
            .collect(),
    );
    let run = partitioned_marginals(
        &g,
        &GibbsConfig {
            burn_in: 200,
            samples: 10_000,
            seed: 19,
            chains: 2,
            workers: Some(3),
            ..GibbsConfig::default()
        },
    );
    assert_eq!(run.report.colors, 1);
    for (v, &w) in weights.iter().enumerate() {
        let want = sigmoid(w);
        assert!(
            (run.marginals.p[v] - want).abs() < 0.03,
            "var {v}: p {} vs sigmoid {want}",
            run.marginals.p[v]
        );
    }
}

#[test]
fn one_color_graph_falls_back_to_a_single_serial_shard() {
    // 5 isolated variables < SHARD_SIZE: one color, one shard, so every
    // worker count degenerates to the same serial schedule — and must
    // still agree byte for byte.
    let g = FactorGraph::new(5, vec![Factor::singleton(2, 0.6)]);
    let config = GibbsConfig {
        burn_in: 50,
        samples: 500,
        seed: 77,
        chains: 2,
        ..GibbsConfig::default()
    };
    let a = run_with_workers(&g, 1, &config);
    let b = run_with_workers(&g, 8, &config);
    assert_eq!(a.report.colors, 1);
    assert_eq!(a.report.shards, 1);
    assert_eq!(bits(&a.marginals.p), bits(&b.marginals.p));
}

#[test]
fn pipeline_marginals_are_worker_invariant_end_to_end() {
    use probkb::pipeline::{run_pipeline, PipelineOptions};
    let kb = generate(&ReverbConfig::tiny());
    let run = |workers: usize| {
        let options = PipelineOptions {
            gibbs: GibbsConfig {
                burn_in: 50,
                samples: 400,
                seed: 17,
                chains: 2,
                workers: Some(workers),
                ..GibbsConfig::default()
            },
            ..PipelineOptions::default()
        };
        run_pipeline(&kb, &options).unwrap()
    };
    let a = run(1);
    let b = run(4);
    assert_eq!(bits(&a.marginals.p), bits(&b.marginals.p));
    assert_eq!(
        a.inference.unwrap().sweeps,
        b.inference.unwrap().sweeps
    );
}

/// CRC-32 of the marginals' bit patterns: a compact pin of exact draws.
fn digest(p: &[f64]) -> u32 {
    let bytes: Vec<u8> = p.iter().flat_map(|x| x.to_bits().to_le_bytes()).collect();
    crc32(&bytes)
}

#[test]
fn full_run_draws_are_pinned() {
    // Digests recorded at 286e311, before the sampler collapse (ISSUE 14):
    // a full run must keep its draws bit for bit, on the fixed schedule
    // and under R̂ control, whatever the worker count.
    let kb = generate(&ReverbConfig::tiny());
    let expansion = expand(&kb, &ExpandOptions::default()).unwrap();
    let graph = from_phi(&expansion.outcome.factors).graph;
    let fixed = GibbsConfig {
        burn_in: 50,
        samples: 400,
        seed: 17,
        chains: 2,
        ..GibbsConfig::default()
    };
    let controlled = GibbsConfig {
        chains: 4,
        target_rhat: Some(1.05),
        max_sweeps: 4_000,
        ..fixed
    };
    for workers in [1usize, 4] {
        let run = run_with_workers(&graph, workers, &fixed);
        assert_eq!(
            digest(&run.marginals.p),
            0x965c_cee9,
            "fixed, workers={workers}"
        );
        let run = run_with_workers(&graph, workers, &controlled);
        assert!(run.report.converged && run.report.sweeps < 4_000);
        assert_eq!(
            digest(&run.marginals.p),
            0x4be9_fe58,
            "R̂, workers={workers}"
        );
    }
}
