//! The metric names this benchmark prints, and the statistics behind them.
//!
//! `END_TO_END` and `PER_LAYER` are the single source of names and units
//! in the program; `check-manifest` compares them with `BENCHMARK.json`.

/// `(name, unit, higher_is_better)`: what a user of the system sees.
/// Every workload runs the whole journey (expand a KB, then serve reads,
/// local marginals and writes), so every metric is measured on every
/// workload; the workloads differ in which part they make large.
pub const END_TO_END: &[(&str, &str, bool)] = &[
    ("setup_s", "s", false),
    ("expand_s", "s", false),
    ("ground_facts_per_s", "facts/s", true),
    ("gibbs_samples_per_s", "draws/s", true),
    ("read_qps", "req/s", true),
    ("read_p50_us", "us", false),
    ("read_p99_us", "us", false),
    ("local_miss_p50_ms", "ms", false),
    ("local_miss_p90_ms", "ms", false),
    ("local_hit_p50_us", "us", false),
    ("delta_commit_p50_ms", "ms", false),
];

/// `(name, unit, higher_is_better)`: one layer each, from the traced run.
pub const PER_LAYER: &[(&str, &str, bool)] = &[
    // probkb-core: the grounding driver and its engine calls.
    ("core.load_s", "s", false),
    ("core.ground_atoms_s", "s", false),
    ("core.insert_facts_s", "s", false),
    ("core.constraints_s", "s", false),
    ("core.ground_factors_s", "s", false),
    ("core.driver_self_s", "s", false),
    ("core.iterations", "count", false),
    ("core.queries", "count", false),
    ("core.facts_total", "count", true),
    ("core.factors_total", "count", true),
    ("core.candidate_rows", "count", false),
    ("core.new_fact_ratio", "ratio", true),
    // relational: the grounding queries re-run on the final catalog.
    ("relational.exec_wall_s", "s", false),
    ("relational.op_join_s", "s", false),
    ("relational.op_scan_s", "s", false),
    ("relational.op_distinct_s", "s", false),
    ("relational.op_other_s", "s", false),
    ("relational.rows_out", "count", true),
    ("relational.rows_per_s", "rows/s", true),
    ("relational.est_error_ratio", "ratio", false),
    // pager: buffer pool activity of one expansion (zero in memory).
    ("pager.pins", "count", false),
    ("pager.misses", "count", false),
    ("pager.hit_ratio", "ratio", true),
    ("pager.evictions", "count", false),
    ("pager.bytes_spilled", "bytes", false),
    ("relational.spill_bytes_per_row", "bytes/row", false),
    // factorgraph
    ("factorgraph.from_phi_s", "s", false),
    ("factorgraph.color_s", "s", false),
    ("factorgraph.lineage_s", "s", false),
    ("factorgraph.colors", "count", false),
    ("factorgraph.shards", "count", false),
    ("factorgraph.vars", "count", true),
    ("factorgraph.factors", "count", true),
    // inference
    ("inference.gibbs_s", "s", false),
    ("inference.samples_per_s_per_worker", "draws/s", true),
    ("inference.sweeps", "count", false),
    ("inference.rhat", "ratio", false),
    ("inference.ess_min", "count", true),
    ("inference.write_marginals_s", "s", false),
    // client + server: the read path replayed in process, per request.
    ("client.encode_request_ns", "ns", false),
    ("client.decode_response_ns", "ns", false),
    ("server.decode_request_ns", "ns", false),
    ("server.encode_response_ns", "ns", false),
    ("server.serve_fact_ns", "ns", false),
    ("server.serve_marginal_ns", "ns", false),
    ("server.serve_lineage_ns", "ns", false),
    ("server.wire_overhead_us", "us", false),
    // local grounding
    ("local.first_query_ms", "ms", false),
    ("local.index_build_s", "s", false),
    ("local.expand_us", "us", false),
    ("local.nodes_p50", "count", false),
    ("local.factors_p50", "count", false),
    ("local.frontier_stop_frac", "ratio", false),
    ("local.exact_frac", "ratio", true),
    ("inference.local_infer_us", "us", false),
    ("local.cache_hit_ratio", "ratio", true),
    // Demoted from the end-to-end list: too unsteady to carry a bound
    // (see README, "Demoted metrics").
    ("e2e.local_miss_p99_ms", "ms", false),
    ("e2e.peak_rss_mb", "MiB", false),
    // the write path, from an in-process pipeline fed the same deltas
    ("kb.parse_delta_us", "us", false),
    ("delta.ground_ms", "ms", false),
    ("delta.rounds", "count", false),
    ("delta.new_facts", "count", true),
    ("delta.new_factors", "count", true),
    ("delta.splice_recolor_ms", "ms", false),
    ("inference.blanket_ms", "ms", false),
    ("inference.blanket_touched_frac", "ratio", false),
    ("storage.wal_commit_us", "us", false),
    ("storage.wal_bytes_per_delta", "bytes", false),
    ("server.epoch_build_ms", "ms", false),
    // harness health
    ("trace.overhead_frac", "ratio", false),
    ("trace.unattributed_frac", "ratio", false),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _, _)| *n == name)
        .map(|(_, unit, _)| *unit)
}

/// Sort a sample for the percentile functions below.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// The `p`-th percentile (0..=100) of an ascending sample, by linear
/// interpolation between closest ranks. Panics on an empty sample: a
/// metric without samples is a harness bug, not a number.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it — the one worth reporting for a sample this size.
pub fn highest_supported_percentile(samples: usize) -> f64 {
    // (percentile, samples per thousand beyond it)
    const LADDER: [(f64, usize); 4] = [(99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100)];
    LADDER
        .into_iter()
        .find(|(_, beyond)| samples * beyond >= 10 * 1000)
        .map_or(50.0, |(p, _)| p)
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method) —
/// the rule the acceptance check applies to repeated runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted(values.to_vec());
    let n = data.len();
    assert!(n >= 2, "quartiles need two values");
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let pos = (i + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        *slot = data[j - 1] + (data[j] - data[j - 1]) * delta;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(crate::manifest::is_name(name), "{name}");
            assert!(crate::manifest::is_unit(unit), "{unit}");
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn percentile_rule_wants_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(20), 50.0);
        assert_eq!(highest_supported_percentile(99), 50.0);
        assert_eq!(highest_supported_percentile(100), 90.0);
        assert_eq!(highest_supported_percentile(200), 95.0);
        assert_eq!(highest_supported_percentile(999), 95.0);
        assert_eq!(highest_supported_percentile(1_000), 99.0);
        assert_eq!(highest_supported_percentile(10_000), 99.9);
    }

    #[test]
    fn percentile_interpolates() {
        let data = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(percentile(&data, 0.0), 1.0);
        assert_eq!(percentile(&data, 50.0), 2.5);
        assert_eq!(percentile(&data, 100.0), 4.0);
        assert_eq!(median(&[5.0, 1.0, 9.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let data: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&data), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), [1.5, 4.0, 12.0]);
    }
}
