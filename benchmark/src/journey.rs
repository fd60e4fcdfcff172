//! One benchmark run: the whole journey for one workload, its output
//! checks, and the metrics computed from it.
//!
//! Phases, in order: set-up (three times; the last server is kept) →
//! batch expansion (one untimed warm-up, then repeated for its share of
//! `--seconds`) → read window on the quiet server → local marginals
//! (first query untimed, distinct misses, then hits) → deltas beside a
//! reader → checks. A traced run does the same and then pushes the same
//! inputs through each layer in process, under spans.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use probkb::prelude::SingleNodeEngine;
use probkb::prelude::{GibbsConfig, GroundingConfig, IncrementalPipeline};
use probkb_relational::prelude::{set_process_default, BufferStats, SpillPolicy, StorageContext};
use probkb_server::prelude::{start, EpochState};

use crate::batch::{expand_once, profile_queries, ExpandRun};
use crate::json::Json;
use crate::layers;
use crate::metrics::{highest_supported_percentile, median, percentile, sorted};
use crate::rng::Rng;
use crate::serve::{self, stream, LocalStats, ReadStats};
use crate::spans::{seconds_per_op, Span, Tracer};
use crate::workloads::{
    batch_kb, serve_kb, BatchKb, Sizing, Workload, SPILL_POOL_PAGES, SPILL_THRESHOLD_ROWS,
};

const SETUPS: usize = 3;
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 40;
const BATCH_GIBBS_STREAM: u64 = 4;
/// Requests replayed in process by a traced run.
const REPLAYED_READS: usize = 2_000;
/// A local answer whose budget covered the whole component must agree
/// with the global sampler this closely: both are Monte Carlo estimates
/// (600 draws per variable on the server's schedule).
const LOCAL_VS_GLOBAL_TOLERANCE: f64 = 0.25;

pub struct Params {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizing: Sizing,
    /// Grounding threads = Gibbs workers = connections.
    pub nproc: usize,
    /// Scratch space inside the checkout (WALs).
    pub scratch: PathBuf,
}

pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

pub struct Report {
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Empty unless the run was traced.
    pub per_layer: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
    /// Every sample behind the metrics, with counts.
    pub detail: Json,
    pub spans: Vec<Span>,
}

/// One timed expansion, reduced to what the metrics need.
struct Rep {
    traced: bool,
    expand_s: f64,
    ground_s: f64,
    gibbs_s: f64,
    facts_per_s: f64,
    draws_per_s: f64,
    buffer: BufferStats,
}

fn latency_summary(values_ns: &[f64], scale: f64) -> Json {
    if values_ns.is_empty() {
        return Json::obj(vec![("count", Json::Num(0.0))]);
    }
    let data = sorted(values_ns.iter().map(|v| v / scale).collect());
    let top = highest_supported_percentile(data.len());
    Json::obj(vec![
        ("count", Json::Num(data.len() as f64)),
        ("p50", Json::Num(percentile(&data, 50.0))),
        ("p90", Json::Num(percentile(&data, 90.0))),
        ("p99", Json::Num(percentile(&data, 99.0))),
        ("max", Json::Num(data[data.len() - 1])),
        ("highest_supported_percentile", Json::Num(top)),
        ("at_highest_supported", Json::Num(percentile(&data, top))),
    ])
}

fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|n| n.parse().ok())
        .ok_or("unparsable VmHWM")?;
    Ok(kib / 1024.0)
}

pub fn run(p: &Params) -> Result<Report, String> {
    let w = p.workload;
    let conns = p.nproc;
    let mut checks: Vec<Check> = Vec::new();
    let mut check = |name: &'static str, ok: bool, detail: String| {
        checks.push(Check { name, ok, detail });
    };
    std::fs::create_dir_all(&p.scratch).map_err(|e| e.to_string())?;
    let wal = p.scratch.join(format!("{}.wal", w.name));
    let config = serve::server_config(&wal, p.nproc, p.seed);

    // ---- set-up: generate both KBs, start the server, first answer ----
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some((_, _, handle)) = kept.take() {
            serve::stop_server(handle);
        }
        let started = Instant::now();
        let batch = batch_kb(w.batch_kb, p.sizing);
        let served = serve_kb(p.sizing);
        let handle = serve::start_server(served.clone(), config.clone())?;
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((batch, served, handle));
    }
    let (batch, served, handle) = kept.expect("SETUPS > 0");
    // The writer needs a connection beside a reader even on one core.
    let mut clients = serve::connect_all(handle.addr(), conns.max(2))?;
    let epoch0: Arc<EpochState> = handle.shared().current.load();
    let facts = epoch0.num_facts();

    // ---- batch expansion ----
    let grounding = GroundingConfig {
        apply_constraints: matches!(w.batch_kb, BatchKb::Reverb(_)),
        threads: Some(p.nproc),
        ..GroundingConfig::default()
    };
    let gibbs = GibbsConfig {
        burn_in: w.gibbs_sweeps.0,
        samples: w.gibbs_sweeps.1,
        seed: Rng::new(p.seed, BATCH_GIBBS_STREAM).next(),
        chains: 2,
        workers: Some(p.nproc),
        ..GibbsConfig::default()
    };
    let tracer = Tracer::new();
    // The warm-up runs in memory on every workload: it warms the
    // allocator and gives the digest every timed run must reproduce.
    let (reference, _) = expand_once(&batch, &grounding, &gibbs, None, 0)?;
    let spill = StorageContext::in_temp(SPILL_POOL_PAGES).map_err(|e| e.to_string())?;
    if w.paged {
        set_process_default(Some(SpillPolicy {
            ctx: Arc::clone(&spill),
            threshold_rows: SPILL_THRESHOLD_ROWS,
        }));
    }
    let budget = Duration::from_secs_f64(p.seconds * w.batch_share);
    let min_reps = if p.trace { MIN_REPS + 1 } else { MIN_REPS };
    let mut reps: Vec<Rep> = Vec::new();
    let mut last: Option<(ExpandRun, SingleNodeEngine)> = None;
    let (mut digests_equal, mut marginals_ok) = (true, reference.marginals_in_range);
    let batch_started = Instant::now();
    while reps.len() < min_reps
        || (batch_started.elapsed() < budget && reps.len() < MAX_REPS)
        || (p.trace && reps.len() % 2 == 1)
    {
        // A traced run alternates plain and traced expansions, so the
        // tracing overhead is measured inside one process.
        let traced = p.trace && reps.len() % 2 == 1;
        let before = spill.stats();
        drop(last.take()); // one finished engine alive at a time
        let (run, engine) = expand_once(
            &batch,
            &grounding,
            &gibbs,
            traced.then_some(&tracer),
            reps.len() as u64 + 1,
        )?;
        digests_equal &= run.digest == reference.digest;
        marginals_ok &= run.marginals_in_range;
        reps.push(Rep {
            traced,
            expand_s: run.expand_s,
            ground_s: run.ground_s,
            gibbs_s: run.gibbs_s,
            facts_per_s: run.facts as f64 / run.ground_s,
            draws_per_s: run.draws as f64 / run.gibbs_s,
            buffer: spill.stats().since(&before),
        });
        last = Some((run, engine));
    }
    set_process_default(None);
    // A traced run ends on a traced expansion (it has the candidate
    // counts) and keeps its engine for the query profile.
    let (last, last_engine) = last.expect("MIN_REPS > 0");
    let last_engine = p.trace.then_some(last_engine);
    check(
        "digest_matches_in_memory_reference",
        digests_equal,
        format!("{} runs vs digest {:016x}", reps.len(), reference.digest),
    );
    check(
        "batch_marginals_in_unit_interval",
        marginals_ok,
        String::new(),
    );
    let of = |traced: bool, f: fn(&Rep) -> f64| -> Vec<f64> {
        reps.iter().filter(|r| r.traced == traced).map(f).collect()
    };

    // ---- reads on the quiet server ----
    let warm_up = Duration::from_secs_f64(if p.sizing.quick { 0.05 } else { 0.3 });
    serve::read_window(
        &handle,
        &mut clients[..conns],
        facts,
        p.seed ^ 0x5eed,
        warm_up,
    )?;
    let window = Duration::from_secs_f64(p.seconds * w.read_share);
    let quiet: Vec<ReadStats> = if w.reads_beside_writes {
        Vec::new()
    } else {
        serve::read_window(&handle, &mut clients[..conns], facts, p.seed, window)?
    };

    // ---- local marginals: first query, misses, hits ----
    let inferred = serve::inferred_ids(&epoch0);
    let mut targets = serve::sample_distinct(
        &inferred,
        p.sizing.count(w.local_misses) + 1,
        &mut Rng::new(p.seed, stream::LOCAL_TARGETS),
    );
    let first_target = targets.pop().ok_or("the served KB inferred nothing")?;
    // The first query builds the epoch's B-tree indexes; users pay it
    // once per epoch, so it is reported on its own and not as a miss.
    let first = serve::local_phase(&mut clients[..1], &[first_target], None)?;
    let misses = serve::local_phase(&mut clients[..conns], &targets, None)?;
    let hit_window = Duration::from_secs_f64(p.seconds * w.hit_share);
    let hits = serve::local_phase(&mut clients[..conns], &targets, Some(hit_window))?;
    check(
        "miss_phase_never_hits_and_hit_phase_always_hits",
        misses.hit_ratio() == 0.0 && hits.hit_ratio() == 1.0,
        format!("hit ratios {} and {}", misses.hit_ratio(), hits.hit_ratio()),
    );
    let mut worst = 0.0f64;
    let mut covered = 0usize;
    for answer in misses.answers.iter().filter(|a| a.info.frontier_stops == 0) {
        let global = serve::global_marginal(&epoch0, answer.info.id)
            .ok_or_else(|| format!("fact {} has no stored marginal", answer.info.id))?;
        worst = worst.max((answer.info.p - global).abs());
        covered += 1;
    }
    check(
        "complete_local_answers_match_global_marginals",
        covered > 0 && worst <= LOCAL_VS_GLOBAL_TOLERANCE,
        format!("{covered} covered answers, worst difference {worst:.4}"),
    );

    // ---- writes beside reads ----
    let deltas = serve::delta_texts(&served, p.seed, p.sizing.count(w.deltas));
    let (writer, reader) = clients.split_at_mut(1);
    let writes = serve::write_phase(
        &handle,
        &mut writer[0],
        &mut reader[0],
        &deltas,
        facts,
        p.seed,
    )?;
    let in_order = writes
        .outcomes
        .iter()
        .enumerate()
        .all(|(i, o)| o.epoch == i as u64 + 1 && !o.full_fallback);
    check(
        "every_delta_commits_incrementally_in_order",
        in_order && writes.outcomes.len() == deltas.len(),
        format!("{} of {} committed", writes.outcomes.len(), deltas.len()),
    );

    let reads: Vec<&ReadStats> = if w.reads_beside_writes {
        vec![&writes.reader]
    } else {
        quiet.iter().collect()
    };
    let all_reads = || quiet.iter().chain([&writes.reader]);
    let verified: u64 = all_reads().map(|r| r.verified).sum();
    let mismatched: u64 = all_reads().map(|r| r.mismatched).sum();
    check(
        "wire_reads_equal_serve_read_on_their_epoch",
        mismatched == 0 && verified > 0,
        format!("{mismatched} of {verified} sampled exchanges differ"),
    );
    let wire_p: Vec<f64> = all_reads()
        .flat_map(|r| r.marginals.iter().copied())
        .chain(misses.answers.iter().chain(&hits.answers).map(|a| a.info.p))
        .collect();
    check(
        "wire_marginals_in_unit_interval",
        wire_p.iter().all(|p| (0.0..=1.0).contains(p)),
        format!("{} marginals", wire_p.len()),
    );

    let final_facts = handle.shared().current.load().num_facts();
    drop(clients);
    serve::stop_server(handle);
    if w.check_wal_restart {
        // No fresh WAL here: the restarted server has only the log.
        let again = start(served.clone(), config.clone()).map_err(|e| e.to_string())?;
        let state = again.shared().current.load();
        check(
            "restart_from_wal_reaches_same_epoch_and_facts",
            state.epoch == writes.outcomes.len() as u64 && state.num_facts() == final_facts,
            format!(
                "epoch {} with {} facts, expected epoch {} with {final_facts}",
                state.epoch,
                state.num_facts(),
                writes.outcomes.len()
            ),
        );
        drop(state);
        serve::stop_server(again);
    }

    // ---- end-to-end metrics ----
    let read_ns: Vec<f64> = reads
        .iter()
        .flat_map(|r| r.latencies_ns.iter().copied())
        .collect();
    if read_ns.is_empty() || misses.answers.is_empty() || hits.answers.is_empty() {
        return Err("a serving phase answered nothing".into());
    }
    if writes.commit_ns.is_empty() {
        return Err("no delta committed".into());
    }
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setup_s));
    e2e.insert("expand_s", median(&of(false, |r| r.expand_s)));
    e2e.insert("ground_facts_per_s", median(&of(false, |r| r.facts_per_s)));
    e2e.insert("gibbs_samples_per_s", median(&of(false, |r| r.draws_per_s)));
    let read = serve::read_slices(&reads).ok_or("a slice of the read phase is empty")?;
    let hit = hits.slices().ok_or("a slice of the hit phase is empty")?;
    e2e.insert("read_qps", read.rate());
    e2e.insert("read_p50_us", read.percentile(50.0) / 1e3);
    e2e.insert("read_p99_us", read.percentile(99.0) / 1e3);
    let miss_ms = sorted(misses.latencies(1e6));
    e2e.insert("local_miss_p50_ms", percentile(&miss_ms, 50.0));
    e2e.insert("local_miss_p90_ms", percentile(&miss_ms, 90.0));
    e2e.insert("local_hit_p50_us", hit.percentile(50.0) / 1e3);
    e2e.insert("delta_commit_p50_ms", median(&writes.commit_ns) / 1e6);

    let read_attempted: u64 = all_reads().map(|r| r.attempted()).sum();
    let read_failed: u64 = all_reads().map(|r| r.failed).sum();
    let local_all = [&first, &misses, &hits];
    let local_failed: u64 = local_all.iter().map(|l| l.failed).sum();
    let local_attempted: u64 = local_all
        .iter()
        .map(|l| l.answers.len() as u64)
        .sum::<u64>()
        + local_failed;
    let attempted = reps.len() as u64 + 1 + read_attempted + local_attempted + deltas.len() as u64;
    let failed = read_failed + local_failed + writes.failed;

    let mut detail = vec![
        ("setup_s", Json::nums(&setup_s)),
        ("expand_s", Json::nums(&of(false, |r| r.expand_s))),
        ("ground_s", Json::nums(&of(false, |r| r.ground_s))),
        ("gibbs_s", Json::nums(&of(false, |r| r.gibbs_s))),
        (
            "ground_facts_per_s",
            Json::nums(&of(false, |r| r.facts_per_s)),
        ),
        (
            "gibbs_samples_per_s",
            Json::nums(&of(false, |r| r.draws_per_s)),
        ),
        ("batch_facts", Json::Num(last.facts as f64)),
        ("batch_factors", Json::Num(last.factors as f64)),
        (
            "batch_digest",
            Json::str(format!("{:016x}", reference.digest)),
        ),
        ("served_facts", Json::Num(facts as f64)),
        ("served_inferred", Json::Num(inferred.len() as f64)),
        ("read_us", latency_summary(&read_ns, 1e3)),
        (
            "read_requests_per_connection",
            Json::nums(
                &reads
                    .iter()
                    .map(|r| r.latencies_ns.len() as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "local_miss_ms",
            latency_summary(&misses.latencies(1.0), 1e6),
        ),
        ("local_hit_us", latency_summary(&hits.latencies(1.0), 1e3)),
        (
            "local_hit_p50_us_per_slice",
            Json::nums(&hit.per_slice(|s| percentile(s, 50.0) / 1e3)),
        ),
        (
            "read_qps_per_slice",
            Json::nums(&read.per_slice(|s| s.len() as f64)),
        ),
        ("delta_commit_ms", latency_summary(&writes.commit_ns, 1e6)),
        (
            "reads_beside_writes",
            Json::Num(writes.reader.attempted() as f64),
        ),
    ];

    // ---- per-layer metrics ----
    // Memory of the journey itself, before a traced run's replays add
    // their own. Demoted from the end-to-end list (README).
    let peak_rss_mb = peak_rss_mib()?;
    detail.push(("peak_rss_mb", Json::Num(peak_rss_mb)));
    let mut per_layer = BTreeMap::new();
    if p.trace {
        let read_p50_us = e2e["read_p50_us"];
        let inputs = TraceInputs {
            reps: &reps,
            last: &last,
            last_engine: last_engine.as_ref().expect("kept when tracing"),
            targets: &targets,
            first: &first,
            misses: &misses,
            hits: &hits,
            deltas: &deltas,
            read_p50_us,
        };
        let wire_new_facts: Vec<u64> = writes.outcomes.iter().map(|o| o.new_facts).collect();
        let (layer_metrics, replayed_new_facts) =
            trace_layers(p, &served, &config, &tracer, &inputs)?;
        per_layer = layer_metrics;
        check(
            "in_process_deltas_derive_what_the_server_derived",
            replayed_new_facts == wire_new_facts,
            format!("{} deltas", wire_new_facts.len()),
        );
        per_layer.insert("e2e.peak_rss_mb", peak_rss_mb);
        detail.push(("traced_expand_s", Json::nums(&of(true, |r| r.expand_s))));
    }

    Ok(Report {
        end_to_end: e2e,
        per_layer,
        attempted,
        failed,
        checks,
        detail: Json::obj(detail),
        spans: tracer.spans(),
    })
}

struct TraceInputs<'a> {
    reps: &'a [Rep],
    last: &'a ExpandRun,
    last_engine: &'a SingleNodeEngine,
    targets: &'a [i64],
    first: &'a LocalStats,
    misses: &'a LocalStats,
    hits: &'a LocalStats,
    deltas: &'a [String],
    read_p50_us: f64,
}

/// Everything `--trace 1` adds: attribute the batch expansion from its
/// spans, re-run the grounding queries under `ExecMetrics`, and replay
/// the serving inputs in process. Returns the metrics and, for the
/// cross-check, the new-fact count of every replayed delta.
fn trace_layers(
    p: &Params,
    served: &probkb::prelude::ProbKb,
    config: &probkb_server::prelude::ServerConfig,
    tracer: &Tracer,
    t: &TraceInputs,
) -> Result<(BTreeMap<&'static str, f64>, Vec<u64>), String> {
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Batch: medians over the traced expansions, from their spans.
    let spans = tracer.spans();
    let span_s = |name: &str, own: bool| median(&seconds_per_op(&spans, name, own));
    m.insert("core.load_s", span_s("engine.load", false));
    m.insert("core.ground_atoms_s", span_s("engine.ground_atoms", false));
    m.insert("core.insert_facts_s", span_s("engine.insert_facts", false));
    // Unconstrained runs never call the constraint queries.
    let constraints = seconds_per_op(&spans, "engine.constraints", false);
    m.insert(
        "core.constraints_s",
        if constraints.is_empty() {
            0.0
        } else {
            median(&constraints)
        },
    );
    m.insert(
        "core.ground_factors_s",
        span_s("engine.ground_factors", false),
    );
    m.insert("core.driver_self_s", span_s("core.ground", true));
    m.insert(
        "factorgraph.from_phi_s",
        span_s("factorgraph.from_phi", false),
    );
    m.insert("factorgraph.color_s", span_s("factorgraph.color", false));
    m.insert(
        "factorgraph.lineage_s",
        span_s("factorgraph.lineage", false),
    );
    m.insert("inference.gibbs_s", span_s("inference.gibbs", false));
    m.insert(
        "inference.write_marginals_s",
        span_s("inference.write_marginals", false),
    );
    m.insert(
        "trace.unattributed_frac",
        span_s("expand", true) / span_s("expand", false),
    );
    let wall = |traced: bool| -> Vec<f64> {
        t.reps
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.expand_s)
            .collect()
    };
    m.insert(
        "trace.overhead_frac",
        median(&wall(true)) / median(&wall(false)) - 1.0,
    );

    let report = &t.last.grounding;
    let new_facts: usize = report.iterations.iter().map(|i| i.new_facts).sum();
    m.insert("core.iterations", report.iterations.len() as f64);
    m.insert("core.queries", report.total_queries() as f64);
    m.insert("core.facts_total", t.last.facts as f64);
    m.insert("core.factors_total", t.last.factors as f64);
    m.insert("core.candidate_rows", t.last.candidate_rows as f64);
    m.insert(
        "core.new_fact_ratio",
        new_facts as f64 / t.last.candidate_rows.max(1) as f64,
    );

    let gibbs = &t.last.gibbs;
    m.insert("factorgraph.colors", gibbs.colors as f64);
    m.insert("factorgraph.shards", gibbs.shards as f64);
    m.insert("factorgraph.vars", gibbs.vars as f64);
    m.insert("factorgraph.factors", t.last.factors as f64);
    m.insert(
        "inference.samples_per_s_per_worker",
        gibbs.total_samples() as f64 / m["inference.gibbs_s"] / gibbs.workers as f64,
    );
    m.insert("inference.sweeps", (gibbs.burn_in + gibbs.sweeps) as f64);
    m.insert("inference.rhat", gibbs.rhat.unwrap_or(0.0));
    m.insert("inference.ess_min", gibbs.ess.unwrap_or(0.0));

    // Pager: one traced expansion's buffer pool activity (all zero
    // when the workload grounds in memory).
    let buffers: Vec<&BufferStats> = t
        .reps
        .iter()
        .filter(|r| r.traced)
        .map(|r| &r.buffer)
        .collect();
    let pool = |f: fn(&BufferStats) -> u64| -> f64 {
        median(&buffers.iter().map(|b| f(b) as f64).collect::<Vec<_>>())
    };
    m.insert("pager.pins", pool(|b| b.pins));
    m.insert("pager.misses", pool(|b| b.misses));
    m.insert("pager.evictions", pool(|b| b.evictions));
    m.insert("pager.bytes_spilled", pool(|b| b.bytes_spilled));
    m.insert(
        "pager.hit_ratio",
        if m["pager.pins"] > 0.0 {
            pool(|b| b.hits) / m["pager.pins"]
        } else {
            0.0
        },
    );
    m.insert(
        "relational.spill_bytes_per_row",
        m["pager.bytes_spilled"] / (t.last.facts + t.last.factors).max(1) as f64,
    );

    // Relational: the grounding queries on the final catalog.
    let profile = tracer.time("relational.profile_queries", 0, || {
        profile_queries(t.last_engine, p.nproc)
    })?;
    m.insert("relational.exec_wall_s", profile.wall_s);
    m.insert("relational.op_join_s", profile.join_s);
    m.insert("relational.op_scan_s", profile.scan_s);
    m.insert("relational.op_distinct_s", profile.distinct_s);
    m.insert("relational.op_other_s", profile.other_s);
    m.insert("relational.rows_out", profile.rows_out as f64);
    m.insert(
        "relational.rows_per_s",
        profile.rows_out as f64 / profile.wall_s,
    );
    m.insert("relational.est_error_ratio", profile.est_error_ratio);

    // Serving: ground and sample the served KB in process, the way
    // `start()` does, on the same schedule.
    let mut pipeline = tracer
        .time("server.build_pipeline", 0, || {
            IncrementalPipeline::new(served.clone(), config.grounding.clone(), config.gibbs)
        })
        .map_err(|e| e.to_string())?;
    let epoch = EpochState::from_pipeline(&pipeline, 0);
    let reads = p.sizing.count(REPLAYED_READS);
    layers::replay_reads(&epoch, p.seed, reads, tracer)?;
    let local = layers::replay_local(&pipeline, t.targets, tracer)?;
    let replayed = layers::replay_deltas(
        &mut pipeline,
        t.deltas,
        &p.scratch.join(format!("{}.replay.wal", p.workload.name)),
        tracer,
    )?;

    let spans = tracer.spans();
    let mut in_process_ns = 0.0;
    for (metric, span) in [
        ("client.encode_request_ns", "client.encode_request"),
        ("server.decode_request_ns", "server.decode_request"),
        ("server.encode_response_ns", "server.encode_response"),
        ("client.decode_response_ns", "client.decode_response"),
    ] {
        let ns = layers::median_ns(&spans, span);
        in_process_ns += ns;
        m.insert(metric, ns);
    }
    for (metric, span) in [
        ("server.serve_fact_ns", "server.serve_fact"),
        ("server.serve_marginal_ns", "server.serve_marginal"),
        ("server.serve_lineage_ns", "server.serve_lineage"),
    ] {
        m.insert(metric, layers::median_ns(&spans, span));
    }
    // The mix is mostly FACT, so the median request is a FACT.
    in_process_ns += m["server.serve_fact_ns"];
    m.insert(
        "server.wire_overhead_us",
        t.read_p50_us - in_process_ns / 1e3,
    );

    let info = |f: fn(&serve::LocalAnswer) -> f64| -> Vec<f64> {
        t.misses.answers.iter().map(f).collect()
    };
    let share = |f: fn(&serve::LocalAnswer) -> bool| -> f64 {
        t.misses.answers.iter().filter(|a| f(a)).count() as f64 / t.misses.answers.len() as f64
    };
    m.insert("local.first_query_ms", t.first.latencies(1e6)[0]);
    m.insert("local.index_build_s", local.index_build_s);
    m.insert("local.expand_us", median(&local.expand_us));
    m.insert(
        "inference.local_infer_us",
        (median(&local.marginal_us) - median(&local.expand_us)).max(0.0),
    );
    m.insert("local.nodes_p50", median(&info(|a| a.info.nodes as f64)));
    m.insert(
        "local.factors_p50",
        median(&info(|a| a.info.factors as f64)),
    );
    m.insert(
        "local.frontier_stop_frac",
        share(|a| a.info.frontier_stops > 0),
    );
    m.insert("local.exact_frac", share(|a| a.info.exact));
    m.insert("local.cache_hit_ratio", t.hits.hit_ratio());
    m.insert(
        "e2e.local_miss_p99_ms",
        percentile(&sorted(t.misses.latencies(1e6)), 99.0),
    );

    let delta =
        |f: fn(&layers::DeltaLayers) -> f64| -> Vec<f64> { replayed.iter().map(f).collect() };
    m.insert("kb.parse_delta_us", median(&delta(|d| d.parse_us)));
    m.insert("delta.ground_ms", median(&delta(|d| d.ground_ms)));
    m.insert("delta.rounds", median(&delta(|d| d.rounds as f64)));
    m.insert(
        "delta.new_facts",
        delta(|d| d.new_facts as f64).iter().sum(),
    );
    m.insert(
        "delta.new_factors",
        delta(|d| d.new_factors as f64).iter().sum(),
    );
    m.insert(
        "delta.splice_recolor_ms",
        median(&delta(|d| {
            (d.apply_ms - d.ground_ms - d.blanket_ms).max(0.0)
        })),
    );
    m.insert("inference.blanket_ms", median(&delta(|d| d.blanket_ms)));
    m.insert(
        "inference.blanket_touched_frac",
        median(&delta(|d| d.touched_frac)),
    );
    m.insert("storage.wal_commit_us", median(&delta(|d| d.wal_commit_us)));
    m.insert(
        "storage.wal_bytes_per_delta",
        median(&delta(|d| d.wal_bytes as f64)),
    );
    m.insert(
        "server.epoch_build_ms",
        median(&delta(|d| d.epoch_build_ms)),
    );

    let new_facts = replayed.iter().map(|d| d.new_facts as u64).collect();
    Ok((m, new_facts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{END_TO_END, PER_LAYER};
    use crate::workloads::WORKLOADS;

    /// `--quick` smoke: every workload, traced, in seconds. The numbers
    /// are not comparable with a full run's; the shape must be.
    #[test]
    fn quick_traced_run_of_every_workload() {
        let scratch = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}", std::process::id()));
        for workload in WORKLOADS {
            let report = run(&Params {
                workload,
                seed: 42,
                seconds: 0.5,
                trace: true,
                sizing: Sizing { quick: true },
                nproc: 2,
                scratch: scratch.clone(),
            })
            .unwrap_or_else(|e| panic!("{}: {e}", workload.name));
            for check in &report.checks {
                assert!(
                    check.ok,
                    "{}: {} {}",
                    workload.name, check.name, check.detail
                );
            }
            assert_eq!(report.failed, 0, "{}", workload.name);
            for (name, _, _) in END_TO_END {
                let value = report.end_to_end[name];
                assert!(
                    value.is_finite() && value > 0.0,
                    "{}: {name} = {value}",
                    workload.name
                );
            }
            for (name, _, _) in PER_LAYER {
                let value = report.per_layer[name];
                assert!(value.is_finite(), "{}: {name} = {value}", workload.name);
            }
            assert_eq!(report.per_layer.len(), PER_LAYER.len());
            // (At a tenth of the size no table fills a 4096-row chunk, so
            // even ground_paged touches no page here.)
            assert!(workload.paged || report.per_layer["pager.pins"] == 0.0);
            assert!(!report.spans.is_empty());
        }
        let _ = std::fs::remove_dir_all(scratch);
    }
}
