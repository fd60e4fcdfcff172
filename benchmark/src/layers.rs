//! Per-layer measurements of the serving half, taken in process during a
//! traced run: the same request stream, local targets and deltas the
//! wire phases used, pushed through each layer's public functions with a
//! span around every call.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use probkb::prelude::{IncrementalPipeline, LocalBudget, LocalGrounder, LocalSession, WalWriter};
use probkb_client::prelude::{
    decode_request, decode_response, encode_request, encode_response, Request,
};
use probkb_server::prelude::{serve_read, EpochState};

use crate::metrics::median;
use crate::rng::Rng;
use crate::serve::{read_request, stream};
use crate::spans::{Span, Tracer};

/// Start of the op-id range each kind of operation uses in the trace.
pub mod op {
    pub const READ: u64 = 1_000_000;
    pub const LOCAL: u64 = 2_000_000;
    pub const DELTA: u64 = 3_000_000;
}

/// Median duration in nanoseconds of the spans called `name`.
pub fn median_ns(spans: &[Span], name: &str) -> f64 {
    let durations: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    if durations.is_empty() {
        0.0
    } else {
        median(&durations)
    }
}

/// Replay connection 0's read stream through codec and snapshot lookup:
/// `encode_request → decode_request → serve_read → encode_response →
/// decode_response`, one span each under a `request` span.
pub fn replay_reads(
    state: &EpochState,
    seed: u64,
    requests: usize,
    tracer: &Tracer,
) -> Result<(), String> {
    let mut rng = Rng::new(seed, stream::READS);
    let facts = state.num_facts();
    for i in 0..requests {
        let id = op::READ + i as u64;
        let request = read_request(&mut rng, facts);
        let serve_span = match request {
            Request::Fact(_) => "server.serve_fact",
            Request::Marginal(_) => "server.serve_marginal",
            _ => "server.serve_lineage",
        };
        let _root = tracer.span("request", id);
        let wire = tracer.time("client.encode_request", id, || encode_request(&request));
        let decoded = tracer
            .time("server.decode_request", id, || decode_request(&wire))
            .map_err(|e| e.to_string())?;
        let response = tracer
            .time(serve_span, id, || serve_read(state, &decoded))
            .ok_or("read request not servable")?;
        let wire = tracer.time("server.encode_response", id, || encode_response(&response));
        let back = tracer
            .time("client.decode_response", id, || decode_response(&wire))
            .map_err(|e| e.to_string())?;
        if back != response {
            return Err(format!("codec round trip changed {response:?}"));
        }
    }
    Ok(())
}

/// What the in-process local-grounding replay found.
#[derive(Debug, Default)]
pub struct LocalLayers {
    pub index_build_s: f64,
    /// Per miss: the whole `LocalSession::marginal` call.
    pub marginal_us: Vec<f64>,
    /// Per miss: `LocalGrounder::expand` alone.
    pub expand_us: Vec<f64>,
}

/// Build the B-tree probe indexes over the pipeline's `TΠ`, then answer
/// each target twice over: expansion alone, and the whole miss. Local
/// inference is the difference.
pub fn replay_local(
    pipeline: &IncrementalPipeline,
    targets: &[i64],
    tracer: &Tracer,
) -> Result<LocalLayers, String> {
    let session = pipeline.session();
    let facts = session.facts().clone();
    let started = Instant::now();
    let grounder = tracer
        .time("local.index_build", op::LOCAL, || {
            LocalGrounder::new(facts, &session.kb().rules)
        })
        .map_err(|e| e.to_string())?;
    let mut layers = LocalLayers {
        index_build_s: started.elapsed().as_secs_f64(),
        ..LocalLayers::default()
    };
    let mut local = LocalSession::new(grounder, *pipeline.gibbs(), 0);
    for (i, &target) in targets.iter().enumerate() {
        let id = op::LOCAL + 1 + i as u64;
        let _root = tracer.span("local_miss", id);
        let started = Instant::now();
        let ground = tracer.time("local.expand", id, || {
            local.grounder().expand(target, LocalBudget::UNLIMITED)
        });
        layers.expand_us.push(started.elapsed().as_secs_f64() * 1e6);
        black_box(ground.ok_or("unknown local target")?);
        let started = Instant::now();
        let answer = tracer.time("local.marginal", id, || local.marginal(target, None));
        layers
            .marginal_us
            .push(started.elapsed().as_secs_f64() * 1e6);
        black_box(answer.ok_or("unknown local target")?);
    }
    Ok(layers)
}

/// One delta pushed through the write path's layers.
#[derive(Debug, Default, Clone)]
pub struct DeltaLayers {
    pub parse_us: f64,
    pub apply_ms: f64,
    pub ground_ms: f64,
    pub blanket_ms: f64,
    pub rounds: usize,
    pub new_facts: usize,
    pub new_factors: usize,
    pub touched_frac: f64,
    pub epoch_build_ms: f64,
    pub wal_commit_us: f64,
    pub wal_bytes: usize,
}

/// Feed the pipeline the deltas the server got: parse, apply (grounding
/// and blanket resampling time come from its own report), build the
/// epoch snapshot the writer would publish, and append + commit the
/// delta text to a WAL of our own.
pub fn replay_deltas(
    pipeline: &mut IncrementalPipeline,
    deltas: &[String],
    wal_path: &Path,
    tracer: &Tracer,
) -> Result<Vec<DeltaLayers>, String> {
    let _ = std::fs::remove_file(wal_path);
    let mut wal = WalWriter::create(wal_path).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    for (i, text) in deltas.iter().enumerate() {
        let id = op::DELTA + i as u64;
        let _root = tracer.span("delta", id);
        let ms = |from: Instant| from.elapsed().as_secs_f64() * 1e3;

        let started = Instant::now();
        let delta = tracer
            .time("kb.parse_delta", id, || pipeline.parse_delta(text))
            .map_err(|e| e.to_string())?;
        let parse_us = ms(started) * 1e3;

        let started = Instant::now();
        let applied = tracer
            .time("pipeline.apply_delta", id, || pipeline.apply_delta(&delta))
            .map_err(|e| e.to_string())?;
        let apply_ms = ms(started);

        let started = Instant::now();
        tracer
            .time("storage.wal_commit", id, || {
                wal.append(text.as_bytes()).and_then(|()| wal.commit())
            })
            .map_err(|e| e.to_string())?;
        let wal_commit_us = ms(started) * 1e3;

        let started = Instant::now();
        black_box(tracer.time("server.epoch_build", id, || {
            EpochState::from_pipeline(pipeline, i as u64 + 1)
        }));
        let epoch_build_ms = ms(started);

        out.push(DeltaLayers {
            parse_us,
            apply_ms,
            ground_ms: applied.grounding.elapsed.as_secs_f64() * 1e3,
            blanket_ms: applied.inference.elapsed.as_secs_f64() * 1e3,
            rounds: applied.grounding.rounds.len(),
            new_facts: applied.grounding.new_facts,
            new_factors: applied.grounding.new_factors,
            touched_frac: applied.inference.touched as f64 / applied.inference.vars.max(1) as f64,
            epoch_build_ms,
            wal_commit_us,
            wal_bytes: text.len(),
        });
        // Like the writer thread: next delta's preparation is off the
        // commit path.
        pipeline.prepare().map_err(|e| e.to_string())?;
    }
    Ok(out)
}
