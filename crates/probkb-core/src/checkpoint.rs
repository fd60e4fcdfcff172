//! Checkpoint/resume for the grounding loop (DESIGN.md, "Durability").
//!
//! [`ground_checkpointed`] runs Algorithm 1 exactly like
//! [`crate::grounding::ground`], but makes the run durable:
//!
//! * Before iteration 1 it writes a **base snapshot** of the freshly
//!   loaded engine state (`probkb_storage::snapshot`).
//! * After every completed iteration it appends one CRC-guarded frame to
//!   a **write-ahead log** and fsyncs it — the frame carries the exact
//!   new rows, violator set, and post-iteration fact count.
//! * Every [`CheckpointConfig::snapshot_every`] iterations it writes a
//!   fresh snapshot so recovery replays a bounded suffix of the log.
//!
//! A killed run resumes from the newest *valid* snapshot plus WAL
//! replay; torn or corrupted tails are truncated at the first bad frame,
//! damaged snapshots fall back to older ones (ultimately the base
//! snapshot or a fresh start). Because every iteration's effect is
//! recorded as data (not recomputed), a resumed run finishes with
//! **byte-identical** facts and factors to an uninterrupted one.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use probkb_kb::prelude::ProbKb;
use probkb_relational::prelude::{Error as EngineError, Row, Table};
use probkb_storage::error::io_err;
use probkb_storage::format::{
    decode_named_tables, encode_named_tables, get_table, put_table, ByteReader, ByteWriter,
};
use probkb_storage::kbcodec::{encode_kb, kb_digest};
use probkb_storage::snapshot::{list_snapshots, snapshot_file_name, Snapshot, SnapshotBuilder};
use probkb_storage::wal::{scan_wal, WalWriter};
use probkb_storage::{crc32, StorageError};

use crate::engine::{GroundingEngine, ViolatorKey};
use crate::grounding::{
    apply_engine_knobs, FactorPass, GroundingConfig, GroundingOutcome, GroundingRun, IterationStats,
};
use crate::relmodel::{load, tpi, FactRegistry};

/// WAL file name inside a checkpoint directory.
pub const WAL_FILE: &str = "grounding.wal";

/// Process exit code used by the crash-injection hook
/// (`PROBKB_CRASH_AFTER_ITER`), distinguishable from panics and normal
/// failures in recovery smoke tests.
pub const CRASH_EXIT_CODE: i32 = 86;

/// Environment variable read by [`CheckpointConfig::with_crash_from_env`]:
/// when set to an iteration number, the run exits with
/// [`CRASH_EXIT_CODE`] right after committing that iteration's WAL frame.
pub const CRASH_ENV_VAR: &str = "PROBKB_CRASH_AFTER_ITER";

/// Durability knobs for [`ground_checkpointed`].
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory holding the WAL and snapshots. Created if missing.
    pub dir: PathBuf,
    /// Write a full snapshot every N completed iterations (0 disables
    /// periodic snapshots; the base and final snapshots are always
    /// written).
    pub snapshot_every: usize,
    /// Crash-injection hook: exit the process with [`CRASH_EXIT_CODE`]
    /// immediately after committing this iteration's WAL frame (and its
    /// periodic snapshot, if due). `None` disables.
    pub crash_after_iteration: Option<usize>,
}

impl CheckpointConfig {
    /// Checkpoint into `dir` with a snapshot every 5 iterations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        CheckpointConfig {
            dir: dir.into(),
            snapshot_every: 5,
            crash_after_iteration: None,
        }
    }

    /// Enable the crash hook from [`CRASH_ENV_VAR`] if it is set to a
    /// parseable iteration number.
    pub fn with_crash_from_env(mut self) -> Self {
        if let Ok(v) = std::env::var(CRASH_ENV_VAR) {
            self.crash_after_iteration = v.trim().parse().ok();
        }
        self
    }
}

/// Errors from the checkpointed driver: either the engine failed (same
/// failures [`crate::grounding::ground`] surfaces) or durable storage did.
#[derive(Debug)]
pub enum CheckpointError {
    /// The grounding engine reported an error.
    Engine(EngineError),
    /// Reading or writing checkpoint state failed.
    Storage(StorageError),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Engine(e) => write!(f, "engine: {e}"),
            CheckpointError::Storage(e) => write!(f, "storage: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<EngineError> for CheckpointError {
    fn from(e: EngineError) -> Self {
        CheckpointError::Engine(e)
    }
}

impl From<StorageError> for CheckpointError {
    fn from(e: StorageError) -> Self {
        CheckpointError::Storage(e)
    }
}

/// Result alias for the checkpointed driver.
pub type CheckpointResult<T> = std::result::Result<T, CheckpointError>;

pub(crate) fn corrupt(msg: impl Into<String>) -> CheckpointError {
    CheckpointError::Storage(StorageError::Corrupt(msg.into()))
}

/// How a [`ground_checkpointed`] call recovered its starting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Iteration of the snapshot the state was restored from (`Some(0)`
    /// is the pre-iteration base snapshot); `None` for a fresh start.
    pub snapshot_iteration: Option<usize>,
    /// Completed iterations re-applied from the WAL on top of the
    /// snapshot.
    pub replayed_iterations: usize,
    /// The previous run had already finished (its factor frame was
    /// recovered), so no live grounding work was needed.
    pub completed_on_disk: bool,
}

impl ResumeSummary {
    /// True when any on-disk state was reused.
    pub fn resumed(&self) -> bool {
        self.snapshot_iteration.is_some()
    }
}

/// A grounding outcome plus how it was (re)started.
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The grounding result — byte-identical to an uninterrupted
    /// [`crate::grounding::ground`] run with the same inputs.
    pub outcome: GroundingOutcome,
    /// Recovery provenance.
    pub resume: ResumeSummary,
}

// ---------------------------------------------------------------------
// WAL records
// ---------------------------------------------------------------------

const REC_BEGIN: u8 = 1;
const REC_PRECLEAN: u8 = 2;
const REC_ITERATION: u8 = 3;
const REC_FACTORS: u8 = 4;

/// One committed iteration, as logged: everything needed to re-apply its
/// effect to a restored engine without re-running the join queries.
#[derive(Debug, Clone)]
struct IterationRecord {
    iteration: usize,
    converged: bool,
    facts_after: usize,
    deleted: usize,
    queries: usize,
    elapsed: Duration,
    violators: Vec<(i64, i64)>,
    new_rows: Vec<Row>,
}

#[derive(Debug, Clone)]
enum WalRecord {
    Begin {
        kb_digest: u32,
        cfg_digest: u32,
        engine: String,
    },
    Preclean {
        deleted: usize,
        violators: Vec<(i64, i64)>,
    },
    Iteration(IterationRecord),
    Factors(FactorPass),
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn put_violators(w: &mut ByteWriter, violators: &[(i64, i64)]) {
    w.put_u32(violators.len() as u32);
    for &(e, c) in violators {
        w.put_i64(e);
        w.put_i64(c);
    }
}

fn get_violators(r: &mut ByteReader<'_>) -> probkb_storage::Result<Vec<(i64, i64)>> {
    let n = r.get_u32()? as usize;
    let mut v = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let e = r.get_i64()?;
        let c = r.get_i64()?;
        v.push((e, c));
    }
    Ok(v)
}

fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut w = ByteWriter::new();
    match rec {
        WalRecord::Begin {
            kb_digest,
            cfg_digest,
            engine,
        } => {
            w.put_u8(REC_BEGIN);
            w.put_u32(*kb_digest);
            w.put_u32(*cfg_digest);
            w.put_str(engine);
        }
        WalRecord::Preclean { deleted, violators } => {
            w.put_u8(REC_PRECLEAN);
            w.put_u64(*deleted as u64);
            put_violators(&mut w, violators);
        }
        WalRecord::Iteration(it) => {
            w.put_u8(REC_ITERATION);
            w.put_u64(it.iteration as u64);
            w.put_u8(it.converged as u8);
            w.put_u64(it.facts_after as u64);
            w.put_u64(it.deleted as u64);
            w.put_u64(it.queries as u64);
            w.put_u64(duration_us(it.elapsed));
            put_violators(&mut w, &it.violators);
            let mut rows = Table::empty(crate::relmodel::tpi_schema());
            for row in &it.new_rows {
                rows.push_unchecked(row.clone());
            }
            put_table(&mut w, &rows);
        }
        WalRecord::Factors(pass) => {
            w.put_u8(REC_FACTORS);
            w.put_u64(pass.queries as u64);
            w.put_u64(duration_us(pass.elapsed));
            put_table(&mut w, &pass.table);
        }
    }
    w.into_bytes()
}

fn decode_record(payload: &[u8]) -> probkb_storage::Result<WalRecord> {
    let mut r = ByteReader::new(payload);
    let rec = match r.get_u8()? {
        REC_BEGIN => WalRecord::Begin {
            kb_digest: r.get_u32()?,
            cfg_digest: r.get_u32()?,
            engine: r.get_str()?,
        },
        REC_PRECLEAN => WalRecord::Preclean {
            deleted: r.get_u64()? as usize,
            violators: get_violators(&mut r)?,
        },
        REC_ITERATION => {
            let iteration = r.get_u64()? as usize;
            let converged = r.get_u8()? != 0;
            let facts_after = r.get_u64()? as usize;
            let deleted = r.get_u64()? as usize;
            let queries = r.get_u64()? as usize;
            let elapsed = Duration::from_micros(r.get_u64()?);
            let violators = get_violators(&mut r)?;
            let new_rows = get_table(&mut r)?.into_rows();
            WalRecord::Iteration(IterationRecord {
                iteration,
                converged,
                facts_after,
                deleted,
                queries,
                elapsed,
                violators,
                new_rows,
            })
        }
        REC_FACTORS => {
            let queries = r.get_u64()? as usize;
            let elapsed = Duration::from_micros(r.get_u64()?);
            let table = get_table(&mut r)?;
            WalRecord::Factors(FactorPass {
                table,
                queries,
                elapsed,
            })
        }
        tag => {
            return Err(StorageError::Corrupt(format!(
                "unknown WAL record tag {tag}"
            )))
        }
    };
    if !r.is_at_end() {
        return Err(StorageError::Corrupt(format!(
            "WAL record has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(rec)
}

/// Digest of the [`GroundingConfig`] knobs that change a run's *output*
/// (threads and optimize only change scheduling and physical plans,
/// never results, so they are excluded — a run may resume under a
/// different optimizer setting).
pub(crate) fn config_digest(config: &GroundingConfig) -> u32 {
    let mut w = ByteWriter::new();
    w.put_u64(config.max_iterations as u64);
    w.put_u8(config.preclean as u8);
    w.put_u8(config.apply_constraints as u8);
    match config.max_total_facts {
        Some(cap) => {
            w.put_u8(1);
            w.put_u64(cap as u64);
        }
        None => w.put_u8(0),
    }
    crc32(&w.into_bytes())
}

// ---------------------------------------------------------------------
// Snapshot sections
// ---------------------------------------------------------------------

const SEC_META: &str = "meta";
const SEC_KB: &str = "kb";
const SEC_REGISTRY: &str = "registry";
const SEC_STATE: &str = "state";
const SEC_STATS: &str = "stats";
const SEC_FACTITER: &str = "factiter";

#[derive(Debug, Clone, PartialEq, Eq)]
struct SnapshotMeta {
    kb_digest: u32,
    cfg_digest: u32,
    engine: String,
    iteration: usize,
    precleaned: usize,
    converged: bool,
}

fn encode_meta(m: &SnapshotMeta) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(m.kb_digest);
    w.put_u32(m.cfg_digest);
    w.put_str(&m.engine);
    w.put_u64(m.iteration as u64);
    w.put_u64(m.precleaned as u64);
    w.put_u8(m.converged as u8);
    w.into_bytes()
}

fn decode_meta(bytes: &[u8]) -> probkb_storage::Result<SnapshotMeta> {
    let mut r = ByteReader::new(bytes);
    let m = SnapshotMeta {
        kb_digest: r.get_u32()?,
        cfg_digest: r.get_u32()?,
        engine: r.get_str()?,
        iteration: r.get_u64()? as usize,
        precleaned: r.get_u64()? as usize,
        converged: r.get_u8()? != 0,
    };
    if !r.is_at_end() {
        return Err(StorageError::Corrupt("meta has trailing bytes".into()));
    }
    Ok(m)
}

fn encode_registry(registry: &FactRegistry) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_i64(registry.next_id());
    let entries = registry.entries();
    w.put_u64(entries.len() as u64);
    for (key, id) in entries {
        for k in key {
            w.put_i64(k);
        }
        w.put_i64(id);
    }
    w.into_bytes()
}

fn decode_registry(bytes: &[u8]) -> probkb_storage::Result<FactRegistry> {
    let mut r = ByteReader::new(bytes);
    let next_id = r.get_i64()?;
    let n = r.get_u64()? as usize;
    let mut entries = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let mut key = [0i64; 5];
        for k in &mut key {
            *k = r.get_i64()?;
        }
        let id = r.get_i64()?;
        entries.push((key, id));
    }
    if !r.is_at_end() {
        return Err(StorageError::Corrupt("registry has trailing bytes".into()));
    }
    Ok(FactRegistry::from_entries(next_id, entries))
}

fn encode_stats(stats: &[IterationStats]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_u32(stats.len() as u32);
    for s in stats {
        w.put_u64(s.iteration as u64);
        w.put_u64(s.new_facts as u64);
        w.put_u64(s.deleted_facts as u64);
        w.put_u64(s.facts_after as u64);
        w.put_u64(s.queries as u64);
        w.put_u64(duration_us(s.elapsed));
    }
    w.into_bytes()
}

fn decode_stats(bytes: &[u8]) -> probkb_storage::Result<Vec<IterationStats>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u32()? as usize;
    let mut stats = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        stats.push(IterationStats {
            iteration: r.get_u64()? as usize,
            new_facts: r.get_u64()? as usize,
            deleted_facts: r.get_u64()? as usize,
            facts_after: r.get_u64()? as usize,
            queries: r.get_u64()? as usize,
            elapsed: Duration::from_micros(r.get_u64()?),
        });
    }
    if !r.is_at_end() {
        return Err(StorageError::Corrupt("stats has trailing bytes".into()));
    }
    Ok(stats)
}

pub(crate) fn encode_factiter(fact_iteration: &HashMap<i64, usize>) -> Vec<u8> {
    let mut pairs: Vec<(i64, usize)> = fact_iteration.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    let mut w = ByteWriter::new();
    w.put_u64(pairs.len() as u64);
    for (id, iteration) in pairs {
        w.put_i64(id);
        w.put_u64(iteration as u64);
    }
    w.into_bytes()
}

pub(crate) fn decode_factiter(bytes: &[u8]) -> probkb_storage::Result<HashMap<i64, usize>> {
    let mut r = ByteReader::new(bytes);
    let n = r.get_u64()? as usize;
    let mut map = HashMap::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        let id = r.get_i64()?;
        let iteration = r.get_u64()? as usize;
        map.insert(id, iteration);
    }
    if !r.is_at_end() {
        return Err(StorageError::Corrupt("factiter has trailing bytes".into()));
    }
    Ok(map)
}

// ---------------------------------------------------------------------
// Restored state
// ---------------------------------------------------------------------

/// The (KB, config, engine) triple a checkpoint directory belongs to.
/// State written under one identity is never replayed into another.
#[derive(Debug)]
struct RunIdentity {
    kb_digest: u32,
    cfg_digest: u32,
    engine: String,
}

impl RunIdentity {
    fn begin_record(&self) -> WalRecord {
        WalRecord::Begin {
            kb_digest: self.kb_digest,
            cfg_digest: self.cfg_digest,
            engine: self.engine.clone(),
        }
    }

    fn matches(&self, kb_digest: u32, cfg_digest: u32, engine: &str) -> bool {
        self.kb_digest == kb_digest && self.cfg_digest == cfg_digest && self.engine == engine
    }
}

/// A run rebuilt from disk: the stepper state
/// ([`crate::grounding::GroundingRun`]) a snapshot captured, advanced by
/// WAL replay.
#[derive(Debug)]
struct Restored {
    run: GroundingRun,
    /// The logged `TΦ` frame, when the previous run got that far.
    factors: Option<FactorPass>,
    /// Completed iterations re-applied from the WAL.
    replayed: usize,
}

impl Restored {
    fn from_run(run: GroundingRun) -> Restored {
        Restored {
            run,
            factors: None,
            replayed: 0,
        }
    }
}

fn violator_set(violators: &[(i64, i64)]) -> HashSet<ViolatorKey> {
    violators.iter().copied().collect()
}

/// Re-apply logged WAL records on top of a state restored from a
/// snapshot taken after `snap_iteration`. Records at or before the
/// snapshot are skipped (their effects are already in the state); later
/// ones must form a contiguous run or the candidate is rejected.
fn apply_records(
    engine: &mut dyn GroundingEngine,
    config: &GroundingConfig,
    st: &mut Restored,
    snap_iteration: usize,
    records: &[WalRecord],
) -> CheckpointResult<()> {
    let run = &mut st.run;
    for rec in records {
        match rec {
            WalRecord::Begin { .. } => {
                return Err(corrupt("unexpected mid-log Begin record"));
            }
            WalRecord::Preclean { deleted, violators } => {
                if snap_iteration == 0 && run.precleaned.is_none() {
                    let applied = engine.delete_violators(&violator_set(violators))?;
                    if applied != *deleted {
                        return Err(corrupt(format!(
                            "preclean replay deleted {applied} facts, log says {deleted}"
                        )));
                    }
                    engine.redistribute()?;
                }
                run.precleaned = Some(*deleted);
            }
            WalRecord::Iteration(it) => {
                if it.iteration <= snap_iteration {
                    continue; // already folded into the snapshot
                }
                let expected = run.last_iteration().max(snap_iteration) + 1;
                if it.iteration != expected {
                    return Err(corrupt(format!(
                        "WAL gap: expected iteration {expected}, found {}",
                        it.iteration
                    )));
                }
                let new_facts = it.new_rows.len();
                for row in &it.new_rows {
                    let key = [
                        row[tpi::R].as_int().expect("logged R"),
                        row[tpi::X].as_int().expect("logged x"),
                        row[tpi::C1].as_int().expect("logged C1"),
                        row[tpi::Y].as_int().expect("logged y"),
                        row[tpi::C2].as_int().expect("logged C2"),
                    ];
                    let logged_id = row[tpi::I].as_int().expect("logged id");
                    match run.registry.register(key) {
                        Some(id) if id == logged_id => {}
                        other => {
                            return Err(corrupt(format!(
                                "replay id mismatch: log assigns {logged_id}, registry {other:?}"
                            )));
                        }
                    }
                    run.fact_iteration.insert(logged_id, it.iteration);
                }
                if it.converged {
                    if new_facts != 0 {
                        return Err(corrupt("converged frame carries new rows"));
                    }
                    run.converged = true;
                } else {
                    engine.insert_facts(it.new_rows.clone())?;
                    if config.apply_constraints {
                        let deleted = engine.delete_violators(&violator_set(&it.violators))?;
                        if deleted != it.deleted {
                            return Err(corrupt(format!(
                                "iteration {} replay deleted {deleted} facts, log says {}",
                                it.iteration, it.deleted
                            )));
                        }
                    }
                    engine.redistribute()?;
                }
                let facts_after = engine.fact_count()?;
                if facts_after != it.facts_after {
                    return Err(corrupt(format!(
                        "iteration {} replay left {facts_after} facts, log says {}",
                        it.iteration, it.facts_after
                    )));
                }
                run.iterations.push(IterationStats {
                    iteration: it.iteration,
                    new_facts,
                    deleted_facts: it.deleted,
                    facts_after,
                    queries: it.queries,
                    elapsed: it.elapsed,
                });
                run.check_cap(config);
                st.replayed += 1;
            }
            WalRecord::Factors(pass) => {
                st.factors = Some(pass.clone());
            }
        }
    }
    Ok(())
}

/// Restore engine + driver state from one snapshot file, then replay the
/// usable WAL suffix. Any failure rejects this candidate.
fn try_resume_snapshot(
    engine: &mut dyn GroundingEngine,
    config: &GroundingConfig,
    path: &Path,
    snap_iteration: usize,
    records: &[WalRecord],
    identity: &RunIdentity,
) -> CheckpointResult<Restored> {
    let snap = Snapshot::read_from(path)?;
    let meta = decode_meta(snap.section(SEC_META)?)?;
    if !identity.matches(meta.kb_digest, meta.cfg_digest, &meta.engine) {
        return Err(corrupt(format!(
            "snapshot {} belongs to a different run",
            path.display()
        )));
    }
    if meta.iteration != snap_iteration {
        return Err(corrupt(format!(
            "snapshot {} names iteration {snap_iteration} but records {}",
            path.display(),
            meta.iteration
        )));
    }
    let state = decode_named_tables(snap.section(SEC_STATE)?)?;
    engine.import_state(&state)?;
    let mut run = GroundingRun::new(decode_registry(snap.section(SEC_REGISTRY)?)?);
    // Only the base (iteration-0) snapshot predates the preclean pass.
    run.precleaned = (snap_iteration > 0).then_some(meta.precleaned);
    run.iterations = decode_stats(snap.section(SEC_STATS)?)?;
    run.fact_iteration = decode_factiter(snap.section(SEC_FACTITER)?)?;
    run.converged = meta.converged;
    if run.last_iteration() != snap_iteration {
        return Err(corrupt("snapshot stats do not reach its iteration"));
    }
    run.check_cap(config);
    let mut st = Restored::from_run(run);
    apply_records(engine, config, &mut st, snap_iteration, records)?;
    Ok(st)
}

/// Rebuild the base (iteration-0) state straight from the KB and replay
/// the whole usable WAL — the fallback when every snapshot is damaged
/// but the log survived.
fn try_resume_base(
    engine: &mut dyn GroundingEngine,
    kb: &ProbKb,
    config: &GroundingConfig,
    records: &[WalRecord],
) -> CheckpointResult<Restored> {
    let rel = load(kb);
    engine.load(&rel)?;
    let mut st = Restored::from_run(GroundingRun::new(rel.registry));
    apply_records(engine, config, &mut st, 0, records)?;
    Ok(st)
}

/// Snapshot the engine and the stepper state as of the run's last
/// completed iteration.
fn write_snapshot(
    dir: &Path,
    identity: &RunIdentity,
    kb_bytes: &[u8],
    engine: &dyn GroundingEngine,
    run: &GroundingRun,
) -> CheckpointResult<()> {
    let meta = SnapshotMeta {
        kb_digest: identity.kb_digest,
        cfg_digest: identity.cfg_digest,
        engine: identity.engine.clone(),
        iteration: run.last_iteration(),
        precleaned: run.precleaned.unwrap_or(0),
        converged: run.converged,
    };
    let state = engine.export_state()?;
    let mut builder = SnapshotBuilder::new();
    builder
        .section(SEC_META, encode_meta(&meta))
        .section(SEC_KB, kb_bytes.to_vec())
        .section(SEC_REGISTRY, encode_registry(&run.registry))
        .section(SEC_STATE, encode_named_tables(&state))
        .section(SEC_STATS, encode_stats(&run.iterations))
        .section(SEC_FACTITER, encode_factiter(&run.fact_iteration));
    builder.write_to(&dir.join(snapshot_file_name(meta.iteration)))?;
    Ok(())
}

/// Decode the intact frame prefix of the WAL into records, returning the
/// records and the byte offset the log stays valid up to (frames past a
/// CRC-valid-but-undecodable payload are discarded too).
fn decode_wal(path: &Path) -> CheckpointResult<(Vec<WalRecord>, u64)> {
    let scan = scan_wal(path)?;
    let mut records = Vec::with_capacity(scan.frames.len());
    let mut valid_len = scan.valid_len.min(probkb_storage::wal::WAL_MAGIC.len() as u64);
    for (frame, end) in scan.frames.iter().zip(&scan.frame_ends) {
        match decode_record(frame) {
            Ok(rec) => {
                records.push(rec);
                valid_len = *end;
            }
            Err(_) => break,
        }
    }
    Ok((records, valid_len))
}

fn clear_checkpoint_dir(dir: &Path) {
    for (_, path) in list_snapshots(dir) {
        let _ = fs::remove_file(path);
    }
    let _ = fs::remove_file(dir.join(WAL_FILE));
}

/// Append one record to the log and make it durable.
fn log(wal: &mut WalWriter, rec: &WalRecord) -> CheckpointResult<()> {
    wal.append(&encode_record(rec))?;
    wal.commit()?;
    Ok(())
}

// ---------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------

/// Run Algorithm 1 durably: WAL-log every iteration, snapshot
/// periodically, and — if the checkpoint directory already holds state
/// from a compatible earlier run — resume from the last completed
/// iteration instead of starting over.
///
/// The live part drives the same [`GroundingRun`] stepper as
/// [`crate::grounding::ground_loaded`], so the outcome (facts, factors,
/// fact-iteration map, per-iteration counts) is byte-identical to
/// [`crate::grounding::ground`] with the same `kb`, `engine`, and
/// `config`, whether the run is fresh, resumed once, or resumed many
/// times. On-disk state from a *different* KB, config, or engine is
/// detected by digest and discarded.
pub fn ground_checkpointed(
    kb: &ProbKb,
    engine: &mut dyn GroundingEngine,
    config: &GroundingConfig,
    ckpt: &CheckpointConfig,
) -> CheckpointResult<CheckpointedRun> {
    apply_engine_knobs(engine, config);
    fs::create_dir_all(&ckpt.dir).map_err(|e| io_err(&ckpt.dir, e))?;

    let kb_bytes = encode_kb(kb);
    let identity = RunIdentity {
        kb_digest: kb_digest(kb),
        cfg_digest: config_digest(config),
        engine: engine.name().to_string(),
    };
    let wal_path = ckpt.dir.join(WAL_FILE);

    // Recover the usable WAL suffix: the log counts only if its Begin
    // frame matches this exact (KB, config, engine) triple.
    let (records, wal_valid_len) = decode_wal(&wal_path)?;
    let wal_ok = matches!(
        records.first(),
        Some(WalRecord::Begin { kb_digest, cfg_digest, engine })
            if identity.matches(*kb_digest, *cfg_digest, engine)
    );
    let usable: &[WalRecord] = if wal_ok { &records[1..] } else { &[] };

    // Resume cascade: newest snapshot → older snapshots → WAL-only
    // replay from a rebuilt base → fresh start.
    let load_start = Instant::now();
    let mut restored: Option<(Restored, usize)> = None;
    for (snap_iteration, path) in list_snapshots(&ckpt.dir) {
        if let Ok(st) =
            try_resume_snapshot(engine, config, &path, snap_iteration, usable, &identity)
        {
            restored = Some((st, snap_iteration));
            break;
        }
    }
    if restored.is_none() && wal_ok {
        if let Ok(st) = try_resume_base(engine, kb, config, usable) {
            restored = Some((st, 0));
        }
    }

    let (mut run, logged_factors, resume, mut wal) = match restored {
        Some((st, snap_iteration)) => {
            let wal = if wal_ok {
                WalWriter::open_at(&wal_path, wal_valid_len)?
            } else {
                let mut wal = WalWriter::create(&wal_path)?;
                log(&mut wal, &identity.begin_record())?;
                wal
            };
            let resume = ResumeSummary {
                snapshot_iteration: Some(snap_iteration),
                replayed_iterations: st.replayed,
                completed_on_disk: st.factors.is_some(),
            };
            (st.run, st.factors, resume, wal)
        }
        None => {
            // Fresh start: scrap unusable remnants, load, persist the
            // base snapshot and a new log before doing any work.
            clear_checkpoint_dir(&ckpt.dir);
            let rel = load(kb);
            engine.load(&rel)?;
            let run = GroundingRun::new(rel.registry);
            write_snapshot(&ckpt.dir, &identity, &kb_bytes, engine, &run)?;
            let mut wal = WalWriter::create(&wal_path)?;
            log(&mut wal, &identity.begin_record())?;
            let resume = ResumeSummary {
                snapshot_iteration: None,
                replayed_iterations: 0,
                completed_on_disk: false,
            };
            (run, None, resume, wal)
        }
    };
    let load_time = load_start.elapsed();

    // ----- live run: the shared stepper, with a log frame per step -----
    let mut dirty = false;
    if config.preclean && run.precleaned.is_none() {
        let violators = run.preclean(engine)?;
        log(
            &mut wal,
            &WalRecord::Preclean {
                deleted: run.precleaned.unwrap_or(0),
                violators,
            },
        )?;
        dirty = true;
    }
    while run.wants_step(config) {
        let applied = run.step(engine, config)?;
        let stats = run.iterations.last().expect("step records its stats");
        let iteration = stats.iteration;
        log(
            &mut wal,
            &WalRecord::Iteration(IterationRecord {
                iteration,
                converged: run.converged,
                facts_after: stats.facts_after,
                deleted: stats.deleted_facts,
                queries: stats.queries,
                elapsed: stats.elapsed,
                violators: applied.violators,
                new_rows: applied.new_rows,
            }),
        )?;
        dirty = true;
        if !run.converged && ckpt.snapshot_every > 0 && iteration % ckpt.snapshot_every == 0 {
            write_snapshot(&ckpt.dir, &identity, &kb_bytes, engine, &run)?;
        }
        if ckpt.crash_after_iteration == Some(iteration) {
            eprintln!("[checkpoint] injected crash after iteration {iteration}");
            std::process::exit(CRASH_EXIT_CODE);
        }
    }

    // A final snapshot caps how much WAL a later resume must replay.
    if dirty {
        write_snapshot(&ckpt.dir, &identity, &kb_bytes, engine, &run)?;
    }

    let factors = match logged_factors {
        Some(logged) => logged,
        None => {
            let pass = run.ground_factors(engine)?;
            log(&mut wal, &WalRecord::Factors(pass.clone()))?;
            pass
        }
    };
    let outcome = run.finish(engine, load_time, factors)?;
    Ok(CheckpointedRun { outcome, resume })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grounding::ground;
    use crate::single_node::SingleNodeEngine;
    use probkb_kb::prelude::parse;
    use probkb_relational::prelude::Value;
    use probkb_storage::format::encode_table;

    fn chain_kb(n: usize) -> ProbKb {
        let mut text = String::new();
        for i in 0..n {
            text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
        }
        text.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
        text.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
        parse(&text).unwrap().build()
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "probkb-ckpt-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fresh_checkpointed_run_matches_plain_ground() {
        let kb = chain_kb(6);
        let config = GroundingConfig::default();
        let mut plain_engine = SingleNodeEngine::semi_naive();
        let plain = ground(&kb, &mut plain_engine, &config).unwrap();

        let dir = tmp_dir("fresh");
        let ckpt = CheckpointConfig::new(&dir);
        let mut engine = SingleNodeEngine::semi_naive();
        let run = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();

        assert!(!run.resume.resumed());
        assert_eq!(
            encode_table(&run.outcome.facts),
            encode_table(&plain.facts)
        );
        assert_eq!(
            encode_table(&run.outcome.factors),
            encode_table(&plain.factors)
        );
        assert_eq!(run.outcome.fact_iteration, plain.fact_iteration);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn completed_run_resumes_without_rework() {
        let kb = chain_kb(5);
        let config = GroundingConfig::default();
        let dir = tmp_dir("done");
        let ckpt = CheckpointConfig::new(&dir);

        let mut engine = SingleNodeEngine::semi_naive();
        let first = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();

        let mut engine2 = SingleNodeEngine::semi_naive();
        let second = ground_checkpointed(&kb, &mut engine2, &config, &ckpt).unwrap();
        assert!(second.resume.resumed());
        assert!(second.resume.completed_on_disk);
        assert_eq!(
            encode_table(&second.outcome.facts),
            encode_table(&first.outcome.facts)
        );
        assert_eq!(
            encode_table(&second.outcome.factors),
            encode_table(&first.outcome.factors)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn config_change_invalidates_on_disk_state() {
        let kb = chain_kb(5);
        let dir = tmp_dir("cfg");
        let ckpt = CheckpointConfig::new(&dir);

        let mut engine = SingleNodeEngine::semi_naive();
        let config = GroundingConfig::default();
        ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();

        let changed = GroundingConfig {
            apply_constraints: false,
            ..GroundingConfig::default()
        };
        let mut engine2 = SingleNodeEngine::semi_naive();
        let rerun = ground_checkpointed(&kb, &mut engine2, &changed, &ckpt).unwrap();
        assert!(!rerun.resume.resumed());

        let mut plain = SingleNodeEngine::semi_naive();
        let expected = ground(&kb, &mut plain, &changed).unwrap();
        assert_eq!(
            encode_table(&rerun.outcome.facts),
            encode_table(&expected.facts)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_records_round_trip() {
        let recs = vec![
            WalRecord::Begin {
                kb_digest: 7,
                cfg_digest: 9,
                engine: "ProbKB".into(),
            },
            WalRecord::Preclean {
                deleted: 3,
                violators: vec![(1, 2), (3, 4)],
            },
            WalRecord::Iteration(IterationRecord {
                iteration: 2,
                converged: false,
                facts_after: 11,
                deleted: 1,
                queries: 4,
                elapsed: Duration::from_micros(1234),
                violators: vec![(9, 9)],
                new_rows: vec![vec![
                    Value::Int(5),
                    Value::Int(1),
                    Value::Int(2),
                    Value::Int(3),
                    Value::Int(4),
                    Value::Int(5),
                    Value::Null,
                ]],
            }),
        ];
        for rec in &recs {
            let bytes = encode_record(rec);
            let back = decode_record(&bytes).unwrap();
            assert_eq!(encode_record(&back), bytes);
        }
    }

    #[test]
    fn meta_and_registry_round_trip() {
        let meta = SnapshotMeta {
            kb_digest: 1,
            cfg_digest: 2,
            engine: "ProbKB".into(),
            iteration: 3,
            precleaned: 4,
            converged: true,
        };
        assert_eq!(decode_meta(&encode_meta(&meta)).unwrap(), meta);

        let mut reg = FactRegistry::new();
        reg.register([1, 2, 3, 4, 5]);
        reg.register([6, 7, 8, 9, 10]);
        let back = decode_registry(&encode_registry(&reg)).unwrap();
        assert_eq!(back.entries(), reg.entries());
        assert_eq!(back.next_id(), reg.next_id());
    }
}
