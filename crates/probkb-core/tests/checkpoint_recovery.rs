//! Fault-injection suite for checkpoint/resume (ISSUE 3 acceptance):
//! truncate the WAL at every byte offset, flip bytes, delete snapshots
//! or the log outright — every recovery must complete without panicking
//! and produce facts/factors byte-identical to an uninterrupted run.

use std::fs;
use std::path::{Path, PathBuf};

use probkb_core::prelude::*;
use probkb_kb::prelude::{parse, ProbKb};
use probkb_mpp::prelude::NetworkModel;
use probkb_storage::format::encode_table;
use probkb_storage::snapshot::list_snapshots;
use probkb_storage::wal::scan_wal;

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
    let dir = std::env::temp_dir().join(format!("probkb-recovery-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = fs::remove_dir_all(to);
    fs::create_dir_all(to).unwrap();
    for entry in fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// The bytes that must match an uninterrupted run exactly.
fn result_bytes(outcome: &GroundingOutcome) -> (Vec<u8>, Vec<u8>) {
    (encode_table(&outcome.facts), encode_table(&outcome.factors))
}

fn semi_naive() -> SingleNodeEngine {
    SingleNodeEngine::semi_naive()
}

/// A finished checkpointed baseline plus the plain-run truth to diff
/// against.
struct Baseline {
    kb: ProbKb,
    config: GroundingConfig,
    dir: PathBuf,
    expected: (Vec<u8>, Vec<u8>),
}

fn baseline(tag: &str, nodes: usize) -> Baseline {
    let kb = chain_kb(nodes);
    let config = GroundingConfig::default();
    let mut plain = semi_naive();
    let truth = ground(&kb, &mut plain, &config).unwrap();

    let dir = tmp_dir(tag);
    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(&dir)
    };
    let mut engine = semi_naive();
    let run = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();
    assert_eq!(result_bytes(&run.outcome), result_bytes(&truth));
    Baseline {
        kb,
        config,
        dir,
        expected: result_bytes(&truth),
    }
}

fn resume_in(base: &Baseline, dir: &Path) -> CheckpointedRun {
    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(dir)
    };
    let mut engine = semi_naive();
    ground_checkpointed(&base.kb, &mut engine, &base.config, &ckpt).unwrap()
}

fn wal_path(dir: &Path) -> PathBuf {
    dir.join(probkb_core::checkpoint::WAL_FILE)
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            let name = p.file_name().unwrap().to_string_lossy().into_owned();
            (name.starts_with("snapshot-") && name.ends_with(".pkb")).then_some(p)
        })
        .collect()
}

#[test]
fn truncate_wal_at_every_offset_recovers_identically() {
    let base = baseline("trunc", 5);
    let wal = fs::read(wal_path(&base.dir)).unwrap();
    let work = tmp_dir("trunc-work");
    for cut in 0..=wal.len() {
        copy_dir(&base.dir, &work);
        fs::write(wal_path(&work), &wal[..cut]).unwrap();
        let run = resume_in(&base, &work);
        assert_eq!(
            result_bytes(&run.outcome),
            base.expected,
            "divergence after truncating the WAL to {cut} bytes"
        );
    }
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn truncate_wal_at_every_offset_without_snapshots() {
    // Harsher: no snapshots at all — recovery must rebuild the base
    // state from the KB and replay whatever log prefix survived.
    let base = baseline("trunc-nosnap", 5);
    let wal = fs::read(wal_path(&base.dir)).unwrap();
    let work = tmp_dir("trunc-nosnap-work");
    for cut in 0..=wal.len() {
        copy_dir(&base.dir, &work);
        for snap in snapshot_files(&work) {
            fs::remove_file(snap).unwrap();
        }
        fs::write(wal_path(&work), &wal[..cut]).unwrap();
        let run = resume_in(&base, &work);
        assert_eq!(
            result_bytes(&run.outcome),
            base.expected,
            "divergence after truncating the snapshot-less WAL to {cut} bytes"
        );
    }
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn flipped_wal_bytes_never_corrupt_results() {
    let base = baseline("flip", 5);
    let wal = fs::read(wal_path(&base.dir)).unwrap();
    let work = tmp_dir("flip-work");
    // Step through the log; a stride keeps runtime modest while still
    // hitting every frame's header, payload, and CRC regions.
    for pos in (0..wal.len()).step_by(3) {
        copy_dir(&base.dir, &work);
        let mut damaged = wal.clone();
        damaged[pos] ^= 0x41;
        fs::write(wal_path(&work), &damaged).unwrap();
        let run = resume_in(&base, &work);
        assert_eq!(
            result_bytes(&run.outcome),
            base.expected,
            "divergence after flipping WAL byte {pos}"
        );
    }
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn flipped_snapshot_bytes_fall_back_safely() {
    let base = baseline("snapflip", 5);
    let work = tmp_dir("snapflip-work");
    copy_dir(&base.dir, &work);
    for snap in snapshot_files(&work) {
        let mut bytes = fs::read(&snap).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&snap, bytes).unwrap();
    }
    let run = resume_in(&base, &work);
    assert_eq!(result_bytes(&run.outcome), base.expected);
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn deleted_snapshots_recover_from_wal_alone() {
    let base = baseline("nosnap", 5);
    let work = tmp_dir("nosnap-work");
    copy_dir(&base.dir, &work);
    for snap in snapshot_files(&work) {
        fs::remove_file(snap).unwrap();
    }
    let run = resume_in(&base, &work);
    assert!(run.resume.resumed());
    assert_eq!(result_bytes(&run.outcome), base.expected);
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn deleted_wal_recovers_from_snapshots_alone() {
    let base = baseline("nowal", 5);
    let work = tmp_dir("nowal-work");
    copy_dir(&base.dir, &work);
    fs::remove_file(wal_path(&work)).unwrap();
    let run = resume_in(&base, &work);
    assert!(run.resume.resumed());
    assert_eq!(result_bytes(&run.outcome), base.expected);
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn empty_directory_starts_fresh() {
    let base = baseline("empty", 5);
    let work = tmp_dir("empty-work");
    fs::create_dir_all(&work).unwrap();
    let run = resume_in(&base, &work);
    assert!(!run.resume.resumed());
    assert_eq!(result_bytes(&run.outcome), base.expected);
    let _ = fs::remove_dir_all(&base.dir);
    let _ = fs::remove_dir_all(&work);
}

#[test]
fn different_kb_invalidates_state() {
    let base = baseline("kbswap", 5);
    let other_kb = chain_kb(7);
    let mut plain = semi_naive();
    let truth = ground(&other_kb, &mut plain, &base.config).unwrap();

    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(&base.dir)
    };
    let mut engine = semi_naive();
    let run = ground_checkpointed(&other_kb, &mut engine, &base.config, &ckpt).unwrap();
    assert!(!run.resume.resumed());
    assert_eq!(result_bytes(&run.outcome), result_bytes(&truth));
    let _ = fs::remove_dir_all(&base.dir);
}

#[test]
fn different_engine_invalidates_state() {
    let base = baseline("engswap", 5);
    // The semi-naive mode reports a different engine name than the naive
    // one, so state written by one is never replayed into the other.
    let mut plain = SingleNodeEngine::new();
    let truth = ground(&base.kb, &mut plain, &base.config).unwrap();

    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(&base.dir)
    };
    let mut engine = SingleNodeEngine::new();
    let run = ground_checkpointed(&base.kb, &mut engine, &base.config, &ckpt).unwrap();
    assert!(!run.resume.resumed());
    assert_eq!(result_bytes(&run.outcome), result_bytes(&truth));
    let _ = fs::remove_dir_all(&base.dir);
}

fn mpp_roundtrip(tag: &str, mode: MppMode) {
    let kb = chain_kb(5);
    let config = GroundingConfig::default();
    let mut plain = MppEngine::new(4, NetworkModel::free(), mode);
    let truth = ground(&kb, &mut plain, &config).unwrap();

    let dir = tmp_dir(tag);
    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(&dir)
    };
    let mut engine = MppEngine::new(4, NetworkModel::free(), mode);
    let first = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();
    assert_eq!(result_bytes(&first.outcome), result_bytes(&truth));

    // Kill-and-resume simulation: truncate the WAL a few frames back,
    // drop the final snapshot, and resume with a brand-new cluster.
    let wal = fs::read(wal_path(&dir)).unwrap();
    fs::write(wal_path(&dir), &wal[..wal.len() * 2 / 3]).unwrap();
    let mut latest = snapshot_files(&dir);
    latest.sort();
    if let Some(newest) = latest.last() {
        fs::remove_file(newest).unwrap();
    }
    let mut engine = MppEngine::new(4, NetworkModel::free(), mode);
    let resumed = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();
    assert!(resumed.resume.resumed());
    assert_eq!(result_bytes(&resumed.outcome), result_bytes(&truth));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn mpp_optimized_checkpoints_byte_identically() {
    mpp_roundtrip("mpp-opt", MppMode::Optimized);
}

#[test]
fn mpp_noviews_checkpoints_byte_identically() {
    mpp_roundtrip("mpp-nv", MppMode::NoViews);
}

#[test]
fn single_node_mid_run_truncation_resumes() {
    let kb = chain_kb(5);
    let config = GroundingConfig::default();
    let mut plain = SingleNodeEngine::new();
    let truth = ground(&kb, &mut plain, &config).unwrap();

    let dir = tmp_dir("sn");
    let ckpt = CheckpointConfig {
        snapshot_every: 2,
        ..CheckpointConfig::new(&dir)
    };
    let mut engine = SingleNodeEngine::new();
    ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();

    let wal = fs::read(wal_path(&dir)).unwrap();
    fs::write(wal_path(&dir), &wal[..wal.len() / 2]).unwrap();
    let mut engine = SingleNodeEngine::new();
    let resumed = ground_checkpointed(&kb, &mut engine, &config, &ckpt).unwrap();
    assert_eq!(result_bytes(&resumed.outcome), result_bytes(&truth));
    let _ = fs::remove_dir_all(&dir);
}

/// What [`GroundingReport::iterations`] must reproduce: counts, not timings.
fn iteration_counts(outcome: &GroundingOutcome) -> Vec<[usize; 5]> {
    let iterations = &outcome.report.iterations;
    iterations
        .iter()
        .map(|i| [i.iteration, i.new_facts, i.deleted_facts, i.facts_after, i.queries])
        .collect()
}

/// Rewind a finished checkpoint directory to what a process killed right
/// after committing iteration `k`'s WAL frame leaves behind: the log up
/// to that frame, and only the snapshots written by then.
fn rewind_to_kill_after(dir: &Path, k: usize, last: usize) {
    let scan = scan_wal(&wal_path(dir)).unwrap();
    // Frame 0 is Begin; without preclean, frame `i` is iteration `i`.
    let wal = fs::read(wal_path(dir)).unwrap();
    fs::write(wal_path(dir), &wal[..scan.frame_ends[k] as usize]).unwrap();
    for (iteration, path) in list_snapshots(dir) {
        // The final snapshot (written after the loop) shares its name
        // with the last iteration's; a killed run never wrote it.
        if iteration > k || iteration == last {
            fs::remove_file(path).unwrap();
        }
    }
}

#[test]
fn kill_after_every_iteration_reproduces_report_and_bytes() {
    // A reachability chain whose source outgrows `functional reach 1 3`
    // mid-run, so constraint deletions land in the log and the replay.
    let mut text = String::new();
    for i in 0..6 {
        text.push_str(&format!("fact 0.9 next(n{}:Node, n{}:Node)\n", i, i + 1));
    }
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- next(x, y)\n");
    text.push_str("rule 1.0 reach(x:Node, y:Node) :- reach(x, z:Node), next(z, y)\n");
    text.push_str("functional reach 1 3\n");
    let kb = parse(&text).unwrap().build();
    let config = GroundingConfig::default();
    assert!(config.apply_constraints);

    let modes: [(&str, fn() -> SingleNodeEngine); 2] = [
        ("naive", SingleNodeEngine::new),
        ("semi-naive", SingleNodeEngine::semi_naive),
    ];
    for (mode, fresh_engine) in modes {
        let truth = ground(&kb, &mut fresh_engine(), &config).unwrap();
        let last = truth.report.iterations.len();
        assert!(last >= 3, "{mode}: want a multi-iteration run");
        // The converging iteration writes no periodic snapshot, so the
        // last iteration's snapshot file is always the post-loop one.
        assert!(truth.report.converged, "{mode}");
        assert!(
            truth.report.iterations.iter().any(|i| i.deleted_facts > 0),
            "{mode}: want constraint deletions mid-run"
        );

        let dir = tmp_dir(&format!("killeach-{mode}"));
        let ckpt = CheckpointConfig {
            snapshot_every: 2,
            ..CheckpointConfig::new(&dir)
        };
        let full = ground_checkpointed(&kb, &mut fresh_engine(), &config, &ckpt).unwrap();
        assert_eq!(iteration_counts(&full.outcome), iteration_counts(&truth));

        let work = tmp_dir(&format!("killeach-{mode}-work"));
        for k in 1..=last {
            copy_dir(&dir, &work);
            rewind_to_kill_after(&work, k, last);
            let ckpt = CheckpointConfig {
                snapshot_every: 2,
                ..CheckpointConfig::new(&work)
            };
            let run = ground_checkpointed(&kb, &mut fresh_engine(), &config, &ckpt).unwrap();
            assert!(run.resume.resumed(), "{mode}: kill after {k}");
            assert!(!run.resume.completed_on_disk, "{mode}: kill after {k}");
            assert_eq!(
                iteration_counts(&run.outcome),
                iteration_counts(&truth),
                "{mode}: report diverged after a kill at iteration {k}"
            );
            assert_eq!(
                result_bytes(&run.outcome),
                result_bytes(&truth),
                "{mode}: bytes diverged after a kill at iteration {k}"
            );
            assert_eq!(run.outcome.fact_iteration, truth.fact_iteration);
        }
        let _ = fs::remove_dir_all(&dir);
        let _ = fs::remove_dir_all(&work);
    }
}
