//! The serving half of the journey, over the real wire: a server started
//! in process, clients on TCP connections, every request waited for
//! (closed loop — the callers are CLI/REPL users with one request in
//! flight per connection).

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use probkb::prelude::{EntityId, GibbsConfig, GroundingConfig, ProbKb};
use probkb_client::prelude::{
    CacheStatus, Client, DeltaOutcome, FactRef, LocalMarginalInfo, Request, Response,
};
use probkb_server::prelude::{serve_read, start, EpochState, ServerConfig, ServerHandle};

use crate::rng::Rng;
use crate::workloads::{DELTA_FACTS, SERVE_SWEEPS};

/// Seed streams, so that no two uses of `--seed` share random numbers.
pub mod stream {
    pub const SERVER_GIBBS: u64 = 1;
    pub const LOCAL_TARGETS: u64 = 2;
    pub const DELTAS: u64 = 3;
    /// Plus the connection number.
    pub const READS: u64 = 100;
    pub const READS_BESIDE_WRITES: u64 = 200;
}

pub fn server_config(wal: &Path, threads: usize, seed: u64) -> ServerConfig {
    ServerConfig {
        wal_path: Some(wal.to_path_buf()),
        grounding: GroundingConfig {
            apply_constraints: false,
            threads: Some(threads),
            ..GroundingConfig::default()
        },
        gibbs: GibbsConfig {
            burn_in: SERVE_SWEEPS.0,
            samples: SERVE_SWEEPS.1,
            seed: Rng::new(seed, stream::SERVER_GIBBS).next(),
            workers: Some(threads),
            ..GibbsConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// Start a server on a fresh WAL and wait until a client is answered.
pub fn start_server(kb: ProbKb, config: ServerConfig) -> Result<ServerHandle, String> {
    if let Some(wal) = &config.wal_path {
        let _ = std::fs::remove_file(wal);
    }
    let handle = start(kb, config).map_err(|e| e.to_string())?;
    connect(handle.addr())?.ping().map_err(|e| e.to_string())?;
    Ok(handle)
}

pub fn stop_server(handle: ServerHandle) {
    handle.initiate_shutdown();
    handle.join();
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect: {e}"))
}

/// The connections a run keeps open from set-up to shutdown, like the
/// CLI/REPL sessions they stand for.
pub fn connect_all(addr: SocketAddr, n: usize) -> Result<Vec<Client>, String> {
    (0..n).map(|_| connect(addr)).collect()
}

/// The read mix: 6 `FACT` : 3 `MARGINAL` : 1 `LINEAGE(depth 3)` over
/// uniform fact ids.
pub fn read_request(rng: &mut Rng, facts: u64) -> Request {
    let fact = FactRef::Id(rng.below(facts) as i64);
    match rng.below(10) {
        0..=5 => Request::Fact(fact),
        6..=8 => Request::Marginal(fact),
        _ => Request::Lineage { fact, max_depth: 3 },
    }
}

/// The epoch a read response names, when it answered the question.
fn answered_epoch(response: &Response) -> Option<u64> {
    match response {
        Response::Fact {
            epoch,
            fact: Some(_),
        } => Some(*epoch),
        Response::Marginal {
            epoch,
            marginal: Some(_),
        } => Some(*epoch),
        Response::Lineage {
            epoch,
            lineage: Some(_),
        } => Some(*epoch),
        _ => None,
    }
}

/// One connection's share of a read phase.
#[derive(Debug, Default)]
pub struct ReadStats {
    /// Per answered request: when it completed (seconds into the phase)
    /// and how long the round trip took.
    pub done_at_s: Vec<f64>,
    pub latencies_ns: Vec<f64>,
    pub failed: u64,
    pub elapsed_s: f64,
    /// Every 64th exchange is compared with `serve_read` on the epoch
    /// the response names: how many were compared, how many differed.
    pub verified: u64,
    pub mismatched: u64,
    /// Marginals seen among the compared exchanges.
    pub marginals: Vec<f64>,
}

impl ReadStats {
    pub fn attempted(&self) -> u64 {
        self.latencies_ns.len() as u64 + self.failed
    }
}

/// Latencies of one phase cut into ten equal time slices, all
/// connections together, each slice sorted. A metric is computed per
/// slice and the **third-best slice** is reported: the value at least
/// three slices of ten reach.
///
/// Why not the whole phase, or the median slice: on this kind of box a
/// closed loop over TCP has a slow mode that comes and goes in episodes
/// of 0.3–1 s (scheduler placement of client/session threads; for
/// cache hits also a convoy on the per-epoch lock) and runs 1.5–4x
/// slower. A phase that happens to hold six such slices reports the
/// slow mode, its neighbour the fast one — a bimodal metric no bound
/// describes. The third-best slice reports the undisturbed state as
/// long as three slices reach it, and still moves when the program's
/// own cost moves, since that moves every slice.
pub struct Slices {
    slices: Vec<Vec<f64>>,
    slice_s: f64,
}

impl Slices {
    const COUNT: usize = 10;

    /// `span_s`: how long the shortest connection's phase lasted;
    /// `answered`: per answered request, `(completed at, latency)`.
    pub fn new(span_s: f64, answered: impl Iterator<Item = (f64, f64)>) -> Option<Slices> {
        let mut slices: Vec<Vec<f64>> = vec![Vec::new(); Self::COUNT];
        for (at, latency) in answered {
            let slice = (at / span_s * Self::COUNT as f64) as usize;
            if let Some(slice) = slices.get_mut(slice) {
                slice.push(latency);
            }
        }
        for slice in &mut slices {
            slice.sort_by(f64::total_cmp);
        }
        let full = slices.iter().all(|s| !s.is_empty());
        full.then_some(Slices {
            slices,
            slice_s: span_s / Self::COUNT as f64,
        })
    }

    pub fn per_slice(&self, f: impl Fn(&[f64]) -> f64) -> Vec<f64> {
        self.slices.iter().map(|s| f(s)).collect()
    }

    /// Third-lowest over slices of the slice's `p`-th percentile.
    pub fn percentile(&self, p: f64) -> f64 {
        let mut values = self.per_slice(|s| crate::metrics::percentile(s, p));
        values.sort_by(f64::total_cmp);
        values[2]
    }

    /// Third-highest over slices of requests completed per second.
    pub fn rate(&self) -> f64 {
        let mut values = self.per_slice(|s| s.len() as f64 / self.slice_s);
        values.sort_by(f64::total_cmp);
        values[Self::COUNT - 3]
    }
}

pub fn read_slices(conns: &[&ReadStats]) -> Option<Slices> {
    let span_s = conns
        .iter()
        .map(|c| c.elapsed_s)
        .fold(f64::INFINITY, f64::min);
    let answered = conns.iter().flat_map(|c| {
        c.done_at_s
            .iter()
            .copied()
            .zip(c.latencies_ns.iter().copied())
    });
    Slices::new(span_s, answered)
}

/// Send the read mix on one connection until `keep_going` says stop. A
/// request that errors or finds nothing is failed and has no latency.
/// Sampled exchanges are checked between requests, outside the timed
/// round trip, against the published snapshot — when that is still the
/// epoch the response names (a commit may have landed in between; old
/// snapshots are not kept alive just to check against, so those
/// samples are skipped).
fn read_loop(
    client: &mut Client,
    handle: &ServerHandle,
    mut rng: Rng,
    facts: u64,
    keep_going: impl Fn() -> bool,
) -> ReadStats {
    let mut stats = ReadStats::default();
    let started = Instant::now();
    while keep_going() {
        let request = read_request(&mut rng, facts);
        let sent = Instant::now();
        let response = client.roundtrip(&request);
        let latency = sent.elapsed();
        match response {
            Ok(response) if answered_epoch(&response).is_some() => {
                if stats.latencies_ns.len() % 64 == 0 {
                    let state = handle.shared().current.load();
                    if answered_epoch(&response) == Some(state.epoch) {
                        stats.verified += 1;
                        if serve_read(&state, &request).as_ref() != Some(&response) {
                            stats.mismatched += 1;
                        }
                        if let Response::Marginal {
                            marginal: Some(m), ..
                        } = &response
                        {
                            stats.marginals.push(m.p);
                        }
                    }
                }
                stats.done_at_s.push(started.elapsed().as_secs_f64());
                stats.latencies_ns.push(latency.as_nanos() as f64);
            }
            _ => stats.failed += 1,
        }
    }
    stats.elapsed_s = started.elapsed().as_secs_f64();
    stats
}

/// Every connection sends the read mix for `window` on an otherwise
/// quiet server. One entry per connection.
pub fn read_window(
    handle: &ServerHandle,
    clients: &mut [Client],
    facts: u64,
    seed: u64,
    window: Duration,
) -> Result<Vec<ReadStats>, String> {
    let barrier = Barrier::new(clients.len());
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let rng = Rng::new(seed, stream::READS + conn as u64);
                    let deadline = Instant::now() + window;
                    read_loop(client, handle, rng, facts, || Instant::now() < deadline)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().map_err(|_| "reader panicked".to_string()))
            .collect()
    })
}

/// Ids of the inferred facts of a snapshot (their marginal exists only
/// because inference ran — the interesting `MARGINAL_LOCAL` targets).
pub fn inferred_ids(state: &EpochState) -> Vec<i64> {
    (0..state.num_facts() as i64)
        .filter(|&id| {
            matches!(
                serve_read(state, &Request::Fact(FactRef::Id(id))),
                Some(Response::Fact { fact: Some(info), .. }) if info.inferred
            )
        })
        .collect()
}

/// `n` distinct entries of `pool`, chosen by `rng` (partial shuffle).
pub fn sample_distinct(pool: &[i64], n: usize, rng: &mut Rng) -> Vec<i64> {
    let mut pool = pool.to_vec();
    let n = n.min(pool.len());
    for i in 0..n {
        let j = i + rng.below((pool.len() - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(n);
    pool
}

/// One answered `MARGINAL_LOCAL`.
#[derive(Debug, Clone)]
pub struct LocalAnswer {
    pub info: LocalMarginalInfo,
    /// Seconds into its connection's phase when the answer arrived.
    pub done_at_s: f64,
    pub latency_ns: f64,
}

#[derive(Debug)]
pub struct LocalStats {
    pub answers: Vec<LocalAnswer>,
    pub failed: u64,
    /// How long the shortest connection's phase lasted.
    pub span_s: f64,
}

impl Default for LocalStats {
    fn default() -> Self {
        LocalStats {
            answers: Vec::new(),
            failed: 0,
            span_s: f64::INFINITY,
        }
    }
}

impl LocalStats {
    pub fn latencies(&self, scale: f64) -> Vec<f64> {
        self.answers.iter().map(|a| a.latency_ns / scale).collect()
    }

    pub fn slices(&self) -> Option<Slices> {
        let answered = self.answers.iter().map(|a| (a.done_at_s, a.latency_ns));
        Slices::new(self.span_s, answered)
    }

    pub fn hit_ratio(&self) -> f64 {
        let hits = self
            .answers
            .iter()
            .filter(|a| a.info.cache != CacheStatus::Miss)
            .count();
        hits as f64 / self.answers.len().max(1) as f64
    }
}

/// `phase_started`: when this connection's phase began.
fn local_query(
    client: &mut Client,
    id: i64,
    phase_started: Instant,
) -> Result<LocalAnswer, String> {
    let request = Request::MarginalLocal {
        fact: FactRef::Id(id),
        budget: None,
    };
    let sent = Instant::now();
    let response = client.roundtrip(&request);
    let latency_ns = sent.elapsed().as_nanos() as f64;
    match response {
        Ok(Response::MarginalLocal {
            marginal: Some(info),
            ..
        }) => Ok(LocalAnswer {
            info,
            done_at_s: phase_started.elapsed().as_secs_f64(),
            latency_ns,
        }),
        other => Err(format!("MARGINAL_LOCAL {id}: {other:?}")),
    }
}

/// Ask for every target's local marginal, the targets dealt out over
/// the connections, one request in flight per connection. With a
/// `window`, each connection keeps going round its targets until the
/// window closes (and at least once).
pub fn local_phase(
    clients: &mut [Client],
    targets: &[i64],
    window: Option<Duration>,
) -> Result<LocalStats, String> {
    let conns = clients.len();
    std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(conn, client)| {
                scope.spawn(move || {
                    let mut stats = LocalStats::default();
                    let started = Instant::now();
                    let deadline = window.map(|w| started + w);
                    loop {
                        for &id in targets.iter().skip(conn).step_by(conns) {
                            match local_query(client, id, started) {
                                Ok(answer) => stats.answers.push(answer),
                                Err(_) => stats.failed += 1,
                            }
                        }
                        if deadline.is_none_or(|d| Instant::now() >= d) {
                            stats.span_s = started.elapsed().as_secs_f64();
                            return stats;
                        }
                    }
                })
            })
            .collect();
        let mut all = LocalStats::default();
        for worker in workers {
            let stats = worker
                .join()
                .map_err(|_| "local client panicked".to_string())?;
            all.answers.extend(stats.answers);
            all.failed += stats.failed;
            all.span_s = all.span_s.min(stats.span_s);
        }
        Ok(all)
    })
}

/// Entities of each class in id order (`ProbKb::members` is a hash set;
/// delta contents must depend on the seed alone).
pub fn sorted_members(kb: &ProbKb) -> Vec<Vec<EntityId>> {
    kb.members
        .iter()
        .map(|set| {
            let mut members: Vec<EntityId> = set.iter().copied().collect();
            members.sort();
            members
        })
        .collect()
}

/// One delta: `DELTA_FACTS` new base facts, each an existing fact's
/// relation and classes rewired to seeded entities of those classes, so
/// the rules that fire for the template fire for the new fact too.
pub fn delta_text(kb: &ProbKb, members: &[Vec<EntityId>], rng: &mut Rng) -> String {
    let mut text = String::new();
    for _ in 0..DELTA_FACTS {
        let template = &kb.facts[rng.below(kb.facts.len() as u64) as usize];
        let pick = |class: u32, rng: &mut Rng| {
            let of_class = &members[class as usize];
            of_class[rng.below(of_class.len() as u64) as usize]
        };
        let x = pick(template.c1.raw(), rng);
        let y = pick(template.c2.raw(), rng);
        let name = |dict: &probkb::prelude::Dictionary, raw: u32| {
            dict.resolve(raw).expect("id from this KB").to_string()
        };
        text.push_str(&format!(
            "fact {:.2} {}({}:{}, {}:{})\n",
            0.5 + 0.45 * rng.unit(),
            name(&kb.relations, template.rel.raw()),
            name(&kb.entities, x.raw()),
            name(&kb.classes, template.c1.raw()),
            name(&kb.entities, y.raw()),
            name(&kb.classes, template.c2.raw()),
        ));
    }
    text
}

pub fn delta_texts(kb: &ProbKb, seed: u64, n: usize) -> Vec<String> {
    let members = sorted_members(kb);
    let mut rng = Rng::new(seed, stream::DELTAS);
    (0..n).map(|_| delta_text(kb, &members, &mut rng)).collect()
}

#[derive(Debug, Default)]
pub struct WriteStats {
    pub commit_ns: Vec<f64>,
    pub outcomes: Vec<DeltaOutcome>,
    pub failed: u64,
    /// The reader that ran beside the writer.
    pub reader: ReadStats,
}

/// The writer connection applies the deltas back to back; the reader
/// connection sends the read mix until the writer has finished.
pub fn write_phase(
    handle: &ServerHandle,
    writer: &mut Client,
    reader: &mut Client,
    deltas: &[String],
    facts: u64,
    seed: u64,
) -> Result<WriteStats, String> {
    let barrier = Barrier::new(2);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            barrier.wait();
            let rng = Rng::new(seed, stream::READS_BESIDE_WRITES);
            read_loop(reader, handle, rng, facts, || !done.load(Ordering::SeqCst))
        });
        let writing = scope.spawn(|| {
            barrier.wait();
            let mut stats = WriteStats::default();
            for text in deltas {
                let sent = Instant::now();
                match writer.apply_delta(text) {
                    Ok(outcome) => {
                        stats.commit_ns.push(sent.elapsed().as_nanos() as f64);
                        stats.outcomes.push(outcome);
                    }
                    Err(_) => stats.failed += 1,
                }
            }
            done.store(true, Ordering::SeqCst);
            stats
        });
        let mut stats = writing.join().map_err(|_| {
            done.store(true, Ordering::SeqCst); // release the reader
            "writer panicked".to_string()
        })?;
        stats.reader = reading.join().map_err(|_| "reader panicked".to_string())?;
        Ok(stats)
    })
}

/// The stored (global) marginal of a fact in a snapshot.
pub fn global_marginal(state: &EpochState, id: i64) -> Option<f64> {
    match serve_read(state, &Request::Marginal(FactRef::Id(id))) {
        Some(Response::Marginal {
            marginal: Some(m), ..
        }) => Some(m.p),
        _ => None,
    }
}
