//! Concurrent serving consistency proptest.
//!
//! The invariant (this PR's serving contract): a reader that loads a
//! snapshot while the writer publishes — at any interleaving — observes a
//! **complete** published state, old or new, never a mix. The check is
//! differential: a single-threaded model applies the same ingest/evict
//! chain through the same `SelectedNetwork` verbs and records the exact
//! expected fingerprint (trip count, Table III counters, bit-exact total
//! weights of both frozen graphs) for every epoch; concurrent readers at
//! {1,2,4} threads then fingerprint every snapshot they load and require
//! it to equal the model state *for that snapshot's own epoch*, with
//! epochs observed monotonically per reader.
//!
//! The same contract holds through the `QueryPool`: clients submitting
//! station profiles against a live writer get, for every request, the
//! answer of the published snapshot of that answer's epoch, at an epoch
//! published between the submit and the receipt. A request sent after
//! any idle gap, shorter or longer than the pool's poll window, is
//! answered.

use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_core::reassign::{FinalStation, SelectedNetwork};
use moby_data::synth::{generate, SynthConfig};
use moby_data::trips::{TripBatch, WindowStart};
use moby_server::{
    answer, Answer, QueryPool, Request, ServeConfig, ServeSnapshot, SnapshotHandle, SnapshotWriter,
    WriteOp,
};
use proptest::prelude::*;
use std::collections::HashMap;
use std::mem::ManuallyDrop;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// How long a pooled client waits for an answer before calling it lost.
const WAIT: Duration = Duration::from_secs(5);

/// One generated chain step: op selector, batch rows as station-pool
/// indices with temporal keys, and the window start for evictions (the
/// vendored proptest has no `prop_oneof`, so the branch is a selector).
type Op = (u8, Vec<(u8, u8, u8, u8)>, u8, u8);

/// The expansion pipeline run once; every case clones the outcome.
fn base_network() -> &'static SelectedNetwork {
    static NET: OnceLock<SelectedNetwork> = OnceLock::new();
    NET.get_or_init(|| {
        ExpansionPipeline::new(PipelineConfig::default())
            .run(&generate(&SynthConfig::small_test()))
            .expect("pipeline runs on the synthetic dataset")
            .selected
    })
}

fn op() -> impl Strategy<Value = Op> {
    (
        0u8..3,
        prop::collection::vec((0u8..32, 0u8..32, 0u8..7, 0u8..24), 0..12),
        0u8..7,
        0u8..24,
    )
}

/// Turn a generated op into a [`WriteOp`] over the network's real
/// station ids (indices wrap over the pinned intern table, so every
/// endpoint is valid by construction).
fn materialise(net: &SelectedNetwork, op: &Op) -> WriteOp {
    let ids = net.trips.station_ids();
    let mut batch = TripBatch::new();
    for &(s, d, day, hour) in &op.1 {
        batch.push_keyed(
            ids[s as usize % ids.len()],
            ids[d as usize % ids.len()],
            day,
            hour,
            1.0,
        );
    }
    if op.0 < 2 {
        WriteOp::Ingest(batch)
    } else {
        WriteOp::Advance(batch, WindowStart::new(op.2, op.3))
    }
}

/// A complete-state fingerprint: if a reader ever saw a half-published
/// snapshot, some component would disagree with the model state for the
/// epoch the snapshot claims to be.
#[derive(Clone, Debug, PartialEq)]
struct Fingerprint {
    trips: usize,
    total_trips: usize,
    total_edges: usize,
    directed_weight: u64,
    undirected_weight: u64,
}

fn fingerprint_network(net: &SelectedNetwork) -> Fingerprint {
    Fingerprint {
        trips: net.trips.len(),
        total_trips: net.table.total_trips,
        total_edges: net.table.total_edges,
        directed_weight: net.directed.total_weight().to_bits(),
        undirected_weight: net.undirected.total_weight().to_bits(),
    }
}

fn fingerprint_snapshot(snap: &ServeSnapshot) -> Fingerprint {
    Fingerprint {
        trips: snap.trip_count,
        total_trips: snap.table.total_trips,
        total_edges: snap.table.total_edges,
        directed_weight: snap.directed.total_weight().to_bits(),
        undirected_weight: snap.undirected.total_weight().to_bits(),
    }
}

/// Apply `ops` through a live writer while `readers` threads continuously
/// load snapshots, asserting every observation against the
/// single-threaded model.
fn check_serving(ops: &[Op], readers: usize) {
    let net = base_network();

    // Single-threaded model: the expected state at every epoch.
    let mut model = net.clone();
    let mut expected: HashMap<u64, Fingerprint> = HashMap::new();
    expected.insert(0, fingerprint_network(&model));
    for (i, op) in ops.iter().enumerate() {
        match materialise(net, op) {
            WriteOp::Ingest(batch) => {
                model.ingest_batch(&batch, Some(1)).expect("valid batch");
            }
            WriteOp::Advance(batch, window) => {
                model
                    .advance_window(&batch, window, Some(1))
                    .expect("valid window step");
            }
        }
        expected.insert(i as u64 + 1, fingerprint_network(&model));
    }
    let expected = Arc::new(expected);

    // Live run: readers race the writer across every publish boundary.
    let config = ServeConfig {
        threads: Some(1),
        ..Default::default()
    };
    let (mut writer, handle) = SnapshotWriter::new(net.clone(), config);
    let stop = Arc::new(AtomicBool::new(false));
    let probe = net.stations[0].id;
    let reader_threads: Vec<_> = (0..readers)
        .map(|_| {
            let handle = Arc::clone(&handle);
            let stop = Arc::clone(&stop);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let mut last_epoch = 0u64;
                let mut observations = 0usize;
                while !stop.load(Ordering::Relaxed) || observations == 0 {
                    let snap = handle.current();
                    assert!(
                        snap.epoch >= last_epoch,
                        "reader went back in time: {} after {last_epoch}",
                        snap.epoch
                    );
                    last_epoch = snap.epoch;
                    let want = expected
                        .get(&snap.epoch)
                        .expect("every published epoch has a model state");
                    assert_eq!(
                        &fingerprint_snapshot(&snap),
                        want,
                        "epoch {} snapshot is not the complete published state",
                        snap.epoch
                    );
                    // Answers are coherent with the snapshot they ran on.
                    let a = answer(&snap, &Request::PageRank(probe));
                    assert_eq!(a.epoch, snap.epoch);
                    observations += 1;
                }
            })
        })
        .collect();

    for op in ops {
        writer
            .apply(materialise(net, op))
            .expect("ops only reference known stations");
    }
    stop.store(true, Ordering::Relaxed);
    for t in reader_threads {
        t.join().expect("reader observed an incomplete snapshot");
    }

    assert_eq!(handle.epoch(), ops.len() as u64);
    assert_eq!(
        fingerprint_snapshot(&handle.current()),
        expected[&(ops.len() as u64)],
        "final snapshot equals the model's final state"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn readers_always_observe_complete_snapshots(
        ops in prop::collection::vec(op(), 1..5),
    ) {
        for readers in [1usize, 2, 4] {
            check_serving(&ops, readers);
        }
    }
}

#[test]
fn eviction_heavy_chain_serves_consistently() {
    // Deterministic edge chain: evict everything, serve from the empty
    // window, refill, evict again — at 4 reader threads.
    let ops: Vec<Op> = vec![
        (2, vec![], 6, 23),                                         // evict almost all
        (0, vec![(1, 2, 0, 5), (3, 4, 1, 9), (5, 6, 2, 12)], 0, 0), // refill
        (2, vec![(7, 8, 6, 22)], 6, 20),                            // evict + ingest
        (0, vec![], 0, 0),                                          // empty op
    ];
    check_serving(&ops, 4);
}

/// One request of each kind about the `p`-th station, as a client asking
/// for a station profile sends them.
fn profile(p: usize, stations: &[FinalStation]) -> [Request; 5] {
    let s = &stations[(p * 7) % stations.len()];
    [
        Request::Station(s.id),
        Request::Nearest {
            at: s.position,
            k: 4,
        },
        Request::Community(s.id),
        Request::PageRank(s.id),
        Request::Degrees {
            directed: p.is_multiple_of(2),
        },
    ]
}

/// A pool that only a passing test joins. Dropping a pool joins its
/// workers, so a failing test that dropped a pool whose worker never
/// wakes would hang in that join instead of failing.
fn unjoined_pool(handle: &Arc<SnapshotHandle>, workers: usize) -> ManuallyDrop<QueryPool> {
    ManuallyDrop::new(QueryPool::new(Arc::clone(handle), workers))
}

/// A request, its pooled answer, and the handle's epoch at submit and
/// after receipt.
type Observed = (Request, Answer, u64, u64);

/// Submit station profiles, each as one burst of five requests, until
/// the writer is done (and at least 20), and record every answer.
fn pooled_client(
    pool: &QueryPool,
    handle: &SnapshotHandle,
    writer_done: &AtomicBool,
    first: usize,
) -> Vec<Observed> {
    let stations = &base_network().stations;
    let mut seen = Vec::new();
    let mut p = first;
    while !writer_done.load(Ordering::Acquire) || p < first + 20 {
        let sent: Vec<_> = profile(p, stations)
            .into_iter()
            .map(|req| (handle.epoch(), pool.submit(req.clone()), req))
            .collect();
        for (before, reply, req) in sent {
            let got = reply
                .recv_timeout(WAIT)
                .expect("a pooled request is answered");
            seen.push((req, got, before, handle.epoch()));
        }
        p += 1;
    }
    seen
}

#[test]
fn pooled_answers_match_the_published_snapshot_of_their_epoch() {
    let net = base_network();
    let ops: Vec<Op> = (0..12u8)
        .map(|i| {
            let rows = vec![(i, i + 5, i % 7, (i * 5) % 24), (i + 9, i, (i + 3) % 7, i)];
            (i % 3, rows, i % 7, (i * 7) % 24)
        })
        .collect();
    let config = ServeConfig {
        threads: Some(1),
        ..Default::default()
    };
    for workers in [1usize, 2, 4] {
        let (mut writer, handle) = SnapshotWriter::new(net.clone(), config.clone());
        let pool = unjoined_pool(&handle, workers);
        let writer_done = AtomicBool::new(false);
        let mut published = HashMap::from([(0, handle.current())]);
        let seen: Vec<Observed> = std::thread::scope(|scope| {
            let clients: Vec<_> = (0..2)
                .map(|c| {
                    let (pool, handle, done) = (&pool, &handle, &writer_done);
                    scope.spawn(move || pooled_client(pool, handle, done, c * 1000))
                })
                .collect();
            for op in &ops {
                let out = writer
                    .apply(materialise(net, op))
                    .expect("ops only reference known stations");
                published.insert(out.snapshot.epoch, out.snapshot);
                std::thread::sleep(Duration::from_millis(2));
            }
            writer_done.store(true, Ordering::Release);
            clients
                .into_iter()
                .flat_map(|c| c.join().expect("a pooled client failed"))
                .collect()
        });
        drop(ManuallyDrop::into_inner(pool));
        assert_eq!(published.len(), ops.len() + 1);
        for (req, got, before, after) in &seen {
            assert!(
                (*before..=*after).contains(&got.epoch),
                "{workers} workers: {req:?} answered at epoch {} outside [{before}, {after}]",
                got.epoch
            );
            let snapshot = &published[&got.epoch];
            assert_eq!(
                got,
                &answer(snapshot, req),
                "{workers} workers: pooled answer differs from the epoch-{} snapshot's",
                got.epoch
            );
        }
    }
}

/// Wait `gap` by yielding, which keeps the wait close to `gap` even when
/// it is shorter than the timer's slack.
fn idle(gap: Duration) {
    let until = Instant::now() + gap;
    while Instant::now() < until {
        std::thread::yield_now();
    }
}

#[test]
fn single_requests_after_idle_gaps_are_answered() {
    let net = base_network();
    let (_writer, handle) = SnapshotWriter::new(net.clone(), ServeConfig::default());
    let snapshot = handle.current();
    // Gaps on both sides of the pool's 50 µs poll window: the worker is
    // still polling, parks at about the moment the request arrives, or is
    // parked and must be woken.
    let gaps = [0, 10, 50, 100, 1000].map(Duration::from_micros);
    for workers in [1usize, 2] {
        let pool = unjoined_pool(&handle, workers);
        for gap in gaps {
            for k in 0..40 {
                idle(gap);
                let req = profile(k, &net.stations)[k % 5].clone();
                let got = pool
                    .submit(req.clone())
                    .recv_timeout(WAIT)
                    .unwrap_or_else(|e| {
                        panic!("{workers} workers, {gap:?} gap, request {k}: no answer ({e})")
                    });
                assert_eq!(got, answer(&snapshot, &req));
            }
        }
        drop(ManuallyDrop::into_inner(pool));
    }
}
