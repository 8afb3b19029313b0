//! Epoch-published network snapshots and the per-snapshot metric cache.
//!
//! The publication scheme is a fixed ring of `RwLock<Arc<ServeSnapshot>>`
//! slots plus an atomic epoch counter. A reader loads the epoch, clones
//! the `Arc` out of slot `epoch % SLOTS`, and is done — the lock is held
//! for two instructions and only guards the pointer swap itself, never a
//! computation, so readers never wait on the writer's work. The writer
//! builds each successor snapshot privately, installs it in the *next*
//! slot under that slot's write lock, drops the displaced `Arc` outside
//! the lock, and then advances the epoch with a release store. A reader
//! can therefore only contend with the writer if the writer laps the
//! entire ring inside the reader's two-instruction window; even then the
//! reader observes some *complete* snapshot — old or new, never a mix —
//! because snapshots are immutable and swapped as whole `Arc`s.
//!
//! Reclamation is epoch-based through the ring itself: a slot keeps its
//! snapshot alive until the writer laps it (`SLOTS` publishes later), so
//! at most `SLOTS` snapshots plus whatever readers still hold are live at
//! once, and dropping the last `Arc` frees the snapshot — no garbage
//! collector, no deferred free list.

use moby_community::{louvain_csr, louvain_seeded_active, LouvainConfig, Partition};
use moby_core::reassign::{
    find_station, FinalStation, SelectedGraphTable, SelectedNetwork, WindowOutcome,
};
use moby_core::Result;
use moby_data::trips::{AppendOutcome, TripBatch, WindowStart};
use moby_geo::KdTree;
use moby_graph::metrics::{pagerank_csr, DegreeSummary, PageRankConfig};
use moby_graph::{CsrGraph, NodeId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Number of ring slots. Publishing `SLOTS` epochs inside a reader's
/// epoch-load → slot-lock window is the only way a reader can contend
/// with the writer, so a handful of slots makes contention effectively
/// impossible while bounding the snapshots the ring itself keeps alive.
const SLOTS: u64 = 8;

/// Tuning for the serving layer's metric refreshes.
#[derive(Debug, Clone, Default)]
pub struct ServeConfig {
    /// Worker-thread override for graph mutation and metric refreshes.
    /// `None` resolves `MOBY_THREADS`, then the machine's parallelism.
    pub threads: Option<usize>,
    /// Louvain settings for the cold start and the seeded refreshes.
    pub louvain: LouvainConfig,
    /// PageRank settings for the cold start and the refreshes.
    pub pagerank: PageRankConfig,
}

/// Per-snapshot metric results, each tagged with the epoch it was
/// computed at so carry-forward across publishes is observable.
///
/// Invalidation rules (enforced by [`SnapshotWriter`]):
///
/// * the kd-tree and station directory are built **once** — the station
///   set of a selected network is pinned (eviction never drops
///   stations), so epoch 0's tree serves every epoch;
/// * PageRank depends only on the **directed** graph and is recomputed
///   iff a write op changed it;
/// * each degree summary depends on its own graph layer;
/// * the community partition depends on the **undirected** graph and is
///   refreshed with [`louvain_seeded_active`] seeded from the previous
///   epoch's partition — bit-identical to a whole-graph seeded run; after
///   the seeded pass's first whole-graph sweep, the rest of that pass
///   sweeps only dirty nodes and their frontier.
#[derive(Debug, Clone)]
pub struct MetricCache {
    /// Station positions → ids, built at epoch 0 and carried forever.
    pub kd: Arc<KdTree<NodeId>>,
    /// Weighted PageRank over the directed trip graph.
    pub pagerank: Arc<HashMap<NodeId, f64>>,
    /// Epoch [`MetricCache::pagerank`] was computed at.
    pub pagerank_epoch: u64,
    /// Degree summary of the directed trip graph (`None` for an empty
    /// graph).
    pub degrees_directed: Option<DegreeSummary>,
    /// Degree summary of the undirected trip graph.
    pub degrees_undirected: Option<DegreeSummary>,
    /// Epoch the degree summaries were computed at.
    pub degrees_epoch: u64,
    /// Louvain partition of the undirected trip graph.
    pub partition: Arc<Partition>,
    /// Epoch [`MetricCache::partition`] was computed at.
    pub partition_epoch: u64,
}

impl MetricCache {
    /// Cold-start the cache for epoch 0 of `network`.
    fn bootstrap(network: &SelectedNetwork, config: &ServeConfig) -> MetricCache {
        let kd = KdTree::build(
            network
                .stations
                .iter()
                .map(|s| (s.position, s.id))
                .collect(),
        );
        MetricCache {
            kd: Arc::new(kd),
            pagerank: Arc::new(pagerank_csr(&network.directed, &config.pagerank)),
            pagerank_epoch: 0,
            degrees_directed: DegreeSummary::for_graph_csr(&network.directed),
            degrees_undirected: DegreeSummary::for_graph_csr(&network.undirected),
            degrees_epoch: 0,
            partition: Arc::new(louvain_csr(&network.undirected, &config.louvain)),
            partition_epoch: 0,
        }
    }

    /// Advance the cache to `epoch`: recompute what the write op touched,
    /// carry the rest forward by `Arc` clone.
    fn advance(
        &self,
        network: &SelectedNetwork,
        epoch: u64,
        directed_changed: bool,
        undirected_changed: bool,
        config: &ServeConfig,
    ) -> MetricCache {
        let (pagerank, pagerank_epoch) = if directed_changed {
            (
                Arc::new(pagerank_csr(&network.directed, &config.pagerank)),
                epoch,
            )
        } else {
            (Arc::clone(&self.pagerank), self.pagerank_epoch)
        };
        let (degrees_directed, degrees_undirected, degrees_epoch) =
            if directed_changed || undirected_changed {
                (
                    DegreeSummary::for_graph_csr(&network.directed),
                    DegreeSummary::for_graph_csr(&network.undirected),
                    epoch,
                )
            } else {
                (
                    self.degrees_directed.clone(),
                    self.degrees_undirected.clone(),
                    self.degrees_epoch,
                )
            };
        let (partition, partition_epoch) = if undirected_changed {
            (
                Arc::new(louvain_seeded_active(
                    &network.undirected,
                    &self.partition,
                    &config.louvain,
                )),
                epoch,
            )
        } else {
            (Arc::clone(&self.partition), self.partition_epoch)
        };
        MetricCache {
            kd: Arc::clone(&self.kd),
            pagerank,
            pagerank_epoch,
            degrees_directed,
            degrees_undirected,
            degrees_epoch,
            partition,
            partition_epoch,
        }
    }
}

/// One immutable published state of the serving layer. Everything heavy
/// (station directory, adjacency slabs, metric maps) is `Arc`-shared with
/// the writer's private network and with neighbouring epochs, so a
/// snapshot costs O(Table III) to assemble, not O(graph).
#[derive(Debug, Clone)]
pub struct ServeSnapshot {
    /// The epoch this snapshot was published at (0 = initial build).
    pub epoch: u64,
    /// The pinned station directory (pre-existing first, then selected,
    /// each run sorted by id).
    pub stations: Arc<Vec<FinalStation>>,
    /// Frozen directed trip graph.
    pub directed: CsrGraph,
    /// Frozen undirected trip graph.
    pub undirected: CsrGraph,
    /// Table III counters at this epoch.
    pub table: SelectedGraphTable,
    /// Rows in the trip table at this epoch.
    pub trip_count: usize,
    /// Cached metric results with per-metric provenance epochs.
    pub metrics: MetricCache,
}

impl ServeSnapshot {
    /// Look up a station by id: a binary search of each sorted run of the
    /// directory (see [`find_station`]).
    pub fn station(&self, id: NodeId) -> Option<&FinalStation> {
        find_station(&self.stations, id)
    }
}

/// The reader-facing handle: an epoch ring of published snapshots.
///
/// Cheap to share (`Arc<SnapshotHandle>`); every reader thread calls
/// [`SnapshotHandle::current`] per query (or per query burst) and holds
/// the returned `Arc` for as long as it needs one coherent view.
#[derive(Debug)]
pub struct SnapshotHandle {
    epoch: AtomicU64,
    slots: Vec<RwLock<Arc<ServeSnapshot>>>,
}

impl SnapshotHandle {
    fn new(initial: ServeSnapshot) -> Arc<SnapshotHandle> {
        let initial = Arc::new(initial);
        let slots = (0..SLOTS)
            .map(|_| RwLock::new(Arc::clone(&initial)))
            .collect();
        Arc::new(SnapshotHandle {
            epoch: AtomicU64::new(0),
            slots,
        })
    }

    /// The most recently published snapshot.
    ///
    /// Lock-free in practice: the slot's read lock guards only the `Arc`
    /// clone (two instructions), and the writer touches a slot only once
    /// per `SLOTS` publishes — so readers proceed without ever waiting on
    /// snapshot construction, metric refresh, or graph mutation. The
    /// returned snapshot is always complete; it is the one for the loaded
    /// epoch or, if the writer lapped the ring inside the load window, a
    /// strictly newer one.
    pub fn current(&self) -> Arc<ServeSnapshot> {
        let e = self.epoch.load(Ordering::Acquire);
        let slot = &self.slots[(e % SLOTS) as usize];
        let guard = slot.read().expect("snapshot slot poisoned");
        Arc::clone(&guard)
    }

    /// The epoch of the most recent publish (0 until the writer publishes).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Install `snap` as the next epoch. Writer-side only.
    fn publish(&self, snap: ServeSnapshot) {
        // The single writer is the only mutator of `epoch`, so a relaxed
        // load reads its own last store.
        let next = self.epoch.load(Ordering::Relaxed) + 1;
        debug_assert_eq!(snap.epoch, next, "epochs advance one at a time");
        let slot = &self.slots[(next % SLOTS) as usize];
        let displaced = {
            let mut guard = slot.write().expect("snapshot slot poisoned");
            std::mem::replace(&mut *guard, Arc::new(snap))
        };
        // Release-publish the epoch *after* the slot holds the snapshot,
        // so a reader that observes `next` finds it installed.
        self.epoch.store(next, Ordering::Release);
        // Drop the displaced snapshot outside the slot lock: if this is
        // the last Arc, freeing the slabs must not extend the critical
        // section readers share.
        drop(displaced);
    }
}

/// A mutation applied by the single writer between two epochs.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Append a trip batch
    /// ([`SelectedNetwork::ingest_batch`]).
    Ingest(TripBatch),
    /// Evict everything before the window, then append the batch
    /// ([`SelectedNetwork::advance_window`]).
    Advance(TripBatch, WindowStart),
}

/// What one [`SnapshotWriter::apply`] did, for callers that chain the
/// outcome into the temporal layer or assert cache behaviour.
#[derive(Debug)]
pub struct PublishOutcome {
    /// The snapshot that was published.
    pub snapshot: Arc<ServeSnapshot>,
    /// The window outcome (`appended` only for [`WriteOp::Ingest`]).
    pub appended: AppendOutcome,
    /// The eviction half, when the op was [`WriteOp::Advance`].
    pub evicted: Option<moby_data::trips::EvictOutcome>,
}

/// The single writer: owns the private successor network and the only
/// publishing reference to the ring.
///
/// Clone-free pipeline: `SelectedNetwork`'s graphs and station directory
/// are `Arc`-backed, so the per-epoch snapshot assembly copies Table III
/// and bumps reference counts — the trip table stays private to the
/// writer and is never published.
#[derive(Debug)]
pub struct SnapshotWriter {
    handle: Arc<SnapshotHandle>,
    network: SelectedNetwork,
    config: ServeConfig,
}

impl SnapshotWriter {
    /// Take over `network` as the serving state, publish epoch 0, and
    /// return the writer plus the shared reader handle.
    pub fn new(
        network: SelectedNetwork,
        config: ServeConfig,
    ) -> (SnapshotWriter, Arc<SnapshotHandle>) {
        let metrics = MetricCache::bootstrap(&network, &config);
        let initial = ServeSnapshot {
            epoch: 0,
            stations: Arc::clone(&network.stations),
            directed: network.directed.clone(),
            undirected: network.undirected.clone(),
            table: network.table.clone(),
            trip_count: network.trips.len(),
            metrics,
        };
        let handle = SnapshotHandle::new(initial);
        (
            SnapshotWriter {
                handle: Arc::clone(&handle),
                network,
                config,
            },
            handle,
        )
    }

    /// The writer's private successor network (for offline verification:
    /// the bench rebuilds dense CSR from these trips and panic-checks
    /// bit-identity against the published snapshot).
    pub fn network(&self) -> &SelectedNetwork {
        &self.network
    }

    /// Apply one write op to the private successor and publish it as the
    /// next epoch.
    ///
    /// # Errors
    ///
    /// Propagates the network's validation errors (unknown stations).
    /// A failed op publishes nothing and leaves the successor untouched.
    pub fn apply(&mut self, op: WriteOp) -> Result<PublishOutcome> {
        let epoch = self.handle.epoch.load(Ordering::Relaxed) + 1;
        let (appended, evicted) = match op {
            WriteOp::Ingest(batch) => {
                let out = self.network.ingest_batch(&batch, self.config.threads)?;
                (out, None)
            }
            WriteOp::Advance(batch, window) => {
                let WindowOutcome { evicted, appended } =
                    self.network
                        .advance_window(&batch, window, self.config.threads)?;
                (appended, Some(evicted))
            }
        };
        // Both trip graphs are projections of the same trip table, so any
        // surviving-row change touches both layers; an empty batch with a
        // no-op eviction touches neither (the network rebuilt identical
        // graphs, and the cache carries every metric forward).
        let appended_rows = self.network.trips.len() - appended.batch_start;
        let changed = appended_rows > 0 || evicted.as_ref().map(|e| !e.is_noop()).unwrap_or(false);
        let metrics = self.handle.current().metrics.advance(
            &self.network,
            epoch,
            changed,
            changed,
            &self.config,
        );
        let snap = ServeSnapshot {
            epoch,
            stations: Arc::clone(&self.network.stations),
            directed: self.network.directed.clone(),
            undirected: self.network.undirected.clone(),
            table: self.network.table.clone(),
            trip_count: self.network.trips.len(),
            metrics,
        };
        self.handle.publish(snap);
        Ok(PublishOutcome {
            snapshot: self.handle.current(),
            appended,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
    use moby_data::synth::{generate, SynthConfig};
    use moby_graph::build_dense_csr;

    fn network() -> SelectedNetwork {
        let raw = generate(&SynthConfig::small_test());
        ExpansionPipeline::new(PipelineConfig::default())
            .run(&raw)
            .expect("pipeline runs")
            .selected
    }

    fn replay_batch(net: &SelectedNetwork, rows: usize) -> TripBatch {
        let mut batch = TripBatch::new();
        for k in 0..rows.min(net.trips.len()) {
            batch.push_keyed(
                net.trips.station_id(net.trips.src()[k]),
                net.trips.station_id(net.trips.dst()[k]),
                net.trips.day()[k],
                net.trips.hour()[k],
                1.0,
            );
        }
        batch
    }

    #[test]
    fn epoch_zero_shares_graph_storage_with_the_network() {
        let net = network();
        let (writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let snap = handle.current();
        assert_eq!(snap.epoch, 0);
        assert_eq!(handle.epoch(), 0);
        assert!(snap.directed.shares_storage(&writer.network().directed));
        assert!(snap.undirected.shares_storage(&writer.network().undirected));
        assert_eq!(snap.trip_count, writer.network().trips.len());
    }

    #[test]
    fn ingest_publishes_next_epoch_and_matches_offline_rebuild() {
        let net = network();
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let batch = replay_batch(writer.network(), 30);
        let out = writer.apply(WriteOp::Ingest(batch)).expect("valid batch");
        assert_eq!(out.snapshot.epoch, 1);
        assert_eq!(handle.current().epoch, 1);

        // Published graphs are bit-identical to a from-scratch rebuild
        // over the writer's trip table.
        let trips = &writer.network().trips;
        for (directed, got) in [
            (true, &out.snapshot.directed),
            (false, &out.snapshot.undirected),
        ] {
            let want = build_dense_csr(
                directed,
                trips.station_ids().to_vec(),
                trips.src(),
                trips.dst(),
                trips.weights(),
                Some(1),
            );
            assert_eq!(got, &want);
            assert_eq!(got.total_weight().to_bits(), want.total_weight().to_bits());
        }
    }

    #[test]
    fn empty_op_carries_every_metric_forward() {
        let net = network();
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let before = handle.current();
        let out = writer
            .apply(WriteOp::Ingest(TripBatch::new()))
            .expect("empty batch is valid");
        let m = &out.snapshot.metrics;
        assert_eq!(out.snapshot.epoch, 1);
        assert!(Arc::ptr_eq(&m.pagerank, &before.metrics.pagerank));
        assert!(Arc::ptr_eq(&m.partition, &before.metrics.partition));
        assert!(Arc::ptr_eq(&m.kd, &before.metrics.kd));
        assert_eq!(m.pagerank_epoch, 0);
        assert_eq!(m.partition_epoch, 0);
        assert_eq!(m.degrees_epoch, 0);
    }

    #[test]
    fn mutating_op_refreshes_metrics_with_seeded_partition() {
        let net = network();
        let config = ServeConfig::default();
        let (mut writer, handle) = SnapshotWriter::new(net, config.clone());
        let before = handle.current();
        let batch = replay_batch(writer.network(), 40);
        let out = writer.apply(WriteOp::Ingest(batch)).expect("valid batch");
        let m = &out.snapshot.metrics;
        assert_eq!(m.pagerank_epoch, 1);
        assert_eq!(m.partition_epoch, 1);
        assert_eq!(m.degrees_epoch, 1);
        assert!(Arc::ptr_eq(&m.kd, &before.metrics.kd), "kd always carried");
        // The seeded refresh equals a cold PageRank/Louvain recompute on
        // the published graph (the active-set path is bit-identical to
        // the whole-graph seeded sweep; seeding can only refine).
        let want_pr = pagerank_csr(&out.snapshot.directed, &config.pagerank);
        assert_eq!(*m.pagerank, want_pr);
    }

    #[test]
    fn advance_window_publishes_evicted_state() {
        let net = network();
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let trips_before = writer.network().trips.len();
        let out = writer
            .apply(WriteOp::Advance(TripBatch::new(), WindowStart::new(6, 0)))
            .expect("window advances");
        let evicted = out.evicted.expect("advance reports the eviction");
        assert!(evicted.evicted_rows() > 0, "window must expire rows");
        assert_eq!(
            out.snapshot.trip_count,
            trips_before - evicted.evicted_rows()
        );
        assert_eq!(out.snapshot.metrics.partition_epoch, 1);
        assert_eq!(handle.current().table.total_trips, out.snapshot.trip_count);
    }

    #[test]
    fn failed_op_publishes_nothing() {
        let net = network();
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let mut batch = TripBatch::new();
        batch.push_keyed(u64::MAX - 1, u64::MAX - 2, 0, 0, 1.0);
        assert!(writer.apply(WriteOp::Ingest(batch)).is_err());
        assert_eq!(handle.epoch(), 0);
        assert_eq!(handle.current().epoch, 0);
    }

    #[test]
    fn ring_keeps_older_snapshots_alive_for_holders() {
        let net = network();
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let epoch0 = handle.current();
        // Publish more epochs than the ring has slots; the held Arc keeps
        // epoch 0 valid throughout.
        for _ in 0..12 {
            writer
                .apply(WriteOp::Ingest(TripBatch::new()))
                .expect("empty batches");
        }
        assert_eq!(handle.epoch(), 12);
        assert_eq!(epoch0.epoch, 0);
        assert_eq!(epoch0.trip_count, writer.network().trips.len());
        assert_eq!(handle.current().epoch, 12);
    }
}
