//! Step 3b — community detection on the temporal graphs (§IV-C / §V-C).
//!
//! Louvain runs on the (possibly layered) temporal graph; the resulting
//! partition is folded down to a **station-level** assignment (each station
//! joins the community in which it carries the most trip weight) and the
//! paper's per-community trip accounting (Tables IV–VI) is produced from the
//! directed trip graph.

use crate::temporal::{TemporalGranularity, TemporalGraph};
use moby_community::stats::{community_table, CommunityTable};
use moby_community::{label_propagation_csr, louvain_scored, modularity_csr_threads};
use moby_community::{LabelPropagationConfig, LouvainConfig, Partition, ScoredPartition};
use moby_graph::{CsrGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Which community detector to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Detector {
    /// The Louvain algorithm (the paper's choice).
    Louvain,
    /// Label propagation (the paper's named future-work comparison).
    LabelPropagation,
}

/// Configuration for a detection run.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectConfig {
    /// Which detector to run.
    pub detector: Detector,
    /// Seed for the detector's node-visiting order.
    pub seed: Option<u64>,
    /// Worker-thread override for the detector sweeps and modularity
    /// scoring. `None` resolves the `MOBY_THREADS` environment variable,
    /// then the machine's parallelism (see
    /// [`moby_graph::par::thread_count`]). Detection results are
    /// bit-identical at any thread count, so this only tunes speed.
    pub threads: Option<usize>,
}

impl Default for DetectConfig {
    fn default() -> Self {
        Self {
            detector: Detector::Louvain,
            seed: None,
            threads: None,
        }
    }
}

/// The result of community detection at one temporal granularity.
#[derive(Debug, Clone)]
pub struct CommunityDetection {
    /// The granularity the detection ran at.
    pub granularity: TemporalGranularity,
    /// Modularity of the detected partition on the graph it was detected on
    /// (the layered graph for `GDay`/`GHour`), which is the score the paper
    /// reports alongside each table.
    pub modularity: f64,
    /// The raw partition on the detection graph (layered node ids for
    /// `GDay`/`GHour`).
    pub raw_partition: Partition,
    /// The folded station-level assignment.
    pub station_partition: Partition,
    /// The paper's per-community table (stations old/new, trips within /
    /// out / in).
    pub table: CommunityTable,
}

impl CommunityDetection {
    /// Number of detected (station-level) communities.
    pub fn community_count(&self) -> usize {
        self.table.community_count()
    }
}

/// Fold a partition over layered `(station, key)` nodes down to stations:
/// each station joins the community in which its layer nodes carry the most
/// strength (trip weight); ties break towards the smaller community label.
/// The strengths of each `(station, community)` add in ascending
/// layered-node order, so fractional weights fold to the same bits on
/// every call.
///
/// `label(u)` is the community of the detection graph's dense node `u`
/// (`None` leaves the node out). A layered id is `station * stride + key`,
/// so one sort by id groups each station's layer nodes in ascending order,
/// each node's station is its id over the stride, and its strength comes
/// from the graph's dense cache: the fold looks nothing up. `GBasic` has
/// no layers, and its station partition is `raw` itself.
fn fold_to_stations(
    temporal: &TemporalGraph,
    raw: &Partition,
    label: impl Fn(usize) -> Option<usize>,
) -> Partition {
    let stride = temporal.granularity.stride();
    if stride == 1 {
        return raw.clone();
    }
    let csr = &temporal.csr;
    let mut layers: Vec<(NodeId, u32)> = csr
        .node_ids()
        .iter()
        .enumerate()
        .map(|(u, &layered)| (layered, u as u32))
        .collect();
    layers.sort_unstable();

    // Each station's layer nodes are one run, in ascending id; a station
    // has at most `stride` of them, so its per-community sums sit in a
    // short list.
    let mut winners: Vec<(NodeId, usize)> = Vec::new();
    let mut sums: Vec<(usize, f64)> = Vec::new();
    for run in layers.chunk_by(|a, b| a.0 / stride == b.0 / stride) {
        sums.clear();
        for &(_, u) in run {
            let Some(community) = label(u as usize) else {
                continue;
            };
            // Every layer node keeps some influence even if it only has
            // zero-weight presence.
            let strength = csr.strength(u as usize).max(1e-9);
            match sums.iter_mut().find(|(c, _)| *c == community) {
                Some((_, sum)) => *sum += strength,
                None => sums.push((community, strength)),
            }
        }
        let heaviest = sums.iter().copied().reduce(|best, next| {
            if next.1 > best.1 || (next.1 == best.1 && next.0 < best.0) {
                next
            } else {
                best
            }
        });
        if let Some((community, _)) = heaviest {
            winners.push((run[0].0 / stride, community));
        }
    }
    winners.into_iter().collect::<Partition>().renumbered()
}

/// Run community detection on a temporal graph and produce the paper-style
/// table against the directed trip graph.
///
/// Everything here consumes frozen CSR graphs: the temporal graph was
/// frozen once at build time, and `directed_trips` should be frozen once
/// by the caller and shared across all three granularities.
///
/// * `temporal` — one of the graphs built by
///   [`crate::temporal::build_all_from_trips`];
/// * `directed_trips` — the station-level directed weighted trip graph,
///   frozen to CSR;
/// * `old_stations` — ids of pre-existing stations (for the old/new station
///   columns).
pub fn detect_communities(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    config: &DetectConfig,
) -> CommunityDetection {
    match config.detector {
        Detector::Louvain => detect_louvain(temporal, directed_trips, old_stations, None, config),
        Detector::LabelPropagation => {
            let raw = label_propagation_csr(
                &temporal.csr,
                &LabelPropagationConfig {
                    seed: config.seed.unwrap_or(1),
                    threads: config.threads,
                    ..Default::default()
                },
            );
            let q = modularity_csr_threads(&temporal.csr, &raw, config.threads);
            // One lookup a node hands the partition to the dense fold.
            let ids = temporal.csr.node_ids();
            let station_partition = fold_to_stations(temporal, &raw, |u| raw.community_of(ids[u]));
            finish_detection(
                temporal,
                directed_trips,
                old_stations,
                raw,
                station_partition,
                q,
            )
        }
    }
}

/// A Louvain detection, cold (`seed` `None`) or seeded from a previous
/// raw partition: Louvain's dense labels fold to stations, and the table
/// carries the modularity it scored on them.
fn detect_louvain(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    seed: Option<&Partition>,
    config: &DetectConfig,
) -> CommunityDetection {
    let louvain = LouvainConfig {
        seed: config.seed,
        threads: config.threads,
        ..Default::default()
    };
    let ScoredPartition {
        partition,
        labels,
        modularity,
    } = louvain_scored(&temporal.csr, seed, &louvain);
    let station_partition = fold_to_stations(temporal, &partition, |u| Some(labels[u]));
    finish_detection(
        temporal,
        directed_trips,
        old_stations,
        partition,
        station_partition,
        modularity,
    )
}

/// Shared tail of every detection path: produce the paper-style table.
fn finish_detection(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    raw_partition: Partition,
    station_partition: Partition,
    q: f64,
) -> CommunityDetection {
    let table = community_table(directed_trips, &station_partition, old_stations, q);
    CommunityDetection {
        granularity: temporal.granularity,
        modularity: q,
        raw_partition,
        station_partition,
        table,
    }
}

/// Re-detect communities after a windowed update, **seeding** from the
/// previous detection instead of starting cold — the incremental-refresh
/// half of the windowed lifecycle.
///
/// For the Louvain detector the first local-moving phase starts from
/// `previous.raw_partition`
/// ([`louvain_seeded`](moby_community::louvain_seeded)): nodes that
/// entered with the latest batch begin as singletons and entries for
/// evicted layered nodes are ignored. Every sweep visits every node, and
/// the seed is scored only when the first pass moves one; what the seed
/// saves is the sweeps a cold start needs to come near it, few when the
/// window shifts gently. The windowed pipeline refreshes through here on
/// every step. Label propagation has no usable seed state, so it re-runs
/// cold.
///
/// The refreshed modularity is never below the seed partition's on the
/// updated graph (local moving never commits a losing move); the windowed
/// bench additionally gates it against a cold re-run.
pub fn refresh_communities(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    previous: &CommunityDetection,
    config: &DetectConfig,
) -> CommunityDetection {
    assert_eq!(
        temporal.granularity, previous.granularity,
        "seed detection is for a different granularity"
    );
    match config.detector {
        Detector::Louvain => detect_louvain(
            temporal,
            directed_trips,
            old_stations,
            Some(&previous.raw_partition),
            config,
        ),
        Detector::LabelPropagation => {
            detect_communities(temporal, directed_trips, old_stations, config)
        }
    }
}

/// [`refresh_communities`] under a second name, which the repository
/// benchmark imports; the benchmark's next revision drops it.
pub use self::refresh_communities as refresh_communities_active;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::temporal::build_all_from_trips;
    use moby_data::trips::TripTable;
    use moby_graph::build_dense_csr;

    /// Two station groups {1,2} and {3,4}. Group A trips happen on weekday
    /// mornings, group B trips at weekend middays; a couple of cross trips
    /// bridge them.
    fn trips() -> TripTable {
        let mut t = TripTable::new(vec![1, 2, 3, 4]);
        let mut add = |src: u64, dst: u64, day: u8, hour: u8, n: usize| {
            let (s, d) = (t.station_index(src).unwrap(), t.station_index(dst).unwrap());
            for _ in 0..n {
                t.push_keyed(s, d, day, hour, 1.0).unwrap();
            }
        };
        add(1, 2, 1, 8, 20);
        add(2, 1, 2, 17, 18);
        add(1, 1, 0, 9, 5);
        add(3, 4, 5, 12, 20);
        add(4, 3, 6, 13, 18);
        add(4, 4, 5, 14, 5);
        add(1, 3, 3, 11, 2);
        add(4, 2, 6, 15, 2);
        t
    }

    /// The fixture's temporal graph at `granularity`.
    fn temporal(granularity: TemporalGranularity) -> TemporalGraph {
        let mut all = build_all_from_trips(&trips(), None, Some(1));
        all.swap_remove(
            TemporalGranularity::ALL
                .iter()
                .position(|&g| g == granularity)
                .unwrap(),
        )
    }

    /// The fixture's directed trip graph.
    fn directed() -> CsrGraph {
        let t = trips();
        build_dense_csr(
            true,
            t.station_ids().to_vec(),
            t.src(),
            t.dst(),
            t.weights(),
            Some(1),
        )
    }

    fn old() -> HashSet<NodeId> {
        [1, 3].into_iter().collect()
    }

    #[test]
    fn basic_granularity_splits_station_groups() {
        let temporal = temporal(TemporalGranularity::TNull);
        let directed = directed();
        let det = detect_communities(&temporal, &directed, &old(), &DetectConfig::default());
        assert_eq!(det.granularity, TemporalGranularity::TNull);
        assert_eq!(det.community_count(), 2);
        assert_eq!(
            det.station_partition.community_of(1),
            det.station_partition.community_of(2)
        );
        assert_ne!(
            det.station_partition.community_of(1),
            det.station_partition.community_of(3)
        );
        assert!(det.modularity > 0.2);
        // Old/new station accounting: one old station per community.
        for row in &det.table.rows {
            assert_eq!(row.old_stations, 1);
            assert_eq!(row.new_stations, 1);
        }
    }

    #[test]
    fn layered_granularities_fold_back_to_all_stations() {
        let directed = directed();
        for g in [TemporalGranularity::TDay, TemporalGranularity::THour] {
            let temporal = temporal(g);
            let det = detect_communities(&temporal, &directed, &old(), &DetectConfig::default());
            // Every station receives a community.
            assert_eq!(det.station_partition.len(), 4, "{g:?}");
            // Trip accounting covers every trip.
            assert_eq!(det.table.total_trips(), 90.0, "{g:?}");
            assert!(det.modularity > 0.0, "{g:?}");
        }
    }

    #[test]
    fn finer_granularity_does_not_reduce_modularity_here() {
        // With temporally disjoint groups, layering increases (or maintains)
        // modularity — the trend the paper reports (0.25 -> 0.32 -> 0.54).
        let directed = directed();
        let q: Vec<f64> = TemporalGranularity::ALL
            .iter()
            .map(|&g| {
                let t = temporal(g);
                detect_communities(&t, &directed, &old(), &DetectConfig::default()).modularity
            })
            .collect();
        assert!(q[1] >= q[0] - 1e-9, "TDay {} vs TNull {}", q[1], q[0]);
        assert!(q[2] >= q[1] - 1e-9, "THour {} vs TDay {}", q[2], q[1]);
    }

    #[test]
    fn label_propagation_detector_runs() {
        let temporal = temporal(TemporalGranularity::TNull);
        let directed = directed();
        let det = detect_communities(
            &temporal,
            &directed,
            &old(),
            &DetectConfig {
                detector: Detector::LabelPropagation,
                seed: Some(5),
                ..Default::default()
            },
        );
        assert!(det.community_count() >= 1);
        assert_eq!(det.station_partition.len(), 4);
    }

    #[test]
    fn detection_is_deterministic() {
        let temporal = temporal(TemporalGranularity::THour);
        let directed = directed();
        let a = detect_communities(&temporal, &directed, &old(), &DetectConfig::default());
        let b = detect_communities(&temporal, &directed, &old(), &DetectConfig::default());
        assert_eq!(a.station_partition, b.station_partition);
        assert_eq!(a.modularity, b.modularity);
    }

    #[test]
    fn refresh_from_previous_detection_never_loses_modularity() {
        let directed = directed();
        for g in TemporalGranularity::ALL {
            let temporal = temporal(g);
            let cfg = DetectConfig::default();
            let cold = detect_communities(&temporal, &directed, &old(), &cfg);
            // Same graph, seeded from its own detection: a fixed point or
            // better, never worse.
            let refreshed = refresh_communities(&temporal, &directed, &old(), &cold, &cfg);
            assert!(
                refreshed.modularity >= cold.modularity - 1e-12,
                "{g:?}: {} < {}",
                refreshed.modularity,
                cold.modularity
            );
            assert_eq!(refreshed.granularity, g);
            assert_eq!(refreshed.station_partition.len(), 4);
        }
    }

    #[test]
    fn refresh_with_label_propagation_falls_back_to_cold() {
        let temporal = temporal(TemporalGranularity::TNull);
        let directed = directed();
        let cfg = DetectConfig {
            detector: Detector::LabelPropagation,
            seed: Some(5),
            ..Default::default()
        };
        let cold = detect_communities(&temporal, &directed, &old(), &cfg);
        let refreshed = refresh_communities(&temporal, &directed, &old(), &cold, &cfg);
        assert_eq!(refreshed.station_partition, cold.station_partition);
    }

    #[test]
    fn station_fold_is_the_same_on_every_call() {
        // Station 1's day 0–2 layers (strengths 0.1, 0.2, 0.3) sit in
        // community 1 and its day-3 layer (0.6) with all of station 2 in
        // community 0. Summed in ascending node order the three make
        // 0.6000000000000001, so station 1 folds to community 1; an
        // order-dependent sum could tie at 0.6 and fold it to 0. Trip
        // weights are integers, so the graph is built straight from its
        // layered edges (station * 8 + day), as a `GDay` build from one
        // 1 -> 2 trip a day would intern them.
        let mut g = moby_graph::WeightedGraph::new_undirected();
        for (day, w) in [(0u64, 0.1), (1, 0.2), (2, 0.3), (3, 0.6)] {
            g.add_edge(8 + day, 16 + day, w);
        }
        let csr = g.freeze();
        let map = csr
            .node_ids()
            .iter()
            .map(|&id| (id, (id / 8, (id % 8) as u32)))
            .collect();
        let gday = TemporalGraph::from_csr(TemporalGranularity::TDay, csr, Some(map));
        let layers = [(8u64, 1usize), (9, 1), (10, 1), (11, 0)];
        let station2 = (16u64..20).map(|id| (id, 0usize));
        let fold = || {
            let raw: Partition = layers.iter().copied().chain(station2.clone()).collect();
            fold_to_stations(&gday, &raw, |u| raw.community_of(gday.csr.node_ids()[u]))
        };
        let first = fold();
        assert_eq!(first.community_count(), 2);
        for _ in 0..200 {
            assert_eq!(fold(), first);
        }
    }

    #[test]
    fn station_fold_breaks_ties_towards_the_smaller_label() {
        // Station 1's day-0 layer (id 8) shares community 5 with station 2
        // and its day-1 layer (id 9) shares community 2 with station 3, at
        // equal strength: station 1 folds to community 2, with station 3,
        // although its first layer node sits in community 5.
        let mut g = moby_graph::WeightedGraph::new_undirected();
        g.add_edge(8, 16, 1.0);
        g.add_edge(9, 25, 1.0);
        let csr = g.freeze();
        let map = csr
            .node_ids()
            .iter()
            .map(|&id| (id, (id / 8, (id % 8) as u32)))
            .collect();
        let gday = TemporalGraph::from_csr(TemporalGranularity::TDay, csr, Some(map));
        let raw: Partition = [(8u64, 5usize), (16, 5), (9, 2), (25, 2)]
            .into_iter()
            .collect();
        let folded = fold_to_stations(&gday, &raw, |u| raw.community_of(gday.csr.node_ids()[u]));
        let expected: Partition = [(1u64, 0usize), (3, 0), (2, 1)].into_iter().collect();
        assert_eq!(folded, expected);
    }

    #[test]
    fn self_containment_is_high_for_separated_groups() {
        let temporal = temporal(TemporalGranularity::TNull);
        let directed = directed();
        let det = detect_communities(&temporal, &directed, &old(), &DetectConfig::default());
        // 86 of 90 trips stay within their group.
        assert!(det.table.self_contained_share() > 0.9);
    }
}
