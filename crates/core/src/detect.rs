//! Step 3b — community detection on the temporal graphs (§IV-C / §V-C).
//!
//! Louvain runs on the (possibly layered) temporal graph; the resulting
//! partition is folded down to a **station-level** assignment (each station
//! joins the community in which it carries the most trip weight) and the
//! paper's per-community trip accounting (Tables IV–VI) is produced from the
//! directed trip graph.

use crate::temporal::{TemporalGranularity, TemporalGraph};
use moby_community::stats::{community_table, CommunityTable};
use moby_community::{
    label_propagation_csr, louvain_csr, louvain_seeded, louvain_seeded_active,
    modularity_csr_threads,
};
use moby_community::{LabelPropagationConfig, LouvainConfig, Partition};
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
/// `raw` partitions the detection graph's nodes: each node is looked up
/// once in `raw` and once in the layer map, and its strength is read from
/// the graph's dense cache.
fn fold_to_stations(temporal: &TemporalGraph, raw: &Partition) -> Partition {
    let Some(map) = &temporal.layer_map else {
        return raw.clone();
    };
    let csr = &temporal.csr;
    let mut layers: Vec<(NodeId, usize, NodeId, f64)> = csr
        .node_ids()
        .iter()
        .enumerate()
        .filter_map(|(u, &layered)| {
            let community = raw.community_of(layered)?;
            let &(station, _) = map.get(&layered)?;
            // Every layer node keeps some influence even if it only has
            // zero-weight presence.
            Some((station, community, layered, csr.strength(u).max(1e-9)))
        })
        .collect();
    layers.sort_unstable_by_key(|&(station, community, layered, _)| (station, community, layered));

    // Sum each (station, community) run in ascending layered order; each
    // station keeps its heaviest run, the first (smallest label) of equals.
    let mut winners: Vec<(NodeId, usize)> = Vec::new();
    let mut best = 0.0f64;
    for run in layers.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
        let (station, community, _, _) = run[0];
        let total = run.iter().fold(0.0, |sum, layer| sum + layer.3);
        match winners.last_mut() {
            Some(last) if last.0 == station => {
                if total > best {
                    last.1 = community;
                    best = total;
                }
            }
            _ => {
                winners.push((station, community));
                best = total;
            }
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
    let (raw_partition, q) = match config.detector {
        Detector::Louvain => {
            let raw = louvain_csr(
                &temporal.csr,
                &LouvainConfig {
                    seed: config.seed,
                    threads: config.threads,
                    ..Default::default()
                },
            );
            let q = modularity_csr_threads(&temporal.csr, &raw, config.threads);
            (raw, q)
        }
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
            (raw, q)
        }
    };
    finish_detection(temporal, directed_trips, old_stations, raw_partition, q)
}

/// Shared tail of every detection path: fold the raw partition to
/// stations and produce the paper-style table.
fn finish_detection(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    raw_partition: Partition,
    q: f64,
) -> CommunityDetection {
    let station_partition = fold_to_stations(temporal, &raw_partition);
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
/// `previous.raw_partition` ([`louvain_seeded`]): nodes that entered with
/// the latest batch begin as singletons, entries for evicted layered
/// nodes are ignored, and only neighbourhoods the window actually changed
/// move — O(touched rows) in practice instead of a full re-run. Label
/// propagation has no usable seed state, so it re-runs cold.
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
    refresh_impl(
        temporal,
        directed_trips,
        old_stations,
        previous,
        config,
        false,
    )
}

/// [`refresh_communities`] with **active-set** local moving
/// ([`louvain_seeded_active`]): after the first whole-graph sweep, only
/// the nodes a committed move invalidated are re-examined, so sweeps
/// shrink towards the rows the window actually touched. The refreshed
/// detection is **bit-identical** to [`refresh_communities`] for the same
/// inputs; callers switch on it purely as a performance policy — the
/// windowed pipeline does when the delta touched a minority of stations
/// (see `WindowConfig::active_refresh_threshold`). Label propagation has
/// no seeded path, so it falls back to a cold re-run exactly as
/// [`refresh_communities`] does.
pub fn refresh_communities_active(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    previous: &CommunityDetection,
    config: &DetectConfig,
) -> CommunityDetection {
    refresh_impl(
        temporal,
        directed_trips,
        old_stations,
        previous,
        config,
        true,
    )
}

fn refresh_impl(
    temporal: &TemporalGraph,
    directed_trips: &CsrGraph,
    old_stations: &HashSet<NodeId>,
    previous: &CommunityDetection,
    config: &DetectConfig,
    active: bool,
) -> CommunityDetection {
    assert_eq!(
        temporal.granularity, previous.granularity,
        "seed detection is for a different granularity"
    );
    let louvain_cfg = LouvainConfig {
        seed: config.seed,
        threads: config.threads,
        ..Default::default()
    };
    let raw_partition = match config.detector {
        Detector::Louvain if active => {
            louvain_seeded_active(&temporal.csr, &previous.raw_partition, &louvain_cfg)
        }
        Detector::Louvain => louvain_seeded(&temporal.csr, &previous.raw_partition, &louvain_cfg),
        Detector::LabelPropagation => {
            return detect_communities(temporal, directed_trips, old_stations, config);
        }
    };
    let q = modularity_csr_threads(&temporal.csr, &raw_partition, config.threads);
    finish_detection(temporal, directed_trips, old_stations, raw_partition, q)
}

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
    fn active_refresh_is_bit_identical_to_seeded_refresh() {
        let directed = directed();
        for g in TemporalGranularity::ALL {
            let temporal = temporal(g);
            let cfg = DetectConfig::default();
            let cold = detect_communities(&temporal, &directed, &old(), &cfg);
            let whole = refresh_communities(&temporal, &directed, &old(), &cold, &cfg);
            let active = refresh_communities_active(&temporal, &directed, &old(), &cold, &cfg);
            assert_eq!(whole.raw_partition, active.raw_partition, "{g:?}");
            assert_eq!(whole.station_partition, active.station_partition, "{g:?}");
            assert_eq!(whole.modularity.to_bits(), active.modularity.to_bits());
        }
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
        let mut b = moby_graph::CsrBuilder::undirected();
        for (day, w) in [(0u64, 0.1), (1, 0.2), (2, 0.3), (3, 0.6)] {
            b.push(8 + day, 16 + day, w);
        }
        let csr = b.build();
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
            fold_to_stations(&gday, &raw)
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
        let mut b = moby_graph::CsrBuilder::undirected();
        b.push(8, 16, 1.0);
        b.push(9, 25, 1.0);
        let csr = b.build();
        let map = csr
            .node_ids()
            .iter()
            .map(|&id| (id, (id / 8, (id % 8) as u32)))
            .collect();
        let gday = TemporalGraph::from_csr(TemporalGranularity::TDay, csr, Some(map));
        let raw: Partition = [(8u64, 5usize), (16, 5), (9, 2), (25, 2)]
            .into_iter()
            .collect();
        let folded = fold_to_stations(&gday, &raw);
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
