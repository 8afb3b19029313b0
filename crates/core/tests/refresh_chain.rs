//! A window chain's seeded refreshes against what slower paths compute
//! from each refreshed partition: the modularity the refresh reports is
//! the bits `modularity_csr_threads` gives for its raw partition, its
//! station partition is the fold the layer map gives, and the pass gate
//! lets a refresh whose first pass paid off go on past it.

use moby_community::{louvain_seeded, modularity_csr_threads, LouvainConfig, Partition};
use moby_core::detect::{CommunityDetection, DetectConfig};
use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_core::temporal::TemporalGraph;
use moby_data::synth::{generate, SynthConfig};
use moby_data::trips::{TripBatch, TripTable, WindowStart};
use moby_graph::NodeId;
use std::collections::BTreeMap;

/// Window steps in the chain: a day of one-hour slides.
const STEPS: usize = 24;

/// The batch of step `k` (1-based): the rows of weekly slot `k - 1`,
/// which that step evicts, replayed in the week's last slot, so the table
/// keeps its size.
fn replay(trips: &TripTable, k: usize) -> TripBatch {
    let mut batch = TripBatch::new();
    for r in 0..trips.len() {
        if usize::from(trips.day()[r]) * 24 + usize::from(trips.hour()[r]) == k - 1 {
            batch.push_keyed(
                trips.station_id(trips.src()[r]),
                trips.station_id(trips.dst()[r]),
                6,
                23,
                trips.weights()[r],
            );
        }
    }
    batch
}

/// The station fold read off the layer map: every layer node, in
/// ascending layered id, adds its strength to its `(station, community)`
/// sum, and each station takes its heaviest community, the smaller label
/// of equals. A graph without layers folds to its raw partition.
fn layer_map_fold(temporal: &TemporalGraph, raw: &Partition) -> Partition {
    let Some(map) = &temporal.layer_map else {
        return raw.clone();
    };
    let csr = &temporal.csr;
    let mut nodes: Vec<(NodeId, usize)> = csr
        .node_ids()
        .iter()
        .enumerate()
        .map(|(u, &id)| (id, u))
        .collect();
    nodes.sort_unstable();
    let mut sums: BTreeMap<(NodeId, usize), f64> = BTreeMap::new();
    for (id, u) in nodes {
        let station = map[&id].0;
        let community = raw.community_of(id).expect("every node is assigned");
        *sums.entry((station, community)).or_insert(0.0) += csr.strength(u).max(1e-9);
    }
    let mut winners: BTreeMap<NodeId, (usize, f64)> = BTreeMap::new();
    for ((station, community), sum) in sums {
        let best = winners.entry(station).or_insert((community, sum));
        if sum > best.1 {
            *best = (community, sum);
        }
    }
    winners
        .into_iter()
        .map(|(station, (community, _))| (station, community))
        .collect::<Partition>()
        .renumbered()
}

/// One detection against its graph: its modularity bits and its station
/// partition.
fn check(temporal: &TemporalGraph, det: &CommunityDetection, threads: usize, at: &str) {
    let name = temporal.granularity.graph_name();
    let q = modularity_csr_threads(&temporal.csr, &det.raw_partition, Some(threads));
    assert_eq!(
        det.modularity.to_bits(),
        q.to_bits(),
        "{at} {name}: modularity bits"
    );
    assert_eq!(
        det.station_partition,
        layer_map_fold(temporal, &det.raw_partition),
        "{at} {name}: station fold"
    );
}

#[test]
fn window_refreshes_hand_over_their_score_and_station_fold() {
    let raw = generate(&SynthConfig::small_test());
    for threads in [1usize, 2, 4] {
        let config = PipelineConfig {
            detect: DetectConfig {
                threads: Some(threads),
                ..DetectConfig::default()
            },
            ..PipelineConfig::default()
        };
        let mut live = ExpansionPipeline::new(config).run_windowed(&raw).unwrap();
        for (temporal, det) in live.temporals().iter().zip(live.outcome.communities.all()) {
            check(temporal, det, threads, "cold");
        }
        let first_pass = LouvainConfig {
            threads: Some(threads),
            max_passes: 1,
            ..LouvainConfig::default()
        };
        // Refreshes whose result differs from their own first pass's.
        let mut went_on = 0;
        for k in 1..=STEPS {
            let previous = live.outcome.communities.clone();
            let batch = replay(&live.outcome.selected.trips, k);
            let window = WindowStart::new((k / 24) as u8, (k % 24) as u8);
            live.advance(&batch, window).unwrap();
            let refreshed = live.outcome.communities.all();
            for ((temporal, det), seed) in
                live.temporals().iter().zip(refreshed).zip(previous.all())
            {
                check(temporal, det, threads, &format!("step {k}"));
                let one = louvain_seeded(&temporal.csr, &seed.raw_partition, &first_pass);
                went_on += usize::from(det.raw_partition != one);
            }
        }
        // The gate starts from the seed's score, so a first pass that
        // gains lets the refresh aggregate and go on. A gate that started
        // from the first pass's own result would stop every refresh there.
        assert!(
            went_on > 0,
            "{threads} threads: no refresh went past its first pass"
        );
    }
}
