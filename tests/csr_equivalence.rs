//! Acceptance checks for the frozen-CSR refactors: on the synthetic
//! Dublin dataset, the frozen-CSR community path must reproduce the legacy
//! `WeightedGraph` (hash-map) path — Louvain partitions exactly,
//! modularity within float-accumulation tolerance — at every temporal
//! granularity; the parallel execution layer must reproduce the serial
//! CSR results bit-for-bit at every tested thread count; and the columnar
//! sort-merge construction path must produce graphs — and therefore
//! partitions — **bitwise identical** to the hash-map reference build fed
//! from the same trip table.

use moby_expansion::community::{
    louvain_csr, louvain_hashmap, modularity_csr, modularity_csr_threads, modularity_hashmap,
    LouvainConfig,
};
use moby_expansion::core::detect::{detect_communities, DetectConfig};
use moby_expansion::core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_expansion::core::temporal::{
    build_all_from_trips, reference_graph, TemporalGranularity, TemporalGraph,
};
use moby_expansion::data::synth::{generate, SynthConfig};
use moby_expansion::graph::metrics::{pagerank_csr, PageRankConfig};

#[test]
fn csr_louvain_matches_hashmap_louvain_on_synthetic_dataset() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    let cfg = LouvainConfig::default();
    for granularity in TemporalGranularity::ALL {
        let (builder, _) = reference_graph(&outcome.selected.trips, granularity, false);
        let csr = builder.freeze();

        let p_csr = louvain_csr(&csr, &cfg);
        let p_hash = louvain_hashmap(&builder, &cfg);
        assert_eq!(
            p_csr,
            p_hash,
            "Louvain partitions diverged on {}",
            granularity.graph_name()
        );

        let q_csr = modularity_csr(&csr, &p_csr);
        let q_hash = modularity_hashmap(&builder, &p_hash);
        assert!(
            (q_csr - q_hash).abs() < 1e-9,
            "{}: csr Q {q_csr} vs hashmap Q {q_hash}",
            granularity.graph_name()
        );
    }
}

#[test]
fn parallel_execution_matches_serial_on_synthetic_dataset() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    for temporal in build_all_from_trips(&outcome.selected.trips, None, None) {
        let name = temporal.granularity.graph_name();

        let serial_louvain = louvain_csr(
            &temporal.csr,
            &LouvainConfig {
                threads: Some(1),
                ..Default::default()
            },
        );
        let serial_q = modularity_csr_threads(&temporal.csr, &serial_louvain, Some(1));
        for t in [2usize, 4] {
            let parallel_louvain = louvain_csr(
                &temporal.csr,
                &LouvainConfig {
                    threads: Some(t),
                    ..Default::default()
                },
            );
            assert_eq!(
                serial_louvain, parallel_louvain,
                "{name}: Louvain diverged at {t} threads"
            );
            let parallel_q = modularity_csr_threads(&temporal.csr, &parallel_louvain, Some(t));
            assert_eq!(
                serial_q.to_bits(),
                parallel_q.to_bits(),
                "{name}: modularity diverged at {t} threads ({serial_q} vs {parallel_q})"
            );
        }
    }

    // PageRank over the directed trip graph, the paper's station-prominence
    // descriptor. The pipeline's directed graph is already frozen.
    let directed = &outcome.selected.directed;
    let serial_pr = pagerank_csr(
        directed,
        &PageRankConfig {
            threads: Some(1),
            ..Default::default()
        },
    );
    for t in [2usize, 4] {
        let parallel_pr = pagerank_csr(
            directed,
            &PageRankConfig {
                threads: Some(t),
                ..Default::default()
            },
        );
        assert_eq!(parallel_pr.len(), serial_pr.len());
        for (id, r) in &serial_pr {
            assert_eq!(
                parallel_pr[id].to_bits(),
                r.to_bits(),
                "PageRank of station {id} diverged at {t} threads"
            );
        }
    }
}

/// The columnar sort-merge construction — trip table → edge lists for all
/// three granularities → `build_dense_csr` — must produce graphs identical to
/// the hash-map reference (one `add_edge` per trip row, then freeze), and
/// identical detections on top of them.
#[test]
fn columnar_construction_matches_table_fed_reference() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");
    let selected = &outcome.selected;

    // The frozen directed/undirected trip graphs the pipeline built
    // columnar must equal the reference builds over the same table.
    let reference_directed = reference_graph(&selected.trips, TemporalGranularity::TNull, true)
        .0
        .freeze();
    let reference_undirected = reference_graph(&selected.trips, TemporalGranularity::TNull, false)
        .0
        .freeze();
    assert_eq!(selected.directed, reference_directed, "directed trip graph");
    assert_eq!(
        selected.undirected, reference_undirected,
        "undirected trip graph"
    );

    // Each granularity's frozen graph — and the detection on it — must be
    // bitwise identical between the two construction paths.
    let old_ids = selected.fixed_ids();
    let columnar = build_all_from_trips(&selected.trips, Some(&selected.undirected), None);
    let stored = [
        &outcome.communities.basic,
        &outcome.communities.day,
        &outcome.communities.hour,
    ];
    for (temporal, stored_detection) in columnar.iter().zip(stored) {
        let granularity = temporal.granularity;
        let (builder, layer_map) = reference_graph(&selected.trips, granularity, false);
        let reference = TemporalGraph::from_csr(granularity, builder.freeze(), layer_map);
        assert_eq!(
            temporal.csr, reference.csr,
            "{granularity:?}: columnar CSR diverged from the reference"
        );
        assert_eq!(
            temporal.layer_map, reference.layer_map,
            "{granularity:?} map"
        );

        let reference_detection = detect_communities(
            &reference,
            &reference_directed,
            &old_ids,
            &DetectConfig::default(),
        );
        assert_eq!(
            stored_detection.station_partition, reference_detection.station_partition,
            "{granularity:?}: partitions diverged between construction paths"
        );
        assert_eq!(
            stored_detection.modularity.to_bits(),
            reference_detection.modularity.to_bits(),
            "{granularity:?}: modularity diverged between construction paths"
        );
    }
}

#[test]
fn frozen_graph_agrees_with_trip_table_on_the_selected_network() {
    let raw = generate(&SynthConfig::small_test());
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");
    let selected = &outcome.selected;

    // The trip table conserves every rental and the frozen graphs carry
    // exactly its weight.
    assert_eq!(selected.trips.len(), outcome.dataset.rentals.len());
    let total: f64 = selected.trips.weights().iter().sum();
    assert_eq!(selected.directed.total_weight(), total);
    assert_eq!(selected.undirected.total_weight(), total);
    assert_eq!(
        selected.directed.node_count(),
        selected.trips.station_count()
    );
    // Every trip endpoint is a station of the frozen graphs.
    for (src, dst, w) in selected.trips.station_edges() {
        assert!(selected.directed.contains(src));
        assert!(selected.directed.contains(dst));
        assert!(w > 0.0);
    }
}
