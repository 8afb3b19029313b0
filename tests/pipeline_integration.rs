//! End-to-end integration tests spanning every crate in the workspace:
//! synthetic data -> CSV round trip -> cleaning -> candidate graph ->
//! selection -> reassignment -> temporal graphs -> community detection ->
//! reports.

use moby_expansion::core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_expansion::core::report;
use moby_expansion::core::validate::{gbasic_is_consistent, validate_default};
use moby_expansion::core::ExpansionConfig;
use moby_expansion::data::clean::clean_dataset;
use moby_expansion::data::csvio;
use moby_expansion::data::schema::RawDataset;
use moby_expansion::data::synth::{generate, SynthConfig};
use moby_expansion::geo::haversine_m;
use std::collections::HashSet;

fn small_raw() -> RawDataset {
    generate(&SynthConfig::small_test())
}

#[test]
fn csv_round_trip_preserves_the_dataset() {
    let raw = small_raw();
    let stations_csv = csvio::write_stations(&raw.stations);
    let locations_csv = csvio::write_locations(&raw.locations);
    let rentals_csv = csvio::write_rentals(&raw.rentals);

    let reparsed = RawDataset {
        stations: csvio::read_stations(&stations_csv).expect("stations parse"),
        locations: csvio::read_locations(&locations_csv).expect("locations parse"),
        rentals: csvio::read_rentals(&rentals_csv).expect("rentals parse"),
    };
    assert_eq!(reparsed.stations.len(), raw.stations.len());
    assert_eq!(reparsed.locations.len(), raw.locations.len());
    assert_eq!(reparsed.rentals, raw.rentals);

    // The cleaned dataset derived from the round-tripped CSV matches the one
    // derived from the in-memory dataset.
    let a = clean_dataset(&raw);
    let b = clean_dataset(&reparsed);
    assert_eq!(a.report.rentals_after, b.report.rentals_after);
    assert_eq!(a.report.locations_after, b.report.locations_after);
}

#[test]
fn full_pipeline_reproduces_paper_shape_on_small_data() {
    let raw = small_raw();
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    // Table I shape: cleaning removes some rows but not most of them.
    assert!(outcome.overview.rentals.1 < outcome.overview.rentals.0);
    assert!(outcome.overview.rentals.1 as f64 > outcome.overview.rentals.0 as f64 * 0.9);

    // Table II shape: candidate nodes vastly outnumber fixed stations and
    // directed edges exceed undirected edges.
    let s = &outcome.candidate.summary;
    assert!(s.nodes > outcome.dataset.stations.len() * 2);
    assert!(s.directed_edges >= s.undirected_edges);

    // Table III shape: new stations exist but carry a minority of trips.
    let t = &outcome.selected.table;
    assert!(t.selected.stations > 0);
    assert!(t.pre_existing.trips_from > t.selected.trips_from);
    assert_eq!(
        t.pre_existing.trips_from + t.selected.trips_from,
        t.total_trips
    );

    // Tables IV–VI shape: multiple communities, positive modularity, and a
    // majority of trips self-contained at the basic granularity.
    assert!(outcome.communities.basic.community_count() >= 2);
    assert!(outcome.communities.basic.modularity > 0.0);
    assert!(outcome.communities.basic.table.self_contained_share() > 0.5);
    assert!(outcome.communities.hour.modularity > outcome.communities.basic.modularity);

    // Validation layer agrees.
    assert!(gbasic_is_consistent(&outcome));
    assert!(validate_default(&outcome).passes());
}

#[test]
fn selected_stations_respect_spatial_rules_end_to_end() {
    let raw = small_raw();
    let cfg = PipelineConfig::default();
    let outcome = ExpansionPipeline::new(cfg.clone())
        .run(&raw)
        .expect("pipeline runs");
    let fixed_positions: Vec<_> = outcome
        .selected
        .stations
        .iter()
        .filter(|s| s.is_fixed)
        .map(|s| s.position)
        .collect();
    for new_station in outcome.selected.stations.iter().filter(|s| !s.is_fixed) {
        for fp in &fixed_positions {
            assert!(
                haversine_m(new_station.position, *fp) > cfg.expansion.secondary_distance_m,
                "new station {} violates the secondary distance",
                new_station.id
            );
        }
    }
}

#[test]
fn every_trip_endpoint_maps_to_a_station_of_the_final_network() {
    let raw = small_raw();
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");
    let station_ids: HashSet<u64> = outcome.selected.stations.iter().map(|s| s.id).collect();
    for (src, dst, w) in outcome.selected.directed.edges() {
        assert!(station_ids.contains(&src));
        assert!(station_ids.contains(&dst));
        assert!(w > 0.0);
    }
}

#[test]
fn reports_render_for_a_real_outcome() {
    let raw = small_raw();
    let outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs");

    let t1 = report::render_table1(&outcome.overview);
    let t2 = report::render_table2(&outcome.candidate.summary);
    let t3 = report::render_table3(&outcome.selected.table);
    let t4 = report::render_community_table("GBasic", &outcome.communities.basic.table);
    for text in [&t1, &t2, &t3, &t4] {
        assert!(text.lines().count() >= 3, "report too short: {text}");
    }

    // Figure exports.
    let positions = outcome.selected.positions();
    let names = outcome
        .selected
        .stations
        .iter()
        .map(|s| (s.id, s.name.clone()))
        .collect();
    let fixed = outcome.selected.fixed_ids();
    let threshold = report::edge_weight_percentile(&outcome.selected.undirected, 99.0);
    let geojson = report::network_geojson(
        &outcome.selected.undirected,
        &positions,
        &names,
        &|id| fixed.contains(&id),
        Some(&outcome.communities.basic.station_partition),
        threshold,
    );
    assert!(geojson.contains("FeatureCollection"));
    assert!(geojson.contains("\"community\":"));

    let daily = report::daily_profile(
        &outcome.selected.trips,
        &outcome.communities.day.station_partition,
    );
    assert_eq!(daily.len(), outcome.communities.day.community_count());
    let hourly = report::hourly_profile(
        &outcome.selected.trips,
        &outcome.communities.hour.station_partition,
    );
    assert!(!hourly.is_empty());
}

#[test]
fn stricter_thresholds_select_fewer_stations() {
    let raw = small_raw();
    let mut strict_cfg = PipelineConfig::default();
    strict_cfg.expansion = ExpansionConfig {
        secondary_distance_m: 500.0,
        ..ExpansionConfig::default()
    };
    let default_outcome = ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("default run");
    let strict_outcome = ExpansionPipeline::new(strict_cfg)
        .run(&raw)
        .expect("strict run");
    assert!(strict_outcome.new_station_count() <= default_outcome.new_station_count());
}

#[test]
fn facade_reexports_are_usable() {
    // Spot-check that the facade exposes each substrate.
    let p = moby_expansion::geo::GeoPoint::new(53.35, -6.26).unwrap();
    assert!(moby_expansion::geo::BoundingBox::dublin().contains(p));
    let mut g = moby_expansion::graph::WeightedGraph::new_undirected();
    g.add_edge(1, 2, 1.0);
    assert_eq!(g.node_count(), 2);
    assert!(!moby_expansion::VERSION.is_empty());
}
