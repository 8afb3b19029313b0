//! Network-expansion planning: where should the operator erect new fixed
//! stations, and how strong is the case for each one?
//!
//! This example mirrors the operator-facing use-case in the paper's
//! introduction: run the candidate-generation + selection steps, rank the
//! proposed stations, and export the selected network as GeoJSON so it can
//! be dropped onto a map.
//!
//! ```text
//! cargo run --release --example network_expansion
//! ```

use moby_expansion::core::candidate::build_candidate_network;
use moby_expansion::core::report::{edge_weight_percentile, network_geojson};
use moby_expansion::core::selection::select_stations;
use moby_expansion::core::ExpansionConfig;
use moby_expansion::data::clean::clean_dataset;
use moby_expansion::data::synth::{generate, SynthConfig};
use std::collections::HashMap;

fn main() {
    let raw = generate(&SynthConfig::small_test());
    let cleaned = clean_dataset(&raw);
    println!(
        "cleaned dataset: {} rentals over {} locations and {} stations",
        cleaned.dataset.rentals.len(),
        cleaned.dataset.locations.len(),
        cleaned.dataset.stations.len()
    );

    let config = ExpansionConfig::default();
    let network =
        build_candidate_network(&cleaned.dataset, &config).expect("candidate network builds");
    println!(
        "candidate graph: {} nodes ({} fixed + {} candidates), {} directed edges",
        network.nodes.len(),
        network.fixed_ids().len(),
        network.candidate_ids().len(),
        network.summary.directed_edges
    );

    let selection = select_stations(&network, &config).expect("selection runs");
    println!(
        "degree threshold (min fixed-station degree): {}",
        selection.degree_threshold
    );
    println!("top 10 proposed stations by connectivity:");
    println!(
        "{:<6} {:>12} {:>8} {:>18}",
        "rank", "candidate id", "degree", "nearest fixed (m)"
    );
    for s in selection.selected.iter().take(10) {
        println!(
            "{:<6} {:>12} {:>8} {:>18.0}",
            s.rank, s.id, s.degree, s.nearest_fixed_m
        );
    }
    let reasons = selection.rejections_by_reason();
    println!("\nrejections by reason: {reasons:?}");

    // Export the candidate graph in the style of Fig. 1 (all nodes, heavy
    // edges only) for inspection in any GeoJSON viewer.
    let positions = network.positions();
    let names: HashMap<_, _> = network
        .nodes
        .iter()
        .map(|n| (n.id, n.name.clone()))
        .collect();
    let fixed_ids = network.fixed_ids();
    let threshold = edge_weight_percentile(&network.undirected, 99.0);
    let geojson = network_geojson(
        &network.undirected,
        &positions,
        &names,
        &|id| fixed_ids.contains(&id),
        None,
        threshold,
    );
    println!(
        "\nGeoJSON export of the candidate graph (top-1% edges): {} bytes",
        geojson.len()
    );
    println!("first 200 chars: {}", &geojson[..geojson.len().min(200)]);
}
