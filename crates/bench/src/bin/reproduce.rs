//! Experiment-reproduction harness.
//!
//! Regenerates every table and figure of the paper's evaluation section from
//! the synthetic dataset, plus the ablation studies listed in DESIGN.md.
//!
//! ```text
//! cargo run --release -p moby-bench --bin reproduce -- [--scale small|medium|paper] [targets...]
//! ```
//!
//! Targets: `table1 table2 table3 table4 table5 table6 fig1 fig2 fig3 fig4
//! fig5 fig6 fig7 ablate-linkage ablate-boundary ablate-secondary
//! ablate-detector all` (default `all`). Figure artefacts (GeoJSON / CSV)
//! are written to `reproduction/`.

use moby_bench::{dataset, run_pipeline, Scale};
use moby_cluster::linkage::Linkage;
use moby_community::Partition;
use moby_core::candidate::build_candidate_network;
use moby_core::detect::{detect_communities, DetectConfig, Detector};
use moby_core::pipeline::{ExpansionOutcome, ExpansionPipeline, PipelineConfig};
use moby_core::report::{
    daily_profile, edge_weight_percentile, hourly_profile, network_geojson, profile_csv,
    render_community_table, render_table1, render_table2, render_table3,
};
use moby_core::selection::select_stations;
use moby_core::temporal::build_all_from_trips;
use moby_core::validate::validate_default;
use moby_core::ExpansionConfig;
use moby_data::clean::clean_dataset;
use moby_data::timeparse::Weekday;
use std::collections::HashMap;
use std::fs;
use std::path::Path;
use std::time::Instant;

const OUTPUT_DIR: &str = "reproduction";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Paper;
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--scale" {
            if let Some(s) = args.get(i + 1).and_then(|s| Scale::parse(s)) {
                scale = s;
            } else {
                eprintln!("unknown scale; expected small|medium|paper");
                std::process::exit(2);
            }
            i += 2;
        } else {
            targets.push(args[i].to_ascii_lowercase());
            i += 1;
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        // Keep any explicitly requested ablations alongside the default set.
        let mut expanded: Vec<String> = vec![
            "table1", "table2", "table3", "table4", "table5", "table6", "fig1", "fig2", "fig3",
            "fig4", "fig5", "fig6", "fig7", "validate", "baseline",
        ]
        .into_iter()
        .map(String::from)
        .collect();
        expanded.extend(targets.iter().filter(|t| t.starts_with("ablate-")).cloned());
        targets = expanded;
    }

    println!("== moby-expansion reproduction harness ==");
    println!("scale: {}", scale.name());
    let started = Instant::now();
    println!("running expansion pipeline ...");
    let outcome = run_pipeline(scale);
    println!(
        "pipeline finished in {:.1?} ({} stations -> {} stations, {} trips)\n",
        started.elapsed(),
        outcome.dataset.stations.len(),
        outcome.total_station_count(),
        outcome.dataset.rentals.len()
    );
    fs::create_dir_all(OUTPUT_DIR).ok();

    let ablations: Vec<&str> = targets
        .iter()
        .filter(|t| t.starts_with("ablate-"))
        .map(|s| s.as_str())
        .collect();

    for target in &targets {
        match target.as_str() {
            "table1" => println!("{}", render_table1(&outcome.overview)),
            "table2" => println!("{}", render_table2(&outcome.candidate.summary)),
            "table3" => println!("{}", render_table3(&outcome.selected.table)),
            "table4" => println!(
                "{}",
                render_community_table("TABLE IV — GBasic", &outcome.communities.basic.table)
            ),
            "table5" => println!(
                "{}",
                render_community_table("TABLE V — GDay", &outcome.communities.day.table)
            ),
            "table6" => println!(
                "{}",
                render_community_table("TABLE VI — GHour", &outcome.communities.hour.table)
            ),
            "fig1" => figure_candidate_graph(&outcome),
            "fig2" => figure_selected_graph(&outcome),
            "fig3" => figure_community_map(&outcome, "fig3_gbasic_communities", None),
            "fig4" => figure_community_map(&outcome, "fig4_gday_communities", Some("day")),
            "fig5" => figure_daily_profile(&outcome),
            "fig6" => figure_community_map(&outcome, "fig6_ghour_communities", Some("hour")),
            "fig7" => figure_hourly_profile(&outcome),
            "validate" => {
                let v = validate_default(&outcome);
                println!("VALIDATION\n{v:#?}\npasses: {}\n", v.passes());
            }
            "baseline" => match moby_core::baseline::compare_with_baseline(&outcome) {
                Some(cmp) => println!("{}", cmp.render()),
                None => eprintln!("baseline comparison unavailable (degenerate outcome)"),
            },
            t if t.starts_with("ablate-") => { /* handled below */ }
            other => eprintln!("unknown target '{other}' (skipped)"),
        }
    }

    for ablation in ablations {
        match ablation {
            "ablate-linkage" => ablate_linkage(scale),
            "ablate-boundary" => ablate_boundary(scale),
            "ablate-secondary" => ablate_secondary(scale),
            "ablate-detector" => ablate_detector(&outcome),
            other => eprintln!("unknown ablation '{other}' (skipped)"),
        }
    }

    println!(
        "done in {:.1?}; figure artefacts in ./{OUTPUT_DIR}/",
        started.elapsed()
    );
}

fn write_artifact(name: &str, content: &str) {
    let path = Path::new(OUTPUT_DIR).join(name);
    match fs::write(&path, content) {
        Ok(()) => println!("  wrote {} ({} bytes)\n", path.display(), content.len()),
        Err(e) => eprintln!("  failed to write {}: {e}", path.display()),
    }
}

/// Fig. 1 — the candidate graph generated by HAC (all nodes, all edges).
fn figure_candidate_graph(outcome: &ExpansionOutcome) {
    println!("FIGURE 1 — candidate graph (HAC), GeoJSON export");
    let positions = outcome.candidate.positions();
    let names: HashMap<_, _> = outcome
        .candidate
        .nodes
        .iter()
        .map(|n| (n.id, n.name.clone()))
        .collect();
    let fixed: std::collections::HashSet<_> = outcome.candidate.fixed_ids().into_iter().collect();
    let geojson = network_geojson(
        &outcome.candidate.undirected,
        &positions,
        &names,
        &|id| fixed.contains(&id),
        None,
        0.0,
    );
    println!(
        "  {} nodes, {} undirected edges",
        outcome.candidate.summary.nodes, outcome.candidate.summary.undirected_edges
    );
    write_artifact("fig1_candidate_graph.geojson", &geojson);
}

/// Fig. 2 — the selected graph; only the top-1% heaviest edges are drawn.
fn figure_selected_graph(outcome: &ExpansionOutcome) {
    println!("FIGURE 2 — selected graph (top 1% of edge weights), GeoJSON export");
    let positions = outcome.selected.positions();
    let names: HashMap<_, _> = outcome
        .selected
        .stations
        .iter()
        .map(|s| (s.id, s.name.clone()))
        .collect();
    let fixed = outcome.selected.fixed_ids();
    let threshold = edge_weight_percentile(&outcome.selected.undirected, 99.0);
    println!("  edge-weight threshold at the 99th percentile: {threshold}");
    let geojson = network_geojson(
        &outcome.selected.undirected,
        &positions,
        &names,
        &|id| fixed.contains(&id),
        None,
        threshold,
    );
    write_artifact("fig2_selected_graph.geojson", &geojson);
}

/// Figs. 3 / 4 / 6 — station maps coloured by community assignment.
fn figure_community_map(outcome: &ExpansionOutcome, name: &str, granularity: Option<&str>) {
    let (label, partition): (&str, &Partition) = match granularity {
        None => ("GBasic", &outcome.communities.basic.station_partition),
        Some("day") => ("GDay", &outcome.communities.day.station_partition),
        _ => ("GHour", &outcome.communities.hour.station_partition),
    };
    println!("FIGURE ({name}) — station map coloured by {label} community");
    let positions = outcome.selected.positions();
    let names: HashMap<_, _> = outcome
        .selected
        .stations
        .iter()
        .map(|s| (s.id, s.name.clone()))
        .collect();
    let fixed = outcome.selected.fixed_ids();
    let geojson = network_geojson(
        &outcome.selected.undirected,
        &positions,
        &names,
        &|id| fixed.contains(&id),
        Some(partition),
        f64::INFINITY, // nodes only: community colouring is the point
    );
    write_artifact(&format!("{name}.geojson"), &geojson);
}

/// Fig. 5 — daily travel patterns per GDay community.
fn figure_daily_profile(outcome: &ExpansionOutcome) {
    println!("FIGURE 5 — daily travel pattern per GDay community");
    let profile = daily_profile(
        &outcome.selected.trips,
        &outcome.communities.day.station_partition,
    );
    let labels: Vec<&str> = Weekday::ALL.iter().map(|d| d.abbrev()).collect();
    let csv = profile_csv(&profile, &labels);
    println!("{csv}");
    write_artifact("fig5_daily_profile.csv", &csv);
}

/// Fig. 7 — hourly travel patterns per GHour community.
fn figure_hourly_profile(outcome: &ExpansionOutcome) {
    println!("FIGURE 7 — hourly travel pattern per GHour community");
    let profile = hourly_profile(
        &outcome.selected.trips,
        &outcome.communities.hour.station_partition,
    );
    let labels: Vec<String> = (0..24).map(|h| format!("{h:02}")).collect();
    let label_refs: Vec<&str> = labels.iter().map(|s| s.as_str()).collect();
    let csv = profile_csv(&profile, &label_refs);
    println!("{csv}");
    write_artifact("fig7_hourly_profile.csv", &csv);
}

/// Ablation A1: linkage criterion.
fn ablate_linkage(scale: Scale) {
    println!("ABLATION A1 — HAC linkage criterion");
    println!(
        "{:<10} {:>12} {:>12} {:>14}",
        "linkage", "#candidates", "#selected", "mean diameter"
    );
    let raw = dataset(scale);
    let cleaned = clean_dataset(&raw).dataset;
    for linkage in [Linkage::Complete, Linkage::Average, Linkage::Single] {
        let cfg = ExpansionConfig {
            linkage,
            ..ExpansionConfig::default()
        };
        let network = build_candidate_network(&cleaned, &cfg).expect("network builds");
        let selection = select_stations(&network, &cfg).expect("selection runs");
        let diameters: Vec<f64> = network
            .nodes
            .iter()
            .filter_map(|n| match n.kind {
                moby_core::candidate::NodeKind::Candidate { diameter_m, .. } => Some(diameter_m),
                _ => None,
            })
            .collect();
        let mean_diameter = if diameters.is_empty() {
            0.0
        } else {
            diameters.iter().sum::<f64>() / diameters.len() as f64
        };
        println!(
            "{:<10} {:>12} {:>12} {:>14.1}",
            linkage.name(),
            network.candidate_ids().len(),
            selection.selected.len(),
            mean_diameter
        );
    }
    println!();
}

/// Ablation A2: cluster-boundary threshold sweep.
fn ablate_boundary(scale: Scale) {
    println!("ABLATION A2 — cluster-boundary threshold (Rule 1)");
    println!(
        "{:<12} {:>12} {:>12}",
        "boundary (m)", "#candidates", "#selected"
    );
    let raw = dataset(scale);
    let cleaned = clean_dataset(&raw).dataset;
    for boundary in [50.0, 100.0, 150.0, 200.0] {
        let cfg = ExpansionConfig {
            cluster_boundary_m: boundary,
            ..ExpansionConfig::default()
        };
        let network = build_candidate_network(&cleaned, &cfg).expect("network builds");
        let selection = select_stations(&network, &cfg).expect("selection runs");
        println!(
            "{:<12} {:>12} {:>12}",
            boundary,
            network.candidate_ids().len(),
            selection.selected.len()
        );
    }
    println!();
}

/// Ablation A3: secondary-distance sweep.
fn ablate_secondary(scale: Scale) {
    println!("ABLATION A3 — secondary distance (Rule 4)");
    println!("{:<14} {:>12}", "distance (m)", "#selected");
    let raw = dataset(scale);
    for distance in [150.0, 250.0, 400.0] {
        let cfg = PipelineConfig {
            expansion: ExpansionConfig {
                secondary_distance_m: distance,
                ..ExpansionConfig::default()
            },
            detect: DetectConfig::default(),
            build_shards: None,
            ..PipelineConfig::default()
        };
        let outcome = ExpansionPipeline::new(cfg)
            .run(&raw)
            .expect("pipeline runs");
        println!("{:<14} {:>12}", distance, outcome.new_station_count());
    }
    println!();
}

/// Ablation A4: community detector (the paper's stated future work).
fn ablate_detector(outcome: &ExpansionOutcome) {
    println!("ABLATION A4 — community detector (Louvain vs label propagation)");
    println!(
        "{:<10} {:<18} {:>12} {:>12} {:>16}",
        "graph", "detector", "#communities", "modularity", "self-contained"
    );
    let old_ids = outcome.selected.fixed_ids();
    // The pipeline froze the directed trip graph once; both detectors and
    // all granularities share it.
    let directed_trips = &outcome.selected.directed;
    for temporal in build_all_from_trips(&outcome.selected.trips, None, None) {
        for (name, detector) in [
            ("louvain", Detector::Louvain),
            ("label-propagation", Detector::LabelPropagation),
        ] {
            let detection = detect_communities(
                &temporal,
                directed_trips,
                &old_ids,
                &DetectConfig {
                    detector,
                    seed: Some(1),
                    ..Default::default()
                },
            );
            println!(
                "{:<10} {:<18} {:>12} {:>12.3} {:>15.1}%",
                temporal.granularity.graph_name(),
                name,
                detection.community_count(),
                detection.modularity,
                detection.table.self_contained_share() * 100.0
            );
        }
    }
    println!();
}
