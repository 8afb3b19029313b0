//! Rendering of the paper's tables and figure series.
//!
//! Every artefact in the evaluation section has a typed accessor here:
//!
//! | Paper artefact | Function |
//! |---|---|
//! | Table I   | [`render_table1`] (from `moby_data::stats::DatasetOverview`) |
//! | Table II  | [`render_table2`] |
//! | Table III | [`render_table3`] |
//! | Tables IV–VI | [`render_community_table`] |
//! | Fig. 1 / 2 / 3 / 4 / 6 | [`network_geojson`] (nodes + edges, optional community colouring, optional top-percentile edge filter) |
//! | Fig. 5 | [`daily_profile`] + [`profile_csv`] |
//! | Fig. 7 | [`hourly_profile`] + [`profile_csv`] |

use crate::candidate::AggregateSummary;
use moby_community::stats::CommunityTable;
use moby_community::Partition;
use moby_data::stats::DatasetOverview;
use moby_data::trips::TripTable;
use moby_geo::GeoPoint;
use moby_graph::export::{to_geojson, NodeFeature};
use moby_graph::{CsrGraph, NodeId};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Render Table I (dataset overview).
pub fn render_table1(overview: &DatasetOverview) -> String {
    let mut out = String::from("TABLE I — DATASET OVERVIEW\n");
    out.push_str(&overview.render_table());
    out
}

/// Render Table II (details of the candidate graph generated by HAC).
pub fn render_table2(summary: &AggregateSummary) -> String {
    let mut out = String::from("TABLE II — CANDIDATE GRAPH (HAC)\n");
    let rows = [
        ("#nodes", summary.nodes),
        ("#undirected edges", summary.undirected_edges),
        (
            "#undirected edges (no loops)",
            summary.undirected_edges_no_loops,
        ),
        ("#directed edges", summary.directed_edges),
        (
            "#directed edges (no loops)",
            summary.directed_edges_no_loops,
        ),
        ("#trips", summary.trips),
    ];
    for (label, value) in rows {
        let _ = writeln!(out, "{label:<32} {value:>10}");
    }
    out
}

/// Render Table III (details of the selected graph).
pub fn render_table3(table: &crate::reassign::SelectedGraphTable) -> String {
    let mut out = String::from("TABLE III — SELECTED GRAPH\n");
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "Stations", "Count", "Trips From", "Trips To", "Edges From", "Edges To"
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "Pre-existing",
        table.pre_existing.stations,
        table.pre_existing.trips_from,
        table.pre_existing.trips_to,
        table.pre_existing.edges_from,
        table.pre_existing.edges_to
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "Selected",
        table.selected.stations,
        table.selected.trips_from,
        table.selected.trips_to,
        table.selected.edges_from,
        table.selected.edges_to
    );
    let _ = writeln!(
        out,
        "{:<14} {:>9} {:>12} {:>12} {:>11} {:>11}",
        "Total", table.total_stations, table.total_trips, "", table.total_edges, ""
    );
    out
}

/// Render one of Tables IV–VI (community detail for a temporal granularity).
pub fn render_community_table(name: &str, table: &CommunityTable) -> String {
    let mut out = format!(
        "{name} — {} communities, modularity {:.2}\n",
        table.community_count(),
        table.modularity
    );
    let _ = writeln!(
        out,
        "{:<5} {:>5} {:>5} {:>6} {:>10} {:>9} {:>9} {:>10}",
        "Comm", "Old", "New", "Total", "Within", "Out", "In", "Total"
    );
    for row in &table.rows {
        let _ = writeln!(
            out,
            "{:<5} {:>5} {:>5} {:>6} {:>10} {:>9} {:>9} {:>10}",
            row.community + 1,
            row.old_stations,
            row.new_stations,
            row.total_stations(),
            row.within as u64,
            row.out as u64,
            row.incoming as u64,
            row.total_trips() as u64
        );
    }
    let _ = writeln!(
        out,
        "self-contained share: {:.1}%",
        table.self_contained_share() * 100.0
    );
    out
}

/// Per-community share of trips per weekday (Monday-first), the series
/// behind Fig. 5. Each trip row counts once for its origin station's
/// community. Shares within a community sum to 1 (or 0 when the
/// community has no trips).
pub fn daily_profile(
    trips: &TripTable,
    station_partition: &Partition,
) -> BTreeMap<usize, [f64; 7]> {
    profile_by_key(trips, station_partition, trips.day())
}

/// Per-community share of trips per start hour, the series behind Fig. 7.
pub fn hourly_profile(
    trips: &TripTable,
    station_partition: &Partition,
) -> BTreeMap<usize, [f64; 24]> {
    profile_by_key(trips, station_partition, trips.hour())
}

/// Count the rows of `trips` per origin community and `keys` bucket, then
/// normalise each community's counts to shares.
fn profile_by_key<const N: usize>(
    trips: &TripTable,
    station_partition: &Partition,
    keys: &[u8],
) -> BTreeMap<usize, [f64; N]> {
    let mut counts: BTreeMap<usize, [f64; N]> = BTreeMap::new();
    // Every community gets a row, all-zero when none of its stations
    // originates a trip (the documented contract).
    for (_, community) in station_partition.iter() {
        counts.entry(community).or_insert([0.0; N]);
    }
    let community_of: Vec<Option<usize>> = trips
        .station_ids()
        .iter()
        .map(|&id| station_partition.community_of(id))
        .collect();
    for (&src, &key) in trips.src().iter().zip(keys) {
        if let Some(community) = community_of[src as usize] {
            counts.entry(community).or_insert([0.0; N])[usize::from(key)] += 1.0;
        }
    }
    for v in counts.values_mut() {
        let total: f64 = v.iter().sum();
        if total > 0.0 {
            for x in v.iter_mut() {
                *x /= total;
            }
        }
    }
    counts
}

/// Render a profile map (Fig. 5 / Fig. 7 series) as CSV with one row per
/// community and one column per bucket.
pub fn profile_csv<const N: usize>(
    profile: &BTreeMap<usize, [f64; N]>,
    bucket_labels: &[&str],
) -> String {
    let mut out = String::from("community");
    for label in bucket_labels.iter().take(N) {
        let _ = write!(out, ",{label}");
    }
    out.push('\n');
    for (community, shares) in profile {
        let _ = write!(out, "{}", community + 1);
        for s in shares.iter() {
            let _ = write!(out, ",{s:.4}");
        }
        out.push('\n');
    }
    out
}

/// The minimum weight an edge needs to sit in the top `percentile`
/// (e.g. 99.0 keeps the heaviest 1 % of edges — Fig. 2's rendering rule).
/// Returns 0.0 for an empty graph.
pub fn edge_weight_percentile(graph: &CsrGraph, percentile: f64) -> f64 {
    let mut weights: Vec<f64> = graph.edges().map(|(_, _, w)| w).collect();
    if weights.is_empty() {
        return 0.0;
    }
    weights.sort_by(|a, b| a.partial_cmp(b).expect("finite weights"));
    let p = percentile.clamp(0.0, 100.0) / 100.0;
    let idx = ((weights.len() - 1) as f64 * p).round() as usize;
    weights[idx]
}

/// Render a station network (optionally coloured by community, optionally
/// keeping only edges at or above a weight threshold) as GeoJSON — the data
/// behind Figs. 1–4 and 6.
pub fn network_geojson(
    graph: &CsrGraph,
    positions: &HashMap<NodeId, GeoPoint>,
    names: &HashMap<NodeId, String>,
    fixed: &dyn Fn(NodeId) -> bool,
    partition: Option<&Partition>,
    min_edge_weight: f64,
) -> String {
    let features: HashMap<NodeId, NodeFeature> = positions
        .iter()
        .map(|(&id, &pos)| {
            (
                id,
                NodeFeature {
                    lat: pos.lat(),
                    lon: pos.lon(),
                    name: names.get(&id).cloned().unwrap_or_else(|| id.to_string()),
                    community: partition.and_then(|p| p.community_of(id)),
                    is_fixed: fixed(id),
                },
            )
        })
        .collect();
    to_geojson(graph, &features, min_edge_weight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_data::timeparse::Timestamp;

    fn trips_with_partition() -> (TripTable, Partition) {
        let mut t = TripTable::new(vec![1, 2]);
        // 2020-06-01 is a Monday.
        let mut add = |src: u32, dst: u32, day: u32, hour: u32| {
            t.push(
                src,
                dst,
                Timestamp::from_ymd_hms(2020, 6, 1 + day, hour, 0, 0).unwrap(),
            );
        };
        add(0, 0, 0, 8);
        add(0, 1, 0, 8);
        add(0, 1, 5, 14);
        add(1, 1, 6, 14);
        let p: Partition = [(1u64, 0usize), (2, 1)].into_iter().collect();
        (t, p)
    }

    #[test]
    fn table_renderers_contain_headline_numbers() {
        let summary = AggregateSummary {
            nodes: 1172,
            undirected_edges: 8240,
            undirected_edges_no_loops: 7820,
            directed_edges: 16042,
            directed_edges_no_loops: 15604,
            trips: 61872,
        };
        let t2 = render_table2(&summary);
        assert!(t2.contains("1172"));
        assert!(t2.contains("61872"));
        assert!(t2.contains("#directed edges"));

        let t3 = render_table3(&crate::reassign::SelectedGraphTable {
            pre_existing: crate::reassign::GroupRow {
                stations: 92,
                trips_from: 54670,
                trips_to: 54727,
                edges_from: 6437,
                edges_to: 6310,
            },
            selected: crate::reassign::GroupRow {
                stations: 146,
                trips_from: 7202,
                trips_to: 7145,
                edges_from: 2072,
                edges_to: 2199,
            },
            total_stations: 238,
            total_trips: 61872,
            total_edges: 8509,
        });
        assert!(t3.contains("238"));
        assert!(t3.contains("Pre-existing"));
        assert!(t3.contains("54670"));
    }

    #[test]
    fn community_table_renderer() {
        use moby_community::stats::CommunityRow;
        let table = CommunityTable {
            rows: vec![CommunityRow {
                community: 0,
                old_stations: 40,
                new_stations: 18,
                within: 12012.0,
                out: 5238.0,
                incoming: 5255.0,
            }],
            modularity: 0.25,
        };
        let text = render_community_table("GBasic", &table);
        assert!(text.contains("GBasic"));
        assert!(text.contains("0.25"));
        assert!(text.contains("12012"));
        assert!(text.contains("self-contained share"));
    }

    #[test]
    fn daily_profile_shares_sum_to_one() {
        let (t, p) = trips_with_partition();
        let prof = daily_profile(&t, &p);
        assert_eq!(prof.len(), 2);
        for shares in prof.values() {
            let total: f64 = shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
        }
        // Community 0 (station 1 as origin): trips on Monday (2) and Saturday (1).
        assert!((prof[&0][0] - 2.0 / 3.0).abs() < 1e-9);
        assert!((prof[&0][5] - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn hourly_profile_buckets() {
        let (t, p) = trips_with_partition();
        let prof = hourly_profile(&t, &p);
        assert!((prof[&0][8] - 2.0 / 3.0).abs() < 1e-9);
        assert!((prof[&0][14] - 1.0 / 3.0).abs() < 1e-9);
        assert!((prof[&1][14] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn profile_csv_layout() {
        let (t, p) = trips_with_partition();
        let prof = daily_profile(&t, &p);
        let labels = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"];
        let csv = profile_csv(&prof, &labels);
        let lines: Vec<&str> = csv.trim().lines().collect();
        assert_eq!(lines[0], "community,Mon,Tue,Wed,Thu,Fri,Sat,Sun");
        assert_eq!(lines.len(), 3);
        assert!(lines[1].starts_with('1'));
    }

    #[test]
    fn percentile_threshold() {
        let mut g = moby_graph::WeightedGraph::new_undirected();
        for (i, w) in (1..=100).enumerate() {
            g.add_edge(2 * i as u64, 2 * i as u64 + 1, w as f64);
        }
        let p99 = edge_weight_percentile(&g.freeze(), 99.0);
        assert!(p99 >= 99.0);
        let p0 = edge_weight_percentile(&g.freeze(), 0.0);
        assert_eq!(p0, 1.0);
        assert_eq!(
            edge_weight_percentile(&moby_graph::WeightedGraph::new_undirected().freeze(), 99.0),
            0.0
        );
    }

    #[test]
    fn geojson_figure_export() {
        let mut builder = moby_graph::WeightedGraph::new_undirected();
        builder.add_edge(1, 2, 5.0);
        let g = builder.freeze();
        let positions: HashMap<NodeId, GeoPoint> = [
            (1u64, GeoPoint::new(53.35, -6.26).unwrap()),
            (2, GeoPoint::new(53.34, -6.25).unwrap()),
        ]
        .into_iter()
        .collect();
        let names: HashMap<NodeId, String> = [(1u64, "A".to_string())].into_iter().collect();
        let partition: Partition = [(1u64, 0usize), (2, 1)].into_iter().collect();
        let gj = network_geojson(&g, &positions, &names, &|id| id == 1, Some(&partition), 0.0);
        assert!(gj.contains("FeatureCollection"));
        assert!(gj.contains("\"community\":0"));
        assert!(gj.contains("\"fixed\":true"));
        assert!(gj.contains("LineString"));
    }
}
