//! Step 1 — graph construction (§IV-A).
//!
//! Raw dockless rental/return locations are condensed into **candidate
//! stations** by constrained hierarchical clustering: pre-existing fixed
//! stations are immovable centroids that absorb everything within 50 m,
//! the remaining locations are clustered with complete linkage and a 100 m
//! boundary, and each resulting cluster becomes a candidate node placed at
//! its centroid. Every trip is then re-expressed as an edge between
//! candidate nodes, giving the *candidate graph* of Table II / Fig. 1.

use crate::{CoreError, ExpansionConfig, Result};
use moby_cluster::constrained::{constrained_clustering, ConstrainedConfig};
use moby_data::schema::{CleanDataset, LocationId, StationId};
use moby_data::trips::TripTable;
use moby_geo::GeoPoint;
use moby_graph::{build_dense_csr, CsrGraph, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Candidate node ids are allocated from this base so they never collide
/// with real station ids.
pub const CANDIDATE_ID_BASE: NodeId = 100_000;

/// Summary of the candidate graph's trip projection, the paper's Table
/// II-style accounting of nodes / edges / loops / trips.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AggregateSummary {
    /// Nodes in the projected graph.
    pub nodes: usize,
    /// Distinct undirected station pairs (including self-pairs).
    pub undirected_edges: usize,
    /// Distinct undirected station pairs excluding self-pairs.
    pub undirected_edges_no_loops: usize,
    /// Distinct directed (src, dst) pairs (including self-loops).
    pub directed_edges: usize,
    /// Distinct directed (src, dst) pairs excluding self-loops.
    pub directed_edges_no_loops: usize,
    /// Total raw relationships (trips) aggregated.
    pub trips: usize,
}

/// What a node in the candidate graph represents.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A pre-existing fixed station.
    Fixed {
        /// The operator's station id.
        station_id: StationId,
    },
    /// A candidate station produced by clustering free locations.
    Candidate {
        /// Number of raw locations merged into the candidate.
        cluster_size: usize,
        /// Maximum pairwise distance among the merged locations (metres).
        diameter_m: f64,
    },
}

impl NodeKind {
    /// Whether the node is a pre-existing fixed station.
    pub fn is_fixed(&self) -> bool {
        matches!(self, NodeKind::Fixed { .. })
    }
}

/// A node of the candidate graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateNode {
    /// Graph node id (station id for fixed nodes, `CANDIDATE_ID_BASE + i`
    /// for candidates).
    pub id: NodeId,
    /// Display name.
    pub name: String,
    /// Geographic position (station position or cluster centroid).
    pub position: GeoPoint,
    /// Node role.
    pub kind: NodeKind,
}

/// The candidate network: nodes, the location → node mapping and the
/// frozen trip graphs over the candidate nodes.
#[derive(Debug, Clone)]
pub struct CandidateNetwork {
    /// Every node (fixed stations first, then candidates).
    pub nodes: Vec<CandidateNode>,
    /// Mapping from cleaned location id to the node that now represents it.
    pub location_to_node: HashMap<LocationId, NodeId>,
    /// Directed trip graph over every node (edge weight = number of trips).
    pub directed: CsrGraph,
    /// Undirected trip graph over every node.
    pub undirected: CsrGraph,
    /// Table II-style counts.
    pub summary: AggregateSummary,
}

impl CandidateNetwork {
    /// Ids of the fixed-station nodes.
    pub fn fixed_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.kind.is_fixed())
            .map(|n| n.id)
            .collect()
    }

    /// Ids of the candidate nodes.
    pub fn candidate_ids(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| !n.kind.is_fixed())
            .map(|n| n.id)
            .collect()
    }

    /// Look up a node by id.
    pub fn node(&self, id: NodeId) -> Option<&CandidateNode> {
        self.nodes.iter().find(|n| n.id == id)
    }

    /// Positions of every node keyed by id.
    pub fn positions(&self) -> HashMap<NodeId, GeoPoint> {
        self.nodes.iter().map(|n| (n.id, n.position)).collect()
    }
}

/// Build the candidate network from a cleaned dataset.
///
/// # Errors
///
/// * [`CoreError::NoStations`] / [`CoreError::NoRentals`] for unusable data;
/// * [`CoreError::InvalidConfig`] when the configuration fails validation;
/// * [`CoreError::Cluster`] when the constrained clustering fails, e.g. an
///   average-linkage component beyond the exact path's size cap.
pub fn build_candidate_network(
    dataset: &CleanDataset,
    config: &ExpansionConfig,
) -> Result<CandidateNetwork> {
    config.validate()?;
    if dataset.stations.is_empty() {
        return Err(CoreError::NoStations);
    }
    if dataset.rentals.is_empty() {
        return Err(CoreError::NoRentals);
    }

    // --- Split locations into station-bound and free. ---
    let station_by_id: HashMap<StationId, &moby_data::schema::Station> =
        dataset.stations.iter().map(|s| (s.id, s)).collect();
    let mut location_to_node: HashMap<LocationId, NodeId> = HashMap::new();
    let mut free_locations: Vec<(LocationId, GeoPoint)> = Vec::new();
    for loc in &dataset.locations {
        match loc.station_id.filter(|sid| station_by_id.contains_key(sid)) {
            Some(sid) => {
                location_to_node.insert(loc.id, sid);
            }
            None => free_locations.push((loc.id, loc.position)),
        }
    }

    // --- Constrained clustering of the free locations. ---
    let station_points: Vec<GeoPoint> = dataset.stations.iter().map(|s| s.position).collect();
    let free_points: Vec<GeoPoint> = free_locations.iter().map(|(_, p)| *p).collect();
    let clustering = constrained_clustering(
        &station_points,
        &free_points,
        &ConstrainedConfig {
            station_absorb_radius_m: config.station_absorb_radius_m,
            cluster_boundary_m: config.cluster_boundary_m,
            linkage: config.linkage,
        },
    )
    .map_err(CoreError::Cluster)?;

    // Locations absorbed into fixed stations.
    for group in &clustering.station_groups {
        let station_id = dataset.stations[group.station_index].id;
        for &member in &group.members {
            location_to_node.insert(free_locations[member].0, station_id);
        }
    }

    // --- Nodes. ---
    let mut nodes: Vec<CandidateNode> = dataset
        .stations
        .iter()
        .map(|s| CandidateNode {
            id: s.id,
            name: s.name.clone(),
            position: s.position,
            kind: NodeKind::Fixed { station_id: s.id },
        })
        .collect();
    for (i, cluster) in clustering.candidate_clusters.iter().enumerate() {
        let id = CANDIDATE_ID_BASE + i as NodeId;
        nodes.push(CandidateNode {
            id,
            name: format!("Candidate #{i:04}"),
            position: cluster.centroid,
            kind: NodeKind::Candidate {
                cluster_size: cluster.members.len(),
                diameter_m: cluster.diameter_m,
            },
        });
        for &member in &cluster.members {
            location_to_node.insert(free_locations[member].0, id);
        }
    }

    // --- Trip graphs over candidate nodes. ---
    let trips = trip_table(
        nodes.iter().map(|n| n.id).collect(),
        &location_to_node,
        dataset,
    )?;
    let (directed, undirected) = trip_graphs(&trips);
    let summary = summarize(&directed, &undirected, trips.len());

    Ok(CandidateNetwork {
        nodes,
        location_to_node,
        directed,
        undirected,
        summary,
    })
}

/// Resolve every rental into a [`TripTable`] over `station_ids`: each
/// endpoint location maps through `location_to_node` to its station.
///
/// Shared by the candidate network and by the selected network after
/// reassignment. Locations resolve through a sorted lookup table (binary
/// search), so the per-rental loop performs no hash-map operation.
///
/// # Errors
///
/// [`CoreError::Internal`] when a rental endpoint has no mapping, or a
/// mapping names a station outside `station_ids`.
pub(crate) fn trip_table(
    station_ids: Vec<NodeId>,
    location_to_node: &HashMap<LocationId, NodeId>,
    dataset: &CleanDataset,
) -> Result<TripTable> {
    let mut trips = TripTable::with_capacity(station_ids, dataset.rentals.len());
    let mut location_lookup: Vec<(LocationId, u32)> = location_to_node
        .iter()
        .map(|(&loc, &node)| {
            trips.station_index(node).map(|i| (loc, i)).ok_or_else(|| {
                CoreError::Internal(format!(
                    "location {loc} maps to node {node}, which is not a station"
                ))
            })
        })
        .collect::<Result<_>>()?;
    location_lookup.sort_unstable();
    let resolve = |loc: LocationId| -> Option<u32> {
        location_lookup
            .binary_search_by_key(&loc, |&(l, _)| l)
            .ok()
            .map(|at| location_lookup[at].1)
    };
    for r in &dataset.rentals {
        let (Some(src), Some(dst)) = (resolve(r.rental_location_id), resolve(r.return_location_id))
        else {
            return Err(CoreError::Internal(format!(
                "rental {} references an unmapped location",
                r.id
            )));
        };
        trips.push(src, dst, r.start_time);
    }
    Ok(trips)
}

/// The directed and undirected trip graphs of a table, built by columnar
/// sort-merge over its full sorted station set (isolated stations stay
/// visible). Shared by the candidate network and the selected network.
pub(crate) fn trip_graphs(trips: &TripTable) -> (CsrGraph, CsrGraph) {
    let build = |directed| {
        build_dense_csr(
            directed,
            trips.station_ids().to_vec(),
            trips.src(),
            trips.dst(),
            trips.weights(),
            None,
        )
    };
    (build(true), build(false))
}

/// Table II counts of a table's trip graphs: distinct edges are the CSR
/// edge counts, and a loop is a row holding its own node, however many
/// trips it merges.
fn summarize(directed: &CsrGraph, undirected: &CsrGraph, trips: usize) -> AggregateSummary {
    let loops = |g: &CsrGraph| {
        (0..g.node_count())
            .filter(|&u| g.row(u).0.binary_search(&(u as u32)).is_ok())
            .count()
    };
    AggregateSummary {
        nodes: undirected.node_count(),
        undirected_edges: undirected.edge_count(),
        undirected_edges_no_loops: undirected.edge_count() - loops(undirected),
        directed_edges: directed.edge_count(),
        directed_edges_no_loops: directed.edge_count() - loops(directed),
        trips,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_cluster::hac::MAX_EXACT_COMPONENT;
    use moby_cluster::linkage::Linkage;
    use moby_cluster::ClusterError;
    use moby_data::clean::clean_dataset;
    use moby_data::schema::Location;
    use moby_data::synth::{generate, SynthConfig};
    use moby_geo::{destination_point, haversine_m};

    fn small_clean() -> CleanDataset {
        clean_dataset(&generate(&SynthConfig::small_test())).dataset
    }

    #[test]
    fn rejects_empty_inputs() {
        let cfg = ExpansionConfig::default();
        let empty = CleanDataset::default();
        assert!(matches!(
            build_candidate_network(&empty, &cfg),
            Err(CoreError::NoStations)
        ));
        let mut no_rentals = small_clean();
        no_rentals.rentals.clear();
        assert!(matches!(
            build_candidate_network(&no_rentals, &cfg),
            Err(CoreError::NoRentals)
        ));
    }

    #[test]
    fn every_location_is_mapped_to_a_node() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        for loc in &ds.locations {
            assert!(
                net.location_to_node.contains_key(&loc.id),
                "location {} unmapped",
                loc.id
            );
        }
    }

    #[test]
    fn fixed_nodes_match_stations_and_candidates_use_base_ids() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        let fixed = net.fixed_ids();
        assert_eq!(fixed.len(), ds.stations.len());
        for id in net.candidate_ids() {
            assert!(id >= CANDIDATE_ID_BASE);
        }
        assert!(
            net.candidate_ids().len() > ds.stations.len() / 2,
            "expected a healthy candidate pool"
        );
        assert_eq!(
            net.nodes.len(),
            net.fixed_ids().len() + net.candidate_ids().len()
        );
    }

    #[test]
    fn trip_counts_are_preserved() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        assert_eq!(net.summary.trips, ds.rentals.len());
        // Total directed weight equals the number of trips.
        assert_eq!(net.directed.total_weight() as usize, ds.rentals.len());
        assert_eq!(net.undirected.total_weight() as usize, ds.rentals.len());
    }

    /// The candidate graphs over 3 trips 1->2, 1 trip 2->1, 2 loops at 3,
    /// 1 trip 3->4, 1 loop at 5 and an isolated station 99.
    fn fixture_graphs() -> (CsrGraph, CsrGraph, AggregateSummary) {
        let mut t = TripTable::new(vec![1, 2, 3, 4, 5, 99]);
        let rows: &[(u64, u64, f64)] = &[
            (1, 2, 1.0),
            (1, 2, 1.0),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 3, 1.0),
            (3, 3, 1.0),
            (3, 4, 1.0),
            (5, 5, 1.0),
        ];
        for &(src, dst, w) in rows {
            let (s, d) = (t.station_index(src).unwrap(), t.station_index(dst).unwrap());
            t.push_keyed(s, d, 0, 8, w).unwrap();
        }
        let (directed, undirected) = trip_graphs(&t);
        let summary = summarize(&directed, &undirected, t.len());
        (directed, undirected, summary)
    }

    #[test]
    fn trip_graphs_weight_edges_by_trip_count() {
        let (directed, undirected, _) = fixture_graphs();
        assert!(directed.is_directed());
        assert_eq!(directed.edge_weight(1, 2), Some(3.0));
        assert_eq!(directed.edge_weight(2, 1), Some(1.0));
        assert_eq!(directed.edge_weight(3, 3), Some(2.0));
        assert_eq!(directed.edge_weight(3, 4), Some(1.0));
        // Undirected: both directions merge into one edge.
        assert!(!undirected.is_directed());
        assert_eq!(undirected.edge_weight(1, 2), Some(4.0));
        assert_eq!(undirected.edge_weight(2, 1), Some(4.0));
        let loop3 = undirected.index_of(3).unwrap() as usize;
        assert_eq!(undirected.self_loop(loop3), 2.0);
        assert_eq!(directed.edge_weight(5, 5), Some(1.0));
        assert_eq!(undirected.total_weight(), 8.0);
    }

    #[test]
    fn trip_graphs_keep_isolated_nodes_in_sorted_order() {
        let (directed, undirected, _) = fixture_graphs();
        for g in [&directed, &undirected] {
            assert_eq!(g.node_ids(), &[1, 2, 3, 4, 5, 99]);
            assert_eq!(g.degree_of(99), Some(0));
        }
    }

    #[test]
    fn table_two_counts_loops_by_row_not_weight() {
        let (_, _, summary) = fixture_graphs();
        assert_eq!(summary.nodes, 6);
        assert_eq!(summary.trips, 8);
        // Directed pairs: (1,2), (2,1), (3,3), (3,4), (5,5) = 5; two loops.
        assert_eq!(summary.directed_edges, 5);
        assert_eq!(summary.directed_edges_no_loops, 3);
        // Undirected pairs: {1,2}, {3,3}, {3,4}, {5,5} = 4; two loops.
        assert_eq!(summary.undirected_edges, 4);
        assert_eq!(summary.undirected_edges_no_loops, 2);
    }

    #[test]
    fn unmapped_rental_endpoint_is_a_typed_error() {
        let mut ds = small_clean();
        let unmapped = ds.locations.iter().map(|l| l.id).max().unwrap() + 1;
        ds.rentals[0].return_location_id = unmapped;
        let location_to_node: HashMap<LocationId, NodeId> = ds
            .locations
            .iter()
            .map(|l| (l.id, ds.stations[0].id))
            .collect();
        let err = trip_table(vec![ds.stations[0].id], &location_to_node, &ds).unwrap_err();
        assert!(
            matches!(&err, CoreError::Internal(msg) if msg.contains("unmapped location")),
            "{err:?}"
        );
        // A mapping onto a node outside the station table is typed too.
        let err = trip_table(vec![ds.stations[1].id], &location_to_node, &ds).unwrap_err();
        assert!(matches!(err, CoreError::Internal(_)), "{err:?}");
    }

    #[test]
    fn candidate_clusters_respect_boundary_rule() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        for n in &net.nodes {
            if let NodeKind::Candidate { diameter_m, .. } = n.kind {
                assert!(diameter_m <= 100.0 + 1e-6, "diameter {diameter_m}");
            }
        }
    }

    #[test]
    fn locations_near_stations_are_absorbed() {
        let ds = small_clean();
        let cfg = ExpansionConfig::default();
        let net = build_candidate_network(&ds, &cfg).unwrap();
        let station_pos: HashMap<NodeId, GeoPoint> =
            ds.stations.iter().map(|s| (s.id, s.position)).collect();
        for loc in &ds.locations {
            let node = net.location_to_node[&loc.id];
            if let Some(sp) = station_pos.get(&node) {
                // Location mapped to a fixed station: either it is the
                // station's own location row or it sits within the absorb
                // radius.
                if loc.station_id != Some(node) {
                    let d = haversine_m(loc.position, *sp);
                    assert!(
                        d <= cfg.station_absorb_radius_m + 1e-6,
                        "location {} absorbed from {d} m away",
                        loc.id
                    );
                }
            }
        }
    }

    #[test]
    fn summary_counts_are_internally_consistent() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        let s = &net.summary;
        assert_eq!(s.nodes, net.nodes.len());
        assert!(s.directed_edges >= s.undirected_edges);
        assert!(s.undirected_edges >= s.undirected_edges_no_loops);
        assert!(s.directed_edges >= s.directed_edges_no_loops);
        assert!(s.trips >= s.directed_edges);
    }

    #[test]
    fn node_lookup_and_positions() {
        let ds = small_clean();
        let net = build_candidate_network(&ds, &ExpansionConfig::default()).unwrap();
        let first_station = ds.stations[0].id;
        assert!(net.node(first_station).is_some());
        assert!(net.node(999_999_999).is_none());
        assert_eq!(net.positions().len(), net.nodes.len());
    }

    #[test]
    fn oversized_average_linkage_component_is_a_typed_cluster_error() {
        // Free locations 60 m apart in a line, far from every station, are
        // one component at the 100 m cut: too large for the dense
        // average-linkage path, which must say so instead of approximating.
        let mut ds = small_clean();
        let next_id = ds.locations.iter().map(|l| l.id).max().unwrap() + 1;
        let start = GeoPoint::new(53.0, -7.5).unwrap();
        ds.locations
            .extend((0..=MAX_EXACT_COMPONENT as u64).map(|k| Location {
                id: next_id + k,
                position: destination_point(start, 90.0, 60.0 * k as f64),
                station_id: None,
            }));
        let cfg = ExpansionConfig {
            linkage: Linkage::Average,
            ..ExpansionConfig::default()
        };
        assert_eq!(
            build_candidate_network(&ds, &cfg).unwrap_err(),
            CoreError::Cluster(ClusterError::ComponentTooLarge {
                size: MAX_EXACT_COMPONENT + 1,
                cap: MAX_EXACT_COMPONENT,
            })
        );
    }
}
