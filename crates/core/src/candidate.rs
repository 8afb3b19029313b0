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
use moby_geo::GeoPoint;
use moby_graph::aggregate::{self, AggregateSummary};
use moby_graph::{props, GraphStore, NodeId, PropValue, WeightedGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Candidate node ids are allocated from this base so they never collide
/// with real station ids.
pub const CANDIDATE_ID_BASE: NodeId = 100_000;

/// The relationship label used for trips in every graph store built here.
pub const TRIP_LABEL: &str = "TRIP";

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

/// The candidate network: nodes, the location → node mapping, the raw trip
/// store and its weighted projections.
#[derive(Debug, Clone)]
pub struct CandidateNetwork {
    /// Every node (fixed stations first, then candidates).
    pub nodes: Vec<CandidateNode>,
    /// Mapping from cleaned location id to the node that now represents it.
    pub location_to_node: HashMap<LocationId, NodeId>,
    /// Property-graph store with one `TRIP` relationship per rental
    /// (carrying `day` and `hour` properties).
    pub store: GraphStore,
    /// Directed weighted projection (edge weight = number of trips).
    pub directed: WeightedGraph,
    /// Undirected weighted projection.
    pub undirected: WeightedGraph,
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

    // --- Trip store over candidate nodes. ---
    let store = build_trip_store(&nodes, &location_to_node, dataset)?;
    let directed = aggregate::project_directed(&store, TRIP_LABEL);
    let undirected = aggregate::project_undirected(&store, TRIP_LABEL);
    let summary = aggregate::summarize(&store, TRIP_LABEL);

    Ok(CandidateNetwork {
        nodes,
        location_to_node,
        store,
        directed,
        undirected,
        summary,
    })
}

/// Build a property-graph store with one node per candidate node and one
/// `TRIP` relationship per rental (properties: `day` 0–6, `hour` 0–23).
///
/// Shared by the candidate network and by the selected network after
/// reassignment.
pub fn build_trip_store(
    nodes: &[CandidateNode],
    location_to_node: &HashMap<LocationId, NodeId>,
    dataset: &CleanDataset,
) -> Result<GraphStore> {
    let mut store = GraphStore::new();
    for n in nodes {
        store.add_node(
            n.id,
            if n.kind.is_fixed() {
                "Station"
            } else {
                "Candidate"
            },
            props([
                ("name", PropValue::from(n.name.as_str())),
                ("lat", PropValue::from(n.position.lat())),
                ("lon", PropValue::from(n.position.lon())),
                ("fixed", PropValue::from(n.kind.is_fixed())),
            ]),
        );
    }
    for r in &dataset.rentals {
        let (Some(&src), Some(&dst)) = (
            location_to_node.get(&r.rental_location_id),
            location_to_node.get(&r.return_location_id),
        ) else {
            return Err(CoreError::Internal(format!(
                "rental {} references a location with no node mapping",
                r.id
            )));
        };
        store
            .add_edge(
                src,
                dst,
                TRIP_LABEL,
                props([
                    (
                        "day",
                        PropValue::from(i64::from(r.start_time.weekday().index())),
                    ),
                    ("hour", PropValue::from(i64::from(r.start_time.hour()))),
                ]),
            )
            .map_err(|e| CoreError::Internal(format!("failed to add trip edge: {e}")))?;
    }
    Ok(store)
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
        assert_eq!(net.store.edge_count(), ds.rentals.len());
        // Total directed weight equals the number of trips.
        assert_eq!(net.directed.total_weight() as usize, ds.rentals.len());
        assert_eq!(net.undirected.total_weight() as usize, ds.rentals.len());
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
