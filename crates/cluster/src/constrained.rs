//! Constrained clustering with immovable fixed stations (paper §IV-A,
//! "Preprocessing").
//!
//! > "Pre-existing fixed stations were set as immovable locations and set as
//! > their own group's centroid. To adhere to the criterion of groups'
//! > centroids being at least 50 metres apart, any location that was within
//! > a 50-metre radius of a fixed station was assigned to that station's
//! > group and was excluded from clustering."
//!
//! The output distinguishes **station groups** (the fixed station plus the
//! free locations absorbed into it) from **candidate clusters** (clusters of
//! the remaining free locations, each a potential new station).

use crate::hac::try_hac_clusters_with_diameters;
use crate::linkage::Linkage;
use crate::{ClusterError, Result};
use moby_geo::{GeoPoint, KdTree};
use serde::{Deserialize, Serialize};

/// Parameters of the constrained clustering step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstrainedConfig {
    /// Locations within this radius of a fixed station are absorbed into the
    /// station's group and excluded from clustering (paper: 50 m).
    pub station_absorb_radius_m: f64,
    /// Maximum linkage distance for the agglomerative cut (paper Rule 1:
    /// 100 m cluster boundary).
    pub cluster_boundary_m: f64,
    /// Linkage criterion (paper: complete).
    pub linkage: Linkage,
}

impl Default for ConstrainedConfig {
    fn default() -> Self {
        Self {
            station_absorb_radius_m: 50.0,
            cluster_boundary_m: 100.0,
            linkage: Linkage::Complete,
        }
    }
}

/// A fixed station together with the free locations absorbed into its group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StationGroup {
    /// Index into the `stations` slice passed to [`constrained_clustering`].
    pub station_index: usize,
    /// The station position (the group's immovable centroid).
    pub centroid: GeoPoint,
    /// Indices into the `locations` slice of absorbed locations.
    pub members: Vec<usize>,
}

/// A cluster of free locations that is a candidate for a new station.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateCluster {
    /// Indices into the `locations` slice.
    pub members: Vec<usize>,
    /// Arithmetic centroid of the member locations.
    pub centroid: GeoPoint,
    /// Maximum pairwise distance among members (metres).
    pub diameter_m: f64,
}

/// Result of the constrained clustering step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstrainedClustering {
    /// One group per fixed station (possibly with no absorbed members).
    pub station_groups: Vec<StationGroup>,
    /// Candidate clusters over the locations that were not absorbed.
    pub candidate_clusters: Vec<CandidateCluster>,
}

/// Run the constrained clustering of §IV-A.
///
/// * `stations` — positions of the fixed (immovable) stations.
/// * `locations` — positions of the free rental/return locations.
///
/// # Errors
///
/// * [`ClusterError::NoFixedStations`] when `stations` is empty (the
///   pipeline requires an existing network to expand);
/// * [`ClusterError::InvalidThreshold`] when either radius is negative or
///   not finite.
pub fn constrained_clustering(
    stations: &[GeoPoint],
    locations: &[GeoPoint],
    config: &ConstrainedConfig,
) -> Result<ConstrainedClustering> {
    if stations.is_empty() {
        return Err(ClusterError::NoFixedStations);
    }
    for radius in [config.station_absorb_radius_m, config.cluster_boundary_m] {
        if !radius.is_finite() || radius < 0.0 {
            return Err(ClusterError::InvalidThreshold(radius));
        }
    }

    // Station groups, initially empty.
    let mut station_groups: Vec<StationGroup> = stations
        .iter()
        .enumerate()
        .map(|(i, &p)| StationGroup {
            station_index: i,
            centroid: p,
            members: Vec::new(),
        })
        .collect();

    // Absorb locations within the radius of their nearest station.
    let station_tree = KdTree::build(
        stations
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i))
            .collect::<Vec<_>>(),
    );
    let mut free: Vec<usize> = Vec::new();
    for (li, &lp) in locations.iter().enumerate() {
        let (_, &si, d) = station_tree.nearest(lp).expect("stations non-empty");
        if d <= config.station_absorb_radius_m {
            station_groups[si].members.push(li);
        } else {
            free.push(li);
        }
    }

    // Cluster the free locations.
    let free_points: Vec<GeoPoint> = free.iter().map(|&i| locations[i]).collect();
    let clusters =
        try_hac_clusters_with_diameters(&free_points, config.linkage, config.cluster_boundary_m)?;
    let candidate_clusters: Vec<CandidateCluster> = clusters
        .into_iter()
        .map(|(local_members, diameter_m)| {
            let members: Vec<usize> = local_members.iter().map(|&li| free[li]).collect();
            let pts: Vec<GeoPoint> = local_members.iter().map(|&li| free_points[li]).collect();
            let centroid = GeoPoint::centroid(&pts).expect("cluster is non-empty");
            CandidateCluster {
                members,
                centroid,
                diameter_m,
            }
        })
        .collect();

    Ok(ConstrainedClustering {
        station_groups,
        candidate_clusters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_geo::destination_point;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn station() -> GeoPoint {
        p(53.3450, -6.2600)
    }

    #[test]
    fn requires_fixed_stations() {
        let err = constrained_clustering(&[], &[station()], &ConstrainedConfig::default());
        assert!(matches!(err, Err(ClusterError::NoFixedStations)));
    }

    #[test]
    fn rejects_bad_thresholds() {
        let cfg = ConstrainedConfig {
            station_absorb_radius_m: -1.0,
            ..Default::default()
        };
        assert!(matches!(
            constrained_clustering(&[station()], &[], &cfg),
            Err(ClusterError::InvalidThreshold(_))
        ));
    }

    #[test]
    fn absorbs_near_locations_and_clusters_the_rest() {
        let st = station();
        let near1 = destination_point(st, 0.0, 20.0); // absorbed
        let near2 = destination_point(st, 90.0, 45.0); // absorbed
        let far_a1 = destination_point(st, 45.0, 500.0); // candidate cluster A
        let far_a2 = destination_point(far_a1, 10.0, 30.0); // candidate cluster A
        let far_b = destination_point(st, 225.0, 900.0); // candidate cluster B
        let locations = vec![near1, near2, far_a1, far_a2, far_b];
        let out = constrained_clustering(&[st], &locations, &ConstrainedConfig::default()).unwrap();
        assert_eq!(out.station_groups.len(), 1);
        assert_eq!(out.station_groups[0].members, vec![0, 1]);
        assert_eq!(out.candidate_clusters.len(), 2);
        let clustered: usize = out.candidate_clusters.iter().map(|c| c.members.len()).sum();
        assert_eq!(clustered, 3);
        // The pair far_a1/far_a2 must be one candidate cluster.
        let sizes: Vec<usize> = out
            .candidate_clusters
            .iter()
            .map(|c| c.members.len())
            .collect();
        assert!(sizes.contains(&2));
        assert!(sizes.contains(&1));
    }

    #[test]
    fn candidate_diameter_respects_boundary() {
        let st = station();
        // A ragged line of free locations 70 m apart, 600 m from the station.
        let start = destination_point(st, 90.0, 600.0);
        let locations: Vec<GeoPoint> = (0..8)
            .map(|i| destination_point(start, 0.0, i as f64 * 70.0))
            .collect();
        let out = constrained_clustering(&[st], &locations, &ConstrainedConfig::default()).unwrap();
        for c in &out.candidate_clusters {
            assert!(c.diameter_m <= 100.0 + 1e-6, "diameter {}", c.diameter_m);
        }
    }

    #[test]
    fn absorbed_boundary_is_inclusive_of_radius() {
        let st = station();
        let just_under = destination_point(st, 180.0, 49.5);
        let just_over = destination_point(st, 180.0, 51.0);
        let out = constrained_clustering(
            &[st],
            &[just_under, just_over],
            &ConstrainedConfig::default(),
        )
        .unwrap();
        // 49.5 m is within the 50 m radius; 51 m is not.
        assert_eq!(out.station_groups[0].members.len(), 1);
        assert_eq!(out.candidate_clusters.len(), 1);
    }

    #[test]
    fn location_near_two_stations_goes_to_nearest() {
        let s1 = station();
        let s2 = destination_point(s1, 90.0, 80.0);
        // 30 m from s1, 50 m from s2.
        let loc = destination_point(s1, 90.0, 30.0);
        let out = constrained_clustering(&[s1, s2], &[loc], &ConstrainedConfig::default()).unwrap();
        assert_eq!(out.station_groups[0].members, vec![0]);
        assert!(out.station_groups[1].members.is_empty());
    }

    #[test]
    fn empty_locations_give_empty_candidates() {
        let out = constrained_clustering(&[station()], &[], &ConstrainedConfig::default()).unwrap();
        assert!(out.candidate_clusters.is_empty());
        assert_eq!(out.station_groups.len(), 1);
    }

    #[test]
    fn every_location_is_accounted_for_exactly_once() {
        let st = station();
        let locations: Vec<GeoPoint> = (0..60)
            .map(|i| destination_point(st, (i * 37 % 360) as f64, 20.0 + (i as f64 * 13.0) % 700.0))
            .collect();
        let out = constrained_clustering(&[st], &locations, &ConstrainedConfig::default()).unwrap();
        let mut seen = vec![0usize; locations.len()];
        for g in &out.station_groups {
            for &m in &g.members {
                seen[m] += 1;
            }
        }
        for c in &out.candidate_clusters {
            for &m in &c.members {
                seen[m] += 1;
            }
        }
        assert!(seen.iter().all(|&s| s == 1));
    }
}
