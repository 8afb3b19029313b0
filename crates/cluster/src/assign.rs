//! Nearest-station assignment.
//!
//! Used twice by the pipeline: (a) when unconverted candidate locations are
//! "reassigned to the nearest station" after selection (§IV-B step 3), and
//! (b) in the prior-work baseline where *every* non-station location is
//! reassigned to its closest fixed station without creating any new
//! stations.

use moby_geo::{GeoPoint, KdTree};
use serde::{Deserialize, Serialize};

/// The assignment of one point to a station.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Assignment {
    /// Index of the assigned station in the station slice.
    pub station_index: usize,
    /// Haversine distance to that station in metres.
    pub distance_m: f64,
}

/// A reusable nearest-station assigner backed by a k-d tree.
#[derive(Debug, Clone)]
pub struct StationAssigner {
    tree: KdTree<usize>,
}

impl StationAssigner {
    /// Build an assigner over the given station positions. Returns `None`
    /// when the slice is empty (there is nothing to assign to).
    pub fn new(stations: &[GeoPoint]) -> Option<Self> {
        if stations.is_empty() {
            return None;
        }
        let tree = KdTree::build(
            stations
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i))
                .collect::<Vec<_>>(),
        );
        Some(Self { tree })
    }

    /// The nearest station to `point`.
    pub fn assign(&self, point: GeoPoint) -> Assignment {
        let (_, &idx, d) = self
            .tree
            .nearest(point)
            .expect("assigner is built over a non-empty station set");
        Assignment {
            station_index: idx,
            distance_m: d,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_geo::destination_point;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn empty_station_set_gives_no_assigner() {
        assert!(StationAssigner::new(&[]).is_none());
    }

    #[test]
    fn assigns_to_nearest() {
        let s1 = p(53.34, -6.26);
        let s2 = p(53.36, -6.26);
        let assigner = StationAssigner::new(&[s1, s2]).unwrap();
        let near_s1 = destination_point(s1, 90.0, 100.0);
        let a = assigner.assign(near_s1);
        assert_eq!(a.station_index, 0);
        assert!((a.distance_m - 100.0).abs() < 1.0);
        let near_s2 = destination_point(s2, 180.0, 30.0);
        assert_eq!(assigner.assign(near_s2).station_index, 1);
    }
}
