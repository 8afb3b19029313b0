//! Configuration of the expansion pipeline — every threshold the paper
//! defines in §IV, in one place.

use crate::{CoreError, Result};
use moby_cluster::linkage::Linkage;
use serde::{Deserialize, Serialize};

/// All §IV thresholds. Rule 3, *Degree-Threshold*, has none to set: its
/// threshold is the minimum degree over the pre-existing fixed stations
/// (Algorithm 1, line 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExpansionConfig {
    /// Locations within this radius of a fixed station are absorbed into the
    /// station's group before clustering (paper: 50 m).
    pub station_absorb_radius_m: f64,
    /// Rule 1, *Cluster-Boundary*: the distance between two locations inside
    /// a cluster may not exceed this (paper: 100 m).
    pub cluster_boundary_m: f64,
    /// Rule 2, *Cluster-Proximity*: candidate centroids may not be closer
    /// than this to each other (paper: 50 m).
    pub centroid_min_separation_m: f64,
    /// Rule 4, *Secondary-Distance* (and Algorithm 1 lines 6 & 12): a new
    /// station must be at least this far from any other station
    /// (paper: 250 m).
    pub secondary_distance_m: f64,
    /// HAC linkage criterion (paper: complete).
    pub linkage: Linkage,
}

impl Default for ExpansionConfig {
    fn default() -> Self {
        Self {
            station_absorb_radius_m: 50.0,
            cluster_boundary_m: 100.0,
            centroid_min_separation_m: 50.0,
            secondary_distance_m: 250.0,
            linkage: Linkage::Complete,
        }
    }
}

impl ExpansionConfig {
    /// Validate that every threshold is finite and non-negative.
    pub fn validate(&self) -> Result<()> {
        let checks = [
            ("station_absorb_radius_m", self.station_absorb_radius_m),
            ("cluster_boundary_m", self.cluster_boundary_m),
            ("centroid_min_separation_m", self.centroid_min_separation_m),
            ("secondary_distance_m", self.secondary_distance_m),
        ];
        for (name, value) in checks {
            if !value.is_finite() || value < 0.0 {
                return Err(CoreError::InvalidConfig(format!(
                    "{name} must be finite and non-negative, got {value}"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_thresholds() {
        let c = ExpansionConfig::default();
        assert_eq!(c.station_absorb_radius_m, 50.0);
        assert_eq!(c.cluster_boundary_m, 100.0);
        assert_eq!(c.centroid_min_separation_m, 50.0);
        assert_eq!(c.secondary_distance_m, 250.0);
        assert_eq!(c.linkage, Linkage::Complete);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_negative_thresholds() {
        let mut c = ExpansionConfig::default();
        c.secondary_distance_m = -1.0;
        assert!(c.validate().is_err());
        let mut c2 = ExpansionConfig::default();
        c2.cluster_boundary_m = f64::NAN;
        assert!(c2.validate().is_err());
    }
}
