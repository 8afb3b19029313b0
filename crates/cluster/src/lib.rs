//! # moby-cluster
//!
//! Constrained hierarchical agglomerative clustering (HAC) over geographic
//! locations — the graph-construction substrate of the paper (§IV-A).
//!
//! The paper condenses ~14 k raw dockless rental/return locations into
//! ~1.2 k candidate stations by:
//!
//! 1. treating the 92 pre-existing fixed stations as **immovable** group
//!    centroids and pre-assigning every location within 50 m of a fixed
//!    station to that station's group (those locations are excluded from
//!    clustering);
//! 2. running bottom-up agglomerative clustering with the **complete
//!    linkage** criterion and the **Haversine** distance over the remaining
//!    locations;
//! 3. cutting the dendrogram so that no two locations inside a cluster are
//!    more than 100 m apart (Rule 1, *Cluster-Boundary*).
//!
//! The crate provides the plain algorithm ([`hac`]) for any linkage, the
//! constrained pipeline ([`constrained`]) with the fixed-station rules, and
//! nearest-station assignment helpers ([`assign`]) used when rejected
//! candidates are folded back into the network.
//!
//! ## Example
//!
//! ```
//! use moby_cluster::{hac::hac_clusters, linkage::Linkage};
//! use moby_geo::GeoPoint;
//!
//! // Two tight pairs ~1 km apart: cutting at 100 m yields two clusters.
//! let pts = vec![
//!     GeoPoint::new(53.3500, -6.2600).unwrap(),
//!     GeoPoint::new(53.3503, -6.2600).unwrap(),
//!     GeoPoint::new(53.3600, -6.2600).unwrap(),
//!     GeoPoint::new(53.3603, -6.2600).unwrap(),
//! ];
//! let clusters = hac_clusters(&pts, Linkage::Complete, 100.0);
//! assert_eq!(clusters.len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assign;
pub mod constrained;
pub mod hac;
pub mod linkage;

use std::fmt;

/// Errors produced by the clustering layer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A distance threshold was negative or not finite.
    InvalidThreshold(f64),
    /// The operation needs at least one fixed station.
    NoFixedStations,
    /// A connectivity component at the cut is larger than the linkage's
    /// exact path can cluster (average linkage only).
    ComponentTooLarge {
        /// Points in the component.
        size: usize,
        /// The largest component the path accepts.
        cap: usize,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InvalidThreshold(v) => {
                write!(
                    f,
                    "invalid distance threshold {v}: must be finite and non-negative"
                )
            }
            ClusterError::NoFixedStations => {
                write!(
                    f,
                    "constrained clustering requires at least one fixed station"
                )
            }
            ClusterError::ComponentTooLarge { size, cap } => {
                write!(
                    f,
                    "a connectivity component of {size} points exceeds the exact \
                     average-linkage cap of {cap}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, ClusterError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(ClusterError::InvalidThreshold(-3.0)
            .to_string()
            .contains("-3"));
        assert!(!ClusterError::NoFixedStations.to_string().is_empty());
        let too_large = ClusterError::ComponentTooLarge {
            size: 5_001,
            cap: 5_000,
        }
        .to_string();
        assert!(too_large.contains("5001") && too_large.contains("5000"));
    }
}
