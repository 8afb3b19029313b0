//! # moby-geo
//!
//! Geospatial primitives for the `moby-expansion` bike-sharing analysis
//! toolkit.
//!
//! The paper ("Graph-Based Optimisation of Network Expansion in a Dockless
//! Bike Sharing System", ICDE 2024) relies on a small set of geospatial
//! operations:
//!
//! * the **Haversine** great-circle distance (paper eq. 1) between rental /
//!   return locations, used as the metric for hierarchical agglomerative
//!   clustering and for all proximity rules (50 m, 100 m, 250 m thresholds);
//! * **spatial containment** checks used while cleaning the raw data
//!   ("locations outside Dublin", "locations that are not on land");
//! * **nearest-neighbour** queries used to re-assign trips from rejected
//!   candidate stations to the closest fixed station.
//!
//! This crate provides those primitives from scratch — no external
//! geospatial dependency — together with two spatial indexes (a uniform
//! grid and a 2-d k-d tree) so that nearest-neighbour queries over tens of
//! thousands of locations stay fast.
//!
//! ## Quick example
//!
//! ```
//! use moby_geo::{GeoPoint, haversine_m};
//!
//! // O'Connell Bridge and Trinity College, Dublin.
//! let a = GeoPoint::new(53.3473, -6.2591).unwrap();
//! let b = GeoPoint::new(53.3438, -6.2546).unwrap();
//! let d = haversine_m(a, b);
//! assert!(d > 300.0 && d < 600.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bbox;
mod distance;
mod error;
mod grid;
mod kdtree;
mod point;
mod polygon;

pub use bbox::BoundingBox;
pub use distance::{
    bearing_deg, destination_point, equirectangular_m, haversine_m, haversine_rad, EARTH_RADIUS_M,
};
pub use error::GeoError;
pub use grid::{GridIndex, NeighbourRows};
pub use kdtree::KdTree;
pub use point::GeoPoint;
pub use polygon::{dublin_boundary, dublin_land_mask, Polygon};

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, GeoError>;
