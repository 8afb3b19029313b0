//! Validated geographic points.

use crate::{GeoError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A validated geographic coordinate (WGS-84 latitude / longitude, degrees).
///
/// `GeoPoint` guarantees that the latitude is within `[-90, 90]`, the
/// longitude within `[-180, 180]`, and both values are finite. Downstream
/// code (distance functions, spatial indexes, clustering) relies on these
/// invariants, which is why construction goes through [`GeoPoint::new`].
///
/// The type is `Copy` and 16 bytes; it is passed by value everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GeoPoint {
    lat: f64,
    lon: f64,
}

impl GeoPoint {
    /// Create a point, validating the coordinate ranges.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLatitude`] / [`GeoError::InvalidLongitude`]
    /// if either component is non-finite or out of range.
    pub fn new(lat: f64, lon: f64) -> Result<Self> {
        if !lat.is_finite() || !(-90.0..=90.0).contains(&lat) {
            return Err(GeoError::InvalidLatitude(lat));
        }
        if !lon.is_finite() || !(-180.0..=180.0).contains(&lon) {
            return Err(GeoError::InvalidLongitude(lon));
        }
        Ok(Self { lat, lon })
    }

    /// Latitude in degrees.
    #[inline]
    pub fn lat(&self) -> f64 {
        self.lat
    }

    /// Longitude in degrees.
    #[inline]
    pub fn lon(&self) -> f64 {
        self.lon
    }

    /// Latitude in radians.
    #[inline]
    pub fn lat_rad(&self) -> f64 {
        self.lat.to_radians()
    }

    /// Longitude in radians.
    #[inline]
    pub fn lon_rad(&self) -> f64 {
        self.lon.to_radians()
    }

    /// The centroid (arithmetic mean of latitude and longitude) of a set of
    /// points.
    ///
    /// For the small spatial extents handled here (a city), the arithmetic
    /// mean is an adequate centroid; the error versus a true spherical
    /// centroid is far below the 50 m thresholds used by the paper.
    ///
    /// Returns `None` for an empty slice.
    pub fn centroid(points: &[GeoPoint]) -> Option<GeoPoint> {
        if points.is_empty() {
            return None;
        }
        let n = points.len() as f64;
        let lat = points.iter().map(|p| p.lat).sum::<f64>() / n;
        let lon = points.iter().map(|p| p.lon).sum::<f64>() / n;
        // The mean of valid coordinates is always valid.
        Some(GeoPoint { lat, lon })
    }
}

impl fmt::Display for GeoPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.6}, {:.6})", self.lat, self.lon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_point_roundtrips() {
        let p = GeoPoint::new(53.35, -6.26).unwrap();
        assert_eq!(p.lat(), 53.35);
        assert_eq!(p.lon(), -6.26);
    }

    #[test]
    fn rejects_out_of_range_latitude() {
        assert!(matches!(
            GeoPoint::new(90.01, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(-90.01, 0.0),
            Err(GeoError::InvalidLatitude(_))
        ));
    }

    #[test]
    fn rejects_out_of_range_longitude() {
        assert!(matches!(
            GeoPoint::new(0.0, 180.5),
            Err(GeoError::InvalidLongitude(_))
        ));
        assert!(matches!(
            GeoPoint::new(0.0, -180.5),
            Err(GeoError::InvalidLongitude(_))
        ));
    }

    #[test]
    fn rejects_nan_and_infinite() {
        assert!(GeoPoint::new(f64::NAN, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::NAN).is_err());
        assert!(GeoPoint::new(f64::INFINITY, 0.0).is_err());
        assert!(GeoPoint::new(0.0, f64::NEG_INFINITY).is_err());
    }

    #[test]
    fn accepts_boundary_values() {
        assert!(GeoPoint::new(90.0, 180.0).is_ok());
        assert!(GeoPoint::new(-90.0, -180.0).is_ok());
        assert!(GeoPoint::new(0.0, 0.0).is_ok());
    }

    #[test]
    fn radians_conversion() {
        let p = GeoPoint::new(45.0, 90.0).unwrap();
        assert!((p.lat_rad() - std::f64::consts::FRAC_PI_4).abs() < 1e-12);
        assert!((p.lon_rad() - std::f64::consts::FRAC_PI_2).abs() < 1e-12);
    }

    #[test]
    fn centroid_of_empty_is_none() {
        assert!(GeoPoint::centroid(&[]).is_none());
    }

    #[test]
    fn centroid_of_single_point_is_itself() {
        let p = GeoPoint::new(53.0, -6.0).unwrap();
        let c = GeoPoint::centroid(&[p]).unwrap();
        assert_eq!(c, p);
    }

    #[test]
    fn centroid_is_mean() {
        let a = GeoPoint::new(53.0, -6.0).unwrap();
        let b = GeoPoint::new(54.0, -7.0).unwrap();
        let c = GeoPoint::centroid(&[a, b]).unwrap();
        assert!((c.lat() - 53.5).abs() < 1e-12);
        assert!((c.lon() + 6.5).abs() < 1e-12);
    }

    #[test]
    fn display_is_stable() {
        let p = GeoPoint::new(53.349805, -6.26031).unwrap();
        assert_eq!(p.to_string(), "(53.349805, -6.260310)");
    }
}
