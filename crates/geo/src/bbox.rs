//! Axis-aligned geographic bounding boxes.

use crate::{GeoError, GeoPoint, Result};
use serde::{Deserialize, Serialize};

/// An axis-aligned latitude/longitude bounding box.
///
/// Used by the data-cleaning pipeline ("locations outside Dublin") and as
/// the coarse filter in the spatial indexes. The box never crosses the
/// antimeridian — Dublin comfortably does not.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundingBox {
    min_lat: f64,
    max_lat: f64,
    min_lon: f64,
    max_lon: f64,
}

impl BoundingBox {
    /// Build a bounding box from corner coordinates.
    ///
    /// # Errors
    ///
    /// Rejects non-finite or out-of-range coordinates, and boxes where the
    /// minimum exceeds the maximum.
    pub fn new(min_lat: f64, min_lon: f64, max_lat: f64, max_lon: f64) -> Result<Self> {
        // Validation piggybacks on GeoPoint.
        let _ = GeoPoint::new(min_lat, min_lon)?;
        let _ = GeoPoint::new(max_lat, max_lon)?;
        if min_lat > max_lat {
            return Err(GeoError::InvalidLatitude(min_lat));
        }
        if min_lon > max_lon {
            return Err(GeoError::InvalidLongitude(min_lon));
        }
        Ok(Self {
            min_lat,
            max_lat,
            min_lon,
            max_lon,
        })
    }

    /// The tight bounding box around a set of points. Returns `None` for an
    /// empty slice.
    pub fn from_points(points: &[GeoPoint]) -> Option<Self> {
        let first = points.first()?;
        let mut bb = Self {
            min_lat: first.lat(),
            max_lat: first.lat(),
            min_lon: first.lon(),
            max_lon: first.lon(),
        };
        for p in &points[1..] {
            bb.min_lat = bb.min_lat.min(p.lat());
            bb.max_lat = bb.max_lat.max(p.lat());
            bb.min_lon = bb.min_lon.min(p.lon());
            bb.max_lon = bb.max_lon.max(p.lon());
        }
        Some(bb)
    }

    /// The bounding box used by the cleaning pipeline to decide whether a
    /// location is plausibly within the greater Dublin service area.
    ///
    /// Covers the Moby service area generously: from Bray in the south to
    /// Swords in the north, and from the Irish Sea coast to Leixlip in the
    /// west.
    pub fn dublin() -> Self {
        Self {
            min_lat: 53.20,
            max_lat: 53.46,
            min_lon: -6.55,
            max_lon: -6.03,
        }
    }

    /// Whether the box contains the point (inclusive on all edges).
    #[inline]
    pub fn contains(&self, p: GeoPoint) -> bool {
        p.lat() >= self.min_lat
            && p.lat() <= self.max_lat
            && p.lon() >= self.min_lon
            && p.lon() <= self.max_lon
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn construction_validates_ordering() {
        assert!(BoundingBox::new(53.0, -6.5, 53.5, -6.0).is_ok());
        assert!(BoundingBox::new(53.5, -6.5, 53.0, -6.0).is_err());
        assert!(BoundingBox::new(53.0, -6.0, 53.5, -6.5).is_err());
    }

    #[test]
    fn dublin_contains_city_centre_not_cork() {
        let bb = BoundingBox::dublin();
        assert!(bb.contains(p(53.3498, -6.2603))); // O'Connell St
        assert!(bb.contains(p(53.2920, -6.1360))); // Dún Laoghaire
        assert!(!bb.contains(p(51.8985, -8.4756))); // Cork
        assert!(!bb.contains(p(53.2707, -9.0568))); // Galway
    }

    #[test]
    fn from_points_is_tight() {
        let pts = [p(53.1, -6.4), p(53.4, -6.1), p(53.2, -6.3)];
        let bb = BoundingBox::from_points(&pts).unwrap();
        assert_eq!(bb.min_lat, 53.1);
        assert_eq!(bb.max_lat, 53.4);
        assert_eq!(bb.min_lon, -6.4);
        assert_eq!(bb.max_lon, -6.1);
        for q in pts {
            assert!(bb.contains(q));
        }
    }

    #[test]
    fn from_points_empty_is_none() {
        assert!(BoundingBox::from_points(&[]).is_none());
    }

    #[test]
    fn boundary_points_are_contained() {
        let bb = BoundingBox::new(53.0, -6.4, 53.2, -6.2).unwrap();
        assert!(bb.contains(p(53.0, -6.4)));
        assert!(bb.contains(p(53.2, -6.2)));
    }
}
