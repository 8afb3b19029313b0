//! Simple polygons and point-in-polygon tests.
//!
//! The cleaning pipeline in the paper removes "locations that are not on
//! land" and "locations outside Dublin". We model both rules with simple
//! (non-self-intersecting) polygons and an even–odd ray-casting containment
//! test. The polygons shipped here are deliberately simplified — the rule
//! *semantics* (spatial containment filter) are what matter for the
//! reproduction, not cartographic fidelity.

use crate::{BoundingBox, GeoError, GeoPoint, Result};
use serde::{Deserialize, Serialize};

/// A simple polygon on the surface of the Earth, stored as an ordered list
/// of vertices (implicitly closed).
///
/// Containment uses the even–odd ray-casting rule in lat/lon space, which is
/// accurate for city-scale polygons far from the poles and the antimeridian.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    vertices: Vec<GeoPoint>,
    bbox: BoundingBox,
}

impl Polygon {
    /// Create a polygon from at least three vertices.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::DegeneratePolygon`] when fewer than three vertices
    /// are supplied.
    pub fn new(vertices: Vec<GeoPoint>) -> Result<Self> {
        if vertices.len() < 3 {
            return Err(GeoError::DegeneratePolygon {
                vertices: vertices.len(),
            });
        }
        let bbox = BoundingBox::from_points(&vertices).expect("non-empty");
        Ok(Self { vertices, bbox })
    }

    /// Even–odd ray-casting containment test.
    ///
    /// Points exactly on an edge may be classified either way (floating
    /// point); the cleaning rules only care about gross containment so this
    /// is acceptable.
    pub fn contains(&self, p: GeoPoint) -> bool {
        if !self.bbox.contains(p) {
            return false;
        }
        let (px, py) = (p.lon(), p.lat());
        let mut inside = false;
        let n = self.vertices.len();
        let mut j = n - 1;
        for i in 0..n {
            let (xi, yi) = (self.vertices[i].lon(), self.vertices[i].lat());
            let (xj, yj) = (self.vertices[j].lon(), self.vertices[j].lat());
            let crosses = (yi > py) != (yj > py);
            if crosses {
                let x_at_y = (xj - xi) * (py - yi) / (yj - yi) + xi;
                if px < x_at_y {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }
}

/// A generous polygon around the greater Dublin area served by Moby Bikes.
///
/// Vertices trace (approximately) Swords → Howth → Dalkey → Bray →
/// Tallaght → Lucan → Blanchardstown → back to Swords.
pub fn dublin_boundary() -> Polygon {
    let coords = [
        (53.455, -6.22), // Swords
        (53.39, -6.05),  // Howth Head
        (53.27, -6.09),  // Dalkey / Killiney
        (53.20, -6.11),  // Bray
        (53.27, -6.40),  // Tallaght
        (53.35, -6.47),  // Lucan
        (53.42, -6.40),  // Blanchardstown north
    ];
    let vertices = coords
        .iter()
        .map(|&(lat, lon)| GeoPoint::new(lat, lon).expect("static vertex valid"))
        .collect();
    Polygon::new(vertices).expect("static polygon has >= 3 vertices")
}

/// A simplified "land" mask for the Dublin area: the Dublin boundary with
/// the Dublin Bay wedge cut out, so that points in the Irish Sea / Dublin
/// Bay are classified as *not on land*.
///
/// The bay is approximated by the triangle (Howth Head, Dún Laoghaire pier,
/// Dublin Port), which covers the water body between the north and south
/// bulls.
pub fn dublin_land_mask() -> LandMask {
    let bay = Polygon::new(vec![
        GeoPoint::new(53.384, -6.066).expect("valid"), // Howth Head
        GeoPoint::new(53.302, -6.115).expect("valid"), // Dún Laoghaire pier
        GeoPoint::new(53.346, -6.195).expect("valid"), // Dublin Port mouth
    ])
    .expect("triangle");
    LandMask {
        boundary: dublin_boundary(),
        water: vec![bay],
    }
}

/// A land mask: a service-area boundary with zero or more water polygons
/// subtracted.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LandMask {
    boundary: Polygon,
    water: Vec<Polygon>,
}

impl LandMask {
    /// Whether the point is inside the boundary (i.e. in the service area at
    /// all, on land or not).
    pub fn in_service_area(&self, p: GeoPoint) -> bool {
        self.boundary.contains(p)
    }

    /// Whether the point is on land: inside the boundary and not inside any
    /// water polygon.
    pub fn on_land(&self, p: GeoPoint) -> bool {
        self.boundary.contains(p) && !self.water.iter().any(|w| w.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn rejects_degenerate_polygon() {
        assert!(matches!(
            Polygon::new(vec![p(53.0, -6.0), p(53.1, -6.1)]),
            Err(GeoError::DegeneratePolygon { vertices: 2 })
        ));
    }

    #[test]
    fn unit_square_containment() {
        let sq = Polygon::new(vec![p(0.0, 0.0), p(0.0, 1.0), p(1.0, 1.0), p(1.0, 0.0)]).unwrap();
        assert!(sq.contains(p(0.5, 0.5)));
        assert!(!sq.contains(p(1.5, 0.5)));
        assert!(!sq.contains(p(-0.5, 0.5)));
        assert!(!sq.contains(p(0.5, 1.5)));
    }

    #[test]
    fn concave_polygon_containment() {
        // An L-shape: the notch at the top-right must be outside.
        let l = Polygon::new(vec![
            p(0.0, 0.0),
            p(0.0, 2.0),
            p(1.0, 2.0),
            p(1.0, 1.0),
            p(2.0, 1.0),
            p(2.0, 0.0),
        ])
        .unwrap();
        assert!(l.contains(p(0.5, 0.5)));
        assert!(l.contains(p(0.5, 1.5)));
        assert!(l.contains(p(1.5, 0.5)));
        assert!(!l.contains(p(1.5, 1.5)), "notch should be outside");
    }

    #[test]
    fn dublin_boundary_contains_city_centre() {
        let dub = dublin_boundary();
        assert!(dub.contains(p(53.3498, -6.2603))); // O'Connell St
        assert!(dub.contains(p(53.3561, -6.3298))); // Phoenix Park
        assert!(dub.contains(p(53.2945, -6.1336))); // Dún Laoghaire town
        assert!(!dub.contains(p(51.8985, -8.4756))); // Cork
        assert!(!dub.contains(p(53.52, -6.26))); // well north of Swords
    }

    #[test]
    fn land_mask_excludes_dublin_bay() {
        let mask = dublin_land_mask();
        assert!(mask.on_land(p(53.3498, -6.2603))); // city centre
        assert!(mask.on_land(p(53.3561, -6.3298))); // Phoenix Park
                                                    // Middle of Dublin Bay.
        let bay_point = p(53.335, -6.13);
        assert!(mask.in_service_area(bay_point));
        assert!(!mask.on_land(bay_point), "bay should not be land");
        // Outside the service area entirely.
        assert!(!mask.on_land(p(53.6, -6.2)));
        assert!(!mask.in_service_area(p(53.6, -6.2)));
    }
}
