//! Great-circle distance and bearing calculations.
//!
//! The Haversine formula is the distance metric mandated by the paper
//! (eq. 1): it "remains accurate for computations at small distances unlike
//! calculations based on the spherical law of cosine". All station-placement
//! thresholds (50 m, 100 m, 250 m) are evaluated with [`haversine_m`].

use crate::GeoPoint;

/// Mean Earth radius in metres (IUGG mean radius R1).
pub const EARTH_RADIUS_M: f64 = 6_371_008.8;

/// Haversine great-circle distance between two points, in metres.
///
/// Implements paper eq. 1:
///
/// ```text
/// d = 2 R asin( sqrt( sin²((φ1-φ2)/2) + cos φ1 cos φ2 sin²((λ1-λ2)/2) ) )
/// ```
///
/// The formula is numerically stable for the small (metre-scale) distances
/// that dominate this workload.
#[inline]
pub fn haversine_m(a: GeoPoint, b: GeoPoint) -> f64 {
    haversine_rad(a.lat_rad(), a.lon_rad(), b.lat_rad(), b.lon_rad())
}

/// Haversine distance from raw radian coordinates, in metres.
///
/// This variant is exposed so that hot loops (e.g. the HAC distance matrix)
/// can pre-convert coordinates to radians once.
#[inline]
pub fn haversine_rad(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    term_to_m(haversine_term(
        lat1,
        lon1,
        lat1.cos(),
        lat2,
        lon2,
        lat2.cos(),
    ))
}

/// The Haversine term `h = sin²(Δφ/2) + cos φ1 cos φ2 sin²(Δλ/2)`, with
/// each latitude's cosine passed in, so that a loop over many pairs
/// computes each cosine once. [`term_to_m`] of it is bit for bit
/// [`haversine_rad`].
#[inline]
pub(crate) fn haversine_term(
    lat1: f64,
    lon1: f64,
    cos1: f64,
    lat2: f64,
    lon2: f64,
    cos2: f64,
) -> f64 {
    let dlat = (lat1 - lat2) * 0.5;
    let dlon = (lon1 - lon2) * 0.5;
    dlat.sin().powi(2) + cos1 * cos2 * dlon.sin().powi(2)
}

/// The distance in metres of a Haversine term, non-decreasing in `h`.
#[inline]
pub(crate) fn term_to_m(h: f64) -> f64 {
    // Clamp to guard against floating point drift pushing sqrt(h) above 1.
    2.0 * EARTH_RADIUS_M * h.sqrt().min(1.0).asin()
}

/// A lower bound on [`haversine_term`] without trigonometry:
/// `sin²x ≥ x²(1 − x²/3)` for every `x`. Rounding can put the computed
/// bound a few ulps above the computed term, so a caller that rejects on
/// it compares with a relative margin.
#[inline]
pub(crate) fn haversine_term_lower(
    lat1: f64,
    lon1: f64,
    cos1: f64,
    lat2: f64,
    lon2: f64,
    cos2: f64,
) -> f64 {
    let a = (lat1 - lat2) * 0.5;
    let b = (lon1 - lon2) * 0.5;
    a * a * (1.0 - a * a / 3.0) + cos1 * cos2 * (b * b * (1.0 - b * b / 3.0))
}

/// Fast equirectangular approximation of the distance between two points,
/// in metres.
///
/// Accurate to well under 0.1 % at city scale; used only where an index
/// needs a cheap lower bound (the exact Haversine is always used for the
/// final rule checks).
#[inline]
pub fn equirectangular_m(a: GeoPoint, b: GeoPoint) -> f64 {
    let mean_lat = 0.5 * (a.lat_rad() + b.lat_rad());
    let x = (b.lon_rad() - a.lon_rad()) * mean_lat.cos();
    let y = b.lat_rad() - a.lat_rad();
    EARTH_RADIUS_M * (x * x + y * y).sqrt()
}

/// Initial bearing (forward azimuth) from `a` to `b`, in degrees in
/// `[0, 360)`.
pub fn bearing_deg(a: GeoPoint, b: GeoPoint) -> f64 {
    let (lat1, lon1) = (a.lat_rad(), a.lon_rad());
    let (lat2, lon2) = (b.lat_rad(), b.lon_rad());
    let dlon = lon2 - lon1;
    let y = dlon.sin() * lat2.cos();
    let x = lat1.cos() * lat2.sin() - lat1.sin() * lat2.cos() * dlon.cos();
    let deg = y.atan2(x).to_degrees();
    (deg + 360.0) % 360.0
}

/// The point reached by travelling `distance_m` metres from `start` along
/// the given initial `bearing_deg` (degrees clockwise from north).
///
/// Used by the synthetic data generator to scatter dockless drop-off
/// locations around station centroids.
pub fn destination_point(start: GeoPoint, bearing_deg: f64, distance_m: f64) -> GeoPoint {
    let ang = distance_m / EARTH_RADIUS_M;
    let brg = bearing_deg.to_radians();
    let lat1 = start.lat_rad();
    let lon1 = start.lon_rad();

    let lat2 = (lat1.sin() * ang.cos() + lat1.cos() * ang.sin() * brg.cos()).asin();
    let lon2 =
        lon1 + (brg.sin() * ang.sin() * lat1.cos()).atan2(ang.cos() - lat1.sin() * lat2.sin());

    // Normalise longitude to [-180, 180] and clamp latitude defensively.
    let mut lon_deg = lon2.to_degrees();
    if lon_deg > 180.0 {
        lon_deg -= 360.0;
    } else if lon_deg < -180.0 {
        lon_deg += 360.0;
    }
    let lat_deg = lat2.to_degrees().clamp(-90.0, 90.0);
    GeoPoint::new(lat_deg, lon_deg).expect("destination point is always in range")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn zero_distance_to_self() {
        let a = p(53.35, -6.26);
        assert_eq!(haversine_m(a, a), 0.0);
    }

    #[test]
    fn symmetric() {
        let a = p(53.35, -6.26);
        let b = p(53.29, -6.13);
        assert!((haversine_m(a, b) - haversine_m(b, a)).abs() < 1e-9);
    }

    #[test]
    fn known_distance_dublin_to_cork() {
        // Dublin (53.3498, -6.2603) to Cork (51.8985, -8.4756) ≈ 220 km.
        let d = haversine_m(p(53.3498, -6.2603), p(51.8985, -8.4756));
        assert!((d - 220_000.0).abs() < 5_000.0, "got {d}");
    }

    #[test]
    fn known_distance_equator_degree() {
        // One degree of longitude at the equator ≈ 111.19 km.
        let d = haversine_m(p(0.0, 0.0), p(0.0, 1.0));
        assert!((d - 111_195.0).abs() < 100.0, "got {d}");
    }

    #[test]
    fn small_distance_accuracy() {
        // ~50 m north of a point: 50 / 111_195 degrees of latitude.
        let a = p(53.35, -6.26);
        let b = p(53.35 + 50.0 / 111_195.0, -6.26);
        let d = haversine_m(a, b);
        assert!((d - 50.0).abs() < 0.05, "got {d}");
    }

    #[test]
    fn equirectangular_close_to_haversine_at_city_scale() {
        let a = p(53.3498, -6.2603);
        let b = p(53.3600, -6.3200);
        let h = haversine_m(a, b);
        let e = equirectangular_m(a, b);
        assert!((h - e).abs() / h < 1e-3, "h={h} e={e}");
    }

    #[test]
    fn antipodal_does_not_panic() {
        let d = haversine_m(p(0.0, 0.0), p(0.0, 180.0));
        // Half the Earth's circumference ≈ 20,015 km.
        assert!((d - std::f64::consts::PI * EARTH_RADIUS_M).abs() < 1.0);
    }

    #[test]
    fn bearing_north_east_south_west() {
        let o = p(53.0, -6.0);
        assert!((bearing_deg(o, p(54.0, -6.0)) - 0.0).abs() < 1e-6);
        let e = bearing_deg(o, p(53.0, -5.0));
        assert!((e - 90.0).abs() < 1.0, "east bearing {e}");
        let s = bearing_deg(o, p(52.0, -6.0));
        assert!((s - 180.0).abs() < 1e-6, "south bearing {s}");
        let w = bearing_deg(o, p(53.0, -7.0));
        assert!((w - 270.0).abs() < 1.0, "west bearing {w}");
    }

    #[test]
    fn destination_point_round_trip() {
        let start = p(53.3498, -6.2603);
        for (brg, dist) in [(0.0, 100.0), (90.0, 250.0), (215.0, 1234.5), (359.0, 40.0)] {
            let dest = destination_point(start, brg, dist);
            let d = haversine_m(start, dest);
            assert!(
                (d - dist).abs() < 0.01,
                "bearing {brg}, want {dist}, got {d}"
            );
        }
    }

    #[test]
    fn destination_point_zero_distance_is_start() {
        let start = p(53.3498, -6.2603);
        let dest = destination_point(start, 45.0, 0.0);
        assert!(haversine_m(start, dest) < 1e-6);
    }
}
