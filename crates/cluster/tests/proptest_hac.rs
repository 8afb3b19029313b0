//! Differential property tests: the threshold-sparse HAC behind
//! `try_hac_clusters` cuts to exactly the clusters of the dense reference
//! `hac_dendrogram(points, linkage).cut(t)`, for every linkage, on random
//! points, on lattices full of duplicates and exact ties, and at any
//! latitude; and the diameters that `constrained_clustering` folds from
//! the complete-linkage merges equal `cluster_diameter` bit for bit.

use moby_cluster::constrained::{constrained_clustering, ConstrainedConfig};
use moby_cluster::hac::{cluster_diameter, hac_dendrogram, try_hac_clusters};
use moby_cluster::linkage::Linkage;
use moby_geo::{destination_point, GeoPoint};
use proptest::prelude::*;

/// Compare every linkage's flat clusters with the dense reference, and the
/// complete-linkage candidates' diameters with a pass over every pair.
fn assert_matches_dense(points: &[GeoPoint], cut: f64) {
    for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
        let got = try_hac_clusters(points, linkage, cut).expect("small input, valid cut");
        let want = hac_dendrogram(points, linkage).cut(cut);
        prop_assert_eq!(got, want, "{:?} linkage cut at {} m", linkage, cut);
    }
    assert_diameters_match(points, cut);
}

/// Every candidate cluster's `diameter_m` is bit for bit its
/// `cluster_diameter`. A zero absorb radius leaves every location free
/// unless it sits exactly on the station.
fn assert_diameters_match(points: &[GeoPoint], cut: f64) {
    let config = ConstrainedConfig {
        station_absorb_radius_m: 0.0,
        cluster_boundary_m: cut,
        linkage: Linkage::Complete,
    };
    let station = GeoPoint::new(0.0, 0.0).expect("in range");
    let out = constrained_clustering(&[station], points, &config).expect("valid config");
    for c in &out.candidate_clusters {
        prop_assert_eq!(
            c.diameter_m.to_bits(),
            cluster_diameter(points, &c.members).to_bits(),
            "cluster {:?} cut at {} m",
            c.members,
            cut
        );
    }
}

/// Points scattered by (bearing, distance) offsets around `anchor`.
fn scatter(anchor: GeoPoint, offsets: &[(f64, f64)]) -> Vec<GeoPoint> {
    offsets
        .iter()
        .map(|&(bearing, dist)| destination_point(anchor, bearing, dist))
        .collect()
}

/// A point in a ~3 km box of central Dublin, dense enough that cuts of
/// 40–400 m give clusters of every size.
fn dublin_point() -> impl Strategy<Value = GeoPoint> {
    (53.335f64..53.36, -6.29f64..-6.25)
        .prop_map(|(lat, lon)| GeoPoint::new(lat, lon).expect("in range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn random_dublin_points_match_the_dense_reference(
        points in prop::collection::vec(dublin_point(), 1..120),
        cut in 40.0f64..400.0,
    ) {
        assert_matches_dense(&points, cut);
    }

    #[test]
    fn lattice_snaps_with_duplicates_and_ties_match_the_dense_reference(
        cells in prop::collection::vec((0u32..6, 0u32..6), 2..42),
        step in 30.0f64..100.0,
        cut in 40.0f64..400.0,
        ratio in 0usize..4,
    ) {
        // Every point snapped to a 6×6 lattice, so duplicates (distance 0)
        // and equal lattice offsets are the norm; cuts also land on a
        // lattice distance (1, √2, 2 or √5 steps) to put pairs exactly at
        // the threshold.
        let lat_step = step / 111_195.0;
        let lon_step = lat_step / 53.35f64.to_radians().cos();
        let points: Vec<GeoPoint> = cells
            .iter()
            .map(|&(i, j)| {
                GeoPoint::new(53.35 + f64::from(i) * lat_step, -6.26 + f64::from(j) * lon_step)
                    .expect("in range")
            })
            .collect();
        assert_matches_dense(&points, cut);
        let on_lattice = [1.0, 2f64.sqrt(), 2.0, 5f64.sqrt()][ratio] * step;
        assert_matches_dense(&points, on_lattice.clamp(40.0, 400.0));
    }

    #[test]
    fn points_at_any_latitude_match_the_dense_reference(
        anchor in (-89.0f64..89.0, -170.0f64..170.0),
        offsets in prop::collection::vec((0.0f64..360.0, 0.0f64..600.0), 1..90),
        cut in 40.0f64..400.0,
    ) {
        let anchor = GeoPoint::new(anchor.0, anchor.1).expect("in range");
        assert_matches_dense(&scatter(anchor, &offsets), cut);
    }

    #[test]
    fn points_at_high_latitude_match_the_dense_reference(
        anchor in (75.0f64..85.0, -170.0f64..170.0),
        south in 0u32..2,
        offsets in prop::collection::vec((0.0f64..360.0, 0.0f64..600.0), 1..90),
        cut in 40.0f64..400.0,
    ) {
        // Columns there are a third to a tenth as wide in metres as at the
        // reference latitude of a Dublin-sized grid.
        let lat = if south == 1 { -anchor.0 } else { anchor.0 };
        let anchor = GeoPoint::new(lat, anchor.1).expect("in range");
        assert_matches_dense(&scatter(anchor, &offsets), cut);
    }
}
