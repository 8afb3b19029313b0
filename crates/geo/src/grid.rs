//! A uniform-cell spatial index.
//!
//! The grid index answers radius queries ("every location within 100 m of
//! this one") and builds the whole "within a radius" relation at once as
//! sorted neighbour rows ([`GridIndex::neighbour_rows`]). The rows are what
//! the HAC clustering runs on; nearest-neighbour queries go to the
//! [`crate::KdTree`].
//!
//! Cells are uniform in degrees and sized in metres at a reference
//! latitude. A radius probe visits as many cells as the query's own
//! latitude needs: columns narrow towards the poles, so a query poleward
//! of the reference latitude visits more of them, and one whose radius
//! reaches a pole visits every column. Longitude does not wrap: two points
//! on either side of the ±180° meridian are never neighbours to the grid.

use crate::distance::haversine_cos;
use crate::{haversine_m, GeoError, GeoPoint, Result, EARTH_RADIUS_M};
use std::collections::BTreeMap;
use std::f64::consts::{FRAC_PI_2, PI};

/// Approximate metres per degree of latitude.
const M_PER_DEG_LAT: f64 = 111_195.0;

/// A spatial index over uniform latitude/longitude cells, mapping points to
/// caller-supplied payloads of type `T`.
///
/// The cell size is chosen in metres at construction; all distance
/// computations inside queries use the exact Haversine distance, the grid
/// only prunes candidates.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    cell_m: f64,
    cos_ref_lat: f64,
    /// Entry indices per `(row, column)` cell. Sorted keys make the cells
    /// of one row within a column range a single range scan, however wide
    /// the range.
    cells: BTreeMap<(i64, i64), Vec<usize>>,
    entries: Vec<(GeoPoint, T)>,
}

/// The "within a radius" relation over a [`GridIndex`]'s points, one row
/// per point in insertion order. Built by [`GridIndex::neighbour_rows`].
#[derive(Debug, Clone, PartialEq)]
pub struct NeighbourRows {
    /// Row `i` is `entries[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<usize>,
    entries: Vec<(usize, f64)>,
}

impl NeighbourRows {
    /// Number of rows, one per indexed point.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `i`: `(j, distance)` for every other point `j` within the
    /// radius, sorted by `j`.
    pub fn row(&self, i: usize) -> &[(usize, f64)] {
        &self.entries[self.offsets[i]..self.offsets[i + 1]]
    }

    /// The row offsets (`len() + 1` of them) and the flat entry list they
    /// index, for a caller that rewrites rows in place.
    pub fn into_parts(self) -> (Vec<usize>, Vec<(usize, f64)>) {
        (self.offsets, self.entries)
    }
}

/// Whole cells to probe on each side of a cell at coordinate `at` (in
/// cells) to cover `reach` cells. Cell coordinates are rounded products of
/// at most three operations; the slack covers that rounding on both the
/// query's and the partner's coordinate.
fn span(reach: f64, at: i64) -> i64 {
    let slack = 1e-14 * (at.unsigned_abs() as f64 + reach + 1.0);
    // `as` saturates, and every use of the span saturates too.
    (reach + slack).ceil() as i64
}

impl<T> GridIndex<T> {
    /// Create an empty index with the given cell edge length in metres.
    ///
    /// `reference_lat_deg` is used to convert longitude degrees to metres;
    /// pass the approximate latitude of the working area (Dublin ≈ 53.35).
    /// Queries are exact at any latitude; the reference only sets how many
    /// columns a probe visits.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDistance`] if the cell size is not a
    /// positive finite number.
    pub fn new(cell_m: f64, reference_lat_deg: f64) -> Result<Self> {
        if !cell_m.is_finite() || cell_m <= 0.0 {
            return Err(GeoError::InvalidDistance(cell_m));
        }
        Ok(Self {
            cell_m,
            cos_ref_lat: reference_lat_deg.to_radians().cos().max(1e-6),
            cells: BTreeMap::new(),
            entries: Vec::new(),
        })
    }

    fn cell_of(&self, p: GeoPoint) -> (i64, i64) {
        let y = (p.lat() * M_PER_DEG_LAT / self.cell_m).floor() as i64;
        let x = (p.lon() * M_PER_DEG_LAT * self.cos_ref_lat / self.cell_m).floor() as i64;
        (y, x)
    }

    /// Insert a point with its payload.
    pub fn insert(&mut self, p: GeoPoint, payload: T) {
        let idx = self.entries.len();
        let cell = self.cell_of(p);
        self.entries.push((p, payload));
        self.cells.entry(cell).or_default().push(idx);
    }

    /// Columns to probe on each side of a query in column `at` at
    /// latitude `lat_deg` for an angular radius `theta`, or `None` when
    /// the radius reaches a pole and every column must be probed.
    fn column_span(&self, theta: f64, lat_deg: f64, at: i64) -> Option<i64> {
        let lat = lat_deg.abs().to_radians();
        if theta >= FRAC_PI_2 - lat {
            return None;
        }
        // The widest longitude offset of a spherical cap of angular radius
        // `theta` centred at latitude `lat`. Near 1 the arcsine amplifies
        // rounding, so such a query (within about a radius of the pole)
        // probes every column instead.
        let s = theta.sin() / lat.cos();
        if s >= 0.9 {
            return None;
        }
        let reach = s.asin().to_degrees() * M_PER_DEG_LAT * self.cos_ref_lat / self.cell_m;
        Some(span(reach, at))
    }

    /// Call `visit` with the index of every entry in the cells that a
    /// query at `query` with angular radius `theta` must probe.
    fn for_each_candidate(&self, query: GeoPoint, theta: f64, mut visit: impl FnMut(usize)) {
        let (Some((&(y_min, _), _)), Some((&(y_max, _), _))) =
            (self.cells.first_key_value(), self.cells.last_key_value())
        else {
            return;
        };
        let (cy, cx) = self.cell_of(query);
        let rows = span(theta.to_degrees() * M_PER_DEG_LAT / self.cell_m, cy);
        let (x_lo, x_hi) = match self.column_span(theta, query.lat(), cx) {
            Some(cols) => (cx.saturating_sub(cols), cx.saturating_add(cols)),
            None => (i64::MIN, i64::MAX),
        };
        for y in cy.saturating_sub(rows).max(y_min)..=cy.saturating_add(rows).min(y_max) {
            for bucket in self.cells.range((y, x_lo)..=(y, x_hi)).map(|(_, b)| b) {
                bucket.iter().copied().for_each(&mut visit);
            }
        }
    }

    /// All payloads (with their points and exact distances) within
    /// `radius_m` of `query`, unsorted.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDistance`] for a negative or non-finite
    /// radius.
    pub fn within_radius(
        &self,
        query: GeoPoint,
        radius_m: f64,
    ) -> Result<Vec<(&GeoPoint, &T, f64)>> {
        if !radius_m.is_finite() || radius_m < 0.0 {
            return Err(GeoError::InvalidDistance(radius_m));
        }
        let mut out = Vec::new();
        self.for_each_candidate(query, radius_m / EARTH_RADIUS_M, |i| {
            let (p, payload) = &self.entries[i];
            let d = haversine_m(query, *p);
            if d <= radius_m {
                out.push((p, payload, d));
            }
        });
        Ok(out)
    }

    /// Every pair of indexed points at most `radius_m` apart, as one row
    /// per point.
    ///
    /// Row `i` (insertion order) lists `(j, d)` for each other point `j`
    /// within the radius, sorted by `j`, where `d` is bit for bit
    /// `haversine_m` of the two points with the lower index first.
    ///
    /// Each pair is found once, from its lower index. Per-point
    /// trigonometry is computed once, and a polynomial lower bound on the
    /// Haversine term rejects most far candidates before the exact
    /// distance is taken; the bound never rejects a pair the exact
    /// distance would keep.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDistance`] for a negative or non-finite
    /// radius.
    pub fn neighbour_rows(&self, radius_m: f64) -> Result<NeighbourRows> {
        if !radius_m.is_finite() || radius_m < 0.0 {
            return Err(GeoError::InvalidDistance(radius_m));
        }
        let n = self.entries.len();
        let theta = radius_m / EARTH_RADIUS_M;
        let trig: Vec<[f64; 3]> = self
            .entries
            .iter()
            .map(|(p, _)| {
                let lat = p.lat_rad();
                [lat, p.lon_rad(), lat.cos()]
            })
            .collect();
        // `haversine_m(p, q) <= radius_m` needs the Haversine term
        // `h = sin²(Δφ/2) + cos φp cos φq sin²(Δλ/2)` to be at most
        // `sin²(θ/2)`. The relative margin covers the rounding of both
        // sides, and the floor keeps underflowed terms.
        let h_max = if theta >= PI {
            f64::INFINITY
        } else {
            ((theta * 0.5).sin().powi(2) * (1.0 + 1e-9)).max(f64::MIN_POSITIVE)
        };

        // Pairs (i, j > i), grouped by i and sorted by j within a group,
        // counting each row's lower neighbours as they turn up.
        let mut entries: Vec<(usize, f64)> = Vec::new();
        let mut upper_len = vec![0usize; n];
        let mut lower_len = vec![0usize; n];
        for (i, &(query, _)) in self.entries.iter().enumerate() {
            let [lat_i, lon_i, cos_i] = trig[i];
            let first = entries.len();
            self.for_each_candidate(query, theta, |j| {
                if j <= i {
                    return;
                }
                let [lat_j, lon_j, cos_j] = trig[j];
                let a = (lat_i - lat_j) * 0.5;
                let b = (lon_i - lon_j) * 0.5;
                // sin²x ≥ x²(1 − x²/3) for every x, so this is at most h.
                let lower =
                    a * a * (1.0 - a * a / 3.0) + cos_i * cos_j * (b * b * (1.0 - b * b / 3.0));
                if lower > h_max {
                    return;
                }
                let d = haversine_cos(lat_i, lon_i, cos_i, lat_j, lon_j, cos_j);
                if d <= radius_m {
                    entries.push((j, d));
                    lower_len[j] += 1;
                }
            });
            entries[first..].sort_unstable_by_key(|&(j, _)| j);
            upper_len[i] = entries.len() - first;
        }

        // Row i is its lower neighbours, then its upper ones. Move each
        // upper group to its final place in the same buffer, last group
        // first since each moves up; then mirror every pair into its lower
        // row. Sweeping i upwards writes each row's lower neighbours in
        // ascending order.
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + lower_len[i] + upper_len[i];
        }
        let mut group = entries.len();
        entries.resize(offsets[n], (0, 0.0));
        for i in (0..n).rev() {
            group -= upper_len[i];
            entries.copy_within(group..group + upper_len[i], offsets[i] + lower_len[i]);
        }
        let mut cursor = offsets[..n].to_vec();
        for i in 0..n {
            for k in offsets[i] + lower_len[i]..offsets[i + 1] {
                let (j, d) = entries[k];
                entries[cursor[j]] = (i, d);
                cursor[j] += 1;
            }
        }
        Ok(NeighbourRows { offsets, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        assert!(GridIndex::<u32>::new(0.0, 53.0).is_err());
        assert!(GridIndex::<u32>::new(-5.0, 53.0).is_err());
        assert!(GridIndex::<u32>::new(f64::NAN, 53.0).is_err());
    }

    #[test]
    fn within_radius_respects_threshold() {
        let mut g = GridIndex::new(50.0, 53.35).unwrap();
        let base = p(53.3500, -6.2600);
        // ~0, ~55 m, ~111 m north of base.
        g.insert(base, 0u32);
        g.insert(p(53.3505, -6.2600), 1u32);
        g.insert(p(53.3510, -6.2600), 2u32);
        let near = g.within_radius(base, 60.0).unwrap();
        let ids: Vec<u32> = near.iter().map(|(_, id, _)| **id).collect();
        assert!(ids.contains(&0));
        assert!(ids.contains(&1));
        assert!(!ids.contains(&2));
    }

    #[test]
    fn within_radius_rejects_bad_radius() {
        let g = GridIndex::<u32>::new(50.0, 53.35).unwrap();
        assert!(g.within_radius(p(53.3, -6.2), -1.0).is_err());
        assert!(g.within_radius(p(53.3, -6.2), f64::NAN).is_err());
        assert!(g.neighbour_rows(-1.0).is_err());
        assert!(g.neighbour_rows(f64::INFINITY).is_err());
    }

    #[test]
    fn within_radius_finds_east_west_pairs_at_high_latitude() {
        // A grid sized at Dublin's latitude has columns ~100 m wide there
        // but only ~47 m wide at 75° N and ~31 m at 80° N; a probe sized
        // from the reference latitude missed most 90 m east-west pairs.
        for lat in [75.0, 80.0, 85.0, -80.0] {
            let mut g = GridIndex::new(100.0, 53.35).unwrap();
            for k in 0..200 {
                let a = p(lat + f64::from(k) * 0.01, -6.26 + f64::from(k) * 0.013);
                g.insert(a, 2 * k);
                g.insert(crate::destination_point(a, 90.0, 90.0), 2 * k + 1);
            }
            for (k, (q, id)) in g.entries.iter().enumerate() {
                let near = g.within_radius(*q, 100.0).unwrap();
                let partner = id ^ 1;
                assert!(
                    near.iter().any(|(_, j, _)| **j == partner),
                    "lat {lat}: point {k} lost its partner 90 m east-west"
                );
            }
            let rows = g.neighbour_rows(100.0).unwrap();
            for i in 0..rows.len() {
                assert!(rows.row(i).iter().any(|&(j, _)| j == i ^ 1), "lat {lat}");
            }
        }
    }

    #[test]
    fn radius_reaching_a_pole_probes_every_column() {
        let mut g = GridIndex::new(100.0, 53.35).unwrap();
        let pole_side = [p(89.9995, -170.0), p(89.9995, 10.0), p(89.9995, 100.0)];
        for (i, q) in pole_side.iter().enumerate() {
            g.insert(*q, i);
        }
        // The three points sit ~56 m from the pole, so at most ~112 m apart.
        let rows = g.neighbour_rows(120.0).unwrap();
        for i in 0..3 {
            assert_eq!(rows.row(i).len(), 2, "row {i}: {:?}", rows.row(i));
        }
        assert_eq!(g.within_radius(pole_side[0], 120.0).unwrap().len(), 3);
    }

    #[test]
    fn neighbour_rows_are_sorted_bit_exact_and_match_brute_force() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Cells as wide as the radius, narrower (several cells per probe)
        // and wider, with the reference latitude off the data's.
        for &(lat, radius, cell) in &[
            (53.35, 100.0, 100.0),
            (78.0, 60.0, 25.0),
            (-33.9, 250.0, 400.0),
            (0.0, 40.0, 40.0),
        ] {
            let mut g = GridIndex::new(cell, 53.35).unwrap();
            let pts: Vec<GeoPoint> = (0..400)
                .map(|_| {
                    let base = p(lat, 10.0);
                    crate::destination_point(
                        base,
                        rng.gen_range(0.0..360.0),
                        rng.gen_range(0.0..1_500.0),
                    )
                })
                .collect();
            for (i, q) in pts.iter().enumerate() {
                g.insert(*q, i);
            }
            let rows = g.neighbour_rows(radius).unwrap();
            assert_eq!(rows.len(), pts.len());
            for i in 0..pts.len() {
                let want: Vec<(usize, u64)> = (0..pts.len())
                    .filter(|&j| j != i)
                    .map(|j| (j, haversine_m(pts[i.min(j)], pts[i.max(j)])))
                    .filter(|&(_, d)| d <= radius)
                    .map(|(j, d)| (j, d.to_bits()))
                    .collect();
                let got: Vec<(usize, u64)> =
                    rows.row(i).iter().map(|&(j, d)| (j, d.to_bits())).collect();
                assert_eq!(got, want, "lat {lat}, row {i}");
            }
        }
    }

    #[test]
    fn neighbour_rows_of_duplicates_and_an_empty_grid() {
        let g = GridIndex::<()>::new(100.0, 53.35).unwrap();
        assert!(g.neighbour_rows(100.0).unwrap().is_empty());
        let mut g = GridIndex::new(1.0, 53.35).unwrap();
        let q = p(53.35, -6.26);
        for i in 0..3 {
            g.insert(q, i);
        }
        let rows = g.neighbour_rows(0.0).unwrap();
        assert_eq!(rows.row(1), &[(0, 0.0), (2, 0.0)]);
    }
}
