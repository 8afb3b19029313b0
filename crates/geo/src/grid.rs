//! A uniform-cell spatial index.
//!
//! The grid index builds the whole "within a radius" relation over its
//! points at once, as sorted neighbour rows ([`GridIndex::neighbour_rows`]).
//! The rows are what the HAC clustering runs on; nearest-neighbour queries
//! go to the [`crate::KdTree`].
//!
//! Cells are uniform in degrees and sized in metres at a reference
//! latitude. A radius probe visits as many cells as the query's own
//! latitude needs: columns narrow towards the poles, so a query poleward
//! of the reference latitude visits more of them, and one whose radius
//! reaches a pole visits every column. Longitude does not wrap: two points
//! on either side of the ±180° meridian are never neighbours to the grid.

use crate::distance::{haversine_term, haversine_term_lower, term_to_m};
use crate::{GeoError, GeoPoint, Result, EARTH_RADIUS_M};
use std::f64::consts::{FRAC_PI_2, PI};

/// Approximate metres per degree of latitude.
const M_PER_DEG_LAT: f64 = 111_195.0;

/// A spatial index over uniform latitude/longitude cells.
///
/// The cell size is chosen in metres at construction; the cells only prune
/// candidates, and every kept distance is the exact Haversine distance.
#[derive(Debug, Clone)]
pub struct GridIndex {
    cell_m: f64,
    cos_ref_lat: f64,
    points: Vec<GeoPoint>,
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

/// The points in one flat layout sorted by cell, so that a probe finds a
/// cell row's run of cells by binary search and scans it contiguously.
struct Cells {
    /// The occupied cells, `(row, column)`, ascending.
    keys: Vec<(i64, i64)>,
    /// Cell `c` holds `points[starts[c]..starts[c + 1]]`.
    starts: Vec<usize>,
    /// Each point's index and `[lat, lon, cos lat]` (radians), by cell and
    /// then by index.
    points: Vec<(usize, [f64; 3])>,
}

impl Cells {
    fn new(mut cells: Vec<((i64, i64), usize)>, trig: &[[f64; 3]]) -> Cells {
        cells.sort_unstable();
        let mut keys: Vec<(i64, i64)> = Vec::new();
        let mut starts = Vec::new();
        let mut points = Vec::with_capacity(cells.len());
        for (cell, i) in cells {
            if keys.last() != Some(&cell) {
                keys.push(cell);
                starts.push(points.len());
            }
            points.push((i, trig[i]));
        }
        starts.push(points.len());
        Cells {
            keys,
            starts,
            points,
        }
    }

    /// The points of row `y`'s cells in columns `x_lo..=x_hi`.
    fn run(&self, y: i64, x_lo: i64, x_hi: i64) -> &[(usize, [f64; 3])] {
        let from = self.keys.partition_point(|&k| k < (y, x_lo));
        let to = from + self.keys[from..].partition_point(|&k| k <= (y, x_hi));
        &self.points[self.starts[from]..self.starts[to]]
    }
}

impl GridIndex {
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
            points: Vec::new(),
        })
    }

    fn cell_of(&self, p: GeoPoint) -> (i64, i64) {
        let y = (p.lat() * M_PER_DEG_LAT / self.cell_m).floor() as i64;
        let x = (p.lon() * M_PER_DEG_LAT * self.cos_ref_lat / self.cell_m).floor() as i64;
        (y, x)
    }

    /// Insert a point. Points are indexed in insertion order.
    pub fn insert(&mut self, p: GeoPoint) {
        self.points.push(p);
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

    /// Every pair of indexed points at most `radius_m` apart, as one row
    /// per point.
    ///
    /// Row `i` (insertion order) lists `(j, d)` for each other point `j`
    /// within the radius, sorted by `j`, where `d` is bit for bit
    /// `haversine_m` of the two points with the lower index first.
    ///
    /// The points are sorted by cell once. Each pair is found once, from
    /// its lower index. Per-point trigonometry is computed once, and a
    /// polynomial lower bound on the Haversine term rejects most far
    /// candidates before the exact distance is taken; the bound never
    /// rejects a pair the exact distance would keep. Two scatter passes
    /// then order every row by partner, with no comparison sort.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidDistance`] for a negative or non-finite
    /// radius.
    pub fn neighbour_rows(&self, radius_m: f64) -> Result<NeighbourRows> {
        if !radius_m.is_finite() || radius_m < 0.0 {
            return Err(GeoError::InvalidDistance(radius_m));
        }
        let n = self.points.len();
        let theta = radius_m / EARTH_RADIUS_M;
        let trig: Vec<[f64; 3]> = self
            .points
            .iter()
            .map(|p| {
                let lat = p.lat_rad();
                [lat, p.lon_rad(), lat.cos()]
            })
            .collect();
        let cells = Cells::new(
            self.points
                .iter()
                .enumerate()
                .map(|(i, &p)| (self.cell_of(p), i))
                .collect(),
            &trig,
        );
        let (Some(&(y_min, _)), Some(&(y_max, _))) = (cells.keys.first(), cells.keys.last()) else {
            return Ok(NeighbourRows {
                offsets: vec![0],
                entries: Vec::new(),
            });
        };
        // `haversine_m(p, q) <= radius_m` needs the Haversine term
        // `h = sin²(Δφ/2) + cos φp cos φq sin²(Δλ/2)` to be at most
        // `sin²(θ/2)`. The relative margin covers the rounding of both
        // sides, and the floor keeps underflowed terms.
        let h_max = if theta >= PI {
            f64::INFINITY
        } else {
            ((theta * 0.5).sin().powi(2) * (1.0 + 1e-9)).max(f64::MIN_POSITIVE)
        };

        // Pairs (i, j > i), grouped by ascending i, counting each row's
        // lower neighbours as they turn up. The buffer starts at one entry
        // a point: grown from a tiny first allocation, it can start in a
        // chunk that glibc's thread cache recycled from a worker thread's
        // arena, and every regrowth then stays in that arena, whose free
        // top `malloc_trim` does not return.
        let mut entries: Vec<(usize, f64)> = Vec::with_capacity(n);
        let mut upper_len = vec![0usize; n];
        let mut lower_len = vec![0usize; n];
        for (i, &query) in self.points.iter().enumerate() {
            let [lat_i, lon_i, cos_i] = trig[i];
            let first = entries.len();
            let (cy, cx) = self.cell_of(query);
            let rows = span(theta.to_degrees() * M_PER_DEG_LAT / self.cell_m, cy);
            let (x_lo, x_hi) = match self.column_span(theta, query.lat(), cx) {
                Some(cols) => (cx.saturating_sub(cols), cx.saturating_add(cols)),
                None => (i64::MIN, i64::MAX),
            };
            for y in cy.saturating_sub(rows).max(y_min)..=cy.saturating_add(rows).min(y_max) {
                for &(j, [lat_j, lon_j, cos_j]) in cells.run(y, x_lo, x_hi) {
                    if j <= i
                        || haversine_term_lower(lat_i, lon_i, cos_i, lat_j, lon_j, cos_j) > h_max
                    {
                        continue;
                    }
                    let d = term_to_m(haversine_term(lat_i, lon_i, cos_i, lat_j, lon_j, cos_j));
                    if d <= radius_m {
                        entries.push((j, d));
                        lower_len[j] += 1;
                    }
                }
            }
            upper_len[i] = entries.len() - first;
        }

        // Row i is its lower neighbours, then its upper ones. Move each
        // upper group to its final place in the same buffer, last group
        // first since each moves up. Then scatter the groups into the
        // lower halves in ascending i, which sorts each lower half, and
        // the lower halves back over the upper ones in ascending j, which
        // sorts each upper half.
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
        // Each cursor now stands at its row's upper half.
        for j in 0..n {
            for k in offsets[j]..offsets[j] + lower_len[j] {
                let (i, d) = entries[k];
                entries[cursor[i]] = (j, d);
                cursor[i] += 1;
            }
        }
        Ok(NeighbourRows { offsets, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::haversine_m;

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    #[test]
    fn rejects_bad_cell_size() {
        assert!(GridIndex::new(0.0, 53.0).is_err());
        assert!(GridIndex::new(-5.0, 53.0).is_err());
        assert!(GridIndex::new(f64::NAN, 53.0).is_err());
    }

    #[test]
    fn neighbour_rows_respect_the_radius() {
        let mut g = GridIndex::new(50.0, 53.35).unwrap();
        // ~0, ~55 m, ~111 m north of the first point.
        g.insert(p(53.3500, -6.2600));
        g.insert(p(53.3505, -6.2600));
        g.insert(p(53.3510, -6.2600));
        let rows = g.neighbour_rows(60.0).unwrap();
        let partners = |i: usize| rows.row(i).iter().map(|&(j, _)| j).collect::<Vec<_>>();
        assert_eq!(partners(0), vec![1]);
        assert_eq!(partners(1), vec![0, 2]);
        assert_eq!(partners(2), vec![1]);
    }

    #[test]
    fn neighbour_rows_reject_a_bad_radius() {
        let g = GridIndex::new(50.0, 53.35).unwrap();
        assert!(g.neighbour_rows(-1.0).is_err());
        assert!(g.neighbour_rows(f64::NAN).is_err());
        assert!(g.neighbour_rows(f64::INFINITY).is_err());
    }

    #[test]
    fn neighbour_rows_find_east_west_pairs_at_high_latitude() {
        // A grid sized at Dublin's latitude has columns ~100 m wide there
        // but only ~47 m wide at 75° N and ~31 m at 80° N; a probe sized
        // from the reference latitude missed most 90 m east-west pairs.
        for lat in [75.0, 80.0, 85.0, -80.0] {
            let mut g = GridIndex::new(100.0, 53.35).unwrap();
            for k in 0..200 {
                let a = p(lat + f64::from(k) * 0.01, -6.26 + f64::from(k) * 0.013);
                g.insert(a);
                g.insert(crate::destination_point(a, 90.0, 90.0));
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
        for q in [p(89.9995, -170.0), p(89.9995, 10.0), p(89.9995, 100.0)] {
            g.insert(q);
        }
        // The three points sit ~56 m from the pole, so at most ~112 m apart.
        let rows = g.neighbour_rows(120.0).unwrap();
        for i in 0..3 {
            assert_eq!(rows.row(i).len(), 2, "row {i}: {:?}", rows.row(i));
        }
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
            for q in &pts {
                g.insert(*q);
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
        let g = GridIndex::new(100.0, 53.35).unwrap();
        assert!(g.neighbour_rows(100.0).unwrap().is_empty());
        let mut g = GridIndex::new(1.0, 53.35).unwrap();
        let q = p(53.35, -6.26);
        for _ in 0..3 {
            g.insert(q);
        }
        let rows = g.neighbour_rows(0.0).unwrap();
        assert_eq!(rows.row(1), &[(0, 0.0), (2, 0.0)]);
    }
}
