//! A 2-d k-d tree over geographic points.
//!
//! The k-d tree answers the crate's nearest-neighbour queries (the
//! [`crate::GridIndex`] builds radius relations): exact k-nearest-neighbour
//! search without tuning a cell size. The pipeline absorbs each location
//! into its nearest fixed station with it, measures a candidate's distance
//! to the nearest fixed station (Algorithm 1, line 6), reassigns locations
//! to their nearest selected station, and serves `Nearest` queries.
//!
//! The tree splits at the median, on longitude and latitude in turn, and
//! stores its points in tree order. Each point's radians and latitude
//! cosine are cached at build, and a query's once per query, so every
//! distance is bit for bit `haversine_m(query, point)` without recomputing
//! a point's trigonometry. A visited node costs the exact distance only
//! when a polynomial lower bound on its Haversine term does not already
//! rule it out. A subtree beyond a split is skipped only when a true lower
//! bound on the distance from the query to any point beyond the split
//! exceeds the current `k`-th distance (Friedman, Bentley & Finkel, "An
//! algorithm for finding best matches in logarithmic expected time", ACM
//! TOMS 3(3), 1977):
//!
//! * across a latitude split, `R·|Δφ|`;
//! * across a longitude split, `R·cos φq·|Δλ|(1 − Δλ²/6)`. It is at most
//!   `R·cos φq·sin|Δλ|`, which is at most the distance from the query to
//!   the meridian `|Δλ|` away while `|Δλ| < π/2`; at `|Δλ| ≥ π/2` nothing
//!   is pruned. `|Δλ|` is capped by the smallest gap to a held point the
//!   other way round the ±180° meridian.
//!
//! Both bounds carry a rounding slack on the safe side.

use crate::distance::{haversine_term, haversine_term_lower, term_to_m};
use crate::{GeoError, GeoPoint, Result, EARTH_RADIUS_M};
use std::f64::consts::{FRAC_PI_2, TAU};

/// Indices into a point's cached `[lat, lon, cos lat]`; a split axis is
/// one of the first two.
const LAT: usize = 0;
const LON: usize = 1;

/// Relative (and, in metres, absolute) slack that keeps every computed
/// bound on the safe side of its rounding.
const SLACK: f64 = 1e-9;

/// A static 2-d k-d tree mapping geographic points to payloads.
///
/// Build once with [`KdTree::build`]; the tree does not support incremental
/// insertion (none of the pipeline needs it).
#[derive(Debug, Clone)]
pub struct KdTree<T> {
    /// Points in tree order: the node of a range `lo..hi` sits at
    /// `lo + (hi - lo) / 2`, with the range's lower half before it and its
    /// upper half after it on the node's split axis.
    points: Vec<GeoPoint>,
    /// `[lat, lon, cos lat]` of each point, radians.
    trig: Vec<[f64; 3]>,
    payloads: Vec<T>,
    /// The smallest and the largest longitude held, radians.
    lon_range: (f64, f64),
}

/// A query point's cached trigonometry.
struct Query {
    trig: [f64; 3],
    /// The smallest longitude gap, radians, from the query to a held point
    /// the other way round the ±180° meridian.
    wrap: f64,
}

/// The nearest points a search has found so far.
trait Best {
    /// The distance and Haversine term a point must not exceed to enter:
    /// the current `k`-th nearest's, or infinity while fewer are held.
    fn worst(&self) -> (f64, f64);
    /// Offer the point at tree position `at`, `d` metres from the query
    /// with Haversine term `h`. An equal distance replaces.
    fn offer(&mut self, d: f64, h: f64, at: usize);
}

/// The single nearest point: distance, Haversine term, tree position.
struct Nearest(f64, f64, usize);

impl Best for Nearest {
    fn worst(&self) -> (f64, f64) {
        (self.0, self.1)
    }

    fn offer(&mut self, d: f64, h: f64, at: usize) {
        if d <= self.0 {
            *self = Nearest(d, h, at);
        }
    }
}

/// The `k` nearest points, ascending by distance.
struct KNearest {
    k: usize,
    found: Vec<(f64, f64, usize)>,
}

impl Best for KNearest {
    fn worst(&self) -> (f64, f64) {
        match self.found.last() {
            Some(&(d, h, _)) if self.found.len() == self.k => (d, h),
            _ => (f64::INFINITY, f64::INFINITY),
        }
    }

    fn offer(&mut self, d: f64, h: f64, at: usize) {
        if d > self.worst().0 {
            return;
        }
        let pos = self.found.partition_point(|&(bd, _, _)| bd < d);
        self.found.insert(pos, (d, h, at));
        self.found.truncate(self.k);
    }
}

/// The Haversine term above which a point cannot enter: the worst's, plus
/// a margin far wider than rounding, so that a point at the worst's own
/// distance, which replaces it, is never rejected. The floor keeps
/// underflowed terms; near the antipode, where the distance clamps, every
/// point is kept.
fn reject_above(worst_h: f64) -> f64 {
    let t = worst_h * (1.0 + SLACK);
    if t >= 1.0 {
        f64::INFINITY
    } else {
        t.max(f64::MIN_POSITIVE)
    }
}

/// Put `items` in tree order, splitting on `axis` at the median.
fn split<U>(items: &mut [([f64; 3], U)], axis: usize) {
    if items.len() <= 1 {
        return;
    }
    let mid = items.len() / 2;
    items.select_nth_unstable_by(mid, |a, b| a.0[axis].total_cmp(&b.0[axis]));
    let (lower, upper) = items.split_at_mut(mid);
    split(lower, axis ^ 1);
    split(&mut upper[1..], axis ^ 1);
}

impl<T> KdTree<T> {
    /// Build a tree from `(point, payload)` pairs.
    ///
    /// An empty input produces an empty tree; queries on it return
    /// [`GeoError::EmptyIndex`].
    pub fn build(items: Vec<(GeoPoint, T)>) -> Self {
        let mut items: Vec<([f64; 3], (GeoPoint, T))> = items
            .into_iter()
            .map(|(p, t)| {
                let lat = p.lat_rad();
                ([lat, p.lon_rad(), lat.cos()], (p, t))
            })
            .collect();
        split(&mut items, LON);
        let lon_range = items
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), (c, _)| {
                (lo.min(c[LON]), hi.max(c[LON]))
            });
        let mut tree = Self {
            points: Vec::with_capacity(items.len()),
            trig: Vec::with_capacity(items.len()),
            payloads: Vec::with_capacity(items.len()),
            lon_range,
        };
        for (trig, (p, t)) in items {
            tree.points.push(p);
            tree.trig.push(trig);
            tree.payloads.push(t);
        }
        tree
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The single nearest neighbour of `query`; of several at the same
    /// distance, the last the search visits. Allocates nothing.
    ///
    /// # Errors
    ///
    /// [`GeoError::EmptyIndex`] when the tree is empty.
    pub fn nearest(&self, query: GeoPoint) -> Result<(&GeoPoint, &T, f64)> {
        if self.is_empty() {
            return Err(GeoError::EmptyIndex);
        }
        // The root always enters, so `at` is overwritten.
        let mut best = Nearest(f64::INFINITY, f64::INFINITY, 0);
        self.search(0, self.points.len(), LON, &self.query(query), &mut best);
        let Nearest(d, _, at) = best;
        Ok((&self.points[at], &self.payloads[at], d))
    }

    /// The `k` nearest neighbours of `query`, sorted by ascending distance.
    ///
    /// Returns fewer than `k` entries when the tree holds fewer points.
    ///
    /// # Errors
    ///
    /// [`GeoError::EmptyIndex`] when the tree is empty.
    pub fn k_nearest(&self, query: GeoPoint, k: usize) -> Result<Vec<(&GeoPoint, &T, f64)>> {
        if self.is_empty() {
            return Err(GeoError::EmptyIndex);
        }
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut best = KNearest {
            k,
            found: Vec::with_capacity(k.min(self.points.len()) + 1),
        };
        self.search(0, self.points.len(), LON, &self.query(query), &mut best);
        Ok(best
            .found
            .into_iter()
            .map(|(d, _, at)| (&self.points[at], &self.payloads[at], d))
            .collect())
    }

    fn query(&self, p: GeoPoint) -> Query {
        let (lat, lon) = (p.lat_rad(), p.lon_rad());
        let (lo, hi) = self.lon_range;
        Query {
            trig: [lat, lon, lat.cos()],
            wrap: TAU - (lon - lo).max(hi - lon),
        }
    }

    /// Search the subtree over tree positions `lo..hi`, split on `axis`.
    fn search(&self, lo: usize, hi: usize, axis: usize, q: &Query, best: &mut impl Best) {
        if lo >= hi {
            return;
        }
        let mid = lo + (hi - lo) / 2;
        let [lat_q, lon_q, cos_q] = q.trig;
        let [lat, lon, cos] = self.trig[mid];
        if haversine_term_lower(lat_q, lon_q, cos_q, lat, lon, cos) <= reject_above(best.worst().1)
        {
            let h = haversine_term(lat_q, lon_q, cos_q, lat, lon, cos);
            best.offer(term_to_m(h), h, mid);
        }
        let (at, from) = (self.trig[mid][axis], q.trig[axis]);
        let (near, far) = if from < at {
            ((lo, mid), (mid + 1, hi))
        } else {
            ((mid + 1, hi), (lo, mid))
        };
        self.search(near.0, near.1, axis ^ 1, q, best);
        if gap_m(axis, (at - from).abs(), q) <= best.worst().0 {
            self.search(far.0, far.1, axis ^ 1, q, best);
        }
    }
}

/// A lower bound, in metres, on the distance from the query to any point
/// at least `delta` radians from it on `axis`.
fn gap_m(axis: usize, delta: f64, q: &Query) -> f64 {
    let bound = if axis == LAT {
        EARTH_RADIUS_M * delta
    } else {
        let dl = delta.min(q.wrap);
        if dl >= FRAC_PI_2 {
            return 0.0;
        }
        // sin x ≥ x(1 − x²/6) for x ≥ 0.
        EARTH_RADIUS_M * q.trig[2] * (dl * (1.0 - dl * dl / 6.0))
    };
    bound * (1.0 - SLACK) - SLACK
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{destination_point, haversine_m};
    use rand::{Rng, SeedableRng};

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    fn random_points(n: usize, seed: u64) -> Vec<(GeoPoint, usize)> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                (
                    p(rng.gen_range(53.25..53.42), rng.gen_range(-6.45..-6.08)),
                    i,
                )
            })
            .collect()
    }

    #[test]
    fn empty_tree_errors() {
        let t: KdTree<usize> = KdTree::build(Vec::new());
        assert!(t.is_empty());
        assert!(matches!(
            t.nearest(p(53.3, -6.2)),
            Err(GeoError::EmptyIndex)
        ));
        assert!(matches!(
            t.k_nearest(p(53.3, -6.2), 3),
            Err(GeoError::EmptyIndex)
        ));
    }

    #[test]
    fn single_point_tree() {
        let t = KdTree::build(vec![(p(53.35, -6.26), 7usize)]);
        let (_, id, d) = t.nearest(p(53.36, -6.25)).unwrap();
        assert_eq!(*id, 7);
        assert!(d > 0.0);
    }

    #[test]
    fn k_zero_returns_empty() {
        let t = KdTree::build(vec![(p(53.35, -6.26), 7usize)]);
        assert!(t.k_nearest(p(53.35, -6.26), 0).unwrap().is_empty());
    }

    #[test]
    fn nearest_matches_brute_force() {
        let pts = random_points(800, 11);
        let t = KdTree::build(pts.clone());
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        for _ in 0..300 {
            let q = p(rng.gen_range(53.25..53.42), rng.gen_range(-6.45..-6.08));
            let (_, _, got) = t.nearest(q).unwrap();
            let want = pts
                .iter()
                .map(|(pt, _)| haversine_m(q, *pt))
                .fold(f64::INFINITY, f64::min);
            assert_eq!(got.to_bits(), want.to_bits(), "got {got}, want {want}");
        }
    }

    #[test]
    fn k_nearest_is_sorted_and_correct() {
        let pts = random_points(300, 5);
        let t = KdTree::build(pts.clone());
        let q = p(53.33, -6.25);
        let k = 10;
        let got = t.k_nearest(q, k).unwrap();
        assert_eq!(got.len(), k);
        // Sorted ascending.
        for w in got.windows(2) {
            assert!(w[0].2 <= w[1].2);
        }
        // Matches brute force top-k distances.
        let mut all: Vec<f64> = pts.iter().map(|(pt, _)| haversine_m(q, *pt)).collect();
        all.sort_by(f64::total_cmp);
        for (i, (_, _, d)) in got.iter().enumerate() {
            assert_eq!(d.to_bits(), all[i].to_bits());
        }
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let pts = random_points(5, 3);
        let t = KdTree::build(pts);
        let got = t.k_nearest(p(53.3, -6.2), 50).unwrap();
        assert_eq!(got.len(), 5);
        assert_eq!(t.k_nearest(p(53.3, -6.2), usize::MAX).unwrap().len(), 5);
    }

    #[test]
    fn nearest_searches_past_a_split_the_old_gap_pruned() {
        // The root splits on longitude at A, 100 m east of the query (and
        // 500 m north). A gap inflated by 0.1 % put C, 100.01 m east,
        // beyond B at 100.05 m west, so the search returned B.
        let q = p(53.35, -6.26);
        let a = destination_point(destination_point(q, 90.0, 100.0), 0.0, 500.0);
        let b = destination_point(q, 270.0, 100.05);
        let c = destination_point(q, 90.0, 100.01);
        let t = KdTree::build(vec![(a, 'A'), (b, 'B'), (c, 'C')]);
        let (_, &id, d) = t.nearest(q).unwrap();
        assert_eq!((id, d.to_bits()), ('C', haversine_m(q, c).to_bits()));
        let ids: Vec<char> = t.k_nearest(q, 2).unwrap().iter().map(|h| *h.1).collect();
        assert_eq!(ids, vec!['C', 'B']);
    }

    #[test]
    fn nearest_reaches_across_the_antimeridian() {
        // X is ~22 m away the other way round the ±180° meridian, behind a
        // longitude split ~2 km west of the query.
        let q = p(10.0, 179.9999);
        let x = p(10.0, -179.9999);
        let t = KdTree::build(vec![(p(10.0, 179.99), 1), (p(10.0, 179.98), 2), (x, 3)]);
        let (_, &id, d) = t.nearest(q).unwrap();
        assert_eq!((id, d.to_bits()), (3, haversine_m(q, x).to_bits()));
        assert!(d < 25.0);
    }

    #[test]
    fn duplicate_points_are_all_returned() {
        let dup = p(53.35, -6.26);
        let t = KdTree::build(vec![(dup, 1usize), (dup, 2usize), (dup, 3usize)]);
        let got = t.k_nearest(dup, 5).unwrap();
        assert_eq!(got.len(), 3);
        assert!(got.iter().all(|h| h.2 == 0.0));
    }
}
