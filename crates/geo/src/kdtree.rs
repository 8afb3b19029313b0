//! A 2-d k-d tree over geographic points.
//!
//! The k-d tree answers the crate's nearest-neighbour queries (the
//! [`crate::GridIndex`] answers radius queries only): exact
//! k-nearest-neighbour search without tuning a cell size, which the
//! selection pipeline uses when ranking candidate stations against their
//! spatial context (e.g. "distance to the nearest pre-existing station" in
//! Algorithm 1, line 6).
//!
//! Points are stored in a planar equirectangular projection centred on the
//! dataset, which keeps splitting balanced; candidate distances are refined
//! with the exact Haversine formula before being returned.

use crate::{haversine_m, GeoError, GeoPoint, Result};

const M_PER_DEG_LAT: f64 = 111_195.0;

#[derive(Debug, Clone)]
struct Node {
    /// Index into `points` / `payloads`.
    idx: usize,
    left: Option<usize>,
    right: Option<usize>,
    /// 0 = split on x (projected lon), 1 = split on y (projected lat).
    axis: u8,
}

/// A static 2-d k-d tree mapping geographic points to payloads.
///
/// Build once with [`KdTree::build`]; the tree does not support incremental
/// insertion (none of the pipeline needs it).
#[derive(Debug, Clone)]
pub struct KdTree<T> {
    nodes: Vec<Node>,
    root: Option<usize>,
    points: Vec<GeoPoint>,
    projected: Vec<(f64, f64)>,
    payloads: Vec<T>,
    cos_ref_lat: f64,
}

impl<T> KdTree<T> {
    /// Build a tree from `(point, payload)` pairs.
    ///
    /// An empty input produces an empty tree; queries on it return
    /// [`GeoError::EmptyIndex`].
    pub fn build(items: Vec<(GeoPoint, T)>) -> Self {
        let ref_lat = if items.is_empty() {
            0.0
        } else {
            items.iter().map(|(p, _)| p.lat()).sum::<f64>() / items.len() as f64
        };
        let cos_ref_lat = ref_lat.to_radians().cos().max(1e-6);

        let mut points = Vec::with_capacity(items.len());
        let mut payloads = Vec::with_capacity(items.len());
        for (p, t) in items {
            points.push(p);
            payloads.push(t);
        }
        let projected: Vec<(f64, f64)> = points
            .iter()
            .map(|p| {
                (
                    p.lon() * M_PER_DEG_LAT * cos_ref_lat,
                    p.lat() * M_PER_DEG_LAT,
                )
            })
            .collect();

        let mut tree = Self {
            nodes: Vec::with_capacity(points.len()),
            root: None,
            points,
            projected,
            payloads,
            cos_ref_lat,
        };
        let mut order: Vec<usize> = (0..tree.points.len()).collect();
        tree.root = tree.build_rec(&mut order, 0);
        tree
    }

    fn build_rec(&mut self, order: &mut [usize], depth: u8) -> Option<usize> {
        if order.is_empty() {
            return None;
        }
        let axis = depth % 2;
        order.sort_unstable_by(|&a, &b| {
            let ka = if axis == 0 {
                self.projected[a].0
            } else {
                self.projected[a].1
            };
            let kb = if axis == 0 {
                self.projected[b].0
            } else {
                self.projected[b].1
            };
            ka.partial_cmp(&kb).expect("projected coords are finite")
        });
        let mid = order.len() / 2;
        let idx = order[mid];
        let node_slot = self.nodes.len();
        self.nodes.push(Node {
            idx,
            left: None,
            right: None,
            axis,
        });
        let (left_slice, rest) = order.split_at_mut(mid);
        let right_slice = &mut rest[1..];
        // Recurse after pushing so children land after the parent.
        let left = self.build_rec(left_slice, depth.wrapping_add(1));
        let right = self.build_rec(right_slice, depth.wrapping_add(1));
        self.nodes[node_slot].left = left;
        self.nodes[node_slot].right = right;
        Some(node_slot)
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn project(&self, p: GeoPoint) -> (f64, f64) {
        (
            p.lon() * M_PER_DEG_LAT * self.cos_ref_lat,
            p.lat() * M_PER_DEG_LAT,
        )
    }

    /// The single nearest neighbour of `query`.
    ///
    /// # Errors
    ///
    /// [`GeoError::EmptyIndex`] when the tree is empty.
    pub fn nearest(&self, query: GeoPoint) -> Result<(&GeoPoint, &T, f64)> {
        let mut knn = self.k_nearest(query, 1)?;
        Ok(knn.remove(0))
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
        let q = self.project(query);
        // Max-heap of (distance, idx) capped at k, kept as a sorted Vec
        // (k is small in all our uses: 1..=10).
        let mut best: Vec<(f64, usize)> = Vec::with_capacity(k + 1);
        self.knn_rec(self.root, q, query, k, &mut best);
        Ok(best
            .into_iter()
            .map(|(d, i)| (&self.points[i], &self.payloads[i], d))
            .collect())
    }

    fn knn_rec(
        &self,
        node: Option<usize>,
        q_proj: (f64, f64),
        q_geo: GeoPoint,
        k: usize,
        best: &mut Vec<(f64, usize)>,
    ) {
        let Some(ni) = node else { return };
        let n = &self.nodes[ni];
        let d = haversine_m(q_geo, self.points[n.idx]);
        // Insert in sorted order, keep at most k.
        let pos = best.partition_point(|&(bd, _)| bd < d);
        best.insert(pos, (d, n.idx));
        if best.len() > k {
            best.pop();
        }

        let (qk, nk) = if n.axis == 0 {
            (q_proj.0, self.projected[n.idx].0)
        } else {
            (q_proj.1, self.projected[n.idx].1)
        };
        let (near, far) = if qk < nk {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.knn_rec(near, q_proj, q_geo, k, best);
        // The projected axis distance is a slight approximation of the true
        // separating distance; inflate it a little so we never wrongly prune.
        let axis_gap = (qk - nk).abs() * 1.001 + 1e-9;
        let worst = best.last().map(|&(d, _)| d).unwrap_or(f64::INFINITY);
        if best.len() < k || axis_gap < worst {
            self.knn_rec(far, q_proj, q_geo, k, best);
        }
    }

    /// All points within `radius_m` of `query`, sorted by ascending distance.
    ///
    /// # Errors
    ///
    /// [`GeoError::InvalidDistance`] for a negative or non-finite radius.
    pub fn within_radius(
        &self,
        query: GeoPoint,
        radius_m: f64,
    ) -> Result<Vec<(&GeoPoint, &T, f64)>> {
        if !radius_m.is_finite() || radius_m < 0.0 {
            return Err(GeoError::InvalidDistance(radius_m));
        }
        let q = self.project(query);
        let mut out: Vec<(f64, usize)> = Vec::new();
        self.radius_rec(self.root, q, query, radius_m, &mut out);
        out.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite distances"));
        Ok(out
            .into_iter()
            .map(|(d, i)| (&self.points[i], &self.payloads[i], d))
            .collect())
    }

    fn radius_rec(
        &self,
        node: Option<usize>,
        q_proj: (f64, f64),
        q_geo: GeoPoint,
        radius_m: f64,
        out: &mut Vec<(f64, usize)>,
    ) {
        let Some(ni) = node else { return };
        let n = &self.nodes[ni];
        let d = haversine_m(q_geo, self.points[n.idx]);
        if d <= radius_m {
            out.push((d, n.idx));
        }
        let (qk, nk) = if n.axis == 0 {
            (q_proj.0, self.projected[n.idx].0)
        } else {
            (q_proj.1, self.projected[n.idx].1)
        };
        let axis_gap = (qk - nk).abs();
        let (near, far) = if qk < nk {
            (n.left, n.right)
        } else {
            (n.right, n.left)
        };
        self.radius_rec(near, q_proj, q_geo, radius_m, out);
        if axis_gap <= radius_m * 1.001 + 1e-9 {
            self.radius_rec(far, q_proj, q_geo, radius_m, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
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
        all.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, (_, _, d)) in got.iter().enumerate() {
            assert!((d - all[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn k_larger_than_len_returns_all() {
        let pts = random_points(5, 3);
        let t = KdTree::build(pts);
        let got = t.k_nearest(p(53.3, -6.2), 50).unwrap();
        assert_eq!(got.len(), 5);
    }

    #[test]
    fn within_radius_matches_brute_force() {
        let pts = random_points(500, 21);
        let t = KdTree::build(pts.clone());
        let q = p(53.34, -6.26);
        for radius in [100.0, 500.0, 2_000.0, 10_000.0] {
            let got: Vec<usize> = t
                .within_radius(q, radius)
                .unwrap()
                .iter()
                .map(|(_, id, _)| **id)
                .collect();
            let want: Vec<usize> = pts
                .iter()
                .filter(|(pt, _)| haversine_m(q, *pt) <= radius)
                .map(|(_, id)| *id)
                .collect();
            let mut got_sorted = got.clone();
            got_sorted.sort_unstable();
            let mut want_sorted = want.clone();
            want_sorted.sort_unstable();
            assert_eq!(got_sorted, want_sorted, "radius {radius}");
        }
    }

    #[test]
    fn within_radius_rejects_bad_radius() {
        let t = KdTree::build(vec![(p(53.35, -6.26), 0usize)]);
        assert!(t.within_radius(p(53.3, -6.2), -5.0).is_err());
    }

    #[test]
    fn duplicate_points_are_all_returned() {
        let dup = p(53.35, -6.26);
        let t = KdTree::build(vec![(dup, 1usize), (dup, 2usize), (dup, 3usize)]);
        let got = t.within_radius(dup, 0.5).unwrap();
        assert_eq!(got.len(), 3);
    }
}
