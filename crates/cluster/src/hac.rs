//! Hierarchical agglomerative clustering over geographic points.
//!
//! [`try_hac_clusters`] cuts the hierarchy at a threshold *t* without
//! building it above *t*:
//!
//! 1. **Neighbour rows.** One [`GridIndex::neighbour_rows`] pass lists, for
//!    every point, the points within *t* and their distances, bit for bit
//!    [`haversine_m`] with the lower index first, as [`hac_dendrogram`]
//!    stores them.
//! 2. **Complete linkage: a nearest-neighbour chain over the rows.** A pair
//!    farther apart than *t* counts as +∞. Complete linkage's
//!    Lance–Williams update takes the `max` of two distances, so a +∞ pair
//!    stays +∞, and every merge at or below *t* joins two clusters that are
//!    in each other's rows. A merged row is the intersection of the two
//!    rows, each distance the larger of the pair; a neighbour in only one
//!    row is beyond *t* and drops out. The neighbours' rows are not
//!    rewritten on a merge: a per-slot version and a per-row freshness
//!    mark their entries for the merged cluster stale, and the next read
//!    repairs an entry from the merged cluster's own row. A chain top with
//!    no neighbour left never merges at or below *t* again, since
//!    complete-linkage distances only grow, so it is popped. Each
//!    cluster's diameter is the `max` of its two parts' and their merge
//!    distance, so the diameters need no pass over member pairs. Memory is
//!    linear in the number of pairs within *t*; nothing is quadratic in a
//!    component's size.
//! 3. **Single and average linkage** take the connected components of the
//!    rows. For single linkage the components are the flat clusters. Two
//!    clusters in different components are more than *t* apart under
//!    average linkage too, so average linkage runs the dense
//!    [`hac_dendrogram`] on each component of up to
//!    [`MAX_EXACT_COMPONENT`] points; a larger component is an error,
//!    never an approximation.
//!
//! **Tie-break contract.** Every path breaks ties as the dense scan in
//! [`hac_dendrogram`] does: a cluster's nearest neighbour has the smallest
//! distance, then the lowest slot, and a merge keeps the lower slot, so a
//! cluster's slot is its lowest member. "Distance, then lower slot, then
//! higher slot" is then a strict total order on cluster pairs, and complete
//! linkage never moves a pair below both pairs it came from, so a
//! nearest-neighbour chain makes the same merges whichever cluster it
//! starts from. The sparse chain, which starts at the lowest slot that
//! still has a neighbour within *t*, therefore cuts to exactly the clusters
//! of `hac_dendrogram(points, linkage).cut(t)`, unless two points within
//! *t* of each other lie on either side of the ±180° meridian, which the
//! grid does not wrap.

use crate::linkage::Linkage;
use crate::{ClusterError, Result};
use moby_geo::{haversine_m, GeoPoint, GridIndex, NeighbourRows};

/// The largest connectivity component that average linkage clusters with
/// the dense [`hac_dendrogram`] (an n² matrix of `f64`, 200 MB at this
/// size). A larger component returns [`ClusterError::ComponentTooLarge`].
/// Complete and single linkage have no such cap.
pub const MAX_EXACT_COMPONENT: usize = 5_000;

/// One merge step of the dendrogram: clusters `a` and `b` (indices into the
/// evolving cluster list, initial singletons are `0..n`) merged at the given
/// linkage distance into a new cluster with id `n + step`.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeStep {
    /// First merged cluster id.
    pub a: usize,
    /// Second merged cluster id.
    pub b: usize,
    /// Linkage distance at which the merge happened (metres).
    pub distance: f64,
    /// Number of points in the merged cluster.
    pub size: usize,
}

/// A full dendrogram over `n` points (only produced by
/// [`hac_dendrogram`], which is intended for moderate `n`).
#[derive(Debug, Clone, PartialEq)]
pub struct Dendrogram {
    /// Number of leaf points.
    pub n: usize,
    /// Merge steps in the order they were performed.
    pub merges: Vec<MergeStep>,
}

impl Dendrogram {
    /// Cut the dendrogram at `threshold` metres: every merge with a linkage
    /// distance `<= threshold` is applied, the rest are ignored. Returns the
    /// member indices of each resulting cluster (singletons included),
    /// sorted by their smallest member for determinism.
    pub fn cut(&self, threshold: f64) -> Vec<Vec<usize>> {
        let mut parent: Vec<usize> = (0..self.n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        for (step, m) in self.merges.iter().enumerate() {
            if m.distance <= threshold {
                let new_id = self.n + step;
                let ra = find(&mut parent, m.a);
                let rb = find(&mut parent, m.b);
                parent[ra] = new_id;
                parent[rb] = new_id;
            }
        }
        let mut groups: std::collections::HashMap<usize, Vec<usize>> =
            std::collections::HashMap::new();
        for i in 0..self.n {
            let root = find(&mut parent, i);
            groups.entry(root).or_default().push(i);
        }
        let mut clusters: Vec<Vec<usize>> = groups.into_values().collect();
        for c in clusters.iter_mut() {
            c.sort_unstable();
        }
        clusters.sort_by_key(|c| c[0]);
        clusters
    }
}

/// Exact HAC dendrogram over all points (no partitioning), with a dense
/// distance matrix: quadratic memory, for up to a few thousand points. It
/// is the reference [`try_hac_clusters`] is tested against, and the
/// average-linkage path within one component.
pub fn hac_dendrogram(points: &[GeoPoint], linkage: Linkage) -> Dendrogram {
    let n = points.len();
    let mut merges = Vec::new();
    if n <= 1 {
        return Dendrogram { n, merges };
    }
    // Dense distance matrix (f64, row-major). Entries for dead clusters stay
    // but are never read again.
    let mut dist = vec![0.0f64; n * n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = haversine_m(points[i], points[j]);
            dist[i * n + j] = d;
            dist[j * n + i] = d;
        }
    }
    let mut active: Vec<bool> = vec![true; n];
    let mut size: Vec<usize> = vec![1; n];
    // Map from matrix slot to current cluster id (slots are reused for the
    // merged cluster; ids follow the scipy convention n + step).
    let mut cluster_id: Vec<usize> = (0..n).collect();

    // Nearest-neighbour chain.
    let mut chain: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;
    while remaining > 1 {
        if chain.is_empty() {
            let start = (0..n).find(|&i| active[i]).expect("remaining > 1");
            chain.push(start);
        }
        loop {
            let top = *chain.last().expect("chain non-empty");
            // Find nearest active neighbour of `top`.
            let mut best = usize::MAX;
            let mut best_d = f64::INFINITY;
            for j in 0..n {
                if j != top && active[j] {
                    let d = dist[top * n + j];
                    if d < best_d {
                        best_d = d;
                        best = j;
                    }
                }
            }
            debug_assert!(best != usize::MAX);
            // Reciprocal nearest neighbours?
            if chain.len() >= 2 && chain[chain.len() - 2] == best {
                // Merge `top` and `best` (== previous chain element).
                let a = chain.pop().expect("top");
                let b = chain.pop().expect("prev");
                let (keep, drop) = if a < b { (a, b) } else { (b, a) };
                let merged_size = size[keep] + size[drop];
                merges.push(MergeStep {
                    a: cluster_id[keep],
                    b: cluster_id[drop],
                    distance: best_d,
                    size: merged_size,
                });
                // Lance–Williams update into slot `keep`.
                for j in 0..n {
                    if j != keep && j != drop && active[j] {
                        let d_aj = dist[keep * n + j];
                        let d_bj = dist[drop * n + j];
                        let nd = linkage.merge_distance(d_aj, d_bj, size[keep], size[drop]);
                        dist[keep * n + j] = nd;
                        dist[j * n + keep] = nd;
                    }
                }
                active[drop] = false;
                size[keep] = merged_size;
                cluster_id[keep] = n + merges.len() - 1;
                remaining -= 1;
                break;
            }
            chain.push(best);
        }
        // Drop chain entries that are no longer active (merged away).
        while let Some(&last) = chain.last() {
            if active[last] {
                break;
            }
            chain.pop();
        }
    }
    Dendrogram { n, merges }
}

/// The rows of the "within `threshold` metres" relation over `points`.
///
/// # Errors
///
/// [`ClusterError::InvalidThreshold`] when `threshold` is negative or not
/// finite.
fn neighbour_rows(points: &[GeoPoint], threshold: f64) -> Result<NeighbourRows> {
    let invalid = |_| ClusterError::InvalidThreshold(threshold);
    // Columns as wide as the cut at the most poleward point, and so at
    // least as wide everywhere else: a probe then spans about one cell
    // either way.
    let reference_lat = points.iter().map(|p| p.lat().abs()).fold(0.0, f64::max);
    let mut grid = GridIndex::new(threshold.max(1.0), reference_lat).map_err(invalid)?;
    for p in points {
        grid.insert(*p);
    }
    grid.neighbour_rows(threshold).map_err(invalid)
}

/// Connected components of the rows' relation, each sorted, listed by
/// smallest member.
fn components(rows: &NeighbourRows) -> Vec<Vec<usize>> {
    let mut seen = vec![false; rows.len()];
    let mut out = Vec::new();
    let mut stack = Vec::new();
    for start in 0..rows.len() {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        stack.push(start);
        let mut members = Vec::new();
        while let Some(u) = stack.pop() {
            members.push(u);
            for &(v, _) in rows.row(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        members.sort_unstable();
        out.push(members);
    }
    out
}

/// Complete-linkage clusters over threshold-sparse rows, as a
/// nearest-neighbour chain.
///
/// Slot `i` holds the cluster whose lowest member is `i`. Its row
/// `entries[start[i]..end[i]]`, sorted by slot, lists every cluster within
/// the cut with their linkage distance, except that an entry for a
/// neighbour that merged after the row was written is stale: `stamp` and
/// `fresh` detect that, and the neighbour's newer row holds the current
/// distance.
struct SparseChain {
    start: Vec<usize>,
    end: Vec<usize>,
    entries: Vec<(usize, f64)>,
    active: Vec<bool>,
    /// Merge count at which slot `i`'s cluster last grew (its version).
    stamp: Vec<usize>,
    /// Merge count at which row `i` was last rebuilt or refreshed. Its
    /// entry for `j` is current iff `stamp[j] <= fresh[i]`.
    fresh: Vec<usize>,
    merges: usize,
}

impl SparseChain {
    fn new(rows: NeighbourRows) -> SparseChain {
        let n = rows.len();
        let (offsets, entries) = rows.into_parts();
        SparseChain {
            start: offsets[..n].to_vec(),
            end: offsets[1..].to_vec(),
            entries,
            active: vec![true; n],
            stamp: vec![0; n],
            fresh: vec![0; n],
            merges: 0,
        }
    }

    /// The current distance between clusters `i` and `j`, given the
    /// distance `d` that row `i` holds for `j`, or `None` once the pair is
    /// beyond the cut.
    fn current(&self, i: usize, j: usize, d: f64) -> Option<f64> {
        if self.stamp[j] <= self.fresh[i] {
            return Some(d);
        }
        // `j` grew after row `i` was written, so row `j` was rebuilt later
        // and holds `i` if the pair is still within the cut.
        let row = &self.entries[self.start[j]..self.end[j]];
        row.binary_search_by_key(&i, |&(k, _)| k)
            .ok()
            .map(|at| row[at].1)
    }

    /// Refresh row `top` (drop merged-away and out-of-cut neighbours,
    /// repair stale distances) and return its nearest neighbour, the
    /// smallest distance and then the lowest slot, with that distance.
    fn nearest(&mut self, top: usize) -> Option<(usize, f64)> {
        let mut best: Option<(usize, f64)> = None;
        let mut kept = self.start[top];
        for at in self.start[top]..self.end[top] {
            let (j, d) = self.entries[at];
            if !self.active[j] {
                continue;
            }
            let Some(d) = self.current(top, j, d) else {
                continue;
            };
            self.entries[kept] = (j, d);
            kept += 1;
            if best.is_none_or(|(_, bd)| d < bd) {
                best = Some((j, d));
            }
        }
        self.end[top] = kept;
        self.fresh[top] = self.merges;
        best
    }

    /// Merge cluster `drop` into `keep` (`keep < drop`). The merged row is
    /// the intersection of the two rows, each distance the larger of the
    /// pair, written over `keep`'s row.
    fn merge(&mut self, keep: usize, drop: usize) {
        let (mut a, mut b) = (self.start[keep], self.start[drop]);
        let mut kept = self.start[keep];
        while a < self.end[keep] && b < self.end[drop] {
            let ((ja, da), (jb, db)) = (self.entries[a], self.entries[b]);
            if ja != jb {
                if ja < jb {
                    a += 1;
                } else {
                    b += 1;
                }
                continue;
            }
            a += 1;
            b += 1;
            if !self.active[ja] {
                continue;
            }
            if let (Some(da), Some(db)) = (self.current(keep, ja, da), self.current(drop, ja, db)) {
                self.entries[kept] = (ja, da.max(db));
                kept += 1;
            }
        }
        self.merges += 1;
        self.end[keep] = kept;
        self.stamp[keep] = self.merges;
        self.fresh[keep] = self.merges;
        self.active[drop] = false;
    }
}

/// Flat complete-linkage clusters at the rows' cut, each sorted, listed by
/// smallest member, with its diameter.
///
/// A cluster's diameter is folded from its merges. A merge at or below the
/// cut has every pair across its two clusters within the cut, so its
/// distance is the largest of their stored distances, and each stored
/// distance is `haversine_m` with the lower index first. So
/// `max(diameter(A), diameter(B), d(A, B))` is bit for bit what
/// [`cluster_diameter`] returns for `A ∪ B`.
fn complete_linkage(rows: NeighbourRows) -> Vec<(Vec<usize>, f64)> {
    let n = rows.len();
    let mut chain_rows = SparseChain::new(rows);
    // `parent[i] < i` once slot `i` merged into a lower one.
    let mut parent: Vec<usize> = (0..n).collect();
    // The diameter of the cluster in slot `i`.
    let mut height = vec![0.0f64; n];
    let mut chain: Vec<usize> = Vec::new();
    let mut next_start = 0;
    loop {
        if chain.is_empty() {
            // Slots below `next_start` are merged away or have no
            // neighbour left, and stay so.
            while next_start < n
                && (!chain_rows.active[next_start]
                    || chain_rows.start[next_start] == chain_rows.end[next_start])
            {
                next_start += 1;
            }
            if next_start == n {
                break;
            }
            chain.push(next_start);
        }
        let top = chain[chain.len() - 1];
        match chain_rows.nearest(top) {
            // Nothing within the cut, now or later.
            None => {
                chain.pop();
            }
            Some((best, d)) if chain.len() >= 2 && chain[chain.len() - 2] == best => {
                chain.truncate(chain.len() - 2);
                let (keep, drop) = (top.min(best), top.max(best));
                chain_rows.merge(keep, drop);
                parent[drop] = keep;
                height[keep] = height[keep].max(height[drop]).max(d);
            }
            Some((best, _)) => chain.push(best),
        }
    }
    // Ascending order resolves each parent before its children, and a
    // root is its cluster's lowest member.
    let mut index = vec![usize::MAX; n];
    let mut clusters: Vec<(Vec<usize>, f64)> = Vec::new();
    for i in 0..n {
        parent[i] = parent[parent[i]];
        let root = parent[i];
        if root == i {
            index[i] = clusters.len();
            clusters.push((vec![i], height[i]));
        } else {
            clusters[index[root]].0.push(i);
        }
    }
    clusters
}

/// Flat clusters from constrained-scale HAC: cluster `points` with the given
/// linkage and cut so that the linkage distance never exceeds
/// `threshold_m` metres.
///
/// For complete linkage this guarantees the paper's Rule 1: no two points in
/// a returned cluster are farther apart than `threshold_m`.
///
/// Clusters are returned as lists of indices into `points`, each sorted, and
/// the cluster list is sorted by smallest member index.
///
/// # Panics
///
/// Where [`try_hac_clusters`] returns an error.
pub fn hac_clusters(points: &[GeoPoint], linkage: Linkage, threshold_m: f64) -> Vec<Vec<usize>> {
    try_hac_clusters(points, linkage, threshold_m)
        .expect("non-negative finite threshold within the linkage's size cap")
}

/// Checked variant of [`hac_clusters`]. The result equals
/// `hac_dendrogram(points, linkage).cut(threshold_m)` as long as no two
/// points within `threshold_m` of each other straddle the ±180° meridian.
///
/// # Errors
///
/// * [`ClusterError::InvalidThreshold`] when `threshold_m` is negative or
///   not finite;
/// * [`ClusterError::ComponentTooLarge`] when average linkage meets a
///   connectivity component of more than [`MAX_EXACT_COMPONENT`] points.
pub fn try_hac_clusters(
    points: &[GeoPoint],
    linkage: Linkage,
    threshold_m: f64,
) -> Result<Vec<Vec<usize>>> {
    let rows = neighbour_rows(points, threshold_m)?;
    match linkage {
        Linkage::Complete => Ok(complete_linkage(rows)
            .into_iter()
            .map(|(members, _)| members)
            .collect()),
        // The components *are* the flat single-linkage clusters.
        Linkage::Single => Ok(components(&rows)),
        Linkage::Average => {
            let mut clusters = Vec::new();
            for comp in components(&rows) {
                if comp.len() > MAX_EXACT_COMPONENT {
                    return Err(ClusterError::ComponentTooLarge {
                        size: comp.len(),
                        cap: MAX_EXACT_COMPONENT,
                    });
                }
                if comp.len() == 1 {
                    clusters.push(comp);
                    continue;
                }
                let sub_points: Vec<GeoPoint> = comp.iter().map(|&i| points[i]).collect();
                // `comp` is sorted, so sorted local members map to sorted
                // global ones.
                for local in hac_dendrogram(&sub_points, linkage).cut(threshold_m) {
                    clusters.push(local.into_iter().map(|li| comp[li]).collect());
                }
            }
            clusters.sort_by_key(|c| c[0]);
            Ok(clusters)
        }
    }
}

/// [`try_hac_clusters`] with each cluster's [`cluster_diameter`]. Complete
/// linkage folds the diameters from its merges instead of re-measuring
/// every pair; the other linkages' merge heights are not diameters.
pub(crate) fn try_hac_clusters_with_diameters(
    points: &[GeoPoint],
    linkage: Linkage,
    threshold_m: f64,
) -> Result<Vec<(Vec<usize>, f64)>> {
    if linkage == Linkage::Complete {
        return Ok(complete_linkage(neighbour_rows(points, threshold_m)?));
    }
    Ok(try_hac_clusters(points, linkage, threshold_m)?
        .into_iter()
        .map(|members| {
            let diameter = cluster_diameter(points, &members);
            (members, diameter)
        })
        .collect())
}

/// The maximum pairwise Haversine distance (metres) among the given members.
pub fn cluster_diameter(points: &[GeoPoint], members: &[usize]) -> f64 {
    let mut max = 0.0f64;
    for (k, &i) in members.iter().enumerate() {
        for &j in &members[k + 1..] {
            max = max.max(haversine_m(points[i], points[j]));
        }
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;
    use moby_geo::destination_point;
    use rand::{Rng, SeedableRng};

    fn p(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    /// Three blobs of points, blob centres ~1 km apart, blob radius ~30 m.
    fn three_blobs(per_blob: usize, seed: u64) -> (Vec<GeoPoint>, Vec<usize>) {
        let centres = [p(53.34, -6.26), p(53.35, -6.26), p(53.34, -6.245)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut pts = Vec::new();
        let mut labels = Vec::new();
        for (bi, c) in centres.iter().enumerate() {
            for _ in 0..per_blob {
                let angle = rng.gen_range(0.0..360.0);
                let dist = rng.gen_range(0.0..30.0);
                pts.push(destination_point(*c, angle, dist));
                labels.push(bi);
            }
        }
        (pts, labels)
    }

    #[test]
    fn empty_and_singleton_inputs() {
        assert!(hac_clusters(&[], Linkage::Complete, 100.0).is_empty());
        let one = vec![p(53.34, -6.26)];
        let c = hac_clusters(&one, Linkage::Complete, 100.0);
        assert_eq!(c, vec![vec![0]]);
    }

    #[test]
    fn invalid_threshold_rejected() {
        let pts = vec![p(53.34, -6.26)];
        assert!(try_hac_clusters(&pts, Linkage::Complete, -1.0).is_err());
        assert!(try_hac_clusters(&pts, Linkage::Complete, f64::NAN).is_err());
    }

    #[test]
    fn blobs_are_recovered_by_all_linkages() {
        let (pts, labels) = three_blobs(20, 3);
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            let clusters = hac_clusters(&pts, linkage, 100.0);
            assert_eq!(clusters.len(), 3, "{linkage:?}");
            for c in &clusters {
                let blob = labels[c[0]];
                assert!(c.iter().all(|&i| labels[i] == blob), "{linkage:?}");
                assert_eq!(c.len(), 20, "{linkage:?}");
            }
        }
    }

    #[test]
    fn every_point_appears_exactly_once() {
        let (pts, _) = three_blobs(15, 9);
        let clusters = hac_clusters(&pts, Linkage::Complete, 100.0);
        let mut seen = vec![false; pts.len()];
        for c in &clusters {
            for &i in c {
                assert!(!seen[i], "point {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn complete_linkage_respects_diameter_bound() {
        // A chain of points 60 m apart: single linkage keeps the chain as
        // one cluster at a 100 m cut, complete linkage must split it so the
        // diameter never exceeds 100 m.
        let base = p(53.34, -6.26);
        let pts: Vec<GeoPoint> = (0..10)
            .map(|i| destination_point(base, 90.0, i as f64 * 60.0))
            .collect();
        let complete = hac_clusters(&pts, Linkage::Complete, 100.0);
        for c in &complete {
            assert!(
                cluster_diameter(&pts, c) <= 100.0 + 1e-6,
                "diameter {} exceeds bound",
                cluster_diameter(&pts, c)
            );
        }
        let single = hac_clusters(&pts, Linkage::Single, 100.0);
        assert_eq!(single.len(), 1, "single linkage chains everything");
        assert!(complete.len() > 1);
    }

    #[test]
    fn dendrogram_merge_count_and_cut_extremes() {
        let (pts, _) = three_blobs(5, 1);
        let d = hac_dendrogram(&pts, Linkage::Complete);
        assert_eq!(d.merges.len(), pts.len() - 1);
        // Cut at 0: everything is a singleton.
        assert_eq!(d.cut(0.0).len(), pts.len());
        // Cut at infinity: one cluster.
        assert_eq!(d.cut(f64::INFINITY).len(), 1);
    }

    #[test]
    fn dendrogram_distances_are_monotone_for_complete_linkage() {
        let (pts, _) = three_blobs(8, 5);
        let d = hac_dendrogram(&pts, Linkage::Complete);
        // NN-chain emits merges out of global order, but sorted distances
        // must form a valid monotone sequence for a reducible linkage: the
        // sorted order equals a valid agglomeration order.
        let mut dists: Vec<f64> = d.merges.iter().map(|m| m.distance).collect();
        let sorted = {
            let mut s = dists.clone();
            s.sort_by(|a, b| a.partial_cmp(b).unwrap());
            s
        };
        dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(dists, sorted);
        // Merge sizes are consistent: final merge covers all points.
        assert_eq!(d.merges.last().unwrap().size, pts.len());
    }

    #[test]
    fn matches_bruteforce_flat_clustering_on_small_input() {
        // Brute-force reference: repeatedly merge the closest pair of
        // clusters (complete linkage) while the distance <= threshold.
        fn reference(points: &[GeoPoint], threshold: f64) -> Vec<Vec<usize>> {
            let mut clusters: Vec<Vec<usize>> = (0..points.len()).map(|i| vec![i]).collect();
            loop {
                let mut best = (f64::INFINITY, 0usize, 0usize);
                for i in 0..clusters.len() {
                    for j in (i + 1)..clusters.len() {
                        let mut dmax = 0.0f64;
                        for &a in &clusters[i] {
                            for &b in &clusters[j] {
                                dmax = dmax.max(haversine_m(points[a], points[b]));
                            }
                        }
                        if dmax < best.0 {
                            best = (dmax, i, j);
                        }
                    }
                }
                if best.0 > threshold || clusters.len() <= 1 {
                    break;
                }
                let merged = clusters.remove(best.2);
                clusters[best.1].extend(merged);
            }
            for c in clusters.iter_mut() {
                c.sort_unstable();
            }
            clusters.sort_by_key(|c| c[0]);
            clusters
        }

        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        for _ in 0..5 {
            let pts: Vec<GeoPoint> = (0..25)
                .map(|_| {
                    destination_point(
                        p(53.34, -6.26),
                        rng.gen_range(0.0..360.0),
                        rng.gen_range(0.0..400.0),
                    )
                })
                .collect();
            let got = hac_clusters(&pts, Linkage::Complete, 120.0);
            let want = reference(&pts, 120.0);
            assert_eq!(got, want);
        }
    }

    #[test]
    fn east_west_pairs_at_high_latitude_stay_together() {
        // Regression: a grid sized at Dublin's latitude probed too few
        // columns this far north and split most of these pairs, which the
        // dense reference joins.
        for lat in [75.0, 80.0] {
            let mut pts = Vec::new();
            for k in 0..200 {
                let a = destination_point(p(lat, -6.26), 0.0, f64::from(k) * 1_000.0);
                pts.push(a);
                pts.push(destination_point(a, 90.0, 90.0));
            }
            let clusters = hac_clusters(&pts, Linkage::Complete, 100.0);
            assert_eq!(clusters.len(), 200, "lat {lat}");
            assert!(clusters.iter().all(|c| c.len() == 2 && c[1] == c[0] + 1));
        }
    }

    #[test]
    fn average_linkage_refuses_components_beyond_the_dense_cap() {
        // Points 60 m apart in a line form one component at a 100 m cut.
        let base = p(53.0, -7.5);
        let chain: Vec<GeoPoint> = (0..=MAX_EXACT_COMPONENT)
            .map(|k| destination_point(base, 90.0, 60.0 * k as f64))
            .collect();
        assert_eq!(
            try_hac_clusters(&chain, Linkage::Average, 100.0),
            Err(ClusterError::ComponentTooLarge {
                size: MAX_EXACT_COMPONENT + 1,
                cap: MAX_EXACT_COMPONENT,
            })
        );
        // Complete and single linkage cluster it exactly, with no cap.
        let complete = try_hac_clusters(&chain, Linkage::Complete, 100.0).unwrap();
        assert!(complete
            .iter()
            .all(|c| c.len() <= 2 && cluster_diameter(&chain, c) <= 100.0));
        assert_eq!(
            try_hac_clusters(&chain, Linkage::Single, 100.0).unwrap(),
            vec![(0..=MAX_EXACT_COMPONENT).collect::<Vec<_>>()]
        );
    }

    #[test]
    fn duplicate_points_cluster_together() {
        let dup = p(53.34, -6.26);
        let pts = vec![dup, dup, dup, p(53.36, -6.26)];
        let clusters = hac_clusters(&pts, Linkage::Complete, 50.0);
        assert_eq!(clusters.len(), 2);
        assert_eq!(clusters[0], vec![0, 1, 2]);
    }

    #[test]
    fn cluster_diameter_helper() {
        let base = p(53.34, -6.26);
        let pts = vec![base, destination_point(base, 90.0, 80.0)];
        let d = cluster_diameter(&pts, &[0, 1]);
        assert!((d - 80.0).abs() < 0.5);
        assert_eq!(cluster_diameter(&pts, &[0]), 0.0);
    }
}
