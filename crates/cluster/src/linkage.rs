//! Linkage criteria for agglomerative clustering.

use serde::{Deserialize, Serialize};

/// How the distance between two clusters is derived from the distances of
/// their members.
///
/// The paper uses **complete linkage** ("the distance between two clusters
/// based on the largest distance over all possible pairs"), which is what
/// guarantees Rule 1 (no two locations in a cluster more than 100 m apart)
/// when the dendrogram is cut at 100 m. `Single` and `Average` are provided
/// for the ablation benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Linkage {
    /// Maximum pairwise distance (a.k.a. farthest neighbour).
    Complete,
    /// Minimum pairwise distance (a.k.a. nearest neighbour).
    Single,
    /// Unweighted average pairwise distance (UPGMA).
    Average,
}

impl Linkage {
    /// Lance–Williams update: the distance from the merged cluster
    /// `A ∪ B` to another cluster `C`, given `d(A, C)`, `d(B, C)` and the
    /// cluster sizes.
    #[inline]
    pub fn merge_distance(&self, d_ac: f64, d_bc: f64, size_a: usize, size_b: usize) -> f64 {
        match self {
            Linkage::Complete => d_ac.max(d_bc),
            Linkage::Single => d_ac.min(d_bc),
            Linkage::Average => {
                let na = size_a as f64;
                let nb = size_b as f64;
                (na * d_ac + nb * d_bc) / (na + nb)
            }
        }
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Linkage::Complete => "complete",
            Linkage::Single => "single",
            Linkage::Average => "average",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complete_takes_max() {
        assert_eq!(Linkage::Complete.merge_distance(3.0, 5.0, 1, 4), 5.0);
        assert_eq!(Linkage::Complete.merge_distance(5.0, 3.0, 10, 1), 5.0);
    }

    #[test]
    fn single_takes_min() {
        assert_eq!(Linkage::Single.merge_distance(3.0, 5.0, 1, 4), 3.0);
    }

    #[test]
    fn average_weights_by_size() {
        // A has 1 member at distance 10, B has 3 members at distance 2:
        // (1*10 + 3*2) / 4 = 4.
        assert_eq!(Linkage::Average.merge_distance(10.0, 2.0, 1, 3), 4.0);
        // Equal sizes -> arithmetic mean.
        assert_eq!(Linkage::Average.merge_distance(4.0, 8.0, 2, 2), 6.0);
    }

    #[test]
    fn names() {
        assert_eq!(Linkage::Complete.name(), "complete");
        assert_eq!(Linkage::Single.name(), "single");
        assert_eq!(Linkage::Average.name(), "average");
    }

    #[test]
    fn merge_distance_bounds() {
        // For any linkage the merged distance lies within [min, max] of the
        // two input distances.
        for linkage in [Linkage::Complete, Linkage::Single, Linkage::Average] {
            for (a, b) in [(1.0, 9.0), (4.0, 4.0), (0.0, 2.0)] {
                let d = linkage.merge_distance(a, b, 3, 5);
                assert!(d >= a.min(b) - 1e-12 && d <= a.max(b) + 1e-12);
            }
        }
    }
}
