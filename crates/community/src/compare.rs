//! Partition-similarity measures.
//!
//! Used by the validation layer to check that the communities found on the
//! expanded network resemble those found on the original network, and by the
//! detector ablation (Louvain vs label propagation).

use crate::Partition;
use std::collections::BTreeMap;

/// The contingency table of two partitions restricted to their common
/// nodes, keyed in sorted order so every fold over it has a fixed sequence.
fn contingency(a: &Partition, b: &Partition) -> (BTreeMap<(usize, usize), usize>, usize) {
    let mut table: BTreeMap<(usize, usize), usize> = BTreeMap::new();
    let mut n = 0usize;
    for (node, cb) in b.iter() {
        let Some(ca) = a.community_of(node) else {
            continue;
        };
        *table.entry((ca, cb)).or_insert(0) += 1;
        n += 1;
    }
    (table, n)
}

/// Normalised Mutual Information between two partitions (arithmetic-mean
/// normalisation), computed over the nodes both partitions assign.
///
/// Returns 1.0 for identical partitions, 0.0 when the partitions are
/// independent or when fewer than two common nodes exist. When both
/// partitions are single-community (zero entropy) they are identical by
/// construction and score 1.0.
pub fn normalized_mutual_information(a: &Partition, b: &Partition) -> f64 {
    let (table, n) = contingency(a, b);
    if n < 2 {
        return 0.0;
    }
    let nf = n as f64;
    // The float terms are summed in sorted key order: the sums are not
    // associative, so a `HashMap`'s per-instance order would change the
    // last bits from call to call.
    let mut row: BTreeMap<usize, usize> = BTreeMap::new();
    let mut col: BTreeMap<usize, usize> = BTreeMap::new();
    for (&(ca, cb), &count) in &table {
        *row.entry(ca).or_insert(0) += count;
        *col.entry(cb).or_insert(0) += count;
    }
    let entropy = |counts: &BTreeMap<usize, usize>| -> f64 {
        counts
            .values()
            .map(|&c| {
                let p = c as f64 / nf;
                -p * p.ln()
            })
            .sum()
    };
    let h_a = entropy(&row);
    let h_b = entropy(&col);
    let mut mi = 0.0;
    for (&(ca, cb), &count) in &table {
        let p_ab = count as f64 / nf;
        let p_a = row[&ca] as f64 / nf;
        let p_b = col[&cb] as f64 / nf;
        mi += p_ab * (p_ab / (p_a * p_b)).ln();
    }
    let denom = 0.5 * (h_a + h_b);
    if denom <= 0.0 {
        // Both partitions are single-cluster over the common nodes: identical.
        1.0
    } else {
        (mi / denom).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn partition(pairs: &[(u64, usize)]) -> Partition {
        pairs.iter().copied().collect()
    }

    #[test]
    fn identical_partitions_score_one() {
        let a = partition(&[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let b = partition(&[(1, 5), (2, 5), (3, 9), (4, 9)]); // same shape, different labels
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completely_different_partitions_score_low() {
        // a splits {1,2,3,4} into {1,2},{3,4}; b into {1,3},{2,4}.
        let a = partition(&[(1, 0), (2, 0), (3, 1), (4, 1)]);
        let b = partition(&[(1, 0), (2, 1), (3, 0), (4, 1)]);
        assert!(normalized_mutual_information(&a, &b) < 0.1);
    }

    #[test]
    fn refinement_scores_between_zero_and_one() {
        // a is a refinement of b: every a-community is inside a b-community.
        let a = partition(&[(1, 0), (2, 1), (3, 2), (4, 2)]);
        let b = partition(&[(1, 0), (2, 0), (3, 1), (4, 1)]);
        assert!(normalized_mutual_information(&a, &b) < 1.0);
        assert!(normalized_mutual_information(&a, &b) > 0.0);
    }

    #[test]
    fn only_common_nodes_are_compared() {
        let a = partition(&[(1, 0), (2, 0), (3, 1), (4, 1), (99, 7)]);
        let b = partition(&[(1, 2), (2, 2), (3, 3), (4, 3), (100, 9)]);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs() {
        let empty = Partition::new();
        let a = partition(&[(1, 0), (2, 0)]);
        assert_eq!(normalized_mutual_information(&empty, &a), 0.0);
        // Single common node.
        let single = partition(&[(1, 0)]);
        assert_eq!(normalized_mutual_information(&single, &a), 0.0);
    }

    #[test]
    fn both_trivial_partitions_are_identical() {
        let a = partition(&[(1, 0), (2, 0), (3, 0)]);
        let b = partition(&[(1, 4), (2, 4), (3, 4)]);
        assert!((normalized_mutual_information(&a, &b) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn nmi_bits_are_stable_across_calls() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Large enough that the contingency table has hundreds of cells,
        // so any change in the summation order shows in the last bits.
        let mut rng = StdRng::seed_from_u64(17);
        let a: Partition = (0..2_000u64).map(|i| (i, rng.gen_range(0..37))).collect();
        let b: Partition = (0..2_000u64).map(|i| (i, rng.gen_range(0..41))).collect();
        let first = normalized_mutual_information(&a, &b);
        for _ in 0..20 {
            assert_eq!(
                normalized_mutual_information(&a, &b).to_bits(),
                first.to_bits()
            );
        }
    }

    #[test]
    fn nmi_is_symmetric() {
        let a = partition(&[(1, 0), (2, 0), (3, 1), (4, 1), (5, 1)]);
        let b = partition(&[(1, 0), (2, 1), (3, 1), (4, 1), (5, 0)]);
        let ab = normalized_mutual_information(&a, &b);
        let ba = normalized_mutual_information(&b, &a);
        assert!((ab - ba).abs() < 1e-12);
    }
}
