//! Gini coefficient.

/// The Gini coefficient of a set of non-negative values — the equity metric
/// the bike-share literature uses to describe how evenly trips are spread
/// over stations (0 = perfectly even, → 1 = concentrated on one station).
///
/// Negative and non-finite values are ignored. Returns 0 when fewer than two
/// valid values remain or when all values are zero.
pub fn gini_coefficient(values: &[f64]) -> f64 {
    let mut vals: Vec<f64> = values
        .iter()
        .copied()
        .filter(|v| v.is_finite() && *v >= 0.0)
        .collect();
    if vals.len() < 2 {
        return 0.0;
    }
    // `total_cmp` orders a kept -0.0 before 0.0. Zeros sort first and add
    // only ±0 to the sums below, so their order changes no bit.
    vals.sort_by(f64::total_cmp);
    let n = vals.len() as f64;
    let total: f64 = vals.iter().sum();
    if total <= 0.0 {
        return 0.0;
    }
    // G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1)/n   with i starting at 1.
    let weighted: f64 = vals
        .iter()
        .enumerate()
        .map(|(i, v)| (i as f64 + 1.0) * v)
        .sum();
    (2.0 * weighted) / (n * total) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_even_is_zero() {
        assert!((gini_coefficient(&[5.0, 5.0, 5.0, 5.0])).abs() < 1e-12);
    }

    #[test]
    fn fully_concentrated_approaches_one() {
        // One station takes all trips among many.
        let mut v = vec![0.0; 99];
        v.push(1000.0);
        let g = gini_coefficient(&v);
        assert!(g > 0.95 && g <= 1.0, "gini {g}");
    }

    #[test]
    fn known_small_case() {
        // Values 1, 2, 3: G = 2*(1*1+2*2+3*3)/(3*6) - 4/3 = 28/18 - 4/3 = 2/9.
        let g = gini_coefficient(&[1.0, 2.0, 3.0]);
        assert!((g - 2.0 / 9.0).abs() < 1e-12);
    }

    #[test]
    fn order_does_not_matter() {
        // A -0.0 counts as a zero, whichever side of 0.0 it sorts to.
        let a = gini_coefficient(&[3.0, -0.0, 1.0, 0.0, 2.0]);
        let b = gini_coefficient(&[0.0, 0.0, 1.0, 2.0, 3.0]);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn degenerate_inputs_are_zero() {
        assert_eq!(gini_coefficient(&[]), 0.0);
        assert_eq!(gini_coefficient(&[4.0]), 0.0);
        assert_eq!(gini_coefficient(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn invalid_values_are_ignored() {
        let with_bad = gini_coefficient(&[1.0, f64::NAN, 2.0, -5.0, 3.0, f64::INFINITY]);
        let clean = gini_coefficient(&[1.0, 2.0, 3.0]);
        assert!((with_bad - clean).abs() < 1e-12);
    }

    #[test]
    fn is_scale_invariant() {
        let a = gini_coefficient(&[1.0, 2.0, 5.0, 10.0]);
        let b = gini_coefficient(&[10.0, 20.0, 50.0, 100.0]);
        assert!((a - b).abs() < 1e-12);
    }
}
