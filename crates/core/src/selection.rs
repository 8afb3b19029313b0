//! Step 2 — station ranking and selection (§IV-B, Algorithm 1).
//!
//! Candidates are scored by their degree in the candidate graph and pruned
//! by the paper's rules:
//!
//! * **Rule 3, Degree-Threshold** — a candidate whose degree is below the
//!   minimum degree of the pre-existing stations scores 0 (Algorithm 1,
//!   lines 4–5);
//! * **Rule 4, Secondary-Distance** — a candidate within 250 m of a
//!   pre-existing station scores 0 (lines 6–7);
//! * **mutual proximity** — while any two surviving candidates are within
//!   250 m of each other, the lower-degree one scores 0 (lines 10–16);
//! * **Rule 2, Cluster-Proximity** — centroids may not be within 50 m of
//!   each other; this is implied by the 250 m checks but verified anyway.
//!
//! Candidates with a positive score, sorted by score, become the selected
//! new stations (line 17–18).

use crate::candidate::CandidateNetwork;
use crate::{CoreError, ExpansionConfig, Result};
use moby_geo::{haversine_m, GeoPoint, KdTree};
use moby_graph::metrics::DegreeSummary;
use moby_graph::NodeId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Why a candidate was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RejectReason {
    /// Degree below the fixed-station minimum (Rule 3).
    DegreeBelowThreshold,
    /// Within the secondary distance of a pre-existing station (Rule 4).
    TooCloseToFixedStation,
    /// Within the secondary distance of a stronger (higher-degree) candidate.
    TooCloseToStrongerCandidate,
    /// Violates the centroid-separation rule (Rule 2) against an already
    /// selected node.
    CentroidTooClose,
}

/// A newly selected station.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SelectedStation {
    /// The candidate node id (kept as the new station's id).
    pub id: NodeId,
    /// Position (the candidate cluster's centroid).
    pub position: GeoPoint,
    /// Degree in the candidate graph (the selection score).
    pub degree: usize,
    /// 1-based rank by score among the selected stations.
    pub rank: usize,
    /// Distance to the nearest pre-existing station, metres.
    pub nearest_fixed_m: f64,
}

/// The outcome of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SelectionOutcome {
    /// The degree threshold used (Rule 3).
    pub degree_threshold: usize,
    /// Selected new stations, ordered by descending score.
    pub selected: Vec<SelectedStation>,
    /// Rejected candidates with the (first) reason each was rejected.
    pub rejected: HashMap<NodeId, RejectReason>,
}

impl SelectionOutcome {
    /// Number of rejected candidates per reason, for reporting, in
    /// [`RejectReason`] declaration order.
    pub fn rejections_by_reason(&self) -> BTreeMap<RejectReason, usize> {
        let mut out = BTreeMap::new();
        for reason in self.rejected.values() {
            *out.entry(*reason).or_insert(0) += 1;
        }
        out
    }

    /// Ids of the selected stations.
    pub fn selected_ids(&self) -> Vec<NodeId> {
        self.selected.iter().map(|s| s.id).collect()
    }
}

/// Rule 3's degree threshold: the minimum degree over the fixed stations
/// (Algorithm 1, line 1).
fn degree_threshold(network: &CandidateNetwork, fixed_ids: &[NodeId]) -> Result<usize> {
    DegreeSummary::for_nodes_csr(&network.undirected, fixed_ids)
        .map(|summary| summary.min)
        .ok_or_else(|| CoreError::Internal("no fixed stations in candidate graph".into()))
}

/// Run Algorithm 1 over a candidate network.
///
/// # Errors
///
/// [`CoreError::InvalidConfig`] when the configuration fails validation, or
/// [`CoreError::Internal`] when the network contains no fixed stations.
pub fn select_stations(
    network: &CandidateNetwork,
    config: &ExpansionConfig,
) -> Result<SelectionOutcome> {
    config.validate()?;
    let fixed_ids = network.fixed_ids();
    if fixed_ids.is_empty() {
        return Err(CoreError::Internal(
            "candidate network has no fixed stations".into(),
        ));
    }
    let threshold = degree_threshold(network, &fixed_ids)?;

    // Fixed-station index for Rule 4 distances.
    let fixed_tree = KdTree::build(
        fixed_ids
            .iter()
            .map(|&id| (network.node(id).expect("fixed node exists").position, id))
            .collect::<Vec<_>>(),
    );

    // Line 2–9: initial scores.
    #[derive(Clone)]
    struct Scored {
        id: NodeId,
        position: GeoPoint,
        degree: usize,
        score: usize,
        nearest_fixed_m: f64,
    }
    let mut rejected: HashMap<NodeId, RejectReason> = HashMap::new();
    let mut scored: Vec<Scored> = Vec::new();
    for id in network.candidate_ids() {
        let node = network.node(id).expect("candidate node exists");
        let degree = network.undirected.degree_of(id).unwrap_or(0);
        let (_, _, nearest_fixed_m) = fixed_tree
            .nearest(node.position)
            .expect("fixed tree is non-empty");
        let mut score = degree;
        if degree < threshold {
            score = 0;
            rejected.insert(id, RejectReason::DegreeBelowThreshold);
        } else if nearest_fixed_m <= config.secondary_distance_m {
            score = 0;
            rejected.insert(id, RejectReason::TooCloseToFixedStation);
        }
        scored.push(Scored {
            id,
            position: node.position,
            degree,
            score,
            nearest_fixed_m,
        });
    }

    // Lines 10–16: repeatedly zero the lower-degree member of any pair of
    // surviving candidates that are too close to each other. Processing
    // pairs in ascending-degree order makes one sweep per fixpoint iteration
    // deterministic.
    loop {
        let mut changed = false;
        let mut survivors: Vec<usize> = scored
            .iter()
            .enumerate()
            .filter(|(_, s)| s.score > 0)
            .map(|(i, _)| i)
            .collect();
        survivors.sort_by_key(|&i| (scored[i].degree, scored[i].id));
        'outer: for (a_pos, &i) in survivors.iter().enumerate() {
            for &j in &survivors[a_pos + 1..] {
                let d = haversine_m(scored[i].position, scored[j].position);
                if d <= config.secondary_distance_m {
                    // i has the lower (or equal) degree by sort order.
                    scored[i].score = 0;
                    rejected.insert(scored[i].id, RejectReason::TooCloseToStrongerCandidate);
                    changed = true;
                    continue 'outer;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Rule 2 backstop: enforce the 50 m centroid separation against fixed
    // stations too (normally implied by Rule 4 since 50 < 250).
    for s in scored.iter_mut() {
        if s.score > 0 && s.nearest_fixed_m < config.centroid_min_separation_m {
            s.score = 0;
            rejected.insert(s.id, RejectReason::CentroidTooClose);
        }
    }

    // A candidate can still sit at score 0 without a recorded reason when
    // the fixed-station degree minimum is itself 0 (possible on sparse
    // datasets with isolated stations); Algorithm 1 only returns candidates
    // with score > 0, so account for these as degree rejections.
    for s in &scored {
        if s.score == 0 && !rejected.contains_key(&s.id) {
            rejected.insert(s.id, RejectReason::DegreeBelowThreshold);
        }
    }

    // Lines 17–18: rank the survivors by score.
    let mut winners: Vec<&Scored> = scored.iter().filter(|s| s.score > 0).collect();
    winners.sort_by(|a, b| b.score.cmp(&a.score).then(a.id.cmp(&b.id)));
    let selected: Vec<SelectedStation> = winners
        .iter()
        .enumerate()
        .map(|(rank, s)| SelectedStation {
            id: s.id,
            position: s.position,
            degree: s.degree,
            rank: rank + 1,
            nearest_fixed_m: s.nearest_fixed_m,
        })
        .collect();

    Ok(SelectionOutcome {
        degree_threshold: threshold,
        selected,
        rejected,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidate_network;
    use moby_data::clean::clean_dataset;
    use moby_data::synth::{generate, SynthConfig};

    fn network() -> CandidateNetwork {
        let ds = clean_dataset(&generate(&SynthConfig::small_test())).dataset;
        build_candidate_network(&ds, &ExpansionConfig::default()).unwrap()
    }

    #[test]
    fn selection_produces_new_stations() {
        let net = network();
        let out = select_stations(&net, &ExpansionConfig::default()).unwrap();
        assert!(!out.selected.is_empty(), "expected some new stations");
        assert!(out.selected.len() < net.candidate_ids().len());
        assert!(!out.rejected.is_empty());
        // Accounting: every candidate is either selected or rejected.
        assert_eq!(
            out.selected.len() + out.rejected.len(),
            net.candidate_ids().len()
        );
    }

    #[test]
    fn selected_stations_respect_rule_4_against_fixed_stations() {
        let net = network();
        let cfg = ExpansionConfig::default();
        let out = select_stations(&net, &cfg).unwrap();
        for s in &out.selected {
            assert!(
                s.nearest_fixed_m > cfg.secondary_distance_m,
                "station {} is only {} m from a fixed station",
                s.id,
                s.nearest_fixed_m
            );
        }
    }

    #[test]
    fn selected_stations_respect_mutual_separation() {
        let net = network();
        let cfg = ExpansionConfig::default();
        let out = select_stations(&net, &cfg).unwrap();
        for (i, a) in out.selected.iter().enumerate() {
            for b in &out.selected[i + 1..] {
                let d = haversine_m(a.position, b.position);
                assert!(
                    d > cfg.secondary_distance_m,
                    "selected stations {} and {} are {} m apart",
                    a.id,
                    b.id,
                    d
                );
            }
        }
    }

    #[test]
    fn selected_stations_meet_degree_threshold() {
        let net = network();
        let out = select_stations(&net, &ExpansionConfig::default()).unwrap();
        for s in &out.selected {
            assert!(s.degree >= out.degree_threshold);
        }
    }

    #[test]
    fn ranks_are_sorted_by_degree() {
        let net = network();
        let out = select_stations(&net, &ExpansionConfig::default()).unwrap();
        for w in out.selected.windows(2) {
            assert!(w[0].degree >= w[1].degree);
            assert!(w[0].rank < w[1].rank);
        }
        assert_eq!(out.selected.first().map(|s| s.rank), Some(1));
    }

    #[test]
    fn rejections_by_reason_render_in_one_order() {
        let reasons = [
            RejectReason::CentroidTooClose,
            RejectReason::TooCloseToStrongerCandidate,
            RejectReason::TooCloseToFixedStation,
            RejectReason::DegreeBelowThreshold,
        ];
        let out = SelectionOutcome {
            rejected: (0..40).map(|id| (id, reasons[id as usize % 4])).collect(),
            ..SelectionOutcome::default()
        };
        let first = format!("{:?}", out.rejections_by_reason());
        assert!(first.starts_with("{DegreeBelowThreshold: 10, "), "{first}");
        for _ in 0..20 {
            assert_eq!(format!("{:?}", out.rejections_by_reason()), first);
        }
    }

    #[test]
    fn larger_secondary_distance_selects_fewer_stations() {
        let net = network();
        let mut near = ExpansionConfig::default();
        near.secondary_distance_m = 100.0;
        let mut far = ExpansionConfig::default();
        far.secondary_distance_m = 600.0;
        let n_near = select_stations(&net, &near).unwrap().selected.len();
        let n_far = select_stations(&net, &far).unwrap().selected.len();
        assert!(n_far <= n_near, "near {n_near}, far {n_far}");
    }

    #[test]
    fn deterministic() {
        let net = network();
        let a = select_stations(&net, &ExpansionConfig::default()).unwrap();
        let b = select_stations(&net, &ExpansionConfig::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_config_is_rejected() {
        let net = network();
        let mut cfg = ExpansionConfig::default();
        cfg.secondary_distance_m = f64::NAN;
        assert!(select_stations(&net, &cfg).is_err());
    }
}
