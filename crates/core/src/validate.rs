//! Validation of the expanded network (the paper's third research
//! question): are the newly selected stations *not* outliers — do they
//! exhibit activity patterns representative of the existing network?
//!
//! The checks mirror how the paper argues validity:
//!
//! * new stations should be spread across the detected communities rather
//!   than forming an isolated cluster of their own;
//! * their degree/strength distribution should be comparable to (not wildly
//!   below) the pre-existing stations';
//! * the community structure of the pre-existing stations should be stable:
//!   detecting communities on the original (fixed-station-only) network and
//!   on the expanded network should assign the old stations to similar
//!   groups (measured with NMI);
//! * the overall partition should be of positive modularity with a majority
//!   of trips self-contained.

use crate::detect::{detect_communities, DetectConfig};
use crate::pipeline::ExpansionOutcome;
use crate::temporal::{build_all_from_trips, TemporalGranularity};
use moby_community::compare::normalized_mutual_information;
use moby_community::Partition;
use moby_graph::metrics::DegreeSummary;
use serde::{Deserialize, Serialize};

/// The validation summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValidationReport {
    /// Number of newly selected stations.
    pub new_stations: usize,
    /// Number of communities (GBasic) containing at least one new station.
    pub communities_with_new_stations: usize,
    /// Total number of GBasic communities.
    pub communities_total: usize,
    /// Mean degree of new stations divided by mean degree of old stations in
    /// the selected graph.
    pub degree_ratio_new_to_old: f64,
    /// NMI between the old stations' communities detected on the expanded
    /// network and on the fixed-only network.
    pub old_station_community_stability: f64,
    /// Modularity of the GBasic partition.
    pub modularity_basic: f64,
    /// Share of trips that stay within their GBasic community.
    pub self_contained_share: f64,
}

impl ValidationReport {
    /// Whether the expanded network passes the paper-style sanity criteria:
    /// new stations exist, they are spread over more than one community,
    /// their connectivity is within an order of magnitude of the old
    /// stations', modularity is positive and the majority of trips are
    /// self-contained.
    pub fn passes(&self) -> bool {
        self.new_stations > 0
            && self.communities_with_new_stations >= 2.min(self.communities_total)
            && self.degree_ratio_new_to_old > 0.1
            && self.modularity_basic > 0.0
            && self.self_contained_share > 0.5
    }
}

/// Evaluate the validation checks over a pipeline outcome.
pub fn validate_expansion(outcome: &ExpansionOutcome, detect: &DetectConfig) -> ValidationReport {
    let selected = &outcome.selected;
    let basic = &outcome.communities.basic;
    let old_ids = selected.fixed_ids();
    let new_ids = selected.new_ids();

    // Spread of new stations over communities.
    let mut communities_with_new = std::collections::HashSet::new();
    for &id in &new_ids {
        if let Some(c) = basic.station_partition.community_of(id) {
            communities_with_new.insert(c);
        }
    }

    // Degree comparability on the selected undirected graph.
    let old_vec: Vec<_> = old_ids.iter().copied().collect();
    let new_vec: Vec<_> = new_ids.iter().copied().collect();
    let old_mean = DegreeSummary::for_nodes_csr(&selected.undirected, &old_vec)
        .map(|s| s.mean)
        .unwrap_or(0.0);
    let new_mean = DegreeSummary::for_nodes_csr(&selected.undirected, &new_vec)
        .map(|s| s.mean)
        .unwrap_or(0.0);
    let degree_ratio = if old_mean > 0.0 {
        new_mean / old_mean
    } else {
        0.0
    };

    // Stability of the old stations' communities: detect on the
    // fixed-station-only subgraph and compare with the expanded partition
    // restricted to old stations.
    let fixed_only = selected.undirected.subgraph(|id| old_ids.contains(&id));
    let fixed_store_graph =
        crate::temporal::TemporalGraph::from_csr(TemporalGranularity::TNull, fixed_only, None);
    let fixed_directed = selected.directed.subgraph(|id| old_ids.contains(&id));
    let fixed_detection = detect_communities(&fixed_store_graph, &fixed_directed, &old_ids, detect);
    let expanded_restricted: Partition = basic
        .station_partition
        .iter()
        .filter(|(id, _)| old_ids.contains(id))
        .collect();
    let stability =
        normalized_mutual_information(&fixed_detection.station_partition, &expanded_restricted);

    ValidationReport {
        new_stations: new_ids.len(),
        communities_with_new_stations: communities_with_new.len(),
        communities_total: basic.community_count(),
        degree_ratio_new_to_old: degree_ratio,
        old_station_community_stability: stability,
        modularity_basic: basic.modularity,
        self_contained_share: basic.table.self_contained_share(),
    }
}

/// Convenience: validate with the default detection settings (exists
/// mainly so callers without a `DetectConfig` use defaults).
pub fn validate_default(outcome: &ExpansionOutcome) -> ValidationReport {
    validate_expansion(outcome, &DetectConfig::default())
}

/// Quick structural check used by tests and examples: rebuilds GBasic from
/// the outcome's trip table and confirms it matches the selected network's
/// undirected graph (guards against accidental divergence between
/// pipeline stages).
pub fn gbasic_is_consistent(outcome: &ExpansionOutcome) -> bool {
    let temporals = build_all_from_trips(&outcome.selected.trips, None, None);
    let rebuilt = &temporals[0];
    rebuilt.csr.node_count() == outcome.selected.stations.len()
        && (rebuilt.csr.total_weight() - outcome.selected.undirected.total_weight()).abs() < 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{ExpansionPipeline, PipelineConfig};
    use moby_data::synth::{generate, SynthConfig};

    fn outcome() -> ExpansionOutcome {
        let raw = generate(&SynthConfig::small_test());
        ExpansionPipeline::new(PipelineConfig::default())
            .run(&raw)
            .unwrap()
    }

    #[test]
    fn validation_report_fields_are_populated() {
        let out = outcome();
        let report = validate_default(&out);
        assert_eq!(report.new_stations, out.new_station_count());
        assert!(report.communities_total >= 2);
        assert!(report.communities_with_new_stations >= 1);
        assert!(report.degree_ratio_new_to_old > 0.0);
        assert!(report.modularity_basic > 0.0);
        assert!((0.0..=1.0).contains(&report.old_station_community_stability));
        assert!((0.0..=1.0).contains(&report.self_contained_share));
    }

    #[test]
    fn synthetic_expansion_passes_validation() {
        let out = outcome();
        let report = validate_default(&out);
        assert!(
            report.passes(),
            "expected the synthetic expansion to pass validation: {report:?}"
        );
    }

    #[test]
    fn gbasic_consistency_check() {
        let out = outcome();
        assert!(gbasic_is_consistent(&out));
    }

    #[test]
    fn old_station_communities_are_reasonably_stable() {
        let out = outcome();
        let report = validate_default(&out);
        // The fixed-only network and the expanded network should agree on
        // the broad community structure of the old stations.
        assert!(
            report.old_station_community_stability > 0.3,
            "stability {}",
            report.old_station_community_stability
        );
    }
}
