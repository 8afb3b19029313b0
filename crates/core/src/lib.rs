//! # moby-core
//!
//! The paper's primary contribution: graph-based optimisation of network
//! expansion for a dockless bike-sharing system.
//!
//! The crate composes the substrates (`moby-geo`, `moby-data`,
//! `moby-graph`, `moby-cluster`, `moby-community`) into the three-step
//! methodology of §IV:
//!
//! 1. **Graph construction** ([`candidate`]) — constrained hierarchical
//!    clustering condenses the raw dockless locations into candidate
//!    stations and builds the candidate trip graph (Table II / Fig. 1);
//! 2. **Station ranking and selection** ([`selection`], [`reassign`]) —
//!    Algorithm 1 with Rules 1–4 promotes the strongest candidates to new
//!    stations and folds the rest back onto the nearest station
//!    (Table III / Fig. 2);
//! 3. **Community detection** ([`temporal`], [`detect`]) — Louvain over the
//!    `GBasic` / `GDay` / `GHour` graphs validates that the expanded
//!    network exhibits coherent spatiotemporal communities
//!    (Tables IV–VI, Figs. 3–7).
//!
//! [`pipeline`] wires the full end-to-end run; [`report`] renders every
//! table and figure series as text/CSV; [`validate`] checks that newly
//! selected stations behave like pre-existing ones.
//!
//! ## Quick start
//!
//! ```
//! use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
//! use moby_data::synth::{generate, SynthConfig};
//!
//! let raw = generate(&SynthConfig::small_test());
//! let outcome = ExpansionPipeline::new(PipelineConfig::default()).run(&raw).unwrap();
//! assert!(outcome.selection.selected.len() > 0);
//! assert!(outcome.communities.basic.table.community_count() >= 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod candidate;
pub mod config;
pub mod detect;
pub mod pipeline;
pub mod reassign;
pub mod report;
pub mod selection;
pub mod temporal;
pub mod validate;

pub use config::ExpansionConfig;
pub use pipeline::{
    ExpansionOutcome, ExpansionPipeline, PipelineConfig, WindowConfig, WindowedPipeline,
};

use std::fmt;

/// Errors produced by the expansion pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// The cleaned dataset has no usable fixed stations.
    NoStations,
    /// The cleaned dataset has no rentals.
    NoRentals,
    /// A configuration threshold was invalid.
    InvalidConfig(String),
    /// An ingested trip batch referenced a station the selected network
    /// does not contain.
    UnknownStation(u64),
    /// A trip weight was outside the trip domain: an integer from 1 to
    /// [`moby_data::trips::MAX_TRIP_WEIGHT`].
    InvalidWeight(f64),
    /// An internal invariant was violated (bug); the message describes it.
    Internal(String),
    /// An out-of-core spilled graph build failed on I/O (temp dir not
    /// writable, disk full). Carries the rendered context + OS error.
    Spill(String),
    /// The constrained clustering of the candidate stage failed.
    Cluster(moby_cluster::ClusterError),
}

impl From<moby_graph::GraphError> for CoreError {
    fn from(err: moby_graph::GraphError) -> CoreError {
        match err {
            moby_graph::GraphError::InvalidWeight(w) => CoreError::InvalidWeight(w),
            moby_graph::GraphError::Spill(msg) => CoreError::Spill(msg),
            other => CoreError::Internal(other.to_string()),
        }
    }
}

impl From<moby_data::DataError> for CoreError {
    fn from(err: moby_data::DataError) -> CoreError {
        match err {
            moby_data::DataError::InvalidWeight(w) => CoreError::InvalidWeight(w),
            other => CoreError::Internal(other.to_string()),
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::NoStations => write!(f, "dataset contains no usable fixed stations"),
            CoreError::NoRentals => write!(f, "dataset contains no rentals"),
            CoreError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            CoreError::UnknownStation(id) => {
                write!(f, "trip batch references unknown station {id}")
            }
            CoreError::InvalidWeight(w) => write!(
                f,
                "invalid trip weight {w}: must be an integer from 1 to {}",
                moby_data::trips::MAX_TRIP_WEIGHT
            ),
            CoreError::Internal(msg) => write!(f, "internal error: {msg}"),
            CoreError::Spill(msg) => write!(f, "spill I/O failed: {msg}"),
            CoreError::Cluster(err) => write!(f, "constrained clustering failed: {err}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(!CoreError::NoStations.to_string().is_empty());
        assert!(CoreError::InvalidConfig("x".into())
            .to_string()
            .contains('x'));
        assert!(CoreError::Internal("y".into()).to_string().contains('y'));
        assert!(!CoreError::NoRentals.to_string().is_empty());
        assert!(CoreError::UnknownStation(42).to_string().contains("42"));
        assert!(CoreError::Spill("disk full".into())
            .to_string()
            .contains("disk full"));
        assert_eq!(
            CoreError::from(moby_graph::GraphError::Spill("x".into())),
            CoreError::Spill("x".into())
        );
        assert!(
            CoreError::Cluster(moby_cluster::ClusterError::NoFixedStations)
                .to_string()
                .contains("constrained clustering failed")
        );
        assert!(CoreError::InvalidWeight(0.5).to_string().contains("0.5"));
    }

    #[test]
    fn weight_errors_stay_typed_across_layers() {
        use moby_data::DataError;
        use moby_graph::GraphError;
        assert_eq!(
            CoreError::from(GraphError::InvalidWeight(-1.0)),
            CoreError::InvalidWeight(-1.0)
        );
        assert_eq!(
            CoreError::from(DataError::InvalidWeight(0.5)),
            CoreError::InvalidWeight(0.5)
        );
        let nan = CoreError::from(DataError::InvalidWeight(f64::NAN));
        assert!(matches!(nan, CoreError::InvalidWeight(w) if w.is_nan()));
        // Every other error of either layer is an internal one, except a
        // graph spill failure.
        let not_held = CoreError::from(GraphError::EdgeNotHeld { src: 1, dst: 2 });
        assert!(matches!(&not_held, CoreError::Internal(m) if m.contains("1 -> 2")));
        assert!(matches!(
            CoreError::from(DataError::EmptyInput),
            CoreError::Internal(_)
        ));
        // The trip domain and the window kernel's domain share one cap.
        assert_eq!(
            moby_data::trips::MAX_TRIP_WEIGHT,
            moby_graph::window::MAX_EVICT_WEIGHT
        );
    }
}
