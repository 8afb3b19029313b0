//! # moby-graph
//!
//! In-memory weighted graphs and a network-metrics suite.
//!
//! The paper stores its trip networks in Neo4j and runs the Graph Data
//! Science library on top of it. This crate is the Rust substrate that
//! replaces that stack for the reproduction (the trips themselves live in
//! the columnar `moby_data::trips::TripTable`):
//!
//! * [`WeightedGraph`] — the mutable *builder* graph: merged weighted-edge
//!   inserts over per-node hash maps. Since the columnar path landed this
//!   is the compatibility / equivalence baseline, not the hot path;
//! * [`CsrGraph`] — the frozen compressed-sparse-row projection; every
//!   analytical algorithm (degree/strength, Louvain, centrality) runs on
//!   this cache-friendly representation;
//! * [`EdgeList`] / [`CsrBuilder`] — the columnar **sort-merge
//!   construction** path: `(src, dst, weight)` triples become a frozen
//!   [`CsrGraph`] directly (sort by row/target + adjacent-duplicate
//!   merge, parallelised on [`par`]), producing bit-for-bit the graph
//!   [`WeightedGraph::freeze`] would have built — with zero per-edge hash
//!   operations;
//! * [`CsrDelta`] / [`CsrGraph::apply_delta`] — **incremental updates**:
//!   an edge batch merges into an existing frozen graph row by row,
//!   producing a graph bit-identical to rebuilding from the concatenated
//!   edge list (see [`delta`] for the contract) — the streaming-ingestion
//!   path;
//! * [`CsrEvict`] / [`CsrGraph::apply_evict`] — the **removal arm**: a
//!   sliding window drops expired edges from a frozen graph, producing a
//!   graph bit-identical to rebuilding from the surviving edge list (see
//!   [`evict`] for why subtraction re-folds instead of continuing the
//!   stored fold);
//! * [`par`] — the deterministic parallel scheduler: edge-balanced
//!   contiguous row chunks over CSR offsets, scoped-thread execution with a
//!   fixed chunk-merge order, and `MOBY_THREADS` thread-count resolution.
//!   Results are bit-identical at any thread count; see the module docs for
//!   the contract;
//! * [`metrics`] — degree, strength, local clustering coefficient,
//!   betweenness, closeness, PageRank, connected components and the Gini
//!   coefficient, the network descriptors referenced in the paper's related
//!   work and used for validation;
//! * [`export`] — DOT / CSV / GeoJSON emission for the paper's figures.
//!
//! ## Example
//!
//! ```
//! use moby_graph::WeightedGraph;
//!
//! let mut g = WeightedGraph::new_undirected();
//! g.add_edge(1, 2, 3.0);
//! g.add_edge(2, 3, 1.0);
//! g.add_edge(1, 2, 2.0); // parallel edges merge their weights
//! assert_eq!(g.node_count(), 3);
//! assert_eq!(g.strength_of(1), Some(5.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod csr;
pub mod delta;
pub mod evict;
pub mod export;
mod graph;
pub mod metrics;
pub mod par;
pub mod spill;

pub use build::{
    build_dense_csr, build_dense_csr_budgeted, build_dense_csr_sharded, build_dense_csr_spilled,
    CsrBuilder, EdgeList,
};
pub use csr::{AlignedSlab, CsrGraph, CACHE_LINE};
pub use delta::CsrDelta;
pub use evict::CsrEvict;
pub use graph::{NodeId, WeightedGraph};

use std::fmt;

/// Errors produced by graph operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge weight was non-finite or negative.
    InvalidWeight(f64),
    /// A spill-to-disk construction run failed on I/O (temp dir not
    /// writable, disk full, a run vanished mid-merge). Carries the
    /// rendered context + OS error, since `std::io::Error` is neither
    /// `Clone` nor `PartialEq`.
    Spill(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidWeight(w) => {
                write!(
                    f,
                    "invalid edge weight {w}: must be finite and non-negative"
                )
            }
            GraphError::Spill(msg) => write!(f, "spill I/O failed: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(GraphError::InvalidWeight(-1.0).to_string().contains("-1"));
        assert!(GraphError::Spill("disk full".into())
            .to_string()
            .contains("disk full"));
    }
}
