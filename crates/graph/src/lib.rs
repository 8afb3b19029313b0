//! # moby-graph
//!
//! In-memory weighted graphs and the few network metrics the pipeline uses.
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
//!   analytical algorithm (degree, Louvain, PageRank) runs on this
//!   cache-friendly representation;
//! * [`build_dense_csr`] — the columnar **sort-merge construction**
//!   path: dense `(src, dst, weight)` columns over a node table become a
//!   frozen [`CsrGraph`] directly (rows bucketed straight from the edge
//!   columns, then sorted by target and merged in place, parallelised on
//!   [`par`]), producing bit-for-bit the graph [`WeightedGraph::freeze`]
//!   builds from the same table and edges — with zero per-edge hash
//!   operations. [`build_dense_csr_budgeted`] runs the same build at an
//!   explicit shard count and spill budget ([`spill`]);
//! * [`CsrGraph::apply_window`] — the one **incremental update**: a
//!   window step's evicted and appended edges (either side may be empty)
//!   and the new node table go in, and one merge pass per adjacency
//!   writes the next frozen graph. Over integer weights from 1 to 2^20
//!   every sum is an exact `f64`, so the result is bit-identical to
//!   rebuilding from the edge list after the step (see [`window`] for the
//!   argument);
//! * [`par`] — the deterministic parallel scheduler: edge-balanced
//!   contiguous row chunks over CSR offsets, scoped-thread execution with a
//!   fixed chunk-merge order, and `MOBY_THREADS` thread-count resolution.
//!   Results are bit-identical at any thread count; see the module docs for
//!   the contract;
//! * [`metrics`] — degree summaries (Algorithm 1's station selection),
//!   PageRank (served per snapshot) and the Gini coefficient (the
//!   baseline comparison's usage equity);
//! * [`export`] — GeoJSON emission for the paper's map figures.
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
pub mod export;
mod graph;
pub mod metrics;
pub mod par;
pub mod spill;
pub mod window;

pub use build::{build_dense_csr, build_dense_csr_budgeted};
pub use csr::CsrGraph;
pub use graph::{NodeId, WeightedGraph};
pub use window::EdgeColumns;

use std::fmt;

/// Errors produced by graph operations.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge weight was outside the operation's domain: non-finite or
    /// negative for a build, or not an integer from 1 to
    /// [`window::MAX_EVICT_WEIGHT`] for a window step.
    InvalidWeight(f64),
    /// A window step evicts an edge the graph does not hold, or more
    /// weight than the graph holds on it.
    EdgeNotHeld {
        /// External id of the evicted edge's source.
        src: NodeId,
        /// External id of the evicted edge's target.
        dst: NodeId,
    },
    /// A window step's node table or index map does not fit the graph
    /// (a node mapped twice or to another id, a dropped node that keeps
    /// an entry), or an endpoint lies outside its table. Carries the
    /// node's id, or the index when it has none.
    NodeTable(NodeId),
    /// A spill-to-disk construction run failed on I/O (temp dir not
    /// writable, disk full, a run vanished mid-merge). Carries the
    /// rendered context + OS error, since `std::io::Error` is neither
    /// `Clone` nor `PartialEq`.
    Spill(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::InvalidWeight(w) => write!(f, "invalid edge weight {w}"),
            GraphError::EdgeNotHeld { src, dst } => {
                write!(f, "evicted edge {src} -> {dst} is not held by the graph")
            }
            GraphError::NodeTable(id) => {
                write!(f, "window node table does not fit the graph at node {id}")
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
        assert!(GraphError::EdgeNotHeld { src: 3, dst: 4 }
            .to_string()
            .contains("3 -> 4"));
        assert!(GraphError::NodeTable(7).to_string().contains('7'));
        assert!(GraphError::Spill("disk full".into())
            .to_string()
            .contains("disk full"));
    }
}
