//! Network metrics.
//!
//! The paper and the related work it builds on characterise bike-share
//! networks with a standard battery of descriptors: degree and strength
//! ("the level of activity and connectivity within a given location"),
//! the local clustering coefficient (spatial distribution), centrality
//! measures (betweenness, closeness, PageRank — network stability and
//! prominence), and the Gini coefficient (equity of usage). The station
//! selection algorithm itself (Algorithm 1) only needs degree, but the
//! validation and reporting layers use the rest.
//!
//! Every metric has two entry points: a compatibility wrapper taking the
//! mutable builder [`crate::WeightedGraph`] (which freezes once
//! internally), and a `*_csr` variant consuming an already-frozen
//! [`crate::CsrGraph`] so pipelines that freeze once can share the frozen
//! graph across the whole suite without re-deriving adjacency.

mod assortativity;
mod centrality;
mod clustering;
mod components;
mod degree;
mod gini;
mod pagerank;
mod paths;

pub use assortativity::{degree_assortativity, degree_assortativity_csr};
pub use centrality::{
    betweenness_centrality, betweenness_centrality_csr, closeness_centrality,
    closeness_centrality_csr,
};
pub use clustering::{
    average_clustering_coefficient, average_clustering_coefficient_csr,
    local_clustering_coefficient, local_clustering_coefficient_csr,
};
pub use components::{
    connected_components, connected_components_csr, largest_component_size,
    largest_component_size_csr,
};
pub use degree::{degree_map, degree_map_csr, strength_map, strength_map_csr, DegreeSummary};
pub use gini::gini_coefficient;
pub use pagerank::{pagerank, pagerank_csr, PageRankConfig};
pub use paths::{
    average_path_length, diameter, global_efficiency, shortest_path_lengths,
    shortest_path_lengths_csr,
};
