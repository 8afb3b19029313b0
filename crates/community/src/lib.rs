//! # moby-community
//!
//! Community detection and partition-quality metrics.
//!
//! The paper validates its expanded station network by running the
//! **Louvain** algorithm on three weighted station graphs (`GBasic`,
//! `GDay`, `GHour`) and inspecting the modularity and the self-containment
//! of the detected communities. This crate provides:
//!
//! * [`Partition`] — an assignment of graph nodes to communities;
//! * [`modularity`] — weighted Newman modularity (paper eq. 2);
//! * [`louvain`] — the Louvain algorithm (greedy modularity optimisation
//!   with graph aggregation), deterministic for a fixed seed;
//! * [`label_propagation_csr`] — the Label Propagation algorithm the
//!   paper names as future work, used here for the detector ablation;
//!
//! Every detector runs on the **frozen CSR representation**
//! ([`moby_graph::CsrGraph`]): the `*_csr` entry points consume an
//! already-frozen graph, the builder-graph entry points freeze once and
//! delegate, and the `*_hashmap` functions retain the legacy hash-map
//! walks as the test oracles the equivalence suites compare against;
//!
//! * [`stats`] — per-community trip accounting (within / out / in), the
//!   layout of the paper's Tables IV–VI;
//! * [`compare`] — partition similarity (NMI) used to verify that new
//!   stations join communities that behave like existing ones.
//!
//! ## Example
//!
//! ```
//! use moby_graph::WeightedGraph;
//! use moby_community::{louvain, modularity, LouvainConfig};
//!
//! // Two triangles joined by a single light edge.
//! let mut g = WeightedGraph::new_undirected();
//! for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
//!     g.add_edge(a, b, 5.0);
//! }
//! g.add_edge(3, 4, 1.0);
//! let partition = louvain(&g, &LouvainConfig::default());
//! assert_eq!(partition.community_count(), 2);
//! assert!(modularity(&g, &partition) > 0.3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
mod labelprop;
mod louvain;
mod modularity;
mod partition;
pub mod stats;

pub use labelprop::{label_propagation_csr, LabelPropagationConfig};
pub use louvain::{
    louvain, louvain_csr, louvain_hashmap, louvain_scored, louvain_seeded, louvain_seeded_active,
    LouvainConfig, ScoredPartition,
};
pub use modularity::{modularity, modularity_csr, modularity_csr_threads, modularity_hashmap};
pub use partition::Partition;
