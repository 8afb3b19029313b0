//! # moby-expansion
//!
//! A Rust reproduction of *"Graph-Based Optimisation of Network Expansion in
//! a Dockless Bike Sharing System"* (Roantree, Cuong, Murphy, Ngo —
//! ICDE 2024, arXiv:2404.01320).
//!
//! This facade crate re-exports the workspace members under short module
//! names so downstream users can depend on a single crate:
//!
//! * [`geo`] — Haversine distance, polygons, spatial indexes;
//! * [`data`] — trip schema, cleaning pipeline, synthetic Dublin generator;
//! * [`graph`] — weighted builder graphs, frozen CSR graphs, degree,
//!   PageRank and Gini metrics;
//! * [`cluster`] — constrained hierarchical agglomerative clustering;
//! * [`community`] — Louvain, label propagation, modularity, normalised
//!   mutual information;
//! * [`core`] — the paper's pipeline: candidate generation, station
//!   selection (Algorithm 1), temporal graphs and community validation;
//! * [`server`] — the snapshot-isolated serving layer: epoch-published
//!   frozen snapshots, a single writer applying live ingest/evict
//!   deltas, a std-only query worker pool and per-snapshot metric
//!   caches.
//!
//! ## Architecture: columnar build → freeze → window-step lifecycle
//!
//! The analytical core follows a **build → freeze → apply_window** graph
//! lifecycle:
//!
//! 1. **Build (columnar).** Cleaning emits a struct-of-arrays
//!    [`data::trips::TripTable`] — dense `u32` station endpoints over one
//!    shared sorted intern table, weekday/hour keys, weights. Graph
//!    construction goes straight from those columns to a frozen graph via
//!    [`graph::build_dense_csr`]: **sort-merge construction** (sort by
//!    row and target, merge adjacent duplicates in insertion order)
//!    expressed as fixed-chunk passes on the [`graph::par`] scheduler —
//!    zero per-edge hash operations, parallel yet bit-identical at any
//!    thread count. The layered `GDay`/`GHour` graphs take their dense
//!    columns from one first-appearance intern pass over the table
//!    ([`core::temporal::build_all_from_trips`]).
//! 2. **Freeze.** The product is an immutable [`graph::CsrGraph`]:
//!    compressed sparse row adjacency (`offsets`/`targets`/`weights`,
//!    rows sorted by target), the dense node table (its `NodeId → u32`
//!    index is built on the first lookup by id), and cached per-node
//!    weighted degrees. Every hot algorithm — Louvain, label
//!    propagation, modularity, PageRank — walks the frozen CSR rows by
//!    dense index; the `*_csr` entry points consume an already-frozen
//!    graph.
//! 3. **Advance by window steps (streaming).** A live deployment slides
//!    a window: each step's expired trips leave
//!    ([`data::trips::TripTable::evict_before_pinned`]) and a
//!    [`data::trips::TripBatch`] of new ones arrives
//!    ([`data::trips::TripTable::append_batch`]). One kernel,
//!    [`graph::CsrGraph::apply_window`], takes a step's evicted and
//!    appended edges as dense indices and writes the next frozen graph
//!    in one merge pass per adjacency: each row subtracts its evicted
//!    half-edges, remaps into the new node table and merges its appended
//!    ones, and untouched rows keep their degree caches. Trip weights are
//!    integers from 1 to 2^20, so every sum is exact in any order and the
//!    result is **bit-identical to rebuilding from the table after the
//!    step**, at any thread count (see [`graph::window`] for the
//!    argument). [`core::reassign::SelectedNetwork::advance_window`] (and
//!    [`core::reassign::SelectedNetwork::ingest_batch`], a step that
//!    evicts nothing) wires this through the pipeline state (trip table,
//!    frozen directed/undirected trip graphs, Table III), and
//!    [`core::temporal::apply_window_all`] carries `GBasic`/`GDay`/`GHour`
//!    through the same step — so a live deployment pays per step for
//!    what the step touches, not for a full rebuild. The differential
//!    suites (`crates/core/tests/proptest_{delta,window}.rs`,
//!    `crates/graph/tests/proptest_window_kernel.rs`) assert step chains
//!    equal the one-shot rebuild bitwise at 1/2/4 threads.
//!
//! **Which layer owns freezing:** the selected-network/temporal layer.
//! [`core::reassign::build_selected_network`] freezes the directed and
//! undirected trip graphs once from the trip table, and
//! [`core::temporal::build_all_from_trips`] freezes each granularity's
//! (possibly layered) graph once — detection, modularity scoring, station
//! folding and the per-community trip tables all read the same frozen
//! graphs; adjacency is never re-derived downstream.
//!
//! The legacy mutable builder, [`graph::WeightedGraph`] (per-node
//! hash-map adjacency, `freeze()` to CSR), survives **off the hot path**
//! as the compatibility and equivalence baseline: [`graph::build_dense_csr`]
//! over a node table is bit-identical to `WeightedGraph::freeze()` after
//! seeding that table, proptests enforce it at 1/2/4 build threads, the
//! synthetic-dataset suite proves
//! the columnar pipeline reproduces the hash-map reference build
//! ([`core::temporal::reference_graph`], fed from the same trip table)
//! partition-for-partition, and the repository benchmark
//! (`BENCHMARK.json`, `benchmark/`) measures the columnar builds end to
//! end. See `DESIGN.md` for the construction pipeline's internals.
//!
//! ## Parallelism: the deterministic execution layer
//!
//! Hot CSR sweeps run on the shared scheduler in [`graph::par`]:
//! contiguous row chunks balanced by edge count, executed on scoped `std`
//! threads, with every reduction merged in fixed chunk order. The
//! determinism contract is strict — **results are bit-identical at any
//! thread count**, because chunk boundaries depend only on the graph (never
//! on the thread count) and the serial path is simply the 1-thread
//! specialisation of the parallel one. PageRank runs pull-based power
//! iterations on a persistent worker pool ([`graph::par::par_iterate`]);
//! Louvain and label propagation precompute move/label decisions in
//! parallel and commit them serially with staleness checks, so the
//! committed sequence is exactly the serial one; modularity and the
//! freeze-time degree caches accumulate per chunk and merge in chunk
//! order.
//!
//! The worker count comes from the `threads` field on the algorithm
//! configs ([`community::LouvainConfig`], [`graph::metrics::PageRankConfig`],
//! [`core::detect::DetectConfig`], …), falling back to the `MOBY_THREADS`
//! environment variable and then the machine's parallelism — so `MOBY_THREADS=8`
//! speeds a pipeline up without touching any result, and `MOBY_THREADS=1`
//! reproduces the serial path exactly.
//!
//! ## Quick start
//!
//! ```
//! use moby_expansion::core::pipeline::{ExpansionPipeline, PipelineConfig};
//! use moby_expansion::data::synth::{generate, SynthConfig};
//!
//! // Generate a small synthetic Moby-like dataset and expand the network.
//! let raw = generate(&SynthConfig::small_test());
//! let outcome = ExpansionPipeline::new(PipelineConfig::default())
//!     .run(&raw)
//!     .expect("pipeline runs on the synthetic dataset");
//!
//! println!(
//!     "selected {} new stations on top of {} existing ones",
//!     outcome.new_station_count(),
//!     outcome.dataset.stations.len(),
//! );
//! assert!(outcome.communities.basic.modularity > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use moby_cluster as cluster;
pub use moby_community as community;
pub use moby_core as core;
pub use moby_data as data;
pub use moby_geo as geo;
pub use moby_graph as graph;
pub use moby_server as server;

/// The crate version, taken from the workspace manifest.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn version_is_populated() {
        assert!(!super::VERSION.is_empty());
    }
}
