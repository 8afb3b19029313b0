//! # moby-server — snapshot-isolated serving under live ingestion
//!
//! The "millions of users" arm of the roadmap: queries are served from a
//! frozen [`SelectedNetwork`](moby_core::reassign::SelectedNetwork)
//! snapshot while a single writer keeps ingesting trip batches and
//! advancing the retention window. Three pieces compose:
//!
//! * [`SnapshotHandle`] — an epoch ring of `Arc`'d [`ServeSnapshot`]s.
//!   Readers never block on the writer: [`SnapshotHandle::current`] is an
//!   atomic epoch load plus an `Arc` clone out of the epoch's slot. The
//!   frozen `CsrGraph` makes this cheap *and* sound — a snapshot is
//!   immutable by construction, so sharing it is a reference-count bump
//!   and "snapshot isolation" needs no copying, locking, or versioned
//!   pages (see DESIGN.md, "Serving layer").
//! * [`SnapshotWriter`] — owns the private successor network. Each
//!   [`WriteOp`] (`ingest_batch` / `advance_window`) is applied to that
//!   private copy and the result is published as the next epoch with one
//!   pointer swap; readers holding older epochs keep their snapshots
//!   alive through the `Arc` until they drop them.
//! * [`QueryPool`] — a fixed-size std-only worker pool serving
//!   station-lookup, k-nearest (kd-tree), community-membership, PageRank
//!   and degree-summary [`Request`]s, each answered against one coherent
//!   snapshot. Jobs wait in one bounded queue, whose lock holder polls for
//!   50 µs before it parks, and reply through one-slot channels.
//!   [`QueryPool::submit`] never blocks or panics: a full queue answers
//!   [`Response::Overloaded`], and a job that panics, or a pool with no
//!   live worker, answers [`Response::Failed`].
//!
//! Per-snapshot metric results live in a [`MetricCache`]: PageRank, the
//! degree summaries and the Louvain partition are carried forward
//! *unchanged* when a write op does not touch the relevant graph layer,
//! and refreshed (the partition via the seeded
//! [`louvain_seeded`](moby_community::louvain_seeded) warm start, the
//! windowed pipeline's refresh) when it does. Every cached metric records the epoch it was
//! computed at, so carry-forward is observable and testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod service;
mod snapshot;

pub use service::{answer, Answer, QueryPool, Request, Response};
pub use snapshot::{
    MetricCache, PublishOutcome, ServeConfig, ServeSnapshot, SnapshotHandle, SnapshotWriter,
    WriteOp,
};
