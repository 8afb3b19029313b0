//! Columnar sort-merge CSR construction — the hashmap-free build path.
//!
//! [`WeightedGraph`](crate::WeightedGraph) builds adjacency through
//! per-node hash maps: every inserted edge pays a hash probe per endpoint.
//! That is fine for small graphs but it is the last hash-bound stage on the
//! pipeline's hot path now that every *algorithm* consumes a frozen
//! [`CsrGraph`]. This module replaces it with a columnar pipeline:
//!
//! 1. collect `(src, dst, weight)` triples in a struct-of-arrays
//!    [`EdgeList`];
//! 2. intern external [`NodeId`]s into dense `u32` indices by
//!    **sort + dedup** over `(id, first-occurrence slot)` pairs — no hash
//!    map, and the dense order reproduces the builder's insertion order
//!    exactly (seeded nodes first, then endpoints in edge order);
//! 3. bucket the half-edges by source row with a counting pass, then
//!    **sort each row by target and merge adjacent duplicates**, summing
//!    weights in original insertion order.
//!
//! Steps 2–3 are expressed as fixed-chunk passes on the
//! [`par`] scheduler, so construction parallelises while staying
//! **bit-identical at any thread count** (chunk boundaries never depend on
//! the thread count, and every merge folds per-chunk results in chunk
//! order — the module contract of [`par`]).
//!
//! ## Sharded construction
//!
//! At city scale the serial stable-scatter pass of step 3 dominates the
//! build, so the row packing can additionally be **sharded**: the dense
//! row space is partitioned into contiguous station ranges (balanced by
//! half-edge count — a pure function of the row structure and the shard
//! count, never the thread count), each shard scatters and sort-merges
//! its own rows in parallel, and the shard outputs concatenate in shard
//! order. Because a merged row is a pure function of that row's bucketed
//! entries *in insertion order* — and a shard-local forward scan
//! preserves exactly that order — the sharded build is **bit-identical
//! to the unsharded one at any shard count and any thread count** — the
//! shard-count independence axis, beside thread count and spill budget.
//! See [`build_dense_csr_sharded`] and `DESIGN.md`.
//!
//! ## Out-of-core spilled construction
//!
//! When a memory budget is set ([`CsrBuilder::spill_budget`] /
//! [`spill::BUDGET_ENV`]) and the estimated scatter footprint — half-edge
//! count × [`spill::HALF_EDGE_BYTES`] — exceeds it, the half-edge columns
//! are never materialised: the counting pass streams the edges once to
//! build the provisional offsets, a partition pass appends each half-edge
//! to its owning shard's **disk run** (plain little-endian columnar
//! records under a RAII temp dir, see [`spill`]) in global insertion
//! order, and each shard's merge streams back only its own run through
//! the same shard-local scatter + `sort_merge_rows` as the in-memory
//! sharded pass. Because the runs preserve global insertion order within
//! each row, the per-row buckets are byte-equal to the in-memory scatter
//! and the frozen graph is **bit-identical to the in-memory build at any
//! shard count × thread count × budget** — the spill-budget independence
//! axis, enforced by `tests/proptest_spill.rs`.
//!
//! The output is *exactly* the graph `WeightedGraph::freeze()` would have
//! produced from the same inserts — same dense node table, same sorted
//! rows, same bit pattern in every merged weight and cached degree — which
//! the equivalence proptests assert at 1/2/4 build threads. The builder
//! path survives as the compatibility baseline; this is the hot path.

use crate::csr::CsrParts;
use crate::{par, spill, CsrGraph, NodeId};
use std::path::Path;

/// A struct-of-arrays list of weighted edges — the columnar intermediate
/// between trip records and a frozen [`CsrGraph`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EdgeList {
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    weight: Vec<f64>,
}

impl EdgeList {
    /// An empty edge list.
    pub fn new() -> EdgeList {
        EdgeList::default()
    }

    /// Append one edge.
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId, weight: f64) {
        self.src.push(src);
        self.dst.push(dst);
        self.weight.push(weight);
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the list holds no edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

impl Extend<(NodeId, NodeId, f64)> for EdgeList {
    fn extend<T: IntoIterator<Item = (NodeId, NodeId, f64)>>(&mut self, iter: T) {
        for (s, d, w) in iter {
            self.push(s, d, w);
        }
    }
}

impl FromIterator<(NodeId, NodeId, f64)> for EdgeList {
    fn from_iter<T: IntoIterator<Item = (NodeId, NodeId, f64)>>(iter: T) -> EdgeList {
        let mut list = EdgeList::new();
        list.extend(iter);
        list
    }
}

/// Builds a frozen [`CsrGraph`] from an [`EdgeList`] by parallel
/// sort-merge, without touching a hash map on the per-edge path.
///
/// Semantics mirror [`WeightedGraph`](crate::WeightedGraph) insertion
/// exactly:
///
/// * nodes are interned in first-appearance order (seeded nodes first,
///   then `src` before `dst` within each edge);
/// * parallel edges between the same pair merge by summing weights in
///   insertion order;
/// * undirected edges appear in both endpoint rows but count once in
///   [`CsrGraph::edge_count`] / [`CsrGraph::total_weight`];
/// * non-finite or negative weights are ignored, matching
///   [`WeightedGraph::add_edge`](crate::WeightedGraph::add_edge)'s release
///   behaviour.
///
/// See the [module docs](self) for the pipeline and the determinism
/// contract.
#[derive(Debug, Clone, Default)]
pub struct CsrBuilder {
    directed: bool,
    seeds: Vec<NodeId>,
    edges: EdgeList,
    threads: Option<usize>,
    shards: Option<usize>,
    spill_budget: Option<u64>,
}

impl CsrBuilder {
    /// A builder for an undirected graph.
    pub fn undirected() -> CsrBuilder {
        CsrBuilder {
            directed: false,
            ..CsrBuilder::default()
        }
    }

    /// A builder for a directed graph.
    pub fn directed() -> CsrBuilder {
        CsrBuilder {
            directed: true,
            ..CsrBuilder::default()
        }
    }

    /// Override the worker-thread count for [`CsrBuilder::build`]. `None`
    /// (the default) resolves `MOBY_THREADS` / the machine parallelism via
    /// [`par::thread_count`]. The built graph is bit-identical at any
    /// thread count; this only tunes speed.
    pub fn threads(mut self, threads: Option<usize>) -> CsrBuilder {
        self.threads = threads;
        self
    }

    /// Override the construction shard count for [`CsrBuilder::build`].
    /// `None` (the default) resolves `MOBY_SHARDS` via
    /// [`par::shard_count`] (default 1, unsharded). The built graph is
    /// bit-identical at any shard count; sharding only parallelises the
    /// row-scatter pass and bounds per-shard scatter memory — see the
    /// [module docs](self).
    pub fn shards(mut self, shards: Option<usize>) -> CsrBuilder {
        self.shards = shards;
        self
    }

    /// Set the out-of-core spill budget in **megabytes**. `None` (the
    /// default) resolves [`spill::BUDGET_ENV`]; no budget anywhere means
    /// the build never spills. When the estimated scatter footprint
    /// exceeds the budget, [`CsrBuilder::build`] partitions the
    /// half-edges to per-shard disk runs instead of in-memory columns —
    /// the frozen graph is **bit-identical either way** (see the
    /// [module docs](self)), so this only trades build speed for bounded
    /// peak memory. `Some(0)` spills every non-empty build.
    pub fn spill_budget(mut self, budget_mb: Option<u64>) -> CsrBuilder {
        self.spill_budget = budget_mb;
        self
    }

    /// Pre-intern nodes in the given order before any edge endpoints —
    /// the analogue of calling
    /// [`WeightedGraph::add_node`](crate::WeightedGraph::add_node) up
    /// front, which is how projections keep isolated stations visible.
    /// Duplicate ids keep their first position.
    pub fn seed_nodes<I: IntoIterator<Item = NodeId>>(&mut self, ids: I) -> &mut CsrBuilder {
        self.seeds.extend(ids);
        self
    }

    /// Append one edge (invalid weights are ignored; see the type docs).
    #[inline]
    pub fn push(&mut self, src: NodeId, dst: NodeId, weight: f64) -> &mut CsrBuilder {
        if weight.is_finite() && weight >= 0.0 {
            self.edges.push(src, dst, weight);
        }
        self
    }

    /// Freeze the buffered edges into a [`CsrGraph`] by parallel
    /// sort-merge. See the [module docs](self).
    ///
    /// # Panics
    ///
    /// If an out-of-core spill engaged (via [`CsrBuilder::spill_budget`]
    /// or [`spill::BUDGET_ENV`]) and failed on I/O. Use
    /// [`CsrBuilder::try_build`] to handle spill failures as errors.
    pub fn build(&self) -> CsrGraph {
        self.try_build()
            .expect("spill I/O failed; use CsrBuilder::try_build to handle it")
    }

    /// [`CsrBuilder::build`] with spill I/O failures surfaced as
    /// [`crate::GraphError::Spill`] instead of panics — the entry for
    /// callers that configure a spill budget and want to degrade
    /// gracefully (e.g. retry in memory or report the temp-dir problem).
    /// Without a resolved budget this never errors.
    pub fn try_build(&self) -> crate::Result<CsrGraph> {
        let threads = par::thread_count(self.threads);
        let m = self.edges.len();
        assert!(
            m <= (u32::MAX / 2) as usize,
            "edge list exceeds the u32 CSR index space"
        );

        // --- Intern: sort (id, first-slot) pairs, dedup, order by slot. ---
        // Seeded nodes occupy slots 0..S; edge k contributes its src at
        // slot S + 2k and its dst at S + 2k + 1, reproducing the builder's
        // add_node order without a hash map.
        let mut pairs: Vec<(NodeId, u64)> = Vec::with_capacity(self.seeds.len() + 2 * m);
        for (i, &id) in self.seeds.iter().enumerate() {
            pairs.push((id, i as u64));
        }
        let base = self.seeds.len() as u64;
        for k in 0..m {
            pairs.push((self.edges.src[k], base + 2 * k as u64));
            pairs.push((self.edges.dst[k], base + 2 * k as u64 + 1));
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0); // keeps the first (minimal) slot per id
        let mut order: Vec<(u64, NodeId)> = pairs.iter().map(|&(id, slot)| (slot, id)).collect();
        order.sort_unstable();
        let node_ids: Vec<NodeId> = order.iter().map(|&(_, id)| id).collect();
        let n = node_ids.len();
        assert!(n <= u32::MAX as usize, "CSR index space is u32");
        // Sorted-by-id lookup table for binary-search endpoint mapping.
        let mut lookup: Vec<(NodeId, u32)> = node_ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, i as u32))
            .collect();
        lookup.sort_unstable();

        // --- Map endpoints to dense indices (parallel, fixed chunks). ---
        let edge_chunks = par::RowChunks::uniform(m, 64);
        let resolve = |id: NodeId| -> u32 {
            let at = lookup
                .binary_search_by_key(&id, |&(id, _)| id)
                .expect("endpoint interned");
            lookup[at].1
        };
        let mapped = par::par_map(&edge_chunks, threads, |_, range| {
            range
                .map(|k| (resolve(self.edges.src[k]), resolve(self.edges.dst[k])))
                .collect::<Vec<(u32, u32)>>()
        });
        let mut srcs: Vec<u32> = Vec::with_capacity(m);
        let mut dsts: Vec<u32> = Vec::with_capacity(m);
        for chunk in mapped {
            for (s, d) in chunk {
                srcs.push(s);
                dsts.push(d);
            }
        }

        build_dense_csr_budgeted(
            self.directed,
            node_ids,
            &srcs,
            &dsts,
            &self.edges.weight,
            self.shards,
            Some(threads),
            self.spill_budget,
            None,
        )
    }
}

/// Build a frozen graph straight from **already-interned dense edge
/// columns** — the zero-copy entry for columnar sources like
/// `moby_data`'s trip table, whose rows carry dense `u32` endpoints over
/// a known node table. Skips the intern/sort and endpoint-mapping passes
/// of [`CsrBuilder::build`]; the sort-merge row packing and its
/// semantics (insertion-order weight merges, builder edge-count
/// conventions, bit-identical results at any thread count) are
/// identical.
///
/// `node_ids` supplies the dense node table (dense index = position);
/// `src[k]`/`dst[k]` must be valid indices into it and every weight must
/// be finite and non-negative — callers validate at the boundary, as the
/// trip table does.
pub fn build_dense_csr(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    threads: Option<usize>,
) -> CsrGraph {
    build_dense_csr_sharded(directed, node_ids, src, dst, weight, None, threads)
}

/// [`build_dense_csr`] with an explicit construction shard count — the
/// city-scale entry point.
///
/// The dense row space is partitioned into at most `shards` contiguous
/// station ranges balanced by half-edge count; each shard scatters its
/// own rows from the half-edge columns (a shard-local forward scan, so
/// every row's bucket keeps global insertion order) and sort-merges them
/// with the same per-row machinery as the unsharded path, then the shard
/// outputs concatenate in shard order. The result is **bit-identical to
/// the unsharded build at any shard count and any thread count** — the
/// shard-independence proptests assert this bitwise over
/// {1, 2, 4} shards × {1, 2, 4} threads — so downstream consumers
/// (including [`CsrGraph::apply_delta`](crate::CsrGraph::apply_delta),
/// which accepts sharded bases unchanged) cannot observe the knob.
///
/// `shards = None` resolves the `MOBY_SHARDS` environment variable via
/// [`par::shard_count`] (default 1). Shards bound the parallelism of the
/// scatter/merge stages, so pick `shards >= threads` when sharding for
/// speed; per-shard scatter buffers hold only that shard's half-edges,
/// which is what keeps peak memory bounded on 10M-trip builds.
///
/// # Panics
///
/// If an out-of-core spill engaged via [`spill::BUDGET_ENV`] and failed
/// on I/O. Use [`build_dense_csr_budgeted`] to handle spill errors.
pub fn build_dense_csr_sharded(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    shards: Option<usize>,
    threads: Option<usize>,
) -> CsrGraph {
    build_dense_csr_budgeted(
        directed, node_ids, src, dst, weight, shards, threads, None, None,
    )
    .expect("spill I/O failed; use build_dense_csr_budgeted to handle it")
}

/// [`build_dense_csr_sharded`] with an explicit out-of-core **spill
/// budget** — the bounded-memory city-scale entry point.
///
/// `budget_mb = None` resolves [`spill::BUDGET_ENV`]; when the resolved
/// budget exists and the estimated scatter footprint (half-edge count ×
/// [`spill::HALF_EDGE_BYTES`]) exceeds it, the half-edge columns are
/// partitioned to per-shard disk runs under `spill_dir` (default: the
/// system temp dir) and merged by streaming each shard's run back — see
/// the [module docs](self). The result is **bit-identical to the
/// in-memory build at any shard count × thread count × budget**; only
/// peak memory and build speed change. Spill I/O failures surface as
/// [`crate::GraphError::Spill`].
#[allow(clippy::too_many_arguments)]
pub fn build_dense_csr_budgeted(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<CsrGraph> {
    assert_eq!(src.len(), dst.len(), "dense edge columns must align");
    assert_eq!(src.len(), weight.len(), "dense edge columns must align");
    assert!(
        src.len() <= (u32::MAX / 2) as usize,
        "edge list exceeds the u32 CSR index space"
    );
    let est_halves = if directed { src.len() } else { 2 * src.len() };
    let (shards, threads) = (par::shard_count(shards), par::thread_count(threads));
    if spill::should_spill(est_halves, spill::budget_bytes(budget_mb)) {
        assemble_spilled(
            directed, node_ids, src, dst, weight, shards, threads, spill_dir,
        )
    } else {
        Ok(assemble(
            directed, node_ids, src, dst, weight, shards, threads,
        ))
    }
}

/// The out-of-core counterpart of [`assemble`]: the dense edge columns
/// are replayed once per pass (counting, partition, and for directed
/// graphs the same two passes again for the in-adjacency) into per-shard
/// disk runs under `spill_dir` (default: the system temp dir), in a
/// subdirectory that is removed on return, error and panic alike.
///
/// The frozen graph — node table, offsets, targets, merged weight bits,
/// cached degrees, edge count and total weight — is **bit-identical** to
/// [`assemble`] over the same columns; see the [module docs](self) for
/// why insertion-order runs preserve the fold bits.
#[allow(clippy::too_many_arguments)]
fn assemble_spilled(
    directed: bool,
    node_ids: Vec<NodeId>,
    srcs: &[u32],
    dsts: &[u32],
    weights_in: &[f64],
    shards: usize,
    threads: usize,
    spill_dir: Option<&Path>,
) -> crate::Result<CsrGraph> {
    let n = node_ids.len();
    let dir = spill::SpillDir::create(spill_dir)?;

    // Total weight: summed in insertion order at *edge* granularity,
    // before the undirected expansion, exactly like `assemble`.
    let mut total_weight = 0.0f64;
    for &w in weights_in {
        debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        total_weight += w;
    }
    let out_halves = |f: &mut dyn FnMut(u32, u32, f64)| {
        for k in 0..srcs.len() {
            f(srcs[k], dsts[k], weights_in[k]);
            if !directed && srcs[k] != dsts[k] {
                f(dsts[k], srcs[k], weights_in[k]);
            }
        }
    };
    let (offsets, targets, weights, pairs_once) =
        pack_rows_spilled(n, &out_halves, shards, threads, dir.path(), "out")?;
    let (in_offsets, in_targets, in_weights) = if directed {
        let in_halves = |f: &mut dyn FnMut(u32, u32, f64)| {
            for k in 0..srcs.len() {
                f(dsts[k], srcs[k], weights_in[k]);
            }
        };
        let (io, it, iw, _) = pack_rows_spilled(n, &in_halves, shards, threads, dir.path(), "in")?;
        (io, it, iw)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let edge_count = if directed { targets.len() } else { pairs_once };

    // `dir` drops after assembly: the runs are removed on success, and
    // the RAII guard cleans up on every early-`?` and unwind path above.
    Ok(CsrGraph::from_parts(
        CsrParts {
            directed,
            node_ids,
            offsets,
            targets,
            weights,
            in_offsets,
            in_targets,
            in_weights,
            edge_count,
            total_weight,
        },
        threads,
    ))
}

/// The shared tail of both construction entries: pack the dense edge
/// columns into sorted merged CSR rows and assemble the frozen graph.
fn assemble(
    directed: bool,
    node_ids: Vec<NodeId>,
    srcs: &[u32],
    dsts: &[u32],
    weights_in: &[f64],
    shards: usize,
    threads: usize,
) -> CsrGraph {
    let n = node_ids.len();

    // Total weight: summed in insertion order, like the builder.
    let mut total_weight = 0.0f64;
    for &w in weights_in {
        debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        total_weight += w;
    }

    // Pack rows. Undirected edges emit both orientations (a self-loop
    // emits once), so each endpoint's row sees every incident edge in
    // insertion order, exactly as the builder's symmetric adjacency
    // update does.
    let out_half = half_edges(srcs, dsts, weights_in, directed);
    let (offsets, targets, weights, pairs_once) = pack_rows(n, &out_half, shards, threads);
    let (in_offsets, in_targets, in_weights) = if directed {
        let in_half = half_edges(dsts, srcs, weights_in, true);
        let (io, it, iw, _) = pack_rows(n, &in_half, shards, threads);
        (io, it, iw)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let edge_count = if directed { targets.len() } else { pairs_once };

    CsrGraph::from_parts(
        CsrParts {
            directed,
            node_ids,
            offsets,
            targets,
            weights,
            in_offsets,
            in_targets,
            in_weights,
            edge_count,
            total_weight,
        },
        threads,
    )
}

/// Half-edge columns: one `(row, col, weight)` record per adjacency entry,
/// in insertion order. Shared with the delta-merge path
/// ([`crate::delta`]), which must expand batch edges exactly the way a
/// full rebuild would.
pub(crate) struct HalfEdges {
    pub(crate) row: Vec<u32>,
    pub(crate) col: Vec<u32>,
    pub(crate) weight: Vec<f64>,
}

/// Expand edges into half-edges. Directed graphs emit one record per edge
/// (`rows`/`cols` swapped by the caller for the in-adjacency); an
/// undirected edge emits both orientations, self-loops once.
pub(crate) fn half_edges(rows: &[u32], cols: &[u32], weights: &[f64], directed: bool) -> HalfEdges {
    let m = rows.len();
    let mut half = HalfEdges {
        row: Vec::with_capacity(if directed { m } else { 2 * m }),
        col: Vec::with_capacity(if directed { m } else { 2 * m }),
        weight: Vec::with_capacity(if directed { m } else { 2 * m }),
    };
    for k in 0..m {
        half.row.push(rows[k]);
        half.col.push(cols[k]);
        half.weight.push(weights[k]);
        if !directed && rows[k] != cols[k] {
            half.row.push(cols[k]);
            half.col.push(rows[k]);
            half.weight.push(weights[k]);
        }
    }
    half
}

/// Sort-merge a contiguous range of rows whose bucketed entries live in
/// `bucket_col`/`bucket_w` at positions `offsets[u] - base ..
/// offsets[u + 1] - base`. Returns the merged
/// `(targets, weights, per-row lens, pairs_once)` segment for the range,
/// where `pairs_once` counts merged entries with `row <= col` (the
/// undirected edge-count convention).
///
/// This is a pure function of each row's bucket *in insertion order* —
/// the invariant that makes thread-chunk and shard decompositions of the
/// row space interchangeable bit for bit.
fn sort_merge_rows(
    rows: std::ops::Range<usize>,
    offsets: &[u32],
    base: u32,
    bucket_col: &[u32],
    bucket_w: &[f64],
) -> (Vec<u32>, Vec<f64>, Vec<u32>, usize) {
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    let mut lens = Vec::with_capacity(rows.len());
    let mut pairs_once = 0usize;
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for u in rows {
        let lo = (offsets[u] - base) as usize;
        let hi = (offsets[u + 1] - base) as usize;
        scratch.clear();
        scratch.extend(
            bucket_col[lo..hi]
                .iter()
                .copied()
                .zip(bucket_w[lo..hi].iter().copied()),
        );
        // Stable: equal targets keep insertion order for the merge.
        scratch.sort_by_key(|&(col, _)| col);
        let before = targets.len();
        let mut i = 0usize;
        while i < scratch.len() {
            let col = scratch[i].0;
            let mut acc = 0.0f64;
            while i < scratch.len() && scratch[i].0 == col {
                acc += scratch[i].1;
                i += 1;
            }
            targets.push(col);
            weights.push(acc);
            if u as u32 <= col {
                pairs_once += 1;
            }
        }
        lens.push((targets.len() - before) as u32);
    }
    (targets, weights, lens, pairs_once)
}

/// Bucket half-edges by row (stable counting pass), then sort each row by
/// target and merge adjacent duplicates — weights summed in insertion
/// order. Returns `(offsets, targets, weights, pairs_once)` where
/// `pairs_once` counts merged entries with `row <= col` (the undirected
/// edge-count convention).
///
/// With `shards > 1` the scatter itself is sharded: the row space splits
/// into contiguous ranges balanced by half-edge count (a pure function of
/// the provisional offsets and the shard count), each shard scatters and
/// merges its own rows, and the shard outputs concatenate in shard
/// order — bit-identical to the unsharded pass at any shard count (see
/// the [module docs](self)).
fn pack_rows(
    n: usize,
    half: &HalfEdges,
    shards: usize,
    threads: usize,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, usize) {
    let h = half.row.len();
    assert!(h <= u32::MAX as usize, "half-edge space exceeds u32");

    // Per-chunk histograms over fixed uniform chunks, merged in chunk
    // order: provisional row counts independent of the thread count.
    let chunks = par::RowChunks::uniform(h, 16);
    let histograms = par::par_map(&chunks, threads, |_, range| {
        let mut counts = vec![0u32; n];
        for i in range {
            counts[half.row[i] as usize] += 1;
        }
        counts
    });
    let mut offsets = vec![0u32; n + 1];
    for counts in &histograms {
        for (u, &c) in counts.iter().enumerate() {
            offsets[u + 1] += c;
        }
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }

    let merged = if shards <= 1 {
        // Stable scatter: a single linear pass in insertion order, so
        // every row's bucket lists its entries oldest-first (the merge
        // relies on this to reproduce the builder's accumulation order).
        let mut bucket_col = vec![0u32; h];
        let mut bucket_w = vec![0.0f64; h];
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        for i in 0..h {
            let r = half.row[i] as usize;
            let p = cursor[r] as usize;
            cursor[r] += 1;
            bucket_col[p] = half.col[i];
            bucket_w[p] = half.weight[i];
        }

        // Per-row sort + adjacent merge, parallel over edge-balanced row
        // chunks; per-chunk outputs concatenate in chunk order.
        let row_chunks = par::RowChunks::balanced(&offsets, 64, 4096);
        par::par_map(&row_chunks, threads, |_, range| {
            sort_merge_rows(range, &offsets, 0, &bucket_col, &bucket_w)
        })
    } else {
        // Shard boundaries: contiguous row ranges balanced by half-edge
        // count — a pure function of the offsets and the shard count.
        let shard_chunks = par::RowChunks::balanced(&offsets, shards, 1);
        par::par_map(&shard_chunks, threads, |_, rows| {
            // Shard-local stable scatter: one forward pass over the full
            // half-edge columns keeps each of this shard's rows in
            // global insertion order, so the per-row buckets are
            // byte-equal to the slices the unsharded scatter produces.
            let base = offsets[rows.start];
            let len = (offsets[rows.end] - base) as usize;
            let mut bucket_col = vec![0u32; len];
            let mut bucket_w = vec![0.0f64; len];
            let mut cursor: Vec<u32> = offsets[rows.clone()].to_vec();
            for i in 0..h {
                let r = half.row[i] as usize;
                if r < rows.start || r >= rows.end {
                    continue;
                }
                let p = (cursor[r - rows.start] - base) as usize;
                cursor[r - rows.start] += 1;
                bucket_col[p] = half.col[i];
                bucket_w[p] = half.weight[i];
            }
            sort_merge_rows(rows, &offsets, base, &bucket_col, &bucket_w)
        })
    };

    concat_segments(n, merged)
}

/// One merged row-range output: `(targets, weights, row lens, pairs_once)`
/// as produced by [`sort_merge_rows`] for a contiguous row range.
type PackSegment = (Vec<u32>, Vec<f64>, Vec<u32>, usize);

/// Concatenate per-range [`sort_merge_rows`] outputs in range order into
/// final `(offsets, targets, weights, pairs_once)` CSR columns — shared
/// by the in-memory and spilled packing paths.
fn concat_segments(n: usize, merged: Vec<PackSegment>) -> (Vec<u32>, Vec<u32>, Vec<f64>, usize) {
    let mut final_offsets = Vec::with_capacity(n + 1);
    final_offsets.push(0u32);
    let mut final_targets = Vec::new();
    let mut final_weights = Vec::new();
    let mut pairs_once = 0usize;
    for (targets, weights, lens, pairs) in merged {
        for len in lens {
            final_offsets.push(final_offsets.last().unwrap() + len);
        }
        final_targets.extend(targets);
        final_weights.extend(weights);
        pairs_once += pairs;
    }
    // Empty row spaces (n rows, zero chunks) still need n+1 offsets.
    while final_offsets.len() < n + 1 {
        final_offsets.push(*final_offsets.last().unwrap());
    }
    (final_offsets, final_targets, final_weights, pairs_once)
}

/// The out-of-core counterpart of [`pack_rows`]: the half-edge stream is
/// replayed twice — a counting pass builds the provisional offsets, then
/// a partition pass appends each half-edge to its owning shard's disk
/// run (per-shard contiguous row ranges balanced by half-edge count,
/// exactly [`pack_rows`]'s shard boundaries). Each shard then streams
/// its own run back into a scatter bucket and merges with the shared
/// [`sort_merge_rows`] — since the run preserves global insertion order
/// for that shard's rows, the buckets (and therefore the merged columns
/// and fold bits) are byte-equal to the in-memory pass.
fn pack_rows_spilled(
    n: usize,
    halves: &dyn Fn(&mut dyn FnMut(u32, u32, f64)),
    shards: usize,
    threads: usize,
    dir: &Path,
    tag: &str,
) -> crate::Result<(Vec<u32>, Vec<u32>, Vec<f64>, usize)> {
    // Counting pass: provisional per-row offsets, no storage of the
    // half-edges themselves.
    let mut offsets = vec![0u32; n + 1];
    let mut h = 0u64;
    halves(&mut |row, _, _| {
        offsets[row as usize + 1] += 1;
        h += 1;
    });
    assert!(h <= u32::MAX as u64, "half-edge space exceeds u32");
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }

    // Shard boundaries are the same pure function of (offsets, shards)
    // the in-memory path uses, so the row partition is identical.
    let shard_chunks = par::RowChunks::balanced(&offsets, shards, 1);
    let mut shard_of = vec![0u32; n];
    for (s, rows) in shard_chunks.ranges().iter().enumerate() {
        for slot in &mut shard_of[rows.clone()] {
            *slot = s as u32;
        }
    }

    // Partition pass: every half-edge appends to its shard's run file in
    // stream order, so each run lists its shard's half-edges in global
    // insertion order. Write errors latch inside the writers and surface
    // at finish().
    let mut writers = spill::ShardRunWriters::create(dir, shard_chunks.len(), tag)?;
    halves(&mut |row, col, w| {
        writers.push(shard_of[row as usize] as usize, row, col, w);
    });
    let runs = writers.finish()?;

    // Per-shard streaming read-back + scatter + sort-merge: the bucket a
    // shard fills from its run is byte-equal to the slice the in-memory
    // forward scan would have produced for the same rows.
    let merged = par::par_map(
        &shard_chunks,
        threads,
        |s, rows| -> crate::Result<PackSegment> {
            let base = offsets[rows.start];
            let len = (offsets[rows.end] - base) as usize;
            debug_assert_eq!(
                runs.shard_len(s) as usize,
                len,
                "run/offset length mismatch"
            );
            let mut bucket_col = vec![0u32; len];
            let mut bucket_w = vec![0.0f64; len];
            let mut cursor: Vec<u32> = offsets[rows.clone()].to_vec();
            runs.for_each(s, &mut |row, col, w| {
                let r = row as usize;
                debug_assert!(r >= rows.start && r < rows.end, "half-edge in wrong run");
                let p = (cursor[r - rows.start] - base) as usize;
                cursor[r - rows.start] += 1;
                bucket_col[p] = col;
                bucket_w[p] = w;
            })?;
            Ok(sort_merge_rows(
                rows,
                &offsets,
                base,
                &bucket_col,
                &bucket_w,
            ))
        },
    );
    let mut segments = Vec::with_capacity(merged.len());
    for seg in merged {
        segments.push(seg?);
    }
    Ok(concat_segments(n, segments))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    fn sample_edges() -> Vec<(NodeId, NodeId, f64)> {
        vec![
            (10, 20, 3.0),
            (20, 30, 1.0),
            (10, 20, 2.0), // merges
            (40, 40, 5.0), // self-loop
            (30, 10, 0.5),
        ]
    }

    fn push_all(b: &mut CsrBuilder, edges: &EdgeList) {
        for k in 0..edges.len() {
            b.push(edges.src[k], edges.dst[k], edges.weight[k]);
        }
    }

    /// Bit-strict equality between a built CSR and a frozen builder.
    fn assert_identical(built: &CsrGraph, frozen: &CsrGraph) {
        assert_eq!(built, frozen);
        assert_eq!(
            built.total_weight().to_bits(),
            frozen.total_weight().to_bits()
        );
        for u in 0..frozen.node_count() {
            let (bt, bw) = built.row(u);
            let (ft, fw) = frozen.row(u);
            assert_eq!(bt, ft, "row {u} targets");
            for (a, b) in bw.iter().zip(fw) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {u} weights");
            }
            assert_eq!(built.strength(u).to_bits(), frozen.strength(u).to_bits());
            assert_eq!(
                built.weighted_degree(u).to_bits(),
                frozen.weighted_degree(u).to_bits()
            );
            assert_eq!(built.self_loop(u).to_bits(), frozen.self_loop(u).to_bits());
            let (bit, biw) = built.in_row(u);
            let (fit, fiw) = frozen.in_row(u);
            assert_eq!(bit, fit, "in-row {u} targets");
            for (a, b) in biw.iter().zip(fiw) {
                assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} weights");
            }
        }
    }

    #[test]
    fn forced_spill_matches_in_memory_bitwise() {
        // Budget 0 forces every half-edge through the disk runs; the
        // frozen graph must stay bit-identical to the in-memory build
        // across shard and thread counts, directed and undirected.
        let edges = sample_edges();
        let (src_ids, dst_ids, w): (Vec<_>, Vec<_>, Vec<_>) = {
            let mut s = Vec::new();
            let mut d = Vec::new();
            let mut ww = Vec::new();
            for &(a, b, c) in &edges {
                s.push(a);
                d.push(b);
                ww.push(c);
            }
            (s, d, ww)
        };
        let mut node_ids: Vec<NodeId> = src_ids.iter().chain(&dst_ids).copied().collect();
        node_ids.sort_unstable();
        node_ids.dedup();
        let dense = |ids: &[NodeId]| -> Vec<u32> {
            ids.iter()
                .map(|id| node_ids.binary_search(id).unwrap() as u32)
                .collect()
        };
        let (src, dst) = (dense(&src_ids), dense(&dst_ids));
        for directed in [false, true] {
            let baseline = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(1));
            for shards in [1usize, 2, 4] {
                for threads in [1usize, 2, 4] {
                    let spilled = build_dense_csr_budgeted(
                        directed,
                        node_ids.clone(),
                        &src,
                        &dst,
                        &w,
                        Some(shards),
                        Some(threads),
                        Some(0),
                        None,
                    )
                    .expect("spilled build");
                    assert_identical(&spilled, &baseline);
                }
            }
        }
    }

    #[test]
    fn huge_budget_never_spills_and_matches() {
        // A budget far above the footprint takes the in-memory branch;
        // result equality is the observable contract either way.
        let edges = sample_edges();
        let mut b = CsrBuilder::undirected().spill_budget(Some(1 << 20));
        let mut plain = CsrBuilder::undirected();
        for &(s, d, w) in &edges {
            b.push(s, d, w);
            plain.push(s, d, w);
        }
        assert_identical(&b.try_build().expect("build"), &plain.build());
    }

    #[test]
    fn builder_spill_budget_matches_plain_build() {
        let edges = sample_edges();
        for directed in [false, true] {
            let mk = || {
                if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                }
            };
            let mut plain = mk();
            let mut spilled = mk().spill_budget(Some(0)).shards(Some(3)).threads(Some(2));
            for &(s, d, w) in &edges {
                plain.push(s, d, w);
                spilled.push(s, d, w);
            }
            assert_identical(&spilled.build(), &plain.build());
        }
    }

    #[test]
    fn spill_runs_are_removed_on_success() {
        let base = std::env::temp_dir().join(format!("moby-spill-test-ok-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let g = build_dense_csr_budgeted(
            false,
            vec![10, 20, 30, 40],
            &[0, 1, 0, 3, 2],
            &[1, 2, 1, 3, 0],
            &[3.0, 1.0, 2.0, 5.0, 0.5],
            None,
            None,
            Some(0),
            Some(&base),
        )
        .unwrap();
        assert_eq!(g.node_count(), 4);
        let leftovers: Vec<_> = std::fs::read_dir(&base).unwrap().collect();
        assert!(
            leftovers.is_empty(),
            "spill runs left behind: {leftovers:?}"
        );
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn unwritable_spill_dir_is_an_error_not_a_panic() {
        // A plain file as the base dir: create_dir_all under it fails,
        // and the build surfaces GraphError::Spill instead of panicking.
        let file = std::env::temp_dir().join(format!("moby-spill-test-f-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        match build_dense_csr_budgeted(
            false,
            vec![10, 20],
            &[0],
            &[1],
            &[1.0],
            None,
            None,
            Some(0),
            Some(&file.join("sub")),
        ) {
            Err(crate::GraphError::Spill(msg)) => {
                assert!(msg.contains("spill dir"), "unexpected message: {msg}")
            }
            other => panic!("expected Err(Spill), got {other:?}"),
        }
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn empty_build_never_spills() {
        let g = CsrBuilder::undirected()
            .spill_budget(Some(0))
            .try_build()
            .expect("empty build");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn undirected_build_matches_freeze() {
        let mut g = WeightedGraph::new_undirected();
        for &(s, d, w) in &sample_edges() {
            g.add_edge(s, d, w);
        }
        for threads in [1usize, 2, 4] {
            let mut b = CsrBuilder::undirected().threads(Some(threads));
            for &(s, d, w) in &sample_edges() {
                b.push(s, d, w);
            }
            assert_identical(&b.build(), &g.freeze());
        }
    }

    #[test]
    fn directed_build_matches_freeze() {
        let mut g = WeightedGraph::new_directed();
        for &(s, d, w) in &sample_edges() {
            g.add_edge(s, d, w);
        }
        for threads in [1usize, 2, 4] {
            let mut b = CsrBuilder::directed().threads(Some(threads));
            for &(s, d, w) in &sample_edges() {
                b.push(s, d, w);
            }
            assert_identical(&b.build(), &g.freeze());
        }
    }

    #[test]
    fn seeded_nodes_come_first_and_keep_isolated_nodes() {
        let seeds = [5u64, 1, 99];
        let mut g = WeightedGraph::new_undirected();
        for &id in &seeds {
            g.add_node(id);
        }
        g.add_edge(1, 7, 2.0);
        let mut b = CsrBuilder::undirected();
        b.seed_nodes(seeds);
        b.push(1, 7, 2.0);
        let built = b.build();
        assert_identical(&built, &g.freeze());
        assert_eq!(built.node_ids(), &[5, 1, 99, 7]);
        assert_eq!(built.degree_of(99), Some(0));
    }

    #[test]
    fn duplicate_seeds_keep_first_position() {
        let mut b = CsrBuilder::undirected();
        b.seed_nodes([3u64, 3, 1, 3]);
        let built = b.build();
        assert_eq!(built.node_ids(), &[3, 1]);
    }

    #[test]
    fn invalid_weights_are_ignored_entirely() {
        let mut b = CsrBuilder::undirected();
        b.push(1, 2, f64::NAN);
        b.push(3, 4, -1.0);
        let built = b.build();
        // Like the builder, a rejected edge interns no endpoints.
        assert!(built.is_empty());
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let built = CsrBuilder::directed().build();
        assert!(built.is_empty());
        assert_eq!(built.edge_count(), 0);
        assert_eq!(built.total_weight(), 0.0);
    }

    #[test]
    fn edge_list_round_trips() {
        let list: EdgeList = sample_edges().into_iter().collect();
        assert_eq!(list.len(), 5);
        assert!(!list.is_empty());
        let back: Vec<_> = (0..list.len())
            .map(|k| (list.src[k], list.dst[k], list.weight[k]))
            .collect();
        assert_eq!(back, sample_edges());
        assert!(EdgeList::new().is_empty());
    }

    #[test]
    fn dense_build_matches_seeded_builder() {
        // Dense columns over a sorted node table reproduce exactly what a
        // fully-seeded builder (and therefore a freeze) produces.
        let node_ids: Vec<NodeId> = vec![10, 20, 30, 40, 99];
        let dense = |id: NodeId| node_ids.iter().position(|&x| x == id).unwrap() as u32;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        let mut g_dir = WeightedGraph::new_directed();
        let mut g_und = WeightedGraph::new_undirected();
        for &id in &node_ids {
            g_dir.add_node(id);
            g_und.add_node(id);
        }
        for &(a, b, weight) in &sample_edges() {
            src.push(dense(a));
            dst.push(dense(b));
            w.push(weight);
            g_dir.add_edge(a, b, weight);
            g_und.add_edge(a, b, weight);
        }
        for threads in [Some(1), Some(3)] {
            let built = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_dir.freeze());
            let built = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_und.freeze());
        }
    }

    #[test]
    fn subgraph_matches_builder_subgraph() {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.5);
        g.add_edge(3, 4, 2.0);
        g.add_edge(2, 2, 0.5);
        let keep = |id: NodeId| id <= 3;
        let via_builder = g.subgraph(keep).freeze();
        let via_csr = g.freeze().subgraph(keep);
        assert_identical(&via_csr, &via_builder);
    }

    #[test]
    fn sharded_dense_build_matches_unsharded() {
        // Small-shard smoke case: every shard count must reproduce the
        // unsharded build bit for bit (the full differential suite lives
        // in tests/proptest_sharded.rs).
        let node_ids: Vec<NodeId> = (0..40).map(|i| i * 3 + 1).collect();
        let mut x = 99u64;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..600 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            src.push(((x >> 33) % 40) as u32);
            dst.push(((x >> 17) % 40) as u32);
            w.push(((x >> 3) % 100) as f64 / 16.0 + 0.5);
        }
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            for shards in [1usize, 2, 3, 4, 7] {
                for threads in [1usize, 2, 4] {
                    let sharded = build_dense_csr_sharded(
                        directed,
                        node_ids.clone(),
                        &src,
                        &dst,
                        &w,
                        Some(shards),
                        Some(threads),
                    );
                    assert_identical(&sharded, &base);
                }
            }
        }
    }

    #[test]
    fn sharded_builder_matches_unsharded_builder() {
        let base = {
            let mut b = CsrBuilder::undirected();
            push_all(&mut b, &sample_edges().into_iter().collect());
            b.build()
        };
        for shards in [1usize, 2, 4] {
            let mut b = CsrBuilder::undirected().shards(Some(shards));
            push_all(&mut b, &sample_edges().into_iter().collect());
            assert_identical(&b.build(), &base);
        }
    }

    #[test]
    fn sharded_build_handles_empty_and_single_row_spaces() {
        let empty = build_dense_csr_sharded(false, Vec::new(), &[], &[], &[], Some(4), Some(2));
        assert!(empty.is_empty());
        let one = build_dense_csr_sharded(
            true,
            vec![7],
            &[0, 0],
            &[0, 0],
            &[1.0, 2.0],
            Some(4),
            Some(2),
        );
        assert_eq!(one.node_count(), 1);
        assert_eq!(one.row(0), (&[0u32][..], &[3.0][..]));
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        // A larger pseudo-random list so several chunks exist.
        let mut edges = EdgeList::new();
        let mut x = 7u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 257;
            let d = (x >> 17) % 257;
            let w = ((x >> 3) % 1000) as f64 / 64.0 + 0.25;
            edges.push(s, d, w);
        }
        for directed in [false, true] {
            let mk = |threads: usize| {
                let mut b = if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                }
                .threads(Some(threads));
                push_all(&mut b, &edges);
                b.build()
            };
            let one = mk(1);
            for threads in [2usize, 3, 8] {
                assert_identical(&mk(threads), &one);
            }
        }
    }
}
