//! Columnar CSR construction — the hashmap-free build path.
//!
//! [`WeightedGraph`](crate::WeightedGraph) builds adjacency through
//! per-node hash maps: every inserted edge pays a hash probe per endpoint.
//! That is fine for small graphs but it is the last hash-bound stage on the
//! pipeline's hot path now that every *algorithm* consumes a frozen
//! [`CsrGraph`]. This module replaces it with a columnar pipeline:
//!
//! 1. [`CsrBuilder`] collects `(src, dst, weight)` triples in
//!    struct-of-arrays columns;
//! 2. intern external [`NodeId`]s into dense `u32` indices by
//!    **sort + dedup** over `(id, first-occurrence slot)` pairs — no hash
//!    map, and the dense order reproduces the builder's insertion order
//!    exactly (seeded nodes first, then endpoints in edge order);
//! 3. pack each adjacency's rows straight from the dense edge columns: a
//!    counting pass sizes every row's bucket, a scatter fills the buckets
//!    in insertion order, and each row is ordered by a packed `u64` key,
//!    `(target << 32) | position in the bucket`, and **merged in place**,
//!    equal targets summing their weights in insertion order. The bucket
//!    columns then become the graph's targets and weights.
//!
//! The merge runs on the [`par`] scheduler over fixed edge-balanced row
//! chunks, each in its own slice of the bucket columns, and one serial
//! pass closes the gaps between the chunks' merged prefixes. A merged row
//! is a pure function of its bucket *in insertion order*, so construction
//! is **bit-identical at any thread count** (the module contract of
//! [`par`]).
//!
//! ## Shards and spill runs
//!
//! The bucket columns are allocated once, at the half-edge count. A
//! **shard** is a contiguous row range, balanced by half-edge count (a
//! pure function of the row structure and the shard count, never the
//! thread count), that fills its own slice of them. An in-memory shard
//! fills it with one forward scan of the edge columns. When a spill budget
//! is set ([`CsrBuilder::spill_budget`] / [`spill::BUDGET_ENV`]) and the
//! estimated run size — half-edge count × [`spill::HALF_EDGE_BYTES`] —
//! exceeds it, a partition pass first writes every half-edge to its
//! shard's **disk run** (plain little-endian records under a RAII temp
//! dir, see [`spill`]) in global insertion order, and each shard fills its
//! slice from its run instead. That fill is the only difference between
//! the arms: either way every bucket lists its entries in insertion order,
//! and the same merge follows. So the frozen graph is **bit-identical at
//! any shard count × thread count × budget** — the shard and spill-budget
//! independence axes, enforced by `tests/proptest_sharded.rs` and
//! `tests/proptest_spill.rs`. Since the buckets live in memory on both
//! arms, a spilled build does not peak lower than an in-memory one.
//!
//! The output is *exactly* the graph `WeightedGraph::freeze()` would have
//! produced from the same inserts — same dense node table, same sorted
//! rows, same bit pattern in every merged weight and cached degree — which
//! the equivalence proptests assert at 1/2/4 build threads. The builder
//! path survives as the compatibility baseline; this is the hot path.

use crate::csr::CsrParts;
use crate::{par, spill, CsrGraph, NodeId};
use std::ops::Range;
use std::path::Path;

/// Builds a frozen [`CsrGraph`] from `(src, dst, weight)` edges by
/// parallel sort-merge, without touching a hash map on the per-edge path.
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
    src: Vec<NodeId>,
    dst: Vec<NodeId>,
    weight: Vec<f64>,
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
    /// row-scatter pass — see the [module docs](self).
    pub fn shards(mut self, shards: Option<usize>) -> CsrBuilder {
        self.shards = shards;
        self
    }

    /// Set the out-of-core spill budget in **megabytes**. `None` (the
    /// default) resolves [`spill::BUDGET_ENV`]; no budget anywhere means
    /// the build never spills. When the estimated run size exceeds the
    /// budget, [`CsrBuilder::build`] partitions the half-edges to
    /// per-shard disk runs and fills the row buckets from them instead of
    /// scanning the edge columns — the frozen graph is **bit-identical
    /// either way** (see the [module docs](self)). The buckets are in
    /// memory on both arms, so spilling adds disk I/O without lowering the
    /// peak. `Some(0)` spills every non-empty build.
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
            self.src.push(src);
            self.dst.push(dst);
            self.weight.push(weight);
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
        let m = self.src.len();
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
            pairs.push((self.src[k], base + 2 * k as u64));
            pairs.push((self.dst[k], base + 2 * k as u64 + 1));
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
                .map(|k| (resolve(self.src[k]), resolve(self.dst[k])))
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
            &self.weight,
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
/// of [`CsrBuilder::build`]; the row packing and its semantics
/// (insertion-order weight merges, builder edge-count conventions,
/// bit-identical results at any thread count) are identical.
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

/// [`build_dense_csr`] with an explicit construction shard count.
///
/// The dense row space is partitioned into at most `shards` contiguous
/// station ranges balanced by half-edge count; each shard fills its own
/// slice of the row buckets with a forward scan of the edge columns, so
/// every row's bucket keeps global insertion order, and the one merge
/// pass follows. The result is **bit-identical to the unsharded build at
/// any shard count and any thread count** — the shard-independence
/// proptests assert this bitwise over {1, 2, 4} shards × {1, 2, 4}
/// threads — so downstream consumers (including
/// [`CsrGraph::apply_window`](crate::CsrGraph::apply_window), which
/// accepts sharded bases unchanged) cannot observe the knob.
///
/// `shards = None` resolves the `MOBY_SHARDS` environment variable via
/// [`par::shard_count`] (default 1). Shards scan in parallel, so pick
/// `shards >= threads` when sharding for speed; each extra shard costs
/// one more scan of the edge columns and no extra memory.
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
/// budget** — the one entry every dense build runs through.
///
/// `budget_mb = None` resolves [`spill::BUDGET_ENV`]; when the resolved
/// budget exists and the estimated run size (half-edge count ×
/// [`spill::HALF_EDGE_BYTES`]) exceeds it, the half-edges are partitioned
/// to per-shard disk runs under `spill_dir` (default: the system temp
/// dir), in a subdirectory removed on return, error and unwind alike, and
/// each shard fills its row buckets from its run — see the
/// [module docs](self). The result is **bit-identical to the in-memory
/// build at any shard count × thread count × budget**. Spill I/O failures
/// surface as [`crate::GraphError::Spill`].
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
    let runs_dir = if spill::should_spill(est_halves, spill::budget_bytes(budget_mb)) {
        Some(spill::SpillDir::create(spill_dir)?)
    } else {
        None
    };
    let runs = |tag| runs_dir.as_ref().map(|dir| (dir.path(), tag));
    let n = node_ids.len();

    // Total weight: summed in insertion order at *edge* granularity,
    // before the undirected expansion, like the builder.
    let mut total_weight = 0.0f64;
    for &w in weight {
        debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        total_weight += w;
    }

    let (offsets, targets, weights, pairs_once) =
        pack_rows(n, src, dst, weight, directed, shards, threads, runs("out"))?;
    let (in_offsets, in_targets, in_weights) = if directed {
        let (io, it, iw, _) = pack_rows(n, dst, src, weight, true, shards, threads, runs("in"))?;
        (io, it, iw)
    } else {
        (Vec::new(), Vec::new(), Vec::new())
    };
    let edge_count = if directed { targets.len() } else { pairs_once };

    // `runs_dir` drops after assembly: the runs are removed on success,
    // and the RAII guard cleans up on every early `?` and unwind above.
    Ok(CsrGraph::from_parts(
        CsrParts {
            directed,
            node_ids,
            offsets,
            targets: targets.into(),
            weights: weights.into(),
            in_offsets,
            in_targets: in_targets.into(),
            in_weights: in_weights.into(),
            degrees: None,
            edge_count,
            total_weight,
        },
        threads,
    ))
}

/// Visit the half-edges of an edge list in insertion order: edge `k`
/// yields `(rows[k], cols[k], weights[k])` and, unless `directed` or a
/// self-loop, also `(cols[k], rows[k], weights[k])`. This one expansion
/// feeds the build's counting, scatter and partition passes and the
/// window kernel's buckets ([`crate::window`]), so each row sees every
/// incident edge in insertion order, as the builder's symmetric adjacency
/// update does.
#[inline]
pub(crate) fn for_each_half_edge(
    rows: &[u32],
    cols: &[u32],
    weights: &[f64],
    directed: bool,
    mut f: impl FnMut(u32, u32, f64),
) {
    for ((&r, &c), &w) in rows.iter().zip(cols).zip(weights) {
        f(r, c, w);
        if !directed && r != c {
            f(c, r, w);
        }
    }
}

/// Order one row's bucket by target, equal targets in bucket (insertion)
/// order: fill `keys` with `(cols[i] << 32) | i` and sort them. The keys
/// are distinct, so `sort_unstable` yields exactly that order; read them
/// back with [`key_target`] and [`key_pos`]. The build's merge and the
/// window kernel's ([`crate::window`]) both order rows through this one
/// function.
pub(crate) fn sort_row(cols: &[u32], keys: &mut Vec<u64>) {
    debug_assert!(cols.len() <= u32::MAX as usize, "row exceeds u32 space");
    keys.clear();
    keys.extend(
        cols.iter()
            .enumerate()
            .map(|(i, &c)| (u64::from(c) << 32) | i as u64),
    );
    keys.sort_unstable();
}

/// The target a [`sort_row`] key orders by.
#[inline]
pub(crate) fn key_target(key: u64) -> u32 {
    (key >> 32) as u32
}

/// The bucket position a [`sort_row`] key came from.
#[inline]
pub(crate) fn key_pos(key: u64) -> usize {
    key as u32 as usize
}

/// One packed adjacency: `(offsets, targets, weights, pairs_once)`, where
/// `pairs_once` counts merged entries with `row <= col` (the undirected
/// edge-count convention).
type PackedRows = (Vec<u32>, Vec<u32>, Vec<f64>, usize);

/// Per-worker scratch of the merge: one row's sort keys and weights.
#[derive(Default)]
struct RowScratch {
    keys: Vec<u64>,
    weights: Vec<f64>,
}

/// Pack one adjacency over `n` rows (edge `k` from `rows[k]` to `cols[k]`,
/// expanded by [`for_each_half_edge`]) into sorted merged CSR rows. `runs`
/// names the spill directory and file tag when the build spills.
#[allow(clippy::too_many_arguments)]
fn pack_rows(
    n: usize,
    rows: &[u32],
    cols: &[u32],
    weights: &[f64],
    directed: bool,
    shards: usize,
    threads: usize,
    runs: Option<(&Path, &str)>,
) -> crate::Result<PackedRows> {
    // Counting pass: every row's bucket size. Counts are integers, so one
    // serial pass gives the same offsets at any thread count.
    let mut offsets = vec![0u32; n + 1];
    for_each_half_edge(rows, cols, weights, directed, |r, _, _| {
        offsets[r as usize + 1] += 1;
    });
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    let h = offsets[n] as usize;

    // Shards: contiguous row ranges balanced by half-edge count. A spilled
    // pack first writes every half-edge to its shard's run, in insertion
    // order.
    let shard_chunks = par::RowChunks::balanced(&offsets, shards, 1);
    let runs = match runs {
        None => None,
        Some((dir, tag)) => {
            let mut shard_of = vec![0u32; n];
            for (s, range) in shard_chunks.ranges().iter().enumerate() {
                shard_of[range.clone()].fill(s as u32);
            }
            let mut writers = spill::ShardRunWriters::create(dir, shard_chunks.len(), tag)?;
            for_each_half_edge(rows, cols, weights, directed, |r, c, w| {
                writers.push(shard_of[r as usize] as usize, r, c, w);
            });
            Some(writers.finish()?)
        }
    };

    // Scatter: each shard fills its own slice of the bucket columns, every
    // row's bucket oldest-first (the merge folds in that order).
    let mut bucket_col = vec![0u32; h];
    let mut bucket_w = vec![0.0f64; h];
    let shard_buckets = chunk_buckets(&shard_chunks, &offsets, &mut bucket_col, &mut bucket_w);
    let filled = par::par_each_with(
        shard_buckets,
        threads,
        || (),
        |_, s, (range, col, w)| {
            let (base, bucket_len) = (offsets[range.start], col.len());
            let mut cursor: Vec<u32> = offsets[range.clone()].iter().map(|&o| o - base).collect();
            let mut put = |r: u32, c: u32, wt: f64| {
                let p = &mut cursor[r as usize - range.start];
                col[*p as usize] = c;
                w[*p as usize] = wt;
                *p += 1;
            };
            match &runs {
                Some(runs) => {
                    debug_assert_eq!(runs.shard_len(s) as usize, bucket_len, "run length");
                    runs.for_each(s, &mut put)
                }
                None => {
                    for_each_half_edge(rows, cols, weights, directed, |r, c, wt| {
                        if range.contains(&(r as usize)) {
                            put(r, c, wt);
                        }
                    });
                    Ok(())
                }
            }
        },
    );
    filled.into_iter().collect::<crate::Result<()>>()?;

    // Merge: fixed edge-balanced row chunks sort and fold their rows in
    // place, each inside its own slice of the bucket columns.
    let row_chunks = par::RowChunks::balanced(&offsets, 64, 4096);
    let mut lens = vec![0u32; n];
    let row_ends = row_chunks.ranges().iter().map(|r| r.end);
    let items: Vec<_> = chunk_buckets(&row_chunks, &offsets, &mut bucket_col, &mut bucket_w)
        .into_iter()
        .zip(par::split_at_ends(&mut lens, row_ends))
        .collect();
    let merged = par::par_each_with(
        items,
        threads,
        RowScratch::default,
        |scratch, _, ((range, col, w), lens)| {
            merge_rows_in_place(range, &offsets, col, w, lens, scratch)
        },
    );

    // One serial pass closes the gaps between the chunks' merged prefixes,
    // in chunk order; the offsets become the merged ones.
    let (mut len, mut pairs_once) = (0usize, 0usize);
    for (range, (chunk_len, pairs)) in row_chunks.ranges().iter().zip(merged) {
        let start = offsets[range.start] as usize;
        bucket_col.copy_within(start..start + chunk_len, len);
        bucket_w.copy_within(start..start + chunk_len, len);
        len += chunk_len;
        pairs_once += pairs;
    }
    bucket_col.truncate(len);
    bucket_w.truncate(len);
    for u in 0..n {
        offsets[u + 1] = offsets[u] + lens[u];
    }
    Ok((offsets, bucket_col, bucket_w, pairs_once))
}

/// A chunk's rows and its slices of the bucket columns: `col`/`w` split
/// at the chunks' bucket bounds, so each chunk writes only its own rows.
type ChunkBuckets<'a> = (Range<usize>, &'a mut [u32], &'a mut [f64]);

/// Split the bucket columns at the bounds of `chunks`' row ranges.
fn chunk_buckets<'a>(
    chunks: &par::RowChunks,
    offsets: &[u32],
    col: &'a mut [u32],
    w: &'a mut [f64],
) -> Vec<ChunkBuckets<'a>> {
    let ends: Vec<usize> = chunks
        .ranges()
        .iter()
        .map(|r| offsets[r.end] as usize)
        .collect();
    chunks
        .ranges()
        .iter()
        .cloned()
        .zip(par::split_at_ends(col, ends.iter().copied()))
        .zip(par::split_at_ends(w, ends))
        .map(|((range, col), w)| (range, col, w))
        .collect()
}

/// Sort and merge the rows `range` in place. `col`/`w` hold their buckets
/// in insertion order, row `u`'s at `offsets[u] - offsets[range.start]`
/// onwards. Each row is ordered by [`sort_row`], equal targets fold in
/// insertion order, and the merged entries are written back compacted to
/// the front of the slices. Writes each row's merged length to `lens` and
/// returns `(merged entries, pairs_once)`.
///
/// This is a pure function of each row's bucket *in insertion order* —
/// the invariant that makes every chunk, shard and spill decomposition of
/// the row space interchangeable bit for bit.
fn merge_rows_in_place(
    range: Range<usize>,
    offsets: &[u32],
    col: &mut [u32],
    w: &mut [f64],
    lens: &mut [u32],
    scratch: &mut RowScratch,
) -> (usize, usize) {
    let base = offsets[range.start];
    let (mut out, mut pairs_once) = (0usize, 0usize);
    for (u, len) in range.zip(lens.iter_mut()) {
        let lo = (offsets[u] - base) as usize;
        let hi = (offsets[u + 1] - base) as usize;
        // The keys hold the targets; the weights are copied because the
        // compacted output may overwrite this bucket before it is read.
        sort_row(&col[lo..hi], &mut scratch.keys);
        scratch.weights.clear();
        scratch.weights.extend_from_slice(&w[lo..hi]);
        let (keys, weights) = (&scratch.keys, &scratch.weights);
        let start = out;
        let mut i = 0usize;
        while i < keys.len() {
            let target = key_target(keys[i]);
            let mut acc = 0.0f64;
            while i < keys.len() && key_target(keys[i]) == target {
                acc += weights[key_pos(keys[i])];
                i += 1;
            }
            col[out] = target;
            w[out] = acc;
            out += 1;
            if u as u32 <= target {
                pairs_once += 1;
            }
        }
        *len = (out - start) as u32;
    }
    (out, pairs_once)
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

    fn push_all(b: &mut CsrBuilder, edges: &[(NodeId, NodeId, f64)]) {
        for &(src, dst, w) in edges {
            b.push(src, dst, w);
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
    fn long_rows_fold_equal_targets_in_insertion_order() {
        // Row 0 holds 121 entries, far past the small-sort cutoff. Its
        // first entry to target 3 weighs 1e16; 60 later entries to target 3
        // weigh 1.0, interleaved with entries to the targets on both sides
        // of it. In insertion order each 1.0 rounds away
        // (1e16 + 1.0 == 1e16), so the merged weight is exactly 1e16; a
        // fold that took two 1.0 entries first would give at least
        // 1e16 + 2.0.
        let (mut src, mut dst, mut w) = (vec![0u32], vec![3u32], vec![1e16]);
        for k in 0..60 {
            src.extend([0, 0]);
            dst.extend([[0, 1, 2, 4, 5, 6][k % 6], 3]);
            w.extend([0.5, 1.0]);
        }
        let node_ids: Vec<NodeId> = (0..7).collect();
        for directed in [false, true] {
            for (shards, budget) in [(1, None), (3, None), (2, Some(0))] {
                let g = build_dense_csr_budgeted(
                    directed,
                    node_ids.clone(),
                    &src,
                    &dst,
                    &w,
                    Some(shards),
                    Some(2),
                    budget,
                    None,
                )
                .expect("build");
                let (targets, weights) = g.row(0);
                assert_eq!(targets, &[0, 1, 2, 3, 4, 5, 6]);
                assert_eq!(weights[3].to_bits(), 1e16f64.to_bits());
                assert_eq!(weights[4], 5.0);
            }
        }
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
            push_all(&mut b, &sample_edges());
            b.build()
        };
        for shards in [1usize, 2, 4] {
            let mut b = CsrBuilder::undirected().shards(Some(shards));
            push_all(&mut b, &sample_edges());
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
        let mut edges = Vec::new();
        let mut x = 7u64;
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let s = (x >> 33) % 257;
            let d = (x >> 17) % 257;
            let w = ((x >> 3) % 1000) as f64 / 64.0 + 0.25;
            edges.push((s, d, w));
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
