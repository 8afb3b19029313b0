//! Columnar CSR construction — the hashmap-free build path.
//!
//! [`WeightedGraph`](crate::WeightedGraph) builds adjacency through
//! per-node hash maps: every inserted edge pays a hash probe per endpoint.
//! That is fine for small graphs but it is the last hash-bound stage on the
//! pipeline's hot path now that every *algorithm* consumes a frozen
//! [`CsrGraph`]. This module replaces it with a columnar pipeline over
//! **dense edge columns** — `src[k]`/`dst[k]` index a known node table, as
//! `moby_data`'s trip table and `moby_core`'s layer intern emit them:
//!
//! 1. a counting pass sizes every row's bucket;
//! 2. a scatter fills the buckets in insertion order;
//! 3. each row is ordered by a packed `u64` key,
//!    `(target << 32) | position in the bucket`, and **merged in place**,
//!    equal targets summing their weights in insertion order. The bucket
//!    columns then become the graph's targets and weights.
//!
//! The merge runs on the [`par`] scheduler over fixed edge-balanced row
//! chunks, each in its own slice of the bucket columns, and one serial
//! pass closes the gaps between the chunks' merged prefixes. A merged row
//! is a pure function of its bucket *in insertion order*, so construction
//! is **bit-identical at any thread count** (the module contract of
//! [`par`]). [`build_dense_csr`] runs this in memory and cannot fail.
//!
//! ## Shards and spill runs
//!
//! [`build_dense_csr_budgeted`] takes an explicit shard count and spill
//! budget. The bucket columns are allocated once, at the half-edge count.
//! A **shard** is a contiguous row range, balanced by half-edge count (a
//! pure function of the row structure and the shard count, never the
//! thread count), that fills its own slice of them. An in-memory shard
//! fills it with one forward scan of the edge columns. When the estimated
//! run size — half-edge count × [`spill::HALF_EDGE_BYTES`] — exceeds the
//! budget, a partition pass first writes every half-edge to its shard's
//! **disk run** (plain little-endian records under a RAII temp dir, see
//! [`spill`]) in global insertion order, and each shard fills its slice
//! from its run instead. That fill is the only difference between the
//! arms: either way every bucket lists its entries in insertion order, and
//! the same merge follows. So the frozen graph is **bit-identical at any
//! shard count × thread count × budget** — the shard and spill-budget
//! independence axes, enforced by `tests/proptest_sharded.rs` and
//! `tests/proptest_spill.rs`. Since the buckets live in memory on both
//! arms, a spilled build does not peak lower than an in-memory one.
//!
//! The output is *exactly* the graph `WeightedGraph::freeze()` produces
//! after seeding the same node table and inserting the same edges — same
//! sorted rows, same bit pattern in every merged weight and cached degree —
//! which the equivalence proptests assert at 1/2/4 build threads.

use crate::csr::CsrParts;
use crate::{par, spill, CsrGraph, NodeId};
use std::ops::Range;
use std::path::Path;

/// Hard ceiling on an explicit construction shard count.
const MAX_SHARDS: usize = 256;

/// Build a frozen [`CsrGraph`] from **already-interned dense edge
/// columns** by parallel sort-merge, without a hash map on the per-edge
/// path.
///
/// `node_ids` supplies the dense node table (dense index = position);
/// `src[k]`/`dst[k]` must be valid indices into it and every weight must
/// be finite and non-negative — callers validate at the boundary, as the
/// trip table does. The result mirrors
/// [`WeightedGraph`](crate::WeightedGraph) insertion after
/// [`add_node`](crate::WeightedGraph::add_node) seeded `node_ids` in
/// order:
///
/// * parallel edges between the same pair merge by summing weights in
///   insertion order;
/// * undirected edges appear in both endpoint rows but count once in
///   [`CsrGraph::edge_count`] / [`CsrGraph::total_weight`];
/// * nodes without edges stay in the table as isolated rows.
///
/// It is bit-identical at any `threads` setting; see the [module
/// docs](self) for the pipeline and the determinism contract.
pub fn build_dense_csr(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    threads: Option<usize>,
) -> CsrGraph {
    let threads = par::thread_count(threads);
    build_in_memory(directed, node_ids, src, dst, weight, 1, threads)
}

/// [`build_dense_csr`] with an explicit construction shard count and an
/// out-of-core **spill budget**.
///
/// The dense row space is partitioned into at most `shards` contiguous
/// ranges balanced by half-edge count (`None` is one shard; an explicit
/// count is clamped to `1..=256`). Each shard fills its own slice of the
/// row buckets with a forward scan of the edge columns, so every row's
/// bucket keeps global insertion order, and the one merge pass follows.
/// Shards scan in parallel, so pick `shards >= threads` when sharding for
/// speed; each extra shard costs one more scan of the edge columns and no
/// extra memory.
///
/// `budget_mb = None` never spills. When the estimated run size
/// (half-edge count × [`spill::HALF_EDGE_BYTES`]) exceeds the budget, the
/// half-edges are partitioned to per-shard disk runs under `spill_dir`
/// (default: the system temp dir), in a subdirectory removed on return,
/// error and unwind alike, and each shard fills its row buckets from its
/// run — see the [module docs](self). `Some(0)` spills every non-empty
/// build.
///
/// The result is **bit-identical to [`build_dense_csr`] at any shard
/// count × thread count × budget**, so downstream consumers (including
/// [`CsrGraph::apply_window`](crate::CsrGraph::apply_window)) cannot
/// observe either knob. Spill I/O failures surface as
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
    let shards = shards.map_or(1, |s| s.clamp(1, MAX_SHARDS));
    let threads = par::thread_count(threads);
    let half_edges = if directed { src.len() } else { 2 * src.len() };
    let budget = budget_mb.map(|mb| mb.saturating_mul(1024 * 1024));
    if !spill::should_spill(half_edges, budget) {
        return Ok(build_in_memory(
            directed, node_ids, src, dst, weight, shards, threads,
        ));
    }
    // The runs live under one directory, removed when `dir` drops: on
    // success, on every early `?` and on unwind alike.
    let dir = spill::SpillDir::create(spill_dir)?;
    let n = node_ids.len();
    let pack = |rows: &[u32], cols: &[u32], directed: bool, tag: &str| {
        let mut buckets = RowBuckets::new(n, rows, cols, weight, directed, shards);
        let mut shard_of = vec![0u32; n];
        for (s, range) in buckets.shards.ranges().iter().enumerate() {
            shard_of[range.clone()].fill(s as u32);
        }
        let mut writers = spill::ShardRunWriters::create(dir.path(), buckets.shards.len(), tag)?;
        for_each_half_edge(rows, cols, weight, directed, |r, c, w| {
            writers.push(shard_of[r as usize] as usize, r, c, w);
        });
        let runs = writers.finish()?;
        buckets
            .fill(threads, |s, shard| {
                debug_assert_eq!(runs.shard_len(s) as usize, shard.col.len(), "run length");
                runs.for_each(s, &mut |r, c, w| shard.put(r, c, w))
            })
            .into_iter()
            .collect::<crate::Result<()>>()?;
        Ok::<_, crate::GraphError>(buckets.merge(threads))
    };
    let out = pack(src, dst, directed, "out")?;
    let inward = if directed {
        Some(pack(dst, src, true, "in")?)
    } else {
        None
    };
    Ok(assemble(directed, node_ids, weight, out, inward, threads))
}

/// The in-memory build at a resolved shard and thread count: each shard
/// fills its buckets with a forward scan of the edge columns.
fn build_in_memory(
    directed: bool,
    node_ids: Vec<NodeId>,
    src: &[u32],
    dst: &[u32],
    weight: &[f64],
    shards: usize,
    threads: usize,
) -> CsrGraph {
    let n = node_ids.len();
    let pack = |rows: &[u32], cols: &[u32], directed: bool| {
        let mut buckets = RowBuckets::new(n, rows, cols, weight, directed, shards);
        buckets.fill(threads, |_, shard| {
            for_each_half_edge(rows, cols, weight, directed, |r, c, w| {
                if shard.rows.contains(&(r as usize)) {
                    shard.put(r, c, w);
                }
            });
        });
        buckets.merge(threads)
    };
    let out = pack(src, dst, directed);
    let inward = directed.then(|| pack(dst, src, true));
    assemble(directed, node_ids, weight, out, inward, threads)
}

/// Freeze packed out-rows (and a directed graph's in-rows) into a graph.
/// The total weight is summed in insertion order at *edge* granularity,
/// before the undirected expansion, as `WeightedGraph` sums it.
fn assemble(
    directed: bool,
    node_ids: Vec<NodeId>,
    weight: &[f64],
    out: PackedRows,
    inward: Option<PackedRows>,
    threads: usize,
) -> CsrGraph {
    let mut total_weight = 0.0f64;
    for &w in weight {
        debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        total_weight += w;
    }
    let (offsets, targets, weights, pairs_once) = out;
    let (in_offsets, in_targets, in_weights, _) = inward.unwrap_or_default();
    let edge_count = if directed { targets.len() } else { pairs_once };
    CsrGraph::from_parts(
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
    )
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

/// One adjacency's row buckets: row `u`'s half-edges sit at
/// `offsets[u]..offsets[u + 1]` of `col`/`w`, and `shards` splits the rows
/// into the ranges that fill them.
struct RowBuckets {
    offsets: Vec<u32>,
    shards: par::RowChunks,
    col: Vec<u32>,
    w: Vec<f64>,
}

/// One shard's rows and its slice of the bucket columns, with a write
/// cursor per row.
struct Shard<'a> {
    rows: Range<usize>,
    cursor: Vec<u32>,
    col: &'a mut [u32],
    w: &'a mut [f64],
}

impl Shard<'_> {
    /// Append a half-edge to row `r`'s bucket; `r` must be in the shard.
    #[inline]
    fn put(&mut self, r: u32, c: u32, w: f64) {
        let p = &mut self.cursor[r as usize - self.rows.start];
        self.col[*p as usize] = c;
        self.w[*p as usize] = w;
        *p += 1;
    }
}

impl RowBuckets {
    /// Size the buckets of one adjacency over `n` rows — edge `k` from
    /// `rows[k]` to `cols[k]`, expanded by [`for_each_half_edge`] — and
    /// split the rows into at most `shards` ranges balanced by half-edge
    /// count. Counts are integers, so one serial pass gives the same
    /// offsets at any thread count.
    fn new(
        n: usize,
        rows: &[u32],
        cols: &[u32],
        weights: &[f64],
        directed: bool,
        shards: usize,
    ) -> RowBuckets {
        assert_eq!(rows.len(), cols.len(), "dense edge columns must align");
        assert_eq!(rows.len(), weights.len(), "dense edge columns must align");
        assert!(
            rows.len() <= (u32::MAX / 2) as usize,
            "edge list exceeds the u32 CSR index space"
        );
        let mut offsets = vec![0u32; n + 1];
        for_each_half_edge(rows, cols, weights, directed, |r, _, _| {
            offsets[r as usize + 1] += 1;
        });
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let h = offsets[n] as usize;
        RowBuckets {
            shards: par::RowChunks::balanced(&offsets, shards, 1),
            offsets,
            col: vec![0u32; h],
            w: vec![0.0f64; h],
        }
    }

    /// Fill the buckets, every row's oldest-first (the merge folds in that
    /// order): `fill(s, shard)` puts shard `s`'s half-edges in insertion
    /// order. The shards fill their own slices in parallel; their results
    /// come back in shard order.
    fn fill<R: Send>(
        &mut self,
        threads: usize,
        fill: impl Fn(usize, &mut Shard<'_>) -> R + Sync,
    ) -> Vec<R> {
        let offsets = &self.offsets;
        let slices = chunk_buckets(&self.shards, offsets, &mut self.col, &mut self.w);
        par::par_each_with(
            slices,
            threads,
            || (),
            |_, s, (rows, col, w)| {
                let base = offsets[rows.start];
                let cursor = offsets[rows.clone()].iter().map(|&o| o - base).collect();
                fill(
                    s,
                    &mut Shard {
                        rows,
                        cursor,
                        col,
                        w,
                    },
                )
            },
        )
    }

    /// Sort and merge every row in place: fixed edge-balanced row chunks
    /// each work inside their own slice of the bucket columns, then one
    /// serial pass closes the gaps between the chunks' merged prefixes, in
    /// chunk order, and the offsets become the merged ones.
    fn merge(self, threads: usize) -> PackedRows {
        let RowBuckets {
            mut offsets,
            mut col,
            mut w,
            ..
        } = self;
        let n = offsets.len() - 1;
        let row_chunks = par::RowChunks::balanced(&offsets, 64, 4096);
        let mut lens = vec![0u32; n];
        let row_ends = row_chunks.ranges().iter().map(|r| r.end);
        let items: Vec<_> = chunk_buckets(&row_chunks, &offsets, &mut col, &mut w)
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
        let (mut len, mut pairs_once) = (0usize, 0usize);
        for (range, (chunk_len, pairs)) in row_chunks.ranges().iter().zip(merged) {
            let start = offsets[range.start] as usize;
            col.copy_within(start..start + chunk_len, len);
            w.copy_within(start..start + chunk_len, len);
            len += chunk_len;
            pairs_once += pairs;
        }
        col.truncate(len);
        w.truncate(len);
        for u in 0..n {
            offsets[u + 1] = offsets[u] + lens[u];
        }
        (offsets, col, w, pairs_once)
    }
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

    /// `edges` as dense columns over `node_ids`.
    fn dense_columns(
        node_ids: &[NodeId],
        edges: &[(NodeId, NodeId, f64)],
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let dense = |id: NodeId| node_ids.iter().position(|&x| x == id).unwrap() as u32;
        (
            edges.iter().map(|e| dense(e.0)).collect(),
            edges.iter().map(|e| dense(e.1)).collect(),
            edges.iter().map(|e| e.2).collect(),
        )
    }

    /// Pseudo-random dense columns: `m` edges over `n` rows.
    fn random_columns(n: u64, m: usize, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let mut x = seed;
        let (mut src, mut dst, mut w) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..m {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            src.push(((x >> 33) % n) as u32);
            dst.push(((x >> 17) % n) as u32);
            w.push(((x >> 3) % 100) as f64 / 16.0 + 0.5);
        }
        (src, dst, w)
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
        let node_ids: Vec<NodeId> = vec![10, 20, 30, 40];
        let (src, dst, w) = dense_columns(&node_ids, &sample_edges());
        for directed in [false, true] {
            let baseline = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(1));
            for shards in [1usize, 2, 3, 4] {
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
        // A budget far above the footprint takes the in-memory branch, so
        // an unwritable spill dir is never touched.
        let node_ids: Vec<NodeId> = vec![10, 20, 30, 40];
        let (src, dst, w) = dense_columns(&node_ids, &sample_edges());
        let file = std::env::temp_dir().join(format!("moby-spill-test-h-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let built = build_dense_csr_budgeted(
            false,
            node_ids.clone(),
            &src,
            &dst,
            &w,
            None,
            None,
            Some(1 << 20),
            Some(&file.join("sub")),
        );
        std::fs::remove_file(&file).ok();
        let plain = build_dense_csr(false, node_ids, &src, &dst, &w, None);
        assert_identical(&built.expect("in-memory build"), &plain);
    }

    #[test]
    fn a_budget_is_in_megabytes() {
        // One megabyte holds 65 536 half-edge records: 32 768 undirected
        // edges fit and stay in memory, one more spills, and the spill
        // fails on the unwritable dir.
        let file = std::env::temp_dir().join(format!("moby-spill-test-mb-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let node_ids: Vec<NodeId> = vec![1, 2];
        let build = |m: usize| {
            build_dense_csr_budgeted(
                false,
                node_ids.clone(),
                &vec![0; m],
                &vec![1; m],
                &vec![1.0; m],
                None,
                Some(1),
                Some(1),
                Some(&file.join("sub")),
            )
        };
        let fits = build(32_768);
        let spills = build(32_769);
        std::fs::remove_file(&file).ok();
        assert_eq!(fits.expect("in-memory build").edge_count(), 1);
        assert!(matches!(spills, Err(crate::GraphError::Spill(_))));
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
        let g =
            build_dense_csr_budgeted(false, Vec::new(), &[], &[], &[], None, None, Some(0), None)
                .expect("empty build");
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn empty_columns_build_an_empty_graph() {
        let built = build_dense_csr(true, Vec::new(), &[], &[], &[], None);
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
    fn dense_build_matches_seeded_freeze() {
        // Dense columns over a node table reproduce exactly what a freeze
        // of the builder seeded with that table produces; node 99 has no
        // edge and stays an isolated row.
        let node_ids: Vec<NodeId> = vec![10, 20, 30, 40, 99];
        let (src, dst, w) = dense_columns(&node_ids, &sample_edges());
        let mut g_dir = WeightedGraph::new_directed();
        let mut g_und = WeightedGraph::new_undirected();
        for &id in &node_ids {
            g_dir.add_node(id);
            g_und.add_node(id);
        }
        for &(a, b, weight) in &sample_edges() {
            g_dir.add_edge(a, b, weight);
            g_und.add_edge(a, b, weight);
        }
        for threads in [Some(1), Some(2), Some(3), Some(4)] {
            let built = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_dir.freeze());
            let built = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, threads);
            assert_identical(&built, &g_und.freeze());
            assert_eq!(built.degree_of(99), Some(0));
        }
    }

    #[test]
    fn sharded_dense_build_matches_unsharded() {
        // Small-shard smoke case: every shard count must reproduce the
        // unsharded build bit for bit (the full differential suite lives
        // in tests/proptest_sharded.rs).
        let node_ids: Vec<NodeId> = (0..40).map(|i| i * 3 + 1).collect();
        let (src, dst, w) = random_columns(40, 600, 99);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            for shards in [1usize, 2, 3, 4, 7] {
                for threads in [1usize, 2, 4] {
                    let sharded = build_dense_csr_budgeted(
                        directed,
                        node_ids.clone(),
                        &src,
                        &dst,
                        &w,
                        Some(shards),
                        Some(threads),
                        None,
                        None,
                    )
                    .expect("in-memory build");
                    assert_identical(&sharded, &base);
                }
            }
        }
    }

    #[test]
    fn sharded_build_handles_empty_and_single_row_spaces() {
        let build = |directed, node_ids, src: &[u32], dst: &[u32], w: &[f64]| {
            build_dense_csr_budgeted(
                directed,
                node_ids,
                src,
                dst,
                w,
                Some(4),
                Some(2),
                None,
                None,
            )
            .expect("in-memory build")
        };
        assert!(build(false, Vec::new(), &[], &[], &[]).is_empty());
        let one = build(true, vec![7], &[0, 0], &[0, 0], &[1.0, 2.0]);
        assert_eq!(one.node_count(), 1);
        assert_eq!(one.row(0), (&[0u32][..], &[3.0][..]));
    }

    #[test]
    fn build_is_bit_identical_across_thread_counts() {
        // A larger pseudo-random list so several chunks exist.
        let node_ids: Vec<NodeId> = (0..257).collect();
        let (src, dst, w) = random_columns(257, 5000, 7);
        for directed in [false, true] {
            let build = |threads| {
                build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(threads))
            };
            let one = build(1);
            for threads in [2usize, 3, 8] {
                assert_identical(&build(threads), &one);
            }
        }
    }
}
