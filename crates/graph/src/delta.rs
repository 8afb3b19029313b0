//! Incremental CSR updates — merging an edge batch into a frozen graph.
//!
//! The columnar build path ([`build_dense_csr`](crate::build_dense_csr) /
//! [`CsrBuilder`](crate::CsrBuilder)) rebuilds a [`CsrGraph`] from the full
//! edge list. A live pipeline ingesting trip batches should not pay that
//! cost per batch: a [`CsrDelta`] turns a batch's edge columns into
//! per-row insert/merge plans, and [`CsrGraph::apply_delta`] produces the
//! updated frozen graph by merging those plans into the existing CSR rows.
//!
//! ## The equivalence contract
//!
//! `apply_delta` output is **bit-identical to rebuilding from the
//! concatenated edge list** (old edges first, then the batch in insertion
//! order) via the full columnar path — same node table, offsets, targets,
//! weights, cached degrees, edge count and total weight, at any thread
//! count. Two facts make this hold:
//!
//! 1. **Merged weights are prefix folds.** The rebuild merges a row by
//!    stable-sorting its half-edges by target and summing weights in
//!    insertion order; all old half-edges precede all batch half-edges in
//!    the concatenated list, so the *stored* old merged weight is exactly
//!    the rebuild's fold prefix. Continuing the fold from it
//!    (`acc = old_weight; acc += batch entries in order`) reproduces the
//!    rebuild's bits. The same argument covers
//!    [`total_weight`](CsrGraph::total_weight) and, inductively, chains of
//!    deltas.
//! 2. **Node tables extend monotonically.** Appending edges never reorders
//!    previously interned nodes: first-appearance interning
//!    ([`CsrDelta::extend_by_id`]) appends new ids after the old table,
//!    and sorted dense interning ([`CsrDelta::from_dense`]) shifts old
//!    indices by a monotone remap. Old rows stay sorted under either, so a
//!    two-pointer merge with the batch buckets yields the rebuild's rows.
//!
//! The merge runs as fixed-chunk [`par::RowChunks`] passes on the PR 2
//! scheduler — chunk boundaries depend only on the graph and the delta,
//! never the thread count — so applying a delta is parallel yet
//! bit-identical at any parallelism, like every other pass in this crate.
//! The differential proptest suite (`crates/core/tests/proptest_delta.rs`)
//! enforces the contract end to end.
//!
//! **Sharded bases.** A base graph built through the sharded path
//! ([`build_dense_csr_sharded`](crate::build_dense_csr_sharded)) is
//! bit-identical to the unsharded build, so `apply_delta` accepts it
//! unchanged and the equivalence contract carries over verbatim: delta on
//! a sharded base equals the unsharded rebuild of the concatenated list.
//! The shard-independence suite (`crates/graph/tests/proptest_sharded.rs`)
//! chains deltas onto sharded bases to pin this down.

use crate::build::{half_edges, HalfEdges};
use crate::csr::CsrParts;
use crate::{par, CsrGraph, NodeId};

/// A batch of edges prepared for merging into a frozen [`CsrGraph`] —
/// the new dense node table plus the batch's edge columns expressed in
/// that table's index space. Build one with [`CsrDelta::from_dense`]
/// (columnar sources that manage their own sorted intern table, like
/// `moby_data`'s trip table) or [`CsrDelta::extend_by_id`]
/// (first-appearance-interned graphs, like the layered temporal graphs),
/// then apply it with [`CsrGraph::apply_delta`].
#[derive(Debug, Clone)]
pub struct CsrDelta {
    directed: bool,
    new_node_ids: Vec<NodeId>,
    /// Monotone map from old dense index to new dense index; `None` means
    /// the old table is an unchanged prefix of `new_node_ids`.
    old_to_new: Option<Vec<u32>>,
    src: Vec<u32>,
    dst: Vec<u32>,
    weight: Vec<f64>,
}

impl CsrDelta {
    /// A delta from **already-interned dense edge columns**, the analogue
    /// of [`build_dense_csr`](crate::build_dense_csr) for batches.
    ///
    /// `new_node_ids` is the node table *after* the batch (dense index =
    /// position); `old_to_new` maps each old dense index to its position
    /// in the new table and must be strictly increasing (pass `None` when
    /// the old table is an unchanged prefix, the no-new-nodes /
    /// appended-nodes case). `src[k]`/`dst[k]` are indices into the new
    /// table and every weight must be finite and non-negative — callers
    /// validate at the boundary, exactly as the trip table does for
    /// [`build_dense_csr`](crate::build_dense_csr).
    pub fn from_dense(
        directed: bool,
        new_node_ids: Vec<NodeId>,
        old_to_new: Option<Vec<u32>>,
        src: &[u32],
        dst: &[u32],
        weight: &[f64],
    ) -> CsrDelta {
        assert_eq!(src.len(), dst.len(), "delta edge columns must align");
        assert_eq!(src.len(), weight.len(), "delta edge columns must align");
        let n_new = new_node_ids.len();
        assert!(n_new <= u32::MAX as usize, "CSR index space is u32");
        for (&s, &d) in src.iter().zip(dst) {
            assert!(
                (s as usize) < n_new && (d as usize) < n_new,
                "delta endpoint outside the new node table"
            );
        }
        if let Some(map) = &old_to_new {
            assert!(
                map.windows(2).all(|w| w[0] < w[1]),
                "old_to_new must be strictly increasing"
            );
            assert!(
                map.last().is_none_or(|&last| (last as usize) < n_new),
                "old_to_new exceeds the new node table"
            );
        }
        for &w in weight {
            debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        }
        CsrDelta {
            directed,
            new_node_ids,
            old_to_new,
            src: src.to_vec(),
            dst: dst.to_vec(),
            weight: weight.to_vec(),
        }
    }

    /// A delta from external-id edges against a **first-appearance
    /// interned** graph (one built by [`CsrBuilder`](crate::CsrBuilder)):
    /// endpoints already in `graph` keep their dense index, new ids are
    /// appended in first-appearance order (`src` before `dst` within each
    /// edge), exactly where a [`CsrBuilder`](crate::CsrBuilder) rebuild
    /// over the concatenated edge list would intern them. Non-finite or
    /// negative weights are ignored and intern no endpoints, matching
    /// [`CsrBuilder::push`](crate::CsrBuilder::push).
    pub fn extend_by_id<I>(graph: &CsrGraph, edges: I) -> CsrDelta
    where
        I: IntoIterator<Item = (NodeId, NodeId, f64)>,
    {
        let edges: Vec<(NodeId, NodeId, f64)> = edges
            .into_iter()
            .filter(|&(_, _, w)| w.is_finite() && w >= 0.0)
            .collect();
        let n_old = graph.node_count();

        // Intern the batch's new ids by the builder's (id, first-slot)
        // sort+dedup trick, restricted to ids the graph doesn't know.
        let mut pairs: Vec<(NodeId, u64)> = Vec::with_capacity(2 * edges.len());
        for (k, &(s, d, _)) in edges.iter().enumerate() {
            pairs.push((s, 2 * k as u64));
            pairs.push((d, 2 * k as u64 + 1));
        }
        pairs.sort_unstable();
        pairs.dedup_by_key(|p| p.0);
        pairs.retain(|&(id, _)| graph.index_of(id).is_none());
        let mut order: Vec<(u64, NodeId)> = pairs.iter().map(|&(id, slot)| (slot, id)).collect();
        order.sort_unstable();

        let mut new_node_ids = graph.node_ids().to_vec();
        new_node_ids.extend(order.iter().map(|&(_, id)| id));
        assert!(
            new_node_ids.len() <= u32::MAX as usize,
            "CSR index space is u32"
        );
        // Sorted lookup over the appended ids only; old ids resolve
        // through the graph's own index.
        let mut appended: Vec<(NodeId, u32)> = order
            .iter()
            .enumerate()
            .map(|(i, &(_, id))| (id, (n_old + i) as u32))
            .collect();
        appended.sort_unstable();
        let resolve = |id: NodeId| -> u32 {
            graph.index_of(id).unwrap_or_else(|| {
                let at = appended
                    .binary_search_by_key(&id, |&(id, _)| id)
                    .expect("endpoint interned");
                appended[at].1
            })
        };

        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        let mut weight = Vec::with_capacity(edges.len());
        for &(s, d, w) in &edges {
            src.push(resolve(s));
            dst.push(resolve(d));
            weight.push(w);
        }
        CsrDelta {
            directed: graph.is_directed(),
            new_node_ids,
            old_to_new: None,
            src,
            dst,
            weight,
        }
    }

    /// Whether the delta targets a directed graph.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of batch edges.
    pub fn edge_count(&self) -> usize {
        self.src.len()
    }

    /// Whether the delta carries no batch edges.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// The node table after the batch (dense index = position).
    pub fn new_node_ids(&self) -> &[NodeId] {
        &self.new_node_ids
    }
}

impl CsrGraph {
    /// Merge a [`CsrDelta`] into this frozen graph, producing the frozen
    /// graph of the concatenated edge list — **bit-identical to a full
    /// rebuild** via the columnar path, at any thread count. See the
    /// [module docs](self) for the contract and why it holds.
    ///
    /// Untouched rows are copied (never re-merged from half-edges); rows
    /// with batch entries run a two-pointer sorted merge that continues
    /// the rebuild's weight fold from the stored merged weights.
    ///
    /// # Panics
    ///
    /// If the delta's directedness or node table is incompatible with
    /// this graph (`old_to_new` length / id mismatches).
    pub fn apply_delta(&self, delta: &CsrDelta, threads: Option<usize>) -> CsrGraph {
        assert_eq!(
            self.is_directed(),
            delta.directed,
            "delta directedness mismatch"
        );
        let n_old = self.node_count();
        let n_new = delta.new_node_ids.len();
        match &delta.old_to_new {
            None => {
                assert!(
                    n_new >= n_old && self.node_ids() == &delta.new_node_ids[..n_old],
                    "delta node table must extend the graph's"
                );
            }
            Some(map) => {
                assert_eq!(map.len(), n_old, "old_to_new must cover every old node");
                for (ou, &nu) in map.iter().enumerate() {
                    assert_eq!(
                        delta.new_node_ids[nu as usize],
                        self.node_ids()[ou],
                        "old_to_new must preserve node ids"
                    );
                }
            }
        }
        let threads = par::thread_count(threads);

        // Total weight continues the rebuild's insertion-order fold from
        // the old total (the fold's prefix — see the module docs).
        let mut total_weight = self.total_weight();
        for &w in &delta.weight {
            total_weight += w;
        }

        let map = delta.old_to_new.as_deref();
        let out_half = half_edges(&delta.src, &delta.dst, &delta.weight, self.is_directed());
        let (offsets, targets, weights, pairs_once) = merge_rows(
            n_new,
            n_old,
            map,
            |ou| self.row(ou),
            self.offsets(),
            &out_half,
            threads,
        );
        let (in_offsets, in_targets, in_weights) = if self.is_directed() {
            let in_half = half_edges(&delta.dst, &delta.src, &delta.weight, true);
            let (io, it, iw, _) = merge_rows(
                n_new,
                n_old,
                map,
                |ou| self.in_row(ou),
                self.in_offsets(),
                &in_half,
                threads,
            );
            (io, it, iw)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let edge_count = if self.is_directed() {
            targets.len()
        } else {
            pairs_once
        };

        CsrGraph::from_parts(
            CsrParts {
                directed: self.is_directed(),
                node_ids: delta.new_node_ids.clone(),
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
}

/// Merge old CSR rows with a batch's half-edges over the new row space:
/// per-row two-pointer sorted merge, weights folded old-first then batch
/// entries in insertion order. Returns
/// `(offsets, targets, weights, pairs_once)` with the same conventions as
/// the full build's row packing.
fn merge_rows<'g, F>(
    n_new: usize,
    n_old: usize,
    old_to_new: Option<&[u32]>,
    old_row: F,
    old_offsets: &[u32],
    half: &HalfEdges,
    threads: usize,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, usize)
where
    F: Fn(usize) -> (&'g [u32], &'g [f64]) + Sync,
{
    let h = half.row.len();
    let old_entries = old_offsets.last().map(|&e| e as usize).unwrap_or(0);
    assert!(
        old_entries + h <= u32::MAX as usize,
        "merged adjacency exceeds the u32 CSR index space"
    );

    // Bucket the batch half-edges by new row: counting pass + stable
    // scatter, insertion order preserved inside each bucket (the weight
    // fold depends on it). Batches are small next to the graph, so this
    // stays serial; the expensive whole-graph merge below is parallel.
    let mut bucket_offsets = vec![0u32; n_new + 1];
    for &r in &half.row {
        bucket_offsets[r as usize + 1] += 1;
    }
    for u in 0..n_new {
        bucket_offsets[u + 1] += bucket_offsets[u];
    }
    let mut bucket_col = vec![0u32; h];
    let mut bucket_w = vec![0.0f64; h];
    let mut cursor: Vec<u32> = bucket_offsets[..n_new].to_vec();
    for i in 0..h {
        let r = half.row[i] as usize;
        let p = cursor[r] as usize;
        cursor[r] += 1;
        bucket_col[p] = half.col[i];
        bucket_w[p] = half.weight[i];
    }

    // Old row behind each new row (u32::MAX = none).
    let mut old_of_new = vec![u32::MAX; n_new];
    match old_to_new {
        Some(map) => {
            for (ou, &nu) in map.iter().enumerate() {
                old_of_new[nu as usize] = ou as u32;
            }
        }
        None => {
            for (ou, slot) in old_of_new.iter_mut().enumerate().take(n_old) {
                *slot = ou as u32;
            }
        }
    }

    // Provisional per-row entry counts drive the chunk balance; they
    // depend only on the graph and the delta, so chunk boundaries — and
    // therefore the merged bits — are identical at any thread count.
    let mut prov = Vec::with_capacity(n_new + 1);
    prov.push(0u32);
    for u in 0..n_new {
        let old_len = match old_of_new[u] {
            u32::MAX => 0,
            ou => (old_offsets[ou as usize + 1] - old_offsets[ou as usize]) as usize,
        };
        let batch_len = (bucket_offsets[u + 1] - bucket_offsets[u]) as usize;
        prov.push(prov[u] + (old_len + batch_len) as u32);
    }

    let row_chunks = par::RowChunks::balanced(&prov, 64, 4096);
    let merged = par::par_map(&row_chunks, threads, |_, range| {
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut lens = Vec::with_capacity(range.len());
        let mut pairs_once = 0usize;
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        for u in range {
            let before = targets.len();
            let (ot, ow) = match old_of_new[u] {
                u32::MAX => (&[] as &[u32], &[] as &[f64]),
                ou => old_row(ou as usize),
            };
            let lo = bucket_offsets[u] as usize;
            let hi = bucket_offsets[u + 1] as usize;
            if lo == hi {
                // Untouched row: copy (weights bit-for-bit), remapping
                // targets only when old indices shifted.
                match old_to_new {
                    None => targets.extend_from_slice(ot),
                    Some(map) => targets.extend(ot.iter().map(|&c| map[c as usize])),
                }
                weights.extend_from_slice(ow);
                // Merged entries with row <= col, over the remapped
                // (still sorted) targets.
                let row_tail = &targets[before..];
                pairs_once += row_tail.len() - row_tail.partition_point(|&c| (c as usize) < u);
                lens.push((targets.len() - before) as u32);
                continue;
            }
            // Batch entries of this row, stable-sorted by target so equal
            // targets keep insertion order for the fold.
            scratch.clear();
            scratch.extend(
                bucket_col[lo..hi]
                    .iter()
                    .copied()
                    .zip(bucket_w[lo..hi].iter().copied()),
            );
            scratch.sort_by_key(|&(col, _)| col);
            let remap = |c: u32| old_to_new.map_or(c, |m| m[c as usize]);
            let (mut i, mut j) = (0usize, 0usize);
            while i < ot.len() || j < scratch.len() {
                let next_old = (i < ot.len()).then(|| remap(ot[i]));
                let next_new = (j < scratch.len()).then(|| scratch[j].0);
                let (col, w) = match (next_old, next_new) {
                    (Some(oc), None) => {
                        let r = (oc, ow[i]);
                        i += 1;
                        r
                    }
                    (Some(oc), Some(nc)) if oc < nc => {
                        let r = (oc, ow[i]);
                        i += 1;
                        r
                    }
                    (oc, Some(nc)) => {
                        // Fold from the old merged weight when the target
                        // exists, else from zero — the rebuild's prefix.
                        let mut acc = if oc == Some(nc) {
                            i += 1;
                            ow[i - 1]
                        } else {
                            0.0
                        };
                        while j < scratch.len() && scratch[j].0 == nc {
                            acc += scratch[j].1;
                            j += 1;
                        }
                        (nc, acc)
                    }
                    (None, None) => unreachable!("loop condition"),
                };
                targets.push(col);
                weights.push(w);
                if u as u32 <= col {
                    pairs_once += 1;
                }
            }
            lens.push((targets.len() - before) as u32);
        }
        (targets, weights, lens, pairs_once)
    });

    let mut final_offsets = Vec::with_capacity(n_new + 1);
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
    while final_offsets.len() < n_new + 1 {
        final_offsets.push(*final_offsets.last().unwrap());
    }
    (final_offsets, final_targets, final_weights, pairs_once)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_dense_csr, CsrBuilder};

    /// Bit-strict equality between two frozen graphs (the delta contract).
    fn assert_identical(got: &CsrGraph, want: &CsrGraph) {
        assert_eq!(got, want);
        assert_eq!(got.total_weight().to_bits(), want.total_weight().to_bits());
        for u in 0..want.node_count() {
            let (gt, gw) = got.row(u);
            let (wt, ww) = want.row(u);
            assert_eq!(gt, wt, "row {u} targets");
            for (a, b) in gw.iter().zip(ww) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {u} weights");
            }
            assert_eq!(got.strength(u).to_bits(), want.strength(u).to_bits());
            assert_eq!(
                got.weighted_degree(u).to_bits(),
                want.weighted_degree(u).to_bits()
            );
            assert_eq!(got.self_loop(u).to_bits(), want.self_loop(u).to_bits());
            let (git, giw) = got.in_row(u);
            let (wit, wiw) = want.in_row(u);
            assert_eq!(git, wit, "in-row {u} targets");
            for (a, b) in giw.iter().zip(wiw) {
                assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} weights");
            }
        }
    }

    /// Pseudo-random dense edge columns over `n` nodes.
    fn random_edges(n: u32, m: usize, seed: u64) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let mut x = seed | 1;
        let mut src = Vec::with_capacity(m);
        let mut dst = Vec::with_capacity(m);
        let mut w = Vec::with_capacity(m);
        for _ in 0..m {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            src.push(((x >> 33) % n as u64) as u32);
            dst.push(((x >> 17) % n as u64) as u32);
            w.push(((x >> 3) % 1000) as f64 / 64.0 + 0.25);
        }
        (src, dst, w)
    }

    #[test]
    fn dense_delta_matches_rebuild_without_new_nodes() {
        let node_ids: Vec<NodeId> = (0..50).map(|i| 10 * i + 3).collect();
        let (src, dst, w) = random_edges(50, 400, 7);
        let (bs, bd, bw) = random_edges(50, 37, 1234);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            let delta = CsrDelta::from_dense(directed, node_ids.clone(), None, &bs, &bd, &bw);
            assert_eq!(delta.edge_count(), 37);
            assert!(!delta.is_empty());
            assert_eq!(delta.is_directed(), directed);
            let all_src: Vec<u32> = src.iter().chain(&bs).copied().collect();
            let all_dst: Vec<u32> = dst.iter().chain(&bd).copied().collect();
            let all_w: Vec<f64> = w.iter().chain(&bw).copied().collect();
            let want = build_dense_csr(
                directed,
                node_ids.clone(),
                &all_src,
                &all_dst,
                &all_w,
                Some(1),
            );
            for threads in [1usize, 2, 4] {
                assert_identical(&base.apply_delta(&delta, Some(threads)), &want);
            }
        }
    }

    #[test]
    fn dense_delta_remaps_interleaved_new_nodes() {
        // Old sorted table {10, 30, 50}; batch introduces 20 and 60, so
        // old indices 1 and 2 shift by one.
        let old_ids: Vec<NodeId> = vec![10, 30, 50];
        let new_ids: Vec<NodeId> = vec![10, 20, 30, 50, 60];
        let old_to_new = vec![0u32, 2, 3];
        let (src, dst, w) = random_edges(3, 60, 5);
        let base = build_dense_csr(false, old_ids, &src, &dst, &w, Some(1));
        // Batch edges in the NEW index space, touching old and new nodes.
        let bs = vec![1u32, 4, 2, 1];
        let bd = vec![2u32, 1, 2, 1];
        let bw = vec![0.5, 1.25, 2.0, 0.75];
        let delta = CsrDelta::from_dense(
            false,
            new_ids.clone(),
            Some(old_to_new.clone()),
            &bs,
            &bd,
            &bw,
        );
        // Expected: rebuild over the concatenated list in the new space.
        let remap = |c: u32| old_to_new[c as usize];
        let all_src: Vec<u32> = src.iter().map(|&c| remap(c)).chain(bs).collect();
        let all_dst: Vec<u32> = dst.iter().map(|&c| remap(c)).chain(bd).collect();
        let all_w: Vec<f64> = w.iter().copied().chain(bw).collect();
        let want = build_dense_csr(false, new_ids, &all_src, &all_dst, &all_w, Some(1));
        for threads in [1usize, 2, 4] {
            assert_identical(&base.apply_delta(&delta, Some(threads)), &want);
        }
    }

    #[test]
    fn extend_by_id_matches_builder_rebuild() {
        let old_edges = [(5u64, 9u64, 1.5), (9, 12, 2.0), (5, 5, 0.5)];
        let batch = [
            (9u64, 77u64, 1.0), // new node 77
            (5, 9, 0.25),       // merges into an existing edge
            (88, 77, 3.0),      // two new nodes, 88 first by src slot
            (12, 12, 1.0),
        ];
        for directed in [false, true] {
            let mk = |edges: &[(u64, u64, f64)]| {
                let mut b = if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                };
                for &(s, d, w) in edges {
                    b.push(s, d, w);
                }
                b.build()
            };
            let base = mk(&old_edges);
            let all: Vec<_> = old_edges.iter().chain(&batch).copied().collect();
            let want = mk(&all);
            let delta = CsrDelta::extend_by_id(&base, batch.iter().copied());
            assert_eq!(delta.new_node_ids(), want.node_ids());
            for threads in [1usize, 2, 4] {
                assert_identical(&base.apply_delta(&delta, Some(threads)), &want);
            }
        }
    }

    #[test]
    fn extend_by_id_skips_invalid_weights_like_the_builder() {
        let mut b = CsrBuilder::undirected();
        b.push(1, 2, 1.0);
        let base = b.build();
        let delta = CsrDelta::extend_by_id(&base, [(1u64, 99u64, f64::NAN), (2, 98, -1.0)]);
        // Rejected edges intern no endpoints and carry no rows.
        assert!(delta.is_empty());
        assert_eq!(delta.new_node_ids(), base.node_ids());
        assert_identical(&base.apply_delta(&delta, Some(2)), &base);
    }

    #[test]
    fn empty_delta_reproduces_the_graph() {
        let (src, dst, w) = random_edges(20, 100, 99);
        let ids: Vec<NodeId> = (0..20).collect();
        for directed in [false, true] {
            let base = build_dense_csr(directed, ids.clone(), &src, &dst, &w, Some(1));
            let delta = CsrDelta::from_dense(directed, ids.clone(), None, &[], &[], &[]);
            assert_identical(&base.apply_delta(&delta, Some(3)), &base);
        }
    }

    #[test]
    fn delta_chain_matches_one_shot_rebuild() {
        // Three consecutive batches == one concatenated rebuild, bitwise.
        let ids: Vec<NodeId> = (0..64).collect();
        let (mut all_src, mut all_dst, mut all_w) = random_edges(64, 300, 42);
        let mut g = build_dense_csr(true, ids.clone(), &all_src, &all_dst, &all_w, Some(2));
        for round in 0..3u64 {
            let (bs, bd, bw) = random_edges(64, 50, 1000 + round);
            let delta = CsrDelta::from_dense(true, ids.clone(), None, &bs, &bd, &bw);
            g = g.apply_delta(&delta, Some(2));
            all_src.extend(bs);
            all_dst.extend(bd);
            all_w.extend(bw);
        }
        let want = build_dense_csr(true, ids, &all_src, &all_dst, &all_w, Some(1));
        assert_identical(&g, &want);
    }

    #[test]
    #[should_panic(expected = "directedness")]
    fn mismatched_directedness_panics() {
        let base = build_dense_csr(true, vec![1, 2], &[0], &[1], &[1.0], Some(1));
        let delta = CsrDelta::from_dense(false, vec![1, 2], None, &[], &[], &[]);
        base.apply_delta(&delta, None);
    }

    #[test]
    #[should_panic(expected = "node table")]
    fn incompatible_node_table_panics() {
        let base = build_dense_csr(true, vec![1, 2], &[0], &[1], &[1.0], Some(1));
        let delta = CsrDelta::from_dense(true, vec![2, 1], None, &[], &[], &[]);
        base.apply_delta(&delta, None);
    }
}
