//! Incremental CSR eviction — removing expired edges from a frozen graph.
//!
//! [`CsrDelta`](crate::CsrDelta) is the *addition* arm of the delta
//! lifecycle; this module is the subtraction arm a sliding window needs.
//! A [`CsrEvict`] describes which rows lost edges and what survives;
//! [`CsrGraph::apply_evict`] produces the frozen graph of the surviving
//! edge list.
//!
//! ## Why subtraction cannot continue the fold
//!
//! The addition arm leans on stored merged weights being **prefix folds**
//! of a rebuild: old half-edges precede batch half-edges, so `apply_delta`
//! just continues the fold. Removal breaks that argument — evicting a trip
//! deletes an element from the *middle* of a row's insertion-order fold,
//! and floating-point addition is not invertible (subtracting the evicted
//! weight back out does not reproduce the rebuild's bits). Two facts
//! rescue incrementality:
//!
//! 1. **Untouched rows are unchanged folds.** A merged row is a pure
//!    function of that row's half-edge bucket in insertion order. A row
//!    incident to no evicted trip has the same bucket in the surviving
//!    list as in the original, so its stored targets and weights are
//!    byte-equal to the rebuild's — they copy, with targets remapped
//!    through the node-table compaction.
//! 2. **Touched rows re-fold from survivors.** Rows that lost a half-edge
//!    re-run the builder's per-row stable-sort + adjacent-merge over their
//!    surviving bucket — bit-identical to the rebuild by construction.
//!
//! [`total_weight`](CsrGraph::total_weight) is a *global* insertion-order
//! fold over the weight column, so removal anywhere re-folds it over the
//! full surviving column (one linear pass — cheap next to re-merging
//! every row).
//!
//! The re-fold runs as fixed-chunk [`par::RowChunks`] passes like every
//! other sweep in this crate, so the contract is: **`apply_evict` output
//! is bit-identical to a one-shot columnar build over the surviving edge
//! list, at any thread count and against bases built at any shard
//! count.** The windowed differential suite
//! (`crates/core/tests/proptest_window.rs`) enforces it end to end.
//!
//! ## Node-table compaction
//!
//! Sorted dense tables (the trip table's station intern) compact to a
//! sorted **subset**, so the remap is monotone ([`CsrEvict::from_dense`]).
//! First-appearance-interned graphs (the layered temporal graphs) are
//! subtler: a node first interned by an evicted edge but still referenced
//! later *moves* to its new first appearance, so the rebuild's table is a
//! **permuted** subset. The caller re-interns the surviving list (its
//! intern is the rebuild's) and [`CsrEvict::from_first_appearance`] maps
//! that table back through the graph's own index; untouched rows then
//! remap *and re-sort* their (unique-target) entries, which reproduces
//! the rebuild's sorted rows because per-target merged weights are
//! unaffected by the order of *other* targets.

use crate::build::{half_edges, HalfEdges};
use crate::csr::CsrParts;
use crate::{par, CsrGraph, NodeId};

/// An eviction prepared for application to a frozen [`CsrGraph`] — the
/// node table and full edge columns *after* the removal, plus the set of
/// touched nodes whose rows must be re-folded. Build one with
/// [`CsrEvict::from_dense`] (sorted dense intern tables, like
/// `moby_data`'s trip table) or [`CsrEvict::from_first_appearance`]
/// (first-appearance-interned graphs, like the layered temporal graphs),
/// then apply it with [`CsrGraph::apply_evict`].
#[derive(Debug, Clone)]
pub struct CsrEvict {
    directed: bool,
    new_node_ids: Vec<NodeId>,
    /// For each new dense index, the old dense index. `None` means the
    /// node table is unchanged. Monotone for [`CsrEvict::from_dense`],
    /// possibly permuting for [`CsrEvict::from_first_appearance`].
    new_to_old: Option<Vec<u32>>,
    /// External ids of the nodes incident to an evicted edge — exactly
    /// the rows whose merged weights must be re-folded.
    touched: Vec<NodeId>,
    /// The full surviving edge columns in the **new** index space,
    /// insertion order.
    src: Vec<u32>,
    dst: Vec<u32>,
    weight: Vec<f64>,
}

impl CsrEvict {
    /// An eviction from **already-interned dense edge columns**, the
    /// analogue of [`CsrDelta::from_dense`](crate::CsrDelta::from_dense)
    /// for removals.
    ///
    /// `new_node_ids` is the node table *after* the eviction (dense index
    /// = position); `new_to_old` maps each surviving dense index to its
    /// position in the old table and must be strictly increasing — the
    /// sorted-subset compaction a sorted intern table produces (pass
    /// `None` when no node was dropped). `src`/`dst`/`weight` are the
    /// **full surviving** edge columns in the new index space — the
    /// re-fold needs every touched row's surviving bucket, and the
    /// total-weight fold needs the whole column. `touched` lists the
    /// external ids incident to at least one evicted edge (a superset is
    /// allowed: re-folding an unchanged row reproduces its bits).
    pub fn from_dense(
        directed: bool,
        new_node_ids: Vec<NodeId>,
        new_to_old: Option<Vec<u32>>,
        touched: Vec<NodeId>,
        src: &[u32],
        dst: &[u32],
        weight: &[f64],
    ) -> CsrEvict {
        if let Some(map) = &new_to_old {
            assert!(
                map.windows(2).all(|w| w[0] < w[1]),
                "new_to_old must be strictly increasing"
            );
        }
        CsrEvict::checked(
            directed,
            new_node_ids,
            new_to_old,
            touched,
            src,
            dst,
            weight,
        )
    }

    /// An eviction against a **first-appearance interned** graph (the
    /// layered temporal graphs), from the caller's re-intern of the
    /// survivors: `new_node_ids` is the surviving edge list's
    /// first-appearance node table (src before dst within each edge, as a
    /// rebuild interns it) and `src`/`dst`/`weight` are the full surviving
    /// columns over it. The remap comes from `graph`'s own index, so it
    /// may permute: a node first interned by an evicted edge moves to its
    /// next surviving appearance. `touched` is as for
    /// [`CsrEvict::from_dense`].
    ///
    /// # Panics
    ///
    /// If the columns do not align, an endpoint lies outside
    /// `new_node_ids`, or a node of `new_node_ids` is unknown to `graph`.
    pub fn from_first_appearance(
        graph: &CsrGraph,
        new_node_ids: Vec<NodeId>,
        touched: Vec<NodeId>,
        src: &[u32],
        dst: &[u32],
        weight: &[f64],
    ) -> CsrEvict {
        let new_to_old = new_node_ids
            .iter()
            .map(|&id| {
                graph
                    .index_of(id)
                    .expect("surviving node known to the graph")
            })
            .collect();
        let directed = graph.is_directed();
        CsrEvict::checked(
            directed,
            new_node_ids,
            Some(new_to_old),
            touched,
            src,
            dst,
            weight,
        )
    }

    /// The shared body of both constructors: column alignment and
    /// endpoint-range checks, then the owned copy of the columns.
    fn checked(
        directed: bool,
        new_node_ids: Vec<NodeId>,
        new_to_old: Option<Vec<u32>>,
        touched: Vec<NodeId>,
        src: &[u32],
        dst: &[u32],
        weight: &[f64],
    ) -> CsrEvict {
        assert_eq!(src.len(), dst.len(), "evict edge columns must align");
        assert_eq!(src.len(), weight.len(), "evict edge columns must align");
        let n_new = new_node_ids.len();
        assert!(n_new <= u32::MAX as usize, "CSR index space is u32");
        for (&s, &d) in src.iter().zip(dst) {
            assert!(
                (s as usize) < n_new && (d as usize) < n_new,
                "evict endpoint outside the new node table"
            );
        }
        if let Some(map) = &new_to_old {
            assert_eq!(map.len(), n_new, "new_to_old must cover every new node");
        }
        for &w in weight {
            debug_assert!(w.is_finite() && w >= 0.0, "invalid weight {w}");
        }
        CsrEvict {
            directed,
            new_node_ids,
            new_to_old,
            touched,
            src: src.to_vec(),
            dst: dst.to_vec(),
            weight: weight.to_vec(),
        }
    }

    /// Whether the eviction targets a directed graph.
    pub fn is_directed(&self) -> bool {
        self.directed
    }

    /// Number of surviving edges.
    pub fn surviving_edge_count(&self) -> usize {
        self.src.len()
    }

    /// The node table after the eviction (dense index = position).
    pub fn new_node_ids(&self) -> &[NodeId] {
        &self.new_node_ids
    }
}

impl CsrGraph {
    /// Remove evicted edges from this frozen graph, producing the frozen
    /// graph of the surviving edge list — **bit-identical to a one-shot
    /// columnar build over the survivors**, at any thread count. See the
    /// [module docs](self) for the contract and why it holds.
    ///
    /// Untouched rows are copied (weights bit-for-bit, targets remapped
    /// through the compaction); touched rows re-fold from their surviving
    /// bucket; `total_weight` re-folds over the full surviving column.
    ///
    /// # Panics
    ///
    /// If the eviction's directedness or node table is incompatible with
    /// this graph, or a touched id is unknown to it.
    pub fn apply_evict(&self, evict: &CsrEvict, threads: Option<usize>) -> CsrGraph {
        assert_eq!(
            self.is_directed(),
            evict.directed,
            "evict directedness mismatch"
        );
        let n_old = self.node_count();
        let n_new = evict.new_node_ids.len();
        match &evict.new_to_old {
            None => {
                assert_eq!(
                    self.node_ids(),
                    &evict.new_node_ids[..],
                    "evict node table must equal the graph's when no node was dropped"
                );
            }
            Some(map) => {
                assert_eq!(map.len(), n_new, "new_to_old must cover every new node");
                for (nu, &ou) in map.iter().enumerate() {
                    assert_eq!(
                        evict.new_node_ids[nu],
                        self.node_ids()[ou as usize],
                        "new_to_old must preserve node ids"
                    );
                }
            }
        }
        let threads = par::thread_count(threads);

        // Old index behind each new row, and the inverse for target
        // remapping (u32::MAX = dropped).
        let mut old_to_new = vec![u32::MAX; n_old];
        match &evict.new_to_old {
            Some(map) => {
                for (nu, &ou) in map.iter().enumerate() {
                    old_to_new[ou as usize] = nu as u32;
                }
            }
            None => {
                for (ou, slot) in old_to_new.iter_mut().enumerate() {
                    *slot = ou as u32;
                }
            }
        }
        // Touched rows in the new index space (a touched node whose last
        // edge expired is simply gone from the new table).
        let mut touched_new = vec![false; n_new];
        for &id in &evict.touched {
            let ou = self.index_of(id).expect("touched id known to the graph");
            let nu = old_to_new[ou as usize];
            if nu != u32::MAX {
                touched_new[nu as usize] = true;
            }
        }

        // The rebuild's total weight is an insertion-order fold over the
        // surviving column — removal invalidates the stored fold's
        // suffixes, so it cannot be continued like the delta path's.
        let mut total_weight = 0.0f64;
        for &w in &evict.weight {
            total_weight += w;
        }

        let new_to_old = evict.new_to_old.as_deref();
        let out_half = half_edges(&evict.src, &evict.dst, &evict.weight, self.is_directed());
        let (offsets, targets, weights, pairs_once) = refold_rows(
            n_new,
            new_to_old,
            &old_to_new,
            &touched_new,
            |ou| self.row(ou),
            self.offsets(),
            &out_half,
            threads,
        );
        let (in_offsets, in_targets, in_weights) = if self.is_directed() {
            let in_half = half_edges(&evict.dst, &evict.src, &evict.weight, true);
            let (io, it, iw, _) = refold_rows(
                n_new,
                new_to_old,
                &old_to_new,
                &touched_new,
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
                node_ids: evict.new_node_ids.clone(),
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

/// Rebuild the row structure after an eviction: touched rows re-fold from
/// their surviving half-edge bucket (the builder's stable-sort + adjacent
/// merge), untouched rows copy their stored merged entries with targets
/// remapped — and re-sorted, which under a permuting remap reproduces the
/// rebuild's sorted order because merged targets are unique per row.
/// Returns `(offsets, targets, weights, pairs_once)` with the same
/// conventions as the full build's row packing.
#[allow(clippy::too_many_arguments)]
fn refold_rows<'g, F>(
    n_new: usize,
    new_to_old: Option<&[u32]>,
    old_to_new: &[u32],
    touched: &[bool],
    old_row: F,
    old_offsets: &[u32],
    half: &HalfEdges,
    threads: usize,
) -> (Vec<u32>, Vec<u32>, Vec<f64>, usize)
where
    F: Fn(usize) -> (&'g [u32], &'g [f64]) + Sync,
{
    let h = half.row.len();
    assert!(h <= u32::MAX as usize, "half-edge space exceeds u32");

    // Bucket the surviving half-edges of the *touched* rows only: a
    // parallel counting pass over fixed uniform chunks (merged in chunk
    // order, as in the full build), then one stable forward scatter so
    // every touched bucket keeps global insertion order.
    let chunks = par::RowChunks::uniform(h, 16);
    let histograms = par::par_map(&chunks, threads, |_, range| {
        let mut counts = vec![0u32; n_new];
        for i in range {
            let r = half.row[i] as usize;
            if touched[r] {
                counts[r] += 1;
            }
        }
        counts
    });
    let mut bucket_offsets = vec![0u32; n_new + 1];
    for counts in &histograms {
        for (u, &c) in counts.iter().enumerate() {
            bucket_offsets[u + 1] += c;
        }
    }
    for u in 0..n_new {
        bucket_offsets[u + 1] += bucket_offsets[u];
    }
    let touched_h = *bucket_offsets.last().unwrap() as usize;
    let mut bucket_col = vec![0u32; touched_h];
    let mut bucket_w = vec![0.0f64; touched_h];
    let mut cursor: Vec<u32> = bucket_offsets[..n_new].to_vec();
    for i in 0..h {
        let r = half.row[i] as usize;
        if !touched[r] {
            continue;
        }
        let p = cursor[r] as usize;
        cursor[r] += 1;
        bucket_col[p] = half.col[i];
        bucket_w[p] = half.weight[i];
    }

    // Provisional per-row entry counts drive the chunk balance; they
    // depend only on the graph and the eviction, never the thread count.
    let mut prov = Vec::with_capacity(n_new + 1);
    prov.push(0u32);
    for u in 0..n_new {
        let len = if touched[u] {
            bucket_offsets[u + 1] - bucket_offsets[u]
        } else {
            let ou = match new_to_old {
                Some(map) => map[u] as usize,
                None => u,
            };
            old_offsets[ou + 1] - old_offsets[ou]
        };
        prov.push(prov[u] + len);
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
            if touched[u] {
                // Re-fold from the surviving bucket: stable sort by
                // target (equal targets keep insertion order), adjacent
                // merge summing in that order — the builder's row merge.
                let lo = bucket_offsets[u] as usize;
                let hi = bucket_offsets[u + 1] as usize;
                scratch.clear();
                scratch.extend(
                    bucket_col[lo..hi]
                        .iter()
                        .copied()
                        .zip(bucket_w[lo..hi].iter().copied()),
                );
                scratch.sort_by_key(|&(col, _)| col);
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
            } else {
                // Untouched row: its surviving bucket equals its original
                // bucket, so the stored merged entries are the rebuild's
                // bits. Copy, remapping targets; a permuting remap
                // unsorts them, so re-sort the (unique-target) pairs.
                let ou = match new_to_old {
                    Some(map) => map[u] as usize,
                    None => u,
                };
                let (ot, ow) = old_row(ou);
                match new_to_old {
                    None => {
                        targets.extend_from_slice(ot);
                        weights.extend_from_slice(ow);
                    }
                    Some(_) => {
                        scratch.clear();
                        scratch.extend(ot.iter().zip(ow).map(|(&c, &w)| {
                            let nc = old_to_new[c as usize];
                            debug_assert!(
                                nc != u32::MAX,
                                "untouched row references a dropped node"
                            );
                            (nc, w)
                        }));
                        scratch.sort_unstable_by_key(|&(col, _)| col);
                        targets.extend(scratch.iter().map(|&(c, _)| c));
                        weights.extend(scratch.iter().map(|&(_, w)| w));
                    }
                }
                let row_tail = &targets[before..];
                pairs_once += row_tail.len() - row_tail.partition_point(|&c| (c as usize) < u);
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

    /// Bit-strict equality between two frozen graphs (the evict contract).
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

    /// Evict every edge whose slot fails `keep`, compacting the sorted
    /// node table to the referenced subset, and compare `apply_evict`
    /// against a one-shot rebuild over the survivors.
    fn check_dense_evict(
        directed: bool,
        node_ids: &[NodeId],
        src: &[u32],
        dst: &[u32],
        w: &[f64],
        keep: impl Fn(usize) -> bool,
    ) {
        let n = node_ids.len();
        let base = build_dense_csr(directed, node_ids.to_vec(), src, dst, w, Some(2));
        let mut touched: Vec<NodeId> = Vec::new();
        let (mut ss, mut sd, mut sw) = (Vec::new(), Vec::new(), Vec::new());
        for k in 0..src.len() {
            if keep(k) {
                ss.push(src[k]);
                sd.push(dst[k]);
                sw.push(w[k]);
            } else {
                touched.push(node_ids[src[k] as usize]);
                touched.push(node_ids[dst[k] as usize]);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        // Compact to referenced nodes (sorted subset → monotone remap).
        let mut referenced = vec![false; n];
        for &e in ss.iter().chain(&sd) {
            referenced[e as usize] = true;
        }
        let mut new_ids = Vec::new();
        let mut new_to_old = Vec::new();
        let mut remap = vec![u32::MAX; n];
        for u in 0..n {
            if referenced[u] {
                remap[u] = new_ids.len() as u32;
                new_to_old.push(u as u32);
                new_ids.push(node_ids[u]);
            }
        }
        for e in ss.iter_mut().chain(&mut sd) {
            *e = remap[*e as usize];
        }
        let dropped_any = new_ids.len() < n;
        let evict = CsrEvict::from_dense(
            directed,
            new_ids.clone(),
            dropped_any.then_some(new_to_old),
            touched,
            &ss,
            &sd,
            &sw,
        );
        assert_eq!(evict.is_directed(), directed);
        assert_eq!(evict.surviving_edge_count(), ss.len());
        assert_eq!(evict.new_node_ids(), &new_ids[..]);
        let want = build_dense_csr(directed, new_ids, &ss, &sd, &sw, Some(1));
        for threads in [1usize, 2, 4] {
            assert_identical(&base.apply_evict(&evict, Some(threads)), &want);
        }
    }

    #[test]
    fn dense_evict_matches_rebuild_over_survivors() {
        let node_ids: Vec<NodeId> = (0..60).map(|i| 5 * i + 2).collect();
        let (src, dst, w) = random_edges(60, 500, 11);
        for directed in [false, true] {
            // Drop roughly a third of the edges.
            check_dense_evict(directed, &node_ids, &src, &dst, &w, |k| k % 3 != 0);
        }
    }

    #[test]
    fn dense_evict_everything_leaves_an_empty_graph() {
        let node_ids: Vec<NodeId> = (0..10).collect();
        let (src, dst, w) = random_edges(10, 40, 3);
        for directed in [false, true] {
            check_dense_evict(directed, &node_ids, &src, &dst, &w, |_| false);
        }
    }

    #[test]
    fn dense_evict_nothing_reproduces_the_graph() {
        let node_ids: Vec<NodeId> = (0..12).collect();
        let (src, dst, w) = random_edges(12, 80, 17);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            let evict =
                CsrEvict::from_dense(directed, node_ids.clone(), None, Vec::new(), &src, &dst, &w);
            assert_identical(&base.apply_evict(&evict, Some(3)), &base);
        }
    }

    #[test]
    fn pinned_evict_keeps_isolated_rows() {
        // Node 2's only edge is evicted but the table is pinned: its row
        // must survive, empty — like a rebuild seeded with the full set.
        let node_ids: Vec<NodeId> = vec![10, 20, 30];
        let src = [0u32, 2, 0];
        let dst = [1u32, 0, 1];
        let w = [1.0, 2.0, 0.5];
        let base = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, Some(1));
        let evict = CsrEvict::from_dense(
            false,
            node_ids.clone(),
            None,
            vec![30, 10],
            &[0, 0],
            &[1, 1],
            &[1.0, 0.5],
        );
        let got = base.apply_evict(&evict, Some(2));
        let want = build_dense_csr(false, node_ids, &[0, 0], &[1, 1], &[1.0, 0.5], Some(1));
        assert_identical(&got, &want);
        assert_eq!(got.degree(2), 0);
    }

    /// Intern an id edge list by first appearance (src before dst within
    /// each edge): the node table and the dense columns over it.
    fn first_appearance(edges: &[(NodeId, NodeId, f64)]) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
        let mut ids: Vec<NodeId> = Vec::new();
        let mut intern = |id: NodeId| match ids.iter().position(|&x| x == id) {
            Some(i) => i as u32,
            None => {
                ids.push(id);
                (ids.len() - 1) as u32
            }
        };
        let (src, dst) = edges
            .iter()
            .map(|&(s, d, _)| (intern(s), intern(d)))
            .unzip();
        (ids, src, dst)
    }

    #[test]
    fn first_appearance_evict_matches_builder_rebuild_with_permuted_intern() {
        // Node 5 is first interned by the first (evicted) edge and only
        // referenced again later: the rebuild's table permutes. Node 9
        // disappears entirely.
        let edges = [
            (5u64, 9u64, 1.5), // evicted — 5's and 9's first appearance
            (7, 8, 2.0),
            (8, 5, 0.25), // re-interns 5 after 7 and 8
            (7, 7, 1.0),
        ];
        for directed in [false, true] {
            let mk = |list: &[(u64, u64, f64)]| {
                let mut b = if directed {
                    CsrBuilder::directed()
                } else {
                    CsrBuilder::undirected()
                };
                for &(s, d, w) in list {
                    b.push(s, d, w);
                }
                b.build()
            };
            let base = mk(&edges);
            let survivors = &edges[1..];
            let want = mk(survivors);
            assert_eq!(want.node_ids(), &[7, 8, 5]);
            let (ids, src, dst) = first_appearance(survivors);
            let w: Vec<f64> = survivors.iter().map(|e| e.2).collect();
            let evict = CsrEvict::from_first_appearance(&base, ids, vec![5, 9], &src, &dst, &w);
            for threads in [1usize, 2, 4] {
                assert_identical(&base.apply_evict(&evict, Some(threads)), &want);
            }
        }
    }

    #[test]
    fn first_appearance_evict_of_everything_empties_the_graph() {
        let mut b = CsrBuilder::undirected();
        b.push(1, 2, 1.0);
        b.push(2, 3, 2.0);
        let base = b.build();
        let evict =
            CsrEvict::from_first_appearance(&base, Vec::new(), vec![1, 2, 3], &[], &[], &[]);
        let got = base.apply_evict(&evict, Some(2));
        assert!(got.is_empty());
        assert_eq!(got.total_weight(), 0.0);
        assert_identical(&got, &CsrBuilder::undirected().build());
    }

    #[test]
    #[should_panic(expected = "outside the new node table")]
    fn first_appearance_endpoint_outside_the_table_panics() {
        let base = build_dense_csr(false, vec![1, 2], &[0], &[1], &[1.0], Some(1));
        CsrEvict::from_first_appearance(&base, vec![2], Vec::new(), &[0], &[1], &[1.0]);
    }

    #[test]
    fn evict_chain_matches_one_shot_rebuild() {
        // Alternate evictions at several thread counts: always equal to
        // the rebuild over the current survivors, bitwise.
        let node_ids: Vec<NodeId> = (0..32).map(|i| i * 2 + 1).collect();
        let (src, dst, w) = random_edges(32, 240, 77);
        let mut alive: Vec<usize> = (0..src.len()).collect();
        let mut g = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, Some(2));
        let mut ids = node_ids.clone();
        for round in 0..3usize {
            let dropped: Vec<usize> = alive.iter().copied().filter(|k| k % 5 == round).collect();
            alive.retain(|k| k % 5 != round);
            let mut touched: Vec<NodeId> = dropped
                .iter()
                .flat_map(|&k| [node_ids[src[k] as usize], node_ids[dst[k] as usize]])
                .collect();
            touched.sort_unstable();
            touched.dedup();
            // Survivor columns in the compacted space.
            let mut referenced = vec![false; ids.len()];
            let idx = |id: NodeId, table: &[NodeId]| {
                table.binary_search(&id).expect("sorted table") as u32
            };
            for &k in &alive {
                referenced[idx(node_ids[src[k] as usize], &ids) as usize] = true;
                referenced[idx(node_ids[dst[k] as usize], &ids) as usize] = true;
            }
            let mut new_ids = Vec::new();
            let mut new_to_old = Vec::new();
            for (u, &id) in ids.iter().enumerate() {
                if referenced[u] {
                    new_to_old.push(u as u32);
                    new_ids.push(id);
                }
            }
            let (mut ss, mut sd, mut sw) = (Vec::new(), Vec::new(), Vec::new());
            for &k in &alive {
                ss.push(idx(node_ids[src[k] as usize], &new_ids));
                sd.push(idx(node_ids[dst[k] as usize], &new_ids));
                sw.push(w[k]);
            }
            let evict = CsrEvict::from_dense(
                true,
                new_ids.clone(),
                (new_ids.len() < ids.len()).then_some(new_to_old),
                touched,
                &ss,
                &sd,
                &sw,
            );
            g = g.apply_evict(&evict, Some(round + 1));
            let want = build_dense_csr(true, new_ids.clone(), &ss, &sd, &sw, Some(1));
            assert_identical(&g, &want);
            ids = new_ids;
        }
    }

    #[test]
    #[should_panic(expected = "directedness")]
    fn mismatched_directedness_panics() {
        let base = build_dense_csr(true, vec![1, 2], &[0], &[1], &[1.0], Some(1));
        let evict = CsrEvict::from_dense(false, vec![1, 2], None, Vec::new(), &[], &[], &[]);
        base.apply_evict(&evict, None);
    }

    #[test]
    #[should_panic(expected = "node table")]
    fn incompatible_node_table_panics() {
        let base = build_dense_csr(true, vec![1, 2], &[0], &[1], &[1.0], Some(1));
        let evict = CsrEvict::from_dense(true, vec![2, 1], None, Vec::new(), &[], &[], &[]);
        base.apply_evict(&evict, None);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn non_monotone_dense_map_panics() {
        CsrEvict::from_dense(
            false,
            vec![1, 2],
            Some(vec![1, 0]),
            Vec::new(),
            &[],
            &[],
            &[],
        );
    }
}
