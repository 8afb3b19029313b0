//! Incremental CSR eviction — removing expired edges from a frozen graph.
//!
//! [`CsrDelta`](crate::CsrDelta) is the *addition* arm of the delta
//! lifecycle; this module is the subtraction arm a sliding window needs.
//! [`CsrGraph::apply_evict`] takes the evicted edges themselves and
//! subtracts each from the merged entry that holds it.
//!
//! ## Why subtraction is exact
//!
//! A merged weight is a fold of its half-edges' weights, and
//! floating-point addition cannot in general be undone. Over integers it
//! can: every integer up to 2^53 is an `f64`, so a sum of integers that
//! stays within that range is exact in any order, and taking one term
//! back out leaves exactly the sum of the rest. Evicted weights are
//! therefore integers from 1 to [`MAX_EVICT_WEIGHT`] (2^20), the domain
//! `moby_data`'s trip table enforces on every row, and the graph must hold
//! sums of such weights.
//!
//! The cap keeps every sum in range. A buildable graph has at most
//! `u32::MAX` half-edges, so a merged entry, a strength or the total
//! weight is at most 2^32 × 2^20 = 2^52, and a weighted degree, which
//! counts a self-loop twice, at most 2 × 2^52 = 2^53. Hence:
//!
//! * an entry minus its evicted weights is, bit for bit, the rebuild's
//!   fold over the surviving half-edges;
//! * an entry that reaches 0 has no surviving half-edge (every weight is
//!   at least 1), so it is dropped, as the rebuild never creates it;
//! * [`total_weight`](CsrGraph::total_weight) is the old total minus the
//!   evicted sum, and the cached degrees re-sweep the new rows exactly as
//!   a build does.
//!
//! So **`apply_evict` output is bit-identical to a one-shot columnar
//! build over the surviving edge list**, at any thread count and against
//! bases built at any shard count or spill budget. The windowed
//! differential suite (`crates/core/tests/proptest_window.rs`) enforces
//! it end to end.
//!
//! ## Node tables
//!
//! The caller passes the node table *after* the eviction, and the graph
//! maps it through its own index, so one entry point covers every kind
//! of table. A pinned table is unchanged. A sorted dense intern (the trip
//! table's stations) compacts to a sorted subset, a monotone remap. A
//! first-appearance intern (the layered temporal graphs) can permute: a
//! node first interned by an evicted edge but still referenced later
//! *moves* to its next surviving appearance, so the caller re-runs its
//! intern over the survivors. Rows then remap their targets and re-sort
//! them, which reproduces the rebuild's sorted rows because a merged
//! weight does not depend on the order of the row's *other* targets.

use crate::build::half_edges;
use crate::csr::CsrParts;
use crate::{par, CsrGraph, GraphError, NodeId, Result};

/// The largest weight an evicted edge may carry: 2^20, the cap
/// `moby_data::trips::MAX_TRIP_WEIGHT` puts on a trip. With it every
/// merged entry, degree and total of a buildable graph stays an exact
/// `f64` integer (see the [module docs](self)).
pub const MAX_EVICT_WEIGHT: f64 = 1_048_576.0;

impl CsrGraph {
    /// Remove evicted edges from this frozen graph, producing the frozen
    /// graph of the surviving edge list — **bit-identical to a one-shot
    /// columnar build over the survivors**, at any thread count, when the
    /// graph was built from integer weights. See the [module docs](self)
    /// for why.
    ///
    /// `new_node_ids` is the node table after the eviction, in the order
    /// a rebuild would intern it; every node must be one of this graph's.
    /// Edge `k` runs from `evicted_src[k]` to `evicted_dst[k]` (external
    /// ids) with weight `evicted_weight[k]`, an integer from 1 to
    /// [`MAX_EVICT_WEIGHT`]. Each evicted half-edge is subtracted from its
    /// entry, found by binary search in the sorted row; entries that reach
    /// 0 are dropped, and the survivors' targets are remapped into the
    /// new table.
    ///
    /// # Errors
    ///
    /// [`GraphError::InvalidWeight`] for an evicted weight outside the
    /// domain; [`GraphError::EdgeNotHeld`] for an evicted edge the graph
    /// does not hold, or more weight than an entry carries;
    /// [`GraphError::NodeTable`] when `new_node_ids` names a node the
    /// graph does not hold or names one twice, or leaves out a node that
    /// keeps a surviving edge.
    ///
    /// # Panics
    ///
    /// If the three evicted columns differ in length, or their
    /// half-edges exceed the `u32` index space no buildable graph
    /// exceeds.
    pub fn apply_evict(
        &self,
        new_node_ids: Vec<NodeId>,
        evicted_src: &[NodeId],
        evicted_dst: &[NodeId],
        evicted_weight: &[f64],
        threads: Option<usize>,
    ) -> Result<CsrGraph> {
        assert_eq!(
            evicted_src.len(),
            evicted_dst.len(),
            "evicted columns must align"
        );
        assert_eq!(
            evicted_src.len(),
            evicted_weight.len(),
            "evicted columns must align"
        );
        let threads = par::thread_count(threads);
        let n_old = self.node_count();

        // The old row behind each new one (`None`: the table is unchanged)
        // and the inverse for target remapping (u32::MAX = dropped).
        let new_to_old = if new_node_ids == self.node_ids() {
            None
        } else {
            Some(
                new_node_ids
                    .iter()
                    .map(|&id| self.index_of(id).ok_or(GraphError::NodeTable(id)))
                    .collect::<Result<Vec<u32>>>()?,
            )
        };
        let mut old_to_new: Vec<u32> = (0..n_old as u32).collect();
        if let Some(map) = &new_to_old {
            old_to_new.fill(u32::MAX);
            for (nu, &ou) in map.iter().enumerate() {
                if old_to_new[ou as usize] != u32::MAX {
                    return Err(GraphError::NodeTable(new_node_ids[nu]));
                }
                old_to_new[ou as usize] = nu as u32;
            }
        }

        // The evicted edges in the old index space.
        let (mut src, mut dst) = (Vec::new(), Vec::new());
        let mut evicted_total = 0.0f64;
        for k in 0..evicted_src.len() {
            let w = evicted_weight[k];
            if !(1.0..=MAX_EVICT_WEIGHT).contains(&w) || w.fract() != 0.0 {
                return Err(GraphError::InvalidWeight(w));
            }
            let not_held = || GraphError::EdgeNotHeld {
                src: evicted_src[k],
                dst: evicted_dst[k],
            };
            src.push(self.index_of(evicted_src[k]).ok_or_else(not_held)?);
            dst.push(self.index_of(evicted_dst[k]).ok_or_else(not_held)?);
            evicted_total += w;
        }

        let remap = Remap {
            node_ids: self.node_ids(),
            new_to_old: new_to_old.as_deref(),
            old_to_new: &old_to_new,
            sorted: new_to_old
                .as_deref()
                .is_none_or(|map| map.windows(2).all(|w| w[0] < w[1])),
        };
        let out_half = half_edges(&src, &dst, evicted_weight, self.is_directed());
        let (offsets, targets, weights, pairs_once) = remap.subtract_rows(
            |ou| self.row(ou),
            self.offsets(),
            (&out_half.row, &out_half.col, &out_half.weight),
            false,
            threads,
        )?;
        let (in_offsets, in_targets, in_weights) = if self.is_directed() {
            let (io, it, iw, _) = remap.subtract_rows(
                |ou| self.in_row(ou),
                self.in_offsets(),
                (&dst, &src, evicted_weight),
                true,
                threads,
            )?;
            (io, it, iw)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        let edge_count = if self.is_directed() {
            targets.len()
        } else {
            pairs_once
        };

        Ok(CsrGraph::from_parts(
            CsrParts {
                directed: self.is_directed(),
                node_ids: new_node_ids,
                offsets,
                targets,
                weights,
                in_offsets,
                in_targets,
                in_weights,
                edge_count,
                total_weight: self.total_weight() - evicted_total,
            },
            threads,
        ))
    }
}

/// How an eviction's new node table relates to the graph's old one.
struct Remap<'a> {
    /// The old node table.
    node_ids: &'a [NodeId],
    /// The old row behind each new row; `None` when the table is
    /// unchanged.
    new_to_old: Option<&'a [u32]>,
    /// The new index of each old row; `u32::MAX` when it was dropped.
    old_to_new: &'a [u32],
    /// Whether the remap keeps the old order, so rows stay sorted.
    sorted: bool,
}

impl Remap<'_> {
    /// Subtract evicted half-edges `(row, col, weight)`, in the old index
    /// space, from the rows of one adjacency half, and pack the surviving
    /// entries into new rows. `in_rows` marks the in-adjacency, whose
    /// half-edges run from `col` to `row`. Returns
    /// `(offsets, targets, weights, pairs_once)` with the conventions of
    /// the full build's row packing.
    fn subtract_rows<'g, F>(
        &self,
        old_row: F,
        old_offsets: &[u32],
        (row, col, weight): (&[u32], &[u32], &[f64]),
        in_rows: bool,
        threads: usize,
    ) -> Result<(Vec<u32>, Vec<u32>, Vec<f64>, usize)>
    where
        F: Fn(usize) -> (&'g [u32], &'g [f64]) + Sync,
    {
        let n_old = self.old_to_new.len();
        assert!(
            row.len() <= u32::MAX as usize,
            "evicted half-edges exceed the u32 index space"
        );
        let not_held = |u: usize, c: u32| {
            let (a, b) = (self.node_ids[u], self.node_ids[c as usize]);
            let (src, dst) = if in_rows { (b, a) } else { (a, b) };
            GraphError::EdgeNotHeld { src, dst }
        };

        // Bucket the evicted half-edges by old row: counting pass, then a
        // stable scatter.
        let mut bucket_offsets = vec![0u32; n_old + 1];
        for &r in row {
            bucket_offsets[r as usize + 1] += 1;
        }
        for u in 0..n_old {
            bucket_offsets[u + 1] += bucket_offsets[u];
        }
        let mut bucket_col = vec![0u32; row.len()];
        let mut bucket_w = vec![0.0f64; row.len()];
        let mut cursor: Vec<u32> = bucket_offsets[..n_old].to_vec();
        for i in 0..row.len() {
            let p = cursor[row[i] as usize] as usize;
            cursor[row[i] as usize] += 1;
            bucket_col[p] = col[i];
            bucket_w[p] = weight[i];
        }
        let bucket = |ou: usize| {
            let (lo, hi) = (bucket_offsets[ou] as usize, bucket_offsets[ou + 1] as usize);
            (&bucket_col[lo..hi], &bucket_w[lo..hi])
        };

        // A dropped row must lose every entry.
        let mut survivors = Vec::new();
        for ou in (0..n_old).filter(|&ou| self.old_to_new[ou] == u32::MAX) {
            let (ot, ow) = old_row(ou);
            subtract_row(ot, ow, bucket(ou), &mut survivors).map_err(|c| not_held(ou, c))?;
            if !survivors.is_empty() {
                return Err(GraphError::NodeTable(self.node_ids[ou]));
            }
        }

        // The old row lengths, in new row order, balance the chunks; they
        // depend only on the graph and the eviction, never the thread
        // count.
        let old_of = |nu: usize| self.new_to_old.map_or(nu, |map| map[nu] as usize);
        let n_new = self.new_to_old.map_or(n_old, <[u32]>::len);
        let mut prov = Vec::with_capacity(n_new + 1);
        prov.push(0u32);
        for nu in 0..n_new {
            let ou = old_of(nu);
            prov.push(prov[nu] + old_offsets[ou + 1] - old_offsets[ou]);
        }

        let row_chunks = par::RowChunks::balanced(&prov, 64, 4096);
        let packed = par::par_map(&row_chunks, threads, |_, range| {
            let mut targets = Vec::new();
            let mut weights = Vec::new();
            let mut lens = Vec::with_capacity(range.len());
            let mut pairs_once = 0usize;
            let mut survivors: Vec<(u32, f64)> = Vec::new();
            for nu in range {
                let before = targets.len();
                let ou = old_of(nu);
                let (ot, ow) = old_row(ou);
                let evicted = bucket(ou);
                if evicted.0.is_empty() && self.new_to_old.is_none() {
                    targets.extend_from_slice(ot);
                    weights.extend_from_slice(ow);
                } else {
                    subtract_row(ot, ow, evicted, &mut survivors).map_err(|c| not_held(ou, c))?;
                    for entry in &mut survivors {
                        match self.old_to_new[entry.0 as usize] {
                            u32::MAX => {
                                return Err(GraphError::NodeTable(self.node_ids[entry.0 as usize]))
                            }
                            nc => entry.0 = nc,
                        }
                    }
                    if !self.sorted {
                        survivors.sort_unstable_by_key(|&(c, _)| c);
                    }
                    targets.extend(survivors.iter().map(|&(c, _)| c));
                    weights.extend(survivors.iter().map(|&(_, w)| w));
                }
                let row_tail = &targets[before..];
                pairs_once += row_tail.len() - row_tail.partition_point(|&c| (c as usize) < nu);
                lens.push((targets.len() - before) as u32);
            }
            Ok((targets, weights, lens, pairs_once))
        });

        let mut offsets = Vec::with_capacity(n_new + 1);
        offsets.push(0u32);
        let mut targets = Vec::with_capacity(prov[n_new] as usize);
        let mut weights = Vec::with_capacity(prov[n_new] as usize);
        let (mut end, mut pairs_once) = (0u32, 0usize);
        for chunk in packed {
            let (t, w, lens, pairs) = chunk?;
            for len in lens {
                end += len;
                offsets.push(end);
            }
            targets.extend(t);
            weights.extend(w);
            pairs_once += pairs;
        }
        Ok((offsets, targets, weights, pairs_once))
    }
}

/// Subtract one row's evicted `(target, weight)` half-edges from its
/// stored entries (targets sorted, so each entry is a binary search
/// away), leaving the entries that stay above 0 in `survivors`. Errs with
/// the target of a half-edge the row does not hold, or holds less of.
fn subtract_row(
    targets: &[u32],
    weights: &[f64],
    (evicted_col, evicted_w): (&[u32], &[f64]),
    survivors: &mut Vec<(u32, f64)>,
) -> std::result::Result<(), u32> {
    survivors.clear();
    survivors.extend(targets.iter().copied().zip(weights.iter().copied()));
    for (&c, &w) in evicted_col.iter().zip(evicted_w) {
        let at = targets.binary_search(&c).map_err(|_| c)?;
        survivors[at].1 -= w;
        if survivors[at].1 < 0.0 {
            return Err(c);
        }
    }
    survivors.retain(|&(_, w)| w > 0.0);
    Ok(())
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

    /// Pseudo-random dense edge columns over `n` nodes, with integer
    /// weights from 1 to 5.
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
            w.push(((x >> 3) % 5 + 1) as f64);
        }
        (src, dst, w)
    }

    /// The evicted edges `k` of dense columns over `node_ids`, as the
    /// external-id columns `apply_evict` takes.
    fn evicted_columns(
        node_ids: &[NodeId],
        src: &[u32],
        dst: &[u32],
        w: &[f64],
        evicted: impl Iterator<Item = usize>,
    ) -> (Vec<NodeId>, Vec<NodeId>, Vec<f64>) {
        let (mut es, mut ed, mut ew) = (Vec::new(), Vec::new(), Vec::new());
        for k in evicted {
            es.push(node_ids[src[k] as usize]);
            ed.push(node_ids[dst[k] as usize]);
            ew.push(w[k]);
        }
        (es, ed, ew)
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
        let (es, ed, ew) =
            evicted_columns(node_ids, src, dst, w, (0..src.len()).filter(|&k| !keep(k)));
        let (mut ss, mut sd, mut sw) = (Vec::new(), Vec::new(), Vec::new());
        for k in (0..src.len()).filter(|&k| keep(k)) {
            ss.push(src[k]);
            sd.push(dst[k]);
            sw.push(w[k]);
        }
        // Compact to referenced nodes (sorted subset → monotone remap).
        let mut referenced = vec![false; n];
        for &e in ss.iter().chain(&sd) {
            referenced[e as usize] = true;
        }
        let mut new_ids = Vec::new();
        let mut remap = vec![u32::MAX; n];
        for u in 0..n {
            if referenced[u] {
                remap[u] = new_ids.len() as u32;
                new_ids.push(node_ids[u]);
            }
        }
        for e in ss.iter_mut().chain(&mut sd) {
            *e = remap[*e as usize];
        }
        let want = build_dense_csr(directed, new_ids.clone(), &ss, &sd, &sw, Some(1));
        for threads in [1usize, 2, 4] {
            let got = base
                .apply_evict(new_ids.clone(), &es, &ed, &ew, Some(threads))
                .unwrap();
            assert_identical(&got, &want);
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
            let got = base
                .apply_evict(node_ids.clone(), &[], &[], &[], Some(3))
                .unwrap();
            assert_identical(&got, &base);
        }
    }

    #[test]
    fn pinned_evict_keeps_isolated_rows() {
        // Node 30's only edge is evicted but the table is pinned: its row
        // must survive, empty — like a rebuild seeded with the full set.
        let node_ids: Vec<NodeId> = vec![10, 20, 30];
        let src = [0u32, 2, 0];
        let dst = [1u32, 0, 1];
        let w = [1.0, 2.0, 3.0];
        let base = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, Some(1));
        let got = base
            .apply_evict(node_ids.clone(), &[30], &[10], &[2.0], Some(2))
            .unwrap();
        let want = build_dense_csr(false, node_ids, &[0, 0], &[1, 1], &[1.0, 3.0], Some(1));
        assert_identical(&got, &want);
        assert_eq!(got.degree(2), 0);
    }

    #[test]
    fn partial_eviction_of_a_merged_entry_keeps_the_rest() {
        // Edge 10–20 merges weights 1, 4 and 5; evicting the 4 leaves 6.
        let node_ids: Vec<NodeId> = vec![10, 20];
        let (src, dst, w) = ([0u32, 1, 0], [1u32, 0, 1], [1.0, 4.0, 5.0]);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(1));
            let got = base
                .apply_evict(node_ids.clone(), &[20], &[10], &[4.0], Some(1))
                .unwrap();
            let want = build_dense_csr(
                directed,
                node_ids.clone(),
                &[0, 0],
                &[1, 1],
                &[1.0, 5.0],
                Some(1),
            );
            assert_identical(&got, &want);
        }
    }

    #[test]
    fn weights_at_the_cap_subtract_exactly() {
        // Merged entries far above 2^20 still subtract to the rebuild.
        let node_ids: Vec<NodeId> = vec![1, 2];
        let m = 40;
        let (src, dst, w) = (vec![0u32; m], vec![1u32; m], vec![MAX_EVICT_WEIGHT; m]);
        let base = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, Some(1));
        let got = base
            .apply_evict(
                node_ids.clone(),
                &[1; 15],
                &[2; 15],
                &[MAX_EVICT_WEIGHT; 15],
                Some(1),
            )
            .unwrap();
        let want = build_dense_csr(false, node_ids, &src[15..], &dst[15..], &w[15..], Some(1));
        assert_identical(&got, &want);
        assert_eq!(got.total_weight(), 25.0 * MAX_EVICT_WEIGHT);
    }

    #[test]
    fn first_appearance_evict_matches_builder_rebuild_with_permuted_intern() {
        // Node 5 is first interned by the first (evicted) edge and only
        // referenced again later: the rebuild's table permutes. Node 9
        // disappears entirely.
        let edges = [
            (5u64, 9u64, 2.0), // evicted — 5's and 9's first appearance
            (7, 8, 2.0),
            (8, 5, 3.0), // re-interns 5 after 7 and 8
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
            let want = mk(&edges[1..]);
            assert_eq!(want.node_ids(), &[7, 8, 5]);
            for threads in [1usize, 2, 4] {
                let got = base
                    .apply_evict(vec![7, 8, 5], &[5], &[9], &[2.0], Some(threads))
                    .unwrap();
                assert_identical(&got, &want);
            }
        }
    }

    #[test]
    fn first_appearance_evict_of_everything_empties_the_graph() {
        let mut b = CsrBuilder::undirected();
        b.push(1, 2, 1.0);
        b.push(2, 3, 2.0);
        let base = b.build();
        let got = base
            .apply_evict(Vec::new(), &[1, 2], &[2, 3], &[1.0, 2.0], Some(2))
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(got.total_weight(), 0.0);
        assert_identical(&got, &CsrBuilder::undirected().build());
    }

    #[test]
    fn evict_chain_matches_one_shot_rebuild() {
        // Alternate evictions at several thread counts: always equal to
        // the rebuild over the current survivors, bitwise.
        let node_ids: Vec<NodeId> = (0..32).map(|i| i * 2 + 1).collect();
        let (src, dst, w) = random_edges(32, 240, 77);
        let mut alive: Vec<usize> = (0..src.len()).collect();
        let mut g = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, Some(2));
        for round in 0..3usize {
            let dropped: Vec<usize> = alive.iter().copied().filter(|k| k % 5 == round).collect();
            alive.retain(|k| k % 5 != round);
            // The referenced subset of the sorted table, and the survivor
            // columns over it.
            let mut new_ids: Vec<NodeId> = alive
                .iter()
                .flat_map(|&k| [node_ids[src[k] as usize], node_ids[dst[k] as usize]])
                .collect();
            new_ids.sort_unstable();
            new_ids.dedup();
            let idx = |u: u32| new_ids.binary_search(&node_ids[u as usize]).unwrap() as u32;
            let ss: Vec<u32> = alive.iter().map(|&k| idx(src[k])).collect();
            let sd: Vec<u32> = alive.iter().map(|&k| idx(dst[k])).collect();
            let sw: Vec<f64> = alive.iter().map(|&k| w[k]).collect();
            let (es, ed, ew) = evicted_columns(&node_ids, &src, &dst, &w, dropped.into_iter());
            g = g
                .apply_evict(new_ids.clone(), &es, &ed, &ew, Some(round + 1))
                .unwrap();
            let want = build_dense_csr(true, new_ids, &ss, &sd, &sw, Some(1));
            assert_identical(&g, &want);
        }
    }

    #[test]
    fn weights_outside_the_domain_are_rejected() {
        let base = build_dense_csr(false, vec![1, 2], &[0], &[1], &[3.0], Some(1));
        for w in [
            0.5,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            MAX_EVICT_WEIGHT + 1.0,
        ] {
            let err = base
                .apply_evict(vec![1, 2], &[1], &[2], &[w], None)
                .unwrap_err();
            assert!(
                matches!(err, GraphError::InvalidWeight(got) if got.to_bits() == w.to_bits()),
                "{w}: {err:?}"
            );
        }
    }

    #[test]
    fn evicting_what_the_graph_does_not_hold_is_an_error() {
        let base = build_dense_csr(true, vec![1, 2, 3], &[0], &[1], &[2.0], Some(1));
        let not_held = |src, dst| GraphError::EdgeNotHeld { src, dst };
        // An unknown endpoint, a missing edge, the reverse of a directed
        // edge, and more weight than the entry carries.
        for (s, d, w) in [(1, 4, 1.0), (1, 3, 1.0), (2, 1, 1.0), (1, 2, 3.0)] {
            let got = base.apply_evict(vec![1, 2, 3], &[s], &[d], &[w], None);
            assert_eq!(got, Err(not_held(s, d)));
        }
        // Two evictions that together overdraw the entry.
        let got = base.apply_evict(vec![1, 2, 3], &[1, 1], &[2, 2], &[1.0, 2.0], None);
        assert_eq!(got, Err(not_held(1, 2)));
    }

    #[test]
    fn node_tables_that_do_not_fit_are_rejected() {
        let base = build_dense_csr(false, vec![1, 2, 3], &[0, 1], &[1, 2], &[1.0, 1.0], Some(1));
        let evict = |ids: Vec<NodeId>| base.apply_evict(ids, &[1], &[2], &[1.0], None);
        // An unknown node, a repeated node, and a dropped node (3) whose
        // edge to 2 survives.
        assert_eq!(evict(vec![2, 3, 4]), Err(GraphError::NodeTable(4)));
        assert_eq!(evict(vec![2, 3, 2]), Err(GraphError::NodeTable(2)));
        assert_eq!(evict(vec![1, 2]), Err(GraphError::NodeTable(3)));
        assert!(evict(vec![2, 3]).is_ok());
    }
}
