//! The window kernel — the one incremental update of a frozen graph.
//!
//! A live graph changes a step at a time: the rows of a sliding window's
//! expired slot leave and a batch of fresh rows arrives. Either side may
//! be empty, so a plain ingest is a step that evicts nothing.
//! [`CsrGraph::apply_window`] takes one step's evicted and appended edges
//! as dense indices and writes the next frozen graph in **one merge pass
//! per adjacency**. Each new row is its old row minus its evicted
//! half-edges, remapped into the new node table and merged with its
//! appended half-edges. The result is **bit-identical to a one-shot
//! columnar build over the edge list after the step**, at any thread
//! count and against bases built at any shard count or spill budget.
//!
//! ## Why one pass is exact
//!
//! A merged weight is a fold of its half-edges' weights, and
//! floating-point addition cannot in general be undone. Over integers it
//! can: every integer up to 2^53 is an `f64`, so a sum of integers that
//! stays within that range is exact in any order, and taking one term
//! back out leaves exactly the sum of the rest. Every weight a step
//! evicts or appends is therefore an integer from 1 to
//! [`MAX_EVICT_WEIGHT`] (2^20), the domain `moby_data`'s trip table
//! enforces on every row, and the graph must hold sums of such weights.
//!
//! The cap keeps every sum in range. A buildable graph has at most
//! `u32::MAX` half-edges, so a merged entry, a strength or the total
//! weight is at most 2^32 × 2^20 = 2^52, and a weighted degree, which
//! counts a self-loop twice, at most 2 × 2^52 = 2^53. Hence, whatever
//! order the subtractions and additions run in:
//!
//! * an entry minus its evicted weights plus its appended weights is, bit
//!   for bit, the rebuild's fold over the entry's half-edges after the
//!   step;
//! * an entry that reaches 0 has no half-edge left (every weight is at
//!   least 1), so it is dropped, as the rebuild never creates it;
//! * [`total_weight`](CsrGraph::total_weight) is the old total minus the
//!   evicted weights plus the appended ones.
//!
//! ## Node tables
//!
//! The caller passes the node table after the step and an old→new index
//! map: `None` keeps the table, otherwise any injective map with
//! `u32::MAX` for a dropped node, and new nodes may sit anywhere in the
//! new table. One entry point thus covers every table a caller keeps. A
//! pinned table (the selected network's stations) passes `None`. A sorted
//! intern (a trip table's stations) maps monotonely, shifting old nodes
//! past new ones or compacting them. A first-appearance intern (the
//! layered temporal graphs) can permute: a node first interned by an
//! evicted row but referenced later *moves* to its next appearance,
//! possibly behind a brand-new node.
//!
//! A rebuild's row holds one entry per target, sorted by target, each
//! weighing the exact sum of its half-edges. After subtracting, dropping
//! and remapping, a row holds exactly those survivors with the same
//! weights, since a merged weight does not depend on where the row's
//! *other* targets sit. A set of distinct targets has one sorted order,
//! so a remapped row already in order is the rebuild's row, and one out
//! of order becomes it by a sort. The kernel re-sorts only the rows that
//! came out of order; a monotone map never produces one. Merging the
//! appended bucket, ordered by the build's own row order, keeps the
//! row sorted.
//!
//! ## Degree caches
//!
//! A row with no evicted and no appended entry holds the same entries as
//! before (at most re-sorted), so its cached `strength`,
//! `weighted_degree` and `self_loop` are the same integer sums and are
//! copied. Only touched rows sweep their degrees, through the same
//! row sweep a build runs. `edge_count` is counted from the new
//! rows.
//!
//! A step's evicted and appended half-edges are bucketed by row through
//! the build's own counting pass and stable scatter (`RowBuckets`), so
//! each bucket lists its half-edges in the order a build would.
//! Rows run on fixed [`par::RowChunks`], balanced by each new row's old
//! length plus its appended half-edges, and each chunk's rows are copied
//! once, onto the end of the new graph's columns. Chunk boundaries
//! depend only on the graph and the step, so the bits never depend on the
//! thread count. The kernel's own unit tests, `tests/proptest_window_kernel.rs`
//! and the windowed suites of `moby_core` enforce the contract.

use crate::build::{key_pos, key_target, sort_row, RowBuckets};
use crate::csr::{row_degrees, CsrParts, Degrees};
use crate::{par, CsrGraph, GraphError, NodeId, Result};

/// The largest weight a window step may evict or append: 2^20, the cap
/// `moby_data::trips::MAX_TRIP_WEIGHT` puts on a trip. With it every
/// merged entry, degree and total of a buildable graph stays an exact
/// `f64` integer (see the [module docs](self)).
pub const MAX_EVICT_WEIGHT: f64 = 1_048_576.0;

/// One side of a window step: dense edge columns, edge `k` running from
/// `src[k]` to `dst[k]` with weight `weight[k]`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdgeColumns<'a> {
    src: &'a [u32],
    dst: &'a [u32],
    weight: &'a [f64],
}

impl<'a> EdgeColumns<'a> {
    /// Borrow three aligned columns.
    ///
    /// # Panics
    ///
    /// If the columns differ in length.
    pub fn new(src: &'a [u32], dst: &'a [u32], weight: &'a [f64]) -> EdgeColumns<'a> {
        assert!(
            src.len() == dst.len() && src.len() == weight.len(),
            "edge columns must align"
        );
        EdgeColumns { src, dst, weight }
    }

    fn len(&self) -> usize {
        self.src.len()
    }

    fn is_empty(&self) -> bool {
        self.src.is_empty()
    }
}

impl CsrGraph {
    /// Advance this frozen graph by one window step, producing the frozen
    /// graph of the edge list after the step — **bit-identical to a
    /// one-shot columnar build over it**, at any thread count, when the
    /// graph was built from integer weights. See the [module docs](self)
    /// for why.
    ///
    /// `node_ids` is the node table after the step, in the order a
    /// rebuild would intern it. `old_to_new` maps each old dense index to
    /// its new one (`u32::MAX` for a node the step drops); `None` keeps
    /// the table, which `node_ids` must then equal. `evicted` runs between
    /// old dense indices and `appended` between new ones; every weight on
    /// either side is an integer from 1 to [`MAX_EVICT_WEIGHT`]. A step
    /// that evicts and appends nothing under an unchanged table returns a
    /// clone sharing this graph's storage.
    ///
    /// # Errors
    ///
    /// - [`GraphError::InvalidWeight`] for an evicted or appended weight
    ///   outside the domain.
    /// - [`GraphError::EdgeNotHeld`] for an evicted edge the graph does
    ///   not hold, or more evicted weight than an entry carries.
    /// - [`GraphError::NodeTable`] for a map that is not injective, does
    ///   not cover the old table or sends a node to another id, for a
    ///   dropped node that keeps an entry, and for an endpoint outside
    ///   its table (the error then carries the index).
    ///
    /// # Panics
    ///
    /// If the step's half-edges exceed the `u32` index space that no
    /// buildable graph exceeds.
    pub fn apply_window(
        &self,
        node_ids: Vec<NodeId>,
        old_to_new: Option<&[u32]>,
        evicted: EdgeColumns<'_>,
        appended: EdgeColumns<'_>,
        threads: Option<usize>,
    ) -> Result<CsrGraph> {
        let plan = Plan::new(self, &node_ids, old_to_new)?;
        let (n_old, n_new) = (self.node_count(), node_ids.len());
        let old_entries = self.offsets().last().map_or(0, |&e| e as usize);
        assert!(
            old_entries + 2 * (evicted.len() + appended.len()) <= u32::MAX as usize,
            "window step exceeds the u32 CSR index space"
        );
        for (side, n) in [(evicted, n_old), (appended, n_new)] {
            for k in 0..side.len() {
                let w = side.weight[k];
                if !(1.0..=MAX_EVICT_WEIGHT).contains(&w) || w.fract() != 0.0 {
                    return Err(GraphError::InvalidWeight(w));
                }
                if let Some(&c) = [side.src[k], side.dst[k]]
                    .iter()
                    .find(|&&c| c as usize >= n)
                {
                    return Err(GraphError::NodeTable(NodeId::from(c)));
                }
            }
        }
        let mut total_weight = self.total_weight();
        for &w in evicted.weight {
            total_weight -= w;
        }
        for &w in appended.weight {
            total_weight += w;
        }
        if evicted.is_empty() && appended.is_empty() && old_to_new.is_none() {
            return Ok(self.clone());
        }

        let threads = par::thread_count(threads);
        let directed = self.is_directed();
        let (ev, ap) = (evicted, appended);
        let out = plan.rows(
            Half::Out,
            &RowBuckets::scan(n_old, ev.src, ev.dst, ev.weight, directed),
            &RowBuckets::scan(n_new, ap.src, ap.dst, ap.weight, directed),
            threads,
        )?;
        let in_rows = if directed {
            plan.rows(
                Half::In,
                &RowBuckets::scan(n_old, ev.dst, ev.src, ev.weight, true),
                &RowBuckets::scan(n_new, ap.dst, ap.src, ap.weight, true),
                threads,
            )?
        } else {
            Rows::default()
        };
        let edge_count = if directed {
            out.targets.len()
        } else {
            out.pairs_once
        };
        Ok(CsrGraph::from_parts(
            CsrParts {
                directed,
                node_ids,
                offsets: out.offsets,
                targets: out.targets,
                weights: out.weights,
                in_offsets: in_rows.offsets,
                in_targets: in_rows.targets,
                in_weights: in_rows.weights,
                degrees: Some(out.degrees),
                edge_count,
                total_weight,
            },
            threads,
        ))
    }
}

/// Which adjacency half a pass rewrites.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Half {
    /// The out-rows, which carry the degree caches.
    Out,
    /// A directed graph's in-rows: half-edges run from target to row.
    In,
}

/// One adjacency half after the step.
#[derive(Default)]
struct Rows {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    /// Entries with `row <= target` (the undirected edge count).
    pairs_once: usize,
    /// The out-rows' degree caches (empty for in-rows).
    degrees: Degrees,
}

/// One chunk's rows, before they are copied into the graph's columns.
struct Chunk {
    targets: Vec<u32>,
    weights: Vec<f64>,
    lens: Vec<u32>,
    pairs_once: usize,
    degrees: Degrees,
}

/// A worker's per-row scratch: the surviving entries of the row being
/// rewritten, and its appended bucket's sort keys.
#[derive(Default)]
struct Scratch {
    survivors: Vec<(u32, f64)>,
    keys: Vec<u64>,
}

/// How a step's node table relates to the graph's.
struct Plan<'a> {
    graph: &'a CsrGraph,
    /// The new index of each old node (`u32::MAX`: dropped); `None` when
    /// the table is unchanged.
    old_to_new: Option<&'a [u32]>,
    /// The old row behind each new row (`u32::MAX`: a new node); `None`
    /// when the table is unchanged.
    new_to_old: Option<Vec<u32>>,
    /// Whether the map keeps the old order, so remapped rows stay sorted.
    monotone: bool,
    n_new: usize,
}

impl<'a> Plan<'a> {
    /// Check the new table and the map against the graph's table.
    fn new(
        graph: &'a CsrGraph,
        node_ids: &[NodeId],
        old_to_new: Option<&'a [u32]>,
    ) -> Result<Plan<'a>> {
        let (old_ids, n_new) = (graph.node_ids(), node_ids.len());
        let Some(map) = old_to_new else {
            if node_ids != old_ids {
                let same = node_ids.iter().zip(old_ids).take_while(|(a, b)| a == b);
                let at = same.count();
                let id = node_ids.get(at).or(old_ids.get(at)).copied();
                return Err(GraphError::NodeTable(id.unwrap_or_default()));
            }
            return Ok(Plan {
                graph,
                old_to_new: None,
                new_to_old: None,
                monotone: true,
                n_new,
            });
        };
        if map.len() != old_ids.len() {
            // The first old node the map leaves out, or the first entry
            // past the old table.
            let at = map.len().min(old_ids.len());
            let id = old_ids.get(at).map_or(at as NodeId, |&id| id);
            return Err(GraphError::NodeTable(id));
        }
        let mut new_to_old = vec![u32::MAX; n_new];
        let (mut monotone, mut last) = (true, None);
        for (ou, &nu) in map.iter().enumerate() {
            if nu == u32::MAX {
                continue;
            }
            let fits = (nu as usize) < n_new
                && new_to_old[nu as usize] == u32::MAX
                && node_ids[nu as usize] == old_ids[ou];
            if !fits {
                return Err(GraphError::NodeTable(old_ids[ou]));
            }
            new_to_old[nu as usize] = ou as u32;
            monotone &= last.is_none_or(|last| last < nu);
            last = Some(nu);
        }
        Ok(Plan {
            graph,
            old_to_new: Some(map),
            new_to_old: Some(new_to_old),
            monotone,
            n_new,
        })
    }

    /// The old row behind new row `nu`, if any.
    #[inline]
    fn old_of(&self, nu: usize) -> Option<usize> {
        match &self.new_to_old {
            None => Some(nu),
            Some(map) => (map[nu] != u32::MAX).then_some(map[nu] as usize),
        }
    }

    /// Old target `c` in the new table; a dropped target is an error.
    #[inline]
    fn remap(&self, c: u32) -> Result<u32> {
        match self.old_to_new {
            None => Ok(c),
            Some(map) if map[c as usize] != u32::MAX => Ok(map[c as usize]),
            Some(_) => Err(GraphError::NodeTable(self.graph.node_ids()[c as usize])),
        }
    }

    /// Old row `ou` of `half`.
    #[inline]
    fn old_row(&self, half: Half, ou: usize) -> (&'a [u32], &'a [f64]) {
        match half {
            Half::Out => self.graph.row(ou),
            Half::In => self.graph.in_row(ou),
        }
    }

    /// The error for an evicted half-edge `ou → c` that row `ou` of
    /// `half` does not hold, or holds less of.
    fn not_held(&self, half: Half, ou: usize, c: u32) -> GraphError {
        let ids = self.graph.node_ids();
        let (a, b) = (ids[ou], ids[c as usize]);
        let (src, dst) = match half {
            Half::Out => (a, b),
            Half::In => (b, a),
        };
        GraphError::EdgeNotHeld { src, dst }
    }

    /// Rewrite one adjacency half: every new row is its old row minus
    /// its `evicted` bucket (old rows), remapped, merged with its
    /// `appended` bucket (new rows). See the [module docs](self).
    fn rows(
        &self,
        half: Half,
        evicted: &RowBuckets,
        appended: &RowBuckets,
        threads: usize,
    ) -> Result<Rows> {
        // A dropped row must lose every entry.
        if let Some(map) = self.old_to_new {
            let mut survivors = Vec::new();
            for ou in (0..map.len()).filter(|&ou| map[ou] == u32::MAX) {
                let (ot, ow) = self.old_row(half, ou);
                subtract(ot, ow, evicted.row(ou), &mut survivors)
                    .map_err(|c| self.not_held(half, ou, c))?;
                if !survivors.is_empty() {
                    return Err(GraphError::NodeTable(self.graph.node_ids()[ou]));
                }
            }
        }

        // Each new row's old length plus its appended half-edges balance
        // the chunks; they depend only on the graph and the step.
        let mut prov = Vec::with_capacity(self.n_new + 1);
        prov.push(0u32);
        for nu in 0..self.n_new {
            let old_len = self
                .old_of(nu)
                .map_or(0, |ou| self.old_row(half, ou).0.len());
            let appended_len = appended.row(nu).0.len();
            prov.push(prov[nu] + (old_len + appended_len) as u32);
        }
        let chunks = par::RowChunks::balanced(&prov, 64, 4096);
        let packed = par::par_map_with(&chunks, threads, Scratch::default, |scratch, _, range| {
            let entries = (prov[range.end] - prov[range.start]) as usize;
            let mut chunk = Chunk {
                targets: Vec::with_capacity(entries),
                weights: Vec::with_capacity(entries),
                lens: Vec::with_capacity(range.len()),
                pairs_once: 0,
                degrees: Degrees::default(),
            };
            if half == Half::Out {
                chunk.degrees = Degrees::with_capacity(range.len());
            }
            for nu in range {
                self.row(half, nu, evicted, appended, scratch, &mut chunk)?;
            }
            Ok(chunk)
        });

        let mut chunks = Vec::with_capacity(packed.len());
        for chunk in packed {
            chunks.push(chunk?);
        }
        let mut rows = Rows {
            offsets: Vec::with_capacity(self.n_new + 1),
            ..Rows::default()
        };
        if half == Half::Out {
            rows.degrees = Degrees::with_capacity(self.n_new);
        }
        rows.offsets.push(0u32);
        let mut end = 0u32;
        for chunk in &chunks {
            for &len in &chunk.lens {
                end += len;
                rows.offsets.push(end);
            }
            rows.pairs_once += chunk.pairs_once;
            rows.degrees.extend(&chunk.degrees);
        }
        rows.targets = Vec::with_capacity(end as usize);
        rows.weights = Vec::with_capacity(end as usize);
        for chunk in &chunks {
            rows.targets.extend_from_slice(&chunk.targets);
            rows.weights.extend_from_slice(&chunk.weights);
        }
        Ok(rows)
    }

    /// Rewrite new row `nu` of `half` onto the end of `chunk`.
    fn row(
        &self,
        half: Half,
        nu: usize,
        evicted: &RowBuckets,
        appended: &RowBuckets,
        scratch: &mut Scratch,
        chunk: &mut Chunk,
    ) -> Result<()> {
        let ou = self.old_of(nu);
        let (ot, ow) = ou.map_or((&[][..], &[][..]), |ou| self.old_row(half, ou));
        let gone = ou.map_or((&[][..], &[][..]), |ou| evicted.row(ou));
        let (added, added_w) = appended.row(nu);
        let start = chunk.targets.len();
        if gone.0.is_empty() && added.is_empty() {
            // Untouched: the same entries, remapped and at most re-sorted,
            // so the same degree sums.
            match self.old_to_new {
                None => chunk.targets.extend_from_slice(ot),
                Some(_) => {
                    for &c in ot {
                        chunk.targets.push(self.remap(c)?);
                    }
                }
            }
            chunk.weights.extend_from_slice(ow);
            if !self.monotone && !is_sorted(&chunk.targets[start..]) {
                let survivors = &mut scratch.survivors;
                survivors.clear();
                survivors.extend(
                    chunk
                        .targets
                        .drain(start..)
                        .zip(chunk.weights.drain(start..)),
                );
                survivors.sort_unstable_by_key(|&(c, _)| c);
                chunk.targets.extend(survivors.iter().map(|&(c, _)| c));
                chunk.weights.extend(survivors.iter().map(|&(_, w)| w));
            }
            if half == Half::Out {
                let g = self.graph;
                chunk.degrees.push(ou.map_or((0.0, 0.0, 0.0), |ou| {
                    (g.strength(ou), g.weighted_degree(ou), g.self_loop(ou))
                }));
            }
        } else {
            let survivors = &mut scratch.survivors;
            if let Some(ou) = ou {
                subtract(ot, ow, gone, survivors).map_err(|c| self.not_held(half, ou, c))?;
            } else {
                survivors.clear();
            }
            for entry in survivors.iter_mut() {
                entry.0 = self.remap(entry.0)?;
            }
            if !self.monotone && !survivors.windows(2).all(|p| p[0].0 < p[1].0) {
                survivors.sort_unstable_by_key(|&(c, _)| c);
            }
            sort_row(added, &mut scratch.keys);
            merge(survivors, &scratch.keys, added_w, chunk);
            if half == Half::Out {
                let row = (&chunk.targets[start..], &chunk.weights[start..]);
                chunk.degrees.push(row_degrees(nu, row.0, row.1));
            }
        }
        let row_t = &chunk.targets[start..];
        chunk.pairs_once += row_t.len() - row_t.partition_point(|&c| (c as usize) < nu);
        chunk.lens.push(row_t.len() as u32);
        Ok(())
    }
}

/// Whether targets are strictly increasing.
fn is_sorted(targets: &[u32]) -> bool {
    targets.windows(2).all(|p| p[0] < p[1])
}

/// Subtract one row's evicted `(target, weight)` half-edges from its
/// stored entries (targets sorted, so each entry is a binary search
/// away), leaving the entries that stay above 0 in `survivors`. Errs with
/// the target of a half-edge the row does not hold, or holds less of.
fn subtract(
    targets: &[u32],
    weights: &[f64],
    (gone, gone_w): (&[u32], &[f64]),
    survivors: &mut Vec<(u32, f64)>,
) -> std::result::Result<(), u32> {
    survivors.clear();
    survivors.extend(targets.iter().copied().zip(weights.iter().copied()));
    for (&c, &w) in gone.iter().zip(gone_w) {
        let at = targets.binary_search(&c).map_err(|_| c)?;
        survivors[at].1 -= w;
        if survivors[at].1 < 0.0 {
            return Err(c);
        }
    }
    survivors.retain(|&(_, w)| w > 0.0);
    Ok(())
}

/// Merge a row's sorted survivors with its appended bucket, whose
/// [`sort_row`] keys order it by target (equal targets in insertion
/// order), onto the end of `chunk`: equal targets sum, starting from the
/// surviving weight.
fn merge(survivors: &[(u32, f64)], keys: &[u64], added_w: &[f64], chunk: &mut Chunk) {
    let (mut i, mut j) = (0usize, 0usize);
    while let Some(&key) = keys.get(j) {
        let target = key_target(key);
        while let Some(&(c, w)) = survivors.get(i).filter(|e| e.0 < target) {
            chunk.targets.push(c);
            chunk.weights.push(w);
            i += 1;
        }
        let mut acc = match survivors.get(i) {
            Some(&(c, w)) if c == target => {
                i += 1;
                w
            }
            _ => 0.0,
        };
        while let Some(&key) = keys.get(j).filter(|&&k| key_target(k) == target) {
            acc += added_w[key_pos(key)];
            j += 1;
        }
        chunk.targets.push(target);
        chunk.weights.push(acc);
    }
    for &(c, w) in &survivors[i..] {
        chunk.targets.push(c);
        chunk.weights.push(w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_dense_csr, WeightedGraph};

    /// Bit-strict equality between two frozen graphs (the kernel's
    /// contract).
    fn assert_identical(got: &CsrGraph, want: &CsrGraph) {
        assert_eq!(got, want);
        assert_eq!(got.edge_count(), want.edge_count());
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

    /// The columns of edges `keep` of `(src, dst, w)`, endpoints mapped
    /// through `remap`.
    fn select(
        (src, dst, w): (&[u32], &[u32], &[f64]),
        keep: impl Fn(usize) -> bool,
        remap: impl Fn(u32) -> u32,
    ) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let (mut s, mut d, mut ww) = (Vec::new(), Vec::new(), Vec::new());
        for k in (0..src.len()).filter(|&k| keep(k)) {
            s.push(remap(src[k]));
            d.push(remap(dst[k]));
            ww.push(w[k]);
        }
        (s, d, ww)
    }

    fn cols<'a>((s, d, w): &'a (Vec<u32>, Vec<u32>, Vec<f64>)) -> EdgeColumns<'a> {
        EdgeColumns::new(s, d, w)
    }

    /// Evict every edge failing `keep`, compacting the sorted node table
    /// to the referenced subset (a monotone map), and compare the kernel
    /// with a one-shot rebuild over the survivors.
    fn check_compacting_evict(
        directed: bool,
        node_ids: &[NodeId],
        edges: (&[u32], &[u32], &[f64]),
        keep: impl Fn(usize) -> bool,
    ) {
        let n = node_ids.len();
        let base = build_dense_csr(
            directed,
            node_ids.to_vec(),
            edges.0,
            edges.1,
            edges.2,
            Some(2),
        );
        let evicted = select(edges, |k| !keep(k), |u| u);
        let survivors = select(edges, &keep, |u| u);
        let mut referenced = vec![false; n];
        for &e in survivors.0.iter().chain(&survivors.1) {
            referenced[e as usize] = true;
        }
        let (mut new_ids, mut map) = (Vec::new(), vec![u32::MAX; n]);
        for u in (0..n).filter(|&u| referenced[u]) {
            map[u] = new_ids.len() as u32;
            new_ids.push(node_ids[u]);
        }
        let (s, d, w) = select(
            (&survivors.0, &survivors.1, &survivors.2),
            |_| true,
            |u| map[u as usize],
        );
        let want = build_dense_csr(directed, new_ids.clone(), &s, &d, &w, Some(1));
        for threads in [1usize, 2, 4] {
            let got = base
                .apply_window(
                    new_ids.clone(),
                    Some(&map),
                    cols(&evicted),
                    EdgeColumns::default(),
                    Some(threads),
                )
                .unwrap();
            assert_identical(&got, &want);
        }
    }

    #[test]
    fn compacting_evict_matches_rebuild_over_survivors() {
        let node_ids: Vec<NodeId> = (0..60).map(|i| 5 * i + 2).collect();
        let (src, dst, w) = random_edges(60, 500, 11);
        for directed in [false, true] {
            // Drop roughly a third of the edges, then every edge.
            check_compacting_evict(directed, &node_ids, (&src, &dst, &w), |k| k % 3 != 0);
            check_compacting_evict(directed, &node_ids, (&src, &dst, &w), |_| false);
        }
    }

    #[test]
    fn evict_and_append_in_one_step_matches_rebuild() {
        // The step evicts a third of the base and appends a batch over the
        // pinned table; entries evicted to 0 and re-added in the same step
        // come back with the batch's weight alone.
        let node_ids: Vec<NodeId> = (0..50).map(|i| 10 * i + 3).collect();
        let (src, dst, w) = random_edges(50, 400, 7);
        let batch = random_edges(50, 37, 1234);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            let evicted = select((&src, &dst, &w), |k| k % 3 == 0, |u| u);
            let mut after = select((&src, &dst, &w), |k| k % 3 != 0, |u| u);
            after.0.extend(&batch.0);
            after.1.extend(&batch.1);
            after.2.extend(&batch.2);
            let want = build_dense_csr(
                directed,
                node_ids.clone(),
                &after.0,
                &after.1,
                &after.2,
                Some(1),
            );
            for threads in [1usize, 2, 4] {
                let got = base
                    .apply_window(
                        node_ids.clone(),
                        None,
                        cols(&evicted),
                        cols(&batch),
                        Some(threads),
                    )
                    .unwrap();
                assert_identical(&got, &want);
            }
        }
    }

    #[test]
    fn append_shifts_old_nodes_past_interleaved_new_ones() {
        // Old sorted table {10, 30, 50}; the batch introduces 20 and 60, so
        // old indices 1 and 2 shift by one (the trip table's append).
        let old_ids: Vec<NodeId> = vec![10, 30, 50];
        let new_ids: Vec<NodeId> = vec![10, 20, 30, 50, 60];
        let map = [0u32, 2, 3];
        let (src, dst, w) = random_edges(3, 60, 5);
        let base = build_dense_csr(false, old_ids, &src, &dst, &w, Some(1));
        let batch = (
            vec![1u32, 4, 2, 1],
            vec![2u32, 1, 2, 1],
            vec![1.0, 3.0, 2.0, 4.0],
        );
        let mut all = select((&src, &dst, &w), |_| true, |u| map[u as usize]);
        all.0.extend(&batch.0);
        all.1.extend(&batch.1);
        all.2.extend(&batch.2);
        let want = build_dense_csr(false, new_ids.clone(), &all.0, &all.1, &all.2, Some(1));
        for threads in [1usize, 2, 4] {
            let got = base
                .apply_window(
                    new_ids.clone(),
                    Some(&map),
                    EdgeColumns::default(),
                    cols(&batch),
                    Some(threads),
                )
                .unwrap();
            assert_identical(&got, &want);
        }
    }

    /// A first-appearance build of `edges`.
    fn intern_build(directed: bool, edges: &[(NodeId, NodeId, f64)]) -> CsrGraph {
        let mut g = if directed {
            WeightedGraph::new_directed()
        } else {
            WeightedGraph::new_undirected()
        };
        for &(s, d, w) in edges {
            g.add_edge(s, d, w);
        }
        g.freeze()
    }

    #[test]
    fn first_appearance_step_permutes_drops_and_appends_nodes() {
        // Node 5 is first interned by the evicted first edge and only
        // referenced again later, so it moves behind 7 and 8; node 9
        // disappears; the batch appends node 4 and re-adds the evicted
        // self-loop 7–7. The rebuild's table is [7, 8, 5, 4].
        let edges = [
            (5u64, 9u64, 2.0), // evicted: 5's and 9's first appearance
            (7, 8, 2.0),
            (8, 5, 3.0),
            (7, 7, 1.0), // evicted and re-added
        ];
        let batch_edges = [(7u64, 7u64, 4.0), (4, 5, 1.0)];
        for directed in [false, true] {
            let base = intern_build(directed, &edges);
            let mut after = vec![edges[1], edges[2]];
            after.extend(batch_edges);
            let want = intern_build(directed, &after);
            assert_eq!(want.node_ids(), &[7, 8, 5, 4]);
            // Old table [5, 9, 7, 8] → new [7, 8, 5, 4].
            let map = [2u32, u32::MAX, 0, 1];
            let evicted = (vec![0u32, 2], vec![1u32, 2], vec![2.0, 1.0]);
            let batch = (vec![0u32, 3], vec![0u32, 2], vec![4.0, 1.0]);
            for threads in [1usize, 2, 4] {
                let got = base
                    .apply_window(
                        vec![7, 8, 5, 4],
                        Some(&map),
                        cols(&evicted),
                        cols(&batch),
                        Some(threads),
                    )
                    .unwrap();
                assert_identical(&got, &want);
            }
        }
    }

    #[test]
    fn first_appearance_evict_of_everything_empties_the_graph() {
        let base = intern_build(false, &[(1, 2, 1.0), (2, 3, 2.0)]);
        let evicted = (vec![0u32, 1], vec![1u32, 2], vec![1.0, 2.0]);
        let map = [u32::MAX; 3];
        let got = base
            .apply_window(
                Vec::new(),
                Some(&map),
                cols(&evicted),
                EdgeColumns::default(),
                Some(2),
            )
            .unwrap();
        assert!(got.is_empty());
        assert_eq!(got.total_weight(), 0.0);
        assert_identical(&got, &WeightedGraph::new_undirected().freeze());
    }

    #[test]
    fn empty_step_shares_the_graph() {
        let node_ids: Vec<NodeId> = (0..12).collect();
        let (src, dst, w) = random_edges(12, 80, 17);
        for directed in [false, true] {
            let base = build_dense_csr(directed, node_ids.clone(), &src, &dst, &w, Some(2));
            let none = EdgeColumns::default();
            let got = base
                .apply_window(node_ids.clone(), None, none, none, Some(3))
                .unwrap();
            assert!(got.shares_storage(&base));
            // An identity map takes the full pass and lands on the same bits.
            let identity: Vec<u32> = (0..12).collect();
            let got = base
                .apply_window(node_ids.clone(), Some(&identity), none, none, Some(3))
                .unwrap();
            assert!(!got.shares_storage(&base));
            assert_identical(&got, &base);
        }
    }

    #[test]
    fn pinned_evict_keeps_isolated_rows() {
        // Node 30's only edge is evicted but the table is pinned: its row
        // must survive, empty — like a rebuild seeded with the full set.
        let node_ids: Vec<NodeId> = vec![10, 20, 30];
        let base = build_dense_csr(
            false,
            node_ids.clone(),
            &[0, 2, 0],
            &[1, 0, 1],
            &[1.0, 2.0, 3.0],
            Some(1),
        );
        let evicted = (vec![2u32], vec![0u32], vec![2.0]);
        let got = base
            .apply_window(
                node_ids.clone(),
                None,
                cols(&evicted),
                EdgeColumns::default(),
                Some(2),
            )
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
            let evicted = (vec![1u32], vec![0u32], vec![4.0]);
            let got = base
                .apply_window(
                    node_ids.clone(),
                    None,
                    cols(&evicted),
                    EdgeColumns::default(),
                    Some(1),
                )
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
    fn weights_at_the_cap_stay_exact() {
        // Merged entries far above 2^20 still subtract and add exactly.
        let node_ids: Vec<NodeId> = vec![1, 2];
        let m = 40;
        let (src, dst, w) = (vec![0u32; m], vec![1u32; m], vec![MAX_EVICT_WEIGHT; m]);
        let base = build_dense_csr(false, node_ids.clone(), &src, &dst, &w, Some(1));
        let evicted = (vec![0u32; 15], vec![1u32; 15], vec![MAX_EVICT_WEIGHT; 15]);
        let batch = (vec![1u32; 3], vec![0u32; 3], vec![MAX_EVICT_WEIGHT; 3]);
        let got = base
            .apply_window(
                node_ids.clone(),
                None,
                cols(&evicted),
                cols(&batch),
                Some(1),
            )
            .unwrap();
        let want = build_dense_csr(false, node_ids, &src[12..], &dst[12..], &w[12..], Some(1));
        assert_identical(&got, &want);
        assert_eq!(got.total_weight(), 28.0 * MAX_EVICT_WEIGHT);
    }

    #[test]
    fn window_chain_matches_one_shot_rebuild() {
        // Alternate steps at several thread counts over a compacting
        // sorted table: always equal to the rebuild, bitwise.
        let node_ids: Vec<NodeId> = (0..32).map(|i| i * 2 + 1).collect();
        let (src, dst, w) = random_edges(32, 240, 77);
        let mut alive: Vec<usize> = (0..src.len()).collect();
        let mut g = build_dense_csr(true, node_ids.clone(), &src, &dst, &w, Some(2));
        let mut ids = node_ids.clone();
        for round in 0..3usize {
            let dense = |ids: &[NodeId], k: &[u32]| -> Vec<u32> {
                k.iter()
                    .map(|&u| ids.binary_search(&node_ids[u as usize]).unwrap() as u32)
                    .collect()
            };
            let dropped: Vec<usize> = alive.iter().copied().filter(|k| k % 5 == round).collect();
            alive.retain(|k| k % 5 != round);
            let mut new_ids: Vec<NodeId> = alive
                .iter()
                .flat_map(|&k| [node_ids[src[k] as usize], node_ids[dst[k] as usize]])
                .collect();
            new_ids.sort_unstable();
            new_ids.dedup();
            let map: Vec<u32> = ids
                .iter()
                .map(|id| new_ids.binary_search(id).map_or(u32::MAX, |i| i as u32))
                .collect();
            let pick = |ks: &[usize], col: &[u32]| ks.iter().map(|&k| col[k]).collect::<Vec<_>>();
            let evicted = (
                dense(&ids, &pick(&dropped, &src)),
                dense(&ids, &pick(&dropped, &dst)),
                dropped.iter().map(|&k| w[k]).collect::<Vec<_>>(),
            );
            g = g
                .apply_window(
                    new_ids.clone(),
                    Some(&map),
                    cols(&evicted),
                    EdgeColumns::default(),
                    Some(round + 1),
                )
                .unwrap();
            let ss = dense(&new_ids, &pick(&alive, &src));
            let sd = dense(&new_ids, &pick(&alive, &dst));
            let sw: Vec<f64> = alive.iter().map(|&k| w[k]).collect();
            assert_identical(
                &g,
                &build_dense_csr(true, new_ids.clone(), &ss, &sd, &sw, Some(1)),
            );
            ids = new_ids;
        }
    }

    #[test]
    fn weights_outside_the_domain_are_rejected_on_both_sides() {
        let base = build_dense_csr(false, vec![1, 2], &[0], &[1], &[3.0], Some(1));
        for w in [
            0.5,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            MAX_EVICT_WEIGHT + 1.0,
        ] {
            let edge = (vec![0u32], vec![1u32], vec![w]);
            let none = EdgeColumns::default();
            for (evicted, appended) in [(cols(&edge), none), (none, cols(&edge))] {
                let err = base
                    .apply_window(vec![1, 2], None, evicted, appended, None)
                    .unwrap_err();
                assert!(
                    matches!(err, GraphError::InvalidWeight(got) if got.to_bits() == w.to_bits()),
                    "{w}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn evicting_what_the_graph_does_not_hold_is_an_error() {
        let base = build_dense_csr(true, vec![1, 2, 3], &[0], &[1], &[2.0], Some(1));
        let not_held = |src, dst| GraphError::EdgeNotHeld { src, dst };
        let none = EdgeColumns::default();
        // A missing edge, the reverse of a directed edge, and more weight
        // than the entry carries.
        for (s, d, w) in [(0u32, 2u32, 1.0), (1, 0, 1.0), (0, 1, 3.0)] {
            let edge = (vec![s], vec![d], vec![w]);
            let got = base.apply_window(vec![1, 2, 3], None, cols(&edge), none, None);
            assert_eq!(got, Err(not_held(u64::from(s) + 1, u64::from(d) + 1)));
        }
        // Two evictions that together overdraw the entry.
        let edges = (vec![0u32, 0], vec![1u32, 1], vec![1.0, 2.0]);
        let got = base.apply_window(vec![1, 2, 3], None, cols(&edges), none, None);
        assert_eq!(got, Err(not_held(1, 2)));
    }

    #[test]
    fn node_tables_that_do_not_fit_are_rejected() {
        let base = build_dense_csr(false, vec![1, 2, 3], &[0, 1], &[1, 2], &[1.0, 1.0], Some(1));
        let gone = (vec![0u32], vec![1u32], vec![1.0]);
        let step = |ids: Vec<NodeId>, map: Option<&[u32]>| {
            base.apply_window(ids, map, cols(&gone), EdgeColumns::default(), None)
        };
        // An unchanged table that is not the graph's.
        assert_eq!(step(vec![1, 2, 4], None), Err(GraphError::NodeTable(4)));
        assert_eq!(step(vec![1, 2], None), Err(GraphError::NodeTable(3)));
        // A map too short, mapping twice, to another id, or past the table.
        let short = [u32::MAX, 0];
        assert_eq!(
            step(vec![2, 3], Some(&short)),
            Err(GraphError::NodeTable(3))
        );
        let twice = [u32::MAX, 0, 0];
        assert_eq!(
            step(vec![2, 3], Some(&twice)),
            Err(GraphError::NodeTable(3))
        );
        let swapped = [u32::MAX, 1, 0];
        assert_eq!(
            step(vec![2, 3], Some(&swapped)),
            Err(GraphError::NodeTable(2))
        );
        let past = [u32::MAX, 0, 5];
        assert_eq!(step(vec![2, 3], Some(&past)), Err(GraphError::NodeTable(3)));
        // A dropped node (3) whose edge to 2 survives.
        let drops_3 = [0, 1, u32::MAX];
        assert_eq!(
            step(vec![1, 2], Some(&drops_3)),
            Err(GraphError::NodeTable(3))
        );
        // Endpoints outside the old table (evicted) or the new (appended).
        let outside = (vec![0u32], vec![7u32], vec![1.0]);
        let none = EdgeColumns::default();
        let got = base.apply_window(vec![1, 2, 3], None, cols(&outside), none, None);
        assert_eq!(got, Err(GraphError::NodeTable(7)));
        let got = base.apply_window(vec![1, 2, 3], None, none, cols(&outside), None);
        assert_eq!(got, Err(GraphError::NodeTable(7)));
        // The fitting table: node 1 dropped with its only edge.
        let fits = [u32::MAX, 0, 1];
        assert!(step(vec![2, 3], Some(&fits)).is_ok());
    }
}
