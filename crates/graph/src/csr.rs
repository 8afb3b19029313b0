//! The frozen compressed-sparse-row analytical graph.
//!
//! [`WeightedGraph`] is the *builder*: cheap merged
//! inserts backed by per-node hash maps. Every analytical algorithm pays
//! hash-probe and cache-miss costs when it walks that representation, so
//! the hot layers (Louvain, modularity, PageRank) instead consume a
//! [`CsrGraph`] produced once by
//! [`WeightedGraph::freeze`](crate::WeightedGraph::freeze):
//!
//! * `offsets` / `targets` / `weights` — the classic CSR triplet; node
//!   `u`'s neighbours are the contiguous slice
//!   `targets[offsets[u]..offsets[u+1]]` (sorted by target index) with
//!   parallel edge weights, so an edge scan is a linear walk over dense
//!   arrays;
//! * the dense node table (`node_ids`: the external [`NodeId`] at each
//!   `u32` index) and, built lazily on the first lookup by id
//!   ([`CsrGraph::index_of`], [`CsrGraph::contains`], the `*_of`
//!   accessors), the inverse id index. Algorithms address nodes by dense
//!   index, so a graph that is built, advanced by
//!   [`CsrGraph::apply_window`] and swept never pays for the index;
//! * cached per-node weighted degrees: `strength` (incident weight, loops
//!   once) and `weighted_degree` (the Louvain convention, loops twice),
//!   plus the self-loop weight, so the community layer never recomputes
//!   them per sweep.
//!
//! Directed graphs additionally carry an in-adjacency CSR (`in_offsets` /
//! `in_targets` / `in_weights`). The freeze step sorts each row, so all
//! iteration — and therefore every floating-point accumulation order
//! downstream — is deterministic regardless of hash-map iteration order in
//! the builder.
//!
//! Every column is a plain `Vec` that the graph takes over from whichever
//! path built it: the columnar build hands over the bucket columns it
//! merged in place, the window kernel the rows it packed, and a freeze
//! the rows it collected. `CsrGraph::from_parts`, the one place a graph
//! is assembled, trims each column to its length, so
//! [`CsrGraph::heap_bytes`] counts exactly what the graph holds.

use crate::{build_dense_csr, par, NodeId, WeightedGraph};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// The raw arrays of a CSR graph, handed to
/// [`CsrGraph::from_parts`] by construction paths that assemble the
/// adjacency themselves (the freeze path, [`CsrGraph::to_undirected`],
/// the columnar [`build_dense_csr`] and the window kernel). Rows must
/// already be sorted by target index with duplicates merged.
#[derive(Debug)]
pub(crate) struct CsrParts {
    /// Whether the graph is directed.
    pub directed: bool,
    /// External node ids in dense-index order.
    pub node_ids: Vec<NodeId>,
    /// Out-row offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// Out-row targets, sorted per row.
    pub targets: Vec<u32>,
    /// Out-row merged weights, parallel to `targets`.
    pub weights: Vec<f64>,
    /// In-row offsets (empty for undirected graphs).
    pub in_offsets: Vec<u32>,
    /// In-row targets (empty for undirected graphs).
    pub in_targets: Vec<u32>,
    /// In-row merged weights (empty for undirected graphs).
    pub in_weights: Vec<f64>,
    /// The cached degrees when the caller already has them; `None` has
    /// [`CsrGraph::from_parts`] sweep every row for them.
    pub degrees: Option<Degrees>,
    /// Number of distinct merged edges (builder convention).
    pub edge_count: usize,
    /// Sum of merged edge weights, each edge counted once.
    pub total_weight: f64,
}

/// The cached per-node degree sums of a frozen graph, one entry per
/// node, each computed by [`row_degrees`] over the node's out-row.
#[derive(Debug, Clone, Default)]
pub(crate) struct Degrees {
    /// Incident weight, self-loops once.
    pub(crate) strength: Vec<f64>,
    /// The Louvain convention: self-loops twice.
    pub(crate) weighted_degree: Vec<f64>,
    /// The self-loop weight, 0.0 when absent.
    pub(crate) self_loops: Vec<f64>,
}

impl Degrees {
    /// Room for `n` nodes.
    pub(crate) fn with_capacity(n: usize) -> Degrees {
        Degrees {
            strength: Vec::with_capacity(n),
            weighted_degree: Vec::with_capacity(n),
            self_loops: Vec::with_capacity(n),
        }
    }

    /// Append one node's `(strength, weighted degree, self-loop)`.
    #[inline]
    pub(crate) fn push(&mut self, (s, wd, sl): (f64, f64, f64)) {
        self.strength.push(s);
        self.weighted_degree.push(wd);
        self.self_loops.push(sl);
    }

    /// Append every node of `other`, in order.
    pub(crate) fn extend(&mut self, other: &Degrees) {
        self.strength.extend_from_slice(&other.strength);
        self.weighted_degree
            .extend_from_slice(&other.weighted_degree);
        self.self_loops.extend_from_slice(&other.self_loops);
    }
}

/// Row `u`'s `(strength, weighted degree, self-loop)`, accumulated in row
/// order — the one sweep behind every cached degree, so a row produces
/// the same bits whichever path froze it.
#[inline]
pub(crate) fn row_degrees(u: usize, targets: &[u32], weights: &[f64]) -> (f64, f64, f64) {
    let (mut s, mut wd, mut sl) = (0.0f64, 0.0f64, 0.0f64);
    for (&t, &w) in targets.iter().zip(weights) {
        s += w;
        if t as usize == u {
            sl = w;
            wd += 2.0 * w;
        } else {
            wd += w;
        }
    }
    (s, wd, sl)
}

/// The frozen arrays behind a [`CsrGraph`]. Held behind an `Arc` so that
/// cloning a graph — which the serving layer does on every snapshot
/// publish — is a reference-count bump instead of a deep copy of the
/// adjacency columns. The inner arrays are never mutated after
/// construction, which is what makes the sharing sound; the id index is
/// written once, on the first lookup by id, through its `OnceLock`.
#[derive(Debug)]
struct CsrInner {
    directed: bool,
    node_ids: Vec<NodeId>,
    /// External id → dense index, built on first use: it is a pure
    /// function of `node_ids`, so equality ignores it.
    index: OnceLock<HashMap<NodeId, u32>>,
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    in_offsets: Vec<u32>,
    in_targets: Vec<u32>,
    in_weights: Vec<f64>,
    strength: Vec<f64>,
    weighted_degree: Vec<f64>,
    self_loops: Vec<f64>,
    edge_count: usize,
    total_weight: f64,
}

impl PartialEq for CsrInner {
    fn eq(&self, other: &Self) -> bool {
        self.directed == other.directed
            && self.node_ids == other.node_ids
            && self.offsets == other.offsets
            && self.targets == other.targets
            && self.weights == other.weights
            && self.in_offsets == other.in_offsets
            && self.in_targets == other.in_targets
            && self.in_weights == other.in_weights
            && self.strength == other.strength
            && self.weighted_degree == other.weighted_degree
            && self.self_loops == other.self_loops
            && self.edge_count == other.edge_count
            && self.total_weight == other.total_weight
    }
}

/// A frozen, immutable weighted graph in compressed sparse row form.
///
/// Produced by [`WeightedGraph::freeze`](crate::WeightedGraph::freeze);
/// see the [module docs](self) for the representation. The arrays live
/// behind an [`Arc`], so `clone()` is O(1) and clones share storage —
/// [`CsrGraph::shares_storage`] observes the sharing.
#[derive(Debug, Clone)]
pub struct CsrGraph {
    inner: Arc<CsrInner>,
}

impl PartialEq for CsrGraph {
    fn eq(&self, other: &Self) -> bool {
        // Snapshot clones share storage; skip the deep array compare then.
        Arc::ptr_eq(&self.inner, &other.inner) || *self.inner == *other.inner
    }
}

impl CsrGraph {
    /// Freeze a builder graph. Rows are sorted by target index; per-node
    /// weighted degrees are cached.
    pub fn from_weighted(graph: &WeightedGraph) -> CsrGraph {
        let n = graph.node_count();
        assert!(n <= u32::MAX as usize, "CSR index space is u32");
        let node_ids = graph.node_ids().to_vec();

        let (offsets, targets, weights) = pack_rows(n, |i| graph.neighbors(i));
        let (in_offsets, in_targets, in_weights) = if graph.is_directed() {
            pack_rows(n, |i| graph.in_neighbors(i))
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        CsrGraph::from_parts(
            CsrParts {
                directed: graph.is_directed(),
                node_ids,
                offsets,
                targets,
                weights,
                in_offsets,
                in_targets,
                in_weights,
                degrees: None,
                edge_count: graph.edge_count(),
                total_weight: graph.total_weight(),
            },
            par::thread_count(None),
        )
    }

    /// Assemble a frozen graph from already-sorted-and-merged CSR arrays:
    /// the one place a graph is put together. Shared by
    /// [`CsrGraph::from_weighted`], [`CsrGraph::to_undirected`], the
    /// columnar [`build_dense_csr`] and the window kernel, so every path
    /// caches the per-node weighted degrees through the same
    /// [`row_degrees`] sweep — which is what makes them bit-identical.
    /// The kernel passes the degrees it already holds; otherwise every
    /// row is swept here. The graph takes the columns over, each trimmed
    /// to its length. The id index is left to the first lookup.
    pub(crate) fn from_parts(parts: CsrParts, threads: usize) -> CsrGraph {
        let CsrParts {
            directed,
            mut node_ids,
            mut offsets,
            mut targets,
            mut weights,
            mut in_offsets,
            mut in_targets,
            mut in_weights,
            degrees,
            edge_count,
            total_weight,
        } = parts;
        let n = node_ids.len();
        assert!(n <= u32::MAX as usize, "CSR index space is u32");
        debug_assert_eq!(offsets.len(), n + 1);

        // Keep each column at its length. A build's bucket columns arrive
        // sized for every half-edge, which its merge shortened; trimming
        // them first frees the tail before the degree sweep allocates.
        // The degree columns are built at their length.
        node_ids.shrink_to_fit();
        for column in [&mut offsets, &mut targets, &mut in_offsets, &mut in_targets] {
            column.shrink_to_fit();
        }
        for column in [&mut weights, &mut in_weights] {
            column.shrink_to_fit();
        }

        // Cache the per-node weighted degrees with a parallel row sweep.
        // Each row's accumulation is independent and runs in row order, so
        // the cached values are bit-identical at any thread count.
        let degrees = degrees.unwrap_or_else(|| {
            let chunks = par::RowChunks::balanced(&offsets, 64, 4096);
            let cached = par::par_map(&chunks, threads, |_, range| {
                let mut out = Degrees::with_capacity(range.len());
                for u in range {
                    let (row_t, row_w) = row(&offsets, &targets, &weights, u);
                    out.push(row_degrees(u, row_t, row_w));
                }
                out
            });
            let mut degrees = Degrees::with_capacity(n);
            for chunk in &cached {
                degrees.extend(chunk);
            }
            degrees
        });
        debug_assert_eq!(degrees.strength.len(), n);

        CsrGraph {
            inner: Arc::new(CsrInner {
                directed,
                node_ids,
                index: OnceLock::new(),
                offsets,
                targets,
                weights,
                in_offsets,
                in_targets,
                in_weights,
                strength: degrees.strength,
                weighted_degree: degrees.weighted_degree,
                self_loops: degrees.self_loops,
                edge_count,
                total_weight,
            }),
        }
    }

    /// Whether two graphs share the same frozen storage (i.e. one is an
    /// O(1) clone of the other). Used by the serving layer's tests to
    /// assert that snapshot publication never deep-copies the columns.
    pub fn shares_storage(&self, other: &CsrGraph) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Whether the graph is directed.
    pub fn is_directed(&self) -> bool {
        self.inner.directed
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.inner.node_ids.len()
    }

    /// Number of distinct merged edges (same convention as the builder:
    /// undirected edges and self-loops count once).
    pub fn edge_count(&self) -> usize {
        self.inner.edge_count
    }

    /// Sum of all merged edge weights (each edge counted once).
    pub fn total_weight(&self) -> f64 {
        self.inner.total_weight
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.inner.node_ids.is_empty()
    }

    /// Heap footprint of the frozen arrays in bytes: the node table, both
    /// adjacency halves, the cached degree sweeps and — once a lookup by
    /// id has built it — the id index. The benchmark's `city_build`
    /// workload reports this as `graph.bytes` next to peak RSS, so the
    /// memory claims of city-scale builds stay auditable. Every column is
    /// held at its length (see `CsrGraph::from_parts`), so the columns
    /// count exactly what the graph holds; the index counts the entries
    /// its capacity has room for.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let inner = &*self.inner;
        let index = inner.index.get().map_or(0, HashMap::capacity);
        let u32s = inner.offsets.capacity()
            + inner.targets.capacity()
            + inner.in_offsets.capacity()
            + inner.in_targets.capacity();
        let f64s = inner.weights.capacity()
            + inner.in_weights.capacity()
            + inner.strength.capacity()
            + inner.weighted_degree.capacity()
            + inner.self_loops.capacity();
        inner.node_ids.capacity() * size_of::<NodeId>()
            + index * (size_of::<NodeId>() + size_of::<u32>())
            + u32s * size_of::<u32>()
            + f64s * size_of::<f64>()
    }

    /// The id index, built on the first call (by whichever thread gets
    /// there first; the others wait for it).
    fn index(&self) -> &HashMap<NodeId, u32> {
        self.inner.index.get_or_init(|| {
            self.inner
                .node_ids
                .iter()
                .enumerate()
                .map(|(i, &id)| (id, i as u32))
                .collect()
        })
    }

    /// The dense index of an external node id. The first lookup by id
    /// builds the graph's id index (see the [module docs](self)).
    pub fn index_of(&self, id: NodeId) -> Option<u32> {
        self.index().get(&id).copied()
    }

    /// The external node id at a dense index.
    pub fn id_of(&self, index: usize) -> Option<NodeId> {
        self.inner.node_ids.get(index).copied()
    }

    /// All node ids in dense-index order.
    pub fn node_ids(&self) -> &[NodeId] {
        &self.inner.node_ids
    }

    /// Whether the node id is present.
    pub fn contains(&self, id: NodeId) -> bool {
        self.index().contains_key(&id)
    }

    /// The (out-)neighbour row of a node: parallel target and weight
    /// slices, sorted by target index. This is the zero-cost access path
    /// for hot loops.
    #[inline]
    pub fn row(&self, u: usize) -> (&[u32], &[f64]) {
        row(
            &self.inner.offsets,
            &self.inner.targets,
            &self.inner.weights,
            u,
        )
    }

    /// The out-row offset array (`n + 1` entries) — the chunking input for
    /// [`par::RowChunks`].
    pub fn offsets(&self) -> &[u32] {
        &self.inner.offsets
    }

    /// The in-row offset array (equals [`CsrGraph::offsets`] for undirected
    /// graphs) — chunk by this when a sweep walks in-rows, e.g. pull-based
    /// PageRank.
    pub fn in_offsets(&self) -> &[u32] {
        if self.inner.directed {
            &self.inner.in_offsets
        } else {
            &self.inner.offsets
        }
    }

    /// The in-neighbour row of a node (equals [`CsrGraph::row`] for
    /// undirected graphs).
    #[inline]
    pub fn in_row(&self, u: usize) -> (&[u32], &[f64]) {
        if self.inner.directed {
            row(
                &self.inner.in_offsets,
                &self.inner.in_targets,
                &self.inner.in_weights,
                u,
            )
        } else {
            self.row(u)
        }
    }

    /// In-neighbours (by dense index) with merged weights.
    pub fn in_neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (t, w) = self.in_row(u);
        t.iter().zip(w).map(|(&t, &w)| (t as usize, w))
    }

    /// Number of distinct (out-)neighbours; self-loops count once.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.inner.offsets[u + 1] - self.inner.offsets[u]) as usize
    }

    /// Cached incident weight (out-edges in a directed graph); self-loops
    /// count once.
    #[inline]
    pub fn strength(&self, u: usize) -> f64 {
        self.inner.strength[u]
    }

    /// Cached weighted degree in the Louvain convention: self-loops count
    /// twice.
    #[inline]
    pub fn weighted_degree(&self, u: usize) -> f64 {
        self.inner.weighted_degree[u]
    }

    /// Cached self-loop weight (0.0 when absent).
    #[inline]
    pub fn self_loop(&self, u: usize) -> f64 {
        self.inner.self_loops[u]
    }

    /// The out-adjacency and its Louvain caches, borrowed in place for a
    /// sweep that walks every row: `(offsets, targets, weights,
    /// weighted_degree, self_loops)`. Row `u` is
    /// `targets[offsets[u]..offsets[u + 1]]` with its weights, as
    /// [`CsrGraph::row`] returns it (a self-loop stays in its row); the
    /// last two hold [`CsrGraph::weighted_degree`] and
    /// [`CsrGraph::self_loop`] of every node.
    pub fn columns(&self) -> (&[u32], &[u32], &[f64], &[f64], &[f64]) {
        let inner = &*self.inner;
        (
            &inner.offsets,
            inner.targets.as_slice(),
            inner.weights.as_slice(),
            &inner.weighted_degree,
            &inner.self_loops,
        )
    }

    /// Degree of an external node id.
    pub fn degree_of(&self, id: NodeId) -> Option<usize> {
        Some(self.degree(self.index_of(id)? as usize))
    }

    /// Strength of an external node id.
    pub fn strength_of(&self, id: NodeId) -> Option<f64> {
        Some(self.inner.strength[self.index_of(id)? as usize])
    }

    /// The merged weight of the edge from `src` to `dst`, if present
    /// (binary search over the sorted row).
    pub fn edge_weight(&self, src: NodeId, dst: NodeId) -> Option<f64> {
        let s = self.index_of(src)? as usize;
        let d = self.index_of(dst)?;
        let (t, w) = self.row(s);
        t.binary_search(&d).ok().map(|pos| w[pos])
    }

    /// Iterate over all merged edges as `(src_id, dst_id, weight)` in
    /// deterministic dense order. Undirected edges are yielded once with
    /// `src_index <= dst_index`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        (0..self.node_count()).flat_map(move |u| {
            let (t, w) = self.row(u);
            t.iter().zip(w).filter_map(move |(&v, &w)| {
                if self.inner.directed || u as u32 <= v {
                    Some((self.inner.node_ids[u], self.inner.node_ids[v as usize], w))
                } else {
                    None
                }
            })
        })
    }

    /// The undirected projection: reciprocal directed edges are merged by
    /// summing weights, self-loops carry over. For an undirected graph
    /// this is a clone. Matches
    /// [`WeightedGraph::to_undirected`](crate::WeightedGraph::to_undirected).
    pub fn to_undirected(&self) -> CsrGraph {
        if !self.inner.directed {
            return self.clone();
        }
        let n = self.node_count();
        // Merge out- and in-rows per node: both are sorted, so a two-pointer
        // union yields each undirected neighbour once with the summed weight.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        offsets.push(0u32);
        let mut edge_count = 0usize;
        let mut total_weight = 0.0f64;
        for u in 0..n {
            let (ot, ow) = self.row(u);
            let (it, iw) = self.in_row(u);
            let (mut a, mut b) = (0usize, 0usize);
            while a < ot.len() || b < it.len() {
                let (v, w) = if b >= it.len() || (a < ot.len() && ot[a] < it[b]) {
                    let r = (ot[a], ow[a]);
                    a += 1;
                    r
                } else if a >= ot.len() || it[b] < ot[a] {
                    let r = (it[b], iw[b]);
                    b += 1;
                    r
                } else {
                    // Same neighbour in both directions. A self-loop stores
                    // the identical record in out- and in-rows: count once.
                    let r = if ot[a] as usize == u {
                        (ot[a], ow[a])
                    } else {
                        (ot[a], ow[a] + iw[b])
                    };
                    a += 1;
                    b += 1;
                    r
                };
                targets.push(v);
                weights.push(w);
                // Each edge once: from its lower endpoint's row.
                if v as usize >= u {
                    edge_count += 1;
                    total_weight += w;
                }
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph::from_parts(
            CsrParts {
                directed: false,
                node_ids: self.inner.node_ids.clone(),
                offsets,
                targets,
                weights,
                in_offsets: Vec::new(),
                in_targets: Vec::new(),
                in_weights: Vec::new(),
                degrees: None,
                edge_count,
                total_weight,
            },
            par::thread_count(None),
        )
    }

    /// A frozen graph containing only the nodes for which `keep` returns
    /// true (and the merged edges among them), preserving the relative
    /// dense order of the kept nodes. Matches
    /// [`WeightedGraph::subgraph`](crate::WeightedGraph::subgraph) followed
    /// by a freeze.
    pub fn subgraph<F: Fn(NodeId) -> bool>(&self, keep: F) -> CsrGraph {
        // Each kept node's dense index in the subgraph; u32::MAX drops it.
        let mut dense = vec![u32::MAX; self.node_count()];
        let mut node_ids = Vec::new();
        for (u, &id) in self.inner.node_ids.iter().enumerate() {
            if keep(id) {
                dense[u] = node_ids.len() as u32;
                node_ids.push(id);
            }
        }
        // The kept edges in `edges()` order: an undirected edge once.
        let (mut src, mut dst, mut weight) = (Vec::new(), Vec::new(), Vec::new());
        for u in 0..self.node_count() {
            let (targets, weights) = self.row(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let (a, b) = (dense[u], dense[v as usize]);
                if a != u32::MAX && b != u32::MAX && (self.inner.directed || u as u32 <= v) {
                    src.push(a);
                    dst.push(b);
                    weight.push(w);
                }
            }
        }
        build_dense_csr(self.inner.directed, node_ids, &src, &dst, &weight, None)
    }
}

/// Collect per-node `(neighbour, weight)` pairs into sorted CSR arrays.
fn pack_rows<I, F>(n: usize, mut neighbors: F) -> (Vec<u32>, Vec<u32>, Vec<f64>)
where
    I: Iterator<Item = (usize, f64)>,
    F: FnMut(usize) -> I,
{
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    let mut scratch: Vec<(u32, f64)> = Vec::new();
    for u in 0..n {
        scratch.clear();
        scratch.extend(neighbors(u).map(|(v, w)| (v as u32, w)));
        scratch.sort_unstable_by_key(|&(v, _)| v);
        for &(v, w) in &scratch {
            targets.push(v);
            weights.push(w);
        }
        offsets.push(targets.len() as u32);
    }
    (offsets, targets, weights)
}

#[inline]
fn row<'a>(
    offsets: &[u32],
    targets: &'a [u32],
    weights: &'a [f64],
    u: usize,
) -> (&'a [u32], &'a [f64]) {
    let lo = offsets[u] as usize;
    let hi = offsets[u + 1] as usize;
    (&targets[lo..hi], &weights[lo..hi])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_undirected() -> WeightedGraph {
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(10, 20, 3.0);
        g.add_edge(20, 30, 1.0);
        g.add_edge(10, 20, 2.0); // merges
        g.add_edge(40, 40, 5.0); // self-loop
        g.add_node(99); // isolated
        g
    }

    #[test]
    fn freeze_preserves_counts_and_weights() {
        let g = sample_undirected();
        let c = g.freeze();
        assert!(!c.is_directed());
        assert_eq!(c.node_count(), g.node_count());
        assert_eq!(c.edge_count(), g.edge_count());
        assert_eq!(c.total_weight(), g.total_weight());
        assert_eq!(c.edge_weight(10, 20), Some(5.0));
        assert_eq!(c.edge_weight(20, 10), Some(5.0));
        assert_eq!(c.edge_weight(10, 30), None);
        assert_eq!(c.self_loop(c.index_of(40).unwrap() as usize), 5.0);
    }

    #[test]
    fn heap_bytes_tracks_graph_size() {
        let small = sample_undirected().freeze();
        assert!(small.heap_bytes() > 0);
        let mut g = WeightedGraph::new_directed();
        for i in 0..200u64 {
            g.add_edge(i, (i * 7) % 200, 1.0);
        }
        let big = g.freeze();
        assert!(big.heap_bytes() > small.heap_bytes());
    }

    #[test]
    fn rows_are_sorted_and_complete() {
        let g = sample_undirected();
        let c = g.freeze();
        for u in 0..c.node_count() {
            let (t, w) = c.row(u);
            assert_eq!(t.len(), w.len());
            assert!(t.windows(2).all(|p| p[0] < p[1]), "row {u} sorted, unique");
            assert_eq!(c.degree(u), g.degree(u));
        }
    }

    #[test]
    fn cached_degrees_match_builder() {
        let g = sample_undirected();
        let c = g.freeze();
        for (u, &id) in c.node_ids().iter().enumerate() {
            assert_eq!(c.strength(u), g.strength(u), "strength of {id}");
            let expected_wd = g.strength(u) + g.self_loop_weight(id);
            assert!((c.weighted_degree(u) - expected_wd).abs() < 1e-12);
        }
        assert_eq!(c.strength_of(99), Some(0.0));
        assert_eq!(c.degree_of(99), Some(0));
        assert_eq!(c.strength_of(12345), None);
    }

    #[test]
    fn id_interning_round_trips() {
        let g = sample_undirected();
        let c = g.freeze();
        for &id in g.node_ids() {
            let u = c.index_of(id).unwrap() as usize;
            assert_eq!(c.id_of(u), Some(id));
            assert_eq!(u, g.index_of(id).unwrap());
        }
        assert!(c.contains(99));
        assert!(!c.contains(1));
        assert_eq!(c.index_of(1), None);
        assert_eq!(c.id_of(1000), None);
    }

    #[test]
    fn the_id_index_is_built_on_first_lookup_and_ignored_by_equality() {
        let (a, b) = (sample_undirected().freeze(), sample_undirected().freeze());
        assert!(a.inner.index.get().is_none(), "a freeze builds no index");
        let bare = a.heap_bytes();
        assert_eq!(a, b);
        // One side looks an id up: equality still holds both ways, and
        // only that side's footprint grows, by at least one slot per node.
        assert_eq!(a.index_of(30), Some(2));
        assert!(a.inner.index.get().is_some());
        assert_eq!(a, b);
        assert_eq!(b, a);
        assert_eq!(b.heap_bytes(), bare);
        let entry = std::mem::size_of::<NodeId>() + std::mem::size_of::<u32>();
        assert!(a.heap_bytes() >= bare + a.node_count() * entry);
        assert!(b.contains(99));
        assert_eq!(a.heap_bytes(), b.heap_bytes());
    }

    #[test]
    fn concurrent_first_lookups_agree_with_a_serial_one() {
        let mut g = WeightedGraph::new_directed();
        for i in 0..500u64 {
            g.add_edge(i * 3, (i * 7 + 1) % 1500, 1.0);
        }
        let serial = g.freeze();
        let want: Vec<Option<u32>> = (0..1500).map(|id| serial.index_of(id)).collect();
        // A fresh graph whose index four threads race to build, released
        // together by a barrier, each through its own clone.
        let fresh = g.freeze();
        let barrier = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let (graph, barrier, want) = (fresh.clone(), &barrier, &want);
                scope.spawn(move || {
                    barrier.wait();
                    for id in 0..1500u64 {
                        assert_eq!(graph.index_of(id), want[id as usize], "id {id}");
                    }
                });
            }
        });
        assert!(fresh.inner.index.get().is_some());
    }

    #[test]
    fn directed_freeze_has_in_rows() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(3, 2, 2.0);
        g.add_edge(2, 1, 1.0);
        let c = g.freeze();
        assert!(c.is_directed());
        let i2 = c.index_of(2).unwrap() as usize;
        assert_eq!(c.degree(i2), 1);
        assert_eq!(c.strength(i2), 1.0);
        let in_sum: f64 = c.in_neighbors(i2).map(|(_, w)| w).sum();
        assert_eq!(in_sum, 5.0);
        assert_eq!(c.in_row(i2).0.len(), 2);
    }

    #[test]
    fn edges_iterator_matches_builder() {
        let g = sample_undirected();
        let c = g.freeze();
        let mut got: Vec<_> = c.edges().collect();
        let mut want = g.edges();
        got.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        want.sort_by(|a, b| (a.0, a.1).partial_cmp(&(b.0, b.1)).unwrap());
        assert_eq!(got, want);
    }

    #[test]
    fn directed_edges_iterator_yields_all() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 1, 1.0);
        g.add_edge(3, 3, 2.0);
        let c = g.freeze();
        assert_eq!(c.edges().count(), 3);
    }

    #[test]
    fn subgraph_matches_builder_subgraph() {
        // Dropping node 2 shifts the dense indices behind it; dropping 4
        // cuts the tail. The isolated node 9 stays in both.
        let keeps: [fn(NodeId) -> bool; 2] = [|id| id != 4, |id| id != 2];
        for directed in [false, true] {
            let mut g = if directed {
                WeightedGraph::new_directed()
            } else {
                WeightedGraph::new_undirected()
            };
            g.add_edge(1, 2, 1.0);
            g.add_edge(2, 3, 1.5);
            g.add_edge(3, 4, 2.0);
            g.add_edge(2, 2, 0.5);
            g.add_edge(3, 1, 0.25);
            g.add_node(9);
            for keep in keeps {
                let via_builder = g.subgraph(keep).freeze();
                let via_csr = g.freeze().subgraph(keep);
                assert_eq!(via_csr, via_builder);
                assert_eq!(
                    via_csr.total_weight().to_bits(),
                    via_builder.total_weight().to_bits()
                );
            }
        }
    }

    #[test]
    fn to_undirected_matches_builder_projection() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 1, 2.0);
        g.add_edge(3, 3, 5.0);
        g.add_edge(1, 3, 1.0);
        let via_builder = g.to_undirected().freeze();
        let via_csr = g.freeze().to_undirected();
        assert_eq!(via_csr.node_count(), via_builder.node_count());
        assert_eq!(via_csr.edge_count(), via_builder.edge_count());
        assert!((via_csr.total_weight() - via_builder.total_weight()).abs() < 1e-12);
        for (&id, u) in via_builder.node_ids().iter().zip(0..) {
            assert_eq!(via_csr.id_of(u), Some(id));
            assert!((via_csr.strength(u) - via_builder.strength(u)).abs() < 1e-12);
        }
        assert_eq!(via_csr.edge_weight(1, 2), Some(5.0));
        assert_eq!(via_csr.edge_weight(3, 3), Some(5.0));
    }

    /// Bytes of the columns `graph` holds, counted by their lengths.
    fn column_bytes(graph: &CsrGraph) -> usize {
        use std::mem::size_of;
        let c = &*graph.inner;
        let u32s = c.offsets.len() + c.targets.len() + c.in_offsets.len() + c.in_targets.len();
        let f64s = c.weights.len()
            + c.in_weights.len()
            + c.strength.len()
            + c.weighted_degree.len()
            + c.self_loops.len();
        c.node_ids.len() * size_of::<NodeId>() + u32s * size_of::<u32>() + f64s * size_of::<f64>()
    }

    /// The graph of dense `edges` over `node_ids`, through every path that
    /// builds one from an edge list.
    fn through_every_path(
        directed: bool,
        node_ids: &[NodeId],
        (src, dst, w): (&[u32], &[u32], &[f64]),
    ) -> Vec<(&'static str, CsrGraph)> {
        let build = |threads| build_dense_csr(directed, node_ids.to_vec(), src, dst, w, threads);
        let budgeted = |budget| {
            let (ids, shards, threads) = (node_ids.to_vec(), Some(4), Some(2));
            crate::build_dense_csr_budgeted(
                directed, ids, src, dst, w, shards, threads, budget, None,
            )
            .expect("build")
        };
        // A window step from the first half and some stray edges to the
        // whole list: it evicts the strays and appends the second half.
        let half = src.len() / 2;
        let stray = (vec![20u32; 50], vec![21u32; 50], vec![2.0; 50]);
        let base_src = [&src[..half], &stray.0].concat();
        let base_dst = [&dst[..half], &stray.1].concat();
        let base_w = [&w[..half], &stray.2].concat();
        let base = build_dense_csr(
            directed,
            node_ids.to_vec(),
            &base_src,
            &base_dst,
            &base_w,
            None,
        );
        let step = base
            .apply_window(
                node_ids.to_vec(),
                None,
                crate::EdgeColumns::new(&stray.0, &stray.1, &stray.2),
                crate::EdgeColumns::new(&src[half..], &dst[half..], &w[half..]),
                Some(2),
            )
            .expect("window step");
        let mut builder = if directed {
            WeightedGraph::new_directed()
        } else {
            WeightedGraph::new_undirected()
        };
        for &id in node_ids {
            builder.add_node(id);
        }
        for ((&s, &d), &w) in src.iter().zip(dst).zip(w) {
            builder.add_edge(node_ids[s as usize], node_ids[d as usize], w);
        }
        vec![
            ("build at 1 thread", build(Some(1))),
            ("build at 4 threads", build(Some(4))),
            ("build at 4 shards", budgeted(None)),
            ("spilled build at 4 shards", budgeted(Some(0))),
            ("window step", step),
            ("freeze", builder.freeze()),
        ]
    }

    #[test]
    fn every_construction_path_reports_an_exact_footprint() {
        // 6 000 edges but only 143 distinct ordered pairs, (k % 13, k % 11),
        // each repeated about 42 times: a build's bucket columns hold a slot
        // per half-edge, far more than the merged rows. Nodes 13 to 23 stay
        // isolated.
        let node_ids: Vec<NodeId> = (0..24).map(|i| 7 * i + 3).collect();
        let src: Vec<u32> = (0..6000).map(|k| k % 13).collect();
        let dst: Vec<u32> = (0..6000).map(|k| k % 11).collect();
        let w: Vec<f64> = (0..6000).map(|k| f64::from(k % 4 + 1)).collect();
        let edges = (&src[..], &dst[..], &w[..]);
        let mut undirected = through_every_path(false, &node_ids, edges);
        let directed = through_every_path(true, &node_ids, edges);
        undirected.push(("to_undirected", directed[0].1.to_undirected()));
        let merged = undirected[0].1.offsets()[node_ids.len()] as usize;
        assert!(merged * 20 < 2 * src.len(), "{merged} merged entries");
        for graphs in [&undirected, &directed] {
            let want = column_bytes(&graphs[0].1);
            for (path, graph) in graphs {
                assert_eq!(graph.heap_bytes(), column_bytes(graph), "{path}");
                assert_eq!(graph.heap_bytes(), want, "{path}");
            }
        }
    }

    #[test]
    fn empty_graph_freezes() {
        let c = WeightedGraph::new_undirected().freeze();
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edges().count(), 0);
    }
}
