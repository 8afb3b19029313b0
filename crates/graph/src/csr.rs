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

use crate::{par, CsrBuilder, NodeId, WeightedGraph};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Cache-line width (bytes) the adjacency slabs align to.
pub const CACHE_LINE: usize = 64;

/// A read-only array whose data starts on a cache-line boundary.
///
/// The hot CSR sweeps stream `targets`/`weights` linearly; starting each
/// slab on a 64-byte boundary keeps the fixed-width batched loops (see
/// the PageRank pull sweep and the Louvain scan) from straddling an extra
/// line per block and gives the autovectorizer aligned loads to work
/// with. The crate forbids `unsafe`, so alignment is achieved by
/// over-allocating one cache line and exposing the aligned window —
/// [`AlignedSlab::heap_bytes`] reports the *padded* capacity so
/// [`CsrGraph::heap_bytes`] stays honest about the real footprint.
///
/// Equality, hashing-adjacent derives and `Debug` all go through the
/// logical slice, so two slabs with identical contents compare equal even
/// when their allocations landed at different alignments.
pub struct AlignedSlab<T> {
    buf: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: Copy + Default> AlignedSlab<T> {
    /// Elements per cache line (at least 1).
    fn lane_count() -> usize {
        (CACHE_LINE / std::mem::size_of::<T>().max(1)).max(1)
    }

    /// Copy `data` into a freshly aligned slab.
    pub fn from_slice(data: &[T]) -> Self {
        Self::concat(data.len(), [data])
    }

    /// Copy consecutive `parts`, `len` elements in all, into one freshly
    /// aligned slab — how the window kernel packs its per-chunk rows
    /// without an intermediate concatenated `Vec`.
    pub(crate) fn concat<'a>(len: usize, parts: impl IntoIterator<Item = &'a [T]>) -> Self
    where
        T: 'a,
    {
        if len == 0 {
            return Self::default();
        }
        let pad = Self::lane_count();
        let mut buf = vec![T::default(); len + pad];
        // `align_offset` may pessimistically refuse (returns usize::MAX);
        // alignment is a pure optimisation, so fall back to offset 0.
        let off = buf.as_ptr().align_offset(CACHE_LINE);
        let off = if off > pad { 0 } else { off };
        let mut at = off;
        for part in parts {
            buf[at..at + part.len()].copy_from_slice(part);
            at += part.len();
        }
        assert_eq!(at, off + len, "slab parts must fill the slab");
        Self { buf, off, len }
    }

    /// The logical contents.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Bytes of backing allocation, **including** the alignment padding.
    pub fn heap_bytes(&self) -> usize {
        self.buf.capacity() * std::mem::size_of::<T>()
    }
}

impl<T: Copy + Default> From<Vec<T>> for AlignedSlab<T> {
    fn from(data: Vec<T>) -> Self {
        Self::from_slice(&data)
    }
}

impl<T: Copy + Default> Default for AlignedSlab<T> {
    fn default() -> Self {
        Self {
            buf: Vec::new(),
            off: 0,
            len: 0,
        }
    }
}

impl<T: Copy + Default> Clone for AlignedSlab<T> {
    fn clone(&self) -> Self {
        // Re-pack instead of cloning the backing buffer: the clone's
        // allocation lands at a different address, so the aligned window
        // must be recomputed around the logical contents.
        Self::from_slice(self.as_slice())
    }
}

impl<T: Copy + Default> std::ops::Deref for AlignedSlab<T> {
    type Target = [T];
    #[inline]
    fn deref(&self) -> &[T] {
        self.as_slice()
    }
}

impl<T: Copy + Default + std::fmt::Debug> std::fmt::Debug for AlignedSlab<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for AlignedSlab<T> {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

/// The raw arrays of a CSR graph, handed to
/// [`CsrGraph::from_parts`] by construction paths that assemble the
/// adjacency themselves (the freeze path, the columnar
/// [`CsrBuilder`](crate::CsrBuilder) and the window kernel). Rows must
/// already be sorted by target index with duplicates merged.
#[derive(Debug, Clone, Default)]
pub(crate) struct CsrParts {
    /// Whether the graph is directed.
    pub directed: bool,
    /// External node ids in dense-index order.
    pub node_ids: Vec<NodeId>,
    /// Out-row offsets (`n + 1` entries).
    pub offsets: Vec<u32>,
    /// Out-row targets, sorted per row.
    pub targets: AlignedSlab<u32>,
    /// Out-row merged weights, parallel to `targets`.
    pub weights: AlignedSlab<f64>,
    /// In-row offsets (empty for undirected graphs).
    pub in_offsets: Vec<u32>,
    /// In-row targets (empty for undirected graphs).
    pub in_targets: AlignedSlab<u32>,
    /// In-row merged weights (empty for undirected graphs).
    pub in_weights: AlignedSlab<f64>,
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
/// adjacency slabs. The inner arrays are never mutated after
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
    targets: AlignedSlab<u32>,
    weights: AlignedSlab<f64>,
    in_offsets: Vec<u32>,
    in_targets: AlignedSlab<u32>,
    in_weights: AlignedSlab<f64>,
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
                targets: targets.into(),
                weights: weights.into(),
                in_offsets,
                in_targets: in_targets.into(),
                in_weights: in_weights.into(),
                degrees: None,
                edge_count: graph.edge_count(),
                total_weight: graph.total_weight(),
            },
            par::thread_count(None),
        )
    }

    /// Assemble a frozen graph from already-sorted-and-merged CSR arrays.
    /// Shared by [`CsrGraph::from_weighted`], the columnar
    /// [`CsrBuilder`](crate::CsrBuilder) and the window kernel, so every
    /// path caches the per-node weighted degrees through the same
    /// [`row_degrees`] sweep — which is what makes them bit-identical.
    /// The kernel passes the degrees it already holds; otherwise every
    /// row is swept here. The id index is left to the first lookup.
    pub(crate) fn from_parts(parts: CsrParts, threads: usize) -> CsrGraph {
        let CsrParts {
            directed,
            node_ids,
            offsets,
            targets,
            weights,
            in_offsets,
            in_targets,
            in_weights,
            degrees,
            edge_count,
            total_weight,
        } = parts;
        let n = node_ids.len();
        assert!(n <= u32::MAX as usize, "CSR index space is u32");
        debug_assert_eq!(offsets.len(), n + 1);

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
    /// assert that snapshot publication never deep-copies the slabs.
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

    /// Approximate heap footprint of the frozen arrays in bytes: the node
    /// table, both adjacency halves, the cached degree sweeps and — once
    /// a lookup by id has built it — the id index. The benchmark's
    /// `city_build` workload reports this as `graph.bytes` next to peak
    /// RSS, so the memory claims of city-scale builds stay auditable. The
    /// adjacency slabs report their **padded** capacity (each aligned
    /// slab over-allocates one cache line; see [`AlignedSlab`]), so the
    /// figure tracks what the allocator really handed out.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let index = self.inner.index.get().map_or(0, HashMap::capacity);
        self.inner.node_ids.capacity() * size_of::<NodeId>()
            + index * (size_of::<NodeId>() + size_of::<u32>())
            + (self.inner.offsets.capacity() + self.inner.in_offsets.capacity()) * size_of::<u32>()
            + self.inner.targets.heap_bytes()
            + self.inner.in_targets.heap_bytes()
            + self.inner.weights.heap_bytes()
            + self.inner.in_weights.heap_bytes()
            + (self.inner.strength.capacity()
                + self.inner.weighted_degree.capacity()
                + self.inner.self_loops.capacity())
                * size_of::<f64>()
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
        let mut strength = vec![0.0f64; n];
        let mut weighted_degree = vec![0.0f64; n];
        let mut self_loops = vec![0.0f64; n];
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
                strength[u] += w;
                if v as usize == u {
                    self_loops[u] = w;
                    weighted_degree[u] += 2.0 * w;
                    edge_count += 1;
                    total_weight += w;
                } else {
                    weighted_degree[u] += w;
                    if (v as usize) > u {
                        edge_count += 1;
                        total_weight += w;
                    }
                }
            }
            offsets.push(targets.len() as u32);
        }
        CsrGraph {
            inner: Arc::new(CsrInner {
                directed: false,
                node_ids: self.inner.node_ids.clone(),
                index: OnceLock::new(),
                offsets,
                targets: targets.into(),
                weights: weights.into(),
                in_offsets: Vec::new(),
                in_targets: AlignedSlab::default(),
                in_weights: AlignedSlab::default(),
                strength,
                weighted_degree,
                self_loops,
                edge_count,
                total_weight,
            }),
        }
    }

    /// A frozen graph containing only the nodes for which `keep` returns
    /// true (and the merged edges among them), preserving the relative
    /// dense order of the kept nodes. Matches
    /// [`WeightedGraph::subgraph`](crate::WeightedGraph::subgraph) followed
    /// by a freeze.
    pub fn subgraph<F: Fn(NodeId) -> bool>(&self, keep: F) -> CsrGraph {
        let mut builder = if self.inner.directed {
            CsrBuilder::directed()
        } else {
            CsrBuilder::undirected()
        };
        builder.seed_nodes(self.inner.node_ids.iter().copied().filter(|&id| keep(id)));
        for (src, dst, w) in self.edges() {
            if keep(src) && keep(dst) {
                builder.push(src, dst, w);
            }
        }
        builder.build()
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

    #[test]
    fn empty_graph_freezes() {
        let c = WeightedGraph::new_undirected().freeze();
        assert!(c.is_empty());
        assert_eq!(c.node_count(), 0);
        assert_eq!(c.edges().count(), 0);
    }

    /// Whether a slab's data starts on a cache-line boundary.
    fn is_aligned<T: Copy + Default>(slab: &AlignedSlab<T>) -> bool {
        slab.is_empty() || slab.as_ptr().align_offset(CACHE_LINE) == 0
    }

    #[test]
    fn aligned_slab_round_trips_and_aligns() {
        let data: Vec<u32> = (0..1000).collect();
        let slab = AlignedSlab::from_slice(&data);
        assert_eq!(slab.as_slice(), &data[..]);
        assert!(is_aligned(&slab), "u32 slab starts on a cache line");
        assert!(slab.heap_bytes() >= 1000 * 4, "padding counted");

        let f: Vec<f64> = (0..77).map(|i| i as f64 * 0.5).collect();
        let fslab: AlignedSlab<f64> = f.clone().into();
        assert_eq!(&*fslab, &f[..]);
        assert!(is_aligned(&fslab));

        // Clone re-packs around a fresh allocation but compares equal.
        let copy = slab.clone();
        assert_eq!(copy, slab);
        assert!(is_aligned(&copy));

        let empty = AlignedSlab::<f64>::default();
        assert!(empty.as_slice().is_empty());
        assert!(is_aligned(&empty));
        assert_eq!(empty.heap_bytes(), 0);
    }
}
