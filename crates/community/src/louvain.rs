//! The Louvain community-detection algorithm.
//!
//! Louvain (Blondel et al. 2008) is the detector the paper uses, chosen for
//! its "rapid convergence properties, high modularity, hierarchical
//! partitioning and its ability to incorporate weighted edges". The
//! implementation is the standard two-phase loop:
//!
//! 1. **Local moving.** Every node is repeatedly offered to the community of
//!    each of its neighbours; it takes the move with the largest positive
//!    modularity gain. The sweep repeats until no node moves.
//! 2. **Aggregation.** Each community collapses into a single super-node;
//!    intra-community weight becomes a self-loop. The local-moving phase
//!    then runs on the aggregated graph.
//!
//! The loop ends when an aggregation pass no longer improves modularity.
//! Node visiting order is dense index order by default, or a seeded shuffle
//! when [`LouvainConfig::seed`] is set — either way the result is
//! deterministic for a given input and configuration.
//!
//! Two implementations share that algorithm:
//!
//! * [`louvain_csr`] — the production path. It consumes a frozen
//!   [`CsrGraph`], reads level 0 in place from the graph's own columns,
//!   keeps every aggregated level in flat CSR arrays, replaces the
//!   per-node hash scratch with dense index-addressed buffers, and
//!   relabels memberships through the interned dense index in O(n).
//! * [`louvain_hashmap`] — the legacy path over the mutable
//!   [`WeightedGraph`], retained as the test oracle the equivalence
//!   tests check the CSR path's output against. Both paths run
//!   identical local-moving and aggregation arithmetic (neighbour scans,
//!   degree sums and merged edge weights accumulate in the same sorted
//!   order), so move decisions match exactly; only the per-pass
//!   modularity *gate* is computed by different routines whose sums can
//!   differ in the last ULP, and every gain comparison carries an epsilon
//!   guard, so the two paths produce identical partitions in practice
//!   (asserted exactly by the equivalence tests on random graphs and the
//!   synthetic dataset).
//!
//! [`louvain`] is the drop-in entry point: it freezes the builder graph
//! once and runs the CSR path.
//!
//! [`louvain_seeded`] is the **incremental** entry point for the windowed
//! lifecycle: the first local-moving phase starts from a previous
//! partition instead of singletons, so after a small evict/ingest delta
//! only nodes whose neighbourhoods changed move. The pass gate starts at
//! the seed's modularity and moves are never losing, so the result's
//! modularity never drops below the seed's; with an empty seed it is the
//! cold start bit-for-bit.
//!
//! [`louvain_scored`] runs either start and hands the result over on the
//! graph's dense node indices, with its modularity, so the detection
//! layer folds and scores it without looking a node up.
//!
//! ## Parallelism
//!
//! The CSR path runs its move scans and modularity accumulations on the
//! deterministic row-chunk scheduler ([`moby_graph::par`]). Each sweep
//! precomputes every node's best move in parallel against the sweep-start
//! state, then commits moves serially in visiting order, falling back to an
//! on-the-spot recomputation whenever a precomputed decision's inputs
//! changed — so the committed move sequence is exactly the serial one, and
//! the detected partition is **bit-identical at any thread count**
//! ([`LouvainConfig::threads`] / `MOBY_THREADS`). The serial sweep is
//! simply the 1-thread specialisation.

use crate::modularity::dense_modularity;
use crate::{modularity_hashmap, Partition};
use moby_graph::{par, CsrGraph, NodeId, WeightedGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashMap;

/// Configuration of the Louvain run.
#[derive(Debug, Clone, PartialEq)]
pub struct LouvainConfig {
    /// Optional shuffle seed for the node visiting order. `None` visits
    /// nodes in dense-index order (fully deterministic, the default).
    pub seed: Option<u64>,
    /// Maximum number of aggregation passes (each pass contains a full local
    /// moving phase). The algorithm almost always converges in < 10.
    pub max_passes: usize,
    /// Minimum modularity improvement for a pass to be considered progress.
    pub min_modularity_gain: f64,
    /// Worker-thread override for the CSR path's parallel move scans and
    /// modularity accumulations. `None` resolves `MOBY_THREADS`, then
    /// [`std::thread::available_parallelism`] (see [`par::thread_count`]).
    /// The detected partition is bit-identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for LouvainConfig {
    fn default() -> Self {
        Self {
            seed: None,
            max_passes: 20,
            min_modularity_gain: 1e-7,
            threads: None,
        }
    }
}

// ---------------------------------------------------------------------------
// CSR path (production)
// ---------------------------------------------------------------------------

/// One level of the aggregation hierarchy as borrowed flat CSR columns.
///
/// Level 0 reads the frozen graph in place ([`Level::frozen`]), so its
/// rows still hold each node's self-loop entry; the move scan skips it
/// ([`Level::row_runs`]). Every aggregated level borrows a [`CsrLevel`],
/// whose rows hold none. Either way `self_loops` holds each node's
/// self-loop weight and `degree` counts it twice, the standard convention.
#[derive(Clone, Copy)]
struct Level<'a> {
    offsets: &'a [u32],
    targets: &'a [u32],
    weights: &'a [f64],
    self_loops: &'a [f64],
    /// Weighted degree per node (self-loops twice).
    degree: &'a [f64],
    /// Total edge weight m (undirected edges once, self-loops once).
    m: f64,
    /// Whether a row may hold its own node's self-loop entry.
    loops_in_rows: bool,
}

impl<'a> Level<'a> {
    /// Level 0: the frozen graph's own columns and degree caches.
    fn frozen(graph: &'a CsrGraph) -> Level<'a> {
        let (offsets, targets, weights, degree, self_loops) = graph.columns();
        Level {
            offsets,
            targets,
            weights,
            self_loops,
            degree,
            m: graph.total_weight(),
            loops_in_rows: true,
        }
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, u: usize) -> (&'a [u32], &'a [f64]) {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
    }

    /// Row `u` without its self-loop entry, as the runs before and after
    /// it. Rows are sorted by target, so the two runs hold the other
    /// entries in row order.
    #[inline]
    fn row_runs(&self, u: usize) -> [(&'a [u32], &'a [f64]); 2] {
        let (targets, weights) = self.row(u);
        let at = if self.loops_in_rows {
            targets.partition_point(|&v| (v as usize) < u)
        } else {
            targets.len()
        };
        let after = at + usize::from(targets.get(at) == Some(&(u as u32)));
        [
            (&targets[..at], &weights[..at]),
            (&targets[after..], &weights[after..]),
        ]
    }
}

/// An aggregated level, owned. Self-loops are held out of the adjacency
/// rows (they never affect a move decision).
struct CsrLevel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    self_loops: Vec<f64>,
    degree: Vec<f64>,
    m: f64,
}

impl CsrLevel {
    fn view(&self) -> Level<'_> {
        Level {
            offsets: &self.offsets,
            targets: &self.targets,
            weights: &self.weights,
            self_loops: &self.self_loops,
            degree: &self.degree,
            m: self.m,
            loops_in_rows: false,
        }
    }
}

/// Per-worker scratch for a move scan: `links_to[c]` = weight from the
/// current node into community `c`; `touched` lists the communities with a
/// non-zero entry.
struct ScanScratch {
    links_to: Vec<f64>,
    touched: Vec<usize>,
}

impl ScanScratch {
    fn new(n: usize) -> ScanScratch {
        ScanScratch {
            links_to: vec![0.0f64; n],
            touched: Vec::new(),
        }
    }

    /// Add one run of row entries to `links_to`, by the community of each
    /// target.
    ///
    /// Fixed-width gather blocks: read a block of u32 targets and resolve
    /// their community labels branch-free into a register-resident block,
    /// then scatter the weights. The scatter walks the block in position
    /// order, so every per-community sum accumulates in exactly the scalar
    /// (and legacy hash-map path) order — batching buys the separation of
    /// the label gather from the branchy scatter, not a reassociation.
    #[inline]
    fn tally(&mut self, community: &[usize], targets: &[u32], weights: &[f64]) {
        const GATHER: usize = 8;
        let mut tc = targets.chunks_exact(GATHER);
        let mut wc = weights.chunks_exact(GATHER);
        let mut comms = [0usize; GATHER];
        for (t, w) in (&mut tc).zip(&mut wc) {
            for (slot, &nbr) in comms.iter_mut().zip(t) {
                *slot = community[nbr as usize];
            }
            for (j, &c) in comms.iter().enumerate() {
                if self.links_to[c] == 0.0 {
                    self.touched.push(c);
                }
                self.links_to[c] += w[j];
            }
        }
        for (&nbr, &w) in tc.remainder().iter().zip(wc.remainder()) {
            let c = community[nbr as usize];
            if self.links_to[c] == 0.0 {
                self.touched.push(c);
            }
            self.links_to[c] += w;
        }
    }
}

/// The move decision for one node against the *current* `community` /
/// `comm_degree` state: the community with the best modularity gain.
///
/// The gain of moving node i into community C (after removing i from its
/// own community) is `k_i_in_C / m - Σ_tot_C * k_i / (2 m²)`; comparing
/// across C the constant factor 1/m drops, leaving
/// `k_i_in_C - Σ_tot_C * k_i / (2m)`. Candidates are scanned in sorted
/// order for deterministic tie-breaks. This is shared verbatim by the
/// serial sweep, the parallel speculative scan and the commit-time
/// recomputation, so a decision is the same bits wherever it is evaluated.
fn scan_move_csr(
    graph: &Level,
    community: &[usize],
    comm_degree: &[f64],
    two_m: f64,
    scratch: &mut ScanScratch,
    node: usize,
) -> usize {
    let node_comm = community[node];
    let k_i = graph.degree[node];

    for &c in &scratch.touched {
        scratch.links_to[c] = 0.0;
    }
    scratch.touched.clear();
    // A self-loop links the node to no community (it counts in `k_i`
    // only), so the scan skips the entry level 0 keeps in the row. The two
    // runs around it add in row order, so every per-community sum is the
    // one a row without the entry gives.
    for (targets, weights) in graph.row_runs(node) {
        scratch.tally(community, targets, weights);
    }

    // Degree of the node's community with the node itself removed.
    let residual_own = comm_degree[node_comm] - k_i;
    let k_i_in_own = scratch.links_to[node_comm];
    let mut best_comm = node_comm;
    let mut best_gain = k_i_in_own - residual_own * k_i / two_m;
    scratch.touched.sort_unstable(); // deterministic tie-breaks
    for &c in &scratch.touched {
        if c == node_comm {
            continue;
        }
        let gain = scratch.links_to[c] - comm_degree[c] * k_i / two_m;
        if gain > best_gain + 1e-12 {
            best_gain = gain;
            best_comm = c;
        }
    }
    best_comm
}

/// One local-moving phase over a CSR level. Returns the community
/// assignment (labels are node indices — or seed labels when `init` is
/// given — possibly with gaps) and whether any node moved.
///
/// `init` seeds the starting assignment: each node begins in the given
/// community (labels must be `< n`) instead of its own singleton, and the
/// per-community degree sums are accumulated from that assignment in node
/// index order. `None` is the cold start — identical bits to passing the
/// identity assignment.
///
/// With `threads > 1` each sweep runs in two phases. **Scan:** the row
/// space is split into edge-balanced chunks ([`par::RowChunks`]) and every
/// node's best move is precomputed in parallel against the sweep-start
/// state. **Commit:** nodes are visited serially in `order`, exactly like
/// the serial sweep; a precomputed decision is used only if none of its
/// inputs (a neighbour's community, or the weighted degree of the node's
/// own or any neighbouring community) changed since the scan — otherwise
/// the decision is recomputed on the spot with the same arithmetic. Commits
/// therefore apply the identical move sequence the serial sweep would, and
/// the resulting partition is bit-identical at any thread count; the
/// parallel scan only prepays the scan cost of nodes whose neighbourhood
/// stayed untouched (the common case once the sweep starts converging).
fn local_moving_csr(
    graph: &Level,
    order: &[usize],
    threads: usize,
    init: Option<&[usize]>,
) -> (Vec<usize>, bool) {
    let n = graph.node_count();
    let mut community: Vec<usize> = match init {
        Some(labels) => {
            assert_eq!(labels.len(), n, "seed assignment must cover every node");
            debug_assert!(labels.iter().all(|&c| c < n));
            labels.to_vec()
        }
        None => (0..n).collect(),
    };
    let mut comm_degree: Vec<f64> = match init {
        Some(_) => {
            let mut cd = vec![0.0f64; n];
            for (u, &c) in community.iter().enumerate() {
                cd[c] += graph.degree[u];
            }
            cd
        }
        None => graph.degree.to_vec(),
    };
    let two_m = 2.0 * graph.m;
    if two_m <= 0.0 {
        return (community, false);
    }

    let mut moved_any = false;
    let mut improved = true;
    let mut scratch = ScanScratch::new(n);

    let chunks = par::RowChunks::from_offsets(graph.offsets);
    let speculate = threads > 1 && chunks.len() > 1;
    // Move stamps, used only when speculating: `tick` counts applied moves;
    // a node / community stamped after the sweep-start tick invalidates any
    // precomputed decision that read it.
    let mut tick: u64 = 0;
    let mut node_stamp = vec![0u64; if speculate { n } else { 0 }];
    let mut comm_stamp = vec![0u64; if speculate { n } else { 0 }];
    let mut best = vec![0u32; if speculate { n } else { 0 }];

    while improved {
        improved = false;
        if speculate {
            let community = &community;
            let comm_degree = &comm_degree;
            par::par_fill_with(
                &chunks,
                threads,
                &mut best,
                || ScanScratch::new(n),
                |scratch, _, range, out| {
                    for (j, node) in range.clone().enumerate() {
                        out[j] = scan_move_csr(graph, community, comm_degree, two_m, scratch, node)
                            as u32;
                    }
                },
            );
        }
        let scan_tick = tick;
        for &node in order {
            let node_comm = community[node];
            let fresh = speculate
                && comm_stamp[node_comm] <= scan_tick
                && graph.row(node).0.iter().all(|&nbr| {
                    let nbr = nbr as usize;
                    node_stamp[nbr] <= scan_tick && comm_stamp[community[nbr]] <= scan_tick
                });
            let best_comm = if fresh {
                best[node] as usize
            } else {
                scan_move_csr(graph, &community, &comm_degree, two_m, &mut scratch, node)
            };
            if best_comm != node_comm {
                let k_i = graph.degree[node];
                comm_degree[node_comm] -= k_i;
                comm_degree[best_comm] += k_i;
                community[node] = best_comm;
                if speculate {
                    tick += 1;
                    node_stamp[node] = tick;
                    comm_stamp[node_comm] = tick;
                    comm_stamp[best_comm] = tick;
                }
                improved = true;
                moved_any = true;
            }
        }
    }
    (community, moved_any)
}

/// Active-set variant of [`local_moving_csr`] for **seeded** sweeps.
///
/// The first sweep is whole-graph — it has to be, because modularity
/// gains depend on the global totals (`2m`, `Σ_tot`) and any windowed
/// delta perturbs them for every node, not just the touched rows. From
/// the second sweep on, the only nodes whose decision can differ from
/// the "stay" they already chose are the ones a committed move
/// invalidated: the members of the move's source and target communities
/// (their `Σ_tot` changed) plus every neighbour of those members (their
/// link weights into a changed community). Exact membership lists are
/// maintained across commits so each move marks precisely that dependent
/// set — marks landing *after* the current order position re-examine the
/// node in the same sweep (as the whole-graph sweep would), marks landing
/// before it carry into the next sweep. Skipped nodes are provably
/// no-ops, so the committed move sequence — and the returned assignment —
/// is **bit-identical** to [`local_moving_csr`] with the same seed.
///
/// A per-sweep marking budget (the level's edge count) guards the
/// degenerate case where moves cascade through huge communities: once
/// exceeded, the rest of the sweep and the whole next sweep run
/// whole-graph. Processing a superset is always exact — only the
/// *pruning* needs the dependency argument — so the fallback never
/// changes bits either.
fn local_moving_csr_active(
    graph: &Level,
    order: &[usize],
    threads: usize,
    init: &[usize],
) -> (Vec<usize>, bool) {
    let n = graph.node_count();
    assert_eq!(init.len(), n, "seed assignment must cover every node");
    debug_assert!(init.iter().all(|&c| c < n));
    let mut community: Vec<usize> = init.to_vec();
    let mut comm_degree = vec![0.0f64; n];
    for (u, &c) in community.iter().enumerate() {
        comm_degree[c] += graph.degree[u];
    }
    let two_m = 2.0 * graph.m;
    if two_m <= 0.0 {
        return (community, false);
    }

    // Exact community membership lists (swap-remove order is irrelevant —
    // they are only ever iterated to mark dependents).
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut member_pos: Vec<u32> = vec![0; n];
    for (u, &c) in community.iter().enumerate() {
        member_pos[u] = members[c].len() as u32;
        members[c].push(u as u32);
    }

    let mut dirty = vec![true; n];
    let mut dirty_count = n;
    let mark_budget = graph.targets.len() + n + 1;

    let mut moved_any = false;
    let mut improved = true;
    let mut scratch = ScanScratch::new(n);

    let chunks = par::RowChunks::from_offsets(graph.offsets);
    let can_speculate = threads > 1 && chunks.len() > 1;
    let mut tick: u64 = 0;
    let mut node_stamp = vec![0u64; if can_speculate { n } else { 0 }];
    let mut comm_stamp = vec![0u64; if can_speculate { n } else { 0 }];
    let mut best = vec![0u32; if can_speculate { n } else { 0 }];

    while improved {
        improved = false;
        // The speculative whole-row scan only pays off when most nodes
        // will be visited; a thin worklist is cheaper to rescan serially.
        // Either way the committed sequence equals the serial one, so the
        // heuristic cannot affect the result.
        let speculate = can_speculate && dirty_count * 2 >= n;
        if speculate {
            let community = &community;
            let comm_degree = &comm_degree;
            par::par_fill_with(
                &chunks,
                threads,
                &mut best,
                || ScanScratch::new(n),
                |scratch, _, range, out| {
                    for (j, node) in range.clone().enumerate() {
                        out[j] = scan_move_csr(graph, community, comm_degree, two_m, scratch, node)
                            as u32;
                    }
                },
            );
        }
        let scan_tick = tick;
        let mut marked = 0usize;
        let mut flood = false;
        for &node in order {
            if !(flood || dirty[node]) {
                continue;
            }
            dirty[node] = false;
            let node_comm = community[node];
            let fresh = speculate
                && comm_stamp[node_comm] <= scan_tick
                && graph.row(node).0.iter().all(|&nbr| {
                    let nbr = nbr as usize;
                    node_stamp[nbr] <= scan_tick && comm_stamp[community[nbr]] <= scan_tick
                });
            let best_comm = if fresh {
                best[node] as usize
            } else {
                scan_move_csr(graph, &community, &comm_degree, two_m, &mut scratch, node)
            };
            if best_comm != node_comm {
                let k_i = graph.degree[node];
                comm_degree[node_comm] -= k_i;
                comm_degree[best_comm] += k_i;
                community[node] = best_comm;
                if speculate {
                    tick += 1;
                    node_stamp[node] = tick;
                    comm_stamp[node_comm] = tick;
                    comm_stamp[best_comm] = tick;
                }
                // Move the node between membership lists: swap-remove it,
                // then record the new position of the member that took
                // its slot, if any.
                let pos = member_pos[node] as usize;
                members[node_comm].swap_remove(pos);
                if let Some(&swapped) = members[node_comm].get(pos) {
                    member_pos[swapped as usize] = pos as u32;
                }
                member_pos[node] = members[best_comm].len() as u32;
                members[best_comm].push(node as u32);
                // Mark the dependent set of this move.
                if !flood {
                    for comm in [node_comm, best_comm] {
                        for i in 0..members[comm].len() {
                            let y = members[comm][i] as usize;
                            dirty[y] = true;
                            let (row_t, _) = graph.row(y);
                            for &nbr in row_t {
                                dirty[nbr as usize] = true;
                            }
                            marked += row_t.len() + 1;
                        }
                    }
                    if marked > mark_budget {
                        flood = true;
                    }
                }
                improved = true;
                moved_any = true;
            }
        }
        if flood {
            dirty.iter_mut().for_each(|d| *d = true);
            dirty_count = n;
        } else {
            dirty_count = dirty.iter().filter(|&&d| d).count();
        }
    }
    (community, moved_any)
}

/// Compact arbitrary labels (< n) to `0..k` in first-appearance order —
/// the O(n) replacement for the old per-level `HashMap<NodeId, usize>`
/// rebuild: labels are already dense node indices, so a vector suffices.
fn compact_labels(community: &[usize]) -> (Vec<usize>, usize) {
    let mut relabel = vec![usize::MAX; community.len()];
    let mut compact = vec![0usize; community.len()];
    let mut next = 0usize;
    for (i, &c) in community.iter().enumerate() {
        if relabel[c] == usize::MAX {
            relabel[c] = next;
            next += 1;
        }
        compact[i] = relabel[c];
    }
    (compact, next)
}

/// Aggregate a level by compacted communities into the next CSR level.
///
/// Every contribution is taken in scan order (node index ascending,
/// self-loop before forward edges) and bucketed by its lower community in
/// a stable counting pass; a stable sort of each bucket then groups its
/// contributions per upper community. So each community pair, and the
/// total, add in scan order, as the oracle's builder-based aggregation
/// does, and the merged weights are bit-identical across the two paths.
/// Pairs come out ordered by (lower, upper), which fills every row in
/// ascending target order and adds each degree in that order.
fn aggregate_csr(graph: &Level, compact: &[usize], k: usize) -> CsrLevel {
    // Calls `f(lower, upper, weight)` for every contribution in scan order.
    // A self-loop entry left in a level-0 row has `j == i` and is skipped.
    fn scan(graph: &Level, compact: &[usize], mut f: impl FnMut(usize, usize, f64)) {
        for i in 0..graph.node_count() {
            let ci = compact[i];
            if graph.self_loops[i] > 0.0 {
                f(ci, ci, graph.self_loops[i]);
            }
            let (targets, weights) = graph.row(i);
            for (&j, &w) in targets.iter().zip(weights) {
                if (j as usize) > i {
                    let cj = compact[j as usize];
                    f(ci.min(cj), ci.max(cj), w);
                }
            }
        }
    }
    // Stable counting pass: bucket each contribution's (upper, weight) by
    // its lower community, in scan order.
    let mut start = vec![0usize; k + 1];
    scan(graph, compact, |lo, _, _| start[lo + 1] += 1);
    for c in 0..k {
        start[c + 1] += start[c];
    }
    let mut cursor = start[..k].to_vec();
    let mut bucketed = vec![(0u32, 0.0f64); start[k]];
    let mut m = 0.0f64;
    scan(graph, compact, |lo, hi, w| {
        bucketed[cursor[lo]] = (hi as u32, w);
        cursor[lo] += 1;
        m += w;
    });

    let mut self_loops = vec![0.0f64; k];
    let mut degree = vec![0.0f64; k];
    let mut row_len = vec![0u32; k];
    let mut pairs: Vec<(u32, u32, f64)> = Vec::new();
    for lo in 0..k {
        let bucket = &mut bucketed[start[lo]..start[lo + 1]];
        // Stable, so each pair's run keeps scan order.
        bucket.sort_by_key(|&(hi, _)| hi);
        for run in bucket.chunk_by(|a, b| a.0 == b.0) {
            let hi = run[0].0 as usize;
            let w = run.iter().fold(0.0, |sum, &(_, w)| sum + w);
            if hi == lo {
                self_loops[lo] = w;
                degree[lo] += 2.0 * w;
            } else {
                degree[lo] += w;
                degree[hi] += w;
                row_len[lo] += 1;
                row_len[hi] += 1;
                pairs.push((lo as u32, hi as u32, w));
            }
        }
    }

    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0u32);
    for c in 0..k {
        offsets.push(offsets[c] + row_len[c]);
    }
    let mut fill = offsets[..k].to_vec();
    let mut targets = vec![0u32; 2 * pairs.len()];
    let mut weights = vec![0.0f64; 2 * pairs.len()];
    for &(lo, hi, w) in &pairs {
        for (row, target) in [(lo, hi), (hi, lo)] {
            let at = fill[row as usize] as usize;
            targets[at] = target;
            weights[at] = w;
            fill[row as usize] += 1;
        }
    }
    CsrLevel {
        offsets,
        targets,
        weights,
        self_loops,
        degree,
        m,
    }
}

/// Shared Louvain driver over an undirected graph `g`: the partition, with
/// each dense node's label in it (canonical `0..k`) and `k`. `seed` seeds
/// the first local-moving phase ([`seed_labels`]); `active` runs that
/// phase's sweeps on the active set.
///
/// Level 0 reads `g`'s columns in place; every later level is an owned
/// aggregate. The seed only changes where the *first* local-moving phase
/// starts — every later level begins from the aggregated singletons as
/// usual. The relabel step runs even when no node moved (for a cold start
/// the identity community compacts to the identity, so this is
/// bit-identical to breaking first; for a seeded start it is what carries
/// an already-optimal seed into the result instead of discarding it).
fn louvain_csr_impl(
    g: &CsrGraph,
    seed: Option<&Partition>,
    active: bool,
    config: &LouvainConfig,
) -> (Partition, Vec<usize>, usize) {
    let n = g.node_count();
    if n == 0 {
        return (Partition::new(), Vec::new(), 0);
    }

    let threads = par::thread_count(config.threads);
    let mut init = seed.map(|seed| seed_labels(g, seed));
    // Every membership label is `< k`.
    let mut membership: Vec<usize> = (0..n).collect();
    let mut k = n;
    let mut aggregated: Option<CsrLevel> = None;
    let mut rng = config.seed.map(StdRng::seed_from_u64);
    // The pass gate starts from the seed's modularity (cold: singletons),
    // so a pass only counts as progress if it beats the state it started
    // from — local moving never commits a losing move, so the final
    // partition's modularity is never below the seed's. That start is
    // scored only once the first pass has moved a node: when none moves,
    // the loop ends before the gate runs.
    let mut last_q: Option<f64> = None;

    for _ in 0..config.max_passes {
        let level = aggregated
            .as_ref()
            .map_or_else(|| Level::frozen(g), CsrLevel::view);
        let mut order: Vec<usize> = (0..level.node_count()).collect();
        if let Some(rng) = rng.as_mut() {
            order.shuffle(rng);
        }
        // `take` leaves `None` behind: the seed applies to the first pass only.
        let level_init = init.take();
        let (community, moved) = match &level_init {
            Some(labels) if active => local_moving_csr_active(&level, &order, threads, labels),
            _ => local_moving_csr(&level, &order, threads, level_init.as_deref()),
        };
        // In the first pass `membership` still holds the singletons a cold
        // start began from.
        let start = moved.then(|| {
            last_q.unwrap_or_else(|| {
                let begun = level_init.as_deref().unwrap_or(&membership);
                dense_modularity(g, begun, n, threads)
            })
        });
        let (compact, level_k) = compact_labels(&community);
        k = level_k;
        // Membership values are dense indices of the current level, so the
        // per-level relabel is a direct vector lookup.
        for m in membership.iter_mut() {
            *m = compact[*m];
        }
        let Some(start) = start else {
            break;
        };

        let next = aggregate_csr(&level, &compact, k);
        let q = dense_modularity(g, &membership, k, threads);
        if q - start < config.min_modularity_gain {
            // Keep the (slightly) better assignment but stop iterating.
            break;
        }
        last_q = Some(q);
        aggregated = Some(next);
    }
    let partition = Partition::from_dense(g.node_ids(), &mut membership, k);
    (partition, membership, k)
}

/// Run the Louvain algorithm over a frozen undirected [`CsrGraph`]
/// (directed graphs are projected to undirected first) and return the
/// detected partition with canonical community labels `0..k`.
pub fn louvain_csr(graph: &CsrGraph, config: &LouvainConfig) -> Partition {
    louvain_csr_impl(&graph.to_undirected(), None, false, config).0
}

/// Run Louvain **seeded from a previous partition**: the first
/// local-moving phase starts from `seed`'s assignment instead of
/// singletons, so after a small windowed update only the nodes whose
/// neighbourhoods actually changed move — the incremental-refresh path of
/// the windowed lifecycle.
///
/// Nodes missing from `seed` (e.g. stations that entered with the latest
/// batch) start as fresh singletons; seed entries for nodes the graph no
/// longer contains are ignored. The pass gate is initialised to the
/// seed's modularity and local moving never commits a losing move, so the
/// returned partition's modularity is **never below the seed's** on the
/// current graph. Callers wanting the stronger
/// modularity-no-worse-than-reseed gate compare against a cold
/// [`louvain_csr`] run (the windowed bench does exactly that — greedy
/// local moving from different starts can settle in different basins, so
/// strict dominance over the cold run is not a theorem, but the seed
/// floor is). An empty seed degenerates to the cold start bit-for-bit.
pub fn louvain_seeded(graph: &CsrGraph, seed: &Partition, config: &LouvainConfig) -> Partition {
    louvain_csr_impl(&graph.to_undirected(), Some(seed), false, config).0
}

/// [`louvain_seeded`] with **active-set** local moving: after the first
/// sweep of the seeded pass, which is always whole-graph, only the nodes
/// a committed move invalidated are re-examined — the members of the
/// move's source and target communities plus their neighbours (the
/// internal `local_moving_csr_active` scan). That trims the later sweeps
/// of the first pass only: the run still makes that whole-graph sweep,
/// and every later pass sweeps its whole aggregated level.
///
/// The returned partition is **bit-identical** to [`louvain_seeded`] for
/// the same inputs — the skipped nodes are provably no-ops — so callers
/// can switch on it purely as a performance policy (the windowed pipeline
/// does, when the delta touched a minority of rows).
pub fn louvain_seeded_active(
    graph: &CsrGraph,
    seed: &Partition,
    config: &LouvainConfig,
) -> Partition {
    louvain_csr_impl(&graph.to_undirected(), Some(seed), true, config).0
}

/// A Louvain partition handed over on the graph's dense node indices, with
/// its modularity: what [`louvain_scored`] returns.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredPartition {
    /// The detected partition, with the canonical labels `0..k` of
    /// [`louvain_csr`].
    pub partition: Partition,
    /// `labels[u]` is the community in `partition` of the graph's dense
    /// node `u` (its `node_ids()[u]`).
    pub labels: Vec<usize>,
    /// The partition's modularity on the graph: the bits
    /// [`modularity_csr_threads`](crate::modularity_csr_threads) gives for
    /// `partition` at the run's `threads`.
    pub modularity: f64,
}

/// Run Louvain cold (`seed` `None`, as [`louvain_csr`]) or seeded (as
/// [`louvain_seeded`], or [`louvain_seeded_active`] when `active` is set;
/// `active` changes nothing in a cold run), and return its partition with
/// each dense node's label and the partition's modularity. The three are
/// bit for bit those entry points' partition and
/// [`modularity_csr_threads`](crate::modularity_csr_threads) of it, but a
/// caller that folds or tables the result per node reads the labels
/// without a lookup, and the score is taken on those labels directly.
pub fn louvain_scored(
    graph: &CsrGraph,
    seed: Option<&Partition>,
    active: bool,
    config: &LouvainConfig,
) -> ScoredPartition {
    let g = graph.to_undirected();
    let (partition, labels, k) = louvain_csr_impl(&g, seed, active, config);
    let modularity = dense_modularity(&g, &labels, k, par::thread_count(config.threads));
    ScoredPartition {
        partition,
        labels,
        modularity,
    }
}

/// Compact a seed partition's labels to dense `0..k` in first-appearance
/// (dense node index) order; unseeded nodes get fresh singleton labels
/// from the same counter. Every label stays < `n`, as the level scratch
/// requires.
fn seed_labels(graph: &CsrGraph, seed: &Partition) -> Vec<usize> {
    let (ranked, distinct) = seed.ranked_labels(graph.node_ids());
    let mut relabel = vec![usize::MAX; distinct];
    let mut next = 0usize;
    ranked
        .into_iter()
        .map(|rank| match rank {
            Some(r) => {
                if relabel[r] == usize::MAX {
                    relabel[r] = next;
                    next += 1;
                }
                relabel[r]
            }
            None => {
                next += 1;
                next - 1
            }
        })
        .collect()
}

/// Run Louvain over a builder graph: freezes once, then runs the CSR path
/// (which projects directed graphs to undirected itself).
pub fn louvain(graph: &WeightedGraph, config: &LouvainConfig) -> Partition {
    louvain_csr(&graph.freeze(), config)
}

// ---------------------------------------------------------------------------
// HashMap path (the test oracle)
// ---------------------------------------------------------------------------

/// Internal working representation of the (aggregated) graph for one pass.
struct LocalGraph {
    /// Adjacency: for each node, (neighbour, weight), excluding self-loops.
    adj: Vec<Vec<(usize, f64)>>,
    /// Self-loop weight per node.
    self_loops: Vec<f64>,
    /// Weighted degree per node (self-loops count twice).
    degree: Vec<f64>,
    /// Total edge weight m (undirected edges once, self-loops once).
    m: f64,
}

impl LocalGraph {
    fn from_weighted(graph: &WeightedGraph) -> Self {
        let n = graph.node_count();
        let mut adj = vec![Vec::new(); n];
        let mut self_loops = vec![0.0; n];
        let mut degree = vec![0.0; n];
        let mut row: Vec<(usize, f64)> = Vec::new();
        for i in 0..n {
            row.clear();
            row.extend(graph.neighbors(i));
            // Deterministic neighbour order — also fixes the accumulation
            // order of `degree`, keeping it bit-identical to the CSR path's
            // cached weighted degrees.
            row.sort_unstable_by_key(|a| a.0);
            for &(j, w) in &row {
                if i == j {
                    self_loops[i] = w;
                    degree[i] += 2.0 * w;
                } else {
                    adj[i].push((j, w));
                    degree[i] += w;
                }
            }
        }
        let m = graph.total_weight();
        Self {
            adj,
            self_loops,
            degree,
            m,
        }
    }

    fn node_count(&self) -> usize {
        self.adj.len()
    }
}

/// One local-moving phase. Returns the community assignment (dense labels
/// may have gaps) and whether any node moved.
fn local_moving(graph: &LocalGraph, order: &[usize]) -> (Vec<usize>, bool) {
    let n = graph.node_count();
    let mut community: Vec<usize> = (0..n).collect();
    // Total degree per community.
    let mut comm_degree: Vec<f64> = graph.degree.clone();
    let two_m = 2.0 * graph.m;
    if two_m <= 0.0 {
        return (community, false);
    }

    let mut moved_any = false;
    let mut improved = true;
    // Re-usable scratch map: community -> weight of links from current node.
    let mut links_to_comm: HashMap<usize, f64> = HashMap::new();

    while improved {
        improved = false;
        for &node in order {
            let node_comm = community[node];
            let k_i = graph.degree[node];

            links_to_comm.clear();
            for &(nbr, w) in &graph.adj[node] {
                *links_to_comm.entry(community[nbr]).or_insert(0.0) += w;
            }

            // Degree of the node's community with the node itself removed —
            // computed without writing back, mirroring the CSR path's
            // `scan_move_csr` arithmetic exactly (the write-back only
            // happens when a move is committed, in both paths).
            let residual_own = comm_degree[node_comm] - k_i;
            let k_i_in_own = links_to_comm.get(&node_comm).copied().unwrap_or(0.0);

            let mut best_comm = node_comm;
            let mut best_gain = k_i_in_own - residual_own * k_i / two_m;
            let mut candidates: Vec<(usize, f64)> =
                links_to_comm.iter().map(|(&c, &w)| (c, w)).collect();
            candidates.sort_by_key(|a| a.0); // deterministic tie-breaks
            for (c, k_i_in_c) in candidates {
                if c == node_comm {
                    continue;
                }
                let gain = k_i_in_c - comm_degree[c] * k_i / two_m;
                if gain > best_gain + 1e-12 {
                    best_gain = gain;
                    best_comm = c;
                }
            }

            if best_comm != node_comm {
                comm_degree[node_comm] -= k_i;
                comm_degree[best_comm] += k_i;
                community[node] = best_comm;
                improved = true;
                moved_any = true;
            }
        }
    }
    (community, moved_any)
}

/// Aggregate a graph by communities: each community becomes one node whose
/// id is the community label; edge weights are summed.
fn aggregate(graph: &LocalGraph, community: &[usize]) -> WeightedGraph {
    let mut agg = WeightedGraph::new_undirected();
    // Ensure every community node exists even if it has no edges.
    for &c in community {
        agg.add_node(c as NodeId);
    }
    for i in 0..graph.node_count() {
        let ci = community[i] as NodeId;
        if graph.self_loops[i] > 0.0 {
            agg.add_edge(ci, ci, graph.self_loops[i]);
        }
        for &(j, w) in &graph.adj[i] {
            if j > i {
                let cj = community[j] as NodeId;
                agg.add_edge(ci, cj, w);
            }
        }
    }
    agg
}

/// The legacy Louvain implementation walking `HashMap` adjacency at every
/// level. Kept as the test oracle: the equivalence tests validate the CSR
/// path's output against it. Produces partitions matching
/// [`louvain_csr`].
pub fn louvain_hashmap(graph: &WeightedGraph, config: &LouvainConfig) -> Partition {
    let undirected;
    let g0 = if graph.is_directed() {
        undirected = graph.to_undirected();
        &undirected
    } else {
        graph
    };
    if g0.node_count() == 0 {
        return Partition::new();
    }

    // Work on a relabelled copy whose node ids are the dense indices of
    // `g0`, so that membership values always match the current graph's node
    // ids (after each aggregation pass the node ids are community labels).
    let original_ids: Vec<NodeId> = g0.node_ids().to_vec();
    let n = original_ids.len();
    let mut current = WeightedGraph::new_undirected();
    for i in 0..n {
        current.add_node(i as NodeId);
    }
    for (src, dst, w) in g0.edges() {
        let si = g0.index_of(src).expect("edge endpoint exists") as NodeId;
        let di = g0.index_of(dst).expect("edge endpoint exists") as NodeId;
        current.add_edge(si, di, w);
    }
    let mut membership: Vec<usize> = (0..n).collect();
    let mut rng = config.seed.map(StdRng::seed_from_u64);
    let mut last_q = modularity_hashmap(g0, &membership_to_partition(&original_ids, &membership));

    for _pass in 0..config.max_passes {
        let local = LocalGraph::from_weighted(&current);
        let mut order: Vec<usize> = (0..local.node_count()).collect();
        if let Some(rng) = rng.as_mut() {
            order.shuffle(rng);
        }
        let (community, moved) = local_moving(&local, &order);
        if !moved {
            break;
        }
        // Compact community labels to 0..k for the aggregated graph. The
        // current graph's node ids are its own dense indices (aggregation
        // labels communities 0..k in first-appearance order), so membership
        // values map through `compact` directly — no per-level
        // `HashMap<NodeId, usize>` rebuild.
        let (compact, _k) = compact_labels(&community);
        for m in membership.iter_mut() {
            *m = compact[*m];
        }

        let aggregated = aggregate(&local, &compact);
        let q = modularity_hashmap(g0, &membership_to_partition(&original_ids, &membership));
        if q - last_q < config.min_modularity_gain {
            // Keep the (slightly) better assignment but stop iterating.
            break;
        }
        last_q = q;
        current = aggregated;
    }

    membership_to_partition(&original_ids, &membership).renumbered()
}

fn membership_to_partition(ids: &[NodeId], membership: &[usize]) -> Partition {
    ids.iter()
        .zip(membership)
        .map(|(&id, &c)| (id, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{modularity, modularity_csr_threads};
    use rand::Rng;

    fn two_cliques(bridge_weight: f64) -> WeightedGraph {
        let mut g = WeightedGraph::new_undirected();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
            g.add_edge(a, b, 5.0);
        }
        g.add_edge(3, 4, bridge_weight);
        g
    }

    #[test]
    fn empty_graph_gives_empty_partition() {
        let g = WeightedGraph::new_undirected();
        assert!(louvain(&g, &LouvainConfig::default()).is_empty());
        assert!(louvain_hashmap(&g, &LouvainConfig::default()).is_empty());
    }

    #[test]
    fn single_node_graph() {
        let mut g = WeightedGraph::new_undirected();
        g.add_node(7);
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.len(), 1);
        assert_eq!(p.community_count(), 1);
    }

    #[test]
    fn two_cliques_are_split() {
        let p = louvain(&two_cliques(1.0), &LouvainConfig::default());
        assert_eq!(p.community_count(), 2);
        assert_eq!(p.community_of(1), p.community_of(2));
        assert_eq!(p.community_of(1), p.community_of(3));
        assert_eq!(p.community_of(4), p.community_of(5));
        assert_ne!(p.community_of(1), p.community_of(4));
    }

    #[test]
    fn deterministic_for_fixed_config() {
        let g = two_cliques(1.0);
        let a = louvain(&g, &LouvainConfig::default());
        let b = louvain(&g, &LouvainConfig::default());
        assert_eq!(a, b);
        let seeded = LouvainConfig {
            seed: Some(3),
            ..Default::default()
        };
        assert_eq!(louvain(&g, &seeded), louvain(&g, &seeded));
    }

    #[test]
    fn aggregation_sums_each_pair_in_scan_order() {
        // Community pair (A, B) first receives 1e16 from node 0's row, then
        // 40 edges of 1.0 interleaved with A-C edges. In scan order each
        // 1.0 rounds away (1e16 + 1 ties to the even 1e16), so the merged
        // weight is exactly 1e16; a fold taking the 1.0 entries first
        // would give 1e16 + 40.
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(0, 1, 1e16);
        for i in 0..40u64 {
            let a = 2 + 3 * i;
            g.add_edge(a, a + 1, 1.0);
            g.add_edge(a, a + 2, 1.0);
        }
        let frozen = g.freeze();
        let community = |id: NodeId| match id {
            0 | 1 => id as usize,
            _ => ((id - 2) % 3) as usize,
        };
        let compact: Vec<usize> = frozen.node_ids().iter().map(|&id| community(id)).collect();
        let aggregated = aggregate_csr(&Level::frozen(&frozen), &compact, 3);
        let aggregated = aggregated.view();
        let (targets, weights) = aggregated.row(0);
        assert_eq!(targets, &[1, 2]);
        assert_eq!(weights[0].to_bits(), 1e16f64.to_bits());
        assert_eq!(weights[1], 40.0);
        assert_eq!(aggregated.row(1).1[0].to_bits(), 1e16f64.to_bits());
    }

    #[test]
    fn louvain_partition_beats_trivial_partitions() {
        let g = two_cliques(1.0);
        let p = louvain(&g, &LouvainConfig::default());
        let q = modularity(&g, &p);
        let q_single = modularity(&g, &g.node_ids().iter().map(|&n| (n, 0usize)).collect());
        let q_singletons = modularity(&g, &Partition::singletons(g.node_ids()));
        assert!(q >= q_single);
        assert!(q >= q_singletons);
        assert!(q > 0.3);
    }

    #[test]
    fn ring_of_cliques_recovers_cliques() {
        // Four 4-cliques connected in a ring by single edges: the canonical
        // Louvain test case; expected answer is 4 communities.
        let mut g = WeightedGraph::new_undirected();
        let clique_nodes: Vec<Vec<u64>> = (0..4)
            .map(|c| (0..4).map(|i| c * 4 + i + 1).collect())
            .collect();
        for nodes in &clique_nodes {
            for i in 0..nodes.len() {
                for j in (i + 1)..nodes.len() {
                    g.add_edge(nodes[i], nodes[j], 1.0);
                }
            }
        }
        for c in 0..4usize {
            let from = clique_nodes[c][0];
            let to = clique_nodes[(c + 1) % 4][1];
            g.add_edge(from, to, 1.0);
        }
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.community_count(), 4);
        for nodes in &clique_nodes {
            let c0 = p.community_of(nodes[0]);
            for &n in nodes {
                assert_eq!(p.community_of(n), c0);
            }
        }
    }

    #[test]
    fn weighted_edges_dominate_topology() {
        // A path 1-2-3-4 where 1-2 and 3-4 are heavy and 2-3 light: the cut
        // should fall on the light edge.
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 10.0);
        g.add_edge(2, 3, 0.5);
        g.add_edge(3, 4, 10.0);
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.community_of(1), p.community_of(2));
        assert_eq!(p.community_of(3), p.community_of(4));
        assert_ne!(p.community_of(2), p.community_of(3));
    }

    #[test]
    fn strong_bridge_merges_cliques() {
        // If the bridge is overwhelmingly heavy, the bridge endpoints are
        // pulled into the same community (possibly splitting off the clique
        // remainders, so up to 3 communities remain).
        let p = louvain(&two_cliques(100.0), &LouvainConfig::default());
        assert!(p.community_count() <= 3);
        // Nodes 3 and 4 (the bridge endpoints) must share a community.
        assert_eq!(p.community_of(3), p.community_of(4));
    }

    #[test]
    fn every_node_is_assigned() {
        let g = two_cliques(1.0);
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.len(), g.node_count());
        for &id in g.node_ids() {
            assert!(p.community_of(id).is_some());
        }
    }

    #[test]
    fn random_graph_modularity_is_sane() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = WeightedGraph::new_undirected();
        // Three planted communities of 20 nodes.
        for c in 0..3u64 {
            for i in 0..20u64 {
                for j in (i + 1)..20 {
                    if rng.gen::<f64>() < 0.4 {
                        g.add_edge(c * 100 + i, c * 100 + j, 1.0);
                    }
                }
            }
        }
        // Sparse noise between communities.
        for _ in 0..30 {
            let a = rng.gen_range(0..3u64) * 100 + rng.gen_range(0..20u64);
            let b = rng.gen_range(0..3u64) * 100 + rng.gen_range(0..20u64);
            if a != b {
                g.add_edge(a, b, 1.0);
            }
        }
        let p = louvain(&g, &LouvainConfig::default());
        let q = modularity(&g, &p);
        assert!(q > 0.4, "expected strong community structure, q = {q}");
        assert!(p.community_count() >= 3);
        assert!(p.community_count() <= 6);
    }

    #[test]
    fn isolated_nodes_form_their_own_communities() {
        let mut g = two_cliques(1.0);
        g.add_node(100);
        g.add_node(101);
        let p = louvain(&g, &LouvainConfig::default());
        assert_eq!(p.len(), 8);
        assert_ne!(p.community_of(100), p.community_of(101));
        assert_ne!(p.community_of(100), p.community_of(1));
    }

    /// Random graph shared by the equivalence tests below.
    fn random_graph(seed: u64, directed: bool) -> WeightedGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = if directed {
            WeightedGraph::new_directed()
        } else {
            WeightedGraph::new_undirected()
        };
        for _ in 0..rng.gen_range(30..200) {
            let a = rng.gen_range(0..40u64);
            let b = rng.gen_range(0..40u64);
            g.add_edge(a, b, rng.gen_range(1.0..6.0));
        }
        g
    }

    #[test]
    fn csr_and_hashmap_paths_agree_exactly() {
        for seed in 0..12u64 {
            let g = random_graph(seed, seed % 3 == 0);
            let cfg = LouvainConfig::default();
            let p_csr = louvain(&g, &cfg);
            let p_hash = louvain_hashmap(&g, &cfg);
            assert_eq!(p_csr, p_hash, "partitions diverged for seed {seed}");
        }
    }

    #[test]
    fn csr_and_hashmap_paths_agree_with_seeded_shuffle() {
        for seed in 0..6u64 {
            let g = random_graph(100 + seed, false);
            let cfg = LouvainConfig {
                seed: Some(seed),
                ..Default::default()
            };
            assert_eq!(louvain(&g, &cfg), louvain_hashmap(&g, &cfg));
        }
    }

    #[test]
    fn parallel_thread_counts_produce_identical_partitions() {
        // Big enough that the level's row space splits into several chunks
        // and the speculative scan path actually runs.
        let mut rng = StdRng::seed_from_u64(42);
        let mut g = WeightedGraph::new_undirected();
        for c in 0..6u64 {
            for _ in 0..180 {
                let a = c * 1_000 + rng.gen_range(0..30u64);
                let b = c * 1_000 + rng.gen_range(0..30u64);
                g.add_edge(a, b, rng.gen_range(1.0..4.0));
            }
        }
        for _ in 0..60 {
            let a = rng.gen_range(0..6u64) * 1_000 + rng.gen_range(0..30u64);
            let b = rng.gen_range(0..6u64) * 1_000 + rng.gen_range(0..30u64);
            g.add_edge(a, b, 1.0);
        }
        let frozen = g.freeze();
        for seed in [None, Some(7u64)] {
            let serial = louvain_csr(
                &frozen,
                &LouvainConfig {
                    seed,
                    threads: Some(1),
                    ..Default::default()
                },
            );
            assert_eq!(
                serial,
                louvain_hashmap(
                    &g,
                    &LouvainConfig {
                        seed,
                        ..Default::default()
                    }
                ),
                "serial CSR vs hashmap (seed {seed:?})"
            );
            for t in [2usize, 4, 8] {
                let parallel = louvain_csr(
                    &frozen,
                    &LouvainConfig {
                        seed,
                        threads: Some(t),
                        ..Default::default()
                    },
                );
                assert_eq!(serial, parallel, "{t} threads diverged (seed {seed:?})");
            }
        }
    }

    #[test]
    fn louvain_csr_runs_on_prefrozen_graph() {
        let g = two_cliques(1.0);
        let frozen = g.freeze();
        let p = louvain_csr(&frozen, &LouvainConfig::default());
        assert_eq!(p, louvain(&g, &LouvainConfig::default()));
    }

    #[test]
    fn seeded_with_empty_partition_is_the_cold_start() {
        for seed in 0..6u64 {
            let frozen = random_graph(200 + seed, seed % 2 == 0).freeze();
            let cfg = LouvainConfig::default();
            assert_eq!(
                louvain_seeded(&frozen, &Partition::new(), &cfg),
                louvain_csr(&frozen, &cfg),
                "empty seed must degenerate to the cold start (seed {seed})"
            );
        }
    }

    #[test]
    fn seeded_from_own_partition_is_a_fixed_point_when_node_optimal() {
        // On the two-clique graph the cold partition is optimal under
        // single-node moves, so reseeding from it moves nothing — the
        // relabel must carry the seed through to the result instead of
        // discarding it for singletons.
        for g in [two_cliques(1.0), two_cliques(0.25)] {
            let frozen = g.freeze();
            let cfg = LouvainConfig::default();
            let cold = louvain_csr(&frozen, &cfg);
            assert_eq!(louvain_seeded(&frozen, &cold, &cfg), cold);
        }
    }

    #[test]
    fn reseeding_from_own_partition_never_loses_modularity() {
        // A flattened multi-level partition is not always optimal under
        // *node-level* moves, so reseeding may legitimately keep improving
        // — but it must never come back worse.
        use crate::modularity_csr;
        for seed in 0..6u64 {
            let frozen = random_graph(300 + seed, false).freeze();
            let cfg = LouvainConfig::default();
            let cold = louvain_csr(&frozen, &cfg);
            let reseeded = louvain_seeded(&frozen, &cold, &cfg);
            assert!(
                modularity_csr(&frozen, &reseeded) >= modularity_csr(&frozen, &cold) - 1e-12,
                "reseed lost modularity (seed {seed})"
            );
        }
    }

    #[test]
    fn seeded_modularity_never_below_seed() {
        use crate::modularity_csr;
        for seed in 0..8u64 {
            let frozen = random_graph(400 + seed, false).freeze();
            let cfg = LouvainConfig::default();
            // Seed from a *different* (shuffled) run so the seed is a real
            // partition but not necessarily this run's optimum.
            let shuffled = LouvainConfig {
                seed: Some(seed),
                ..Default::default()
            };
            let prior = louvain_csr(&frozen, &shuffled);
            let refreshed = louvain_seeded(&frozen, &prior, &cfg);
            let q_seed = modularity_csr(&frozen, &prior);
            let q_refreshed = modularity_csr(&frozen, &refreshed);
            assert!(
                q_refreshed >= q_seed - 1e-12,
                "seeded run lost modularity: {q_refreshed} < {q_seed} (seed {seed})"
            );
        }
    }

    #[test]
    fn seeded_handles_partial_and_stale_seeds() {
        // The seed covers some nodes of a grown graph, plus entries for
        // nodes the graph no longer has: extras are ignored, newcomers
        // start as singletons, and the two-clique structure is recovered.
        let g = two_cliques(1.0);
        let frozen = g.freeze();
        let mut seed = Partition::new();
        seed.assign(1, 0);
        seed.assign(2, 0);
        seed.assign(4, 1);
        seed.assign(999, 7); // not in the graph
        let p = louvain_seeded(&frozen, &seed, &LouvainConfig::default());
        assert_eq!(p.len(), 6);
        assert_eq!(p.community_count(), 2);
        assert_eq!(p.community_of(1), p.community_of(3));
        assert_eq!(p.community_of(4), p.community_of(6));
        assert_ne!(p.community_of(1), p.community_of(4));
    }

    #[test]
    fn seeded_thread_counts_produce_identical_partitions() {
        let frozen = random_graph(512, false).freeze();
        let prior = louvain_csr(&frozen, &LouvainConfig::default());
        let runs: Vec<Partition> = [1usize, 2, 4]
            .iter()
            .map(|&t| {
                louvain_seeded(
                    &frozen,
                    &prior,
                    &LouvainConfig {
                        threads: Some(t),
                        ..Default::default()
                    },
                )
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0], runs[2]);
    }

    #[test]
    fn active_seeded_matches_seeded_exactly() {
        for graph_seed in 0..8u64 {
            let frozen = random_graph(800 + graph_seed, false).freeze();
            // Seed from a shuffled run so the seed is a real partition the
            // refresh still has work to do on.
            let prior = louvain_csr(
                &frozen,
                &LouvainConfig {
                    seed: Some(graph_seed),
                    ..Default::default()
                },
            );
            for t in [1usize, 2, 4] {
                let cfg = LouvainConfig {
                    threads: Some(t),
                    ..Default::default()
                };
                assert_eq!(
                    louvain_seeded_active(&frozen, &prior, &cfg),
                    louvain_seeded(&frozen, &prior, &cfg),
                    "active-set refresh diverged (graph {graph_seed}, {t} threads)"
                );
            }
        }
    }

    #[test]
    fn active_seeded_with_empty_seed_is_the_cold_start() {
        for graph_seed in 0..4u64 {
            let frozen = random_graph(900 + graph_seed, false).freeze();
            let cfg = LouvainConfig::default();
            assert_eq!(
                louvain_seeded_active(&frozen, &Partition::new(), &cfg),
                louvain_csr(&frozen, &cfg),
                "empty active seed must degenerate to the cold start (graph {graph_seed})"
            );
        }
    }

    #[test]
    fn active_seeded_matches_on_community_structured_graph() {
        // Big enough that the speculative scan, chunking, and the
        // mark-budget flood paths all engage; the seed is the cold answer
        // perturbed by reassigning a band of nodes to singletons.
        let mut rng = StdRng::seed_from_u64(77);
        let mut g = WeightedGraph::new_undirected();
        for c in 0..6u64 {
            for _ in 0..180 {
                let a = c * 1_000 + rng.gen_range(0..30u64);
                let b = c * 1_000 + rng.gen_range(0..30u64);
                g.add_edge(a, b, rng.gen_range(1.0..4.0));
            }
        }
        for _ in 0..60 {
            let a = rng.gen_range(0..6u64) * 1_000 + rng.gen_range(0..30u64);
            let b = rng.gen_range(0..6u64) * 1_000 + rng.gen_range(0..30u64);
            g.add_edge(a, b, 1.0);
        }
        let frozen = g.freeze();
        let cold = louvain_csr(&frozen, &LouvainConfig::default());
        let mut perturbed = cold.clone();
        let base = perturbed.community_count() + 100;
        for (k, &id) in frozen.node_ids().iter().step_by(7).enumerate() {
            perturbed.assign(id, base + k);
        }
        for t in [1usize, 2, 4] {
            let cfg = LouvainConfig {
                threads: Some(t),
                ..Default::default()
            };
            assert_eq!(
                louvain_seeded_active(&frozen, &perturbed, &cfg),
                louvain_seeded(&frozen, &perturbed, &cfg),
                "active-set refresh diverged on structured graph ({t} threads)"
            );
        }
    }

    #[test]
    fn a_self_loop_never_counts_as_a_link_home() {
        // 128 gadgets: a hub with a self-loop of 4 and one link of 1 to a
        // triangle of weight-2 edges. A self-loop links its node to no
        // community, so the hub's best move is into its triangle's
        // community; a scan that counted the loop as a link home (4) would
        // keep it alone. Level 0 reads the frozen rows in place, loops
        // included, so its scan must skip that entry; one pass
        // (`max_passes: 1`) returns level 0's own partition, where a hub
        // kept home would show. Enough rows for several chunks, so the
        // parallel scans run at 2 and 4 threads.
        let mut g = WeightedGraph::new_undirected();
        for i in 0..128u64 {
            let [hub, a, b, c] = [0, 1, 2, 3].map(|j| 10 * i + j);
            g.add_edge(hub, hub, 4.0);
            g.add_edge(hub, a, 1.0);
            for (x, y) in [(a, b), (b, c), (a, c)] {
                g.add_edge(x, y, 2.0);
            }
        }
        let frozen = g.freeze();
        let ids = frozen.node_ids();
        let gadgets: Partition = ids.iter().map(|&id| (id, (id / 10) as usize)).collect();
        let singletons = Partition::singletons(ids);
        // Every triangle seeded together, every hub alone.
        let hubs_apart: Partition = ids
            .iter()
            .map(|&id| (id, (id / 10) as usize * 2 + usize::from(id % 10 == 0)))
            .collect();
        for max_passes in [1, LouvainConfig::default().max_passes] {
            let oracle = louvain_hashmap(
                &g,
                &LouvainConfig {
                    max_passes,
                    ..Default::default()
                },
            );
            assert_eq!(oracle, gadgets.renumbered(), "{max_passes} passes");
            for t in [1usize, 2, 4] {
                let cfg = LouvainConfig {
                    max_passes,
                    threads: Some(t),
                    ..Default::default()
                };
                let at = format!("{max_passes} passes, {t} threads");
                assert_eq!(louvain_csr(&frozen, &cfg), oracle, "cold, {at}");
                for seed in [&singletons, &hubs_apart] {
                    assert_eq!(louvain_seeded(&frozen, seed, &cfg), oracle, "seeded, {at}");
                    assert_eq!(
                        louvain_seeded_active(&frozen, seed, &cfg),
                        oracle,
                        "active, {at}"
                    );
                }
            }
        }
    }

    /// A ring of 30 five-cliques (internal and ring edges of weight 100)
    /// plus a drifter, node 1 000, linked by weight 1 to cliques 0 and 1.
    /// Clique 0 also has a self-loop of 0.5, so it is one unit of degree
    /// heavier than clique 1. Node-level moves keep every clique whole;
    /// merging adjacent cliques pays, so a run that aggregates the cliques
    /// merges them.
    fn ring_with_drifter() -> CsrGraph {
        let mut g = WeightedGraph::new_undirected();
        for c in 0..30u64 {
            for i in 0..5 {
                for j in (i + 1)..5 {
                    g.add_edge(10 * c + i, 10 * c + j, 100.0);
                }
            }
            g.add_edge(10 * c + 4, 10 * ((c + 1) % 30), 100.0);
        }
        g.add_edge(0, 0, 0.5);
        g.add_edge(1_000, 1, 1.0);
        g.add_edge(1_000, 11, 1.0);
        g.freeze()
    }

    #[test]
    fn the_pass_gate_starts_from_the_seed() {
        let frozen = ring_with_drifter();
        let q = |p: &Partition| modularity_csr_threads(&frozen, p, Some(1));
        let clique = |id: NodeId| (id / 10) as usize;
        for t in [1usize, 2, 4] {
            let cfg = LouvainConfig {
                threads: Some(t),
                ..Default::default()
            };
            let first_pass = LouvainConfig {
                max_passes: 1,
                ..cfg.clone()
            };
            for active in [false, true] {
                let run = |seed: &Partition, cfg: &LouvainConfig| {
                    louvain_scored(&frozen, Some(seed), active, cfg).partition
                };
                // Seeded with the drifter in the heavier clique 0, the first
                // pass moves the drifter alone, to clique 1, and gains less
                // than the gate's minimum over the seed: the run must stop
                // there, cliques unmerged. A gate that started anywhere
                // below the seed's score would aggregate and merge them.
                let drifter_home: Partition = frozen
                    .node_ids()
                    .iter()
                    .map(|&id| (id, if id == 1_000 { 0 } else { clique(id) }))
                    .collect();
                let moved: Partition = frozen
                    .node_ids()
                    .iter()
                    .map(|&id| (id, if id == 1_000 { 1 } else { clique(id) }))
                    .collect();
                let stalled = run(&drifter_home, &cfg);
                assert_eq!(stalled, moved.renumbered(), "{t} threads, active {active}");
                let gain = q(&stalled) - q(&drifter_home);
                assert!(gain > 0.0 && gain < cfg.min_modularity_gain, "gain {gain}");

                // Seeded with every clique split in two, the first pass
                // rejoins the halves and gains far more than the minimum:
                // the run must go on past it and merge cliques. A gate that
                // started from the first pass's own result would stop.
                let halves: Partition = frozen
                    .node_ids()
                    .iter()
                    .map(|&id| (id, 2 * clique(id) + usize::from(id % 10 < 2)))
                    .collect();
                let one = run(&halves, &first_pass);
                let full = run(&halves, &cfg);
                assert_eq!(one.community_count(), 30, "{t} threads, active {active}");
                assert!(
                    full.community_count() < 30 && q(&full) > q(&one),
                    "{t} threads, active {active}: {} communities",
                    full.community_count()
                );
            }
        }
    }
}
