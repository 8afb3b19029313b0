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
//!   [`CsrGraph`], keeps every level in flat CSR arrays, replaces the
//!   per-node hash scratch with dense index-addressed buffers, and
//!   relabels memberships through the interned dense index in O(n).
//! * [`louvain_hashmap`] — the legacy path over the mutable
//!   [`WeightedGraph`], retained as the baseline the criterion benches
//!   compare against (and the reference the equivalence tests check the
//!   CSR path's output against). Both paths run identical local-moving
//!   and aggregation arithmetic (neighbour scans, degree sums and merged
//!   edge weights accumulate in the same sorted order), so move decisions
//!   match exactly; only the per-pass modularity *gate* is computed by
//!   different routines whose sums can differ in the last ULP, and every
//!   gain comparison carries an epsilon guard, so the two paths produce
//!   identical partitions in practice (asserted exactly by the
//!   equivalence tests on random graphs and the synthetic dataset).
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

/// One level of the aggregation hierarchy in flat CSR form. Self-loops are
/// held out of the adjacency rows (they never affect a move decision) but
/// count twice in `degree`, matching the standard convention.
struct CsrLevel {
    offsets: Vec<u32>,
    targets: Vec<u32>,
    weights: Vec<f64>,
    self_loops: Vec<f64>,
    /// Weighted degree per node (self-loops twice).
    degree: Vec<f64>,
    /// Total edge weight m (undirected edges once, self-loops once).
    m: f64,
}

impl CsrLevel {
    fn from_frozen(graph: &CsrGraph) -> CsrLevel {
        let n = graph.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u32);
        let mut targets = Vec::new();
        let mut weights = Vec::new();
        let mut self_loops = vec![0.0f64; n];
        let mut degree = vec![0.0f64; n];
        for u in 0..n {
            let (t, w) = graph.row(u);
            for (&v, &w) in t.iter().zip(w) {
                if v as usize == u {
                    self_loops[u] = w;
                } else {
                    targets.push(v);
                    weights.push(w);
                }
            }
            offsets.push(targets.len() as u32);
            degree[u] = graph.weighted_degree(u);
        }
        CsrLevel {
            offsets,
            targets,
            weights,
            self_loops,
            degree,
            m: graph.total_weight(),
        }
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    #[inline]
    fn row(&self, u: usize) -> (&[u32], &[f64]) {
        let lo = self.offsets[u] as usize;
        let hi = self.offsets[u + 1] as usize;
        (&self.targets[lo..hi], &self.weights[lo..hi])
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
    graph: &CsrLevel,
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
    // Fixed-width gather blocks: read a block of u32 targets and resolve
    // their community labels branch-free into a register-resident block,
    // then scatter the weights. The scatter walks the block in position
    // order, so every per-community sum accumulates in exactly the scalar
    // (and legacy hash-map path) order — batching buys the separation of
    // the label gather from the branchy scatter, not a reassociation.
    const GATHER: usize = 8;
    let (targets, weights) = graph.row(node);
    let mut tc = targets.chunks_exact(GATHER);
    let mut wc = weights.chunks_exact(GATHER);
    let mut comms = [0usize; GATHER];
    for (t, w) in (&mut tc).zip(&mut wc) {
        for (slot, &nbr) in comms.iter_mut().zip(t) {
            *slot = community[nbr as usize];
        }
        for (j, &c) in comms.iter().enumerate() {
            if scratch.links_to[c] == 0.0 {
                scratch.touched.push(c);
            }
            scratch.links_to[c] += w[j];
        }
    }
    for (&nbr, &w) in tc.remainder().iter().zip(wc.remainder()) {
        let c = community[nbr as usize];
        if scratch.links_to[c] == 0.0 {
            scratch.touched.push(c);
        }
        scratch.links_to[c] += w;
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
    graph: &CsrLevel,
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
        None => graph.degree.clone(),
    };
    let two_m = 2.0 * graph.m;
    if two_m <= 0.0 {
        return (community, false);
    }

    let mut moved_any = false;
    let mut improved = true;
    let mut scratch = ScanScratch::new(n);

    let chunks = par::RowChunks::from_offsets(&graph.offsets);
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
    graph: &CsrLevel,
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

    let chunks = par::RowChunks::from_offsets(&graph.offsets);
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
                // Move the node between membership lists (swap-remove).
                let pos = member_pos[node] as usize;
                let swapped = *members[node_comm]
                    .last()
                    .expect("mover is a member of its community");
                members[node_comm].swap_remove(pos);
                if swapped as usize != node {
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
/// The scan order (node index ascending, self-loop before forward edges)
/// matches the legacy builder-based aggregation exactly, so merged weights
/// and the total are bit-identical across the two paths.
fn aggregate_csr(graph: &CsrLevel, compact: &[usize], k: usize) -> CsrLevel {
    let mut pair_weight: HashMap<(u32, u32), f64> = HashMap::new();
    let mut m = 0.0f64;
    for i in 0..graph.node_count() {
        let ci = compact[i] as u32;
        if graph.self_loops[i] > 0.0 {
            *pair_weight.entry((ci, ci)).or_insert(0.0) += graph.self_loops[i];
            m += graph.self_loops[i];
        }
        let (targets, weights) = graph.row(i);
        for (&j, &w) in targets.iter().zip(weights) {
            if (j as usize) > i {
                let cj = compact[j as usize] as u32;
                let key = if ci <= cj { (ci, cj) } else { (cj, ci) };
                *pair_weight.entry(key).or_insert(0.0) += w;
                m += w;
            }
        }
    }

    // Hash-map iteration order is immaterial here: each `(row, target)`
    // pair carries one final weight and rows are sorted before packing.
    let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); k];
    for (&(a, b), &w) in &pair_weight {
        if a == b {
            rows[a as usize].push((a, w));
        } else {
            rows[a as usize].push((b, w));
            rows[b as usize].push((a, w));
        }
    }

    let mut offsets = Vec::with_capacity(k + 1);
    offsets.push(0u32);
    let mut targets = Vec::new();
    let mut weights = Vec::new();
    let mut self_loops = vec![0.0f64; k];
    let mut degree = vec![0.0f64; k];
    for (c, row) in rows.iter_mut().enumerate() {
        row.sort_unstable_by_key(|&(v, _)| v);
        for &(v, w) in row.iter() {
            if v as usize == c {
                self_loops[c] = w;
                degree[c] += 2.0 * w;
            } else {
                targets.push(v);
                weights.push(w);
                degree[c] += w;
            }
        }
        offsets.push(targets.len() as u32);
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

/// Modularity of the current membership against the *original* frozen
/// graph: per-chunk dense accumulators merged in fixed chunk order, so the
/// pass gate is bit-identical at any thread count. Each edge is owned by
/// its lower-endpoint row, so chunks never double-count.
fn membership_modularity(graph: &CsrGraph, membership: &[usize], k: usize, threads: usize) -> f64 {
    let m = graph.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    // Every chunk allocates two k-length accumulators and the merge costs
    // O(k) per chunk, so bound chunks × k (the first pass gate has k = n).
    // The budget depends only on k — never on the thread count — so the
    // determinism contract holds.
    let max_chunks = (4_000_000 / k.max(1)).clamp(1, 16);
    let chunks = par::RowChunks::balanced(graph.offsets(), max_chunks, 2048);
    let partials = par::par_map(&chunks, threads, |_, range| {
        let mut internal = vec![0.0f64; k];
        let mut degree = vec![0.0f64; k];
        for u in range {
            let cu = membership[u];
            let (targets, weights) = graph.row(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let v = v as usize;
                if v == u {
                    internal[cu] += w;
                    degree[cu] += 2.0 * w;
                } else if v > u {
                    let cv = membership[v];
                    if cu == cv {
                        internal[cu] += w;
                    }
                    degree[cu] += w;
                    degree[cv] += w;
                }
            }
        }
        (internal, degree)
    });
    let mut internal = vec![0.0f64; k];
    let mut degree = vec![0.0f64; k];
    for (pi, pd) in partials {
        for c in 0..k {
            internal[c] += pi[c];
            degree[c] += pd[c];
        }
    }
    let mut q = 0.0;
    for c in 0..k {
        q += internal[c] / m - (degree[c] / (2.0 * m)).powi(2);
    }
    q
}

/// Shared Louvain driver: `init` is an optional level-0 seed assignment
/// (compacted labels `< n`, one per dense node index). Cold runs pass
/// `None`; [`louvain_seeded`] passes the previous partition's labels.
///
/// The seed only changes where the *first* local-moving phase starts —
/// every later level begins from the aggregated singletons as usual. The
/// relabel step runs even when no node moved (for a cold start the
/// identity community compacts to the identity, so this is bit-identical
/// to breaking first; for a seeded start it is what carries an
/// already-optimal seed into the result instead of discarding it).
fn louvain_csr_impl(
    graph: &CsrGraph,
    config: &LouvainConfig,
    mut init: Option<Vec<usize>>,
    active: bool,
) -> Partition {
    let undirected;
    let g = if graph.is_directed() {
        undirected = graph.to_undirected();
        &undirected
    } else {
        graph
    };
    let n = g.node_count();
    if n == 0 {
        return Partition::new();
    }

    let threads = par::thread_count(config.threads);
    let mut membership: Vec<usize> = (0..n).collect();
    let mut level = CsrLevel::from_frozen(g);
    let mut rng = config.seed.map(StdRng::seed_from_u64);
    // The pass gate starts from the seed's modularity (cold: singletons),
    // so a pass only counts as progress if it beats the state it started
    // from — local moving never commits a losing move, so the final
    // partition's modularity is never below the seed's.
    let mut last_q = match &init {
        Some(labels) => membership_modularity(g, labels, n, threads),
        None => membership_modularity(g, &membership, n, threads),
    };

    for _ in 0..config.max_passes {
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
        let (compact, k) = compact_labels(&community);
        // Membership values are dense indices of the current level, so the
        // per-level relabel is a direct vector lookup.
        for m in membership.iter_mut() {
            *m = compact[*m];
        }
        if !moved {
            break;
        }

        let aggregated = aggregate_csr(&level, &compact, k);
        let q = membership_modularity(g, &membership, k, threads);
        if q - last_q < config.min_modularity_gain {
            // Keep the (slightly) better assignment but stop iterating.
            break;
        }
        last_q = q;
        level = aggregated;
    }
    membership_to_partition(g.node_ids(), &membership).renumbered()
}

/// Run the Louvain algorithm over a frozen undirected [`CsrGraph`]
/// (directed graphs are projected to undirected first) and return the
/// detected partition with canonical community labels `0..k`.
pub fn louvain_csr(graph: &CsrGraph, config: &LouvainConfig) -> Partition {
    louvain_csr_impl(graph, config, None, false)
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
    let n = graph.node_count();
    if n == 0 {
        return Partition::new();
    }
    louvain_csr_impl(graph, config, Some(seed_labels(graph, seed)), false)
}

/// [`louvain_seeded`] with **active-set** local moving: after the first
/// (necessarily whole-graph) sweep of the seeded pass, only the nodes a
/// committed move actually invalidated are re-examined — the members of
/// the move's source and target communities plus their neighbours (the
/// internal `local_moving_csr_active` scan). In a windowed refresh those movers
/// cluster around the rows the delta/evict touched, so later sweeps
/// shrink from O(n) scans to O(touched frontier).
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
    let n = graph.node_count();
    if n == 0 {
        return Partition::new();
    }
    louvain_csr_impl(graph, config, Some(seed_labels(graph, seed)), true)
}

/// Compact a seed partition's labels to dense `0..k` in first-appearance
/// (dense node index) order; unseeded nodes get fresh singleton labels
/// from the same counter. Every label stays < `n`, as the level scratch
/// requires.
fn seed_labels(graph: &CsrGraph, seed: &Partition) -> Vec<usize> {
    let n = graph.node_count();
    let mut relabel: HashMap<usize, usize> = HashMap::new();
    let mut labels = Vec::with_capacity(n);
    let mut next = 0usize;
    for &id in graph.node_ids() {
        let label = match seed.community_of(id) {
            Some(c) => *relabel.entry(c).or_insert_with(|| {
                let l = next;
                next += 1;
                l
            }),
            None => {
                let l = next;
                next += 1;
                l
            }
        };
        labels.push(label);
    }
    labels
}

/// Run Louvain over a builder graph: freezes once, then runs the CSR path
/// (which projects directed graphs to undirected itself).
pub fn louvain(graph: &WeightedGraph, config: &LouvainConfig) -> Partition {
    louvain_csr(&graph.freeze(), config)
}

// ---------------------------------------------------------------------------
// Legacy HashMap path (benchmark baseline / equivalence reference)
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
/// level. Kept (not dead code) as the baseline the criterion benches
/// compare [`louvain_csr`] against, and as the reference implementation the
/// equivalence tests validate the CSR path's output against. Produces
/// partitions matching [`louvain_csr`].
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
    use crate::modularity;
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
}
