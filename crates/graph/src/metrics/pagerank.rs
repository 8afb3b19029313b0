//! Weighted PageRank.
//!
//! The CSR path runs *pull-based* power iterations on the shared
//! deterministic scheduler ([`crate::par`]): each worker owns a contiguous
//! chunk of in-rows and computes its nodes' next scores exclusively, so no
//! synchronisation is needed and — because chunk boundaries and the
//! chunk-merge order of the convergence norm are independent of the thread
//! count — the scores are bit-identical at any parallelism.

use crate::{par, CsrGraph, NodeId};
use std::collections::HashMap;

/// Configuration for [`pagerank_csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct PageRankConfig {
    /// Damping factor, conventionally 0.85.
    pub damping: f64,
    /// Maximum number of power iterations.
    pub max_iterations: usize,
    /// L1 convergence tolerance.
    pub tolerance: f64,
    /// Worker-thread override. `None` resolves `MOBY_THREADS`, then
    /// [`std::thread::available_parallelism`] (see
    /// [`par::thread_count`]). The result is bit-identical either way.
    pub threads: Option<usize>,
}

impl Default for PageRankConfig {
    fn default() -> Self {
        Self {
            damping: 0.85,
            max_iterations: 100,
            tolerance: 1e-9,
            threads: None,
        }
    }
}

/// Weighted PageRank over a frozen [`CsrGraph`]'s (out-)edges.
///
/// Transition probability from `u` to `v` is proportional to the weight of
/// the `u -> v` edge. Dangling nodes (no out-edges) redistribute their mass
/// uniformly. Scores sum to 1 over all nodes. Returns an empty map for an
/// empty graph.
///
/// Each power iteration is a pull-based sweep over the in-rows,
/// parallelised on the deterministic row-chunk scheduler. A node's next
/// score accumulates its in-neighbour contributions positionally in row
/// order — four register-resident lane sums folded in a fixed
/// position-derived order (the internal `row_dot`) — so the result is
/// bit-identical at any thread count, including one.
pub fn pagerank_csr(graph: &CsrGraph, config: &PageRankConfig) -> HashMap<NodeId, f64> {
    let n = graph.node_count();
    if n == 0 {
        return HashMap::new();
    }
    let threads = par::thread_count(config.threads);
    let in_chunks = par::RowChunks::from_offsets(graph.in_offsets());

    let uniform = 1.0 / n as f64;
    let damping = config.damping;
    let base = (1.0 - damping) * uniform;
    // Dangling nodes in index order, so the mass fold below accumulates
    // in a fixed sequence.
    let dangling: Vec<u32> = (0..n)
        .filter(|&u| graph.strength(u) <= 0.0)
        .map(|u| u as u32)
        .collect();

    // Double-buffered scores and **contributions** on the persistent-worker
    // driver: iteration k reads `ranks[k % 2]` / `contribs[k % 2]` and
    // writes the other pair. A node's contribution `damping * rank / s`
    // is computed once when its rank lands — hoisting the per-edge divide
    // and the dangling branch out of the hot loop, which is most of what
    // the batched sweep buys. The caller-side control window folds the
    // convergence norm and the next dangling share serially in node order.
    let ranks = [
        par::SharedF64Buf::new(n, uniform),
        par::SharedF64Buf::new(n, 0.0),
    ];
    let contribs = [
        par::SharedF64Buf::new(n, 0.0),
        par::SharedF64Buf::new(n, 0.0),
    ];
    for u in 0..n {
        let s = graph.strength(u);
        if s > 0.0 {
            contribs[0].set(u, damping * uniform / s);
        }
    }
    let dangling_share = par::SharedF64Buf::new(1, {
        let mass: f64 = dangling.iter().map(|_| uniform).sum();
        damping * mass * uniform
    });
    let mut final_buf = 0usize;
    if config.max_iterations > 0 {
        par::par_iterate(
            &in_chunks,
            threads,
            |k, _ci, range| {
                let cur = (k % 2) as usize;
                let nxt = ((k + 1) % 2) as usize;
                let contrib = &contribs[cur];
                let r_dst = &ranks[nxt];
                let c_dst = &contribs[nxt];
                let add = base + dangling_share.get(0);
                for v in range {
                    let (sources, weights) = graph.in_row(v);
                    let acc = add + row_dot(sources, weights, contrib);
                    r_dst.set(v, acc);
                    let s = graph.strength(v);
                    c_dst.set(v, if s > 0.0 { damping * acc / s } else { 0.0 });
                }
            },
            |k| {
                let cur = (k % 2) as usize;
                let nxt = ((k + 1) % 2) as usize;
                let mut diff = 0.0f64;
                for u in 0..n {
                    diff += (ranks[nxt].get(u) - ranks[cur].get(u)).abs();
                }
                final_buf = nxt;
                if diff < config.tolerance || k + 1 >= config.max_iterations as u64 {
                    return false;
                }
                let mut mass = 0.0f64;
                for &u in &dangling {
                    mass += ranks[nxt].get(u as usize);
                }
                dangling_share.set(0, damping * mass * uniform);
                true
            },
        );
    }
    let rank = ranks[final_buf].to_vec();
    graph.node_ids().iter().copied().zip(rank).collect()
}

/// The batched pull kernel: `Σ weights[i] * contrib[sources[i]]` over one
/// in-row, accumulated into four lane sums by position (`lanes[i % 4]`
/// within each fixed-width block, tail lanes by offset) and folded as
/// `(l0 + l1) + (l2 + l3)`. The fold order is a pure function of row
/// *positions* — never of chunk boundaries or thread count — so every
/// thread count produces the same bits while the unrolled body keeps four
/// independent FMA chains in flight.
#[inline]
fn row_dot(sources: &[u32], weights: &[f64], contrib: &par::SharedF64Buf) -> f64 {
    let mut lanes = [0.0f64; 4];
    let mut st = sources.chunks_exact(4);
    let mut wt = weights.chunks_exact(4);
    for (t, w) in (&mut st).zip(&mut wt) {
        lanes[0] += w[0] * contrib.get(t[0] as usize);
        lanes[1] += w[1] * contrib.get(t[1] as usize);
        lanes[2] += w[2] * contrib.get(t[2] as usize);
        lanes[3] += w[3] * contrib.get(t[3] as usize);
    }
    for (i, (&t, &w)) in st.remainder().iter().zip(wt.remainder()).enumerate() {
        lanes[i] += w * contrib.get(t as usize);
    }
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// The legacy hash-map-walk PageRank, kept private as the reference for
/// the CSR/builder agreement tests below.
#[cfg(test)]
fn pagerank_hashmap(graph: &crate::WeightedGraph, config: &PageRankConfig) -> HashMap<NodeId, f64> {
    let n = graph.node_count();
    if n == 0 {
        return HashMap::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let out_strength: Vec<f64> = (0..n).map(|i| graph.strength(i)).collect();

    for _ in 0..config.max_iterations {
        let mut next = vec![(1.0 - config.damping) * uniform; n];
        let mut dangling_mass = 0.0;
        for u in 0..n {
            if out_strength[u] <= 0.0 {
                dangling_mass += rank[u];
                continue;
            }
            for (v, w) in graph.neighbors(u) {
                next[v] += config.damping * rank[u] * (w / out_strength[u]);
            }
        }
        let dangling_share = config.damping * dangling_mass * uniform;
        for r in next.iter_mut() {
            *r += dangling_share;
        }
        let diff: f64 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
        rank = next;
        if diff < config.tolerance {
            break;
        }
    }
    graph.node_ids().iter().copied().zip(rank).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WeightedGraph;

    #[test]
    fn empty_graph_returns_empty() {
        let g = WeightedGraph::new_directed();
        assert!(pagerank_csr(&g.freeze(), &PageRankConfig::default()).is_empty());
    }

    #[test]
    fn scores_sum_to_one() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 3.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 1, 2.0);
        g.add_edge(1, 3, 1.0);
        let pr = pagerank_csr(&g.freeze(), &PageRankConfig::default());
        let total: f64 = pr.values().sum();
        assert!((total - 1.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn symmetric_cycle_is_uniform() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(3, 1, 1.0);
        let pr = pagerank_csr(&g.freeze(), &PageRankConfig::default());
        for id in [1, 2, 3] {
            assert!((pr[&id] - 1.0 / 3.0).abs() < 1e-6);
        }
    }

    #[test]
    fn hub_receives_more_rank() {
        let mut g = WeightedGraph::new_directed();
        // Everyone points at 1; 1 points at 2.
        for src in [2, 3, 4, 5] {
            g.add_edge(src, 1, 1.0);
        }
        g.add_edge(1, 2, 1.0);
        let pr = pagerank_csr(&g.freeze(), &PageRankConfig::default());
        assert!(pr[&1] > pr[&3]);
        assert!(pr[&1] > pr[&2]);
        assert!(pr[&2] > pr[&3], "2 benefits from 1's endorsement");
    }

    #[test]
    fn dangling_nodes_do_not_lose_mass() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 1.0); // 2 is dangling
        g.add_node(3); // isolated & dangling
        let pr = pagerank_csr(&g.freeze(), &PageRankConfig::default());
        let total: f64 = pr.values().sum();
        assert!((total - 1.0).abs() < 1e-6);
    }

    #[test]
    fn weights_steer_rank() {
        let mut g = WeightedGraph::new_directed();
        // 1 links to 2 (weight 9) and to 3 (weight 1).
        g.add_edge(1, 2, 9.0);
        g.add_edge(1, 3, 1.0);
        g.add_edge(2, 1, 1.0);
        g.add_edge(3, 1, 1.0);
        let pr = pagerank_csr(&g.freeze(), &PageRankConfig::default());
        assert!(pr[&2] > pr[&3]);
    }

    #[test]
    fn csr_and_hashmap_agree_within_tolerance() {
        let mut g = WeightedGraph::new_directed();
        for (a, b, w) in [
            (1u64, 2u64, 3.0),
            (2, 3, 1.0),
            (3, 1, 2.0),
            (1, 3, 1.0),
            (4, 1, 5.0),
            (5, 5, 2.0), // self-loop
        ] {
            g.add_edge(a, b, w);
        }
        g.add_node(6); // dangling isolate
        let cfg = PageRankConfig::default();
        let csr = pagerank_csr(&g.freeze(), &cfg);
        let reference = pagerank_hashmap(&g, &cfg);
        assert_eq!(csr.len(), reference.len());
        for (id, r) in &reference {
            assert!(
                (csr[id] - r).abs() < 1e-9,
                "node {id}: csr {} vs reference {r}",
                csr[id]
            );
        }
    }

    #[test]
    fn parallel_thread_counts_are_bit_identical() {
        // Large enough that the row space splits into several chunks.
        let mut g = WeightedGraph::new_directed();
        for i in 0..200u64 {
            for j in 1..=5u64 {
                g.add_edge(i, (i * 7 + j * 13) % 200, (1 + (i + j) % 9) as f64);
            }
        }
        g.add_node(9_999); // dangling isolate
        let frozen = g.freeze();
        let serial = pagerank_csr(
            &frozen,
            &PageRankConfig {
                threads: Some(1),
                ..Default::default()
            },
        );
        for t in [2usize, 4, 8] {
            let parallel = pagerank_csr(
                &frozen,
                &PageRankConfig {
                    threads: Some(t),
                    ..Default::default()
                },
            );
            assert_eq!(parallel.len(), serial.len());
            for (id, r) in &serial {
                assert_eq!(
                    parallel[id].to_bits(),
                    r.to_bits(),
                    "node {id} diverged at {t} threads"
                );
            }
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let mut g = WeightedGraph::new_directed();
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 1, 1.0);
        let cfg = PageRankConfig {
            max_iterations: 1,
            ..Default::default()
        };
        // One iteration must still produce finite, positive scores.
        let pr = pagerank_csr(&g.freeze(), &cfg);
        assert!(pr.values().all(|v| v.is_finite() && *v > 0.0));
    }
}
