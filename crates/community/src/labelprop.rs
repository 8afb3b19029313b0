//! Label propagation community detection.
//!
//! The paper lists the Label Propagation algorithm as future work ("Future
//! studies should compare the results of a range of community detection
//! algorithms, such as the Infomap algorithm and the Label Propagation
//! algorithm"). It is implemented here so the detector-ablation benchmark
//! can make that comparison.
//!
//! The algorithm: every node starts in its own community; nodes are visited
//! in (seeded) random order and adopt the label carrying the largest total
//! incident edge weight, ties broken by the smallest label. Iterate until no
//! label changes or the iteration cap is hit.

use crate::Partition;
use moby_graph::{par, CsrGraph};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for [`label_propagation_csr`].
#[derive(Debug, Clone, PartialEq)]
pub struct LabelPropagationConfig {
    /// Seed for the node visiting order (label propagation is order
    /// sensitive; a fixed seed keeps runs reproducible).
    pub seed: u64,
    /// Maximum number of full sweeps.
    pub max_iterations: usize,
    /// Worker-thread override for the parallel label scans. `None`
    /// resolves `MOBY_THREADS`, then
    /// [`std::thread::available_parallelism`] (see [`par::thread_count`]).
    /// The detected partition is bit-identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for LabelPropagationConfig {
    fn default() -> Self {
        Self {
            seed: 1,
            max_iterations: 100,
            threads: None,
        }
    }
}

/// Per-worker scratch for a label tally: `weight_to[l]` = incident weight
/// carrying label `l`; `touched` lists the labels with a non-zero entry.
struct TallyScratch {
    weight_to: Vec<f64>,
    touched: Vec<usize>,
}

impl TallyScratch {
    fn new(n: usize) -> TallyScratch {
        TallyScratch {
            weight_to: vec![0.0f64; n],
            touched: Vec::new(),
        }
    }
}

/// The label decision for one node against the current `labels`: the
/// neighbour label carrying the highest total weight, ties to the smallest
/// label; the node's own label when it has no neighbours. Shared by the
/// serial sweep, the parallel speculative scan and the commit-time
/// recomputation, so a decision is the same bits wherever it is evaluated.
fn tally_label(
    graph: &CsrGraph,
    labels: &[usize],
    scratch: &mut TallyScratch,
    node: usize,
) -> usize {
    for &l in &scratch.touched {
        scratch.weight_to[l] = 0.0;
    }
    scratch.touched.clear();
    // Fixed-width gather blocks, as in the Louvain move scan: resolve a
    // block of neighbour labels branch-free, then scatter the weights in
    // position order — per-label sums accumulate in exactly the scalar
    // order, so batching never reassociates the tally.
    const GATHER: usize = 8;
    let (targets, weights) = graph.row(node);
    let mut tc = targets.chunks_exact(GATHER);
    let mut wc = weights.chunks_exact(GATHER);
    let mut lbls = [0usize; GATHER];
    for (t, w) in (&mut tc).zip(&mut wc) {
        for (slot, &nbr) in lbls.iter_mut().zip(t) {
            *slot = labels[nbr as usize];
        }
        for (j, &l) in lbls.iter().enumerate() {
            if t[j] as usize != node {
                if scratch.weight_to[l] == 0.0 {
                    scratch.touched.push(l);
                }
                scratch.weight_to[l] += w[j];
            }
        }
    }
    for (&nbr, &w) in tc.remainder().iter().zip(wc.remainder()) {
        let nbr = nbr as usize;
        if nbr != node {
            let l = labels[nbr];
            if scratch.weight_to[l] == 0.0 {
                scratch.touched.push(l);
            }
            scratch.weight_to[l] += w;
        }
    }
    if scratch.touched.is_empty() {
        return labels[node]; // isolated node keeps its own label
    }
    // Highest total weight, ties to the smallest label.
    let mut best_label = labels[node];
    let mut best_weight = f64::NEG_INFINITY;
    scratch.touched.sort_unstable();
    for &label in &scratch.touched {
        if scratch.weight_to[label] > best_weight + 1e-12 {
            best_weight = scratch.weight_to[label];
            best_label = label;
        }
    }
    best_label
}

/// Label propagation over a frozen [`CsrGraph`] (directed graphs are
/// projected to undirected first). The per-node tally uses a dense
/// index-addressed scratch buffer over CSR rows — no hashing in the sweep.
///
/// Parallelism follows the same scan/commit scheme as the Louvain
/// local-moving phase: every node's label decision is precomputed in
/// parallel against the sweep-start labels, then nodes are visited serially
/// in the shuffled order; the precomputed decision is used only when no
/// neighbour's label changed since the scan, and recomputed otherwise. The
/// partition is therefore bit-identical to the serial sweep at any thread
/// count.
pub fn label_propagation_csr(graph: &CsrGraph, config: &LabelPropagationConfig) -> Partition {
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
    let chunks = par::RowChunks::from_offsets(g.offsets());
    let speculate = threads > 1 && chunks.len() > 1;

    let mut labels: Vec<usize> = (0..n).collect();
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut scratch = TallyScratch::new(n);
    // Label-change stamps, used only when speculating (see the Louvain
    // local-moving phase for the scheme).
    let mut tick: u64 = 0;
    let mut node_stamp = vec![0u64; if speculate { n } else { 0 }];
    let mut best = vec![0u32; if speculate { n } else { 0 }];

    for _ in 0..config.max_iterations {
        order.shuffle(&mut rng);
        if speculate {
            let labels = &labels;
            par::par_fill_with(
                &chunks,
                threads,
                &mut best,
                || TallyScratch::new(n),
                |scratch, _, range, out| {
                    for (j, node) in range.clone().enumerate() {
                        out[j] = tally_label(g, labels, scratch, node) as u32;
                    }
                },
            );
        }
        let scan_tick = tick;
        let mut changed = false;
        for &node in &order {
            let fresh = speculate
                && g.row(node)
                    .0
                    .iter()
                    .all(|&nbr| node_stamp[nbr as usize] <= scan_tick);
            let best_label = if fresh {
                best[node] as usize
            } else {
                tally_label(g, &labels, &mut scratch, node)
            };
            if best_label != labels[node] {
                labels[node] = best_label;
                if speculate {
                    tick += 1;
                    node_stamp[node] = tick;
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    Partition::from_dense(g.node_ids(), &labels, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modularity;
    use moby_graph::WeightedGraph;

    fn two_cliques() -> WeightedGraph {
        let mut g = WeightedGraph::new_undirected();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
            g.add_edge(a, b, 5.0);
        }
        g.add_edge(3, 4, 1.0);
        g
    }

    #[test]
    fn empty_graph() {
        let g = WeightedGraph::new_undirected();
        assert!(label_propagation_csr(&g.freeze(), &LabelPropagationConfig::default()).is_empty());
    }

    #[test]
    fn splits_two_cliques() {
        let g = two_cliques();
        let p = label_propagation_csr(&g.freeze(), &LabelPropagationConfig::default());
        assert_eq!(p.len(), 6);
        // Both cliques should be internally consistent.
        assert_eq!(p.community_of(1), p.community_of(2));
        assert_eq!(p.community_of(1), p.community_of(3));
        assert_eq!(p.community_of(4), p.community_of(5));
        assert_eq!(p.community_of(4), p.community_of(6));
        // And the partition should carry positive modularity.
        assert!(modularity(&g, &p) > 0.0);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = two_cliques();
        let cfg = LabelPropagationConfig::default();
        assert_eq!(
            label_propagation_csr(&g.freeze(), &cfg),
            label_propagation_csr(&g.freeze(), &cfg)
        );
    }

    #[test]
    fn isolated_nodes_keep_their_own_community() {
        let mut g = two_cliques();
        g.add_node(42);
        let p = label_propagation_csr(&g.freeze(), &LabelPropagationConfig::default());
        let c42 = p.community_of(42);
        assert!(c42.is_some());
        for id in 1..=6u64 {
            assert_ne!(p.community_of(id), c42);
        }
    }

    #[test]
    fn iteration_cap_is_respected() {
        let g = two_cliques();
        let cfg = LabelPropagationConfig {
            max_iterations: 1,
            ..Default::default()
        };
        // One sweep still produces a full assignment.
        let p = label_propagation_csr(&g.freeze(), &cfg);
        assert_eq!(p.len(), 6);
    }

    #[test]
    fn parallel_thread_counts_produce_identical_partitions() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Big enough that the row space splits into several chunks and the
        // speculative scan path actually runs.
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = WeightedGraph::new_undirected();
        for c in 0..5u64 {
            for _ in 0..200 {
                let a = c * 1_000 + rng.gen_range(0..25u64);
                let b = c * 1_000 + rng.gen_range(0..25u64);
                g.add_edge(a, b, rng.gen_range(1.0..4.0));
            }
        }
        g.add_node(999_999);
        let frozen = g.freeze();
        let serial = label_propagation_csr(
            &frozen,
            &LabelPropagationConfig {
                threads: Some(1),
                ..Default::default()
            },
        );
        for t in [2usize, 4, 8] {
            let parallel = label_propagation_csr(
                &frozen,
                &LabelPropagationConfig {
                    threads: Some(t),
                    ..Default::default()
                },
            );
            assert_eq!(serial, parallel, "{t} threads diverged");
        }
    }

    #[test]
    fn weighted_ties_favor_heavier_edges() {
        // Node 3 is pulled to {1,2} by heavy edges and to {4} by a light one.
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 2, 5.0);
        g.add_edge(1, 3, 5.0);
        g.add_edge(2, 3, 5.0);
        g.add_edge(3, 4, 1.0);
        g.add_edge(4, 5, 5.0);
        let p = label_propagation_csr(&g.freeze(), &LabelPropagationConfig::default());
        assert_eq!(p.community_of(3), p.community_of(1));
        assert_ne!(p.community_of(3), p.community_of(4));
    }
}
