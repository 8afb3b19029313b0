//! Weighted Newman modularity (paper eq. 2).

use crate::Partition;
use moby_graph::{par, CsrGraph, WeightedGraph};
use std::collections::HashMap;

/// Weighted modularity of a partition over an undirected weighted graph.
///
/// Follows the standard Newman formulation also used by Neo4j GDS and
/// NetworkX:
///
/// ```text
/// Q = Σ_c [ L_c / m  -  ( k_c / (2m) )² ]
/// ```
///
/// where `m` is the total edge weight (each undirected edge counted once,
/// self-loops once), `L_c` the total weight of edges with both endpoints in
/// community `c`, and `k_c` the total weighted degree of `c`'s nodes
/// (self-loops contribute twice to the degree, per convention).
///
/// Directed graphs are converted to their undirected projection first (the
/// paper runs Louvain on "bidirectional" graphs). Every node missing from
/// the partition is a singleton community of its own, whatever labels the
/// partition uses. Returns 0 for graphs with no edge weight.
///
/// This entry point freezes the builder graph and scores it with
/// [`modularity_csr`]; callers that already hold a frozen [`CsrGraph`]
/// should call [`modularity_csr`] directly and skip the freeze.
pub fn modularity(graph: &WeightedGraph, partition: &Partition) -> f64 {
    modularity_csr(&graph.freeze(), partition)
}

/// Weighted Newman modularity over a frozen [`CsrGraph`] (see
/// [`modularity`] for the formulation), with the worker-thread count
/// resolved from `MOBY_THREADS` / the machine (see [`par::thread_count`]).
/// Equivalent to [`modularity_csr_threads`] with `None`.
pub fn modularity_csr(graph: &CsrGraph, partition: &Partition) -> f64 {
    modularity_csr_threads(graph, partition, None)
}

/// [`modularity_csr`] with an explicit worker-thread override.
///
/// The partition's labels are ranked in ascending order to dense labels
/// `0..k`; each unassigned node becomes a singleton ranked after every
/// label, later nodes first. The score is then accumulated over those
/// dense labels by the same kernel as Louvain's pass gate: CSR rows in
/// dense index order, split into edge-balanced chunks on the deterministic
/// scheduler, so the score is bit-identical at any thread count.
pub fn modularity_csr_threads(
    graph: &CsrGraph,
    partition: &Partition,
    threads: Option<usize>,
) -> f64 {
    let undirected;
    let g = if graph.is_directed() {
        undirected = graph.to_undirected();
        &undirected
    } else {
        graph
    };
    let (ranked, assigned) = partition.ranked_labels(g.node_ids());
    let k = assigned + ranked.iter().filter(|rank| rank.is_none()).count();
    let mut next_alone = k;
    let labels: Vec<usize> = ranked
        .into_iter()
        .map(|rank| {
            rank.unwrap_or_else(|| {
                next_alone -= 1;
                next_alone
            })
        })
        .collect();
    dense_modularity(g, &labels, k, par::thread_count(threads))
}

/// Modularity of dense labels (`labels[u] < k` for every dense node `u`)
/// over an undirected frozen graph: the one kernel behind
/// [`modularity_csr_threads`] and Louvain's pass gate.
///
/// Each chunk of rows tallies internal weight and degree per label in two
/// k-length vectors; an edge belongs to its lower-endpoint row, so chunks
/// never double-count. The chunk tallies merge in chunk order and the
/// terms of eq. 2 fold in label order, so every sum has a fixed order at
/// any thread count. A label absent from a chunk adds `+0.0`, which leaves
/// a non-negative sum unchanged. Every chunk allocates its two tallies and
/// the merge costs O(k) per chunk, so the chunk budget shrinks as k grows
/// (16 chunks up to k = 250 000); it depends only on k and the graph,
/// never on the thread count.
pub(crate) fn dense_modularity(
    graph: &CsrGraph,
    labels: &[usize],
    k: usize,
    threads: usize,
) -> f64 {
    let m = graph.total_weight();
    if m <= 0.0 {
        return 0.0;
    }
    let max_chunks = (4_000_000 / k.max(1)).clamp(1, 16);
    let chunks = par::RowChunks::balanced(graph.offsets(), max_chunks, 2048);
    let partials = par::par_map(&chunks, threads, |_, range| {
        let mut internal = vec![0.0f64; k];
        let mut degree = vec![0.0f64; k];
        for u in range {
            let cu = labels[u];
            let (targets, weights) = graph.row(u);
            for (&v, &w) in targets.iter().zip(weights) {
                let v = v as usize;
                if v == u {
                    // Self-loop: counts once towards internal, twice to degree.
                    internal[cu] += w;
                    degree[cu] += 2.0 * w;
                } else if v > u {
                    let cv = labels[v];
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

/// The modularity implementation over the builder graph's hash-map
/// adjacency (materialise + sort all edges, then accumulate). Kept as the
/// test oracle of the CSR/builder agreement property tests and the
/// equivalence suite, which check [`modularity_csr`] against it.
pub fn modularity_hashmap(graph: &WeightedGraph, partition: &Partition) -> f64 {
    let undirected;
    let g = if graph.is_directed() {
        undirected = graph.to_undirected();
        &undirected
    } else {
        graph
    };

    let m = g.total_weight();
    if m <= 0.0 {
        return 0.0;
    }

    // Effective community of each node, keyed so that every partition
    // label sorts first and each unassigned node is a singleton after
    // them, later nodes first — the order `modularity_csr` folds in.
    let mut next_free = usize::MAX;
    let mut node_comm: HashMap<u64, (bool, usize)> = HashMap::new();
    for &id in g.node_ids() {
        let c = match partition.community_of(id) {
            Some(label) => (false, label),
            None => {
                next_free -= 1;
                (true, next_free)
            }
        };
        node_comm.insert(id, c);
    }

    let mut internal: HashMap<(bool, usize), f64> = HashMap::new();
    let mut degree: HashMap<(bool, usize), f64> = HashMap::new();

    // Sort edges so floating-point accumulation order (and therefore the
    // last-ULP value of Q) is identical across runs.
    let mut edges = g.edges();
    edges.sort_by_key(|a| (a.0, a.1));
    for (src, dst, w) in edges {
        let cs = node_comm[&src];
        let cd = node_comm[&dst];
        if src == dst {
            // Self-loop: weight counts once towards internal, twice to degree.
            *internal.entry(cs).or_insert(0.0) += w;
            *degree.entry(cs).or_insert(0.0) += 2.0 * w;
        } else {
            if cs == cd {
                *internal.entry(cs).or_insert(0.0) += w;
            }
            *degree.entry(cs).or_insert(0.0) += w;
            *degree.entry(cd).or_insert(0.0) += w;
        }
    }

    let mut q = 0.0;
    let all_communities: std::collections::BTreeSet<(bool, usize)> =
        node_comm.values().copied().collect();
    for c in all_communities {
        let l_c = internal.get(&c).copied().unwrap_or(0.0);
        let k_c = degree.get(&c).copied().unwrap_or(0.0);
        q += l_c / m - (k_c / (2.0 * m)).powi(2);
    }
    q
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cliques() -> WeightedGraph {
        let mut g = WeightedGraph::new_undirected();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
            g.add_edge(a, b, 1.0);
        }
        g.add_edge(3, 4, 1.0); // bridge
        g
    }

    fn good_partition() -> Partition {
        [(1u64, 0usize), (2, 0), (3, 0), (4, 1), (5, 1), (6, 1)]
            .into_iter()
            .collect()
    }

    #[test]
    fn two_cliques_well_separated() {
        // Known value: m = 7, each community L_c = 3, k_c = 7.
        // Q = 2 * (3/7 - (7/14)^2) = 6/7 - 0.5 = 0.357142...
        let q = modularity(&two_cliques(), &good_partition());
        assert!((q - (6.0 / 7.0 - 0.5)).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn all_in_one_community_is_zero() {
        let g = two_cliques();
        let p: Partition = g.node_ids().iter().map(|&n| (n, 0usize)).collect();
        let q = modularity(&g, &p);
        assert!(q.abs() < 1e-12, "q = {q}");
    }

    #[test]
    fn singletons_score_negative() {
        let g = two_cliques();
        let p = Partition::singletons(g.node_ids());
        assert!(modularity(&g, &p) < 0.0);
    }

    #[test]
    fn bad_partition_scores_lower_than_good() {
        let g = two_cliques();
        let bad: Partition = [(1u64, 0usize), (2, 1), (3, 0), (4, 1), (5, 0), (6, 1)]
            .into_iter()
            .collect();
        assert!(modularity(&g, &bad) < modularity(&g, &good_partition()));
    }

    #[test]
    fn modularity_is_bounded() {
        let g = two_cliques();
        for p in [
            good_partition(),
            Partition::singletons(g.node_ids()),
            g.node_ids().iter().map(|&n| (n, 0usize)).collect(),
        ] {
            let q = modularity(&g, &p);
            assert!((-1.0..=1.0).contains(&q), "q = {q}");
        }
    }

    #[test]
    fn empty_graph_is_zero() {
        let g = WeightedGraph::new_undirected();
        assert_eq!(modularity(&g, &Partition::new()), 0.0);
    }

    #[test]
    fn unassigned_nodes_are_singletons() {
        let g = two_cliques();
        // Only assign the first clique; the second behaves as singletons.
        let p: Partition = [(1u64, 0usize), (2, 0), (3, 0)].into_iter().collect();
        let q_partial = modularity(&g, &p);
        let q_explicit: Partition = [(1u64, 0usize), (2, 0), (3, 0), (4, 10), (5, 11), (6, 12)]
            .into_iter()
            .collect();
        assert!((q_partial - modularity(&g, &q_explicit)).abs() < 1e-12);
    }

    #[test]
    fn unassigned_nodes_stay_singletons_beside_any_label() {
        // A triangle {1, 2, 3} and an edge 4-5, with 4 and 5 unassigned:
        // m = 4, the triangle scores 3/4 - (6/8)^2 and each of 4 and 5
        // scores -(1/8)^2, whatever label the triangle carries.
        let mut g = WeightedGraph::new_undirected();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5)] {
            g.add_edge(a, b, 1.0);
        }
        let frozen = g.freeze();
        for label in [0, usize::MAX - 1, usize::MAX - 2, usize::MAX] {
            let p: Partition = [(1u64, label), (2, label), (3, label)]
                .into_iter()
                .collect();
            assert_eq!(modularity_csr(&frozen, &p), 0.15625, "label {label}");
            assert_eq!(modularity_hashmap(&g, &p), 0.15625, "label {label}");
        }
    }

    #[test]
    fn self_loops_affect_degree_convention() {
        // A single node with a self-loop and an isolated edge elsewhere.
        let mut g = WeightedGraph::new_undirected();
        g.add_edge(1, 1, 2.0);
        g.add_edge(2, 3, 1.0);
        let p: Partition = [(1u64, 0usize), (2, 1), (3, 1)].into_iter().collect();
        // m = 3, L_0 = 2, k_0 = 4, L_1 = 1, k_1 = 2.
        // Q = (2/3 - (4/6)^2) + (1/3 - (2/6)^2) = 2/3 - 4/9 + 1/3 - 1/9 = 4/9.
        let q = modularity(&g, &p);
        assert!((q - 4.0 / 9.0).abs() < 1e-9, "q = {q}");
    }

    #[test]
    fn directed_graph_uses_undirected_projection() {
        let mut d = WeightedGraph::new_directed();
        for (a, b) in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)] {
            d.add_edge(a, b, 1.0);
        }
        d.add_edge(3, 4, 1.0);
        let q_dir = modularity(&d, &good_partition());
        let q_undir = modularity(&two_cliques(), &good_partition());
        assert!((q_dir - q_undir).abs() < 1e-12);
    }

    #[test]
    fn csr_and_hashmap_agree_on_fixtures() {
        let g = two_cliques();
        let frozen = g.freeze();
        for p in [
            good_partition(),
            Partition::singletons(g.node_ids()),
            g.node_ids().iter().map(|&n| (n, 0usize)).collect(),
            [(1u64, 0usize), (2, 0), (3, 0)].into_iter().collect(), // partial
        ] {
            let q_csr = modularity_csr(&frozen, &p);
            let q_hash = modularity_hashmap(&g, &p);
            assert!(
                (q_csr - q_hash).abs() < 1e-12,
                "csr {q_csr} vs hashmap {q_hash}"
            );
        }
    }

    #[test]
    fn parallel_thread_counts_are_bit_identical() {
        // Big enough to split into several chunks.
        let mut g = WeightedGraph::new_undirected();
        for i in 0..400u64 {
            g.add_edge(i, (i * 13 + 7) % 400, 1.0 + (i % 5) as f64);
            g.add_edge(i, (i * 29 + 3) % 400, 0.5);
        }
        let frozen = g.freeze();
        let p: Partition = g
            .node_ids()
            .iter()
            .map(|&n| (n, (n % 8) as usize))
            .collect();
        let serial = modularity_csr_threads(&frozen, &p, Some(1));
        for t in [2usize, 4, 8] {
            let parallel = modularity_csr_threads(&frozen, &p, Some(t));
            assert_eq!(serial.to_bits(), parallel.to_bits(), "{t} threads diverged");
        }
        // And the chunked score still agrees with the legacy reference.
        assert!((serial - modularity_hashmap(&g, &p)).abs() < 1e-9);
    }

    #[test]
    fn csr_handles_directed_input() {
        let mut d = WeightedGraph::new_directed();
        d.add_edge(1, 2, 3.0);
        d.add_edge(2, 1, 2.0);
        d.add_edge(2, 3, 1.0);
        d.add_edge(3, 3, 4.0);
        let p: Partition = [(1u64, 0usize), (2, 0), (3, 1)].into_iter().collect();
        let q_csr = modularity_csr(&d.freeze(), &p);
        let q_hash = modularity_hashmap(&d, &p);
        assert!((q_csr - q_hash).abs() < 1e-12);
    }
}
