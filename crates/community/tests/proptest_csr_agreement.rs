//! Property tests: the CSR community-detection path must agree with the
//! legacy hash-map path — modularity of an arbitrary partition to within
//! float-accumulation tolerance, and Louvain partitions exactly — for
//! random directed and undirected graphs including self-loops. The
//! parallel execution layer must additionally be *bit-identical* to the
//! serial CSR path at 1, 2 and 4 worker threads.

use moby_community::{
    label_propagation_csr, louvain_csr, louvain_hashmap, modularity_csr, modularity_csr_threads,
    modularity_hashmap, LabelPropagationConfig, LouvainConfig, Partition,
};
use moby_graph::WeightedGraph;
use proptest::prelude::*;

fn edge_list() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0u64..25, 0u64..25, 0.5f64..6.0), 1..180)
}

/// A denser edge list whose CSR row space splits into several scheduler
/// chunks, so the parallel properties exercise the speculative scan path
/// rather than collapsing to the inline single-chunk case.
fn chunky_edge_list() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0u64..60, 0u64..60, 0.5f64..6.0), 300..700)
}

fn build(directed: bool, edges: &[(u64, u64, f64)]) -> WeightedGraph {
    let mut g = if directed {
        WeightedGraph::new_directed()
    } else {
        WeightedGraph::new_undirected()
    };
    for &(a, b, w) in edges {
        g.add_edge(a, b, w);
    }
    g
}

/// An arbitrary (possibly partial) partition over the id space.
fn arbitrary_partition() -> impl Strategy<Value = Partition> {
    prop::collection::vec((0u64..25, 0usize..6), 0..25)
        .prop_map(|pairs| pairs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn modularity_agrees_on_undirected_graphs(
        edges in edge_list(),
        partition in arbitrary_partition(),
    ) {
        let g = build(false, &edges);
        let q_csr = modularity_csr(&g.freeze(), &partition);
        let q_hash = modularity_hashmap(&g, &partition);
        prop_assert!((q_csr - q_hash).abs() < 1e-9, "csr {q_csr} vs hashmap {q_hash}");
    }

    #[test]
    fn modularity_agrees_on_directed_graphs(
        edges in edge_list(),
        partition in arbitrary_partition(),
    ) {
        let g = build(true, &edges);
        let q_csr = modularity_csr(&g.freeze(), &partition);
        let q_hash = modularity_hashmap(&g, &partition);
        prop_assert!((q_csr - q_hash).abs() < 1e-9, "csr {q_csr} vs hashmap {q_hash}");
    }

    #[test]
    fn modularity_does_not_depend_on_label_values(
        edges in edge_list(),
        partition in arbitrary_partition(),
        directed in 0u8..2,
    ) {
        // The shift keeps the labels' order and moves them next to
        // usize::MAX; unassigned nodes must stay singletons beside them.
        let g = build(directed == 1, &edges);
        let frozen = g.freeze();
        let shifted: Partition = partition
            .iter()
            .map(|(node, c)| (node, c + (usize::MAX - 8)))
            .collect();
        prop_assert_eq!(
            modularity_csr(&frozen, &partition).to_bits(),
            modularity_csr(&frozen, &shifted).to_bits()
        );
        prop_assert_eq!(
            modularity_hashmap(&g, &partition).to_bits(),
            modularity_hashmap(&g, &shifted).to_bits()
        );
    }

    #[test]
    fn louvain_partitions_are_identical_across_paths(edges in edge_list()) {
        let g = build(false, &edges);
        let cfg = LouvainConfig::default();
        let p_csr = louvain_csr(&g.freeze(), &cfg);
        let p_hash = louvain_hashmap(&g, &cfg);
        prop_assert_eq!(p_csr, p_hash);
    }

    #[test]
    fn parallel_louvain_matches_serial_at_any_thread_count(
        edges in chunky_edge_list(),
        directed in 0u8..2,
    ) {
        let g = build(directed == 1, &edges);
        let frozen = g.freeze();
        let serial = louvain_csr(&frozen, &LouvainConfig {
            threads: Some(1),
            ..Default::default()
        });
        for t in [2usize, 4] {
            let parallel = louvain_csr(&frozen, &LouvainConfig {
                threads: Some(t),
                ..Default::default()
            });
            prop_assert_eq!(&serial, &parallel, "{} threads diverged", t);
        }
    }

    #[test]
    fn parallel_modularity_is_bit_identical_at_any_thread_count(
        edges in chunky_edge_list(),
        partition in arbitrary_partition(),
        directed in 0u8..2,
    ) {
        let g = build(directed == 1, &edges);
        let frozen = g.freeze();
        let serial = modularity_csr_threads(&frozen, &partition, Some(1));
        for t in [2usize, 4] {
            let parallel = modularity_csr_threads(&frozen, &partition, Some(t));
            prop_assert_eq!(serial.to_bits(), parallel.to_bits(),
                "{} threads: {} vs {}", t, serial, parallel);
        }
    }

    #[test]
    fn parallel_label_propagation_matches_serial_at_any_thread_count(
        edges in chunky_edge_list(),
        seed in 0u64..20,
    ) {
        let g = build(false, &edges);
        let frozen = g.freeze();
        let serial = label_propagation_csr(&frozen, &LabelPropagationConfig {
            seed,
            threads: Some(1),
            ..Default::default()
        });
        for t in [2usize, 4] {
            let parallel = label_propagation_csr(&frozen, &LabelPropagationConfig {
                seed,
                threads: Some(t),
                ..Default::default()
            });
            prop_assert_eq!(&serial, &parallel, "{} threads diverged", t);
        }
    }
}
