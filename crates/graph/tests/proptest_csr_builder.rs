//! Property tests for the columnar construction path: on arbitrary edge
//! lists with duplicates and self-loops, [`build_dense_csr`] over the
//! edges' dense columns must produce a graph **identical** to
//! `WeightedGraph::freeze()` of the same edges — same dense node table,
//! same offsets/targets, bit-identical merged weights and cached degrees —
//! at 1, 2 and 4 build threads, on short rows and on rows hundreds of
//! entries long. The node table is either the edges' first-appearance
//! order, which `WeightedGraph` interns without seeding, or a sorted table
//! with an isolated node, seeded into `WeightedGraph` up front.

use moby_graph::{build_dense_csr, CsrGraph, NodeId, WeightedGraph};
use proptest::prelude::*;

/// Random edge list over a sparse id space; duplicates and `a == b`
/// self-loops occur naturally.
fn edge_list() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    prop::collection::vec((0u64..30, 0u64..30, 0.25f64..8.0), 1..220).prop_map(|edges| {
        edges
            .into_iter()
            .map(|(a, b, w)| (a * 1_000 + 7, b * 1_000 + 7, w))
            .collect()
    })
}

/// Rows far longer than the small-sort cutoff: 2–6 node ids and
/// 100–1 500 edges, so a row holds hundreds of entries. The weights come
/// from {0.1, 0.3, 1.0, 1e16}, whose sums depend on the fold order, so a
/// merge that does not fold equal targets in insertion order changes the
/// merged bits.
fn long_rows() -> impl Strategy<Value = Vec<(u64, u64, f64)>> {
    const WEIGHTS: [f64; 4] = [0.1, 0.3, 1.0, 1e16];
    let edges = prop::collection::vec((0u64..6, 0u64..6, 0usize..4), 100..1_500);
    (2u64..7, edges).prop_map(|(ids, edges)| {
        edges
            .into_iter()
            .map(|(a, b, w)| ((a % ids) * 1_000 + 7, (b % ids) * 1_000 + 7, WEIGHTS[w]))
            .collect()
    })
}

/// Strict equality: the derived `PartialEq` plus bit-level comparison of
/// every weight column and cached degree (`==` would let `0.0 == -0.0`
/// slip through).
fn assert_bit_identical(built: &CsrGraph, frozen: &CsrGraph) {
    assert_eq!(built, frozen);
    assert_eq!(built.node_ids(), frozen.node_ids());
    assert_eq!(built.edge_count(), frozen.edge_count());
    assert_eq!(
        built.total_weight().to_bits(),
        frozen.total_weight().to_bits()
    );
    for u in 0..frozen.node_count() {
        let (bt, bw) = built.row(u);
        let (ft, fw) = frozen.row(u);
        assert_eq!(bt, ft, "row {u} targets");
        for (a, b) in bw.iter().zip(fw) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {u} merged weight");
        }
        let (bit, biw) = built.in_row(u);
        let (fit, fiw) = frozen.in_row(u);
        assert_eq!(bit, fit, "in-row {u} targets");
        for (a, b) in biw.iter().zip(fiw) {
            assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} merged weight");
        }
        assert_eq!(built.strength(u).to_bits(), frozen.strength(u).to_bits());
        assert_eq!(
            built.weighted_degree(u).to_bits(),
            frozen.weighted_degree(u).to_bits()
        );
        assert_eq!(built.self_loop(u).to_bits(), frozen.self_loop(u).to_bits());
    }
}

fn check(edges: &[(u64, u64, f64)], directed: bool, seeded: bool) {
    let mut g = if directed {
        WeightedGraph::new_directed()
    } else {
        WeightedGraph::new_undirected()
    };
    let mut table: Vec<NodeId> = Vec::new();
    if seeded {
        // Seeding mirrors how projections pre-add the full (sorted) node
        // set so isolated nodes stay visible.
        table = edges.iter().flat_map(|&(a, b, _)| [a, b]).collect();
        table.push(999_999_999); // one isolated node
        table.sort_unstable();
        table.dedup();
        for &id in &table {
            g.add_node(id);
        }
    } else {
        for &(a, b, _) in edges {
            for id in [a, b] {
                if !table.contains(&id) {
                    table.push(id);
                }
            }
        }
    }
    for &(a, b, w) in edges {
        g.add_edge(a, b, w);
    }
    let frozen = g.freeze();
    let dense = |id: NodeId| table.iter().position(|&x| x == id).unwrap() as u32;
    let src: Vec<u32> = edges.iter().map(|e| dense(e.0)).collect();
    let dst: Vec<u32> = edges.iter().map(|e| dense(e.1)).collect();
    let weight: Vec<f64> = edges.iter().map(|e| e.2).collect();
    for threads in [1usize, 2, 4] {
        let built = build_dense_csr(directed, table.clone(), &src, &dst, &weight, Some(threads));
        assert_bit_identical(&built, &frozen);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn undirected_build_is_identical_to_freeze(edges in edge_list()) {
        check(&edges, false, false);
    }

    #[test]
    fn directed_build_is_identical_to_freeze(edges in edge_list()) {
        check(&edges, true, false);
    }

    #[test]
    fn seeded_build_is_identical_to_freeze(edges in edge_list(), directed in 0u8..2) {
        check(&edges, directed == 1, true);
    }

    #[test]
    fn long_row_build_is_identical_to_freeze(
        edges in long_rows(),
        directed in 0u8..2,
        seeded in 0u8..2,
    ) {
        check(&edges, directed == 1, seeded == 1);
    }
}
