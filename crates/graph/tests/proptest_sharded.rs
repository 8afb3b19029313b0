//! Property tests for the **shard independence contract**: on arbitrary
//! dense edge columns, [`build_dense_csr_budgeted`] at an explicit shard
//! count (and no spill budget) must produce a graph **bit-identical** to
//! the one-shard [`build_dense_csr`] — same dense node table, same
//! offsets/targets, bit-identical merged weights and cached degrees — at
//! every `(shards, threads)` combination in {1, 2, 4} × {1, 2, 4},
//! directed and undirected, and [`CsrGraph::apply_window`] must treat a
//! sharded-built base exactly like an unsharded one across a chain of
//! window steps.

use moby_graph::{build_dense_csr, build_dense_csr_budgeted, CsrGraph, EdgeColumns};
use proptest::prelude::*;

/// Random dense edge columns over a small sorted station table:
/// `(node_ids, src, dst, weight)` with duplicates and self-loops
/// occurring naturally. Ids are sparse (`i * 1_000 + 7`) so nothing
/// accidentally relies on ids being dense indices.
fn dense_columns() -> impl Strategy<Value = (Vec<u64>, Vec<u32>, Vec<u32>, Vec<f64>)> {
    let edges = prop::collection::vec((0u32..1_000, 0u32..1_000, 0.25f64..8.0), 1..260);
    (2u32..40, edges).prop_map(|(n, edges)| {
        let node_ids: Vec<u64> = (0..u64::from(n)).map(|i| i * 1_000 + 7).collect();
        let src: Vec<u32> = edges.iter().map(|&(s, _, _)| s % n).collect();
        let dst: Vec<u32> = edges.iter().map(|&(_, d, _)| d % n).collect();
        let weight: Vec<f64> = edges.iter().map(|&(_, _, w)| w).collect();
        (node_ids, src, dst, weight)
    })
}

/// Strict equality: the derived `PartialEq` plus bit-level comparison of
/// every weight column and cached degree (`==` would let `0.0 == -0.0`
/// slip through).
fn assert_bit_identical(sharded: &CsrGraph, baseline: &CsrGraph) {
    assert_eq!(sharded, baseline);
    assert_eq!(sharded.node_ids(), baseline.node_ids());
    assert_eq!(sharded.edge_count(), baseline.edge_count());
    assert_eq!(
        sharded.total_weight().to_bits(),
        baseline.total_weight().to_bits()
    );
    for u in 0..baseline.node_count() {
        let (st, sw) = sharded.row(u);
        let (bt, bw) = baseline.row(u);
        assert_eq!(st, bt, "row {u} targets");
        for (a, b) in sw.iter().zip(bw) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {u} merged weight");
        }
        let (sit, siw) = sharded.in_row(u);
        let (bit, biw) = baseline.in_row(u);
        assert_eq!(sit, bit, "in-row {u} targets");
        for (a, b) in siw.iter().zip(biw) {
            assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} merged weight");
        }
        assert_eq!(
            sharded.strength(u).to_bits(),
            baseline.strength(u).to_bits()
        );
        assert_eq!(
            sharded.weighted_degree(u).to_bits(),
            baseline.weighted_degree(u).to_bits()
        );
        assert_eq!(
            sharded.self_loop(u).to_bits(),
            baseline.self_loop(u).to_bits()
        );
    }
}

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 4];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense builds: every `(shards, threads)` grid point reproduces the
    /// unsharded single-thread build bit for bit.
    #[test]
    fn sharded_dense_build_is_shard_and_thread_independent(
        cols in dense_columns(),
        directed in 0u8..2,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let baseline =
            build_dense_csr(directed, node_ids.clone(), &src, &dst, &weight, Some(1));
        for shards in SHARDS {
            for threads in THREADS {
                let sharded = build_dense_csr_budgeted(
                    directed,
                    node_ids.clone(),
                    &src,
                    &dst,
                    &weight,
                    Some(shards),
                    Some(threads),
                    None,
                    None,
                )
                .expect("an unbudgeted build never spills");
                assert_bit_identical(&sharded, &baseline);
            }
        }
    }

    /// Window chains on a **sharded-built base**: the columns split into
    /// a base, a step that appends the next slice, and a step that evicts
    /// a leading slice and appends the rest. The kernel lands bit for bit
    /// on the one-shot unsharded rebuild of the surviving columns, so
    /// sharding the base never leaks into the incremental path. The
    /// kernel takes integer weights, so the weights map onto 1 to 5.
    #[test]
    fn window_chain_on_sharded_base_matches_unsharded_rebuild(
        cols in dense_columns(),
        directed in 0u8..2,
        cuts in (0usize..1000, 0usize..1000, 0usize..1000),
    ) {
        let (node_ids, src, dst, weight) = cols;
        let weight: Vec<f64> = weight.iter().map(|w| w.floor() % 5.0 + 1.0).collect();
        let directed = directed == 1;
        let (a, b, e) = chain_cuts(src.len(), cuts);
        let base = build_dense_csr_budgeted(
            directed,
            node_ids.clone(),
            &src[..a],
            &dst[..a],
            &weight[..a],
            Some(4),
            Some(2),
            None,
            None,
        )
        .expect("an unbudgeted build never spills");
        let graph = window_chain(&base, &node_ids, (&src, &dst, &weight), (a, b, e));
        let rebuilt = build_dense_csr(directed, node_ids, &src[e..], &dst[e..], &weight[e..], Some(1));
        assert_bit_identical(&graph, &rebuilt);
    }
}

/// Order three cuts of `m` columns as `(a, b, e)`: the base holds `..a`,
/// the first step appends `a..b`, the second evicts `..e` (`e <= b`) and
/// appends `b..`.
fn chain_cuts(m: usize, (a, b, e): (usize, usize, usize)) -> (usize, usize, usize) {
    let (mut a, mut b) = (a % (m + 1), b % (m + 1));
    if a > b {
        std::mem::swap(&mut a, &mut b);
    }
    (a, b, e % (b + 1))
}

/// Run [`chain_cuts`]' two steps on `base` over the pinned table.
fn window_chain(
    base: &CsrGraph,
    node_ids: &[u64],
    (src, dst, weight): (&[u32], &[u32], &[f64]),
    (a, b, e): (usize, usize, usize),
) -> CsrGraph {
    let slice =
        |r: std::ops::Range<usize>| EdgeColumns::new(&src[r.clone()], &dst[r.clone()], &weight[r]);
    let step = |g: &CsrGraph, evicted, appended| {
        g.apply_window(node_ids.to_vec(), None, evicted, appended, Some(2))
            .expect("the graph holds every evicted edge")
    };
    let graph = step(base, EdgeColumns::default(), slice(a..b));
    step(&graph, slice(0..e), slice(b..src.len()))
}
