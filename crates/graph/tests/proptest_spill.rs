//! Property tests for the **spill independence contract** (the fourth
//! determinism axis): on arbitrary dense edge columns, the out-of-core
//! spilled construction path must produce a graph **bit-identical** to
//! the in-memory [`build_dense_csr`] — same dense node table, same
//! offsets/targets, bit-identical merged weights, cached degrees and
//! total weight — at every `(shards, threads, budget)` combination,
//! directed and undirected, including a zero budget (spill everything)
//! and a huge budget (spill nothing). Delta and evict chains applied on
//! spill-built bases must land exactly where the in-memory rebuild does.
//!
//! [`apply_delta`]: CsrGraph::apply_delta

use moby_graph::{build_dense_csr, build_dense_csr_budgeted, CsrBuilder, CsrDelta, CsrGraph};
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
fn assert_bit_identical(spilled: &CsrGraph, baseline: &CsrGraph) {
    assert_eq!(spilled, baseline);
    assert_eq!(spilled.node_ids(), baseline.node_ids());
    assert_eq!(spilled.edge_count(), baseline.edge_count());
    assert_eq!(
        spilled.total_weight().to_bits(),
        baseline.total_weight().to_bits()
    );
    for u in 0..baseline.node_count() {
        let (st, sw) = spilled.row(u);
        let (bt, bw) = baseline.row(u);
        assert_eq!(st, bt, "row {u} targets");
        for (a, b) in sw.iter().zip(bw) {
            assert_eq!(a.to_bits(), b.to_bits(), "row {u} merged weight");
        }
        let (sit, siw) = spilled.in_row(u);
        let (bit, biw) = baseline.in_row(u);
        assert_eq!(sit, bit, "in-row {u} targets");
        for (a, b) in siw.iter().zip(biw) {
            assert_eq!(a.to_bits(), b.to_bits(), "in-row {u} merged weight");
        }
        assert_eq!(
            spilled.strength(u).to_bits(),
            baseline.strength(u).to_bits()
        );
        assert_eq!(
            spilled.weighted_degree(u).to_bits(),
            baseline.weighted_degree(u).to_bits()
        );
        assert_eq!(
            spilled.self_loop(u).to_bits(),
            baseline.self_loop(u).to_bits()
        );
    }
}

const SHARDS: [usize; 3] = [1, 2, 4];
const THREADS: [usize; 3] = [1, 2, 4];
/// Budgets in MB: `0` forces every half-edge to disk (the footprint of
/// any non-empty build exceeds zero bytes), the huge value guarantees
/// the in-memory branch — both must land on the same bits.
const BUDGETS_MB: [u64; 2] = [0, 1 << 20];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Dense builds: every `(shards, threads, budget)` grid point
    /// reproduces the in-memory single-thread build bit for bit.
    #[test]
    fn spilled_dense_build_is_budget_shard_and_thread_independent(
        cols in dense_columns(),
        directed in 0u8..2,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let baseline =
            build_dense_csr(directed, node_ids.clone(), &src, &dst, &weight, Some(1));
        for budget_mb in BUDGETS_MB {
            for shards in SHARDS {
                for threads in THREADS {
                    let spilled = build_dense_csr_budgeted(
                        directed,
                        node_ids.clone(),
                        &src,
                        &dst,
                        &weight,
                        Some(shards),
                        Some(threads),
                        Some(budget_mb),
                        None,
                    )
                    .expect("spilled build");
                    assert_bit_identical(&spilled, &baseline);
                }
            }
        }
    }

    /// The first-appearance-interning builder honours the same contract
    /// through [`CsrBuilder::spill_budget`] / [`CsrBuilder::try_build`].
    #[test]
    fn spilled_builder_is_budget_shard_and_thread_independent(
        cols in dense_columns(),
        directed in 0u8..2,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let push_all = |builder: &mut CsrBuilder| {
            for k in 0..src.len() {
                builder.push(
                    node_ids[src[k] as usize],
                    node_ids[dst[k] as usize],
                    weight[k],
                );
            }
        };
        let mut base = if directed {
            CsrBuilder::directed()
        } else {
            CsrBuilder::undirected()
        };
        push_all(&mut base);
        let baseline = base.build();
        for budget_mb in BUDGETS_MB {
            for shards in SHARDS {
                for threads in THREADS {
                    let mut b = if directed {
                        CsrBuilder::directed()
                    } else {
                        CsrBuilder::undirected()
                    }
                    .shards(Some(shards))
                    .threads(Some(threads))
                    .spill_budget(Some(budget_mb));
                    push_all(&mut b);
                    let built = b.try_build().expect("spilled builder build");
                    assert_bit_identical(&built, &baseline);
                }
            }
        }
    }

    /// Delta chains on a **spill-built base**: splitting the columns into
    /// a base plus two appended batches and applying each batch as a
    /// [`CsrDelta`] lands bit-identically on the one-shot in-memory
    /// rebuild of the full columns — spilling the base never leaks into
    /// the incremental path.
    #[test]
    fn apply_delta_on_spilled_base_matches_in_memory_rebuild(
        cols in dense_columns(),
        directed in 0u8..2,
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let directed = directed == 1;
        let m = src.len();
        let (mut a, mut b) = (cut_a % (m + 1), cut_b % (m + 1));
        if a > b {
            std::mem::swap(&mut a, &mut b);
        }
        let mut graph = build_dense_csr_budgeted(
            directed,
            node_ids.clone(),
            &src[..a],
            &dst[..a],
            &weight[..a],
            Some(4),
            Some(2),
            Some(0),
            None,
        )
        .expect("spilled base build");
        for batch in [a..b, b..m] {
            let delta = CsrDelta::from_dense(
                directed,
                node_ids.clone(),
                None,
                &src[batch.clone()],
                &dst[batch.clone()],
                &weight[batch],
            );
            graph = graph.apply_delta(&delta, Some(2));
        }
        let rebuilt = build_dense_csr(directed, node_ids, &src, &dst, &weight, Some(1));
        assert_bit_identical(&graph, &rebuilt);
    }

    /// Evicting the tail of the columns from a **spill-built base** lands
    /// bit-identically on the in-memory build of the surviving prefix —
    /// the removal arm is equally blind to how its input was constructed.
    /// Eviction subtracts exactly only over integer weights, so the
    /// weight column maps onto integers from 1 to 5.
    #[test]
    fn apply_evict_on_spilled_base_matches_in_memory_rebuild(
        cols in dense_columns(),
        directed in 0u8..2,
        cut in 0usize..1000,
    ) {
        let (node_ids, src, dst, weight) = cols;
        let weight: Vec<f64> = weight.iter().map(|w| w.floor() % 5.0 + 1.0).collect();
        let directed = directed == 1;
        let m = src.len();
        let keep = cut % (m + 1);
        let base = build_dense_csr_budgeted(
            directed,
            node_ids.clone(),
            &src,
            &dst,
            &weight,
            Some(2),
            Some(4),
            Some(0),
            None,
        )
        .expect("spilled base build");
        let id = |u: &u32| node_ids[*u as usize];
        let evicted_src: Vec<u64> = src[keep..].iter().map(id).collect();
        let evicted_dst: Vec<u64> = dst[keep..].iter().map(id).collect();
        let evicted = base
            .apply_evict(
                node_ids.clone(),
                &evicted_src,
                &evicted_dst,
                &weight[keep..],
                Some(2),
            )
            .expect("the base holds every evicted edge");
        let rebuilt = build_dense_csr(
            directed,
            node_ids,
            &src[..keep],
            &dst[..keep],
            &weight[..keep],
            Some(1),
        );
        assert_bit_identical(&evicted, &rebuilt);
    }
}
