//! Property suite for the window kernel, [`CsrGraph::apply_window`]: on
//! random integer-weight edge lists — weights 1 to 5 and just under
//! 2^20, directed and undirected — a chain of steps, each evicting a
//! random subset of the live edges and appending random new ones, lands
//! **bit for bit** on a one-shot rebuild after every step, at 1, 2 and 4
//! threads: node table, offsets, targets and in-rows, weight bits, the
//! bits of every cached degree, the edge count and the bits of the total
//! weight.
//!
//! Two kinds of table are covered. A *pinned* table is a sorted pool of
//! ids that [`build_dense_csr`] builds over and every step keeps (map
//! `None`). A *first-appearance* table is what [`CsrBuilder`] interns;
//! a step's new table is the builder's intern of the survivors followed
//! by the appended edges, so nodes drop, move (a row's remapped targets
//! then come out of order) and arrive anywhere. Named cases pin the
//! corners the random chains may miss, and the typed errors.

use moby_graph::window::MAX_EVICT_WEIGHT;
use moby_graph::{build_dense_csr, CsrBuilder, CsrGraph, EdgeColumns, GraphError, NodeId};
use proptest::prelude::*;
use std::collections::HashMap;

/// An edge between external ids, with its weight.
type Edge = (NodeId, NodeId, f64);

/// Ids the base edges draw from; batches also draw from the
/// [`WIDE_POOL`] ids past them, which a first-appearance table does not
/// hold yet.
const BASE_POOL: u64 = 24;
const WIDE_POOL: u64 = 32;

/// The id of pool slot `k`: sparse, so nothing relies on ids being
/// dense indices.
fn id(k: u64) -> NodeId {
    1_000 + 7 * k
}

/// Weights 1 to 5, and 2^20 or 2^20 - 1.
fn weight(k: u32) -> f64 {
    if k < 5 {
        f64::from(k + 1)
    } else {
        MAX_EVICT_WEIGHT - f64::from(k - 5)
    }
}

/// An edge over the first `pool` ids; about one in four is a self-loop.
fn edge(pool: u64) -> impl Strategy<Value = Edge> {
    (0..pool, 0..pool, 0u32..7, 0u8..4).prop_map(|(s, d, w, loop_pick)| {
        let d = if loop_pick == 0 { s } else { d };
        (id(s), id(d), weight(w))
    })
}

/// How a graph's node table is kept.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Table {
    /// Every id of the wide pool, sorted, built by `build_dense_csr`.
    Pinned,
    /// The builder's first-appearance intern of the edges.
    FirstAppearance,
}

/// The one-shot build of `edges` under `table`.
fn build(directed: bool, table: Table, edges: &[Edge], threads: usize) -> CsrGraph {
    match table {
        Table::Pinned => {
            let ids: Vec<NodeId> = (0..WIDE_POOL).map(id).collect();
            let dense = |x: NodeId| ((x - id(0)) / 7) as u32;
            let src: Vec<u32> = edges.iter().map(|e| dense(e.0)).collect();
            let dst: Vec<u32> = edges.iter().map(|e| dense(e.1)).collect();
            let w: Vec<f64> = edges.iter().map(|e| e.2).collect();
            build_dense_csr(directed, ids, &src, &dst, &w, Some(threads))
        }
        Table::FirstAppearance => {
            let mut b = if directed {
                CsrBuilder::directed()
            } else {
                CsrBuilder::undirected()
            }
            .threads(Some(threads));
            for &(s, d, w) in edges {
                b.push(s, d, w);
            }
            b.build()
        }
    }
}

/// Each id's dense index in `ids`.
fn positions(ids: &[NodeId]) -> HashMap<NodeId, u32> {
    ids.iter()
        .enumerate()
        .map(|(i, &x)| (x, i as u32))
        .collect()
}

/// Dense columns of `edges` over a table's `positions`.
fn columns(edges: &[Edge], at: &HashMap<NodeId, u32>) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
    (
        edges.iter().map(|e| at[&e.0]).collect(),
        edges.iter().map(|e| at[&e.1]).collect(),
        edges.iter().map(|e| e.2).collect(),
    )
}

/// Run one step on `graph` through the kernel: evict `evicted` (edges it
/// holds), append `appended`, under the new table `new_ids`.
fn kernel_step(
    graph: &CsrGraph,
    table: Table,
    new_ids: &[NodeId],
    evicted: &[Edge],
    appended: &[Edge],
    threads: usize,
) -> Result<CsrGraph, GraphError> {
    let (old_at, new_at) = (positions(graph.node_ids()), positions(new_ids));
    let map: Vec<u32> = graph
        .node_ids()
        .iter()
        .map(|x| new_at.get(x).copied().unwrap_or(u32::MAX))
        .collect();
    let map = (table == Table::FirstAppearance).then_some(&map[..]);
    let gone = columns(evicted, &old_at);
    let added = columns(appended, &new_at);
    graph.apply_window(
        new_ids.to_vec(),
        map,
        EdgeColumns::new(&gone.0, &gone.1, &gone.2),
        EdgeColumns::new(&added.0, &added.1, &added.2),
        Some(threads),
    )
}

/// Bit-strict equality between a kernel result and a rebuild.
fn assert_identical(got: &CsrGraph, want: &CsrGraph, what: &str) {
    assert_eq!(got.node_ids(), want.node_ids(), "{what}: node table");
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(got.in_offsets(), want.in_offsets(), "{what}: in-offsets");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}: edge count");
    assert_eq!(
        got.total_weight().to_bits(),
        want.total_weight().to_bits(),
        "{what}: total weight"
    );
    let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for u in 0..want.node_count() {
        let (gt, gw) = got.row(u);
        let (wt, ww) = want.row(u);
        assert_eq!(gt, wt, "{what}: row {u} targets");
        assert_eq!(bits(gw), bits(ww), "{what}: row {u} weights");
        let (git, giw) = got.in_row(u);
        let (wit, wiw) = want.in_row(u);
        assert_eq!(git, wit, "{what}: in-row {u} targets");
        assert_eq!(bits(giw), bits(wiw), "{what}: in-row {u} weights");
        let degrees = |g: &CsrGraph| {
            let (s, wd, sl) = (g.strength(u), g.weighted_degree(u), g.self_loop(u));
            [s.to_bits(), wd.to_bits(), sl.to_bits()]
        };
        assert_eq!(degrees(got), degrees(want), "{what}: row {u} degrees");
    }
}

/// Apply one step to `graph` at 1, 2 and 4 threads, check each result
/// against the rebuild over the survivors of `alive` followed by
/// `appended`, and return the kernel's graph and the new live edges.
fn check_step(
    directed: bool,
    table: Table,
    graph: &CsrGraph,
    alive: &[Edge],
    evict: impl Fn(usize) -> bool,
    appended: &[Edge],
) -> (CsrGraph, Vec<Edge>) {
    let (mut after, mut evicted) = (Vec::new(), Vec::new());
    for (k, &e) in alive.iter().enumerate() {
        if evict(k) {
            evicted.push(e);
        } else {
            after.push(e);
        }
    }
    after.extend_from_slice(appended);
    let want = build(directed, table, &after, 1);
    let mut got = want.clone();
    for threads in [1usize, 2, 4] {
        got = kernel_step(graph, table, want.node_ids(), &evicted, appended, threads)
            .expect("the graph holds every evicted edge");
        assert_identical(&got, &want, &format!("{table:?} @ {threads} threads"));
    }
    (got, after)
}

/// Build `base` under `table` and run `steps` — an eviction seed and a
/// batch each — through the kernel, checking every step.
fn check_chain(directed: bool, table: Table, base: &[Edge], steps: &[(u64, Vec<Edge>)]) {
    let mut graph = build(directed, table, base, 2);
    let mut alive = base.to_vec();
    for (seed, batch) in steps {
        // Evict about a third of the live edges, picked by the seed.
        let pick = |k: usize| {
            let x = (seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33).is_multiple_of(3)
        };
        (graph, alive) = check_step(directed, table, &graph, &alive, pick, batch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_chains_match_a_rebuild_after_every_step(
        base in prop::collection::vec(edge(BASE_POOL), 0..60),
        steps in prop::collection::vec(
            (0u64..u64::MAX, prop::collection::vec(edge(WIDE_POOL), 0..20)),
            1..5,
        ),
        directed in 0u8..2,
    ) {
        for table in [Table::Pinned, Table::FirstAppearance] {
            check_chain(directed == 1, table, &base, &steps);
        }
    }
}

/// The tables and directednesses every named case runs under.
fn each_setting(mut case: impl FnMut(bool, Table)) {
    for directed in [false, true] {
        for table in [Table::Pinned, Table::FirstAppearance] {
            case(directed, table);
        }
    }
}

#[test]
fn an_entry_evicted_to_zero_and_re_added_comes_back_with_the_batch_weight() {
    let (a, b, c) = (id(0), id(1), id(2));
    let base = [(a, b, 2.0), (a, b, 3.0), (b, c, 1.0)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let (got, _) = check_step(directed, table, &graph, &base, |k| k < 2, &[(a, b, 4.0)]);
        let (u, v) = (got.index_of(a).unwrap(), got.index_of(b).unwrap());
        assert_eq!(got.edge_weight(a, b), Some(4.0));
        assert!(got.row(u as usize).0.contains(&v));
    });
}

#[test]
fn a_self_loop_evicted_and_re_added_keeps_its_degree_convention() {
    let (a, b) = (id(0), id(1));
    let base = [(a, a, 1.0), (a, b, 2.0), (a, a, 5.0)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let (got, _) = check_step(directed, table, &graph, &base, |k| k != 1, &[(a, a, 3.0)]);
        let u = got.index_of(a).unwrap() as usize;
        assert_eq!(got.self_loop(u), 3.0);
        assert_eq!(got.weighted_degree(u), 2.0 * 3.0 + 2.0);
    });
}

#[test]
fn a_node_whose_edges_all_leave_is_dropped_or_kept_isolated() {
    let (a, b, c) = (id(0), id(1), id(2));
    let base = [(a, b, 1.0), (b, c, 1.0)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let (got, _) = check_step(directed, table, &graph, &base, |k| k == 0, &[]);
        match table {
            Table::Pinned => assert_eq!(got.degree(got.index_of(a).unwrap() as usize), 0),
            Table::FirstAppearance => assert_eq!(got.node_ids(), &[b, c]),
        }
    });
}

#[test]
fn a_node_whose_first_appearance_moves_behind_a_brand_new_node() {
    // Node a is first interned by the evicted edge and next appears only
    // in the batch, after the new node d: the table goes [a, b, c] →
    // [b, c, d, a], a non-monotone map with a node inserted.
    let (a, b, c, d) = (id(0), id(1), id(2), id(WIDE_POOL - 1));
    let base = [(a, b, 1.0), (b, c, 2.0)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let batch = [(d, a, 3.0)];
        let (got, _) = check_step(directed, table, &graph, &base, |k| k == 0, &batch);
        if table == Table::FirstAppearance {
            assert_eq!(got.node_ids(), &[b, c, d, a]);
        }
    });
}

#[test]
fn a_remapped_row_out_of_order_is_re_sorted() {
    // Evicting a–b moves a behind c and u, so u's old row [a, c] remaps
    // to [3, 1] and must be re-sorted.
    let (a, b, c, u) = (id(0), id(1), id(2), id(3));
    let base = [(a, b, 1.0), (b, c, 1.0), (u, a, 2.0), (u, c, 4.0)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let (got, _) = check_step(directed, table, &graph, &base, |k| k == 0, &[]);
        if table == Table::FirstAppearance {
            assert_eq!(got.node_ids(), &[b, c, u, a]);
        }
    });
}

#[test]
fn evicting_every_edge_leaves_no_entry() {
    let base: Vec<Edge> = (0..12)
        .map(|k| (id(k % 5), id(k % 3), weight(k as u32 % 7)))
        .collect();
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 2);
        let (got, _) = check_step(directed, table, &graph, &base, |_| true, &[]);
        assert_eq!(got.edge_count(), 0);
        assert_eq!(got.total_weight(), 0.0);
        if table == Table::FirstAppearance {
            assert!(got.is_empty());
        }
    });
}

#[test]
fn a_step_that_evicts_and_appends_nothing_reproduces_the_graph() {
    let base: Vec<Edge> = (0..20)
        .map(|k| (id(k % 7), id(k % 4), weight(k as u32 % 7)))
        .collect();
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 2);
        let (got, _) = check_step(directed, table, &graph, &base, |_| false, &[]);
        assert_identical(&got, &graph, "empty step");
        let same = kernel_step(&graph, table, graph.node_ids(), &[], &[], 3).unwrap();
        // An unchanged table shares the storage; an identity map rewrites it.
        assert_eq!(same.shares_storage(&graph), table == Table::Pinned);
        assert_identical(&same, &graph, "empty step");
    });
}

#[test]
fn bad_weights_and_over_eviction_are_typed_errors() {
    let (a, b) = (id(0), id(1));
    let base = [(a, b, 2.0), (a, b, MAX_EVICT_WEIGHT)];
    each_setting(|directed, table| {
        let graph = build(directed, table, &base, 1);
        let ids = graph.node_ids().to_vec();
        for w in [
            0.0,
            0.5,
            -3.0,
            f64::NAN,
            f64::INFINITY,
            MAX_EVICT_WEIGHT + 1.0,
        ] {
            let bad = [(a, b, w)];
            for (evicted, appended) in [(&bad[..], &[][..]), (&[][..], &bad[..])] {
                let got = kernel_step(&graph, table, &ids, evicted, appended, 2);
                assert!(
                    matches!(got, Err(GraphError::InvalidWeight(x)) if x.to_bits() == w.to_bits()),
                    "{w}: {got:?}"
                );
            }
        }
        // More weight than the entry holds, alone or summed over two
        // evictions, and an edge the graph never held.
        let too_much = [(a, b, MAX_EVICT_WEIGHT), (a, b, 3.0)];
        let not_held = Err(GraphError::EdgeNotHeld { src: a, dst: b });
        assert_eq!(
            kernel_step(&graph, table, &ids, &too_much, &[], 2),
            not_held
        );
        let reversed = [(b, b, 1.0)];
        let got = kernel_step(&graph, table, &ids, &reversed, &[], 2);
        assert_eq!(got, Err(GraphError::EdgeNotHeld { src: b, dst: b }));
    });
}
