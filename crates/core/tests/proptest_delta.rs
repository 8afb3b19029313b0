//! Differential proptests for the incremental ingestion path.
//!
//! The contract under test: appending random trip batches to a
//! [`TripTable`] and advancing the frozen graphs through the window
//! kernel (`CsrGraph::apply_window` with nothing evicted) is **bitwise
//! equal** — node table, offsets, targets, weights, cached degrees, edge
//! counts, total weight — to rebuilding everything in one shot from the
//! concatenated table via `build_dense_csr` / `build_all_from_trips`, at
//! 1/2/4 threads, and the temporal graphs equal the independent hash-map
//! reference (`reference_graph(..).freeze()`). The station graphs take
//! each batch through the kernel with `AppendOutcome::old_to_new` as the
//! map. A batch over known stations is a window step that evicts
//! nothing, so the temporal graphs take it through `apply_window_all`;
//! one that interns a station has no incremental temporal path, and the
//! temporal graphs are rebuilt. Random cases are supplemented by the
//! named edge cases: empty batches, batches of only-duplicate edges, and
//! batches introducing only-new stations.

use moby_core::reassign::WindowOutcome;
use moby_core::temporal::{apply_window_all, build_all_from_trips, reference_graph, TemporalGraph};
use moby_data::trips::{EvictOutcome, TripBatch, TripTable};
use moby_graph::{build_dense_csr, CsrGraph, EdgeColumns};
use proptest::prelude::*;

/// A generated trip row: external endpoints, temporal keys, weight.
type Row = (u64, u64, u8, u8, f64);

/// Base-table station pool: ids 100..140 (even only, so "odd" ids can act
/// as never-seen stations in batches).
const BASE_POOL: [u64; 20] = [
    100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130, 132, 134, 136,
    138,
];

/// Strategy for one trip row with an integer weight from 1 to 5, the
/// trip domain. `wide` draws endpoints from a pool twice the base
/// table's, so batches routinely introduce new stations.
fn row(wide: bool) -> impl Strategy<Value = Row> {
    let ids = if wide { 40u64 } else { 20 };
    (0..ids, 0..ids, 0u8..7, 0u8..24, 1u32..6).prop_map(move |(s, d, day, hour, w)| {
        (
            100 + 2 * (s % 20) + u64::from(s >= 20),
            100 + 2 * (d % 20) + u64::from(d >= 20),
            day,
            hour,
            f64::from(w),
        )
    })
}

/// Bit-strict equality between two frozen graphs.
fn assert_identical(got: &CsrGraph, want: &CsrGraph, what: &str) {
    assert_eq!(got.node_ids(), want.node_ids(), "{what}: node table");
    assert_eq!(got.offsets(), want.offsets(), "{what}: offsets");
    assert_eq!(got.edge_count(), want.edge_count(), "{what}: edge count");
    assert_eq!(
        got.total_weight().to_bits(),
        want.total_weight().to_bits(),
        "{what}: total weight"
    );
    for u in 0..want.node_count() {
        let (gt, gw) = got.row(u);
        let (wt, ww) = want.row(u);
        assert_eq!(gt, wt, "{what}: row {u} targets");
        for (a, b) in gw.iter().zip(ww) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: row {u} weights");
        }
        let (git, giw) = got.in_row(u);
        let (wit, wiw) = want.in_row(u);
        assert_eq!(git, wit, "{what}: in-row {u} targets");
        for (a, b) in giw.iter().zip(wiw) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: in-row {u} weights");
        }
        assert_eq!(
            got.strength(u).to_bits(),
            want.strength(u).to_bits(),
            "{what}: strength {u}"
        );
        assert_eq!(
            got.weighted_degree(u).to_bits(),
            want.weighted_degree(u).to_bits(),
            "{what}: weighted degree {u}"
        );
        assert_eq!(
            got.self_loop(u).to_bits(),
            want.self_loop(u).to_bits(),
            "{what}: self-loop {u}"
        );
    }
}

/// What an eviction that removed nothing reports.
fn no_eviction() -> EvictOutcome {
    EvictOutcome {
        evicted_src: Vec::new(),
        evicted_dst: Vec::new(),
        evicted_day: Vec::new(),
        evicted_hour: Vec::new(),
        evicted_weight: Vec::new(),
        new_to_old: None,
        removed_stations: Vec::new(),
    }
}

/// Build the base table over [`BASE_POOL`] (isolated stations included)
/// and push the base rows.
fn base_table(base_rows: &[Row]) -> TripTable {
    let mut table = TripTable::new(BASE_POOL.to_vec());
    for &(s, d, day, hour, w) in base_rows {
        let si = table.station_index(s).expect("base row in pool");
        let di = table.station_index(d).expect("base row in pool");
        table.push_keyed(si, di, day, hour, w).unwrap();
    }
    table
}

/// Run the full differential check: incrementally apply `batches` on top
/// of `base_rows` at the given thread count, asserting after every batch
/// that the trip table, both trip graphs and all three temporal graphs
/// are bitwise equal to one-shot rebuilds from the concatenated data.
fn check_chain(base_rows: &[Row], batches: &[Vec<Row>], threads: usize) {
    let threads = Some(threads);
    let mut table = base_table(base_rows);
    let mut directed = build_dense_csr(
        true,
        table.station_ids().to_vec(),
        table.src(),
        table.dst(),
        table.weights(),
        threads,
    );
    let mut undirected = build_dense_csr(
        false,
        table.station_ids().to_vec(),
        table.src(),
        table.dst(),
        table.weights(),
        threads,
    );
    let mut temporals: Vec<TemporalGraph> = build_all_from_trips(&table, None, threads);
    let mut all_rows: Vec<Row> = base_rows.to_vec();

    for rows in batches {
        let mut batch = TripBatch::new();
        for &(s, d, day, hour, w) in rows {
            batch.push_keyed(s, d, day, hour, w);
        }
        let outcome = table.append_batch(&batch).unwrap();
        all_rows.extend_from_slice(rows);

        // The incrementally appended table equals one built from scratch
        // over the union station set with every row pushed in order.
        let mut scratch_ids: Vec<u64> = BASE_POOL.to_vec();
        scratch_ids.extend(all_rows.iter().flat_map(|&(s, d, ..)| [s, d]));
        let mut scratch = TripTable::new(scratch_ids);
        for &(s, d, day, hour, w) in &all_rows {
            let si = scratch.station_index(s).unwrap();
            let di = scratch.station_index(d).unwrap();
            scratch.push_keyed(si, di, day, hour, w).unwrap();
        }
        assert_eq!(table, scratch, "appended table diverged from scratch");

        // Kernel steps vs one-shot rebuilds.
        let bs = outcome.batch_start;
        let appended = EdgeColumns::new(
            &table.src()[bs..],
            &table.dst()[bs..],
            &table.weights()[bs..],
        );
        for graph in [&mut directed, &mut undirected] {
            let next = graph
                .apply_window(
                    table.station_ids().to_vec(),
                    outcome.old_to_new.as_deref(),
                    EdgeColumns::default(),
                    appended,
                    threads,
                )
                .expect("a batch in the trip domain");
            *graph = next;
        }
        temporals = if outcome.old_to_new.is_none() {
            let outcome = WindowOutcome {
                evicted: no_eviction(),
                appended: outcome,
            };
            apply_window_all(temporals, &table, &outcome, None, threads)
        } else {
            build_all_from_trips(&table, None, threads)
        };

        let want_directed = build_dense_csr(
            true,
            table.station_ids().to_vec(),
            table.src(),
            table.dst(),
            table.weights(),
            Some(1),
        );
        assert_identical(&directed, &want_directed, "directed");
        let want_undirected = build_dense_csr(
            false,
            table.station_ids().to_vec(),
            table.src(),
            table.dst(),
            table.weights(),
            Some(1),
        );
        assert_identical(&undirected, &want_undirected, "undirected");
        let want_temporals = build_all_from_trips(&table, None, Some(1));
        for (got, want) in temporals.iter().zip(&want_temporals) {
            assert_eq!(got.granularity, want.granularity);
            let name = got.granularity.graph_name();
            assert_identical(&got.csr, &want.csr, name);
            assert_eq!(got.layer_map, want.layer_map, "{name}: layer map");
            let (reference, layer_map) = reference_graph(&table, got.granularity, false);
            assert_identical(&got.csr, &reference.freeze(), name);
            assert_eq!(got.layer_map, layer_map, "{name}: reference layer map");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn delta_chain_is_bitwise_equal_to_rebuild(
        base in prop::collection::vec(row(false), 0..120),
        batch1 in prop::collection::vec(row(true), 0..40),
        batch2 in prop::collection::vec(row(true), 0..40),
        batch3 in prop::collection::vec(row(true), 0..40),
    ) {
        for threads in [1usize, 2, 4] {
            check_chain(&base, &[batch1.clone(), batch2.clone(), batch3.clone()], threads);
        }
    }
}

#[test]
fn empty_batches_are_identity() {
    let base: Vec<Row> = vec![(100, 102, 0, 8, 1.0), (102, 104, 3, 17, 3.0)];
    for threads in [1usize, 2, 4] {
        check_chain(&base, &[vec![], vec![], vec![]], threads);
    }
}

#[test]
fn only_duplicate_edge_batches_merge_into_existing_entries() {
    // Every batch row repeats an edge the base already has, at the same
    // temporal key — merged weights must continue the rebuild's fold.
    // Trip weights are integers, so the order of that fold cannot show.
    let base: Vec<Row> = vec![
        (100, 102, 0, 8, 1.0),
        (100, 102, 0, 8, 5.0),
        (104, 104, 6, 23, 2.0), // self-loop
    ];
    let dup: Vec<Row> = vec![
        (100, 102, 0, 8, 3.0),
        (100, 102, 0, 8, 4.0),
        (104, 104, 6, 23, 1.0),
        (100, 102, 0, 8, 2.0),
    ];
    for threads in [1usize, 2, 4] {
        check_chain(&base, &[dup.clone(), dup.clone()], threads);
    }
}

#[test]
fn only_new_station_batches_interleave_into_the_intern_table() {
    // Batch endpoints are entirely disjoint from the base pool: odd ids
    // interleave between the even base ids, plus ids sorting before and
    // after the whole pool.
    let base: Vec<Row> = vec![(100, 102, 0, 8, 1.0), (136, 138, 4, 12, 3.0)];
    let fresh1: Vec<Row> = vec![(101, 103, 1, 9, 2.0), (1, 103, 2, 10, 5.0)];
    let fresh2: Vec<Row> = vec![(999, 1, 5, 20, 4.0), (101, 999, 6, 21, 3.0)];
    for threads in [1usize, 2, 4] {
        check_chain(&base, &[fresh1.clone(), fresh2.clone()], threads);
    }
}

#[test]
fn empty_base_table_accepts_batches() {
    let batches = vec![
        vec![(100u64, 101, 0, 8, 1.0), (101, 102, 1, 9, 2.0)],
        vec![],
        vec![(102u64, 100, 2, 10, 4.0)],
    ];
    for threads in [1usize, 2, 4] {
        check_chain(&[], &batches, threads);
    }
}
