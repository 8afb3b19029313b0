//! Differential proptests for the windowed lifecycle.
//!
//! The contract under test: interleaving random trip batches, window
//! evictions and whole window steps over a [`TripTable`] — advancing the
//! frozen graphs through the window kernel (`CsrGraph::apply_window`)
//! and `apply_window_all` — is **bitwise equal** — node table, offsets,
//! targets, weights, cached degrees, edge counts, total weight, layer
//! maps — to rebuilding everything in one shot from the surviving table,
//! at 1/2/4 threads and 1/4 construction shards. Trip weights are
//! integers from 1 to 5, so evicted rows carry more than one unit and
//! the subtraction they drive is exact. The temporal graphs are
//! also pinned to the independent hash-map reference
//! (`reference_graph(..).freeze()`), since evictions move layer nodes'
//! first appearances and the rebuild shares the layer intern under test.
//!
//! The station graphs take every op through the kernel, with the maps
//! `AppendOutcome::old_to_new` and `EvictOutcome::new_to_old` give. A
//! window step runs as `SelectedNetwork::advance_window` does — a pinned
//! eviction, then a batch over stations the table holds, one kernel pass
//! per graph — and the temporal graphs follow through `apply_window_all`,
//! both with `GBasic` shared and with it advanced there. An ingest-only
//! or evict-only op that keeps the station table is such a step with one
//! side empty and goes the same way; one that interns or compacts away a
//! station has no incremental temporal path, so the temporal graphs are
//! rebuilt. Random chains are supplemented by the named edge cases:
//! evicting everything, evicting nothing, pinned evictions that leave
//! isolated stations, and a batch re-adding a station the previous
//! eviction compacted away.

use moby_core::reassign::WindowOutcome;
use moby_core::temporal::{
    apply_window_all, build_all_from_trips, build_all_from_trips_spilled, reference_graph,
    TemporalGraph,
};
use moby_data::trips::{AppendOutcome, EvictOutcome, TripBatch, TripTable, WindowStart};
use moby_graph::{build_dense_csr, CsrGraph, EdgeColumns};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A generated trip row: external endpoints, temporal keys, weight.
type Row = (u64, u64, u8, u8, f64);

/// One step of a windowed chain.
#[derive(Clone, Debug)]
enum Op {
    /// Append a batch of rows.
    Ingest(Vec<Row>),
    /// Evict every row before the window start.
    Evict(WindowStart),
    /// One window step: a pinned eviction, then the rows as a batch
    /// moved onto stations the table holds.
    Window(WindowStart, Vec<Row>),
}

/// Base-table station pool: ids 100..140 (even only, so "odd" ids can act
/// as never-seen stations in batches).
const BASE_POOL: [u64; 20] = [
    100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120, 122, 124, 126, 128, 130, 132, 134, 136,
    138,
];

/// Strategy for one trip row with an integer weight from 1 to 5. `wide`
/// draws endpoints from a pool twice the base table's, so batches
/// routinely introduce new stations.
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

/// Strategy for one chain step: mostly ingests, with evictions and window
/// steps mixed in (the vendored proptest has no `prop_oneof`, so the
/// branch is encoded as a drawn selector).
fn op() -> impl Strategy<Value = Op> {
    (
        0u8..4,
        prop::collection::vec(row(true), 0..30),
        0u8..7,
        0u8..24,
    )
        .prop_map(|(kind, rows, d, h)| match kind {
            0 | 1 => Op::Ingest(rows),
            2 => Op::Evict(WindowStart::new(d, h)),
            _ => Op::Window(WindowStart::new(d, h), rows),
        })
}

/// The rows of a window step's batch, each endpoint the table does not
/// hold moved onto one it does, as `advance_window` requires; none when
/// the table holds no station.
fn onto_known_stations(table: &TripTable, rows: &[Row]) -> Vec<Row> {
    let known = table.station_ids();
    if known.is_empty() {
        return Vec::new();
    }
    let pick = |id: u64| match known.binary_search(&id) {
        Ok(_) => id,
        Err(_) => known[id as usize % known.len()],
    };
    rows.iter()
        .map(|&(s, d, day, hour, w)| (pick(s), pick(d), day, hour, w))
        .collect()
}

/// Append `rows` to the table as one batch.
fn append(table: &mut TripTable, rows: &[Row]) -> AppendOutcome {
    let mut batch = TripBatch::new();
    for &(s, d, day, hour, w) in rows {
        batch.push_keyed(s, d, day, hour, w);
    }
    table
        .append_batch(&batch)
        .expect("weights in the trip domain")
}

/// Advance both station graphs through the kernel past one op: the
/// rows `evicted` dropped (external ids over the graphs' own table,
/// which the eviction compacted by its `new_to_old` when it dropped
/// stations), then the rows `appended` added (over the table after it,
/// shifted by its `old_to_new`).
fn step_station_graphs(
    table: &TripTable,
    evicted: Option<&EvictOutcome>,
    appended: Option<&AppendOutcome>,
    graphs: [&mut CsrGraph; 2],
    threads: Option<usize>,
) {
    for graph in graphs {
        let old_ids = graph.node_ids();
        let dense = |ids: &[u64]| -> Vec<u32> {
            ids.iter()
                .map(|id| old_ids.binary_search(id).expect("evicted station") as u32)
                .collect()
        };
        let none = (Vec::new(), Vec::new(), Vec::new());
        let gone = evicted.map_or(none, |e| {
            let weight = e.evicted_weight.clone();
            (dense(&e.evicted_src), dense(&e.evicted_dst), weight)
        });
        // Old → new: through the eviction's compaction, then the append's
        // shift.
        let mut map: Vec<u32> = (0..old_ids.len() as u32).collect();
        if let Some(new_to_old) = evicted.and_then(|e| e.new_to_old.as_ref()) {
            map.fill(u32::MAX);
            for (nu, &ou) in new_to_old.iter().enumerate() {
                map[ou as usize] = nu as u32;
            }
        }
        if let Some(shift) = appended.and_then(|a| a.old_to_new.as_ref()) {
            for nu in map.iter_mut().filter(|nu| **nu != u32::MAX) {
                *nu = shift[*nu as usize];
            }
        }
        let unchanged = evicted.is_none_or(|e| e.new_to_old.is_none())
            && appended.is_none_or(|a| a.old_to_new.is_none());
        let bs = appended.map_or(table.len(), |a| a.batch_start);
        let added = EdgeColumns::new(
            &table.src()[bs..],
            &table.dst()[bs..],
            &table.weights()[bs..],
        );
        let next = graph
            .apply_window(
                table.station_ids().to_vec(),
                (!unchanged).then_some(&map[..]),
                EdgeColumns::new(&gone.0, &gone.1, &gone.2),
                added,
                threads,
            )
            .expect("the graph holds the evicted rows");
        *graph = next;
    }
}

/// Carry the temporal graphs past one op: through `apply_window_all`
/// when the op is a window step (the station table kept), by a rebuild
/// otherwise.
fn step_temporals(
    temporals: Vec<TemporalGraph>,
    table: &TripTable,
    outcome: WindowOutcome,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    if outcome.evicted.new_to_old.is_none() && outcome.appended.old_to_new.is_none() {
        apply_window_all(temporals, table, &outcome, None, threads)
    } else {
        build_all_from_trips(table, None, threads)
    }
}

/// What an empty eviction or an empty append of `table` reports.
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

fn no_append(table: &TripTable) -> AppendOutcome {
    AppendOutcome {
        batch_start: table.len(),
        old_to_new: None,
        new_stations: Vec::new(),
    }
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

/// Assert the incrementally-advanced state equals one-shot rebuilds from
/// the model: scratch table over `stations` + `rows`, fresh CSRs, fresh
/// temporal graphs.
fn assert_matches_model(
    table: &TripTable,
    directed: &CsrGraph,
    undirected: &CsrGraph,
    temporals: &[TemporalGraph],
    stations: &BTreeSet<u64>,
    rows: &[Row],
) {
    let mut scratch = TripTable::new(stations.iter().copied().collect());
    for &(s, d, day, hour, w) in rows {
        let si = scratch.station_index(s).expect("model station");
        let di = scratch.station_index(d).expect("model station");
        scratch.push_keyed(si, di, day, hour, w).unwrap();
    }
    assert_eq!(table, &scratch, "advanced table diverged from model");

    for (dir, got, what) in [
        (true, directed, "directed"),
        (false, undirected, "undirected"),
    ] {
        let want = build_dense_csr(
            dir,
            table.station_ids().to_vec(),
            table.src(),
            table.dst(),
            table.weights(),
            Some(1),
        );
        assert_identical(got, &want, what);
    }
    let want_temporals = build_all_from_trips(table, None, Some(1));
    for (got, want) in temporals.iter().zip(&want_temporals) {
        assert_eq!(got.granularity, want.granularity);
        let name = got.granularity.graph_name();
        assert_identical(&got.csr, &want.csr, name);
        assert_eq!(got.layer_map, want.layer_map, "{name}: layer map");
        let (reference, layer_map) = reference_graph(table, got.granularity, false);
        assert_identical(&got.csr, &reference.freeze(), name);
        assert_eq!(got.layer_map, layer_map, "{name}: reference layer map");
    }
}

/// Run the full differential check: starting from `base_rows`, apply the
/// chain of ingest/evict ops at the given thread and shard counts,
/// asserting after every step that the table, both station graphs and
/// all three temporal graphs are bitwise equal to one-shot rebuilds.
///
/// `pinned` selects `evict_before_pinned` (fixed station set, isolated
/// rows survive) over the compacting `evict_before`.
fn check_chain(base_rows: &[Row], ops: &[Op], threads: usize, shards: usize, pinned: bool) {
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
    let mut temporals =
        build_all_from_trips_spilled(&table, None, Some(shards), threads, None, None)
            .expect("an unbudgeted build never spills");

    // The model: surviving rows in order, plus the station set the intern
    // table must hold (always sorted — both append and compaction keep
    // the dense order sorted by external id).
    let mut rows: Vec<Row> = base_rows.to_vec();
    let mut stations: BTreeSet<u64> = BASE_POOL.iter().copied().collect();

    for op in ops {
        match op {
            Op::Ingest(batch_rows) => {
                let appended = append(&mut table, batch_rows);
                rows.extend_from_slice(batch_rows);
                stations.extend(batch_rows.iter().flat_map(|&(s, d, ..)| [s, d]));
                let graphs = [&mut directed, &mut undirected];
                step_station_graphs(&table, None, Some(&appended), graphs, threads);
                let outcome = WindowOutcome {
                    evicted: no_eviction(),
                    appended,
                };
                temporals = step_temporals(temporals, &table, outcome, threads);
            }
            Op::Evict(window) => {
                let evicted = if pinned {
                    table.evict_before_pinned(*window)
                } else {
                    table.evict_before(*window)
                };
                rows.retain(|&(_, _, day, hour, _)| window.keeps(day, hour));
                if !pinned && !evicted.is_noop() {
                    stations = rows.iter().flat_map(|&(s, d, ..)| [s, d]).collect();
                }
                let graphs = [&mut directed, &mut undirected];
                step_station_graphs(&table, Some(&evicted), None, graphs, threads);
                let appended = no_append(&table);
                let outcome = WindowOutcome { evicted, appended };
                temporals = step_temporals(temporals, &table, outcome, threads);
            }
            Op::Window(window, batch_rows) => {
                // As `SelectedNetwork::advance_window`: the pinned
                // eviction, then the batch, in one kernel pass per graph;
                // the station set stays.
                let batch_rows = onto_known_stations(&table, batch_rows);
                let evicted = table.evict_before_pinned(*window);
                rows.retain(|&(_, _, day, hour, _)| window.keeps(day, hour));
                let appended = append(&mut table, &batch_rows);
                assert!(appended.old_to_new.is_none(), "batch over known stations");
                rows.extend_from_slice(&batch_rows);
                let graphs = [&mut directed, &mut undirected];
                step_station_graphs(&table, Some(&evicted), Some(&appended), graphs, threads);

                let outcome = WindowOutcome { evicted, appended };
                let shared = apply_window_all(
                    temporals.clone(),
                    &table,
                    &outcome,
                    Some(undirected.clone()),
                    threads,
                );
                temporals = apply_window_all(temporals, &table, &outcome, None, threads);
                for (got, want) in shared.iter().zip(&temporals) {
                    let name = got.granularity.graph_name();
                    assert_identical(&got.csr, &want.csr, &format!("{name} with GBasic shared"));
                    assert_eq!(got.layer_map, want.layer_map, "{name}: shared layer map");
                }
            }
        }
        assert_matches_model(&table, &directed, &undirected, &temporals, &stations, &rows);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn window_chain_is_bitwise_equal_to_rebuild(
        base in prop::collection::vec(row(false), 0..80),
        ops in prop::collection::vec(op(), 1..5),
        pinned in 0u8..2,
    ) {
        for threads in [1usize, 2, 4] {
            for shards in [1usize, 4] {
                check_chain(&base, &ops, threads, shards, pinned == 1);
            }
        }
    }
}

#[test]
fn evicting_everything_leaves_empty_graphs() {
    // All base rows sit before day 6; the window expires every one.
    let base: Vec<Row> = vec![
        (100, 102, 0, 8, 1.0),
        (102, 104, 3, 17, 3.0),
        (104, 104, 5, 23, 2.0),
    ];
    let ops = vec![
        Op::Evict(WindowStart::new(6, 0)),
        // And the emptied network accepts a fresh batch afterwards.
        Op::Ingest(vec![(101, 103, 6, 12, 4.0)]),
    ];
    for threads in [1usize, 2, 4] {
        for pinned in [false, true] {
            check_chain(&base, &ops, threads, 1, pinned);
        }
    }
}

#[test]
fn evicting_nothing_is_identity() {
    let base: Vec<Row> = vec![(100, 102, 2, 8, 1.0), (102, 104, 3, 17, 3.0)];
    let ops = vec![
        Op::Evict(WindowStart::new(0, 0)),
        Op::Evict(WindowStart::new(2, 8)), // boundary: slot 56 keeps row at (2, 8)
    ];
    for threads in [1usize, 2, 4] {
        for pinned in [false, true] {
            check_chain(&base, &ops, threads, 1, pinned);
        }
    }
}

#[test]
fn pinned_eviction_keeps_isolated_stations() {
    // Station 106's only trips expire: pinned eviction must keep its
    // (now isolated) row in every graph rather than compacting it away.
    let base: Vec<Row> = vec![
        (106, 100, 0, 3, 1.0),
        (102, 106, 1, 5, 2.0),
        (100, 102, 6, 20, 5.0),
    ];
    let ops = vec![Op::Evict(WindowStart::new(4, 0))];
    for threads in [1usize, 2, 4] {
        check_chain(&base, &ops, threads, 1, true);
    }
}

#[test]
fn batch_re_adds_a_just_evicted_station() {
    // The compacting eviction drops station 106 entirely; the next batch
    // re-interns it (same external id, new dense slot) and the chain must
    // still match a one-shot rebuild.
    let base: Vec<Row> = vec![(106, 100, 0, 3, 1.0), (100, 102, 6, 20, 2.0)];
    let ops = vec![
        Op::Evict(WindowStart::new(4, 0)),
        Op::Ingest(vec![(106, 102, 6, 21, 3.0), (106, 106, 6, 22, 4.0)]),
    ];
    for threads in [1usize, 2, 4] {
        for shards in [1usize, 4] {
            check_chain(&base, &ops, threads, shards, false);
        }
    }
}

#[test]
fn window_step_matches_rebuild_with_gbasic_shared_or_not() {
    // The pinned eviction empties station 106 and moves the first
    // appearances of 100's and 102's layers; the batch then lands on
    // known stations, one of them the emptied 106.
    let base: Vec<Row> = vec![
        (106, 100, 0, 3, 2.0),
        (100, 102, 1, 5, 1.0),
        (102, 100, 4, 5, 3.0),
        (100, 102, 5, 3, 5.0),
        (104, 104, 6, 20, 4.0),
    ];
    let ops = vec![
        Op::Window(
            WindowStart::new(2, 0),
            vec![(106, 102, 6, 21, 2.0), (100, 102, 1, 5, 1.0)],
        ),
        Op::Window(WindowStart::new(5, 0), Vec::new()),
        Op::Window(WindowStart::new(6, 21), vec![(104, 106, 6, 22, 5.0)]),
    ];
    for threads in [1usize, 2, 4] {
        for pinned in [false, true] {
            check_chain(&base, &ops, threads, 1, pinned);
        }
    }
}
