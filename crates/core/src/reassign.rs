//! Step 2b — folding rejected candidates back into the network and building
//! the *selected graph* (§IV-B step 3, Table III, Fig. 2).
//!
//! After Algorithm 1 picks the new stations, every location that belonged to
//! a rejected candidate is "reassigned to the nearest station" — nearest
//! among the union of pre-existing and newly selected stations. The total
//! number of trips is unchanged by construction, which is the invariant the
//! paper calls out under Table III.

use crate::candidate::{trip_graphs, trip_table, CandidateNetwork};
use crate::selection::SelectionOutcome;
use crate::{CoreError, Result};
use moby_cluster::assign::StationAssigner;
use moby_data::schema::{CleanDataset, LocationId};
use moby_data::trips::{
    check_trip_weight, AppendOutcome, EvictOutcome, TripBatch, TripTable, WindowStart,
};
use moby_geo::GeoPoint;
use moby_graph::{CsrGraph, EdgeColumns, NodeId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// A station of the final (expanded) network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FinalStation {
    /// Node id (original station id, or the candidate id for new stations).
    pub id: NodeId,
    /// Display name.
    pub name: String,
    /// Position.
    pub position: GeoPoint,
    /// Whether the station pre-existed (as opposed to newly selected).
    pub is_fixed: bool,
}

/// One group row of Table III (pre-existing or selected stations).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct GroupRow {
    /// Number of stations in the group.
    pub stations: usize,
    /// Trips departing from the group's stations.
    pub trips_from: usize,
    /// Trips arriving at the group's stations.
    pub trips_to: usize,
    /// Distinct directed edges departing from the group's stations.
    pub edges_from: usize,
    /// Distinct directed edges arriving at the group's stations.
    pub edges_to: usize,
}

/// The paper's Table III: the selected graph broken down by station group.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SelectedGraphTable {
    /// Pre-existing stations row.
    pub pre_existing: GroupRow,
    /// Newly selected stations row.
    pub selected: GroupRow,
    /// Total number of stations.
    pub total_stations: usize,
    /// Total number of trips.
    pub total_trips: usize,
    /// Total number of distinct directed edges.
    pub total_edges: usize,
}

/// What one [`SelectedNetwork::advance_window`] call did: the eviction's
/// remap (always `None` — the station table is pinned) and evicted rows,
/// plus the append the new batch produced. Pass it to
/// [`temporal::apply_window_all`](crate::temporal::apply_window_all) to
/// advance the temporal graphs through the same window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowOutcome {
    /// The expired rows dropped by the leading eviction.
    pub evicted: EvictOutcome,
    /// The append the trailing batch produced.
    pub appended: AppendOutcome,
}

/// The final expanded network with its trip graph.
///
/// The station directory and both frozen graphs are `Arc`-backed, so a
/// `clone()` intended as a read snapshot shares them instead of deep
/// copying; only the mutable parts (trip table, Table III counters) are
/// copied. The serving layer
/// (`moby_server`) leans on this: publishing a snapshot per ingested
/// batch costs O(trip table), never O(adjacency slabs).
#[derive(Debug, Clone)]
pub struct SelectedNetwork {
    /// All stations (pre-existing first, then selected, each sorted by id).
    /// Behind an `Arc` because the station set is pinned for the lifetime
    /// of the network (eviction never drops stations), so every snapshot
    /// shares one directory.
    pub stations: std::sync::Arc<Vec<FinalStation>>,
    /// Mapping from cleaned location id to its final station.
    pub location_to_station: HashMap<LocationId, NodeId>,
    /// The columnar trip table: one row per rental over the shared sorted
    /// station-intern table — the only record of a trip. One pass over
    /// these columns feeds every graph the pipeline builds and the
    /// reporting layer's day/hour profiles.
    pub trips: TripTable,
    /// Frozen directed trip graph, built straight from
    /// [`SelectedNetwork::trips`] by sort-merge — shared by every
    /// downstream consumer; nothing re-freezes it.
    pub directed: CsrGraph,
    /// Frozen undirected trip graph (`GBasic` before temporal splitting),
    /// also built by sort-merge from the trip table.
    pub undirected: CsrGraph,
    /// Table III counts.
    pub table: SelectedGraphTable,
}

impl SelectedNetwork {
    /// Ids of the pre-existing stations.
    pub fn fixed_ids(&self) -> HashSet<NodeId> {
        self.stations
            .iter()
            .filter(|s| s.is_fixed)
            .map(|s| s.id)
            .collect()
    }

    /// Ids of the newly selected stations.
    pub fn new_ids(&self) -> HashSet<NodeId> {
        self.stations
            .iter()
            .filter(|s| !s.is_fixed)
            .map(|s| s.id)
            .collect()
    }

    /// Positions of all stations keyed by id.
    pub fn positions(&self) -> HashMap<NodeId, GeoPoint> {
        self.stations.iter().map(|s| (s.id, s.position)).collect()
    }

    /// Ingest a batch of new trips — the streaming entry point of the
    /// construction layer.
    ///
    /// Appends the batch to the columnar [`trips`](SelectedNetwork::trips)
    /// table, advances the frozen
    /// [`directed`](SelectedNetwork::directed) /
    /// [`undirected`](SelectedNetwork::undirected) graphs by
    /// [`CsrGraph::apply_window`] with nothing evicted (bit-identical to
    /// rebuilding them from the concatenated table, untouched rows copied
    /// rather than re-merged), and updates Table III — trip counters
    /// incrementally from the batch, edge counters from the merged rows.
    /// To carry the `GBasic`/`GDay`/`GHour` graphs along, use
    /// [`advance_window`](SelectedNetwork::advance_window) with
    /// [`temporal::apply_window_all`](crate::temporal::apply_window_all),
    /// or rebuild them.
    ///
    /// The station set of a selected network is fixed by the expansion
    /// run, so every batch endpoint must be a known station.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStation`] when a batch endpoint is not a
    /// station of this network, and [`CoreError::InvalidWeight`] when a
    /// batch weight is outside the trip domain. Validation happens before
    /// any mutation, so a failed ingest leaves the network untouched.
    pub fn ingest_batch(
        &mut self,
        batch: &TripBatch,
        threads: Option<usize>,
    ) -> Result<AppendOutcome> {
        // Validate every row up front: everything after this check is
        // infallible, so the network never ends up with a half-applied
        // batch.
        self.check_batch(batch)?;
        self.step(batch, (&[], &[], &[]), threads)
    }

    /// Advance the network by one window step: **evict** every trip that
    /// started before `window`, then **ingest** `batch` — the composed
    /// sliding-window verb of the lifecycle.
    ///
    /// The station set of a selected network is fixed by the expansion
    /// run, so the eviction is *pinned*
    /// ([`TripTable::evict_before_pinned`]): a station whose last trip
    /// expires stays in the intern table as an isolated row, and dense
    /// indices never shift. One [`CsrGraph::apply_window`] pass per graph
    /// then subtracts the evicted rows from the frozen
    /// [`directed`](SelectedNetwork::directed) /
    /// [`undirected`](SelectedNetwork::undirected) graphs and merges the
    /// batch in — exact over the table's integer weights, so bit-identical
    /// to rebuilding them from the table after the step. Table III
    /// advances incrementally: evicted rows decrement the per-group trip
    /// counters, the batch increments them, and distinct-edge counts
    /// re-tally from the merged rows.
    ///
    /// The eviction runs **before** the ingest, so batch rows predating
    /// `window` are accepted and survive until the *next* window step —
    /// late-arriving trips are data, not errors; the caller chooses each
    /// step's horizon.
    ///
    /// Pass the returned [`WindowOutcome`] to
    /// [`temporal::apply_window_all`](crate::temporal::apply_window_all)
    /// to carry `GBasic`/`GDay`/`GHour` through the same step, or use
    /// [`WindowedPipeline`](crate::pipeline::WindowedPipeline) which
    /// composes all of it with a seeded community refresh.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownStation`] when a batch endpoint is not a
    /// station of this network, and [`CoreError::InvalidWeight`] when a
    /// batch weight is outside the trip domain. Validation happens before
    /// the eviction, so a failed call leaves the network *completely*
    /// untouched — no half-applied window. After the eviction,
    /// [`CoreError::UnknownStation`] for an evicted endpoint the pinned
    /// table no longer holds and [`CoreError::Internal`] when the graphs
    /// do not hold the evicted rows mark a broken invariant (the
    /// [`trips`](SelectedNetwork::trips) table was changed behind the
    /// graphs' back) that leaves the network inconsistent.
    pub fn advance_window(
        &mut self,
        batch: &TripBatch,
        window: WindowStart,
        threads: Option<usize>,
    ) -> Result<WindowOutcome> {
        self.check_batch(batch)?;

        let evicted = self.trips.evict_before_pinned(window);
        // The pinned table keeps every station, so the evicted endpoints
        // resolve to the dense rows the graphs hold them in.
        let dense = |ids: &[NodeId]| -> Result<Vec<u32>> {
            ids.iter()
                .map(|&id| {
                    self.trips
                        .station_index(id)
                        .ok_or(CoreError::UnknownStation(id))
                })
                .collect()
        };
        let (src, dst) = (dense(&evicted.evicted_src)?, dense(&evicted.evicted_dst)?);
        let appended = self.step(batch, (&src, &dst, &evicted.evicted_weight), threads)?;
        Ok(WindowOutcome { evicted, appended })
    }

    /// One step past a validated `batch` and the `evicted` rows (dense
    /// `src`, `dst` and `weight` columns) the table has already dropped:
    /// untally the evicted trips, append the batch, run both graphs
    /// through the window kernel and tally the new trips and the merged
    /// rows' edges.
    fn step(
        &mut self,
        batch: &TripBatch,
        (src, dst, weight): (&[u32], &[u32], &[f64]),
        threads: Option<usize>,
    ) -> Result<AppendOutcome> {
        let fixed_dense = fixed_flags(&self.stations, &self.trips);
        let (pre, sel) = (&mut self.table.pre_existing, &mut self.table.selected);
        for (&s, &d) in src.iter().zip(dst) {
            untally_trip(&fixed_dense, s, d, pre, sel);
        }

        let outcome = self.trips.append_batch(batch)?;
        let (trips, bs) = (&self.trips, outcome.batch_start);
        let evicted = EdgeColumns::new(src, dst, weight);
        let appended = EdgeColumns::new(
            &trips.src()[bs..],
            &trips.dst()[bs..],
            &trips.weights()[bs..],
        );
        // A validated batch interns no station, so the table is pinned.
        let advance = |graph: &CsrGraph| {
            let ids = trips.station_ids().to_vec();
            graph.apply_window(ids, None, evicted, appended, threads)
        };
        self.directed = advance(&self.directed)?;
        self.undirected = advance(&self.undirected)?;

        // Table III: trip counters advance from the batch rows alone;
        // edge counters re-tally from the merged directed rows (distinct
        // edges can only be counted there).
        let (pre, sel) = (&mut self.table.pre_existing, &mut self.table.selected);
        for k in bs..trips.len() {
            tally_trip(&fixed_dense, trips.src()[k], trips.dst()[k], pre, sel);
        }
        self.table.total_trips = trips.len();
        self.table.total_edges = tally_edges(&fixed_dense, trips, &self.directed, pre, sel);
        Ok(outcome)
    }

    /// The first batch row that cannot enter this network:
    /// [`CoreError::UnknownStation`] for an endpoint that is not one of
    /// its stations, [`CoreError::InvalidWeight`] for a weight outside the
    /// trip domain.
    fn check_batch(&self, batch: &TripBatch) -> Result<()> {
        for (src, dst, _, _, weight) in batch.iter() {
            for id in [src, dst] {
                if self.trips.station_index(id).is_none() {
                    return Err(CoreError::UnknownStation(id));
                }
            }
            check_trip_weight(weight)?;
        }
        Ok(())
    }
}

/// Look up a station by id in a directory laid out as
/// [`SelectedNetwork::stations`] is: the pre-existing run first, then the
/// selected run, each sorted by id. The runs split at the first selected
/// station and each is binary-searched, pre-existing first — the station
/// a linear scan would find.
pub fn find_station(stations: &[FinalStation], id: NodeId) -> Option<&FinalStation> {
    let (fixed, selected) = stations.split_at(stations.partition_point(|s| s.is_fixed));
    [fixed, selected].into_iter().find_map(|run| {
        run.binary_search_by_key(&id, |s| s.id)
            .ok()
            .map(|at| &run[at])
    })
}

/// Build the selected network: the expanded station set, the reassigned
/// location mapping, the trip table, its frozen graphs and Table III.
pub fn build_selected_network(
    dataset: &CleanDataset,
    network: &CandidateNetwork,
    selection: &SelectionOutcome,
) -> Result<SelectedNetwork> {
    // --- Final station list. ---
    let mut stations: Vec<FinalStation> = network
        .nodes
        .iter()
        .filter(|n| n.kind.is_fixed())
        .map(|n| FinalStation {
            id: n.id,
            name: n.name.clone(),
            position: n.position,
            is_fixed: true,
        })
        .collect();
    stations.sort_by_key(|s| s.id);
    let mut new_stations: Vec<FinalStation> = selection
        .selected
        .iter()
        .map(|s| FinalStation {
            id: s.id,
            name: format!("New station (rank {:03})", s.rank),
            position: s.position,
            is_fixed: false,
        })
        .collect();
    new_stations.sort_by_key(|s| s.id);
    stations.extend(new_stations);
    if stations.is_empty() {
        return Err(CoreError::NoStations);
    }

    let final_ids: HashSet<NodeId> = stations.iter().map(|s| s.id).collect();
    let assigner = StationAssigner::new(&stations.iter().map(|s| s.position).collect::<Vec<_>>())
        .ok_or(CoreError::NoStations)?;
    let station_id_by_index: Vec<NodeId> = stations.iter().map(|s| s.id).collect();

    // --- Location reassignment. ---
    let location_positions: HashMap<LocationId, GeoPoint> = dataset
        .locations
        .iter()
        .map(|l| (l.id, l.position))
        .collect();
    let mut location_to_station: HashMap<LocationId, NodeId> = HashMap::new();
    for (&loc_id, &node) in &network.location_to_node {
        if final_ids.contains(&node) {
            location_to_station.insert(loc_id, node);
        } else {
            let pos = location_positions.get(&loc_id).ok_or_else(|| {
                CoreError::Internal(format!("location {loc_id} missing a position"))
            })?;
            let assignment = assigner.assign(*pos);
            location_to_station.insert(loc_id, station_id_by_index[assignment.station_index]);
        }
    }

    // --- Columnar trip table over the final stations. ---
    let trips = trip_table(
        stations.iter().map(|s| s.id).collect(),
        &location_to_station,
        dataset,
    )?;

    // --- Frozen trip graphs, built by columnar sort-merge straight from
    //     the dense trip columns (one shared station-intern table; no
    //     hash-map builder, no re-interning). ---
    let (directed, undirected) = trip_graphs(&trips);
    let table = build_table(&stations, &trips, &directed);

    Ok(SelectedNetwork {
        stations: std::sync::Arc::new(stations),
        location_to_station,
        trips,
        directed,
        undirected,
        table,
    })
}

/// Dense per-station fixed flags (trip table order), so the per-trip
/// tallies are an array index, not a set probe.
fn fixed_flags(stations: &[FinalStation], trips: &TripTable) -> Vec<bool> {
    let mut fixed_dense = vec![false; trips.station_count()];
    for s in stations {
        if s.is_fixed {
            fixed_dense[trips.station_index(s.id).expect("final station interned") as usize] = true;
        }
    }
    fixed_dense
}

/// Count one trip into the per-group from/to counters.
#[inline]
fn tally_trip(fixed_dense: &[bool], src: u32, dst: u32, pre: &mut GroupRow, sel: &mut GroupRow) {
    if fixed_dense[src as usize] {
        pre.trips_from += 1;
    } else {
        sel.trips_from += 1;
    }
    if fixed_dense[dst as usize] {
        pre.trips_to += 1;
    } else {
        sel.trips_to += 1;
    }
}

/// Remove one evicted trip from the per-group from/to counters — the
/// inverse of [`tally_trip`], used by the windowed eviction.
#[inline]
fn untally_trip(fixed_dense: &[bool], src: u32, dst: u32, pre: &mut GroupRow, sel: &mut GroupRow) {
    if fixed_dense[src as usize] {
        pre.trips_from -= 1;
    } else {
        sel.trips_from -= 1;
    }
    if fixed_dense[dst as usize] {
        pre.trips_to -= 1;
    } else {
        sel.trips_to -= 1;
    }
}

/// Re-tally the distinct directed edges per group straight off the frozen
/// dense rows (resetting the groups' edge counters) and return the total.
/// The directed graph's node table is the trip table's station table, so
/// a row and each of its targets index `fixed_dense` directly.
fn tally_edges(
    fixed_dense: &[bool],
    trips: &TripTable,
    directed: &CsrGraph,
    pre: &mut GroupRow,
    sel: &mut GroupRow,
) -> usize {
    debug_assert_eq!(
        directed.node_ids(),
        trips.station_ids(),
        "the directed graph's node table is the station table"
    );
    pre.edges_from = 0;
    pre.edges_to = 0;
    sel.edges_from = 0;
    sel.edges_to = 0;
    let mut total_edges = 0usize;
    for (u, &fixed) in fixed_dense.iter().enumerate().take(directed.node_count()) {
        let (targets, _) = directed.row(u);
        total_edges += targets.len();
        if fixed {
            pre.edges_from += targets.len();
        } else {
            sel.edges_from += targets.len();
        }
        for &v in targets {
            if fixed_dense[v as usize] {
                pre.edges_to += 1;
            } else {
                sel.edges_to += 1;
            }
        }
    }
    total_edges
}

fn build_table(
    stations: &[FinalStation],
    trips: &TripTable,
    directed: &CsrGraph,
) -> SelectedGraphTable {
    let fixed_dense = fixed_flags(stations, trips);
    let fixed_count = fixed_dense.iter().filter(|&&f| f).count();
    let mut pre = GroupRow {
        stations: fixed_count,
        ..Default::default()
    };
    let mut sel = GroupRow {
        stations: stations.len() - fixed_count,
        ..Default::default()
    };

    // Trips per group (every rental counted once per endpoint role).
    for (&src, &dst) in trips.src().iter().zip(trips.dst()) {
        tally_trip(&fixed_dense, src, dst, &mut pre, &mut sel);
    }
    let total_edges = tally_edges(&fixed_dense, trips, directed, &mut pre, &mut sel);
    SelectedGraphTable {
        total_stations: stations.len(),
        total_trips: trips.len(),
        total_edges,
        pre_existing: pre,
        selected: sel,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::build_candidate_network;
    use crate::selection::select_stations;
    use crate::ExpansionConfig;
    use moby_data::clean::clean_dataset;
    use moby_data::synth::{generate, SynthConfig};
    use moby_graph::build_dense_csr;

    fn setup() -> (CleanDataset, CandidateNetwork, SelectionOutcome) {
        let ds = clean_dataset(&generate(&SynthConfig::small_test())).dataset;
        let cfg = ExpansionConfig::default();
        let net = build_candidate_network(&ds, &cfg).unwrap();
        let sel = select_stations(&net, &cfg).unwrap();
        (ds, net, sel)
    }

    #[test]
    fn station_counts_add_up() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        assert_eq!(out.stations.len(), ds.stations.len() + sel.selected.len());
        assert_eq!(out.fixed_ids().len(), ds.stations.len());
        assert_eq!(out.new_ids().len(), sel.selected.len());
        assert_eq!(out.table.total_stations, out.stations.len());
    }

    #[test]
    fn trips_are_conserved() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        assert_eq!(out.table.total_trips, ds.rentals.len());
        assert_eq!(out.trips.len(), ds.rentals.len());
        // From/To breakdowns each sum to the total trips.
        assert_eq!(
            out.table.pre_existing.trips_from + out.table.selected.trips_from,
            ds.rentals.len()
        );
        assert_eq!(
            out.table.pre_existing.trips_to + out.table.selected.trips_to,
            ds.rentals.len()
        );
    }

    #[test]
    fn edge_breakdown_sums_to_total() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        assert_eq!(
            out.table.pre_existing.edges_from + out.table.selected.edges_from,
            out.table.total_edges
        );
        assert_eq!(
            out.table.pre_existing.edges_to + out.table.selected.edges_to,
            out.table.total_edges
        );
        assert_eq!(out.directed.edge_count(), out.table.total_edges);
    }

    #[test]
    fn every_location_maps_to_a_final_station() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        let ids: HashSet<NodeId> = out.stations.iter().map(|s| s.id).collect();
        for loc in &ds.locations {
            let st = out.location_to_station.get(&loc.id).copied().unwrap();
            assert!(ids.contains(&st));
        }
    }

    #[test]
    fn rejected_candidates_are_not_final_stations() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        let final_ids: HashSet<NodeId> = out.stations.iter().map(|s| s.id).collect();
        for rejected_id in sel.rejected.keys() {
            assert!(!final_ids.contains(rejected_id));
        }
    }

    #[test]
    fn pre_existing_stations_carry_most_trips() {
        // The paper's Table III: the 92 pre-existing stations carry ~88% of
        // trips. The synthetic network should show the same dominance
        // (station endpoints are favoured and rejected candidates fold back
        // onto the nearest station, which is usually a fixed one).
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        let share = out.table.pre_existing.trips_from as f64 / ds.rentals.len() as f64;
        assert!(share > 0.5, "pre-existing share {share}");
    }

    #[test]
    fn ingest_batch_matches_rebuild_from_concatenated_table() {
        let (ds, net, sel) = setup();
        let mut out = build_selected_network(&ds, &net, &sel).unwrap();
        let before_trips = out.trips.len();
        // Replay the first rentals as a fresh batch (their endpoints are
        // guaranteed to be known stations).
        let mut batch = TripBatch::new();
        for k in 0..25.min(before_trips) {
            batch.push(
                out.trips.station_id(out.trips.src()[k]),
                out.trips.station_id(out.trips.dst()[k]),
                ds.rentals[k].start_time,
            );
        }
        let outcome = out.ingest_batch(&batch, Some(2)).unwrap();
        assert_eq!(outcome.batch_start, before_trips);
        assert!(outcome.old_to_new.is_none());
        assert_eq!(out.trips.len(), before_trips + batch.len());

        // Both frozen graphs and Table III equal a from-scratch rebuild
        // over the appended table.
        let want_directed = build_dense_csr(
            true,
            out.trips.station_ids().to_vec(),
            out.trips.src(),
            out.trips.dst(),
            out.trips.weights(),
            Some(1),
        );
        assert_eq!(out.directed, want_directed);
        assert_eq!(
            out.directed.total_weight().to_bits(),
            want_directed.total_weight().to_bits()
        );
        let want_undirected = build_dense_csr(
            false,
            out.trips.station_ids().to_vec(),
            out.trips.src(),
            out.trips.dst(),
            out.trips.weights(),
            Some(1),
        );
        assert_eq!(out.undirected, want_undirected);
        assert_eq!(
            out.table,
            build_table(&out.stations, &out.trips, &out.directed)
        );
    }

    /// Weights outside the trip domain (integers from 1 to 2^20).
    const BAD_WEIGHTS: [f64; 5] = [0.5, 0.0, f64::NAN, -1.0, 1_048_577.0];

    /// A batch of one valid replayed trip followed by one of weight `w`
    /// between known stations.
    fn batch_with_weight(out: &SelectedNetwork, ds: &CleanDataset, w: f64) -> TripBatch {
        let (a, b) = (out.trips.station_id(0), out.trips.station_id(1));
        let mut batch = TripBatch::new();
        batch.push(a, b, ds.rentals[0].start_time);
        batch.push_weighted(b, a, ds.rentals[1].start_time, w);
        batch
    }

    /// Whether `got` is the typed rejection of weight `w` (NaN included).
    fn rejects_weight<T>(got: Result<T>, w: f64) -> bool {
        matches!(got, Err(CoreError::InvalidWeight(x)) if x.to_bits() == w.to_bits())
    }

    #[test]
    fn ingest_batch_rejects_unknown_stations() {
        let (ds, net, sel) = setup();
        let mut out = build_selected_network(&ds, &net, &sel).unwrap();
        let before = out.trips.clone();
        let table_before = out.table.clone();
        let mut batch = TripBatch::new();
        batch.push(
            u64::MAX - 1, // no such station
            out.trips.station_id(0),
            ds.rentals[0].start_time,
        );
        assert_eq!(
            out.ingest_batch(&batch, None),
            Err(CoreError::UnknownStation(u64::MAX - 1))
        );
        // The failed ingest left the table untouched.
        assert_eq!(out.trips, before);
        // So does a batch weight outside the trip domain.
        for w in BAD_WEIGHTS {
            let batch = batch_with_weight(&out, &ds, w);
            assert!(rejects_weight(out.ingest_batch(&batch, None), w), "{w}");
            assert_eq!(out.trips, before, "{w}");
            assert_eq!(out.table, table_before, "{w}");
        }
    }

    #[test]
    fn advance_window_matches_rebuild_over_surviving_table() {
        let (ds, net, sel) = setup();
        let mut out = build_selected_network(&ds, &net, &sel).unwrap();
        // A batch of replayed early rentals rides along with the eviction.
        let mut batch = TripBatch::new();
        for k in 0..20.min(out.trips.len()) {
            batch.push(
                out.trips.station_id(out.trips.src()[k]),
                out.trips.station_id(out.trips.dst()[k]),
                ds.rentals[k].start_time,
            );
        }
        let window = WindowStart::new(3, 0);
        let outcome = out.advance_window(&batch, window, Some(2)).unwrap();
        assert!(
            outcome.evicted.evicted_rows() > 0,
            "window must expire rows"
        );
        assert!(outcome.evicted.new_to_old.is_none(), "pinned table");

        // Graphs and Table III equal a from-scratch rebuild over the
        // post-window table (survivors + batch, in table order).
        for (directed, got) in [(true, &out.directed), (false, &out.undirected)] {
            let want = build_dense_csr(
                directed,
                out.trips.station_ids().to_vec(),
                out.trips.src(),
                out.trips.dst(),
                out.trips.weights(),
                Some(1),
            );
            assert_eq!(got, &want);
            assert_eq!(got.total_weight().to_bits(), want.total_weight().to_bits());
        }
        assert_eq!(
            out.table,
            build_table(&out.stations, &out.trips, &out.directed)
        );
    }

    #[test]
    fn advance_window_with_empty_batch_only_evicts() {
        let (ds, net, sel) = setup();
        let mut out = build_selected_network(&ds, &net, &sel).unwrap();
        let stations_before = out.trips.station_count();
        let outcome = out
            .advance_window(&TripBatch::new(), WindowStart::new(6, 0), Some(1))
            .unwrap();
        assert_eq!(outcome.appended.batch_start, out.trips.len());
        assert_eq!(out.trips.station_count(), stations_before, "pinned");
        assert_eq!(
            out.table,
            build_table(&out.stations, &out.trips, &out.directed)
        );
    }

    #[test]
    fn advance_window_rejects_unknown_stations_without_evicting() {
        let (ds, net, sel) = setup();
        let mut out = build_selected_network(&ds, &net, &sel).unwrap();
        let before = out.trips.clone();
        let table_before = out.table.clone();
        let mut batch = TripBatch::new();
        batch.push(
            u64::MAX - 1,
            out.trips.station_id(0),
            ds.rentals[0].start_time,
        );
        // The window would evict rows, but validation runs first: the
        // failed call leaves everything untouched.
        assert_eq!(
            out.advance_window(&batch, WindowStart::new(6, 23), None),
            Err(CoreError::UnknownStation(u64::MAX - 1))
        );
        assert_eq!(out.trips, before);
        assert_eq!(out.table, table_before);
        // So does a batch weight outside the trip domain.
        for w in BAD_WEIGHTS {
            let batch = batch_with_weight(&out, &ds, w);
            let got = out.advance_window(&batch, WindowStart::new(6, 23), None);
            assert!(rejects_weight(got, w), "{w}");
            assert_eq!(out.trips, before, "{w}");
            assert_eq!(out.table, table_before, "{w}");
        }
    }

    #[test]
    fn station_lookup_matches_a_linear_scan() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        assert!(out.stations.iter().any(|s| s.is_fixed));
        assert!(out.stations.iter().any(|s| !s.is_fixed));
        // Every id of both runs, and its neighbours (gaps inside each run
        // and ids past either end miss).
        let ids: Vec<NodeId> = out
            .stations
            .iter()
            .flat_map(|s| [s.id.saturating_sub(1), s.id, s.id + 1])
            .collect();
        for id in ids {
            let linear = out.stations.iter().find(|s| s.id == id);
            assert_eq!(find_station(&out.stations, id), linear, "station {id}");
        }
        let missing = out.stations.iter().map(|s| s.id).max().unwrap() + 1;
        assert!(find_station(&out.stations, missing).is_none());
    }

    #[test]
    fn new_station_names_carry_rank() {
        let (ds, net, sel) = setup();
        let out = build_selected_network(&ds, &net, &sel).unwrap();
        let new_station = out
            .stations
            .iter()
            .find(|s| !s.is_fixed)
            .expect("at least one new station");
        assert!(new_station.name.contains("rank"));
        assert!(find_station(&out.stations, new_station.id).is_some());
    }
}
