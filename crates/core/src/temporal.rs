//! Step 3a — temporal graph construction (§IV-C, "Network Structures").
//!
//! Three graphs over the selected station set, one per temporal granularity:
//!
//! * `GBasic` (granularity `TNull`) — stations are nodes, trips are merged
//!   into weighted edges;
//! * `GDay` (granularity `TDay`) — every trip carries the day of the week it
//!   took place;
//! * `GHour` (granularity `THour`) — every trip carries the hour of day it
//!   started.
//!
//! The paper stores the temporal feature as an edge property and lets the
//! Neo4j GDS Louvain see temporally distinct interaction patterns. We
//! reproduce that with a **layered projection**: for `GDay`/`GHour` each
//! node is a `(station, temporal key)` pair and a trip links the two
//! stations *within its own temporal layer*. Louvain then groups stations
//! that exchange many trips **and** do so at similar times; the final
//! station-level community is the station's dominant layer community
//! (weighted by trip volume). This is the interpretation documented in
//! `DESIGN.md` at the repository root; the observable consequences match
//! the paper — community count and modularity both rise with granularity.
//!
//! ## Two construction paths
//!
//! Both read the same [`TripTable`], the only record of a trip.
//!
//! * **Columnar (hot path)** — [`build_all_from_trips`] freezes `GBasic`
//!   straight from the [`TripTable`]'s dense endpoint columns and each
//!   layered graph from dense columns over its **layer intern**: one pass
//!   over the table hands every `(station, key)` pair its dense index on
//!   first sight, through a `station_count × stride` slot array indexed
//!   by `station_index * stride + key`. No intern sort and no per-edge
//!   hash operation anywhere, parallel yet bit-identical at any thread
//!   count.
//! * **Window steps** — [`apply_window_all`] carries all three graphs
//!   through a step of
//!   [`SelectedNetwork::advance_window`](crate::reassign::SelectedNetwork::advance_window),
//!   one [`CsrGraph::apply_window`] pass per graph. The layered graphs
//!   re-run the same intern for the new node table and map their old
//!   nodes into it through the slot array.
//! * **Hash-map reference (test oracle)** — [`reference_graph`] makes one
//!   `WeightedGraph::add_edge` per table row and leaves the freeze to the
//!   caller. Nothing on the pipeline calls it; the equivalence suites
//!   assert both paths produce *identical* frozen graphs.

use moby_data::trips::TripTable;
use moby_graph::{CsrGraph, EdgeColumns, NodeId, WeightedGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::convert::Infallible;
use std::ops::Range;
use std::path::Path;

/// Temporal granularity of a station graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TemporalGranularity {
    /// No temporal feature (`GBasic`).
    TNull,
    /// Day of the week the trip took place (`GDay`).
    TDay,
    /// Hour of the day the trip began (`GHour`).
    THour,
}

impl TemporalGranularity {
    /// All granularities in the order the paper evaluates them.
    pub const ALL: [TemporalGranularity; 3] = [
        TemporalGranularity::TNull,
        TemporalGranularity::TDay,
        TemporalGranularity::THour,
    ];

    /// The layer stride used to encode `(station, key)` pairs as node ids.
    /// Must exceed the largest key (7 days / 24 hours).
    pub fn stride(&self) -> u64 {
        match self {
            TemporalGranularity::TNull => 1,
            TemporalGranularity::TDay => 8,
            TemporalGranularity::THour => 32,
        }
    }

    /// A trip's layer key: its day or hour (`0` for `TNull`).
    fn layer_key(&self, day: u8, hour: u8) -> u8 {
        match self {
            TemporalGranularity::TNull => 0,
            TemporalGranularity::TDay => day,
            TemporalGranularity::THour => hour,
        }
    }

    /// The graph name the paper uses.
    pub fn graph_name(&self) -> &'static str {
        match self {
            TemporalGranularity::TNull => "GBasic",
            TemporalGranularity::TDay => "GDay",
            TemporalGranularity::THour => "GHour",
        }
    }
}

/// A station graph at a given temporal granularity.
#[derive(Debug, Clone)]
pub struct TemporalGraph {
    /// The granularity this graph was built for.
    pub granularity: TemporalGranularity,
    /// The frozen CSR graph, produced once at build time. Louvain,
    /// modularity and the station folding all consume this — the temporal
    /// layer owns freezing, so detection never re-derives adjacency.
    pub csr: CsrGraph,
    /// For layered graphs: layered node id → `(station id, temporal key)`.
    /// `None` for `TNull`.
    pub layer_map: Option<HashMap<NodeId, (NodeId, u32)>>,
}

impl TemporalGraph {
    /// Wrap an already-frozen (possibly layered) station graph.
    pub fn from_csr(
        granularity: TemporalGranularity,
        csr: CsrGraph,
        layer_map: Option<HashMap<NodeId, (NodeId, u32)>>,
    ) -> TemporalGraph {
        TemporalGraph {
            granularity,
            csr,
            layer_map,
        }
    }
}

/// The hash-map reference build of one granularity's graph — the oracle
/// the equivalence suites compare the columnar builds against.
///
/// Makes one [`WeightedGraph::add_edge`] per table row with that row's
/// weight. `TNull` first seeds the sorted station table (isolated stations
/// stay visible) and links the row's two stations; `TDay`/`THour` fold the
/// row's key into both endpoints as `station * stride + key` and also
/// return the `layered id → (station, key)` map. `directed` picks the
/// builder's directedness: the temporal graphs are undirected, and the
/// directed `TNull` graph is the selected network's directed trip graph.
///
/// Freezing the returned graph gives bit for bit what the columnar path
/// builds ([`build_all_from_trips`], or
/// [`build_dense_csr`](moby_graph::build_dense_csr) over the table for
/// the directed trip graph): both intern nodes in the same order and
/// merge duplicate edges in the same row order.
pub fn reference_graph(
    trips: &TripTable,
    granularity: TemporalGranularity,
    directed: bool,
) -> (WeightedGraph, Option<HashMap<NodeId, (NodeId, u32)>>) {
    let mut g = if directed {
        WeightedGraph::new_directed()
    } else {
        WeightedGraph::new_undirected()
    };
    let (src, dst, weight) = (trips.src(), trips.dst(), trips.weights());
    let stride = granularity.stride();
    let key = match granularity {
        TemporalGranularity::TNull => {
            for &id in trips.station_ids() {
                g.add_node(id);
            }
            for k in 0..trips.len() {
                g.add_edge(
                    trips.station_id(src[k]),
                    trips.station_id(dst[k]),
                    weight[k],
                );
            }
            return (g, None);
        }
        TemporalGranularity::TDay => trips.day(),
        TemporalGranularity::THour => trips.hour(),
    };
    let mut layer_map = HashMap::new();
    for k in 0..trips.len() {
        let (s, d, key) = (
            trips.station_id(src[k]),
            trips.station_id(dst[k]),
            u64::from(key[k]),
        );
        layer_map.insert(s * stride + key, (s, key as u32));
        layer_map.insert(d * stride + key, (d, key as u32));
        g.add_edge(s * stride + key, d * stride + key, weight[k]);
    }
    (g, Some(layer_map))
}

/// Decode a layered graph's node table back into the
/// `layered id → (station, key)` map. Layered ids are
/// `station * stride + key` by construction, so the map is pure
/// arithmetic over the nodes the build actually touched.
fn decode_layer_map(csr: &CsrGraph, stride: u64) -> HashMap<NodeId, (NodeId, u32)> {
    csr.node_ids()
        .iter()
        .map(|&id| (id, (id / stride, (id % stride) as u32)))
        .collect()
}

/// The layer-node intern of one `GDay`/`GHour` build: a
/// `station_count × stride` slot array indexed by
/// `station_index * stride + key` gives each `(station, key)` pair its
/// dense index on first sight. Interning every row's src then dst in row
/// order is the first-appearance order the hash-map reference produces,
/// so node tables, rows and weight bits match it.
struct LayerIntern {
    stride: usize,
    /// Dense index per candidate slot; `u32::MAX` until first seen.
    dense: Vec<u32>,
    /// The candidate slot behind each dense index.
    slots: Vec<u32>,
}

impl LayerIntern {
    fn new(station_count: usize, granularity: TemporalGranularity) -> LayerIntern {
        let stride = granularity.stride() as usize;
        assert!(
            station_count * stride < u32::MAX as usize,
            "layer space is u32"
        );
        LayerIntern {
            stride,
            dense: vec![u32::MAX; station_count * stride],
            slots: Vec::new(),
        }
    }

    /// The dense index of `(station index, key)`, interning it on first
    /// sight.
    fn intern(&mut self, station: u32, key: u8) -> u32 {
        let slot = station as usize * self.stride + usize::from(key);
        if self.dense[slot] == u32::MAX {
            self.dense[slot] = self.slots.len() as u32;
            self.slots.push(slot as u32);
        }
        self.dense[slot]
    }

    /// Intern table rows `rows`, each row's src then dst, handing each
    /// row's dense endpoints to `sink`.
    fn intern_rows(
        &mut self,
        trips: &TripTable,
        rows: Range<usize>,
        granularity: TemporalGranularity,
        mut sink: impl FnMut(u32, u32),
    ) {
        let (src, dst, day, hour) = (trips.src(), trips.dst(), trips.day(), trips.hour());
        for k in rows {
            let key = granularity.layer_key(day[k], hour[k]);
            let s = self.intern(src[k], key);
            sink(s, self.intern(dst[k], key));
        }
    }

    /// The layered node table (`station * stride + key` per dense index),
    /// allocated at its exact length.
    fn node_ids(&self, stations: &[NodeId]) -> Vec<NodeId> {
        let stride = self.stride as u64;
        self.slots
            .iter()
            .map(|&slot| stations[slot as usize / self.stride] * stride + u64::from(slot) % stride)
            .collect()
    }
}

/// Intern the layer nodes of the leading `rows` table rows: the layered
/// node table and the dense endpoint columns over it.
fn layered_columns(
    trips: &TripTable,
    rows: usize,
    granularity: TemporalGranularity,
) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
    let mut intern = LayerIntern::new(trips.station_ids().len(), granularity);
    let (mut src, mut dst) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    intern.intern_rows(trips, 0..rows, granularity, |s, d| {
        src.push(s);
        dst.push(d);
    });
    (intern.node_ids(trips.station_ids()), src, dst)
}

/// Build all three temporal graphs from the columnar [`TripTable`] — the
/// hot construction path.
///
/// `GBasic` freezes straight from the table's dense endpoint columns over
/// its sorted station-intern table. `GDay`/`GHour` each take one pass over
/// the trip columns through the layer intern (see the [module
/// docs](self)), which yields the layered node table
/// (`station * stride + key` in first-appearance order) and dense
/// endpoint columns; those freeze with the table's weight column through
/// [`build_dense_csr`](moby_graph::build_dense_csr) — zero sorts and zero
/// per-edge hash operations before the row packing, and (per the
/// scheduler contract) bit-identical results at any `threads` setting.
///
/// `basic` optionally supplies an already-built station-level undirected
/// CSR (the pipeline shares the selected network's
/// [`undirected`](crate::reassign::SelectedNetwork::undirected) graph so
/// `GBasic` is built exactly once); pass `None` to build it from the
/// table here.
///
/// The frozen graphs are **identical** to what the hash-map reference
/// ([`reference_graph`]) freezes to — the synthetic-dataset equivalence
/// suite asserts this bitwise — because both paths intern nodes in the
/// same first-appearance order and merge duplicate edges in the same row
/// order, with each row's weight.
pub fn build_all_from_trips(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    let Ok(graphs) = build_all_with(trips, basic, |node_ids, src, dst| {
        Ok::<_, Infallible>(moby_graph::build_dense_csr(
            false,
            node_ids,
            src,
            dst,
            trips.weights(),
            threads,
        ))
    });
    graphs
}

/// [`build_all_from_trips`] at an explicit construction shard count and
/// out-of-core **spill budget**, with typed spill errors.
///
/// Every graph freezes through
/// [`build_dense_csr_budgeted`](moby_graph::build_dense_csr_budgeted)
/// with `shards`, `budget_mb` and `spill_dir` as given: `None` is one
/// shard and no budget. Shards split the row scatter into parallel row
/// ranges of one shared set of row buckets, so they change no memory.
/// When a graph's estimated run size (two half-edges per trip) exceeds
/// the budget, its half-edges partition to per-shard disk runs under
/// `spill_dir` (default: the system temp dir), and each shard fills its
/// row buckets from its run instead of the trip columns; the buckets are
/// in memory either way. The frozen graphs and layer maps are
/// **bit-identical** to [`build_all_from_trips`] at any shard count ×
/// thread count × budget — shard boundaries are a pure function of the
/// row structure and the shard count, never of scheduling; see
/// `DESIGN.md`, "Sharded city-scale construction" and "Out-of-core
/// construction".
/// Spill I/O failures surface as
/// [`CoreError::Spill`](crate::CoreError::Spill).
pub fn build_all_from_trips_spilled(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<Vec<TemporalGraph>> {
    let graphs = build_all_with(trips, basic, |node_ids, src, dst| {
        moby_graph::build_dense_csr_budgeted(
            false,
            node_ids,
            src,
            dst,
            trips.weights(),
            shards,
            threads,
            budget_mb,
            spill_dir,
        )
    })?;
    Ok(graphs)
}

/// The three graphs of a table, each frozen by `build` from a node table
/// and dense endpoint columns over the table's rows.
fn build_all_with<E>(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    build: impl Fn(Vec<NodeId>, &[u32], &[u32]) -> std::result::Result<CsrGraph, E>,
) -> std::result::Result<Vec<TemporalGraph>, E> {
    let basic_csr = match basic {
        Some(csr) => csr.clone(),
        // The station-level graph builds straight from the dense trip
        // columns; seeding the full sorted node table keeps every
        // station visible, like the hash-map reference.
        None => build(trips.station_ids().to_vec(), trips.src(), trips.dst())?,
    };
    let layered = |granularity: TemporalGranularity| {
        let (node_ids, src, dst) = layered_columns(trips, trips.len(), granularity);
        let csr = build(node_ids, &src, &dst)?;
        let map = decode_layer_map(&csr, granularity.stride());
        Ok(TemporalGraph::from_csr(granularity, csr, Some(map)))
    };
    Ok(vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        layered(TemporalGranularity::TDay)?,
        layered(TemporalGranularity::THour)?,
    ])
}

/// The three graphs of a build, checked to be `GBasic`, `GDay` and
/// `GHour` in that order.
fn granularities(temporals: Vec<TemporalGraph>) -> [TemporalGraph; 3] {
    let temporals: [TemporalGraph; 3] = temporals
        .try_into()
        .unwrap_or_else(|_| panic!("expected GBasic/GDay/GHour"));
    for (t, g) in temporals.iter().zip(TemporalGranularity::ALL) {
        assert_eq!(t.granularity, g, "temporal graphs out of order");
    }
    temporals
}

/// Carry all three temporal graphs through one **window step** — the
/// pinned eviction and the batch that
/// [`SelectedNetwork::advance_window`](crate::reassign::SelectedNetwork::advance_window)
/// applied to the station-level state — with one
/// [`CsrGraph::apply_window`] pass per graph.
///
/// `trips` is the table *after* `advance_window`: the surviving rows
/// first, then the appended batch (`outcome.appended.batch_start..`).
/// `basic` optionally supplies the network's already-advanced undirected
/// graph, which then becomes `GBasic`; with `None`, `GBasic` takes the
/// step over the table's station intern. `GDay`/`GHour` re-run their
/// layer intern over every row for the new node table, because eviction
/// can move a layer node's first appearance. Their old nodes map into
/// the new table through the intern's `station × stride` slot array, the
/// evicted rows resolve through the old graph's slots, and the batch rows
/// take their dense endpoints from the intern. The layer maps drop the
/// dropped nodes and gain the new ones in place.
///
/// The graphs are **consumed**, so the layer maps move into the results
/// — call as `temporals = apply_window_all(temporals, ..)`.
///
/// **Equivalence contract:** the result is bit-identical to
/// [`build_all_from_trips`] over the post-window table, graphs and layer
/// maps alike, at any thread count. The windowed differential suite
/// (`crates/core/tests/proptest_window.rs`) asserts this for chains of
/// steps.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order; if `outcome` is not one
/// `advance_window` returns (its eviction compacted the station table or
/// its append interned a station); or if the graphs do not hold the
/// evicted rows — a broken invariant: the graphs were not advanced
/// through every earlier step of the table `outcome` came from.
pub fn apply_window_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &crate::reassign::WindowOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    let [basic_t, day_t, hour_t] = granularities(temporals);
    let (evicted, bs) = (&outcome.evicted, outcome.appended.batch_start);
    assert!(
        evicted.new_to_old.is_none() && outcome.appended.old_to_new.is_none(),
        "apply_window_all takes advance_window's outcome: a pinned station table"
    );
    // The evicted endpoints' station rows; u32::MAX, which the kernel
    // rejects, for a station the table does not hold.
    let station = |ids: &[NodeId]| -> Vec<u32> {
        ids.iter()
            .map(|&id| trips.station_index(id).unwrap_or(u32::MAX))
            .collect()
    };
    let step = WindowStep {
        trips,
        batch: bs..trips.len(),
        evicted_src: station(&evicted.evicted_src),
        evicted_dst: station(&evicted.evicted_dst),
        evicted_day: &evicted.evicted_day,
        evicted_hour: &evicted.evicted_hour,
        evicted_weight: &evicted.evicted_weight,
        threads,
    };
    let basic_csr = match basic {
        Some(csr) => csr,
        None => step.apply(
            &basic_t.csr,
            trips.station_ids().to_vec(),
            None,
            (&step.evicted_src, &step.evicted_dst),
            (&trips.src()[bs..], &trips.dst()[bs..]),
        ),
    };
    vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        step.layered(day_t),
        step.layered(hour_t),
    ]
}

/// One window step of [`apply_window_all`]: the table after it, and the
/// evicted rows with their endpoints as station rows.
struct WindowStep<'a> {
    trips: &'a TripTable,
    /// The appended batch's table rows.
    batch: Range<usize>,
    evicted_src: Vec<u32>,
    evicted_dst: Vec<u32>,
    evicted_day: &'a [u8],
    evicted_hour: &'a [u8],
    evicted_weight: &'a [f64],
    threads: Option<usize>,
}

impl WindowStep<'_> {
    /// Run `graph` through the kernel: `evicted` endpoints in its dense
    /// rows, `appended` ones in the new table's.
    fn apply(
        &self,
        graph: &CsrGraph,
        node_ids: Vec<NodeId>,
        old_to_new: Option<&[u32]>,
        (evicted_src, evicted_dst): (&[u32], &[u32]),
        (appended_src, appended_dst): (&[u32], &[u32]),
    ) -> CsrGraph {
        let appended_weight = &self.trips.weights()[self.batch.clone()];
        graph
            .apply_window(
                node_ids,
                old_to_new,
                EdgeColumns::new(evicted_src, evicted_dst, self.evicted_weight),
                EdgeColumns::new(appended_src, appended_dst, appended_weight),
                self.threads,
            )
            .expect("the temporal graphs hold the evicted rows")
    }

    /// Carry one layered graph (`GDay` or `GHour`) through the step.
    fn layered(&self, t: TemporalGraph) -> TemporalGraph {
        let (trips, granularity) = (self.trips, t.granularity);
        if self.evicted_weight.is_empty() && self.batch.is_empty() {
            return t;
        }
        // The new table: the intern over the survivors, then the batch,
        // whose dense endpoints it hands over.
        let mut intern = LayerIntern::new(trips.station_ids().len(), granularity);
        intern.intern_rows(trips, 0..self.batch.start, granularity, |_, _| {});
        let rows = self.batch.len();
        let (mut src, mut dst) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
        intern.intern_rows(trips, self.batch.clone(), granularity, |s, d| {
            src.push(s);
            dst.push(d);
        });

        // The old nodes' slots, `station row * stride + key`: the old →
        // new map reads the intern's slot array, and the evicted rows
        // resolve through the old graph's.
        let (stations, stride) = (trips.station_ids(), intern.stride);
        let mut old_dense = vec![u32::MAX; intern.dense.len()];
        let old_ids = t.csr.node_ids();
        let mut old_to_new = Vec::with_capacity(old_ids.len());
        for (ou, &id) in old_ids.iter().enumerate() {
            let slot = stations
                .binary_search(&(id / stride as u64))
                .map(|s| s * stride + (id % stride as u64) as usize);
            old_to_new.push(slot.map_or(u32::MAX, |slot| {
                old_dense[slot] = ou as u32;
                intern.dense[slot]
            }));
        }
        let old_row = |station: u32, k: usize| {
            let key = granularity.layer_key(self.evicted_day[k], self.evicted_hour[k]);
            let slot = station as usize * stride + usize::from(key);
            old_dense.get(slot).copied().unwrap_or(u32::MAX)
        };
        let evicted = |stations: &[u32]| -> Vec<u32> {
            stations
                .iter()
                .enumerate()
                .map(|(k, &s)| old_row(s, k))
                .collect()
        };
        let (evicted_src, evicted_dst) = (evicted(&self.evicted_src), evicted(&self.evicted_dst));

        let node_ids = intern.node_ids(stations);
        let identity = node_ids.len() == old_to_new.len()
            && old_to_new.iter().enumerate().all(|(i, &n)| n as usize == i);
        let map = (!identity).then_some(&old_to_new[..]);
        let csr = self.apply(
            &t.csr,
            node_ids,
            map,
            (&evicted_src, &evicted_dst),
            (&src, &dst),
        );

        // The layer map in place: the dropped nodes leave, and the new
        // table's nodes without an old slot arrive.
        let stride = stride as u64;
        let layer_map = match t.layer_map {
            Some(mut layer_map) => {
                for (ou, &nu) in old_to_new.iter().enumerate() {
                    if nu == u32::MAX {
                        layer_map.remove(&old_ids[ou]);
                    }
                }
                for (nu, &slot) in intern.slots.iter().enumerate() {
                    if old_dense[slot as usize] == u32::MAX {
                        let id = csr.node_ids()[nu];
                        layer_map.insert(id, (id / stride, (id % stride) as u32));
                    }
                }
                layer_map
            }
            None => decode_layer_map(&csr, stride),
        };
        TemporalGraph::from_csr(granularity, csr, Some(layer_map))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reassign::WindowOutcome;
    use crate::CoreError;
    use moby_data::trips::{TripBatch, WindowStart};

    #[test]
    fn granularity_metadata() {
        assert_eq!(TemporalGranularity::TNull.graph_name(), "GBasic");
        assert_eq!(TemporalGranularity::TDay.graph_name(), "GDay");
        assert_eq!(TemporalGranularity::THour.graph_name(), "GHour");
        assert_eq!(TemporalGranularity::TDay.stride(), 8);
        assert_eq!(TemporalGranularity::THour.stride(), 32);
    }

    /// Five trips `(src, dst, day, hour)` over `station_ids`, which must
    /// hold stations 1–3.
    fn trip_table_over(station_ids: Vec<NodeId>) -> TripTable {
        let mut t = TripTable::new(station_ids);
        let trips = [
            (1u64, 2u64, 0u8, 8u8),
            (1, 2, 0, 9),
            (2, 1, 4, 17),
            (2, 3, 5, 12),
            (3, 3, 6, 13),
        ];
        for (src, dst, day, hour) in trips {
            // 2020-06-01 is a Monday; day 1 + `day` keeps the weekday key,
            // `hour` the hour key.
            let ts = moby_data::timeparse::Timestamp::from_ymd_hms(
                2020,
                6,
                1 + day as u32,
                hour as u32,
                0,
                0,
            )
            .unwrap();
            t.push(
                t.station_index(src).unwrap(),
                t.station_index(dst).unwrap(),
                ts,
            );
        }
        t
    }

    fn trip_table() -> TripTable {
        trip_table_over(vec![1, 2, 3])
    }

    #[test]
    fn basic_graph_merges_all_trips() {
        let all = build_all_from_trips(&trip_table(), None, None);
        let g = &all[0];
        assert!(g.layer_map.is_none());
        assert_eq!(g.csr.node_count(), 3);
        assert_eq!(g.csr.edge_weight(1, 2), Some(3.0)); // both directions merged
        let i = g.csr.index_of(3).unwrap() as usize;
        assert_eq!(g.csr.self_loop(i), 1.0);
    }

    #[test]
    fn day_graph_separates_layers() {
        let all = build_all_from_trips(&trip_table(), None, None);
        let g = &all[1];
        let map = g.layer_map.as_ref().unwrap();
        // Day-0 edge between stations 1 and 2 carries two trips.
        assert_eq!(g.csr.edge_weight(1 * 8, 2 * 8), Some(2.0));
        // Day-4 edge carries one.
        assert_eq!(g.csr.edge_weight(2 * 8 + 4, 1 * 8 + 4), Some(1.0));
        // Layer map points back at stations.
        assert_eq!(map[&(2 * 8 + 4)], (2, 4));
        // Total weight equals the number of trips.
        assert_eq!(g.csr.total_weight(), 5.0);
    }

    #[test]
    fn hour_graph_uses_hour_keys() {
        let all = build_all_from_trips(&trip_table(), None, None);
        let g = &all[2];
        assert_eq!(g.csr.edge_weight(1 * 32 + 8, 2 * 32 + 8), Some(1.0));
        assert_eq!(g.csr.edge_weight(1 * 32 + 9, 2 * 32 + 9), Some(1.0));
        let i = g.csr.index_of(3 * 32 + 13).unwrap() as usize;
        assert_eq!(g.csr.self_loop(i), 1.0);
    }

    #[test]
    fn build_all_covers_every_granularity() {
        let all = build_all_from_trips(&trip_table(), None, None);
        assert_eq!(all.len(), 3);
        assert_eq!(all[0].granularity, TemporalGranularity::TNull);
        assert_eq!(all[2].granularity, TemporalGranularity::THour);
        // Finer granularity never has fewer nodes.
        assert!(all[1].csr.node_count() >= all[0].csr.node_count());
        assert!(all[2].csr.node_count() >= all[1].csr.node_count());
    }

    #[test]
    fn reference_weights_by_trip_count() {
        let t = trip_table();
        let (g, map) = reference_graph(&t, TemporalGranularity::TNull, true);
        assert!(map.is_none());
        assert!(g.is_directed());
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_weight(1, 2), Some(2.0));
        assert_eq!(g.edge_weight(2, 1), Some(1.0));
        assert_eq!(g.edge_weight(2, 3), Some(1.0));
        assert_eq!(g.self_loop_weight(3), 1.0);
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn reference_merges_directions() {
        let (g, _) = reference_graph(&trip_table(), TemporalGranularity::TNull, false);
        assert!(!g.is_directed());
        assert_eq!(g.edge_weight(1, 2), Some(3.0));
        assert_eq!(g.edge_weight(2, 1), Some(3.0));
        assert_eq!(g.self_loop_weight(3), 1.0);
        assert_eq!(g.total_weight(), 5.0);
    }

    #[test]
    fn reference_and_columnar_gbasic_keep_isolated_stations() {
        let t = trip_table_over(vec![1, 2, 3, 99]);
        let (g, _) = reference_graph(&t, TemporalGranularity::TNull, false);
        assert!(g.contains(99));
        assert_eq!(g.degree_of(99), Some(0));
        let all = build_all_from_trips(&t, None, None);
        assert_eq!(all[0].csr.degree_of(99), Some(0));
        assert_eq!(all[0].csr, g.freeze());
    }

    #[test]
    fn reference_encodes_station_and_key() {
        let (g, map) = reference_graph(&trip_table(), TemporalGranularity::THour, false);
        let map = map.unwrap();
        // Trip 1 -> 2 at hour 8 becomes edge (1*32+8, 2*32+8).
        assert_eq!(g.edge_weight(1 * 32 + 8, 2 * 32 + 8), Some(1.0));
        assert_eq!(map[&(1 * 32 + 8)], (1, 8));
        assert_eq!(map[&(2 * 32 + 8)], (2, 8));
        // Only layered nodes a trip touched exist, each in the map.
        assert_eq!(g.node_count(), map.len());
        assert!(!g.contains(1));
    }

    #[test]
    fn columnar_build_is_identical_to_reference() {
        let trips = trip_table();
        for threads in [Some(1), Some(2), Some(4)] {
            let columnar = build_all_from_trips(&trips, None, threads);
            assert_eq!(columnar.len(), 3);
            for (temporal, granularity) in columnar.iter().zip(TemporalGranularity::ALL) {
                assert_eq!(temporal.granularity, granularity);
                let (builder, layer_map) = reference_graph(&trips, granularity, false);
                assert_eq!(
                    temporal.csr,
                    builder.freeze(),
                    "{granularity:?} CSR diverged"
                );
                assert_eq!(temporal.layer_map, layer_map, "{granularity:?} map");
                for &id in builder.node_ids() {
                    assert_eq!(temporal.csr.strength_of(id), builder.strength_of(id));
                }
            }
            let (directed, _) = reference_graph(&trips, TemporalGranularity::TNull, true);
            let built = moby_graph::build_dense_csr(
                true,
                trips.station_ids().to_vec(),
                trips.src(),
                trips.dst(),
                trips.weights(),
                threads,
            );
            assert_eq!(built, directed.freeze(), "directed trip graph diverged");
        }
    }

    /// A pseudo-random table of `rows` rows over 24 stations, of which
    /// only the first 16 carry trips: a quarter of the rows are
    /// self-loops, and three days × three hours make `(station, key)`
    /// pairs repeat. Weights are integers from 1 to 5, the trip domain;
    /// `moby_graph`'s build suites pin the fold order with fractions.
    fn random_table(seed: u64, rows: usize) -> TripTable {
        let mut t = TripTable::new((0..24).map(|i| 3 * i + 5).collect());
        let mut x = seed | 1;
        let mut next = |m: u64| {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) % m
        };
        for _ in 0..rows {
            let s = next(16) as u32;
            let d = if next(4) == 0 { s } else { next(16) as u32 };
            let (day, hour) = (3 * next(3) as u8, [0u8, 12, 23][next(3) as usize]);
            t.push_keyed(s, d, day, hour, (1 + next(5)) as f64).unwrap();
        }
        t
    }

    #[test]
    fn random_tables_match_the_reference_in_memory_and_spilled() {
        for seed in 0..6u64 {
            let trips = random_table(seed, 50 * seed as usize);
            let want: Vec<_> = TemporalGranularity::ALL
                .iter()
                .map(|&g| {
                    let (graph, map) = reference_graph(&trips, g, false);
                    (graph.freeze(), map)
                })
                .collect();
            let check = |got: Vec<TemporalGraph>, what: &str| {
                for (g, (csr, map)) in got.iter().zip(&want) {
                    let name = g.granularity.graph_name();
                    assert_eq!(&g.csr, csr, "seed {seed} {what}: {name}");
                    assert_eq!(g.csr.total_weight().to_bits(), csr.total_weight().to_bits());
                    assert_eq!(&g.layer_map, map, "seed {seed} {what}: {name} map");
                }
            };
            for threads in [Some(1), Some(2), Some(4)] {
                check(build_all_from_trips(&trips, None, threads), "in memory");
                for shards in [Some(1), Some(4)] {
                    for (budget, what) in [(None, "sharded"), (Some(0), "spilled")] {
                        let built = build_all_from_trips_spilled(
                            &trips, None, shards, threads, budget, None,
                        );
                        check(built.unwrap(), what);
                    }
                }
            }
        }
    }

    /// The outcome of a pinned eviction at `window` with an empty batch,
    /// as `advance_window` reports it.
    fn evict_step(trips: &mut TripTable, window: WindowStart) -> WindowOutcome {
        let evicted = trips.evict_before_pinned(window);
        let appended = trips.append_batch(&TripBatch::new()).unwrap();
        WindowOutcome { evicted, appended }
    }

    #[test]
    fn window_step_keeps_isolated_stations_in_gbasic() {
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = evict_step(&mut trips, WindowStart::new(5, 0));
        assert!(
            outcome.evicted.new_to_old.is_none(),
            "pinned table never compacts"
        );
        let got = apply_window_all(base, &trips, &outcome, None, Some(2));
        // GBasic keeps station 1 as an isolated row, exactly as a rebuild
        // seeded with the full pinned station table would.
        let want = build_all_from_trips(&trips, None, Some(1));
        assert_eq!(got[0].csr, want[0].csr);
        assert_eq!(got[0].csr.node_count(), 3);
        let row1 = got[0].csr.index_of(1).unwrap() as usize;
        assert_eq!(got[0].csr.degree(row1), 0);
        for (g, w) in got.iter().zip(&want).skip(1) {
            assert_eq!(g.csr, w.csr);
            assert_eq!(g.layer_map, w.layer_map);
        }
    }

    #[test]
    fn empty_window_step_returns_graphs_unchanged() {
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = evict_step(&mut trips, WindowStart::new(0, 0));
        assert!(outcome.evicted.is_noop());
        let got = apply_window_all(base.clone(), &trips, &outcome, None, Some(2));
        for (g, b) in got.iter().zip(&base) {
            assert!(g.csr.shares_storage(&b.csr));
            assert_eq!(g.layer_map, b.layer_map);
        }
    }

    #[test]
    #[should_panic(expected = "pinned station table")]
    fn a_compacting_eviction_is_not_a_window_step() {
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let evicted = trips.evict_before(WindowStart::new(5, 0));
        assert!(evicted.new_to_old.is_some(), "station 1 must drop");
        let appended = trips.append_batch(&TripBatch::new()).unwrap();
        let outcome = WindowOutcome { evicted, appended };
        apply_window_all(base, &trips, &outcome, None, Some(1));
    }

    #[test]
    fn sharded_columnar_build_matches_unsharded() {
        let trips = trip_table();
        let baseline = build_all_from_trips(&trips, None, Some(1));
        for shards in [Some(1), Some(2), Some(4)] {
            for threads in [Some(1), Some(2), Some(4)] {
                let sharded =
                    build_all_from_trips_spilled(&trips, None, shards, threads, None, None)
                        .unwrap();
                for (g, b) in sharded.iter().zip(&baseline) {
                    assert_eq!(g.csr, b.csr, "{:?} @ {shards:?} shards", g.granularity);
                    assert_eq!(g.layer_map, b.layer_map);
                }
            }
        }
    }

    #[test]
    fn spilled_build_matches_in_memory_build_bitwise() {
        let trips = trip_table();
        let baseline = build_all_from_trips(&trips, None, Some(1));
        // Budget 0 forces every granularity through the disk runs.
        for shards in [Some(1), Some(2), Some(4)] {
            for threads in [Some(1), Some(2)] {
                let spilled =
                    build_all_from_trips_spilled(&trips, None, shards, threads, Some(0), None)
                        .unwrap();
                for (g, b) in spilled.iter().zip(&baseline) {
                    assert_eq!(g.granularity, b.granularity);
                    assert_eq!(g.csr, b.csr, "{:?} @ {shards:?} shards", g.granularity);
                    assert_eq!(
                        g.csr.total_weight().to_bits(),
                        b.csr.total_weight().to_bits()
                    );
                    assert_eq!(g.layer_map, b.layer_map, "{:?} map", g.granularity);
                }
            }
        }
        // A huge budget keeps every graph in memory; same bits either way.
        let unspilled =
            build_all_from_trips_spilled(&trips, None, Some(2), Some(2), Some(1 << 20), None)
                .unwrap();
        for (g, b) in unspilled.iter().zip(&baseline) {
            assert_eq!(g.csr, b.csr);
        }
        // A shared GBasic swaps in untouched.
        let shared =
            build_all_from_trips_spilled(&trips, Some(&baseline[0].csr), None, None, Some(0), None)
                .unwrap();
        assert_eq!(shared[0].csr, baseline[0].csr);
        assert_eq!(shared[2].csr, baseline[2].csr);
    }

    #[test]
    fn spilled_build_surfaces_unwritable_dir_as_error() {
        let trips = trip_table();
        let file = std::env::temp_dir().join(format!("moby-core-spill-f-{}", std::process::id()));
        std::fs::write(&file, b"not a dir").unwrap();
        let err = build_all_from_trips_spilled(
            &trips,
            None,
            Some(2),
            Some(1),
            Some(0),
            Some(&file.join("sub")),
        )
        .unwrap_err();
        assert!(
            matches!(err, CoreError::Spill(_)),
            "expected Spill: {err:?}"
        );
        std::fs::remove_file(&file).ok();
    }

    #[test]
    fn columnar_build_reuses_a_shared_basic_graph() {
        let trips = trip_table();
        let built = build_all_from_trips(&trips, None, None);
        let shared = built[0].csr.clone();
        let reused = build_all_from_trips(&trips, Some(&shared), None);
        assert_eq!(reused[0].csr, shared);
        assert_eq!(reused[1].csr, built[1].csr);
        assert_eq!(reused[2].csr, built[2].csr);
    }
}
