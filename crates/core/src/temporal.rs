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
//!   by `station_index * stride + key`. The same intern serves the
//!   window retreat. No intern sort and no per-edge hash operation
//!   anywhere, parallel yet bit-identical at any thread count.
//! * **Hash-map reference (test oracle)** — [`reference_graph`] makes one
//!   `WeightedGraph::add_edge` per table row and leaves the freeze to the
//!   caller. Nothing on the pipeline calls it; the equivalence suites
//!   assert both paths produce *identical* frozen graphs.

use moby_data::trips::{AppendOutcome, EvictOutcome, TripTable};
use moby_graph::{CsrDelta, CsrGraph, NodeId, WeightedGraph};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
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

/// Extend a layer map (taken by value — the delta path moves it out of
/// the consumed [`TemporalGraph`]) with only the layered nodes a delta
/// appended (dense indices `n_old..`) — the incremental counterpart of
/// [`decode_layer_map`], with an identical result at O(batch) cost.
fn extend_layer_map(
    old: Option<HashMap<NodeId, (NodeId, u32)>>,
    csr: &CsrGraph,
    stride: u64,
    n_old: usize,
) -> HashMap<NodeId, (NodeId, u32)> {
    let mut map = old.unwrap_or_default();
    for &id in &csr.node_ids()[n_old..] {
        map.insert(id, (id / stride, (id % stride) as u32));
    }
    map
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

/// The layered node table of the leading `rows` table rows, in the
/// first-appearance order a build interns them.
fn layer_node_ids(trips: &TripTable, rows: usize, granularity: TemporalGranularity) -> Vec<NodeId> {
    let (day, hour) = (trips.day(), trips.hour());
    let mut intern = LayerIntern::new(trips.station_ids().len(), granularity);
    for k in 0..rows {
        let key = granularity.layer_key(day[k], hour[k]);
        intern.intern(trips.src()[k], key);
        intern.intern(trips.dst()[k], key);
    }
    intern.node_ids(trips.station_ids())
}

/// Intern the layer nodes of the leading `rows` table rows: the layered
/// node table and the dense endpoint columns over it.
fn layered_columns(
    trips: &TripTable,
    rows: usize,
    granularity: TemporalGranularity,
) -> (Vec<NodeId>, Vec<u32>, Vec<u32>) {
    let (day, hour) = (trips.day(), trips.hour());
    let mut intern = LayerIntern::new(trips.station_ids().len(), granularity);
    let (mut src, mut dst) = (Vec::with_capacity(rows), Vec::with_capacity(rows));
    for k in 0..rows {
        let key = granularity.layer_key(day[k], hour[k]);
        src.push(intern.intern(trips.src()[k], key));
        dst.push(intern.intern(trips.dst()[k], key));
    }
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
/// [`build_dense_csr_budgeted`](moby_graph::build_dense_csr_budgeted) —
/// zero sorts and zero per-edge hash operations before the row packing,
/// and (per the scheduler contract) bit-identical results at any
/// `threads` setting.
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
///
/// # Panics
///
/// As [`build_all_from_trips_sharded`]: if a spill engaged through
/// `MOBY_SPILL_BUDGET_MB` failed on I/O.
pub fn build_all_from_trips(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    build_all_from_trips_sharded(trips, basic, None, threads)
}

/// [`build_all_from_trips`] with explicit control over the number of
/// construction shards — the city-scale entry point.
///
/// Every frozen graph routes through the row packing of
/// [`build_dense_csr_budgeted`](moby_graph::build_dense_csr_budgeted),
/// where each shard scatters its own row range of one shared set of row
/// buckets, so shards parallelise the scatter and change no memory.
/// Results are
/// **bit-identical** to [`build_all_from_trips`] at any `(shards,
/// threads)` combination — shard boundaries are a pure function of the
/// row structure and the shard count, never of scheduling (see
/// `DESIGN.md`, "Sharded construction"). `shards: None` defers to the
/// `MOBY_SHARDS` environment knob and then to 1.
///
/// # Panics
///
/// If a spill engaged through the `MOBY_SPILL_BUDGET_MB` environment
/// knob failed on I/O. Use [`build_all_from_trips_spilled`] to handle
/// spill failures as errors.
pub fn build_all_from_trips_sharded(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    shards: Option<usize>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    build_all_from_trips_spilled(trips, basic, shards, threads, None, None)
        .expect("spill I/O failed; use build_all_from_trips_spilled to handle it")
}

/// [`build_all_from_trips_sharded`] with an out-of-core **spill budget**
/// and typed spill errors.
///
/// Every graph freezes through
/// [`build_dense_csr_budgeted`](moby_graph::build_dense_csr_budgeted)
/// under `budget_mb` and `spill_dir`. `budget_mb = None` resolves the
/// `MOBY_SPILL_BUDGET_MB` environment knob; an explicit budget is used as
/// given. When a graph's estimated run size (two half-edges per trip)
/// exceeds the budget, its half-edges partition to per-shard disk runs
/// under `spill_dir` (default: the system temp dir), and each shard fills
/// its row buckets from its run instead of the trip columns; the buckets
/// are in memory either way. The frozen graphs and layer maps are
/// **bit-identical** to [`build_all_from_trips_sharded`] at any shard
/// count × thread count × budget — the spill-budget independence axis;
/// see `DESIGN.md`, "Out-of-core construction". Spill I/O failures
/// surface as [`CoreError::Spill`](crate::CoreError::Spill).
pub fn build_all_from_trips_spilled(
    trips: &TripTable,
    basic: Option<&CsrGraph>,
    shards: Option<usize>,
    threads: Option<usize>,
    budget_mb: Option<u64>,
    spill_dir: Option<&Path>,
) -> crate::Result<Vec<TemporalGraph>> {
    let build = |node_ids, src: &[u32], dst: &[u32]| {
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
    };
    let basic_csr = match basic {
        Some(csr) => csr.clone(),
        // The station-level graph builds straight from the dense trip
        // columns; seeding the full sorted node table keeps every
        // station visible, like the hash-map reference.
        None => build(trips.station_ids().to_vec(), trips.src(), trips.dst())?,
    };
    let layered = |granularity: TemporalGranularity| -> crate::Result<TemporalGraph> {
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

/// Advance all three temporal graphs by one ingested trip batch — the
/// incremental counterpart of [`build_all_from_trips`].
///
/// `trips` is the table **after**
/// [`TripTable::append_batch`](moby_data::trips::TripTable::append_batch)
/// and `outcome` is what that append returned; **one pass** over the
/// appended rows (`outcome.batch_start..`) emits the per-granularity edge
/// deltas (layer keys folded into node ids inline, as in the full build),
/// which merge into the existing frozen graphs via
/// [`CsrGraph::apply_delta`] — untouched rows are copied, never re-merged
/// from trips.
///
/// The three graphs are **consumed**: their frozen CSRs seed the deltas
/// and the layered maps move into the results (no per-batch clone of
/// state the batch didn't touch) — call as
/// `temporals = apply_batch_all(temporals, ..)`. `basic` optionally
/// supplies the already-delta-updated station-level undirected CSR (the
/// pipeline clones
/// [`SelectedNetwork::undirected`](crate::reassign::SelectedNetwork::undirected)
/// in after [`ingest_batch`](crate::reassign::SelectedNetwork::ingest_batch),
/// so `GBasic` is advanced exactly once); pass `None` to delta `GBasic`
/// from the batch here.
///
/// **Equivalence contract:** the returned graphs (and layer maps) are
/// bit-identical to [`build_all_from_trips`] over the full appended
/// table, at any thread count — new layered nodes intern exactly where a
/// full rebuild would place them (first batch appearance, after all
/// existing nodes) and new stations shift the `GBasic` node table through
/// `outcome.old_to_new`. The differential proptest suite
/// (`crates/core/tests/proptest_delta.rs`) asserts this for random batch
/// chains at 1/2/4 threads.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order.
pub fn apply_batch_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &AppendOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    let [basic_t, day_t, hour_t] = granularities(temporals);
    let day_stride = TemporalGranularity::TDay.stride();
    let hour_stride = TemporalGranularity::THour.stride();

    // One pass over the appended rows: layered edge lists per granularity.
    let rows = outcome.batch_start..trips.len();
    let (src, dst) = (trips.src(), trips.dst());
    let (day, hour, weight) = (trips.day(), trips.hour(), trips.weights());
    let mut day_edges = Vec::with_capacity(rows.len());
    let mut hour_edges = Vec::with_capacity(rows.len());
    for k in rows {
        let s = trips.station_id(src[k]);
        let d = trips.station_id(dst[k]);
        let w = weight[k];
        let dk = day[k] as u64;
        day_edges.push((s * day_stride + dk, d * day_stride + dk, w));
        let hk = hour[k] as u64;
        hour_edges.push((s * hour_stride + hk, d * hour_stride + hk, w));
    }

    let basic_csr = match basic {
        Some(csr) => csr,
        None => {
            // Station-level delta over the (possibly extended) sorted
            // intern table, dense columns straight from the appended rows.
            let bs = outcome.batch_start;
            let delta = CsrDelta::from_dense(
                false,
                trips.station_ids().to_vec(),
                outcome.old_to_new.clone(),
                &trips.src()[bs..],
                &trips.dst()[bs..],
                &trips.weights()[bs..],
            );
            basic_t.csr.apply_delta(&delta, threads)
        }
    };
    let (day_old_n, hour_old_n) = (day_t.csr.node_count(), hour_t.csr.node_count());
    let day_delta = CsrDelta::extend_by_id(&day_t.csr, day_edges);
    let day_csr = day_t.csr.apply_delta(&day_delta, threads);
    let hour_delta = CsrDelta::extend_by_id(&hour_t.csr, hour_edges);
    let hour_csr = hour_t.csr.apply_delta(&hour_delta, threads);

    // Layer maps are moved out of the consumed graphs and extended with
    // only the layered nodes the deltas appended — O(batch) hash inserts
    // and no re-decode of the full node table.
    let day_map = extend_layer_map(day_t.layer_map, &day_csr, day_stride, day_old_n);
    let hour_map = extend_layer_map(hour_t.layer_map, &hour_csr, hour_stride, hour_old_n);
    vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        TemporalGraph::from_csr(TemporalGranularity::TDay, day_csr, Some(day_map)),
        TemporalGraph::from_csr(TemporalGranularity::THour, hour_csr, Some(hour_map)),
    ]
}

/// Retreat all three temporal graphs past an eviction — the removal
/// counterpart of [`apply_batch_all`] and the other half of the windowed
/// lifecycle.
///
/// `trips` is the table **after**
/// [`TripTable::evict_before`](moby_data::trips::TripTable::evict_before)
/// (or its pinned variant) and `outcome` is what that eviction returned;
/// no rows may have been appended since, because the layered graphs
/// re-intern every row of `trips` as a survivor. After
/// [`SelectedNetwork::advance_window`](crate::reassign::SelectedNetwork::advance_window),
/// which appends its batch, use [`apply_window_all`] instead.
///
/// Every graph subtracts the evicted rows through
/// [`CsrGraph::apply_evict`]. `GBasic` keeps the table's sorted station
/// intern. `GDay`/`GHour` re-run their layer intern over the survivors
/// for the new node table only: first-appearance order is *not* stable
/// under row removal (a layer first interned by an evicted trip moves to
/// its next surviving appearance).
///
/// As with [`apply_batch_all`], the graphs are consumed and `basic` can
/// supply an already-evicted station-level CSR so the pipeline advances
/// `GBasic` exactly once.
///
/// **Equivalence contract:** the returned graphs and layer maps are
/// bit-identical to [`build_all_from_trips`] over the surviving table, at
/// any thread count (and against bases built at any shard count) — the
/// windowed differential suite (`crates/core/tests/proptest_window.rs`)
/// asserts this for interleaved ingest/evict chains.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order, or if the graphs do not hold the
/// evicted rows — a broken invariant: the graphs were not built from the
/// table the outcome came from.
pub fn apply_evict_all(
    temporals: Vec<TemporalGraph>,
    trips: &TripTable,
    outcome: &EvictOutcome,
    basic: Option<CsrGraph>,
    threads: Option<usize>,
) -> Vec<TemporalGraph> {
    let [basic_t, day_t, hour_t] = granularities(temporals);
    let (day_t, hour_t) = evict_layered_pair(day_t, hour_t, trips, trips.len(), outcome, threads);
    let basic_csr = match basic {
        Some(csr) => csr,
        None => evict_basic(basic_t.csr, trips, outcome, threads),
    };
    vec![
        TemporalGraph::from_csr(TemporalGranularity::TNull, basic_csr, None),
        day_t,
        hour_t,
    ]
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

/// `GBasic` past an eviction: the evicted rows subtract from the graph
/// over the table's station intern.
fn evict_basic(
    basic: CsrGraph,
    trips: &TripTable,
    outcome: &EvictOutcome,
    threads: Option<usize>,
) -> CsrGraph {
    if outcome.is_noop() {
        return basic;
    }
    basic
        .apply_evict(
            trips.station_ids().to_vec(),
            &outcome.evicted_src,
            &outcome.evicted_dst,
            &outcome.evicted_weight,
            threads,
        )
        .expect("GBasic holds the evicted rows")
}

/// The layered (`GDay`/`GHour`) half of an eviction. Each graph re-runs
/// the layer intern over the leading `rows_end` table rows (the surviving
/// prefix — a trailing batch may already sit behind it) for its new node
/// table, folds each evicted row's temporal key into its endpoints as
/// `station * stride + key`, and subtracts those edges. Layer maps
/// re-decode from the new tables — eviction can permute a
/// first-appearance intern (see [`apply_evict_all`]), and the decode is
/// exactly what a full rebuild would produce.
fn evict_layered_pair(
    day_t: TemporalGraph,
    hour_t: TemporalGraph,
    trips: &TripTable,
    rows_end: usize,
    outcome: &EvictOutcome,
    threads: Option<usize>,
) -> (TemporalGraph, TemporalGraph) {
    if outcome.is_noop() {
        return (day_t, hour_t);
    }
    let retreat = |t: TemporalGraph| {
        let (granularity, stride) = (t.granularity, t.granularity.stride());
        let layered = |station: &[NodeId]| -> Vec<NodeId> {
            (0..outcome.evicted_rows())
                .map(|k| {
                    let key =
                        granularity.layer_key(outcome.evicted_day[k], outcome.evicted_hour[k]);
                    station[k] * stride + u64::from(key)
                })
                .collect()
        };
        let csr = t
            .csr
            .apply_evict(
                layer_node_ids(trips, rows_end, granularity),
                &layered(&outcome.evicted_src),
                &layered(&outcome.evicted_dst),
                &outcome.evicted_weight,
                threads,
            )
            .expect("layered graph holds the evicted rows");
        let map = decode_layer_map(&csr, stride);
        TemporalGraph::from_csr(granularity, csr, Some(map))
    };
    (retreat(day_t), retreat(hour_t))
}

/// Carry all three temporal graphs through one **window step** — the
/// eviction then the batch, matching what
/// [`SelectedNetwork::advance_window`](crate::reassign::SelectedNetwork::advance_window)
/// did to the station-level state.
///
/// `trips` is the table *after* `advance_window` (surviving rows first,
/// then the appended batch — appends only ever extend, so the leading
/// `outcome.appended.batch_start` rows are exactly the post-evict
/// survivors the retreat must see). `basic` optionally supplies the
/// network's already-advanced undirected graph, in which case `GBasic`
/// skips both phases and swaps it in; with `None`, `GBasic` subtracts the
/// evicted rows and then takes the batch.
///
/// Composes the equivalence contracts of [`apply_evict_all`] and
/// [`apply_batch_all`]: the result is bit-identical to
/// [`build_all_from_trips`] over the post-window table at any thread
/// count.
///
/// # Panics
///
/// If `temporals` is not the three-granularity slice the build functions
/// produce, in granularity order, or if the graphs do not hold the
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
    let evicted = &outcome.evicted;
    let (day_t, hour_t) = evict_layered_pair(
        day_t,
        hour_t,
        trips,
        outcome.appended.batch_start,
        evicted,
        threads,
    );
    // GBasic retreats unless the caller shares an already-advanced graph
    // (then the ingest phase swaps it in and no station-level pass runs
    // here at all). `advance_window` pins the station table, so the
    // intern the eviction saw is still the table's.
    let basic_t = match basic {
        Some(_) => basic_t,
        None => {
            let csr = evict_basic(basic_t.csr, trips, evicted, threads);
            TemporalGraph::from_csr(TemporalGranularity::TNull, csr, None)
        }
    };
    apply_batch_all(
        vec![basic_t, day_t, hour_t],
        trips,
        &outcome.appended,
        basic,
        threads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CoreError;
    use moby_data::trips::TripBatch;

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
                    check(
                        build_all_from_trips_sharded(&trips, None, shards, threads),
                        "sharded",
                    );
                    let spilled =
                        build_all_from_trips_spilled(&trips, None, shards, threads, Some(0), None);
                    check(spilled.unwrap(), "spilled");
                }
            }
        }
    }

    #[test]
    fn apply_batch_all_matches_full_rebuild() {
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let mut batch = TripBatch::new();
        // Existing stations at new times, a repeated edge, and a brand-new
        // station (id 2, which sorts between 1 and 3).
        let t = |day: u32, hour: u32| {
            moby_data::timeparse::Timestamp::from_ymd_hms(2020, 6, 1 + day, hour, 0, 0).unwrap()
        };
        batch.push(1, 0, t(0, 8)); // station 0 is new and sorts first,
                                   // shifting every old dense index
        batch.push(1, 0, t(0, 8)); // duplicate layered edge
        batch.push(3, 1, t(3, 21));
        let outcome = trips.append_batch(&batch).unwrap();
        assert_eq!(outcome.new_stations, vec![0]);
        for threads in [Some(1), Some(2), Some(4)] {
            let got = apply_batch_all(base.clone(), &trips, &outcome, None, threads);
            let want = build_all_from_trips(&trips, None, threads);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.granularity, w.granularity);
                assert_eq!(g.csr, w.csr, "{:?} diverged from rebuild", g.granularity);
                assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
            }
        }
        // Sharing an already-updated GBasic skips the station-level delta.
        let updated = build_all_from_trips(&trips, None, Some(1));
        let shared = apply_batch_all(
            base,
            &trips,
            &outcome,
            Some(updated[0].csr.clone()),
            Some(1),
        );
        assert_eq!(shared[0].csr, updated[0].csr);
        assert_eq!(shared[1].csr, updated[1].csr);
    }

    #[test]
    fn apply_evict_all_matches_rebuild_over_survivors() {
        use moby_data::trips::WindowStart;
        // Compacting eviction: day-0..4 rows expire, station 1 loses every
        // trip and leaves the intern table.
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before(WindowStart::new(5, 0));
        assert_eq!(outcome.evicted_rows(), 3);
        assert!(outcome.new_to_old.is_some(), "station 1 must drop");
        for threads in [Some(1), Some(2), Some(4)] {
            let got = apply_evict_all(base.clone(), &trips, &outcome, None, threads);
            let want = build_all_from_trips(&trips, None, threads);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.granularity, w.granularity);
                assert_eq!(g.csr, w.csr, "{:?} diverged from rebuild", g.granularity);
                assert_eq!(g.layer_map, w.layer_map, "{:?} map", g.granularity);
            }
        }
        // Sharing an already-evicted GBasic skips the station-level pass.
        let want = build_all_from_trips(&trips, None, Some(1));
        let shared = apply_evict_all(base, &trips, &outcome, Some(want[0].csr.clone()), Some(1));
        assert_eq!(shared[0].csr, want[0].csr);
        assert_eq!(shared[2].csr, want[2].csr);
    }

    #[test]
    fn pinned_evict_keeps_isolated_stations_in_gbasic() {
        use moby_data::trips::WindowStart;
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before_pinned(WindowStart::new(5, 0));
        assert!(outcome.new_to_old.is_none(), "pinned table never compacts");
        let got = apply_evict_all(base, &trips, &outcome, None, Some(2));
        // GBasic keeps station 1 as an isolated row, exactly as a rebuild
        // seeded with the full pinned station table would.
        let want = build_all_from_trips(&trips, None, Some(1));
        assert_eq!(got[0].csr, want[0].csr);
        assert_eq!(got[0].csr.node_count(), 3);
        let row1 = got[0].csr.index_of(1).unwrap() as usize;
        assert_eq!(got[0].csr.degree(row1), 0);
        assert_eq!(got[1].csr, want[1].csr);
        assert_eq!(got[2].csr, want[2].csr);
    }

    #[test]
    fn noop_evict_returns_graphs_unchanged() {
        use moby_data::trips::WindowStart;
        let mut trips = trip_table();
        let base = build_all_from_trips(&trips, None, Some(1));
        let outcome = trips.evict_before(WindowStart::new(0, 0));
        assert!(outcome.is_noop());
        let got = apply_evict_all(base.clone(), &trips, &outcome, None, Some(2));
        for (g, b) in got.iter().zip(&base) {
            assert_eq!(g.csr, b.csr);
        }
    }

    #[test]
    fn sharded_columnar_build_matches_unsharded() {
        let trips = trip_table();
        let baseline = build_all_from_trips(&trips, None, Some(1));
        for shards in [Some(1), Some(2), Some(4)] {
            for threads in [Some(1), Some(2), Some(4)] {
                let sharded = build_all_from_trips_sharded(&trips, None, shards, threads);
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
