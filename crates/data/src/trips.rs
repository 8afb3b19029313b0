//! The columnar trip table — struct-of-arrays trips for hashmap-free
//! graph construction.
//!
//! Cleaning produces row-of-structs [`Rental`](crate::schema::Rental)
//! records; the graph layer
//! wants columns. [`TripTable`] is the bridge: each trip is one row of
//!
//! * `src` / `dst` — the endpoint stations as dense `u32` indices into a
//!   **shared, sorted station-intern table** (one table for every graph
//!   built from the trips, so `GBasic`/`GDay`/`GHour` never re-derive the
//!   id space);
//! * `day` / `hour` — the start-time keys the temporal graphs layer by
//!   (weekday 0–6 Monday-first, hour 0–23), computed once at table build;
//! * `weight` — the trip's edge weight: 1.0 for a plain rental, and
//!   always an integer from 1 to [`MAX_TRIP_WEIGHT`] (see
//!   [`check_trip_weight`]).
//!
//! Station interning happens by **binary search over the sorted id
//! table** — the hot per-trip path performs zero hash-map operations.
//! One linear pass over these columns feeds the edge lists of every graph
//! granularity (see `moby_core::temporal`). The table is the pipeline's
//! only record of a trip: the reporting layer's day/hour profiles count
//! its rows too.

use crate::timeparse::Timestamp;
use crate::{DataError, Result};

/// External station identifier (matches the graph layer's `NodeId`).
pub type StationNodeId = u64;

/// The largest weight a trip may carry: 2^20.
///
/// Trip weights are integers from 1 to this cap, so every graph built
/// from a table sums integers, which `f64` holds exactly up to 2^53. A
/// buildable graph has at most `u32::MAX` half-edges, so each merged
/// entry, strength and total stays at or below 2^32 × 2^20 = 2^52 and
/// each weighted degree, which counts a self-loop twice, at or below
/// 2 × 2^52 = 2^53. Exact sums are what let a sliding window subtract
/// expired trips from a graph instead of rebuilding it
/// (`moby_graph::evict`). Zero is excluded, so a merged entry that
/// subtraction brings to 0 has no trip left.
pub const MAX_TRIP_WEIGHT: f64 = 1_048_576.0;

/// Check a trip weight against the trip domain: an integer from 1 to
/// [`MAX_TRIP_WEIGHT`]. The one predicate every path into a
/// [`TripTable`] shares.
///
/// # Errors
///
/// [`DataError::InvalidWeight`] for any other value, NaN and infinities
/// included.
#[inline]
pub fn check_trip_weight(weight: f64) -> Result<()> {
    if (1.0..=MAX_TRIP_WEIGHT).contains(&weight) && weight.fract() == 0.0 {
        Ok(())
    } else {
        Err(DataError::InvalidWeight(weight))
    }
}

/// Derive a trip's temporal keys (weekday 0–6 Monday-first, hour 0–23)
/// from its start time. Shared by [`TripTable`] and [`TripBatch`]
/// pushes, so an appended table is indistinguishable from one built in a
/// single pass — the delta equivalence contract leans on this.
#[inline]
pub(crate) fn temporal_keys(start: Timestamp) -> (u8, u8) {
    (start.weekday().index() as u8, start.hour() as u8)
}

/// A batch of not-yet-interned trips, addressed by **external** station
/// ids — the unit of streaming ingestion. Collect incoming trips here,
/// then extend a [`TripTable`] with [`TripTable::append_batch`]; the
/// temporal keys are derived once at push time, exactly like the table's
/// own push path, so an appended table is indistinguishable from one
/// built in a single pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TripBatch {
    src: Vec<StationNodeId>,
    dst: Vec<StationNodeId>,
    day: Vec<u8>,
    hour: Vec<u8>,
    weight: Vec<f64>,
}

impl TripBatch {
    /// An empty batch.
    pub fn new() -> TripBatch {
        TripBatch::default()
    }

    /// Number of trips in the batch.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the batch holds no trips.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Append a unit-weight trip between two external station ids.
    #[inline]
    pub fn push(&mut self, src: StationNodeId, dst: StationNodeId, start: Timestamp) {
        self.push_weighted(src, dst, start, 1.0);
    }

    /// Append a weighted trip between two external station ids. The
    /// row is stored as given; [`TripTable::append_batch`] checks its
    /// weight where the batch enters a table.
    pub fn push_weighted(
        &mut self,
        src: StationNodeId,
        dst: StationNodeId,
        start: Timestamp,
        weight: f64,
    ) {
        let (day, hour) = temporal_keys(start);
        self.push_keyed(src, dst, day, hour, weight);
    }

    /// Append a trip whose temporal keys are **already derived** — the
    /// replay entry for sources that carry `(day, hour)` columns rather
    /// than timestamps (trip-table replays, sharded ingest feeds,
    /// benchmarks). `day` is the Monday-first weekday index (0–6),
    /// `hour` the start hour (0–23); the weight is stored as given, as in
    /// [`TripBatch::push_weighted`].
    ///
    /// # Panics
    ///
    /// If a key is out of range.
    pub fn push_keyed(
        &mut self,
        src: StationNodeId,
        dst: StationNodeId,
        day: u8,
        hour: u8,
        weight: f64,
    ) {
        assert!(day < 7 && hour < 24, "temporal keys out of range");
        self.src.push(src);
        self.dst.push(dst);
        self.day.push(day);
        self.hour.push(hour);
        self.weight.push(weight);
    }

    /// Iterate over the batch as
    /// `(src_station_id, dst_station_id, day, hour, weight)` rows in
    /// insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (StationNodeId, StationNodeId, u8, u8, f64)> + '_ {
        (0..self.len()).map(move |k| {
            (
                self.src[k],
                self.dst[k],
                self.day[k],
                self.hour[k],
                self.weight[k],
            )
        })
    }

    /// The distinct station ids the batch references, sorted.
    pub fn station_ids(&self) -> Vec<StationNodeId> {
        let mut ids: Vec<StationNodeId> = self.src.iter().chain(&self.dst).copied().collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// The inclusive start of a weekly sliding window, keyed on the trip
/// columns' `(day, hour)` pair — the windowed-eviction analogue of a
/// timestamp cutoff for a table that stores weekday/hour keys rather
/// than absolute times. Rows whose slot (`day * 24 + hour`) sorts
/// strictly before the window start are expired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowStart {
    day: u8,
    hour: u8,
}

impl WindowStart {
    /// A window starting at the given Monday-first weekday (0–6) and
    /// hour (0–23).
    ///
    /// # Panics
    ///
    /// If a key is out of range (same contract as the push paths).
    pub fn new(day: u8, hour: u8) -> WindowStart {
        assert!(day < 7 && hour < 24, "temporal keys out of range");
        WindowStart { day, hour }
    }

    /// The linear weekly slot (`day * 24 + hour`, 0–167) rows are
    /// compared against.
    #[inline]
    pub fn slot(&self) -> u16 {
        self.day as u16 * 24 + self.hour as u16
    }

    /// Whether a trip with the given keys survives this window
    /// (`slot >= window start`).
    #[inline]
    pub fn keeps(&self, day: u8, hour: u8) -> bool {
        day as u16 * 24 + hour as u16 >= self.slot()
    }
}

/// What [`TripTable::evict_before`] removed from the table — the
/// subtraction-side mirror of [`AppendOutcome`]. Downstream incremental
/// consumers (the graph layer's window kernel, `CsrGraph::apply_window`)
/// subtract the expired rows themselves from the merged weights that
/// hold them; every row's weight is an integer in the trip domain, so
/// the subtraction is exact.
///
/// Evicted endpoints are reported as **external** station ids: after a
/// compacting evict the old dense index space no longer exists, and
/// every downstream graph (station-level or temporal-layered) can
/// resolve an external id against its own node table.
#[derive(Debug, Clone, PartialEq)]
pub struct EvictOutcome {
    /// Source stations of the evicted rows (external ids, original row
    /// order).
    pub evicted_src: Vec<StationNodeId>,
    /// Destination stations of the evicted rows (external ids, original
    /// row order).
    pub evicted_dst: Vec<StationNodeId>,
    /// Weekday keys of the evicted rows.
    pub evicted_day: Vec<u8>,
    /// Hour keys of the evicted rows.
    pub evicted_hour: Vec<u8>,
    /// Weights of the evicted rows.
    pub evicted_weight: Vec<f64>,
    /// For each dense station index of the **compacted** table, its
    /// index in the old table — strictly increasing (the compacted id
    /// list is a sorted subset of the old sorted list). `None` when the
    /// intern table is unchanged (no station was dropped, or the evict
    /// was pinned).
    pub new_to_old: Option<Vec<u32>>,
    /// External ids of the stations compaction dropped, sorted.
    pub removed_stations: Vec<StationNodeId>,
}

impl EvictOutcome {
    /// Number of rows the evict dropped.
    pub fn evicted_rows(&self) -> usize {
        self.evicted_src.len()
    }

    /// Whether the evict changed nothing (no rows dropped — and hence no
    /// stations either).
    pub fn is_noop(&self) -> bool {
        self.evicted_src.is_empty()
    }

    /// The distinct stations incident to an evicted row, sorted. The
    /// eviction itself needs no touched set; the windowed pipeline uses
    /// this one to decide how widely to refresh its communities.
    pub fn touched_stations(&self) -> Vec<StationNodeId> {
        let mut ids: Vec<StationNodeId> = self
            .evicted_src
            .iter()
            .chain(&self.evicted_dst)
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }
}

/// What [`TripTable::append_batch`] did to the table — everything a
/// downstream incremental consumer (the graph layer's window kernel,
/// `CsrGraph::apply_window`) needs to mirror the update without
/// re-reading untouched rows.
#[derive(Debug, Clone, PartialEq)]
pub struct AppendOutcome {
    /// Row index where the appended batch begins (the table's length
    /// before the append); the batch occupies `batch_start..table.len()`.
    pub batch_start: usize,
    /// For each **old** dense station index, its index in the extended
    /// table — strictly increasing. `None` when the batch introduced no
    /// new stations (old indices are unchanged).
    pub old_to_new: Option<Vec<u32>>,
    /// External ids of the stations this batch newly interned, sorted.
    pub new_stations: Vec<StationNodeId>,
}

/// A struct-of-arrays table of station-to-station trips. See the
/// [module docs](self).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TripTable {
    /// Sorted external station ids; dense index = position.
    station_ids: Vec<StationNodeId>,
    src: Vec<u32>,
    dst: Vec<u32>,
    day: Vec<u8>,
    hour: Vec<u8>,
    weight: Vec<f64>,
}

impl TripTable {
    /// An empty table over the given station set. Ids are sorted and
    /// deduplicated; the sorted order defines the dense index space.
    pub fn new(mut station_ids: Vec<StationNodeId>) -> TripTable {
        station_ids.sort_unstable();
        station_ids.dedup();
        assert!(
            station_ids.len() <= u32::MAX as usize,
            "station index space is u32"
        );
        TripTable {
            station_ids,
            ..TripTable::default()
        }
    }

    /// An empty table over the given station set with capacity
    /// pre-reserved for `rows` trips — the row-count-hint entry loaders
    /// and generators use so multi-million-row ingests never pay realloc
    /// churn on the five trip columns.
    pub fn with_capacity(station_ids: Vec<StationNodeId>, rows: usize) -> TripTable {
        let mut t = TripTable::new(station_ids);
        t.reserve(rows);
        t
    }

    /// Reserve capacity for at least `additional` more trips across all
    /// five columns.
    pub fn reserve(&mut self, additional: usize) {
        self.src.reserve(additional);
        self.dst.reserve(additional);
        self.day.reserve(additional);
        self.hour.reserve(additional);
        self.weight.reserve(additional);
    }

    /// Number of trips.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    /// Whether the table holds no trips.
    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Number of interned stations.
    pub fn station_count(&self) -> usize {
        self.station_ids.len()
    }

    /// The sorted external station ids (dense index = position).
    pub fn station_ids(&self) -> &[StationNodeId] {
        &self.station_ids
    }

    /// The dense index of an external station id (binary search — no hash
    /// map anywhere on this path).
    #[inline]
    pub fn station_index(&self, id: StationNodeId) -> Option<u32> {
        self.station_ids.binary_search(&id).ok().map(|i| i as u32)
    }

    /// The external station id at a dense index.
    #[inline]
    pub fn station_id(&self, index: u32) -> StationNodeId {
        self.station_ids[index as usize]
    }

    /// Append a unit-weight trip between two dense station indices,
    /// deriving the temporal keys from the start time.
    #[inline]
    pub fn push(&mut self, src: u32, dst: u32, start: Timestamp) {
        let (day, hour) = temporal_keys(start);
        self.push_row(src, dst, day, hour, 1.0);
    }

    /// Append a weighted trip between two dense station indices.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidWeight`] for a weight outside the trip domain
    /// ([`check_trip_weight`]); the table is then unchanged.
    pub fn push_weighted(
        &mut self,
        src: u32,
        dst: u32,
        start: Timestamp,
        weight: f64,
    ) -> Result<()> {
        let (day, hour) = temporal_keys(start);
        self.push_keyed(src, dst, day, hour, weight)
    }

    /// Append a trip whose temporal keys are **already derived**
    /// (Monday-first weekday 0–6, hour 0–23) — the replay entry for
    /// columnar sources; [`TripTable::push_weighted`] is this plus the
    /// key derivation.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidWeight`] for a weight outside the trip domain;
    /// the table is then unchanged.
    ///
    /// # Panics
    ///
    /// If a key is out of range.
    pub fn push_keyed(&mut self, src: u32, dst: u32, day: u8, hour: u8, weight: f64) -> Result<()> {
        check_trip_weight(weight)?;
        self.push_row(src, dst, day, hour, weight);
        Ok(())
    }

    /// Append one row whose weight is already in the trip domain.
    fn push_row(&mut self, src: u32, dst: u32, day: u8, hour: u8, weight: f64) {
        debug_assert!((src as usize) < self.station_ids.len());
        debug_assert!((dst as usize) < self.station_ids.len());
        assert!(day < 7 && hour < 24, "temporal keys out of range");
        self.src.push(src);
        self.dst.push(dst);
        self.day.push(day);
        self.hour.push(hour);
        self.weight.push(weight);
    }

    /// Source station column (dense indices).
    pub fn src(&self) -> &[u32] {
        &self.src
    }

    /// Destination station column (dense indices).
    pub fn dst(&self) -> &[u32] {
        &self.dst
    }

    /// Weekday-of-start column (0–6, Monday first).
    pub fn day(&self) -> &[u8] {
        &self.day
    }

    /// Hour-of-start column (0–23).
    pub fn hour(&self) -> &[u8] {
        &self.hour
    }

    /// Edge-weight column.
    pub fn weights(&self) -> &[f64] {
        &self.weight
    }

    /// Iterate over the trips as `(src_station_id, dst_station_id, weight)`
    /// external-id triples in insertion order — the edge list of the
    /// station-level trip graph, ready for a CSR builder.
    pub fn station_edges(&self) -> impl Iterator<Item = (StationNodeId, StationNodeId, f64)> + '_ {
        (0..self.len()).map(move |k| {
            (
                self.station_ids[self.src[k] as usize],
                self.station_ids[self.dst[k] as usize],
                self.weight[k],
            )
        })
    }

    /// Append a [`TripBatch`], extending the sorted station-intern table
    /// in place — the streaming-ingestion entry point.
    ///
    /// Station ids the table has never seen are merged into the sorted
    /// intern table; because the table is sorted, new ids can land
    /// *between* old ones, shifting old dense indices. The shift is a
    /// **monotone remap** applied to the existing `src`/`dst` columns in
    /// one linear pass (an array lookup per endpoint — old endpoints are
    /// never re-interned by search). Batch endpoints then intern by
    /// binary search over the extended table and the rows are appended.
    ///
    /// The resulting table is **identical** to one built from scratch
    /// over the union station set with all rows pushed in order — the
    /// delta machinery's differential suite asserts this per batch.
    /// Returns the [`AppendOutcome`] describing the append (row offset,
    /// index remap, newly interned stations).
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidWeight`] for the first batch row whose weight
    /// is outside the trip domain ([`check_trip_weight`]). Every weight
    /// is checked before any mutation, so the table is then unchanged.
    pub fn append_batch(&mut self, batch: &TripBatch) -> Result<AppendOutcome> {
        for &w in &batch.weight {
            check_trip_weight(w)?;
        }
        // --- New station ids: everything not in the sorted table. ---
        let mut new_stations: Vec<StationNodeId> = batch
            .src
            .iter()
            .chain(&batch.dst)
            .copied()
            .filter(|&id| self.station_index(id).is_none())
            .collect();
        new_stations.sort_unstable();
        new_stations.dedup();

        let old_to_new = if new_stations.is_empty() {
            None
        } else {
            // Merge the two sorted id lists, recording where each old
            // dense index lands in the merged table.
            let merged_len = self.station_ids.len() + new_stations.len();
            assert!(
                merged_len <= u32::MAX as usize,
                "station index space is u32"
            );
            let mut merged = Vec::with_capacity(merged_len);
            let mut map = Vec::with_capacity(self.station_ids.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.station_ids.len() || j < new_stations.len() {
                if j >= new_stations.len()
                    || (i < self.station_ids.len() && self.station_ids[i] < new_stations[j])
                {
                    map.push(merged.len() as u32);
                    merged.push(self.station_ids[i]);
                    i += 1;
                } else {
                    merged.push(new_stations[j]);
                    j += 1;
                }
            }
            self.station_ids = merged;
            // Shift the existing endpoint columns through the remap: one
            // linear pass, no per-endpoint search.
            for v in &mut self.src {
                *v = map[*v as usize];
            }
            for v in &mut self.dst {
                *v = map[*v as usize];
            }
            Some(map)
        };

        // --- Append the batch rows over the extended table. ---
        let batch_start = self.len();
        self.reserve(batch.len());
        for k in 0..batch.len() {
            let s = self
                .station_index(batch.src[k])
                .expect("batch endpoint interned");
            let d = self
                .station_index(batch.dst[k])
                .expect("batch endpoint interned");
            self.src.push(s);
            self.dst.push(d);
            self.day.push(batch.day[k]);
            self.hour.push(batch.hour[k]);
            self.weight.push(batch.weight[k]);
        }
        Ok(AppendOutcome {
            batch_start,
            old_to_new,
            new_stations,
        })
    }

    /// Drop every trip whose weekly slot sorts strictly before the
    /// window start and **compact the intern table**: stations no longer
    /// referenced by any surviving row leave the dense index space (the
    /// sorted-subset compaction keeps the remap strictly increasing,
    /// mirroring [`TripTable::append_batch`]'s monotone extension).
    ///
    /// The resulting table is **identical** to one built from scratch
    /// over the surviving station set with the surviving rows pushed in
    /// order — the windowed differential suite asserts this per evict.
    /// Returns the [`EvictOutcome`] describing the removal.
    pub fn evict_before(&mut self, window: WindowStart) -> EvictOutcome {
        self.evict(window, true)
    }

    /// [`TripTable::evict_before`] without intern-table compaction: every
    /// station keeps its dense index even when its last trip expires —
    /// the entry for fixed-station-set consumers (a selected network's
    /// node table is pinned by the expansion run, so its graphs keep
    /// isolated rows rather than shrinking).
    pub fn evict_before_pinned(&mut self, window: WindowStart) -> EvictOutcome {
        self.evict(window, false)
    }

    fn evict(&mut self, window: WindowStart, compact: bool) -> EvictOutcome {
        // --- Partition rows: keep survivors in order, capture expired. ---
        let mut outcome = EvictOutcome {
            evicted_src: Vec::new(),
            evicted_dst: Vec::new(),
            evicted_day: Vec::new(),
            evicted_hour: Vec::new(),
            evicted_weight: Vec::new(),
            new_to_old: None,
            removed_stations: Vec::new(),
        };
        let mut write = 0usize;
        for read in 0..self.len() {
            if window.keeps(self.day[read], self.hour[read]) {
                self.src[write] = self.src[read];
                self.dst[write] = self.dst[read];
                self.day[write] = self.day[read];
                self.hour[write] = self.hour[read];
                self.weight[write] = self.weight[read];
                write += 1;
            } else {
                outcome
                    .evicted_src
                    .push(self.station_ids[self.src[read] as usize]);
                outcome
                    .evicted_dst
                    .push(self.station_ids[self.dst[read] as usize]);
                outcome.evicted_day.push(self.day[read]);
                outcome.evicted_hour.push(self.hour[read]);
                outcome.evicted_weight.push(self.weight[read]);
            }
        }
        self.src.truncate(write);
        self.dst.truncate(write);
        self.day.truncate(write);
        self.hour.truncate(write);
        self.weight.truncate(write);
        if !compact || outcome.is_noop() {
            return outcome;
        }

        // --- Compact the intern table to the referenced stations. ---
        let mut referenced = vec![false; self.station_ids.len()];
        for &s in self.src.iter().chain(&self.dst) {
            referenced[s as usize] = true;
        }
        if referenced.iter().all(|&r| r) {
            return outcome;
        }
        // Sorted subset: old dense order survives, so the remap is
        // monotone like append_batch's (just contracting, not extending).
        let mut old_to_new = vec![u32::MAX; self.station_ids.len()];
        let mut new_to_old = Vec::new();
        let mut kept = Vec::new();
        for (old, &id) in self.station_ids.iter().enumerate() {
            if referenced[old] {
                old_to_new[old] = new_to_old.len() as u32;
                new_to_old.push(old as u32);
                kept.push(id);
            } else {
                outcome.removed_stations.push(id);
            }
        }
        for v in &mut self.src {
            *v = old_to_new[*v as usize];
        }
        for v in &mut self.dst {
            *v = old_to_new[*v as usize];
        }
        self.station_ids = kept;
        outcome.new_to_old = Some(new_to_old);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(day: u32, hour: u32) -> Timestamp {
        // 2020-06-01 is a Monday.
        Timestamp::from_ymd_hms(2020, 6, day, hour, 0, 0).unwrap()
    }

    #[test]
    fn interning_is_sorted_and_deduplicated() {
        let t = TripTable::new(vec![30, 10, 20, 10]);
        assert_eq!(t.station_ids(), &[10, 20, 30]);
        assert_eq!(t.station_count(), 3);
        assert_eq!(t.station_index(20), Some(1));
        assert_eq!(t.station_index(99), None);
        assert_eq!(t.station_id(2), 30);
    }

    #[test]
    fn with_capacity_changes_nothing_observable() {
        let mut a = TripTable::new(vec![1, 2]);
        let mut b = TripTable::with_capacity(vec![1, 2], 128);
        a.push(0, 1, ts(1, 8));
        b.push(0, 1, ts(1, 8));
        assert_eq!(a, b);
    }

    #[test]
    fn push_derives_temporal_keys() {
        let mut t = TripTable::new(vec![1, 2]);
        t.push(0, 1, ts(1, 8)); // Monday 08:00
        t.push(1, 0, ts(6, 17)); // Saturday 17:00
        t.push_weighted(0, 0, ts(7, 12), 3.0).unwrap(); // Sunday noon self-loop
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.src(), &[0, 1, 0]);
        assert_eq!(t.dst(), &[1, 0, 0]);
        assert_eq!(t.day(), &[0, 5, 6]);
        assert_eq!(t.hour(), &[8, 17, 12]);
        assert_eq!(t.weights(), &[1.0, 1.0, 3.0]);
    }

    #[test]
    fn station_edges_yield_external_ids_in_order() {
        let mut t = TripTable::new(vec![10, 20]);
        t.push(0, 1, ts(1, 8));
        t.push(1, 1, ts(2, 9));
        let edges: Vec<_> = t.station_edges().collect();
        assert_eq!(edges, vec![(10, 20, 1.0), (20, 20, 1.0)]);
    }

    #[test]
    fn keyed_push_matches_timestamp_push() {
        // ts(6, 17) is Saturday 17:00 → weekday index 5.
        let mut a = TripTable::new(vec![1, 2]);
        a.push(0, 1, ts(6, 17));
        let mut b = TripTable::new(vec![1, 2]);
        b.push_keyed(0, 1, 5, 17, 1.0).unwrap();
        assert_eq!(a, b);
        let mut ba = TripBatch::new();
        ba.push(1, 2, ts(6, 17));
        let mut bb = TripBatch::new();
        bb.push_keyed(1, 2, 5, 17, 1.0);
        assert_eq!(ba, bb);
    }

    #[test]
    fn append_batch_without_new_stations_keeps_indices() {
        let mut t = TripTable::new(vec![10, 20, 30]);
        t.push(0, 1, ts(1, 8));
        let mut b = TripBatch::new();
        b.push(20, 30, ts(2, 9));
        b.push_weighted(30, 10, ts(3, 10), 2.0);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.station_ids(), vec![10, 20, 30]);
        let out = t.append_batch(&b).unwrap();
        assert_eq!(out.batch_start, 1);
        assert_eq!(out.old_to_new, None);
        assert!(out.new_stations.is_empty());
        assert_eq!(t.len(), 3);
        assert_eq!(t.src(), &[0, 1, 2]);
        assert_eq!(t.dst(), &[1, 2, 0]);
        assert_eq!(t.day(), &[0, 1, 2]);
        assert_eq!(t.weights(), &[1.0, 1.0, 2.0]);
    }

    #[test]
    fn append_batch_interleaves_new_stations_and_remaps_old_rows() {
        let mut t = TripTable::new(vec![10, 30]);
        t.push(0, 1, ts(1, 8)); // 10 -> 30
        let mut b = TripBatch::new();
        b.push(20, 30, ts(2, 9)); // 20 is new, sorts between 10 and 30
        b.push(40, 10, ts(2, 10)); // 40 is new, sorts last
        let out = t.append_batch(&b).unwrap();
        assert_eq!(out.batch_start, 1);
        assert_eq!(out.new_stations, vec![20, 40]);
        assert_eq!(out.old_to_new, Some(vec![0, 2]));
        assert_eq!(t.station_ids(), &[10, 20, 30, 40]);
        // The old row's endpoints were shifted through the remap.
        assert_eq!(t.src(), &[0, 1, 3]);
        assert_eq!(t.dst(), &[2, 2, 0]);
    }

    #[test]
    fn appended_table_equals_one_built_from_scratch() {
        let mut t = TripTable::new(vec![10, 30]);
        t.push(0, 1, ts(1, 8));
        t.push_weighted(1, 1, ts(4, 20), 2.0).unwrap();
        let mut b = TripBatch::new();
        b.push(20, 10, ts(2, 9));
        b.push(30, 20, ts(6, 23));
        t.append_batch(&b).unwrap();
        // From scratch: union station set, same rows in the same order.
        let mut want = TripTable::new(vec![10, 20, 30]);
        // Dense indices over the sorted union table: 10 -> 0, 20 -> 1, 30 -> 2.
        want.push(0, 2, ts(1, 8));
        want.push_weighted(2, 2, ts(4, 20), 2.0).unwrap();
        want.push(1, 0, ts(2, 9));
        want.push(2, 1, ts(6, 23));
        assert_eq!(t, want);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let mut t = TripTable::new(vec![1, 2]);
        t.push(0, 1, ts(1, 8));
        let before = t.clone();
        let out = t.append_batch(&TripBatch::new()).unwrap();
        assert_eq!(out.batch_start, 1);
        assert_eq!(out.old_to_new, None);
        assert!(out.new_stations.is_empty());
        assert_eq!(t, before);
    }

    #[test]
    fn weights_outside_the_domain_are_rejected_where_they_enter_a_table() {
        let mut t = TripTable::new(vec![1, 2]);
        t.push(0, 1, ts(1, 8));
        let before = t.clone();
        let bad = [
            0.5,
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            MAX_TRIP_WEIGHT + 1.0,
        ];
        for w in bad {
            let rejected = |got: Result<_>| matches!(got, Err(DataError::InvalidWeight(x)) if x.to_bits() == w.to_bits());
            assert!(rejected(check_trip_weight(w)), "{w}");
            assert!(rejected(t.push_weighted(0, 1, ts(1, 8), w)), "{w}");
            assert!(rejected(t.push_keyed(0, 1, 0, 8, w)), "{w}");
            // The batch stores the row as given; the table rejects the
            // whole batch before touching anything, even a new station.
            let mut b = TripBatch::new();
            b.push(2, 3, ts(2, 9));
            b.push_weighted(1, 2, ts(1, 8), w);
            assert_eq!(b.len(), 2);
            assert!(rejected(t.append_batch(&b).map(|_| ())), "{w}");
            assert_eq!(t, before);
        }
        // The domain's ends are accepted.
        for w in [1.0, 5.0, MAX_TRIP_WEIGHT] {
            t.push_keyed(0, 1, 0, 8, w).unwrap();
        }
        assert_eq!(&t.weights()[1..], &[1.0, 5.0, MAX_TRIP_WEIGHT]);
    }

    #[test]
    fn window_start_slots_and_keeps() {
        let w = WindowStart::new(2, 5); // Wednesday 05:00, slot 53
        assert_eq!(w.slot(), 53);
        assert!(w.keeps(2, 5));
        assert!(w.keeps(6, 0));
        assert!(!w.keeps(2, 4));
        assert!(!w.keeps(0, 23));
        assert_eq!(WindowStart::new(0, 0).slot(), 0);
        assert_eq!(WindowStart::new(6, 23).slot(), 167);
    }

    #[test]
    #[should_panic(expected = "temporal keys out of range")]
    fn window_start_rejects_out_of_range_keys() {
        WindowStart::new(7, 0);
    }

    #[test]
    fn evict_nothing_is_a_noop() {
        let mut t = TripTable::new(vec![10, 20]);
        t.push(0, 1, ts(3, 9)); // Wednesday
        let before = t.clone();
        let out = t.evict_before(WindowStart::new(0, 0));
        assert!(out.is_noop());
        assert_eq!(out.evicted_rows(), 0);
        assert_eq!(out.new_to_old, None);
        assert!(out.removed_stations.is_empty());
        assert!(out.touched_stations().is_empty());
        assert_eq!(t, before);
    }

    #[test]
    fn evict_everything_empties_rows_and_compacts_all_stations() {
        let mut t = TripTable::new(vec![10, 20]);
        t.push(0, 1, ts(1, 8)); // Monday
        t.push(1, 0, ts(2, 9)); // Tuesday
        let out = t.evict_before(WindowStart::new(6, 23));
        assert_eq!(out.evicted_rows(), 2);
        assert_eq!(out.evicted_src, vec![10, 20]);
        assert_eq!(out.evicted_dst, vec![20, 10]);
        assert_eq!(out.removed_stations, vec![10, 20]);
        assert_eq!(out.new_to_old, Some(vec![]));
        assert!(t.is_empty());
        assert_eq!(t.station_count(), 0);
    }

    #[test]
    fn evict_compacts_and_matches_from_scratch() {
        // Stations 10, 20, 30; trips touching 20 all expire.
        let mut t = TripTable::new(vec![10, 20, 30]);
        t.push(0, 1, ts(1, 8)); // Monday: 10 -> 20, expires
        t.push_weighted(1, 1, ts(1, 9), 2.0).unwrap(); // Monday: 20 self-loop, expires
        t.push(0, 2, ts(4, 10)); // Thursday: 10 -> 30, survives
        t.push(2, 0, ts(5, 11)); // Friday: 30 -> 10, survives
        let out = t.evict_before(WindowStart::new(3, 0));
        assert_eq!(out.evicted_rows(), 2);
        assert_eq!(out.evicted_src, vec![10, 20]);
        assert_eq!(out.evicted_dst, vec![20, 20]);
        assert_eq!(out.evicted_day, vec![0, 0]);
        assert_eq!(out.evicted_hour, vec![8, 9]);
        assert_eq!(out.evicted_weight, vec![1.0, 2.0]);
        assert_eq!(out.removed_stations, vec![20]);
        assert_eq!(out.new_to_old, Some(vec![0, 2]));
        assert_eq!(out.touched_stations(), vec![10, 20]);
        // From scratch over the surviving station set and rows.
        let mut want = TripTable::new(vec![10, 30]);
        want.push(0, 1, ts(4, 10));
        want.push(1, 0, ts(5, 11));
        assert_eq!(t, want);
    }

    #[test]
    fn pinned_evict_keeps_isolated_stations() {
        let mut t = TripTable::new(vec![10, 20, 30]);
        t.push(0, 1, ts(1, 8)); // expires, leaving 10 and 20 tripless
        t.push(2, 2, ts(6, 12)); // survives
        let out = t.evict_before_pinned(WindowStart::new(3, 0));
        assert_eq!(out.evicted_rows(), 1);
        assert_eq!(out.new_to_old, None);
        assert!(out.removed_stations.is_empty());
        // All three stations keep their dense indices.
        assert_eq!(t.station_ids(), &[10, 20, 30]);
        assert_eq!(t.src(), &[2]);
        assert_eq!(t.dst(), &[2]);
    }

    #[test]
    fn evict_then_append_rebuilds_a_dropped_station() {
        let mut t = TripTable::new(vec![10, 20]);
        t.push(0, 1, ts(1, 8)); // Monday, expires
        t.push(0, 0, ts(5, 9)); // Friday, survives
        let out = t.evict_before(WindowStart::new(2, 0));
        assert_eq!(out.removed_stations, vec![20]);
        assert_eq!(t.station_ids(), &[10]);
        // The batch re-interns the just-evicted station.
        let mut b = TripBatch::new();
        b.push(20, 10, ts(6, 10));
        let append = t.append_batch(&b).unwrap();
        assert_eq!(append.new_stations, vec![20]);
        let mut want = TripTable::new(vec![10, 20]);
        want.push(0, 0, ts(5, 9));
        want.push(1, 0, ts(6, 10));
        assert_eq!(t, want);
    }
}
