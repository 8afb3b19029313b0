//! The §III cleaning pipeline with a per-rule audit trail.
//!
//! The paper removes (quoting the bullet list in §III):
//!
//! 1. locations outside Dublin, and rentals that started or ended at them;
//! 2. locations that are not on land, and associated rentals;
//! 3. locations missing latitude or longitude, and associated rentals;
//! 4. rentals that do not report a rental or return location id;
//! 5. rentals whose rental/return location id is not in the `Location` table;
//! 6. location ids in the `Location` table that no rental references.
//!
//! Fixed stations whose recorded position falls foul of rules 1–3 are also
//! dropped (this is how the paper's station count goes from 95 to 92).
//!
//! The pipeline records how many rows each rule removed so that Table I
//! (original vs cleaned counts) can be reproduced and audited.

use crate::schema::{CleanDataset, Location, LocationId, RawDataset, Rental, Station};
use crate::synth::CityTrip;
use crate::trips::{StationNodeId, TripTable};
use moby_geo::{dublin_land_mask, GeoPoint};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};

/// Why a location row was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LocationDefect {
    /// Outside the Dublin service area.
    OutsideDublin,
    /// Inside the service area but not on land (e.g. in Dublin Bay).
    NotOnLand,
    /// Latitude or longitude missing.
    MissingCoordinates,
    /// Coordinates present but not parseable as a valid lat/lon pair.
    InvalidCoordinates,
    /// Never referenced by any (surviving) rental.
    Unreferenced,
}

/// Why a rental row was removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RentalDefect {
    /// Rental or return location id missing.
    MissingLocationRef,
    /// Rental or return location id not present in the `Location` table.
    DanglingLocationRef,
    /// Rental touches a location that was itself removed (rules 1–3).
    TouchesRemovedLocation,
}

/// Per-rule counts of removed rows, plus the headline before/after numbers.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CleaningReport {
    /// Original number of stations.
    pub stations_before: usize,
    /// Stations surviving cleaning.
    pub stations_after: usize,
    /// Original number of location rows.
    pub locations_before: usize,
    /// Location rows surviving cleaning.
    pub locations_after: usize,
    /// Original number of rental rows.
    pub rentals_before: usize,
    /// Rental rows surviving cleaning.
    pub rentals_after: usize,
    /// Locations removed, by defect.
    pub location_defects: HashMap<String, usize>,
    /// Rentals removed, by defect.
    pub rental_defects: HashMap<String, usize>,
}

impl CleaningReport {
    /// Total number of location rows removed.
    pub fn total_locations_removed(&self) -> usize {
        self.locations_before - self.locations_after
    }

    /// Total number of rental rows removed.
    pub fn total_rentals_removed(&self) -> usize {
        self.rentals_before - self.rentals_after
    }

    /// Total number of stations removed.
    pub fn total_stations_removed(&self) -> usize {
        self.stations_before - self.stations_after
    }

    fn bump_location(&mut self, defect: LocationDefect) {
        *self
            .location_defects
            .entry(format!("{defect:?}"))
            .or_insert(0) += 1;
    }

    fn bump_rental(&mut self, defect: RentalDefect) {
        *self
            .rental_defects
            .entry(format!("{defect:?}"))
            .or_insert(0) += 1;
    }
}

/// The result of running the cleaning pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleaningOutcome {
    /// The cleaned dataset.
    pub dataset: CleanDataset,
    /// The audit trail.
    pub report: CleaningReport,
}

/// Run the full §III cleaning pipeline over a raw dataset.
pub fn clean_dataset(raw: &RawDataset) -> CleaningOutcome {
    let mask = dublin_land_mask();
    let mut report = CleaningReport {
        stations_before: raw.stations.len(),
        locations_before: raw.locations.len(),
        rentals_before: raw.rentals.len(),
        ..Default::default()
    };

    // --- Stations: drop those with implausible positions (rules 1–2). ---
    let stations: Vec<Station> = raw
        .stations
        .iter()
        .filter(|s| mask.on_land(s.position))
        .cloned()
        .collect();

    // --- Locations: rules 1–3. ---
    let mut valid_locations: HashMap<LocationId, Location> = HashMap::new();
    let mut removed_locations: HashSet<LocationId> = HashSet::new();
    for loc in &raw.locations {
        let defect = match (loc.lat, loc.lon) {
            (None, _) | (_, None) => Some(LocationDefect::MissingCoordinates),
            (Some(lat), Some(lon)) => match GeoPoint::new(lat, lon) {
                Err(_) => Some(LocationDefect::InvalidCoordinates),
                Ok(p) => {
                    if !mask.in_service_area(p) {
                        Some(LocationDefect::OutsideDublin)
                    } else if !mask.on_land(p) {
                        Some(LocationDefect::NotOnLand)
                    } else {
                        None
                    }
                }
            },
        };
        match defect {
            Some(d) => {
                report.bump_location(d);
                removed_locations.insert(loc.id);
            }
            None => {
                let p = GeoPoint::new(loc.lat.expect("checked"), loc.lon.expect("checked"))
                    .expect("checked valid");
                valid_locations.insert(
                    loc.id,
                    Location {
                        id: loc.id,
                        position: p,
                        station_id: loc.station_id,
                    },
                );
            }
        }
    }

    // --- Rentals: rules 4–5 plus propagation of removed locations. ---
    let mut rentals: Vec<Rental> = Vec::with_capacity(raw.rentals.len());
    for r in &raw.rentals {
        let (Some(origin), Some(dest)) = (r.rental_location_id, r.return_location_id) else {
            report.bump_rental(RentalDefect::MissingLocationRef);
            continue;
        };
        // Distinguish "location removed by rules 1–3" from "never existed".
        let origin_removed = removed_locations.contains(&origin);
        let dest_removed = removed_locations.contains(&dest);
        if origin_removed || dest_removed {
            report.bump_rental(RentalDefect::TouchesRemovedLocation);
            continue;
        }
        if !valid_locations.contains_key(&origin) || !valid_locations.contains_key(&dest) {
            report.bump_rental(RentalDefect::DanglingLocationRef);
            continue;
        }
        rentals.push(Rental {
            id: r.id,
            bike_id: r.bike_id,
            start_time: r.start_time,
            end_time: r.end_time,
            rental_location_id: origin,
            return_location_id: dest,
        });
    }

    // --- Rule 6: drop locations no surviving rental references. ---
    let referenced: HashSet<LocationId> = rentals
        .iter()
        .flat_map(|r| [r.rental_location_id, r.return_location_id])
        .collect();
    let mut locations: Vec<Location> = Vec::with_capacity(referenced.len());
    let mut ids: Vec<LocationId> = valid_locations.keys().copied().collect();
    ids.sort_unstable();
    for id in ids {
        if referenced.contains(&id) {
            locations.push(valid_locations[&id].clone());
        } else {
            report.bump_location(LocationDefect::Unreferenced);
        }
    }

    report.stations_after = stations.len();
    report.locations_after = locations.len();
    report.rentals_after = rentals.len();

    CleaningOutcome {
        dataset: CleanDataset {
            stations,
            locations,
            rentals,
        },
        report,
    }
}

/// Audit counts of the streaming trip cleaner
/// ([`clean_trip_stream`]) — the city-scale analogue of
/// [`CleaningReport`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StreamCleanReport {
    /// Rows the stream yielded.
    pub rows_seen: usize,
    /// Rows that survived into the trip table.
    pub rows_kept: usize,
    /// Rows dropped because an endpoint was not in the station table
    /// (the streaming counterpart of rule 5, *dangling reference*).
    pub unknown_endpoint: usize,
}

/// Clean a stream of raw city trips straight into a columnar
/// [`TripTable`] — the streaming counterpart of [`clean_dataset`] for
/// city-scale feeds.
///
/// Each row is validated as it arrives (both endpoints must intern
/// against the sorted station table — a binary search, no hash map) and
/// either pushed into the table or counted as dropped; no row-of-structs
/// record ever materialises outside the iterator, so peak memory is the
/// columnar table itself (pre-reserved from `rows_hint`, the generator's
/// row-count hint) plus O(1) per row. Temporal keys derive at push time
/// exactly like every other table build path, keeping the result
/// indistinguishable from a batch-built table over the same survivors.
pub fn clean_trip_stream<I>(
    station_ids: Vec<StationNodeId>,
    rows_hint: usize,
    stream: I,
) -> (TripTable, StreamCleanReport)
where
    I: IntoIterator<Item = CityTrip>,
{
    let mut table = TripTable::with_capacity(station_ids, rows_hint);
    let mut report = StreamCleanReport::default();
    for trip in stream {
        report.rows_seen += 1;
        let (Some(src), Some(dst)) = (table.station_index(trip.src), table.station_index(trip.dst))
        else {
            report.unknown_endpoint += 1;
            continue;
        };
        table.push(src, dst, trip.start);
        report.rows_kept += 1;
    }
    (table, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{RawLocation, RawRental};
    use crate::timeparse::Timestamp;

    fn ts(h: u32) -> Timestamp {
        Timestamp::from_ymd_hms(2020, 6, 1, h, 0, 0).unwrap()
    }

    fn station(id: u64, lat: f64, lon: f64) -> Station {
        Station {
            id,
            name: format!("S{id}"),
            position: GeoPoint::new(lat, lon).unwrap(),
        }
    }

    fn loc(id: u64, lat: f64, lon: f64) -> RawLocation {
        RawLocation {
            id,
            lat: Some(lat),
            lon: Some(lon),
            station_id: None,
        }
    }

    fn rental(id: u64, from: Option<u64>, to: Option<u64>) -> RawRental {
        RawRental {
            id,
            bike_id: 1,
            start_time: ts(8),
            end_time: ts(9),
            rental_location_id: from,
            return_location_id: to,
        }
    }

    /// A raw dataset exercising every cleaning rule exactly once.
    fn dirty_dataset() -> RawDataset {
        RawDataset {
            stations: vec![
                station(1, 53.3498, -6.2603), // fine (city centre)
                station(2, 51.8985, -8.4756), // Cork: outside Dublin
                station(3, 53.335, -6.13),    // Dublin Bay: not on land
            ],
            locations: vec![
                loc(10, 53.3498, -6.2603), // fine
                loc(11, 53.3400, -6.2500), // fine
                loc(12, 51.8985, -8.4756), // outside Dublin
                loc(13, 53.335, -6.13),    // in the bay
                RawLocation {
                    id: 14,
                    lat: None,
                    lon: Some(-6.2),
                    station_id: None,
                }, // missing lat
                loc(15, 53.3450, -6.2700), // will be unreferenced
            ],
            rentals: vec![
                rental(100, Some(10), Some(11)),  // fine
                rental(101, Some(10), Some(12)),  // touches out-of-Dublin location
                rental(102, Some(13), Some(11)),  // touches bay location
                rental(103, Some(14), Some(11)),  // touches missing-coords location
                rental(104, None, Some(11)),      // missing origin ref
                rental(105, Some(10), Some(999)), // dangling ref
                rental(106, Some(11), Some(10)),  // fine
            ],
        }
    }

    #[test]
    fn headline_counts() {
        let out = clean_dataset(&dirty_dataset());
        assert_eq!(out.report.stations_before, 3);
        assert_eq!(out.report.stations_after, 1);
        assert_eq!(out.report.locations_before, 6);
        // Surviving locations: 10, 11 (15 unreferenced, 12/13/14 defective).
        assert_eq!(out.report.locations_after, 2);
        assert_eq!(out.report.rentals_before, 7);
        assert_eq!(out.report.rentals_after, 2);
        assert_eq!(out.dataset.rentals.len(), 2);
        assert_eq!(out.dataset.locations.len(), 2);
    }

    #[test]
    fn per_rule_accounting() {
        let out = clean_dataset(&dirty_dataset());
        let l = &out.report.location_defects;
        assert_eq!(l.get("OutsideDublin"), Some(&1));
        assert_eq!(l.get("NotOnLand"), Some(&1));
        assert_eq!(l.get("MissingCoordinates"), Some(&1));
        assert_eq!(l.get("Unreferenced"), Some(&1));
        let r = &out.report.rental_defects;
        assert_eq!(r.get("TouchesRemovedLocation"), Some(&3));
        assert_eq!(r.get("MissingLocationRef"), Some(&1));
        assert_eq!(r.get("DanglingLocationRef"), Some(&1));
        assert_eq!(out.report.total_rentals_removed(), 5);
        assert_eq!(out.report.total_locations_removed(), 4);
        assert_eq!(out.report.total_stations_removed(), 2);
    }

    #[test]
    fn surviving_rentals_reference_surviving_locations() {
        let out = clean_dataset(&dirty_dataset());
        let ids: HashSet<u64> = out.dataset.locations.iter().map(|l| l.id).collect();
        for r in &out.dataset.rentals {
            assert!(ids.contains(&r.rental_location_id));
            assert!(ids.contains(&r.return_location_id));
        }
    }

    #[test]
    fn clean_dataset_is_idempotent_on_clean_input() {
        let out1 = clean_dataset(&dirty_dataset());
        // Re-wrap the cleaned data as raw and clean again: nothing changes.
        let raw2 = RawDataset {
            stations: out1.dataset.stations.clone(),
            locations: out1
                .dataset
                .locations
                .iter()
                .map(|l| RawLocation {
                    id: l.id,
                    lat: Some(l.position.lat()),
                    lon: Some(l.position.lon()),
                    station_id: l.station_id,
                })
                .collect(),
            rentals: out1
                .dataset
                .rentals
                .iter()
                .map(|r| RawRental {
                    id: r.id,
                    bike_id: r.bike_id,
                    start_time: r.start_time,
                    end_time: r.end_time,
                    rental_location_id: Some(r.rental_location_id),
                    return_location_id: Some(r.return_location_id),
                })
                .collect(),
        };
        let out2 = clean_dataset(&raw2);
        assert_eq!(out2.report.total_rentals_removed(), 0);
        assert_eq!(out2.report.total_locations_removed(), 0);
        assert_eq!(out2.report.total_stations_removed(), 0);
        assert_eq!(out2.dataset.rentals.len(), out1.dataset.rentals.len());
    }

    #[test]
    fn invalid_coordinates_are_their_own_defect() {
        let raw = RawDataset {
            stations: vec![station(1, 53.3498, -6.2603)],
            locations: vec![
                loc(10, 53.3498, -6.2603),
                RawLocation {
                    id: 11,
                    lat: Some(123.0),
                    lon: Some(-6.2),
                    station_id: None,
                },
            ],
            rentals: vec![rental(1, Some(10), Some(10))],
        };
        let out = clean_dataset(&raw);
        assert_eq!(
            out.report.location_defects.get("InvalidCoordinates"),
            Some(&1)
        );
        assert_eq!(out.dataset.locations.len(), 1);
    }

    #[test]
    fn empty_dataset_cleans_to_empty() {
        let out = clean_dataset(&RawDataset::default());
        assert_eq!(out.dataset.rentals.len(), 0);
        assert_eq!(out.dataset.locations.len(), 0);
        assert_eq!(out.report.total_rentals_removed(), 0);
    }

    #[test]
    fn stream_cleaner_drops_exactly_the_unknown_endpoints() {
        let t = |h| Timestamp::from_ymd_hms(2021, 6, 1, h, 0, 0).unwrap();
        let rows = vec![
            CityTrip {
                src: 1,
                dst: 2,
                start: t(8),
            },
            CityTrip {
                src: 0,
                dst: 2,
                start: t(9),
            }, // below id space
            CityTrip {
                src: 2,
                dst: 99,
                start: t(10),
            }, // above id space
            CityTrip {
                src: 3,
                dst: 1,
                start: t(11),
            },
        ];
        let (table, report) = clean_trip_stream(vec![1, 2, 3], rows.len(), rows);
        assert_eq!(report.rows_seen, 4);
        assert_eq!(report.rows_kept, 2);
        assert_eq!(report.unknown_endpoint, 2);
        assert_eq!(table.len(), 2);
        let edges: Vec<_> = table.station_edges().collect();
        assert_eq!(edges, vec![(1, 2, 1.0), (3, 1, 1.0)]);
    }

    #[test]
    fn stream_cleaner_matches_city_dirty_count() {
        let cfg = crate::synth::CityConfig {
            seed: 11,
            stations: 256,
            zones: 8,
            trips: 5_000,
            dirty_per_10k: 300,
            within_zone_prob: 0.6,
            days: 7,
        };
        let stations = cfg.station_ids();
        let (table, report) = clean_trip_stream(
            stations,
            cfg.trips as usize,
            crate::synth::city_trip_stream(&cfg),
        );
        assert_eq!(report.rows_seen, cfg.trips as usize);
        assert_eq!(report.rows_kept + report.unknown_endpoint, report.rows_seen);
        assert!(report.unknown_endpoint > 0, "dirty rows should appear");
        assert_eq!(table.len(), report.rows_kept);
        // Every surviving endpoint interns against the station table.
        for (s, d, _) in table.station_edges() {
            assert!((1..=u64::from(cfg.stations)).contains(&s));
            assert!((1..=u64::from(cfg.stations)).contains(&d));
        }
    }
}
