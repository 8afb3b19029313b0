//! Typed records mirroring the Moby Bikes `Rental` and `Location` tables.
//!
//! Two tiers of types exist deliberately:
//!
//! * **Raw** records ([`RawLocation`], [`RawRental`]) model the tables as
//!   they arrive, defects included — missing coordinates, dangling
//!   references, out-of-area points. These are what the cleaning pipeline
//!   consumes.
//! * **Clean** records ([`Location`], [`Rental`]) carry the invariants the
//!   analysis relies on (validated coordinates, resolved references) and are
//!   what the graph-construction pipeline consumes.

use crate::timeparse::Timestamp;
use moby_geo::GeoPoint;
use serde::{Deserialize, Serialize};

/// Identifier of a fixed charging station.
pub type StationId = u64;
/// Identifier of a rental/return location (raw GPS fix grouping).
pub type LocationId = u64;
/// Identifier of a rental (trip).
pub type RentalId = u64;

/// A fixed charging station — one of the 92 usable "immovable" locations the
/// paper treats as pre-existing network nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Station {
    /// Stable identifier.
    pub id: StationId,
    /// Human-readable name.
    pub name: String,
    /// Geographic position.
    pub position: GeoPoint,
}

/// A raw row from the `Location` table. Coordinates may be missing or
/// invalid; nothing has been checked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawLocation {
    /// Stable identifier referenced by rentals.
    pub id: LocationId,
    /// Latitude in degrees, if recorded.
    pub lat: Option<f64>,
    /// Longitude in degrees, if recorded.
    pub lon: Option<f64>,
    /// The fixed station this location corresponds to, when the bike was
    /// collected from / returned to a charging station.
    pub station_id: Option<StationId>,
}

/// A raw row from the `Rental` table. References may dangle; nothing has
/// been checked.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawRental {
    /// Stable identifier.
    pub id: RentalId,
    /// Bike identifier.
    pub bike_id: u32,
    /// Rental (trip start) time.
    pub start_time: Timestamp,
    /// Return (trip end) time.
    pub end_time: Timestamp,
    /// Location the bike was rented from, if recorded.
    pub rental_location_id: Option<LocationId>,
    /// Location the bike was returned to, if recorded.
    pub return_location_id: Option<LocationId>,
}

/// A validated location: coordinates present and inside the service area.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Location {
    /// Stable identifier referenced by rentals.
    pub id: LocationId,
    /// Validated geographic position.
    pub position: GeoPoint,
    /// The fixed station this location corresponds to, if any.
    pub station_id: Option<StationId>,
}

/// A validated rental: both endpoints resolve to validated locations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Rental {
    /// Stable identifier.
    pub id: RentalId,
    /// Bike identifier.
    pub bike_id: u32,
    /// Rental (trip start) time.
    pub start_time: Timestamp,
    /// Return (trip end) time.
    pub end_time: Timestamp,
    /// Location the bike was rented from.
    pub rental_location_id: LocationId,
    /// Location the bike was returned to.
    pub return_location_id: LocationId,
}

/// A raw dataset: the three tables exactly as ingested.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RawDataset {
    /// Fixed charging stations (the paper starts with 95).
    pub stations: Vec<Station>,
    /// Raw `Location` rows.
    pub locations: Vec<RawLocation>,
    /// Raw `Rental` rows.
    pub rentals: Vec<RawRental>,
}

/// A cleaned dataset: every record satisfies the paper's §III invariants.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CleanDataset {
    /// Usable fixed stations (the paper ends with 92).
    pub stations: Vec<Station>,
    /// Validated locations, all referenced by at least one rental.
    pub locations: Vec<Location>,
    /// Validated rentals.
    pub rentals: Vec<Rental>,
}
