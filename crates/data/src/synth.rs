//! A statistically calibrated synthetic Moby Bikes dataset.
//!
//! The real Moby trip data is proprietary, so the reproduction generates a
//! synthetic dataset whose *marginals* match what the paper reports and
//! whose structure exercises every step of the pipeline:
//!
//! * ~95 fixed stations of which 3 carry defective positions, so the
//!   cleaning pipeline ends with 92 usable stations (Table I);
//! * ≈62 k rentals across Jan 2020 – Sep 2021, of which ≈450 carry the
//!   defects listed in §III (missing references, dangling references,
//!   trips touching invalid locations);
//! * ≈14 k distinct rental/return locations, dense around demand hotspots
//!   and thin elsewhere, so hierarchical clustering has realistic density
//!   contrasts to work with;
//! * **regional structure**: zones are grouped into three broad regions
//!   (centre/north, southside, western suburbs) and most trips stay within
//!   their region — the paper's GBasic communities are exactly such largely
//!   self-contained regions (~74 % of trips internal);
//! * **temporal structure**: within each region the zones differ in
//!   behaviour (weekday commuter peaks vs weekend/midday leisure peaks), so
//!   finer temporal granularity reveals finer community structure, the
//!   trend behind the paper's `GDay`/`GHour` results;
//! * **usage skew**: station popularity within a zone is heavy-tailed, so a
//!   handful of fixed stations are barely used — exactly why the paper's
//!   Rule 3 threshold ("minimum degree of pre-existing stations") is low
//!   enough for strong candidates to clear it;
//! * **demand hotspots without stations**: part of the dockless demand
//!   concentrates at hotspots more than 250 m from any fixed station —
//!   these are the locations Algorithm 1 promotes to new stations.
//!
//! The generator is fully deterministic given [`SynthConfig::seed`].

use crate::schema::{RawDataset, RawLocation, RawRental, Station};
use crate::timeparse::{Timestamp, Weekday};
use moby_geo::{destination_point, GeoPoint};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Broad travel behaviour of a zone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ZoneProfile {
    /// Weekday commuting dominates (morning / evening peaks).
    Commuter,
    /// Weekend leisure dominates (midday peak, Saturday/Sunday heavy).
    Leisure,
    /// A blend of both.
    Mixed,
}

/// A travel zone: a centre point, a scatter radius, a behavioural profile
/// and the broad region it belongs to. Stations and dockless locations are
/// generated around zone centres; trips mostly stay within their region.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Zone {
    /// Short name, used for diagnostics.
    pub name: String,
    /// Zone centre.
    pub centre: GeoPoint,
    /// Scatter radius in metres for stations and locations.
    pub radius_m: f64,
    /// Behavioural profile.
    pub profile: ZoneProfile,
    /// Relative share of total trips originating here.
    pub popularity: f64,
    /// Number of fixed stations to place in the zone.
    pub stations: usize,
    /// Region index; trips overwhelmingly stay within their region.
    pub region: usize,
}

#[allow(clippy::too_many_arguments)]
fn zone(
    name: &str,
    lat: f64,
    lon: f64,
    radius_m: f64,
    profile: ZoneProfile,
    popularity: f64,
    stations: usize,
    region: usize,
) -> Zone {
    Zone {
        name: name.to_owned(),
        centre: GeoPoint::new(lat, lon).expect("static zone centre is valid"),
        radius_m,
        profile,
        popularity,
        stations,
        region,
    }
}

/// The default Dublin zone layout used by the generator: 9 zones, 92 good
/// stations, grouped into 3 regions that mirror the paper's GBasic
/// communities (centre + northside, southside, western suburbs / park).
pub fn dublin_zones() -> Vec<Zone> {
    vec![
        // Region 0 — city centre and northside (the paper's "green").
        zone(
            "City Centre North",
            53.3525,
            -6.2608,
            900.0,
            ZoneProfile::Mixed,
            0.19,
            16,
            0,
        ),
        zone(
            "City Centre South",
            53.3405,
            -6.2599,
            900.0,
            ZoneProfile::Mixed,
            0.18,
            15,
            0,
        ),
        zone(
            "Docklands",
            53.3440,
            -6.2370,
            800.0,
            ZoneProfile::Commuter,
            0.13,
            11,
            0,
        ),
        zone(
            "North Suburbs",
            53.3720,
            -6.2530,
            1_300.0,
            ZoneProfile::Commuter,
            0.08,
            9,
            0,
        ),
        // Region 1 — southside (the paper's "blue").
        zone(
            "Ringsend",
            53.3330,
            -6.2220,
            900.0,
            ZoneProfile::Leisure,
            0.06,
            8,
            1,
        ),
        zone(
            "South Suburbs",
            53.3260,
            -6.2650,
            1_200.0,
            ZoneProfile::Commuter,
            0.10,
            9,
            1,
        ),
        zone(
            "Dun Laoghaire",
            53.2945,
            -6.1336,
            1_500.0,
            ZoneProfile::Leisure,
            0.09,
            9,
            1,
        ),
        // Region 2 — western suburbs and the Phoenix Park (the "orange").
        zone(
            "Phoenix Park",
            53.3561,
            -6.3298,
            1_200.0,
            ZoneProfile::Leisure,
            0.09,
            7,
            2,
        ),
        zone(
            "West Suburbs",
            53.3420,
            -6.3080,
            1_200.0,
            ZoneProfile::Commuter,
            0.08,
            8,
            2,
        ),
    ]
}

/// Configuration of the synthetic generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SynthConfig {
    /// RNG seed; two runs with the same config are identical.
    pub seed: u64,
    /// Zone layout.
    pub zones: Vec<Zone>,
    /// Number of *clean* rentals to generate (dirty rentals are added on
    /// top, see [`SynthConfig::dirty_rentals`]).
    pub clean_rentals: usize,
    /// Approximate number of distinct dockless locations to use.
    pub dockless_locations: usize,
    /// Number of defective rentals to inject (missing refs, dangling refs,
    /// trips touching invalid locations).
    pub dirty_rentals: usize,
    /// Number of defective locations to inject (outside Dublin, in the bay,
    /// missing coordinates, unreferenced).
    pub dirty_locations: usize,
    /// Number of defective stations to inject (positions failing cleaning).
    pub dirty_stations: usize,
    /// First day of the observation window.
    pub start: Timestamp,
    /// Last day of the observation window.
    pub end: Timestamp,
    /// Fleet size (bike ids are 1..=n_bikes).
    pub n_bikes: u32,
    /// Probability that a trip endpoint is exactly at a fixed station
    /// (users are financially incentivised to return bikes to stations).
    pub station_endpoint_prob: f64,
    /// Probability that a trip stays within its origin zone.
    pub within_zone_prob: f64,
    /// Probability that a trip that leaves its zone stays within its region.
    pub within_region_prob: f64,
    /// Demand multiplier applied during the strictest COVID restriction
    /// months (April–June 2020, January–March 2021).
    pub covid_damping: f64,
}

impl SynthConfig {
    /// Full paper-scale configuration: ≈62 324 rentals, ≈14 239 locations,
    /// 95 stations, Jan 2020 – Sep 2021.
    pub fn paper_scale() -> Self {
        Self {
            seed: 42,
            zones: dublin_zones(),
            clean_rentals: 61_872,
            dockless_locations: 14_050,
            dirty_rentals: 452,
            dirty_locations: 83,
            dirty_stations: 3,
            start: Timestamp::from_ymd_hms(2020, 1, 3, 0, 0, 0).expect("valid"),
            end: Timestamp::from_ymd_hms(2021, 9, 19, 23, 59, 59).expect("valid"),
            n_bikes: 95,
            station_endpoint_prob: 0.52,
            within_zone_prob: 0.42,
            within_region_prob: 0.33,
            covid_damping: 0.55,
        }
    }

    /// A small, fast configuration for unit and integration tests
    /// (~2 000 rentals, ~600 locations, 4 months).
    pub fn small_test() -> Self {
        Self {
            seed: 7,
            zones: dublin_zones(),
            clean_rentals: 2_000,
            dockless_locations: 600,
            dirty_rentals: 25,
            dirty_locations: 12,
            dirty_stations: 2,
            start: Timestamp::from_ymd_hms(2021, 3, 1, 0, 0, 0).expect("valid"),
            end: Timestamp::from_ymd_hms(2021, 6, 30, 23, 59, 59).expect("valid"),
            n_bikes: 40,
            station_endpoint_prob: 0.52,
            within_zone_prob: 0.42,
            within_region_prob: 0.33,
            covid_damping: 0.8,
        }
    }

    /// Total number of stations this configuration will emit.
    pub fn total_stations(&self) -> usize {
        self.zones.iter().map(|z| z.stations).sum::<usize>() + self.dirty_stations
    }
}

/// Hour-of-day sampling weights for each profile and day type.
fn hour_weights(profile: ZoneProfile, weekday: Weekday) -> [f64; 24] {
    let weekend = weekday.is_weekend();
    let mut w = [0.5f64; 24];
    // Nobody cycles much between 01:00 and 05:00.
    for h in 1..6 {
        w[h] = 0.05;
    }
    match (profile, weekend) {
        (ZoneProfile::Commuter, false) => {
            w[7] = 4.0;
            w[8] = 6.0;
            w[9] = 3.0;
            w[12] = 1.5;
            w[13] = 1.5;
            w[16] = 2.5;
            w[17] = 6.0;
            w[18] = 4.5;
            w[19] = 1.5;
        }
        (ZoneProfile::Commuter, true) => {
            for h in 10..18 {
                w[h] = 1.2;
            }
        }
        (ZoneProfile::Leisure, true) => {
            w[10] = 2.5;
            w[11] = 4.0;
            w[12] = 5.5;
            w[13] = 5.5;
            w[14] = 5.0;
            w[15] = 4.0;
            w[16] = 3.0;
            w[17] = 2.0;
        }
        (ZoneProfile::Leisure, false) => {
            w[11] = 2.0;
            w[12] = 2.8;
            w[13] = 2.8;
            w[14] = 2.2;
            w[17] = 1.5;
        }
        (ZoneProfile::Mixed, false) => {
            w[8] = 3.5;
            w[9] = 2.0;
            w[12] = 2.2;
            w[13] = 2.2;
            w[17] = 3.5;
            w[18] = 2.5;
        }
        (ZoneProfile::Mixed, true) => {
            for h in 11..19 {
                w[h] = 2.2;
            }
        }
    }
    w
}

/// Day-of-week sampling weights for each profile.
fn weekday_weights(profile: ZoneProfile) -> [f64; 7] {
    match profile {
        ZoneProfile::Commuter => [1.3, 1.35, 1.35, 1.3, 1.25, 0.55, 0.5],
        ZoneProfile::Leisure => [0.7, 0.7, 0.75, 0.8, 1.0, 1.9, 1.7],
        ZoneProfile::Mixed => [1.0, 1.0, 1.0, 1.0, 1.1, 1.2, 1.0],
    }
}

/// Sample an index proportional to `weights`.
fn sample_weighted(rng: &mut StdRng, weights: &[f64]) -> usize {
    let total: f64 = weights.iter().sum();
    let mut x = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
    for (i, w) in weights.iter().enumerate() {
        if x < *w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}

/// COVID-era demand multiplier for a given date. The strictest Irish
/// restrictions (Level 5 lockdowns) fell in April–June 2020 and
/// January–March 2021.
fn covid_multiplier(ts: Timestamp, damping: f64) -> f64 {
    let (y, m, _) = ts.ymd();
    match (y, m) {
        (2020, 4..=6) => damping,
        (2021, 1..=3) => damping,
        (2020, 3) | (2020, 7..=8) => 0.5 + 0.5 * damping,
        _ => 1.0,
    }
}

/// A demand hotspot: a point where dockless pickups/drop-offs concentrate.
struct Hotspot {
    centre: GeoPoint,
    zone: usize,
    weight: f64,
    /// Location ids scattered around this hotspot.
    locations: Vec<u64>,
}

/// Generate a raw dataset according to `config`.
///
/// The output intentionally contains the §III defects; run
/// [`crate::clean::clean_dataset`] to obtain the analysis-ready dataset.
pub fn generate(config: &SynthConfig) -> RawDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let zones = &config.zones;
    let n_zones = zones.len();
    let mut next_location_id: u64 = 1;
    let mut next_station_id: u64 = 1;

    // --- Fixed stations, clustered inside their zones, with heavy-tailed
    // --- per-station popularity (some stations are barely used).
    let mut stations: Vec<Station> = Vec::new();
    let mut station_zone: Vec<usize> = Vec::new();
    let mut station_weight: Vec<f64> = Vec::new();
    for (zi, z) in zones.iter().enumerate() {
        for s in 0..z.stations {
            let angle = rng.gen_range(0.0..360.0);
            let dist = z.radius_m * (0.25 + 0.75 * rng.gen::<f64>());
            let pos = destination_point(z.centre, angle, dist);
            stations.push(Station {
                id: next_station_id,
                name: format!("{} #{:02}", z.name, s + 1),
                position: pos,
            });
            station_zone.push(zi);
            // Heavy-tailed usage: u^3 gives a few near-zero-traffic stations
            // per zone, which keeps the Rule 3 threshold (min fixed-station
            // degree) realistically low.
            station_weight.push(0.02 + rng.gen::<f64>().powi(3));
            next_station_id += 1;
        }
    }
    // Defective stations: positions that fail the cleaning rules.
    let bad_station_positions = [
        GeoPoint::new(51.8985, -8.4756).expect("Cork"), // outside Dublin
        GeoPoint::new(53.3350, -6.1300).expect("bay"),  // Dublin Bay
        GeoPoint::new(53.6000, -6.2000).expect("far north"), // outside service area
        GeoPoint::new(52.2593, -7.1101).expect("Waterford"),
    ];
    for i in 0..config.dirty_stations {
        stations.push(Station {
            id: next_station_id,
            name: format!("Decommissioned #{:02}", i + 1),
            position: bad_station_positions[i % bad_station_positions.len()],
        });
        next_station_id += 1;
    }

    // --- Location table: one row per good station, then dockless demand
    // --- hotspots (many deliberately placed away from the stations), then
    // --- defective rows.
    let mut locations: Vec<RawLocation> = Vec::new();
    let mut station_location: Vec<u64> = Vec::new(); // station idx -> location id
    for (si, st) in stations.iter().enumerate() {
        if si >= station_zone.len() {
            break; // defective stations get no location row
        }
        locations.push(RawLocation {
            id: next_location_id,
            lat: Some(st.position.lat()),
            lon: Some(st.position.lon()),
            station_id: Some(st.id),
        });
        station_location.push(next_location_id);
        next_location_id += 1;
    }

    let total_popularity: f64 = zones.iter().map(|z| z.popularity).sum();
    let mut hotspots: Vec<Hotspot> = Vec::new();
    for (zi, z) in zones.iter().enumerate() {
        // Several dockless hotspots per station, plus gap hotspots on the
        // zone fringe (the under-served demand the paper's new stations
        // answer).
        let core_hotspots = z.stations * 3;
        let fringe_hotspots = (z.stations / 2).max(3);
        for h in 0..(core_hotspots + fringe_hotspots) {
            let fringe = h >= core_hotspots; // gap hotspots sit farther out
            let angle = rng.gen_range(0.0..360.0);
            let dist = if fringe {
                z.radius_m * rng.gen_range(0.9..1.5)
            } else {
                z.radius_m * rng.gen::<f64>().powf(0.7)
            };
            hotspots.push(Hotspot {
                centre: destination_point(z.centre, angle, dist),
                zone: zi,
                // Fringe hotspots carry solid demand so their candidates
                // clear the degree threshold, but most dockless volume stays
                // near the existing stations.
                weight: if fringe {
                    rng.gen_range(0.5..1.1)
                } else {
                    0.1 + rng.gen::<f64>().powi(2) * 1.2
                },
                locations: Vec::new(),
            });
        }
    }
    // Scatter dockless locations around hotspots, proportionally to zone
    // popularity and hotspot weight.
    let zone_hotspot_indices: Vec<Vec<usize>> = (0..n_zones)
        .map(|zi| {
            hotspots
                .iter()
                .enumerate()
                .filter(|(_, h)| h.zone == zi)
                .map(|(i, _)| i)
                .collect()
        })
        .collect();
    for (zi, z) in zones.iter().enumerate() {
        let share = z.popularity / total_popularity;
        let count = ((config.dockless_locations as f64) * share).round() as usize;
        let indices = &zone_hotspot_indices[zi];
        let weights: Vec<f64> = indices.iter().map(|&i| hotspots[i].weight).collect();
        for _ in 0..count {
            let hi = indices[sample_weighted(&mut rng, &weights)];
            let angle = rng.gen_range(0.0..360.0);
            // Tight scatter so HAC recovers the hotspot as 1–3 clusters.
            let dist = 80.0 * rng.gen::<f64>().powf(0.8);
            let pos = destination_point(hotspots[hi].centre, angle, dist);
            locations.push(RawLocation {
                id: next_location_id,
                lat: Some(pos.lat()),
                lon: Some(pos.lon()),
                station_id: None,
            });
            hotspots[hi].locations.push(next_location_id);
            next_location_id += 1;
        }
    }

    // Defective locations. A quarter of them are left unreferenced on
    // purpose (rule 6); the rest become endpoints of defective rentals.
    let mut bad_location_ids: Vec<u64> = Vec::new();
    for i in 0..config.dirty_locations {
        let (lat, lon) = match i % 4 {
            0 => (Some(51.8985 + (i as f64) * 1e-3), Some(-8.4756)), // Cork-ish
            1 => (Some(53.3350), Some(-6.1250 - (i as f64) * 1e-4)), // bay
            2 => (None, Some(-6.26)),                                // missing lat
            _ => (Some(53.30 + (i as f64) * 1e-4), Some(-6.27)),     // valid but unreferenced
        };
        locations.push(RawLocation {
            id: next_location_id,
            lat,
            lon,
            station_id: None,
        });
        if i % 4 != 3 {
            bad_location_ids.push(next_location_id);
        }
        next_location_id += 1;
    }

    // Per-zone station index and hotspot lookup used by endpoint sampling.
    let mut stations_by_zone: Vec<Vec<usize>> = vec![Vec::new(); n_zones];
    for (si, &zi) in station_zone.iter().enumerate() {
        stations_by_zone[zi].push(si);
    }
    // Zone-to-zone affinity for cross-region trips (inverse distance).
    let mut affinity = vec![vec![0.0f64; n_zones]; n_zones];
    for i in 0..n_zones {
        for j in 0..n_zones {
            if i == j {
                continue;
            }
            let d = moby_geo::haversine_m(zones[i].centre, zones[j].centre).max(500.0);
            affinity[i][j] = zones[j].popularity / (d / 1000.0);
        }
    }
    // Zones by region, for within-region destination choice.
    let n_regions = zones.iter().map(|z| z.region).max().unwrap_or(0) + 1;
    let zones_by_region: Vec<Vec<usize>> = (0..n_regions)
        .map(|r| (0..n_zones).filter(|&zi| zones[zi].region == r).collect())
        .collect();

    // --- Rentals. ---
    let day_count = ((config.end.unix_seconds() - config.start.unix_seconds()) / 86_400).max(1);
    let zone_weights: Vec<f64> = zones.iter().map(|z| z.popularity).collect();
    let mut rentals: Vec<RawRental> =
        Vec::with_capacity(config.clean_rentals + config.dirty_rentals);
    let mut next_rental_id: u64 = 1;

    let pick_endpoint = |rng: &mut StdRng, zone_idx: usize| -> u64 {
        let use_station = rng.gen::<f64>() < config.station_endpoint_prob;
        let zone_stations = &stations_by_zone[zone_idx];
        if use_station && !zone_stations.is_empty() {
            let weights: Vec<f64> = zone_stations.iter().map(|&si| station_weight[si]).collect();
            let si = zone_stations[sample_weighted(rng, &weights)];
            station_location[si]
        } else {
            let indices = &zone_hotspot_indices[zone_idx];
            let non_empty: Vec<usize> = indices
                .iter()
                .copied()
                .filter(|&i| !hotspots[i].locations.is_empty())
                .collect();
            if non_empty.is_empty() {
                return station_location[zone_stations[0]];
            }
            let weights: Vec<f64> = non_empty.iter().map(|&i| hotspots[i].weight).collect();
            let hi = non_empty[sample_weighted(rng, &weights)];
            // Zipf-flavoured reuse inside the hotspot: squaring the uniform
            // biases towards the head so some spots become very busy.
            let u: f64 = rng.gen::<f64>();
            let locs = &hotspots[hi].locations;
            let idx = ((u * u) * locs.len() as f64) as usize;
            locs[idx.min(locs.len() - 1)]
        }
    };

    let pick_destination_zone = |rng: &mut StdRng, origin_zone: usize| -> usize {
        let roll: f64 = rng.gen();
        if roll < config.within_zone_prob {
            return origin_zone;
        }
        if roll < config.within_zone_prob + config.within_region_prob {
            // Another zone of the same region, weighted by popularity.
            let region = zones[origin_zone].region;
            let others: Vec<usize> = zones_by_region[region]
                .iter()
                .copied()
                .filter(|&zi| zi != origin_zone)
                .collect();
            if others.is_empty() {
                return origin_zone;
            }
            let weights: Vec<f64> = others.iter().map(|&zi| zones[zi].popularity).collect();
            return others[sample_weighted(rng, &weights)];
        }
        // Cross-region trip, weighted by inverse-distance affinity.
        sample_weighted(rng, &affinity[origin_zone])
    };

    let mut generated = 0usize;
    while generated < config.clean_rentals {
        // Pick a day, thinning by the COVID multiplier.
        let day_offset = rng.gen_range(0..day_count);
        let midnight = Timestamp(config.start.unix_seconds() + day_offset * 86_400);
        if rng.gen::<f64>() > covid_multiplier(midnight, config.covid_damping) {
            continue;
        }
        // Origin zone.
        let origin_zone = sample_weighted(&mut rng, &zone_weights);
        let profile = zones[origin_zone].profile;
        // Re-weight the day by the zone's weekday preference (rejection).
        let wd = midnight.weekday();
        let wweights = weekday_weights(profile);
        if rng.gen::<f64>() > wweights[wd.index() as usize] / 2.0 {
            continue;
        }
        // Hour of day.
        let hweights = hour_weights(profile, wd);
        let hour = sample_weighted(&mut rng, &hweights) as u32;
        let minute = rng.gen_range(0..60u32);
        let start_time = midnight.plus_seconds(i64::from(hour) * 3600 + i64::from(minute) * 60);
        // Destination zone.
        let dest_zone = pick_destination_zone(&mut rng, origin_zone);
        let origin_loc = pick_endpoint(&mut rng, origin_zone);
        let dest_loc = pick_endpoint(&mut rng, dest_zone);
        let duration_min = if origin_zone == dest_zone {
            rng.gen_range(5..25)
        } else {
            rng.gen_range(15..55)
        };
        rentals.push(RawRental {
            id: next_rental_id,
            bike_id: rng.gen_range(1..=config.n_bikes),
            start_time,
            end_time: start_time.plus_seconds(i64::from(duration_min) * 60),
            rental_location_id: Some(origin_loc),
            return_location_id: Some(dest_loc),
        });
        next_rental_id += 1;
        generated += 1;
    }

    // Defective rentals.
    for i in 0..config.dirty_rentals {
        let day_offset = rng.gen_range(0..day_count);
        let start_time = Timestamp(config.start.unix_seconds() + day_offset * 86_400)
            .plus_seconds(rng.gen_range(6i64..22) * 3600);
        let good_endpoint = {
            let zi = sample_weighted(&mut rng, &zone_weights);
            pick_endpoint(&mut rng, zi)
        };
        let (from, to) = match i % 4 {
            // Trip touching a defective location.
            0 if !bad_location_ids.is_empty() => (
                Some(bad_location_ids[i % bad_location_ids.len()]),
                Some(good_endpoint),
            ),
            1 if !bad_location_ids.is_empty() => (
                Some(good_endpoint),
                Some(bad_location_ids[(i * 7) % bad_location_ids.len()]),
            ),
            // Missing reference.
            2 => (None, Some(good_endpoint)),
            // Dangling reference.
            _ => (Some(good_endpoint), Some(9_000_000 + i as u64)),
        };
        rentals.push(RawRental {
            id: next_rental_id,
            bike_id: rng.gen_range(1..=config.n_bikes),
            start_time,
            end_time: start_time.plus_seconds(1_200),
            rental_location_id: from,
            return_location_id: to,
        });
        next_rental_id += 1;
    }

    RawDataset {
        stations,
        locations,
        rentals,
    }
}

// ---------------------------------------------------------------------------
// City tier — streaming columnar generation for city-scale graph builds.
// ---------------------------------------------------------------------------

/// Configuration of the **city tier**: a synthetic city one to two orders
/// of magnitude above the paper's Dublin deployment (10k+ stations,
/// millions of trips), built to give the sharded CSR construction path
/// honest numbers at scale.
///
/// Unlike the calibrated [`SynthConfig`] path, city generation never
/// materialises row-of-structs records: [`city_trip_stream`] yields trips
/// one at a time and the streaming cleaner
/// ([`clean_trip_stream`](crate::clean::clean_trip_stream)) pushes the
/// survivors straight into a columnar
/// [`TripTable`](crate::trips::TripTable), so peak memory is the table
/// itself plus O(1) per row. Demand is zone-skewed and heavy-tailed:
/// zones draw trips with Zipf-like popularity and stations within a zone
/// follow a power-law rank distribution, mirroring the usage skew of the
/// real dataset at city scale.
#[derive(Debug, Clone, PartialEq)]
pub struct CityConfig {
    /// RNG seed; two runs with the same config are identical.
    pub seed: u64,
    /// Number of stations (external ids `1..=stations`).
    pub stations: u32,
    /// Number of demand zones; stations split into contiguous id ranges
    /// per zone (which is also what the sharded build partitions by).
    pub zones: u32,
    /// Number of trips to generate (dirty rows are injected *within* this
    /// count, not on top).
    pub trips: u64,
    /// Dirty rows injected per 10 000 trips — rows whose endpoints fall
    /// outside the station id space, removed by the streaming cleaner.
    pub dirty_per_10k: u32,
    /// Probability that a trip stays within its origin zone.
    pub within_zone_prob: f64,
    /// Length of the observation window in days.
    pub days: u32,
}

impl Default for CityConfig {
    fn default() -> CityConfig {
        CityConfig {
            seed: 20_210_601,
            stations: 10_240,
            zones: 64,
            trips: 1_000_000,
            dirty_per_10k: 25,
            within_zone_prob: 0.6,
            days: 28,
        }
    }
}

impl SynthConfig {
    /// The city tier: 10k+ stations with zone-skewed heavy-tailed demand
    /// and 1M+ trips (see [`CityConfig`]). Returned as its own config
    /// type because city generation is streaming/columnar and never
    /// builds a [`RawDataset`].
    pub fn city() -> CityConfig {
        CityConfig::default()
    }
}

impl CityConfig {
    /// The external station ids of the city (`1..=stations`), sorted —
    /// the intern table for the downstream [`TripTable`](crate::trips::TripTable).
    pub fn station_ids(&self) -> Vec<u64> {
        (1..=self.stations as u64).collect()
    }

    /// First station id (inclusive lower bound of the dense range) owned
    /// by zone `z`, for `z in 0..=zones`.
    fn zone_start(&self, z: u32) -> u32 {
        (self.stations as u64 * z as u64 / self.zones.max(1) as u64) as u32
    }
}

/// One raw generated city trip addressed by external station ids. A
/// small injected fraction carries endpoints outside the city's id space
/// (the dirty rows the streaming cleaner removes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CityTrip {
    /// Origin station id (`1..=stations` when clean).
    pub src: u64,
    /// Destination station id (`1..=stations` when clean).
    pub dst: u64,
    /// Trip start time.
    pub start: Timestamp,
}

/// A deterministic streaming iterator of [`CityTrip`]s — the city tier's
/// generator. Yields exactly [`CityConfig::trips`] rows; nothing is
/// buffered, so generation is O(1) memory regardless of the trip count.
pub struct CityTripStream {
    rng: StdRng,
    remaining: u64,
    cfg: CityConfig,
    /// Cumulative Zipf-like zone popularity (len `zones`, last entry is
    /// the total mass).
    zone_cum: Vec<f64>,
    /// Window start (midnight of day 0).
    window_start: Timestamp,
    /// Probability that a generated row is dirty.
    dirty_prob: f64,
}

/// Build the city trip stream for a configuration. See
/// [`CityConfig`] for the demand model and
/// [`clean_trip_stream`](crate::clean::clean_trip_stream) for the
/// streaming consumer.
pub fn city_trip_stream(cfg: &CityConfig) -> CityTripStream {
    assert!(cfg.stations > 0, "city needs stations");
    assert!(cfg.zones > 0 && cfg.zones <= cfg.stations, "bad zone count");
    // Zipf-like zone mass: zone z draws proportional to (z + 1)^-0.85,
    // so a handful of zones dominate demand (the heavy-tailed skew the
    // balanced shard boundaries have to absorb).
    let mut zone_cum = Vec::with_capacity(cfg.zones as usize);
    let mut acc = 0.0f64;
    for z in 0..cfg.zones {
        acc += 1.0 / ((z + 1) as f64).powf(0.85);
        zone_cum.push(acc);
    }
    CityTripStream {
        rng: StdRng::seed_from_u64(cfg.seed),
        remaining: cfg.trips,
        zone_cum,
        window_start: Timestamp::from_ymd_hms(2021, 6, 1, 0, 0, 0).expect("valid"),
        dirty_prob: cfg.dirty_per_10k as f64 / 10_000.0,
        cfg: cfg.clone(),
    }
}

impl CityTripStream {
    /// Sample a zone index proportional to the Zipf mass.
    fn sample_zone(&mut self) -> u32 {
        let total = *self.zone_cum.last().expect("non-empty");
        let x = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        self.zone_cum.partition_point(|&c| c <= x) as u32
    }

    /// Sample a station (external id) within a zone with power-law rank
    /// popularity: low ranks absorb most of the demand.
    fn sample_station(&mut self, zone: u32) -> u64 {
        let lo = self.cfg.zone_start(zone);
        let hi = self.cfg.zone_start(zone + 1).max(lo + 1);
        let size = (hi - lo) as f64;
        let u: f64 = self.rng.gen::<f64>();
        let rank = (size * u.powf(2.5)) as u32;
        (lo + rank.min(hi - lo - 1)) as u64 + 1
    }
}

impl Iterator for CityTripStream {
    type Item = CityTrip;

    fn next(&mut self) -> Option<CityTrip> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;

        let src_zone = self.sample_zone();
        let dst_zone = if self.rng.gen::<f64>() < self.cfg.within_zone_prob {
            src_zone
        } else {
            self.sample_zone()
        };
        let mut src = self.sample_station(src_zone);
        let mut dst = self.sample_station(dst_zone);

        // Temporal profile varies by origin zone so finer granularities
        // see structure, like the calibrated generator.
        let profile = match src_zone % 3 {
            0 => ZoneProfile::Commuter,
            1 => ZoneProfile::Mixed,
            _ => ZoneProfile::Leisure,
        };
        let day_offset = self.rng.gen_range(0..self.cfg.days.max(1)) as i64;
        let midnight = self.window_start.plus_seconds(day_offset * 86_400);
        let hour = sample_weighted(&mut self.rng, &hour_weights(profile, midnight.weekday()));
        let minute = self.rng.gen_range(0..60u32) as i64;
        let start = midnight.plus_seconds(hour as i64 * 3600 + minute * 60);

        // Dirty injection: endpoints outside the 1..=stations id space,
        // which the streaming cleaner must drop.
        if self.rng.gen::<f64>() < self.dirty_prob {
            let bogus = self.cfg.stations as u64 + 1 + self.rng.gen_range(0..1000u32) as u64;
            match self.rng.gen_range(0..3u32) {
                0 => src = bogus,
                1 => dst = bogus,
                _ => src = 0, // below the id space
            }
        }
        Some(CityTrip { src, dst, start })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining as usize;
        (n, Some(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_dataset;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn small_config_counts() {
        let cfg = SynthConfig::small_test();
        let ds = generate(&cfg);
        assert_eq!(ds.rentals.len(), cfg.clean_rentals + cfg.dirty_rentals);
        assert_eq!(ds.stations.len(), cfg.total_stations());
        // Location table: one per good station + dockless pool + dirty rows.
        assert!(ds.locations.len() > cfg.dockless_locations);
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SynthConfig::small_test();
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a, b);
        let mut cfg2 = cfg.clone();
        cfg2.seed = 8;
        let c = generate(&cfg2);
        assert_ne!(a, c);
    }

    #[test]
    fn cleaning_removes_expected_magnitudes() {
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        // All injected dirty rentals disappear; a handful of clean rentals
        // can additionally be lost to coastal locations generated in the
        // bay (the same defect the real data has).
        let removed = out.report.total_rentals_removed();
        assert!(
            removed >= cfg.dirty_rentals,
            "removed {removed}, injected {}",
            cfg.dirty_rentals
        );
        assert!(
            removed <= cfg.dirty_rentals + cfg.clean_rentals / 10,
            "removed {removed} is implausibly high"
        );
        // The defective stations disappear.
        assert_eq!(out.report.total_stations_removed(), cfg.dirty_stations);
        // Some locations disappear (defective + unreferenced pool entries).
        assert!(out.report.total_locations_removed() >= cfg.dirty_locations / 2);
    }

    #[test]
    fn trips_reference_known_locations() {
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let ids: HashSet<u64> = out.dataset.locations.iter().map(|l| l.id).collect();
        for r in &out.dataset.rentals {
            assert!(ids.contains(&r.rental_location_id));
            assert!(ids.contains(&r.return_location_id));
        }
    }

    #[test]
    fn timestamps_are_within_window() {
        let cfg = SynthConfig::small_test();
        let ds = generate(&cfg);
        for r in &ds.rentals {
            assert!(
                r.start_time >= cfg.start,
                "{} < {}",
                r.start_time,
                cfg.start
            );
            assert!(r.start_time.unix_seconds() <= cfg.end.unix_seconds() + 86_400);
            assert!(r.end_time > r.start_time);
        }
    }

    /// Nearest zone centre for a location (test helper).
    fn nearest_zone(zones: &[Zone], p: GeoPoint) -> usize {
        zones
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                moby_geo::haversine_m(p, a.centre)
                    .partial_cmp(&moby_geo::haversine_m(p, b.centre))
                    .unwrap()
            })
            .map(|(i, _)| i)
            .unwrap()
    }

    #[test]
    fn commuter_zones_peak_on_weekdays() {
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let ds = &out.dataset;
        let zones = dublin_zones();
        let loc_zone: HashMap<u64, usize> = ds
            .locations
            .iter()
            .map(|l| (l.id, nearest_zone(&zones, l.position)))
            .collect();
        let mut commuter = [0usize; 2]; // [weekday, weekend]
        let mut leisure = [0usize; 2];
        for r in &ds.rentals {
            let zi = loc_zone[&r.rental_location_id];
            let bucket = usize::from(r.start_time.weekday().is_weekend());
            match zones[zi].profile {
                ZoneProfile::Commuter => commuter[bucket] += 1,
                ZoneProfile::Leisure => leisure[bucket] += 1,
                ZoneProfile::Mixed => {}
            }
        }
        let commuter_rate = (commuter[0] as f64 / 5.0) / (commuter[1] as f64 / 2.0).max(1e-9);
        let leisure_rate = (leisure[0] as f64 / 5.0) / (leisure[1] as f64 / 2.0).max(1e-9);
        assert!(
            commuter_rate > 1.2,
            "commuter weekday/weekend ratio {commuter_rate}"
        );
        assert!(
            leisure_rate < 1.1,
            "leisure weekday/weekend ratio {leisure_rate}"
        );
    }

    #[test]
    fn most_trips_stay_within_their_region() {
        // The paper's GBasic communities are largely self-contained regions
        // (~74% of trips internal); the generator is calibrated to match.
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let zones = dublin_zones();
        let loc_region: HashMap<u64, usize> = out
            .dataset
            .locations
            .iter()
            .map(|l| (l.id, zones[nearest_zone(&zones, l.position)].region))
            .collect();
        let mut within = 0usize;
        for r in &out.dataset.rentals {
            if loc_region[&r.rental_location_id] == loc_region[&r.return_location_id] {
                within += 1;
            }
        }
        let frac = within as f64 / out.dataset.rentals.len() as f64;
        assert!(
            frac > 0.6 && frac < 0.95,
            "within-region fraction {frac} outside the calibrated band"
        );
    }

    #[test]
    fn station_endpoints_are_common() {
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let station_locs: HashSet<u64> = out
            .dataset
            .locations
            .iter()
            .filter(|l| l.station_id.is_some())
            .map(|l| l.id)
            .collect();
        let at_station = out
            .dataset
            .rentals
            .iter()
            .filter(|r| station_locs.contains(&r.rental_location_id))
            .count();
        let frac = at_station as f64 / out.dataset.rentals.len() as f64;
        assert!(
            frac > 0.35 && frac < 0.75,
            "station endpoint fraction {frac}"
        );
    }

    #[test]
    fn station_usage_is_heavy_tailed() {
        // Some fixed stations must see very little traffic — this is what
        // keeps the paper's Rule 3 threshold low enough to pass.
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let station_loc_ids: HashMap<u64, u64> = out
            .dataset
            .locations
            .iter()
            .filter_map(|l| l.station_id.map(|sid| (l.id, sid)))
            .collect();
        let mut per_station: HashMap<u64, usize> = HashMap::new();
        for s in &out.dataset.stations {
            per_station.insert(s.id, 0);
        }
        for r in &out.dataset.rentals {
            for loc in [r.rental_location_id, r.return_location_id] {
                if let Some(sid) = station_loc_ids.get(&loc) {
                    *per_station.entry(*sid).or_insert(0) += 1;
                }
            }
        }
        let mut counts: Vec<usize> = per_station.values().copied().collect();
        counts.sort_unstable();
        let min = counts[0];
        let max = *counts.last().unwrap();
        assert!(max >= 10, "busiest station too quiet ({max})");
        assert!(
            (min as f64) < (max as f64) * 0.25,
            "station usage not skewed enough (min {min}, max {max})"
        );
    }

    #[test]
    fn some_dockless_demand_sits_far_from_stations() {
        // The fringe hotspots must generate trip endpoints more than 250 m
        // from every fixed station — the candidates Algorithm 1 promotes.
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let out = clean_dataset(&raw);
        let station_positions: Vec<GeoPoint> =
            out.dataset.stations.iter().map(|s| s.position).collect();
        let loc_pos: HashMap<u64, GeoPoint> = out
            .dataset
            .locations
            .iter()
            .map(|l| (l.id, l.position))
            .collect();
        let mut far_endpoints = 0usize;
        let mut total_endpoints = 0usize;
        for r in &out.dataset.rentals {
            for loc in [r.rental_location_id, r.return_location_id] {
                total_endpoints += 1;
                let p = loc_pos[&loc];
                let nearest = station_positions
                    .iter()
                    .map(|sp| moby_geo::haversine_m(p, *sp))
                    .fold(f64::INFINITY, f64::min);
                if nearest > 250.0 {
                    far_endpoints += 1;
                }
            }
        }
        let frac = far_endpoints as f64 / total_endpoints as f64;
        assert!(
            frac > 0.05,
            "expected at least 5% of endpoints far from stations, got {frac:.3}"
        );
    }

    #[test]
    fn covid_multiplier_shape() {
        let lockdown = Timestamp::from_ymd_hms(2020, 5, 1, 0, 0, 0).unwrap();
        let normal = Timestamp::from_ymd_hms(2021, 8, 1, 0, 0, 0).unwrap();
        assert!(covid_multiplier(lockdown, 0.5) < covid_multiplier(normal, 0.5));
        assert_eq!(covid_multiplier(normal, 0.5), 1.0);
    }

    #[test]
    fn hour_weights_have_commuter_peaks() {
        let w = hour_weights(ZoneProfile::Commuter, Weekday::Tuesday);
        assert!(w[8] > w[11]);
        assert!(w[17] > w[14]);
        let l = hour_weights(ZoneProfile::Leisure, Weekday::Saturday);
        assert!(l[13] > l[8]);
    }

    #[test]
    fn zones_cover_three_regions() {
        let zones = dublin_zones();
        let regions: HashSet<usize> = zones.iter().map(|z| z.region).collect();
        assert_eq!(regions.len(), 3);
        // Every region mixes at least two behavioural profiles, so finer
        // temporal granularity has something to split.
        for r in regions {
            let profiles: HashSet<_> = zones
                .iter()
                .filter(|z| z.region == r)
                .map(|z| z.profile)
                .collect();
            assert!(profiles.len() >= 2, "region {r} has a single profile");
        }
    }

    fn small_city() -> CityConfig {
        CityConfig {
            seed: 7,
            stations: 512,
            zones: 16,
            trips: 20_000,
            dirty_per_10k: 200,
            within_zone_prob: 0.6,
            days: 7,
        }
    }

    #[test]
    fn city_stream_is_deterministic_and_sized() {
        let cfg = small_city();
        let a: Vec<CityTrip> = city_trip_stream(&cfg).collect();
        let b: Vec<CityTrip> = city_trip_stream(&cfg).collect();
        assert_eq!(a.len(), cfg.trips as usize);
        assert_eq!(a, b, "same seed must replay bit-identically");
        let stream = city_trip_stream(&cfg);
        assert_eq!(
            stream.size_hint(),
            (cfg.trips as usize, Some(cfg.trips as usize))
        );
    }

    #[test]
    fn city_stream_injects_dirty_rows_and_skews_demand() {
        let cfg = small_city();
        let trips: Vec<CityTrip> = city_trip_stream(&cfg).collect();
        let max_id = u64::from(cfg.stations);
        let dirty = trips
            .iter()
            .filter(|t| t.src == 0 || t.src > max_id || t.dst > max_id)
            .count();
        // Expected rate is 2% here; allow a generous band.
        let expected = trips.len() * usize::try_from(cfg.dirty_per_10k).unwrap() / 10_000;
        assert!(
            dirty > expected / 2 && dirty < expected * 2,
            "dirty rows {dirty} far from expected {expected}"
        );
        // Heavy-tailed demand: the busiest decile of stations should carry
        // well more than a uniform share of clean trip endpoints.
        let mut counts = vec![0u64; cfg.stations as usize + 1];
        for t in trips.iter().filter(|t| t.src >= 1 && t.src <= max_id) {
            counts[t.src as usize] += 1;
        }
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let total: u64 = counts.iter().sum();
        let top_decile: u64 = counts[..cfg.stations as usize / 10].iter().sum();
        assert!(
            top_decile * 10 > total * 3,
            "top decile carries {top_decile}/{total}; demand looks uniform"
        );
    }

    #[test]
    fn city_config_meets_tier_floor() {
        let cfg = SynthConfig::city();
        assert!(cfg.stations >= 10_000);
        assert!(cfg.trips >= 1_000_000);
    }

    #[test]
    fn city_timestamps_stay_inside_window() {
        let cfg = small_city();
        let start = Timestamp::from_ymd_hms(2021, 6, 1, 0, 0, 0).unwrap();
        let end = start.plus_seconds(i64::from(cfg.days) * 86_400);
        for t in city_trip_stream(&cfg) {
            assert!(t.start.unix_seconds() >= start.unix_seconds());
            assert!(t.start.unix_seconds() < end.unix_seconds());
        }
    }
}
