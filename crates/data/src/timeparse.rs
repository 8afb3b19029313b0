//! Minimal civil-time handling.
//!
//! The temporal graphs `GDay` and `GHour` only need two features of a trip's
//! start time: the **day of the week** and the **hour of the day**. Rather
//! than pull in a date-time crate, this module implements the standard
//! days-from-civil / civil-from-days conversion (Howard Hinnant's
//! algorithms) on top of a plain Unix-seconds timestamp.
//!
//! All timestamps are treated as local (Dublin) wall-clock time; the paper's
//! analysis does not require DST awareness because the features are coarse
//! (weekday, hour).

use crate::{DataError, Result};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Days of the week, Monday-first (matching the paper's Fig. 5 ordering).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Weekday {
    /// Monday.
    Monday = 0,
    /// Tuesday.
    Tuesday = 1,
    /// Wednesday.
    Wednesday = 2,
    /// Thursday.
    Thursday = 3,
    /// Friday.
    Friday = 4,
    /// Saturday.
    Saturday = 5,
    /// Sunday.
    Sunday = 6,
}

impl Weekday {
    /// All weekdays, Monday first.
    pub const ALL: [Weekday; 7] = [
        Weekday::Monday,
        Weekday::Tuesday,
        Weekday::Wednesday,
        Weekday::Thursday,
        Weekday::Friday,
        Weekday::Saturday,
        Weekday::Sunday,
    ];

    /// Build from an index 0 (Monday) .. 6 (Sunday).
    pub fn from_index(i: u32) -> Option<Weekday> {
        Weekday::ALL.get(i as usize).copied()
    }

    /// Index 0 (Monday) .. 6 (Sunday).
    pub fn index(self) -> u32 {
        self as u32
    }

    /// Whether the day is Saturday or Sunday.
    pub fn is_weekend(self) -> bool {
        matches!(self, Weekday::Saturday | Weekday::Sunday)
    }

    /// Three-letter English abbreviation.
    pub fn abbrev(self) -> &'static str {
        match self {
            Weekday::Monday => "Mon",
            Weekday::Tuesday => "Tue",
            Weekday::Wednesday => "Wed",
            Weekday::Thursday => "Thu",
            Weekday::Friday => "Fri",
            Weekday::Saturday => "Sat",
            Weekday::Sunday => "Sun",
        }
    }
}

impl fmt::Display for Weekday {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// A timestamp in seconds since the Unix epoch (UTC, treated as Dublin wall
/// clock for feature extraction).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Timestamp(pub i64);

/// Days from civil date (Hinnant). Valid for all reasonable years.
fn days_from_civil(year: i32, month: u32, day: u32) -> i64 {
    let y = if month <= 2 { year - 1 } else { year } as i64;
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = month as i64;
    let d = day as i64;
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146097 + doe - 719468
}

/// Civil date from days since epoch (Hinnant).
fn civil_from_days(z: i64) -> (i32, u32, u32) {
    let z = z + 719468;
    let era = if z >= 0 { z } else { z - 146096 } / 146097;
    let doe = z - era * 146097; // [0, 146096]
    let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
    let mp = (5 * doy + 2) / 153; // [0, 11]
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
    let m = (if mp < 10 { mp + 3 } else { mp - 9 }) as u32; // [1, 12]
    ((y + i64::from(m <= 2)) as i32, m, d)
}

fn days_in_month(year: i32, month: u32) -> u32 {
    match month {
        1 | 3 | 5 | 7 | 8 | 10 | 12 => 31,
        4 | 6 | 9 | 11 => 30,
        2 => {
            let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
            if leap {
                29
            } else {
                28
            }
        }
        _ => 0,
    }
}

impl Timestamp {
    /// Build a timestamp from civil date and time-of-day components.
    ///
    /// # Errors
    ///
    /// [`DataError::InvalidDate`] for impossible dates; hours/minutes/seconds
    /// are validated as 0–23 / 0–59 / 0–59.
    pub fn from_ymd_hms(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: u32,
    ) -> Result<Self> {
        if !(1..=12).contains(&month) || day == 0 || day > days_in_month(year, month) {
            return Err(DataError::InvalidDate { year, month, day });
        }
        if hour > 23 || minute > 59 || second > 59 {
            return Err(DataError::InvalidDate { year, month, day });
        }
        let days = days_from_civil(year, month, day);
        Ok(Timestamp(
            days * 86_400 + i64::from(hour) * 3600 + i64::from(minute) * 60 + i64::from(second),
        ))
    }

    /// Raw seconds since the Unix epoch.
    pub fn unix_seconds(&self) -> i64 {
        self.0
    }

    /// Civil `(year, month, day)`.
    pub fn ymd(&self) -> (i32, u32, u32) {
        civil_from_days(self.0.div_euclid(86_400))
    }

    /// Hour of day, 0–23.
    pub fn hour(&self) -> u32 {
        (self.0.rem_euclid(86_400) / 3600) as u32
    }

    /// Minute of hour, 0–59.
    pub fn minute(&self) -> u32 {
        (self.0.rem_euclid(3600) / 60) as u32
    }

    /// Day of week (1970-01-01 was a Thursday).
    pub fn weekday(&self) -> Weekday {
        let days = self.0.div_euclid(86_400);
        // 1970-01-01 = Thursday = index 3 in a Monday-first week.
        let idx = (days + 3).rem_euclid(7) as u32;
        Weekday::from_index(idx).expect("index < 7")
    }

    /// A new timestamp `seconds` later.
    pub fn plus_seconds(&self, seconds: i64) -> Timestamp {
        Timestamp(self.0 + seconds)
    }

    /// ISO-8601-style rendering (`YYYY-MM-DDTHH:MM:SS`).
    pub fn to_iso(&self) -> String {
        let (y, m, d) = self.ymd();
        format!(
            "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}",
            self.hour(),
            self.minute(),
            (self.0.rem_euclid(60)) as u32
        )
    }

    /// Parse an ISO-8601-style `YYYY-MM-DDTHH:MM:SS` (or with a space
    /// separator) string.
    ///
    /// # Errors
    ///
    /// [`DataError::FieldParse`]-style failures are reported as
    /// [`DataError::InvalidDate`] with zeroed components when the shape is
    /// wrong.
    pub fn parse_iso(s: &str) -> Result<Self> {
        let bad = || DataError::InvalidDate {
            year: 0,
            month: 0,
            day: 0,
        };
        let s = s.trim();
        let (date, time) = s
            .split_once('T')
            .or_else(|| s.split_once(' '))
            .ok_or_else(bad)?;
        let mut dp = date.split('-');
        let year: i32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let month: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let day: u32 = dp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let mut tp = time.split(':');
        let hour: u32 = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let minute: u32 = tp.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let second: u32 = tp
            .next()
            .map(|v| v.parse().map_err(|_| bad()))
            .transpose()?
            .unwrap_or(0);
        Timestamp::from_ymd_hms(year, month, day, hour, minute, second)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_iso())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_is_thursday() {
        let t = Timestamp(0);
        assert_eq!(t.weekday(), Weekday::Thursday);
        assert_eq!(t.ymd(), (1970, 1, 1));
        assert_eq!(t.hour(), 0);
    }

    #[test]
    fn known_dates_round_trip() {
        // 2020-01-03 (the dataset's first day) was a Friday.
        let t = Timestamp::from_ymd_hms(2020, 1, 3, 8, 30, 0).unwrap();
        assert_eq!(t.ymd(), (2020, 1, 3));
        assert_eq!(t.weekday(), Weekday::Friday);
        assert_eq!(t.hour(), 8);
        assert_eq!(t.minute(), 30);
        // 2021-09-19 (the dataset's last day) was a Sunday.
        let t2 = Timestamp::from_ymd_hms(2021, 9, 19, 23, 59, 59).unwrap();
        assert_eq!(t2.weekday(), Weekday::Sunday);
        assert_eq!(t2.ymd(), (2021, 9, 19));
    }

    #[test]
    fn leap_year_february() {
        let t = Timestamp::from_ymd_hms(2020, 2, 29, 0, 0, 0).unwrap();
        assert_eq!(t.ymd(), (2020, 2, 29));
        assert!(Timestamp::from_ymd_hms(2021, 2, 29, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(1900, 2, 29, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2000, 2, 29, 0, 0, 0).is_ok());
    }

    #[test]
    fn rejects_invalid_components() {
        assert!(Timestamp::from_ymd_hms(2020, 13, 1, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 0, 1, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 31, 0, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 24, 0, 0).is_err());
        assert!(Timestamp::from_ymd_hms(2020, 4, 30, 0, 60, 0).is_err());
    }

    #[test]
    fn weekday_progression() {
        let mon = Timestamp::from_ymd_hms(2021, 6, 14, 12, 0, 0).unwrap(); // a Monday
        for (offset, want) in Weekday::ALL.iter().enumerate() {
            let t = mon.plus_seconds(offset as i64 * 86_400);
            assert_eq!(t.weekday(), *want);
        }
    }

    #[test]
    fn weekend_detection() {
        assert!(Weekday::Saturday.is_weekend());
        assert!(Weekday::Sunday.is_weekend());
        assert!(!Weekday::Friday.is_weekend());
        assert!(!Weekday::Monday.is_weekend());
    }

    #[test]
    fn iso_rendering_and_parsing_round_trip() {
        let t = Timestamp::from_ymd_hms(2021, 3, 7, 9, 5, 2).unwrap();
        assert_eq!(t.to_iso(), "2021-03-07T09:05:02");
        assert_eq!(Timestamp::parse_iso("2021-03-07T09:05:02").unwrap(), t);
        assert_eq!(Timestamp::parse_iso("2021-03-07 09:05:02").unwrap(), t);
        // Seconds optional.
        let t2 = Timestamp::parse_iso("2021-03-07T09:05").unwrap();
        assert_eq!(t2.hour(), 9);
        assert_eq!(t2.minute(), 5);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Timestamp::parse_iso("not a date").is_err());
        assert!(Timestamp::parse_iso("2021-13-07T09:05:02").is_err());
        assert!(Timestamp::parse_iso("2021-03-07").is_err());
        assert!(Timestamp::parse_iso("").is_err());
    }

    #[test]
    fn pre_epoch_dates_work() {
        let t = Timestamp::from_ymd_hms(1969, 12, 31, 23, 0, 0).unwrap();
        assert!(t.0 < 0);
        assert_eq!(t.ymd(), (1969, 12, 31));
        assert_eq!(t.hour(), 23);
        assert_eq!(t.weekday(), Weekday::Wednesday);
    }

    #[test]
    fn plus_seconds_moves_forward() {
        let a = Timestamp::from_ymd_hms(2020, 1, 1, 0, 0, 0).unwrap();
        let b = a.plus_seconds(3600);
        assert_eq!(b.unix_seconds() - a.unix_seconds(), 3600);
        assert_eq!(b.hour(), 1);
    }

    #[test]
    fn weekday_from_index_bounds() {
        assert_eq!(Weekday::from_index(0), Some(Weekday::Monday));
        assert_eq!(Weekday::from_index(6), Some(Weekday::Sunday));
        assert_eq!(Weekday::from_index(7), None);
        assert_eq!(Weekday::Sunday.index(), 6);
    }

    #[test]
    fn display_abbreviations() {
        assert_eq!(Weekday::Monday.to_string(), "Mon");
        assert_eq!(Weekday::Sunday.to_string(), "Sun");
        let t = Timestamp::from_ymd_hms(2020, 5, 1, 1, 2, 3).unwrap();
        assert_eq!(t.to_string(), "2020-05-01T01:02:03");
    }
}
