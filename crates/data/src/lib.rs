//! # moby-data
//!
//! Trip-data schema, cleaning pipeline and calibrated synthetic generator
//! for the `moby-expansion` reproduction.
//!
//! The paper works from two SQL tables provided by Moby Bikes: `Rental`
//! (62,324 rows, Jan 2020 – Sep 2021) and `Location` (14,239 rows), plus the
//! set of 95 fixed charging stations. That dataset is proprietary, so this
//! crate provides:
//!
//! * [`schema`] — typed records mirroring the two tables (raw rows with the
//!   defects the paper lists, and validated rows after cleaning);
//! * [`timeparse`] — a small civil-time implementation (no external crate)
//!   giving the weekday / hour-of-day features the temporal graphs need;
//! * [`csvio`] — plain CSV readers/writers for the two tables;
//! * [`clean`] — the six cleaning rules of paper §III with a per-rule audit
//!   trail, reproducing Table I;
//! * [`synth`] — a statistically calibrated synthetic Dublin generator that
//!   reproduces the dataset marginals the paper reports (92 usable
//!   stations, ≈62 k rentals, ≈14 k distinct dockless locations, commuter
//!   and leisure temporal profiles, deliberately injected dirty rows);
//! * [`stats`] — dataset overview statistics (Table I);
//! * [`trips`] — the columnar [`trips::TripTable`]: struct-of-arrays
//!   station trips (dense `u32` endpoints over a shared sorted intern
//!   table, weekday/hour keys, weights) that the graph layer's sort-merge
//!   CSR construction consumes — the hashmap-free hot path from cleaned
//!   records to frozen graphs.
//!
//! ## Example
//!
//! ```
//! use moby_data::synth::{SynthConfig, generate};
//! use moby_data::clean::clean_dataset;
//!
//! let raw = generate(&SynthConfig::small_test());
//! let cleaned = clean_dataset(&raw);
//! assert!(cleaned.dataset.rentals.len() <= raw.rentals.len());
//! assert!(cleaned.report.total_rentals_removed() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clean;
pub mod csvio;
pub mod loader;
pub mod schema;
pub mod stats;
pub mod synth;
pub mod timeparse;
pub mod trips;

use std::fmt;

/// Errors produced by the data layer.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// A CSV row had the wrong number of fields.
    MalformedRow {
        /// 1-based line number in the input.
        line: usize,
        /// Expected number of fields.
        expected: usize,
        /// Observed number of fields.
        found: usize,
    },
    /// A field failed to parse.
    FieldParse {
        /// 1-based line number in the input.
        line: usize,
        /// Column header name.
        column: String,
        /// Offending raw value.
        value: String,
    },
    /// The CSV input was missing a required column.
    MissingColumn(String),
    /// The input had no header row.
    EmptyInput,
    /// A timestamp was outside the supported range (years 1970–2262).
    TimestampOutOfRange(i64),
    /// A date component was invalid (e.g. month 13).
    InvalidDate {
        /// Year.
        year: i32,
        /// Month (1–12).
        month: u32,
        /// Day of month.
        day: u32,
    },
    /// A trip weight was outside the trip domain: an integer from 1 to
    /// [`trips::MAX_TRIP_WEIGHT`].
    InvalidWeight(f64),
    /// A dataset file could not be read or written.
    Io {
        /// The path involved.
        path: String,
        /// The underlying OS error message.
        message: String,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::MalformedRow {
                line,
                expected,
                found,
            } => write!(f, "line {line}: expected {expected} fields, found {found}"),
            DataError::FieldParse {
                line,
                column,
                value,
            } => {
                write!(
                    f,
                    "line {line}: cannot parse column '{column}' from '{value}'"
                )
            }
            DataError::MissingColumn(c) => write!(f, "missing required column '{c}'"),
            DataError::EmptyInput => write!(f, "input has no header row"),
            DataError::TimestampOutOfRange(t) => {
                write!(f, "timestamp {t} outside supported range")
            }
            DataError::InvalidDate { year, month, day } => {
                write!(f, "invalid date {year:04}-{month:02}-{day:02}")
            }
            DataError::InvalidWeight(w) => write!(
                f,
                "invalid trip weight {w}: must be an integer from 1 to {}",
                trips::MAX_TRIP_WEIGHT
            ),
            DataError::Io { path, message } => write!(f, "I/O error on {path}: {message}"),
        }
    }
}

impl std::error::Error for DataError {}

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, DataError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display() {
        let msgs = [
            DataError::MalformedRow {
                line: 3,
                expected: 5,
                found: 4,
            }
            .to_string(),
            DataError::FieldParse {
                line: 2,
                column: "lat".into(),
                value: "x".into(),
            }
            .to_string(),
            DataError::MissingColumn("id".into()).to_string(),
            DataError::EmptyInput.to_string(),
            DataError::TimestampOutOfRange(-5).to_string(),
            DataError::InvalidWeight(0.5).to_string(),
            DataError::InvalidDate {
                year: 2020,
                month: 13,
                day: 1,
            }
            .to_string(),
        ];
        for m in msgs {
            assert!(!m.is_empty());
        }
    }
}
