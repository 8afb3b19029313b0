//! Dataset overview statistics (the paper's Table I).

use crate::clean::CleaningOutcome;
use crate::schema::RawDataset;
use crate::timeparse::Timestamp;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// The paper's Table I: original vs cleaned dataset measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetOverview {
    /// First rental start, original data.
    pub start: Option<Timestamp>,
    /// Last rental end, original data.
    pub end: Option<Timestamp>,
    /// Stations before / after cleaning.
    pub stations: (usize, usize),
    /// Rentals before / after cleaning.
    pub rentals: (usize, usize),
    /// Locations before / after cleaning.
    pub locations: (usize, usize),
}

impl DatasetOverview {
    /// Build the overview from the raw dataset and the cleaning outcome.
    pub fn from_cleaning(raw: &RawDataset, outcome: &CleaningOutcome) -> Self {
        let start = raw.rentals.iter().map(|r| r.start_time).min();
        let end = raw.rentals.iter().map(|r| r.end_time).max();
        Self {
            start,
            end,
            stations: (
                outcome.report.stations_before,
                outcome.report.stations_after,
            ),
            rentals: (outcome.report.rentals_before, outcome.report.rentals_after),
            locations: (
                outcome.report.locations_before,
                outcome.report.locations_after,
            ),
        }
    }

    /// Approximate duration of the observation window in whole months.
    pub fn duration_months(&self) -> Option<i64> {
        let (s, e) = (self.start?, self.end?);
        Some(((e.unix_seconds() - s.unix_seconds()) as f64 / (30.44 * 86_400.0)).round() as i64)
    }

    /// Render the overview as an aligned text table in the layout of
    /// Table I.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<22} {:>16} {:>16}",
            "Measures", "Original", "Cleaned"
        );
        let duration = match (self.start, self.end) {
            (Some(s), Some(e)) => {
                let (sy, sm, _) = s.ymd();
                let (ey, em, _) = e.ymd();
                format!(
                    "{} {}-{} {} (~{} months)",
                    month_name(sm),
                    sy,
                    month_name(em),
                    ey,
                    self.duration_months().unwrap_or(0)
                )
            }
            _ => "n/a".to_owned(),
        };
        let _ = writeln!(out, "{:<22} {:>33}", "Duration of data", duration);
        let _ = writeln!(
            out,
            "{:<22} {:>16} {:>16}",
            "#stations", self.stations.0, self.stations.1
        );
        let _ = writeln!(
            out,
            "{:<22} {:>16} {:>16}",
            "#rental", self.rentals.0, self.rentals.1
        );
        let _ = writeln!(
            out,
            "{:<22} {:>16} {:>16}",
            "#location", self.locations.0, self.locations.1
        );
        out
    }
}

fn month_name(m: u32) -> &'static str {
    [
        "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
    ]
    .get((m as usize).wrapping_sub(1))
    .copied()
    .unwrap_or("???")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clean::clean_dataset;
    use crate::synth::{generate, SynthConfig};

    #[test]
    fn overview_from_synthetic_data() {
        let cfg = SynthConfig::small_test();
        let raw = generate(&cfg);
        let outcome = clean_dataset(&raw);
        let overview = DatasetOverview::from_cleaning(&raw, &outcome);
        assert_eq!(overview.rentals.0, raw.rentals.len());
        assert_eq!(overview.rentals.1, outcome.dataset.rentals.len());
        assert!(overview.stations.0 > overview.stations.1);
        assert!(overview.duration_months().unwrap() >= 3);
        let table = overview.render_table();
        assert!(table.contains("#stations"));
        assert!(table.contains("#rental"));
        assert!(table.contains("Original"));
    }

    #[test]
    fn month_names() {
        assert_eq!(month_name(1), "Jan");
        assert_eq!(month_name(9), "Sep");
        assert_eq!(month_name(0), "???");
        assert_eq!(month_name(13), "???");
    }
}
