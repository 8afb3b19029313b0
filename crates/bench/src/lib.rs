//! Shared fixtures for the experiment-reproduction harness, plus the
//! peak-RSS probe the repository benchmark (`benchmark/`) reads.
//!
//! Everything is deterministic: the same scale always produces the same
//! dataset, candidate network and pipeline outcome.

use moby_core::pipeline::{ExpansionOutcome, ExpansionPipeline, PipelineConfig};
use moby_data::schema::RawDataset;
use moby_data::synth::{generate, SynthConfig};
use moby_data::timeparse::Timestamp;

/// Workload scale of the reproduction harness and the tests built on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~2 k rentals, 4 months — unit-test sized, seconds end to end.
    Small,
    /// ~15 k rentals, 9 months — a mid-sized workload.
    Medium,
    /// The paper's full scale: ≈62 k rentals, ≈14 k locations, 21 months.
    Paper,
}

impl Scale {
    /// Parse a scale name (`small` / `medium` / `paper`).
    pub fn parse(name: &str) -> Option<Scale> {
        match name.to_ascii_lowercase().as_str() {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" | "full" => Some(Scale::Paper),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        }
    }
}

/// Peak resident-set size of this process in kilobytes, from `VmHWM` in
/// `/proc/self/status`. Returns `None` where the proc filesystem is
/// unavailable (non-Linux hosts) **or** where the `VmHWM` line does not
/// parse — a malformed line must read as "not measured", never as a
/// silent 0 that would be mistaken for "no memory used".
pub fn peak_rss_kb() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        parse_vm_hwm_kb(&std::fs::read_to_string("/proc/self/status").ok()?)
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Extract the `VmHWM` high-water mark (in kB) from the contents of a
/// `/proc/<pid>/status` file.
///
/// The parse is field-based, not position-based: the line is
/// whitespace-split, so any amount of padding between the label, the
/// number and the unit is accepted — but a missing or non-`kB` unit, a
/// non-numeric value, or a trailing extra field all yield `None` rather
/// than a garbage number.
fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    let mut fields = line.split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    // The kernel reports VmHWM in kB; bail out rather than misreport if
    // the unit ever differs (or is missing entirely).
    if fields.next() != Some("kB") || fields.next().is_some() {
        return None;
    }
    Some(value)
}

/// The synthetic-generator configuration for a scale.
pub fn synth_config(scale: Scale) -> SynthConfig {
    match scale {
        Scale::Small => SynthConfig::small_test(),
        Scale::Medium => SynthConfig {
            clean_rentals: 15_000,
            dockless_locations: 4_000,
            dirty_rentals: 120,
            dirty_locations: 30,
            start: Timestamp::from_ymd_hms(2020, 6, 1, 0, 0, 0).expect("valid"),
            end: Timestamp::from_ymd_hms(2021, 2, 28, 23, 59, 59).expect("valid"),
            ..SynthConfig::paper_scale()
        },
        Scale::Paper => SynthConfig::paper_scale(),
    }
}

/// Generate the raw dataset for a scale.
pub fn dataset(scale: Scale) -> RawDataset {
    generate(&synth_config(scale))
}

/// Run the full expansion pipeline for a scale with default settings.
pub fn run_pipeline(scale: Scale) -> ExpansionOutcome {
    let raw = dataset(scale);
    ExpansionPipeline::new(PipelineConfig::default())
        .run(&raw)
        .expect("pipeline runs on synthetic data")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("small"), Some(Scale::Small));
        assert_eq!(Scale::parse("PAPER"), Some(Scale::Paper));
        assert_eq!(Scale::parse("full"), Some(Scale::Paper));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        // The city tier streams trips and never builds a dataset, so it
        // is no reproduction scale.
        assert_eq!(Scale::parse("large"), None);
        assert_eq!(Scale::parse("city"), None);
        assert_eq!(Scale::parse("nope"), None);
        assert_eq!(Scale::Medium.name(), "medium");
    }

    #[test]
    fn peak_rss_is_measured_on_linux() {
        if cfg!(target_os = "linux") {
            let kb = peak_rss_kb().expect("VmHWM should be readable on linux");
            assert!(kb > 0, "a running process has a nonzero high-water mark");
        }
    }

    #[test]
    fn vm_hwm_parse_accepts_any_field_padding() {
        let status = "Name:\tbench\nVmPeak:\t  999 kB\nVmHWM:     12345 kB\nThreads:\t4\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        // Tabs, minimal spacing, surrounding lines in any order.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t7 kB\n"), Some(7));
    }

    #[test]
    fn vm_hwm_parse_returns_none_instead_of_zero_on_malformed_input() {
        // Missing line entirely.
        assert_eq!(parse_vm_hwm_kb("Name: bench\nVmPeak: 10 kB\n"), None);
        // Non-numeric value.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots kB\n"), None);
        // Missing unit — could be anything, refuse to guess.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12345\n"), None);
        // Wrong unit (a field-position parse would misreport this).
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 mB\n"), None);
        // Trailing junk after the unit.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t12 kB extra\n"), None);
        // Empty value.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn small_scale_pipeline_runs() {
        let outcome = run_pipeline(Scale::Small);
        assert!(outcome.new_station_count() > 0);
    }
}
