//! Spill settings under a hostile environment: `MOBY_SPILL_BUDGET_MB=0`
//! asks every build that sets no budget of its own to spill, and `TMPDIR`
//! names a regular file, so any spill fails on I/O.
//!
//! * An explicit budget wins over the environment: the temporal build at
//!   `Some(u64::MAX)` never touches disk and equals the plain build.
//! * The pipeline's own graph builds take their budget from the
//!   environment, and their spill failure comes back as
//!   [`CoreError::Spill`] instead of a panic.
//!
//! The test sets process environment variables, so it lives alone in its
//! own test binary.

use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
use moby_core::temporal::{build_all_from_trips, build_all_from_trips_spilled};
use moby_core::CoreError;
use moby_data::synth::{generate, SynthConfig};
use std::path::PathBuf;

/// Removes the stand-in `TMPDIR` file however the test ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

#[test]
fn explicit_budget_ignores_the_environment_and_pipeline_spill_errors_are_typed() {
    // References first, with no spill settings in the environment.
    std::env::remove_var("MOBY_SPILL_BUDGET_MB");
    let raw = generate(&SynthConfig::small_test());
    let pipeline = ExpansionPipeline::new(PipelineConfig::default());
    let outcome = pipeline
        .run(&raw)
        .expect("pipeline runs with a clean environment");
    let trips = &outcome.selected.trips;
    let want = build_all_from_trips(trips, None, None);

    let file = std::env::temp_dir().join(format!("moby-spill-settings-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("writing the stand-in TMPDIR file");
    let _cleanup = RemoveOnDrop(file.clone());
    std::env::set_var("MOBY_SPILL_BUDGET_MB", "0");
    std::env::set_var("TMPDIR", &file);

    let got = build_all_from_trips_spilled(trips, None, None, None, Some(u64::MAX), None)
        .expect("an explicit budget of u64::MAX never spills");
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        let granularity = g.granularity;
        assert_eq!(granularity, w.granularity);
        assert_eq!(g.csr, w.csr, "{granularity:?}: CSR diverged");
        assert_eq!(
            g.csr.total_weight().to_bits(),
            w.csr.total_weight().to_bits(),
            "{granularity:?}: total weight bits diverged"
        );
        assert_eq!(
            g.layer_map, w.layer_map,
            "{granularity:?}: layer map diverged"
        );
    }

    match pipeline.run(&raw) {
        Err(CoreError::Spill(msg)) => assert!(!msg.is_empty()),
        Err(other) => panic!("expected CoreError::Spill, got {other:?}"),
        Ok(_) => panic!("expected CoreError::Spill, the pipeline ran"),
    }
}
