//! Build settings under a hostile environment: `MOBY_SPILL_BUDGET_MB=0`
//! and `MOBY_SHARDS=4` are set, and `TMPDIR` names a regular file, so any
//! build that spilled would fail on I/O.
//!
//! * No build reads those variables. `build_dense_csr`,
//!   `build_all_from_trips` and a default pipeline run succeed and equal
//!   the same builds made with a clean environment.
//! * A spill budget is set only by an explicit argument: a pipeline
//!   configured with `spill_budget_mb: Some(0)` spills, and its spill
//!   failure comes back as [`CoreError::Spill`] instead of a panic.
//!
//! The test sets process environment variables, so it lives alone in its
//! own test binary.

use moby_core::pipeline::{ExpansionOutcome, ExpansionPipeline, PipelineConfig};
use moby_core::temporal::{build_all_from_trips, TemporalGraph};
use moby_core::CoreError;
use moby_data::synth::{generate, SynthConfig};
use moby_data::trips::TripTable;
use moby_graph::{build_dense_csr, CsrGraph};
use std::path::PathBuf;

/// Removes the stand-in `TMPDIR` file however the test ends.
struct RemoveOnDrop(PathBuf);

impl Drop for RemoveOnDrop {
    fn drop(&mut self) {
        std::fs::remove_file(&self.0).ok();
    }
}

/// The station graph of a trip table, as the pipeline builds it.
fn station_graph(trips: &TripTable) -> CsrGraph {
    build_dense_csr(
        false,
        trips.station_ids().to_vec(),
        trips.src(),
        trips.dst(),
        trips.weights(),
        None,
    )
}

/// Equal graphs, total-weight bits included.
fn assert_same_graph(got: &CsrGraph, want: &CsrGraph, what: &str) {
    assert_eq!(got, want, "{what}: CSR diverged");
    assert_eq!(
        got.total_weight().to_bits(),
        want.total_weight().to_bits(),
        "{what}: total weight bits diverged"
    );
}

/// Equal temporal graphs and layer maps.
fn assert_same_temporals(got: &[TemporalGraph], want: &[TemporalGraph]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        let granularity = g.granularity;
        assert_eq!(granularity, w.granularity);
        assert_same_graph(&g.csr, &w.csr, &format!("{granularity:?}"));
        assert_eq!(
            g.layer_map, w.layer_map,
            "{granularity:?}: layer map diverged"
        );
    }
}

/// Equal pipeline outcomes: the trip graphs, the selection and every
/// detection.
fn assert_same_outcome(got: &ExpansionOutcome, want: &ExpansionOutcome) {
    assert_same_graph(
        &got.candidate.directed,
        &want.candidate.directed,
        "candidate",
    );
    assert_same_graph(
        &got.candidate.undirected,
        &want.candidate.undirected,
        "candidate",
    );
    assert_eq!(got.selection, want.selection);
    assert_same_graph(&got.selected.directed, &want.selected.directed, "selected");
    assert_same_graph(
        &got.selected.undirected,
        &want.selected.undirected,
        "selected",
    );
    for (g, w) in got.communities.all().iter().zip(want.communities.all()) {
        assert_eq!(g.raw_partition, w.raw_partition);
        assert_eq!(g.station_partition, w.station_partition);
        assert_eq!(g.modularity.to_bits(), w.modularity.to_bits());
    }
}

#[test]
fn builds_ignore_the_environment_and_explicit_spill_errors_are_typed() {
    // References first, with no build settings in the environment.
    std::env::remove_var("MOBY_SPILL_BUDGET_MB");
    std::env::remove_var("MOBY_SHARDS");
    let raw = generate(&SynthConfig::small_test());
    let pipeline = ExpansionPipeline::new(PipelineConfig::default());
    let want_outcome = pipeline
        .run(&raw)
        .expect("pipeline runs with a clean environment");
    let trips = &want_outcome.selected.trips;
    let want_station = station_graph(trips);
    let want_temporals = build_all_from_trips(trips, None, None);

    let file = std::env::temp_dir().join(format!("moby-spill-settings-{}", std::process::id()));
    std::fs::write(&file, b"not a directory").expect("writing the stand-in TMPDIR file");
    let _cleanup = RemoveOnDrop(file.clone());
    std::env::set_var("MOBY_SPILL_BUDGET_MB", "0");
    std::env::set_var("MOBY_SHARDS", "4");
    std::env::set_var("TMPDIR", &file);

    assert_same_graph(&station_graph(trips), &want_station, "station graph");
    assert_same_temporals(&build_all_from_trips(trips, None, None), &want_temporals);
    let outcome = pipeline
        .run(&raw)
        .expect("a default pipeline run never spills");
    assert_same_outcome(&outcome, &want_outcome);

    let spilling = ExpansionPipeline::new(PipelineConfig {
        spill_budget_mb: Some(0),
        ..PipelineConfig::default()
    });
    match spilling.run(&raw) {
        Err(CoreError::Spill(msg)) => assert!(!msg.is_empty()),
        Err(other) => panic!("expected CoreError::Spill, got {other:?}"),
        Ok(_) => panic!("expected CoreError::Spill, the pipeline ran"),
    }
}
