//! Seeded Louvain after a window slide keeps the cold run's quality.
//!
//! At medium scale the selected network's window slides by one hour
//! (`WindowStart::new(0, 1)`) while the table's trailing m/64 rows are
//! replayed as the batch, the live cadence the seeded refresh exists for.
//! Louvain on the post-window `GHour` graph, seeded with the pre-window
//! partition, must reach the cold run's modularity to within 0.1 %
//! relative. Greedy local moving from different starts can settle in
//! marginally different basins, so exact dominance is not a theorem; a
//! larger loss means the seeding collapsed. The guaranteed floor (seeded
//! Q never below the seed partition's Q on the new graph) is tested in
//! `moby-community` and `moby-core`.

use moby_bench::{run_pipeline, Scale};
use moby_community::{louvain_csr, louvain_seeded, modularity_csr_threads, LouvainConfig};
use moby_core::temporal::{build_all_from_trips, TemporalGranularity};
use moby_data::trips::{TripBatch, TripTable, WindowStart};

#[test]
fn seeded_louvain_keeps_the_cold_quality_after_a_window_slide() {
    let outcome = run_pipeline(Scale::Medium);
    let selected = &outcome.selected;
    let pre_trips = &selected.trips;

    let m = pre_trips.len();
    let mut batch = TripBatch::new();
    for k in (m - (m / 64).max(1))..m {
        batch.push_keyed(
            pre_trips.station_id(pre_trips.src()[k]),
            pre_trips.station_id(pre_trips.dst()[k]),
            pre_trips.day()[k],
            pre_trips.hour()[k],
            pre_trips.weights()[k],
        );
    }
    let mut net = selected.clone();
    let advanced = net
        .advance_window(&batch, WindowStart::new(0, 1), None)
        .expect("batch endpoints come from the network itself");
    assert!(advanced.evicted.evicted_rows() > 0, "nothing expired");

    let ghour = |trips: &TripTable| {
        let mut all = build_all_from_trips(trips, None, None);
        let hour = all.pop().expect("three granularities");
        assert_eq!(hour.granularity, TemporalGranularity::THour);
        hour.csr
    };
    let pre = ghour(pre_trips);
    let post = ghour(&net.trips);

    let cfg = LouvainConfig::default();
    let seed = louvain_csr(&pre, &cfg);
    let q_seeded = modularity_csr_threads(&post, &louvain_seeded(&post, &seed, &cfg), None);
    let q_cold = modularity_csr_threads(&post, &louvain_csr(&post, &cfg), None);
    assert!(
        q_seeded >= q_cold - 1e-3 * q_cold.abs().max(1e-3),
        "seeded Louvain fell below the cold run ({q_seeded} vs {q_cold})"
    );
}
