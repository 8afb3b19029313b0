//! The out-of-core contract at city scale: the city tier's 1 M trips over
//! 10 240 stations, cleaned into a trip table and forced through the
//! spilled build (`build_all_from_trips_spilled` at a zero budget), give
//! the same three temporal graphs — node tables, rows, weight bits,
//! total-weight bits and layer maps — as the in-memory build (the same
//! function with no budget).
//!
//! Both sides run at 4 shards and 2 threads. The random trip sets of
//! `proptest_spill.rs` and the temporal unit tests stay small; this test
//! holds the contract at the size the spill path exists for.

use moby_core::temporal::build_all_from_trips_spilled;
use moby_data::clean::clean_trip_stream;
use moby_data::synth::{city_trip_stream, SynthConfig};

const SHARDS: Option<usize> = Some(4);
const THREADS: Option<usize> = Some(2);

#[test]
fn spilled_city_build_equals_the_in_memory_build() {
    let cfg = SynthConfig::city();

    let (table, report) = clean_trip_stream(
        cfg.station_ids(),
        cfg.trips as usize,
        city_trip_stream(&cfg),
    );
    assert!(report.rows_kept >= 990_000, "the tier keeps ~1 M trips");
    let in_memory = build_all_from_trips_spilled(&table, None, SHARDS, THREADS, None, None)
        .expect("an unbudgeted build never spills");
    let spilled = build_all_from_trips_spilled(&table, None, SHARDS, THREADS, Some(0), None)
        .expect("spilled city build");

    assert_eq!(spilled.len(), in_memory.len());
    for (s, m) in spilled.iter().zip(&in_memory) {
        let g = s.granularity;
        assert_eq!(g, m.granularity);
        assert_eq!(s.csr, m.csr, "{g:?}: spilled CSR diverged from in-memory");
        assert_eq!(
            s.csr.total_weight().to_bits(),
            m.csr.total_weight().to_bits(),
            "{g:?}: total weight bits diverged"
        );
        assert_eq!(s.layer_map, m.layer_map, "{g:?}: layer map diverged");
    }
}
