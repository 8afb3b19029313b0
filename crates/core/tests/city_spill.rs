//! The out-of-core contract at city scale: the city tier's 1 M trips over
//! 10 240 stations, cleaned into a disk spool and built through the
//! spilled path (`clean_trip_stream_spooled` + `build_all_from_spool`),
//! give the same three temporal graphs — node tables, rows, weight bits,
//! total-weight bits and layer maps — as the in-memory table build
//! (`clean_trip_stream` + `build_all_from_trips_sharded`).
//!
//! Both sides run at 4 shards and 2 threads. The random trip sets of
//! `proptest_spill.rs` and the temporal unit tests stay small; this test
//! holds the contract at the size the spill path exists for. Under a
//! `MOBY_SPILL_BUDGET_MB` small enough to spill, the table side spills
//! too, and the test then compares the spool with the table.

use moby_core::temporal::{build_all_from_spool, build_all_from_trips_sharded};
use moby_data::clean::{clean_trip_stream, clean_trip_stream_spooled};
use moby_data::synth::{city_trip_stream, SynthConfig};

const SHARDS: Option<usize> = Some(4);
const THREADS: Option<usize> = Some(2);

#[test]
fn spooled_and_spilled_city_build_equals_the_in_memory_build() {
    let cfg = SynthConfig::city();

    let (table, table_report) = clean_trip_stream(
        cfg.station_ids(),
        cfg.trips as usize,
        city_trip_stream(&cfg),
    );
    let in_memory = build_all_from_trips_sharded(&table, None, SHARDS, THREADS);
    drop(table);

    let (spool, spool_report) =
        clean_trip_stream_spooled(cfg.station_ids(), city_trip_stream(&cfg), None)
            .expect("spooling the cleaned city trips");
    let spilled = build_all_from_spool(&spool, SHARDS, THREADS, None).expect("spilled city build");

    assert_eq!(spool_report.rows_kept, table_report.rows_kept);
    assert!(
        table_report.rows_kept >= 990_000,
        "the tier keeps ~1 M trips"
    );
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
