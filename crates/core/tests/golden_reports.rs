//! Golden snapshot of the reported outputs around the trip record: the
//! paper's Table II, Tables IV–VI with their modularity bits, and the
//! Fig. 5 / Fig. 7 day and hour profiles.
//!
//! The synthetic configs are fully seeded and every stage is deterministic
//! at any thread count, so these are fixed artefacts. Each is pinned for
//! the pipeline's initial run and again after two sliding-window steps
//! (`WindowedPipeline::advance`), so a change to how trips are recorded,
//! evicted or counted fails here instead of shifting a reported number.
//! Update a snapshot only when a change to the *pipeline semantics* is
//! intended.

use moby_core::pipeline::{ExpansionOutcome, ExpansionPipeline, PipelineConfig, WindowedPipeline};
use moby_core::report::{daily_profile, hourly_profile, render_community_table, render_table2};
use moby_data::synth::{generate, SynthConfig};
use moby_data::trips::{TripBatch, WindowStart};
use std::fmt::Write as _;

/// FNV-1a-64 over `bytes`, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the f64 bits of the GDay daily profile and the GHour
/// hourly profile, community by community.
fn profile_hash(outcome: &ExpansionOutcome) -> u64 {
    let mut h = FNV_OFFSET;
    let daily = daily_profile(
        &outcome.selected.trips,
        &outcome.communities.day.station_partition,
    );
    for (community, shares) in &daily {
        h = fnv1a(h, &(*community as u64).to_le_bytes());
        for s in shares {
            h = fnv1a(h, &s.to_bits().to_le_bytes());
        }
    }
    let hourly = hourly_profile(
        &outcome.selected.trips,
        &outcome.communities.hour.station_partition,
    );
    for (community, shares) in &hourly {
        h = fnv1a(h, &(*community as u64).to_le_bytes());
        for s in shares {
            h = fnv1a(h, &s.to_bits().to_le_bytes());
        }
    }
    h
}

/// Table II, Tables IV–VI with each detection's modularity bits, and the
/// profile hash, rendered as one text block.
fn snapshot(outcome: &ExpansionOutcome) -> String {
    let mut out = render_table2(&outcome.candidate.summary);
    let c = &outcome.communities;
    for (name, detection) in [
        ("TABLE IV — GBasic", &c.basic),
        ("TABLE V — GDay", &c.day),
        ("TABLE VI — GHour", &c.hour),
    ] {
        out.push_str(&render_community_table(name, &detection.table));
        let _ = writeln!(
            out,
            "modularity bits {:#018x}",
            detection.modularity.to_bits()
        );
    }
    let _ = writeln!(out, "profile hash {:#018x}", profile_hash(outcome));
    out
}

/// Two window steps: each evicts the trips before its window start and
/// replays a slice of the surviving table as the incoming batch.
fn advance_twice(live: &mut WindowedPipeline) {
    for (window, rows) in [
        (WindowStart::new(1, 0), 0..40),
        (WindowStart::new(3, 12), 40..100),
    ] {
        let trips = &live.outcome.selected.trips;
        let mut batch = TripBatch::new();
        for k in rows {
            batch.push_keyed(
                trips.station_id(trips.src()[k]),
                trips.station_id(trips.dst()[k]),
                trips.day()[k],
                trips.hour()[k],
                trips.weights()[k],
            );
        }
        live.advance(&batch, window)
            .expect("batch stations are known");
    }
}

/// The snapshot of the initial run and the one after [`advance_twice`].
fn snapshots(config: &SynthConfig) -> (String, String) {
    let raw = generate(config);
    let mut live = ExpansionPipeline::new(PipelineConfig::default())
        .run_windowed(&raw)
        .expect("pipeline runs");
    let initial = snapshot(&live.outcome);
    advance_twice(&mut live);
    (initial, snapshot(&live.outcome))
}

fn assert_matches(got: &str, want: &str, what: &str) {
    let got: Vec<&str> = got.lines().map(str::trim_end).collect();
    let want: Vec<&str> = want.lines().collect();
    assert_eq!(
        got, want,
        "{what} drifted from the golden snapshot — if the pipeline semantics \
         changed intentionally, update it"
    );
}

const SMALL_INITIAL: &str = "\
TABLE II — CANDIDATE GRAPH (HAC)
#nodes                                  329
#undirected edges                      1686
#undirected edges (no loops)           1654
#directed edges                        1805
#directed edges (no loops)             1773
#trips                                 2000
TABLE IV — GBasic — 5 communities, modularity 0.42
Comm    Old   New  Total     Within       Out        In      Total
1        43    22     65        885       165       220       1270
2         1     1      2          1         0         2          3
3         7     9     16         60        87        75        222
4        26    33     59        350       108        87        545
5        15    18     33        280        64        40        384
self-contained share: 78.8%
modularity bits 0x3fda91ef30a4e37a
TABLE V — GDay — 11 communities, modularity 0.86
Comm    Old   New  Total     Within       Out        In      Total
1        14    12     26         91       253       271        615
2        19    20     39        126       378       367        871
3        15     6     21         36       176       175        387
4         9     8     17         13       121       133        267
5         6     5     11         10        91        95        196
6        12    14     26         77       242       209        528
7        12    15     27         58       212       221        491
8         1     0      1          0         0         1          1
9         2     0      2          4        28        37         69
10        1     1      2          8        51        39         98
11        1     2      3          1        24        28         53
self-contained share: 21.2%
modularity bits 0x3feb8c929aa1d758
TABLE VI — GHour — 19 communities, modularity 0.94
Comm    Old   New  Total     Within       Out        In      Total
1        17    12     29        178       325       318        821
2        14    19     33        126       305       319        750
3         9    10     19         32       176       155        363
4         1     2      3          3        20        17         40
5         6     5     11         19       168       181        368
6        13    12     25         55       168       160        383
7         4     4      8          6        54        43        103
8         5     1      6          2        35        40         77
9         1     0      1          0         4         0          4
10        8     6     14          6        90        93        189
11        1     0      1          1         3         7         11
12        7     7     14          7       102       114        223
13        2     0      2          1        26        32         59
14        2     1      3          1        10        12         23
15        1     0      1          1        12        13         26
16        1     1      2          6        47        37         90
17        0     1      1          0         2         4          6
18        0     1      1          0         5         9         14
19        0     1      1          0         4         2          6
self-contained share: 22.2%
modularity bits 0x3fee06a5d6bebe22
profile hash 0xd33cbf503a6e60fb
";

const SMALL_ADVANCED: &str = "\
TABLE II — CANDIDATE GRAPH (HAC)
#nodes                                  329
#undirected edges                      1686
#undirected edges (no loops)           1654
#directed edges                        1805
#directed edges (no loops)             1773
#trips                                 2000
TABLE IV — GBasic — 5 communities, modularity 0.45
Comm    Old   New  Total     Within       Out        In      Total
1        41    15     56        431        77       117        625
2        27    36     63        240        63        53        356
3         9    14     23         37        45        39        121
4         1     1      2          0         0         0          0
5        14    17     31        157        41        17        215
self-contained share: 79.3%
modularity bits 0x3fdcc82b384519e2
TABLE V — GDay — 6 communities, modularity 0.76
Comm    Old   New  Total     Within       Out        In      Total
1        20    21     41         86       212       171        469
2        36    31     67        193       229       259        681
3        14    11     25         49       124       144        317
4        16    14     30         42       122       124        288
5         2     3      5          4        29        19         52
6         0     1      1          0         1         0          1
self-contained share: 34.3%
modularity bits 0x3fe87284a3290fc1
TABLE VI — GHour — 30 communities, modularity 0.94
Comm    Old   New  Total     Within       Out        In      Total
1        17     7     24         72       169       189        430
2        11     5     16         19        99        99        217
3         2     7      9          2        42        41         85
4         1     2      3          3        10        11         24
5         8     6     14         17        84        79        180
6         7     5     12          9        45        55        109
7         5     4      9          5        39        37         81
8        17    19     36         85       208       163        456
9         1     0      1          0         2         0          2
10        1     0      1          0         1         0          1
11        1     0      1          1        16        12         29
12        2     3      5          1        25        40         66
13        2     2      4          0        17        20         37
14        1     0      1          0         3         2          5
15        3     0      3          1        24        21         46
16        3     6      9          5        34        41         80
17        1     2      3          0         8        11         19
18        1     0      1          0         0         1          1
19        1     2      3          0        20        10         30
20        1     0      1          0         0         2          2
21        1     0      1          0         9        10         19
22        1     1      2          0         2         1          3
23        0     1      1          0         0         4          4
24        0     1      1          0         2         0          2
25        0     2      2          0         1         3          4
26        0     1      1          0         1         1          2
27        0     1      1          0         1         3          4
28        0     1      1          0         6         2          8
29        0     2      2          2         1        10         13
30        0     1      1          0         0         1          1
self-contained share: 20.3%
modularity bits 0x3fee24cebba0ef26
profile hash 0x7b35cbd9e275e636
";

#[test]
fn small_test_reports_match_golden() {
    let (initial, advanced) = snapshots(&SynthConfig::small_test());
    assert_matches(&initial, SMALL_INITIAL, "small_test initial run");
    assert_matches(
        &advanced,
        SMALL_ADVANCED,
        "small_test after two window steps",
    );
}

#[test]
fn paper_scale_reports_match_golden() {
    let (initial, advanced) = snapshots(&SynthConfig::paper_scale());
    let h = fnv1a(fnv1a(FNV_OFFSET, initial.as_bytes()), advanced.as_bytes());
    assert_eq!(
        h, 3_533_851_450_018_142_663,
        "paper_scale reports drifted from the golden"
    );
}
