//! CI benchmark smoke run: serial-vs-parallel timings with a JSON artifact.
//!
//! Runs the expansion pipeline on the synthetic Dublin dataset, then:
//!
//! * times the hot CSR sweeps (Louvain and PageRank) at 1 worker thread
//!   and at the parallel thread count, *verifying the results are
//!   bit-identical* (the scheduler's determinism contract — any
//!   divergence panics, failing CI);
//! * times **graph construction** both ways — the hash-map reference
//!   builder-freeze path against the columnar sort-merge build, both fed
//!   from the trip table, at 1 and N threads — verifying the two paths
//!   produce identical frozen graphs;
//! * times **incremental ingestion** — applying a small trip batch as a
//!   `CsrDelta` against rebuilding the graphs from the concatenated
//!   table, *verifying the delta output is bit-identical to the rebuild*
//!   (the PR 4 equivalence contract — any divergence panics, failing CI);
//! * times the **windowed lifecycle** — `advance_window` (evict + ingest)
//!   and `apply_window_all` against one-shot rebuilds over the surviving
//!   rows, *verifying the windowed state is bit-identical to the rebuild*
//!   (the PR 7 equivalence contract), plus seeded vs cold Louvain on the
//!   post-window `GHour` graph (seeded modularity must not fall below
//!   cold — any loss panics, failing CI);
//! * times the **hot sweep kernels** (PR 8) — one PageRank pull
//!   iteration and one Louvain first-pass neighbour accumulation —
//!   scalar vs batched loop shapes, reporting per-iteration ns/edge for
//!   both and *verifying the batching contracts* (the batched Louvain
//!   tally must match the scalar tally bit-for-bit; the batched pull fold
//!   must stay within reassociation tolerance of the scalar fold);
//! * at `--scale large`, runs the **city tier**: streams ≥1 M synthetic
//!   trips over ≥10 k stations through the streaming cleaner, then builds
//!   the station and temporal graphs **sharded and unsharded**, verifying
//!   the two are bit-identical and reporting wall time per stage plus
//!   peak RSS (the pipeline sections drop to `medium` — the expansion
//!   algorithms are sized for the paper's data, not city scale); the
//!   sweep kernels then also run on the city station graph;
//! * times the **serving layer** (PR 9) — a mixed query stream
//!   (station lookup, k-nearest, community, PageRank, degree summaries)
//!   through the fixed-size `QueryPool` while a background
//!   `SnapshotWriter` continuously ingests and advances the window,
//!   reporting sustained QPS and p50/p99 latency, *verifying the served
//!   snapshot is bit-identical to an offline rebuild* over the writer's
//!   final trip table (any divergence panics, failing CI);
//! * verifies the **out-of-core construction contract** (PR 10) at every
//!   scale — a forced-spill build (budget 0) of all three temporal
//!   graphs against the in-memory build, bit-for-bit — and at `--scale
//!   large` additionally runs the **spill tier**: the city pipeline
//!   (generate → clean → temporal builds) once fully in memory and once
//!   through the spooled + spilled out-of-core path, each in its *own
//!   child process* so the per-mode peak RSS is honest (`VmHWM` is a
//!   process-lifetime high-water mark — measuring both modes in one
//!   process would report the in-memory peak for both), panicking unless
//!   the two builds' graph fingerprints agree;
//!
//! and writes the timings to a `BENCH_*.json` file
//! (`moby-bench-smoke/v8`: every section row carries the `scale` it ran
//! at and the process peak RSS when it finished) that the `bench-smoke`
//! CI job uploads as a workflow artifact and gates with `bench_check`.
//! This is where the repo's perf trajectory accumulates from PR 2 onward.
//!
//! ```text
//! cargo run --release -p moby-bench --bin bench_smoke -- \
//!     [--scale small|medium|paper|large] [--threads N] [--shards S] \
//!     [--out BENCH_latest.json]
//! ```
//!
//! `--scale` defaults to the `MOBY_BENCH_SCALE` environment variable and
//! then to `medium`; the large tier's trip count scales with
//! `MOBY_CITY_TRIPS` (up to 10 M).

use moby_bench::{city_config, peak_rss_kb, run_pipeline, Scale};
use moby_community::{louvain_csr, louvain_seeded, modularity_csr_threads, LouvainConfig};
use moby_core::temporal::{
    apply_batch_all, apply_window_all, build_all_from_spool, build_all_from_trips,
    build_all_from_trips_sharded, build_all_from_trips_spilled, reference_graph,
    TemporalGranularity, TemporalGraph,
};
use moby_data::clean::{clean_trip_stream, clean_trip_stream_spooled};
use moby_data::synth::city_trip_stream;
use moby_data::trips::WindowStart;
use moby_data::trips::{TripBatch, TripTable};
use moby_graph::metrics::{pagerank_csr, PageRankConfig};
use moby_graph::{build_dense_csr, build_dense_csr_sharded, par, CsrDelta, CsrGraph};
use moby_server::{QueryPool, Request, ServeConfig, SnapshotWriter, WriteOp};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per measurement; the minimum is reported.
const REPS: usize = 3;

/// Rep count for the sub-millisecond sweep kernels (see [`time_min_rr`]).
const SWEEP_REPS: usize = 50;

struct SmokeResult {
    name: String,
    nodes: usize,
    edges: usize,
    serial_ms: f64,
    parallel_ms: f64,
}

impl SmokeResult {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

fn time_min<F: FnMut()>(mut f: F) -> f64 {
    let [best] = time_min_rr(REPS, |_| f());
    best
}

/// [`time_min`] over a family of variants, round-robin interleaved: each
/// rep times every variant once, back to back, and per-variant minima are
/// taken across reps. The sweep kernels run for fractions of a
/// millisecond, so a load spike on a shared host would corrupt a whole
/// per-variant timing block — interleaving makes every variant sample the
/// same load profile, so the *ratios* between them stay meaningful even
/// when absolute wall times wobble.
fn time_min_rr<const K: usize, F: FnMut(usize)>(reps: usize, mut f: F) -> [f64; K] {
    let mut best = [f64::INFINITY; K];
    for _ in 0..reps {
        for (k, slot) in best.iter_mut().enumerate() {
            let start = Instant::now();
            f(k);
            *slot = slot.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    best
}

/// Construction timings for one graph: the hash-map reference
/// builder-freeze path against the columnar sort-merge build.
struct ConstructionResult {
    name: String,
    nodes: usize,
    edges: usize,
    hashmap_ms: f64,
    sortmerge_1t_ms: f64,
    sortmerge_nt_ms: f64,
}

impl ConstructionResult {
    fn speedup_vs_hashmap(&self) -> f64 {
        if self.sortmerge_1t_ms > 0.0 {
            self.hashmap_ms / self.sortmerge_1t_ms
        } else {
            0.0
        }
    }
}

/// Time the construction of all three temporal graphs: the hash-map
/// reference (per-granularity builders over the trip table + freeze) vs
/// one columnar pass over the trip table + sort-merge builds. Panics if
/// the two paths — or any two thread counts — disagree on a single bit of
/// the frozen graphs.
fn smoke_temporal_construction(
    outcome: &moby_core::pipeline::ExpansionOutcome,
    threads: usize,
) -> ConstructionResult {
    let trips = &outcome.selected.trips;
    let build_reference = |g: TemporalGranularity| reference_graph(trips, g, false).0.freeze();

    let serial = build_all_from_trips(trips, None, Some(1));
    let parallel = build_all_from_trips(trips, None, Some(threads));
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            build_reference(s.granularity),
            s.csr,
            "{:?}: columnar construction diverged from the builder-freeze path",
            s.granularity
        );
        assert_eq!(
            s.csr, p.csr,
            "{:?}: parallel construction diverged from serial — determinism contract broken",
            s.granularity
        );
    }

    let hashmap_ms = time_min(|| {
        for &g in &TemporalGranularity::ALL {
            std::hint::black_box(build_reference(g));
        }
    });
    let sortmerge_1t_ms = time_min(|| {
        std::hint::black_box(build_all_from_trips(trips, None, Some(1)));
    });
    let sortmerge_nt_ms = time_min(|| {
        std::hint::black_box(build_all_from_trips(trips, None, Some(threads)));
    });
    ConstructionResult {
        name: "construct/temporal_all".into(),
        nodes: serial.iter().map(|t| t.csr.node_count()).sum(),
        edges: serial.iter().map(|t| t.csr.edge_count()).sum(),
        hashmap_ms,
        sortmerge_1t_ms,
        sortmerge_nt_ms,
    }
}

/// Time the directed trip-graph construction both ways (hash-map reference
/// + freeze vs seeded sort-merge build), verifying identity.
fn smoke_directed_construction(
    outcome: &moby_core::pipeline::ExpansionOutcome,
    threads: usize,
) -> ConstructionResult {
    let trips = &outcome.selected.trips;
    // The exact build the pipeline performs: dense trip columns over the
    // shared station-intern table, no re-interning.
    let build_sortmerge = |t: usize| {
        build_dense_csr(
            true,
            trips.station_ids().to_vec(),
            trips.src(),
            trips.dst(),
            trips.weights(),
            Some(t),
        )
    };
    let build_reference = || {
        reference_graph(trips, TemporalGranularity::TNull, true)
            .0
            .freeze()
    };
    let reference = build_reference();
    assert_eq!(
        reference,
        build_sortmerge(1),
        "directed trip graph: columnar construction diverged from the builder-freeze path"
    );
    assert_eq!(
        build_sortmerge(1),
        build_sortmerge(threads),
        "directed trip graph: parallel construction diverged from serial"
    );
    let hashmap_ms = time_min(|| {
        std::hint::black_box(build_reference());
    });
    let sortmerge_1t_ms = time_min(|| {
        std::hint::black_box(build_sortmerge(1));
    });
    let sortmerge_nt_ms = time_min(|| {
        std::hint::black_box(build_sortmerge(threads));
    });
    ConstructionResult {
        name: "construct/directed_trips".into(),
        nodes: reference.node_count(),
        edges: reference.edge_count(),
        hashmap_ms,
        sortmerge_1t_ms,
        sortmerge_nt_ms,
    }
}

/// Timings for incremental ingestion: applying a small trip batch as a
/// delta against rebuilding from the concatenated table.
struct DeltaResult {
    name: String,
    base_rows: usize,
    batch_rows: usize,
    nodes: usize,
    edges: usize,
    apply_ms: f64,
    rebuild_ms: f64,
}

impl DeltaResult {
    fn speedup_vs_rebuild(&self) -> f64 {
        if self.apply_ms > 0.0 {
            self.rebuild_ms / self.apply_ms
        } else {
            0.0
        }
    }
}

/// Split the pipeline's trip table into a base and a small trailing
/// batch, then time delta-apply against full rebuild for the directed
/// trip graph and for all three temporal graphs — panicking unless every
/// delta output is **bit-identical** to the one-shot rebuild (the PR 4
/// equivalence contract).
fn smoke_delta(
    outcome: &moby_core::pipeline::ExpansionOutcome,
    threads: usize,
) -> Vec<DeltaResult> {
    let full = &outcome.selected.trips;
    let m = full.len();
    let batch_rows = (m / 64).max(1).min(m);
    let base_rows = m - batch_rows;
    let mut base = TripTable::new(full.station_ids().to_vec());
    for k in 0..base_rows {
        base.push_keyed(
            full.src()[k],
            full.dst()[k],
            full.day()[k],
            full.hour()[k],
            full.weights()[k],
        );
    }
    let mut batch = TripBatch::new();
    for k in base_rows..m {
        batch.push_keyed(
            full.station_id(full.src()[k]),
            full.station_id(full.dst()[k]),
            full.day()[k],
            full.hour()[k],
            full.weights()[k],
        );
    }

    // The appended table must reproduce the pipeline's table exactly.
    let mut appended = base.clone();
    let append_outcome = appended.append_batch(&batch);
    assert_eq!(
        &appended, full,
        "incremental append diverged from the one-pass trip table"
    );

    // --- Directed trip graph: delta vs rebuild. ---
    let build_directed = |t: &TripTable, threads: usize| {
        build_dense_csr(
            true,
            t.station_ids().to_vec(),
            t.src(),
            t.dst(),
            t.weights(),
            Some(threads),
        )
    };
    let base_directed = build_directed(&base, threads);
    let bs = append_outcome.batch_start;
    let apply_directed = || {
        let delta = CsrDelta::from_dense(
            true,
            appended.station_ids().to_vec(),
            append_outcome.old_to_new.clone(),
            &appended.src()[bs..],
            &appended.dst()[bs..],
            &appended.weights()[bs..],
        );
        base_directed.apply_delta(&delta, Some(threads))
    };
    let rebuilt = build_directed(&appended, threads);
    let applied = apply_directed();
    assert_eq!(
        applied, rebuilt,
        "directed trip graph: delta apply diverged from full rebuild"
    );
    assert_eq!(
        applied.total_weight().to_bits(),
        rebuilt.total_weight().to_bits(),
        "directed trip graph: total weight bits diverged"
    );
    let mut results = vec![DeltaResult {
        name: "delta/directed_trips".into(),
        base_rows,
        batch_rows,
        nodes: rebuilt.node_count(),
        edges: rebuilt.edge_count(),
        apply_ms: time_min(|| {
            std::hint::black_box(apply_directed());
        }),
        rebuild_ms: time_min(|| {
            std::hint::black_box(build_directed(&appended, threads));
        }),
    }];

    // --- All three temporal graphs: one batch pass vs one-shot build. ---
    // `apply_batch_all` consumes its inputs (layer maps move instead of
    // cloning), so each timed invocation draws a pre-made clone from a
    // pool — the clone cost stays outside the measurement.
    let base_temporals = build_all_from_trips(&base, None, Some(threads));
    let advanced = apply_batch_all(
        base_temporals.clone(),
        &appended,
        &append_outcome,
        None,
        Some(threads),
    );
    let rebuilt_temporals = build_all_from_trips(&appended, None, Some(threads));
    for (got, want) in advanced.iter().zip(&rebuilt_temporals) {
        assert_eq!(
            got.csr, want.csr,
            "{:?}: temporal delta diverged from full rebuild",
            got.granularity
        );
        assert_eq!(
            got.layer_map, want.layer_map,
            "{:?}: temporal layer map diverged",
            got.granularity
        );
    }
    let mut pool: Vec<_> = (0..REPS).map(|_| base_temporals.clone()).collect();
    results.push(DeltaResult {
        name: "delta/temporal_all".into(),
        base_rows,
        batch_rows,
        nodes: rebuilt_temporals.iter().map(|t| t.csr.node_count()).sum(),
        edges: rebuilt_temporals.iter().map(|t| t.csr.edge_count()).sum(),
        apply_ms: time_min(|| {
            let input = pool.pop().expect("one pre-made clone per rep");
            std::hint::black_box(apply_batch_all(
                input,
                &appended,
                &append_outcome,
                None,
                Some(threads),
            ));
        }),
        rebuild_ms: time_min(|| {
            std::hint::black_box(build_all_from_trips(&appended, None, Some(threads)));
        }),
    });
    results
}

/// Timings for one windowed-lifecycle stage: incremental advance against
/// a one-shot rebuild over the surviving rows.
struct WindowResult {
    name: String,
    evicted_rows: usize,
    batch_rows: usize,
    nodes: usize,
    edges: usize,
    apply_ms: f64,
    rebuild_ms: f64,
}

impl WindowResult {
    fn speedup_vs_rebuild(&self) -> f64 {
        if self.apply_ms > 0.0 {
            self.rebuild_ms / self.apply_ms
        } else {
            0.0
        }
    }
}

/// Seeded vs cold Louvain on the post-window `GHour` graph.
struct WindowLouvain {
    nodes: usize,
    edges: usize,
    seeded_ms: f64,
    cold_ms: f64,
    q_seeded: f64,
    q_cold: f64,
}

impl WindowLouvain {
    fn speedup_vs_cold(&self) -> f64 {
        if self.seeded_ms > 0.0 {
            self.cold_ms / self.seeded_ms
        } else {
            0.0
        }
    }
}

/// Run the windowed-lifecycle section: slide the selected network's trip
/// window (evicting the first two weekdays while a small replayed batch
/// rides along), timing `advance_window` and `apply_window_all` against
/// one-shot rebuilds over the surviving table — panicking unless the
/// windowed state is **bit-identical** to the rebuilds (the PR 7
/// equivalence contract) — then seeded vs cold Louvain on the post-window
/// `GHour` graph, panicking if seeding loses modularity to the cold run.
fn smoke_window(
    outcome: &moby_core::pipeline::ExpansionOutcome,
    threads: usize,
) -> (Vec<WindowResult>, WindowLouvain) {
    let selected = &outcome.selected;
    let pre_trips = &selected.trips;
    let pre_temporals = build_all_from_trips(pre_trips, None, Some(threads));

    // The window slides by one hour — the live-deployment cadence this
    // path exists for (gentle shifts evict a sliver of the table and
    // keep the previous partition a good seed); the batch replays the
    // table's trailing rows (station set unchanged, like the delta
    // section). Heavier evictions are exercised by the differential
    // proptest suite, not timed here.
    let window = WindowStart::new(0, 1);
    let m = pre_trips.len();
    let batch_rows = (m / 64).max(1).min(m);
    let mut batch = TripBatch::new();
    for k in (m - batch_rows)..m {
        batch.push_keyed(
            pre_trips.station_id(pre_trips.src()[k]),
            pre_trips.station_id(pre_trips.dst()[k]),
            pre_trips.day()[k],
            pre_trips.hour()[k],
            pre_trips.weights()[k],
        );
    }

    let mut net = selected.clone();
    let wo = net
        .advance_window(&batch, window, Some(threads))
        .expect("batch endpoints come from the network itself");
    let evicted_rows = wo.evicted.evicted_rows();
    assert!(evicted_rows > 0, "window section: nothing expired");

    // --- Station graphs: advance_window vs rebuild over survivors. ---
    let rebuild_station = |dir: bool| {
        build_dense_csr(
            dir,
            net.trips.station_ids().to_vec(),
            net.trips.src(),
            net.trips.dst(),
            net.trips.weights(),
            Some(threads),
        )
    };
    for (dir, got) in [(true, &net.directed), (false, &net.undirected)] {
        let want = rebuild_station(dir);
        assert_eq!(
            got, &want,
            "window: advance_window diverged from a rebuild over the surviving rows"
        );
        assert_eq!(
            got.total_weight().to_bits(),
            want.total_weight().to_bits(),
            "window: total weight bits diverged from the rebuild"
        );
    }
    // The rebuild baseline reconstructs every piece of state the advance
    // maintained in place: the surviving trip table and both frozen trip
    // graphs. (Table III is excluded — the advance pays that extra cost
    // on top.)
    let rebuild_station_state = || {
        let mut t = TripTable::new(net.trips.station_ids().to_vec());
        for k in 0..net.trips.len() {
            t.push_keyed(
                net.trips.src()[k],
                net.trips.dst()[k],
                net.trips.day()[k],
                net.trips.hour()[k],
                net.trips.weights()[k],
            );
        }
        let d = build_dense_csr(
            true,
            t.station_ids().to_vec(),
            t.src(),
            t.dst(),
            t.weights(),
            Some(threads),
        );
        let u = build_dense_csr(
            false,
            t.station_ids().to_vec(),
            t.src(),
            t.dst(),
            t.weights(),
            Some(threads),
        );
        (t, d, u)
    };
    let mut pool: Vec<_> = (0..REPS).map(|_| selected.clone()).collect();
    let mut results = vec![WindowResult {
        name: "window/advance_window".into(),
        evicted_rows,
        batch_rows,
        nodes: net.directed.node_count(),
        edges: net.directed.edge_count() + net.undirected.edge_count(),
        apply_ms: time_min(|| {
            let mut n = pool.pop().expect("one pre-made clone per rep");
            std::hint::black_box(n.advance_window(&batch, window, Some(threads)).unwrap());
        }),
        rebuild_ms: time_min(|| {
            std::hint::black_box(rebuild_station_state());
        }),
    }];

    // --- Temporal graphs: apply_window_all vs rebuild over survivors. ---
    let advanced = apply_window_all(pre_temporals.clone(), &net.trips, &wo, None, Some(threads));
    let rebuilt = build_all_from_trips(&net.trips, None, Some(threads));
    for (got, want) in advanced.iter().zip(&rebuilt) {
        assert_eq!(
            got.csr, want.csr,
            "{:?}: windowed temporal advance diverged from full rebuild",
            got.granularity
        );
        assert_eq!(
            got.layer_map, want.layer_map,
            "{:?}: windowed temporal layer map diverged",
            got.granularity
        );
    }
    let mut pool: Vec<_> = (0..REPS).map(|_| pre_temporals.clone()).collect();
    results.push(WindowResult {
        name: "window/temporal_all".into(),
        evicted_rows,
        batch_rows,
        nodes: rebuilt.iter().map(|t| t.csr.node_count()).sum(),
        edges: rebuilt.iter().map(|t| t.csr.edge_count()).sum(),
        apply_ms: time_min(|| {
            let input = pool.pop().expect("one pre-made clone per rep");
            std::hint::black_box(apply_window_all(
                input,
                &net.trips,
                &wo,
                None,
                Some(threads),
            ));
        }),
        rebuild_ms: time_min(|| {
            std::hint::black_box(build_all_from_trips(&net.trips, None, Some(threads)));
        }),
    });

    // --- Seeded vs cold Louvain on the post-window GHour graph. ---
    let cfg = LouvainConfig {
        threads: Some(threads),
        ..Default::default()
    };
    let pre_ghour = &pre_temporals[2].csr;
    let post_ghour = &rebuilt[2].csr;
    let seed = louvain_csr(pre_ghour, &cfg);
    let seeded = louvain_seeded(post_ghour, &seed, &cfg);
    let cold = louvain_csr(post_ghour, &cfg);
    let q_seeded = modularity_csr_threads(post_ghour, &seeded, Some(threads));
    let q_cold = modularity_csr_threads(post_ghour, &cold, Some(threads));
    // Two gates. Hard: the seeded run must reach the cold run's quality
    // to within 0.1% relative — greedy local moving from different starts
    // can settle in marginally different basins, so exact dominance over
    // cold is not a theorem, but anything beyond basin noise means the
    // seeding collapsed. (The guaranteed floor — seeded Q never below the
    // seed partition's Q on the new graph — is enforced by the
    // `moby-community` and `moby-core` test suites.)
    assert!(
        q_seeded >= q_cold - 1e-3 * q_cold.abs().max(1e-3),
        "window: seeded Louvain collapsed below the cold run \
         ({q_seeded} vs {q_cold})"
    );
    let louvain = WindowLouvain {
        nodes: post_ghour.node_count(),
        edges: post_ghour.edge_count(),
        seeded_ms: time_min(|| {
            std::hint::black_box(louvain_seeded(post_ghour, &seed, &cfg));
        }),
        cold_ms: time_min(|| {
            std::hint::black_box(louvain_csr(post_ghour, &cfg));
        }),
        q_seeded,
        q_cold,
    };

    // --- The end-to-end comparison the window exists for: advancing all
    // state incrementally vs rebuilding everything and re-detecting cold.
    let apply_total = results[0].apply_ms + results[1].apply_ms + louvain.seeded_ms;
    let rebuild_total = results[0].rebuild_ms + results[1].rebuild_ms + louvain.cold_ms;
    results.push(WindowResult {
        name: "window/total".into(),
        evicted_rows,
        batch_rows,
        nodes: net.directed.node_count(),
        edges: net.directed.edge_count(),
        apply_ms: apply_total,
        rebuild_ms: rebuild_total,
    });
    (results, louvain)
}

/// One timed stage of the city-scale (`large`) tier.
struct LargeStage {
    name: String,
    /// Rows flowing through the stage (trips for generation/cleaning,
    /// 0 where the stage consumes an already-built table).
    rows: usize,
    nodes: usize,
    edges: usize,
    wall_ms: f64,
    /// Process peak RSS (kB) sampled when the stage finished; 0 means
    /// "not measured" (non-Linux hosts, or an unparseable `VmHWM` line).
    peak_rss_kb: u64,
    /// Graph heap footprint the stage produced, in bytes (0 for
    /// non-graph stages).
    graph_bytes: usize,
}

/// Run the city tier: stream-generate and clean ≥1 M trips over ≥10 k
/// stations, then build the station graph **unsharded and sharded**
/// (panicking unless the two frozen graphs are bit-identical — the shard
/// independence contract) and the three temporal graphs through the
/// sharded path. Stages run once, not `REPS` times — at 1 M+ rows a
/// single pass is already well above timer noise, and the tier's point
/// is the memory/scale story, not microsecond-stable medians. Also
/// returns the frozen city station graph so the sweep section can run
/// its kernels at city scale.
fn smoke_large(threads: usize, shards: usize) -> (Vec<LargeStage>, CsrGraph) {
    let cfg = city_config();
    let mut stages = Vec::new();

    println!(
        "city tier: {} stations, {} zones, {} trips, {shards} shards ...",
        cfg.stations, cfg.zones, cfg.trips
    );
    let start = Instant::now();
    let stations = cfg.station_ids();
    let (table, report) = clean_trip_stream(stations, cfg.trips as usize, city_trip_stream(&cfg));
    stages.push(LargeStage {
        name: "large/generate_clean".into(),
        rows: report.rows_seen,
        nodes: table.station_ids().len(),
        edges: 0,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        graph_bytes: 0,
    });
    println!(
        "  cleaned {} rows ({} dropped: unknown endpoint) in {:.1?}",
        report.rows_kept,
        report.unknown_endpoint,
        start.elapsed()
    );

    let build_station = |shards: Option<usize>| {
        build_dense_csr_sharded(
            false,
            table.station_ids().to_vec(),
            table.src(),
            table.dst(),
            table.weights(),
            shards,
            Some(threads),
        )
    };
    let start = Instant::now();
    let unsharded = build_station(Some(1));
    stages.push(LargeStage {
        name: "large/build_unsharded".into(),
        rows: table.len(),
        nodes: unsharded.node_count(),
        edges: unsharded.edge_count(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        graph_bytes: unsharded.heap_bytes(),
    });

    let start = Instant::now();
    let sharded = build_station(Some(shards));
    stages.push(LargeStage {
        name: format!("large/build_sharded_{shards}"),
        rows: table.len(),
        nodes: sharded.node_count(),
        edges: sharded.edge_count(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        graph_bytes: sharded.heap_bytes(),
    });
    assert_eq!(
        sharded, unsharded,
        "city tier: sharded station build diverged from unsharded — \
         shard independence contract broken"
    );
    assert_eq!(
        sharded.total_weight().to_bits(),
        unsharded.total_weight().to_bits(),
        "city tier: total weight bits diverged between shard counts"
    );

    let start = Instant::now();
    let temporals =
        build_all_from_trips_sharded(&table, Some(&sharded), Some(shards), Some(threads));
    stages.push(LargeStage {
        name: "large/temporal_sharded".into(),
        rows: table.len(),
        nodes: temporals.iter().map(|t| t.csr.node_count()).sum(),
        edges: temporals.iter().map(|t| t.csr.edge_count()).sum(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        graph_bytes: temporals.iter().map(|t| t.csr.heap_bytes()).sum(),
    });
    (stages, sharded)
}

/// Default spill budget (MB) for the spill tier when `MOBY_SPILL_BUDGET_MB`
/// is not set: well under the city tier's in-memory scatter footprint, so
/// the out-of-core path genuinely engages.
const SPILL_DEFAULT_BUDGET_MB: u64 = 128;

/// The spill budget (MB) the spill tier reports and the child probes run
/// under.
fn spill_budget_mb() -> u64 {
    std::env::var("MOBY_SPILL_BUDGET_MB")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(SPILL_DEFAULT_BUDGET_MB)
}

/// One row of the spill tier: the full city pipeline in one mode
/// (in-memory or spooled + spilled), run in its own child process.
struct SpillStage {
    name: String,
    /// Cleaned trip rows flowing into the builds.
    rows: usize,
    nodes: usize,
    edges: usize,
    wall_ms: f64,
    /// The child process's peak RSS (kB); 0 means "not measured".
    peak_rss_kb: u64,
    /// Budget the mode ran under (0 for the unbudgeted in-memory mode).
    budget_mb: u64,
    /// FNV-1a-64 fingerprint of the three frozen temporal graphs.
    fingerprint: u64,
}

/// FNV-1a-64 over a byte slice, continuing from `h`.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a-64 fingerprint of the three temporal graphs, covering every
/// bit that the equality contract covers: node ids, offsets, targets,
/// weight bits, total-weight bits and edge counts, in granularity order.
/// Two processes that build bit-identical graphs produce the same value;
/// any single differing bit changes it.
fn fingerprint_temporals(temporals: &[TemporalGraph]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in temporals {
        let g = &t.csr;
        for &id in g.node_ids() {
            h = fnv1a(h, &id.to_le_bytes());
        }
        for &o in g.offsets() {
            h = fnv1a(h, &o.to_le_bytes());
        }
        for v in 0..g.node_count() {
            let (targets, weights) = g.row(v);
            for (&t, &w) in targets.iter().zip(weights) {
                h = fnv1a(h, &t.to_le_bytes());
                h = fnv1a(h, &w.to_bits().to_le_bytes());
            }
        }
        h = fnv1a(h, &g.total_weight().to_bits().to_le_bytes());
        h = fnv1a(h, &(g.edge_count() as u64).to_le_bytes());
    }
    h
}

/// Child-process body of the spill tier (`--city-probe inmem|spill`):
/// run the city pipeline end to end in one mode, print a single
/// machine-readable line and exit. Runs in a separate process so that
/// `VmHWM` — a process-lifetime high-water mark — reports *this mode's*
/// peak and nothing else's.
fn run_city_probe(mode: &str, threads: usize, shards: usize) -> ! {
    let cfg = city_config();
    let stations = cfg.station_ids();
    let budget_mb = spill_budget_mb();
    let start = Instant::now();
    let (temporals, rows, budget_mb) = match mode {
        "inmem" => {
            let (table, report) =
                clean_trip_stream(stations, cfg.trips as usize, city_trip_stream(&cfg));
            let t = build_all_from_trips_sharded(&table, None, Some(shards), Some(threads));
            (t, report.rows_kept, 0)
        }
        "spill" => {
            // The out-of-core arm end to end: cleaned rows spool to disk
            // instead of materialising a trip table, and the builds read
            // the spool back shard by shard through the spill path.
            let (spool, report) = clean_trip_stream_spooled(stations, city_trip_stream(&cfg), None)
                .expect("city probe: spooling the cleaned trips failed");
            let t = build_all_from_spool(&spool, Some(shards), Some(threads), None)
                .expect("city probe: spilled build failed");
            (t, report.rows_kept, budget_mb)
        }
        other => {
            eprintln!("unknown city probe mode '{other}'; expected inmem|spill");
            std::process::exit(2);
        }
    };
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    println!(
        "CITY_PROBE mode={mode} rows={rows} nodes={} edges={} wall_ms={wall_ms:.3} \
         peak_rss_kb={} budget_mb={budget_mb} fingerprint={:016x}",
        temporals.iter().map(|t| t.csr.node_count()).sum::<usize>(),
        temporals.iter().map(|t| t.csr.edge_count()).sum::<usize>(),
        peak_rss_kb().unwrap_or(0),
        fingerprint_temporals(&temporals),
    );
    std::process::exit(0)
}

/// Pull one `key=value` field out of a `CITY_PROBE` line.
fn probe_field<'a>(line: &'a str, key: &str) -> &'a str {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
        .unwrap_or_else(|| panic!("city probe line missing `{key}`: {line}"))
}

/// Run the spill tier: spawn this same binary twice as `--city-probe`
/// children (in-memory, then spooled + spilled), parse their summary
/// lines, and panic unless the two modes' graph fingerprints agree — the
/// spilled-vs-in-memory bit-identity contract, asserted across a process
/// boundary.
fn smoke_spill(threads: usize, shards: usize) -> Vec<SpillStage> {
    let exe = std::env::current_exe().expect("resolving the bench_smoke binary path");
    let mut stages = Vec::new();
    for mode in ["inmem", "spill"] {
        println!("  spawning city {mode} probe ...");
        let out = std::process::Command::new(&exe)
            .args([
                "--city-probe",
                mode,
                "--threads",
                &threads.to_string(),
                "--shards",
                &shards.to_string(),
            ])
            .output()
            .expect("spawning the city probe child process");
        assert!(
            out.status.success(),
            "city {mode} probe failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let stdout = String::from_utf8_lossy(&out.stdout);
        let line = stdout
            .lines()
            .find(|l| l.starts_with("CITY_PROBE"))
            .unwrap_or_else(|| panic!("city {mode} probe printed no CITY_PROBE line:\n{stdout}"));
        let field = |key: &str| probe_field(line, key);
        stages.push(SpillStage {
            name: format!(
                "spill/city_build_{}",
                if mode == "spill" { "spilled" } else { mode }
            ),
            rows: field("rows").parse().expect("probe rows"),
            nodes: field("nodes").parse().expect("probe nodes"),
            edges: field("edges").parse().expect("probe edges"),
            wall_ms: field("wall_ms").parse().expect("probe wall_ms"),
            peak_rss_kb: field("peak_rss_kb").parse().expect("probe peak_rss_kb"),
            budget_mb: field("budget_mb").parse().expect("probe budget_mb"),
            fingerprint: u64::from_str_radix(field("fingerprint"), 16).expect("probe fingerprint"),
        });
    }
    assert_eq!(
        stages[0].fingerprint, stages[1].fingerprint,
        "city tier: spilled build fingerprint diverged from in-memory — \
         spilled-vs-in-memory bit-identity contract broken"
    );
    stages
}

/// Assert the spilled-vs-in-memory contract at pipeline scale: a forced
/// spill (budget 0) of all three temporal graphs must be bit-identical
/// to the in-memory build. Cheap enough to run at every scale; the
/// large tier's child probes assert the same contract again at city
/// scale across a process boundary.
fn assert_spill_contract(outcome: &moby_core::pipeline::ExpansionOutcome, threads: usize) {
    let trips = &outcome.selected.trips;
    let spilled = build_all_from_trips_spilled(trips, None, None, Some(threads), Some(0), None)
        .expect("forced-spill build failed");
    let inmem = build_all_from_trips(trips, None, Some(threads));
    for (s, m) in spilled.iter().zip(&inmem) {
        assert_eq!(
            s.csr, m.csr,
            "{:?}: spilled construction diverged from in-memory — \
             spill bit-identity contract broken",
            s.granularity
        );
        assert_eq!(
            s.csr.total_weight().to_bits(),
            m.csr.total_weight().to_bits(),
            "{:?}: total weight bits diverged between spilled and in-memory builds",
            s.granularity
        );
    }
}

/// Per-variant wall times for one hot sweep kernel (PR 8): a single full
/// pass over every row, scalar vs batched loop shape. The JSON derives
/// per-iteration ns/edge from these. Unlike the serial-vs-parallel columns, the ratios here compare
/// equal-thread single sweeps, so they stay meaningful on a single-core
/// host and are never suppressed.
struct SweepResult {
    name: String,
    scale: String,
    nodes: usize,
    /// Edge slots one sweep traverses (total row storage entries).
    edges: usize,
    scalar_natural_ms: f64,
    batched_natural_ms: f64,
}

impl SweepResult {
    fn ns_per_edge(&self, ms: f64) -> f64 {
        if self.edges > 0 {
            ms * 1e6 / self.edges as f64
        } else {
            0.0
        }
    }

    fn speedup_batched(&self) -> f64 {
        if self.batched_natural_ms > 0.0 {
            self.scalar_natural_ms / self.batched_natural_ms
        } else {
            0.0
        }
    }
}

/// One PageRank pull iteration in the pre-PR 8 loop shape: a serial
/// per-edge accumulation over every in-row.
fn pull_sweep_scalar(g: &CsrGraph, contrib: &[f64], out: &mut [f64]) {
    for v in 0..g.node_count() {
        let (sources, weights) = g.in_row(v);
        let mut acc = 0.0f64;
        for (&s, &w) in sources.iter().zip(weights) {
            acc += w * contrib[s as usize];
        }
        out[v] = acc;
    }
}

/// The same pull iteration through the production 4-lane batched fold
/// (the shape of `row_dot` in `moby-graph`): position-assigned lane sums
/// folded `(l0 + l1) + (l2 + l3)`, so the result is a pure function of
/// row positions.
fn pull_sweep_batched(g: &CsrGraph, contrib: &[f64], out: &mut [f64]) {
    for v in 0..g.node_count() {
        let (sources, weights) = g.in_row(v);
        let mut lanes = [0.0f64; 4];
        let mut st = sources.chunks_exact(4);
        let mut wt = weights.chunks_exact(4);
        for (t, w) in (&mut st).zip(&mut wt) {
            lanes[0] += w[0] * contrib[t[0] as usize];
            lanes[1] += w[1] * contrib[t[1] as usize];
            lanes[2] += w[2] * contrib[t[2] as usize];
            lanes[3] += w[3] * contrib[t[3] as usize];
        }
        for (i, (&t, &w)) in st.remainder().iter().zip(wt.remainder()).enumerate() {
            lanes[i] += w * contrib[t as usize];
        }
        out[v] = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    }
}

/// Louvain first-pass neighbour accumulation, scalar shape: for every
/// node, scatter neighbour weights into a dense per-label scratch
/// (skipping self-loops), pick the heaviest label (ties to the smallest)
/// and reset. Sums scatter in row position order.
fn louvain_pass_scalar(
    g: &CsrGraph,
    labels: &[u32],
    links_to: &mut [f64],
    touched: &mut Vec<u32>,
    out: &mut [f64],
) {
    for v in 0..g.node_count() {
        let (targets, weights) = g.row(v);
        for (&t, &w) in targets.iter().zip(weights) {
            if t != v as u32 {
                let l = labels[t as usize] as usize;
                if links_to[l] == 0.0 {
                    touched.push(l as u32);
                }
                links_to[l] += w;
            }
        }
        // Digest the tally as (max sum, smallest label among exact ties):
        // that pair is unique regardless of iteration order, so the result
        // needs no sort of `touched`.
        let mut best = 0.0f64;
        let mut best_l = u32::MAX;
        for &l in touched.iter() {
            let sum = links_to[l as usize];
            if sum > best || (sum == best && l < best_l) {
                best = sum;
                best_l = l;
            }
            links_to[l as usize] = 0.0;
        }
        touched.clear();
        out[v] = best;
    }
}

/// Tally one self-free row slice into the dense `links_to` scratch:
/// gather-blocks of `GATHER` labels, then a positional scatter, so the
/// accumulation order — and therefore every fold bit — matches the scalar
/// per-edge loop exactly.
fn tally_slice(
    labels: &[u32],
    ts: &[u32],
    ws: &[f64],
    links_to: &mut [f64],
    touched: &mut Vec<u32>,
) {
    const GATHER: usize = 8;
    let mut tc = ts.chunks_exact(GATHER);
    let mut wc = ws.chunks_exact(GATHER);
    let mut lbls = [0u32; GATHER];
    for (t, w) in (&mut tc).zip(&mut wc) {
        for (slot, &nbr) in lbls.iter_mut().zip(t) {
            *slot = labels[nbr as usize];
        }
        for (&l, &w) in lbls.iter().zip(w) {
            let l = l as usize;
            if links_to[l] == 0.0 {
                touched.push(l as u32);
            }
            links_to[l] += w;
        }
    }
    for (&t, &w) in tc.remainder().iter().zip(wc.remainder()) {
        let l = labels[t as usize] as usize;
        if links_to[l] == 0.0 {
            touched.push(l as u32);
        }
        links_to[l] += w;
    }
}

/// The same first-pass accumulation through the production gather-block
/// shape (the `GATHER = 8` scheme of the Louvain move scan): resolve a
/// block of labels branch-free, then scatter the weights in position
/// order — the per-label sums accumulate in exactly the scalar order, so
/// this variant is bit-identical to [`louvain_pass_scalar`].
fn louvain_pass_batched(
    g: &CsrGraph,
    labels: &[u32],
    links_to: &mut [f64],
    touched: &mut Vec<u32>,
    out: &mut [f64],
) {
    for v in 0..g.node_count() {
        let (targets, weights) = g.row(v);
        // Merged CSR rows hold each target at most once, so the self-loop
        // (if any) sits at exactly one position: find it with one branchless
        // scan and tally the self-free slice(s), instead of re-testing
        // `t != v` on every edge. Slicing preserves position order, so the
        // fold stays bit-identical to the scalar kernel, and the common
        // no-self-loop row keeps the single-slice fast path.
        match targets.iter().position(|&t| t == v as u32) {
            None => tally_slice(labels, targets, weights, links_to, touched),
            Some(i) => {
                tally_slice(labels, &targets[..i], &weights[..i], links_to, touched);
                tally_slice(
                    labels,
                    &targets[i + 1..],
                    &weights[i + 1..],
                    links_to,
                    touched,
                );
            }
        }
        // Digest the tally as (max sum, smallest label among exact ties):
        // that pair is unique regardless of iteration order, so the result
        // needs no sort of `touched`.
        let mut best = 0.0f64;
        let mut best_l = u32::MAX;
        for &l in touched.iter() {
            let sum = links_to[l as usize];
            if sum > best || (sum == best && l < best_l) {
                best = sum;
                best_l = l;
            }
            links_to[l as usize] = 0.0;
        }
        touched.clear();
        out[v] = best;
    }
}

/// Run the sweep section on one frozen graph: time a single PageRank pull
/// iteration and a single Louvain first-pass accumulation in both loop
/// shapes — panicking unless the batched Louvain tally matches the scalar
/// tally bit-for-bit and the batched pull fold stays within reassociation
/// tolerance of the scalar fold.
fn smoke_sweep(tag: &str, scale_name: &str, graph: &CsrGraph) -> Vec<SweepResult> {
    let n = graph.node_count();

    // --- PageRank pull iteration. ---
    // Deterministic, irregular per-node contributions.
    let contrib: Vec<f64> = (0..n)
        .map(|u| 0.1 + (u as f64 * 0.618_033_988_75).fract())
        .collect();
    let mut pull_s = vec![0.0f64; n];
    let mut pull_b = vec![0.0f64; n];
    pull_sweep_scalar(graph, &contrib, &mut pull_s);
    pull_sweep_batched(graph, &contrib, &mut pull_b);
    for u in 0..n {
        assert!(
            (pull_s[u] - pull_b[u]).abs() <= 1e-9 * pull_s[u].abs().max(1.0),
            "sweep/{tag}: batched pull drifted from scalar at node {u}: {} vs {}",
            pull_s[u],
            pull_b[u]
        );
    }
    let in_edges = graph
        .in_offsets()
        .last()
        .map_or(0, |&e| e as usize - graph.in_offsets()[0] as usize);
    let [pull_s_ms, pull_b_ms] = time_min_rr(SWEEP_REPS, |k| {
        match k {
            0 => pull_sweep_scalar(graph, &contrib, &mut pull_s),
            _ => pull_sweep_batched(graph, &contrib, &mut pull_b),
        }
        std::hint::black_box((&pull_s, &pull_b));
    });
    let pagerank = SweepResult {
        name: format!("sweep/pagerank_pull/{tag}"),
        scale: scale_name.to_string(),
        nodes: n,
        edges: in_edges,
        scalar_natural_ms: pull_s_ms,
        batched_natural_ms: pull_b_ms,
    };

    // --- Louvain first-pass accumulation (singleton start). ---
    let labels: Vec<u32> = (0..n as u32).collect();
    let mut links_to = vec![0.0f64; n];
    let mut touched: Vec<u32> = Vec::new();
    let mut lv_s = vec![0.0f64; n];
    let mut lv_b = vec![0.0f64; n];
    louvain_pass_scalar(graph, &labels, &mut links_to, &mut touched, &mut lv_s);
    louvain_pass_batched(graph, &labels, &mut links_to, &mut touched, &mut lv_b);
    for u in 0..n {
        assert_eq!(
            lv_s[u].to_bits(),
            lv_b[u].to_bits(),
            "sweep/{tag}: batched tally diverged from scalar at node {u}"
        );
    }
    let out_edges = graph
        .offsets()
        .last()
        .map_or(0, |&e| e as usize - graph.offsets()[0] as usize);
    let [lv_s_ms, lv_b_ms] = time_min_rr(SWEEP_REPS, |k| {
        match k {
            0 => louvain_pass_scalar(graph, &labels, &mut links_to, &mut touched, &mut lv_s),
            _ => louvain_pass_batched(graph, &labels, &mut links_to, &mut touched, &mut lv_b),
        }
        std::hint::black_box((&lv_s, &lv_b));
    });
    let louvain = SweepResult {
        name: format!("sweep/louvain_first_pass/{tag}"),
        scale: scale_name.to_string(),
        nodes: n,
        edges: out_edges,
        scalar_natural_ms: lv_s_ms,
        batched_natural_ms: lv_b_ms,
    };
    vec![pagerank, louvain]
}

/// Queries issued by the serve section, spread across the client threads.
const SERVE_QUERIES: usize = 2048;

/// The background writer keeps publishing until the query stream drains,
/// but never fewer than this many snapshots — a degenerately fast query
/// run must still race readers across real publish boundaries.
const SERVE_MIN_OPS: usize = 8;

/// One serve-section row: sustained mixed-query throughput and latency
/// percentiles against a live snapshot handle under background ingest.
struct ServeResult {
    name: String,
    workers: usize,
    queries: usize,
    publishes: usize,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Serve a mixed query stream from a [`QueryPool`] while a background
/// [`SnapshotWriter`] continuously ingests and advances the window,
/// then verify the final served snapshot is **bit-identical** to an
/// offline rebuild over the writer's final trip table (the serving
/// layer's snapshot-isolation contract — divergence panics, failing CI).
fn smoke_serve(
    outcome: &moby_core::pipeline::ExpansionOutcome,
    threads: usize,
) -> Vec<ServeResult> {
    let selected = &outcome.selected;
    let trips = &selected.trips;

    // The write stream replays the table's trailing rows (station set
    // pinned, endpoints valid by construction), alternating plain
    // ingests with gentle window advances — the live-deployment cadence.
    let m = trips.len();
    let rows = (m / 64).clamp(1, m);
    let mut batch = TripBatch::new();
    for k in (m - rows)..m {
        batch.push_keyed(
            trips.station_id(trips.src()[k]),
            trips.station_id(trips.dst()[k]),
            trips.day()[k],
            trips.hour()[k],
            trips.weights()[k],
        );
    }

    let config = ServeConfig {
        threads: Some(threads),
        ..ServeConfig::default()
    };
    let (mut writer, handle) = SnapshotWriter::new(selected.clone(), config);
    let pool = QueryPool::new(Arc::clone(&handle), threads);

    let stop = Arc::new(AtomicBool::new(false));
    let writer_thread = {
        let stop = Arc::clone(&stop);
        let batch = batch.clone();
        std::thread::spawn(move || {
            let window = WindowStart::new(0, 1);
            let mut publishes = 0usize;
            while publishes < SERVE_MIN_OPS || !stop.load(Ordering::Relaxed) {
                let op = if publishes.is_multiple_of(2) {
                    WriteOp::Ingest(batch.clone())
                } else {
                    WriteOp::Advance(batch.clone(), window)
                };
                writer
                    .apply(op)
                    .expect("replayed endpoints are always known stations");
                publishes += 1;
            }
            (writer, publishes)
        })
    };

    // Mixed query stream: each client thread round-trips its share of
    // the queries through the shared pool, so in-flight concurrency
    // equals the pool width and per-query latency is submit-to-answer.
    let stations = &selected.stations;
    let per_client = SERVE_QUERIES.div_ceil(threads.max(1));
    let started = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads.max(1))
            .map(|c| {
                let pool = &pool;
                scope.spawn(move || {
                    let mut lats = Vec::with_capacity(per_client);
                    for q in 0..per_client {
                        let s = &stations[(c + q * 7) % stations.len()];
                        let req = match q % 5 {
                            0 => Request::Station(s.id),
                            1 => Request::Nearest {
                                at: s.position,
                                k: 4,
                            },
                            2 => Request::Community(s.id),
                            3 => Request::PageRank(s.id),
                            _ => Request::Degrees {
                                directed: q.is_multiple_of(2),
                            },
                        };
                        let t = Instant::now();
                        std::hint::black_box(pool.query(req));
                        lats.push(t.elapsed().as_secs_f64() * 1e3);
                    }
                    lats
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("serve client thread panicked"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    stop.store(true, Ordering::Relaxed);
    let (writer, publishes) = writer_thread.join().expect("serve writer thread panicked");

    // Snapshot-isolation contract: the snapshot being served after the
    // last publish must be bit-identical to graphs rebuilt offline from
    // the writer's final trip table — not merely approximately equal.
    let snap = handle.current();
    assert_eq!(
        snap.epoch, publishes as u64,
        "serve: published epoch count diverged from applied ops"
    );
    let net = writer.network();
    assert_eq!(snap.trip_count, net.trips.len());
    for (dir, got) in [(true, &snap.directed), (false, &snap.undirected)] {
        let want = build_dense_csr(
            dir,
            net.trips.station_ids().to_vec(),
            net.trips.src(),
            net.trips.dst(),
            net.trips.weights(),
            Some(threads),
        );
        assert_eq!(
            got, &want,
            "serve: served snapshot diverged from an offline rebuild"
        );
        assert_eq!(
            got.total_weight().to_bits(),
            want.total_weight().to_bits(),
            "serve: total weight bits diverged from the offline rebuild"
        );
    }

    latencies.sort_by(f64::total_cmp);
    let pct = |q: f64| latencies[(((latencies.len() - 1) as f64) * q).round() as usize];
    vec![ServeResult {
        name: "serve/mixed_queries".into(),
        workers: threads,
        queries: latencies.len(),
        publishes,
        qps: latencies.len() as f64 / wall_s,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }]
}

/// Time Louvain serially and in parallel on one frozen graph, panicking if
/// the partitions or modularity scores are not identical.
fn smoke_louvain(name: &str, graph: &CsrGraph, threads: usize) -> SmokeResult {
    let serial_cfg = LouvainConfig {
        threads: Some(1),
        ..Default::default()
    };
    let parallel_cfg = LouvainConfig {
        threads: Some(threads),
        ..Default::default()
    };
    let serial = louvain_csr(graph, &serial_cfg);
    let parallel = louvain_csr(graph, &parallel_cfg);
    assert_eq!(
        serial, parallel,
        "{name}: parallel Louvain diverged from serial — determinism contract broken"
    );
    let q_serial = modularity_csr_threads(graph, &serial, Some(1));
    let q_parallel = modularity_csr_threads(graph, &parallel, Some(threads));
    assert_eq!(
        q_serial.to_bits(),
        q_parallel.to_bits(),
        "{name}: parallel modularity diverged from serial ({q_serial} vs {q_parallel})"
    );
    let serial_ms = time_min(|| {
        louvain_csr(graph, &serial_cfg);
    });
    let parallel_ms = time_min(|| {
        louvain_csr(graph, &parallel_cfg);
    });
    SmokeResult {
        name: format!("louvain/{name}"),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        serial_ms,
        parallel_ms,
    }
}

/// Time PageRank serially and in parallel on one frozen graph, panicking if
/// the scores are not bit-identical.
fn smoke_pagerank(name: &str, graph: &CsrGraph, threads: usize) -> SmokeResult {
    let serial_cfg = PageRankConfig {
        threads: Some(1),
        ..Default::default()
    };
    let parallel_cfg = PageRankConfig {
        threads: Some(threads),
        ..Default::default()
    };
    let serial = pagerank_csr(graph, &serial_cfg);
    let parallel = pagerank_csr(graph, &parallel_cfg);
    assert_eq!(serial.len(), parallel.len());
    for (id, r) in &serial {
        assert_eq!(
            parallel[id].to_bits(),
            r.to_bits(),
            "{name}: parallel PageRank diverged from serial at node {id}"
        );
    }
    let serial_ms = time_min(|| {
        pagerank_csr(graph, &serial_cfg);
    });
    let parallel_ms = time_min(|| {
        pagerank_csr(graph, &parallel_cfg);
    });
    SmokeResult {
        name: format!("pagerank/{name}"),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        serial_ms,
        parallel_ms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = std::env::var("MOBY_BENCH_SCALE")
        .ok()
        .and_then(|s| Scale::parse(&s))
        .unwrap_or(Scale::Medium);
    let mut out = String::from("BENCH_latest.json");
    let mut threads = par::thread_count(None).max(2);
    let mut shards: Option<usize> = None;
    let mut city_probe: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                match args.get(i + 1).and_then(|s| Scale::parse(s)) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale; expected small|medium|paper|large");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--out" => {
                match args.get(i + 1) {
                    Some(path) => out = path.clone(),
                    None => {
                        eprintln!("--out requires a path");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--threads" => {
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(t) if t > 0 => threads = t,
                    _ => {
                        eprintln!("--threads requires a positive integer");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--shards" => {
                match args.get(i + 1).and_then(|s| s.parse::<usize>().ok()) {
                    Some(s) if s > 0 => shards = Some(s),
                    _ => {
                        eprintln!("--shards requires a positive integer");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            "--city-probe" => {
                match args.get(i + 1) {
                    Some(mode) => city_probe = Some(mode.clone()),
                    None => {
                        eprintln!("--city-probe requires a mode (inmem|spill)");
                        std::process::exit(2);
                    }
                }
                i += 2;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                std::process::exit(2);
            }
        }
    }
    // Enough shards that, at city scale, per-shard scatter buffers are
    // meaningfully smaller than the whole edge list even with every
    // worker busy.
    let shards = shards.unwrap_or_else(|| (threads * 2).max(4));

    // Child-process mode for the spill tier: run one city pipeline
    // variant, print one summary line, exit.
    if let Some(mode) = city_probe {
        run_city_probe(&mode, threads, shards);
    }

    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    // The expansion algorithms (HAC candidate clustering in particular)
    // are sized for the paper's data; the city tier exercises the
    // construction path, so pipeline sections drop to medium.
    let pipeline_scale = match scale {
        Scale::Large => Scale::Medium,
        other => other,
    };

    println!("== moby-expansion bench smoke ==");
    println!(
        "scale: {}, parallel threads: {threads} (host parallelism: {host})",
        scale.name(),
    );
    if host == 1 {
        println!(
            "WARNING: single-core host — parallel timings equal serial \
             scheduling overhead; speedup columns suppressed"
        );
    }

    let started = Instant::now();
    println!(
        "running expansion pipeline (scale: {}) ...",
        pipeline_scale.name()
    );
    let outcome = run_pipeline(pipeline_scale);
    println!("pipeline finished in {:.1?}", started.elapsed());

    let mut results: Vec<SmokeResult> = Vec::new();
    let directed_trips = &outcome.selected.directed;
    results.push(smoke_pagerank("trip_graph", directed_trips, threads));
    let temporals = build_all_from_trips(&outcome.selected.trips, None, None);
    for temporal in [&temporals[0], &temporals[2]] {
        let name = temporal.granularity.graph_name().to_lowercase();
        results.push(smoke_pagerank(&name, &temporal.csr, threads));
        results.push(smoke_louvain(&name, &temporal.csr, threads));
    }

    println!("\ntiming graph construction (hashmap freeze vs sort-merge) ...");
    let construction = vec![
        smoke_directed_construction(&outcome, threads),
        smoke_temporal_construction(&outcome, threads),
    ];

    println!("\ntiming incremental ingestion (delta apply vs full rebuild) ...");
    let deltas = smoke_delta(&outcome, threads);

    println!(
        "\ntiming the windowed lifecycle (advance_window vs rebuild, seeded vs cold Louvain) ..."
    );
    let (window, window_louvain) = smoke_window(&outcome, threads);

    println!("\nverifying spilled vs in-memory construction (forced spill, budget 0) ...");
    assert_spill_contract(&outcome, threads);

    let (large, city_graph) = if scale == Scale::Large {
        println!("\nrunning the city tier (streaming generation + sharded builds) ...");
        let (stages, station) = smoke_large(threads, shards);
        (stages, Some(station))
    } else {
        (Vec::new(), None)
    };

    let spill = if scale == Scale::Large {
        println!(
            "\nrunning the spill tier (in-memory vs spooled+spilled city builds, \
             one child process each) ..."
        );
        smoke_spill(threads, shards)
    } else {
        Vec::new()
    };

    println!("\ntiming the hot sweep kernels (scalar vs batched) ...");
    let ghour = &temporals[2];
    let mut sweeps = smoke_sweep("ghour", pipeline_scale.name(), &ghour.csr);
    if let Some(station) = &city_graph {
        sweeps.extend(smoke_sweep("city", "large", station));
    }

    println!(
        "\ntiming the serving layer (mixed queries vs a live writer, snapshot \
         bit-identity to an offline rebuild) ..."
    );
    let serve = smoke_serve(&outcome, threads);

    if host == 1 {
        println!(
            "\nWARNING: single-core host — speedup/ratio columns suppressed in \
             every serial-vs-parallel section (parallel numbers measure \
             scheduling overhead, not speedup); the sweep section's ratios \
             compare equal-thread kernels and stay meaningful"
        );
    }
    // One helper for every serial-vs-parallel style ratio column below:
    // a single-core host can't measure real speedups, so the value is
    // suppressed uniformly across the benches/construction/delta/window
    // sections.
    let ratio_cell = |speedup: f64| {
        if host > 1 {
            format!("{speedup:.2}x")
        } else {
            "-".to_string()
        }
    };
    println!(
        "\n{:<22} {:>8} {:>9} {:>12} {:>12} {:>9}",
        "bench", "nodes", "edges", "serial(ms)", "parallel(ms)", "speedup"
    );
    for r in &results {
        println!(
            "{:<22} {:>8} {:>9} {:>12.2} {:>12.2} {:>9}",
            r.name,
            r.nodes,
            r.edges,
            r.serial_ms,
            r.parallel_ms,
            ratio_cell(r.speedup())
        );
    }
    println!(
        "\n{:<26} {:>8} {:>9} {:>12} {:>13} {:>13} {:>12}",
        "construction", "nodes", "edges", "hashmap(ms)", "sortmerge@1", "sortmerge@N", "vs hashmap"
    );
    for r in &construction {
        println!(
            "{:<26} {:>8} {:>9} {:>12.2} {:>13.2} {:>13.2} {:>12}",
            r.name,
            r.nodes,
            r.edges,
            r.hashmap_ms,
            r.sortmerge_1t_ms,
            r.sortmerge_nt_ms,
            ratio_cell(r.speedup_vs_hashmap())
        );
    }

    println!(
        "\n{:<22} {:>9} {:>7} {:>8} {:>9} {:>10} {:>11} {:>11}",
        "delta", "base", "batch", "nodes", "edges", "apply(ms)", "rebuild(ms)", "vs rebuild"
    );
    for r in &deltas {
        println!(
            "{:<22} {:>9} {:>7} {:>8} {:>9} {:>10.2} {:>11.2} {:>11}",
            r.name,
            r.base_rows,
            r.batch_rows,
            r.nodes,
            r.edges,
            r.apply_ms,
            r.rebuild_ms,
            ratio_cell(r.speedup_vs_rebuild())
        );
    }

    println!(
        "\n{:<24} {:>8} {:>7} {:>8} {:>9} {:>10} {:>11} {:>11}",
        "window", "evicted", "batch", "nodes", "edges", "apply(ms)", "rebuild(ms)", "vs rebuild"
    );
    for r in &window {
        println!(
            "{:<24} {:>8} {:>7} {:>8} {:>9} {:>10.2} {:>11.2} {:>11}",
            r.name,
            r.evicted_rows,
            r.batch_rows,
            r.nodes,
            r.edges,
            r.apply_ms,
            r.rebuild_ms,
            ratio_cell(r.speedup_vs_rebuild())
        );
    }
    println!(
        "{:<24} {:>8} {:>7} {:>8} {:>9} {:>10.2} {:>11.2} {:>11}  (Q {:.4} vs {:.4})",
        "window/louvain_ghour",
        "-",
        "-",
        window_louvain.nodes,
        window_louvain.edges,
        window_louvain.seeded_ms,
        window_louvain.cold_ms,
        ratio_cell(window_louvain.speedup_vs_cold()),
        window_louvain.q_seeded,
        window_louvain.q_cold,
    );

    // Sweep-kernel table: equal-thread comparisons, so the ratio columns
    // are reported even on single-core hosts.
    println!(
        "\n{:<30} {:>8} {:>9} {:>9} {:>9} {:>8}",
        "sweep (ns/edge)", "nodes", "edges", "scalar", "batched", "batch-x"
    );
    for r in &sweeps {
        println!(
            "{:<30} {:>8} {:>9} {:>9.2} {:>9.2} {:>7.2}x",
            r.name,
            r.nodes,
            r.edges,
            r.ns_per_edge(r.scalar_natural_ms),
            r.ns_per_edge(r.batched_natural_ms),
            r.speedup_batched(),
        );
    }

    println!(
        "\n{:<22} {:>8} {:>8} {:>10} {:>10} {:>9} {:>9}",
        "serve", "workers", "queries", "publishes", "qps", "p50(ms)", "p99(ms)"
    );
    for r in &serve {
        println!(
            "{:<22} {:>8} {:>8} {:>10} {:>10.0} {:>9.3} {:>9.3}",
            r.name, r.workers, r.queries, r.publishes, r.qps, r.p50_ms, r.p99_ms
        );
    }

    if !large.is_empty() {
        println!(
            "\n{:<26} {:>9} {:>9} {:>10} {:>10} {:>11} {:>12}",
            "city tier", "rows", "nodes", "edges", "wall(ms)", "rss(MB)", "graph(MB)"
        );
        for r in &large {
            println!(
                "{:<26} {:>9} {:>9} {:>10} {:>10.1} {:>11.1} {:>12.1}",
                r.name,
                r.rows,
                r.nodes,
                r.edges,
                r.wall_ms,
                r.peak_rss_kb as f64 / 1024.0,
                r.graph_bytes as f64 / (1024.0 * 1024.0)
            );
        }
    }

    if !spill.is_empty() {
        println!(
            "\n{:<26} {:>9} {:>9} {:>10} {:>10} {:>11} {:>11}",
            "spill tier", "rows", "nodes", "edges", "wall(ms)", "rss(MB)", "budget(MB)"
        );
        for r in &spill {
            println!(
                "{:<26} {:>9} {:>9} {:>10} {:>10.1} {:>11.1} {:>11}",
                r.name,
                r.rows,
                r.nodes,
                r.edges,
                r.wall_ms,
                r.peak_rss_kb as f64 / 1024.0,
                r.budget_mb,
            );
        }
    }

    let json = render_json(
        scale,
        pipeline_scale,
        threads,
        shards,
        &results,
        &construction,
        &deltas,
        &window,
        &window_louvain,
        &sweeps,
        &serve,
        &large,
        &spill,
    );
    match std::fs::write(&out, &json) {
        Ok(()) => println!("\nwrote {out} ({} bytes)", json.len()),
        Err(e) => {
            eprintln!("failed to write {out}: {e}");
            std::process::exit(1);
        }
    }
    println!(
        "determinism checks passed; done in {:.1?}",
        started.elapsed()
    );
}

/// Hand-rolled JSON (the workspace has no serde_json; every value below is
/// a number or a plain ASCII identifier, so no string escaping is needed).
///
/// Schema `moby-bench-smoke/v8`: `v7` plus a `spill` section (the city
/// pipeline run once in memory and once through the spooled + spilled
/// out-of-core path, each in its own child process so the per-mode
/// `peak_rss_kb` is honest, with the two builds' graph fingerprints
/// asserted equal; populated at `--scale large`, empty otherwise).
/// Every section row carries the `scale` it ran at (pipeline sections
/// may run at `medium` while the `large` section runs at city scale in
/// the same artifact) and a `peak_rss_kb` process high-water mark (0 =
/// not measured).
#[allow(clippy::too_many_arguments)]
fn render_json(
    scale: Scale,
    pipeline_scale: Scale,
    threads: usize,
    shards: usize,
    results: &[SmokeResult],
    construction: &[ConstructionResult],
    deltas: &[DeltaResult],
    window: &[WindowResult],
    window_louvain: &WindowLouvain,
    sweeps: &[SweepResult],
    serve: &[ServeResult],
    large: &[LargeStage],
    spill: &[SpillStage],
) -> String {
    let host = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    let ps = pipeline_scale.name();
    let rss = peak_rss_kb().unwrap_or(0);
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema\": \"moby-bench-smoke/v8\",\n");
    s.push_str(&format!("  \"scale\": \"{}\",\n", scale.name()));
    s.push_str(&format!("  \"parallel_threads\": {threads},\n"));
    s.push_str(&format!("  \"shards\": {shards},\n"));
    s.push_str(&format!("  \"host_parallelism\": {host},\n"));
    s.push_str(&format!("  \"peak_rss_kb\": {rss},\n"));
    if host == 1 {
        s.push_str(
            "  \"warning\": \"single-core host: parallel timings measure \
             scheduling overhead, not speedup\",\n",
        );
    }
    s.push_str(
        "  \"determinism\": \"bit-identical serial vs parallel, \
         hashmap-freeze vs sort-merge, delta-apply vs full rebuild, \
         windowed evict vs rebuild over surviving rows, \
         sharded vs unsharded construction, \
         served snapshot vs offline rebuild, \
         and spilled vs in-memory construction (verified)\",\n",
    );
    s.push_str("  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{ps}\", \"nodes\": {}, \"edges\": {}, \
             \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \"speedup\": {:.3}, \
             \"peak_rss_kb\": {rss}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.serial_ms,
            r.parallel_ms,
            r.speedup(),
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"construction\": [\n");
    for (i, r) in construction.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{ps}\", \"nodes\": {}, \"edges\": {}, \
             \"hashmap_freeze_ms\": {:.3}, \"sortmerge_1t_ms\": {:.3}, \
             \"sortmerge_nt_ms\": {:.3}, \"speedup_vs_hashmap\": {:.3}, \
             \"peak_rss_kb\": {rss}}}{}\n",
            r.name,
            r.nodes,
            r.edges,
            r.hashmap_ms,
            r.sortmerge_1t_ms,
            r.sortmerge_nt_ms,
            r.speedup_vs_hashmap(),
            if i + 1 < construction.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"delta\": [\n");
    for (i, r) in deltas.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{ps}\", \"base_rows\": {}, \"batch_rows\": {}, \
             \"nodes\": {}, \"edges\": {}, \"apply_ms\": {:.3}, \
             \"rebuild_ms\": {:.3}, \"speedup_vs_rebuild\": {:.3}, \
             \"peak_rss_kb\": {rss}}}{}\n",
            r.name,
            r.base_rows,
            r.batch_rows,
            r.nodes,
            r.edges,
            r.apply_ms,
            r.rebuild_ms,
            r.speedup_vs_rebuild(),
            if i + 1 < deltas.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"window\": [\n");
    for r in window {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{ps}\", \"evicted_rows\": {}, \
             \"batch_rows\": {}, \"nodes\": {}, \"edges\": {}, \"apply_ms\": {:.3}, \
             \"rebuild_ms\": {:.3}, \"speedup_vs_rebuild\": {:.3}, \
             \"peak_rss_kb\": {rss}}},\n",
            r.name,
            r.evicted_rows,
            r.batch_rows,
            r.nodes,
            r.edges,
            r.apply_ms,
            r.rebuild_ms,
            r.speedup_vs_rebuild(),
        ));
    }
    s.push_str(&format!(
        "    {{\"name\": \"window/louvain_seeded_ghour\", \"scale\": \"{ps}\", \
         \"nodes\": {}, \"edges\": {}, \"seeded_ms\": {:.3}, \"cold_ms\": {:.3}, \
         \"speedup_vs_cold\": {:.3}, \"q_seeded\": {:.6}, \"q_cold\": {:.6}, \
         \"peak_rss_kb\": {rss}}}\n",
        window_louvain.nodes,
        window_louvain.edges,
        window_louvain.seeded_ms,
        window_louvain.cold_ms,
        window_louvain.speedup_vs_cold(),
        window_louvain.q_seeded,
        window_louvain.q_cold,
    ));
    s.push_str("  ],\n");
    s.push_str("  \"sweep\": [\n");
    for (i, r) in sweeps.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{}\", \"nodes\": {}, \"edges\": {}, \
             \"scalar_natural_ms\": {:.4}, \"batched_natural_ms\": {:.4}, \
             \"scalar_ns_per_edge\": {:.3}, \"batched_ns_per_edge\": {:.3}, \
             \"speedup_batched_vs_scalar\": {:.3}, \
             \"peak_rss_kb\": {rss}}}{}\n",
            r.name,
            r.scale,
            r.nodes,
            r.edges,
            r.scalar_natural_ms,
            r.batched_natural_ms,
            r.ns_per_edge(r.scalar_natural_ms),
            r.ns_per_edge(r.batched_natural_ms),
            r.speedup_batched(),
            if i + 1 < sweeps.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"serve\": [\n");
    for (i, r) in serve.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"{ps}\", \"workers\": {}, \
             \"queries\": {}, \"publishes\": {}, \"qps\": {:.1}, \
             \"p50_ms\": {:.4}, \"p99_ms\": {:.4}, \
             \"peak_rss_kb\": {rss}}}{}\n",
            r.name,
            r.workers,
            r.queries,
            r.publishes,
            r.qps,
            r.p50_ms,
            r.p99_ms,
            if i + 1 < serve.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"large\": [\n");
    for (i, r) in large.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"large\", \"rows\": {}, \
             \"nodes\": {}, \"edges\": {}, \"wall_ms\": {:.3}, \
             \"peak_rss_kb\": {}, \"graph_bytes\": {}}}{}\n",
            r.name,
            r.rows,
            r.nodes,
            r.edges,
            r.wall_ms,
            r.peak_rss_kb,
            r.graph_bytes,
            if i + 1 < large.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n");
    s.push_str("  \"spill\": [\n");
    for (i, r) in spill.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"scale\": \"large\", \"rows\": {}, \
             \"nodes\": {}, \"edges\": {}, \"wall_ms\": {:.3}, \
             \"peak_rss_kb\": {}, \"budget_mb\": {}, \
             \"fingerprint\": \"{:016x}\"}}{}\n",
            r.name,
            r.rows,
            r.nodes,
            r.edges,
            r.wall_ms,
            r.peak_rss_kb,
            r.budget_mb,
            r.fingerprint,
            if i + 1 < spill.len() { "," } else { "" }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
