//! `city_build`: graph construction at city scale.
//!
//! Why: the `graph` construction kernels are a small share of
//! `expansion_batch`, so a regression in them, such as one from
//! collapsing the per-axis build entry points, would go unseen without a
//! workload they dominate. Set-up streams 1 M synthetic trips over 10 240
//! stations through `clean_trip_stream`; each measured operation builds
//! the undirected station graph with `build_dense_csr` and the three
//! temporal graphs with `build_all_from_trips`. It loads `graph`
//! construction and `core.temporal`, and bypasses `cluster`,
//! `core.candidate`, `core.selection`, `core.reassign`, `core.detect` and
//! `server`.

use crate::common::{
    fingerprint_graph, in_turn, input_seed, set_up, timed_ms, Ctx, OpBound, Report, FNV_START,
};
use crate::trace::Tracer;
use moby_core::temporal::{build_all_from_trips_spilled, TemporalGraph};
use moby_core::CoreError;
use moby_data::clean::clean_trip_stream;
use moby_data::synth::{city_trip_stream, CityConfig, SynthConfig};
use moby_data::trips::TripTable;
use moby_graph::{build_dense_csr_budgeted, CsrGraph};
use std::time::Instant;

/// Root span of one traced build.
const BUILD: &str = "city_build.build";

/// Nominal builds a second, which sizes the measured phase.
const BUILDS_PER_SECOND: f64 = 0.8;

/// Host-speed probes after each build: with one, too few probes lay
/// near each build to follow the host.
const PROBES_PER_BUILD: usize = 3;

/// Set-up generates and cleans this many inputs; each takes about 0.25 s.
const SETUP_REPS: usize = 9;

/// Build shards of the measured build, passed explicitly like every other
/// knob so that no `MOBY_SHARDS` or `MOBY_SPILL_BUDGET_MB` in the
/// environment changes what is measured; the budget never spills.
const SHARDS: usize = 1;

/// Shard count of the reference build the output check compares with.
const CHECK_SHARDS: usize = 4;

/// The graphs one build produces.
struct Built {
    station: CsrGraph,
    temporals: Vec<TemporalGraph>,
}

impl Built {
    /// FNV-1a fingerprint of the station graph and the temporal graphs.
    fn fingerprint(&self) -> u64 {
        let h = fingerprint_graph(FNV_START, &self.station);
        self.temporals
            .iter()
            .fold(h, |h, t| fingerprint_graph(h, &t.csr))
    }

    /// Heap bytes of every distinct graph (`GBasic` shares the station
    /// graph's storage).
    fn bytes(&self) -> usize {
        self.station.heap_bytes()
            + self
                .temporals
                .iter()
                .filter(|t| !t.csr.shares_storage(&self.station))
                .map(|t| t.csr.heap_bytes())
                .sum::<usize>()
    }

    fn edges(&self) -> usize {
        self.temporals.iter().map(|t| t.csr.edge_count()).sum()
    }
}

/// The station graph over the cleaned table, in memory at `shards`
/// shards.
fn station_graph(table: &TripTable, shards: usize, threads: usize) -> Result<CsrGraph, CoreError> {
    Ok(build_dense_csr_budgeted(
        false,
        table.station_ids().to_vec(),
        table.src(),
        table.dst(),
        table.weights(),
        Some(shards),
        Some(threads),
        Some(u64::MAX),
        None,
    )?)
}

/// The temporal graphs over the cleaned table, in memory at `shards`
/// shards.
fn temporal_graphs(
    table: &TripTable,
    station: &CsrGraph,
    shards: usize,
    threads: usize,
) -> Result<Vec<TemporalGraph>, CoreError> {
    build_all_from_trips_spilled(
        table,
        Some(station),
        Some(shards),
        Some(threads),
        Some(u64::MAX),
        None,
    )
}

/// The measured operation at `shards` shards, untraced.
fn build(table: &TripTable, shards: usize, threads: usize) -> Result<Built, CoreError> {
    let station = station_graph(table, shards, threads)?;
    let temporals = temporal_graphs(table, &station, shards, threads)?;
    Ok(Built { station, temporals })
}

/// The measured operation, call by call under spans.
fn build_traced(t: &mut Tracer, table: &TripTable, threads: usize) -> Result<Built, CoreError> {
    t.span(BUILD, |t| {
        let station = t.span("graph.build_dense_csr", |_| {
            station_graph(table, SHARDS, threads)
        })?;
        let temporals = t.span("core.temporal.build", |_| {
            temporal_graphs(table, &station, SHARDS, threads)
        })?;
        Ok(Built { station, temporals })
    })
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let built = set_up(&mut report, SETUP_REPS, |i| {
        let config = CityConfig {
            seed: input_seed(ctx.seed, i),
            ..SynthConfig::city()
        };
        let (table, clean) = clean_trip_stream(
            config.station_ids(),
            config.trips as usize,
            city_trip_stream(&config),
        );
        Ok((table, clean.rows_seen - clean.rows_kept))
    });
    let Ok::<_, std::convert::Infallible>((table, dropped)) = built;
    report.line(format!(
        "  input: {} trips kept ({dropped} dropped) over {} stations",
        table.len(),
        table.station_ids().len()
    ));

    let mut t = Tracer::new(Instant::now());
    let (mut op_ms, mut bytes, mut edges) = (Vec::new(), 0, 0);
    let mut first = None;
    for i in 0..ctx.ops(BUILDS_PER_SECOND) {
        let base = || {
            let (built, ms) = timed_ms(|| build(&table, SHARDS, ctx.threads));
            (built.map(|b| b.fingerprint()), ms)
        };
        report.stretch_begins();
        let (fingerprint, ms) = if ctx.trace {
            let ((base, ms), traced) =
                in_turn(i, base, || build_traced(&mut t, &table, ctx.threads));
            let fingerprint = base.and_then(|want| {
                let traced = traced?;
                report.check(traced.fingerprint() == want, || {
                    "traced build differs from the untraced build".into()
                });
                (bytes, edges) = (traced.bytes(), traced.edges());
                Ok(want)
            });
            (fingerprint, ms)
        } else {
            base()
        };
        report.stretch_ends();
        for _ in 0..PROBES_PER_BUILD {
            report.probe();
        }
        let fingerprint = match fingerprint {
            Ok(fingerprint) => fingerprint,
            Err(e) => {
                report.op_failed(e);
                break;
            }
        };
        report.op_ok();
        report.op_timed(ms);
        op_ms.push(ms);
        match first {
            None => first = Some(fingerprint),
            Some(want) => report.check(fingerprint == want, || {
                "a repeated build differs from the first build".into()
            }),
        }
    }
    let Some(first) = first else { return report };
    // Peak RSS is read before the reference build below.
    let op = (!ctx.trace).then(|| report.end_to_end(OpBound::Compute));
    match build(&table, CHECK_SHARDS, ctx.threads) {
        Ok(sharded) => {
            let sharded = sharded.fingerprint();
            report.check(sharded == first, || {
                format!(
                    "build fingerprint {first:016x} differs from the {CHECK_SHARDS}-shard \
                     build {sharded:016x}"
                )
            });
            report.line(format!(
                "  graph fingerprint     {first:016x} ({CHECK_SHARDS}-shard build: {sharded:016x})"
            ));
        }
        Err(e) => report.op_failed(e),
    }

    let Some(op) = op else {
        let ms = |name| t.durations_ms(name);
        report.metric_median("graph.build_dense_csr.ms", &ms("graph.build_dense_csr"));
        report.metric_median("core.temporal.build_ms", &ms("core.temporal.build"));
        report.metric("graph.bytes", bytes as f64);
        report.metric("core.temporal.edges", edges as f64);
        report.metric_median("bench.op.self_ms", &t.self_ms(BUILD));
        report.trace_overhead(&op_ms, &ms(BUILD));
        report.tracers.push(("main", t));
        return report;
    };
    report.line(format!(
        "  build_s               {:.4} s   (median of {} builds; {} {:.4} s)",
        op.p50 / 1e3,
        op.n,
        op.tail_label(),
        op.tail / 1e3
    ));
    report
}
