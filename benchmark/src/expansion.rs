//! `expansion_batch`: repeated `ExpansionPipeline::run` on paper-scale
//! synthetic data.
//!
//! Why: this is the paper's own job, and the workload on which a change
//! to HAC or to the candidate trip store must show its gain. It loads
//! every pipeline layer once per run — `data` (clean), `cluster`
//! (constrained HAC) inside `core.candidate`, `core.selection`,
//! `core.reassign`, `core.temporal` and `core.detect` — and `cluster` plus
//! `core.candidate` do most of the work. It bypasses the windowed write
//! path and the `server` layers.

use crate::common::{
    in_turn, paper_input, pipeline_config, set_up, timed_ms, CommunityDigest, Ctx, OpBound, Report,
};
use crate::stats::median;
use crate::trace::Tracer;
use moby_cluster::constrained::{constrained_clustering, ConstrainedConfig};
use moby_core::candidate::build_candidate_network;
use moby_core::detect::detect_communities;
use moby_core::pipeline::{CommunitySet, ExpansionOutcome, ExpansionPipeline, PipelineConfig};
use moby_core::reassign::build_selected_network;
use moby_core::selection::select_stations;
use moby_core::temporal::build_all_from_trips_spilled;
use moby_core::CoreError;
use moby_data::clean::clean_dataset;
use moby_data::schema::{CleanDataset, RawDataset};
use moby_data::stats::DatasetOverview;
use moby_geo::GeoPoint;
use moby_graph::NodeId;
use std::collections::HashSet;
use std::time::Instant;

/// Root span of one traced pipeline run.
const RUN: &str = "expansion_batch.run";

/// Nominal pipeline runs a second, which sizes the measured phase. A run
/// takes 0.4 to 0.6 s on the machine `RESULTS.md` names, so the phase
/// lasts longer than `--seconds`: a run's median needs the samples more
/// than the run needs to be short.
const RUNS_PER_SECOND: f64 = 4.0;

/// The same for the traced run, which does three pipeline-sized calls per
/// run.
const TRACED_RUNS_PER_SECOND: f64 = 1.0;

/// Set-up generates this many inputs before the measured phase; each
/// takes about 60 ms.
const SETUP_REPS: usize = 5;

/// The set-up input the first measured run uses.
const SETUP_INPUT: usize = SETUP_REPS - 1;

/// What one run produced, compared bit for bit between runs.
#[derive(Debug, Clone, PartialEq)]
struct RunDigest {
    selected: Vec<NodeId>,
    communities: CommunityDigest,
}

impl RunDigest {
    fn of(outcome: &ExpansionOutcome) -> RunDigest {
        RunDigest {
            selected: outcome.selection.selected_ids(),
            communities: CommunityDigest::of(&outcome.communities),
        }
    }
}

/// The input of pipeline run `run` (0-based): the set-up's dataset, held
/// in `first` until taken, then a fresh paper-scale dataset for every
/// further run, generated outside the timed call. Each generation is
/// set-up too and records its time in `report`, so that `setup_s` samples
/// the whole run, not only its first second.
fn input(ctx: &Ctx, run: usize, first: &mut Option<RawDataset>, report: &mut Report) -> RawDataset {
    first.take().unwrap_or_else(|| {
        let t = Instant::now();
        let raw = paper_input(ctx.seed, SETUP_INPUT + run);
        report.setup_timed(t.elapsed().as_secs_f64());
        raw
    })
}

/// Whether a run's outcome has the paper's shape: new stations selected,
/// communities with positive modularity, and every rental kept as a trip.
fn plausible(outcome: &ExpansionOutcome, digest: &RunDigest) -> bool {
    !digest.selected.is_empty()
        && digest.communities.is_plausible()
        && outcome.selected.table.total_trips == outcome.dataset.rentals.len()
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let Ok::<_, std::convert::Infallible>(raw) =
        set_up(&mut report, SETUP_REPS, |i| Ok(paper_input(ctx.seed, i)));
    let pipeline = ExpansionPipeline::new(pipeline_config(ctx.threads));
    report.line(format!(
        "  input: a fresh dataset a run; the first has {} raw rentals, {} raw locations, {} stations",
        raw.rentals.len(),
        raw.locations.len(),
        raw.stations.len()
    ));
    if ctx.trace {
        traced(ctx, raw, &pipeline, &mut report);
        return report;
    }

    let mut first_input = Some(raw);
    let mut first: Option<RunDigest> = None;
    for run in 0..ctx.ops(RUNS_PER_SECOND) {
        let raw = input(ctx, run, &mut first_input, &mut report);
        report.stretch_begins();
        let (out, ms) = timed_ms(|| pipeline.run(&raw));
        report.stretch_ends();
        report.probe();
        let outcome = match out {
            Ok(outcome) => outcome,
            Err(e) => {
                report.op_failed(e);
                break;
            }
        };
        report.op_ok();
        report.op_timed(ms);
        let digest = RunDigest::of(&outcome);
        report.check(plausible(&outcome, &digest), || {
            format!("run {} lacks the paper's shape", run + 1)
        });
        first.get_or_insert(digest);
    }
    // Determinism: the first input, generated and run again, gives the
    // same stations, partitions and modularity bits.
    if let Some(want) = first {
        match pipeline.run(&paper_input(ctx.seed, SETUP_INPUT)) {
            Ok(again) => report.check(RunDigest::of(&again) == want, || {
                "a repeated run differs from the first run".into()
            }),
            Err(e) => report.op_failed(e),
        }
    }
    if report.ops_timed() == 0 {
        return report;
    }
    let op = report.end_to_end(OpBound::Compute);
    report.line(format!(
        "  pipeline_s            {:.4} s   (median of {} runs; {} {:.4} s)",
        op.p50 / 1e3,
        op.n,
        op.tail_label(),
        op.tail / 1e3
    ));
    report
}

/// Counts the traced replay reports next to its spans.
struct ReplayCounts {
    rows_dropped: usize,
    candidates: usize,
    selected: usize,
    edges: usize,
}

/// What a traced replay hands back.
struct Replayed {
    digest: RunDigest,
    counts: ReplayCounts,
    dataset: CleanDataset,
    _artifacts: Box<dyn std::any::Any>,
}

/// Replay `ExpansionPipeline::run` call by call under spans, in the
/// library's own order.
fn replay(
    t: &mut Tracer,
    raw: &RawDataset,
    config: &PipelineConfig,
) -> Result<Replayed, CoreError> {
    t.span(RUN, |t| {
        let (cleaning, _overview) = t.span("data.clean", |_| {
            let cleaning = clean_dataset(raw);
            let overview = DatasetOverview::from_cleaning(raw, &cleaning);
            (cleaning, overview)
        });
        let dataset = cleaning.dataset;
        let candidate = t.span("core.candidate", |_| {
            build_candidate_network(&dataset, &config.expansion)
        })?;
        let selection = t.span("core.selection", |_| {
            select_stations(&candidate, &config.expansion)
        })?;
        let selected = t.span("core.reassign.build", |_| {
            build_selected_network(&dataset, &candidate, &selection)
        })?;
        let temporals = t.span("core.temporal.build", |_| {
            build_all_from_trips_spilled(
                &selected.trips,
                Some(&selected.undirected),
                config.build_shards,
                config.detect.threads,
                config.spill_budget_mb,
                None,
            )
        })?;
        let old_ids = selected.fixed_ids();
        let mut detect = |name, i: usize| {
            t.span(name, |_| {
                detect_communities(&temporals[i], &selected.directed, &old_ids, &config.detect)
            })
        };
        let communities = CommunitySet {
            basic: detect("core.detect.basic", 0),
            day: detect("core.detect.day", 1),
            hour: detect("core.detect.hour", 2),
        };
        let r = &cleaning.report;
        let counts = ReplayCounts {
            rows_dropped: (r.stations_before - r.stations_after)
                + (r.locations_before - r.locations_after)
                + (r.rentals_before - r.rentals_after),
            selected: selection.selected.len(),
            edges: temporals.iter().map(|g| g.csr.edge_count()).sum(),
            candidates: candidate.candidate_ids().len(),
        };
        let digest = RunDigest {
            selected: selection.selected_ids(),
            communities: CommunityDigest::of(&communities),
        };
        // Hand every artefact back so that, as with `run`, freeing them
        // falls outside the timed call.
        Ok(Replayed {
            digest,
            counts,
            dataset,
            _artifacts: Box::new((candidate, selection, selected, temporals, communities)),
        })
    })
}

/// The fixed-station and free-location points `build_candidate_network`
/// hands to `constrained_clustering`, split by the same rule.
fn clustering_input(dataset: &CleanDataset) -> (Vec<GeoPoint>, Vec<GeoPoint>) {
    let station_ids: HashSet<_> = dataset.stations.iter().map(|s| s.id).collect();
    let stations = dataset.stations.iter().map(|s| s.position).collect();
    let free = dataset
        .locations
        .iter()
        .filter(|l| !l.station_id.is_some_and(|id| station_ids.contains(&id)))
        .map(|l| l.position)
        .collect();
    (stations, free)
}

/// The traced run: each iteration runs the pipeline untraced and replays
/// it under spans, in turn, and times one extra `constrained_clustering` call on the
/// same free points so that the candidate stage's own time can be split
/// from HAC's.
fn traced(ctx: &Ctx, raw: RawDataset, pipeline: &ExpansionPipeline, report: &mut Report) {
    let config = pipeline.config();
    let ccfg = ConstrainedConfig {
        station_absorb_radius_m: config.expansion.station_absorb_radius_m,
        cluster_boundary_m: config.expansion.cluster_boundary_m,
        linkage: config.expansion.linkage,
    };
    let mut t = Tracer::new(Instant::now());
    let mut base_ms = Vec::new();
    // Per-run counts, in the order of the metrics they feed.
    let mut counts: [Vec<f64>; 5] = Default::default();
    let mut first_input = Some(raw);
    for run in 0..ctx.ops(TRACED_RUNS_PER_SECOND) {
        let raw = input(ctx, run, &mut first_input, report);
        let ((base, ms), replayed) = in_turn(
            base_ms.len(),
            || timed_ms(|| pipeline.run(&raw)),
            || replay(&mut t, &raw, config),
        );
        let (base, replayed) = match (base, replayed) {
            (Ok(base), Ok(replayed)) => (base, replayed),
            (Err(e), _) | (_, Err(e)) => {
                report.op_failed(e);
                break;
            }
        };
        report.op_ok();
        base_ms.push(ms);
        report.check(RunDigest::of(&base) == replayed.digest, || {
            "traced replay differs from the untraced run".into()
        });
        drop(base);

        let (stations, free) = clustering_input(&replayed.dataset);
        let clustering = t.span("cluster.constrained", |_| {
            constrained_clustering(&stations, &free, &ccfg)
        });
        let c = replayed.counts;
        match clustering {
            Ok(clustering) => {
                let n = clustering.candidate_clusters.len();
                report.check(n == c.candidates, || {
                    format!("extra HAC call gave {n} clusters, the run {}", c.candidates)
                });
                let row = [c.rows_dropped, free.len(), n, c.selected, c.edges];
                for (sample, v) in counts.iter_mut().zip(row) {
                    sample.push(v as f64);
                }
            }
            Err(e) => report.op_failed(e),
        }
    }
    if counts[0].is_empty() {
        return;
    }

    let ms = |name| t.durations_ms(name);
    for (span, metric) in [
        ("data.clean", "data.clean.ms"),
        ("cluster.constrained", "cluster.constrained.ms"),
        ("core.candidate", "core.candidate.ms"),
        ("core.selection", "core.selection.ms"),
        ("core.reassign.build", "core.reassign.build_ms"),
        ("core.temporal.build", "core.temporal.build_ms"),
        ("core.detect.basic", "core.detect.basic.ms"),
        ("core.detect.day", "core.detect.day.ms"),
        ("core.detect.hour", "core.detect.hour.ms"),
    ] {
        report.metric_median(metric, &ms(span));
    }
    for (metric, sample) in [
        "data.clean.rows_dropped",
        "cluster.constrained.points",
        "cluster.constrained.clusters",
        "core.selection.selected",
        "core.temporal.edges",
    ]
    .into_iter()
    .zip(&counts)
    {
        report.metric_median(metric, sample);
    }
    // The candidate stage's own time: the stage minus the HAC call it
    // makes, timed as the extra call on the same input.
    let own: Vec<f64> = ms("core.candidate")
        .iter()
        .zip(ms("cluster.constrained"))
        .map(|(candidate, hac)| candidate - hac)
        .collect();
    report.metric_median("core.candidate.self_ms", &own);
    report.metric_median("bench.op.self_ms", &t.self_ms(RUN));
    report.trace_overhead(&base_ms, &ms(RUN));
    let run = median(&ms(RUN));
    let share = |v: f64| 100.0 * v / run;
    report.line(format!(
        "  share of the traced run ({run:.1} ms, median of {} runs): cluster.constrained {:.1} %, \
         core.candidate.self {:.1} %, core.candidate {:.1} %",
        base_ms.len(),
        share(median(&ms("cluster.constrained"))),
        share(median(&own)),
        share(median(&ms("core.candidate")))
    ));
    report.tracers.push(("main", t));
}
