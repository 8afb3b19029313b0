//! `window_stream`: the live write path.
//!
//! Why: a sliding weekly window is how a deployment keeps the expanded
//! network current, and a change to the trip store must speed it up while
//! a change to HAC must leave it flat. Set-up runs `run_windowed`; the
//! measured phase is whole cycles of 167 `WindowedPipeline::advance`
//! steps, each further cycle on a fresh dataset. Each step slides the
//! window one hour and ingests a replay of the slice it evicted, keyed at
//! the window's end, so the trip table keeps its size. It loads `core.reassign` (`advance_window`),
//! incremental `core.temporal` (`apply_window_all`) and the seeded
//! `core.detect` refresh, and bypasses `data`, `cluster`,
//! `core.candidate`, `core.selection` and `server`.

use crate::common::{
    fingerprint_graph, in_turn, paper_input, pipeline_config, set_up, timed_ms, CommunityDigest,
    Ctx, OpBound, Report, FNV_START,
};
use crate::stats::median;
use crate::trace::Tracer;
use moby_core::detect::{refresh_communities, refresh_communities_active};
use moby_core::pipeline::{CommunitySet, ExpansionPipeline, PipelineConfig, WindowedPipeline};
use moby_core::reassign::{SelectedNetwork, WindowOutcome};
use moby_core::temporal::{apply_window_all, build_all_from_trips, TemporalGraph};
use moby_core::CoreError;
use moby_data::trips::{TripBatch, TripTable, WindowStart};
use std::time::Instant;

/// Steps in one cycle: the window start walks every weekly slot after the
/// first (`Mon 01:00` … `Sun 23:00`).
const STEPS: usize = 167;

/// Root span of one traced window step.
const STEP: &str = "window_stream.step";

/// Nominal window steps a second, which sizes the measured phase; it is
/// rounded up to whole cycles.
const STEPS_PER_SECOND: f64 = 16.0;

/// Set-up runs `run_windowed` on this many inputs; each takes about 0.7 s.
const SETUP_REPS: usize = 8;

/// Steps between host-speed probes: a probe about every half second.
const PROBE_EVERY: usize = 10;

/// The window start of step `step` (1-based).
fn window(step: usize) -> WindowStart {
    WindowStart::new((step / 24) as u8, (step % 24) as u8)
}

/// The batch of every step: step `k` evicts the rows of weekly slot
/// `k - 1`, and its batch replays exactly those rows keyed at the
/// window's end (`Sun 23:00`), which no later step of the cycle evicts.
fn step_batches(trips: &TripTable) -> Vec<TripBatch> {
    let mut batches = vec![TripBatch::new(); STEPS];
    for k in 0..trips.len() {
        let slot = usize::from(trips.day()[k]) * 24 + usize::from(trips.hour()[k]);
        if let Some(batch) = batches.get_mut(slot) {
            batch.push_keyed(
                trips.station_id(trips.src()[k]),
                trips.station_id(trips.dst()[k]),
                6,
                23,
                trips.weights()[k],
            );
        }
    }
    batches
}

/// Whether the live temporal graphs equal a one-shot build over `trips`,
/// bit for bit.
fn matches_rebuild(temporals: &[TemporalGraph], trips: &TripTable, threads: usize) -> bool {
    let want = build_all_from_trips(trips, None, Some(threads));
    temporals.len() == want.len()
        && temporals.iter().zip(&want).all(|(got, want)| {
            got.granularity == want.granularity
                && fingerprint_graph(FNV_START, &got.csr) == fingerprint_graph(FNV_START, &want.csr)
                && got.layer_map == want.layer_map
        })
}

/// Check the state a cycle ended in: the table kept its size and the
/// temporal graphs equal a rebuild over the final table.
fn check_cycle(report: &mut Report, live: &WindowedPipeline, rows: usize, threads: usize) {
    let trips = &live.outcome.selected.trips;
    report.check(trips.len() == rows, || {
        format!("trip table drifted from {rows} to {} rows", trips.len())
    });
    report.check(matches_rebuild(live.temporals(), trips, threads), || {
        "windowed temporal graphs differ from a rebuild over the final table".into()
    });
}

/// Run whole cycles, so that every run times the same mix of slots: as
/// many as the measured phase's step count needs, rounded up. The first
/// cycle runs on the set-up's pipeline and each further one on the next
/// paper-scale dataset, built outside the timed steps, so that a run's
/// medians cover several inputs. `cycle` runs one cycle's steps and
/// returns whether every step succeeded. Returns the number of cycles
/// completed.
fn run_cycles(
    ctx: &Ctx,
    pipeline: &ExpansionPipeline,
    first: WindowedPipeline,
    report: &mut Report,
    mut cycle: impl FnMut(&mut WindowedPipeline, &[TripBatch], &mut Report) -> bool,
) -> usize {
    let cycles = ctx.ops(STEPS_PER_SECOND).div_ceil(STEPS);
    let mut first = Some(first);
    for c in 0..cycles {
        let live = match first.take() {
            Some(live) => Ok(live),
            None => pipeline.run_windowed(&paper_input(ctx.seed, SETUP_REPS - 1 + c)),
        };
        let mut live = match live {
            Ok(live) => live,
            Err(e) => {
                report.op_failed(e);
                return c;
            }
        };
        let batches = step_batches(&live.outcome.selected.trips);
        let rows = live.outcome.selected.trips.len();
        if !cycle(&mut live, &batches, report) {
            return c;
        }
        check_cycle(report, &live, rows, ctx.threads);
    }
    cycles
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let pipeline = ExpansionPipeline::new(pipeline_config(ctx.threads));
    let initial = match set_up(&mut report, SETUP_REPS, |i| {
        pipeline.run_windowed(&paper_input(ctx.seed, i))
    }) {
        Ok(done) => done,
        Err(e) => {
            report.op_failed(e);
            return report;
        }
    };
    let batches = step_batches(&initial.outcome.selected.trips);
    report.line(format!(
        "  input: a fresh dataset a cycle of {STEPS} steps; the first has {} trips over {} \
         stations and {} to {} rows a step",
        initial.outcome.selected.trips.len(),
        initial.outcome.selected.stations.len(),
        batches.iter().map(TripBatch::len).min().unwrap_or(0),
        batches.iter().map(TripBatch::len).max().unwrap_or(0),
    ));
    if ctx.trace {
        traced(ctx, &pipeline, initial, &mut report);
        return report;
    }

    let cycles = run_cycles(
        ctx,
        &pipeline,
        initial,
        &mut report,
        |live, batches, report| {
            for (i, batch) in batches.iter().enumerate() {
                report.stretch_begins();
                let (out, ms) = timed_ms(|| live.advance(batch, window(i + 1)));
                report.stretch_ends();
                if (i + 1).is_multiple_of(PROBE_EVERY) {
                    report.probe();
                }
                match out {
                    Ok(wo) => {
                        report.op_ok();
                        report.op_timed(ms);
                        report.check(wo.evicted.evicted_rows() == batch.len(), || {
                            format!("step {} evicted {} rows", i + 1, wo.evicted.evicted_rows())
                        });
                    }
                    Err(e) => {
                        report.op_failed(e);
                        return false;
                    }
                }
            }
            true
        },
    );
    if report.ops_timed() == 0 {
        return report;
    }
    let op = report.end_to_end(OpBound::Compute);
    report.line(format!(
        "  advance_ms_p50        {:.4} ms  (median of {} steps, {cycles} cycles)",
        op.p50, op.n
    ));
    report.line(format!(
        "  advance_ms_{}        {:.4} ms",
        op.tail_label(),
        op.tail
    ));
    report
}

/// The pipeline state `WindowedPipeline::advance` carries, advanced from
/// outside through the same public calls.
///
/// The choice between the two refresh paths is a copy of the
/// touched-fraction gate inside `WindowedPipeline::advance`, which the
/// library does not report, and must be updated with it. Both paths return
/// identical detections, so the output checks cannot see the copy drift:
/// `core.detect.refresh.active_share` is the share of steps on which this
/// copy picks the active-set path, a modelled figure, not one the library
/// measured.
struct Replay {
    selected: SelectedNetwork,
    temporals: Vec<TemporalGraph>,
    communities: CommunitySet,
}

impl Replay {
    fn of(live: &WindowedPipeline) -> Replay {
        Replay {
            selected: live.outcome.selected.clone(),
            temporals: live.temporals().to_vec(),
            communities: live.outcome.communities.clone(),
        }
    }

    /// Replay one `advance` call by call under spans: `advance_window`,
    /// `apply_window_all`, then the seeded refresh behind the copied
    /// touched-fraction gate. Returns the window outcome and whether the
    /// copy chose the active-set refresh.
    fn step(
        &mut self,
        t: &mut Tracer,
        batch: &TripBatch,
        window: WindowStart,
        config: &PipelineConfig,
    ) -> Result<(WindowOutcome, bool), CoreError> {
        let threads = config.detect.threads;
        t.span(STEP, |t| {
            let wo = t.span("core.reassign.advance_window", |_| {
                self.selected.advance_window(batch, window, threads)
            })?;
            let temporals = std::mem::take(&mut self.temporals);
            let selected = &self.selected;
            self.temporals = t.span("core.temporal.apply_window_all", |_| {
                apply_window_all(
                    temporals,
                    &selected.trips,
                    &wo,
                    Some(selected.undirected.clone()),
                    threads,
                )
            });
            let old_ids = selected.fixed_ids();
            let mut touched = wo.evicted.touched_stations();
            touched.extend(batch.station_ids());
            touched.sort_unstable();
            touched.dedup();
            let stations = selected.trips.station_ids().len().max(1);
            let active =
                touched.len() as f64 / stations as f64 <= config.window.active_refresh_threshold;
            let refresh = if active {
                refresh_communities_active
            } else {
                refresh_communities
            };
            let previous = self.communities.all();
            let refresh_one = |i: usize| {
                refresh(
                    &self.temporals[i],
                    &selected.directed,
                    &old_ids,
                    previous[i],
                    &config.detect,
                )
            };
            let communities = t.span("core.detect.refresh", |_| CommunitySet {
                basic: refresh_one(0),
                day: refresh_one(1),
                hour: refresh_one(2),
            });
            self.communities = communities;
            Ok((wo, active))
        })
    }
}

/// The traced run: every step runs `advance` untraced on the live
/// pipeline and the replay under spans on its own copy of the state, in
/// turn, and the two must agree bit for bit.
fn traced(ctx: &Ctx, pipeline: &ExpansionPipeline, initial: WindowedPipeline, report: &mut Report) {
    let config = pipeline.config().clone();
    report.check(config.window.seeded_refresh, || {
        "the replay models the seeded refresh, which this configuration turns off".into()
    });
    let mut t = Tracer::new(Instant::now());
    let (mut base_ms, mut evicted, mut appended) = (Vec::new(), Vec::new(), Vec::new());
    let mut active_steps = 0usize;
    run_cycles(ctx, pipeline, initial, report, |live, batches, report| {
        let mut replay = Replay::of(live);
        for (i, batch) in batches.iter().enumerate() {
            let ((base, ms), replayed) = in_turn(
                base_ms.len(),
                || timed_ms(|| live.advance(batch, window(i + 1))),
                || replay.step(&mut t, batch, window(i + 1), &config),
            );
            let (base, (wo, active)) = match (base, replayed) {
                (Ok(base), Ok(replayed)) => (base, replayed),
                (Err(e), _) | (_, Err(e)) => {
                    report.op_failed(e);
                    return false;
                }
            };
            report.op_ok();
            base_ms.push(ms);
            active_steps += usize::from(active);
            evicted.push(wo.evicted.evicted_rows() as f64);
            appended.push((replay.selected.trips.len() - wo.appended.batch_start) as f64);
            report.check(base == wo, || {
                format!("step {}: replayed window outcome differs", i + 1)
            });
            report.check(
                CommunityDigest::of(&live.outcome.communities)
                    == CommunityDigest::of(&replay.communities),
                || format!("step {}: replayed refresh differs from advance", i + 1),
            );
        }
        true
    });
    if base_ms.is_empty() {
        return;
    }

    let ms = |name| t.durations_ms(name);
    for (span, metric) in [
        (
            "core.reassign.advance_window",
            "core.reassign.advance_window.ms",
        ),
        (
            "core.temporal.apply_window_all",
            "core.temporal.apply_window_all.ms",
        ),
        ("core.detect.refresh", "core.detect.refresh.ms"),
    ] {
        report.metric_median(metric, &ms(span));
        report.line(format!(
            "  {span:<32} {:.1} ms a cycle",
            ms(span).iter().sum::<f64>() * STEPS as f64 / base_ms.len() as f64
        ));
    }
    report.metric(
        "core.reassign.advance_window.evicted_rows",
        median(&evicted),
    );
    report.metric(
        "core.reassign.advance_window.appended_rows",
        median(&appended),
    );
    report.metric("core.detect.refresh.active_steps", active_steps as f64);
    report.metric(
        "core.detect.refresh.active_share",
        active_steps as f64 / base_ms.len() as f64,
    );
    report.line(format!(
        "  active-set refresh ran on {active_steps} of {} steps",
        base_ms.len()
    ));
    report.metric_median("bench.op.self_ms", &t.self_ms(STEP));
    report.trace_overhead(&base_ms, &ms(STEP));
    report.tracers.push(("main", t));
}
