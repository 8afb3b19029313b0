//! `serve_mixed`: reads beside writes in the snapshot server.
//!
//! Why: the served network is what riders and operators query while new
//! trips stream in, so query latency under a live writer is the figure a
//! user of the server sees. One client thread asks for station profiles
//! through a one-worker `QueryPool` in a closed loop: a profile is one
//! request of each of the five `Request` kinds about one station, sent
//! together, and the client waits for all five answers before asking for
//! the next. A profile, not a single request, is the unit operation so
//! that one thread wake-up does not dominate each timing. Meanwhile a writer
//! thread applies alternating `Ingest` and `Advance` ops on a fixed
//! schedule of one op every [`WRITE_EVERY`]. It loads `server.service`
//! (`answer` and the pool), `server.snapshot` (apply and publish) and the
//! seeded Louvain and PageRank refreshes behind each publish, and
//! bypasses `data`, `cluster`, `core.candidate`, `core.selection` and
//! `core.detect`.

use crate::common::{
    fingerprint_graph, in_turn, paper_input, pipeline_config, set_up, timed_ms, Ctx, OpBound,
    Report, FNV_START,
};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use moby_core::pipeline::ExpansionPipeline;
use moby_core::reassign::{FinalStation, SelectedNetwork};
use moby_core::CoreError;
use moby_data::trips::{TripBatch, WindowStart};
use moby_graph::build_dense_csr;
use moby_server::{
    answer, Answer, QueryPool, Request, Response, ServeConfig, SnapshotHandle, SnapshotWriter,
    WriteOp,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::RecvError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The writer's schedule: one op is due every `WRITE_EVERY`.
const WRITE_EVERY: Duration = Duration::from_millis(20);

/// Nominal station profiles a second, which sizes the measured phase.
const PROFILES_PER_SECOND: f64 = 40_000.0;

/// Set-up runs the pipeline and builds the writer on this many inputs;
/// each takes about 0.7 s.
const SETUP_REPS: usize = 8;

/// The traced run replays this many profiles: enough for stable per-kind
/// medians, few enough that its spans stay small in memory and on disk.
const TRACED_PROFILES: usize = 10_000;

/// Neighbours asked for by each `Nearest` query.
const NEAREST_K: usize = 4;

/// The request kinds of a profile, in order: the span of a traced
/// `answer` call and the per-layer metric of its median, for each.
const KINDS: [(&str, &str); 5] = [
    (
        "server.service.answer.station",
        "server.service.answer_us.station",
    ),
    (
        "server.service.answer.nearest",
        "server.service.answer_us.nearest",
    ),
    (
        "server.service.answer.community",
        "server.service.answer_us.community",
    ),
    (
        "server.service.answer.pagerank",
        "server.service.answer_us.pagerank",
    ),
    (
        "server.service.answer.degrees",
        "server.service.answer_us.degrees",
    ),
];

/// The `p`-th station profile of the stream: one request of each kind,
/// in [`KINDS`] order, about one station.
fn profile(p: usize, stations: &[FinalStation]) -> [Request; 5] {
    let s = &stations[(p * 7) % stations.len()];
    [
        Request::Station(s.id),
        Request::Nearest {
            at: s.position,
            k: NEAREST_K,
        },
        Request::Community(s.id),
        Request::PageRank(s.id),
        Request::Degrees {
            directed: p.is_multiple_of(2),
        },
    ]
}

/// Whether `ans` is a complete answer to `req` for a known station.
fn answered(req: &Request, ans: &Answer) -> bool {
    match (req, &ans.response) {
        (Request::Station(id), Response::Station(Some(s))) => s.id == *id,
        (Request::Nearest { k, .. }, Response::Nearest(hits)) => {
            hits.len() == *k && hits.windows(2).all(|w| w[0].1 <= w[1].1)
        }
        (Request::Community(_), Response::Community(Some(_))) => true,
        (Request::PageRank(_), Response::PageRank(Some(p))) => p.is_finite(),
        (Request::Degrees { .. }, Response::Degrees(Some(_))) => true,
        _ => false,
    }
}

/// The write stream: the rows of the first non-empty weekly slot, keyed
/// at that slot, and the window that evicts exactly that slot. Every
/// `Advance` evicts what the ops before it added and adds the batch
/// again, so the trip table stays the same size however long the run.
fn write_stream(net: &SelectedNetwork) -> (TripBatch, WindowStart) {
    let trips = &net.trips;
    let slot = |k: usize| u16::from(trips.day()[k]) * 24 + u16::from(trips.hour()[k]);
    let first = (0..trips.len()).map(slot).min().unwrap_or(0);
    let mut batch = TripBatch::new();
    for k in (0..trips.len()).filter(|&k| slot(k) == first) {
        batch.push_keyed(
            trips.station_id(trips.src()[k]),
            trips.station_id(trips.dst()[k]),
            trips.day()[k],
            trips.hour()[k],
            trips.weights()[k],
        );
    }
    let next = first + 1;
    (
        batch,
        WindowStart::new((next / 24) as u8, (next % 24) as u8),
    )
}

/// What the writer thread hands back when it stops.
struct WriterDone {
    writer: SnapshotWriter,
    publishes: usize,
    failed: usize,
    apply_ms: Vec<f64>,
    late_ms: f64,
    tracer: Tracer,
}

/// Apply alternating `Ingest`/`Advance` ops on the fixed schedule until
/// `stop` is set, and at least one. Each op is due `WRITE_EVERY` after
/// the previous one was due; an op that falls behind runs at once, and
/// the total lateness is reported.
fn write_loop(
    mut writer: SnapshotWriter,
    (batch, window): (TripBatch, WindowStart),
    stop: &AtomicBool,
    mut tracer: Tracer,
    trace: bool,
) -> WriterDone {
    let (mut publishes, mut failed, mut late_ms) = (0usize, 0usize, 0.0);
    let mut apply_ms = Vec::new();
    let start = Instant::now();
    while publishes + failed == 0 || !stop.load(Ordering::Acquire) {
        let due = start + WRITE_EVERY * (publishes + failed) as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else {
            late_ms += (now - due).as_secs_f64() * 1e3;
        }
        let op = if (publishes + failed).is_multiple_of(2) {
            WriteOp::Ingest(batch.clone())
        } else {
            WriteOp::Advance(batch.clone(), window)
        };
        let (out, ms) = if trace {
            tracer.span("server.snapshot.apply", |_| timed_ms(|| writer.apply(op)))
        } else {
            timed_ms(|| writer.apply(op))
        };
        match out {
            Ok(_) => {
                publishes += 1;
                apply_ms.push(ms);
            }
            Err(e) => {
                failed += 1;
                eprintln!("write op failed: {e}");
            }
        }
    }
    WriterDone {
        writer,
        publishes,
        failed,
        apply_ms,
        late_ms,
        tracer,
    }
}

/// Samples of the client loop.
#[derive(Default)]
struct ClientSamples {
    /// Pooled latency of untraced profiles (ms).
    profile_ms: Vec<f64>,
    /// Epochs published between the worker's snapshot and the reply
    /// (traced run only).
    lag_epochs: u64,
    /// Direct `answer` results compared with the pooled answer of the
    /// same epoch (traced run only).
    compared: u64,
}

/// Send the five requests of a profile through the pool at once and wait
/// for every answer; an error means the pool dropped a request.
fn ask(pool: &QueryPool, requests: &[Request]) -> Result<Vec<Answer>, RecvError> {
    let replies: Vec<_> = requests.iter().map(|r| pool.submit(r.clone())).collect();
    replies.into_iter().map(|reply| reply.recv()).collect()
}

/// The closed-loop client: it asks for one station profile at a time and
/// waits for all five answers before asking for the next. Untraced, it
/// times each profile. Traced, each iteration times one untraced profile
/// as the base and one under a `server.service.query` span, in turn, then
/// answers the same five requests directly on the current snapshot, each
/// under its kind's span, for at most [`TRACED_PROFILES`] iterations.
fn client_loop(
    ctx: &Ctx,
    pool: &QueryPool,
    handle: &SnapshotHandle,
    t: &mut Tracer,
    report: &mut Report,
) -> ClientSamples {
    let stations = Arc::clone(&handle.current().stations);
    let mut out = ClientSamples::default();
    let mut profiles = ctx.ops(PROFILES_PER_SECOND);
    if ctx.trace {
        profiles = profiles.min(TRACED_PROFILES);
    }
    for p in 0..profiles {
        let requests = profile(p, &stations);
        let base = || timed_ms(|| ask(pool, &requests));
        let (answers, ms) = if ctx.trace {
            let ((answers, ms), (pooled, newest)) = in_turn(p, base, || {
                let pooled = t.span("server.service.query", |_| ask(pool, &requests));
                (pooled, handle.epoch())
            });
            if let Ok(pooled) = pooled {
                out.lag_epochs += pooled.iter().map(|a| newest - a.epoch).sum::<u64>();
                let snapshot = handle.current();
                let direct: Vec<Answer> = t.span("server.service.answers", |t| {
                    requests
                        .iter()
                        .zip(KINDS)
                        .map(|(req, (span, _))| t.span(span, |_| answer(&snapshot, req)))
                        .collect()
                });
                for (direct, pooled) in direct.iter().zip(&pooled) {
                    if direct.epoch == pooled.epoch {
                        out.compared += 1;
                        report.check(direct == pooled, || {
                            format!("profile {p}: pooled and direct answers differ")
                        });
                    }
                }
            }
            (answers, ms)
        } else {
            base()
        };
        match answers {
            Ok(answers) => {
                report.op_ok();
                out.profile_ms.push(ms);
                for (req, ans) in requests.iter().zip(&answers) {
                    report.check(answered(req, ans), || {
                        format!("profile {p}: {req:?} -> {ans:?}")
                    });
                }
            }
            Err(e) => {
                report.op_failed(e);
                break;
            }
        }
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let pipeline = ExpansionPipeline::new(pipeline_config(ctx.threads));
    // The writer refreshes its metrics on one thread. The client and the
    // pool worker take turns (the loop is closed), so at most two threads
    // compute at once.
    let config = ServeConfig {
        threads: Some(1),
        ..ServeConfig::default()
    };
    let built = set_up(&mut report, SETUP_REPS, |i| {
        let outcome = pipeline.run(&paper_input(ctx.seed, i))?;
        Ok::<_, CoreError>(SnapshotWriter::new(outcome.selected, config.clone()))
    });
    let (writer, handle) = match built {
        Ok(done) => done,
        Err(e) => {
            report.op_failed(e);
            return report;
        }
    };
    let stream = write_stream(writer.network());
    let rows = writer.network().trips.len();
    report.line(format!(
        "  input: {rows} trips over {} stations; write batch {} rows, one op every {} ms",
        writer.network().stations.len(),
        stream.0.len(),
        WRITE_EVERY.as_millis()
    ));

    let pool = QueryPool::new(Arc::clone(&handle), 1);
    let stop = AtomicBool::new(false);
    report.stretch_begins();
    let origin = Instant::now();
    let mut t = Tracer::new(origin);
    let (client, done) = std::thread::scope(|scope| {
        let writer_thread =
            scope.spawn(|| write_loop(writer, stream, &stop, Tracer::new(origin), ctx.trace));
        let client = client_loop(ctx, &pool, &handle, &mut t, &mut report);
        stop.store(true, Ordering::Release);
        (
            client,
            writer_thread.join().expect("writer thread panicked"),
        )
    });
    report.stretch_ends();
    drop(pool);

    // Snapshot isolation: the last published snapshot equals graphs built
    // offline from the writer's final trip table, bit for bit.
    let snap = handle.current();
    let net = done.writer.network();
    report.attempted += (done.publishes + done.failed) as u64;
    report.failed += done.failed as u64;
    report.check(snap.epoch == done.publishes as u64, || {
        format!("epoch {} after {} publishes", snap.epoch, done.publishes)
    });
    report.check(snap.trip_count == net.trips.len(), || {
        "snapshot trip count differs from the writer's table".into()
    });
    for (directed, got) in [(true, &snap.directed), (false, &snap.undirected)] {
        let want = build_dense_csr(
            directed,
            net.trips.station_ids().to_vec(),
            net.trips.src(),
            net.trips.dst(),
            net.trips.weights(),
            Some(ctx.threads),
        );
        report.check(
            fingerprint_graph(FNV_START, got) == fingerprint_graph(FNV_START, &want),
            || format!("served snapshot (directed: {directed}) differs from an offline build"),
        );
    }
    let publish = Summary::of(&done.apply_ms);
    let writes = format!(
        "  writes: {} published, {} failed, schedule late by {:.1} ms in total",
        done.publishes, done.failed, done.late_ms
    );

    if ctx.trace {
        for (span, metric) in KINDS {
            let us: Vec<f64> = t.durations_ms(span).iter().map(|ms| ms * 1e3).collect();
            report.metric_median(metric, &us);
        }
        let pooled = t.durations_ms("server.service.query");
        let direct = t.durations_ms("server.service.answers");
        report.metric(
            "server.service.pool_wait_us",
            (median(&pooled) - median(&direct)) * 1e3,
        );
        report.metric_median(
            "server.snapshot.apply_ms",
            &done.tracer.durations_ms("server.snapshot.apply"),
        );
        report.metric("server.snapshot.lag_epochs", client.lag_epochs as f64);
        report.trace_overhead(&client.profile_ms, &pooled);
        report.line(writes);
        report.line(format!(
            "  {} profiles: answers trailed the newest epoch by {} epochs in total; \
             {} direct answers compared",
            client.profile_ms.len(),
            client.lag_epochs,
            client.compared
        ));
        report.tracers.push(("client", t));
        report.tracers.push(("writer", done.tracer));
        return report;
    }

    if client.profile_ms.is_empty() {
        return report;
    }
    for &ms in &client.profile_ms {
        report.op_timed(ms);
    }
    let op = report.end_to_end(OpBound::Handoff);
    report.line(format!(
        "  query_qps             {:.0} 1/s (closed loop: 1 client, 1 worker, {} queries a profile)",
        KINDS.len() as f64 * 1e3 / op.mean,
        KINDS.len()
    ));
    report.line(format!(
        "  query_p50_us          {:.3} us  (profile; median of {} profiles)",
        op.p50 * 1e3,
        op.n
    ));
    report.line(format!(
        "  query_{}_us          {:.3} us  (profile)",
        op.tail_label(),
        op.tail * 1e3
    ));
    report.line(format!(
        "  publish_ms_p50        {:.3} ms  (median of {} publishes)",
        publish.p50, publish.n
    ));
    report.line(writes);
    report
}
