//! The request loop: a fixed-size std-only worker pool answering queries
//! against the current snapshot.
//!
//! Every query is answered against exactly **one** snapshot — the worker
//! grabs [`SnapshotHandle::current`] once per request, so a response never
//! mixes state from two epochs even while the writer publishes between
//! requests. [`answer`] is the pure per-snapshot evaluation function; the
//! pool only adds dispatch, which keeps the serving semantics trivially
//! testable without threads.

use crate::snapshot::{ServeSnapshot, SnapshotHandle};
use moby_core::reassign::FinalStation;
use moby_geo::GeoPoint;
use moby_graph::metrics::DegreeSummary;
use moby_graph::NodeId;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs the queue holds before [`QueryPool::submit`] answers
/// [`Response::Overloaded`].
const QUEUE_CAPACITY: usize = 1024;

/// How long the worker holding the queue lock polls an empty queue before
/// it parks.
const POLL_WINDOW: Duration = Duration::from_micros(50);

/// A serving-layer query.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Look up a station's directory entry by id.
    Station(NodeId),
    /// The `k` stations nearest to a point, sorted by ascending distance
    /// (metres).
    Nearest {
        /// Query position.
        at: GeoPoint,
        /// Number of neighbours.
        k: usize,
    },
    /// The community a station belongs to (undirected Louvain partition).
    Community(NodeId),
    /// A station's weighted PageRank score on the directed trip graph.
    PageRank(NodeId),
    /// The degree summary of one graph layer.
    Degrees {
        /// `true` for the directed trip graph, `false` for the
        /// undirected projection.
        directed: bool,
    },
}

/// The answer to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Directory entry, if the station exists.
    Station(Option<FinalStation>),
    /// `(station id, distance in metres)` pairs, nearest first. Empty
    /// when the network has no stations.
    Nearest(Vec<(NodeId, f64)>),
    /// Community index, if the station is in the partition.
    Community(Option<usize>),
    /// PageRank score, if the station is in the graph.
    PageRank(Option<f64>),
    /// Degree summary (`None` for an empty graph).
    Degrees(Option<DegreeSummary>),
    /// The pool's queue was full, so the request was not run; asking
    /// again later may succeed.
    Overloaded,
    /// The request was not answered: it panicked while running, or the
    /// pool has no live worker left to run it.
    Failed,
}

/// A [`Response`] plus the epoch of the snapshot that produced it, so
/// clients (and the consistency proptest) can correlate answers with
/// published states.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Epoch of the snapshot the query ran against.
    pub epoch: u64,
    /// The response payload.
    pub response: Response,
}

/// Answer `req` against one coherent snapshot.
pub fn answer(snapshot: &ServeSnapshot, req: &Request) -> Answer {
    let response = match req {
        Request::Station(id) => Response::Station(snapshot.station(*id).cloned()),
        Request::Nearest { at, k } => {
            let hits = snapshot
                .metrics
                .kd
                .k_nearest(*at, *k)
                .map(|hits| hits.into_iter().map(|(_, &id, d)| (id, d)).collect())
                .unwrap_or_default();
            Response::Nearest(hits)
        }
        Request::Community(id) => Response::Community(snapshot.metrics.partition.community_of(*id)),
        Request::PageRank(id) => Response::PageRank(snapshot.metrics.pagerank.get(id).copied()),
        Request::Degrees { directed } => Response::Degrees(if *directed {
            snapshot.metrics.degrees_directed.clone()
        } else {
            snapshot.metrics.degrees_undirected.clone()
        }),
    };
    Answer {
        epoch: snapshot.epoch,
        response,
    }
}

/// What a job runs: a request or, in tests, a closure that stands in for
/// one, so a test can hold a worker or panic it.
enum Work {
    Request(Request),
    #[cfg(test)]
    Probe(Box<dyn FnOnce(&ServeSnapshot) -> Answer + Send>),
}

impl Work {
    fn run(self, snapshot: &ServeSnapshot) -> Answer {
        match self {
            Work::Request(req) => answer(snapshot, &req),
            #[cfg(test)]
            Work::Probe(probe) => probe(snapshot),
        }
    }
}

struct Job {
    work: Work,
    reply: SyncSender<Answer>,
}

/// A fixed-size worker pool serving [`Request`]s from the current
/// snapshot.
///
/// Jobs wait in one bounded queue of 1024 jobs. One worker at a time
/// holds the queue lock; when it finds the queue empty it polls for
/// 50 µs, yielding its core between polls, and only then parks, so a
/// client that submits again within that window reaches an awake worker
/// and wakes no thread. Each job is answered against the snapshot current
/// *at dispatch time* on its worker and replies through a one-slot
/// channel. A job that panics answers [`Response::Failed`] and its worker
/// keeps serving. Dropping the pool closes the queue; the workers answer
/// what is queued, then exit and are joined.
pub struct QueryPool {
    // Fields drop in declaration order: the queue closes before `Workers`
    // joins the threads that drain it.
    queue: SyncSender<Job>,
    handle: Arc<SnapshotHandle>,
    _workers: Workers,
}

/// The pool's threads, joined on drop.
struct Workers(Vec<JoinHandle<()>>);

impl Drop for Workers {
    fn drop(&mut self) {
        for worker in self.0.drain(..) {
            let _ = worker.join();
        }
    }
}

impl QueryPool {
    /// Spawn `workers` threads (at least 1) serving from `handle`.
    pub fn new(handle: Arc<SnapshotHandle>, workers: usize) -> QueryPool {
        let (queue, jobs) = sync_channel::<Job>(QUEUE_CAPACITY);
        let jobs = Arc::new(Mutex::new(jobs));
        let workers = (0..workers.max(1))
            .map(|_| {
                let jobs = Arc::clone(&jobs);
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || serve(&jobs, &handle))
            })
            .collect();
        QueryPool {
            queue,
            handle,
            _workers: Workers(workers),
        }
    }

    /// Enqueue a request; the returned channel yields the [`Answer`].
    ///
    /// Never blocks: a full queue answers [`Response::Overloaded`] and a
    /// pool with no live worker answers [`Response::Failed`] at once, both
    /// at the handle's current epoch.
    pub fn submit(&self, req: Request) -> Receiver<Answer> {
        self.dispatch(Work::Request(req))
    }

    fn dispatch(&self, work: Work) -> Receiver<Answer> {
        let (reply, answer) = sync_channel(1);
        if let Err(refused) = self.queue.try_send(Job { work, reply }) {
            let (response, job) = match refused {
                TrySendError::Full(job) => (Response::Overloaded, job),
                TrySendError::Disconnected(job) => (Response::Failed, job),
            };
            let _ = job.reply.send(Answer {
                epoch: self.handle.epoch(),
                response,
            });
        }
        answer
    }
}

/// A worker: answer jobs until the pool is dropped and the queue drained.
fn serve(jobs: &Mutex<Receiver<Job>>, handle: &SnapshotHandle) {
    while let Some(job) = next_job(jobs) {
        let snapshot = handle.current();
        let answer = catch_unwind(AssertUnwindSafe(|| job.work.run(&snapshot))).unwrap_or(Answer {
            epoch: snapshot.epoch,
            response: Response::Failed,
        });
        // The reply has one slot and gets one answer, so this never
        // blocks; an error only means the client stopped waiting.
        let _ = job.reply.send(answer);
    }
}

/// The next job, or `None` once the queue is closed and empty.
///
/// The lock guards only the dequeue; the job runs unlocked, so workers
/// answer in parallel, and only the lock holder polls. Nothing under the
/// lock can panic, and a receive leaves the receiver usable, so a
/// poisoned lock still guards a sound queue.
///
/// The poll yields rather than spinning on `spin_loop`: on a host with as
/// many busy threads as cores, a spinning poller takes its core from the
/// writer, while a yielding one gives it back whenever another thread is
/// ready.
fn next_job(jobs: &Mutex<Receiver<Job>>) -> Option<Job> {
    let jobs = jobs.lock().unwrap_or_else(PoisonError::into_inner);
    let deadline = Instant::now() + POLL_WINDOW;
    loop {
        match jobs.try_recv() {
            Ok(job) => return Some(job),
            Err(TryRecvError::Disconnected) => return None,
            Err(TryRecvError::Empty) if Instant::now() < deadline => std::thread::yield_now(),
            Err(TryRecvError::Empty) => return jobs.recv().ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{ServeConfig, SnapshotWriter, WriteOp};
    use moby_core::pipeline::{ExpansionPipeline, PipelineConfig};
    use moby_core::reassign::SelectedNetwork;
    use moby_data::synth::{generate, SynthConfig};
    use moby_data::trips::TripBatch;

    /// How long a test waits for an answer before calling it lost.
    const WAIT: Duration = Duration::from_secs(5);

    fn network() -> SelectedNetwork {
        let raw = generate(&SynthConfig::small_test());
        ExpansionPipeline::new(PipelineConfig::default())
            .run(&raw)
            .expect("pipeline runs")
            .selected
    }

    #[test]
    fn pool_answers_match_direct_evaluation() {
        let net = network();
        let station = net.stations[0].clone();
        let (_writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let pool = QueryPool::new(Arc::clone(&handle), 3);
        let snap = handle.current();
        let requests = [
            Request::Station(station.id),
            Request::Nearest {
                at: station.position,
                k: 3,
            },
            Request::Community(station.id),
            Request::PageRank(station.id),
            Request::Degrees { directed: true },
            Request::Degrees { directed: false },
        ];
        for req in requests {
            let got = pool.submit(req.clone()).recv().unwrap();
            assert_eq!(got, answer(&snap, &req), "pooled answer for {req:?}");
            assert_eq!(got.epoch, 0);
        }
    }

    #[test]
    fn nearest_returns_the_station_itself_first() {
        let net = network();
        let station = net.stations[0].clone();
        let (_writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let pool = QueryPool::new(Arc::clone(&handle), 2);
        let got = pool
            .submit(Request::Nearest {
                at: station.position,
                k: 2,
            })
            .recv()
            .unwrap();
        let Response::Nearest(hits) = got.response else {
            panic!("wrong response variant");
        };
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].0, station.id);
        assert!(hits[0].1 <= hits[1].1, "sorted by distance");
    }

    #[test]
    fn unknown_ids_answer_none_not_panic() {
        let net = network();
        let (_writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let pool = QueryPool::new(Arc::clone(&handle), 1);
        let missing = u64::MAX - 7;
        assert_eq!(
            pool.submit(Request::Station(missing))
                .recv()
                .unwrap()
                .response,
            Response::Station(None)
        );
        assert_eq!(
            pool.submit(Request::Community(missing))
                .recv()
                .unwrap()
                .response,
            Response::Community(None)
        );
        assert_eq!(
            pool.submit(Request::PageRank(missing))
                .recv()
                .unwrap()
                .response,
            Response::PageRank(None)
        );
    }

    #[test]
    fn answers_observe_new_epochs_after_publish() {
        let net = network();
        let batch = {
            let mut b = TripBatch::new();
            for k in 0..10.min(net.trips.len()) {
                b.push_keyed(
                    net.trips.station_id(net.trips.src()[k]),
                    net.trips.station_id(net.trips.dst()[k]),
                    net.trips.day()[k],
                    net.trips.hour()[k],
                    1.0,
                );
            }
            b
        };
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let pool = QueryPool::new(Arc::clone(&handle), 2);
        assert_eq!(
            pool.submit(Request::Degrees { directed: true })
                .recv()
                .unwrap()
                .epoch,
            0
        );
        writer.apply(WriteOp::Ingest(batch)).expect("valid batch");
        assert_eq!(
            pool.submit(Request::Degrees { directed: true })
                .recv()
                .unwrap()
                .epoch,
            1
        );
    }

    #[test]
    fn a_panicking_job_answers_failed_and_its_worker_keeps_serving() {
        let net = network();
        let req = Request::Station(net.stations[0].id);
        let (_writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        let pool = QueryPool::new(Arc::clone(&handle), 1);
        let failed = pool
            .dispatch(Work::Probe(Box::new(|_| panic!("a query bug"))))
            .recv_timeout(WAIT)
            .expect("a panicking job still answers");
        assert_eq!(
            failed,
            Answer {
                epoch: 0,
                response: Response::Failed
            }
        );
        let got = pool
            .submit(req.clone())
            .recv_timeout(WAIT)
            .expect("the only worker survived the panic");
        assert_eq!(got, answer(&handle.current(), &req));
    }

    #[test]
    fn a_full_queue_answers_overloaded_and_every_queued_job_is_answered() {
        let net = network();
        let station = net.stations[0].id;
        let (mut writer, handle) = SnapshotWriter::new(net, ServeConfig::default());
        writer
            .apply(WriteOp::Ingest(TripBatch::new()))
            .expect("an empty batch publishes");
        let pool = QueryPool::new(Arc::clone(&handle), 1);

        // Hold the only worker inside a job, so nothing leaves the queue.
        let (started, worker_holds) = sync_channel(1);
        let (release, held) = sync_channel::<()>(1);
        let holding = pool.dispatch(Work::Probe(Box::new(move |snapshot| {
            let _ = started.send(());
            let _ = held.recv();
            answer(snapshot, &Request::Degrees { directed: true })
        })));
        worker_holds
            .recv_timeout(WAIT)
            .expect("the worker takes the holding job");

        let requests: Vec<Request> = (0..QUEUE_CAPACITY)
            .map(|k| match k % 3 {
                0 => Request::Station(station),
                1 => Request::Community(station),
                _ => Request::PageRank(station),
            })
            .collect();
        let queued: Vec<_> = requests.iter().map(|r| pool.submit(r.clone())).collect();
        let refused = pool
            .submit(Request::Station(station))
            .try_recv()
            .expect("a full queue answers at once");
        assert_eq!(
            refused,
            Answer {
                epoch: 1,
                response: Response::Overloaded
            }
        );

        // Released, the worker answers the holding job and every queued
        // one, even once the pool is dropped behind them.
        release.send(()).expect("the holding job waits");
        drop(pool);
        let snap = handle.current();
        assert_eq!(
            holding.recv_timeout(WAIT).expect("the holding job answers"),
            answer(&snap, &Request::Degrees { directed: true })
        );
        for (req, reply) in requests.iter().zip(queued) {
            let got = reply.recv_timeout(WAIT).expect("a queued job answers");
            assert_eq!(got, answer(&snap, req), "queued answer for {req:?}");
        }
    }

    #[test]
    fn a_pool_without_a_live_worker_answers_failed() {
        let (mut writer, handle) = SnapshotWriter::new(network(), ServeConfig::default());
        writer
            .apply(WriteOp::Ingest(TripBatch::new()))
            .expect("an empty batch publishes");
        let (queue, jobs) = sync_channel(QUEUE_CAPACITY);
        drop(jobs);
        let pool = QueryPool {
            queue,
            handle,
            _workers: Workers(Vec::new()),
        };
        let got = pool
            .submit(Request::Degrees { directed: false })
            .try_recv()
            .expect("a closed queue answers at once");
        assert_eq!(
            got,
            Answer {
                epoch: 1,
                response: Response::Failed
            }
        );
    }
}
