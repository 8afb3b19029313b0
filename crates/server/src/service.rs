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
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

struct Job {
    req: Request,
    reply: Sender<Answer>,
}

/// A fixed-size worker pool serving [`Request`]s from the current
/// snapshot.
///
/// Workers pull jobs off one shared queue; each job is answered against
/// the snapshot current *at dispatch time* on that worker. Dropping the
/// pool closes the queue and joins every worker.
pub struct QueryPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl QueryPool {
    /// Spawn `workers` threads (at least 1) serving from `handle`.
    pub fn new(handle: Arc<SnapshotHandle>, workers: usize) -> QueryPool {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|_| {
                let rx = Arc::clone(&rx);
                let handle = Arc::clone(&handle);
                std::thread::spawn(move || loop {
                    // Hold the queue lock only for the dequeue; the query
                    // itself runs unlocked so workers serve in parallel.
                    let job = match rx.lock().expect("job queue poisoned").recv() {
                        Ok(job) => job,
                        Err(_) => return, // pool dropped, queue closed
                    };
                    let snapshot = handle.current();
                    // A disconnected reply receiver just means the client
                    // gave up on this answer; serving continues.
                    let _ = job.reply.send(answer(&snapshot, &job.req));
                })
            })
            .collect();
        QueryPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueue a request; the returned channel yields the [`Answer`].
    pub fn submit(&self, req: Request) -> Receiver<Answer> {
        let (reply, rx) = channel();
        self.tx
            .as_ref()
            .expect("pool is alive until drop")
            .send(Job { req, reply })
            .expect("workers outlive the sender");
        rx
    }
}

impl Drop for QueryPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the queue; workers drain and exit
        for worker in self.workers.drain(..) {
            let _ = worker.join();
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
}
