//! Deterministic parallel execution over CSR row ranges.
//!
//! Every hot algorithm in this workspace sweeps the contiguous rows of a
//! frozen [`CsrGraph`](crate::CsrGraph). This module is the shared scheduler
//! those sweeps run on: it splits the row space `0..n` into contiguous
//! chunks, executes one closure per chunk on scoped `std` threads, and hands
//! the per-chunk results back **in chunk-index order** so any fold over them
//! is a fixed-order reduction.
//!
//! ## The determinism contract
//!
//! Results are **bit-identical regardless of the worker-thread count**.
//! Two rules make that hold, and every caller in the workspace relies on
//! them:
//!
//! 1. **Chunk boundaries are a pure function of the row structure.**
//!    [`RowChunks`] is computed from the CSR offsets (balanced by edge
//!    count) or from the row count alone — never from the thread count.
//!    Thread count only decides *which worker executes which chunk*, and a
//!    chunk's output does not depend on the worker that ran it.
//! 2. **Merges happen in chunk-index order.** [`par_map`] and friends
//!    return the per-chunk results as a `Vec` indexed by chunk, so
//!    floating-point reductions over them associate the same way every
//!    run. A single-threaded run uses the *same* chunk decomposition and
//!    merge order, which is why the serial `*_csr` entry points are exactly
//!    the 1-thread specialisation of the parallel ones.
//!
//! ## Thread-count resolution
//!
//! [`thread_count`] resolves, in order: an explicit override (the
//! `threads` field most algorithm configs carry), the `MOBY_THREADS`
//! environment variable, and finally
//! [`std::thread::available_parallelism`]. The result is clamped to
//! `1..=`[`MAX_THREADS`]. `MOBY_THREADS=0` or an unparsable value falls
//! through to auto-detection. Because of the contract above, changing the
//! thread count never changes a result — only how fast it arrives.

use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;

/// Hard ceiling on the number of worker threads.
pub const MAX_THREADS: usize = 64;

/// Environment variable consulted by [`thread_count`] when no explicit
/// override is given.
pub const THREADS_ENV: &str = "MOBY_THREADS";

/// Default maximum number of chunks a row space is split into.
const DEFAULT_MAX_CHUNKS: usize = 64;

/// Default minimum work (rows + edges) per chunk; row spaces smaller than
/// twice this collapse into fewer chunks so tiny graphs never pay
/// scheduling overhead.
const DEFAULT_MIN_CHUNK_WORK: usize = 256;

/// Resolve the worker-thread count: `explicit` override, then the
/// [`THREADS_ENV`] environment variable, then
/// [`std::thread::available_parallelism`]; clamped to `1..=`[`MAX_THREADS`].
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit
        .filter(|&n| n > 0)
        .or_else(|| parse_threads(std::env::var(THREADS_ENV).ok().as_deref()))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
        .clamp(1, MAX_THREADS)
}

/// Parse a [`THREADS_ENV`] value; `0`, empty or garbage mean "auto".
fn parse_threads(raw: Option<&str>) -> Option<usize> {
    raw.and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
}

/// A deterministic partition of the row space `0..n` into contiguous
/// chunks, balanced by per-row work (1 + the row's edge count when built
/// [`from_offsets`](RowChunks::from_offsets)).
///
/// The decomposition depends only on the row structure and the explicit
/// `max_chunks` / `min_chunk_work` arguments — **never on the thread
/// count** — which is what makes every scheduler result reproducible at
/// any parallelism (see the [module docs](self)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowChunks {
    ranges: Vec<Range<usize>>,
    rows: usize,
}

impl RowChunks {
    /// Edge-balanced chunks over a CSR offset array (`offsets.len() == n+1`)
    /// with the default chunk budget.
    pub fn from_offsets(offsets: &[u32]) -> RowChunks {
        RowChunks::balanced(offsets, DEFAULT_MAX_CHUNKS, DEFAULT_MIN_CHUNK_WORK)
    }

    /// Edge-balanced chunks over a CSR offset array with an explicit chunk
    /// budget: at most `max_chunks` chunks, each carrying at least
    /// `min_chunk_work` units of work (a row costs `1 +` its edge count)
    /// where possible.
    pub fn balanced(offsets: &[u32], max_chunks: usize, min_chunk_work: usize) -> RowChunks {
        let n = offsets.len().saturating_sub(1);
        let row_work = |u: usize| 1 + (offsets[u + 1] - offsets[u]) as usize;
        let total = n + offsets.last().map(|&e| e as usize).unwrap_or(0);
        let target_chunks = (total / min_chunk_work.max(1)).clamp(1, max_chunks.max(1));
        let mut ranges = Vec::with_capacity(target_chunks);
        let mut start = 0usize;
        let mut work_left = total;
        while start < n {
            let chunks_left = target_chunks - ranges.len();
            if chunks_left <= 1 {
                ranges.push(start..n);
                break;
            }
            let target = work_left.div_ceil(chunks_left);
            let mut end = start;
            let mut acc = 0usize;
            while end < n && (acc < target || end == start) {
                acc += row_work(end);
                end += 1;
            }
            work_left -= acc;
            ranges.push(start..end);
            start = end;
        }
        RowChunks { ranges, rows: n }
    }

    /// Row-count-balanced chunks for sweeps whose per-row cost is not
    /// proportional to the row length (e.g. the edge-list passes of a
    /// build, one item per edge): at most `max_chunks` equal-sized
    /// contiguous ranges.
    pub fn uniform(n: usize, max_chunks: usize) -> RowChunks {
        let chunks = max_chunks.max(1).min(n.max(1));
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0usize;
        for c in 0..chunks {
            let end = n * (c + 1) / chunks;
            if end > start {
                ranges.push(start..end);
                start = end;
            }
        }
        RowChunks { ranges, rows: n }
    }

    /// The chunk ranges, contiguous and covering `0..rows` in order.
    pub fn ranges(&self) -> &[Range<usize>] {
        &self.ranges
    }

    /// Number of chunks.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// Whether the row space is empty.
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Number of rows covered (`n`).
    pub fn rows(&self) -> usize {
        self.rows
    }
}

/// Run `f` once per chunk across up to `threads` scoped workers and return
/// the per-chunk results **in chunk-index order**. `make_state` builds one
/// scratch state per worker (allocated once, reused across that worker's
/// chunks). With `threads <= 1` (or a single chunk) everything runs inline
/// on the calling thread — same chunks, same merge order, same bits.
pub fn par_map_with<S, R, M, F>(chunks: &RowChunks, threads: usize, make_state: M, f: F) -> Vec<R>
where
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>) -> R + Sync,
{
    par_each_with(chunks.ranges().to_vec(), threads, make_state, f)
}

/// [`par_map_with`] without per-worker state.
pub fn par_map<R, F>(chunks: &RowChunks, threads: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize, Range<usize>) -> R + Sync,
{
    par_map_with(chunks, threads, || (), move |_, i, r| f(i, r))
}

/// Fill `out` (one element per row) in parallel: chunk `i` receives the
/// exclusive sub-slice `out[ranges[i]]`, so writes are disjoint by
/// construction and no synchronisation is needed. Returns the per-chunk
/// closure results in chunk-index order (use them for fixed-order
/// reductions computed alongside the fill, e.g. a convergence norm).
pub fn par_fill_with<T, S, R, M, F>(
    chunks: &RowChunks,
    threads: usize,
    out: &mut [T],
    make_state: M,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, Range<usize>, &mut [T]) -> R + Sync,
{
    assert_eq!(
        out.len(),
        chunks.rows(),
        "par_fill_with output length must equal the chunked row count"
    );
    let ranges = chunks.ranges();
    let items = ranges
        .iter()
        .cloned()
        .zip(split_at_ends(out, ranges.iter().map(|r| r.end)))
        .collect();
    par_each_with(items, threads, make_state, |state, i, (range, slice)| {
        f(state, i, range, slice)
    })
}

/// The scheduler core: run `f` once per item across up to `threads` scoped
/// workers (item `i` goes to worker `i % threads`) and return the results
/// **in item order**. Items move into the workers, so an item may carry an
/// exclusive `&mut` sub-slice of a shared buffer (see [`split_at_ends`]):
/// each chunk then writes its own part with no synchronisation.
/// `make_state` builds one scratch state per worker. With `threads <= 1`
/// (or a single item) everything runs inline on the calling thread.
pub(crate) fn par_each_with<T, S, R, M, F>(
    items: Vec<T>,
    threads: usize,
    make_state: M,
    f: F,
) -> Vec<R>
where
    T: Send,
    R: Send,
    M: Fn() -> S + Sync,
    F: Fn(&mut S, usize, T) -> R + Sync,
{
    let count = items.len();
    let threads = threads.clamp(1, MAX_THREADS).min(count.max(1));
    if threads <= 1 {
        let mut state = make_state();
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    let mut per_worker: Vec<Vec<(usize, T)>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, item) in items.into_iter().enumerate() {
        per_worker[i % threads].push((i, item));
    }
    let mut results: Vec<Option<R>> = Vec::with_capacity(count);
    results.resize_with(count, || None);
    std::thread::scope(|scope| {
        let handles: Vec<_> = per_worker
            .into_iter()
            .map(|mine| {
                let f = &f;
                let make_state = &make_state;
                scope.spawn(move || {
                    let mut state = make_state();
                    mine.into_iter()
                        .map(|(i, item)| (i, f(&mut state, i, item)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, r) in handle.join().expect("scheduler worker panicked") {
                results[i] = Some(r);
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every chunk executed"))
        .collect()
}

/// Split `buf` into consecutive sub-slices ending at the ascending
/// positions `ends` (the first starts at 0) — the per-chunk pieces
/// [`par_each_with`] hands out.
pub(crate) fn split_at_ends<T>(
    mut buf: &mut [T],
    ends: impl IntoIterator<Item = usize>,
) -> Vec<&mut [T]> {
    let mut at = 0usize;
    ends.into_iter()
        .map(|end| {
            let (head, tail) = std::mem::take(&mut buf).split_at_mut(end - at);
            (at, buf) = (end, tail);
            head
        })
        .collect()
}

/// A shared `f64` buffer for iterative sweeps ([`par_iterate`]): plain
/// `f64` bits stored in relaxed atomics, so concurrent workers can read the
/// whole buffer while each writes only its own rows. Relaxed ordering is
/// sufficient because [`par_iterate`]'s barriers separate every iteration's
/// writes from the next iteration's reads (a relaxed load/store compiles to
/// a plain move on the usual targets, so this costs nothing over `Vec<f64>`).
pub struct SharedF64Buf(Vec<AtomicU64>);

impl SharedF64Buf {
    /// A buffer of `n` slots, all holding `value`.
    pub fn new(n: usize, value: f64) -> SharedF64Buf {
        SharedF64Buf((0..n).map(|_| AtomicU64::new(value.to_bits())).collect())
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the buffer has no slots.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Read slot `i`.
    #[inline]
    pub fn get(&self, i: usize) -> f64 {
        f64::from_bits(self.0[i].load(Ordering::Relaxed))
    }

    /// Write slot `i`.
    #[inline]
    pub fn set(&self, i: usize, value: f64) {
        self.0[i].store(value.to_bits(), Ordering::Relaxed);
    }

    /// Copy the buffer out as a plain vector.
    pub fn to_vec(&self) -> Vec<f64> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }
}

/// Run repeated whole-row sweeps on a **persistent** pool of scoped
/// workers — the driver for power-iteration-style algorithms (PageRank)
/// where spawning threads per iteration would dominate the sweep cost.
///
/// Iteration `k` proceeds as: every chunk executes `sweep(k, chunk, rows)`
/// concurrently (workers hold a fixed round-robin chunk assignment); once
/// all chunks finish, `control(k)` runs alone on the calling thread while
/// the workers wait — this quiescent window is where the caller reduces
/// per-chunk results (in chunk order!), checks convergence and prepares
/// shared state (e.g. [`SharedF64Buf`] buffers) for iteration `k + 1`.
/// Returning `false` from `control` ends the loop.
///
/// Workers are spawned once and synchronised with two barriers per
/// iteration. With `threads <= 1` (or a single chunk) the loop runs inline
/// with no threads and no barriers — same chunks, same merge order, same
/// bits, per the module's determinism contract.
pub fn par_iterate<F, G>(chunks: &RowChunks, threads: usize, sweep: F, mut control: G)
where
    F: Fn(u64, usize, Range<usize>) + Sync,
    G: FnMut(u64) -> bool,
{
    let ranges = chunks.ranges();
    let threads = threads.clamp(1, MAX_THREADS).min(ranges.len().max(1));
    if threads <= 1 {
        let mut k = 0u64;
        loop {
            for (i, r) in ranges.iter().enumerate() {
                sweep(k, i, r.clone());
            }
            if !control(k) {
                return;
            }
            k += 1;
        }
    }
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|scope| {
        for t in 0..threads {
            let sweep = &sweep;
            let stop = &stop;
            let barrier = &barrier;
            scope.spawn(move || {
                let mut k = 0u64;
                loop {
                    barrier.wait(); // start gate: iteration k begins
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    let mut i = t;
                    while i < ranges.len() {
                        sweep(k, i, ranges[i].clone());
                        i += threads;
                    }
                    barrier.wait(); // end gate: iteration k complete
                    k += 1;
                }
            });
        }
        let mut k = 0u64;
        loop {
            barrier.wait(); // release workers into iteration k
            barrier.wait(); // all chunks of iteration k done
                            // Quiescent window: workers are parked at the next start gate,
                            // so `control` has exclusive access to shared state.
            if !control(k) {
                stop.store(true, Ordering::Release);
                barrier.wait(); // release workers to observe `stop`
                break;
            }
            k += 1;
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Offsets of a graph whose row u has u % 7 edges.
    fn offsets(n: usize) -> Vec<u32> {
        let mut o = Vec::with_capacity(n + 1);
        o.push(0u32);
        for u in 0..n {
            o.push(o[u] + (u % 7) as u32);
        }
        o
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(10_000)), MAX_THREADS);
        assert!(thread_count(None) >= 1);
        // Explicit 0 falls through to auto.
        assert!(thread_count(Some(0)) >= 1);
        assert_eq!(parse_threads(Some("4")), Some(4));
        assert_eq!(parse_threads(Some(" 2 ")), Some(2));
        assert_eq!(parse_threads(Some("0")), None);
        assert_eq!(parse_threads(Some("auto")), None);
        assert_eq!(parse_threads(None), None);
    }

    #[test]
    fn chunks_cover_rows_exactly_once() {
        for n in [0usize, 1, 5, 100, 1000] {
            let o = offsets(n);
            let c = RowChunks::balanced(&o, 8, 16);
            assert_eq!(c.rows(), n);
            let mut next = 0usize;
            for r in c.ranges() {
                assert_eq!(r.start, next, "contiguous");
                assert!(r.end > r.start, "non-empty");
                next = r.end;
            }
            assert_eq!(next, n, "covers all rows");
            assert_eq!(c.is_empty(), n == 0);
            assert!(c.len() <= 8);
        }
    }

    #[test]
    fn chunks_are_balanced_by_edge_count() {
        let o = offsets(1000);
        let c = RowChunks::balanced(&o, 8, 1);
        assert_eq!(c.len(), 8);
        let work = |r: &Range<usize>| (r.len() + (o[r.end] - o[r.start]) as usize) as f64;
        let works: Vec<f64> = c.ranges().iter().map(work).collect();
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        for w in &works {
            assert!(
                (w - mean).abs() < 0.25 * mean,
                "chunk work {w} vs mean {mean}"
            );
        }
    }

    #[test]
    fn small_row_spaces_collapse_to_one_chunk() {
        let o = offsets(10);
        let c = RowChunks::from_offsets(&o);
        assert_eq!(c.len(), 1);
        assert_eq!(c.ranges()[0], 0..10);
    }

    #[test]
    fn uniform_chunks_split_evenly() {
        let c = RowChunks::uniform(10, 4);
        assert_eq!(c.len(), 4);
        assert_eq!(c.rows(), 10);
        let sizes: Vec<usize> = c.ranges().iter().map(|r| r.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(sizes.iter().all(|&s| s == 2 || s == 3));
        assert!(RowChunks::uniform(0, 4).is_empty());
        assert_eq!(RowChunks::uniform(2, 8).len(), 2);
    }

    #[test]
    fn par_map_results_arrive_in_chunk_order() {
        let o = offsets(500);
        let c = RowChunks::balanced(&o, 16, 1);
        for threads in [1, 2, 4, 7] {
            let got = par_map(&c, threads, |i, r| (i, r.start, r.end));
            for (pos, &(i, start, end)) in got.iter().enumerate() {
                assert_eq!(pos, i);
                assert_eq!(start..end, c.ranges()[i]);
            }
        }
    }

    #[test]
    fn par_fill_writes_every_row_once() {
        let o = offsets(333);
        let c = RowChunks::balanced(&o, 16, 1);
        for threads in [1, 3, 8] {
            let mut out = vec![usize::MAX; 333];
            par_fill_with(
                &c,
                threads,
                &mut out,
                || (),
                |_, _, range, slice| {
                    for (j, u) in range.clone().enumerate() {
                        slice[j] = u * 2;
                    }
                },
            );
            for (u, &v) in out.iter().enumerate() {
                assert_eq!(v, u * 2);
            }
        }
    }

    #[test]
    fn reductions_are_bit_identical_across_thread_counts() {
        // Sum of awkward floats: the fixed chunk-merge order must make the
        // reduction independent of the worker count.
        let o = offsets(2000);
        let c = RowChunks::balanced(&o, 32, 1);
        let value = |u: usize| 1.0 / (u as f64 + 0.3);
        let reduce = |threads: usize| -> f64 {
            par_map(&c, threads, |_, range| range.map(value).sum::<f64>())
                .into_iter()
                .sum()
        };
        let serial = reduce(1);
        for threads in [2, 3, 4, 8, 13] {
            assert_eq!(serial.to_bits(), reduce(threads).to_bits());
        }
    }

    #[test]
    fn worker_state_is_reused_not_shared() {
        let o = offsets(100);
        let c = RowChunks::balanced(&o, 10, 1);
        // Each worker counts the chunks it ran; totals must cover all chunks.
        let counts = par_map_with(
            &c,
            4,
            || 0usize,
            |state, _, _| {
                *state += 1;
                *state
            },
        );
        assert_eq!(counts.len(), c.len());
        // A worker's count sequence is 1, 2, ... — every chunk got a value.
        assert!(counts.iter().all(|&v| v >= 1));
    }

    #[test]
    fn shared_buffer_round_trips() {
        let buf = SharedF64Buf::new(4, 1.5);
        assert_eq!(buf.len(), 4);
        assert!(!buf.is_empty());
        assert_eq!(buf.get(2), 1.5);
        buf.set(2, -0.25);
        assert_eq!(buf.get(2), -0.25);
        assert_eq!(buf.to_vec(), vec![1.5, 1.5, -0.25, 1.5]);
        assert!(SharedF64Buf::new(0, 0.0).is_empty());
    }

    #[test]
    fn par_iterate_runs_every_chunk_every_iteration() {
        let o = offsets(400);
        let c = RowChunks::balanced(&o, 8, 1);
        for threads in [1usize, 2, 4] {
            // acc[u] counts how many iterations touched row u.
            let acc = SharedF64Buf::new(400, 0.0);
            let mut iterations = 0u64;
            par_iterate(
                &c,
                threads,
                |_, _, range| {
                    for u in range {
                        acc.set(u, acc.get(u) + 1.0);
                    }
                },
                |k| {
                    iterations = k + 1;
                    k < 4 // run exactly 5 iterations
                },
            );
            assert_eq!(iterations, 5, "{threads} threads");
            for u in 0..400 {
                assert_eq!(acc.get(u), 5.0, "row {u} at {threads} threads");
            }
        }
    }

    #[test]
    fn par_iterate_quiescent_window_sees_consistent_state() {
        // An iterative doubling sweep: control verifies after each
        // iteration that every row was doubled exactly once, which fails if
        // workers raced past the end gate.
        let o = offsets(300);
        let c = RowChunks::balanced(&o, 8, 1);
        for threads in [2usize, 4] {
            let buf = SharedF64Buf::new(300, 1.0);
            par_iterate(
                &c,
                threads,
                |_, _, range| {
                    for u in range {
                        buf.set(u, buf.get(u) * 2.0);
                    }
                },
                |k| {
                    let expect = 2.0f64.powi(k as i32 + 1);
                    for u in 0..300 {
                        assert_eq!(buf.get(u), expect, "iteration {k}, row {u}");
                    }
                    k < 3
                },
            );
        }
    }

    #[test]
    fn empty_row_space_is_a_no_op() {
        let c = RowChunks::from_offsets(&[0u32]);
        assert!(c.is_empty());
        let got: Vec<usize> = par_map(&c, 4, |i, _| i);
        assert!(got.is_empty());
        let mut out: Vec<f64> = Vec::new();
        let res: Vec<()> = par_fill_with(&c, 4, &mut out, || (), |_, _, _, _| ());
        assert!(res.is_empty());
    }
}
