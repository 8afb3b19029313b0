//! Out-of-core spill runs for the CSR construction path.
//!
//! When a build's estimated run size exceeds the spill budget its caller
//! passes to [`build_dense_csr_budgeted`](crate::build_dense_csr_budgeted),
//! a partition pass writes the half-edges to **per-shard spill files**:
//! each shard's run holds exactly the half-edges whose row falls in that
//! shard's range, written in **global insertion order**, as plain
//! little-endian records. Each shard then fills its slice of the build's
//! row buckets from its own run instead of scanning the edge columns; the
//! merge that follows is the in-memory one, so the frozen graph is
//! bit-identical to the in-memory build at any shard count × thread count
//! × budget — the spill-budget independence axis of the construction
//! contract (see `crate::build` and `DESIGN.md`). The row buckets are in
//! memory on both arms, so a spilled build does not peak lower than an
//! in-memory one.
//!
//! This module owns the mechanical pieces: the budget rule, the
//! RAII-cleaned temp directory, and the run writers/readers. The actual
//! spilled packing lives in `crate::build`.
//!
//! ## Run format
//!
//! One 16-byte record per half-edge, fixed layout, little-endian:
//! `row: u32 | col: u32 | weight-bits: u64` (`f64::to_bits`). Runs are
//! pure streams — no header, no framing — because record counts are known
//! from the counting pass and the format never leaves the process.

use crate::GraphError;
use std::fs::{self, File};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes one half-edge occupies in a spill-run record
/// (`row: u32 + col: u32 + weight: f64`) — the unit of the budget rule.
pub const HALF_EDGE_BYTES: usize = 16;

/// The budget rule: spill when the estimated run size —
/// `half_edges ×` [`HALF_EDGE_BYTES`] — **exceeds** the budget, in bytes.
/// No budget means never; an empty build never spills (there is nothing
/// to write).
pub fn should_spill(half_edges: usize, budget: Option<u64>) -> bool {
    budget.is_some_and(|b| (half_edges as u64).saturating_mul(HALF_EDGE_BYTES as u64) > b)
}

/// Format a spill I/O failure as the crate's [`GraphError::Spill`]
/// variant (`std::io::Error` is neither `Clone` nor `PartialEq`, so the
/// variant carries the rendered message).
pub(crate) fn spill_error(context: &str, path: &Path, err: &std::io::Error) -> GraphError {
    GraphError::Spill(format!("{context} {}: {err}", path.display()))
}

/// Process-unique suffix so concurrent builds never share a directory.
static SPILL_DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// A RAII temp directory holding one build's spill runs: created under
/// the given base (default [`std::env::temp_dir`]) and **removed on drop**
/// — success, early return and panic unwind all clean up the runs.
#[derive(Debug)]
pub struct SpillDir {
    path: PathBuf,
}

impl SpillDir {
    /// Create a fresh spill directory under `base` (or the system temp
    /// dir). Fails with [`GraphError::Spill`] when the base is not
    /// writable — e.g. it names an existing file.
    pub fn create(base: Option<&Path>) -> crate::Result<SpillDir> {
        let base = base
            .map(Path::to_path_buf)
            .unwrap_or_else(std::env::temp_dir);
        let seq = SPILL_DIR_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = base.join(format!("moby-spill-{}-{seq}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| spill_error("creating spill dir", &path, &e))?;
        Ok(SpillDir { path })
    }

    /// The directory the runs live under.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for SpillDir {
    fn drop(&mut self) {
        // Best-effort: cleanup failure must never turn into a panic-in-drop.
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// Buffered per-shard run writers for the partition pass. Half-edges are
/// appended in global insertion order; write failures are **latched**
/// (the per-record path stays infallible so the scatter loop needs no
/// error plumbing) and surface from [`ShardRunWriters::finish`].
pub struct ShardRunWriters {
    paths: Vec<PathBuf>,
    writers: Vec<BufWriter<File>>,
    counts: Vec<u64>,
    err: Option<GraphError>,
}

impl ShardRunWriters {
    /// Open one run file per shard under `dir`. `tag` keeps multiple
    /// packs in the same directory apart (a directed build packs both an
    /// out- and an in-adjacency).
    pub fn create(dir: &Path, shards: usize, tag: &str) -> crate::Result<ShardRunWriters> {
        let mut paths = Vec::with_capacity(shards);
        let mut writers = Vec::with_capacity(shards);
        for s in 0..shards {
            let path = dir.join(format!("run-{tag}-{s}.bin"));
            let file =
                File::create(&path).map_err(|e| spill_error("creating spill run", &path, &e))?;
            writers.push(BufWriter::with_capacity(1 << 16, file));
            paths.push(path);
        }
        Ok(ShardRunWriters {
            paths,
            writers,
            counts: vec![0u64; shards],
            err: None,
        })
    }

    /// Append one half-edge record to a shard's run. Errors latch; the
    /// first one is reported by [`ShardRunWriters::finish`].
    #[inline]
    pub fn push(&mut self, shard: usize, row: u32, col: u32, weight: f64) {
        if self.err.is_some() {
            return;
        }
        // The record is one little-endian `u128`, `row` in its low bits.
        let rec = u128::from(row) | u128::from(col) << 32 | u128::from(weight.to_bits()) << 64;
        if let Err(e) = self.writers[shard].write_all(&rec.to_le_bytes()) {
            self.err = Some(spill_error("writing spill run", &self.paths[shard], &e));
            return;
        }
        self.counts[shard] += 1;
    }

    /// Flush every run and hand back the readable [`ShardRuns`], or the
    /// first latched/flush error.
    pub fn finish(mut self) -> crate::Result<ShardRuns> {
        if let Some(e) = self.err.take() {
            return Err(e);
        }
        for (s, w) in self.writers.iter_mut().enumerate() {
            w.flush()
                .map_err(|e| spill_error("flushing spill run", &self.paths[s], &e))?;
        }
        Ok(ShardRuns {
            paths: self.paths,
            counts: self.counts,
        })
    }
}

/// The finished, readable per-shard runs of one pack. Shards replay
/// independently ([`ShardRuns::for_each`] opens its own reader), so the
/// merge stage can stream every shard in parallel.
#[derive(Debug)]
pub struct ShardRuns {
    paths: Vec<PathBuf>,
    counts: Vec<u64>,
}

impl ShardRuns {
    /// Number of half-edge records in a shard's run.
    pub fn shard_len(&self, shard: usize) -> u64 {
        self.counts[shard]
    }

    /// Stream one shard's run in write (= global insertion) order.
    pub fn for_each(&self, shard: usize, f: &mut dyn FnMut(u32, u32, f64)) -> crate::Result<()> {
        let path = &self.paths[shard];
        let file = File::open(path).map_err(|e| spill_error("opening spill run", path, &e))?;
        let mut reader = BufReader::with_capacity(1 << 16, file);
        let mut rec = [0u8; HALF_EDGE_BYTES];
        for _ in 0..self.counts[shard] {
            reader
                .read_exact(&mut rec)
                .map_err(|e| spill_error("reading spill run", path, &e))?;
            let rec = u128::from_le_bytes(rec);
            f(
                rec as u32,
                (rec >> 32) as u32,
                f64::from_bits((rec >> 64) as u64),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_rule_gates_on_estimated_footprint() {
        assert!(!should_spill(1_000, None));
        assert!(should_spill(1_000, Some(0)));
        assert!(should_spill(1_000, Some(15_999)));
        assert!(!should_spill(1_000, Some(16_000)));
        // An empty build never spills, even at zero budget.
        assert!(!should_spill(0, Some(0)));
    }

    #[test]
    fn runs_round_trip_bitwise_in_insertion_order() {
        let dir = SpillDir::create(None).unwrap();
        let mut w = ShardRunWriters::create(dir.path(), 2, "t").unwrap();
        w.push(0, 3, 7, 1.5);
        w.push(1, 9, 2, -0.0); // -0.0 must survive bit-exactly
        w.push(0, 3, 8, f64::MIN_POSITIVE);
        let runs = w.finish().unwrap();
        assert_eq!(runs.shard_len(0), 2);
        assert_eq!(runs.shard_len(1), 1);
        let mut got = Vec::new();
        runs.for_each(0, &mut |r, c, w| got.push((r, c, w.to_bits())))
            .unwrap();
        assert_eq!(
            got,
            vec![
                (3, 7, 1.5f64.to_bits()),
                (3, 8, f64::MIN_POSITIVE.to_bits())
            ]
        );
        got.clear();
        runs.for_each(1, &mut |r, c, w| got.push((r, c, w.to_bits())))
            .unwrap();
        assert_eq!(got, vec![(9, 2, (-0.0f64).to_bits())]);
    }

    #[test]
    fn spill_dir_is_removed_on_drop() {
        let dir = SpillDir::create(None).unwrap();
        let path = dir.path().to_path_buf();
        std::fs::write(path.join("leftover.bin"), b"x").unwrap();
        assert!(path.exists());
        drop(dir);
        assert!(!path.exists(), "drop must remove the run directory");
    }

    #[test]
    fn spill_dir_is_removed_on_panic_unwind() {
        let probe = SpillDir::create(None).unwrap();
        let base = probe.path().to_path_buf();
        // Build a guard inside the unwinding closure; its Drop must run.
        let path_cell = std::sync::Mutex::new(PathBuf::new());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let dir = SpillDir::create(Some(&base)).unwrap();
            std::fs::write(dir.path().join("run-x-0.bin"), b"x").unwrap();
            *path_cell.lock().unwrap() = dir.path().to_path_buf();
            panic!("simulated mid-build failure");
        }));
        assert!(result.is_err());
        let leaked = path_cell.lock().unwrap().clone();
        assert!(!leaked.as_os_str().is_empty());
        assert!(
            !leaked.exists(),
            "unwind must remove the run directory via the RAII guard"
        );
    }

    #[test]
    fn unwritable_base_is_a_clear_error_not_a_panic() {
        // Point the base at an existing *file*: create_dir_all must fail.
        let holder = SpillDir::create(None).unwrap();
        let file_base = holder.path().join("not-a-dir");
        std::fs::write(&file_base, b"occupied").unwrap();
        let err = SpillDir::create(Some(&file_base)).unwrap_err();
        match &err {
            GraphError::Spill(msg) => {
                assert!(msg.contains("creating spill dir"), "got: {msg}");
            }
            other => panic!("expected GraphError::Spill, got {other:?}"),
        }
        assert!(err.to_string().contains("spill"));
    }
}
