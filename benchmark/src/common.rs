//! What every workload shares: the run context, the report it fills, the
//! pipeline settings and the bitwise fingerprints the output checks use.

use crate::speed::{HostSpeed, NOMINAL_PROBE_MS};
use crate::stats::{median, Summary};
use crate::trace::Tracer;
use moby_community::Partition;
use moby_core::detect::DetectConfig;
use moby_core::pipeline::{CommunitySet, PipelineConfig};
use moby_data::schema::RawDataset;
use moby_data::synth::{generate, SynthConfig};
use moby_graph::CsrGraph;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Build the set-up state once on each of the first `reps` inputs
/// (`build` takes the input index), so that neither one slow repetition
/// nor one unusual input moves `setup_s`; returns the last state and
/// records each set-up time in `report`. The previous state is freed
/// before each repetition, outside its timing, and a host-speed probe
/// follows each.
pub fn set_up<T, E>(
    report: &mut Report,
    reps: usize,
    mut build: impl FnMut(usize) -> Result<T, E>,
) -> Result<T, E> {
    let mut last = None;
    for i in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build(i)?);
        report.setup_timed(t.elapsed().as_secs_f64());
        report.probe();
    }
    Ok(last.expect("at least one repetition"))
}

/// Every workload times at least this many operations, however short
/// `--seconds` is.
pub const MIN_OPS: usize = 3;

/// The settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload seed; overrides the generator configs' own seed.
    pub seed: u64,
    /// The run length asked for; it sizes the measured phase.
    pub seconds: Duration,
    /// Worker threads passed explicitly to every library call that takes
    /// a count.
    pub threads: usize,
    /// Replay the workload's calls under spans and report per-layer
    /// metrics instead of end-to-end ones.
    pub trace: bool,
}

impl Ctx {
    /// How many unit operations the measured phase runs: `--seconds`
    /// times the workload's nominal rate (`per_second`, taken from runs on
    /// the machine `RESULTS.md` names), and at least [`MIN_OPS`]. The
    /// count depends on the arguments alone, never on how fast the host
    /// runs, so one seed measures the same inputs on every commit.
    pub fn ops(&self, per_second: f64) -> usize {
        ((self.seconds.as_secs_f64() * per_second).round() as usize).max(MIN_OPS)
    }
}

/// The generator seed of the `i`-th input a run draws from its workload
/// seed (SplitMix64 over the pair). One `--seed` names one fixed sequence
/// of inputs; spreading a run over many inputs keeps its medians from
/// resting on the quirks of a single dataset.
pub fn input_seed(seed: u64, i: usize) -> u64 {
    let mut z = seed.wrapping_add((i as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The paper-scale synthetic dataset of the `i`-th input drawn from
/// `seed`.
pub fn paper_input(seed: u64, i: usize) -> RawDataset {
    generate(&SynthConfig {
        seed: input_seed(seed, i),
        ..SynthConfig::paper_scale()
    })
}

/// Pipeline settings of every workload: explicit thread count, one build
/// shard and no spill budget, so that no environment knob changes what is
/// measured.
pub fn pipeline_config(threads: usize) -> PipelineConfig {
    PipelineConfig {
        detect: DetectConfig {
            threads: Some(threads),
            ..DetectConfig::default()
        },
        build_shards: Some(1),
        spill_budget_mb: Some(u64::MAX),
        ..PipelineConfig::default()
    }
}

/// What bounds a workload's unit operation, which decides whether the
/// host factor corrects its times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpBound {
    /// Work in one thread, as in set-up: corrected.
    Compute,
    /// Hand-offs between threads: not corrected. The probe tracks how
    /// fast a thread computes, not how soon the host wakes one; corrected,
    /// the `serve_mixed` median's spread over five seeds doubled.
    Handoff,
}

/// What a workload hands back: human-readable lines, the metrics of the
/// result line, and the counts of checked operations.
#[derive(Debug, Default)]
pub struct Report {
    /// Lines printed before the result line.
    pub lines: Vec<String>,
    /// Result-line metrics by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Operations that errored and checks that failed.
    pub failed: u64,
    /// Tracers to write out when the run ends, with a thread label.
    pub tracers: Vec<(&'static str, Tracer)>,
    /// Peak RSS of each measured stretch (kB).
    rss_kb: Vec<f64>,
    /// Set when the peak RSS cannot be reset, so that it covers set-up.
    rss_since_start: bool,
    /// Host-speed probes of the run, which correct its end-to-end times.
    speed: HostSpeed,
    /// Set-up times (seconds), each with the number of probes before it.
    setup_s: Vec<(f64, usize)>,
    /// Unit-operation wall times (milliseconds), each with the number of
    /// probes before it.
    op_ms: Vec<(f64, usize)>,
}

impl Report {
    /// Record one output check (outside any timed region).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }

    /// Record one operation that ran to completion.
    pub fn op_ok(&mut self) {
        self.attempted += 1;
    }

    /// Record one operation that returned an error.
    pub fn op_failed(&mut self, what: impl std::fmt::Display) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("operation failed: {what}");
    }

    /// Add a human-readable line.
    pub fn line(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Set a result-line metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Set a result-line metric to the median of a sample, if any.
    pub fn metric_median(&mut self, name: &'static str, sample: &[f64]) {
        if !sample.is_empty() {
            self.metric(name, median(sample));
        }
    }

    /// Start a measured stretch (one operation, or a whole serving
    /// phase): hand the allocator's free memory back to the kernel and
    /// reset the kernel's peak-RSS mark for this process (`VmHWM`) to the
    /// current RSS, so that it covers only the stretch and does not depend
    /// on how much freed memory earlier operations left in the heap.
    pub fn stretch_begins(&mut self) {
        release_free_heap();
        if std::fs::write("/proc/self/clear_refs", "5").is_err() && !self.rss_since_start {
            self.rss_since_start = true;
            self.line("  note: the peak RSS cannot be reset here, so it covers set-up too".into());
        }
    }

    /// End a measured stretch: record its peak RSS.
    pub fn stretch_ends(&mut self) {
        if let Some(kb) = moby_bench::peak_rss_kb() {
            self.rss_kb.push(kb as f64);
        }
    }

    /// Time one host-speed probe, between operations.
    pub fn probe(&mut self) {
        self.speed.probe();
    }

    /// Record one set-up time, in seconds.
    pub fn setup_timed(&mut self, s: f64) {
        self.setup_s.push((s, self.speed.probes()));
    }

    /// Record one unit operation's wall time, in milliseconds.
    pub fn op_timed(&mut self, ms: f64) {
        self.op_ms.push((ms, self.speed.probes()));
    }

    /// Unit operations timed so far.
    pub fn ops_timed(&self) -> usize {
        self.op_ms.len()
    }

    /// `samples` divided by the host factor around each, or as they are.
    fn corrected(&self, samples: &[(f64, usize)], correct: bool) -> Vec<f64> {
        samples
            .iter()
            .map(|&(v, mark)| match self.speed.factor_at(mark) {
                Some(factor) if correct => v / factor,
                _ => v,
            })
            .collect()
    }

    /// The end-to-end metrics every workload reports, from the set-up
    /// and operation times recorded (at least one operation) and the peak
    /// RSS of its measured stretches. Set-up times, and operation times
    /// bound by compute, are divided by the host factor around each (see
    /// [`crate::speed`]). Returns the summary of the operation times as
    /// reported, for the workload's own lines; its tail is printed there
    /// but not gated, because on a shared host it spread past any useful
    /// bound from run to run.
    pub fn end_to_end(&mut self, bound: OpBound) -> Summary {
        let factor = self.speed.factor();
        let (probes, mismatches) = (self.speed.probes(), self.speed.mismatches);
        self.check(factor.is_some() && mismatches == 0, || {
            format!("host-speed probe: {probes} probes, {mismatches} with a wrong checksum")
        });
        let raw_setup: Vec<f64> = self.setup_s.iter().map(|&(s, _)| s).collect();
        let raw_op: Vec<f64> = self.op_ms.iter().map(|&(ms, _)| ms).collect();
        let (raw_setup, raw) = (median(&raw_setup), Summary::of(&raw_op));
        let setup_s = median(&self.corrected(&self.setup_s, true));
        let op = Summary::of(&self.corrected(&self.op_ms, bound == OpBound::Compute));
        let rss_mb = (!self.rss_kb.is_empty()).then(|| median(&self.rss_kb) / 1024.0);
        self.check(rss_mb.is_some(), || "VmHWM unreadable".into());
        self.metric("setup_s", setup_s);
        self.metric("op_p50_ms", op.p50);
        self.metric("peak_rss_mb", rss_mb.unwrap_or(0.0));
        self.line(format!(
            "  host factor           {:.4}     (median of {probes} probes, {:.3} ms, over nominal {NOMINAL_PROBE_MS} ms); \
             set-up{} times below are divided by the factor around each",
            factor.unwrap_or(1.0),
            self.speed.median_ms().unwrap_or(0.0),
            if bound == OpBound::Compute {
                " and operation"
            } else {
                ""
            }
        ));
        self.line(format!(
            "  raw wall times        setup {raw_setup:.4} s, op p50 {:.4} ms, op {} {:.4} ms",
            raw.p50,
            raw.tail_label(),
            raw.tail
        ));
        self.line(format!(
            "  setup_s               {setup_s:.4} s   (median of {} set-ups)",
            self.setup_s.len()
        ));
        self.line(format!(
            "  peak_rss_mb           {:.1} MB  (median peak of {} measured stretches)",
            rss_mb.unwrap_or(0.0),
            self.rss_kb.len()
        ));
        op
    }

    /// The tracing overhead line and metrics: the traced replay's
    /// operation time against the same operation run untraced in the same
    /// process, alternating.
    pub fn trace_overhead(&mut self, base_ms: &[f64], traced_ms: &[f64]) {
        let (base, traced) = (median(base_ms), median(traced_ms));
        self.metric("bench.trace.base_ms", base);
        self.metric("bench.trace.overhead_ms", traced - base);
        self.line(format!(
            "  tracing overhead      {:+.4} ms on a base of {base:.4} ms ({:+.2} %, medians of {} pairs)",
            traced - base,
            100.0 * (traced - base) / base,
            base_ms.len()
        ));
    }
}

/// Return the C allocator's free heap memory to the kernel. Without it,
/// one operation's peak RSS swung between 115 and 255 MB on the same
/// kind of input, with whatever the operations before it had left free.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's `malloc_trim` only returns unused heap pages to the
    // kernel; it takes the allocator's own locks and touches no live
    // allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// Elsewhere the allocator keeps what it keeps.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Wall time of `f` in milliseconds, with its result.
pub fn timed_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Run the untraced and the traced side of pair number `pair`,
/// alternating which side goes first, so that neither always meets the
/// caches and allocator state the other left behind.
pub fn in_turn<A, B>(pair: usize, base: impl FnOnce() -> A, traced: impl FnOnce() -> B) -> (A, B) {
    if pair.is_multiple_of(2) {
        let a = base();
        (a, traced())
    } else {
        let b = traced();
        (base(), b)
    }
}

/// FNV-1a-64 over `bytes`, continuing from `h`.
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// FNV-1a-64 offset basis.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Fold every bit of a frozen graph's equality contract into `h`: node
/// ids, offsets, targets, weight bits, total-weight bits, edge count.
pub fn fingerprint_graph(mut h: u64, g: &CsrGraph) -> u64 {
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
    fnv1a(h, &(g.edge_count() as u64).to_le_bytes())
}

/// The community detections of one run, compared bit for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct CommunityDigest {
    raw: Vec<Partition>,
    station: Vec<Partition>,
    modularity_bits: Vec<u64>,
}

impl CommunityDigest {
    /// Digest `GBasic`, `GDay` and `GHour` in order.
    pub fn of(set: &CommunitySet) -> CommunityDigest {
        let all = set.all();
        CommunityDigest {
            raw: all.iter().map(|d| d.raw_partition.clone()).collect(),
            station: all.iter().map(|d| d.station_partition.clone()).collect(),
            modularity_bits: all.iter().map(|d| d.modularity.to_bits()).collect(),
        }
    }

    /// Whether every granularity found communities with a finite,
    /// positive modularity.
    pub fn is_plausible(&self) -> bool {
        self.modularity_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .all(|q| q.is_finite() && q > 0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_START, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(FNV_START, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(FNV_START, b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn pairs_alternate_which_side_runs_first() {
        for pair in 0..4 {
            let order = std::cell::RefCell::new(Vec::new());
            in_turn(
                pair,
                || order.borrow_mut().push("base"),
                || order.borrow_mut().push("traced"),
            );
            let want = if pair.is_multiple_of(2) {
                ["base", "traced"]
            } else {
                ["traced", "base"]
            };
            assert_eq!(order.into_inner(), want);
        }
    }

    #[test]
    fn input_seeds_are_fixed_per_seed_and_distinct() {
        assert_eq!(input_seed(42, 3), input_seed(42, 3));
        let seeds: std::collections::HashSet<u64> = (0..4)
            .flat_map(|s| (0..64).map(move |i| input_seed(s, i)))
            .collect();
        assert_eq!(seeds.len(), 4 * 64);
    }

    #[test]
    fn op_counts_follow_the_arguments_only() {
        let ctx = |secs| Ctx {
            seed: 1,
            seconds: Duration::from_secs(secs),
            threads: 1,
            trace: false,
        };
        assert_eq!(ctx(12).ops(2.0), 24);
        assert_eq!(ctx(12).ops(0.3), 4, "rounded to the nearest count");
        assert_eq!(ctx(1).ops(0.5), MIN_OPS);
        assert_eq!(ctx(0).ops(1e6), MIN_OPS);
    }

    #[test]
    fn report_counts_checks_and_failures() {
        let mut r = Report::default();
        r.check(true, || unreachable!());
        r.check(false, || "expected".into());
        r.op_ok();
        r.op_failed("boom");
        assert_eq!((r.attempted, r.failed), (4, 2));
    }
}
