//! Host-speed correction of the end-to-end times.
//!
//! The machines this benchmark runs on are small shares of busy hosts, and
//! their speed drifts by a third or more from one minute to the next with
//! nothing else running in the machine: the same pipeline run on the
//! same input took 0.61 s in one minute and 0.95 s a few minutes later.
//! A median over one run cannot remove a drift that lasts the whole run.
//! So every run also times a fixed reference kernel, the probe, at regular
//! points between its operations, and divides each set-up time and each
//! compute-bound operation time by the host factor around it: the median
//! time of the nearest probes over the probe's nominal time. The reported
//! times are then what the run would have taken on a host as fast as the
//! one `RESULTS.md` names, and the raw wall times are printed beside them.
//!
//! The probe is the benchmark's own code and runs only while no library
//! call is in flight in the probing thread, so no change to the library
//! moves it. Like the workloads, it is bound by memory latency and by
//! branchy work on a few megabytes: random updates across a table far
//! larger than the last-level cache, then a sort. Over 20-second
//! stretches of a drifting host, the pipeline's median divided by this
//! mix's kept less of the drift than random updates alone did and more
//! than a sort alone did by quartile spread, but the smallest ratio of
//! slowest to fastest stretch of the three.

use crate::stats::median;
use std::time::Instant;

/// Words in the probe's table: 32 MB.
const TABLE_WORDS: usize = 1 << 22;

/// Random read-modify-writes into the table per probe.
const UPDATES: u64 = 1 << 21;

/// Keys sorted per probe, in the first 4 MB of the table.
const SORT_KEYS: usize = 1 << 19;

/// Probes whose median corrects one sample: those nearest to it in the
/// run's order. Over 20-second stretches of a drifting host, this local
/// correction left the corrected median a spread of 0.072, where one
/// factor for each whole stretch left 0.105.
const NEAREST: usize = 9;

/// The probe's median time on the machine `RESULTS.md` names, in a
/// typical minute. A host factor above 1 means the host was slower.
pub const NOMINAL_PROBE_MS: f64 = 30.0;

/// The times the reference kernel took in one run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    probes_ms: Vec<f64>,
    checksum: Option<u64>,
    /// Probes whose checksum differed from the first probe's.
    pub mismatches: usize,
}

impl HostSpeed {
    /// Time one run of the kernel. Its table is allocated and touched
    /// before the timing and freed after it, so every probe does the same
    /// work and no probe adds to the peak RSS of a measured stretch.
    pub fn probe(&mut self) {
        let mut table = vec![1; TABLE_WORDS];
        let t = Instant::now();
        let sum = kernel(std::hint::black_box(&mut table));
        self.probes_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&table);
        if *self.checksum.get_or_insert(sum) != sum {
            self.mismatches += 1;
        }
    }

    /// Probes timed so far.
    pub fn probes(&self) -> usize {
        self.probes_ms.len()
    }

    /// Median probe time in milliseconds, if any probe ran.
    pub fn median_ms(&self) -> Option<f64> {
        (!self.probes_ms.is_empty()).then(|| median(&self.probes_ms))
    }

    /// The run's host factor: median probe time over the nominal time.
    pub fn factor(&self) -> Option<f64> {
        self.median_ms().map(|ms| ms / NOMINAL_PROBE_MS)
    }

    /// The host factor around a sample timed after the first `mark`
    /// probes: the median of the [`NEAREST`] probes closest to it, over
    /// the nominal time.
    pub fn factor_at(&self, mark: usize) -> Option<f64> {
        let n = self.probes_ms.len();
        let hi = (mark + NEAREST / 2 + 1).clamp(NEAREST.min(n), n);
        let lo = hi.saturating_sub(NEAREST);
        (n > 0).then(|| median(&self.probes_ms[lo..hi]) / NOMINAL_PROBE_MS)
    }
}

/// One probe's work; returns a checksum that is the same on every call.
fn kernel(table: &mut [u64]) -> u64 {
    let mask = table.len() as u64 - 1;
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    for i in 0..UPDATES {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let j = ((x >> 32) & mask) as usize;
        table[j] = table[j].wrapping_add(i);
    }
    let keys = &mut table[..SORT_KEYS];
    let mut y = x | 1;
    for k in keys.iter_mut() {
        y ^= y << 13;
        y ^= y >> 7;
        y ^= y << 17;
        *k = y;
    }
    keys.sort_unstable();
    x ^ keys[SORT_KEYS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_repeat_their_checksum_and_set_the_factor() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.factor(), None);
        for _ in 0..3 {
            speed.probe();
        }
        assert_eq!((speed.probes(), speed.mismatches), (3, 0));
        let factor = speed.factor().unwrap();
        assert!(factor > 0.0 && factor.is_finite());
        assert_eq!(factor, speed.median_ms().unwrap() / NOMINAL_PROBE_MS);
    }

    #[test]
    fn local_factor_takes_the_nearest_probes() {
        let mut speed = HostSpeed::default();
        assert_eq!(speed.factor_at(0), None);
        let at = |speed: &HostSpeed, mark| speed.factor_at(mark).unwrap() * NOMINAL_PROBE_MS;
        speed.probes_ms = vec![10.0, 20.0, 30.0];
        assert_eq!(
            at(&speed, 0),
            20.0,
            "fewer probes than the window: all of them"
        );
        // Probes 0..20 read their own index: the window around a sample
        // after `mark` probes is mark - 4 ..= mark + 4, clipped to the run.
        speed.probes_ms = (0..20).map(f64::from).collect();
        assert_eq!(at(&speed, 0), 4.0);
        assert_eq!(at(&speed, 10), 10.0);
        assert_eq!(at(&speed, 20), 15.0);
        assert_eq!(at(&speed, 99), 15.0);
    }
}
