//! Spans recorded around the benchmark's own calls into the library.
//!
//! Nothing inside the library is instrumented: a [`Tracer`] wraps each call
//! the benchmark makes into a layer's public function in a [`Span`] with a
//! name, a start, an end and the span that caused it. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is its
//! span's duration minus the part of that interval its child spans cover
//! ([`self_times`]).

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in its tracer.
    pub id: u32,
    /// The enclosing span, if any.
    pub parent: Option<u32>,
    /// Shared by every span of one top-level operation.
    pub trace: u32,
    /// Layer-qualified name, such as `core.candidate`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    traces: u32,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between the tracers of a run so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            traces: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`. Spans opened inside `f` become
    /// its children; a span opened with no enclosing span starts a new
    /// trace.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        let trace = match parent {
            Some(p) => self.spans[p as usize].trace,
            None => {
                self.traces += 1;
                self.traces
            }
        };
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trace,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self);
        let end_ns = self.now_ns();
        self.spans[id as usize].end_ns = end_ns;
        self.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Self times in milliseconds (see [`self_times`]) of every span named
    /// `name`.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self_times(&self.spans))
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }
}

/// Self time of every span in nanoseconds, indexed like `spans`: the
/// span's duration minus the union of its children's intervals, each
/// clipped to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut reach = s.start_ns;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end_ns));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Write the spans of every `(thread label, tracer)` as CSV, one span a
/// line, creating the parent directory if needed.
pub fn write_csv(path: &Path, tracers: &[(&str, &Tracer)]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread,id,parent,trace,name,start_ns,end_ns,self_ns")?;
    for (thread, tracer) in tracers {
        let selfs = self_times(tracer.spans());
        for (s, self_ns) in tracer.spans().iter().zip(selfs) {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{thread},{},{parent},{},{},{},{},{self_ns}",
                s.id, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 1,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 40]);
    }

    #[test]
    fn self_time_counts_overlap_once_and_clips_to_parent() {
        // Children from two threads can overlap each other and spill past
        // the parent; only the covered part of the parent is subtracted.
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 90, 150),
            span(2, Some(0), 120, 160),
            span(3, Some(0), 190, 250),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 0, 60),
            span(2, Some(1), 0, 50),
        ];
        assert_eq!(self_times(&spans), vec![40, 10, 50]);
    }

    #[test]
    fn tracer_nests_spans_and_numbers_traces() {
        let mut t = Tracer::new(Instant::now());
        let v = t.span("root", |t| t.span("leaf", |_| 7) + 1);
        t.span("other", |_| ());
        assert_eq!(v, 8);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent, s[0].trace), ("root", None, 1));
        assert_eq!((s[1].name, s[1].parent, s[1].trace), ("leaf", Some(0), 1));
        assert_eq!((s[2].name, s[2].parent, s[2].trace), ("other", None, 2));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        assert_eq!(t.durations_ms("leaf").len(), 1);
    }
}
