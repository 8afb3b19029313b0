//! The repository benchmark: end-to-end and per-layer measurements of the
//! expansion pipeline, its windowed write path, the snapshot server and
//! city-scale graph construction.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <expansion_batch|window_stream|serve_mixed|city_build|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--seed` overrides the synthetic generators' own seed; the library only
//! ever sees the generated inputs. With `--trace 0` a run measures the
//! workload untraced and reports the end-to-end metrics; with `--trace 1`
//! it replays the workload's calls into each layer under spans, reports
//! the per-layer metrics and writes the spans to `.bench_out/` as CSV.
//! Every library call that takes a thread count gets [`THREADS`]. Every run
//! checks its outputs outside the timed region, prints its metrics by
//! name with their units, and ends with one JSON result line. It exits
//! non-zero when an operation fails or an output check does not hold.
//! `--workload all` runs every workload, each in its own process so that
//! each peak-RSS figure is that workload's own.

mod city;
mod common;
mod expansion;
mod serve;
mod speed;
mod stats;
mod trace;
mod window;

use common::{Ctx, Report};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: moby-perf --workload <expansion_batch|window_stream|serve_mixed|city_build|all> \
[--seed N] [--seconds S] [--trace 0|1]";

/// Worker threads passed to every library call that takes a count. On a
/// small shared machine the parallel sweeps ran slower at two threads and
/// spread far more from run to run.
const THREADS: usize = 1;

/// End-to-end metrics: every workload reports each of them with
/// `--trace 0`. The unit operation is one pipeline run
/// (`expansion_batch`), one window step (`window_stream`), one station
/// profile of five queries (`serve_mixed`) or one graph build
/// (`city_build`).
const END_TO_END: [(&str, &str); 3] =
    [("setup_s", "s"), ("op_p50_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics: every workload reports each of them with
/// `--trace 1`, and a layer the workload never calls reads 0.
const PER_LAYER: [(&str, &str); 35] = [
    ("data.clean.ms", "ms"),
    ("data.clean.rows_dropped", "count"),
    ("cluster.constrained.ms", "ms"),
    ("cluster.constrained.points", "count"),
    ("cluster.constrained.clusters", "count"),
    ("core.candidate.ms", "ms"),
    ("core.candidate.self_ms", "ms"),
    ("core.selection.ms", "ms"),
    ("core.selection.selected", "count"),
    ("core.reassign.build_ms", "ms"),
    ("core.temporal.build_ms", "ms"),
    ("core.temporal.edges", "count"),
    ("core.detect.basic.ms", "ms"),
    ("core.detect.day.ms", "ms"),
    ("core.detect.hour.ms", "ms"),
    ("core.reassign.advance_window.ms", "ms"),
    ("core.reassign.advance_window.evicted_rows", "count"),
    ("core.reassign.advance_window.appended_rows", "count"),
    ("core.temporal.apply_window_all.ms", "ms"),
    ("core.detect.refresh.ms", "ms"),
    ("core.detect.refresh.active_steps", "count"),
    ("core.detect.refresh.active_share", "share"),
    ("server.service.answer_us.station", "us"),
    ("server.service.answer_us.nearest", "us"),
    ("server.service.answer_us.community", "us"),
    ("server.service.answer_us.pagerank", "us"),
    ("server.service.answer_us.degrees", "us"),
    ("server.service.pool_wait_us", "us"),
    ("server.snapshot.apply_ms", "ms"),
    ("server.snapshot.lag_epochs", "count"),
    ("graph.build_dense_csr.ms", "ms"),
    ("graph.bytes", "bytes"),
    ("bench.op.self_ms", "ms"),
    ("bench.trace.base_ms", "ms"),
    ("bench.trace.overhead_ms", "ms"),
];

/// The benchmark's workloads. Each module's documentation records why it
/// was chosen, which layers it loads and which it bypasses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    /// Repeated paper-scale pipeline runs ([`expansion`]).
    ExpansionBatch,
    /// 167-step sliding-window cycles ([`window`]).
    WindowStream,
    /// Closed-loop queries beside a scheduled writer ([`serve`]).
    ServeMixed,
    /// City-scale station and temporal graph builds ([`city`]).
    CityBuild,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::ExpansionBatch,
        Workload::WindowStream,
        Workload::ServeMixed,
        Workload::CityBuild,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::ExpansionBatch => "expansion_batch",
            Workload::WindowStream => "window_stream",
            Workload::ServeMixed => "serve_mixed",
            Workload::CityBuild => "city_build",
        }
    }

    fn run(self, ctx: &Ctx) -> Report {
        match self {
            Workload::ExpansionBatch => expansion::run(ctx),
            Workload::WindowStream => window::run(ctx),
            Workload::ServeMixed => serve::run(ctx),
            Workload::CityBuild => city::run(ctx),
        }
    }
}

/// What `--workload` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    One(Workload),
    All,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    target: Target,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// Parse the arguments after the program name.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        target: Target::All,
        seed: 42,
        seconds: 20,
        trace: false,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let (key, inline) = match arg.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| it.next().cloned())
                .ok_or_else(|| format!("{key} needs a value"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{key}: `{v}` is not a whole number"))
        };
        match key {
            "--workload" => {
                let v = value()?;
                workload = Some(if v == "all" {
                    Target::All
                } else {
                    Target::One(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == v)
                            .ok_or_else(|| format!("unknown workload `{v}`"))?,
                    )
                });
            }
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => {
                parsed.seconds = number(value()?)?;
                if parsed.seconds == 0 {
                    return Err("--seconds must be at least 1".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    parsed.target = workload.ok_or("--workload is required")?;
    Ok(parsed)
}

/// Render the result line for `report`: the declared metrics of the run's
/// mode in declared order, and whether the run is correct. A run is
/// incorrect when anything failed, nothing was attempted, an end-to-end
/// metric is missing, a value is not finite or the report carries a
/// metric nobody declared.
fn result_line(report: &Report, trace: bool) -> (String, bool) {
    let declared: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut ok = report.failed == 0 && report.attempted > 0;
    for name in report.metrics.keys() {
        if !declared.iter().any(|(n, _)| n == name) {
            eprintln!("undeclared metric `{name}`");
            ok = false;
        }
    }
    let mut fields = Vec::new();
    for &(name, unit) in declared {
        let value = match report.metrics.get(name) {
            Some(&v) if v.is_finite() => v,
            Some(&v) => {
                eprintln!("metric `{name}` is {v}");
                ok = false;
                0.0
            }
            None if trace => 0.0,
            None => {
                eprintln!("metric `{name}` was not measured");
                ok = false;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    let line = format!(
        "{{\"correct\": {ok}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    (line, ok)
}

/// Run one workload in this process and print its report.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        threads: THREADS,
        trace: args.trace,
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {THREADS} of {available} available",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    let mut report = workload.run(&ctx);
    for line in &report.lines {
        println!("{line}");
    }
    if args.trace {
        let path = PathBuf::from(format!(
            ".bench_out/spans-{}-seed{}.csv",
            workload.name(),
            args.seed
        ));
        let tracers: Vec<_> = report.tracers.iter().map(|(l, t)| (*l, t)).collect();
        let written = trace::write_csv(&path, &tracers);
        let spans: usize = tracers.iter().map(|(_, t)| t.spans().len()).sum();
        report.check(written.is_ok(), || {
            format!("writing spans to {}: {written:?}", path.display())
        });
        println!("  {spans} spans written to {}", path.display());
    }
    for &(name, unit) in if args.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    } {
        if let Some(v) = report.metrics.get(name) {
            println!("  {name:<44} {v:>14.4} {unit}");
        }
    }
    println!(
        "  failed_ratio          {} of {} operations and checks",
        report.failed, report.attempted
    );
    let (line, ok) = result_line(&report, args.trace);
    println!("{line}");
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Run every workload, each in a child process of this program.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this program: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in Workload::ALL {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }]);
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => failed.push(format!("{} ({status})", w.name())),
            Err(e) => failed.push(format!("{} ({e})", w.name())),
        }
    }
    if failed.is_empty() {
        println!("all {} workloads passed", Workload::ALL.len());
        ExitCode::SUCCESS
    } else {
        println!("failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.target {
        Target::One(w) => run_one(w, &args),
        Target::All => run_all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse(&[
            "--workload",
            "window_stream",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.target, Target::One(Workload::WindowStream));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 12, true));
    }

    #[test]
    fn selects_every_workload_by_name_and_all() {
        for w in Workload::ALL {
            let a = parse(&["--workload", w.name()]).unwrap();
            assert_eq!(a.target, Target::One(w));
        }
        assert_eq!(parse(&["--workload=all"]).unwrap().target, Target::All);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seed", "1"]).is_err(), "workload is required");
    }

    #[test]
    fn defaults_and_inline_values() {
        let a = parse(&["--workload=city_build", "--seed=18446744073709551615"]).unwrap();
        assert_eq!(a.seed, u64::MAX);
        assert_eq!((a.seconds, a.trace), (20, false));
    }

    #[test]
    fn rejects_bad_values() {
        let bad: [&[&str]; 7] = [
            &["--workload", "city_build", "--seed", "-1"],
            &["--workload", "city_build", "--seed"],
            &["--workload", "city_build", "--seconds", "0"],
            &["--workload", "city_build", "--seconds", "1.5"],
            &["--workload", "city_build", "--trace", "2"],
            &["--workload", "city_build", "--threads", "1"],
            &["--workload"],
        ];
        for args in bad {
            assert!(parse(args).is_err(), "{args:?} should be rejected");
        }
    }

    #[test]
    fn result_line_lists_every_declared_metric() {
        let mut r = Report::default();
        r.op_ok();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.metric(name, 0.25 + i as f64);
        }
        let (line, ok) = result_line(&r, false);
        assert!(ok);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_rss_mb\": {\"value\": 2.25, \"unit\": \"MB\"}"));

        // Per-layer: layers a workload never calls read 0.
        let (line, ok) = result_line(&r, true);
        assert!(!ok, "end-to-end metrics are undeclared in a traced run");
        assert!(line.contains("\"graph.bytes\": {\"value\": 0, \"unit\": \"bytes\"}"));

        r.metrics.remove("op_p50_ms");
        assert!(
            !result_line(&r, false).1,
            "a missing end-to-end metric fails"
        );
        r.metric("op_p50_ms", f64::NAN);
        assert!(!result_line(&r, false).1, "a non-finite value fails");
    }

    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let declared = END_TO_END.iter().chain(PER_LAYER.iter());
        for (name, unit) in declared.clone() {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(json.matches("\"unit\":").count(), declared.count());
        for w in Workload::ALL {
            assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
        }
    }
}
