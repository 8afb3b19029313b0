//! Parsing and regression-gating of `bench_smoke` JSON artifacts.
//!
//! The workspace is vendored-only, so this module carries its own small
//! recursive-descent JSON parser instead of depending on `serde_json`.
//! It only needs to understand the artifacts `bench_smoke` itself
//! renders (objects, arrays, strings, numbers, booleans, null), but it
//! parses the full JSON grammar so hand-edited baselines don't trip it.
//!
//! [`gate`] is the CI policy: a fresh artifact must carry every expected
//! section and assert every bit-identity contract in its `determinism`
//! field, and its wall times must not regress past the committed
//! baseline artifact by more than the hard threshold. Wall-time checks
//! degrade to warnings when either run happened on a single-core host,
//! where timings measure scheduling overhead rather than real work.

use std::collections::BTreeSet;
use std::fmt;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64` (artifact numbers are all small).
    Num(f64),
    /// A string literal, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (artifact keys are never duplicated).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Json, ParseError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.error("trailing characters after the document"));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// A JSON syntax error with the byte offset where parsing stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What the parser expected or found.
    pub message: String,
    /// Byte offset into the document.
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for ParseError {}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, message: &str) -> ParseError {
        ParseError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, token: &str) -> Result<(), ParseError> {
        if self.bytes[self.pos..].starts_with(token.as_bytes()) {
            self.pos += token.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected `{token}`")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.eat("{")?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(":")?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected `,` or `}` in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.eat("[")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected `,` or `]` in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let b = self
                .peek()
                .ok_or_else(|| self.error("unterminated string"))?;
            match b {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self
                        .peek()
                        .ok_or_else(|| self.error("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: the low half must follow.
                                self.eat("\\u")?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.error("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.error("invalid unicode escape"))?,
                            );
                        }
                        _ => return Err(self.error("invalid escape character")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar (input is a &str, so the
                    // bytes are valid UTF-8; just copy the sequence).
                    let start = self.pos;
                    self.pos += 1;
                    while self
                        .bytes
                        .get(self.pos)
                        .is_some_and(|&c| c & 0b1100_0000 == 0b1000_0000)
                    {
                        self.pos += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, ParseError> {
        let end = self.pos + 4;
        let slice = self
            .bytes
            .get(self.pos..end)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        let text = std::str::from_utf8(slice).map_err(|_| self.error("invalid \\u escape"))?;
        let code = u32::from_str_radix(text, 16).map_err(|_| self.error("invalid \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("invalid number"))
    }
}

/// Sections a fresh artifact must always carry, non-empty.
pub const REQUIRED_SECTIONS: &[&str] = &[
    "benches",
    "construction",
    "delta",
    "window",
    "sweep",
    "serve",
];

/// Substrings the fresh artifact's `determinism` field must contain —
/// one per bit-identity contract the smoke run asserts, plus the
/// closing `(verified)` marker that the assertions actually ran.
pub const REQUIRED_CONTRACTS: &[&str] = &[
    "serial vs parallel",
    "hashmap-freeze vs sort-merge",
    "delta-apply vs full rebuild",
    "windowed evict vs rebuild",
    "sharded vs unsharded",
    "served snapshot vs offline rebuild",
    "spilled vs in-memory",
    "(verified)",
];

/// Extract the PR number from a `BENCH_pr<N>.json` baseline file name;
/// `None` for anything else.
fn baseline_pr_number(name: &str) -> Option<u64> {
    name.strip_prefix("BENCH_pr")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

/// Pick the newest committed baseline (`BENCH_pr<N>.json`, highest `N`)
/// from a list of file names. Returns `None` when no name matches the
/// baseline pattern — the very first PR to add the gate has no prior
/// artifact, and that must read as "nothing to compare against", not as
/// an error (see [`discover_baseline`] and the `bench_check` binary).
pub fn newest_baseline<'a>(names: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    names
        .into_iter()
        .filter_map(|name| baseline_pr_number(name).map(|pr| (pr, name)))
        .max_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(b.1)))
        .map(|(_, name)| name)
}

/// Scan `dir` for committed `BENCH_pr<N>.json` baselines and return the
/// path of the newest one, or `Ok(None)` when the directory holds none.
/// A shell-glob equivalent (`ls BENCH_pr*.json | tail -1`) hands the
/// *literal* unexpanded pattern downstream when the glob matches
/// nothing; this helper is the panic-free replacement.
pub fn discover_baseline(dir: &std::path::Path) -> std::io::Result<Option<std::path::PathBuf>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        if let Ok(name) = entry?.file_name().into_string() {
            names.push(name);
        }
    }
    Ok(newest_baseline(names.iter().map(String::as_str)).map(|name| dir.join(name)))
}

/// Hard-fail threshold: a wall time more than this multiple of the
/// baseline fails the gate (on multi-core hosts).
pub const FAIL_RATIO: f64 = 2.0;

/// Soft threshold: a wall time above this multiple of the baseline is
/// reported as a warning.
pub const WARN_RATIO: f64 = 1.25;

/// Hard-fail threshold for `*_rss_kb` fields: peak RSS more than this
/// multiple of the baseline fails the gate. RSS is tighter than wall
/// time because memory footprint doesn't jitter with scheduling — and
/// for the same reason it is **not** downgraded on single-core hosts.
pub const RSS_FAIL_RATIO: f64 = 1.5;

/// Soft threshold for `*_rss_kb` fields; above this multiple of the
/// baseline is reported as a warning.
pub const RSS_WARN_RATIO: f64 = 1.2;

/// Outcome of [`gate`]: hard failures and advisory warnings.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct GateReport {
    /// Violations that must fail CI.
    pub errors: Vec<String>,
    /// Advisory findings (soft regressions, single-core downgrades).
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate passed (no hard failures).
    pub fn passed(&self) -> bool {
        self.errors.is_empty()
    }
}

fn host_parallelism(doc: &Json) -> f64 {
    doc.get("host_parallelism")
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Check a fresh artifact (and optionally compare it against a committed
/// baseline artifact) under the CI policy described in the module docs.
pub fn gate(fresh: &Json, baseline: Option<&Json>) -> GateReport {
    let mut report = GateReport::default();

    // 1. Every expected section must exist and be non-empty. `large`
    //    and `spill` are only mandatory when the fresh run actually ran
    //    at large scale (local smoke runs default to medium and emit
    //    them empty).
    let large_required = fresh.get("scale").and_then(Json::as_str) == Some("large");
    for &section in REQUIRED_SECTIONS {
        match fresh.get(section).and_then(Json::as_arr) {
            None => report
                .errors
                .push(format!("fresh artifact is missing the `{section}` section")),
            Some([]) => report
                .errors
                .push(format!("fresh artifact has an empty `{section}` section")),
            Some(_) => {}
        }
    }
    for section in ["large", "spill"] {
        match fresh.get(section).and_then(Json::as_arr) {
            None if large_required => report
                .errors
                .push(format!("fresh artifact is missing the `{section}` section")),
            Some([]) if large_required => report.errors.push(format!(
                "fresh artifact ran at large scale but its `{section}` section is empty"
            )),
            _ => {}
        }
    }

    // 2. The determinism field must assert every bit-identity contract.
    let determinism = fresh
        .get("determinism")
        .and_then(Json::as_str)
        .unwrap_or_default();
    for &contract in REQUIRED_CONTRACTS {
        if !determinism.contains(contract) {
            report.errors.push(format!(
                "determinism field does not assert `{contract}`: {determinism:?}"
            ));
        }
    }

    // 3. Wall-time and peak-RSS ratios against the baseline, matched by
    //    section and row name over every `*_ms` / `*_rss_kb` field both
    //    rows report. Timings on a single-core host measure scheduling
    //    overhead, so wall-time regressions there degrade to warnings;
    //    RSS does not depend on scheduling, so its gate always holds.
    //    An RSS of zero means the probe was unavailable on that host
    //    (non-Linux), so those fields are skipped rather than ratioed.
    let Some(baseline) = baseline else {
        report
            .warnings
            .push("no baseline artifact supplied; wall-time ratios not checked".into());
        return report;
    };
    let single_core = host_parallelism(fresh) <= 1.0 || host_parallelism(baseline) <= 1.0;
    let mut compared = 0usize;
    for section in REQUIRED_SECTIONS.iter().copied().chain(["large", "spill"]) {
        let fresh_rows = fresh.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        let base_rows = baseline.get(section).and_then(Json::as_arr).unwrap_or(&[]);
        for row in fresh_rows {
            let Some(name) = row.get("name").and_then(Json::as_str) else {
                continue;
            };
            let Some(base_row) = base_rows
                .iter()
                .find(|b| b.get("name").and_then(Json::as_str) == Some(name))
            else {
                continue;
            };
            let Json::Obj(fields) = row else { continue };
            for (key, value) in fields {
                let is_rss = key.ends_with("_rss_kb");
                if !key.ends_with("_ms") && !is_rss {
                    continue;
                }
                let (Some(fresh_v), Some(base_v)) =
                    (value.as_f64(), base_row.get(key).and_then(Json::as_f64))
                else {
                    continue;
                };
                if !(fresh_v.is_finite() && base_v.is_finite()) || base_v <= 0.0 {
                    continue;
                }
                if is_rss && fresh_v <= 0.0 {
                    continue;
                }
                compared += 1;
                let (warn_ratio, fail_ratio) = if is_rss {
                    (RSS_WARN_RATIO, RSS_FAIL_RATIO)
                } else {
                    (WARN_RATIO, FAIL_RATIO)
                };
                let ratio = fresh_v / base_v;
                if ratio <= warn_ratio {
                    continue;
                }
                let finding = if is_rss {
                    format!(
                        "{section}/{name} {key}: {fresh_v:.0}kB vs baseline {base_v:.0}kB \
                         ({ratio:.2}x)"
                    )
                } else {
                    format!(
                        "{section}/{name} {key}: {fresh_v:.3}ms vs baseline {base_v:.3}ms \
                         ({ratio:.2}x)"
                    )
                };
                if ratio > fail_ratio && (is_rss || !single_core) {
                    report.errors.push(finding);
                } else if ratio > fail_ratio {
                    report
                        .warnings
                        .push(format!("{finding} [single-core host: warning only]"));
                } else {
                    report.warnings.push(finding);
                }
            }
        }
    }
    if compared == 0 {
        // An older baseline with disjoint row names would silently gate
        // nothing — surface that instead of reporting a clean pass.
        report
            .warnings
            .push("baseline artifact shares no timed rows with the fresh artifact".into());
    }

    // 4. Fresh sections that exist in the baseline must not vanish —
    //    catches a renamed section slipping past rule 1's fixed list.
    let fresh_keys: BTreeSet<&str> = match fresh {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        _ => BTreeSet::new(),
    };
    if let Json::Obj(fields) = baseline {
        for (key, value) in fields {
            if matches!(value, Json::Arr(items) if !items.is_empty())
                && !fresh_keys.contains(key.as_str())
            {
                report.warnings.push(format!(
                    "baseline section `{key}` has no counterpart in the fresh artifact"
                ));
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh_doc() -> String {
        r#"{
          "schema": "moby-bench-smoke/v8",
          "scale": "medium",
          "host_parallelism": 4,
          "determinism": "bit-identical serial vs parallel, hashmap-freeze vs sort-merge, delta-apply vs full rebuild, windowed evict vs rebuild over surviving rows, sharded vs unsharded construction, served snapshot vs offline rebuild, and spilled vs in-memory construction (verified)",
          "benches": [{"name": "pagerank/trip_graph", "serial_ms": 1.0, "parallel_ms": 0.5}],
          "construction": [{"name": "construct/directed_trips", "sortmerge_1t_ms": 2.0}],
          "delta": [{"name": "delta/directed_trips", "apply_ms": 0.1, "rebuild_ms": 1.0}],
          "window": [{"name": "window/advance_window", "apply_ms": 3.0, "rebuild_ms": 4.0}],
          "sweep": [{"name": "sweep/pagerank_pull/ghour", "scalar_natural_ms": 0.8, "batched_natural_ms": 0.5}],
          "serve": [{"name": "serve/mixed_queries", "p50_ms": 0.05, "p99_ms": 0.2}],
          "large": [],
          "spill": [{"name": "spill/city_build_inmem", "wall_ms": 100.0, "peak_rss_kb": 500000},
                    {"name": "spill/city_build_spilled", "wall_ms": 130.0, "peak_rss_kb": 200000}]
        }"#
        .to_string()
    }

    #[test]
    fn parses_scalars_arrays_and_escapes() {
        let doc =
            Json::parse(r#"{"a": [1, -2.5, 1e3, true, false, null], "s": "q\"\\\nAé😀"}"#).unwrap();
        let arr = doc.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[1].as_f64(), Some(-2.5));
        assert_eq!(arr[2].as_f64(), Some(1000.0));
        assert_eq!(arr[3], Json::Bool(true));
        assert_eq!(arr[4], Json::Bool(false));
        assert_eq!(arr[5], Json::Null);
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("q\"\\\nAé😀"));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "{} trailing", "\"open"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        let err = Json::parse("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte"));
    }

    #[test]
    fn clean_artifact_passes() {
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&fresh));
        assert!(report.passed(), "errors: {:?}", report.errors);
        assert!(report.warnings.is_empty(), "{:?}", report.warnings);
    }

    #[test]
    fn missing_or_empty_sections_fail() {
        let fresh =
            Json::parse(&fresh_doc().replace(r#""window": [{"#, r#""window2": [{"#)).unwrap();
        let report = gate(&fresh, None);
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("missing the `window` section")));

        let empty = Json::parse(
            r#"{"scale": "medium", "benches": [], "construction": [],
                            "delta": [], "window": [], "sweep": [], "serve": [],
                            "determinism": ""}"#,
        )
        .unwrap();
        let report = gate(&empty, None);
        for section in REQUIRED_SECTIONS {
            assert!(
                report
                    .errors
                    .iter()
                    .any(|e| e.contains(&format!("empty `{section}`"))),
                "no error for {section}: {:?}",
                report.errors
            );
        }
    }

    #[test]
    fn large_scale_requires_large_section() {
        let fresh = Json::parse(&fresh_doc().replace("\"medium\"", "\"large\"")).unwrap();
        let report = gate(&fresh, None);
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("`large` section is empty")));
    }

    #[test]
    fn large_scale_requires_spill_section() {
        let fresh = Json::parse(
            &fresh_doc().replace("\"medium\"", "\"large\"").replace(
                r#"[{"name": "spill/city_build_inmem", "wall_ms": 100.0, "peak_rss_kb": 500000},
                    {"name": "spill/city_build_spilled", "wall_ms": 130.0, "peak_rss_kb": 200000}]"#,
                "[]",
            ),
        )
        .unwrap();
        let report = gate(&fresh, None);
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("`spill` section is empty")));
    }

    #[test]
    fn rss_regression_fails_even_on_single_core() {
        // 500000 -> 900000 kB is a 1.8x blow-up past RSS_FAIL_RATIO, and
        // memory footprint doesn't depend on scheduling, so the
        // single-core downgrade must NOT apply.
        let fresh = Json::parse(
            &fresh_doc()
                .replace("\"peak_rss_kb\": 500000", "\"peak_rss_kb\": 900000")
                .replace("\"host_parallelism\": 4", "\"host_parallelism\": 1"),
        )
        .unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&baseline));
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("spill/city_build_inmem peak_rss_kb") && e.contains("1.80x")));
    }

    #[test]
    fn rss_soft_regression_warns() {
        // 200000 -> 260000 kB is 1.3x: past RSS_WARN_RATIO, under
        // RSS_FAIL_RATIO.
        let fresh =
            Json::parse(&fresh_doc().replace("\"peak_rss_kb\": 200000", "\"peak_rss_kb\": 260000"))
                .unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&baseline));
        assert!(report.passed(), "errors: {:?}", report.errors);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("spill/city_build_spilled peak_rss_kb") && w.contains("1.30x")));
    }

    #[test]
    fn zero_rss_probe_is_skipped_not_ratioed() {
        // peak_rss_kb of 0 means /proc/self/status wasn't readable on
        // that host; neither direction of the comparison may fire.
        let fresh =
            Json::parse(&fresh_doc().replace("\"peak_rss_kb\": 500000", "\"peak_rss_kb\": 0"))
                .unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        for (a, b) in [(&fresh, &baseline), (&baseline, &fresh)] {
            let report = gate(a, Some(b));
            assert!(report.passed(), "errors: {:?}", report.errors);
            assert!(
                !report
                    .warnings
                    .iter()
                    .any(|w| w.contains("city_build_inmem peak_rss_kb")),
                "warnings: {:?}",
                report.warnings
            );
        }
    }

    #[test]
    fn v7_baseline_without_spill_section_is_accepted() {
        // Pre-PR10 baselines have no `spill` array and don't assert the
        // spilled-build contract; only the fresh artifact is held to
        // the new schema.
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let v7 = Json::parse(
            &fresh_doc()
                .replace(
                    "served snapshot vs offline rebuild, and spilled vs in-memory construction",
                    "and served snapshot vs offline rebuild",
                )
                .replace(
                    r#"[{"name": "spill/city_build_inmem", "wall_ms": 100.0, "peak_rss_kb": 500000},
                    {"name": "spill/city_build_spilled", "wall_ms": 130.0, "peak_rss_kb": 200000}]"#,
                    "[]",
                ),
        )
        .unwrap();
        let report = gate(&fresh, Some(&v7));
        assert!(report.passed(), "errors: {:?}", report.errors);
    }

    #[test]
    fn unasserted_determinism_contract_fails() {
        let fresh =
            Json::parse(&fresh_doc().replace("windowed evict vs rebuild", "windowed")).unwrap();
        let report = gate(&fresh, None);
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("windowed evict vs rebuild")));
    }

    #[test]
    fn hard_regression_fails_on_multicore() {
        let fresh =
            Json::parse(&fresh_doc().replace("\"apply_ms\": 3.0", "\"apply_ms\": 30.0")).unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&baseline));
        assert!(!report.passed());
        assert!(report
            .errors
            .iter()
            .any(|e| e.contains("window/advance_window apply_ms") && e.contains("10.00x")));
    }

    #[test]
    fn soft_regression_warns() {
        let fresh =
            Json::parse(&fresh_doc().replace("\"apply_ms\": 3.0", "\"apply_ms\": 4.5")).unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&baseline));
        assert!(report.passed());
        assert!(report.warnings.iter().any(|w| w.contains("1.50x")));
    }

    #[test]
    fn single_core_host_downgrades_hard_regressions() {
        let fresh = Json::parse(
            &fresh_doc()
                .replace("\"apply_ms\": 3.0", "\"apply_ms\": 30.0")
                .replace("\"host_parallelism\": 4", "\"host_parallelism\": 1"),
        )
        .unwrap();
        let baseline = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, Some(&baseline));
        assert!(report.passed(), "errors: {:?}", report.errors);
        assert!(report
            .warnings
            .iter()
            .any(|w| w.contains("single-core host")));
    }

    #[test]
    fn disjoint_baseline_warns_instead_of_passing_silently() {
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let baseline = Json::parse(&fresh_doc().replace("pagerank", "renamed")).unwrap();
        let report = gate(&fresh, Some(&baseline));
        // Other rows still match; rename them all to get a truly
        // disjoint baseline.
        let disjoint = Json::parse(
            &fresh_doc()
                .replace("pagerank/trip_graph", "x1")
                .replace("construct/directed_trips", "x2")
                .replace("delta/directed_trips", "x3")
                .replace("window/advance_window", "x4")
                .replace("sweep/pagerank_pull/ghour", "x5")
                .replace("serve/mixed_queries", "x6")
                .replace("spill/city_build_inmem", "x7")
                .replace("spill/city_build_spilled", "x8"),
        )
        .unwrap();
        let disjoint_report = gate(&fresh, Some(&disjoint));
        assert!(disjoint_report
            .warnings
            .iter()
            .any(|w| w.contains("shares no timed rows")));
        assert!(report.passed());
    }

    #[test]
    fn v5_baseline_without_sweep_section_is_accepted() {
        // Pre-PR8 baselines have no `sweep` array; only the fresh
        // artifact is held to the new schema.
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let v5 = Json::parse(&fresh_doc().replace(
            r#""sweep": [{"name": "sweep/pagerank_pull/ghour", "scalar_natural_ms": 0.8, "batched_natural_ms": 0.5}],"#,
            "",
        ))
        .unwrap();
        assert!(v5.get("sweep").is_none());
        let report = gate(&fresh, Some(&v5));
        assert!(report.passed(), "errors: {:?}", report.errors);
    }

    #[test]
    fn v6_baseline_without_serve_section_is_accepted() {
        // Pre-PR9 baselines have no `serve` array and don't assert the
        // served-snapshot contract; only the fresh artifact is held to
        // the new schema.
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let v6 = Json::parse(
            &fresh_doc()
                .replace(
                    "sharded vs unsharded construction, and served snapshot vs offline rebuild",
                    "and sharded vs unsharded construction",
                )
                .replace(
                    r#""serve": [{"name": "serve/mixed_queries", "p50_ms": 0.05, "p99_ms": 0.2}],"#,
                    "",
                ),
        )
        .unwrap();
        let report = gate(&fresh, Some(&v6));
        assert!(report.passed(), "errors: {:?}", report.errors);
    }

    #[test]
    fn empty_baseline_set_passes_with_warning() {
        // The first PR to carry the gate has no committed
        // `BENCH_pr*.json` yet: discovery must yield `None`, and gating
        // against `None` must pass while still saying so out loud —
        // never panic, never fail, never pretend ratios were checked.
        assert_eq!(newest_baseline([]), None);
        assert_eq!(newest_baseline(["README.md", "bench.json"]), None);

        let fresh = Json::parse(&fresh_doc()).unwrap();
        let report = gate(&fresh, None);
        assert!(report.passed(), "errors: {:?}", report.errors);
        assert!(
            report.warnings.iter().any(|w| w.contains("no baseline")),
            "missing-baseline warning: {:?}",
            report.warnings
        );
    }

    #[test]
    fn newest_baseline_orders_numerically_not_lexically() {
        // `sort -V`-equivalent: pr10 beats pr9 even though "10" < "9"
        // lexicographically.
        let names = [
            "BENCH_pr9.json",
            "BENCH_pr10.json",
            "BENCH_pr2.json",
            "notes.txt",
            "BENCH_prX.json",
        ];
        assert_eq!(newest_baseline(names), Some("BENCH_pr10.json"));
    }

    #[test]
    fn discover_baseline_handles_missing_and_empty_directories() {
        let dir =
            std::env::temp_dir().join(format!("moby_bench_check_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert!(
            discover_baseline(&dir).is_err(),
            "unreadable directory is an Err, not a silent None"
        );
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(discover_baseline(&dir).unwrap(), None);
        std::fs::write(dir.join("BENCH_pr3.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_pr12.json"), "{}").unwrap();
        std::fs::write(dir.join("unrelated.json"), "{}").unwrap();
        assert_eq!(
            discover_baseline(&dir).unwrap(),
            Some(dir.join("BENCH_pr12.json"))
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v4_baseline_without_window_section_is_accepted() {
        // Pre-PR7 baselines have no `window` array and an older
        // determinism string; only the fresh artifact is held to the
        // new contract.
        let fresh = Json::parse(&fresh_doc()).unwrap();
        let v4 = Json::parse(
            &fresh_doc()
                .replace("windowed evict vs rebuild over surviving rows, and ", "")
                .replace(
                    r#""window": [{"name": "window/advance_window", "apply_ms": 3.0, "rebuild_ms": 4.0}],"#,
                    "",
                ),
        )
        .unwrap();
        let report = gate(&fresh, Some(&v4));
        assert!(report.passed(), "errors: {:?}", report.errors);
    }
}
