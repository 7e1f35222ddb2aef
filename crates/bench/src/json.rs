//! The versioned `BENCH_*.json` report schema, with the dependency-free
//! JSON writer/parser behind it and the CI regression gate.
//!
//! A [`BenchReport`] captures one planner-regret sweep: the grid, the
//! git revision, and — per grid point and backend — every candidate the
//! planner scored together with its measured cost, the planner's pick,
//! the measured-best candidate, and the derived **regret** (measured
//! time of the pick ÷ measured time of the best). "Measured" always
//! means modeled time recomputed from the *measured* message, word, and
//! flop counts of a real run — deterministic across machines and
//! backends — never wall clock, which at simulation scale is dominated
//! by thread scheduling rather than the µs-scale injected delays
//! (`wall_s` is recorded per candidate for inspection only). CI
//! compares a PR's report against the committed `BENCH_baseline.json`
//! with [`gate`]: `inproc` regret and agreement, plus `wire-delay`
//! encoded bytes (`wire_bytes_sent`), all machine-independent.
//!
//! The workspace is dependency-free, so both directions are hand-rolled
//! here: [`Json`] is a minimal JSON value with a recursive-descent
//! parser and a pretty writer whose `f64` formatting (`{:?}`) is
//! shortest-round-trip, making serialize → parse lossless.

use std::fmt::Write as _;

/// Version stamp written into every report. Bump when the schema shape
/// changes; [`gate`] refuses to compare mismatched versions, and
/// [`BenchReport::parse`] requires every field of this version.
pub const BENCH_SCHEMA_VERSION: u64 = 5;

// ---------------------------------------------------------------------
// Minimal JSON value
// ---------------------------------------------------------------------

/// A JSON value: the smallest surface the BENCH schema needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (integers survive exactly below 2⁵³).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, preserving insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer value (exact below 2⁵³).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// String value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array value.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// Serialize with two-space indentation and a trailing newline.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                if v.fract() == 0.0 && v.abs() <= 2f64.powi(53) {
                    let _ = write!(out, "{}", *v as i64);
                } else {
                    // `{:?}` is Rust's shortest round-trip f64 format.
                    let _ = write!(out, "{v:?}");
                }
            }
            Json::Str(s) => write_json_string(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_json_string(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing garbage at byte {}", p.pos));
        }
        Ok(v)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_json_string(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(b) = self.bytes.get(self.pos) {
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

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err("truncated \\u escape".into());
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| "non-ASCII bytes in \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                            self.pos += 4;
                            s.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                _ => {
                    // Bulk-copy the run up to the next quote, escape, or
                    // control byte. Those delimiters are all ASCII, so
                    // the run always ends on a UTF-8 character boundary
                    // — one validation per run, not per character (a
                    // per-character re-validation of the remaining input
                    // is quadratic, which megabyte-scale trace exports
                    // made very noticeable).
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while let Some(&b) = self.bytes.get(end) {
                        if b == b'"' || b == b'\\' || b < 0x20 {
                            break;
                        }
                        end += 1;
                    }
                    let run = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    s.push_str(run);
                    self.pos = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
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
            self.expect(b':')?;
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
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

// ---------------------------------------------------------------------
// BENCH schema
// ---------------------------------------------------------------------

/// One candidate the planner scored at a grid point, with its measured
/// cost under the point's backend.
#[derive(Debug, Clone, PartialEq)]
pub struct CandidateTiming {
    /// Family label (paper legend style).
    pub family: String,
    /// Elision label.
    pub elision: String,
    /// Routing label: `dense` (the paper's full-row shifts) or
    /// `pattern` (pattern-routed shifts shipping only needed rows).
    pub routing: String,
    /// Local microkernel variant the two-level tuner resolved for this
    /// candidate (a `LocalKernel` label, e.g. `naive`, `blocked`,
    /// `par-blocked`).
    pub local_variant: String,
    /// Replication factor the planner resolved for this candidate.
    pub c: u64,
    /// Planner-predicted seconds per call (modeled comm + comp).
    pub predicted_s: f64,
    /// Modeled seconds per call recomputed from *measured* message,
    /// word, and flop counts — deterministic across machines, identical
    /// between backends (word accounting is backend-invariant), and the
    /// basis of every derived metric (`regret`, `best`, `model_error`).
    pub modeled_s: f64,
    /// Measured wall seconds of the busiest rank. Strictly diagnostic:
    /// at simulation scale, thread scheduling and sleep granularity
    /// dwarf the µs-scale injected α-β delays, so wall time is recorded
    /// for inspection but never enters a derived or gated metric.
    pub wall_s: f64,
    /// Encoded bytes handed to the wire (0 under `inproc`).
    pub wire_bytes: u64,
}

/// One grid point under one backend: the scored candidates, the
/// planner's pick, the measured best, and the derived regret.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchPoint {
    /// Backend label: `inproc` or `wire-delay`.
    pub backend: String,
    /// Embedding width.
    pub r: u64,
    /// Nonzeros per sparse row.
    pub nnz_row: u64,
    /// Density φ = nnz/(n·r).
    pub phi: f64,
    /// All scored candidates, planner order (index 0 = the pick).
    pub candidates: Vec<CandidateTiming>,
    /// Index of the planner's pick in `candidates` (always 0 today;
    /// stored so the schema does not encode that assumption).
    pub picked: u64,
    /// Index of the measured-fastest candidate.
    pub best: u64,
    /// measured(picked) ÷ measured(best) — ≥ 1, equal to 1 when the
    /// planner picked the measured winner.
    pub regret: f64,
    /// |predicted − measured| ÷ measured for the planner's pick.
    pub model_error: f64,
    /// Pipelined ÷ blocking wall time of the planner's pick (schema
    /// v5) — < 1 means the non-blocking `ShiftPipeline` hid modeled
    /// latency behind compute. Only `wire-delay` points re-run the pick
    /// in blocking mode to measure this; elsewhere it is 1.0. Wall-
    /// clock based and therefore diagnostic: the gate only checks it
    /// one-sidedly (pipelining must not *slow down* execution beyond
    /// tolerance), never as a required speedup.
    pub overlap: f64,
}

impl BenchPoint {
    /// Whether the planner picked the measured-fastest candidate.
    pub fn agreed(&self) -> bool {
        self.picked == self.best
    }

    /// Encoded bytes summed over candidate runs at this point.
    pub fn wire_bytes(&self) -> u64 {
        self.candidates.iter().map(|c| c.wire_bytes).sum()
    }

    /// Measured regret of the best pattern-routed candidate: min
    /// modeled time over `routing == "pattern"` rows ÷ min modeled time
    /// over all rows (`None` when the point scored no routed row).
    /// Gates how competitive routed execution stays — a silent routing
    /// regression shows up here even while every pick is dense.
    pub fn routed_regret(&self) -> Option<f64> {
        let best_routed = self
            .candidates
            .iter()
            .filter(|c| c.routing == "pattern")
            .map(|c| c.modeled_s)
            .fold(f64::INFINITY, f64::min);
        if !best_routed.is_finite() {
            return None;
        }
        let best = self
            .candidates
            .iter()
            .map(|c| c.modeled_s)
            .fold(f64::INFINITY, f64::min);
        Some(best_routed / best)
    }

    /// Wire-byte ratios routed ÷ dense over (family, elision, c)-matched
    /// candidate pairs at this point. Each entry is the direct
    /// measurement of what pattern routing saves for one algorithm on
    /// this scenario's sparsity structure (< 1 means it shipped fewer
    /// encoded bytes than the paper's dense schedule of the same
    /// algorithm). Empty under `inproc`, where nothing is encoded.
    pub fn routed_byte_ratios(&self) -> Vec<f64> {
        let mut ratios = Vec::new();
        for routed in self.candidates.iter().filter(|c| c.routing == "pattern") {
            let dense = self.candidates.iter().find(|c| {
                c.routing == "dense"
                    && c.family == routed.family
                    && c.elision == routed.elision
                    && c.c == routed.c
            });
            if let Some(dense) = dense {
                if dense.wire_bytes > 0 {
                    ratios.push(routed.wire_bytes as f64 / dense.wire_bytes as f64);
                }
            }
        }
        ratios
    }
}

/// One drifting-sparsity schedule (schema v2): a sequence of problem
/// phases whose nonzeros-per-row drift (the SparCML observation —
/// sparsity evolves over training), measured three ways per phase:
/// every planner candidate (the oracle), the phase-0 pick held
/// statically, and the per-phase re-planned pick (the adaptive
/// session's policy). Regret is total measured time ÷ total oracle
/// time, so `adaptive_regret ≤ static_regret` is exactly the claim
/// runtime re-planning makes.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptivePoint {
    /// Backend label the phases were measured under.
    pub backend: String,
    /// Embedding width (fixed across the schedule).
    pub r: u64,
    /// Nonzeros-per-row of each phase, in order.
    pub schedule: Vec<u64>,
    /// Σ measured(phase-0 pick) ÷ Σ measured(oracle), ≥ 1.
    pub static_regret: f64,
    /// Σ measured(per-phase pick) ÷ Σ measured(oracle), ≥ 1.
    pub adaptive_regret: f64,
    /// How many phase boundaries changed the plan (migrations an
    /// adaptive session would perform).
    pub migrations: u64,
}

/// A whole planner-regret sweep, as written to `BENCH_<name>.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Schema version ([`BENCH_SCHEMA_VERSION`] at write time).
    pub schema_version: u64,
    /// Sweep name, e.g. `fig6_regret`.
    pub name: String,
    /// Profile: `smoke`, `quick`, or `full`.
    pub profile: String,
    /// `git rev-parse HEAD` at run time (`unknown` outside a checkout).
    pub git_sha: String,
    /// Rank count of every world in the sweep.
    pub p: u64,
    /// Planner replication-factor cap.
    pub c_max: u64,
    /// Square sparse-matrix side.
    pub m: u64,
    /// FusedMM calls timed per run.
    pub calls: u64,
    /// All grid points, grouped by backend.
    pub points: Vec<BenchPoint>,
    /// Drifting-sparsity static-vs-adaptive regret points.
    pub adaptive: Vec<AdaptivePoint>,
}

impl BenchReport {
    /// Points under one backend.
    pub fn backend_points<'a>(
        &'a self,
        backend: &'a str,
    ) -> impl Iterator<Item = &'a BenchPoint> + 'a {
        self.points.iter().filter(move |pt| pt.backend == backend)
    }

    /// Maximum regret over a backend's points (1.0 when empty).
    pub fn max_regret(&self, backend: &str) -> f64 {
        self.backend_points(backend)
            .map(|pt| pt.regret)
            .fold(1.0, f64::max)
    }

    /// Mean regret over a backend's points (1.0 when empty).
    pub fn mean_regret(&self, backend: &str) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for pt in self.backend_points(backend) {
            sum += pt.regret;
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// (points where the pick was measured-fastest, total points) for a
    /// backend.
    pub fn agreement(&self, backend: &str) -> (usize, usize) {
        let mut agreed = 0;
        let mut total = 0;
        for pt in self.backend_points(backend) {
            total += 1;
            if pt.agreed() {
                agreed += 1;
            }
        }
        (agreed, total)
    }

    /// Total encoded bytes over a backend's points.
    pub fn wire_bytes_total(&self, backend: &str) -> u64 {
        self.backend_points(backend).map(|pt| pt.wire_bytes()).sum()
    }

    /// Maximum [`BenchPoint::routed_regret`] over a backend's points
    /// (1.0 when no point scored a routed candidate).
    pub fn max_routed_regret(&self, backend: &str) -> f64 {
        self.backend_points(backend)
            .filter_map(|pt| pt.routed_regret())
            .fold(1.0, f64::max)
    }

    /// Minimum routed ÷ dense wire-byte ratio over a backend's matched
    /// candidate pairs — the sweep's best demonstrated sparse-routing
    /// saving (`None` when no pair was measured, e.g. under `inproc`).
    pub fn min_routed_byte_ratio(&self, backend: &str) -> Option<f64> {
        let best = self
            .backend_points(backend)
            .flat_map(|pt| pt.routed_byte_ratios())
            .fold(f64::INFINITY, f64::min);
        best.is_finite().then_some(best)
    }

    /// Worst (largest) pipelined ÷ blocking wall ratio over a backend's
    /// points (1.0 when empty).
    pub fn max_overlap(&self, backend: &str) -> f64 {
        let worst = self
            .backend_points(backend)
            .map(|pt| pt.overlap)
            .fold(f64::NEG_INFINITY, f64::max);
        if worst.is_finite() {
            worst
        } else {
            1.0
        }
    }

    /// Mean pipelined ÷ blocking wall ratio over a backend's points
    /// (1.0 when empty) — the gate's overlap axis input. The mean,
    /// not the max: individual smoke-scale points carry millisecond
    /// walls where scheduler noise swamps the injected delays, but a
    /// pipeline that systematically serializes or double-pays latency
    /// shifts the whole distribution.
    pub fn mean_overlap(&self, backend: &str) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for pt in self.backend_points(backend) {
            sum += pt.overlap;
            n += 1;
        }
        if n == 0 {
            1.0
        } else {
            sum / n as f64
        }
    }

    /// Best (smallest) pipelined ÷ blocking wall ratio over a backend's
    /// points (`None` when empty) — the sweep's best demonstrated
    /// compute/communication overlap.
    pub fn min_overlap(&self, backend: &str) -> Option<f64> {
        let best = self
            .backend_points(backend)
            .map(|pt| pt.overlap)
            .fold(f64::INFINITY, f64::min);
        best.is_finite().then_some(best)
    }

    /// Adaptive points under one backend.
    pub fn backend_adaptive<'a>(
        &'a self,
        backend: &'a str,
    ) -> impl Iterator<Item = &'a AdaptivePoint> + 'a {
        self.adaptive.iter().filter(move |pt| pt.backend == backend)
    }

    /// Maximum adaptive regret over a backend's drifting-sparsity
    /// points (1.0 when empty).
    pub fn max_adaptive_regret(&self, backend: &str) -> f64 {
        self.backend_adaptive(backend)
            .map(|pt| pt.adaptive_regret)
            .fold(1.0, f64::max)
    }

    /// Maximum static regret over a backend's drifting-sparsity points
    /// (1.0 when empty).
    pub fn max_static_regret(&self, backend: &str) -> f64 {
        self.backend_adaptive(backend)
            .map(|pt| pt.static_regret)
            .fold(1.0, f64::max)
    }

    /// Serialize to the canonical pretty JSON document.
    pub fn to_json(&self) -> String {
        let points = self
            .points
            .iter()
            .map(|pt| {
                let cands = pt
                    .candidates
                    .iter()
                    .map(|c| {
                        Json::Obj(vec![
                            ("family".into(), Json::Str(c.family.clone())),
                            ("elision".into(), Json::Str(c.elision.clone())),
                            ("routing".into(), Json::Str(c.routing.clone())),
                            ("local_variant".into(), Json::Str(c.local_variant.clone())),
                            ("c".into(), Json::Num(c.c as f64)),
                            ("predicted_s".into(), Json::Num(c.predicted_s)),
                            ("modeled_s".into(), Json::Num(c.modeled_s)),
                            ("wall_s".into(), Json::Num(c.wall_s)),
                            ("wire_bytes".into(), Json::Num(c.wire_bytes as f64)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("backend".into(), Json::Str(pt.backend.clone())),
                    ("r".into(), Json::Num(pt.r as f64)),
                    ("nnz_row".into(), Json::Num(pt.nnz_row as f64)),
                    ("phi".into(), Json::Num(pt.phi)),
                    ("candidates".into(), Json::Arr(cands)),
                    ("picked".into(), Json::Num(pt.picked as f64)),
                    ("best".into(), Json::Num(pt.best as f64)),
                    ("regret".into(), Json::Num(pt.regret)),
                    ("model_error".into(), Json::Num(pt.model_error)),
                    ("overlap".into(), Json::Num(pt.overlap)),
                ])
            })
            .collect();
        let adaptive = self
            .adaptive
            .iter()
            .map(|pt| {
                Json::Obj(vec![
                    ("backend".into(), Json::Str(pt.backend.clone())),
                    ("r".into(), Json::Num(pt.r as f64)),
                    (
                        "schedule".into(),
                        Json::Arr(pt.schedule.iter().map(|&s| Json::Num(s as f64)).collect()),
                    ),
                    ("static_regret".into(), Json::Num(pt.static_regret)),
                    ("adaptive_regret".into(), Json::Num(pt.adaptive_regret)),
                    ("migrations".into(), Json::Num(pt.migrations as f64)),
                ])
            })
            .collect();
        Json::Obj(vec![
            (
                "schema_version".into(),
                Json::Num(self.schema_version as f64),
            ),
            ("name".into(), Json::Str(self.name.clone())),
            ("profile".into(), Json::Str(self.profile.clone())),
            ("git_sha".into(), Json::Str(self.git_sha.clone())),
            ("p".into(), Json::Num(self.p as f64)),
            ("c_max".into(), Json::Num(self.c_max as f64)),
            ("m".into(), Json::Num(self.m as f64)),
            ("calls".into(), Json::Num(self.calls as f64)),
            ("points".into(), Json::Arr(points)),
            ("adaptive".into(), Json::Arr(adaptive)),
        ])
        .to_pretty()
    }

    /// Parse a report back from its JSON document.
    pub fn parse(text: &str) -> Result<BenchReport, String> {
        let root = Json::parse(text)?;
        let req = |key: &str| {
            root.get(key)
                .ok_or_else(|| format!("missing field {key:?}"))
        };
        let num = |key: &str| {
            req(key)?
                .as_u64()
                .ok_or_else(|| format!("{key:?} not an integer"))
        };
        let text_field = |key: &str| {
            Ok::<_, String>(
                req(key)?
                    .as_str()
                    .ok_or_else(|| format!("{key:?} not a string"))?
                    .to_string(),
            )
        };
        let mut points = Vec::new();
        for (i, pt) in req("points")?
            .as_arr()
            .ok_or("\"points\" not an array")?
            .iter()
            .enumerate()
        {
            points.push(parse_point(pt).map_err(|e| format!("points[{i}]: {e}"))?);
        }
        let mut adaptive = Vec::new();
        for (i, pt) in req("adaptive")?
            .as_arr()
            .ok_or("\"adaptive\" not an array")?
            .iter()
            .enumerate()
        {
            adaptive.push(parse_adaptive(pt).map_err(|e| format!("adaptive[{i}]: {e}"))?);
        }
        Ok(BenchReport {
            schema_version: num("schema_version")?,
            name: text_field("name")?,
            profile: text_field("profile")?,
            git_sha: text_field("git_sha")?,
            p: num("p")?,
            c_max: num("c_max")?,
            m: num("m")?,
            calls: num("calls")?,
            points,
            adaptive,
        })
    }
}

fn parse_adaptive(pt: &Json) -> Result<AdaptivePoint, String> {
    let req = |key: &str| pt.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let num = |key: &str| {
        req(key)?
            .as_u64()
            .ok_or_else(|| format!("{key:?} not an integer"))
    };
    let float = |key: &str| {
        req(key)?
            .as_f64()
            .ok_or_else(|| format!("{key:?} not a number"))
    };
    let schedule = req("schedule")?
        .as_arr()
        .ok_or("\"schedule\" not an array")?
        .iter()
        .map(|v| v.as_u64().ok_or("schedule entry not an integer"))
        .collect::<Result<Vec<u64>, _>>()?;
    if schedule.is_empty() {
        return Err("empty drifting schedule".to_string());
    }
    Ok(AdaptivePoint {
        backend: req("backend")?
            .as_str()
            .ok_or("\"backend\" not a string")?
            .to_string(),
        r: num("r")?,
        schedule,
        static_regret: float("static_regret")?,
        adaptive_regret: float("adaptive_regret")?,
        migrations: num("migrations")?,
    })
}

fn parse_point(pt: &Json) -> Result<BenchPoint, String> {
    let req = |key: &str| pt.get(key).ok_or_else(|| format!("missing field {key:?}"));
    let num = |key: &str| {
        req(key)?
            .as_u64()
            .ok_or_else(|| format!("{key:?} not an integer"))
    };
    let float = |key: &str| {
        req(key)?
            .as_f64()
            .ok_or_else(|| format!("{key:?} not a number"))
    };
    let mut candidates = Vec::new();
    for (i, cand) in req("candidates")?
        .as_arr()
        .ok_or("\"candidates\" not an array")?
        .iter()
        .enumerate()
    {
        candidates.push(parse_candidate(cand).map_err(|e| format!("candidates[{i}]: {e}"))?);
    }
    let point = BenchPoint {
        backend: req("backend")?
            .as_str()
            .ok_or("\"backend\" not a string")?
            .to_string(),
        r: num("r")?,
        nnz_row: num("nnz_row")?,
        phi: float("phi")?,
        candidates,
        picked: num("picked")?,
        best: num("best")?,
        regret: float("regret")?,
        model_error: float("model_error")?,
        overlap: float("overlap")?,
    };
    let n = point.candidates.len() as u64;
    if point.picked >= n || point.best >= n {
        return Err(format!(
            "picked/best index out of range ({}/{} of {n})",
            point.picked, point.best
        ));
    }
    Ok(point)
}

fn parse_candidate(cand: &Json) -> Result<CandidateTiming, String> {
    let req = |key: &str| {
        cand.get(key)
            .ok_or_else(|| format!("missing field {key:?}"))
    };
    let float = |key: &str| {
        req(key)?
            .as_f64()
            .ok_or_else(|| format!("{key:?} not a number"))
    };
    let text = |key: &str| {
        let s = req(key)?.as_str();
        Ok::<_, String>(
            s.ok_or_else(|| format!("{key:?} not a string"))?
                .to_string(),
        )
    };
    Ok(CandidateTiming {
        family: text("family")?,
        elision: text("elision")?,
        routing: text("routing")?,
        local_variant: text("local_variant")?,
        c: req("c")?.as_u64().ok_or("\"c\" not an integer")?,
        predicted_s: float("predicted_s")?,
        modeled_s: float("modeled_s")?,
        wall_s: float("wall_s")?,
        wire_bytes: req("wire_bytes")?
            .as_u64()
            .ok_or("\"wire_bytes\" not an integer")?,
    })
}

// ---------------------------------------------------------------------
// Regression gate
// ---------------------------------------------------------------------

/// Tolerances for [`gate`]. All comparisons are one-sided: improvements
/// never fail.
#[derive(Debug, Clone, Copy)]
pub struct GateTolerances {
    /// Allowed fractional increase of max/mean regret over baseline.
    pub regret_frac: f64,
    /// Absolute regret slack added on top of the fractional allowance
    /// (keeps a near-1.0 baseline from gating on float dust).
    pub regret_abs: f64,
    /// Allowed fractional increase of total encoded wire bytes.
    pub wire_frac: f64,
    /// How many planner/measured agreement points may be lost.
    pub agreement_drop: usize,
    /// Allowed excess of the mean pipelined ÷ blocking wall ratio
    /// over 1.0 on `wire-delay` points (schema v5). Generous because
    /// both sides are wall clock; the axis exists to catch pipelining
    /// that *costs* time, not to demand a specific speedup.
    pub overlap_frac: f64,
}

impl Default for GateTolerances {
    fn default() -> Self {
        GateTolerances {
            regret_frac: 0.10,
            regret_abs: 0.05,
            wire_frac: 0.02,
            agreement_drop: 1,
            overlap_frac: 0.25,
        }
    }
}

/// Compare a PR's report against the committed baseline. Returns the
/// list of violations — empty means the gate passes. Gated quantities
/// are deterministic across machines: `inproc` regret/agreement
/// (modeled from measured counts) and `wire-delay` encoded bytes.
/// Wall-clock fields are never compared.
pub fn gate(baseline: &BenchReport, current: &BenchReport, tol: &GateTolerances) -> Vec<String> {
    let mut violations = Vec::new();
    if baseline.schema_version != current.schema_version {
        return vec![format!(
            "schema version mismatch: baseline v{}, current v{} — refresh BENCH_baseline.json",
            baseline.schema_version, current.schema_version
        )];
    }
    if baseline.name != current.name
        || baseline.profile != current.profile
        || baseline.p != current.p
        || baseline.m != current.m
        || baseline.c_max != current.c_max
        || baseline.calls != current.calls
    {
        return vec![format!(
            "sweep setup changed (name/profile/p/m/c_max/calls): baseline {}/{} p={} m={} \
             c_max={} calls={}, current {}/{} p={} m={} c_max={} calls={} — refresh \
             BENCH_baseline.json",
            baseline.name,
            baseline.profile,
            baseline.p,
            baseline.m,
            baseline.c_max,
            baseline.calls,
            current.name,
            current.profile,
            current.p,
            current.m,
            current.c_max,
            current.calls,
        )];
    }
    let grid = |report: &BenchReport| {
        let mut pts: Vec<(String, u64, u64)> = report
            .points
            .iter()
            .map(|pt| (pt.backend.clone(), pt.r, pt.nnz_row))
            .collect();
        pts.sort();
        pts
    };
    if grid(baseline) != grid(current) {
        return vec![
            "grid points changed between baseline and current — refresh BENCH_baseline.json"
                .to_string(),
        ];
    }
    let adaptive_grid = |report: &BenchReport| {
        let mut pts: Vec<(String, u64, Vec<u64>)> = report
            .adaptive
            .iter()
            .map(|pt| (pt.backend.clone(), pt.r, pt.schedule.clone()))
            .collect();
        pts.sort();
        pts
    };
    if adaptive_grid(baseline) != adaptive_grid(current) {
        return vec![
            "adaptive drifting-sparsity grid changed between baseline and current — refresh \
             BENCH_baseline.json"
                .to_string(),
        ];
    }

    for (label, base_v, cur_v) in [
        (
            "max inproc regret",
            baseline.max_regret("inproc"),
            current.max_regret("inproc"),
        ),
        (
            "mean inproc regret",
            baseline.mean_regret("inproc"),
            current.mean_regret("inproc"),
        ),
    ] {
        let bound = base_v * (1.0 + tol.regret_frac) + tol.regret_abs;
        if cur_v > bound {
            violations.push(format!(
                "{label} regressed: {cur_v:.4} > {base_v:.4} (+{:.0}% +{}) = {bound:.4}",
                tol.regret_frac * 100.0,
                tol.regret_abs
            ));
        }
    }

    let (base_agree, base_total) = baseline.agreement("inproc");
    let (cur_agree, cur_total) = current.agreement("inproc");
    if cur_agree + tol.agreement_drop < base_agree {
        violations.push(format!(
            "planner/measured agreement regressed: {cur_agree}/{cur_total} vs baseline \
             {base_agree}/{base_total} (allowed drop {})",
            tol.agreement_drop
        ));
    }

    // Adaptive drifting-sparsity axes: the adaptive pick must not
    // regress vs baseline, and it must never be worse than holding the
    // static plan — that inversion would mean re-planning actively
    // hurts, the exact failure this scenario exists to catch.
    {
        let base_v = baseline.max_adaptive_regret("inproc");
        let cur_v = current.max_adaptive_regret("inproc");
        let bound = base_v * (1.0 + tol.regret_frac) + tol.regret_abs;
        if cur_v > bound {
            violations.push(format!(
                "max adaptive regret regressed: {cur_v:.4} > {base_v:.4} (+{:.0}% +{}) = \
                 {bound:.4}",
                tol.regret_frac * 100.0,
                tol.regret_abs
            ));
        }
        for pt in current.backend_adaptive("inproc") {
            if pt.adaptive_regret > pt.static_regret + tol.regret_abs {
                violations.push(format!(
                    "adaptive regret exceeds static regret at r={} schedule {:?}: {:.4} > {:.4}",
                    pt.r, pt.schedule, pt.adaptive_regret, pt.static_regret
                ));
            }
        }
    }

    // Routed-candidate axes (schema v3). Regret: pattern-routed
    // variants must stay as competitive as the baseline measured them.
    {
        let base_v = baseline.max_routed_regret("inproc");
        let cur_v = current.max_routed_regret("inproc");
        let bound = base_v * (1.0 + tol.regret_frac) + tol.regret_abs;
        if cur_v > bound {
            violations.push(format!(
                "max routed-candidate regret regressed: {cur_v:.4} > {base_v:.4} (+{:.0}% +{}) \
                 = {bound:.4}",
                tol.regret_frac * 100.0,
                tol.regret_abs
            ));
        }
    }
    // Bytes: wherever the sweep measures a routed/dense pair of the
    // same algorithm under wire-delay, pattern routing must still ship
    // strictly fewer encoded bytes somewhere (the subsystem's reason to
    // exist), and its best saving must not erode beyond tolerance.
    if let Some(cur_ratio) = current.min_routed_byte_ratio("wire-delay") {
        if cur_ratio >= 1.0 {
            violations.push(format!(
                "pattern routing no longer reduces wire bytes on any scenario: best \
                 routed/dense ratio {cur_ratio:.4} >= 1"
            ));
        }
        if let Some(base_ratio) = baseline.min_routed_byte_ratio("wire-delay") {
            let bound = base_ratio * (1.0 + tol.wire_frac);
            if cur_ratio > bound {
                violations.push(format!(
                    "best routed/dense wire-byte ratio regressed: {cur_ratio:.4} > \
                     {base_ratio:.4} (+{:.0}%) = {bound:.4}",
                    tol.wire_frac * 100.0
                ));
            }
        }
    }

    // Overlap axis (schema v5): pipelined shifts must not run slower
    // than blocking shifts beyond tolerance on the latency-modeling
    // backend. One-sided and wall-clock based (both sides of the ratio
    // come from the same run), so the tolerance is generous and the
    // comparison is against the report's own mean, not the baseline —
    // its job is to catch a pipeline that serializes or double-pays
    // communication, not to enforce a speedup figure.
    {
        let cur_v = current.mean_overlap("wire-delay");
        let bound = 1.0 + tol.overlap_frac;
        if cur_v > bound {
            violations.push(format!(
                "pipelined shifts slower than blocking: mean pipelined/blocking wall ratio \
                 {cur_v:.4} > 1 (+{:.0}%) = {bound:.4}",
                tol.overlap_frac * 100.0
            ));
        }
    }

    let base_bytes = baseline.wire_bytes_total("wire-delay");
    let cur_bytes = current.wire_bytes_total("wire-delay");
    let byte_bound = (base_bytes as f64 * (1.0 + tol.wire_frac)).ceil() as u64;
    if cur_bytes > byte_bound {
        violations.push(format!(
            "wire_bytes_sent regressed: {cur_bytes} > {base_bytes} (+{:.0}%) = {byte_bound}",
            tol.wire_frac * 100.0
        ));
    }

    violations
}

/// Per-backend one-line summaries (agreement, max/mean regret, wire
/// bytes) — the single formatting used by both the sweep's stdout and
/// the gate's, so the two printouts cannot drift apart.
pub fn summary_lines(report: &BenchReport) -> Vec<String> {
    // Summarize whatever backends the report carries, in first-seen
    // order (inproc and wire-delay always; socket when the sweep ran
    // its multi-process leg).
    let mut backends: Vec<String> = Vec::new();
    for pt in &report.points {
        if !backends.contains(&pt.backend) {
            backends.push(pt.backend.clone());
        }
    }
    let mut lines: Vec<String> = backends
        .iter()
        .map(|backend| {
            let (agree, total) = report.agreement(backend);
            format!(
                "{backend:>10}: agreement {agree}/{total}, max regret {:.3}, mean regret \
                 {:.3}, wire bytes {}",
                report.max_regret(backend),
                report.mean_regret(backend),
                report.wire_bytes_total(backend),
            )
        })
        .collect();
    if let Some(ratio) = report.min_routed_byte_ratio("wire-delay") {
        let routed_picks = report
            .points
            .iter()
            .filter(|pt| {
                pt.candidates
                    .get(pt.picked as usize)
                    .is_some_and(|c| c.routing == "pattern")
            })
            .count();
        lines.push(format!(
            "  routing: max routed regret {:.3} (inproc), best routed/dense wire bytes \
             {:.3}, {routed_picks} routed pick(s)",
            report.max_routed_regret("inproc"),
            ratio,
        ));
    }
    if let Some(best) = report.min_overlap("wire-delay") {
        lines.push(format!(
            "  overlap: pipelined/blocking wall ratio best {best:.3}, mean {:.3}, worst {:.3} \
             (wire-delay)",
            report.mean_overlap("wire-delay"),
            report.max_overlap("wire-delay"),
        ));
    }
    let n_adaptive = report.backend_adaptive("inproc").count();
    if n_adaptive > 0 {
        let migrations: u64 = report
            .backend_adaptive("inproc")
            .map(|pt| pt.migrations)
            .sum();
        lines.push(format!(
            "  adaptive: {n_adaptive} drifting schedule(s), static regret {:.3} → adaptive \
             {:.3}, {migrations} migration(s)",
            report.max_static_regret("inproc"),
            report.max_adaptive_regret("inproc"),
        ));
    }
    lines
}

/// `git rev-parse HEAD` of the working directory, or `"unknown"`.
pub fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|sha| !sha.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_value_round_trips() {
        let v = Json::Obj(vec![
            ("a".into(), Json::Num(1.5e-9)),
            ("b".into(), Json::Str("x \"y\"\nz".into())),
            (
                "c".into(),
                Json::Arr(vec![Json::Null, Json::Bool(true), Json::Num(-3.0)]),
            ),
            ("d".into(), Json::Obj(vec![])),
        ]);
        let text = v.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "{'single': 1}",
            "nul",
            // A \u escape whose 4-byte window splits a multi-byte
            // character must be an Err, not a panic.
            "\"\\uABCé\"",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integers_survive_exactly() {
        let v = Json::Num(9_007_199_254_740_992.0); // 2^53
        let text = v.to_pretty();
        assert_eq!(Json::parse(&text).unwrap(), v);
        assert_eq!(Json::Num(42.0).as_u64(), Some(42));
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn shortest_float_round_trip() {
        for x in [1.33e-9, 0.1, 123456.789, 2e-11, f64::MIN_POSITIVE] {
            let text = Json::Num(x).to_pretty();
            assert_eq!(Json::parse(&text).unwrap().as_f64(), Some(x));
        }
    }

    #[test]
    fn git_sha_is_nonempty() {
        assert!(!git_sha().is_empty());
    }
}
