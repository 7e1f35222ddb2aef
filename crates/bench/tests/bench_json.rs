//! The BENCH_*.json contract: serialize → parse is lossless, the gate
//! passes self-comparison, and every gated regression axis actually
//! fails — so the CI perf leg can be trusted in both directions.

use dsk_bench::json::{
    gate, AdaptivePoint, BenchPoint, BenchReport, CandidateTiming, GateTolerances, Json,
};

fn candidate(
    family: &str,
    routing: &str,
    c: u64,
    modeled_s: f64,
    wire_bytes: u64,
) -> CandidateTiming {
    CandidateTiming {
        family: family.to_string(),
        elision: "Repl. Reuse".to_string(),
        routing: routing.to_string(),
        c,
        predicted_s: modeled_s * 0.97,
        modeled_s,
        wall_s: modeled_s * 43.0, // wall is noisy; never gated
        wire_bytes,
        local_variant: "blocked".to_string(),
    }
}

fn point(backend: &str, r: u64, nnz_row: u64, best: u64, regret: f64) -> BenchPoint {
    let candidates = vec![
        candidate("1.5D Dense Shift", "dense", 4, 1.0e-4 * regret, 1024),
        candidate("1.5D Sparse Shift", "dense", 2, 1.0e-4, 4096),
        // The pattern-routed twin of candidate 0: same algorithm, never
        // the measured best, half the encoded bytes.
        candidate("1.5D Dense Shift", "pattern", 4, 1.2e-4, 512),
    ];
    BenchPoint {
        backend: backend.to_string(),
        r,
        nnz_row,
        phi: nnz_row as f64 / r as f64,
        candidates,
        picked: 0,
        best,
        regret,
        model_error: 0.03,
        // wire-delay points measure real overlap; inproc models none.
        overlap: if backend == "wire-delay" { 0.7 } else { 1.0 },
    }
}

fn adaptive_point(static_regret: f64, adaptive_regret: f64) -> AdaptivePoint {
    AdaptivePoint {
        backend: "inproc".to_string(),
        r: 32,
        schedule: vec![20, 8, 2],
        static_regret,
        adaptive_regret,
        migrations: 1,
    }
}

fn report() -> BenchReport {
    BenchReport {
        schema_version: dsk_bench::json::BENCH_SCHEMA_VERSION,
        name: "fig6_regret".to_string(),
        profile: "smoke".to_string(),
        git_sha: "deadbeef".to_string(),
        p: 8,
        c_max: 16,
        m: 1024,
        calls: 1,
        points: vec![
            point("inproc", 8, 2, 0, 1.0),
            point("inproc", 16, 8, 1, 1.02),
            point("wire-delay", 8, 2, 0, 1.0),
            point("wire-delay", 16, 8, 0, 1.3),
        ],
        adaptive: vec![adaptive_point(1.4, 1.01)],
    }
}

#[test]
fn report_round_trips_exactly() {
    let original = report();
    let text = original.to_json();
    let parsed = BenchReport::parse(&text).expect("own serialization must parse");
    assert_eq!(parsed, original);
    // And the double round-trip is a fixed point.
    assert_eq!(parsed.to_json(), text);
}

#[test]
fn report_is_valid_json_for_any_reader() {
    let text = report().to_json();
    let value = Json::parse(&text).unwrap();
    assert_eq!(
        value.get("schema_version").and_then(Json::as_u64),
        Some(dsk_bench::json::BENCH_SCHEMA_VERSION)
    );
    assert_eq!(
        value.get("points").and_then(Json::as_arr).map(|a| a.len()),
        Some(4)
    );
}

#[test]
fn parse_rejects_structural_corruption() {
    let good = report().to_json();
    // Remove a required field.
    let missing = good.replace("\"git_sha\": \"deadbeef\",", "");
    assert!(BenchReport::parse(&missing).is_err());
    // Out-of-range candidate index.
    let mut bad_idx = report();
    bad_idx.points[0].best = 7;
    assert!(BenchReport::parse(&bad_idx.to_json()).is_err());
    // Plain text is not a report.
    assert!(BenchReport::parse("not json").is_err());
}

#[test]
fn aggregates_summarize_per_backend() {
    let r = report();
    assert_eq!(r.agreement("inproc"), (1, 2));
    assert_eq!(r.agreement("wire-delay"), (2, 2));
    assert!((r.max_regret("inproc") - 1.02).abs() < 1e-12);
    assert!((r.mean_regret("inproc") - 1.01).abs() < 1e-12);
    // Three candidates per point: 1024 + 4096 + 512 bytes each.
    assert_eq!(r.wire_bytes_total("wire-delay"), 2 * (1024 + 4096 + 512));
}

#[test]
fn routed_axes_summarize() {
    let r = report();
    // Best routed 1.2e-4 vs best overall 1.0e-4 at every point.
    assert!((r.max_routed_regret("inproc") - 1.2).abs() < 1e-12);
    // The routed twin ships 512 of its dense sibling's 1024 bytes.
    assert_eq!(r.min_routed_byte_ratio("wire-delay"), Some(0.5));
    // Real inproc rows record zero bytes; the dense-bytes > 0 guard
    // then yields no ratio at all rather than a division by zero.
    let mut zeroed = report();
    for pt in &mut zeroed.points {
        for c in &mut pt.candidates {
            c.wire_bytes = 0;
        }
    }
    assert_eq!(zeroed.min_routed_byte_ratio("wire-delay"), None);
    let mut dense_only = report();
    for pt in &mut dense_only.points {
        pt.candidates.retain(|c| c.routing == "dense");
    }
    assert_eq!(dense_only.max_routed_regret("inproc"), 1.0);
    assert_eq!(dense_only.min_routed_byte_ratio("wire-delay"), None);
}

#[test]
fn gate_fails_on_routed_regret_regression() {
    let base = report();
    let mut worse = report();
    for pt in &mut worse.points {
        for c in &mut pt.candidates {
            if c.routing == "pattern" {
                c.modeled_s = 2.0e-4; // routed regret 1.2 → 2.0
            }
        }
    }
    let violations = gate(&base, &worse, &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("routed-candidate regret regressed")),
        "{violations:?}"
    );
}

#[test]
fn gate_fails_when_routing_stops_saving_bytes() {
    let base = report();
    // Ratio erodes beyond tolerance but still saves: 0.5 → 0.8.
    let mut eroded = report();
    for pt in &mut eroded.points {
        for c in &mut pt.candidates {
            if c.routing == "pattern" {
                c.wire_bytes = 819;
            }
        }
    }
    let violations = gate(&base, &eroded, &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("wire-byte ratio regressed")),
        "{violations:?}"
    );
    // Routing that ships *more* than dense is flagged unconditionally.
    let mut inverted = report();
    for pt in &mut inverted.points {
        for c in &mut pt.candidates {
            if c.routing == "pattern" {
                c.wire_bytes = 2048;
            }
        }
    }
    let violations = gate(&base, &inverted, &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("no longer reduces wire bytes")),
        "{violations:?}"
    );
}

#[test]
fn parse_rejects_documents_missing_v5_fields() {
    // Documents from before a field existed are documents the gate
    // refuses to compare; the parser names what is missing instead of
    // inventing a value for it.
    fn without(v: &Json, field: &str) -> Json {
        match v {
            Json::Obj(fields) => Json::Obj(
                fields
                    .iter()
                    .filter(|(k, _)| k != field)
                    .map(|(k, v)| (k.clone(), without(v, field)))
                    .collect(),
            ),
            Json::Arr(items) => Json::Arr(items.iter().map(|v| without(v, field)).collect()),
            other => other.clone(),
        }
    }
    let good = Json::parse(&report().to_json()).unwrap();
    for field in ["routing", "local_variant", "overlap", "adaptive"] {
        let text = without(&good, field).to_pretty();
        assert!(
            !text.contains(&format!("\"{field}\"")),
            "{field} not removed"
        );
        let err = BenchReport::parse(&text).expect_err(field);
        assert!(err.contains(&format!("missing field {field:?}")), "{err}");
    }
}

#[test]
fn committed_baseline_parses_and_gates_green_against_itself() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_baseline.json is committed");
    let baseline = BenchReport::parse(&text).expect("the committed baseline parses");
    assert_eq!(
        baseline.schema_version,
        dsk_bench::json::BENCH_SCHEMA_VERSION
    );
    let violations = gate(&baseline, &baseline.clone(), &GateTolerances::default());
    assert!(violations.is_empty(), "{violations:?}");
}

#[test]
fn overlap_axes_summarize_and_gate() {
    let r = report();
    assert_eq!(r.min_overlap("wire-delay"), Some(0.7));
    assert_eq!(r.max_overlap("wire-delay"), 0.7);
    assert_eq!(r.mean_overlap("wire-delay"), 0.7);
    assert_eq!(r.min_overlap("socket"), None);
    assert_eq!(r.mean_overlap("socket"), 1.0);
    // Pipelining that costs time beyond tolerance fails the gate; the
    // axis reads only the current report, so even a matching baseline
    // regression does not excuse it.
    let mut slower = report();
    for pt in &mut slower.points {
        if pt.backend == "wire-delay" {
            pt.overlap = 1.4;
        }
    }
    let violations = gate(&slower, &slower.clone(), &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("pipelined shifts slower than blocking")),
        "{violations:?}"
    );
    // Mild slowdowns within tolerance pass.
    let mut mild = report();
    for pt in &mut mild.points {
        if pt.backend == "wire-delay" {
            pt.overlap = 1.1;
        }
    }
    assert!(gate(&report(), &mild, &GateTolerances::default()).is_empty());
}

#[test]
fn gate_passes_self_comparison_and_improvements() {
    let base = report();
    let tol = GateTolerances::default();
    assert!(gate(&base, &base.clone(), &tol).is_empty());
    // Improvements (lower regret, fewer bytes) must never fail.
    let mut better = report();
    for pt in &mut better.points {
        pt.regret = 1.0;
        pt.best = pt.picked;
        for c in &mut pt.candidates {
            c.wire_bytes /= 2;
        }
    }
    assert!(gate(&base, &better, &tol).is_empty());
}

#[test]
fn gate_fails_on_adaptive_regret_regression() {
    let base = report();
    // Adaptive pick got worse than baseline beyond tolerance.
    let mut worse = report();
    worse.adaptive[0].adaptive_regret = 1.8;
    let violations = gate(&base, &worse, &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("adaptive regret regressed")),
        "{violations:?}"
    );
    // Adaptive worse than static within the current report is a
    // violation even when baseline would allow the value.
    let mut inverted = report();
    inverted.adaptive[0].static_regret = 1.0;
    inverted.adaptive[0].adaptive_regret = 1.09;
    let tol = GateTolerances {
        regret_frac: 10.0,
        ..GateTolerances::default()
    };
    let violations = gate(&base, &inverted, &tol);
    assert!(
        violations
            .iter()
            .any(|v| v.contains("adaptive regret exceeds static")),
        "{violations:?}"
    );
    // A changed schedule demands a refresh.
    let mut regrided = report();
    regrided.adaptive[0].schedule = vec![20, 10, 2];
    let violations = gate(&base, &regrided, &GateTolerances::default());
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains("refresh BENCH_baseline.json"));
}

#[test]
fn gate_fails_on_regret_regression() {
    let base = report();
    let mut worse = report();
    for pt in &mut worse.points {
        if pt.backend == "inproc" {
            pt.regret = 2.0;
        }
    }
    let violations = gate(&base, &worse, &GateTolerances::default());
    assert!(
        violations.iter().any(|v| v.contains("regret regressed")),
        "{violations:?}"
    );
}

#[test]
fn gate_fails_on_wire_byte_bloat() {
    let base = report();
    let mut worse = report();
    for pt in &mut worse.points {
        if pt.backend == "wire-delay" {
            for c in &mut pt.candidates {
                c.wire_bytes = (c.wire_bytes as f64 * 1.10) as u64;
            }
        }
    }
    let violations = gate(&base, &worse, &GateTolerances::default());
    assert!(
        violations
            .iter()
            .any(|v| v.contains("wire_bytes_sent regressed")),
        "{violations:?}"
    );
}

#[test]
fn gate_fails_on_agreement_drop_beyond_tolerance() {
    let mut base = report();
    // Baseline: both inproc points agree.
    for pt in &mut base.points {
        pt.best = pt.picked;
        pt.regret = 1.0;
    }
    let mut worse = base.clone();
    for pt in &mut worse.points {
        if pt.backend == "inproc" {
            pt.best = 1; // picked stays 0: no point agrees any more
        }
    }
    let tol = GateTolerances {
        agreement_drop: 1,
        // Keep regret out of the picture for this axis.
        regret_frac: 10.0,
        ..GateTolerances::default()
    };
    let violations = gate(&base, &worse, &tol);
    assert!(
        violations.iter().any(|v| v.contains("agreement regressed")),
        "{violations:?}"
    );
}

#[test]
fn gate_demands_refresh_when_setup_changes() {
    let base = report();
    let mut moved = report();
    moved.m = 2048;
    let violations = gate(&base, &moved, &GateTolerances::default());
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains("refresh BENCH_baseline.json"));

    let mut regrided = report();
    regrided.points[0].r = 12;
    let violations = gate(&base, &regrided, &GateTolerances::default());
    assert_eq!(violations.len(), 1);
    assert!(violations[0].contains("refresh BENCH_baseline.json"));

    let mut reversioned = report();
    reversioned.schema_version += 1;
    let violations = gate(&base, &reversioned, &GateTolerances::default());
    assert!(violations[0].contains("schema version mismatch"));
}
