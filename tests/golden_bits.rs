//! Golden-bits suite: the kernels' floating-point summation order and
//! their communication accounting, pinned to the bit.
//!
//! The other suites compare against serial references under tolerances,
//! which a reordered sum or a shifted message count passes. This one
//! runs every kernel × admissible routing on one ragged problem (no
//! dimension a multiple of `p`; every local loop adds in the
//! one-nonzero-at-a-time order), and compares `to_bits()` of every
//! result norm, the stored-R pipeline, the squared loss, and the
//! per-phase `msgs_sent` / `words_sent` / `modeled_s` against constants
//! captured from the commit before the family-layer refactor, with two
//! deliberate accounting moves:
//!
//! * the Propagation rows count `q − 1` hops per input-lane round;
//! * the 1.5D dense shift's dense-routed `rhs_b` runs `Sᵀ·A` as an
//!   input-lane round with `A` traveling (so it can keep `A`'s ring
//!   tiles for an ALS solve), not as an all-gather of `A` plus a `q`-hop
//!   accumulator round. Its replication ships `B`-shaped rows (`n = 29`)
//!   in a reduce-scatter instead of `A`-shaped ones (`m = 27`) in an
//!   all-gather, and each rank sends one propagation hop less, of
//!   `A`-shaped tiles. Only `DS15_DENSE`'s replication words and
//!   Propagation rows moved; `rhs_b`'s bits did not.
//!
//! All of these are backend-invariant, so the suite runs unchanged under
//! every `DSK_COMM_BACKEND`.
//!
//! When a change moves a number *on purpose*, the failure message prints
//! the whole table of the failing configuration in source form.

use std::sync::Arc;

use distributed_sparse_kernels::prelude::*;

const P: usize = 8;
const C: usize = 2;
/// Ragged on every axis: 8 ∤ 27, 8 ∤ 29, and neither the 1.5D r-slices
/// (4) nor the 2.5D ones (4) divide 7.
const DIMS: (usize, usize, usize) = (27, 29, 7);

type Table = Vec<(String, u64)>;

/// Order-sensitive FNV-1a over a triplet list: pins which nonzeros a
/// rank exports, their values, and the order it walks them in.
fn triplet_hash(coo: &distributed_sparse_kernels::sparse::CooMatrix) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for ((&i, &j), &v) in coo.rows.iter().zip(&coo.cols).zip(&coo.vals) {
        eat(u64::from(i));
        eat(u64::from(j));
        eat(v.to_bits());
    }
    h
}

fn sq(m: &Mat) -> f64 {
    m.as_slice().iter().map(|v| v * v).sum()
}

/// Run the whole scenario on one configuration and fold it into a
/// labelled table: per-rank values are summed in rank order on the
/// host, so the table is one deterministic function of the kernels.
fn measure(family: Option<AlgorithmFamily>, routing: Routing) -> Table {
    let (m, n, r) = DIMS;
    let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 12_001));
    let staged = Arc::new(StagedProblem::new(prob));
    let builder = match family {
        Some(f) => KernelBuilder::from_staged_arc(staged)
            .family(f)
            .replication(C),
        None => KernelBuilder::from_staged_arc(staged).baseline(),
    }
    .routing(routing);
    // Routes only exist on the un-elided schedules; the elided ones are
    // covered by the dense-routed configuration of the same kernel.
    let elisions: Vec<Elision> = Elision::ALL
        .into_iter()
        .filter(|e| routing == Routing::Dense || *e == Elision::None)
        .collect();

    let world = SimWorld::new(P, MachineModel::cori_knl());
    let labels_and_ranks = world.run(move |comm| {
        let mut worker = builder.build(comm);
        let k: &mut dyn DistKernel = worker.kernel_mut();
        let mut labels: Vec<String> = Vec::new();
        let mut vals: Vec<f64> = Vec::new();
        let mut hashes: Vec<u64> = Vec::new();
        let mut put = |l: String, v: f64| {
            labels.push(l);
            vals.push(v);
        };

        let supported: Vec<Elision> = elisions
            .iter()
            .copied()
            .filter(|&e| k.supports(e))
            .collect();
        let preferred = *supported.last().expect("Elision::None is always supported");
        for e in supported {
            put(
                format!("fused_a/{}", e.label()),
                sq(&k.fused_mm_a(None, e, Sampling::Values)),
            );
            put(
                format!("fused_b/{}", e.label()),
                sq(&k.fused_mm_b(None, e, Sampling::Values)),
            );
        }
        put(
            "fused_a/ones".into(),
            sq(&k.fused_mm_a(None, preferred, Sampling::Ones)),
        );
        put(
            "fused_b/ones".into(),
            sq(&k.fused_mm_b(None, preferred, Sampling::Ones)),
        );
        put("rhs_a".into(), sq(&k.rhs_a(comm)));
        put("rhs_b".into(), sq(&k.rhs_b(comm)));

        // Sampled SDDMM, exported.
        k.sddmm();
        hashes.push(triplet_hash(&k.export_r().expect("sddmm stores R")));

        // GAT-style affine combine, raw.
        let w_src: Vec<f64> = (0..r).map(|t| 0.25 + 0.125 * t as f64).collect();
        let w_dst: Vec<f64> = (0..r).map(|t| 1.0 - 0.0625 * t as f64).collect();
        k.sddmm_general(&CombineSpec::Affine { w_src, w_dst });
        put("loss/affine".into(), k.sq_loss_local());

        // The ALS / GAT R pipeline on raw dots.
        k.sddmm_general(&CombineSpec::Dot);
        put("loss/dot".into(), k.sq_loss_local());
        hashes.push(triplet_hash(&k.export_r().expect("sddmm_general stores R")));
        k.map_r(&mut |v| 1.0 + v * v);
        let sums = k.r_row_sums(comm, Phase::OutsideComm);
        let inv: Vec<f64> = sums
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
            .collect();
        k.scale_r_rows(&inv);
        let hw = k.b_iterate();
        put("chain/spmm_a_with".into(), sq(&k.spmm_a_with(&hw)));
        put("chain/spmm_b_r".into(), sq(&k.spmm_b(true)));
        put("chain/loss".into(), k.sq_loss_local());

        // Labels travel as one string: outcome values must serialize.
        (labels.join("\n"), (vals, hashes))
    });

    let mut table: Table = Vec::new();
    for (i, label) in labels_and_ranks[0].value.0.lines().enumerate() {
        let total: f64 = labels_and_ranks.iter().map(|o| o.value.1 .0[i]).sum();
        table.push((label.to_string(), total.to_bits()));
    }
    for (i, label) in ["export/sddmm", "export/dots"].iter().enumerate() {
        let folded = labels_and_ranks
            .iter()
            .fold(0u64, |h, o| h.rotate_left(7) ^ o.value.1 .1[i]);
        table.push((label.to_string(), folded));
    }
    for ph in Phase::ALL {
        let (mut msgs, mut words, mut modeled) = (0u64, 0u64, 0.0f64);
        for o in &labels_and_ranks {
            let c = o.stats.phase(ph);
            msgs += c.msgs_sent;
            words += c.words_sent;
            modeled += c.modeled_s;
        }
        if msgs != 0 || modeled != 0.0 {
            table.push((format!("{}/msgs", ph.label()), msgs));
            table.push((format!("{}/words", ph.label()), words));
            table.push((format!("{}/modeled_s", ph.label()), modeled.to_bits()));
        }
    }
    table
}

fn check(name: &str, family: Option<AlgorithmFamily>, routing: Routing, expect: &[(&str, u64)]) {
    let got = measure(family, routing);
    let same = got.len() == expect.len()
        && got
            .iter()
            .zip(expect)
            .all(|((gl, gv), (el, ev))| gl == el && gv == ev);
    if same {
        return;
    }
    let mut diff = String::new();
    for (gl, gv) in &got {
        match expect.iter().find(|(el, _)| el == gl) {
            Some((_, ev)) if ev == gv => {}
            Some((_, ev)) => diff.push_str(&format!("  {gl}: {gv:#018x} (expected {ev:#018x})\n")),
            None => diff.push_str(&format!("  {gl}: {gv:#018x} (not in the golden table)\n")),
        }
    }
    let mut dump = String::new();
    for (gl, gv) in &got {
        dump.push_str(&format!("    (\"{gl}\", {gv:#018x}),\n"));
    }
    panic!(
        "{name} ({}): bits or accounting moved\n{diff}\nfull table as measured:\n{dump}",
        routing.label()
    );
}

/// One test per configuration, so they run in parallel and a failure
/// names the configuration.
macro_rules! golden {
    ($($test:ident: $name:literal, $family:expr, $routing:ident, $table:ident;)*) => {$(
        #[test]
        fn $test() {
            check($name, $family, Routing::$routing, $table);
        }
    )*};
}

golden! {
    ds15_dense: "1.5D dense shift", Some(AlgorithmFamily::DenseShift15), Dense, DS15_DENSE;
    ds15_pattern: "1.5D dense shift", Some(AlgorithmFamily::DenseShift15), Pattern, DS15_PATTERN;
    ss15_dense: "1.5D sparse shift", Some(AlgorithmFamily::SparseShift15), Dense, SS15_DENSE;
    ss15_pattern: "1.5D sparse shift", Some(AlgorithmFamily::SparseShift15), Pattern, SS15_PATTERN;
    dr25_dense: "2.5D dense repl", Some(AlgorithmFamily::DenseRepl25), Dense, DR25_DENSE;
    dr25_pattern: "2.5D dense repl", Some(AlgorithmFamily::DenseRepl25), Pattern, DR25_PATTERN;
    sr25_dense: "2.5D sparse repl", Some(AlgorithmFamily::SparseRepl25), Dense, SR25_DENSE;
    sr25_pattern: "2.5D sparse repl", Some(AlgorithmFamily::SparseRepl25), Pattern, SR25_PATTERN;
    baseline_dense: "1D baseline", None, Dense, BASELINE_DENSE;
}

// ---------------------------------------------------------------------
// Golden tables, captured at commit a866392; Propagation rows count
// q − 1 hops per input-lane round, and DS15_DENSE's accounting counts
// rhs_b's input-lane round (see the module doc).
// ---------------------------------------------------------------------

const DS15_DENSE: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af02),
    ("fused_b/No Elision", 0x40508a0e9b24f267),
    ("fused_a/Repl. Reuse", 0x4050b10f9b78af02),
    ("fused_b/Repl. Reuse", 0x40508a0e9b24f267),
    ("fused_a/Local Kernel Fusion", 0x4050b10f9b78af02),
    ("fused_b/Local Kernel Fusion", 0x40508a0e9b24f267),
    ("fused_a/ones", 0x40713b79150914ae),
    ("fused_b/ones", 0x4072175d18dd6b00),
    ("rhs_a", 0x404bd0c954e4b357),
    ("rhs_b", 0x404cb96a76ea0b98),
    ("loss/affine", 0x4065680e5386e200),
    ("loss/dot", 0x4058a2196047771b),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b3),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0x2c1dbeb45a3d4517),
    ("export/dots", 0x498b8d2501581508),
    ("replication/msgs", 0x00000000000000a8),
    ("replication/words", 0x0000000000000fd5),
    ("replication/modeled_s", 0x3f3662dcb2e2afa6),
    ("propagation/msgs", 0x00000000000001e8),
    ("propagation/words", 0x0000000000002f7f),
    ("propagation/modeled_s", 0x3f50463b94d3d193),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3ea219ed15df66b5),
    ("outside-comm/msgs", 0x0000000000000010),
    ("outside-comm/words", 0x0000000000000036),
    ("outside-comm/modeled_s", 0x3f00d0f6bdb80d1b),
];
const DS15_PATTERN: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af02),
    ("fused_b/No Elision", 0x40508a0e9b24f267),
    ("fused_a/ones", 0x40713b79150914ae),
    ("fused_b/ones", 0x4072175d18dd6b00),
    ("rhs_a", 0x404bd0c954e4b357),
    ("rhs_b", 0x404cb96a76ea0b98),
    ("loss/affine", 0x4065680e5386e200),
    ("loss/dot", 0x4058a2196047771b),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b3),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0x2c1dbeb45a3d4517),
    ("export/dots", 0x498b8d2501581508),
    ("replication/msgs", 0x0000000000000078),
    ("replication/words", 0x0000000000000b13),
    ("replication/modeled_s", 0x3f2ff844aa10fb9f),
    ("propagation/msgs", 0x0000000000000188),
    ("propagation/words", 0x0000000000001ddc),
    ("propagation/modeled_s", 0x3f4a1171740dfd47),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e97976945405f6a),
    ("outside-comm/msgs", 0x0000000000000010),
    ("outside-comm/words", 0x0000000000000036),
    ("outside-comm/modeled_s", 0x3f00d0f6bdb80d1b),
    ("pattern-exchange/msgs", 0x0000000000000018),
    ("pattern-exchange/words", 0x00000000000000ab),
    ("pattern-exchange/modeled_s", 0x3f094f94b83d598c),
];
const SS15_DENSE: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af02),
    ("fused_b/No Elision", 0x40508a0e9b24f265),
    ("fused_a/Repl. Reuse", 0x4050b10f9b78af02),
    ("fused_b/Repl. Reuse", 0x40508a0e9b24f265),
    ("fused_a/ones", 0x40713b79150914ae),
    ("fused_b/ones", 0x4072175d18dd6aff),
    ("rhs_a", 0x404bd0c954e4b356),
    ("rhs_b", 0x404cb96a76ea0b97),
    ("loss/affine", 0x4065680e5386e1ff),
    ("loss/dot", 0x4058a2196047771c),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b3),
    ("chain/loss", 0x40248b7925bae473),
    ("export/sddmm", 0xeb5ef0d45a69821d),
    ("export/dots", 0xd25ee38a32bc1264),
    ("replication/msgs", 0x0000000000000078),
    ("replication/words", 0x0000000000000b59),
    ("replication/modeled_s", 0x3f2ffb646321a57b),
    ("propagation/msgs", 0x0000000000000210),
    ("propagation/words", 0x0000000000003ea6),
    ("propagation/modeled_s", 0x3f51aeaf4a16e4c8),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3ea06a8a23363b54),
    ("outside-comm/msgs", 0x0000000000000070),
    ("outside-comm/words", 0x000000000000017a),
    ("outside-comm/modeled_s", 0x3f2d6e6697391932),
];
const SS15_PATTERN: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af02),
    ("fused_b/No Elision", 0x40508a0e9b24f265),
    ("fused_a/ones", 0x40713b79150914ae),
    ("fused_b/ones", 0x4072175d18dd6aff),
    ("rhs_a", 0x404bd0c954e4b356),
    ("rhs_b", 0x404cb96a76ea0b97),
    ("loss/affine", 0x4065680e5386e1ff),
    ("loss/dot", 0x4058a2196047771c),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b3),
    ("chain/loss", 0x40248b7925bae473),
    ("export/sddmm", 0xeb5ef0d45a69821d),
    ("export/dots", 0xd25ee38a32bc1264),
    ("replication/msgs", 0x0000000000000078),
    ("replication/words", 0x0000000000000b59),
    ("replication/modeled_s", 0x3f2ffb646321a57b),
    ("propagation/msgs", 0x00000000000001a0),
    ("propagation/words", 0x000000000000315c),
    ("propagation/modeled_s", 0x3f4bdd15e6356f73),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e99dfded0150dd3),
    ("outside-comm/msgs", 0x0000000000000070),
    ("outside-comm/words", 0x000000000000017a),
    ("outside-comm/modeled_s", 0x3f2d6e6697391932),
    ("pattern-exchange/msgs", 0x0000000000000010),
    ("pattern-exchange/words", 0x0000000000000178),
    ("pattern-exchange/modeled_s", 0x3f010a163ee8c171),
];
const DR25_DENSE: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af01),
    ("fused_b/No Elision", 0x40508a0e9b24f266),
    ("fused_a/Repl. Reuse", 0x4050b10f9b78af01),
    ("fused_b/Repl. Reuse", 0x40508a0e9b24f266),
    ("fused_a/ones", 0x40713b79150914af),
    ("fused_b/ones", 0x4072175d18dd6aff),
    ("rhs_a", 0x404bd0c954e4b355),
    ("rhs_b", 0x404cb96a76ea0b99),
    ("loss/affine", 0x4065680e5386e1ff),
    ("loss/dot", 0x4058a2196047771c),
    ("chain/spmm_a_with", 0x403c418caa818fe7),
    ("chain/spmm_b_r", 0x403a90a5634132b4),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0xaff162a7118285e9),
    ("export/dots", 0xd1d217e3cf073b85),
    ("replication/msgs", 0x0000000000000078),
    ("replication/words", 0x0000000000000b4b),
    ("replication/modeled_s", 0x3f2ffac471518383),
    ("propagation/msgs", 0x00000000000001b8),
    ("propagation/words", 0x0000000000002f7f),
    ("propagation/modeled_s", 0x3f4d6983617ee20e),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e9ee01d3d23e129),
    ("outside-comm/msgs", 0x0000000000000068),
    ("outside-comm/words", 0x00000000000000f3),
    ("outside-comm/modeled_s", 0x3f2b4eeccb6586a6),
];
const DR25_PATTERN: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af01),
    ("fused_b/No Elision", 0x40508a0e9b24f266),
    ("fused_a/ones", 0x40713b79150914af),
    ("fused_b/ones", 0x4072175d18dd6aff),
    ("rhs_a", 0x404bd0c954e4b355),
    ("rhs_b", 0x404cb96a76ea0b99),
    ("loss/affine", 0x4065680e5386e1ff),
    ("loss/dot", 0x4058a2196047771c),
    ("chain/spmm_a_with", 0x403c418caa818fe7),
    ("chain/spmm_b_r", 0x403a90a5634132b4),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0xaff162a7118285e9),
    ("export/dots", 0xd1d217e3cf073b85),
    ("replication/msgs", 0x0000000000000078),
    ("replication/words", 0x0000000000000b4b),
    ("replication/modeled_s", 0x3f2ffac471518383),
    ("propagation/msgs", 0x0000000000000158),
    ("propagation/words", 0x000000000000243c),
    ("propagation/modeled_s", 0x3f46fcf61a2c05d4),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e985a3b1e31eee3),
    ("outside-comm/msgs", 0x0000000000000068),
    ("outside-comm/words", 0x00000000000000f3),
    ("outside-comm/modeled_s", 0x3f2b4eeccb6586a6),
    ("pattern-exchange/msgs", 0x0000000000000010),
    ("pattern-exchange/words", 0x00000000000000b4),
    ("pattern-exchange/modeled_s", 0x3f00e93dbb0659c0),
];
const SR25_DENSE: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af03),
    ("fused_b/No Elision", 0x40508a0e9b24f265),
    ("fused_a/ones", 0x40713b79150914af),
    ("fused_b/ones", 0x4072175d18dd6b00),
    ("rhs_a", 0x404bd0c954e4b356),
    ("rhs_b", 0x404cb96a76ea0b99),
    ("loss/affine", 0x4065680e5386e200),
    ("loss/dot", 0x4058a2196047771b),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b2),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0x9d54f1b646989421),
    ("export/dots", 0xe486cca8a15c2e24),
    ("replication/msgs", 0x0000000000000098),
    ("replication/words", 0x0000000000000603),
    ("replication/modeled_s", 0x3f340f09d4de47d9),
    ("propagation/msgs", 0x0000000000000130),
    ("propagation/words", 0x0000000000001d18),
    ("propagation/modeled_s", 0x3f444b3da26c35e5),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e99dfded0150dd0),
    ("outside-comm/msgs", 0x0000000000000010),
    ("outside-comm/words", 0x000000000000006c),
    ("outside-comm/modeled_s", 0x3f00daf5daba2cab),
];
const SR25_PATTERN: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af03),
    ("fused_b/No Elision", 0x40508a0e9b24f265),
    ("fused_a/ones", 0x40713b79150914af),
    ("fused_b/ones", 0x4072175d18dd6b00),
    ("rhs_a", 0x404bd0c954e4b356),
    ("rhs_b", 0x404cb96a76ea0b99),
    ("loss/affine", 0x4065680e5386e200),
    ("loss/dot", 0x4058a2196047771b),
    ("chain/spmm_a_with", 0x403c418caa818fe6),
    ("chain/spmm_b_r", 0x403a90a5634132b2),
    ("chain/loss", 0x40248b7925bae474),
    ("export/sddmm", 0x9d54f1b646989421),
    ("export/dots", 0xe486cca8a15c2e24),
    ("replication/msgs", 0x0000000000000098),
    ("replication/words", 0x0000000000000603),
    ("replication/modeled_s", 0x3f340f09d4de47d9),
    ("propagation/msgs", 0x0000000000000130),
    ("propagation/words", 0x0000000000001cca),
    ("propagation/modeled_s", 0x3f444a8120db7b93),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e99dfded0150dd0),
    ("outside-comm/msgs", 0x0000000000000010),
    ("outside-comm/words", 0x000000000000006c),
    ("outside-comm/modeled_s", 0x3f00daf5daba2cab),
    ("pattern-exchange/msgs", 0x0000000000000010),
    ("pattern-exchange/words", 0x0000000000000168),
    ("pattern-exchange/modeled_s", 0x3f010a163ee8c172),
];
const BASELINE_DENSE: &[(&str, u64)] = &[
    ("fused_a/No Elision", 0x4050b10f9b78af02),
    ("fused_b/No Elision", 0x40508a0e9b24f266),
    ("fused_a/ones", 0x40713b79150914ae),
    ("fused_b/ones", 0x4072175d18dd6b01),
    ("rhs_a", 0x404bd0c954e4b357),
    ("rhs_b", 0x404cb96a76ea0b98),
    ("loss/affine", 0x4065680e5386e200),
    ("loss/dot", 0x4058a2196047771c),
    ("chain/spmm_a_with", 0x403c418caa818fe5),
    ("chain/spmm_b_r", 0x403a90a5634132b3),
    ("chain/loss", 0x40248b7925bae475),
    ("export/sddmm", 0xd9f62407e8504256),
    ("export/dots", 0xa69c11b21aebd6ef),
    ("propagation/msgs", 0x0000000000000380),
    ("propagation/words", 0x00000000000019aa),
    ("propagation/modeled_s", 0x3f5d911c155f0ac7),
    ("computation/msgs", 0x0000000000000000),
    ("computation/words", 0x0000000000000000),
    ("computation/modeled_s", 0x3e97976945405f6a),
    ("setup/msgs", 0x0000000000000070),
    ("setup/words", 0x0000000000000079),
    ("setup/modeled_s", 0x3f2d6400a7e8085f),
];
