//! Trait-conformance suite: one parameterized scenario — SDDMM, then a
//! softmax-style R manipulation, then FusedMM, then gather — driven
//! through `dyn DistKernel` across all four algorithm families **and**
//! the 1D baseline, asserting cross-kernel agreement with the
//! shared-memory reference kernels.
//!
//! This is the contract the API redesign rests on: every kernel behind
//! the trait object must be interchangeable for application code.

use std::sync::Arc;

use distributed_sparse_kernels::kernels as kern;
use distributed_sparse_kernels::prelude::*;

/// Every kernel configuration the suite runs: the four families at a
/// valid (p = 8, c) plus the baseline.
fn scenarios(prob: &Arc<GlobalProblem>) -> Vec<(&'static str, KernelBuilder<'static>, Elision)> {
    vec![
        (
            "1.5D dense shift",
            KernelBuilder::from_arc(Arc::clone(prob))
                .family(AlgorithmFamily::DenseShift15)
                .replication(2),
            Elision::LocalKernelFusion,
        ),
        (
            "1.5D sparse shift",
            KernelBuilder::from_arc(Arc::clone(prob))
                .family(AlgorithmFamily::SparseShift15)
                .replication(2),
            Elision::ReplicationReuse,
        ),
        (
            "2.5D dense repl",
            KernelBuilder::from_arc(Arc::clone(prob))
                .family(AlgorithmFamily::DenseRepl25)
                .replication(2),
            Elision::ReplicationReuse,
        ),
        (
            "2.5D sparse repl",
            KernelBuilder::from_arc(Arc::clone(prob))
                .family(AlgorithmFamily::SparseRepl25)
                .replication(2),
            Elision::None,
        ),
        (
            "1D baseline",
            KernelBuilder::from_arc(Arc::clone(prob)).baseline(),
            Elision::None,
        ),
    ]
}

const P: usize = 8;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-6 * b.abs().max(1.0)
}

/// SDDMM through the trait object: gathered R must equal the serial
/// reference for every kernel, on both the typed in-process backend and
/// the serialized wire backend (same program, byte-identical results —
/// the backends may differ in realization only).
#[test]
fn sddmm_gathers_identically_across_kernels_and_backends() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(26, 22, 7, 3, 4001));
    let expect = prob.reference_sddmm().to_coo().to_dense();
    for backend in BackendKind::conformance_with_env() {
        for (name, builder, _) in scenarios(&prob) {
            let expect = expect.clone();
            let world = SimWorld::new(P, MachineModel::bandwidth_only()).backend(backend);
            let out = world.run(move |comm| {
                let mut worker = builder.build(comm);
                let k: &mut dyn DistKernel = worker.kernel_mut();
                k.sddmm();
                k.gather_r(comm)
            });
            let got = out[0].value.as_ref().unwrap().to_dense();
            for (g, e) in got.iter().zip(&expect) {
                assert!(
                    (g - e).abs() < 1e-9,
                    "SDDMM mismatch for {name} on {}",
                    backend.label()
                );
            }
        }
    }
}

/// The full scenario: generalized SDDMM → map/row-sum/scale (the GAT
/// softmax plumbing) → R-valued SpMM → FusedMM — every step through
/// `dyn DistKernel`, fingerprinted against a serial computation.
#[test]
fn full_scenario_agrees_across_kernels() {
    let (m, n, r) = (24, 24, 6);
    let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 4002));

    // Serial reference of the same pipeline.
    let (expect_conv_sq, expect_fused_sq) = {
        let s = prob.s_csr();
        // exp(dot) then row normalization, like a softmax.
        let mut vals = kern::reference::sddmm_ref(&s, &prob.a, &prob.b);
        for v in vals.iter_mut() {
            *v = (*v).exp();
        }
        let indptr = s.indptr();
        for i in 0..m {
            let sum: f64 = vals[indptr[i]..indptr[i + 1]].iter().sum();
            if sum > 0.0 {
                for v in &mut vals[indptr[i]..indptr[i + 1]] {
                    *v /= sum;
                }
            }
        }
        let mut alpha = s.clone();
        alpha.set_vals(vals);
        let mut conv = distributed_sparse_kernels::dense::Mat::zeros(m, r);
        kern::spmm_csr_acc(&mut conv, &alpha, &prob.b);
        let conv_sq: f64 = conv.as_slice().iter().map(|v| v * v).sum();
        let fused = prob.reference_fused_b();
        let fused_sq: f64 = fused.as_slice().iter().map(|v| v * v).sum();
        (conv_sq, fused_sq)
    };

    for (name, builder, elision) in scenarios(&prob) {
        let world = SimWorld::new(P, MachineModel::bandwidth_only());
        let out = world.run(move |comm| {
            let mut worker = builder.build(comm);
            let k: &mut dyn DistKernel = worker.kernel_mut();

            // Sampled SDDMM, then a softmax-style normalization over R
            // (exponentiate, row-sum with whatever reduction the
            // kernel's distribution needs, scale).
            k.sddmm();
            k.map_r(&mut |v| v.exp());
            let sums = k.r_row_sums(comm, Phase::OutsideComm);
            let inv: Vec<f64> = sums
                .iter()
                .map(|&s| if s > 0.0 { 1.0 / s } else { 0.0 })
                .collect();
            k.scale_r_rows(&inv);

            // Convolution with the normalized R against the B iterate.
            let hw = k.b_iterate();
            let conv = k.spmm_a_with(&hw);
            let conv_sq: f64 = conv.as_slice().iter().map(|v| v * v).sum();

            // FusedMM after the R manipulation (operands untouched).
            let fused = k.fused_mm_b(None, elision, Sampling::Values);
            let fused_sq: f64 = fused.as_slice().iter().map(|v| v * v).sum();
            (conv_sq, fused_sq)
        });
        let conv_sq: f64 = out.iter().map(|o| o.value.0).sum();
        let fused_sq: f64 = out.iter().map(|o| o.value.1).sum();
        assert!(
            close(conv_sq, expect_conv_sq),
            "{name}: convolution ‖·‖² {conv_sq} vs {expect_conv_sq}"
        );
        assert!(
            close(fused_sq, expect_fused_sq),
            "{name}: FusedMMB ‖·‖² {fused_sq} vs {expect_fused_sq}"
        );
    }
}

/// Regression for the R-valued SpMMB: `Rᵀ·A` must agree with the serial
/// reference for every kernel — most importantly the 1D baseline, whose
/// R values live in the `S` orientation and must be redistributed into
/// the `Sᵀ` orientation first (this used to be a documented panic).
/// Runs over both communication backends: the redistribution is
/// all-to-all heavy, exactly the traffic the wire path must encode.
#[test]
fn r_valued_spmm_b_agrees_across_kernels_and_backends() {
    let (m, n, r) = (24, 22, 5);
    let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 4005));
    // Serial reference: R = SDDMM(A, B) sampled by S, then Rᵀ·A.
    let expect_sq: f64 = {
        let rt = prob.reference_sddmm().transpose();
        let mut out = distributed_sparse_kernels::dense::Mat::zeros(n, r);
        kern::spmm_csr_acc(&mut out, &rt, &prob.a);
        out.as_slice().iter().map(|v| v * v).sum()
    };
    for backend in BackendKind::conformance_with_env() {
        for (name, builder, _) in scenarios(&prob) {
            let world = SimWorld::new(P, MachineModel::bandwidth_only()).backend(backend);
            let out = world.run(move |comm| {
                let mut worker = builder.build(comm);
                let k: &mut dyn DistKernel = worker.kernel_mut();
                k.sddmm();
                let local = k.spmm_b(true);
                local.as_slice().iter().map(|v| v * v).sum::<f64>()
            });
            let got: f64 = out.iter().map(|o| o.value).sum();
            assert!(
                close(got, expect_sq),
                "{name} on {}: Rᵀ·A ‖·‖² {got} vs {expect_sq}",
                backend.label()
            );
        }
    }
}

/// The iterate surface: `a_iterate`/`set_a` round-trip and the declared
/// iterate layouts tile the global matrix exactly once, for every
/// kernel.
#[test]
fn iterate_layouts_tile_and_roundtrip() {
    let (m, n, r) = (25, 30, 5);
    let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 4003));
    for (name, builder, _) in scenarios(&prob) {
        let world = SimWorld::new(P, MachineModel::bandwidth_only());
        let out = world.run(move |comm| {
            let mut worker = builder.build(comm);
            let k: &mut dyn DistKernel = worker.kernel_mut();
            // Layout descriptors must match the actual iterate shapes.
            let la = k.a_iterate_layout_of(comm.rank());
            let a = k.a_iterate();
            assert_eq!(a.nrows(), la.local_rows());
            assert_eq!(a.ncols(), la.width());
            // All ranks' A-iterate layouts tile m × r exactly once.
            let mut cells = 0usize;
            for g in 0..comm.size() {
                let l = k.a_iterate_layout_of(g);
                cells += l.local_rows() * l.width();
            }
            assert_eq!(cells, m * r, "A iterate layouts must tile A");
            // set/get round-trip.
            k.set_a(comm, &a);
            let a2 = k.a_iterate();
            distributed_sparse_kernels::dense::ops::max_abs_diff(&a, &a2)
        });
        for o in &out {
            assert!(o.value < 1e-12, "{name}: iterate round-trip changed data");
        }
    }
}

/// Live-migration round trip: build each of the five kernels, run one
/// fused iteration plus an SDDMM, then migrate the session to every
/// other admissible family — iterates, R values, and the squared loss
/// must survive identically (tolerance only for the float dust of a
/// different summation order), under all three communication backends.
///
/// This is the contract adaptive sessions rest on: a migration may
/// change the *distribution* of the application state, never its
/// *value*.
#[test]
fn migration_round_trips_state_across_all_kernels_and_backends() {
    use distributed_sparse_kernels::core::layout::gather_dense;
    use distributed_sparse_kernels::core::session::Session;
    use distributed_sparse_kernels::core::theory::Algorithm;

    let (m, n, r) = (24usize, 24usize, 6usize);
    let prob = Arc::new(GlobalProblem::erdos_renyi(m, n, r, 3, 4006));
    let sources: Vec<(&'static str, Option<AlgorithmFamily>)> = vec![
        ("1.5D dense shift", Some(AlgorithmFamily::DenseShift15)),
        ("1.5D sparse shift", Some(AlgorithmFamily::SparseShift15)),
        ("2.5D dense repl", Some(AlgorithmFamily::DenseRepl25)),
        ("2.5D sparse repl", Some(AlgorithmFamily::SparseRepl25)),
        ("1D baseline", None),
    ];
    let target_alg = |family: AlgorithmFamily| match family {
        AlgorithmFamily::SparseRepl25 => Algorithm::new(family, Elision::None),
        _ => Algorithm::new(family, Elision::ReplicationReuse),
    };
    // All three backends: delay injection changes timing, not
    // semantics, but migration is all-to-all heavy — exactly the
    // traffic the wire paths must encode and delay correctly.
    let mut backends = vec![
        BackendKind::InProc,
        BackendKind::Wire,
        BackendKind::WireDelay,
    ];
    // Plus the environment-selected backend (the socket CI leg runs
    // live migration across real process boundaries).
    let env = BackendKind::from_env();
    if !backends.contains(&env) {
        backends.push(env);
    }
    for backend in backends {
        for (src_name, src_family) in &sources {
            for dst in AlgorithmFamily::ALL {
                if *src_family == Some(dst) {
                    continue;
                }
                let pr = Arc::clone(&prob);
                let src_family = *src_family;
                // cori-like constants keep the wire-delay injected
                // sleeps at µs scale.
                let world = SimWorld::new(P, MachineModel::cori_knl()).backend(backend);
                let out = world.run(move |comm| {
                    let builder = Session::builder_arc(Arc::clone(&pr));
                    let builder = match src_family {
                        Some(f) => builder.family(f).replication(2),
                        None => builder.baseline(),
                    };
                    let mut s = builder.build(comm);
                    // One fused iteration, then a known R state.
                    let _ = s.fused_mm_b(None, Sampling::Values);
                    s.worker_mut().sddmm();

                    let snapshot = |s: &Session, comm: &Comm| {
                        let k = s.worker().kernel();
                        let a = gather_dense(
                            comm,
                            0,
                            &s.a_iterate(),
                            |g| k.a_iterate_layout_of(g),
                            m,
                            r,
                        );
                        let b = gather_dense(
                            comm,
                            0,
                            &s.b_iterate(),
                            |g| k.b_iterate_layout_of(g),
                            n,
                            r,
                        );
                        let rr = k.gather_r(comm).map(|c| c.to_dense());
                        (a, b, rr, s.stored_loss())
                    };
                    let before = snapshot(&s, comm);
                    s.migrate(target_alg(dst), 2);
                    assert_eq!(s.worker().family(), Some(dst));
                    let after = snapshot(&s, comm);
                    (before, after)
                });
                let (before, after) = &out[0].value;
                let close = |x: &Option<distributed_sparse_kernels::dense::Mat>,
                             y: &Option<distributed_sparse_kernels::dense::Mat>|
                 -> f64 {
                    distributed_sparse_kernels::dense::ops::max_abs_diff(
                        x.as_ref().unwrap(),
                        y.as_ref().unwrap(),
                    )
                };
                let ctx = format!("{src_name} → {dst:?} on {}", backend.label());
                assert!(close(&before.0, &after.0) < 1e-12, "{ctx}: A iterate moved");
                assert!(close(&before.1, &after.1) < 1e-12, "{ctx}: B iterate moved");
                let (r_before, r_after) = (before.2.as_ref().unwrap(), after.2.as_ref().unwrap());
                for (x, y) in r_before.iter().zip(r_after) {
                    assert!((x - y).abs() < 1e-12, "{ctx}: R values moved");
                }
                assert!(
                    (before.3 - after.3).abs() <= 1e-9 * before.3.abs().max(1.0),
                    "{ctx}: loss discontinuity {} vs {}",
                    before.3,
                    after.3
                );
            }
        }
    }
}

/// The PR's pipeline contract: pipelined and blocking shift execution
/// must be indistinguishable to the byte — identical output bits on
/// every rank and identical modeled counters — for every kernel, every
/// conformance backend, and both routings. Only wall/stall clocks may
/// differ: the pipeline changes *when* blocks move, never what arrives
/// or what is charged.
#[test]
fn pipelined_and_blocking_shifts_agree_bitwise() {
    use distributed_sparse_kernels::comm::RankStats;
    use distributed_sparse_kernels::core::ShiftMode;

    fn fingerprint(stats: &RankStats) -> Vec<(u64, u64, u64, u64, u64, u64, u64)> {
        Phase::ALL
            .iter()
            .map(|&ph| {
                let c = stats.phase(ph);
                (
                    c.msgs_sent,
                    c.words_sent,
                    c.msgs_recv,
                    c.words_recv,
                    c.wire_bytes_sent,
                    c.flops,
                    c.modeled_s.to_bits(),
                )
            })
            .collect()
    }

    let prob = Arc::new(GlobalProblem::erdos_renyi(24, 22, 5, 3, 4007));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let configs: Vec<(&'static str, Option<AlgorithmFamily>, Elision)> = vec![
        (
            "1.5D dense shift",
            Some(AlgorithmFamily::DenseShift15),
            Elision::LocalKernelFusion,
        ),
        (
            "1.5D sparse shift",
            Some(AlgorithmFamily::SparseShift15),
            Elision::ReplicationReuse,
        ),
        (
            "2.5D dense repl",
            Some(AlgorithmFamily::DenseRepl25),
            Elision::ReplicationReuse,
        ),
        (
            "2.5D sparse repl",
            Some(AlgorithmFamily::SparseRepl25),
            Elision::None,
        ),
        ("1D baseline", None, Elision::None),
    ];
    for backend in BackendKind::conformance_with_env() {
        for routing in [Routing::Dense, Routing::Pattern] {
            for &(name, family, elision) in &configs {
                if family.is_none() && routing == Routing::Pattern {
                    // The baseline has no shift schedule to pattern-route.
                    continue;
                }
                let run = |mode: ShiftMode| {
                    let builder = match family {
                        Some(f) => KernelBuilder::from_staged(&staged).family(f).replication(2),
                        None => KernelBuilder::from_staged(&staged).baseline(),
                    }
                    .routing(routing);
                    let world = SimWorld::new(P, MachineModel::bandwidth_only()).backend(backend);
                    world.run(move |comm| {
                        let _g = ShiftMode::scoped(mode);
                        let mut worker = builder.build(comm);
                        let y = worker.fused_mm_b(None, elision, Sampling::Values);
                        y.as_slice()
                            .iter()
                            .map(|v| v.to_bits())
                            .collect::<Vec<u64>>()
                    })
                };
                let a = run(ShiftMode::Pipelined);
                let b = run(ShiftMode::Blocking);
                for (oa, ob) in a.iter().zip(&b) {
                    assert_eq!(
                        oa.value,
                        ob.value,
                        "{name} ({}) on {}: output bits diverged between shift modes",
                        routing.label(),
                        backend.label()
                    );
                    assert_eq!(
                        fingerprint(&oa.stats),
                        fingerprint(&ob.stats),
                        "{name} ({}) on {}: modeled counters diverged between shift modes",
                        routing.label(),
                        backend.label()
                    );
                }
            }
        }
    }
}

/// A pattern-routed worker built on a sub-roster, as `Session::resize`
/// builds them, derives its need rows for its communicator rank, not
/// its world rank. On both halves of a 16-rank world (world ranks
/// `8..16` are members `0..8` of the upper half) every family's
/// FusedMMB bits and pattern-exchange traffic must equal those of the
/// same plan on a standalone 8-rank world. The halves hold 8 ranks, not
/// 4, because a 2.5D grid at `c = 2` needs `p/c` square.
#[test]
fn routed_workers_on_a_sub_roster_match_a_standalone_world() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(24, 22, 5, 3, 4008));
    let staged = Arc::new(StagedProblem::new(prob));
    for family in AlgorithmFamily::ALL {
        let builder = KernelBuilder::from_staged_arc(Arc::clone(&staged))
            .family(family)
            .replication(2)
            .routing(Routing::Pattern);
        let run = |world_p: usize| -> Vec<(Vec<u64>, u64, u64)> {
            let builder = builder.clone();
            let out = SimWorld::new(world_p, MachineModel::bandwidth_only()).run(move |comm| {
                let half = comm.split_by(|g| u64::from(g < P));
                let mut worker = builder.build(&half);
                let y = worker.fused_mm_b(None, Elision::None, Sampling::Values);
                y.as_slice()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            });
            out.into_iter()
                .map(|o| {
                    let x = o.stats.phase(Phase::PatternExchange);
                    (o.value, x.msgs_sent, x.words_sent)
                })
                .collect()
        };
        let alone = run(P);
        assert!(
            alone.iter().all(|(_, msgs, _)| *msgs > 0),
            "{family:?}: no pattern exchange"
        );
        for (g, got) in run(2 * P).iter().enumerate() {
            assert_eq!(
                got,
                &alone[g % P],
                "{family:?}: world rank {g} differs from member {} of a standalone world",
                g % P
            );
        }
    }
}

/// The declared elision support must match what `fused_mm_b` accepts.
#[test]
fn supports_reflects_fused_behavior() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(24, 24, 4, 2, 4004));
    for (name, builder, _) in scenarios(&prob) {
        for elision in Elision::ALL {
            let world = SimWorld::new(P, MachineModel::bandwidth_only());
            let b = builder.clone();
            let out = world.run(move |comm| {
                let mut worker = b.build(comm);
                let supported = worker.supports(elision);
                // Unsupported elisions panic at kernel entry, before
                // any communication, so catching is rank-local.
                let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _ = worker.fused_mm_b(None, elision, Sampling::Values);
                }))
                .is_ok();
                supported == ran
            });
            assert!(
                out.iter().all(|o| o.value),
                "{name}: supports({elision:?}) disagrees with fused_mm_b"
            );
        }
    }
}
