//! Integration: accounting invariants of the simulated runtime that
//! every experiment relies on.

use std::sync::Arc;

use distributed_sparse_kernels::comm::{MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::theory::Algorithm;
use distributed_sparse_kernels::core::worker::DistWorker;
use distributed_sparse_kernels::core::{GlobalProblem, Sampling};

#[test]
fn global_sends_equal_global_receives() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9001));
    for alg in Algorithm::all_benchmarked() {
        let prob2 = Arc::clone(&prob);
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = DistWorker::from_global(comm, alg.family, 2, &prob2);
            let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
        });
        let (mut sent, mut recvd, mut msent, mut mrecvd) = (0u64, 0u64, 0u64, 0u64);
        for o in &out {
            let t = o.stats.total();
            sent += t.words_sent;
            recvd += t.words_recv;
            msent += t.msgs_sent;
            mrecvd += t.msgs_recv;
        }
        assert_eq!(sent, recvd, "{}", alg.label());
        assert_eq!(msent, mrecvd, "{}", alg.label());
        assert!(sent > 0, "{} must communicate at p=8", alg.label());
    }
}

#[test]
fn single_rank_sends_nothing() {
    let prob = Arc::new(GlobalProblem::erdos_renyi(16, 16, 4, 3, 9002));
    for alg in Algorithm::all_benchmarked() {
        if !alg.family.valid_c(1, 1) {
            continue;
        }
        let prob2 = Arc::clone(&prob);
        let world = SimWorld::new(1, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = DistWorker::from_global(comm, alg.family, 1, &prob2);
            let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
        });
        assert_eq!(out[0].stats.total().words_sent, 0, "{}", alg.label());
        assert!(out[0].stats.phase(Phase::Computation).flops > 0);
    }
}

#[test]
fn setup_phase_is_never_charged() {
    // Staging (partitioning, scattering) must not leak into measured
    // phases: a worker that is built but never run reports zero.
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9003));
    let world = SimWorld::new(8, MachineModel::cori_knl());
    let out = world.run(move |comm| {
        use distributed_sparse_kernels::core::AlgorithmFamily;
        let _w = DistWorker::from_global(comm, AlgorithmFamily::DenseShift15, 2, &prob);
    });
    for o in &out {
        let t = o.stats.total(); // total() excludes Setup
        assert_eq!(t.words_sent, 0);
        assert_eq!(t.flops, 0);
        assert_eq!(t.modeled_s, 0.0);
    }
}

#[test]
fn flop_totals_match_kernel_arithmetic() {
    // FusedMM (no elision) = SDDMM + SpMM: 2nnz·r + nnz + 2nnz·r flops
    // in total across ranks, exactly as counted by the kernels crate.
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9004));
    let nnz = prob.nnz();
    let r = prob.dims.r;
    use distributed_sparse_kernels::core::{AlgorithmFamily, Elision};
    let alg = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::None);
    let world = SimWorld::new(8, MachineModel::cori_knl());
    let out = world.run(move |comm| {
        let mut w = DistWorker::from_global(comm, alg.family, 2, &prob);
        let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
    });
    let flops: u64 = out.iter().map(|o| o.stats.total().flops).sum();
    let expect = dsk_expected_fused_flops(nnz, r);
    assert_eq!(flops, expect);
}

fn dsk_expected_fused_flops(nnz: usize, r: usize) -> u64 {
    // sddmm: 2·nnz·r + nnz (sampling multiply); spmm: 2·nnz·r.
    (2 * nnz * r + nnz + 2 * nnz * r) as u64
}

#[test]
fn modeled_time_is_alpha_beta_consistent() {
    // With α = 0 and β = 1, modeled comm time of a pairwise exchange
    // equals max(words in, words out) summed over steps; a world-wide
    // sanity check through a real algorithm.
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9005));
    use distributed_sparse_kernels::core::{AlgorithmFamily, Elision};
    let alg = Algorithm::new(AlgorithmFamily::DenseShift15, Elision::ReplicationReuse);
    let world = SimWorld::new(8, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut w = DistWorker::from_global(comm, alg.family, 2, &prob);
        let _ = w.fused_mm_b(None, alg.elision, Sampling::Values);
    });
    for o in &out {
        // All traffic here is symmetric pairwise exchange, so each
        // rank's modeled seconds equal its words sent.
        let words = o.stats.phase(Phase::Propagation).words_sent as f64
            + o.stats.phase(Phase::Replication).words_sent as f64;
        let modeled = o.stats.modeled_comm_s();
        assert!(
            (modeled - words).abs() < 1e-9 * words.max(1.0),
            "rank {}: modeled {modeled} vs words {words}",
            o.rank
        );
    }
}

#[test]
fn stall_is_measured_only_and_never_enters_modeled_time() {
    // stall_s is an overlap diagnostic read off the wall clock; modeled
    // time is a function of the words alone. A sender that shows up
    // 25 ms late must move the stall bucket and nothing else.
    let run = |delay_ms: u64| {
        let world = SimWorld::new(2, MachineModel::bandwidth_only());
        world.run(move |comm| {
            comm.set_phase(Phase::Propagation);
            if comm.rank() == 0 {
                let h = comm.recv_begin::<Vec<f64>>(1, 11);
                let _ = h.wait();
            } else {
                std::thread::sleep(std::time::Duration::from_millis(delay_ms));
                comm.send(0, 11, vec![1.0f64; 64]);
            }
        })
    };
    let fast = run(0);
    let slow = run(25);
    let (f, s) = (
        fast[0].stats.phase(Phase::Propagation),
        slow[0].stats.phase(Phase::Propagation),
    );
    assert!(
        s.stall_s >= 0.01,
        "a 25 ms late sender must surface as measured stall, got {}",
        s.stall_s
    );
    assert!(f.modeled_s > 0.0, "the receive itself carries modeled cost");
    assert_eq!(
        f.modeled_s.to_bits(),
        s.modeled_s.to_bits(),
        "stall must never leak into modeled time"
    );
    assert_eq!(f.words_recv, s.words_recv);
}

#[test]
fn local_tuning_bucket_carries_no_traffic_and_no_modeled_cost() {
    // No code enters Phase::LocalTuning (each op has one local loop),
    // and the bucket must stay free of traffic and modeled flops
    // whatever a build does.
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9006));
    let world = SimWorld::new(8, MachineModel::cori_knl());
    let out = world.run(move |comm| {
        use distributed_sparse_kernels::core::{AlgorithmFamily, Elision};
        let mut w = DistWorker::from_global(comm, AlgorithmFamily::DenseShift15, 2, &prob);
        let _ = w.fused_mm_b(None, Elision::ReplicationReuse, Sampling::Values);
    });
    for o in &out {
        let t = o.stats.phase(Phase::LocalTuning);
        assert_eq!(t.words_sent, 0, "tuning must not communicate");
        assert_eq!(t.words_recv, 0);
        assert_eq!(t.msgs_sent, 0);
        assert_eq!(t.flops, 0, "tuning microbenches record no modeled flops");
        assert_eq!(t.modeled_s, 0.0);
        let s = o.stats.phase(Phase::Setup);
        assert_eq!(s.flops, 0, "staging records no modeled flops");
        assert_eq!(s.modeled_s, 0.0, "setup is never modeled");
    }
}

/// Building any kernel — every family and the 1D baseline — runs the
/// one local loop per op and measures nothing, so the local-tuning
/// bucket stays empty on every rank: no wall time, no traffic, no
/// modeled cost.
#[test]
fn no_build_enters_the_local_tuning_phase() {
    use distributed_sparse_kernels::core::{AlgorithmFamily, KernelBuilder, StagedProblem};
    let prob = Arc::new(GlobalProblem::erdos_renyi(256, 256, 16, 4, 7101));
    let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
    let mut builders: Vec<KernelBuilder> = AlgorithmFamily::ALL
        .into_iter()
        .map(|f| KernelBuilder::from_staged(&staged).family(f).replication(2))
        .collect();
    builders.push(KernelBuilder::from_staged(&staged).baseline());
    for builder in builders {
        let world = SimWorld::new(8, MachineModel::cori_knl());
        let out = world.run(move |comm| {
            let mut w = builder.build(comm);
            let elision = w.plan().elision;
            let _ = w.fused_mm_b(None, elision, Sampling::Values);
        });
        for o in &out {
            let t = o.stats.phase(Phase::LocalTuning);
            assert_eq!(t.wall_s, 0.0, "a build spent wall time tuning");
            assert_eq!(t.words_sent, 0);
            assert_eq!(t.words_recv, 0);
            assert_eq!(t.msgs_sent, 0);
            assert_eq!(t.msgs_recv, 0);
            assert_eq!(t.flops, 0);
            assert_eq!(t.modeled_s, 0.0);
        }
    }
}

#[test]
fn resize_traffic_lands_in_the_resize_bucket_only() {
    // A pure capacity resize redistributes through Phase::Resize;
    // Phase::Migration keeps meaning same-p kernel migrations and must
    // stay zero.
    use distributed_sparse_kernels::core::session::Session;
    let prob = Arc::new(GlobalProblem::erdos_renyi(32, 32, 8, 4, 9007));
    let world = SimWorld::new(6, MachineModel::bandwidth_only());
    let out = world.run(move |comm| {
        let mut s = Session::builder_arc(Arc::clone(&prob))
            .baseline()
            .active_ranks(4)
            .build(comm);
        if s.is_active() {
            s.worker_mut().sddmm();
        }
        s.resize(6);
        s.stats()
    });
    let resize_words: u64 = out
        .iter()
        .map(|o| o.value.phase(Phase::Resize).words_sent)
        .sum();
    let migration_words: u64 = out
        .iter()
        .map(|o| o.value.phase(Phase::Migration).words_sent)
        .sum();
    assert!(resize_words > 0, "growing 4→6 must move rows over the wire");
    assert_eq!(migration_words, 0, "a pure resize is not a migration");
}

#[test]
fn watchdog_catches_mismatched_protocols() {
    // A rank that receives a message nobody sent must fail loudly, not
    // hang (failure-injection requirement from DESIGN.md).
    let world = SimWorld::new(2, MachineModel::cori_knl())
        .with_recv_timeout(std::time::Duration::from_millis(100));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = world.run(|comm| {
            if comm.rank() == 0 {
                let _: Vec<f64> = comm.recv(1, 42); // never sent
            }
        });
    }));
    assert!(result.is_err(), "mismatched receive must panic");
}
