//! Single-layer meters: each times public calls of one crate on the
//! workload's own shapes, from outside the program.

use std::hint::black_box;
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

use distributed_sparse_kernels::comm::frame::{read_frame, Frame};
use distributed_sparse_kernels::comm::transport::Mailbox;
use distributed_sparse_kernels::comm::WirePayload;
use distributed_sparse_kernels::kernels::{
    fused_a_csr, fused_flops, sddmm_csr_acc, sddmm_flops, spmm_csr_acc, spmm_csr_t_acc, spmm_flops,
};
use distributed_sparse_kernels::prelude::*;
use distributed_sparse_kernels::sparse::{CooMatrix, CsrMatrix};

use crate::epoch::{timed, Engine};
use crate::inputs::{Inputs, Spec, P};
use crate::measure::{metric, takes_part, Metric};
use crate::stat::median;

/// Median wall seconds of `f` over repetitions filling about
/// `budget_s` (at least three), after one untimed call.
fn median_secs(budget_s: f64, mut f: impl FnMut()) -> f64 {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// Size of the largest cache `cpu0` reports, in bytes.
pub fn llc_bytes() -> usize {
    let dir = "/sys/devices/system/cpu/cpu0/cache";
    let parse = |s: &str| {
        let s = s.trim();
        let (digits, mult) = match s.as_bytes().last() {
            Some(b'K') => (&s[..s.len() - 1], 1 << 10),
            Some(b'M') => (&s[..s.len() - 1], 1 << 20),
            _ => (s, 1),
        };
        digits.parse::<usize>().ok().map(|n| n * mult)
    };
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| std::fs::read_to_string(e.path().join("size")).ok())
        .filter_map(|s| parse(&s))
        .max()
        // Unknown: assume a large server cache, so the arrays err long.
        .unwrap_or(32 << 20)
}

/// `dsk_kernels` entry points on rows `[0, m/p)` of the workload's S,
/// against the stream bound measured in the same run.
pub fn kernels(inputs: &Inputs) -> Vec<Metric> {
    let prob = &*inputs.prob;
    let (m, n, r) = (prob.dims.m, prob.dims.n, prob.dims.r);
    let rows = m / P;
    let s = CsrMatrix::from_coo(&prob.s.extract_block(0..rows, 0..n));
    let a = prob.a.rows_block(0..rows);
    let b = &prob.b;
    let nnz = s.nnz();
    let gflops = |flops: u64, secs: f64| flops as f64 / secs / 1e9;
    let budget = 0.25;

    let mut out_a = Mat::zeros(rows, r);
    let spmm = median_secs(budget, || {
        out_a.fill_zero();
        spmm_csr_acc(&mut out_a, &s, b);
    });
    let mut out_b = Mat::zeros(n, r);
    let spmm_t = median_secs(budget, || {
        out_b.fill_zero();
        spmm_csr_t_acc(&mut out_b, &s, &a);
    });
    let mut acc = vec![0.0; nnz];
    let sddmm = median_secs(budget, || {
        acc.fill(0.0);
        sddmm_csr_acc(&mut acc, &s, &a, b);
    });
    let fused = median_secs(budget, || {
        out_a.fill_zero();
        fused_a_csr(&mut out_a, &s, &a, b);
    });
    black_box((&out_a, &out_b, &acc));

    // Stream bound: copy between two arrays, each at least four times
    // the last-level cache; bytes moved = read + write.
    let llc = llc_bytes();
    let words = 4 * llc / 8;
    let src = vec![1.0f64; words];
    let mut dst = vec![0.0f64; words];
    let copy = median_secs(budget, || dst.copy_from_slice(black_box(&src)));
    black_box(&dst);
    let stream_gbs = 2.0 * (words * 8) as f64 / copy / 1e9;
    println!(
        "# kernels.stream_gbs copies {} MiB arrays; last-level cache {} MiB",
        (words * 8) >> 20,
        llc >> 20
    );

    // Computed from array sizes (cache misses ignored): CSR structure
    // and values, one A row and one output row per S row, one B row
    // read per nonzero for each of the two passes.
    let bytes = (8 * (rows + 1) + 12 * nnz) + 2 * 8 * rows * r + 2 * 8 * nnz * r;
    let flops = fused_flops(nnz, r);
    let bytes_per_flop = bytes as f64 / flops as f64;
    let fused_gflops = gflops(flops, fused);
    vec![
        metric(
            "kernels.spmm_gflops",
            gflops(spmm_flops(nnz, r), spmm),
            "GFLOP/s",
        ),
        metric(
            "kernels.spmm_t_gflops",
            gflops(spmm_flops(nnz, r), spmm_t),
            "GFLOP/s",
        ),
        metric(
            "kernels.sddmm_gflops",
            gflops(sddmm_flops(nnz, r), sddmm),
            "GFLOP/s",
        ),
        metric("kernels.fused_gflops", fused_gflops, "GFLOP/s"),
        metric("kernels.stream_gbs", stream_gbs, "GB/s"),
        metric("kernels.fused_bytes_per_flop", bytes_per_flop, "B/FLOP"),
        metric(
            "kernels.fused_roofline_frac",
            fused_gflops / (stream_gbs / bytes_per_flop),
            "frac",
        ),
    ]
}

/// `WirePayload::encode` / `decode` of the workload's dense tile and
/// sparse block, and `CsrMatrix::from_coo` of all of S.
pub fn codecs(inputs: &Inputs) -> Vec<Metric> {
    fn gbs<T: WirePayload>(value: &T) -> (f64, f64) {
        let mut buf = Vec::new();
        let enc = median_secs(0.1, || {
            buf.clear();
            value.encode(&mut buf);
        });
        let dec = median_secs(0.1, || {
            black_box(T::from_wire(&buf));
        });
        (buf.len() as f64 / enc / 1e9, buf.len() as f64 / dec / 1e9)
    }
    let prob = &*inputs.prob;
    let tile = prob.b.rows_block(0..prob.dims.n / P);
    let coo: CooMatrix = prob.s.extract_block(0..prob.dims.m / P, 0..prob.dims.n);
    let csr = CsrMatrix::from_coo(&coo);
    let build = median_secs(0.1, || {
        black_box(CsrMatrix::from_coo(&prob.s));
    });
    let (mat_enc, mat_dec) = gbs(&tile);
    let (csr_enc, csr_dec) = gbs(&csr);
    let (coo_enc, coo_dec) = gbs(&coo);
    vec![
        metric("dense.mat_encode_gbs", mat_enc, "GB/s"),
        metric("dense.mat_decode_gbs", mat_dec, "GB/s"),
        metric("sparse.csr_encode_gbs", csr_enc, "GB/s"),
        metric("sparse.csr_decode_gbs", csr_dec, "GB/s"),
        metric("sparse.coo_encode_gbs", coo_enc, "GB/s"),
        metric("sparse.coo_decode_gbs", coo_dec, "GB/s"),
        metric("sparse.csr_build_ms", 1e3 * build, "ms"),
    ]
}

/// The transport's building blocks, no world: a two-thread `Mailbox`
/// ping-pong and the socket frame codec over an in-memory cursor.
pub fn transport() -> Vec<Metric> {
    const ROUNDS: u32 = 20_000;
    let mailbox: Mailbox<u32> = Mailbox::new(2, Duration::from_secs(60));
    let key = |src: usize| (src, 0u64, 0u32);
    let roundtrip = std::thread::scope(|scope| {
        scope.spawn(|| {
            for _ in 0..ROUNDS {
                let v = mailbox.take(1, key(0));
                mailbox.post(0, key(1), v);
            }
        });
        let t = Instant::now();
        for i in 0..ROUNDS {
            mailbox.post(1, key(0), i);
            black_box(mailbox.take(0, key(1)));
        }
        t.elapsed().as_secs_f64() / f64::from(ROUNDS)
    });

    let frame = Frame::data(1, 7, 3, vec![0x5A; 1 << 20]);
    let secs = median_secs(0.1, || {
        let bytes = frame.to_bytes();
        black_box(read_frame(&mut Cursor::new(&bytes)).expect("frame round-trips"));
    });
    vec![
        metric("comm.mailbox_roundtrip_us", 1e6 * roundtrip, "us"),
        metric(
            "comm.frame_gbs",
            frame.payload.len() as f64 / secs / 1e9,
            "GB/s",
        ),
    ]
}

/// 4-rank `SimWorld::run` loops on one backend: what a message, a
/// large tile, and each collective cost once a world is up, and what
/// bringing the world up costs.
///
/// Every process of a socket world runs this (spawned ranks re-execute
/// `main`); only the launcher gets metrics back.
pub fn world_loops(backend: BackendKind) -> Vec<Metric> {
    if !takes_part(backend) {
        return Vec::new();
    }
    let label = backend.label();
    let world = || SimWorld::new(P, MachineModel::cori_knl()).backend(backend);
    let empty = || {
        let t = Instant::now();
        black_box(world().run(|_| 0u64));
        t.elapsed().as_secs_f64()
    };
    // First epoch: thread spawn, or process spawn plus rendezvous.
    let spawn_s = empty();
    let epoch_s = median(&(0..5).map(|_| empty()).collect::<Vec<_>>());

    let out = world().run(|comm| {
        let me = comm.rank();
        let mut res = Vec::new();
        let mut per_iter = |iters: usize, f: &mut dyn FnMut()| {
            f();
            let (_, s) = timed(comm, || (0..iters).for_each(|_| f()));
            res.push(s / iters as f64);
        };
        // 8-byte ping-pong between ranks 0 and 1.
        per_iter(2000, &mut || match me {
            0 => {
                comm.send(1, 1, 7u64);
                black_box(comm.recv::<u64>(1, 2));
            }
            1 => {
                let v: u64 = comm.recv(0, 1);
                comm.send(0, 2, v);
            }
            _ => {}
        });
        // 4 MiB dense tile, there and back.
        let mut tile = Some(Mat::zeros(2048, 256));
        per_iter(8, &mut || match me {
            0 => {
                comm.send(1, 3, tile.take().expect("tile in hand"));
                tile = Some(comm.recv(1, 4));
            }
            1 => {
                let t: Mat = comm.recv(0, 3);
                comm.send(0, 4, t);
            }
            _ => {}
        });
        per_iter(500, &mut || comm.barrier());
        let mut buf = vec![1.0f64; 64];
        per_iter(500, &mut || comm.allreduce_sum(&mut buf));
        let block = vec![1.0f64; (1 << 20) / 8];
        per_iter(8, &mut || {
            black_box(comm.allgather(block.clone()));
        });
        res
    });
    let r = &out[0].value;
    let tile_bytes = (2048 * 256 * 8) as f64;
    let name = |stem: &str| format!("comm.{stem}.{label}");
    vec![
        (name("spawn_ms"), 1e3 * spawn_s, "ms"),
        (name("epoch_ms"), 1e3 * epoch_s, "ms"),
        (name("pingpong_us"), 1e6 * r[0], "us"),
        (name("bandwidth_gbs"), 2.0 * tile_bytes / r[1] / 1e9, "GB/s"),
        (name("barrier_us"), 1e6 * r[2], "us"),
        (name("allreduce_us"), 1e6 * r[3], "us"),
        (name("allgather_ms"), 1e3 * r[4], "ms"),
    ]
}

/// Same-run ratios on the workload's own engine: the step under
/// pipelined against blocking shifts, and `fused_mm_b` against
/// `sddmm` then `spmm_b` in time and in exact words.
pub fn ratios(spec: &Spec, inputs: &Arc<Inputs>, rounds: usize) -> Vec<Metric> {
    if !takes_part(spec.backend) {
        return Vec::new();
    }
    let spec = *spec;
    let staged = Arc::new(StagedProblem::new(Arc::clone(&inputs.prob)));
    let inputs = Arc::clone(inputs);
    let out = SimWorld::new(P, spec.model)
        .backend(spec.backend)
        .run(move |comm| {
            let mut engine = Engine::build(&spec, &inputs, &staged, comm);
            timed(comm, || engine.step());
            // Alternate the two modes so drift hits both alike.
            let mut mode_s = [Vec::new(), Vec::new()];
            for _ in 0..rounds {
                for (i, mode) in [ShiftMode::Pipelined, ShiftMode::Blocking]
                    .into_iter()
                    .enumerate()
                {
                    let _mode = ShiftMode::scoped(mode);
                    mode_s[i].push(timed(comm, || engine.step()).1);
                }
            }
            let worker = engine.worker_mut();
            let elision = worker.plan().elision;
            let words = |comm: &Comm| comm.stats_snapshot().total().words_sent as f64;
            let mut call_s = [Vec::new(), Vec::new()];
            let mut call_words = [0.0, 0.0];
            for _ in 0..rounds {
                let before = words(comm);
                call_s[0].push(
                    timed(comm, || {
                        black_box(worker.fused_mm_b(None, elision, Sampling::Values));
                    })
                    .1,
                );
                let between = words(comm);
                call_s[1].push(
                    timed(comm, || {
                        worker.sddmm();
                        black_box(worker.spmm_b(true));
                    })
                    .1,
                );
                call_words = [between - before, words(comm) - between];
            }
            let [pipelined, blocking] = mode_s.map(|s| median(&s));
            let [fused, unfused] = call_s.map(|s| median(&s));
            vec![
                pipelined / blocking,
                fused / unfused,
                call_words[0],
                call_words[1],
            ]
        });
    // Words: the busiest rank's, fused over unfused.
    let max_words = |i: usize| out.iter().map(|o| o.value[i]).fold(0.0, f64::max);
    vec![
        metric("core.overlap_ratio", out[0].value[0], "ratio"),
        metric("core.elision_ratio", out[0].value[1], "ratio"),
        metric(
            "core.elision_words_ratio",
            max_words(2) / max_words(3),
            "ratio",
        ),
    ]
}
