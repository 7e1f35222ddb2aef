//! Graph-attention-network inference on a power-law graph, distributed
//! over 16 simulated ranks on every kernel (the four algorithm families
//! and the 1D baseline), each verified against a serial reference and
//! reported with the words its busiest rank sends per forward pass.
//!
//! ```text
//! cargo run --release --example gat_inference
//! ```

use std::sync::Arc;

use distributed_sparse_kernels::apps::{gat::gat_forward_reference, GatConfig, GatEngine, GatHead};
use distributed_sparse_kernels::comm::{AggregateStats, MachineModel, Phase, SimWorld};
use distributed_sparse_kernels::core::session::Session;
use distributed_sparse_kernels::core::{AlgorithmFamily, GlobalProblem, StagedProblem};
use distributed_sparse_kernels::dense::Mat;
use distributed_sparse_kernels::sparse::gen::{rmat, RmatParams};
use distributed_sparse_kernels::sparse::permute::random_symmetric_permute;

fn main() {
    // A scale-12 R-MAT graph (4096 nodes, power-law degrees), randomly
    // permuted for load balance, with 32-dimensional node embeddings.
    let raw = rmat(RmatParams::graph500(12, 8, 11));
    let (s, _) = random_symmetric_permute(&raw, 12);
    let n = s.nrows;
    let r = 32;
    let h = Mat::random(n, r, 13);
    let prob = Arc::new(GlobalProblem::new(s, h.clone(), h));
    println!(
        "graph: {} nodes, {} edges (max degree heavy-tailed), r = {r}",
        n,
        prob.nnz()
    );

    let cfg = GatConfig {
        heads: 2,
        negative_slope: 0.2,
    };
    let heads: Vec<GatHead> = (0..cfg.heads as u64)
        .map(|i| GatHead::random(r, 500 + i))
        .collect();
    let reference = gat_forward_reference(&prob, &heads, &cfg);
    let ref_sq: f64 = reference.as_slice().iter().map(|v| v * v).sum();

    // Every kernel: the four families (c = 4 each) and the 1D baseline.
    let kernels: [(&str, Option<AlgorithmFamily>); 5] = [
        ("ds15", Some(AlgorithmFamily::DenseShift15)),
        ("ss15", Some(AlgorithmFamily::SparseShift15)),
        ("dr25", Some(AlgorithmFamily::DenseRepl25)),
        ("sr25", Some(AlgorithmFamily::SparseRepl25)),
        ("baseline", None),
    ];
    for (name, family) in kernels {
        let c = 4;
        let staged = Arc::new(StagedProblem::new(Arc::clone(&prob)));
        let heads = heads.clone();
        let world = SimWorld::new(16, MachineModel::cori_knl());
        let outcomes = world.run(move |comm| {
            let builder = Session::builder_staged(Arc::clone(&staged));
            let builder = match family {
                Some(f) => builder.family(f).replication(c),
                None => builder.baseline(),
            };
            let mut engine = GatEngine::new(builder.build(comm));
            let before = comm.stats_snapshot().total().words_sent;
            let out = engine.forward(&heads, &cfg);
            let words = comm.stats_snapshot().total().words_sent - before;
            let sq: f64 = out.as_slice().iter().map(|v| v * v).sum();
            (comm.allreduce_scalar(sq), words)
        });
        let got_sq = outcomes[0].value.0;
        let max_words = outcomes.iter().map(|o| o.value.1).max().unwrap_or(0);
        let stats: Vec<_> = outcomes.iter().map(|o| o.stats.clone()).collect();
        let agg = AggregateStats::from_ranks(&stats);
        match family {
            Some(_) => println!("\n== {name} (c = {c}) =="),
            None => println!("\n== {name} =="),
        }
        println!(
            "  ‖output‖² distributed = {got_sq:.6e}, serial = {ref_sq:.6e} (diff {:.2e})",
            (got_sq - ref_sq).abs()
        );
        println!("  words sent per forward: {max_words} (busiest rank)");
        println!(
            "  modeled time: convolution kernels \
             (repl {:.3e} + prop {:.3e} + comp {:.3e}) s, \
             staging/scores/softmax outside (comm {:.3e} + comp {:.3e}) s",
            agg.modeled_s(Phase::Replication),
            agg.modeled_s(Phase::Propagation),
            agg.modeled_s(Phase::Computation),
            agg.modeled_s(Phase::OutsideComm),
            agg.modeled_s(Phase::OutsideCompute),
        );
        assert!(
            (got_sq - ref_sq).abs() < 1e-6 * ref_sq.max(1.0),
            "{name}: GAT output differs from the serial reference"
        );
    }
    println!("\ngat_inference OK");
}
