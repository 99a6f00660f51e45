//! Per-edge vs batched ingestion (the batched ingestion engine's reason
//! to exist): wall-clock of a full pass through `MaxCoverEstimator` on
//! an RMAT workload, comparing `observe` against `observe_batch` across
//! batch sizes and thread counts. The estimates must be bit-identical
//! in every configuration — the bench asserts it while measuring.

use std::hint::black_box;

use kcov_bench::{coarse_config, fmt, median_secs, print_table};
use kcov_core::MaxCoverEstimator;
use kcov_stream::gen::{rmat_incidence, RmatParams};
use kcov_stream::{edge_stream, ArrivalOrder};

fn main() {
    let (n, m, k, alpha) = (50_000usize, 4_000usize, 64usize, 8.0f64);
    let system = rmat_incidence(n, m, 600_000, RmatParams::default(), 11);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(5));
    let total = edges.len() as f64;
    let config = coarse_config(3, n, 1);

    let reference = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, None);

    let mut rows: Vec<Vec<String>> = Vec::new();
    let serial_secs = median_secs(
        || {
            black_box(MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, None));
        },
        3,
    );
    rows.push(vec![
        "per-edge observe".into(),
        "-".into(),
        "1".into(),
        fmt(serial_secs * 1e3),
        fmt(total / serial_secs / 1e6),
        "1.00".into(),
    ]);

    for &batch in &[256usize, 4096, 65_536] {
        for &threads in &[1usize, 2, 4] {
            let config = config.clone().with_threads(threads);
            let out = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, Some(batch));
            assert_eq!(
                reference.estimate.to_bits(),
                out.estimate.to_bits(),
                "batched path diverged at batch={batch} threads={threads}"
            );
            let secs = median_secs(
                || {
                    black_box(MaxCoverEstimator::run(
                        n,
                        m,
                        k,
                        alpha,
                        &config,
                        &edges,
                        Some(batch),
                    ));
                },
                3,
            );
            rows.push(vec![
                "observe_batch".into(),
                batch.to_string(),
                threads.to_string(),
                fmt(secs * 1e3),
                fmt(total / secs / 1e6),
                format!("{:.2}", serial_secs / secs),
            ]);
        }
    }

    print_table(
        &format!(
            "ingestion: per-edge vs batched (rmat n={n} m={m}, {} edges, k={k}, alpha={alpha})",
            edges.len()
        ),
        &["path", "batch", "threads", "ms", "Medges/s", "speedup"],
        &rows,
    );
    println!("all configurations produced bit-identical estimates");

    // shard_merge group: the stream split across S merged estimator
    // replicas (DESIGN.md §8). Timing includes replica cloning and the
    // finalize-time merge fold.
    let mut shard_rows: Vec<Vec<String>> = Vec::new();
    for &shards in &[1usize, 2, 4] {
        let config = config.clone().with_shards(shards);
        let out = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, Some(4096));
        assert_eq!(
            reference.estimate.to_bits(),
            out.estimate.to_bits(),
            "sharded path diverged at shards={shards}"
        );
        let secs = median_secs(
            || {
                black_box(MaxCoverEstimator::run(
                    n,
                    m,
                    k,
                    alpha,
                    &config,
                    &edges,
                    Some(4096),
                ));
            },
            3,
        );
        shard_rows.push(vec![
            "sharded".into(),
            "4096".into(),
            shards.to_string(),
            fmt(secs * 1e3),
            fmt(total / secs / 1e6),
            format!("{:.2}", serial_secs / secs),
        ]);
    }
    print_table(
        "shard_merge: stream sharded across merged replicas",
        &["path", "batch", "shards", "ms", "Medges/s", "speedup"],
        &shard_rows,
    );
    println!("all shard counts produced estimates identical to the serial pass");
}
