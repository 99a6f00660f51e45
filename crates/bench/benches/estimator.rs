//! Benchmarks of the paper's algorithms: per-edge observe throughput of
//! the oracle and the full estimator across α, plus end-to-end runs (E2
//! companion — the wall-clock side of the space/approximation
//! trade-off). Std-only timing harness.

use std::hint::black_box;

use kcov_bench::{fmt, median_ns_per_op, median_secs, print_table};
use kcov_core::{EstimatorConfig, MaxCoverEstimator, Oracle, Params};
use kcov_stream::gen::uniform_fixed_size;
use kcov_stream::{edge_stream, ArrivalOrder, Edge};

const RUNS: usize = 5;
const MIN_MS: u64 = 20;

fn main() {
    let mut rows: Vec<Vec<String>> = Vec::new();

    for alpha in [4.0f64, 16.0] {
        let params = Params::practical(2_000, 20_000, 64, alpha);
        let mut oracle = Oracle::new(20_000, &params, false, 1);
        let mut i = 0u64;
        let ns = median_ns_per_op(
            || {
                i = i.wrapping_add(1);
                oracle.observe(black_box(Edge::new(
                    (i % 2_000) as u32,
                    ((i * 7) % 20_000) as u32,
                )));
            },
            RUNS,
            MIN_MS,
        );
        rows.push(vec![
            format!("oracle_observe alpha={alpha}"),
            fmt(ns),
            fmt(1e9 / ns / 1e6),
        ]);
    }

    for alpha in [4.0f64, 16.0] {
        let mut config = EstimatorConfig::practical(1);
        config.reps = Some(1);
        let mut est = MaxCoverEstimator::new(20_000, 2_000, 64, alpha, &config);
        let mut i = 0u64;
        let ns = median_ns_per_op(
            || {
                i = i.wrapping_add(1);
                est.observe(black_box(Edge::new(
                    (i % 2_000) as u32,
                    ((i * 7) % 20_000) as u32,
                )));
            },
            RUNS,
            MIN_MS,
        );
        rows.push(vec![
            format!("estimator_observe alpha={alpha}"),
            fmt(ns),
            fmt(1e9 / ns / 1e6),
        ]);
    }

    print_table(
        "estimator per-edge throughput",
        &["op", "ns/edge", "Medges/s"],
        &rows,
    );

    // End-to-end: a full pass + finalize on a mid-size instance.
    let system = uniform_fixed_size(5_000, 1_000, 50, 3);
    let edges = edge_stream(&system, ArrivalOrder::Shuffled(1));
    let mut e2e: Vec<Vec<String>> = Vec::new();
    {
        let alpha = 8.0f64;
        let secs = median_secs(
            || {
                let mut config = EstimatorConfig::practical(7);
                config.reps = Some(1);
                black_box(MaxCoverEstimator::run(5_000, 1_000, 32, alpha, &config, &edges, None));
            },
            3,
        );
        e2e.push(vec![
            format!("end_to_end alpha={alpha}"),
            fmt(secs * 1e3),
            fmt(edges.len() as f64 / secs / 1e6),
        ]);
    }
    print_table(
        "estimator end-to-end (full pass + finalize)",
        &["run", "ms", "Medges/s"],
        &e2e,
    );
}
