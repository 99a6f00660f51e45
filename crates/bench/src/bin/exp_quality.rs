//! E10 — the *approximation* side of the trade-off: the effective
//! approximation factor `OPT / estimate` as α grows, on instances with
//! known planted optima. Theorem 3.1 promises `OPT/estimate ≤ Õ(α)`
//! whenever the estimate is accepted; this experiment traces the actual
//! curve, plus the two-pass extension's improvement at equal α.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_quality
//! ```

use kcov_bench::{coarse_config, fmt, print_table, print_verdict};
use kcov_core::{run_two_pass, MaxCoverEstimator};
use kcov_stream::gen::planted_cover;
use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

fn main() {
    println!("E10: effective approximation factor vs alpha (planted OPT)");
    let (n, m, k) = (12_000usize, 1_500usize, 30usize);
    let inst = planted_cover(n, m, k, 0.8, 60, 13);
    let opt = inst.planted_coverage as f64;
    let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(5));
    println!("instance: n={n} m={m} k={k}, OPT = {opt}, {} edges", edges.len());

    let mut rows = Vec::new();
    // (alpha, OPT/1p-est, OPT/2p-cov) per row, for the shape checks.
    let mut factors = Vec::new();
    for alpha in [2.0f64, 4.0, 8.0, 16.0, 32.0] {
        let config = coarse_config(17, n, 2);
        let single = MaxCoverEstimator::run(n, m, k, alpha, &config, &edges, None);
        let two = run_two_pass(n, m, k, alpha, &config, &edges, None);
        let chosen: Vec<usize> = two.sets.iter().map(|&s| s as usize).collect();
        let two_real = coverage_of(&inst.system, &chosen) as f64;
        let (f1, f2) = (opt / single.estimate.max(1.0), opt / two_real.max(1.0));
        factors.push((alpha, f1, f2));
        rows.push(vec![
            fmt(alpha),
            fmt(single.estimate),
            fmt(f1),
            fmt(two.estimate),
            fmt(two_real),
            fmt(f2),
        ]);
    }
    print_table(
        "single-pass estimate and two-pass reported cover vs alpha",
        &[
            "alpha",
            "1p estimate",
            "OPT/1p-est",
            "2p estimate",
            "2p real cov",
            "OPT/2p-cov",
        ],
        &rows,
    );
    // Thm 3.1's Õ(α) factor with practical constants: OPT/1p-est per
    // unit of α never exceeds its value at the smallest α.
    println!();
    let c = factors[0].1 / factors[0].0;
    let linear = factors
        .iter()
        .map(|&(a, f1, _)| (format!("alpha {} ({})", fmt(a), fmt(f1)), f1 <= c * a));
    let claim = format!("OPT/1p-est grows at most linearly in alpha (<= {} x alpha)", fmt(c));
    print_verdict(&claim, linear);
    let lower = factors.iter().map(|&(a, f1, f2)| {
        (format!("alpha {} (OPT/2p-cov {} vs OPT/1p-est {})", fmt(a), fmt(f2), fmt(f1)), f2 < f1)
    });
    print_verdict("the two-pass cover keeps OPT/2p-cov below OPT/1p-est at every alpha", lower);
}
