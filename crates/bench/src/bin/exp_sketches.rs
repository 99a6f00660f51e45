//! E7 — substrate validation (Theorems 2.10, 2.11, 2.12): accuracy and
//! space of the sketches the max-coverage algorithm is built from.
//!
//! ```text
//! cargo run --release -p kcov-bench --bin exp_sketches
//! ```

use kcov_bench::{fmt, print_table, print_verdict};
use kcov_sketch::{ContributingConfig, F2Contributing, F2HeavyHitter, L0Estimator, SpaceUsage};

fn main() {
    println!("E7: sketch substrate accuracy/space (Theorems 2.10-2.12)");

    // L0 estimation: error vs space (Theorem 2.12 wants (1±1/2), Õ(1)).
    let mut rows = Vec::new();
    let mut l0 = Vec::new();
    for k in [16usize, 32, 64, 128, 256] {
        let mut max_rel = 0.0f64;
        let mut space = 0usize;
        for seed in 0..10u64 {
            let mut est = L0Estimator::new(k, 5, seed);
            let truth = 40_000u64;
            for i in 0..truth {
                est.insert(i.wrapping_mul(0x9e3779b97f4a7c15));
            }
            let rel = (est.estimate() - truth as f64).abs() / truth as f64;
            max_rel = max_rel.max(rel);
            space = space.max(est.space_words());
        }
        l0.push((k, max_rel));
        rows.push(vec![
            k.to_string(),
            space.to_string(),
            fmt(max_rel),
            fmt(1.0 / (k as f64).sqrt()),
        ]);
    }
    print_table(
        "L0 estimation: worst relative error over 10 seeds (n=40k distinct)",
        &["bottom-k", "space(words)", "max rel err", "1/sqrt(k)"],
        &rows,
    );

    // F2 heavy hitters: recall of planted heavy items (Theorem 2.10).
    let mut rows = Vec::new();
    let mut recall = Vec::new();
    for phi in [0.2f64, 0.05, 0.01] {
        let mut recall_hits = 0usize;
        let mut recall_total = 0usize;
        let mut space = 0usize;
        for seed in 0..10u64 {
            let mut hh = F2HeavyHitter::for_phi(phi, seed);
            // Heavy items sized to be exactly phi-heavy with margin 2x.
            let noise_items = 5_000u64;
            let heavy_count = (0.5 / phi) as u64;
            let f2_noise = noise_items as f64;
            let heavy_freq = ((2.0 * phi * f2_noise).sqrt() as u64 + 2)
                .max((2.0 * phi / (1.0 - 2.0 * phi * heavy_count as f64).max(0.1)
                    * f2_noise)
                    .sqrt() as u64
                    + 2);
            for h in 0..heavy_count {
                for _ in 0..heavy_freq {
                    hh.insert(1_000_000 + h);
                }
            }
            for i in 0..noise_items {
                hh.insert(i);
            }
            let f2 = heavy_count as f64 * (heavy_freq * heavy_freq) as f64 + f2_noise;
            let out = hh.heavy_hitters();
            for h in 0..heavy_count {
                if (heavy_freq * heavy_freq) as f64 >= phi * f2 {
                    recall_total += 1;
                    if out.iter().any(|x| x.item == 1_000_000 + h) {
                        recall_hits += 1;
                    }
                }
            }
            space = space.max(hh.space_words());
        }
        let label = format!("phi {} ({recall_hits}/{recall_total})", fmt(phi));
        recall.push((label, recall_hits == recall_total));
        rows.push(vec![
            fmt(phi),
            format!("{recall_hits}/{recall_total}"),
            space.to_string(),
            fmt(1.0 / phi),
        ]);
    }
    print_table(
        "F2 heavy hitters: recall of phi-heavy items (Theorem 2.10)",
        &["phi", "recall", "space(words)", "1/phi"],
        &rows,
    );

    // F2-Contributing: detection of a planted contributing class of
    // medium coordinates (not individually heavy) — Theorem 2.11.
    let mut rows = Vec::new();
    let mut detected = Vec::new();
    for class_size in [8u64, 64, 256] {
        let mut found = 0usize;
        let trials = 10u64;
        for seed in 0..trials {
            let mut fc = F2Contributing::new(
                ContributingConfig::new(0.25, 1024),
                100_000,
                100_000,
                seed,
            );
            // class: class_size coords of frequency 64; noise: 3000 of 1.
            for _ in 0..64u64 {
                for c in 0..class_size {
                    fc.insert(500_000 + c);
                }
            }
            for i in 0..3000u64 {
                fc.insert(i);
            }
            if fc
                .report()
                .iter()
                .any(|r| (500_000..500_000 + class_size).contains(&r.item))
            {
                found += 1;
            }
        }
        let label = format!("class size {class_size} ({found}/{trials})");
        detected.push((label, found as u64 == trials));
        rows.push(vec![
            class_size.to_string(),
            format!("{found}/{trials}"),
        ]);
    }
    print_table(
        "F2-Contributing: planted class detection (Theorem 2.11)",
        &["class size", "detected"],
        &rows,
    );
    println!();
    let bound = l0
        .iter()
        .map(|&(k, e)| (format!("bottom-k {k} ({})", fmt(e)), e <= 1.0 / (k as f64).sqrt()));
    print_verdict("L0 max rel err <= 1/sqrt(k) on every row", bound);
    let falls = l0.windows(2).map(|w| {
        (format!("bottom-k {} ({:.4} -> {:.4})", w[1].0, w[0].1, w[1].1), w[1].1 <= w[0].1)
    });
    print_verdict("L0 max rel err falls as space grows", falls);
    print_verdict("heavy-hitter recall complete at every phi", recall);
    print_verdict("planted classes of every size detected", detected);
}
