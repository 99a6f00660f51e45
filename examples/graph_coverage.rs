//! Graph neighborhood coverage — the paper's footnote-2 motivation for
//! the edge-arrival model.
//!
//! Sets are out-neighborhoods of vertices in a directed graph: choosing
//! `k` vertices to maximize the number of distinct reached vertices
//! (influence seeding, sensor placement). When the graph arrives as an
//! *in-edge* listing — each target vertex lists its in-neighbors — every
//! set (out-neighborhood) is scattered across the stream, so
//! set-arrival algorithms are inapplicable while the edge-arrival
//! estimator runs unchanged.
//!
//! ```text
//! cargo run --release --example graph_coverage
//! ```

use maxkcov::baselines::greedy_max_cover;
use maxkcov::core::{EstimatorConfig, MaxCoverReporter};
use maxkcov::hash::SplitMix64;
use maxkcov::stream::{coverage_of, Edge, SetSystem};

/// A power-law-ish random directed graph: vertex v gets out-degree
/// `∝ 1/(rank+1)` up to `max_deg`.
fn random_digraph(vertices: usize, max_deg: usize, seed: u64) -> Vec<(u32, u32)> {
    let mut rng = SplitMix64::new(seed);
    let mut arcs = Vec::new();
    for v in 0..vertices {
        let deg = (max_deg as f64 / ((v % 97) + 1) as f64).ceil() as usize;
        for _ in 0..deg.max(1) {
            let to = rng.next_below(vertices as u64) as u32;
            if to != v as u32 {
                arcs.push((v as u32, to));
            }
        }
    }
    arcs
}

fn main() {
    let vertices = 4_000usize;
    let k = 16usize;
    let arcs = random_digraph(vertices, 120, 99);
    println!(
        "digraph: {vertices} vertices, {} arcs; choose k={k} seeds to reach most vertices",
        arcs.len()
    );

    // The stream arrives as in-edge listings: for each target vertex,
    // its in-neighbors — i.e. for arc (v → u): set v covers element u,
    // delivered grouped by u (element-contiguous), the exact situation
    // of footnote 2.
    let mut stream: Vec<Edge> = arcs.iter().map(|&(v, u)| Edge::new(v, u)).collect();
    stream.sort_by_key(|e| e.elem);

    // One pass, Õ(m/α²) space.
    let alpha = 4.0;
    let config = EstimatorConfig::practical(5);
    let mut reporter = MaxCoverReporter::new(vertices, vertices, k, alpha, &config);
    reporter.ingest(&stream, None);
    let cover = reporter.finalize();

    // Offline comparison.
    let system = SetSystem::from_edges(vertices, vertices, &stream);
    let greedy = greedy_max_cover(&system, k);
    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    let reached = coverage_of(&system, &chosen);

    println!("\noffline greedy reach: {}", greedy.coverage);
    println!(
        "streaming reported seeds: {:?}…  ({} seeds)",
        &cover.sets[..cover.sets.len().min(8)],
        cover.sets.len()
    );
    println!(
        "streaming reach: {reached} ({}% of greedy), estimate {:.0}, winner {:?}",
        100 * reached / greedy.coverage.max(1),
        cover.estimate,
        cover.winner
    );
    println!("space: {} words", cover.space_words);
}
