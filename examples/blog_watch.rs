//! Multi-topic blog-watch — the application that motivated the first
//! streaming max-cover algorithm (Saha & Getoor, reference [37]).
//!
//! Blogs post stories; each story mentions topics. We want to follow
//! `k` blogs that jointly cover as many topics as possible. Posts
//! arrive one at a time — each post is a burst of (blog, topic) pairs —
//! so the stream is edge-arrival and interleaved across blogs: a blog's
//! topic set is never contiguous.
//!
//! Compares the swap-based set-arrival baseline (which must be given
//! the materialized per-blog sets, i.e. cheats) with the edge-arrival
//! reporter (which runs on the true stream).
//!
//! ```text
//! cargo run --release --example blog_watch
//! ```

use maxkcov::baselines::{greedy_max_cover, SwapStreaming};
use maxkcov::core::{EstimatorConfig, MaxCoverReporter};
use maxkcov::hash::SplitMix64;
use maxkcov::stream::{coverage_of, Edge, SetSystem};

fn main() {
    let blogs = 1_500usize;
    let topics = 6_000usize;
    let k = 12usize;
    let mut rng = SplitMix64::new(11);

    // Simulated feed: 30k posts; blog popularity and topic popularity
    // both Zipfian; each post mentions 1-6 topics.
    let mut stream: Vec<Edge> = Vec::new();
    for _ in 0..30_000 {
        // Zipf-ish blog pick via squaring a uniform.
        let u = rng.next_f64();
        let blog = ((u * u) * blogs as f64) as u32 % blogs as u32;
        let mentions = 1 + rng.next_below(6);
        for _ in 0..mentions {
            let v = rng.next_f64();
            let topic = ((v * v * v) * topics as f64) as u32 % topics as u32;
            stream.push(Edge::new(blog, topic));
        }
    }
    println!(
        "feed: {} (blog, topic) mentions across {blogs} blogs / {topics} topics; follow k={k}",
        stream.len()
    );

    // Edge-arrival streaming reporter on the raw feed.
    let alpha = 4.0;
    let config = EstimatorConfig::practical(3);
    let mut reporter = MaxCoverReporter::new(topics, blogs, k, alpha, &config);
    reporter.ingest(&stream, None);
    let cover = reporter.finalize();

    // Offline materialization for ground truth + the set-arrival
    // baseline (which requires exactly this materialization).
    let system = SetSystem::from_edges(topics, blogs, &stream);
    let greedy = greedy_max_cover(&system, k);
    let swap = SwapStreaming::run(&system, k);

    let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
    let covered = coverage_of(&system, &chosen);
    let swap_cov = coverage_of(&system, &swap.chosen);

    println!("\noffline greedy:             {} topics", greedy.coverage);
    println!(
        "set-arrival swap [37]:      {} topics (needs materialized sets)",
        swap_cov
    );
    println!(
        "edge-arrival reporter:      {} topics ({}% of greedy) on the raw feed",
        covered,
        100 * covered / greedy.coverage.max(1)
    );
    println!(
        "reporter: {} blogs, estimate {:.0}, winner {:?}, space {} words",
        cover.sets.len(),
        cover.estimate,
        cover.winner,
        cover.space_words
    );
}
