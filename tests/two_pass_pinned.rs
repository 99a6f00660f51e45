//! Pinned two-pass outputs: the reported sets, the estimate's bits and
//! the pass-2 resident space for every generator × seed × ingestion
//! mode below. Every value is a deterministic function of the instance,
//! the seed and the ingestion split, so any change to how pass 2 builds
//! or feeds its lanes that moves a gate decision shows up here as a
//! concrete diff rather than as a drift in aggregate quality numbers.
//!
//! On a mismatch the test prints the full table as observed, in the
//! same literal syntax as `PINNED`, so an intended change can be
//! re-pinned by pasting it.

use maxkcov::core::{run_two_pass, EstimatorConfig, ReportedCover};
use maxkcov::stream::gen::{few_large, planted_cover, zipf_popularity};
use maxkcov::stream::{edge_stream, ArrivalOrder, SetSystem};

const K: usize = 6;
const ALPHA: f64 = 4.0;

fn instance(kind: &str, seed: u64) -> SetSystem {
    match kind {
        "planted" => planted_cover(500, 60, K, 0.8, 15, seed).system,
        "zipf" => zipf_popularity(500, 60, 14, 1.1, seed),
        "few-large" => few_large(500, 60, 3, 100, seed),
        other => panic!("unknown generator {other}"),
    }
}

/// One ingestion mode: per-edge, or batched with the given shard and
/// thread counts.
fn run(system: &SetSystem, seed: u64, mode: &str) -> ReportedCover {
    let (n, m) = (system.num_elements(), system.num_sets());
    let edges = edge_stream(system, ArrivalOrder::Shuffled(seed));
    let config = EstimatorConfig::practical(seed);
    match mode {
        "per-edge" => run_two_pass(n, m, K, ALPHA, &config, &edges, None),
        "batch64" => run_two_pass(n, m, K, ALPHA, &config, &edges, Some(64)),
        "shards3" => run_two_pass(n, m, K, ALPHA, &config.with_shards(3), &edges, Some(64)),
        "threads2" => run_two_pass(n, m, K, ALPHA, &config.with_threads(2), &edges, Some(64)),
        other => panic!("unknown mode {other}"),
    }
}

/// `(generator, seed, mode, reported sets, estimate bits, pass-2 space words)`.
type Pin = (&'static str, u64, &'static str, &'static [u32], u64, usize);

#[rustfmt::skip]
const PINNED: &[Pin] = &[
    ("planted", 1, "per-edge", &[1, 2, 11, 19, 27, 39], 0x4060919d528d1623, 8936),
    ("planted", 1, "batch64", &[1, 2, 11, 19, 27, 39], 0x4060919d528d1623, 8936),
    ("planted", 1, "shards3", &[1, 2, 11, 19, 27, 39], 0x4060919d528d1623, 8924),
    ("planted", 1, "threads2", &[1, 2, 11, 19, 27, 39], 0x4060919d528d1623, 8936),
    ("planted", 2, "per-edge", &[2, 4, 14, 26, 34, 55], 0x405e4c185c6fb373, 8467),
    ("planted", 2, "batch64", &[2, 4, 14, 26, 34, 55], 0x405e4c185c6fb373, 8467),
    ("planted", 2, "shards3", &[2, 4, 14, 26, 34, 55], 0x405e4c185c6fb373, 8457),
    ("planted", 2, "threads2", &[2, 4, 14, 26, 34, 55], 0x405e4c185c6fb373, 8467),
    ("zipf", 1, "per-edge", &[16, 27, 31, 34, 39, 43], 0x4047ab7308374432, 7210),
    ("zipf", 1, "batch64", &[16, 27, 31, 34, 39, 43], 0x4047ab7308374432, 7210),
    ("zipf", 1, "shards3", &[16, 27, 31, 34, 39, 43], 0x4047ab7308374432, 7206),
    ("zipf", 1, "threads2", &[16, 27, 31, 34, 39, 43], 0x4047ab7308374432, 7210),
    ("zipf", 2, "per-edge", &[7, 22, 38, 52, 55, 56], 0x404a829550e1bd05, 7095),
    ("zipf", 2, "batch64", &[7, 22, 38, 52, 55, 56], 0x404a829550e1bd05, 7095),
    ("zipf", 2, "shards3", &[7, 22, 38, 52, 55, 56], 0x404a829550e1bd05, 7075),
    ("zipf", 2, "threads2", &[7, 22, 38, 52, 55, 56], 0x404a829550e1bd05, 7095),
    ("few-large", 1, "per-edge", &[0, 1, 2, 16, 58, 59], 0x4064d450bf8ccb5f, 5510),
    ("few-large", 1, "batch64", &[0, 1, 2, 16, 58, 59], 0x4064d450bf8ccb5f, 5510),
    ("few-large", 1, "shards3", &[0, 1, 2, 16, 58, 59], 0x4064d450bf8ccb5f, 5528),
    ("few-large", 1, "threads2", &[0, 1, 2, 16, 58, 59], 0x4064d450bf8ccb5f, 5510),
    ("few-large", 2, "per-edge", &[1, 2, 46, 54, 55, 59], 0x405a0964ef6ffe37, 3308),
    ("few-large", 2, "batch64", &[1, 2, 46, 54, 55, 59], 0x405a0964ef6ffe37, 3308),
    ("few-large", 2, "shards3", &[1, 2, 46, 54, 55, 59], 0x405a0964ef6ffe37, 3290),
    ("few-large", 2, "threads2", &[1, 2, 46, 54, 55, 59], 0x405a0964ef6ffe37, 3308),
];

#[test]
fn two_pass_outputs_match_the_pinned_table() {
    let mut observed = Vec::new();
    for kind in ["planted", "zipf", "few-large"] {
        for seed in [1u64, 2] {
            let system = instance(kind, seed);
            for mode in ["per-edge", "batch64", "shards3", "threads2"] {
                let cover = run(&system, seed, mode);
                observed.push((
                    kind,
                    seed,
                    mode,
                    cover.sets,
                    cover.estimate.to_bits(),
                    cover.space_words,
                ));
            }
        }
    }
    let matches = observed.len() == PINNED.len()
        && observed
            .iter()
            .zip(PINNED)
            .all(|(o, p)| (o.0, o.1, o.2, &o.3[..], o.4, o.5) == (p.0, p.1, p.2, p.3, p.4, p.5));
    if !matches {
        let table: String = observed
            .iter()
            .map(|(kind, seed, mode, sets, bits, words)| {
                format!("    ({kind:?}, {seed}, {mode:?}, &{sets:?}, {bits:#018x}, {words}),\n")
            })
            .collect();
        panic!("two-pass outputs differ from the pinned table; observed:\n{table}");
    }
}
