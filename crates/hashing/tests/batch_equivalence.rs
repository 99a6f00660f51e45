//! Scalar-vs-batched equivalence for every `RangeHash` family: the
//! blocked flat evaluator behind the estimator's hash-once fingerprint
//! pipeline must be *bit-identical* to the per-key path on every input —
//! full blocks, uneven tails, empty input, and adversarial keys at the
//! field boundaries. A single diverging value would silently break the
//! bit-for-bit determinism contract of the batched ingestion engine, so
//! this suite is the proof obligation the hot-path refactor rests on.

use kcov_hash::{four_wise, log_wise, pairwise, KWise, PolyHash, RangeHash, MERSENNE_P};

/// Key sets exercising every code path of the blocked evaluator: empty,
/// sub-block, exactly one block, block + tail, many blocks + tail, and
/// boundary values (0, p−1, p, p+1, 2^61, u64::MAX) that stress the
/// Mersenne reduction.
fn key_sets() -> Vec<Vec<u64>> {
    let boundary = vec![
        0u64,
        1,
        MERSENNE_P - 1,
        MERSENNE_P,
        MERSENNE_P + 1,
        1u64 << 61,
        (1u64 << 62) - 1,
        u64::MAX,
    ];
    let mut dense: Vec<u64> = (0..1021u64).map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).collect();
    dense.extend_from_slice(&boundary);
    vec![
        Vec::new(),
        vec![42],
        (0..7).collect(),
        (0..8).collect(),
        (0..9).collect(),
        (0..255).collect(),
        boundary,
        dense,
    ]
}

fn assert_equivalent<H: RangeHash>(label: &str, h: &H) {
    let mut out = vec![0xdead_beefu64; 3]; // stale contents must be cleared
    for keys in key_sets() {
        h.hash_batch(&keys, &mut out);
        assert_eq!(out.len(), keys.len(), "{label}: length for {} keys", keys.len());
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(
                out[i],
                h.hash(k),
                "{label}: lane {i} of {} diverged for key {k:#x}",
                keys.len()
            );
        }
    }
}

#[test]
fn poly_hash_all_degrees_match_scalar() {
    // Every unrolled arm (d ≤ 4), the generic Horner loop, and the
    // log-wise degrees the estimator actually uses (8..48).
    for degree in [1usize, 2, 3, 4, 5, 7, 8, 16, 28, 34, 48] {
        for seed in [1u64, 0x5eed, u64::MAX] {
            let h = PolyHash::new(degree, seed);
            assert_equivalent(&format!("PolyHash(d={degree}, seed={seed})"), &h);
        }
    }
}

#[test]
fn kwise_constructors_match_scalar() {
    assert_equivalent("pairwise", &pairwise(7));
    assert_equivalent("four_wise", &four_wise(11));
    assert_equivalent("log_wise(small)", &log_wise(16, 16, 13));
    assert_equivalent("log_wise(large)", &log_wise(1 << 20, 1 << 20, 17));
    assert_equivalent("KWise(d=9)", &KWise::new(9, 23));
}

#[test]
fn batch_reuses_and_clears_output_buffer() {
    let h = PolyHash::new(5, 3);
    let mut out = Vec::new();
    h.hash_batch(&(0..100).collect::<Vec<_>>(), &mut out);
    assert_eq!(out.len(), 100);
    // A second call with a shorter input must not leave stale values.
    h.hash_batch(&[9, 8, 7], &mut out);
    assert_eq!(out.len(), 3);
    assert_eq!(out, vec![h.hash(9), h.hash(8), h.hash(7)]);
    h.hash_batch(&[], &mut out);
    assert!(out.is_empty());
}
