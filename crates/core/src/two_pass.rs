//! Two-pass refinement — an *extension* beyond the paper.
//!
//! The paper is strictly single-pass; its guess grid pays a `log n`
//! factor in space because every `z = 2^i` runs its own oracle in
//! parallel. When the stream can be replayed (stored logs, repeatable
//! scans — the setting of the multi-pass lines of Table 1's set-cover
//! relatives [6, 17]), a second pass removes that factor:
//!
//! * **Pass 1** — the single-pass estimator on a coarse grid produces a
//!   constant-factor-correct guess `ẑ` of the optimal coverage.
//! * **Pass 2** — a single universe-reduced `(α, δ, η)`-oracle tuned to
//!   `z = Θ(ẑ)` runs with the *entire* space/repetition budget,
//!   reporting the cover.
//!
//! Space drops from `Õ(log n · m/α²)` to `Õ(m/α²)` per pass, and the
//! lone oracle can afford more repetitions for the same footprint.
//!
//! Pass 2 is Fig 1's construction at one `z`, so it runs on the
//! estimator's own engine: [`TwoPassSecond`] wraps a
//! [`MaxCoverEstimator`] whose lanes are the pass-2 repetitions. Both
//! passes are fed by the estimator's one stream driver,
//! [`MaxCoverEstimator::ingest`] (per edge, batched, lane-threaded or
//! stream-sharded), and pass 2 inherits merge, heartbeats and the
//! attribution ledger.
//! The one difference is that each repetition reduces the universe with
//! its own mix instead of the estimator's shared one. On the wire, a
//! pass-2 replica is the `TWOPASS` root carrying `(k, z, ẑ-estimate)`
//! around a nested estimator replica (DESIGN.md §11).

use kcov_sketch::SpaceUsage;
use kcov_stream::Edge;

use crate::estimate::{EstimatorConfig, MaxCoverEstimator};
use crate::fingerprint::EdgeFingerprints;
use crate::oracle::Oracle;
use crate::params::{ParamMode, Params};
use crate::report::ReportedCover;
use crate::universe::UniverseReducer;

/// Pass 1: estimate the optimal coverage size.
#[derive(Debug, Clone)]
pub struct TwoPassFirst {
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: EstimatorConfig,
    estimator: MaxCoverEstimator,
}

impl TwoPassFirst {
    /// Start pass 1 with a coarse internal grid (factor-4 guesses, one
    /// repetition — pass 2 restores the lost constants).
    pub fn new(n: usize, m: usize, k: usize, alpha: f64, config: &EstimatorConfig) -> Self {
        let mut pass1_config = config.clone();
        if pass1_config.z_guesses.is_none() {
            let mut zs = Vec::new();
            let mut z = 4u64;
            while z < 2 * n as u64 {
                zs.push(z);
                z *= 4;
            }
            pass1_config.z_guesses = Some(zs);
        }
        pass1_config.reps = Some(pass1_config.reps.unwrap_or(1));
        pass1_config.reporting = false;
        TwoPassFirst {
            n,
            m,
            k,
            alpha,
            config: config.clone(),
            estimator: MaxCoverEstimator::new(n, m, k, alpha, &pass1_config),
        }
    }

    /// Observe one edge of pass 1.
    pub fn observe(&mut self, edge: Edge) {
        self.estimator.observe(edge);
    }

    /// Observe a chunk of pass-1 edges through the batched ingestion
    /// engine (bit-identical to repeated [`TwoPassFirst::observe`]).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        self.estimator.observe_batch(edges);
    }

    /// Merge another pass-1 state built from the same instance shape,
    /// configuration and seed (delegates to
    /// [`MaxCoverEstimator::merge`], so the merged state hands the same
    /// `ẑ` guess to pass 2 as serial ingestion would).
    pub fn merge(&mut self, other: &Self) {
        self.estimator.merge(&other.estimator);
    }

    /// Feed pass-1 edges per edge or in batches, on
    /// [`EstimatorConfig::shards`] replicas (see
    /// [`MaxCoverEstimator::ingest`]).
    pub fn ingest(&mut self, edges: &[Edge], batch: Option<usize>) {
        self.estimator.ingest(edges, batch);
    }

    /// Finish pass 1 and build pass 2 around the guess.
    pub fn into_second_pass(self) -> TwoPassSecond {
        let out = self.estimator.finalize();
        // ẑ: prefer the winning z (it already passed the acceptance
        // test); fall back to the estimate, then to n.
        let guess = if out.winning_z > 0 {
            out.winning_z
        } else if out.estimate >= 1.0 {
            out.estimate as u64
        } else {
            self.n as u64
        };
        // Oversample the guess by 4× (the estimate is a lower bound on
        // OPT up to the approximation factor; Lemma 3.5 tolerates
        // |S| ≥ z, so a modestly large z only costs constants).
        // `z` never exceeds `2n`, so a one-element universe gets z = 2.
        let z = (4 * guess).next_power_of_two().max(4).min(2 * self.n as u64);
        let params = match self.config.mode {
            ParamMode::Paper => Params::paper(self.m, z as usize, self.k, self.alpha),
            ParamMode::Practical => Params::practical(self.m, z as usize, self.k, self.alpha),
        };
        let reps = self.config.reps.unwrap_or(params.reduction_reps).max(2);
        let mut seq = kcov_hash::SeedSequence::labeled(self.config.seed, "two-pass-second");
        // Pass-2 hash-once front end: drawn first (before any lane) from
        // the pass-2 sequence, so it is independent of pass 1's.
        let fps = EdgeFingerprints::new(
            seq.next_seed(),
            Params::hash_degree(self.config.mode, self.m, self.n),
        );
        let lanes = (0..reps)
            .map(|_| {
                (
                    UniverseReducer::with_base(z, seq.next_seed(), fps.elem_base().clone()),
                    Oracle::with_base(
                        z as usize,
                        &params,
                        true,
                        seq.next_seed(),
                        fps.set_base().clone(),
                    ),
                )
            })
            .collect();
        TwoPassSecond {
            k: self.k,
            z,
            pass1_estimate: out.estimate,
            est: MaxCoverEstimator::from_parts(
                (self.n, self.m, self.k, self.alpha),
                &self.config,
                fps,
                lanes,
            ),
        }
    }
}

/// Pass 2: a single tuned, reporting oracle (repeated for confidence),
/// run as an estimator whose every lane sits at the tuned `z`.
#[derive(Debug, Clone)]
pub struct TwoPassSecond {
    k: usize,
    z: u64,
    pass1_estimate: f64,
    est: MaxCoverEstimator,
}

impl TwoPassSecond {
    /// The tuned pseudo-universe size.
    pub fn z(&self) -> u64 {
        self.z
    }

    /// Observe one edge of pass 2 (hash once, share across lanes).
    pub fn observe(&mut self, edge: Edge) {
        self.est.observe(edge);
    }

    /// Observe a chunk of pass-2 edges through the estimator's batched
    /// engine (bit-identical to repeated [`TwoPassSecond::observe`] at
    /// any chunking and thread count).
    pub fn observe_batch(&mut self, edges: &[Edge]) {
        self.est.observe_batch(edges);
    }

    /// Merge another pass-2 state derived from the same pass-1 guess
    /// and seed (delegates to [`MaxCoverEstimator::merge`]).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(
            (self.k, self.z, self.pass1_estimate.to_bits()),
            (other.k, other.z, other.pass1_estimate.to_bits()),
            "TwoPassSecond merge requires identical configuration (pass-1 guess)"
        );
        self.est.merge(&other.est);
    }

    /// Feed pass-2 edges per edge or in batches, on
    /// [`EstimatorConfig::shards`] replicas (see
    /// [`MaxCoverEstimator::ingest`]).
    pub fn ingest(&mut self, edges: &[Edge], batch: Option<usize>) {
        self.est.ingest(edges, batch);
    }

    /// Attach an observability recorder after wire reconstruction (same
    /// contract as [`MaxCoverEstimator::attach_recorder`]).
    pub fn attach_recorder(&mut self, rec: &kcov_obs::Recorder) {
        self.est.attach_recorder(rec);
    }

    /// Finish pass 2: the best repetition's reported cover.
    pub fn finalize(&self) -> ReportedCover {
        let mut best: Option<(f64, usize, crate::Witness, _)> = None;
        for lane in 0..self.est.num_lanes() {
            let out = self.est.lane_oracle(lane).finalize();
            if let (est, Some(w)) = (out.estimate, out.witness) {
                if best.as_ref().is_none_or(|&(b, ..)| est > b) {
                    best = Some((est, lane, w, out.winner));
                }
            }
        }
        match best {
            Some((est, lane, witness, winner)) => {
                let mut sets = self.est.lane_oracle(lane).expand_witness(&witness);
                sets.truncate(self.k);
                sets.sort_unstable();
                sets.dedup();
                ReportedCover {
                    sets,
                    estimate: est.max(self.pass1_estimate.min(self.z as f64)),
                    winner,
                    space_words: self.space_words(),
                }
            }
            None => ReportedCover {
                sets: Vec::new(),
                estimate: self.pass1_estimate,
                winner: None,
                space_words: self.space_words(),
            },
        }
    }

    /// Emit the pass-2 observability snapshot (heartbeats, ingest
    /// histograms, the `twopass` event, and the `pass2` ledger); a
    /// no-op when the recorder is disabled.
    fn record(&self, cover: &ReportedCover) {
        let rec = self.est.recorder();
        if !rec.is_enabled() {
            return;
        }
        self.est.record_ingest("pass2", "pass2.ingest");
        rec.event(
            "twopass",
            &[
                ("z", kcov_obs::Value::from(self.z)),
                ("estimate", kcov_obs::Value::from(cover.estimate)),
                ("sets", kcov_obs::Value::from(cover.sets.len())),
                ("space_words", kcov_obs::Value::from(cover.space_words)),
                ("reps", kcov_obs::Value::from(self.est.num_lanes())),
            ],
        );
        rec.gauge("twopass.z", self.z as f64);
        rec.gauge("twopass.space_words", cover.space_words as f64);
        self.est.record_ledger("pass2", "pass2");
    }
}

// ---- wire format ----------------------------------------------------

/// Payload tag of a full pass-2 replica.
pub const TAG_TWOPASS: u64 = 0x0054_574f_5041_5353; // "TWOPASS"
const SEC_SHAPE: u64 = 0x0053_4841_5045; // "SHAPE"

impl kcov_sketch::WireEncode for TwoPassSecond {
    fn encode(&self, out: &mut Vec<u8>) {
        use kcov_sketch::wire::{put_f64, put_header, put_section, put_u64};
        put_header(out, TAG_TWOPASS);
        put_section(out, SEC_SHAPE, |out| {
            put_u64(out, self.k as u64);
            put_u64(out, self.z);
            put_f64(out, self.pass1_estimate);
        });
        self.est.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, kcov_sketch::WireError> {
        use kcov_sketch::wire::{
            err, expect_section_end, take_f64, take_header, take_section, take_u64,
        };
        take_header(input, TAG_TWOPASS)?;
        let mut shape = take_section(input, SEC_SHAPE)?;
        let k = take_u64(&mut shape)? as usize;
        let z = take_u64(&mut shape)?;
        let pass1_estimate = take_f64(&mut shape)?;
        expect_section_end(SEC_SHAPE, shape)?;
        let est = MaxCoverEstimator::decode(input)?;
        if est.shape().2 != k {
            return Err(err(format!("pass-2 k {k} disagrees with its estimator's")));
        }
        if est.num_lanes() == 0 {
            return Err(err("pass-2 state has no lanes"));
        }
        if let Some(lane_z) = est.lane_zs().find(|&lane_z| lane_z != z) {
            return Err(err(format!("pass-2 lane range {lane_z} disagrees with z {z}")));
        }
        Ok(TwoPassSecond { k, z, pass1_estimate, est })
    }
}

impl SpaceUsage for TwoPassSecond {
    /// The estimator's tree: `fingerprints`, then per lane `reducer`
    /// plus the oracle subtrees (no shared `universe` leaf, since every
    /// repetition owns its mix).
    fn space_ledger(&self, node: &mut kcov_obs::LedgerNode) {
        self.est.space_ledger(node);
    }
}

/// Convenience: run both passes over a replayable stream, each fed
/// through [`MaxCoverEstimator::ingest`].
pub fn run_two_pass(
    n: usize,
    m: usize,
    k: usize,
    alpha: f64,
    config: &EstimatorConfig,
    edges: &[Edge],
    batch: Option<usize>,
) -> ReportedCover {
    let rec = config.recorder.clone();
    let mut first = TwoPassFirst::new(n, m, k, alpha, config);
    let span = rec.span("pass1");
    first.ingest(edges, batch);
    span.finish();
    let mut second = first.into_second_pass();
    let span = rec.span("pass2");
    second.ingest(edges, batch);
    span.finish();
    let cover = second.finalize();
    second.record(&cover);
    cover
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::MaxCoverReporter;
    use kcov_stream::gen::planted_cover;
    use kcov_stream::{coverage_of, edge_stream, ArrivalOrder};

    #[test]
    fn two_pass_reports_a_useful_cover() {
        let inst = planted_cover(2_000, 250, 12, 0.8, 40, 3);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(1));
        let config = EstimatorConfig::practical(9);
        let cover = run_two_pass(2_000, 250, 12, 4.0, &config, &edges, None);
        assert!(!cover.sets.is_empty());
        assert!(cover.sets.len() <= 12);
        let chosen: Vec<usize> = cover.sets.iter().map(|&s| s as usize).collect();
        let cov = coverage_of(&inst.system, &chosen) as f64;
        assert!(
            cov >= inst.planted_coverage as f64 / (4.0 * 30.0),
            "two-pass cover too weak: {cov}"
        );
    }

    #[test]
    fn second_pass_z_tracks_pass1_guess() {
        let inst = planted_cover(4_000, 300, 10, 0.5, 50, 5);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(2));
        let config = EstimatorConfig::practical(3);
        let mut first = TwoPassFirst::new(4_000, 300, 10, 4.0, &config);
        for &e in &edges {
            first.observe(e);
        }
        let second = first.into_second_pass();
        // OPT = 2000; ẑ·4 rounded to a power of two should be within
        // a factor ~32 of OPT (pass 1 is only α-approximate).
        assert!(second.z() >= 64, "z {} too small", second.z());
        assert!(second.z() <= 8_000, "z {} too large", second.z());
    }

    #[test]
    fn two_pass_uses_less_space_than_single_pass_grid() {
        let inst = planted_cover(8_000, 500, 16, 0.7, 40, 7);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(4));
        let config = EstimatorConfig::practical(11);
        // Single-pass reporter with the full default grid.
        let mut single = MaxCoverReporter::new(8_000, 500, 16, 8.0, &config);
        for &e in &edges {
            single.observe(e);
        }
        let single_space = single.finalize().space_words;
        // Two-pass: pass 2 space only (pass 1 is also cheaper — coarse
        // grid, 1 rep — but the comparison of interest is steady state).
        let mut first = TwoPassFirst::new(8_000, 500, 16, 8.0, &config);
        for &e in &edges {
            first.observe(e);
        }
        let mut second = first.into_second_pass();
        for &e in &edges {
            second.observe(e);
        }
        let two_space = second.space_words();
        assert!(
            (two_space as f64) < 0.5 * single_space as f64,
            "two-pass {two_space} vs single {single_space}"
        );
    }

    #[test]
    fn empty_stream_degrades_gracefully() {
        let config = EstimatorConfig::practical(1);
        let cover = run_two_pass(100, 50, 5, 2.0, &config, &[], None);
        assert!(cover.sets.is_empty());
    }

    #[test]
    fn decode_rejects_a_frame_that_disagrees_with_its_estimator() {
        use kcov_sketch::WireEncode;
        let config = EstimatorConfig::practical(5);
        let second = TwoPassFirst::new(600, 80, 6, 4.0, &config).into_second_pass();
        for (k, z, msg) in [(7, second.z, "pass-2 k 7"), (6, 2 * second.z, "disagrees with z")] {
            let frame = TwoPassSecond { k, z, ..second.clone() };
            let err = TwoPassSecond::from_bytes(&frame.to_bytes()).unwrap_err();
            assert!(err.to_string().contains(msg), "{err}");
        }
    }

    #[test]
    fn sharded_two_pass_matches_serial() {
        let inst = planted_cover(1_000, 150, 8, 0.7, 30, 13);
        let edges = edge_stream(&inst.system, ArrivalOrder::Shuffled(3));
        let config = EstimatorConfig::practical(7);
        let serial = run_two_pass(1_000, 150, 8, 4.0, &config, &edges, None);
        for shards in [2usize, 4] {
            let sharded_config = config.clone().with_shards(shards);
            let out = run_two_pass(1_000, 150, 8, 4.0, &sharded_config, &edges, Some(128));
            assert_eq!(serial.sets, out.sets, "shards={shards}");
            assert_eq!(
                serial.estimate.to_bits(),
                out.estimate.to_bits(),
                "shards={shards}"
            );
        }
    }
}
