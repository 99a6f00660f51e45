//! Outside-in replay of the estimator's lanes for the traced run.
//!
//! The lanes are rebuilt from the library's public constructors with the
//! seed derivation `MaxCoverEstimator::new` uses and fed the same chunks
//! as the estimator, each chunk right after the estimator took it, so
//! both see the same load on the host. Every public call is timed as a
//! span: per-layer time is measured at each call, not apportioned. The
//! replay always takes the batched calls, also on the per-edge workload,
//! whose scalar-path cost then shows as dispatch time.
//! Whether the rebuilt lanes hold the estimator's state is checked
//! against its space ledger ([`Replay::layer_counts`]).

use std::hint::black_box;

use maxkcov::core::{
    EdgeFingerprints, FingerprintBlock, LargeCommon, LargeSet, MaxCoverEstimator, ParamMode,
    Params, SmallSet, UniverseReducer,
};
use maxkcov::hash::SeedSequence;
use maxkcov::obs::{LedgerNode, SketchStats};
use maxkcov::sketch::SpaceUsage;
use maxkcov::stream::Edge;

use crate::spans::{SpanId, Tracer};
use crate::workload::{Workload, BATCH};

/// One `(z, repetition)` lane, held as its separate layers.
#[derive(Debug, Clone)]
struct Lane {
    reducer: UniverseReducer,
    large_common: LargeCommon,
    large_set: LargeSet,
    small_set: Option<SmallSet>,
}

/// The estimator's hash-once front end plus its lanes.
#[derive(Debug, Clone)]
pub struct Replay {
    fps: EdgeFingerprints,
    lanes: Vec<Lane>,
    block: FingerprintBlock,
    reduced: Vec<Edge>,
}

/// The subroutine modules, in the oracle's order.
const SUBROUTINES: [&str; 3] = ["large_common", "large_set", "small_set"];

impl Replay {
    /// Rebuild the lanes `MaxCoverEstimator::new` builds for this
    /// workload on an `n`-element, `m`-set instance.
    pub fn new(n: usize, m: usize, w: &Workload) -> Self {
        let config = w.config();
        assert_eq!(
            config.mode,
            ParamMode::Practical,
            "the replay mirrors practical mode"
        );
        assert!(
            (w.k as f64) * w.alpha < m as f64,
            "the trivial k·α ≥ m regime has no lanes to replay"
        );
        let mut seq = SeedSequence::labeled(config.seed, "estimate-max-cover");
        let fps = EdgeFingerprints::new(config.seed, Params::hash_degree(config.mode, m, n));
        let umix = UniverseReducer::shared_mix(
            SeedSequence::labeled(config.seed, "universe-mix").next_seed(),
        );
        let mut lanes = Vec::new();
        let mut z = 4u64;
        while z < 2 * n as u64 {
            let params = Params::practical(m, z as usize, w.k, w.alpha);
            for _ in 0..params.reduction_reps.max(1) {
                let base = fps.set_base();
                let mut oracle_seq = SeedSequence::labeled(seq.next_seed(), "oracle");
                let u = z as usize;
                lanes.push(Lane {
                    reducer: UniverseReducer::with_shared_mix(
                        z,
                        umix.clone(),
                        fps.elem_base().clone(),
                    ),
                    large_common: LargeCommon::with_base(
                        u,
                        &params,
                        config.reporting,
                        oracle_seq.next_seed(),
                        base.clone(),
                    ),
                    large_set: LargeSet::with_base(
                        u,
                        &params,
                        oracle_seq.next_seed(),
                        base.clone(),
                    ),
                    small_set: params.small_set_active().then(|| {
                        SmallSet::with_base(u, &params, oracle_seq.next_seed(), base.clone())
                    }),
                });
            }
            z *= 2;
        }
        Replay {
            fps,
            lanes,
            block: FingerprintBlock::new(),
            reduced: Vec::with_capacity(BATCH),
        }
    }

    /// Feed one chunk of at most [`BATCH`] edges, one span per public
    /// call.
    pub fn ingest(&mut self, chunk: &[Edge], tr: &mut Tracer, parent: SpanId) {
        let Replay {
            fps,
            lanes,
            block,
            reduced,
        } = self;
        tr.time("fingerprint.fill_block", parent, || {
            fps.fill_block(chunk, block)
        });
        tr.time("universe.mix_batch", parent, || {
            lanes[0].reducer.mix_batch(&block.fp_elem, &mut block.umix)
        });
        for lane in lanes {
            tr.time("universe.reduce", parent, || {
                lane.reducer.map_premixed_batch(chunk, &block.umix, reduced)
            });
            tr.time("large_common.observe_fp_batch", parent, || {
                lane.large_common.observe_fp_batch(reduced, &block.fp_set)
            });
            tr.time("large_set.observe_fp_batch", parent, || {
                lane.large_set.observe_fp_batch(reduced, &block.fp_set)
            });
            if let Some(ss) = &mut lane.small_set {
                tr.time("small_set.observe_fp_batch", parent, || {
                    ss.observe_fp_batch(reduced, &block.fp_set)
                });
            }
        }
    }

    /// Merge a replica that ingested another shard, lane by lane.
    pub fn merge(&mut self, other: &Replay, tr: &mut Tracer, parent: SpanId) {
        for (a, b) in self.lanes.iter_mut().zip(&other.lanes) {
            tr.time("large_common.merge", parent, || {
                a.large_common.merge(&b.large_common)
            });
            tr.time("large_set.merge", parent, || {
                a.large_set.merge(&b.large_set)
            });
            if let (Some(x), Some(y)) = (&mut a.small_set, &b.small_set) {
                tr.time("small_set.merge", parent, || x.merge(y));
            }
        }
    }

    /// Each subroutine's finalize, once per lane.
    pub fn finalize(&self, tr: &mut Tracer, parent: SpanId) {
        for lane in &self.lanes {
            black_box(tr.time("large_common.finalize", parent, || {
                lane.large_common.finalize()
            }));
            black_box(tr.time("large_set.finalize", parent, || lane.large_set.finalize()));
            if let Some(ss) = &lane.small_set {
                black_box(tr.time("small_set.finalize", parent, || ss.finalize()));
            }
        }
    }

    /// Per-subroutine counts summed over lanes, and whether every
    /// replayed subroutine's `space_words` equals the estimator's space
    /// ledger at `lane{i}/<subroutine>`. Updates are the ledger's heat
    /// counters (sketch-update operations absorbed), which every
    /// subroutine keeps; `sketch_stats().updates` is untracked (0) in
    /// LargeCommon and SmallSet.
    pub fn layer_counts(&self, est: &MaxCoverEstimator) -> (Vec<(String, f64)>, bool) {
        let ledger = est.space_ledger_tree();
        let mut matched = est.num_lanes() == self.lanes.len();
        let offered = (est.edges_seen() * self.lanes.len() as u64).max(1) as f64;
        let mut out = Vec::new();
        for name in SUBROUTINES {
            let (mut words, mut updates, mut stats) = (0, 0, SketchStats::default());
            for (i, lane) in self.lanes.iter().enumerate() {
                let mut node = LedgerNode::new();
                match name {
                    "large_common" => lane.large_common.space_ledger(&mut node),
                    "large_set" => {
                        lane.large_set.space_ledger(&mut node);
                        stats.absorb(lane.large_set.sketch_stats());
                    }
                    _ => match &lane.small_set {
                        Some(ss) => ss.space_ledger(&mut node),
                        None => continue,
                    },
                }
                let recorded = ledger.root.at(&format!("lane{i}/{name}"));
                matched &= recorded.map(LedgerNode::total_words) == Some(node.total_words());
                words += node.total_words();
                updates += node.total_updates();
            }
            out.push((format!("{name}.space_words"), words as f64));
            out.push((format!("{name}.update_share"), updates as f64 / offered));
            if name == "large_set" {
                out.push(("large_set.evictions".into(), stats.evictions as f64));
                out.push(("large_set.prunes".into(), stats.prunes as f64));
            }
        }
        (out, matched)
    }
}
