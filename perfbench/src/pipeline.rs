//! One repetition of a workload through the estimator's public API, the
//! way `maxkcov estimate` (and, for the distributed workload, two
//! `maxkcov worker` runs plus `merge-from`) drive it.
//!
//! Load is a closed loop from one producer per stream: the next batch
//! goes in when the previous call returns. The phases are timed with
//! plain clocks; the span recorder, when on, adds one span per call.

use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::path::Path;
use std::time::Instant;

use maxkcov::core::MaxCoverEstimator;
use maxkcov::sketch::{SpaceUsage, WireEncode};
use maxkcov::stream::io::read_set_system;
use maxkcov::stream::{edge_stream, Edge, SetSystem};

use crate::replay::Replay;
use crate::spans::{SpanId, Tracer};
use crate::workload::{Ingest, Workload, BATCH, SHARDS};

/// What one repetition measured and produced.
pub struct Outcome {
    pub parse_s: f64,
    pub order_s: f64,
    pub setup_s: f64,
    pub ingest_s: f64,
    pub answer_s: f64,
    pub run_s: f64,
    /// Wall time of every `observe_batch` call (of every group of
    /// [`BATCH`] `observe` calls on the per-edge path), in ns.
    pub batch_ns: Vec<u64>,
    pub estimate: f64,
    pub space_words: usize,
    pub wire_bytes: usize,
    pub n: usize,
    pub m: usize,
    pub edges: usize,
    /// The final (merged) estimator, kept for the replay's state check.
    pub est: MaxCoverEstimator,
    /// The replayed lanes, merged and finalized, when asked for.
    pub replay: Option<Replay>,
    /// Held until the end, as the CLI holds it.
    _system: SetSystem,
}

fn secs(from: Instant, to: Instant) -> f64 {
    (to - from).as_secs_f64()
}

/// The estimator plus, on the distributed workload, its replicas.
fn set_up(
    w: &Workload,
    n: usize,
    m: usize,
    tr: &mut Tracer,
    parent: SpanId,
) -> Vec<MaxCoverEstimator> {
    let config = w.config();
    let est = tr.time("estimate.new", parent, || {
        MaxCoverEstimator::new(n, m, w.k, w.alpha, &config)
    });
    if w.ingest != Ingest::Sharded {
        return vec![est];
    }
    (0..SHARDS)
        .map(|i| {
            let mut replica = tr.time("estimate.clone", parent, || est.clone());
            replica.set_shard(i as u64);
            replica
        })
        .collect()
}

/// Time the set-up alone, as a fresh construction with nothing else
/// running (the repetition's own set-up is timed inside the run).
pub fn time_setup(w: &Workload, n: usize, m: usize) -> f64 {
    let start = Instant::now();
    black_box(set_up(w, n, m, &mut Tracer::new(false), None));
    start.elapsed().as_secs_f64()
}

/// Feed `edges` to `est` in closed-loop chunks, recording each call.
/// With a `replay`, each chunk then goes through the replayed lanes too.
fn feed(
    w: &Workload,
    est: &mut MaxCoverEstimator,
    mut replay: Option<&mut Replay>,
    edges: &[Edge],
    tr: &mut Tracer,
    parent: SpanId,
    batch_ns: &mut Vec<u64>,
) {
    for chunk in edges.chunks(BATCH) {
        let span = tr.open(
            if w.ingest == Ingest::PerEdge {
                "estimate.observe"
            } else {
                "estimate.observe_batch"
            },
            parent,
        );
        let start = Instant::now();
        if w.ingest == Ingest::PerEdge {
            for &e in chunk {
                est.observe(e);
            }
        } else {
            est.observe_batch(chunk);
        }
        batch_ns.push(start.elapsed().as_nanos() as u64);
        tr.close(span);
        if let Some(r) = replay.as_deref_mut() {
            let span = tr.open("replay.chunk", parent);
            r.ingest(chunk, tr, span);
            tr.close(span);
        }
    }
}

/// One repetition from the instance text to the estimate. With `replay`,
/// the lanes are also replayed layer by layer beside the estimator, then
/// merged and finalized once the estimate is out.
pub fn run(w: &Workload, input: &Path, tr: &mut Tracer, replay: bool) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let root = tr.open("rep", None);
    let system = tr.time("stream.parse", root, || -> Result<SetSystem, String> {
        let file = File::open(input).map_err(|e| format!("open {}: {e}", input.display()))?;
        read_set_system(BufReader::new(file)).map_err(|e| format!("parse {}: {e}", input.display()))
    })?;
    let t_parsed = Instant::now();
    let edges = tr.time("stream.order", root, || edge_stream(&system, w.order()));
    let t_ordered = Instant::now();
    let (n, m) = (system.num_elements(), system.num_sets());
    let mut replicas = set_up(w, n, m, tr, root);
    let t_set_up = Instant::now();
    let mut replays: Vec<Replay> = Vec::new();
    if replay {
        let first = tr.time("replay.new", root, || Replay::new(n, m, w));
        for _ in 1..replicas.len() {
            replays.push(tr.time("replay.clone", root, || first.clone()));
        }
        replays.insert(0, first);
    }

    let ingest = tr.open("estimate.ingest", root);
    let mut batch_ns = Vec::with_capacity(edges.len() / BATCH + SHARDS);
    let mut shards = Vec::new();
    if let [est] = &mut replicas[..] {
        feed(
            w,
            est,
            replays.first_mut(),
            &edges,
            tr,
            ingest,
            &mut batch_ns,
        );
    } else {
        // Contiguous shards, split as `maxkcov worker` splits them.
        let shard_len = edges.len().div_ceil(replicas.len());
        let forks: Vec<Tracer> = replicas.iter().map(|_| tr.fork()).collect();
        let mut shadows = replays.iter_mut();
        shards = std::thread::scope(|s| {
            let handles: Vec<_> = replicas
                .drain(..)
                .zip(forks)
                .enumerate()
                .map(|(i, (mut est, mut local))| {
                    let lo = (i * shard_len).min(edges.len());
                    let part = &edges[lo..(lo + shard_len).min(edges.len())];
                    let shadow = shadows.next();
                    s.spawn(move || {
                        let mut lat = Vec::new();
                        let shard = local.open("estimate.shard", None);
                        feed(w, &mut est, shadow, part, &mut local, shard, &mut lat);
                        local.close(shard);
                        (est, lat, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("shard thread panicked"))
                .collect()
        });
    }
    tr.close(ingest);
    let t_ingested = Instant::now();
    for (est, lat, local) in shards {
        tr.absorb(local, ingest);
        batch_ns.extend(lat);
        replicas.push(est);
    }

    let mut wire_bytes = 0;
    let est = if replicas.len() == 1 {
        replicas.pop().expect("one estimator")
    } else {
        let mut encoded = Vec::with_capacity(replicas.len());
        for replica in replicas {
            encoded.push(tr.time("wire.encode", root, || replica.to_bytes()));
        }
        wire_bytes = encoded.iter().map(Vec::len).sum();
        let mut decoded = Vec::with_capacity(encoded.len());
        for bytes in encoded {
            let est = tr.time("wire.decode", root, || {
                MaxCoverEstimator::from_bytes(&bytes)
            });
            decoded.push(est.map_err(|e| format!("decode replica: {e}"))?);
        }
        let mut parts = decoded.into_iter();
        let mut merged = parts.next().expect("at least one replica");
        for other in parts {
            tr.time("estimate.merge", root, || merged.merge(&other));
        }
        merged
    };
    let out = tr.time("estimate.finalize", root, || est.finalize());
    let t_done = Instant::now();
    tr.close(root);

    let mut replays = replays.into_iter();
    let replay = replays.next().map(|mut first| {
        let merge = tr.open("replay.merge", None);
        for other in replays {
            first.merge(&other, tr, merge);
        }
        tr.close(merge);
        let finalize = tr.open("replay.finalize", None);
        first.finalize(tr, finalize);
        tr.close(finalize);
        first
    });

    Ok(Outcome {
        parse_s: secs(t0, t_parsed),
        order_s: secs(t_parsed, t_ordered),
        setup_s: secs(t_ordered, t_set_up),
        ingest_s: secs(t_set_up, t_ingested),
        answer_s: secs(t_ingested, t_done),
        run_s: secs(t0, t_done),
        batch_ns,
        estimate: out.estimate,
        space_words: est.space_words(),
        wire_bytes,
        n,
        m,
        edges: edges.len(),
        est,
        replay,
        _system: system,
    })
}
