//! The three workloads: instance shape, estimator parameters and the
//! ingest path each one drives (README.md gives the measured profiles).

use maxkcov::core::EstimatorConfig;
use maxkcov::stream::gen::{rmat_incidence, uniform_fixed_size, zipf_set_sizes, RmatParams};
use maxkcov::stream::{ArrivalOrder, SetSystem};

/// Edges per `observe_batch` call, and per timed group of `observe`
/// calls on the per-edge path.
pub const BATCH: usize = 4096;

/// Root seed of the estimator. Fixed, so that `--seed` changes only the
/// generated instance the program receives, never the program itself.
pub const ESTIMATOR_SEED: u64 = 3;

/// Stream replicas of the distributed workload (one thread each).
pub const SHARDS: usize = 2;

/// How a workload feeds the estimator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ingest {
    /// `observe` per edge: the CLI default without `--batch`.
    PerEdge,
    /// `observe_batch` in chunks of [`BATCH`] on one thread.
    Batched,
    /// [`SHARDS`] contiguous stream shards, each ingested by a replica on
    /// its own thread, then `to_bytes` → `from_bytes` → `merge`.
    Sharded,
}

/// One workload of the benchmark.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub k: usize,
    pub alpha: f64,
    pub ingest: Ingest,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "uniform-ingest",
        k: 64,
        alpha: 8.0,
        ingest: Ingest::Batched,
    },
    Workload {
        name: "rmat-finalize",
        k: 64,
        alpha: 2.0,
        ingest: Ingest::PerEdge,
    },
    Workload {
        name: "zipf-distributed",
        k: 64,
        alpha: 2.0,
        ingest: Ingest::Sharded,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Result<&'static Workload, String> {
        WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload '{name}'"))
    }

    /// The instance for `seed`: the same seed gives the same instance.
    pub fn generate(&self, seed: u64) -> SetSystem {
        match self.ingest {
            Ingest::Batched => uniform_fixed_size(50_000, 5_000, 100, seed),
            Ingest::PerEdge => rmat_incidence(50_000, 5_000, 80_000, RmatParams::default(), seed),
            Ingest::Sharded => zipf_set_sizes(200_000, 20_000, 8_000, 1.05, seed),
        }
    }

    pub fn config(&self) -> EstimatorConfig {
        EstimatorConfig::practical(ESTIMATOR_SEED)
    }

    /// The `maxkcov estimate` flags that take this workload's ingest path.
    pub fn cli_flags(&self) -> Vec<String> {
        let flags = match self.ingest {
            Ingest::PerEdge => vec![],
            Ingest::Batched => vec!["--batch".into(), BATCH.to_string()],
            Ingest::Sharded => vec![
                "--shards".into(),
                SHARDS.to_string(),
                "--batch".into(),
                BATCH.to_string(),
            ],
        };
        [
            vec![
                "--k".into(),
                self.k.to_string(),
                "--alpha".into(),
                self.alpha.to_string(),
            ],
            vec!["--seed".into(), ESTIMATOR_SEED.to_string()],
            flags,
        ]
        .concat()
    }

    /// The CLI's default arrival order.
    pub fn order(&self) -> ArrivalOrder {
        ArrivalOrder::Shuffled(0)
    }
}
