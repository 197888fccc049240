//! The three workloads and their fixed configuration. `--seed` varies the
//! model weights, the query stream, the IVF build and the training order;
//! the catalogs below are fixed, so every seed serves the same item table
//! sizes.

use wr_data::{DatasetKind, DatasetSpec};

use crate::measure::fnv1a;
use crate::traffic::TrafficKind;

/// The served and trained model.
pub const MODEL: &str = "WhitenRec+";

/// Replica builds per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy)]
pub struct Catalog {
    pub scale: f32,
    pub items_factor: f32,
}

impl Catalog {
    pub fn spec(&self) -> DatasetSpec {
        DatasetSpec::preset(DatasetKind::Arts)
            .scaled(self.scale)
            .scaled_items(self.items_factor)
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Ivf {
    pub nlist: usize,
    pub nprobe: usize,
}

#[derive(Debug, Clone, Copy)]
pub struct ServeWorkload {
    pub name: &'static str,
    pub catalog: Catalog,
    pub shards: usize,
    pub ivf: Option<Ivf>,
    pub traffic: TrafficKind,
    pub batch: usize,
    pub k: usize,
    /// Micro-batches per generated round; runs attempt whole rounds.
    pub round_batches: usize,
    /// Nearest-rank percentile reported as `latency_tail_ms`, set well
    /// below the highest one with ten batches beyond it: at p90 and above,
    /// slow spells of a shared machine that touch a tenth of a run's
    /// batches decided the value (README.md).
    pub tail_pct: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct TrainWorkload {
    pub name: &'static str,
    pub catalog: Catalog,
    pub epochs: usize,
    pub batch: usize,
    pub tail_pct: f64,
}

#[derive(Debug, Clone, Copy)]
pub enum Workload {
    Serve(ServeWorkload),
    Train(TrainWorkload),
}

pub const SERVE_SMALL: ServeWorkload = ServeWorkload {
    name: "serve-small",
    catalog: Catalog {
        scale: 0.2,
        items_factor: 2.0,
    },
    shards: 1,
    ivf: None,
    traffic: TrafficKind::Zipf {
        users: 20_000,
        alpha: 1.0,
    },
    batch: 64,
    k: 10,
    round_batches: 16,
    tail_pct: 80.0,
};

pub const SERVE_LARGE: ServeWorkload = ServeWorkload {
    name: "serve-large",
    catalog: Catalog {
        scale: 3.0,
        items_factor: 2.0,
    },
    shards: 2,
    ivf: Some(Ivf {
        nlist: 32,
        nprobe: 8,
    }),
    traffic: TrafficKind::Fresh,
    batch: 64,
    k: 10,
    round_batches: 8,
    tail_pct: 80.0,
};

pub const TRAIN: TrainWorkload = TrainWorkload {
    name: "train",
    catalog: Catalog {
        scale: 1.0,
        items_factor: 2.0,
    },
    epochs: 3,
    batch: 256,
    tail_pct: 75.0,
};

impl Workload {
    pub fn by_name(name: &str) -> Result<Workload, String> {
        match name {
            "serve-small" => Ok(Workload::Serve(SERVE_SMALL)),
            "serve-large" => Ok(Workload::Serve(SERVE_LARGE)),
            "train" => Ok(Workload::Train(TRAIN)),
            other => Err(format!(
                "unknown workload {other} (serve-small|serve-large|train)"
            )),
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Workload::Serve(w) => w.name,
            Workload::Train(w) => w.name,
        }
    }

    /// Digest of the workload's whole configuration.
    pub fn digest(&self) -> u64 {
        fnv1a(format!("{MODEL} {SETUPS} {self:?}").as_bytes())
    }
}
