//! The models and data the workloads run on, and where scratch files go.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_ckpt::{Registry, TrainCheckpoint};
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_traffic::{DatasetConfig, GeneratorConfig, TrafficDataset};

use crate::wire::Dims;

/// One model architecture under a registry name. Cheap to clone and
/// `Send`, so server replicas can rebuild it on their own threads.
#[derive(Clone)]
pub struct Subject {
    pub name: &'static str,
    pub config: StwaConfig,
}

impl Subject {
    /// `bench_serve`'s serving widths over `n` sensors and horizon `u`.
    fn serving_widths(n: usize, u: usize) -> StwaConfig {
        let mut cfg = StwaConfig::st_wa(n, 12, u);
        cfg.d = 32;
        cfg.heads = 8;
        cfg.k = 32;
        cfg.predictor_hidden = 512;
        cfg.decoder_hidden = (64, 128);
        cfg
    }

    /// The 48-sensor model both serve workloads put behind the socket.
    pub fn serving() -> Subject {
        Subject {
            name: "serving48",
            config: Subject::serving_widths(48, 3),
        }
    }

    /// The paper-default model `train_epoch` trains on PEMS08-like data.
    pub fn training() -> Subject {
        Subject {
            name: "train20",
            config: StwaConfig::st_wa(20, 12, 12),
        }
    }

    /// Serving widths over the city network, sensor attention
    /// restricted to each sensor's 2-hop corridor neighbours.
    pub fn city(dataset: &TrafficDataset) -> Subject {
        let graph = Arc::new(dataset.network().sensor_graph(2));
        Subject {
            name: "city1024",
            config: Subject::serving_widths(dataset.num_sensors(), 12).with_sensor_graph(graph),
        }
    }

    pub fn dims(&self) -> Dims {
        Dims {
            n: self.config.n,
            h: self.config.h,
            u: self.config.u,
            f: self.config.f_in,
        }
    }

    pub fn build(&self, weights_seed: u64) -> StwaModel {
        let mut rng = StdRng::seed_from_u64(weights_seed);
        StwaModel::new(self.config.clone(), &mut rng).expect("benchmark model config is valid")
    }

    /// Publish freshly initialised weights as the next registry
    /// version; returns it with the model that holds those weights.
    pub fn publish(&self, registry: &Registry, weights_seed: u64) -> (u32, StwaModel) {
        let model = self.build(weights_seed);
        let version = registry
            .publish(
                self.name,
                &TrainCheckpoint::params_only(self.name, model.store()),
            )
            .expect("publish to the scratch registry");
        (version, model)
    }
}

/// Weights of registry version `v` in the serve workloads. Fixed, not
/// drawn from `--seed`: the seed varies the traffic, and the served
/// model stays the same system across runs.
pub fn weights_seed(version: u64) -> u64 {
    41 + version
}

fn dataset(
    name: &str,
    corridors: usize,
    per_corridor: usize,
    days: usize,
    seed: u64,
) -> TrafficDataset {
    TrafficDataset::generate(DatasetConfig {
        name: name.to_string(),
        num_corridors: corridors,
        sensors_per_corridor: per_corridor,
        generator: GeneratorConfig {
            days,
            ..GeneratorConfig::default()
        },
        seed,
    })
}

/// Two days over the serving model's 48 sensors: ground truth for the
/// serve workloads' forecast-error figure.
pub fn serving_dataset() -> TrafficDataset {
    dataset("BENCH48", 8, 6, 2, 3048)
}

/// Two days over 1 024 sensors (128 corridors of 8).
pub fn city_dataset() -> TrafficDataset {
    dataset("CITY1024", 128, 8, 2, 31024)
}

/// A smaller city for `--smoke` runs.
pub fn smoke_city_dataset() -> TrafficDataset {
    dataset("CITY128", 16, 8, 2, 3128)
}

/// A scratch directory under `benchmark/out/`, removed on drop. The
/// benchmark writes nowhere else.
pub struct Scratch(PathBuf);

pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl Scratch {
    pub fn new(label: &str) -> Scratch {
        let dir = out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir under benchmark/out");
        Scratch(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
