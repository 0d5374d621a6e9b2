//! The checkpoint contract in the tier-1 command, on a tiny model.
//!
//! A checkpoint is only useful if a damaged one is refused and a good
//! one resumes exactly. `stwa-ckpt`'s fault-injection corpus and
//! `stwa-core`'s resume tests cover both in depth; these two cases keep
//! one of each in `cargo test -q` at the root, in well under a second of
//! training:
//!
//! - a published blob with one flipped byte loads as a typed
//!   [`CkptError::ChecksumMismatch`], never a panic or a silently
//!   different model, and the registry's other versions still load;
//! - a run killed at its epoch-1 checkpoint and resumed by a fresh
//!   trainer, model and optimizer reaches the uninterrupted run's loss
//!   trajectory, parameters and test MAE bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::ckpt::{CkptError, Registry, TrainCheckpoint, PARAMS_BLOB};
use st_wa::model::{ForecastModel, StwaConfig, StwaModel, TrainConfig, Trainer};
use st_wa::traffic::{DatasetConfig, GeneratorConfig, TrafficDataset};

const H: usize = 12;
const U: usize = 3;

/// Two days over six sensors.
fn dataset() -> TrafficDataset {
    TrafficDataset::generate(DatasetConfig {
        generator: GeneratorConfig {
            days: 2,
            ..GeneratorConfig::default()
        },
        ..DatasetConfig::small()
    })
}

/// A narrow ST-WA model, the same weights on every call.
fn model(n: usize) -> StwaModel {
    let mut cfg = StwaConfig::st_wa(n, H, U);
    cfg.d = 8;
    cfg.heads = 2;
    cfg.k = 8;
    cfg.predictor_hidden = 16;
    cfg.decoder_hidden = (8, 16);
    StwaModel::new(cfg, &mut StdRng::seed_from_u64(5)).unwrap()
}

fn param_bits(model: &dyn ForecastModel) -> Vec<u32> {
    let params = model.store().params();
    params
        .iter()
        .flat_map(|p| {
            p.value()
                .data()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// A registry root of this process's own, empty.
fn scratch_root(tag: &str) -> std::path::PathBuf {
    let root =
        std::env::temp_dir().join(format!("stwa_ckpt_contract_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

#[test]
fn a_corrupted_blob_is_refused_with_a_typed_error() {
    let root = scratch_root("corrupt");
    let registry = Registry::open(&root).unwrap();
    let model = model(6);
    let ckpt = TrainCheckpoint::params_only("tiny", model.store());
    let good = registry.publish("tiny", &ckpt).unwrap();
    let bad = registry.publish("tiny", &ckpt).unwrap();

    let blob = registry.version_dir("tiny", bad).join(PARAMS_BLOB);
    let mut bytes = std::fs::read(&blob).unwrap();
    let at = bytes.len() - 5;
    bytes[at] ^= 0x10;
    std::fs::write(&blob, &bytes).unwrap();

    match registry.load("tiny", Some(bad)) {
        Err(CkptError::ChecksumMismatch { .. }) => {}
        Err(other) => panic!("a flipped byte must fail its checksum, got: {other}"),
        Ok(_) => panic!("a flipped byte loaded as a checkpoint"),
    }
    let intact = registry.load("tiny", Some(good)).unwrap();
    let fresh = self::model(6);
    intact.load_params_into(fresh.store()).unwrap();
    assert_eq!(param_bits(&fresh), param_bits(&model), "the intact version");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_killed_then_resumed_run_is_bitwise_the_uninterrupted_one() {
    let data = dataset();
    let n = data.num_sensors();
    let root = scratch_root("resume");
    let config = |epochs: usize| TrainConfig {
        epochs,
        batch_size: 16,
        train_stride: 6,
        eval_stride: 12,
        seed: 21,
        patience: 10,
        shards: 1,
        ..TrainConfig::default()
    };
    let run = |cfg: TrainConfig| {
        let model = model(n);
        let report = Trainer::new(cfg).train(&model, &data, H, U).unwrap();
        (
            report.history,
            param_bits(&model),
            report.test.mae.to_bits(),
        )
    };

    let straight = run(config(2));
    // "Killed" after the epoch-1 checkpoint: nothing but the registry
    // survives into the resumed run.
    let (killed, ..) = run(TrainConfig {
        save_every: 1,
        registry_root: Some(root.clone()),
        registry_name: Some("tiny".into()),
        ..config(1)
    });
    assert_eq!(killed.len(), 1);
    let dir = Registry::open(&root).unwrap().latest_dir("tiny").unwrap();
    let resumed = run(TrainConfig {
        resume_from: Some(dir),
        ..config(2)
    });

    let bits = |h: &[(f32, f32)]| {
        h.iter()
            .map(|(a, b)| (a.to_bits(), b.to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(
        bits(&resumed.0),
        bits(&straight.0),
        "loss / validation trajectory"
    );
    assert_eq!(resumed.1, straight.1, "parameters after the last epoch");
    assert_eq!(resumed.2, straight.2, "test MAE");
    let _ = std::fs::remove_dir_all(&root);
}
