//! The full training checkpoint: parameters, Adam moments, RNG state,
//! counters, and the loss trajectory — everything a killed run needs to
//! resume bitwise identically to an uninterrupted one.
//!
//! # Moving a checkpoint, not copying it
//!
//! A save streams each blob straight from the checkpoint's tensors to
//! disk ([`blob::write_to`]); the optimizer moments get their `m.` /
//! `v.` names as a record prefix, not by cloning each moment. A load
//! decodes every tensor once, into the `Vec<f32>` a store then adopts:
//! [`TrainCheckpoint::load_params_into`] and
//! [`TrainCheckpoint::load_best_into`] consume the checkpoint and move
//! those buffers into the parameters.
//!
//! A load into a store commits whole or not at all. Every name and
//! shape is checked before the first value is written, so a refused
//! checkpoint leaves the store's values and version untouched — what
//! lets a serving replica keep its session when a swap fails.
//!
//! The on-disk format is unchanged by any of this: the format pin in
//! this module's tests holds the bytes of a fixed checkpoint.

use crate::blob::{self, NamedTensor};
use crate::manifest::{BlobEntry, Manifest, FORMAT_VERSION, MANIFEST_FILE};
use crate::CkptError;
use std::path::Path;
use stwa_nn::ParamStore;
use stwa_tensor::Tensor;

/// Blob holding the live model parameters.
pub const PARAMS_BLOB: &str = "params.bin";
/// Blob holding the Adam first/second moments (`m.<param>`, `v.<param>`).
pub const OPTIM_BLOB: &str = "optim.bin";
/// Blob holding the best-validation parameters (absent when no
/// evaluation has improved on the initial `inf`).
pub const BEST_BLOB: &str = "best.bin";

/// A complete training checkpoint, in memory.
///
/// Produced either by capturing a live trainer at an epoch boundary
/// ([`TrainCheckpoint::load_dir`] reverses it) or by
/// [`TrainCheckpoint::params_only`] for serving publishes that carry no
/// optimizer state.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Model name ([`stwa_core`-level] `ForecastModel::name`).
    pub model: String,
    /// Training seed; resume refuses a different one.
    pub seed: u64,
    /// Fingerprint of the training configuration.
    pub config_hash: u64,
    /// Completed epochs.
    pub epoch: usize,
    /// Optimizer steps taken (Adam's bias-correction `t`).
    pub step: u64,
    /// Trainer RNG stream state (xoshiro256++) at the epoch boundary.
    pub rng: [u64; 4],
    /// Best validation MAE so far (`inf` before the first improvement).
    pub best_val: f32,
    /// Epochs since `best_val` improved (early-stopping counter).
    pub since_best: usize,
    /// `(train_loss, val_mae)` per completed epoch.
    pub history: Vec<(f32, f32)>,
    /// Live parameters, in registration order.
    pub params: Vec<NamedTensor>,
    /// Adam first moments, aligned with `params` (empty when the
    /// checkpoint carries no optimizer state).
    pub opt_m: Vec<NamedTensor>,
    /// Adam second moments, aligned with `params`.
    pub opt_v: Vec<NamedTensor>,
    /// Best-validation parameters (empty when never captured).
    pub best_params: Vec<NamedTensor>,
}

/// Copy every parameter of `store` into named tensors, in registration
/// order.
pub fn capture_params(store: &ParamStore) -> Vec<NamedTensor> {
    store
        .params()
        .iter()
        .map(|p| NamedTensor {
            name: p.name().to_string(),
            shape: p.shape(),
            data: p.value().into_vec(),
        })
        .collect()
}

impl TrainCheckpoint {
    /// A parameters-only checkpoint — what a serving publish carries.
    /// Epoch/step/RNG are zeroed and the optimizer blobs are empty;
    /// resuming *training* from one of these is refused at the trainer
    /// level (no optimizer state), but [`TrainCheckpoint::load_params_into`]
    /// and freeze-from-registry work unchanged.
    pub fn params_only(model: impl Into<String>, store: &ParamStore) -> TrainCheckpoint {
        TrainCheckpoint {
            model: model.into(),
            seed: 0,
            config_hash: 0,
            epoch: 0,
            step: 0,
            rng: [0; 4],
            best_val: f32::INFINITY,
            since_best: 0,
            history: Vec::new(),
            params: capture_params(store),
            opt_m: Vec::new(),
            opt_v: Vec::new(),
            best_params: Vec::new(),
        }
    }

    /// Whether the checkpoint carries Adam moments (a training resume
    /// needs them; a serving publish does not).
    pub fn has_optimizer(&self) -> bool {
        !self.opt_m.is_empty() || !self.opt_v.is_empty()
    }

    /// Write the checkpoint into `dir` (which must exist) as blobs plus
    /// `manifest.json`, recording `version` in the manifest. Returns the
    /// manifest that was written.
    ///
    /// Atomicity is the *caller's* job: the registry saves into a temp
    /// directory and renames it into place. `save_dir` itself writes the
    /// manifest last, so a torn write inside the directory leaves either
    /// no manifest (→ `MissingManifest`) or a manifest whose checksums
    /// expose the damage.
    pub fn save_dir(&self, dir: &Path, version: u32) -> Result<Manifest, CkptError> {
        let _span = stwa_observe::span!("ckpt.save");
        let mut blobs = Vec::new();
        let mut write = |file: &str, groups: &[(&str, &[NamedTensor])]| -> Result<(), CkptError> {
            let (bytes, checksum) = blob::write_file(&dir.join(file), groups)?;
            blobs.push(BlobEntry {
                file: file.to_string(),
                bytes,
                checksum,
            });
            Ok(())
        };
        write(PARAMS_BLOB, &[("", &self.params)])?;
        if self.has_optimizer() {
            write(OPTIM_BLOB, &[("m.", &self.opt_m), ("v.", &self.opt_v)])?;
        }
        if !self.best_params.is_empty() {
            write(BEST_BLOB, &[("", &self.best_params)])?;
        }
        let manifest = Manifest {
            format: FORMAT_VERSION,
            model: self.model.clone(),
            version,
            seed: self.seed,
            config_hash: self.config_hash,
            epoch: self.epoch,
            step: self.step,
            rng: self.rng,
            best_val: self.best_val,
            since_best: self.since_best,
            loss_trajectory: self.history.clone(),
            blobs,
        };
        manifest.write(&dir.join(MANIFEST_FILE))?;
        stwa_observe::counter!("ckpt.saves").incr();
        Ok(manifest)
    }

    /// Load and fully verify a checkpoint directory: manifest first,
    /// then every blob against its recorded byte count and checksum,
    /// then each tensor record's own checksum. Any corruption is a
    /// typed [`CkptError`].
    pub fn load_dir(dir: &Path) -> Result<TrainCheckpoint, CkptError> {
        let _span = stwa_observe::span!("ckpt.load");
        let manifest = Manifest::read(&dir.join(MANIFEST_FILE))?;
        let read = |file: &str| -> Result<Vec<NamedTensor>, CkptError> {
            match manifest.blob(file) {
                Some(entry) => blob::read_file(&dir.join(file), entry.bytes, entry.checksum),
                None => Ok(Vec::new()),
            }
        };
        let params = read(PARAMS_BLOB)?;
        if manifest.blob(PARAMS_BLOB).is_none() {
            return Err(CkptError::Format {
                path: dir.join(MANIFEST_FILE),
                detail: format!("manifest has no '{PARAMS_BLOB}' entry"),
            });
        }
        let moments = read(OPTIM_BLOB)?;
        let mut opt_m = Vec::new();
        let mut opt_v = Vec::new();
        for mut t in moments {
            let half = if t.name.starts_with("m.") {
                &mut opt_m
            } else if t.name.starts_with("v.") {
                &mut opt_v
            } else {
                return Err(CkptError::Format {
                    path: dir.join(OPTIM_BLOB),
                    detail: format!(
                        "optimizer tensor '{}' has neither 'm.' nor 'v.' prefix",
                        t.name
                    ),
                });
            };
            t.name.drain(..2);
            half.push(t);
        }
        let best_params = read(BEST_BLOB)?;
        stwa_observe::counter!("ckpt.loads").incr();
        Ok(TrainCheckpoint {
            model: manifest.model,
            seed: manifest.seed,
            config_hash: manifest.config_hash,
            epoch: manifest.epoch,
            step: manifest.step,
            rng: manifest.rng,
            best_val: manifest.best_val,
            since_best: manifest.since_best,
            history: manifest.loss_trajectory,
            params,
            opt_m,
            opt_v,
            best_params,
        })
    }

    /// Overwrite `store`'s parameters from the checkpoint's `params`,
    /// matched **by name** and shape-checked — registration order may
    /// differ between the saving and loading build. Consumes the
    /// checkpoint: each tensor's buffer moves into its parameter. All or
    /// nothing: on a `Mismatch` no parameter has been written.
    pub fn load_params_into(self, store: &ParamStore) -> Result<(), CkptError> {
        load_named(self.params, store)
    }

    /// Overwrite `store` from the best-validation parameters instead
    /// (what a serving load wants when both are present), on the same
    /// terms as [`TrainCheckpoint::load_params_into`].
    pub fn load_best_into(self, store: &ParamStore) -> Result<(), CkptError> {
        if self.best_params.is_empty() {
            return self.load_params_into(store);
        }
        load_named(self.best_params, store)
    }
}

/// Name-matched, shape-checked bulk load into a store. Every parameter
/// is matched and checked ([`match_named`]) before the first
/// `set_value`, so a refused load leaves the store's values and version
/// untouched.
fn load_named(tensors: Vec<NamedTensor>, store: &ParamStore) -> Result<(), CkptError> {
    let values = match_named(tensors, store)?;
    for (p, v) in store.params().iter().zip(values) {
        p.set_value(v);
    }
    Ok(())
}

/// `tensors` matched to `store`'s parameters **by name**, shape-checked,
/// and returned in registration order, each buffer moved into its
/// tensor. Checkpoint records that name no parameter are ignored.
pub fn match_named(
    tensors: Vec<NamedTensor>,
    store: &ParamStore,
) -> Result<Vec<Tensor>, CkptError> {
    let params = store.params();
    let picks = params
        .iter()
        .map(|p| {
            let at = tensors
                .iter()
                .position(|t| t.name == p.name())
                .ok_or_else(|| {
                    CkptError::Mismatch(format!("checkpoint has no tensor named '{}'", p.name()))
                })?;
            let t = &tensors[at];
            if t.shape != p.shape() || t.data.len() != t.len() {
                return Err(CkptError::Mismatch(format!(
                    "shape mismatch for '{}': checkpoint {:?} ({} values), model {:?}",
                    p.name(),
                    t.shape,
                    t.data.len(),
                    p.shape()
                )));
            }
            Ok(at)
        })
        .collect::<Result<Vec<usize>, CkptError>>()?;
    let mut tensors: Vec<Option<NamedTensor>> = tensors.into_iter().map(Some).collect();
    Ok(picks
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            // A name the store registered twice reads one record: copy
            // it for every use but the last, which takes the buffer.
            let t = if picks[i + 1..].contains(&at) {
                tensors[at].clone()
            } else {
                tensors[at].take()
            }
            .expect("a record is taken by its last use only");
            Tensor::from_vec(t.data, &t.shape).expect("length checked above")
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "stwa_ckpt_test_{tag}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_store() -> ParamStore {
        let store = ParamStore::new();
        store.param(
            "enc.w",
            Tensor::from_vec(vec![1.0, -2.5, 3.25, 0.125], &[2, 2]).unwrap(),
        );
        store.param("enc.b", Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        store
    }

    fn sample_ckpt() -> TrainCheckpoint {
        let store = sample_store();
        let mut ckpt = TrainCheckpoint::params_only("ST-WA", &store);
        ckpt.seed = 21;
        ckpt.config_hash = 0xABCD;
        ckpt.epoch = 3;
        ckpt.step = 51;
        ckpt.rng = [1, 2, 3, 4];
        ckpt.best_val = 18.5;
        ckpt.since_best = 1;
        ckpt.history = vec![(30.0, 20.0), (25.0, 18.5), (24.0, 19.0)];
        ckpt.opt_m = ckpt
            .params
            .iter()
            .map(|t| NamedTensor {
                name: t.name.clone(),
                shape: t.shape.clone(),
                data: vec![0.01; t.data.len()],
            })
            .collect();
        ckpt.opt_v = ckpt
            .params
            .iter()
            .map(|t| NamedTensor {
                name: t.name.clone(),
                shape: t.shape.clone(),
                data: vec![0.001; t.data.len()],
            })
            .collect();
        ckpt.best_params = ckpt.params.clone();
        ckpt
    }

    #[test]
    fn save_load_roundtrip_is_bitwise() {
        let dir = temp_dir("roundtrip");
        let ckpt = sample_ckpt();
        ckpt.save_dir(&dir, 1).unwrap();
        let back = TrainCheckpoint::load_dir(&dir).unwrap();
        assert_eq!(back.model, ckpt.model);
        assert_eq!(back.seed, ckpt.seed);
        assert_eq!(back.config_hash, ckpt.config_hash);
        assert_eq!(back.epoch, ckpt.epoch);
        assert_eq!(back.step, ckpt.step);
        assert_eq!(back.rng, ckpt.rng);
        assert_eq!(back.best_val.to_bits(), ckpt.best_val.to_bits());
        assert_eq!(back.since_best, ckpt.since_best);
        assert_eq!(back.history.len(), ckpt.history.len());
        for (a, b) in ckpt.history.iter().zip(&back.history) {
            assert_eq!(a.0.to_bits(), b.0.to_bits());
            assert_eq!(a.1.to_bits(), b.1.to_bits());
        }
        for (a, b) in ckpt.params.iter().zip(&back.params) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.shape, b.shape);
            for (x, y) in a.data.iter().zip(&b.data) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(back.opt_m.len(), ckpt.opt_m.len());
        assert_eq!(back.opt_v.len(), ckpt.opt_v.len());
        assert_eq!(back.best_params.len(), ckpt.best_params.len());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn params_only_skips_optimizer_blob() {
        let dir = temp_dir("params_only");
        let store = sample_store();
        let ckpt = TrainCheckpoint::params_only("ST-WA", &store);
        assert!(!ckpt.has_optimizer());
        ckpt.save_dir(&dir, 1).unwrap();
        assert!(!dir.join(OPTIM_BLOB).exists());
        assert!(!dir.join(BEST_BLOB).exists());
        let back = TrainCheckpoint::load_dir(&dir).unwrap();
        assert!(!back.has_optimizer());
        assert!(back.best_params.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn load_params_into_restores_store_values() {
        let dir = temp_dir("load_into");
        sample_ckpt().save_dir(&dir, 1).unwrap();
        let back = TrainCheckpoint::load_dir(&dir).unwrap();
        let fresh = ParamStore::new();
        fresh.param("enc.w", Tensor::zeros(&[2, 2]));
        fresh.param("enc.b", Tensor::zeros(&[2]));
        back.load_params_into(&fresh).unwrap();
        assert_eq!(
            fresh.params()[0].value().data(),
            &[1.0, -2.5, 3.25, 0.125]
        );
        assert_eq!(fresh.params()[1].value().data(), &[0.5, -0.5]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The blobs of [`pinned_ckpt`] as format 1 lays them out: `(file,
    /// bytes, FNV-1a of the file)`, recorded from the encode-then-write
    /// path the streaming writer replaced. A change here is a change to
    /// the on-disk format, and old registries would stop loading.
    const PINNED_BLOBS: [(&str, u64, u64); 3] = [
        (PARAMS_BLOB, 138, 0xbc48_3847_23e5_2a42),
        (OPTIM_BLOB, 268, 0x4f66_1c57_01d0_abd3),
        (BEST_BLOB, 138, 0xffc3_ade6_39c4_8918),
    ];

    /// [`sample_ckpt`] with best-validation parameters of their own, so
    /// each of the three blobs holds different bytes.
    fn pinned_ckpt() -> TrainCheckpoint {
        let mut ckpt = sample_ckpt();
        for t in &mut ckpt.best_params {
            for v in &mut t.data {
                *v *= -0.5;
            }
        }
        ckpt
    }

    #[test]
    fn blobs_keep_their_format_bytes() {
        let dir = temp_dir("format_pin");
        let manifest = pinned_ckpt().save_dir(&dir, 1).unwrap();
        for (file, bytes, checksum) in PINNED_BLOBS {
            let on_disk = std::fs::read(dir.join(file)).unwrap();
            assert_eq!(
                (on_disk.len() as u64, crate::fnv1a64(&on_disk)),
                (bytes, checksum),
                "{file} changed its bytes"
            );
            let entry = manifest.blob(file).unwrap();
            assert_eq!(
                (entry.bytes, entry.checksum),
                (bytes, checksum),
                "{file} entry"
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_refused_load_leaves_the_store_untouched() {
        // Every parameter but the last matches, so a parameter-by-
        // parameter load would have written the first before refusing.
        let mut ckpt = TrainCheckpoint::params_only("ST-WA", &sample_store());
        ckpt.params.pop();
        for t in &mut ckpt.params {
            t.data.iter_mut().for_each(|v| *v = 9.0);
        }
        let store = sample_store();
        let before = store.version();
        assert!(matches!(
            ckpt.load_params_into(&store),
            Err(CkptError::Mismatch(_))
        ));
        assert_eq!(
            store.version(),
            before,
            "a refused load must not bump the version"
        );
        assert_eq!(store.params()[0].value().data(), &[1.0, -2.5, 3.25, 0.125]);
    }

    #[test]
    fn load_into_mismatched_store_is_typed() {
        let dir = temp_dir("mismatch");
        sample_ckpt().save_dir(&dir, 1).unwrap();
        let back = TrainCheckpoint::load_dir(&dir).unwrap();

        let missing = ParamStore::new();
        missing.param("other.w", Tensor::zeros(&[2, 2]));
        assert!(matches!(
            back.clone().load_params_into(&missing),
            Err(CkptError::Mismatch(_))
        ));

        let wrong_shape = ParamStore::new();
        wrong_shape.param("enc.w", Tensor::zeros(&[3, 3]));
        assert!(matches!(
            back.load_params_into(&wrong_shape),
            Err(CkptError::Mismatch(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
