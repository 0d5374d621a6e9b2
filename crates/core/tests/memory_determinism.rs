//! End-to-end gates for the buffer pool: a short training run must
//! produce bitwise-identical loss trajectories regardless of the worker
//! thread count, and its manifest must carry the allocator counters.
//! What a pool-off run used to prove — no kernel reads scratch it did
//! not write — is held by `step_trajectory.rs`'s NaN-poisoned run and
//! the per-kernel poisoned-pool proptests in the tensor and autograd
//! crates.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_core::{StwaConfig, StwaModel, TrainConfig, Trainer};
use stwa_traffic::{DatasetConfig, TrafficDataset};

/// Both tests touch process-global state (the recording toggle, the
/// pool thread count), so they must not interleave.
static GLOBAL_STATE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Two-epoch training run on the small synthetic dataset; returns the
/// per-epoch `(train_loss, val_mae)` trajectory as raw bits so equality
/// checks are exact, not within-epsilon.
fn run_trajectory(dataset: &TrafficDataset) -> (Vec<(u32, u32)>, stwa_core::TrainReport) {
    let mut rng = StdRng::seed_from_u64(7);
    let model = StwaModel::new(StwaConfig::st_wa(dataset.num_sensors(), 12, 3), &mut rng)
        .expect("model build");
    let trainer = Trainer::new(TrainConfig {
        epochs: 2,
        batch_size: 16,
        train_stride: 8,
        eval_stride: 8,
        ..TrainConfig::default()
    });
    let report = trainer.train(&model, dataset, 12, 3).expect("train");
    let bits = report
        .history
        .iter()
        .map(|&(loss, mae)| (loss.to_bits(), mae.to_bits()))
        .collect();
    (bits, report)
}

#[test]
fn a_training_run_reports_pool_hits_in_its_manifest() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = TrafficDataset::generate(DatasetConfig::small());

    // Counters only record while observability is on.
    let was_recording = stwa_observe::enabled();
    stwa_observe::set_enabled(true);
    let (trajectory, report) = run_trajectory(&dataset);
    stwa_observe::set_enabled(was_recording);

    assert_eq!(trajectory.len(), 2, "expected one history entry per epoch");
    let hits = report
        .manifest
        .counters
        .iter()
        .find(|(name, _)| name == "alloc.pool_hits")
        .map(|&(_, v)| v);
    assert!(
        matches!(hits, Some(v) if v > 0),
        "manifest should report pool hits, got {hits:?}"
    );
}

#[test]
fn thread_count_does_not_change_loss_trajectory() {
    let _guard = GLOBAL_STATE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let dataset = TrafficDataset::generate(DatasetConfig::small());

    let restore = stwa_pool::current_threads();
    stwa_pool::set_threads(1);
    let (single, _) = run_trajectory(&dataset);

    stwa_pool::set_threads(8);
    let (multi, _) = run_trajectory(&dataset);

    stwa_pool::set_threads(restore);

    assert_eq!(
        single, multi,
        "loss trajectory must be bitwise identical across STWA_THREADS=1 \
         and STWA_THREADS=8"
    );
}
