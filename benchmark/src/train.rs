//! `train_epoch`: `Trainer::train` on PEMS08-like data, checkpointing
//! every epoch into a scratch registry. No serving code runs: the
//! graph-path forward, the autograd backward, Adam, the buffer pool and
//! fused kernels, the unpacked GEMMs, and the checkpoint save stall
//! between epochs are what this workload holds still.

use std::io;
use std::time::Instant;

use stwa_ckpt::Registry;
use stwa_core::{TrainConfig, TrainReport, Trainer};
use stwa_traffic::{DatasetConfig, TrafficDataset};

use crate::other;
use crate::report::{cpu_seconds, peak_rss_mib, Report};
use crate::stats::{percentile, sort, supported};
use crate::subject::{Scratch, Subject};

const BATCH: usize = 32;
/// Every second window origin: halves an epoch to about a second on a
/// 2-core host so that a run holds enough epochs to rank.
const TRAIN_STRIDE: usize = 2;
const EVAL_STRIDE: usize = 6;
/// `test_mae` after the contract's 20 epochs must stay under this (shorter
/// runs are not held to it); the runs
/// this was recorded from reached 21 to 23.
const TEST_MAE_CEILING: f32 = 30.0;

/// The epoch count is fixed by the run length, not by the clock, so
/// that `forecast_mae` compares like with like: 20 at the contract's
/// 20 seconds (about 0.8 s each on the 2-core host this was sized on).
pub fn epochs_for(seconds: f64) -> usize {
    (seconds.round() as usize).max(2)
}

pub struct Rig {
    pub subject: Subject,
    dataset: TrafficDataset,
    train_windows: usize,
}

impl Rig {
    /// Everything before `Trainer::train` is called: generate the
    /// dataset and count the training windows. There is no warm-up:
    /// the trainer pays its cold first epoch inside the timed call, as
    /// its users do.
    pub fn setup() -> io::Result<Rig> {
        let dataset = TrafficDataset::generate(DatasetConfig::pems08_like());
        let subject = Subject::training();
        let dims = subject.dims();
        let train_windows = dataset
            .train(dims.h, dims.u, TRAIN_STRIDE)
            .map_err(other)?
            .x
            .shape()[0];
        Ok(Rig {
            subject,
            dataset,
            train_windows,
        })
    }

    /// Train a freshly initialised model for `epochs`; wall and CPU
    /// seconds of the whole call and the trainer's report.
    fn train(
        &self,
        seed: u64,
        epochs: usize,
        scratch: &Scratch,
    ) -> io::Result<(f64, f64, TrainReport)> {
        let dims = self.subject.dims();
        let model = self.subject.build(seed);
        let config = TrainConfig {
            epochs,
            batch_size: BATCH,
            train_stride: TRAIN_STRIDE,
            eval_stride: EVAL_STRIDE,
            patience: usize::MAX,
            seed,
            shards: 1,
            save_every: 1,
            registry_root: Some(scratch.path().to_path_buf()),
            registry_name: Some(self.subject.name.to_string()),
            ..TrainConfig::default()
        };
        let (t0, cpu0) = (Instant::now(), cpu_seconds());
        let trained = Trainer::new(config)
            .train(&model, &self.dataset, dims.h, dims.u)
            .map_err(other)?;
        Ok((t0.elapsed().as_secs_f64(), cpu_seconds() - cpu0, trained))
    }
}

/// Losses finite and falling, the test error under its ceiling, one
/// checkpoint per epoch.
fn check(report: &mut Report, trained: &TrainReport, epochs: usize, scratch: &Scratch, name: &str) {
    report.attempted += epochs as u64;
    report.fail((epochs - trained.epochs_run) as u64, "epochs not run");
    report.check(
        "losses are finite",
        trained
            .history
            .iter()
            .all(|(l, v)| l.is_finite() && v.is_finite()),
    );
    let (first, last) = (
        trained.history[0].0,
        trained.history[trained.history.len() - 1].0,
    );
    report.check("final train loss is below the first epoch's", last < first);
    report.check(
        "test MAE is finite and under its ceiling",
        trained.test.mae.is_finite() && (epochs < 20 || trained.test.mae < TEST_MAE_CEILING),
    );
    let versions = Registry::open(scratch.path())
        .and_then(|r| r.versions(name))
        .map_or(0, |v| v.len());
    report.check("one checkpoint per epoch", versions == epochs);
}

/// The distribution of epoch training times, in microseconds.
fn report_epochs(report: &mut Report, trained: &TrainReport) {
    let mut epoch_us: Vec<f64> = trained
        .manifest
        .epochs
        .iter()
        .map(|e| e.wall_seconds * 1e6)
        .collect();
    sort(&mut epoch_us);
    report.put_latencies(epoch_us.len(), |q| {
        (percentile(&epoch_us, q), supported(epoch_us.len(), q))
    });
}

pub fn run(seed: u64, seconds: f64, setups: usize) -> io::Result<Report> {
    let mut report = Report::new("train_epoch");
    let rig = crate::timed_setups(&mut report, setups, |_| Rig::setup(), drop)?;

    let epochs = epochs_for(seconds);
    let scratch = Scratch::new("train_epoch");
    let (wall_s, cpu_s, trained) = rig.train(seed, epochs, &scratch)?;
    let windows = epochs * rig.train_windows;
    report.put("throughput_per_s", windows as f64 / wall_s, "1/s", windows);
    report.put("cpu_us_per_op", cpu_s * 1e6 / windows as f64, "us", windows);
    // An epoch is this workload's operation; with a dozen of them the
    // upper percentiles are order statistics of few samples, and say so.
    report_epochs(&mut report, &trained);
    report.put("forecast_mae", trained.test.mae as f64, "flow", 1);
    report.put("best_val_mae", trained.best_val_mae as f64, "flow", 1);
    check(&mut report, &trained, epochs, &scratch, rig.subject.name);
    report.put(
        "ok_share",
        1.0 - report.error_share(),
        "ratio",
        report.attempted as usize,
    );
    report.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    Ok(report)
}

/// The in-situ part of the traced run: two shorter trainings from the
/// same seed, `stwa_observe` off then on. The trainer gives no hook
/// between epochs, so the two cannot be interleaved; the first epoch of
/// each is dropped as cold.
pub fn run_traced(seed: u64, seconds: f64, report: &mut Report) -> io::Result<Rig> {
    let rig = Rig::setup()?;
    let epochs = (epochs_for(seconds) / 4).max(2);
    let mut rates = Vec::new();
    for on in [false, true] {
        let scratch = Scratch::new("train_epoch-traced");
        stwa_observe::reset();
        stwa_observe::set_enabled(on);
        let (_, _, trained) = rig.train(seed, epochs, &scratch)?;
        stwa_observe::set_enabled(false);
        if !on {
            report_epochs(report, &trained);
        }
        let warm: Vec<f64> = trained.manifest.epochs[1..]
            .iter()
            .map(|e| rig.train_windows as f64 / e.wall_seconds)
            .collect();
        rates.push(warm);
        check(report, &trained, epochs, &scratch, rig.subject.name);
    }
    report.put_trace_overhead(&rates[0], &rates[1]);
    Ok(rig)
}
