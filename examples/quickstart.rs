//! Quickstart: generate synthetic traffic, train ST-WA for a few
//! epochs, evaluate, and print a forecast.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::ckpt::TrainCheckpoint;
use st_wa::model::{ForecastModel, StwaConfig, StwaModel, TrainConfig, Trainer};
use st_wa::traffic::{DatasetConfig, TrafficDataset};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A synthetic PEMS-like dataset: 20 sensors on 4 corridors,
    //    two weeks of 5-minute flow counts.
    let dataset = TrafficDataset::generate(DatasetConfig::pems08_like());
    let n = dataset.num_sensors();
    println!(
        "dataset {}: {} sensors x {} timestamps",
        dataset.config().name,
        n,
        dataset.num_timestamps()
    );

    // 2. The paper's full model: stochastic spatio-temporal latents,
    //    window attention with window sizes (3, 2, 2), KL-regularized.
    let (h, u) = (12, 12); // one hour in, one hour out
    let mut rng = StdRng::seed_from_u64(7);
    let model = StwaModel::new(StwaConfig::st_wa(n, h, u), &mut rng)?;
    println!(
        "model {}: {} parameters",
        st_wa::model::ForecastModel::name(&model),
        st_wa::model::ForecastModel::store(&model).num_scalars()
    );

    // 3. Train with the paper's recipe (Adam, Huber + KL, early stop).
    let trainer = Trainer::new(TrainConfig {
        epochs: 8,
        train_stride: 4,
        eval_stride: 4,
        verbose: true,
        ..TrainConfig::default()
    });
    let report = trainer.train(&model, &dataset, h, u)?;
    println!("\ntest metrics: {}", report.test);

    // 4. Forecast the next hour for sensor 0 from the last test window.
    let test = dataset.test(h, u, 4)?;
    let last = test.x.shape()[0] - 1;
    let window = test.x.narrow(0, last, 1)?;
    let pred = trainer.predict(&model, &window, &dataset.scaler(), &mut rng)?;
    println!("\nsensor 0, next {u} steps (5-minute flow):");
    print!("  predicted:");
    for t in 0..u {
        print!(" {:6.1}", pred.at(&[0, 0, t, 0]));
    }
    print!("\n  actual:   ");
    for t in 0..u {
        print!(" {:6.1}", test.y.at(&[last, 0, t, 0]));
    }
    println!();

    // 5. Checkpoint round trip: save, restore into a fresh model, and
    //    verify the predictions agree bit for bit.
    let ckpt = std::env::temp_dir().join("stwa_quickstart_ckpt");
    std::fs::create_dir_all(&ckpt)?;
    TrainCheckpoint::params_only("ST-WA", ForecastModel::store(&model)).save_dir(&ckpt, 1)?;
    let mut rng2 = StdRng::seed_from_u64(999); // different init, overwritten by load
    let restored = StwaModel::new(StwaConfig::st_wa(n, h, u), &mut rng2)?;
    TrainCheckpoint::load_dir(&ckpt)?.load_params_into(ForecastModel::store(&restored))?;
    let pred2 = trainer.predict(&restored, &window, &dataset.scaler(), &mut rng)?;
    assert!(
        pred.approx_eq(&pred2, 0.0),
        "checkpoint must restore exactly"
    );
    println!("\ncheckpoint round trip OK -> {}", ckpt.display());
    Ok(())
}
