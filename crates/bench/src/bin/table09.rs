//! Table IX — Effect of the window-size schedule on PEMS04, H = 12.
//!
//! Runs ST-WA under the paper's six schedules: three 3-layer
//! permutations, two 2-layer splits, and the degenerate single-window
//! single-layer configuration.
//!
//! Paper shape: the 3-layer schedules are close to each other (the
//! method is insensitive to the exact split), the 2-layer ones slightly
//! worse, and S = H = 12 (one layer, one window) clearly worst.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_bench::harness::{metric_cells, run_model, ResultTable};
use stwa_bench::{dataset_for, Args};
use stwa_core::{StwaConfig, StwaModel};

const SCHEDULES: [&[usize]; 6] = [&[3, 2, 2], &[2, 3, 2], &[2, 2, 3], &[4, 3], &[6, 2], &[12]];

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse();
    let (h, u) = (12, 12);
    let dataset = dataset_for("PEMS04", &args);
    let mut table = ResultTable::new(
        "Table IX: Effect of window sizes, PEMS04",
        &["layers", "S", "MAE", "MAPE%", "RMSE"],
    );
    for schedule in SCHEDULES {
        let label = schedule
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join("/");
        let mut rng = StdRng::seed_from_u64(args.seed);
        let config = StwaConfig::st_wa(dataset.num_sensors(), h, u).with_windows(schedule);
        let model = StwaModel::new(config, &mut rng)?;
        let report = run_model(&model, &dataset, h, u, &args)?;
        let r = &report;
        {
            let mut row = vec![schedule.len().to_string(), label];
            row.extend(metric_cells(&r.test));
            table.push(row);
        }
    }
    table.emit(&args.out_dir, "table09")?;
    Ok(())
}
