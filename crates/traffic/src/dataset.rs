//! Datasets: PEMS-shaped configurations, chronological splits, z-score
//! scaling, and sliding-window supervised samples.

use crate::generator::{generate_flow, GeneratorConfig};
use crate::network::RoadNetwork;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_tensor::{Result, Tensor, TensorError};

/// Named dataset configuration: a road network layout plus generator
/// knobs. The `pems*_like` constructors mirror the four paper datasets'
/// relative sizes (PEMS07 largest, PEMS08 smallest, PEMS03 longest) at a
/// scale where every experiment reruns on a laptop CPU; `full_scale()`
/// restores the paper's N and duration.
#[derive(Debug, Clone)]
pub struct DatasetConfig {
    pub name: String,
    pub num_corridors: usize,
    pub sensors_per_corridor: usize,
    pub generator: GeneratorConfig,
    pub seed: u64,
}

impl DatasetConfig {
    fn new(
        name: &str,
        num_corridors: usize,
        sensors_per_corridor: usize,
        days: usize,
        seed: u64,
    ) -> Self {
        DatasetConfig {
            name: name.to_string(),
            num_corridors,
            sensors_per_corridor,
            generator: GeneratorConfig {
                days,
                ..GeneratorConfig::default()
            },
            seed,
        }
    }

    /// PEMS03-like: the longest dataset (paper: N=358, 3 months).
    pub fn pems03_like() -> Self {
        Self::new("PEMS03", 6, 6, 21, 3003)
    }

    /// PEMS04-like (paper: N=307, 2 months) — the paper's ablation
    /// dataset.
    pub fn pems04_like() -> Self {
        Self::new("PEMS04", 5, 6, 14, 3004)
    }

    /// PEMS07-like: the largest sensor count (paper: N=883, 4 months).
    pub fn pems07_like() -> Self {
        Self::new("PEMS07", 8, 6, 21, 3007)
    }

    /// PEMS08-like: the smallest (paper: N=170, 2 months).
    pub fn pems08_like() -> Self {
        Self::new("PEMS08", 4, 5, 14, 3008)
    }

    /// Tiny config for unit/integration tests.
    pub fn small() -> Self {
        Self::new("SMALL", 2, 3, 5, 42)
    }

    /// Scale this configuration up to the paper's actual N and duration.
    /// (Slow on CPU; provided for completeness.)
    pub fn full_scale(mut self) -> Self {
        match self.name.as_str() {
            "PEMS03" => {
                self.num_corridors = 45;
                self.sensors_per_corridor = 8;
                self.generator.days = 91;
            }
            "PEMS04" => {
                self.num_corridors = 38;
                self.sensors_per_corridor = 8;
                self.generator.days = 59;
            }
            "PEMS07" => {
                self.num_corridors = 110;
                self.sensors_per_corridor = 8;
                self.generator.days = 122;
            }
            "PEMS08" => {
                self.num_corridors = 21;
                self.sensors_per_corridor = 8;
                self.generator.days = 62;
            }
            _ => {}
        }
        self
    }

    /// Number of sensors this config will produce.
    pub fn num_sensors(&self) -> usize {
        self.num_corridors * self.sensors_per_corridor
    }
}

/// Z-score normalization fitted on the training portion only (matching
/// the baselines' standard protocol — fitting on all data would leak the
/// test distribution).
///
/// A single (mean, std) pair is used across all attributes, which is
/// exact for the paper's F = 1 flow setting. With the optional extra
/// attributes (speed, time encodings) the transform is still an affine
/// map per feature — models with biases absorb the shared shift — but a
/// per-feature scaler would be the natural upgrade if those features
/// become primary.
#[derive(Debug, Clone, Copy)]
pub struct Scaler {
    pub mean: f32,
    pub std: f32,
}

impl Scaler {
    /// Fit on a tensor of raw values.
    pub fn fit(data: &Tensor) -> Scaler {
        Self::fit_rows(std::iter::once(data.data()))
    }

    /// Fit on the concatenation of `rows`, read in place: run-once code
    /// draws nothing from the buffer pool, which would keep it for the
    /// life of the process. Bit for bit the `mean_all` and
    /// `add_scalar(-mean).square().mean_all()` of a copy of the rows
    /// (same element order, same per-element `x + -mean` and `c * c`).
    fn fit_rows<'a>(rows: impl Iterator<Item = &'a [f32]> + Clone) -> Scaler {
        let count = rows.clone().map(<[f32]>::len).sum::<usize>() as f32;
        let mean = rows.clone().flatten().sum::<f32>() / count;
        let var = rows.flatten().map(|&x| x + -mean).map(|c| c * c).sum::<f32>() / count;
        Scaler {
            mean,
            std: var.sqrt().max(1e-6),
        }
    }

    /// The normalization as `x * a + b`.
    fn affine(&self) -> (f32, f32) {
        (1.0 / self.std, -self.mean / self.std)
    }

    pub fn transform(&self, data: &Tensor) -> Tensor {
        let (a, b) = self.affine();
        data.affine(a, b)
    }

    pub fn inverse(&self, data: &Tensor) -> Tensor {
        data.affine(self.std, self.mean)
    }
}

/// Supervised tensors for one split.
pub struct SplitTensors {
    /// Inputs `[num_samples, N, H, F]`, normalized.
    pub x: Tensor,
    /// Targets `[num_samples, N, U, F]`, in the raw (vehicle-count) scale.
    pub y: Tensor,
}

/// A complete synthetic dataset: raw series, network, scaler, and split
/// boundaries.
pub struct TrafficDataset {
    config: DatasetConfig,
    network: RoadNetwork,
    /// Raw flow, `[N, T, F]`.
    data: Tensor,
    scaler: Scaler,
    train_end: usize,
    val_end: usize,
}

impl TrafficDataset {
    /// Generate the dataset described by `config` (deterministic in
    /// `config.seed`). Splits chronologically 60/20/20 like the paper.
    pub fn generate(config: DatasetConfig) -> TrafficDataset {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let network =
            RoadNetwork::generate(config.num_corridors, config.sensors_per_corridor, &mut rng);
        let data = generate_flow(&network, &config.generator, &mut rng);
        let (t, f) = (data.shape()[1], data.shape()[2]);
        let train_end = t * 6 / 10;
        let val_end = t * 8 / 10;
        let train_rows = data.data().chunks((t * f).max(1)).map(|s| &s[..train_end * f]);
        let scaler = Scaler::fit_rows(train_rows);
        TrafficDataset {
            config,
            network,
            data,
            scaler,
            train_end,
            val_end,
        }
    }

    pub fn config(&self) -> &DatasetConfig {
        &self.config
    }

    pub fn network(&self) -> &RoadNetwork {
        &self.network
    }

    pub fn scaler(&self) -> Scaler {
        self.scaler
    }

    /// Raw series `[N, T, F]`.
    pub fn raw(&self) -> &Tensor {
        &self.data
    }

    pub fn num_sensors(&self) -> usize {
        self.data.shape()[0]
    }

    pub fn num_timestamps(&self) -> usize {
        self.data.shape()[1]
    }

    /// Build `(x, y)` supervised pairs from a `[N, T_range, F]` slice:
    /// inputs are the `h` past steps (normalized row by row as they are
    /// copied), targets the `u` future steps (raw scale). `stride`
    /// subsamples window origins to bound memory on long-history configs.
    fn windows(
        &self,
        start: usize,
        end: usize,
        h: usize,
        u: usize,
        stride: usize,
    ) -> Result<SplitTensors> {
        let t_range = end - start;
        if h + u > t_range {
            return Err(TensorError::Invalid(format!(
                "windows: H={h} + U={u} exceeds split length {t_range}"
            )));
        }
        let n = self.num_sensors();
        let f = self.data.shape()[2];
        let num = (t_range - h - u) / stride + 1;
        let mut x = Vec::with_capacity(num * n * h * f);
        let mut y = Vec::with_capacity(num * n * u * f);
        let (a, b) = self.scaler.affine();
        let t_total = self.data.shape()[1];
        for s in 0..num {
            let origin = start + s * stride;
            for i in 0..n {
                let base = i * t_total * f;
                let rows = &self.data.data()[base + origin * f..base + (origin + h) * f];
                x.extend(rows.iter().map(|&v| v * a + b));
                y.extend_from_slice(
                    &self.data.data()[base + (origin + h) * f..base + (origin + h + u) * f],
                );
            }
        }
        Ok(SplitTensors {
            x: Tensor::from_vec(x, &[num, n, h, f])?,
            y: Tensor::from_vec(y, &[num, n, u, f])?,
        })
    }

    /// Training samples (first 60% of the timeline).
    pub fn train(&self, h: usize, u: usize, stride: usize) -> Result<SplitTensors> {
        self.windows(0, self.train_end, h, u, stride)
    }

    /// Validation samples (next 20%).
    pub fn val(&self, h: usize, u: usize, stride: usize) -> Result<SplitTensors> {
        self.windows(self.train_end, self.val_end, h, u, stride)
    }

    /// Test samples (final 20%).
    pub fn test(&self, h: usize, u: usize, stride: usize) -> Result<SplitTensors> {
        self.windows(self.val_end, self.num_timestamps(), h, u, stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> TrafficDataset {
        TrafficDataset::generate(DatasetConfig::small())
    }

    #[test]
    fn pems_like_configs_are_ordered_like_the_paper() {
        // PEMS07 has the most sensors, PEMS08 the fewest; PEMS03 runs
        // longer than PEMS04/08.
        let n3 = DatasetConfig::pems03_like();
        let n4 = DatasetConfig::pems04_like();
        let n7 = DatasetConfig::pems07_like();
        let n8 = DatasetConfig::pems08_like();
        assert!(n7.num_sensors() > n3.num_sensors());
        assert!(n3.num_sensors() > n8.num_sensors());
        assert!(n3.generator.days > n4.generator.days);
        assert_eq!(n8.generator.days, n4.generator.days);
    }

    #[test]
    fn full_scale_restores_paper_sizes() {
        let c = DatasetConfig::pems07_like().full_scale();
        assert_eq!(c.num_sensors(), 880); // paper: 883
        assert_eq!(c.generator.days, 122); // ~4 months
    }

    #[test]
    fn split_boundaries_are_60_20_20() {
        let ds = small();
        let t = ds.num_timestamps();
        assert_eq!(ds.train_end, t * 6 / 10);
        assert_eq!(ds.val_end, t * 8 / 10);
    }

    #[test]
    fn scaler_roundtrip_and_train_normalization() {
        let ds = small();
        let scaler = ds.scaler();
        let train_raw = ds.raw().narrow(1, 0, ds.train_end).unwrap();
        let normed = scaler.transform(&train_raw);
        let m = normed.mean_all().item().unwrap();
        assert!(m.abs() < 1e-3, "train mean after scaling: {m}");
        let back = scaler.inverse(&normed);
        assert!(back.approx_eq(&train_raw, 0.1));
    }

    #[test]
    fn window_shapes() {
        let ds = small();
        let split = ds.train(12, 12, 1).unwrap();
        let n = ds.num_sensors();
        assert_eq!(&split.x.shape()[1..], &[n, 12, 1]);
        assert_eq!(&split.y.shape()[1..], &[n, 12, 1]);
        assert_eq!(split.x.shape()[0], split.y.shape()[0]);
    }

    #[test]
    fn stride_reduces_sample_count() {
        let ds = small();
        let s1 = ds.train(12, 12, 1).unwrap().x.shape()[0];
        let s4 = ds.train(12, 12, 4).unwrap().x.shape()[0];
        assert!(s4 < s1);
        assert!(s4 >= s1 / 4);
    }

    #[test]
    fn x_window_aligns_with_y_window() {
        // The target window must start exactly where the input window
        // ends: y[0] of sample s equals raw[t = origin + H].
        let ds = small();
        let split = ds.test(6, 3, 1).unwrap();
        let origin = ds.val_end; // first test sample origin
        let n0_yfirst = split.y.at(&[0, 0, 0, 0]);
        assert_eq!(n0_yfirst, ds.raw().at(&[0, origin + 6, 0]));
        // And x is the normalized version of the preceding steps.
        let expect_x = ds.scaler().transform(ds.raw()).at(&[0, origin + 5, 0]);
        assert!((split.x.at(&[0, 0, 5, 0]) - expect_x).abs() < 1e-6);
    }

    #[test]
    fn windows_reject_oversized_h() {
        let ds = small();
        let len = ds.num_timestamps() - ds.val_end;
        assert!(ds.test(len, 1, 1).is_err());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TrafficDataset::generate(DatasetConfig::small());
        let b = TrafficDataset::generate(DatasetConfig::small());
        assert_eq!(a.raw(), b.raw());
    }
}
