//! Pre-packed dense layers: frozen `Linear`/`Mlp` weights re-laid into
//! the GEMM panel format at freeze time, so serving skips the per-call
//! B-matrix pack entirely. Each packed layer carries its panels at one
//! of two [`Precision`]s — f32 (bitwise-equal serving) or symmetric
//! int8 (see `stwa_tensor::quant`).
//!
//! Every f32 forward here mirrors the corresponding `stwa-nn` layer's
//! `forward`; `matmul_packed` is bitwise identical to `matmul` by the
//! kernel accumulation-order contract, so an f32 packed layer's output
//! matches the training-graph eval path bit-for-bit. The quantized precision
//! trades that bitwise contract for smaller panels; its correctness is
//! gated by the round-trip error bounds and the end-to-end forecast
//! accuracy gate instead (DESIGN.md §14).

use stwa_nn::layers::{Activation, Linear, Mlp};
use stwa_tensor::linalg::{gemm_packed_slice, matmul_packed, Epilogue, PackedMatrix};
use stwa_tensor::quant::{matmul_packed_int8_lean, PackedMatrixInt8, Precision};
use stwa_tensor::{mathfn, Result, Tensor, TensorError};

/// One weight matrix packed at a chosen [`Precision`].
enum PackedPanels {
    F32(PackedMatrix),
    Int8(PackedMatrixInt8),
}

impl PackedPanels {
    fn pack(w: &Tensor, precision: Precision) -> Result<PackedPanels> {
        Ok(match precision {
            Precision::F32 => PackedPanels::F32(PackedMatrix::pack(w)?),
            Precision::Int8 => PackedPanels::Int8(PackedMatrixInt8::pack(w)?),
        })
    }

    /// `act(x @ panels + bias)`. At f32 the bias and a ReLU ride the
    /// GEMM's tile stores ([`Epilogue`]); see [`PackedPanels::finish`].
    fn matmul(&self, x: &Tensor, bias: Option<&[f32]>, act: Activation) -> Result<Tensor> {
        let mut y = match self {
            PackedPanels::F32(p) => matmul_packed(x, p, epilogue(bias, act))?,
            PackedPanels::Int8(p) => matmul_packed_int8_lean(x, p)?,
        };
        self.finish(y.data_mut(), bias, act);
        Ok(y)
    }

    /// [`PackedPanels::matmul`] on raw rows, into `out[..rows·n]` — the
    /// same bits on those rows (every kernel treats rows independently,
    /// int8 row scales included).
    fn matmul_rows(
        &self,
        x: &[f32],
        rows: usize,
        out: &mut [f32],
        bias: Option<&[f32]>,
        act: Activation,
    ) {
        let out = match self {
            PackedPanels::F32(p) => {
                gemm_packed_slice(x, p, out, rows, epilogue(bias, act));
                &mut out[..rows * p.n()]
            }
            PackedPanels::Int8(p) => {
                let block = Tensor::from_vec(x[..rows * p.k()].to_vec(), &[rows, p.k()])
                    .and_then(|block| matmul_packed_int8_lean(&block, p))
                    .expect("a [rows, k] block against [k, n] panels");
                let out = &mut out[..rows * p.n()];
                out.copy_from_slice(block.data());
                out
            }
        };
        self.finish(out, bias, act);
    }

    /// What the product `y` still lacks of `act(· + bias)` — per element
    /// the graph path's `kind.apply(a + bias)`: after f32 panels, whose
    /// tiles added the bias and a ReLU, only a tanh or sigmoid pass;
    /// after int8 panels, whose rescale comes first, the bias pass too.
    fn finish(&self, y: &mut [f32], bias: Option<&[f32]>, act: Activation) {
        if let (PackedPanels::Int8(_), Some(bd)) = (self, bias) {
            for row in y.chunks_exact_mut(bd.len()) {
                for (o, &bv) in row.iter_mut().zip(bd) {
                    *o += bv;
                }
            }
        }
        match act {
            Activation::Identity => {}
            Activation::Relu if matches!(self, PackedPanels::F32(_)) => {}
            Activation::Relu => y.iter_mut().for_each(|o| *o = o.max(0.0)),
            Activation::Tanh => mathfn::tanh_slice(y),
            Activation::Sigmoid => mathfn::sigmoid_slice(y),
        }
    }

    fn packed_bytes(&self) -> usize {
        match self {
            PackedPanels::F32(p) => p.packed_bytes(),
            PackedPanels::Int8(p) => p.packed_bytes(),
        }
    }

    fn precision(&self) -> Precision {
        match self {
            PackedPanels::F32(_) => Precision::F32,
            PackedPanels::Int8(_) => Precision::Int8,
        }
    }
}

/// A frozen [`Linear`]: panel-packed weight plus a bias snapshot.
pub struct PackedDense {
    panels: PackedPanels,
    bias: Option<Tensor>,
    in_dim: usize,
    out_dim: usize,
}

impl PackedDense {
    /// Snapshot and pack a linear layer's current parameters at f32
    /// (the bitwise-equal serving precision).
    pub fn from_linear(layer: &Linear) -> Result<PackedDense> {
        PackedDense::from_linear_at(layer, Precision::F32)
    }

    /// Snapshot and pack a linear layer at the given precision. The
    /// bias stays f32 at every precision — it is O(n) against the
    /// weight's O(k·n) and is added post-GEMM in f32 regardless.
    pub fn from_linear_at(layer: &Linear, precision: Precision) -> Result<PackedDense> {
        let w = layer.weight_param().value();
        Ok(PackedDense {
            panels: PackedPanels::pack(&w, precision)?,
            bias: layer.bias_param().map(|b| b.value()),
            in_dim: layer.in_dim(),
            out_dim: layer.out_dim(),
        })
    }

    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Storage precision of the packed weight panels.
    pub fn precision(&self) -> Precision {
        self.panels.precision()
    }

    /// Bytes held by the packed weight panels.
    pub fn packed_bytes(&self) -> usize {
        self.panels.packed_bytes()
    }

    /// [`Linear::forward`] on the packed weight, off any graph.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        self.forward_act(x, Activation::Identity)
    }

    /// [`Linear::forward_act`] on the packed weight: per element the
    /// same `kind.apply(a + bias)` chain as the graph path's
    /// `bias_add_act` zip, with no pass of its own for the bias or a
    /// ReLU at f32.
    pub fn forward_act(&self, x: &Tensor, act: Activation) -> Result<Tensor> {
        let shape = x.shape().to_vec();
        let rank = shape.len();
        if rank == 0 || shape[rank - 1] != self.in_dim {
            return Err(TensorError::Invalid(format!(
                "PackedDense: expected last dim {}, got shape {:?}",
                self.in_dim, shape
            )));
        }
        let lead: usize = shape[..rank - 1].iter().product();
        let flat = x.reshape(&[lead, self.in_dim])?;
        let y = self
            .panels
            .matmul(&flat, self.bias.as_ref().map(Tensor::data), act)?;
        let mut out_shape = shape[..rank - 1].to_vec();
        out_shape.push(self.out_dim);
        y.reshape(&out_shape)
    }

    /// [`PackedDense::forward_act`] as a kernel over raw rows:
    /// `kernel(x, rows, out)` writes the layer's output for the `rows`
    /// input rows at the front of `x` into `out[..rows·out_dim]` (prior
    /// contents ignored) — for a caller that walks a wide layer a block
    /// of rows at a time through its own scratch. Same bits as the
    /// tensor entry on the same rows. The kernel borrows only plain
    /// slices and panels, so pool tasks can share it.
    pub(crate) fn rows_kernel(
        &self,
        act: Activation,
    ) -> impl Fn(&[f32], usize, &mut [f32]) + Sync + '_ {
        let panels = &self.panels;
        let bias = self.bias.as_ref().map(Tensor::data);
        move |x, rows, out| panels.matmul_rows(x, rows, out, bias, act)
    }
}

/// The part of `bias_add_act` an f32 GEMM's tile stores take: the bias
/// and a ReLU.
fn epilogue(bias: Option<&[f32]>, act: Activation) -> Epilogue<'_> {
    Epilogue {
        bias,
        relu: act == Activation::Relu,
    }
}

/// A frozen [`Mlp`]: every layer packed, activations snapshotted.
pub struct PackedMlp {
    layers: Vec<PackedDense>,
    activations: Vec<Activation>,
}

impl PackedMlp {
    pub fn from_mlp(mlp: &Mlp) -> Result<PackedMlp> {
        PackedMlp::from_mlp_at(mlp, Precision::F32)
    }

    pub fn from_mlp_at(mlp: &Mlp, precision: Precision) -> Result<PackedMlp> {
        Ok(PackedMlp {
            layers: mlp
                .layers()
                .iter()
                .map(|l| PackedDense::from_linear_at(l, precision))
                .collect::<Result<Vec<_>>>()?,
            activations: mlp.activations().to_vec(),
        })
    }

    /// [`Mlp::forward`] over the packed layers, off any graph.
    pub fn forward(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = x.clone();
        for (layer, act) in self.layers.iter().zip(&self.activations) {
            h = layer.forward_act(&h, *act)?;
        }
        Ok(h)
    }

    /// Every layer but the last — the part of a decoder that is cheap
    /// to materialize for all rows at once.
    pub(crate) fn forward_head(&self, x: &Tensor) -> Result<Tensor> {
        let mut h = x.clone();
        let head = self.layers.len() - 1; // `Mlp::new` asserts a layer.
        for (layer, act) in self.layers.iter().zip(&self.activations).take(head) {
            h = layer.forward_act(&h, *act)?;
        }
        Ok(h)
    }

    /// The last layer and its activation: `last(forward_head(x))` is
    /// [`PackedMlp::forward`].
    pub(crate) fn last(&self) -> (&PackedDense, Activation) {
        let last = self.layers.len() - 1;
        (&self.layers[last], self.activations[last])
    }

    pub fn packed_bytes(&self) -> usize {
        self.layers.iter().map(PackedDense::packed_bytes).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use stwa_autograd::Graph;
    use stwa_nn::ParamStore;

    #[test]
    fn packed_dense_bitwise_matches_linear_forward() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(1);
        let layer = Linear::new(&store, "l", 9, 13, &mut rng);
        let packed = PackedDense::from_linear(&layer).unwrap();
        let x = Tensor::randn(&[4, 6, 9], &mut rng);
        let g = Graph::no_grad();
        let want = layer
            .forward_act(&g, &g.constant(x.clone()), Activation::Tanh)
            .unwrap()
            .value();
        let got = packed.forward_act(&x, Activation::Tanh).unwrap();
        assert_eq!(want.data(), got.data());
        assert!(packed.packed_bytes() > 0);
        assert_eq!(packed.precision(), Precision::F32);
        // Wrong trailing dim rejected.
        assert!(packed.forward(&Tensor::zeros(&[2, 8])).is_err());
    }

    #[test]
    fn packed_mlp_bitwise_matches_mlp_forward() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mlp = Mlp::new(
            &store,
            "m",
            &[7, 11, 5],
            &[Activation::Relu, Activation::Identity],
            &mut rng,
        );
        let packed = PackedMlp::from_mlp(&mlp).unwrap();
        let x = Tensor::randn(&[3, 7], &mut rng);
        let g = Graph::no_grad();
        assert_eq!(
            mlp.forward(&g, &g.constant(x.clone())).unwrap().value().data(),
            packed.forward(&x).unwrap().data()
        );
    }

    #[test]
    fn quantized_dense_tracks_its_precision_and_shrinks() {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Linear::new(&store, "q", 64, 48, &mut rng);
        let f32p = PackedDense::from_linear(&layer).unwrap();
        let int8 = PackedDense::from_linear_at(&layer, Precision::Int8).unwrap();
        assert_eq!(int8.precision(), Precision::Int8);
        assert!(int8.packed_bytes() < f32p.packed_bytes());
        // The quantized forward stays close to the f32 forward on
        // unit-scale inputs.
        let x = Tensor::randn(&[5, 64], &mut rng);
        let want = f32p.forward_act(&x, Activation::Tanh).unwrap();
        let got = int8.forward_act(&x, Activation::Tanh).unwrap();
        let mae: f32 = want
            .data()
            .iter()
            .zip(got.data())
            .map(|(a, b)| (a - b).abs())
            .sum::<f32>()
            / want.len() as f32;
        assert!(mae < 0.05, "int8: MAE {mae}");
    }

    #[test]
    fn row_blocks_bitwise_match_the_tensor_forward_at_both_precisions() {
        // A wide layer walked a few rows at a time through one scratch
        // buffer must reproduce the whole-tensor forward: f32 rows are
        // independent chains, int8 rows carry their own scales.
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(5);
        let mlp = Mlp::new(
            &store,
            "d",
            &[6, 9, 17, 70],
            &[Activation::Relu, Activation::Relu, Activation::Identity],
            &mut rng,
        );
        let x = Tensor::randn(&[11, 6], &mut rng);
        for precision in [Precision::F32, Precision::Int8] {
            let packed = PackedMlp::from_mlp_at(&mlp, precision).unwrap();
            let want = packed.forward(&x).unwrap();
            let head = packed.forward_head(&x).unwrap();
            let (last, act) = packed.last();
            let (k, n) = (last.in_dim(), last.out_dim());
            let kernel = last.rows_kernel(act);
            let mut got = Vec::new();
            let mut scratch = vec![f32::NAN; 4 * n];
            for r0 in (0..11).step_by(4) {
                let rows = 4.min(11 - r0);
                kernel(&head.data()[r0 * k..], rows, &mut scratch);
                got.extend_from_slice(&scratch[..rows * n]);
            }
            assert_eq!(got, want.data(), "{precision}");
        }
    }
}
