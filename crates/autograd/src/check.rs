//! Finite-difference gradient verification.
//!
//! Every layer and every autograd op in the workspace is validated against
//! central differences through this utility. Tolerances are loose-ish
//! because everything is `f32`.

use crate::graph::{Graph, Var};
use stwa_tensor::{Result, Tensor};

/// Outcome of a gradient check for a single input tensor.
#[derive(Debug)]
pub struct GradCheckReport {
    /// Largest absolute difference between analytic and numeric partials.
    pub max_abs_err: f32,
    /// Largest relative difference (scaled by `max(1, |numeric|)`).
    pub max_rel_err: f32,
    /// Number of partials compared.
    pub count: usize,
}

impl GradCheckReport {
    /// Whether the analytic gradient matched within `tol` (relative).
    pub fn passes(&self, tol: f32) -> bool {
        self.max_rel_err <= tol
    }
}

/// Check the analytic gradient of `f` at `input` against central
/// differences with step `eps`.
///
/// `f` must build a scalar loss from a gradient-requiring leaf on the
/// provided graph. Typical usage:
///
/// ```
/// use stwa_autograd::check_gradient;
/// use stwa_tensor::Tensor;
///
/// let x = Tensor::from_vec(vec![0.3, -0.7, 1.2], &[3]).unwrap();
/// let report = check_gradient(&x, 1e-3, |v| {
///     v.tanh().square()?.sum_all()
/// })
/// .unwrap();
/// assert!(report.passes(1e-2), "{report:?}");
/// ```
pub fn check_gradient(
    input: &Tensor,
    eps: f32,
    f: impl Fn(&Var) -> Result<Var>,
) -> Result<GradCheckReport> {
    // Analytic gradient.
    let graph = Graph::new();
    let x = graph.leaf(input.clone());
    let loss = f(&x)?;
    graph.backward(&loss)?;
    let analytic = graph
        .grad(&x)
        .unwrap_or_else(|| Tensor::zeros(input.shape()));

    // Numeric gradient by central differences, one coordinate at a time.
    let eval = |t: &Tensor| -> Result<f32> {
        let g = Graph::new();
        let v = g.constant(t.clone());
        f(&v)?.value().item()
    };
    let mut max_abs_err = 0.0f32;
    let mut max_rel_err = 0.0f32;
    let n = input.len();
    for i in 0..n {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;
        let numeric = (eval(&plus)? - eval(&minus)?) / (2.0 * eps);
        let a = analytic.data()[i];
        let abs = (a - numeric).abs();
        let rel = abs / numeric.abs().max(1.0);
        max_abs_err = max_abs_err.max(abs);
        max_rel_err = max_rel_err.max(rel);
    }
    Ok(GradCheckReport {
        max_abs_err,
        max_rel_err,
        count: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const EPS: f32 = 1e-2;
    const TOL: f32 = 2e-2;

    fn input(shape: &[usize], seed: u64) -> Tensor {
        // Keep away from 0 so abs/relu/ln kinks and division are safe.
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::rand_uniform(shape, 0.3, 1.5, &mut rng)
    }

    fn signed_input(shape: &[usize], seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let t = Tensor::rand_uniform(shape, 0.2, 1.2, &mut rng);
        // Flip alternate signs to exercise negative regions, still away
        // from the origin.
        let mut v = t.into_vec();
        for (i, x) in v.iter_mut().enumerate() {
            if i % 2 == 0 {
                *x = -*x;
            }
        }
        Tensor::from_vec(v, shape).unwrap()
    }

    macro_rules! grad_test {
        ($name:ident, $input:expr, $build:expr) => {
            #[test]
            fn $name() {
                let x = $input;
                let report = check_gradient(&x, EPS, $build).unwrap();
                assert!(report.passes(TOL), "{}: {report:?}", stringify!($name));
            }
        };
    }

    grad_test!(gc_exp, signed_input(&[6], 1), |v| v.exp().sum_all());
    grad_test!(gc_ln, input(&[6], 2), |v| v.ln().sum_all());
    grad_test!(gc_sqrt, input(&[6], 3), |v| v.sqrt().sum_all());
    grad_test!(gc_tanh, signed_input(&[6], 4), |v| v.tanh().sum_all());
    grad_test!(gc_sigmoid, signed_input(&[6], 5), |v| v.sigmoid().sum_all());
    grad_test!(gc_relu, signed_input(&[6], 6), |v| v.relu().sum_all());
    grad_test!(gc_abs, signed_input(&[6], 7), |v| v.abs().sum_all());
    grad_test!(gc_square, signed_input(&[6], 8), |v| v.square()?.sum_all());
    grad_test!(gc_neg, signed_input(&[6], 9), |v| v.neg().sum_all());
    grad_test!(gc_scalar_ops, signed_input(&[6], 10), |v| {
        v.mul_scalar(3.0).add_scalar(1.0).square()?.sum_all()
    });

    grad_test!(gc_mean_all, signed_input(&[8], 11), |v| {
        v.square()?.mean_all()
    });

    grad_test!(gc_sum_axis, signed_input(&[3, 4], 12), |v| {
        v.sum_axis(1, false)?.square()?.sum_all()
    });

    grad_test!(gc_mean_axis_keepdim, signed_input(&[3, 4], 13), |v| {
        v.mean_axis(0, true)?.square()?.sum_all()
    });

    grad_test!(gc_softmax, signed_input(&[2, 5], 14), |v| {
        // Weighted sum of softmax keeps the loss sensitive to x.
        let w = v
            .graph()
            .constant(Tensor::from_fn(&[2, 5], |i| (i[1] + 1) as f32));
        v.softmax(1)?.mul(&w)?.sum_all()
    });

    grad_test!(gc_matmul_chain, input(&[2, 3], 15), |v| {
        let w = v.graph().constant(Tensor::from_fn(&[3, 2], |i| {
            0.3 * (i[0] as f32) - 0.2 * (i[1] as f32)
        }));
        v.matmul(&w)?.tanh().sum_all()
    });

    grad_test!(gc_div, input(&[6], 16), |v| {
        let c = v
            .graph()
            .constant(Tensor::from_fn(&[6], |i| 1.0 + i[0] as f32));
        // both numerator and denominator depend on v: v / (v + c)
        let denom = v.add(&c.mul_scalar(0.5))?;
        v.div(&denom)?.sum_all()
    });

    grad_test!(gc_broadcast_mul, input(&[3], 17), |v| {
        let m = v
            .graph()
            .constant(Tensor::from_fn(&[2, 3], |i| (i[0] + i[1]) as f32));
        // v broadcasts over rows of m.
        m.mul(v)?.square()?.sum_all()
    });

    grad_test!(gc_reshape_permute, signed_input(&[2, 6], 18), |v| {
        v.reshape(&[3, 4])?.permute(&[1, 0])?.square()?.sum_all()
    });

    grad_test!(gc_narrow_concat, signed_input(&[5], 19), |v| {
        let head = v.narrow(0, 0, 2)?;
        let tail = v.narrow(0, 2, 3)?;
        let swapped = crate::ops::concat(&[&tail, &head], 0)?;
        swapped.square()?.sum_all()
    });

    grad_test!(gc_index_select, signed_input(&[4, 2], 20), |v| {
        v.index_select(0, &[3, 0, 0, 2])?.square()?.sum_all()
    });

    grad_test!(gc_broadcast_to, signed_input(&[1, 3], 21), |v| {
        v.broadcast_to(&[4, 3])?.square()?.sum_all()
    });

    grad_test!(gc_batched_matmul, input(&[2, 2, 3], 22), |v| {
        let w = v.graph().constant(Tensor::from_fn(&[2, 3, 2], |i| {
            0.1 * (i[0] as f32 + 1.0) * (i[1] as f32 - i[2] as f32)
        }));
        v.matmul(&w)?.square()?.sum_all()
    });

    grad_test!(gc_matmul_nt, input(&[2, 4, 3], 24), |v| {
        // Both operands depend on v so the check exercises the dA and
        // dB paths of the fused A·Bᵀ backward at once.
        let w = v.graph().constant(Tensor::from_fn(&[2, 5, 3], |i| {
            0.2 * (i[0] as f32 + 1.0) - 0.1 * (i[1] as f32) + 0.05 * (i[2] as f32)
        }));
        let scores = v.matmul_nt(&w)?; // [2, 4, 5]
        let self_scores = v.matmul_nt(v)?; // [2, 4, 4]
        scores.square()?.sum_all()?.add(&self_scores.tanh().sum_all()?)
    });

    // The generated K/V projection: `[2, T = 4, F = 3]` in windows of 2
    // through each lead's `[2·3·4]` row (`d = 4`), decoded from a `[2,
    // 5]` head by a `[5, 24]` weight and a `[24]` bias, against each
    // operand in turn; a constant `x` skips `dx`, as layer 0 does.
    fn head_rows() -> Tensor {
        Tensor::from_fn(&[2, 5], |i| 0.2 * i[1] as f32 - 0.3 * i[0] as f32 - 0.3)
    }
    fn out_weight() -> Tensor {
        Tensor::from_fn(&[5, 24], |i| {
            0.05 * ((i[0] * 7 + i[1] * 3) % 11) as f32 - 0.25
        })
    }
    fn out_bias() -> Tensor {
        Tensor::from_fn(&[24], |i| 0.05 * i[0] as f32 - 0.4)
    }
    fn window_rows() -> Tensor {
        Tensor::from_fn(&[2, 4, 3], |i| {
            0.2 * (i[1] + i[2]) as f32 - 0.5 * i[0] as f32
        })
    }
    /// `x.project_kv` with the operand `wrt` (0: x, 1: head, 2: weight,
    /// 3: bias) taken from `v` and the rest constant.
    fn project(v: &Var, wrt: usize) -> Result<Var> {
        let g = v.graph();
        let pick = |i: usize, t: fn() -> Tensor| if i == wrt { v.clone() } else { g.constant(t()) };
        pick(0, window_rows).project_kv(
            &pick(1, head_rows),
            &pick(2, out_weight),
            &pick(3, out_bias),
            2,
        )
    }
    grad_test!(gc_project_kv_x, signed_input(&[2, 4, 3], 25), |v| {
        project(v, 0)?.square()?.sum_all()
    });
    grad_test!(gc_project_kv_head, signed_input(&[2, 5], 26), |v| {
        project(v, 1)?.tanh().sum_all()
    });
    grad_test!(gc_project_kv_weight, signed_input(&[5, 24], 28), |v| {
        project(v, 2)?.tanh().sum_all()
    });
    grad_test!(gc_project_kv_bias, signed_input(&[24], 29), |v| {
        project(v, 3)?.square()?.sum_all()
    });
    // Attention of `[2, 1, 4]` queries against window 1 of its output,
    // the window's key and value blocks narrowed out.
    grad_test!(gc_project_kv_attention, signed_input(&[5, 24], 27), |v| {
        let g = v.graph();
        let q = g.constant(Tensor::from_fn(&[2, 1, 4], |i| 0.3 * i[2] as f32 - 0.2));
        let kv = project(v, 2)?;
        let block = |h: usize| kv.narrow(1, h, 1)?.narrow(2, 1, 1)?.reshape(&[2, 2, 4]);
        let w = g.constant(Tensor::from_fn(&[2, 1, 4], |i| {
            (i[0] + 2 * i[2]) as f32 - 2.5
        }));
        q.attention(&block(0)?, &block(1)?, 2)?.mul(&w)?.sum_all()
    });

    // The window-layer op — `[2, 3, 2, 2, 2, 4]` keys and values, two
    // windows of two proxies, `d = 4` in two heads — against each kind
    // of operand in turn, over every sensor-correlation source.
    #[derive(Clone, Copy, PartialEq)]
    enum Wrt {
        Kv,
        Proxies,
        FusionWeight,
        Gate,
        Theta,
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Mix {
        Off,
        Dense,
        Sparse,
        Generated,
    }

    const KV: [usize; 6] = [2, 3, 2, 2, 2, 4];

    fn window_loss(v: &crate::Var, wrt: Wrt, mix: Mix, learned: bool) -> Result<crate::Var> {
        use crate::ops::{WindowParams, WindowSca};
        let g = v.graph();
        let operand = |me: Wrt, shape: &[usize], seed: u64, scale: f32| {
            if wrt == me {
                v.clone()
            } else {
                g.constant(signed_input(shape, seed).mul_scalar(scale))
            }
        };
        let kv = operand(Wrt::Kv, &KV, 40, 1.0);
        let proxies = operand(Wrt::Proxies, &[3, 2, 2, 4], 41, 1.0);
        let fusion = (
            operand(Wrt::FusionWeight, &[8, 4], 42, 0.5),
            g.constant(signed_input(&[4], 43).mul_scalar(0.2)),
        );
        let gate = (
            operand(Wrt::Gate, &[4, 4], 44, 0.5),
            g.constant(signed_input(&[4, 4], 45).mul_scalar(0.5)),
        );
        let theta_shape: &[usize] = if mix == Mix::Generated { &[2, 3, 4, 4] } else { &[4, 4] };
        let theta = (
            operand(Wrt::Theta, theta_shape, 46, 0.5),
            g.constant(signed_input(theta_shape, 47).mul_scalar(0.5)),
        );
        let graph = std::sync::Arc::new(
            stwa_tensor::SensorGraph::from_neighbor_lists(3, &[vec![0, 1], vec![1, 2], vec![0, 2]])
                .unwrap(),
        );
        let params = WindowParams {
            proxies: &proxies,
            fusion: Some((&fusion.0, &fusion.1)),
            gate: learned.then_some((&gate.0, &gate.1)),
            sca: match mix {
                Mix::Off => WindowSca::Off,
                Mix::Dense | Mix::Sparse => WindowSca::Shared(&theta.0, &theta.1),
                Mix::Generated => WindowSca::Generated(&theta.0, &theta.1),
            },
            graph: (mix == Mix::Sparse).then_some(&graph),
        };
        let weight = g.constant(Tensor::from_fn(&[2, 3, 2, 4], |i| {
            0.3 * (i[3] as f32) - 0.2 * (i[1] + i[2]) as f32 + 0.1 * i[0] as f32
        }));
        kv.window_layer(&params, 2)?.mul(&weight)?.sum_all()
    }

    grad_test!(gc_window_layer_kv, signed_input(&KV, 40), |v| {
        window_loss(v, Wrt::Kv, Mix::Dense, true)
    });
    grad_test!(gc_window_layer_proxies, signed_input(&[3, 2, 2, 4], 41), |v| {
        window_loss(v, Wrt::Proxies, Mix::Sparse, false)
    });
    grad_test!(
        gc_window_layer_fusion,
        signed_input(&[8, 4], 42).mul_scalar(0.5),
        |v| window_loss(v, Wrt::FusionWeight, Mix::Off, true)
    );
    grad_test!(
        gc_window_layer_gate,
        signed_input(&[4, 4], 44).mul_scalar(0.5),
        |v| window_loss(v, Wrt::Gate, Mix::Dense, true)
    );
    grad_test!(
        gc_window_layer_theta,
        signed_input(&[4, 4], 46).mul_scalar(0.5),
        |v| window_loss(v, Wrt::Theta, Mix::Sparse, true)
    );
    grad_test!(
        gc_window_layer_generated,
        signed_input(&[2, 3, 4, 4], 46).mul_scalar(0.5),
        |v| window_loss(v, Wrt::Theta, Mix::Generated, false)
    );

    grad_test!(gc_huber_like, signed_input(&[6], 23), |v| {
        // Same structure as the Huber loss in stwa-nn: mask from values,
        // quadratic inside, linear outside.
        let delta = 0.5;
        let absd = v.abs();
        let mask = absd.value().map(|x| if x <= delta { 1.0 } else { 0.0 });
        let quad = v.square()?.mul_scalar(0.5);
        let lin = absd.mul_scalar(delta).add_scalar(-0.5 * delta * delta);
        quad.where_mask(&mask, &lin)?.sum_all()
    });

    #[test]
    fn report_counts_partials() {
        let x = input(&[7], 30);
        let r = check_gradient(&x, EPS, |v| v.square()?.sum_all()).unwrap();
        assert_eq!(r.count, 7);
    }
}
