//! The kernel order contract in the tier-1 command: which chains fuse.
//!
//! Every contraction — each output element of a matrix product, and the
//! fused weight-gradient reduction — is one ascending f32 chain from
//! `+0.0` in which each term is **one fused multiply-add**, rounded
//! once. Elementwise-then-reduce (`mul` + `sum_axis`) is not a
//! contraction: it rounds the product, then the sum.
//!
//! The witness is `[-(1+2⁻¹¹), 1+2⁻¹²] · [1, 1+2⁻¹²]`. The second
//! product is `1 + 2⁻¹¹ + 2⁻²⁴`, a tie that rounds to even, `1 + 2⁻¹¹`,
//! so a chain that rounds it before adding cancels to `0.0`, and a
//! fused one leaves the `2⁻²⁴` the rounding dropped. Each entry runs on
//! a single output and on a 128 × 128 block of the same output (past
//! every blocked cutover) at the tier this host dispatches;
//! `stwa-tensor`'s unit test `every_contraction_fuses_each_term_on_every_arm`
//! repeats it under every ISA ceiling the host supports. The generated
//! K/V projection's six contractions — the decode over `m2`, its
//! forward over `F`, `dK_p` over a window's steps, `dx` over `d`, the
//! head's gradient over the row and the weight's over the leads — carry
//! the same witness, at the key widths its register rows run (`d = 16`,
//! and the serving width `d = 32`) and at one that takes the slice
//! entries, as does the inference engine's split-layout projection. So
//! do the window-layer op's gate product forward (`h_w · W1`) and its
//! VJP (`g · W2ᵀ`), seen through the layer output and `W1`'s gradient.
//! A packed product's epilogue adds its bias after the whole fused
//! chain, in one more rounding, and only then takes the ReLU: a bias of
//! `2⁻²⁴` on the witness gives `2⁻²³`, where a bias that started the
//! chain would give `2⁻²⁴` and an unfused chain `2⁻²⁴` too.

use st_wa::autograd::{Graph, WindowParams, WindowSca};
use st_wa::tensor::{isa, linalg, mathfn, projection, Tensor};

const FUSED: f32 = 1.0 / 16_777_216.0; // 2⁻²⁴

fn witness() -> ([f32; 2], [f32; 2]) {
    let (e11, e12) = (2f32.powi(-11), 2f32.powi(-12));
    ([-(1.0 + e11), 1.0 + e12], [1.0, 1.0 + e12])
}

#[test]
fn every_contraction_entry_fuses_each_term() {
    let ([a0, a1], [b0, b1]) = witness();
    println!("dispatched tier: {}", isa::current().label());
    for (m, n) in [(1, 1), (128, 128)] {
        let a = Tensor::from_fn(&[m, 2], |i| [a0, a1][i[1]]);
        let b = Tensor::from_fn(&[2, n], |i| [b0, b1][i[0]]);
        let (at, bt) = (a.transpose_last2().unwrap(), b.transpose_last2().unwrap());
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        let mut slice = vec![f32::NAN; m * n];
        linalg::gemm_nn_slice(a.data(), b.data(), &mut slice, m, 2, n);
        let mut packed_slice = vec![f32::NAN; m * n];
        let none = linalg::Epilogue::NONE;
        linalg::gemm_packed_slice(a.data(), &packed, &mut packed_slice, m, none);
        for (entry, got) in [
            ("matmul", linalg::matmul(&a, &b).unwrap().data().to_vec()),
            (
                "matmul_nt",
                linalg::matmul_nt(&a, &bt).unwrap().data().to_vec(),
            ),
            (
                "matmul_tn",
                linalg::matmul_tn(&at, &b).unwrap().data().to_vec(),
            ),
            (
                "matmul_packed",
                linalg::matmul_packed(&a, &packed, none)
                    .unwrap()
                    .data()
                    .to_vec(),
            ),
            (
                "matmul_reference",
                linalg::matmul_reference(&a, &b).unwrap().data().to_vec(),
            ),
            ("gemm_nn_slice", slice),
            ("gemm_packed_slice", packed_slice),
        ] {
            assert!(
                got.iter().all(|&x| x == FUSED),
                "{entry} on {m}x2x{n}: {:e}, want 2^-24",
                got[0]
            );
        }
    }
    // The weight-gradient reduction: `[2, 1, 1]` row vectors summed over
    // the leading axis is the same two-term contraction.
    let a = Tensor::from_vec(vec![a0, a1], &[2, 1, 1]).unwrap();
    let g = Tensor::from_vec(vec![b0, b1], &[2, 1, 1]).unwrap();
    let lead = linalg::matmul_tn_sum_lead(&a, &g).unwrap();
    assert_eq!(lead.data(), &[FUSED], "matmul_tn_sum_lead");
}

#[test]
fn the_packed_epilogue_adds_its_bias_after_the_fused_chain() {
    let ([a0, a1], [b0, b1]) = witness();
    for (m, n) in [(1, 1), (9, 33), (128, 128)] {
        let a = Tensor::from_fn(&[m, 2], |i| [a0, a1][i[1]]);
        let packed =
            linalg::PackedMatrix::pack(&Tensor::from_fn(&[2, n], |i| [b0, b1][i[0]])).unwrap();
        // `(bias, relu, want)`: the chain's `2⁻²⁴` plus the bias, then
        // the ReLU — which a negative sum meets as `-2⁻²⁴`.
        for (bias, relu, want) in [
            (FUSED, false, 2.0 * FUSED),
            (FUSED, true, 2.0 * FUSED),
            (-2.0 * FUSED, false, -FUSED),
            (-2.0 * FUSED, true, 0.0),
        ] {
            let bias = vec![bias; n];
            let ep = linalg::Epilogue {
                bias: Some(&bias),
                relu,
            };
            let mut slice = vec![f32::NAN; m * n];
            linalg::gemm_packed_slice(a.data(), &packed, &mut slice, m, ep);
            let whole = linalg::matmul_packed(&a, &packed, ep)
                .unwrap()
                .data()
                .to_vec();
            for (entry, got) in [("matmul_packed", whole), ("gemm_packed_slice", slice)] {
                assert!(
                    got.iter().all(|&x| x.to_bits() == want.to_bits()),
                    "{entry} on {m}x2x{n}, bias {:e}, relu {relu}: {:e}, want {want:e}",
                    bias[0],
                    got[0]
                );
            }
        }
    }
}

#[test]
fn elementwise_then_reduce_rounds_each_product() {
    let (a, b) = witness();
    let a = Tensor::from_vec(a.to_vec(), &[2]).unwrap();
    let b = Tensor::from_vec(b.to_vec(), &[2]).unwrap();
    let sum = a.mul(&b).unwrap().sum_axis(0, false).unwrap();
    assert_eq!(sum.data(), &[0.0], "mul + sum_axis");
}

/// The generated K/V projection of `x` through rows decoded from `head
/// [lead, m2]` by `weight [m2, 2·F·d]` and a zero bias: the output, and
/// the `[dx, dhead, dweight]` of upstream gradient `g`.
fn project(x: &Tensor, head: &Tensor, weight: &Tensor, g: &Tensor, s: usize) -> [Tensor; 4] {
    let bias = Tensor::zeros(&[weight.shape()[1]]);
    let dec = projection::Decoder {
        head,
        weight,
        bias: &bias,
    };
    let (out, rows) = projection::forward(x, dec, s, true).unwrap();
    let need = projection::Need {
        x: true,
        head: true,
        weight: true,
        bias: false,
    };
    let grads = projection::vjp(g, x, dec, &rows.unwrap(), s, need).unwrap();
    [
        out,
        grads.x.unwrap(),
        grads.head.unwrap(),
        grads.weight.unwrap(),
    ]
}

/// `kv` as the decoded rows of a one-wide head of ones: `fma(1, kv, +0.0)
/// + 0.0` is `kv` (no element is `-0.0`).
fn rows_of(kv: &Tensor) -> (Tensor, Tensor) {
    let (lead, width) = (kv.shape()[0], kv.shape()[1]);
    assert_eq!(lead, 1, "one lead's rows");
    (Tensor::ones(&[1, 1]), kv.reshape(&[1, width]).unwrap())
}

#[test]
fn the_kv_projection_fuses_each_term() {
    let ([a0, a1], [b0, b1]) = witness();
    // A lead's two witness terms, zeros past them: the chain's other
    // terms add `+0.0`, which leaves every partial sum alone.
    let pad = |v: [f32; 2], len: usize| {
        (0..len)
            .map(|i| *v.get(i).unwrap_or(&0.0))
            .collect::<Vec<_>>()
    };
    let all_fused = |t: &Tensor, what: &str| {
        assert!(
            t.data().iter().all(|&v| v == FUSED),
            "{what}: {:e}",
            t.data()[0]
        );
    };
    for d in [16, 32, 3] {
        // Forward, over `F = 2`: the row `[a0, a1]` against the
        // columns `[b0, b1]` of K and V.
        let x = Tensor::from_vec(vec![a0, a1], &[1, 1, 2]).unwrap();
        let kv = Tensor::from_fn(&[1, 4 * d], |i| [b0, b1][i[1] / d % 2]);
        let (head, weight) = rows_of(&kv);
        let [out, ..] = project(&x, &head, &weight, &Tensor::zeros(&[1, 2, 1, 1, d]), 1);
        all_fused(&out, &format!("forward at d = {d}"));
        // The same rows through the engine's split layout, five steps.
        let x5 = Tensor::from_fn(&[1, 5, 2], |i| [a0, a1][i[2]]);
        let (mut keys, mut values) = (vec![f32::NAN; 5 * d], vec![f32::NAN; 5 * d]);
        let (kp, vp) = kv.data().split_at(2 * d);
        projection::forward_split(
            x5.data(),
            kp,
            vp,
            4 * d,
            1,
            (5, 2, d),
            &mut keys,
            &mut values,
        );
        for (half, got) in [("keys", keys), ("values", values)] {
            assert!(
                got.iter().all(|&v| v == FUSED),
                "split {half} at d = {d}: {:e}",
                got[0]
            );
        }

        // The decode, over `m2 = 2`: the head `[a0, a1]` against weight
        // columns `[b0, b1]`, every row element one chain.
        let head = Tensor::from_vec(vec![a0, a1], &[1, 2]).unwrap();
        let weight = Tensor::from_fn(&[2, 2 * d], |i| [b0, b1][i[0]]);
        let x = Tensor::ones(&[1, 1, 1]);
        let [out, ..] = project(&x, &head, &weight, &Tensor::zeros(&[1, 2, 1, 1, d]), 1);
        all_fused(&out, &format!("decode at d = {d}"));

        // `dK_p`, over one window of `S = 2` steps: `x = [a0, a1]ᵀ`
        // (`F = 1`, or every column at `F = d`) against gradient rows
        // `b0`, `b1`; V's gradient is zero. The weight's gradient reads
        // those rows back through a head of ones.
        for f in [1, d] {
            let x = Tensor::from_fn(&[1, 2, f], |i| [a0, a1][i[1]]);
            let (head, weight) = rows_of(&Tensor::zeros(&[1, 2 * f * d]));
            let g = Tensor::from_fn(&[1, 2, 1, 2, d], |i| {
                if i[1] == 0 {
                    [b0, b1][i[3]]
                } else {
                    0.0
                }
            });
            let [.., dweight] = project(&x, &head, &weight, &g, 2);
            let (dk, dv) = dweight.data().split_at(f * d);
            assert!(
                dk.iter().all(|&v| v == FUSED),
                "dK_p at F = {f}, d = {d}: {:e}",
                dk[0]
            );
            assert!(dv.iter().all(|&v| v == 0.0));
        }

        // `dx`, over `d` (`F = d`): gradient row `[a0, a1, 0, ..]`
        // against K rows `[b0, b1, 0, ..]`; V's half adds `+0.0`.
        let x = Tensor::zeros(&[1, 1, d]);
        let row = |v: [f32; 2]| pad(v, d);
        let kv = Tensor::from_vec(
            [row([b0, b1]).repeat(d), vec![0.0; d * d]].concat(),
            &[1, 2 * d * d],
        )
        .unwrap();
        let (head, weight) = rows_of(&kv);
        let g = Tensor::from_vec([row([a0, a1]), vec![0.0; d]].concat(), &[1, 2, 1, 1, d]).unwrap();
        let [_, dx, ..] = project(&x, &head, &weight, &g, 1);
        all_fused(&dx, &format!("dx at d = {d}"));

        // The head's gradient, over the row (`F = 1`, `x = 1`, so the
        // row gradient is `g`): `[a0, a1, 0, ..]` against every weight
        // row `[b0, b1, 0, ..]`.
        let x = Tensor::ones(&[1, 1, 1]);
        let weight = Tensor::from_fn(&[3, 2 * d], |i| *[b0, b1].get(i[1]).unwrap_or(&0.0));
        let head = Tensor::ones(&[1, 3]);
        let g = Tensor::from_vec([row([a0, a1]), vec![0.0; d]].concat(), &[1, 2, 1, 1, d]).unwrap();
        let [.., dhead, _] = project(&x, &head, &weight, &g, 1);
        all_fused(&dhead, &format!("dhead at d = {d}"));

        // The weight's gradient, over the leads: heads `a0`, `a1`
        // against row gradients `b0`, `b1` (`F = 1`, `x = 1`).
        let x = Tensor::ones(&[2, 1, 1]);
        let head = Tensor::from_vec(vec![a0, a1], &[2, 1]).unwrap();
        let weight = Tensor::zeros(&[1, 2 * d]);
        let g = Tensor::from_fn(&[2, 2, 1, 1, d], |i| [b0, b1][i[0]]);
        let [.., dweight] = project(&x, &head, &weight, &g, 1);
        all_fused(&dweight, &format!("dweight at d = {d}"));
    }
}

/// One sample, one sensor, one window of one step, one proxy, `d = 2`,
/// one head, the learned gate and no sensor correlation: the context is
/// the value row (a single key takes weight `1.0`), so the gate's first
/// product is the witness when the value row is `[a0, a1]` and `W1`'s
/// columns are `[b0, b1]`.
#[test]
fn the_window_layer_fuses_each_term() {
    let ([a0, a1], [b0, b1]) = witness();
    let layer = |value: [f32; 2], w1: Tensor, w2: Tensor, upstream: [f32; 2]| {
        let g = Graph::new();
        let kv = g.constant(Tensor::from_vec(vec![0.0, 0.0, value[0], value[1]], &[1, 1, 2, 1, 1, 2]).unwrap());
        let proxies = g.constant(Tensor::zeros(&[1, 1, 1, 2]));
        let (w1, w2) = (g.leaf(w1), g.constant(w2));
        let params = WindowParams {
            proxies: &proxies,
            fusion: None,
            gate: Some((&w1, &w2)),
            sca: WindowSca::Off,
            graph: None,
        };
        let out = kv.window_layer(&params, 1).unwrap();
        let weight = g.constant(Tensor::from_vec(upstream.to_vec(), &[1, 1, 1, 2]).unwrap());
        g.backward(&out.mul(&weight).unwrap().sum_all().unwrap()).unwrap();
        (out.value().data().to_vec(), g.grad(&w1).unwrap().data().to_vec())
    };

    // Forward: `h_w · W1 = 2⁻²⁴` in both columns, and `W2 = 2²⁰·I` lifts
    // its `tanh` where the sigmoid can see it.
    let w1 = Tensor::from_vec(vec![b0, b0, b1, b1], &[2, 2]).unwrap();
    let lift = 1_048_576.0; // 2²⁰
    let w2 = Tensor::from_vec(vec![lift, 0.0, 0.0, lift], &[2, 2]).unwrap();
    let (out, _) = layer([a0, a1], w1, w2, [1.0, 1.0]);
    let gate = mathfn::sigmoid_f32(mathfn::tanh_f32(FUSED) * lift);
    assert_ne!(gate, 0.5, "the witness must reach the gate");
    assert_eq!(out, [gate * a0, gate * a1], "window layer forward");

    // VJP: `W1 = 0` holds the gate at one half, so `W2`'s product sees
    // the upstream row `[a0, a1]` against `W2`'s rows `[b0, b1]`, and
    // `W1`'s gradient is the value `4` times that contraction.
    let w2 = Tensor::from_vec(vec![b0, b1, b0, b1], &[2, 2]).unwrap();
    let (_, grad_w1) = layer([4.0, 4.0], Tensor::zeros(&[2, 2]), w2, [a0, a1]);
    assert!(
        grad_w1.iter().all(|&v| v == 4.0 * FUSED),
        "window layer VJP: {grad_w1:?}"
    );
}
