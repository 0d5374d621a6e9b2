//! Property-based verification of the autodiff engine: every public op
//! composition must match central differences on arbitrary inputs, and
//! the tape must obey basic calculus identities.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::{check_gradient, Graph, Var, WindowParams, WindowSca};
use stwa_tensor::{memory, Result, Tensor};

fn bounded(len: usize, lo: f32, hi: f32) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(lo..hi, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn chain_rule_matches_numeric(data in bounded(6, -1.0, 1.0)) {
        let x = Tensor::from_vec(data, &[6]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            v.mul_scalar(1.5).tanh().exp().mean_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn product_rule_matches_numeric(data in bounded(4, 0.2, 1.5)) {
        let x = Tensor::from_vec(data, &[4]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            // f = x * ln(x) — both factors depend on x.
            v.mul(&v.ln())?.sum_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn matmul_grad_matches_numeric(data in bounded(6, -1.0, 1.0)) {
        let x = Tensor::from_vec(data, &[2, 3]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let w = v.graph().constant(Tensor::from_fn(&[3, 3], |i| {
                0.2 * (i[0] as f32) - 0.3 * (i[1] as f32) + 0.1
            }));
            v.matmul(&w)?.square()?.mean_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn softmax_composite_grad(data in bounded(8, -2.0, 2.0)) {
        let x = Tensor::from_vec(data, &[2, 4]).unwrap();
        let r = check_gradient(&x, 1e-2, |v| {
            let w = v.graph().constant(Tensor::from_fn(&[2, 4], |i| (i[1] + 1) as f32));
            v.softmax(1)?.mul(&w)?.sum_all()
        }).unwrap();
        prop_assert!(r.passes(3e-2), "{r:?}");
    }

    #[test]
    fn gradient_of_constant_branch_is_exact_value(data in bounded(3, -2.0, 2.0), c in -3.0f32..3.0) {
        // d/dx sum(c * x) = c exactly, independent of x.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[3]).unwrap());
        let cv = g.constant(Tensor::full(&[3], c));
        let loss = x.mul(&cv).unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let dx = g.grad(&x).unwrap();
        prop_assert!(dx.approx_eq(&Tensor::full(&[3], c), 1e-6));
    }

    #[test]
    fn backward_twice_accumulates(data in bounded(3, -2.0, 2.0)) {
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data.clone(), &[3]).unwrap());
        let loss = x.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let once = g.grad(&x).unwrap();
        g.backward(&loss).unwrap();
        let twice = g.grad(&x).unwrap();
        prop_assert!(twice.approx_eq(&once.mul_scalar(2.0), 1e-5));
        // zero_grads resets the accumulation.
        g.zero_grads();
        prop_assert!(g.grad(&x).is_none());
    }

    #[test]
    fn sum_then_grad_is_ones_everywhere(shape_rows in 1usize..4, shape_cols in 1usize..4) {
        let g = Graph::new();
        let x = g.leaf(Tensor::zeros(&[shape_rows, shape_cols]));
        let loss = x.sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g.grad(&x).unwrap().approx_eq(&Tensor::ones(&[shape_rows, shape_cols]), 0.0));
    }

    #[test]
    fn concat_then_split_grad_is_partition(a_len in 1usize..4, b_len in 1usize..4) {
        let g = Graph::new();
        let a = g.leaf(Tensor::zeros(&[a_len]));
        let b = g.leaf(Tensor::zeros(&[b_len]));
        let joined = stwa_autograd::concat(&[&a, &b], 0).unwrap();
        let loss = joined.mul_scalar(2.0).sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g.grad(&a).unwrap().approx_eq(&Tensor::full(&[a_len], 2.0), 0.0));
        prop_assert!(g.grad(&b).unwrap().approx_eq(&Tensor::full(&[b_len], 2.0), 0.0));
    }

    #[test]
    fn broadcast_grad_counts_uses(rows in 1usize..5, data in bounded(3, -1.0, 1.0)) {
        // x: [3] broadcast over `rows` rows; each element used `rows`
        // times, so d sum / dx = rows.
        let g = Graph::new();
        let x = g.leaf(Tensor::from_vec(data, &[3]).unwrap());
        let big = x.broadcast_to(&[rows, 3]).unwrap();
        let loss = big.sum_all().unwrap();
        g.backward(&loss).unwrap();
        prop_assert!(g
            .grad(&x)
            .unwrap()
            .approx_eq(&Tensor::full(&[3], rows as f32), 1e-6));
    }
}

// ---------------------------------------------------------------------
// `Var::attention` against the chain it replaces.
// ---------------------------------------------------------------------

/// The unfused multi-head attention: reshape / swap-axes head split,
/// `matmul_nt`, `mul_scalar`, `softmax`, `matmul`, swap-axes / reshape
/// merge — twelve tape nodes. `Var::attention` must equal it bit for
/// bit, value and gradients; it lives on only as this oracle.
fn attention_chain(q: &Var, k: &Var, v: &Var, heads: usize) -> Result<Var> {
    let rank = q.shape().len();
    let dh = q.shape()[rank - 1] / heads;
    let split = |x: &Var| -> Result<Var> {
        let mut s = x.shape()[..rank - 1].to_vec();
        s.extend_from_slice(&[heads, dh]);
        x.reshape(&s)?.swap_axes(rank - 2, rank - 1)
    };
    let (qh, kh, vh) = (split(q)?, split(k)?, split(v)?);
    let scores = qh.matmul_nt(&kh)?.mul_scalar(1.0 / (dh as f32).sqrt());
    let ctx = scores.softmax(rank)?.matmul(&vh)?;
    ctx.swap_axes(rank - 2, rank - 1)?.reshape(&q.shape())
}

/// Fill the buffer pool's size classes with NaN so a kernel that skips
/// an output element, or starts a sum from its output buffer instead of
/// zero, shows up as NaN (see the tensor crate's proptests). Asserts
/// that the pool kept every poisoned buffer.
fn poison_pool(elems: usize) {
    let cap = elems.next_power_of_two().max(64);
    let dirty: Vec<Vec<f32>> = (0..4).map(|_| memory::take_filled(cap, f32::NAN)).collect();
    let poisoned: usize = dirty.iter().map(|b| b.capacity() * 4).sum();
    let parked: usize = dirty
        .into_iter()
        .map(|b| b.capacity() * 4 * memory::recycle(b) as usize)
        .sum();
    assert_eq!(parked, poisoned, "the pool must keep the poisoned buffers");
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|x| x.to_bits()).collect()
}

/// Which operands are gradient-requiring leaves, and whether all three
/// are one `Var`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Operands {
    Distinct,
    OneVar,
    ConstQ,
    ConstK,
    ConstV,
}

/// Value bits and the three gradients' bits of `attend(q, k, v)` under
/// a fixed random weighting of the output.
type Outcome = (Vec<usize>, Vec<u32>, [Option<Vec<u32>>; 3]);

fn run_attention(
    attend: impl Fn(&Var, &Var, &Var) -> Result<Var>,
    [qt, kt, vt, wt]: [&Tensor; 4],
    mode: Operands,
) -> Outcome {
    let g = Graph::new();
    let place = |t: &Tensor, constant: bool| {
        if constant {
            g.constant(t.clone())
        } else {
            g.leaf(t.clone())
        }
    };
    let q = place(qt, mode == Operands::ConstQ);
    let (k, v) = if mode == Operands::OneVar {
        (q.clone(), q.clone())
    } else {
        (
            place(kt, mode == Operands::ConstK),
            place(vt, mode == Operands::ConstV),
        )
    };
    poison_pool(qt.len().max(kt.len()));
    let out = attend(&q, &k, &v).unwrap();
    if !out.value().is_empty() {
        let loss = out.mul(&g.constant(wt.clone())).unwrap().sum_all().unwrap();
        poison_pool(qt.len().max(kt.len()));
        g.backward(&loss).unwrap();
    }
    let grad = |x: &Var| g.grad(x).map(|t| bits(&t));
    (
        out.shape(),
        bits(&out.value()),
        [grad(&q), grad(&k), grad(&v)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn attention_is_bitwise_the_unfused_chain(
        tq in 1usize..=4,
        tk in 1usize..=24,
        head_pick in 0usize..4,
        dh_pick in 0usize..6,
        lead in proptest::collection::vec(1usize..=3, 1..=3),
        zero_axis in 0usize..12,
        mode_pick in 0usize..7,
        threads in 1usize..=3,
        seed in 0u64..1 << 32,
    ) {
        let heads = [1, 2, 4, 8][head_pick];
        let d = heads * [1, 3, 4, 8, 16, 32][dh_pick];
        let mode = [
            Operands::Distinct,
            Operands::Distinct,
            Operands::Distinct,
            Operands::OneVar,
            Operands::ConstQ,
            Operands::ConstK,
            Operands::ConstV,
        ][mode_pick];
        // About one case in six has a zero-length leading axis.
        let mut lead = lead;
        if let Some(axis) = lead.get_mut(zero_axis) {
            *axis = 0;
        }
        // One `Var` for all three operands needs Tq = Tk.
        let tq = if mode == Operands::OneVar { tk } else { tq };
        let shape = |t: usize| [lead.as_slice(), &[t, d]].concat();
        let mut rng = StdRng::seed_from_u64(seed);
        let qt = Tensor::randn(&shape(tq), &mut rng).mul_scalar(2.0);
        let kt = Tensor::randn(&shape(tk), &mut rng).mul_scalar(2.0);
        let vt = Tensor::randn(&shape(tk), &mut rng);
        let wt = Tensor::randn(&shape(tq), &mut rng);

        stwa_pool::set_threads(threads);
        let want = run_attention(
            |q, k, v| attention_chain(q, k, v, heads), [&qt, &kt, &vt, &wt], mode);
        let got = run_attention(
            |q, k, v| q.attention(k, v, heads), [&qt, &kt, &vt, &wt], mode);
        stwa_pool::set_threads(1);

        prop_assert_eq!(&got.0, &want.0, "shape");
        prop_assert!(got.1 == want.1, "value bits, q {:?} k {:?} heads {heads} {mode:?}",
            qt.shape(), kt.shape());
        for (name, (g, w)) in ["q", "k", "v"].iter().zip(got.2.iter().zip(want.2.iter())) {
            prop_assert!(g == w, "grad({name}) bits, q {:?} k {:?} heads {heads} {mode:?}",
                qt.shape(), kt.shape());
        }
        // A constant operand collects no gradient; with an empty leading
        // axis there is no loss to differentiate at all.
        let empty = qt.is_empty();
        prop_assert_eq!(got.2[0].is_none(), empty || mode == Operands::ConstQ);
        prop_assert_eq!(got.2[1].is_none(), empty || mode == Operands::ConstK);
        prop_assert_eq!(got.2[2].is_none(), empty || mode == Operands::ConstV);
        prop_assert!(got.1.iter().all(|&b| !f32::from_bits(b).is_nan()), "NaN leaked from the pool");
    }
}

#[test]
fn attention_gradients_match_central_differences() {
    let mut rng = StdRng::seed_from_u64(21);
    let q = Tensor::randn(&[2, 3, 8], &mut rng);
    let k = Tensor::randn(&[2, 5, 8], &mut rng);
    let v = Tensor::randn(&[2, 5, 8], &mut rng);
    let w = Tensor::randn(&[2, 3, 8], &mut rng);
    for wrt in 0..3 {
        let input = [&q, &k, &v][wrt];
        let r = check_gradient(input, 1e-2, |x| {
            let g = x.graph();
            let operand = |i: usize, t: &Tensor| {
                if i == wrt {
                    x.clone()
                } else {
                    g.constant(t.clone())
                }
            };
            operand(0, &q)
                .attention(&operand(1, &k), &operand(2, &v), 4)?
                .mul(&g.constant(w.clone()))?
                .sum_all()
        })
        .unwrap();
        assert!(r.passes(3e-2), "operand {wrt}: {r:?}");
    }
}

// ---------------------------------------------------------------------
// `Var::project_kv` against the decoder-layer and projection chain
// ---------------------------------------------------------------------

/// The decoder's output layer `[lead, m2] -> [lead, 2·F·d]` as the dense
/// layer's chain: `reshape`, `matmul`, `bias_add_act(Identity)`,
/// `reshape`.
fn decode_chain(head: &Var, weight: &Var, bias: &Var) -> Result<Var> {
    use stwa_autograd::ActKind;
    let hs = head.shape();
    let rows: usize = hs[..hs.len() - 1].iter().product();
    let mut out = hs[..hs.len() - 1].to_vec();
    out.push(weight.shape()[1]);
    head.reshape(&[rows, hs[hs.len() - 1]])?
        .matmul(weight)?
        .bias_add_act(bias, ActKind::Identity)?
        .reshape(&out)
}

/// Window `wi`'s `[..., S, d]` key (`h = 0`) or value (`h = 1`) block of
/// a `[..., 2, W, S, d]` projection, narrowed out.
fn kv_block(kv: &Var, h: usize, wi: usize) -> Result<Var> {
    let at = kv.shape().len() - 4;
    kv.narrow(at, h, 1)?
        .squeeze(at)?
        .narrow(at, wi, 1)?
        .squeeze(at)
}

/// Window attention over the generated projection as the tape chain the
/// op replaced: [`decode_chain`], the flat rows split by `reshape` /
/// `narrow` / `squeeze`, one window-broadcast `matmul` per half, a
/// `narrow` per window, and the attention op over the narrowed blocks.
fn window_chain(x: &Var, dec: [&Var; 3], qs: &[Var], s: usize, heads: usize) -> Result<Vec<Var>> {
    let kv = decode_chain(dec[0], dec[1], dec[2])?;
    let xs = x.shape();
    let at = xs.len() - 2;
    let (lead, t, f) = (&xs[..at], xs[at], xs[at + 1]);
    let d = kv.shape()[at] / (2 * f);
    let shape = |tail: &[usize]| [lead, tail].concat();
    let split = kv.reshape(&shape(&[2, f, d]))?;
    let x_win = x.reshape(&shape(&[t / s, s, f]))?;
    let half = |h: usize| -> Result<Var> {
        x_win.matmul(&split.narrow(at, h, 1)?.squeeze(at)?.unsqueeze(at)?)
    };
    let (keys, values) = (half(0)?, half(1)?);
    qs.iter()
        .enumerate()
        .map(|(wi, q)| {
            let block = |p: &Var| p.narrow(at, wi, 1)?.squeeze(at);
            q.attention(&block(&keys)?, &block(&values)?, heads)
        })
        .collect()
}

/// The op, then the same attention over its narrowed window blocks.
fn window_fused(x: &Var, dec: [&Var; 3], qs: &[Var], s: usize, heads: usize) -> Result<Vec<Var>> {
    let projected = x.project_kv(dec[0], dec[1], dec[2], s)?;
    qs.iter()
        .enumerate()
        .map(|(wi, q)| {
            q.attention(
                &kv_block(&projected, 0, wi)?,
                &kv_block(&projected, 1, wi)?,
                heads,
            )
        })
        .collect()
}

type Windows = fn(&Var, [&Var; 3], &[Var], usize, usize) -> Result<Vec<Var>>;

/// Value bits of every window's context and the gradient bits of `x`
/// (when it is a leaf), the head, the weight, the bias and every query,
/// under fixed random weightings of the contexts, on a poisoned pool.
fn run_windows(
    windows: Windows,
    [xt, ht, wt, bt]: [&Tensor; 4],
    qts: &[Tensor],
    wts: &[Tensor],
    (s, heads, x_leaf): (usize, usize, bool),
) -> (Vec<Vec<u32>>, Vec<Option<Vec<u32>>>) {
    let g = Graph::new();
    let x = if x_leaf {
        g.leaf(xt.clone())
    } else {
        g.constant(xt.clone())
    };
    let [head, weight, bias] = [ht, wt, bt].map(|t| g.leaf(t.clone()));
    let qs: Vec<Var> = qts.iter().map(|q| g.leaf(q.clone())).collect();
    let poison = xt.len().max(ht.len() * wt.shape()[1]) * 2;
    poison_pool(poison);
    let outs = windows(&x, [&head, &weight, &bias], &qs, s, heads).unwrap();
    let mut loss: Option<Var> = None;
    for (o, w) in outs.iter().zip(wts) {
        let term = o.mul(&g.constant(w.clone())).unwrap().sum_all().unwrap();
        loss = Some(match loss {
            None => term,
            Some(acc) => acc.add(&term).unwrap(),
        });
    }
    poison_pool(poison);
    g.backward(&loss.unwrap()).unwrap();
    let grads = [&x, &head, &weight, &bias]
        .into_iter()
        .chain(&qs)
        .map(|v| g.grad(v).map(|t| bits(&t)))
        .collect();
    (outs.iter().map(|o| bits(&o.value())).collect(), grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kv_projection_is_bitwise_the_decoder_linear_chain(
        lead in proptest::collection::vec(1usize..=3, 1..=2),
        many_leads in 0usize..2,
        w in 1usize..=4,
        s in 1usize..=3,
        f_pick in 0usize..3,
        d_pick in 0usize..2,
        m2 in 1usize..=9,
        tq in 1usize..=2,
        x_leaf in 0usize..2,
        threads in 1usize..=2,
        seed in 0u64..1 << 32,
    ) {
        // `d = 16` runs the register rows on an AVX-512 host, `d = 8`
        // the slice entries; `F = d` is every layer past the first.
        // Thirty-fold leads cross the op's 64-lead blocks.
        let d = [16, 8][d_pick];
        let f = [1, 3, d][f_pick];
        let heads = 4;
        let mut lead = lead;
        lead[0] *= [1, 30][many_leads];
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = |tail: &[usize]| [lead.as_slice(), tail].concat();
        let xt = Tensor::randn(&shape(&[w * s, f]), &mut rng);
        let ht = Tensor::randn(&shape(&[m2]), &mut rng);
        let wt = Tensor::randn(&[m2, 2 * f * d], &mut rng).mul_scalar(0.4);
        let bt = Tensor::randn(&[2 * f * d], &mut rng).mul_scalar(0.5);
        let qts: Vec<Tensor> = (0..w).map(|_| Tensor::randn(&shape(&[tq, d]), &mut rng)).collect();
        let wts: Vec<Tensor> = (0..w).map(|_| Tensor::randn(&shape(&[tq, d]), &mut rng)).collect();

        stwa_pool::set_threads(threads);
        let x_leaf = x_leaf == 1;
        let ops = [&xt, &ht, &wt, &bt];
        let want = run_windows(window_chain, ops, &qts, &wts, (s, heads, x_leaf));
        let got = run_windows(window_fused, ops, &qts, &wts, (s, heads, x_leaf));
        stwa_pool::set_threads(1);

        let what = format!("x {:?} W {w} S {s} d {d} m2 {m2}", xt.shape());
        prop_assert!(got.0 == want.0, "context bits, {}", what);
        prop_assert_eq!(got.1.len(), want.1.len());
        for (i, (g, wnt)) in got.1.iter().zip(&want.1).enumerate() {
            prop_assert!(g == wnt, "gradient #{} bits, {}", i, what);
        }
        prop_assert_eq!(got.1[0].is_some(), x_leaf, "a constant input takes no gradient");
    }
}

// ---------------------------------------------------------------------
// `Var::window_layer` against the per-window chain it replaces
// ---------------------------------------------------------------------

/// The window-attention layer body as the chain of tape ops the op
/// replaced, window by window: the proxy block narrowed and broadcast;
/// from the second window on, the previous summary tiled, concatenated
/// and run through the fusion's dense layer (`reshape`, `matmul`,
/// `bias_add_act`, `reshape`); the attention op over the window's
/// narrowed key and value blocks; the gate
/// chain or the mean; sensor correlation through shared (`reshape`,
/// `matmul`, `reshape`) or per-sensor (`unsqueeze`, `matmul`, `squeeze`)
/// embeddings and the dense (`matmul_nt`, `mul_scalar`, `softmax`,
/// `matmul`) or sparse mix; then one `concat`.
fn window_layer_chain(kv: &Var, p: &WindowParams<'_>, heads: usize) -> Result<Var> {
    use stwa_autograd::{concat, ActKind};
    let (ks, ps) = (kv.shape(), p.proxies.shape());
    let (b, n, w, d, np) = (ks[0], ks[1], ks[3], ks[5], ps[2]);
    let scale = 1.0 / (d as f32).sqrt();
    let mut prev: Option<Var> = None;
    let mut outputs = Vec::with_capacity(w);
    for wi in 0..w {
        let p_base = p
            .proxies
            .narrow(1, wi, 1)?
            .squeeze(1)?
            .unsqueeze(0)?
            .broadcast_to(&[b, n, np, d])?;
        let p_q = match (&prev, p.fusion) {
            (Some(h_prev), Some((fw, fb))) => {
                let tiled = h_prev.unsqueeze(2)?.broadcast_to(&[b, n, np, d])?;
                let stacked = concat(&[&tiled, &p_base], 3)?;
                stacked
                    .reshape(&[b * n * np, 2 * d])?
                    .matmul(fw)?
                    .bias_add_act(fb, ActKind::Tanh)?
                    .reshape(&[b, n, np, d])?
            }
            _ => p_base,
        };
        let h_w = p_q.attention(&kv_block(kv, 0, wi)?, &kv_block(kv, 1, wi)?, heads)?;
        let h_hat = match p.gate {
            Some((w1, w2)) => {
                let gate = h_w.matmul(w1)?.tanh().matmul(w2)?.sigmoid();
                gate.mul(&h_w)?.sum_axis(2, false)?
            }
            None => h_w.mean_axis(2, false)?,
        };
        let embed = |t: &Var| -> Result<Var> {
            h_hat.reshape(&[b * n, d])?.matmul(t)?.reshape(&[b, n, d])
        };
        let (q, k) = match p.sca {
            WindowSca::Off => (None, None),
            WindowSca::Shared(t1, t2) => (Some(embed(t1)?), Some(embed(t2)?)),
            WindowSca::Generated(t1, t2) => {
                let rows = h_hat.unsqueeze(2)?;
                (
                    Some(rows.matmul(t1)?.squeeze(2)?),
                    Some(rows.matmul(t2)?.squeeze(2)?),
                )
            }
        };
        let h_bar = match (q, k, p.graph) {
            (Some(q), Some(k), Some(graph)) => q.sparse_attend(&k, &h_hat, graph, scale)?,
            (Some(q), Some(k), None) => {
                let scores = q.matmul_nt(&k)?.mul_scalar(scale);
                scores.softmax(2)?.matmul(&h_hat)?
            }
            _ => h_hat,
        };
        prev = Some(h_bar.clone());
        outputs.push(h_bar.unsqueeze(2)?);
    }
    concat(&outputs.iter().collect::<Vec<_>>(), 2)
}

/// One window-layer configuration's operands.
struct LayerCase {
    kv: Tensor,
    proxies: Tensor,
    fusion: Option<[Tensor; 2]>,
    gate: Option<[Tensor; 2]>,
    /// `(θ1, θ2, generated)`.
    sca: Option<([Tensor; 2], bool)>,
    graph: Option<std::sync::Arc<stwa_tensor::SensorGraph>>,
    weight: Tensor,
    heads: usize,
}

/// Value bits and every operand's gradient bits of the layer built by
/// `body` under `case.weight`, on a poisoned pool.
fn run_layer(
    body: impl Fn(&Var, &WindowParams<'_>, usize) -> Result<Var>,
    case: &LayerCase,
) -> (Vec<u32>, Vec<Option<Vec<u32>>>) {
    let g = Graph::new();
    let kv = g.leaf(case.kv.clone());
    let proxies = g.leaf(case.proxies.clone());
    let pair = |p: &Option<[Tensor; 2]>| {
        p.as_ref()
            .map(|[a, b]| (g.leaf(a.clone()), g.leaf(b.clone())))
    };
    let (fusion, gate) = (pair(&case.fusion), pair(&case.gate));
    let sca = case
        .sca
        .as_ref()
        .map(|([a, b], generated)| ((g.leaf(a.clone()), g.leaf(b.clone())), *generated));
    let params = WindowParams {
        proxies: &proxies,
        fusion: fusion.as_ref().map(|(a, b)| (a, b)),
        gate: gate.as_ref().map(|(a, b)| (a, b)),
        sca: match &sca {
            None => WindowSca::Off,
            Some(((t1, t2), false)) => WindowSca::Shared(t1, t2),
            Some(((t1, t2), true)) => WindowSca::Generated(t1, t2),
        },
        graph: case.graph.as_ref(),
    };
    poison_pool(case.kv.len() * 2);
    let out = body(&kv, &params, case.heads).unwrap();
    let loss = out.mul(&g.constant(case.weight.clone())).unwrap().sum_all().unwrap();
    poison_pool(case.kv.len() * 2);
    g.backward(&loss).unwrap();
    let mut vars = vec![&kv, &proxies];
    for (a, b) in fusion.iter().chain(&gate).chain(sca.iter().map(|(t, _)| t)) {
        vars.extend([a, b]);
    }
    let grads = vars.iter().map(|v| g.grad(v).map(|t| bits(&t))).collect();
    (bits(&out.value()), grads)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn window_layer_is_bitwise_the_per_window_chain(
        b in 1usize..=3,
        n in 1usize..=8,
        w in 1usize..=3,
        s in 1usize..=3,
        np in 1usize..=2,
        d_pick in 0usize..3,
        heads_pick in 0usize..3,
        learned in 0usize..2,
        sca_pick in 0usize..4,
        sparse in 0usize..2,
        threads in 1usize..=2,
        seed in 0u64..1 << 32,
    ) {
        // `d = 16` runs the sixteen-lane attention walks on an AVX-512
        // host (when `B·N >= 16`), `d = 8` the per-lead walk, `d = 32`
        // with eight heads the serving width's `(8, 4)` instantiation.
        let d = [16, 8, 32][d_pick];
        let heads = [4, 1, 8][heads_pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = |shape: &[usize], scale: f32| Tensor::randn(shape, &mut rng).mul_scalar(scale);
        let sca = match sca_pick {
            0 => None,
            1 | 2 => Some(([t(&[d, d], 0.4), t(&[d, d], 0.4)], false)),
            _ => Some(([t(&[b, n, d, d], 0.4), t(&[b, n, d, d], 0.4)], true)),
        };
        let graph = (sca.is_some() && sparse == 1).then(|| {
            let rows: Vec<Vec<usize>> = (0..n)
                .map(|i| (i.saturating_sub(1)..(i + 2).min(n)).collect())
                .collect();
            std::sync::Arc::new(stwa_tensor::SensorGraph::from_neighbor_lists(n, &rows).unwrap())
        });
        let case = LayerCase {
            kv: t(&[b, n, 2, w, s, d], 1.0),
            proxies: t(&[n, w, np, d], 1.0),
            fusion: (w > 1).then(|| [t(&[2 * d, d], 0.3), t(&[d], 0.2)]),
            gate: (learned == 1).then(|| [t(&[d, d], 0.3), t(&[d, d], 0.3)]),
            sca,
            graph,
            weight: t(&[b, n, w, d], 1.0),
            heads,
        };

        stwa_pool::set_threads(threads);
        let want = run_layer(window_layer_chain, &case);
        let got = run_layer(|kv, p, heads| kv.window_layer(p, heads), &case);
        stwa_pool::set_threads(1);

        let what = format!("B {b} N {n} W {w} S {s} p {np} d {d} heads {heads} \
            learned {learned} sca {sca_pick} sparse {sparse}");
        prop_assert!(got.0 == want.0, "value bits, {}", what);
        prop_assert_eq!(got.1.len(), want.1.len());
        for (i, (g, wnt)) in got.1.iter().zip(&want.1).enumerate() {
            prop_assert!(g == wnt, "gradient #{} bits, {}", i, what);
        }
        prop_assert!(got.0.iter().all(|&x| !f32::from_bits(x).is_nan()), "NaN leaked from the pool");
    }
}

// ---------------------------------------------------------------------
// Fused VJPs against the chains of primitive `Tensor` ops they replace
// ---------------------------------------------------------------------

/// The gradient a recording graph hands each of `leaves` for
/// `loss = Σ build(leaves) · weight`, on a poisoned pool. The upstream
/// gradient reaching `build`'s output is `weight`, bit for bit
/// (`1.0 · w`), so the chains below start from it.
fn grads_through(
    leaves: &[&Tensor],
    weight: &Tensor,
    build: impl Fn(&[Var]) -> Result<Var>,
) -> Vec<Tensor> {
    let g = Graph::new();
    let vars: Vec<Var> = leaves.iter().map(|t| g.leaf((*t).clone())).collect();
    let out = build(&vars).unwrap();
    let loss = out.mul(&g.constant(weight.clone())).unwrap().sum_all().unwrap();
    poison_pool(leaves.iter().map(|t| t.len()).max().unwrap_or(0).max(weight.len()));
    g.backward(&loss).unwrap();
    vars.iter().map(|v| g.grad(v).expect("leaf gradient")).collect()
}

/// Random values with exact zeros mixed in, so `relu` and `abs` meet
/// their kink.
fn with_zeros(shape: &[usize], rng: &mut StdRng) -> Tensor {
    let t = Tensor::randn(shape, rng);
    t.map(|v| if (v * 8.0).fract().abs() < 0.1 { 0.0 } else { v })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn elementwise_and_softmax_vjps_are_bitwise_their_tensor_chains(
        rows in 1usize..5, cols in 1usize..9, seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let x = with_zeros(&[rows, cols], &mut rng);
        let g = Tensor::randn(&[rows, cols], &mut rng);
        let sign = |v: f32| if v > 0.0 { 1.0 } else if v < 0.0 { -1.0 } else { 0.0 };
        let step = |v: f32| if v > 0.0 { 1.0 } else { 0.0 };

        let got = grads_through(&[&x], &g, |v| Ok(v[0].tanh()));
        let y = x.tanh();
        let want = g.mul(&y.square().affine(-1.0, 1.0)).unwrap();
        prop_assert_eq!(bits(&got[0]), bits(&want), "tanh");

        let got = grads_through(&[&x], &g, |v| Ok(v[0].sigmoid()));
        let y = x.sigmoid();
        let want = g.mul(&y.mul(&y.affine(-1.0, 1.0)).unwrap()).unwrap();
        prop_assert_eq!(bits(&got[0]), bits(&want), "sigmoid");

        let got = grads_through(&[&x], &g, |v| Ok(v[0].relu()));
        prop_assert_eq!(bits(&got[0]), bits(&g.mul(&x.map(step)).unwrap()), "relu");

        let got = grads_through(&[&x], &g, |v| Ok(v[0].abs()));
        prop_assert_eq!(bits(&got[0]), bits(&g.mul(&x.map(sign)).unwrap()), "abs");

        let got = grads_through(&[&x], &g, |v| v[0].square());
        prop_assert_eq!(bits(&got[0]), bits(&g.mul(&x.mul_scalar(2.0)).unwrap()), "square");

        // Last-axis softmax: y · (g − Σ_j g_j y_j), four tensors.
        let got = grads_through(&[&x], &g, |v| v[0].softmax(1));
        let y = x.softmax_reference(1).unwrap();
        let s = g.mul(&y).unwrap().sum_axis(1, true).unwrap();
        let want = y.mul(&g.sub(&s.broadcast_to(g.shape()).unwrap()).unwrap()).unwrap();
        prop_assert_eq!(bits(&got[0]), bits(&want), "softmax");
    }

    #[test]
    fn narrow_vjp_onto_a_live_gradient_is_bitwise_pad_then_add(
        outer in 1usize..4, len in 3usize..9, inner in 1usize..4,
        cuts in proptest::collection::vec((0usize..8, 1usize..8), 2..5),
        seed in 0u64..1_000_000,
    ) {
        // Overlapping slices of one leaf along the middle axis, summed
        // into one loss: the reverse sweep reaches the last slice first
        // (empty slot: a zero tensor with the slice copied in) and adds
        // every earlier one straight into that live buffer. The chain:
        // each slice's gradient padded to full size, added in that
        // order.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[outer, len, inner], &mut rng);
        let cuts: Vec<(usize, usize)> = cuts
            .into_iter()
            .map(|(start, l)| (start % len, 1 + (l - 1) % (len - start % len)))
            .collect();
        let weights: Vec<Tensor> = cuts
            .iter()
            .map(|&(_, l)| Tensor::randn(&[outer, l, inner], &mut rng))
            .collect();

        let g = Graph::new();
        let xv = g.leaf(x.clone());
        let mut loss: Option<Var> = None;
        for (&(start, l), w) in cuts.iter().zip(&weights) {
            let term = xv.narrow(1, start, l).unwrap()
                .mul(&g.constant(w.clone())).unwrap()
                .sum_all().unwrap();
            loss = Some(match loss {
                None => term,
                Some(acc) => acc.add(&term).unwrap(),
            });
        }
        poison_pool(x.len());
        g.backward(&loss.unwrap()).unwrap();
        let got = g.grad(&xv).unwrap();

        let padded = |(start, l): (usize, usize), w: &Tensor| {
            let zeros = |n: usize| Tensor::zeros(&[outer, n, inner]);
            stwa_tensor::manip::concat(&[&zeros(start), w, &zeros(len - start - l)], 1).unwrap()
        };
        let mut want: Option<Tensor> = None;
        for (&cut, w) in cuts.iter().zip(&weights).rev() {
            let full = padded(cut, w);
            want = Some(match want {
                None => full,
                Some(acc) => acc.add(&full).unwrap(),
            });
        }
        prop_assert_eq!(bits(&got), bits(&want.unwrap()), "cuts {:?}", cuts);
    }

    #[test]
    fn row_vector_weight_gradient_is_bitwise_matmul_tn_then_axis_sums(
        b in 1usize..4, n in 1usize..4, d in 1usize..7, e in 1usize..7,
        shared_over_n in 0usize..2, seed in 0u64..1_000_000,
    ) {
        // `[B, N, 1, d] @ W` with `W` shared over the batch (and,
        // optionally, per sensor): the VJP folds the leading-axis sum
        // into the product (`matmul_tn_sum_lead`), which makes it one
        // contraction over `B`. The chain: `matmul_tn` over the
        // batch-flattened operands (`[N, B, d]ᵀ · [N, B, e]`, one FMA
        // chain per element), then one `sum_axis(0)` per remaining
        // broadcast axis.
        let mut rng = StdRng::seed_from_u64(seed);
        let x = Tensor::randn(&[b, n, 1, d], &mut rng);
        let g = Tensor::randn(&[b, n, 1, e], &mut rng);
        let w_lead: &[usize] = if shared_over_n == 0 { &[] } else { &[n] };
        let by_sensor = |t: &Tensor| {
            let w = t.shape()[3];
            t.reshape(&[b, n, w]).unwrap().swap_axes(0, 1).unwrap()
        };
        let reduce = |mut full: Tensor| {
            while full.rank() > w_lead.len() + 2 {
                full = full.sum_axis(0, false).unwrap();
            }
            full
        };
        let tn = |l: &Tensor, r: &Tensor| {
            reduce(stwa_tensor::linalg::matmul_tn(&by_sensor(l), &by_sensor(r)).unwrap())
        };

        let w = Tensor::randn(&[w_lead, &[d, e]].concat(), &mut rng);
        let got = grads_through(&[&x, &w], &g, |v| v[0].matmul(&v[1]));
        let want = tn(&x, &g);
        prop_assert_eq!(got[1].shape(), want.shape());
        prop_assert_eq!(bits(&got[1]), bits(&want), "dB of A·B");

        // `A · Bᵀ`: dB = gᵀ · A, the same fold with the roles swapped.
        let wt = Tensor::randn(&[w_lead, &[e, d]].concat(), &mut rng);
        let got = grads_through(&[&x, &wt], &g, |v| v[0].matmul_nt(&v[1]));
        let want = tn(&g, &x);
        prop_assert_eq!(got[1].shape(), want.shape());
        prop_assert_eq!(bits(&got[1]), bits(&want), "dB of A·Bᵀ");
    }
}

// ---------------------------------------------------------------------
// A graph that records nothing computes the same bits
// ---------------------------------------------------------------------

/// Every public forward op once, on whichever graph kind `g` is; the
/// values in call order. `leaf` inputs make the recording run carry
/// `requires_grad` through, which must not change any value.
fn every_op(g: &Graph, [a, b]: [&Tensor; 2], heads: usize) -> Result<Vec<Tensor>> {
    use stwa_autograd::{concat, stack, ActKind};
    let shape = a.shape().to_vec(); // [B, N, d]
    let (n, d) = (shape[1], shape[2]);
    let x = g.leaf(a.clone());
    let y = g.constant(b.clone());
    let pos = x.abs().add_scalar(0.5);
    let bias = g.leaf(b.narrow(0, 0, 1)?.narrow(1, 0, 1)?.reshape(&[d])?);
    let mask = Tensor::from_fn(&shape, |i| ((i[0] + i[1] + i[2]) % 2) as f32);
    let sensors = std::sync::Arc::new(stwa_tensor::SensorGraph::from_neighbor_lists(
        n,
        &(0..n).map(|i| (i.saturating_sub(1)..=i).collect()).collect::<Vec<_>>(),
    )?);
    // `[d, d]` and `[2d, d]` weights for the window layer.
    let square = x.narrow(0, 0, 1)?.squeeze(0)?.narrow(0, 0, 1)?.broadcast_to(&[d, d])?;
    let fusion_w = concat(&[&square, &square], 0)?;
    // `[B, N, d, 1]` in windows of one step through `[B, N, 2·d]` rows
    // decoded from `pos` by a `[d, 2d]` weight and a `[2d]` bias.
    let projected = y.unsqueeze(3)?.project_kv(
        &pos,
        &concat(&[&square, &square], 1)?,
        &concat(&[&bias, &bias], 0)?,
        1,
    )?;
    let out = vec![
        x.add(&y)?,
        x.sub(&y)?,
        x.mul(&y)?,
        x.div(&pos)?,
        x.neg(),
        x.exp(),
        pos.ln(),
        pos.sqrt(),
        x.tanh(),
        x.sigmoid(),
        x.relu(),
        x.abs(),
        x.square()?,
        x.add_scalar(0.25),
        x.mul_scalar(-1.5),
        x.matmul(&y.transpose_last2()?)?,
        x.matmul_nt(&y)?,
        x.sparse_attend(&y, &pos, &sensors, 0.5)?,
        x.attention(&y, &pos, heads)?,
        projected.clone(),
        x.unsqueeze(2)?.attention(
            &kv_block(&projected, 0, d - 1)?,
            &kv_block(&projected, 1, d - 1)?,
            heads,
        )?,
        projected.window_layer(
            &WindowParams {
                proxies: &y.narrow(0, 0, 1)?.squeeze(0)?.reshape(&[n, 1, 1, d])?.broadcast_to(&[n, d, 1, d])?,
                fusion: (d > 1).then_some((&fusion_w, &bias)),
                gate: Some((&square, &square)),
                sca: WindowSca::Shared(&square, &square),
                graph: Some(&sensors),
            },
            heads,
        )?,
        x.sum_axis(1, true)?,
        x.mean_axis(2, false)?,
        x.sum_all()?,
        x.mean_all()?,
        x.softmax(2)?,
        x.softmax(1)?,
        x.reshape(&[shape[0] * n, d])?,
        x.unsqueeze(1)?,
        x.unsqueeze(1)?.squeeze(1)?,
        x.permute(&[2, 0, 1])?,
        x.swap_axes(0, 2)?,
        x.transpose_last2()?,
        x.narrow(1, n - 1, 1)?,
        x.index_select(2, &[d - 1, 0, d - 1])?,
        x.narrow(0, 0, 1)?.broadcast_to(&[3, n, d])?,
        x.where_mask(&mask, &y)?,
        x.huber_loss(&y, 0.7)?,
        x.bias_add_act(&bias, ActKind::Identity)?,
        x.bias_add_act(&bias, ActKind::Relu)?,
        x.bias_add_act(&bias, ActKind::Tanh)?,
        x.bias_add_act(&bias, ActKind::Sigmoid)?,
        concat(&[&x, &y, &pos], 1)?,
        stack(&[&x, &y], 0)?,
        x.detach(),
    ];
    Ok(out.iter().map(|v| v.value().as_ref().clone()).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_grad_graph_yields_the_recorded_bits_and_no_nodes(
        b in 1usize..=3,
        n in 1usize..=5,
        heads in 1usize..=2,
        dh in 1usize..=4,
        seed in 0u64..1_000_000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let shape = [b, n, heads * dh];
        let (ta, tb) = (Tensor::randn(&shape, &mut rng), Tensor::randn(&shape, &mut rng));
        let recording = Graph::new();
        let silent = Graph::no_grad();
        poison_pool(b * n * heads * dh * 3);
        let want = every_op(&recording, [&ta, &tb], heads).unwrap();
        poison_pool(b * n * heads * dh * 3);
        let got = every_op(&silent, [&ta, &tb], heads).unwrap();
        prop_assert!(recording.len() > want.len());
        prop_assert_eq!(silent.len(), 0);
        prop_assert_eq!(want.len(), got.len());
        for (i, (w, g)) in want.iter().zip(&got).enumerate() {
            prop_assert_eq!(w.shape(), g.shape(), "op #{}", i);
            prop_assert_eq!(bits(w), bits(g), "op #{}", i);
        }
    }
}
