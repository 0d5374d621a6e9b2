//! The body of one window-attention layer — the W-window recurrence of
//! proxy fusion (Eq. 14), proxy attention (Eq. 10–11), the proxy gate
//! (Eq. 12–13) and sensor-correlation attention (Eq. 15–16) — as one
//! forward walk and one exact VJP.
//!
//! The forward reads the layer's keys and values in place — joint, the
//! `[B, N, 2, W, S, d]` [`crate::projection`] output training writes, or
//! split, two `[B, N, W, S, d]` tensors as the frozen engine projects
//! them ([`Kv`]) — and returns `[B, N, W, d]`, one summary per window.
//! Window `wi`'s proxies `[N, W, p, d]` block, fused with window
//! `wi − 1`'s summary when `wi > 0`, queries that window's keys; the `p`
//! contexts collapse through the learned gate (or their mean) and, when
//! the layer has one, sensor-correlation attention mixes the N sensors
//! with shared `θ1/θ2 [d, d]` or generated per-sensor transforms
//! ([`Sca`]), over all pairs or a [`SensorGraph`]. Training, evaluation
//! and the frozen serving engine all run this one body.
//!
//! # Order contract
//!
//! Every output element and every gradient is the value the chain of
//! primitive tape ops the layer used to record — per window `narrow` /
//! `broadcast_to` of the proxies, `concat` + `Linear` (`matmul`,
//! `bias_add_act`) for the fusion, the windowed attention op, `matmul` /
//! `tanh` / `matmul` / `sigmoid` / `mul` / `sum_axis` (or `mean_axis`)
//! for the gate, two `Linear`s (or per-sensor `matmul`s), `matmul_nt`,
//! `mul_scalar`, `softmax` and `matmul` (or the sparse op) for sensor
//! correlation, then `unsqueeze` + `concat` — and that chain's reverse
//! sweep computes, bit for bit:
//!
//! - contractions are the `linalg` products on raw rows
//!   ([`gemm_nn_slice`] / [`gemm_tn_slice`]): each element one ascending
//!   chain of fused multiply-adds from `+0.0`, which is every `matmul*`
//!   entry's contract, so a `Bᵀ` operand is a transposed copy fed to the
//!   same product;
//! - the activations, the gate product-sum, the softmax and its VJP, and
//!   every reduction a broadcast VJP runs (`sum_axis` from `+0.0` in
//!   ascending order) are the elementwise expressions of those kernels,
//!   and a broadcast over an axis of length one is a copy, as
//!   `reduce_to_shape` leaves it;
//! - gradient sums land in the order the reverse sweep adds them. Window
//!   `wi`'s summary takes window `wi + 1`'s fusion term, then its output
//!   slice. `ĥ` takes the mix term, then the `k` path's, then the `q`
//!   path's: `(mix + k) + q` with shared transforms, `mix + (k + q)`
//!   with generated ones, whose two products share one `unsqueeze` node.
//!   Parameter partials are handed to the caller's sink one window at a
//!   time in reverse window order, and within a window in the order the
//!   sweep reached the chain's nodes ([`Part`]), so the caller adds them
//!   where and when the tape did.
//!
//! The forward saves, per window, what the VJP reads: the attention
//! queries and weights, the contexts, the gate's two activations, `ĥ`,
//! the sensor queries and keys and the sensor-mixing weights.
//!
//! On an AVX-512 host the forward runs explicit zmm walks at both
//! widths the models use, `d = 16` (training) and `d = 32` (serving):
//! the proxy attention puts sixteen (sample, sensor) pairs in the lanes
//! ([`crate::attention`]), the per-sample dense sensor correlation puts
//! sixteen queries there ([`dense_forward_lanes`]), and sparse sensor
//! correlation at `d = 32` sixteen rows ([`crate::sparse`]). The VJP's
//! walks — [`dense_vjp_lanes`] and the gate's weight gradient
//! ([`gate_partial_lanes`]) — are `d = 16` only. Other widths and arms
//! run the same chains through the `linalg` slice entries and
//! `avx2,fma` loops. The unit test holds every arm to the same bits.

use crate::attention::{self, Dims};
#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Isa};
use crate::linalg::{gemm_nn_slice, gemm_strided, gemm_tn_slice};
use crate::sparse::{sparse_attention_forward, sparse_attention_vjp};
use crate::{mathfn, memory, Result, SensorGraph, Tensor, TensorError};

/// Where the sensor-correlation embeddings come from.
#[derive(Clone, Copy)]
pub enum Sca<'a> {
    /// The layer mixes no sensors: `h̄ = ĥ`.
    Off,
    /// Shared `θ1`, `θ2`, each `[d, d]`.
    Shared(&'a Tensor, &'a Tensor),
    /// Generated per-sensor `θ1`, `θ2`, each `[B, N, d, d]`, or `[1, N,
    /// d, d]` broadcast over the samples (forward only).
    Generated(&'a Tensor, &'a Tensor),
    /// Generated per-sensor transforms decoded flat, `[B·N, 2·d·d]`, each
    /// row one (sample, sensor)'s `θ1 | θ2` (forward only).
    GeneratedRows(&'a Tensor),
}

/// The layer's keys and values.
#[derive(Clone, Copy)]
pub enum Kv<'a> {
    /// Keys then values in one `[B, N, 2, W, S, d]` tensor.
    Joint(&'a Tensor),
    /// Keys and values, each `[B, N, W, S, d]`.
    Split(&'a Tensor, &'a Tensor),
}

/// Keys and values as the walks read them.
struct KvLayout<'a> {
    /// `[B, N, W, S, d]`.
    shape: [usize; 5],
    keys: &'a [f32],
    values: &'a [f32],
    /// 2 when keys and values share one buffer, 1 when split.
    halves: usize,
}

impl<'a> Kv<'a> {
    /// Either layout's extents and buffers, or `None` when the shapes
    /// fit neither.
    fn layout(self) -> Option<KvLayout<'a>> {
        let (shape, keys, values, halves) = match self {
            Kv::Joint(kv) => match *kv.shape() {
                [b, n, 2, w, s, d] => ([b, n, w, s, d], kv, kv, 2),
                _ => return None,
            },
            Kv::Split(k, v) => match *k.shape() {
                [b, n, w, s, d] if v.shape() == k.shape() => ([b, n, w, s, d], k, v, 1),
                _ => return None,
            },
        };
        Some(KvLayout {
            shape,
            keys: keys.data(),
            values: values.data(),
            halves,
        })
    }
}

/// The layer's parameters.
#[derive(Clone, Copy)]
pub struct Weights<'a> {
    /// Proxies `[N, W, p, d]`.
    pub proxies: &'a Tensor,
    /// Eq. 14 fusion weight `[2d, d]` and bias `[d]`; present exactly
    /// when `W > 1`.
    pub fusion: Option<(&'a Tensor, &'a Tensor)>,
    /// Eq. 12 gate `(W1, W2)`, each `[d, d]`; `None` is the mean
    /// aggregator.
    pub gate: Option<(&'a Tensor, &'a Tensor)>,
    pub sca: Sca<'a>,
    /// Neighbor lists restricting sensor correlation; `None` mixes every
    /// pair with the dense kernel.
    pub graph: Option<&'a SensorGraph>,
}

/// A parameter partial handed to [`vjp`]'s sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Part {
    /// `θ2`'s partial: `[d, d]` shared, `[B, N, d, d]` generated.
    Theta2,
    Theta1,
    Gate2,
    Gate1,
    FusionBias,
    FusionWeight,
    /// Window `wi`'s proxy block, `[N, 1, p, d]`: the gradient the
    /// `narrow` of that window scattered into the proxies.
    Proxies(usize),
}

/// Extents of one layer application.
#[derive(Clone, Copy, Debug)]
struct Geom {
    b: usize,
    n: usize,
    w: usize,
    s: usize,
    p: usize,
    d: usize,
    heads: usize,
    /// 2 for joint keys and values, 1 for split ones.
    halves: usize,
}

impl Geom {
    /// (sample, sensor) pairs.
    fn bn(self) -> usize {
        self.b * self.n
    }

    /// Proxy rows, one per (sample, sensor, proxy).
    fn rows(self) -> usize {
        self.b * self.n * self.p
    }

    /// Window `wi`'s attention extents over the keys and values.
    fn dims(self, wi: usize) -> Dims {
        Dims::window(self.bn(), self.p, self.s, self.heads, self.d, self.halves, self.w, wi)
    }
}

fn invalid<T>(msg: String) -> Result<T> {
    Err(TensorError::Invalid(format!("window_layer: {msg}")))
}

/// Check `kv` and every parameter against each other.
fn geometry(kv: Kv<'_>, wts: &Weights<'_>, heads: usize) -> Result<Geom> {
    let ps = wts.proxies.shape();
    let (Some(KvLayout { shape: [b, kn, kw, s, kd], halves, .. }), 4) = (kv.layout(), ps.len())
    else {
        return invalid(format!("keys and values / proxies {ps:?}"));
    };
    let (n, w, p, d) = (ps[0], ps[1], ps[2], ps[3]);
    let g = Geom {
        b,
        n,
        w,
        s,
        p,
        d,
        heads,
        halves,
    };
    if kn != n || kw != w || kd != d || w == 0 || p == 0 || s == 0 || b == 0 {
        return invalid(format!("keys and values {:?} against proxies {ps:?}", [b, kn, kw, s, kd]));
    }
    if heads == 0 || d == 0 || !d.is_multiple_of(heads) {
        return invalid(format!("heads {heads} must divide d {d}"));
    }
    let is = |t: &Tensor, want: &[usize]| t.shape() == want;
    match wts.fusion {
        Some((fw, fb)) if w > 1 && is(fw, &[2 * d, d]) && is(fb, &[d]) => {}
        None if w == 1 => {}
        _ => {
            return invalid(format!(
                "{w} windows need a [2d, d] fusion exactly when W > 1"
            ))
        }
    }
    if let Some((w1, w2)) = wts.gate {
        if !is(w1, &[d, d]) || !is(w2, &[d, d]) {
            return invalid(format!("gate {:?} / {:?}", w1.shape(), w2.shape()));
        }
    }
    let generated = |t: &Tensor| is(t, &[b, n, d, d]) || is(t, &[1, n, d, d]);
    match wts.sca {
        Sca::Off if wts.graph.is_some() => return invalid("a sensor graph without SCA".into()),
        Sca::Shared(t1, t2) if !is(t1, &[d, d]) || !is(t2, &[d, d]) => {
            return invalid(format!("shared θ {:?} / {:?}", t1.shape(), t2.shape()))
        }
        Sca::Generated(t1, t2) if !generated(t1) || t2.shape() != t1.shape() => {
            return invalid(format!("generated θ {:?} / {:?}", t1.shape(), t2.shape()))
        }
        Sca::GeneratedRows(rows) if !is(rows, &[b * n, 2 * d * d]) => {
            return invalid(format!("generated θ rows {:?}", rows.shape()))
        }
        _ => {}
    }
    if let Some(graph) = wts.graph {
        if graph.n() != n {
            return invalid(format!("graph over {} sensors for N = {n}", graph.n()));
        }
    }
    Ok(g)
}

/// What the VJP reads of one window.
#[derive(Debug)]
struct WindowSaved {
    /// The attention queries `[B·N·p, d]`: the fusion's `tanh` output,
    /// or the broadcast proxies.
    pq: Tensor,
    /// Attention softmax weights.
    attn: Tensor,
    /// Attention contexts `[B·N·p, d]`.
    hw: Tensor,
    /// The gate's `tanh` and `sigmoid` outputs, learned gate only.
    gate: Option<(Tensor, Tensor)>,
    /// `ĥ [B·N, d]`, the sensor queries and keys, and the mixing
    /// weights (dense: key-major `[B, N(j), N(i)]`; sparse: per edge) —
    /// with SCA only.
    sca: Option<[Tensor; 4]>,
}

/// Activations [`forward`] saved for [`vjp`].
#[derive(Debug)]
pub struct Saved {
    windows: Vec<WindowSaved>,
}

/// A pool buffer as a flat tensor.
fn flat(buf: Vec<f32>) -> Tensor {
    let len = buf.len();
    Tensor::from_vec(buf, &[len]).expect("a flat shape fits any buffer")
}

/// `a [m, k] · b [k, n]`.
fn nn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = memory::take_scratch(m * n);
    if m * n > 0 {
        gemm_nn_slice(a, b, &mut c, m, k, n);
    }
    c
}

/// `aᵀ · b` for `a [k, m]`, `b [k, n]`.
fn tn(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut c = memory::take_scratch(m * n);
    if m * n > 0 {
        gemm_tn_slice(a, b, &mut c, m, k, n);
    }
    c
}

/// `a [rows, cols]` transposed.
fn transpose(a: &[f32], rows: usize, cols: usize) -> Vec<f32> {
    let mut t = memory::take_scratch(rows * cols);
    for (r, row) in a.chunks_exact(cols).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            t[c * rows + r] = x;
        }
    }
    t
}

/// `Σ_i parts[i]` elementwise, ascending from `+0.0` — `sum_axis` over
/// a leading axis.
fn sum_from_zero<'a>(len: usize, parts: impl Iterator<Item = &'a [f32]>) -> Vec<f32> {
    let mut acc = memory::take_filled(len, 0.0);
    for part in parts {
        for (a, &x) in acc.iter_mut().zip(part) {
            *a += x;
        }
    }
    acc
}

/// Window `wi`'s `[p, d]` proxy block of every (sample, sensor) pair,
/// in pair order.
fn proxy_blocks(g: Geom, proxies: &[f32], wi: usize) -> impl Iterator<Item = &[f32]> {
    let block = g.p * g.d;
    (0..g.b).flat_map(move |_| {
        (0..g.n).map(move |n| &proxies[(n * g.w + wi) * block..(n * g.w + wi + 1) * block])
    })
}

/// `[h_prev[l] | proxies[n, wi, r]]` for every proxy row: the fusion's
/// input, the `concat` of the tiled summary and the proxy block.
fn stacked_rows(g: Geom, proxies: &[f32], wi: usize, prev: &[f32]) -> Vec<f32> {
    let (p, d) = (g.p, g.d);
    let mut st = memory::take_scratch(g.rows() * 2 * d);
    let pairs = st.chunks_exact_mut(p * 2 * d).zip(prev.chunks_exact(d));
    for ((dst, prev), block) in pairs.zip(proxy_blocks(g, proxies, wi)) {
        for (row, proxy) in dst.chunks_exact_mut(2 * d).zip(block.chunks_exact(d)) {
            row[..d].copy_from_slice(prev);
            row[d..].copy_from_slice(proxy);
        }
    }
    st
}

/// Window `wi`'s attention queries `[B·N·p, d]`: the proxy block, fused
/// with the previous summary when there is one.
fn queries(g: Geom, wts: &Weights<'_>, wi: usize, prev: Option<&[f32]>) -> Vec<f32> {
    let (p, d) = (g.p, g.d);
    let proxies = wts.proxies.data();
    match (wts.fusion, prev) {
        (Some((fw, fb)), Some(prev)) => {
            // `[h_prev | proxy] @ W` without the concat: each element's
            // chain takes the summary's `d` terms, then — continued in
            // place — the proxy row's `d`, read where the proxies lie.
            let (top, bottom) = fw.data().split_at(d * d);
            let mut pq = memory::take_scratch(g.rows() * d);
            if p == 1 {
                gemm_strided(prev, (d, 1), top, d, &mut pq, (g.bn(), d, d), true);
                for c in pq.chunks_exact_mut(g.n * d) {
                    let rows = (g.w * d, 1);
                    gemm_strided(&proxies[wi * d..], rows, bottom, d, c, (g.n, d, d), false);
                }
            } else {
                let mut head = memory::take_scratch(g.bn() * d);
                gemm_strided(prev, (d, 1), top, d, &mut head, (g.bn(), d, d), true);
                let pairs = pq.chunks_exact_mut(p * d).zip(head.chunks_exact(d));
                for ((c, h), block) in pairs.zip(proxy_blocks(g, proxies, wi)) {
                    for row in c.chunks_exact_mut(d) {
                        row.copy_from_slice(h);
                    }
                    gemm_strided(block, (d, 1), bottom, d, c, (p, d, d), false);
                }
                memory::recycle(head);
            }
            let bias = fb.data();
            for row in pq.chunks_exact_mut(d) {
                for (x, &b) in row.iter_mut().zip(bias) {
                    *x += b;
                }
            }
            mathfn::tanh_slice(&mut pq);
            pq
        }
        _ => {
            let mut pq = memory::take_scratch(g.rows() * d);
            for (dst, block) in pq.chunks_exact_mut(p * d).zip(proxy_blocks(g, proxies, wi)) {
                dst.copy_from_slice(block);
            }
            pq
        }
    }
}

/// Eq. 12–13: `ĥ [B·N, d]` from the contexts, and the gate's `tanh` /
/// `sigmoid` outputs.
fn aggregate(g: Geom, wts: &Weights<'_>, hw: &[f32]) -> (Vec<f32>, Option<(Tensor, Tensor)>) {
    let (p, d) = (g.p, g.d);
    let mut hhat = memory::take_filled(g.bn() * d, 0.0);
    match wts.gate {
        Some((w1, w2)) => {
            let mut t = nn(hw, w1.data(), g.rows(), d, d);
            mathfn::tanh_slice(&mut t);
            let mut gate = nn(&t, w2.data(), g.rows(), d, d);
            mathfn::sigmoid_slice(&mut gate);
            // `gate.mul(h_w).sum_axis(2)`: each product rounded, then
            // added in ascending proxy order.
            for (l, orow) in hhat.chunks_exact_mut(d).enumerate() {
                let at = l * p * d;
                for (grow, hrow) in gate[at..at + p * d]
                    .chunks_exact(d)
                    .zip(hw[at..at + p * d].chunks_exact(d))
                {
                    for ((o, &gv), &hv) in orow.iter_mut().zip(grow).zip(hrow) {
                        *o += gv * hv;
                    }
                }
            }
            (hhat, Some((flat(t), flat(gate))))
        }
        None => {
            for (orow, block) in hhat.chunks_exact_mut(d).zip(hw.chunks_exact(p * d)) {
                for hrow in block.chunks_exact(d) {
                    for (o, &hv) in orow.iter_mut().zip(hrow) {
                        *o += hv;
                    }
                }
                for o in orow.iter_mut() {
                    *o /= p as f32;
                }
            }
            (hhat, None)
        }
    }
}

/// (Sample, sensor) pair `l`'s generated `θ1`, `θ2` blocks, `[d, d]`
/// each, read where they lie in any [`Sca`] generated layout.
fn generated_at<'a>(g: Geom, sca: Sca<'a>, l: usize) -> (&'a [f32], &'a [f32]) {
    let dd = g.d * g.d;
    let (t1, t2, at) = match sca {
        Sca::Generated(t1, t2) => {
            let pair = if t1.shape()[0] == g.b { l } else { l % g.n };
            (t1.data(), t2.data(), pair * dd)
        }
        Sca::GeneratedRows(rows) => (rows.data(), &rows.data()[dd..], l * 2 * dd),
        Sca::Off | Sca::Shared(..) => unreachable!("no per-sensor transforms"),
    };
    (&t1[at..at + dd], &t2[at..at + dd])
}

/// The sensor queries and keys `[B·N, d]` of `ĥ`.
fn embed(g: Geom, sca: Sca<'_>, hhat: &[f32]) -> (Vec<f32>, Vec<f32>) {
    let (bn, d) = (g.bn(), g.d);
    match sca {
        Sca::Shared(t1, t2) => (nn(hhat, t1.data(), bn, d, d), nn(hhat, t2.data(), bn, d, d)),
        Sca::Off => unreachable!("no embeddings without SCA"),
        generated => {
            let mut q = memory::take_scratch(bn * d);
            let mut k = memory::take_scratch(bn * d);
            for l in 0..bn {
                let row = l * d..(l + 1) * d;
                let (t1, t2) = generated_at(g, generated, l);
                gemm_nn_slice(&hhat[row.clone()], t1, &mut q[row.clone()], 1, d, d);
                gemm_nn_slice(&hhat[row.clone()], t2, &mut k[row], 1, d, d);
            }
            (q, k)
        }
    }
}

/// Eq. 15–16 over all pairs: per sample, `softmax(q kᵀ · scale) ĥ`.
/// Returns `h̄` and the softmax weights, key-major: `[B, N(j), N(i)]`.
fn mix_dense(g: Geom, q: &[f32], k: &[f32], hhat: &[f32], scale: f32) -> (Vec<f32>, Vec<f32>) {
    let (n, d) = (g.n, g.d);
    let mut hbar = memory::take_scratch(g.bn() * d);
    let mut weights = memory::take_scratch(g.b * n * n);
    let mut scratch = memory::take_scratch(d * n + 2 * n);
    for (bi, wt) in weights.chunks_exact_mut(n * n).enumerate() {
        let rows = bi * n * d..(bi + 1) * n * d;
        let ins = [&q[rows.clone()], &k[rows.clone()], &hhat[rows.clone()]];
        dense_forward(n, d, scale, ins, &mut scratch, wt, &mut hbar[rows]);
    }
    memory::recycle(scratch);
    (hbar, weights)
}

/// One sample's dense sensor correlation on the dispatched arm; see
/// [`dense_forward_body`].
#[allow(clippy::too_many_arguments)]
fn dense_forward(
    n: usize,
    d: usize,
    scale: f32,
    ins: [&[f32]; 3],
    scratch: &mut [f32],
    wt: &mut [f32],
    hbar: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if (d == 16 || d == 32) && isa::current() >= Isa::Avx512 {
            // Safety: the tier implies AVX-512F.
            return unsafe { dense_forward_lanes(n, d, scale, ins, wt, hbar) };
        }
        if isa::current() >= Isa::Avx2 {
            // Safety: the tier implies AVX2 and FMA.
            return unsafe { dense_forward_avx2(n, d, scale, ins, scratch, wt, hbar) };
        }
    }
    dense_forward_body(n, d, scale, ins, scratch, wt, hbar)
}

/// [`dense_forward_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn dense_forward_avx2(
    n: usize,
    d: usize,
    scale: f32,
    ins: [&[f32]; 3],
    scratch: &mut [f32],
    wt: &mut [f32],
    hbar: &mut [f32],
) {
    debug_assert!(ins.iter().all(|x| x.len() == n * d) && hbar.len() == n * d);
    debug_assert!(wt.len() == n * n && scratch.len() >= d * n + 2 * n);
    dense_forward_body(n, d, scale, ins, scratch, wt, hbar)
}

/// One sample: `q`, `k`, `h` are `[N, d]`; writes the weights key-major
/// into `wt [N(j), N(i)]` and `h̄ [N, d]`. Key-major, every chain runs
/// down the lanes: a score is `fma` over `c` ascending from `+0.0`,
/// then the scale; query `i`'s softmax takes the max, `exp(x − m)`, the
/// ascending sum and the divide over `j` — `softmax_lastdim`'s row,
/// element for element; `h̄[i]` is `fma` over `j` ascending from `+0.0`.
#[inline(always)]
fn dense_forward_body(
    n: usize,
    d: usize,
    scale: f32,
    [q, k, h]: [&[f32]; 3],
    scratch: &mut [f32],
    wt: &mut [f32],
    hbar: &mut [f32],
) {
    let (qt, rest) = scratch.split_at_mut(d * n);
    let (m, z) = rest.split_at_mut(n);
    let z = &mut z[..n];
    for (i, row) in q.chunks_exact(d).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            qt[c * n + i] = x;
        }
    }
    gemm_nn_slice(k, qt, wt, n, d, n);
    for sv in wt.iter_mut() {
        *sv *= scale;
    }
    m.fill(f32::NEG_INFINITY);
    for srow in wt.chunks_exact(n) {
        for (mv, &x) in m.iter_mut().zip(srow) {
            *mv = mv.max(x);
        }
    }
    for srow in wt.chunks_exact_mut(n) {
        for (x, &mv) in srow.iter_mut().zip(m.iter()) {
            *x -= mv;
        }
    }
    // `exp(t − 0.0)` is `exp(t)`: one wide pass for the whole block.
    mathfn::exp_slice(wt);
    z.fill(0.0);
    for srow in wt.chunks_exact(n) {
        for (zv, &e) in z.iter_mut().zip(srow) {
            *zv += e;
        }
    }
    for srow in wt.chunks_exact_mut(n) {
        for (x, &zv) in srow.iter_mut().zip(z.iter()) {
            *x /= zv;
        }
    }
    gemm_tn_slice(wt, h, hbar, n, n, d);
}

/// Columns `c0..c0 + 16` of the rows `i0..i0 + 16` of a `[N, d]` block
/// transposed into lanes: column `c` holds row `i0 + r`'s element
/// `c0 + c` in lane `r`, zero past the block's last row.
///
/// # Safety
///
/// The CPU must support AVX-512F, `rows.len() == n · d` and
/// `c0 + 16 <= d`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn lane_columns(
    rows: &[f32],
    (n, d): (usize, usize),
    i0: usize,
    c0: usize,
) -> [std::arch::x86_64::__m512; 16] {
    use std::arch::x86_64::*;
    debug_assert!(rows.len() == n * d && i0 < n && c0 + 16 <= d);
    // Safety: row `i0 + r < n` lies inside `rows`, columns `c0..c0 + 16`
    // inside the row.
    unsafe {
        crate::projection::transpose16(std::array::from_fn(|r| {
            if i0 + r < n {
                _mm512_loadu_ps(rows.as_ptr().add((i0 + r) * d + c0))
            } else {
                _mm512_setzero_ps()
            }
        }))
    }
}

/// `Σ_c cols[c] · b[j][c]` for four keys `j0..j0 + 4` (fewer at the
/// end) at once, each one chain in ascending `c` from `+0.0`; `b`'s
/// rows are `cols.len()` wide.
///
/// # Safety
///
/// The CPU must support AVX-512F and `b` must hold rows `j0..j0 + 4`
/// (or up to its end) of `cols.len()`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn four_chains(
    cols: &[std::arch::x86_64::__m512],
    b: &[f32],
    j0: usize,
) -> [std::arch::x86_64::__m512; 4] {
    use std::arch::x86_64::*;
    let d = cols.len();
    let last = b.len() / d - 1;
    debug_assert!(j0 <= last && b.len().is_multiple_of(d));
    // Past the last row the chains rerun row `last`; callers drop them.
    let rows: [*const f32; 4] = std::array::from_fn(|k| {
        // Safety: row `min(j0 + k, last)` lies inside `b`.
        unsafe { b.as_ptr().add((j0 + k).min(last) * d) }
    });
    let mut acc = [_mm512_setzero_ps(); 4];
    // Safety: element `c < d` of each row above.
    unsafe {
        for (c, &col) in cols.iter().enumerate() {
            for (a, &row) in acc.iter_mut().zip(&rows) {
                *a = _mm512_fmadd_ps(col, _mm512_set1_ps(*row.add(c)), *a);
            }
        }
    }
    acc
}

/// [`dense_forward_body`] at `d` of 16 or 32 with the queries in lanes,
/// sixteen at a time: a score is one chain over `c` per key, the softmax
/// runs down the keys lane by lane, and `h̄`'s columns are chains over
/// the keys, sixteen columns per pass — the same chain per element,
/// hence the same bits.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dense_forward_lanes(
    n: usize,
    d: usize,
    scale: f32,
    [q, k, h]: [&[f32]; 3],
    wt: &mut [f32],
    hbar: &mut [f32],
) {
    use std::arch::x86_64::*;
    debug_assert!(d == 16 || d == 32);
    debug_assert!([q, k, h].iter().all(|x| x.len() == n * d) && hbar.len() == n * d);
    debug_assert_eq!(wt.len(), n * n);
    let scale = _mm512_set1_ps(scale);
    // Safety (whole body): every masked access touches lanes `i0..n` of a
    // key row `j < n` of `wt`, every row access a row `< n`.
    unsafe {
        for i0 in (0..n).step_by(16) {
            let mask: __mmask16 = ((1u32 << (n - i0).min(16)) - 1) as __mmask16;
            let base = wt.as_mut_ptr();
            let at = |j: usize| base.add(j * n + i0);
            let mut qc = [_mm512_setzero_ps(); 32];
            for c0 in (0..d).step_by(16) {
                qc[c0..c0 + 16].copy_from_slice(&lane_columns(q, (n, d), i0, c0));
            }
            let mut m = _mm512_set1_ps(f32::NEG_INFINITY);
            for j0 in (0..n).step_by(4) {
                for (jj, acc) in four_chains(&qc[..d], k, j0).iter().enumerate().take(n - j0) {
                    let sv = _mm512_mul_ps(*acc, scale);
                    // `f32::max(m, x)`: a NaN score leaves the max alone.
                    m = _mm512_max_ps(sv, m);
                    _mm512_mask_storeu_ps(at(j0 + jj), mask, sv);
                }
            }
            let mut z = _mm512_setzero_ps();
            for j in 0..n {
                let e = crate::mathfn::wide::exp_v16(_mm512_sub_ps(
                    _mm512_maskz_loadu_ps(mask, at(j)),
                    m,
                ));
                z = _mm512_add_ps(z, e);
                _mm512_mask_storeu_ps(at(j), mask, e);
            }
            for c0 in (0..d).step_by(16) {
                let mut cols = [_mm512_setzero_ps(); 16];
                for j in 0..n {
                    let w = if c0 == 0 {
                        let w = _mm512_div_ps(_mm512_maskz_loadu_ps(mask, at(j)), z);
                        _mm512_mask_storeu_ps(at(j), mask, w);
                        w
                    } else {
                        _mm512_maskz_loadu_ps(mask, at(j))
                    };
                    for (c, col) in cols.iter_mut().enumerate() {
                        *col = _mm512_fmadd_ps(w, _mm512_set1_ps(h[j * d + c0 + c]), *col);
                    }
                }
                let rows = crate::projection::transpose16(cols);
                for (r, row) in rows.iter().enumerate().take(n - i0) {
                    _mm512_storeu_ps(hbar.as_mut_ptr().add((i0 + r) * d + c0), *row);
                }
            }
        }
    }
}

/// [`dense_vjp_body`] at `d = 16`: `dA` and the softmax VJP with the
/// queries in lanes, then `gh`, `gk` and `gq` as rows of sixteen columns
/// whose chains run over the summed index — four rows at a time — the
/// same chain per element, hence the same bits. `ds` is `[N, N]`
/// scratch for the key-major `dS`.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn dense_vjp_lanes(
    n: usize,
    scale: f32,
    [g, q, k, h, wt]: [&[f32]; 5],
    ds: &mut [f32],
    [gq, gk, gh]: [&mut [f32]; 3],
) {
    use std::arch::x86_64::*;
    debug_assert!([g, q, k, h].iter().all(|x| x.len() == n * 16));
    debug_assert!(wt.len() == n * n && ds.len() == n * n);
    debug_assert!([&gq, &gk, &gh].iter().all(|x| x.len() == n * 16));
    let scale = _mm512_set1_ps(scale);
    // Safety (whole body): as in `dense_forward_lanes`.
    unsafe {
        for i0 in (0..n).step_by(16) {
            let mask: __mmask16 = ((1u32 << (n - i0).min(16)) - 1) as __mmask16;
            let w_at = |j: usize| _mm512_maskz_loadu_ps(mask, wt.as_ptr().add(j * n + i0));
            let base = ds.as_mut_ptr();
            let ds_at = |j: usize| base.add(j * n + i0);
            let gc = lane_columns(g, (n, 16), i0, 0);
            let mut sum = _mm512_setzero_ps();
            for j0 in (0..n).step_by(4) {
                for (jj, da) in four_chains(&gc, h, j0).iter().enumerate().take(n - j0) {
                    // `softmax_vjp_lastdim`'s row sum: each product
                    // rounded, then added.
                    sum = _mm512_add_ps(sum, _mm512_mul_ps(*da, w_at(j0 + jj)));
                    _mm512_mask_storeu_ps(ds_at(j0 + jj), mask, *da);
                }
            }
            for j in 0..n {
                let (da, w) = (_mm512_maskz_loadu_ps(mask, ds_at(j)), w_at(j));
                let dsv = _mm512_mul_ps(_mm512_mul_ps(w, _mm512_sub_ps(da, sum)), scale);
                _mm512_mask_storeu_ps(ds_at(j), mask, dsv);
            }
        }
        // gh[j] = Σ_i w[i][j]·g[i], gk[j] = Σ_i dS[i][j]·q[i], gq[i] =
        // Σ_j dS[i][j]·k[j].
        summed_rows(n, gh, wt, false, g);
        summed_rows(n, gk, ds, false, q);
        summed_rows(n, gq, ds, true, k);
    }
}

/// Rows whose chains run over a summed index: `out[r] = Σ_x coef(r, x)
/// · rows[x]`, each column one chain in ascending `x` from `+0.0`, four
/// output rows at a time. `coef(r, x)` is `coef[r·N + x]`, or
/// `coef[x·N + r]` when `transposed`.
///
/// # Safety
///
/// The CPU must support AVX-512F; `out` and `rows` hold `N` rows of
/// sixteen and `coef` `N·N` floats.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn summed_rows(n: usize, out: &mut [f32], coef: &[f32], transposed: bool, rows: &[f32]) {
    use std::arch::x86_64::*;
    debug_assert!(out.len() == n * 16 && rows.len() == n * 16 && coef.len() == n * n);
    let (cp, rp, op) = (coef.as_ptr(), rows.as_ptr(), out.as_mut_ptr());
    let (r_step, x_step) = if transposed { (1, n) } else { (n, 1) };
    // Safety (whole body): `r, x < N` keeps every access inside the
    // extents checked above.
    unsafe {
        for r0 in (0..n).step_by(4) {
            // Past the last row the chains rerun row `N − 1` and are
            // dropped.
            let r: [usize; 4] = std::array::from_fn(|k| (r0 + k).min(n - 1));
            let mut acc = [_mm512_setzero_ps(); 4];
            for x in 0..n {
                let row = _mm512_loadu_ps(rp.add(x * 16));
                for (a, &rk) in acc.iter_mut().zip(&r) {
                    *a =
                        _mm512_fmadd_ps(_mm512_set1_ps(*cp.add(rk * r_step + x * x_step)), row, *a);
                }
            }
            for (k, a) in acc.iter().enumerate().take(n - r0) {
                _mm512_storeu_ps(op.add((r0 + k) * 16), *a);
            }
        }
    }
}

/// One sample's dense sensor-correlation VJP on the dispatched arm; see
/// [`dense_vjp_body`].
fn dense_vjp(
    n: usize,
    d: usize,
    scale: f32,
    ins: [&[f32]; 5],
    scratch: &mut [f32],
    outs: [&mut [f32]; 3],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if d == 16 && isa::current() >= Isa::Avx512 {
            // Safety: the tier implies AVX-512F.
            return unsafe { dense_vjp_lanes(n, scale, ins, &mut scratch[..n * n], outs) };
        }
        if isa::current() >= Isa::Avx2 {
            // Safety: the tier implies AVX2 and FMA.
            return unsafe { dense_vjp_avx2(n, d, scale, ins, scratch, outs) };
        }
    }
    dense_vjp_body(n, d, scale, ins, scratch, outs)
}

/// [`dense_vjp_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn dense_vjp_avx2(
    n: usize,
    d: usize,
    scale: f32,
    ins: [&[f32]; 5],
    scratch: &mut [f32],
    outs: [&mut [f32]; 3],
) {
    debug_assert!(ins[..4].iter().all(|x| x.len() == n * d) && ins[4].len() == n * n);
    debug_assert!(outs.iter().all(|x| x.len() == n * d));
    debug_assert!(scratch.len() >= d * n + n * n + n);
    dense_vjp_body(n, d, scale, ins, scratch, outs)
}

/// Exact VJP of [`dense_forward_body`] for one sample: `g` is `h̄`'s
/// gradient, `wt` the saved key-major weights; writes the gradients of
/// `q`, `k` and (the mix's term of) `h`. Per element the chains of the
/// dense chain's reverse sweep: `dA = g·hᵀ` over `c`, `gh = wᵀ·g` over
/// `i`, the softmax VJP's unfused row sum over `j` and `(w·(dA − s))·
/// scale`, `gq = dS·k` over `j`, `gk = dSᵀ·q` over `i` — each `fma`
/// chain ascending from `+0.0`.
#[inline(always)]
fn dense_vjp_body(
    n: usize,
    d: usize,
    scale: f32,
    [g, q, k, h, wt]: [&[f32]; 5],
    scratch: &mut [f32],
    [gq, gk, gh]: [&mut [f32]; 3],
) {
    let (gt, rest) = scratch.split_at_mut(d * n);
    let (ds, s) = rest.split_at_mut(n * n);
    let s = &mut s[..n];
    for (i, row) in g.chunks_exact(d).enumerate() {
        for (c, &x) in row.iter().enumerate() {
            gt[c * n + i] = x;
        }
    }
    gemm_nn_slice(h, gt, ds, n, d, n);
    gemm_nn_slice(wt, g, gh, n, n, d);
    s.fill(0.0);
    for (drow, wrow) in ds.chunks_exact(n).zip(wt.chunks_exact(n)) {
        for ((sv, &da), &wv) in s.iter_mut().zip(drow).zip(wrow) {
            *sv += da * wv;
        }
    }
    for (drow, wrow) in ds.chunks_exact_mut(n).zip(wt.chunks_exact(n)) {
        for ((dv, &wv), &sv) in drow.iter_mut().zip(wrow).zip(s.iter()) {
            *dv = (wv * (*dv - sv)) * scale;
        }
    }
    gemm_tn_slice(ds, k, gq, n, n, d);
    gemm_nn_slice(ds, q, gk, n, n, d);
}

/// `[B, N, d]` over a pool buffer.
fn sensors(g: Geom, buf: Vec<f32>) -> Result<Tensor> {
    Tensor::from_vec(buf, &[g.b, g.n, g.d])
}

/// Layer forward: the keys and values through `wts` into `[B, N, W,
/// d]`, with the activations [`vjp`] needs when `save` is set. Spans:
/// `queries`, `proxy_attention`, `gate` and `sensor_attention`, once per
/// window each.
pub fn forward(
    kv: Kv<'_>,
    wts: &Weights<'_>,
    heads: usize,
    save: bool,
) -> Result<(Tensor, Option<Saved>)> {
    let g = geometry(kv, wts, heads)?;
    let KvLayout { keys, values, .. } = kv.layout().expect("checked by geometry");
    let (bn, w, d) = (g.bn(), g.w, g.d);
    let scale = 1.0 / (d as f32).sqrt();
    let mut out = memory::take_scratch(bn * w * d);
    let mut saved = Vec::with_capacity(if save { w } else { 0 });
    let mut prev: Option<Vec<f32>> = None;
    for wi in 0..w {
        let span = stwa_observe::span!("queries");
        let pq = queries(g, wts, wi, prev.as_deref());
        drop(span);
        let span = stwa_observe::span!("proxy_attention");
        let dm = g.dims(wi);
        let mut attn = memory::take_scratch(dm.weights_len());
        // Zeroed: the mix adds each column's terms onto `+0.0`.
        let mut hw = memory::take_filled(g.rows() * d, 0.0);
        attention::forward_slices(dm, &pq, keys, values, &mut attn, &mut hw);
        drop(span);
        let span = stwa_observe::span!("gate");
        let (hhat, gate) = aggregate(g, wts, &hw);
        drop(span);
        let (hbar, sca) = match wts.sca {
            Sca::Off => (hhat, None),
            sca => {
                let _span = stwa_observe::span!("sensor_attention");
                let (q, k) = embed(g, sca, &hhat);
                let (hbar, mix, q, k, hhat) = match wts.graph {
                    Some(graph) => {
                        let (q, k, hhat) = (sensors(g, q)?, sensors(g, k)?, sensors(g, hhat)?);
                        let (hbar, mix) = sparse_attention_forward(&q, &k, &hhat, graph, scale)?;
                        (hbar.into_vec(), mix, q, k, hhat)
                    }
                    None => {
                        let (hbar, mix) = mix_dense(g, &q, &k, &hhat, scale);
                        (hbar, flat(mix), flat(q), flat(k), flat(hhat))
                    }
                };
                (hbar, Some([hhat, q, k, mix]))
            }
        };
        for (l, row) in hbar.chunks_exact(d).enumerate() {
            out[(l * w + wi) * d..(l * w + wi + 1) * d].copy_from_slice(row);
        }
        if save {
            saved.push(WindowSaved {
                pq: flat(pq),
                attn: flat(attn),
                hw: flat(hw),
                gate,
                sca,
            });
        } else {
            memory::recycle(pq);
            memory::recycle(attn);
            memory::recycle(hw);
        }
        if let Some(old) = prev.replace(hbar) {
            memory::recycle(old);
        }
    }
    if let Some(old) = prev {
        memory::recycle(old);
    }
    let out = Tensor::from_vec(out, &[g.b, g.n, w, d])?;
    Ok((out, save.then_some(Saved { windows: saved })))
}

/// The weight gradient of `x [B, N, p, d] @ w [d, d]` for upstream `gy`
/// of the same shape, reduced to `[d, d]` as the tape reduces it: with
/// one proxy, the leading-axis-fused product (a chain over samples per
/// sensor) summed over sensors; otherwise the per-pair `xᵀ·gy` summed
/// over samples, then over sensors.
fn gate_partial(g: Geom, x: &[f32], gy: &[f32]) -> Tensor {
    let (b, n, p, d) = (g.b, g.n, g.p, g.d);
    let mut per_sensor = memory::take_scratch(n * d * d);
    #[cfg(target_arch = "x86_64")]
    let lanes = d == 16 && p == 1 && isa::current() >= Isa::Avx512;
    #[cfg(not(target_arch = "x86_64"))]
    let lanes = false;
    if lanes {
        // Safety: the tier implies AVX-512F.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            gate_partial_lanes(g, x, gy, &mut per_sensor)
        };
    } else if p == 1 {
        let mut xs = memory::take_scratch(b * d);
        let mut gs = memory::take_scratch(b * d);
        for (ni, acc) in per_sensor.chunks_exact_mut(d * d).enumerate() {
            for bi in 0..b {
                let at = (bi * n + ni) * d;
                xs[bi * d..(bi + 1) * d].copy_from_slice(&x[at..at + d]);
                gs[bi * d..(bi + 1) * d].copy_from_slice(&gy[at..at + d]);
            }
            gemm_tn_slice(&xs, &gs, acc, d, b, d);
        }
        memory::recycle(xs);
        memory::recycle(gs);
    } else {
        per_sensor.fill(0.0);
        let mut part = memory::take_scratch(d * d);
        for bi in 0..b {
            for (ni, acc) in per_sensor.chunks_exact_mut(d * d).enumerate() {
                let at = (bi * n + ni) * p * d;
                gemm_tn_slice(&x[at..at + p * d], &gy[at..at + p * d], &mut part, d, p, d);
                add_into(acc, &part);
            }
        }
        memory::recycle(part);
    }
    let total = sum_from_zero(d * d, per_sensor.chunks_exact(d * d));
    memory::recycle(per_sensor);
    Tensor::from_vec(total, &[d, d]).expect("[d, d]")
}

/// [`gate_partial`]'s per-sensor products at `d = 16` and one proxy:
/// for each sensor, sixteen zmm accumulators — one output row each —
/// take `fma(x[b, n, i], gy[b, n, :], ·)` in ascending sample order from
/// `+0.0`, `matmul_tn_sum_lead`'s chain, without gathering the sensor's
/// rows first.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gate_partial_lanes(g: Geom, x: &[f32], gy: &[f32], per_sensor: &mut [f32]) {
    use std::arch::x86_64::*;
    let (b, n) = (g.b, g.n);
    debug_assert!(g.d == 16 && g.p == 1);
    debug_assert!(x.len() == b * n * 16 && gy.len() == x.len() && per_sensor.len() == n * 256);
    // Safety (whole body): pair `(bi, ni)`'s rows and sensor `ni`'s
    // output block lie inside the extents checked above.
    unsafe {
        for ni in 0..n {
            let mut acc = [_mm512_setzero_ps(); 16];
            for bi in 0..b {
                let at = (bi * n + ni) * 16;
                let grow = _mm512_loadu_ps(gy.as_ptr().add(at));
                for (i, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_ps(_mm512_set1_ps(x[at + i]), grow, *a);
                }
            }
            for (i, a) in acc.iter().enumerate() {
                _mm512_storeu_ps(per_sensor.as_mut_ptr().add(ni * 256 + i * 16), *a);
            }
        }
    }
}

/// `a + b` elementwise into `a`.
fn add_into(a: &mut [f32], b: &[f32]) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

/// Sensor-correlation VJP for window summary gradient `gbar`: hands the
/// embedding partials to `sink` (θ2 first) and returns `ĥ`'s gradient.
fn sca_vjp(
    g: Geom,
    wts: &Weights<'_>,
    [hhat, q, k, mix]: &[Tensor; 4],
    gbar: Vec<f32>,
    sink: &mut dyn FnMut(Part, Tensor) -> Result<()>,
) -> Result<Vec<f32>> {
    let (b, n, d, bn) = (g.b, g.n, g.d, g.bn());
    let scale = 1.0 / (d as f32).sqrt();
    let (hh, qd, kd) = (hhat.data(), q.data(), k.data());
    // Through the mix: `ĥ`'s first term and the sensor query / key
    // gradients.
    let (mut gh, gq, gk) = match wts.graph {
        Some(graph) => {
            let shape = [b, n, d];
            let gt = Tensor::from_vec(gbar, &shape)?;
            let view = |t: &Tensor| t.reshape(&shape);
            let (dq, dk, dh) =
                sparse_attention_vjp(&gt, &view(q)?, &view(k)?, &view(hhat)?, mix, graph, scale)?;
            (dh.into_vec(), dq, dk)
        }
        None => {
            let mut gh = memory::take_scratch(bn * d);
            let mut gq = memory::take_scratch(bn * d);
            let mut gk = memory::take_scratch(bn * d);
            let mut scratch = memory::take_scratch(d * n + n * n + n);
            for bi in 0..b {
                let rows = bi * n * d..(bi + 1) * n * d;
                let wt = &mix.data()[bi * n * n..(bi + 1) * n * n];
                let ins = [
                    &gbar[rows.clone()],
                    &qd[rows.clone()],
                    &kd[rows.clone()],
                    &hh[rows.clone()],
                    wt,
                ];
                let outs = [&mut gq[rows.clone()], &mut gk[rows.clone()], &mut gh[rows]];
                dense_vjp(n, d, scale, ins, &mut scratch, outs);
            }
            memory::recycle(scratch);
            memory::recycle(gbar);
            (gh, flat(gq), flat(gk))
        }
    };
    // Through the embeddings, `k` then `q`.
    match wts.sca {
        Sca::Shared(t1, t2) => {
            for (grad, theta, part) in [(&gk, t2, Part::Theta2), (&gq, t1, Part::Theta1)] {
                let tt = transpose(theta.data(), d, d);
                let gpath = nn(grad.data(), &tt, bn, d, d);
                memory::recycle(tt);
                sink(
                    part,
                    Tensor::from_vec(tn(hh, grad.data(), d, bn, d), &[d, d])?,
                )?;
                add_into(&mut gh, &gpath);
                memory::recycle(gpath);
            }
        }
        Sca::Generated(t1, t2) => {
            let mut rows_grad: Option<Vec<f32>> = None;
            for (grad, theta, part) in [(&gk, t2, Part::Theta2), (&gq, t1, Part::Theta1)] {
                let (gd, td) = (grad.data(), theta.data());
                let mut grow = memory::take_scratch(bn * d);
                let mut partial = memory::take_scratch(bn * d * d);
                for l in 0..bn {
                    let (row, mat) = (l * d..(l + 1) * d, l * d * d..(l + 1) * d * d);
                    let tt = transpose(&td[mat.clone()], d, d);
                    gemm_nn_slice(&gd[row.clone()], &tt, &mut grow[row.clone()], 1, d, d);
                    memory::recycle(tt);
                    gemm_tn_slice(&hh[row.clone()], &gd[row], &mut partial[mat], d, 1, d);
                }
                sink(part, Tensor::from_vec(partial, &[b, n, d, d])?)?;
                match &mut rows_grad {
                    None => rows_grad = Some(grow),
                    Some(acc) => {
                        add_into(acc, &grow);
                        memory::recycle(grow);
                    }
                }
            }
            let rows_grad = rows_grad.expect("two embeddings");
            add_into(&mut gh, &rows_grad);
            memory::recycle(rows_grad);
        }
        Sca::Off | Sca::GeneratedRows(_) => unreachable!("checked by vjp"),
    }
    Ok(gh)
}

/// Exact VJP of [`forward`] over joint keys and values `kv [B, N, 2, W,
/// S, d]`, with generated transforms (if any) `[B, N, d, d]`. `grad` and
/// `out` are the output's gradient and value, `saved` what the forward
/// kept. Keys' and values' gradients are added into `gkv` (laid out like
/// `kv`) when it is given; every parameter partial goes to `sink`, window
/// by window from the last, in the order [`Part`] lists them. Spans, per
/// window: `sensor_attention`, `gate`, `proxy_attention`, `fusion` (the
/// fusion and the proxies' partials).
#[allow(clippy::too_many_arguments)]
pub fn vjp(
    grad: &Tensor,
    out: &Tensor,
    kv: &Tensor,
    wts: &Weights<'_>,
    heads: usize,
    saved: &Saved,
    mut gkv: Option<&mut [f32]>,
    sink: &mut dyn FnMut(Part, Tensor) -> Result<()>,
) -> Result<()> {
    let g = geometry(Kv::Joint(kv), wts, heads)?;
    let (b, n, w, p, d, bn, rows) = (g.b, g.n, g.w, g.p, g.d, g.bn(), g.rows());
    match wts.sca {
        Sca::Generated(t1, _) if t1.shape()[0] != b => {
            return invalid(format!("vjp: generated θ {:?} for B = {b}", t1.shape()))
        }
        Sca::GeneratedRows(_) => return invalid("vjp: generated θ rows".into()),
        _ => {}
    }
    let want = [b, n, w, d];
    if grad.shape() != want || out.shape() != want || saved.windows.len() != w {
        return invalid(format!(
            "vjp: grad {:?} / out {:?} / {} saved windows for {want:?}",
            grad.shape(),
            out.shape(),
            saved.windows.len()
        ));
    }
    if gkv.as_ref().is_some_and(|gkv| gkv.len() != kv.len()) {
        return invalid(format!("vjp: kv gradient for {:?}", kv.shape()));
    }
    let (gd, od) = (grad.data(), out.data());
    let gate_t = wts
        .gate
        .map(|(w1, w2)| (transpose(w1.data(), d, d), transpose(w2.data(), d, d)));
    let fusion_t = wts.fusion.map(|(fw, _)| transpose(fw.data(), 2 * d, d));
    // Window `wi`'s summary gradient from window `wi + 1`'s fusion.
    let mut from_next: Option<Vec<f32>> = None;
    for wi in (0..w).rev() {
        let sv = &saved.windows[wi];
        let mut gbar = memory::take_scratch(bn * d);
        for (l, dst) in gbar.chunks_exact_mut(d).enumerate() {
            let src = &gd[(l * w + wi) * d..(l * w + wi + 1) * d];
            match &from_next {
                Some(next) => {
                    for ((o, &a), &x) in dst.iter_mut().zip(&next[l * d..(l + 1) * d]).zip(src) {
                        *o = a + x;
                    }
                }
                None => dst.copy_from_slice(src),
            }
        }
        if let Some(next) = from_next.take() {
            memory::recycle(next);
        }

        let ghhat = match &sv.sca {
            Some(parts) => {
                let _span = stwa_observe::span!("sensor_attention");
                sca_vjp(g, wts, parts, gbar, sink)?
            }
            None => gbar,
        };

        // Through the aggregator to the contexts.
        let span = stwa_observe::span!("gate");
        let hw = sv.hw.data();
        let mut ghw = memory::take_scratch(rows * d);
        match (&sv.gate, &gate_t) {
            (Some((t, gate)), Some((w1t, w2t))) => {
                let (t, gate) = (t.data(), gate.data());
                let mut gm2 = memory::take_scratch(rows * d);
                // Per context element: `g · gate` to the contexts, and
                // `(g · h_w) · σ'` to the second product.
                for (l, gh) in ghhat.chunks_exact(d).enumerate() {
                    let at = l * p * d..(l + 1) * p * d;
                    for (((o, m2), hrow), yrow) in ghw[at.clone()]
                        .chunks_exact_mut(d)
                        .zip(gm2[at.clone()].chunks_exact_mut(d))
                        .zip(hw[at.clone()].chunks_exact(d))
                        .zip(gate[at].chunks_exact(d))
                    {
                        for j in 0..d {
                            let (y, g) = (yrow[j], gh[j]);
                            o[j] = g * y;
                            m2[j] = (g * hrow[j]) * (y * (-y + 1.0));
                        }
                    }
                }
                let mut gm1 = nn(&gm2, w2t, rows, d, d);
                sink(Part::Gate2, gate_partial(g, t, &gm2))?;
                memory::recycle(gm2);
                for (x, &y) in gm1.iter_mut().zip(t) {
                    *x *= -(y * y) + 1.0;
                }
                let ghw2 = nn(&gm1, w1t, rows, d, d);
                sink(Part::Gate1, gate_partial(g, hw, &gm1))?;
                memory::recycle(gm1);
                add_into(&mut ghw, &ghw2);
                memory::recycle(ghw2);
            }
            _ => {
                let inv = 1.0 / p as f32;
                for (block, gh) in ghw.chunks_exact_mut(p * d).zip(ghhat.chunks_exact(d)) {
                    for row in block.chunks_exact_mut(d) {
                        for (o, &g) in row.iter_mut().zip(gh) {
                            *o = g * inv;
                        }
                    }
                }
            }
        }
        memory::recycle(ghhat);
        drop(span);

        // Through the attention: `gk` / `gv` into window `wi`'s blocks.
        let span = stwa_observe::span!("proxy_attention");
        let dm = g.dims(wi);
        let ins = [&ghw[..], sv.pq.data(), kv.data(), kv.data(), sv.attn.data()];
        let gq = attention::run_vjp(dm, ins, rows * d, &mut |l, gkb, gvb| {
            if let Some(gkv) = gkv.as_deref_mut() {
                for (range, block) in [(dm.k_at(l), gkb), (dm.v_at(l), gvb)] {
                    for (o, &x) in gkv[range].iter_mut().zip(block) {
                        *o += x;
                    }
                }
            }
        });
        memory::recycle(ghw);
        drop(span);

        // Through the fusion to the proxies and the previous summary.
        let _span = stwa_observe::span!("fusion");
        let gpb = match (wi, wts.fusion, &fusion_t) {
            (1.., Some((_, _)), Some(ft)) => {
                let mut gpre = gq;
                for (x, &y) in gpre.iter_mut().zip(sv.pq.data()) {
                    *x *= -(y * y) + 1.0;
                }
                let bias = sum_from_zero(d, gpre.chunks_exact(d));
                sink(Part::FusionBias, Tensor::from_vec(bias, &[d])?)?;
                let gst = nn(&gpre, ft, rows, d, 2 * d);
                let mut prev = memory::take_scratch(bn * d);
                for (l, dst) in prev.chunks_exact_mut(d).enumerate() {
                    dst.copy_from_slice(&od[(l * w + wi - 1) * d..(l * w + wi) * d]);
                }
                let st = stacked_rows(g, wts.proxies.data(), wi, &prev);
                memory::recycle(prev);
                let weight = tn(&st, &gpre, 2 * d, rows, d);
                memory::recycle(st);
                memory::recycle(gpre);
                sink(Part::FusionWeight, Tensor::from_vec(weight, &[2 * d, d])?)?;
                // The tiled summary's half, summed over proxies (a copy
                // at `p = 1`), and the proxy block's half.
                let mut next = if p == 1 {
                    memory::take_scratch(bn * d)
                } else {
                    memory::take_filled(bn * d, 0.0)
                };
                let mut gpb = memory::take_scratch(rows * d);
                for (row, (src, dst)) in gst
                    .chunks_exact(2 * d)
                    .zip(gpb.chunks_exact_mut(d))
                    .enumerate()
                {
                    let acc = &mut next[(row / p) * d..(row / p + 1) * d];
                    if p == 1 {
                        acc.copy_from_slice(&src[..d]);
                    } else {
                        add_into(acc, &src[..d]);
                    }
                    dst.copy_from_slice(&src[d..]);
                }
                memory::recycle(gst);
                from_next = Some(next);
                gpb
            }
            _ => gq,
        };

        // The proxy broadcast over samples: summed (a copy at `B = 1`).
        let block = n * p * d;
        let proxies = if b == 1 {
            gpb
        } else {
            let summed = sum_from_zero(block, gpb.chunks_exact(block));
            memory::recycle(gpb);
            summed
        };
        sink(Part::Proxies(wi), Tensor::from_vec(proxies, &[n, 1, p, d])?)?;
    }
    for buf in gate_t.into_iter().flat_map(|(a, b)| [a, b]).chain(fusion_t) {
        memory::recycle(buf);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    /// `(B, N, W, S, p, d, heads, learned gate, SCA: 0 off / 1 shared /
    /// 2 generated, sparse)`.
    type Case = (usize, usize, usize, usize, usize, usize, usize, bool, u8, bool);

    /// The train step's first layer, a ragged sixteen-lane remainder,
    /// one sample and one window, two proxies with generated sparse
    /// mixing, and the serving width (`d = 32`, eight heads: the
    /// attention walk's `(8, 4)` instantiation; dense mixing over a full
    /// sixteen-lane group and a ragged one).
    const CASES: [Case; 7] = [
        (32, 20, 4, 3, 1, 16, 4, true, 1, false),
        (3, 7, 2, 2, 1, 16, 1, true, 1, true),
        (1, 5, 1, 3, 1, 8, 2, true, 0, false),
        (2, 9, 3, 2, 2, 16, 4, false, 2, true),
        (2, 4, 2, 3, 2, 8, 4, true, 2, false),
        (3, 20, 2, 3, 1, 32, 8, true, 1, false),
        (2, 5, 3, 2, 2, 32, 8, true, 2, true),
    ];

    /// Output bits, `kv`'s gradient bits and every partial's bits in the
    /// order the sink received them.
    type Run = (Vec<u32>, Vec<u32>, Vec<(Part, Vec<u32>)>);

    struct Operands {
        kv: Tensor,
        proxies: Tensor,
        fusion: Option<[Tensor; 2]>,
        gate: Option<[Tensor; 2]>,
        theta: Option<[Tensor; 2]>,
        generated: bool,
        graph: Option<Arc<SensorGraph>>,
        grad: Tensor,
        heads: usize,
    }

    impl Operands {
        fn new(case: Case) -> Self {
            let (b, n, w, s, p, d, heads, learned, sca, sparse) = case;
            let mut rng = StdRng::seed_from_u64((b * 131 + n * 17 + w) as u64);
            let mut t =
                |shape: &[usize], scale: f32| Tensor::randn(shape, &mut rng).mul_scalar(scale);
            let theta_shape = if sca == 2 {
                vec![b, n, d, d]
            } else {
                vec![d, d]
            };
            Operands {
                kv: t(&[b, n, 2, w, s, d], 1.0),
                proxies: t(&[n, w, p, d], 1.0),
                fusion: (w > 1).then(|| [t(&[2 * d, d], 0.3), t(&[d], 0.2)]),
                gate: learned.then(|| [t(&[d, d], 0.3), t(&[d, d], 0.3)]),
                theta: (sca > 0).then(|| [t(&theta_shape, 0.4), t(&theta_shape, 0.4)]),
                generated: sca == 2,
                graph: (sparse && sca > 0).then(|| {
                    let rows: Vec<Vec<usize>> = (0..n)
                        .map(|i| (i.saturating_sub(1)..(i + 2).min(n)).collect())
                        .collect();
                    Arc::new(SensorGraph::from_neighbor_lists(n, &rows).unwrap())
                }),
                grad: t(&[b, n, w, d], 1.0),
                heads,
            }
        }

        fn weights(&self) -> Weights<'_> {
            fn pair(p: &Option<[Tensor; 2]>) -> Option<(&Tensor, &Tensor)> {
                p.as_ref().map(|[a, b]| (a, b))
            }
            Weights {
                proxies: &self.proxies,
                fusion: pair(&self.fusion),
                gate: pair(&self.gate),
                sca: match (&self.theta, self.generated) {
                    (None, _) => Sca::Off,
                    (Some([t1, t2]), false) => Sca::Shared(t1, t2),
                    (Some([t1, t2]), true) => Sca::Generated(t1, t2),
                },
                graph: self.graph.as_deref(),
            }
        }

        fn run(&self) -> Run {
            let bits = |t: &[f32]| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let wts = self.weights();
            let kv = Kv::Joint(&self.kv);
            let (out, saved) = forward(kv, &wts, self.heads, true).unwrap();
            let (eval, none) = forward(kv, &wts, self.heads, false).unwrap();
            assert!(none.is_none());
            assert_eq!(
                bits(out.data()),
                bits(eval.data()),
                "saving changes no value"
            );
            let mut gkv = vec![0.0; self.kv.len()];
            let mut parts = Vec::new();
            vjp(
                &self.grad,
                &out,
                &self.kv,
                &wts,
                self.heads,
                &saved.unwrap(),
                Some(&mut gkv),
                &mut |part, t| {
                    parts.push((part, bits(t.data())));
                    Ok(())
                },
            )
            .unwrap();
            (bits(out.data()), bits(&gkv), parts)
        }
    }

    #[test]
    fn every_isa_arm_computes_the_same_bits() {
        for case in CASES {
            let ops = Operands::new(case);
            let want = ops.run();
            crate::isa::for_each_ceiling("window layer", |cap| {
                let got = ops.run();
                assert!(got.0 == want.0, "output, {cap:?} {case:?}");
                assert!(got.1 == want.1, "kv gradient, {cap:?} {case:?}");
                assert_eq!(got.2.len(), want.2.len());
                for ((gp, gb), (wp, wb)) in got.2.iter().zip(&want.2) {
                    assert_eq!(gp, wp);
                    assert!(gb == wb, "{gp:?}, {cap:?} {case:?}");
                }
            });
        }
    }

    #[test]
    fn split_keys_values_and_every_theta_layout_give_the_joint_bits() {
        let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for case in CASES {
            let (b, n, w, s, _, d, heads, ..) = case;
            let ops = Operands::new(case);
            let half = |i| ops.kv.narrow(2, i, 1).unwrap().reshape(&[b, n, w, s, d]).unwrap();
            let (keys, values) = (half(0), half(1));
            let (joint, split) = (Kv::Joint(&ops.kv), Kv::Split(&keys, &values));
            // Generated θ as the frozen engine holds it: flat `θ1 | θ2`
            // rows, and sample 0's transforms broadcast over the batch
            // (against their materialized broadcast).
            let generated = match (&ops.theta, ops.generated) {
                (Some([t1, t2]), true) => {
                    let dd = d * d;
                    let mut rows = Vec::with_capacity(2 * t1.len());
                    for l in 0..b * n {
                        rows.extend_from_slice(&t1.data()[l * dd..(l + 1) * dd]);
                        rows.extend_from_slice(&t2.data()[l * dd..(l + 1) * dd]);
                    }
                    let first = |t: &Tensor| t.narrow(0, 0, 1).unwrap();
                    let (c1, c2) = (first(t1), first(t2));
                    let wide = |t: &Tensor| t.broadcast_to(&[b, n, d, d]).unwrap();
                    Some((
                        Tensor::from_vec(rows, &[b * n, 2 * d * d]).unwrap(),
                        [wide(&c1), wide(&c2)],
                        [c1, c2],
                    ))
                }
                _ => None,
            };
            let run = |kv, sca: Option<Sca<'_>>| {
                let wts = Weights {
                    sca: sca.unwrap_or(ops.weights().sca),
                    ..ops.weights()
                };
                bits(&forward(kv, &wts, heads, false).unwrap().0)
            };
            crate::isa::for_each_ceiling("window layer operands", |cap| {
                assert!(run(split, None) == run(joint, None), "split K/V, {cap:?} {case:?}");
                if let Some((rows, [w1, w2], [c1, c2])) = &generated {
                    let want = run(joint, None);
                    assert!(
                        run(split, Some(Sca::GeneratedRows(rows))) == want,
                        "θ rows, {cap:?} {case:?}"
                    );
                    assert!(
                        run(split, Some(Sca::Generated(c1, c2)))
                            == run(joint, Some(Sca::Generated(w1, w2))),
                        "broadcast θ, {cap:?} {case:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn partials_arrive_window_by_window_from_the_last() {
        let ops = Operands::new(CASES[3]);
        let (_, _, parts) = ops.run();
        let order: Vec<Part> = parts.iter().map(|(p, _)| *p).collect();
        let window = |wi: usize, fused: bool| {
            let mut v = vec![Part::Theta2, Part::Theta1];
            if fused {
                v.extend([Part::FusionBias, Part::FusionWeight]);
            }
            v.push(Part::Proxies(wi));
            v
        };
        let want: Vec<Part> = (0..3).rev().flat_map(|wi| window(wi, wi > 0)).collect();
        assert_eq!(order, want);
    }

    #[test]
    fn rejects_mismatched_operands() {
        let ops = Operands::new(CASES[2]);
        let wts = ops.weights();
        // Heads that do not divide d, a fusion on one window, a
        // gradient of the wrong shape.
        let kv = Kv::Joint(&ops.kv);
        assert!(forward(kv, &wts, 3, false).is_err());
        let extra = Tensor::zeros(&[16, 8]);
        let bias = Tensor::zeros(&[8]);
        let fused = Weights {
            fusion: Some((&extra, &bias)),
            ..wts
        };
        assert!(forward(kv, &fused, 2, false).is_err());
        // Split keys and values of different shapes.
        let keys = Tensor::zeros(&[1, 5, 1, 3, 8]);
        let values = Tensor::zeros(&[1, 5, 1, 2, 8]);
        assert!(forward(Kv::Split(&keys, &values), &wts, 2, false).is_err());
        let (out, saved) = forward(Kv::Joint(&ops.kv), &wts, 2, true).unwrap();
        let bad = Tensor::zeros(&[1, 5, 1, 4]);
        let sink = &mut |_: Part, _: Tensor| Ok(());
        assert!(vjp(&bad, &out, &ops.kv, &wts, 2, &saved.unwrap(), None, sink).is_err());
    }
}
