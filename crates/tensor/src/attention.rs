//! Fused multi-head scaled-dot-product attention: forward and exact VJP
//! as one walk each, with no head split/merge copies.
//!
//! `q` is `[..., Tq, d]`, `k`/`v` are `[..., Tk, d]` with the same
//! leading axes (no broadcasting); `d = heads · dh`. Each head's
//! `dh`-wide column block is read in place and the context is written
//! straight into the merged `[..., Tq, d]` layout. The softmax rows are
//! kept as `weights [lead, heads, Tq, Tk]` — the one activation the VJP
//! needs. [`forward_window`] is the same forward with `k`/`v` read as
//! one window of `[..., W, Tk, d]` in place, for the inference engine's
//! all-window projections; [`crate::window_layer`] runs the walks over
//! window `wi` of one `[..., 2, W, Tk, d]` keys-then-values tensor (the
//! training graph's [`crate::projection`] output) the same way.
//!
//! # Order contract
//!
//! Every value is the one the unfused chain — reshape/swap-axes head
//! split, `matmul_nt`, `mul_scalar`, `softmax_lastdim`, `matmul`,
//! swap-axes/reshape merge, and that chain's reverse sweep — computes,
//! bit for bit. Every sum below is **one ascending f32 chain starting
//! from `+0.0`**. The contractions — the rows the chain runs through a
//! `matmul*` entry — take each term as one fused multiply-add with a
//! single rounding, the `linalg` order contract; the softmax-VJP row
//! sum is `mul` + `sum_axis` in the chain, so it rounds each product
//! before adding it:
//!
//! | value | sum over | term | what the chain runs |
//! |---|---|---|---|
//! | `score[i,j] = (Σ_c q[i,c]·k[j,c]) · scale` | `c` | fused | `matmul_nt`, `mul_scalar` |
//! | `w[i,j] = e[i,j] / Σ_j e[i,j]`, `e = exp(score − max_j score)` | `j` | add | `softmax_lastdim` |
//! | `out[i,c] = Σ_j w[i,j]·v[j,c]` | `j` | fused | `matmul` |
//! | `dA[i,j] = Σ_c g[i,c]·v[j,c]` | `c` | fused | `matmul_nt(g, v)` |
//! | `dS[i,j] = (w·(dA − Σ_j dA·w)) · scale` | `j` | unfused | `softmax_vjp_lastdim`, `mul_scalar` |
//! | `gq[i,c] = Σ_j dS[i,j]·k[j,c]` | `j` | fused | `matmul(dS, k)` |
//! | `gk[j,c] = Σ_i dS[i,j]·q[i,c]` | `i` | fused | `matmul_tn(dS, q)` |
//! | `gv[j,c] = Σ_i w[i,j]·g[i,c]` | `i` | fused | `matmul_tn(w, g)` |
//!
//! Both walks run through an `avx2,fma` instantiation whenever
//! [`crate::isa::current`] is at least `Isa::Avx2`, so `dot` / `axpy`'s
//! `mul_add` is one `vfmadd`; the scalar tier calls libm's correctly
//! rounded `fmaf`, the same bits.
//!
//! The forward runs in three passes — scores, the row softmax over the
//! whole weights buffer ([`softmax_rows`]: short rows subtract their
//! max, share **one** wide `exp` per block, then normalise), and the
//! mix — because `t = x − m; exp(t − 0.0)` is the same bits as
//! `exp(x − m)`, and one wide call replaces a scalar-tail call per 2–3
//! element row.
//!
//! The walk is one generic body over `const H, const DH` (0 = read the
//! run-time value), instantiated at the head layouts the models use so
//! the per-head loops unroll into independent chains, and once fully
//! dynamic for everything else.
//!
//! On an AVX-512 host the forward puts sixteen leads in the lanes of
//! each zmm ([`forward_lanes`]) at both widths the models run: `d = 16`
//! (training) and `d = 32` (serving, eight heads of four). A lead's
//! rows are transposed in registers, one sixteen-column transpose per
//! zmm of width, so each score, softmax and mix term is one vector op
//! over sixteen leads; leads past the last whole group take the
//! instantiated walk. The VJP's register walk ([`vjp_rows`]) is
//! `d = 16` only.

#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Isa};
use crate::reduce::softmax_rows;
use crate::{memory, Result, Tensor, TensorError};

/// Problem extents, leading axes flattened into `lead`.
#[derive(Clone, Copy)]
pub(crate) struct Dims {
    lead: usize,
    tq: usize,
    tk: usize,
    heads: usize,
    dh: usize,
    /// Where lead `l`'s `[Tk, d]` key block starts — `l · kv_stride +
    /// k_offset` — and its value block, at `v_offset`. Plain operands
    /// are `(Tk·d, 0, 0)`; window `wi` of separate `[..., W, Tk, d]`
    /// keys and values is `(W·Tk·d, wi·Tk·d, wi·Tk·d)`; window `wi` of
    /// one `[..., 2, W, Tk, d]` projection is `(2·W·Tk·d, wi·Tk·d,
    /// (W + wi)·Tk·d)`.
    kv_stride: usize,
    k_offset: usize,
    v_offset: usize,
}

impl Dims {
    /// Window `wi` of `[lead, halves, W, Tk, d]` keys (then values), for
    /// callers that hold the operands as raw rows — `halves = 2` is one
    /// keys-then-values buffer, `halves = 1` separate key and value
    /// buffers of the same layout (the extents [`window_dims`] checks).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn window(
        lead: usize,
        tq: usize,
        tk: usize,
        heads: usize,
        d: usize,
        halves: usize,
        w: usize,
        wi: usize,
    ) -> Dims {
        let block_len = tk * d;
        Dims {
            lead,
            tq,
            tk,
            heads,
            dh: d / heads,
            kv_stride: halves * w * block_len,
            k_offset: wi * block_len,
            v_offset: ((halves - 1) * w + wi) * block_len,
        }
    }

    /// Floats of the softmax weights one walk writes.
    pub(crate) fn weights_len(self) -> usize {
        self.lead * self.heads * self.tq * self.tk
    }

    /// The slice lengths a walk's pointer arithmetic assumes: `q` (and
    /// the context / `gq`) of at least `lead·Tq·d`, every lead's key and
    /// value block inside `k` / `v`, and room for the weights.
    fn debug_check_lens(self, q: usize, k: usize, v: usize, weights: usize) {
        let d = self.heads * self.dh;
        debug_assert!(q >= self.lead * self.tq * d, "attention: q length");
        if self.lead > 0 {
            debug_assert!(self.k_at(self.lead - 1).end <= k, "attention: k length");
            debug_assert!(self.v_at(self.lead - 1).end <= v, "attention: v length");
        }
        debug_assert!(weights >= self.weights_len(), "attention: weights length");
    }

    /// Head count and width with the compile-time values substituted
    /// where the instantiation fixes them.
    #[inline(always)]
    fn heads_dh<const H: usize, const DH: usize>(self) -> (usize, usize) {
        (
            if H == 0 { self.heads } else { H },
            if DH == 0 { self.dh } else { DH },
        )
    }

    /// Lead `l`'s key block.
    #[inline(always)]
    pub(crate) fn k_at(self, l: usize) -> std::ops::Range<usize> {
        let start = l * self.kv_stride + self.k_offset;
        start..start + self.tk * self.heads * self.dh
    }

    /// Lead `l`'s value block.
    #[inline(always)]
    pub(crate) fn v_at(self, l: usize) -> std::ops::Range<usize> {
        let start = l * self.kv_stride + self.v_offset;
        start..start + self.tk * self.heads * self.dh
    }
}

fn check(op: &'static str, q: &[usize], k: &[usize], v: &[usize], heads: usize) -> Result<Dims> {
    let rank = q.len();
    if rank < 2 || k.len() != rank || v != k {
        return Err(TensorError::Invalid(format!(
            "{op}: q {q:?} / k {k:?} / v {v:?}"
        )));
    }
    let d = q[rank - 1];
    if heads == 0 || d == 0 || !d.is_multiple_of(heads) {
        return Err(TensorError::Invalid(format!(
            "{op}: heads {heads} must divide d {d} (both positive)"
        )));
    }
    if q[..rank - 2] != k[..rank - 2] || k[rank - 1] != d {
        return Err(TensorError::Invalid(format!(
            "{op}: leading/feature axes of q {q:?} and k {k:?} must match"
        )));
    }
    let tk = k[rank - 2];
    Ok(Dims {
        lead: q[..rank - 2].iter().product(),
        tq: q[rank - 2],
        tk,
        heads,
        dh: d / heads,
        kv_stride: tk * d,
        k_offset: 0,
        v_offset: 0,
    })
}

/// `Σ_c a[c]·b[c]`, ascending from `+0.0`, one fused multiply-add per
/// term.
#[inline(always)]
fn dot(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// `out[c] = fma(a, x[c], out[c])` — one more term of every column's
/// chain.
#[inline(always)]
fn axpy(out: &mut [f32], a: f32, x: &[f32]) {
    for (o, &xv) in out.iter_mut().zip(x) {
        *o = a.mul_add(xv, *o);
    }
}

/// A forward walk: extents, `q`, `k`, `v`, then the weights and context
/// it writes.
type ForwardFn = fn(Dims, &[f32], &[f32], &[f32], &mut [f32], &mut [f32]);

/// Where a VJP walk hands lead `l`'s finished `gk` / `gv` blocks.
pub(crate) type Land<'a> = &'a mut dyn FnMut(usize, &[f32], &[f32]);

/// A VJP walk: extents, `[grad, q, k, v, weights]`, the `gq` it writes,
/// and where each lead's `gk` / `gv` land.
type VjpFn = fn(Dims, [&[f32]; 5], &mut [f32], Land<'_>);

/// [`forward_body`] at `(H, DH)` on the dispatched arm.
fn forward_fn<const H: usize, const DH: usize>() -> ForwardFn {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx2 {
        // Safety: the tier implies AVX2 and FMA.
        return |dm, q, k, v, w, o| {
            dm.debug_check_lens(q.len(), k.len(), v.len(), w.len());
            unsafe { forward_avx2::<H, DH>(dm, q, k, v, w, o) }
        };
    }
    forward_body::<H, DH>
}

/// [`vjp_body`] at `(H, DH)` on the dispatched arm.
fn vjp_fn<const H: usize, const DH: usize>() -> VjpFn {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx2 {
        // Safety: the tier implies AVX2 and FMA.
        return |dm, ins, gq, land| {
            dm.debug_check_lens(ins[1].len(), ins[2].len(), ins[3].len(), ins[4].len());
            unsafe { vjp_avx2::<H, DH>(dm, ins, gq, land) }
        };
    }
    vjp_body::<H, DH>
}

/// [`forward_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn forward_avx2<const H: usize, const DH: usize>(
    dm: Dims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    weights: &mut [f32],
    out: &mut [f32],
) {
    dm.debug_check_lens(q.len(), k.len(), v.len(), weights.len());
    debug_assert!(out.len() >= dm.lead * dm.tq * dm.heads * dm.dh, "attention: context length");
    forward_body::<H, DH>(dm, q, k, v, weights, out)
}

/// [`vjp_body`] compiled with AVX2 and FMA.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn vjp_avx2<const H: usize, const DH: usize>(
    dm: Dims,
    ins: [&[f32]; 5],
    gq: &mut [f32],
    land: Land<'_>,
) {
    dm.debug_check_lens(ins[1].len(), ins[2].len(), ins[3].len(), ins[4].len());
    debug_assert!(ins[0].len() >= dm.lead * dm.tq * dm.heads * dm.dh, "attention: grad length");
    debug_assert!(gq.len() >= dm.lead * dm.tq * dm.heads * dm.dh, "attention: gq length");
    vjp_body::<H, DH>(dm, ins, gq, land)
}

/// Attention forward. Returns the context `[..., Tq, d]` and the softmax
/// weights `[lead, heads, Tq, Tk]` that [`vjp`] consumes.
pub fn forward(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Result<(Tensor, Tensor)> {
    let dm = check("attention", q.shape(), k.shape(), v.shape(), heads)?;
    run_forward(dm, q, k, v)
}

/// [`forward`] against window `wi` of all-window projections: `q` is
/// `[..., Tq, d]`, `keys`/`values` are `[..., W, Tk, d]` with the same
/// leading axes, and the result is the context [`forward`] returns for
/// `keys[..., wi, :, :]` / `values[..., wi, :, :]` — the same walk
/// reading that block where it lies instead of a narrowed copy, hence
/// the same bits.
pub fn forward_window(
    q: &Tensor,
    keys: &Tensor,
    values: &Tensor,
    wi: usize,
    heads: usize,
) -> Result<Tensor> {
    if values.shape() != keys.shape() {
        return Err(TensorError::Invalid(format!(
            "attention: keys {:?} / values {:?}",
            keys.shape(),
            values.shape()
        )));
    }
    let dm = window_dims(q.shape(), keys.shape(), wi, heads)?;
    Ok(run_forward(dm, q, keys, values)?.0)
}

/// Extents for window `wi` of `[..., W, Tk, d]` keys and values,
/// checked as if the window had been narrowed out.
fn window_dims(q: &[usize], kv: &[usize], wi: usize, heads: usize) -> Result<Dims> {
    let rank = q.len();
    if rank < 2 || kv.len() != rank + 1 || wi >= kv[rank - 2] {
        return Err(TensorError::Invalid(format!(
            "attention: q {q:?} against window {wi} of {kv:?}"
        )));
    }
    let w = kv[rank - 2];
    let block = [&kv[..rank - 2], &kv[rank - 1..]].concat();
    let dm = check("attention", q, &block, &block, heads)?;
    let block_len = dm.kv_stride;
    Ok(Dims {
        kv_stride: w * block_len,
        k_offset: wi * block_len,
        v_offset: wi * block_len,
        ..dm
    })
}

/// The forward on checked extents: context and softmax weights.
fn run_forward(dm: Dims, q: &Tensor, k: &Tensor, v: &Tensor) -> Result<(Tensor, Tensor)> {
    let mut weights = memory::take_scratch(dm.weights_len());
    // Zeroed: the mix adds each column's terms onto `+0.0`.
    let mut out = memory::take_filled(q.len(), 0.0);
    forward_slices(dm, q.data(), k.data(), v.data(), &mut weights, &mut out);
    Ok((
        Tensor::from_vec(out, q.shape())?,
        Tensor::from_vec(weights, &[dm.lead, dm.heads, dm.tq, dm.tk])?,
    ))
}

/// The forward walk over raw rows: writes `weights` and adds the context
/// into `out`, which the caller zeroes. At `d` of 16 or 32 on an
/// AVX-512 host whole groups of sixteen leads take [`forward_lanes`];
/// the rest run the instantiation for `dm`'s head layout.
pub(crate) fn forward_slices(
    dm: Dims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    weights: &mut [f32],
    out: &mut [f32],
) {
    let lanes = lane_leads(dm);
    if lanes > 0 {
        let lane_dm = Dims { lead: lanes, ..dm };
        // Safety: `lane_leads` is nonzero only on an AVX-512 tier, at a
        // width of one or two zmm.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            if dm.heads * dm.dh == 16 {
                forward_lanes::<1>(lane_dm, q, k, v, weights, out)
            } else {
                forward_lanes::<2>(lane_dm, q, k, v, weights, out)
            }
        };
    }
    if lanes == dm.lead {
        return;
    }
    let rest = Dims {
        lead: dm.lead - lanes,
        ..dm
    };
    let run = match (dm.heads, dm.dh) {
        (4, 4) => forward_fn::<4, 4>(),
        (8, 4) => forward_fn::<8, 4>(),
        _ => forward_fn::<0, 0>(),
    };
    let (qa, wa) = (lanes * dm.tq * dm.heads * dm.dh, lanes * dm.heads * dm.tq * dm.tk);
    run(
        rest,
        &q[qa..],
        &k[lanes * dm.kv_stride..],
        &v[lanes * dm.kv_stride..],
        &mut weights[wa..],
        &mut out[qa..],
    );
}

/// Leads the sixteen-lane walks take: every whole group of sixteen when
/// `d` is 16 or 32 and the tier is at least AVX-512, else none.
fn lane_leads(dm: Dims) -> usize {
    #[cfg(target_arch = "x86_64")]
    if matches!(dm.heads * dm.dh, 16 | 32) && isa::current() >= Isa::Avx512 {
        return dm.lead / 16 * 16;
    }
    let _ = dm;
    0
}

/// Sixteen rows' sixteen columns from `at(i)` on, one zmm each,
/// transposed: lane `i` of column `c` is row `i`'s element `c`.
///
/// # Safety
///
/// The CPU must support AVX-512F, and `at(i) + 16 <= src.len()` for
/// every `i < 16`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn columns(
    src: &[f32],
    at: impl Fn(usize) -> usize,
) -> [std::arch::x86_64::__m512; 16] {
    use std::arch::x86_64::*;
    // Safety: the caller bounds every row.
    unsafe {
        crate::projection::transpose16(std::array::from_fn(|i| {
            debug_assert!(at(i) + 16 <= src.len());
            _mm512_loadu_ps(src.as_ptr().add(at(i)))
        }))
    }
}

/// [`forward_body`] with one lead per lane: sixteen leads at a time,
/// their `d = 16·Z` wide rows transposed in registers (`Z` sixteen-column
/// transposes per row) so every score, softmax and mix term is one
/// vector op across the leads — the same chain per element (scores
/// `fma` in ascending `c` from `+0.0`, then the scale; the row's max,
/// `exp(x − m)`, ascending sum and divide; the mix `fma` in ascending
/// `j`), hence the same bits.
///
/// # Safety
///
/// The CPU must support AVX-512F; `heads · dh = 16·Z`, `Z` is 1 or 2,
/// and `lead` is a multiple of sixteen.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn forward_lanes<const Z: usize>(
    dm: Dims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    weights: &mut [f32],
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let Dims { lead, tq, tk, heads, dh, .. } = dm;
    let d = 16 * Z;
    debug_assert!(heads * dh == d && d <= 32 && lead.is_multiple_of(16));
    dm.debug_check_lens(q.len(), k.len(), v.len(), weights.len());
    debug_assert!(out.len() >= lead * tq * d, "attention: context length");
    let scale = _mm512_set1_ps(1.0 / (dh as f32).sqrt());
    let zero = _mm512_setzero_ps();
    // Key (value) row `j` of sixteen leads, column `c` at `[j][c]`, one
    // lane per lead.
    let mut keys = vec![[zero; 32]; tk];
    let mut values = vec![[zero; 32]; tk];
    let mut w = vec![zero; heads * tk];
    // Safety (whole body): every row read or written lies inside the
    // extents checked above.
    unsafe {
        for l0 in (0..lead).step_by(16) {
            for j in 0..tk {
                for z in 0..Z {
                    let cols = z * 16..(z + 1) * 16;
                    let at = j * d + z * 16;
                    keys[j][cols.clone()]
                        .copy_from_slice(&columns(k, |i| dm.k_at(l0 + i).start + at));
                    values[j][cols].copy_from_slice(&columns(v, |i| dm.v_at(l0 + i).start + at));
                }
            }
            for r in 0..tq {
                let mut qc = [zero; 32];
                for z in 0..Z {
                    qc[z * 16..(z + 1) * 16]
                        .copy_from_slice(&columns(q, |i| ((l0 + i) * tq + r) * d + z * 16));
                }
                for h in 0..heads {
                    let row = &mut w[h * tk..(h + 1) * tk];
                    let mut m = _mm512_set1_ps(f32::NEG_INFINITY);
                    for (j, slot) in row.iter_mut().enumerate() {
                        let mut acc = zero;
                        for c in h * dh..(h + 1) * dh {
                            acc = _mm512_fmadd_ps(qc[c], keys[j][c], acc);
                        }
                        *slot = _mm512_mul_ps(acc, scale);
                        // `f32::max(m, x)` from `-inf`: a NaN score leaves
                        // the max alone.
                        m = _mm512_max_ps(*slot, m);
                    }
                    let mut z = zero;
                    for slot in row.iter_mut() {
                        *slot = crate::mathfn::wide::exp_v16(_mm512_sub_ps(*slot, m));
                        z = _mm512_add_ps(z, *slot);
                    }
                    for slot in row.iter_mut() {
                        *slot = _mm512_div_ps(*slot, z);
                    }
                }
                store_weights(&w, dm, l0, r, weights);
                for z in 0..Z {
                    let mut ctx = [zero; 16];
                    for (cz, o) in ctx.iter_mut().enumerate() {
                        let c = z * 16 + cz;
                        let h = c / dh;
                        for j in 0..tk {
                            *o = _mm512_fmadd_ps(w[h * tk + j], values[j][c], *o);
                        }
                    }
                    let rows = crate::projection::transpose16(ctx);
                    for (i, row) in rows.iter().enumerate() {
                        let at = ((l0 + i) * tq + r) * d + z * 16;
                        debug_assert!(at + 16 <= out.len());
                        _mm512_storeu_ps(out.as_mut_ptr().add(at), *row);
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn forward_body<const H: usize, const DH: usize>(
    dm: Dims,
    q: &[f32],
    k: &[f32],
    v: &[f32],
    weights: &mut [f32],
    out: &mut [f32],
) {
    let Dims { lead, tq, tk, .. } = dm;
    let (heads, dh) = dm.heads_dh::<H, DH>();
    let d = heads * dh;
    let scale = 1.0 / (dh as f32).sqrt();
    // Offset of `(h, i, j)` in one lead's `[heads, Tq, Tk]` weights.
    let at = |h: usize, i: usize, j: usize| (h * tq + i) * tk + j;

    // Scaled scores: for each (query row, key row) all heads at once.
    for l in 0..lead {
        let qb = &q[l * tq * d..(l + 1) * tq * d];
        let kb = &k[dm.k_at(l)];
        let wb = &mut weights[l * heads * tq * tk..(l + 1) * heads * tq * tk];
        for (i, qrow) in qb.chunks_exact(d).enumerate() {
            for (j, krow) in kb.chunks_exact(d).enumerate() {
                for h in 0..heads {
                    let hd = h * dh..(h + 1) * dh;
                    wb[at(h, i, j)] = dot(&qrow[hd.clone()], &krow[hd]) * scale;
                }
            }
        }
    }

    softmax_rows(weights, tk);

    // Mix: out[i, :] = Σ_j w[·, i, j] · v[j, :], ascending j.
    for l in 0..lead {
        let vb = &v[dm.v_at(l)];
        let wb = &weights[l * heads * tq * tk..(l + 1) * heads * tq * tk];
        let ob = &mut out[l * tq * d..(l + 1) * tq * d];
        for (i, orow) in ob.chunks_exact_mut(d).enumerate() {
            for (j, vrow) in vb.chunks_exact(d).enumerate() {
                for h in 0..heads {
                    let hd = h * dh..(h + 1) * dh;
                    axpy(&mut orow[hd.clone()], wb[at(h, i, j)], &vrow[hd]);
                }
            }
        }
    }
}

/// Check a VJP's upstream gradient and saved weights against its extents.
fn check_vjp(dm: Dims, grad: &Tensor, q: &Tensor, weights: &Tensor) -> Result<()> {
    if grad.shape() != q.shape() || weights.len() != dm.lead * dm.heads * dm.tq * dm.tk {
        return Err(TensorError::Invalid(format!(
            "attention_vjp: grad {:?} / weights {:?} for q {:?}",
            grad.shape(),
            weights.shape(),
            q.shape(),
        )));
    }
    Ok(())
}

/// The VJP walk at the instantiation for `dm`'s head layout, returning
/// `gq`; `land` receives every lead's `gk` / `gv`.
pub(crate) fn run_vjp(dm: Dims, ins: [&[f32]; 5], q_len: usize, land: Land<'_>) -> Vec<f32> {
    // Zeroed: every `gq` element is a chain of `+=` from `+0.0`.
    let mut gq = memory::take_filled(q_len, 0.0);
    if row_walks(dm) {
        // Safety: `row_walks` holds only on an AVX-512 tier.
        #[cfg(target_arch = "x86_64")]
        unsafe {
            vjp_rows(dm, ins, &mut gq, land)
        };
        return gq;
    }
    let run = match (dm.heads, dm.dh) {
        (4, 4) => vjp_fn::<4, 4>(),
        (8, 4) => vjp_fn::<8, 4>(),
        _ => vjp_fn::<0, 0>(),
    };
    run(dm, ins, &mut gq, land);
    gq
}

/// Whether [`vjp_rows`] takes the VJP: `d = 16`, one query row, a
/// lead's softmax weights in one zmm, and an AVX-512 tier.
fn row_walks(dm: Dims) -> bool {
    #[cfg(target_arch = "x86_64")]
    if dm.heads * dm.dh == 16
        && dm.tq == 1
        && dm.heads * dm.tk <= 16
        && isa::current() >= Isa::Avx512
    {
        return true;
    }
    let _ = dm;
    false
}

/// [`vjp_body`] lead by lead at `d = 16` and one query row: each row is
/// one zmm, and a head's `dh`-term `dA` chain runs on copies permuted so
/// that element `h·dh + c` fills head `h`'s lanes — every lane of the
/// head then holds the head's `dA`, softmax weight and `dS`, ready to
/// scale the head's columns. `gv` and `gk` are one term each (one query
/// row), `gq` a chain in ascending `j`: the same chain per element as
/// the generic walk, hence the same bits. (The forward's sixteen-lane
/// walk would do the same at four times the `exp` work here.)
///
/// # Safety
///
/// The CPU must support AVX-512F and `dm` must satisfy [`row_walks`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn vjp_rows(dm: Dims, [g, q, k, v, weights]: [&[f32]; 5], gq: &mut [f32], land: Land<'_>) {
    use std::arch::x86_64::*;
    let Dims { lead, tk, heads, dh, .. } = dm;
    dm.debug_check_lens(q.len(), k.len(), v.len(), weights.len());
    debug_assert!(g.len() >= lead * 16 && gq.len() >= lead * 16);
    debug_assert!(heads * dh == 16 && dm.tq == 1 && heads * tk <= 16);
    let scale = _mm512_set1_ps(1.0 / (dh as f32).sqrt());
    let per_lead = heads * tk;
    let wmask: __mmask16 = ((1u32 << per_lead) - 1) as __mmask16;
    let zero = _mm512_setzero_ps();
    let lanes = |f: &dyn Fn(i32) -> i32| {
        let idx: [i32; 16] = std::array::from_fn(|l| f(l as i32));
        // Safety: sixteen lanes read from a sixteen-element array.
        unsafe { _mm512_loadu_si512(idx.as_ptr().cast()) }
    };
    let (dhi, tki) = (dh as i32, tk as i32);
    // `spread[c]`: element `h·dh + c` in every lane of head `h`;
    // `pick[j]`: the lead's weight `(h, j)` in every lane of head `h`.
    let spread: [__m512i; 16] = std::array::from_fn(|c| lanes(&|l| (l / dhi) * dhi + c as i32));
    let pick: [__m512i; 16] = std::array::from_fn(|j| lanes(&|l| (l / dhi) * tki + j as i32));
    // One lead's `gk` then `gv` rows, handed to `land`.
    let mut blocks = [0f32; 2 * 16 * 16];
    let (mut da, mut w, mut keys) = ([zero; 16], [zero; 16], [zero; 16]);
    // Safety (whole body): every row read or written lies inside the
    // extents checked above; the weights load is masked to the lead's
    // `heads · Tk` floats.
    unsafe {
        for l in 0..lead {
            let gv = _mm512_loadu_ps(g.as_ptr().add(l * 16));
            let qv = _mm512_loadu_ps(q.as_ptr().add(l * 16));
            let (kb, vb) = (k.as_ptr().add(dm.k_at(l).start), v.as_ptr().add(dm.v_at(l).start));
            let wl = _mm512_maskz_loadu_ps(wmask, weights.as_ptr().add(l * per_lead));
            let (gkb, gvb) = blocks.split_at_mut(tk * 16);
            // Through the mix: dA = g · v per head, gv = w · g; the
            // softmax VJP's row sum rounds each product, then adds it.
            let mut sum = zero;
            for j in 0..tk {
                let vj = _mm512_loadu_ps(vb.add(j * 16));
                keys[j] = _mm512_loadu_ps(kb.add(j * 16));
                w[j] = _mm512_permutexvar_ps(pick[j], wl);
                let mut acc = zero;
                for sc in spread.iter().take(dh) {
                    acc = _mm512_fmadd_ps(
                        _mm512_permutexvar_ps(*sc, gv),
                        _mm512_permutexvar_ps(*sc, vj),
                        acc,
                    );
                }
                da[j] = acc;
                _mm512_storeu_ps(gvb.as_mut_ptr().add(j * 16), _mm512_fmadd_ps(w[j], gv, zero));
                sum = _mm512_add_ps(sum, _mm512_mul_ps(acc, w[j]));
            }
            // Through the softmax and the scale, then the scores.
            let mut gqv = zero;
            for j in 0..tk {
                let ds = _mm512_mul_ps(_mm512_mul_ps(w[j], _mm512_sub_ps(da[j], sum)), scale);
                gqv = _mm512_fmadd_ps(ds, keys[j], gqv);
                _mm512_storeu_ps(gkb.as_mut_ptr().add(j * 16), _mm512_fmadd_ps(ds, qv, zero));
            }
            _mm512_storeu_ps(gq.as_mut_ptr().add(l * 16), gqv);
            land(l, &gkb[..tk * 16], &gvb[..tk * 16]);
        }
    }
}

/// Query row `r`'s softmax weights of leads `l0..l0 + 16`, `w[h·Tk + j]`
/// one lane per lead, into the `[lead, heads, Tq, Tk]` buffer: with one
/// query row a lead's weights are contiguous, so each run of sixteen
/// slots is a transpose and one masked store per lead; else lane by
/// lane.
///
/// # Safety
///
/// The CPU must support AVX-512F and the leads must lie inside `weights`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn store_weights(w: &[std::arch::x86_64::__m512], dm: Dims, l0: usize, r: usize, weights: &mut [f32]) {
    use std::arch::x86_64::*;
    let (tq, tk, per_lead) = (dm.tq, dm.tk, dm.heads * dm.tq * dm.tk);
    debug_assert!(w.len() == dm.heads * tk && (l0 + 16) * per_lead <= weights.len());
    // Safety (whole body): lead `l0 + i`'s weights are inside `weights`.
    unsafe {
        if tq == 1 {
            for (run, c0) in w.chunks(16).zip((0..).step_by(16)) {
                let mut cols = [_mm512_setzero_ps(); 16];
                cols[..run.len()].copy_from_slice(run);
                let mask: __mmask16 = ((1u32 << run.len()) - 1) as __mmask16;
                for (i, row) in crate::projection::transpose16(cols).iter().enumerate() {
                    let at = (l0 + i) * per_lead + c0;
                    _mm512_mask_storeu_ps(weights.as_mut_ptr().add(at), mask, *row);
                }
            }
            return;
        }
        let mut lanes = [0f32; 16];
        for (at, &v) in w.iter().enumerate() {
            let (h, j) = (at / tk, at % tk);
            _mm512_storeu_ps(lanes.as_mut_ptr(), v);
            for (i, &x) in lanes.iter().enumerate() {
                weights[(l0 + i) * per_lead + (h * tq + r) * tk + j] = x;
            }
        }
    }
}

/// Exact VJP of [`forward`]: `(gq, gk, gv)` for upstream gradient
/// `grad [..., Tq, d]` and the saved `weights`.
pub fn vjp(
    grad: &Tensor,
    q: &Tensor,
    k: &Tensor,
    v: &Tensor,
    weights: &Tensor,
    heads: usize,
) -> Result<(Tensor, Tensor, Tensor)> {
    let dm = check("attention_vjp", q.shape(), k.shape(), v.shape(), heads)?;
    check_vjp(dm, grad, q, weights)?;
    // Every lead's block is copied in.
    let mut gk = memory::take_scratch(k.len());
    let mut gv = memory::take_scratch(k.len());
    let gq = run_vjp(
        dm,
        [grad.data(), q.data(), k.data(), v.data(), weights.data()],
        q.len(),
        &mut |l, gkb, gvb| {
            gk[dm.k_at(l)].copy_from_slice(gkb);
            gv[dm.v_at(l)].copy_from_slice(gvb);
        },
    );
    Ok((
        Tensor::from_vec(gq, q.shape())?,
        Tensor::from_vec(gk, k.shape())?,
        Tensor::from_vec(gv, k.shape())?,
    ))
}

#[inline(always)]
fn vjp_body<const H: usize, const DH: usize>(
    dm: Dims,
    [g, q, k, v, weights]: [&[f32]; 5],
    gq: &mut [f32],
    land: Land<'_>,
) {
    let Dims { lead, tq, tk, .. } = dm;
    let (heads, dh) = dm.heads_dh::<H, DH>();
    let d = heads * dh;
    let scale = 1.0 / (dh as f32).sqrt();
    // One lead's score gradients `dS [heads, Tq, Tk]`, laid out like
    // that lead's weights, then its `gk` and `gv` blocks, which start
    // every lead at `+0.0` and are handed to `land` when it is done.
    let mut scratch = memory::take_scratch(heads * tq * tk + 2 * tk * d);
    let (ds, blocks) = scratch.split_at_mut(heads * tq * tk);
    let (gkb, gvb) = blocks.split_at_mut(tk * d);
    let at = |h: usize, i: usize, j: usize| (h * tq + i) * tk + j;

    for l in 0..lead {
        let gb = &g[l * tq * d..(l + 1) * tq * d];
        let qb = &q[l * tq * d..(l + 1) * tq * d];
        let kb = &k[dm.k_at(l)];
        let vb = &v[dm.v_at(l)];
        let wb = &weights[l * heads * tq * tk..(l + 1) * heads * tq * tk];
        let gqb = &mut gq[l * tq * d..(l + 1) * tq * d];
        gkb.fill(0.0);
        gvb.fill(0.0);

        // Through the mix: dA[i, j] = g[i, :] · v[j, :] per head, and
        // gv[j, :] += w[·, i, j] · g[i, :] — `i` outermost, so each
        // gv element collects its terms in ascending `i`.
        for (i, grow) in gb.chunks_exact(d).enumerate() {
            for (j, (vrow, gv_row)) in vb.chunks_exact(d).zip(gvb.chunks_exact_mut(d)).enumerate() {
                for h in 0..heads {
                    let hd = h * dh..(h + 1) * dh;
                    ds[at(h, i, j)] = dot(&grow[hd.clone()], &vrow[hd.clone()]);
                    axpy(&mut gv_row[hd.clone()], wb[at(h, i, j)], &grow[hd]);
                }
            }
        }
        // Through the softmax and the scale, row by row. The row sum is
        // the chain's `mul` + `sum_axis`: unfused.
        for (ds_row, w_row) in ds
            .chunks_exact_mut(tk.max(1))
            .zip(wb.chunks_exact(tk.max(1)))
        {
            let mut s = 0.0f32;
            for (&da, &w) in ds_row.iter().zip(w_row) {
                s += da * w;
            }
            for (slot, &w) in ds_row.iter_mut().zip(w_row) {
                *slot = (w * (*slot - s)) * scale;
            }
        }
        // Through the scores: gq[i, :] += dS[·, i, j] · k[j, :] in
        // ascending `j`, gk[j, :] += dS[·, i, j] · q[i, :] in ascending `i`.
        for (i, (qrow, gq_row)) in qb.chunks_exact(d).zip(gqb.chunks_exact_mut(d)).enumerate() {
            for (j, (krow, gk_row)) in kb.chunks_exact(d).zip(gkb.chunks_exact_mut(d)).enumerate() {
                for h in 0..heads {
                    let hd = h * dh..(h + 1) * dh;
                    let dsv = ds[at(h, i, j)];
                    axpy(&mut gq_row[hd.clone()], dsv, &krow[hd.clone()]);
                    axpy(&mut gk_row[hd.clone()], dsv, &qrow[hd]);
                }
            }
        }
        land(l, gkb, gvb);
    }
    memory::recycle(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The unfused forward: head split, NT scores, scale, softmax, mix,
    /// head merge — the tensor kernels the tape chain records.
    fn chain(q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> Tensor {
        let rank = q.rank();
        let dh = q.shape()[rank - 1] / heads;
        let split = |x: &Tensor| {
            let mut s = x.shape()[..rank - 1].to_vec();
            s.extend_from_slice(&[heads, dh]);
            x.reshape(&s)
                .unwrap()
                .swap_axes(rank - 2, rank - 1)
                .unwrap()
        };
        let (qh, kh, vh) = (split(q), split(k), split(v));
        let scores = linalg::matmul_nt(&qh, &kh)
            .unwrap()
            .mul_scalar(1.0 / (dh as f32).sqrt());
        let attn = scores.softmax(scores.rank() - 1).unwrap();
        let ctx = linalg::matmul(&attn, &vh).unwrap();
        ctx.swap_axes(rank - 2, rank - 1)
            .unwrap()
            .reshape(q.shape())
            .unwrap()
    }

    /// The unfused chain's reverse sweep — the tensor kernels the tape
    /// runs for [`chain`]'s nodes — with the head gradients merged back
    /// to `[..., T, d]`.
    fn chain_vjp(g: &Tensor, q: &Tensor, k: &Tensor, v: &Tensor, heads: usize) -> [Tensor; 3] {
        let rank = q.rank();
        let dh = q.shape()[rank - 1] / heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let split = |x: &Tensor| {
            let mut s = x.shape()[..rank - 1].to_vec();
            s.extend_from_slice(&[heads, dh]);
            x.reshape(&s)
                .unwrap()
                .swap_axes(rank - 2, rank - 1)
                .unwrap()
        };
        let merge = |x: Tensor, like: &Tensor| {
            x.swap_axes(rank - 2, rank - 1)
                .unwrap()
                .reshape(like.shape())
                .unwrap()
        };
        let (gh, qh, kh, vh) = (split(g), split(q), split(k), split(v));
        let scores = linalg::matmul_nt(&qh, &kh).unwrap().mul_scalar(scale);
        let w = scores.softmax(scores.rank() - 1).unwrap();
        let da = linalg::matmul_nt(&gh, &vh).unwrap();
        let gv = linalg::matmul_tn(&w, &gh).unwrap();
        let ds = w.softmax_vjp_lastdim(&da).unwrap().mul_scalar(scale);
        let gq = linalg::matmul(&ds, &kh).unwrap();
        let gk = linalg::matmul_tn(&ds, &qh).unwrap();
        [merge(gq, q), merge(gk, k), merge(gv, k)]
    }

    /// Window-attention shapes (p=1 queries, s=3 keys, d=16, 4 heads),
    /// two proxies at `d = 16`, a lead count that leaves a remainder past
    /// the sixteen-lane groups, the serving head layout (`d = 32`, eight
    /// heads) in lanes with a ragged remainder — at one query row, where
    /// a lead's 24 weights take two transposed runs, and at two — then
    /// short of one lane group, a dynamic-head layout, a chunky
    /// cross-attention, and rank 2.
    const CASES: [(&[usize], &[usize], usize); 10] = [
        (&[2, 32, 4, 1, 16], &[2, 32, 4, 3, 16], 4),
        (&[2, 16, 2, 16], &[2, 16, 3, 16], 4),
        (&[20, 1, 16], &[20, 3, 16], 1),
        (&[37, 1, 32], &[37, 3, 32], 8),
        (&[2, 17, 2, 32], &[2, 17, 5, 32], 4),
        (&[2, 3, 5, 32], &[2, 3, 9, 32], 8),
        (&[2, 3, 5, 8], &[2, 3, 9, 8], 4),
        (&[1, 32, 1, 16], &[1, 32, 2, 16], 4),
        (&[4, 7, 12], &[4, 11, 12], 3),
        (&[6, 6], &[9, 6], 1),
    ];

    #[test]
    fn every_isa_arm_matches_the_unfused_chain() {
        crate::isa::for_each_ceiling("attention walks", |cap| {
            forward_bitwise_matches_the_unfused_chain();
            window_forward_is_the_forward_of_the_narrowed_block();
            let mut rng = StdRng::seed_from_u64(16);
            for &(qs, ks, heads) in &CASES {
                let q = Tensor::randn(qs, &mut rng).mul_scalar(3.0);
                let k = Tensor::randn(ks, &mut rng).mul_scalar(3.0);
                let v = Tensor::randn(ks, &mut rng);
                let g = Tensor::randn(qs, &mut rng);
                let (_, weights) = forward(&q, &k, &v, heads).unwrap();
                let (gq, gk, gv) = vjp(&g, &q, &k, &v, &weights, heads).unwrap();
                let want = chain_vjp(&g, &q, &k, &v, heads);
                for (name, got, want) in [
                    ("gq", gq, &want[0]),
                    ("gk", gk, &want[1]),
                    ("gv", gv, &want[2]),
                ] {
                    assert_eq!(got.data(), want.data(), "{name} {cap:?} q {qs:?}");
                }
            }
        });
    }

    #[test]
    fn forward_bitwise_matches_the_unfused_chain() {
        let mut rng = StdRng::seed_from_u64(13);
        for &(qs, ks, heads) in &CASES {
            let q = Tensor::randn(qs, &mut rng).mul_scalar(3.0);
            let k = Tensor::randn(ks, &mut rng).mul_scalar(3.0);
            let v = Tensor::randn(ks, &mut rng);
            let want = chain(&q, &k, &v, heads);
            let (got, weights) = forward(&q, &k, &v, heads).unwrap();
            assert_eq!(want.shape(), got.shape(), "shape for q {qs:?}");
            assert_eq!(want.data(), got.data(), "bits for q {qs:?}");
            let lead: usize = qs[..qs.len() - 2].iter().product();
            assert_eq!(
                weights.shape(),
                &[lead, heads, qs[qs.len() - 2], ks[ks.len() - 2]]
            );
        }
    }

    #[test]
    fn window_forward_is_the_forward_of_the_narrowed_block() {
        let mut rng = StdRng::seed_from_u64(15);
        // The serving layout (`[B, N, p, d]` queries against
        // `[B, N, W, s, d]` projections) at a fixed and a dynamic head
        // layout; `W = 1` is the plain forward.
        for &(lead, w, tq, tk, d, heads) in &[
            (&[2usize, 5][..], 4usize, 2usize, 3usize, 16usize, 4usize),
            (&[3][..], 3, 1, 4, 12, 3),
            (&[2, 2][..], 1, 2, 2, 32, 8),
        ] {
            let shape = |mid: &[usize]| [lead, mid].concat();
            let q = Tensor::randn(&shape(&[tq, d]), &mut rng).mul_scalar(3.0);
            let keys = Tensor::randn(&shape(&[w, tk, d]), &mut rng).mul_scalar(3.0);
            let values = Tensor::randn(&shape(&[w, tk, d]), &mut rng);
            for wi in 0..w {
                let block = |x: &Tensor| {
                    x.narrow(lead.len(), wi, 1).unwrap().reshape(&shape(&[tk, d])).unwrap()
                };
                let (want, _) = forward(&q, &block(&keys), &block(&values), heads).unwrap();
                let got = forward_window(&q, &keys, &values, wi, heads).unwrap();
                assert_eq!(want.shape(), got.shape());
                assert_eq!(want.data(), got.data(), "lead {lead:?} window {wi}/{w}");
            }
            assert!(forward_window(&q, &keys, &values, w, heads).is_err());
            assert!(forward_window(&q, &keys, &q, 0, heads).is_err());
        }
    }

    #[test]
    fn rejects_mismatched_operands() {
        let mut rng = StdRng::seed_from_u64(14);
        let q = Tensor::randn(&[2, 3, 8], &mut rng);
        let k = Tensor::randn(&[3, 3, 8], &mut rng);
        assert!(forward(&q, &k, &k, 2).is_err());
        let k2 = Tensor::randn(&[2, 3, 8], &mut rng);
        let v2 = Tensor::randn(&[2, 4, 8], &mut rng);
        assert!(forward(&q, &k2, &v2, 2).is_err());
        assert!(forward(&q, &k2, &k2, 3).is_err());
        assert!(forward(&q, &k2, &k2, 0).is_err());
        let (_, w) = forward(&q, &k2, &k2, 2).unwrap();
        assert!(vjp(&k, &q, &k2, &k2, &w, 2).is_err());
    }
}
