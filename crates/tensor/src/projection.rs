//! The generated K/V projection (paper §IV-A.3) with the decoder's
//! output layer folded in. The shared decoder `D_ω` ends in a dense
//! layer that turns each (sample, sensor)'s head `h [m2]` into one flat
//! `[2·F·d]` row — that lead's `K_t^(i)` `[F, d]`, then its `V_t^(i)` —
//! and the window-attention layer projects its `[T, F]` input through
//! the row. Forward and exact VJP are one walk each over blocks of
//! [`KV_BLOCK`] leads: a block's rows are decoded into L2-resident
//! scratch and consumed where they land, and the VJP's row gradients
//! `dkv` live only as long as their block — no `[lead, 2·F·d]`
//! gradient is ever written whole.
//!
//! `x` is `[..., T, F]`, the head `h` is `[..., m2]` over the same
//! leading axes (flattened into `lead`), the layer's weight is `[m2,
//! 2·F·d]` and its bias `[2·F·d]`; `S` divides `T` into `W` windows.
//! The output is `[..., 2, W, S, d]`: every lead's keys, then its
//! values, window by window, which [`crate::window_layer`] reads in
//! place.
//!
//! # Order contract
//!
//! Every value is the one the tape chain this op replaced computes, bit
//! for bit — the decoder's last `Linear` (`reshape`, `matmul`,
//! `bias_add_act(Identity)`, `reshape`), then `kv.reshape([.., 2, F,
//! d])`, a `narrow` + `squeeze` per half, `x.reshape([.., W, S,
//! F]).matmul(half.unsqueeze(2))` — and that chain's reverse sweep:
//!
//! | value | sum over | term | what the chain runs |
//! |---|---|---|---|
//! | `kv[r,j] = (Σ_i h[r,i]·Wd[i,j]) + b[j]` | `i`, then the bias | fused, then add | `matmul`, `bias_add_act` |
//! | `K[t,c] = Σ_f x[t,f]·K_p[f,c]` (and `V`) | `f` | fused | `matmul` |
//! | `dK_p[f,c] = Σ_w (Σ_s x[w,s,f]·gK[w,s,c])` (and `dV_p`) | `s`, then `w` | fused, then add | `matmul_tn` per window, `sum_axis` over the broadcast window axis |
//! | `dx[t,f] = Σ_c gV[t,c]·V_p[f,c] + Σ_c gK[t,c]·K_p[f,c]` | `c`, then the halves | fused, then add | `matmul_nt` per half, accumulated V first |
//! | `db[j] = Σ_r dkv[r,j]` | `r` | add | `sum_axis(0)` reducing the bias broadcast |
//! | `dh[r,i] = Σ_j dkv[r,j]·Wd[i,j]` | `j` | fused | `matmul_nt` |
//! | `dWd[i,j] = Σ_r h[r,i]·dkv[r,j]` | `r`, every lead | fused | `matmul_tn` |
//!
//! Each sum is one ascending chain from `+0.0`; a contraction takes each
//! term as one fused multiply-add (the `linalg` order contract), a plain
//! sum one rounded add. The window sum writes window 0's chain and adds
//! the rest: `0.0 + c = c` for every chain `c`, which is never `-0.0`,
//! so it is `sum_axis`'s value, and the `W = 1` case, where the chain
//! has no `sum_axis` at all, is the same bits. `dx` is the V half, then
//! the K half added to it — the order the chain's reverse sweep reaches
//! its two `matmul` nodes (values were recorded last). The two chains
//! over leads, `db` and `dWd`, run block after block in ascending lead
//! order, carried across blocks in their output buffers: storing an f32
//! and loading it back changes nothing, so they are the whole-tensor
//! chains. The decode and the three products run through
//! `linalg::gemm_strided`, the small-product walk every `linalg` entry
//! shares.
//!
//! At key width `d = 16` — every layer of the training models — on an
//! AVX-512 host, each projected row is one zmm of chains and each term
//! one `vfmadd`. `dx`'s `Σ_c` chains run as rank-1 rows against `K_p`ᵀ:
//! each lead's two `[16, 16]` projections are transposed in registers,
//! once for all of its rows. At the serving width `d = 32` the decode
//! and the forward run the same register tiles two zmm to a row (the
//! VJP takes the slice entries). [`forward_split`] is the forward over
//! keys and values kept apart — the inference engine's layout, for
//! freshly decoded blocks and the S-WA cache alike — on the same tiles
//! at `d` of 16 or 32. Other widths and arms run the `linalg` slice
//! entries lead by lead, through a transposed copy; the unit tests hold
//! every arm to the chain's bits.

#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Isa};
use crate::linalg::{gemm_nn_slice, gemm_strided, gemm_tn_slice, PARALLEL_FLOP_THRESHOLD};
use crate::{memory, Result, Tensor, TensorError};
use stwa_pool::SendPtr;

/// Leads decoded per block. A block's `[KV_BLOCK, 2·F·d]` rows (128 KiB
/// at `F = d = 16`) and, in the VJP, their gradient stay L2-resident
/// between the product that writes them and the walks that read them.
const KV_BLOCK: usize = 64;

/// The decoder's output layer as the op reads it: the head `[..., m2]`,
/// then the dense layer's weight `[m2, 2·F·d]` and bias `[2·F·d]`.
#[derive(Clone, Copy)]
pub struct Decoder<'a> {
    pub head: &'a Tensor,
    pub weight: &'a Tensor,
    pub bias: &'a Tensor,
}

/// Which gradients [`vjp`] computes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Need {
    pub x: bool,
    pub head: bool,
    pub weight: bool,
    pub bias: bool,
}

/// What [`vjp`] returns: each gradient asked for, in its input's shape.
pub struct Grads {
    pub x: Option<Tensor>,
    pub head: Option<Tensor>,
    pub weight: Option<Tensor>,
    pub bias: Option<Tensor>,
}

/// Problem extents, leading axes flattened into `lead`.
#[derive(Clone, Copy)]
struct Dims {
    lead: usize,
    t: usize,
    s: usize,
    w: usize,
    f: usize,
    d: usize,
    m2: usize,
}

impl Dims {
    /// Floats in one lead's decoded row, `2·F·d`.
    fn width(self) -> usize {
        2 * self.f * self.d
    }
}

fn check(op: &'static str, x: &[usize], dec: Decoder<'_>, s: usize) -> Result<Dims> {
    let (h, wt, b) = (dec.head.shape(), dec.weight.shape(), dec.bias.shape());
    let rank = x.len();
    let err = |why: &str| {
        Err(TensorError::Invalid(format!(
            "{op}: x {x:?} / head {h:?} / weight {wt:?} / bias {b:?} / window {s}: {why}"
        )))
    };
    if rank < 2 || h.len() != rank - 1 || x[..rank - 2] != h[..rank - 2] {
        return err("need x [.., T, F] and a head [.., m2] over the same leading axes");
    }
    let (t, f, m2) = (x[rank - 2], x[rank - 1], h[rank - 2]);
    if s == 0 || t == 0 || !t.is_multiple_of(s) {
        return err("the window must divide a non-empty T");
    }
    if wt.len() != 2 || wt[0] != m2 || m2 == 0 || b != [wt[1]] {
        return err("need a weight [m2, 2·F·d] and a bias [2·F·d] with m2 > 0");
    }
    let row = wt[1];
    if f == 0 || row == 0 || !row.is_multiple_of(2 * f) {
        return err("decoded rows must hold 2·F·d floats with F, d > 0");
    }
    Ok(Dims {
        lead: x[..rank - 2].iter().product(),
        t,
        s,
        w: t / s,
        f,
        d: row / (2 * f),
        m2,
    })
}

/// Run `body` over leads `[l0, l1)` — as one range on the caller, or in
/// chunks across the pool once the work passes the GEMM split
/// threshold. Leads write disjoint outputs, so the chunking never
/// changes a value.
fn for_leads(lead: usize, flops_per_lead: usize, body: impl Fn(usize, usize) + Sync) {
    let threads = stwa_pool::current_threads();
    let chunks = if lead * flops_per_lead < PARALLEL_FLOP_THRESHOLD || threads <= 1 {
        1
    } else {
        (threads * 2).min(lead)
    };
    let per = lead.div_ceil(chunks.max(1));
    stwa_pool::parallel_for(chunks, |c| {
        body((c * per).min(lead), ((c + 1) * per).min(lead))
    });
}

/// The projection: `[..., T, F]` through each lead's decoded row into
/// `[..., 2, W, S, d]`. With `keep`, the decoded rows `[lead, 2·F·d]`
/// come back too, for [`vjp`]; otherwise each block's rows live in
/// scratch only.
pub fn forward(
    x: &Tensor,
    dec: Decoder<'_>,
    s: usize,
    keep: bool,
) -> Result<(Tensor, Option<Tensor>)> {
    let dm = check("project_kv", x.shape(), dec, s)?;
    let Dims {
        lead, t, f, d, m2, ..
    } = dm;
    let width = dm.width();
    let mut out = memory::take_scratch(lead * 2 * t * d);
    let mut kept = keep.then(|| memory::take_scratch(lead * width));
    let (xd, hd, wd, bd) = (
        x.data(),
        dec.head.data(),
        dec.weight.data(),
        dec.bias.data(),
    );
    let out_ptr = SendPtr(out.as_mut_ptr());
    let kept_ptr = kept.as_mut().map(|k| SendPtr(k.as_mut_ptr()));
    let (out_len, kept_len) = (out.len(), kept.as_ref().map_or(0, Vec::len));
    let (decode, run, _) = walks(d);
    debug_assert_eq!(out.len(), lead * 2 * t * d, "project_kv: output length");
    for_leads(lead, m2 * width + 2 * t * f * d, |l0, l1| {
        debug_assert!(
            l0 <= l1 && l1 <= lead,
            "project_kv: lead run {l0}..{l1} of {lead}"
        );
        let mut scratch = kept_ptr
            .is_none()
            .then(|| memory::take_scratch(KV_BLOCK.min(l1 - l0) * width));
        for b0 in (l0..l1).step_by(KV_BLOCK) {
            let b1 = (b0 + KV_BLOCK).min(l1);
            debug_assert!(
                kept_ptr.is_none() || b1 * width <= kept_len,
                "project_kv: kept rows"
            );
            debug_assert!(
                b1 * 2 * t * d <= out_len,
                "project_kv: output leads {b0}..{b1}"
            );
            // Safety: chunks own the disjoint leads `[l0, l1)` of `out`
            // (`2·T·d` floats each) and of the kept rows (`2·F·d` each),
            // and the pool joins before either buffer is consumed.
            let (rows, out) = unsafe {
                let rows = match (&mut scratch, kept_ptr) {
                    (Some(buf), _) => &mut buf[..(b1 - b0) * width],
                    (None, Some(p)) => {
                        std::slice::from_raw_parts_mut(p.get().add(b0 * width), (b1 - b0) * width)
                    }
                    (None, None) => unreachable!("scratch is taken whenever rows are not kept"),
                };
                let out = std::slice::from_raw_parts_mut(
                    out_ptr.get().add(b0 * 2 * t * d),
                    (b1 - b0) * 2 * t * d,
                );
                (rows, out)
            };
            decode(dm, &hd[b0 * m2..b1 * m2], wd, bd, rows);
            run(dm, &xd[b0 * t * f..b1 * t * f], rows, out);
        }
        if let Some(buf) = scratch {
            memory::recycle(buf);
        }
    });
    let mut shape = x.shape()[..x.rank() - 2].to_vec();
    shape.extend_from_slice(&[2, dm.w, s, d]);
    let rows = kept
        .map(|k| Tensor::from_vec(k, &[lead, width]))
        .transpose()?;
    Ok((Tensor::from_vec(out, &shape)?, rows))
}

/// Exact VJP of [`forward`] for upstream gradient `grad [..., 2, W, S,
/// d]`, given the decoded `rows` [`forward`] kept: every gradient
/// `need` asks for. Runs on the caller, block by block.
pub fn vjp(
    grad: &Tensor,
    x: &Tensor,
    dec: Decoder<'_>,
    rows: &Tensor,
    s: usize,
    need: Need,
) -> Result<Grads> {
    let dm = check("project_kv_vjp", x.shape(), dec, s)?;
    let Dims {
        lead, t, f, d, m2, ..
    } = dm;
    let width = dm.width();
    let mut want = x.shape()[..x.rank() - 2].to_vec();
    want.extend_from_slice(&[2, dm.w, s, d]);
    if grad.shape() != want || rows.shape() != [lead, width] {
        return Err(TensorError::ShapeMismatch {
            op: "project_kv_vjp",
            lhs: grad.shape().to_vec(),
            rhs: want,
        });
    }
    // Every element of each is written, except the bias chains, which
    // start at `+0.0`.
    let mut dx = need.x.then(|| memory::take_scratch(x.len()));
    let mut dh = need.head.then(|| memory::take_scratch(lead * m2));
    let mut dw = need.weight.then(|| memory::take_scratch(m2 * width));
    let mut db = need.bias.then(|| memory::take_filled(width, 0.0));
    let need_dkv = need.head || need.weight || need.bias;
    let (gd, xd, hd, wd, rd) = (
        grad.data(),
        x.data(),
        dec.head.data(),
        dec.weight.data(),
        rows.data(),
    );
    // `Wdᵀ [2·F·d, m2]`: `dh`'s B rows, read in place block after block.
    let wt = need.head.then(|| {
        let mut wt = memory::take_scratch(width * m2);
        transpose(wd, &mut wt, m2, width);
        wt
    });
    let mut dkv = need_dkv.then(|| memory::take_scratch(KV_BLOCK.min(lead) * width));
    let (_, _, run) = walks(d);
    for b0 in (0..lead).step_by(KV_BLOCK) {
        let (b1, first) = ((b0 + KV_BLOCK).min(lead), b0 == 0);
        let count = b1 - b0;
        let g = &gd[b0 * 2 * t * d..b1 * 2 * t * d];
        run(
            dm,
            [g, &xd[b0 * t * f..b1 * t * f], &rd[b0 * width..b1 * width]],
            [
                dx.as_mut().map(|b| &mut b[b0 * t * f..b1 * t * f]),
                dkv.as_mut().map(|b| &mut b[..count * width]),
                db.as_deref_mut(),
            ],
        );
        let Some(dkv) = dkv.as_ref() else { continue };
        let dkv = &dkv[..count * width];
        if let (Some(dh), Some(wt)) = (dh.as_mut(), wt.as_ref()) {
            let rows_out = &mut dh[b0 * m2..b1 * m2];
            gemm_strided(dkv, (width, 1), wt, m2, rows_out, (count, width, m2), true);
        }
        if let Some(dw) = dw.as_mut() {
            // `hᵀ · dkv` over this block's leads, continuing the chains.
            let h = &hd[b0 * m2..b1 * m2];
            gemm_strided(h, (1, m2), dkv, width, dw, (m2, count, width), first);
        }
    }
    for buf in [wt, dkv].into_iter().flatten() {
        memory::recycle(buf);
    }
    let head_shape = dec.head.shape();
    Ok(Grads {
        x: dx.map(|b| Tensor::from_vec(b, x.shape())).transpose()?,
        head: dh.map(|b| Tensor::from_vec(b, head_shape)).transpose()?,
        weight: dw.map(|b| Tensor::from_vec(b, &[m2, width])).transpose()?,
        bias: db.map(|b| Tensor::from_vec(b, &[width])).transpose()?,
    })
}

/// A decode over a run of leads: extents, their heads, the weight, the
/// bias and the rows written.
type DecodeFn = fn(Dims, &[f32], &[f32], &[f32], &mut [f32]);

/// A forward walk over a run of leads: extents, their `x`, `kv` and
/// output rows.
type ForwardFn = fn(Dims, &[f32], &[f32], &mut [f32]);

/// A VJP walk over a run of leads: extents, their `[grad, x, kv]` and
/// the `[dx, dkv, db]` asked for; `db` takes each lead's `dkv` row added
/// in, lead after lead.
type VjpFn = fn(Dims, [&[f32]; 3], [Option<&mut [f32]>; 3]);

/// The walks for key width `d`: at `d = 16` — every layer of the
/// training models here — on an AVX-512 host, register tiles of one zmm
/// per row; at the serving width `d = 32` the same decode and forward
/// tiles at two zmm per row, with the VJP on the slice entries;
/// otherwise the `linalg` slice entries lead by lead. Same chains, same
/// bits.
fn walks(d: usize) -> (DecodeFn, ForwardFn, VjpFn) {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx512 {
        // Safety (all): the tier implies AVX-512F.
        if d == 16 {
            return (
                |dm, h, wd, b, rows| unsafe { decode_avx512(dm, h, wd, b, rows) },
                |dm, x, kv, out| unsafe { forward_avx512::<1>(dm, x, kv, out) },
                |dm, ins, outs| unsafe { vjp_avx512(dm, ins, outs) },
            );
        }
        if d == 32 {
            return (
                |dm, h, wd, b, rows| unsafe { decode_avx512(dm, h, wd, b, rows) },
                |dm, x, kv, out| unsafe { forward_avx512::<2>(dm, x, kv, out) },
                vjp_slices,
            );
        }
    }
    (decode_slices, forward_slices, vjp_slices)
}

/// The K/V projections in the split layout the inference engine keeps:
/// `kout[i] = x[i] @ first[i]` and `vout[i] = x[i] @ second[i]` for
/// `count` consecutive leads. Lead `i`'s input is the `[rows, f]`
/// matrix at `x[i·rows·f..]`, its two `[f, d]` projections start at
/// `first[i·stride..]` / `second[i·stride..]` (a decoded `[2·F·d]` row's
/// halves, or a freeze-time cache's per-sensor blocks), and its keys
/// and values are the `[rows, d]` matrices at `kout[i·rows·d..]` /
/// `vout[i·rows·d..]`.
///
/// Bitwise contract: each element is one chain over `f` ascending from
/// `+0.0`, a fused multiply-add per term — the product the graph path's
/// broadcast `matmul` runs per window. At `d` of 16 or 32 on an AVX-512
/// host the leads run [`forward_avx512`]'s register tiles
/// ([`project_leads`]), K and V rows in flight together; otherwise each
/// side is one [`gemm_nn_slice`] per lead.
#[allow(clippy::too_many_arguments)]
pub fn forward_split(
    x: &[f32],
    first: &[f32],
    second: &[f32],
    stride: usize,
    count: usize,
    (rows, f, d): (usize, usize, usize),
    kout: &mut [f32],
    vout: &mut [f32],
) {
    if count == 0 {
        return;
    }
    let last = (count - 1) * stride + f * d;
    assert!(
        x.len() >= count * rows * f && first.len() >= last && second.len() >= last,
        "forward_split: operands shorter than {count} leads of [{rows}, {f}] x [{f}, {d}]"
    );
    assert!(
        kout.len() >= count * rows * d && vout.len() >= count * rows * d,
        "forward_split: outputs shorter than {count} leads of [{rows}, {d}]"
    );
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx512 && (d == 16 || d == 32) {
        let (proj, out) = (
            [first.as_ptr(), second.as_ptr()],
            [kout.as_mut_ptr(), vout.as_mut_ptr()],
        );
        let strides = (stride, rows * d);
        // Safety (both): the tier implies AVX-512F; the extents were
        // asserted above.
        return unsafe {
            if d == 16 {
                project_leads::<1>(x.as_ptr(), (rows, f), proj, out, strides, count)
            } else {
                project_leads::<2>(x.as_ptr(), (rows, f), proj, out, strides, count)
            }
        };
    }
    for i in 0..count {
        let a = &x[i * rows * f..(i + 1) * rows * f];
        let at = i * stride;
        let (kp, vp) = (&first[at..at + f * d], &second[at..at + f * d]);
        let out = i * rows * d..(i + 1) * rows * d;
        gemm_nn_slice(a, kp, &mut kout[out.clone()], rows, f, d);
        gemm_nn_slice(a, vp, &mut vout[out], rows, f, d);
    }
}

/// Decode the rows of the leads whose heads `h` holds: `rows = h·Wd`,
/// then `+ b` — the decoder's `matmul`, then its `bias_add_act`.
fn decode_slices(dm: Dims, h: &[f32], wd: &[f32], b: &[f32], rows: &mut [f32]) {
    let (m2, width) = (dm.m2, dm.width());
    let count = h.len() / m2;
    debug_assert_eq!(h.len(), count * m2, "decode: whole heads");
    debug_assert!(rows.len() >= count * width && wd.len() == m2 * width && b.len() == width);
    gemm_strided(h, (m2, 1), wd, width, rows, (count, m2, width), true);
    for row in rows[..count * width].chunks_exact_mut(width) {
        for (v, &bj) in row.iter_mut().zip(b) {
            *v += bj;
        }
    }
}

/// [`decode_slices`] at `d = 16`, where a row's `2·F·16` floats are
/// whole pairs of zmm: tiles of up to eight rows by two zmm, each
/// accumulator one chain over `m2` from `+0.0`, the bias added as the
/// tile is stored.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn decode_avx512(dm: Dims, h: &[f32], wd: &[f32], b: &[f32], rows: &mut [f32]) {
    use std::arch::x86_64::*;
    let (m2, width) = (dm.m2, dm.width());
    let count = h.len() / m2;
    debug_assert_eq!(h.len(), count * m2, "decode_avx512: whole heads");
    assert!(width.is_multiple_of(32) && wd.len() >= m2 * width && b.len() >= width);
    assert!(rows.len() >= count * width);
    let (h, wd, b, rows) = (h.as_ptr(), wd.as_ptr(), b.as_ptr(), rows.as_mut_ptr());
    // Safety: every band's rows lie below `count`, every column pair
    // below `width`, inside the extents asserted above.
    unsafe {
        for j in (0..width).step_by(32) {
            let bias = [_mm512_loadu_ps(b.add(j)), _mm512_loadu_ps(b.add(j + 16))];
            let band = |r: usize| (h.add(r * m2), rows.add(r * width + j));
            debug_assert!(j + 32 <= width, "decode_avx512: column pair {j}");
            let mut r = 0;
            while r + 8 <= count {
                let (hr, out) = band(r);
                decode_band::<8>(hr, m2, wd.add(j), width, bias, out);
                r += 8;
            }
            while r < count {
                let (hr, out) = band(r);
                decode_band::<1>(hr, m2, wd.add(j), width, bias, out);
                r += 1;
            }
        }
    }
}

/// `R` decoded rows by two zmm: `out[r] = (Σ_p h[r, p]·wd[p]) + bias`,
/// rows `width` floats apart in `out` and `wd`, heads `m2` apart.
///
/// # Safety
///
/// The CPU must support AVX-512F; every row addressed must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn decode_band<const R: usize>(
    h: *const f32,
    m2: usize,
    wd: *const f32,
    width: usize,
    bias: [std::arch::x86_64::__m512; 2],
    out: *mut f32,
) {
    use std::arch::x86_64::*;
    // Safety: the caller keeps every address in bounds.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for p in 0..m2 {
            let w = [
                _mm512_loadu_ps(wd.add(p * width)),
                _mm512_loadu_ps(wd.add(p * width + 16)),
            ];
            for (r, row) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*h.add(r * m2 + p));
                row[0] = _mm512_fmadd_ps(a, w[0], row[0]);
                row[1] = _mm512_fmadd_ps(a, w[1], row[1]);
            }
        }
        for (r, row) in acc.iter().enumerate() {
            _mm512_storeu_ps(out.add(r * width), _mm512_add_ps(row[0], bias[0]));
            _mm512_storeu_ps(out.add(r * width + 16), _mm512_add_ps(row[1], bias[1]));
        }
    }
}

/// [`forward_slices`] at `d = 16·Z` — 16 or 32: each output row is `Z`
/// zmm of chains, one `vfmadd` per `F` term, the K and V rows of up to
/// four steps in flight together.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn forward_avx512<const Z: usize>(dm: Dims, x: &[f32], kv: &[f32], out: &mut [f32]) {
    let Dims { t, f, d, .. } = dm;
    let leads = x.len() / (t * f);
    debug_assert_eq!(
        x.len(),
        leads * t * f,
        "forward_avx512: x holds whole leads"
    );
    debug_assert_eq!(d, 16 * Z, "forward_avx512: {Z} zmm per row");
    assert!(kv.len() >= leads * 2 * f * d && out.len() >= leads * 2 * t * d);
    let (kv, out) = (kv.as_ptr(), out.as_mut_ptr());
    // Safety: every lead's rows lie inside the extents asserted above.
    unsafe {
        let (proj, out) = ([kv, kv.add(f * d)], [out, out.add(t * d)]);
        project_leads::<Z>(x.as_ptr(), (t, f), proj, out, (2 * f * d, 2 * t * d), leads);
    }
}

/// `count` leads' `[T, F]` rows through their two `[F, 16·Z]`
/// projections into their `[T, 16·Z]` keys and values, four steps at a
/// time, then one: lead `l`'s rows start at `x + l·T·F`, its projections
/// at `proj[h] + l·strides.0` and its outputs at `out[h] + l·strides.1`.
///
/// # Safety
///
/// The CPU must support AVX-512F; for every lead, `x` must hold its
/// `T·F` floats, each `proj` its `F·16·Z` and each `out` its `T·16·Z`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn project_leads<const Z: usize>(
    x: *const f32,
    (t, f): (usize, usize),
    proj: [*const f32; 2],
    out: [*mut f32; 2],
    (proj_stride, out_stride): (usize, usize),
    count: usize,
) {
    let d = 16 * Z;
    // Safety: lead `l`'s step `r < T` lies inside the caller's extents.
    unsafe {
        for l in 0..count {
            let (xl, pl) = (x.add(l * t * f), proj.map(|p| p.add(l * proj_stride)));
            let rows = |r: usize| (xl.add(r * f), out.map(|o| o.add(l * out_stride + r * d)));
            let mut r = 0;
            while r + 4 <= t {
                let (xr, or) = rows(r);
                project_rows::<4, Z>(xr, f, pl, or);
                r += 4;
            }
            while r < t {
                let (xr, or) = rows(r);
                project_rows::<1, Z>(xr, f, pl, or);
                r += 1;
            }
        }
    }
}

/// `R` steps through a lead's `K_p` and `V_p` (`proj`, `[F, 16·Z]`
/// each): `out[0][r] = Σ_f x[r, f]·K_p[f]` and `out[1][r]` likewise
/// through `V_p`, every row `Z` zmm of chains over `f` ascending from
/// `+0.0`.
///
/// # Safety
///
/// The CPU must support AVX-512F; every row addressed must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn project_rows<const R: usize, const Z: usize>(
    x: *const f32,
    f: usize,
    proj: [*const f32; 2],
    out: [*mut f32; 2],
) {
    use std::arch::x86_64::*;
    let d = 16 * Z;
    // Safety: the caller keeps every address in bounds.
    unsafe {
        let mut acc = [[[_mm512_setzero_ps(); Z]; 2]; R];
        for fi in 0..f {
            let rows: [[__m512; Z]; 2] =
                proj.map(|p| std::array::from_fn(|z| _mm512_loadu_ps(p.add(fi * d + z * 16))));
            for (r, halves) in acc.iter_mut().enumerate() {
                let a = _mm512_set1_ps(*x.add(r * f + fi));
                for (half, prow) in halves.iter_mut().zip(&rows) {
                    for (slot, &p) in half.iter_mut().zip(prow) {
                        *slot = _mm512_fmadd_ps(a, p, *slot);
                    }
                }
            }
        }
        for (r, halves) in acc.iter().enumerate() {
            for (half, o) in halves.iter().zip(out) {
                for (z, &v) in half.iter().enumerate() {
                    _mm512_storeu_ps(o.add(r * d + z * 16), v);
                }
            }
        }
    }
}

/// [`vjp_slices`] at `d = 16`. The `dK_p` rows of up to eight inputs `f`
/// are zmm chains in flight together, each window's chain over its
/// steps added to the sum of the windows before it. At `F = 16` (every
/// layer past the first) each lead's two `[16, 16]` projections are
/// transposed in registers and `dx`'s rows are chains over their
/// columns, V and K halves of up to four steps in flight; `dx` at any
/// other `F` takes the slice entries.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn vjp_avx512(dm: Dims, [g, x, kv]: [&[f32]; 3], [dx, dkv, db]: [Option<&mut [f32]>; 3]) {
    use std::arch::x86_64::*;
    let Dims { t, s, w, f, .. } = dm;
    let leads = x.len() / (t * f);
    debug_assert_eq!(x.len(), leads * t * f, "vjp_avx512: x holds whole leads");
    debug_assert_eq!(dm.d, 16, "vjp_avx512: one zmm per row");
    debug_assert_eq!(w * s, t, "vjp_avx512: windows tile the steps");
    assert!(g.len() >= leads * 2 * t * 16);
    if let Some(dkv) = dkv {
        assert!(dkv.len() >= leads * 2 * f * 16);
        let (gp, xp, dkv_out) = (g.as_ptr(), x.as_ptr(), dkv.as_mut_ptr());
        // Safety: every row addressed lies inside the extents asserted
        // above.
        unsafe {
            for l in 0..leads {
                debug_assert!(
                    (l + 1) * 2 * f * 16 <= dkv.len(),
                    "vjp_avx512: dkv lead {l}"
                );
                let xl = xp.add(l * t * f);
                for h in 0..2 {
                    let gh = gp.add((2 * l + h) * t * 16);
                    let rows =
                        |fi: usize| (xl.add(fi), dkv_out.add(l * 2 * f * 16 + (h * f + fi) * 16));
                    let mut fi = 0;
                    while fi + 8 <= f {
                        let (xf, out) = rows(fi);
                        dkv_rows::<8>(dm, gh, xf, out);
                        fi += 8;
                    }
                    while fi < f {
                        let (xf, out) = rows(fi);
                        dkv_rows::<1>(dm, gh, xf, out);
                        fi += 1;
                    }
                }
            }
        }
        if let Some(db) = db {
            add_rows_avx512(db, &dkv[..leads * 2 * f * 16]);
        }
    }
    let Some(dx) = dx else { return };
    if f != 16 {
        return vjp_slices(dm, [g, x, kv], [Some(dx), None, None]);
    }
    assert!(dx.len() >= leads * t * 16 && kv.len() >= leads * 2 * 256);
    let (kv_len, dx_len) = (kv.len(), dx.len());
    let (g, kv, dx) = (g.as_ptr(), kv.as_ptr(), dx.as_mut_ptr());
    // Safety: every row addressed lies inside the extents asserted above.
    unsafe {
        for l in 0..leads {
            debug_assert!((l + 1) * 2 * 256 <= kv_len && (l + 1) * t * 16 <= dx_len);
            let proj = kv.add(l * 2 * 256);
            let load = |at: usize| std::array::from_fn(|i| _mm512_loadu_ps(proj.add(at + i * 16)));
            // `[K_pᵀ | V_pᵀ]`: column `c` of each half.
            let cols: [[__m512; 16]; 2] = [transpose16(load(0)), transpose16(load(256))];
            let (gl, o) = (g.add(l * 2 * t * 16), dx.add(l * t * 16));
            let mut r = 0;
            while r + 4 <= t {
                dx_rows::<4>(gl.add(r * 16), t, &cols, o.add(r * 16));
                r += 4;
            }
            while r < t {
                dx_rows::<1>(gl.add(r * 16), t, &cols, o.add(r * 16));
                r += 1;
            }
        }
    }
}

/// `db[j] += Σ_r rows[r, j]`, each column's adds in ascending `r` — the
/// bias gradient's chains carried on over a run of `dkv` rows — eight
/// zmm of columns held in registers across the run.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn add_rows_avx512(db: &mut [f32], rows: &[f32]) {
    let width = db.len();
    assert!(width.is_multiple_of(16) && rows.len().is_multiple_of(width));
    let (db, rows, count) = (db.as_mut_ptr(), rows.as_ptr(), rows.len() / width);
    // Safety: every column group lies below `width`, every row below
    // `count`, as asserted above.
    unsafe {
        let mut j = 0;
        while j + 128 <= width {
            add_columns::<8>(db.add(j), rows.add(j), width, count);
            j += 128;
        }
        while j < width {
            debug_assert!(j + 16 <= width, "add_rows_avx512: column {j}");
            add_columns::<1>(db.add(j), rows.add(j), width, count);
            j += 16;
        }
    }
}

/// `Z` zmm of [`add_rows_avx512`]'s columns, `count` rows `width` floats
/// apart.
///
/// # Safety
///
/// The CPU must support AVX-512F; every row addressed must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn add_columns<const Z: usize>(db: *mut f32, rows: *const f32, width: usize, count: usize) {
    use std::arch::x86_64::*;
    // Safety: the caller keeps every address in bounds.
    unsafe {
        let mut acc: [__m512; Z] = std::array::from_fn(|z| _mm512_loadu_ps(db.add(z * 16)));
        for r in 0..count {
            for (z, a) in acc.iter_mut().enumerate() {
                *a = _mm512_add_ps(*a, _mm512_loadu_ps(rows.add(r * width + z * 16)));
            }
        }
        for (z, &a) in acc.iter().enumerate() {
            _mm512_storeu_ps(db.add(z * 16), a);
        }
    }
}

/// The `dK_p` rows of `R` adjacent inputs `f` of one lead's half:
/// `out[k] = Σ_w Σ_{s in w} x[s, f + k]·g[s]`, the windows' chains
/// summed in ascending order, with `x` pointing at input `f` of step 0
/// and `g` at the half's step-0 gradient row.
///
/// # Safety
///
/// The CPU must support AVX-512F; every row addressed must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn dkv_rows<const R: usize>(dm: Dims, g: *const f32, x: *const f32, out: *mut f32) {
    use std::arch::x86_64::*;
    let Dims { s, w, f, .. } = dm;
    // Safety: the caller keeps every address in bounds.
    unsafe {
        let mut sum = [_mm512_setzero_ps(); R];
        for wi in 0..w {
            let mut acc = [_mm512_setzero_ps(); R];
            for step in wi * s..(wi + 1) * s {
                let gr = _mm512_loadu_ps(g.add(step * 16));
                for (k, a) in acc.iter_mut().enumerate() {
                    *a = _mm512_fmadd_ps(_mm512_set1_ps(*x.add(step * f + k)), gr, *a);
                }
            }
            for (total, &a) in sum.iter_mut().zip(&acc) {
                *total = if wi == 0 { a } else { _mm512_add_ps(*total, a) };
            }
        }
        for (k, &row) in sum.iter().enumerate() {
            _mm512_storeu_ps(out.add(k * 16), row);
        }
    }
}

/// `R` rows of one lead's `dx` at `F = d = 16`: `out[r] = Σ_c gV[r, c]·
/// V_pᵀ[c] + Σ_c gK[r, c]·K_pᵀ[c]`, V chain first, with `g` at the K
/// half's row `r` (the V half `T` rows on) and `cols = [K_pᵀ, V_pᵀ]`.
///
/// # Safety
///
/// The CPU must support AVX-512F; every row addressed must be in bounds.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn dx_rows<const R: usize>(
    g: *const f32,
    t: usize,
    cols: &[[std::arch::x86_64::__m512; 16]; 2],
    out: *mut f32,
) {
    use std::arch::x86_64::*;
    // Safety: the caller keeps every address in bounds.
    unsafe {
        let mut acc = [[_mm512_setzero_ps(); 2]; R];
        for (c, (&kc, &vc)) in cols[0].iter().zip(&cols[1]).enumerate() {
            for (r, row) in acc.iter_mut().enumerate() {
                for (h, (a, col)) in row.iter_mut().zip([kc, vc]).enumerate() {
                    let gv = _mm512_set1_ps(*g.add((h * t + r) * 16 + c));
                    *a = _mm512_fmadd_ps(gv, col, *a);
                }
            }
        }
        for (r, row) in acc.iter().enumerate() {
            // The V half, then the K half added.
            _mm512_storeu_ps(out.add(r * 16), _mm512_add_ps(row[1], row[0]));
        }
    }
}

/// The transpose of a `16 × 16` block held as sixteen zmm rows: 64
/// shuffles, no memory round trip.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
pub(crate) unsafe fn transpose16(
    rows: [std::arch::x86_64::__m512; 16],
) -> [std::arch::x86_64::__m512; 16] {
    use std::arch::x86_64::*;
    // Per 128-bit lane `L`: rows `2k, 2k+1` interleaved, columns
    // `4L, 4L+1` (`lo`) and `4L+2, 4L+3` (`hi`).
    let pairs: [__m512; 16] = std::array::from_fn(|i| {
        let (a, b) = (rows[i & !1], rows[i | 1]);
        if i % 2 == 0 {
            _mm512_unpacklo_ps(a, b)
        } else {
            _mm512_unpackhi_ps(a, b)
        }
    });
    // `quads[4k + m]`, lane `L`: rows `4k..4k+4` of column `4L + m`.
    let quads: [__m512; 16] = std::array::from_fn(|i| {
        let (k, m) = (i / 4, i % 4);
        let a = _mm512_castps_pd(pairs[4 * k + m / 2]);
        let b = _mm512_castps_pd(pairs[4 * k + 2 + m / 2]);
        _mm512_castpd_ps(if m % 2 == 0 {
            _mm512_unpacklo_pd(a, b)
        } else {
            _mm512_unpackhi_pd(a, b)
        })
    });
    // Column `4L + m` gathers lane `L` of quads `m`, `4 + m`, `8 + m`,
    // `12 + m`: lanes 0–1 / 2–3 of each pair first, then the even / odd
    // lanes of those.
    let mut cols = [_mm512_setzero_ps(); 16];
    for m in 0..4 {
        let lo01 = _mm512_shuffle_f32x4::<0x44>(quads[m], quads[4 + m]);
        let lo23 = _mm512_shuffle_f32x4::<0xEE>(quads[m], quads[4 + m]);
        let hi01 = _mm512_shuffle_f32x4::<0x44>(quads[8 + m], quads[12 + m]);
        let hi23 = _mm512_shuffle_f32x4::<0xEE>(quads[8 + m], quads[12 + m]);
        cols[m] = _mm512_shuffle_f32x4::<0x88>(lo01, hi01);
        cols[4 + m] = _mm512_shuffle_f32x4::<0xDD>(lo01, hi01);
        cols[8 + m] = _mm512_shuffle_f32x4::<0x88>(lo23, hi23);
        cols[12 + m] = _mm512_shuffle_f32x4::<0xDD>(lo23, hi23);
    }
    cols
}

/// The VJP for any key width, lead by lead through the `linalg` slice
/// entries.
fn vjp_slices(
    dm: Dims,
    [g, x, kv]: [&[f32]; 3],
    [mut dx, mut dkv, mut db]: [Option<&mut [f32]>; 3],
) {
    let Dims { t, s, w, f, d, .. } = dm;
    let mut scratch = memory::take_scratch(2 * f * d + f * d.max(t));
    let (transposed, part) = scratch.split_at_mut(2 * f * d);
    for l in 0..x.len() / (t * f) {
        let (gk, gv) = g[l * 2 * t * d..(l + 1) * 2 * t * d].split_at(t * d);
        let xl = &x[l * t * f..(l + 1) * t * f];
        if let Some(dkv) = dkv.as_deref_mut() {
            // Per window `x_wᵀ · g_w`, summed over windows in ascending order.
            let (dk, dv) = dkv[l * 2 * f * d..(l + 1) * 2 * f * d].split_at_mut(f * d);
            for (gh, dh) in [(gk, dk), (gv, dv)] {
                gemm_tn_slice(xl, gh, dh, f, s, d);
                for wi in 1..w {
                    gemm_tn_slice(&xl[wi * s * f..], &gh[wi * s * d..], part, f, s, d);
                    for (o, &p) in dh.iter_mut().zip(part.iter()) {
                        *o += p;
                    }
                }
            }
            if let Some(db) = db.as_deref_mut() {
                for (acc, &v) in db.iter_mut().zip(&dkv[l * 2 * f * d..(l + 1) * 2 * f * d]) {
                    *acc += v;
                }
            }
        }
        if let Some(dx) = dx.as_deref_mut() {
            // `g_h · h_pᵀ` per half over all `T` rows, V first, K added.
            let dxl = &mut dx[l * t * f..(l + 1) * t * f];
            let (kp, vp) = kv[l * 2 * f * d..(l + 1) * 2 * f * d].split_at(f * d);
            let (kt, vt) = transposed.split_at_mut(f * d);
            transpose(kp, kt, f, d);
            transpose(vp, vt, f, d);
            gemm_nn_slice(gv, vt, dxl, t, d, f);
            gemm_nn_slice(gk, kt, part, t, d, f);
            for (o, &p) in dxl.iter_mut().zip(part.iter()) {
                *o += p;
            }
        }
    }
    memory::recycle(scratch);
}

/// The forward for any key width, lead by lead through [`gemm_nn_slice`].
fn forward_slices(dm: Dims, x: &[f32], kv: &[f32], out: &mut [f32]) {
    let Dims { t, f, d, .. } = dm;
    for ((xl, kvl), o) in x
        .chunks_exact(t * f)
        .zip(kv.chunks_exact(2 * f * d))
        .zip(out.chunks_exact_mut(2 * t * d))
    {
        let (kp, vp) = kvl.split_at(f * d);
        let (ok, ov) = o.split_at_mut(t * d);
        gemm_nn_slice(xl, kp, ok, t, f, d);
        gemm_nn_slice(xl, vp, ov, t, f, d);
    }
}

/// `dst [cols, rows] = srcᵀ` for a row-major `src [rows, cols]`.
fn transpose(src: &[f32], dst: &mut [f32], rows: usize, cols: usize) {
    for (r, row) in src.chunks_exact(cols).take(rows).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            dst[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{linalg, manip};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `(lead, T, S, F, d, m2)`.
    type Case = (&'static [usize], usize, usize, usize, usize, usize);

    /// The train step's three layers (`F = 1`, `W = 4`; `W = 2`; `W =
    /// 1`), two and a ragged part of a third block of leads, the serving
    /// width `d = 32` at its first layer and past a block of leads with
    /// a ragged step count, a ragged shape and rank 2.
    const CASES: [Case; 8] = [
        (&[2, 5], 12, 3, 1, 16, 32),
        (&[2, 5], 4, 2, 16, 16, 32),
        (&[3], 2, 2, 16, 16, 8),
        (&[3, 50], 4, 2, 3, 16, 5),
        (&[2, 5], 12, 3, 1, 32, 16),
        (&[70], 6, 3, 32, 32, 8),
        (&[2, 3], 6, 2, 5, 7, 3),
        (&[], 3, 1, 2, 3, 4),
    ];

    /// `[x, head, weight, bias, grad]`.
    fn operands(lead: &[usize], t: usize, s: usize, f: usize, d: usize, m2: usize) -> [Tensor; 5] {
        let mut rng = StdRng::seed_from_u64((t * 31 + s * 7 + f * 3 + d + m2 * 101) as u64);
        let shape = |tail: &[usize]| [lead, tail].concat();
        [
            Tensor::randn(&shape(&[t, f]), &mut rng),
            Tensor::randn(&shape(&[m2]), &mut rng),
            Tensor::randn(&[m2, 2 * f * d], &mut rng).mul_scalar(0.3),
            Tensor::randn(&[2 * f * d], &mut rng),
            Tensor::randn(&shape(&[2, t / s, s, d]), &mut rng),
        ]
    }

    fn decoder<'a>([_, head, weight, bias, _]: &'a [Tensor; 5]) -> Decoder<'a> {
        Decoder { head, weight, bias }
    }

    /// The tape chain this op replaced, as the tensor kernels its nodes
    /// run: the decoder's `matmul` and bias add, the K/V split of the
    /// flat rows and the window-broadcast `matmul`, and the reverse
    /// sweep's `matmul_nt` / `matmul_tn` + `sum_axis`, then the dense
    /// layer's `sum_axis(0)` / `matmul_nt` / `matmul_tn`. Returns `[out,
    /// dx, dhead, dweight, dbias]`.
    fn chain(ops: &[Tensor; 5], s: usize) -> [Tensor; 5] {
        let [x, head, weight, bias, g] = ops;
        let rank = x.rank();
        let lead = &x.shape()[..rank - 2];
        let (t, f) = (x.shape()[rank - 2], x.shape()[rank - 1]);
        let (m2, width) = (weight.shape()[0], weight.shape()[1]);
        let d = width / (2 * f);
        let w = t / s;
        let at = |tail: &[usize]| [lead, tail].concat();
        let rows = lead.iter().product();
        let h2 = head.reshape(&[rows, m2]).unwrap();
        let kv = linalg::matmul(&h2, weight).unwrap().add(bias).unwrap();
        let split = kv.reshape(&at(&[2, f, d])).unwrap();
        let half = |h: usize| {
            split
                .narrow(rank - 2, h, 1)
                .unwrap()
                .reshape(&at(&[1, f, d]))
                .unwrap()
        };
        let x_win = x.reshape(&at(&[w, s, f])).unwrap();
        let g_half = |h: usize| {
            g.narrow(rank - 2, h, 1)
                .unwrap()
                .reshape(&at(&[w, s, d]))
                .unwrap()
        };
        let out = manip::concat(
            &[
                &linalg::matmul(&x_win, &half(0)).unwrap(),
                &linalg::matmul(&x_win, &half(1)).unwrap(),
            ],
            rank - 2,
        )
        .unwrap()
        .reshape(g.shape())
        .unwrap();
        let dx = linalg::matmul_nt(&g_half(1), &half(1))
            .unwrap()
            .add(&linalg::matmul_nt(&g_half(0), &half(0)).unwrap())
            .unwrap()
            .reshape(x.shape())
            .unwrap();
        let dh = |h: usize| {
            let full = linalg::matmul_tn(&x_win, &g_half(h)).unwrap();
            if w == 1 {
                full
            } else {
                full.sum_axis(rank - 2, true).unwrap()
            }
        };
        let dkv = manip::concat(&[&dh(0), &dh(1)], rank - 2)
            .unwrap()
            .reshape(&[rows, width])
            .unwrap();
        let dbias = dkv.sum_axis(0, false).unwrap();
        let dhead = linalg::matmul_nt(&dkv, weight)
            .unwrap()
            .reshape(head.shape())
            .unwrap();
        let dweight = linalg::matmul_tn(&h2, &dkv).unwrap();
        [out, dx, dhead, dweight, dbias]
    }

    const ALL: Need = Need {
        x: true,
        head: true,
        weight: true,
        bias: true,
    };

    fn run_op(ops: &[Tensor; 5], s: usize, need: Need) -> (Tensor, Grads) {
        let (out, rows) = forward(&ops[0], decoder(ops), s, true).unwrap();
        let grads = vjp(&ops[4], &ops[0], decoder(ops), &rows.unwrap(), s, need).unwrap();
        (out, grads)
    }

    #[test]
    fn every_isa_arm_matches_the_decoder_linear_chain() {
        crate::isa::for_each_ceiling("kv projection", |cap| {
            for &(lead, t, s, f, d, m2) in &CASES {
                let ops = operands(lead, t, s, f, d, m2);
                let want = chain(&ops, s);
                let (out, grads) = run_op(&ops, s, ALL);
                let what = format!("{cap:?} lead {lead:?} T {t} S {s} F {f} d {d} m2 {m2}");
                let got = [
                    out,
                    grads.x.unwrap(),
                    grads.head.unwrap(),
                    grads.weight.unwrap(),
                    grads.bias.unwrap(),
                ];
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(g.shape(), w.shape(), "#{i} shape, {what}");
                    assert_eq!(
                        g.data(),
                        w.data(),
                        "#{i} [out, dx, dhead, dweight, dbias], {what}"
                    );
                }
                let (lean, none) = forward(&ops[0], decoder(&ops), s, false).unwrap();
                assert!(none.is_none());
                assert_eq!(
                    lean.data(),
                    want[0].data(),
                    "forward without kept rows, {what}"
                );
            }
        });
    }

    #[test]
    fn split_walk_is_the_slice_product_per_lead_on_every_arm() {
        // Both strides the engine uses — a decoded `[2·F·d]` row's halves
        // and a freeze-time cache's `[F, d]` blocks — at the register
        // widths, a width they do not take, step counts on both sides of
        // the four-row tile, and the first layer's `F = 1`.
        for (d, f, rows, count) in [
            (32, 32, 6, 5),
            (32, 1, 12, 3),
            (16, 16, 4, 4),
            (32, 5, 3, 2),
            (7, 3, 5, 2),
        ] {
            let mut rng = StdRng::seed_from_u64((d * 31 + f * 7 + rows) as u64);
            let x = Tensor::randn(&[count, rows, f], &mut rng);
            let decoded = Tensor::randn(&[count, 2 * f * d], &mut rng);
            let (k_cache, v_cache) = (
                Tensor::randn(&[count, f, d], &mut rng),
                Tensor::randn(&[count, f, d], &mut rng),
            );
            let operands = [
                (decoded.data(), &decoded.data()[f * d..], 2 * f * d),
                (k_cache.data(), v_cache.data(), f * d),
            ];
            for (first, second, stride) in operands {
                let mut want = [vec![0.0; count * rows * d], vec![0.0; count * rows * d]];
                for i in 0..count {
                    let a = &x.data()[i * rows * f..(i + 1) * rows * f];
                    for (proj, out) in [first, second].iter().zip(want.iter_mut()) {
                        let out = &mut out[i * rows * d..(i + 1) * rows * d];
                        gemm_nn_slice(a, &proj[i * stride..], out, rows, f, d);
                    }
                }
                crate::isa::for_each_ceiling("split K/V walk", |cap| {
                    let mut got = [
                        vec![f32::NAN; count * rows * d],
                        vec![f32::NAN; count * rows * d],
                    ];
                    let [kout, vout] = &mut got;
                    forward_split(
                        x.data(),
                        first,
                        second,
                        stride,
                        count,
                        (rows, f, d),
                        kout,
                        vout,
                    );
                    assert!(
                        got == want,
                        "{cap:?} d {d} F {f} rows {rows} stride {stride}"
                    );
                });
            }
        }
    }

    #[test]
    fn vjp_computes_only_what_is_asked_for() {
        let ops = operands(&[2, 3], 4, 2, 3, 4, 5);
        let (_, all) = run_op(&ops, 2, ALL);
        let each = [
            (
                Need {
                    x: true,
                    ..Need::default()
                },
                &all.x,
            ),
            (
                Need {
                    head: true,
                    ..Need::default()
                },
                &all.head,
            ),
            (
                Need {
                    weight: true,
                    ..Need::default()
                },
                &all.weight,
            ),
            (
                Need {
                    bias: true,
                    ..Need::default()
                },
                &all.bias,
            ),
        ];
        for (need, want) in each {
            let (_, got) = run_op(&ops, 2, need);
            let got = [got.x, got.head, got.weight, got.bias];
            assert_eq!(got.iter().filter(|g| g.is_some()).count(), 1, "{need:?}");
            let one = got.into_iter().flatten().next().unwrap();
            assert_eq!(one.data(), want.as_ref().unwrap().data(), "{need:?}");
        }
    }

    #[test]
    fn splits_across_threads_without_changing_a_bit() {
        // 640 leads at F = d = 16 pass the split threshold.
        let ops = operands(&[32, 20], 4, 2, 16, 16, 32);
        let bits = |(out, g): (Tensor, Grads)| {
            [Some(out), g.x, g.head, g.weight, g.bias].map(|t| t.unwrap().data().to_vec())
        };
        stwa_pool::set_threads(1);
        let one = bits(run_op(&ops, 2, ALL));
        stwa_pool::set_threads(3);
        let three = bits(run_op(&ops, 2, ALL));
        stwa_pool::set_threads(1);
        assert_eq!(one, three);
    }

    #[test]
    fn rejects_mismatched_operands() {
        let ops = operands(&[2, 3], 4, 2, 3, 4, 5);
        let [x, head, _, bias, g] = &ops;
        let dec = decoder(&ops);
        let rejects = |dec: Decoder<'_>, s: usize| forward(x, dec, s, false).is_err();
        assert!(rejects(dec, 3), "window must divide T");
        assert!(rejects(dec, 0));
        let (odd, odd_bias) = (Tensor::zeros(&[5, 25]), Tensor::zeros(&[25]));
        let bad = Decoder {
            weight: &odd,
            bias: &odd_bias,
            ..dec
        };
        assert!(rejects(bad, 2), "2·F·d");
        let short_bias = Tensor::zeros(&[23]);
        let bad = Decoder {
            bias: &short_bias,
            ..dec
        };
        assert!(rejects(bad, 2), "bias");
        let other_lead = Tensor::zeros(&[3, 2, 5]);
        let bad = Decoder {
            head: &other_lead,
            ..dec
        };
        assert!(rejects(bad, 2), "lead");
        assert!(
            rejects(
                Decoder {
                    weight: head,
                    ..dec
                },
                2
            ),
            "weight rank"
        );
        let (_, rows) = forward(x, dec, 2, true).unwrap();
        let rows = rows.unwrap();
        assert!(vjp(x, x, dec, &rows, 2, ALL).is_err(), "grad shape");
        assert!(vjp(g, x, dec, bias, 2, ALL).is_err(), "rows shape");
        assert!(vjp(g, x, dec, &rows, 2, ALL).is_ok());
    }
}
