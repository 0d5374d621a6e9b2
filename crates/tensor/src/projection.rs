//! The generated K/V projection (paper §IV-A.3): the decoder `D_ω` emits
//! one flat `[2·F·d]` row per (sample, sensor) — that lead's `K_t^(i)`
//! `[F, d]`, then its `V_t^(i)` — and the window-attention layer projects
//! its `[T, F]` input through them. Forward and exact VJP as one walk
//! each, reading both operands where they lie: no split, squeeze or
//! per-window copies.
//!
//! `x` is `[..., T, F]`, `kv` is `[..., 2·F·d]` with the same leading
//! axes (flattened into `lead`), `S` divides `T` into `W` windows. The
//! output is `[..., 2, W, S, d]`: every lead's keys, then its values,
//! window by window, which [`crate::attention::forward_kv_window`] reads
//! one window at a time in place.
//!
//! # Order contract
//!
//! Every value is the one the tape chain this op replaced computes, bit
//! for bit — `kv.reshape([.., 2, F, d])`, a `narrow` + `squeeze` per
//! half, `x.reshape([.., W, S, F]).matmul(half.unsqueeze(2))` — and that
//! chain's reverse sweep:
//!
//! | value | sum over | term | what the chain runs |
//! |---|---|---|---|
//! | `K[t,c] = Σ_f x[t,f]·K_p[f,c]` (and `V`) | `f` | fused | `matmul` |
//! | `dK_p[f,c] = Σ_w (Σ_s x[w,s,f]·gK[w,s,c])` (and `dV_p`) | `s`, then `w` | fused, then add | `matmul_tn` per window, `sum_axis` over the broadcast window axis |
//! | `dx[t,f] = Σ_c gV[t,c]·V_p[f,c] + Σ_c gK[t,c]·K_p[f,c]` | `c`, then the halves | fused, then add | `matmul_nt` per half, accumulated V first |
//!
//! Each sum is one ascending chain from `+0.0`; a contraction takes each
//! term as one fused multiply-add (the `linalg` order contract). The
//! window sum writes window 0's chain and adds the rest: `0.0 + c = c`
//! for every chain `c`, which is never `-0.0`, so it is `sum_axis`'s
//! value, and the `W = 1` case, where the chain has no `sum_axis` at
//! all, is the same bits. `dx` is the V half, then the K half added to
//! it — the order the chain's reverse sweep reaches its two `matmul`
//! nodes (values were recorded last).
//!
//! At key width `d = 16` — every layer of the models here — on an
//! AVX-512 host, each output row is one zmm of chains and each term one
//! `vfmadd`. `dx`'s `Σ_c` chains run as rank-1 rows against `K_p`ᵀ: each
//! lead's two `[16, 16]` projections are transposed in registers, once
//! for all of its rows. Other widths and arms run the `linalg` slice
//! entries lead by lead, through a transposed copy; the unit tests hold
//! every arm to the chain's bits.

#[cfg(target_arch = "x86_64")]
use crate::isa::{self, Isa};
use crate::linalg::{gemm_nn_slice, gemm_tn_slice, PARALLEL_FLOP_THRESHOLD};
use crate::{memory, Result, Tensor, TensorError};
use stwa_pool::SendPtr;

/// Problem extents, leading axes flattened into `lead`.
#[derive(Clone, Copy)]
struct Dims {
    lead: usize,
    t: usize,
    s: usize,
    w: usize,
    f: usize,
    d: usize,
}

fn check(op: &'static str, x: &[usize], kv: &[usize], s: usize) -> Result<Dims> {
    let rank = x.len();
    let err = |why: &str| {
        Err(TensorError::Invalid(format!(
            "{op}: x {x:?} / kv {kv:?} / window {s}: {why}"
        )))
    };
    if rank < 2 || kv.len() != rank - 1 || x[..rank - 2] != kv[..rank - 2] {
        return err("need x [.., T, F] and kv [.., 2·F·d] over the same leading axes");
    }
    let (t, f, row) = (x[rank - 2], x[rank - 1], kv[rank - 2]);
    if s == 0 || t == 0 || !t.is_multiple_of(s) {
        return err("the window must divide a non-empty T");
    }
    if f == 0 || row == 0 || !row.is_multiple_of(2 * f) {
        return err("kv rows must hold 2·F·d floats with F, d > 0");
    }
    Ok(Dims {
        lead: x[..rank - 2].iter().product(),
        t,
        s,
        w: t / s,
        f,
        d: row / (2 * f),
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

/// The projection: `[..., T, F]` through each lead's `[2·F·d]` row into
/// `[..., 2, W, S, d]`.
pub fn forward(x: &Tensor, kv: &Tensor, s: usize) -> Result<Tensor> {
    let dm = check("project_kv", x.shape(), kv.shape(), s)?;
    let Dims { lead, t, f, d, .. } = dm;
    let mut out = memory::take_scratch(lead * 2 * t * d);
    let (xd, kvd) = (x.data(), kv.data());
    let out_ptr = SendPtr(out.as_mut_ptr());
    let (run, _) = walks(d);
    debug_assert_eq!(out.len(), lead * 2 * t * d, "project_kv: output length");
    for_leads(lead, 4 * t * f * d, |l0, l1| {
        debug_assert!(l0 <= l1 && l1 <= lead, "project_kv: lead run {l0}..{l1} of {lead}");
        // Safety: chunks own the disjoint output leads `[l0, l1)`, and
        // the pool joins before `out` is consumed.
        let out = unsafe {
            std::slice::from_raw_parts_mut(out_ptr.get().add(l0 * 2 * t * d), (l1 - l0) * 2 * t * d)
        };
        run(
            dm,
            &xd[l0 * t * f..l1 * t * f],
            &kvd[l0 * 2 * f * d..l1 * 2 * f * d],
            out,
        );
    });
    let mut shape = x.shape()[..x.rank() - 2].to_vec();
    shape.extend_from_slice(&[2, dm.w, s, d]);
    Tensor::from_vec(out, &shape)
}

/// Exact VJP of [`forward`] for upstream gradient `grad [..., 2, W, S,
/// d]`: `(dx, dkv)`, each computed only when asked for. `dkv` has
/// `kv`'s flat layout, so it lands in the decoder-output gradient as is.
pub fn vjp(
    grad: &Tensor,
    x: &Tensor,
    kv: &Tensor,
    s: usize,
    need_dx: bool,
    need_dkv: bool,
) -> Result<(Option<Tensor>, Option<Tensor>)> {
    let dm = check("project_kv_vjp", x.shape(), kv.shape(), s)?;
    let Dims { lead, t, f, d, .. } = dm;
    let mut want = x.shape()[..x.rank() - 2].to_vec();
    want.extend_from_slice(&[2, dm.w, s, d]);
    if grad.shape() != want {
        return Err(TensorError::ShapeMismatch {
            op: "project_kv_vjp",
            lhs: grad.shape().to_vec(),
            rhs: want,
        });
    }
    // Every element of both is written.
    let mut dx = need_dx.then(|| memory::take_scratch(x.len()));
    let mut dkv = need_dkv.then(|| memory::take_scratch(kv.len()));
    let dx_ptr = dx.as_mut().map(|b| SendPtr(b.as_mut_ptr()));
    let dkv_ptr = dkv.as_mut().map(|b| SendPtr(b.as_mut_ptr()));
    let (gd, xd, kvd) = (grad.data(), x.data(), kv.data());
    let (_, run) = walks(d);
    debug_assert!(dx.as_ref().is_none_or(|b| b.len() == lead * t * f));
    debug_assert!(dkv.as_ref().is_none_or(|b| b.len() == lead * 2 * f * d));
    for_leads(lead, 8 * t * f * d, |l0, l1| {
        debug_assert!(l0 <= l1 && l1 <= lead, "project_kv_vjp: lead run {l0}..{l1} of {lead}");
        // Safety: chunks own the disjoint leads `[l0, l1)` of `dx`
        // (`T·F` floats each) and `dkv` (`2·F·d` each), and the pool
        // joins before either buffer is consumed.
        let dx = dx_ptr.map(|p| unsafe {
            std::slice::from_raw_parts_mut(p.get().add(l0 * t * f), (l1 - l0) * t * f)
        });
        let dkv = dkv_ptr.map(|p| unsafe {
            std::slice::from_raw_parts_mut(p.get().add(l0 * 2 * f * d), (l1 - l0) * 2 * f * d)
        });
        run(
            dm,
            [
                &gd[l0 * 2 * t * d..l1 * 2 * t * d],
                &xd[l0 * t * f..l1 * t * f],
                &kvd[l0 * 2 * f * d..l1 * 2 * f * d],
            ],
            [dx, dkv],
        );
    });
    Ok((
        dx.map(|b| Tensor::from_vec(b, x.shape())).transpose()?,
        dkv.map(|b| Tensor::from_vec(b, kv.shape())).transpose()?,
    ))
}

/// A forward walk over a run of leads: extents, their `x`, `kv` and
/// output rows.
type ForwardFn = fn(Dims, &[f32], &[f32], &mut [f32]);

/// A VJP walk over a run of leads: extents, their `[grad, x, kv]` and
/// the `[dx, dkv]` asked for.
type VjpFn = fn(Dims, [&[f32]; 3], [Option<&mut [f32]>; 2]);

/// The walks for key width `d`: at `d = 16` — every layer of the models
/// here — on an AVX-512 host, register rows of one zmm each; otherwise
/// the `linalg` slice entries lead by lead. Same chains, same bits.
fn walks(d: usize) -> (ForwardFn, VjpFn) {
    #[cfg(target_arch = "x86_64")]
    if d == 16 && isa::current() >= Isa::Avx512 {
        // Safety (both): the tier implies AVX-512F.
        return (
            |dm, x, kv, out| unsafe { forward_avx512(dm, x, kv, out) },
            |dm, ins, outs| unsafe { vjp_avx512(dm, ins, outs) },
        );
    }
    (forward_slices, vjp_slices)
}

/// [`forward_slices`] at `d = 16`: each output row is one zmm of chains,
/// one `vfmadd` per `F` term.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn forward_avx512(dm: Dims, x: &[f32], kv: &[f32], out: &mut [f32]) {
    use std::arch::x86_64::*;
    let Dims { t, f, .. } = dm;
    let leads = x.len() / (t * f);
    debug_assert_eq!(x.len(), leads * t * f, "forward_avx512: x holds whole leads");
    debug_assert_eq!(dm.d, 16, "forward_avx512: one zmm per row");
    assert!(kv.len() >= leads * 2 * f * 16 && out.len() >= leads * 2 * t * 16);
    let (x, kv, out) = (x.as_ptr(), kv.as_ptr(), out.as_mut_ptr());
    // Safety: lead `l`'s rows lie inside the extents asserted above.
    unsafe {
        for l in 0..leads {
            let xl = x.add(l * t * f);
            for h in 0..2 {
                let proj = kv.add((2 * l + h) * f * 16);
                let o = out.add((2 * l + h) * t * 16);
                for r in 0..t {
                    let mut acc = _mm512_setzero_ps();
                    for fi in 0..f {
                        let a = _mm512_set1_ps(*xl.add(r * f + fi));
                        acc = _mm512_fmadd_ps(a, _mm512_loadu_ps(proj.add(fi * 16)), acc);
                    }
                    _mm512_storeu_ps(o.add(r * 16), acc);
                }
            }
        }
    }
}

/// [`vjp_slices`] at `d = 16`. A `dK_p` row is one zmm of chains over a
/// window's steps, written for window 0 and added after. At `F = 16`
/// (every layer past the first) each lead's two `[16, 16]` projections
/// are transposed in registers and `dx`'s rows are chains over their
/// columns; `dx` at any other `F` takes the slice entries.
///
/// # Safety
///
/// The CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn vjp_avx512(dm: Dims, [g, x, kv]: [&[f32]; 3], [dx, dkv]: [Option<&mut [f32]>; 2]) {
    use std::arch::x86_64::*;
    let Dims { t, s, w, f, .. } = dm;
    let leads = x.len() / (t * f);
    debug_assert_eq!(x.len(), leads * t * f, "vjp_avx512: x holds whole leads");
    debug_assert_eq!(dm.d, 16, "vjp_avx512: one zmm per row");
    debug_assert_eq!(w * s, t, "vjp_avx512: windows tile the steps");
    assert!(g.len() >= leads * 2 * t * 16 && kv.len() >= leads * 2 * f * 16);
    if let Some(dkv) = dkv {
        assert!(dkv.len() >= leads * 2 * f * 16);
        let (g, x, dkv) = (g.as_ptr(), x.as_ptr(), dkv.as_mut_ptr());
        // Safety: every row addressed lies inside the extents asserted
        // above.
        unsafe {
            for l in 0..leads {
                let xl = x.add(l * t * f);
                for h in 0..2 {
                    let gh = g.add((2 * l + h) * t * 16);
                    let dh = dkv.add((2 * l + h) * f * 16);
                    for fi in 0..f {
                        for wi in 0..w {
                            let mut acc = _mm512_setzero_ps();
                            for r in wi * s..(wi + 1) * s {
                                let xv = _mm512_set1_ps(*xl.add(r * f + fi));
                                acc = _mm512_fmadd_ps(xv, _mm512_loadu_ps(gh.add(r * 16)), acc);
                            }
                            // Window 0 writes the row, later windows add.
                            let row = dh.add(fi * 16);
                            if wi > 0 {
                                acc = _mm512_add_ps(_mm512_loadu_ps(row), acc);
                            }
                            _mm512_storeu_ps(row, acc);
                        }
                    }
                }
            }
        }
    }
    let Some(dx) = dx else { return };
    if f != 16 {
        return vjp_slices(dm, [g, x, kv], [Some(dx), None]);
    }
    assert!(dx.len() >= leads * t * 16);
    let (g, kv, dx) = (g.as_ptr(), kv.as_ptr(), dx.as_mut_ptr());
    // Safety: every row addressed lies inside the extents asserted above.
    unsafe {
        for l in 0..leads {
            let o = dx.add(l * t * 16);
            // V half, then the K half added.
            for h in [1, 0] {
                let proj = kv.add((2 * l + h) * 256);
                let cols = transpose16(std::array::from_fn(|i| _mm512_loadu_ps(proj.add(i * 16))));
                let gh = g.add((2 * l + h) * t * 16);
                for r in 0..t {
                    let mut acc = _mm512_setzero_ps();
                    for (c, &col) in cols.iter().enumerate() {
                        acc = _mm512_fmadd_ps(_mm512_set1_ps(*gh.add(r * 16 + c)), col, acc);
                    }
                    let acc = if h == 1 {
                        acc
                    } else {
                        _mm512_add_ps(_mm512_loadu_ps(o.add(r * 16)), acc)
                    };
                    _mm512_storeu_ps(o.add(r * 16), acc);
                }
            }
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
pub(crate) unsafe fn transpose16(rows: [std::arch::x86_64::__m512; 16]) -> [std::arch::x86_64::__m512; 16] {
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
fn vjp_slices(dm: Dims, [g, x, kv]: [&[f32]; 3], [mut dx, mut dkv]: [Option<&mut [f32]>; 2]) {
    let Dims { t, s, w, f, d, .. } = dm;
    let mut scratch = memory::take_scratch(2 * f * d + f * d.max(t));
    let (transposed, part) = scratch.split_at_mut(2 * f * d);
    for l in 0..x.len() / (t * f) {
        let (gk, gv) = g[l * 2 * t * d..(l + 1) * 2 * t * d].split_at(t * d);
        let xl = &x[l * t * f..(l + 1) * t * f];
        let (kp, vp) = kv[l * 2 * f * d..(l + 1) * 2 * f * d].split_at(f * d);
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
        }
        if let Some(dx) = dx.as_deref_mut() {
            // `g_h · h_pᵀ` per half over all `T` rows, V first, K added.
            let dxl = &mut dx[l * t * f..(l + 1) * t * f];
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

    /// `(lead, T, S, F, d)`: the train step's three layers (`F = 1`,
    /// `W = 4`; `W = 2`; `W = 1`), a ragged shape and rank 2.
    const CASES: [(&[usize], usize, usize, usize, usize); 5] = [
        (&[2, 5], 12, 3, 1, 16),
        (&[2, 5], 4, 2, 16, 16),
        (&[3], 2, 2, 16, 16),
        (&[2, 3], 6, 2, 5, 7),
        (&[], 3, 1, 2, 3),
    ];

    fn operands(lead: &[usize], t: usize, s: usize, f: usize, d: usize) -> [Tensor; 3] {
        let mut rng = StdRng::seed_from_u64((t * 31 + s * 7 + f * 3 + d) as u64);
        let shape = |tail: &[usize]| [lead, tail].concat();
        [
            Tensor::randn(&shape(&[t, f]), &mut rng),
            Tensor::randn(&shape(&[2 * f * d]), &mut rng),
            Tensor::randn(&shape(&[2, t / s, s, d]), &mut rng),
        ]
    }

    /// The tape chain this op replaced, as the tensor kernels its nodes
    /// run: the K/V split of the flat rows, the window-broadcast
    /// `matmul`, and the reverse sweep's `matmul_nt` / `matmul_tn` +
    /// `sum_axis`.
    fn chain(x: &Tensor, kv: &Tensor, g: &Tensor, s: usize) -> [Tensor; 3] {
        let rank = x.rank();
        let lead = &x.shape()[..rank - 2];
        let (t, f) = (x.shape()[rank - 2], x.shape()[rank - 1]);
        let d = kv.shape()[rank - 2] / (2 * f);
        let w = t / s;
        let at = |tail: &[usize]| [lead, tail].concat();
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
            .reshape(kv.shape())
            .unwrap();
        [out, dx, dkv]
    }

    #[test]
    fn every_isa_arm_matches_the_matmul_narrow_chain() {
        crate::isa::for_each_ceiling("kv projection", |cap| {
            for &(lead, t, s, f, d) in &CASES {
                let [x, kv, g] = operands(lead, t, s, f, d);
                let [out, dx, dkv] = chain(&x, &kv, &g, s);
                let got = forward(&x, &kv, s).unwrap();
                assert_eq!(got.shape(), out.shape());
                assert_eq!(got.data(), out.data(), "forward {cap:?} T {t} S {s} F {f}");
                let (gx, gkv) = vjp(&g, &x, &kv, s, true, true).unwrap();
                let (gx, gkv) = (gx.unwrap(), gkv.unwrap());
                assert_eq!(gx.shape(), x.shape());
                assert_eq!(gx.data(), dx.data(), "dx {cap:?} T {t} S {s} F {f}");
                assert_eq!(gkv.shape(), kv.shape());
                assert_eq!(gkv.data(), dkv.data(), "dkv {cap:?} T {t} S {s} F {f}");
            }
        });
    }

    #[test]
    fn vjp_computes_only_the_halves_asked_for() {
        let [x, kv, g] = operands(&[2, 3], 4, 2, 3, 4);
        let (all_dx, all_dkv) = vjp(&g, &x, &kv, 2, true, true).unwrap();
        let (dx, none) = vjp(&g, &x, &kv, 2, true, false).unwrap();
        assert!(none.is_none());
        assert_eq!(dx.unwrap().data(), all_dx.unwrap().data());
        let (none, dkv) = vjp(&g, &x, &kv, 2, false, true).unwrap();
        assert!(none.is_none());
        assert_eq!(dkv.unwrap().data(), all_dkv.unwrap().data());
    }

    #[test]
    fn splits_across_threads_without_changing_a_bit() {
        // 640 leads at F = d = 16 pass the split threshold.
        let [x, kv, g] = operands(&[32, 20], 4, 2, 16, 16);
        stwa_pool::set_threads(1);
        let one = (
            forward(&x, &kv, 2).unwrap(),
            vjp(&g, &x, &kv, 2, true, true).unwrap(),
        );
        stwa_pool::set_threads(3);
        let three = (
            forward(&x, &kv, 2).unwrap(),
            vjp(&g, &x, &kv, 2, true, true).unwrap(),
        );
        stwa_pool::set_threads(1);
        assert_eq!(one.0.data(), three.0.data());
        assert_eq!(one.1 .0.unwrap().data(), three.1 .0.unwrap().data());
        assert_eq!(one.1 .1.unwrap().data(), three.1 .1.unwrap().data());
    }

    #[test]
    fn rejects_mismatched_operands() {
        let [x, kv, g] = operands(&[2, 3], 4, 2, 3, 4);
        assert!(forward(&x, &kv, 3).is_err(), "window must divide T");
        assert!(forward(&x, &kv, 0).is_err());
        assert!(
            forward(&x, &Tensor::zeros(&[2, 3, 25]), 2).is_err(),
            "2·F·d"
        );
        assert!(forward(&x, &Tensor::zeros(&[3, 2, 24]), 2).is_err(), "lead");
        assert!(vjp(&kv, &x, &kv, 2, true, true).is_err(), "grad shape");
        assert!(vjp(&g, &x, &kv, 2, true, true).is_ok());
    }
}
