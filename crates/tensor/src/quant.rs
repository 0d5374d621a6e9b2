//! Quantized weight panels for the frozen serving path.
//!
//! Large-batch serving is memory-bandwidth-bound on f32 [`PackedMatrix`]
//! panels (BENCH_infer.json: the frozen engine's speedup sags as batch
//! grows), so this module re-lays frozen weights as **symmetric int8**
//! panels (1 byte/weight + one f32 scale per output column, i32
//! accumulation). Activations stay f32 end to end; each GEMM *row* of
//! the activation is quantized dynamically (one scale per row) so the
//! product is pure integer arithmetic until the final per-element
//! dequantize.
//!
//! Layout: a **quad-interleaved** strip layout — full contraction depth
//! per `NR`-wide strip, `k` grouped in fours so each strip row is the
//! `NR*4 = 64` bytes one `vpdpbusd` consumes:
//! `panel[js*k4*64 + p4*64 + jj*4 + t] = q(B[4*p4 + t][js*NR + jj])`.
//! Each strip carries a per-column scale (`scales[j] = max_p
//! |B[p][j]| / 127` — the finest "column group" the per-panel scheme
//! allows, which keeps the round-trip bound per-column tight) and a
//! per-column integer correction `corr[j] = 128 * sum_p q(B[p][j])`,
//! both padded to strip width. The correction exists because the VNNI
//! kernel feeds activations as `u8 = qa + 128`:
//! `sum (qa+128)*qb - 128*sum qb == sum qa*qb` exactly, in integers.
//!
//! # Determinism contract
//!
//! The quantized path cannot be bitwise-equal to the f32 kernels (that
//! would defeat quantization), so the contract shifts one level down:
//! **every SIMD kernel is bitwise-equal to its scalar reference**, at
//! any shape and thread count.
//!
//! - The `i8 × i8 → i32` accumulation is exact integer arithmetic,
//!   associative by construction, so lane width cannot change the sum —
//!   and both SIMD tiles' `+128` activation offset (VNNI `vpdpbusd`,
//!   AVX2 `vpmaddubsw` with even/odd byte splitting to dodge i16
//!   saturation) is undone by an exact integer correction, so each
//!   computes the *same integer* as the scalar tile. The dequantize is
//!   the fixed chain `(acc as f32) * row_scale * col_scale`, one
//!   rounding per `*`, identical lane-wise in scalar and SIMD.
//! - Rows are independent (no cross-row reduction, and each row's
//!   scale depends on that row alone), so splitting rows across pool
//!   workers — or feeding them a block at a time — cannot change any
//!   element.
//!
//! `matmul_packed_int8_reference` runs the scalar body unconditionally;
//! proptests assert the dispatched entry matches it bit-for-bit.
//!
//! [`PackedMatrix`]: crate::linalg::PackedMatrix

use crate::isa::{self, Isa};
use crate::linalg::{packed_dims, MR, NR, PARALLEL_FLOP_THRESHOLD};
use crate::{Result, Tensor, TensorError};
use std::cell::RefCell;
use stwa_pool::SendPtr;

/// Numeric width a model is frozen at. Training is always f32; this
/// only selects the panel storage of the *serving* snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full-width panels — bitwise identical to the training graph.
    #[default]
    F32,
    /// Symmetric int8 panels with per-column scales, i32 accumulation
    /// and dynamic per-row activation quantization: 4× smaller weights.
    Int8,
}

impl Precision {
    /// Stable lowercase label for reports and bench keys.
    pub fn label(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

// -------------------------------------------------------------------
// Scalar conversion primitives
// -------------------------------------------------------------------

/// Symmetric int8 scale for values of the given max magnitude. Zero
/// magnitude maps to scale 1 so all-zero columns/rows quantize to
/// zeros without a division by zero.
#[inline]
pub fn int8_scale(max_abs: f32) -> f32 {
    if max_abs > 0.0 {
        max_abs / 127.0
    } else {
        1.0
    }
}

/// Quantize one value against a symmetric scale: round-to-nearest-even
/// (the rounding `vroundps`/`vrndscaleps` implement, so scalar and SIMD
/// quantization are the same IEEE op), clamped to `[-127, 127]` (the
/// clamp only fires on the rounding edge `x == max_abs` where fp
/// division can land a hair above 127).
#[inline]
pub fn quantize_i8(x: f32, inv_scale: f32) -> i8 {
    (x * inv_scale).round_ties_even().clamp(-127.0, 127.0) as i8
}

/// Per-row dynamic quantization of a row-major `[rows, k]` activation
/// block: `qa[r*k + p] = round(a[r*k + p] / scale_r)` with
/// `scale_r = max_p |a[r*k + p]| / 127`. This is the *semantic
/// definition* of activation quantization; the GEMM entry points run
/// the fused [`quantize_rows_quad`], which produces the same bytes
/// (asserted by a unit test) without the intermediate `i8` buffer.
pub fn quantize_rows(a: &[f32], rows: usize, k: usize, qa: &mut Vec<i8>, scales: &mut Vec<f32>) {
    qa.clear();
    qa.resize(rows * k, 0);
    scales.clear();
    scales.resize(rows, 1.0);
    for r in 0..rows {
        let row = &a[r * k..(r + 1) * k];
        let mut max_abs = 0f32;
        for &v in row {
            max_abs = max_abs.max(v.abs());
        }
        let s = int8_scale(max_abs);
        scales[r] = s;
        let inv = 1.0 / s;
        for (q, &v) in qa[r * k..(r + 1) * k].iter_mut().zip(row) {
            *q = quantize_i8(v, inv);
        }
    }
}

/// Scalar body of the fused row quantize: max-abs pass, then quantize
/// each element with [`quantize_i8`] and store it in offset form
/// (`qa + 128`) straight into the row's quad bytes. Returns the row
/// scale.
fn quantize_row_scalar(row: &[f32], dst: &mut [u32]) -> f32 {
    let mut max_abs = 0f32;
    for &v in row {
        max_abs = max_abs.max(v.abs());
    }
    let s = int8_scale(max_abs);
    let inv = 1.0 / s;
    for (p4, slot) in dst.iter_mut().enumerate() {
        let mut bytes = [0x80u8; 4];
        for (t, b) in bytes.iter_mut().enumerate() {
            if let Some(&v) = row.get(4 * p4 + t) {
                *b = (quantize_i8(v, inv) as u8) ^ 0x80;
            }
        }
        *slot = u32::from_le_bytes(bytes);
    }
    s
}

/// AVX-512 body of the fused row quantize: the same IEEE chain
/// (`mul` → round-to-nearest-even → clamp → narrow) 16 lanes at a
/// time, so finite inputs quantize bit-for-bit like the scalar body.
/// `vcvtps2dq` *is* the round-ties-even step (MXCSR default), and the
/// clamp moves to i32 where it is exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn quantize_row_avx512(row: &[f32], dst: &mut [u32]) -> f32 {
    use std::arch::x86_64::*;
    let k = row.len();
    // Safety (whole block): all vector loads/stores stay inside `row`
    // and `dst` (16 f32 in → 16 bytes = 4 u32 out per step).
    unsafe {
        let sign = _mm512_set1_ps(-0.0);
        let mut vmax = _mm512_setzero_ps();
        let mut p = 0;
        while p + 16 <= k {
            let v = _mm512_loadu_ps(row.as_ptr().add(p));
            vmax = _mm512_max_ps(vmax, _mm512_andnot_ps(sign, v));
            p += 16;
        }
        // max is a lattice op on the finite reals: the tree reduction
        // and the scalar sweep agree exactly.
        let mut max_abs = _mm512_reduce_max_ps(vmax);
        for &v in &row[p..] {
            max_abs = max_abs.max(v.abs());
        }
        let s = int8_scale(max_abs);
        let invv = _mm512_set1_ps(1.0 / s);
        let hi = _mm512_set1_epi32(127);
        let lo = _mm512_set1_epi32(-127);
        let off = _mm_set1_epi8(0x80u8 as i8);
        let bytes = dst.as_mut_ptr() as *mut u8;
        let mut p = 0;
        while p + 16 <= k {
            let v = _mm512_loadu_ps(row.as_ptr().add(p));
            let qi = _mm512_cvtps_epi32(_mm512_mul_ps(v, invv));
            let qi = _mm512_max_epi32(_mm512_min_epi32(qi, hi), lo);
            let qb = _mm512_cvtepi32_epi8(qi);
            _mm_storeu_si128(bytes.add(p) as *mut __m128i, _mm_xor_si128(qb, off));
            p += 16;
        }
        let inv = 1.0 / s;
        for (p, &v) in row.iter().enumerate().skip(p) {
            *bytes.add(p) = (quantize_i8(v, inv) as u8) ^ 0x80;
        }
        s
    }
}

/// Fused activation quantization for the int8 GEMM: quantizes a
/// row-major `[rows, k]` block straight into the offset-quad A panel
/// the register tiles broadcast from — `apq[r*k4 + p4]` holds bytes
/// `qa[r][4*p4 + t] + 128` little-endian, rows padded to a multiple of
/// `MR` with all-`0x80` (qa = 0) rows, `k` padded to the quad with
/// `0x80`. Element-for-element this computes exactly [`quantize_rows`]
/// for finite inputs; the fusion removes the intermediate `i8` buffer
/// and the per-row-block repack. Both GEMM entry points (dispatched
/// and reference) read the same panel, so activation quantization can
/// never diverge between them.
pub fn quantize_rows_quad(
    a: &[f32],
    rows: usize,
    k: usize,
    apq: &mut Vec<u32>,
    scales: &mut Vec<f32>,
) {
    let k4 = k.div_ceil(4);
    let rows_pad = rows.div_ceil(MR) * MR;
    apq.clear();
    apq.resize(rows_pad * k4, 0x8080_8080);
    scales.clear();
    scales.resize(rows, 1.0);
    let kern = isa::current();
    for r in 0..rows {
        let row = &a[r * k..(r + 1) * k];
        let dst = &mut apq[r * k4..(r + 1) * k4];
        scales[r] = match kern {
            #[cfg(target_arch = "x86_64")]
            // Safety: `isa::current` never exceeds what the CPU supports.
            Isa::Avx512 | Isa::Avx512Vnni => unsafe { quantize_row_avx512(row, dst) },
            _ => quantize_row_scalar(row, dst),
        };
    }
}

// -------------------------------------------------------------------
// Quantized packed matrices
// -------------------------------------------------------------------

fn check_rank2(b: &Tensor, what: &str) -> Result<(usize, usize)> {
    if b.rank() != 2 {
        return Err(TensorError::Invalid(format!(
            "{what}: expected a rank-2 [k, n] matrix, got {:?}",
            b.shape()
        )));
    }
    Ok((b.shape()[0], b.shape()[1]))
}

/// A `[k, n]` matrix packed once into symmetric-int8 panels in the
/// quad-interleaved strip layout `vpdpbusd` consumes (see the module
/// docs), plus per-column f32 scales and i32 zero-point corrections
/// padded to strip width.
pub struct PackedMatrixInt8 {
    panels: Vec<i8>,
    /// `n_strips * NR` entries; lanes past `n` hold 0.0 and are never
    /// stored to the output (edge tiles land in a stack tile first).
    scales: Vec<f32>,
    /// `n_strips * NR` entries of `128 * sum_p q(B[p][j])` — the exact
    /// integer the VNNI kernel subtracts to undo the `+128` activation
    /// offset. Lanes past `n` hold 0.
    corr: Vec<i32>,
    k: usize,
    n: usize,
    /// `ceil(k / 4)` — quads per strip column.
    k4: usize,
}

impl PackedMatrixInt8 {
    /// Quantize a rank-2 `[k, n]` tensor column-by-column and pack it.
    pub fn pack(b: &Tensor) -> Result<PackedMatrixInt8> {
        let (k, n) = check_rank2(b, "PackedMatrixInt8")?;
        let data = b.data();
        let n_strips = n.div_ceil(NR);
        let k4 = k.div_ceil(4);
        let strip_elems = k4 * NR * 4;
        let mut scales = vec![0f32; n_strips * NR];
        let mut corr = vec![0i32; n_strips * NR];
        let mut panels = vec![0i8; n_strips * strip_elems];
        for j in 0..n {
            let mut max_abs = 0f32;
            for p in 0..k {
                max_abs = max_abs.max(data[p * n + j].abs());
            }
            let s = int8_scale(max_abs);
            scales[j] = s;
            let inv = 1.0 / s;
            let (js, jj) = (j / NR, j % NR);
            let strip = &mut panels[js * strip_elems..(js + 1) * strip_elems];
            let mut colsum = 0i32;
            for p in 0..k {
                let q = quantize_i8(data[p * n + j], inv);
                strip[(p / 4) * NR * 4 + jj * 4 + (p % 4)] = q;
                colsum += q as i32;
            }
            corr[j] = 128 * colsum;
        }
        Ok(PackedMatrixInt8 {
            panels,
            scales,
            corr,
            k,
            n,
            k4,
        })
    }

    pub fn k(&self) -> usize {
        self.k
    }

    pub fn n(&self) -> usize {
        self.n
    }

    /// Per-column symmetric scales (first `n` entries are real, the
    /// rest pad the final strip).
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// Bytes held by panels + scales + corrections (padding included).
    pub fn packed_bytes(&self) -> usize {
        self.panels.len()
            + self.scales.len() * std::mem::size_of::<f32>()
            + self.corr.len() * std::mem::size_of::<i32>()
    }

    /// The `[k, n]` matrix after the quantize→dequantize round trip —
    /// for the `|w − deq(q(w))| ≤ scale/2` error-bound tests.
    pub fn dequantize(&self) -> Result<Tensor> {
        let mut out = vec![0f32; self.k * self.n];
        let strip_elems = self.k4 * NR * 4;
        for j in 0..self.n {
            let (js, jj) = (j / NR, j % NR);
            let strip = &self.panels[js * strip_elems..(js + 1) * strip_elems];
            for p in 0..self.k {
                out[p * self.n + j] =
                    strip[(p / 4) * NR * 4 + jj * 4 + (p % 4)] as f32 * self.scales[j];
            }
        }
        Tensor::from_vec(out, &[self.k, self.n])
    }
}

thread_local! {
    /// Reused whole-block offset-quad activation panel for int8 (built
    /// once per GEMM by [`quantize_rows_quad`], sliced per row block).
    static APANEL_U32: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

// -------------------------------------------------------------------
// int8 GEMM
// -------------------------------------------------------------------

/// Scalar int8 register tile: exact `i8 × i8 → i32` accumulation over
/// the full contraction depth, then the fixed dequantize chain
/// `(acc as f32) * row_scale * col_scale`. This is the reference the
/// VNNI tile must match bitwise — both compute the *same integer*
/// (`sum qa*qb`, the VNNI side via the offset-and-correct identity),
/// and the dequantize is one f32 chain per element. Activations arrive
/// as `u8 = qa + 128` quads so the two tiles share one A panel. Every
/// tile writes a full `MR × NR` block at row stride `cs`;
/// [`gemm_int8`] points ragged ones at a stack tile.
fn int8_tile_scalar(
    ap: &[u32],
    packed: &PackedMatrixInt8,
    strip_off: usize,
    col_scales: &[f32],
    row_scales: &[f32; MR],
    c: &mut [f32],
    cs: usize,
) {
    let k4 = packed.k4;
    let strip = &packed.panels[strip_off..strip_off + k4 * NR * 4];
    let mut acc = [[0i32; NR]; MR];
    for (p4, brow) in strip.chunks_exact(NR * 4).enumerate() {
        for (r, accr) in acc.iter_mut().enumerate() {
            let aq = ap[r * k4 + p4].to_le_bytes();
            for (jj, slot) in accr.iter_mut().enumerate() {
                let bq = &brow[jj * 4..jj * 4 + 4];
                for (t, &b) in bq.iter().enumerate() {
                    *slot += (aq[t] as i32 - 128) * b as i32;
                }
            }
        }
    }
    for (r, accr) in acc.iter().enumerate() {
        let row = &mut c[r * cs..r * cs + NR];
        let sa = row_scales[r];
        for ((slot, &a), &sb) in row.iter_mut().zip(accr.iter()).zip(col_scales.iter()) {
            *slot = a as f32 * sa * sb;
        }
    }
}

/// Full int8 tiles on AVX-512 VNNI: each strip row is the 64 bytes one
/// `vpdpbusd` consumes (16 columns x 4 contraction steps), so a tile
/// does `MR * NR * 4 = 256` multiply-accumulates per loop step against
/// the f32 kernel's 64. The `u8` activation offset is undone by
/// subtracting the packed `128 * colsum` correction — exact integer
/// arithmetic end to end, so the result equals the scalar tile's by
/// construction, and the dequantize multiplies in the same
/// `acc * row_scale * col_scale` order, one rounding per `mul`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512vnni")]
#[allow(clippy::too_many_arguments)]
unsafe fn int8_tile_vnni(
    ap: &[u32],
    packed: &PackedMatrixInt8,
    strip_off: usize,
    col_scales: &[f32],
    col_corr: &[i32],
    row_scales: &[f32; MR],
    c: &mut [f32],
    cs: usize,
) {
    use std::arch::x86_64::*;
    let k4 = packed.k4;
    debug_assert!(
        ap.len() >= MR * k4
            && c.len() >= 3 * cs + NR
            && col_scales.len() >= NR
            && col_corr.len() >= NR
    );
    // Safety (whole block): tile bounds checked above; every strip row
    // is exactly NR*4 = 64 bytes inside a zero-padded strip.
    unsafe {
        let mut acc0 = _mm512_setzero_si512();
        let mut acc1 = _mm512_setzero_si512();
        let mut acc2 = _mm512_setzero_si512();
        let mut acc3 = _mm512_setzero_si512();
        let mut b = packed.panels.as_ptr().add(strip_off);
        for p4 in 0..k4 {
            let bv = _mm512_loadu_si512(b as *const _);
            acc0 = _mm512_dpbusd_epi32(acc0, _mm512_set1_epi32(ap[p4] as i32), bv);
            acc1 = _mm512_dpbusd_epi32(acc1, _mm512_set1_epi32(ap[k4 + p4] as i32), bv);
            acc2 = _mm512_dpbusd_epi32(acc2, _mm512_set1_epi32(ap[2 * k4 + p4] as i32), bv);
            acc3 = _mm512_dpbusd_epi32(acc3, _mm512_set1_epi32(ap[3 * k4 + p4] as i32), bv);
            b = b.add(NR * 4);
        }
        let corr = _mm512_loadu_si512(col_corr.as_ptr() as *const _);
        let sc = _mm512_loadu_ps(col_scales.as_ptr());
        let cp = c.as_mut_ptr();
        for (r, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
            let v = _mm512_cvtepi32_ps(_mm512_sub_epi32(acc, corr));
            let v = _mm512_mul_ps(v, _mm512_set1_ps(row_scales[r]));
            let v = _mm512_mul_ps(v, sc);
            _mm512_storeu_ps(cp.add(r * cs), v);
        }
    }
}

/// AVX2 int8 tile built on `vpmaddubsw`, for hosts without VNNI. A
/// 256-bit load covers half a strip row (8 columns x 4 contraction
/// steps). `vpmaddubsw` multiplies adjacent `u8 x i8` byte pairs into
/// *saturating* i16 lanes, and with offset-u8 activations a pair sum
/// can reach `2 * 255 * 128`, past i16 — saturation would silently
/// break the bitwise contract. So each call sees only **one** live
/// product per i16 lane: the broadcast activation quad is split into
/// its even bytes (`t = 0, 2`) and odd bytes (`t = 1, 3`) with the
/// other half zeroed, bounding every lane by `255 * 128 < 2^15`.
/// `vpmaddwd` against ones then widens the pairs into i32 column dots
/// — exact integer arithmetic end to end, so the tile computes the
/// *same integer* as the scalar reference (via the same
/// offset-and-correct identity as the VNNI tile) and dequantizes in
/// the same `acc * row_scale * col_scale` chain, making the match
/// bitwise.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn int8_tile_avx2(
    ap: &[u32],
    packed: &PackedMatrixInt8,
    strip_off: usize,
    col_scales: &[f32],
    col_corr: &[i32],
    row_scales: &[f32; MR],
    c: &mut [f32],
    cs: usize,
) {
    use std::arch::x86_64::*;
    let k4 = packed.k4;
    debug_assert!(
        ap.len() >= MR * k4
            && c.len() >= 3 * cs + NR
            && col_scales.len() >= NR
            && col_corr.len() >= NR
    );
    // Safety (whole block): tile bounds checked above; every strip row
    // is exactly NR*4 = 64 bytes (two 256-bit halves) of zero-padded
    // panel, and corr/scales slices carry NR = 16 entries.
    unsafe {
        let even = _mm256_set1_epi32(0x00ff_00ff);
        let odd = _mm256_set1_epi32(0xff00_ff00u32 as i32);
        let ones = _mm256_set1_epi16(1);
        let mut acc = [[_mm256_setzero_si256(); 2]; MR];
        let mut b = packed.panels.as_ptr().add(strip_off);
        for p4 in 0..k4 {
            let b_lo = _mm256_loadu_si256(b as *const __m256i);
            let b_hi = _mm256_loadu_si256(b.add(32) as *const __m256i);
            for (r, accr) in acc.iter_mut().enumerate() {
                let av = _mm256_set1_epi32(ap[r * k4 + p4] as i32);
                let a_even = _mm256_and_si256(av, even);
                let a_odd = _mm256_and_si256(av, odd);
                for (slot, bv) in accr.iter_mut().zip([b_lo, b_hi]) {
                    let pe = _mm256_madd_epi16(_mm256_maddubs_epi16(a_even, bv), ones);
                    let po = _mm256_madd_epi16(_mm256_maddubs_epi16(a_odd, bv), ones);
                    *slot = _mm256_add_epi32(*slot, _mm256_add_epi32(pe, po));
                }
            }
            b = b.add(NR * 4);
        }
        let cp = c.as_mut_ptr();
        for (r, accr) in acc.iter().enumerate() {
            let sa = _mm256_set1_ps(row_scales[r]);
            for (half, &hacc) in accr.iter().enumerate() {
                let corr =
                    _mm256_loadu_si256(col_corr.as_ptr().add(8 * half) as *const __m256i);
                let sc = _mm256_loadu_ps(col_scales.as_ptr().add(8 * half));
                let v = _mm256_cvtepi32_ps(_mm256_sub_epi32(hacc, corr));
                let v = _mm256_mul_ps(v, sa);
                let v = _mm256_mul_ps(v, sc);
                _mm256_storeu_ps(cp.add(r * cs + 8 * half), v);
            }
        }
    }
}

/// Row-block walk of the quantized GEMM `c[r0..r1] = qa @ panels`,
/// with one register tile covering the full contraction depth (the
/// i32 accumulators cannot round-trip through f32 between tiles).
/// `apq` is the whole activation block's offset-quad panel from
/// [`quantize_rows_quad`] — row blocks are plain slices of it.
fn gemm_int8(
    apq: &[u32],
    row_scales: &[f32],
    packed: &PackedMatrixInt8,
    c: &mut [f32],
    r0: usize,
    r1: usize,
    kern: Isa,
) {
    let (n, k4) = (packed.n, packed.k4);
    let n_strips = n.div_ceil(NR);
    let mut i0 = r0;
    while i0 < r1 {
        let mr = MR.min(r1 - i0);
        let ap = &apq[i0 * k4..(i0 + MR) * k4];
        let mut sa = [0f32; MR];
        sa[..mr].copy_from_slice(&row_scales[i0..i0 + mr]);
        for js in 0..n_strips {
            let j0 = js * NR;
            let nr = NR.min(n - j0);
            let strip_off = js * k4 * NR * 4;
            let scales = &packed.scales[j0..j0 + NR];
            // A ragged tile (rows past `r1`, columns past `n`) runs the
            // full tile on the padded panels into a stack tile and
            // copies only its live corner out, so the edges keep the
            // vector body; padded lanes never reach `c`.
            let full = mr == MR && nr == NR;
            let mut edge = [0f32; MR * NR];
            let (tile, cs) = if full {
                (&mut c[(i0 - r0) * n + j0..], n)
            } else {
                (&mut edge[..], NR)
            };
            match kern {
                #[cfg(target_arch = "x86_64")]
                // Safety: callers pass a tier the CPU supports.
                Isa::Avx512Vnni => unsafe {
                    let corr = &packed.corr[j0..j0 + NR];
                    int8_tile_vnni(ap, packed, strip_off, scales, corr, &sa, tile, cs)
                },
                #[cfg(target_arch = "x86_64")]
                // Safety: both tiers imply AVX2 (see [`Isa`]).
                Isa::Avx2 | Isa::Avx512 => unsafe {
                    let corr = &packed.corr[j0..j0 + NR];
                    int8_tile_avx2(ap, packed, strip_off, scales, corr, &sa, tile, cs)
                },
                _ => int8_tile_scalar(ap, packed, strip_off, scales, &sa, tile, cs),
            }
            if !full {
                for (r, row) in edge.chunks_exact(NR).take(mr).enumerate() {
                    let at = (i0 - r0 + r) * n + j0;
                    c[at..at + nr].copy_from_slice(&row[..nr]);
                }
            }
        }
        i0 += MR;
    }
}

// -------------------------------------------------------------------
// Entry points
// -------------------------------------------------------------------

/// Split `[0, rows)` into `MR`-aligned chunks, one per pool worker.
/// Rows are independent chains, so the split never changes bits — it
/// only spreads the bandwidth across cores.
fn row_chunks(rows: usize, workers: usize) -> Vec<(usize, usize)> {
    let per = rows.div_ceil(workers).div_ceil(MR) * MR;
    (0..workers)
        .map(|t| (t * per, ((t + 1) * per).min(rows)))
        .filter(|(r0, r1)| r0 < r1)
        .collect()
}

fn run_int8(a: &Tensor, packed: &PackedMatrixInt8, kern: Isa) -> Result<Tensor> {
    let (k, n) = (packed.k, packed.n);
    let (rows, shape) = packed_dims(a, k, n, "matmul_packed_int8")?;
    if rows * n == 0 {
        return Tensor::from_vec(Vec::new(), &shape);
    }
    APANEL_U32.with(|cell| {
        let mut apq = cell.borrow_mut();
        let mut row_scales = Vec::new();
        quantize_rows_quad(a.data(), rows, k, &mut apq, &mut row_scales);
        let mut out = crate::memory::take_scratch(rows * n);
        let threads = stwa_pool::current_threads();
        if kern != Isa::Scalar && rows * n * k >= PARALLEL_FLOP_THRESHOLD && threads > 1 {
            let chunks = row_chunks(rows, threads);
            let out_ptr = SendPtr(out.as_mut_ptr());
            let (apq, row_scales) = (&*apq, &row_scales);
            stwa_pool::parallel_for(chunks.len(), |t| {
                let (r0, r1) = chunks[t];
                // Safety: chunks cover disjoint row ranges; the pool
                // joins before `out` is consumed.
                let c = unsafe {
                    std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n)
                };
                gemm_int8(apq, row_scales, packed, c, r0, r1, kern);
            });
        } else {
            gemm_int8(&apq, &row_scales, packed, &mut out, 0, rows, kern);
        }
        Tensor::from_vec(out, &shape)
    })
}

/// `a @ packed` over symmetric-int8 panels with dynamic per-row
/// activation quantization. Runtime-dispatched; bitwise equal to
/// [`matmul_packed_int8_reference`] at any shape and thread count.
pub fn matmul_packed_int8_lean(a: &Tensor, packed: &PackedMatrixInt8) -> Result<Tensor> {
    run_int8(a, packed, isa::current())
}

/// The scalar reference for [`matmul_packed_int8_lean`] — always the
/// scalar tile, always single-threaded.
pub fn matmul_packed_int8_reference(a: &Tensor, packed: &PackedMatrixInt8) -> Result<Tensor> {
    run_int8(a, packed, Isa::Scalar)
}

/// Forced-AVX2 int8 entry point — a test hook so hosts that dispatch
/// to VNNI still exercise the `vpmaddubsw` tile's bitwise contract.
/// Returns `None` when the host lacks AVX2.
#[doc(hidden)]
pub fn matmul_packed_int8_avx2(a: &Tensor, packed: &PackedMatrixInt8) -> Option<Result<Tensor>> {
    (isa::detected() >= Isa::Avx2).then(|| run_int8(a, packed, Isa::Avx2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn int8_round_trip_error_is_bounded_by_half_scale() {
        let mut rng = StdRng::seed_from_u64(7);
        let w = Tensor::randn(&[37, 21], &mut rng);
        let packed = PackedMatrixInt8::pack(&w).unwrap();
        let deq = packed.dequantize().unwrap();
        let (k, n) = (37, 21);
        for j in 0..n {
            let s = packed.scales()[j];
            for p in 0..k {
                let err = (w.data()[p * n + j] - deq.data()[p * n + j]).abs();
                assert!(err <= s * 0.5 + 1e-12, "col {j}: err {err} vs scale {s}");
            }
        }
    }

    #[test]
    fn quantized_matmuls_match_their_dequantized_f32_products() {
        // The int8 kernel must equal an f32 product over the *doubly*
        // dequantized operands up to f32 reassociation.
        let mut rng = StdRng::seed_from_u64(11);
        let a = Tensor::randn(&[5, 33], &mut rng);
        let w = Tensor::randn(&[33, 18], &mut rng);

        let q = PackedMatrixInt8::pack(&w).unwrap();
        let got = matmul_packed_int8_lean(&a, &q).unwrap();
        let mut qa = Vec::new();
        let mut sa = Vec::new();
        quantize_rows(a.data(), 5, 33, &mut qa, &mut sa);
        for (r, row) in got.data().chunks_exact(18).enumerate() {
            for (j, &g) in row.iter().enumerate() {
                let mut acc = 0i64;
                for p in 0..33 {
                    let bq = (q.dequantize().unwrap().data()[p * 18 + j] / q.scales()[j])
                        .round() as i64;
                    acc += qa[r * 33 + p] as i64 * bq;
                }
                let want = acc as f32 * sa[r] * q.scales()[j];
                assert!(
                    (g - want).abs() <= want.abs().max(1.0) * 1e-6,
                    "({r},{j}): {g} vs {want}"
                );
            }
        }
    }

    /// Under each ceiling the dispatched entry takes that tier's tile
    /// and row quantizer (scalar, `vpmaddubsw`, `vpmaddubsw` behind the
    /// AVX-512 quantizer, `vpdpbusd`); all of them must land on the bits
    /// of the reference computed with everything at the scalar tier.
    #[test]
    fn dispatched_kernels_match_scalar_reference_bitwise() {
        let mut rng = StdRng::seed_from_u64(3);
        let cases: Vec<_> = [(1, 16, 16), (4, 300, 48), (7, 33, 17), (64, 257, 130)]
            .into_iter()
            .map(|(m, k, n)| {
                let a = Tensor::randn(&[m, k], &mut rng);
                let q = PackedMatrixInt8::pack(&Tensor::randn(&[k, n], &mut rng)).unwrap();
                let want = isa::with_ceiling(Isa::Scalar, || {
                    matmul_packed_int8_reference(&a, &q).unwrap()
                });
                (a, q, want)
            })
            .collect();
        isa::for_each_ceiling("quant int8 tiles", |cap| {
            for (a, q, want) in &cases {
                assert_eq!(
                    matmul_packed_int8_lean(a, q).unwrap().data(),
                    want.data(),
                    "int8 {cap:?} {:?}",
                    a.shape()
                );
            }
        });
    }

    /// The `vpmaddubsw` tile's one failure mode is i16 saturation; the
    /// even/odd byte split must make it unreachable even at the numeric
    /// extremes — full-scale weights (`q = ±127/-128` after rounding)
    /// against full-scale activations (`u8 = 255/1`), the inputs that
    /// maximize `|u8 * i8|` products of the same sign back to back.
    #[test]
    fn avx2_int8_tile_is_exact_at_saturation_extremes() {
        let Some(probe) = matmul_packed_int8_avx2(
            &Tensor::zeros(&[1, 4]),
            &PackedMatrixInt8::pack(&Tensor::zeros(&[4, 1])).unwrap(),
        ) else {
            eprintln!("skipping: host has no AVX2");
            return;
        };
        probe.unwrap();
        for k in [1, 2, 3, 4, 5, 7, 8, 63, 64, 65, 257] {
            for n in [1, 15, 16, 17, 33] {
                for m in [1, 3, 4, 5] {
                    // Same-sign products at every position: +max * +max
                    // and -max * -max both push the pair sums positive.
                    let a = Tensor::from_fn(&[m, k], |idx| {
                        if (idx[0] + idx[1]) % 2 == 0 { 10.0 } else { -10.0 }
                    });
                    let w = Tensor::from_fn(&[k, n], |idx| {
                        if (idx[0] + idx[1]) % 2 == 0 { 3.0 } else { -3.0 }
                    });
                    let q = PackedMatrixInt8::pack(&w).unwrap();
                    let got = matmul_packed_int8_avx2(&a, &q).unwrap().unwrap();
                    let want = matmul_packed_int8_reference(&a, &q).unwrap();
                    assert_eq!(got.data(), want.data(), "{m}x{k}x{n}");
                }
            }
        }
    }

    #[test]
    fn quantized_packs_reject_non_matrices() {
        let t = Tensor::zeros(&[3]);
        assert!(PackedMatrixInt8::pack(&t).is_err());
        let a = Tensor::zeros(&[2, 3]);
        let w = Tensor::zeros(&[4, 5]);
        assert!(matmul_packed_int8_lean(&a, &PackedMatrixInt8::pack(&w).unwrap()).is_err());
    }

    #[test]
    fn fused_quad_quantize_matches_quantize_rows() {
        let mut rng = StdRng::seed_from_u64(9);
        for (rows, k) in [(1usize, 1usize), (3, 7), (4, 16), (11, 130), (6, 48)] {
            let a = Tensor::randn(&[rows, k], &mut rng);
            let mut qa = Vec::new();
            let mut s_ref = Vec::new();
            quantize_rows(a.data(), rows, k, &mut qa, &mut s_ref);
            let mut apq = Vec::new();
            let mut s_quad = Vec::new();
            quantize_rows_quad(a.data(), rows, k, &mut apq, &mut s_quad);
            assert_eq!(s_ref, s_quad, "{rows}x{k} scales");
            let k4 = k.div_ceil(4);
            assert_eq!(apq.len(), rows.div_ceil(MR) * MR * k4);
            for r in 0..rows {
                for p4 in 0..k4 {
                    let bytes = apq[r * k4 + p4].to_le_bytes();
                    for (t, &b) in bytes.iter().enumerate() {
                        let p = 4 * p4 + t;
                        let want = if p < k { qa[r * k + p] } else { 0 };
                        assert_eq!(b ^ 0x80, want as u8, "({rows},{k}) row {r} p {p}");
                    }
                }
            }
            // Padding rows are all-zero quants.
            for &quad in &apq[rows * k4..] {
                assert_eq!(quad, 0x8080_8080);
            }
        }
    }

    #[test]
    #[ignore = "manual perf probe: cargo test --release -p stwa-tensor quant -- --ignored --nocapture"]
    fn perf_probe_quantized_gemm() {
        let mut rng = StdRng::seed_from_u64(5);
        for (m, k, n) in [(3072usize, 512usize, 512usize), (3072, 64, 2048), (64, 512, 512)] {
            let a = Tensor::randn(&[m, k], &mut rng);
            let w = Tensor::randn(&[k, n], &mut rng);
            let pf = linalg::PackedMatrix::pack(&w).unwrap();
            let q = PackedMatrixInt8::pack(&w).unwrap();
            let time = |f: &mut dyn FnMut()| {
                for _ in 0..2 {
                    f();
                }
                let t0 = std::time::Instant::now();
                for _ in 0..8 {
                    f();
                }
                t0.elapsed().as_secs_f64() * 1e3 / 8.0
            };
            let tf = time(&mut || {
                std::hint::black_box(
                    linalg::matmul_packed(&a, &pf, linalg::Epilogue::NONE).unwrap(),
                );
            });
            let ti = time(&mut || {
                std::hint::black_box(matmul_packed_int8_lean(&a, &q).unwrap());
            });
            let mut qa = Vec::new();
            let mut sa = Vec::new();
            let tq = time(&mut || {
                quantize_rows(std::hint::black_box(a.data()), m, k, &mut qa, &mut sa);
            });
            println!(
                "{m}x{k}x{n}: f32 {tf:.3} ms  int8 {ti:.3} ms ({:.2}x)  \
                 [quantize_rows {tq:.3} ms]",
                tf / ti
            );
        }
    }

    #[test]
    fn packed_bytes_shrink_with_precision() {
        let mut rng = StdRng::seed_from_u64(4);
        let w = Tensor::randn(&[256, 64], &mut rng);
        let f32_bytes = linalg::PackedMatrix::pack(&w).unwrap().packed_bytes();
        let int8_bytes = PackedMatrixInt8::pack(&w).unwrap().packed_bytes();
        assert!(int8_bytes * 3 < f32_bytes, "{int8_bytes} vs {f32_bytes}");
    }
}
