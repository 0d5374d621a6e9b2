//! Branch-free transcendental kernels for the elementwise hot loops.
//!
//! `libm`'s `expf`/`tanhf` are accurate to <1 ulp but cost ~5-10 ns per
//! scalar call and, being opaque function calls with internal branches,
//! block auto-vectorization of every loop that uses them — the gate
//! activations, the attention softmax, and the GRU/LSTM baselines all
//! bottleneck on them at serving batch sizes. The kernels here trade
//! ~2-3 ulp of accuracy (relative error ≤ 3e-7, see the tests) for
//! straight-line arithmetic that LLVM can keep in registers and
//! vectorize: a magic-number round, an exponent-bit reconstruction, and
//! a degree-7 polynomial. The `*_slice` variants run the same chain
//! 16 lanes at a time with explicit AVX-512 intrinsics (bitwise equal
//! lane for lane — see the slice-kernel tests).
//!
//! They are **deterministic** (pure float arithmetic, no flags, no
//! tables) and are used by *every* forward path — graph and frozen — so
//! the bitwise contract between training eval and the inference engine
//! is unaffected. The golden-run constant was
//! re-derived when these kernels replaced `libm` (see
//! `tests/golden_run.rs`).

use crate::isa::{self, Isa};

/// Fast `exp(x)`: max relative error ≤ 3e-7 over the finite range,
/// `+inf` above ~88.72 (like libm), min-normal flush in the deep
/// negative tail.
// The long literals are deliberate: `0.693_359_375` is the exact
// decimal of 355/512 and the Cephes coefficients are quoted verbatim;
// both round to the intended f32 bits.
#[allow(clippy::excessive_precision)]
#[inline(always)]
pub fn exp_f32(x: f32) -> f32 {
    // exp(x) = 2^k * e^f with k = round(x*log2(e)) and f = x - k*ln2.
    // f is recovered from x by Cody-Waite two-constant subtraction:
    // LN2_HI carries 9 mantissa bits, so k*LN2_HI is exact for |k| <=
    // 128 and the product's rounding error never leaks into f — a
    // single-step `f = z - k` reduction drifts by |x|*2^-24*ln2, which
    // is 6e-6 relative by x = 64.
    const LOG2_E: f32 = std::f32::consts::LOG2_E;
    const MAGIC: f32 = 12_582_912.0; // 1.5 * 2^23
    const LN2_HI: f32 = 0.693_359_375; // 355/512, exact in f32
    const LN2_LO: f32 = -2.121_944_4e-4; // ln2 - LN2_HI
    // Clamp to [ln(2^-126), ln(2^128)]: k stays in [-126, 128], the
    // top end overflows cleanly to +inf via the exponent-bit build
    // below, and the bottom pins at the smallest normal (~1.2e-38).
    let x = x.clamp(-87.336_54, 88.722_84);
    let r = x * LOG2_E + MAGIC;
    let kf = r - MAGIC; // round(x * log2(e))
    let f = (x - kf * LN2_HI) - kf * LN2_LO; // in [-0.3467, 0.3467]
    // Degree-7 minimax polynomial for e^f (Cephes expf coefficients).
    let mut p = 1.987_569_2e-4;
    p = p * f + 1.398_199_9e-3;
    p = p * f + 8.333_452e-3;
    p = p * f + 4.166_579_6e-2;
    p = p * f + 0.166_666_65;
    p = p * f + 0.500_000_01;
    let p = p * f * f + f + 1.0;
    // r = 2^23 + 2^22 + k exactly, so k sits in r's low mantissa bits:
    // building 2^k straight from them keeps the whole function in
    // integer/float ALU ops (no fptosi), which lets LLVM vectorize it.
    let k_plus_bias = (r.to_bits() & 0x7F_FFFF).wrapping_sub(0x40_0000 - 127);
    f32::from_bits(k_plus_bias << 23) * p
}

/// Fast `tanh(x)`: max absolute error ≤ 4e-7, exact ±1 saturation for
/// `|x| ≥ 10`, odd symmetry by construction.
#[inline(always)]
pub fn tanh_f32(x: f32) -> f32 {
    // tanh(x) = (e - 1) / (e + 1) with e = exp(2x); the clamp keeps
    // exp_f32 in range and pins the tails to exactly +/-1 (f32 tanh
    // saturates at |x| >= 9.011).
    let e = exp_f32((2.0 * x).clamp(-21.0, 21.0));
    (e - 1.0) / (e + 1.0)
}

/// Fast logistic sigmoid `1 / (1 + exp(-x))`, the scalar expression the
/// fused and unfused activation paths share.
#[inline(always)]
pub fn sigmoid_f32(x: f32) -> f32 {
    1.0 / (1.0 + exp_f32(-x))
}

// -------------------------------------------------------------------
// Wide slice kernels
// -------------------------------------------------------------------
//
// The elementwise hot loops (softmax rows, gate activations, dense
// activations) spend most of their time in the scalar kernels above.
// These in-place slice variants run the *same operation sequence* with
// 512-bit intrinsics — separate `vmulps`/`vaddps` (no FMA contraction),
// `vminps`/`vmaxps` for the clamp, the same integer exponent-bit build
// — so every lane rounds exactly like the scalar chain and the outputs
// are **bitwise identical** for all non-NaN inputs. A NaN input comes
// out NaN on both paths: `vminps`/`vmaxps` return their *second*
// operand when either is NaN, so the clamps pass the bound first and
// the value second, which is `f32::clamp`'s NaN-propagating behaviour
// (a softmax row holding `+inf` shifts to `inf − inf`, and which lane
// that lands in must not decide the row). Tails and non-AVX-512 hosts
// take the scalar kernel, which is the same function.

/// `x[i] = exp_f32(x[i])` over the whole slice.
pub fn exp_slice(xs: &mut [f32]) {
    exp_sub_slice(xs, 0.0);
}

/// `x[i] = exp_f32(x[i] - m)` — the softmax inner loop (`m` is the row
/// max; `m = 0` gives plain `exp`). The subtraction happens lane-wise
/// before the same exp chain, exactly like the scalar loop it replaces.
pub fn exp_sub_slice(xs: &mut [f32], m: f32) {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx512 {
        // Safety: the tier implies AVX-512F.
        unsafe { exp_sub_slice_avx512(xs, m) };
        return;
    }
    for x in xs.iter_mut() {
        *x = exp_f32(*x - m);
    }
}

/// `x[i] = tanh_f32(x[i])` over the whole slice.
pub fn tanh_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx512 {
        // Safety: the tier implies AVX-512F.
        unsafe { tanh_slice_avx512(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = tanh_f32(*x);
    }
}

/// `x[i] = sigmoid_f32(x[i])` over the whole slice.
pub fn sigmoid_slice(xs: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if isa::current() >= Isa::Avx512 {
        // Safety: the tier implies AVX-512F.
        unsafe { sigmoid_slice_avx512(xs) };
        return;
    }
    for x in xs.iter_mut() {
        *x = sigmoid_f32(*x);
    }
}

#[cfg(target_arch = "x86_64")]
pub(crate) mod wide {
    use std::arch::x86_64::*;

    /// 16-lane [`super::exp_f32`]: the identical op sequence — clamp,
    /// magic-round, Cody-Waite reduction, degree-7 Horner with separate
    /// mul/add, exponent bits from the magic sum — one `vmulps` /
    /// `vaddps` per scalar mul/add.
    #[allow(clippy::excessive_precision)] // same literals as `exp_f32`
    #[inline(always)]
    pub(crate) unsafe fn exp_v16(x: __m512) -> __m512 {
        unsafe {
            // Bound first, value second: NaN propagates (see above).
            let x = _mm512_max_ps(
                _mm512_set1_ps(-87.336_54),
                _mm512_min_ps(_mm512_set1_ps(88.722_84), x),
            );
            let magic = _mm512_set1_ps(12_582_912.0);
            let r = _mm512_add_ps(
                _mm512_mul_ps(x, _mm512_set1_ps(std::f32::consts::LOG2_E)),
                magic,
            );
            let kf = _mm512_sub_ps(r, magic);
            let f = _mm512_sub_ps(
                _mm512_sub_ps(x, _mm512_mul_ps(kf, _mm512_set1_ps(0.693_359_375))),
                _mm512_mul_ps(kf, _mm512_set1_ps(-2.121_944_4e-4)),
            );
            let mut p = _mm512_set1_ps(1.987_569_2e-4);
            p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(1.398_199_9e-3));
            p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(8.333_452e-3));
            p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(4.166_579_6e-2));
            p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(0.166_666_65));
            p = _mm512_add_ps(_mm512_mul_ps(p, f), _mm512_set1_ps(0.500_000_01));
            let p = _mm512_add_ps(
                _mm512_add_ps(_mm512_mul_ps(_mm512_mul_ps(p, f), f), f),
                _mm512_set1_ps(1.0),
            );
            let kb = _mm512_sub_epi32(
                _mm512_and_si512(_mm512_castps_si512(r), _mm512_set1_epi32(0x7F_FFFF)),
                _mm512_set1_epi32(0x40_0000 - 127),
            );
            _mm512_mul_ps(_mm512_castsi512_ps(_mm512_slli_epi32(kb, 23)), p)
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn exp_sub_slice_avx512(xs: &mut [f32], m: f32) {
    use std::arch::x86_64::*;
    // Safety (whole body): pointer arithmetic stays within `xs`;
    // unaligned load/store intrinsics have no alignment requirement.
    unsafe {
        let mv = _mm512_set1_ps(m);
        let mut chunks = xs.chunks_exact_mut(16);
        for c in &mut chunks {
            debug_assert_eq!(c.len(), 16, "exp_sub_slice_avx512: one zmm per chunk");
            let v = _mm512_loadu_ps(c.as_ptr());
            _mm512_storeu_ps(c.as_mut_ptr(), wide::exp_v16(_mm512_sub_ps(v, mv)));
        }
        for x in chunks.into_remainder() {
            *x = exp_f32(*x - m);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn tanh_slice_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    // Safety: see `exp_sub_slice_avx512`.
    unsafe {
        let mut chunks = xs.chunks_exact_mut(16);
        for c in &mut chunks {
            debug_assert_eq!(c.len(), 16, "tanh_slice_avx512: one zmm per chunk");
            let x = _mm512_loadu_ps(c.as_ptr());
            // (2x).clamp(-21, 21), then (e - 1) / (e + 1) — op for op
            // the scalar `tanh_f32`.
            let t = _mm512_max_ps(
                _mm512_set1_ps(-21.0),
                _mm512_min_ps(
                    _mm512_set1_ps(21.0),
                    _mm512_mul_ps(_mm512_set1_ps(2.0), x),
                ),
            );
            let e = wide::exp_v16(t);
            let one = _mm512_set1_ps(1.0);
            let y = _mm512_div_ps(_mm512_sub_ps(e, one), _mm512_add_ps(e, one));
            _mm512_storeu_ps(c.as_mut_ptr(), y);
        }
        for x in chunks.into_remainder() {
            *x = tanh_f32(*x);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn sigmoid_slice_avx512(xs: &mut [f32]) {
    use std::arch::x86_64::*;
    // Safety: see `exp_sub_slice_avx512`.
    unsafe {
        let mut chunks = xs.chunks_exact_mut(16);
        for c in &mut chunks {
            debug_assert_eq!(c.len(), 16, "sigmoid_slice_avx512: one zmm per chunk");
            let x = _mm512_loadu_ps(c.as_ptr());
            // `-x` is a sign-bit flip (exact, like the scalar negation),
            // then 1 / (1 + exp(-x)).
            let nx = _mm512_xor_ps(x, _mm512_set1_ps(-0.0));
            let one = _mm512_set1_ps(1.0);
            let y = _mm512_div_ps(one, _mm512_add_ps(one, wide::exp_v16(nx)));
            _mm512_storeu_ps(c.as_mut_ptr(), y);
        }
        for x in chunks.into_remainder() {
            *x = sigmoid_f32(*x);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exp_matches_libm_to_three_ulp_ish() {
        // Sweep the range that matters for activations and softmax
        // shifts (softmax feeds x - max <= 0, gates feed |x| < ~30).
        let mut worst = 0.0f64;
        let mut at = 0.0f32;
        for i in -80_000..=80_000 {
            let x = i as f32 * 1e-3;
            let got = exp_f32(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            if rel > worst {
                worst = rel;
                at = x;
            }
        }
        assert!(worst <= 3e-7, "exp rel err {worst:.2e} at {at}");
    }

    #[test]
    fn tanh_matches_libm_and_saturates_exactly() {
        let mut worst = 0.0f64;
        for i in -30_000..=30_000 {
            let x = i as f32 * 1e-3;
            let got = tanh_f32(x) as f64;
            let want = (x as f64).tanh();
            let abs = (got - want).abs();
            if abs > worst {
                worst = abs;
            }
        }
        assert!(worst <= 4e-7, "tanh abs err {worst:.2e}");
        assert_eq!(tanh_f32(15.0), 1.0);
        assert_eq!(tanh_f32(-15.0), -1.0);
        assert_eq!(tanh_f32(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        assert_eq!(sigmoid_f32(0.0), 0.5);
        for i in -200..=200 {
            let x = i as f32 * 0.5;
            let y = sigmoid_f32(x);
            assert!((0.0..=1.0).contains(&y), "sigmoid({x}) = {y}");
        }
        // Deep tails saturate cleanly instead of returning NaN.
        assert_eq!(sigmoid_f32(200.0), 1.0);
        assert_eq!(sigmoid_f32(-200.0), 0.0);
    }

    #[test]
    fn slice_kernels_bitwise_match_scalar() {
        // Sweep finite values across the whole useful range plus the
        // clamp edges, exact bounds, zeros, denormals, and infinities —
        // every lane position of the 16-wide kernel and the scalar
        // tail must reproduce the scalar kernels bit for bit.
        let mut xs: Vec<f32> = (-40_000..=40_000).map(|i| i as f32 * 2.3e-3).collect();
        xs.extend_from_slice(&[
            0.0,
            -0.0,
            88.722_84,
            -87.336_54,
            100.0,
            -100.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            1e-40,
            -1e-40,
            21.0,
            -21.0,
            10.5,
        ]);
        // Under every ceiling the host supports: below AVX-512 the slice
        // kernels *are* the scalar loop, at and above it the wide arm.
        crate::isa::for_each_ceiling("mathfn slice kernels", |_| {
            for f in [0usize, 1, 7, 15] {
                // Offset the slice start so tails of every length are hit.
                let src = &xs[f..];
                let mut e = src.to_vec();
                exp_sub_slice(&mut e, 0.25);
                let mut t = src.to_vec();
                tanh_slice(&mut t);
                let mut s = src.to_vec();
                sigmoid_slice(&mut s);
                for (i, &x) in src.iter().enumerate() {
                    assert_eq!(e[i].to_bits(), exp_f32(x - 0.25).to_bits(), "exp at {x}");
                    assert_eq!(t[i].to_bits(), tanh_f32(x).to_bits(), "tanh at {x}");
                    assert_eq!(s[i].to_bits(), sigmoid_f32(x).to_bits(), "sigmoid at {x}");
                }
            }
            // NaN stays NaN in every lane position, wide or tail.
            for len in [1usize, 16, 17, 40] {
                for at in [0, len / 2, len - 1] {
                    let mut src = vec![0.5f32; len];
                    src[at] = f32::NAN;
                    for kernel in [exp_slice, tanh_slice, sigmoid_slice] {
                        let mut out = src.clone();
                        kernel(&mut out);
                        for (i, y) in out.iter().enumerate() {
                            assert_eq!(y.is_nan(), i == at, "len {len}, NaN at {at}, lane {i}");
                        }
                    }
                }
            }
        });
        let mut p = vec![0.0f32, 1.0, -1.0];
        exp_slice(&mut p);
        assert_eq!(p[0].to_bits(), exp_f32(0.0).to_bits());
        assert_eq!(p[1].to_bits(), exp_f32(1.0).to_bits());
        assert_eq!(p[2].to_bits(), exp_f32(-1.0).to_bits());
    }

    #[test]
    fn kernels_are_deterministic() {
        for i in 0..1000 {
            let x = (i as f32).sin() * 20.0;
            assert_eq!(exp_f32(x).to_bits(), exp_f32(x).to_bits());
            assert_eq!(tanh_f32(x).to_bits(), tanh_f32(x).to_bits());
        }
    }
}
