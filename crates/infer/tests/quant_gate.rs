//! End-to-end accuracy gates for quantized frozen serving.
//!
//! The quantized paths give up bitwise equality with the training
//! graph, so this suite pins what they promise instead (DESIGN.md §14):
//! a frozen-at-f32 session still *is* bitwise the graph eval (the
//! precision plumbing must be invisible at `Precision::F32`), and the
//! int8 session tracks the f32 session's forecasts within a checked-in
//! MAE budget on a deterministic model + request. The same threshold
//! gates `bench_infer` at serving scale.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_core::{StwaConfig, StwaModel};
use stwa_infer::{InferSession, Precision};
use stwa_tensor::Tensor;

/// Forecast-MAE budget (normalized units) for the int8 session against
/// the f32 frozen session. A deliberately loose multiple of the
/// measured delta (~9e-5 at serving scale) so the gate trips on real
/// regressions, not on noise.
const MAE_GATE_INT8: f64 = 0.08;

/// [`int8_forecasts_keep_their_recorded_bits`]' checksums, recorded on
/// commit 1e1fb0b (whole-tensor decoder products), re-derived when the
/// f32 contractions around the int8 products began to fuse each term,
/// and again when the layer bodies' gate and sensor-correlation weights
/// stayed f32 at int8 (the values the previous engine computes with
/// those two weights packed at f32).
const RECORDED_INT8: [u64; 4] = [
    0x2a4e_fc57_228b_ea9f,
    0x4643_bcf6_7911_ad0f,
    0x4ad0_5545_40e8_35a3,
    0x2c32_7b5a_0339_0708,
];

const SENSORS: usize = 12;
const HISTORY: usize = 12;
const HORIZON: usize = 3;

fn mae(a: &Tensor, b: &Tensor) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data().iter())
        .map(|(p, q)| (p - q).abs() as f64)
        .sum::<f64>()
        / a.len() as f64
}

fn model_and_request() -> (StwaModel, Tensor) {
    let mut rng = StdRng::seed_from_u64(33);
    let model =
        StwaModel::new(StwaConfig::st_wa(SENSORS, HISTORY, HORIZON), &mut rng).expect("model");
    let x = Tensor::randn(&[4, SENSORS, HISTORY, 1], &mut rng);
    (model, x)
}

#[test]
fn freezing_at_f32_is_bitwise_the_default_freeze() {
    let (model, x) = model_and_request();
    let plain = InferSession::new(&model).expect("freeze");
    let at_f32 = InferSession::new_at(&model, Precision::F32).expect("freeze_at");
    assert_eq!(plain.precision(), Precision::F32);
    assert_eq!(at_f32.precision(), Precision::F32);
    assert_eq!(
        plain.run(&x).expect("run").data(),
        at_f32.run(&x).expect("run").data(),
        "Precision::F32 must be the identity on the frozen path"
    );
}

#[test]
fn quantized_forecasts_stay_within_their_mae_gate() {
    let (model, x) = model_and_request();
    let base = InferSession::new(&model)
        .expect("freeze")
        .run(&x)
        .expect("f32 forward");
    let session = InferSession::new_at(&model, Precision::Int8).expect("freeze_at");
    assert_eq!(session.precision(), Precision::Int8);
    let pred = session.run(&x).expect("quantized forward");
    assert_eq!(pred.shape(), base.shape());
    assert!(pred.data().iter().all(|v| v.is_finite()));
    let delta = mae(&base, &pred);
    assert!(
        delta <= MAE_GATE_INT8,
        "int8: forecast MAE {delta} exceeds the {MAE_GATE_INT8} gate"
    );
}

#[test]
fn int8_session_actually_quantizes_and_shrinks() {
    let (model, x) = model_and_request();
    let f32_session = InferSession::new(&model).expect("freeze");
    let int8_session = InferSession::new_at(&model, Precision::Int8).expect("freeze int8");
    // Smaller panels...
    assert!(
        int8_session.frozen().packed_bytes() * 2 < f32_session.frozen().packed_bytes(),
        "int8 panels did not shrink: {} vs {}",
        int8_session.frozen().packed_bytes(),
        f32_session.frozen().packed_bytes()
    );
    // ...and genuinely different arithmetic: an int8 forward that is
    // bitwise the f32 forward means the precision never reached the
    // kernels.
    let delta = mae(
        &f32_session.run(&x).expect("f32"),
        &int8_session.run(&x).expect("int8"),
    );
    assert!(delta > 0.0, "int8 forward is bitwise f32 — nothing quantized");
}

#[test]
fn quantized_batching_is_row_exact() {
    // Batching must stay exact at reduced precision: row i of a
    // batched forward equals that row served alone, bitwise, because
    // row quantization is per-row and panels are shared.
    let (model, x) = model_and_request();
    let session = InferSession::new_at(&model, Precision::Int8).expect("freeze");
    assert_eq!(session.precision(), Precision::Int8);
    let batched = session.run(&x).expect("batched run");
    for i in 0..x.shape()[0] {
        let row = x.narrow(0, i, 1).expect("row");
        let want = session.run(&row).expect("solo run");
        let got = batched.narrow(0, i, 1).expect("batched row");
        assert_eq!(got.data(), want.data(), "row {i} diverged under batching");
    }
}

/// FNV-1a over a forecast's f32 bits.
fn checksum(t: &Tensor) -> u64 {
    let bytes: Vec<u8> = t
        .data()
        .iter()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    stwa_ckpt::fnv1a64(&bytes)
}

#[test]
fn int8_forecasts_keep_their_recorded_bits() {
    // Recorded before the decoder's last layer moved from one
    // whole-tensor product to a walk over sensor blocks. Row
    // quantization is per row, so the block walk may not move a bit —
    // at sensor counts below, at and off multiples of the block.
    let cases: [(StwaConfig, usize, u64); 4] = [
        (StwaConfig::st_wa(12, 12, 3), 4, RECORDED_INT8[0]),
        (StwaConfig::st_wa(33, 12, 3), 1, RECORDED_INT8[1]),
        (
            StwaConfig::st_wa(70, 12, 3).with_flow(2),
            3,
            RECORDED_INT8[2],
        ),
        (
            StwaConfig::st_wa(37, 12, 3).with_generated_sca(),
            2,
            RECORDED_INT8[3],
        ),
    ];
    for (i, (config, batch, want)) in cases.into_iter().enumerate() {
        let n = config.n;
        let mut rng = StdRng::seed_from_u64(61 + i as u64);
        let model = StwaModel::new(config, &mut rng).expect("model");
        let x = Tensor::randn(&[batch, n, HISTORY, 1], &mut rng);
        let session = InferSession::new_at(&model, Precision::Int8).expect("freeze int8");
        let got = checksum(&session.run(&x).expect("int8 forward"));
        assert_eq!(got, want, "case {i} (N = {n}) moved: {got:#018x}");
    }
}
