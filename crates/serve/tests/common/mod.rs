//! Helpers shared by the serving test binaries: the small model they
//! serve, deterministic observation frames, a client-side mirror of the
//! server's rolling window, and the direct evaluation every served
//! forecast is checked against bit for bit.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_core::{StwaConfig, StwaModel};
use stwa_infer::InferSession;
use stwa_tensor::Tensor;

pub const N: usize = 3;
const H: usize = 12;
const U: usize = 4;

pub fn model(seed: u64) -> StwaModel {
    let mut rng = StdRng::seed_from_u64(seed);
    StwaModel::new(StwaConfig::st_wa(N, H, U), &mut rng).unwrap()
}

/// Deterministic observation frame for step `t`.
pub fn frame(t: usize, n: usize, f: usize) -> Vec<f32> {
    (0..n * f)
        .map(|i| ((t * 31 + i * 7) % 23) as f32 * 0.125 - 1.0)
        .collect()
}

/// Client-side mirror of the server's rolling window: shift one step,
/// append `frame` at the end for every sensor.
pub fn apply_frame(window: &mut [f32], frame: &[f32], n: usize, h: usize, f: usize) {
    for s in 0..n {
        let row = &mut window[s * h * f..(s + 1) * h * f];
        row.copy_within(f.., 0);
        row[(h - 1) * f..].copy_from_slice(&frame[s * f..(s + 1) * f]);
    }
}

/// Direct evaluation of `window` on `session`, sliced to one sensor
/// and horizon — the ground truth every served forecast must match.
pub fn direct_eval(
    session: &InferSession,
    window: &[f32],
    n: usize,
    h: usize,
    f: usize,
    sensor: usize,
    horizon: usize,
) -> Vec<f32> {
    let x = Tensor::from_vec(window.to_vec(), &[1, n, h, f]).unwrap();
    let out = session.run(&x).unwrap(); // [1, N, U, F]
    let u = out.shape()[2];
    let start = sensor * u * f;
    out.data()[start..start + horizon * f].to_vec()
}

pub fn observe_body(frame: &[f32]) -> Vec<u8> {
    let items: Vec<String> = frame.iter().map(|v| format!("{}", *v as f64)).collect();
    format!("{{\"frame\": [{}]}}", items.join(", ")).into_bytes()
}

pub fn assert_bitwise(got: &[f32], want: &[f32], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (a, b)) in got.iter().zip(want).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: value {i}: {a} vs {b}");
    }
}
