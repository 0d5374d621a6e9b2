//! The lazy decoder's memory claims: a serving-width forward no longer
//! holds the decoded `[N, 2·F·d]` projections (nor their K / V halves)
//! of any layer, and it holds one layer's `[N, m2]` decoder head at a
//! time, not every layer's.
//!
//! It reads the process-global `memory::peak_bytes()` high-water mark,
//! so it is the only test in its binary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_core::{StwaConfig, StwaModel};
use stwa_infer::InferSession;
use stwa_tensor::{memory, Tensor};

/// Peak live tensor bytes of the same forward on commit 1e1fb0b, which
/// decoded every layer's projections up front and split each into K
/// and V copies.
const EAGER_DECODE_PEAK: usize = 13_393_920;

/// Peak live tensor bytes of the same forward on commit 60e8b6e, which
/// computed all three layers' decoder heads before layer 0 and held
/// them to the end of the forward.
const ALL_HEADS_PEAK: usize = 4_284_416;

#[test]
fn serving_forward_never_holds_the_decoded_projections() {
    let (n, d) = (512, 32);
    let mut cfg = StwaConfig::st_wa(n, 12, 3);
    cfg.d = d;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    let m2 = 128;
    cfg.decoder_hidden = (64, m2);
    let mut rng = StdRng::seed_from_u64(512);
    let model = StwaModel::new(cfg, &mut rng).expect("model");
    let session = InferSession::new(&model).expect("freeze");
    let x = Tensor::randn(&[1, n, 12, 1], &mut rng);
    // A warm-up forward first: the measured one then runs on the
    // buffer pool's steady state.
    session.run(&x).expect("warm-up forward");

    memory::reset_peak();
    let before = memory::current_bytes();
    session.run(&x).expect("forward");
    let peak = memory::peak_bytes().saturating_sub(before);

    // One wide layer's `[N, 2·d·d]` decode, twice over (the flat buffer
    // and its two halves), is the least the eager path held beyond
    // what the forward still needs.
    let decoded = 2 * n * (2 * d * d) * std::mem::size_of::<f32>();
    assert!(
        peak + decoded <= EAGER_DECODE_PEAK,
        "forward peaks at {peak} B; expected at least {decoded} B under the eager \
         decoder's {EAGER_DECODE_PEAK} B"
    );
    // Holding one head instead of three frees at least two `[N, m2]`
    // heads at the peak.
    let heads = 2 * n * m2 * std::mem::size_of::<f32>();
    assert!(
        peak + heads <= ALL_HEADS_PEAK,
        "forward peaks at {peak} B; expected at least {heads} B under the \
         all-heads forward's {ALL_HEADS_PEAK} B"
    );
}
