//! The lazy decoder's memory claim: a serving-width forward no longer
//! holds the decoded `[N, 2·F·d]` projections (nor their K / V halves)
//! of any layer.
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

#[test]
fn serving_forward_never_holds_the_decoded_projections() {
    let (n, d) = (512, 32);
    let mut cfg = StwaConfig::st_wa(n, 12, 3);
    cfg.d = d;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    let mut rng = StdRng::seed_from_u64(512);
    let model = StwaModel::new(cfg, &mut rng).expect("model");
    let session = InferSession::new(&model).expect("freeze");
    let x = Tensor::randn(&[1, n, 12, 1], &mut rng);
    // The first forward records the batch plan, which stays live.
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
}
