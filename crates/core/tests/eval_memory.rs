//! Evaluation's memory claim: `forward` on a graph that records nothing
//! holds no more than the hand-written tape-free forward it replaced,
//! and far less than the same forward on a tape — so a slide back to
//! "evaluate on the recorded graph" fails here, not only in the
//! benchmark's `peak_rss_mib`.
//!
//! It reads the process-global `memory::peak_bytes()` high-water mark,
//! so it is the only test in its binary.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_core::{ForecastModel, StwaConfig, StwaModel};
use stwa_tensor::{memory, Tensor};

/// Peak live tensor bytes of this `forward_nograd` call on commit
/// a01703a, whose `forward_nograd` was a separate tape-free copy of the
/// model. The accounting is logical — a shared buffer counts as a copy
/// and a pooled buffer at its capacity class — so it shifts by a few
/// small buffers with any change in what is allocated when: the one
/// `forward` reads 88 KiB (0.4 %) above the copy (it holds the input's
/// `Var` and the samples' log-variances through the decode). The bound
/// below allows 1 %; a tape costs 400 %.
const TAPE_FREE_COPY_PEAK: usize = 23_461_888;

#[test]
fn evaluation_peaks_like_the_tape_free_copy_and_well_under_a_tape() {
    let (n, d) = (512, 32);
    let mut cfg = StwaConfig::st_wa(n, 12, 3);
    cfg.d = d;
    cfg.heads = 8;
    cfg.k = 32;
    cfg.predictor_hidden = 512;
    cfg.decoder_hidden = (64, 128);
    let mut rng = StdRng::seed_from_u64(512);
    let model = StwaModel::new(cfg, &mut rng).expect("model");
    let x = Tensor::randn(&[1, n, 12, 1], &mut rng);
    let peak_of = |run: &dyn Fn() -> Tensor| {
        memory::reset_peak();
        let before = memory::current_bytes();
        let out = run();
        (memory::peak_bytes().saturating_sub(before), out)
    };

    let (eval_peak, eval_out) = peak_of(&|| model.forward_nograd(&x).expect("eval forward"));
    let (tape_peak, tape_out) = peak_of(&|| {
        let graph = Graph::new();
        let mut rng = StdRng::seed_from_u64(0);
        let out = model
            .forward(&graph, &graph.constant(x.clone()), &mut rng, false)
            .expect("recorded forward");
        out.pred.value().as_ref().clone()
    });

    assert_eq!(eval_out.data(), tape_out.data());
    assert!(
        eval_peak <= TAPE_FREE_COPY_PEAK + TAPE_FREE_COPY_PEAK / 100,
        "evaluation peaks at {eval_peak} B, the tape-free copy peaked at {TAPE_FREE_COPY_PEAK} B"
    );
    assert!(
        2 * eval_peak <= tape_peak,
        "evaluation peaks at {eval_peak} B against {tape_peak} B on a tape: is it recording?"
    );
}
