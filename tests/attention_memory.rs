//! Falsifiable test of the paper's memory claim: window attention's
//! footprint grows linearly with H while canonical attention grows
//! quadratically (Section IV-B).
//!
//! It reads the process-global `memory::peak_bytes()` high-water mark,
//! so it is the only test in its binary: beside `tests/awareness.rs`'s
//! training tests, whose threads allocate into the same gauge, the
//! measured ratios were whatever those threads happened to hold.

use rand::rngs::StdRng;
use rand::SeedableRng;
use st_wa::autograd::Graph;
use st_wa::tensor::{memory, Tensor};

#[test]
fn window_attention_memory_scales_linearly_canonical_quadratically() {
    use st_wa::model::{AggregatorKind, WindowAttentionLayer};
    use st_wa::nn::layers::MultiHeadSelfAttention;
    use st_wa::nn::ParamStore;

    let peak_of = |f: &dyn Fn()| -> usize {
        memory::reset_peak();
        let before = memory::current_bytes();
        f();
        memory::peak_bytes().saturating_sub(before)
    };

    let (n, b, d) = (4, 2, 16);
    let sa_peak = |h: usize| -> usize {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let att = MultiHeadSelfAttention::new(&store, "sa", 1, d, 4, &mut rng);
        let x = Tensor::randn(&[b, n, h, 1], &mut rng);
        peak_of(&|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            att.forward(&g, &xv).unwrap();
        })
    };
    let wa_peak = |h: usize| -> usize {
        let store = ParamStore::new();
        let mut rng = StdRng::seed_from_u64(0);
        let wa = WindowAttentionLayer::new(
            &store,
            "wa",
            n,
            h,
            6,
            2,
            1,
            d,
            4,
            AggregatorKind::Learned,
            true,
            true,
            &mut rng,
        )
        .unwrap();
        let x = Tensor::randn(&[b, n, h, 1], &mut rng);
        peak_of(&|| {
            let g = Graph::new();
            let xv = g.constant(x.clone());
            wa.forward(&g, &xv, None).unwrap();
        })
    };

    // Quadruple H: canonical attention's score matrices grow ~16x,
    // window attention's state ~4x.
    let (h1, h2) = (48, 192);
    let sa_ratio = sa_peak(h2) as f64 / sa_peak(h1) as f64;
    let wa_ratio = wa_peak(h2) as f64 / wa_peak(h1) as f64;
    assert!(
        sa_ratio > 8.0,
        "canonical attention should scale ~quadratically: x{sa_ratio:.1}"
    );
    assert!(
        wa_ratio < 6.0,
        "window attention should scale ~linearly: x{wa_ratio:.1}"
    );
    assert!(
        sa_ratio > wa_ratio * 1.8,
        "SA ({sa_ratio:.1}x) must grow much faster than WA ({wa_ratio:.1}x)"
    );
}
