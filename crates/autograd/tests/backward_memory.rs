//! Backward's memory claim: an interior gradient is dropped as soon as
//! its VJP has run, so a sweep down a deep chain holds a few gradient
//! buffers at a time, not one per node on top of the tape.
//!
//! It reads the process-global `memory::peak_bytes()` high-water mark,
//! so it is the only test in its binary.

use stwa_autograd::Graph;
use stwa_tensor::{memory, Tensor};

#[test]
fn a_deep_chain_backward_holds_a_few_gradient_buffers() {
    let (depth, len) = (64, 4096);
    let g = Graph::new();
    let x = g.leaf(Tensor::from_fn(&[len], |i| (i[0] as f32 / len as f32) - 0.5));
    let mut h = x.clone();
    for _ in 0..depth {
        h = h.tanh();
    }
    let loss = h.sum_all().unwrap();

    let forward_live = memory::current_bytes();
    memory::reset_peak();
    g.backward(&loss).unwrap();
    let peak = memory::peak_bytes();

    // The incoming gradient, the contribution it produces and the leaf's
    // gradient. Keeping all 64 interior gradients adds one chain's worth
    // again (2.0x the forward's live bytes).
    let buffer = len * std::mem::size_of::<f32>();
    assert!(
        peak <= forward_live + 3 * buffer,
        "backward peaks at {peak} B over {forward_live} B live after forward; \
         at most three {buffer} B gradient buffers may be added"
    );
    assert!(g.grad(&x).is_some());
    assert!(g.grad(&h).is_none(), "interior gradients are dropped once propagated");
}
