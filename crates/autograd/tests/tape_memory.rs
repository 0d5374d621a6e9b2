//! The tape's memory claim: a recorded value lives only while a VJP can
//! read it. Down a `mul_scalar` → `tanh` chain, `tanh`'s VJP reads its
//! own output and `mul_scalar`'s reads nothing, so after the forward the
//! tape holds the 32 `tanh` outputs and none of the 32 products.
//!
//! It reads the process-global `memory::current_bytes()` counter, so it
//! is the only test in its binary.

use stwa_autograd::{Graph, Var};
use stwa_tensor::{memory, Tensor};

const DEPTH: usize = 32;
const LEN: usize = 4096;

/// The chain on a fresh tape: the leaf, the loss, and — when `keep` —
/// every intermediate `Var`.
fn chain(keep: bool) -> (Graph, Var, Var, Vec<Var>) {
    let g = Graph::new();
    let x = g.leaf(Tensor::from_fn(&[LEN], |i| {
        (i[0] as f32 / LEN as f32) - 0.5
    }));
    let mut kept = Vec::new();
    let mut h = x.clone();
    for _ in 0..DEPTH {
        let scaled = h.mul_scalar(1.5);
        h = scaled.tanh();
        if keep {
            kept.extend([scaled, h.clone()]);
        }
    }
    let loss = h.sum_all().unwrap();
    (g, x, loss, kept)
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

#[test]
fn the_tape_keeps_only_values_a_vjp_reads() {
    let before = memory::current_bytes();
    let (g, x, loss, _) = chain(false);
    let forward_live = memory::current_bytes() - before;

    // The leaf and the 32 `tanh` outputs (the loss is a scalar). Holding
    // every value, as a tape that keeps each node's output does, adds
    // the 32 products again.
    let buffer = LEN * std::mem::size_of::<f32>();
    let scalar = std::mem::size_of::<f32>();
    assert!(
        forward_live <= (1 + DEPTH) * buffer + scalar,
        "{forward_live} B live after the forward; the leaf and {DEPTH} tanh outputs are \
         {} B",
        (1 + DEPTH) * buffer
    );
    g.backward(&loss).unwrap();
    let released = g.grad(&x).unwrap();

    let (g, x, loss, kept) = chain(true);
    assert_eq!(kept.len(), 2 * DEPTH);
    g.backward(&loss).unwrap();
    assert_eq!(
        bits(&released),
        bits(&g.grad(&x).unwrap()),
        "releasing never-read values changes no gradient bit"
    );
}
