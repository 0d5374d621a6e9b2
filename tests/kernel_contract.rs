//! The kernel order contract in the tier-1 command: which chains fuse.
//!
//! Every contraction — each output element of a matrix product, and the
//! fused weight-gradient reduction — is one ascending f32 chain from
//! `+0.0` in which each term is **one fused multiply-add**, rounded
//! once. Elementwise-then-reduce (`mul` + `sum_axis`) is not a
//! contraction: it rounds the product, then the sum.
//!
//! The witness is `[-(1+2⁻¹¹), 1+2⁻¹²] · [1, 1+2⁻¹²]`. The second
//! product is `1 + 2⁻¹¹ + 2⁻²⁴`, a tie that rounds to even, `1 + 2⁻¹¹`,
//! so a chain that rounds it before adding cancels to `0.0`, and a
//! fused one leaves the `2⁻²⁴` the rounding dropped. Each entry runs on
//! a single output and on a 128 × 128 block of the same output (past
//! every blocked cutover) at the tier this host dispatches;
//! `stwa-tensor`'s unit test `every_contraction_fuses_each_term_on_every_arm`
//! repeats it under every ISA ceiling the host supports.

use st_wa::tensor::{isa, linalg, Tensor};

const FUSED: f32 = 1.0 / 16_777_216.0; // 2⁻²⁴

fn witness() -> ([f32; 2], [f32; 2]) {
    let (e11, e12) = (2f32.powi(-11), 2f32.powi(-12));
    ([-(1.0 + e11), 1.0 + e12], [1.0, 1.0 + e12])
}

#[test]
fn every_contraction_entry_fuses_each_term() {
    let ([a0, a1], [b0, b1]) = witness();
    println!("dispatched tier: {}", isa::current().label());
    for (m, n) in [(1, 1), (128, 128)] {
        let a = Tensor::from_fn(&[m, 2], |i| [a0, a1][i[1]]);
        let b = Tensor::from_fn(&[2, n], |i| [b0, b1][i[0]]);
        let (at, bt) = (a.transpose_last2().unwrap(), b.transpose_last2().unwrap());
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        let mut slice = vec![f32::NAN; m * n];
        linalg::gemm_nn_slice(a.data(), b.data(), &mut slice, m, 2, n);
        let mut packed_slice = vec![f32::NAN; m * n];
        linalg::gemm_packed_slice(a.data(), &packed, &mut packed_slice, m);
        for (entry, got) in [
            ("matmul", linalg::matmul(&a, &b).unwrap().data().to_vec()),
            (
                "matmul_nt",
                linalg::matmul_nt(&a, &bt).unwrap().data().to_vec(),
            ),
            (
                "matmul_tn",
                linalg::matmul_tn(&at, &b).unwrap().data().to_vec(),
            ),
            (
                "matmul_packed",
                linalg::matmul_packed(&a, &packed).unwrap().data().to_vec(),
            ),
            (
                "matmul_reference",
                linalg::matmul_reference(&a, &b).unwrap().data().to_vec(),
            ),
            ("gemm_nn_slice", slice),
            ("gemm_packed_slice", packed_slice),
        ] {
            assert!(
                got.iter().all(|&x| x == FUSED),
                "{entry} on {m}x2x{n}: {:e}, want 2^-24",
                got[0]
            );
        }
    }
    // The weight-gradient reduction: `[2, 1, 1]` row vectors summed over
    // the leading axis is the same two-term contraction.
    let a = Tensor::from_vec(vec![a0, a1], &[2, 1, 1]).unwrap();
    let g = Tensor::from_vec(vec![b0, b1], &[2, 1, 1]).unwrap();
    let lead = linalg::matmul_tn_sum_lead(&a, &g).unwrap();
    assert_eq!(lead.data(), &[FUSED], "matmul_tn_sum_lead");
}

#[test]
fn elementwise_then_reduce_rounds_each_product() {
    let (a, b) = witness();
    let a = Tensor::from_vec(a.to_vec(), &[2]).unwrap();
    let b = Tensor::from_vec(b.to_vec(), &[2]).unwrap();
    let sum = a.mul(&b).unwrap().sum_axis(0, false).unwrap();
    assert_eq!(sum.data(), &[0.0], "mul + sum_axis");
}
