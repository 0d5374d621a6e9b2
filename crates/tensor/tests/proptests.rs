//! Property-based tests of the tensor core: the broadcasting kernels,
//! matmul, reductions, and shape ops are checked against naive
//! reference implementations on arbitrary inputs.

use proptest::prelude::*;
use stwa_tensor::{linalg, manip, memory, shape, Tensor};

/// Strategy: a tensor with the given shape and bounded values.
fn tensor_with(shape_: Vec<usize>) -> impl Strategy<Value = Tensor> {
    let n: usize = shape_.iter().product();
    proptest::collection::vec(-10.0f32..10.0, n..=n)
        .prop_map(move |data| Tensor::from_vec(data, &shape_).unwrap())
}

/// Strategy: a rank-1..3 shape with small axes.
fn small_shape() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..5, 1..4)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn broadcast_shapes_is_commutative(a in small_shape(), b in small_shape()) {
        let ab = shape::broadcast_shapes("t", &a, &b);
        let ba = shape::broadcast_shapes("t", &b, &a);
        match (ab, ba) {
            (Ok(x), Ok(y)) => prop_assert_eq!(x, y),
            (Err(_), Err(_)) => {}
            (x, y) => prop_assert!(false, "asymmetric: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn broadcast_against_self_is_identity(s in small_shape()) {
        prop_assert_eq!(shape::broadcast_shapes("t", &s, &s).unwrap(), s);
    }

    #[test]
    fn broadcast_with_scalar_is_identity(s in small_shape()) {
        prop_assert_eq!(shape::broadcast_shapes("t", &s, &[]).unwrap(), s);
    }

    #[test]
    fn zip_matches_naive_indexing(
        rows in 1usize..5,
        cols in 1usize..5,
        seed_a in proptest::collection::vec(-5.0f32..5.0, 16),
        seed_b in proptest::collection::vec(-5.0f32..5.0, 4),
    ) {
        // [rows, cols] + [cols] via the fast suffix path must equal
        // per-element computation.
        let a = Tensor::from_vec(seed_a[..rows * cols].to_vec(), &[rows, cols]).unwrap();
        let b = Tensor::from_vec(seed_b[..cols].to_vec(), &[cols]).unwrap();
        let out = a.add(&b).unwrap();
        for r in 0..rows {
            for c in 0..cols {
                let expect = a.at(&[r, c]) + b.at(&[c]);
                prop_assert!((out.at(&[r, c]) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn general_broadcast_matches_materialized(
        a in tensor_with(vec![3, 1, 2]),
        b in tensor_with(vec![4, 1]),
    ) {
        // General odometer path vs explicit broadcast_to + same-shape add.
        let fast = a.mul(&b).unwrap();
        let am = a.broadcast_to(&[3, 4, 2]).unwrap();
        let bm = b.broadcast_to(&[3, 4, 2]).unwrap();
        let slow = am.mul(&bm).unwrap();
        prop_assert!(fast.approx_eq(&slow, 1e-6));
    }

    #[test]
    fn matmul_matches_triple_loop(
        m in 1usize..5, k in 1usize..5, n in 1usize..5,
        a_data in proptest::collection::vec(-3.0f32..3.0, 16),
        b_data in proptest::collection::vec(-3.0f32..3.0, 16),
    ) {
        let a = Tensor::from_vec(a_data[..m * k].to_vec(), &[m, k]).unwrap();
        let b = Tensor::from_vec(b_data[..k * n].to_vec(), &[k, n]).unwrap();
        let c = linalg::matmul(&a, &b).unwrap();
        for i in 0..m {
            for j in 0..n {
                let mut expect = 0.0f32;
                for p in 0..k {
                    expect += a.at(&[i, p]) * b.at(&[p, j]);
                }
                prop_assert!((c.at(&[i, j]) - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn sum_axis_equals_manual_sum(t in tensor_with(vec![3, 4, 2]), axis in 0usize..3) {
        let s = t.sum_axis(axis, true).unwrap();
        let total_direct = t.sum_all().item().unwrap();
        let total_via_axis = s.sum_all().item().unwrap();
        prop_assert!((total_direct - total_via_axis).abs() < 1e-3 * total_direct.abs().max(1.0));
    }

    #[test]
    fn mean_axis_bounded_by_extremes(t in tensor_with(vec![4, 3])) {
        let m = t.mean_axis(0, false).unwrap();
        prop_assert!(m.max_all() <= t.max_all() + 1e-5);
        prop_assert!(m.min_all() >= t.min_all() - 1e-5);
    }

    #[test]
    fn narrow_concat_roundtrip(t in tensor_with(vec![5, 3]), split in 1usize..4) {
        let head = t.narrow(0, 0, split).unwrap();
        let tail = t.narrow(0, split, 5 - split).unwrap();
        let back = manip::concat(&[&head, &tail], 0).unwrap();
        prop_assert_eq!(back, t);
    }

    #[test]
    fn permute_preserves_multiset(t in tensor_with(vec![2, 3, 4])) {
        let p = t.permute(&[2, 0, 1]).unwrap();
        let mut a: Vec<f32> = t.data().to_vec();
        let mut b: Vec<f32> = p.data().to_vec();
        a.sort_by(f32::total_cmp);
        b.sort_by(f32::total_cmp);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn index_select_agrees_with_at(t in tensor_with(vec![4, 3]), idx in proptest::collection::vec(0usize..4, 1..6)) {
        let sel = t.index_select(0, &idx).unwrap();
        for (row, &src) in idx.iter().enumerate() {
            for c in 0..3 {
                prop_assert_eq!(sel.at(&[row, c]), t.at(&[src, c]));
            }
        }
    }

    #[test]
    fn softmax_argmax_matches_input_argmax(data in proptest::collection::vec(-8.0f32..8.0, 6)) {
        let x = Tensor::from_vec(data, &[1, 6]).unwrap();
        let s = x.softmax(1).unwrap();
        prop_assert_eq!(s.argmax(), x.argmax());
    }

    #[test]
    fn pad_end_preserves_prefix(t in tensor_with(vec![2, 3]), count in 0usize..4) {
        let p = t.pad_end(1, count, -1.0).unwrap();
        prop_assert_eq!(p.shape()[1], 3 + count);
        for r in 0..2 {
            for c in 0..3 {
                prop_assert_eq!(p.at(&[r, c]), t.at(&[r, c]));
            }
            for c in 3..3 + count {
                prop_assert_eq!(p.at(&[r, c]), -1.0);
            }
        }
    }

    #[test]
    fn memory_gauge_balances(shape_ in small_shape()) {
        use stwa_tensor::memory;
        // The gauge is process-global and other test threads allocate
        // concurrently, so equality against a `before` snapshot is
        // inherently flaky. The race-free invariant: while our tensors
        // are live, the global count covers at least their bytes.
        let bytes = shape_.iter().product::<usize>() * std::mem::size_of::<f32>();
        let _a = Tensor::zeros(&shape_);
        let _b = _a.clone();
        prop_assert!(memory::current_bytes() >= 2 * bytes);
    }

    #[test]
    fn sum_axis_matches_naive_loop_per_element(t in tensor_with(vec![3, 4, 2]), axis in 0usize..3) {
        // Element-wise reference, not just the grand total: every output
        // entry is the sum over the reduced axis at its own coordinates.
        let s = t.sum_axis(axis, true).unwrap();
        let shape = t.shape().to_vec();
        for i in 0..shape[0] {
            for j in 0..shape[1] {
                for k in 0..shape[2] {
                    if [i, j, k][axis] != 0 {
                        continue;
                    }
                    let mut expect = 0.0f32;
                    for r in 0..shape[axis] {
                        let mut idx = [i, j, k];
                        idx[axis] = r;
                        expect += t.at(&idx);
                    }
                    let got = s.at(&[i, j, k]);
                    prop_assert!(
                        (got - expect).abs() < 1e-3,
                        "axis {axis} at [{i},{j},{k}]: {got} vs {expect}"
                    );
                }
            }
        }
    }

    #[test]
    fn mean_axis_is_sum_over_len(t in tensor_with(vec![2, 5, 3]), axis in 0usize..3) {
        let mean = t.mean_axis(axis, false).unwrap();
        let sum = t.sum_axis(axis, false).unwrap();
        let n = t.shape()[axis] as f32;
        for (m, s) in mean.data().iter().zip(sum.data()) {
            prop_assert!((m * n - s).abs() < 1e-3);
        }
    }

    #[test]
    fn keepdim_only_changes_shape(t in tensor_with(vec![3, 2, 4]), axis in 0usize..3) {
        let kept = t.sum_axis(axis, true).unwrap();
        let dropped = t.sum_axis(axis, false).unwrap();
        prop_assert_eq!(kept.data(), dropped.data());
        prop_assert_eq!(kept.shape()[axis], 1);
        prop_assert_eq!(kept.len(), dropped.len());
    }

    #[test]
    fn max_axis_bounds_every_slice_element(t in tensor_with(vec![2, 3, 4]), axis in 0usize..3) {
        let maxed = t.max_axis(axis, true).unwrap();
        let b = maxed.broadcast_to(t.shape()).unwrap();
        for (x, m) in t.data().iter().zip(b.data()) {
            prop_assert!(x <= m, "{x} exceeds its slice max {m}");
        }
        // The max is attained: the global max survives the reduction.
        prop_assert_eq!(t.max_all(), maxed.max_all());
    }

    #[test]
    fn softmax_rows_are_distributions(t in tensor_with(vec![2, 3, 5]), axis in 0usize..3) {
        let sm = t.softmax(axis).unwrap();
        prop_assert!(sm.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        let sums = sm.sum_axis(axis, false).unwrap();
        for &s in sums.data() {
            prop_assert!((s - 1.0).abs() < 1e-4, "softmax sums to {s}");
        }
    }

    #[test]
    fn permute_then_inverse_is_identity(t in tensor_with(vec![2, 4, 3]), choice in 0usize..6) {
        const PERMS: [[usize; 3]; 6] =
            [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
        let perm = PERMS[choice];
        let mut inverse = [0usize; 3];
        for (i, &p) in perm.iter().enumerate() {
            inverse[p] = i;
        }
        let back = t.permute(&perm).unwrap().permute(&inverse).unwrap();
        prop_assert_eq!(back.shape(), t.shape());
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn reshape_round_trips_and_preserves_order(t in tensor_with(vec![2, 3, 4])) {
        let flat = t.reshape(&[24]).unwrap();
        prop_assert_eq!(flat.data(), t.data());
        // Through a different factorization it is still lossless.
        let other = t.reshape(&[4, 6]).unwrap().reshape(&[2, 3, 4]).unwrap();
        prop_assert_eq!(other.data(), t.data());
    }

    #[test]
    fn unsqueeze_squeeze_round_trip(t in tensor_with(vec![3, 2, 2]), axis in 0usize..4) {
        let up = t.unsqueeze(axis).unwrap();
        prop_assert_eq!(up.rank(), 4);
        prop_assert_eq!(up.shape()[axis], 1);
        let down = up.squeeze(axis).unwrap();
        prop_assert_eq!(down.shape(), t.shape());
        prop_assert_eq!(down.data(), t.data());
    }

    #[test]
    fn broadcast_to_repeats_without_mixing(t in tensor_with(vec![1, 3, 1]), reps in 2usize..5) {
        let b = t.broadcast_to(&[reps, 3, 2]).unwrap();
        for r in 0..reps {
            for j in 0..3 {
                for c in 0..2 {
                    prop_assert_eq!(b.at(&[r, j, c]), t.at(&[0, j, 0]));
                }
            }
        }
        // Summing the broadcast axes recovers the original scaled by the
        // repeat count.
        let collapsed = b.sum_axis(2, false).unwrap().sum_axis(0, false).unwrap();
        for (got, orig) in collapsed.data().iter().zip(t.data()) {
            prop_assert!((got - orig * (reps * 2) as f32).abs() < 1e-3);
        }
    }

    #[test]
    fn transpose_last2_matches_swap_axes(t in tensor_with(vec![2, 3, 4])) {
        let a = t.transpose_last2().unwrap();
        let b = t.swap_axes(1, 2).unwrap();
        prop_assert_eq!(a.shape(), b.shape());
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn index_select_identity_and_double_reverse(t in tensor_with(vec![2, 3, 3]), axis in 0usize..3) {
        let all: Vec<usize> = (0..t.shape()[axis]).collect();
        let same = t.index_select(axis, &all).unwrap();
        prop_assert_eq!(same.data(), t.data());
        let rev: Vec<usize> = all.iter().rev().copied().collect();
        let back = t
            .index_select(axis, &rev).unwrap()
            .index_select(axis, &rev).unwrap();
        prop_assert_eq!(back.data(), t.data());
    }

    #[test]
    fn stack_then_narrow_recovers_parts(t in tensor_with(vec![2, 3, 2]), u in tensor_with(vec![2, 3, 2])) {
        let s = manip::stack(&[&t, &u], 0).unwrap();
        prop_assert_eq!(s.shape(), &[2, 2, 3, 2]);
        let t_back = s.narrow(0, 0, 1).unwrap().squeeze(0).unwrap();
        let u_back = s.narrow(0, 1, 1).unwrap().squeeze(0).unwrap();
        prop_assert_eq!(t_back.data(), t.data());
        prop_assert_eq!(u_back.data(), u.data());
    }
}

// ---------------------------------------------------------------------
// Matmul kernel equivalence: the production paths (blocked/packed, row
// or batch split, fused NT/TN orientations) must be *bitwise* equal to
// the retained naive i-k-j reference — not merely close. This is the
// property the golden-run regression and the cross-thread determinism
// guarantee both stand on.
// ---------------------------------------------------------------------

/// Deterministic pseudo-random fill derived from indices and a seed:
/// mixed-sign values with enough variety to surface ordering bugs.
fn fill(seed: u64, salt: usize) -> impl Fn(&[usize]) -> f32 {
    move |idx| {
        let mut h = seed ^ (salt as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        for &i in idx {
            h = (h ^ i as u64).wrapping_mul(0x100_0000_01b3);
        }
        ((h % 41) as f32 - 20.0) * 0.173
    }
}

/// Axis sizes that straddle the kernel's tile edges (`MR = 4`,
/// `NR = 16`, `KC = 256`) and the blocked-path FLOP gate.
fn edge_dim() -> impl Strategy<Value = usize> {
    (0usize..4, 0usize..40).prop_map(|(band, off)| match band {
        0 => 1 + off % 5,     // tiny: below every tile size
        1 => 14 + off % 5,    // straddles NR = 16
        2 => 30 + off,        // several MR/NR tiles with ragged tails
        _ => 250 + off % 15,  // straddles KC = 256
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn matmul_bitwise_matches_reference(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[m, k], fill(seed, 1));
        let b = Tensor::from_fn(&[k, n], fill(seed, 2));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn matmul_nt_bitwise_matches_explicit_transpose(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[m, k], fill(seed, 3));
        let b = Tensor::from_fn(&[n, k], fill(seed, 4));
        let fused = linalg::matmul_nt(&a, &b).unwrap();
        let explicit = linalg::matmul(&a, &b.transpose_last2().unwrap()).unwrap();
        prop_assert_eq!(fused.shape(), explicit.shape());
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn matmul_tn_bitwise_matches_explicit_transpose(
        m in edge_dim(), k in edge_dim(), n in edge_dim(), seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[k, m], fill(seed, 5));
        let b = Tensor::from_fn(&[k, n], fill(seed, 6));
        let fused = linalg::matmul_tn(&a, &b).unwrap();
        let explicit = linalg::matmul(&a.transpose_last2().unwrap(), &b).unwrap();
        prop_assert_eq!(fused.shape(), explicit.shape());
        prop_assert_eq!(fused.data(), explicit.data());
    }

    #[test]
    fn batched_broadcast_matmul_bitwise_matches_reference(
        b1 in 1usize..4, b2 in 1usize..4,
        m in 1usize..20, k in 1usize..40, n in 1usize..20,
        lhs_broadcasts in 0usize..2,
        seed in 0u64..1 << 32,
    ) {
        // One side carries a broadcast batch axis of length 1; the other
        // provides the full [b1, b2] leading shape.
        let (a_lead, b_lead) = if lhs_broadcasts == 1 {
            (vec![1, b2], vec![b1, b2])
        } else {
            (vec![b1, b2], vec![b2])
        };
        let a_shape: Vec<usize> = a_lead.iter().chain(&[m, k]).copied().collect();
        let b_shape: Vec<usize> = b_lead.iter().chain(&[k, n]).copied().collect();
        let a = Tensor::from_fn(&a_shape, fill(seed, 7));
        let b = Tensor::from_fn(&b_shape, fill(seed, 8));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert_eq!(fast.data(), slow.data());
    }

    #[test]
    fn degenerate_matmul_dims_are_well_formed(
        m in 0usize..3, k in 0usize..3, n in 0usize..3, seed in 0u64..1 << 32,
    ) {
        // Zero-sized m/n/k (and their NT/TN versions) must not panic and
        // must agree with the reference: k == 0 yields all-zero [m, n].
        let a = Tensor::from_fn(&[m, k], fill(seed, 9));
        let b = Tensor::from_fn(&[k, n], fill(seed, 10));
        let fast = linalg::matmul(&a, &b).unwrap();
        let slow = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert_eq!(fast.shape(), slow.shape());
        prop_assert_eq!(fast.data(), slow.data());

        let bt = Tensor::from_fn(&[n, k], fill(seed, 11));
        let nt = linalg::matmul_nt(&a, &bt).unwrap();
        prop_assert_eq!(nt.shape(), &[m, n]);
        let at = Tensor::from_fn(&[k, m], fill(seed, 12));
        let tn = linalg::matmul_tn(&at, &b).unwrap();
        prop_assert_eq!(tn.shape(), &[m, n]);
    }
}

// ---------------------------------------------------------------------
// Write mode, small register tiles, folded operands: the kernels draw
// their outputs from unfilled pool buffers and start every chain at zero
// in registers, so these properties run on a deliberately dirty pool.
// ---------------------------------------------------------------------

/// Seed the buffer pool with NaN-filled buffers of the size class an
/// `elems`-long output will draw from, so the next `take_scratch` hands
/// a kernel poisoned memory: an element it failed to write, or a chain
/// it started by loading the output instead of zero, shows up as NaN.
/// Best effort — a concurrently running test may take the buffers
/// first — so it can only ever make a test stronger, not flaky. It does
/// assert that the pool kept every poisoned buffer, so no retention
/// policy can disarm the check.
fn poison_pool(elems: usize) {
    // Pooled capacities are powers of two, 64 floats and up.
    let cap = elems.next_power_of_two().max(64);
    let dirty: Vec<Vec<f32>> = (0..3).map(|_| memory::take_filled(cap, f32::NAN)).collect();
    let poisoned: usize = dirty.iter().map(|b| b.capacity() * 4).sum();
    let parked: usize = dirty
        .into_iter()
        .map(|b| b.capacity() * 4 * memory::recycle(b) as usize)
        .sum();
    assert_eq!(parked, poisoned, "the pool must keep the poisoned buffers");
}

/// The pool thread count is process-global; tests that set it serialize
/// on this lock.
static THREADS_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Contraction depths: mostly `0..40`, with a tail beyond one
/// `KC = 256` slab.
fn depth_dim() -> impl Strategy<Value = usize> {
    (0usize..8, 0usize..40).prop_map(|(band, d)| if band == 0 { 250 + d } else { d })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn small_products_overwrite_poisoned_outputs_and_match_reference(
        bt in 1usize..4, m in 0usize..40, k in depth_dim(), n in 0usize..40,
        seed in 0u64..1 << 32,
    ) {
        // Every orientation, `m = 1` rows, `k = 1` outer products, `k = 0`
        // (must yield zeros, not the buffer's contents), widths that are
        // not a multiple of 4, ragged edge tiles, several slabs.
        let a = Tensor::from_fn(&[bt, m, k], fill(seed, 24));
        let b = Tensor::from_fn(&[bt, k, n], fill(seed, 25));
        let want = linalg::matmul_reference(&a, &b).unwrap();
        prop_assert!(want.data().iter().all(|x| x.is_finite()));

        poison_pool(bt * m * n);
        let nn = linalg::matmul(&a, &b).unwrap();
        prop_assert_eq!(nn.shape(), want.shape());
        prop_assert_eq!(nn.data(), want.data(), "NN {}x{}x{}x{}", bt, m, k, n);

        let bt_ = b.transpose_last2().unwrap();
        poison_pool(bt * m * n);
        let nt = linalg::matmul_nt(&a, &bt_).unwrap();
        prop_assert_eq!(nt.data(), want.data(), "NT {}x{}x{}x{}", bt, m, k, n);

        let at = a.transpose_last2().unwrap();
        poison_pool(bt * m * n);
        let tn = linalg::matmul_tn(&at, &b).unwrap();
        prop_assert_eq!(tn.data(), want.data(), "TN {}x{}x{}x{}", bt, m, k, n);
    }

    #[test]
    fn packed_products_overwrite_poisoned_outputs_and_match_reference(
        rows in 0usize..70, k in depth_dim(), n in 0usize..40, seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[rows, k], fill(seed, 26));
        let b = Tensor::from_fn(&[k, n], fill(seed, 27));
        let want = linalg::matmul_reference(&a, &b).unwrap();
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        poison_pool(rows * n);
        let full = linalg::matmul_packed(&a, &packed, linalg::Epilogue::NONE).unwrap();
        prop_assert_eq!(full.shape(), want.shape());
        prop_assert_eq!(full.data(), want.data(), "packed {}x{}x{}", rows, k, n);
        let mut c = vec![f32::NAN; rows * n];
        linalg::gemm_nn_slice(a.data(), b.data(), &mut c, rows, k, n);
        prop_assert_eq!(&c[..], want.data(), "slice {}x{}x{}", rows, k, n);
    }

    #[test]
    fn folded_shared_operand_matches_per_batch_walk_and_reference(
        b1 in 1usize..4, b2 in 1usize..5,
        m in 1usize..6, k in 1usize..24, n in 1usize..24,
        share in 0usize..2, seed in 0u64..1 << 32,
    ) {
        // `share == 0`: one `[k, n]` weight under the whole `[b1, b2]`
        // batch (folds to a single `b1·b2·m`-row product); `share == 1`:
        // a weight per `b1`, shared along `b2` (folds to `b1` products of
        // `b2·m` rows). The per-batch walk is the same product against
        // the weight materialized for every batch, which cannot fold.
        let a = Tensor::from_fn(&[b1, b2, m, k], fill(seed, 28));
        let b_lead: &[usize] = if share == 0 { &[] } else { &[b1, 1] };
        let b_shape: Vec<usize> = b_lead.iter().chain(&[k, n]).copied().collect();
        let b = Tensor::from_fn(&b_shape, fill(seed, 29));
        let b_full = b.broadcast_to(&[b1, b2, k, n]).unwrap();
        let want = linalg::matmul_reference(&a, &b).unwrap();

        poison_pool(b1 * b2 * m * n);
        let folded = linalg::matmul(&a, &b).unwrap();
        prop_assert_eq!(folded.shape(), &[b1, b2, m, n]);
        prop_assert_eq!(folded.data(), want.data(), "folded NN");
        prop_assert_eq!(linalg::matmul(&a, &b_full).unwrap().data(), want.data(), "walked NN");

        let bt_ = b.transpose_last2().unwrap();
        let bt_full = b_full.transpose_last2().unwrap();
        poison_pool(b1 * b2 * m * n);
        prop_assert_eq!(linalg::matmul_nt(&a, &bt_).unwrap().data(), want.data(), "folded NT");
        prop_assert_eq!(linalg::matmul_nt(&a, &bt_full).unwrap().data(), want.data(), "walked NT");
    }

    #[test]
    fn tn_sum_lead_matches_product_then_axis_sum(
        d0 in 1usize..7, d1 in 1usize..4, d2 in 1usize..4,
        m in 1usize..20, n in 1usize..20, mid in 0usize..3, seed in 0u64..1 << 32,
    ) {
        // The weight gradient of a row vector per batch, for zero to two
        // surviving batch axes. Summing the outer products along axis 0
        // is one contraction over `d0`, so the fused form must be bit
        // for bit `matmul_tn` over the lead-flattened operands — per
        // surviving batch index, `[d0, m]ᵀ · [d0, n]`, one FMA chain —
        // and not the materialized products + `sum_axis`, which round
        // each product before adding it.
        let lead: Vec<usize> = [d0, d1, d2][..1 + mid].to_vec();
        let a_shape: Vec<usize> = lead.iter().chain(&[1, m]).copied().collect();
        let g_shape: Vec<usize> = lead.iter().chain(&[1, n]).copied().collect();
        let a = Tensor::from_fn(&a_shape, fill(seed, 30));
        let g = Tensor::from_fn(&g_shape, fill(seed, 31));
        let rest: usize = lead[1..].iter().product();
        let by_rest = |x: &Tensor, w: usize| {
            x.reshape(&[d0, rest, w]).unwrap().swap_axes(0, 1).unwrap()
        };
        let mut out_shape = lead[1..].to_vec();
        out_shape.extend([m, n]);
        let want = linalg::matmul_tn(&by_rest(&a, m), &by_rest(&g, n))
            .unwrap()
            .reshape(&out_shape)
            .unwrap();
        poison_pool(want.len());
        let fused = linalg::matmul_tn_sum_lead(&a, &g).unwrap();
        prop_assert_eq!(fused.shape(), want.shape());
        prop_assert_eq!(fused.data(), want.data());
    }
}

/// Row counts around the band heights (1, 4, 8) and the 128-row block
/// of the packed walk.
const WALK_ROWS: [usize; 11] = [0, 1, 3, 4, 7, 8, 9, 127, 128, 129, 300];
/// Widths with an even, an odd and a ragged `NR = 16` strip count.
const WALK_WIDTHS: [usize; 7] = [16, 17, 31, 32, 33, 48, 2048 + 5];
/// Depths around one `KC = 256` slab.
const WALK_DEPTHS: [usize; 6] = [0, 1, 255, 256, 257, 600];

fn pick(set: &'static [usize]) -> impl Strategy<Value = usize> {
    (0..set.len()).prop_map(move |i| set[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_walk_boundaries_match_reference_at_any_thread_count(
        rows in pick(&WALK_ROWS), k in pick(&WALK_DEPTHS), n in pick(&WALK_WIDTHS),
        threads in 1usize..4, seed in 0u64..1 << 32,
    ) {
        // Per-call blocked (NN and TN views of A) and pre-packed
        // products on the boundaries of the row-block / strip-pair /
        // band walk, with the pool splitting rows wherever it likes.
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                stwa_pool::set_threads(self.0);
            }
        }
        let _restore = Restore(stwa_pool::current_threads());
        stwa_pool::set_threads(threads);
        let a = Tensor::from_fn(&[rows, k], fill(seed, 34));
        let b = Tensor::from_fn(&[k, n], fill(seed, 35));
        let want = linalg::matmul_reference(&a, &b).unwrap();
        let at = a.transpose_last2().unwrap();
        let packed = linalg::PackedMatrix::pack(&b).unwrap();
        let tag = format!("{rows}x{k}x{n} t{threads}");
        poison_pool(rows * n);
        prop_assert!(linalg::matmul(&a, &b).unwrap().data() == want.data(), "NN {}", tag);
        poison_pool(rows * n);
        prop_assert!(linalg::matmul_tn(&at, &b).unwrap().data() == want.data(), "TN {}", tag);
        poison_pool(rows * n);
        let whole = linalg::matmul_packed(&a, &packed, linalg::Epilogue::NONE).unwrap();
        prop_assert!(whole.data() == want.data(), "packed {}", tag);
        // The slice entry is the tensor entry on raw rows — whole, and
        // on a row sub-range fed as a product of its own.
        let mut c = vec![f32::NAN; rows * n];
        linalg::gemm_packed_slice(a.data(), &packed, &mut c, rows, linalg::Epilogue::NONE);
        prop_assert!(c == whole.data(), "packed slice {}", tag);
        let (r0, r1) = (rows / 3, rows - rows / 4);
        let mut c = vec![f32::NAN; (r1 - r0) * n];
        let none = linalg::Epilogue::NONE;
        linalg::gemm_packed_slice(&a.data()[r0 * k..], &packed, &mut c, r1 - r0, none);
        prop_assert!(c == whole.data()[r0 * n..r1 * n], "packed slice rows {}..{} {}", r0, r1, tag);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn matmul_is_invariant_to_pool_thread_count(
        m in 100usize..140, k in 250usize..300, n in 60usize..80,
        threads in 1usize..4, seed in 0u64..1 << 32,
    ) {
        // Large enough to cross the split threshold in every form: a
        // single matrix (row split), a folded shared operand (row split
        // of the tall product), a true batch (batch split).
        let _guard = THREADS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                stwa_pool::set_threads(self.0);
            }
        }
        let _restore = Restore(stwa_pool::current_threads());
        stwa_pool::set_threads(threads);
        let a = Tensor::from_fn(&[3, m, k], fill(seed, 32));
        let b = Tensor::from_fn(&[k, n], fill(seed, 33));
        let b3 = b.broadcast_to(&[3, k, n]).unwrap();
        let want = linalg::matmul_reference(&a, &b).unwrap();
        poison_pool(3 * m * n);
        prop_assert_eq!(linalg::matmul(&a, &b).unwrap().data(), want.data(), "folded t{}", threads);
        poison_pool(3 * m * n);
        prop_assert_eq!(linalg::matmul(&a, &b3).unwrap().data(), want.data(), "batched t{}", threads);
        let bt_ = b.transpose_last2().unwrap();
        prop_assert_eq!(linalg::matmul_nt(&a, &bt_).unwrap().data(), want.data(), "NT t{}", threads);
        let at = a.transpose_last2().unwrap();
        prop_assert_eq!(linalg::matmul_tn(&at, &b3).unwrap().data(), want.data(), "TN t{}", threads);
    }
}

// ---------------------------------------------------------------------
// Fused elementwise/softmax kernels and shared buffers: every fused
// path must be *bitwise* equal to the chain it replaced, written out
// here, and sharing a buffer between clones and reshapes must be
// invisible in values (copy-on-write).
// ---------------------------------------------------------------------

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

/// `x.permute(perm)` one element at a time from the definition — output
/// index `o` reads input index `i` with `i[perm[ax]] = o[ax]`.
fn permute_by_index(x: &Tensor, perm: &[usize]) -> Tensor {
    let out_shape: Vec<usize> = perm.iter().map(|&p| x.shape()[p]).collect();
    Tensor::from_fn(&out_shape, |o| {
        let mut i = vec![0usize; perm.len()];
        for (ax, &p) in perm.iter().enumerate() {
            i[p] = o[ax];
        }
        x.at(&i)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn softmax_lastdim_bitwise_matches_reference(
        rows in 1usize..6, cols in 1usize..9, seed in 0u64..1 << 32,
    ) {
        let x = Tensor::from_fn(&[rows, cols], fill(seed, 13));
        let fused = x.softmax_lastdim().unwrap();
        let reference = x.softmax_reference(1).unwrap();
        prop_assert_eq!(fused.data(), reference.data());
    }

    #[test]
    fn softmax_vjp_lastdim_bitwise_matches_reference_chain(
        rows in 1usize..6, cols in 1usize..9, seed in 0u64..1 << 32,
    ) {
        let x = Tensor::from_fn(&[rows, cols], fill(seed, 14));
        let g = Tensor::from_fn(&[rows, cols], fill(seed, 15));
        let y = x.softmax_reference(1).unwrap();
        let fused = y.softmax_vjp_lastdim(&g).unwrap();
        // Reference chain: y * (g - sum_j g_j y_j), ascending j.
        let s = g.mul(&y).unwrap().sum_axis(1, true).unwrap();
        let reference = y.mul(&g.sub(&s).unwrap()).unwrap();
        prop_assert_eq!(fused.data(), reference.data());
    }

    #[test]
    fn map_and_zip_inplace_bitwise_match_out_of_place(
        n in 1usize..40, seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[n], fill(seed, 16));
        let b = Tensor::from_fn(&[n], fill(seed, 17));

        let mut inplace = a.clone();
        inplace.map_inplace(|v| v * 2.0 + 1.0);
        prop_assert_eq!(inplace.data(), a.affine(2.0, 1.0).data());

        let mut acc = a.clone();
        acc.add_assign(&b).unwrap();
        prop_assert_eq!(acc.data(), a.add(&b).unwrap().data());
    }

    #[test]
    fn permute_bitwise_matches_an_element_walk(
        d0 in 1usize..4, d1 in 1usize..4, d2 in 1usize..5, d3 in 1usize..4,
        which in 0usize..24, seed in 0u64..1 << 32,
    ) {
        // All 24 orders of four axes: the ones that leave trailing axes
        // in place move them as blocks (one, two or three axes wide),
        // the rest fall to the per-element odometer.
        let mut axes = vec![0usize, 1, 2, 3];
        let mut perm = Vec::with_capacity(4);
        let mut w = which;
        for left in (1..=4).rev() {
            perm.push(axes.remove(w % left));
            w /= left;
        }
        let x = Tensor::from_fn(&[d0, d1, d2, d3], fill(seed, 18));
        let got = x.permute(&perm).unwrap();
        let want = permute_by_index(&x, &perm);
        prop_assert_eq!(got.shape(), want.shape());
        prop_assert_eq!(bits(&got), bits(&want), "perm {:?}", perm);
    }

    #[test]
    fn mutating_one_holder_of_a_shared_buffer_leaves_the_others_untouched(
        rows in 1usize..5, cols in 1usize..5, seed in 0u64..1 << 32,
    ) {
        // Clone and reshape share the buffer; whichever holder is
        // written to — the original included — must copy first.
        let mut x = Tensor::from_fn(&[rows, cols], fill(seed, 19));
        let original = bits(&x);
        let mut cloned = x.clone();
        let mut flat = x.reshape(&[rows * cols]).unwrap();
        let keeper = x.clone();

        cloned.map_inplace(|v| v + 1.0);
        prop_assert_eq!(bits(&x), original.clone());
        prop_assert_eq!(bits(&flat), original.clone());

        flat.data_mut()[0] = f32::NAN;
        prop_assert_eq!(bits(&x), original.clone());
        prop_assert_eq!(bits(&cloned), bits(&x.add_scalar(1.0)));

        x.data_mut().fill(-7.0);
        prop_assert_eq!(bits(&keeper), original.clone());
        prop_assert_eq!(&bits(&flat)[1..], &original[1..]);
        prop_assert!(flat.data()[0].is_nan());
    }
}

// ---------------------------------------------------------------------
// Quantized serving panels (quant module): per-element round-trip
// error bounds and the determinism contract — the dispatched SIMD GEMM
// bitwise equal to its scalar reference across shapes *and thread
// counts*.
// ---------------------------------------------------------------------

use stwa_tensor::quant::{self, PackedMatrixInt8};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn int8_round_trip_error_is_within_half_scale_per_element(
        k in 1usize..40, n in 1usize..40, seed in 0u64..1 << 32,
    ) {
        let w = Tensor::from_fn(&[k, n], fill(seed, 20));
        let q = PackedMatrixInt8::pack(&w).unwrap();
        let deq = q.dequantize().unwrap();
        for j in 0..n {
            let s = q.scales()[j];
            prop_assert!(s > 0.0);
            for p in 0..k {
                let err = (w.at(&[p, j]) - deq.at(&[p, j])).abs();
                prop_assert!(
                    err <= 0.5 * s + 1e-12,
                    "col {j} row {p}: err {err} vs scale {s}"
                );
            }
        }
    }

    #[test]
    fn int8_row_quantization_error_is_within_half_scale(
        rows in 1usize..6, k in 1usize..50, seed in 0u64..1 << 32,
    ) {
        let a = Tensor::from_fn(&[rows, k], fill(seed, 21));
        let mut qa = Vec::new();
        let mut scales = Vec::new();
        quant::quantize_rows(a.data(), rows, k, &mut qa, &mut scales);
        for r in 0..rows {
            let s = scales[r];
            for p in 0..k {
                let err = (a.at(&[r, p]) - qa[r * k + p] as f32 * s).abs();
                prop_assert!(err <= 0.5 * s + 1e-12, "row {r} col {p}: err {err} vs {s}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn quantized_gemms_bitwise_match_scalar_reference_across_threads(
        m in edge_dim(), k in edge_dim(), n in edge_dim(),
        threads in 1usize..4, seed in 0u64..1 << 32,
    ) {
        // The pool thread count is process-global state.
        let _guard = THREADS_LOCK.lock().unwrap();
        // Restore the configured thread count even if an assert below
        // panics, so one failing case can't skew every later test.
        struct Restore(usize);
        impl Drop for Restore {
            fn drop(&mut self) {
                stwa_pool::set_threads(self.0);
            }
        }
        let _restore = Restore(stwa_pool::current_threads());
        stwa_pool::set_threads(threads);
        let a = Tensor::from_fn(&[m, k], fill(seed, 22));
        let w = Tensor::from_fn(&[k, n], fill(seed, 23));
        let q = PackedMatrixInt8::pack(&w).unwrap();
        let lean = quant::matmul_packed_int8_lean(&a, &q).unwrap();
        let refr = quant::matmul_packed_int8_reference(&a, &q).unwrap();
        prop_assert_eq!(lean.data(), refr.data(), "int8 {}x{}x{} t{}", m, k, n, threads);
        // The dispatched entry shadows the AVX2 `vpmaddubsw` tile on
        // VNNI hosts; force it so its bitwise contract is proptested
        // everywhere AVX2 exists.
        if let Some(avx2) = quant::matmul_packed_int8_avx2(&a, &q) {
            let avx2 = avx2.unwrap();
            prop_assert_eq!(
                avx2.data(), refr.data(),
                "int8 avx2 {}x{}x{} t{}", m, k, n, threads
            );
        }
    }
}
