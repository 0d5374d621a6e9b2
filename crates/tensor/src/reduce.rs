//! Reductions and softmax.
//!
//! Axis reductions and softmax parallelize over *outer lanes* (the
//! product of the dimensions before the reduced axis): each lane's
//! output region is disjoint and its fold order is fixed (ascending
//! along the axis), so results are bitwise identical at any thread
//! count. `sum_all`/`mean_all` stay strictly sequential — a tree or
//! chunked global sum would reassociate f32 addition and change bits.

use crate::memory;
use crate::shape::check_axis;
use crate::tensor::{elementwise_chunks, PARALLEL_ELEMS};
use crate::{Result, Tensor};
use stwa_pool::SendPtr;

/// Chunk width of the global sum-of-squares reduction. Boundaries
/// depend only on the slice length, never on the thread count, so the
/// partial sums — and therefore the total — are identical whether the
/// chunks run inline or across the pool.
const SQ_NORM_CHUNK: usize = 4096;

/// Sum of squares of a slice — the gradient-clipping measurement.
///
/// Slices below the parallel threshold keep the exact scalar fold
/// (ascending, one running accumulator), bit-for-bit the historical
/// `iter().map(|x| x * x).sum()`. Larger slices reduce in fixed
/// [`SQ_NORM_CHUNK`]-wide chunks: each chunk folds its elements in
/// ascending order, chunks run across the worker pool, and the partial
/// sums combine in ascending chunk order on the caller. The chunked
/// result reassociates f32 addition relative to the scalar fold (a
/// one-time, documented cutover at the threshold), but is bitwise
/// reproducible at any `STWA_THREADS` because nothing about the
/// decomposition depends on the thread count.
pub fn sq_norm(data: &[f32]) -> f32 {
    if data.len() < PARALLEL_ELEMS {
        return data.iter().map(|x| x * x).sum();
    }
    let nchunks = data.len().div_ceil(SQ_NORM_CHUNK);
    let mut partials = vec![0f32; nchunks];
    stwa_pool::parallel_chunks(&mut partials, elementwise_chunks().min(nchunks), |start, out| {
        for (j, slot) in out.iter_mut().enumerate() {
            let lo = (start + j) * SQ_NORM_CHUNK;
            let hi = (lo + SQ_NORM_CHUNK).min(data.len());
            *slot = data[lo..hi].iter().map(|x| x * x).sum();
        }
    });
    partials.iter().sum()
}

/// Rows shorter than this take the blocked softmax walk: their `exp`
/// pass would otherwise be all scalar tail.
const SHORT_ROW: usize = 64;
/// Elements per block of the short-row walk (cut at whole rows).
const SOFTMAX_BLOCK: usize = 8192;

/// In-place softmax over contiguous rows of `row_len` (which must
/// divide `data.len()`; zero-length rows are a no-op).
///
/// Per row this is the max / `exp_f32(x − m)` / ascending-sum / divide
/// chain of [`Tensor::softmax_reference`], bit for bit. Long rows run it
/// row by row. Short rows share their `exp`: a block of rows subtracts
/// each row's max, **one** wide [`crate::mathfn::exp_slice`] covers the
/// block, then each row sums and divides — `t = x − m; exp(t − 0.0)` is
/// the same bits as `exp(x − m)`, and a 3-element row no longer pays a
/// kernel call for three scalar-tail lanes. The block walk is one body
/// over `const N` (0 = read `row_len`), instantiated at the proxy
/// attention's 2–4 element rows so their loops unroll.
pub(crate) fn softmax_rows(data: &mut [f32], row_len: usize) {
    if row_len == 0 {
        return;
    }
    if row_len >= SHORT_ROW {
        for row in data.chunks_exact_mut(row_len) {
            // Exponentiate first, sum second: same values and the same
            // ascending fold order as a single interleaved loop, but
            // the exp pass has no loop-carried state so it runs through
            // the wide exp kernel.
            crate::mathfn::exp_sub_slice(row, row_max(row));
            normalise(row);
        }
        return;
    }
    let run = match row_len {
        2 => short_rows_block::<2>,
        3 => short_rows_block::<3>,
        4 => short_rows_block::<4>,
        _ => short_rows_block::<0>,
    };
    let rows_per_block = (SOFTMAX_BLOCK / row_len).max(1);
    for block in data.chunks_mut(rows_per_block * row_len) {
        run(block, row_len);
    }
}

#[inline(always)]
fn short_rows_block<const N: usize>(block: &mut [f32], row_len: usize) {
    let n = if N == 0 { row_len } else { N };
    for row in block.chunks_exact_mut(n) {
        let m = row_max(row);
        for x in row.iter_mut() {
            *x -= m;
        }
    }
    crate::mathfn::exp_slice(block);
    for row in block.chunks_exact_mut(n) {
        normalise(row);
    }
}

#[inline(always)]
fn row_max(row: &[f32]) -> f32 {
    row.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x))
}

/// Divide a row of exponentials by its ascending sum.
#[inline(always)]
fn normalise(row: &mut [f32]) {
    let mut z = 0.0f32;
    for &x in row.iter() {
        z += x;
    }
    for x in row.iter_mut() {
        *x /= z;
    }
}

impl Tensor {
    /// Sum along `axis`. With `keepdim` the axis is kept at length 1,
    /// otherwise it is removed.
    pub fn sum_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        self.reduce_axis(
            "sum_axis",
            axis,
            keepdim,
            0.0,
            |acc, x| acc + x,
            |acc, _n| acc,
        )
    }

    /// Arithmetic mean along `axis`.
    pub fn mean_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        self.reduce_axis(
            "mean_axis",
            axis,
            keepdim,
            0.0,
            |acc, x| acc + x,
            |acc, n| acc / n as f32,
        )
    }

    /// Maximum along `axis`.
    pub fn max_axis(&self, axis: usize, keepdim: bool) -> Result<Tensor> {
        self.reduce_axis(
            "max_axis",
            axis,
            keepdim,
            f32::NEG_INFINITY,
            f32::max,
            |acc, _n| acc,
        )
    }

    fn reduce_axis(
        &self,
        op: &'static str,
        axis: usize,
        keepdim: bool,
        init: f32,
        fold: impl Fn(f32, f32) -> f32 + Sync,
        finish: impl Fn(f32, usize) -> f32 + Sync,
    ) -> Result<Tensor> {
        check_axis(op, axis, self.rank())?;
        let axis_len = self.shape()[axis];
        if axis_len == 0 {
            // 0/0 means and -inf maxes would silently poison everything
            // downstream; fail fast like the rest of the shape logic.
            return Err(crate::TensorError::Invalid(format!(
                "{op}: cannot reduce over empty axis {axis} of shape {:?}",
                self.shape()
            )));
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut data = memory::take_filled(outer * inner, init);
        // Capture the raw slice, not `&self`: the shared `Rc` buffer makes
        // `Tensor` itself `!Sync`, but a borrowed `&[f32]` crosses threads.
        let src: &[f32] = self.data();
        // One lane = one output row; fold order is always ascending `a`.
        let run_lane = |o: usize, out_row: &mut [f32]| {
            for a in 0..axis_len {
                let base = (o * axis_len + a) * inner;
                let row = &src[base..base + inner];
                for (acc, &x) in out_row.iter_mut().zip(row.iter()) {
                    *acc = fold(*acc, x);
                }
            }
            for v in out_row.iter_mut() {
                *v = finish(*v, axis_len);
            }
        };
        let total = outer * axis_len * inner;
        if total >= PARALLEL_ELEMS && outer > 1 && inner > 0 && stwa_pool::current_threads() > 1 {
            let groups = elementwise_chunks().min(outer);
            let per = outer.div_ceil(groups);
            let (out_ptr, len) = (SendPtr(data.as_mut_ptr()), data.len());
            stwa_pool::parallel_for(groups, |g| {
                let o1 = ((g + 1) * per).min(outer);
                for o in g * per..o1 {
                    debug_assert!((o + 1) * inner <= len, "reduce_axis: lane {o} of {len}");
                    // Safety: lanes own disjoint output rows, and the
                    // pool joins before `data` is consumed.
                    let out_row = unsafe {
                        std::slice::from_raw_parts_mut(out_ptr.get().add(o * inner), inner)
                    };
                    run_lane(o, out_row);
                }
            });
        } else {
            for o in 0..outer {
                run_lane(o, &mut data[o * inner..(o + 1) * inner]);
            }
        }
        let mut shape = self.shape().to_vec();
        if keepdim {
            shape[axis] = 1;
        } else {
            shape.remove(axis);
        }
        Tensor::from_vec(data, &shape)
    }

    /// Sum of every element, as a scalar tensor.
    pub fn sum_all(&self) -> Tensor {
        Tensor::scalar(self.data().iter().sum())
    }

    /// Mean of every element, as a scalar tensor. Empty tensors yield NaN.
    pub fn mean_all(&self) -> Tensor {
        Tensor::scalar(self.data().iter().sum::<f32>() / self.len() as f32)
    }

    /// Largest element (`-inf` for empty tensors).
    pub fn max_all(&self) -> f32 {
        self.data()
            .iter()
            .copied()
            .fold(f32::NEG_INFINITY, f32::max)
    }

    /// Smallest element (`+inf` for empty tensors).
    pub fn min_all(&self) -> f32 {
        self.data().iter().copied().fold(f32::INFINITY, f32::min)
    }

    /// Index of the largest element in a rank-1 tensor.
    pub fn argmax(&self) -> Option<usize> {
        self.data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
    }

    /// Numerically stable softmax along `axis`.
    ///
    /// Rows are shifted by their maximum before exponentiation, so large
    /// attention logits cannot overflow. The last axis — the shape every
    /// attention score matrix reduces over — dispatches to the fused
    /// [`Tensor::softmax_lastdim`]; other axes run the strided reference
    /// kernel. Both orders of operations are identical, so the dispatch
    /// is invisible bit-for-bit.
    pub fn softmax(&self, axis: usize) -> Result<Tensor> {
        check_axis("softmax", axis, self.rank())?;
        if axis + 1 == self.rank() {
            return self.softmax_lastdim();
        }
        self.softmax_reference(axis)
    }

    /// Fused softmax over the last axis: contiguous rows in place (max,
    /// exp-shift, ascending sum, divide — see [`softmax_rows`]), rows
    /// split across the worker pool. Produces bitwise-identical results
    /// to [`Tensor::softmax_reference`] — the per-element expressions
    /// and fold orders are the same — while drawing its output from the
    /// buffer pool.
    pub fn softmax_lastdim(&self) -> Result<Tensor> {
        if self.rank() == 0 {
            return Err(crate::TensorError::RankTooSmall {
                op: "softmax_lastdim",
                required: 1,
                actual: 0,
            });
        }
        let row_len = self.shape()[self.rank() - 1];
        let mut data = memory::take_copy(self.data());
        if let Some(rows) = data.len().checked_div(row_len) {
            if data.len() >= PARALLEL_ELEMS && rows > 1 && stwa_pool::current_threads() > 1 {
                let groups = elementwise_chunks().min(rows);
                let per = rows.div_ceil(groups);
                let (out_ptr, len) = (SendPtr(data.as_mut_ptr()), data.len());
                stwa_pool::parallel_for(groups, |g| {
                    let (r0, r1) = (g * per, ((g + 1) * per).min(rows));
                    if r0 < r1 {
                        debug_assert!(r1 * row_len <= len, "softmax_lastdim: rows {r0}..{r1}");
                        // Safety: row ranges are disjoint, and the pool
                        // joins before `data` is consumed.
                        let rows = unsafe {
                            std::slice::from_raw_parts_mut(
                                out_ptr.get().add(r0 * row_len),
                                (r1 - r0) * row_len,
                            )
                        };
                        softmax_rows(rows, row_len);
                    }
                });
            } else {
                softmax_rows(&mut data, row_len);
            }
        }
        Tensor::from_vec(data, self.shape())
    }

    /// Fused softmax Jacobian-vector product over the last axis.
    ///
    /// `self` is the softmax *output* `y` and `grad` the upstream
    /// gradient `g`; the result is `y * (g - Σ_j g_j y_j)` per row.
    /// Bitwise-identical to the reference chain
    /// `y.mul(&g.sub(&(g*y).sum_axis(last, true).broadcast_to(..)))` —
    /// same products, same ascending summation — but touches each row
    /// once and materializes one tensor instead of four.
    pub fn softmax_vjp_lastdim(&self, grad: &Tensor) -> Result<Tensor> {
        if self.rank() == 0 || self.shape() != grad.shape() {
            return Err(crate::TensorError::ShapeMismatch {
                op: "softmax_vjp_lastdim",
                lhs: self.shape().to_vec(),
                rhs: grad.shape().to_vec(),
            });
        }
        let row_len = self.shape()[self.rank() - 1];
        let mut data = memory::take_scratch(self.len());
        if let Some(rows) = data.len().checked_div(row_len) {
            let y_all = self.data();
            let g_all = grad.data();
            let run_row = |r: usize, out_row: &mut [f32]| {
                let base = r * row_len;
                let y = &y_all[base..base + row_len];
                let g = &g_all[base..base + row_len];
                let mut s = 0.0f32;
                for i in 0..row_len {
                    s += g[i] * y[i];
                }
                for i in 0..row_len {
                    out_row[i] = y[i] * (g[i] - s);
                }
            };
            if data.len() >= PARALLEL_ELEMS && rows > 1 && stwa_pool::current_threads() > 1 {
                let groups = elementwise_chunks().min(rows);
                let per = rows.div_ceil(groups);
                let (out_ptr, len) = (SendPtr(data.as_mut_ptr()), data.len());
                stwa_pool::parallel_for(groups, |gi| {
                    let r1 = ((gi + 1) * per).min(rows);
                    for r in gi * per..r1 {
                        debug_assert!((r + 1) * row_len <= len, "softmax_vjp_lastdim: row {r}");
                        // Safety: rows are disjoint, and the pool joins
                        // before `data` is consumed.
                        let out_row = unsafe {
                            std::slice::from_raw_parts_mut(out_ptr.get().add(r * row_len), row_len)
                        };
                        run_row(r, out_row);
                    }
                });
            } else {
                for r in 0..rows {
                    run_row(r, &mut data[r * row_len..(r + 1) * row_len]);
                }
            }
        }
        Tensor::from_vec(data, self.shape())
    }

    /// Reference softmax along any `axis` — the seed's strided kernel,
    /// kept verbatim both to serve non-last axes and as the equality
    /// oracle the fused-path proptests compare against.
    pub fn softmax_reference(&self, axis: usize) -> Result<Tensor> {
        check_axis("softmax", axis, self.rank())?;
        let axis_len = self.shape()[axis];
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut data = self.data().to_vec();
        // For each (outer, inner) lane: max, exp-shift, normalize. One
        // outer block (`axis_len * inner` elements) is self-contained.
        let run_outer = |block: &mut [f32]| {
            for i in 0..inner {
                let mut m = f32::NEG_INFINITY;
                for a in 0..axis_len {
                    m = m.max(block[a * inner + i]);
                }
                let mut z = 0.0;
                for a in 0..axis_len {
                    let idx = a * inner + i;
                    let e = crate::mathfn::exp_f32(block[idx] - m);
                    block[idx] = e;
                    z += e;
                }
                for a in 0..axis_len {
                    block[a * inner + i] /= z;
                }
            }
        };
        let block_len = axis_len * inner;
        if data.len() >= PARALLEL_ELEMS
            && outer > 1
            && block_len > 0
            && stwa_pool::current_threads() > 1
        {
            let groups = elementwise_chunks().min(outer);
            let per = outer.div_ceil(groups);
            let (out_ptr, len) = (SendPtr(data.as_mut_ptr()), data.len());
            stwa_pool::parallel_for(groups, |g| {
                let o1 = ((g + 1) * per).min(outer);
                for o in g * per..o1 {
                    debug_assert!((o + 1) * block_len <= len, "softmax_reference: block {o}");
                    // Safety: outer blocks are disjoint, and the pool
                    // joins before `data` is consumed.
                    let block = unsafe {
                        std::slice::from_raw_parts_mut(out_ptr.get().add(o * block_len), block_len)
                    };
                    run_outer(block);
                }
            });
        } else if block_len > 0 {
            for block in data.chunks_exact_mut(block_len) {
                run_outer(block);
            }
        }
        Tensor::from_vec(data, self.shape())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn sq_norm_small_matches_scalar_fold() {
        let data: Vec<f32> = (0..1000).map(|i| (i as f32) * 0.01 - 3.0).collect();
        let scalar: f32 = data.iter().map(|x| x * x).sum();
        assert_eq!(sq_norm(&data).to_bits(), scalar.to_bits());
    }

    #[test]
    fn sq_norm_is_thread_count_invariant() {
        // Above the parallel threshold the chunk decomposition must not
        // depend on the pool size: same bits at 1 and 8 threads.
        let data: Vec<f32> = (0..PARALLEL_ELEMS + 12345)
            .map(|i| ((i * 2654435761) % 1000) as f32 * 1e-3 - 0.5)
            .collect();
        stwa_pool::set_threads(1);
        let one = sq_norm(&data);
        stwa_pool::set_threads(8);
        let eight = sq_norm(&data);
        stwa_pool::set_threads(stwa_pool::configured_threads());
        assert_eq!(one.to_bits(), eight.to_bits());
        // And the chunked value is close to the scalar fold.
        let scalar: f32 = data.iter().map(|x| x * x).sum();
        assert!((one - scalar).abs() <= scalar.abs() * 1e-5);
    }

    #[test]
    fn sum_axis_drops_or_keeps_dim() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let s0 = x.sum_axis(0, false).unwrap();
        assert_eq!(s0.shape(), &[3]);
        assert_eq!(s0.data(), &[5.0, 7.0, 9.0]);
        let s1 = x.sum_axis(1, true).unwrap();
        assert_eq!(s1.shape(), &[2, 1]);
        assert_eq!(s1.data(), &[6.0, 15.0]);
        assert!(x.sum_axis(2, false).is_err());
    }

    #[test]
    fn reducing_empty_axis_is_an_error() {
        let x = Tensor::zeros(&[4, 0, 3]);
        assert!(x.mean_axis(1, false).is_err());
        assert!(x.max_axis(1, false).is_err());
        assert!(x.sum_axis(1, false).is_err());
        // Other axes of the same tensor still error (they reduce across
        // an empty buffer too? No: outer*inner is 0, the result is empty
        // but well-formed) — axis 0 has length 4, allowed.
        assert!(x.sum_axis(0, false).is_ok());
    }

    #[test]
    fn mean_axis_divides() {
        let x = t(&[2.0, 4.0, 6.0, 8.0], &[2, 2]);
        assert_eq!(x.mean_axis(0, false).unwrap().data(), &[4.0, 6.0]);
        assert_eq!(x.mean_axis(1, false).unwrap().data(), &[3.0, 7.0]);
    }

    #[test]
    fn max_axis_middle() {
        let x = Tensor::from_fn(&[2, 3, 2], |i| (i[0] * 10 + i[1] * 3 + i[2]) as f32);
        let m = x.max_axis(1, false).unwrap();
        assert_eq!(m.shape(), &[2, 2]);
        assert_eq!(m.at(&[0, 0]), x.at(&[0, 2, 0]));
        assert_eq!(m.at(&[1, 1]), x.at(&[1, 2, 1]));
    }

    #[test]
    fn global_reductions() {
        let x = t(&[1.0, -2.0, 3.0], &[3]);
        assert_eq!(x.sum_all().item().unwrap(), 2.0);
        assert!((x.mean_all().item().unwrap() - 2.0 / 3.0).abs() < 1e-6);
        assert_eq!(x.max_all(), 3.0);
        assert_eq!(x.min_all(), -2.0);
        assert_eq!(x.argmax(), Some(2));
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = t(&[1.0, 2.0, 3.0, 1.0, 1.0, 1.0], &[2, 3]);
        let s = x.softmax(1).unwrap();
        for r in 0..2 {
            let sum: f32 = (0..3).map(|c| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
        // Uniform logits -> uniform probabilities.
        assert!((s.at(&[1, 0]) - 1.0 / 3.0).abs() < 1e-6);
        // Monotone in the logits.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let x = t(&[1000.0, 1001.0, 1002.0], &[1, 3]);
        let s = x.softmax(1).unwrap();
        assert!(!s.has_non_finite());
        let y = t(&[0.0, 1.0, 2.0], &[1, 3]).softmax(1).unwrap();
        assert!(s.approx_eq(&y, 1e-6));
    }

    #[test]
    fn fused_lastdim_softmax_is_bitwise_identical_to_reference() {
        let x = Tensor::from_fn(&[3, 5, 7], |i| {
            ((i[0] * 31 + i[1] * 17 + i[2] * 7) % 13) as f32 * 0.37 - 2.0
        });
        let fused = x.softmax(2).unwrap();
        let reference = x.softmax_reference(2).unwrap();
        assert_eq!(fused, reference, "PartialEq on f32 slices is bitwise here");
        // Large enough to engage the parallel row path.
        let big = Tensor::from_fn(&[64, 16, 128], |i| ((i[0] + i[1] * 3 + i[2]) % 29) as f32);
        assert_eq!(
            big.softmax(2).unwrap(),
            big.softmax_reference(2).unwrap()
        );
    }

    #[test]
    fn lastdim_softmax_matches_reference_at_every_row_length_and_extreme() {
        // Same bits, or NaN on both sides (payloads are not contract).
        let same = |a: &Tensor, b: &Tensor| {
            a.shape() == b.shape()
                && a.data()
                    .iter()
                    .zip(b.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
        };
        // Both sides of the short-row cut-over; nine rows per length so
        // a block holds several rows and row seven carries an extreme.
        let extremes = [f32::NEG_INFINITY, f32::INFINITY, 1e30, -1e30];
        for row_len in 1..=70usize {
            for (e, &extreme) in extremes.iter().enumerate() {
                let mut x = Tensor::from_fn(&[9, row_len], |i| {
                    ((i[0] * 37 + i[1] * 11 + e) % 23) as f32 * 0.61 - 6.0
                });
                x.data_mut()[7 * row_len + (e * 5) % row_len] = extreme;
                // A row that is nothing but -inf (all-NaN on both sides).
                x.data_mut()[2 * row_len..3 * row_len].fill(f32::NEG_INFINITY);
                let fused = x.softmax_lastdim().unwrap();
                let reference = x.softmax_reference(1).unwrap();
                assert!(
                    same(&fused, &reference),
                    "row_len {row_len}, extreme {extreme}"
                );
                // Rows without a +inf or all -inf stay finite.
                let clean = &fused.data()[..2 * row_len];
                assert!(clean.iter().all(|v| v.is_finite()));
            }
        }
        // Larger than one block of the short-row walk, with a ragged
        // last block, serial and across the pool.
        for shape in [
            [3 * SOFTMAX_BLOCK / 7 + 5, 7],
            [PARALLEL_ELEMS / 20 + 3, 20],
        ] {
            let x = Tensor::from_fn(&shape, |i| ((i[0] * 13 + i[1] * 7) % 31) as f32 * 0.4 - 5.0);
            let reference = x.softmax_reference(1).unwrap();
            for threads in [1, 3] {
                stwa_pool::set_threads(threads);
                let fused = x.softmax_lastdim().unwrap();
                stwa_pool::set_threads(1);
                assert!(
                    same(&fused, &reference),
                    "shape {shape:?}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn softmax_inner_axis() {
        // Softmax over axis 0 of a [2, 2]: columns sum to 1.
        let x = t(&[0.0, 10.0, 1.0, 10.0], &[2, 2]);
        let s = x.softmax(0).unwrap();
        for c in 0..2 {
            let sum: f32 = (0..2).map(|r| s.at(&[r, c])).sum();
            assert!((sum - 1.0).abs() < 1e-6);
        }
    }
}
