//! The dense `f32` tensor type and its elementwise operations.

use crate::memory;
use crate::shape::{broadcast_shapes, broadcast_strides, volume};
use crate::{Result, TensorError};
use std::fmt;
use std::rc::Rc;

/// Elementwise kernels with at least this many output elements run
/// through the worker pool; below it, dispatch overhead dominates.
pub(crate) const PARALLEL_ELEMS: usize = 1 << 16;

/// Chunk-count target for pool-split elementwise work: ~2 chunks per
/// thread lets the self-scheduling pool absorb uneven progress.
pub(crate) fn elementwise_chunks() -> usize {
    stwa_pool::current_threads() * 2
}

/// A dense, row-major, contiguous `f32` n-dimensional array.
///
/// The empty shape `[]` denotes a scalar holding exactly one element.
///
/// The buffer sits behind an `Rc` with copy-on-write semantics: clones
/// and reshapes share it (O(1)), and any mutation of a shared buffer
/// copies first, so value semantics are indistinguishable from a deep
/// copy.
pub struct Tensor {
    data: Rc<Vec<f32>>,
    shape: Vec<usize>,
    /// Bytes registered with [`memory::track_alloc`] at construction.
    /// Deallocation must release exactly this figure: `data.capacity()`
    /// is not trustworthy at drop time (`into_vec` takes the buffer,
    /// and a pooled buffer's capacity may exceed its original class).
    tracked_bytes: usize,
}

impl Tensor {
    // ---------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------

    /// Wrap an already-validated buffer, registering its bytes.
    pub(crate) fn wrap(data: Vec<f32>, shape: &[usize]) -> Tensor {
        debug_assert_eq!(data.len(), volume(shape), "wrap: length/shape mismatch");
        let tracked_bytes = data.capacity() * 4;
        memory::track_alloc(tracked_bytes);
        Tensor {
            data: Rc::new(data),
            shape: shape.to_vec(),
            tracked_bytes,
        }
    }

    /// A tensor sharing this one's buffer under a (volume-preserving)
    /// new shape — the zero-copy path behind `reshape` and `clone`.
    /// Registers the same byte figure a copy would, so `peak_bytes`
    /// reports what the unshared implementation would have used.
    pub(crate) fn share(&self, shape: &[usize]) -> Tensor {
        debug_assert_eq!(self.data.len(), volume(shape), "share: volume mismatch");
        memory::track_alloc(self.tracked_bytes);
        Tensor {
            data: Rc::clone(&self.data),
            shape: shape.to_vec(),
            tracked_bytes: self.tracked_bytes,
        }
    }

    /// Exclusive access to the buffer, copying out of shared storage
    /// first (copy-on-write). Every mutation funnels through here.
    fn buf_mut(&mut self) -> &mut Vec<f32> {
        if Rc::strong_count(&self.data) > 1 {
            self.data = Rc::new(memory::take_copy(&self.data));
        }
        Rc::get_mut(&mut self.data).expect("buffer is unique after copy-on-write")
    }

    /// Build a tensor from raw data and a shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Result<Tensor> {
        let expected = volume(shape);
        if data.len() != expected {
            return Err(TensorError::DataLengthMismatch {
                expected,
                actual: data.len(),
            });
        }
        Ok(Tensor::wrap(data, shape))
    }

    /// A tensor filled with `value`, drawn from the buffer pool.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        Tensor::wrap(memory::take_filled(volume(shape), value), shape)
    }

    /// A tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 0.0)
    }

    /// A tensor of ones.
    pub fn ones(shape: &[usize]) -> Tensor {
        Tensor::full(shape, 1.0)
    }

    /// A rank-0 scalar.
    pub fn scalar(value: f32) -> Tensor {
        Tensor::full(&[], value)
    }

    /// A tensor whose element at multi-index `i` is `f(i)`.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(&[usize]) -> f32) -> Tensor {
        let mut data = memory::take_scratch(volume(shape));
        let rank = shape.len();
        let mut idx = vec![0usize; rank];
        for slot in data.iter_mut() {
            *slot = f(&idx);
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                if idx[ax] < shape[ax] {
                    break;
                }
                idx[ax] = 0;
            }
        }
        Tensor::wrap(data, shape)
    }

    /// `[0, 1, ..., n-1]` as a rank-1 tensor.
    pub fn arange(n: usize) -> Tensor {
        Tensor::from_vec((0..n).map(|i| i as f32).collect(), &[n]).expect("arange shape")
    }

    /// The `n x n` identity matrix.
    pub fn eye(n: usize) -> Tensor {
        Tensor::from_fn(&[n, n], |i| if i[0] == i[1] { 1.0 } else { 0.0 })
    }

    // ---------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of axes.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat read-only view of the underlying buffer (row-major).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the underlying buffer (row-major). Copies
    /// out of shared storage first when the buffer has other owners.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.buf_mut()
    }

    /// Consume the tensor, returning its buffer (copied out when other
    /// tensors still share it).
    pub fn into_vec(mut self) -> Vec<f32> {
        // Release this tensor's bytes from the gauge now; Drop will then
        // see zero tracked bytes and an empty (capacity-0) buffer, so it
        // neither double-deallocates nor recycles.
        memory::track_dealloc(self.tracked_bytes);
        self.tracked_bytes = 0;
        let rc = std::mem::replace(&mut self.data, Rc::new(Vec::new()));
        match Rc::try_unwrap(rc) {
            Ok(buf) => buf,
            Err(shared) => shared.as_slice().to_vec(),
        }
    }

    /// Element at a multi-index.
    ///
    /// # Panics
    /// Panics when the index rank or any coordinate is out of range; use
    /// only with validated indices (tests, small utilities).
    pub fn at(&self, index: &[usize]) -> f32 {
        self.check_index(index);
        let strides = crate::shape::strides(&self.shape);
        self.data[crate::shape::offset(index, &strides)]
    }

    /// Set the element at a multi-index. Same panics as [`Tensor::at`].
    pub fn set(&mut self, index: &[usize], value: f32) {
        self.check_index(index);
        let strides = crate::shape::strides(&self.shape);
        let off = crate::shape::offset(index, &strides);
        self.buf_mut()[off] = value;
    }

    /// Per-axis bounds check for `at`/`set`: an out-of-range coordinate
    /// can still land on an in-bounds flat offset (of a *different*
    /// element), so rank checking alone would read the wrong value
    /// silently.
    fn check_index(&self, index: &[usize]) {
        assert_eq!(index.len(), self.rank(), "index rank mismatch");
        for (axis, (&i, &dim)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(
                i < dim,
                "index {i} out of bounds for axis {axis} of length {dim} (shape {:?})",
                self.shape
            );
        }
    }

    /// The single value of a scalar or one-element tensor.
    pub fn item(&self) -> Result<f32> {
        if self.data.len() == 1 {
            Ok(self.data[0])
        } else {
            Err(TensorError::Invalid(format!(
                "item() requires exactly one element, tensor has shape {:?}",
                self.shape
            )))
        }
    }

    // ---------------------------------------------------------------
    // Elementwise unary
    // ---------------------------------------------------------------

    /// Apply `f` to every element, producing a new tensor. Large
    /// tensors split across the worker pool; chunk boundaries depend
    /// only on the element count, so results are identical at any
    /// thread count.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Tensor {
        let n = self.data.len();
        let mut out = memory::take_scratch(n);
        if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
            // `&[f32]`, not `&Rc<..>`: the Rc would make the closure !Sync.
            let src: &[f32] = &self.data;
            stwa_pool::parallel_chunks(&mut out, elementwise_chunks(), |start, chunk| {
                for (dst, &x) in chunk.iter_mut().zip(src[start..].iter()) {
                    *dst = f(x);
                }
            });
        } else {
            for (dst, &x) in out.iter_mut().zip(self.data.iter()) {
                *dst = f(x);
            }
        }
        Tensor::wrap(out, &self.shape)
    }

    /// [`Tensor::map`] for elementwise kernels that operate on whole
    /// slices (the wide `mathfn` variants): copy the data, run the
    /// kernel per chunk. Chunk boundaries cannot change elementwise
    /// results, so this is bitwise identical to mapping the kernel's
    /// scalar form.
    fn map_slice(&self, kernel: impl Fn(&mut [f32]) + Sync) -> Tensor {
        let n = self.data.len();
        let mut out = memory::take_scratch(n);
        out.copy_from_slice(&self.data);
        if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
            stwa_pool::parallel_chunks(&mut out, elementwise_chunks(), |_, chunk| {
                kernel(chunk);
            });
        } else {
            kernel(&mut out);
        }
        Tensor::wrap(out, &self.shape)
    }

    /// Apply `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32 + Sync) {
        let buf = self.buf_mut();
        if buf.len() >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
            stwa_pool::parallel_chunks(buf, elementwise_chunks(), |_, chunk| {
                for x in chunk {
                    *x = f(*x);
                }
            });
        } else {
            for x in buf.iter_mut() {
                *x = f(*x);
            }
        }
    }

    pub fn neg(&self) -> Tensor {
        self.map(|x| -x)
    }
    pub fn exp(&self) -> Tensor {
        self.map(f32::exp)
    }
    pub fn ln(&self) -> Tensor {
        self.map(f32::ln)
    }
    pub fn sqrt(&self) -> Tensor {
        self.map(f32::sqrt)
    }
    pub fn tanh(&self) -> Tensor {
        self.map_slice(crate::mathfn::tanh_slice)
    }
    pub fn abs(&self) -> Tensor {
        self.map(f32::abs)
    }
    pub fn relu(&self) -> Tensor {
        self.map(|x| x.max(0.0))
    }
    pub fn sigmoid(&self) -> Tensor {
        self.map_slice(crate::mathfn::sigmoid_slice)
    }
    pub fn square(&self) -> Tensor {
        self.map(|x| x * x)
    }
    pub fn recip(&self) -> Tensor {
        self.map(|x| 1.0 / x)
    }
    pub fn clamp(&self, lo: f32, hi: f32) -> Tensor {
        self.map(|x| x.clamp(lo, hi))
    }

    /// Scale and shift: `self * a + b`.
    pub fn affine(&self, a: f32, b: f32) -> Tensor {
        self.map(|x| x * a + b)
    }

    pub fn add_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x + s)
    }
    pub fn mul_scalar(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    // ---------------------------------------------------------------
    // Elementwise binary with broadcasting
    // ---------------------------------------------------------------

    /// Apply `f` elementwise over the broadcast of `self` and `rhs`.
    /// The aligned fast paths run through the worker pool above
    /// [`PARALLEL_ELEMS`]; chunking depends only on element counts, so
    /// results do not vary with thread count.
    pub fn zip(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<Tensor> {
        // Fast path: identical shapes.
        if self.shape == rhs.shape {
            let n = self.data.len();
            let mut data = memory::take_scratch(n);
            if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
                let (lhs, rhs_d): (&[f32], &[f32]) = (&self.data, &rhs.data);
                stwa_pool::parallel_chunks(&mut data, elementwise_chunks(), |start, chunk| {
                    for (i, slot) in chunk.iter_mut().enumerate() {
                        *slot = f(lhs[start + i], rhs_d[start + i]);
                    }
                });
            } else {
                for ((slot, &a), &b) in data.iter_mut().zip(self.data.iter()).zip(rhs.data.iter())
                {
                    *slot = f(a, b);
                }
            }
            return Tensor::from_vec(data, &self.shape);
        }
        // Fast path: rhs is a scalar.
        if rhs.data.len() == 1 {
            let b = rhs.data[0];
            let out_shape = broadcast_shapes(op, &self.shape, &rhs.shape)?;
            let n = self.data.len();
            let mut data = memory::take_scratch(n);
            if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
                let src: &[f32] = &self.data;
                stwa_pool::parallel_chunks(&mut data, elementwise_chunks(), |start, chunk| {
                    for (slot, &a) in chunk.iter_mut().zip(src[start..].iter()) {
                        *slot = f(a, b);
                    }
                });
            } else {
                for (slot, &a) in data.iter_mut().zip(self.data.iter()) {
                    *slot = f(a, b);
                }
            }
            return Tensor::from_vec(data, &out_shape);
        }
        // Fast path: lhs is a scalar.
        if self.data.len() == 1 {
            let a = self.data[0];
            let out_shape = broadcast_shapes(op, &self.shape, &rhs.shape)?;
            let n = rhs.data.len();
            let mut data = memory::take_scratch(n);
            if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
                let src: &[f32] = &rhs.data;
                stwa_pool::parallel_chunks(&mut data, elementwise_chunks(), |start, chunk| {
                    for (slot, &b) in chunk.iter_mut().zip(src[start..].iter()) {
                        *slot = f(a, b);
                    }
                });
            } else {
                for (slot, &b) in data.iter_mut().zip(rhs.data.iter()) {
                    *slot = f(a, b);
                }
            }
            return Tensor::from_vec(data, &out_shape);
        }
        // Fast path: rhs shape is an exact suffix of lhs shape
        // (e.g. bias add `[B, T, d] + [d]`).
        if rhs.shape.len() <= self.shape.len()
            && self.shape[self.shape.len() - rhs.shape.len()..] == rhs.shape[..]
        {
            let chunk = rhs.data.len();
            let n = self.data.len();
            if let Some(blocks) = n.checked_div(chunk) {
                let mut data = memory::take_scratch(n);
                if n >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 && blocks > 1 {
                    let groups = elementwise_chunks().min(blocks);
                    let per = blocks.div_ceil(groups);
                    let (src, small): (&[f32], &[f32]) = (&self.data, &rhs.data);
                    let out_ptr = stwa_pool::SendPtr(data.as_mut_ptr());
                    stwa_pool::parallel_for(groups, |g| {
                        let b1 = ((g + 1) * per).min(blocks);
                        for bi in g * per..b1 {
                            let base = bi * chunk;
                            // Safety: block groups are disjoint, and the
                            // pool joins before `data` is consumed.
                            let dst = unsafe {
                                std::slice::from_raw_parts_mut(out_ptr.get().add(base), chunk)
                            };
                            let block = &src[base..base + chunk];
                            for ((slot, &a), &b) in
                                dst.iter_mut().zip(block.iter()).zip(small.iter())
                            {
                                *slot = f(a, b);
                            }
                        }
                    });
                } else {
                    for (block, dst) in self
                        .data
                        .chunks_exact(chunk)
                        .zip(data.chunks_exact_mut(chunk))
                    {
                        for ((slot, &a), &b) in
                            dst.iter_mut().zip(block.iter()).zip(rhs.data.iter())
                        {
                            *slot = f(a, b);
                        }
                    }
                }
                return Tensor::from_vec(data, &self.shape);
            }
        }
        // General path: odometer walk with broadcast strides.
        let out_shape = broadcast_shapes(op, &self.shape, &rhs.shape)?;
        let rank = out_shape.len();
        let ls = broadcast_strides(&self.shape, &out_shape);
        let rs = broadcast_strides(&rhs.shape, &out_shape);
        let n = volume(&out_shape);
        let mut data = memory::take_scratch(n);
        let mut idx = vec![0usize; rank];
        let (mut lo, mut ro) = (0usize, 0usize);
        for slot in data.iter_mut() {
            *slot = f(self.data[lo], rhs.data[ro]);
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                lo += ls[ax];
                ro += rs[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
                lo -= ls[ax] * out_shape[ax];
                ro -= rs[ax] * out_shape[ax];
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "add", |a, b| a + b)
    }
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "sub", |a, b| a - b)
    }
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "mul", |a, b| a * b)
    }
    pub fn div(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "div", |a, b| a / b)
    }
    pub fn maximum(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "maximum", f32::max)
    }
    pub fn minimum(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "minimum", f32::min)
    }

    /// Elementwise `1.0` where `self > rhs`, else `0.0`.
    pub fn gt_mask(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip(rhs, "gt_mask", |a, b| if a > b { 1.0 } else { 0.0 })
    }

    /// Accumulate `rhs` into `self`; shapes must match exactly. This is
    /// the in-place axpy the backward sweep uses to sum gradient
    /// contributions without cloning.
    pub fn add_assign(&mut self, rhs: &Tensor) -> Result<()> {
        self.zip_inplace(rhs, "add_assign", |a, b| a + b)
    }

    /// Combine `rhs` into `self` elementwise, in place: `a = f(a, b)`.
    /// Shapes must match exactly (no broadcasting — in-place rules out
    /// shape growth). Large tensors split across the worker pool with
    /// the same thread-count-independent chunking as [`Tensor::zip`].
    pub fn zip_inplace(
        &mut self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32 + Sync,
    ) -> Result<()> {
        if self.shape != rhs.shape {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape.clone(),
                rhs: rhs.shape.clone(),
            });
        }
        let buf = self.buf_mut();
        if buf.len() >= PARALLEL_ELEMS && stwa_pool::current_threads() > 1 {
            let src: &[f32] = &rhs.data;
            stwa_pool::parallel_chunks(buf, elementwise_chunks(), |start, chunk| {
                for (i, a) in chunk.iter_mut().enumerate() {
                    *a = f(*a, src[start + i]);
                }
            });
        } else {
            for (a, &b) in buf.iter_mut().zip(rhs.data.iter()) {
                *a = f(*a, b);
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------------
    // Testing helpers
    // ---------------------------------------------------------------

    /// Maximum absolute difference against another tensor of the same
    /// shape. Returns `f32::INFINITY` on shape mismatch.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        if self.shape != other.shape {
            return f32::INFINITY;
        }
        self.data
            .iter()
            .zip(other.data.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// Whether every element is within `tol` of the corresponding element
    /// of `other` (and the shapes match).
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.max_abs_diff(other) <= tol
    }

    /// Whether any element is NaN or infinite.
    pub fn has_non_finite(&self) -> bool {
        self.data.iter().any(|x| !x.is_finite())
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Tensor {
        // O(1): share the buffer; copy-on-write preserves deep-copy
        // semantics if either side is later mutated.
        self.share(&self.shape)
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        memory::track_dealloc(self.tracked_bytes);
        // Recycle only as the last owner; earlier owners just drop their
        // reference.
        if let Some(buf) = Rc::get_mut(&mut self.data) {
            memory::recycle(std::mem::take(buf));
        }
    }
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={:?}", self.shape)?;
        if self.data.len() <= 16 {
            write!(f, ", data={:?})", self.data)
        } else {
            write!(
                f,
                ", data=[{:.4}, {:.4}, ..., {:.4}])",
                self.data[0],
                self.data[1],
                self.data[self.data.len() - 1]
            )
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![1.0, 2.0], &[3]).is_err());
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        assert_eq!(t.shape(), &[3]);
    }

    #[test]
    fn scalar_roundtrip() {
        let s = Tensor::scalar(2.5);
        assert_eq!(s.rank(), 0);
        assert_eq!(s.item().unwrap(), 2.5);
        assert!(Tensor::zeros(&[2]).item().is_err());
    }

    #[test]
    fn from_fn_row_major() {
        let t = Tensor::from_fn(&[2, 3], |i| (i[0] * 10 + i[1]) as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
        assert_eq!(t.at(&[1, 2]), 12.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds for axis")]
    fn at_rejects_out_of_range_coordinate_even_if_flat_offset_fits() {
        // Index [0, 3] on a [2, 3] tensor has flat offset 3 (< 6) but is
        // not a valid coordinate; it must panic, not read element [1, 0].
        let t = Tensor::from_fn(&[2, 3], |i| (i[0] * 3 + i[1]) as f32);
        let _ = t.at(&[0, 3]);
    }

    #[test]
    fn eye_diagonal() {
        let i = Tensor::eye(3);
        assert_eq!(i.at(&[0, 0]), 1.0);
        assert_eq!(i.at(&[0, 1]), 0.0);
        assert_eq!(i.data().iter().sum::<f32>(), 3.0);
    }

    #[test]
    fn add_same_shape() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11.0, 22.0]);
    }

    #[test]
    fn broadcast_row_and_column() {
        // [2,1] * [1,3] -> [2,3]
        let col = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).unwrap();
        let row = Tensor::from_vec(vec![10.0, 20.0, 30.0], &[1, 3]).unwrap();
        let out = col.mul(&row).unwrap();
        assert_eq!(out.shape(), &[2, 3]);
        assert_eq!(out.data(), &[10.0, 20.0, 30.0, 20.0, 40.0, 60.0]);
    }

    #[test]
    fn broadcast_suffix_bias() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).unwrap();
        let out = x.add(&b).unwrap();
        assert_eq!(out.data(), &[11.0, 22.0, 13.0, 24.0]);
    }

    #[test]
    fn broadcast_scalar_each_side() {
        let x = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let s = Tensor::scalar(5.0);
        assert_eq!(x.add(&s).unwrap().data(), &[6.0, 7.0]);
        assert_eq!(s.sub(&x).unwrap().data(), &[4.0, 3.0]);
    }

    #[test]
    fn incompatible_shapes_error() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4]);
        let err = a.add(&b).unwrap_err();
        assert!(matches!(err, TensorError::ShapeMismatch { op: "add", .. }));
    }

    #[test]
    fn unary_ops() {
        let x = Tensor::from_vec(vec![-1.0, 0.0, 2.0], &[3]).unwrap();
        assert_eq!(x.relu().data(), &[0.0, 0.0, 2.0]);
        assert_eq!(x.abs().data(), &[1.0, 0.0, 2.0]);
        assert_eq!(x.neg().data(), &[1.0, 0.0, -2.0]);
        assert!(x.sigmoid().data()[1] - 0.5 < 1e-6);
        assert_eq!(x.square().data(), &[1.0, 0.0, 4.0]);
        assert_eq!(x.clamp(-0.5, 1.0).data(), &[-0.5, 0.0, 1.0]);
    }

    #[test]
    fn gt_mask_values() {
        let a = Tensor::from_vec(vec![1.0, 5.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![2.0, 2.0], &[2]).unwrap();
        assert_eq!(a.gt_mask(&b).unwrap().data(), &[0.0, 1.0]);
    }

    #[test]
    fn add_assign_requires_exact_shape() {
        let mut a = Tensor::zeros(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[1.0; 4]);
        assert!(a.add_assign(&Tensor::ones(&[4])).is_err());
    }

    #[test]
    fn approx_eq_and_diff() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec(vec![1.0, 2.001], &[2]).unwrap();
        assert!(a.approx_eq(&b, 0.01));
        assert!(!a.approx_eq(&b, 0.0001));
        assert_eq!(a.max_abs_diff(&Tensor::zeros(&[3])), f32::INFINITY);
    }

    #[test]
    fn non_finite_detection() {
        let mut t = Tensor::zeros(&[2]);
        assert!(!t.has_non_finite());
        t.data_mut()[0] = f32::NAN;
        assert!(t.has_non_finite());
    }

    #[test]
    fn clone_is_deep() {
        let a = Tensor::from_vec(vec![1.0], &[1]).unwrap();
        let mut b = a.clone();
        b.data_mut()[0] = 9.0;
        assert_eq!(a.data()[0], 1.0);
    }

    #[test]
    fn zip_inplace_matches_zip() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.5], &[4]).unwrap();
        let b = Tensor::from_vec(vec![0.25, 4.0, -1.0, 2.0], &[4]).unwrap();
        let expect = a.zip(&b, "t", |x, y| x * y + 1.0).unwrap();
        let mut c = a.clone();
        c.zip_inplace(&b, "t", |x, y| x * y + 1.0).unwrap();
        assert_eq!(c, expect);
        assert!(c.zip_inplace(&Tensor::zeros(&[2, 2]), "t", |x, _| x).is_err());
    }

    #[test]
    fn byte_accounting_survives_capacity_drift() {
        // Satellite: `tracked_bytes` is recorded at construction and
        // released verbatim. Wrap buffers whose capacity exceeds their
        // length, reshape (which copies), and drop — if alloc/dealloc
        // ever went asymmetric the global usize counter would wrap to
        // an astronomically large value.
        for _ in 0..64 {
            let mut v = Vec::with_capacity(1000);
            v.extend((0..24).map(|i| i as f32));
            let t = Tensor::from_vec(v, &[4, 6]).unwrap();
            let r = t.reshape(&[2, 12]).unwrap();
            let back = r.into_vec(); // strips tracking before Drop
            drop(back);
            drop(t);
        }
        assert!(
            memory::current_bytes() < (1 << 60),
            "global live-bytes counter underflowed (alloc/dealloc asymmetry)"
        );
    }
}
