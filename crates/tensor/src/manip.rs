//! Shape manipulation: reshape, permute, slice, concat, gather, pad.
//!
//! All operations materialize their result (no aliased views); see the
//! crate docs for why.

use crate::memory;
use crate::shape::{broadcast_shapes, broadcast_strides, check_axis, strides, volume};
use crate::{Result, Tensor, TensorError};

impl Tensor {
    /// Reinterpret the buffer under a new shape with the same volume.
    /// Shares the buffer (O(1), copy-on-write protected).
    pub fn reshape(&self, new_shape: &[usize]) -> Result<Tensor> {
        if volume(new_shape) != self.len() {
            return Err(TensorError::InvalidReshape {
                from: self.shape().to_vec(),
                to: new_shape.to_vec(),
            });
        }
        Ok(self.share(new_shape))
    }

    /// Insert a length-1 axis at `axis` (which may equal the rank, to
    /// append a trailing axis).
    pub fn unsqueeze(&self, axis: usize) -> Result<Tensor> {
        if axis > self.rank() {
            return Err(TensorError::InvalidAxis {
                op: "unsqueeze",
                axis,
                rank: self.rank() + 1,
            });
        }
        let mut shape = self.shape().to_vec();
        shape.insert(axis, 1);
        self.reshape(&shape)
    }

    /// Remove a length-1 axis.
    pub fn squeeze(&self, axis: usize) -> Result<Tensor> {
        check_axis("squeeze", axis, self.rank())?;
        if self.shape()[axis] != 1 {
            return Err(TensorError::Invalid(format!(
                "squeeze: axis {axis} has length {} != 1 in shape {:?}",
                self.shape()[axis],
                self.shape()
            )));
        }
        let mut shape = self.shape().to_vec();
        shape.remove(axis);
        self.reshape(&shape)
    }

    /// Reorder axes: output axis `i` is input axis `perm[i]`.
    pub fn permute(&self, perm: &[usize]) -> Result<Tensor> {
        let rank = self.rank();
        if perm.len() != rank {
            return Err(TensorError::Invalid(format!(
                "permute: permutation {perm:?} has wrong length for rank {rank}"
            )));
        }
        let mut seen = vec![false; rank];
        for &p in perm {
            check_axis("permute", p, rank)?;
            if seen[p] {
                return Err(TensorError::Invalid(format!(
                    "permute: axis {p} repeated in {perm:?}"
                )));
            }
            seen[p] = true;
        }
        let in_strides = strides(self.shape());
        let out_shape: Vec<usize> = perm.iter().map(|&p| self.shape()[p]).collect();
        // Input stride to advance when the o-th *output* axis increments.
        let walk: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
        let n = self.len();
        // Trailing axes the permutation leaves in place stay contiguous
        // with equal strides on both sides, so they move as one
        // `copy_from_slice` block per odometer step instead of
        // element-by-element. Attention-style permutes keep the feature
        // axis last, making this the common case; a permutation that
        // moves the last axis has `inner == 1` and walks elements.
        let mut k = rank;
        while k > 0 && perm[k - 1] == k - 1 {
            k -= 1;
        }
        let inner: usize = self.shape()[k..].iter().product();
        let mut data = memory::take_scratch(n);
        if inner > 1 {
            let src_all = self.data();
            let mut idx = vec![0usize; k];
            let mut src = 0usize;
            for block in data.chunks_exact_mut(inner) {
                block.copy_from_slice(&src_all[src..src + inner]);
                for ax in (0..k).rev() {
                    idx[ax] += 1;
                    src += walk[ax];
                    if idx[ax] < out_shape[ax] {
                        break;
                    }
                    idx[ax] = 0;
                    src -= walk[ax] * out_shape[ax];
                }
            }
        } else {
            let mut idx = vec![0usize; rank];
            let mut src = 0usize;
            for slot in data.iter_mut() {
                *slot = self.data()[src];
                for ax in (0..rank).rev() {
                    idx[ax] += 1;
                    src += walk[ax];
                    if idx[ax] < out_shape[ax] {
                        break;
                    }
                    idx[ax] = 0;
                    src -= walk[ax] * out_shape[ax];
                }
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Swap two axes (a generalized transpose).
    pub fn swap_axes(&self, a: usize, b: usize) -> Result<Tensor> {
        check_axis("swap_axes", a, self.rank())?;
        check_axis("swap_axes", b, self.rank())?;
        let mut perm: Vec<usize> = (0..self.rank()).collect();
        perm.swap(a, b);
        self.permute(&perm)
    }

    /// Transpose the last two axes — the "matrix transpose" used by
    /// attention (`K^T`) and by matmul gradients.
    pub fn transpose_last2(&self) -> Result<Tensor> {
        if self.rank() < 2 {
            return Err(TensorError::RankTooSmall {
                op: "transpose_last2",
                required: 2,
                actual: self.rank(),
            });
        }
        self.swap_axes(self.rank() - 2, self.rank() - 1)
    }

    /// Copy a contiguous range along `axis`: elements `start..start+len`.
    pub fn narrow(&self, axis: usize, start: usize, len: usize) -> Result<Tensor> {
        check_axis("narrow", axis, self.rank())?;
        let axis_len = self.shape()[axis];
        if start + len > axis_len {
            return Err(TensorError::InvalidRange {
                op: "narrow",
                start,
                end: start + len,
                len: axis_len,
            });
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let run = len * inner;
        let mut data = memory::take_scratch(outer * run);
        for o in 0..outer {
            let base = o * axis_len * inner + start * inner;
            data[o * run..(o + 1) * run].copy_from_slice(&self.data()[base..base + run]);
        }
        let mut shape = self.shape().to_vec();
        shape[axis] = len;
        Tensor::from_vec(data, &shape)
    }

    /// Gather arbitrary indices along `axis`.
    pub fn index_select(&self, axis: usize, indices: &[usize]) -> Result<Tensor> {
        check_axis("index_select", axis, self.rank())?;
        let axis_len = self.shape()[axis];
        for &i in indices {
            if i >= axis_len {
                return Err(TensorError::IndexOutOfBounds {
                    op: "index_select",
                    index: i,
                    len: axis_len,
                });
            }
        }
        let outer: usize = self.shape()[..axis].iter().product();
        let inner: usize = self.shape()[axis + 1..].iter().product();
        let mut data = memory::take_scratch(outer * indices.len() * inner);
        let mut dst = 0;
        for o in 0..outer {
            for &i in indices {
                let base = o * axis_len * inner + i * inner;
                data[dst..dst + inner].copy_from_slice(&self.data()[base..base + inner]);
                dst += inner;
            }
        }
        let mut shape = self.shape().to_vec();
        shape[axis] = indices.len();
        Tensor::from_vec(data, &shape)
    }

    /// Materialize the broadcast of this tensor to `target` shape.
    pub fn broadcast_to(&self, target: &[usize]) -> Result<Tensor> {
        let out_shape = broadcast_shapes("broadcast_to", self.shape(), target)?;
        if out_shape != target {
            return Err(TensorError::ShapeMismatch {
                op: "broadcast_to",
                lhs: self.shape().to_vec(),
                rhs: target.to_vec(),
            });
        }
        if out_shape == self.shape() {
            return Ok(self.clone());
        }
        let rank = out_shape.len();
        let walk = broadcast_strides(self.shape(), &out_shape);
        let n = volume(&out_shape);
        let mut data = memory::take_scratch(n);
        let mut idx = vec![0usize; rank];
        let mut src = 0usize;
        for slot in data.iter_mut() {
            *slot = self.data()[src];
            for ax in (0..rank).rev() {
                idx[ax] += 1;
                src += walk[ax];
                if idx[ax] < out_shape[ax] {
                    break;
                }
                idx[ax] = 0;
                src -= walk[ax] * out_shape[ax];
            }
        }
        Tensor::from_vec(data, &out_shape)
    }

    /// Append `count` copies of `value` along `axis` (end padding) — used
    /// to make a series length divisible by the window size.
    pub fn pad_end(&self, axis: usize, count: usize, value: f32) -> Result<Tensor> {
        check_axis("pad_end", axis, self.rank())?;
        if count == 0 {
            return Ok(self.clone());
        }
        let mut pad_shape = self.shape().to_vec();
        pad_shape[axis] = count;
        let pad = Tensor::full(&pad_shape, value);
        concat(&[self, &pad], axis)
    }
}

/// Concatenate tensors along `axis`. All shapes must match outside `axis`.
pub fn concat(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = tensors
        .first()
        .ok_or_else(|| TensorError::Invalid("concat: need at least one tensor".to_string()))?;
    check_axis("concat", axis, first.rank())?;
    let mut axis_total = 0;
    for t in tensors {
        if t.rank() != first.rank() {
            return Err(TensorError::ShapeMismatch {
                op: "concat",
                lhs: first.shape().to_vec(),
                rhs: t.shape().to_vec(),
            });
        }
        for d in 0..first.rank() {
            if d != axis && t.shape()[d] != first.shape()[d] {
                return Err(TensorError::ShapeMismatch {
                    op: "concat",
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                });
            }
        }
        axis_total += t.shape()[axis];
    }
    let outer: usize = first.shape()[..axis].iter().product();
    let inner: usize = first.shape()[axis + 1..].iter().product();
    let mut data = memory::take_scratch(outer * axis_total * inner);
    let mut dst = 0;
    for o in 0..outer {
        for t in tensors {
            let run = t.shape()[axis] * inner;
            let base = o * run;
            data[dst..dst + run].copy_from_slice(&t.data()[base..base + run]);
            dst += run;
        }
    }
    let mut shape = first.shape().to_vec();
    shape[axis] = axis_total;
    Tensor::from_vec(data, &shape)
}

/// Stack equal-shape tensors along a new leading axis at `axis`.
pub fn stack(tensors: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = tensors
        .first()
        .ok_or_else(|| TensorError::Invalid("stack: need at least one tensor".to_string()))?;
    let unsqueezed: Vec<Tensor> = tensors
        .iter()
        .map(|t| {
            if t.shape() != first.shape() {
                Err(TensorError::ShapeMismatch {
                    op: "stack",
                    lhs: first.shape().to_vec(),
                    rhs: t.shape().to_vec(),
                })
            } else {
                t.unsqueeze(axis)
            }
        })
        .collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = unsqueezed.iter().collect();
    concat(&refs, axis)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(data: &[f32], shape: &[usize]) -> Tensor {
        Tensor::from_vec(data.to_vec(), shape).unwrap()
    }

    #[test]
    fn reshape_roundtrip() {
        let x = Tensor::arange(6);
        let m = x.reshape(&[2, 3]).unwrap();
        assert_eq!(m.at(&[1, 0]), 3.0);
        assert!(x.reshape(&[4]).is_err());
    }

    #[test]
    fn unsqueeze_squeeze() {
        let x = Tensor::arange(3);
        let u = x.unsqueeze(0).unwrap();
        assert_eq!(u.shape(), &[1, 3]);
        let u2 = x.unsqueeze(1).unwrap();
        assert_eq!(u2.shape(), &[3, 1]);
        assert_eq!(u.squeeze(0).unwrap().shape(), &[3]);
        assert!(u2.squeeze(0).is_err()); // axis 0 has length 3
    }

    #[test]
    fn transpose_2d() {
        let x = t(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]);
        let y = x.transpose_last2().unwrap();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1.0, 4.0, 2.0, 5.0, 3.0, 6.0]);
    }

    #[test]
    fn permute_3d() {
        let x = Tensor::from_fn(&[2, 3, 4], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let y = x.permute(&[2, 0, 1]).unwrap();
        assert_eq!(y.shape(), &[4, 2, 3]);
        assert_eq!(y.at(&[3, 1, 2]), x.at(&[1, 2, 3]));
        assert!(x.permute(&[0, 0, 1]).is_err());
        assert!(x.permute(&[0, 1]).is_err());
    }

    #[test]
    fn double_transpose_is_identity() {
        let x = Tensor::from_fn(&[3, 5], |i| (i[0] * 7 + i[1]) as f32);
        let y = x.transpose_last2().unwrap().transpose_last2().unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn narrow_middle_axis() {
        let x = Tensor::from_fn(&[2, 4, 3], |i| (i[0] * 100 + i[1] * 10 + i[2]) as f32);
        let y = x.narrow(1, 1, 2).unwrap();
        assert_eq!(y.shape(), &[2, 2, 3]);
        assert_eq!(y.at(&[0, 0, 0]), x.at(&[0, 1, 0]));
        assert_eq!(y.at(&[1, 1, 2]), x.at(&[1, 2, 2]));
        assert!(x.narrow(1, 3, 2).is_err());
    }

    #[test]
    fn index_select_reorders() {
        let x = t(&[10.0, 11.0, 20.0, 21.0, 30.0, 31.0], &[3, 2]);
        let y = x.index_select(0, &[2, 0]).unwrap();
        assert_eq!(y.data(), &[30.0, 31.0, 10.0, 11.0]);
        assert!(x.index_select(0, &[5]).is_err());
    }

    #[test]
    fn index_select_repeats() {
        let x = t(&[1.0, 2.0], &[2, 1]);
        let y = x.index_select(0, &[0, 0, 1]).unwrap();
        assert_eq!(y.data(), &[1.0, 1.0, 2.0]);
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = t(&[1.0, 2.0], &[1, 2]);
        let b = t(&[3.0, 4.0], &[1, 2]);
        let c0 = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c0.shape(), &[2, 2]);
        assert_eq!(c0.data(), &[1.0, 2.0, 3.0, 4.0]);
        let c1 = concat(&[&a, &b], 1).unwrap();
        assert_eq!(c1.shape(), &[1, 4]);
        assert_eq!(c1.data(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn concat_shape_checks() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[3, 3]);
        assert!(concat(&[&a, &b], 0).is_err());
        assert!(concat(&[], 0).is_err());
    }

    #[test]
    fn stack_adds_axis() {
        let a = Tensor::ones(&[2]);
        let b = Tensor::zeros(&[2]);
        let s = stack(&[&a, &b], 0).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[1.0, 1.0, 0.0, 0.0]);
        let s1 = stack(&[&a, &b], 1).unwrap();
        assert_eq!(s1.shape(), &[2, 2]);
        assert_eq!(s1.data(), &[1.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn broadcast_to_materializes() {
        let x = t(&[1.0, 2.0], &[1, 2]);
        let y = x.broadcast_to(&[3, 2]).unwrap();
        assert_eq!(y.shape(), &[3, 2]);
        assert_eq!(y.data(), &[1.0, 2.0, 1.0, 2.0, 1.0, 2.0]);
        // Target must be an actual broadcast (no shrinking).
        assert!(Tensor::zeros(&[3, 2]).broadcast_to(&[1, 2]).is_err());
    }

    #[test]
    fn pad_end_extends_axis() {
        let x = t(&[1.0, 2.0], &[1, 2]);
        let y = x.pad_end(1, 2, 0.0).unwrap();
        assert_eq!(y.shape(), &[1, 4]);
        assert_eq!(y.data(), &[1.0, 2.0, 0.0, 0.0]);
        assert_eq!(x.pad_end(1, 0, 0.0).unwrap(), x);
    }
}
