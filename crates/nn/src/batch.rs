//! Mini-batch iteration over sample-major tensors.

use rand::seq::SliceRandom;
use rand::Rng;
use stwa_tensor::{Result, Tensor, TensorError};

/// Yields `(inputs, targets)` mini-batches from two tensors whose first
/// axis indexes samples.
///
/// The iterator owns a (possibly shuffled) index order and materializes
/// each batch with `index_select`, so the source tensors are borrowed for
/// the iterator's lifetime only.
pub struct BatchIter<'a> {
    x: &'a Tensor,
    y: &'a Tensor,
    order: Vec<usize>,
    batch_size: usize,
    cursor: usize,
    drop_last: bool,
}

impl<'a> BatchIter<'a> {
    /// Sequential (unshuffled) batches — evaluation order.
    pub fn new(x: &'a Tensor, y: &'a Tensor, batch_size: usize) -> Result<BatchIter<'a>> {
        if x.rank() == 0 || y.rank() == 0 || x.shape()[0] != y.shape()[0] {
            return Err(TensorError::ShapeMismatch {
                op: "BatchIter",
                lhs: x.shape().to_vec(),
                rhs: y.shape().to_vec(),
            });
        }
        if batch_size == 0 {
            return Err(TensorError::Invalid(
                "BatchIter: batch_size must be > 0".into(),
            ));
        }
        Ok(BatchIter {
            x,
            y,
            order: (0..x.shape()[0]).collect(),
            batch_size,
            cursor: 0,
            drop_last: false,
        })
    }

    /// Shuffled batches — training order. The RNG decides the epoch's
    /// permutation; pass a per-epoch-seeded RNG for reproducibility.
    pub fn shuffled(
        x: &'a Tensor,
        y: &'a Tensor,
        batch_size: usize,
        rng: &mut impl Rng,
    ) -> Result<BatchIter<'a>> {
        let mut it = BatchIter::new(x, y, batch_size)?;
        it.order.shuffle(rng);
        Ok(it)
    }

    /// Skip the final smaller-than-batch_size remainder batch.
    pub fn drop_last(mut self) -> Self {
        self.drop_last = true;
        self
    }

    /// Number of batches this iterator will yield.
    pub fn num_batches(&self) -> usize {
        let n = self.order.len();
        if self.drop_last {
            n / self.batch_size
        } else {
            n.div_ceil(self.batch_size)
        }
    }
}

/// Drive `f` over shuffled batches while the *next* batch is gathered
/// on a background thread (double buffering): batch `t+1` is cut from
/// the sample tensors while `f` trains on batch `t`.
///
/// A [`Tensor`] is not `Send` (its storage is `Rc`-shared), so the
/// producer ships raw `Vec<f32>` row gathers and the consumer rewraps
/// them. The gather copies exactly the rows `index_select` copies —
/// moving `f32`s never changes their bits — so the batches `f` sees
/// are bitwise identical to [`BatchIter::shuffled`] with the same RNG;
/// only the overlap with compute differs.
pub fn prefetched_shuffled<F>(
    x: &Tensor,
    y: &Tensor,
    batch_size: usize,
    rng: &mut impl Rng,
    mut f: F,
) -> Result<()>
where
    F: FnMut(Tensor, Tensor) -> Result<()>,
{
    let it = BatchIter::shuffled(x, y, batch_size, rng)?;
    let order = it.order;
    if order.is_empty() {
        return Ok(());
    }
    let n = order.len();
    let (xd, yd) = (x.data(), y.data());
    let (xrow, yrow) = (xd.len() / n, yd.len() / n);
    let mut xshape = x.shape().to_vec();
    let mut yshape = y.shape().to_vec();

    std::thread::scope(|s| -> Result<()> {
        // Capacity 1 + the batch being gathered = two batches in
        // flight; the producer blocks until the trainer catches up.
        let (tx, rx) = std::sync::mpsc::sync_channel::<(Vec<f32>, Vec<f32>, usize)>(1);
        let order = &order;
        s.spawn(move || {
            for chunk in order.chunks(batch_size) {
                let mut bx = Vec::with_capacity(chunk.len() * xrow);
                let mut by = Vec::with_capacity(chunk.len() * yrow);
                for &i in chunk {
                    bx.extend_from_slice(&xd[i * xrow..(i + 1) * xrow]);
                    by.extend_from_slice(&yd[i * yrow..(i + 1) * yrow]);
                }
                if tx.send((bx, by, chunk.len())).is_err() {
                    return; // consumer bailed out early
                }
            }
        });
        while let Ok((bx, by, take)) = rx.recv() {
            xshape[0] = take;
            yshape[0] = take;
            f(
                Tensor::from_vec(bx, &xshape)?,
                Tensor::from_vec(by, &yshape)?,
            )?;
        }
        Ok(())
    })
}

impl Iterator for BatchIter<'_> {
    type Item = (Tensor, Tensor);

    fn next(&mut self) -> Option<(Tensor, Tensor)> {
        let remaining = self.order.len() - self.cursor;
        if remaining == 0 || (self.drop_last && remaining < self.batch_size) {
            return None;
        }
        let take = remaining.min(self.batch_size);
        let idx = &self.order[self.cursor..self.cursor + take];
        self.cursor += take;
        // Indices come from 0..shape[0], so selection cannot fail.
        let bx = self.x.index_select(0, idx).expect("batch index in range");
        let by = self.y.index_select(0, idx).expect("batch index in range");
        Some((bx, by))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn samples(n: usize) -> (Tensor, Tensor) {
        let x = Tensor::from_fn(&[n, 2], |i| i[0] as f32);
        let y = Tensor::from_fn(&[n, 1], |i| i[0] as f32);
        (x, y)
    }

    #[test]
    fn sequential_covers_all_rows_in_order() {
        let (x, y) = samples(5);
        let batches: Vec<_> = BatchIter::new(&x, &y, 2).unwrap().collect();
        assert_eq!(batches.len(), 3);
        assert_eq!(batches[0].0.shape(), &[2, 2]);
        assert_eq!(batches[2].0.shape(), &[1, 2]); // remainder
        assert_eq!(batches[0].0.at(&[0, 0]), 0.0);
        assert_eq!(batches[2].1.at(&[0, 0]), 4.0);
    }

    #[test]
    fn drop_last_skips_remainder() {
        let (x, y) = samples(5);
        let it = BatchIter::new(&x, &y, 2).unwrap().drop_last();
        assert_eq!(it.num_batches(), 2);
        assert_eq!(it.count(), 2);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let (x, y) = samples(7);
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen: Vec<f32> = BatchIter::shuffled(&x, &y, 3, &mut rng)
            .unwrap()
            .flat_map(|(_, by)| by.data().to_vec())
            .collect();
        seen.sort_by(f32::total_cmp);
        assert_eq!(seen, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
    }

    #[test]
    fn x_and_y_stay_aligned_under_shuffle() {
        let (x, y) = samples(10);
        let mut rng = StdRng::seed_from_u64(9);
        for (bx, by) in BatchIter::shuffled(&x, &y, 4, &mut rng).unwrap() {
            for r in 0..bx.shape()[0] {
                assert_eq!(bx.at(&[r, 0]), by.at(&[r, 0]));
            }
        }
    }

    #[test]
    fn prefetched_batches_match_batchiter_bitwise() {
        let (x, y) = samples(11);
        // Same seed -> same permutation; the prefetch path must yield
        // the same batches, bit for bit, including the remainder.
        let want: Vec<_> = BatchIter::shuffled(&x, &y, 4, &mut StdRng::seed_from_u64(5))
            .unwrap()
            .collect();
        let mut got: Vec<(Tensor, Tensor)> = Vec::new();
        prefetched_shuffled(&x, &y, 4, &mut StdRng::seed_from_u64(5), |bx, by| {
            got.push((bx, by));
            Ok(())
        })
        .unwrap();
        assert_eq!(want.len(), got.len());
        for ((wx, wy), (gx, gy)) in want.iter().zip(&got) {
            assert_eq!(wx.shape(), gx.shape());
            assert_eq!(wx.data(), gx.data());
            assert_eq!(wy.data(), gy.data());
        }
    }

    #[test]
    fn prefetched_consumes_rng_like_shuffled() {
        // Both paths must advance the epoch RNG identically so a
        // epochs after a prefetched one shuffle exactly as they did.
        let (x, y) = samples(9);
        let mut a = StdRng::seed_from_u64(77);
        let mut b = StdRng::seed_from_u64(77);
        BatchIter::shuffled(&x, &y, 2, &mut a).unwrap();
        prefetched_shuffled(&x, &y, 2, &mut b, |_, _| Ok(())).unwrap();
        use rand::RngCore;
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn prefetched_propagates_callback_errors() {
        let (x, y) = samples(8);
        let mut calls = 0;
        let err = prefetched_shuffled(&x, &y, 2, &mut StdRng::seed_from_u64(1), |_, _| {
            calls += 1;
            if calls == 2 {
                Err(TensorError::Invalid("stop".into()))
            } else {
                Ok(())
            }
        });
        assert!(err.is_err());
        assert_eq!(calls, 2);
    }

    #[test]
    fn mismatched_sample_counts_rejected() {
        let x = Tensor::zeros(&[4, 2]);
        let y = Tensor::zeros(&[5, 1]);
        assert!(BatchIter::new(&x, &y, 2).is_err());
        assert!(BatchIter::new(&x, &x, 0).is_err());
    }
}
