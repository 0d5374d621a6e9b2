//! Run-once data preparation — dataset generation, the scaler fit and
//! the train / val / test windows — reads the raw series in place: it
//! parks no buffer in the tensor pool, whose high-water rule would keep
//! it for the rest of the process, and it keeps the bits of the tensor
//! chain it replaced.
//!
//! It reads the process-global `memory::pool_stats()`, so it is the
//! only test in its binary.

use stwa_tensor::{memory, Tensor};
use stwa_traffic::{DatasetConfig, Scaler, TrafficDataset};

/// The scaler fit as a chain of tensor ops over a copy of the train rows
/// (the first 60 % of the timeline).
fn chain_fit(raw: &Tensor) -> Scaler {
    let train = raw.narrow(1, 0, raw.shape()[1] * 6 / 10).unwrap();
    let mean = train.mean_all().item().unwrap();
    let var = train.add_scalar(-mean).square().mean_all().item().unwrap();
    Scaler {
        mean,
        std: var.sqrt().max(1e-6),
    }
}

fn assert_same_bits(got: &Tensor, want: &Tensor, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    let same = got
        .data()
        .iter()
        .zip(want.data())
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{what}: bits differ");
}

#[test]
fn data_preparation_keeps_its_bits_and_parks_nothing_in_the_pool() {
    for (config, stride) in [
        (DatasetConfig::small(), 1),
        (DatasetConfig::pems08_like(), 7),
    ] {
        let name = config.name.clone();
        let (h, u) = (12, 12);
        let held = memory::pool_stats().held_bytes;
        let ds = TrafficDataset::generate(config);
        let splits = [
            ds.train(h, u, stride).unwrap(),
            ds.val(h, u, stride).unwrap(),
            ds.test(h, u, stride).unwrap(),
        ];
        assert_eq!(
            memory::pool_stats().held_bytes,
            held,
            "{name}: generation and splits parked buffers in the pool"
        );

        let raw = ds.raw();
        let (scaler, reference) = (ds.scaler(), chain_fit(raw));
        assert_eq!(
            scaler.mean.to_bits(),
            reference.mean.to_bits(),
            "{name}: mean"
        );
        assert_eq!(scaler.std.to_bits(), reference.std.to_bits(), "{name}: std");

        let normalized = scaler.transform(raw);
        let t = ds.num_timestamps();
        let bounds = [(0, t * 6 / 10), (t * 6 / 10, t * 8 / 10), (t * 8 / 10, t)];
        for (split, (start, end)) in splits.iter().zip(bounds) {
            let num = (end - start - h - u) / stride + 1;
            assert_eq!(
                split.x.shape()[0],
                num,
                "{name}: samples in [{start}, {end})"
            );
            for s in 0..num {
                let origin = start + s * stride;
                let what = format!("{name}: window at {origin}");
                assert_same_bits(
                    &split.x.narrow(0, s, 1).unwrap(),
                    &normalized.narrow(1, origin, h).unwrap(),
                    &what,
                );
                assert_same_bits(
                    &split.y.narrow(0, s, 1).unwrap(),
                    &raw.narrow(1, origin + h, u).unwrap(),
                    &what,
                );
            }
        }
    }
}
