//! Sensor-attention scaling harness: measures the sparse O(N·k)
//! correlation-attention path against the dense O(N²) path on
//! corridor topologies from the synthetic generator, and checks that
//! sparse step time stays near-linear in N at fixed k — all the way to
//! the city-scale 10k-sensor regime where the dense score matrix
//! (400 MB at N=10240) is no longer a sane thing to materialize.
//!
//! `bench_attention [--out PATH | --check PATH]` (see `stwa_bench::gate`):
//! `--check` fails an entry whose speedup fell more than 15 % below the
//! baseline's. Every speedup is a median over alternating bursts of a
//! reference and the sparse kernel in one run, so the gate is portable
//! across hosts of different absolute speed.
//!
//! Two entry families:
//!
//! - `sparse_vs_dense_N`: reference is the dense attend at N sensors,
//!   kernel is the sparse attend on the same inputs over a hops=8
//!   corridor graph (k <= 17). Speedup grows with N/k.
//! - `sparse_scaling_N`: reference is a *linear budget* — the sparse
//!   attend at N=512, timed in alternation with the one at N, scaled by
//!   N/512. Near-linear scaling keeps this ratio around 1.0; a
//!   quadratic term would drive it toward 512/N. The run fails outright
//!   below [`LINEARITY_FLOOR`], independent of any baseline.
//!
//! Before timing anything the harness asserts the sparse kernel with a
//! complete graph is bitwise identical to the dense chain — a perf
//! suite that silently measures a wrong kernel is worse than none.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_bench::gate::{self, Fields, Gate, Limit};
use stwa_observe::Json;
use stwa_tensor::{linalg, mathfn, sparse, Tensor};
use stwa_traffic::RoadNetwork;

/// Hard floor on `sparse_scaling_*` speedups: actual sparse time may be
/// at most 2.5x the linear extrapolation from N=512. A quadratic path
/// lands near 512/N (0.125 at N=4096) and fails loudly.
const LINEARITY_FLOOR: f64 = 0.4;

/// Feature dimension of the attention embeddings (matches the models'
/// default `d`).
const D: usize = 32;

/// Corridor length used for every topology; hops=8 then caps the
/// neighborhood at k = 17 regardless of N.
const SENSORS_PER_CORRIDOR: usize = 64;
const HOPS: usize = 8;

/// The dense sensor-correlation attend: fused scores + in-place scaled
/// softmax + mix, exactly what the frozen engine runs in dense mode.
fn dense_attend(q: &Tensor, k: &Tensor, h: &Tensor, scale: f32) -> Tensor {
    let mut scores = linalg::matmul_nt(q, k).unwrap();
    let t = scores.shape()[scores.rank() - 1];
    for row in scores.data_mut().chunks_exact_mut(t) {
        let mut m = f32::NEG_INFINITY;
        for x in row.iter_mut() {
            *x *= scale;
            m = m.max(*x);
        }
        mathfn::exp_sub_slice(row, m);
        let mut z = 0.0f32;
        for &x in row.iter() {
            z += x;
        }
        for x in row.iter_mut() {
            *x /= z;
        }
    }
    linalg::matmul(&scores, h).unwrap()
}

/// `(q, k, h, graph)` for an N-sensor corridor city.
fn inputs(n: usize, rng: &mut StdRng) -> (Tensor, Tensor, Tensor, sparse::SensorGraph) {
    assert_eq!(n % SENSORS_PER_CORRIDOR, 0);
    let net = RoadNetwork::generate(n / SENSORS_PER_CORRIDOR, SENSORS_PER_CORRIDOR, rng);
    let graph = net.sensor_graph(HOPS);
    let q = Tensor::randn(&[1, n, D], rng);
    let k = Tensor::randn(&[1, n, D], rng);
    let h = Tensor::randn(&[1, n, D], rng);
    (q, k, h, graph)
}

/// Bitwise self-check: sparse attention over a complete graph must
/// reproduce the dense chain exactly, or every timing below is
/// measuring the wrong kernel.
fn assert_sparse_equals_dense_bitwise(rng: &mut StdRng) {
    let scale = 1.0 / (D as f32).sqrt();
    for n in [3usize, 17, 64] {
        let q = Tensor::randn(&[2, n, D], rng);
        let k = Tensor::randn(&[2, n, D], rng);
        let h = Tensor::randn(&[2, n, D], rng);
        let complete = sparse::SensorGraph::complete(n);
        let (got, _) = sparse::sparse_attention_forward(&q, &k, &h, &complete, scale).unwrap();
        let want = dense_attend(&q, &k, &h, scale);
        assert_eq!(
            got.data(),
            want.data(),
            "sparse attend diverged from dense at n={n}"
        );
    }
}

/// The sparse attend over `inputs`' graph, one call.
fn sparse_attend(inputs: &(Tensor, Tensor, Tensor, sparse::SensorGraph)) {
    let (q, k, h, graph) = inputs;
    let scale = 1.0 / (D as f32).sqrt();
    std::hint::black_box(sparse::sparse_attention_forward(q, k, h, graph, scale).unwrap());
}

struct Entry {
    name: String,
    n: usize,
    nnz: usize,
    reference_ms: f64,
    kernel_ms: f64,
    speedup: f64,
}

fn run_suite() -> Vec<Entry> {
    let mut rng = StdRng::seed_from_u64(42);
    assert_sparse_equals_dense_bitwise(&mut rng);
    let scale = 1.0 / (D as f32).sqrt();
    let at_512 = inputs(512, &mut rng);
    let mut entries = Vec::new();

    // Head-to-head at sizes where the dense path is still affordable.
    let at_2048 = inputs(2048, &mut rng);
    for (n, x) in [(512usize, &at_512), (2048, &at_2048)] {
        let pairs = gate::interleave(
            gate::calls(|| {
                std::hint::black_box(dense_attend(&x.0, &x.1, &x.2, scale));
            }),
            gate::calls(|| sparse_attend(x)),
        );
        entries.push(Entry {
            name: format!("sparse_vs_dense_{n}"),
            n,
            nnz: x.3.nnz(),
            reference_ms: gate::percentile(&pairs.a_ms, 0.5),
            kernel_ms: gate::percentile(&pairs.b_ms, 0.5),
            speedup: pairs.ratio,
        });
    }

    // Scaling entries: the reference is a linear budget extrapolated
    // from N=512, not a measured dense run — at N=10240 the dense score
    // matrix alone is 10240^2 floats = 400 MB.
    for n in [4096usize, 10_240] {
        let x = inputs(n, &mut rng);
        let pairs = gate::interleave(
            gate::calls(|| sparse_attend(&at_512)),
            gate::calls(|| sparse_attend(&x)),
        );
        let budget = n as f64 / 512.0;
        entries.push(Entry {
            name: format!("sparse_scaling_{n}"),
            n,
            nnz: x.3.nnz(),
            reference_ms: gate::percentile(&pairs.a_ms, 0.5) * budget,
            kernel_ms: gate::percentile(&pairs.b_ms, 0.5),
            speedup: pairs.ratio * budget,
        });
    }
    entries
}

fn main() {
    let mut gate = Gate::from_args("BENCH_attention.json");
    let entries = run_suite();
    println!(
        "{:<22} {:>18} {:>12} {:>11} {:>8}",
        "entry", "shape", "ref ms", "sparse ms", "speedup"
    );
    let mut report = Fields::default();
    for e in entries {
        let shape = format!("n={} k<=17 d={D}", e.n);
        println!(
            "{:<22} {shape:>18} {:>12.3} {:>11.3} {:>7.2}x",
            e.name, e.reference_ms, e.kernel_ms, e.speedup
        );
        let key = format!("entries.{}.speedup", e.name);
        gate.check(&key, e.speedup, Limit::Floor);
        if e.name.starts_with("sparse_scaling") {
            gate.check(&key, e.speedup, Limit::AtLeast(LINEARITY_FLOOR));
        }
        let entry = Fields::default()
            .put("shape", Json::Str(shape))
            .num("flops", (4 * e.nnz * D) as f64)
            .num("reference_ms", e.reference_ms)
            .num("kernel_ms", e.kernel_ms)
            .num("speedup", e.speedup);
        report = report.put(e.name, entry.into());
    }
    gate.finish(Fields::default().put("entries", report.into()));
}
