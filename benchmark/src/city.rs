//! `infer_city`: the inference engine used the other way round from
//! serving. One caller, batch 1, but 1 024 sensors with sparse
//! corridor-local sensor attention, so thousand-row GEMMs and the
//! sparse kernel dominate and per-call overhead vanishes. A change
//! that speeds up 48-sensor serving by adding freeze-time or
//! per-sensor state pays for it here.

use std::io;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use stwa_core::StwaModel;
use stwa_infer::InferSession;
use stwa_tensor::Tensor;
use stwa_traffic::{Scaler, TrafficDataset};

use crate::other;
use crate::report::{cpu_seconds, peak_rss_mib, Report};
use crate::stats::{percentile, sort, supported, Phase, Sample};
use crate::subject::{city_dataset, smoke_city_dataset, weights_seed, Subject};
use crate::trace::Tracer;

/// Forwards run before timing starts.
const WARM_FORWARDS: usize = 40;
/// Test windows whose forecasts are scored against the data.
const SCORED_WINDOWS: usize = 16;

pub struct Rig {
    pub subject: Subject,
    model: StwaModel,
    session: InferSession,
    /// Batch-1 inputs cut from the dataset's test windows, in the
    /// order the seed visits them.
    inputs: Vec<Tensor>,
    /// The first [`SCORED_WINDOWS`] test windows, in dataset order,
    /// with their raw-scale targets.
    scored: Vec<(Tensor, Tensor)>,
    scaler: Scaler,
}

impl Rig {
    /// Everything before the first timed call: generate the network
    /// and two days of traffic, build and freeze the model, cut the
    /// windows, warm up.
    pub fn setup(seed: u64, smoke: bool) -> io::Result<Rig> {
        let dataset: TrafficDataset = if smoke {
            smoke_city_dataset()
        } else {
            city_dataset()
        };
        let subject = Subject::city(&dataset);
        let dims = subject.dims();
        let model = subject.build(weights_seed(1));
        let session = InferSession::new(&model).map_err(other)?;
        let split = dataset.test(dims.h, dims.u, 1).map_err(other)?;
        let count = split.x.shape()[0];
        let window = |t: &Tensor, i: usize| t.narrow(0, i, 1);
        let mut order: Vec<usize> = (0..count).collect();
        order.shuffle(&mut StdRng::seed_from_u64(seed));
        let inputs = order
            .iter()
            .map(|&i| window(&split.x, i))
            .collect::<Result<Vec<_>, _>>()
            .map_err(other)?;
        let scored = (0..SCORED_WINDOWS.min(count))
            .map(|i| Ok((window(&split.x, i)?, window(&split.y, i)?)))
            .collect::<stwa_tensor::Result<Vec<_>>>()
            .map_err(other)?;
        let rig = Rig {
            subject,
            model,
            session,
            inputs,
            scored,
            scaler: dataset.scaler(),
        };
        for i in 0..if smoke { 4 } else { WARM_FORWARDS } {
            rig.session
                .run(&rig.inputs[i % rig.inputs.len()])
                .map_err(other)?;
        }
        Ok(rig)
    }

    /// Closed loop: one caller, next call when the previous returned.
    fn closed(&self, duration_s: f64, mut tracer: Option<&mut Tracer>) -> io::Result<Phase> {
        let t0 = Instant::now();
        let mut samples = Vec::new();
        while t0.elapsed().as_secs_f64() < duration_s {
            let x = &self.inputs[samples.len() % self.inputs.len()];
            let id = samples.len() as u64;
            let started = Instant::now();
            let out = match tracer.as_deref_mut() {
                Some(tr) => tr.span("insitu.infer.run", id, |_| self.session.run(x)).0,
                None => self.session.run(x),
            }
            .map_err(other)?;
            samples.push(Sample {
                at_s: t0.elapsed().as_secs_f64(),
                latency_us: started.elapsed().as_secs_f64() * 1e6,
            });
            std::hint::black_box(out);
        }
        Ok(Phase {
            duration_s,
            samples,
        })
    }

    /// The engine's contract, and the forecast error against the data.
    fn check(&self, report: &mut Report) -> io::Result<()> {
        let x = &self.inputs[0];
        let frozen = self.session.run(x).map_err(other)?;
        let graph = self.model.forward_nograd(x).map_err(other)?;
        let same = frozen
            .data()
            .iter()
            .zip(graph.data())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        report.check("first batch is bitwise StwaModel::forward_nograd", same);
        let (mut abs_sum, mut count) = (0.0f64, 0usize);
        for (x, y) in &self.scored {
            let pred = self.session.run(x).map_err(other)?;
            report.check(
                "forecast is finite",
                pred.data().iter().all(|v| v.is_finite()),
            );
            for (p, truth) in pred.data().iter().zip(y.data()) {
                abs_sum += (p * self.scaler.std + self.scaler.mean - truth).abs() as f64;
                count += 1;
            }
        }
        report.put("forecast_mae", abs_sum / count.max(1) as f64, "flow", count);
        Ok(())
    }
}

pub fn run(seed: u64, seconds: f64, setups: usize, smoke: bool) -> io::Result<Report> {
    let mut report = Report::new("infer_city");
    let rig = crate::timed_setups(&mut report, setups, |_| Rig::setup(seed, smoke), drop)?;

    let cpu0 = cpu_seconds();
    let phase = rig.closed(seconds, None)?;
    let cpu_s = cpu_seconds() - cpu0;
    let n = phase.samples.len();
    report.attempted += n as u64;
    report.put("throughput_per_s", phase.rate_per_s(), "1/s", n);
    report.put("cpu_us_per_op", cpu_s * 1e6 / n.max(1) as f64, "us", n);
    report.put_latencies(n, |q| phase.latency_us(q));
    rig.check(&mut report)?;
    report.put(
        "ok_share",
        1.0 - report.error_share(),
        "ratio",
        report.attempted as usize,
    );
    report.put("peak_rss_mib", peak_rss_mib(), "MiB", 1);
    Ok(report)
}

/// The in-situ part of the traced run: the closed loop alternated
/// between tracing off and on (`stwa_observe` plus one benchmark span
/// per call).
pub fn run_traced(
    seed: u64,
    seconds: f64,
    smoke: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<Rig> {
    let rig = Rig::setup(seed, smoke)?;
    let rounds = 4;
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let mut untraced_us = Vec::new();
    for _ in 0..rounds {
        for on in [false, true] {
            stwa_observe::set_enabled(on);
            let phase = rig.closed(seconds / (2 * rounds) as f64, on.then_some(&mut *tracer))?;
            report.attempted += phase.samples.len() as u64;
            let rate = phase.samples.len() as f64 / phase.samples.last().map_or(1.0, |s| s.at_s);
            if on {
                traced.push(rate);
            } else {
                plain.push(rate);
                untraced_us.extend(phase.samples.iter().map(|s| s.latency_us));
            }
        }
    }
    stwa_observe::set_enabled(false);
    // Per-call latency over the untraced slices (ungated, like every
    // workload's latency percentiles).
    sort(&mut untraced_us);
    report.put_latencies(untraced_us.len(), |q| {
        (percentile(&untraced_us, q), supported(untraced_us.len(), q))
    });
    report.put_trace_overhead(&plain, &traced);
    rig.check(report)?;
    Ok(rig)
}
