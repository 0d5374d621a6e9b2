//! What a run reports: every metric by name with its unit and sample
//! count, the checks it made, and the one-line JSON result whose keys
//! `BENCHMARK.json` fixes.

use std::fmt::Write as _;

use crate::stats::median;

pub const WORKLOADS: [&str; 4] = ["serve_read", "serve_write", "train_epoch", "infer_city"];

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("cpu_us_per_op", "us"),
    ("ok_share", "ratio"),
    ("peak_rss_mib", "MiB"),
    ("forecast_mae", "flow"),
];

/// The per-layer metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [(&str, &str); 55] = [
    ("serve.http_parse_get_ns", "ns"),
    ("serve.proto_encode_ns", "ns"),
    ("serve.cache_get_ns", "ns"),
    ("serve.http_parse_post_us", "us"),
    ("serve.proto_parse_observe_us", "us"),
    ("serve.fingerprint_ns", "ns"),
    ("serve.cache_put_ns", "ns"),
    ("serve.replay_request_us", "us"),
    ("serve.replay_eval_share", "ratio"),
    ("serve.replay_hit_ratio", "ratio"),
    ("serve.socket_p50_us", "us"),
    ("serve.residual_us", "us"),
    ("serve.swap_ms", "ms"),
    ("serve.forecasts_per_eval", "ratio"),
    ("infer.run_b1_us", "us"),
    ("infer.run_b8_us", "us"),
    ("infer.run_b8_int8_us", "us"),
    ("infer.int8_mae_delta", "norm"),
    ("infer.freeze_ms", "ms"),
    ("infer.freeze_from_registry_ms", "ms"),
    ("infer.packed_mib", "MiB"),
    ("infer.plan_miss_share", "ratio"),
    ("core.fwd.decoder_share", "ratio"),
    ("core.fwd.latent_share", "ratio"),
    ("core.fwd.wa_share", "ratio"),
    ("core.fwd.sca_share", "ratio"),
    ("core.fwd.predictor_share", "ratio"),
    ("core.generate_nograd_us", "us"),
    ("core.step.forward_ms", "ms"),
    ("core.evaluate_ms", "ms"),
    ("autograd.backward_ms", "ms"),
    ("autograd.tape_nodes", "count"),
    ("nn.adam_step_ms", "ms"),
    ("nn.huber_us", "us"),
    ("tensor.heap_allocs_per_step", "count"),
    ("tensor.pool_hit_ratio", "ratio"),
    ("tensor.peak_tracked_mib", "MiB"),
    ("tensor.gemm_512_gflops", "GFLOP/s"),
    ("tensor.gemm_packed_decoder_gflops", "GFLOP/s"),
    ("tensor.gemm_int8_decoder_gops", "GOP/s"),
    ("tensor.gemm_flops_per_forward", "count"),
    ("tensor.exp_ns_per_elem", "ns"),
    ("tensor.sparse_attn_us", "us"),
    ("ckpt.publish_ms", "ms"),
    ("ckpt.load_ms", "ms"),
    ("ckpt.bytes_per_save", "count"),
    ("traffic.generate_ms", "ms"),
    ("traffic.windows_ms", "ms"),
    ("pool.tasks_per_forward", "count"),
    ("pool.dispatches_per_forward", "count"),
    ("observe.trace_overhead_share", "ratio"),
    ("latency_p50_us", "us"),
    ("latency_p90_us", "us"),
    ("latency_p99_us", "us"),
    ("error_share", "ratio"),
];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// Set when a percentile has fewer than ten samples beyond it.
    pub thin: bool,
}

pub struct Report {
    pub workload: &'static str,
    metrics: Vec<Metric>,
    /// Operations attempted and failed: requests, forward calls,
    /// epochs, and every correctness check counted as one operation.
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Report {
    pub fn new(workload: &'static str) -> Report {
        Report {
            workload,
            metrics: Vec::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
        }
    }

    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n,
            thin: false,
        });
    }

    pub fn put_percentile(&mut self, name: &str, (value, supported): (f64, bool), n: usize) {
        self.put(name, value, "us", n);
        self.metrics.last_mut().expect("just pushed").thin = !supported;
    }

    /// `latency_p50_us`, `_p90_` and `_p99_` from `at(q)`, which gives
    /// the `q`-quantile and whether it has the samples behind it.
    pub fn put_latencies(&mut self, n: usize, at: impl Fn(f64) -> (f64, bool)) {
        for (name, q) in [
            ("latency_p50_us", 0.50),
            ("latency_p90_us", 0.90),
            ("latency_p99_us", 0.99),
        ] {
            self.put_percentile(name, at(q), n);
        }
    }

    /// The in-situ re-run's throughput with tracing off and on (each a
    /// median over `n` samples), and the share the tracing costs.
    pub fn put_trace_overhead(&mut self, untraced: &[f64], traced: &[f64]) {
        let (plain, traced_rate) = (median(untraced), median(traced));
        let n = untraced.len();
        self.put("insitu.throughput_untraced_per_s", plain, "1/s", n);
        self.put("insitu.throughput_traced_per_s", traced_rate, "1/s", n);
        self.put(
            "observe.trace_overhead_share",
            1.0 - traced_rate / plain,
            "ratio",
            n,
        );
    }

    /// One correctness check, counted as an operation that can fail.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(1, what);
        }
    }

    /// `count` operations failed for the reason `what`.
    pub fn fail(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.failures.push(format!("{what} (x{count})"));
        }
    }

    pub fn error_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `workload metric value unit n_samples` lines, then the failures.
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let note = if m.thin { "  (<10 samples beyond)" } else { "" };
            let _ = writeln!(
                out,
                "{} {} {} {} {}{note}",
                self.workload, m.name, m.value, m.unit, m.n
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "{} FAILED {f}", self.workload);
        }
        out
    }

    /// Everything measured, for `--out` and `compare`.
    pub fn full_json(&self, seed: u64, traced: bool) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"seed\": {seed}, \"traced\": {traced}, \"correct\": {}, \
             \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload,
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}}}",
                m.name, m.value, m.unit, m.n
            );
        }
        out.push_str("}}");
        out
    }

    /// The result line: exactly the metrics `names` lists. A missing or
    /// non-finite one is a benchmark bug and refuses to print a result.
    pub fn result_json(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit)) in names.iter().enumerate() {
            let m = self
                .metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or_else(|| format!("{}: metric {name} was not measured", self.workload))?;
            if !m.value.is_finite() {
                return Err(format!("{}: metric {name} is {}", self.workload, m.value));
            }
            if m.unit != *unit {
                return Err(format!(
                    "{name}: unit {} but the contract says {unit}",
                    m.unit
                ));
            }
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                m.value
            );
        }
        out.push_str("}}");
        Ok(out)
    }
}

/// CPU seconds (user + system, all threads) this process has used.
/// `/proc/self/stat` counts in clock ticks; `USER_HZ` is 100 on Linux.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the line, the 12th and 13th after it.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|v| v.parse::<f64>().ok())
        .sum();
    ticks / 100.0
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_named_metrics() {
        let mut r = Report::new("serve_read");
        r.put("a", 1.5, "us", 10);
        r.put("b", 2.0, "ms", 3);
        r.put("extra", 9.0, "count", 1);
        r.attempted = 100;
        let line = r.result_json(&[("a", "us"), ("b", "ms")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 100, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 2, \"unit\": \"ms\"}}}"
        );
        assert!(r.result_json(&[("missing", "us")]).is_err());
        assert!(r.result_json(&[("a", "ms")]).is_err());
        r.put("nan", f64::NAN, "us", 0);
        assert!(r.result_json(&[("nan", "us")]).is_err());
    }

    #[test]
    fn failed_checks_count_against_attempts() {
        let mut r = Report::new("infer_city");
        r.attempted = 8;
        r.check("fine", true);
        r.check("broken", false);
        assert_eq!((r.attempted, r.failed), (10, 1));
        assert!(!r.correct());
        assert!((r.error_share() - 0.1).abs() < 1e-12);
        assert!(r.lines().contains("infer_city FAILED broken"));
    }

    #[test]
    fn contract_tables_agree_with_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let doc = stwa_observe::parse_json(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = listed("workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
