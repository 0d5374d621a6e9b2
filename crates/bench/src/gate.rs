//! The `--check` harness every `bench_*` binary shares: one argument
//! parser ([`Gate::from_args`]), one report writer and baseline reader
//! ([`Fields`], [`lookup`]), one limit rule ([`Limit`], [`Gate::check`])
//! and one timer ([`interleave`]). A binary keeps only its suite and its
//! named limits.
//!
//! `bench_x [--out PATH | --check PATH]` runs the suite either way. With
//! `--check` each reading a [`Limit`] names is held to the baseline
//! report at `PATH`; without it the report is written to `PATH` (the
//! binary's `BENCH_*.json` by default). Limits that need no baseline
//! bind in both modes. [`Gate::finish`] prints every failure together
//! and exits 1 if there was one.

use std::time::Instant;

use stwa_observe::{parse_json, Json};

/// Allowed relative loss of a baseline value under [`Limit::Floor`].
const REGRESSION_TOLERANCE: f64 = 0.15;

/// Pairs of bursts [`interleave`] times.
const PAIRS: usize = 31;

/// Milliseconds one burst of one side aims to fill.
const BURST_MS: f64 = 1.0;

/// How a reading is held.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// At least the baseline's value less [`REGRESSION_TOLERANCE`] of it.
    Floor,
    /// At most the baseline's value times this factor.
    Growth(f64),
    /// At least the baseline's value less this slack.
    Slack(f64),
    /// At least this, with or without a baseline.
    AtLeast(f64),
    /// At most this, with or without a baseline.
    AtMost(f64),
}

impl Limit {
    fn needs_baseline(self) -> bool {
        !matches!(self, Limit::AtLeast(_) | Limit::AtMost(_))
    }

    /// The bound this limit sets over the baseline value `old`, and
    /// whether a reading must stay at or above it (`true`) or at or
    /// below it.
    fn bound(self, old: f64) -> (f64, bool) {
        match self {
            Limit::Floor => (old * (1.0 - REGRESSION_TOLERANCE), true),
            Limit::Growth(factor) => (old * factor, false),
            Limit::Slack(slack) => (old - slack, true),
            Limit::AtLeast(floor) => (floor, true),
            Limit::AtMost(ceiling) => (ceiling, false),
        }
    }
}

/// A bench run's mode, its baseline and the failures so far.
pub struct Gate {
    /// Where the report goes; `None` under `--check`.
    out: Option<String>,
    baseline: Option<Json>,
    failures: Vec<String>,
}

impl Gate {
    /// `[--out PATH | --check PATH]` from the command line (the last
    /// flag wins; `--out` defaults to `default_out`), with the baseline
    /// read up front. Exits 2 with the usage on anything else.
    pub fn from_args(default_out: &str) -> Gate {
        let Some((out, check)) = parse_flags(std::env::args().skip(1), default_out) else {
            eprintln!("usage: [--out PATH | --check PATH] (default --out {default_out})");
            std::process::exit(2);
        };
        Gate {
            out,
            baseline: check.map(|path| read_report(&path)),
            failures: Vec::new(),
        }
    }

    /// Hold `value` to `limit`. A limit over the baseline binds only
    /// under `--check`, and a key the baseline lacks fails: a renamed
    /// reading must not lose its gate.
    pub fn check(&mut self, key: &str, value: f64, limit: Limit) {
        let old = if limit.needs_baseline() {
            let Some(baseline) = &self.baseline else {
                return;
            };
            match lookup(baseline, key) {
                Some(old) => Some(old),
                None => {
                    self.failures
                        .push(format!("MISSING {key}: the baseline has no value for it"));
                    return;
                }
            }
        } else {
            None
        };
        let (bound, floor) = limit.bound(old.unwrap_or(f64::NAN));
        let held = if floor {
            value >= bound
        } else {
            value <= bound
        };
        let against = match old {
            Some(old) => format!("baseline {}", round5(old)),
            None => "hard limit".into(),
        };
        let side = if floor { ">=" } else { "<=" };
        let line = format!(
            "{key}: {} (must be {side} {}, {against})",
            round5(value),
            round5(bound)
        );
        if held {
            println!("ok {line}");
        } else {
            self.failures.push(format!("REGRESSION {line}"));
        }
    }

    /// Print `value` beside the baseline's, ungated.
    pub fn note(&self, key: &str, value: f64) {
        if let Some(baseline) = &self.baseline {
            let old = lookup(baseline, key).map_or("none".into(), |v| round5(v).to_string());
            println!("note {key}: {} (baseline {old}, not gated)", round5(value));
        }
    }

    /// Write the report (host header first) unless checking, then print
    /// every failure and exit 1 if there was one.
    pub fn finish(self, report: Fields) {
        match &self.out {
            Some(path) => {
                let mut fields = crate::host::json_fields();
                fields.extend(report.0);
                std::fs::write(path, Json::Obj(fields).pretty())
                    .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
                println!("wrote {path}");
            }
            None if self.failures.is_empty() => println!("check passed"),
            None => {}
        }
        if !self.failures.is_empty() {
            for failure in &self.failures {
                eprintln!("{failure}");
            }
            std::process::exit(1);
        }
    }
}

/// `(out, check)` paths from `[--out PATH | --check PATH]`; `None` on
/// an unknown flag or a flag without its path.
fn parse_flags(
    args: impl IntoIterator<Item = String>,
    default_out: &str,
) -> Option<(Option<String>, Option<String>)> {
    let mut mode = (Some(default_out.to_string()), None);
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let path = args.next()?;
        mode = match flag.as_str() {
            "--out" => (Some(path), None),
            "--check" => (None, Some(path)),
            _ => return None,
        };
    }
    Some(mode)
}

/// A report's members in order, numbers rounded to five significant
/// digits (whole numbers kept whole).
#[derive(Default)]
pub struct Fields(Vec<(String, Json)>);

impl Fields {
    pub fn num(self, key: impl Into<String>, value: f64) -> Fields {
        self.put(key, Json::Num(round5(value)))
    }

    pub fn put(mut self, key: impl Into<String>, value: Json) -> Fields {
        self.0.push((key.into(), value));
        self
    }
}

impl From<Fields> for Json {
    fn from(fields: Fields) -> Json {
        Json::Obj(fields.0)
    }
}

/// `x` to five significant digits, never fewer than its integer digits.
fn round5(x: f64) -> f64 {
    if x == 0.0 || !x.is_finite() {
        return x;
    }
    let scale = 10f64.powi((4 - x.abs().log10().floor() as i32).clamp(0, 15));
    (x * scale).round() / scale
}

/// Parse the report at `path`; panics naming the file if it cannot.
fn read_report(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read baseline {path}: {e}"));
    parse_json(&text).unwrap_or_else(|e| panic!("baseline {path}: {e}"))
}

/// The number at `path` in a report: `.`-separated object keys.
fn lookup(report: &Json, path: &str) -> Option<f64> {
    path.split('.')
        .try_fold(report, |node, key| node.get(key))?
        .as_num()
}

/// The `q` quantile of `samples` (the smallest sample at or above a
/// `q` share of them).
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = ((sorted.len() as f64 * q).ceil() as usize).saturating_sub(1);
    sorted[at.min(sorted.len() - 1)]
}

/// What [`interleave`] measured.
pub struct Pairs {
    /// Median over the pairs of side A's per-call time over side B's.
    pub ratio: f64,
    /// Per-call milliseconds of each of A's bursts, in run order.
    pub a_ms: Vec<f64>,
    /// The same for B.
    pub b_ms: Vec<f64>,
}

/// A side for [`interleave`] that puts `calls` calls of `f` on the
/// clock.
pub fn calls(mut f: impl FnMut()) -> impl FnMut(u64) -> f64 {
    move |calls| {
        let t0 = Instant::now();
        for _ in 0..calls {
            f();
        }
        t0.elapsed().as_secs_f64() * 1e3
    }
}

/// Time two sides in alternating bursts — A, B, A, B, … for [`PAIRS`]
/// pairs — so a host disturbance lands on both sides of a pair instead
/// of skewing one side's whole phase. A side is `burst(calls)`: make
/// `calls` calls and return the milliseconds they were on the clock
/// ([`calls`] for plain calls). Each side's burst is sized to about
/// [`BURST_MS`], never fewer than one call, after one untimed warm-up
/// call.
pub fn interleave(mut a: impl FnMut(u64) -> f64, mut b: impl FnMut(u64) -> f64) -> Pairs {
    let (calls_a, calls_b) = (burst_calls(&mut a), burst_calls(&mut b));
    let (mut a_ms, mut b_ms) = (Vec::with_capacity(PAIRS), Vec::with_capacity(PAIRS));
    for _ in 0..PAIRS {
        a_ms.push(a(calls_a) / calls_a as f64);
        b_ms.push(b(calls_b) / calls_b as f64);
    }
    let ratios: Vec<f64> = a_ms.iter().zip(&b_ms).map(|(a, b)| a / b).collect();
    Pairs {
        ratio: percentile(&ratios, 0.5),
        a_ms,
        b_ms,
    }
}

/// Calls of `burst` that fill about [`BURST_MS`]: the count grows 4× at
/// a time until a burst takes a quarter of that, then scales to it.
fn burst_calls(burst: &mut impl FnMut(u64) -> f64) -> u64 {
    burst(1); // warm-up: page in buffers, spawn pool workers, pack scratch
    let mut calls = 1u64;
    loop {
        let ms = burst(calls);
        if ms >= BURST_MS / 4.0 {
            return ((calls as f64 * BURST_MS / ms).round() as u64).max(1);
        }
        calls *= 4;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(baseline: &str) -> Gate {
        Gate {
            out: None,
            baseline: Some(parse_json(baseline).unwrap()),
            failures: Vec::new(),
        }
    }

    #[test]
    fn every_committed_baseline_holds_every_key_its_gate_reads() {
        let rows = |names: &[&str], field: &str| -> Vec<String> {
            names
                .iter()
                .map(|n| format!("entries.{n}.{field}"))
                .collect()
        };
        let kernels = [
            "square_64",
            "square_128",
            "square_256",
            "square_512",
            "batch1_512",
            "attention_qkt",
            "batched_128x32",
            "step_shared_b",
            "step_heads_nt",
            "step_sca_20x20",
            "step_skinny",
            "step_decoder",
            "step_decoder_wgrad",
            "step_project_kv",
            "step_window_layer",
            "decoder_48",
            "decoder_1024",
            "decoder_48_epilogue",
            "decoder_1024_epilogue",
            "serve_proxy_attention_d32",
            "serve_sparse_sca_1024",
            "serve_project_kv_d32",
        ];
        let attention = [
            "sparse_vs_dense_512",
            "sparse_vs_dense_2048",
            "sparse_scaling_4096",
            "sparse_scaling_10240",
        ];
        let gated: [(&str, Vec<String>); 5] = [
            ("BENCH_kernels.json", rows(&kernels, "roofline_share")),
            ("BENCH_attention.json", rows(&attention, "speedup")),
            (
                "BENCH_infer.json",
                [1, 8, 64]
                    .map(|b| format!("quant_b{b}_int8_speedup"))
                    .to_vec(),
            ),
            (
                "BENCH_ckpt.json",
                vec!["save_mb_s".into(), "load_mb_s".into()],
            ),
            (
                "BENCH_train_step.json",
                vec![
                    "fast_allocs_per_step".into(),
                    "fast_peak_bytes".into(),
                    "pool_hit_rate".into(),
                ],
            ),
        ];
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, keys) in gated {
            let report = read_report(&format!("{root}/{file}"));
            for field in ["nproc", "isa", "threads", "git"] {
                assert!(
                    report.get(field).is_some(),
                    "{file} has no host field {field}"
                );
            }
            for key in keys {
                assert!(lookup(&report, &key).is_some(), "{file} has no {key}");
            }
        }
    }

    #[test]
    fn a_key_the_baseline_lacks_fails() {
        let mut g = gate(r#"{"entries": {"a": {"speedup": 2.0}}}"#);
        g.check("entries.a.speedup", 2.0, Limit::Floor);
        assert!(g.failures.is_empty());
        g.check("entries.b.speedup", 2.0, Limit::Floor);
        assert_eq!(g.failures.len(), 1);
        assert!(g.failures[0].starts_with("MISSING entries.b.speedup"));
    }

    #[test]
    fn each_limit_binds_where_its_rule_says() {
        let mut g = gate(r#"{"x": 100.0}"#);
        let cases = [
            (85.0, Limit::Floor, true),
            (84.9, Limit::Floor, false),
            (125.0, Limit::Growth(1.25), true),
            (125.1, Limit::Growth(1.25), false),
            (95.0, Limit::Slack(5.0), true),
            (94.9, Limit::Slack(5.0), false),
            (0.4, Limit::AtLeast(0.4), true),
            (0.39, Limit::AtLeast(0.4), false),
            (0.02, Limit::AtMost(0.02), true),
            (0.021, Limit::AtMost(0.02), false),
        ];
        for (value, limit, held) in cases {
            let before = g.failures.len();
            g.check("x", value, limit);
            assert_eq!(g.failures.len() == before, held, "{value} under {limit:?}");
        }
    }

    #[test]
    fn only_hard_limits_bind_without_a_baseline() {
        let mut g = Gate {
            out: Some("unused".into()),
            baseline: None,
            failures: Vec::new(),
        };
        g.check("x", 0.0, Limit::Floor);
        assert!(g.failures.is_empty());
        g.check("x", 0.0, Limit::AtLeast(1.0));
        assert_eq!(g.failures.len(), 1);
    }

    #[test]
    fn flags_pick_the_mode() {
        let parse = |args: &[&str]| parse_flags(args.iter().map(|s| s.to_string()), "B.json");
        assert_eq!(parse(&[]), Some((Some("B.json".into()), None)));
        assert_eq!(parse(&["--out", "o"]), Some((Some("o".into()), None)));
        assert_eq!(parse(&["--check", "c"]), Some((None, Some("c".into()))));
        assert_eq!(parse(&["--check"]), None);
        assert_eq!(parse(&["--bogus", "x"]), None);
    }

    #[test]
    fn reports_round_to_five_significant_digits() {
        assert_eq!(round5(0.703_912_3), 0.703_91);
        assert_eq!(round5(0.002_541_7), 0.002_541_7);
        assert_eq!(round5(17_863_480.4), 17_863_480.0);
        assert_eq!(round5(413.449), 413.45);
        assert_eq!(Json::Num(round5(0.123_456)).to_string(), "0.12346");
    }

    #[test]
    fn interleave_alternates_whole_bursts() {
        let order = std::cell::RefCell::new(Vec::new());
        let side = |tag: char, ms: f64| {
            let order = &order;
            move |calls: u64| {
                order.borrow_mut().push(tag);
                ms * calls as f64
            }
        };
        // A reports 3 ms a call, B 0.1 ms: one call fills A's burst,
        // ten B's.
        let pairs = interleave(side('a', 3.0), side('b', 0.1));
        assert_eq!(pairs.a_ms.len(), PAIRS);
        assert!((pairs.ratio - 30.0).abs() < 1e-9);
        assert!(pairs.b_ms.iter().all(|&ms| (ms - 0.1).abs() < 1e-12));
        let timed: String = order.borrow().iter().rev().take(2 * PAIRS).collect();
        assert_eq!(timed, "ba".repeat(PAIRS));
    }
}
