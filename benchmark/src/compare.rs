//! `compare A B`: two result files (one JSON line per run, as `--out`
//! appends them) against the bounds in `BENCHMARK.json`. Used for the
//! run-to-run check of one commit and for parent against change.

use std::collections::BTreeMap;
use std::path::Path;

use stwa_observe::{parse_json, Json};

use crate::stats::{median, quartile_spread};

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    /// The runs of one side spread wider than the bound: a difference
    /// within the bound cannot be told from noise, so it is not called
    /// unchanged.
    Unresolved,
    Breach,
}

/// `(name -> (better, bound))` of the end-to-end metrics.
pub type Bounds = BTreeMap<String, (String, f64)>;

pub fn bounds(benchmark_json: &str) -> Result<Bounds, String> {
    let doc = parse_json(benchmark_json).map_err(|e| e.to_string())?;
    let list = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("no end_to_end list")?;
    let mut out = Bounds::new();
    for m in list {
        let text = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
        let name = text("name").ok_or("metric without a name")?;
        let better = text("better").ok_or("metric without a direction")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_num)
            .ok_or("metric without a bound")?;
        out.insert(name, (better, bound));
    }
    Ok(out)
}

/// `(workload, metric) -> values` over the untraced runs in a file.
pub fn load(text: &str) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let doc = parse_json(line).map_err(|e| format!("bad result line: {e}"))?;
        if doc.get("traced") == Some(&Json::Bool(true)) {
            continue;
        }
        let workload = doc
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("run without a workload")?;
        let metrics = doc
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("run without metrics")?;
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_num) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// By how much of `a`'s median `b`'s median is worse, and the verdict
/// under `bound`. `setup_s` is judged by its medians alone, as the
/// contract does: a set-up of milliseconds has a wide relative spread
/// and a steady median.
pub fn judge(metric: &str, a: &[f64], b: &[f64], better: &str, bound: f64) -> (f64, Verdict) {
    let (ma, mb) = (median(a), median(b));
    let worse = match better {
        "lower" => (mb - ma) / ma.abs(),
        _ => (ma - mb) / ma.abs(),
    };
    let spread = quartile_spread(a).max(quartile_spread(b));
    let verdict = if metric != "setup_s" && spread > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Breach
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// Print one row per workload x end-to-end metric; `Ok(true)` when no
/// bound is breached.
pub fn run(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let read = |p: &Path| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()));
    let bounds = bounds(&read(benchmark_json)?)?;
    let (a, b) = (load(&read(a_path)?)?, load(&read(b_path)?)?);
    let mut clean = true;
    println!("workload metric median_a median_b worse_by bound spread_a spread_b n_a n_b verdict");
    for ((workload, metric), va) in &a {
        let (Some((better, bound)), Some(vb)) = (
            bounds.get(metric),
            b.get(&(workload.clone(), metric.clone())),
        ) else {
            continue;
        };
        let (worse, verdict) = judge(metric, va, vb, better, *bound);
        clean &= verdict != Verdict::Breach;
        println!(
            "{workload} {metric} {:.6} {:.6} {:+.4} {bound} {:.4} {:.4} {} {} {verdict:?}",
            median(va),
            median(vb),
            worse,
            quartile_spread(va),
            quartile_spread(vb),
            va.len(),
            vb.len(),
        );
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        let slower = [120.0, 121.0, 119.0, 120.0, 120.5];
        // Lower is better: 20 % slower breaches a 10 % bound.
        assert_eq!(
            judge("m", &steady, &slower, "lower", 0.10).1,
            Verdict::Breach
        );
        assert_eq!(judge("m", &steady, &slower, "lower", 0.25).1, Verdict::Ok);
        // Higher is better: the same pair is an improvement.
        let (worse, verdict) = judge("m", &steady, &slower, "higher", 0.10);
        assert!(worse < 0.0);
        assert_eq!(verdict, Verdict::Ok);
        // A side that spreads wider than the bound resolves nothing.
        let noisy = [80.0, 100.0, 125.0, 90.0, 115.0];
        assert_eq!(
            judge("m", &steady, &noisy, "lower", 0.10).1,
            Verdict::Unresolved
        );
        // ... except for set-up time, which goes by its medians.
        assert_eq!(
            judge("setup_s", &steady, &noisy, "lower", 0.10).1,
            Verdict::Ok
        );
    }

    #[test]
    fn files_group_by_workload_and_skip_traced_runs() {
        let text = "{\"workload\": \"w\", \"traced\": false, \"metrics\": {\"m\": {\"value\": 1.5, \"unit\": \"s\", \"n\": 1}}}\n\
                    {\"workload\": \"w\", \"traced\": false, \"metrics\": {\"m\": {\"value\": 2.5, \"unit\": \"s\", \"n\": 1}}}\n\
                    {\"workload\": \"w\", \"traced\": true, \"metrics\": {\"m\": {\"value\": 9, \"unit\": \"s\", \"n\": 1}}}\n";
        let loaded = load(text).unwrap();
        assert_eq!(loaded[&("w".to_string(), "m".to_string())], vec![1.5, 2.5]);
        let b = bounds("{\"end_to_end\": [{\"name\": \"m\", \"unit\": \"s\", \"better\": \"lower\", \"bound\": 0.1}]}").unwrap();
        assert_eq!(b["m"], ("lower".to_string(), 0.1));
    }
}
