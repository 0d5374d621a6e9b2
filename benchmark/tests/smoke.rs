//! `--smoke`: every workload, end to end, in both trace modes, at about
//! a second each. Checks the shape of the result line, not its values.

use std::process::Command;

const WORKLOADS: [&str; 4] = ["serve_read", "serve_write", "train_epoch", "infer_city"];

fn contract(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = stwa_observe::parse_json(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    doc.get(key)
        .and_then(|v| v.as_arr())
        .expect(key)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(|v| v.as_str())
                .expect("name")
                .to_string()
        })
        .collect()
}

#[test]
fn every_workload_runs_end_to_end_in_both_modes() {
    // One after the other: the workloads time themselves, and two at
    // once on a small host would fail each other's checks.
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_stwa-benchmark"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "5",
                    "--seconds",
                    "1",
                    "--trace",
                    trace,
                    "--smoke",
                ])
                .output()
                .expect("run the benchmark binary");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("a result line");
            let doc = stwa_observe::parse_json(last).expect("result line is JSON");
            let keys: Vec<&str> = doc
                .as_obj()
                .expect("object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(
                doc.get("correct"),
                Some(&stwa_observe::Json::Bool(true)),
                "{stdout}"
            );
            assert!(
                doc.get("attempted")
                    .and_then(|v| v.as_num())
                    .expect("attempted")
                    >= 1.0
            );
            let metrics: Vec<String> = doc
                .get("metrics")
                .and_then(|v| v.as_obj())
                .expect("metrics")
                .iter()
                .map(|(k, _)| k.clone())
                .collect();
            assert_eq!(metrics, contract(key), "{workload} --trace {trace}");
        }
    }
}

#[test]
fn bad_arguments_exit_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_stwa-benchmark"))
        .args(["--workload", "no_such_workload"])
        .output()
        .expect("run the benchmark binary");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
