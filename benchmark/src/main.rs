//! The repo benchmark. One command runs a workload from a `--seed`,
//! prints every metric by name with its unit and sample count, checks
//! that outputs are correct, and ends with one JSON result line.
//!
//! ```text
//! stwa-benchmark --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
//! stwa-benchmark compare A.jsonl B.jsonl
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off and
//! `stwa_observe` disabled. `--trace 1` re-runs the workload under
//! tracing for the overhead, then walks the per-layer ledger (see
//! `ledger.rs`) and writes `benchmark/out/<workload>.trace.json`.

#![cfg(target_os = "linux")]

mod city;
mod compare;
mod ledger;
mod loadgen;
mod report;
mod serve;
mod stats;
mod subject;
mod trace;
mod train;
mod wire;

use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::{Report, END_TO_END, PER_LAYER, WORKLOADS};
use serve::Mix;

/// Every workload computes on one pool thread. On the 2-vCPU hosts
/// this runs on, a kernel that fans out over both cores waits at each
/// join for whichever core the host disturbed: per-second rates then
/// swing by a fifth and no bound under 0.25 holds, while one thread
/// repeats within a few percent at four fifths of the speed. Pool
/// scaling is therefore unmeasured here, like replica and shard scaling.
pub const POOL_THREADS: usize = 1;

/// Any layer's error as the `io::Error` the workloads return.
pub fn other(e: impl std::fmt::Display) -> io::Error {
    io::Error::other(e.to_string())
}

/// Run the whole set-up `times` times and report the median as
/// `setup_s`; the last one is kept. Each is torn down before the next
/// starts: two live at once would double the peak memory reported.
pub fn timed_setups<R>(
    report: &mut Report,
    times: usize,
    mut setup: impl FnMut(usize) -> io::Result<R>,
    teardown: impl Fn(R),
) -> io::Result<R> {
    let mut seconds = Vec::new();
    let mut kept = None;
    for i in 0..times.max(1) {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let t0 = std::time::Instant::now();
        kept = Some(setup(i)?);
        seconds.push(t0.elapsed().as_secs_f64());
    }
    report.put("setup_s", stats::median(&seconds), "s", seconds.len());
    Ok(kept.expect("at least one set-up ran"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

const USAGE: &str =
    "usage: stwa-benchmark --workload <serve_read|serve_write|train_epoch|infer_city|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]\n       stwa-benchmark compare A B";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => {
                out.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                out.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out.out = Some(PathBuf::from(value()?)),
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if out.workload != "all" && !WORKLOADS.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload {:?}", out.workload));
    }
    if out.seconds.is_nan() || out.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    if out.smoke {
        out.seconds = 1.0;
    }
    Ok(out)
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The checked-out commit, read from `.git` without running git; a
/// checkout that is not a repository has none.
fn git_rev() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let full = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_string(),
    };
    full.trim().chars().take(12).collect()
}

/// The widest vector extension the crates' runtime dispatch can pick.
fn isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512vnni") {
            return "avx512-vnni";
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

fn header(args: &Args) {
    println!(
        "# stwa-benchmark nproc={} isa={} pool_threads={} git={} seed={} seconds={} trace={} smoke={} \
         open_loop_read_per_s={} open_loop_write_pairs_per_s={}",
        nproc(),
        isa(),
        POOL_THREADS,
        git_rev(),
        args.seed,
        args.seconds,
        args.trace as u8,
        args.smoke,
        serve::READ_RATE_PER_S,
        serve::WRITE_PAIRS_PER_S,
    );
}

/// How many times set-up runs for `setup_s`'s median: the cheap ones
/// more often, so that a median of milliseconds holds still.
fn setups(workload: &str, smoke: bool) -> usize {
    match (smoke, workload) {
        (true, _) => 1,
        (_, "train_epoch") => 9,
        _ => 3,
    }
}

fn run_untraced(args: &Args) -> io::Result<Report> {
    let n = setups(&args.workload, args.smoke);
    match args.workload.as_str() {
        "serve_read" => serve::run(Mix::Read, args.seed, args.seconds, n),
        "serve_write" => serve::run(Mix::Write, args.seed, args.seconds, n),
        "train_epoch" => train::run(args.seed, args.seconds, n),
        _ => city::run(args.seed, args.seconds, n, args.smoke),
    }
}

fn run_traced(args: &Args) -> io::Result<Report> {
    let mut tracer = trace::Tracer::new();
    let budget = ledger::Budget {
        scale: if args.smoke { 0.05 } else { 1.0 },
    };
    // The in-situ part gets under half the run; the ledger the rest.
    let insitu_s = args.seconds * 0.4;
    let (mut report, subject, mix) = match args.workload.as_str() {
        name @ ("serve_read" | "serve_write") => {
            let mix = if name == "serve_read" {
                Mix::Read
            } else {
                Mix::Write
            };
            let mut report = Report::new(mix.workload());
            let rig = serve::run_traced(mix, args.seed, insitu_s, &mut report)?;
            let subject = rig.subject.clone();
            rig.finish(&mut report);
            (report, subject, mix)
        }
        "train_epoch" => {
            let mut report = Report::new("train_epoch");
            let rig = train::run_traced(args.seed, args.seconds, &mut report)?;
            // A freshly trained model is served for the first time:
            // every forecast follows a window the cache has not seen.
            (report, rig.subject, Mix::Write)
        }
        _ => {
            let mut report = Report::new("infer_city");
            let rig = city::run_traced(args.seed, insitu_s, args.smoke, &mut tracer, &mut report)?;
            (report, rig.subject, Mix::Write)
        }
    };
    ledger::walk(&subject, mix, args.seed, &budget, &mut tracer, &mut report)?;
    report.put(
        "error_share",
        report.error_share(),
        "ratio",
        report.attempted as usize,
    );
    let path = subject::out_dir().join(format!("{}.trace.json", report.workload));
    tracer.write_json(&path)?;
    println!("# wrote {}", path.display());
    Ok(report)
}

fn run_one(args: &Args) -> Result<bool, String> {
    header(args);
    stwa_pool::set_threads(POOL_THREADS);
    let report = if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
    .map_err(|e| format!("{}: {e}", args.workload))?;
    print!("{}", report.lines());
    if let Some(path) = &args.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", report.full_json(args.seed, args.trace)).map_err(|e| e.to_string())?;
    }
    let contract: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    println!("{}", report.result_json(contract)?);
    Ok(report.correct())
}

/// Each workload in its own process, so that one's allocator state,
/// thread pool and peak memory never leak into the next.
fn run_all(raw: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    for workload in WORKLOADS {
        let mut child_args = raw.to_vec();
        let at = child_args
            .iter()
            .position(|a| a == "--workload")
            .expect("parsed before");
        child_args[at + 1] = workload.to_string();
        let status = std::process::Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("spawn {workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let outcome = if raw.first().map(String::as_str) == Some("compare") {
        match raw.as_slice() {
            [_, a, b] => compare::run(
                Path::new(a),
                Path::new(b),
                &repo_root().join("BENCHMARK.json"),
            ),
            _ => Err(USAGE.to_string()),
        }
    } else {
        parse_args(&raw).and_then(|args| {
            if args.workload == "all" {
                run_all(&raw)
            } else {
                run_one(&args)
            }
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
