//! The host a `BENCH_*.json` was recorded on — the same facts
//! `benchmark/run.sh` prints in its header, so a committed baseline can
//! be told apart from a re-recording on different hardware, at a
//! different thread count, or from different code.

use std::process::Command;

/// `HEAD`'s abbreviated hash, `-dirty` when the tree has uncommitted
/// changes, `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
    };
    match git(&["rev-parse", "--short=12", "HEAD"]) {
        Some(rev) if !rev.is_empty() => {
            let dirty = git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            format!("{rev}{}", if dirty { "-dirty" } else { "" })
        }
        _ => "unknown".into(),
    }
}

/// The header fields of a `BENCH_*.json` report, one `"key": value,`
/// line each, at the pool's current thread count.
pub fn json_fields() -> String {
    format!(
        "  \"nproc\": {},\n  \"isa\": \"{}\",\n  \"threads\": {},\n  \"git\": \"{}\",\n",
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        stwa_tensor::isa::detected().label(),
        stwa_pool::current_threads(),
        git_rev(),
    )
}
