#!/usr/bin/env bash
# The benchmark's one entry point: build (release, offline) and run.
#   benchmark/run.sh --workload <serve_read|serve_write|train_epoch|infer_city|all>
#                    [--seed N] [--seconds S] [--trace 0|1] [--out FILE] [--smoke]
#   benchmark/run.sh compare A.jsonl B.jsonl
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
