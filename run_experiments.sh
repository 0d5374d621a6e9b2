#!/bin/bash
# Regenerate every paper table/figure. Sequential (single-core box).
# CSVs land in results/fixed (the tables EXPERIMENTS.md reads), then the
# two longer-budget runs land in results/long; logs go to logs/.
set -u
cd "$(dirname "$0")"
mkdir -p results/fixed results/long logs
run() {
  name=$1; out=$2; log=$3; shift 3
  echo "[$(date +%H:%M:%S)] running $name $* (out: $out)"
  ./target/release/$name "$@" --out-dir $out > logs/$log.log 2>&1
  echo "[$(date +%H:%M:%S)] done $name (exit $?)"
}
fixed() { run "$1" results/fixed "$1" "${@:2}"; }
long() { run "$1" results/long "$1"_long "${@:2}"; }
fixed fig01
fixed table02
fixed table04 --epochs 20
fixed table08 --epochs 20
fixed table10 --epochs 15
fixed table11 --epochs 15
fixed table12 --epochs 15
fixed table09 --epochs 15
fixed fig10
fixed table07 --epochs 15
fixed fig09 --epochs 12
fixed classical --epochs 15
fixed ablation_flow --epochs 15
fixed table05 --epochs 10
fixed table13 --epochs 6
fixed table14 --epochs 6
fixed table06 --epochs 6
long table08 --epochs 45
long table11 --epochs 40
echo "[$(date +%H:%M:%S)] all experiments complete"
