# Development workflow recipes. `just verify` is the tier-1 gate every
# change must pass before merging.

# Full verification: release build, complete test suite, lint-clean,
# then the five bench gates, each holding its readings to the checked-in
# BENCH_*.json through one harness (crates/bench/src/gate.rs; DESIGN §5).
verify:
    cargo build --release
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    cargo run --release -p stwa-bench --bin bench_kernels -- --check BENCH_kernels.json
    cargo run --release -p stwa-bench --bin bench_train_step -- --check BENCH_train_step.json
    cargo run --release -p stwa-bench --bin bench_infer -- --check BENCH_infer.json
    cargo run --release -p stwa-bench --bin bench_ckpt -- --check BENCH_ckpt.json
    cargo run --release -p stwa-bench --bin bench_attention -- --check BENCH_attention.json

# Fast inner-loop check.
check:
    cargo check --workspace

# Everything the workspace tests, including per-crate suites.
test:
    cargo test --workspace

# Kernel throughput against a same-run FMA probe, with the observe
# disabled-cost ceiling, and the train-step table (refreshes
# BENCH_kernels.json and BENCH_train_step.json).
bench:
    cargo run --release -p stwa-bench --bin bench_kernels -- --out BENCH_kernels.json
    cargo run --release -p stwa-bench --bin bench_train_step -- --out BENCH_train_step.json

# Serving-latency benchmark: `forward_eval` vs the frozen inference
# engine at batch 1/8/64, timed in alternating bursts, plus the
# quantized-panel section (refreshes BENCH_infer.json; enforces that the
# frozen engine is not slower than evaluation at batch 1 and holds >=4x
# fewer peak tensor bytes at the serving-scale shape, the batch-64
# int8-not-behind-f32 floor, and the int8 forecast-MAE accuracy gate).
bench-infer:
    cargo run --release -p stwa-bench --bin bench_infer -- --out BENCH_infer.json

# Quantized serving comparison: f32 vs int8 frozen panels at batch
# 1/8/64 with the accuracy gate and the int8 speedup floor. Same
# binary as bench-infer — the quant section runs (and gates) on every
# invocation; this alias refreshes the committed baseline.
bench-quant: bench-infer

# Checkpoint save/load throughput through the model registry, with a
# bitwise round-trip assertion (refreshes BENCH_ckpt.json).
bench-ckpt:
    cargo run --release -p stwa-bench --bin bench_ckpt -- --out BENCH_ckpt.json

# Sparse vs dense sensor-attention scaling on corridor topologies up
# to 10240 sensors, with a bitwise sparse==dense self-check and a hard
# near-linearity floor (refreshes BENCH_attention.json).
bench-attention:
    cargo run --release -p stwa-bench --bin bench_attention -- --out BENCH_attention.json

# Regenerate every paper table/figure CSV under results/fixed and results/long.
experiments:
    ./run_experiments.sh
