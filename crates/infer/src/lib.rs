//! # stwa-infer
//!
//! Tape-free inference engine for the ST-WA model family.
//!
//! Training evaluates models through the autograd graph, paying for
//! tape nodes, gradient bookkeeping, and per-call GEMM packing that
//! eval never uses. This crate serves a *frozen* model instead:
//!
//! - [`FrozenStwa::freeze`] snapshots the trained parameters, collapses
//!   the stochastic latents to their posterior means, pre-decodes the
//!   per-sensor K/V projections when they are input-independent (S-WA),
//!   precomputes the planar-flow constrained parameters, and re-lays
//!   the static dense weights around the window-attention layers into
//!   packed GEMM panels; each layer's body runs the training graph's
//!   own `window_layer` op;
//! - when the projections do depend on the input (ST-WA / T-WA) they
//!   are decoded lazily: the decoder's last layer runs a block of
//!   sensors at a time and each sensor's window rows consume its
//!   projections straight from the block's scratch, so the widest
//!   tensor of the forward is never materialized (see [`frozen`]);
//! - [`InferSession`] executes the frozen op sequence and refuses to
//!   serve once the source parameters are mutated (version-counter
//!   staleness guard). A batched `[B, N, H, F]` forward is row-exact —
//!   row *i* of the output is bitwise what running row *i* alone
//!   produces — so callers that have several windows stack them and
//!   call [`InferSession::run`] once.
//!
//! The engine's contract is **bitwise equality**: every f32 forward
//! here runs the same tensor kernels in the same order as the training
//! graph's eval path, so `InferSession::run` and
//! `model.forward(graph, x, rng, false)` agree bit-for-bit. The
//! property tests in `tests/` enforce this across random
//! configurations.
//!
//! A model can also be frozen at a reduced panel [`Precision`]
//! ([`FrozenStwa::freeze_at`] / [`InferSession::new_at`]): symmetric
//! int8 weight panels for memory-bandwidth-bound large-batch serving.
//! Quantized snapshots keep the bitwise contract one level down (SIMD
//! kernels vs their scalar references) and gate end-to-end correctness
//! on a forecast-MAE delta against the f32 snapshot (DESIGN.md §14);
//! training is f32-only and untouched.

pub mod frozen;
pub mod packed;
pub mod session;

pub use frozen::FrozenStwa;
pub use packed::{PackedDense, PackedMlp};
pub use session::InferSession;
pub use stwa_tensor::quant::Precision;
