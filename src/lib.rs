//! # st-wa
//!
//! Facade crate for the Rust reproduction of *"Towards Spatio-Temporal
//! Aware Traffic Time Series Forecasting"* (Cirstea et al., ICDE 2022).
//!
//! Re-exports the workspace crates under stable module names so examples
//! and downstream users need a single dependency:
//!
//! - [`tensor`] — dense f32 n-d arrays ([`stwa_tensor`])
//! - [`autograd`] — reverse-mode autodiff ([`stwa_autograd`])
//! - [`nn`] — layers, losses, optimizers ([`stwa_nn`])
//! - [`traffic`] — synthetic PEMS-like data + metrics ([`stwa_traffic`])
//! - [`model`] — the ST-WA model itself ([`stwa_core`])
//! - [`baselines`] — the paper's comparison models ([`stwa_baselines`])
//! - [`tsne`] — t-SNE for the latent-space figures ([`stwa_tsne`])
//! - [`observe`] — training observability: spans, counters, run
//!   manifests ([`stwa_observe`])
//! - [`infer`] — tape-free serving: frozen models, packed weights,
//!   row-exact batched sessions ([`stwa_infer`])
//! - [`ckpt`] — versioned checkpoints + model registry with bitwise
//!   resumable training ([`stwa_ckpt`])
//! - [`serve`] — async HTTP forecast serving: per-sensor TTL caching,
//!   registry hot swap ([`stwa_serve`])

pub use stwa_autograd as autograd;
pub use stwa_baselines as baselines;
pub use stwa_ckpt as ckpt;
pub use stwa_core as model;
pub use stwa_infer as infer;
pub use stwa_nn as nn;
pub use stwa_observe as observe;
pub use stwa_serve as serve;
pub use stwa_tensor as tensor;
pub use stwa_traffic as traffic;
pub use stwa_tsne as tsne;
