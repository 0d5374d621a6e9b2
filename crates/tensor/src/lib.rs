//! # stwa-tensor
//!
//! Dense, row-major, `f32` n-dimensional arrays with NumPy-style
//! broadcasting, batched matrix multiplication, reductions, and shape
//! manipulation. This crate is the computational substrate for the ST-WA
//! reproduction: `stwa-autograd` builds reverse-mode differentiation on
//! top of it, and everything else builds on that.
//!
//! Design notes:
//!
//! - Tensors own a contiguous `Vec<f32>`; views are materialized (copied)
//!   rather than aliased. At the model sizes used by the paper's
//!   experiments this is both simpler and fast enough, and it keeps the
//!   autodiff tape trivially sound.
//! - Every tensor registers its byte footprint with a global
//!   [`memory`] gauge so experiments can report peak memory the way the
//!   paper's Table VIII reports GPU memory.
//! - All fallible shape logic returns [`TensorError`]; only indexing
//!   helpers that document their preconditions panic.

pub mod attention;
pub mod error;
pub mod isa;
pub mod linalg;
pub mod manip;
pub mod mathfn;
pub mod memory;
pub mod projection;
pub mod quant;
pub mod random;
pub mod reduce;
pub mod shape;
pub mod sparse;
pub mod tensor;
pub mod window_layer;

pub use error::TensorError;
pub use quant::Precision;
pub use sparse::SensorGraph;
pub use tensor::Tensor;

/// Convenience alias used across the workspace.
pub type Result<T> = std::result::Result<T, TensorError>;
