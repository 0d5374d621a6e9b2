//! # stwa-nn
//!
//! Neural-network building blocks over `stwa-autograd`: a parameter
//! store, initializers, layers (dense, recurrent, convolutional, graph
//! convolutional, attention), loss functions (including the paper's
//! Huber loss and diagonal-Gaussian KL), and optimizers (SGD, Adam).
//!
//! The training contract used across the workspace:
//!
//! 1. build a fresh [`stwa_autograd::Graph`] per step;
//! 2. call [`Param::leaf`] (done inside each layer's `forward`) to bind
//!    parameters onto the graph;
//! 3. compute a scalar loss and run `graph.backward`;
//! 4. call [`optim::Optimizer::step`], which reads each parameter's
//!    gradient off the graph and updates the stored value.

pub mod batch;
pub mod init;
pub mod layers;
pub mod loss;
pub mod optim;
pub mod param;

pub use param::{Param, ParamSnapshot, ParamStore, StoreVersion};
