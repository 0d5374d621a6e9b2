//! # stwa-autograd
//!
//! Tape-based reverse-mode automatic differentiation over
//! [`stwa_tensor::Tensor`].
//!
//! A [`Graph`] is an append-only tape of nodes; each forward operation on
//! a [`Var`] records the op and its inputs, so node ids are already a
//! topological order and the backward pass is a single reverse sweep.
//! One training step builds one fresh graph: parameters are inserted as
//! gradient-requiring leaves, the loss is computed, [`Graph::backward`]
//! fills in gradients, and the optimizer reads them back out.
//!
//! Evaluation runs the same forward code on [`Graph::no_grad`]: every op
//! returns the bits it would on a tape but appends nothing, so values
//! are freed as their [`Var`]s drop and there is nothing to differentiate.
//!
//! ```
//! use stwa_autograd::Graph;
//! use stwa_tensor::Tensor;
//!
//! let g = Graph::new();
//! let x = g.leaf(Tensor::from_vec(vec![1.0, 2.0], &[2]).unwrap());
//! let loss = x.square().unwrap().sum_all().unwrap();   // sum(x^2)
//! g.backward(&loss).unwrap();
//! let dx = g.grad(&x).unwrap();                        // 2x
//! assert_eq!(dx.data(), &[2.0, 4.0]);
//! ```

mod backward;
mod check;
mod graph;
mod ops;

pub use check::{check_gradient, GradCheckReport};
pub use graph::{ActKind, Graph, Var};
pub use ops::{concat, stack, WindowParams, WindowSca};
