//! [`InferSession`]: a frozen model plus its per-batch-size plan arena
//! and the staleness guard against post-freeze parameter mutation.

use crate::frozen::{BatchPlan, FrozenStwa};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use stwa_core::StwaModel;
use stwa_tensor::quant::Precision;
use stwa_tensor::{Result, Tensor, TensorError};

/// A serving session over a [`FrozenStwa`].
///
/// The first forward at each batch size records an execution plan;
/// later requests at the same batch size reuse it. A session refuses to
/// serve once any source parameter has been mutated after the freeze —
/// re-freeze to pick up new weights.
pub struct InferSession {
    frozen: FrozenStwa,
    plans: RefCell<HashMap<usize, Rc<BatchPlan>>>,
}

impl InferSession {
    /// Freeze `model` at f32 and open a session over the snapshot.
    pub fn new(model: &StwaModel) -> Result<InferSession> {
        Ok(InferSession::from_frozen(FrozenStwa::freeze(model)?))
    }

    /// Freeze `model` at the given panel precision and open a session.
    /// Everything downstream — plan recording, staleness guard,
    /// row-exact batching — serves quantized snapshots unchanged.
    pub fn new_at(model: &StwaModel, precision: Precision) -> Result<InferSession> {
        Ok(InferSession::from_frozen(FrozenStwa::freeze_at(
            model, precision,
        )?))
    }

    pub fn from_frozen(frozen: FrozenStwa) -> InferSession {
        InferSession {
            frozen,
            plans: RefCell::new(HashMap::new()),
        }
    }

    pub fn frozen(&self) -> &FrozenStwa {
        &self.frozen
    }

    /// Panel precision of the underlying snapshot.
    pub fn precision(&self) -> Precision {
        self.frozen.precision()
    }

    /// True when the source parameters changed after the freeze.
    pub fn is_stale(&self) -> bool {
        self.frozen.is_stale()
    }

    /// Number of batch sizes with a recorded plan.
    pub fn plan_count(&self) -> usize {
        self.plans.borrow().len()
    }

    /// Normalized-scale predictions `[B, N, U, F]` for a normalized
    /// input batch `[B, N, H, F]` — bitwise identical to the source
    /// model's graph-path eval forward.
    ///
    /// Fails without running anything when the session is stale: the
    /// frozen caches no longer describe the live parameters, and a
    /// silently wrong answer is worse than a refusal.
    pub fn run(&self, x: &Tensor) -> Result<Tensor> {
        if self.is_stale() {
            stwa_observe::counter!("infer.stale_rejections").incr();
            return Err(TensorError::Invalid(format!(
                "InferSession: stale snapshot (frozen at store version {}, now {}); \
                 re-freeze the model to serve the updated parameters",
                self.frozen.frozen_at(),
                self.frozen.current_version()
            )));
        }
        let shape = x.shape();
        if shape.is_empty() {
            return Err(TensorError::Invalid(
                "InferSession: empty input".into(),
            ));
        }
        let b = shape[0];
        let plan = self.plan_for(b)?;
        stwa_observe::counter!("infer.forwards").incr();
        stwa_observe::counter!("infer.rows").add(b as u64);
        self.frozen.forward(x, &plan)
    }

    fn plan_for(&self, b: usize) -> Result<Rc<BatchPlan>> {
        if let Some(plan) = self.plans.borrow().get(&b) {
            stwa_observe::counter!("infer.plan_hits").incr();
            return Ok(Rc::clone(plan));
        }
        stwa_observe::counter!("infer.plan_misses").incr();
        let plan = Rc::new(self.frozen.record_plan(b)?);
        self.plans.borrow_mut().insert(b, Rc::clone(&plan));
        Ok(plan)
    }
}
