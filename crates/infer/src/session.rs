//! [`InferSession`]: a frozen model behind the staleness guard against
//! post-freeze parameter mutation.

use crate::frozen::FrozenStwa;
use stwa_core::StwaModel;
use stwa_tensor::quant::Precision;
use stwa_tensor::{Result, Tensor, TensorError};

/// A serving session over a [`FrozenStwa`].
///
/// A session refuses to serve once any source parameter has been
/// mutated after the freeze — re-freeze to pick up new weights.
pub struct InferSession {
    frozen: FrozenStwa,
}

impl InferSession {
    /// Freeze `model` at f32 and open a session over the snapshot.
    pub fn new(model: &StwaModel) -> Result<InferSession> {
        Ok(InferSession::from_frozen(FrozenStwa::freeze(model)?))
    }

    /// Freeze `model` at the given panel precision and open a session.
    /// Everything downstream — staleness guard, row-exact batching —
    /// serves quantized snapshots unchanged.
    pub fn new_at(model: &StwaModel, precision: Precision) -> Result<InferSession> {
        Ok(InferSession::from_frozen(FrozenStwa::freeze_at(
            model, precision,
        )?))
    }

    pub fn from_frozen(frozen: FrozenStwa) -> InferSession {
        InferSession { frozen }
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
        stwa_observe::counter!("infer.forwards").incr();
        stwa_observe::counter!("infer.rows").add(shape[0] as u64);
        self.frozen.forward(x)
    }
}
