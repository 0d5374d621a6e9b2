//! Parameters and the parameter store.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use stwa_autograd::{Graph, Var};
use stwa_tensor::{Result, Tensor, TensorError};

/// Monotonic mutation counter shared by a [`ParamStore`] and every
/// parameter it registered. Any `set_value` — an optimizer step, a
/// checkpoint restore — bumps it, so consumers that cached derived
/// state (packed inference weights, decoded projections) can detect
/// staleness with a single integer compare.
#[derive(Clone, Default)]
pub struct StoreVersion(Rc<Cell<u64>>);

impl StoreVersion {
    /// Current mutation count.
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    fn bump(&self) {
        self.0.set(self.0.get() + 1);
    }
}

struct ParamInner {
    name: String,
    value: RefCell<Tensor>,
    /// The leaf `Var` this parameter was bound to on the most recent
    /// graph; the optimizer reads gradients through it after backward.
    bound: RefCell<Option<Var>>,
    /// Externally injected gradient (the data-parallel trainer's
    /// fixed-order shard reduction lands here). Takes precedence over
    /// the graph binding in [`Param::grad`] until [`Param::unbind`].
    injected_grad: RefCell<Option<Tensor>>,
    /// The owning store's mutation counter; bumped on every `set_value`.
    version: StoreVersion,
}

/// A trainable tensor.
///
/// `Param` is a cheap `Rc` handle: layers hold clones of the handles they
/// registered with the [`ParamStore`], and the optimizer iterates the
/// store. Parameters are single-threaded, like the autograd graph.
#[derive(Clone)]
pub struct Param(Rc<ParamInner>);

impl Param {
    /// Current value (cloned).
    pub fn value(&self) -> Tensor {
        self.0.value.borrow().clone()
    }

    /// Shape of the stored value.
    pub fn shape(&self) -> Vec<usize> {
        self.0.value.borrow().shape().to_vec()
    }

    /// Number of scalar parameters.
    pub fn len(&self) -> usize {
        self.0.value.borrow().len()
    }

    /// Whether the parameter is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Debug name (layer path).
    pub fn name(&self) -> &str {
        &self.0.name
    }

    /// Bind the parameter onto `graph` as a gradient-requiring leaf.
    ///
    /// Every layer `forward` starts by leafing its parameters; the
    /// returned `Var` participates in the computation, and the binding is
    /// remembered so [`Param::grad`] can read the gradient after
    /// `graph.backward`.
    ///
    /// Calling `leaf` again **on the same graph** returns the existing
    /// binding instead of creating a new node. This is load-bearing for
    /// correctness, not just economy: a parameter used several times on
    /// one tape (a fusion layer applied per window, a graph convolution
    /// applied per timestep) must be a *single* node so the backward
    /// sweep accumulates every use's contribution into the one gradient
    /// the optimizer reads. Separate leaves would each hold a partial
    /// gradient and [`Param::grad`] would see only the last one.
    ///
    /// On a [`Graph::no_grad`] graph there is no gradient to read, so
    /// the value enters as a constant and the binding is left alone: an
    /// evaluation between `backward` and the optimizer step neither
    /// hides the training gradient nor keeps its own values alive.
    pub fn leaf(&self, graph: &Graph) -> Var {
        if !graph.is_recording() {
            return graph.constant(self.0.value.borrow().clone());
        }
        if let Some(existing) = self.0.bound.borrow().as_ref() {
            if existing.belongs_to(graph) {
                return existing.clone();
            }
        }
        let var = graph.leaf(self.0.value.borrow().clone());
        *self.0.bound.borrow_mut() = Some(var.clone());
        var
    }

    /// Gradient the optimizer should apply this step: an injected
    /// gradient when one is present (the sharded trainer's combined
    /// reduction), otherwise whatever backward accumulated on the most
    /// recent bound graph.
    pub fn grad(&self) -> Option<Tensor> {
        if let Some(g) = self.0.injected_grad.borrow().as_ref() {
            return Some(g.clone());
        }
        let bound = self.0.bound.borrow();
        bound.as_ref().and_then(|v| v.graph().grad(v))
    }

    /// Squared L2 norm of the gradient without cloning it — what the
    /// optimizers' global-norm clipping measures every step. Large
    /// gradients reduce through the pool's fixed-chunk lanes
    /// ([`stwa_tensor::reduce::sq_norm`]); identical at any thread
    /// count.
    pub fn grad_sq_norm(&self) -> Option<f32> {
        if let Some(g) = self.0.injected_grad.borrow().as_ref() {
            return Some(stwa_tensor::reduce::sq_norm(g.data()));
        }
        let bound = self.0.bound.borrow();
        bound.as_ref().and_then(|v| v.graph().grad_sq_norm(v))
    }

    /// Inject an externally computed gradient. Until [`Param::unbind`]
    /// clears it, [`Param::grad`] and [`Param::grad_sq_norm`] serve the
    /// injected tensor instead of reading the graph binding — this is
    /// how the data-parallel trainer hands its reduced shard gradients
    /// to an unmodified optimizer.
    pub fn set_grad(&self, grad: Tensor) {
        assert_eq!(
            grad.shape(),
            self.shape().as_slice(),
            "set_grad must match the parameter shape ({})",
            self.name()
        );
        *self.0.injected_grad.borrow_mut() = Some(grad);
    }

    /// Overwrite the stored value (used by optimizers and tests).
    ///
    /// Also drops the remembered graph binding: a cached leaf would
    /// otherwise keep serving the *old* value to any further forward
    /// passes on the same tape.
    pub fn set_value(&self, value: Tensor) {
        assert_eq!(
            value.shape(),
            self.shape().as_slice(),
            "set_value must preserve the parameter shape ({})",
            self.name()
        );
        *self.0.value.borrow_mut() = value;
        *self.0.bound.borrow_mut() = None;
        self.0.version.bump();
    }

    /// Drop the remembered graph binding (frees the old tape) and any
    /// injected gradient.
    pub fn unbind(&self) {
        *self.0.bound.borrow_mut() = None;
        *self.0.injected_grad.borrow_mut() = None;
    }
}

/// One parameter's frozen state inside a [`ParamSnapshot`].
struct SnapshotEntry {
    name: String,
    shape: Vec<usize>,
    data: Arc<Vec<f32>>,
}

/// An immutable, `Send + Sync` copy of every parameter in a store, in
/// registration order.
///
/// `Param`/`ParamStore` are `Rc`-based and thread-confined; the
/// data-parallel trainer snapshots the store once per step and hands
/// each shard worker an `Arc` of the same snapshot. Workers rebuild
/// plain `Tensor`s from the raw buffers on their own thread via
/// [`ParamSnapshot::load_into`], so no `Rc` ever crosses a thread
/// boundary.
pub struct ParamSnapshot {
    entries: Vec<SnapshotEntry>,
}

impl ParamSnapshot {
    /// Number of parameter tensors in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Overwrite every parameter of `store` with the snapshot's values.
    ///
    /// The store must have the same registration order as the one the
    /// snapshot was taken from (same tensor count, and shape-compatible
    /// parameter by parameter) — the contract between a model and its
    /// worker-thread replicas built from the same config.
    pub fn load_into(&self, store: &ParamStore) -> Result<()> {
        let params = store.params();
        if params.len() != self.entries.len() {
            return Err(TensorError::Invalid(format!(
                "ParamSnapshot: store has {} parameters, snapshot has {}",
                params.len(),
                self.entries.len()
            )));
        }
        for (p, e) in params.iter().zip(&self.entries) {
            if p.shape() != e.shape {
                return Err(TensorError::Invalid(format!(
                    "ParamSnapshot: shape mismatch loading '{}' into '{}': {:?} vs {:?}",
                    e.name,
                    p.name(),
                    e.shape,
                    p.shape()
                )));
            }
            p.set_value(Tensor::from_vec(
                stwa_tensor::memory::take_copy(e.data.as_slice()),
                &e.shape,
            )?);
        }
        Ok(())
    }
}

/// Registry of every trainable tensor in a model.
///
/// Created once per model; layers register their parameters at
/// construction time, optimizers iterate [`ParamStore::params`].
#[derive(Default)]
pub struct ParamStore {
    params: RefCell<Vec<Param>>,
    version: StoreVersion,
}

impl ParamStore {
    pub fn new() -> ParamStore {
        ParamStore::default()
    }

    /// Register a new parameter initialized to `value`.
    pub fn param(&self, name: impl Into<String>, value: Tensor) -> Param {
        let p = Param(Rc::new(ParamInner {
            name: name.into(),
            value: RefCell::new(value),
            bound: RefCell::new(None),
            injected_grad: RefCell::new(None),
            version: self.version.clone(),
        }));
        self.params.borrow_mut().push(p.clone());
        p
    }

    /// Current mutation count: incremented whenever any registered
    /// parameter's value is overwritten.
    pub fn version(&self) -> u64 {
        self.version.get()
    }

    /// Cheap handle to the mutation counter, independent of the store's
    /// lifetime — what a frozen inference session holds to detect that
    /// its cached weights went stale.
    pub fn version_handle(&self) -> StoreVersion {
        self.version.clone()
    }

    /// Handles to all registered parameters, in registration order.
    pub fn params(&self) -> Vec<Param> {
        self.params.borrow().clone()
    }

    /// A `Send + Sync` copy of every parameter value, in registration
    /// order — the once-per-step handoff the data-parallel trainer
    /// ships to its shard workers.
    pub fn snapshot(&self) -> ParamSnapshot {
        ParamSnapshot {
            entries: self
                .params
                .borrow()
                .iter()
                .map(|p| SnapshotEntry {
                    name: p.name().to_string(),
                    shape: p.shape(),
                    data: Arc::new(p.value().into_vec()),
                })
                .collect(),
        }
    }

    /// Number of registered parameter tensors.
    pub fn tensor_count(&self) -> usize {
        self.params.borrow().len()
    }

    /// Total number of scalar parameters — the paper's "# Para" column.
    pub fn num_scalars(&self) -> usize {
        self.params.borrow().iter().map(|p| p.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_count() {
        let store = ParamStore::new();
        store.param("w", Tensor::zeros(&[3, 4]));
        store.param("b", Tensor::zeros(&[4]));
        assert_eq!(store.tensor_count(), 2);
        assert_eq!(store.num_scalars(), 16);
    }

    #[test]
    fn leaf_binds_and_reads_grad() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let g = Graph::new();
        let w = p.leaf(&g);
        let loss = w.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(p.grad().unwrap().data(), &[4.0, 6.0]);
        p.unbind();
        assert!(p.grad().is_none());
    }

    #[test]
    fn leaf_on_a_no_grad_graph_is_a_constant_and_keeps_the_binding() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let g = Graph::new();
        let loss = p.leaf(&g).square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        let eval = Graph::no_grad();
        let w = p.leaf(&eval);
        assert!(!w.requires_grad());
        assert_eq!(w.value().data(), &[2.0, 3.0]);
        assert_eq!(p.grad().unwrap().data(), &[4.0, 6.0]);
    }

    #[test]
    fn repeated_leaf_on_same_graph_accumulates_all_uses() {
        // w used twice in the loss: d/dw (w*a + w*b) = a + b. With
        // per-call re-binding this would report only the second use.
        let store = ParamStore::new();
        let p = store.param("w", Tensor::from_vec(vec![1.0], &[1]).unwrap());
        let g = Graph::new();
        let w1 = p.leaf(&g);
        let w2 = p.leaf(&g); // same node
        let a = g.constant(Tensor::from_vec(vec![3.0], &[1]).unwrap());
        let b = g.constant(Tensor::from_vec(vec![5.0], &[1]).unwrap());
        let loss = w1
            .mul(&a)
            .unwrap()
            .add(&w2.mul(&b).unwrap())
            .unwrap()
            .sum_all()
            .unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(p.grad().unwrap().data(), &[8.0], "grad must sum both uses");
        // A fresh graph gets a fresh binding.
        let g2 = Graph::new();
        let w3 = p.leaf(&g2);
        assert!(w3.belongs_to(&g2));
    }

    #[test]
    fn set_value_keeps_shape_and_invalidates_binding() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[2]));
        let g = Graph::new();
        let _old = p.leaf(&g);
        p.set_value(Tensor::ones(&[2]));
        assert_eq!(p.value().data(), &[1.0, 1.0]);
        // The next leaf on the same graph must carry the new value, not
        // the cached pre-update binding.
        let fresh = p.leaf(&g);
        assert_eq!(fresh.value().data(), &[1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "preserve the parameter shape")]
    fn set_value_rejects_shape_change() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[2]));
        p.set_value(Tensor::zeros(&[3]));
    }

    #[test]
    fn set_value_bumps_store_version() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[2]));
        let q = store.param("b", Tensor::zeros(&[1]));
        let handle = store.version_handle();
        assert_eq!(store.version(), 0);
        p.set_value(Tensor::ones(&[2]));
        assert_eq!(store.version(), 1);
        q.set_value(Tensor::ones(&[1]));
        assert_eq!(store.version(), 2);
        assert_eq!(handle.get(), 2, "handle tracks the same counter");
        // Reads do not bump.
        let _ = p.value();
        p.unbind();
        assert_eq!(store.version(), 2);
    }

    #[test]
    fn snapshot_is_send_and_round_trips_across_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ParamSnapshot>();

        let store = ParamStore::new();
        store.param("w", Tensor::from_vec(vec![1.0, -2.5, 3.25], &[3]).unwrap());
        store.param("b", Tensor::from_vec(vec![0.5], &[1]).unwrap());
        let snap = Arc::new(store.snapshot());
        assert_eq!(snap.len(), 2);

        // Rebuild a replica store on another thread from the snapshot.
        let shipped = Arc::clone(&snap);
        let values = std::thread::spawn(move || {
            let replica = ParamStore::new();
            replica.param("w", Tensor::zeros(&[3]));
            replica.param("b", Tensor::zeros(&[1]));
            shipped.load_into(&replica).unwrap();
            replica
                .params()
                .iter()
                .flat_map(|p| p.value().data().to_vec())
                .collect::<Vec<f32>>()
        })
        .join()
        .unwrap();
        assert_eq!(values, vec![1.0, -2.5, 3.25, 0.5]);
    }

    #[test]
    fn snapshot_load_rejects_mismatched_stores() {
        let store = ParamStore::new();
        store.param("w", Tensor::zeros(&[2]));
        let snap = store.snapshot();

        let wrong_count = ParamStore::new();
        assert!(snap.load_into(&wrong_count).is_err());

        let wrong_shape = ParamStore::new();
        wrong_shape.param("w", Tensor::zeros(&[3]));
        assert!(snap.load_into(&wrong_shape).is_err());
    }

    #[test]
    fn snapshot_is_immutable_under_later_updates() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[2]));
        let snap = store.snapshot();
        p.set_value(Tensor::ones(&[2]));
        let replica = ParamStore::new();
        replica.param("w", Tensor::full(&[2], 9.0));
        snap.load_into(&replica).unwrap();
        assert_eq!(replica.params()[0].value().data(), &[0.0, 0.0]);
    }

    #[test]
    fn injected_grad_overrides_binding_until_unbind() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::from_vec(vec![2.0, 3.0], &[2]).unwrap());
        let g = Graph::new();
        let w = p.leaf(&g);
        let loss = w.square().unwrap().sum_all().unwrap();
        g.backward(&loss).unwrap();
        assert_eq!(p.grad().unwrap().data(), &[4.0, 6.0]);

        // Injection wins over the live binding...
        p.set_grad(Tensor::from_vec(vec![0.5, -0.5], &[2]).unwrap());
        assert_eq!(p.grad().unwrap().data(), &[0.5, -0.5]);
        assert_eq!(p.grad_sq_norm().unwrap(), 0.5);

        // ...and unbind clears both.
        p.unbind();
        assert!(p.grad().is_none());
        assert!(p.grad_sq_norm().is_none());
    }

    #[test]
    #[should_panic(expected = "set_grad must match")]
    fn injected_grad_rejects_shape_mismatch() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[2]));
        p.set_grad(Tensor::zeros(&[3]));
    }

    #[test]
    fn store_handles_are_shared() {
        let store = ParamStore::new();
        let p = store.param("w", Tensor::zeros(&[1]));
        // Mutating through the store's copy is visible through ours.
        store.params()[0].set_value(Tensor::ones(&[1]));
        assert_eq!(p.value().data(), &[1.0]);
    }
}
