//! An evaluation between `backward` and the optimizer step must leave
//! the training gradients readable: `forward_eval` runs on a graph that
//! records nothing, and a parameter is not re-bound to it.

use rand::rngs::StdRng;
use rand::SeedableRng;
use stwa_autograd::Graph;
use stwa_baselines::GruModel;
use stwa_core::ForecastModel;
use stwa_tensor::Tensor;

#[test]
fn forward_eval_after_backward_leaves_every_gradient_in_place() {
    let mut rng = StdRng::seed_from_u64(5);
    let model = GruModel::new(3, 12, 2, 1, 8, &mut rng);
    let x = Tensor::randn(&[2, 3, 12, 1], &mut rng);

    let graph = Graph::new();
    let out = model
        .forward(&graph, &graph.constant(x.clone()), &mut rng, true)
        .expect("training forward");
    let loss = out.pred.square().unwrap().mean_all().unwrap();
    graph.backward(&loss).expect("backward");
    let bits = |model: &GruModel| -> Vec<Option<Vec<u32>>> {
        model
            .store()
            .params()
            .iter()
            .map(|p| p.grad().map(|g| g.data().iter().map(|v| v.to_bits()).collect()))
            .collect()
    };
    let before = bits(&model);
    assert!(before.iter().all(Option::is_some), "every parameter trains");

    let tape_len = graph.len();
    model.forward_eval(&x).expect("evaluation");
    assert_eq!(bits(&model), before);
    assert_eq!(graph.len(), tape_len, "evaluation must not extend the tape");
}
