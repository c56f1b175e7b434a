//! The multi-layer perceptron: a stack of [`Dense`] layers with a training
//! loop, target-network synchronization helpers, and JSON (de)serialization.

use crate::activation::Activation;
use crate::init::Init;
use crate::layer::Dense;
use crate::loss::Loss;
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// Error produced by model (de)serialization.
#[derive(Debug)]
pub struct ModelIoError(String);

impl fmt::Display for ModelIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "model serialization error: {}", self.0)
    }
}

impl Error for ModelIoError {}

/// A feed-forward multi-layer perceptron.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Dense>,
    /// The batch the last [`Mlp::forward`] saw: the bottom layer's input
    /// (every other layer reads the cached output of the layer below).
    #[serde(skip)]
    input: Option<Matrix>,
}

impl Mlp {
    /// Build an MLP with layer widths `dims` (e.g. `[in, 64, 64, out]`),
    /// `hidden` activation on interior layers and `output` activation on the
    /// last layer. Hidden layers use He init for ReLU and Xavier otherwise.
    ///
    /// # Panics
    /// Panics if fewer than two dims are given.
    pub fn new(dims: &[usize], hidden: Activation, output: Activation, seed: u64) -> Self {
        assert!(
            dims.len() >= 2,
            "an MLP needs at least input and output widths"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let hidden_init = if hidden == Activation::Relu {
            Init::HeUniform
        } else {
            Init::XavierUniform
        };
        let layers = dims
            .windows(2)
            .enumerate()
            .map(|(i, w)| {
                let last = i == dims.len() - 2;
                let (act, init) = if last {
                    (output, Init::XavierUniform)
                } else {
                    (hidden, hidden_init)
                };
                Dense::new(w[0], w[1], act, init, &mut rng)
            })
            .collect();
        Mlp {
            layers,
            input: None,
        }
    }

    /// The layer widths, input first: `[in, hidden.., out]` (empty for a
    /// network without layers). Two networks can share parameters iff their
    /// widths are equal.
    pub fn widths(&self) -> Vec<usize> {
        let input = self.layers.first().map(Dense::fan_in);
        input
            .into_iter()
            .chain(self.layers.iter().map(Dense::fan_out))
            .collect()
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.num_params()).sum()
    }

    /// The layer stack.
    pub fn layers(&self) -> &[Dense] {
        &self.layers
    }

    /// Mutable layer stack (for tests and custom schedules).
    pub fn layers_mut(&mut self) -> &mut [Dense] {
        &mut self.layers
    }

    /// Training forward pass: every layer caches its output for
    /// [`Mlp::backward`]; the returned reference is the top layer's cache.
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        let mut h = &*self.input.insert(x.clone());
        for l in &mut self.layers {
            h = l.forward(h);
        }
        h
    }

    /// Inference from a shared reference (no caches).
    pub fn predict(&self, x: &Matrix) -> Matrix {
        let (first, rest) = self.layers.split_first().expect("non-empty");
        let mut h = first.forward_inference(x);
        for l in rest {
            h = l.forward_inference(&h);
        }
        h
    }

    /// Batched inference over per-sample state slices: packs the rows into
    /// one matrix and runs a single forward pass, so a replay batch costs
    /// one matrix multiply per layer instead of one per sample (the
    /// [`Mlp::predict_one`] path).
    ///
    /// Row `i` of the result is the network's output for `states[i]`.
    ///
    /// # Panics
    /// Panics if `states` is empty or the rows have unequal lengths.
    pub fn predict_batch<S: AsRef<[f32]>>(&self, states: &[S]) -> Matrix {
        self.predict(&Matrix::from_rows(states))
    }

    /// Inference on a single input vector.
    pub fn predict_one(&self, x: &[f32]) -> Vec<f32> {
        self.predict(&Matrix::row(x.to_vec())).as_slice().to_vec()
    }

    /// Backpropagate `dL/dy` through the stack, accumulating gradients. The
    /// bottom layer's input gradient (`dL/dx` for the observation) has no
    /// consumer and is never formed. Panics if no [`Mlp::forward`] ran.
    pub fn backward(&mut self, grad_out: &Matrix) {
        let x = self
            .input
            .as_ref()
            .expect("backward without cached forward");
        let mut grad: Option<Matrix> = None;
        for i in (0..self.layers.len()).rev() {
            let (below, rest) = self.layers.split_at_mut(i);
            let layer = &mut rest[0];
            let input = below.last().map_or(x, Dense::output);
            let dz = layer.backward(input, grad.as_ref().unwrap_or(grad_out));
            grad = (i > 0).then(|| layer.input_grad(&dz));
        }
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Global L2 norm of all accumulated gradients.
    pub fn grad_norm(&self) -> f32 {
        self.layers
            .iter()
            .map(|l| l.grad_sq_sum())
            .sum::<f32>()
            .sqrt()
    }

    /// Clip gradients to a maximum global L2 norm. No-op when the norm is
    /// already within the budget. Returns the pre-clip norm.
    pub fn clip_grad_norm(&mut self, max_norm: f32) -> f32 {
        let norm = self.grad_norm();
        if norm > max_norm && norm > 0.0 {
            let factor = max_norm / norm;
            for l in &mut self.layers {
                l.scale_grads(factor);
            }
        }
        norm
    }

    /// Apply accumulated gradients via `opt`, then clear them.
    pub fn apply_grads(&mut self, opt: &mut dyn Optimizer) {
        for (i, l) in self.layers.iter_mut().enumerate() {
            l.apply_grads(i * 2, opt);
        }
    }

    /// One supervised step on a batch: forward, loss, backward, update.
    /// Returns the batch loss.
    pub fn train_batch(
        &mut self,
        x: &Matrix,
        target: &Matrix,
        loss: Loss,
        opt: &mut dyn Optimizer,
    ) -> f32 {
        self.zero_grad();
        let pred = self.forward(x);
        let (l, grad) = loss.compute(pred, target);
        self.backward(&grad);
        self.apply_grads(opt);
        l
    }

    /// Copy all parameters from another MLP of identical architecture
    /// (hard target-network sync).
    ///
    /// # Panics
    /// Panics on architecture mismatch.
    pub fn copy_params_from(&mut self, other: &Mlp) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.copy_params_from(b);
        }
    }

    /// [`Mlp::copy_params_from`] for a network read from outside.
    ///
    /// # Errors
    /// Returns an error, and copies nothing, if the layer widths differ.
    pub fn try_copy_params_from(&mut self, other: &Mlp) -> Result<(), ModelIoError> {
        let (found, expected) = (other.widths(), self.widths());
        if found != expected {
            return Err(ModelIoError(format!(
                "layer widths {found:?} where {expected:?} are expected"
            )));
        }
        self.copy_params_from(other);
        Ok(())
    }

    /// Polyak soft update from another MLP: `θ ← τ·θ_other + (1-τ)·θ`.
    ///
    /// # Panics
    /// Panics on architecture mismatch.
    pub fn soft_update_from(&mut self, other: &Mlp, tau: f32) {
        assert_eq!(
            self.layers.len(),
            other.layers.len(),
            "architecture mismatch"
        );
        for (a, b) in self.layers.iter_mut().zip(&other.layers) {
            a.soft_update_from(b, tau);
        }
    }

    /// Serialize parameters and architecture to JSON.
    ///
    /// # Errors
    /// Returns an error if serialization fails.
    pub fn to_json(&self) -> Result<String, ModelIoError> {
        serde_json::to_string(self).map_err(|e| ModelIoError(e.to_string()))
    }

    /// Deserialize a model saved by [`Mlp::to_json`].
    ///
    /// # Errors
    /// Returns an error if the JSON is malformed or describes a network no
    /// constructor builds: no layer, a weight matrix whose data is not
    /// `rows × cols`, a bias that is not one per output, or a layer whose
    /// input is not as wide as the layer below's output.
    pub fn from_json(json: &str) -> Result<Mlp, ModelIoError> {
        let net: Mlp = serde_json::from_str(json).map_err(|e| ModelIoError(e.to_string()))?;
        let mut below = net.layers.first().map(Dense::fan_in);
        for (i, layer) in net.layers.iter().enumerate() {
            let (w, b) = layer.params();
            let (rows, cols) = (layer.fan_in(), layer.fan_out());
            if rows.checked_mul(cols) != Some(w.len()) || b.len() != cols || below != Some(rows) {
                return Err(ModelIoError(format!("layer {i} is malformed")));
            }
            below = Some(cols);
        }
        if below.is_none() {
            return Err(ModelIoError("network has no layer".into()));
        }
        Ok(net)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::{Adam, Sgd};

    #[test]
    fn shapes_flow_through_network() {
        let net = Mlp::new(&[4, 8, 3], Activation::Relu, Activation::Linear, 1);
        assert_eq!(net.widths(), vec![4, 8, 3]);
        assert_eq!(net.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
        let y = net.predict(&Matrix::zeros(5, 4));
        assert_eq!((y.rows(), y.cols()), (5, 3));
    }

    #[test]
    fn predict_matches_forward() {
        let mut net = Mlp::new(&[3, 6, 2], Activation::Tanh, Activation::Linear, 2);
        let x = Matrix::row(vec![0.1, -0.2, 0.5]);
        let trained = net.forward(&x).clone();
        assert_eq!(trained, net.predict(&x));
        assert_eq!(
            net.predict_one(&[0.1, -0.2, 0.5]),
            net.predict(&x).as_slice().to_vec()
        );
    }

    /// The canonical sanity check: learn XOR.
    #[test]
    fn learns_xor() {
        let mut net = Mlp::new(&[2, 8, 1], Activation::Tanh, Activation::Sigmoid, 3);
        let x = Matrix::from_vec(4, 2, vec![0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0]);
        let t = Matrix::from_vec(4, 1, vec![0.0, 1.0, 1.0, 0.0]);
        let mut opt = Adam::new(0.05);
        let mut final_loss = f32::MAX;
        for _ in 0..2000 {
            final_loss = net.train_batch(&x, &t, Loss::Mse, &mut opt);
        }
        assert!(
            final_loss < 0.01,
            "XOR loss {final_loss} should reach < 0.01"
        );
        let y = net.predict(&x);
        assert!(y.get(0, 0) < 0.2 && y.get(3, 0) < 0.2);
        assert!(y.get(1, 0) > 0.8 && y.get(2, 0) > 0.8);
    }

    #[test]
    fn learns_linear_regression_with_sgd() {
        // y = 2a - b + 0.5
        let mut net = Mlp::new(&[2, 1], Activation::Relu, Activation::Linear, 4);
        let xs: Vec<f32> = (0..40).map(|i| (i as f32) / 20.0 - 1.0).collect();
        let mut data = Vec::new();
        let mut target = Vec::new();
        for (i, &a) in xs.iter().enumerate() {
            let b = xs[(i * 7 + 3) % xs.len()];
            data.extend([a, b]);
            target.push(2.0 * a - b + 0.5);
        }
        let x = Matrix::from_vec(40, 2, data);
        let t = Matrix::from_vec(40, 1, target);
        let mut opt = Sgd::new(0.1);
        for _ in 0..500 {
            net.train_batch(&x, &t, Loss::Mse, &mut opt);
        }
        let (w, b) = net.layers()[0].params();
        assert!((w[0] - 2.0).abs() < 0.05, "w0 {}", w[0]);
        assert!((w[1] + 1.0).abs() < 0.05, "w1 {}", w[1]);
        assert!((b[0] - 0.5).abs() < 0.05, "b {}", b[0]);
    }

    #[test]
    fn gradient_clipping_bounds_the_norm() {
        let mut net = Mlp::new(&[2, 4, 1], Activation::Tanh, Activation::Linear, 8);
        let x = Matrix::row(vec![1.0, -1.0]);
        let t = Matrix::row(vec![100.0]); // huge error => huge gradients
        net.zero_grad();
        let (_, grad) = Loss::Mse.compute(net.forward(&x), &t);
        net.backward(&grad);
        let before = net.grad_norm();
        assert!(before > 1.0);
        let reported = net.clip_grad_norm(1.0);
        assert_eq!(reported, before);
        assert!(
            (net.grad_norm() - 1.0).abs() < 1e-3,
            "norm clipped to 1: {}",
            net.grad_norm()
        );
        // Clipping below the cap is a no-op.
        let small = net.grad_norm();
        net.clip_grad_norm(10.0);
        assert!((net.grad_norm() - small).abs() < 1e-6);
    }

    /// `Mlp::backward` skips the bottom layer's `dz·Wᵀ`; nothing it keeps
    /// may depend on that product. Drive the same layers by hand, forming
    /// the input gradient at every layer, and compare every `(dW, db)` by
    /// bits; count the products the stack formed.
    #[test]
    fn backward_skips_only_the_unused_input_gradient() {
        use crate::tensor::tests::MATMUL_T_CALLS;
        for dims in [&[4, 3][..], &[4, 9, 6, 3]] {
            let mut net = Mlp::new(dims, Activation::Relu, Activation::Linear, 11);
            let x = Matrix::from_vec(
                5,
                4,
                (0..20).map(|i| ((i * 7 % 11) as f32 - 4.0) * 0.3).collect(),
            );
            let t = Matrix::zeros(5, 3);
            let mut by_hand = net.layers().to_vec();

            let (_, grad) = Loss::Mse.compute(net.forward(&x), &t);
            MATMUL_T_CALLS.with(|c| c.set(0));
            net.backward(&grad);
            assert_eq!(MATMUL_T_CALLS.with(|c| c.get()), dims.len() - 2);

            let mut inputs = vec![x.clone()];
            for l in &mut by_hand {
                let y = l.forward(inputs.last().unwrap()).clone();
                inputs.push(y);
            }
            let mut g = grad;
            for (l, input) in by_hand.iter_mut().zip(&inputs).rev() {
                let dz = l.backward(input, &g);
                g = l.input_grad(&dz);
            }
            assert_eq!((g.rows(), g.cols()), (5, 4), "dL/dx formed by hand");

            for (stacked, hand) in net.layers().iter().zip(&by_hand) {
                let bits = |l: &Dense| {
                    let (gw, gb) = l.grads().expect("grads accumulated");
                    gw.iter().chain(gb).map(|g| g.to_bits()).collect::<Vec<_>>()
                };
                assert_eq!(bits(stacked), bits(hand));
            }
        }
    }

    #[test]
    fn copy_and_soft_update_sync_parameters() {
        let mut a = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Linear, 5);
        let b = Mlp::new(&[2, 4, 1], Activation::Relu, Activation::Linear, 6);
        assert_ne!(a, b);
        let mut c = a.clone();
        c.copy_params_from(&b);
        assert_eq!(c, b);
        // Soft update with tau=1 equals a hard copy.
        a.soft_update_from(&b, 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn serialization_roundtrip_preserves_predictions() {
        let net = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, 9);
        let json = net.to_json().unwrap();
        let back = Mlp::from_json(&json).unwrap();
        let x = Matrix::row(vec![0.3, 0.6, -0.9]);
        assert_eq!(net.predict(&x), back.predict(&x));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Mlp::from_json("not json").is_err());
    }

    /// Well-formed JSON for a network no constructor builds is an error:
    /// a weight matrix whose data is not `rows × cols`, a bias of the wrong
    /// length, layers that do not chain, no layer at all.
    #[test]
    fn from_json_rejects_inconsistent_shapes() {
        let json = Mlp::new(&[3, 5, 2], Activation::Relu, Activation::Linear, 9)
            .to_json()
            .unwrap();
        assert!(json.contains(r#""rows":3,"cols":5"#) && json.contains(r#""rows":5,"cols":2"#));
        for bad in [
            json.replacen(r#""rows":3,"cols":5"#, r#""rows":3,"cols":6"#, 1),
            json.replacen(r#""rows":5,"cols":2"#, r#""rows":4,"cols":2"#, 1),
            json.replacen(r#""b":[0.0,"#, r#""b":["#, 1),
            r#"{"layers":[]}"#.to_string(),
        ] {
            assert!(Mlp::from_json(&bad).is_err(), "{bad}");
        }
        let mut net = Mlp::new(&[3, 4, 2], Activation::Relu, Activation::Linear, 1);
        let other = Mlp::from_json(&json).unwrap();
        assert!(net.try_copy_params_from(&other).is_err());
        assert_eq!(net.widths(), [3, 4, 2]);
    }

    #[test]
    fn deterministic_construction() {
        let a = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Linear, 42);
        let b = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Linear, 42);
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 8, 2], Activation::Relu, Activation::Linear, 43);
        assert_ne!(a, c);
    }
}
