//! A fully connected layer with cached activations for backpropagation.

use crate::activation::Activation;
use crate::init::Init;
use crate::optim::Optimizer;
use crate::tensor::Matrix;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// A dense layer `y = f(x·W + b)` with gradient accumulators.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Vec<f32>,
    activation: Activation,
    #[serde(skip)]
    grad_w: Option<Matrix>,
    #[serde(skip)]
    grad_b: Vec<f32>,
    #[serde(skip)]
    output: Option<Matrix>,
}

impl Dense {
    /// A new layer with `fan_in` inputs and `fan_out` outputs. Weights are
    /// drawn from `init`; biases start at zero.
    pub fn new(
        fan_in: usize,
        fan_out: usize,
        activation: Activation,
        init: Init,
        rng: &mut StdRng,
    ) -> Self {
        let mut w = Matrix::zeros(fan_in, fan_out);
        w.map_inplace(|_| init.sample(fan_in, fan_out, rng));
        Dense {
            w,
            b: vec![0.0; fan_out],
            activation,
            grad_w: None,
            grad_b: vec![],
            output: None,
        }
    }

    /// Input width.
    pub fn fan_in(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn fan_out(&self) -> usize {
        self.w.cols()
    }

    /// The activation applied by this layer.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.w.rows() * self.w.cols() + self.b.len()
    }

    /// Training forward pass: the output is cached for a subsequent
    /// [`Dense::backward`] and returned by reference.
    pub fn forward(&mut self, x: &Matrix) -> &Matrix {
        self.output.insert(self.forward_inference(x))
    }

    /// Forward pass without caching (inference from a shared reference).
    pub fn forward_inference(&self, x: &Matrix) -> Matrix {
        let mut z = x.matmul(&self.w);
        z.add_row(&self.b);
        self.activation.apply(&mut z);
        z
    }

    /// The output cached by the last [`Dense::forward`]; panics if none ran.
    pub fn output(&self) -> &Matrix {
        self.output
            .as_ref()
            .expect("backward without cached forward")
    }

    /// Backward pass, parameter half: given the `input` the cached forward
    /// pass saw and `dL/dy`, accumulate `dL/dW` and `dL/db` and return
    /// `dz = dL/dy ⊙ f'(y)`, which [`Dense::input_grad`] turns into `dL/dx`.
    /// Panics if no training forward pass preceded this call.
    pub fn backward(&mut self, input: &Matrix, grad_out: &Matrix) -> Matrix {
        let mut dz = grad_out.clone();
        let act = self.activation;
        for (g, &y) in dz.as_mut_slice().iter_mut().zip(self.output().as_slice()) {
            *g *= act.derivative_from_output(y);
        }
        let gw = input.t_matmul(&dz);
        match &mut self.grad_w {
            Some(acc) => {
                for (a, &g) in acc.as_mut_slice().iter_mut().zip(gw.as_slice()) {
                    *a += g;
                }
            }
            None => self.grad_w = Some(gw),
        }
        let gb = dz.col_sums();
        if self.grad_b.is_empty() {
            self.grad_b = gb;
        } else {
            for (a, g) in self.grad_b.iter_mut().zip(gb) {
                *a += g;
            }
        }
        dz
    }

    /// Backward pass, input half: `dL/dx = dz · Wᵀ` for the `dz` that
    /// [`Dense::backward`] returned.
    pub fn input_grad(&self, dz: &Matrix) -> Matrix {
        dz.matmul_t(&self.w)
    }

    /// Apply the accumulated gradients through `opt` (weights in `slot`,
    /// biases in `slot + 1`), then clear them.
    pub fn apply_grads(&mut self, slot: usize, opt: &mut dyn Optimizer) {
        if let Some(gw) = &self.grad_w {
            opt.step(slot, self.w.as_mut_slice(), gw.as_slice());
            opt.step(slot + 1, &mut self.b, &self.grad_b);
        }
        self.zero_grad();
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_w = None;
        self.grad_b.clear();
    }

    /// Weights (row-major `fan_in × fan_out`), then biases.
    pub fn params(&self) -> (&[f32], &[f32]) {
        (self.w.as_slice(), &self.b)
    }

    /// Mutable weights and biases.
    pub fn params_mut(&mut self) -> (&mut [f32], &mut [f32]) {
        (self.w.as_mut_slice(), &mut self.b)
    }

    /// Accumulated gradients, if a backward pass ran: `(dW, db)`.
    pub fn grads(&self) -> Option<(&[f32], &[f32])> {
        self.grad_w
            .as_ref()
            .map(|g| (g.as_slice(), self.grad_b.as_slice()))
    }

    /// Sum of squared gradient entries (0 if no backward pass ran).
    pub fn grad_sq_sum(&self) -> f32 {
        match &self.grad_w {
            Some(gw) => {
                gw.as_slice().iter().map(|g| g * g).sum::<f32>()
                    + self.grad_b.iter().map(|g| g * g).sum::<f32>()
            }
            None => 0.0,
        }
    }

    /// Multiply all accumulated gradients by `factor` (gradient clipping).
    pub fn scale_grads(&mut self, factor: f32) {
        if let Some(gw) = &mut self.grad_w {
            gw.map_inplace(|g| g * factor);
        }
        for g in &mut self.grad_b {
            *g *= factor;
        }
    }

    /// Copy parameters from another layer of identical shape.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn copy_params_from(&mut self, other: &Dense) {
        assert_eq!(self.w.rows(), other.w.rows(), "layer shape mismatch");
        assert_eq!(self.w.cols(), other.w.cols(), "layer shape mismatch");
        self.w = other.w.clone();
        self.b = other.b.clone();
    }

    /// Polyak averaging: `θ ← τ·θ_other + (1-τ)·θ`.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn soft_update_from(&mut self, other: &Dense, tau: f32) {
        assert_eq!(self.w.rows(), other.w.rows(), "layer shape mismatch");
        assert_eq!(self.w.cols(), other.w.cols(), "layer shape mismatch");
        for (a, &b) in self.w.as_mut_slice().iter_mut().zip(other.w.as_slice()) {
            *a = tau * b + (1.0 - tau) * *a;
        }
        for (a, &b) in self.b.iter_mut().zip(&other.b) {
            *a = tau * b + (1.0 - tau) * *a;
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // index-based finite-difference loops read clearer
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn forward_computes_affine_then_activation() {
        let mut r = rng();
        let mut layer = Dense::new(2, 1, Activation::Relu, Init::Zeros, &mut r);
        {
            let (w, b) = layer.params_mut();
            w.copy_from_slice(&[1.0, -2.0]);
            b.copy_from_slice(&[0.5]);
        }
        let y = layer.forward_inference(&Matrix::row(vec![2.0, 1.0]));
        // 2*1 + 1*(-2) + 0.5 = 0.5 -> relu -> 0.5
        assert_eq!(y.as_slice(), &[0.5]);
        let y = layer.forward_inference(&Matrix::row(vec![0.0, 1.0]));
        // -2 + 0.5 = -1.5 -> relu -> 0
        assert_eq!(y.as_slice(), &[0.0]);
    }

    #[test]
    fn inference_matches_training_forward() {
        let mut r = rng();
        let mut layer = Dense::new(3, 4, Activation::Tanh, Init::XavierUniform, &mut r);
        let x = Matrix::row(vec![0.3, -0.7, 1.1]);
        let trained = layer.forward(&x).clone();
        assert_eq!(trained, layer.forward_inference(&x));
    }

    /// Full numerical gradient check of a dense layer.
    #[test]
    fn backward_matches_numerical_gradients() {
        let mut r = rng();
        let mut layer = Dense::new(3, 2, Activation::Tanh, Init::XavierUniform, &mut r);
        let x = Matrix::from_vec(2, 3, vec![0.2, -0.4, 0.8, 1.0, 0.5, -0.9]);
        // Loss = sum(y); dL/dy = ones.
        let loss = |l: &Dense| -> f32 { l.forward_inference(&x).as_slice().iter().sum() };
        layer.forward(&x);
        let ones = Matrix::from_vec(2, 2, vec![1.0; 4]);
        let dz = layer.backward(&x, &ones);
        let grad_in = layer.input_grad(&dz);
        let (gw, gb) = layer.grads().expect("grads accumulated");
        let gw = gw.to_vec();
        let gb = gb.to_vec();

        let h = 1e-3f32;
        // Check weight gradients.
        for i in 0..6 {
            let orig = layer.params().0[i];
            layer.params_mut().0[i] = orig + h;
            let lp = loss(&layer);
            layer.params_mut().0[i] = orig - h;
            let lm = loss(&layer);
            layer.params_mut().0[i] = orig;
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (num - gw[i]).abs() < 2e-2,
                "dW[{i}]: num {num} vs ana {}",
                gw[i]
            );
        }
        // Check bias gradients.
        for i in 0..2 {
            let orig = layer.params().1[i];
            layer.params_mut().1[i] = orig + h;
            let lp = loss(&layer);
            layer.params_mut().1[i] = orig - h;
            let lm = loss(&layer);
            layer.params_mut().1[i] = orig;
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (num - gb[i]).abs() < 2e-2,
                "db[{i}]: num {num} vs ana {}",
                gb[i]
            );
        }
        // Check input gradients.
        let base = loss(&layer);
        let _ = base;
        for i in 0..6 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += h;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= h;
            let lp: f32 = layer.forward_inference(&xp).as_slice().iter().sum();
            let lm: f32 = layer.forward_inference(&xm).as_slice().iter().sum();
            let num = (lp - lm) / (2.0 * h);
            assert!(
                (num - grad_in.as_slice()[i]).abs() < 2e-2,
                "dX[{i}]: num {num} vs ana {}",
                grad_in.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::XavierUniform, &mut r);
        let x = Matrix::row(vec![1.0, 1.0]);
        let g = Matrix::row(vec![1.0, 1.0]);
        layer.forward(&x);
        layer.backward(&x, &g);
        let first = layer.grads().unwrap().0.to_vec();
        layer.forward(&x);
        layer.backward(&x, &g);
        let second = layer.grads().unwrap().0.to_vec();
        for (a, b) in first.iter().zip(&second) {
            assert!((b - 2.0 * a).abs() < 1e-5, "grads should accumulate");
        }
        layer.zero_grad();
        assert!(layer.grads().is_none());
    }

    #[test]
    fn soft_update_interpolates() {
        let mut r = rng();
        let mut a = Dense::new(1, 1, Activation::Linear, Init::Zeros, &mut r);
        let mut b = Dense::new(1, 1, Activation::Linear, Init::Zeros, &mut r);
        a.params_mut().0[0] = 0.0;
        b.params_mut().0[0] = 10.0;
        a.soft_update_from(&b, 0.1);
        assert!((a.params().0[0] - 1.0).abs() < 1e-6);
        a.copy_params_from(&b);
        assert_eq!(a.params().0[0], 10.0);
    }

    #[test]
    #[should_panic(expected = "backward without cached forward")]
    fn backward_without_forward_panics() {
        let mut r = rng();
        let mut layer = Dense::new(2, 2, Activation::Linear, Init::Zeros, &mut r);
        let x = Matrix::row(vec![1.0, 1.0]);
        let _ = layer.backward(&x, &x);
    }
}
