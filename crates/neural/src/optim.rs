//! First-order optimizers.
//!
//! Optimizers are keyed by a *slot* (one per parameter tensor) so a single
//! optimizer instance can drive a whole network while keeping per-tensor
//! state (Adam moments).

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A stateful gradient-descent rule.
pub trait Optimizer {
    /// Apply one update to `params` given `grads`. `slot` identifies the
    /// parameter tensor (layer index × 2 + {0: weights, 1: biases}).
    ///
    /// # Panics
    /// Implementations panic if `params.len() != grads.len()`.
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]);

    /// Reset all accumulated state.
    fn reset(&mut self);
}

/// Plain stochastic gradient descent (stateless). A test fixture: the DQN
/// trains with [`Adam`]; `Sgd` keeps the simplest optimizer at hand for
/// the crate's own training and gradient tests.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub lr: f32,
}

impl Sgd {
    /// SGD at learning rate `lr`.
    pub fn new(lr: f32) -> Self {
        Sgd { lr }
    }
}

impl Optimizer for Sgd {
    fn step(&mut self, _slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        for (p, &g) in params.iter_mut().zip(grads) {
            *p -= self.lr * g;
        }
    }

    fn reset(&mut self) {}
}

/// Adam (Kingma & Ba, 2015).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability term.
    pub eps: f32,
    state: HashMap<usize, AdamSlot>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct AdamSlot {
    m: Vec<f32>,
    v: Vec<f32>,
    t: u64,
}

impl Adam {
    /// Adam with standard hyper-parameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            state: HashMap::new(),
        }
    }
}

impl Optimizer for Adam {
    fn step(&mut self, slot: usize, params: &mut [f32], grads: &[f32]) {
        assert_eq!(params.len(), grads.len(), "param/grad length mismatch");
        let s = self.state.entry(slot).or_insert_with(|| AdamSlot {
            m: vec![0.0; params.len()],
            v: vec![0.0; params.len()],
            t: 0,
        });
        assert_eq!(
            s.m.len(),
            params.len(),
            "slot reused with a different shape"
        );
        s.t += 1;
        let bc1 = 1.0 - self.beta1.powi(s.t as i32);
        let bc2 = 1.0 - self.beta2.powi(s.t as i32);
        let moments = s.m.iter_mut().zip(s.v.iter_mut());
        for ((p, &g), (m, v)) in params.iter_mut().zip(grads).zip(moments) {
            *m = self.beta1 * *m + (1.0 - self.beta1) * g;
            *v = self.beta2 * *v + (1.0 - self.beta2) * g * g;
            let m_hat = *m / bc1;
            let v_hat = *v / bc2;
            *p -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    fn reset(&mut self) {
        self.state.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize f(x) = (x-3)² with each optimizer.
    fn minimize(opt: &mut dyn Optimizer, steps: usize) -> f32 {
        let mut x = [0.0f32];
        for _ in 0..steps {
            let g = [2.0 * (x[0] - 3.0)];
            opt.step(0, &mut x, &g);
        }
        x[0]
    }

    #[test]
    fn sgd_converges_on_quadratic() {
        let mut o = Sgd::new(0.1);
        assert!((minimize(&mut o, 100) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let mut o = Adam::new(0.1);
        assert!((minimize(&mut o, 500) - 3.0).abs() < 1e-2);
    }

    #[test]
    fn slots_keep_independent_state() {
        let mut o = Adam::new(0.1);
        let mut a = [0.0f32];
        let mut b = [0.0f32];
        for _ in 0..50 {
            let ga = [2.0 * (a[0] - 1.0)];
            o.step(0, &mut a, &ga);
            let gb = [2.0 * (b[0] + 1.0)];
            o.step(1, &mut b, &gb);
        }
        assert!(a[0] > 0.5 && b[0] < -0.5);
    }

    #[test]
    fn reset_clears_state() {
        let mut o = Adam::new(0.1);
        let mut x = [0.0f32];
        o.step(0, &mut x, &[1.0]);
        o.reset();
        assert!(o.state.is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let mut o = Sgd::new(0.1);
        let mut x = [0.0f32; 2];
        o.step(0, &mut x, &[1.0]);
    }
}
