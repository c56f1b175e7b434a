//! The environment abstraction and a toy chain MDP used by tests and benches.

use rand::rngs::StdRng;

/// Result of one environment transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Observation after the transition.
    pub state: Vec<f32>,
    /// Scalar reward.
    pub reward: f64,
    /// Whether the episode terminated.
    pub done: bool,
}

/// A discrete-action RL environment.
pub trait Environment {
    /// Dimensionality of the observation vector.
    fn state_dim(&self) -> usize;
    /// Number of discrete actions.
    fn num_actions(&self) -> usize;
    /// Begin a new episode and return the initial observation.
    fn reset(&mut self) -> Vec<f32>;
    /// Apply `action` and return the transition result.
    ///
    /// # Panics
    /// Implementations may panic if `action >= num_actions()`.
    fn step(&mut self, action: usize) -> Step;
}

/// An agent that can learn from interaction: the interface shared by the DQN
/// and tabular Q-learning agents, consumed by [`crate::trainer`].
pub trait LearningAgent {
    /// ε-greedy action selection.
    fn act(&mut self, state: &[f32], epsilon: f64, rng: &mut StdRng) -> usize;
    /// Store one transition.
    fn observe(&mut self, transition: crate::replay::Transition);
    /// Perform one learning update if possible; returns the loss (or TD
    /// error magnitude) when an update happened.
    fn train_step(&mut self, rng: &mut StdRng) -> Option<f32>;
}

/// A deterministic chain MDP: `n` states in a line, actions {left, right},
/// reward 1 on reaching the right end (terminal), small step penalty
/// otherwise. Optimal return from the start is `1 - penalty*(n-2)`.
///
/// The observation is the one-hot encoding of the current state.
#[derive(Debug, Clone)]
pub struct ChainEnv {
    n: usize,
    pos: usize,
    penalty: f64,
    max_steps: usize,
    steps: usize,
}

impl ChainEnv {
    /// A chain of `n >= 2` states with a per-step penalty.
    ///
    /// # Panics
    /// Panics if `n < 2`.
    pub fn new(n: usize, penalty: f64, max_steps: usize) -> Self {
        assert!(n >= 2, "chain needs at least 2 states");
        ChainEnv {
            n,
            pos: 0,
            penalty,
            max_steps,
            steps: 0,
        }
    }

    fn obs(&self) -> Vec<f32> {
        let mut v = vec![0.0; self.n];
        v[self.pos] = 1.0;
        v
    }
}

impl Environment for ChainEnv {
    fn state_dim(&self) -> usize {
        self.n
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn reset(&mut self) -> Vec<f32> {
        self.pos = 0;
        self.steps = 0;
        self.obs()
    }

    fn step(&mut self, action: usize) -> Step {
        assert!(action < 2, "chain env has two actions");
        self.steps += 1;
        if action == 1 && self.pos + 1 < self.n {
            self.pos += 1;
        } else if action == 0 && self.pos > 0 {
            self.pos -= 1;
        }
        let at_goal = self.pos == self.n - 1;
        let done = at_goal || self.steps >= self.max_steps;
        let reward = if at_goal { 1.0 } else { -self.penalty };
        Step {
            state: self.obs(),
            reward,
            done,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_reaches_goal_going_right() {
        let mut e = ChainEnv::new(4, 0.01, 50);
        let s0 = e.reset();
        assert_eq!(s0, vec![1.0, 0.0, 0.0, 0.0]);
        let mut total = 0.0;
        let mut done = false;
        for _ in 0..3 {
            let st = e.step(1);
            total += st.reward;
            done = st.done;
        }
        assert!(done);
        // The optimal return, 1 - penalty * (n - 2).
        assert!((total - 0.98).abs() < 1e-9);
    }

    #[test]
    fn chain_truncates_at_max_steps() {
        let mut e = ChainEnv::new(5, 0.0, 4);
        e.reset();
        let mut done = false;
        for _ in 0..4 {
            done = e.step(0).done;
        }
        assert!(done, "episode must truncate");
    }

    #[test]
    fn left_at_origin_is_a_noop() {
        let mut e = ChainEnv::new(3, 0.0, 10);
        e.reset();
        let st = e.step(0);
        assert_eq!(st.state, vec![1.0, 0.0, 0.0]);
    }
}
