//! Deep Q-Network (Mnih et al., 2015) with the Double-DQN target
//! (van Hasselt et al., 2016) and optional prioritized replay
//! (Schaul et al., 2016).

use crate::env::LearningAgent;
use crate::prioritized::PrioritizedReplay;
use crate::replay::{ReplayBuffer, Transition};
use neural::{Activation, Adam, Loss, Matrix, Mlp};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// How the target network tracks the online network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TargetSync {
    /// Hard copy every `n` training steps.
    Hard {
        /// Interval in training steps.
        every: u64,
    },
    /// Polyak averaging with coefficient `tau` every training step.
    Soft {
        /// Interpolation coefficient in `(0, 1]`.
        tau: f32,
    },
}

/// DQN hyper-parameters (Table 2 of the evaluation).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DqnConfig {
    /// Observation dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Hidden layer widths.
    pub hidden: Vec<usize>,
    /// Discount factor γ.
    pub gamma: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Replay buffer capacity.
    pub replay_capacity: usize,
    /// Minimum stored transitions before learning starts.
    pub min_replay: usize,
    /// Target-network synchronization scheme.
    pub target_sync: TargetSync,
    /// Use the Double-DQN target (decouple action selection from
    /// evaluation) instead of the vanilla max target.
    pub double: bool,
    /// Use prioritized replay with this α exponent (None = uniform).
    pub prioritized_alpha: Option<f64>,
    /// Importance-sampling β annealing horizon (training steps to β=1).
    pub beta_anneal_steps: u64,
    /// Training loss.
    pub loss: Loss,
    /// Clip gradients to this global L2 norm (None disables clipping).
    #[serde(default = "default_max_grad_norm")]
    pub max_grad_norm: Option<f32>,
    /// Multi-step return horizon (1 = standard one-step TD).
    #[serde(default = "default_n_step")]
    pub n_step: usize,
    /// Seed for weight init and sampling.
    pub seed: u64,
}

impl Default for DqnConfig {
    /// Paper-style defaults: 2×64 ReLU MLP, γ=0.95, Adam 1e-3, batch 32,
    /// replay 10k (min 500), hard target sync every 200 steps, Double-DQN
    /// on, uniform replay, Huber loss.
    fn default() -> Self {
        DqnConfig {
            state_dim: 1,
            num_actions: 2,
            hidden: vec![64, 64],
            gamma: 0.95,
            lr: 1e-3,
            batch_size: 32,
            replay_capacity: 10_000,
            min_replay: 500,
            target_sync: TargetSync::Hard { every: 200 },
            double: true,
            prioritized_alpha: None,
            beta_anneal_steps: 20_000,
            loss: Loss::Huber { delta: 1.0 },
            max_grad_norm: Some(10.0),
            n_step: 1,
            seed: 0,
        }
    }
}

impl DqnConfig {
    /// Set observation and action dimensions.
    pub fn with_dims(mut self, state_dim: usize, num_actions: usize) -> Self {
        self.state_dim = state_dim;
        self.num_actions = num_actions;
        self
    }

    /// Set the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn default_max_grad_norm() -> Option<f32> {
    Some(10.0)
}

fn default_n_step() -> usize {
    1
}

/// Either replay flavor behind one interface.
#[derive(Debug)]
enum Replay {
    Uniform(ReplayBuffer),
    Prioritized(PrioritizedReplay),
}

impl Replay {
    fn get(&self, slot: usize) -> &Transition {
        match self {
            Replay::Uniform(b) => b.get(slot),
            Replay::Prioritized(b) => b.get(slot),
        }
    }
}

/// The target network's Q-row for each replay slot's `next_state`, kept
/// between syncs: the target network is frozen until the next sync, so a
/// stored transition's bootstrap row keeps its bits until then.
///
/// Each row is stamped with the target generation it was predicted at. A
/// sync (hard or soft) and a policy load bump the generation, which makes
/// every row stale; writing a new transition into a slot clears that
/// slot's stamp. Serving a cached row is exact: `Mlp::predict` builds each
/// output row from its own input row alone (`gemm`, the bias add and the
/// activations are row-local), so a row has the same bits whether it was
/// predicted alone, in a sub-batch or in the full batch.
#[derive(Debug)]
struct TargetRows {
    /// `width` floats per slot, row-major.
    q: Vec<f32>,
    /// Per slot: the generation its row was predicted at (0 = none).
    stamps: Vec<u64>,
    /// The target network's current generation (never 0).
    generation: u64,
    width: usize,
}

impl TargetRows {
    fn new(width: usize) -> Self {
        TargetRows {
            q: Vec::new(),
            stamps: Vec::new(),
            generation: 1,
            width,
        }
    }

    /// The target network's parameters changed: every row is stale.
    fn invalidate_all(&mut self) {
        self.generation += 1;
    }

    /// A new transition was written into `slot`: its row is stale.
    fn invalidate(&mut self, slot: usize) {
        if slot >= self.stamps.len() {
            self.stamps.resize(slot + 1, 0);
            self.q.resize((slot + 1) * self.width, 0.0);
        }
        self.stamps[slot] = 0;
    }

    /// Make the row of every slot in `slots` current. `next_states[i]` is
    /// the next state stored in `slots[i]`. The distinct stale slots are
    /// predicted as one sub-batch, in first-seen order.
    fn refresh(&mut self, slots: &[usize], next_states: &[&[f32]], target: &Mlp) {
        let mut stale = Vec::new();
        let mut inputs = Vec::new();
        for (&slot, &next_state) in slots.iter().zip(next_states) {
            if self.stamps[slot] != self.generation {
                self.stamps[slot] = self.generation;
                stale.push(slot);
                inputs.push(next_state);
            }
        }
        if stale.is_empty() {
            return;
        }
        let q = target.predict_batch(&inputs);
        for (k, &slot) in stale.iter().enumerate() {
            self.q[slot * self.width..(slot + 1) * self.width].copy_from_slice(q.row_slice(k));
        }
    }

    /// The cached row of `slot` (current after [`TargetRows::refresh`]).
    fn row(&self, slot: usize) -> &[f32] {
        &self.q[slot * self.width..(slot + 1) * self.width]
    }
}

/// A DQN agent: online + target networks, replay, and the TD update.
///
/// ```
/// use rl::{DqnAgent, DqnConfig, LearningAgent, Transition};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut agent = DqnAgent::new(
///     DqnConfig { min_replay: 32, ..DqnConfig::default().with_dims(1, 2) },
/// );
/// let mut rng = StdRng::seed_from_u64(0);
/// // A one-step bandit: action 1 pays 1, action 0 pays 0.
/// for i in 0..200 {
///     let action = i % 2;
///     agent.observe(Transition {
///         state: vec![1.0],
///         action,
///         reward: action as f32,
///         next_state: vec![1.0],
///         done: true,
///     });
///     agent.train_step(&mut rng);
/// }
/// assert_eq!(agent.greedy_action(&[1.0]), 1);
/// ```
#[derive(Debug)]
pub struct DqnAgent {
    config: DqnConfig,
    online: Mlp,
    target: Mlp,
    opt: Adam,
    replay: Replay,
    /// `target.predict(next_state)` per replay slot, between syncs.
    target_rows: TargetRows,
    /// Sliding window for n-step return aggregation.
    nstep_buf: VecDeque<Transition>,
    train_steps: u64,
}

impl DqnAgent {
    /// Build an agent from a configuration.
    ///
    /// # Panics
    /// Panics if dimensions or batch parameters are zero.
    pub fn new(config: DqnConfig) -> Self {
        assert!(
            config.state_dim > 0 && config.num_actions > 0,
            "dimensions must be positive"
        );
        assert!(config.batch_size > 0, "batch size must be positive");
        assert!(
            config.min_replay >= config.batch_size,
            "min_replay must cover one batch"
        );
        let mut dims = vec![config.state_dim];
        dims.extend(&config.hidden);
        dims.push(config.num_actions);
        let online = Mlp::new(&dims, Activation::Relu, Activation::Linear, config.seed);
        let target = online.clone();
        let replay = match config.prioritized_alpha {
            Some(alpha) => {
                Replay::Prioritized(PrioritizedReplay::new(config.replay_capacity, alpha))
            }
            None => Replay::Uniform(ReplayBuffer::new(config.replay_capacity)),
        };
        assert!(config.n_step >= 1, "n_step must be at least 1");
        let opt = Adam::new(config.lr);
        let target_rows = TargetRows::new(config.num_actions);
        DqnAgent {
            config,
            online,
            target,
            opt,
            replay,
            target_rows,
            nstep_buf: VecDeque::new(),
            train_steps: 0,
        }
    }

    /// The agent's configuration.
    pub fn config(&self) -> &DqnConfig {
        &self.config
    }

    /// Number of gradient updates performed.
    pub fn train_steps(&self) -> u64 {
        self.train_steps
    }

    /// Number of stored transitions.
    pub fn replay_len(&self) -> usize {
        match &self.replay {
            Replay::Uniform(b) => b.len(),
            Replay::Prioritized(b) => b.len(),
        }
    }

    /// Q-values for one observation.
    ///
    /// # Panics
    /// Panics if `state.len() != config.state_dim`.
    pub fn q_values(&self, state: &[f32]) -> Vec<f32> {
        assert_eq!(
            state.len(),
            self.config.state_dim,
            "state dimension mismatch"
        );
        self.online.predict_one(state)
    }

    /// Greedy action for one observation.
    pub fn greedy_action(&self, state: &[f32]) -> usize {
        argmax(&self.q_values(state))
    }

    /// Q-values for a batch of observations via one batched forward pass
    /// (row `i` holds the Q-values of `states[i]`) — one matrix multiply
    /// per layer for the whole batch instead of one per state.
    ///
    /// # Panics
    /// Panics if `states` is empty or any state has the wrong dimension.
    pub fn q_values_batch<S: AsRef<[f32]>>(&self, states: &[S]) -> Matrix {
        assert!(
            states
                .iter()
                .all(|s| s.as_ref().len() == self.config.state_dim),
            "state dimension mismatch"
        );
        self.online.predict_batch(states)
    }

    /// Serialize the online network to JSON (for checkpointing).
    ///
    /// # Errors
    /// Returns an error if serialization fails.
    pub fn policy_to_json(&self) -> Result<String, neural::ModelIoError> {
        self.online.to_json()
    }

    /// Restore the online (and target) network from JSON.
    ///
    /// # Errors
    /// Returns an error if the JSON is malformed or its layer widths differ
    /// from the agent's networks.
    pub fn policy_from_json(&mut self, json: &str) -> Result<(), neural::ModelIoError> {
        let net = Mlp::from_json(json)?;
        self.online.try_copy_params_from(&net)?;
        self.target.copy_params_from(&net);
        self.target_rows.invalidate_all();
        Ok(())
    }

    /// One TD learning step on a sampled mini-batch. Returns `None` until
    /// `min_replay` transitions are stored.
    fn learn(&mut self, rng: &mut StdRng) -> Option<f32> {
        if self.replay_len() < self.config.min_replay {
            return None;
        }
        let batch = self.config.batch_size;
        let (slots, weights) = match &self.replay {
            Replay::Uniform(b) => (b.sample_slots(batch, rng), vec![1.0; batch]),
            Replay::Prioritized(b) => {
                let beta = 0.4
                    + 0.6
                        * (self.train_steps as f64 / self.config.beta_anneal_steps as f64).min(1.0);
                let pb = b.sample(batch, beta, rng);
                (pb.indices, pb.weights)
            }
        };
        // Gather the batch by reference: `replay` is a field apart from
        // `online` and `target_rows`, so the transitions stay borrowed
        // through the update.
        let transitions: Vec<&Transition> = slots.iter().map(|&i| self.replay.get(i)).collect();
        let states: Vec<&[f32]> = transitions.iter().map(|t| t.state.as_slice()).collect();
        let next_states: Vec<&[f32]> = transitions
            .iter()
            .map(|t| t.next_state.as_slice())
            .collect();
        let states = Matrix::from_rows(&states);

        // Bootstrap targets: the target network's rows come from the
        // per-slot cache (only its stale slots are predicted); the online
        // network's, for Double-DQN, from one batched forward pass.
        self.target_rows.refresh(&slots, &next_states, &self.target);
        #[cfg(debug_assertions)]
        {
            let full = self.target.predict_batch(&next_states);
            let bits = |row: &[f32]| row.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
            for (i, &slot) in slots.iter().enumerate() {
                assert_eq!(
                    bits(self.target_rows.row(slot)),
                    bits(full.row_slice(i)),
                    "cached target row of slot {slot} differs from the target network's"
                );
            }
        }
        let q_next_online = self
            .config
            .double
            .then(|| self.online.predict_batch(&next_states));
        self.online.zero_grad();
        let pred = self.online.forward(&states);
        let mut target = pred.clone();
        let discount = self.config.gamma.powi(self.config.n_step as i32);
        let mut td_errors = Vec::with_capacity(batch);
        for (i, t) in transitions.iter().enumerate() {
            let q_next_target = self.target_rows.row(slots[i]);
            let bootstrap = if t.done {
                0.0
            } else {
                match &q_next_online {
                    Some(qo) => {
                        // Double-DQN: online net picks, target net evaluates.
                        q_next_target[argmax(qo.row_slice(i))]
                    }
                    None => q_next_target
                        .iter()
                        .copied()
                        .fold(f32::NEG_INFINITY, f32::max),
                }
            };
            let td_target = t.reward + discount * bootstrap;
            let current = pred.get(i, t.action);
            let td_error = td_target - current;
            td_errors.push(td_error);
            // Importance-sampling weights scale the effective error: setting
            // target = q + w·δ makes the loss gradient w·∇ as required.
            target.set(i, t.action, current + weights[i] * td_error);
        }

        // Supervised step toward the TD targets (errors are zero off-action).
        let (loss, grad) = self.config.loss.compute(pred, &target);
        self.online.backward(&grad);
        if let Some(max_norm) = self.config.max_grad_norm {
            self.online.clip_grad_norm(max_norm);
        }
        self.online.apply_grads(&mut self.opt);

        if let Replay::Prioritized(b) = &mut self.replay {
            b.update_priorities(&slots, &td_errors);
        }

        self.train_steps += 1;
        match self.config.target_sync {
            TargetSync::Hard { every } => {
                if self.train_steps.is_multiple_of(every.max(1)) {
                    self.target.copy_params_from(&self.online);
                    self.target_rows.invalidate_all();
                }
            }
            TargetSync::Soft { tau } => {
                self.target.soft_update_from(&self.online, tau);
                self.target_rows.invalidate_all();
            }
        }
        Some(loss)
    }
}

impl DqnAgent {
    fn push_replay(&mut self, transition: Transition) {
        let slot = match &mut self.replay {
            Replay::Uniform(b) => b.push(transition),
            Replay::Prioritized(b) => b.push(transition),
        };
        self.target_rows.invalidate(slot);
    }

    /// Fold the current n-step window into one aggregated transition:
    /// `(s_t, a_t, Σ γ^i r_{t+i}, s_{t+k}, done_{t+k})`.
    fn aggregate_window(&self) -> Transition {
        let front = self.nstep_buf.front().expect("non-empty window");
        let back = self.nstep_buf.back().expect("non-empty window");
        let mut reward = 0.0f32;
        let mut discount = 1.0f32;
        for t in &self.nstep_buf {
            reward += discount * t.reward;
            discount *= self.config.gamma;
        }
        Transition {
            state: front.state.clone(),
            action: front.action,
            reward,
            next_state: back.next_state.clone(),
            done: back.done,
        }
    }
}

impl LearningAgent for DqnAgent {
    fn act(&mut self, state: &[f32], epsilon: f64, rng: &mut StdRng) -> usize {
        if rng.gen::<f64>() < epsilon {
            rng.gen_range(0..self.config.num_actions)
        } else {
            self.greedy_action(state)
        }
    }

    fn observe(&mut self, transition: Transition) {
        debug_assert_eq!(transition.state.len(), self.config.state_dim);
        debug_assert!(transition.action < self.config.num_actions);
        if self.config.n_step <= 1 {
            self.push_replay(transition);
            return;
        }
        // Drop a stale window if the stream is non-contiguous (a new episode
        // started without a terminal transition).
        if let Some(back) = self.nstep_buf.back() {
            if back.done || back.next_state != transition.state {
                self.nstep_buf.clear();
            }
        }
        self.nstep_buf.push_back(transition);
        if self.nstep_buf.back().expect("just pushed").done {
            // Episode end: emit the truncated return from every start index
            // (none of these bootstraps, so the shorter horizon is exact).
            while !self.nstep_buf.is_empty() {
                let agg = self.aggregate_window();
                self.push_replay(agg);
                self.nstep_buf.pop_front();
            }
        } else if self.nstep_buf.len() == self.config.n_step {
            let agg = self.aggregate_window();
            self.push_replay(agg);
            self.nstep_buf.pop_front();
        }
    }

    fn train_step(&mut self, rng: &mut StdRng) -> Option<f32> {
        self.learn(rng)
    }
}

/// Index of the maximum element (first wins ties).
pub fn argmax(xs: &[f32]) -> usize {
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate() {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn agent(cfg: DqnConfig) -> DqnAgent {
        DqnAgent::new(cfg)
    }

    fn small_cfg() -> DqnConfig {
        DqnConfig {
            hidden: vec![16],
            batch_size: 8,
            min_replay: 16,
            replay_capacity: 256,
            ..DqnConfig::default().with_dims(2, 3)
        }
    }

    #[test]
    fn argmax_picks_first_maximum() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0, 2.0]), 1);
        assert_eq!(argmax(&[-5.0]), 0);
    }

    #[test]
    fn no_training_until_min_replay() {
        let mut a = agent(small_cfg());
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..10 {
            a.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: false,
            });
        }
        assert!(a.train_step(&mut rng).is_none());
        for _ in 0..10 {
            a.observe(Transition {
                state: vec![0.0, 0.0],
                action: 0,
                reward: 0.0,
                next_state: vec![0.0, 0.0],
                done: false,
            });
        }
        assert!(a.train_step(&mut rng).is_some());
        assert_eq!(a.train_steps(), 1);
    }

    #[test]
    fn epsilon_one_explores_uniformly() {
        let mut a = agent(small_cfg());
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        for _ in 0..3000 {
            counts[a.act(&[0.0, 0.0], 1.0, &mut rng)] += 1;
        }
        for c in counts {
            assert!(
                (800..1200).contains(&c),
                "uniform exploration expected: {counts:?}"
            );
        }
    }

    #[test]
    fn epsilon_zero_is_greedy() {
        let mut a = agent(small_cfg());
        let mut rng = StdRng::seed_from_u64(2);
        let q = a.q_values(&[0.5, -0.5]);
        let g = argmax(&q);
        for _ in 0..10 {
            assert_eq!(a.act(&[0.5, -0.5], 0.0, &mut rng), g);
        }
    }

    /// A 1-step bandit: reward 1 for action 1, 0 otherwise. DQN must learn
    /// Q(s, 1) ≈ 1 > Q(s, 0).
    #[test]
    fn learns_a_contextual_bandit() {
        let cfg = DqnConfig {
            hidden: vec![16],
            batch_size: 16,
            min_replay: 32,
            replay_capacity: 512,
            gamma: 0.9,
            lr: 5e-3,
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..400 {
            let action = i % 2;
            a.observe(Transition {
                state: vec![1.0],
                action,
                reward: action as f32,
                next_state: vec![1.0],
                done: true,
            });
            a.train_step(&mut rng);
        }
        let q = a.q_values(&[1.0]);
        assert!(q[1] > q[0], "Q(s,1)={} must beat Q(s,0)={}", q[1], q[0]);
        assert!(
            (q[1] - 1.0).abs() < 0.25,
            "Q(s,1)={} should approach 1",
            q[1]
        );
        assert!(q[0].abs() < 0.25, "Q(s,0)={} should approach 0", q[0]);
    }

    /// Two-step credit assignment: state 0 --(a=1)--> state 1 --(a=1)--> +1.
    /// Requires bootstrapping through the target network.
    #[test]
    fn bootstraps_multi_step_values() {
        let cfg = DqnConfig {
            hidden: vec![32],
            batch_size: 16,
            min_replay: 64,
            replay_capacity: 2048,
            gamma: 0.9,
            lr: 2e-3,
            target_sync: TargetSync::Hard { every: 50 },
            ..DqnConfig::default().with_dims(2, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(4);
        let s0 = vec![1.0, 0.0];
        let s1 = vec![0.0, 1.0];
        for _ in 0..600 {
            // Good path.
            a.observe(Transition {
                state: s0.clone(),
                action: 1,
                reward: 0.0,
                next_state: s1.clone(),
                done: false,
            });
            a.observe(Transition {
                state: s1.clone(),
                action: 1,
                reward: 1.0,
                next_state: s1.clone(),
                done: true,
            });
            // Bad actions terminate with 0.
            a.observe(Transition {
                state: s0.clone(),
                action: 0,
                reward: 0.0,
                next_state: s0.clone(),
                done: true,
            });
            a.observe(Transition {
                state: s1.clone(),
                action: 0,
                reward: 0.0,
                next_state: s1.clone(),
                done: true,
            });
            a.train_step(&mut rng);
            a.train_step(&mut rng);
        }
        let q0 = a.q_values(&s0);
        let q1 = a.q_values(&s1);
        assert!(q1[1] > 0.7, "Q(s1,right)={} should approach 1", q1[1]);
        assert!(q0[1] > 0.5, "Q(s0,right)={} should approach γ·1=0.9", q0[1]);
        assert!(
            q0[1] > q0[0],
            "bootstrapped value must prefer the good path"
        );
    }

    #[test]
    fn double_and_vanilla_targets_both_work() {
        for double in [false, true] {
            let cfg = DqnConfig {
                hidden: vec![16],
                batch_size: 8,
                min_replay: 16,
                lr: 5e-3,
                double,
                ..DqnConfig::default().with_dims(1, 2)
            };
            let mut a = agent(cfg);
            let mut rng = StdRng::seed_from_u64(5);
            for i in 0..300 {
                a.observe(Transition {
                    state: vec![1.0],
                    action: i % 2,
                    reward: (i % 2) as f32,
                    next_state: vec![1.0],
                    done: true,
                });
                a.train_step(&mut rng);
            }
            let q = a.q_values(&[1.0]);
            assert!(q[1] > q[0], "double={double}: {q:?}");
        }
    }

    #[test]
    fn prioritized_replay_learns_too() {
        let cfg = DqnConfig {
            hidden: vec![16],
            batch_size: 16,
            min_replay: 32,
            prioritized_alpha: Some(0.6),
            lr: 5e-3,
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(6);
        for i in 0..300 {
            let action = i % 2;
            a.observe(Transition {
                state: vec![1.0],
                action,
                reward: action as f32,
                next_state: vec![1.0],
                done: true,
            });
            a.train_step(&mut rng);
        }
        let q = a.q_values(&[1.0]);
        assert!(
            q[1] > q[0],
            "prioritized agent must learn the bandit: {q:?}"
        );
    }

    #[test]
    fn soft_target_sync_tracks_online() {
        let cfg = DqnConfig {
            hidden: vec![8],
            batch_size: 8,
            min_replay: 8,
            target_sync: TargetSync::Soft { tau: 0.5 },
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..20 {
            a.observe(Transition {
                state: vec![1.0],
                action: 1,
                reward: 1.0,
                next_state: vec![1.0],
                done: true,
            });
            a.train_step(&mut rng);
        }
        // After many tau=0.5 updates, target must differ from init and be
        // close to online.
        let online_q = a.online.predict_one(&[1.0]);
        let target_q = a.target.predict_one(&[1.0]);
        for (o, t) in online_q.iter().zip(&target_q) {
            assert!(
                (o - t).abs() < 0.2,
                "soft target should track online: {o} vs {t}"
            );
        }
    }

    #[test]
    fn n_step_aggregates_discounted_rewards() {
        let cfg = DqnConfig {
            hidden: vec![8],
            n_step: 3,
            gamma: 0.5,
            min_replay: 8,
            batch_size: 8,
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        // Contiguous 4-step episode: rewards 1, 2, 4, 8; terminal at the end.
        let states = [0.0f32, 1.0, 2.0, 3.0, 4.0];
        for i in 0..4 {
            a.observe(Transition {
                state: vec![states[i]],
                action: 0,
                reward: (1 << i) as f32,
                next_state: vec![states[i + 1]],
                done: i == 3,
            });
        }
        // Windows: [r0..r2] from s0, then the terminal flush emits from s1,
        // s2, s3 — four aggregates total.
        assert_eq!(a.replay_len(), 4);
        let contents: Vec<Transition> = match &a.replay {
            Replay::Uniform(b) => b.iter().cloned().collect(),
            _ => unreachable!(),
        };
        // From s0: 1 + 0.5·2 + 0.25·4 = 3; bootstraps from s3 (not done).
        assert_eq!(contents[0].state, vec![0.0]);
        assert_eq!(contents[0].reward, 3.0);
        assert_eq!(contents[0].next_state, vec![3.0]);
        assert!(!contents[0].done);
        // Terminal flush from s1: 2 + 0.5·4 + 0.25·8 = 6, done.
        assert_eq!(contents[1].reward, 6.0);
        assert!(contents[1].done);
        // From s3: 8, done.
        assert_eq!(contents[3].reward, 8.0);
    }

    #[test]
    fn n_step_window_resets_across_episodes() {
        let cfg = DqnConfig {
            hidden: vec![8],
            n_step: 3,
            min_replay: 8,
            batch_size: 8,
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        // Two non-contiguous non-terminal transitions: the stale window must
        // be discarded, so nothing reaches the replay buffer yet.
        a.observe(Transition {
            state: vec![0.0],
            action: 0,
            reward: 1.0,
            next_state: vec![1.0],
            done: false,
        });
        a.observe(Transition {
            state: vec![9.0], // != previous next_state
            action: 0,
            reward: 1.0,
            next_state: vec![10.0],
            done: false,
        });
        assert_eq!(a.replay_len(), 0);
    }

    #[test]
    fn n_step_learns_the_bandit_too() {
        let cfg = DqnConfig {
            hidden: vec![16],
            batch_size: 16,
            min_replay: 32,
            n_step: 3,
            lr: 5e-3,
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(9);
        for i in 0..300 {
            let action = i % 2;
            a.observe(Transition {
                state: vec![1.0],
                action,
                reward: action as f32,
                next_state: vec![1.0],
                done: true,
            });
            a.train_step(&mut rng);
        }
        let q = a.q_values(&[1.0]);
        assert!(q[1] > q[0], "n-step agent must learn the bandit: {q:?}");
    }

    #[test]
    fn grad_clipping_keeps_training_stable_at_high_lr() {
        let cfg = DqnConfig {
            hidden: vec![16],
            batch_size: 8,
            min_replay: 8,
            lr: 0.05, // aggressive
            max_grad_norm: Some(1.0),
            ..DqnConfig::default().with_dims(1, 2)
        };
        let mut a = agent(cfg);
        let mut rng = StdRng::seed_from_u64(10);
        for i in 0..100 {
            a.observe(Transition {
                state: vec![1.0],
                action: i % 2,
                reward: 100.0 * (i % 2) as f32, // large-magnitude rewards
                next_state: vec![1.0],
                done: true,
            });
            a.train_step(&mut rng);
        }
        let q = a.q_values(&[1.0]);
        assert!(
            q.iter().all(|v| v.is_finite()),
            "clipped training must not diverge: {q:?}"
        );
    }

    /// Every row the target-row cache would serve (stamped with the
    /// current generation) is the target network's own prediction for its
    /// slot's next state, bit for bit.
    fn assert_current_rows_are_exact(a: &DqnAgent, context: &str) {
        let rows = &a.target_rows;
        let bits = |row: &[f32]| row.iter().map(|q| q.to_bits()).collect::<Vec<_>>();
        for slot in 0..a.replay_len() {
            if rows.stamps[slot] == rows.generation {
                let fresh = a.target.predict_one(&a.replay.get(slot).next_state);
                assert_eq!(bits(rows.row(slot)), bits(&fresh), "{context}: slot {slot}");
            }
        }
    }

    /// Drives every way a cached target row goes stale — a hard sync, a
    /// soft sync, a policy load mid-run, a ring that wraps, an n-step
    /// burst at episode end, prioritized replay — and checks after every
    /// observation and update that no stale row survives. (Debug builds
    /// also run `learn`'s own oracle against a full-batch prediction.)
    #[test]
    fn cached_target_rows_survive_no_invalidation() {
        let base = DqnConfig {
            hidden: vec![16, 8],
            batch_size: 8,
            min_replay: 8,
            replay_capacity: 8,
            ..DqnConfig::default().with_dims(3, 4)
        };
        let cases = [
            (
                "hard sync every 3",
                DqnConfig {
                    target_sync: TargetSync::Hard { every: 3 },
                    replay_capacity: 64,
                    ..base.clone()
                },
            ),
            (
                "soft sync",
                DqnConfig {
                    target_sync: TargetSync::Soft { tau: 0.3 },
                    ..base.clone()
                },
            ),
            ("ring of 8 wraps", base.clone()),
            (
                "n-step burst",
                DqnConfig {
                    n_step: 3,
                    ..base.clone()
                },
            ),
            (
                "prioritized",
                DqnConfig {
                    prioritized_alpha: Some(0.6),
                    ..base.clone()
                },
            ),
            (
                "vanilla target",
                DqnConfig {
                    double: false,
                    ..base.clone()
                },
            ),
        ];
        for (name, cfg) in cases {
            let other = agent(cfg.clone().with_seed(77)).policy_to_json().unwrap();
            let mut a = agent(cfg);
            let mut rng = StdRng::seed_from_u64(21);
            let mut state: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            let mut updates = 0;
            for step in 0..60 {
                let next_state: Vec<f32> = (0..3).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                let done = step % 7 == 6;
                a.observe(Transition {
                    state: std::mem::replace(&mut state, next_state.clone()),
                    action: step % 4,
                    reward: next_state[0],
                    next_state,
                    done,
                });
                assert_current_rows_are_exact(&a, &format!("{name}, observe {step}"));
                let generation = a.target_rows.generation;
                if a.train_step(&mut rng).is_some() {
                    updates += 1;
                    let synced = match a.config.target_sync {
                        TargetSync::Hard { every } => a.train_steps().is_multiple_of(every),
                        TargetSync::Soft { .. } => true,
                    };
                    assert_eq!(a.target_rows.generation, generation + u64::from(synced));
                }
                assert_current_rows_are_exact(&a, &format!("{name}, update {step}"));
                if step == 30 {
                    let generation = a.target_rows.generation;
                    a.policy_from_json(&other).unwrap();
                    assert_eq!(a.target_rows.generation, generation + 1, "{name}");
                    assert_current_rows_are_exact(&a, &format!("{name}, policy load"));
                }
            }
            assert!(updates > 40, "{name}: {updates} updates");
        }
    }

    #[test]
    fn checkpoint_roundtrip_preserves_policy() {
        let mut a = agent(small_cfg());
        let json = a.policy_to_json().unwrap();
        let q_before = a.q_values(&[0.3, 0.7]);
        let mut b = agent(small_cfg().with_seed(99));
        assert_ne!(b.q_values(&[0.3, 0.7]), q_before);
        b.policy_from_json(&json).unwrap();
        assert_eq!(b.q_values(&[0.3, 0.7]), q_before);
        assert!(a.policy_from_json("garbage").is_err());
    }

    /// A well-formed policy for a different architecture is an error, not
    /// a panic, and leaves the agent's networks as they were.
    #[test]
    fn policy_of_another_shape_is_an_error() {
        let mut a = agent(small_cfg());
        let q_before = a.q_values(&[0.3, 0.7]);
        let mut wider = small_cfg();
        wider.hidden = vec![wider.hidden[0] + 1];
        let json = agent(wider).policy_to_json().unwrap();
        let err = a.policy_from_json(&json).unwrap_err().to_string();
        assert!(err.contains("layer widths"), "{err}");
        assert_eq!(a.q_values(&[0.3, 0.7]), q_before);
    }
}
