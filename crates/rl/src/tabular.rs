//! Tabular Q-learning baseline with uniform state discretization.
//!
//! The "shallow RL" comparator of the evaluation: continuous features are
//! quantized into a small number of bins per dimension and a Q-table is
//! learned with the standard one-step Q-learning rule.

use crate::env::LearningAgent;
use crate::replay::Transition;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Tabular Q-learning hyper-parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TabularConfig {
    /// Observation dimensionality.
    pub state_dim: usize,
    /// Number of discrete actions.
    pub num_actions: usize,
    /// Bins per state dimension (features are assumed in `[lo, hi]`).
    pub bins: usize,
    /// Lower feature bound for quantization.
    pub lo: f32,
    /// Upper feature bound for quantization.
    pub hi: f32,
    /// Learning rate α.
    pub alpha: f64,
    /// Discount factor γ.
    pub gamma: f64,
}

impl Default for TabularConfig {
    fn default() -> Self {
        TabularConfig {
            state_dim: 1,
            num_actions: 2,
            bins: 4,
            lo: 0.0,
            hi: 1.0,
            alpha: 0.1,
            gamma: 0.95,
        }
    }
}

/// A tabular Q-learning agent over a discretized state space.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TabularQ {
    config: TabularConfig,
    #[serde(with = "table_serde")]
    table: HashMap<Vec<u16>, Vec<f64>>,
    updates: u64,
}

/// JSON maps require string keys; (de)serialize the Q-table as an entry list.
mod table_serde {
    use serde::{Deserialize, Deserializer, Serialize, Serializer};
    use std::collections::HashMap;

    pub fn serialize<S: Serializer>(
        table: &HashMap<Vec<u16>, Vec<f64>>,
        ser: S,
    ) -> Result<S::Ok, S::Error> {
        // Sorted by key so the serialized form is a pure function of the
        // table's contents, not of `HashMap` iteration order — trained
        // artifacts must be byte-identical across runs.
        let mut entries: Vec<(&Vec<u16>, &Vec<f64>)> = table.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        entries.serialize(ser)
    }

    pub fn deserialize<'de, D: Deserializer<'de>>(
        de: D,
    ) -> Result<HashMap<Vec<u16>, Vec<f64>>, D::Error> {
        let entries: Vec<(Vec<u16>, Vec<f64>)> = Vec::deserialize(de)?;
        Ok(entries.into_iter().collect())
    }
}

impl TabularQ {
    /// Build a fresh agent.
    ///
    /// # Panics
    /// Panics if dimensions, bins, or bounds are degenerate.
    pub fn new(config: TabularConfig) -> Self {
        assert!(
            config.state_dim > 0 && config.num_actions > 0,
            "dimensions must be positive"
        );
        assert!(config.bins > 0, "need at least one bin");
        assert!(config.hi > config.lo, "hi must exceed lo");
        TabularQ {
            config,
            table: HashMap::new(),
            updates: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TabularConfig {
        &self.config
    }

    /// Number of Q-updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Quantize a continuous observation into a bin-index key.
    pub fn discretize(&self, state: &[f32]) -> Vec<u16> {
        let c = &self.config;
        state
            .iter()
            .map(|&x| {
                let t = ((x - c.lo) / (c.hi - c.lo)).clamp(0.0, 1.0);
                (((t * c.bins as f32) as usize).min(c.bins - 1)) as u16
            })
            .collect()
    }

    /// Q-values of a (discretized) state; zeros for unvisited states.
    pub fn q_values(&self, state: &[f32]) -> Vec<f64> {
        let key = self.discretize(state);
        self.table
            .get(&key)
            .cloned()
            .unwrap_or_else(|| vec![0.0; self.config.num_actions])
    }

    /// Greedy action.
    pub fn greedy_action(&self, state: &[f32]) -> usize {
        let q = self.q_values(state);
        let mut best = 0;
        for (i, &v) in q.iter().enumerate() {
            if v > q[best] {
                best = i;
            }
        }
        best
    }

    fn entry(&mut self, key: Vec<u16>) -> &mut Vec<f64> {
        let n = self.config.num_actions;
        self.table.entry(key).or_insert_with(|| vec![0.0; n])
    }

    /// One Q-learning update from a transition. Returns the absolute TD
    /// error.
    pub fn update(&mut self, t: &Transition) -> f64 {
        let key = self.discretize(&t.state);
        let next_key = self.discretize(&t.next_state);
        let bootstrap = if t.done {
            0.0
        } else {
            self.table
                .get(&next_key)
                .map(|q| q.iter().copied().fold(f64::NEG_INFINITY, f64::max))
                .unwrap_or(0.0)
        };
        let c = self.config.clone();
        let q = self.entry(key);
        let td = t.reward as f64 + c.gamma * bootstrap - q[t.action];
        q[t.action] += c.alpha * td;
        self.updates += 1;
        td.abs()
    }
}

impl LearningAgent for TabularQ {
    fn act(&mut self, state: &[f32], epsilon: f64, rng: &mut StdRng) -> usize {
        if rng.gen::<f64>() < epsilon {
            rng.gen_range(0..self.config.num_actions)
        } else {
            self.greedy_action(state)
        }
    }

    /// Tabular Q-learning is fully online: the transition is consumed
    /// immediately rather than stored.
    fn observe(&mut self, transition: Transition) {
        self.update(&transition);
    }

    fn train_step(&mut self, _rng: &mut StdRng) -> Option<f32> {
        None // learning happens in observe()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t(s: f32, a: usize, r: f32, s2: f32, done: bool) -> Transition {
        Transition {
            state: vec![s],
            action: a,
            reward: r,
            next_state: vec![s2],
            done,
        }
    }

    #[test]
    fn discretization_buckets_the_range() {
        let q = TabularQ::new(TabularConfig {
            bins: 4,
            ..TabularConfig::default()
        });
        assert_eq!(q.discretize(&[0.0]), vec![0]);
        assert_eq!(q.discretize(&[0.3]), vec![1]);
        assert_eq!(q.discretize(&[0.6]), vec![2]);
        assert_eq!(q.discretize(&[1.0]), vec![3]);
        // Out-of-range clamps.
        assert_eq!(q.discretize(&[-5.0]), vec![0]);
        assert_eq!(q.discretize(&[5.0]), vec![3]);
    }

    #[test]
    fn update_moves_q_toward_target() {
        let mut q = TabularQ::new(TabularConfig {
            alpha: 0.5,
            ..TabularConfig::default()
        });
        q.update(&t(0.0, 1, 1.0, 0.9, true));
        assert_eq!(q.q_values(&[0.0])[1], 0.5);
        q.update(&t(0.0, 1, 1.0, 0.9, true));
        assert_eq!(q.q_values(&[0.0])[1], 0.75);
    }

    #[test]
    fn bootstraps_from_next_state() {
        let mut q = TabularQ::new(TabularConfig {
            alpha: 1.0,
            gamma: 0.5,
            ..TabularConfig::default()
        });
        // Make Q(next, ·) = [0, 2].
        q.update(&t(0.9, 1, 2.0, 0.0, true));
        // Non-terminal update bootstraps: target = 1 + 0.5·2 = 2.
        q.update(&t(0.0, 0, 1.0, 0.9, false));
        assert_eq!(q.q_values(&[0.0])[0], 2.0);
    }

    #[test]
    fn solves_a_two_state_chain() {
        // States {0, 1} on [0,1] with 2 bins; action 1 moves right, goal at 1.
        let mut q = TabularQ::new(TabularConfig {
            bins: 2,
            alpha: 0.3,
            gamma: 0.9,
            ..TabularConfig::default()
        });
        for _ in 0..200 {
            q.update(&t(0.0, 1, 0.0, 1.0, false));
            q.update(&t(1.0, 1, 1.0, 1.0, true));
            q.update(&t(0.0, 0, 0.0, 0.0, false));
        }
        assert!(q.greedy_action(&[0.0]) == 1);
        assert!(q.greedy_action(&[1.0]) == 1);
        assert!((q.q_values(&[1.0])[1] - 1.0).abs() < 0.05);
        assert!((q.q_values(&[0.0])[1] - 0.9).abs() < 0.1);
    }

    #[test]
    fn act_is_epsilon_greedy() {
        let mut q = TabularQ::new(TabularConfig::default());
        q.update(&t(0.0, 1, 1.0, 0.0, true));
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(q.act(&[0.0], 0.0, &mut rng), 1);
        let explored: Vec<usize> = (0..100).map(|_| q.act(&[0.0], 1.0, &mut rng)).collect();
        assert!(explored.contains(&0) && explored.contains(&1));
    }

    #[test]
    fn serialization_roundtrips_via_json() {
        let mut q = TabularQ::new(TabularConfig::default());
        q.update(&t(0.0, 1, 1.0, 0.9, true));
        q.update(&t(0.9, 0, -0.5, 0.0, false));
        let json = serde_json::to_string(&q).unwrap();
        let back: TabularQ = serde_json::from_str(&json).unwrap();
        assert_eq!(back.q_values(&[0.0]), q.q_values(&[0.0]));
        assert_eq!(back.table.len(), q.table.len());
        assert_eq!(back.updates(), q.updates());
    }

    #[test]
    fn state_count_grows_with_coverage() {
        let mut q = TabularQ::new(TabularConfig {
            bins: 10,
            ..TabularConfig::default()
        });
        for i in 0..10 {
            q.update(&t(i as f32 / 10.0 + 0.05, 0, 0.0, 0.0, true));
        }
        assert_eq!(q.table.len(), 10);
        assert_eq!(q.updates(), 10);
    }
}
