//! Episode-driven training and evaluation loops.

use crate::env::{Environment, LearningAgent};
use crate::replay::Transition;
use crate::schedule::Schedule;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

/// Training-loop parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Number of episodes.
    pub episodes: usize,
    /// Hard cap on steps per episode (safety net on top of env termination).
    pub max_steps: usize,
    /// Exploration schedule over *environment steps*.
    pub epsilon: Schedule,
    /// Gradient updates attempted per environment step.
    pub train_per_step: usize,
    /// RNG seed for exploration and replay sampling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            episodes: 100,
            max_steps: 200,
            epsilon: Schedule::epsilon_default(5_000),
            train_per_step: 1,
            seed: 0,
        }
    }
}

/// Per-episode training statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpisodeStats {
    /// Episode index (0-based).
    pub episode: usize,
    /// Undiscounted return.
    pub total_reward: f64,
    /// Steps taken.
    pub steps: usize,
    /// Mean training loss across updates this episode (0 if none ran).
    pub avg_loss: f32,
    /// ε at the episode's final step.
    pub epsilon: f64,
}

/// Train `agent` on `env` for the configured number of episodes.
pub fn train(
    env: &mut dyn Environment,
    agent: &mut dyn LearningAgent,
    config: &TrainConfig,
) -> Vec<EpisodeStats> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut global_step: u64 = 0;
    let mut out = Vec::with_capacity(config.episodes);
    for episode in 0..config.episodes {
        let mut state = env.reset();
        let mut total_reward = 0.0;
        let mut losses = (0.0f32, 0u32);
        let mut steps = 0;
        let mut eps = config.epsilon.value(global_step);
        for _ in 0..config.max_steps {
            eps = config.epsilon.value(global_step);
            let action = agent.act(&state, eps, &mut rng);
            let step = env.step(action);
            total_reward += step.reward;
            agent.observe(Transition {
                state: state.clone(),
                action,
                reward: step.reward as f32,
                next_state: step.state.clone(),
                done: step.done,
            });
            for _ in 0..config.train_per_step {
                if let Some(l) = agent.train_step(&mut rng) {
                    losses.0 += l;
                    losses.1 += 1;
                }
            }
            state = step.state;
            global_step += 1;
            steps += 1;
            if step.done {
                break;
            }
        }
        out.push(EpisodeStats {
            episode,
            total_reward,
            steps,
            avg_loss: if losses.1 > 0 {
                losses.0 / losses.1 as f32
            } else {
                0.0
            },
            epsilon: eps,
        });
    }
    out
}

/// Run `episodes` greedy (ε=0) episodes and return the mean return.
pub fn evaluate(
    env: &mut dyn Environment,
    agent: &mut dyn LearningAgent,
    episodes: usize,
    max_steps: usize,
    seed: u64,
) -> f64 {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut total = 0.0;
    for _ in 0..episodes {
        let mut state = env.reset();
        for _ in 0..max_steps {
            let action = agent.act(&state, 0.0, &mut rng);
            let step = env.step(action);
            total += step.reward;
            state = step.state;
            if step.done {
                break;
            }
        }
    }
    total / episodes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dqn::{DqnAgent, DqnConfig};
    use crate::env::ChainEnv;
    use crate::tabular::{TabularConfig, TabularQ};

    /// The optimal return of `ChainEnv::new(5, 0.01, _)`: 1 - 0.01 * (5 - 2).
    const CHAIN5_OPTIMAL: f64 = 0.97;

    #[test]
    fn dqn_solves_the_chain() {
        let mut env = ChainEnv::new(5, 0.01, 30);
        let mut agent = DqnAgent::new(DqnConfig {
            hidden: vec![32],
            batch_size: 16,
            min_replay: 64,
            replay_capacity: 4096,
            lr: 2e-3,
            gamma: 0.9,
            ..DqnConfig::default().with_dims(5, 2)
        });
        let config = TrainConfig {
            episodes: 120,
            max_steps: 30,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.02,
                steps: 1500,
            },
            train_per_step: 1,
            seed: 11,
        };
        let stats = train(&mut env, &mut agent, &config);
        assert_eq!(stats.len(), 120);
        let avg = evaluate(&mut env, &mut agent, 10, 30, 1);
        assert!(
            avg > 0.9 * CHAIN5_OPTIMAL,
            "greedy return {avg} should be near optimal {CHAIN5_OPTIMAL}"
        );
        // Learning curve: late episodes beat early ones.
        let early: f64 = stats[..20].iter().map(|s| s.total_reward).sum::<f64>() / 20.0;
        let late: f64 = stats[100..].iter().map(|s| s.total_reward).sum::<f64>() / 20.0;
        assert!(
            late > early,
            "reward should improve: early {early}, late {late}"
        );
    }

    #[test]
    fn tabular_solves_the_chain() {
        let mut env = ChainEnv::new(5, 0.01, 30);
        // One-hot observations in [0,1] with 2 bins land each feature in a
        // distinct bucket, so the table sees exact states.
        let mut agent = TabularQ::new(TabularConfig {
            state_dim: 5,
            num_actions: 2,
            bins: 2,
            alpha: 0.2,
            gamma: 0.9,
            ..TabularConfig::default()
        });
        let config = TrainConfig {
            episodes: 200,
            max_steps: 30,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.02,
                steps: 2000,
            },
            train_per_step: 0, // tabular learns in observe()
            seed: 5,
        };
        train(&mut env, &mut agent, &config);
        let avg = evaluate(&mut env, &mut agent, 10, 30, 2);
        assert!(avg > 0.9 * CHAIN5_OPTIMAL, "tabular greedy return {avg}");
    }

    #[test]
    fn epsilon_anneals_over_training() {
        let mut env = ChainEnv::new(3, 0.0, 10);
        let mut agent = TabularQ::new(TabularConfig {
            state_dim: 3,
            bins: 2,
            ..TabularConfig::default()
        });
        let config = TrainConfig {
            episodes: 30,
            max_steps: 10,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.0,
                steps: 100,
            },
            train_per_step: 0,
            seed: 0,
        };
        let stats = train(&mut env, &mut agent, &config);
        let first = stats.first().unwrap().epsilon;
        let last = stats.last().unwrap().epsilon;
        assert!(
            first > last,
            "epsilon must decay: first {first}, last {last}"
        );
        assert!(
            last < 0.2,
            "epsilon should be mostly decayed by episode 30: {last}"
        );
    }
}
