//! Golden digests of trained DQN weights.
//!
//! The first two constants were generated on commit 0bc11a0 — the parent
//! of the change that reshaped `matmul_t`, `Mlp::backward` and
//! `Adam::step` — by running this file there unmodified. The last three
//! (a hard sync mid-run on an evicting ring, a soft sync, the vanilla max
//! target) were generated on commit 91c474e, before the target network's
//! Q-rows were cached per replay slot, so they pin that cache to the
//! bootstrap it replaced. Every trained weight is a long
//! chain of f32 roundings, so a change to any kernel's summation order,
//! to the optimizer's association, or to which transitions a batch holds
//! moves these digests; `benchmark/digests.json` says the same thing
//! minutes later, this says it in `cargo test -q`.

use neural::Mlp;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rl::{DqnAgent, DqnConfig, LearningAgent, TargetSync, Transition};

const STATE_DIM: usize = 20;
const NUM_ACTIONS: usize = 5;
const TRAIN_STEPS: u64 = 200;

/// The zoo's `wide` hidden layers (128, 64), at a 20-input, 5-action
/// shape of this file's own; the benchmark's `learn_4x4` trains them at
/// 17-128-64-11 (a 4x4 fabric: 3·4 + 5 state features, 11 actions).
fn wide(seed: u64) -> DqnConfig {
    DqnConfig {
        hidden: vec![128, 64],
        min_replay: 32,
        ..DqnConfig::default()
            .with_dims(STATE_DIM, NUM_ACTIONS)
            .with_seed(seed)
    }
}

/// SplitMix64: the test's own stream, independent of the vendored `rand`.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Roughly a third exact zeros, the rest in `[-0.5, 1.5)`.
    fn observation(&mut self) -> Vec<f32> {
        (0..STATE_DIM)
            .map(|_| {
                let r = self.next();
                if r.is_multiple_of(3) {
                    0.0
                } else {
                    (r >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 0.5
                }
            })
            .collect()
    }
}

/// A contiguous synthetic episode stream (each `next_state` is the next
/// transition's `state`, so n-step windows aggregate), terminal every
/// 40th transition.
struct Stream {
    rng: SplitMix,
    state: Vec<f32>,
    emitted: u64,
}

impl Stream {
    fn new(seed: u64) -> Self {
        let mut rng = SplitMix(seed);
        let state = rng.observation();
        Stream {
            rng,
            state,
            emitted: 0,
        }
    }

    fn next(&mut self) -> Transition {
        let next_state = self.rng.observation();
        let action = (self.rng.next() % NUM_ACTIONS as u64) as usize;
        let reward = self.state[action] - 0.25 * next_state[0] + action as f32 * 0.1;
        self.emitted += 1;
        let t = Transition {
            state: std::mem::replace(&mut self.state, next_state.clone()),
            action,
            reward,
            next_state,
            done: self.emitted.is_multiple_of(40),
        };
        if t.done {
            self.state = self.rng.observation();
        }
        t
    }
}

/// FNV-1a (64-bit) over the little-endian bits of every online parameter,
/// layer by layer, weights then biases.
fn weight_digest(agent: &DqnAgent) -> u64 {
    let net = Mlp::from_json(&agent.policy_to_json().expect("serializable")).expect("round-trips");
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for layer in net.layers() {
        let (w, b) = layer.params();
        for byte in w.iter().chain(b).flat_map(|p| p.to_bits().to_le_bytes()) {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn train(config: DqnConfig) -> u64 {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut stream = Stream::new(config.seed ^ 0x5EED);
    let mut agent = DqnAgent::new(config);
    while agent.replay_len() < 32 {
        agent.observe(stream.next());
    }
    for _ in 0..TRAIN_STEPS {
        agent.observe(stream.next());
        assert!(agent.train_step(&mut rng).is_some_and(f32::is_finite));
    }
    assert_eq!(agent.train_steps(), TRAIN_STEPS);
    weight_digest(&agent)
}

#[test]
fn wide_double_dqn_weights_match_parent_commit() {
    assert_eq!(train(wide(11)), 0x3026_16d7_7fac_bc5b);
}

#[test]
fn wide_prioritized_nstep3_weights_match_parent_commit() {
    let config = DqnConfig {
        prioritized_alpha: Some(0.6),
        n_step: 3,
        ..wide(12)
    };
    assert_eq!(train(config), 0x7154_bfa8_75af_e7c6);
}

/// A hard sync every 30 updates (six mid-run syncs) on a 64-slot ring
/// that wraps more than three times, so stored transitions are evicted.
#[test]
fn wide_hard_sync_30_evicting_ring_weights_match_parent_commit() {
    let config = DqnConfig {
        target_sync: TargetSync::Hard { every: 30 },
        replay_capacity: 64,
        ..wide(13)
    };
    assert_eq!(train(config), 0xaae2_43ae_feba_a6c8);
}

#[test]
fn wide_soft_sync_weights_match_parent_commit() {
    let config = DqnConfig {
        target_sync: TargetSync::Soft { tau: 0.05 },
        ..wide(14)
    };
    assert_eq!(train(config), 0x3e62_57bb_a9c4_f777);
}

#[test]
fn wide_vanilla_dqn_weights_match_parent_commit() {
    let config = DqnConfig {
        double: false,
        ..wide(15)
    };
    assert_eq!(train(config), 0xe77d_d333_0bc1_c32f);
}
