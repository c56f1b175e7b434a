//! `train_8x8` and `learn_4x4`: DQN training through `train_drl` and the
//! zoo save — what `noc-cli train` does. The first is dominated by the
//! control-epoch path of the simulator, the second by the learner.

use super::{digest, out_dir, Plain, Scale, Traced, Values, Workload};
use crate::trace::Trace;
use neural::{Activation, Adam, Matrix, Mlp};
use noc_selfconf::zoo::{dqn_variant, PolicyArtifact};
use noc_selfconf::{train_drl, NocEnv, NocEnvConfig, TrainedPolicy};
use noc_sim::SimConfig;
use rand::rngs::StdRng;
use rl::{
    DqnAgent, DqnConfig, Environment, LearningAgent, Schedule, Step, TrainConfig, Transition,
};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Replay size at which learning starts: one batch, the smallest the agent
/// accepts. The default (500) would leave the learner idle for all of a
/// repeat this short.
const MIN_REPLAY: usize = 32;

struct Train {
    env: NocEnvConfig,
    dqn: DqnConfig,
    train: TrainConfig,
    dir: PathBuf,
    reference: String,
}

/// `cmd_train`'s configuration: linear ε from 1 to 0.05 over 5/8 of the
/// steps.
fn train_config(
    episodes: usize,
    max_steps: usize,
    train_per_step: usize,
    seed: u64,
) -> TrainConfig {
    TrainConfig {
        episodes,
        max_steps,
        epsilon: Schedule::Linear {
            start: 1.0,
            end: 0.05,
            steps: ((episodes * max_steps) as u64 * 5 / 8).max(1),
        },
        train_per_step,
        seed,
    }
}

fn setup(
    name: &str,
    env: NocEnvConfig,
    dqn: DqnConfig,
    train: TrainConfig,
) -> Result<Box<dyn Workload>, String> {
    let mut w = Train {
        env,
        dqn,
        train,
        dir: out_dir(name)?,
        reference: String::new(),
    };
    w.reference = w.repeat()?.digest;
    Ok(Box::new(w))
}

/// Seed of the environment, whatever `--seed` is. It picks each episode's
/// traffic from the standard menu, whose entries differ threefold in
/// simulation cost; over the few episodes of a repeat that made one seed's
/// repeat up to 60 % longer than another's. `--seed` seeds the learner (its
/// weights, exploration and replay sampling), and through its actions the
/// DVFS levels the fabric runs at.
const ENV_SEED: u64 = 1;

/// The paper's 8x8 fabric, default DQN, one update per step, one episode of
/// `noc-cli train`'s default 40 epochs.
pub fn setup_8x8(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    setup(
        "train_8x8",
        NocEnvConfig {
            epoch_cycles: scale.of(500, 25),
            ..NocEnvConfig::for_sim(SimConfig::default(), ENV_SEED)
        },
        DqnConfig {
            min_replay: MIN_REPLAY,
            ..DqnConfig::default().with_seed(seed)
        },
        train_config(1, 40, 1, seed),
    )
}

/// A 4x4 fabric with short epochs, the zoo's `wide` network and four
/// updates per step, two episodes.
pub fn setup_4x4(seed: u64, scale: Scale) -> Result<Box<dyn Workload>, String> {
    let sim = SimConfig::default().with_size(4, 4);
    let wide = dqn_variant("wide").expect("built-in variant").dqn;
    setup(
        "learn_4x4",
        NocEnvConfig {
            epoch_cycles: scale.of(200, 10),
            ..NocEnvConfig::for_sim(sim, ENV_SEED)
        },
        DqnConfig {
            min_replay: MIN_REPLAY,
            ..wide.with_seed(seed)
        },
        train_config(scale.of(2, 1) as usize, 40, 4, seed),
    )
}

/// A timing decorator: every call through it is recorded as
/// (span name, start, end).
struct Timed<T> {
    inner: T,
    calls: Vec<(&'static str, Instant, Instant)>,
}

impl<T> Timed<T> {
    fn new(inner: T) -> Self {
        Timed {
            inner,
            calls: Vec::new(),
        }
    }

    fn time<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.calls.push((name, t0, Instant::now()));
        out
    }
}

impl Environment for Timed<NocEnv> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f32> {
        self.time("noc_selfconf.env.reset", |env| env.reset())
    }

    /// Times the step, then re-calls the two pure functions it ends with on
    /// the same inputs, to split their cost out.
    fn step(&mut self, action: usize) -> Step {
        let step = self.time("noc_selfconf.env.step", |env| env.step(action));
        self.time("noc_selfconf.state.encode", |env| {
            let metrics = env.last_metrics().expect("a step just ran");
            black_box(
                env.encoder()
                    .encode(metrics, env.simulator().region_levels()),
            );
        });
        self.time("noc_selfconf.reward.compute", |env| {
            let metrics = env.last_metrics().expect("a step just ran");
            let nodes = env.simulator().network().topology().num_nodes();
            black_box(env.config().reward.compute(metrics, nodes));
        });
        step
    }
}

impl LearningAgent for Timed<DqnAgent> {
    fn act(&mut self, state: &[f32], epsilon: f64, rng: &mut StdRng) -> usize {
        self.time("rl.dqn.act", |agent| agent.act(state, epsilon, rng))
    }

    fn observe(&mut self, transition: Transition) {
        self.time("rl.dqn.observe", |agent| agent.observe(transition));
    }

    fn train_step(&mut self, rng: &mut StdRng) -> Option<f32> {
        self.time("rl.dqn.train_step", |agent| agent.train_step(rng))
    }
}

impl Train {
    fn artifact_path(&self) -> PathBuf {
        self.dir.join("policy.json")
    }

    fn artifact_digest(&self) -> Result<(String, usize), String> {
        let bytes = std::fs::read(self.artifact_path()).map_err(|e| e.to_string())?;
        Ok((digest(&bytes), bytes.len()))
    }

    /// Layer widths of the Q-network, input to output.
    fn dims(&self) -> Result<Vec<usize>, String> {
        let env = NocEnv::new(self.env.clone()).map_err(|e| e.to_string())?;
        let mut dims = vec![env.state_dim()];
        dims.extend(&self.dqn.hidden);
        dims.push(env.num_actions());
        Ok(dims)
    }
}

impl Workload for Train {
    fn ops(&self) -> u64 {
        (self.train.episodes * self.train.max_steps) as u64
    }

    fn reference(&self) -> &str {
        &self.reference
    }

    fn repeat(&mut self) -> Result<Plain, String> {
        let t0 = Instant::now();
        let policy = train_drl(self.env.clone(), self.dqn.clone(), self.train.clone())
            .map_err(|e| e.to_string())?;
        let artifact = PolicyArtifact::from_dqn(&policy, self.env.clone(), self.train.clone())
            .map_err(|e| e.to_string())?;
        artifact
            .save(&self.artifact_path())
            .map_err(|e| e.to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        Ok(Plain {
            unit_s: vec![wall_s],
            digest: self.artifact_digest()?.0,
            failed: 0,
        })
    }

    /// `train_drl` + `from_dqn` + `save`, with the environment and the
    /// agent behind timing decorators.
    fn repeat_traced(&mut self, trace: &mut Trace) -> Result<Traced, String> {
        let t0 = Instant::now();
        let drl = trace.begin("noc_selfconf.training.train_drl");
        let env = trace
            .span("noc_selfconf.env.new", || NocEnv::new(self.env.clone()))
            .map_err(|e| e.to_string())?;
        let mut dqn = self.dqn.clone();
        dqn.state_dim = env.state_dim();
        dqn.num_actions = env.num_actions();
        let agent = trace.span("rl.dqn.new", || DqnAgent::new(dqn));
        let (mut env, mut agent) = (Timed::new(env), Timed::new(agent));
        let loop_span = trace.begin("rl.train");
        let curve = rl::train(&mut env, &mut agent, &self.train);
        let loop_end = Instant::now();
        for (name, start, end) in env.calls.iter().chain(&agent.calls) {
            trace.aggregate(name, *start, *end, *end - *start, 1);
        }
        trace.end(loop_span);
        trace.end(drl);
        let policy = TrainedPolicy {
            agent: agent.inner,
            curve,
            encoder: env.inner.encoder().clone(),
            action_space: env.inner.config().action_space.clone(),
        };
        let artifact = trace
            .span("noc_selfconf.zoo.from_dqn", || {
                PolicyArtifact::from_dqn(&policy, self.env.clone(), self.train.clone())
            })
            .map_err(|e| e.to_string())?;
        trace
            .span("noc_selfconf.zoo.save", || {
                artifact.save(&self.artifact_path())
            })
            .map_err(|e| e.to_string())?;
        let wall_s = t0.elapsed().as_secs_f64();
        trace
            .span("noc_selfconf.zoo.load", || {
                PolicyArtifact::load(&self.artifact_path())
            })
            .map_err(|e| e.to_string())?;

        // One operation is one iteration of the training loop: from one
        // `act` to the next (the last one to the end of the loop).
        let acts: Vec<Instant> = agent
            .calls
            .iter()
            .filter(|c| c.0 == "rl.dqn.act")
            .map(|c| c.1)
            .chain([loop_end])
            .collect();
        let op_ms = acts
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
            .collect();
        let count = |calls: &[(&str, Instant, Instant)], name: &str| {
            calls.iter().filter(|c| c.0 == name).count() as f64
        };
        let steps = count(&env.calls, "noc_selfconf.env.step");
        let epochs = steps + count(&env.calls, "noc_selfconf.env.reset");
        let cycles = epochs * self.env.epoch_cycles as f64;
        let (digest, bytes) = self.artifact_digest()?;
        let mut values = Values::new();
        values.insert("noc_selfconf.env.steps", steps);
        values.insert("rl.dqn.train_steps", policy.agent.train_steps() as f64);
        values.insert(
            "rl.dqn.learn_ratio",
            policy.agent.train_steps() as f64 / count(&agent.calls, "rl.dqn.train_step"),
        );
        values.insert("noc_selfconf.zoo.artifact_bytes", bytes as f64);
        values.insert("noc-sim.network.cycles", cycles);
        values.insert(
            "noc-sim.network.router_cycles",
            cycles * (self.env.sim.width * self.env.sim.height) as f64,
        );
        Ok(Traced {
            plain: Plain {
                unit_s: vec![wall_s],
                digest,
                failed: 0,
            },
            op_ms,
            values,
        })
    }

    /// Forward and training passes of the Q-network alone, at this
    /// workload's layer widths and batch size.
    fn standalone(&mut self, trace: &mut Trace) -> Result<Values, String> {
        const CALLS: u64 = 200;
        let dims = self.dims()?;
        let batch = self.dqn.batch_size;
        let mut net = Mlp::new(&dims, Activation::Relu, Activation::Linear, self.dqn.seed);
        let mut opt = Adam::new(self.dqn.lr);
        let states: Vec<Vec<f32>> = (0..batch)
            .map(|r| {
                (0..dims[0])
                    .map(|c| ((r * 31 + c * 7) % 13) as f32 / 13.0)
                    .collect()
            })
            .collect();
        let x = Matrix::from_rows(&states);
        let target = Matrix::zeros(batch, dims[dims.len() - 1]);
        trace.span("neural.mlp.predict_batch", || {
            for _ in 0..CALLS {
                black_box(net.predict_batch(black_box(&states)));
            }
        });
        trace.span("neural.mlp.train_batch", || {
            for _ in 0..CALLS {
                black_box(net.train_batch(black_box(&x), &target, self.dqn.loss, &mut opt));
            }
        });
        let per_call_us = |trace: &Trace, name| trace.busy(name).0 * 1e6 / CALLS as f64;
        // A multiply-add is two operations; the backward pass does two
        // matrix products per layer where the forward pass does one.
        let forward: usize = dims.windows(2).map(|w| 2 * batch * w[0] * w[1]).sum();
        let mut values = Values::new();
        values.insert(
            "neural.mlp.predict_batch_us",
            per_call_us(trace, "neural.mlp.predict_batch"),
        );
        values.insert(
            "neural.mlp.train_batch_us",
            per_call_us(trace, "neural.mlp.train_batch"),
        );
        values.insert("neural.mlp.flops_per_train_batch", (3 * forward) as f64);
        Ok(values)
    }
}

impl Drop for Train {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}
