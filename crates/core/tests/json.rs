//! The JSON layer on the workspace's real documents: the tree-free writer
//! prints the same bytes as the `to_value` tree it replaced, the reader
//! reads them back to that tree, and mutated policy artifacts are parse
//! errors, never panics.

use noc_selfconf::serve::{CacheStats, Request};
use noc_selfconf::zoo::PolicyArtifact;
use noc_selfconf::{train_drl, ActionSpace, NocEnvConfig, StateEncoder, SweepGrid, TrainedPolicy};
use noc_sim::{
    FaultEvent, FaultPlan, FaultTarget, NodeId, Port, RoutingAlgorithm, SimConfig, ThrottleEvent,
    TrafficPattern, TrafficSpec, WorkloadPhase, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rl::{DqnConfig, TabularConfig, TabularQ, TrainConfig, Transition};
use serde::value::render;
use serde::Serialize;

mod common;
use common::mutate;

/// `x` through the writer equals `x` through `to_value` and the tree
/// renderer, compact and pretty; and the reader turns the text back into
/// that tree.
fn assert_writer_matches_tree<T: Serialize>(what: &str, x: &T) {
    let tree = serde::to_value(x).unwrap();
    let text = serde_json::to_string(x).unwrap();
    assert_eq!(text, render(&tree, false), "{what}: compact");
    assert_eq!(
        serde_json::to_string_pretty(x).unwrap(),
        render(&tree, true),
        "{what}: pretty"
    );
    assert_eq!(serde_json::parse(&text).unwrap(), tree, "{what}: read back");
}

/// The 40-scenario grid of the `sweep_cold` and `serve_warm` benchmarks.
fn g40() -> SweepGrid {
    SweepGrid {
        base: SimConfig::default(),
        sizes: vec![(4, 4), (8, 8)],
        patterns: vec![
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::Tornado,
            TrafficPattern::Shuffle,
            TrafficPattern::BitComplement,
        ],
        rates: vec![0.05, 0.20],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        warmup: 25,
        measure: 100,
        drain: 100,
        base_seed: 1,
        ..SweepGrid::default()
    }
}

/// A config with every optional part filled: a phased workload, a
/// throttle, and router and link faults.
fn busy_config() -> SimConfig {
    SimConfig::default()
        .with_size(4, 4)
        .with_workload(WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.02, 1000),
            WorkloadPhase::bernoulli(TrafficPattern::Transpose, 0.3, 500),
        ]))
        .with_throttles(vec![ThrottleEvent {
            start: 300,
            duration: 250,
            region: 2,
            level: 0,
        }])
        .with_faults(
            FaultPlan::new(vec![
                FaultEvent {
                    start: 200,
                    duration: Some(97),
                    target: FaultTarget::Router { node: NodeId(6) },
                },
                FaultEvent {
                    start: 400,
                    duration: None,
                    target: FaultTarget::Link {
                        node: NodeId(9),
                        port: Port::East,
                    },
                },
            ])
            .expect("valid plan"),
        )
}

fn tiny_train(seed: u64) -> TrainConfig {
    TrainConfig {
        episodes: 1,
        max_steps: 2,
        seed,
        ..TrainConfig::default()
    }
}

fn small_env(seed: u64) -> NocEnvConfig {
    NocEnvConfig::for_sim(
        SimConfig::default().with_size(4, 4).with_regions(2, 2),
        seed,
    )
}

/// A DQN artifact trained for two steps on a 4x4 fabric.
fn dqn_artifact() -> PolicyArtifact {
    let dqn = DqnConfig {
        hidden: vec![8],
        batch_size: 2,
        min_replay: 2,
        ..DqnConfig::default().with_seed(7)
    };
    let policy = train_drl(small_env(7), dqn, tiny_train(7)).unwrap();
    PolicyArtifact::from_dqn(&policy, small_env(7), tiny_train(7)).unwrap()
}

/// A tabular artifact whose Q-table (a `HashMap`, serialized key-sorted)
/// holds a few dozen visited states.
fn tabular_artifact() -> PolicyArtifact {
    let mut agent = TabularQ::new(TabularConfig {
        state_dim: 17,
        num_actions: 11,
        bins: 3,
        ..TabularConfig::default()
    });
    let mut rng = StdRng::seed_from_u64(11);
    let features = |rng: &mut StdRng| (0..17).map(|_| rng.gen_range(0.0..1.0)).collect();
    for i in 0..30 {
        agent.update(&Transition {
            state: features(&mut rng),
            action: i % 11,
            reward: rng.gen_range(-0.5..0.5),
            next_state: features(&mut rng),
            done: i % 7 == 0,
        });
    }
    let policy = TrainedPolicy {
        agent,
        curve: vec![],
        encoder: StateEncoder::new(vec![320; 4], vec![4; 4], 4, 16),
        action_space: ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        },
    };
    PolicyArtifact::from_tabular(&policy, small_env(11), tiny_train(11))
}

#[test]
fn writer_matches_the_value_tree_on_real_documents() {
    let grid = g40();
    assert_writer_matches_tree("G40 sweep report", &grid.run(1).unwrap());
    assert_writer_matches_tree("G40 grid", &grid);
    let config = busy_config();
    assert!(matches!(config.traffic, TrafficSpec::Workload(_)));
    assert_writer_matches_tree("faulted, throttled, phased config", &config);
    assert_writer_matches_tree("DQN artifact", &dqn_artifact());
    assert_writer_matches_tree("tabular artifact", &tabular_artifact());
    assert_writer_matches_tree(
        "cache stats",
        &CacheStats {
            memory_hits: 5,
            disk_hits: 1,
            coalesced: 2,
            computed: 3,
            write_errors: 0,
            read_errors: u64::MAX,
        },
    );

    // A submit line (the derived tagged form around the grid's JSON), read
    // back as a tree and rendered again, is the same line.
    let line = Request::Submit {
        client: "bench \"0\"".to_string(),
        grid: Box::new(grid),
    }
    .render();
    assert_eq!(render(&serde_json::parse(&line).unwrap(), false), line);
}

/// The seeded flip / delete / duplicate / truncate / splice loop of the
/// protocol test, on real artifacts: every mutant is parsed, validated and
/// built into its controller under `catch_unwind`, and none may panic.
#[test]
fn mutated_artifacts_never_panic_the_parser() {
    let corpus = [dqn_artifact(), tabular_artifact()].map(|a| a.to_json());
    let mut rng = StdRng::seed_from_u64(0xa27f);
    let mut valid = 0;
    let cases = 1500;
    for case in 0..cases {
        let mut bytes = corpus[rng.gen_range(0..corpus.len())].clone().into_bytes();
        for _ in 0..rng.gen_range(1..=3) {
            mutate(&mut rng, &mut bytes, &corpus);
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let outcome = std::panic::catch_unwind(|| {
            let artifact = PolicyArtifact::parse(&text)?;
            artifact.validate()?;
            artifact.controller().map(drop)
        });
        match outcome {
            Ok(result) => valid += usize::from(result.is_ok()),
            Err(_) => panic!("case {case}: parsing panicked on {text:?}"),
        }
    }
    // A flipped digit still parses: the loop reaches past the first byte.
    assert!(
        valid > 0 && valid < cases,
        "{valid} of {cases} mutants valid"
    );
}
