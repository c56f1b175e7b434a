//! Integration tests of the policy zoo: the one versioned artifact shape,
//! round-trip fidelity, structured compatibility errors on every load path,
//! and byte-identical population training / tournament reports (policies
//! and baseline entrants alike) across thread counts.

use noc_selfconf::zoo::{
    self, dqn_variant, load_zoo, tournament_matrix, train_grid, Entrant, Learner, PolicyArtifact,
    PolicyKind, ScenarioFamily, TournamentConfig, TrainProvenance, ZooError, ZooGrid,
};
use noc_selfconf::{
    train_drl, train_tabular, ActionSpace, NocEnv, NocEnvConfig, StateEncoder, TrainedPolicy,
};
use noc_sim::{SimConfig, Simulator, TrafficPattern, WindowMetrics};
use proptest::prelude::*;
use rl::{DqnAgent, DqnConfig, Environment, TabularConfig, TabularQ, TrainConfig, Transition};
use std::path::PathBuf;

/// Fresh temp dir per test (same idiom as the serve tests).
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("noc_zoo_test_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The 4x4 / 2x2-region fabric every test trains against.
fn small_sim() -> SimConfig {
    SimConfig::default().with_size(4, 4).with_regions(2, 2)
}

/// The encoder/action-space pair matching [`small_sim`]'s region grid:
/// 3 features x 4 regions + 5 globals = 17 inputs, 2x4+3 = 11 actions.
fn small_deployment() -> (StateEncoder, ActionSpace) {
    (
        StateEncoder::new(vec![320; 4], vec![4; 4], 4, 16),
        ActionSpace::PerRegionDelta {
            num_regions: 4,
            num_levels: 4,
        },
    )
}

fn tiny_dqn(seed: u64) -> DqnConfig {
    DqnConfig {
        hidden: vec![8],
        batch_size: 2,
        min_replay: 2,
        ..DqnConfig::default().with_seed(seed)
    }
}

fn tiny_train(seed: u64) -> TrainConfig {
    TrainConfig {
        episodes: 1,
        max_steps: 2,
        seed,
        ..TrainConfig::default()
    }
}

fn tiny_grid(base_seed: u64) -> ZooGrid {
    let mut variant = dqn_variant("default").unwrap();
    variant.dqn = tiny_dqn(0);
    ZooGrid {
        base: small_sim(),
        variants: vec![variant],
        families: vec![
            ScenarioFamily::parse("mesh/uniform/r0.1").unwrap(),
            ScenarioFamily::parse("torus/uniform/r0.1/f1").unwrap(),
        ],
        train: tiny_train(0),
        epoch_cycles: 60,
        epochs_per_episode: 2,
        base_seed,
    }
}

/// Deterministic pseudo-random feature generator (no RNG dependency).
fn feature_stream(mut state: u64) -> impl FnMut() -> f32 {
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 40) & 0xFFFF) as f32 / 65536.0
    }
}

fn probe_states(seed: u64, dim: usize) -> Vec<Vec<f32>> {
    let mut next = feature_stream(seed);
    (0..16)
        .map(|_| (0..dim).map(|_| next()).collect())
        .collect()
}

// ---------------------------------------------------------------------------
// `schema_version` is the one gate: the three pre-zoo JSON shapes no longer
// load, and fail with a structured parse error rather than a panic.
// ---------------------------------------------------------------------------

#[test]
fn pre_zoo_shapes_are_parse_errors() {
    let (encoder, action_space) = small_deployment();
    let agent = DqnAgent::new(tiny_dqn(5).with_dims(17, 11));
    let encoder = serde_json::to_string(&encoder).unwrap();
    let action_space = serde_json::to_string(&action_space).unwrap();
    let dqn = format!(
        r#""dqn": {}, "policy_json": {}, "encoder": {encoder}, "action_space": {action_space}"#,
        serde_json::to_string(agent.config()).unwrap(),
        serde_json::to_string(&agent.policy_to_json().unwrap()).unwrap(),
    );
    let tabular = TabularQ::new(TabularConfig {
        state_dim: 17,
        num_actions: 11,
        bins: 3,
        ..TabularConfig::default()
    });
    for old in [
        // The CLI's `SavedPolicy`, the bench `PolicyArtifact` (with curve),
        // and the bench `TabularArtifact`.
        format!("{{{dqn}}}"),
        format!(r#"{{{dqn}, "curve": []}}"#),
        format!(
            r#"{{"agent": {}, "encoder": {encoder}, "action_space": {action_space}, "curve": []}}"#,
            serde_json::to_string(&tabular).unwrap()
        ),
    ] {
        match PolicyArtifact::parse(&old) {
            Err(ZooError::Parse { message, .. }) => {
                assert!(message.contains("schema_version"), "{message}");
            }
            other => panic!("expected a parse error, got {other:?}"),
        }
    }
    // The same rejection through the file load path names the file.
    let dir = temp_dir("pre_zoo");
    let path = dir.join("saved_policy.json");
    std::fs::write(&path, format!("{{{dqn}}}")).unwrap();
    let message = PolicyArtifact::load(&path).unwrap_err().to_string();
    assert!(message.contains("saved_policy.json"), "{message}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn garbage_json_is_a_parse_error() {
    assert!(matches!(
        PolicyArtifact::parse(r#"{"what": 1}"#),
        Err(ZooError::Parse { .. })
    ));
    assert!(PolicyArtifact::parse("not json").is_err());
}

// ---------------------------------------------------------------------------
// Wrong-dimension artifacts are rejected with a structured error on every
// load path: single-file and zoo-directory loads.
// ---------------------------------------------------------------------------

#[test]
fn wrong_state_dim_rejected_on_every_load_path() {
    let dir = temp_dir("wrong_dim");
    let env = NocEnvConfig::for_sim(small_sim(), 11);
    let policy = train_drl(env.clone(), tiny_dqn(11), tiny_train(11)).unwrap();
    let mut artifact = PolicyArtifact::from_dqn(&policy, env, tiny_train(11)).unwrap();

    // Versioned shape with a network/encoder mismatch.
    match &mut artifact.kind {
        PolicyKind::Dqn { dqn, .. } => dqn.state_dim += 1,
        PolicyKind::Tabular { .. } => unreachable!(),
    }
    let path = dir.join("bad_versioned.json");
    artifact.save(&path).unwrap();
    match PolicyArtifact::load(&path) {
        Err(ZooError::Incompatible {
            field,
            expected,
            found,
            ..
        }) => {
            assert_eq!(field, "state_dim");
            assert_eq!(found, expected + 1);
        }
        other => panic!("expected a structured incompatibility, got {other:?}"),
    }
    // The error message tells the user how to recover.
    let message = PolicyArtifact::load(&path).unwrap_err().to_string();
    assert!(message.contains("retrain"), "unhelpful error: {message}");

    // A zoo-directory load hits the same validation (no manifest, so the
    // sorted-filename path is exercised too).
    assert!(load_zoo(&dir).is_err());

    // Wrong action count is the other structured axis.
    let mut bad_actions = PolicyArtifact::from_dqn(
        &policy,
        NocEnvConfig::for_sim(small_sim(), 11),
        tiny_train(11),
    )
    .unwrap();
    match &mut bad_actions.kind {
        PolicyKind::Dqn { dqn, .. } => dqn.num_actions += 2,
        PolicyKind::Tabular { .. } => unreachable!(),
    }
    assert!(matches!(
        bad_actions.validate(),
        Err(ZooError::Incompatible {
            field: "num_actions",
            ..
        })
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------------
// Property: save -> load -> greedy rollout is byte- and action-identical.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dqn_artifact_roundtrip_preserves_policy(seed in any::<u64>()) {
        let (encoder, action_space) = small_deployment();
        let agent = DqnAgent::new(tiny_dqn(seed).with_dims(17, 11));
        let artifact = PolicyArtifact {
            schema_version: zoo::ZOO_SCHEMA_VERSION,
            kind: PolicyKind::Dqn {
                dqn: agent.config().clone(),
                policy_json: agent.policy_to_json().unwrap(),
            },
            encoder,
            action_space,
            provenance: None,
            curve: vec![],
            config_hash: String::new(),
        };
        // Serialization is canonical: parse(to_json) -> identical bytes.
        let json = artifact.to_json();
        let reparsed = PolicyArtifact::parse(&json).unwrap();
        prop_assert_eq!(&reparsed.to_json(), &json);
        // The reloaded network plays the exact same greedy policy.
        let PolicyKind::Dqn { policy_json, dqn } = &reparsed.kind else {
            panic!("kind preserved");
        };
        let mut reloaded = DqnAgent::new(dqn.clone());
        reloaded.policy_from_json(policy_json).unwrap();
        for state in probe_states(seed ^ 0xABCD, 17) {
            prop_assert_eq!(reloaded.greedy_action(&state), agent.greedy_action(&state));
            prop_assert_eq!(reloaded.q_values(&state), agent.q_values(&state));
        }
    }

    #[test]
    fn tabular_artifact_roundtrip_preserves_policy(seed in any::<u64>()) {
        let (encoder, action_space) = small_deployment();
        let mut agent = TabularQ::new(TabularConfig {
            state_dim: 17,
            num_actions: 11,
            bins: 3,
            ..TabularConfig::default()
        });
        let mut next = feature_stream(seed);
        for i in 0..30 {
            let state: Vec<f32> = (0..17).map(|_| next()).collect();
            let next_state: Vec<f32> = (0..17).map(|_| next()).collect();
            agent.update(&Transition {
                state,
                action: i % 11,
                reward: next() - 0.5,
                next_state,
                done: i % 7 == 0,
            });
        }
        let policy = TrainedPolicy {
            agent: agent.clone(),
            curve: vec![],
            encoder,
            action_space,
        };
        let artifact = PolicyArtifact::from_tabular(
            &policy,
            NocEnvConfig::for_sim(small_sim(), seed),
            tiny_train(seed),
        );
        let json = artifact.to_json();
        let reparsed = PolicyArtifact::parse(&json).unwrap();
        // Canonical bytes (the sorted table serialization makes this hold
        // regardless of HashMap iteration order).
        prop_assert_eq!(&reparsed.to_json(), &json);
        let PolicyKind::Tabular { agent: reloaded } = &reparsed.kind else {
            panic!("kind preserved");
        };
        for state in probe_states(seed ^ 0x1234, 17) {
            prop_assert_eq!(reloaded.greedy_action(&state), agent.greedy_action(&state));
        }
    }
}

// ---------------------------------------------------------------------------
// Population training and the tournament: byte-identical across thread
// counts and reruns.
// ---------------------------------------------------------------------------

#[test]
fn train_grid_is_byte_identical_across_thread_counts() {
    let dir1 = temp_dir("grid_t1");
    let dir4 = temp_dir("grid_t4");
    let grid = tiny_grid(42);
    let m1 = train_grid(&grid, &dir1, 1).unwrap();
    let m4 = train_grid(&grid, &dir4, 4).unwrap();
    assert_eq!(m1.members.len(), 2);
    assert_eq!(
        serde_json::to_string(&m1).unwrap(),
        serde_json::to_string(&m4).unwrap()
    );
    for entry in &m1.members {
        let b1 = std::fs::read(dir1.join(&entry.file)).unwrap();
        let b4 = std::fs::read(dir4.join(&entry.file)).unwrap();
        assert_eq!(
            b1, b4,
            "artifact {} differs across thread counts",
            entry.name
        );
        assert!(!entry.config_hash.is_empty());
    }
    let manifest1 = std::fs::read(dir1.join("manifest.json")).unwrap();
    let manifest4 = std::fs::read(dir4.join("manifest.json")).unwrap();
    assert_eq!(manifest1, manifest4);

    // Every artifact reloads through the validated path, in manifest order.
    let policies = load_zoo(&dir1).unwrap();
    assert_eq!(policies.len(), 2);
    for ((name, artifact), entry) in policies.iter().zip(&m1.members) {
        assert_eq!(name, &entry.name);
        assert_eq!(artifact.config_hash, entry.config_hash);
        assert!(artifact.provenance.is_some());
    }
    // Without the manifest, the sorted-filename fallback finds the same
    // artifacts.
    std::fs::remove_file(dir1.join("manifest.json")).unwrap();
    let mut by_file = load_zoo(&dir1).unwrap();
    by_file.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(by_file.len(), 2);
    let _ = std::fs::remove_dir_all(&dir1);
    let _ = std::fs::remove_dir_all(&dir4);
}

/// A tiny trained DQN artifact on [`small_sim`].
fn tiny_policy(seed: u64) -> PolicyArtifact {
    let env = NocEnvConfig::for_sim(small_sim(), seed);
    let policy = train_drl(env.clone(), tiny_dqn(seed), tiny_train(seed)).unwrap();
    PolicyArtifact::from_dqn(&policy, env, tiny_train(seed)).unwrap()
}

fn tiny_tournament(families: &[&str]) -> TournamentConfig {
    TournamentConfig {
        base: small_sim(),
        families: families
            .iter()
            .map(|f| ScenarioFamily::parse(f).unwrap())
            .collect(),
        epochs: 2,
        epoch_cycles: 60,
        ..TournamentConfig::default()
    }
}

#[test]
fn tournament_report_is_deterministic_across_thread_counts() {
    let dir = temp_dir("tournament");
    let grid = tiny_grid(7);
    train_grid(&grid, &dir, 2).unwrap();
    let policies: Vec<(String, Entrant)> = load_zoo(&dir)
        .unwrap()
        .into_iter()
        .map(|(name, artifact)| (name, artifact.into()))
        .collect();
    let config = tiny_tournament(&["mesh/uniform/r0.1", "torus/ph[uniform:burst0.3x0.05]/f1"]);
    let r1 = tournament_matrix(&policies, &config, 1).unwrap();
    let r3 = tournament_matrix(&policies, &config, 3).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&r1).unwrap(),
        serde_json::to_string_pretty(&r3).unwrap()
    );
    assert_eq!(r1.cells.len(), policies.len() * config.families.len());
    assert_eq!(r1.best_by_family.len(), config.families.len());
    assert_eq!(r1.mean_score_by_policy.len(), policies.len());
    // Cell scores are finite and the winners really are per-column maxima.
    for cell in &r1.cells {
        assert!(
            cell.score.is_finite(),
            "cell {}/{} has a NaN score",
            cell.policy,
            cell.family
        );
    }
    for best in &r1.best_by_family {
        let column_max = r1
            .cells
            .iter()
            .filter(|c| c.family == best.family)
            .map(|c| c.score)
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(best.score, column_max);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tournament_rejects_policies_from_a_different_fabric() {
    // A policy trained on a 2x2-region grid cannot enter a tournament on an
    // 8x8 fabric with 2x2 regions of *different* node count? Regions match,
    // so use a 4x4-region fabric where the observation really is wider.
    let config = TournamentConfig {
        base: SimConfig::default().with_regions(4, 4), // 8x8, 16 regions
        epochs: 1,
        ..tiny_tournament(&["mesh/uniform/r0.1"])
    };
    // Baselines size themselves from the cell's fabric: no dimension check
    // applies, and they run on the 16-region mesh as they are.
    let mut entrants = Entrant::baselines();
    let report = tournament_matrix(&entrants, &config, 1).unwrap();
    assert_eq!(report.policies, ["static-max", "static-min", "threshold"]);
    // Add the small-fabric policy and the matrix fails before any cell
    // runs, naming it.
    entrants.push(("small-fabric".into(), tiny_policy(9).into()));
    match tournament_matrix(&entrants, &config, 1) {
        Err(ZooError::Incompatible { policy, field, .. }) => {
            assert_eq!(policy, "small-fabric");
            assert_eq!(field, "state_dim");
        }
        other => panic!("expected a structured incompatibility, got {other:?}"),
    }
}

/// A tournament fabric need not be square: a policy trained at 4x4 scores
/// on a 4x2 mesh with the same region grid, and no training traffic menu
/// (transpose needs a square grid) is checked against the tournament's.
#[test]
fn tournament_scores_a_non_square_fabric() {
    let mut entrants = Entrant::baselines();
    entrants.push(("drl".into(), tiny_policy(5).into()));
    let config = TournamentConfig {
        base: SimConfig::default().with_size(4, 2).with_regions(2, 2),
        ..tiny_tournament(&["mesh/uniform/r0.1"])
    };
    let report = tournament_matrix(&entrants, &config, 1).unwrap();
    assert_eq!(report.cells.len(), 4);
    assert!(report.cells.iter().all(|c| c.score.is_finite()));
}

/// The unified matrix: baselines and a trained policy side by side, over a
/// healthy and a faulted family, byte-identical at any thread count.
#[test]
fn mixed_entrant_matrix_is_byte_identical_across_thread_counts() {
    let mut entrants = Entrant::baselines();
    entrants.push(("drl".into(), tiny_policy(13).into()));
    let config = tiny_tournament(&["mesh/uniform/r0.1", "mesh/uniform/r0.1/f1"]);
    let r1 = tournament_matrix(&entrants, &config, 1).unwrap();
    let r3 = tournament_matrix(&entrants, &config, 3).unwrap();
    assert_eq!(
        serde_json::to_string_pretty(&r1).unwrap(),
        serde_json::to_string_pretty(&r3).unwrap()
    );
    assert_eq!(r1.cells.len(), 4 * 2);
    assert_eq!(
        r1.policies,
        ["static-max", "static-min", "threshold", "drl"]
    );
    // Each baseline cell was driven by the controller its name promises.
    for cell in &r1.cells[..6] {
        assert_eq!(cell.aggregate.controller, cell.policy);
    }
}

/// The column seed: every entrant of one family runs the identical
/// simulation (same traffic stream, same dead links), so one artifact
/// entered under two names scores identically in every column.
#[test]
fn one_artifact_under_two_names_scores_identically_per_column() {
    let artifact = tiny_policy(21);
    let entrants = vec![
        ("first".to_string(), Entrant::from(artifact.clone())),
        ("second".to_string(), Entrant::from(artifact)),
    ];
    let config = tiny_tournament(&["mesh/uniform/r0.1", "torus/uniform/r0.1/f2"]);
    let report = tournament_matrix(&entrants, &config, 2).unwrap();
    let nf = config.families.len();
    for f in 0..nf {
        let (a, b) = (&report.cells[f], &report.cells[nf + f]);
        assert_eq!(a.seed, b.seed, "column {f} shares one seed");
        assert_eq!(a.aggregate, b.aggregate, "column {f}");
        assert_eq!(a.score, b.score);
    }
    assert_ne!(report.cells[0].seed, report.cells[1].seed);
}

// ---------------------------------------------------------------------------
// Pinned bytes of both learned kinds: the config hashes, the artifact JSON,
// and what the deployed controller decides. A refactor of the train /
// capture / deploy path must move none of them.
// ---------------------------------------------------------------------------

/// 64-bit FNV-1a of `bytes`, as 16 hex digits.
fn fnv1a64_hex(bytes: &[u8]) -> String {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

/// The tabular configuration of the pinned artifact.
fn pinned_tabular() -> TabularConfig {
    TabularConfig {
        bins: 3,
        ..TabularConfig::default()
    }
}

/// A tiny trained tabular artifact on [`small_sim`] (1 episode x 2 steps),
/// assembled field by field the way training and capture fill it in: the
/// table is sized from the environment, trained by `rl::train`, and stored
/// with its provenance and config hash.
fn tiny_tabular_artifact() -> PolicyArtifact {
    let env_cfg = NocEnvConfig::for_sim(small_sim(), 5);
    let train = tiny_train(5);
    let mut env = NocEnv::new(env_cfg.clone()).unwrap();
    let mut agent = TabularQ::new(TabularConfig {
        state_dim: env.state_dim(),
        num_actions: env.num_actions(),
        ..pinned_tabular()
    });
    let curve = rl::train(&mut env, &mut agent, &train);
    let config_hash = Learner::Tabular(pinned_tabular()).config_hash(&env_cfg, &train);
    PolicyArtifact {
        schema_version: zoo::ZOO_SCHEMA_VERSION,
        kind: PolicyKind::Tabular { agent },
        encoder: env.encoder().clone(),
        action_space: env.config().action_space.clone(),
        provenance: Some(TrainProvenance {
            env: env_cfg,
            seed: train.seed,
            train,
        }),
        curve,
        config_hash,
    }
}

/// Twelve epochs of real 4x4 telemetry, with region occupancies and the
/// current levels redrawn from a fixed stream so the probe visits varied
/// states.
fn probe_stream() -> Vec<(WindowMetrics, Vec<usize>)> {
    let sim = small_sim().with_traffic(TrafficPattern::Uniform, 0.3);
    let mut sim = Simulator::new(sim).unwrap();
    let mut next = feature_stream(0x9E37);
    (0..12)
        .map(|_| {
            let mut metrics = sim.run_epoch(60);
            for occ in &mut metrics.region_occupancy {
                *occ = f64::from(next()) * 120.0;
            }
            let levels = (0..4).map(|_| (next() * 4.0) as usize).collect();
            (metrics, levels)
        })
        .collect()
}

/// The deployed controller's name and its level vectors on [`probe_stream`].
fn decisions(artifact: &PolicyArtifact) -> (String, Vec<Vec<usize>>) {
    let mut controller = artifact.controller().unwrap();
    let levels = probe_stream()
        .iter()
        .map(|(metrics, levels)| controller.decide(metrics, levels, 4).levels)
        .collect();
    (controller.name().to_string(), levels)
}

#[test]
fn learned_policy_bytes_are_pinned() {
    let env = NocEnvConfig::for_sim(small_sim(), 3);
    let train = TrainConfig::default();
    assert_eq!(
        Learner::Dqn(DqnConfig::default()).config_hash(&env, &train),
        "d32c2dc16068f00478e52314996c1021"
    );
    assert_eq!(
        Learner::Tabular(TabularConfig::default()).config_hash(&env, &train),
        "782ea513637355ef92f85b040d1205e0"
    );
    // The default environment is the paper-style one `for_sim` builds.
    assert_eq!(
        Learner::Dqn(DqnConfig::default()).config_hash(&NocEnvConfig::default(), &train),
        "7681017d2c24b02df341f784b84ae0c0"
    );

    let tabular = tiny_tabular_artifact();
    assert_eq!(
        fnv1a64_hex(tabular.to_json().as_bytes()),
        "1c20b831fbd9d6b0"
    );
    let (name, levels) = decisions(&tabular);
    assert_eq!(name, "tabular-q");
    assert_eq!(
        format!("{levels:?}"),
        "[[1, 2, 2, 3], [3, 1, 0, 0], [0, 3, 3, 3], [2, 3, 1, 3], [3, 0, 0, 0], [3, 3, 1, 3], \
         [1, 3, 2, 1], [3, 1, 2, 3], [2, 1, 3, 3], [3, 1, 3, 0], [3, 0, 2, 2], [0, 1, 3, 1]]"
    );

    let dqn = tiny_policy(17);
    assert_eq!(fnv1a64_hex(dqn.to_json().as_bytes()), "cdd9c5cd657618f4");
    let (name, levels) = decisions(&dqn);
    assert_eq!(name, "drl");
    assert_eq!(
        format!("{levels:?}"),
        "[[1, 3, 2, 3], [3, 1, 0, 0], [0, 3, 3, 3], [2, 3, 1, 2], [3, 0, 0, 0], [3, 3, 1, 2], \
         [1, 3, 2, 0], [3, 0, 2, 3], [2, 0, 3, 3], [3, 1, 3, 0], [3, 0, 2, 2], [0, 1, 3, 1]]"
    );
}

/// The training and capture path builds the pinned tabular artifact byte
/// for byte.
#[test]
fn tabular_training_and_capture_match_the_pinned_artifact() {
    let env = NocEnvConfig::for_sim(small_sim(), 5);
    let policy = train_tabular(env.clone(), pinned_tabular(), tiny_train(5)).unwrap();
    let artifact = PolicyArtifact::from_tabular(&policy, env, tiny_train(5));
    assert_eq!(artifact.to_json(), tiny_tabular_artifact().to_json());
}
