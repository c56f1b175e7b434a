//! # noc-bench — the experiment harness
//!
//! One binary per table/figure of the evaluation (see DESIGN.md for the
//! index) plus the timed workload suite behind `noc-cli bench`
//! ([`report`]). This library holds what the binaries share: result
//! formatting, artifact caching for trained policies, standard
//! configurations, and [`evaluate`] — the tournament-matrix call every
//! controller comparison is formatted from. It owns no simulation loop:
//! scenario grids run on `SweepGrid`, controllers on `tournament_matrix`.

#![warn(missing_docs)]

pub mod report;

use noc_selfconf::zoo::{tournament_matrix, TournamentConfig};
use noc_selfconf::{
    Entrant, NocEnvConfig, PolicyArtifact, RewardConfig, ScenarioFamily, TournamentReport,
};
use noc_sim::{SimConfig, TrafficPattern, WorkloadSpec};
use rl::{DqnConfig, TabularConfig, TrainConfig};
use std::fs;
use std::path::{Path, PathBuf};

/// Scale of an experiment run. `EXPT_SCALE=quick` shrinks every budget so
/// integration tests and smoke runs finish in seconds; the default `full`
/// scale regenerates paper-quality curves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-quality budgets (minutes).
    Full,
    /// Smoke-test budgets (seconds).
    Quick,
}

impl Scale {
    /// Read the scale from the `EXPT_SCALE` environment variable.
    pub fn from_env() -> Scale {
        match std::env::var("EXPT_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            _ => Scale::Full,
        }
    }

    /// Pick `full` or `quick` depending on the scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Directory where experiment outputs (CSV, markdown, trained policies) are
/// written: `results/` at the repository root, or `$EXPT_RESULTS`.
///
/// # Panics
/// Panics with the offending path and OS error when the directory cannot be
/// created — a swallowed error here surfaces later as a baffling "No such
/// file" from some unrelated artifact write, which is undiagnosable in CI
/// logs.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("EXPT_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    fs::create_dir_all(&dir).unwrap_or_else(|e| {
        panic!(
            "cannot create results directory `{}` (set $EXPT_RESULTS to relocate it): {e}",
            dir.display()
        )
    });
    dir
}

/// Render a markdown table to stdout and return it as a string.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("\n## {title}\n\n"));
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    print!("{out}");
    out
}

/// Write rows as CSV into `results/<name>.csv`.
pub fn save_csv(name: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut s = String::new();
    s.push_str(&headers.join(","));
    s.push('\n');
    for row in rows {
        s.push_str(&row.join(","));
        s.push('\n');
    }
    let path = results_dir().join(format!("{name}.csv"));
    fs::write(&path, s).expect("CSV must be writable");
    eprintln!("wrote {}", path.display());
}

/// Write a markdown report into `results/<name>.md`.
pub fn save_markdown(name: &str, content: &str) {
    let path = results_dir().join(format!("{name}.md"));
    fs::write(&path, content).expect("markdown must be writable");
    eprintln!("wrote {}", path.display());
}

/// Format a float with sensible precision for tables.
pub fn fmt(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else if v.abs() >= 1000.0 {
        format!("{v:.0}")
    } else if v.abs() >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

/// Run `f(0..n)` on up to `threads` OS threads and collect results in order
/// (the workspace's shared pool primitive, re-exported from the core crate).
pub use noc_selfconf::{default_threads, parallel_map};

/// Whether a cached artifact at `path` can satisfy a request whose training
/// configuration hashes to `expected`. Artifacts whose hash differs — or
/// that carry none — are misses: returning them would
/// silently hand the caller a policy trained under a *different*
/// configuration (the old cache's stale-artifact bug).
fn cache_hit(path: &Path, expected: &str, kind: &str) -> Option<PolicyArtifact> {
    if std::env::var("EXPT_RETRAIN").is_ok() {
        return None;
    }
    let artifact = PolicyArtifact::load(path).ok()?;
    if artifact.kind_name() != kind {
        return None;
    }
    if artifact.config_hash != expected {
        eprintln!(
            "cached policy {} was trained under a different configuration; retraining",
            path.display()
        );
        return None;
    }
    eprintln!("loaded cached policy {}", path.display());
    Some(artifact)
}

/// The learner a cached policy is trained with.
#[derive(Debug, Clone)]
pub enum Learner {
    /// A DQN with these hyper-parameters.
    Dqn(DqnConfig),
    /// The tabular Q-learning baseline.
    Tabular(TabularConfig),
}

/// Train a policy, caching the artifact at `<dir>/<key>.json`. The cache
/// is keyed on the policy kind and the configuration hash: an artifact
/// trained under a different environment/hyper-parameter/budget
/// combination is a miss and gets retrained. `EXPT_RETRAIN` forces a miss.
pub fn train_or_load(
    dir: &Path,
    key: &str,
    env_cfg: NocEnvConfig,
    learner: Learner,
    train: TrainConfig,
) -> PolicyArtifact {
    let path = dir.join(format!("{key}.json"));
    let (kind, expected) = match &learner {
        Learner::Dqn(dqn) => ("dqn", noc_selfconf::dqn_config_hash(&env_cfg, dqn, &train)),
        Learner::Tabular(tab) => (
            "tabular",
            noc_selfconf::tabular_config_hash(&env_cfg, tab, &train),
        ),
    };
    if let Some(artifact) = cache_hit(&path, &expected, kind) {
        return artifact;
    }
    eprintln!(
        "training {kind} policy `{key}` ({} episodes)...",
        train.episodes
    );
    let t0 = std::time::Instant::now();
    let artifact = match learner {
        Learner::Dqn(dqn) => noc_selfconf::train_drl(env_cfg.clone(), dqn, train.clone())
            .map(|p| PolicyArtifact::from_dqn(&p, env_cfg, train).expect("policy serializes")),
        Learner::Tabular(tab) => noc_selfconf::train_tabular(env_cfg.clone(), tab, train.clone())
            .map(|p| PolicyArtifact::from_tabular(&p, env_cfg, train)),
    }
    .expect("training configuration");
    eprintln!("trained `{key}` in {:.1?}", t0.elapsed());
    artifact.save(&path).expect("artifact must be writable");
    artifact
}

/// Standard experiment configurations shared by the binaries.
pub mod configs {
    use super::*;
    use noc_sim::{InjectionProcess, NodeId, TrafficSpec, WorkloadPhase};
    use rl::Schedule;

    /// The paper's mesh: 8×8, 4 VCs × 4 flits, 5-flit packets, 2×2 regions.
    pub fn mesh8() -> SimConfig {
        SimConfig::default()
    }

    /// The scalability mesh: 4×4 with 2×2 regions.
    pub fn mesh4() -> SimConfig {
        SimConfig::default().with_size(4, 4).with_regions(2, 2)
    }

    /// The patterns of the comparison figures.
    pub fn comparison_patterns() -> Vec<(&'static str, TrafficPattern)> {
        vec![
            ("uniform", TrafficPattern::Uniform),
            ("transpose", TrafficPattern::Transpose),
            ("bitcomp", TrafficPattern::BitComplement),
            ("hotspot", hotspot()),
        ]
    }

    /// The hotspot pattern used throughout: 30 % of traffic to node 0.
    pub fn hotspot() -> TrafficPattern {
        TrafficPattern::Hotspot {
            hotspots: vec![NodeId(0)],
            fraction: 0.3,
        }
    }

    /// The bursty phase trace of Fig 7. Phases last 12 control epochs so
    /// controllers have room to settle inside each regime; the third regime
    /// uses a bursty on/off process at the same mean load the old Bernoulli
    /// phase carried.
    pub fn phase_trace() -> TrafficSpec {
        TrafficSpec::Workload(WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.03, 6000),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.25, 6000),
            WorkloadPhase::new(
                TrafficPattern::Transpose,
                InjectionProcess::Bursty {
                    rate_on: 0.24,
                    switch: 0.02,
                },
                6000,
            ),
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.01, 6000),
        ]))
    }

    /// The environment configuration used to train the deployed policies
    /// (the paper-style environment over the given fabric).
    pub fn train_env(sim: SimConfig, seed: u64) -> NocEnvConfig {
        NocEnvConfig::for_sim(sim, seed)
    }

    /// The DQN hyper-parameters of Table 2.
    pub fn dqn_default(seed: u64) -> DqnConfig {
        DqnConfig::default().with_seed(seed)
    }

    /// The training budget, scaled.
    pub fn train_budget(scale: Scale, seed: u64) -> TrainConfig {
        TrainConfig {
            episodes: scale.pick(250, 3),
            max_steps: 40,
            epsilon: Schedule::Linear {
                start: 1.0,
                end: 0.05,
                steps: scale.pick(7000, 60),
            },
            train_per_step: 1,
            seed,
        }
    }

    /// The tabular baseline's configuration.
    pub fn tabular_default() -> TabularConfig {
        TabularConfig {
            bins: 3,
            alpha: 0.15,
            gamma: 0.95,
            ..TabularConfig::default()
        }
    }
}

/// Score `entrants` on `sim` under each Bernoulli `(pattern, rate)`
/// workload, `epochs` control epochs of `epoch_cycles` per cell: the one
/// call behind every controller-comparison figure and table. Cells come
/// back entrant-major, workload-fastest (`cells[e * workloads.len() + w]`),
/// every entrant of a workload column on the identical simulation, seeded
/// off `sim.seed`.
///
/// # Panics
/// Panics on an invalid `sim` or an entrant trained for a different fabric
/// (the experiment binaries have no error path to report it through).
pub fn evaluate(
    sim: &SimConfig,
    entrants: &[(String, Entrant)],
    workloads: &[(TrafficPattern, f64)],
    epochs: usize,
    epoch_cycles: u64,
) -> TournamentReport {
    let config = TournamentConfig {
        base: sim.clone(),
        families: workloads
            .iter()
            .map(|(pattern, rate)| {
                ScenarioFamily::new(sim.kind, WorkloadSpec::bernoulli(pattern.clone(), *rate), 0)
            })
            .collect(),
        epochs,
        epoch_cycles,
        reward: RewardConfig::default(),
        base_seed: sim.seed,
    };
    tournament_matrix(entrants, &config, default_threads()).expect("valid evaluation matrix")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_is_compact() {
        assert_eq!(fmt(f64::NAN), "—");
        assert_eq!(fmt(12345.6), "12346");
        assert_eq!(fmt(42.42), "42.4");
        assert_eq!(fmt(0.1234), "0.123");
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map(20, 4, |i| i * i);
        assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 1), 10);
        assert_eq!(Scale::Quick.pick(10, 1), 1);
    }

    #[test]
    fn table_renders_markdown() {
        let s = print_table("T", &["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(s.contains("| a | b |"));
        assert!(s.contains("| 1 | 2 |"));
    }

    /// Regression for the stale-cache bug: the old cache returned whatever
    /// artifact sat under the key, even when the requested training
    /// configuration had changed. The cache is now keyed on the config
    /// hash, so a changed configuration under the same key must retrain.
    #[test]
    fn policy_cache_misses_on_config_change() {
        let dir = std::env::temp_dir().join(format!("noc_bench_cache_test_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let env = configs::train_env(configs::mesh4(), 3);
        let dqn = DqnConfig {
            hidden: vec![8],
            batch_size: 8,
            min_replay: 8,
            ..configs::dqn_default(3)
        };
        let train = TrainConfig {
            episodes: 1,
            max_steps: 2,
            ..configs::train_budget(Scale::Quick, 3)
        };
        let probe = |env: &NocEnvConfig, learner: Learner| {
            train_or_load(&dir, "cache_probe", env.clone(), learner, train.clone())
        };
        let a = probe(&env, Learner::Dqn(dqn.clone()));
        // Same configuration: the second call is a cache hit with identical
        // bytes (or an identical deterministic retrain under EXPT_RETRAIN).
        let b = probe(&env, Learner::Dqn(dqn.clone()));
        assert_eq!(a.to_json(), b.to_json());
        // Changed configuration under the SAME key: the cached artifact
        // must not be returned.
        let mut env2 = env.clone();
        env2.epoch_cycles += 1;
        let c = probe(&env2, Learner::Dqn(dqn));
        assert_ne!(a.config_hash, c.config_hash);
        assert_eq!(
            c.provenance
                .as_ref()
                .expect("fresh artifact has provenance")
                .env
                .epoch_cycles,
            env2.epoch_cycles
        );
        // The tabular path shares the keying: a DQN artifact under a
        // tabular key is a kind mismatch, not a hit.
        let t = probe(&env2, Learner::Tabular(configs::tabular_default()));
        assert_eq!(t.kind_name(), "tabular");
        let _ = fs::remove_dir_all(&dir);
    }

    /// The comparison grid is a pure function of its inputs: one point per
    /// entrant × pattern × rate, the same bytes on a rerun, and nothing
    /// written to the results directory (no result cache to go stale).
    #[test]
    fn comparison_grid_is_entrants_by_patterns_by_rates_and_uncached() {
        let listing = || {
            let mut names: Vec<_> = fs::read_dir(results_dir())
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = listing();
        let sim = configs::mesh4();
        let env = configs::train_env(sim.clone(), 5);
        let train = TrainConfig {
            episodes: 1,
            max_steps: 2,
            ..configs::train_budget(Scale::Quick, 5)
        };
        let dqn = DqnConfig {
            hidden: vec![8],
            batch_size: 8,
            min_replay: 8,
            ..configs::dqn_default(5)
        };
        let policy = noc_selfconf::train_drl(env.clone(), dqn, train.clone()).unwrap();
        let mut entrants = Entrant::baselines();
        entrants.push((
            "drl".into(),
            PolicyArtifact::from_dqn(&policy, env, train)
                .unwrap()
                .into(),
        ));
        let patterns = comparison::sweep_patterns();
        let rates = [0.05, 0.2];
        let run = || comparison::grid(&sim, &entrants, &patterns, &rates, 2, 60);
        let points = run();
        assert_eq!(points.len(), entrants.len() * patterns.len() * rates.len());
        // Matrix order: entrant-major, then pattern, then rate.
        assert_eq!(points[0].controller, "static-max");
        assert_eq!(
            (points[1].pattern.as_str(), points[1].rate),
            ("uniform", 0.2)
        );
        assert_eq!(points[2].pattern, "transpose");
        assert_eq!(points.last().unwrap().controller, "drl");
        let bytes = |points: &[comparison::ComparisonPoint]| {
            points
                .iter()
                .map(|p| serde_json::to_string(&p.agg).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(bytes(&points), bytes(&run()));
        assert_eq!(before, listing(), "the grid must not touch results/");
    }
}

/// The controller-comparison grid shared by Figs 4–6 and Table 3.
pub mod comparison {
    use super::*;
    use noc_selfconf::RunAggregate;

    /// One grid point: a controller on a workload.
    #[derive(Debug, Clone)]
    pub struct ComparisonPoint {
        /// Traffic pattern name.
        pub pattern: String,
        /// Offered injection rate (flits/node/cycle).
        pub rate: f64,
        /// Controller name.
        pub controller: String,
        /// Aggregate metrics of the run.
        pub agg: RunAggregate,
    }

    /// The controllers compared everywhere: the three baselines plus the
    /// tabular and DRL policies, trained (or loaded from cache) for the
    /// given mesh key.
    pub fn entrants_for(sim: &SimConfig, key_prefix: &str, scale: Scale) -> Vec<(String, Entrant)> {
        let drl = train_or_load(
            &results_dir(),
            &format!("{key_prefix}_drl"),
            configs::train_env(sim.clone(), 7),
            Learner::Dqn(configs::dqn_default(7)),
            configs::train_budget(scale, 7),
        );
        let tab = train_or_load(
            &results_dir(),
            &format!("{key_prefix}_tabular"),
            configs::train_env(sim.clone(), 8),
            Learner::Tabular(configs::tabular_default()),
            configs::train_budget(scale, 8),
        );
        let mut entrants = Entrant::baselines();
        entrants.push(("tabular-q".into(), tab.into()));
        entrants.push(("drl".into(), drl.into()));
        entrants
    }

    /// Injection rates of the comparison sweep.
    pub fn sweep_rates(scale: Scale) -> Vec<f64> {
        scale.pick(vec![0.02, 0.06, 0.10, 0.14, 0.18, 0.22], vec![0.05, 0.20])
    }

    /// Patterns of the comparison sweep.
    pub fn sweep_patterns() -> Vec<(&'static str, TrafficPattern)> {
        vec![
            ("uniform", TrafficPattern::Uniform),
            ("transpose", TrafficPattern::Transpose),
            ("hotspot", configs::hotspot()),
        ]
    }

    /// `entrants` × `patterns` × `rates` on `sim`, one point per cell in
    /// matrix order (entrant-major, then pattern, then rate).
    pub fn grid(
        sim: &SimConfig,
        entrants: &[(String, Entrant)],
        patterns: &[(&str, TrafficPattern)],
        rates: &[f64],
        epochs: usize,
        epoch_cycles: u64,
    ) -> Vec<ComparisonPoint> {
        let mut names = Vec::new();
        let mut workloads = Vec::new();
        for (name, pattern) in patterns {
            for &rate in rates {
                names.push(*name);
                workloads.push((pattern.clone(), rate));
            }
        }
        let report = evaluate(sim, entrants, &workloads, epochs, epoch_cycles);
        report
            .cells
            .into_iter()
            .enumerate()
            .map(|(i, cell)| {
                let w = i % workloads.len();
                ComparisonPoint {
                    pattern: names[w].to_string(),
                    rate: workloads[w].1,
                    controller: cell.policy,
                    agg: cell.aggregate,
                }
            })
            .collect()
    }

    /// The full comparison grid on the 8×8 mesh at `scale`'s budgets.
    pub fn run(scale: Scale) -> Vec<ComparisonPoint> {
        let sim = configs::mesh8();
        grid(
            &sim,
            &entrants_for(&sim, "mesh8", scale),
            &sweep_patterns(),
            &sweep_rates(scale),
            scale.pick(40, 3),
            scale.pick(500, 200),
        )
    }
}
