//! The policy zoo: one versioned on-disk format for trained policies, plus
//! population training and the tournament generalization matrix.
//!
//! [`PolicyArtifact`] is the one shape a trained policy is persisted in:
//!
//! * **Versioned**: a `schema_version` field is the one gate on what
//!   [`PolicyArtifact::parse`] accepts.
//! * **Self-describing**: the policy kind (DQN weights or tabular Q-table),
//!   the [`StateEncoder`] and [`ActionSpace`] it was trained with, the full
//!   training provenance ([`NocEnvConfig`], [`TrainConfig`], seed, learning
//!   curve), and a content hash of the configuration that produced it
//!   (git-sha-agnostic, same double-FNV idiom as the serve result cache).
//! * **Checked on every load**: [`PolicyArtifact::load`] validates the
//!   policy dimensions against the stored encoder/action space and returns
//!   a structured [`ZooError`] instead of letting a controller constructor
//!   panic downstream.
//!
//! On top of the unified artifact, [`train_grid`] fans a population of DQN
//! variants × scenario families over the workspace worker pool with
//! SplitMix64 per-member seeds — artifacts are byte-identical across thread
//! counts and reruns, the same contract the sweep engine honors — and
//! [`tournament_matrix`] scores every [`Entrant`] (a zoo policy or a built-in
//! baseline) against every scenario family into one deterministic
//! [`TournamentReport`]: the generalization matrix the paper never measured,
//! and the one place in the workspace a controller is driven against a
//! scenario — the paper's comparison figures and `noc-cli evaluate` are
//! matrices too.

use crate::action::ActionSpace;
use crate::controller::{ControlDecision, Controller, StaticController, ThresholdController};
use crate::env::NocEnvConfig;
use crate::par::parallel_map;
use crate::reward::RewardConfig;
use crate::serve::cache::fnv1a128_hex;
use crate::state::StateEncoder;
use crate::sweep::{mix_seed, seeded_link_faults};
use crate::training::{run_controller, train_drl, train_tabular, RunAggregate, TrainedPolicy};
use noc_sim::{SimConfig, SimError, TopologyKind, TrafficPattern, WindowMetrics, WorkloadSpec};
use rl::{DqnAgent, DqnConfig, EpisodeStats, TabularConfig, TabularQ, TrainConfig};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::fs;
use std::path::Path;

/// Version of the artifact, manifest, and tournament-report schemas.
pub const ZOO_SCHEMA_VERSION: u32 = 1;

/// Result alias for zoo operations.
pub type ZooResult<T> = Result<T, ZooError>;

/// Structured errors of the zoo layer.
#[derive(Debug)]
pub enum ZooError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: String,
        /// The OS error.
        message: String,
    },
    /// JSON did not match the artifact shape, or a spec string was
    /// malformed.
    Parse {
        /// What was being parsed.
        context: String,
        /// Why it failed.
        message: String,
    },
    /// The artifact carries a schema version this build does not support.
    SchemaVersion {
        /// The version found in the artifact.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The policy's dimensions do not match its encoder/action space (or
    /// the fabric it is being deployed against).
    Incompatible {
        /// The policy's name (or `"artifact"` when unnamed).
        policy: String,
        /// The mismatched dimension.
        field: &'static str,
        /// The value the deployment target expects.
        expected: usize,
        /// The value the policy carries.
        found: usize,
    },
    /// Training or evaluation failed inside the simulator.
    Sim(SimError),
}

impl fmt::Display for ZooError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ZooError::Io { path, message } => write!(f, "zoo io error at `{path}`: {message}"),
            ZooError::Parse { context, message } => write!(f, "cannot parse {context}: {message}"),
            ZooError::SchemaVersion { found, supported } => write!(
                f,
                "unsupported policy artifact schema version {found} (this build supports \
                 {supported})"
            ),
            ZooError::Incompatible {
                policy,
                field,
                expected,
                found,
            } => write!(
                f,
                "policy `{policy}` is incompatible: {field} is {found} but the target expects \
                 {expected}; retrain with `noc-cli train` (or `train-grid`) against the current \
                 fabric"
            ),
            ZooError::Sim(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ZooError {}

impl ZooError {
    /// The `map_err` closure that files an OS error under `path`.
    fn io(path: &Path) -> impl FnOnce(std::io::Error) -> ZooError + '_ {
        move |e| ZooError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        }
    }
}

impl From<SimError> for ZooError {
    fn from(e: SimError) -> Self {
        ZooError::Sim(e)
    }
}

/// The serialized policy itself: what kind of function approximator the
/// artifact holds, and its weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PolicyKind {
    /// A trained DQN: hyper-parameters plus the serialized online network.
    Dqn {
        /// The DQN configuration the agent was built with.
        dqn: DqnConfig,
        /// The serialized online network (JSON, [`DqnAgent::policy_to_json`]).
        policy_json: String,
    },
    /// A trained tabular Q-learning baseline (table included; entries are
    /// serialized in sorted key order, so the artifact is deterministic).
    Tabular {
        /// The trained agent.
        agent: TabularQ,
    },
}

/// Where a policy came from: the exact configuration that trained it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrainProvenance {
    /// The training environment.
    pub env: NocEnvConfig,
    /// The training budget and exploration schedule.
    pub train: TrainConfig,
    /// The master seed of the run.
    pub seed: u64,
}

/// One trained policy, in the single versioned on-disk format every
/// train/evaluate/bench path shares.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyArtifact {
    /// Schema version ([`ZOO_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The policy itself.
    pub kind: PolicyKind,
    /// The state encoder used in training (reuse it at deployment).
    pub encoder: StateEncoder,
    /// The action space used in training.
    pub action_space: ActionSpace,
    /// Training provenance; `None` for artifacts assembled by hand rather
    /// than by a training run.
    #[serde(default)]
    pub provenance: Option<TrainProvenance>,
    /// Per-episode learning curve.
    #[serde(default)]
    pub curve: Vec<EpisodeStats>,
    /// Content hash of the configuration that trained this policy
    /// ([`Learner::config_hash`]); empty when there is no provenance, which
    /// any config-hash-keyed cache treats as a miss.
    #[serde(default)]
    pub config_hash: String,
}

/// The learner a policy is trained with: the one place a learned kind
/// maps to its trainer and its configuration hash.
#[derive(Debug, Clone)]
pub enum Learner {
    /// A DQN with these hyper-parameters.
    Dqn(DqnConfig),
    /// The tabular Q-learning baseline.
    Tabular(TabularConfig),
}

impl Learner {
    /// Short name of the policy kind this learner trains: `"dqn"` or
    /// `"tabular"` (the artifact's [`PolicyArtifact::kind_name`]).
    pub fn kind_name(&self) -> &'static str {
        match self {
            Learner::Dqn(_) => "dqn",
            Learner::Tabular(_) => "tabular",
        }
    }

    /// Content hash of a training configuration: environment, learner
    /// hyper-parameters, and training budget, under the zoo schema version.
    ///
    /// `state_dim`/`num_actions` are normalized out of the learner config
    /// before hashing — they are derived from the environment (which is
    /// hashed), so the hash of a config written *before* training equals
    /// the hash stored in the artifact *after* training overwrote the
    /// dimensions.
    pub fn config_hash(&self, env: &NocEnvConfig, train: &TrainConfig) -> String {
        let learner_json = match self {
            Learner::Dqn(dqn) => serde_json::to_string(&dqn.clone().with_dims(0, 0)),
            Learner::Tabular(tab) => serde_json::to_string(&TabularConfig {
                state_dim: 0,
                num_actions: 0,
                ..tab.clone()
            }),
        }
        .expect("learner config serializes");
        let env_json = serde_json::to_string(env).expect("env config serializes");
        let train_json = serde_json::to_string(train).expect("train config serializes");
        let kind = self.kind_name();
        fnv1a128_hex(
            format!(
                "zoo-v{ZOO_SCHEMA_VERSION}\nkind={kind}\n{env_json}\n{learner_json}\n{train_json}"
            )
            .as_bytes(),
        )
    }

    /// Train a policy on `env` and capture it as an artifact with full
    /// provenance.
    ///
    /// # Errors
    /// [`ZooError::Sim`] on an invalid environment, [`ZooError::Parse`] if
    /// the DQN weights fail to serialize.
    pub fn train(self, env: NocEnvConfig, train: TrainConfig) -> ZooResult<PolicyArtifact> {
        match self {
            Learner::Dqn(dqn) => {
                let policy = train_drl(env.clone(), dqn, train.clone())?;
                PolicyArtifact::from_dqn(&policy, env, train)
            }
            Learner::Tabular(tab) => {
                let policy = train_tabular(env.clone(), tab, train.clone())?;
                Ok(PolicyArtifact::from_tabular(&policy, env, train))
            }
        }
    }
}

impl PolicyArtifact {
    /// Capture a freshly trained DQN policy with full provenance.
    ///
    /// # Errors
    /// Returns [`ZooError::Parse`] if the network weights fail to serialize.
    pub fn from_dqn(
        policy: &TrainedPolicy,
        env: NocEnvConfig,
        train: TrainConfig,
    ) -> ZooResult<Self> {
        let policy_json = policy.agent.policy_to_json().map_err(|e| ZooError::Parse {
            context: "DQN weights".into(),
            message: e.to_string(),
        })?;
        let dqn = policy.agent.config().clone();
        let kind = PolicyKind::Dqn { dqn, policy_json };
        Ok(Self::capture(kind, policy, env, train))
    }

    /// Capture a freshly trained tabular policy with full provenance.
    pub fn from_tabular(
        policy: &TrainedPolicy<TabularQ>,
        env: NocEnvConfig,
        train: TrainConfig,
    ) -> Self {
        let agent = policy.agent.clone();
        Self::capture(PolicyKind::Tabular { agent }, policy, env, train)
    }

    /// The one capture body: the serialized policy, what deploying it
    /// needs, and the provenance and config hash of its training run.
    fn capture<A>(
        kind: PolicyKind,
        policy: &TrainedPolicy<A>,
        env: NocEnvConfig,
        train: TrainConfig,
    ) -> Self {
        let learner = match &kind {
            PolicyKind::Dqn { dqn, .. } => Learner::Dqn(dqn.clone()),
            PolicyKind::Tabular { agent } => Learner::Tabular(agent.config().clone()),
        };
        let config_hash = learner.config_hash(&env, &train);
        let seed = train.seed;
        PolicyArtifact {
            schema_version: ZOO_SCHEMA_VERSION,
            kind,
            encoder: policy.encoder.clone(),
            action_space: policy.action_space.clone(),
            provenance: Some(TrainProvenance { env, train, seed }),
            curve: policy.curve.clone(),
            config_hash,
        }
    }

    /// Short name of the policy kind: `"dqn"` or `"tabular"`.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            PolicyKind::Dqn { .. } => "dqn",
            PolicyKind::Tabular { .. } => "tabular",
        }
    }

    /// Parse an artifact from JSON. Only the versioned shape is accepted: a
    /// document without `schema_version` (the pre-zoo `SavedPolicy` /
    /// `TabularArtifact` files) is a parse error, and a version this build
    /// does not support is rejected by [`PolicyArtifact::validate`].
    ///
    /// This only parses; call [`PolicyArtifact::validate`] (or use
    /// [`PolicyArtifact::load`], which does both) before deploying.
    ///
    /// # Errors
    /// Returns [`ZooError::Parse`] if the JSON is not a versioned artifact.
    pub fn parse(json: &str) -> ZooResult<Self> {
        serde_json::from_str(json).map_err(|e| ZooError::Parse {
            context: "policy artifact".into(),
            message: e.to_string(),
        })
    }

    /// Check the artifact is deployable: supported schema version, and the
    /// policy's dimensions match the stored encoder and action space. Every
    /// load path runs this.
    ///
    /// # Errors
    /// [`ZooError::SchemaVersion`] or [`ZooError::Incompatible`].
    pub fn validate(&self) -> ZooResult<()> {
        if self.schema_version != ZOO_SCHEMA_VERSION {
            return Err(ZooError::SchemaVersion {
                found: self.schema_version,
                supported: ZOO_SCHEMA_VERSION,
            });
        }
        let (state_dim, num_actions) = match &self.kind {
            PolicyKind::Dqn { dqn, .. } => (dqn.state_dim, dqn.num_actions),
            PolicyKind::Tabular { agent } => (agent.config().state_dim, agent.config().num_actions),
        };
        if state_dim != self.encoder.state_dim() {
            return Err(ZooError::Incompatible {
                policy: "artifact".into(),
                field: "state_dim",
                expected: self.encoder.state_dim(),
                found: state_dim,
            });
        }
        if num_actions != self.action_space.num_actions() {
            return Err(ZooError::Incompatible {
                policy: "artifact".into(),
                field: "num_actions",
                expected: self.action_space.num_actions(),
                found: num_actions,
            });
        }
        Ok(())
    }

    /// Serialize to the canonical (pretty, field-ordered) JSON form. The
    /// output is a pure function of the artifact's contents — the byte-level
    /// determinism `train_grid` promises rests on this.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("artifact serializes")
    }

    /// Write the artifact to `path` (creating parent directories).
    ///
    /// # Errors
    /// Returns [`ZooError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> ZooResult<()> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent).map_err(ZooError::io(parent))?;
            }
        }
        fs::write(path, self.to_json()).map_err(ZooError::io(path))
    }

    /// Load an artifact from `path`: read, parse, and validate. This is the single entry point every consumer (CLI
    /// evaluate, bench policy cache, tournament) goes through.
    ///
    /// # Errors
    /// [`ZooError::Io`], [`ZooError::Parse`], [`ZooError::SchemaVersion`],
    /// or [`ZooError::Incompatible`].
    pub fn load(path: &Path) -> ZooResult<Self> {
        let text = fs::read_to_string(path).map_err(ZooError::io(path))?;
        let artifact = Self::parse(&text).map_err(|e| match e {
            ZooError::Parse { context, message } => ZooError::Parse {
                context: format!("{context} at `{}`", path.display()),
                message,
            },
            other => other,
        })?;
        artifact.validate()?;
        Ok(artifact)
    }

    /// Rebuild a deployable controller of whatever kind the artifact holds:
    /// the one way a learned policy is deployed.
    ///
    /// # Errors
    /// Validation errors (see [`PolicyArtifact::validate`]), or
    /// [`ZooError::Parse`] if stored DQN weights fail to deserialize.
    pub fn controller(&self) -> ZooResult<Box<dyn Controller>> {
        self.validate()?;
        let agent = match &self.kind {
            PolicyKind::Dqn { dqn, policy_json } => {
                let mut agent = DqnAgent::new(dqn.clone());
                agent
                    .policy_from_json(policy_json)
                    .map_err(|e| ZooError::Parse {
                        context: "stored DQN weights".into(),
                        message: e.to_string(),
                    })?;
                LiveAgent::Dqn(Box::new(agent))
            }
            PolicyKind::Tabular { agent } => LiveAgent::Tabular(agent.clone()),
        };
        Ok(Box::new(PolicyController {
            agent,
            encoder: self.encoder.clone(),
            action_space: self.action_space.clone(),
        }))
    }
}

/// The live agent a [`PolicyKind`] deploys as.
#[derive(Debug)]
enum LiveAgent {
    Dqn(Box<DqnAgent>),
    Tabular(TabularQ),
}

/// The controller every learned policy deploys as: it encodes telemetry
/// with the artifact's [`StateEncoder`], queries the agent greedily, and
/// translates the action through the artifact's [`ActionSpace`].
#[derive(Debug)]
struct PolicyController {
    agent: LiveAgent,
    encoder: StateEncoder,
    action_space: ActionSpace,
}

impl Controller for PolicyController {
    fn name(&self) -> &str {
        match self.agent {
            LiveAgent::Dqn(_) => "drl",
            LiveAgent::Tabular(_) => "tabular-q",
        }
    }

    fn decide(
        &mut self,
        metrics: &WindowMetrics,
        levels: &[usize],
        _num_levels: usize,
    ) -> ControlDecision {
        let state = self.encoder.encode(metrics, levels);
        let action = match &self.agent {
            LiveAgent::Dqn(agent) => agent.greedy_action(&state),
            LiveAgent::Tabular(agent) => agent.greedy_action(&state),
        };
        ControlDecision {
            levels: self.action_space.levels_after(action, levels),
            routing: self.action_space.routing_after(action),
        }
    }
}

/// A scenario family: one (topology, workload, fault level) cell of the
/// training/evaluation axes. Parsed from the spec grammar
/// `<topology>/<pattern>/r<rate>[/f<n>]` or `<topology>/ph[…][/f<n>]`
/// (the same pattern/workload vocabulary as `sweep-grid`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioFamily {
    /// Canonical name: `<topology>/<workload label>/f<n>`.
    pub name: String,
    /// Fabric topology.
    pub topology: TopologyKind,
    /// Traffic workload (canonical workload grammar).
    pub workload: WorkloadSpec,
    /// Number of random link faults (0 = healthy fabric).
    pub faults: usize,
}

impl ScenarioFamily {
    /// A family from its parts, under the canonical name [`Self::parse`]
    /// round-trips.
    pub fn new(topology: TopologyKind, workload: WorkloadSpec, faults: usize) -> Self {
        ScenarioFamily {
            name: format!("{}/{workload}/f{faults}", topology.name()),
            topology,
            workload,
            faults,
        }
    }

    /// Parse a family spec (see the type docs for the grammar).
    ///
    /// # Errors
    /// Returns [`ZooError::Parse`] describing the malformed segment.
    pub fn parse(spec: &str) -> ZooResult<Self> {
        let err = |message: String| ZooError::Parse {
            context: format!("scenario family `{spec}`"),
            message,
        };
        let tokens: Vec<&str> = spec.split('/').collect();
        if tokens.len() < 2 {
            return Err(err(
                "expected <topology>/<pattern>/r<rate>[/fN] or <topology>/ph[...][/fN]".into(),
            ));
        }
        let topology = TopologyKind::parse(tokens[0]).map_err(|e| err(e.to_string()))?;
        let mut rest = &tokens[1..];
        let mut faults = 0usize;
        if rest.len() > 1 {
            if let Some(n) = rest
                .last()
                .and_then(|t| t.strip_prefix('f'))
                .and_then(|s| s.parse::<usize>().ok())
            {
                faults = n;
                rest = &rest[..rest.len() - 1];
            }
        }
        let workload = match rest {
            [label] if label.starts_with("ph[") => {
                WorkloadSpec::parse(label).map_err(|e| err(e.to_string()))?
            }
            [pattern, rate] if rate.starts_with('r') => {
                let pattern = TrafficPattern::parse(pattern).map_err(|e| err(e.to_string()))?;
                let rate: f64 = rate[1..]
                    .parse()
                    .map_err(|e| err(format!("bad rate `{}`: {e}", &rate[1..])))?;
                WorkloadSpec::bernoulli(pattern, rate)
            }
            _ => {
                return Err(err(
                    "expected <pattern>/r<rate> or a ph[...] workload label after the topology"
                        .into(),
                ))
            }
        };
        // The short form is range-checked here like a `ph[…]` label, not
        // when a member's simulator is first built.
        workload.shape_check().map_err(|e| err(e.to_string()))?;
        Ok(ScenarioFamily::new(topology, workload, faults))
    }

    /// Instantiate the family on a base simulator configuration: topology,
    /// workload, and seed applied; routing coerced to a topology-legal
    /// algorithm; faults drawn off the scenario seed by the sweep engine's
    /// [`seeded_link_faults`].
    pub fn apply(&self, base: &SimConfig, seed: u64) -> SimConfig {
        let mut config = base
            .clone()
            .with_topology(self.topology)
            .with_workload(self.workload.clone())
            .with_seed(seed);
        config.routing = config.routing.for_topology(self.topology);
        let plan = seeded_link_faults(&config, self.faults);
        config.with_faults(plan)
    }
}

/// A named DQN hyper-parameter variant of the population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DqnVariant {
    /// Catalog name.
    pub name: String,
    /// The hyper-parameters (dimensions are overwritten per environment).
    pub dqn: DqnConfig,
}

type DqnTweak = fn(&mut DqnConfig);

/// The built-in DQN variants, each name beside its change to
/// [`DqnConfig::default`].
pub const DQN_VARIANTS: [(&str, DqnTweak); 6] = [
    ("default", |_| {}),
    ("small", |c| c.hidden = vec![32]),
    ("wide", |c| c.hidden = vec![128, 64]),
    ("deep", |c| c.hidden = vec![64, 64, 64]),
    ("nstep3", |c| c.n_step = 3),
    ("single", |c| c.double = false),
];

/// Look up a built-in DQN variant by name ([`DQN_VARIANTS`]).
///
/// # Errors
/// The unknown-name error, listing every variant.
pub fn dqn_variant(name: &str) -> noc_sim::SimResult<DqnVariant> {
    let tweak = noc_sim::names::lookup("DQN variant", &DQN_VARIANTS, name)?;
    let mut dqn = DqnConfig::default();
    tweak(&mut dqn);
    let name = name.to_string();
    Ok(DqnVariant { name, dqn })
}

/// A population-training grid: DQN variants × scenario families, trained
/// member-by-member with SplitMix64 per-member seeds off `base_seed` —
/// byte-identical artifacts at every thread count, same contract as the
/// sweep engine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZooGrid {
    /// Base simulator configuration every family starts from.
    pub base: SimConfig,
    /// The population's DQN hyper-parameter variants.
    pub variants: Vec<DqnVariant>,
    /// The training scenario families.
    pub families: Vec<ScenarioFamily>,
    /// Training budget (its `seed` is overwritten per member).
    pub train: TrainConfig,
    /// Cycles per control epoch of the training environment.
    pub epoch_cycles: u64,
    /// Control epochs per training episode.
    pub epochs_per_episode: usize,
    /// Master seed; member seeds are `mix_seed(base_seed, index)`.
    pub base_seed: u64,
}

/// One member of a [`ZooGrid`] population (variant-major order).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZooMember {
    /// Grid index (variant-major, family-fastest).
    pub index: usize,
    /// Unique member name: `<variant>__<sanitized family>`.
    pub name: String,
    /// Variant name.
    pub variant: String,
    /// Canonical family name.
    pub family: String,
    /// The member's SplitMix64 seed.
    pub seed: u64,
}

/// Make a member/family name safe for a filename (slashes, brackets, and
/// other separators become `-`; the result is deterministic).
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

impl ZooGrid {
    /// Number of members (variants × families).
    pub fn len(&self) -> usize {
        self.variants.len() * self.families.len()
    }

    /// Whether the grid is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expand the population in deterministic variant-major order, with
    /// each member's seed fixed by its index.
    pub fn members(&self) -> Vec<ZooMember> {
        let mut out = Vec::with_capacity(self.len());
        let mut index = 0usize;
        for variant in &self.variants {
            for family in &self.families {
                out.push(ZooMember {
                    index,
                    name: format!("{}__{}", variant.name, sanitize_name(&family.name)),
                    variant: variant.name.clone(),
                    family: family.name.clone(),
                    seed: mix_seed(self.base_seed, index as u64),
                });
                index += 1;
            }
        }
        out
    }
}

/// Train one member of the population. The member's seed drives the
/// environment, the agent initialization, and the exploration schedule, so
/// the resulting artifact is a pure function of (grid, index).
///
/// # Errors
/// Returns [`ZooError::Parse`] for an out-of-range index, or training
/// errors.
pub fn train_member(grid: &ZooGrid, index: usize) -> ZooResult<PolicyArtifact> {
    if index >= grid.len() {
        return Err(ZooError::Parse {
            context: "zoo grid member".into(),
            message: format!(
                "index {index} out of range (grid has {} members)",
                grid.len()
            ),
        });
    }
    let nf = grid.families.len();
    let variant = &grid.variants[index / nf];
    let family = &grid.families[index % nf];
    let seed = mix_seed(grid.base_seed, index as u64);
    let sim = family.apply(&grid.base, seed);
    let mut env = NocEnvConfig::for_sim(sim, seed);
    env.epoch_cycles = grid.epoch_cycles;
    env.epochs_per_episode = grid.epochs_per_episode;
    let mut dqn = variant.dqn.clone();
    dqn.seed = seed;
    let mut train = grid.train.clone();
    train.seed = seed;
    Learner::Dqn(dqn).train(env, train)
}

/// The zoo directory's index: every member, its file, and its config hash,
/// in grid order. Written as `manifest.json` next to the artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZooManifest {
    /// Schema version ([`ZOO_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The grid's master seed.
    pub base_seed: u64,
    /// Members in grid order.
    pub members: Vec<ZooManifestEntry>,
}

/// One [`ZooManifest`] row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ZooManifestEntry {
    /// Member name.
    pub name: String,
    /// Artifact filename (relative to the zoo directory).
    pub file: String,
    /// Variant name.
    pub variant: String,
    /// Canonical family name.
    pub family: String,
    /// The member's seed.
    pub seed: u64,
    /// The artifact's config hash.
    pub config_hash: String,
}

/// Train the whole population on `threads` OS threads and write one
/// artifact per member (plus `manifest.json`) into `out_dir`.
///
/// Artifacts and manifest are byte-identical for every `threads` value and
/// across reruns: members are trained into index slots via the shared
/// worker pool and written in grid order.
///
/// # Errors
/// Returns the first (in grid order) member's training error, or an
/// [`ZooError::Io`] on filesystem failure.
pub fn train_grid(grid: &ZooGrid, out_dir: &Path, threads: usize) -> ZooResult<ZooManifest> {
    let members = grid.members();
    if members.is_empty() {
        return Err(ZooError::Parse {
            context: "zoo grid".into(),
            message: "empty population: need at least one variant and one family".into(),
        });
    }
    let mut names: Vec<&str> = members.iter().map(|m| m.name.as_str()).collect();
    names.sort_unstable();
    names.dedup();
    if names.len() != members.len() {
        return Err(ZooError::Parse {
            context: "zoo grid".into(),
            message: "duplicate member names (repeated variant or family)".into(),
        });
    }
    let trained = parallel_map(members.len(), threads, |i| {
        train_member(grid, i).map(|a| (a.to_json(), a.config_hash.clone()))
    });
    fs::create_dir_all(out_dir).map_err(ZooError::io(out_dir))?;
    let mut entries = Vec::with_capacity(members.len());
    for (member, result) in members.into_iter().zip(trained) {
        let (json, config_hash) = result?;
        let file = format!("{}.json", member.name);
        let path = out_dir.join(&file);
        fs::write(&path, json).map_err(ZooError::io(&path))?;
        entries.push(ZooManifestEntry {
            name: member.name,
            file,
            variant: member.variant,
            family: member.family,
            seed: member.seed,
            config_hash,
        });
    }
    let manifest = ZooManifest {
        schema_version: ZOO_SCHEMA_VERSION,
        base_seed: grid.base_seed,
        members: entries,
    };
    let manifest_path = out_dir.join("manifest.json");
    fs::write(
        &manifest_path,
        serde_json::to_string_pretty(&manifest).expect("manifest serializes"),
    )
    .map_err(ZooError::io(&manifest_path))?;
    Ok(manifest)
}

/// Load every policy in a zoo directory, in deterministic order: manifest
/// order when `manifest.json` exists (a `train_grid` output), else sorted
/// filename order over `*.json`. Every artifact is validated on load.
///
/// # Errors
/// I/O, parse, or validation errors; an empty directory is an error.
pub fn load_zoo(dir: &Path) -> ZooResult<Vec<(String, PolicyArtifact)>> {
    let manifest_path = dir.join("manifest.json");
    let mut out = Vec::new();
    if manifest_path.exists() {
        let text = fs::read_to_string(&manifest_path).map_err(ZooError::io(&manifest_path))?;
        let manifest: ZooManifest = serde_json::from_str(&text).map_err(|e| ZooError::Parse {
            context: format!("zoo manifest at `{}`", manifest_path.display()),
            message: e.to_string(),
        })?;
        if manifest.schema_version != ZOO_SCHEMA_VERSION {
            return Err(ZooError::SchemaVersion {
                found: manifest.schema_version,
                supported: ZOO_SCHEMA_VERSION,
            });
        }
        for entry in &manifest.members {
            out.push((
                entry.name.clone(),
                PolicyArtifact::load(&dir.join(&entry.file))?,
            ));
        }
    } else {
        let read = fs::read_dir(dir).map_err(ZooError::io(dir))?;
        let mut files: Vec<String> = Vec::new();
        for dirent in read {
            let dirent = dirent.map_err(ZooError::io(dir))?;
            let name = dirent.file_name().to_string_lossy().into_owned();
            if name.ends_with(".json") && name != "manifest.json" {
                files.push(name);
            }
        }
        files.sort_unstable();
        for file in files {
            let name = file.trim_end_matches(".json").to_string();
            out.push((name, PolicyArtifact::load(&dir.join(&file))?));
        }
    }
    if out.is_empty() {
        return Err(ZooError::Parse {
            context: format!("zoo directory `{}`", dir.display()),
            message: "no policy artifacts found".into(),
        });
    }
    Ok(out)
}

/// The default tournament axes: mesh/torus × Bernoulli-uniform/bursty ×
/// healthy/2-fault — 2 topologies × 2 workloads × 2 fault levels.
pub fn default_tournament_families() -> Vec<ScenarioFamily> {
    let mut out = Vec::new();
    for (topology, _) in TopologyKind::NAMED {
        for traffic in ["uniform/r0.1", "ph[uniform:burst0.3x0.05]"] {
            for faults in [0usize, 2] {
                out.push(
                    ScenarioFamily::parse(&format!("{topology}/{traffic}/f{faults}"))
                        .expect("built-in family specs parse"),
                );
            }
        }
    }
    out
}

/// Configuration of a tournament: which scenario families every entrant is
/// scored against, and the shared evaluation budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TournamentConfig {
    /// Base simulator configuration (fabric size, regions, VF table).
    pub base: SimConfig,
    /// The evaluation axes.
    pub families: Vec<ScenarioFamily>,
    /// Control epochs per cell.
    pub epochs: usize,
    /// Cycles per control epoch.
    pub epoch_cycles: u64,
    /// Reward used for scoring (shared across policies, so scores are
    /// comparable even when policies trained under different rewards).
    pub reward: RewardConfig,
    /// Master seed; every cell of family column `f` runs on
    /// `mix_seed(base_seed, f)`, so a column compares its entrants on the
    /// identical simulation (traffic stream and fault set).
    pub base_seed: u64,
}

impl Default for TournamentConfig {
    fn default() -> Self {
        TournamentConfig {
            base: SimConfig::default(),
            families: default_tournament_families(),
            epochs: 12,
            epoch_cycles: 500,
            reward: RewardConfig::default(),
            base_seed: 0x70A2,
        }
    }
}

/// One cell of the generalization matrix: one entrant on one family.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TournamentCell {
    /// Policy name.
    pub policy: String,
    /// Canonical family name.
    pub family: String,
    /// The cell's simulation seed (shared by the whole family column).
    pub seed: u64,
    /// Mean per-epoch reward under the tournament's reward config.
    pub score: f64,
    /// Aggregate run metrics (latency, energy, throughput, mean level).
    pub aggregate: RunAggregate,
}

/// The best policy of one family column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FamilyBest {
    /// Canonical family name.
    pub family: String,
    /// The winning policy.
    pub policy: String,
    /// Its score on this family.
    pub score: f64,
}

/// One policy's mean score across every family (the generalization
/// summary).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PolicyMeanScore {
    /// Policy name.
    pub policy: String,
    /// Mean score over all families.
    pub mean_score: f64,
}

/// The tournament generalization matrix: every entrant × every family, with
/// per-family winners and per-entrant means. Deterministic: cell seeds are
/// fixed by family column, cells are computed into index slots, and nothing
/// in the report depends on the thread count.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TournamentReport {
    /// Schema version ([`ZOO_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// The tournament configuration (axes, budget, seed).
    pub config: TournamentConfig,
    /// Entrant names, row order.
    pub policies: Vec<String>,
    /// Cells in row-major (policy-major, family-fastest) order.
    pub cells: Vec<TournamentCell>,
    /// Per-family winners.
    pub best_by_family: Vec<FamilyBest>,
    /// Per-policy mean scores.
    pub mean_score_by_policy: Vec<PolicyMeanScore>,
}

/// One row of the tournament matrix: a trained policy, or one of the
/// built-in baselines — which carry no weights and are built per cell from
/// the cell's [`SimConfig`].
#[derive(Debug, Clone)]
pub enum Entrant {
    /// A trained policy (boxed: the baselines are zero-sized).
    Policy(Box<PolicyArtifact>),
    /// `static-max`: every region pinned at the fastest level.
    StaticMax,
    /// `static-min`: every region pinned at the slowest level.
    StaticMin,
    /// `threshold`: the reactive occupancy heuristic.
    Threshold,
}

impl From<PolicyArtifact> for Entrant {
    fn from(artifact: PolicyArtifact) -> Self {
        Entrant::Policy(Box::new(artifact))
    }
}

impl Entrant {
    /// The three built-in baselines under their canonical names, in the
    /// order every comparison lists them.
    pub fn baselines() -> Vec<(String, Entrant)> {
        vec![
            ("static-max".into(), Entrant::StaticMax),
            ("static-min".into(), Entrant::StaticMin),
            ("threshold".into(), Entrant::Threshold),
        ]
    }

    /// Build a fresh controller for one run on `sim`.
    ///
    /// # Errors
    /// As [`PolicyArtifact::controller`] for policies; `sim`'s
    /// configuration error for the threshold baseline, which sizes itself
    /// from the fabric.
    pub fn controller(&self, sim: &SimConfig) -> ZooResult<Box<dyn Controller>> {
        Ok(match self {
            Entrant::Policy(artifact) => artifact.controller()?,
            Entrant::StaticMax => Box::new(StaticController::max()),
            Entrant::StaticMin => Box::new(StaticController::min()),
            Entrant::Threshold => Box::new(ThresholdController::for_sim(sim)?),
        })
    }
}

/// Score every entrant against every scenario family on `threads` OS
/// threads. The report is byte-identical for every `threads` value.
///
/// Every policy entrant is validated, and its observation dimension checked
/// against the tournament fabric, before any cell runs — a policy trained
/// on a different region grid fails fast with a structured error naming it.
/// Baselines observe nothing fabric-specific and need no such check.
///
/// # Errors
/// Validation/compatibility errors, or the first (in cell order)
/// simulation error.
pub fn tournament_matrix(
    entrants: &[(String, Entrant)],
    config: &TournamentConfig,
    threads: usize,
) -> ZooResult<TournamentReport> {
    if entrants.is_empty() {
        return Err(ZooError::Parse {
            context: "tournament".into(),
            message: "no entrants to score".into(),
        });
    }
    if config.families.is_empty() {
        return Err(ZooError::Parse {
            context: "tournament".into(),
            message: "no scenario families to score against".into(),
        });
    }
    // The observation layout depends only on the base fabric's region grid
    // (families vary topology/workload/faults, never regions), so the base
    // fabric's encoder yields the expected dimensions for every cell.
    let expected_dim = StateEncoder::for_sim(&config.base)?.state_dim();
    for (name, entrant) in entrants {
        let Entrant::Policy(artifact) = entrant else {
            continue;
        };
        artifact.validate().map_err(|e| match e {
            ZooError::Incompatible {
                field,
                expected,
                found,
                ..
            } => ZooError::Incompatible {
                policy: name.clone(),
                field,
                expected,
                found,
            },
            other => other,
        })?;
        if artifact.encoder.state_dim() != expected_dim {
            return Err(ZooError::Incompatible {
                policy: name.clone(),
                field: "state_dim",
                expected: expected_dim,
                found: artifact.encoder.state_dim(),
            });
        }
    }
    let nf = config.families.len();
    let n = entrants.len() * nf;
    let cells: ZooResult<Vec<TournamentCell>> = parallel_map(n, threads, |index| {
        let (p, f) = (index / nf, index % nf);
        let family = &config.families[f];
        let seed = mix_seed(config.base_seed, f as u64);
        let sim = family.apply(&config.base, seed);
        let mut controller = entrants[p].1.controller(&sim)?;
        let run = run_controller(
            &sim,
            controller.as_mut(),
            config.epochs,
            config.epoch_cycles,
        )?;
        let nodes = sim.width * sim.height;
        let score = if run.epochs.is_empty() {
            0.0
        } else {
            run.epochs
                .iter()
                .map(|m| config.reward.compute(m, nodes))
                .sum::<f64>()
                / run.epochs.len() as f64
        };
        Ok(TournamentCell {
            policy: entrants[p].0.clone(),
            family: family.name.clone(),
            seed,
            score,
            aggregate: run.aggregate,
        })
    })
    .into_iter()
    .collect();
    let cells = cells?;
    let mut best_by_family = Vec::with_capacity(nf);
    for (f, family) in config.families.iter().enumerate() {
        let mut best: Option<&TournamentCell> = None;
        for p in 0..entrants.len() {
            let cell = &cells[p * nf + f];
            let better = match best {
                None => true,
                Some(b) => cell.score > b.score,
            };
            if better {
                best = Some(cell);
            }
        }
        let best = best.expect("at least one entrant");
        best_by_family.push(FamilyBest {
            family: family.name.clone(),
            policy: best.policy.clone(),
            score: best.score,
        });
    }
    let mean_score_by_policy = entrants
        .iter()
        .enumerate()
        .map(|(p, (name, _))| PolicyMeanScore {
            policy: name.clone(),
            mean_score: cells[p * nf..(p + 1) * nf]
                .iter()
                .map(|c| c.score)
                .sum::<f64>()
                / nf as f64,
        })
        .collect();
    Ok(TournamentReport {
        schema_version: ZOO_SCHEMA_VERSION,
        config: config.clone(),
        policies: entrants.iter().map(|(n, _)| n.clone()).collect(),
        cells,
        best_by_family,
        mean_score_by_policy,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_hash_is_stable_and_sensitive() {
        let env = NocEnvConfig::for_sim(SimConfig::default().with_size(4, 4).with_regions(2, 2), 3);
        let dqn = DqnConfig::default();
        let train = TrainConfig::default();
        let hash = |env, dqn: &DqnConfig, train| Learner::Dqn(dqn.clone()).config_hash(env, train);
        let h = hash(&env, &dqn, &train);
        assert_eq!(h.len(), 32, "two 64-bit hex words");
        assert_eq!(h, hash(&env, &dqn, &train), "deterministic");
        // Dimension normalization: a pre-training config (dims unset)
        // hashes the same as the post-training one (dims overwritten).
        let mut with_dims = dqn.clone();
        with_dims.state_dim = 17;
        with_dims.num_actions = 11;
        assert_eq!(h, hash(&env, &with_dims, &train));
        // Every real axis moves the hash.
        let mut env2 = env.clone();
        env2.epoch_cycles += 1;
        assert_ne!(h, hash(&env2, &dqn, &train));
        let dqn2 = DqnConfig {
            gamma: 0.9,
            ..dqn.clone()
        };
        assert_ne!(h, hash(&env, &dqn2, &train));
        let mut train2 = train.clone();
        train2.episodes += 1;
        assert_ne!(h, hash(&env, &dqn, &train2));
        // The tabular hash of the same env/train never collides with the
        // DQN hash (kind is part of the hashed text).
        assert_ne!(
            h,
            Learner::Tabular(TabularConfig::default()).config_hash(&env, &train)
        );
    }

    #[test]
    fn family_specs_parse_and_canonicalize() {
        let f = ScenarioFamily::parse("mesh/uniform/r0.1").unwrap();
        assert_eq!(f.topology, TopologyKind::Mesh);
        assert_eq!(f.faults, 0);
        assert_eq!(f.name, "mesh/ph[uniform:bern0.1]/f0");
        let f = ScenarioFamily::parse("torus/transpose/r0.05/f2").unwrap();
        assert_eq!(f.topology, TopologyKind::Torus);
        assert_eq!(f.faults, 2);
        let f = ScenarioFamily::parse("torus/ph[uniform:burst0.3x0.05]/f1").unwrap();
        assert_eq!(f.faults, 1);
        assert_eq!(f.name, "torus/ph[uniform:burst0.3x0.05]/f1");
        // The canonical name re-parses to the same family.
        let again = ScenarioFamily::parse(&f.name).unwrap();
        assert_eq!(f, again);
        assert!(ScenarioFamily::parse("ring/uniform/r0.1").is_err());
        assert!(ScenarioFamily::parse("mesh").is_err());
        assert!(ScenarioFamily::parse("mesh/uniform/q0.1").is_err());
        // The short form is range-checked at parse, like `ph[uniform:bern1.5]`.
        for rate in ["r1.5", "rNaN", "r-0.2"] {
            let err = ScenarioFamily::parse(&format!("mesh/uniform/{rate}")).unwrap_err();
            assert!(err.to_string().contains("outside [0, 1]"), "{err}");
        }
    }

    #[test]
    fn family_apply_sets_topology_routing_faults_seed() {
        let family = ScenarioFamily::parse("torus/uniform/r0.1/f2").unwrap();
        let sim = family.apply(&SimConfig::default(), 99);
        assert_eq!(sim.kind, TopologyKind::Torus);
        assert_eq!(sim.seed, 99);
        assert_eq!(sim.fault_plan.events().len(), 2);
        // Routing was coerced to a torus-legal algorithm.
        assert_eq!(sim.routing, sim.routing.for_topology(TopologyKind::Torus));
        // Same seed, same plan (reproducible); different seed, fresh draw.
        let again = family.apply(&SimConfig::default(), 99);
        assert_eq!(sim.fault_plan, again.fault_plan);
    }

    #[test]
    fn grid_members_are_ordered_named_and_seeded() {
        let grid = ZooGrid {
            base: SimConfig::default().with_size(4, 4).with_regions(2, 2),
            variants: vec![
                dqn_variant("default").unwrap(),
                dqn_variant("small").unwrap(),
            ],
            families: vec![
                ScenarioFamily::parse("mesh/uniform/r0.1").unwrap(),
                ScenarioFamily::parse("torus/uniform/r0.1/f2").unwrap(),
            ],
            train: TrainConfig::default(),
            epoch_cycles: 100,
            epochs_per_episode: 2,
            base_seed: 42,
        };
        let members = grid.members();
        assert_eq!(members.len(), 4);
        assert_eq!(grid.len(), 4);
        assert_eq!(members[0].name, "default__mesh-ph-uniform-bern0.1--f0");
        assert_eq!(members[1].variant, "default");
        assert_eq!(members[2].variant, "small");
        let mut seeds: Vec<u64> = members.iter().map(|m| m.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 4, "member seeds must not collide");
        // Member expansion is a pure function of the grid.
        let again = grid.members();
        for (a, b) in members.iter().zip(&again) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.seed, b.seed);
        }
    }

    #[test]
    fn variant_catalog_resolves_all_names() {
        for (name, _) in DQN_VARIANTS {
            let v = dqn_variant(name).expect("catalog name resolves");
            assert_eq!(v.name, name);
        }
        assert!(dqn_variant("nope").is_err());
    }

    #[test]
    fn tabular_artifact_deploys_as_tabular_q() {
        let env = NocEnvConfig::for_sim(SimConfig::default().with_size(4, 4).with_regions(2, 2), 1);
        let tab = TabularConfig {
            bins: 3,
            ..TabularConfig::default()
        };
        let train = TrainConfig {
            episodes: 1,
            max_steps: 2,
            ..TrainConfig::default()
        };
        let policy =
            crate::training::train_tabular(env.clone(), tab.clone(), train.clone()).unwrap();
        let artifact = PolicyArtifact::from_tabular(&policy, env.clone(), train.clone());
        assert_eq!(artifact.kind_name(), "tabular");
        assert_eq!(artifact.controller().unwrap().name(), "tabular-q");
        assert_eq!(
            artifact.config_hash,
            Learner::Tabular(tab.clone()).config_hash(&env, &train)
        );
    }

    #[test]
    fn unsupported_schema_version_is_rejected() {
        let env = NocEnvConfig::for_sim(SimConfig::default().with_size(4, 4).with_regions(2, 2), 1);
        let policy = train_drl(
            env.clone(),
            DqnConfig {
                hidden: vec![8],
                batch_size: 8,
                min_replay: 8,
                ..DqnConfig::default()
            },
            TrainConfig {
                episodes: 1,
                max_steps: 2,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        let mut artifact = PolicyArtifact::from_dqn(&policy, env, TrainConfig::default()).unwrap();
        artifact.schema_version = 99;
        assert!(matches!(
            artifact.validate(),
            Err(ZooError::SchemaVersion { found: 99, .. })
        ));
        // A future-versioned artifact on disk is rejected by parse+validate
        // (the round trip preserves the version).
        let reparsed = PolicyArtifact::parse(&artifact.to_json()).unwrap();
        assert!(reparsed.validate().is_err());
    }
}
