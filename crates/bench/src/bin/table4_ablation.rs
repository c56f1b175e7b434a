//! Table 4 — ablation study over the DRL design choices DESIGN.md calls out:
//! Double-DQN vs vanilla, prioritized vs uniform replay, replay size, and
//! the reward-weight trade-off.
//!
//! Each variant trains with a reduced budget (ablations compare variants
//! against each other, not against the headline policy) and is evaluated on
//! a fixed workload mix.

use noc_bench::{
    configs, evaluate, fmt, print_table, results_dir, save_csv, save_markdown, train_or_load,
    Learner, Scale,
};
use noc_selfconf::{Entrant, RewardConfig};
use noc_sim::TrafficPattern;
use rl::DqnConfig;

struct Variant {
    key: &'static str,
    label: &'static str,
    dqn: fn(DqnConfig) -> DqnConfig,
    reward: fn() -> RewardConfig,
}

fn main() {
    let scale = Scale::from_env();
    let sim = configs::mesh8();
    let episodes = scale.pick(80usize, 2);

    let variants = [
        Variant {
            key: "ablate_default",
            label: "double-DQN, uniform replay (default)",
            dqn: |d| d,
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_nodouble",
            label: "vanilla DQN target",
            dqn: |d| DqnConfig { double: false, ..d },
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_prioritized",
            label: "prioritized replay (α=0.6)",
            dqn: |d| DqnConfig {
                prioritized_alpha: Some(0.6),
                ..d
            },
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_smallreplay",
            label: "replay 1k (vs 10k)",
            dqn: |d| DqnConfig {
                replay_capacity: 1000,
                ..d
            },
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_soft",
            label: "soft target sync (τ=0.01)",
            dqn: |d| DqnConfig {
                target_sync: rl::TargetSync::Soft { tau: 0.01 },
                ..d
            },
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_nstep3",
            label: "3-step returns",
            dqn: |d| DqnConfig { n_step: 3, ..d },
            reward: RewardConfig::default,
        },
        Variant {
            key: "ablate_energy_reward",
            label: "energy-biased reward",
            dqn: |d| d,
            reward: RewardConfig::energy_biased,
        },
        Variant {
            key: "ablate_latency_reward",
            label: "latency-biased reward",
            dqn: |d| d,
            reward: RewardConfig::latency_biased,
        },
    ];

    let eval_epochs = scale.pick(40usize, 3);
    let epoch_cycles = scale.pick(500u64, 200);
    let eval_workloads = [
        ("uniform@0.10", TrafficPattern::Uniform, 0.10),
        ("hotspot@0.10", configs::hotspot(), 0.10),
    ];

    let mut final_returns = Vec::new();
    let mut entrants: Vec<(String, Entrant)> = Vec::new();
    for v in &variants {
        let mut env_cfg = configs::train_env(sim.clone(), 7);
        env_cfg.reward = (v.reward)();
        let mut train = configs::train_budget(scale, 7);
        train.episodes = episodes;
        let dqn = (v.dqn)(configs::dqn_default(7));
        let artifact = train_or_load(&results_dir(), v.key, env_cfg, Learner::Dqn(dqn), train);
        // Final-quarter training return.
        let quarter = (artifact.curve.len() / 4).max(1);
        final_returns.push(
            artifact.curve[artifact.curve.len() - quarter..]
                .iter()
                .map(|e| e.total_reward)
                .sum::<f64>()
                / quarter as f64,
        );
        entrants.push((v.label.to_string(), artifact.into()));
    }
    let workloads = eval_workloads
        .clone()
        .map(|(_, pattern, rate)| (pattern, rate));
    let report = evaluate(&sim, &entrants, &workloads, eval_epochs, epoch_cycles);

    let mut rows = Vec::new();
    for (v, final_return) in final_returns.iter().enumerate() {
        for (w, (wname, ..)) in eval_workloads.iter().enumerate() {
            let cell = &report.cells[v * eval_workloads.len() + w];
            rows.push(vec![
                cell.policy.clone(),
                wname.to_string(),
                fmt(*final_return),
                fmt(cell.aggregate.avg_latency),
                fmt(cell.aggregate.energy_pj / 1e3),
                fmt(cell.aggregate.edp / 1e6),
                fmt(cell.aggregate.mean_level),
            ]);
        }
    }
    let headers = [
        "variant",
        "workload",
        "final train return",
        "avg latency",
        "energy (nJ)",
        "EDP (×10⁶)",
        "mean level",
    ];
    let md = print_table("Table 4 — ablations", &headers, &rows);
    save_csv("table4_ablation", &headers, &rows);
    save_markdown("table4_ablation", &md);
}
