//! The metric tables: every name the harness prints, with its unit and
//! direction. `BENCHMARK.json` lists the same names; a self-test keeps the
//! two from drifting.

/// Where a per-layer metric's value comes from in a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Busy seconds per traced repeat of the spans named like the metric
    /// without its `_s`.
    Span,
    /// A count made at a layer boundary; it must be identical on every
    /// traced repeat, and is on every run of the same program and seed.
    Exact,
    /// Median over traced repeats (or the one stand-alone measurement).
    Median,
    /// Smallest / largest over traced repeats of the named value.
    Min(&'static str),
    Max(&'static str),
    /// Computed by the runner from other values.
    Derived,
}

/// A named metric: its unit, which direction is better, and (for a
/// per-layer metric) where its value comes from.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub source: Source,
}

const fn metric(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: Source,
) -> Metric {
    Metric {
        name,
        unit,
        better,
        source,
    }
}

use Source::{Derived, Exact, Max, Median, Min, Span};

const TILE_SHARE: &str = "noc-sim.network.tile_overhead_share";

/// What a user of the system sees; the runner computes each from the plain
/// repeats.
pub static END_TO_END: [Metric; 4] = [
    metric("setup_s", "s", "lower", Derived),
    metric("wall_s", "s", "lower", Derived),
    metric("ops_per_s", "1/s", "higher", Derived),
    metric("peak_rss_mb", "MB", "lower", Derived),
];

pub static PER_LAYER: [Metric; 67] = [
    // noc-sim: host time in each part of the rebuilt cycle loop, and the
    // simulated statistics a speed-only change must leave identical.
    metric("noc-sim.sim.new_s", "s", "lower", Span),
    metric("noc-sim.traffic.tick_s", "s", "lower", Span),
    metric("noc-sim.traffic.packets", "count", "higher", Exact),
    metric("noc-sim.network.offer_s", "s", "lower", Span),
    metric("noc-sim.network.step_s", "s", "lower", Span),
    metric("noc-sim.network.cycles", "count", "higher", Exact),
    metric("noc-sim.network.router_cycles", "count", "higher", Exact),
    metric(
        "noc-sim.network.ns_per_router_cycle",
        "ns",
        "lower",
        Derived,
    ),
    metric("noc-sim.network.ns_per_flit", "ns", "lower", Derived),
    metric("noc-sim.sim.drain_cycles", "count", "lower", Exact),
    metric("noc-sim.stats.window_s", "s", "lower", Span),
    metric("noc-sim.stats.ejected_flits", "count", "higher", Exact),
    metric("noc-sim.stats.injected_packets", "count", "higher", Exact),
    metric("noc-sim.stats.dropped_packets", "count", "lower", Exact),
    metric(
        "noc-sim.stats.latency_cycles_mean",
        "cycles",
        "lower",
        Exact,
    ),
    metric("noc-sim.stats.energy_pj", "pJ", "lower", Exact),
    metric("noc-sim.network.tiled_step_s", "s", "lower", Median),
    metric(TILE_SHARE, "share", "lower", Median),
    metric(
        "noc-sim.network.tile_overhead_share_min",
        "share",
        "lower",
        Min(TILE_SHARE),
    ),
    metric(
        "noc-sim.network.tile_overhead_share_max",
        "share",
        "lower",
        Max(TILE_SHARE),
    ),
    metric("noc-sim.cycles_per_s", "1/s", "higher", Derived),
    // noc_selfconf.sweep / .par
    metric("noc_selfconf.sweep.expand_s", "s", "lower", Span),
    metric("noc_selfconf.sweep.scenario_s", "s", "lower", Span),
    metric("noc_selfconf.sweep.scenarios", "count", "higher", Exact),
    metric("noc_selfconf.sweep.report_s", "s", "lower", Span),
    metric("noc_selfconf.sweep.render_s", "s", "lower", Span),
    metric("noc_selfconf.sweep.report_bytes", "bytes", "lower", Exact),
    metric(
        "noc_selfconf.par.worker_busy_share",
        "share",
        "higher",
        Median,
    ),
    metric("noc_selfconf.par.tail_idle_s", "s", "lower", Median),
    // noc_selfconf.env / .state / .reward
    metric("noc_selfconf.env.reset_s", "s", "lower", Span),
    metric("noc_selfconf.env.step_s", "s", "lower", Span),
    metric("noc_selfconf.env.steps", "count", "higher", Exact),
    metric("noc_selfconf.state.encode_s", "s", "lower", Span),
    metric("noc_selfconf.reward.compute_s", "s", "lower", Span),
    // rl / neural
    metric("rl.dqn.act_s", "s", "lower", Span),
    metric("rl.dqn.observe_s", "s", "lower", Span),
    metric("rl.dqn.train_step_s", "s", "lower", Span),
    metric("rl.dqn.train_steps", "count", "higher", Exact),
    metric("rl.dqn.learn_ratio", "share", "higher", Exact),
    metric("neural.mlp.predict_batch_us", "us", "lower", Median),
    metric("neural.mlp.train_batch_us", "us", "lower", Median),
    metric("neural.mlp.flops_per_train_batch", "count", "lower", Median),
    // noc_selfconf.zoo
    metric("noc_selfconf.zoo.save_s", "s", "lower", Span),
    metric("noc_selfconf.zoo.load_s", "s", "lower", Span),
    metric("noc_selfconf.zoo.artifact_bytes", "bytes", "lower", Exact),
    // noc_selfconf.serve
    metric("noc_selfconf.serve.daemon.start_s", "s", "lower", Span),
    metric(
        "noc_selfconf.serve.daemon.first_result_ms",
        "ms",
        "lower",
        Median,
    ),
    metric(
        "noc_selfconf.serve.daemon.bytes_in",
        "bytes",
        "lower",
        Median,
    ),
    metric(
        "noc_selfconf.serve.daemon.bytes_out",
        "bytes",
        "lower",
        Median,
    ),
    metric("noc_selfconf.serve.protocol.render_s", "s", "lower", Median),
    metric("noc_selfconf.serve.protocol.parse_s", "s", "lower", Median),
    metric("noc_selfconf.serve.cache.key_s", "s", "lower", Median),
    metric("noc_selfconf.serve.cache.hit_s", "s", "lower", Median),
    metric(
        "noc_selfconf.serve.cache.miss_store_s",
        "s",
        "lower",
        Median,
    ),
    metric(
        "noc_selfconf.serve.cache.memory_hits",
        "count",
        "higher",
        Exact,
    ),
    metric(
        "noc_selfconf.serve.cache.disk_hits",
        "count",
        "higher",
        Exact,
    ),
    metric("noc_selfconf.serve.cache.computed", "count", "lower", Exact),
    metric(
        "noc_selfconf.serve.cache.coalesced",
        "count",
        "higher",
        Exact,
    ),
    metric(
        "noc_selfconf.serve.cache.write_errors",
        "count",
        "lower",
        Exact,
    ),
    metric(
        "noc_selfconf.serve.scheduler.direct_s",
        "s",
        "lower",
        Median,
    ),
    metric(
        "noc_selfconf.serve.daemon.socket_residual_s",
        "s",
        "lower",
        Median,
    ),
    // The harness itself, and the per-operation latencies, which only the
    // traced pass can observe on every workload.
    metric("benchmark.op_p50_ms", "ms", "lower", Derived),
    metric("benchmark.op_p95_ms", "ms", "lower", Derived),
    metric("benchmark.op_samples", "count", "higher", Derived),
    metric("benchmark.traced_repeats", "count", "higher", Derived),
    metric("benchmark.trace_overhead_share", "share", "lower", Derived),
    metric("benchmark.span_coverage_share", "share", "higher", Derived),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| well_formed(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }

    #[test]
    fn span_metrics_end_in_seconds_and_min_max_point_at_a_metric() {
        for m in &PER_LAYER {
            match m.source {
                Span => assert!(m.name.ends_with("_s") && m.unit == "s", "{}", m.name),
                Min(of) | Max(of) => assert!(PER_LAYER.iter().any(|o| o.name == of)),
                _ => {}
            }
        }
    }

    /// `BENCHMARK.json` at the repository root lists exactly the tables
    /// above, in order, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let json = serde_json::parse(&text).expect("valid JSON");
        let rows = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            json.get(key)
                .and_then(|v| v.as_seq())
                .unwrap_or_else(|| panic!("`{key}` is a list"))
                .iter()
                .map(|row| {
                    fields
                        .iter()
                        .map(|f| {
                            let v = row.get(f).unwrap_or_else(|| panic!("{key}: no `{f}`"));
                            v.as_str().expect("a string").to_string()
                        })
                        .collect()
                })
                .collect()
        };
        let strings = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            rows("workloads", &["name"]),
            WORKLOADS
                .iter()
                .filter(|w| w.gated)
                .map(|w| strings(&[w.name]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            rows("end_to_end", &["name", "unit", "better"]),
            END_TO_END
                .iter()
                .map(|m| strings(&[m.name, m.unit, m.better]))
                .collect::<Vec<_>>()
        );
        assert_eq!(
            rows("per_layer", &["name", "unit", "better"]),
            PER_LAYER
                .iter()
                .map(|m| strings(&[m.name, m.unit, m.better]))
                .collect::<Vec<_>>()
        );
    }
}
