//! Differential guarantees of the active-router worklist.
//!
//! The SoA cycle core visits only the routers of its active set (buffered
//! flits or source backlog) and prices every router's leakage from that set.
//! The claim: skipping is *unobservable* —
//! every metric, energy sum, and serialized byte matches a run where every
//! router walks the full pipeline every cycle (`set_step_all(true)`). The
//! proptest below samples topology, routing, faults, DVFS throttles, and
//! partition counts; golden pins nail the idle-heavy scenarios (where the
//! worklist actually skips most of the fabric) to concrete numbers.

use noc_sim::{
    FaultPlan, PowerModel, RoutingAlgorithm, SimConfig, Simulator, StatsCollector, ThrottleEvent,
    Topology, TopologyKind, TrafficPattern,
};
use proptest::prelude::*;

/// Run `cfg` with the worklist enabled (the default) or forced off, under
/// the given partition count, optionally dropping a region to a lower VF
/// level mid-run (which un-pristines the clock gates and forces the
/// idle-skip path to keep gate phases coherent).
fn run_mode(
    cfg: &SimConfig,
    partitions: usize,
    step_all: bool,
    relevel: Option<(usize, usize)>,
    cycles: u64,
) -> StatsCollector {
    let mut sim = Simulator::new(cfg.clone().with_partitions(partitions)).expect("valid config");
    sim.set_step_all(step_all);
    sim.run(cycles / 2);
    if let Some((region, level)) = relevel {
        sim.set_region_level(region, level).expect("valid level");
    }
    sim.run(cycles - cycles / 2);
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Worklist stepping vs forced step-everyone, over sampled topology
    /// kind, routing algorithm, injection rate (biased low, where skipping
    /// dominates), fault count, mid-run DVFS relevel, power model, and
    /// partitions ∈ {1, 2, 4}. Structural and serialized-byte equality must
    /// both hold — f64 energy sums included, which requires every router's
    /// leakage to be priced from the right term. Only the power-gated model
    /// tells the idle term from the busy one (the default model's idle
    /// fraction is 1.0), so it is an axis of its own.
    #[test]
    fn worklist_is_byte_identical_to_step_all(
        seed in 0u64..10_000,
        torus in any::<bool>(),
        route_sel in 0usize..3,
        rate_sel in 0usize..4,
        num_faults in 0usize..3,
        relevel_sel in 0usize..3,
        gated in any::<bool>(),
    ) {
        let routing = if torus {
            [
                RoutingAlgorithm::TorusDor,
                RoutingAlgorithm::TorusMinAdaptive,
                RoutingAlgorithm::TorusDor,
            ][route_sel]
        } else {
            [
                RoutingAlgorithm::Xy,
                RoutingAlgorithm::OddEven,
                RoutingAlgorithm::NegativeFirst,
            ][route_sel]
        };
        // Idle-heavy rates dominate the sample: that is where the worklist
        // takes its shortcuts. One loaded point keeps the always-active
        // regime covered too.
        let rate = [0.0, 0.01, 0.05, 0.20][rate_sel];
        let relevel = match relevel_sel {
            0 => None,
            1 => Some((0, 1)),
            _ => Some((3, 3)),
        };
        let mut cfg = SimConfig::default()
            .with_size(8, 8)
            .with_regions(2, 2)
            .with_traffic(TrafficPattern::Uniform, rate)
            .with_routing(routing)
            .with_seed(seed);
        cfg.kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
        if gated {
            cfg.power = PowerModel::with_power_gating();
        }
        if num_faults > 0 {
            let topo = match cfg.kind {
                TopologyKind::Mesh => Topology::mesh(8, 8),
                TopologyKind::Torus => Topology::torus(8, 8),
            };
            cfg = cfg.with_faults(FaultPlan::random_links(
                &topo,
                num_faults,
                seed ^ 0x1D7E,
                50,
                None,
            ));
        }
        for p in [1usize, 2, 4] {
            let full = run_mode(&cfg, p, true, relevel, 400);
            let lazy = run_mode(&cfg, p, false, relevel, 400);
            prop_assert_eq!(
                &lazy, &full,
                "worklist diverged structurally at partitions={}", p
            );
            let full_bytes = serde_json::to_string(&full).expect("stats serialize");
            let lazy_bytes = serde_json::to_string(&lazy).expect("stats serialize");
            prop_assert_eq!(
                &lazy_bytes, &full_bytes,
                "worklist diverged in serialized bytes at partitions={}", p
            );
        }
    }
}

/// Golden pin of the idle-heavy 16×16 point (uniform at 0.01
/// flits/node/cycle — the `sim/16x16/uniform/r0.01` bench workload): exact
/// counters and f64 sums with the worklist on, plus byte-equality against
/// the forced step-everyone run. Skipping ~250 idle routers per cycle must
/// change nothing but the wall-clock.
#[test]
fn idle_heavy_16x16_golden_metrics() {
    let cfg = SimConfig::default()
        .with_size(16, 16)
        .with_traffic(TrafficPattern::Uniform, 0.01)
        .with_seed(42);
    let lazy = run_mode(&cfg, 1, false, None, 1_000);
    assert_eq!(
        (
            lazy.offered_packets,
            lazy.injected_flits,
            lazy.ejected_flits,
            lazy.ejected_packets,
            lazy.dropped_flits,
        ),
        (511, 2_550, 2_470, 493, 0),
        "idle-heavy 16x16 counters drifted"
    );
    assert_eq!(
        (
            lazy.sum_packet_latency,
            lazy.sum_network_latency,
            lazy.sum_hops
        ),
        (19_208.0, 19_203.0, 5_199.0),
        "idle-heavy 16x16 latency sums drifted"
    );
    assert_eq!(
        lazy.energy.total_pj(),
        274_296.90000029386,
        "idle-heavy 16x16 energy drifted"
    );
    let full = run_mode(&cfg, 1, true, None, 1_000);
    assert_eq!(lazy, full, "worklist run must match step-everyone");
    assert_eq!(
        serde_json::to_string(&lazy).unwrap(),
        serde_json::to_string(&full).unwrap(),
        "worklist bytes must match step-everyone"
    );
}

/// The power-gated twin of the golden point above: an idle router leaks a
/// fifth of a busy one, so a router priced from the wrong leakage term
/// moves `leakage_pj`. Compared against step-everyone, so it needs no golden
/// constant of its own.
#[test]
fn idle_heavy_16x16_gated_matches_step_all() {
    let mut cfg = SimConfig::default()
        .with_size(16, 16)
        .with_traffic(TrafficPattern::Uniform, 0.01)
        .with_seed(42);
    cfg.power = PowerModel::with_power_gating();
    let lazy = run_mode(&cfg, 1, false, None, 1_000);
    let full = run_mode(&cfg, 1, true, None, 1_000);
    assert_eq!(lazy, full, "gated worklist run must match step-everyone");
    assert_eq!(
        serde_json::to_string(&lazy).unwrap(),
        serde_json::to_string(&full).unwrap(),
        "gated worklist bytes must match step-everyone"
    );
}

/// A totally idle fabric (zero injection) with throttle events still ticks
/// its clock gates coherently: the run completes, burns only leakage, and
/// matches the step-everyone twin even while DVFS emergencies retune gate
/// frequencies under fully-skipped routers.
#[test]
fn idle_fabric_under_throttles_matches_step_all() {
    let cfg = SimConfig::default()
        .with_size(8, 8)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.0)
        .with_throttles(vec![
            ThrottleEvent {
                start: 100,
                duration: 200,
                region: 0,
                level: 1,
            },
            ThrottleEvent {
                start: 250,
                duration: 100,
                region: 3,
                level: 2,
            },
        ])
        .with_seed(9);
    let lazy = run_mode(&cfg, 1, false, None, 600);
    let full = run_mode(&cfg, 1, true, None, 600);
    assert_eq!(lazy, full, "idle throttled fabric diverged");
    assert_eq!(lazy.injected_flits, 0, "zero-rate fabric must stay idle");
    assert!(
        lazy.energy.total_pj() > 0.0,
        "idle fabric still accounts leakage"
    );
}
