//! Determinism and equivalence guarantees of the scenario-sweep engine.

use noc_selfconf::{ResultCache, SweepGrid, SweepReport};
use noc_sim::{RoutingAlgorithm, SimConfig, SwitchArb, TopologyKind, TrafficPattern, WorkloadSpec};

/// A fast grid: 8 scenarios on small meshes with short windows.
fn quick_grid() -> SweepGrid {
    SweepGrid {
        base: SimConfig::default().with_regions(2, 2),
        sizes: vec![(4, 4)],
        topologies: vec![TopologyKind::Mesh],
        patterns: vec![TrafficPattern::Uniform, TrafficPattern::Transpose],
        rates: vec![0.05, 0.10],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        levels: vec![None],
        faults: vec![0],
        workloads: vec![],
        partitions: 1,
        warmup: 200,
        measure: 500,
        drain: 500,
        base_seed: 7,
    }
}

fn to_json(report: &SweepReport) -> String {
    serde_json::to_string_pretty(report).expect("report serializes")
}

/// The engine's determinism contract, one matrix: the report rendered under
/// every execution strategy on offer — one thread (the calling one) twice,
/// 3/8 worker threads, and an in-memory result cache cold then warm — is
/// one byte string. Returns the one-thread report for the caller's
/// axis-specific assertions.
fn assert_execution_invariant(grid: &SweepGrid) -> SweepReport {
    let serial = grid.run(1).expect("valid grid");
    let bytes = to_json(&serial);
    let cache = ResultCache::in_memory();
    let strategies = [
        ("1 thread rerun", grid.run(1)),
        ("3 threads", grid.run(3)),
        ("8 threads", grid.run(8)),
        ("cold cache", grid.run_cached(2, &cache)),
        ("warm cache", grid.run_cached(2, &cache)),
    ];
    for (strategy, report) in strategies {
        assert_eq!(
            to_json(&report.expect("valid grid")),
            bytes,
            "{strategy} changed the report bytes"
        );
    }
    let computed = cache.stats().computed;
    assert_eq!(computed, grid.len() as u64, "the warm pass re-simulated");
    serial
}

#[test]
fn repeated_runs_are_byte_identical() {
    let grid = quick_grid();
    let a = to_json(&grid.run(4).expect("valid grid"));
    let b = to_json(&grid.run(4).expect("valid grid"));
    assert_eq!(
        a, b,
        "same grid + seeds must reproduce the same report bytes"
    );
}

#[test]
fn parallel_equals_serial() {
    let grid = quick_grid();
    let serial = assert_execution_invariant(&grid);
    // Spot-check structured equality too, scenario by scenario.
    let parallel = grid.run(4).expect("valid grid");
    assert_eq!(parallel.scenarios.len(), serial.scenarios.len());
    for (p, s) in parallel.scenarios.iter().zip(&serial.scenarios) {
        assert_eq!(
            p, s,
            "scenario {} diverged between parallel and serial",
            p.label
        );
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let grid = quick_grid();
    let serial = assert_execution_invariant(&grid);
    assert_eq!(
        to_json(&grid.run(64).expect("valid grid")),
        to_json(&serial),
        "oversubscribed pools must still be deterministic"
    );
}

/// The sweep determinism guarantee extends to faulted scenarios.
#[test]
fn fault_axis_is_deterministic_across_thread_counts() {
    let grid = SweepGrid {
        patterns: vec![TrafficPattern::Uniform],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        rates: vec![0.08],
        faults: vec![0, 1, 3],
        ..quick_grid()
    };
    assert_eq!(grid.len(), 6);
    let report = assert_execution_invariant(&grid);
    // The faulted points actually drop traffic (the axis is live).
    assert!(report
        .scenarios
        .iter()
        .filter(|s| s.label.contains("/f"))
        .any(|s| s.metrics.dropped_packets > 0));
    assert!(report
        .scenarios
        .iter()
        .filter(|s| !s.label.contains("/f"))
        .all(|s| s.metrics.dropped_packets == 0));
}

/// The sweep determinism guarantee extends to the topology axis: a grid
/// mixing mesh and torus points (including faulted tori, whose fault draws
/// come from the wrap-aware link pool).
#[test]
fn topology_axis_is_deterministic_across_thread_counts() {
    let grid = SweepGrid {
        topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
        patterns: vec![TrafficPattern::Uniform],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        rates: vec![0.08],
        faults: vec![0, 2],
        ..quick_grid()
    };
    assert_eq!(grid.len(), 8, "2 topologies x 2 routings x 2 fault points");
    let report = assert_execution_invariant(&grid);
    // The torus points are live and labeled: they ran on the wrap-around
    // fabric (shorter average distance than the mesh at the same size) and
    // carry the /t:torus segment with the mapped routing names.
    let torus: Vec<_> = report
        .scenarios
        .iter()
        .filter(|s| s.label.contains("/t:torus"))
        .collect();
    assert_eq!(torus.len(), 4);
    assert!(torus.iter().any(|s| s.label.contains("/torusdor")));
    assert!(torus.iter().any(|s| s.label.contains("/torusmin")));
    assert!(torus
        .iter()
        .all(|s| s.metrics.injected_flits > 0 && s.metrics.cycles > 0));
    let mean_hops = |pred: &dyn Fn(&str) -> bool| {
        let (sum, n) = report
            .scenarios
            .iter()
            .filter(|s| pred(&s.label) && !s.label.contains("/f"))
            .fold((0.0, 0), |(a, n), s| (a + s.metrics.avg_hops, n + 1));
        sum / n as f64
    };
    let mesh = mean_hops(&|l: &str| !l.contains("/t:torus"));
    let torus_hops = mean_hops(&|l: &str| l.contains("/t:torus"));
    assert!(
        torus_hops < mesh,
        "wrap links must shorten paths: torus {torus_hops} vs mesh {mesh}"
    );
    // Faulted torus points keep the liveness contract: the fabric was
    // actually degraded, and everything injected was delivered or counted
    // dropped within the drain budget — nothing wedged.
    for s in report.scenarios.iter().filter(|s| s.label.contains("/f2")) {
        assert!(
            s.metrics.avg_dead_links > 0.0,
            "{}: the fault axis must be live",
            s.label
        );
        assert_eq!(
            s.unfinished_packets, 0,
            "{}: faulted scenarios must drain, not wedge",
            s.label
        );
    }
}

/// An all-NaN aggregate (a grid whose every scenario produced zero latency
/// samples) must survive the JSON round-trip: the NaN-able aggregate fields
/// are routed through `serde_nan`, rendering `null` instead of leaking a
/// bare `NaN` token into the report.
#[test]
fn nan_aggregate_roundtrips_through_json() {
    // Rate 0: nothing is ever offered, so every latency figure is NaN and
    // no scenario wins a latency-based superlative.
    let grid = SweepGrid {
        patterns: vec![TrafficPattern::Uniform],
        rates: vec![0.0],
        routings: vec![RoutingAlgorithm::Xy],
        warmup: 50,
        measure: 100,
        drain: 50,
        ..quick_grid()
    };
    let report = grid.run(2).expect("valid grid");
    let agg = &report.aggregate;
    assert!(agg.avg_packet_latency.is_nan());
    assert!(agg.min_latency.is_nan());
    assert!(agg.max_latency.is_nan());
    assert!(agg.best_edp.is_nan());
    assert!(agg.best_edp_scenario.is_empty());
    let json = to_json(&report);
    assert!(
        !json.contains("NaN") && !json.contains("nan"),
        "serialized report must not contain a bare NaN token"
    );
    let back: SweepReport = serde_json::from_str(&json).expect("NaN report deserializes");
    assert!(back.aggregate.best_edp.is_nan());
    assert!(back.aggregate.avg_packet_latency.is_nan());
    assert_eq!(to_json(&back), json, "round-trip must be lossless");
}

/// Parse workload labels as `sweep-grid --workloads` does.
fn workloads(labels: &[&str]) -> Vec<WorkloadSpec> {
    let parse = |label: &&str| WorkloadSpec::parse(label).expect("workload label parses");
    labels.iter().map(parse).collect()
}

/// The sweep determinism guarantee extends to the workloads axis: a grid
/// carrying a bursty and a phase-changing workload point.
#[test]
fn workload_axis_is_deterministic_across_thread_counts() {
    let grid = SweepGrid {
        patterns: vec![TrafficPattern::Uniform],
        rates: vec![0.08],
        routings: vec![RoutingAlgorithm::Xy],
        workloads: workloads(&[
            "ph[uniform:burst0.3x0.05]",
            "ph[uniform:bern0.02@400|tornado:pulse0.3x100x40@400]",
        ]),
        ..quick_grid()
    };
    assert_eq!(grid.len(), 3);
    let report = assert_execution_invariant(&grid);
    // The workload points are live: the bursty scenario injects real load
    // and carries its canonical label as the report key.
    let bursty = &report.scenarios[1];
    assert!(bursty.label.contains("ph[uniform:burst0.3x0.05]"));
    assert!(bursty.metrics.injected_flits > 0);
    assert!(
        bursty.metrics.injection_burstiness > report.scenarios[0].metrics.injection_burstiness,
        "the bursty point must read burstier than the Bernoulli point"
    );
}

/// The sweep determinism guarantee extends to wormhole flow control: 8-flit
/// and bimodal packets under per-packet arbitration, XY and table routing
/// on both topologies, fault axis live.
#[test]
fn long_packet_axis_is_deterministic_across_strategies() {
    let grid = SweepGrid {
        base: quick_grid().base.with_switch_arb(SwitchArb::PerPacket),
        topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
        patterns: vec![],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::Table],
        faults: vec![0, 2],
        workloads: workloads(&[
            "ph[uniform:bern0.05:len8]",
            "ph[uniform:bern0.05:lenB1-8p20]",
        ]),
        drain: 800,
        ..quick_grid()
    };
    assert_eq!(
        grid.len(),
        16,
        "2 topologies x 2 workloads x 2 routings x 2"
    );
    let report = assert_execution_invariant(&grid);
    for segment in ["len8", "lenB1-8p20", "/table", "/t:torus", "/f2"] {
        assert!(
            report.scenarios.iter().any(|s| s.label.contains(segment)),
            "no scenario label carries `{segment}`"
        );
    }
    assert!(report.scenarios.iter().all(|s| s.metrics.ejected_flits > 0));
}

#[test]
fn different_base_seed_changes_results() {
    let grid = quick_grid();
    let other = SweepGrid {
        base_seed: 8,
        ..quick_grid()
    };
    let a = grid.run(2).expect("valid grid");
    let b = other.run(2).expect("valid grid");
    assert_ne!(
        to_json(&a),
        to_json(&b),
        "the base seed must actually reach the per-scenario simulators"
    );
}

#[test]
fn report_shape_and_aggregate_are_consistent() {
    let report = quick_grid().run(4).expect("valid grid");
    assert_eq!(report.scenarios.len(), 8);
    assert_eq!(report.aggregate.num_scenarios, 8);
    // Grid order: indices are 0..n in order.
    for (i, r) in report.scenarios.iter().enumerate() {
        assert_eq!(r.index, i);
        assert!(
            r.metrics.cycles > 0,
            "{}: empty measurement window",
            r.label
        );
    }
    // At these light loads nothing saturates and latency is meaningful.
    assert_eq!(report.aggregate.saturated_scenarios, 0);
    assert!(report.aggregate.avg_packet_latency.is_finite());
    assert!(report.aggregate.min_latency <= report.aggregate.max_latency);
    assert!(!report.aggregate.peak_throughput_scenario.is_empty());
    assert!(report.aggregate.total_energy_pj > 0.0);
    // The aggregate's extremes point at real scenarios.
    assert!(report
        .scenarios
        .iter()
        .any(|r| r.label == report.aggregate.min_latency_scenario));
    assert!(report
        .scenarios
        .iter()
        .any(|r| r.label == report.aggregate.best_edp_scenario));
}

#[test]
fn report_roundtrips_through_json() {
    let report = quick_grid().run(2).expect("valid grid");
    let json = to_json(&report);
    let back: SweepReport = serde_json::from_str(&json).expect("report deserializes");
    assert_eq!(to_json(&back), json, "JSON round-trip must be lossless");
}

/// Golden pin of the cycle-accurate simulation results, captured from the
/// tree *before* the cycle-loop optimizations (scratch buffers in
/// `Network::step`, O(1) occupancy/backlog counters, cached per-region DVFS
/// scales). The optimizations must be pure refactors: any drift in these
/// numbers means simulated behavior changed, not just speed.
///
/// To refresh after an *intentional* behavior change:
/// `cargo run --release -p cli -- sweep-grid --sizes 4x4 \
///    --patterns uniform,transpose --rates 0.08 --routings xy \
///    --warmup 200 --measure 600 --drain 600 --seed 42 --serial --out g.json`
/// and copy the per-scenario fields below from `g.json`.
#[test]
fn optimized_cycle_loop_reproduces_golden_metrics() {
    let grid = SweepGrid {
        base: SimConfig::default(),
        patterns: vec![TrafficPattern::Uniform, TrafficPattern::Transpose],
        rates: vec![0.08],
        routings: vec![RoutingAlgorithm::Xy],
        warmup: 200,
        measure: 600,
        drain: 600,
        base_seed: 42,
        ..quick_grid()
    };
    let report = grid.run(1).expect("valid grid");
    assert_eq!(report.scenarios.len(), 2);

    let uni = &report.scenarios[0];
    assert_eq!(uni.label, "4x4/uniform/r0.08/xy");
    assert_eq!(uni.seed, 12058926934050108962);
    assert!(!uni.saturated);
    assert_eq!(uni.metrics.avg_packet_latency, 15.6625);
    assert_eq!(uni.metrics.throughput, 0.08177083333333333);
    assert_eq!(uni.metrics.energy_pj, 22826.25000000159);
    assert_eq!(uni.metrics.injected_flits, 1012);
    assert_eq!(uni.metrics.ejected_flits, 1025);

    let tra = &report.scenarios[1];
    assert_eq!(tra.label, "4x4/transpose/r0.08/xy");
    assert_eq!(tra.seed, 13679457532755275413);
    assert!(!tra.saturated);
    assert_eq!(tra.metrics.avg_packet_latency, 18.52173913043478);
    assert_eq!(tra.metrics.throughput, 0.060833333333333336);
    assert_eq!(tra.metrics.energy_pj, 23796.550000001527);
    assert_eq!(tra.metrics.injected_flits, 805);
    assert_eq!(tra.metrics.ejected_flits, 820);

    // The same grid run in parallel must serialize to the same bytes (the
    // scratch buffers live per-Network, so thread reuse cannot alias them).
    let parallel = grid.run(4).expect("valid grid");
    assert_eq!(to_json(&parallel), to_json(&report));
}

/// Golden pin of degraded-mode behavior: a 4×4 mesh at uniform 0.10 with one
/// permanent link fault (5 -> 6), under deterministic XY and adaptive
/// odd-even routing. Future routing or fault-handling changes cannot
/// silently shift faulted-fabric metrics past this test: any drift in drops,
/// deliveries, latency, or energy is a behavior change that must be made
/// deliberately.
///
/// To refresh after an *intentional* change, rerun this grid (serial) and
/// copy the per-scenario fields from the report; the values were captured
/// when the fault subsystem landed.
#[test]
fn faulted_golden_metrics_are_pinned() {
    use noc_sim::{FaultEvent, FaultPlan, FaultTarget, NodeId, Port};
    let plan = FaultPlan::new(vec![FaultEvent {
        start: 0,
        duration: None,
        target: FaultTarget::Link {
            node: NodeId(5),
            port: Port::East,
        },
    }])
    .expect("valid fault plan");
    let grid = SweepGrid {
        base: SimConfig::default().with_faults(plan),
        patterns: vec![TrafficPattern::Uniform],
        rates: vec![0.10],
        routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
        warmup: 200,
        measure: 600,
        drain: 600,
        base_seed: 42,
        ..quick_grid()
    };
    let report = grid.run(1).expect("valid grid");
    assert_eq!(report.scenarios.len(), 2);

    // Deterministic XY cannot route around the dead link: packets whose
    // minimal path needs it are dropped.
    let xy = &report.scenarios[0];
    assert_eq!(xy.label, "4x4/uniform/r0.1/xy");
    assert_eq!(xy.seed, 12058926934050108962);
    assert!(!xy.saturated);
    assert_eq!(xy.metrics.avg_packet_latency, 16.123456790123456);
    assert_eq!(xy.metrics.throughput, 0.08427083333333334);
    assert_eq!(xy.metrics.energy_pj, 37925.60000000088);
    assert_eq!(xy.metrics.injected_flits, 1981);
    assert_eq!(xy.metrics.ejected_flits, 1668);
    assert_eq!(xy.metrics.dropped_flits, 305);
    assert_eq!(xy.metrics.dropped_packets, 61);
    assert_eq!(xy.metrics.avg_dead_links, 2.0);

    // Adaptive odd-even reroutes around the fault; a small residue of
    // packets still hits positions with no legal alternative turn.
    let oe = &report.scenarios[1];
    assert_eq!(oe.label, "4x4/uniform/r0.1/oddeven");
    assert_eq!(oe.seed, 13679457532755275413);
    assert!(!oe.saturated);
    assert_eq!(oe.metrics.avg_packet_latency, 16.46961325966851);
    assert_eq!(oe.metrics.throughput, 0.09447916666666667);
    assert_eq!(oe.metrics.energy_pj, 21783.900000001508);
    assert_eq!(oe.metrics.injected_flits, 1058);
    assert_eq!(oe.metrics.ejected_flits, 1002);
    assert_eq!(oe.metrics.dropped_flits, 75);
    assert_eq!(oe.metrics.dropped_packets, 15);
    assert_eq!(oe.metrics.avg_dead_links, 2.0);
    assert!(
        oe.metrics.dropped_packets < xy.metrics.dropped_packets,
        "adaptive routing must save traffic a deterministic algorithm loses"
    );

    // Faulted grids keep the engine's determinism guarantee: parallel
    // execution serializes to the same bytes as the serial run.
    let parallel = grid.run(4).expect("valid grid");
    assert_eq!(to_json(&parallel), to_json(&report));
}

#[test]
fn dvfs_level_axis_is_applied() {
    let grid = SweepGrid {
        levels: vec![Some(0), Some(3)],
        rates: vec![0.05],
        patterns: vec![TrafficPattern::Uniform],
        routings: vec![RoutingAlgorithm::Xy],
        sizes: vec![(4, 4)],
        ..quick_grid()
    };
    let report = grid.run(2).expect("valid grid");
    assert_eq!(report.scenarios.len(), 2);
    let low = &report.scenarios[0];
    let high = &report.scenarios[1];
    assert!(low.label.ends_with("/L0"), "label {}", low.label);
    assert!(high.label.ends_with("/L3"), "label {}", high.label);
    // The lowest V/F level must be slower and cheaper per flit than the
    // highest (the monotonicity the DVFS model guarantees).
    assert!(
        low.metrics.avg_packet_latency > high.metrics.avg_packet_latency,
        "L0 latency {} must exceed L3 latency {}",
        low.metrics.avg_packet_latency,
        high.metrics.avg_packet_latency
    );
    let per_flit =
        |r: &noc_selfconf::ScenarioResult| r.metrics.energy_pj / r.metrics.ejected_flits as f64;
    assert!(
        per_flit(low) < per_flit(high),
        "L0 energy/flit must undercut L3"
    );
}
