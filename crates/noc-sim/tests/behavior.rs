//! Behavioral integration tests of the simulator: measurement methodology,
//! power gating under traffic, phase traces, and reconfiguration timing.

use noc_sim::{
    InjectionProcess, NodeId, PacketTrace, PowerModel, RoutingAlgorithm, SimConfig, Simulator,
    TraceEvent, TrafficPattern, TrafficSpec, WorkloadPhase, WorkloadSpec,
};

fn base() -> SimConfig {
    SimConfig::default().with_size(4, 4).with_regions(2, 2)
}

/// At light load the classic methodology finishes every windowed packet
/// inside the drain budget.
#[test]
fn classic_run_finishes_all_windowed_packets() {
    let mut sim = Simulator::new(base().with_traffic(TrafficPattern::Uniform, 0.05)).unwrap();
    let summary = sim.run_classic(500, 2000, 4000);
    assert_eq!(summary.unfinished_packets, 0, "light load must drain fully");
    assert!(!summary.saturated);
    assert!(summary.window.latency_samples > 0);
}

/// The drain phase must not contaminate throughput: reported throughput
/// comes from the measurement window only.
#[test]
fn drain_does_not_inflate_throughput() {
    let mut sim = Simulator::new(base().with_traffic(TrafficPattern::Uniform, 0.10)).unwrap();
    let summary = sim.run_classic(500, 2000, 4000);
    // Throughput can never exceed the offered rate by more than noise.
    assert!(
        summary.window.throughput < 0.125,
        "throughput {} should track offered 0.10",
        summary.window.throughput
    );
}

/// Power gating saves energy even with sparse traffic flowing (idle routers
/// gate; busy ones do not), and never changes functional behavior.
#[test]
fn power_gating_saves_energy_without_changing_delivery() {
    let run = |gated: bool| {
        let mut cfg = base()
            .with_traffic(TrafficPattern::Neighbor, 0.02)
            .with_seed(3);
        if gated {
            cfg.power = PowerModel::with_power_gating();
        }
        let mut sim = Simulator::new(cfg).unwrap();
        sim.run(3000);
        (sim.stats().ejected_flits, sim.stats().energy.leakage_pj())
    };
    let (flits_nominal, leak_nominal) = run(false);
    let (flits_gated, leak_gated) = run(true);
    assert_eq!(
        flits_nominal, flits_gated,
        "gating must not affect delivery"
    );
    assert!(
        leak_gated < leak_nominal * 0.9,
        "gating should cut leakage: {leak_gated} vs {leak_nominal}"
    );
}

/// Phase traces actually modulate the observed injection rate over time.
#[test]
fn phase_trace_modulates_load() {
    let spec = TrafficSpec::Workload(WorkloadSpec::new(vec![
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.02, 1000),
        WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.30, 1000),
    ]));
    let mut sim = Simulator::new(base().with_traffic_spec(spec)).unwrap();
    let quiet = sim.run_epoch(1000);
    let burst = sim.run_epoch(1000);
    let quiet2 = sim.run_epoch(1000);
    assert!(
        burst.injection_rate > 5.0 * quiet.injection_rate,
        "burst {} vs quiet {}",
        burst.injection_rate,
        quiet.injection_rate
    );
    // The trace repeats.
    assert!(quiet2.injection_rate < burst.injection_rate * 0.5);
}

/// A bursty on/off workload delivers the same mean load as its Bernoulli
/// equivalent but with visibly clumped arrivals — the observable the RL
/// state encoder keys on.
#[test]
fn bursty_workload_is_observably_burstier() {
    let run = |spec: TrafficSpec| {
        let mut sim = Simulator::new(base().with_traffic_spec(spec)).unwrap();
        sim.run_epoch(6000)
    };
    let bern = run(TrafficSpec::stationary(TrafficPattern::Uniform, 0.2));
    let bursty = run(TrafficSpec::Workload(WorkloadSpec::stationary(
        TrafficPattern::Uniform,
        InjectionProcess::Bursty {
            rate_on: 0.4,
            switch: 0.01,
        },
    )));
    // Same long-run mean (rate_on/2 = 0.2) within sampling noise...
    assert!(
        (bursty.injection_rate - bern.injection_rate).abs() < 0.05,
        "bursty mean {} should track bernoulli {}",
        bursty.injection_rate,
        bern.injection_rate
    );
    // ...but a much larger index of dispersion.
    assert!(
        bursty.injection_burstiness > 1.5 * bern.injection_burstiness,
        "bursty dispersion {} vs bernoulli {}",
        bursty.injection_burstiness,
        bern.injection_burstiness
    );
}

/// Trace-driven traffic delivers exactly the scheduled packets, with the
/// scheduled lengths.
#[test]
fn trace_driven_simulation_delivers_schedule() {
    let trace = PacketTrace::new(
        vec![
            TraceEvent {
                cycle: 0,
                src: NodeId(0),
                dst: NodeId(15),
                len_flits: 5,
            },
            TraceEvent {
                cycle: 10,
                src: NodeId(3),
                dst: NodeId(12),
                len_flits: 2,
            },
            TraceEvent {
                cycle: 10,
                src: NodeId(12),
                dst: NodeId(3),
                len_flits: 2,
            },
            TraceEvent {
                cycle: 50,
                src: NodeId(5),
                dst: NodeId(10),
                len_flits: 7,
            },
        ],
        None,
    )
    .unwrap();
    let mut sim = Simulator::new(base().with_traffic_spec(TrafficSpec::Trace(trace))).unwrap();
    sim.run(600);
    let s = sim.stats();
    assert_eq!(s.offered_packets, 4);
    assert_eq!(s.ejected_packets, 4);
    assert_eq!(s.ejected_flits, 5 + 2 + 2 + 7);
    assert_eq!(sim.network().in_flight(), 0);
}

/// A repeating trace sustains a steady load.
#[test]
fn repeating_trace_sustains_load() {
    let trace = PacketTrace::new(
        vec![TraceEvent {
            cycle: 0,
            src: NodeId(0),
            dst: NodeId(15),
            len_flits: 4,
        }],
        Some(50),
    )
    .unwrap();
    let mut sim = Simulator::new(base().with_traffic_spec(TrafficSpec::Trace(trace))).unwrap();
    sim.run(1000);
    assert_eq!(
        sim.stats().offered_packets,
        20,
        "one packet per 50-cycle period"
    );
    assert!(sim.stats().ejected_packets >= 19);
}

/// Mid-flight routing reconfiguration: packets already routed keep flowing,
/// new packets use the new algorithm, nothing is lost.
#[test]
fn routing_switch_mid_flight_loses_nothing() {
    let mut sim = Simulator::new(base().with_traffic(TrafficPattern::Transpose, 0.15)).unwrap();
    sim.run(500);
    sim.set_routing(RoutingAlgorithm::OddEven).unwrap();
    sim.run(500);
    sim.set_routing(RoutingAlgorithm::NegativeFirst).unwrap();
    sim.run(500);
    // Stop and drain.
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .unwrap();
    for _ in 0..100 {
        if sim.network().in_flight() == 0 {
            break;
        }
        sim.run(50);
    }
    assert_eq!(sim.network().in_flight(), 0);
    assert_eq!(sim.stats().ejected_flits, sim.stats().offered_packets * 5);
}

/// Per-region DVFS: slowing only one region must hurt cross-region traffic
/// less than slowing everything.
#[test]
fn regional_slowdown_is_milder_than_global() {
    let latency_with = |setup: &dyn Fn(&mut Simulator)| {
        let mut sim = Simulator::new(base().with_traffic(TrafficPattern::Uniform, 0.08)).unwrap();
        setup(&mut sim);
        let m = sim.run_epoch(4000);
        m.avg_packet_latency
    };
    let all_fast = latency_with(&|_| {});
    let one_slow = latency_with(&|s| s.set_region_level(0, 0).unwrap());
    let all_slow = latency_with(&|s| s.set_all_levels(0).unwrap());
    assert!(one_slow > all_fast, "slowing a region must cost latency");
    assert!(
        all_slow > one_slow,
        "slowing everything must cost more: {all_slow} vs {one_slow}"
    );
}

/// The latency histogram percentiles are consistent with the mean.
#[test]
fn percentiles_bracket_the_mean() {
    let mut sim = Simulator::new(base().with_traffic(TrafficPattern::Uniform, 0.15)).unwrap();
    sim.run(5000);
    let s = sim.stats();
    let p50 = s.latency_percentile(0.5) as f64;
    let p99 = s.latency_percentile(0.99) as f64;
    let mean = s.avg_packet_latency();
    assert!(p99 >= p50);
    // The mean lies within the histogram's overall span.
    assert!(
        mean <= p99 * 1.5 && mean >= 2.0,
        "mean {mean} vs p50 {p50} p99 {p99}"
    );
}

/// Golden pin of a 16×16 run: exact counters and f64 sums on a
/// uniform-load mesh. Any change to the per-node phase, the link exchange
/// or the count-and-price commit order shows up here as a concrete diff.
#[test]
fn mesh_16x16_golden_metrics() {
    let cfg = SimConfig::default()
        .with_size(16, 16)
        .with_traffic(TrafficPattern::Uniform, 0.10)
        .with_seed(42);
    let mut sim = Simulator::new(cfg).expect("valid 16x16 config");
    sim.run(1_000);
    let s = sim.stats();
    assert_eq!(
        (
            s.offered_packets,
            s.injected_flits,
            s.ejected_flits,
            s.ejected_packets,
            s.dropped_flits,
        ),
        (4_997, 24_937, 24_074, 4_804, 0),
        "16x16 counters drifted"
    );
    assert_eq!(
        (s.sum_packet_latency, s.sum_network_latency, s.sum_hops),
        (207_681.0, 206_179.0, 50_823.0),
        "16x16 latency sums drifted"
    );
    assert_eq!(
        s.energy.total_pj(),
        1_478_453.3499950438,
        "16x16 energy drifted"
    );
}

/// Golden pin of the two order-sensitive energy sums on an 8×8 mesh whose
/// four regions sit at three different V/F levels, with one seeded link
/// fault: `lenU1-8` traffic under XY for both switch-allocation release
/// rules, and the `sweep_cold` point where switch allocation sees the most
/// requesting output ports (odd-even routing, tornado 0.20, `PerFlit`).
/// Every router's counts are priced at its own region's scale in node
/// order, so pricing a router at a neighbour's scale, or out of order, or
/// granting output ports out of port order, moves these bits.
#[test]
fn mixed_level_energy_golden_bits() {
    use noc_sim::{FaultPlan, LengthSpec, SwitchArb, Topology};
    let run = |routing: RoutingAlgorithm, phase: WorkloadPhase, arb: SwitchArb| {
        let cfg = SimConfig::default()
            .with_size(8, 8)
            .with_regions(2, 2)
            .with_routing(routing)
            .with_workload(WorkloadSpec::new(vec![phase]))
            .with_faults(FaultPlan::random_links(
                &Topology::mesh(8, 8),
                1,
                9,
                300,
                None,
            ))
            .with_switch_arb(arb)
            .with_seed(17);
        let mut sim = Simulator::new(cfg).expect("valid config");
        // Regions 0 and 1 slow down; 2 and 3 stay at the top level.
        for (region, level) in [(0, 0), (1, 1)] {
            sim.set_region_level(region, level).expect("valid level");
        }
        sim.run(2_000);
        let s = sim.stats();
        (
            s.energy.dynamic_pj().to_bits(),
            s.energy.leakage_pj().to_bits(),
            s.energy.events(),
            s.node_forwarded.iter().sum::<u64>(),
        )
    };
    let len_u1_8 = WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.08, 0)
        .with_length(LengthSpec::Uniform { min: 1, max: 8 });
    let tornado = WorkloadPhase::bernoulli(TrafficPattern::Tornado, 0.20, 0);
    // (dynamic_pj bits, leakage_pj bits, events, Σ node_forwarded)
    for (routing, phase, arb, golden) in [
        (
            RoutingAlgorithm::Xy,
            len_u1_8.clone(),
            SwitchArb::PerFlit,
            (
                0x4109_21f9_b810_ffe8,
                0x40ea_d8ba_2e8b_ccce,
                330_777,
                52_704,
            ),
        ),
        (
            RoutingAlgorithm::Xy,
            len_u1_8,
            SwitchArb::PerPacket,
            (
                0x4109_1ef1_ebb0_861c,
                0x40ea_d8ba_2e8b_ccce,
                330_556,
                52_670,
            ),
        ),
        (
            RoutingAlgorithm::OddEven,
            tornado,
            SwitchArb::PerFlit,
            (
                0x4115_d5a0_faec_290a,
                0x40ea_d8ba_2e8b_ccce,
                535_576,
                81_704,
            ),
        ),
    ] {
        assert_eq!(
            run(routing, phase, arb),
            golden,
            "{routing:?} {arb:?} energy bits drifted"
        );
    }
}

/// `SimConfig::partitions` is inert: it still parses from old JSON and
/// still validates, but a config carrying `partitions: 4` — built or
/// parsed — runs byte-identical to the default.
#[test]
fn partitions_field_is_ignored() {
    let run = |cfg: SimConfig| {
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(500);
        serde_json::to_string(sim.stats()).expect("stats serialize")
    };
    let json = serde_json::to_string(&SimConfig::default()).expect("config serializes");
    let old = json.replace("\"partitions\":1", "\"partitions\":4");
    assert_ne!(old, json, "the field must serialize");
    let parsed: SimConfig = serde_json::from_str(&old).expect("old config parses");
    assert_eq!(parsed.partitions, 4);
    let reference = run(SimConfig::default());
    assert_eq!(run(parsed), reference, "parsed field changed the stats");
    assert_eq!(
        run(SimConfig::default().with_partitions(4)),
        reference,
        "built field changed the stats"
    );
}

/// Golden pin of clock gating below nominal frequency on a 4×4 mesh whose
/// regions start at levels `[1, 0, 2, 0]`, with a throttle emergency on
/// region 2 mid-run, a transient router fault in slowed region 1 and a
/// transient link fault, under uniform traffic — with the worklist and
/// with every router stepped. A healed router resumes from the clock phase
/// it froze at when it went down, not from its region's, so re-attaching
/// it to its region's phase moves these numbers.
#[test]
fn below_nominal_clocks_with_faults_golden() {
    use noc_sim::{FaultEvent, FaultPlan, FaultTarget, Port, ThrottleEvent};
    let faults = FaultPlan::new(vec![
        FaultEvent {
            start: 200,
            duration: Some(97),
            target: FaultTarget::Router { node: NodeId(6) },
        },
        FaultEvent {
            start: 400,
            duration: Some(150),
            target: FaultTarget::Link {
                node: NodeId(9),
                port: Port::East,
            },
        },
    ])
    .expect("valid plan");
    let cfg = base()
        .with_traffic(TrafficPattern::Uniform, 0.08)
        .with_throttles(vec![ThrottleEvent {
            start: 300,
            duration: 250,
            region: 2,
            level: 0,
        }])
        .with_faults(faults)
        .with_seed(31);
    let run = |step_all: bool| {
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        sim.set_step_all(step_all);
        for (region, level) in [1, 0, 2, 0].into_iter().enumerate() {
            sim.set_region_level(region, level).expect("valid level");
        }
        sim.run(1_000);
        let s = sim.stats();
        (
            s.energy.dynamic_pj().to_bits(),
            s.energy.leakage_pj().to_bits(),
            s.sum_packet_latency.to_bits(),
            s.ejected_flits,
            s.dropped_packets,
        )
    };
    // (dynamic_pj bits, leakage_pj bits, Σ packet latency bits, ejected
    // flits, dropped packets)
    let golden = (
        0x40be_6626_817b_24fe,
        0x40b4_7ba0_94f2_098c,
        0x40bc_2f00_0000_0000,
        1_052,
        15,
    );
    for step_all in [false, true] {
        assert_eq!(run(step_all), golden, "step_all={step_all}: drifted");
    }
}
