//! Differential pyramid for multi-flit wormhole switching and table routing.
//!
//! Three layers of guarantees:
//!
//! 1. **Equivalence floor** — for single-flit packets, per-packet switch
//!    allocation is byte-identical to the legacy per-flit mode (every grant
//!    is a head-and-tail, so the output-port hold is acquired and released
//!    within one grant). The legacy 8×8 uniform@0.10 single-flit report is
//!    pinned byte-for-byte against its wormhole twin.
//! 2. **Liveness + determinism sweep** — a proptest over routing family
//!    (including table-driven k-path routing), topology kind, packet-length
//!    distribution, fault count, and worklist on/off: every offered packet
//!    is delivered or counted dropped after a full drain (no wedges), and
//!    both worklist modes serialize to the same bytes.
//! 3. **Golden pin** — a multi-flit 4×4 per-packet run nailed to exact
//!    packet/flit/latency/energy numbers, so wormhole behavior cannot
//!    drift silently.

use noc_sim::{
    FaultPlan, LengthSpec, RoutingAlgorithm, SimConfig, Simulator, StatsCollector, SwitchArb,
    Topology, TopologyKind, TrafficPattern, TrafficSpec, WorkloadPhase, WorkloadSpec,
};
use proptest::prelude::*;

/// Run `cfg` for `cycles` loaded cycles under the given worklist mode, then stop offering and drain to empty within a hard
/// budget. Panics if the network wedges.
fn drain_run(cfg: &SimConfig, step_all: bool, cycles: u64) -> StatsCollector {
    let mut sim = Simulator::new(cfg.clone()).expect("valid config");
    sim.set_step_all(step_all);
    sim.run(cycles);
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    let mut budget = 30_000u64;
    while sim.network().in_flight() > 0 {
        assert!(
            budget > 0,
            "wormhole fabric wedged with flits in flight (step_all={step_all})"
        );
        sim.run(100);
        budget = budget.saturating_sub(100);
    }
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The liveness + determinism sweep. Conservation after a full drain:
    /// `offered == ejected + dropped` packets — the wormhole hold/release
    /// protocol must never wedge an output port, under faults, table
    /// recomputes, and every length distribution. Determinism: worklist on
    /// and off serialize to identical bytes.
    #[test]
    fn wormhole_runs_drain_and_are_byte_identical(
        seed in 0u64..10_000,
        torus in any::<bool>(),
        route_sel in 0usize..3,
        len_sel in 0usize..4,
        num_faults in 0usize..3,
        per_packet in any::<bool>(),
    ) {
        let routing = if torus {
            [
                RoutingAlgorithm::TorusDor,
                RoutingAlgorithm::TorusMinAdaptive,
                RoutingAlgorithm::Table,
            ][route_sel]
        } else {
            [
                RoutingAlgorithm::Xy,
                RoutingAlgorithm::OddEven,
                RoutingAlgorithm::Table,
            ][route_sel]
        };
        let length = [
            None,
            Some(LengthSpec::fixed(4)),
            Some(LengthSpec::Uniform { min: 1, max: 8 }),
            Some(LengthSpec::Bimodal { short: 1, long: 8, long_pct: 20 }),
        ][len_sel];
        let mut phase = WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.08, 0);
        if let Some(spec) = length {
            phase = phase.with_length(spec);
        }
        let mut cfg = SimConfig::default()
            .with_size(8, 8)
            .with_regions(2, 2)
            .with_workload(WorkloadSpec::new(vec![phase]))
            .with_routing(routing)
            .with_switch_arb(if per_packet {
                SwitchArb::PerPacket
            } else {
                SwitchArb::PerFlit
            })
            .with_seed(seed);
        cfg.kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
        if num_faults > 0 {
            let topo = match cfg.kind {
                TopologyKind::Mesh => Topology::mesh(8, 8),
                TopologyKind::Torus => Topology::torus(8, 8),
            };
            cfg = cfg.with_faults(FaultPlan::random_links(
                &topo,
                num_faults,
                seed ^ 0x5EED,
                50,
                None,
            ));
        }
        let reference = drain_run(&cfg, false, 500);
        // Conservation: after a clean drain every offered packet is
        // terminal — delivered or counted dropped.
        prop_assert_eq!(
            reference.offered_packets,
            reference.ejected_packets + reference.dropped_packets,
            "packet leaked: offered {} != ejected {} + dropped {}",
            reference.offered_packets,
            reference.ejected_packets,
            reference.dropped_packets
        );
        prop_assert!(
            reference.ejected_flits + reference.dropped_flits >= reference.injected_flits,
            "flit leaked"
        );
        prop_assert!(reference.offered_packets > 0, "sweep point must offer traffic");
        let reference_bytes = serde_json::to_string(&reference).expect("stats serialize");
        let twin = drain_run(&cfg, true, 500);
        let twin_bytes = serde_json::to_string(&twin).expect("stats serialize");
        prop_assert_eq!(&twin_bytes, &reference_bytes, "step-everyone diverged");
    }
}

/// Satellite pin: with single-flit packets, `PerPacket` switch allocation
/// reproduces the legacy single-flit 8×8 uniform@0.10 run byte-for-byte —
/// and attaching an explicit `len1` length spec (which consumes no RNG
/// draws) changes nothing either. Wormhole mode is a strict superset of
/// today's behavior, not a fork.
#[test]
fn single_flit_wormhole_pins_legacy_bytes() {
    let run = |arb: SwitchArb, length: Option<LengthSpec>| {
        let mut phase = WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.10, 0);
        if let Some(spec) = length {
            phase = phase.with_length(spec);
        }
        let cfg = SimConfig::default()
            .with_packet_len(1)
            .with_workload(WorkloadSpec::new(vec![phase]))
            .with_switch_arb(arb);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(2_000);
        serde_json::to_string(sim.stats()).expect("stats serialize")
    };
    let legacy = run(SwitchArb::PerFlit, None);
    assert_eq!(
        run(SwitchArb::PerPacket, None),
        legacy,
        "single-flit per-packet arbitration must be byte-identical to per-flit"
    );
    assert_eq!(
        run(SwitchArb::PerPacket, Some(LengthSpec::fixed(1))),
        legacy,
        "an explicit len1 spec must not perturb the RNG stream or the bytes"
    );
}

/// Golden pin of the multi-flit wormhole point: 4×4 mesh, uniform at 0.10
/// flits/node/cycle, 5-flit packets, per-packet switch allocation. Exact
/// counters, latency sums, and the f64 energy total — plus byte-equality
/// across worklist modes on the same point.
#[test]
fn multi_flit_4x4_perpacket_golden_metrics() {
    let cfg = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.10)
        .with_switch_arb(SwitchArb::PerPacket)
        .with_seed(42);
    let run = |step_all: bool| {
        let mut sim = Simulator::new(cfg.clone()).expect("valid config");
        sim.set_step_all(step_all);
        sim.run(2_000);
        sim.stats().clone()
    };
    let s = run(false);
    assert_eq!(
        (
            s.offered_packets,
            s.injected_flits,
            s.injected_packets,
            s.ejected_flits,
            s.ejected_packets,
            s.dropped_flits,
        ),
        (629, 3_136, 627, 3_115, 623, 0),
        "multi-flit 4x4 per-packet counters drifted"
    );
    assert_eq!(
        (s.sum_packet_latency, s.sum_network_latency, s.sum_hops),
        (9_790.0, 9_632.0, 1_660.0),
        "multi-flit 4x4 per-packet latency sums drifted"
    );
    assert_eq!(
        s.energy.total_pj(),
        66_608.74999998449,
        "multi-flit 4x4 per-packet energy drifted"
    );
    assert_eq!(
        serde_json::to_string(&run(true)).unwrap(),
        serde_json::to_string(&s).unwrap(),
        "golden point diverged under step-everyone"
    );
}

/// Long packets under per-packet arbitration must show head-of-line
/// blocking that per-flit interleaving hides: same workload, same seed,
/// the per-packet run cannot beat per-flit on mean latency, and both
/// stay live.
#[test]
fn per_packet_arbitration_exposes_hol_blocking() {
    let run = |arb: SwitchArb| {
        let cfg = SimConfig::default()
            .with_size(8, 8)
            .with_packet_len(8)
            .with_traffic(TrafficPattern::Uniform, 0.20)
            .with_switch_arb(arb)
            .with_seed(7);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run_classic(500, 2_000, 10_000)
    };
    let perflit = run(SwitchArb::PerFlit);
    let perpacket = run(SwitchArb::PerPacket);
    assert!(perflit.window.latency_samples > 100);
    assert!(perpacket.window.latency_samples > 100);
    assert!(
        perpacket.window.avg_packet_latency >= perflit.window.avg_packet_latency,
        "holding output ports head→tail cannot reduce latency: perpacket {} < perflit {}",
        perpacket.window.avg_packet_latency,
        perflit.window.avg_packet_latency
    );
}

/// Table routing survives a permanent link fault: the tables are rebuilt at
/// the fault boundary, an explicit all-to-all load drains completely, and
/// the k-path spread saves the overwhelming majority of pairs (only pairs
/// whose every West-First-legal minimal path crosses the dead wire drop).
#[test]
fn table_routing_drains_all_to_all_across_a_permanent_fault() {
    use noc_sim::{FaultEvent, FaultTarget, Network, NodeId, Packet, PacketId, Port};
    let cfg = SimConfig::default()
        .with_size(8, 8)
        .with_routing(RoutingAlgorithm::Table)
        .with_switch_arb(SwitchArb::PerPacket)
        .with_packet_len(2)
        .with_faults(
            FaultPlan::new(vec![FaultEvent {
                start: 0,
                duration: None,
                target: FaultTarget::Link {
                    node: NodeId(5),
                    port: Port::East,
                },
            }])
            .unwrap(),
        );
    let mut net = Network::new(&cfg).expect("valid faulted config");
    let mut stats = StatsCollector::new(net.regions().num_regions());
    let mut offered = 0u64;
    for src in 0..64usize {
        for dst in 0..64usize {
            if src != dst {
                net.offer(
                    vec![Packet {
                        id: PacketId(offered),
                        src: NodeId(src),
                        dst: NodeId(dst),
                        len_flits: 2,
                        created_at: 0,
                    }],
                    &mut stats,
                );
                offered += 1;
            }
        }
    }
    let mut budget = 60_000u32;
    while net.in_flight() > 0 {
        assert!(budget > 0, "faulted table-routed mesh wedged");
        net.step(&mut stats);
        budget -= 1;
    }
    assert_eq!(
        stats.ejected_packets + stats.dropped_packets,
        offered,
        "every all-to-all packet must be delivered or counted dropped"
    );
    assert!(
        stats.dropped_packets * 10 < offered,
        "k-path tables must route around the fault for most pairs: {} of {} dropped",
        stats.dropped_packets,
        offered
    );
    // The rebuilt tables agree: only pairs disconnected under West-First
    // minimal routing lost their paths.
    let tables = net.routing_tables().expect("table routing keeps tables");
    assert!(tables.paths(NodeId(5), NodeId(6)).is_empty());
    assert!(!tables.paths(NodeId(5), NodeId(14)).is_empty());
}

/// A timed fault heals and the tables recompute back to full coverage: the
/// network rebuilds on *every* liveness change, not just onsets. Conservation
/// holds across the fault window, and after the heal every pair is routable
/// again.
#[test]
fn table_routing_recomputes_on_fault_heal() {
    use noc_sim::{FaultEvent, FaultTarget, NodeId, Port};
    let cfg = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.08)
        .with_routing(RoutingAlgorithm::Table)
        .with_switch_arb(SwitchArb::PerPacket)
        .with_faults(
            FaultPlan::new(vec![FaultEvent {
                start: 200,
                duration: Some(400),
                target: FaultTarget::Link {
                    node: NodeId(5),
                    port: Port::East,
                },
            }])
            .unwrap(),
        )
        .with_seed(11);
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.run(2_000);
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    let mut budget = 10_000u64;
    while sim.network().in_flight() > 0 {
        assert!(budget > 0, "healed table-routed mesh wedged");
        sim.run(100);
        budget = budget.saturating_sub(100);
    }
    let s = sim.stats();
    assert_eq!(
        s.offered_packets,
        s.ejected_packets + s.dropped_packets,
        "conservation across the fault window"
    );
    // Post-heal tables have full pair coverage again.
    let topo = sim.network().topology().clone();
    let tables = sim
        .network()
        .routing_tables()
        .expect("table routing keeps tables");
    for src in topo.nodes() {
        for dst in topo.nodes() {
            if src != dst {
                assert!(
                    !tables.paths(src, dst).is_empty(),
                    "{src}->{dst} must be routable after the heal"
                );
            }
        }
    }
}

/// Runtime `set_routing(Table)` builds tables on the fly (against the live
/// fault set) and the run stays conservative; switching away drops them.
#[test]
fn runtime_switch_to_table_routing_builds_tables() {
    let mut sim = Simulator::new(
        SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_traffic(TrafficPattern::Uniform, 0.08)
            .with_seed(5),
    )
    .expect("valid config");
    assert!(sim.network().routing_tables().is_none());
    sim.run(500);
    sim.set_routing(RoutingAlgorithm::Table).expect("table ok");
    assert!(sim.network().routing_tables().is_some());
    sim.run(1_000);
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    let mut budget = 10_000u64;
    while sim.network().in_flight() > 0 {
        assert!(budget > 0, "table-routed mesh wedged after runtime switch");
        sim.run(100);
        budget = budget.saturating_sub(100);
    }
    let s = sim.stats();
    assert_eq!(s.offered_packets, s.ejected_packets + s.dropped_packets);
    assert_eq!(s.dropped_packets, 0, "healthy fabric drops nothing");
    sim.set_routing(RoutingAlgorithm::Xy).expect("xy ok");
    assert!(sim.network().routing_tables().is_none());
}
