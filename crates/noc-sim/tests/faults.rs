//! Fault-injection liveness and determinism guarantees.
//!
//! The acceptance bar for degraded-fabric operation: under any single link
//! fault, every injected packet is either delivered or explicitly counted in
//! the drop/unreachable bucket within a bounded cycle budget — the network
//! never wedges. The liveness smoke below drives every routing algorithm on
//! 4×4 and 8×8 fabrics, healthy and faulted, and checks the packet
//! conservation identity `offered = ejected + dropped + still-queued`
//! after a full drain.

use noc_sim::{
    FaultEvent, FaultPlan, FaultTarget, Network, NodeId, Packet, PacketId, Port, RoutingAlgorithm,
    SimConfig, Simulator, StatsCollector, TopologyKind, TrafficPattern, TrafficSpec,
};

/// All algorithm/topology pairings the simulator supports.
fn all_routings() -> Vec<(RoutingAlgorithm, TopologyKind)> {
    RoutingAlgorithm::NAMED
        .iter()
        .map(|&(_, alg)| {
            let kind = if alg.supports(TopologyKind::Mesh) {
                TopologyKind::Mesh
            } else {
                TopologyKind::Torus
            };
            (alg, kind)
        })
        .collect()
}

fn single_link_fault(kind: TopologyKind) -> FaultPlan {
    // An interior east-west link both mesh sizes have: 5 -> 6 works on 4x4
    // (row 1) and 8x8 (row 0); tori wrap but the link exists all the same.
    let _ = kind;
    FaultPlan::new(vec![FaultEvent {
        start: 0,
        duration: None,
        target: FaultTarget::Link {
            node: NodeId(5),
            port: Port::East,
        },
    }])
    .unwrap()
}

/// Drive `cfg` under uniform load, then stop traffic and drain. Panics if
/// the network wedges or a packet goes unaccounted.
fn assert_delivers_or_drops(mut cfg: SimConfig, what: &str) {
    cfg.seed = 11;
    let mut sim = Simulator::new(cfg).expect("valid faulted config");
    sim.run(2_000);
    // Stop offering new packets, then drain within a hard budget.
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    let mut budget = 4_000u64;
    while sim.network().in_flight() > 0 {
        assert!(budget > 0, "{what}: network wedged with flits in flight");
        sim.run(100);
        budget = budget.saturating_sub(100);
    }
    let s = sim.stats();
    assert!(
        s.offered_packets > 50,
        "{what}: too little traffic to judge"
    );
    // Queued-but-never-injected packets at live sources survive the drain
    // (rate 0 still injects the backlog, so after a clean drain the queues
    // are empty and every offered packet is terminal).
    assert_eq!(
        s.offered_packets,
        s.ejected_packets + s.dropped_packets,
        "{what}: every offered packet must be delivered or counted dropped \
         (offered {}, ejected {}, dropped {})",
        s.offered_packets,
        s.ejected_packets,
        s.dropped_packets
    );
    assert_eq!(
        sim.network().live_packets(),
        0,
        "{what}: every terminal event frees its packet record"
    );
    // Flit-level conservation: every injected flit either ejected or was
    // dropped (dropped_flits may additionally cover never-injected flits of
    // source-dropped packets, hence >=).
    assert!(
        s.ejected_flits <= s.injected_flits,
        "{what}: cannot eject more than was injected"
    );
    assert!(
        s.ejected_flits + s.dropped_flits >= s.injected_flits,
        "{what}: injected flits leaked (injected {}, ejected {}, dropped {})",
        s.injected_flits,
        s.ejected_flits,
        s.dropped_flits
    );
}

#[test]
fn every_routing_delivers_or_drops_on_4x4() {
    for (alg, kind) in all_routings() {
        for faulted in [false, true] {
            let mut cfg = SimConfig::default()
                .with_size(4, 4)
                .with_regions(2, 2)
                .with_traffic(TrafficPattern::Uniform, 0.08)
                .with_routing(alg);
            cfg.kind = kind;
            if faulted {
                cfg = cfg.with_faults(single_link_fault(kind));
            }
            assert_delivers_or_drops(cfg, &format!("4x4/{:?}/faulted={faulted}", alg));
        }
    }
}

#[test]
fn every_routing_delivers_or_drops_on_8x8() {
    for (alg, kind) in all_routings() {
        for faulted in [false, true] {
            let mut cfg = SimConfig::default()
                .with_size(8, 8)
                .with_traffic(TrafficPattern::Uniform, 0.06)
                .with_routing(alg);
            cfg.kind = kind;
            if faulted {
                cfg = cfg.with_faults(single_link_fault(kind));
            }
            assert_delivers_or_drops(cfg, &format!("8x8/{:?}/faulted={faulted}", alg));
        }
    }
}

/// Every torus-capable routing, healthy and faulted, on both fabric sizes.
/// The faulted runs kill a *wrap* link — the torus's defining wire — so the
/// dateline path is exercised, not just the mesh-like interior.
#[test]
fn every_torus_routing_delivers_or_drops_with_a_dead_wrap_link() {
    let torus_routings: Vec<RoutingAlgorithm> = RoutingAlgorithm::NAMED
        .iter()
        .map(|&(_, alg)| alg)
        .filter(|alg| alg.supports(TopologyKind::Torus))
        .collect();
    assert!(
        torus_routings.len() >= 2,
        "DOR and minimal-adaptive at least"
    );
    for (w, rate) in [(4usize, 0.08), (8usize, 0.06)] {
        // The east wrap wire out of the top-right corner.
        let wrap = FaultPlan::new(vec![FaultEvent {
            start: 0,
            duration: None,
            target: FaultTarget::Link {
                node: NodeId(w - 1),
                port: Port::East,
            },
        }])
        .unwrap();
        for &alg in &torus_routings {
            for faulted in [false, true] {
                let mut cfg = SimConfig::default()
                    .with_size(w, w)
                    .with_regions(2, 2)
                    .with_traffic(TrafficPattern::Uniform, rate)
                    .with_routing(alg);
                cfg.kind = TopologyKind::Torus;
                if faulted {
                    cfg = cfg.with_faults(wrap.clone());
                }
                assert_delivers_or_drops(cfg, &format!("{w}x{w} torus/{alg:?}/faulted={faulted}"));
            }
        }
    }
}

/// The tentpole acceptance bar: minimal-adaptive torus routing drains
/// explicit all-to-all traffic on a faulted 8x8 torus — every packet
/// delivered or counted dropped, nothing wedged, and the adaptive
/// alternative saves the overwhelming majority of the traffic.
#[test]
fn adaptive_torus_drains_all_to_all_on_a_faulted_8x8() {
    use noc_sim::{Network, Packet, PacketId, StatsCollector};
    let mut cfg = SimConfig::default()
        .with_size(8, 8)
        .with_routing(RoutingAlgorithm::TorusMinAdaptive)
        .with_packet_len(2);
    cfg.kind = TopologyKind::Torus;
    // One wrap link and one interior link die before any traffic moves.
    cfg = cfg.with_faults(
        FaultPlan::new(vec![
            FaultEvent {
                start: 0,
                duration: None,
                target: FaultTarget::Link {
                    node: NodeId(7),
                    port: Port::East,
                },
            },
            FaultEvent {
                start: 0,
                duration: None,
                target: FaultTarget::Link {
                    node: NodeId(27),
                    port: Port::South,
                },
            },
        ])
        .unwrap(),
    );
    let mut net = Network::new(&cfg).expect("valid faulted torus");
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
        assert!(budget > 0, "faulted torus wedged with flits in flight");
        net.step(&mut stats);
        budget -= 1;
    }
    assert_eq!(
        stats.ejected_packets + stats.dropped_packets,
        offered,
        "every all-to-all packet must be delivered or counted dropped"
    );
    assert!(
        stats.dropped_packets * 20 < offered,
        "adaptive routing must save the vast majority: {} of {} dropped",
        stats.dropped_packets,
        offered
    );
}

/// Deterministic algorithms must actually drop across the dead link (they
/// cannot reroute), adaptive ones with a minimal alternative must save most
/// of the traffic. Both end drained either way.
#[test]
fn drops_happen_where_expected() {
    let run = |alg: RoutingAlgorithm| {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_traffic(TrafficPattern::Uniform, 0.08)
            .with_routing(alg)
            .with_faults(single_link_fault(TopologyKind::Mesh))
            .with_seed(11);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(4_000);
        let s = sim.stats();
        (s.ejected_packets, s.dropped_packets)
    };
    let (xy_ok, xy_drop) = run(RoutingAlgorithm::Xy);
    assert!(xy_drop > 0, "XY has no alternative to a dead link");
    assert!(xy_ok > 0, "unaffected node pairs still deliver");
    let (oe_ok, oe_drop) = run(RoutingAlgorithm::OddEven);
    assert!(oe_ok > 0);
    assert!(
        oe_drop < xy_drop,
        "odd-even reroutes around the fault more often than XY \
         (oe {oe_drop} vs xy {xy_drop} drops)"
    );
}

/// Same faulted scenario, same seed -> bit-identical stats. The fault path
/// must not introduce any scheduling or iteration-order nondeterminism.
#[test]
fn faulted_runs_are_deterministic() {
    let run = || {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_traffic(TrafficPattern::Uniform, 0.12)
            .with_routing(RoutingAlgorithm::WestFirst)
            .with_faults(
                FaultPlan::new(vec![
                    FaultEvent {
                        start: 100,
                        duration: Some(500),
                        target: FaultTarget::Link {
                            node: NodeId(5),
                            port: Port::East,
                        },
                    },
                    FaultEvent {
                        start: 300,
                        duration: None,
                        target: FaultTarget::Router { node: NodeId(10) },
                    },
                ])
                .unwrap(),
            )
            .with_seed(3);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(2_500);
        (
            sim.stats().injected_flits,
            sim.stats().ejected_flits,
            sim.stats().dropped_flits,
            sim.stats().dropped_packets,
            sim.stats().sum_packet_latency,
            sim.stats().energy.total_pj(),
        )
    };
    let a = run();
    assert_eq!(a, run(), "faulted runs must reproduce exactly");
    assert!(a.2 > 0, "the scenario must actually exercise drops");
}

/// Liveness at scale: a doubly-faulted 16×16 torus under minimal-adaptive
/// routing drains completely — every offered packet delivered or counted
/// dropped, nothing wedged.
#[test]
fn faulted_16x16_torus_delivers_or_drops() {
    let cfg = SimConfig::default()
        .with_size(16, 16)
        .with_topology(TopologyKind::Torus)
        .with_traffic(TrafficPattern::Uniform, 0.05)
        .with_routing(RoutingAlgorithm::TorusMinAdaptive)
        .with_seed(11)
        .with_faults(
            FaultPlan::new(vec![
                FaultEvent {
                    start: 0,
                    duration: None,
                    // A wrap link out of the east edge: exercises the dateline.
                    target: FaultTarget::Link {
                        node: NodeId(15),
                        port: Port::East,
                    },
                },
                FaultEvent {
                    start: 0,
                    duration: None,
                    // An interior southbound link, row 3 into row 4.
                    target: FaultTarget::Link {
                        node: NodeId(3 * 16 + 7),
                        port: Port::South,
                    },
                },
            ])
            .unwrap(),
        );
    let mut sim = Simulator::new(cfg).expect("valid faulted torus");
    sim.run(2_000);
    sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0))
        .expect("valid spec");
    let mut budget = 8_000u64;
    while sim.network().in_flight() > 0 {
        assert!(budget > 0, "faulted 16x16 torus wedged");
        sim.run(100);
        budget = budget.saturating_sub(100);
    }
    let s = sim.stats();
    assert!(s.offered_packets > 500, "too little traffic to judge");
    assert_eq!(
        s.offered_packets,
        s.ejected_packets + s.dropped_packets,
        "every offered packet must be delivered or counted dropped"
    );
}

/// A link that dies mid-run, under load, severs packets in flight: the
/// boundary purge must actually drop traffic, on an interior link and on
/// one out of the first row alike.
#[test]
fn mid_run_link_fault_drops_traffic() {
    for node in [NodeId(12), NodeId(4)] {
        let cfg = SimConfig::default()
            .with_traffic(TrafficPattern::Uniform, 0.10)
            .with_routing(RoutingAlgorithm::OddEven)
            .with_seed(7)
            .with_faults(
                FaultPlan::new(vec![FaultEvent {
                    start: 200,
                    duration: None,
                    target: FaultTarget::Link {
                        node,
                        port: Port::South,
                    },
                }])
                .unwrap(),
            );
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(2_000);
        assert!(
            sim.stats().dropped_flits > 0,
            "a fault on {node} South must drop traffic"
        );
    }
}

/// A 4x4 XY network under `faults`, with `packets` — `(src, dst, len)` —
/// offered at cycle 0.
fn offered(faults: Vec<FaultEvent>, packets: &[(usize, usize, u32)]) -> (Network, StatsCollector) {
    let cfg = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_faults(FaultPlan::new(faults).unwrap());
    let mut net = Network::new(&cfg).expect("valid faulted config");
    let mut stats = StatsCollector::new(net.regions().num_regions());
    let packets = packets
        .iter()
        .enumerate()
        .map(|(id, &(src, dst, len))| Packet {
            id: PacketId(id as u64),
            src: NodeId(src),
            dst: NodeId(dst),
            len_flits: len,
            created_at: 0,
        });
    net.offer(packets.collect(), &mut stats);
    assert_eq!(net.live_packets(), stats.offered_packets as usize);
    (net, stats)
}

/// Step until nothing is in flight, within `budget` cycles.
fn drain(net: &mut Network, stats: &mut StatsCollector, budget: u32) {
    for _ in 0..budget {
        if net.in_flight() == 0 {
            return;
        }
        net.step(stats);
    }
    panic!("network wedged with {} flits in flight", net.in_flight());
}

fn link(start: u64, duration: Option<u64>, node: usize, port: Port) -> FaultEvent {
    FaultEvent {
        start,
        duration,
        target: FaultTarget::Link {
            node: NodeId(node),
            port,
        },
    }
}

/// A link dies under a packet mid-crossing and heals: the purge frees the
/// severed packet's record, and a packet sent over the healed link frees
/// its own on ejection.
#[test]
fn transient_link_fault_mid_packet_leaves_no_record() {
    let (mut net, mut stats) = offered(vec![link(8, Some(40), 0, Port::East)], &[(0, 3, 8)]);
    for _ in 0..8 {
        net.step(&mut stats);
    }
    assert!(
        stats.injected_flits > 1 && net.live_packets() == 1,
        "mid-packet at the fault"
    );
    drain(&mut net, &mut stats, 100);
    assert_eq!((stats.dropped_packets, net.live_packets()), (1, 0));
    while net.cycle() < 48 {
        net.step(&mut stats);
    }
    let resend = Packet {
        id: PacketId(1),
        src: NodeId(0),
        dst: NodeId(3),
        len_flits: 8,
        created_at: 48,
    };
    net.offer(vec![resend], &mut stats);
    drain(&mut net, &mut stats, 200);
    assert_eq!((stats.ejected_packets, net.live_packets()), (1, 0));
}

/// A router dies while its source queue is mid-way through a long packet,
/// with another queued behind it: the purge frees the first record, the
/// dead source's drop the second, and an unrelated packet's ejection the
/// third.
#[test]
fn router_death_mid_injection_leaves_no_record() {
    let death = FaultEvent {
        start: 3,
        duration: None,
        target: FaultTarget::Router { node: NodeId(0) },
    };
    let (mut net, mut stats) = offered(vec![death], &[(0, 3, 16), (0, 2, 4), (12, 15, 4)]);
    for _ in 0..3 {
        net.step(&mut stats);
    }
    assert!(
        (1..16).contains(&stats.injected_flits),
        "mid-injection at the death"
    );
    drain(&mut net, &mut stats, 200);
    assert_eq!((stats.dropped_packets, stats.ejected_packets), (2, 1));
    assert_eq!(net.live_packets(), 0);
}

/// An unroutable packet (XY across a dead link) is drained flit by flit;
/// its tail's drop frees the record.
#[test]
fn drop_drain_leaves_no_record() {
    let (mut net, mut stats) = offered(vec![link(0, None, 1, Port::East)], &[(0, 3, 5), (4, 7, 3)]);
    drain(&mut net, &mut stats, 300);
    assert_eq!((stats.dropped_packets, stats.dropped_flits), (1, 5));
    assert_eq!((stats.ejected_packets, net.live_packets()), (1, 0));
}
