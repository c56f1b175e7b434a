//! Property-based tests of the simulator's core invariants.

use noc_sim::dvfs::ClockGate;
use noc_sim::flit::PacketId;
use noc_sim::routing::walk_route;
use noc_sim::{
    FaultEvent, FaultPlan, FaultTarget, InjectionProcess, LengthSpec, NodeId, Packet, Port,
    RoutingAlgorithm, SimConfig, Simulator, StatsCollector, Topology, TopologyKind, TrafficPattern,
    WorkloadPhase, WorkloadSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw an arbitrary *valid* workload spec: 1–4 phases over every pattern
/// flavor (hotspot parameters included), every injection process and every
/// length form (or none), with full-range parameters and an optional
/// unbounded final phase.
fn arb_workload(seed: u64) -> WorkloadSpec {
    let mut r = StdRng::seed_from_u64(seed);
    let n = r.gen_range(1usize..5);
    let phases = (0..n)
        .map(|i| {
            let pattern = if r.gen_range(0usize..8) < 7 {
                TrafficPattern::NAMED[r.gen_range(0usize..7)].1.clone()
            } else {
                TrafficPattern::Hotspot {
                    hotspots: (0..r.gen_range(1usize..4))
                        .map(|_| NodeId(r.gen_range(0usize..64)))
                        .collect(),
                    fraction: r.gen_range(0.0f64..=1.0),
                }
            };
            let process = match r.gen_range(0usize..3) {
                0 => InjectionProcess::Bernoulli {
                    rate: r.gen_range(0.0f64..=1.0),
                },
                1 => InjectionProcess::Bursty {
                    rate_on: r.gen_range(0.0f64..=1.0),
                    switch: r.gen_range(0.001f64..=1.0),
                },
                _ => {
                    let period = r.gen_range(1u64..10_000);
                    InjectionProcess::Periodic {
                        rate: r.gen_range(0.0f64..=1.0),
                        period,
                        on: r.gen_range(1u64..=period),
                    }
                }
            };
            let length = match r.gen_range(0usize..4) {
                0 => None,
                1 => Some(LengthSpec::Fixed {
                    flits: r.gen_range(1u32..=u32::MAX),
                }),
                2 => {
                    let min = r.gen_range(1u32..=u32::MAX);
                    let max = r.gen_range(min..=u32::MAX);
                    Some(LengthSpec::Uniform { min, max })
                }
                _ => {
                    let short = r.gen_range(1u32..=u32::MAX);
                    Some(LengthSpec::Bimodal {
                        short,
                        long: r.gen_range(short..=u32::MAX),
                        long_pct: r.gen_range(0u32..=100),
                    })
                }
            };
            let cycles = if i + 1 == n && r.gen::<bool>() {
                0 // unbounded terminal hold
            } else {
                r.gen_range(1u64..100_000)
            };
            WorkloadPhase {
                pattern,
                process,
                cycles,
                length,
            }
        })
        .collect();
    WorkloadSpec::new(phases)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Torus DOR reaches every destination minimally on arbitrary torus
    /// shapes (wrap-aware distance).
    #[test]
    fn torus_dor_minimal(w in 2usize..7, h in 2usize..7, src in 0usize..36, dst in 0usize..36) {
        let topo = Topology::torus(w, h);
        let n = topo.num_nodes();
        let (src, dst) = (NodeId(src % n), NodeId(dst % n));
        let path = walk_route(RoutingAlgorithm::TorusDor, &topo, src, dst, |_| 0);
        prop_assert_eq!(path.len() - 1, topo.distance(src, dst));
    }

    /// The clock gate activates round(N·f) times over N cycles for any
    /// frequency scale.
    #[test]
    fn clock_gate_rate_is_exact(scale_pct in 1u32..=100, cycles in 100u64..2000) {
        let scale = scale_pct as f64 / 100.0;
        let mut g = ClockGate::new(scale);
        let active = (0..cycles).filter(|_| g.tick()).count() as f64;
        let expected = cycles as f64 * scale;
        prop_assert!((active - expected).abs() <= 1.0,
            "active {active} vs expected {expected}");
    }

    /// Torus networks with dateline VC partitioning drain all-to-all
    /// traffic (no wrap-around credit deadlock) for random VC/buffer shapes.
    #[test]
    fn torus_drains_all_to_all(vcs in 1usize..3, depth in 1usize..4, plen in 1u32..5) {
        let mut cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_routing(RoutingAlgorithm::TorusDor)
            .with_vcs(vcs * 2, depth) // partition needs an even VC count
            .with_packet_len(plen)
            .with_traffic(TrafficPattern::Uniform, 0.0);
        cfg.kind = TopologyKind::Torus;
        // Bypass the generator: offer a deterministic all-to-all batch
        // directly at the network layer.
        let mut net = noc_sim::Network::new(&cfg).expect("valid config");
        let mut stats = StatsCollector::new(net.regions().num_regions());
        let mut id = 0u64;
        let mut packets = Vec::new();
        for s in 0..16usize {
            for d in 0..16usize {
                if s != d {
                    packets.push(Packet {
                        id: PacketId(id),
                        src: NodeId(s),
                        dst: NodeId(d),
                        len_flits: plen,
                        created_at: 0,
                    });
                    id += 1;
                }
            }
        }
        let total = packets.len() as u64;
        net.offer(packets, &mut stats);
        for _ in 0..30_000 {
            if net.in_flight() == 0 {
                break;
            }
            net.step(&mut stats);
        }
        prop_assert_eq!(net.in_flight(), 0, "torus deadlock: flits stuck");
        prop_assert_eq!(stats.ejected_packets, total);
        prop_assert_eq!(stats.ejected_flits, total * plen as u64);
    }

    /// Every packet record is freed at its packet's terminal event: an
    /// all-to-all burst on a 4x4 fabric, under every routing and packet
    /// lengths 1-6, with a transient link fault cutting through it (purges,
    /// drop drains, a heal), drains to an empty packet table.
    #[test]
    fn drains_to_zero_live_records(
        r in 0usize..RoutingAlgorithm::NAMED.len(),
        len in 1u32..=6,
        start in 0u64..60,
        node in 0usize..15,
    ) {
        let routing = RoutingAlgorithm::NAMED[r].1;
        let kind = if routing.supports(TopologyKind::Mesh) {
            TopologyKind::Mesh
        } else {
            TopologyKind::Torus
        };
        // A link with an East neighbour on either topology.
        let node = NodeId(node - usize::from(node % 4 == 3));
        let fault = FaultEvent {
            start,
            duration: Some(100),
            target: FaultTarget::Link { node, port: Port::East },
        };
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_topology(kind)
            .with_routing(routing)
            .with_faults(FaultPlan::new(vec![fault]).unwrap());
        let mut net = noc_sim::Network::new(&cfg).expect("valid config");
        let mut stats = StatsCollector::new(net.regions().num_regions());
        let pairs = (0..16usize).flat_map(|s| (0..16).map(move |d| (s, d)));
        let packets: Vec<_> = (pairs.filter(|(s, d)| s != d).enumerate())
            .map(|(id, (s, d))| Packet {
                id: PacketId(id as u64),
                src: NodeId(s),
                dst: NodeId(d),
                len_flits: len,
                created_at: 0,
            })
            .collect();
        net.offer(packets, &mut stats);
        prop_assert_eq!(net.live_packets(), 240);
        for _ in 0..30_000 {
            if net.in_flight() == 0 {
                break;
            }
            net.step(&mut stats);
        }
        prop_assert_eq!(net.in_flight(), 0, "{:?} wedged", routing);
        prop_assert_eq!(stats.ejected_packets + stats.dropped_packets, 240);
        prop_assert_eq!(net.live_packets(), 0, "{:?}: records leaked", routing);
    }

    /// The canonical workload grammar is lossless: spec → label → parse is
    /// the identity (and hence label → parse → label too), for arbitrary
    /// valid specs with full-range `f64` parameters. This is the guarantee
    /// that sweep labels, CLI flags, and report keys cannot drift from the
    /// specs they name.
    #[test]
    fn workload_label_grammar_roundtrips(seed in 0u64..1_000_000) {
        let spec = arb_workload(seed);
        prop_assert!(spec.shape_check().is_ok(), "generator must emit valid specs");
        let label = spec.label();
        let parsed = WorkloadSpec::parse(&label)
            .unwrap_or_else(|e| panic!("`{label}` failed to parse: {e}"));
        prop_assert_eq!(&parsed, &spec, "parse must invert label: {}", label);
        prop_assert_eq!(parsed.label(), label);
    }

    /// Workload specs survive a serde JSON round-trip exactly, including the
    /// `TrafficSpec` wrapper.
    #[test]
    fn workload_spec_json_roundtrips(seed in 0u64..1_000_000) {
        let spec = arb_workload(seed);
        let json = serde_json::to_string(&spec).expect("spec serializes");
        let back: WorkloadSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{json}: {e}"));
        prop_assert_eq!(&back, &spec);

        let wrapped = noc_sim::TrafficSpec::Workload(spec);
        let json = serde_json::to_string(&wrapped).expect("traffic spec serializes");
        let back: noc_sim::TrafficSpec = serde_json::from_str(&json)
            .unwrap_or_else(|e| panic!("{json}: {e}"));
        prop_assert_eq!(back, wrapped);
    }

    /// Region occupancy always sums to total occupancy, and never exceeds
    /// capacity, under random load.
    #[test]
    fn occupancy_accounting_consistent(rate in 0.05f64..0.4, seed in 0u64..50) {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_traffic(TrafficPattern::Uniform, rate)
            .with_seed(seed);
        let capacity = cfg.region_shape().expect("valid config").capacity;
        let mut sim = Simulator::new(cfg).expect("valid config");
        for _ in 0..10 {
            sim.run(50);
            let net = sim.network();
            let region: usize = net.region_occupancy().iter().sum();
            prop_assert_eq!(region, net.occupancy());
            for (occ, &cap) in net.region_occupancy().iter().zip(&capacity) {
                prop_assert!(*occ <= cap);
            }
        }
    }
}

/// Packet completion accounting under heavy load: each packet completes
/// exactly once (its tail flit defines completion), so ejected flits are an
/// exact multiple of the packet length.
#[test]
fn packets_complete_exactly_once() {
    let cfg = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.30)
        .with_seed(9);
    let mut sim = Simulator::new(cfg).expect("valid config");
    sim.run(3000);
    // Stop traffic and drain so every in-flight packet finishes.
    sim.set_traffic(noc_sim::TrafficSpec::stationary(
        TrafficPattern::Uniform,
        0.0,
    ))
    .expect("valid spec");
    for _ in 0..200 {
        if sim.network().in_flight() == 0 {
            break;
        }
        sim.run(50);
    }
    let s = sim.stats();
    // Tail flits define completion: after draining, the flit count must
    // equal packets × length exactly (5-flit packets).
    assert!(s.ejected_packets > 100, "enough packets must complete");
    assert_eq!(s.ejected_flits % 5, 0, "whole packets only");
    assert_eq!(s.ejected_flits / 5, s.ejected_packets);
}
