//! Differential guarantees of partitioned stepping.
//!
//! The tentpole claim: `Network::step` over `p` spatial tiles produces stats
//! *byte-identical* to the serial stepper, for every partition count, on
//! every topology, routing algorithm, workload, and fault plan the simulator
//! supports. The proptest below samples that whole space and diffs the full
//! `StatsCollector` (every counter, the latency histogram, the energy meter)
//! both structurally and through its serialized bytes. Golden pins and
//! liveness checks nail the property to concrete big-fabric scenarios so a
//! regression cannot hide behind generator bias.

use noc_sim::{
    FaultEvent, FaultPlan, FaultTarget, InjectionProcess, NodeId, Port, RoutingAlgorithm,
    SimConfig, Simulator, StatsCollector, Topology, TopologyKind, TrafficPattern, TrafficSpec,
    WorkloadPhase, WorkloadSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Draw an arbitrary valid workload over a `num_nodes`-node fabric: 1–3
/// phases mixing named patterns, hotspots, and every injection process.
fn arb_workload(seed: u64, num_nodes: usize) -> WorkloadSpec {
    let mut r = StdRng::seed_from_u64(seed);
    let n = r.gen_range(1usize..4);
    let phases = (0..n)
        .map(|i| {
            let pattern = if r.gen_range(0usize..8) < 7 {
                TrafficPattern::NAMED[r.gen_range(0usize..7)].1.clone()
            } else {
                TrafficPattern::Hotspot {
                    hotspots: (0..r.gen_range(1usize..4))
                        .map(|_| NodeId(r.gen_range(0usize..num_nodes)))
                        .collect(),
                    fraction: r.gen_range(0.0f64..=1.0),
                }
            };
            let process = match r.gen_range(0usize..3) {
                0 => InjectionProcess::Bernoulli {
                    rate: r.gen_range(0.0f64..=0.3),
                },
                1 => InjectionProcess::Bursty {
                    rate_on: r.gen_range(0.0f64..=0.4),
                    switch: r.gen_range(0.001f64..=1.0),
                },
                _ => {
                    let period = r.gen_range(1u64..500);
                    InjectionProcess::Periodic {
                        rate: r.gen_range(0.0f64..=0.3),
                        period,
                        on: r.gen_range(1u64..=period),
                    }
                }
            };
            let cycles = if i + 1 == n && r.gen::<bool>() {
                0 // unbounded terminal hold
            } else {
                r.gen_range(1u64..400)
            };
            WorkloadPhase::new(pattern, process, cycles)
        })
        .collect();
    WorkloadSpec::new(phases)
}

/// Run `cfg` under `partitions` tiles and return the final collector.
fn run_partitioned(cfg: &SimConfig, partitions: usize, cycles: u64) -> StatsCollector {
    let mut sim =
        Simulator::new(cfg.clone().with_partitions(partitions)).expect("valid partitioned config");
    sim.run(cycles);
    sim.stats().clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The differential harness: partitions ∈ {2, 4} vs serial, over
    /// sampled topology kind, fabric size, routing algorithm, workload
    /// spec, fault plan, and seed. Both the structural comparison and the
    /// serialized bytes must match exactly — f64 sums included, which is
    /// only possible if the commit phase prices every router's counts in
    /// node order, wherever the tile bounds fall.
    #[test]
    fn partitioned_step_is_byte_identical_to_serial(
        seed in 0u64..10_000,
        size_sel in 0usize..2,
        torus in any::<bool>(),
        route_sel in 0usize..3,
        num_faults in 0usize..3,
        wl_seed in 0u64..1_000_000,
    ) {
        // Square power-of-two fabrics only: the sampled workloads include
        // bit-reverse/shuffle (power-of-two node count) and transpose
        // (square grid) patterns, which reject anything else.
        let (w, h) = [(4usize, 4usize), (8, 8)][size_sel];
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
                RoutingAlgorithm::WestFirst,
            ][route_sel]
        };
        let mut cfg = SimConfig::default()
            .with_size(w, h)
            .with_regions(2, 2)
            .with_workload(arb_workload(wl_seed, w * h))
            .with_routing(routing)
            .with_seed(seed);
        cfg.kind = if torus { TopologyKind::Torus } else { TopologyKind::Mesh };
        if num_faults > 0 {
            let topo = match cfg.kind {
                TopologyKind::Mesh => Topology::mesh(w, h),
                TopologyKind::Torus => Topology::torus(w, h),
            };
            cfg = cfg.with_faults(FaultPlan::random_links(
                &topo,
                num_faults,
                seed ^ 0xF001,
                50,
                None,
            ));
        }
        let serial = run_partitioned(&cfg, 1, 400);
        let serial_bytes = serde_json::to_string(&serial).expect("stats serialize");
        for p in [2usize, 4] {
            let tiled = run_partitioned(&cfg, p, 400);
            prop_assert_eq!(&tiled, &serial, "partitions={} diverged structurally", p);
            let tiled_bytes = serde_json::to_string(&tiled).expect("stats serialize");
            prop_assert_eq!(
                &tiled_bytes, &serial_bytes,
                "partitions={} diverged in serialized bytes", p
            );
        }
    }
}

/// Golden pin of a partitioned 16×16 run: exact counters and f64 sums for
/// 4 tiles on a uniform-load mesh. Any change to tile carving, boundary
/// exchange, or the count-and-price commit order shows up here as a concrete
/// diff, independent of the differential property above.
#[test]
fn partitioned_16x16_golden_metrics() {
    let cfg = SimConfig::default()
        .with_size(16, 16)
        .with_traffic(TrafficPattern::Uniform, 0.10)
        .with_seed(42)
        .with_partitions(4);
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
        "partitioned 16x16 counters drifted"
    );
    assert_eq!(
        (s.sum_packet_latency, s.sum_network_latency, s.sum_hops),
        (207_681.0, 206_179.0, 50_823.0),
        "partitioned 16x16 latency sums drifted"
    );
    assert_eq!(
        s.energy.total_pj(),
        1_478_453.3499950438,
        "partitioned 16x16 energy drifted"
    );
    // And the golden run itself must equal its serial twin, bytewise.
    let serial = run_partitioned(
        &SimConfig::default()
            .with_size(16, 16)
            .with_traffic(TrafficPattern::Uniform, 0.10)
            .with_seed(42),
        1,
        1_000,
    );
    assert_eq!(s, &serial, "golden partitioned run must match serial");
}

/// Liveness at scale: a doubly-faulted 16×16 torus stepped in 4 partitions
/// drains completely — every offered packet delivered or counted dropped,
/// nothing wedged behind a tile boundary.
#[test]
fn partitioned_faulted_torus_delivers_or_drops() {
    let mut cfg = SimConfig::default()
        .with_size(16, 16)
        .with_traffic(TrafficPattern::Uniform, 0.05)
        .with_routing(RoutingAlgorithm::TorusMinAdaptive)
        .with_partitions(4)
        .with_seed(11);
    cfg.kind = TopologyKind::Torus;
    cfg = cfg.with_faults(
        FaultPlan::new(vec![
            FaultEvent {
                start: 0,
                duration: None,
                // A wrap link out of the east edge: crosses no tile
                // boundary (tiles are row bands) but exercises the dateline.
                target: FaultTarget::Link {
                    node: NodeId(15),
                    port: Port::East,
                },
            },
            FaultEvent {
                start: 0,
                duration: None,
                // A southbound link out of row 3 into row 4: crosses the
                // tile 0 / tile 1 boundary of the 4-partition carve.
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
        assert!(budget > 0, "partitioned faulted torus wedged");
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

/// Fault placement relative to tile boundaries is invisible: a fault on a
/// link that crosses tiles and a fault on a link interior to one tile both
/// reproduce their serial runs exactly. The boundary exchange may not treat
/// severed cross-tile wires differently from intra-tile ones.
#[test]
fn cross_tile_and_intra_tile_faults_match_serial() {
    // 8x8 mesh in 4 partitions: tiles are 16-router bands (rows 0-1, 2-3,
    // 4-5, 6-7). Node 12's South link (row 1 -> row 2) crosses tiles;
    // node 4's South link (row 0 -> row 1) stays inside tile 0.
    for (node, port, what) in [
        (NodeId(12), Port::South, "cross-tile"),
        (NodeId(4), Port::South, "intra-tile"),
    ] {
        let cfg = SimConfig::default()
            .with_traffic(TrafficPattern::Uniform, 0.10)
            .with_routing(RoutingAlgorithm::OddEven)
            .with_seed(7)
            .with_faults(
                FaultPlan::new(vec![FaultEvent {
                    start: 200,
                    duration: None,
                    target: FaultTarget::Link { node, port },
                }])
                .unwrap(),
            );
        let serial = run_partitioned(&cfg, 1, 2_000);
        for p in [2usize, 4] {
            let tiled = run_partitioned(&cfg, p, 2_000);
            assert_eq!(
                tiled, serial,
                "{what} fault diverged from serial at partitions={p}"
            );
        }
        assert!(
            serial.dropped_flits > 0,
            "{what} fault scenario must actually drop traffic"
        );
    }
}

/// The `u64::MAX` sentinel of `latency_percentile` never leaks into any
/// rendered figure: a histogram whose tail mass sits in the open-ended
/// overflow bucket formats as a saturated `> <edge>` display at every
/// percentile, raw digits never.
#[test]
fn latency_percentile_sentinel_never_renders_raw() {
    let mut s = StatsCollector::new(4);
    // Push the whole latency mass into the overflow bucket.
    let overflow = s.latency_hist.len() - 1;
    s.latency_hist[overflow] = 100;
    s.latency_samples = 100;
    for p in [0.5, 0.95, 0.99, 1.0] {
        let shown = s.latency_percentile_display(p);
        assert!(
            !shown.contains("18446744073709551615"),
            "p{p} leaked the raw u64::MAX sentinel: {shown}"
        );
        assert!(
            shown.starts_with("> "),
            "overflowed percentile must render saturated, got: {shown}"
        );
    }
    assert_eq!(
        s.latency_percentile(0.95),
        u64::MAX,
        "numeric API keeps the sentinel"
    );
}
