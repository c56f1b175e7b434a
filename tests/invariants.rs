//! Property-based invariants across the workspace, checked with proptest.

use noc_sim::routing::walk_route;
use noc_sim::{RoutingAlgorithm, SimConfig, Simulator, Topology, TrafficPattern, TrafficSpec};
use proptest::prelude::*;

fn mesh_algorithms() -> impl Strategy<Value = RoutingAlgorithm> {
    prop_oneof![
        Just(RoutingAlgorithm::Xy),
        Just(RoutingAlgorithm::Yx),
        Just(RoutingAlgorithm::WestFirst),
        Just(RoutingAlgorithm::NorthLast),
        Just(RoutingAlgorithm::NegativeFirst),
        Just(RoutingAlgorithm::OddEven),
    ]
}

fn patterns() -> impl Strategy<Value = TrafficPattern> {
    prop_oneof![
        Just(TrafficPattern::Uniform),
        Just(TrafficPattern::Transpose),
        Just(TrafficPattern::BitComplement),
        Just(TrafficPattern::Tornado),
        Just(TrafficPattern::Neighbor),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every mesh routing algorithm reaches every destination along a
    /// minimal path, whatever the (square-ish) mesh size and the adaptive
    /// choice policy.
    #[test]
    fn routing_is_minimal_and_complete(
        alg in mesh_algorithms(),
        w in 2usize..7,
        h in 2usize..7,
        src in 0usize..36,
        dst in 0usize..36,
        pick_last in any::<bool>(),
    ) {
        let topo = Topology::mesh(w, h);
        let n = topo.num_nodes();
        let (src, dst) = (noc_sim::NodeId(src % n), noc_sim::NodeId(dst % n));
        let path = walk_route(alg, &topo, src, dst, |c| if pick_last { c.len() - 1 } else { 0 });
        prop_assert_eq!(path.len() - 1, topo.distance(src, dst));
        prop_assert_eq!(*path.last().unwrap(), dst);
    }

    /// Flits are conserved for arbitrary configurations: offered = ejected +
    /// in-flight after any number of cycles.
    #[test]
    fn flits_conserved_for_random_configs(
        alg in mesh_algorithms(),
        pattern in patterns(),
        rate in 0.01f64..0.35,
        vcs in 1usize..5,
        depth in 1usize..6,
        plen in 1u32..7,
        seed in 0u64..1000,
        cycles in 50u64..600,
    ) {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_routing(alg)
            .with_vcs(vcs, depth)
            .with_packet_len(plen)
            .with_traffic(pattern, rate)
            .with_seed(seed);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(cycles);
        let s = sim.stats();
        prop_assert_eq!(
            s.ejected_flits + sim.network().in_flight() as u64,
            s.offered_packets * plen as u64
        );
        // Packets inject and eject flit counts in packet multiples.
        prop_assert!(s.injected_flits >= s.ejected_flits);
    }

    /// Every network drains once traffic stops — no deadlock for any mesh
    /// routing algorithm at any load within the sampled space.
    #[test]
    fn network_always_drains(
        alg in mesh_algorithms(),
        pattern in patterns(),
        rate in 0.05f64..0.5,
        seed in 0u64..100,
    ) {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_regions(2, 2)
            .with_routing(alg)
            .with_traffic(pattern, rate)
            .with_seed(seed);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(500);
        sim.set_traffic(TrafficSpec::stationary(TrafficPattern::Uniform, 0.0)).expect("valid spec");
        let mut drained = false;
        for _ in 0..100 {
            sim.run(100);
            if sim.network().in_flight() == 0 {
                drained = true;
                break;
            }
        }
        prop_assert!(drained, "network failed to drain: {} flits stuck ({alg:?})",
            sim.network().in_flight());
    }

    /// Latency can never be below the minimal hop count plus the pipeline
    /// depth: sampled packets obey `network_latency >= hops`.
    #[test]
    fn latency_dominates_hops(seed in 0u64..50) {
        let cfg = SimConfig::default()
            .with_size(4, 4)
            .with_traffic(TrafficPattern::Uniform, 0.05)
            .with_seed(seed);
        let mut sim = Simulator::new(cfg).expect("valid config");
        sim.run(2000);
        let s = sim.stats();
        if s.latency_samples > 0 {
            prop_assert!(s.sum_network_latency >= s.sum_hops,
                "network latency {} must exceed hop count {}",
                s.sum_network_latency, s.sum_hops);
        }
    }

    /// Dynamic energy is monotone in the V/F level for a fixed packet set.
    #[test]
    fn energy_monotone_in_level(seed in 0u64..20) {
        let energy_at = |level: usize| {
            let cfg = SimConfig::default()
                .with_size(4, 4)
                .with_traffic(TrafficPattern::Uniform, 0.08)
                .with_seed(seed);
            let mut sim = Simulator::new(cfg).expect("valid config");
            sim.set_all_levels(level).expect("valid level");
            sim.run(800);
            let e = sim.stats().energy.total_pj();
            let delivered = sim.stats().ejected_flits.max(1);
            e / delivered as f64
        };
        // Per-flit energy at the lowest level must undercut the highest.
        prop_assert!(energy_at(0) < energy_at(3));
    }
}

/// The state encoder and reward function accept every metrics shape the
/// simulator can produce (no panics over a broad fuzz of runs).
#[test]
fn encoder_and_reward_total_over_sim_outputs() {
    use noc_selfconf::{RewardConfig, StateEncoder};
    let cfg = SimConfig::default()
        .with_size(4, 4)
        .with_regions(2, 2)
        .with_traffic(TrafficPattern::Uniform, 0.3);
    let encoder = StateEncoder::for_sim(&cfg).expect("valid config");
    let mut sim = Simulator::new(cfg).expect("valid config");
    let reward = RewardConfig::default();
    for i in 0..30 {
        sim.set_all_levels(i % 4).expect("valid level");
        let m = sim.run_epoch(100);
        let s = encoder.encode(&m, sim.region_levels());
        assert!(s.iter().all(|x| x.is_finite()));
        assert!(reward.compute(&m, 16).is_finite());
    }
}
