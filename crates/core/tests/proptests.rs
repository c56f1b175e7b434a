//! Property-based tests of the self-configuration layer: action-space
//! totality, encoder boundedness, reward monotonicity, the zero-cost
//! guarantee of the fault-injection hook, and the name tables.

use noc_selfconf::serve::ErrorCode;
use noc_selfconf::zoo::{dqn_variant, DQN_VARIANTS};
use noc_selfconf::{ActionSpace, RewardConfig, StateEncoder, SweepGrid};
use noc_sim::{
    FaultEvent, FaultPlan, FaultTarget, InjectionProcess, LengthSpec, NodeId, Port,
    RoutingAlgorithm, SimConfig, SimResult, SwitchArb, TopologyKind, TrafficPattern, WindowMetrics,
};
use proptest::prelude::*;

/// Parse a name and print the parsed value's name back.
type Reparse = fn(&str) -> SimResult<String>;

/// Every vocabulary: what its errors call it, its plain names, the
/// synopses of its parameterised forms, and its parser.
fn vocabularies() -> [(&'static str, Vec<&'static str>, Vec<&'static str>, Reparse); 8] {
    let synopses = |forms: &[noc_sim::names::Form]| forms.iter().map(|f| f.0).collect();
    [
        (
            "routing",
            RoutingAlgorithm::NAMED.map(|(n, _)| n).to_vec(),
            vec![],
            |s| RoutingAlgorithm::parse(s).map(|v| v.name().into()),
        ),
        (
            "topology",
            TopologyKind::NAMED.map(|(n, _)| n).to_vec(),
            vec![],
            |s| TopologyKind::parse(s).map(|v| v.name().into()),
        ),
        (
            "switch arbitration",
            SwitchArb::NAMED.map(|(n, _)| n).to_vec(),
            vec![],
            |s| SwitchArb::parse(s).map(|v| v.name().into()),
        ),
        (
            "error code",
            ErrorCode::NAMED.map(|(n, _)| n).to_vec(),
            vec![],
            |s| ErrorCode::parse(s).map(|v| v.name().into()),
        ),
        (
            "DQN variant",
            DQN_VARIANTS.map(|(n, _)| n).to_vec(),
            vec![],
            |s| dqn_variant(s).map(|v| v.name),
        ),
        (
            "traffic pattern",
            TrafficPattern::NAMED.map(|(n, _)| n).to_vec(),
            synopses(&[TrafficPattern::HOTSPOT]),
            |s| TrafficPattern::parse(s).map(|v| v.to_string()),
        ),
        (
            "injection process",
            vec![],
            synopses(&InjectionProcess::FORMS),
            |s| InjectionProcess::parse(s).map(|v| v.to_string()),
        ),
        ("length spec", vec![], synopses(&LengthSpec::FORMS), |s| {
            LengthSpec::parse(s).map(|v| v.to_string())
        }),
    ]
}

fn any_metrics(regions: usize) -> impl Strategy<Value = WindowMetrics> {
    (
        1u64..10_000,
        0u64..100_000,
        0u64..100_000,
        0u64..5_000,
        0.0f64..5_000.0,
        0.0f64..1e7,
        prop::collection::vec(0.0f64..1e4, regions),
        prop::collection::vec(0u64..100_000, regions),
        0.0f64..1e5,
    )
        .prop_map(
            move |(cycles, injected, ejected, samples, lat, energy, occ, rinj, backlog)| {
                WindowMetrics {
                    cycles,
                    offered_packets: injected / 5,
                    injection_burstiness: lat % 7.9,
                    phase_cycles: vec![cycles],
                    phase_offered_packets: vec![injected / 5],
                    injected_flits: injected,
                    injected_packets: injected / 5,
                    ejected_flits: ejected,
                    ejected_packets: samples,
                    dropped_flits: 0,
                    dropped_packets: 0,
                    avg_dead_links: 0.0,
                    latency_samples: samples,
                    avg_packet_latency: if samples > 0 { lat } else { f64::NAN },
                    avg_network_latency: if samples > 0 { lat * 0.8 } else { f64::NAN },
                    avg_hops: 4.0,
                    throughput: ejected as f64 / (cycles as f64 * 64.0),
                    injection_rate: injected as f64 / (cycles as f64 * 64.0),
                    energy_pj: energy,
                    dynamic_pj: energy * 0.7,
                    leakage_pj: energy * 0.3,
                    avg_occupancy: occ.iter().sum(),
                    region_occupancy: occ,
                    region_injected_flits: rinj,
                    avg_backlog: backlog,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `levels_after` is total over its action range and always produces
    /// valid level indices, for every action-space flavor.
    #[test]
    fn action_spaces_are_total(
        num_regions in 1usize..8,
        num_levels in 2usize..6,
        current in prop::collection::vec(0usize..6, 1..8),
    ) {
        let spaces = [
            ActionSpace::PerRegionDelta { num_regions, num_levels },
            ActionSpace::LevelAndRouting {
                num_levels,
                routings: vec![RoutingAlgorithm::Xy, RoutingAlgorithm::OddEven],
            },
        ];
        for space in spaces {
            let cur: Vec<usize> = match &space {
                ActionSpace::PerRegionDelta { num_regions, num_levels } => current
                    .iter()
                    .cycle()
                    .take(*num_regions)
                    .map(|&l| l % num_levels)
                    .collect(),
                _ => current.iter().map(|&l| l % num_levels).collect(),
            };
            for a in 0..space.num_actions() {
                let next = space.levels_after(a, &cur);
                prop_assert_eq!(next.len(), cur.len());
                prop_assert!(next.iter().all(|&l| l < num_levels),
                    "action {a} produced invalid level: {next:?}");
                // Delta moves change levels by at most one step each, and
                // either a single region or all regions in one direction.
                if matches!(space, ActionSpace::PerRegionDelta { .. }) {
                    let changed: Vec<_> = next.iter().zip(&cur)
                        .filter(|(n, c)| n != c).collect();
                    for (n, c) in &changed {
                        prop_assert_eq!(n.abs_diff(**c), 1);
                    }
                    if changed.len() > 1 {
                        // Global action: every change same direction.
                        let up = changed.iter().filter(|(n, c)| n > c).count();
                        prop_assert!(up == 0 || up == changed.len());
                    }
                }
                // Descriptions never panic and are non-empty.
                prop_assert!(!space.describe(a).is_empty());
            }
        }
    }

    /// The state encoder produces bounded, finite features for arbitrary
    /// telemetry.
    #[test]
    fn encoder_bounded_over_arbitrary_metrics(
        m in any_metrics(4),
        levels in prop::collection::vec(0usize..4, 4),
    ) {
        let encoder = StateEncoder::new(vec![320; 4], vec![16; 4], 4, 64);
        let s = encoder.encode(&m, &levels);
        prop_assert_eq!(s.len(), encoder.state_dim());
        prop_assert!(s.iter().all(|x| x.is_finite() && (0.0..=1.0).contains(x)),
            "unbounded feature in {s:?}");
    }

    /// A no-op `FaultPlan` costs nothing semantically: sweeping a grid whose
    /// base config carries an explicitly-set empty plan — or a plan whose
    /// only event starts beyond the simulated horizon — produces a
    /// `SweepReport` byte-identical to the fault-free run, at every thread
    /// count. This pins the fault hook out of the healthy-fabric path.
    #[test]
    fn noop_fault_plan_is_byte_identical_to_fault_free(
        base_seed in 0u64..1_000,
        threads in 1usize..5,
    ) {
        let grid = |plan: FaultPlan| SweepGrid {
            base: SimConfig::default().with_regions(2, 2).with_faults(plan),
            sizes: vec![(4, 4)],
            topologies: vec![TopologyKind::Mesh],
            patterns: vec![TrafficPattern::Uniform],
            rates: vec![0.08],
            routings: vec![RoutingAlgorithm::OddEven],
            levels: vec![None],
            faults: vec![0],
            workloads: vec![],
            partitions: 1,
            warmup: 100,
            measure: 300,
            drain: 300,
            base_seed,
        };
        let json = |g: &SweepGrid, threads: usize| {
            serde_json::to_string_pretty(&g.run(threads).expect("valid grid"))
                .expect("report serializes")
        };
        // An explicitly-set empty plan IS the default plan, so the whole
        // report (grid provenance included) must match bytewise.
        let fault_free = json(&grid(FaultPlan::empty()), threads);
        let baseline = json(&grid(SimConfig::default().fault_plan.clone()), 1);
        prop_assert_eq!(&fault_free, &baseline);

        // A plan whose only event never activates within the horizon leaves
        // different provenance but must leave every result untouched.
        let dormant = FaultPlan::new(vec![FaultEvent {
            start: 1_000_000, // far beyond warmup+measure+drain
            duration: None,
            target: FaultTarget::Link { node: NodeId(0), port: Port::East },
        }]).expect("valid plan");
        let dormant_report = grid(dormant).run(threads).expect("valid grid");
        let free_report = grid(FaultPlan::empty()).run(1).expect("valid grid");
        let results = |r: &noc_selfconf::SweepReport| {
            format!(
                "{}\n{}",
                serde_json::to_string_pretty(&r.scenarios).expect("scenarios serialize"),
                serde_json::to_string_pretty(&r.aggregate).expect("aggregate serializes"),
            )
        };
        prop_assert_eq!(results(&dormant_report), results(&free_report));
    }

    /// Reward is finite over arbitrary telemetry and monotone in each cost
    /// axis: more latency never raises it, more energy never raises it, more
    /// throughput never lowers it.
    #[test]
    fn reward_finite_and_monotone(m in any_metrics(4)) {
        let r = RewardConfig::default();
        let base = r.compute(&m, 64);
        prop_assert!(base.is_finite());

        if m.latency_samples > 0 {
            let mut worse = m.clone();
            worse.avg_packet_latency = m.avg_packet_latency * 1.5 + 10.0;
            prop_assert!(r.compute(&worse, 64) <= base + 1e-9);
        }
        let mut hungrier = m.clone();
        hungrier.energy_pj = m.energy_pj * 1.5 + 10.0;
        prop_assert!(r.compute(&hungrier, 64) <= base + 1e-9);

        let mut faster = m.clone();
        faster.throughput += 0.1;
        prop_assert!(r.compute(&faster, 64) >= base - 1e-9);
    }

    /// Every name table round-trips each of its names, and a string that is
    /// no member gets the one unknown-name error, listing the table.
    #[test]
    fn name_tables_round_trip_and_reject_non_members(
        picks in prop::collection::vec(0usize..38, 0..12),
    ) {
        // Upper case, digits, `_` and `-`: no name or form prefix starts
        // with one of these, and `#` appears in no name.
        const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-";
        let stranger: String = picks.iter().map(|&i| char::from(ALPHABET[i])).collect();
        for (what, names, synopses, reparse) in vocabularies() {
            let expected = [names.clone(), synopses].concat().join(", ");
            let mut strangers = vec![stranger.clone()];
            for name in &names {
                prop_assert_eq!(reparse(name), Ok(name.to_string()));
                strangers.push(format!("{name}#{stranger}"));
            }
            for s in strangers {
                prop_assert_eq!(
                    reparse(&s).unwrap_err().to_string(),
                    format!("unknown {what} `{s}` (expected one of: {expected})")
                );
            }
        }
    }
}
