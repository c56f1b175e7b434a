//! Golden label and cache-key digests, recorded on 3db8df4 before the name
//! tables replaced the hand-written `name`/`parse` pairs. Scenario labels
//! are hashed into `scenario_cache_key`, the key is the on-disk cache file
//! name, and reports key their rows by label, so any byte a label printer
//! changes shows up here.

use noc_selfconf::serve::scenario_cache_key;
use noc_selfconf::zoo::default_tournament_families;
use noc_selfconf::{ScenarioFamily, SweepGrid};
use noc_sim::{
    InjectionProcess, LengthSpec, NodeId, RoutingAlgorithm, SimConfig, SwitchArb, TopologyKind,
    TrafficPattern, WorkloadPhase, WorkloadSpec,
};

/// 64-bit FNV-1a.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Every phase shape the workload grammar has: each injection process,
/// each length form, bounded and held phases, and a hotspot phase.
fn workloads() -> Vec<WorkloadSpec> {
    let bursty = InjectionProcess::Bursty {
        rate_on: 0.3,
        switch: 0.05,
    };
    let pulse = InjectionProcess::Periodic {
        rate: 0.4,
        period: 200,
        on: 50,
    };
    vec![
        WorkloadSpec::stationary(TrafficPattern::Uniform, bursty.clone()),
        WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.03, 3000),
            WorkloadPhase::new(TrafficPattern::Tornado, pulse, 3000),
        ]),
        WorkloadSpec::new(vec![
            WorkloadPhase::bernoulli(TrafficPattern::Uniform, 0.1, 500)
                .with_length(LengthSpec::fixed(8)),
            WorkloadPhase::new(TrafficPattern::Transpose, bursty, 700)
                .with_length(LengthSpec::Uniform { min: 1, max: 8 }),
            WorkloadPhase::bernoulli(
                TrafficPattern::Hotspot {
                    hotspots: vec![NodeId(0), NodeId(12)],
                    fraction: 0.25,
                },
                0.125,
                0,
            )
            .with_length(LengthSpec::Bimodal {
                short: 1,
                long: 8,
                long_pct: 20,
            }),
        ]),
    ]
}

/// Every pattern, every routing on both topology kinds, pinned levels,
/// faults and the workloads above, under one switch arbitration.
fn grid(arb: SwitchArb) -> SweepGrid {
    let mut base = SimConfig::default().with_regions(2, 2);
    base.switch_arb = arb;
    SweepGrid {
        base,
        sizes: vec![(4, 4)],
        topologies: vec![TopologyKind::Mesh, TopologyKind::Torus],
        patterns: vec![
            TrafficPattern::Uniform,
            TrafficPattern::Transpose,
            TrafficPattern::BitComplement,
            TrafficPattern::BitReverse,
            TrafficPattern::Shuffle,
            TrafficPattern::Tornado,
            TrafficPattern::Neighbor,
            TrafficPattern::Hotspot {
                hotspots: vec![NodeId(5), NodeId(6)],
                fraction: 0.3,
            },
        ],
        rates: vec![0.05, 0.1],
        routings: vec![
            RoutingAlgorithm::Xy,
            RoutingAlgorithm::Yx,
            RoutingAlgorithm::WestFirst,
            RoutingAlgorithm::NorthLast,
            RoutingAlgorithm::NegativeFirst,
            RoutingAlgorithm::OddEven,
            RoutingAlgorithm::TorusDor,
            RoutingAlgorithm::TorusMinAdaptive,
            RoutingAlgorithm::Table,
        ],
        levels: vec![None, Some(0), Some(3)],
        faults: vec![0, 2],
        workloads: workloads(),
        ..SweepGrid::default()
    }
}

#[test]
fn scenario_labels_and_cache_keys_are_the_recorded_bytes() {
    for (arb, count, labels, keys) in [
        (
            SwitchArb::PerFlit,
            1140,
            0x03d3_1a37_735d_4db5,
            0x9046_b8ff_b3ee_f281,
        ),
        (
            SwitchArb::PerPacket,
            1140,
            0x03d3_1a37_735d_4db5,
            0xeb6e_b0d1_c08f_b08e,
        ),
    ] {
        let grid = grid(arb);
        let scenarios = grid.scenarios();
        let (mut all_labels, mut all_keys) = (String::new(), String::new());
        for s in &scenarios {
            let key = scenario_cache_key(s, grid.warmup, grid.measure, grid.drain);
            all_labels += &format!("{}\n", s.label);
            all_keys += &format!("{key}\n");
        }
        let got = (scenarios.len(), fnv1a(&all_labels), fnv1a(&all_keys));
        assert_eq!(got, (count, labels, keys), "{arb:?}: got {got:#x?}");
    }
}

#[test]
fn workload_labels_are_the_recorded_bytes() {
    let labels: Vec<String> = workloads().iter().map(WorkloadSpec::label).collect();
    assert_eq!(
        labels,
        [
            "ph[uniform:burst0.3x0.05]",
            "ph[uniform:bern0.03@3000|tornado:pulse0.4x200x50@3000]",
            "ph[uniform:bern0.1:len8@500|transpose:burst0.3x0.05:lenU1-8@700|\
             hotspot0-12f0.25:bern0.125:lenB1-8p20]",
        ]
    );
}

/// The families README.md and EXPERIMENTS.md document, the CLI's defaults,
/// and the default tournament panel.
#[test]
fn documented_family_names_are_the_recorded_bytes() {
    let documented = [
        ("mesh/uniform/r0.1", "mesh/ph[uniform:bern0.1]/f0"),
        ("torus/uniform/r0.1/f2", "torus/ph[uniform:bern0.1]/f2"),
        (
            "mesh/ph[uniform:burst0.3x0.05]",
            "mesh/ph[uniform:burst0.3x0.05]/f0",
        ),
        ("mesh/uniform/r0.12", "mesh/ph[uniform:bern0.12]/f0"),
        ("torus/uniform/r0.1/f1", "torus/ph[uniform:bern0.1]/f1"),
        (
            "torus/transpose/r0.05/f2",
            "torus/ph[transpose:bern0.05]/f2",
        ),
        (
            "mesh/hotspot3f0.5/r0.2/f1",
            "mesh/ph[hotspot3f0.5:bern0.2]/f1",
        ),
    ];
    for (spec, name) in documented {
        assert_eq!(ScenarioFamily::parse(spec).unwrap().name, name, "{spec}");
    }
    let panel: Vec<String> = default_tournament_families()
        .into_iter()
        .map(|f| f.name)
        .collect();
    assert_eq!(
        panel,
        [
            "mesh/ph[uniform:bern0.1]/f0",
            "mesh/ph[uniform:bern0.1]/f2",
            "mesh/ph[uniform:burst0.3x0.05]/f0",
            "mesh/ph[uniform:burst0.3x0.05]/f2",
            "torus/ph[uniform:bern0.1]/f0",
            "torus/ph[uniform:bern0.1]/f2",
            "torus/ph[uniform:burst0.3x0.05]/f0",
            "torus/ph[uniform:burst0.3x0.05]/f2",
        ]
    );
}
