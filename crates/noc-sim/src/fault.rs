//! Deterministic fault injection: timed link-down and router-down events.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s — permanent or
//! transient failures of a link or a whole router — that the [`Network`]
//! applies at cycle boundaries. Plans are JSON round-trippable (they live
//! inside [`SimConfig`](crate::SimConfig)). [`FaultPlan::random_links`]
//! draws a seeded-random set of link faults so scenario sweeps can explore
//! fault *rates* without hand-writing plans.
//!
//! Semantics (see DESIGN.md §8 for the full story):
//!
//! * a **link fault** takes the wire down in *both* directions;
//! * a **router fault** takes every incident link down and silences the
//!   router itself — flits inside it are lost, packets offered at its
//!   source queue are dropped, and it consumes no energy while dead;
//! * faults take effect only at cycle boundaries, where the network purges
//!   every packet severed by a newly dead component and counts it in the
//!   [`StatsCollector`](crate::StatsCollector) drop bucket;
//! * transient faults heal at `start + duration`; the purge keeps credit
//!   and VC bookkeeping consistent so a healed fabric resumes cleanly.
//!
//! [`Network`]: crate::Network

use crate::error::{SimError, SimResult};
use crate::topology::{NodeId, Port, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// The component a fault takes down.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultTarget {
    /// The (bidirectional) link between `node` and its neighbor via `port`.
    Link {
        /// One endpoint of the link.
        node: NodeId,
        /// The cardinal port identifying the link from `node`'s side.
        port: Port,
    },
    /// An entire router, with every link incident to it.
    Router {
        /// The failing router.
        node: NodeId,
    },
}

/// One timed fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Cycle at which the fault takes effect.
    pub start: u64,
    /// Fault length in cycles; `None` is permanent.
    pub duration: Option<u64>,
    /// What fails.
    pub target: FaultTarget,
}

impl FaultEvent {
    /// Whether the fault is in force at `cycle`.
    pub fn active_at(&self, cycle: u64) -> bool {
        cycle >= self.start
            && match self.duration {
                Some(d) => cycle < self.start.saturating_add(d),
                None => true,
            }
    }
}

/// A deterministic fault schedule, applied by the network at cycle
/// boundaries. The default plan is empty (a pristine fabric).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Events sorted by start cycle.
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no component ever fails.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// Build a plan from events (sorted internally by start cycle).
    ///
    /// # Errors
    /// Returns an error for a zero-duration event or a link fault naming the
    /// `Local` port (processing-element links cannot fail independently of
    /// their router).
    pub fn new(mut events: Vec<FaultEvent>) -> SimResult<Self> {
        for e in &events {
            if e.duration == Some(0) {
                return Err(SimError::InvalidTrace(format!(
                    "zero-duration fault at cycle {}",
                    e.start
                )));
            }
            if let FaultTarget::Link {
                port: Port::Local, ..
            } = e.target
            {
                return Err(SimError::InvalidTrace(format!(
                    "link fault on the Local port at cycle {} (fail the router instead)",
                    e.start
                )));
            }
        }
        events.sort_by_key(|e| e.start);
        Ok(FaultPlan { events })
    }

    /// Draw `count` distinct permanent-or-transient link faults uniformly at
    /// random (seeded, deterministic) over the topology's undirected links,
    /// all starting at `start` with the given `duration`. `count` is capped
    /// at the number of distinct neighbor pairs in the topology. On a ring
    /// of length two, where a pair of nodes is joined by *two* parallel
    /// wires (0 -E-> 1 and 1 -E-> 0 are physically distinct), one drawn
    /// fault takes both down — a fault severs the whole neighbor
    /// connection, so such a plan may carry more events than `count`.
    ///
    /// # Panics
    /// Panics if `duration == Some(0)` — the same degenerate event
    /// [`FaultPlan::new`] rejects.
    pub fn random_links(
        topo: &Topology,
        count: usize,
        seed: u64,
        start: u64,
        duration: Option<u64>,
    ) -> Self {
        // The draw pool is the set of *neighbor pairs*, each named once from
        // its west/north endpoint. On a ring of length two (width-2 or
        // height-2 torus), both endpoints reach the same peer through the
        // same-axis port, so without the dedup the 0<->1 connection would
        // sit in the pool twice and skew the drawn fault count toward those
        // pairs.
        let mut links: Vec<(NodeId, Port)> = Vec::new();
        let mut seen: std::collections::BTreeSet<(usize, usize)> =
            std::collections::BTreeSet::new();
        for node in topo.nodes() {
            for port in [Port::East, Port::South] {
                if let Some(peer) = topo.neighbor(node, port) {
                    let pair = (node.0.min(peer.0), node.0.max(peer.0));
                    if seen.insert(pair) {
                        links.push((node, port));
                    }
                }
            }
        }
        let count = count.min(links.len());
        let mut rng = StdRng::seed_from_u64(seed);
        // Partial Fisher-Yates: the first `count` entries end up a uniform
        // sample without replacement.
        for k in 0..count {
            let pick = rng.gen_range(k..links.len());
            links.swap(k, pick);
        }
        let mut events: Vec<FaultEvent> = Vec::with_capacity(count);
        for &(node, port) in &links[..count] {
            events.push(FaultEvent {
                start,
                duration,
                target: FaultTarget::Link { node, port },
            });
            // A two-node ring joins the pair with a second, physically
            // distinct wire (the peer's same-axis port loops straight
            // back). Fault it too, so the drawn fault actually severs the
            // connection instead of leaving the reverse wire carrying all
            // of that row/column's traffic.
            let peer = topo.neighbor(node, port).expect("pooled links exist");
            if peer != node && topo.neighbor(peer, port) == Some(node) {
                events.push(FaultEvent {
                    start,
                    duration,
                    target: FaultTarget::Link { node: peer, port },
                });
            }
        }
        // Stable order independent of the draw order, so plans are
        // byte-identical for identical (topo, count, seed) inputs. All
        // events share `start`, so `new`'s stable sort preserves it.
        events.sort_by_key(|e| match e.target {
            FaultTarget::Link { node, port } => (node.0, port.index()),
            FaultTarget::Router { node } => (node.0, usize::MAX),
        });
        FaultPlan::new(events).expect("random_links draws only valid link events")
    }

    /// The events, sorted by start cycle.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of events in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Check every event references components inside the topology.
    ///
    /// # Errors
    /// Returns the first out-of-range node or a link fault on a port with no
    /// neighbor (a mesh edge).
    pub fn validate(&self, topo: &Topology) -> SimResult<()> {
        let n = topo.num_nodes();
        for e in &self.events {
            let node = match e.target {
                FaultTarget::Link { node, .. } | FaultTarget::Router { node } => node,
            };
            if node.0 >= n {
                return Err(SimError::NodeOutOfRange {
                    node: node.0,
                    nodes: n,
                });
            }
            if let FaultTarget::Link { node, port } = e.target {
                if topo.neighbor(node, port).is_none() {
                    return Err(SimError::InvalidTrace(format!(
                        "link fault at cycle {}: {node} has no link via {port}",
                        e.start
                    )));
                }
            }
        }
        Ok(())
    }

    /// The cycles at which the active fault set changes (event starts and
    /// ends), sorted and deduplicated. The network recomputes link state
    /// exactly at these boundaries.
    pub fn boundaries(&self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.events.len() * 2);
        for e in &self.events {
            out.push(e.start);
            if let Some(d) = e.duration {
                out.push(e.start.saturating_add(d));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The instantaneous liveness of every link and router, recomputed by the
/// network whenever the active fault set changes. Routers consult it during
/// route computation to exclude dead output ports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkState {
    /// Outgoing-link liveness per node, indexed by [`Port::index`]. The
    /// `Local` slot is always up for live routers.
    up: Vec<[bool; Port::COUNT]>,
    /// Router liveness per node.
    router_up: Vec<bool>,
    /// Directed dead links (a bidirectional link fault counts twice), only
    /// counting wires that exist in the topology.
    dead_links: usize,
}

impl LinkState {
    /// A fully healthy fabric of `num_nodes` routers.
    pub fn healthy(num_nodes: usize) -> Self {
        LinkState {
            up: vec![[true; Port::COUNT]; num_nodes],
            router_up: vec![true; num_nodes],
            dead_links: 0,
        }
    }

    /// Whether the directed link leaving `node` via `port` is up. `Local`
    /// tracks the router's own liveness.
    pub fn is_link_up(&self, node: NodeId, port: Port) -> bool {
        self.up[node.0][port.index()]
    }

    /// Whether the router at `node` is alive.
    pub fn is_router_up(&self, node: NodeId) -> bool {
        self.router_up[node.0]
    }

    /// Number of directed dead links (each bidirectional link fault
    /// contributes two).
    pub fn dead_link_count(&self) -> usize {
        self.dead_links
    }

    fn take_link_down(&mut self, topo: &Topology, node: NodeId, port: Port) {
        if let Some(peer) = topo.neighbor(node, port) {
            for (n, p) in [(node, port), (peer, port.opposite())] {
                let slot = &mut self.up[n.0][p.index()];
                if *slot {
                    *slot = false;
                    self.dead_links += 1;
                }
            }
        }
    }

    /// Rebuild liveness from the plan's events active at `cycle`.
    pub fn recompute(&mut self, topo: &Topology, plan: &FaultPlan, cycle: u64) {
        for row in &mut self.up {
            *row = [true; Port::COUNT];
        }
        self.router_up.fill(true);
        self.dead_links = 0;
        for e in plan.events() {
            if !e.active_at(cycle) {
                continue;
            }
            match e.target {
                FaultTarget::Link { node, port } => self.take_link_down(topo, node, port),
                FaultTarget::Router { node } => {
                    if self.router_up[node.0] {
                        self.router_up[node.0] = false;
                        self.up[node.0][Port::Local.index()] = false;
                        for port in [Port::North, Port::East, Port::South, Port::West] {
                            self.take_link_down(topo, node, port);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn events_sort_and_activate() {
        let plan = FaultPlan::new(vec![
            link(50, Some(10), 0, Port::East),
            link(5, None, 1, Port::South),
        ])
        .unwrap();
        assert_eq!(plan.events()[0].start, 5);
        assert!(plan.events()[0].active_at(5));
        assert!(
            plan.events()[0].active_at(1_000_000),
            "permanent faults persist"
        );
        assert!(!plan.events()[1].active_at(49));
        assert!(plan.events()[1].active_at(59));
        assert!(!plan.events()[1].active_at(60), "transient faults heal");
        assert_eq!(plan.boundaries(), vec![5, 50, 60]);
    }

    #[test]
    fn degenerate_events_rejected() {
        assert!(FaultPlan::new(vec![link(0, Some(0), 0, Port::East)]).is_err());
        assert!(FaultPlan::new(vec![link(0, None, 0, Port::Local)]).is_err());
    }

    #[test]
    fn validate_checks_topology() {
        let topo = Topology::mesh(2, 2);
        assert!(FaultPlan::new(vec![link(0, None, 0, Port::East)])
            .unwrap()
            .validate(&topo)
            .is_ok());
        // Node out of range.
        assert!(FaultPlan::new(vec![link(0, None, 9, Port::East)])
            .unwrap()
            .validate(&topo)
            .is_err());
        // Mesh edge: node 0 has no west neighbor.
        assert!(FaultPlan::new(vec![link(0, None, 0, Port::West)])
            .unwrap()
            .validate(&topo)
            .is_err());
        // Routers only need a valid node.
        let router = FaultPlan::new(vec![FaultEvent {
            start: 0,
            duration: None,
            target: FaultTarget::Router { node: NodeId(3) },
        }])
        .unwrap();
        assert!(router.validate(&topo).is_ok());
    }

    #[test]
    fn json_roundtrip() {
        let plan = FaultPlan::new(vec![link(3, Some(9), 1, Port::South)]).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn random_links_are_deterministic_and_distinct() {
        let topo = Topology::mesh(4, 4);
        let a = FaultPlan::random_links(&topo, 5, 42, 0, None);
        let b = FaultPlan::random_links(&topo, 5, 42, 0, None);
        assert_eq!(a, b, "same seed must draw the same plan");
        assert_eq!(a.len(), 5);
        let mut targets: Vec<_> = a
            .events()
            .iter()
            .map(|e| match e.target {
                FaultTarget::Link { node, port } => (node.0, port.index()),
                FaultTarget::Router { .. } => unreachable!("random_links draws links"),
            })
            .collect();
        targets.dedup();
        assert_eq!(targets.len(), 5, "links drawn without replacement");
        assert!(a.validate(&topo).is_ok());
        let c = FaultPlan::random_links(&topo, 5, 43, 0, None);
        assert_ne!(a, c, "different seeds draw different plans");
        // Count is capped at the number of links (24 undirected on 4x4).
        assert_eq!(FaultPlan::random_links(&topo, 1_000, 1, 0, None).len(), 24);
    }

    /// Regression: on rings of length two, both endpoints reach the same
    /// peer through the same-axis port, and the draw pool used to list that
    /// neighbor pair twice — a full draw then produced duplicate endpoint
    /// pairs and an inflated fault count. The fix draws each pair once and
    /// fails *both* parallel wires, so a drawn fault actually severs the
    /// connection.
    #[test]
    fn random_links_dedups_two_node_rings() {
        let pair_of = |topo: &Topology, e: &FaultEvent| match e.target {
            FaultTarget::Link { node, port } => {
                let peer = topo.neighbor(node, port).expect("drawn links exist");
                (node.0.min(peer.0), node.0.max(peer.0))
            }
            FaultTarget::Router { .. } => unreachable!("random_links draws links"),
        };
        // 2x2 torus: four distinct neighbor pairs, each joined by two
        // parallel wires. A full draw covers every pair exactly once, with
        // both wires of each pair faulted.
        let topo = Topology::torus(2, 2);
        let plan = FaultPlan::random_links(&topo, 1_000, 7, 0, None);
        let mut pairs: Vec<_> = plan.events().iter().map(|e| pair_of(&topo, e)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 4, "4 distinct neighbor pairs, none repeated");
        assert_eq!(plan.len(), 8, "both parallel wires of every pair fail");
        assert!(plan.validate(&topo).is_ok());
        // A single drawn fault on a 2-ring disconnects the pair entirely:
        // every directed link between the two endpoints is down.
        let single = FaultPlan::random_links(&topo, 1, 7, 0, None);
        assert_eq!(single.len(), 2);
        let mut ls = LinkState::healthy(4);
        ls.recompute(&topo, &single, 0);
        let (a, b) = pair_of(&topo, &single.events()[0]);
        for port in [Port::North, Port::East, Port::South, Port::West] {
            for (from, to) in [(a, b), (b, a)] {
                if topo.neighbor(NodeId(from), port) == Some(NodeId(to)) {
                    assert!(
                        !ls.is_link_up(NodeId(from), port),
                        "wire {from} -{port}-> {to} must be down"
                    );
                }
            }
        }
        // Height-2 torus: only the vertical rings degenerate (4 column
        // pairs, 2 wires each), the width-4 rows contribute their 8
        // single-wire pairs.
        let topo = Topology::torus(4, 2);
        let plan = FaultPlan::random_links(&topo, 1_000, 7, 0, None);
        let mut pairs: Vec<_> = plan.events().iter().map(|e| pair_of(&topo, e)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 12, "8 row pairs + 4 column pairs");
        assert_eq!(plan.len(), 8 + 2 * 4);
        // Meshes have no wrap wires and are unaffected by the dedup.
        let topo = Topology::mesh(4, 2);
        assert_eq!(
            FaultPlan::random_links(&topo, 1_000, 7, 0, None).len(),
            // 3 east wires per row x 2 rows + 4 south wires x 1 row gap.
            3 * 2 + 4
        );
    }

    #[test]
    fn link_state_tracks_faults_and_heals() {
        let topo = Topology::mesh(4, 4);
        let plan = FaultPlan::new(vec![
            link(10, Some(20), 5, Port::East),
            FaultEvent {
                start: 10,
                duration: None,
                target: FaultTarget::Router { node: NodeId(0) },
            },
        ])
        .unwrap();
        let mut ls = LinkState::healthy(16);
        assert_eq!(ls.dead_link_count(), 0);
        assert!(ls.is_router_up(NodeId(0)));
        ls.recompute(&topo, &plan, 15);
        assert!(!ls.is_link_up(NodeId(5), Port::East));
        assert!(!ls.is_link_up(NodeId(6), Port::West), "both directions die");
        assert!(!ls.is_router_up(NodeId(0)));
        assert!(!ls.is_link_up(NodeId(0), Port::East));
        assert!(!ls.is_link_up(NodeId(1), Port::West));
        assert!(!ls.is_link_up(NodeId(4), Port::North));
        // link 5<->6 (2 directed) + router 0's two incident links (4 directed).
        assert_eq!(ls.dead_link_count(), 6);
        // The transient link heals; the permanent router fault does not.
        ls.recompute(&topo, &plan, 30);
        assert!(ls.is_link_up(NodeId(5), Port::East));
        assert!(!ls.is_router_up(NodeId(0)));
        assert_eq!(ls.dead_link_count(), 4);
    }
}
