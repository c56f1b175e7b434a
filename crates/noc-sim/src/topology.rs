//! Topology descriptions: node coordinates, ports, and neighbor wiring for
//! 2-D meshes and tori.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a network node (router + attached core), row-major in the grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<usize> for NodeId {
    fn from(v: usize) -> Self {
        NodeId(v)
    }
}

/// (x, y) grid coordinate. `x` grows east, `y` grows south.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Coord {
    /// Column, growing east.
    pub x: usize,
    /// Row, growing south.
    pub y: usize,
}

impl Coord {
    /// Manhattan distance between two coordinates (mesh hop count under
    /// minimal routing).
    pub fn manhattan(&self, other: &Coord) -> usize {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }
}

impl fmt::Display for Coord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

/// A router port. The four cardinal ports connect to neighboring routers;
/// `Local` connects to the attached processing element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Port {
    /// Toward decreasing `y`.
    North,
    /// Toward increasing `x`.
    East,
    /// Toward increasing `y`.
    South,
    /// Toward decreasing `x`.
    West,
    /// The attached processing element.
    Local,
}

impl Port {
    /// All ports in fixed index order.
    pub const ALL: [Port; 5] = [
        Port::North,
        Port::East,
        Port::South,
        Port::West,
        Port::Local,
    ];

    /// Number of ports on a router.
    pub const COUNT: usize = 5;

    /// Stable index of this port in `[0, COUNT)`.
    pub fn index(self) -> usize {
        match self {
            Port::North => 0,
            Port::East => 1,
            Port::South => 2,
            Port::West => 3,
            Port::Local => 4,
        }
    }

    /// Port from a stable index.
    ///
    /// # Panics
    /// Panics if `idx >= Port::COUNT`.
    pub fn from_index(idx: usize) -> Port {
        Port::ALL[idx]
    }

    /// The port on the neighboring router that faces back at this one:
    /// a flit leaving through `East` arrives on the neighbor's `West` port.
    pub fn opposite(self) -> Port {
        match self {
            Port::North => Port::South,
            Port::East => Port::West,
            Port::South => Port::North,
            Port::West => Port::East,
            Port::Local => Port::Local,
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Port::North => "N",
            Port::East => "E",
            Port::South => "S",
            Port::West => "W",
            Port::Local => "L",
        };
        f.write_str(s)
    }
}

crate::vocabulary! {
    /// The kind of grid topology. Its names are the `--topologies` CLI
    /// vocabulary and the `/t:<name>` sweep label segment.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum TopologyKind as "topology" {
        /// 2-D mesh: edge routers have fewer neighbors.
        Mesh = "mesh",
        /// 2-D torus: wrap-around links on every row and column.
        Torus = "torus",
    }
}

/// A rectangular grid topology (mesh or torus).
///
/// ```
/// use noc_sim::{Topology, NodeId, Port};
///
/// let mesh = Topology::mesh(4, 4);
/// assert_eq!(mesh.num_nodes(), 16);
/// assert_eq!(mesh.neighbor(NodeId(0), Port::East), Some(NodeId(1)));
/// assert_eq!(mesh.distance(NodeId(0), NodeId(15)), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Topology {
    kind: TopologyKind,
    width: usize,
    height: usize,
}

impl Topology {
    /// Create a topology of the given kind (dispatches to
    /// [`Topology::mesh`] / [`Topology::torus`]).
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn new(kind: TopologyKind, width: usize, height: usize) -> Self {
        match kind {
            TopologyKind::Mesh => Topology::mesh(width, height),
            TopologyKind::Torus => Topology::torus(width, height),
        }
    }

    /// Create a mesh of `width × height` routers.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn mesh(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "topology dimensions must be positive"
        );
        Topology {
            kind: TopologyKind::Mesh,
            width,
            height,
        }
    }

    /// Create a torus of `width × height` routers.
    ///
    /// # Panics
    /// Panics if either dimension is zero.
    pub fn torus(width: usize, height: usize) -> Self {
        assert!(
            width > 0 && height > 0,
            "topology dimensions must be positive"
        );
        Topology {
            kind: TopologyKind::Torus,
            width,
            height,
        }
    }

    /// Which kind of topology this is.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Grid width (number of columns).
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid height (number of rows).
    pub fn height(&self) -> usize {
        self.height
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// Coordinate of a node id (row-major).
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn coord(&self, node: NodeId) -> Coord {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        Coord {
            x: node.0 % self.width,
            y: node.0 / self.width,
        }
    }

    /// Node id at a coordinate (row-major).
    ///
    /// # Panics
    /// Panics if the coordinate is out of range.
    pub fn node_at(&self, c: Coord) -> NodeId {
        assert!(
            c.x < self.width && c.y < self.height,
            "coordinate {c} out of range"
        );
        NodeId(c.y * self.width + c.x)
    }

    /// The neighbor reached by leaving `node` through `port`, if the link
    /// exists. `Local` never leads to a neighbor. On a mesh, edge ports have
    /// no neighbor; on a torus, every cardinal port wraps around.
    pub fn neighbor(&self, node: NodeId, port: Port) -> Option<NodeId> {
        let c = self.coord(node);
        let (w, h) = (self.width, self.height);
        let wrapped = |x: usize, y: usize| Some(self.node_at(Coord { x, y }));
        match (self.kind, port) {
            (_, Port::Local) => None,
            (TopologyKind::Mesh, Port::North) => {
                (c.y > 0).then(|| self.node_at(Coord { x: c.x, y: c.y - 1 }))
            }
            (TopologyKind::Mesh, Port::South) => {
                (c.y + 1 < h).then(|| self.node_at(Coord { x: c.x, y: c.y + 1 }))
            }
            (TopologyKind::Mesh, Port::East) => {
                (c.x + 1 < w).then(|| self.node_at(Coord { x: c.x + 1, y: c.y }))
            }
            (TopologyKind::Mesh, Port::West) => {
                (c.x > 0).then(|| self.node_at(Coord { x: c.x - 1, y: c.y }))
            }
            (TopologyKind::Torus, Port::North) => wrapped(c.x, (c.y + h - 1) % h),
            (TopologyKind::Torus, Port::South) => wrapped(c.x, (c.y + 1) % h),
            (TopologyKind::Torus, Port::East) => wrapped((c.x + 1) % w, c.y),
            (TopologyKind::Torus, Port::West) => wrapped((c.x + w - 1) % w, c.y),
        }
    }

    /// "No link" in a [`neighbor_table`](Self::neighbor_table) row.
    pub const NO_LINK: u32 = u32::MAX;

    /// [`neighbor`](Self::neighbor) of every node through each cardinal
    /// port, resolved once: row `n`, column [`Port::index`],
    /// [`NO_LINK`](Self::NO_LINK) off a mesh edge. The cycle loop indexes this where a
    /// `neighbor` call would cost it a `div` and a nine-arm `match` per flit.
    ///
    /// # Panics
    /// Panics if a node id does not fit `u32`.
    pub fn neighbor_table(&self) -> Vec<[u32; 4]> {
        let id = |to: NodeId| u32::try_from(to.0).expect("node id fits u32");
        let link = |n, p| self.neighbor(n, p).map_or(Self::NO_LINK, id);
        self.nodes()
            .map(|n| [Port::North, Port::East, Port::South, Port::West].map(|p| link(n, p)))
            .collect()
    }

    /// Minimal hop distance between two nodes under this topology.
    pub fn distance(&self, a: NodeId, b: NodeId) -> usize {
        let (ca, cb) = (self.coord(a), self.coord(b));
        match self.kind {
            TopologyKind::Mesh => ca.manhattan(&cb),
            TopologyKind::Torus => {
                let dx = ca.x.abs_diff(cb.x);
                let dy = ca.y.abs_diff(cb.y);
                dx.min(self.width - dx) + dy.min(self.height - dy)
            }
        }
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Number of unidirectional router-to-router links in the topology.
    pub fn num_links(&self) -> usize {
        self.nodes()
            .map(|n| {
                Port::ALL
                    .iter()
                    .filter(|&&p| p != Port::Local && self.neighbor(n, p).is_some())
                    .count()
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_coords_roundtrip() {
        let t = Topology::mesh(4, 3);
        for n in t.nodes() {
            assert_eq!(t.node_at(t.coord(n)), n);
        }
        assert_eq!(t.num_nodes(), 12);
    }

    #[test]
    fn mesh_corner_has_two_neighbors() {
        let t = Topology::mesh(4, 4);
        let corner = t.node_at(Coord { x: 0, y: 0 });
        assert_eq!(t.neighbor(corner, Port::North), None);
        assert_eq!(t.neighbor(corner, Port::West), None);
        assert_eq!(t.neighbor(corner, Port::East), Some(NodeId(1)));
        assert_eq!(t.neighbor(corner, Port::South), Some(NodeId(4)));
    }

    #[test]
    fn torus_wraps_around() {
        let t = Topology::torus(4, 4);
        let corner = t.node_at(Coord { x: 0, y: 0 });
        assert_eq!(
            t.neighbor(corner, Port::North),
            Some(t.node_at(Coord { x: 0, y: 3 }))
        );
        assert_eq!(
            t.neighbor(corner, Port::West),
            Some(t.node_at(Coord { x: 3, y: 0 }))
        );
    }

    #[test]
    fn neighbor_table_agrees_with_neighbor() {
        for t in [Topology::mesh(5, 3), Topology::torus(4, 4)] {
            let table = t.neighbor_table();
            assert_eq!(table.len(), t.num_nodes());
            for (n, p) in t
                .nodes()
                .flat_map(|n| Port::ALL[..4].iter().map(move |&p| (n, p)))
            {
                let want = t.neighbor(n, p).map_or(Topology::NO_LINK, |m| m.0 as u32);
                assert_eq!(table[n.0][p.index()], want, "{n} -{p}->");
            }
        }
        assert_eq!(
            Topology::mesh(5, 3).neighbor_table()[0][Port::North.index()],
            Topology::NO_LINK
        );
    }

    #[test]
    fn neighbor_links_are_symmetric() {
        for t in [Topology::mesh(5, 3), Topology::torus(4, 4)] {
            for n in t.nodes() {
                for p in Port::ALL {
                    if let Some(m) = t.neighbor(n, p) {
                        assert_eq!(t.neighbor(m, p.opposite()), Some(n), "{n} -{p}-> {m}");
                    }
                }
            }
        }
    }

    #[test]
    fn mesh_distance_is_manhattan() {
        let t = Topology::mesh(8, 8);
        assert_eq!(t.distance(NodeId(0), NodeId(63)), 14);
        assert_eq!(t.distance(NodeId(0), NodeId(0)), 0);
    }

    #[test]
    fn torus_distance_uses_wraparound() {
        let t = Topology::torus(8, 8);
        // (0,0) -> (7,7): 1 hop west + 1 hop north via wraparound.
        assert_eq!(t.distance(NodeId(0), NodeId(63)), 2);
    }

    #[test]
    fn mesh_link_count() {
        // 2-D mesh: 2 * (w*(h-1) + h*(w-1)) unidirectional links.
        let t = Topology::mesh(4, 4);
        assert_eq!(t.num_links(), 2 * (4 * 3 + 4 * 3));
        let t = Topology::torus(4, 4);
        assert_eq!(t.num_links(), 4 * 16);
    }

    #[test]
    fn port_opposites_are_involutive() {
        for p in Port::ALL {
            assert_eq!(p.opposite().opposite(), p);
        }
    }

    #[test]
    fn port_index_roundtrip() {
        for p in Port::ALL {
            assert_eq!(Port::from_index(p.index()), p);
        }
    }

    #[test]
    fn topology_kind_names_roundtrip() {
        for (name, kind) in TopologyKind::NAMED {
            assert_eq!(kind.name(), name);
            assert_eq!(TopologyKind::parse(name), Ok(kind));
        }
        assert!(TopologyKind::parse("ring").is_err());
        assert_eq!(
            Topology::new(TopologyKind::Torus, 4, 4),
            Topology::torus(4, 4)
        );
        assert_eq!(
            Topology::new(TopologyKind::Mesh, 5, 3),
            Topology::mesh(5, 3)
        );
    }
}
