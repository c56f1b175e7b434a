//! Routing algorithms.
//!
//! Deterministic dimension-ordered routing (XY, YX), three turn-model
//! algorithms (West-First, North-Last, Negative-First), the Odd-Even
//! adaptive turn model (Chiu, 2000), and two wrap-aware torus algorithms:
//! dimension-ordered (`TorusDor`) and minimal-adaptive (`TorusMinAdaptive`),
//! both layered on the dateline VC partition.
//!
//! Conventions: `x` grows east, `y` grows south, so `North` decreases `y`.
//! All algorithms here are *minimal*: every candidate port reduces the
//! distance to the destination, which also bounds worst-case hop count.

use crate::fault::LinkState;
use crate::topology::{Coord, NodeId, Port, Topology, TopologyKind};
use serde::{Deserialize, Serialize};

crate::vocabulary! {
    /// Selectable routing algorithm.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
    pub enum RoutingAlgorithm as "routing" {
        /// Dimension-ordered: route fully in X, then in Y. Deadlock-free on mesh.
        Xy = "xy",
        /// Dimension-ordered: route fully in Y, then in X. Deadlock-free on mesh.
        Yx = "yx",
        /// Turn model: all westward hops are taken first; afterwards the packet
        /// routes adaptively among the remaining minimal directions.
        WestFirst = "westfirst",
        /// Turn model: northward hops may only be taken last.
        NorthLast = "northlast",
        /// Turn model: hops in negative directions (west, north) are taken first.
        NegativeFirst = "negfirst",
        /// Odd-Even adaptive turn model (Chiu, 2000). Restricts where east-north /
        /// east-south and north-west / south-west turns may occur based on column
        /// parity, giving deadlock freedom without virtual-channel partitioning.
        OddEven = "oddeven",
        /// Wrap-aware dimension-ordered routing for tori. Requires a dateline
        /// virtual-channel partition for deadlock freedom (handled by the
        /// router's VC allocator).
        TorusDor = "torusdor",
        /// Minimal-adaptive routing for tori: at every hop the packet may
        /// advance in either dimension (each dimension's direction is the
        /// wrap-aware minimal one, ties going east/south like [`TorusDor`]),
        /// layered on the same dateline VC classes. The adaptivity is what makes
        /// torus link faults survivable: [`route_live`] has an alternative
        /// minimal port to fall back on. See DESIGN.md §10 for the
        /// deadlock-freedom discussion.
        TorusMinAdaptive = "torusmin",
        /// Table-driven k-shortest-path routing (mesh *and* torus): up to
        /// [`RoutingTables::K_DEFAULT`] minimal paths are precomputed per
        /// (src, dst) pair over the currently-live links, a packet's path is
        /// selected deterministically from its pair, and the network rebuilds
        /// the tables whenever the live-link set changes. On the mesh the
        /// enumerated paths obey the West-First turn rule; on the torus they
        /// stay inside the wrap-aware minimal DAG, deadlock-guarded by the
        /// dateline VC classes. See DESIGN.md §13.
        Table = "table",
    }
}

impl RoutingAlgorithm {
    /// Whether the algorithm may return more than one candidate port
    /// (adaptive) or always exactly one (deterministic/oblivious).
    pub fn is_adaptive(self) -> bool {
        matches!(
            self,
            RoutingAlgorithm::WestFirst
                | RoutingAlgorithm::NorthLast
                | RoutingAlgorithm::NegativeFirst
                | RoutingAlgorithm::OddEven
                | RoutingAlgorithm::TorusMinAdaptive
        )
    }

    /// Whether this algorithm is valid on the given topology.
    pub fn supports(self, kind: TopologyKind) -> bool {
        match self {
            RoutingAlgorithm::TorusDor | RoutingAlgorithm::TorusMinAdaptive => {
                kind == TopologyKind::Torus
            }
            RoutingAlgorithm::Table => true,
            _ => kind == TopologyKind::Mesh,
        }
    }

    /// The closest equivalent of this algorithm on the given topology:
    /// identity when the algorithm already supports it, otherwise the
    /// same-family counterpart (deterministic dimension-ordered algorithms
    /// map to [`RoutingAlgorithm::TorusDor`] / [`RoutingAlgorithm::Xy`],
    /// adaptive ones to [`RoutingAlgorithm::TorusMinAdaptive`] /
    /// [`RoutingAlgorithm::OddEven`]). This is how the sweep engine and the
    /// CLI make one `routings` axis meaningful across a mixed
    /// mesh-and-torus topology axis.
    pub fn for_topology(self, kind: TopologyKind) -> RoutingAlgorithm {
        if self.supports(kind) {
            return self;
        }
        match kind {
            TopologyKind::Torus => {
                if self.is_adaptive() {
                    RoutingAlgorithm::TorusMinAdaptive
                } else {
                    RoutingAlgorithm::TorusDor
                }
            }
            TopologyKind::Mesh => {
                if self.is_adaptive() {
                    RoutingAlgorithm::OddEven
                } else {
                    RoutingAlgorithm::Xy
                }
            }
        }
    }
}

/// Signed offsets toward the destination: `(ex, ey)` where positive `ex`
/// means the destination lies east and positive `ey` means south.
fn offsets(cur: Coord, dst: Coord) -> (isize, isize) {
    (
        dst.x as isize - cur.x as isize,
        dst.y as isize - cur.y as isize,
    )
}

/// Stack-allocated candidate list returned by [`route`] and [`route_live`].
///
/// Minimal 2-D routing offers at most one productive direction per
/// dimension, so two slots always suffice (the `cur == dst` case is the
/// `Local` singleton). Dereferences to `&[Port]`, so it reads like the
/// `Vec<Port>` it replaces — without the per-call heap allocation that
/// made route computation the hottest allocator site in the cycle core.
#[derive(Debug, Clone, Copy, Eq)]
pub struct Candidates {
    ports: [Port; 2],
    len: u8,
}

impl Candidates {
    const fn new() -> Self {
        Candidates {
            ports: [Port::Local; 2],
            len: 0,
        }
    }

    const fn one(p: Port) -> Self {
        Candidates {
            ports: [p, Port::Local],
            len: 1,
        }
    }

    fn push(&mut self, p: Port) {
        self.ports[self.len as usize] = p;
        self.len += 1;
    }

    fn retain(&mut self, keep: impl Fn(Port) -> bool) {
        let mut kept = Candidates::new();
        for &p in self.iter() {
            if keep(p) {
                kept.push(p);
            }
        }
        *self = kept;
    }
}

impl std::ops::Deref for Candidates {
    type Target = [Port];
    fn deref(&self) -> &[Port] {
        &self.ports[..self.len as usize]
    }
}

impl IntoIterator for Candidates {
    type Item = Port;
    type IntoIter = std::iter::Take<std::array::IntoIter<Port, 2>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ports.into_iter().take(self.len as usize)
    }
}

impl PartialEq for Candidates {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl PartialEq<Vec<Port>> for Candidates {
    fn eq(&self, other: &Vec<Port>) -> bool {
        **self == other[..]
    }
}

/// Compute the set of candidate output ports for a flit currently at `cur`,
/// heading to `dst`, having entered the network at `src`.
///
/// Returns the `Local` singleton when `cur == dst`. Otherwise, every returned
/// port is a productive (distance-reducing) direction permitted by the
/// algorithm; the list is never empty.
///
/// # Panics
/// Panics if the algorithm does not support the topology kind (e.g. `TorusDor`
/// on a mesh), or if any node id is out of range.
pub fn route(
    alg: RoutingAlgorithm,
    topo: &Topology,
    cur: NodeId,
    src: NodeId,
    dst: NodeId,
) -> Candidates {
    assert!(
        alg.supports(topo.kind()),
        "routing algorithm {alg:?} does not support topology {:?}",
        topo.kind()
    );
    if cur == dst {
        return Candidates::one(Port::Local);
    }
    let c = topo.coord(cur);
    let d = topo.coord(dst);
    let s = topo.coord(src);
    match alg {
        RoutingAlgorithm::Xy => route_xy(c, d),
        RoutingAlgorithm::Yx => route_yx(c, d),
        RoutingAlgorithm::WestFirst => route_west_first(c, d),
        RoutingAlgorithm::NorthLast => route_north_last(c, d),
        RoutingAlgorithm::NegativeFirst => route_negative_first(c, d),
        RoutingAlgorithm::OddEven => route_odd_even(c, s, d),
        RoutingAlgorithm::TorusDor => route_torus_dor(topo, c, d),
        RoutingAlgorithm::TorusMinAdaptive => route_torus_min_adaptive(topo, c, d),
        RoutingAlgorithm::Table => {
            panic!("table routing resolves through RoutingTables::next_hop, not route()")
        }
    }
}

fn x_port(ex: isize) -> Port {
    if ex > 0 {
        Port::East
    } else {
        Port::West
    }
}

fn y_port(ey: isize) -> Port {
    if ey > 0 {
        Port::South
    } else {
        Port::North
    }
}

fn route_xy(c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    if ex != 0 {
        Candidates::one(x_port(ex))
    } else {
        Candidates::one(y_port(ey))
    }
}

fn route_yx(c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    if ey != 0 {
        Candidates::one(y_port(ey))
    } else {
        Candidates::one(x_port(ex))
    }
}

/// West-First: a packet whose destination lies to the west must take all its
/// west hops first (no turning into west later). Once no west hops remain,
/// route adaptively among the minimal productive directions.
fn route_west_first(c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    if ex < 0 {
        return Candidates::one(Port::West);
    }
    let mut out = Candidates::new();
    if ex > 0 {
        out.push(Port::East);
    }
    if ey != 0 {
        out.push(y_port(ey));
    }
    out
}

/// North-Last: northward hops (decreasing `y`) may only be taken once no
/// other productive direction remains, because no turn out of north is
/// permitted.
fn route_north_last(c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    let mut out = Candidates::new();
    if ex != 0 {
        out.push(x_port(ex));
    }
    if ey > 0 {
        out.push(Port::South);
    }
    if out.is_empty() {
        // Only north remains.
        out.push(Port::North);
    }
    out
}

/// Negative-First: hops in negative directions (west = -x, north = -y) must
/// all be taken before any positive hop, because turns from positive into
/// negative directions are prohibited.
fn route_negative_first(c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    let mut neg = Candidates::new();
    if ex < 0 {
        neg.push(Port::West);
    }
    if ey < 0 {
        neg.push(Port::North);
    }
    if !neg.is_empty() {
        return neg;
    }
    let mut pos = Candidates::new();
    if ex > 0 {
        pos.push(Port::East);
    }
    if ey > 0 {
        pos.push(Port::South);
    }
    pos
}

/// Odd-Even minimal adaptive routing (the `ROUTE` function of Chiu, 2000).
///
/// Column parity is taken on `x`. Restrictions:
/// * EN/ES turns are forbidden in even columns — an eastbound packet may only
///   turn north/south in odd columns (or in its source column);
/// * NW/SW turns are forbidden in odd columns — a westbound packet may only
///   turn west from north/south in even columns, which manifests here as
///   "north/south moves while heading west are only offered in even columns".
fn route_odd_even(c: Coord, s: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    let mut out = Candidates::new();
    if ex == 0 {
        // Same column: straight north/south.
        out.push(y_port(ey));
        return out;
    }
    if ex > 0 {
        // Eastbound.
        if ey == 0 {
            out.push(Port::East);
        } else {
            // Turning off the east direction is an EN/ES turn, allowed only
            // in odd columns or the source column.
            if c.x % 2 == 1 || c.x == s.x {
                out.push(y_port(ey));
            }
            // Continuing east is allowed unless the destination column is
            // even and exactly one hop away (the final EN/ES turn would then
            // land in an even column where it is forbidden).
            if d.x % 2 == 1 || ex != 1 {
                out.push(Port::East);
            }
            if out.is_empty() {
                // Fallback that cannot occur for valid meshes, but keep the
                // function total: take the vertical move.
                out.push(y_port(ey));
            }
        }
    } else {
        // Westbound: west is always permitted.
        out.push(Port::West);
        // NW/SW turns later are only legal from even columns, so offer the
        // vertical move only in even columns.
        if ey != 0 && c.x.is_multiple_of(2) {
            out.push(y_port(ey));
        }
    }
    out
}

/// Wrap-aware minimal direction along one ring dimension: `delta` is the
/// signed mesh offset, `extent` the ring length. `None` when the dimension is
/// already resolved; ties (an even ring with the destination exactly halfway)
/// go in the positive (east/south) direction.
fn ring_direction(delta: isize, extent: isize, pos: Port, neg: Port) -> Option<Port> {
    if delta == 0 {
        return None;
    }
    let fwd = delta.rem_euclid(extent);
    Some(if fwd <= extent - fwd { pos } else { neg })
}

/// Wrap-aware dimension-ordered routing for the torus: route X first, then Y,
/// choosing the direction with the fewer hops (ties go east/south).
fn route_torus_dor(topo: &Topology, c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    match ring_direction(ex, topo.width() as isize, Port::East, Port::West) {
        Some(p) => Candidates::one(p),
        None => Candidates::one(
            ring_direction(ey, topo.height() as isize, Port::South, Port::North)
                .expect("cur != dst implies a remaining offset"),
        ),
    }
}

/// Minimal-adaptive torus routing: offer the wrap-aware minimal direction of
/// *every* unresolved dimension (each dimension's direction chosen exactly
/// like [`route_torus_dor`], ties east/south), so the router can pick by
/// downstream credit — and [`route_live`] can pick by liveness. Every
/// candidate reduces the wrap-aware distance by one, so paths stay minimal.
fn route_torus_min_adaptive(topo: &Topology, c: Coord, d: Coord) -> Candidates {
    let (ex, ey) = offsets(c, d);
    let mut out = Candidates::new();
    if let Some(p) = ring_direction(ex, topo.width() as isize, Port::East, Port::West) {
        out.push(p);
    }
    if let Some(p) = ring_direction(ey, topo.height() as isize, Port::South, Port::North) {
        out.push(p);
    }
    out
}

/// Fault-aware variant of [`route`]: compute the algorithm's candidate
/// ports, then exclude any whose output link is currently dead. Because the
/// surviving set is a subset of the turns the algorithm already permits, the
/// deadlock-freedom argument of each turn model carries over unchanged.
///
/// Unlike [`route`], the result **may be empty**: the packet is unroutable
/// under the current fault set (every minimal permitted direction is dead)
/// and the router must drop it rather than wedge. `Local` delivery at the
/// destination is never filtered.
///
/// # Panics
/// Panics if the algorithm does not support the topology kind.
pub fn route_live(
    alg: RoutingAlgorithm,
    topo: &Topology,
    faults: &LinkState,
    cur: NodeId,
    src: NodeId,
    dst: NodeId,
) -> Candidates {
    let mut cands = route(alg, topo, cur, src, dst);
    cands.retain(|p| p == Port::Local || faults.is_link_up(cur, p));
    cands
}

/// Precomputed k-shortest-path tables for [`RoutingAlgorithm::Table`].
///
/// For every (src, dst) pair, up to `k` *minimal* paths — stored as output
/// port sequences from src — are enumerated over the currently-live links.
/// On the mesh the enumeration is restricted to West-First-legal turn
/// orders (a westbound pair with vertical hops admits only the all-west-
/// first order), so the union of turns any table can use is a subset of the
/// West-First allowed set and the channel-dependence graph stays acyclic.
/// On the torus the paths are interleavings of the two wrap-aware minimal
/// directions (the same DAG [`RoutingAlgorithm::TorusMinAdaptive`] routes
/// in), with deadlock freedom supplied by the dateline VC classes.
///
/// A packet's path is selected deterministically by hashing its (src, dst)
/// pair, so the spreading is reproducible and byte-identical across
/// reruns. The network rebuilds the tables whenever the
/// live-link set changes (fault onset *and* heal); a packet caught mid-
/// flight off every new path becomes unroutable ([`RoutingTables::next_hop`]
/// returns `None`) and is drained by the router's drop machinery instead of
/// wedging.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingTables {
    k: usize,
    nodes: usize,
    /// `paths[src * nodes + dst]`: up to `k` port sequences, in the
    /// deterministic x-step-first enumeration order.
    paths: Vec<Vec<Vec<Port>>>,
}

impl RoutingTables {
    /// Default number of paths kept per (src, dst) pair.
    pub const K_DEFAULT: usize = 4;

    /// Build tables for `topo` over the links live under `faults`
    /// (`None` = pristine fabric), keeping at most `k` paths per pair.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn build(topo: &Topology, faults: Option<&LinkState>, k: usize) -> Self {
        assert!(k > 0, "table routing needs at least one path per pair");
        let nodes = topo.num_nodes();
        let mut paths = Vec::with_capacity(nodes * nodes);
        for src in topo.nodes() {
            for dst in topo.nodes() {
                if src == dst {
                    paths.push(Vec::new());
                } else {
                    paths.push(live_paths(topo, faults, src, dst, k));
                }
            }
        }
        RoutingTables { k, nodes, paths }
    }

    /// Paths kept per pair (the build-time `k`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// The live minimal paths for (src, dst), as output-port sequences
    /// from `src`. Empty iff the pair is disconnected under the fault set
    /// the tables were built for (or `src == dst`).
    pub fn paths(&self, src: NodeId, dst: NodeId) -> &[Vec<Port>] {
        &self.paths[src.0 * self.nodes + dst.0]
    }

    /// The selected path for (src, dst), if any: a deterministic pair-hash
    /// pick among the live paths.
    pub fn selected_path(&self, src: NodeId, dst: NodeId) -> Option<&[Port]> {
        let list = self.paths(src, dst);
        if list.is_empty() {
            return None;
        }
        Some(&list[(src.0.wrapping_mul(31) ^ dst.0.wrapping_mul(17)) % list.len()])
    }

    /// The output port a packet (src → dst) takes at `cur`, or `None` if
    /// the packet is unroutable: its pair has no live path, or `cur` is off
    /// the selected path (possible after a mid-flight table recompute).
    /// Returns `Port::Local` at the destination.
    pub fn next_hop(&self, topo: &Topology, cur: NodeId, src: NodeId, dst: NodeId) -> Option<Port> {
        if cur == dst {
            return Some(Port::Local);
        }
        let path = self.selected_path(src, dst)?;
        let mut node = src;
        for &port in path {
            if node == cur {
                return Some(port);
            }
            node = topo.neighbor(node, port)?;
        }
        None
    }
}

/// Table lookup as a [`Candidates`] list: the single selected port, or the
/// empty set when the packet is unroutable (the router drains it).
pub fn route_table(
    tables: &RoutingTables,
    topo: &Topology,
    cur: NodeId,
    src: NodeId,
    dst: NodeId,
) -> Candidates {
    match tables.next_hop(topo, cur, src, dst) {
        Some(p) => Candidates::one(p),
        None => Candidates::new(),
    }
}

/// Per-dimension minimal direction and hop count for (src → dst): mesh
/// offsets directly, wrap-aware ring distances on the torus (ties going
/// east/south exactly like [`route_torus_dor`]).
fn dim_moves(topo: &Topology, src: NodeId, dst: NodeId) -> ((Port, usize), (Port, usize)) {
    let (s, d) = (topo.coord(src), topo.coord(dst));
    let (ex, ey) = offsets(s, d);
    match topo.kind() {
        TopologyKind::Mesh => (
            (x_port(ex), ex.unsigned_abs()),
            (y_port(ey), ey.unsigned_abs()),
        ),
        TopologyKind::Torus => {
            let ring = |delta: isize, extent: isize, pos, neg| {
                let fwd = delta.rem_euclid(extent);
                let hops = fwd.min(extent - fwd) as usize;
                // At fwd == 0 the direction is irrelevant (zero hops).
                let dir = if fwd <= extent - fwd { pos } else { neg };
                (dir, hops)
            };
            (
                ring(ex, topo.width() as isize, Port::East, Port::West),
                ring(ey, topo.height() as isize, Port::South, Port::North),
            )
        }
    }
}

/// Enumerate up to `k` live minimal paths src → dst in deterministic
/// x-step-first DFS order. A dead-state memo over the (remaining-x,
/// remaining-y) grid keeps the search linear in the grid area even when
/// faults close off most interleavings.
fn live_paths(
    topo: &Topology,
    faults: Option<&LinkState>,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Vec<Vec<Port>> {
    let ((xdir, xn), (ydir, yn)) = dim_moves(topo, src, dst);
    // Mesh West-First legality: once a vertical hop is taken, no west hop
    // may follow (N→W / S→W turns are the ones West-First forbids), so a
    // westbound pair admits only the all-west-hops-first order.
    let west_block = topo.kind() == TopologyKind::Mesh && xdir == Port::West && yn > 0;
    let mut out = Vec::new();
    let mut dead = vec![false; (xn + 1) * (yn + 1)];
    let mut path = Vec::with_capacity(xn + yn);
    paths_dfs(
        topo,
        faults,
        src,
        (xdir, ydir),
        (xn, yn),
        yn,
        west_block,
        k,
        &mut path,
        &mut out,
        &mut dead,
    );
    out
}

/// DFS worker for [`live_paths`]: `rem` holds the remaining hops per
/// dimension; returns whether any live completion exists below this state.
#[allow(clippy::too_many_arguments)]
fn paths_dfs(
    topo: &Topology,
    faults: Option<&LinkState>,
    node: NodeId,
    dirs: (Port, Port),
    rem: (usize, usize),
    yn: usize,
    west_block: bool,
    k: usize,
    path: &mut Vec<Port>,
    out: &mut Vec<Vec<Port>>,
    dead: &mut [bool],
) -> bool {
    let (rx, ry) = rem;
    if rx == 0 && ry == 0 {
        out.push(path.clone());
        return true;
    }
    if dead[rx * (yn + 1) + ry] {
        return false;
    }
    let mut found = false;
    let try_dir = |dir: Port,
                   nrem: (usize, usize),
                   path: &mut Vec<Port>,
                   out: &mut Vec<Vec<Port>>,
                   dead: &mut [bool]|
     -> bool {
        if out.len() >= k {
            return false;
        }
        if faults.is_some_and(|ls| !ls.is_link_up(node, dir)) {
            return false;
        }
        let Some(next) = topo.neighbor(node, dir) else {
            return false;
        };
        path.push(dir);
        let ok = paths_dfs(
            topo, faults, next, dirs, nrem, yn, west_block, k, path, out, dead,
        );
        path.pop();
        ok
    };
    if rx > 0 {
        found |= try_dir(dirs.0, (rx - 1, ry), path, out, dead);
    }
    if ry > 0 && !(west_block && rx > 0) {
        found |= try_dir(dirs.1, (rx, ry - 1), path, out, dead);
    }
    // Only a fully-explored failure (not a k-cap cutoff) proves the state
    // dead for future visits.
    if !found && out.len() < k {
        dead[rx * (yn + 1) + ry] = true;
    }
    found
}

/// Walk a packet from `src` to `dst` by repeatedly applying the routing
/// function and picking the candidate selected by `choose` (index into the
/// candidate list). Returns the sequence of nodes visited, ending at `dst`.
///
/// This is a testing/analysis helper: it ignores contention and flow control.
///
/// # Panics
/// Panics if the walk exceeds `4 * (width + height)` hops, which indicates a
/// non-minimal or divergent routing function.
pub fn walk_route<F>(
    alg: RoutingAlgorithm,
    topo: &Topology,
    src: NodeId,
    dst: NodeId,
    mut choose: F,
) -> Vec<NodeId>
where
    F: FnMut(&[Port]) -> usize,
{
    let mut path = vec![src];
    let mut cur = src;
    let bound = 4 * (topo.width() + topo.height()) + 4;
    while cur != dst {
        let cands = route(alg, topo, cur, src, dst);
        assert!(!cands.is_empty(), "routing returned no candidates at {cur}");
        let port = cands[choose(&cands).min(cands.len() - 1)];
        assert_ne!(port, Port::Local, "local port before destination at {cur}");
        cur = topo
            .neighbor(cur, port)
            .unwrap_or_else(|| panic!("routing sent flit off the edge at {cur} via {port}"));
        path.push(cur);
        assert!(
            path.len() <= bound,
            "routing walk exceeded {bound} hops ({alg:?})"
        );
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    const MESH_ALGS: [RoutingAlgorithm; 6] = [
        RoutingAlgorithm::Xy,
        RoutingAlgorithm::Yx,
        RoutingAlgorithm::WestFirst,
        RoutingAlgorithm::NorthLast,
        RoutingAlgorithm::NegativeFirst,
        RoutingAlgorithm::OddEven,
    ];

    #[test]
    fn local_delivery_at_destination() {
        let t = Topology::mesh(4, 4);
        for alg in MESH_ALGS {
            assert_eq!(
                route(alg, &t, NodeId(5), NodeId(0), NodeId(5)),
                vec![Port::Local]
            );
        }
    }

    #[test]
    fn xy_routes_x_before_y() {
        let t = Topology::mesh(4, 4);
        // From (0,0) to (2,2): go east first.
        assert_eq!(
            route(RoutingAlgorithm::Xy, &t, NodeId(0), NodeId(0), NodeId(10)),
            vec![Port::East]
        );
        // Aligned in x: go south.
        assert_eq!(
            route(RoutingAlgorithm::Xy, &t, NodeId(2), NodeId(0), NodeId(10)),
            vec![Port::South]
        );
    }

    #[test]
    fn yx_routes_y_before_x() {
        let t = Topology::mesh(4, 4);
        assert_eq!(
            route(RoutingAlgorithm::Yx, &t, NodeId(0), NodeId(0), NodeId(10)),
            vec![Port::South]
        );
    }

    #[test]
    fn all_mesh_algorithms_reach_every_destination_minimally() {
        let t = Topology::mesh(5, 4);
        for alg in MESH_ALGS {
            for src in t.nodes() {
                for dst in t.nodes() {
                    // Greedy-first choice.
                    let path = walk_route(alg, &t, src, dst, |_| 0);
                    assert_eq!(path.len() - 1, t.distance(src, dst), "{alg:?} {src}->{dst}");
                    // Last-candidate choice (exercises the adaptive branch).
                    let path = walk_route(alg, &t, src, dst, |c| c.len() - 1);
                    assert_eq!(path.len() - 1, t.distance(src, dst), "{alg:?} {src}->{dst}");
                }
            }
        }
    }

    #[test]
    fn torus_dor_reaches_every_destination_minimally() {
        let t = Topology::torus(4, 4);
        for src in t.nodes() {
            for dst in t.nodes() {
                let path = walk_route(RoutingAlgorithm::TorusDor, &t, src, dst, |_| 0);
                assert_eq!(path.len() - 1, t.distance(src, dst), "{src}->{dst}");
            }
        }
    }

    #[test]
    fn torus_min_adaptive_reaches_every_destination_minimally() {
        // Square and rectangular tori, greedy-first and last-candidate
        // choices (the latter exercises the adaptive branch).
        for t in [Topology::torus(4, 4), Topology::torus(5, 3)] {
            for src in t.nodes() {
                for dst in t.nodes() {
                    for pick_last in [false, true] {
                        let path =
                            walk_route(RoutingAlgorithm::TorusMinAdaptive, &t, src, dst, |c| {
                                if pick_last {
                                    c.len() - 1
                                } else {
                                    0
                                }
                            });
                        assert_eq!(path.len() - 1, t.distance(src, dst), "{src}->{dst}");
                    }
                }
            }
        }
    }

    #[test]
    fn torus_min_adaptive_offers_both_dimensions() {
        let t = Topology::torus(4, 4);
        // (0,0) -> (2,2): X and Y both unresolved -> two candidates. The X
        // offset is a tie (2 hops either way), which goes east like DOR.
        let cands = route(
            RoutingAlgorithm::TorusMinAdaptive,
            &t,
            NodeId(0),
            NodeId(0),
            NodeId(10),
        );
        assert_eq!(cands, vec![Port::East, Port::South]);
        // (0,0) -> (3,3): both dimensions minimal via the wrap links.
        let cands = route(
            RoutingAlgorithm::TorusMinAdaptive,
            &t,
            NodeId(0),
            NodeId(0),
            NodeId(15),
        );
        assert_eq!(cands, vec![Port::West, Port::North]);
        // Resolved X: only the Y move remains, exactly like DOR.
        let cands = route(
            RoutingAlgorithm::TorusMinAdaptive,
            &t,
            NodeId(2),
            NodeId(0),
            NodeId(10),
        );
        assert_eq!(cands, vec![Port::South]);
    }

    #[test]
    fn torus_min_adaptive_candidates_are_productive() {
        let t = Topology::torus(5, 4);
        for src in t.nodes() {
            for dst in t.nodes() {
                if src == dst {
                    continue;
                }
                for p in route(RoutingAlgorithm::TorusMinAdaptive, &t, src, src, dst) {
                    let n = t.neighbor(src, p).expect("torus ports always wired");
                    assert_eq!(
                        t.distance(n, dst) + 1,
                        t.distance(src, dst),
                        "unproductive candidate {p} at {src} toward {dst}"
                    );
                }
            }
        }
    }

    #[test]
    fn torus_min_adaptive_routes_around_a_dead_wrap_link() {
        use crate::fault::{FaultEvent, FaultPlan, FaultTarget, LinkState};
        let t = Topology::torus(4, 4);
        // Kill the X wrap link out of (3,0) east to (0,0).
        let plan = FaultPlan::new(vec![FaultEvent {
            start: 0,
            duration: None,
            target: FaultTarget::Link {
                node: NodeId(3),
                port: Port::East,
            },
        }])
        .unwrap();
        let mut ls = LinkState::healthy(16);
        ls.recompute(&t, &plan, 0);
        // From (3,0) to (0,1): east (wrap) and south both minimal; only
        // south survives the fault.
        let cands = route_live(
            RoutingAlgorithm::TorusMinAdaptive,
            &t,
            &ls,
            NodeId(3),
            NodeId(3),
            NodeId(4),
        );
        assert_eq!(cands, vec![Port::South]);
        // DOR has no alternative at the same hop: unroutable.
        let cands = route_live(
            RoutingAlgorithm::TorusDor,
            &t,
            &ls,
            NodeId(3),
            NodeId(3),
            NodeId(4),
        );
        assert!(cands.is_empty(), "DOR cannot sidestep its dead X link");
    }

    #[test]
    fn for_topology_maps_each_family() {
        use crate::topology::TopologyKind::{Mesh, Torus};
        // Identity when already supported.
        for (_, alg) in RoutingAlgorithm::NAMED {
            for kind in [Mesh, Torus] {
                let eq = alg.for_topology(kind);
                assert!(eq.supports(kind), "{alg:?} -> {eq:?} must support {kind:?}");
                if alg.supports(kind) {
                    assert_eq!(eq, alg);
                }
                // The mapping preserves adaptivity.
                assert_eq!(eq.is_adaptive(), alg.is_adaptive(), "{alg:?} on {kind:?}");
            }
        }
        assert_eq!(
            RoutingAlgorithm::Xy.for_topology(Torus),
            RoutingAlgorithm::TorusDor
        );
        assert_eq!(
            RoutingAlgorithm::OddEven.for_topology(Torus),
            RoutingAlgorithm::TorusMinAdaptive
        );
        assert_eq!(
            RoutingAlgorithm::TorusDor.for_topology(Mesh),
            RoutingAlgorithm::Xy
        );
        assert_eq!(
            RoutingAlgorithm::TorusMinAdaptive.for_topology(Mesh),
            RoutingAlgorithm::OddEven
        );
    }

    #[test]
    fn west_first_takes_west_hops_first() {
        let t = Topology::mesh(4, 4);
        // From (3,0) to (0,2): must head west while any west hop remains.
        let cands = route(
            RoutingAlgorithm::WestFirst,
            &t,
            NodeId(3),
            NodeId(3),
            NodeId(8),
        );
        assert_eq!(cands, vec![Port::West]);
    }

    #[test]
    fn west_first_is_adaptive_when_no_west_hops() {
        let t = Topology::mesh(4, 4);
        // From (0,0) to (2,2): east and south both minimal and allowed.
        let cands = route(
            RoutingAlgorithm::WestFirst,
            &t,
            NodeId(0),
            NodeId(0),
            NodeId(10),
        );
        assert!(cands.contains(&Port::East) && cands.contains(&Port::South));
    }

    #[test]
    fn north_last_defers_north() {
        let t = Topology::mesh(4, 4);
        // From (0,2) to (2,0): north needed but east available -> east only.
        let cands = route(
            RoutingAlgorithm::NorthLast,
            &t,
            NodeId(8),
            NodeId(8),
            NodeId(2),
        );
        assert_eq!(cands, vec![Port::East]);
        // Aligned in x: now north is permitted.
        let cands = route(
            RoutingAlgorithm::NorthLast,
            &t,
            NodeId(10),
            NodeId(8),
            NodeId(2),
        );
        assert_eq!(cands, vec![Port::North]);
    }

    #[test]
    fn negative_first_takes_negative_hops_first() {
        let t = Topology::mesh(4, 4);
        // From (1,1) to (0,3): west (negative) before south (positive).
        let cands = route(
            RoutingAlgorithm::NegativeFirst,
            &t,
            NodeId(5),
            NodeId(5),
            NodeId(12),
        );
        assert_eq!(cands, vec![Port::West]);
        // From (0,1) to (2,3): only positive hops remain -> adaptive.
        let cands = route(
            RoutingAlgorithm::NegativeFirst,
            &t,
            NodeId(4),
            NodeId(4),
            NodeId(14),
        );
        assert!(cands.contains(&Port::East) && cands.contains(&Port::South));
    }

    /// Track the direction of travel along a walk and assert odd-even's turn
    /// restrictions are never violated.
    #[test]
    fn odd_even_never_takes_forbidden_turns() {
        let t = Topology::mesh(6, 6);
        for src in t.nodes() {
            for dst in t.nodes() {
                for pick_last in [false, true] {
                    let path = walk_route(RoutingAlgorithm::OddEven, &t, src, dst, |c| {
                        if pick_last {
                            c.len() - 1
                        } else {
                            0
                        }
                    });
                    let mut prev_dir: Option<Port> = None;
                    for win in path.windows(2) {
                        let (a, b) = (t.coord(win[0]), t.coord(win[1]));
                        let dir = if b.x > a.x {
                            Port::East
                        } else if b.x < a.x {
                            Port::West
                        } else if b.y < a.y {
                            Port::North
                        } else {
                            Port::South
                        };
                        if let Some(p) = prev_dir {
                            let col_even = a.x % 2 == 0;
                            let en_es =
                                p == Port::East && (dir == Port::North || dir == Port::South);
                            let nw_sw = (p == Port::North || p == Port::South) && dir == Port::West;
                            assert!(!en_es || !col_even, "EN/ES turn in even column at {a}");
                            assert!(!nw_sw || col_even, "NW/SW turn in odd column at {a}");
                        }
                        prev_dir = Some(dir);
                    }
                }
            }
        }
    }

    #[test]
    fn candidates_are_always_productive() {
        let t = Topology::mesh(5, 5);
        for alg in MESH_ALGS {
            for src in t.nodes() {
                for dst in t.nodes() {
                    if src == dst {
                        continue;
                    }
                    for p in route(alg, &t, src, src, dst) {
                        let n = t.neighbor(src, p).expect("candidate off edge");
                        assert_eq!(
                            t.distance(n, dst) + 1,
                            t.distance(src, dst),
                            "{alg:?}: unproductive candidate {p} at {src} toward {dst}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not support")]
    fn torus_dor_on_mesh_panics() {
        let t = Topology::mesh(4, 4);
        let _ = route(
            RoutingAlgorithm::TorusDor,
            &t,
            NodeId(0),
            NodeId(0),
            NodeId(1),
        );
    }

    #[test]
    fn route_live_excludes_dead_ports_and_reports_unroutable() {
        use crate::fault::{FaultEvent, FaultPlan, FaultTarget, LinkState};
        let t = Topology::mesh(4, 4);
        // Kill the link east out of (0,0).
        let plan = FaultPlan::new(vec![FaultEvent {
            start: 0,
            duration: None,
            target: FaultTarget::Link {
                node: NodeId(0),
                port: Port::East,
            },
        }])
        .unwrap();
        let mut ls = LinkState::healthy(16);
        ls.recompute(&t, &plan, 0);
        // West-First from (0,0) to (2,2) offers east+south; east is dead, so
        // only south survives — a minimal alternative exists.
        let cands = route_live(
            RoutingAlgorithm::WestFirst,
            &t,
            &ls,
            NodeId(0),
            NodeId(0),
            NodeId(10),
        );
        assert_eq!(cands, vec![Port::South]);
        // XY from (0,0) to (1,0) has only the dead port: unroutable.
        let cands = route_live(
            RoutingAlgorithm::Xy,
            &t,
            &ls,
            NodeId(0),
            NodeId(0),
            NodeId(1),
        );
        assert!(
            cands.is_empty(),
            "dead-only candidate set must come back empty"
        );
        // Local delivery at the destination is never filtered.
        let cands = route_live(
            RoutingAlgorithm::Xy,
            &t,
            &ls,
            NodeId(0),
            NodeId(4),
            NodeId(0),
        );
        assert_eq!(cands, vec![Port::Local]);
    }

    #[test]
    fn adaptivity_flags() {
        assert!(!RoutingAlgorithm::Xy.is_adaptive());
        assert!(RoutingAlgorithm::OddEven.is_adaptive());
        assert!(RoutingAlgorithm::WestFirst.is_adaptive());
        assert!(!RoutingAlgorithm::TorusDor.is_adaptive());
        assert!(RoutingAlgorithm::TorusMinAdaptive.is_adaptive());
        assert!(!RoutingAlgorithm::Table.is_adaptive());
    }

    #[test]
    fn tables_walk_every_pair_minimally() {
        for topo in [Topology::mesh(4, 4), Topology::torus(4, 4)] {
            let tables = RoutingTables::build(&topo, None, RoutingTables::K_DEFAULT);
            for src in topo.nodes() {
                for dst in topo.nodes() {
                    if src == dst {
                        assert!(tables.paths(src, dst).is_empty());
                        continue;
                    }
                    let dist = topo.distance(src, dst);
                    let list = tables.paths(src, dst);
                    assert!(!list.is_empty(), "pristine fabric: {src}->{dst} has paths");
                    assert!(list.len() <= RoutingTables::K_DEFAULT);
                    for path in list {
                        assert_eq!(path.len(), dist, "{src}->{dst} path must be minimal");
                        let mut node = src;
                        for &port in path {
                            node = topo.neighbor(node, port).expect("path on the grid");
                        }
                        assert_eq!(node, dst, "{src}->{dst} path must end at dst");
                    }
                    // next_hop walks the selected path to the destination.
                    let mut cur = src;
                    for _ in 0..dist {
                        let p = tables.next_hop(&topo, cur, src, dst).expect("on-path hop");
                        assert_ne!(p, Port::Local);
                        cur = topo.neighbor(cur, p).unwrap();
                    }
                    assert_eq!(cur, dst);
                    assert_eq!(tables.next_hop(&topo, dst, src, dst), Some(Port::Local));
                }
            }
        }
    }

    #[test]
    fn mesh_tables_use_only_west_first_legal_turns() {
        let t = Topology::mesh(5, 5);
        let tables = RoutingTables::build(&t, None, 8);
        for src in t.nodes() {
            for dst in t.nodes() {
                for path in tables.paths(src, dst) {
                    // West-First forbids N->W and S->W turns: once any
                    // vertical hop is taken, no west hop may follow.
                    let first_vertical = path
                        .iter()
                        .position(|&p| p == Port::North || p == Port::South);
                    if let Some(i) = first_vertical {
                        assert!(
                            path[i..].iter().all(|&p| p != Port::West),
                            "{src}->{dst}: west hop after a vertical hop in {path:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tables_route_around_a_dead_link_and_report_disconnection() {
        use crate::fault::{FaultEvent, FaultPlan, FaultTarget, LinkState};
        let t = Topology::mesh(4, 4);
        let plan = FaultPlan::new(vec![FaultEvent {
            start: 0,
            duration: None,
            target: FaultTarget::Link {
                node: NodeId(0),
                port: Port::East,
            },
        }])
        .unwrap();
        let mut ls = LinkState::healthy(16);
        ls.recompute(&t, &plan, 0);
        let tables = RoutingTables::build(&t, Some(&ls), RoutingTables::K_DEFAULT);
        // (0,0)->(1,0) straight east is dead; the recomputed table has no
        // West-First-legal minimal detour (south-then-north is non-minimal),
        // so the pair reads disconnected and the packet drains.
        assert!(tables.paths(NodeId(0), NodeId(1)).is_empty());
        assert_eq!(tables.next_hop(&t, NodeId(0), NodeId(0), NodeId(1)), None);
        // (0,0)->(1,1) still has the south-then-east path.
        let sel = tables
            .selected_path(NodeId(0), NodeId(5))
            .expect("minimal detour survives");
        assert_eq!(sel, &[Port::South, Port::East]);
        // Pairs untouched by the fault keep their full path sets.
        assert!(!tables.paths(NodeId(5), NodeId(10)).is_empty());
    }

    #[test]
    fn table_path_selection_is_deterministic_and_spread() {
        let t = Topology::mesh(8, 8);
        let a = RoutingTables::build(&t, None, RoutingTables::K_DEFAULT);
        let b = RoutingTables::build(&t, None, RoutingTables::K_DEFAULT);
        assert_eq!(a, b, "table builds are deterministic");
        // The pair hash spreads selections across the path list: among all
        // pairs with >= 2 paths, more than one list index gets picked.
        let mut picked = std::collections::HashSet::new();
        for src in t.nodes() {
            for dst in t.nodes() {
                let list = a.paths(src, dst);
                if list.len() >= 2 {
                    let sel = a.selected_path(src, dst).unwrap();
                    picked.insert(list.iter().position(|p| p == sel).unwrap());
                }
            }
        }
        assert!(picked.len() > 1, "selection must not collapse to index 0");
    }

    #[test]
    #[should_panic(expected = "at least one path")]
    fn table_build_rejects_k_zero() {
        let t = Topology::mesh(2, 2);
        let _ = RoutingTables::build(&t, None, 0);
    }
}
