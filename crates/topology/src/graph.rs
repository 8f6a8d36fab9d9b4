//! The network graph `G = (V, L, P)` of §2.3.
//!
//! Nodes are end-hosts or relays; links are *directed* (the measured paths
//! are one-way, §7 "Measurement platform"); a path is a loop-free sequence of
//! consecutive links starting and ending at end-hosts. A link in this graph
//! may correspond to an IP link, a domain-level link, or any sequence of
//! consecutive physical links (assumption #1, §2.2).

use crate::ids::{LinkId, NodeId, PathId};
use crate::path::Path;

/// Kind of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// A measurement end-point; paths start and end here.
    Host,
    /// An intermediate element (switch / router); paths pass through.
    Relay,
}

/// A node of the network graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// Kind (host or relay).
    pub kind: NodeKind,
    /// Human-readable name used in experiment output (e.g. `R4`, `S1`).
    pub name: String,
}

/// A directed link of the network graph, with the physical parameters the
/// emulator needs (the inference layer only uses the `src`/`dst` structure).
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Transmitting node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Capacity in bits per second.
    pub capacity_bps: f64,
    /// One-way propagation delay in seconds.
    pub delay_s: f64,
    /// Human-readable name (paper numbering where applicable, e.g. `l5`).
    pub name: String,
}

/// Errors raised while building or validating a topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// A link references a node id that was never added.
    UnknownNode(NodeId),
    /// A path references a link id that was never added.
    UnknownLink(LinkId),
    /// A path's consecutive links are not connected head-to-tail.
    DisconnectedPath { position: usize },
    /// A path visits some node twice.
    PathHasLoop(NodeId),
    /// A path is empty.
    EmptyPath,
    /// A path does not start at a host.
    PathSourceNotHost(NodeId),
    /// A path does not end at a host.
    PathSinkNotHost(NodeId),
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::UnknownNode(n) => write!(f, "unknown node {n}"),
            TopologyError::UnknownLink(l) => write!(f, "unknown link {l}"),
            TopologyError::DisconnectedPath { position } => {
                write!(f, "path links disconnected at position {position}")
            }
            TopologyError::PathHasLoop(n) => write!(f, "path visits {n} twice"),
            TopologyError::EmptyPath => write!(f, "path has no links"),
            TopologyError::PathSourceNotHost(n) => {
                write!(f, "path source {n} is not a host")
            }
            TopologyError::PathSinkNotHost(n) => {
                write!(f, "path sink {n} is not a host")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// The immutable network graph plus the set of currently used paths `P`.
///
/// `PartialEq` compares the full structure (nodes, links — f64 parameters
/// included — and paths; `paths_by_link` is derived, so it follows), which
/// is what makes a decoded `MeasurementSet` comparable bit-for-bit to the
/// live one (`nni-measure`).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    paths: Vec<Path>,
    /// `paths_by_link[l]` = ids of paths traversing link `l` (the helper
    /// function `Paths(l)` of §2.3, precomputed).
    paths_by_link: Vec<Vec<PathId>>,
}

impl Topology {
    /// All nodes.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links.
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All paths `P`.
    pub fn paths(&self) -> &[Path] {
        &self.paths
    }

    /// Number of links `|L|`.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Number of paths `|P|`.
    pub fn path_count(&self) -> usize {
        self.paths.len()
    }

    /// Node lookup.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Link lookup.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Path lookup.
    pub fn path(&self, id: PathId) -> &Path {
        &self.paths[id.index()]
    }

    /// Looks a link up by its human-readable name.
    pub fn link_by_name(&self, name: &str) -> Option<LinkId> {
        self.links.iter().position(|l| l.name == name).map(LinkId)
    }

    /// `Paths(l)`: ids of all paths that traverse link `l` (§2.3).
    pub fn paths_through(&self, l: LinkId) -> &[PathId] {
        &self.paths_by_link[l.index()]
    }

    /// `Paths(σ)`: ids of all paths that traverse *every* link of `seq`,
    /// sorted.
    pub fn paths_through_all(&self, seq: &[LinkId]) -> Vec<PathId> {
        let Some((&first, rest)) = seq.split_first() else {
            return (0..self.paths.len()).map(PathId).collect();
        };
        // Every `paths_by_link` list is sorted and deduplicated (`build`).
        let mut out: Vec<PathId> = self.paths_through(first).to_vec();
        for &l in rest {
            let through = self.paths_through(l);
            out.retain(|p| through.binary_search(p).is_ok());
        }
        out
    }

    /// Two links are *distinguishable* when `Paths(l) != Paths(l')` (§2.3).
    pub fn distinguishable(&self, a: LinkId, b: LinkId) -> bool {
        self.paths_through(a) != self.paths_through(b)
    }

    /// Iterator over all link ids.
    pub fn link_ids(&self) -> impl Iterator<Item = LinkId> + '_ {
        (0..self.links.len()).map(LinkId)
    }

    /// Iterator over all path ids.
    pub fn path_ids(&self) -> impl Iterator<Item = PathId> + '_ {
        (0..self.paths.len()).map(PathId)
    }
}

/// Builder for [`Topology`]; validates every path as it is added.
#[derive(Debug, Default)]
pub struct TopologyBuilder {
    nodes: Vec<Node>,
    links: Vec<Link>,
    paths: Vec<Path>,
    /// Per node, the number of the last loop check that visited it.
    visited: Vec<u64>,
    /// Loop checks run so far.
    checks: u64,
}

/// Default capacity for links whose capacity is not specified: 1 Gb/s, i.e.
/// an order of magnitude above the paper's 100 Mb/s bottleneck so that
/// unspecified links never become the bottleneck by accident.
pub const DEFAULT_CAPACITY_BPS: f64 = 1e9;

/// Default one-way propagation delay: 5 ms per link.
pub const DEFAULT_DELAY_S: f64 = 0.005;

impl TopologyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an end-host node.
    pub fn host(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::Host,
            name: name.into(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a relay node.
    pub fn relay(&mut self, name: impl Into<String>) -> NodeId {
        self.nodes.push(Node {
            kind: NodeKind::Relay,
            name: name.into(),
        });
        NodeId(self.nodes.len() - 1)
    }

    /// Adds a directed link with explicit parameters.
    pub fn link_with(
        &mut self,
        name: impl Into<String>,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        delay_s: f64,
    ) -> Result<LinkId, TopologyError> {
        for n in [src, dst] {
            if n.index() >= self.nodes.len() {
                return Err(TopologyError::UnknownNode(n));
            }
        }
        self.links.push(Link {
            src,
            dst,
            capacity_bps,
            delay_s,
            name: name.into(),
        });
        Ok(LinkId(self.links.len() - 1))
    }

    /// Adds a directed link with default capacity and delay.
    pub fn link(
        &mut self,
        name: impl Into<String>,
        src: NodeId,
        dst: NodeId,
    ) -> Result<LinkId, TopologyError> {
        self.link_with(name, src, dst, DEFAULT_CAPACITY_BPS, DEFAULT_DELAY_S)
    }

    /// Adds a path (validated: non-empty, connected, loop-free, host
    /// endpoints).
    pub fn path(
        &mut self,
        name: impl Into<String>,
        links: Vec<LinkId>,
    ) -> Result<PathId, TopologyError> {
        if links.is_empty() {
            return Err(TopologyError::EmptyPath);
        }
        for &l in &links {
            if l.index() >= self.links.len() {
                return Err(TopologyError::UnknownLink(l));
            }
        }
        // Connectivity: dst of link i must equal src of link i+1.
        for (i, w) in links.windows(2).enumerate() {
            if self.links[w[0].index()].dst != self.links[w[1].index()].src {
                return Err(TopologyError::DisconnectedPath { position: i });
            }
        }
        // Loop-freedom: the visited node sequence must not repeat. This
        // check stamps each node it visits with its own number, so a node
        // already carrying it is a repeat.
        self.checks += 1;
        let check = self.checks;
        self.visited.resize(self.nodes.len(), 0);
        let first_src = self.links[links[0].index()].src;
        self.visited[first_src.index()] = check;
        for &l in &links {
            let dst = self.links[l.index()].dst;
            if std::mem::replace(&mut self.visited[dst.index()], check) == check {
                return Err(TopologyError::PathHasLoop(dst));
            }
        }
        // Host endpoints.
        let last_dst = self.links[links.last().unwrap().index()].dst;
        if self.nodes[first_src.index()].kind != NodeKind::Host {
            return Err(TopologyError::PathSourceNotHost(first_src));
        }
        if self.nodes[last_dst.index()].kind != NodeKind::Host {
            return Err(TopologyError::PathSinkNotHost(last_dst));
        }
        let id = PathId(self.paths.len());
        self.paths.push(Path::new(id, name.into(), links));
        Ok(id)
    }

    /// Finalises the topology, precomputing `Paths(l)` for every link.
    pub fn build(self) -> Topology {
        let mut paths_by_link = vec![Vec::new(); self.links.len()];
        for path in &self.paths {
            for &l in path.links() {
                paths_by_link[l.index()].push(path.id());
            }
        }
        for v in &mut paths_by_link {
            v.sort();
            v.dedup();
        }
        Topology {
            nodes: self.nodes,
            links: self.links,
            paths: self.paths,
            paths_by_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two hosts connected through one relay: h0 -l0-> r -l1-> h1.
    fn tiny() -> (TopologyBuilder, NodeId, NodeId, NodeId) {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let r = b.relay("r");
        (b, h0, h1, r)
    }

    #[test]
    fn build_simple_path() {
        let (mut b, h0, h1, r) = tiny();
        let l0 = b.link("l0", h0, r).unwrap();
        let l1 = b.link("l1", r, h1).unwrap();
        let p = b.path("p0", vec![l0, l1]).unwrap();
        let t = b.build();
        assert_eq!(t.path_count(), 1);
        assert_eq!(t.paths_through(l0), &[p]);
        assert_eq!(t.paths_through(l1), &[p]);
        assert!(!t.distinguishable(l0, l1));
    }

    #[test]
    fn disconnected_path_rejected() {
        let (mut b, h0, h1, r) = tiny();
        let l0 = b.link("l0", h0, r).unwrap();
        let l_bad = b.link("lx", h0, h1).unwrap();
        let err = b.path("p", vec![l0, l_bad]).unwrap_err();
        assert!(matches!(
            err,
            TopologyError::DisconnectedPath { position: 0 }
        ));
    }

    #[test]
    fn loop_rejected() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let r1 = b.relay("r1");
        let r2 = b.relay("r2");
        let l0 = b.link("l0", h0, r1).unwrap();
        let l1 = b.link("l1", r1, r2).unwrap();
        let l2 = b.link("l2", r2, r1).unwrap();
        let err = b.path("p", vec![l0, l1, l2]).unwrap_err();
        assert!(matches!(err, TopologyError::PathHasLoop(_)));
    }

    #[test]
    fn loop_back_to_the_source_rejected() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let r1 = b.relay("r1");
        let l0 = b.link("l0", h0, r1).unwrap();
        let l1 = b.link("l1", r1, h0).unwrap();
        assert_eq!(
            b.path("p", vec![l0, l1]).unwrap_err(),
            TopologyError::PathHasLoop(h0)
        );
    }

    #[test]
    fn loop_on_a_long_path_rejected() {
        // h0 -> r0 -> ... -> r69 -> r30: 71 links, the first repeat at r30.
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let relays: Vec<NodeId> = (0..70).map(|i| b.relay(format!("r{i}"))).collect();
        let mut links = vec![b.link("in", h0, relays[0]).unwrap()];
        for w in relays.windows(2) {
            links.push(b.link("hop", w[0], w[1]).unwrap());
        }
        links.push(b.link("back", relays[69], relays[30]).unwrap());
        assert_eq!(links.len(), 71);
        assert_eq!(
            b.path("p", links.clone()).unwrap_err(),
            TopologyError::PathHasLoop(relays[30])
        );
        // A failed check leaves nothing behind: the loop-free prefix, ended
        // at a host, is accepted afterwards.
        let h1 = b.host("h1");
        links.pop();
        links.push(b.link("out", relays[69], h1).unwrap());
        assert!(b.path("p", links).is_ok());
    }

    #[test]
    fn non_host_endpoints_rejected() {
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let r1 = b.relay("r1");
        let r2 = b.relay("r2");
        let l0 = b.link("l0", h0, r1).unwrap();
        let l1 = b.link("l1", r1, r2).unwrap();
        let err = b.path("p", vec![l0, l1]).unwrap_err();
        assert!(matches!(err, TopologyError::PathSinkNotHost(_)));

        let err2 = b.path("p", vec![l1]).unwrap_err();
        assert!(matches!(err2, TopologyError::PathSourceNotHost(_)));
    }

    #[test]
    fn empty_path_rejected() {
        let (mut b, ..) = tiny();
        assert_eq!(b.path("p", vec![]).unwrap_err(), TopologyError::EmptyPath);
    }

    #[test]
    fn unknown_link_rejected() {
        let (mut b, ..) = tiny();
        let err = b.path("p", vec![LinkId(42)]).unwrap_err();
        assert_eq!(err, TopologyError::UnknownLink(LinkId(42)));
    }

    #[test]
    fn paths_through_all_intersects() {
        // Three hosts, two relays; p0 over l0,l1; p1 over l0,l2; p2 over
        // l0,l3,l4 (through the second relay).
        let mut b = TopologyBuilder::new();
        let h0 = b.host("h0");
        let h1 = b.host("h1");
        let h2 = b.host("h2");
        let r = b.relay("r");
        let r2 = b.relay("r2");
        let l0 = b.link("l0", h0, r).unwrap();
        let l1 = b.link("l1", r, h1).unwrap();
        let l2 = b.link("l2", r, h2).unwrap();
        let l3 = b.link("l3", r, r2).unwrap();
        let l4 = b.link("l4", r2, h2).unwrap();
        let p0 = b.path("p0", vec![l0, l1]).unwrap();
        let p1 = b.path("p1", vec![l0, l2]).unwrap();
        let p2 = b.path("p2", vec![l0, l3, l4]).unwrap();
        let t = b.build();
        assert_eq!(t.paths_through_all(&[l0]), vec![p0, p1, p2]);
        assert_eq!(t.paths_through_all(&[l0, l1]), vec![p0]);
        assert_eq!(t.paths_through_all(&[l1, l2]), Vec::<PathId>::new());
        assert_eq!(t.paths_through_all(&[l4, l0, l3]), vec![p2]);
        assert_eq!(t.paths_through_all(&[l4, l1, l0]), Vec::<PathId>::new());
        assert_eq!(t.paths_through_all(&[]), vec![p0, p1, p2]);
        assert!(t.distinguishable(l1, l2));
        assert!(t.distinguishable(l0, l1));
        assert!(!t.distinguishable(l3, l4));
    }

    #[test]
    fn link_by_name_finds_links() {
        let (mut b, h0, h1, r) = tiny();
        b.link("a", h0, r).unwrap();
        let l1 = b.link("b", r, h1).unwrap();
        let t = b.build();
        assert_eq!(t.link_by_name("b"), Some(l1));
        assert_eq!(t.link_by_name("zzz"), None);
    }
}
