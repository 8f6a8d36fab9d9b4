//! The hierarchical generator itself: a three-tier ISP-like graph —
//! access switches hanging off aggregation switches hanging off a core
//! ring (with optional chords) — with one source and one sink host per
//! access switch, deterministic shortest-path routing across the core,
//! and per-tier link rates/delays.
//!
//! Everything is a pure function of `(IspParams, seed)`: node order, link
//! order, path order, and the seeded delay jitter are all deterministic,
//! so the emitted [`PaperTopology`] fingerprints identically across
//! processes — the property the executor-identity gates lean on.

use std::collections::{HashMap, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nni_topology::library::PaperTopology;
use nni_topology::{LinkId, NodeId, TopologyBuilder};

/// Rate/delay/buffer parameters of one tier of links.
///
/// `buffer_bytes` is advisory: the topology layer has no buffer field, so
/// [`crate::scenario::isp_scenario`] turns it into per-link
/// `QueueOverride`s when assembling a runnable scenario.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkTier {
    /// Link capacity in bits per second.
    pub rate_bps: f64,
    /// Nominal one-way propagation delay in seconds (before jitter).
    pub delay_s: f64,
    /// Per-link queue budget applied at scenario assembly, if any.
    pub buffer_bytes: Option<u64>,
}

/// Knobs of the generated hierarchy.
///
/// Sizes compose as: `cores` core switches on a ring (plus chords every
/// `chord_stride` positions when non-zero), `aggs_per_core` aggregation
/// switches per core, `access_per_agg` access switches per aggregation,
/// one source host and one sink host per access switch. Measured paths
/// run source host → access → (aggregation → core …) → access → sink
/// host, with each source reaching `sinks_per_source` distinct sink
/// hosts (round-robin over the access switches after its own).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IspParams {
    /// Core switches on the ring (≥ 2).
    pub cores: usize,
    /// Aggregation switches per core switch (≥ 1).
    pub aggs_per_core: usize,
    /// Access switches per aggregation switch (≥ 1).
    pub access_per_agg: usize,
    /// When non-zero, adds chord links between cores `i` and
    /// `i + chord_stride (mod cores)` in both directions.
    pub chord_stride: usize,
    /// Sink hosts each source host reaches (capped at the number of other
    /// access switches).
    pub sinks_per_source: usize,
    /// First sink offset (≥ 1). [`crate::noise::route_churn`] rotates this
    /// per epoch so the *route set* changes while the graph stays fixed.
    pub sink_offset: usize,
    /// Core ring / chord and aggregation→core links.
    pub core_tier: LinkTier,
    /// Access↔aggregation links.
    pub agg_tier: LinkTier,
    /// Host↔access links (the last mile; usually the path bottleneck).
    pub access_tier: LinkTier,
    /// Fractional uniform jitter applied to every link's delay
    /// (`delay · (1 ± jitter)`), drawn from the generation seed.
    pub delay_jitter: f64,
}

impl IspParams {
    /// Population scale: 3 cores × 1 aggregation × 1 access — 24 links,
    /// 6 paths. What [`crate::scenario::GeneratedTopologies`] draws
    /// variations of for the randomized suites.
    pub fn small() -> IspParams {
        IspParams {
            cores: 3,
            aggs_per_core: 1,
            access_per_agg: 1,
            chord_stride: 0,
            sinks_per_source: 2,
            sink_offset: 1,
            core_tier: LinkTier {
                rate_bps: 1e9,
                delay_s: 0.005,
                buffer_bytes: None,
            },
            agg_tier: LinkTier {
                rate_bps: 400e6,
                delay_s: 0.002,
                buffer_bytes: Some(2_000_000),
            },
            access_tier: LinkTier {
                rate_bps: 100e6,
                delay_s: 0.001,
                buffer_bytes: Some(500_000),
            },
            delay_jitter: 0.2,
        }
    }

    /// The headline preset: 6 cores × 2 aggregations × 4 access switches
    /// with stride-2 chords — 240 links, 48 access switches, and
    /// `48 × 22 = 1056` measured paths. The `topogen/isp_200link_3s`
    /// bench workload and the executor-identity gate both run this.
    pub fn isp_200link() -> IspParams {
        IspParams {
            cores: 6,
            aggs_per_core: 2,
            access_per_agg: 4,
            chord_stride: 2,
            sinks_per_source: 22,
            ..IspParams::small()
        }
    }

    /// Total access switches (= source hosts = sink hosts).
    pub fn access_count(&self) -> usize {
        self.cores * self.aggs_per_core * self.access_per_agg
    }

    /// Measured paths the generator will emit.
    pub fn path_count(&self) -> usize {
        let a = self.access_count();
        a * self.sinks_per_source.min(a.saturating_sub(1))
    }
}

/// Deterministic BFS shortest route over the core adjacency (neighbors
/// ascending, first discovery wins), inclusive of both endpoints.
fn core_route(adj: &[Vec<usize>], src: usize, dst: usize) -> Vec<usize> {
    if src == dst {
        return vec![src];
    }
    let mut prev = vec![usize::MAX; adj.len()];
    prev[src] = src;
    let mut queue = VecDeque::from([src]);
    while let Some(u) = queue.pop_front() {
        for &v in &adj[u] {
            if prev[v] == usize::MAX {
                prev[v] = u;
                queue.push_back(v);
            }
        }
    }
    let mut route = vec![dst];
    let mut cur = dst;
    while cur != src {
        cur = prev[cur];
        route.push(cur);
    }
    route.reverse();
    route
}

/// Generates the hierarchy: a valid [`PaperTopology`] whose class
/// partition alternates paths between two performance classes and whose
/// ground-truth non-neutral set is empty (differentiation is placed at
/// the scenario level, on top of a neutral graph).
///
/// Link names carry their tier as a prefix (`core:`, `agg:`, `acc:`,
/// `host:`), which is how the scenario assembly maps
/// [`LinkTier::buffer_bytes`] back onto links.
pub fn generate(params: &IspParams, seed: u64) -> PaperTopology {
    assert!(params.cores >= 2, "need at least two core switches");
    assert!(params.aggs_per_core >= 1 && params.access_per_agg >= 1);
    assert!(params.sink_offset >= 1, "sink_offset starts at 1");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = TopologyBuilder::new();

    let jittered = |tier: &LinkTier, rng: &mut StdRng| {
        let u: f64 = rng.gen();
        tier.delay_s * (1.0 + params.delay_jitter * (2.0 * u - 1.0))
    };

    // Nodes, tier by tier.
    let cores: Vec<NodeId> = (0..params.cores)
        .map(|i| b.relay(format!("C{i}")))
        .collect();
    let mut aggs = Vec::new(); // (node, core index)
    let mut access = Vec::new(); // (node, agg index, core index)
    for c in 0..params.cores {
        for a in 0..params.aggs_per_core {
            let agg = b.relay(format!("G{c}.{a}"));
            let agg_idx = aggs.len();
            aggs.push((agg, c));
            for x in 0..params.access_per_agg {
                access.push((b.relay(format!("A{c}.{a}.{x}")), agg_idx, c));
            }
        }
    }
    let hosts: Vec<(NodeId, NodeId)> = (0..access.len())
        .map(|g| (b.host(format!("src{g}")), b.host(format!("dst{g}"))))
        .collect();

    // Core mesh: the ring plus chords, both directions per adjacency.
    let mut core_adj = vec![Vec::new(); params.cores];
    let mut core_links: HashMap<(usize, usize), LinkId> = HashMap::new();
    let mut mesh = |i: usize, j: usize| {
        if i == j || core_links.contains_key(&(i, j)) {
            return;
        }
        core_adj[i].push(j);
        core_adj[j].push(i);
        for (s, d) in [(i, j), (j, i)] {
            let delay = jittered(&params.core_tier, &mut rng);
            let l = b
                .link_with(
                    format!("core:{s}>{d}"),
                    cores[s],
                    cores[d],
                    params.core_tier.rate_bps,
                    delay,
                )
                .expect("core nodes exist");
            core_links.insert((s, d), l);
        }
    };
    for i in 0..params.cores {
        mesh(i, (i + 1) % params.cores);
    }
    if params.chord_stride > 0 {
        for i in 0..params.cores {
            mesh(i, (i + params.chord_stride) % params.cores);
        }
    }
    for adj in &mut core_adj {
        adj.sort_unstable();
    }

    // Aggregation→core and back, then access and host links, in the node
    // creation order.
    let mut agg_up = Vec::new();
    let mut agg_dn = Vec::new();
    for (i, &(agg, c)) in aggs.iter().enumerate() {
        let d_up = jittered(&params.core_tier, &mut rng);
        let d_dn = jittered(&params.core_tier, &mut rng);
        agg_up.push(
            b.link_with(
                format!("agg:up{i}"),
                agg,
                cores[c],
                params.core_tier.rate_bps,
                d_up,
            )
            .expect("agg nodes exist"),
        );
        agg_dn.push(
            b.link_with(
                format!("agg:dn{i}"),
                cores[c],
                agg,
                params.core_tier.rate_bps,
                d_dn,
            )
            .expect("agg nodes exist"),
        );
    }
    let mut acc_up = Vec::new();
    let mut acc_dn = Vec::new();
    let mut host_up = Vec::new();
    let mut host_dn = Vec::new();
    for (g, &(acc, a, _)) in access.iter().enumerate() {
        let d_up = jittered(&params.agg_tier, &mut rng);
        let d_dn = jittered(&params.agg_tier, &mut rng);
        acc_up.push(
            b.link_with(
                format!("acc:up{g}"),
                acc,
                aggs[a].0,
                params.agg_tier.rate_bps,
                d_up,
            )
            .expect("access nodes exist"),
        );
        acc_dn.push(
            b.link_with(
                format!("acc:dn{g}"),
                aggs[a].0,
                acc,
                params.agg_tier.rate_bps,
                d_dn,
            )
            .expect("access nodes exist"),
        );
        let (src, dst) = hosts[g];
        let d_src = jittered(&params.access_tier, &mut rng);
        let d_dst = jittered(&params.access_tier, &mut rng);
        host_up.push(
            b.link_with(
                format!("host:src{g}"),
                src,
                acc,
                params.access_tier.rate_bps,
                d_src,
            )
            .expect("host nodes exist"),
        );
        host_dn.push(
            b.link_with(
                format!("host:dst{g}"),
                acc,
                dst,
                params.access_tier.rate_bps,
                d_dst,
            )
            .expect("host nodes exist"),
        );
    }

    // Measured paths: each source reaches `sinks_per_source` sinks,
    // starting `sink_offset` access switches after its own (the modulus
    // over `A − 1` keeps every sink distinct from the source).
    let a_total = access.len();
    let fan = params.sinks_per_source.min(a_total.saturating_sub(1));
    let mut classes = vec![Vec::new(), Vec::new()];
    for s in 0..a_total {
        for k in 0..fan {
            let off = 1 + (params.sink_offset - 1 + k) % (a_total - 1);
            let d = (s + off) % a_total;
            let (_, agg_s, core_s) = access[s];
            let (_, agg_d, core_d) = access[d];
            let mut links = vec![host_up[s]];
            if agg_s == agg_d {
                links.extend([acc_up[s], acc_dn[d]]);
            } else {
                links.extend([acc_up[s], agg_up[agg_s]]);
                for w in core_route(&core_adj, core_s, core_d).windows(2) {
                    links.push(core_links[&(w[0], w[1])]);
                }
                links.extend([agg_dn[agg_d], acc_dn[d]]);
            }
            links.push(host_dn[d]);
            let p = b
                .path(format!("p{s}>{d}"), links)
                .expect("generated route is connected and loop-free");
            classes[p.index() % 2].push(p);
        }
    }

    PaperTopology {
        topology: b.build(),
        classes,
        nonneutral_links: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nni_topology::NodeKind;

    #[test]
    fn small_preset_counts() {
        let p = IspParams::small();
        let t = generate(&p, 7);
        assert_eq!(t.topology.link_count(), 24);
        assert_eq!(t.topology.path_count(), 6);
        assert_eq!(t.topology.path_count(), p.path_count());
        // Every path is classified, no overlap.
        let total: usize = t.classes.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
        assert!(t.nonneutral_links.is_empty());
    }

    #[test]
    fn headline_preset_clears_the_floors() {
        let p = IspParams::isp_200link();
        assert_eq!(p.access_count(), 48);
        let t = generate(&p, 42);
        assert!(
            t.topology.link_count() >= 200,
            "headline preset must have ≥200 links, got {}",
            t.topology.link_count()
        );
        assert!(
            t.topology.path_count() >= 1000,
            "headline preset must have ≥1000 paths, got {}",
            t.topology.path_count()
        );
        assert_eq!(t.topology.path_count(), p.path_count());
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let p = IspParams::small();
        assert_eq!(generate(&p, 3).topology, generate(&p, 3).topology);
        // A different seed moves the jittered delays but not the shape.
        let a = generate(&p, 3).topology;
        let b = generate(&p, 4).topology;
        assert_ne!(a, b);
        assert_eq!(a.link_count(), b.link_count());
        assert_eq!(a.path_count(), b.path_count());
    }

    #[test]
    fn tiers_shape_rates_and_endpoints() {
        let p = IspParams::small();
        let t = generate(&p, 1).topology;
        for l in t.links() {
            let expected = match l.name.split(':').next().unwrap() {
                "core" | "agg" => p.core_tier.rate_bps,
                "acc" => p.agg_tier.rate_bps,
                "host" => p.access_tier.rate_bps,
                other => panic!("unknown tier prefix {other}"),
            };
            assert_eq!(l.capacity_bps, expected, "link {}", l.name);
            assert!(l.delay_s > 0.0);
        }
        for path in t.paths() {
            let first = t.link(path.links()[0]);
            let last = t.link(*path.links().last().unwrap());
            assert_eq!(t.node(first.src).kind, NodeKind::Host);
            assert_eq!(t.node(last.dst).kind, NodeKind::Host);
        }
    }

    #[test]
    fn inter_core_paths_cross_the_mesh() {
        let t = generate(&IspParams::small(), 5);
        let crossing = t
            .topology
            .paths()
            .iter()
            .filter(|p| {
                p.links()
                    .iter()
                    .any(|&l| t.topology.link(l).name.starts_with("core:"))
            })
            .count();
        assert!(crossing > 0, "some paths must traverse core links");
    }
}
