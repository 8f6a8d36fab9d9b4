//! Bridging `nni-topology` graphs into simulator inputs, plus the
//! policed-demand audit every policer experiment should run against its
//! traffic model (see [`policed_demand`]).

use crate::diff::Differentiation;
use crate::packet::{ClassLabel, Route, RouteId};
use crate::sim::LinkParams;
use crate::traffic::{sustained_demand_bps, TrafficProfile};
use nni_topology::{LinkId, Topology};

/// Builds the per-link simulator parameters from a topology, applying the
/// given differentiation mechanisms (all other links are neutral FIFO).
pub fn link_params(
    topology: &Topology,
    mechanisms: &[(LinkId, Differentiation)],
) -> Vec<LinkParams> {
    topology
        .links()
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let diff = mechanisms
                .iter()
                .find(|(id, _)| id.index() == i)
                .map(|(_, d)| d.clone())
                .unwrap_or(Differentiation::None);
            LinkParams {
                rate_bps: l.capacity_bps,
                delay_s: l.delay_s,
                diff,
                queue_bytes: None,
            }
        })
        .collect()
}

/// One measured route per topology path, in path order.
pub fn measured_routes(topology: &Topology) -> Vec<Route> {
    topology
        .paths()
        .iter()
        .map(|p| Route {
            links: p.links().to_vec(),
            path: Some(p.id()),
        })
        .collect()
}

/// An unmeasured background route over explicit links (loads the network
/// without appearing in the measurement log).
pub fn background_route(links: Vec<LinkId>) -> Route {
    Route { links, path: None }
}

/// Convenience: a policer at `fraction` of the link's capacity with a burst
/// of `burst_s` seconds at the policed rate (§6.1: the policing rate varies
/// from 50% down to 20% of link capacity).
///
/// The burst controls the regime: ~10 ms is a strict carrier policer that
/// clips every slow-start burst (topology A's strongly inconsistent
/// observations); ~100 ms lets persistent flows ride at the token rate with
/// periodic loss episodes (topology B's long-flow throttling).
pub fn policer_at_fraction(
    topology: &Topology,
    link: LinkId,
    class: u8,
    fraction: f64,
    burst_s: f64,
) -> (LinkId, Differentiation) {
    let rate = topology.link(link).capacity_bps * fraction;
    (
        link,
        Differentiation::Policing {
            class,
            rate_bps: rate,
            burst_bytes: (rate * burst_s / 8.0).max(3000.0),
        },
    )
}

/// Convenience: the paper's shaping setup — class 2 shaped to `fraction`,
/// class 1 shaped to `1 − fraction` of link capacity, each with a dedicated
/// buffer of `buffer_ms` milliseconds at the shaped rate.
pub fn shaper_at_fraction(
    topology: &Topology,
    link: LinkId,
    fraction: f64,
) -> (LinkId, Differentiation) {
    let cap = topology.link(link).capacity_bps;
    let lane = |class: u8, frac: f64| crate::diff::ShapeLaneConfig {
        class,
        rate_bps: cap * frac,
        burst_bytes: (cap * frac * 0.01 / 8.0).max(3000.0),
        buffer_bytes: ((cap * frac * 0.1 / 8.0) as u64).max(15_000),
    };
    (
        link,
        Differentiation::Shaping {
            lanes: vec![lane(0, 1.0 - fraction), lane(1, fraction)],
        },
    )
}

/// How one policer's (or shaper lane's) token rate compares to the traffic
/// that feeds it.
///
/// Produced by [`policed_demand`]; the numbers encode the PR 1 seed-test
/// lesson — a policer experiment is only meaningful when the targeted class
/// *demands* more than the token rate, from more than one flow slot (a
/// single policed flow can collapse into an RTO crawl below the rate and
/// never trip the bucket). The same starvation mode applies to a shaper
/// lane: an under-demanded lane never queues, so both mechanisms report
/// one entry per targeted class.
#[derive(Debug, Clone, PartialEq)]
pub struct PolicedDemand {
    /// The policed (or shaped) link.
    pub link: LinkId,
    /// The targeted class.
    pub class: ClassLabel,
    /// The policer's (or lane's) token rate (bits per second).
    pub rate_bps: f64,
    /// Conservative lower bound on the targeted class's sustained demand
    /// through the link (sum of [`sustained_demand_bps`] over feeding
    /// sources).
    pub demand_bps: f64,
    /// Total parallel flow slots of the targeted class crossing the link.
    pub feeding_slots: usize,
}

/// Audits every policer and shaper lane in `links` against the traffic that
/// crosses it: for each token bucket (a [`Differentiation::Policing`] stage,
/// or one lane of a [`Differentiation::Shaping`] stage), sums the targeted
/// class's sustained demand and parallel flow slots over all `(route,
/// profile)` sources whose route traverses the link. `nni-scenario`'s
/// `assert_demand_exceeds_policed_rate` asserts on this report at the
/// scenario level; raw-simulator tests use it directly.
pub fn policed_demand(
    links: &[LinkParams],
    routes: &[Route],
    sources: &[(RouteId, TrafficProfile)],
) -> Vec<PolicedDemand> {
    links
        .iter()
        .enumerate()
        .flat_map(|(i, l)| {
            let link = LinkId(i);
            // Every token bucket on this link, as (targeted class, rate).
            let buckets: Vec<(ClassLabel, f64)> = match &l.diff {
                Differentiation::None => Vec::new(),
                Differentiation::Policing {
                    class, rate_bps, ..
                } => vec![(*class, *rate_bps)],
                Differentiation::Shaping { lanes } => lanes
                    .iter()
                    .map(|lane| (lane.class, lane.rate_bps))
                    .collect(),
            };
            buckets
                .into_iter()
                .map(|(class, rate_bps)| {
                    let mut demand_bps = 0.0;
                    let mut feeding_slots = 0;
                    for (route, profile) in sources {
                        let route = &routes[route.index()];
                        if profile.class != class || !route.links.contains(&link) {
                            continue;
                        }
                        // The transfer rate is bounded by the slowest link of
                        // the route (the bucket's own token rate is demand we
                        // are measuring, not a bound on it).
                        let line_rate = route
                            .links
                            .iter()
                            .map(|&l| links[l.index()].rate_bps)
                            .fold(f64::INFINITY, f64::min);
                        demand_bps += sustained_demand_bps(profile, line_rate);
                        feeding_slots += profile.parallel;
                    }
                    PolicedDemand {
                        link,
                        class,
                        rate_bps,
                        demand_bps,
                        feeding_slots,
                    }
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::CcKind;
    use crate::traffic::SizeDist;
    use nni_topology::library::topology_a;

    #[test]
    fn link_params_carry_topology_attributes() {
        let t = topology_a(0.05, 0.05);
        let l5 = t.topology.link_by_name("l5").unwrap();
        let params = link_params(
            &t.topology,
            &[policer_at_fraction(&t.topology, l5, 1, 0.2, 0.01)],
        );
        assert_eq!(params.len(), 9);
        assert_eq!(params[l5.index()].rate_bps, 100e6);
        assert!(matches!(
            params[l5.index()].diff,
            Differentiation::Policing { class: 1, .. }
        ));
        assert!(matches!(params[0].diff, Differentiation::None));
    }

    #[test]
    fn measured_routes_align_with_paths() {
        let t = topology_a(0.05, 0.05);
        let routes = measured_routes(&t.topology);
        assert_eq!(routes.len(), 4);
        for (i, r) in routes.iter().enumerate() {
            assert_eq!(r.path.unwrap().index(), i);
            assert_eq!(r.links, t.topology.path(r.path.unwrap()).links());
        }
    }

    #[test]
    fn policer_rate_follows_fraction() {
        let t = topology_a(0.05, 0.05);
        let l5 = t.topology.link_by_name("l5").unwrap();
        let (_, diff) = policer_at_fraction(&t.topology, l5, 1, 0.3, 0.01);
        match diff {
            Differentiation::Policing { rate_bps, .. } => {
                assert!((rate_bps - 30e6).abs() < 1e-6);
            }
            _ => panic!("expected policer"),
        }
    }

    #[test]
    fn policed_demand_sums_targeted_class_only() {
        let links = vec![
            LinkParams {
                rate_bps: 100e6,
                delay_s: 0.001,
                diff: Differentiation::None,
                queue_bytes: None,
            },
            LinkParams {
                rate_bps: 50e6,
                delay_s: 0.001,
                diff: Differentiation::Policing {
                    class: 1,
                    rate_bps: 5e6,
                    burst_bytes: 15_000.0,
                },
                queue_bytes: None,
            },
        ];
        let routes = vec![
            Route {
                links: vec![LinkId(0), LinkId(1)],
                path: None,
            },
            Route {
                links: vec![LinkId(0)],
                path: None,
            },
        ];
        let source = |route: u32, class: u8, parallel: usize| {
            let profile = TrafficProfile {
                class,
                cc: CcKind::Cubic.into(),
                size: SizeDist::Fixed { bytes: 1_250_000 }, // 10 Mb
                mean_gap_s: 1.0,
                parallel,
            };
            (RouteId(route), profile)
        };
        let sources = vec![
            source(0, 1, 4), // targeted: crosses the policer, class 1
            source(0, 0, 8), // wrong class
            source(1, 1, 8), // right class, does not cross the policer
        ];
        let audit = policed_demand(&links, &routes, &sources);
        assert_eq!(audit.len(), 1);
        let d = &audit[0];
        assert_eq!((d.link, d.class), (LinkId(1), 1));
        assert_eq!(d.feeding_slots, 4);
        // Cycle = 1 s gap + 10 Mb / 50 Mb/s = 1.2 s -> 8.33 Mb/s per slot.
        assert!((d.demand_bps - 4.0 * 10e6 / 1.2).abs() < 1.0);
        assert!(d.demand_bps > d.rate_bps);
    }

    #[test]
    fn policed_demand_covers_shaper_lanes() {
        let links = vec![LinkParams {
            rate_bps: 100e6,
            delay_s: 0.001,
            diff: Differentiation::Shaping {
                lanes: vec![
                    crate::ShapeLaneConfig {
                        class: 0,
                        rate_bps: 70e6,
                        burst_bytes: 3_000.0,
                        buffer_bytes: 100_000,
                    },
                    crate::ShapeLaneConfig {
                        class: 1,
                        rate_bps: 30e6,
                        burst_bytes: 3_000.0,
                        buffer_bytes: 100_000,
                    },
                ],
            },
            queue_bytes: None,
        }];
        let routes = vec![Route {
            links: vec![LinkId(0)],
            path: None,
        }];
        let profile = TrafficProfile {
            class: 1,
            cc: CcKind::Cubic.into(),
            size: SizeDist::Fixed { bytes: 1_250_000 },
            mean_gap_s: 1.0,
            parallel: 4,
        };
        let audit = policed_demand(&links, &routes, &[(RouteId(0), profile)]);
        // One entry per lane; only the class-1 lane is fed.
        assert_eq!(audit.len(), 2);
        assert_eq!((audit[0].class, audit[0].rate_bps), (0, 70e6));
        assert_eq!(audit[0].feeding_slots, 0);
        assert_eq!((audit[1].class, audit[1].rate_bps), (1, 30e6));
        assert_eq!(audit[1].feeding_slots, 4);
        assert!(audit[1].demand_bps > audit[1].rate_bps);
    }

    #[test]
    fn shaper_splits_capacity() {
        let t = topology_a(0.05, 0.05);
        let l5 = t.topology.link_by_name("l5").unwrap();
        let (_, diff) = shaper_at_fraction(&t.topology, l5, 0.2);
        match diff {
            Differentiation::Shaping { lanes } => {
                assert_eq!(lanes.len(), 2);
                assert!((lanes[0].rate_bps - 80e6).abs() < 1e-6);
                assert!((lanes[1].rate_bps - 20e6).abs() < 1e-6);
                assert_eq!(lanes[0].class, 0);
                assert_eq!(lanes[1].class, 1);
            }
            _ => panic!("expected shaper"),
        }
    }
}
