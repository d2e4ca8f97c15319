//! Topology-driven shard assignment: a chain of switch domains, one
//! shard per domain, and the per-domain handles every sharded builder
//! returns.
//!
//! [`sharded_chain`] carves a multi-switch fabric along its natural
//! partition boundary — the switch domain — into the per-shard engines of
//! a [`ShardedEngine`]. Each domain is a [`single_switch`-style] island
//! (hosts and devices around one switch); adjacent domains are joined by
//! long-haul cables modeled as [`ShardGateway`](fcc_sim::shard::ShardGateway)
//! pairs. Node ids and the host-physical address map are global, so a
//! host anywhere can address a device anywhere. The chain is the one-row
//! mesh [`PodPlan`], realized by the same builder as
//! [`crate::topology::chain`] (the one-column mesh) and
//! [`crate::pods::sharded_pod`], so its transit routes are the mesh's
//! dimension-ordered escape routes.
//!
//! The gateway relay latency *is* the conservative lookahead the sharded
//! executor runs with (see [`fcc_sim::shard`]): it is the serialization +
//! propagation budget of the inter-domain cable, which physically
//! lower-bounds how soon one domain can observe another's traffic.
//!
//! [`single_switch`-style]: crate::topology::single_switch

use fcc_sim::shard::ShardedEngine;
use fcc_sim::{ComponentId, SimTime};

use crate::endpoint::Endpoint;
use crate::pods::{instantiate, Engines, PodKind, PodPlan};
use crate::topology::{DeviceHandle, HostHandle, Topology, TopologySpec};

/// Hosts and devices of one switch domain in a [`sharded_chain`] or
/// [`sharded_pod`](crate::pods::sharded_pod), or of one stage of a
/// [`chain`](crate::topology::chain).
pub struct DomainSpec {
    /// Host servers attached to this domain's switch.
    pub n_hosts: usize,
    /// Devices attached to this domain's switch.
    pub devices: Vec<Box<dyn Endpoint>>,
}

/// A fabric carved into per-domain shards.
pub struct ShardedFabric {
    /// One [`Topology`] per domain, in shard order. Each holds only its
    /// own hosts, devices, and switches, but the shared global address
    /// map.
    pub domains: Vec<Topology>,
    /// Gateway pairs, one per cross-domain cable in plan link order,
    /// each `(in the lower-id switch's domain, in the other's)`.
    pub gateways: Vec<(ComponentId, ComponentId)>,
}

impl ShardedFabric {
    /// Every host across all domains, in global node order.
    pub fn all_hosts(&self) -> impl Iterator<Item = (usize, &HostHandle)> + '_ {
        self.domains
            .iter()
            .enumerate()
            .flat_map(|(d, t)| t.hosts.iter().map(move |h| (d, h)))
    }

    /// Every device across all domains, in global node order.
    pub fn all_devices(&self) -> impl Iterator<Item = (usize, &DeviceHandle)> + '_ {
        self.domains
            .iter()
            .enumerate()
            .flat_map(|(d, t)| t.devices.iter().map(move |dev| (d, dev)))
    }
}

/// Builds a chain of single-switch domains over the shards of `sharded`,
/// joined by gateway cables of one-way latency `cross_latency`, with all
/// transit routes installed. The executor's lookahead becomes
/// `cross_latency`.
///
/// The chain is the one-row mesh plan: one domain per switch, and its
/// dimension-ordered escape route is the single transit candidate toward
/// each remote domain.
///
/// # Panics
///
/// Panics if `domains.len()` differs from the shard count, or the chain
/// has more than one domain and `cross_latency` is zero.
pub fn sharded_chain(
    sharded: &mut ShardedEngine,
    spec: TopologySpec,
    domains: Vec<DomainSpec>,
    cross_latency: SimTime,
) -> ShardedFabric {
    let kind = PodKind::Mesh {
        cols: domains.len(),
        rows: 1,
    };
    let (plan, devices) = PodPlan::line(kind, domains);
    instantiate(
        Engines::Sharded(sharded),
        &plan,
        &spec,
        None,
        cross_latency,
        devices,
    )
}

#[cfg(test)]
mod tests {
    use fcc_sim::{Inbox, SimTime};

    use super::*;
    use crate::adapter::{HostCompletion, HostOp, HostRequest};
    use crate::endpoint::FixedLatencyMemory;
    use crate::ledger::audit_topology;
    use crate::switch::FabricSwitch;

    type Sink = Inbox<HostCompletion>;

    fn mem() -> Box<dyn Endpoint> {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 20,
        ))
    }

    fn build(shards: usize) -> (ShardedEngine, ShardedFabric) {
        let mut sharded = ShardedEngine::new(11, shards);
        let domains = (0..shards)
            .map(|_| DomainSpec {
                n_hosts: 1,
                devices: vec![mem()],
            })
            .collect();
        let fabric = sharded_chain(
            &mut sharded,
            TopologySpec::default(),
            domains,
            SimTime::from_ns(200.0),
        );
        (sharded, fabric)
    }

    #[test]
    fn chain_of_domains_installs_transit_routes() {
        let (sharded, fabric) = build(3);
        assert_eq!(fabric.domains.len(), 3);
        assert_eq!(fabric.gateways.len(), 2);
        assert_eq!(sharded.lookahead(), Some(SimTime::from_ns(200.0)));
        // The middle switch must know every node: 2 local (host+dev via
        // local ports) + 4 remote (2 per side via gateway ports).
        let mid = fabric.domains[1].switches[0];
        let sw = sharded.engine(1).component::<FabricSwitch>(mid);
        assert_eq!(sw.routing.pbr_entries(), 6);
        // Ports: host + device + two cables.
        assert_eq!(sw.port_count(), 4);
    }

    /// A host in domain 0 reads a device in domain 2, crossing two
    /// gateway cables each way.
    fn cross_domain_read(threads: usize) -> (u64, u64) {
        let (mut sharded, fabric) = build(3);
        let sink = sharded.engine_mut(0).add_component("sink", Sink::default());
        let far = fabric.domains[2].devices[0];
        let near_host = fabric.domains[0].hosts[0];
        sharded.engine_mut(0).post(
            near_host.fha,
            SimTime::ZERO,
            HostRequest {
                op: HostOp::Read {
                    addr: far.range.base,
                    bytes: 64,
                },
                tag: 9,
                reply_to: sink,
            },
        );
        sharded.run(threads);
        let done = sharded.engine(0).component::<Sink>(sink).messages();
        assert_eq!(done.len(), 1, "read completed across two cables");
        // Two cables (200ns each) each way + device (100ns) + three
        // switch hops each way: well past 900ns.
        assert!(done[0].latency() > SimTime::from_ns(900.0));
        for (engine, topo) in sharded.engines().iter().zip(&fabric.domains) {
            let audit = audit_topology(engine, topo);
            assert!(audit.is_clean(), "{audit}");
        }
        (done[0].latency().as_ps(), sharded.total_events())
    }

    #[test]
    fn cross_domain_traffic_flows() {
        let serial = cross_domain_read(1);
        assert_eq!(cross_domain_read(2), serial);
        assert_eq!(cross_domain_read(3), serial);
    }
}
