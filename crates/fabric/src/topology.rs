//! Declarative assembly of composable infrastructures.
//!
//! Builders create the engine components of Figure 1 — host servers with
//! FHAs, fabric switches, FAM/FAA chassis behind FEAs — wire their ports,
//! build the host address map, and install routes (directly, or via the
//! fabric manager for the discovery experiment F1).
//!
//! [`single_switch`] and [`chain`] are one-column mesh [`PodPlan`]s
//! realized by the crate's one plan builder (see [`crate::pods`]).
//! [`direct`] (no switch) and [`figure1`] (routes left to the fabric
//! manager) are short functions over the same adapter staging and port
//! helpers, so node ids, address ranges and component names follow one
//! scheme everywhere.

use std::sync::Arc;

use fcc_proto::addr::{AddrMap, AddrRange, NodeId};
use fcc_proto::link::CreditConfig;
use fcc_sim::{ComponentId, Engine, SimTime};
use fcc_telemetry::{MetricsRegistry, TraceSink};

use crate::adapter::{Fea, Fha};
use crate::endpoint::{Endpoint, FixedLatencyMemory};
use crate::manager::FabricManager;
use crate::pods::{instantiate, Engines, PodKind, PodPlan};
use crate::sharded::DomainSpec;
use crate::switch::{FabricSwitch, SwitchConfig};

/// Base host physical address at which FAM capacity is mapped.
pub const FAM_BASE: u64 = 0x10_0000_0000;

/// Shared configuration for topology builders.
#[derive(Debug, Clone, Copy)]
pub struct TopologySpec {
    /// Switch configuration (also supplies the port phys config).
    pub switch: SwitchConfig,
    /// Link-layer credits for adapter ports.
    pub credit: CreditConfig,
    /// FHA outstanding-request window.
    pub fha_outstanding: usize,
}

impl Default for TopologySpec {
    fn default() -> Self {
        TopologySpec {
            switch: SwitchConfig::fabrex_like(),
            credit: CreditConfig::default(),
            fha_outstanding: 16,
        }
    }
}

/// A host server on the fabric.
#[derive(Debug, Clone, Copy)]
pub struct HostHandle {
    /// The host's FHA component.
    pub fha: ComponentId,
    /// The host's fabric node id.
    pub node: NodeId,
}

/// A fabric-attached device (FAM module or FAA engine).
#[derive(Debug, Clone, Copy)]
pub struct DeviceHandle {
    /// The device's FEA component.
    pub fea: ComponentId,
    /// The device's fabric node id.
    pub node: NodeId,
    /// The host-physical range mapped to this device (len 0 for non-memory).
    pub range: AddrRange,
}

/// A built composable infrastructure.
#[derive(Clone)]
pub struct Topology {
    /// Host servers.
    pub hosts: Vec<HostHandle>,
    /// Fabric-attached devices.
    pub devices: Vec<DeviceHandle>,
    /// Fabric switches.
    pub switches: Vec<ComponentId>,
    /// The host physical address map shared by all FHAs.
    pub addr_map: Arc<AddrMap>,
    /// The fabric manager, when the topology uses managed discovery.
    pub manager: Option<ComponentId>,
}

impl Topology {
    /// The first host's FHA (convenience for single-host setups).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no hosts.
    pub fn host(&self) -> HostHandle {
        self.hosts[0]
    }

    /// The first device (convenience).
    ///
    /// # Panics
    ///
    /// Panics if the topology has no devices.
    pub fn device(&self) -> DeviceHandle {
        self.devices[0]
    }

    /// Wires a [`TraceSink`] through every adapter, port, switch, and
    /// device of this topology. Each component gets its own named track
    /// in the current process group; with a disabled sink this is a no-op
    /// and the simulation runs untraced at full speed.
    pub fn enable_tracing(&self, engine: &mut Engine, sink: &TraceSink) {
        if !sink.is_enabled() {
            return;
        }
        for h in &self.hosts {
            let name = format!("fha{}", h.node.0);
            let adapter_track = sink.track(&name);
            let port_track = sink.track(&format!("{name}.port"));
            let fha = engine.component_mut::<Fha>(h.fha);
            fha.set_trace(adapter_track);
            fha.port_mut().set_trace(port_track);
        }
        for d in &self.devices {
            let name = format!("fea{}", d.node.0);
            let adapter_track = sink.track(&name);
            let port_track = sink.track(&format!("{name}.port"));
            let dev_track = sink.track(&format!("{name}.dev"));
            let fea = engine.component_mut::<Fea>(d.fea);
            fea.set_trace(adapter_track);
            fea.port_mut().set_trace(port_track);
            fea.device_mut().set_trace(dev_track);
        }
        for (i, &sw) in self.switches.iter().enumerate() {
            let switch_track = sink.track(&format!("fs{i}"));
            let s = engine.component_mut::<FabricSwitch>(sw);
            s.set_trace(switch_track);
            for p in 0..s.port_count() {
                let t = sink.track(&format!("fs{i}.p{p}"));
                engine
                    .component_mut::<FabricSwitch>(sw)
                    .port_mut(p)
                    .set_trace(t);
            }
        }
    }

    /// Snapshots every fabric component's counters and histograms into a
    /// [`MetricsRegistry`] under hierarchical `<prefix><component>.<stat>`
    /// names (e.g. `e3b.bulk.fs0.forwarded`).
    pub fn collect_metrics(&self, engine: &Engine, reg: &mut MetricsRegistry, prefix: &str) {
        for h in &self.hosts {
            let name = format!("{prefix}fha{}", h.node.0);
            let fha = engine.component::<Fha>(h.fha);
            reg.record_counter(&format!("{name}.completions"), &fha.completions);
            reg.record_histogram(&format!("{name}.latency_ps"), &fha.latency);
            reg.record_counter(&format!("{name}.snoops"), &fha.snoops);
            reg.record_counter(&format!("{name}.tx_flits"), &fha.port().tx_flits);
            reg.record_counter(&format!("{name}.rx_flits"), &fha.port().rx_flits);
        }
        for d in &self.devices {
            let name = format!("{prefix}fea{}", d.node.0);
            let fea = engine.component::<Fea>(d.fea);
            reg.record_counter(&format!("{name}.serviced"), &fea.serviced);
            reg.record_counter(&format!("{name}.tx_flits"), &fea.port().tx_flits);
            reg.record_counter(&format!("{name}.rx_flits"), &fea.port().rx_flits);
        }
        for (i, &sw) in self.switches.iter().enumerate() {
            let name = format!("{prefix}fs{i}");
            let s = engine.component::<FabricSwitch>(sw);
            reg.record_counter(&format!("{name}.forwarded"), &s.forwarded);
            reg.record_counter(&format!("{name}.unroutable"), &s.unroutable);
            reg.record_counter(&format!("{name}.queue_delay_ps"), &s.queue_delay_ps);
        }
    }
}

/// Assigns node ids and host-physical ranges in creation order and
/// creates the adapters that carry them. Every builder stages its devices
/// first, so the address map is complete before any FHA takes it.
pub(crate) struct Adapters {
    spec: TopologySpec,
    next_node: u16,
    next_addr: u64,
    /// The host physical address map built so far. Hosts share it; a
    /// device staged after a host copies it, so that host keeps the map
    /// as it stood when the host was created.
    pub(crate) map: Arc<AddrMap>,
}

impl Adapters {
    pub(crate) fn new(spec: TopologySpec) -> Self {
        Adapters {
            spec,
            next_node: 1,
            next_addr: FAM_BASE,
            map: Arc::new(AddrMap::new()),
        }
    }

    fn node(&mut self) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        id
    }

    /// Stages a device: its node id, its address range (mapped only when
    /// it has capacity) and its unwired FEA.
    pub(crate) fn device(&mut self, engine: &mut Engine, dev: Box<dyn Endpoint>) -> DeviceHandle {
        let node = self.node();
        let capacity = dev.capacity();
        let range = if capacity > 0 {
            let r = AddrRange::new(self.next_addr, capacity);
            Arc::make_mut(&mut self.map).add_direct(r, node);
            self.next_addr += capacity;
            r
        } else {
            AddrRange::new(u64::MAX - 1, 1)
        };
        let fea = engine.add_component(
            format!("fea{}", node.0),
            Fea::new(node, self.spec.switch.phys, self.spec.credit, dev),
        );
        DeviceHandle { fea, node, range }
    }

    /// Creates an unwired host FHA over the address map as it stands,
    /// sharing it with every host created since the last staged device.
    pub(crate) fn host(&mut self, engine: &mut Engine) -> HostHandle {
        let node = self.node();
        let fha = engine.add_component(
            format!("fha{}", node.0),
            Fha::new(
                node,
                self.spec.switch.phys,
                self.spec.credit,
                Arc::clone(&self.map),
                self.spec.fha_outstanding,
            ),
        );
        HostHandle { fha, node }
    }

    /// A topology over this address map.
    fn topology(&self, hosts: Vec<HostHandle>, devices: Vec<DeviceHandle>) -> Topology {
        Topology {
            hosts,
            devices,
            switches: Vec::new(),
            addr_map: Arc::clone(&self.map),
            manager: None,
        }
    }
}

/// Wires a new default port of switch `sw` to `peer`, with a PBR entry
/// for `route` through it, and returns the port.
pub(crate) fn plug(
    engine: &mut Engine,
    sw: ComponentId,
    peer: ComponentId,
    route: Option<NodeId>,
) -> usize {
    let s = engine.component_mut::<FabricSwitch>(sw);
    let p = s.add_port();
    s.connect(p, peer);
    if let Some(node) = route {
        s.routing.add_pbr(node, p);
    }
    p
}

impl HostHandle {
    /// Plugs this host into switch `sw`; `route` installs its local PBR
    /// entry.
    pub(crate) fn attach(self, engine: &mut Engine, sw: ComponentId, route: bool) {
        plug(engine, sw, self.fha, route.then_some(self.node));
        engine.component_mut::<Fha>(self.fha).connect(sw);
    }
}

impl DeviceHandle {
    /// Plugs this device into switch `sw`; `route` installs its local
    /// PBR entry.
    pub(crate) fn attach(self, engine: &mut Engine, sw: ComponentId, route: bool) {
        plug(engine, sw, self.fea, route.then_some(self.node));
        engine.component_mut::<Fea>(self.fea).connect(sw);
    }
}

/// Builds a host directly attached to one device (no switch).
pub fn direct(engine: &mut Engine, spec: TopologySpec, device: Box<dyn Endpoint>) -> Topology {
    let mut adapters = Adapters::new(spec);
    let dev = adapters.device(engine, device);
    let host = adapters.host(engine);
    engine.component_mut::<Fha>(host.fha).connect(dev.fea);
    engine.component_mut::<Fea>(dev.fea).connect(host.fha);
    adapters.topology(vec![host], vec![dev])
}

/// Builds `n_hosts` hosts and the given devices around one switch, with
/// routes pre-installed: the one-switch [`chain`].
pub fn single_switch(
    engine: &mut Engine,
    spec: TopologySpec,
    n_hosts: usize,
    devices: Vec<Box<dyn Endpoint>>,
) -> Topology {
    chain(engine, spec, vec![DomainSpec { n_hosts, devices }])
}

/// Builds a linear chain of switches (stage 0 — stage 1 — …), with hosts
/// and devices attached per stage and chain routes installed. Used by the
/// congestion back-propagation experiment (E3e).
///
/// The chain is the one-column mesh plan: one domain, so every link is a
/// direct wire, and its dimension-ordered escape route is the single
/// transit candidate toward each remote stage.
///
/// # Panics
///
/// Panics if `stages` is empty.
pub fn chain(engine: &mut Engine, spec: TopologySpec, stages: Vec<DomainSpec>) -> Topology {
    let kind = PodKind::Mesh {
        cols: 1,
        rows: stages.len(),
    };
    let (plan, devices) = PodPlan::line(kind, stages);
    let mut fabric = instantiate(
        Engines::One(engine),
        &plan,
        &spec,
        None,
        SimTime::ZERO,
        devices,
    );
    fabric.domains.swap_remove(0)
}

/// Builds the Figure 1 infrastructure: two host servers, two cross-linked
/// switches, two FAM chassis (three rDIMM modules each) and one FAA
/// chassis (two engines), with a fabric manager ready to run discovery.
///
/// Routes are *not* pre-installed; post
/// [`StartDiscovery`](crate::manager::StartDiscovery) to the returned
/// manager and run the engine (experiment F1).
pub fn figure1(engine: &mut Engine, spec: TopologySpec) -> Topology {
    let dimm = || -> Box<dyn Endpoint> {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 30,
        ))
    };
    let accel = || -> Box<dyn Endpoint> {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(50.0),
            SimTime::from_ns(50.0),
            256 << 20,
        ))
    };
    let mut adapters = Adapters::new(spec);
    let devices: Vec<DeviceHandle> = [dimm(), dimm(), dimm(), dimm(), dimm(), dimm()]
        .into_iter()
        .chain([accel(), accel()])
        .map(|dev| adapters.device(engine, dev))
        .collect();
    let fs1 = engine.add_component("fs1", FabricSwitch::new(spec.switch));
    let fs2 = engine.add_component("fs2", FabricSwitch::new(spec.switch));
    plug(engine, fs1, fs2, None);
    plug(engine, fs2, fs1, None);
    let hosts = vec![adapters.host(engine), adapters.host(engine)];
    // No route pre-install: the manager fills the tables. fs1 carries
    // host 1 and the first FAM chassis, fs2 everything else.
    hosts[0].attach(engine, fs1, false);
    hosts[1].attach(engine, fs2, false);
    for (i, dev) in devices.iter().enumerate() {
        dev.attach(engine, if i < 3 { fs1 } else { fs2 }, false);
    }
    let manager = engine.add_component("fabric-manager", FabricManager::new(vec![fs1, fs2], None));
    Topology {
        switches: vec![fs1, fs2],
        manager: Some(manager),
        ..adapters.topology(hosts, devices)
    }
}

#[cfg(test)]
mod tests {
    use fcc_sim::Engine;

    use super::*;

    #[test]
    fn single_switch_wires_and_routes() {
        let mut engine = Engine::new(0);
        let dev: Box<dyn Endpoint> = Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 20,
        ));
        let topo = single_switch(&mut engine, TopologySpec::default(), 2, vec![dev]);
        assert_eq!(topo.hosts.len(), 2);
        assert_eq!(topo.devices.len(), 1);
        let sw = engine.component::<FabricSwitch>(topo.switches[0]);
        assert_eq!(sw.port_count(), 3);
        assert_eq!(sw.routing.pbr_entries(), 3);
        // Address map covers the device capacity at FAM_BASE.
        let d = topo.addr_map.decode(FAM_BASE).expect("mapped");
        assert_eq!(d.node, topo.devices[0].node);
        assert_eq!(topo.addr_map.total_bytes(), 1 << 20);
    }

    fn mem(capacity: u64) -> Box<dyn Endpoint> {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            capacity,
        ))
    }

    /// Hosts share one address map until one of them is given a mapping,
    /// by call or by message; the others keep decoding as before.
    #[test]
    fn address_map_is_shared_until_a_host_edits_it() {
        let mut engine = Engine::new(0);
        let topo = single_switch(&mut engine, TopologySpec::default(), 3, vec![mem(1 << 20)]);
        let [a, b, c] = [0, 1, 2].map(|i| topo.hosts[i].fha);
        let map = |engine: &Engine, h| engine.component::<Fha>(h).addr_map() as *const AddrMap;
        assert!(std::ptr::eq(map(&engine, a), &*topo.addr_map));
        assert!(std::ptr::eq(map(&engine, a), map(&engine, b)));
        let decodes = |engine: &Engine, h, addr| engine.component::<Fha>(h).addr_map().decode(addr);
        let dev = topo.devices[0];
        let (ra, rb) = (
            AddrRange::new(FAM_BASE + (1 << 20), 4096),
            AddrRange::new(FAM_BASE + (2 << 20), 4096),
        );
        engine.component_mut::<Fha>(a).add_mapping(ra, dev.node);
        engine.post(
            b,
            SimTime::ZERO,
            InstallMapping {
                range: rb,
                node: dev.node,
            },
        );
        engine.run_until_idle();
        assert_eq!(decodes(&engine, a, ra.base).map(|d| d.node), Some(dev.node));
        assert_eq!(decodes(&engine, b, rb.base).map(|d| d.node), Some(dev.node));
        assert_eq!(decodes(&engine, a, rb.base), None, "b's mapping stays b's");
        assert_eq!(decodes(&engine, b, ra.base), None, "a's mapping stays a's");
        for addr in [ra.base, rb.base] {
            assert_eq!(decodes(&engine, c, addr), None);
            assert_eq!(topo.addr_map.decode(addr), None);
        }
        assert!(std::ptr::eq(map(&engine, c), &*topo.addr_map));
        for h in [a, b, c] {
            assert_eq!(
                decodes(&engine, h, FAM_BASE).map(|d| d.node),
                Some(dev.node)
            );
        }
    }

    /// A host sees the map as it stood when the host was created: a
    /// device staged later is decoded by hosts created after it only.
    #[test]
    fn hosts_snapshot_the_map_at_creation() {
        let mut engine = Engine::new(0);
        let mut adapters = Adapters::new(TopologySpec::default());
        let first = adapters.device(&mut engine, mem(1 << 20));
        let early = adapters.host(&mut engine);
        let later = adapters.device(&mut engine, mem(1 << 20));
        let late = adapters.host(&mut engine);
        let decodes = |h: HostHandle, dev: DeviceHandle| {
            let d = engine
                .component::<Fha>(h.fha)
                .addr_map()
                .decode(dev.range.base);
            d.map(|d| d.node)
        };
        assert_eq!(decodes(early, first), Some(first.node));
        assert_eq!(decodes(early, later), None, "staged after the host");
        assert_eq!(decodes(late, first), Some(first.node));
        assert_eq!(decodes(late, later), Some(later.node));
    }

    #[test]
    fn chain_installs_transit_routes() {
        let mut engine = Engine::new(0);
        let mk = || -> Box<dyn Endpoint> {
            Box::new(FixedLatencyMemory::new(
                SimTime::from_ns(100.0),
                SimTime::from_ns(100.0),
                1 << 20,
            ))
        };
        let topo = chain(
            &mut engine,
            TopologySpec::default(),
            vec![
                DomainSpec {
                    n_hosts: 2,
                    devices: vec![],
                },
                DomainSpec {
                    n_hosts: 0,
                    devices: vec![],
                },
                DomainSpec {
                    n_hosts: 0,
                    devices: vec![mk()],
                },
            ],
        );
        assert_eq!(topo.switches.len(), 3);
        // Middle switch must know routes to the hosts (left) and dev (right).
        let mid = engine.component::<FabricSwitch>(topo.switches[1]);
        assert_eq!(mid.routing.pbr_entries(), 3);
        let dev_node = topo.devices[0].node;
        assert!(mid.routing.route(dev_node).is_some());
        assert!(mid.routing.route(topo.hosts[0].node).is_some());
    }

    use crate::adapter::{HostCompletion, HostOp, HostRequest, InstallMapping};
    use fcc_sim::Inbox;

    type Sink = Inbox<HostCompletion>;

    /// Ten reads and writes from each of two hosts through one switch.
    fn traffic_through_one_switch(engine: &mut Engine) -> (Topology, ComponentId) {
        let dev: Box<dyn Endpoint> = Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 24,
        ));
        let topo = single_switch(engine, TopologySpec::default(), 2, vec![dev]);
        let sink = engine.add_component("sink", Sink::default());
        for (i, h) in topo.hosts.iter().enumerate() {
            for j in 0..10u64 {
                let (addr, bytes) = (FAM_BASE + j * 64, 64);
                let op = if j % 2 == 0 {
                    HostOp::Read { addr, bytes }
                } else {
                    HostOp::Write { addr, bytes }
                };
                let tag = (i as u64) * 100 + j;
                let req = HostRequest {
                    op,
                    tag,
                    reply_to: sink,
                };
                engine.post(h.fha, SimTime::ZERO, req);
            }
        }
        (topo, sink)
    }

    #[test]
    fn traffic_flows_host_to_device_through_switch() {
        let mut engine = Engine::new(5);
        let (topo, sink) = traffic_through_one_switch(&mut engine);
        engine.run_until_idle();
        let done = engine.component::<Sink>(sink).messages();
        assert_eq!(done.len(), 20, "all requests completed through the switch");
        // Every completion passed the switch twice (~90ns each way) plus
        // the 100ns device: latency must exceed 280ns.
        for c in done {
            assert!(c.latency() > SimTime::from_ns(280.0), "{}", c.latency());
        }
        let sw = engine.component::<FabricSwitch>(topo.switches[0]);
        assert!(sw.forwarded.get() >= 20 * 2, "requests + responses");
        assert_eq!(sw.unroutable.get(), 0);
        assert_eq!(sw.queued(), 0, "switch drained");
        assert!(crate::ledger::audit_topology(&engine, &topo).is_clean());
    }

    /// Mid-traffic, a switch is sent a host request and two flits from a
    /// component no port is wired to, and an FHA a request for an address
    /// no device backs. Each is rejected where it lands: the traffic
    /// still completes, and the audit and the deadlock report name them.
    #[test]
    fn misdelivered_messages_are_rejected_and_audited() {
        let mut engine = Engine::new(5);
        let (topo, sink) = traffic_through_one_switch(&mut engine);
        let (sw, fha) = (topo.switches[0], topo.hosts[1].fha);
        // An FHA cabled to the switch from its own side only.
        let spec = TopologySpec::default();
        let (phys, credit, map) = (spec.switch.phys, spec.credit, topo.addr_map.clone());
        let loose = engine.add_component("loose", Fha::new(NodeId(90), phys, credit, map, 8));
        engine.component_mut::<Fha>(loose).connect(sw);
        let request = |addr| HostRequest {
            op: HostOp::Read { addr, bytes: 64 },
            tag: 99,
            reply_to: sink,
        };
        for at in [40.0, 90.0] {
            engine.post(loose, SimTime::from_ns(at), request(FAM_BASE));
        }
        engine.post(sw, SimTime::from_ns(150.0), request(FAM_BASE));
        engine.post(fha, SimTime::from_ns(60.0), request(0x40));
        engine.run_until_idle();
        assert_eq!(engine.component::<Sink>(sink).messages().len(), 20);
        let mut findings: Vec<String> = crate::ledger::audit_topology(&engine, &topo)
            .findings
            .iter()
            .map(ToString::to_string)
            .collect();
        findings.sort();
        let host_request = std::any::type_name::<HostRequest>();
        let (sw, fha) = (engine.name(sw), engine.name(fha));
        let mut expected = vec![
            format!("{sw}: rejected 2 message(s): flit from an unconnected component"),
            format!("{sw}: rejected 1 message(s): {host_request}"),
            format!("{fha}: rejected 1 message(s): request to an unmapped fabric address"),
        ];
        expected.sort();
        assert_eq!(findings, expected);
        // The loose FHA's two reads never complete; the three rejections
        // follow them in the report.
        let stuck = engine.deadlock_report().expect("rejections reported").stuck;
        assert_eq!(stuck.len(), 5);
    }

    #[test]
    fn figure1_discovery_installs_routes_and_carries_traffic() {
        let mut engine = Engine::new(5);
        let topo = figure1(&mut engine, TopologySpec::default());
        let manager = topo.manager.expect("figure1 has a manager");
        engine.post(manager, SimTime::ZERO, crate::manager::StartDiscovery);
        engine.run_until_idle();
        let fs1 = engine.component::<FabricSwitch>(topo.switches[0]);
        // fs1 must know every endpoint: 2 hosts + 8 devices.
        assert_eq!(fs1.routing.pbr_entries(), 10);
        // Cross-fabric read: host 1 (on fs1) reads a FAM module behind fs2.
        let sink = engine.add_component("sink", Sink::default());
        let far_dev = topo.devices[3]; // first rDIMM of FAM chassis 2.
        let h1 = topo.hosts[0];
        engine.post(
            h1.fha,
            engine.now(),
            HostRequest {
                op: HostOp::Read {
                    addr: far_dev.range.base,
                    bytes: 64,
                },
                tag: 1,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        let done = engine.component::<Sink>(sink).messages();
        assert_eq!(done.len(), 1);
        // Two switch hops each way (~4 × 90ns) + device 100ns.
        assert!(done[0].latency() > SimTime::from_ns(460.0));
    }

    #[test]
    fn figure1_shape() {
        let mut engine = Engine::new(0);
        let topo = figure1(&mut engine, TopologySpec::default());
        assert_eq!(topo.hosts.len(), 2);
        assert_eq!(topo.devices.len(), 8, "6 rDIMMs + 2 FAA engines");
        assert_eq!(topo.switches.len(), 2);
        assert!(topo.manager.is_some());
        // fs1: inter-switch + host + 3 FAM = 5 ports.
        let fs1 = engine.component::<FabricSwitch>(topo.switches[0]);
        assert_eq!(fs1.port_count(), 5);
        // fs2: inter-switch + host + 3 FAM + 2 FAA = 7 ports.
        let fs2 = engine.component::<FabricSwitch>(topo.switches[1]);
        assert_eq!(fs2.port_count(), 7);
        // Routes not yet installed.
        assert_eq!(fs1.routing.pbr_entries(), 0);
    }
}
