//! Golden wiring of every fabric builder.
//!
//! Each configuration below is built and reduced to a text fingerprint:
//! every host, device and switch with its component name, creation index
//! and node id; every device's host-physical range; per switch, each
//! port's peer (gateway ports by kind and domain pair, since the cable
//! label is the builder's choice), its initial per-class link credits and
//! its VC shape; the candidate list of every PBR route; and the sharded
//! executor's lookahead and gateway count. Creation indices fix the
//! `(time, seq)` tie-break order of the simulation, so a builder refactor
//! that keeps every line here keeps every run bit-for-bit.
//!
//! `tests/builder_fingerprint.txt` was recorded from the builders before
//! they were folded into one plan realizer. On a mismatch the assertion
//! names the configuration and the first line that differs.

use std::fmt::Write as _;

use fcc::fabric::endpoint::{Endpoint, FixedLatencyMemory};
use fcc::fabric::pods::{sharded_pod, PodKind, PodSpec};
use fcc::fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc::fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc::fabric::topology::{self, Topology, TopologySpec};
use fcc::fabric::VcConfig;
use fcc::proto::addr::NodeId;
use fcc::proto::channel::MsgClass;
use fcc::sim::{ComponentId, Engine, ShardedEngine, SimTime};

const GOLDEN: &str = include_str!("builder_fingerprint.txt");

/// A memory device of `capacity` bytes (0: not address-mapped).
fn mem(capacity: u64) -> Box<dyn Endpoint> {
    Box::new(FixedLatencyMemory::new(
        SimTime::from_ns(100.0),
        SimTime::from_ns(100.0),
        capacity,
    ))
}

/// `n` devices of distinct capacities.
fn devices(n: usize) -> Vec<Box<dyn Endpoint>> {
    (0..n).map(|i| mem((1 << 20) << i)).collect()
}

/// A component by name and creation index. Gateway names keep only
/// their `gw<a>to<b>` suffix.
fn comp(engine: &Engine, id: ComponentId) -> String {
    let name = engine.name(id);
    let name = name.rfind(".gw").map_or(name, |i| &name[i + 1..]);
    format!("{name}#{}", id.index())
}

/// Appends the fingerprint of a built fabric: one topology per domain
/// with that domain's engine.
fn fingerprint(
    out: &mut String,
    parts: &[(&Engine, &Topology)],
    gateways: usize,
    lookahead: Option<SimTime>,
) {
    let nodes = parts
        .iter()
        .flat_map(|(_, t)| {
            let hosts = t.hosts.iter().map(|h| h.node.0);
            hosts.chain(t.devices.iter().map(|d| d.node.0))
        })
        .max()
        .unwrap_or(0);
    let _ = writeln!(
        out,
        "gateways {gateways} lookahead {:?}",
        lookahead.map(SimTime::as_ps)
    );
    for (d, (engine, topo)) in parts.iter().enumerate() {
        let _ = writeln!(out, "d{d} map {}", topo.addr_map.total_bytes());
        if let Some(m) = topo.manager {
            let _ = writeln!(out, "d{d} manager {}", comp(engine, m));
        }
        for h in &topo.hosts {
            let _ = writeln!(out, "d{d} host {} node {}", comp(engine, h.fha), h.node.0);
        }
        for dev in &topo.devices {
            let _ = writeln!(
                out,
                "d{d} device {} node {} range {:#x}+{:#x}",
                comp(engine, dev.fea),
                dev.node.0,
                dev.range.base,
                dev.range.len
            );
        }
        for &sw in &topo.switches {
            let s = engine.component::<FabricSwitch>(sw);
            let _ = writeln!(
                out,
                "d{d} switch {} ports {}",
                comp(engine, sw),
                s.port_count()
            );
            for p in 0..s.port_count() {
                let port = s.port(p);
                let peer = port
                    .peer_opt()
                    .map_or_else(|| "-".to_string(), |id| comp(engine, id));
                let credits = port.link.tx_credits(MsgClass::Req).available();
                let vc = s
                    .vc_link(p)
                    .map(|v| format!(" vc {}x{}", v.lanes.len(), v.lanes[0].cap))
                    .unwrap_or_default();
                let _ = writeln!(out, "  p{p} {peer} credits {credits}{vc}");
            }
            let mut routes = String::new();
            for n in 1..=nodes {
                if let Some(c) = s.routing.route(NodeId(n)) {
                    let _ = write!(routes, " {n}>{c:?}");
                }
            }
            let _ = writeln!(out, "  routes{routes}");
        }
    }
}

fn serial(out: &mut String, engine: &Engine, topo: &Topology) {
    fingerprint(out, &[(engine, topo)], 0, None);
}

fn sharded(out: &mut String, sharded: &ShardedEngine, fabric: &ShardedFabric) {
    let parts: Vec<(&Engine, &Topology)> = fabric
        .domains
        .iter()
        .enumerate()
        .map(|(d, t)| (sharded.engine(d), t))
        .collect();
    fingerprint(out, &parts, fabric.gateways.len(), sharded.lookahead());
}

fn domain(n_hosts: usize, n_devices: usize) -> DomainSpec {
    DomainSpec {
        n_hosts,
        devices: devices(n_devices),
    }
}

/// Every configuration's fingerprint, each under a `== <name>` header.
fn all() -> Vec<(String, String)> {
    let mut cases = Vec::new();
    let spec = TopologySpec::default();
    for hosts in 0..=3 {
        for devs in 0..=2 {
            let mut engine = Engine::new(0);
            let mut list = devices(devs);
            if devs == 2 {
                // One unmapped (zero-capacity) device.
                list[1] = mem(0);
            }
            let topo = topology::single_switch(&mut engine, spec, hosts, list);
            let mut out = String::new();
            serial(&mut out, &engine, &topo);
            cases.push((format!("single_switch h{hosts} d{devs}"), out));
        }
    }
    let chains: Vec<(&str, Vec<(usize, usize)>)> = vec![
        ("e3e", vec![(2, 0), (0, 1), (0, 1)]),
        ("one-stage", vec![(2, 1)]),
        ("two-stage", vec![(1, 0), (0, 2)]),
        ("uneven", vec![(1, 2), (3, 0), (0, 1)]),
        ("four-stage", vec![(1, 1), (0, 0), (2, 1), (1, 0)]),
    ];
    for (name, stages) in chains {
        let mut engine = Engine::new(0);
        let stages = stages.iter().map(|&(h, d)| domain(h, d)).collect();
        let topo = topology::chain(&mut engine, spec, stages);
        let mut out = String::new();
        serial(&mut out, &engine, &topo);
        cases.push((format!("chain {name}"), out));
    }
    {
        let mut engine = Engine::new(0);
        let topo = topology::direct(&mut engine, spec, mem(1 << 24));
        let mut out = String::new();
        serial(&mut out, &engine, &topo);
        cases.push(("direct".to_string(), out));
    }
    {
        let mut engine = Engine::new(0);
        let topo = topology::figure1(&mut engine, spec);
        let mut out = String::new();
        serial(&mut out, &engine, &topo);
        cases.push(("figure1".to_string(), out));
    }
    let chains: Vec<Vec<(usize, usize)>> = vec![
        vec![(2, 1)],
        vec![(1, 2), (3, 0)],
        vec![(0, 1), (2, 2), (1, 0)],
        vec![(1, 1), (0, 3), (2, 0), (1, 1)],
    ];
    for doms in chains {
        let k = doms.len();
        let mut engines = ShardedEngine::new(0, k);
        let specs = doms.iter().map(|&(h, d)| domain(h, d)).collect();
        let fabric = sharded_chain(&mut engines, spec, specs, SimTime::from_ns(150.0));
        let mut out = String::new();
        sharded(&mut out, &engines, &fabric);
        cases.push((format!("sharded_chain {doms:?}"), out));
    }
    let pods = [
        (
            PodKind::SpineLeaf {
                spines: 2,
                leaves_per_spine: 2,
            },
            1,
            1,
            QueueDiscipline::Wormhole,
        ),
        (
            PodKind::SpineLeaf {
                spines: 1,
                leaves_per_spine: 3,
            },
            2,
            0,
            QueueDiscipline::Wormhole,
        ),
        (
            PodKind::SpineLeaf {
                spines: 3,
                leaves_per_spine: 1,
            },
            2,
            1,
            QueueDiscipline::Fifo,
        ),
        (
            PodKind::Mesh { cols: 2, rows: 2 },
            2,
            1,
            QueueDiscipline::Wormhole,
        ),
        (
            PodKind::Mesh { cols: 3, rows: 1 },
            1,
            2,
            QueueDiscipline::Voq,
        ),
        (
            PodKind::Torus { cols: 3, rows: 3 },
            1,
            1,
            QueueDiscipline::Wormhole,
        ),
        (
            PodKind::Torus { cols: 2, rows: 3 },
            2,
            0,
            QueueDiscipline::Wormhole,
        ),
    ];
    for (kind, hosts_per_edge, devices_per_edge, queueing) in pods {
        let mut topo = TopologySpec::default();
        topo.switch.queueing = queueing;
        topo.switch.adaptive = queueing == QueueDiscipline::Wormhole;
        let spec = PodSpec {
            kind,
            topo,
            vc: VcConfig {
                vcs: 3,
                buf_flits: 6,
            },
            hosts_per_edge,
            devices_per_edge,
            cross_latency: SimTime::from_ns(200.0),
        };
        let plan = spec.plan();
        let mut engines = ShardedEngine::new(0, plan.domains());
        let specs = plan.domain_specs(|sw, slot| mem((1 << 20) << ((sw + slot) % 3)));
        let (_, fabric) = sharded_pod(&mut engines, &spec, specs);
        let mut out = String::new();
        sharded(&mut out, &engines, &fabric);
        cases.push((
            format!("sharded_pod {kind:?} h{hosts_per_edge} d{devices_per_edge} {queueing:?}"),
            out,
        ));
    }
    cases
}

/// The golden file split into `(name, fingerprint)` sections.
fn golden() -> Vec<(String, String)> {
    let mut cases: Vec<(String, String)> = Vec::new();
    for line in GOLDEN.lines() {
        if let Some(name) = line.strip_prefix("== ") {
            cases.push((name.to_string(), String::new()));
        } else if let Some((_, body)) = cases.last_mut() {
            body.push_str(line);
            body.push('\n');
        }
    }
    cases
}

#[test]
fn builder_wiring_matches_golden() {
    let actual = all();
    let golden = golden();
    let names = |c: &[(String, String)]| c.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    assert_eq!(names(&actual), names(&golden), "configuration list");
    for ((name, got), (_, want)) in actual.iter().zip(&golden) {
        if got == want {
            continue;
        }
        let (line, (g, w)) = got
            .lines()
            .chain(std::iter::repeat("<end>"))
            .zip(want.lines().chain(std::iter::repeat("<end>")))
            .enumerate()
            .find(|(_, (g, w))| g != w)
            .unwrap_or((0, ("", "")));
        panic!("{name}: line {line} differs\n  got:  {g}\n  want: {w}");
    }
}
