//! Golden arbitration order of the FIFO and VOQ switch disciplines.
//!
//! Single switches, switch chains and a two-relay diamond run under
//! link-credit pressure (two credits per class, device occupancy slower
//! than the offered load) until they drain, for every combination of
//! queue discipline, egress allocation policy (Fair, RampUp, Arbitrated
//! with one rate reservation), adaptive routing on the diamond, and a
//! tenant `FabricScheduler` on every switch or none. The pinned figures
//! are exact: the dispatched event count, the makespan, the summed
//! per-switch `forwarded` and `queue_delay_ps`, and the summed scheduler
//! `admitted`/`deferred` counters. Any change to which flit a switch
//! dispatches when — input rotation, Kick timing, how often a tenant
//! gate is probed — moves at least one of them, so a dispatch-path
//! optimization must keep every row bit-for-bit.

use fcc::fabric::adapter::{Fea, Fha, HostCompletion, HostOp, HostRequest};
use fcc::fabric::endpoint::{Endpoint, PipelinedMemory};
use fcc::fabric::sharded::DomainSpec;
use fcc::fabric::switch::{FabricSwitch, FlowId, InstallRate, QueueDiscipline, SwitchConfig};
use fcc::fabric::topology::{self, TopologySpec, FAM_BASE};
use fcc::fabric::AllocPolicy;
use fcc::proto::addr::{AddrMap, AddrRange, NodeId};
use fcc::proto::link::CreditConfig;
use fcc::sched::{CreditPartition, FabricScheduler, TenantShare};
use fcc::sim::{Component, ComponentId, Ctx, Engine, Msg, SimTime};

/// Operations each host issues (alternating writes and reads).
const OPS: u64 = 24;
/// Bytes per operation: a header plus several data flits.
const OP_BYTES: u32 = 256;
/// Device address window.
const DEV_BYTES: u64 = 1 << 20;

struct Sink {
    done: u64,
}

impl Component for Sink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        // The sink is only wired to receive completions.
        #[allow(clippy::expect_used)]
        let _ = msg.downcast::<HostCompletion>().expect("hc");
        self.done += 1;
    }
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Four hosts and two devices on one switch.
    Switch,
    /// Three switches in a line; hosts and devices at both ends and in
    /// the middle.
    Chain,
    /// Hosts on s0, devices on s1, two relay switches between them, so
    /// every route across has two candidates.
    Diamond,
}

#[derive(Clone, Copy, Debug)]
enum Alloc {
    Fair,
    RampUp,
    Arbitrated,
}

/// One pinned run: `(label, events, makespan_ps, forwarded,
/// queue_delay_ps, sched_admitted, sched_deferred)`.
type Row = (String, u64, u64, u64, u64, u64, u64);

/// Two credits per class and frequent returns: links, not buffers, are
/// the binding constraint.
fn tight_credit() -> CreditConfig {
    CreditConfig {
        buffer_flits: 8,
        overcommit: 1.0,
        return_threshold: 2,
        retry_depth: 64,
    }
}

fn device() -> Box<dyn Endpoint> {
    Box::new(PipelinedMemory::new(
        SimTime::from_ns(150.0),
        SimTime::from_ns(150.0),
        SimTime::from_ns(40.0),
        DEV_BYTES,
    ))
}

/// Hosts, devices and switches of one built fabric.
struct Built {
    hosts: Vec<(ComponentId, NodeId)>,
    /// Base address and node of each device.
    devices: Vec<(u64, NodeId)>,
    switches: Vec<ComponentId>,
}

fn wire(engine: &mut Engine, a: ComponentId, b: ComponentId) -> (usize, usize) {
    let mut side = |x: ComponentId, y: ComponentId| {
        let s = engine.component_mut::<FabricSwitch>(x);
        let p = s.add_port();
        s.connect(p, y);
        p
    };
    let pa = side(a, b);
    let pb = side(b, a);
    (pa, pb)
}

/// s0 (two hosts) -> {sA, sB} -> s1 (two devices), every crossing route
/// listing relay A first.
fn diamond(engine: &mut Engine, cfg: SwitchConfig) -> Built {
    let credit = cfg.credit;
    let s0 = engine.add_component("s0", FabricSwitch::new(cfg));
    let sa = engine.add_component("sA", FabricSwitch::new(cfg));
    let sb = engine.add_component("sB", FabricSwitch::new(cfg));
    let s1 = engine.add_component("s1", FabricSwitch::new(cfg));
    let (s0_a, a_s0) = wire(engine, s0, sa);
    let (s0_b, b_s0) = wire(engine, s0, sb);
    let (a_s1, s1_a) = wire(engine, sa, s1);
    let (b_s1, s1_b) = wire(engine, sb, s1);
    let mut map = AddrMap::new();
    let mut devices = Vec::new();
    for d in 0..2u16 {
        let node = NodeId(100 + d);
        let base = FAM_BASE + u64::from(d) * DEV_BYTES;
        map.add_direct(AddrRange::new(base, DEV_BYTES), node);
        devices.push((base, node));
        let fea = engine.add_component(
            format!("fea{d}"),
            Fea::new(node, cfg.phys, credit, device()),
        );
        engine.component_mut::<Fea>(fea).connect(s1);
        let s = engine.component_mut::<FabricSwitch>(s1);
        let p = s.add_port();
        s.connect(p, fea);
        s.routing.add_pbr(node, p);
        let s = engine.component_mut::<FabricSwitch>(s0);
        s.routing.add_pbr(node, s0_a);
        s.routing.add_pbr(node, s0_b);
        engine
            .component_mut::<FabricSwitch>(sa)
            .routing
            .add_pbr(node, a_s1);
        engine
            .component_mut::<FabricSwitch>(sb)
            .routing
            .add_pbr(node, b_s1);
    }
    let mut hosts = Vec::new();
    for h in 0..2u16 {
        let node = NodeId(1 + h);
        let fha = engine.add_component(
            format!("fha{h}"),
            Fha::new(node, cfg.phys, credit, map.clone(), 16),
        );
        engine.component_mut::<Fha>(fha).connect(s0);
        let s = engine.component_mut::<FabricSwitch>(s0);
        let p = s.add_port();
        s.connect(p, fha);
        s.routing.add_pbr(node, p);
        let s = engine.component_mut::<FabricSwitch>(s1);
        s.routing.add_pbr(node, s1_a);
        s.routing.add_pbr(node, s1_b);
        engine
            .component_mut::<FabricSwitch>(sa)
            .routing
            .add_pbr(node, a_s0);
        engine
            .component_mut::<FabricSwitch>(sb)
            .routing
            .add_pbr(node, b_s0);
        hosts.push((fha, node));
    }
    Built {
        hosts,
        devices,
        switches: vec![s0, sa, sb, s1],
    }
}

fn build(engine: &mut Engine, shape: Shape, spec: TopologySpec) -> Built {
    let topo = match shape {
        Shape::Switch => topology::single_switch(engine, spec, 4, vec![device(), device()]),
        Shape::Chain => topology::chain(
            engine,
            spec,
            vec![
                DomainSpec {
                    n_hosts: 2,
                    devices: vec![device()],
                },
                DomainSpec {
                    n_hosts: 1,
                    devices: vec![],
                },
                DomainSpec {
                    n_hosts: 1,
                    devices: vec![device()],
                },
            ],
        ),
        Shape::Diamond => return diamond(engine, spec.switch),
    };
    Built {
        hosts: topo.hosts.iter().map(|h| (h.fha, h.node)).collect(),
        devices: topo
            .devices
            .iter()
            .map(|d| (d.range.base, d.node))
            .collect(),
        switches: topo.switches,
    }
}

/// One tenant per host, small windows: every host's flits are gated at
/// every switch they cross.
fn scheduler(hosts: &[(ComponentId, NodeId)]) -> FabricScheduler {
    let mut part = CreditPartition::new(6);
    for t in 0..hosts.len() {
        let share = TenantShare {
            group: (t % 2) as u32,
            weight: 1 + t as u32,
            floor: 1,
        };
        part.add_tenant(t as u32, share);
    }
    let mut sched = FabricScheduler::new(part, SimTime::from_ns(250.0));
    for (t, &(_, node)) in hosts.iter().enumerate() {
        sched.map_node(node, t as u32);
    }
    sched
}

fn run(
    shape: Shape,
    queueing: QueueDiscipline,
    alloc: Alloc,
    adaptive: bool,
    with_sched: bool,
) -> Row {
    let mut engine = Engine::new(0xF1F0);
    let allocation = match alloc {
        Alloc::Fair => AllocPolicy::Fair,
        Alloc::RampUp => AllocPolicy::default_ramp_up(),
        Alloc::Arbitrated => AllocPolicy::Arbitrated,
    };
    let spec = TopologySpec {
        switch: SwitchConfig {
            credit: tight_credit(),
            queueing,
            adaptive,
            allocation,
            ..SwitchConfig::fabrex_like()
        },
        credit: tight_credit(),
        ..TopologySpec::default()
    };
    let built = build(&mut engine, shape, spec);
    if with_sched {
        let sched = scheduler(&built.hosts);
        for &sw in &built.switches {
            engine
                .component_mut::<FabricSwitch>(sw)
                .install_scheduler(sched.clone());
        }
    }
    if matches!(alloc, Alloc::Arbitrated) {
        // One reserved flow, rate-limited below its offered load, so the
        // reserved phase both dispatches and waits on its token bucket.
        let flow = FlowId {
            src: built.hosts[0].1,
            dst: built.devices[0].1,
        };
        for &sw in &built.switches {
            let rate = InstallRate {
                flow,
                gbps: 20.0,
                burst_bytes: 256,
            };
            engine.post(sw, SimTime::ZERO, rate);
        }
    }
    let n_dev = built.devices.len();
    let mut sinks = Vec::new();
    for (h, &(fha, _)) in built.hosts.iter().enumerate() {
        let sink = engine.add_component(format!("sink{h}"), Sink { done: 0 });
        for k in 0..OPS {
            let (base, _) = built.devices[(h + k as usize) % n_dev];
            let addr = base + (h as u64 * OPS + k) * u64::from(OP_BYTES);
            let op = if k % 2 == 0 {
                HostOp::Write {
                    addr,
                    bytes: OP_BYTES,
                }
            } else {
                HostOp::Read {
                    addr,
                    bytes: OP_BYTES,
                }
            };
            engine.post(
                fha,
                SimTime::from_ns(k as f64 * 15.0),
                HostRequest {
                    op,
                    tag: k,
                    reply_to: sink,
                },
            );
        }
        sinks.push(sink);
    }
    engine.run_until_idle();
    let completed: u64 = sinks
        .iter()
        .map(|&s| engine.component::<Sink>(s).done)
        .sum();
    assert_eq!(completed, built.hosts.len() as u64 * OPS, "fabric drained");
    let (mut forwarded, mut delay, mut admitted, mut deferred) = (0, 0, 0, 0);
    for &sw in &built.switches {
        let s = engine.component::<FabricSwitch>(sw);
        forwarded += s.forwarded.get();
        delay += s.queue_delay_ps.get();
        if let Some(sched) = s.scheduler() {
            admitted += sched.admitted;
            deferred += sched.deferred;
        }
        assert!(s.audit().is_clean(), "{}", s.audit());
    }
    let label = format!(
        "{shape:?} {queueing:?} {alloc:?}{}{}",
        if adaptive { " adaptive" } else { "" },
        if with_sched { " sched" } else { "" }
    );
    (
        label,
        engine.events_dispatched(),
        engine.now().as_ps(),
        forwarded,
        delay,
        admitted,
        deferred,
    )
}

fn observed() -> Vec<Row> {
    let shapes = [
        (Shape::Switch, false),
        (Shape::Chain, false),
        (Shape::Diamond, false),
        (Shape::Diamond, true),
    ];
    let mut rows = Vec::new();
    for (shape, adaptive) in shapes {
        for queueing in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
            for alloc in [Alloc::Fair, Alloc::RampUp, Alloc::Arbitrated] {
                for with_sched in [false, true] {
                    rows.push(run(shape, queueing, alloc, adaptive, with_sched));
                }
            }
        }
    }
    rows
}

/// Recorded on the sweep that visited every input with `(rr_input + step) % n`
/// and re-examined every FIFO head on every round.
/// The twelve adaptive rows were re-recorded when every discipline began
/// sending a transfer's data slots by its header's egress, which let
/// those runs issue writes.
const GOLDEN: &[(&str, u64, u64, u64, u64, u64, u64)] = &[
    ("Switch Fifo Fair", 2970, 10649567, 576, 65447882, 0, 0),
    (
        "Switch Fifo Fair sched",
        2849,
        15553632,
        576,
        178110615,
        288,
        2479,
    ),
    ("Switch Fifo RampUp", 2835, 26026079, 576, 154168551, 0, 0),
    (
        "Switch Fifo RampUp sched",
        2890,
        24026079,
        576,
        213343041,
        288,
        1729,
    ),
    (
        "Switch Fifo Arbitrated",
        2909,
        10483170,
        576,
        67655936,
        0,
        0,
    ),
    (
        "Switch Fifo Arbitrated sched",
        2891,
        15526079,
        576,
        178178958,
        288,
        2551,
    ),
    ("Switch Voq Fair", 2797, 10360935, 576, 64117612, 0, 0),
    (
        "Switch Voq Fair sched",
        2988,
        15526079,
        576,
        169119594,
        288,
        3549,
    ),
    ("Switch Voq RampUp", 2978, 19026079, 576, 112989979, 0, 0),
    (
        "Switch Voq RampUp sched",
        3022,
        20026079,
        576,
        192025932,
        288,
        2491,
    ),
    ("Switch Voq Arbitrated", 2798, 10360935, 576, 64117612, 0, 0),
    (
        "Switch Voq Arbitrated sched",
        2986,
        15526079,
        576,
        168964199,
        288,
        3274,
    ),
    ("Chain Fifo Fair", 4699, 12630540, 1152, 139155695, 0, 0),
    (
        "Chain Fifo Fair sched",
        4717,
        16963979,
        1152,
        240325478,
        528,
        2004,
    ),
    ("Chain Fifo RampUp", 4675, 34311474, 1152, 336690323, 0, 0),
    (
        "Chain Fifo RampUp sched",
        4995,
        35274711,
        1152,
        365797115,
        528,
        1230,
    ),
    (
        "Chain Fifo Arbitrated",
        4684,
        12360540,
        1152,
        136336302,
        0,
        0,
    ),
    (
        "Chain Fifo Arbitrated sched",
        4724,
        16962900,
        1152,
        241305189,
        528,
        1809,
    ),
    ("Chain Voq Fair", 4711, 12823777, 1152, 138594067, 0, 0),
    (
        "Chain Voq Fair sched",
        4839,
        16417004,
        1152,
        227445113,
        528,
        3079,
    ),
    ("Chain Voq RampUp", 4737, 34312553, 1152, 292694187, 0, 0),
    (
        "Chain Voq RampUp sched",
        4973,
        29052158,
        1152,
        315731749,
        528,
        1745,
    ),
    (
        "Chain Voq Arbitrated",
        4714,
        12647014,
        1152,
        137840252,
        0,
        0,
    ),
    (
        "Chain Voq Arbitrated sched",
        4838,
        16363767,
        1152,
        227254795,
        528,
        2923,
    ),
    ("Diamond Fifo Fair", 3125, 9849721, 864, 101757342, 0, 0),
    (
        "Diamond Fifo Fair sched",
        3308,
        9865405,
        864,
        101921041,
        432,
        300,
    ),
    ("Diamond Fifo RampUp", 3128, 22400395, 864, 207897454, 0, 0),
    (
        "Diamond Fifo RampUp sched",
        3413,
        28168237,
        864,
        296954332,
        432,
        153,
    ),
    (
        "Diamond Fifo Arbitrated",
        3258,
        9668642,
        864,
        94128286,
        0,
        0,
    ),
    (
        "Diamond Fifo Arbitrated sched",
        3309,
        10310819,
        864,
        111023815,
        432,
        416,
    ),
    ("Diamond Voq Fair", 3130, 9849721, 864, 101751947, 0, 0),
    (
        "Diamond Voq Fair sched",
        3308,
        9865405,
        864,
        101921041,
        432,
        300,
    ),
    ("Diamond Voq RampUp", 3130, 23400395, 864, 222065739, 0, 0),
    (
        "Diamond Voq RampUp sched",
        3420,
        26026079,
        864,
        259811423,
        432,
        189,
    ),
    ("Diamond Voq Arbitrated", 3258, 9668642, 864, 94128286, 0, 0),
    (
        "Diamond Voq Arbitrated sched",
        3309,
        10310819,
        864,
        111023815,
        432,
        416,
    ),
    (
        "Diamond Fifo Fair adaptive",
        3078,
        5272611,
        864,
        78270790,
        0,
        0,
    ),
    (
        "Diamond Fifo Fair adaptive sched",
        3358,
        10065135,
        864,
        97290192,
        432,
        456,
    ),
    (
        "Diamond Fifo RampUp adaptive",
        3128,
        20258237,
        864,
        259260402,
        0,
        0,
    ),
    (
        "Diamond Fifo RampUp adaptive sched",
        3325,
        19168237,
        864,
        256265334,
        432,
        481,
    ),
    (
        "Diamond Fifo Arbitrated adaptive",
        3082,
        5272611,
        864,
        78270790,
        0,
        0,
    ),
    (
        "Diamond Fifo Arbitrated adaptive sched",
        3353,
        8406503,
        864,
        92418593,
        432,
        417,
    ),
    (
        "Diamond Voq Fair adaptive",
        3080,
        5272611,
        864,
        78270790,
        0,
        0,
    ),
    (
        "Diamond Voq Fair adaptive sched",
        3346,
        9785135,
        864,
        101389132,
        432,
        609,
    ),
    (
        "Diamond Voq RampUp adaptive",
        2987,
        15168237,
        864,
        228493465,
        0,
        0,
    ),
    (
        "Diamond Voq RampUp adaptive sched",
        3330,
        17284316,
        864,
        260267858,
        432,
        540,
    ),
    (
        "Diamond Voq Arbitrated adaptive",
        3084,
        5272611,
        864,
        78270790,
        0,
        0,
    ),
    (
        "Diamond Voq Arbitrated adaptive sched",
        3383,
        10314557,
        864,
        102352658,
        432,
        668,
    ),
];

#[test]
fn fifo_voq_dispatch_order_matches_golden() {
    let rows = observed();
    let listing: String = rows
        .iter()
        .map(|r| {
            format!(
                "    (\"{}\", {}, {}, {}, {}, {}, {}),\n",
                r.0, r.1, r.2, r.3, r.4, r.5, r.6
            )
        })
        .collect();
    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(l, a, b, c, d, e, f)| (l.to_string(), a, b, c, d, e, f))
        .collect();
    assert_eq!(rows, golden, "observed rows:\n{listing}");
}
