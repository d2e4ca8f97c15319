//! Golden arbitration order of the wormhole switch core.
//!
//! Small pods run under VC pressure (one- and two-flit lane buffers, two
//! and four lanes, adaptive routing on and off) until they drain. The
//! pinned figures are exact: the dispatched event count, the makespan,
//! and the summed per-switch `forwarded`, `queue_delay_ps` and VC
//! credit violations. Any change to which flit the switch dispatches
//! when — lane order, input rotation, Kick timing, escape-lane
//! eligibility — moves at least one of them, so a dispatch-path
//! optimization must keep every row bit-for-bit.

use fcc::fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc::fabric::endpoint::FixedLatencyMemory;
use fcc::fabric::pods::{sharded_pod, PodKind, PodSpec};
use fcc::fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc::fabric::topology::TopologySpec;
use fcc::fabric::wormhole::VcConfig;
use fcc::sim::{Component, Ctx, Msg, ShardedEngine, SimTime};

/// Operations each host issues (alternating writes and reads).
const OPS: u64 = 16;
/// Bytes per operation: a header plus several data flits per worm.
const OP_BYTES: u32 = 512;

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

/// One pinned run: `(label, events, makespan_ps, forwarded,
/// queue_delay_ps, vc_violations)`.
type Row = (String, u64, u64, u64, u64, u64);

fn kind_label(kind: PodKind) -> &'static str {
    match kind {
        PodKind::SpineLeaf { .. } => "spine-leaf-2x2",
        PodKind::Mesh { .. } => "mesh-3x3",
        PodKind::Torus { .. } => "torus-3x3",
    }
}

#[allow(clippy::expect_used)]
fn run(kind: PodKind, hosts_per_edge: usize, vcs: u8, buf_flits: u32, adaptive: bool) -> Row {
    let mut topo = TopologySpec::default();
    topo.switch.queueing = QueueDiscipline::Wormhole;
    topo.switch.adaptive = adaptive;
    let spec = PodSpec {
        kind,
        topo,
        vc: VcConfig { vcs, buf_flits },
        hosts_per_edge,
        devices_per_edge: 1,
        cross_latency: SimTime::from_ns(200.0),
    };
    let plan = spec.plan();
    let mut sharded = ShardedEngine::new(0x901d, plan.domains());
    let specs = plan.domain_specs(|_, _| {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 20,
        ))
    });
    let (_, fabric) = sharded_pod(&mut sharded, &spec, specs);
    let devices: Vec<_> = fabric
        .domains
        .iter()
        .flat_map(|t| t.devices.iter().copied())
        .collect();
    let hosts: Vec<_> = fabric.all_hosts().map(|(d, h)| (d, *h)).collect();
    let n_dev = devices.len();
    let mut sinks = Vec::new();
    for (gh, &(d, host)) in hosts.iter().enumerate() {
        // Every host targets a device under another edge switch, rotating
        // so that every switch carries worms in both directions.
        let home = gh / hosts_per_edge;
        let dev = devices[(home + 1 + gh % (n_dev - 1)) % n_dev];
        let engine = sharded.engine_mut(d);
        let sink = engine.add_component(format!("sink{gh}"), Sink { done: 0 });
        for k in 0..OPS {
            let addr = dev.range.base + (gh as u64 * OPS + k) * u64::from(OP_BYTES);
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
                host.fha,
                SimTime::from_ns(k as f64 * 20.0),
                HostRequest {
                    op,
                    tag: k,
                    reply_to: sink,
                },
            );
        }
        sinks.push((d, sink));
    }
    sharded.run(1);
    let completed: u64 = sinks
        .iter()
        .map(|&(d, s)| sharded.engine(d).component::<Sink>(s).done)
        .sum();
    assert_eq!(completed, hosts.len() as u64 * OPS, "pod drained");
    let (mut makespan, mut forwarded, mut delay, mut violations) = (0, 0, 0, 0);
    for (d, t) in fabric.domains.iter().enumerate() {
        let engine = sharded.engine(d);
        makespan = makespan.max(engine.now().as_ps());
        for &sw in &t.switches {
            let s = engine.component::<FabricSwitch>(sw);
            forwarded += s.forwarded.get();
            delay += s.queue_delay_ps.get();
            violations += s.vc_violations();
            assert!(s.audit().is_clean(), "{}", s.audit());
        }
    }
    let label = format!(
        "{} vcs{vcs} buf{buf_flits} {}",
        kind_label(kind),
        if adaptive { "adaptive" } else { "escape-only" }
    );
    (
        label,
        sharded.total_events(),
        makespan,
        forwarded,
        delay,
        violations,
    )
}

fn observed() -> Vec<Row> {
    let kinds = [
        (
            PodKind::SpineLeaf {
                spines: 2,
                leaves_per_spine: 2,
            },
            2,
        ),
        (PodKind::Mesh { cols: 3, rows: 3 }, 1),
        (PodKind::Torus { cols: 3, rows: 3 }, 1),
    ];
    let mut rows = Vec::new();
    for (kind, hosts_per_edge) in kinds {
        for vcs in [2, 4] {
            for buf_flits in [1, 2] {
                for adaptive in [false, true] {
                    rows.push(run(kind, hosts_per_edge, vcs, buf_flits, adaptive));
                }
            }
        }
    }
    rows
}

/// Recorded on the sweep-every-lane arbiter that preceded head parking.
const GOLDEN: &[(&str, u64, u64, u64, u64, u64)] = &[
    (
        "spine-leaf-2x2 vcs2 buf1 escape-only",
        18142,
        123442901,
        3840,
        11831937622,
        0,
    ),
    (
        "spine-leaf-2x2 vcs2 buf1 adaptive",
        18860,
        112197930,
        3840,
        9870091016,
        0,
    ),
    (
        "spine-leaf-2x2 vcs2 buf2 escape-only",
        18102,
        57324095,
        3840,
        5740528663,
        0,
    ),
    (
        "spine-leaf-2x2 vcs2 buf2 adaptive",
        18815,
        55635309,
        3840,
        5320713747,
        0,
    ),
    (
        "spine-leaf-2x2 vcs4 buf1 escape-only",
        18087,
        82527448,
        3840,
        7728026080,
        0,
    ),
    (
        "spine-leaf-2x2 vcs4 buf1 adaptive",
        18862,
        91878392,
        3840,
        7862012313,
        0,
    ),
    (
        "spine-leaf-2x2 vcs4 buf2 escape-only",
        18071,
        42139644,
        3840,
        3902318032,
        0,
    ),
    (
        "spine-leaf-2x2 vcs4 buf2 adaptive",
        18591,
        43037592,
        3840,
        3888620764,
        0,
    ),
    (
        "mesh-3x3 vcs2 buf1 escape-only",
        20364,
        86526600,
        4000,
        9123348442,
        0,
    ),
    (
        "mesh-3x3 vcs2 buf1 adaptive",
        20239,
        86339442,
        4000,
        8958573026,
        0,
    ),
    (
        "mesh-3x3 vcs2 buf2 escape-only",
        20307,
        40287014,
        4000,
        4489782284,
        0,
    ),
    (
        "mesh-3x3 vcs2 buf2 adaptive",
        20114,
        41526195,
        4000,
        4581769088,
        0,
    ),
    (
        "mesh-3x3 vcs4 buf1 escape-only",
        20348,
        75628151,
        4000,
        6825143798,
        0,
    ),
    (
        "mesh-3x3 vcs4 buf1 adaptive",
        20230,
        72612785,
        4000,
        6708424853,
        0,
    ),
    (
        "mesh-3x3 vcs4 buf2 escape-only",
        20324,
        38757091,
        4000,
        3484759464,
        0,
    ),
    (
        "mesh-3x3 vcs4 buf2 adaptive",
        20140,
        33699326,
        4000,
        3443508160,
        0,
    ),
    (
        "torus-3x3 vcs2 buf1 escape-only",
        20366,
        82639519,
        4000,
        8926402225,
        0,
    ),
    (
        "torus-3x3 vcs2 buf1 adaptive",
        18890,
        77967650,
        3779,
        8266151325,
        0,
    ),
    (
        "torus-3x3 vcs2 buf2 escape-only",
        20309,
        40398305,
        4000,
        4514397971,
        0,
    ),
    (
        "torus-3x3 vcs2 buf2 adaptive",
        18824,
        36600588,
        3770,
        4215696717,
        0,
    ),
    (
        "torus-3x3 vcs4 buf1 escape-only",
        20345,
        75628151,
        4000,
        6828417248,
        0,
    ),
    (
        "torus-3x3 vcs4 buf1 adaptive",
        18873,
        72883517,
        3761,
        6638214036,
        0,
    ),
    (
        "torus-3x3 vcs4 buf2 escape-only",
        20317,
        38757091,
        4000,
        3484628016,
        0,
    ),
    (
        "torus-3x3 vcs4 buf2 adaptive",
        18803,
        35963825,
        3772,
        3435624555,
        0,
    ),
];

#[test]
fn wormhole_dispatch_order_matches_golden() {
    let rows = observed();
    let listing: String = rows
        .iter()
        .map(|r| {
            format!(
                "    (\"{}\", {}, {}, {}, {}, {}),\n",
                r.0, r.1, r.2, r.3, r.4, r.5
            )
        })
        .collect();
    let golden: Vec<Row> = GOLDEN
        .iter()
        .map(|&(l, a, b, c, d, e)| (l.to_string(), a, b, c, d, e))
        .collect();
    assert_eq!(rows, golden, "observed rows:\n{listing}");
}
