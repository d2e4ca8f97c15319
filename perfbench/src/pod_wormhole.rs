//! `pod-wormhole`: the E14 configuration (`crates/bench/src/exp_e14.rs`)
//! rebuilt through the public builders. A 256-host, 40-switch spine-leaf
//! pod on the wormhole switch with adaptive lanes, 8 shard domains, and
//! a closed loop of 24 x 1 KiB writes (window 4) per host.

use std::time::Instant;

use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_fabric::audit_topology;
use fcc_fabric::pods::{sharded_pod, PodKind, PodSpec};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_fabric::wormhole::VcConfig;
use fcc_sim::{ShardedEngine, SimTime};

use crate::common::{
    export_empty, fabrex_device, fabrex_spec, route_probe, run_sharded, timed, Instr, Sample,
};
use crate::timing::Timed;

const DOMAINS: usize = 8;
const CROSS_LATENCY_NS: f64 = 200.0;
const OP_BYTES: u32 = 1024;

pub fn run(seed: u64, quick: bool, workers: usize, instr: &Instr) -> Sample {
    let mut s = Sample::default();
    let (leaves_per_spine, hosts_per_edge, ops) = if quick { (1, 4, 8u64) } else { (4, 8, 24u64) };
    let t0 = Instant::now();
    let mut sharded = ShardedEngine::new(0xE14 ^ seed, DOMAINS);
    let mut topo = fabrex_spec(QueueDiscipline::Wormhole);
    topo.switch.adaptive = true;
    let spec = PodSpec {
        kind: PodKind::SpineLeaf {
            spines: DOMAINS,
            leaves_per_spine,
        },
        topo,
        vc: VcConfig::default(),
        hosts_per_edge,
        devices_per_edge: 1,
        cross_latency: SimTime::from_ns(CROSS_LATENCY_NS),
    };
    let specs = timed(&mut s.plan_s, || {
        spec.plan().domain_specs(|_, _| fabrex_device(instr))
    });
    let (plan, fabric) = timed(&mut s.instantiate_s, || {
        sharded_pod(&mut sharded, &spec, specs)
    });
    let t_install = Instant::now();
    let mut loads = Vec::new();
    for (gh, (d, host)) in fabric.all_hosts().enumerate() {
        let td = (d + 1 + gh % (DOMAINS - 1)) % DOMAINS;
        let dev = &fabric.domains[td].devices[gh % leaves_per_spine];
        let cfg = LoadCfg {
            fha: host.fha,
            base: dev.range.base,
            len: 1 << 20,
            op_bytes: OP_BYTES,
            write: true,
            window: 4,
            count: Some(ops),
            stop_at: SimTime::from_us(1_000_000.0),
            pattern: AddrPattern::Sequential,
        };
        let engine = sharded.engine_mut(d);
        let lg = engine.add_component(
            format!("load-h{gh}"),
            Timed::new(LoadGen::new(cfg), instr.clock(&instr.loadgen)),
        );
        engine.post(lg, SimTime::ZERO, StartLoad);
        loads.push((d, lg));
    }
    s.install_s = t_install.elapsed().as_secs_f64();
    s.setup_s = t0.elapsed().as_secs_f64();
    if instr.setup_only {
        return s;
    }

    let t1 = Instant::now();
    run_sharded(&mut sharded, workers, instr, &mut s);
    let (mut deadlocks, mut violations, mut findings) = (0u64, 0u64, 0u64);
    let mut makespan = SimTime::ZERO;
    for d in 0..DOMAINS {
        let engine = sharded.engine(d);
        if timed(&mut s.deadlock_scan_s, || engine.deadlock_report()).is_some() {
            deadlocks += 1;
        }
        for &sw in &fabric.domains[d].switches {
            violations += engine.component::<FabricSwitch>(sw).vc_violations();
        }
        findings += timed(&mut s.audit_s, || {
            audit_topology(engine, &fabric.domains[d])
        })
        .findings
        .len() as u64;
        makespan = makespan.max(engine.now());
    }
    let completed: u64 = loads
        .iter()
        .map(|&(d, lg)| {
            sharded
                .engine(d)
                .component::<Timed<LoadGen>>(lg)
                .inner
                .completed()
        })
        .sum();
    s.wall_s = t1.elapsed().as_secs_f64();
    export_empty(&mut s);

    s.ops_issued = loads.len() as u64 * ops;
    s.ops_completed = completed;
    s.routes = Some(route_probe(sharded.engine(0), &fabric));
    s.output("hosts", loads.len());
    s.output("switches", plan.switches.len());
    s.output("events", s.events);
    s.output("completed", completed);
    s.output("expected", s.ops_issued);
    s.output("makespan_ps", makespan.as_ps());
    s.output("deadlock_events", deadlocks);
    s.output("credit_violations", violations);
    s.output("audit_findings", findings);
    s
}
