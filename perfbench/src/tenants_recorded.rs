//! `tenants-recorded`: the E12 configuration (`crates/bench/src/exp_e12.rs`)
//! rebuilt through the public builders, with telemetry recording on. 64
//! tenants (six shallow 64 B victims, one bulk streamer, one deep-window
//! hog per domain) over the 8-domain FIFO chain in modes idle/off/on;
//! after the three runs the Chrome trace and the metrics JSON are
//! rendered in memory and digested.

use std::time::Instant;

use fcc_bench::exp_e3x::{CROSS_LATENCY_NS, DOMAINS, TENANTS_PER_DOMAIN};
use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_fabric::adapter::Fha;
use fcc_fabric::audit_topology;
use fcc_fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_sched::{CreditPartition, FabricScheduler, TenantShare};
use fcc_sim::{ComponentId, Histogram, ShardedEngine, SimTime};
use fcc_telemetry::{record_deadlock, tenant_metric, MetricsRegistry, TraceSink};

use crate::common::{fabrex_device, fabrex_spec, route_probe, run_sharded, timed, Instr, Sample};
use crate::timing::Timed;

const VICTIMS_PER_DOMAIN: usize = 6;
const BULK_BYTES: u32 = 4096;
const HOG_WINDOW: usize = 48;
const SCHED_POOL: u32 = 320;
const SCHED_WINDOW_NS: f64 = 1000.0;

const VICTIM_SHARE: TenantShare = TenantShare {
    group: 0,
    weight: 8,
    floor: 2,
};
const BULK_SHARE: TenantShare = TenantShare {
    group: 1,
    weight: 2,
    floor: 1,
};
const HOG_SHARE: TenantShare = TenantShare {
    group: 2,
    weight: 1,
    floor: 1,
};

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Idle,
    Off,
    On,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Off => "off",
            Mode::On => "on",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Mode::Idle => 0x1D1E,
            Mode::Off => 0x0FF0,
            Mode::On => 0x0A0A,
        }
    }
}

/// The scenario's telemetry: one trace sink and one registry shared by
/// the three modes, as the experiments harness records them.
struct Recording {
    sink: TraceSink,
    metrics: MetricsRegistry,
}

struct ModeRun {
    victim_latency: Histogram,
    hog_ops_us: f64,
    findings: u64,
    deadlocks: u64,
    makespan: SimTime,
}

fn scheduler_for(fabric: &ShardedFabric, d: usize) -> FabricScheduler {
    let mut part = CreditPartition::new(SCHED_POOL);
    for dd in 0..DOMAINS {
        for h in 0..TENANTS_PER_DOMAIN {
            let tenant = (dd * TENANTS_PER_DOMAIN + h) as u32;
            let share = if h < VICTIMS_PER_DOMAIN {
                VICTIM_SHARE
            } else if h == VICTIMS_PER_DOMAIN {
                BULK_SHARE
            } else {
                HOG_SHARE
            };
            part.add_tenant(tenant, share);
        }
    }
    let mut sched = FabricScheduler::new(part, SimTime::from_ns(SCHED_WINDOW_NS));
    for (h, host) in fabric.domains[d].hosts.iter().enumerate() {
        sched.map_node(host.node, (d * TENANTS_PER_DOMAIN + h) as u32);
    }
    sched
}

pub fn run(seed: u64, quick: bool, workers: usize, instr: &Instr) -> Sample {
    let mut s = Sample::default();
    let mut rec = Recording {
        sink: TraceSink::recording(),
        metrics: MetricsRegistry::new(),
    };
    let idle = run_mode(Mode::Idle, quick, seed, workers, instr, &mut rec, &mut s);
    let off = run_mode(Mode::Off, quick, seed, workers, instr, &mut rec, &mut s);
    let on = run_mode(Mode::On, quick, seed, workers, instr, &mut rec, &mut s);
    let (Some(idle), Some(off), Some(on)) = (idle, off, on) else {
        return s;
    };
    let t = Instant::now();
    let (trace, metrics) = timed(&mut s.export_s, || {
        (rec.sink.to_chrome_json(), rec.metrics.to_json())
    });
    s.trace_bytes = trace.len() as u64;
    let (s_idle, s_off, s_on) = (
        idle.victim_latency.summary_ns(),
        off.victim_latency.summary_ns(),
        on.victim_latency.summary_ns(),
    );
    s.output("tenants", DOMAINS * TENANTS_PER_DOMAIN);
    s.output("events", s.events);
    s.output("completed", s.ops_completed);
    s.output("victim_p99_idle_ns", s_idle.p99);
    s.output("victim_p99_off_ns", s_off.p99);
    s.output("victim_p99_on_ns", s_on.p99);
    s.output("victim_p999_on_ns", s_on.p999);
    s.output("hog_ops_us_off", off.hog_ops_us);
    s.output("hog_ops_us_on", on.hog_ops_us);
    s.output("sched_admitted", s.admitted);
    s.output("sched_deferred", s.deferred);
    let modes = [&idle, &off, &on];
    s.output(
        "makespan_ps",
        modes.iter().map(|m| m.makespan.as_ps()).max().unwrap_or(0),
    );
    s.output(
        "ledger_violations",
        modes.iter().map(|m| m.findings).sum::<u64>(),
    );
    s.output(
        "deadlock_events",
        modes.iter().map(|m| m.deadlocks).sum::<u64>(),
    );
    s.wall_s += t.elapsed().as_secs_f64();
    // Digesting the exports is the benchmark's check, not the program's
    // work, so it runs after the clock stops.
    let digest = fnv1a(fnv1a(FNV_OFFSET, trace.as_bytes()), metrics.as_bytes());
    s.output("export_digest", format!("{digest:016x}"));
    s
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn run_mode(
    mode: Mode,
    quick: bool,
    seed: u64,
    workers: usize,
    instr: &Instr,
    rec: &mut Recording,
    s: &mut Sample,
) -> Option<ModeRun> {
    let horizon = if quick {
        SimTime::from_us(25.0)
    } else {
        SimTime::from_us(120.0)
    };
    let t0 = Instant::now();
    let mut sharded = ShardedEngine::new(0xE120 ^ seed ^ mode.salt(), DOMAINS);
    let mut spec = fabrex_spec(QueueDiscipline::Fifo);
    spec.fha_outstanding = 128;
    let domains: Vec<DomainSpec> = timed(&mut s.plan_s, || {
        (0..DOMAINS)
            .map(|_| DomainSpec {
                n_hosts: TENANTS_PER_DOMAIN,
                devices: vec![fabrex_device(instr)],
            })
            .collect()
    });
    let fabric: ShardedFabric = timed(&mut s.instantiate_s, || {
        sharded_chain(
            &mut sharded,
            spec,
            domains,
            SimTime::from_ns(CROSS_LATENCY_NS),
        )
    });
    let t_install = Instant::now();
    if mode == Mode::On {
        for (d, topo) in fabric.domains.iter().enumerate() {
            let sched = scheduler_for(&fabric, d);
            let engine = sharded.engine_mut(d);
            for &sw in &topo.switches {
                engine
                    .component_mut::<FabricSwitch>(sw)
                    .install_scheduler(sched.clone());
            }
        }
    }
    let mut sinks: Vec<TraceSink> = Vec::new();
    for (d, topo) in fabric.domains.iter().enumerate() {
        let sink = TraceSink::recording();
        sink.begin_process(&format!("e12-{}-d{d}", mode.label()));
        topo.enable_tracing(sharded.engine_mut(d), &sink);
        sinks.push(sink);
    }
    let mut victims: Vec<(usize, usize, ComponentId)> = Vec::new();
    let mut hogs: Vec<(usize, ComponentId)> = Vec::new();
    let mut loads: Vec<(usize, ComponentId, ComponentId)> = Vec::new();
    for d in 0..DOMAINS {
        let local_range = fabric.domains[d].devices[0].range;
        let remote_range = fabric.domains[(d + DOMAINS / 2) % DOMAINS].devices[0].range;
        for h in 0..TENANTS_PER_DOMAIN {
            let fha = fabric.domains[d].hosts[h].fha;
            let (base, op_bytes, window, class) = if h < VICTIMS_PER_DOMAIN {
                (local_range.base, 64, 4, 0u8)
            } else if h == VICTIMS_PER_DOMAIN {
                (local_range.base + (1 << 24), BULK_BYTES, 8, 1)
            } else {
                (remote_range.base, 64, HOG_WINDOW, 2)
            };
            if mode == Mode::Idle && class != 0 {
                continue;
            }
            let cfg = LoadCfg {
                fha,
                base,
                len: 1 << 20,
                op_bytes,
                write: true,
                window,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            };
            let engine = sharded.engine_mut(d);
            let lg = engine.add_component(
                format!("load-{}-d{d}h{h}", mode.label()),
                Timed::new(LoadGen::new(cfg), instr.clock(&instr.loadgen)),
            );
            engine.post(lg, SimTime::ZERO, StartLoad);
            loads.push((d, lg, fha));
            match class {
                0 => victims.push((d, d * TENANTS_PER_DOMAIN + h, lg)),
                1 => {}
                _ => hogs.push((d, lg)),
            }
        }
    }
    s.install_s += t_install.elapsed().as_secs_f64();
    s.setup_s += t0.elapsed().as_secs_f64();
    if instr.setup_only {
        return None;
    }

    let t1 = Instant::now();
    run_sharded(&mut sharded, workers, instr, s);
    let mut run = ModeRun {
        victim_latency: Histogram::new(),
        hog_ops_us: 0.0,
        findings: 0,
        deadlocks: 0,
        makespan: SimTime::ZERO,
    };
    for d in 0..DOMAINS {
        let engine = sharded.engine(d);
        for &sw in &fabric.domains[d].switches {
            if let Some(sched) = engine.component::<FabricSwitch>(sw).scheduler() {
                s.admitted += sched.admitted;
                s.deferred += sched.deferred;
            }
        }
        run.findings += timed(&mut s.audit_s, || {
            audit_topology(engine, &fabric.domains[d])
        })
        .findings
        .len() as u64;
        run.makespan = run.makespan.max(engine.now());
    }
    for (d, sink) in sinks.into_iter().enumerate() {
        if let Some(dump) = sink.into_dump() {
            rec.sink.absorb(dump);
        }
        let engine = sharded.engine(d);
        fabric.domains[d].collect_metrics(
            engine,
            &mut rec.metrics,
            &format!("e12-{}-d{d}.", mode.label()),
        );
        if let Some(report) = timed(&mut s.deadlock_scan_s, || engine.deadlock_report()) {
            run.deadlocks += 1;
            record_deadlock(&rec.sink, &mut rec.metrics, &report, engine.now());
        }
    }
    let load = |d: usize, lg: ComponentId| &sharded.engine(d).component::<Timed<LoadGen>>(lg).inner;
    for &(d, tenant, lg) in &victims {
        let h = &load(d, lg).latency;
        run.victim_latency.merge(h);
        rec.metrics.record_histogram(
            &tenant_metric(
                &format!("e12-{}.", mode.label()),
                tenant as u32,
                "latency_ps",
            ),
            h,
        );
    }
    if !hogs.is_empty() {
        run.hog_ops_us = hogs
            .iter()
            .map(|&(d, lg)| load(d, lg).completed() as f64 / horizon.as_us())
            .sum::<f64>()
            / hogs.len() as f64;
    }
    // Open loops: an op is issued once it left its generator, so the
    // issued count is the completions plus whatever the host adapters
    // still hold.
    for &(d, lg, fha) in &loads {
        let completed = load(d, lg).completed();
        let fha = sharded.engine(d).component::<Fha>(fha);
        s.ops_completed += completed;
        s.ops_issued += completed + (fha.in_flight() + fha.queued()) as u64;
    }
    s.wall_s += t1.elapsed().as_secs_f64();
    if s.routes.is_none() {
        s.routes = Some(route_probe(sharded.engine(0), &fabric));
    }
    Some(run)
}
