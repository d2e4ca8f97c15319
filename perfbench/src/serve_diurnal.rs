//! `serve-diurnal`: the E13 configuration (`crates/bench/src/exp_e13.rs`)
//! rebuilt through the public builders. Eight FIFO single-switch domains
//! in a chain; per domain a KV store over the unified heap, six
//! open-loop Poisson x diurnal clients (Zipf 0.99 over 512 keys, 90%
//! GETs, 64 B-4 KiB values), and the bulk/hog interference pair. Three
//! modes run in sequence: commfabric base, FCC scheduler off, FCC on.

use std::time::Instant;

use fcc_bench::exp_e3x::{CROSS_LATENCY_NS, DOMAINS, TENANTS_PER_DOMAIN};
use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_core::{FaaEngine, FunctionTemplate, MigrationAgent, TransactionEngine};
use fcc_fabric::audit_topology;
use fcc_fabric::commfabric::{RdmaConfig, RdmaNic};
use fcc_fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_sched::{tenant_rates, CreditPartition, FabricScheduler, TenantShare};
use fcc_serve::{Backend, KvStore, KvStoreCfg, ServeClient, ServeClientCfg, StartClient};
use fcc_sim::{ComponentId, ShardedEngine, SimTime};
use fcc_telemetry::SloAccountant;
use fcc_workloads::{DiurnalModulator, ZipfStream};

use crate::common::{
    export_empty, fabrex_device, fabrex_spec, route_probe, run_sharded, timed, Instr, Sample,
};
use crate::timing::Timed;

const CLIENTS_PER_DOMAIN: usize = 6;
const KEYSPACE: u64 = 512;
const ZIPF_THETA: f64 = 0.99;
const READ_FRACTION: f64 = 0.9;
const RPC_NS: f64 = 120.0;
const SLO_TARGET_NS: f64 = 5000.0;
const TROUGH_RATE: f64 = 0.3;
const PEAK_RATE: f64 = 1.2;
const BULK_BYTES: u32 = 4096;
const HOG_WINDOW: usize = 48;
const SCHED_POOL: u32 = 1024;
const SCHED_WINDOW_NS: f64 = 1000.0;
const BUDGET_GBPS: f64 = 2048.0;
const BUDGET_FLIT_BYTES: u32 = 256;

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
const STORE_SHARE: TenantShare = TenantShare {
    group: 0,
    weight: 48,
    floor: 96,
};
const STORE_TENANT_BASE: u32 = (DOMAINS * TENANTS_PER_DOMAIN) as u32;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Base,
    Off,
    On,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Base => "base",
            Mode::Off => "off",
            Mode::On => "on",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Mode::Base => 0xBA5E,
            Mode::Off => 0x0FF0,
            Mode::On => 0x0A0A,
        }
    }

    fn is_fcc(self) -> bool {
        !matches!(self, Mode::Base)
    }
}

/// The 72-tenant pod partition: 64 client-side tenants plus one store
/// tenant per domain.
pub fn pod_partition() -> CreditPartition {
    let mut part = CreditPartition::new(SCHED_POOL);
    for d in 0..DOMAINS {
        for h in 0..TENANTS_PER_DOMAIN {
            let tenant = (d * TENANTS_PER_DOMAIN + h) as u32;
            let share = if h < CLIENTS_PER_DOMAIN {
                VICTIM_SHARE
            } else if h == CLIENTS_PER_DOMAIN {
                BULK_SHARE
            } else {
                HOG_SHARE
            };
            part.add_tenant(tenant, share);
        }
        part.add_tenant(STORE_TENANT_BASE + d as u32, STORE_SHARE);
    }
    part
}

fn scheduler_for(fabric: &ShardedFabric, d: usize) -> FabricScheduler {
    let mut sched = FabricScheduler::new(pod_partition(), SimTime::from_ns(SCHED_WINDOW_NS));
    for (h, host) in fabric.domains[d].hosts.iter().enumerate() {
        let tenant = if h < TENANTS_PER_DOMAIN {
            (d * TENANTS_PER_DOMAIN + h) as u32
        } else {
            STORE_TENANT_BASE + d as u32
        };
        sched.map_node(host.node, tenant);
    }
    sched
}

fn value_bytes(key: u64) -> u32 {
    match key % 10 {
        0..=5 => 64,
        6..=8 => 1024,
        _ => 4096,
    }
}

/// Per-mode results folded into the workload's outputs.
struct ModeRun {
    peak: SloAccountant,
    trough: SloAccountant,
    lost_objects: u64,
    violations: u64,
    deadlocks: u64,
    makespan: SimTime,
}

pub fn run(seed: u64, quick: bool, workers: usize, instr: &Instr) -> Sample {
    let mut s = Sample::default();
    let base = run_mode(Mode::Base, quick, seed, workers, instr, &mut s);
    let off = run_mode(Mode::Off, quick, seed, workers, instr, &mut s);
    let on = run_mode(Mode::On, quick, seed, workers, instr, &mut s);
    let (Some(base), Some(off), Some(on)) = (base, off, on) else {
        return s;
    };
    let t = Instant::now();
    let p = |a: &SloAccountant, q: f64| a.merged().quantile(q) as f64 / 1e3;
    s.output("events", s.events);
    s.output("requests", s.serve_requests);
    s.output("base_p99_peak_ns", p(&base.peak, 0.99));
    s.output("base_p99_trough_ns", p(&base.trough, 0.99));
    s.output("base_attain_peak", base.peak.overall_attainment());
    s.output("off_p99_peak_ns", p(&off.peak, 0.99));
    s.output("on_p99_peak_ns", p(&on.peak, 0.99));
    s.output("on_p99_trough_ns", p(&on.trough, 0.99));
    s.output("on_p999_peak_ns", p(&on.peak, 0.999));
    s.output("off_attain_peak", off.peak.overall_attainment());
    s.output("on_attain_peak", on.peak.overall_attainment());
    s.output("sched_admitted", s.admitted);
    s.output("sched_deferred", s.deferred);
    let modes = [&base, &off, &on];
    s.output(
        "makespan_ps",
        modes.iter().map(|m| m.makespan.as_ps()).max().unwrap_or(0),
    );
    s.output(
        "lost_objects",
        modes.iter().map(|m| m.lost_objects).sum::<u64>(),
    );
    s.output(
        "ledger_violations",
        modes.iter().map(|m| m.violations).sum::<u64>(),
    );
    s.output(
        "deadlock_events",
        modes.iter().map(|m| m.deadlocks).sum::<u64>(),
    );
    s.wall_s += t.elapsed().as_secs_f64();
    export_empty(&mut s);
    s
}

fn run_mode(
    mode: Mode,
    quick: bool,
    seed: u64,
    workers: usize,
    instr: &Instr,
    s: &mut Sample,
) -> Option<ModeRun> {
    let horizon = if quick {
        SimTime::from_us(30.0)
    } else {
        SimTime::from_us(120.0)
    };
    let t0 = Instant::now();
    let at = |f: f64| SimTime::from_ns(horizon.as_ns() * f);
    let curve = vec![
        (SimTime::ZERO, TROUGH_RATE),
        (at(0.25), TROUGH_RATE),
        (at(0.40), PEAK_RATE),
        (at(0.70), PEAK_RATE),
        (at(0.85), TROUGH_RATE),
    ];
    let (peak_window, trough_window) = ((at(0.40), at(0.70)), (SimTime::ZERO, at(0.25)));
    let slo_target = SimTime::from_ns(SLO_TARGET_NS);
    let mut sharded = ShardedEngine::new(0xE130 ^ seed ^ mode.salt(), DOMAINS);
    let mut spec = fabrex_spec(QueueDiscipline::Fifo);
    spec.fha_outstanding = 128;
    let domains: Vec<DomainSpec> = timed(&mut s.plan_s, || {
        (0..DOMAINS)
            .map(|_| DomainSpec {
                n_hosts: TENANTS_PER_DOMAIN + 2,
                devices: (0..4).map(|_| fabrex_device(instr)).collect(),
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
    let mut stores: Vec<ComponentId> = Vec::new();
    let mut clients: Vec<(usize, ComponentId)> = Vec::new();
    for d in 0..DOMAINS {
        let local_range = fabric.domains[d].devices[0].range;
        let data_bases: Vec<u64> = (0..2)
            .map(|i| fabric.domains[d].devices[i].range.base)
            .collect();
        let staging_bases: Vec<u64> = (2..4)
            .map(|i| fabric.domains[d].devices[i].range.base)
            .collect();
        let remote_range = fabric.domains[(d + DOMAINS / 2) % DOMAINS].devices[0].range;
        let (hit_ns, ver_ns, ctx_ns) = if mode.is_fcc() {
            (50.0, 80.0, 100.0)
        } else {
            (50.0, 2000.0, 1000.0)
        };
        let backend = if mode.is_fcc() {
            let agents: Vec<ComponentId> = (0..48)
                .map(|a| {
                    let fha = fabric.domains[d].hosts[TENANTS_PER_DOMAIN + a % 2].fha;
                    sharded.engine_mut(d).add_component(
                        format!("mig-{}-d{d}a{a}", mode.label()),
                        MigrationAgent::new(fha, 4096, 8),
                    )
                })
                .collect();
            let mut te = TransactionEngine::new(agents);
            if mode == Mode::On {
                te.source_budgets(&tenant_rates(
                    &pod_partition(),
                    BUDGET_GBPS,
                    BUDGET_FLIT_BYTES,
                ));
            }
            let etrans = sharded
                .engine_mut(d)
                .add_component(format!("etrans-{}-d{d}", mode.label()), te);
            Backend::Fabric { etrans }
        } else {
            let nic = sharded.engine_mut(d).add_component(
                format!("nic-{}-d{d}", mode.label()),
                RdmaNic::new(RdmaConfig::kernel_bypass()),
            );
            Backend::Rdma { nic }
        };
        let faa = sharded.engine_mut(d).add_component(
            format!("faa-{}-d{d}", mode.label()),
            FaaEngine::new(
                vec![
                    FunctionTemplate::uniform(0, SimTime::from_ns(hit_ns), 0.0, 1 << 16),
                    FunctionTemplate::uniform(1, SimTime::from_ns(ver_ns), 0.0, 1 << 16),
                ],
                SimTime::from_ns(ctx_ns),
                8,
            ),
        );
        let mut store = KvStore::new(KvStoreCfg {
            backend,
            faa,
            hit_fn: 0,
            version_fn: 1,
            data_bases,
            staging_bases,
            capacity: 1 << 26,
            rpc_latency: SimTime::from_ns(RPC_NS),
            host: 0,
        });
        for key in 0..KEYSPACE {
            store.preload(key, value_bytes(key)).expect("keyspace fits");
        }
        let store_id = sharded
            .engine_mut(d)
            .add_component(format!("kv-{}-d{d}", mode.label()), store);
        stores.push(store_id);
        for h in 0..CLIENTS_PER_DOMAIN {
            let tenant = (d * TENANTS_PER_DOMAIN + h) as u32;
            let client = ServeClient::new(ServeClientCfg {
                store: store_id,
                tenant,
                arrivals: DiurnalModulator::new(curve.clone(), SimTime::ZERO),
                keys: ZipfStream::new(KEYSPACE, ZIPF_THETA),
                read_fraction: READ_FRACTION,
                value_sizes: vec![(64, 0.6), (1024, 0.3), (4096, 0.1)],
                rpc_latency: SimTime::from_ns(RPC_NS),
                stop_at: horizon,
                slo_target,
                peak: peak_window,
                trough: trough_window,
                seed: 0xC11E ^ (seed << 8) ^ u64::from(tenant),
            });
            let engine = sharded.engine_mut(d);
            let cid = engine.add_component(
                format!("client-{}-d{d}h{h}", mode.label()),
                Timed::new(client, instr.clock(&instr.loadgen)),
            );
            engine.post(cid, SimTime::ZERO, StartClient);
            clients.push((d, cid));
        }
        if mode.is_fcc() {
            for h in [CLIENTS_PER_DOMAIN, CLIENTS_PER_DOMAIN + 1] {
                let fha = fabric.domains[d].hosts[h].fha;
                let (base, op_bytes, window) = if h == CLIENTS_PER_DOMAIN {
                    (local_range.base + (1 << 27), BULK_BYTES, 8)
                } else {
                    (remote_range.base + (1 << 27), 64, HOG_WINDOW)
                };
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
        peak: SloAccountant::new(slo_target),
        trough: SloAccountant::new(slo_target),
        lost_objects: 0,
        violations: 0,
        deadlocks: 0,
        makespan: SimTime::ZERO,
    };
    for d in 0..DOMAINS {
        let engine = sharded.engine(d);
        for &sw in &fabric.domains[d].switches {
            let sw = engine.component::<FabricSwitch>(sw);
            if let Some(sched) = sw.scheduler() {
                s.admitted += sched.admitted;
                s.deferred += sched.deferred;
            }
        }
        // `audit_topology` sweeps every switch's ledgers, the per-tenant
        // scheduler ledgers included.
        run.violations += timed(&mut s.audit_s, || {
            audit_topology(engine, &fabric.domains[d])
        })
        .findings
        .len() as u64;
        if timed(&mut s.deadlock_scan_s, || engine.deadlock_report()).is_some() {
            run.deadlocks += 1;
        }
        run.makespan = run.makespan.max(engine.now());
    }
    for (d, &store_id) in stores.iter().enumerate() {
        let st = sharded.engine(d).component::<KvStore>(store_id);
        run.lost_objects +=
            st.lost_updates.get() + st.alloc_failures.get() + st.integrity_violations();
    }
    for &(d, cid) in &clients {
        let c = &sharded.engine(d).component::<Timed<ServeClient>>(cid).inner;
        run.peak.merge(c.peak_slo());
        run.trough.merge(c.trough_slo());
        s.ops_issued += c.issued.get();
        s.serve_requests += c.completed.get();
        // A reply with `ok = false` is a failed operation too.
        s.ops_completed += c.completed.get() - c.failed.get();
    }
    s.wall_s += t1.elapsed().as_secs_f64();
    if s.routes.is_none() {
        s.routes = Some(route_probe(sharded.engine(0), &fabric));
    }
    Some(run)
}
