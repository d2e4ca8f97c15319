//! E3x — E3e's credit-starvation pathology at rack scale: 64 tenants
//! across an eight-domain sharded fabric chain.
//!
//! Where E3e shows one hog starving one victim across a three-switch
//! chain, E3x composes the same mechanics at the scale the paper argues
//! fabrics must operate: eight single-switch domains joined by long-haul
//! cables ([`fcc_fabric::sharded::sharded_chain`]), eight tenants per
//! domain. Six victims per domain issue shallow 64 B writes to their
//! local device; one bulk writer per domain streams 4 KiB writes locally;
//! one hog per domain camps a *remote* device four chain hops away with a
//! deep window, so every inter-domain cable carries standing backlog in
//! both directions.
//!
//! The scenario always runs on the sharded executor
//! ([`fcc_sim::ShardedEngine`], one shard per domain); the `shards`
//! argument picks only the **worker-thread fan-out**, never the
//! decomposition, so results and telemetry exports are byte-identical for
//! any value. This is the workload `bench_gate shards` uses to prove the
//! conservative-lookahead executor's wall-clock win.
//!
//! The chain itself — build, scheduler install, tenant roles, scheduler
//! counters — is `Chain`, which E12 and E13 run over too.

use std::fmt;

use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_sched::{CreditPartition, FabricScheduler, TenantShare};
use fcc_sim::{jain_fairness, ComponentId, Histogram, ShardedEngine, SimTime};
use fcc_telemetry::tenant_metric;

use crate::capture::Capture;
use crate::exp_e3::{fabrex_device, fabrex_spec};
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

/// Switch domains in the chain (= shards of the executor).
pub const DOMAINS: usize = 8;
/// Tenants (load generators) per domain.
pub const TENANTS_PER_DOMAIN: usize = 8;
/// One-way latency of each inter-domain cable — and therefore the
/// executor's conservative lookahead.
pub const CROSS_LATENCY_NS: f64 = 200.0;

/// Victim tenants per domain: hosts `0..VICTIMS_PER_DOMAIN`; the next
/// host is the bulk streamer, the last the hog.
pub(crate) const VICTIMS_PER_DOMAIN: usize = 6;
/// The bulk tenant's per-op transfer size.
const BULK_BYTES: u32 = 4096;
/// The hog's window depth: enough to fill its FEA queue and camp the
/// inter-domain cable credits, as in E3e.
const HOG_WINDOW: usize = 48;
/// Admission window of every chain scheduler.
const SCHED_WINDOW_NS: f64 = 1000.0;

/// A chain tenant's role: its scheduler share, and its load in
/// `Chain::load`.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Role {
    /// Shallow 64 B writes to the local device.
    Victim,
    /// 4 KiB writes streamed to the local device.
    Bulk,
    /// Deep-window 64 B writes camping the device four chain hops away.
    Hog,
}

impl Role {
    /// Every role.
    pub(crate) const ALL: [Role; 3] = [Role::Victim, Role::Bulk, Role::Hog];

    /// The role of host `h` in its domain's tenant table.
    pub(crate) fn of(h: usize) -> Role {
        match h {
            h if h < VICTIMS_PER_DOMAIN => Role::Victim,
            VICTIMS_PER_DOMAIN => Role::Bulk,
            _ => Role::Hog,
        }
    }

    /// Victims hold a floor and most of the weight; hogs are confined
    /// to a small share once victims are active.
    fn share(self) -> TenantShare {
        let (group, weight, floor) = match self {
            Role::Victim => (0, 8, 2),
            Role::Bulk => (1, 2, 1),
            Role::Hog => (2, 1, 1),
        };
        TenantShare {
            group,
            weight,
            floor,
        }
    }
}

/// Where the interference pair writes: byte offsets into the bulk
/// streamer's local device and the hog's remote one. Victims write at
/// offset 0.
#[derive(Clone, Copy)]
pub(crate) struct Offsets {
    /// Offset of the bulk streamer's region.
    pub(crate) bulk: u64,
    /// Offset of the hog's region.
    pub(crate) hog: u64,
}

/// E3x and E12: bulk writes 16 MiB above the local victims; the hog
/// shares the remote victims' region.
pub(crate) const SHARED_REGIONS: Offsets = Offsets {
    bulk: 1 << 24,
    hog: 0,
};

/// The pod-wide credit partition over `pool` credits: every host of the
/// tenant table with its role's share, in domain order, each domain
/// followed by its own tenant when `domain_share` is given.
pub(crate) fn partition(pool: u32, domain_share: Option<TenantShare>) -> CreditPartition {
    let mut part = CreditPartition::new(pool);
    for d in 0..DOMAINS {
        for h in 0..TENANTS_PER_DOMAIN {
            part.add_tenant(host_tenant(d, h), Role::of(h).share());
        }
        if let Some(share) = domain_share {
            part.add_tenant(host_tenant(d, TENANTS_PER_DOMAIN), share);
        }
    }
    part
}

/// Tenant id of host `h` of domain `d`: its tenant-table slot, or for
/// hosts past the table the domain's own tenant (E13's store), numbered
/// after every slot.
fn host_tenant(d: usize, h: usize) -> u32 {
    if h < TENANTS_PER_DOMAIN {
        (d * TENANTS_PER_DOMAIN + h) as u32
    } else {
        (DOMAINS * TENANTS_PER_DOMAIN + d) as u32
    }
}

/// Unweighted mean (0 for no samples).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len().max(1) as f64
}

/// The chain's scheduler counters, summed in domain order.
pub(crate) struct SchedCounters {
    /// Flits admitted by schedulers (0 when ungoverned).
    pub(crate) admitted: u64,
    /// Admission probes deferred by schedulers.
    pub(crate) deferred: u64,
}

/// The eight-domain tenant chain E3x, E12 and E13 run over: one
/// single-switch domain per shard, joined by long-haul cables.
pub(crate) struct Chain {
    /// The executor, one shard per domain.
    pub(crate) sharded: ShardedEngine,
    /// The fabric over `sharded`.
    pub(crate) fabric: ShardedFabric,
    /// When load generators stop; throughput is measured over it.
    horizon: SimTime,
    /// Started load generators as (role, domain, tenant, component).
    loads: Vec<(Role, usize, u32, ComponentId)>,
}

impl Chain {
    /// Builds the chain on an executor seeded with `seed`: FabreX FIFO
    /// switches with fair allocation, 128 outstanding per FHA, `hosts`
    /// hosts and `devices` devices per domain.
    pub(crate) fn new(seed: u64, hosts: usize, devices: usize, horizon: SimTime) -> Chain {
        let mut sharded = ShardedEngine::new(seed, DOMAINS);
        let mut spec = fabrex_spec(QueueDiscipline::Fifo, AllocPolicy::Fair);
        spec.fha_outstanding = 128;
        let domains = (0..DOMAINS)
            .map(|_| DomainSpec {
                n_hosts: hosts,
                devices: (0..devices).map(|_| fabrex_device()).collect(),
            })
            .collect();
        let fabric = sharded_chain(
            &mut sharded,
            spec,
            domains,
            SimTime::from_ns(CROSS_LATENCY_NS),
        );
        Chain {
            sharded,
            fabric,
            horizon,
            loads: Vec::new(),
        }
    }

    /// Installs a scheduler over `part` at every domain switch, with only
    /// the domain's **own** hosts mapped. Admission is enforced at each
    /// tenant's attachment point, where a deferred flit waits in its own
    /// host-port FIFO and backpressures only its own adapter. Governing
    /// transit flits mid-fabric instead would HOL-block ungoverned
    /// traffic (completions, other tenants' transit) behind a deferred
    /// flit and pin link credits for up to a window — admission control
    /// composes with credit flow control only at the edge.
    pub(crate) fn govern(&mut self, part: &CreditPartition) {
        for (d, topo) in self.fabric.domains.iter().enumerate() {
            let mut sched = FabricScheduler::new(part.clone(), SimTime::from_ns(SCHED_WINDOW_NS));
            for (h, host) in topo.hosts.iter().enumerate() {
                sched.map_node(host.node, host_tenant(d, h));
            }
            let engine = self.sharded.engine_mut(d);
            for &sw in &topo.switches {
                engine
                    .component_mut::<FabricSwitch>(sw)
                    .install_scheduler(sched.clone());
            }
        }
    }

    /// Starts host `h` of domain `d` as its role's load generator, named
    /// `{name}d{d}h{h}`. A domain's remote device is the one four chain
    /// hops away.
    pub(crate) fn load(&mut self, d: usize, h: usize, name: &str, at: Offsets) {
        let role = Role::of(h);
        let device = |d: usize| self.fabric.domains[d].devices[0].range.base;
        let (base, op_bytes, window) = match role {
            Role::Victim => (device(d), 64, 4),
            Role::Bulk => (device(d) + at.bulk, BULK_BYTES, 8),
            Role::Hog => (device((d + DOMAINS / 2) % DOMAINS) + at.hog, 64, HOG_WINDOW),
        };
        let cfg = LoadCfg {
            fha: self.fabric.domains[d].hosts[h].fha,
            base,
            len: 1 << 20,
            op_bytes,
            write: true,
            window,
            count: None,
            stop_at: self.horizon,
            pattern: AddrPattern::Sequential,
        };
        let engine = self.sharded.engine_mut(d);
        let lg = engine.add_component(format!("{name}d{d}h{h}"), LoadGen::new(cfg));
        engine.post(lg, SimTime::ZERO, StartLoad);
        self.loads.push((role, d, host_tenant(d, h), lg));
    }

    /// Starts every tenant-table host whose role is in `roles`, in domain
    /// order.
    pub(crate) fn load_all(&mut self, roles: &[Role], name: &str, at: Offsets) {
        for d in 0..DOMAINS {
            for h in 0..TENANTS_PER_DOMAIN {
                if roles.contains(&Role::of(h)) {
                    self.load(d, h, name, at);
                }
            }
        }
    }

    /// Sums the schedulers' counters.
    pub(crate) fn harvest(&self) -> SchedCounters {
        let mut out = SchedCounters {
            admitted: 0,
            deferred: 0,
        };
        for (d, topo) in self.fabric.domains.iter().enumerate() {
            for &sw in &topo.switches {
                if let Some(sched) = self
                    .sharded
                    .engine(d)
                    .component::<FabricSwitch>(sw)
                    .scheduler()
                {
                    out.admitted += sched.admitted;
                    out.deferred += sched.deferred;
                }
            }
        }
        out
    }

    /// `role`'s started load generators as (tenant, generator).
    fn started(&self, role: Role) -> impl Iterator<Item = (u32, &LoadGen)> + '_ {
        self.loads
            .iter()
            .filter(move |l| l.0 == role)
            .map(|&(_, d, tenant, lg)| (tenant, self.sharded.engine(d).component::<LoadGen>(lg)))
    }

    /// Per-tenant throughput (ops/µs) of `role`, in start order.
    pub(crate) fn ops_us(&self, role: Role) -> Vec<f64> {
        self.started(role)
            .map(|(_, lg)| lg.completed() as f64 / self.horizon.as_us())
            .collect()
    }

    /// `role`'s merged latency. With `cap` enabled each tenant's
    /// histogram also lands in the metrics under `prefix`.
    pub(crate) fn latency(&self, role: Role, cap: &mut Capture, prefix: &str) -> Histogram {
        let mut merged = Histogram::new();
        for (tenant, lg) in self.started(role) {
            merged.merge(&lg.latency);
            if cap.is_enabled() {
                cap.metrics
                    .record_histogram(&tenant_metric(prefix, tenant, "latency_ps"), &lg.latency);
            }
        }
        merged
    }
}

/// E3x outcome.
pub struct E3xResult {
    /// Total tenant load generators.
    pub tenants: usize,
    /// Mean victim throughput (ops/µs) across all domains.
    pub victim_ops_us: f64,
    /// Jain fairness index over the individual victim throughputs.
    pub victim_fairness: f64,
    /// Mean bulk-writer throughput (ops/µs).
    pub bulk_ops_us: f64,
    /// Mean cross-domain hog throughput (ops/µs).
    pub hog_ops_us: f64,
    /// Events dispatched across all shard engines (deterministic).
    pub total_events: u64,
}

/// Runs E3x, feeding telemetry into `cap`, with `shards` worker threads.
pub fn run_x(quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> E3xResult {
    let horizon = if quick {
        SimTime::from_us(25.0)
    } else {
        SimTime::from_us(120.0)
    };
    let mut chain = Chain::new(0xE3C0 ^ seed, TENANTS_PER_DOMAIN, 1, horizon);
    cap.begin("e3x", chain.sharded.engines_mut(), &chain.fabric.domains);
    chain.load_all(&Role::ALL, "load-", SHARED_REGIONS);
    chain.sharded.run(shards);
    cap.end("e3x", chain.sharded.engines(), &chain.fabric.domains);
    let victims = chain.ops_us(Role::Victim);
    E3xResult {
        tenants: DOMAINS * TENANTS_PER_DOMAIN,
        victim_ops_us: mean(&victims),
        victim_fairness: jain_fairness(&victims),
        bulk_ops_us: mean(&chain.ops_us(Role::Bulk)),
        hog_ops_us: mean(&chain.ops_us(Role::Hog)),
        total_events: chain.sharded.total_events(),
    }
}

impl fmt::Display for E3xResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E3x — {} tenants across {DOMAINS} sharded switch domains",
            self.tenants
        )?;
        let rows = vec![
            vec![
                "victims (local 64 B)".to_string(),
                format!("{:.2}", self.victim_ops_us),
            ],
            vec![
                "bulk (local 4 KiB)".to_string(),
                format!("{:.2}", self.bulk_ops_us),
            ],
            vec![
                "hogs (cross-domain 64 B)".to_string(),
                format!("{:.2}", self.hog_ops_us),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["tenant class", "ops/us"], &rows)
        )?;
        writeln!(
            f,
            "victim fairness {:.3} (Jain), {} events — cross-domain hogs keep \
             every inter-domain cable loaded in both directions",
            self.victim_fairness, self.total_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scenario's scalar results and event count are identical for
    /// any worker fan-out (shards select threads, not decomposition).
    #[test]
    fn results_identical_across_worker_counts() {
        let base = run_x(true, &mut Capture::disabled(), 7, 1);
        for workers in [2, 4] {
            let r = run_x(true, &mut Capture::disabled(), 7, workers);
            assert_eq!(r.total_events, base.total_events, "workers={workers}");
            assert_eq!(r.victim_ops_us, base.victim_ops_us);
            assert_eq!(r.bulk_ops_us, base.bulk_ops_us);
            assert_eq!(r.hog_ops_us, base.hog_ops_us);
        }
    }

    #[test]
    fn every_tenant_class_makes_progress() {
        let r = run_x(true, &mut Capture::disabled(), 0, 1);
        assert_eq!(r.tenants, 64);
        assert!(r.victim_ops_us > 0.0, "victims starved completely");
        assert!(r.bulk_ops_us > 0.0, "bulk writers starved completely");
        assert!(r.hog_ops_us > 0.0, "hogs starved completely");
        assert!(r.victim_fairness > 0.5, "victim fairness collapsed");
    }
}
