//! E13 — pod-scale far-memory serving with per-tenant SLO accounting
//! ([`fcc_serve`]).
//!
//! The topology is E3x's 8-domain sharded chain (`exp_e3x`'s `Chain`).
//! Each domain hosts one [`KvStore`] whose values live on the domain's
//! fabric-attached device, six open-loop serving clients (tenants, Zipf
//! keys, 90/10 read/write mix, value sizes 64 B–4 KiB) driven by a
//! shared **diurnal** rate curve — a trough, a ramp, a peak plateau, a
//! ramp back — plus the E12 interference pair: a local bulk streamer and
//! a deep-window hog camping a device four chain hops away. Three runs:
//!
//! 1. **base** — the commfabric baseline: requests move through an
//!    RDMA-style NIC (submission/completion pipeline) and bookkeeping
//!    runs on a communication-fabric-grade FAA (µs-class context
//!    switches, §3 D#4). Hogs and bulk stay silent: this is the rival
//!    *data path* at its best.
//! 2. **off** — the FCC path, ungoverned: GETs ride the paper's
//!    immediate eTrans bit, PUTs join an FAA version bump, hogs rampage.
//! 3. **on** — same with a [`fcc_sched::FabricScheduler`] at every
//!    switch *and* the same credit partition sourced into the
//!    transaction engine's per-tenant budgets: fabric admission and
//!    host-side pacing from one policy surface.
//!
//! SLO accounting splits by the request's *issue* time into peak and
//! trough windows; the headline family is per-tenant p99/p999 and
//! exact SLO attainment at peak: the baseline's bookkeeping backlog
//! blows the tail at peak load where FCC holds it, and scheduler-on
//! recovers the victim tail scheduler-off gives away to the hogs.
//!
//! Like E3x/E12, the scenario always runs on the sharded executor;
//! `shards` selects only worker fan-out — results and telemetry exports
//! are byte-identical for any value.

use std::fmt;

use fcc_core::{FaaEngine, FunctionTemplate, MigrationAgent, TransactionEngine};
use fcc_fabric::commfabric::{RdmaConfig, RdmaNic};
use fcc_sched::{tenant_rates, TenantShare};
use fcc_serve::{Backend, KvStore, KvStoreCfg, ServeClient, ServeClientCfg, StartClient};
use fcc_sim::{ComponentId, SimTime};
use fcc_telemetry::SloAccountant;
use fcc_workloads::{DiurnalModulator, ZipfStream};

use crate::capture::Capture;
use crate::exp_e3x::{partition, Chain, Offsets, DOMAINS, TENANTS_PER_DOMAIN, VICTIMS_PER_DOMAIN};

/// Serving clients per domain: they take the victim hosts.
const CLIENTS_PER_DOMAIN: usize = VICTIMS_PER_DOMAIN;
/// Keys per domain store.
const KEYSPACE: u64 = 512;
/// Zipf skew of key popularity.
const ZIPF_THETA: f64 = 0.99;
/// Fraction of requests that are GETs.
const READ_FRACTION: f64 = 0.9;
/// One-way client↔store RPC hop.
const RPC_NS: f64 = 120.0;
/// Per-tenant SLO target on request latency.
const SLO_TARGET_NS: f64 = 5000.0;
/// Open-loop arrival rate in the trough (requests/µs per client).
const TROUGH_RATE: f64 = 0.3;
/// Open-loop arrival rate on the peak plateau.
const PEAK_RATE: f64 = 1.2;
/// Scheduler credit pool per admission window at each switch. Sized so
/// the serving store's floor covers its peak demand (~43 flits/µs
/// average, ~2x in an arrival cluster): admission must shape the
/// *interference*, not the data path it protects.
const SCHED_POOL: u32 = 1024;
/// Wire rate the per-tenant eTrans budgets divide. This is the pod's
/// aggregate serving bandwidth (several 512 Gbit/s links), so a
/// tenant's budget paces sustained write streams without stretching a
/// single burst of 4 KiB PUTs past the SLO.
const BUDGET_GBPS: f64 = 2048.0;
/// Flit size used to convert credit allocations into burst bytes.
const BUDGET_FLIT_BYTES: u32 = 256;

/// The serving data path holds the lion's share: at peak one domain's
/// store sources ~43 flits/µs into its switch (two FHA rounds per
/// request, ~3 flits per value), twice that in an arrival cluster. The
/// floor covers the cluster case, so serving flits are never gated
/// behind the window even when every tenant demands.
const STORE_SHARE: TenantShare = TenantShare {
    group: 0,
    weight: 48,
    floor: 96,
};
/// The interference pair writes from 128 MiB into its devices, clear
/// of the stores' heaps.
const PAIR_REGIONS: Offsets = Offsets {
    bulk: 1 << 27,
    hog: 1 << 27,
};

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

/// Outcome of one mode's run.
struct ModeRun {
    /// Merged per-tenant SLO accounting, requests issued at peak.
    peak: SloAccountant,
    /// Merged per-tenant SLO accounting, requests issued in the trough.
    trough: SloAccountant,
    /// Store-side anomalies: lost version bumps + failed allocations +
    /// index handles that no longer resolve.
    lost_objects: u64,
    /// Requests completed by clients.
    completed: u64,
    /// Per-tenant ledger audit findings across all governed switches.
    violations: u64,
    /// Events dispatched.
    events: u64,
}

/// E13 outcome.
pub struct E13Result {
    /// Serving tenants (clients) across the pod.
    pub tenants: usize,
    /// Requests completed across all three runs.
    pub requests: u64,
    /// Commfabric baseline: peak-window p99 (ns).
    pub base_p99_peak_ns: f64,
    /// Commfabric baseline: trough-window p99 (ns).
    pub base_p99_trough_ns: f64,
    /// Commfabric baseline: exact SLO attainment at peak.
    pub base_attain_peak: f64,
    /// FCC ungoverned: peak-window p99 (ns).
    pub off_p99_peak_ns: f64,
    /// FCC governed: peak-window p99 (ns).
    pub on_p99_peak_ns: f64,
    /// FCC governed: trough-window p99 (ns).
    pub on_p99_trough_ns: f64,
    /// FCC governed: peak-window p999 (ns).
    pub on_p999_peak_ns: f64,
    /// FCC ungoverned: exact SLO attainment at peak.
    pub off_attain_peak: f64,
    /// FCC governed: exact SLO attainment at peak.
    pub on_attain_peak: f64,
    /// Store-side anomalies across every mode (acceptance: zero).
    pub lost_objects: u64,
    /// Ledger audit findings across every governed switch (acceptance:
    /// zero).
    pub ledger_violations: u64,
    /// Events dispatched across all three runs (deterministic).
    pub total_events: u64,
}

impl E13Result {
    /// Baseline p99 over governed-FCC p99 at peak (>1: FCC wins).
    pub fn fcc_speedup_p99(&self) -> f64 {
        self.base_p99_peak_ns / self.on_p99_peak_ns.max(1e-9)
    }

    /// Ungoverned over governed p99 at peak (>1: the scheduler recovers
    /// tail the hogs were eating).
    pub fn sched_recovery_p99(&self) -> f64 {
        self.off_p99_peak_ns / self.on_p99_peak_ns.max(1e-9)
    }

    /// The SLO acceptance bound: governed FCC meets the target for at
    /// least 95% of peak requests (the residual misses are the open
    /// loop's own arrival clusters — they persist with interference
    /// and budgets off), beats the baseline's attainment, and the
    /// scheduler does not lose tail to the hogs.
    pub fn slo_bounded(&self) -> bool {
        self.on_attain_peak >= 0.95
            && self.on_attain_peak >= self.base_attain_peak
            && self.on_p99_peak_ns <= self.off_p99_peak_ns * 1.05
    }
}

/// Runs E13, feeding telemetry into `cap`, with `shards` worker threads.
pub fn run_e13(quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> E13Result {
    let base = run_mode(Mode::Base, quick, cap, seed, shards);
    let off = run_mode(Mode::Off, quick, cap, seed, shards);
    let on = run_mode(Mode::On, quick, cap, seed, shards);
    let p = |a: &SloAccountant, q: f64| a.merged().quantile(q) as f64 / 1e3;
    E13Result {
        tenants: DOMAINS * CLIENTS_PER_DOMAIN,
        requests: base.completed + off.completed + on.completed,
        base_p99_peak_ns: p(&base.peak, 0.99),
        base_p99_trough_ns: p(&base.trough, 0.99),
        base_attain_peak: base.peak.overall_attainment(),
        off_p99_peak_ns: p(&off.peak, 0.99),
        on_p99_peak_ns: p(&on.peak, 0.99),
        on_p99_trough_ns: p(&on.trough, 0.99),
        on_p999_peak_ns: p(&on.peak, 0.999),
        off_attain_peak: off.peak.overall_attainment(),
        on_attain_peak: on.peak.overall_attainment(),
        lost_objects: base.lost_objects + off.lost_objects + on.lost_objects,
        ledger_violations: base.violations + off.violations + on.violations,
        total_events: base.events + off.events + on.events,
    }
}

/// Preloaded value size for a key: 60% 64 B, 30% 1 KiB, 10% 4 KiB.
fn value_bytes(key: u64) -> u32 {
    match key % 10 {
        0..=5 => 64,
        6..=8 => 1024,
        _ => 4096,
    }
}

/// The diurnal rate curve over `horizon`, and the two SLO measurement
/// windows: trough until 25%, ramp to the peak plateau over [40%, 70%),
/// ramp back down by 85%. Only the flat segments are measured — the
/// ramps (and the post-peak tail, which drains whatever backlog the
/// peak built) are served but unaccounted, so the trough numbers are
/// not charged for the peak's congestion.
type DiurnalPlan = (Vec<(SimTime, f64)>, (SimTime, SimTime), (SimTime, SimTime));

fn diurnal(horizon: SimTime) -> DiurnalPlan {
    let at = |f: f64| SimTime::from_ns(horizon.as_ns() * f);
    let curve = vec![
        (SimTime::ZERO, TROUGH_RATE),
        (at(0.25), TROUGH_RATE),
        (at(0.40), PEAK_RATE),
        (at(0.70), PEAK_RATE),
        (at(0.85), TROUGH_RATE),
    ];
    (curve, (at(0.40), at(0.70)), (SimTime::ZERO, at(0.25)))
}

#[allow(clippy::too_many_lines)]
fn run_mode(mode: Mode, quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> ModeRun {
    let horizon = if quick {
        SimTime::from_us(30.0)
    } else {
        SimTime::from_us(120.0)
    };
    let (curve, peak_window, trough_window) = diurnal(horizon);
    let slo_target = SimTime::from_ns(SLO_TARGET_NS);
    // Hosts 0..TENANTS_PER_DOMAIN face tenants; the last two carry the
    // store's migration agents. Four devices per domain: values stripe
    // across devices 0-1 (keys pin round-robin), staging slots across
    // devices 2-3, so a peak arrival cluster (~2x the plateau rate)
    // stays under every controller's occupancy instead of convoying on
    // one.
    let mut chain = Chain::new(
        0xE130 ^ seed ^ mode.salt(),
        TENANTS_PER_DOMAIN + 2,
        4,
        horizon,
    );
    // The pod-wide partition: each domain's store holds a floored
    // majority share (its flits carry every client's requests), the
    // serving clients hold victim shares (they emit no switch flits — the
    // shares exist so `tenant_rates` derives their PUT budgets from the
    // same policy), the bulk streamer a small share, the hog a minimum.
    let part = partition(SCHED_POOL, Some(STORE_SHARE));
    if mode == Mode::On {
        // The migration-agent hosts map to the store's tenant: the
        // partition is work-conserving, so leaving the serving data path
        // unmapped would let bulk and hog traffic absorb the store's
        // unused share and starve it anyway.
        chain.govern(&part);
    }
    let label = format!("e13-{}", mode.label());
    cap.begin(&label, chain.sharded.engines_mut(), &chain.fabric.domains);
    // Per-domain serving stacks + the interference pair.
    let mut stores: Vec<ComponentId> = Vec::new();
    let mut clients: Vec<(usize, ComponentId)> = Vec::new();
    for d in 0..DOMAINS {
        let data_bases: Vec<u64> = (0..2)
            .map(|i| chain.fabric.domains[d].devices[i].range.base)
            .collect();
        let staging_bases: Vec<u64> = (2..4)
            .map(|i| chain.fabric.domains[d].devices[i].range.base)
            .collect();
        // Bookkeeping: fabric-grade active messages on the FCC path
        // (shared-memory function launch, ~100 ns context switch). On
        // the baseline the same version bump is an RPC round through the
        // communication fabric — ~2 µs of marshalling and kernel
        // transitions per bump, µs-grade context switches (§3 D#4). The
        // diurnal curve makes that the story: the baseline's bookkeeping
        // absorbs the trough but saturates at the peak arrival rate.
        let (hit_ns, ver_ns, ctx_ns) = if mode.is_fcc() {
            (50.0, 80.0, 100.0)
        } else {
            (50.0, 2000.0, 1000.0)
        };
        let backend = if mode.is_fcc() {
            // A migration agent pipelines chunks within ONE job at a
            // time, so for single-chunk serving ops the agent count is
            // the data path's job concurrency. Each op is two sequential
            // FHA rounds (~3 µs), so peak arrival (7.2 req/µs) keeps
            // ~22 jobs in flight — 48 agents (24 per FHA host,
            // fha_outstanding = 128) model a 48-deep job table running
            // at ~45% peak utilization, deep enough that an arrival
            // cluster does not convoy the queue.
            let agents: Vec<ComponentId> = (0..48)
                .map(|a| {
                    let fha = chain.fabric.domains[d].hosts[TENANTS_PER_DOMAIN + a % 2].fha;
                    chain.sharded.engine_mut(d).add_component(
                        format!("mig-{}-d{d}a{a}", mode.label()),
                        MigrationAgent::new(fha, 4096, 8),
                    )
                })
                .collect();
            let mut te = TransactionEngine::new(agents);
            if mode == Mode::On {
                // Same partition as the switches: one policy surface
                // for fabric admission and host-side pacing.
                te.source_budgets(&tenant_rates(&part, BUDGET_GBPS, BUDGET_FLIT_BYTES));
            }
            let etrans = chain
                .sharded
                .engine_mut(d)
                .add_component(format!("etrans-{}-d{d}", mode.label()), te);
            Backend::Fabric { etrans }
        } else {
            let nic = chain.sharded.engine_mut(d).add_component(
                format!("nic-{}-d{d}", mode.label()),
                RdmaNic::new(RdmaConfig::kernel_bypass()),
            );
            Backend::Rdma { nic }
        };
        let faa = chain.sharded.engine_mut(d).add_component(
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
            data_bases: data_bases.clone(),
            staging_bases: staging_bases.clone(),
            capacity: 1 << 26,
            rpc_latency: SimTime::from_ns(RPC_NS),
            host: 0,
        });
        for key in 0..KEYSPACE {
            // The device holds 64 MiB of heap over 512 small keys; the
            // preload cannot fail.
            #[allow(clippy::expect_used)]
            store.preload(key, value_bytes(key)).expect("keyspace fits");
        }
        let store_id = chain
            .sharded
            .engine_mut(d)
            .add_component(format!("kv-{}-d{d}", mode.label()), store);
        stores.push(store_id);
        for h in 0..CLIENTS_PER_DOMAIN {
            let tenant = (d * TENANTS_PER_DOMAIN + h) as u32;
            let mut client = ServeClient::new(ServeClientCfg {
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
                // The workload is identical across modes: client seeds
                // mix the run seed and the tenant, never the mode.
                seed: 0xC11E ^ (seed << 8) ^ u64::from(tenant),
            });
            if let Some(sink) = cap.domain_sink(d) {
                client.set_trace(sink.track(&format!("client-d{d}h{h}")));
            }
            let engine = chain.sharded.engine_mut(d);
            let cid = engine.add_component(format!("client-{}-d{d}h{h}", mode.label()), client);
            engine.post(cid, SimTime::ZERO, StartClient);
            clients.push((d, cid));
        }
        // The E12 interference pair rides along on the FCC runs.
        if mode.is_fcc() {
            for h in [CLIENTS_PER_DOMAIN, CLIENTS_PER_DOMAIN + 1] {
                chain.load(d, h, &format!("load-{}-", mode.label()), PAIR_REGIONS);
            }
        }
    }
    chain.sharded.run(shards);
    // Deterministic harvest, in domain order.
    let mut lost_objects = 0u64;
    for (d, &store_id) in stores.iter().enumerate() {
        let s = chain.sharded.engine(d).component::<KvStore>(store_id);
        lost_objects += s.lost_updates.get() + s.alloc_failures.get() + s.integrity_violations();
        if cap.is_enabled() {
            let prefix = format!("e13-{}-d{d}.kv.", mode.label());
            cap.metrics
                .add_counter(&format!("{prefix}gets"), s.gets.get());
            cap.metrics
                .add_counter(&format!("{prefix}puts"), s.puts.get());
            cap.metrics
                .add_counter(&format!("{prefix}hits"), s.hits.get());
            cap.metrics
                .add_counter(&format!("{prefix}misses"), s.misses.get());
            cap.metrics
                .record_histogram(&format!("{prefix}service_ps"), &s.service);
        }
    }
    let mut peak = SloAccountant::new(slo_target);
    let mut trough = SloAccountant::new(slo_target);
    let mut completed = 0u64;
    for &(d, cid) in &clients {
        let c = chain.sharded.engine(d).component::<ServeClient>(cid);
        peak.merge(c.peak_slo());
        trough.merge(c.trough_slo());
        completed += c.completed.get();
    }
    if cap.is_enabled() {
        peak.export(&format!("e13-{}-peak.", mode.label()), &mut cap.metrics);
        trough.export(&format!("e13-{}-trough.", mode.label()), &mut cap.metrics);
    }
    let harvest = cap.end(&label, chain.sharded.engines(), &chain.fabric.domains);
    let violations = harvest.audit.findings.len() as u64;
    ModeRun {
        peak,
        trough,
        lost_objects,
        completed,
        violations,
        events: chain.sharded.total_events(),
    }
}

impl fmt::Display for E13Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E13 — far-memory serving, {} tenants, diurnal open-loop load",
            self.tenants
        )?;
        let pct = |a: f64| format!("{:.2}%", a * 100.0);
        let rows = vec![
            vec![
                "commfabric base".to_string(),
                format!("{:.0}", self.base_p99_peak_ns),
                format!("{:.0}", self.base_p99_trough_ns),
                pct(self.base_attain_peak),
            ],
            vec![
                "fcc, sched off".to_string(),
                format!("{:.0}", self.off_p99_peak_ns),
                "-".to_string(),
                pct(self.off_attain_peak),
            ],
            vec![
                "fcc, sched on".to_string(),
                format!("{:.0}", self.on_p99_peak_ns),
                format!("{:.0}", self.on_p99_trough_ns),
                pct(self.on_attain_peak),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(
                &[
                    "mode",
                    "peak p99 (ns)",
                    "trough p99 (ns)",
                    "peak SLO attain"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "governed peak p999 {:.0} ns; fcc beats base {:.2}x at peak p99; \
             scheduler recovers {:.2}x; {} requests; {} lost objects; \
             {} ledger violations; {} events",
            self.on_p999_peak_ns,
            self.fcc_speedup_p99(),
            self.sched_recovery_p99(),
            self.requests,
            self.lost_objects,
            self.ledger_violations,
            self.total_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar results and event counts are identical for any worker
    /// fan-out (shards select threads, not decomposition).
    #[test]
    fn results_identical_across_worker_counts() {
        let base = run_e13(true, &mut Capture::disabled(), 7, 1);
        for workers in [2, 4] {
            let r = run_e13(true, &mut Capture::disabled(), 7, workers);
            assert_eq!(r.total_events, base.total_events, "workers={workers}");
            assert_eq!(r.requests, base.requests);
            assert_eq!(r.base_p99_peak_ns, base.base_p99_peak_ns);
            assert_eq!(r.off_p99_peak_ns, base.off_p99_peak_ns);
            assert_eq!(r.on_p99_peak_ns, base.on_p99_peak_ns);
            assert_eq!(r.on_attain_peak, base.on_attain_peak);
        }
    }

    /// The acceptance criteria: nothing lost, ledgers clean, FCC meets
    /// the SLO the baseline misses at peak, the scheduler recovers tail.
    #[test]
    fn serving_slo_acceptance() {
        let r = run_e13(true, &mut Capture::disabled(), 0, 1);
        assert_eq!(r.tenants, 48);
        assert!(r.requests > 1000, "clients ran: {} requests", r.requests);
        assert_eq!(r.lost_objects, 0, "no lost updates/allocations/handles");
        assert_eq!(r.ledger_violations, 0, "tenant ledger audit must be clean");
        assert!(
            r.slo_bounded(),
            "SLO bound failed: on_attain_peak {:.4}, base_attain_peak {:.4}, \
             on p99 {:.0} ns vs off p99 {:.0} ns",
            r.on_attain_peak,
            r.base_attain_peak,
            r.on_p99_peak_ns,
            r.off_p99_peak_ns
        );
        assert!(
            r.base_p99_peak_ns > r.base_p99_trough_ns,
            "the baseline's peak must be worse than its trough: {:.0} vs {:.0}",
            r.base_p99_peak_ns,
            r.base_p99_trough_ns
        );
    }
}
