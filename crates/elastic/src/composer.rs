//! The elastic composer: online hot-add and hot-remove of memory nodes.
//!
//! This is the runtime that executes the [`crate::epoch`] protocol
//! against a live simulated fabric:
//!
//! * [`ElasticCluster::hot_add`] attaches a new FAM chassis mid-run with
//!   the two-phase routing update — epoch N installs the switch route,
//!   epoch N+1 (after the route has settled) maps the range at every FHA
//!   and opens the heap node. In-flight traffic never sees a missing
//!   route because nothing targets the node before the announce.
//! * [`ElasticCluster::begin_drain`] retracts a node (the heap stops
//!   allocating on it), evacuates every live object through throttled
//!   eTrans migration jobs, and — once the jobs complete and the node is
//!   ledger-verified quiescent — prunes its routes, reclaims its credit
//!   allocations, and detaches its port.
//! * [`ElasticCluster::apply_failure_schedule`] wires power-domain
//!   failure events into the same drain path (failure-triggered
//!   evacuation at elevated priority).
//! * [`ElasticCluster::naive_yank`] is the deliberately broken baseline:
//!   routes vanish with no drain and no quiescence guard, destroying the
//!   node's resident objects and stranding in-flight operations.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fcc_core::etrans::{
    ETrans, ETransDone, MigrationAgent, SubmitETrans, TenantLimit, TransAttrs, TransOwnership,
    TransactionEngine,
};
use fcc_core::heap::FabricBox;
use fcc_core::heap::{EvacuationPlan, HeapNodeCfg, NodeState, UnifiedHeap};
use fcc_fabric::adapter::{Fea, InstallMapping};
use fcc_fabric::endpoint::{Endpoint, FixedLatencyMemory};
use fcc_fabric::ledger::{audit_topology, AuditReport};
use fcc_fabric::switch::{FabricSwitch, InstallPbrRoute};
use fcc_fabric::topology::{self, DeviceHandle, Topology, TopologySpec};
use fcc_memnode::profile::MemNodeProfile;
use fcc_proto::addr::{AddrRange, NodeId};
use fcc_sim::{Component, ComponentId, Ctx, Engine, Msg, PendingWork, SimTime};
use fcc_telemetry::{MetricsRegistry, TraceCtx, TraceSink, Track};
use fcc_workloads::failure::FailureSchedule;

use crate::events::{ReconfigEvent, ReconfigKind, ReconfigLog};
use crate::store::ShadowStore;

/// Tenant id under which evacuation eTrans jobs are throttled.
pub const EVAC_TENANT: u32 = 0xE7AC;

/// Delay between installing routes (phase 1) and announcing the node
/// (phase 2): long enough for the posted route-install messages to land.
const ROUTE_SETTLE: SimTime = SimTime::from_ps(250_000);

/// Poll period while waiting for a draining node to quiesce.
const DETACH_POLL: SimTime = SimTime::from_ps(500_000);

/// Give up detaching after this many quiescence polls (keeps a stranded
/// drain from wedging `run_until_idle` with an endless poll chain).
const MAX_DETACH_POLLS: u32 = 20_000;

/// Why a drain started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainReason {
    /// Operator-planned removal (background-priority evacuation).
    Planned,
    /// Power-domain failure notice (elevated-priority evacuation).
    Failure,
}

/// Shared cluster state behind the [`ElasticCluster`] handle.
pub struct ClusterState {
    /// The unified heap over the fabric devices (heap index i ↔
    /// `topo.devices[i]`, including offline slots).
    pub heap: UnifiedHeap,
    /// Byte images of live objects (loss detection).
    pub store: ShadowStore,
    /// Epoch transition log.
    pub log: ReconfigLog,
    /// Current reconfiguration epoch.
    pub epoch: u64,
    /// The live topology (devices grow on hot-add; handles of detached
    /// devices stay for index stability).
    pub topo: Topology,
    /// Objects destroyed by yanks.
    pub lost_objects: u64,
    /// Evacuation jobs submitted.
    pub evac_jobs: u64,
    /// Evacuation bytes submitted.
    pub evac_bytes: u64,
    /// Objects a drain could not place anywhere.
    pub stranded_objects: u64,
    /// Outstanding evacuation jobs per draining heap index.
    pending_evac: BTreeMap<usize, usize>,
    /// Switch port of each device (parallel to `topo.devices`).
    port_of: Vec<usize>,
    next_node: u16,
    next_addr: u64,
    track: Track,
}

impl ClusterState {
    fn bump_epoch(&mut self, at: SimTime, node: NodeId, kind: ReconfigKind) {
        self.epoch += 1;
        self.track.instant(
            "reconfig",
            &format!("epoch {}: node {} {kind}", self.epoch, node.0),
            at,
            TraceCtx::new(self.epoch),
        );
        self.log.push(ReconfigEvent {
            at,
            epoch: self.epoch,
            node,
            kind,
        });
    }

    /// The fabric address of bin-local `addr` on heap node `idx`.
    pub fn fabric_addr(&self, idx: usize, addr: u64) -> u64 {
        self.topo.devices[idx].range.base + addr
    }

    /// How many of `objs` still have intact byte images.
    pub fn surviving(&self, objs: &[FabricBox]) -> usize {
        objs.iter().filter(|&&o| self.store.contains(o)).count()
    }
}

/// Ergonomic, poison-recovering access to the shared [`ClusterState`].
///
/// The state is behind an `Arc<Mutex<…>>` so the cluster's components are
/// `Send` and an elastic scenario can run under the sharded executor; all
/// accesses still happen from whichever single thread is dispatching the
/// owning engine, so the lock is uncontended. Poisoning is recovered (the
/// state carries counters and logs worth reading after a panic).
pub trait LockClusterState {
    /// Locks the state for reading or writing.
    fn lock_state(&self) -> std::sync::MutexGuard<'_, ClusterState>;
}

impl LockClusterState for Mutex<ClusterState> {
    fn lock_state(&self) -> std::sync::MutexGuard<'_, ClusterState> {
        self.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Routes evacuation-job completions back into the cluster state and
/// reports unfinished evacuations to the deadlock detector.
struct DrainCoordinator {
    state: Arc<Mutex<ClusterState>>,
}

impl Component for DrainCoordinator {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.downcast::<ETransDone>() {
            Ok(done) => {
                let idx = (done.tag >> 32) as usize;
                let mut st = self.state.lock_state();
                st.track.span(
                    "reconfig",
                    &format!("evac.job node{idx}"),
                    done.issued_at,
                    done.completed_at,
                    TraceCtx::new(done.tag),
                );
                let remaining = match st.pending_evac.get_mut(&idx) {
                    Some(n) => {
                        *n = n.saturating_sub(1);
                        *n
                    }
                    None => return,
                };
                if remaining == 0 {
                    let node = st.topo.devices[idx].node;
                    st.bump_epoch(ctx.now(), node, ReconfigKind::EvacuationComplete);
                }
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        out.extend(
            self.state
                .lock_state()
                .pending_evac
                .iter()
                .filter(|&(_, &n)| n > 0)
                .map(|(&idx, &n)| PendingWork {
                    what: format!("{n} evacuation jobs off heap node {idx}"),
                    waiting_on: None,
                }),
        );
    }
}

/// A cheaply cloneable handle to an elastic cluster: a single-switch
/// fabric whose FAM population changes at runtime.
#[derive(Clone)]
pub struct ElasticCluster {
    state: Arc<Mutex<ClusterState>>,
    /// The fabric switch.
    pub switch: ComponentId,
    /// The eTrans engine executing evacuations.
    pub etrans: ComponentId,
    coordinator: ComponentId,
    spec: TopologySpec,
}

impl ElasticCluster {
    /// Builds a single-switch cluster with `n_hosts` hosts and one FAM
    /// device per profile (heap node i ↔ device i). The evacuation
    /// migration agent issues through host 0's FHA, so evacuation traffic
    /// contends with foreground load on the real fabric.
    ///
    /// # Panics
    ///
    /// Panics if `n_hosts` or `profiles` is empty.
    pub fn build(
        engine: &mut Engine,
        spec: TopologySpec,
        n_hosts: usize,
        profiles: Vec<MemNodeProfile>,
    ) -> ElasticCluster {
        assert!(n_hosts > 0, "cluster needs a host");
        assert!(!profiles.is_empty(), "cluster needs a device");
        let devices: Vec<Box<dyn Endpoint>> = profiles
            .iter()
            .map(|p| {
                Box::new(FixedLatencyMemory::new(
                    p.read_latency,
                    p.write_latency,
                    p.capacity,
                )) as Box<dyn Endpoint>
            })
            .collect();
        let topo = topology::single_switch(engine, spec, n_hosts, devices);
        let switch = topo.switches[0];
        let heap = UnifiedHeap::new(
            profiles
                .iter()
                .map(|&profile| HeapNodeCfg { profile })
                .collect(),
        );
        let agent = engine.add_component(
            "evac-agent",
            MigrationAgent::new(topo.hosts[0].fha, 4096, 4),
        );
        let etrans = engine.add_component("evac-etrans", TransactionEngine::new(vec![agent]));
        let n_devices = profiles.len();
        let next_addr = topo
            .devices
            .iter()
            .map(|d| d.range.end())
            .fold(topology::FAM_BASE, u64::max);
        // The builder numbers devices 1..=d, then hosts d+1..=d+h.
        let next_node = (n_devices + n_hosts + 1) as u16;
        // Hosts occupy switch ports 0..n_hosts, devices the next ports.
        let port_of = (0..n_devices).map(|i| n_hosts + i).collect();
        let state = Arc::new(Mutex::new(ClusterState {
            heap,
            store: ShadowStore::new(),
            log: ReconfigLog::new(),
            epoch: 0,
            topo,
            lost_objects: 0,
            evac_jobs: 0,
            evac_bytes: 0,
            stranded_objects: 0,
            pending_evac: BTreeMap::new(),
            port_of,
            next_node,
            next_addr,
            track: Track::default(),
        }));
        let coordinator = engine.add_component(
            "drain-coordinator",
            DrainCoordinator {
                state: Arc::clone(&state),
            },
        );
        ElasticCluster {
            state,
            switch,
            etrans,
            coordinator,
            spec,
        }
    }

    /// The shared cluster state.
    pub fn state(&self) -> &Arc<Mutex<ClusterState>> {
        &self.state
    }

    /// Installs a bandwidth cap on the evacuation tenant — the throttle
    /// that keeps background evacuation from starving foreground traffic.
    pub fn set_evacuation_limit(&self, engine: &mut Engine, gbps: f64, burst: u64) {
        engine
            .component_mut::<TransactionEngine>(self.etrans)
            .set_tenant_limit(TenantLimit {
                tenant: EVAC_TENANT,
                gbps,
                burst,
            });
    }

    /// Wires a [`TraceSink`] through the eTrans engine and the composer's
    /// own `reconfig` track (epoch instants + evacuation spans); the
    /// fabric is wired through [`Topology::enable_tracing`]. Devices
    /// hot-added later keep running untraced; the epoch instants still
    /// record their lifecycle.
    pub fn enable_tracing(&self, engine: &mut Engine, sink: &TraceSink) {
        engine
            .component_mut::<TransactionEngine>(self.etrans)
            .set_trace(sink.track("evac-etrans"));
        self.state.lock_state().track = sink.track("reconfig");
    }

    /// Snapshots the evacuation counters into `reg` under `<prefix>…`
    /// names; the fabric's are [`Topology::collect_metrics`]'.
    pub fn collect_metrics(&self, engine: &Engine, reg: &mut MetricsRegistry, prefix: &str) {
        let te = engine.component::<TransactionEngine>(self.etrans);
        reg.record_counter(&format!("{prefix}evac.completed"), &te.completed);
        reg.record_counter(&format!("{prefix}evac.bytes_moved"), &te.bytes_moved);
        reg.record_histogram(&format!("{prefix}evac.latency_ps"), &te.latency);
    }

    /// Audits every credit ledger in the cluster.
    pub fn audit(&self, engine: &Engine) -> AuditReport {
        audit_topology(engine, &self.state.lock_state().topo)
    }

    /// Hot-adds a FAM chassis with the given profile, returning its heap
    /// index. Phase 1 (now): attach the port, post the route install,
    /// open the heap slot in [`NodeState::Draining`] so nothing allocates
    /// there yet. Phase 2 (after `ROUTE_SETTLE`): map the range at
    /// every FHA and set the node [`NodeState::Active`]. The ordering is
    /// the safety argument — the switch drops unroutable flits, so no
    /// traffic may target the node before its route exists.
    pub fn hot_add(&self, engine: &mut Engine, profile: MemNodeProfile) -> usize {
        let now = engine.now();
        let (node, range) = {
            let mut st = self.state.lock_state();
            let node = NodeId(st.next_node);
            st.next_node += 1;
            let range = AddrRange::new(st.next_addr, profile.capacity);
            st.next_addr += profile.capacity;
            (node, range)
        };
        let dev: Box<dyn Endpoint> = Box::new(FixedLatencyMemory::new(
            profile.read_latency,
            profile.write_latency,
            profile.capacity,
        ));
        let fea = engine.add_component(
            format!("fea{}", node.0),
            Fea::new(node, self.spec.switch.phys, self.spec.credit, dev),
        );
        let port = {
            let sw = engine.component_mut::<FabricSwitch>(self.switch);
            let p = sw.add_port();
            sw.connect(p, fea);
            p
        };
        engine.component_mut::<Fea>(fea).connect(self.switch);
        // Phase 1: the route install travels as a control message, like a
        // fabric manager would issue it.
        engine.post(self.switch, now, InstallPbrRoute { dst: node, port });
        let idx = {
            let mut st = self.state.lock_state();
            let idx = st.topo.devices.len();
            st.topo.devices.push(DeviceHandle { fea, node, range });
            st.port_of.push(port);
            let hidx = st.heap.add_node(HeapNodeCfg { profile });
            debug_assert_eq!(hidx, idx, "heap and device indices in lockstep");
            // Not yet announced: no allocations until phase 2.
            st.heap.set_draining(idx);
            st.bump_epoch(now, node, ReconfigKind::AddStarted);
            idx
        };
        // Phase 2: announce once the route has settled.
        let me = self.clone();
        engine.call_at(now + ROUTE_SETTLE, move |e| {
            let fhas: Vec<ComponentId> = {
                let st = me.state.lock_state();
                st.topo.hosts.iter().map(|h| h.fha).collect()
            };
            let at = e.now();
            for fha in fhas {
                e.post(fha, at, InstallMapping { range, node });
            }
            let mut st = me.state.lock_state();
            st.heap.set_online(idx);
            st.bump_epoch(at, node, ReconfigKind::NodeAnnounced);
        });
        idx
    }

    /// Starts draining heap node `idx`: the heap stops allocating on it,
    /// every live object is relocated (metadata now, bytes via throttled
    /// eTrans jobs), and a quiescence-polling chain detaches the node
    /// once the last job completes and the port is provably empty.
    ///
    /// Returns the evacuation plan. Objects in
    /// [`EvacuationPlan::stranded`] had no admissible target; the node
    /// then stays [`NodeState::Draining`] and is never detached.
    pub fn begin_drain(
        &self,
        engine: &mut Engine,
        idx: usize,
        reason: DrainReason,
    ) -> EvacuationPlan {
        let now = engine.now();
        let (plan, submissions) = {
            let mut st = self.state.lock_state();
            let targets: Vec<usize> = (0..st.heap.node_count())
                .filter(|&i| i != idx && st.heap.node_state(i) == NodeState::Active)
                .collect();
            let plan = st.heap.drain(idx, &targets);
            let node = st.topo.devices[idx].node;
            let kind = match reason {
                DrainReason::Planned => ReconfigKind::DrainStarted,
                DrainReason::Failure => ReconfigKind::FailureDrain,
            };
            st.bump_epoch(now, node, kind);
            st.pending_evac.insert(idx, plan.moves.len());
            st.evac_jobs += plan.moves.len() as u64;
            st.evac_bytes += plan.bytes;
            st.stranded_objects += plan.stranded.len() as u64;
            let submissions: Vec<SubmitETrans> = plan
                .moves
                .iter()
                .enumerate()
                .map(|(i, m)| SubmitETrans {
                    etrans: ETrans {
                        src: vec![(st.fabric_addr(m.from, m.src_addr), m.obj.size() as u32)],
                        dst: vec![(st.fabric_addr(m.to, m.dst_addr), m.obj.size() as u32)],
                        immediate: false,
                        attrs: TransAttrs {
                            tenant: EVAC_TENANT,
                            priority: match reason {
                                DrainReason::Planned => 64,
                                DrainReason::Failure => 192,
                            },
                        },
                        ownership: TransOwnership::Caller,
                    },
                    tag: ((idx as u64) << 32) | i as u64,
                    reply_to: self.coordinator,
                })
                .collect();
            (plan, submissions)
        };
        for sub in submissions {
            engine.post(self.etrans, now, sub);
        }
        if plan.stranded.is_empty() {
            self.schedule_detach(engine, idx, MAX_DETACH_POLLS);
        }
        plan
    }

    fn schedule_detach(&self, engine: &mut Engine, idx: usize, polls_left: u32) {
        if polls_left == 0 {
            return;
        }
        let me = self.clone();
        engine.call_at(engine.now() + DETACH_POLL, move |e| {
            if !me.try_detach(e, idx) {
                me.schedule_detach(e, idx, polls_left - 1);
            }
        });
    }

    /// Attempts the final hot-remove step for a drained node. Succeeds
    /// only at full quiescence: all evacuation jobs done, no live object
    /// left, FEA idle, and the switch port empty with a clean credit
    /// ledger. On success the port detaches (releasing its ramp-up credit
    /// allocations), per-node flow reservations are reclaimed, the PBR
    /// route is pruned, and the heap slot goes [`NodeState::Offline`].
    pub fn try_detach(&self, engine: &mut Engine, idx: usize) -> bool {
        let now = engine.now();
        let (node, port, fea) = {
            let st = self.state.lock_state();
            if st.pending_evac.get(&idx).copied().unwrap_or(0) > 0 {
                return false;
            }
            if !st.heap.objects_on(idx).is_empty() {
                return false;
            }
            (
                st.topo.devices[idx].node,
                st.port_of[idx],
                st.topo.devices[idx].fea,
            )
        };
        if !engine.component::<Fea>(fea).is_quiescent(now) {
            return false;
        }
        // `detach_port` re-verifies emptiness and audits the link ledger;
        // it mutates nothing when it refuses.
        {
            let sw = engine.component_mut::<FabricSwitch>(self.switch);
            if sw.detach_port(port).is_err() {
                return false;
            }
            // The port is provably empty: prune the route and reclaim the
            // node's flow reservations.
            sw.routing.remove_pbr(node);
            sw.reclaim_flows(node);
        }
        let mut st = self.state.lock_state();
        if st.heap.set_offline(idx).is_err() {
            // Unreachable (objects_on was empty above), but never panic in
            // lib code: leave the node draining.
            return false;
        }
        st.pending_evac.remove(&idx);
        st.bump_epoch(now, node, ReconfigKind::NodeDetached);
        true
    }

    /// The deliberately broken removal: prunes the node's route and drops
    /// its flow reservations *immediately*, destroying the byte images of
    /// every resident object. In-flight and future flits toward the node
    /// are dropped as unroutable, so closed-loop initiators wedge — the
    /// failure mode E11 measures against the managed drain. Returns the
    /// number of objects lost.
    pub fn naive_yank(&self, engine: &mut Engine, idx: usize) -> usize {
        let now = engine.now();
        let (node, doomed) = {
            let st = self.state.lock_state();
            (st.topo.devices[idx].node, st.heap.objects_on(idx))
        };
        {
            let sw = engine.component_mut::<FabricSwitch>(self.switch);
            sw.routing.remove_pbr(node);
            sw.reclaim_flows(node);
        }
        let mut st = self.state.lock_state();
        let lost = st.store.destroy(&doomed);
        st.lost_objects += lost as u64;
        // Handles keep dangling at the dead node; only allocation stops.
        st.heap.set_draining(idx);
        st.bump_epoch(now, node, ReconfigKind::NodeYanked);
        lost
    }

    /// Schedules a failure-triggered drain for every failure event whose
    /// power domain covers a heap node (`domain_of[idx]` maps heap nodes
    /// to domains). Returns how many drains were scheduled. Nodes already
    /// draining or offline when the failure fires are skipped.
    pub fn apply_failure_schedule(
        &self,
        engine: &mut Engine,
        schedule: &FailureSchedule,
        domain_of: &[usize],
    ) -> usize {
        let mut scheduled = 0;
        for event in schedule.events() {
            for (idx, &domain) in domain_of.iter().enumerate() {
                if domain != event.domain {
                    continue;
                }
                let me = self.clone();
                engine.call_at(event.at, move |e| {
                    let active = me.state.lock_state().heap.node_state(idx) == NodeState::Active;
                    if active {
                        me.begin_drain(e, idx, DrainReason::Failure);
                    }
                });
                scheduled += 1;
            }
        }
        scheduled
    }
}

#[cfg(test)]
mod tests {
    use fcc_core::heap::PlacementHint;
    use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
    use fcc_memnode::profile::MemNodeKind;
    use fcc_sim::Inbox;

    use super::*;

    type Sink = Inbox<HostCompletion>;

    fn fam(capacity: u64) -> MemNodeProfile {
        MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, capacity)
    }

    fn build(engine: &mut Engine, n: usize) -> ElasticCluster {
        ElasticCluster::build(
            engine,
            TopologySpec::default(),
            1,
            (0..n).map(|_| fam(1 << 20)).collect(),
        )
    }

    /// Allocates `n` objects with content.
    fn populate(cluster: &ElasticCluster, n: usize, size: u64) -> Vec<FabricBox> {
        let mut st = cluster.state().lock_state();
        (0..n)
            .map(|i| {
                let obj = st.heap.alloc(size, PlacementHint::Auto).expect("fits");
                st.store.insert(obj, 0x5eed ^ i as u64);
                obj
            })
            .collect()
    }

    #[test]
    fn hot_add_two_phase_opens_node_after_settle() {
        let mut engine = Engine::new(11);
        let cluster = build(&mut engine, 1);
        let idx = cluster.hot_add(&mut engine, fam(1 << 20));
        // Phase 1 only: heap slot exists but refuses allocations.
        assert_eq!(
            cluster.state().lock_state().heap.node_state(idx),
            NodeState::Draining
        );
        engine.run_until_idle();
        let st = cluster.state().lock_state();
        assert_eq!(st.heap.node_state(idx), NodeState::Active);
        assert_eq!(st.log.count_of(ReconfigKind::AddStarted), 1);
        assert_eq!(st.log.count_of(ReconfigKind::NodeAnnounced), 1);
        assert_eq!(st.epoch, 2);
    }

    #[test]
    fn hot_added_node_carries_traffic() {
        let mut engine = Engine::new(12);
        let cluster = build(&mut engine, 1);
        let idx = cluster.hot_add(&mut engine, fam(1 << 20));
        engine.run_until_idle();
        // Read the new device through the fabric.
        let sink = engine.add_component("sink", Sink::default());
        let (fha, addr) = {
            let st = cluster.state().lock_state();
            (st.topo.hosts[0].fha, st.topo.devices[idx].range.base)
        };
        engine.post(
            fha,
            engine.now(),
            HostRequest {
                op: HostOp::Read { addr, bytes: 64 },
                tag: 1,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        assert_eq!(engine.component::<Sink>(sink).messages().len(), 1);
        let sw = engine.component::<FabricSwitch>(cluster.switch);
        assert_eq!(sw.unroutable.get(), 0, "two-phase add never drops");
        assert!(cluster.audit(&engine).is_clean());
    }

    #[test]
    fn drain_evacuates_and_detaches_at_quiescence() {
        let mut engine = Engine::new(13);
        let cluster = build(&mut engine, 2);
        let objs = populate(&cluster, 8, 4096);
        let before = cluster.state().lock_state().store.checksums();
        // Both tiers are identical, so every object lands on the same
        // node — drain whichever one holds them; the other is the target.
        let victim = cluster
            .state()
            .lock_state()
            .heap
            .node_of(objs[0])
            .expect("live");
        let plan = cluster.begin_drain(&mut engine, victim, DrainReason::Planned);
        assert!(plan.stranded.is_empty(), "other node has room");
        engine.run_until_idle();
        {
            let st = cluster.state().lock_state();
            assert_eq!(st.heap.node_state(victim), NodeState::Offline);
            assert_eq!(st.heap.objects_on(victim).len(), 0);
            assert_eq!(st.surviving(&objs), objs.len(), "no object lost");
            for (&obj, &sum) in &before {
                assert_eq!(st.store.checksum(obj), Some(sum), "byte-identical");
            }
            assert_eq!(st.log.count_of(ReconfigKind::EvacuationComplete), 1);
            assert_eq!(st.log.count_of(ReconfigKind::NodeDetached), 1);
        }
        // The detached port is gone; ledgers still balance.
        assert!(cluster.audit(&engine).is_clean());
        assert!(engine.deadlock_report().is_none());
    }

    #[test]
    fn drain_of_empty_node_detaches_without_jobs() {
        let mut engine = Engine::new(14);
        let cluster = build(&mut engine, 2);
        let plan = cluster.begin_drain(&mut engine, 0, DrainReason::Planned);
        assert!(plan.moves.is_empty());
        engine.run_until_idle();
        let st = cluster.state().lock_state();
        assert_eq!(st.heap.node_state(0), NodeState::Offline);
        assert_eq!(st.evac_jobs, 0);
    }

    #[test]
    fn failure_schedule_triggers_the_drain_path() {
        use fcc_workloads::failure::FailureEvent;
        let mut engine = Engine::new(15);
        let cluster = build(&mut engine, 2);
        populate(&cluster, 4, 1024);
        let schedule = FailureSchedule::explicit(vec![FailureEvent {
            at: SimTime::from_us(1.0),
            domain: 3,
            recovered_at: SimTime::from_us(50.0),
        }]);
        // Heap node 1 sits in power domain 3.
        let n = cluster.apply_failure_schedule(&mut engine, &schedule, &[0, 3]);
        assert_eq!(n, 1);
        engine.run_until_idle();
        let st = cluster.state().lock_state();
        assert_eq!(st.log.count_of(ReconfigKind::FailureDrain), 1);
        assert_eq!(st.heap.node_state(1), NodeState::Offline);
        assert_eq!(st.lost_objects, 0);
    }

    #[test]
    fn naive_yank_loses_residents_and_strands_inflight_ops() {
        let mut engine = Engine::new(16);
        let cluster = build(&mut engine, 1);
        let objs = populate(&cluster, 4, 4096);
        let victim = cluster
            .state()
            .lock_state()
            .heap
            .node_of(objs[0])
            .expect("live");
        // An in-flight read toward the victim at yank time.
        let sink = engine.add_component("sink", Sink::default());
        let (fha, addr) = {
            let st = cluster.state().lock_state();
            let (node, bin) = st.heap.locate(objs[0]).expect("live");
            (st.topo.hosts[0].fha, st.fabric_addr(node, bin))
        };
        engine.post(
            fha,
            engine.now(),
            HostRequest {
                op: HostOp::Read { addr, bytes: 64 },
                tag: 9,
                reply_to: sink,
            },
        );
        // Yank before the flit can route.
        let lost = cluster.naive_yank(&mut engine, victim);
        assert_eq!(lost, objs.len());
        engine.run_until_idle();
        assert!(
            engine.component::<Sink>(sink).messages().is_empty(),
            "op never completes"
        );
        let sw = engine.component::<FabricSwitch>(cluster.switch);
        assert!(sw.unroutable.get() >= 1, "flit dropped at the switch");
        let report = engine.deadlock_report().expect("stranded work detected");
        // The FHA's outstanding table names the stranded transaction.
        assert!(
            report.stuck.iter().any(|s| s.component.contains("fha")),
            "stuck: {:?}",
            report.stuck
        );
        assert_eq!(cluster.state().lock_state().lost_objects, objs.len() as u64);
    }
}
