//! The fabric switch (FS): ports, queueing, scheduling, and forwarding.
//!
//! "An FS consists of upstream ports (UPs) for FHA connectivity,
//! downstream ports (DPs) for remote devices/memory modules, and internal
//! switching tables associated with efficient traffic orchestration"
//! (§2.2). The model is an input-queued switch:
//!
//! * Arriving flits are admitted by the ingress port's link layer (credit
//!   pool) and wait in an ingress queue for the per-flit forwarding
//!   latency, then for egress credit toward the next hop. Ingress buffer
//!   credits return upstream only when a flit departs — this is what makes
//!   congestion back-propagate across switches (§3 D#3, "credit
//!   coordination").
//! * Every discipline queues in ingress lanes `[input][lane]` and differs
//!   only in which lane a flit joins. [`QueueDiscipline::Fifo`] uses one
//!   lane per input: a head flit whose output is credit-starved blocks
//!   younger flits to idle outputs — head-of-line blocking (§3 D#3,
//!   "credit-flow scheduling"). [`QueueDiscipline::Voq`] gives each input
//!   one lane per output (virtual output queues), removing HOL blocking.
//!   [`QueueDiscipline::Wormhole`] uses one lane per virtual channel.
//! * One sweep dispatches every discipline: inputs take turns round-robin,
//!   and only lane heads past the forwarding latency and not parked on an
//!   exhausted egress resource are examined.
//! * Egress credit allocation follows [`AllocPolicy`]: static-fair, the
//!   exponential ramp-up scheme the paper critiques, or arbitrated
//!   reservations installed by the central arbiter.
//! * A transfer's egress is fixed once, when its header is admitted, and
//!   its data slots follow it, under every discipline. Adaptive routing
//!   picks the least-backlogged candidate port for each transfer.

use std::cmp::Reverse;
use std::collections::btree_map::Entry as MapEntry;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use serde::{Deserialize, Serialize};

use fcc_proto::addr::NodeId;
use fcc_proto::channel::MsgClass;
use fcc_proto::flit::FlitPayload;
use fcc_proto::link::CreditConfig;
use fcc_proto::phys::PhysConfig;
use fcc_sched::{FabricScheduler, InstallScheduler};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, PendingWork, SimTime, TokenBucket};
use fcc_telemetry::Track;

use crate::credit::{AllocPolicy, RampUpState};
use crate::port::{FlitMsg, LinkPort, PortEvent};
use crate::routing::RoutingTable;
use crate::wormhole::{VcConfig, VcLink};

/// Identifies a flow (source endpoint, destination endpoint) for the
/// arbiter's reservations and the switch's rate enforcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId {
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
}

/// Ingress queue organization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// One FIFO per input port (credit-agnostic; HOL-blocking prone).
    Fifo,
    /// Virtual output queues per (input, output).
    Voq,
    /// Wormhole switching with per-virtual-channel flow control: ingress
    /// queues per (input, VC), flit-granular lane allocation that holds a
    /// VC for a whole transfer (header + data slots), per-(port, VC)
    /// credit ledgers on egress links configured via
    /// [`FabricSwitch::set_vc_link`], and escape-VC routing (lane 0 is
    /// restricted to each destination's primary deterministic route). See
    /// [`crate::wormhole`].
    Wormhole,
}

/// Static switch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwitchConfig {
    /// Physical layer of every port (per-port overrides via
    /// [`FabricSwitch::add_port_with`]).
    pub phys: PhysConfig,
    /// Link-layer credit configuration of every port.
    pub credit: CreditConfig,
    /// Per-flit forwarding latency through the crossbar (FabreX: <100 ns).
    pub fwd_latency: SimTime,
    /// Ingress queue organization.
    pub queueing: QueueDiscipline,
    /// Egress credit allocation policy.
    pub allocation: AllocPolicy,
    /// Whether to spread traffic across alternate routes adaptively.
    pub adaptive: bool,
}

impl SwitchConfig {
    /// A FabreX-like switch: ~90 ns port latency, fair allocation, VOQs.
    pub fn fabrex_like() -> Self {
        SwitchConfig {
            phys: PhysConfig::omega_like(),
            credit: CreditConfig::default(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing: QueueDiscipline::Voq,
            allocation: AllocPolicy::Fair,
            adaptive: false,
        }
    }
}

/// Installs a PBR route (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct InstallPbrRoute {
    /// Destination node.
    pub dst: NodeId,
    /// Output port.
    pub port: usize,
}

/// Prunes every PBR route toward a node (from the fabric manager or the
/// elastic composer, once the node has quiesced).
#[derive(Debug, Clone, Copy)]
pub struct RemovePbrRoute {
    /// Destination node whose routes are withdrawn.
    pub dst: NodeId,
}

/// Installs a flow rate reservation (from the central arbiter).
#[derive(Debug, Clone, Copy)]
pub struct InstallRate {
    /// The reserved flow.
    pub flow: FlowId,
    /// Sustained rate in Gbit/s.
    pub gbps: f64,
    /// Burst allowance in bytes.
    pub burst_bytes: u64,
}

/// Removes a flow reservation (from the central arbiter).
#[derive(Debug, Clone, Copy)]
pub struct RemoveRate {
    /// The flow to release.
    pub flow: FlowId,
}

/// Discovery probe (from the fabric manager).
#[derive(Debug, Clone, Copy)]
pub struct DiscoverReq {
    /// Where to send the [`DiscoverRsp`].
    pub reply_to: ComponentId,
}

/// Discovery answer: the peer component on each port.
#[derive(Debug, Clone)]
pub struct DiscoverRsp {
    /// The responding switch.
    pub switch: ComponentId,
    /// Peer component per port index.
    pub peers: Vec<ComponentId>,
}

/// Self-message: re-run the scheduler.
#[derive(Debug, Clone, Copy)]
struct Kick;

/// Self-message: ramp-up window rollover.
#[derive(Debug, Clone, Copy)]
struct WindowTick;

/// Self-message: tenant-scheduler window rollover.
#[derive(Debug, Clone, Copy)]
struct SchedTick;

#[derive(Debug)]
struct Entry {
    payload: FlitPayload,
    class: MsgClass,
    ready_at: SimTime,
    flow: FlowId,
    enqueued_at: SimTime,
    /// Ingress lane the flit arrived on (VC-flow-controlled links only);
    /// its credit is returned upstream when the flit departs.
    in_vc: Option<u8>,
    /// The transfer this flit belongs to, resolved once at admission.
    worm: WormSlot,
}

/// Index of a [`Worm`] in [`FabricSwitch`]'s worm slab.
type WormSlot = u32;

/// An ingress lane: `(input port, lane index)`.
type LaneRef = (usize, usize);

/// An in-transit transfer (header + data slots): one egress for all its
/// flits under every discipline and, on a wormhole VC link, one egress
/// virtual channel from head to tail. A worm takes exactly the flits its
/// header announced and is freed only after the last of them has left,
/// so every queued flit's [`Entry::worm`] names a live worm.
#[derive(Debug, Clone, Copy)]
struct Worm {
    /// Transaction id (the VC ledgers' lane holder).
    id: u64,
    /// Egress port fixed at head admission; body flits follow the head.
    out: usize,
    /// VC lane allocated at head dispatch (`None` until the head moves,
    /// and always without VC flow control).
    lane: Option<u8>,
    /// Flits of this transfer not yet dispatched or dropped (including
    /// the header).
    remaining: u64,
}

/// Why an arriving flit was dropped at admission instead of queued.
enum Refusal {
    /// Its destination has no route.
    Unroutable,
    /// A data slot with no worm expecting it.
    Orphan,
    /// A header with data slots whose id names a worm still indexed.
    DuplicateId,
}

/// Sweep state of an ingress lane's head flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    /// The lane is empty.
    Empty,
    /// Examined by every sweep.
    Active,
    /// Still inside the forwarding latency; listed in the timed heap.
    Timed,
    /// Failed an egress gate; listed on the [`Wait`] it failed on.
    Parked,
}

/// The egress resource a parked head failed on. Each can only be freed
/// by the events listed in DESIGN.md's parking invariant; a routing-table
/// change wakes every parked head.
#[derive(Debug, Clone, Copy)]
enum Wait {
    /// The egress port's link-layer class credits or retry window; freed
    /// by a CreditUpdate or Ack received on that port.
    Link(usize),
    /// Credits of the egress lane the head's worm holds; freed by a
    /// VcCredit refund on that lane.
    Lane(usize, u8),
    /// Lane allocation on the egress (a header); freed by a lane release
    /// or any refund on that port, or by a route change (escape-lane
    /// eligibility).
    Pool(usize),
}

/// One bit per input port: the inputs a sweep round visits.
#[derive(Debug, Default)]
struct InputMask(Vec<u64>);

impl InputMask {
    fn push(&mut self, i: usize) {
        if i / 64 >= self.0.len() {
            self.0.push(0);
        }
    }

    fn set(&mut self, i: usize, on: bool) {
        let bit = 1u64 << (i % 64);
        if on {
            self.0[i / 64] |= bit;
        } else {
            self.0[i / 64] &= !bit;
        }
    }

    /// The lowest set input in `from..to`.
    fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        let mut w = from / 64;
        let mut word = self.0.get(w)? & (u64::MAX << (from % 64));
        loop {
            if word != 0 {
                let i = w * 64 + word.trailing_zeros() as usize;
                return (i < to).then_some(i);
            }
            w += 1;
            if w * 64 >= to {
                return None;
            }
            word = *self.0.get(w)?;
        }
    }
}

/// Heads parked on one egress port's resources.
#[derive(Debug, Default)]
struct PortWaiters {
    link: Vec<LaneRef>,
    pool: Vec<LaneRef>,
    /// Indexed by lane.
    lanes: Vec<Vec<LaneRef>>,
}

/// A fabric switch component.
pub struct FabricSwitch {
    cfg: SwitchConfig,
    ports: Vec<LinkPort>,
    /// Input port of each connected peer, sorted by peer: a flit's input
    /// port is a binary search over at most radix entries.
    peer_to_port: Vec<(ComponentId, usize)>,
    /// Routing table (public so topology builders can pre-install routes).
    pub routing: RoutingTable,
    /// Ingress queues[input][lane]. FIFO: the input's one queue in lane
    /// 0. VOQ: lane `o` queues toward output `o`, one per port. Wormhole:
    /// one lane per VC on ports configured via
    /// [`FabricSwitch::set_vc_link`], a single lane 0 elsewhere.
    vcq: Vec<Vec<VecDeque<Entry>>>,
    /// Per-egress-port VC credit ledgers (only on links configured via
    /// [`FabricSwitch::set_vc_link`]).
    vc_links: Vec<Option<VcLink>>,
    /// In-transit transfers (slab; the slots in `free_worms` hold stale
    /// worms). Queued flits reach their worm, and so their egress,
    /// through [`Entry::worm`].
    worms: Vec<Worm>,
    free_worms: Vec<WormSlot>,
    /// Transaction id → (slot, data slots still to arrive) of each worm
    /// with data slots, from its header's admission to its tail's
    /// departure: the index a data slot finds its worm by. A lone
    /// header's worm is reached only through its flit's [`Entry::worm`],
    /// so it is not indexed.
    worm_of: BTreeMap<u64, (WormSlot, u64)>,
    /// Head state per `[input][lane]`, in step with `vcq`.
    heads: Vec<Vec<Head>>,
    /// `Active` heads per input. `ready` has a bit set for each input
    /// with any; the sweep visits only those.
    active: Vec<usize>,
    ready: InputMask,
    /// Heads inside the forwarding latency, earliest `ready_at` first.
    timed: BinaryHeap<Reverse<(SimTime, usize, usize)>>,
    /// Parked heads per egress port.
    waiters: Vec<PortWaiters>,
    /// Routing-table version the parked escape decisions were made under.
    routes_seen: u64,
    /// Flits committed toward each egress at admission: the undelivered
    /// remainder of every worm routed to it (the adaptive routing load).
    committed: Vec<u64>,
    rr_input: usize,
    ramp: Vec<Option<RampUpState>>,
    flows: BTreeMap<FlowId, TokenBucket>,
    /// Tenant admission point, when fabric-level QoS is installed. The
    /// partition gate layers over the per-output ramp gate: a flit
    /// dispatches only when both its input's ramp allocation and its
    /// tenant's partition window admit it.
    sched: Option<FabricScheduler>,
    sched_tick_armed: bool,
    tick_armed: bool,
    /// Earliest pending Kick self-message (dedup: one in flight).
    next_kick_at: Option<SimTime>,
    trace: Track,
    /// Flits forwarded.
    pub forwarded: Counter,
    /// Flits dropped for lack of a route.
    pub unroutable: Counter,
    /// Data slots dropped at admission with no worm expecting them.
    orphan_slots: u64,
    /// Headers dropped at admission for reusing an indexed worm's id.
    duplicate_headers: u64,
    /// Sum of per-flit queueing delays (ps) for mean-delay probes.
    pub queue_delay_ps: Counter,
}

impl FabricSwitch {
    /// Creates a switch with no ports.
    pub fn new(cfg: SwitchConfig) -> Self {
        FabricSwitch {
            cfg,
            ports: Vec::new(),
            peer_to_port: Vec::new(),
            routing: RoutingTable::new(crate::routing::DomainId(0)),
            vcq: Vec::new(),
            vc_links: Vec::new(),
            worms: Vec::new(),
            free_worms: Vec::new(),
            worm_of: BTreeMap::new(),
            heads: Vec::new(),
            active: Vec::new(),
            ready: InputMask::default(),
            timed: BinaryHeap::new(),
            waiters: Vec::new(),
            routes_seen: 0,
            committed: Vec::new(),
            rr_input: 0,
            ramp: Vec::new(),
            flows: BTreeMap::new(),
            sched: None,
            sched_tick_armed: false,
            tick_armed: false,
            next_kick_at: None,
            trace: Track::default(),
            forwarded: Counter::new(),
            unroutable: Counter::new(),
            orphan_slots: 0,
            duplicate_headers: 0,
            queue_delay_ps: Counter::new(),
        }
    }

    /// Adds a port with the switch-default phys/credit config.
    pub fn add_port(&mut self) -> usize {
        self.add_port_with(self.cfg.phys, self.cfg.credit)
    }

    /// Adds a port with explicit physical/credit configuration.
    pub fn add_port_with(&mut self, phys: PhysConfig, credit: CreditConfig) -> usize {
        let idx = self.ports.len();
        self.ports.push(LinkPort::new(phys, credit));
        self.vcq.push(Vec::new());
        self.heads.push(Vec::new());
        // Under VOQ lanes are outputs: every input gains one toward the
        // new port, and the new input has one per port.
        let (inputs, lanes) = if self.cfg.queueing == QueueDiscipline::Voq {
            (0..=idx, idx + 1)
        } else {
            (idx..=idx, 1)
        };
        for i in inputs {
            while self.vcq[i].len() < lanes {
                self.add_lane(i);
            }
        }
        for state in self.ramp.iter_mut().flatten() {
            state.add_input();
        }
        self.ramp.push(None);
        self.vc_links.push(None);
        self.active.push(0);
        self.ready.push(idx);
        self.waiters.push(PortWaiters::default());
        self.committed.push(0);
        idx
    }

    fn add_lane(&mut self, i: usize) {
        self.vcq[i].push(VecDeque::new());
        self.heads[i].push(Head::Empty);
    }

    /// Enables per-virtual-channel flow control on `port` (a wormhole
    /// switch-to-switch link). Both ends of the link must be configured
    /// with the same `cfg`: the egress ledger created here mirrors the
    /// peer's per-lane ingress buffers. VC links must run error-free
    /// (`error_rate` 0) — retransmitted flits lose their hop-local lane
    /// tag — and their link-layer credit pools should be at least
    /// `vcs * buf_flits` per class so the per-lane ledgers, not the
    /// shared class pool, are the binding flow-control constraint (the
    /// escape-VC deadlock argument needs lane isolation). Under
    /// [`QueueDiscipline::Wormhole`] the port's input also gets one
    /// ingress lane per VC (at least 2).
    pub fn set_vc_link(&mut self, port: usize, cfg: VcConfig) {
        self.vc_links[port] = Some(VcLink::new(cfg));
        if self.cfg.queueing == QueueDiscipline::Wormhole {
            while self.vcq[port].len() < usize::from(cfg.vcs.max(2)) {
                self.add_lane(port);
            }
        }
    }

    /// The VC credit ledger of an egress port, if configured.
    pub fn vc_link(&self, port: usize) -> Option<&VcLink> {
        self.vc_links[port].as_ref()
    }

    /// Total runtime VC credit-conservation violations across all ports.
    pub fn vc_violations(&self) -> u64 {
        self.vc_links.iter().flatten().map(|v| v.violations).sum()
    }

    /// Connects a port to its peer component.
    ///
    /// # Panics
    ///
    /// Panics if the port index is out of range.
    pub fn connect(&mut self, port: usize, peer: ComponentId) {
        self.ports[port].connect(peer);
        match self.peer_slot(peer) {
            Ok(i) => self.peer_to_port[i].1 = port,
            Err(i) => self.peer_to_port.insert(i, (peer, port)),
        }
    }

    /// Where `peer` sits in `peer_to_port`: `Ok` at its entry, `Err`
    /// where it would be inserted.
    fn peer_slot(&self, peer: ComponentId) -> Result<usize, usize> {
        self.peer_to_port.binary_search_by_key(&peer, |&(p, _)| p)
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Drops every rate reservation whose flow touches `node` and returns
    /// how many were reclaimed. Part of drain: the arbiter's bandwidth
    /// shares for a departing node go back to the unreserved pool.
    pub fn reclaim_flows(&mut self, node: NodeId) -> usize {
        let before = self.flows.len();
        self.flows.retain(|f, _| f.src != node && f.dst != node);
        before - self.flows.len()
    }

    /// Detaches `port` at quiescence: verifies no flit is queued at or
    /// toward the port, nothing awaits tx credit, and the port's
    /// link-layer credit ledger balances, then forgets the peer binding
    /// (releasing any ramp-up allocation the input held). Routes through
    /// the port must be pruned first — see [`RemovePbrRoute`]. Returns
    /// the detached peer.
    pub fn detach_port(&mut self, port: usize) -> Result<ComponentId, String> {
        if port >= self.ports.len() {
            return Err(format!("port {port} out of range"));
        }
        let lanes: usize = self.vcq[port].iter().map(VecDeque::len).sum();
        if lanes > 0 {
            return Err(format!("port {port}: {lanes} flit(s) in ingress lanes"));
        }
        if self.committed[port] > 0 {
            return Err(format!(
                "port {port}: {} flit(s) committed toward it",
                self.committed[port]
            ));
        }
        if let Some(vl) = &self.vc_links[port] {
            vl.audit()
                .map_err(|e| format!("port {port} vc ledger: {e}"))?;
        }
        if self.ports[port].pending_len() > 0 {
            return Err(format!(
                "port {port}: {} payload(s) awaiting tx credit",
                self.ports[port].pending_len()
            ));
        }
        self.ports[port]
            .link
            .audit()
            .map_err(|e| format!("port {port} ledger: {e}"))?;
        let peer = self.ports[port]
            .peer_opt()
            .ok_or_else(|| format!("port {port} already detached"))?;
        for state in self.ramp.iter_mut().flatten() {
            state.release_input(port);
        }
        if let Ok(i) = self.peer_slot(peer) {
            self.peer_to_port.remove(i);
        }
        Ok(peer)
    }

    /// Access to a port (probes).
    pub fn port(&self, idx: usize) -> &LinkPort {
        &self.ports[idx]
    }

    /// Mutable access to a port (fault injection).
    pub fn port_mut(&mut self, idx: usize) -> &mut LinkPort {
        &mut self.ports[idx]
    }

    /// Attaches a telemetry track; the switch then emits crossbar-forward
    /// and credit/arbitration wait spans for every dispatched flit.
    pub fn set_trace(&mut self, track: Track) {
        self.trace = track;
    }

    /// Installs (or replaces) the tenant admission scheduler. Builder
    /// form — install before traffic flows; the scheduler's window tick
    /// arms when the first flit is admitted. For installation mid-run,
    /// send [`InstallScheduler`] instead.
    pub fn install_scheduler(&mut self, sched: FabricScheduler) {
        self.sched = Some(sched);
        // Tenant admission counts every probe, so heads are no longer
        // parked: every ready head is examined again on every sweep.
        self.wake_all();
    }

    /// The installed tenant scheduler, if any.
    pub fn scheduler(&self) -> Option<&FabricScheduler> {
        self.sched.as_ref()
    }

    /// Mutable access to the installed tenant scheduler.
    pub fn scheduler_mut(&mut self) -> Option<&mut FabricScheduler> {
        self.sched.as_mut()
    }

    /// Total flits waiting in ingress queues.
    pub fn queued(&self) -> usize {
        self.vcq.iter().flatten().map(VecDeque::len).sum()
    }

    /// Audits every credit ledger this switch maintains: each port's link
    /// layer (see [`fcc_proto::link::LinkLayer::audit`]) and each output's
    /// ramp-up allocator (see [`RampUpState::audit`]). Flits dropped at
    /// admission as protocol errors (a data slot no worm expects, a header
    /// reusing the id of a transfer in transit) are findings too.
    ///
    /// Call at quiescence; with flits in flight the in-transit credits are
    /// reported as imbalances. See [`crate::ledger`] for topology-wide
    /// sweeps.
    pub fn audit(&self) -> crate::ledger::AuditReport {
        let mut report = crate::ledger::AuditReport::default();
        for (p, port) in self.ports.iter().enumerate() {
            if let Err(e) = port.link.audit() {
                report.push(format!("port {p}"), e.to_string());
            }
        }
        for (out, state) in self.ramp.iter().enumerate() {
            if let Some(state) = state {
                if let Err(e) = state.audit() {
                    report.push(format!("ramp[output {out}]"), e);
                }
            }
        }
        for (p, vl) in self.vc_links.iter().enumerate() {
            if let Some(vl) = vl {
                if let Err(e) = vl.audit() {
                    report.push(format!("vc[port {p}]"), e);
                }
            }
        }
        if !self.worm_of.is_empty() {
            report.push(
                "worms",
                format!("{} transfer(s) still holding lanes", self.worm_of.len()),
            );
        }
        if let Some(sched) = &self.sched {
            if let Err(e) = sched.audit() {
                report.push("sched", e);
            }
        }
        if self.orphan_slots > 0 {
            report.push(
                "admission",
                format!(
                    "{} data slot(s) arrived with no worm expecting them",
                    self.orphan_slots
                ),
            );
        }
        if self.duplicate_headers > 0 {
            report.push(
                "admission",
                format!(
                    "{} header(s) reused the id of a transfer in transit",
                    self.duplicate_headers
                ),
            );
        }
        report
    }

    fn flow_of(payload: &FlitPayload) -> FlowId {
        match payload {
            FlitPayload::Transaction(t) => FlowId {
                src: t.src,
                dst: t.dst,
            },
            FlitPayload::Data { src, dst, .. } => FlowId {
                src: *src,
                dst: *dst,
            },
            _ => FlowId {
                src: NodeId(0),
                dst: NodeId(0),
            },
        }
    }

    fn dst_of(payload: &FlitPayload) -> Option<NodeId> {
        match payload {
            FlitPayload::Transaction(t) => Some(t.dst),
            FlitPayload::Data { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    /// Picks the output port for `dst`, adaptively if configured: among
    /// the candidates, choose the one with the least backlog, counting
    /// queued flits first (a credit-starved egress has an idle wire but a
    /// deep queue — the wire watermark alone would keep feeding it) and
    /// breaking ties on wire occupancy.
    fn pick_output(&self, dst: NodeId, now: SimTime) -> Option<usize> {
        let candidates = self.routing.route(dst)?;
        if candidates.is_empty() {
            return None;
        }
        if !self.cfg.adaptive || candidates.len() == 1 {
            return Some(candidates[0]);
        }
        candidates.iter().copied().min_by_key(|&p| {
            let pending = self.ports[p].pending_len();
            let backlog = self.ports[p].wire_free_at().saturating_sub(now);
            (self.committed[p] as usize + pending, backlog, p)
        })
    }

    /// Returns the ingress lane credit for a departing (or dropped) flit.
    fn return_in_vc(&mut self, ctx: &mut Ctx<'_>, in_port: usize, in_vc: Option<u8>) {
        if let Some(v) = in_vc {
            self.ports[in_port].return_vc_credit(ctx, v, 1);
        }
    }

    /// The ingress lane a flit leaving by `out` joins: FIFO's one lane,
    /// the VOQ lane toward `out`, or the wormhole lane it arrived on.
    fn lane_for(&self, in_port: usize, in_vc: Option<u8>, out: usize) -> usize {
        match self.cfg.queueing {
            QueueDiscipline::Fifo => 0,
            QueueDiscipline::Voq => out,
            QueueDiscipline::Wormhole => {
                usize::from(in_vc.unwrap_or(0)).min(self.vcq[in_port].len() - 1)
            }
        }
    }

    /// Resolves the worm an arriving flit belongs to, creating it at a
    /// header, and the ingress lane the flit joins. Only a header routes
    /// (adaptively or not); its data slots follow its egress.
    fn admit_worm(
        &mut self,
        in_port: usize,
        in_vc: Option<u8>,
        payload: &FlitPayload,
        dst: NodeId,
        now: SimTime,
    ) -> Result<(WormSlot, usize), Refusal> {
        let t = match payload {
            FlitPayload::Transaction(t) => t,
            FlitPayload::Data { txn_id, .. } => {
                return self.join_worm(in_port, in_vc, *txn_id, dst)
            }
            // dst_of() resolved, so the payload is a header or data slot.
            _ => return Err(Refusal::Unroutable),
        };
        let out = self.pick_output(dst, now).ok_or(Refusal::Unroutable)?;
        // Only a worm with data slots is indexed (see `worm_of`).
        let slots = fcc_proto::flit::data_slots(self.ports[in_port].phys().flit_mode, t);
        let index = match (slots > 0).then(|| self.worm_of.entry(t.id)) {
            Some(MapEntry::Occupied(_)) => return Err(Refusal::DuplicateId),
            Some(MapEntry::Vacant(e)) => Some(e),
            None => None,
        };
        let worm = Worm {
            id: t.id,
            out,
            lane: None,
            remaining: 1 + slots,
        };
        let slot = match self.free_worms.pop() {
            Some(slot) => {
                self.worms[slot as usize] = worm;
                slot
            }
            None => {
                self.worms.push(worm);
                (self.worms.len() - 1) as WormSlot
            }
        };
        if let Some(e) = index {
            e.insert((slot, slots));
        }
        self.committed[out] += worm.remaining;
        Ok((slot, self.lane_for(in_port, in_vc, out)))
    }

    /// Joins a data slot of transfer `txn_id` to its worm, while that worm
    /// still expects slots. A slot whose destination lost its route is
    /// dropped and booked off its worm.
    fn join_worm(
        &mut self,
        in_port: usize,
        in_vc: Option<u8>,
        txn_id: u64,
        dst: NodeId,
    ) -> Result<(WormSlot, usize), Refusal> {
        let routed = self.routing.route(dst).is_some();
        let Some((slot, due)) = self.worm_of.get_mut(&txn_id).filter(|(_, due)| *due > 0) else {
            return Err(if routed {
                Refusal::Orphan
            } else {
                Refusal::Unroutable
            });
        };
        *due -= 1;
        let slot = *slot;
        if !routed {
            self.advance_worm(slot, None);
            return Err(Refusal::Unroutable);
        }
        let out = self.worms[slot as usize].out;
        Ok((slot, self.lane_for(in_port, in_vc, out)))
    }

    /// Whether failed heads may be parked: only when every gate ahead of
    /// the egress checks is trivially open (Fair allocation, no tenant
    /// scheduler). Ramp-up and arbitrated allocation change with time,
    /// and tenant admission counts deferrals as a side effect, so those
    /// heads are re-examined on every sweep as before.
    fn parking(&self) -> bool {
        matches!(self.cfg.allocation, AllocPolicy::Fair) && self.sched.is_none()
    }

    /// Sets a head's state, keeping its input's `Active` count and `ready`
    /// bit in step.
    fn set_head(&mut self, i: usize, l: usize, next: Head) {
        let prev = std::mem::replace(&mut self.heads[i][l], next);
        if prev == Head::Active {
            self.active[i] -= 1;
        }
        if next == Head::Active {
            self.active[i] += 1;
        }
        self.ready.set(i, self.active[i] > 0);
    }

    /// Classifies the (new) front flit of an ingress lane.
    fn refresh_head(&mut self, i: usize, l: usize, now: SimTime) {
        let next = match self.vcq[i][l].front() {
            None => Head::Empty,
            Some(h) if h.ready_at > now => {
                self.timed.push(Reverse((h.ready_at, i, l)));
                Head::Timed
            }
            Some(_) => Head::Active,
        };
        self.set_head(i, l, next);
    }

    fn wait_list(&mut self, wait: Wait) -> &mut Vec<LaneRef> {
        match wait {
            Wait::Link(p) => &mut self.waiters[p].link,
            Wait::Pool(p) => &mut self.waiters[p].pool,
            Wait::Lane(p, v) => {
                let lanes = &mut self.waiters[p].lanes;
                let v = usize::from(v);
                if lanes.len() <= v {
                    lanes.resize_with(v + 1, Vec::new);
                }
                &mut lanes[v]
            }
        }
    }

    /// Parks a head that failed on `wait` (when parking applies).
    fn park(&mut self, i: usize, l: usize, wait: Wait) {
        if self.parking() {
            self.set_head(i, l, Head::Parked);
            self.wait_list(wait).push((i, l));
        }
    }

    /// Re-activates every head parked on `wait`.
    fn wake(&mut self, wait: Wait) {
        let mut list = std::mem::take(self.wait_list(wait));
        for &(i, l) in &list {
            if self.heads[i][l] == Head::Parked {
                self.set_head(i, l, Head::Active);
            }
        }
        list.clear();
        *self.wait_list(wait) = list;
    }

    /// Re-activates every parked head.
    fn wake_all(&mut self) {
        for w in &mut self.waiters {
            w.link.clear();
            w.pool.clear();
            w.lanes.iter_mut().for_each(Vec::clear);
        }
        for i in 0..self.heads.len() {
            for l in 0..self.heads[i].len() {
                if self.heads[i][l] == Head::Parked {
                    self.set_head(i, l, Head::Active);
                }
            }
        }
    }

    fn admit(
        &mut self,
        ctx: &mut Ctx<'_>,
        in_port: usize,
        payload: FlitPayload,
        in_vc: Option<u8>,
    ) {
        let Some(dst) = Self::dst_of(&payload) else {
            // Pure control should have been consumed by the link layer.
            self.ports[in_port].release(ctx, payload.msg_class());
            self.return_in_vc(ctx, in_port, in_vc);
            return;
        };
        let class = payload.msg_class();
        let now = ctx.now();
        // Every discipline fixes the flit's egress here, through its worm.
        let (worm, lane) = match self.admit_worm(in_port, in_vc, &payload, dst, now) {
            Ok(joined) => joined,
            Err(refusal) => {
                match refusal {
                    Refusal::Unroutable => self.unroutable.inc(),
                    Refusal::Orphan => self.orphan_slots += 1,
                    Refusal::DuplicateId => self.duplicate_headers += 1,
                }
                self.ports[in_port].release(ctx, class);
                self.return_in_vc(ctx, in_port, in_vc);
                return;
            }
        };
        let ready_at = now + self.cfg.fwd_latency;
        self.vcq[in_port][lane].push_back(Entry {
            flow: Self::flow_of(&payload),
            payload,
            class,
            ready_at,
            enqueued_at: now,
            in_vc,
            worm,
        });
        if self.vcq[in_port][lane].len() == 1 {
            self.refresh_head(in_port, lane, now);
        }
        self.arm_tick(ctx);
        self.arm_sched_tick(ctx);
        self.request_kick(ctx, ready_at);
    }

    /// Schedules a Kick at `at`, suppressing duplicates: at most one Kick
    /// is pending at a time (redundant kicks at the same ready time would
    /// otherwise multiply into an event storm under contention).
    fn request_kick(&mut self, ctx: &mut Ctx<'_>, at: SimTime) {
        if let Some(t) = self.next_kick_at {
            if t <= at {
                return;
            }
        }
        self.next_kick_at = Some(at);
        ctx.send_self(at - ctx.now(), Kick);
    }

    fn arm_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.tick_armed {
            return;
        }
        if let AllocPolicy::RampUp { window, .. } = self.cfg.allocation {
            self.tick_armed = true;
            ctx.send_self(window, WindowTick);
        }
    }

    /// Arms the tenant scheduler's window rollover, if one is installed
    /// and not already pending. Re-armed from the tick handler while
    /// flits are queued, so an exhausted tenant's flits always have a
    /// refill coming — the admission gate can defer but never strand.
    fn arm_sched_tick(&mut self, ctx: &mut Ctx<'_>) {
        if self.sched_tick_armed {
            return;
        }
        if let Some(sched) = &self.sched {
            self.sched_tick_armed = true;
            ctx.send_self(sched.window(), SchedTick);
        }
    }

    /// Non-consuming tenant admission probe for a flit of `flow`.
    fn sched_admits(&mut self, flow: FlowId) -> bool {
        self.sched.as_mut().is_none_or(|s| s.admits(flow.src))
    }

    fn ramp_state(&mut self, output: usize) -> Option<&mut RampUpState> {
        if let AllocPolicy::RampUp {
            floor,
            ceiling,
            pool,
            ..
        } = self.cfg.allocation
        {
            let inputs = self.ports.len();
            Some(
                self.ramp[output]
                    .get_or_insert_with(|| RampUpState::new(inputs, floor, ceiling, pool)),
            )
        } else {
            None
        }
    }

    /// Whether the allocation policy lets input `i` send to `out` now.
    /// Returns the retry time if the flit is rate-limited. The reserved
    /// phase runs only under [`AllocPolicy::Arbitrated`] (see `schedule`).
    fn policy_gate(
        &mut self,
        i: usize,
        out: usize,
        flow: FlowId,
        now: SimTime,
        reserved_phase: bool,
    ) -> Result<(), Option<SimTime>> {
        match self.cfg.allocation {
            AllocPolicy::Fair => Ok(()),
            AllocPolicy::RampUp { .. } => {
                // ramp_state is Some whenever the policy is RampUp; treat
                // the impossible None as "no allocation gate".
                match self.ramp_state(out) {
                    Some(state) if !state.may_send(i) => Err(None),
                    _ => Ok(()),
                }
            }
            AllocPolicy::Arbitrated => {
                let is_reserved = self.flows.contains_key(&flow);
                if is_reserved != reserved_phase {
                    return Err(None);
                }
                if let Some(bucket) = self.flows.get_mut(&flow) {
                    let bytes = self.cfg.phys.flit_mode.bytes();
                    let at = bucket.earliest(now, bytes);
                    if at > now {
                        return Err(Some(at));
                    }
                }
                Ok(())
            }
        }
    }

    fn record_send(&mut self, i: usize, out: usize, flow: FlowId, now: SimTime) {
        if let Some(state) = self.ramp_state(out) {
            state.on_send(i);
        }
        if let Some(bucket) = self.flows.get_mut(&flow) {
            bucket.force_consume(now, self.cfg.phys.flit_mode.bytes());
        }
        if let Some(sched) = self.sched.as_mut() {
            sched.charge(flow.src);
        }
    }

    /// One scheduling sweep: move every dispatchable flit to its egress.
    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        let n = self.ports.len();
        let mut next_kick: Option<SimTime> = None;
        self.prepare_sweep(now);
        // Reserved traffic first (only meaningful under Arbitrated).
        for reserved_phase in [true, false] {
            if reserved_phase && !matches!(self.cfg.allocation, AllocPolicy::Arbitrated) {
                continue;
            }
            let mut progress = true;
            while progress {
                progress = false;
                // One round visits the inputs with sweep work in rotation
                // order from `rr_input`. The mask is re-read at every step,
                // so a head woken mid-round is seen by the inputs after it.
                let rr = self.rr_input;
                for (from, to) in [(rr, n), (0, rr)] {
                    let mut at = from;
                    while let Some(i) = self.ready.next_in(at, to) {
                        if self.try_dispatch(ctx, i, now, reserved_phase, &mut next_kick) {
                            progress = true;
                        }
                        at = i + 1;
                    }
                }
                self.rr_input = (self.rr_input + 1) % n;
            }
        }
        // Heads still inside the forwarding latency are never examined;
        // the earliest of them bounds the next sweep, as it would have had
        // the sweep looked at each.
        if let Some(&Reverse((at, _, _))) = self.timed.peek() {
            self.note_kick(&mut next_kick, at);
        }
        if let Some(at) = next_kick {
            self.request_kick(ctx, at);
        }
    }

    /// Activates heads whose forwarding latency has passed and, if the
    /// routing table changed since the last sweep, every parked head: a
    /// wormhole header's escape-lane eligibility may have changed.
    fn prepare_sweep(&mut self, now: SimTime) {
        while let Some(&Reverse((at, i, l))) = self.timed.peek() {
            if at > now {
                break;
            }
            self.timed.pop();
            if self.heads[i][l] == Head::Timed {
                self.set_head(i, l, Head::Active);
            }
        }
        if self.routing.version() != self.routes_seen {
            self.routes_seen = self.routing.version();
            self.wake_all();
        }
    }

    /// Attempts to dispatch one flit from input `i`'s `Active` heads;
    /// returns whether one moved (or was dropped).
    ///
    /// Lanes are independent: a head stalled on one egress never blocks
    /// another lane of the same input. Under VOQ that ends head-of-line
    /// blocking; under wormhole it is the lane isolation the deadlock
    /// argument rests on. A head inside the forwarding latency waits in
    /// the timed heap, and one that fails an egress gate is parked on that
    /// resource until an event that can free it (see [`Wait`]); skipping
    /// either cannot change the outcome, because examining it would fail
    /// without side effects.
    fn try_dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        i: usize,
        now: SimTime,
        reserved_phase: bool,
        next_kick: &mut Option<SimTime>,
    ) -> bool {
        // VOQ scans outputs `(i + o) % n`, so each input favours a
        // different output.
        let start = if self.cfg.queueing == QueueDiscipline::Voq {
            i
        } else {
            0
        };
        for l in (start..self.vcq[i].len()).chain(0..start) {
            if self.heads[i][l] != Head::Active {
                continue;
            }
            let Some((flow, class, slot, dst)) = self.vcq[i][l].front().map(|h| {
                debug_assert!(h.ready_at <= now, "active heads are ready");
                (h.flow, h.class, h.worm, Self::dst_of(&h.payload))
            }) else {
                continue;
            };
            // The head leaves by its worm's egress, fixed at admission.
            let worm = self.worms[slot as usize];
            let out = worm.out;
            match self.policy_gate(i, out, flow, now, reserved_phase) {
                Ok(()) => {}
                Err(Some(at)) => {
                    self.note_kick(next_kick, at);
                    continue;
                }
                // A FIFO input's whole queue waits behind its head.
                Err(None) => continue,
            }
            // Tenant out of partition credits: wait for the SchedTick refill.
            if !self.sched_admits(flow) {
                continue;
            }
            // The egress link, then the worm's per-VC gate. A refused head
            // parks on the resource; its egress stays fixed.
            let gate = if self.ports[out].link.can_send(class) {
                self.vc_gate(&worm, dst)
            } else {
                Err(Wait::Link(out))
            };
            let out_vc = match gate {
                Ok(v) => v,
                Err(wait) => {
                    self.park(i, l, wait);
                    continue;
                }
            };
            let Some(entry) = self.vcq[i][l].pop_front() else {
                continue;
            };
            self.refresh_head(i, l, now);
            self.advance_worm(slot, out_vc);
            self.finish_dispatch(ctx, i, out, entry, now, out_vc);
            return true;
        }
        false
    }

    /// The per-VC egress gate of a worm's next flit: the lane it holds,
    /// or for a header a newly allocated one. Escape lane 0 is eligible
    /// only when the egress is the destination's primary (deterministic)
    /// route. `Ok(None)` when the egress has no VC flow control or the
    /// switch does not switch wormhole.
    fn vc_gate(&mut self, worm: &Worm, dst: Option<NodeId>) -> Result<Option<u8>, Wait> {
        let out = worm.out;
        let wormhole = self.cfg.queueing == QueueDiscipline::Wormhole;
        let Some(vl) = self.vc_links[out].as_mut().filter(|_| wormhole) else {
            return Ok(None);
        };
        match worm.lane {
            Some(v) if vl.can_send(v) => Ok(Some(v)),
            Some(v) => Err(Wait::Lane(out, v)),
            None => {
                let escape_ok = dst
                    .and_then(|d| self.routing.route(d))
                    .is_some_and(|c| c.first() == Some(&out));
                vl.allocate(worm.id, escape_ok)
                    .map(Some)
                    .ok_or(Wait::Pool(out))
            }
        }
    }

    /// Books one flit of the worm in `slot` as gone: dispatched on its
    /// egress lane `out_vc`, or dropped (`None`, no lane credit spent).
    /// The tail frees the slot and releases the worm's lane.
    fn advance_worm(&mut self, slot: WormSlot, out_vc: Option<u8>) {
        let worm = &mut self.worms[slot as usize];
        worm.remaining -= 1;
        worm.lane = out_vc.or(worm.lane);
        let Worm {
            id,
            out,
            lane,
            remaining,
        } = *worm;
        self.committed[out] -= 1;
        if let Some(v) = out_vc {
            if let Some(vl) = self.vc_links[out].as_mut() {
                vl.consume(v, id);
            }
        }
        if remaining > 0 {
            return;
        }
        self.free_worms.push(slot);
        // A lone header's worm is not indexed; the index may then name
        // another worm with this id.
        if let MapEntry::Occupied(e) = self.worm_of.entry(id) {
            if e.get().0 == slot {
                e.remove();
            }
        }
        if let Some(v) = lane {
            if let Some(vl) = self.vc_links[out].as_mut() {
                vl.release(v);
            }
            self.wake(Wait::Pool(out));
        }
    }

    fn finish_dispatch(
        &mut self,
        ctx: &mut Ctx<'_>,
        i: usize,
        out: usize,
        entry: Entry,
        now: SimTime,
        out_vc: Option<u8>,
    ) {
        self.record_send(i, out, entry.flow, now);
        self.queue_delay_ps.add((now - entry.enqueued_at).as_ps());
        if self.trace.is_enabled() {
            let ctx_id = entry.payload.trace_ctx();
            // Crossbar transit (fixed fwd latency), then any time the flit
            // sat *ready* but undispatched: egress credit starvation under
            // Fair allocation, allocator gating otherwise.
            self.trace.span_merged(
                "switch",
                "switch.forward",
                entry.enqueued_at,
                entry.ready_at,
                ctx_id,
            );
            let (cat, name) = if self.cfg.queueing == QueueDiscipline::Wormhole {
                // Under wormhole switching, ready-but-undispatched time is
                // dominated by per-lane credit/allocation waits.
                ("credit", "switch.vc_wait")
            } else {
                match self.cfg.allocation {
                    AllocPolicy::Fair => ("credit", "switch.credit_wait"),
                    AllocPolicy::RampUp { .. } | AllocPolicy::Arbitrated => {
                        ("arb", "switch.arb_wait")
                    }
                }
            };
            self.trace
                .span_nonzero_merged(cat, name, entry.ready_at, now, ctx_id);
        }
        self.forwarded.inc();
        self.ports[out].send_now_vc(ctx, entry.payload, out_vc);
        self.ports[i].release(ctx, entry.class);
        self.return_in_vc(ctx, i, entry.in_vc);
    }

    #[allow(clippy::trivially_copy_pass_by_ref)]
    fn note_kick(&self, next: &mut Option<SimTime>, at: SimTime) {
        match next {
            Some(t) if *t <= at => {}
            _ => *next = Some(at),
        }
    }

    fn on_flit(&mut self, ctx: &mut Ctx<'_>, in_port: usize, fm: FlitMsg) {
        match self.ports[in_port].receive(ctx, fm) {
            PortEvent::Delivered(payload, in_vc) => self.admit(ctx, in_port, payload, in_vc),
            PortEvent::CreditFreed => {
                self.wake(Wait::Link(in_port));
                self.schedule(ctx);
            }
            PortEvent::VcCreditReturned { vc, credits } => {
                if let Some(vl) = self.vc_links[in_port].as_mut() {
                    vl.refund(vc, credits);
                }
                self.wake(Wait::Lane(in_port, vc));
                self.wake(Wait::Pool(in_port));
                self.schedule(ctx);
            }
            PortEvent::Quiet => {}
        }
    }
}

impl Component for FabricSwitch {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let src = msg.src;
        let msg = match msg.downcast::<FlitMsg>() {
            Ok(fm) => {
                // Flits arrive only from a wired peer; a flit without a
                // source or from an unconnected one has no input port.
                let Some(i) = src.and_then(|src| self.peer_slot(src).ok()) else {
                    return ctx.reject("flit from an unconnected component");
                };
                let port = self.peer_to_port[i].1;
                self.on_flit(ctx, port, fm);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Kick>() {
            Ok(Kick) => {
                // Clear before sweeping so the sweep may arm a new kick.
                if self.next_kick_at.is_some_and(|t| t <= ctx.now()) {
                    self.next_kick_at = None;
                }
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<WindowTick>() {
            Ok(WindowTick) => {
                for state in self.ramp.iter_mut().flatten() {
                    debug_assert!(state.audit().is_ok(), "{:?}", state.audit());
                    state.rollover();
                    debug_assert!(state.audit().is_ok(), "{:?}", state.audit());
                }
                self.tick_armed = false;
                if self.queued() > 0 {
                    self.arm_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<SchedTick>() {
            Ok(SchedTick) => {
                if let Some(sched) = self.sched.as_mut() {
                    debug_assert!(sched.audit().is_ok(), "{:?}", sched.audit());
                    sched.rollover();
                    debug_assert!(sched.audit().is_ok(), "{:?}", sched.audit());
                }
                self.sched_tick_armed = false;
                if self.queued() > 0 {
                    self.arm_sched_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallScheduler>() {
            Ok(r) => {
                self.install_scheduler(r.sched);
                if self.queued() > 0 {
                    self.arm_sched_tick(ctx);
                    self.schedule(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallPbrRoute>() {
            Ok(r) => {
                self.routing.add_pbr(r.dst, r.port);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemovePbrRoute>() {
            Ok(r) => {
                self.routing.remove_pbr(r.dst);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<InstallRate>() {
            Ok(r) => {
                self.flows
                    .insert(r.flow, TokenBucket::new(r.gbps, r.burst_bytes.max(1)));
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RemoveRate>() {
            Ok(r) => {
                self.flows.remove(&r.flow);
                self.schedule(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<DiscoverReq>() {
            Ok(req) => {
                let peers: Vec<ComponentId> = (0..self.ports.len())
                    .map(|p| self.ports[p].peer())
                    .collect();
                let rsp = DiscoverRsp {
                    switch: ctx.self_id(),
                    peers,
                };
                ctx.send(req.reply_to, SimTime::from_ns(100.0), rsp);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        for (i, row) in self.vcq.iter().enumerate() {
            for (l, q) in row.iter().enumerate() {
                let Some(head) = q.front() else {
                    continue;
                };
                let n = q.len();
                let what = match self.cfg.queueing {
                    QueueDiscipline::Fifo => format!("{n} flit(s) queued at input {i}"),
                    QueueDiscipline::Voq => format!("{n} flit(s) queued input {i} -> output {l}"),
                    QueueDiscipline::Wormhole => format!("{n} flit(s) queued input {i} lane {l}"),
                };
                // The lane waits on its head's egress, named by its worm.
                let egress = self.worms[head.worm as usize].out;
                out.push(PendingWork {
                    what,
                    waiting_on: self.ports[egress].peer_opt(),
                });
            }
        }
        for (p, port) in self.ports.iter().enumerate() {
            if port.pending_len() > 0 {
                out.push(PendingWork {
                    what: format!(
                        "{} payload(s) awaiting tx credit on port {p}",
                        port.pending_len()
                    ),
                    waiting_on: port.peer_opt(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lanes per input, checking that `heads` matches `vcq`.
    fn lane_counts(sw: &FabricSwitch) -> Vec<usize> {
        assert_eq!(sw.vcq.len(), sw.port_count());
        for (q, h) in sw.vcq.iter().zip(&sw.heads) {
            assert_eq!(q.len(), h.len());
        }
        sw.vcq.iter().map(Vec::len).collect()
    }

    #[test]
    fn port_growth_keeps_voq_square() {
        let mut sw = FabricSwitch::new(SwitchConfig::fabrex_like());
        for _ in 0..3 {
            sw.add_port();
        }
        assert_eq!(lane_counts(&sw), [3; 3]);
        // A flit queued toward output 2 stays in its lane as ports are
        // added.
        sw.vcq[0][2].push_back(Entry {
            payload: FlitPayload::Idle,
            class: MsgClass::Req,
            ready_at: SimTime::ZERO,
            flow: FabricSwitch::flow_of(&FlitPayload::Idle),
            enqueued_at: SimTime::ZERO,
            in_vc: None,
            worm: 0,
        });
        for _ in 0..2 {
            sw.add_port();
        }
        assert_eq!(sw.port_count(), 5);
        assert_eq!(lane_counts(&sw), [5; 5]);
        assert_eq!(sw.vcq[0][2].len(), 1);
        assert_eq!(sw.queued(), 1);
    }

    #[test]
    fn only_voq_switches_grow_the_voq_matrix() {
        let vc = VcConfig {
            vcs: 3,
            buf_flits: 4,
        };
        for (queueing, lanes) in [
            (QueueDiscipline::Fifo, [1, 1, 1]),
            (QueueDiscipline::Wormhole, [1, 3, 1]),
            (QueueDiscipline::Voq, [3, 3, 3]),
        ] {
            let cfg = SwitchConfig {
                queueing,
                ..SwitchConfig::fabrex_like()
            };
            let mut sw = FabricSwitch::new(cfg);
            for _ in 0..3 {
                sw.add_port();
            }
            sw.set_vc_link(1, vc);
            assert_eq!(lane_counts(&sw), lanes, "{queueing:?}");
        }
        // A one-VC link still gets the escape lane and one adaptive lane.
        let mut sw = FabricSwitch::new(SwitchConfig {
            queueing: QueueDiscipline::Wormhole,
            ..SwitchConfig::fabrex_like()
        });
        sw.add_port();
        sw.set_vc_link(0, VcConfig { vcs: 1, ..vc });
        assert_eq!(lane_counts(&sw), [2]);
    }

    #[test]
    fn flow_extraction() {
        use fcc_proto::channel::{MemOpcode, Transaction, TransactionKind};
        let t = FlitPayload::Transaction(Transaction {
            id: 1,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: 0,
            bytes: 0,
            src: NodeId(3),
            dst: NodeId(9),
        });
        assert_eq!(
            FabricSwitch::flow_of(&t),
            FlowId {
                src: NodeId(3),
                dst: NodeId(9)
            }
        );
        assert_eq!(FabricSwitch::dst_of(&t), Some(NodeId(9)));
        let d = FlitPayload::Data {
            txn_id: 1,
            slot: 0,
            src: NodeId(3),
            dst: NodeId(9),
        };
        assert_eq!(FabricSwitch::dst_of(&d), Some(NodeId(9)));
        assert_eq!(FabricSwitch::dst_of(&FlitPayload::Idle), None);
    }

    #[test]
    fn scheduler_gates_mapped_tenants_and_audits_clean() {
        use fcc_sched::{CreditPartition, TenantShare};
        use fcc_sim::SimTime;

        let mut sw = FabricSwitch::new(SwitchConfig::fabrex_like());
        let mut part = CreditPartition::new(4);
        part.add_tenant(
            7,
            TenantShare {
                group: 0,
                weight: 1,
                floor: 1,
            },
        );
        let mut sched = FabricScheduler::new(part, SimTime::from_ns(1000.0));
        sched.map_node(NodeId(3), 7);
        sw.install_scheduler(sched);

        let mapped = FlowId {
            src: NodeId(3),
            dst: NodeId(9),
        };
        let unmapped = FlowId {
            src: NodeId(5),
            dst: NodeId(9),
        };
        // The mapped tenant drains its whole allocation, then defers;
        // unmapped sources stay ungoverned throughout.
        for _ in 0..4 {
            assert!(sw.sched_admits(mapped));
            sw.record_send(0, 0, mapped, SimTime::ZERO);
        }
        assert!(!sw.sched_admits(mapped));
        assert!(sw.sched_admits(unmapped));
        let sched = sw.scheduler().unwrap();
        assert_eq!(sched.admitted, 4);
        assert_eq!(sched.deferred, 1);
        assert!(sw.audit().is_clean(), "{:?}", sw.audit());
        // A window rollover refills the partition.
        sw.scheduler_mut().unwrap().rollover();
        assert!(sw.sched_admits(mapped));
    }

    /// Hand-driven rigs for the head parking rules: probe endpoints
    /// inject flits into a switch and hold whatever it delivers until told
    /// to free it, so each test controls exactly which egress resource a
    /// head waits on and which event frees it.
    mod parking {
        use fcc_proto::channel::{MemOpcode, Transaction, TransactionKind};
        use fcc_sim::Engine;

        use super::*;

        const DST: NodeId = NodeId(9);
        const ELSEWHERE: NodeId = NodeId(10);

        enum Cmd {
            Send(FlitPayload, Option<u8>),
            /// Frees every held flit that arrived on lane `vc`: returns its
            /// link credit and, when tagged, its VC credit.
            Free(Option<u8>),
            /// Returns a VC credit the probe never consumed (white-box
            /// refund of a lane the test drained by hand).
            Refund(u8),
        }

        struct Probe {
            port: LinkPort,
            held: Vec<(MsgClass, Option<u8>)>,
            got: Vec<(FlitPayload, Option<u8>)>,
        }

        impl Component for Probe {
            fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
                match msg.downcast::<Cmd>() {
                    Ok(Cmd::Send(p, vc)) => self.port.send_now_vc(ctx, p, vc),
                    Ok(Cmd::Free(lane)) => {
                        let (free, keep) = self.held.drain(..).partition(|&(_, v)| v == lane);
                        self.held = keep;
                        for (class, vc) in free {
                            self.port.release(ctx, class);
                            if let Some(v) = vc {
                                self.port.return_vc_credit(ctx, v, 1);
                            }
                        }
                    }
                    Ok(Cmd::Refund(v)) => self.port.return_vc_credit(ctx, v, 1),
                    Err(msg) => {
                        let fm = msg.downcast::<FlitMsg>().expect("flit");
                        if let PortEvent::Delivered(p, vc) = self.port.receive(ctx, fm) {
                            self.held.push((p.msg_class(), vc));
                            self.got.push((p, vc));
                        }
                    }
                }
            }
        }

        struct Rig {
            engine: Engine,
            sw: ComponentId,
            inputs: Vec<ComponentId>,
            /// Egress probes; `sinks[k]` sits on switch port `out + k`.
            sinks: Vec<ComponentId>,
            out: usize,
        }

        impl Rig {
            /// A wormhole switch with `inputs` probe ports (`in_vc` lanes
            /// on each when set) and `sinks` egress probes (`out_vc` on
            /// each when set, link credits per `credit`). `DST` routes to
            /// the first egress, `ELSEWHERE` to the last.
            fn new(
                inputs: usize,
                in_vc: Option<VcConfig>,
                sinks: usize,
                out_vc: Option<VcConfig>,
                credit: CreditConfig,
            ) -> Rig {
                let cfg = SwitchConfig {
                    queueing: QueueDiscipline::Wormhole,
                    ..SwitchConfig::fabrex_like()
                };
                Rig::build(cfg, inputs, in_vc, sinks, out_vc, credit)
            }

            /// The same rig around a FIFO switch, without VC links.
            fn fifo(inputs: usize, sinks: usize, credit: CreditConfig, adaptive: bool) -> Rig {
                let cfg = SwitchConfig {
                    queueing: QueueDiscipline::Fifo,
                    adaptive,
                    ..SwitchConfig::fabrex_like()
                };
                Rig::build(cfg, inputs, None, sinks, None, credit)
            }

            /// The same rig around a VOQ switch, without VC links.
            fn voq(inputs: usize, sinks: usize, credit: CreditConfig) -> Rig {
                let cfg = SwitchConfig {
                    queueing: QueueDiscipline::Voq,
                    ..SwitchConfig::fabrex_like()
                };
                Rig::build(cfg, inputs, None, sinks, None, credit)
            }

            fn build(
                cfg: SwitchConfig,
                inputs: usize,
                in_vc: Option<VcConfig>,
                sinks: usize,
                out_vc: Option<VcConfig>,
                credit: CreditConfig,
            ) -> Rig {
                let mut engine = Engine::new(1);
                let sw = engine.add_component("sw", FabricSwitch::new(cfg));
                let mut rig = Rig {
                    engine,
                    sw,
                    inputs: Vec::new(),
                    sinks: Vec::new(),
                    out: inputs,
                };
                for k in 0..inputs {
                    let id = rig.attach(format!("in{k}"), CreditConfig::default(), in_vc);
                    rig.inputs.push(id);
                }
                for k in 0..sinks {
                    let id = rig.attach(format!("out{k}"), credit, out_vc);
                    rig.sinks.push(id);
                }
                let out = rig.out;
                let s = rig.switch_mut();
                s.routing.add_pbr(DST, out);
                s.routing.add_pbr(ELSEWHERE, out + sinks - 1);
                rig
            }

            /// Wires a new probe to a new switch port (also mid-run).
            fn attach(
                &mut self,
                name: String,
                credit: CreditConfig,
                vc: Option<VcConfig>,
            ) -> ComponentId {
                let phys = self.switch().cfg.phys;
                let port = LinkPort::new(phys, credit);
                let (held, got) = (Vec::new(), Vec::new());
                let id = self.engine.add_component(name, Probe { port, held, got });
                let s = self.switch_mut();
                let p = s.add_port_with(phys, credit);
                s.connect(p, id);
                if let Some(vc) = vc {
                    s.set_vc_link(p, vc);
                }
                self.engine.component_mut::<Probe>(id).port.connect(self.sw);
                id
            }

            fn out(&self) -> usize {
                self.out
            }

            fn switch(&self) -> &FabricSwitch {
                self.engine.component::<FabricSwitch>(self.sw)
            }

            fn switch_mut(&mut self) -> &mut FabricSwitch {
                self.engine.component_mut::<FabricSwitch>(self.sw)
            }

            fn send(&mut self, at_us: f64, input: usize, flits: Vec<FlitPayload>, vc: Option<u8>) {
                for f in flits {
                    let id = self.inputs[input];
                    self.engine
                        .post(id, SimTime::from_us(at_us), Cmd::Send(f, vc));
                }
            }

            fn cmd(&mut self, at_us: f64, sink: usize, cmd: Cmd) {
                let id = self.sinks[sink];
                self.engine.post(id, SimTime::from_us(at_us), cmd);
            }

            fn post_to_switch<T: Send + 'static>(&mut self, at_us: f64, msg: T) {
                self.engine.post(self.sw, SimTime::from_us(at_us), msg);
            }

            fn run_until_us(&mut self, at_us: f64) {
                self.engine.run_until(SimTime::from_us(at_us));
            }

            fn delivered(&self, sink: usize) -> usize {
                self.engine.component::<Probe>(self.sinks[sink]).got.len()
            }

            /// The VC tag of every flit `sink` received, in arrival order.
            fn lanes(&self, sink: usize) -> Vec<Option<u8>> {
                let got = &self.engine.component::<Probe>(self.sinks[sink]).got;
                got.iter().map(|&(_, vc)| vc).collect()
            }

            fn head(&self, input: usize, lane: usize) -> Head {
                self.switch().heads[input][lane]
            }
        }

        fn worm(id: u64, dst: NodeId, data_flits: u64) -> Vec<FlitPayload> {
            let mode = PhysConfig::omega_like().flit_mode;
            let (kind, bytes) = if data_flits == 0 {
                (MemOpcode::MemRd, 0)
            } else {
                (MemOpcode::MemWr, data_flits * mode.payload_bytes())
            };
            let src = NodeId(1);
            let mut flits = vec![FlitPayload::Transaction(Transaction {
                id,
                kind: TransactionKind::Mem(kind),
                addr: 0,
                bytes: bytes as u32,
                src,
                dst,
            })];
            flits.extend((0..data_flits).map(|slot| FlitPayload::Data {
                txn_id: id,
                slot: slot as u32,
                src,
                dst,
            }));
            flits
        }

        fn vcs(vcs: u8, buf_flits: u32) -> Option<VcConfig> {
            Some(VcConfig { vcs, buf_flits })
        }

        /// One link credit per class on the egress, returned at once.
        fn one_credit() -> CreditConfig {
            CreditConfig {
                buffer_flits: 4,
                return_threshold: 1,
                ..CreditConfig::default()
            }
        }

        /// Reads (single header flits, Req class) toward `dst`.
        fn reads(first_id: u64, dst: NodeId, n: u64) -> Vec<FlitPayload> {
            (first_id..first_id + n)
                .flat_map(|id| worm(id, dst, 0))
                .collect()
        }

        #[test]
        fn body_on_empty_held_lane_waits_for_its_own_refund() {
            let mut rig = Rig::new(2, None, 1, vcs(3, 1), CreditConfig::default());
            // Worm A's header takes escape lane 0 and its only credit; the
            // body parks on that lane.
            rig.send(0.0, 0, worm(1, DST, 2), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.delivered(0), 1);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Worm B on another input allocates lane 1 of the same egress
            // and moves while A stays parked.
            rig.send(1.0, 1, worm(2, DST, 1), None);
            rig.run_until_us(2.0);
            assert_eq!(rig.lanes(0), [Some(0), Some(1)], "B's header on lane 1");
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Lane 1's refund moves B's tail, not A's body.
            rig.cmd(2.0, 0, Cmd::Free(Some(1)));
            rig.run_until_us(3.0);
            assert_eq!(rig.delivered(0), 3);
            assert_eq!(rig.head(1, 0), Head::Empty);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Lane 0's refund moves A's body (its last flit parks again).
            rig.cmd(3.0, 0, Cmd::Free(Some(0)));
            rig.run_until_us(4.0);
            assert_eq!(rig.delivered(0), 4);
            assert_eq!(rig.head(0, 0), Head::Parked);
            rig.cmd(4.0, 0, Cmd::Free(Some(0)));
            rig.engine.run_until_idle();
            assert_eq!(rig.delivered(0), 5);
            assert_eq!(rig.head(0, 0), Head::Empty);
            assert!(rig.switch().worm_of.is_empty());
        }

        #[test]
        fn header_parked_on_allocation_moves_on_lane_release() {
            let mut rig = Rig::new(3, None, 1, vcs(2, 4), CreditConfig::default());
            // A and B each hold one of the two lanes; their tails are
            // withheld.
            rig.send(0.0, 0, worm(1, DST, 2)[..2].to_vec(), None);
            rig.send(0.0, 1, worm(2, DST, 2)[..2].to_vec(), None);
            rig.send(1.0, 2, worm(3, DST, 0), None);
            rig.run_until_us(2.0);
            assert_eq!(rig.delivered(0), 4);
            assert_eq!(rig.head(2, 0), Head::Parked, "C has no lane to allocate");
            // A's tail releases its lane, which C takes in the same sweep.
            rig.send(2.0, 0, worm(1, DST, 2)[2..].to_vec(), None);
            rig.run_until_us(3.0);
            assert_eq!(rig.delivered(0), 6);
            assert_eq!(rig.head(2, 0), Head::Empty);
        }

        #[test]
        fn head_parked_on_link_credits_moves_on_credit_update() {
            // One credit per class on the egress link, returned at once.
            let credit = CreditConfig {
                buffer_flits: 4,
                return_threshold: 1,
                ..CreditConfig::default()
            };
            let mut rig = Rig::new(1, None, 1, None, credit);
            rig.send(0.0, 0, [worm(1, DST, 0), worm(2, DST, 0)].concat(), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.delivered(0), 1);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Freeing the first read returns a CreditUpdate.
            rig.cmd(1.0, 0, Cmd::Free(None));
            rig.run_until_us(2.0);
            assert_eq!(rig.delivered(0), 2);
            assert_eq!(rig.head(0, 0), Head::Empty);
        }

        #[test]
        fn route_changes_re_evaluate_escape_eligibility() {
            let mut rig = Rig::new(2, None, 2, vcs(2, 1), CreditConfig::default());
            let (out, alt) = (rig.out(), rig.out() + 1);
            {
                // White-box: lane 1 held by a phantom worm; lane 0 free but
                // drained, so a header can only take lane 0 after a refund.
                let vl = rig.switch_mut().vc_links[out].as_mut().expect("vc link");
                vl.consume(1, 999);
                vl.consume(0, 998);
                vl.release(0);
            }
            rig.send(0.0, 0, worm(1, DST, 0), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Make `alt` DST's primary route: lane 0 is now out of bounds
            // for a worm leaving through `out`, so lane 0's refund wakes
            // the header only for it to park again.
            rig.post_to_switch(1.0, RemovePbrRoute { dst: DST });
            rig.post_to_switch(
                1.0,
                InstallPbrRoute {
                    dst: DST,
                    port: alt,
                },
            );
            rig.post_to_switch(
                1.0,
                InstallPbrRoute {
                    dst: DST,
                    port: out,
                },
            );
            rig.cmd(1.5, 0, Cmd::Refund(0));
            rig.run_until_us(2.0);
            assert_eq!(rig.delivered(0), 0);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Restoring `out` as the primary route is the only change; the
            // next sweep (kicked by unrelated traffic to `alt`) moves it.
            rig.post_to_switch(2.0, RemovePbrRoute { dst: DST });
            rig.post_to_switch(
                2.0,
                InstallPbrRoute {
                    dst: DST,
                    port: out,
                },
            );
            rig.send(2.5, 1, worm(2, ELSEWHERE, 0), None);
            rig.run_until_us(3.0);
            assert_eq!(rig.delivered(1), 1);
            assert_eq!(rig.delivered(0), 1, "escape lane 0 allocated");
            assert_eq!(rig.head(0, 0), Head::Empty);
        }

        #[test]
        fn parked_worms_still_show_in_detach_and_outstanding() {
            let mut rig = Rig::new(1, None, 1, vcs(2, 1), CreditConfig::default());
            rig.send(0.0, 0, worm(1, DST, 1), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.head(0, 0), Head::Parked);
            let out = rig.out();
            let sink = rig.sinks[0];
            let sw = rig.switch_mut();
            let err = sw.detach_port(out).expect_err("worm in transit");
            assert!(err.contains("1 flit(s) committed toward it"), "{err}");
            let mut pending = Vec::new();
            sw.outstanding(&mut pending);
            assert!(
                pending
                    .iter()
                    .any(|w| w.what.contains("input 0 lane 0") && w.waiting_on == Some(sink)),
                "{pending:?}"
            );
        }

        #[test]
        fn lanes_above_64_park_and_wake() {
            let mut rig = Rig::new(1, vcs(100, 4), 1, vcs(100, 1), CreditConfig::default());
            let out = rig.out();
            {
                let sw = rig.switch_mut();
                assert_eq!(sw.vcq[0].len(), 100);
                assert_eq!(sw.heads[0].len(), 100);
                // White-box: every egress lane but the last is held.
                let vl = sw.vc_links[out].as_mut().expect("vc link");
                for v in 0..99 {
                    vl.consume(v, 1000 + u64::from(v));
                }
            }
            // The worm arrives on ingress lane 99, takes egress lane 99,
            // and its body parks on that lane's empty ledger.
            rig.send(0.0, 0, worm(1, DST, 1), Some(99));
            rig.run_until_us(1.0);
            assert_eq!(rig.head(0, 99), Head::Parked);
            assert_eq!(rig.delivered(0), 1);
            rig.cmd(1.0, 0, Cmd::Free(Some(99)));
            rig.run_until_us(2.0);
            assert_eq!(rig.head(0, 99), Head::Empty);
            assert_eq!(rig.lanes(0), [Some(99), Some(99)]);
        }

        #[test]
        fn fifo_head_parked_on_link_credits_waits_out_other_inputs() {
            let mut rig = Rig::fifo(2, 2, one_credit(), false);
            rig.send(0.0, 0, reads(1, DST, 2), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.delivered(0), 1);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Input 1 dispatches to another egress, twice; the parked head
            // is not touched by those sweeps.
            rig.send(1.0, 1, reads(10, ELSEWHERE, 1), None);
            rig.cmd(1.5, 1, Cmd::Free(None));
            rig.send(2.0, 1, reads(11, ELSEWHERE, 1), None);
            rig.run_until_us(3.0);
            assert_eq!(rig.delivered(1), 2);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Freeing the first read returns a CreditUpdate on its egress.
            rig.cmd(3.0, 0, Cmd::Free(None));
            rig.run_until_us(4.0);
            assert_eq!(rig.delivered(0), 2);
            assert_eq!(rig.head(0, 0), Head::Empty);
        }

        #[test]
        fn fifo_head_parked_on_retry_window_moves_on_ack() {
            // Plenty of credits, but one unacked flit fills the retry
            // window: the second read parks until the sink's ack for the
            // first comes back, a round trip (~52 ns) after it left.
            let credit = CreditConfig {
                retry_depth: 1,
                ..CreditConfig::default()
            };
            let mut rig = Rig::fifo(1, 1, credit, false);
            rig.send(0.0, 0, reads(1, DST, 2), None);
            rig.run_until_us(0.15);
            assert_eq!(rig.delivered(0), 1);
            assert_eq!(rig.head(0, 0), Head::Parked);
            rig.run_until_us(1.0);
            assert_eq!(rig.delivered(0), 2);
            assert_eq!(rig.head(0, 0), Head::Empty);
        }

        #[test]
        fn route_edits_wake_parked_fifo_heads() {
            let mut rig = Rig::fifo(1, 2, one_credit(), false);
            let (out, alt) = (rig.out(), rig.out() + 1);
            rig.send(0.0, 0, reads(1, DST, 2), None);
            rig.run_until_us(1.0);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // A sweep with no route change leaves it parked.
            rig.post_to_switch(1.0, Kick);
            rig.run_until_us(1.5);
            assert_eq!(rig.head(0, 0), Head::Parked);
            // Moving the route to the idle `alt` wakes it, but its egress
            // was fixed at admission: it parks again on `out`'s link.
            rig.post_to_switch(1.5, RemovePbrRoute { dst: DST });
            rig.post_to_switch(
                1.5,
                InstallPbrRoute {
                    dst: DST,
                    port: alt,
                },
            );
            rig.post_to_switch(1.5, Kick);
            rig.run_until_us(2.0);
            assert_eq!(rig.head(0, 0), Head::Parked);
            assert_eq!(rig.switch().waiters[out].link, [(0, 0)]);
            assert_eq!((rig.delivered(0), rig.delivered(1)), (1, 0));
            // A credit on `out` moves it there; a read admitted after the
            // edit takes the new route.
            rig.cmd(2.0, 0, Cmd::Free(None));
            rig.send(2.0, 0, reads(3, DST, 1), None);
            rig.run_until_us(3.0);
            assert_eq!((rig.delivered(0), rig.delivered(1)), (2, 1));
            assert_eq!(rig.head(0, 0), Head::Empty);
        }

        #[test]
        fn adaptive_transfers_leave_by_their_headers_egress() {
            for queueing in [QueueDiscipline::Fifo, QueueDiscipline::Voq] {
                let cfg = SwitchConfig {
                    queueing,
                    adaptive: true,
                    ..SwitchConfig::fabrex_like()
                };
                let mut rig = Rig::build(cfg, 1, None, 2, None, one_credit());
                let alt = rig.out() + 1;
                rig.switch_mut().routing.add_pbr(DST, alt);
                // The header goes alone: the candidates tie, the lower port
                // wins, and the header takes that egress's one credit.
                let write = worm(1, DST, 2);
                rig.send(0.0, 0, write[..1].to_vec(), None);
                rig.run_until_us(1.0);
                assert_eq!((rig.delivered(0), rig.delivered(1)), (1, 0));
                // The slots arrive once `out` is the busier candidate, with
                // the rest of the transfer committed to it. The first takes
                // the data class's one credit; the second waits for it
                // rather than take the idle `alt`.
                rig.send(1.0, 0, write[1..].to_vec(), None);
                rig.run_until_us(2.0);
                assert_eq!((rig.delivered(0), rig.delivered(1)), (2, 0), "{queueing:?}");
                let now = rig.engine.now();
                assert_eq!(rig.switch().pick_output(DST, now), Some(alt));
                for k in 0..2 {
                    rig.cmd(2.0 + f64::from(k), 0, Cmd::Free(None));
                }
                rig.engine.run_until_idle();
                let got = &rig.engine.component::<Probe>(rig.sinks[0]).got;
                let sent: Vec<FlitPayload> = got.iter().map(|(p, _)| p.clone()).collect();
                assert_eq!(sent, write, "{queueing:?}");
                assert_eq!(rig.delivered(1), 0, "{queueing:?}");
                assert!(rig.switch().worm_of.is_empty());
                assert_eq!(rig.switch().committed, [0, 0, 0]);
            }
        }

        #[test]
        fn body_flits_dropped_at_admission_end_their_worm() {
            for wormhole in [false, true] {
                let mut rig = if wormhole {
                    Rig::new(1, None, 1, vcs(2, 4), CreditConfig::default())
                } else {
                    Rig::voq(1, 1, CreditConfig::default())
                };
                let out = rig.out();
                let write = worm(1, DST, 2);
                rig.send(0.0, 0, write[..1].to_vec(), None);
                rig.run_until_us(1.0);
                assert_eq!(rig.delivered(0), 1);
                // The route goes before the body arrives: both slots are
                // dropped, and the transfer's worm, lane and commitment
                // end with them.
                rig.post_to_switch(1.0, RemovePbrRoute { dst: DST });
                rig.send(1.5, 0, write[1..].to_vec(), None);
                rig.run_until_us(2.0);
                let sw = rig.switch();
                assert_eq!(sw.unroutable.get(), 2, "wormhole {wormhole}");
                assert!(sw.worm_of.is_empty(), "wormhole {wormhole}");
                assert!(sw.committed.iter().all(|&c| c == 0), "wormhole {wormhole}");
                let holders = sw
                    .vc_link(out)
                    .map(|vl| vl.lanes.iter().map(|l| l.holder).collect());
                let free: Option<Vec<Option<u64>>> = wormhole.then(|| vec![None, None]);
                assert_eq!(holders, free, "wormhole {wormhole}");
            }
        }

        #[test]
        fn flits_from_a_detached_peer_are_rejected() {
            let mut rig = Rig::fifo(3, 1, CreditConfig::default(), false);
            for input in 0..3 {
                rig.send(0.0, input, reads(10 * input as u64, DST, 1), None);
            }
            rig.engine.run_until_idle();
            assert_eq!(rig.delivered(0), 3);
            // Detaching the middle input leaves its neighbours' peers
            // resolvable; its own peer no longer names an input port.
            let gone = rig.inputs[1];
            assert_eq!(rig.switch_mut().detach_port(1), Ok(gone));
            rig.send(1.0, 1, reads(100, DST, 2), None);
            rig.send(1.0, 0, reads(200, DST, 1), None);
            rig.send(1.0, 2, reads(300, DST, 1), None);
            rig.engine.run_until_idle();
            assert_eq!(rig.delivered(0), 5);
            let rejections: Vec<_> = rig.engine.rejections().collect();
            assert_eq!(
                rejections,
                [(
                    "sw",
                    "rejected 2 message(s): flit from an unconnected component".to_string()
                )]
            );
        }

        /// The FIFO and wormhole rigs the admission-drop tests run on.
        fn fifo_and_wormhole() -> [(bool, Rig); 2] {
            [
                (false, Rig::fifo(1, 1, CreditConfig::default(), false)),
                (
                    true,
                    Rig::new(1, None, 1, vcs(2, 4), CreditConfig::default()),
                ),
            ]
        }

        #[test]
        fn orphan_data_slots_are_dropped_at_admission_and_audited() {
            for (wormhole, mut rig) in fifo_and_wormhole() {
                // A slot with no header, and one past the last slot its
                // header announced.
                let mut flits = worm(1, DST, 1);
                let FlitPayload::Data { src, dst, .. } = flits[1] else {
                    unreachable!("a write's second flit is a data slot");
                };
                let stray = |txn_id, slot| FlitPayload::Data {
                    txn_id,
                    slot,
                    src,
                    dst,
                };
                flits.push(stray(1, 1));
                flits.insert(0, stray(2, 0));
                rig.send(0.0, 0, flits, None);
                rig.engine.run_until_idle();
                assert_eq!(rig.delivered(0), 2, "wormhole {wormhole}");
                let sw = rig.switch();
                assert_eq!(sw.orphan_slots, 2, "wormhole {wormhole}");
                assert_eq!(sw.port(0).link.rx_occupancy(), 0, "credits returned");
                assert!(sw.worm_of.is_empty(), "wormhole {wormhole}");
                assert!(sw.committed.iter().all(|&c| c == 0), "wormhole {wormhole}");
                let report = format!("{:?}", sw.audit());
                assert!(
                    report.contains("2 data slot(s) arrived with no worm expecting them"),
                    "{report}"
                );
            }
        }

        #[test]
        fn headers_reusing_an_indexed_id_are_dropped_at_admission_and_audited() {
            for (wormhole, mut rig) in fifo_and_wormhole() {
                // Transfer 1's header is in; while its two slots are still
                // due, a second write claims id 1.
                let first = worm(1, DST, 2);
                rig.send(0.0, 0, first[..1].to_vec(), None);
                rig.send(1.0, 0, worm(1, ELSEWHERE, 1)[..1].to_vec(), None);
                rig.send(2.0, 0, first[1..].to_vec(), None);
                rig.engine.run_until_idle();
                let got = &rig.engine.component::<Probe>(rig.sinks[0]).got;
                let sent: Vec<FlitPayload> = got.iter().map(|(p, _)| p.clone()).collect();
                assert_eq!(sent, first, "wormhole {wormhole}");
                let sw = rig.switch();
                assert_eq!(sw.duplicate_headers, 1, "wormhole {wormhole}");
                assert_eq!(sw.port(0).link.rx_occupancy(), 0, "credits returned");
                assert!(sw.worm_of.is_empty(), "wormhole {wormhole}");
                let report = format!("{:?}", sw.audit());
                assert!(
                    report.contains("1 header(s) reused the id of a transfer in transit"),
                    "{report}"
                );
            }
        }

        #[test]
        fn voq_head_parked_on_link_credits_blocks_only_its_lane() {
            let mut rig = Rig::voq(1, 2, one_credit());
            let (out, alt) = (rig.out(), rig.out() + 1);
            // The second read toward DST finds its egress out of credits
            // and parks in its lane; the read toward ELSEWHERE, queued
            // behind it at the same input, leaves through the other lane.
            rig.send(
                0.0,
                0,
                [reads(1, DST, 2), reads(3, ELSEWHERE, 1)].concat(),
                None,
            );
            rig.run_until_us(1.0);
            assert_eq!(rig.delivered(0), 1);
            assert_eq!(rig.delivered(1), 1, "no head-of-line blocking");
            assert_eq!(rig.head(0, out), Head::Parked);
            assert_eq!(rig.head(0, alt), Head::Empty);
            let sink = rig.sinks[0];
            let mut pending = Vec::new();
            rig.switch().outstanding(&mut pending);
            assert_eq!(pending.len(), 1, "{pending:?}");
            assert_eq!(
                pending[0].what,
                format!("1 flit(s) queued input 0 -> output {out}")
            );
            assert_eq!(pending[0].waiting_on, Some(sink));
            // Freeing the first read returns a CreditUpdate on its egress.
            rig.cmd(1.0, 0, Cmd::Free(None));
            rig.run_until_us(2.0);
            assert_eq!(rig.delivered(0), 2);
            assert_eq!(rig.head(0, out), Head::Empty);
        }

        #[test]
        fn ramp_up_allocator_takes_a_port_added_mid_run() {
            let cfg = SwitchConfig {
                allocation: AllocPolicy::default_ramp_up(),
                ..SwitchConfig::fabrex_like()
            };
            let mut rig = Rig::build(cfg, 1, None, 1, None, CreditConfig::default());
            // Traffic creates the egress's ramp-up state for two ports.
            rig.send(0.0, 0, reads(1, DST, 2), None);
            rig.run_until_us(5.0);
            assert_eq!(rig.delivered(0), 2);
            // A third port joins mid-run and sends through that egress.
            let id = rig.attach("in1".to_string(), CreditConfig::default(), None);
            rig.inputs.push(id);
            rig.send(5.0, 1, reads(3, DST, 2), None);
            rig.engine.run_until_idle();
            assert_eq!(rig.delivered(0), 4);
            let sw = rig.switch();
            assert_eq!(
                sw.ramp[rig.out()].as_ref().map(|r| r.allocations().len()),
                Some(3)
            );
            assert!(sw.audit().is_clean(), "{:?}", sw.audit());
        }

        #[test]
        fn no_fifo_head_parks_under_a_scheduler() {
            use fcc_sched::{CreditPartition, TenantShare};

            for voq in [false, true] {
                let mut rig = if voq {
                    Rig::voq(1, 1, one_credit())
                } else {
                    Rig::fifo(1, 1, one_credit(), false)
                };
                // A VOQ input queues in the lane of its output.
                let lane = if voq { rig.out() } else { 0 };
                rig.send(0.0, 0, reads(1, DST, 2), None);
                rig.run_until_us(1.0);
                assert_eq!(rig.head(0, lane), Head::Parked, "voq {voq}");
                // Installing a scheduler wakes the parked head, and it is not
                // parked again: every sweep probes its tenant gate.
                let mut part = CreditPartition::new(64);
                let share = TenantShare {
                    group: 0,
                    weight: 1,
                    floor: 64,
                };
                part.add_tenant(1, share);
                let mut sched = FabricScheduler::new(part, SimTime::from_us(10.0));
                sched.map_node(NodeId(1), 1);
                rig.post_to_switch(1.0, InstallScheduler { sched });
                rig.run_until_us(2.0);
                assert_eq!(rig.head(0, lane), Head::Active, "voq {voq}");
                rig.cmd(2.0, 0, Cmd::Free(None));
                rig.run_until_us(3.0);
                assert_eq!(rig.delivered(0), 2);
                // A head refused by the link again stays active.
                rig.send(3.0, 0, reads(3, DST, 1), None);
                rig.run_until_us(4.0);
                assert_eq!(rig.delivered(0), 2);
                assert_eq!(rig.head(0, lane), Head::Active, "voq {voq}");
                // Drain, so the scheduler's window tick stops re-arming.
                rig.cmd(4.0, 0, Cmd::Free(None));
                rig.engine.run_until_idle();
                assert_eq!(rig.delivered(0), 3);
            }
        }
    }
}
