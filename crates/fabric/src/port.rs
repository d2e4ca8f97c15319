//! A Flex Bus link endpoint bound to a simulated wire.
//!
//! [`LinkPort`] couples a `fcc-proto` [`LinkLayer`] state machine with the
//! timing of one unidirectional wire pair: flits occupy the wire for their
//! serialization time (tracked with a `wire_free_at` watermark so
//! back-to-back flits pipeline at line rate), then arrive at the peer after
//! the propagation delay. The port also runs the credit pump: payloads
//! queue locally until the link layer has transmit credit, and incoming
//! credit updates release them.
//!
//! The module also owns the transfer framing: a transaction travels as one
//! header flit followed by [`data_slots`] data slots.
//! [`LinkPort::send_transfer`] is the one sender of that framing and
//! [`Reassembler`] the receiving side of the endpoints that wait for a
//! whole transfer.

use std::collections::{BTreeMap, VecDeque};

use rand::Rng;

use fcc_proto::channel::{MsgClass, Transaction};
use fcc_proto::flit::{data_slots, Flit, FlitMode, FlitPayload};
use fcc_proto::link::{CreditConfig, LinkLayer, RxAction};
use fcc_proto::phys::PhysConfig;
use fcc_sim::{ComponentId, Counter, Ctx, PendingWork, SimTime};
use fcc_telemetry::Track;

/// A flit crossing a wire between two components.
#[derive(Debug)]
pub struct FlitMsg {
    /// The flit on the wire.
    pub flit: Flit,
    /// Virtual channel the flit occupies on a wormhole switch-to-switch
    /// link (`None` on legacy links and endpoint-facing ports). Carried
    /// out of band of the flit encoding: the VC tag is hop-local switch
    /// state, re-chosen at every hop, so it never enters the CRC.
    pub vc: Option<u8>,
}

/// What a received flit meant for the owner of the port.
#[derive(Debug, PartialEq)]
pub enum PortEvent {
    /// A transaction-layer payload was delivered into the receive buffer.
    /// The owner must call [`LinkPort::release`] once it drains. The VC
    /// tag (if any) names the lane whose downstream buffer the flit now
    /// occupies; the owner must return it upstream with
    /// [`LinkPort::return_vc_credit`] when the flit departs.
    Delivered(FlitPayload, Option<u8>),
    /// Link-layer control was processed and transmit credits may have been
    /// freed; the owner should re-run any blocked scheduling decisions.
    CreditFreed,
    /// The peer returned per-virtual-channel credits for lane `vc`; the
    /// owner should refund its VC ledger and re-run scheduling.
    VcCreditReturned {
        /// Lane being replenished.
        vc: u8,
        /// Flit credits granted.
        credits: u32,
    },
    /// Nothing actionable (duplicate, ack bookkeeping, retransmission).
    Quiet,
}

/// One endpoint of a full-duplex Flex Bus link.
pub struct LinkPort {
    phys: PhysConfig,
    /// `phys.flit_serialization()`, computed once: every flit pays it.
    flit_time: SimTime,
    /// Link-layer state machine.
    pub link: LinkLayer,
    peer: Option<ComponentId>,
    wire_free_at: SimTime,
    pending: VecDeque<(FlitPayload, SimTime)>,
    trace: Track,
    /// Per-flit corruption probability (fault injection).
    pub error_rate: f64,
    /// Flits transmitted (including control and retransmissions).
    pub tx_flits: Counter,
    /// Flits received (pre link-layer filtering).
    pub rx_flits: Counter,
}

impl LinkPort {
    /// Creates an unbound port.
    pub fn new(phys: PhysConfig, credit: CreditConfig) -> Self {
        LinkPort {
            phys,
            flit_time: phys.flit_serialization(),
            link: LinkLayer::symmetric(phys.flit_mode, credit),
            peer: None,
            wire_free_at: SimTime::ZERO,
            pending: VecDeque::new(),
            trace: Track::default(),
            error_rate: 0.0,
            tx_flits: Counter::new(),
            rx_flits: Counter::new(),
        }
    }

    /// Physical-layer configuration of the wire.
    pub fn phys(&self) -> &PhysConfig {
        &self.phys
    }

    /// Binds the port to its peer component.
    pub fn connect(&mut self, peer: ComponentId) {
        self.peer = Some(peer);
    }

    /// Attaches a telemetry track; the port then emits credit-wait,
    /// serialization, and retransmission spans for the flits it moves.
    pub fn set_trace(&mut self, track: Track) {
        self.trace = track;
    }

    /// The connected peer.
    ///
    /// # Panics
    ///
    /// Panics if the port was never connected.
    pub fn peer(&self) -> ComponentId {
        #[allow(clippy::expect_used)] // a send on an unwired port is a topology bug
        self.peer.expect("port not connected")
    }

    /// The connected peer, if the port has been wired up.
    pub fn peer_opt(&self) -> Option<ComponentId> {
        self.peer
    }

    /// Number of payloads waiting for transmit credit.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Queues a payload and pumps the transmit path. The pending queue is
    /// unbounded: backpressure reaches the sender through its own queue.
    pub fn enqueue(&mut self, ctx: &mut Ctx<'_>, payload: FlitPayload) {
        self.pending.push_back((payload, ctx.now()));
        self.pump(ctx);
    }

    /// Queues `txn`'s whole transfer: its header, then its [`data_slots`]
    /// data slots in index order, each carrying the header's endpoints
    /// because slots route on their own.
    pub fn send_transfer(&mut self, ctx: &mut Ctx<'_>, txn: Transaction) {
        let slots = data_slots(self.phys.flit_mode, &txn);
        let (txn_id, src, dst) = (txn.id, txn.src, txn.dst);
        self.enqueue(ctx, FlitPayload::Transaction(txn));
        for slot in 0..slots {
            self.enqueue(
                ctx,
                FlitPayload::Data {
                    txn_id,
                    slot: slot as u32,
                    src,
                    dst,
                },
            );
        }
    }

    /// Sends a payload immediately, bypassing the pending queue, on
    /// virtual channel `vc` if given (wormhole switch dispatch). The VC
    /// tag rides the wire message so the peer knows which lane's buffer
    /// the flit occupies. The switch scheduler, which runs its own
    /// queueing, calls this after checking the link layer's `can_send`
    /// for the payload's class.
    ///
    /// # Panics
    ///
    /// Panics if the link layer refuses the payload.
    pub fn send_now_vc(&mut self, ctx: &mut Ctx<'_>, payload: FlitPayload, vc: Option<u8>) {
        // Documented-panic API: the caller contract is can_send first.
        #[allow(clippy::expect_used)]
        let flit = self.link.send(payload).expect("caller must check can_send");
        self.transmit(ctx, flit, vc);
    }

    /// Returns `credits` flit credits for virtual channel `vc` to the
    /// peer (uncredited control; the wormhole switch calls this when a
    /// VC-tagged flit departs its ingress buffer).
    pub fn return_vc_credit(&mut self, ctx: &mut Ctx<'_>, vc: u8, credits: u32) {
        self.transmit_control(ctx, FlitPayload::VcCredit { vc, credits });
    }

    /// Moves queued payloads onto the wire while credits allow.
    pub fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while let Some((front, _)) = self.pending.front() {
            if !self.link.can_send(front.msg_class()) {
                break;
            }
            // front() was Some and can_send was checked on the same
            // single-threaded link state, so both steps must succeed.
            #[allow(clippy::expect_used)]
            let (payload, queued_at) = self.pending.pop_front().expect("front exists");
            self.trace.span_nonzero_merged(
                "credit",
                "link.credit_wait",
                queued_at,
                ctx.now(),
                payload.trace_ctx(),
            );
            #[allow(clippy::expect_used)]
            let flit = self.link.send(payload).expect("can_send checked");
            self.transmit(ctx, flit, None);
        }
    }

    fn transmit(&mut self, ctx: &mut Ctx<'_>, mut flit: Flit, vc: Option<u8>) {
        // Error injection applies to sequenced payload flits only: real
        // link layers recover lost control DLLPs with replay timers, which
        // this model omits; corrupting an un-timed NAK would wedge the
        // link rather than exercise the retry path under study.
        if self.error_rate > 0.0
            && !flit.payload.is_control()
            && ctx.rng().gen_bool(self.error_rate)
        {
            flit.corrupt();
        }
        let depart = self.wire_free_at.max(ctx.now());
        self.wire_free_at = depart + self.flit_time;
        let arrive = self.wire_free_at + self.phys.propagation;
        self.tx_flits.inc();
        // Only transaction-carrying flits get serialize spans: ack and
        // credit chatter (trace id 0) would bloat the trace and break the
        // merge chains that collapse a bulk burst into one span.
        let tctx = flit.payload.trace_ctx();
        if tctx.is_tracked() {
            self.trace
                .span_merged("link", "link.serialize", depart, self.wire_free_at, tctx);
        }
        ctx.send(self.peer(), arrive - ctx.now(), FlitMsg { flit, vc });
    }

    /// Sends a control payload (uncredited) onto the wire.
    fn transmit_control(&mut self, ctx: &mut Ctx<'_>, payload: FlitPayload) {
        // Control payloads bypass credits and the retry buffer, so the
        // link layer can never refuse them.
        #[allow(clippy::expect_used)]
        let flit = self.link.send(payload).expect("control is uncredited");
        self.transmit(ctx, flit, None);
    }

    /// Processes an arriving flit and returns what it meant. The link
    /// layer checks the CRC once and hands back NAKs and VC credit returns
    /// for the port and its owner to act on.
    pub fn receive(&mut self, ctx: &mut Ctx<'_>, msg: FlitMsg) -> PortEvent {
        self.rx_flits.inc();
        let vc = msg.vc;
        match self.link.receive(msg.flit) {
            RxAction::Deliver(payload) => {
                if let Some(ack) = self.link.take_ack() {
                    self.transmit_control(ctx, ack);
                }
                PortEvent::Delivered(payload, vc)
            }
            RxAction::Control => {
                // The link layer already applied acks and credit grants,
                // which may have unblocked the pending queue.
                self.pump(ctx);
                PortEvent::CreditFreed
            }
            RxAction::Nak { from_seq } => {
                self.retransmit_from(ctx, from_seq);
                PortEvent::Quiet
            }
            RxAction::VcCredit { vc, credits } => PortEvent::VcCreditReturned { vc, credits },
            RxAction::Refused(nak) => {
                self.transmit_control(ctx, nak);
                PortEvent::Quiet
            }
            RxAction::Duplicate => PortEvent::Quiet,
        }
    }

    /// Retransmits all unacked flits from `from_seq` (go-back-N).
    ///
    /// Invoked automatically by [`LinkPort::receive`] when a NAK arrives.
    pub fn retransmit_from(&mut self, ctx: &mut Ctx<'_>, from_seq: u64) {
        let flits = self.link.on_nak(from_seq);
        for f in flits {
            self.trace
                .instant("link", "link.retransmit", ctx.now(), f.payload.trace_ctx());
            // Retransmissions lose the hop-local VC tag; VC-flow-controlled
            // links run error-free (see `FabricSwitch::set_vc_link`).
            self.transmit(ctx, f, None);
        }
    }

    /// Releases one received message of `class` from the receive buffer
    /// and returns any due credit update to the peer.
    pub fn release(&mut self, ctx: &mut Ctx<'_>, class: MsgClass) {
        self.link.release(class);
        if let Some(update) = self.link.take_credit_update() {
            self.transmit_control(ctx, update);
        }
    }

    /// The time the wire will next be idle (for utilization probes).
    pub fn wire_free_at(&self) -> SimTime {
        self.wire_free_at
    }
}

/// The transfers a receiver holds partially: each data-carrying header
/// waits here until its last data slot lands. Owners feed it headers and
/// slots and release the link credits themselves.
#[derive(Debug, Default)]
pub struct Reassembler {
    /// Transaction id → (header, data slots still to come).
    partial: BTreeMap<u64, (Transaction, u64)>,
    /// Data slots that arrived with no partial transfer to join.
    orphans: u64,
}

impl Reassembler {
    /// Takes an arriving header. A transfer without data slots is whole at
    /// once and comes straight back; any other waits for its
    /// [`data_slots`] slots.
    pub fn header(&mut self, mode: FlitMode, txn: Transaction) -> Option<Transaction> {
        let slots = data_slots(mode, &txn);
        if slots == 0 {
            return Some(txn);
        }
        self.partial.insert(txn.id, (txn, slots));
        None
    }

    /// Takes an arriving data slot of transfer `txn_id` and returns the
    /// transaction when it was the last one. Every switch sends a slot by
    /// its header's path, so the header is always in first; a slot with
    /// no partial transfer to join is counted in [`Reassembler::orphans`]
    /// and dropped.
    pub fn slot(&mut self, txn_id: u64) -> Option<Transaction> {
        let Some((_, left)) = self.partial.get_mut(&txn_id) else {
            self.orphans += 1;
            return None;
        };
        *left -= 1;
        if *left > 0 {
            return None;
        }
        self.partial.remove(&txn_id).map(|(txn, _)| txn)
    }

    /// Whether no transfer is partially arrived.
    pub fn is_empty(&self) -> bool {
        self.partial.is_empty()
    }

    /// Data slots dropped for arriving without their header: a protocol
    /// error that [`crate::ledger::audit_topology`] reports.
    pub fn orphans(&self) -> u64 {
        self.orphans
    }

    /// Reports each partial transfer, in transaction-id order, as work
    /// waiting on `peer` (the deadlock report's view).
    pub fn outstanding(&self, peer: Option<ComponentId>, out: &mut Vec<PendingWork>) {
        out.extend(self.partial.keys().map(|id| PendingWork {
            what: format!("txn {id:#x} awaiting data slots"),
            waiting_on: peer,
        }));
    }
}

#[cfg(test)]
mod tests {
    use fcc_proto::addr::NodeId;
    use fcc_proto::channel::{CacheOpcode, IoOpcode, MemOpcode, TransactionKind};
    use fcc_sim::{Component, Engine, Msg};

    use super::*;

    /// Two components joined by a link; the sink counts deliveries.
    struct Node {
        port: LinkPort,
        delivered: Vec<FlitPayload>,
        /// Every `VcCreditReturned` event, as `(vc, credits)`.
        vc_credits: Vec<(u8, u32)>,
        release_on_delivery: bool,
    }

    impl Node {
        fn new(release: bool, credit: CreditConfig) -> Self {
            Node {
                port: LinkPort::new(PhysConfig::omega_like(), credit),
                delivered: Vec::new(),
                vc_credits: Vec::new(),
                release_on_delivery: release,
            }
        }
    }

    impl Node {
        fn handle_flit(&mut self, ctx: &mut Ctx<'_>, fm: FlitMsg) {
            match self.port.receive(ctx, fm) {
                PortEvent::Delivered(payload, _) => {
                    let class = payload.msg_class();
                    self.delivered.push(payload);
                    if self.release_on_delivery {
                        self.port.release(ctx, class);
                    }
                }
                PortEvent::VcCreditReturned { vc, credits } => self.vc_credits.push((vc, credits)),
                PortEvent::CreditFreed | PortEvent::Quiet => {}
            }
        }

        fn handle_inject(&mut self, ctx: &mut Ctx<'_>, inj: Inject) {
            for p in inj.0 {
                self.port.enqueue(ctx, p);
            }
        }
    }

    fn read_txn(id: u64) -> FlitPayload {
        FlitPayload::Transaction(Transaction {
            id,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: id * 64,
            bytes: 0,
            src: NodeId(0),
            dst: NodeId(1),
        })
    }

    struct Inject(Vec<FlitPayload>);

    fn inject(engine: &mut Engine, node: ComponentId, payloads: Vec<FlitPayload>) {
        engine.post(node, engine.now(), Inject(payloads));
    }

    /// Test component: a link endpoint that records deliveries and accepts
    /// harness-injected payloads.
    struct DrivenNode(Node);

    impl Component for DrivenNode {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            match msg.downcast::<Inject>() {
                Ok(inj) => self.0.handle_inject(ctx, inj),
                Err(msg) => {
                    let fm = msg.downcast::<FlitMsg>().expect("flit");
                    self.0.handle_flit(ctx, fm);
                }
            }
        }
    }

    fn driven_pair(engine: &mut Engine, release: bool) -> (ComponentId, ComponentId) {
        driven_pair_with(engine, release, CreditConfig::default())
    }

    /// A pair whose ends both run `credit`.
    fn driven_pair_with(
        engine: &mut Engine,
        release: bool,
        credit: CreditConfig,
    ) -> (ComponentId, ComponentId) {
        let a = engine.add_component("a", DrivenNode(Node::new(release, credit)));
        let b = engine.add_component("b", DrivenNode(Node::new(release, credit)));
        engine.component_mut::<DrivenNode>(a).0.port.connect(b);
        engine.component_mut::<DrivenNode>(b).0.port.connect(a);
        (a, b)
    }

    #[test]
    fn delivery_latency_is_serialization_plus_propagation() {
        let mut engine = Engine::new(1);
        let (a, b) = driven_pair(&mut engine, true);
        inject(&mut engine, a, vec![read_txn(0)]);
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.delivered.len(), 1);
        let phys = PhysConfig::omega_like();
        let expect = phys.flit_serialization() + phys.propagation;
        // Final time includes ack/credit control chatter; the delivery
        // itself happened at `expect`. Verify through the wire watermark.
        assert!(engine.now() >= expect);
    }

    #[test]
    fn back_to_back_flits_pipeline_at_line_rate() {
        let mut engine = Engine::new(1);
        let (a, b) = driven_pair(&mut engine, true);
        let n = 32;
        inject(&mut engine, a, (0..n).map(read_txn).collect());
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.delivered.len(), n as usize);
        let phys = PhysConfig::omega_like();
        // All n flits serialized consecutively: wire busy n * ser.
        let sender = &engine.component::<DrivenNode>(a).0;
        let min_busy = phys.flit_serialization() * n;
        assert!(sender.port.wire_free_at() >= min_busy);
    }

    #[test]
    fn without_release_credits_exhaust_and_pending_builds() {
        let mut engine = Engine::new(1);
        let (a, b) = driven_pair(&mut engine, false);
        // Default config: 64 buffer flits, 16 credits per class.
        let n = 40;
        inject(&mut engine, a, (0..n).map(read_txn).collect());
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.delivered.len(), 16, "one class worth of credits");
        let sender = &engine.component::<DrivenNode>(a).0;
        assert_eq!(sender.port.pending_len(), (n - 16) as usize);
        let _ = a;
    }

    #[test]
    fn release_returns_credits_and_unblocks() {
        let mut engine = Engine::new(1);
        let (a, b) = driven_pair(&mut engine, true);
        let n = 100;
        inject(&mut engine, a, (0..n).map(read_txn).collect());
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.delivered.len(), n as usize);
        let sender = &engine.component::<DrivenNode>(a).0;
        assert_eq!(sender.port.pending_len(), 0);
    }

    #[test]
    fn corrupted_flits_are_retransmitted() {
        let mut engine = Engine::new(7);
        let (a, b) = driven_pair(&mut engine, true);
        engine.component_mut::<DrivenNode>(a).0.port.error_rate = 0.2;
        let n = 50;
        inject(&mut engine, a, (0..n).map(read_txn).collect());
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(
            node_b.delivered.len(),
            n as usize,
            "lossless despite errors"
        );
        let ids: Vec<u64> = node_b
            .delivered
            .iter()
            .filter_map(|p| match p {
                FlitPayload::Transaction(t) => Some(t.id),
                _ => None,
            })
            .collect();
        let expect: Vec<u64> = (0..n).collect();
        assert_eq!(ids, expect, "in order exactly once");
        assert!(
            engine
                .component::<DrivenNode>(a)
                .0
                .port
                .link
                .retransmissions()
                > 0
        );
    }

    #[test]
    fn coalescing_past_what_the_sender_may_hold_cannot_wedge_the_link() {
        // 8 buffer flits advertise 2 credits per class, and a 2-deep retry
        // buffer holds 2 unacked flits: both below the threshold of 4 at
        // which the receiver would otherwise return credits and ack.
        let coarse = CreditConfig {
            return_threshold: 4,
            ..CreditConfig::default()
        };
        for credit in [
            CreditConfig {
                buffer_flits: 8,
                ..coarse
            },
            CreditConfig {
                retry_depth: 2,
                ..coarse
            },
        ] {
            let mut engine = Engine::new(1);
            let (a, b) = driven_pair_with(&mut engine, true, credit);
            inject(&mut engine, a, (0..10).map(read_txn).collect());
            engine.run_until_idle();
            let node_b = &engine.component::<DrivenNode>(b).0;
            assert_eq!(node_b.delivered.len(), 10, "{credit:?}");
            let sender = &engine.component::<DrivenNode>(a).0;
            assert_eq!(sender.port.pending_len(), 0, "{credit:?}");
        }
    }

    /// Posts a control flit to `node` as if its peer had sent it.
    fn post_control(engine: &mut Engine, node: ComponentId, payload: FlitPayload, corrupt: bool) {
        let mut flit = Flit::new(0, PhysConfig::omega_like().flit_mode, payload);
        if corrupt {
            flit.corrupt();
        }
        engine.post(node, engine.now(), FlitMsg { flit, vc: None });
    }

    #[test]
    fn valid_vc_credit_is_returned_to_the_owner() {
        let mut engine = Engine::new(1);
        let (_, b) = driven_pair(&mut engine, true);
        post_control(
            &mut engine,
            b,
            FlitPayload::VcCredit { vc: 3, credits: 2 },
            false,
        );
        engine.run_until_idle();
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.vc_credits, [(3, 2)]);
        assert_eq!(node_b.port.link.crc_drops(), 0);
    }

    #[test]
    fn valid_nak_triggers_go_back_n() {
        let mut engine = Engine::new(1);
        // The receiver never releases, so no ack prunes the retry buffer.
        let (a, b) = driven_pair(&mut engine, false);
        inject(&mut engine, a, (0..3).map(read_txn).collect());
        engine.run_until_idle();
        post_control(&mut engine, a, FlitPayload::Nak { from_seq: 1 }, false);
        engine.run_until_idle();
        let sender = &engine.component::<DrivenNode>(a).0.port;
        assert_eq!(sender.link.retransmissions(), 2, "seq 1 and 2 resent");
        assert_eq!(sender.link.crc_drops(), 0);
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.delivered.len(), 3, "resent flits are duplicates");
    }

    #[test]
    fn corrupted_nak_and_vc_credit_are_refused_with_a_nak() {
        let mut engine = Engine::new(1);
        let (a, b) = driven_pair(&mut engine, false);
        inject(&mut engine, a, (0..3).map(read_txn).collect());
        engine.run_until_idle();
        post_control(&mut engine, a, FlitPayload::Nak { from_seq: 0 }, true);
        post_control(
            &mut engine,
            a,
            FlitPayload::VcCredit { vc: 1, credits: 1 },
            true,
        );
        engine.run_until_idle();
        let node_a = &engine.component::<DrivenNode>(a).0;
        assert_eq!(node_a.port.link.crc_drops(), 2);
        assert_eq!(node_a.port.link.retransmissions(), 0, "no go-back-N");
        assert!(node_a.vc_credits.is_empty());
        // Each refusal NAKs the peer, which resends everything it holds
        // unacked — here nothing, as `a` never sent `b` a sequenced flit.
        let node_b = &engine.component::<DrivenNode>(b).0;
        assert_eq!(node_b.port.rx_flits.get(), 3 + 2, "three reads, two NAKs");
    }

    /// Every transaction kind the transaction layer defines.
    fn all_kinds() -> Vec<TransactionKind> {
        use CacheOpcode::*;
        use IoOpcode::*;
        use MemOpcode::*;
        let mem = [
            MemRd, MemInv, MemSpecRd, MemWr, MemWrPtl, Cmp, CmpS, CmpE, MemData,
        ];
        let cache = [
            RdCurr, RdOwn, RdShared, DirtyEvict, CleanEvict, CLFlush, SnpData, SnpInv, SnpCur, Go,
            Data, RspIHitI, RspSHitSe, RspIFwdM,
        ];
        let io = [MemRead, MemWrite, Completion, CfgRead, CfgWrite, VendorMsg];
        (mem.into_iter().map(TransactionKind::Mem))
            .chain(cache.into_iter().map(TransactionKind::Cache))
            .chain(io.into_iter().map(TransactionKind::Io))
            .collect()
    }

    /// A link endpoint that sends whole transfers on request and feeds
    /// every payload it receives through a [`Reassembler`].
    struct TransferNode {
        port: LinkPort,
        delivered: Vec<FlitPayload>,
        reassembly: Reassembler,
        /// Each transaction the reassembler returned, with the number of
        /// flits delivered when it did.
        whole: Vec<(Transaction, usize)>,
    }

    struct SendTransfers(Vec<Transaction>);

    impl Component for TransferNode {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let fm = match msg.downcast::<SendTransfers>() {
                Ok(send) => {
                    for txn in send.0 {
                        self.port.send_transfer(ctx, txn);
                    }
                    return;
                }
                Err(msg) => msg.downcast::<FlitMsg>().expect("flit"),
            };
            let PortEvent::Delivered(payload, _) = self.port.receive(ctx, fm) else {
                return;
            };
            self.port.release(ctx, payload.msg_class());
            let whole = match &payload {
                FlitPayload::Transaction(t) => self
                    .reassembly
                    .header(self.port.phys().flit_mode, t.clone()),
                FlitPayload::Data { txn_id, .. } => self.reassembly.slot(*txn_id),
                _ => None,
            };
            self.delivered.push(payload);
            let at = self.delivered.len();
            self.whole.extend(whole.map(|t| (t, at)));
        }
    }

    #[test]
    fn every_transfer_is_framed_in_order_and_reassembled_once() {
        for mode in [FlitMode::Flit68, FlitMode::Flit256] {
            let phys = PhysConfig {
                flit_mode: mode,
                ..PhysConfig::omega_like()
            };
            let mut engine = Engine::new(1);
            let mut add = |name| {
                engine.add_component(
                    name,
                    TransferNode {
                        port: LinkPort::new(phys, CreditConfig::default()),
                        delivered: Vec::new(),
                        reassembly: Reassembler::default(),
                        whole: Vec::new(),
                    },
                )
            };
            let (a, b) = (add("a"), add("b"));
            engine.component_mut::<TransferNode>(a).port.connect(b);
            engine.component_mut::<TransferNode>(b).port.connect(a);
            let mut txns = Vec::new();
            for kind in all_kinds() {
                for bytes in [0, 1, 64, 65, 238, 239, 4096, 16384] {
                    txns.push(Transaction {
                        id: txns.len() as u64,
                        kind,
                        addr: 0x1000,
                        bytes,
                        src: NodeId(3),
                        dst: NodeId(4),
                    });
                }
            }
            engine.post(a, SimTime::ZERO, SendTransfers(txns.clone()));
            engine.run_until_idle();
            let node_b = engine.component::<TransferNode>(b);
            // The link delivers in order, so each transfer is one run of
            // flits: its header, then slots 0..n. The reassembler returns
            // it at its last flit.
            let mut flits = node_b.delivered.iter();
            let mut whole = Vec::new();
            for txn in &txns {
                let slots = if txn.kind.carries_data() && txn.bytes > 0 {
                    u64::from(txn.bytes).div_ceil(mode.payload_bytes())
                } else {
                    0
                };
                assert_eq!(flits.next(), Some(&FlitPayload::Transaction(txn.clone())));
                for slot in 0..slots as u32 {
                    let expect = FlitPayload::Data {
                        txn_id: txn.id,
                        slot,
                        src: txn.src,
                        dst: txn.dst,
                    };
                    assert_eq!(flits.next(), Some(&expect), "{mode:?} {txn:?}");
                }
                let at = node_b.delivered.len() - flits.len();
                whole.push((txn.clone(), at));
            }
            assert_eq!(flits.next(), None, "{mode:?}: stray flits");
            assert_eq!(node_b.whole, whole, "{mode:?}: each transfer once");
            assert!(node_b.reassembly.is_empty());
            assert_eq!(node_b.reassembly.orphans(), 0);
        }
    }

    #[test]
    fn reassembler_lists_partial_transfers_and_drops_an_early_slot() {
        let mode = FlitMode::Flit68;
        let mut r = Reassembler::default();
        let write = |id| Transaction {
            id,
            kind: TransactionKind::Mem(MemOpcode::MemWr),
            addr: 0,
            bytes: 128,
            src: NodeId(1),
            dst: NodeId(2),
        };
        // A slot that beats its header is counted and dropped, so the
        // write still needs two slots after its header lands.
        assert_eq!(r.slot(0x20), None);
        assert_eq!(r.orphans(), 1);
        assert_eq!(r.header(mode, write(0x20)), None);
        assert_eq!(r.header(mode, write(0x10)), None);
        assert_eq!(r.slot(0x20), None);
        let mut out = Vec::new();
        r.outstanding(None, &mut out);
        let what: Vec<&str> = out.iter().map(|w| w.what.as_str()).collect();
        assert_eq!(
            what,
            [
                "txn 0x10 awaiting data slots",
                "txn 0x20 awaiting data slots"
            ]
        );
        assert_eq!(r.slot(0x20), Some(write(0x20)));
        assert_eq!(r.orphans(), 1);
        assert_eq!(r.slot(0x20), None, "returned once");
        assert_eq!(r.orphans(), 2, "a slot past the last one is an orphan too");
        assert!(!r.is_empty());
    }
}
