//! Link layer: credit-based flow control and reliable retransmission.
//!
//! The Flex Bus link layer "provides reliable transmission between two
//! endpoints using a hop-by-hop based credit-based flow control. Each entity
//! along the path allocates credits to downstream ports based on its buffer
//! capacity, uses a credit update protocol to track inflight flit
//! transmission, and runs an overcommitment scheme to improve bandwidth
//! utilization" (§2.1). This module implements exactly that, as a pure state
//! machine with separate TX and RX halves:
//!
//! * **Credits** are per message class ([`MsgClass`]), so responses can
//!   always drain past stalled requests.
//! * **Overcommitment**: the receiver advertises more credits per class
//!   than its shared physical buffer holds; when the pool genuinely fills,
//!   an arriving flit is refused with a NAK and recovered by the retry
//!   protocol.
//! * **Reliability**: sequenced flits are kept in a retry buffer until
//!   acked; CRC failures and overflow produce go-back-N retransmission.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::channel::MsgClass;
use crate::flit::{Flit, FlitMode, FlitPayload};

/// Static credit configuration for one side of a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CreditConfig {
    /// Physical receive-buffer capacity, in flits, shared by all classes.
    pub buffer_flits: u32,
    /// Overcommitment factor: each class is granted
    /// `buffer_flits * overcommit / 4` credits, so the advertised total is
    /// `buffer_flits * overcommit`. 1.0 disables overcommitment.
    pub overcommit: f64,
    /// Return freed credits to the peer once this many accumulate, and
    /// ack every this many delivered flits. [`LinkLayer::new`] clamps it
    /// to what the peer can have outstanding (see there).
    pub return_threshold: u32,
    /// Maximum unacked flits the transmitter keeps (retry buffer depth).
    pub retry_depth: usize,
}

impl Default for CreditConfig {
    fn default() -> Self {
        CreditConfig {
            buffer_flits: 64,
            overcommit: 1.0,
            return_threshold: 4,
            retry_depth: 256,
        }
    }
}

impl CreditConfig {
    /// Credits advertised per managed class.
    pub fn advertised_per_class(&self) -> u32 {
        let total = self.buffer_flits as f64 * self.overcommit;
        (total / MsgClass::MANAGED.len() as f64).floor().max(1.0) as u32
    }
}

/// Transmit-side credit counter for one class.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct CreditCounter {
    available: u32,
    granted_total: u64,
    consumed_total: u64,
    stalled_attempts: u64,
}

impl CreditCounter {
    /// Credits currently available.
    pub fn available(&self) -> u32 {
        self.available
    }

    /// Lifetime credits granted by the peer (including the initial
    /// advertisement).
    pub fn granted_total(&self) -> u64 {
        self.granted_total
    }

    /// Lifetime credits consumed.
    pub fn consumed_total(&self) -> u64 {
        self.consumed_total
    }

    /// Lifetime attempts refused for lack of credit.
    pub fn stalled_attempts(&self) -> u64 {
        self.stalled_attempts
    }

    /// Tries to consume one credit.
    pub fn try_consume(&mut self) -> bool {
        if self.available > 0 {
            self.available -= 1;
            self.consumed_total += 1;
            true
        } else {
            self.stalled_attempts += 1;
            false
        }
    }

    /// Grants credits (from a peer credit update).
    pub fn grant(&mut self, n: u32) {
        let before = self.available;
        self.available = self.available.saturating_add(n);
        // Ledger counts what was actually added, so conservation holds
        // even if a buggy peer over-grants into saturation.
        self.granted_total += u64::from(self.available - before);
    }

    /// Credit conservation: every credit ever granted is either consumed
    /// or still available. A mismatch means credits were minted or
    /// destroyed outside [`CreditCounter::grant`]/[`CreditCounter::try_consume`].
    pub fn conserved(&self) -> bool {
        self.granted_total == self.consumed_total + u64::from(self.available)
    }
}

/// Errors surfaced by the link layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkLayerError {
    /// No transmit credit available for the class.
    NoCredit(MsgClass),
    /// The retry buffer is full; the transmitter must pause.
    RetryBufferFull,
}

impl std::fmt::Display for LinkLayerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkLayerError::NoCredit(c) => write!(f, "no credit for class {c:?}"),
            LinkLayerError::RetryBufferFull => write!(f, "retry buffer full"),
        }
    }
}

impl std::error::Error for LinkLayerError {}

/// A violated credit-conservation equation, reported by
/// [`LinkLayer::audit`] or [`audit_drained_pair`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CreditLedgerError {
    /// The message class whose ledger is inconsistent.
    pub class: MsgClass,
    /// The conservation equation that failed, in symbolic form.
    pub equation: &'static str,
    /// Left-hand side of the equation as evaluated.
    pub lhs: u64,
    /// Right-hand side of the equation as evaluated.
    pub rhs: u64,
}

impl std::fmt::Display for CreditLedgerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "credit ledger violated for {:?}: {} ({} != {})",
            self.class, self.equation, self.lhs, self.rhs
        )
    }
}

impl std::error::Error for CreditLedgerError {}

/// What the receiver decided about an incoming flit.
#[derive(Debug, Clone, PartialEq)]
pub enum RxAction {
    /// Payload accepted and buffered; deliver to the transaction layer.
    Deliver(FlitPayload),
    /// Link-layer control processed internally (credit update, ack, idle);
    /// nothing to deliver.
    Control,
    /// A valid NAK from the peer: the caller must retransmit from
    /// `from_seq` (go-back-N, see [`LinkLayer::on_nak`]), which needs the
    /// flits back from the retry buffer.
    Nak {
        /// First sequence number to resend.
        from_seq: u64,
    },
    /// A valid per-virtual-channel credit return: owner-level state (a
    /// switch's per-lane ledgers), not link-layer state.
    VcCredit {
        /// Lane being replenished.
        vc: u8,
        /// Flit credits granted.
        credits: u32,
    },
    /// Flit refused (CRC error, sequence gap, or buffer overflow); the
    /// caller must send the contained NAK payload back to the peer.
    Refused(FlitPayload),
    /// Duplicate of an already-delivered flit; drop silently.
    Duplicate,
}

/// One endpoint of a reliable, credit-flow-controlled link.
#[derive(Debug)]
pub struct LinkLayer {
    mode: FlitMode,
    config: CreditConfig,
    // TX state.
    next_seq: u64,
    retry: VecDeque<Flit>,
    tx_credits: [CreditCounter; 4],
    // RX state.
    expected_seq: u64,
    rx_pool_used: u32,
    rx_class_used: [u32; 4],
    pending_return: [u32; 4],
    /// Credits of one class returned together: `return_threshold`, at
    /// most what this side advertises per class.
    credit_batch: u32,
    delivered_since_ack: u32,
    /// Deliveries acked together: `return_threshold`, at most the peer's
    /// retry depth.
    ack_batch: u32,
    nak_outstanding: bool,
    // Conservation ledger: lifetime flits accepted into the receive
    // buffer, drained out of it, and credits returned to the peer.
    accepted_total: [u64; 4],
    released_total: [u64; 4],
    returned_total: [u64; 4],
    // Stats.
    retransmissions: u64,
    crc_drops: u64,
    overflow_drops: u64,
}

impl LinkLayer {
    /// Creates a link endpoint. `peer_config` is the *receiver* config of
    /// the other side, which determines our initial transmit credits.
    ///
    /// Coalescing is clamped so the link cannot wedge: the peer stops
    /// after spending the credits this side advertises per class, or
    /// after filling its retry buffer, so a larger `return_threshold`
    /// would hold back the credit return or the ack it waits for.
    pub fn new(mode: FlitMode, config: CreditConfig, peer_config: CreditConfig) -> Self {
        let mut tx_credits: [CreditCounter; 4] = Default::default();
        for c in &mut tx_credits {
            c.grant(peer_config.advertised_per_class());
        }
        let peer_retry = u32::try_from(peer_config.retry_depth).unwrap_or(u32::MAX);
        LinkLayer {
            mode,
            config,
            next_seq: 0,
            retry: VecDeque::new(),
            tx_credits,
            expected_seq: 0,
            rx_pool_used: 0,
            rx_class_used: [0; 4],
            pending_return: [0; 4],
            credit_batch: config.return_threshold.min(config.advertised_per_class()),
            delivered_since_ack: 0,
            ack_batch: config.return_threshold.min(peer_retry.max(1)),
            nak_outstanding: false,
            accepted_total: [0; 4],
            released_total: [0; 4],
            returned_total: [0; 4],
            retransmissions: 0,
            crc_drops: 0,
            overflow_drops: 0,
        }
    }

    /// Creates a symmetric link endpoint (both sides share one config).
    pub fn symmetric(mode: FlitMode, config: CreditConfig) -> Self {
        Self::new(mode, config, config)
    }

    /// The flit mode in use.
    pub fn mode(&self) -> FlitMode {
        self.mode
    }

    /// Transmit credit state for a class.
    ///
    /// # Panics
    ///
    /// Panics if `class` is `Ctrl` (control is uncredited).
    pub fn tx_credits(&self, class: MsgClass) -> &CreditCounter {
        assert!(class != MsgClass::Ctrl, "control flits are uncredited");
        &self.tx_credits[class.index()]
    }

    /// Whether a payload of `class` could be sent right now.
    pub fn can_send(&self, class: MsgClass) -> bool {
        if class == MsgClass::Ctrl {
            return true;
        }
        self.tx_credits[class.index()].available() > 0 && self.retry.len() < self.config.retry_depth
    }

    /// Frames and sequences a payload, consuming a credit.
    ///
    /// Control payloads bypass credits and the retry buffer.
    pub fn send(&mut self, payload: FlitPayload) -> Result<Flit, LinkLayerError> {
        let class = payload.msg_class();
        if class == MsgClass::Ctrl {
            return Ok(Flit::new(0, self.mode, payload));
        }
        if self.retry.len() >= self.config.retry_depth {
            return Err(LinkLayerError::RetryBufferFull);
        }
        if !self.tx_credits[class.index()].try_consume() {
            return Err(LinkLayerError::NoCredit(class));
        }
        let flit = Flit::new(self.next_seq, self.mode, payload);
        self.next_seq += 1;
        self.retry.push_back(flit.clone());
        Ok(flit)
    }

    /// Processes an incoming flit. This is the only CRC check a received
    /// flit gets: control the caller must act on (NAKs, VC credit
    /// returns) comes back as its own [`RxAction`] once the check passed.
    pub fn receive(&mut self, flit: Flit) -> RxAction {
        if !flit.crc_ok() {
            self.crc_drops += 1;
            return self.refuse(true);
        }
        // Control flits are unsequenced: handle immediately.
        match &flit.payload {
            FlitPayload::CreditUpdate { class, credits } => {
                self.tx_credits[class.index()].grant(*credits);
                return RxAction::Control;
            }
            FlitPayload::Ack { seq } => {
                self.process_ack(*seq);
                return RxAction::Control;
            }
            FlitPayload::Nak { from_seq } => {
                return RxAction::Nak {
                    from_seq: *from_seq,
                }
            }
            FlitPayload::VcCredit { vc, credits } => {
                return RxAction::VcCredit {
                    vc: *vc,
                    credits: *credits,
                }
            }
            FlitPayload::Idle => return RxAction::Control,
            _ => {}
        }
        // Sequenced data path.
        if flit.seq < self.expected_seq {
            return RxAction::Duplicate;
        }
        if flit.seq > self.expected_seq {
            // Gap: an earlier flit was dropped. Go-back-N; NAKs for the
            // trailing flits of the same loss burst are suppressed.
            return self.refuse(false);
        }
        if self.rx_pool_used >= self.config.buffer_flits {
            // Overcommitted pool genuinely full.
            self.overflow_drops += 1;
            return self.refuse(true);
        }
        let class = flit.payload.msg_class();
        self.expected_seq += 1;
        self.rx_pool_used += 1;
        self.rx_class_used[class.index()] += 1;
        self.accepted_total[class.index()] += 1;
        self.delivered_since_ack += 1;
        self.nak_outstanding = false;
        debug_assert!(self.audit().is_ok(), "{:?}", self.audit());
        RxAction::Deliver(flit.payload)
    }

    /// `hard` refusals (CRC error, buffer overflow) always NAK so repeated
    /// corruption cannot stall the link; soft refusals (sequence gaps that
    /// trail an already-NAKed loss) are coalesced into the first NAK.
    fn refuse(&mut self, hard: bool) -> RxAction {
        if self.nak_outstanding && !hard {
            return RxAction::Duplicate;
        }
        self.nak_outstanding = true;
        RxAction::Refused(FlitPayload::Nak {
            from_seq: self.expected_seq,
        })
    }

    fn process_ack(&mut self, seq: u64) {
        while let Some(front) = self.retry.front() {
            if front.seq <= seq {
                self.retry.pop_front();
            } else {
                break;
            }
        }
    }

    /// Handles a NAK from the peer: returns the flits to retransmit, in
    /// order, starting at `from_seq` (go-back-N).
    pub fn on_nak(&mut self, from_seq: u64) -> Vec<Flit> {
        let out: Vec<Flit> = self
            .retry
            .iter()
            .filter(|f| f.seq >= from_seq)
            .cloned()
            .collect();
        self.retransmissions += out.len() as u64;
        out
    }

    /// Acknowledgment the receiver owes the peer, if any (ack coalescing:
    /// one ack per `return_threshold` delivered flits, clamped).
    pub fn take_ack(&mut self) -> Option<FlitPayload> {
        if self.delivered_since_ack >= self.ack_batch && self.expected_seq > 0 {
            self.delivered_since_ack = 0;
            Some(FlitPayload::Ack {
                seq: self.expected_seq - 1,
            })
        } else {
            None
        }
    }

    /// Marks one buffered message of `class` as drained from the receive
    /// buffer, freeing a credit for eventual return to the peer.
    ///
    /// # Panics
    ///
    /// Panics if no message of that class is buffered.
    pub fn release(&mut self, class: MsgClass) {
        let idx = class.index();
        assert!(self.rx_class_used[idx] > 0, "release without occupancy");
        self.rx_class_used[idx] -= 1;
        self.rx_pool_used -= 1;
        self.pending_return[idx] += 1;
        self.released_total[idx] += 1;
        debug_assert!(self.audit().is_ok(), "{:?}", self.audit());
    }

    /// Credit update the receiver owes the peer, if the return threshold
    /// has been met for any class.
    pub fn take_credit_update(&mut self) -> Option<FlitPayload> {
        for class in MsgClass::MANAGED {
            let idx = class.index();
            if self.pending_return[idx] >= self.credit_batch {
                let credits = self.pending_return[idx];
                self.pending_return[idx] = 0;
                self.returned_total[idx] += u64::from(credits);
                return Some(FlitPayload::CreditUpdate { class, credits });
            }
        }
        None
    }

    /// Unacked flits currently held for retransmission.
    pub fn retry_occupancy(&self) -> usize {
        self.retry.len()
    }

    /// Lifetime retransmitted flits.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Lifetime CRC-failed receives.
    pub fn crc_drops(&self) -> u64 {
        self.crc_drops
    }

    /// Lifetime receives refused because the overcommitted pool was full.
    pub fn overflow_drops(&self) -> u64 {
        self.overflow_drops
    }

    /// Current receive-pool occupancy in flits.
    pub fn rx_occupancy(&self) -> u32 {
        self.rx_pool_used
    }

    /// Lifetime flits accepted into the receive buffer for a class.
    pub fn accepted_total(&self, class: MsgClass) -> u64 {
        self.accepted_total[class.index()]
    }

    /// Lifetime flits drained from the receive buffer for a class.
    pub fn released_total(&self, class: MsgClass) -> u64 {
        self.released_total[class.index()]
    }

    /// Lifetime credits returned to the peer for a class.
    pub fn returned_total(&self, class: MsgClass) -> u64 {
        self.returned_total[class.index()]
    }

    /// Checks every credit-conservation equation this endpoint can verify
    /// locally, returning the first violated one.
    ///
    /// For each managed class:
    ///
    /// * `granted == consumed + available` — the TX counter neither mints
    ///   nor destroys credits ([`CreditCounter::conserved`]);
    /// * `accepted - released == rx_class_used` — every buffered flit is
    ///   accounted for until drained;
    /// * `released - returned == pending_return` — every drained flit's
    ///   credit is either already returned or queued for return;
    /// * and across classes, `sum(rx_class_used) == rx_pool_used` — the
    ///   shared pool occupancy matches the per-class ledgers.
    pub fn audit(&self) -> Result<(), CreditLedgerError> {
        for class in MsgClass::MANAGED {
            let idx = class.index();
            let tx = &self.tx_credits[idx];
            if !tx.conserved() {
                return Err(CreditLedgerError {
                    class,
                    equation: "granted == consumed + available",
                    lhs: tx.granted_total(),
                    rhs: tx.consumed_total() + u64::from(tx.available()),
                });
            }
            let buffered = self.accepted_total[idx] - self.released_total[idx];
            if buffered != u64::from(self.rx_class_used[idx]) {
                return Err(CreditLedgerError {
                    class,
                    equation: "accepted - released == rx_class_used",
                    lhs: buffered,
                    rhs: u64::from(self.rx_class_used[idx]),
                });
            }
            let owed = self.released_total[idx] - self.returned_total[idx];
            if owed != u64::from(self.pending_return[idx]) {
                return Err(CreditLedgerError {
                    class,
                    equation: "released - returned == pending_return",
                    lhs: owed,
                    rhs: u64::from(self.pending_return[idx]),
                });
            }
        }
        let class_sum: u32 = self.rx_class_used.iter().sum();
        if class_sum != self.rx_pool_used {
            return Err(CreditLedgerError {
                class: MsgClass::Req,
                equation: "sum(rx_class_used) == rx_pool_used",
                lhs: u64::from(class_sum),
                rhs: u64::from(self.rx_pool_used),
            });
        }
        Ok(())
    }
}

/// Leak check across a link pair at rest: once every credit update `rx`
/// sent has reached `tx`, every credit `rx` advertised is located — in
/// `tx`'s counter, held by a flit still buffered at `rx`, or coalescing in
/// `rx`'s `pending_return` — and none is lost in flight.
///
/// Call only at quiescence (no flits or credit updates still on the wire);
/// mid-flight the in-transit credits legitimately make the sum fall short.
pub fn audit_drained_pair(tx: &LinkLayer, rx: &LinkLayer) -> Result<(), CreditLedgerError> {
    tx.audit()?;
    rx.audit()?;
    // tx's credits were advertised from rx's receive config.
    let advertised = u64::from(rx.config.advertised_per_class());
    for class in MsgClass::MANAGED {
        let idx = class.index();
        let located = u64::from(tx.tx_credits[idx].available())
            + u64::from(rx.rx_class_used[idx])
            + u64::from(rx.pending_return[idx]);
        if located != advertised {
            return Err(CreditLedgerError {
                class,
                equation: "available + rx_buffered + pending_return == advertised",
                lhs: located,
                rhs: advertised,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::addr::NodeId;
    use crate::channel::{MemOpcode, Transaction, TransactionKind};

    fn txn(id: u64) -> FlitPayload {
        FlitPayload::Transaction(Transaction {
            id,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: id * 64,
            bytes: 0,
            src: NodeId(0),
            dst: NodeId(1),
        })
    }

    fn pair() -> (LinkLayer, LinkLayer) {
        let cfg = CreditConfig::default();
        (
            LinkLayer::symmetric(FlitMode::Flit68, cfg),
            LinkLayer::symmetric(FlitMode::Flit68, cfg),
        )
    }

    #[test]
    fn normal_flow_delivers_in_order() {
        let (mut tx, mut rx) = pair();
        for i in 0..10 {
            let flit = tx.send(txn(i)).expect("send");
            match rx.receive(flit) {
                RxAction::Deliver(FlitPayload::Transaction(t)) => assert_eq!(t.id, i),
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(rx.rx_occupancy(), 10);
    }

    #[test]
    fn credits_exhaust_and_replenish() {
        let cfg = CreditConfig {
            buffer_flits: 8,
            overcommit: 1.0,
            return_threshold: 2,
            retry_depth: 64,
        };
        let mut tx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        let mut rx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        // 8 flits / 4 classes = 2 credits per class.
        assert_eq!(cfg.advertised_per_class(), 2);
        let f1 = tx.send(txn(0)).expect("first");
        let f2 = tx.send(txn(1)).expect("second");
        assert_eq!(
            tx.send(txn(2)).expect_err("exhausted"),
            LinkLayerError::NoCredit(MsgClass::Req)
        );
        assert!(matches!(rx.receive(f1), RxAction::Deliver(_)));
        assert!(matches!(rx.receive(f2), RxAction::Deliver(_)));
        // Drain the receiver, triggering a credit return.
        rx.release(MsgClass::Req);
        assert!(rx.take_credit_update().is_none(), "below threshold");
        rx.release(MsgClass::Req);
        let update = rx.take_credit_update().expect("threshold met");
        let update_flit = rx.send(update).expect("control is uncredited");
        assert!(matches!(tx.receive(update_flit), RxAction::Control));
        assert!(tx.can_send(MsgClass::Req));
        tx.send(txn(2)).expect("replenished");
    }

    #[test]
    fn crc_corruption_triggers_go_back_n() {
        let (mut tx, mut rx) = pair();
        let f0 = tx.send(txn(0)).expect("send");
        let mut f1 = tx.send(txn(1)).expect("send");
        let f2 = tx.send(txn(2)).expect("send");
        assert!(matches!(rx.receive(f0), RxAction::Deliver(_)));
        f1.corrupt();
        let nak = match rx.receive(f1) {
            RxAction::Refused(n) => n,
            other => panic!("expected refusal, got {other:?}"),
        };
        assert_eq!(nak, FlitPayload::Nak { from_seq: 1 });
        // Subsequent flit hits the sequence gap; NAK suppressed.
        assert_eq!(rx.receive(f2), RxAction::Duplicate);
        // Transmitter retransmits from seq 1.
        let resend = tx.on_nak(1);
        assert_eq!(resend.len(), 2);
        assert_eq!(tx.retransmissions(), 2);
        for f in resend {
            assert!(matches!(rx.receive(f), RxAction::Deliver(_)));
        }
        assert_eq!(rx.rx_occupancy(), 3);
    }

    #[test]
    fn ack_prunes_retry_buffer() {
        let (mut tx, mut rx) = pair();
        for i in 0..4 {
            let f = tx.send(txn(i)).expect("send");
            rx.receive(f);
        }
        assert_eq!(tx.retry_occupancy(), 4);
        let ack = rx.take_ack().expect("threshold (4) met");
        let ack_flit = rx.send(ack).expect("ctrl");
        tx.receive(ack_flit);
        assert_eq!(tx.retry_occupancy(), 0);
    }

    #[test]
    fn overcommit_advertises_more_than_pool() {
        let cfg = CreditConfig {
            buffer_flits: 8,
            overcommit: 2.0,
            return_threshold: 4,
            retry_depth: 64,
        };
        // 8 * 2.0 / 4 classes = 4 credits per class, 16 advertised > 8 pool.
        assert_eq!(cfg.advertised_per_class(), 4);
        let mut tx = LinkLayer::new(FlitMode::Flit68, cfg, cfg);
        let mut rx = LinkLayer::new(FlitMode::Flit68, cfg, cfg);
        // Send 4 Req + 4 RwD + 1 more Req: the 9th fills past the pool.
        let mut flits = Vec::new();
        for i in 0..4u64 {
            flits.push(tx.send(txn(i)).expect("req"));
        }
        for i in 0..4u64 {
            let wr = FlitPayload::Transaction(Transaction {
                id: 100 + i,
                kind: TransactionKind::Mem(MemOpcode::MemWr),
                addr: i * 64,
                bytes: 64,
                src: NodeId(0),
                dst: NodeId(1),
            });
            flits.push(tx.send(wr).expect("rwd"));
        }
        // One more data response class message to overflow the pool of 8.
        let extra = FlitPayload::Transaction(Transaction {
            id: 999,
            kind: TransactionKind::Mem(MemOpcode::MemData),
            addr: 0,
            bytes: 64,
            src: NodeId(0),
            dst: NodeId(1),
        });
        flits.push(tx.send(extra).expect("drs credit exists"));
        let mut delivered = 0;
        let mut refused = 0;
        for f in flits {
            match rx.receive(f) {
                RxAction::Deliver(_) => delivered += 1,
                RxAction::Refused(_) => refused += 1,
                _ => {}
            }
        }
        assert_eq!(delivered, 8, "pool capacity");
        assert_eq!(refused, 1, "overcommitted overflow NAKed");
        assert_eq!(rx.overflow_drops(), 1);
    }

    #[test]
    fn ledger_balances_through_flow_and_drain() {
        let cfg = CreditConfig {
            buffer_flits: 8,
            overcommit: 1.0,
            return_threshold: 1,
            retry_depth: 64,
        };
        let mut tx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        let mut rx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        for i in 0..2u64 {
            let f = tx.send(txn(i)).expect("credit");
            assert!(matches!(rx.receive(f), RxAction::Deliver(_)));
        }
        tx.audit().expect("tx ledger mid-flow");
        rx.audit().expect("rx ledger mid-flow");
        assert_eq!(rx.accepted_total(MsgClass::Req), 2);
        // Drain the receiver and walk every credit back to the sender.
        for _ in 0..2 {
            rx.release(MsgClass::Req);
            let update = rx.take_credit_update().expect("threshold 1");
            let uf = rx.send(update).expect("control is uncredited");
            assert!(matches!(tx.receive(uf), RxAction::Control));
        }
        assert_eq!(rx.released_total(MsgClass::Req), 2);
        assert_eq!(rx.returned_total(MsgClass::Req), 2);
        audit_drained_pair(&tx, &rx).expect("no leaked credits");
    }

    #[test]
    fn lost_credit_update_is_reported_as_a_leak_at_drain() {
        let cfg = CreditConfig {
            buffer_flits: 8,
            overcommit: 1.0,
            return_threshold: 1,
            retry_depth: 64,
        };
        let mut tx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        let mut rx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        let f = tx.send(txn(0)).expect("credit");
        assert!(matches!(rx.receive(f), RxAction::Deliver(_)));
        rx.release(MsgClass::Req);
        // The credit update falls on the floor instead of reaching tx.
        let _lost = rx.take_credit_update().expect("threshold 1");
        // Each endpoint is locally consistent...
        tx.audit().expect("tx ledger");
        rx.audit().expect("rx ledger");
        // ...but the pair has lost a credit, which the drain check catches.
        let err = audit_drained_pair(&tx, &rx).expect_err("leak");
        assert_eq!(err.class, MsgClass::Req);
        assert_eq!(
            err.equation,
            "available + rx_buffered + pending_return == advertised"
        );
        assert_eq!(err.lhs + 1, err.rhs);
    }

    #[test]
    fn nak_and_vc_credit_surface_as_their_own_actions() {
        let (mut tx, mut rx) = pair();
        let nak = tx.send(FlitPayload::Nak { from_seq: 3 }).expect("ctrl");
        assert_eq!(rx.receive(nak), RxAction::Nak { from_seq: 3 });
        let vc = FlitPayload::VcCredit { vc: 2, credits: 5 };
        let vc = tx.send(vc).expect("ctrl");
        assert_eq!(rx.receive(vc), RxAction::VcCredit { vc: 2, credits: 5 });
        assert_eq!(rx.crc_drops(), 0);
        assert_eq!(rx.rx_occupancy(), 0, "control never occupies the buffer");
    }

    #[test]
    fn corrupted_nak_and_vc_credit_are_refused() {
        let (mut tx, mut rx) = pair();
        for payload in [
            FlitPayload::Nak { from_seq: 0 },
            FlitPayload::VcCredit { vc: 1, credits: 1 },
        ] {
            let mut f = tx.send(payload).expect("ctrl");
            f.corrupt();
            assert_eq!(
                rx.receive(f),
                RxAction::Refused(FlitPayload::Nak { from_seq: 0 })
            );
        }
        assert_eq!(rx.crc_drops(), 2);
    }

    #[test]
    fn duplicate_flits_are_dropped() {
        let (mut tx, mut rx) = pair();
        let f = tx.send(txn(0)).expect("send");
        assert!(matches!(rx.receive(f.clone()), RxAction::Deliver(_)));
        assert_eq!(rx.receive(f), RxAction::Duplicate);
    }

    #[test]
    fn retry_buffer_full_blocks_sender() {
        let cfg = CreditConfig {
            buffer_flits: 1024,
            overcommit: 1.0,
            return_threshold: 4,
            retry_depth: 3,
        };
        let mut tx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
        for i in 0..3 {
            tx.send(txn(i)).expect("fits");
        }
        assert_eq!(
            tx.send(txn(3)).expect_err("full"),
            LinkLayerError::RetryBufferFull
        );
        assert!(!tx.can_send(MsgClass::Req));
    }

    proptest! {
        #[test]
        fn lossy_link_eventually_delivers_everything(
            n in 1usize..60,
            drop_pattern in prop::collection::vec(any::<bool>(), 60),
        ) {
            // Send n transactions over a link where drop_pattern[i] corrupts
            // the i-th wire crossing; retransmit on NAK until all delivered.
            let cfg = CreditConfig {
                buffer_flits: 256,
                overcommit: 1.0,
                return_threshold: 1,
                retry_depth: 256,
            };
            let mut tx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
            let mut rx = LinkLayer::symmetric(FlitMode::Flit68, cfg);
            let mut wire: Vec<Flit> = Vec::new();
            for i in 0..n as u64 {
                wire.push(tx.send(txn(i)).expect("credit"));
            }
            let mut delivered: Vec<u64> = Vec::new();
            let mut crossings = 0usize;
            while !wire.is_empty() {
                let mut next_wire = Vec::new();
                for mut f in wire {
                    let corrupt = drop_pattern.get(crossings).copied().unwrap_or(false)
                        && crossings < 40; // guarantee eventual success
                    crossings += 1;
                    if corrupt {
                        f.corrupt();
                    }
                    match rx.receive(f) {
                        RxAction::Deliver(FlitPayload::Transaction(t)) => delivered.push(t.id),
                        RxAction::Refused(FlitPayload::Nak { from_seq }) => {
                            next_wire = tx.on_nak(from_seq);
                            break;
                        }
                        _ => {}
                    }
                }
                wire = next_wire;
            }
            prop_assert_eq!(delivered.len(), n);
            let expect: Vec<u64> = (0..n as u64).collect();
            prop_assert_eq!(delivered, expect, "in-order exactly-once delivery");
        }
    }
}
