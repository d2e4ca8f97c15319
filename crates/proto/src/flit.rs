//! Flits: the unit of transfer on a Flex Bus link.
//!
//! The physical layer "supports both 68B and 256B flit modes" (§2.1). A
//! flit carries either transaction-layer content (a header, possibly with a
//! data slot) or link-layer control (credit updates, acks/naks for the
//! retry protocol). Flits are CRC-protected; the link layer recomputes the
//! CRC on receive and requests retransmission on mismatch.

use serde::{Deserialize, Serialize};

use crate::channel::{MsgClass, Transaction, TransactionKind};
use crate::crc::{crc16, crc32};

/// Flit framing mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FlitMode {
    /// 68-byte flits (CXL 1.1/2.0): 64 B of slots + 2 B CRC + 2 B header.
    Flit68,
    /// 256-byte flits (CXL 3.x): 238 B usable + FEC/CRC overhead.
    Flit256,
}

impl FlitMode {
    /// Total wire footprint of one flit.
    pub fn bytes(self) -> u64 {
        match self {
            FlitMode::Flit68 => 68,
            FlitMode::Flit256 => 256,
        }
    }

    /// Payload bytes available to the transaction layer per flit.
    pub fn payload_bytes(self) -> u64 {
        match self {
            FlitMode::Flit68 => 64,
            FlitMode::Flit256 => 238,
        }
    }
}

/// What a flit carries.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum FlitPayload {
    /// A transaction-layer message (header slot; small payloads inline).
    Transaction(Transaction),
    /// A continuation data slot for a multi-flit transfer. Data slots are
    /// routed independently through the fabric, so they carry endpoints.
    Data {
        /// Transaction this slot belongs to.
        txn_id: u64,
        /// Zero-based slot index within the transfer.
        slot: u32,
        /// Originating fabric node.
        src: crate::addr::NodeId,
        /// Destination fabric node.
        dst: crate::addr::NodeId,
    },
    /// Link-layer credit update: grants `credits` to the peer for `class`.
    CreditUpdate {
        /// Credit class being replenished.
        class: MsgClass,
        /// Number of flit credits granted.
        credits: u32,
    },
    /// Link-layer acknowledgment of everything up to and including `seq`.
    Ack {
        /// Highest in-order sequence number received.
        seq: u64,
    },
    /// Link-layer negative ack: go-back-N retransmit from `from_seq`.
    Nak {
        /// First sequence number to retransmit.
        from_seq: u64,
    },
    /// Per-virtual-channel credit return for wormhole switching: grants
    /// `credits` flit slots back to the upstream switch for lane `vc`.
    /// Uncredited link control, like [`FlitPayload::CreditUpdate`], but
    /// scoped to one virtual channel of the switch-to-switch link rather
    /// than a message class of the link layer.
    VcCredit {
        /// Virtual channel (lane) being replenished.
        vc: u8,
        /// Number of flit credits granted.
        credits: u32,
    },
    /// Idle/keepalive flit.
    Idle,
}

impl FlitPayload {
    /// The credit class this payload consumes on the wire.
    pub fn msg_class(&self) -> MsgClass {
        match self {
            FlitPayload::Transaction(t) => t.kind.msg_class(),
            FlitPayload::Data { .. } => MsgClass::Drs,
            _ => MsgClass::Ctrl,
        }
    }

    /// Whether this is link-layer control (never consumes credits).
    pub fn is_control(&self) -> bool {
        matches!(self.msg_class(), MsgClass::Ctrl)
    }

    /// The causal trace id this payload belongs to: transaction headers
    /// and data slots carry their fabric-unique transaction id; link
    /// control carries none. Telemetry keys per-hop spans on this, so a
    /// flit's journey is reconstructible without widening the wire format.
    pub fn trace_id(&self) -> u64 {
        match self {
            FlitPayload::Transaction(t) => t.id,
            FlitPayload::Data { txn_id, .. } => *txn_id,
            _ => 0,
        }
    }

    /// The causal trace context for telemetry spans ([`Self::trace_id`]
    /// wrapped; untracked for link control).
    pub fn trace_ctx(&self) -> fcc_telemetry::TraceCtx {
        fcc_telemetry::TraceCtx::new(self.trace_id())
    }
}

/// One flit: sequence number, payload, and CRC.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Flit {
    /// Link-layer sequence number (control flits use 0 and are unsequenced).
    pub seq: u64,
    /// Framing mode this flit was emitted under.
    pub mode: FlitMode,
    /// Carried content.
    pub payload: FlitPayload,
    /// CRC over the serialized payload (16-bit stored zero-extended for
    /// 68 B flits, full 32-bit for 256 B flits).
    pub crc: u32,
}

impl Flit {
    /// Builds a flit, computing the CRC over the payload encoding.
    pub fn new(seq: u64, mode: FlitMode, payload: FlitPayload) -> Self {
        let crc = Self::compute_crc(seq, mode, &payload);
        Flit {
            seq,
            mode,
            payload,
            crc,
        }
    }

    /// Longest structural encoding: seq(8) + variant tag(1) + the widest
    /// payload (a `Transaction`: id 8 + kind 2 + addr 8 + bytes 4 +
    /// src/dst 2×2 = 26 B).
    const ENCODE_MAX: usize = 8 + 1 + 26;

    fn encode(seq: u64, payload: &FlitPayload, buf: &mut [u8; Self::ENCODE_MAX]) -> usize {
        // A compact, stable, injective encoding for CRC purposes: seq, a
        // payload variant tag, then every payload field as fixed-width
        // little-endian integers (enum opcodes as discriminant bytes).
        // Not a wire format — the simulator never parses it back — but any
        // payload or seq mutation changes it. Stack-buffer structural
        // encoding keeps CRC computation off the allocator: it runs twice
        // per flit per hop (emit, and the link layer's one receive check)
        // on the hot path.
        let mut n = 0;
        let mut put = |bytes: &[u8]| {
            buf[n..n + bytes.len()].copy_from_slice(bytes);
            n += bytes.len();
        };
        put(&seq.to_le_bytes());
        match payload {
            FlitPayload::Transaction(t) => {
                put(&[0]);
                put(&t.id.to_le_bytes());
                let (chan, op) = match t.kind {
                    TransactionKind::Mem(op) => (0u8, op as u8),
                    TransactionKind::Cache(op) => (1, op as u8),
                    TransactionKind::Io(op) => (2, op as u8),
                };
                put(&[chan, op]);
                put(&t.addr.to_le_bytes());
                put(&t.bytes.to_le_bytes());
                put(&t.src.0.to_le_bytes());
                put(&t.dst.0.to_le_bytes());
            }
            FlitPayload::Data {
                txn_id,
                slot,
                src,
                dst,
            } => {
                put(&[1]);
                put(&txn_id.to_le_bytes());
                put(&slot.to_le_bytes());
                put(&src.0.to_le_bytes());
                put(&dst.0.to_le_bytes());
            }
            FlitPayload::CreditUpdate { class, credits } => {
                put(&[2, class.index() as u8]);
                put(&credits.to_le_bytes());
            }
            FlitPayload::Ack { seq } => {
                put(&[3]);
                put(&seq.to_le_bytes());
            }
            FlitPayload::Nak { from_seq } => {
                put(&[4]);
                put(&from_seq.to_le_bytes());
            }
            FlitPayload::Idle => put(&[5]),
            FlitPayload::VcCredit { vc, credits } => {
                put(&[6, *vc]);
                put(&credits.to_le_bytes());
            }
        }
        n
    }

    fn compute_crc(seq: u64, mode: FlitMode, payload: &FlitPayload) -> u32 {
        let mut buf = [0u8; Self::ENCODE_MAX];
        let n = Self::encode(seq, payload, &mut buf);
        match mode {
            FlitMode::Flit68 => crc16(&buf[..n]) as u32,
            FlitMode::Flit256 => crc32(&buf[..n]),
        }
    }

    /// Recomputes the CRC and compares against the stored value.
    pub fn crc_ok(&self) -> bool {
        Self::compute_crc(self.seq, self.mode, &self.payload) == self.crc
    }

    /// Corrupts the stored CRC (fault injection for retry-path tests).
    pub fn corrupt(&mut self) {
        self.crc ^= 0x5A5A;
    }

    /// Wire footprint of this flit.
    pub fn wire_bytes(&self) -> u64 {
        self.mode.bytes()
    }
}

/// Number of data slots needed to move `payload_bytes` in the given mode:
/// at least one, and not counting the header flit that precedes them.
pub fn flits_for_transfer(mode: FlitMode, payload_bytes: u64) -> u64 {
    if payload_bytes == 0 {
        return 1;
    }
    payload_bytes.div_ceil(mode.payload_bytes()).max(1)
}

/// Data slots that follow `txn`'s header flit on the wire in `mode`: a
/// data-carrying transaction with a nonzero payload takes
/// [`flits_for_transfer`] slots, anything else travels as a lone header.
/// Senders, receivers and switches all size a transfer with this rule.
pub fn data_slots(mode: FlitMode, txn: &Transaction) -> u64 {
    if txn.kind.carries_data() && txn.bytes > 0 {
        flits_for_transfer(mode, txn.bytes as u64)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::addr::NodeId;
    use crate::channel::{MemOpcode, TransactionKind};

    fn sample_txn() -> Transaction {
        Transaction {
            id: 1,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: 0xdead_beef,
            bytes: 0,
            src: NodeId(0),
            dst: NodeId(3),
        }
    }

    #[test]
    fn fresh_flit_passes_crc() {
        let f = Flit::new(5, FlitMode::Flit68, FlitPayload::Transaction(sample_txn()));
        assert!(f.crc_ok());
        assert_eq!(f.wire_bytes(), 68);
    }

    #[test]
    fn corruption_fails_crc() {
        let mut f = Flit::new(5, FlitMode::Flit256, FlitPayload::Idle);
        assert!(f.crc_ok());
        f.corrupt();
        assert!(!f.crc_ok());
    }

    #[test]
    fn payload_mutation_fails_crc() {
        let mut f = Flit::new(5, FlitMode::Flit68, FlitPayload::Ack { seq: 10 });
        f.payload = FlitPayload::Ack { seq: 11 };
        assert!(!f.crc_ok());
    }

    #[test]
    fn every_payload_field_is_covered_by_the_encoding() {
        // Mutating any single field of any variant must change the CRC.
        let base_txn = sample_txn();
        let variants: Vec<FlitPayload> = vec![
            FlitPayload::Transaction(base_txn.clone()),
            FlitPayload::Transaction(Transaction {
                id: 2,
                ..base_txn.clone()
            }),
            FlitPayload::Transaction(Transaction {
                kind: TransactionKind::Mem(MemOpcode::MemWr),
                ..base_txn.clone()
            }),
            FlitPayload::Transaction(Transaction {
                addr: 0xdead_bee0,
                ..base_txn.clone()
            }),
            FlitPayload::Transaction(Transaction {
                bytes: 64,
                ..base_txn.clone()
            }),
            FlitPayload::Transaction(Transaction {
                src: NodeId(1),
                ..base_txn.clone()
            }),
            FlitPayload::Transaction(Transaction {
                dst: NodeId(4),
                ..base_txn
            }),
            FlitPayload::Data {
                txn_id: 1,
                slot: 0,
                src: NodeId(0),
                dst: NodeId(3),
            },
            FlitPayload::Data {
                txn_id: 1,
                slot: 1,
                src: NodeId(0),
                dst: NodeId(3),
            },
            FlitPayload::Data {
                txn_id: 1,
                slot: 0,
                src: NodeId(2),
                dst: NodeId(3),
            },
            FlitPayload::Data {
                txn_id: 1,
                slot: 0,
                src: NodeId(0),
                dst: NodeId(5),
            },
            FlitPayload::CreditUpdate {
                class: MsgClass::Req,
                credits: 4,
            },
            FlitPayload::CreditUpdate {
                class: MsgClass::Drs,
                credits: 4,
            },
            FlitPayload::CreditUpdate {
                class: MsgClass::Req,
                credits: 5,
            },
            FlitPayload::Ack { seq: 10 },
            FlitPayload::Nak { from_seq: 10 },
            FlitPayload::Idle,
            FlitPayload::VcCredit { vc: 0, credits: 1 },
            FlitPayload::VcCredit { vc: 1, credits: 1 },
            FlitPayload::VcCredit { vc: 0, credits: 2 },
        ];
        let mut crcs: Vec<u32> = variants
            .into_iter()
            .map(|p| Flit::new(7, FlitMode::Flit256, p).crc)
            .collect();
        let before = crcs.len();
        crcs.sort_unstable();
        crcs.dedup();
        assert_eq!(crcs.len(), before, "all distinct payloads hash distinctly");
    }

    #[test]
    fn control_payloads_are_creditless() {
        assert!(FlitPayload::Ack { seq: 0 }.is_control());
        assert!(FlitPayload::Idle.is_control());
        assert!(FlitPayload::CreditUpdate {
            class: MsgClass::Req,
            credits: 4
        }
        .is_control());
        assert!(FlitPayload::VcCredit { vc: 1, credits: 1 }.is_control());
        assert!(!FlitPayload::Transaction(sample_txn()).is_control());
    }

    #[test]
    fn transfer_flit_counts() {
        // A 64 B cacheline fits one 68 B flit's data slots.
        assert_eq!(flits_for_transfer(FlitMode::Flit68, 64), 1);
        // 16 KiB in 68 B flits: 16384 / 64 = 256 flits.
        assert_eq!(flits_for_transfer(FlitMode::Flit68, 16384), 256);
        // No-data message still occupies one flit.
        assert_eq!(flits_for_transfer(FlitMode::Flit68, 0), 1);
        // 256 B mode packs more per flit.
        assert_eq!(flits_for_transfer(FlitMode::Flit256, 16384), 69);
    }

    #[test]
    fn only_data_carrying_payloads_take_data_slots() {
        let with = |kind, bytes| Transaction {
            kind,
            bytes,
            ..sample_txn()
        };
        let wr = TransactionKind::Mem(MemOpcode::MemWr);
        assert_eq!(data_slots(FlitMode::Flit68, &with(wr, 64)), 1);
        assert_eq!(data_slots(FlitMode::Flit68, &with(wr, 65)), 2);
        assert_eq!(data_slots(FlitMode::Flit256, &with(wr, 16384)), 69);
        // An empty payload sends no data slot, even on a data opcode.
        assert_eq!(data_slots(FlitMode::Flit68, &with(wr, 0)), 0);
        // A read request names its size but carries no data.
        let rd = TransactionKind::Mem(MemOpcode::MemRd);
        assert_eq!(data_slots(FlitMode::Flit68, &with(rd, 4096)), 0);
    }

    proptest! {
        #[test]
        fn seq_change_always_detected(seq in 0u64..1_000_000, delta in 1u64..1000) {
            let mut f = Flit::new(seq, FlitMode::Flit68, FlitPayload::Idle);
            f.seq = seq + delta;
            prop_assert!(!f.crc_ok());
        }

        #[test]
        fn flit_count_scales_linearly(kb in 1u64..64) {
            let n = flits_for_transfer(FlitMode::Flit68, kb * 1024);
            prop_assert_eq!(n, kb * 16);
        }
    }
}
