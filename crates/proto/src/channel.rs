//! Transaction layer: CXL.io / CXL.mem / CXL.cache channel semantics.
//!
//! The transaction layer "provides channel semantics and communication
//! primitives" (§2.1). We model the three CXL channels and a representative
//! subset of their message classes and opcodes, sufficient to express every
//! traffic pattern the paper's experiments need: host loads/stores to FAMs
//! (CXL.mem), device-coherent caching (CXL.cache), and non-coherent PCIe
//! style reads/writes (CXL.io).

use serde::{Deserialize, Serialize};

use crate::addr::NodeId;

/// The three CXL channels multiplexed over one Flex Bus link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Channel {
    /// `CXL.io`: PCIe semantics with enhancements (non-coherent read/write).
    Io,
    /// `CXL.mem`: host load/store access to device memory.
    Mem,
    /// `CXL.cache`: device-side coherent caching of host memory.
    Cache,
}

/// CXL.mem opcodes (master-to-subordinate and subordinate-to-master).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemOpcode {
    // M2S Req (requests without data).
    /// Read a full cacheline, data expected (M2S Req).
    MemRd,
    /// Read with no data needed (ownership/invalidate), M2S Req.
    MemInv,
    /// Speculative read launched by a prefetcher (M2S Req).
    MemSpecRd,
    // M2S RwD (requests with data).
    /// Full-cacheline write (M2S RwD).
    MemWr,
    /// Partial-cacheline write with byte enables (M2S RwD).
    MemWrPtl,
    // S2M NDR (no-data responses).
    /// Completion without data (S2M NDR).
    Cmp,
    /// Completion granting Shared state (S2M NDR).
    CmpS,
    /// Completion granting Exclusive state (S2M NDR).
    CmpE,
    // S2M DRS (data responses).
    /// Memory data response (S2M DRS).
    MemData,
}

impl MemOpcode {
    /// Message class for credit accounting: requests, requests-with-data,
    /// no-data responses, or data responses.
    pub fn msg_class(self) -> MsgClass {
        match self {
            MemOpcode::MemRd | MemOpcode::MemInv | MemOpcode::MemSpecRd => MsgClass::Req,
            MemOpcode::MemWr | MemOpcode::MemWrPtl => MsgClass::RwD,
            MemOpcode::Cmp | MemOpcode::CmpS | MemOpcode::CmpE => MsgClass::Ndr,
            MemOpcode::MemData => MsgClass::Drs,
        }
    }

    /// Whether this opcode carries a data payload.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            MemOpcode::MemWr | MemOpcode::MemWrPtl | MemOpcode::MemData
        )
    }

    /// Whether this opcode is a response.
    pub fn is_response(self) -> bool {
        matches!(
            self,
            MemOpcode::Cmp | MemOpcode::CmpS | MemOpcode::CmpE | MemOpcode::MemData
        )
    }
}

/// CXL.cache opcodes (device-to-host requests, host snoops, responses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CacheOpcode {
    // D2H requests.
    /// Read current value without caching (D2H Req).
    RdCurr,
    /// Read for ownership — exclusive (D2H Req).
    RdOwn,
    /// Read shared (D2H Req).
    RdShared,
    /// Write back a dirty line and invalidate (D2H Req).
    DirtyEvict,
    /// Drop a clean line (D2H Req).
    CleanEvict,
    /// Flush a line to memory (D2H Req).
    CLFlush,
    // H2D snoops.
    /// Snoop requesting data, downgrade to Shared (H2D Req).
    SnpData,
    /// Snoop invalidating the line (H2D Req).
    SnpInv,
    /// Snoop for the current value, no state change (H2D Req).
    SnpCur,
    // Responses.
    /// Global-observation response: request ordered (H2D Rsp).
    Go,
    /// Data response (H2D Data / D2H Data).
    Data,
    /// Snoop response: line was Invalid (D2H Rsp).
    RspIHitI,
    /// Snoop response: line was Shared/Exclusive, now Shared (D2H Rsp).
    RspSHitSe,
    /// Snoop response: dirty line forwarded (D2H Rsp).
    RspIFwdM,
}

impl CacheOpcode {
    /// Message class for credit accounting.
    pub fn msg_class(self) -> MsgClass {
        match self {
            CacheOpcode::RdCurr
            | CacheOpcode::RdOwn
            | CacheOpcode::RdShared
            | CacheOpcode::DirtyEvict
            | CacheOpcode::CleanEvict
            | CacheOpcode::CLFlush
            | CacheOpcode::SnpData
            | CacheOpcode::SnpInv
            | CacheOpcode::SnpCur => MsgClass::Req,
            CacheOpcode::Go | CacheOpcode::RspIHitI | CacheOpcode::RspSHitSe => MsgClass::Ndr,
            CacheOpcode::Data | CacheOpcode::RspIFwdM => MsgClass::Drs,
        }
    }

    /// Whether this opcode carries a data payload.
    pub fn carries_data(self) -> bool {
        matches!(
            self,
            CacheOpcode::Data | CacheOpcode::RspIFwdM | CacheOpcode::DirtyEvict
        )
    }
}

/// CXL.io opcodes — PCIe-style transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOpcode {
    /// Non-posted memory read.
    MemRead,
    /// Posted memory write.
    MemWrite,
    /// Read completion with data.
    Completion,
    /// Configuration read (fabric manager / discovery).
    CfgRead,
    /// Configuration write (fabric manager / routing-table fill).
    CfgWrite,
    /// Vendor-defined message (used by the FCC control lane).
    VendorMsg,
}

impl IoOpcode {
    /// Message class for credit accounting: posted, non-posted, completion.
    pub fn msg_class(self) -> MsgClass {
        match self {
            IoOpcode::MemWrite | IoOpcode::VendorMsg => MsgClass::RwD,
            IoOpcode::MemRead | IoOpcode::CfgRead | IoOpcode::CfgWrite => MsgClass::Req,
            IoOpcode::Completion => MsgClass::Drs,
        }
    }
}

/// Credit classes: each class has an independent credit pool on a link, so
/// responses can always make progress past stalled requests (deadlock
/// avoidance).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MsgClass {
    /// Requests without data.
    Req,
    /// Requests with data (writes).
    RwD,
    /// No-data responses.
    Ndr,
    /// Data responses.
    Drs,
    /// Link-layer control (credit updates, acks) — never blocked.
    Ctrl,
}

impl MsgClass {
    /// All credit-managed classes (excludes `Ctrl`).
    pub const MANAGED: [MsgClass; 4] = [MsgClass::Req, MsgClass::RwD, MsgClass::Ndr, MsgClass::Drs];

    /// Stable small index for per-class arrays.
    pub fn index(self) -> usize {
        match self {
            MsgClass::Req => 0,
            MsgClass::RwD => 1,
            MsgClass::Ndr => 2,
            MsgClass::Drs => 3,
            MsgClass::Ctrl => 4,
        }
    }
}

/// A channel-tagged opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TransactionKind {
    /// A CXL.mem transaction.
    Mem(MemOpcode),
    /// A CXL.cache transaction.
    Cache(CacheOpcode),
    /// A CXL.io transaction.
    Io(IoOpcode),
}

impl TransactionKind {
    /// The channel this transaction travels on.
    pub fn channel(self) -> Channel {
        match self {
            TransactionKind::Mem(_) => Channel::Mem,
            TransactionKind::Cache(_) => Channel::Cache,
            TransactionKind::Io(_) => Channel::Io,
        }
    }

    /// The credit class this transaction consumes.
    pub fn msg_class(self) -> MsgClass {
        match self {
            TransactionKind::Mem(op) => op.msg_class(),
            TransactionKind::Cache(op) => op.msg_class(),
            TransactionKind::Io(op) => op.msg_class(),
        }
    }

    /// Whether the transaction carries a data payload.
    pub fn carries_data(self) -> bool {
        match self {
            TransactionKind::Mem(op) => op.carries_data(),
            TransactionKind::Cache(op) => op.carries_data(),
            TransactionKind::Io(op) => {
                matches!(
                    op,
                    IoOpcode::MemWrite | IoOpcode::Completion | IoOpcode::VendorMsg
                )
            }
        }
    }

    /// Whether the transaction is a response (completes an earlier request)
    /// rather than an unsolicited request such as a snoop.
    pub fn is_response(self) -> bool {
        match self {
            TransactionKind::Mem(op) => op.is_response(),
            TransactionKind::Cache(op) => matches!(
                op,
                CacheOpcode::Go
                    | CacheOpcode::Data
                    | CacheOpcode::RspIHitI
                    | CacheOpcode::RspSHitSe
                    | CacheOpcode::RspIFwdM
            ),
            TransactionKind::Io(op) => matches!(op, IoOpcode::Completion),
        }
    }
}

/// A transaction as it moves through the fabric: one request or response.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Transaction {
    /// Fabric-unique id; responses echo the request id.
    pub id: u64,
    /// Opcode + channel.
    pub kind: TransactionKind,
    /// Target host physical address (or device physical address at a FAM).
    pub addr: u64,
    /// Payload length in bytes (0 for no-data messages).
    pub bytes: u32,
    /// Originating fabric node.
    pub src: NodeId,
    /// Destination fabric node.
    pub dst: NodeId,
}

impl Transaction {
    /// The causal trace context for telemetry spans: the fabric-unique
    /// transaction id doubles as the trace id, so every hop a transaction
    /// (or its data slots) takes can be stitched back together.
    pub fn trace_ctx(&self) -> fcc_telemetry::TraceCtx {
        fcc_telemetry::TraceCtx::new(self.id)
    }

    /// Builds the matching response for a request, swapping endpoints.
    pub fn response(&self, kind: TransactionKind, bytes: u32) -> Transaction {
        Transaction {
            id: self.id,
            kind,
            addr: self.addr,
            bytes,
            src: self.dst,
            dst: self.src,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opcode_classes_are_consistent() {
        assert_eq!(MemOpcode::MemRd.msg_class(), MsgClass::Req);
        assert_eq!(MemOpcode::MemWr.msg_class(), MsgClass::RwD);
        assert_eq!(MemOpcode::Cmp.msg_class(), MsgClass::Ndr);
        assert_eq!(MemOpcode::MemData.msg_class(), MsgClass::Drs);
        assert!(MemOpcode::MemData.is_response());
        assert!(!MemOpcode::MemRd.is_response());
    }

    #[test]
    fn data_carrying_opcodes() {
        assert!(MemOpcode::MemWr.carries_data());
        assert!(!MemOpcode::MemRd.carries_data());
        assert!(CacheOpcode::Data.carries_data());
        assert!(!CacheOpcode::SnpInv.carries_data());
    }

    #[test]
    fn transaction_kind_channel_mapping() {
        assert_eq!(
            TransactionKind::Mem(MemOpcode::MemRd).channel(),
            Channel::Mem
        );
        assert_eq!(
            TransactionKind::Cache(CacheOpcode::RdOwn).channel(),
            Channel::Cache
        );
        assert_eq!(
            TransactionKind::Io(IoOpcode::MemRead).channel(),
            Channel::Io
        );
    }

    #[test]
    fn response_swaps_endpoints_and_keeps_id() {
        let req = Transaction {
            id: 9,
            kind: TransactionKind::Mem(MemOpcode::MemRd),
            addr: 0x1000,
            bytes: 0,
            src: NodeId(1),
            dst: NodeId(7),
        };
        let rsp = req.response(TransactionKind::Mem(MemOpcode::MemData), 64);
        assert_eq!(rsp.id, 9);
        assert_eq!(rsp.src, NodeId(7));
        assert_eq!(rsp.dst, NodeId(1));
        assert_eq!(rsp.bytes, 64);
    }

    #[test]
    fn msg_class_indices_are_dense() {
        let mut seen = [false; 5];
        for c in MsgClass::MANAGED {
            seen[c.index()] = true;
        }
        seen[MsgClass::Ctrl.index()] = true;
        assert!(seen.iter().all(|&s| s));
    }
}
