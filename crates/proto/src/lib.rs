#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! CXL Flex Bus protocol model: flits, channels, and the three-layer stack.
//!
//! This crate contains the *protocol logic* of the memory fabric as pure,
//! engine-independent state machines, following the Flex Bus layering the
//! paper describes (§2.1):
//!
//! * [`phys`] — physical layer: link speeds (GT/s), x4/x8/x16 bifurcation,
//!   68 B / 256 B flit modes, and serialization timing.
//! * [`link`] — link layer: hop-by-hop credit-based flow control (credit
//!   update protocol with overcommitment), CRC-protected flits, and a
//!   go-back-N retry buffer for reliable transmission.
//! * [`channel`] — transaction layer: CXL.io / CXL.mem / CXL.cache channel
//!   semantics and their request/response opcodes.
//! * [`flit`] — the flit container moved across the wire.
//! * [`addr`] — host physical address maps and FAM interleaving.
//! * [`registry`] — Table 1 of the paper: the commodity memory fabrics.
//!
//! The event-driven wrappers that put these state machines on simulated
//! wires live in `fcc-fabric`.

pub mod addr;
pub mod channel;
pub mod crc;
pub mod flit;
pub mod link;
pub mod phys;
pub mod registry;

pub use addr::{AddrMap, AddrRange, InterleaveGranularity, NodeId};
pub use channel::{CacheOpcode, Channel, IoOpcode, MemOpcode, TransactionKind};
pub use flit::{Flit, FlitMode, FlitPayload};
pub use link::{CreditConfig, CreditCounter, LinkLayer, LinkLayerError};
pub use phys::{Bifurcation, LinkSpeed, PhysConfig};
