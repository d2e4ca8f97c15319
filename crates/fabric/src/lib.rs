#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! The composable infrastructure: adapters, switches, routing, and the
//! central fabric arbiter.
//!
//! This crate turns the pure protocol state machines of `fcc-proto` into
//! event-driven hardware models on a shared [`fcc_sim::Engine`]:
//!
//! * [`port`] — a Flex Bus link endpoint bound to a simulated wire
//!   (serialization occupancy, propagation, error injection, credit pump).
//! * [`switch`] — the fabric switch (FS): UP/DP ports, FIFO or
//!   virtual-output queueing, round-robin / credit-aware / arbitrated
//!   scheduling, per-port forwarding latency, adaptive routing.
//! * [`credit`] — egress credit allocation policies: static-fair, the
//!   exponential ramp-up scheme the paper critiques (§3 D#3), and
//!   arbiter-controlled reservations.
//! * [`adapter`] — the Fabric Host Adapter (FHA) and Fabric Endpoint
//!   Adapter (FEA).
//! * [`endpoint`] — the device behind an FEA ([`endpoint::Endpoint`]
//!   trait); real DRAM devices live in `fcc-memnode`.
//! * [`ledger`] — credit-conservation auditing over the link-layer and
//!   allocator ledgers (run at quiescence; see `scripts/check.sh`).
//! * [`routing`] — PBR (intra-domain) and HBR (inter-domain) tables.
//! * [`manager`] — the fabric manager: discovery and routing-table fill.
//! * [`topology`] — declarative assembly of hosts, switches and chassis
//!   into an engine (Figure 1 of the paper), and the handles every
//!   builder returns.
//! * [`arbiter`] — the FCC central arbiter on dedicated control lanes
//!   (design principle #4).
//! * [`commfabric`] — the communication-fabric baseline: an RDMA-style
//!   NIC with submission/completion queues, doorbells and DMA engines.
//! * [`wormhole`] — per-(port, VC) credit ledgers for wormhole switching
//!   with an adaptive/escape virtual-channel split.
//! * [`pods`] — fabric plans (spine-leaf, 2D mesh, torus; chains are
//!   one-row or one-column meshes) and the one builder that realizes a
//!   plan on one engine or one engine per domain.
//! * [`sharded`] — a chain of switch domains over a sharded engine, and
//!   the per-domain fabric handles.

pub mod adapter;
pub mod arbiter;
pub mod commfabric;
pub mod credit;
pub mod endpoint;
pub mod ledger;
pub mod manager;
pub mod pods;
pub mod port;
pub mod routing;
pub mod sharded;
pub mod switch;
pub mod topology;
pub mod wormhole;

pub use adapter::{Fea, Fha, HostCompletion, HostOp, HostRequest, SnoopMsg, SnoopReply};
pub use arbiter::{ArbiterOp, ArbiterRequest, ArbiterResponse, ArbiterResult, FabricArbiter};
pub use commfabric::{RdmaCompletion, RdmaConfig, RdmaNic, RdmaOp};
pub use credit::AllocPolicy;
pub use endpoint::{Endpoint, EndpointResponse, FixedLatencyMemory};
pub use ledger::{audit_topology, AuditFinding, AuditReport};
pub use manager::FabricManager;
pub use pods::{PodKind, PodPlan, PodSpec};
pub use port::{FlitMsg, LinkPort, PortEvent};
pub use routing::{DomainId, RoutingTable};
pub use switch::{FabricSwitch, FlowId, QueueDiscipline, SwitchConfig};
pub use topology::{Topology, TopologySpec};
pub use wormhole::{VcConfig, VcLink};
