#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! UniFabric: the FCC runtime (the paper's contribution, §4–§5).
//!
//! "Essentially, it is a distributed runtime system that provides a
//! collection of new/renovated programming abstractions and system
//! services at the rack/cluster scale" (§5). The four components the
//! paper enumerates:
//!
//! * [`etrans`] — the **elastic transaction engine** (DP#1): the
//!   `eTrans(src_addr_list, dst_addr_list, immediate_bit, attributes,
//!   ownership)` primitive, decoupled initiator/executor, migration
//!   agents, and control-plane bandwidth throttling.
//! * [`heap`] — the **unified heap manager** (DP#2): memory bins over
//!   heterogeneous fabric nodes, object-temperature profiling, and a
//!   migration runtime behind a `FabricBox` handle API.
//! * [`task`] — the **idempotent task framework** (DP#3): write/read-set
//!   analysis, region cutting into idempotent tasks, and the split
//!   runtime with re-execution recovery (vs. a checkpointing baseline).
//! * [`faa`] — **hardware cooperative scalable functions** (DP#3): the
//!   FAA function template with actor-style message handlers, cooperative
//!   scheduling and fast context switching.
//! * [`arbiter_client`] — the programmable interface to the central
//!   arbiter (DP#4): query/reserve/reclaim as distributed futures.

pub mod arbiter_client;
pub mod etrans;
pub mod faa;
pub mod heap;
pub mod task;

pub use arbiter_client::{ArbiterClient, ClientRequest, FutureResolved};
pub use etrans::{
    ETrans, ETransDone, MigrationAgent, SubmitETrans, TransAttrs, TransOwnership, TransactionEngine,
};
pub use faa::{FaaEngine, FnDone, FnInvoke, FunctionTemplate, HandlerSpec};
pub use heap::{FabricBox, HeapError, HeapNodeCfg, PlacementHint, UnifiedHeap};
pub use task::{
    analyze_idempotence, make_idempotent, DagError, DagRuntime, Half, RecoveryMode, RunStats,
    TaskId, TaskSpec,
};
