//! The fabric-level admission point.
//!
//! A [`FabricScheduler`] sits at switch ingress: it classifies each flit
//! by its *source node's* tenant and enforces a [`CreditPartition`]
//! window over dispatches. The switch probes [`FabricScheduler::admits`]
//! before moving a flit to its egress and charges the tenant's ledger
//! with [`FabricScheduler::charge`] when the flit actually departs; a
//! tenant that has exhausted its window allocation simply waits for the
//! next rollover, exactly like a credit-starved egress. Flits whose
//! source is unmapped (link-layer control, gateway bookkeeping) are
//! ungoverned and always pass.
//!
//! Classifying on the source node makes the admission point **edge
//! placement** the natural deployment: each switch maps only the nodes
//! attached to it, so a tenant is gated where it injects and a deferred
//! flit waits in its own host-port queue, backpressuring only its own
//! adapter. Mapping remote nodes mid-fabric works mechanically but
//! composes badly with credit flow control: a deferred transit flit
//! pins its ingress buffer (and the upstream link's credits) for up to
//! a window, head-of-line-blocking ungoverned traffic — completions,
//! other tenants' transit — behind it. Containment at injection already
//! bounds what a hog can put in flight anywhere downstream.

use std::collections::BTreeMap;

use fcc_proto::addr::NodeId;
use fcc_sim::SimTime;

use crate::partition::{CreditPartition, TenantId};

/// Installs a scheduler on a switch (message form, for manager-driven
/// installation; topology builders call
/// `FabricSwitch::install_scheduler` directly).
#[derive(Debug, Clone)]
pub struct InstallScheduler {
    /// The scheduler to install.
    pub sched: FabricScheduler,
}

/// A per-admission-point tenant scheduler: a credit partition, a window
/// period, and the node → tenant classification map.
#[derive(Debug, Clone)]
pub struct FabricScheduler {
    partition: CreditPartition,
    window: SimTime,
    map: BTreeMap<NodeId, TenantId>,
    /// Flits admitted (and charged) at this point.
    pub admitted: u64,
    /// Gate probes deferred for an exhausted tenant window. Counts
    /// retry attempts, not unique flits: a flit re-probed across
    /// scheduling sweeps accumulates.
    pub deferred: u64,
}

impl FabricScheduler {
    /// Creates a scheduler enforcing `partition` over windows of length
    /// `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero — the admission point must roll
    /// windows to make progress.
    pub fn new(partition: CreditPartition, window: SimTime) -> Self {
        assert!(window > SimTime::ZERO, "scheduler window must be positive");
        FabricScheduler {
            partition,
            window,
            map: BTreeMap::new(),
            admitted: 0,
            deferred: 0,
        }
    }

    /// Classifies `node` as belonging to `tenant`.
    pub fn map_node(&mut self, node: NodeId, tenant: TenantId) {
        self.map.insert(node, tenant);
    }

    /// The tenant a node belongs to, if mapped.
    pub fn tenant_of(&self, node: NodeId) -> Option<TenantId> {
        self.map.get(&node).copied()
    }

    /// The window period.
    pub fn window(&self) -> SimTime {
        self.window
    }

    /// Non-consuming gate probe: whether a flit sourced at `src` may
    /// dispatch now. Counts a deferral when the answer is no.
    pub fn admits(&mut self, src: NodeId) -> bool {
        let ok = match self.tenant_of(src) {
            Some(t) => self.partition.may_spend(t),
            None => true,
        };
        if !ok {
            self.deferred += 1;
        }
        ok
    }

    /// Charges one credit for a dispatched flit sourced at `src`. Must
    /// follow a successful [`admits`](Self::admits) probe in the same
    /// scheduling sweep.
    pub fn charge(&mut self, src: NodeId) {
        if let Some(t) = self.tenant_of(src) {
            let ok = self.partition.try_spend(t);
            debug_assert!(ok, "charge without a successful admission probe");
            if ok {
                self.admitted += 1;
            }
        }
    }

    /// Rolls the partition window.
    pub fn rollover(&mut self) {
        self.partition.rollover();
    }

    /// The underlying partition.
    pub fn partition(&self) -> &CreditPartition {
        &self.partition
    }

    /// Audits the partition's per-tenant ledgers. See
    /// [`CreditPartition::audit`].
    pub fn audit(&self) -> Result<(), String> {
        self.partition.audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::TenantShare;

    fn sched(pool: u32) -> FabricScheduler {
        let mut p = CreditPartition::new(pool);
        p.add_tenant(
            0,
            TenantShare {
                group: 0,
                weight: 1,
                floor: 1,
            },
        );
        let mut s = FabricScheduler::new(p, SimTime::from_us(1.0));
        s.map_node(NodeId(7), 0);
        s
    }

    #[test]
    fn mapped_nodes_are_gated_and_charged() {
        let mut s = sched(3);
        for _ in 0..3 {
            assert!(s.admits(NodeId(7)));
            s.charge(NodeId(7));
        }
        assert!(!s.admits(NodeId(7)), "window exhausted");
        assert_eq!(s.admitted, 3);
        assert_eq!(s.deferred, 1);
        s.rollover();
        assert!(s.admits(NodeId(7)), "rollover refills");
        s.audit().expect("clean");
    }

    #[test]
    fn unmapped_nodes_are_ungoverned() {
        let mut s = sched(1);
        for _ in 0..10 {
            assert!(s.admits(NodeId(99)));
            s.charge(NodeId(99));
        }
        assert_eq!(s.admitted, 0, "ungoverned flits leave ledgers alone");
        s.audit().expect("clean");
    }
}
