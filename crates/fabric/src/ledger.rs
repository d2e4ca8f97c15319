//! Credit-conservation auditing across the fabric.
//!
//! §3 D#3 of the paper studies credit-flow pathologies (allocation,
//! scheduling, coordination). Before the experiments can blame the
//! *protocol* for stalls, the simulator itself must provably neither mint
//! nor leak credits. Three ledgers feed this audit:
//!
//! * [`fcc_proto::link::CreditCounter`] — every credit ever granted is
//!   either consumed or still available (`granted == consumed + available`);
//! * [`fcc_proto::link::LinkLayer`] — per-class accepted/released/returned
//!   counters balance against live buffer occupancy and pending returns;
//! * [`crate::credit::RampUpState`] — allocations stay within
//!   `[floor, ceiling]` and their sum within the pool (plus the one-flit
//!   minimum guarantee per input).
//!
//! [`FabricSwitch::audit`](crate::switch::FabricSwitch::audit) checks one
//! switch; [`audit_topology`] sweeps every switch in a built topology,
//! reports any adapter that dropped a data slot for arriving without its
//! header, and reports every message a component rejected
//! ([`Engine::rejections`]): a misrouted message fails the audit.
//! Run these at quiescence (after `run_until_idle`): mid-flight, credits
//! legitimately live on the wire and the pair-wise equations would
//! misreport them as leaked.

use fcc_sim::Engine;

use crate::adapter::{Fea, Fha};
use crate::switch::FabricSwitch;
use crate::topology::Topology;

/// One violated conservation equation, located within the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditFinding {
    /// Where the violation was observed (e.g. `switch 3, port 1 (rx)`).
    pub location: String,
    /// The violated equation, with both sides evaluated.
    pub detail: String,
}

impl std::fmt::Display for AuditFinding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.detail)
    }
}

/// The outcome of a credit-conservation sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Every violated equation found, in discovery order.
    pub findings: Vec<AuditFinding>,
}

impl AuditReport {
    /// Whether every conservation equation held.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Records a finding.
    pub fn push(&mut self, location: impl Into<String>, detail: impl Into<String>) {
        self.findings.push(AuditFinding {
            location: location.into(),
            detail: detail.into(),
        });
    }

    /// Absorbs another report's findings, prefixing their locations.
    pub fn absorb(&mut self, prefix: &str, other: AuditReport) {
        for f in other.findings {
            self.findings.push(AuditFinding {
                location: format!("{prefix}, {}", f.location),
                detail: f.detail,
            });
        }
    }
}

impl std::fmt::Display for AuditReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_clean() {
            return write!(f, "credit ledger clean");
        }
        writeln!(
            f,
            "credit ledger violated ({} finding(s)):",
            self.findings.len()
        )?;
        for finding in &self.findings {
            writeln!(f, "  {finding}")?;
        }
        Ok(())
    }
}

/// Audits every switch in a built topology, every FHA and FEA for
/// orphan data slots, and the engine for rejected messages.
///
/// Call at quiescence; see the module docs for why mid-flight sweeps
/// produce false positives.
pub fn audit_topology(engine: &Engine, topo: &Topology) -> AuditReport {
    let mut report = AuditReport::default();
    for (i, &id) in topo.switches.iter().enumerate() {
        let sw = engine.component::<FabricSwitch>(id);
        report.absorb(&format!("switch {i} ({})", engine.name(id)), sw.audit());
    }
    // FHA and FEA names carry their kind (`fha3`, `fea5`).
    let hosts = topo
        .hosts
        .iter()
        .map(|h| (h.fha, engine.component::<Fha>(h.fha).orphan_slots()));
    let devices = topo
        .devices
        .iter()
        .map(|d| (d.fea, engine.component::<Fea>(d.fea).orphan_slots()));
    for (id, orphans) in hosts.chain(devices).filter(|&(_, n)| n > 0) {
        report.push(
            engine.name(id),
            format!("{orphans} data slot(s) arrived without their header"),
        );
    }
    for (component, detail) in engine.rejections() {
        report.push(component, detail);
    }
    report
}
