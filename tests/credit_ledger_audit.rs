//! End-to-end credit-conservation audit over a real topology.
//!
//! Drives traffic through a two-stage switch chain until the event queue
//! drains, then sweeps every switch with [`fcc::fabric::audit_topology`]:
//! each port's link-layer ledger must balance (credits granted ==
//! consumed + available, per class) and each ramp-up allocator must be
//! inside its configured band. A leak anywhere — a lost CreditUpdate, a
//! double release, an allocator oversend — shows up as a named finding.
//! The same quiescent point must also report no deadlock.

use fcc::fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc::fabric::endpoint::PipelinedMemory;
use fcc::fabric::sharded::DomainSpec;
use fcc::fabric::topology::{self, TopologySpec, FAM_BASE};
use fcc::fabric::{audit_topology, AllocPolicy};
use fcc::sim::{Component, Ctx, Engine, Msg, SimTime};

struct Sink {
    done: usize,
}

impl Component for Sink {
    fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
        // The sink is only wired to receive completions.
        #[allow(clippy::expect_used)]
        let _ = msg.downcast::<HostCompletion>().expect("hc");
        self.done += 1;
    }
}

fn fam() -> Box<PipelinedMemory> {
    Box::new(PipelinedMemory::new(
        SimTime::from_ns(641.0),
        SimTime::from_ns(679.0),
        SimTime::from_ns(120.0),
        1 << 26,
    ))
}

#[test]
fn quiescent_chain_passes_credit_audit_and_reports_no_deadlock() {
    let mut engine = Engine::new(0xAE);
    let mut spec = TopologySpec::default();
    // Ramp-up allocation so the audit exercises the allocator bands too.
    spec.switch.allocation = AllocPolicy::default_ramp_up();
    let topo = topology::chain(
        &mut engine,
        spec,
        vec![
            DomainSpec {
                n_hosts: 2,
                devices: vec![],
            },
            DomainSpec {
                n_hosts: 0,
                devices: vec![fam()],
            },
        ],
    );
    let sink = engine.add_component("sink", Sink { done: 0 });
    let base = FAM_BASE;
    let n = 64u64;
    for i in 0..n {
        let host = &topo.hosts[(i % 2) as usize];
        engine.post(
            host.fha,
            SimTime::from_ns(i as f64 * 3.0),
            HostRequest {
                op: if i % 3 == 0 {
                    HostOp::Write {
                        addr: base + i * 64,
                        bytes: 64,
                    }
                } else {
                    HostOp::Read {
                        addr: base + i * 64,
                        bytes: 64,
                    }
                },
                tag: i,
                reply_to: sink,
            },
        );
    }
    engine.run_until_idle();
    assert_eq!(engine.component::<Sink>(sink).done, n as usize);

    // Every switch's per-port ledgers and ramp allocators must balance.
    let report = audit_topology(&engine, &topo);
    assert!(report.is_clean(), "credit ledger findings:\n{report}");

    // And a drained queue with nothing outstanding is not a deadlock.
    assert!(
        engine.deadlock_report().is_none(),
        "unexpected deadlock at quiescence"
    );
}
