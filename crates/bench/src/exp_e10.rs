//! E10 — §3 Differences #4/#5: fast context switching among execution
//! engines, plus kernel-launch paths.
//!
//! * **Launch path**: invoking a kernel on a fabric-attached accelerator
//!   means writing the execution context into shared FAM and ringing a
//!   doorbell with plain stores (§3 D#4); over a communication fabric the
//!   same launch needs a driver submission, DMA of the context, and a
//!   completion interrupt. Both are measured end to end.
//! * **Context switching**: the FAA engine's cooperative functions are run
//!   with fabric-grade (200 ns) vs communication-fabric-grade (5 µs)
//!   context save/restore costs under a multiplexed workload.

use std::fmt;

use fcc_core::faa::{FaaEngine, FnDone, FnInvoke, FunctionTemplate};
use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_fabric::commfabric::{RdmaCompletion, RdmaConfig, RdmaNic, RdmaOp};
use fcc_fabric::topology::{self, FAM_BASE};
use fcc_sim::{Component, ComponentId, Ctx, Engine, Inbox, Msg, SimTime};

use crate::calib;

/// E10 outcome.
pub struct E10Result {
    /// Kernel-launch latency over the memory fabric (ns): context write +
    /// doorbell store.
    pub fabric_launch_ns: f64,
    /// Kernel-launch latency over RDMA (ns): context DMA + doorbell msg.
    pub rdma_launch_ns: f64,
    /// Multiplexed-FAA completion time with fabric-grade switching (µs).
    pub fast_switch_us: f64,
    /// With communication-fabric-grade switching (µs).
    pub slow_switch_us: f64,
    /// Context switches performed (same in both runs).
    pub switches: u64,
}

impl E10Result {
    /// Launch-path advantage of the memory fabric.
    pub fn launch_advantage(&self) -> f64 {
        self.rdma_launch_ns / self.fabric_launch_ns
    }
}

/// Context descriptor size shipped at launch (registers + queue configs).
const CONTEXT_BYTES: u32 = 4096;

/// Launch over the memory fabric: write the context (4 KiB) then a 64 B
/// doorbell store, both as plain fabric writes.
///
/// The FAA sits one FabreX-like switch away (25 ns cables), matching the
/// wire the RDMA baseline uses — the comparison isolates the *path*
/// (plain stores vs driver + DMA + completion), not the link.
fn fabric_launch(seed: u64) -> f64 {
    let mut engine = Engine::new(0xE10 ^ seed);
    let mut spec = calib::topo_spec();
    spec.switch.phys = fcc_proto::phys::PhysConfig::omega_like();
    spec.switch.fwd_latency = SimTime::from_ns(90.0);
    let faa_ctx_buffer: Box<dyn fcc_fabric::endpoint::Endpoint> =
        Box::new(fcc_fabric::endpoint::PipelinedMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(110.0),
            SimTime::from_ns(20.0),
            1 << 24,
        ));
    let topo = topology::single_switch(&mut engine, spec, 1, vec![faa_ctx_buffer]);
    let probe = engine.add_component("probe", Inbox::<HostCompletion>::default());
    let fha = topo.hosts[0].fha;
    engine.post(
        fha,
        SimTime::ZERO,
        HostRequest {
            op: HostOp::Write {
                addr: FAM_BASE,
                bytes: CONTEXT_BYTES,
            },
            tag: 1,
            reply_to: probe,
        },
    );
    engine.post(
        fha,
        SimTime::ZERO,
        HostRequest {
            op: HostOp::Write {
                addr: FAM_BASE + CONTEXT_BYTES as u64,
                bytes: 64,
            },
            tag: 2,
            reply_to: probe,
        },
    );
    engine.run_until_idle();
    // The launch is done when its second write (the doorbell) completes.
    let arrivals = engine.component::<Inbox<HostCompletion>>(probe).arrivals();
    arrivals.get(1).expect("launch completed").as_ns()
}

/// Drives the serialized communication-fabric launch sequence the paper
/// describes (§3 D#4): set up the channel, DMA the execution context,
/// then ring the remote doorbell — each step ordered after the previous
/// completion.
struct RdmaProbe {
    nic: ComponentId,
    /// Steps issued so far.
    step: usize,
    done_at: Option<SimTime>,
}

impl RdmaProbe {
    /// `(write, bytes)` per launch step.
    const STEPS: [(bool, u32); 3] = [
        (true, 64),            // channel/control setup message.
        (true, CONTEXT_BYTES), // execution-context DMA.
        (true, 64),            // doorbell.
    ];

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        let (write, bytes) = Self::STEPS[self.step];
        ctx.send(
            self.nic,
            SimTime::ZERO,
            RdmaOp {
                write,
                bytes,
                tag: self.step as u64,
                reply_to: ctx.self_id(),
            },
        );
        self.step += 1;
    }
}

impl Component for RdmaProbe {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<GoRdma>() {
            Ok(GoRdma) if self.step == 0 => return self.issue(ctx),
            Ok(GoRdma) => return ctx.reject("launch kicked off twice"),
            Err(m) => m,
        };
        match msg.downcast::<RdmaCompletion>() {
            Ok(_) if self.step == 0 || self.done_at.is_some() => {
                ctx.reject("completion outside the launch");
            }
            Ok(_) if self.step == Self::STEPS.len() => self.done_at = Some(ctx.now()),
            Ok(_) => self.issue(ctx),
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

/// Kick-off marker for the RDMA probe.
#[derive(Debug, Clone, Copy)]
struct GoRdma;

/// Launch over the communication fabric: channel setup, context DMA, and
/// doorbell — serialized submission/completion rounds.
fn rdma_launch(seed: u64) -> f64 {
    let mut engine = Engine::new((0xE10 + 1) ^ seed);
    let nic = engine.add_component("nic", RdmaNic::new(RdmaConfig::kernel_bypass()));
    let probe = engine.add_component(
        "probe",
        RdmaProbe {
            nic,
            step: 0,
            done_at: None,
        },
    );
    engine.post(probe, SimTime::ZERO, GoRdma);
    engine.run_until_idle();
    engine
        .component::<RdmaProbe>(probe)
        .done_at
        .expect("launch completed")
        .as_ns()
}

type FaaSink = Inbox<FnDone>;

/// Runs the multiplexed-FAA workload with a given context-switch cost.
fn multiplexed_faa(ctx_switch: SimTime, invocations: u64, seed: u64) -> (f64, u64) {
    let mut engine = Engine::new((0xE10 + 2) ^ seed);
    let sink = engine.add_component("sink", FaaSink::default());
    let functions = (0..4)
        .map(|i| FunctionTemplate::uniform(i, SimTime::from_ns(800.0), 0.0, 1024))
        .collect();
    let faa = engine.add_component("faa", FaaEngine::new(functions, ctx_switch, 4));
    // Interleaved arrivals across the four functions.
    for i in 0..invocations {
        engine.post(
            faa,
            SimTime::from_ns(i as f64 * 50.0),
            FnInvoke {
                function: (i % 4) as u32,
                kind: 0,
                bytes: 0,
                tag: i,
                reply_to: sink,
            },
        );
    }
    engine.run_until_idle();
    let s = engine.component::<FaaSink>(sink);
    assert_eq!(
        s.messages().len() as u64,
        invocations,
        "all invocations completed"
    );
    let finished_at = s.arrivals().last().copied().unwrap_or(SimTime::ZERO);
    let switches = engine.component::<FaaEngine>(faa).ctx_switches.get();
    (finished_at.as_us(), switches)
}

/// Runs E10 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E10Result {
    let invocations = if quick { 400 } else { 2000 };
    let fabric_launch_ns = fabric_launch(seed);
    let rdma_launch_ns = rdma_launch(seed);
    let (fast_switch_us, switches) = multiplexed_faa(SimTime::from_ns(200.0), invocations, seed);
    let (slow_switch_us, _) = multiplexed_faa(SimTime::from_us(5.0), invocations, seed);
    E10Result {
        fabric_launch_ns,
        rdma_launch_ns,
        fast_switch_us,
        slow_switch_us,
        switches,
    }
}

impl fmt::Display for E10Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E10 — context shipping and kernel launch paths")?;
        let rows = vec![
            vec![
                "memory fabric (stores + doorbell)".to_string(),
                format!("{:.0}", self.fabric_launch_ns),
            ],
            vec![
                "communication fabric (RDMA)".to_string(),
                format!("{:.0}", self.rdma_launch_ns),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["kernel launch path", "latency (ns)"], &rows)
        )?;
        writeln!(f, "launch advantage: {:.1}x", self.launch_advantage())?;
        let rows = vec![
            vec![
                "fabric-grade (200 ns)".to_string(),
                format!("{:.0}", self.fast_switch_us),
            ],
            vec![
                "comm-fabric-grade (5 us)".to_string(),
                format!("{:.0}", self.slow_switch_us),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["context switch cost", "multiplexed completion (us)"],
                &rows
            )
        )?;
        writeln!(f, "context switches in the run: {}", self.switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fabric_launch_beats_rdma_launch() {
        let r = run(true, 0);
        assert!(
            r.launch_advantage() > 1.2,
            "fabric {} vs rdma {}",
            r.fabric_launch_ns,
            r.rdma_launch_ns
        );
        assert!(r.fabric_launch_ns < 3000.0);
    }

    #[test]
    fn slow_context_switches_dominate_multiplexed_runs() {
        let r = run(true, 0);
        assert!(
            r.slow_switch_us > r.fast_switch_us * 2.0,
            "fast {} vs slow {}",
            r.fast_switch_us,
            r.slow_switch_us
        );
        assert!(r.switches > 50, "workload must actually multiplex");
    }
}
