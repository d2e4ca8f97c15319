//! E7 — design principle #4: the central arbiter on dedicated lanes.
//!
//! Part 1 measures the unloaded control-lane RTT (the paper argues a 64 B
//! flit RTT of ≈200 ns makes a dedicated lane cheap). Part 2 re-runs the
//! E3c contention scenario with the arbiter: the bursty flows *reserve*
//! bandwidth, the switch enforces the reservations, and fairness returns.

use std::fmt;

use fcc_core::arbiter_client::{ArbiterClient, ClientRequest, FutureResolved};
use fcc_fabric::arbiter::{ArbiterOp, FabricArbiter};
use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::switch::{FlowId, QueueDiscipline, SwitchConfig};
use fcc_fabric::topology::{self, TopologySpec, FAM_BASE};
use fcc_proto::phys::PhysConfig;
use fcc_sim::{jain_fairness, Component, Ctx, Engine, Inbox, Msg, SimTime};

use crate::capture::Capture;
use crate::exp_e3;
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

/// E7 outcome.
pub struct E7Result {
    /// Unloaded control-lane query RTT (ns).
    pub control_rtt_ns: f64,
    /// Per-flow throughput without reservations `(hog, bursty mean)`.
    pub uncoordinated: (f64, f64),
    /// Per-flow throughput with arbiter reservations `(hog, bursty mean)`.
    pub arbitrated: (f64, f64),
    /// Jain fairness index across the three flows, before/after.
    pub jain_before: f64,
    /// Jain fairness after reservations.
    pub jain_after: f64,
}

type Waiter = Inbox<FutureResolved>;

/// Measures the unloaded control-lane RTT through the client.
fn measure_control_rtt(seed: u64) -> f64 {
    let mut engine = Engine::new(0xE7 ^ seed);
    let sink = engine.add_component("waiter", Waiter::default());
    struct Nop;
    impl Component for Nop {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
    }
    let sw = engine.add_component("nop-switch", Nop);
    let flow = FlowId {
        src: fcc_proto::addr::NodeId(1),
        dst: fcc_proto::addr::NodeId(9),
    };
    let mut arb = FabricArbiter::new(SimTime::from_ns(100.0));
    arb.register_path(flow, vec![(sw, 0)]);
    arb.set_capacity((sw, 0), 100.0);
    let arb = engine.add_component("arbiter", arb);
    let client = engine.add_component("client", ArbiterClient::new(arb, SimTime::from_ns(100.0)));
    for i in 0..16 {
        engine.post(
            client,
            SimTime::from_us(i as f64),
            ClientRequest {
                op: ArbiterOp::Query { flow },
                future_id: i,
                reply_to: sink,
            },
        );
    }
    engine.run_until_idle();
    engine
        .component::<ArbiterClient>(client)
        .rtt
        .summary_ns()
        .mean
}

/// The E3c contention scenario with `Arbitrated` switch policy and
/// reservations installed for every flow.
fn contended_with_reservations(quick: bool, seed: u64) -> (f64, f64, f64) {
    let horizon = if quick {
        SimTime::from_us(150.0)
    } else {
        SimTime::from_us(600.0)
    };
    let mut engine = Engine::new(0xE7C ^ seed);
    let spec = TopologySpec {
        switch: SwitchConfig {
            phys: PhysConfig::omega_like(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing: QueueDiscipline::Voq,
            allocation: AllocPolicy::Arbitrated,
            ..SwitchConfig::fabrex_like()
        },
        fha_outstanding: 64,
        ..TopologySpec::default()
    };
    let topo = topology::single_switch(
        &mut engine,
        spec,
        3,
        vec![Box::new(fcc_fabric::endpoint::PipelinedMemory::new(
            SimTime::from_ns(200.0),
            SimTime::from_ns(220.0),
            SimTime::from_ns(40.0),
            1 << 30,
        ))],
    );
    // The arbiter knows the switch's device-facing egress port (port
    // index 3: after 3 host ports) and its capacity; each flow reserves a
    // fair share of the device's ~25 Mops ≈ 12.8 Gbit/s of 64 B payload.
    let dev_port = 3usize;
    let sw = topo.switches[0];
    let mut arb = FabricArbiter::new(SimTime::from_ns(100.0));
    arb.set_capacity((sw, dev_port), 50.0);
    let dev_node = topo.devices[0].node;
    let flows: Vec<FlowId> = topo
        .hosts
        .iter()
        .map(|h| FlowId {
            src: h.node,
            dst: dev_node,
        })
        .collect();
    for &flow in &flows {
        arb.register_path(flow, vec![(sw, dev_port)]);
    }
    let arb = engine.add_component("arbiter", arb);
    let client = engine.add_component("client", ArbiterClient::new(arb, SimTime::from_ns(100.0)));
    let waiter = engine.add_component("waiter", Waiter::default());
    // Equal 15 Gbit/s reservations for all three flows, installed up front.
    for (i, &flow) in flows.iter().enumerate() {
        engine.post(
            client,
            SimTime::ZERO,
            ClientRequest {
                op: ArbiterOp::Reserve {
                    flow,
                    gbps: 15.0,
                    burst_bytes: 16 * 1024,
                },
                future_id: i as u64,
                reply_to: waiter,
            },
        );
    }
    engine.run_until(SimTime::from_us(2.0));
    // Same load shape as E3c: hog from t=0, bursty from 50 µs.
    let hog = engine.add_component(
        "hog",
        LoadGen::new(LoadCfg {
            fha: topo.hosts[0].fha,
            base: FAM_BASE,
            len: 1 << 20,
            op_bytes: 64,
            write: true,
            window: 16,
            count: None,
            stop_at: horizon,
            pattern: AddrPattern::Sequential,
        }),
    );
    engine.post(hog, SimTime::from_us(2.0), StartLoad);
    let bursty: Vec<_> = (1..3)
        .map(|h| {
            let lg = engine.add_component(
                format!("bursty{h}"),
                LoadGen::new(LoadCfg {
                    fha: topo.hosts[h].fha,
                    base: FAM_BASE + (h as u64) * (1 << 20),
                    len: 1 << 20,
                    op_bytes: 64,
                    write: true,
                    window: 4,
                    count: None,
                    stop_at: horizon,
                    pattern: AddrPattern::Sequential,
                }),
            );
            engine.post(lg, SimTime::from_us(50.0), StartLoad);
            lg
        })
        .collect();
    engine.run_until_idle();
    let hog_tput = engine.component::<LoadGen>(hog).completed() as f64 / horizon.as_us();
    let burst_window = horizon.as_us() - 50.0;
    let bursty_tputs: Vec<f64> = bursty
        .iter()
        .map(|&lg| engine.component::<LoadGen>(lg).completed() as f64 / burst_window)
        .collect();
    let bursty_mean = bursty_tputs.iter().sum::<f64>() / bursty_tputs.len() as f64;
    let jain = jain_fairness(&[hog_tput, bursty_tputs[0], bursty_tputs[1]]);
    (hog_tput, bursty_mean, jain)
}

/// Runs E7 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E7Result {
    let control_rtt_ns = measure_control_rtt(seed);
    // Uncoordinated baseline: reuse E3c's ramp-up outcome.
    let e3c = exp_e3::run_c(quick, &mut Capture::disabled(), seed);
    let ramp = e3c.get("exp ramp-up");
    let jain_before = jain_fairness(&[ramp.hog_tput, ramp.bursty_tput, ramp.bursty_tput]);
    let (hog, bursty, jain_after) = contended_with_reservations(quick, seed);
    E7Result {
        control_rtt_ns,
        uncoordinated: (ramp.hog_tput, ramp.bursty_tput),
        arbitrated: (hog, bursty),
        jain_before,
        jain_after,
    }
}

impl fmt::Display for E7Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E7 — central arbiter via dedicated control lanes")?;
        writeln!(
            f,
            "  unloaded control-lane query RTT: {:.0} ns (paper: \"up to 200ns\")",
            self.control_rtt_ns
        )?;
        let rows = vec![
            vec![
                "uncoordinated (ramp-up)".to_string(),
                format!("{:.2}", self.uncoordinated.0),
                format!("{:.2}", self.uncoordinated.1),
                format!("{:.2}", self.jain_before),
            ],
            vec![
                "arbiter reservations".to_string(),
                format!("{:.2}", self.arbitrated.0),
                format!("{:.2}", self.arbitrated.1),
                format!("{:.2}", self.jain_after),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["coordination", "hog ops/us", "bursty ops/us", "Jain"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_lane_rtt_matches_paper_claim() {
        let rtt = measure_control_rtt(0);
        assert!((rtt - 200.0).abs() < 1.0, "RTT {rtt}");
    }

    #[test]
    fn reservations_restore_fairness() {
        let r = run(true, 0);
        assert!(
            r.jain_after > r.jain_before + 0.1,
            "Jain {} → {}",
            r.jain_before,
            r.jain_after
        );
        assert!(
            r.arbitrated.1 > r.uncoordinated.1 * 1.3,
            "bursty throughput recovers: {} → {}",
            r.uncoordinated.1,
            r.arbitrated.1
        );
    }
}
