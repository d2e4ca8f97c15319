//! The FCC central fabric arbiter (design principle #4).
//!
//! "FCC proposes an in-band centralized fabric arbiter for bandwidth
//! allocation, congestion control, and flow scheduling [...] FCC would
//! incorporate a programmable interface with the control lane to query,
//! reserve, and reclaim credits" (§4 DP#4). The arbiter is a component
//! reachable over *dedicated control lanes*: control messages travel on
//! their own low-latency path (the paper argues a 64 B flit RTT of
//! ≈200 ns makes this cheap), never queueing behind data traffic.
//!
//! Reservations are admission-controlled against per-egress capacity and
//! enforced at switches via [`InstallRate`] token buckets.

use std::collections::HashMap;

use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, SimTime};

use crate::switch::{FlowId, InstallRate, RemoveRate};

/// A hop a flow crosses: a switch and the egress port used there.
pub type FlowHop = (ComponentId, usize);

/// Client request to the arbiter (sent on the control lane).
#[derive(Debug, Clone, Copy)]
pub struct ArbiterRequest {
    /// The operation.
    pub op: ArbiterOp,
    /// Caller tag echoed back.
    pub tag: u64,
    /// Component to answer.
    pub reply_to: ComponentId,
}

/// Arbiter operations: query, reserve, reclaim (§4 DP#4).
#[derive(Debug, Clone, Copy)]
pub enum ArbiterOp {
    /// Reports reserved and available bandwidth along the flow's path.
    Query {
        /// The flow of interest.
        flow: FlowId,
    },
    /// Reserves `gbps` for the flow (admission controlled).
    Reserve {
        /// The flow.
        flow: FlowId,
        /// Requested sustained rate.
        gbps: f64,
        /// Burst allowance in bytes.
        burst_bytes: u64,
    },
    /// Releases the flow's reservation.
    Reclaim {
        /// The flow.
        flow: FlowId,
    },
}

/// Arbiter answer.
#[derive(Debug, Clone, Copy)]
pub struct ArbiterResponse {
    /// Echo of the request tag.
    pub tag: u64,
    /// The outcome.
    pub result: ArbiterResult,
}

/// Outcome of an [`ArbiterOp`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArbiterResult {
    /// Query answer.
    Info {
        /// Bandwidth currently reserved for the flow (0 if none).
        reserved_gbps: f64,
        /// Headroom on the most constrained hop of the flow's path.
        available_gbps: f64,
    },
    /// Reservation granted at the stated rate.
    Granted {
        /// The granted rate.
        gbps: f64,
    },
    /// Reservation denied; the bottleneck's headroom is reported.
    Denied {
        /// Available bandwidth at the bottleneck hop.
        available_gbps: f64,
    },
    /// Reservation released.
    Reclaimed,
    /// The flow's path is not registered with the arbiter.
    UnknownFlow,
}

/// The central arbiter component.
pub struct FabricArbiter {
    /// One-way latency of the dedicated control lane.
    control_latency: SimTime,
    /// Flow → hops crossed (registered at deployment).
    paths: HashMap<FlowId, Vec<FlowHop>>,
    /// Hop → capacity in Gbit/s.
    capacity: HashMap<FlowHop, f64>,
    /// Hop → reserved Gbit/s.
    reserved: HashMap<FlowHop, f64>,
    /// Flow → granted rate.
    grants: HashMap<FlowId, f64>,
    /// Requests served.
    pub requests: Counter,
    /// Reservations denied.
    pub denials: Counter,
}

impl FabricArbiter {
    /// Creates an arbiter whose control lane has the given one-way latency.
    ///
    /// The paper's dedicated-lane argument: "the end-to-end RTT of a 64B
    /// flit at the data link layer in an unloaded scenario can be up to
    /// 200ns" — so a 100 ns one-way lane is the default.
    pub fn new(control_latency: SimTime) -> Self {
        FabricArbiter {
            control_latency,
            paths: HashMap::new(),
            capacity: HashMap::new(),
            reserved: HashMap::new(),
            grants: HashMap::new(),
            requests: Counter::new(),
            denials: Counter::new(),
        }
    }

    /// Registers the path a flow takes (deployment-time topology knowledge).
    pub fn register_path(&mut self, flow: FlowId, hops: Vec<FlowHop>) {
        self.paths.insert(flow, hops);
    }

    /// Declares the capacity of a hop.
    pub fn set_capacity(&mut self, hop: FlowHop, gbps: f64) {
        self.capacity.insert(hop, gbps);
    }

    /// Headroom on the most constrained hop of `flow`'s path.
    fn headroom(&self, flow: FlowId) -> Option<f64> {
        let hops = self.paths.get(&flow)?;
        hops.iter()
            .map(|hop| {
                let cap = self.capacity.get(hop).copied().unwrap_or(f64::INFINITY);
                let used = self.reserved.get(hop).copied().unwrap_or(0.0);
                cap - used
            })
            .fold(None, |acc: Option<f64>, h| {
                Some(acc.map_or(h, |a| a.min(h)))
            })
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, op: ArbiterOp) -> ArbiterResult {
        match op {
            ArbiterOp::Query { flow } => match self.headroom(flow) {
                Some(avail) => ArbiterResult::Info {
                    reserved_gbps: self.grants.get(&flow).copied().unwrap_or(0.0),
                    available_gbps: avail,
                },
                None => ArbiterResult::UnknownFlow,
            },
            ArbiterOp::Reserve {
                flow,
                gbps,
                burst_bytes,
            } => {
                let Some(avail) = self.headroom(flow) else {
                    return ArbiterResult::UnknownFlow;
                };
                if gbps > avail {
                    self.denials.inc();
                    return ArbiterResult::Denied {
                        available_gbps: avail,
                    };
                }
                let hops = self.paths[&flow].clone();
                for hop in &hops {
                    *self.reserved.entry(*hop).or_insert(0.0) += gbps;
                    ctx.send(
                        hop.0,
                        self.control_latency,
                        InstallRate {
                            flow,
                            gbps,
                            burst_bytes,
                        },
                    );
                }
                self.grants.insert(flow, gbps);
                ArbiterResult::Granted { gbps }
            }
            ArbiterOp::Reclaim { flow } => {
                let Some(gbps) = self.grants.remove(&flow) else {
                    return ArbiterResult::UnknownFlow;
                };
                let hops = self.paths[&flow].clone();
                for hop in &hops {
                    if let Some(r) = self.reserved.get_mut(hop) {
                        *r = (*r - gbps).max(0.0);
                    }
                    ctx.send(hop.0, self.control_latency, RemoveRate { flow });
                }
                ArbiterResult::Reclaimed
            }
        }
    }
}

impl Component for FabricArbiter {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let req = match msg.downcast::<ArbiterRequest>() {
            Ok(req) => req,
            Err(m) => return ctx.reject(m.type_name()),
        };
        self.requests.inc();
        let result = self.apply(ctx, req.op);
        ctx.send(
            req.reply_to,
            self.control_latency,
            ArbiterResponse {
                tag: req.tag,
                result,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use fcc_proto::addr::NodeId;
    use fcc_sim::{Engine, Inbox};

    use super::*;

    type Probe = Inbox<ArbiterResponse>;

    /// Stands in for a switch: records the type of every message, so the
    /// rate installs and removals have somewhere to land.
    #[derive(Default)]
    struct FakeSwitch(Vec<&'static str>);

    impl Component for FakeSwitch {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, msg: Msg) {
            self.0.push(msg.type_name());
        }
    }

    fn flow(a: u16, b: u16) -> FlowId {
        FlowId {
            src: NodeId(a),
            dst: NodeId(b),
        }
    }

    fn setup() -> (Engine, ComponentId, ComponentId, ComponentId) {
        let mut engine = Engine::new(0);
        let probe = engine.add_component("probe", Probe::default());
        let fake_switch = engine.add_component("switch", FakeSwitch::default());
        let mut arb = FabricArbiter::new(SimTime::from_ns(100.0));
        arb.register_path(flow(1, 9), vec![(fake_switch, 3)]);
        arb.register_path(flow(2, 9), vec![(fake_switch, 3)]);
        arb.set_capacity((fake_switch, 3), 100.0);
        let arb = engine.add_component("arbiter", arb);
        (engine, arb, probe, fake_switch)
    }

    #[test]
    fn reserve_grants_within_capacity_then_denies() {
        let (mut engine, arb, probe, fake_switch) = setup();
        for (tag, gbps) in [(1u64, 60.0), (2, 60.0)] {
            engine.post(
                arb,
                SimTime::ZERO,
                ArbiterRequest {
                    op: ArbiterOp::Reserve {
                        flow: if tag == 1 { flow(1, 9) } else { flow(2, 9) },
                        gbps,
                        burst_bytes: 4096,
                    },
                    tag,
                    reply_to: probe,
                },
            );
        }
        engine.run_until_idle();
        let p = engine.component::<Probe>(probe);
        assert_eq!(p.messages().len(), 2);
        assert_eq!(
            p.messages()[0].result,
            ArbiterResult::Granted { gbps: 60.0 }
        );
        assert_eq!(
            p.messages()[1].result,
            ArbiterResult::Denied {
                available_gbps: 40.0
            }
        );
        let sw = &engine.component::<FakeSwitch>(fake_switch).0;
        let install = std::any::type_name::<InstallRate>();
        assert_eq!(sw, &[install], "only the granted flow installed");
    }

    #[test]
    fn reclaim_returns_headroom() {
        let (mut engine, arb, probe, fake_switch) = setup();
        engine.post(
            arb,
            SimTime::ZERO,
            ArbiterRequest {
                op: ArbiterOp::Reserve {
                    flow: flow(1, 9),
                    gbps: 80.0,
                    burst_bytes: 4096,
                },
                tag: 1,
                reply_to: probe,
            },
        );
        engine.post(
            arb,
            SimTime::from_us(1.0),
            ArbiterRequest {
                op: ArbiterOp::Reclaim { flow: flow(1, 9) },
                tag: 2,
                reply_to: probe,
            },
        );
        engine.post(
            arb,
            SimTime::from_us(2.0),
            ArbiterRequest {
                op: ArbiterOp::Query { flow: flow(2, 9) },
                tag: 3,
                reply_to: probe,
            },
        );
        engine.run_until_idle();
        let p = engine.component::<Probe>(probe);
        assert_eq!(p.messages()[1].result, ArbiterResult::Reclaimed);
        assert_eq!(
            p.messages()[2].result,
            ArbiterResult::Info {
                reserved_gbps: 0.0,
                available_gbps: 100.0
            }
        );
        let sw = &engine.component::<FakeSwitch>(fake_switch).0;
        let installed_then_removed = [
            std::any::type_name::<InstallRate>(),
            std::any::type_name::<RemoveRate>(),
        ];
        assert_eq!(sw, &installed_then_removed);
    }

    #[test]
    fn control_lane_rtt_is_two_control_latencies() {
        let (mut engine, arb, probe, _) = setup();
        engine.post(
            arb,
            SimTime::ZERO,
            ArbiterRequest {
                op: ArbiterOp::Query { flow: flow(1, 9) },
                tag: 1,
                reply_to: probe,
            },
        );
        engine.run_until_idle();
        // Request posted at t=0 arrives instantly (harness post), response
        // takes one control latency: the measured client RTT in E7 adds the
        // outbound lane too.
        assert_eq!(engine.now(), SimTime::from_ns(100.0));
    }

    #[test]
    fn unknown_flow_is_reported() {
        let (mut engine, arb, probe, _) = setup();
        engine.post(
            arb,
            SimTime::ZERO,
            ArbiterRequest {
                op: ArbiterOp::Query { flow: flow(7, 7) },
                tag: 1,
                reply_to: probe,
            },
        );
        engine.run_until_idle();
        let p = engine.component::<Probe>(probe);
        assert_eq!(p.messages()[0].result, ArbiterResult::UnknownFlow);
    }
}
