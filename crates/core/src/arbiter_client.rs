//! The programmable arbiter interface (design principle #4).
//!
//! "FCC would incorporate a programmable interface with the control lane
//! to query, reserve, and reclaim credits, and expose it to the
//! application layer via some programming abstraction (such as
//! distributed futures)" (§4 DP#4). [`ArbiterClient`] turns the raw
//! request/response messages of `fcc-fabric`'s [`FabricArbiter`](fcc_fabric::arbiter::FabricArbiter) into
//! futures: the caller submits a [`ClientRequest`] naming a future id and
//! receives a [`FutureResolved`] when the arbiter answers.

use std::collections::HashMap;

use fcc_fabric::arbiter::{ArbiterOp, ArbiterRequest, ArbiterResponse, ArbiterResult};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, SimTime};

/// A request submitted through the client.
#[derive(Debug, Clone, Copy)]
pub struct ClientRequest {
    /// The arbiter operation.
    pub op: ArbiterOp,
    /// Future to resolve.
    pub future_id: u64,
    /// Who receives the [`FutureResolved`].
    pub reply_to: ComponentId,
}

/// Resolution of a distributed future.
#[derive(Debug, Clone, Copy)]
pub struct FutureResolved {
    /// The future.
    pub future_id: u64,
    /// Whether the operation succeeded (granted/reclaimed/answered).
    pub ok: bool,
}

/// Detailed resolution (kept by the client for inspection).
#[derive(Debug, Clone, Copy)]
pub struct Resolution {
    /// The arbiter's answer.
    pub result: ArbiterResult,
    /// Round-trip time over the control lane.
    pub rtt: SimTime,
}

/// The client-side endpoint of the dedicated control lane.
pub struct ArbiterClient {
    arbiter: ComponentId,
    /// One-way latency of the dedicated lane (client side).
    lane_latency: SimTime,
    next_tag: u64,
    pending: HashMap<u64, (u64, ComponentId, SimTime)>,
    resolutions: HashMap<u64, Resolution>,
    /// Requests issued.
    pub issued: Counter,
    /// Control-lane RTT distribution (ps).
    pub rtt: Histogram,
}

impl ArbiterClient {
    /// Creates a client bound to an arbiter over a lane with the given
    /// one-way latency.
    pub fn new(arbiter: ComponentId, lane_latency: SimTime) -> Self {
        ArbiterClient {
            arbiter,
            lane_latency,
            next_tag: 0,
            pending: HashMap::new(),
            resolutions: HashMap::new(),
            issued: Counter::new(),
            rtt: Histogram::new(),
        }
    }

    /// The stored resolution of a future, if it has resolved.
    pub fn resolution(&self, future_id: u64) -> Option<Resolution> {
        self.resolutions.get(&future_id).copied()
    }
}

impl Component for ArbiterClient {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<ClientRequest>() {
            Ok(req) => {
                let tag = self.next_tag;
                self.next_tag += 1;
                self.pending
                    .insert(tag, (req.future_id, req.reply_to, ctx.now()));
                self.issued.inc();
                ctx.send(
                    self.arbiter,
                    self.lane_latency,
                    ArbiterRequest {
                        op: req.op,
                        tag,
                        reply_to: ctx.self_id(),
                    },
                );
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ArbiterResponse>() {
            Ok(rsp) => {
                // The arbiter only echoes tags this client issued.
                let Some((future_id, reply_to, issued_at)) = self.pending.remove(&rsp.tag) else {
                    return ctx.reject("response to a request this client never issued");
                };
                let rtt = ctx.now() - issued_at;
                self.rtt.record_time(rtt);
                let ok = matches!(
                    rsp.result,
                    ArbiterResult::Granted { .. }
                        | ArbiterResult::Reclaimed
                        | ArbiterResult::Info { .. }
                );
                self.resolutions.insert(
                    future_id,
                    Resolution {
                        result: rsp.result,
                        rtt,
                    },
                );
                ctx.send(reply_to, SimTime::ZERO, FutureResolved { future_id, ok });
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_fabric::arbiter::FabricArbiter;
    use fcc_fabric::switch::FlowId;
    use fcc_proto::addr::NodeId;
    use fcc_sim::{Engine, Inbox};

    use super::*;

    type Waiter = Inbox<FutureResolved>;

    fn flow() -> FlowId {
        FlowId {
            src: NodeId(1),
            dst: NodeId(9),
        }
    }

    fn setup() -> (Engine, ComponentId, ComponentId) {
        let mut engine = Engine::new(3);
        let sink = engine.add_component("waiter", Waiter::default());
        // The arbiter needs somewhere to install rates: the waiter absorbs
        // nothing here because the flow path is registered against a dummy
        // switch component (the waiter itself would panic); use capacity
        // only (query path) plus a nop switch.
        struct NopSwitch;
        impl Component for NopSwitch {
            fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
        }
        let sw = engine.add_component("sw", NopSwitch);
        let mut arb = FabricArbiter::new(SimTime::from_ns(100.0));
        arb.register_path(flow(), vec![(sw, 0)]);
        arb.set_capacity((sw, 0), 100.0);
        let arb = engine.add_component("arb", arb);
        let client =
            engine.add_component("client", ArbiterClient::new(arb, SimTime::from_ns(100.0)));
        (engine, client, sink)
    }

    #[test]
    fn query_resolves_future_with_200ns_rtt() {
        let (mut engine, client, sink) = setup();
        engine.post(
            client,
            SimTime::ZERO,
            ClientRequest {
                op: ArbiterOp::Query { flow: flow() },
                future_id: 5,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        let w = engine.component::<Waiter>(sink);
        assert_eq!(w.messages().len(), 1);
        assert!(w.messages()[0].ok);
        let c = engine.component::<ArbiterClient>(client);
        let res = c.resolution(5).expect("resolved");
        // The paper's claim: the 64B control-flit RTT is up to 200 ns.
        assert_eq!(res.rtt, SimTime::from_ns(200.0));
    }

    #[test]
    fn reserve_then_reclaim_round_trip() {
        let (mut engine, client, sink) = setup();
        engine.post(
            client,
            SimTime::ZERO,
            ClientRequest {
                op: ArbiterOp::Reserve {
                    flow: flow(),
                    gbps: 50.0,
                    burst_bytes: 4096,
                },
                future_id: 1,
                reply_to: sink,
            },
        );
        engine.post(
            client,
            SimTime::from_us(1.0),
            ClientRequest {
                op: ArbiterOp::Reclaim { flow: flow() },
                future_id: 2,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        let c = engine.component::<ArbiterClient>(client);
        assert!(matches!(
            c.resolution(1).expect("granted").result,
            ArbiterResult::Granted { .. }
        ));
        assert!(matches!(
            c.resolution(2).expect("reclaimed").result,
            ArbiterResult::Reclaimed
        ));
    }

    #[test]
    fn denial_resolves_not_ok() {
        let (mut engine, client, sink) = setup();
        engine.post(
            client,
            SimTime::ZERO,
            ClientRequest {
                op: ArbiterOp::Reserve {
                    flow: flow(),
                    gbps: 500.0,
                    burst_bytes: 4096,
                },
                future_id: 9,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        let w = engine.component::<Waiter>(sink);
        assert!(!w.messages()[0].ok);
    }
}
