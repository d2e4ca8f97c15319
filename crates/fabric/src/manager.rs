//! The fabric manager: discovery and routing-table initialization.
//!
//! "Upon initialization, an FS discovers its connected components,
//! self-initializes the routing structure, and fills up the switching
//! table entries based on the topology. [...] The switching routing table
//! is generally filled up by a central fabric manager" (§2.1/2.2). The
//! [`FabricManager`] component probes every switch for its port peers,
//! identifies endpoint adapters, computes shortest-path routes over the
//! switch graph, and installs PBR entries — all via timed messages, so
//! discovery cost is visible in experiment F1.

use std::collections::BTreeMap;

use fcc_proto::addr::NodeId;
use fcc_sim::{Component, ComponentId, Ctx, Msg, SimTime};

use crate::adapter::{IdentifyReq, IdentifyRsp};
use crate::switch::{DiscoverReq, DiscoverRsp, InstallPbrRoute};

/// Message starting discovery.
#[derive(Debug, Clone, Copy)]
pub struct StartDiscovery;

/// Notification that the fabric is routable.
#[derive(Debug, Clone)]
pub struct FabricReady {
    /// All endpoint nodes discovered, with their owning component.
    pub endpoints: Vec<(NodeId, ComponentId, bool)>,
    /// Number of PBR entries installed across all switches.
    pub routes_installed: usize,
    /// Time discovery + installation took.
    pub elapsed: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    Discovering,
    Identifying,
    Done,
}

/// The central fabric manager component.
pub struct FabricManager {
    switches: Vec<ComponentId>,
    subscriber: Option<ComponentId>,
    phase: Phase,
    started_at: SimTime,
    /// switch → peers (by port index).
    discovered: BTreeMap<ComponentId, Vec<ComponentId>>,
    /// endpoint component → (node, is_host).
    endpoints: BTreeMap<ComponentId, (NodeId, bool)>,
    pending_identify: usize,
    routes_installed: usize,
}

impl FabricManager {
    /// Creates a manager for the given switches; `subscriber` (if any)
    /// receives [`FabricReady`] when routing is installed.
    pub fn new(switches: Vec<ComponentId>, subscriber: Option<ComponentId>) -> Self {
        FabricManager {
            switches,
            subscriber,
            phase: Phase::Idle,
            started_at: SimTime::ZERO,
            discovered: BTreeMap::new(),
            endpoints: BTreeMap::new(),
            pending_identify: 0,
            routes_installed: 0,
        }
    }

    /// Discovered endpoints (valid once done).
    pub fn endpoints(&self) -> &BTreeMap<ComponentId, (NodeId, bool)> {
        &self.endpoints
    }

    fn begin_identify(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = Phase::Identifying;
        let switch_set: Vec<ComponentId> = self.switches.clone();
        let mut to_probe = Vec::new();
        for peers in self.discovered.values() {
            for &peer in peers {
                if !switch_set.contains(&peer) && !self.endpoints.contains_key(&peer) {
                    to_probe.push(peer);
                }
            }
        }
        to_probe.sort();
        to_probe.dedup();
        self.pending_identify = to_probe.len();
        if to_probe.is_empty() {
            self.install_routes(ctx);
            return;
        }
        for peer in to_probe {
            ctx.send(
                peer,
                SimTime::from_ns(100.0),
                IdentifyReq {
                    reply_to: ctx.self_id(),
                },
            );
        }
    }

    /// BFS over the switch graph from each switch, installing the first-hop
    /// port for every endpoint.
    fn install_routes(&mut self, ctx: &mut Ctx<'_>) {
        // Adjacency: switch → (port, neighbor switch).
        let mut adj: BTreeMap<ComponentId, Vec<(usize, ComponentId)>> = BTreeMap::new();
        // Attachment: switch → (port, endpoint node).
        let mut attached: BTreeMap<ComponentId, Vec<(usize, NodeId)>> = BTreeMap::new();
        for (&sw, peers) in &self.discovered {
            for (port, &peer) in peers.iter().enumerate() {
                if self.discovered.contains_key(&peer) {
                    adj.entry(sw).or_default().push((port, peer));
                } else if let Some(&(node, _)) = self.endpoints.get(&peer) {
                    attached.entry(sw).or_default().push((port, node));
                }
            }
        }
        for &start in &self.switches {
            // BFS giving, for every reachable switch, the first-hop port.
            let mut first_hop: BTreeMap<ComponentId, usize> = BTreeMap::new();
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(start);
            let mut visited: Vec<ComponentId> = vec![start];
            while let Some(sw) = queue.pop_front() {
                if let Some(neigh) = adj.get(&sw) {
                    for &(port, next) in neigh {
                        if !visited.contains(&next) {
                            visited.push(next);
                            let hop = if sw == start { port } else { first_hop[&sw] };
                            first_hop.insert(next, hop);
                            queue.push_back(next);
                        }
                    }
                }
            }
            // Install routes to every endpoint.
            for (&sw, list) in &attached {
                for &(port, node) in list {
                    let route_port = if sw == start {
                        Some(port)
                    } else {
                        first_hop.get(&sw).copied()
                    };
                    if let Some(p) = route_port {
                        ctx.send(
                            start,
                            SimTime::from_ns(100.0),
                            InstallPbrRoute { dst: node, port: p },
                        );
                        self.routes_installed += 1;
                    }
                }
            }
        }
        self.phase = Phase::Done;
        if let Some(sub) = self.subscriber {
            let endpoints: Vec<(NodeId, ComponentId, bool)> = {
                let mut v: Vec<_> = self
                    .endpoints
                    .iter()
                    .map(|(&c, &(n, h))| (n, c, h))
                    .collect();
                v.sort_by_key(|&(n, _, _)| n);
                v
            };
            let ready = FabricReady {
                endpoints,
                routes_installed: self.routes_installed,
                elapsed: ctx.now() - self.started_at,
            };
            ctx.send(sub, SimTime::from_ns(200.0), ready);
        }
    }
}

impl Component for FabricManager {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartDiscovery>() {
            Ok(StartDiscovery) => {
                if self.phase != Phase::Idle {
                    return ctx.reject("discovery already started");
                }
                self.phase = Phase::Discovering;
                self.started_at = ctx.now();
                for &sw in &self.switches {
                    ctx.send(
                        sw,
                        SimTime::from_ns(100.0),
                        DiscoverReq {
                            reply_to: ctx.self_id(),
                        },
                    );
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<DiscoverRsp>() {
            Ok(rsp) => {
                self.discovered.insert(rsp.switch, rsp.peers);
                if self.discovered.len() == self.switches.len() {
                    self.begin_identify(ctx);
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<IdentifyRsp>() {
            Ok(rsp) => {
                let Some(left) = self.pending_identify.checked_sub(1) else {
                    return ctx.reject("identify response nobody asked for");
                };
                self.endpoints
                    .insert(rsp.component, (rsp.node, rsp.is_host));
                self.pending_identify = left;
                if left == 0 {
                    self.install_routes(ctx);
                }
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}
