//! Fabric plans and the one builder that realizes them: spine-leaf, 2D
//! mesh, and torus pods, and the chains of [`crate::topology`] and
//! [`crate::sharded`], all sharding along their natural partition
//! boundary.
//!
//! A *pod* is a rack-scale fabric of tens of switches and hundreds of
//! hosts — the scale at which the paper's fabric-centric pooling argument
//! bites. Every switched fabric is built in two layers:
//!
//! 1. [`PodPlan`] — a pure, engine-free description of the switch graph:
//!    switch ids, domain assignment, per-switch endpoint counts, links,
//!    escape routes. Because it needs no simulator state, `fcc-verify`'s
//!    `check-routing` binary can exhaustively model-check its
//!    escape-channel dependency graph for acyclicity at small K, and
//!    property tests can sweep hundreds of shapes per second.
//! 2. `instantiate` — realizes a plan on one [`Engine`] (a one-domain
//!    plan) or a [`ShardedEngine`]: one engine per domain, intra-domain
//!    switch cables wired directly, cross-domain cables as
//!    [`ShardGateway`] pairs (whose latency is the conservative
//!    lookahead), and transit routes installed escape-first. The public
//!    builders are thin wrappers: [`single_switch`] and [`chain`] are
//!    one-column meshes on one engine, [`sharded_chain`] a one-row mesh
//!    with one domain per switch, and [`sharded_pod`] additionally puts
//!    every switch-to-switch link under VC flow control
//!    ([`FabricSwitch::set_vc_link`]).
//!
//! [`ShardGateway`]: fcc_sim::shard::ShardGateway
//! [`single_switch`]: crate::topology::single_switch
//! [`chain`]: crate::topology::chain
//! [`sharded_chain`]: crate::sharded::sharded_chain
//!
//! Escape routes are deterministic by construction — up\*/down\* through
//! the destination's home spine for spine-leaf, dimension-ordered (X then
//! Y, no wraparound) for mesh and torus — so the escape network's channel
//! dependency graph is acyclic and lane 0 can always drain (see
//! [`crate::wormhole`] and DESIGN.md). Adaptive candidates (any other
//! spine; any minimal grid hop) ride lanes 1 and up.
//!
//! Domain assignment: a spine and its leaves form one domain; a mesh or
//! torus column forms one domain. Every cross-domain link becomes a
//! gateway cable, so a K-domain pod runs byte-identically on 1..=K
//! worker threads (scenario E14).

use std::sync::Arc;

use fcc_proto::addr::NodeId;
use fcc_proto::link::CreditConfig;
use fcc_sim::shard::ShardedEngine;
use fcc_sim::{ComponentId, Engine, SimTime};

use crate::endpoint::Endpoint;
use crate::sharded::{DomainSpec, ShardedFabric};
use crate::switch::FabricSwitch;
use crate::topology::{plug, Adapters, DeviceHandle, Topology, TopologySpec};
use crate::wormhole::VcConfig;

/// The switch-graph family of a pod.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PodKind {
    /// Two-tier folded Clos: every leaf links to every spine. Endpoints
    /// attach to leaves; a spine plus its `leaves_per_spine` home leaves
    /// form one shard domain.
    SpineLeaf {
        /// Spine switches (= domain count).
        spines: usize,
        /// Leaves homed under each spine.
        leaves_per_spine: usize,
    },
    /// `cols x rows` 2D mesh; every switch is an edge switch. Each
    /// column is one domain, so east-west links are gateway cables.
    Mesh {
        /// Columns (= domain count).
        cols: usize,
        /// Rows per column.
        rows: usize,
    },
    /// 2D torus: the mesh plus wraparound links (only where they would
    /// not duplicate a mesh link, i.e. for side length > 2). Escape
    /// routing ignores the wraparound links; adaptive lanes may use them.
    Torus {
        /// Columns (= domain count).
        cols: usize,
        /// Rows per column.
        rows: usize,
    },
}

/// One switch in a [`PodPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanSwitch {
    /// Dense switch id (index into [`PodPlan::switches`]).
    pub id: usize,
    /// Shard domain this switch lives in.
    pub domain: usize,
    /// Grid coordinate: `(col, row)` for mesh/torus; `(i, tier)` for
    /// spine-leaf (tier 0 = spine, tier 1 = leaf).
    pub coord: (usize, usize),
    /// Whether hosts/devices attach here (leaves; all grid switches).
    pub is_edge: bool,
    /// Hosts attached here (zero off the edge).
    pub hosts: usize,
    /// Devices attached here (zero off the edge).
    pub devices: usize,
}

/// One switch-to-switch cable in a [`PodPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanLink {
    /// Lower endpoint switch id.
    pub a: usize,
    /// Higher endpoint switch id.
    pub b: usize,
    /// Whether the endpoints live in different domains (the link becomes
    /// a [`ShardGateway`](fcc_sim::shard::ShardGateway) cable).
    pub cross_domain: bool,
}

/// Engine-free description of a pod's switch graph and routes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PodPlan {
    /// The generating family (kept for route computation).
    pub kind: PodKind,
    /// Switches in id order.
    pub switches: Vec<PlanSwitch>,
    /// Links, each with `a < b`, in generation order (deterministic).
    pub links: Vec<PlanLink>,
}

impl PodPlan {
    /// Generates the plan for `kind` with uniform endpoint counts per
    /// edge switch.
    ///
    /// # Panics
    ///
    /// Panics if any dimension of `kind` is zero.
    pub fn new(kind: PodKind, hosts_per_edge: usize, devices_per_edge: usize) -> Self {
        let mut switches = Vec::new();
        let mut links = Vec::new();
        match kind {
            PodKind::SpineLeaf {
                spines,
                leaves_per_spine,
            } => {
                assert!(spines > 0 && leaves_per_spine > 0, "empty spine-leaf pod");
                for s in 0..spines {
                    switches.push(PlanSwitch {
                        id: s,
                        domain: s,
                        coord: (s, 0),
                        is_edge: false,
                        hosts: 0,
                        devices: 0,
                    });
                }
                for j in 0..spines * leaves_per_spine {
                    switches.push(PlanSwitch {
                        id: spines + j,
                        domain: j / leaves_per_spine,
                        coord: (j, 1),
                        is_edge: true,
                        hosts: hosts_per_edge,
                        devices: devices_per_edge,
                    });
                }
                for s in 0..spines {
                    for j in 0..spines * leaves_per_spine {
                        links.push(PlanLink {
                            a: s,
                            b: spines + j,
                            cross_domain: s != j / leaves_per_spine,
                        });
                    }
                }
            }
            PodKind::Mesh { cols, rows } | PodKind::Torus { cols, rows } => {
                assert!(cols > 0 && rows > 0, "empty grid pod");
                for c in 0..cols {
                    for r in 0..rows {
                        switches.push(PlanSwitch {
                            id: c * rows + r,
                            domain: c,
                            coord: (c, r),
                            is_edge: true,
                            hosts: hosts_per_edge,
                            devices: devices_per_edge,
                        });
                    }
                }
                for c in 0..cols {
                    for r in 0..rows {
                        let id = c * rows + r;
                        if r + 1 < rows {
                            links.push(PlanLink {
                                a: id,
                                b: id + 1,
                                cross_domain: false,
                            });
                        }
                        if c + 1 < cols {
                            links.push(PlanLink {
                                a: id,
                                b: id + rows,
                                cross_domain: true,
                            });
                        }
                    }
                }
                if matches!(kind, PodKind::Torus { .. }) {
                    if rows > 2 {
                        for c in 0..cols {
                            links.push(PlanLink {
                                a: c * rows,
                                b: c * rows + rows - 1,
                                cross_domain: false,
                            });
                        }
                    }
                    if cols > 2 {
                        for r in 0..rows {
                            links.push(PlanLink {
                                a: r,
                                b: (cols - 1) * rows + r,
                                cross_domain: true,
                            });
                        }
                    }
                }
            }
        }
        PodPlan {
            kind,
            switches,
            links,
        }
    }

    /// The plan of `kind` whose switch `i` carries the endpoints of
    /// `specs[i]`, with those devices split out per switch. Chains are
    /// one-column (serial) or one-row (one domain per switch) meshes.
    pub(crate) fn line(
        kind: PodKind,
        specs: Vec<DomainSpec>,
    ) -> (PodPlan, Vec<Vec<Box<dyn Endpoint>>>) {
        let mut plan = PodPlan::new(kind, 0, 0);
        let devices = plan
            .switches
            .iter_mut()
            .zip(specs)
            .map(|(s, spec)| {
                s.hosts = spec.n_hosts;
                s.devices = spec.devices.len();
                spec.devices
            })
            .collect();
        (plan, devices)
    }

    /// Number of shard domains (spines, or grid columns).
    pub fn domains(&self) -> usize {
        self.switches
            .iter()
            .map(|s| s.domain + 1)
            .max()
            .unwrap_or(0)
    }

    /// Edge switches of domain `d`, in id order.
    pub fn domain_edges(&self, d: usize) -> Vec<usize> {
        self.switches
            .iter()
            .filter(|s| s.domain == d && s.is_edge)
            .map(|s| s.id)
            .collect()
    }

    /// All edge switches, in id order.
    pub fn edge_switches(&self) -> Vec<usize> {
        self.switches
            .iter()
            .filter(|s| s.is_edge)
            .map(|s| s.id)
            .collect()
    }

    /// Neighbor switch ids of `s`, sorted ascending.
    pub fn neighbors(&self, s: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self
            .links
            .iter()
            .filter_map(|l| {
                if l.a == s {
                    Some(l.b)
                } else if l.b == s {
                    Some(l.a)
                } else {
                    None
                }
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Port count of switch `s` once realized: one per neighbor plus one
    /// per attached endpoint.
    pub fn radix(&self, s: usize) -> usize {
        self.neighbors(s).len() + self.switches[s].hosts + self.switches[s].devices
    }

    /// Whether the switch graph is a single connected component.
    pub fn is_connected(&self) -> bool {
        let n = self.switches.len();
        if n == 0 {
            return false;
        }
        let mut seen = vec![false; n];
        seen[0] = true;
        let mut stack = vec![0usize];
        while let Some(s) = stack.pop() {
            for nb in self.neighbors(s) {
                if !seen[nb] {
                    seen[nb] = true;
                    stack.push(nb);
                }
            }
        }
        seen.into_iter().all(|x| x)
    }

    /// The next hop of the deterministic *escape* route from `from`
    /// toward `to`: up\*/down\* via the destination's home spine for
    /// spine-leaf, dimension-ordered X-then-Y (never using wraparound
    /// links) for mesh and torus. `None` once `from == to`.
    ///
    /// The escape network induced by these routes has an acyclic channel
    /// dependency graph — spine-leaf paths are up-links then down-links
    /// (a down-link never feeds an up-link), and X-then-Y dimension
    /// ordering never feeds a Y-channel into an X-channel. `fcc-verify`'s
    /// `check-routing` proves this exhaustively at small K.
    pub fn escape_next_hop(&self, from: usize, to: usize) -> Option<usize> {
        if from == to || to >= self.switches.len() {
            return None;
        }
        match self.kind {
            PodKind::SpineLeaf {
                spines,
                leaves_per_spine,
            } => {
                if from < spines {
                    // Spine: leaves are one down-link away. A spine
                    // destination (no endpoints there, so only reachable
                    // as a waypoint) is reached through its first leaf.
                    Some(if to < spines {
                        spines + to * leaves_per_spine
                    } else {
                        to
                    })
                } else if to < spines {
                    Some(to)
                } else {
                    Some((to - spines) / leaves_per_spine)
                }
            }
            PodKind::Mesh { rows, .. } | PodKind::Torus { rows, .. } => {
                let (fc, fr) = self.switches[from].coord;
                let (tc, tr) = self.switches[to].coord;
                let (nc, nr) = if fc != tc {
                    (if tc > fc { fc + 1 } else { fc - 1 }, fr)
                } else {
                    (fc, if tr > fr { fr + 1 } else { fr - 1 })
                };
                Some(nc * rows + nr)
            }
        }
    }

    /// The full escape route from `from` to `to`, inclusive of both ends.
    /// Bounded by the switch count (the escape routes are loop-free).
    pub fn escape_path(&self, from: usize, to: usize) -> Vec<usize> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to && path.len() <= self.switches.len() {
            match self.escape_next_hop(cur, to) {
                Some(n) => {
                    path.push(n);
                    cur = n;
                }
                None => break,
            }
        }
        path
    }

    /// Next-hop candidates from `from` toward `to`, escape-primary first:
    /// the deterministic escape hop, then any adaptive alternatives (the
    /// other spines for spine-leaf; other distance-reducing grid hops,
    /// including wraparound, for mesh/torus). The realizer installs PBR
    /// entries in exactly this order, so `route(dst)[0]` *is* the escape
    /// route — the invariant the switch's lane-0 eligibility check and
    /// the `check-routing` model share.
    pub fn route_candidates(&self, from: usize, to: usize) -> Vec<usize> {
        if from == to {
            return Vec::new();
        }
        let Some(primary) = self.escape_next_hop(from, to) else {
            return Vec::new();
        };
        let mut out = vec![primary];
        match self.kind {
            PodKind::SpineLeaf { spines, .. } => {
                // Leaf-to-leaf worms may climb to any spine; every spine
                // reaches every leaf in one down hop.
                if from >= spines && to >= spines {
                    out.extend((0..spines).filter(|&sp| sp != primary));
                }
            }
            PodKind::Mesh { rows, .. } => {
                let (fc, fr) = self.switches[from].coord;
                let (tc, tr) = self.switches[to].coord;
                if fc != tc && fr != tr {
                    let nr = if tr > fr { fr + 1 } else { fr - 1 };
                    out.push(fc * rows + nr);
                }
            }
            PodKind::Torus { cols, rows } => {
                let (fc, fr) = self.switches[from].coord;
                let (tc, tr) = self.switches[to].coord;
                let wrap = |a: usize, b: usize, n: usize| {
                    let d = a.abs_diff(b);
                    d.min(n - d)
                };
                let cur = wrap(fc, tc, cols) + wrap(fr, tr, rows);
                for n in self.neighbors(from) {
                    if n == primary {
                        continue;
                    }
                    let (nc, nr) = self.switches[n].coord;
                    if wrap(nc, tc, cols) + wrap(nr, tr, rows) < cur {
                        out.push(n);
                    }
                }
            }
        }
        out
    }

    /// Materializes per-domain endpoint groupings as [`DomainSpec`]s,
    /// calling `device(edge_switch_id, slot)` for each device. Feed the
    /// result to [`sharded_pod`]; counts round-trip exactly (each domain
    /// gets its edge switches' hosts and devices, in edge-switch id
    /// order).
    pub fn domain_specs<F>(&self, mut device: F) -> Vec<DomainSpec>
    where
        F: FnMut(usize, usize) -> Box<dyn Endpoint>,
    {
        (0..self.domains())
            .map(|d| {
                let mut spec = DomainSpec {
                    n_hosts: 0,
                    devices: Vec::new(),
                };
                for sw in self.domain_edges(d) {
                    spec.n_hosts += self.switches[sw].hosts;
                    for slot in 0..self.switches[sw].devices {
                        spec.devices.push(device(sw, slot));
                    }
                }
                spec
            })
            .collect()
    }
}

/// Everything needed to realize a pod on a [`ShardedEngine`].
#[derive(Clone, Copy)]
pub struct PodSpec {
    /// Switch-graph family and dimensions.
    pub kind: PodKind,
    /// Per-switch and per-adapter link configuration. Every
    /// switch-to-switch port gets a VC credit ledger shaped by
    /// [`PodSpec::vc`], and the link-credit floor that goes with it,
    /// whatever `topo.switch.queueing` is; only
    /// [`QueueDiscipline::Wormhole`] switches allocate lanes from the
    /// ledger.
    ///
    /// [`QueueDiscipline::Wormhole`]: crate::switch::QueueDiscipline::Wormhole
    pub topo: TopologySpec,
    /// Virtual-channel shape of every switch-to-switch link.
    pub vc: VcConfig,
    /// Hosts attached to each edge switch.
    pub hosts_per_edge: usize,
    /// Devices attached to each edge switch.
    pub devices_per_edge: usize,
    /// One-way latency of cross-domain cables (the conservative
    /// lookahead). Must be positive when the pod has more than one
    /// domain.
    pub cross_latency: SimTime,
}

impl PodSpec {
    /// The engine-free plan for this spec.
    pub fn plan(&self) -> PodPlan {
        PodPlan::new(self.kind, self.hosts_per_edge, self.devices_per_edge)
    }
}

/// Realizes `spec` over the shards of `sharded`: one engine per domain,
/// cross-domain links as [`ShardGateway`] pairs, every switch-to-switch
/// port under [`FabricSwitch::set_vc_link`], and PBR routes installed
/// escape-first per [`PodPlan::route_candidates`]. Host and device links
/// keep the plain link-layer credit scheme (adapters do not speak VCs).
///
/// Returns the plan alongside the fabric; `plan.domains()` must equal
/// the engine's shard count and `domains` must match the plan's
/// per-domain endpoint counts.
///
/// # Panics
///
/// Panics on any count mismatch between `spec`, `domains`, and the
/// engine's shard count, or on a zero `cross_latency` in a multi-domain
/// pod.
///
/// [`ShardGateway`]: fcc_sim::shard::ShardGateway
pub fn sharded_pod(
    sharded: &mut ShardedEngine,
    spec: &PodSpec,
    domains: Vec<DomainSpec>,
) -> (PodPlan, ShardedFabric) {
    let plan = spec.plan();
    assert_eq!(plan.domains(), domains.len(), "one DomainSpec per domain");
    let mut devices: Vec<Vec<Box<dyn Endpoint>>> =
        plan.switches.iter().map(|_| Vec::new()).collect();
    for (d, domain) in domains.into_iter().enumerate() {
        let edges = plan.domain_edges(d);
        let total = |f: fn(&PlanSwitch) -> usize| -> usize {
            edges.iter().map(|&sw| f(&plan.switches[sw])).sum()
        };
        assert_eq!(domain.n_hosts, total(|s| s.hosts), "domain {d}: hosts");
        assert_eq!(
            domain.devices.len(),
            total(|s| s.devices),
            "domain {d}: devices"
        );
        let mut devs = domain.devices.into_iter();
        for &sw in &edges {
            devices[sw] = devs.by_ref().take(plan.switches[sw].devices).collect();
        }
    }
    let fabric = instantiate(
        Engines::Sharded(sharded),
        &plan,
        &spec.topo,
        Some(spec.vc),
        spec.cross_latency,
        devices,
    );
    (plan, fabric)
}

/// The engines a plan is realized on.
pub(crate) enum Engines<'a> {
    /// A one-domain plan on one engine.
    One(&'a mut Engine),
    /// One engine per domain; cross-domain links become gateway cables.
    Sharded(&'a mut ShardedEngine),
}

impl Engines<'_> {
    fn get(&mut self, d: usize) -> &mut Engine {
        match self {
            Engines::One(engine) => engine,
            Engines::Sharded(sharded) => sharded.engine_mut(d),
        }
    }
}

/// Realizes `plan` on `engines`: the one builder behind every switched
/// fabric. `devices[s]` are switch `s`'s devices; its host count comes
/// from the plan. With `vc`, every switch-to-switch port runs VC flow
/// control; cross-domain cables have one-way latency `cross_latency`.
///
/// Components are created in one fixed order, so `(time, seq)`
/// tie-breaks are the same whichever wrapper asked:
///
/// 1. devices, per edge switch in domain and id order (node ids and
///    address ranges are assigned here, completing the address map);
/// 2. switches, in id order;
/// 3. links, in plan order, port `a` before port `b`;
/// 4. per edge switch, its hosts (created and attached), then its devices;
/// 5. transit routes, escape candidate first, one whole row per remote
///    node.
///
/// # Panics
///
/// Panics if the plan's domain count differs from the engine count.
pub(crate) fn instantiate(
    mut engines: Engines<'_>,
    plan: &PodPlan,
    spec: &TopologySpec,
    vc: Option<VcConfig>,
    cross_latency: SimTime,
    mut devices: Vec<Vec<Box<dyn Endpoint>>>,
) -> ShardedFabric {
    let k = plan.domains();
    let shards = match &engines {
        Engines::One(_) => 1,
        Engines::Sharded(sharded) => sharded.shard_count(),
    };
    assert_eq!(k, shards, "one domain per shard");
    let mut adapters = Adapters::new(*spec);
    let mut staged: Vec<Vec<DeviceHandle>> = plan.switches.iter().map(|_| Vec::new()).collect();
    for d in 0..k {
        let engine = engines.get(d);
        for sw in plan.domain_edges(d) {
            staged[sw] = std::mem::take(&mut devices[sw])
                .into_iter()
                .map(|dev| adapters.device(engine, dev))
                .collect();
        }
    }

    let switches: Vec<ComponentId> = plan
        .switches
        .iter()
        .map(|s| {
            engines
                .get(s.domain)
                .add_component(format!("fs{}", s.id), FabricSwitch::new(spec.switch))
        })
        .collect();

    let wire = |engine: &mut Engine, sw: ComponentId, peer: ComponentId| {
        let Some(cfg) = vc else {
            return plug(engine, sw, peer, None);
        };
        // Lane ledgers must be the binding constraint on VC links: grant
        // the link layer at least `vcs * buf_flits` credits per class so
        // the shared class pool can never stall a lane that holds VC
        // credits (that stall would pierce the lane isolation the
        // deadlock-freedom argument rests on; see
        // `FabricSwitch::set_vc_link`).
        let lane_total = 4 * u32::from(cfg.vcs.max(2)) * cfg.buf_flits;
        let credit = CreditConfig {
            buffer_flits: spec.credit.buffer_flits.max(lane_total),
            ..spec.credit
        };
        let s = engine.component_mut::<FabricSwitch>(sw);
        let p = s.add_port_with(spec.switch.phys, credit);
        s.connect(p, peer);
        s.set_vc_link(p, cfg);
        p
    };
    // Intra-domain links are direct wires; a cross-domain link becomes a
    // gateway pair (the cable *is* the shard boundary, and its latency
    // the lookahead). A one-domain plan has no cross-domain link.
    // `port_to[s * n + t]` is switch `s`'s port toward neighbour `t`.
    let n = plan.switches.len();
    let mut port_to: Vec<Option<usize>> = vec![None; n * n];
    let mut gateways: Vec<(ComponentId, ComponentId)> = Vec::new();
    for link in &plan.links {
        let (a, b) = (link.a, link.b);
        let (da, db) = (plan.switches[a].domain, plan.switches[b].domain);
        let (peer_a, peer_b) = match &mut engines {
            Engines::Sharded(sharded) if link.cross_domain => {
                let (ga, gb) = sharded.link(
                    (da, switches[a]),
                    (db, switches[b]),
                    cross_latency,
                    &format!("cable{a}-{b}"),
                );
                gateways.push((ga, gb));
                (ga, gb)
            }
            _ => (switches[b], switches[a]),
        };
        port_to[a * n + b] = Some(wire(engines.get(da), switches[a], peer_a));
        port_to[b * n + a] = Some(wire(engines.get(db), switches[b], peer_b));
    }

    let mut domains: Vec<Topology> = (0..k)
        .map(|d| Topology {
            hosts: Vec::new(),
            devices: Vec::new(),
            switches: plan
                .switches
                .iter()
                .filter(|s| s.domain == d)
                .map(|s| switches[s.id])
                .collect(),
            addr_map: Arc::clone(&adapters.map),
            manager: None,
        })
        .collect();
    // Every endpoint with its home switch, in attach order.
    let mut homes: Vec<(NodeId, usize)> = Vec::new();
    for (d, topo) in domains.iter_mut().enumerate() {
        let engine = engines.get(d);
        for sw in plan.domain_edges(d) {
            for _ in 0..plan.switches[sw].hosts {
                let host = adapters.host(engine);
                host.attach(engine, switches[sw], true);
                homes.push((host.node, sw));
                topo.hosts.push(host);
            }
            for dev in std::mem::take(&mut staged[sw]) {
                dev.attach(engine, switches[sw], true);
                homes.push((dev.node, sw));
                topo.devices.push(dev);
            }
        }
    }

    // Every switch learns every remote node, candidates in escape-first
    // order so `route(dst)[0]` is the escape hop. A row depends only on
    // the (switch, home switch) pair, so it is mapped to ports once per
    // pair and written whole for each node homed there.
    for s in &plan.switches {
        let routing = &mut engines
            .get(s.domain)
            .component_mut::<FabricSwitch>(switches[s.id])
            .routing;
        let mut rows: Vec<Option<Vec<usize>>> = vec![None; n];
        for &(node, home) in homes.iter().filter(|&&(_, home)| home != s.id) {
            let row = rows[home].get_or_insert_with(|| {
                plan.route_candidates(s.id, home)
                    .into_iter()
                    .map(|hop| {
                        port_to[s.id * n + hop].unwrap_or_else(|| {
                            // fcc-lint: allow(panic-in-lib) -- plan error: a candidate hop must be a wired neighbour
                            panic!("switch {} has no port toward candidate hop {hop}", s.id)
                        })
                    })
                    .collect()
            });
            routing.set_pbr(node, row);
        }
    }
    ShardedFabric { domains, gateways }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use fcc_sim::Inbox;

    use super::*;
    use crate::adapter::{Fea, Fha, HostCompletion, HostOp, HostRequest};
    use crate::endpoint::FixedLatencyMemory;
    use crate::switch::QueueDiscipline;

    fn mem() -> Box<dyn Endpoint> {
        Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            1 << 20,
        ))
    }

    #[test]
    fn spine_leaf_shape() {
        let plan = PodPlan::new(
            PodKind::SpineLeaf {
                spines: 2,
                leaves_per_spine: 3,
            },
            4,
            1,
        );
        assert_eq!(plan.switches.len(), 8);
        assert_eq!(plan.links.len(), 12, "complete bipartite");
        assert_eq!(plan.domains(), 2);
        assert_eq!(plan.domain_edges(0), vec![2, 3, 4]);
        assert!(plan.is_connected());
        // A spine sees every leaf; leaves see both spines + endpoints.
        assert_eq!(plan.radix(0), 6);
        assert_eq!(plan.radix(2), 2 + 4 + 1);
        // Escape: leaf 2 (domain 0) to leaf 7 (domain 1) climbs to the
        // destination's home spine 1, then down.
        assert_eq!(plan.escape_path(2, 7), vec![2, 1, 7]);
        // Adaptive candidates: primary spine first, then the other.
        assert_eq!(plan.route_candidates(2, 7), vec![1, 0]);
        assert_eq!(plan.route_candidates(1, 7), vec![7]);
    }

    #[test]
    fn mesh_routes_are_dimension_ordered() {
        let plan = PodPlan::new(PodKind::Mesh { cols: 3, rows: 2 }, 1, 1);
        assert_eq!(plan.switches.len(), 6);
        assert!(plan.is_connected());
        // (0,0) -> (2,1): X first (0,0)->(1,0)->(2,0), then Y ->(2,1).
        assert_eq!(plan.escape_path(0, 5), vec![0, 2, 4, 5]);
        // Both dimensions off: the Y-first hop is the one adaptive twin.
        assert_eq!(plan.route_candidates(0, 5), vec![2, 1]);
        // Same column: no adaptive alternative.
        assert_eq!(plan.route_candidates(0, 1), vec![1]);
    }

    #[test]
    fn torus_wrap_links_are_adaptive_only() {
        let plan = PodPlan::new(PodKind::Torus { cols: 3, rows: 3 }, 1, 0);
        let mesh = PodPlan::new(PodKind::Mesh { cols: 3, rows: 3 }, 1, 0);
        assert_eq!(plan.links.len(), mesh.links.len() + 6);
        // Escape ignores wraparound even when it is shorter.
        assert_eq!(plan.escape_path(0, 6), vec![0, 3, 6]);
        // But the wrap neighbor is offered as an adaptive candidate.
        assert!(plan.route_candidates(0, 6).contains(&6));
        assert_eq!(plan.route_candidates(0, 6)[0], 3, "escape first");
    }

    #[test]
    fn domain_specs_round_trip_counts() {
        let plan = PodPlan::new(
            PodKind::SpineLeaf {
                spines: 2,
                leaves_per_spine: 2,
            },
            3,
            1,
        );
        let specs = plan.domain_specs(|_, _| mem());
        assert_eq!(specs.len(), 2);
        for (d, s) in specs.iter().enumerate() {
            assert_eq!(s.n_hosts, plan.domain_edges(d).len() * 3);
            assert_eq!(s.devices.len(), plan.domain_edges(d).len());
        }
    }

    type Sink = Inbox<HostCompletion>;

    fn wormhole_spec(kind: PodKind) -> PodSpec {
        let mut topo = TopologySpec::default();
        topo.switch.queueing = QueueDiscipline::Wormhole;
        topo.switch.adaptive = true;
        PodSpec {
            kind,
            topo,
            vc: VcConfig::default(),
            hosts_per_edge: 1,
            devices_per_edge: 1,
            cross_latency: SimTime::from_ns(200.0),
        }
    }

    /// A host on one spine group writes a device homed under the other
    /// spine, crossing a gateway cable over wormhole VC links.
    fn cross_pod_write(kind: PodKind, domains: usize, threads: usize) -> (u64, u64) {
        let spec = wormhole_spec(kind);
        let plan = spec.plan();
        let mut sharded = ShardedEngine::new(17, domains);
        let specs = plan.domain_specs(|_, _| mem());
        let (plan, fabric) = sharded_pod(&mut sharded, &spec, specs);
        assert!(plan.is_connected());
        let sink = sharded.engine_mut(0).add_component("sink", Sink::default());
        let far = fabric.domains[domains - 1].devices[0];
        let near = fabric.domains[0].hosts[0];
        sharded.engine_mut(0).post(
            near.fha,
            SimTime::ZERO,
            HostRequest {
                op: HostOp::Write {
                    addr: far.range.base,
                    bytes: 256,
                },
                tag: 3,
                reply_to: sink,
            },
        );
        sharded.run(threads);
        let done = sharded.engine(0).component::<Sink>(sink).messages();
        assert_eq!(done.len(), 1, "write completed across the pod");
        // All VC ledgers must balance at quiescence.
        for (d, topo) in fabric.domains.iter().enumerate() {
            for &sw in &topo.switches {
                let s = sharded.engine(d).component::<FabricSwitch>(sw);
                assert_eq!(s.vc_violations(), 0);
                let report = s.audit();
                assert!(report.is_clean(), "domain {d}: {report}");
            }
        }
        (done[0].latency().as_ps(), sharded.total_events())
    }

    #[test]
    fn spine_leaf_pod_carries_wormhole_traffic() {
        let kind = PodKind::SpineLeaf {
            spines: 2,
            leaves_per_spine: 2,
        };
        let serial = cross_pod_write(kind, 2, 1);
        assert_eq!(cross_pod_write(kind, 2, 2), serial, "byte-identical");
    }

    #[test]
    fn mesh_pod_carries_wormhole_traffic() {
        let kind = PodKind::Mesh { cols: 2, rows: 2 };
        let serial = cross_pod_write(kind, 2, 1);
        assert_eq!(cross_pod_write(kind, 2, 2), serial, "byte-identical");
    }

    #[test]
    fn torus_pod_carries_wormhole_traffic() {
        let kind = PodKind::Torus { cols: 3, rows: 3 };
        let serial = cross_pod_write(kind, 3, 1);
        assert_eq!(cross_pod_write(kind, 3, 3), serial, "byte-identical");
    }

    /// `plan` with every switch in domain 0 and every link a direct
    /// wire: the same routes, realizable on one engine.
    fn one_domain(plan: &PodPlan) -> PodPlan {
        let mut plan = plan.clone();
        for s in &mut plan.switches {
            s.domain = 0;
        }
        for l in &mut plan.links {
            l.cross_domain = false;
        }
        plan
    }

    /// Checks every switch's PBR row for every node against the plan,
    /// reading the wiring back from the switch ports: a node homed here
    /// routes to the port its adapter is cabled to, any other node to
    /// `route_candidates(switch, home)` mapped hop by hop to the port
    /// whose peer is that neighbour (directly, or through the gateway
    /// the fabric lists for that cable).
    fn assert_routes_follow_plan(plan: &PodPlan, engines: &[&Engine], fabric: &ShardedFabric) {
        // What each (domain, component) a switch port can face stands for.
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Peer {
            Switch(usize),
            Node(NodeId),
        }
        let mut peers: BTreeMap<(usize, ComponentId), Peer> = BTreeMap::new();
        let mut switch_of: BTreeMap<(usize, ComponentId), usize> = BTreeMap::new();
        let mut component_of: BTreeMap<usize, ComponentId> = BTreeMap::new();
        for (d, topo) in fabric.domains.iter().enumerate() {
            let ids = plan.switches.iter().filter(|s| s.domain == d);
            for (&c, s) in topo.switches.iter().zip(ids) {
                peers.insert((d, c), Peer::Switch(s.id));
                switch_of.insert((d, c), s.id);
                component_of.insert(s.id, c);
            }
            for h in &topo.hosts {
                peers.insert((d, h.fha), Peer::Node(h.node));
            }
            for dev in &topo.devices {
                peers.insert((d, dev.fea), Peer::Node(dev.node));
            }
        }
        let cross = plan.links.iter().filter(|l| l.cross_domain);
        for (l, &(ga, gb)) in cross.zip(&fabric.gateways) {
            peers.insert((plan.switches[l.a].domain, ga), Peer::Switch(l.b));
            peers.insert((plan.switches[l.b].domain, gb), Peer::Switch(l.a));
        }
        // Every node with its home switch, from its adapter's cable.
        let mut nodes: Vec<(NodeId, usize)> = Vec::new();
        for (d, topo) in fabric.domains.iter().enumerate() {
            let engine = engines[d];
            for h in &topo.hosts {
                let sw = engine.component::<Fha>(h.fha).port().peer();
                nodes.push((h.node, switch_of[&(d, sw)]));
            }
            for dev in &topo.devices {
                let sw = engine.component::<Fea>(dev.fea).port().peer();
                nodes.push((dev.node, switch_of[&(d, sw)]));
            }
        }
        let endpoints: usize = plan.switches.iter().map(|s| s.hosts + s.devices).sum();
        assert_eq!(nodes.len(), endpoints, "{:?}", plan.kind);
        for s in &plan.switches {
            let d = s.domain;
            let sw = engines[d].component::<FabricSwitch>(component_of[&s.id]);
            let facing: Vec<Peer> = (0..sw.port_count())
                .map(|p| peers[&(d, sw.port(p).peer())])
                .collect();
            let port_to = |peer: Peer| facing.iter().position(|&f| f == peer);
            for &(node, home) in &nodes {
                let expected: Vec<usize> = if home == s.id {
                    port_to(Peer::Node(node)).into_iter().collect()
                } else {
                    plan.route_candidates(s.id, home)
                        .into_iter()
                        .map(|hop| port_to(Peer::Switch(hop)).expect("candidate is cabled"))
                        .collect()
                };
                assert!(!expected.is_empty());
                assert_eq!(
                    sw.routing.route(node),
                    Some(&expected[..]),
                    "{:?}: switch {} toward node {node} (home {home})",
                    plan.kind,
                    s.id
                );
            }
            assert_eq!(sw.routing.pbr_entries(), nodes.len());
        }
    }

    /// The routes the builder installs equal the plan's candidates over
    /// generated spine-leaf, mesh and torus pods, sharded by domain and
    /// collapsed onto one engine.
    #[test]
    fn installed_routes_match_plan_candidates() {
        let mut kinds = Vec::new();
        for a in 1..=4 {
            for b in 1..=3 {
                kinds.push(PodKind::SpineLeaf {
                    spines: a,
                    leaves_per_spine: b,
                });
            }
            for b in 1..=4 {
                kinds.push(PodKind::Mesh { cols: a, rows: b });
                kinds.push(PodKind::Torus { cols: a, rows: b });
            }
        }
        for kind in kinds {
            for (hosts, devices) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
                let spec = PodSpec {
                    hosts_per_edge: hosts,
                    devices_per_edge: devices,
                    ..wormhole_spec(kind)
                };
                let plan = spec.plan();
                let mut sharded = ShardedEngine::new(1, plan.domains());
                let specs = plan.domain_specs(|_, _| mem());
                let (plan, fabric) = sharded_pod(&mut sharded, &spec, specs);
                let engines: Vec<&Engine> =
                    (0..plan.domains()).map(|d| sharded.engine(d)).collect();
                assert_routes_follow_plan(&plan, &engines, &fabric);

                let flat = one_domain(&plan);
                let mut engine = Engine::new(1);
                let devices = flat
                    .switches
                    .iter()
                    .map(|s| (0..s.devices).map(|_| mem()).collect())
                    .collect();
                let fabric = instantiate(
                    Engines::One(&mut engine),
                    &flat,
                    &spec.topo,
                    None,
                    SimTime::ZERO,
                    devices,
                );
                assert!(fabric.gateways.is_empty());
                assert_routes_follow_plan(&flat, &[&engine], &fabric);
            }
        }
    }

    mod properties {
        use proptest::prelude::*;

        use super::*;

        // The vendored proptest has no `prop_oneof`/`prop_map`; pick the
        // family from an integer selector inside the case body instead.
        fn kind_of(sel: usize, a: usize, b: usize) -> PodKind {
            match sel % 3 {
                0 => PodKind::SpineLeaf {
                    spines: a,
                    leaves_per_spine: b,
                },
                1 => PodKind::Mesh { cols: a, rows: b },
                _ => PodKind::Torus { cols: a, rows: b },
            }
        }

        proptest! {
            /// Every generated pod is connected, every escape route
            /// terminates loop-free, and candidate lists start with the
            /// escape hop and contain only direct neighbors.
            #[test]
            fn pods_are_connected_with_loop_free_escapes(
                sel in 0usize..3, a in 1usize..5, b in 1usize..5,
                h in 1usize..4, dv in 0usize..3,
            ) {
                let plan = PodPlan::new(kind_of(sel, a, b), h, dv);
                prop_assert!(plan.is_connected());
                let edges = plan.edge_switches();
                prop_assert!(!edges.is_empty());
                for s in 0..plan.switches.len() {
                    for &e in &edges {
                        let path = plan.escape_path(s, e);
                        prop_assert_eq!(*path.last().unwrap(), e, "escape reaches dst");
                        let mut sorted = path.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        prop_assert_eq!(sorted.len(), path.len(), "loop-free");
                        if s != e {
                            let cands = plan.route_candidates(s, e);
                            prop_assert_eq!(cands[0], path[1], "escape first");
                            let nbrs = plan.neighbors(s);
                            for c in cands {
                                prop_assert!(nbrs.contains(&c), "candidates are neighbors");
                            }
                        }
                    }
                }
            }

            /// Radix bounds: a realized switch never needs more ports
            /// than neighbors + endpoints, and the generators respect
            /// that bound symmetrically (every link appears once, a < b).
            #[test]
            fn radix_matches_link_table(
                sel in 0usize..3, a in 1usize..5, b in 1usize..5,
                h in 1usize..4, dv in 0usize..3,
            ) {
                let plan = PodPlan::new(kind_of(sel, a, b), h, dv);
                let mut degree = vec![0usize; plan.switches.len()];
                for l in &plan.links {
                    prop_assert!(l.a < l.b, "links are normalized");
                    degree[l.a] += 1;
                    degree[l.b] += 1;
                }
                for s in &plan.switches {
                    let endpoints = if s.is_edge { h + dv } else { 0 };
                    prop_assert_eq!(plan.radix(s.id), degree[s.id] + endpoints);
                }
            }

            /// Determinism + DomainSpec round-trip: regenerating the plan
            /// yields identical tables (ids sorted and dense), and the
            /// emitted DomainSpecs carry exactly the per-domain counts
            /// the realizer asserts on.
            #[test]
            fn plans_are_deterministic_and_specs_round_trip(
                sel in 0usize..3, a in 1usize..5, b in 1usize..5,
                h in 1usize..4, dv in 0usize..3,
            ) {
                let kind = kind_of(sel, a, b);
                let plan = PodPlan::new(kind, h, dv);
                prop_assert_eq!(&plan, &PodPlan::new(kind, h, dv));
                for (i, s) in plan.switches.iter().enumerate() {
                    prop_assert_eq!(s.id, i, "dense sorted ids");
                    prop_assert!(s.domain < plan.domains());
                }
                let specs = plan.domain_specs(|_, _| {
                    Box::new(FixedLatencyMemory::new(
                        SimTime::from_ns(1.0),
                        SimTime::from_ns(1.0),
                        4096,
                    ))
                });
                prop_assert_eq!(specs.len(), plan.domains());
                for (d, spec) in specs.iter().enumerate() {
                    let edges = plan.domain_edges(d).len();
                    prop_assert_eq!(spec.n_hosts, edges * h);
                    prop_assert_eq!(spec.devices.len(), edges * dv);
                }
            }
        }
    }
}
