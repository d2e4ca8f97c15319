//! The CC-NUMA memory node: a directory controller at the FEA.
//!
//! [`DirectoryNode`] terminates CXL.cache at a fabric-attached node: host
//! caches issue `RdShared`/`RdOwn`/evictions; the node runs the full-map
//! write-invalidate [`Directory`], snooping other hosts over the fabric
//! when a line is held remotely, and backs everything with a banked
//! [`DramDevice`].

use std::collections::{BTreeMap, VecDeque};

use fcc_proto::addr::NodeId;
use fcc_proto::channel::{CacheOpcode, Transaction, TransactionKind};
use fcc_proto::flit::FlitPayload;
use fcc_proto::link::CreditConfig;
use fcc_proto::phys::PhysConfig;
use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, PendingWork, SimTime};

use fcc_fabric::port::{FlitMsg, LinkPort, PortEvent, Reassembler};

use crate::directory::{DirOutcome, Directory, SnoopKind};
use crate::dram::{DramDevice, DramTiming};

/// Cacheline size the directory tracks.
const LINE: u64 = 64;

/// Self-message: a response is ready to enter the fabric.
#[derive(Debug)]
struct ResponseDue {
    txn: Transaction,
}

/// A fabric-attached CC-NUMA node component.
pub struct DirectoryNode {
    node: NodeId,
    port: LinkPort,
    dram: DramDevice,
    /// The coherence engine (public for probes).
    pub dir: Directory,
    /// Requests deferred because their line was busy.
    deferred: BTreeMap<u64, VecDeque<Transaction>>,
    /// Original request being resolved by snoops, per line.
    inflight: BTreeMap<u64, Transaction>,
    /// Snoop txn id → (line, snooped node).
    snoop_ids: BTreeMap<u64, (u64, NodeId)>,
    next_snoop: u64,
    reassembly: Reassembler,
    /// Requests served.
    pub serviced: Counter,
    /// Snoops issued over the fabric.
    pub snoops_issued: Counter,
}

impl DirectoryNode {
    /// Creates a CC-NUMA node of `capacity` bytes.
    pub fn new(
        node: NodeId,
        phys: PhysConfig,
        credit: CreditConfig,
        timing: DramTiming,
        capacity: u64,
    ) -> Self {
        DirectoryNode {
            node,
            port: LinkPort::new(phys, credit),
            dram: DramDevice::new(timing, capacity),
            dir: Directory::new(),
            deferred: BTreeMap::new(),
            inflight: BTreeMap::new(),
            snoop_ids: BTreeMap::new(),
            next_snoop: 0,
            reassembly: Reassembler::default(),
            serviced: Counter::new(),
            snoops_issued: Counter::new(),
        }
    }

    /// The node's fabric id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Connects to the fabric (switch or direct FHA).
    pub fn connect(&mut self, peer: ComponentId) {
        self.port.connect(peer);
    }

    /// The DRAM backing store (row-buffer stats).
    pub fn dram(&self) -> &DramDevice {
        &self.dram
    }

    fn respond_data(&mut self, ctx: &mut Ctx<'_>, req: &Transaction) {
        let ready_at = self.dram.access(req.addr, 64, ctx.now());
        let rsp = req.response(TransactionKind::Cache(CacheOpcode::Data), 64);
        ctx.send_self(ready_at - ctx.now(), ResponseDue { txn: rsp });
    }

    fn respond_go(&mut self, ctx: &mut Ctx<'_>, req: &Transaction) {
        let rsp = req.response(TransactionKind::Cache(CacheOpcode::Go), 0);
        ctx.send_self(SimTime::from_ns(5.0), ResponseDue { txn: rsp });
    }

    fn issue_snoops(
        &mut self,
        ctx: &mut Ctx<'_>,
        line: u64,
        req: Transaction,
        snoops: Vec<(NodeId, SnoopKind)>,
    ) {
        self.inflight.insert(line, req);
        for (target, kind) in snoops {
            let id = ((self.node.0 as u64) << 48) | self.next_snoop;
            self.next_snoop += 1;
            self.snoop_ids.insert(id, (line, target));
            self.snoops_issued.inc();
            let op = match kind {
                SnoopKind::Data => CacheOpcode::SnpData,
                SnoopKind::Invalidate => CacheOpcode::SnpInv,
            };
            let txn = Transaction {
                id,
                kind: TransactionKind::Cache(op),
                addr: line,
                bytes: 0,
                src: self.node,
                dst: target,
            };
            self.port.send_transfer(ctx, txn);
        }
    }

    fn handle_request(&mut self, ctx: &mut Ctx<'_>, txn: Transaction) {
        let line = txn.addr & !(LINE - 1);
        let TransactionKind::Cache(op) = txn.kind else {
            // A plain CXL.mem access to a CC-NUMA node: service uncached.
            self.serviced.inc();
            match txn.kind {
                TransactionKind::Mem(mop) if mop.carries_data() => {
                    let ready = self.dram.access(txn.addr, txn.bytes.max(64), ctx.now());
                    let rsp =
                        txn.response(TransactionKind::Mem(fcc_proto::channel::MemOpcode::Cmp), 0);
                    ctx.send_self(ready - ctx.now(), ResponseDue { txn: rsp });
                }
                _ => {
                    let ready = self.dram.access(txn.addr, txn.bytes.max(64), ctx.now());
                    let bytes = txn.bytes.max(64);
                    let rsp = txn.response(
                        TransactionKind::Mem(fcc_proto::channel::MemOpcode::MemData),
                        bytes,
                    );
                    ctx.send_self(ready - ctx.now(), ResponseDue { txn: rsp });
                }
            }
            return;
        };
        match op {
            CacheOpcode::RdShared | CacheOpcode::RdCurr => match self.dir.read(line, txn.src) {
                DirOutcome::Ready(_) => {
                    self.serviced.inc();
                    self.respond_data(ctx, &txn);
                }
                DirOutcome::Wait(snoops) => self.issue_snoops(ctx, line, txn, snoops),
                DirOutcome::Busy => self.deferred.entry(line).or_default().push_back(txn),
            },
            CacheOpcode::RdOwn => match self.dir.write(line, txn.src) {
                DirOutcome::Ready(_) => {
                    self.serviced.inc();
                    self.respond_data(ctx, &txn);
                }
                DirOutcome::Wait(snoops) => self.issue_snoops(ctx, line, txn, snoops),
                DirOutcome::Busy => self.deferred.entry(line).or_default().push_back(txn),
            },
            CacheOpcode::DirtyEvict => {
                self.dir.evict(line, txn.src);
                // Write the returned data to memory.
                let _done = self.dram.access(line, 64, ctx.now());
                self.serviced.inc();
                self.respond_go(ctx, &txn);
            }
            CacheOpcode::CleanEvict | CacheOpcode::CLFlush => {
                self.dir.evict(line, txn.src);
                self.serviced.inc();
                self.respond_go(ctx, &txn);
            }
            // Snoop responses from host caches.
            CacheOpcode::RspIHitI | CacheOpcode::RspSHitSe | CacheOpcode::RspIFwdM => {
                self.handle_snoop_response(ctx, txn);
            }
            // Its link credit was released on arrival (`on_payload`).
            _ => ctx.reject("cache op a directory does not serve"),
        }
    }

    fn handle_snoop_response(&mut self, ctx: &mut Ctx<'_>, txn: Transaction) {
        let Some((line, target)) = self.snoop_ids.remove(&txn.id) else {
            return ctx.reject("snoop response to a snoop this node never issued");
        };
        let dirty = matches!(txn.kind, TransactionKind::Cache(CacheOpcode::RspIFwdM));
        if let Some((_requester, _grant, had_dirty)) = self.dir.snoop_response(line, target, dirty)
        {
            if had_dirty {
                // Write the forwarded dirty line back to memory first.
                let _ = self.dram.access(line, 64, ctx.now());
            }
            // snoop_response resolving means a request was parked here.
            #[allow(clippy::expect_used)]
            let req = self.inflight.remove(&line).expect("request awaited snoops");
            self.serviced.inc();
            self.respond_data(ctx, &req);
            // Drain one deferred request for this line.
            if let Some(q) = self.deferred.get_mut(&line) {
                if let Some(next) = q.pop_front() {
                    self.handle_request(ctx, next);
                }
            }
        }
    }

    fn on_payload(&mut self, ctx: &mut Ctx<'_>, payload: FlitPayload) {
        let class = payload.msg_class();
        self.port.release(ctx, class);
        match payload {
            FlitPayload::Transaction(txn) => {
                if let Some(txn) = self.reassembly.header(self.port.phys().flit_mode, txn) {
                    self.handle_request(ctx, txn);
                }
            }
            FlitPayload::Data { txn_id, .. } => {
                if let Some(txn) = self.reassembly.slot(txn_id) {
                    self.handle_request(ctx, txn);
                }
            }
            _ => {}
        }
    }
}

impl Component for DirectoryNode {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<FlitMsg>() {
            Ok(fm) => {
                match self.port.receive(ctx, fm) {
                    PortEvent::Delivered(payload, _) => self.on_payload(ctx, payload),
                    PortEvent::CreditFreed
                    | PortEvent::VcCreditReturned { .. }
                    | PortEvent::Quiet => {}
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ResponseDue>() {
            Ok(due) => self.port.send_transfer(ctx, due.txn),
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        let mut lines: Vec<u64> = self.inflight.keys().copied().collect();
        lines.sort_unstable();
        for line in lines {
            out.push(PendingWork {
                what: format!("line {line:#x} awaiting snoop responses"),
                waiting_on: self.port.peer_opt(),
            });
        }
        let mut lines: Vec<u64> = self.deferred.keys().copied().collect();
        lines.sort_unstable();
        for line in lines {
            let n = self.deferred[&line].len();
            if n > 0 {
                out.push(PendingWork {
                    what: format!("{n} request(s) deferred on busy line {line:#x}"),
                    waiting_on: None,
                });
            }
        }
        self.reassembly.outstanding(self.port.peer_opt(), out);
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use fcc_proto::addr::{AddrMap, AddrRange};
    use fcc_sim::Engine;

    use fcc_fabric::adapter::{Fha, HostCompletion, HostOp, HostRequest, SnoopMsg, SnoopReply};
    use fcc_fabric::switch::{FabricSwitch, SwitchConfig};

    use super::*;

    /// A host-side coherent agent: tracks which lines it holds dirty,
    /// answers snoops, records completions.
    struct Agent {
        fha: ComponentId,
        dirty: HashSet<u64>,
        completions: Vec<HostCompletion>,
        snoops_seen: Vec<CacheOpcode>,
    }

    impl Component for Agent {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let msg = match msg.downcast::<SnoopMsg>() {
                Ok(snoop) => {
                    let txn = snoop.txn;
                    let TransactionKind::Cache(op) = txn.kind else {
                        panic!("non-cache snoop");
                    };
                    self.snoops_seen.push(op);
                    let line = txn.addr & !63;
                    let was_dirty = self.dirty.remove(&line);
                    let (kind, bytes) = if was_dirty {
                        (CacheOpcode::RspIFwdM, 64)
                    } else if op == CacheOpcode::SnpInv {
                        (CacheOpcode::RspIHitI, 0)
                    } else {
                        (CacheOpcode::RspSHitSe, 0)
                    };
                    let rsp = txn.response(TransactionKind::Cache(kind), bytes);
                    ctx.send(self.fha, SimTime::from_ns(10.0), SnoopReply { txn: rsp });
                    return;
                }
                Err(m) => m,
            };
            match msg.downcast::<HostCompletion>() {
                Ok(c) => self.completions.push(c),
                Err(m) => panic!("agent: unexpected {}", m.type_name()),
            }
        }
    }

    struct Setup {
        engine: Engine,
        agents: Vec<ComponentId>,
        fhas: Vec<ComponentId>,
        dir_node: ComponentId,
        host_nodes: Vec<NodeId>,
    }

    /// Two hosts and a CC-NUMA node on one switch.
    fn setup() -> Setup {
        let mut engine = Engine::new(11);
        let phys = PhysConfig::omega_like();
        let credit = CreditConfig::default();
        let dir_nid = NodeId(10);
        let mut map = AddrMap::new();
        map.add_direct(AddrRange::new(0, 1 << 24), dir_nid);
        let sw = engine.add_component("fs", FabricSwitch::new(SwitchConfig::fabrex_like()));
        let mut fhas = Vec::new();
        let mut agents = Vec::new();
        let mut host_nodes = Vec::new();
        for h in 0..2u16 {
            let nid = NodeId(1 + h);
            host_nodes.push(nid);
            let fha = engine.add_component(
                format!("fha{h}"),
                Fha::new(nid, phys, credit, map.clone(), 8),
            );
            let agent = engine.add_component(
                format!("agent{h}"),
                Agent {
                    fha,
                    dirty: HashSet::new(),
                    completions: vec![],
                    snoops_seen: vec![],
                },
            );
            engine.component_mut::<Fha>(fha).set_snoop_handler(agent);
            let port = {
                let s = engine.component_mut::<FabricSwitch>(sw);
                let p = s.add_port();
                s.connect(p, fha);
                s.routing.add_pbr(nid, p);
                p
            };
            let _ = port;
            engine.component_mut::<Fha>(fha).connect(sw);
            fhas.push(fha);
            agents.push(agent);
        }
        let dn = engine.add_component(
            "ccnuma",
            DirectoryNode::new(dir_nid, phys, credit, DramTiming::default(), 1 << 24),
        );
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            let p = s.add_port();
            s.connect(p, dn);
            s.routing.add_pbr(dir_nid, p);
        }
        engine.component_mut::<DirectoryNode>(dn).connect(sw);
        Setup {
            engine,
            agents,
            fhas,
            dir_node: dn,
            host_nodes,
        }
    }

    fn cache_req(
        op: CacheOpcode,
        addr: u64,
        bytes: u32,
        tag: u64,
        agent: ComponentId,
    ) -> HostRequest {
        HostRequest {
            op: HostOp::Cache { op, addr, bytes },
            tag,
            reply_to: agent,
        }
    }

    #[test]
    fn cold_read_serves_from_memory_without_snoops() {
        let mut s = setup();
        s.engine.post(
            s.fhas[0],
            SimTime::ZERO,
            cache_req(CacheOpcode::RdShared, 0x1000, 64, 1, s.agents[0]),
        );
        s.engine.run_until_idle();
        let a0 = s.engine.component::<Agent>(s.agents[0]);
        assert_eq!(a0.completions.len(), 1);
        let dn = s.engine.component::<DirectoryNode>(s.dir_node);
        assert_eq!(dn.snoops_issued.get(), 0);
        assert_eq!(
            dn.dir.state(0x1000),
            crate::directory::LineState::Shared([s.host_nodes[0]].into())
        );
    }

    #[test]
    fn write_after_remote_write_snoops_the_owner() {
        let mut s = setup();
        // Host 0 takes the line exclusive and dirties it.
        s.engine.post(
            s.fhas[0],
            SimTime::ZERO,
            cache_req(CacheOpcode::RdOwn, 0x2000, 64, 1, s.agents[0]),
        );
        s.engine.run_until_idle();
        s.engine
            .component_mut::<Agent>(s.agents[0])
            .dirty
            .insert(0x2000);
        // Host 1 now wants it exclusive: directory must SnpInv host 0.
        let t1 = s.engine.now();
        s.engine.post(
            s.fhas[1],
            t1,
            cache_req(CacheOpcode::RdOwn, 0x2000, 64, 2, s.agents[1]),
        );
        s.engine.run_until_idle();
        let a0 = s.engine.component::<Agent>(s.agents[0]);
        assert_eq!(a0.snoops_seen, vec![CacheOpcode::SnpInv]);
        let a1 = s.engine.component::<Agent>(s.agents[1]);
        assert_eq!(a1.completions.len(), 1);
        let dn = s.engine.component::<DirectoryNode>(s.dir_node);
        assert_eq!(
            dn.dir.state(0x2000),
            crate::directory::LineState::Modified(s.host_nodes[1])
        );
        assert_eq!(dn.snoops_issued.get(), 1);
        // The snooped path costs two extra fabric crossings: the second
        // host's latency must exceed the first's.
        let lat0 = a0.completions[0].latency();
        let lat1 = a1.completions[0].latency();
        assert!(lat1 > lat0 + SimTime::from_ns(150.0), "{lat0} vs {lat1}");
    }

    #[test]
    fn read_of_dirty_line_downgrades_owner() {
        let mut s = setup();
        s.engine.post(
            s.fhas[0],
            SimTime::ZERO,
            cache_req(CacheOpcode::RdOwn, 0x3000, 64, 1, s.agents[0]),
        );
        s.engine.run_until_idle();
        s.engine
            .component_mut::<Agent>(s.agents[0])
            .dirty
            .insert(0x3000);
        let t1 = s.engine.now();
        s.engine.post(
            s.fhas[1],
            t1,
            cache_req(CacheOpcode::RdShared, 0x3000, 64, 2, s.agents[1]),
        );
        s.engine.run_until_idle();
        let a0 = s.engine.component::<Agent>(s.agents[0]);
        assert_eq!(a0.snoops_seen, vec![CacheOpcode::SnpData]);
        let dn = s.engine.component::<DirectoryNode>(s.dir_node);
        let state = dn.dir.state(0x3000);
        assert_eq!(
            state,
            crate::directory::LineState::Shared([s.host_nodes[0], s.host_nodes[1]].into())
        );
    }

    #[test]
    fn dirty_evict_writes_back() {
        let mut s = setup();
        s.engine.post(
            s.fhas[0],
            SimTime::ZERO,
            cache_req(CacheOpcode::RdOwn, 0x4000, 64, 1, s.agents[0]),
        );
        s.engine.run_until_idle();
        let t = s.engine.now();
        s.engine.post(
            s.fhas[0],
            t,
            cache_req(CacheOpcode::DirtyEvict, 0x4000, 64, 2, s.agents[0]),
        );
        s.engine.run_until_idle();
        let a0 = s.engine.component::<Agent>(s.agents[0]);
        assert_eq!(a0.completions.len(), 2);
        let dn = s.engine.component::<DirectoryNode>(s.dir_node);
        assert_eq!(dn.dir.state(0x4000), crate::directory::LineState::Uncached);
    }
}
