//! A host-side coherent cache over a fabric-attached CC-NUMA node.
//!
//! [`CoherentL1`] keeps MESI-style line states for a region of
//! CC-NUMA-backed memory, issuing CXL.cache requests (`RdShared`, `RdOwn`,
//! evictions) through the host's FHA and answering the directory's snoops
//! (`SnpData`, `SnpInv`) — the host half of the protocol whose device half
//! is [`fcc_memnode::ccnuma::DirectoryNode`].

use std::collections::BTreeMap;

use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest, SnoopMsg, SnoopReply};
use fcc_proto::channel::TransactionKind;
use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, PendingWork, SimTime};

use crate::protocol::{self, HostLineState as LineState};

const LINE: u64 = 64;

/// An access submitted to the coherent cache.
#[derive(Debug, Clone, Copy)]
pub struct CoherentAccess {
    /// Target address (within the CC-NUMA region).
    pub addr: u64,
    /// Whether this is a store.
    pub write: bool,
    /// Caller tag echoed in [`CoherentDone`].
    pub tag: u64,
    /// Completion receiver.
    pub reply_to: ComponentId,
}

/// Completion of a [`CoherentAccess`].
#[derive(Debug, Clone, Copy)]
pub struct CoherentDone {
    /// The access's tag.
    pub tag: u64,
    /// Observed latency (local hit time or the full coherence round trip).
    pub latency: SimTime,
    /// Whether the access hit locally.
    pub hit: bool,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    addr: u64,
    write: bool,
    tag: u64,
    reply_to: ComponentId,
    issued_at: SimTime,
}

/// The coherent cache component.
pub struct CoherentL1 {
    fha: ComponentId,
    capacity_lines: usize,
    hit_latency: SimTime,
    lines: BTreeMap<u64, LineState>,
    /// LRU order (front = coldest).
    lru: Vec<u64>,
    outstanding: BTreeMap<u64, Pending>,
    next_tag: u64,
    /// Local hits.
    pub hits: Counter,
    /// Misses (fetches over the fabric).
    pub misses: Counter,
    /// Invalidation snoops honored.
    pub invalidations: Counter,
    /// Downgrade snoops honored.
    pub downgrades: Counter,
    /// Dirty writebacks (evictions of Modified lines).
    pub writebacks: Counter,
}

impl CoherentL1 {
    /// Creates a coherent cache of `capacity_lines` lines with the given
    /// local hit latency, issuing through `fha`.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_lines` is zero.
    pub fn new(fha: ComponentId, capacity_lines: usize, hit_latency: SimTime) -> Self {
        assert!(capacity_lines > 0, "empty cache");
        CoherentL1 {
            fha,
            capacity_lines,
            hit_latency,
            lines: BTreeMap::new(),
            lru: Vec::new(),
            outstanding: BTreeMap::new(),
            next_tag: 0,
            hits: Counter::new(),
            misses: Counter::new(),
            invalidations: Counter::new(),
            downgrades: Counter::new(),
            writebacks: Counter::new(),
        }
    }

    /// Whether `addr`'s line is held (any state).
    pub fn holds(&self, addr: u64) -> bool {
        self.lines.contains_key(&(addr & !(LINE - 1)))
    }

    fn touch(&mut self, line: u64) {
        self.lru.retain(|&l| l != line);
        self.lru.push(line);
    }

    fn evict_if_full(&mut self, ctx: &mut Ctx<'_>) {
        while self.lines.len() >= self.capacity_lines {
            let victim = self.lru.remove(0);
            // The LRU list mirrors `lines` exactly.
            #[allow(clippy::expect_used)]
            let state = self.lines.remove(&victim).expect("lru tracks lines");
            if state == LineState::Modified {
                self.writebacks.inc();
            }
            let (op, bytes) = protocol::evict_op(state);
            let tag = self.next_tag;
            self.next_tag += 1;
            // Evictions complete with Go; we drop the completion (tracked
            // only so the FHA can match it).
            self.outstanding.insert(
                tag,
                Pending {
                    addr: victim,
                    write: false,
                    tag: u64::MAX,
                    reply_to: ctx.self_id(),
                    issued_at: ctx.now(),
                },
            );
            ctx.send(
                self.fha,
                SimTime::ZERO,
                HostRequest {
                    op: HostOp::Cache {
                        op,
                        addr: victim,
                        bytes,
                    },
                    tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
    }

    fn on_access(&mut self, ctx: &mut Ctx<'_>, access: CoherentAccess) {
        let line = access.addr & !(LINE - 1);
        let state = self.lines.get(&line).copied();
        if protocol::access_hits(state, access.write) {
            self.hits.inc();
            if access.write {
                self.lines.insert(line, LineState::Modified);
            }
            self.touch(line);
            ctx.send(
                access.reply_to,
                self.hit_latency,
                CoherentDone {
                    tag: access.tag,
                    latency: self.hit_latency,
                    hit: true,
                },
            );
            return;
        }
        self.misses.inc();
        // Miss or upgrade: fetch over the fabric.
        self.evict_if_full(ctx);
        let op = protocol::miss_request(access.write);
        let tag = self.next_tag;
        self.next_tag += 1;
        self.outstanding.insert(
            tag,
            Pending {
                addr: access.addr,
                write: access.write,
                tag: access.tag,
                reply_to: access.reply_to,
                issued_at: ctx.now(),
            },
        );
        ctx.send(
            self.fha,
            SimTime::ZERO,
            HostRequest {
                op: HostOp::Cache {
                    op,
                    addr: access.addr,
                    bytes: 64,
                },
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn on_completion(&mut self, ctx: &mut Ctx<'_>, hc: HostCompletion) {
        // The FHA only ever echoes tags this cache issued.
        let Some(pending) = self.outstanding.remove(&hc.tag) else {
            return ctx.reject("completion for a request this cache never issued");
        };
        if pending.tag == u64::MAX {
            // Eviction acknowledged; nothing to deliver.
            return;
        }
        let line = pending.addr & !(LINE - 1);
        self.lines.insert(line, protocol::fill_state(pending.write));
        self.touch(line);
        let latency = ctx.now() - pending.issued_at;
        ctx.send(
            pending.reply_to,
            SimTime::ZERO,
            CoherentDone {
                tag: pending.tag,
                latency,
                hit: false,
            },
        );
    }

    fn on_snoop(&mut self, ctx: &mut Ctx<'_>, snoop: SnoopMsg) {
        let txn = snoop.txn;
        let TransactionKind::Cache(op) = txn.kind else {
            return;
        };
        let line = txn.addr & !(LINE - 1);
        let state = self.lines.get(&line).copied();
        let Some((next, rsp, bytes)) = protocol::snoop_transition(state, op) else {
            return;
        };
        match (state, next) {
            (Some(_), None) => {
                self.lines.remove(&line);
                self.lru.retain(|&l| l != line);
                self.invalidations.inc();
            }
            (Some(LineState::Modified), Some(LineState::Shared)) => {
                self.lines.insert(line, LineState::Shared);
                self.downgrades.inc();
            }
            _ => {}
        }
        let reply = txn.response(TransactionKind::Cache(rsp), bytes);
        ctx.send(self.fha, self.hit_latency, SnoopReply { txn: reply });
    }
}

impl Component for CoherentL1 {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<CoherentAccess>() {
            Ok(a) => {
                self.on_access(ctx, a);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<HostCompletion>() {
            Ok(hc) => {
                self.on_completion(ctx, hc);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<SnoopMsg>() {
            Ok(s) => self.on_snoop(ctx, s),
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        let mut tags: Vec<u64> = self.outstanding.keys().copied().collect();
        tags.sort_unstable();
        out.extend(tags.iter().map(|tag| {
            let p = &self.outstanding[tag];
            let kind = if p.tag == u64::MAX {
                "eviction"
            } else {
                "miss"
            };
            PendingWork {
                what: format!("{kind} for {:#x} awaiting completion", p.addr),
                waiting_on: Some(self.fha),
            }
        }));
    }
}

#[cfg(test)]
mod tests {
    use fcc_fabric::adapter::Fha;
    use fcc_fabric::switch::{FabricSwitch, SwitchConfig};
    use fcc_memnode::ccnuma::DirectoryNode;
    use fcc_memnode::directory::LineState as DirState;
    use fcc_memnode::dram::DramTiming;
    use fcc_proto::addr::{AddrMap, AddrRange, NodeId};
    use fcc_proto::link::CreditConfig;
    use fcc_proto::phys::PhysConfig;
    use fcc_sim::{Engine, Inbox};

    use super::*;

    type Sink = Inbox<CoherentDone>;

    struct Setup {
        engine: Engine,
        caches: Vec<ComponentId>,
        sink: ComponentId,
        dir: ComponentId,
    }

    /// Two hosts with coherent caches sharing one CC-NUMA node.
    fn setup() -> Setup {
        let mut engine = Engine::new(77);
        let phys = PhysConfig::omega_like();
        let credit = CreditConfig::default();
        let dir_nid = NodeId(10);
        let mut map = AddrMap::new();
        map.add_direct(AddrRange::new(0, 1 << 24), dir_nid);
        let sw = engine.add_component("fs", FabricSwitch::new(SwitchConfig::fabrex_like()));
        let mut caches = Vec::new();
        for h in 0..2u16 {
            let nid = NodeId(1 + h);
            let fha = engine.add_component(
                format!("fha{h}"),
                Fha::new(nid, phys, credit, map.clone(), 8),
            );
            let cache = engine.add_component(
                format!("l1-{h}"),
                CoherentL1::new(fha, 64, SimTime::from_ns(5.0)),
            );
            engine.component_mut::<Fha>(fha).set_snoop_handler(cache);
            {
                let s = engine.component_mut::<FabricSwitch>(sw);
                let p = s.add_port();
                s.connect(p, fha);
                s.routing.add_pbr(nid, p);
            }
            engine.component_mut::<Fha>(fha).connect(sw);
            caches.push(cache);
        }
        let dir = engine.add_component(
            "ccnuma",
            DirectoryNode::new(dir_nid, phys, credit, DramTiming::default(), 1 << 24),
        );
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            let p = s.add_port();
            s.connect(p, dir);
            s.routing.add_pbr(dir_nid, p);
        }
        engine.component_mut::<DirectoryNode>(dir).connect(sw);
        let sink = engine.add_component("sink", Sink::default());
        Setup {
            engine,
            caches,
            sink,
            dir,
        }
    }

    fn access(s: &mut Setup, cache: usize, addr: u64, write: bool, tag: u64) {
        let at = s.engine.now();
        let sink = s.sink;
        s.engine.post(
            s.caches[cache],
            at,
            CoherentAccess {
                addr,
                write,
                tag,
                reply_to: sink,
            },
        );
        s.engine.run_until_idle();
    }

    #[test]
    fn read_miss_then_hit() {
        let mut s = setup();
        access(&mut s, 0, 0x1000, false, 1);
        access(&mut s, 0, 0x1000, false, 2);
        let done = s.engine.component::<Sink>(s.sink).messages();
        assert!(!done[0].hit);
        assert!(done[1].hit);
        assert!(done[0].latency > done[1].latency * 10);
        let c = s.engine.component::<CoherentL1>(s.caches[0]);
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn write_sharing_ping_pong_invalidates() {
        let mut s = setup();
        // Host 0 writes, then host 1 writes the same line: host 0 must be
        // snooped and lose its copy.
        access(&mut s, 0, 0x2000, true, 1);
        access(&mut s, 1, 0x2000, true, 2);
        {
            let c0 = s.engine.component::<CoherentL1>(s.caches[0]);
            assert!(!c0.holds(0x2000), "invalidated by the directory");
            assert_eq!(c0.invalidations.get(), 1);
        }
        let dn = s.engine.component::<DirectoryNode>(s.dir);
        assert_eq!(dn.dir.state(0x2000), DirState::Modified(NodeId(2)));
        // Host 0 writes again: the line ping-pongs back.
        access(&mut s, 0, 0x2000, true, 3);
        let c1 = s.engine.component::<CoherentL1>(s.caches[1]);
        assert!(!c1.holds(0x2000));
        let dn = s.engine.component::<DirectoryNode>(s.dir);
        assert_eq!(dn.dir.state(0x2000), DirState::Modified(NodeId(1)));
    }

    #[test]
    fn read_sharing_downgrades_the_writer() {
        let mut s = setup();
        access(&mut s, 0, 0x3000, true, 1);
        access(&mut s, 1, 0x3000, false, 2);
        let c0 = s.engine.component::<CoherentL1>(s.caches[0]);
        assert!(c0.holds(0x3000), "downgraded, not invalidated");
        assert_eq!(c0.downgrades.get(), 1);
        // Both can now read-hit locally.
        access(&mut s, 0, 0x3000, false, 3);
        access(&mut s, 1, 0x3000, false, 4);
        let done = s.engine.component::<Sink>(s.sink).messages();
        assert!(done[2].hit && done[3].hit);
    }

    #[test]
    fn capacity_eviction_writes_back_dirty_lines() {
        let mut s = setup();
        // Fill a 64-line cache with dirty lines, then overflow it.
        for i in 0..65u64 {
            access(&mut s, 0, 0x8000 + i * 64, true, i);
        }
        let c0 = s.engine.component::<CoherentL1>(s.caches[0]);
        assert!(c0.writebacks.get() >= 1);
        assert!(!c0.holds(0x8000), "LRU victim evicted");
        // The directory no longer tracks the evicted line as cached.
        let dn = s.engine.component::<DirectoryNode>(s.dir);
        assert_eq!(dn.dir.state(0x8000), DirState::Uncached);
    }
}
