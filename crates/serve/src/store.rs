//! The far-memory KV store.
//!
//! [`KvStore`] owns a keyspace whose values live in a [`UnifiedHeap`]
//! striped across one or more fabric-attached memory nodes (one heap
//! node per configured data range, keys pinned round-robin), so a
//! serving burst spreads over every device controller in the domain
//! instead of convoying on one. Every request moves the value's bytes
//! over the simulated interconnect through a pluggable [`Backend`]:
//!
//! * [`Backend::Fabric`] — the FCC path. A GET is an *immediate* eTrans
//!   (the paper's latency-sensitive bit: no throttle, no queueing) that
//!   copies the value from its heap bin to a staging slot; a PUT is a
//!   normal eTrans tagged with the client's tenant, so the transaction
//!   engine's per-tenant budgets — sourced from the same `fcc-sched`
//!   partition the switches enforce — pace write-heavy tenants.
//! * [`Backend::Rdma`] — the commfabric baseline. The same requests
//!   become one-sided RDMA verbs through an
//!   [`RdmaNic`](fcc_fabric::commfabric::RdmaNic)'s
//!   submission-completion pipeline (a GET is an RDMA read, a PUT an
//!   RDMA write).
//!
//! Bookkeeping (hit counters, version bumps) runs as active messages on
//! a [`FaaEngine`](fcc_core::FaaEngine): a PUT's version bump *joins*
//! its data move — the reply and the version install wait for both — so
//! a version observed by a later GET implies the bytes landed.
//!
//! Requests on the same key follow a reader-shared, writer-exclusive
//! discipline: any number of GETs to one key proceed concurrently (a
//! Zipf-hot key must not serialize the read path), while a PUT waits
//! for the key's in-flight readers and runs alone; arrivals that cannot
//! start queue FIFO behind the key, so a queued PUT also blocks later
//! GETs from overtaking it. That order gives two serving-tier
//! guarantees under concurrent tenants:
//!
//! * **read-your-writes** — a GET sent after a PUT's reply observes at
//!   least that PUT's version;
//! * **no lost updates** — N concurrent PUTs to one key bump the
//!   version exactly N times (each bump is a distinct FAA invocation
//!   joined to its own data move).

use std::collections::{BTreeMap, VecDeque};

use fcc_core::{
    ETrans, ETransDone, FabricBox, FnDone, FnInvoke, HeapError, HeapNodeCfg, PlacementHint,
    SubmitETrans, TransAttrs, TransOwnership, UnifiedHeap,
};
use fcc_fabric::commfabric::{RdmaCompletion, RdmaOp};
use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, PendingWork, SimTime};

/// Staging slots rotate through this many entries; slots carry no
/// simulated payload, so rotation only spreads the staging addresses the
/// fabric sees across a bounded region.
const STAGING_SLOTS: u64 = 64;
/// Bytes reserved per staging slot (values are at most 4 KiB in the
/// shipped experiments; 8 KiB leaves headroom).
const STAGING_SLOT_BYTES: u64 = 8192;
/// FAA tag for detached invocations whose completion carries no waiter.
const DETACHED_TAG: u64 = u64::MAX;

/// Which interconnect carries the value bytes.
#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// FCC: eTrans through a [`fcc_core::TransactionEngine`].
    Fabric {
        /// The transaction engine.
        etrans: ComponentId,
    },
    /// Commfabric baseline: one-sided verbs through an
    /// [`fcc_fabric::commfabric::RdmaNic`].
    Rdma {
        /// The NIC.
        nic: ComponentId,
    },
}

/// A serving operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KvOp {
    /// Read the value.
    Get,
    /// Write a value of the given size.
    Put {
        /// New value size in bytes.
        bytes: u32,
    },
}

/// A client request to the store.
#[derive(Debug, Clone, Copy)]
pub struct KvRequest {
    /// The operation.
    pub op: KvOp,
    /// The key.
    pub key: u64,
    /// The issuing tenant (threads into eTrans pacing attributes).
    pub tenant: u32,
    /// Caller tag echoed in the reply.
    pub tag: u64,
    /// Client-side issue time (echoed so the client measures end to end).
    pub sent_at: SimTime,
    /// Reply receiver.
    pub reply_to: ComponentId,
}

/// The store's reply.
#[derive(Debug, Clone, Copy)]
pub struct KvReply {
    /// The request's tag.
    pub tag: u64,
    /// The key.
    pub key: u64,
    /// Whether the operation succeeded (a GET miss or a failed
    /// allocation/bump replies `false`).
    pub ok: bool,
    /// The key's version after the operation (0 = absent).
    pub version: u64,
    /// Value size moved.
    pub bytes: u32,
    /// Echo of the request's issue time.
    pub sent_at: SimTime,
}

/// Configuration for a [`KvStore`].
#[derive(Debug, Clone)]
pub struct KvStoreCfg {
    /// Data-path backend.
    pub backend: Backend,
    /// FAA engine hosting the bookkeeping functions.
    pub faa: ComponentId,
    /// FAA function id for GET hit counting (detached).
    pub hit_fn: u32,
    /// FAA function id for PUT version bumps (joined).
    pub version_fn: u32,
    /// Fabric addresses the heap's nodes map to (device range bases).
    /// One heap node per entry; keys pin round-robin across them.
    pub data_bases: Vec<u64>,
    /// Fabric addresses of the staging regions (must not overlap any
    /// data range); staging slots stripe across them.
    pub staging_bases: Vec<u64>,
    /// Capacity of each heap node in bytes.
    pub capacity: u64,
    /// One-way client↔store RPC latency applied to replies.
    pub rpc_latency: SimTime,
    /// Host node id used for heap temperature profiling.
    pub host: u16,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    obj: FabricBox,
    version: u64,
    bytes: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DataPhase {
    /// Fabric eTrans or single RDMA verb in flight.
    Moving,
    /// Data landed; only the joined FAA bump is outstanding.
    Landed,
}

/// Per-key in-flight state: shared readers or one exclusive writer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LockState {
    /// This many GETs in flight.
    Readers(u32),
    /// One PUT in flight.
    Writer,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    req: KvRequest,
    phase: DataPhase,
    /// A joined FAA invocation is still outstanding.
    faa_outstanding: bool,
    /// The joined FAA invocation executed (false on queue overflow).
    faa_ok: bool,
    /// Version to report (GET: current; PUT: version-after-bump).
    version: u64,
    /// Value bytes on the wire.
    bytes: u32,
}

/// The far-memory KV store component. See the module docs for the data
/// path; public counters feed the experiment scalars.
pub struct KvStore {
    cfg: KvStoreCfg,
    heap: UnifiedHeap,
    index: BTreeMap<u64, Entry>,
    locks: BTreeMap<u64, LockState>,
    waiting: BTreeMap<u64, VecDeque<KvRequest>>,
    pending: BTreeMap<u64, Pending>,
    next_tag: u64,
    /// GET requests served.
    pub gets: Counter,
    /// PUT requests served.
    pub puts: Counter,
    /// GETs that found the key.
    pub hits: Counter,
    /// GETs on absent keys.
    pub misses: Counter,
    /// PUT version bumps dropped by the FAA (queue overflow): the
    /// update's bytes moved but its version did not — a lost update.
    pub lost_updates: Counter,
    /// PUTs failed for lack of heap space.
    pub alloc_failures: Counter,
    /// Store-side service latency (request arrival to reply send, ps).
    pub service: Histogram,
}

impl KvStore {
    /// Creates a store striped over `cfg.data_bases.len()`
    /// fabric-attached memory nodes.
    pub fn new(cfg: KvStoreCfg) -> Self {
        let heap = UnifiedHeap::new(
            cfg.data_bases
                .iter()
                .map(|_| HeapNodeCfg {
                    profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, cfg.capacity),
                })
                .collect(),
        );
        KvStore {
            cfg,
            heap,
            index: BTreeMap::new(),
            locks: BTreeMap::new(),
            waiting: BTreeMap::new(),
            pending: BTreeMap::new(),
            next_tag: 0,
            gets: Counter::new(),
            puts: Counter::new(),
            hits: Counter::new(),
            misses: Counter::new(),
            lost_updates: Counter::new(),
            alloc_failures: Counter::new(),
            service: Histogram::new(),
        }
    }

    /// Pre-populates `key` with a `bytes`-sized value at version 1,
    /// without simulating traffic (experiment setup).
    ///
    /// # Errors
    ///
    /// Propagates [`HeapError::OutOfMemory`] when the node is full.
    pub fn preload(&mut self, key: u64, bytes: u32) -> Result<(), HeapError> {
        let obj = self
            .heap
            .alloc(u64::from(bytes), PlacementHint::Pinned(self.node_for(key)))?;
        self.index.insert(
            key,
            Entry {
                obj,
                version: 1,
                bytes,
            },
        );
        Ok(())
    }

    /// The key's current version (0 = absent).
    pub fn version_of(&self, key: u64) -> u64 {
        self.index.get(&key).map_or(0, |e| e.version)
    }

    /// Index entries whose heap handle no longer resolves or whose
    /// version regressed to 0 — must be zero on a healthy store.
    pub fn integrity_violations(&self) -> u64 {
        self.index
            .values()
            .filter(|e| e.version == 0 || self.heap.locate(e.obj).is_err())
            .count() as u64
    }

    /// Whether a request may start right now under the key's lock.
    /// Queue order is enforced by the caller (a non-empty wait queue
    /// means later arrivals must queue behind it).
    fn admits(&self, req: &KvRequest) -> bool {
        match req.op {
            KvOp::Get => !matches!(self.locks.get(&req.key), Some(LockState::Writer)),
            KvOp::Put { .. } => !self.locks.contains_key(&req.key),
        }
    }

    /// Takes the key's lock for a started (async) request.
    fn acquire(&mut self, key: u64, op: KvOp) {
        match op {
            KvOp::Get => {
                let n = match self.locks.get(&key) {
                    Some(LockState::Readers(n)) => n + 1,
                    _ => 1,
                };
                self.locks.insert(key, LockState::Readers(n));
            }
            KvOp::Put { .. } => {
                self.locks.insert(key, LockState::Writer);
            }
        }
    }

    /// Releases one holder of the key's lock.
    fn release(&mut self, key: u64) {
        match self.locks.get_mut(&key) {
            Some(LockState::Readers(n)) if *n > 1 => *n -= 1,
            Some(_) => {
                self.locks.remove(&key);
            }
            None => {}
        }
    }

    /// Heap node (and so device) a key's value pins to.
    fn node_for(&self, key: u64) -> usize {
        (key % self.cfg.data_bases.len() as u64) as usize
    }

    fn staging_addr(&self, tag: u64) -> u64 {
        let stripe = (tag % self.cfg.staging_bases.len() as u64) as usize;
        self.cfg.staging_bases[stripe] + (tag % STAGING_SLOTS) * STAGING_SLOT_BYTES
    }

    fn value_addr(&self, entry: &Entry) -> Option<u64> {
        self.heap
            .locate(entry.obj)
            .ok()
            .map(|(node, addr)| self.cfg.data_bases[node] + addr)
    }

    fn reply(&mut self, ctx: &mut Ctx<'_>, req: &KvRequest, ok: bool, version: u64, bytes: u32) {
        self.service.record_time(ctx.now() - req.sent_at);
        ctx.send(
            req.reply_to,
            self.cfg.rpc_latency,
            KvReply {
                tag: req.tag,
                key: req.key,
                ok,
                version,
                bytes,
                sent_at: req.sent_at,
            },
        );
    }

    fn submit_data_move(
        &self,
        ctx: &mut Ctx<'_>,
        req: &KvRequest,
        tag: u64,
        src: u64,
        dst: u64,
        bytes: u32,
    ) {
        match self.cfg.backend {
            Backend::Fabric { etrans } => {
                let get = matches!(req.op, KvOp::Get);
                ctx.send(
                    etrans,
                    SimTime::ZERO,
                    SubmitETrans {
                        etrans: ETrans {
                            src: vec![(src, bytes)],
                            dst: vec![(dst, bytes)],
                            // GETs ride the paper's immediate bit (the
                            // latency-sensitive path); PUTs are paced by
                            // the tenant's budget.
                            immediate: get,
                            attrs: TransAttrs {
                                tenant: req.tenant,
                                priority: u8::from(get),
                            },
                            ownership: TransOwnership::Caller,
                        },
                        tag,
                        reply_to: ctx.self_id(),
                    },
                );
            }
            Backend::Rdma { nic } => {
                ctx.send(
                    nic,
                    SimTime::ZERO,
                    RdmaOp {
                        write: matches!(req.op, KvOp::Put { .. }),
                        bytes,
                        tag,
                        reply_to: ctx.self_id(),
                    },
                );
            }
        }
    }

    fn invoke_faa(&self, ctx: &mut Ctx<'_>, function: u32, tag: u64) {
        ctx.send(
            self.cfg.faa,
            SimTime::ZERO,
            FnInvoke {
                function,
                kind: 0,
                bytes: 8,
                tag,
                reply_to: ctx.self_id(),
            },
        );
    }

    /// Starts a request on a key with nothing in flight. Returns `true`
    /// if the key became busy (an async path was taken).
    fn start(&mut self, ctx: &mut Ctx<'_>, req: KvRequest) -> bool {
        match req.op {
            KvOp::Get => {
                self.gets.inc();
                let Some(entry) = self.index.get(&req.key).copied() else {
                    self.misses.inc();
                    self.reply(ctx, &req, false, 0, 0);
                    return false;
                };
                self.hits.inc();
                // Temperature profiling: the heap learns the access.
                let _ = self.heap.access(entry.obj, self.cfg.host, false);
                let Some(src) = self.value_addr(&entry) else {
                    self.reply(ctx, &req, false, 0, 0);
                    return false;
                };
                let tag = self.next_tag;
                self.next_tag += 1;
                let dst = self.staging_addr(tag);
                self.acquire(req.key, req.op);
                self.pending.insert(
                    tag,
                    Pending {
                        req,
                        phase: DataPhase::Moving,
                        faa_outstanding: false,
                        faa_ok: true,
                        version: entry.version,
                        bytes: entry.bytes,
                    },
                );
                self.submit_data_move(ctx, &req, tag, src, dst, entry.bytes);
                // Hit accounting is detached: nobody joins on it.
                self.invoke_faa(ctx, self.cfg.hit_fn, DETACHED_TAG);
                true
            }
            KvOp::Put { bytes } => {
                self.puts.inc();
                let entry = match self.index.get(&req.key).copied() {
                    Some(e) if e.bytes == bytes => e,
                    Some(e) => {
                        // Size changed: reallocate the bin on the key's
                        // pinned stripe.
                        let _ = self.heap.free(e.obj);
                        let hint = PlacementHint::Pinned(self.node_for(req.key));
                        match self.heap.alloc(u64::from(bytes), hint) {
                            Ok(obj) => {
                                let e2 = Entry {
                                    obj,
                                    version: e.version,
                                    bytes,
                                };
                                self.index.insert(req.key, e2);
                                e2
                            }
                            Err(_) => {
                                self.alloc_failures.inc();
                                self.index.remove(&req.key);
                                self.reply(ctx, &req, false, 0, 0);
                                return false;
                            }
                        }
                    }
                    None => match self.heap.alloc(
                        u64::from(bytes),
                        PlacementHint::Pinned(self.node_for(req.key)),
                    ) {
                        Ok(obj) => {
                            let e = Entry {
                                obj,
                                version: 0,
                                bytes,
                            };
                            self.index.insert(req.key, e);
                            e
                        }
                        Err(_) => {
                            self.alloc_failures.inc();
                            self.reply(ctx, &req, false, 0, 0);
                            return false;
                        }
                    },
                };
                let _ = self.heap.access(entry.obj, self.cfg.host, true);
                let Some(dst) = self.value_addr(&entry) else {
                    self.reply(ctx, &req, false, 0, 0);
                    return false;
                };
                let tag = self.next_tag;
                self.next_tag += 1;
                let src = self.staging_addr(tag);
                self.acquire(req.key, req.op);
                self.pending.insert(
                    tag,
                    Pending {
                        req,
                        phase: DataPhase::Moving,
                        faa_outstanding: true,
                        faa_ok: false,
                        version: entry.version + 1,
                        bytes,
                    },
                );
                self.submit_data_move(ctx, &req, tag, src, dst, bytes);
                // The version bump joins the data move: the reply (and
                // the version install) wait for both.
                self.invoke_faa(ctx, self.cfg.version_fn, tag);
                true
            }
        }
    }

    /// Completes the pending op under `tag` if both its data move and
    /// any joined FAA invocation have resolved.
    fn try_finish(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(p) = self.pending.get(&tag).copied() else {
            return;
        };
        if p.phase != DataPhase::Landed || p.faa_outstanding {
            return;
        }
        self.pending.remove(&tag);
        let (ok, version) = match p.req.op {
            KvOp::Get => (true, p.version),
            KvOp::Put { .. } => {
                if p.faa_ok {
                    if let Some(e) = self.index.get_mut(&p.req.key) {
                        e.version = p.version;
                    }
                    (true, p.version)
                } else {
                    // Data landed but the bump was dropped: lost update.
                    self.lost_updates.inc();
                    (false, p.version.saturating_sub(1))
                }
            }
        };
        self.reply(ctx, &p.req, ok, version, p.bytes);
        self.release(p.req.key);
        self.drain(ctx, p.req.key);
    }

    /// Admits the key's wait queue in FIFO order for as long as the lock
    /// allows: a run of GETs starts together (shared), a PUT starts only
    /// once the key is idle and then stops the drain (exclusive).
    /// Synchronous completions (misses, failed allocations) take no
    /// lock, so draining continues past them.
    fn drain(&mut self, ctx: &mut Ctx<'_>, key: u64) {
        loop {
            let Some(front) = self.waiting.get(&key).and_then(|q| q.front()).copied() else {
                self.waiting.remove(&key);
                return;
            };
            if !self.admits(&front) {
                return;
            }
            if let Some(queue) = self.waiting.get_mut(&key) {
                queue.pop_front();
                if queue.is_empty() {
                    self.waiting.remove(&key);
                }
            }
            self.start(ctx, front);
        }
    }
}

impl Component for KvStore {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<KvRequest>() {
            Ok(req) => {
                // FIFO per key: anything already queued goes first, even
                // when the lock would admit this request (a waiting PUT
                // must not be overtaken by later GETs forever).
                let queued = self.waiting.contains_key(&req.key);
                if queued || !self.admits(&req) {
                    self.waiting.entry(req.key).or_default().push_back(req);
                } else {
                    self.start(ctx, req);
                }
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<ETransDone>() {
            Ok(done) => {
                if let Some(p) = self.pending.get_mut(&done.tag) {
                    p.phase = DataPhase::Landed;
                }
                self.try_finish(ctx, done.tag);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<RdmaCompletion>() {
            Ok(done) => {
                if let Some(p) = self.pending.get_mut(&done.tag) {
                    p.phase = DataPhase::Landed;
                }
                self.try_finish(ctx, done.tag);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<FnDone>() {
            Ok(done) => {
                if done.tag == DETACHED_TAG {
                    return; // Detached hit accounting: nothing joins.
                }
                if let Some(p) = self.pending.get_mut(&done.tag) {
                    p.faa_outstanding = false;
                    p.faa_ok = done.ok;
                }
                self.try_finish(ctx, done.tag);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        let backend = match self.cfg.backend {
            Backend::Fabric { etrans } => etrans,
            Backend::Rdma { nic } => nic,
        };
        for (tag, p) in &self.pending {
            let what = match p.req.op {
                KvOp::Get => format!("kv get key {} (tag {tag})", p.req.key),
                KvOp::Put { bytes } => {
                    format!("kv put key {} {}B (tag {tag})", p.req.key, bytes)
                }
            };
            let waiting_on = if p.phase == DataPhase::Moving {
                Some(backend)
            } else {
                Some(self.cfg.faa)
            };
            out.push(PendingWork { what, waiting_on });
        }
    }
}
