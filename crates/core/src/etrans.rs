//! The elastic transaction engine (design principle #1).
//!
//! "FCC advocates data movement as a specialized and managed service. [...]
//! data transfers submitted by CPUs/FAAs are then delegated to dedicated
//! migration agents (in the same memory domain) and orchestrated via a
//! central module that enforces control-plane policies (e.g., remote
//! memory bandwidth throttling)" (§4 DP#1). The primitive is the paper's
//! `eTrans(src_addr_list, dst_addr_list, immediate_bit, attributes,
//! ownership)` (§5).
//!
//! * [`TransactionEngine`] is the central module: it admits submissions,
//!   applies per-tenant token-bucket throttling, and dispatches jobs to
//!   the least-loaded [`MigrationAgent`].
//! * A [`MigrationAgent`] executes a job as pipelined chunked read/write
//!   pairs through its own FHA, so the *initiator's* core never stalls —
//!   the decoupling the paper asks for.
//! * [`TransOwnership`] selects how completion is delivered: back to the
//!   caller, dropped (detached), or resolved as a distributed future.

use std::collections::{BTreeMap, HashMap, VecDeque};

use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, SimTime, TokenBucket};
use fcc_telemetry::{TraceCtx, Track};

/// Trace ids for eTrans jobs live in a reserved node-id namespace
/// (`0xFFFF`) so they never collide with FHA-allocated transaction ids.
fn job_trace_ctx(job_id: u64) -> TraceCtx {
    TraceCtx::new((0xFFFF_u64 << 48) | job_id)
}

/// Completion routing for an [`ETrans`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransOwnership {
    /// Notify the submitter with [`ETransDone`].
    Caller,
    /// Fire-and-forget.
    Detached,
    /// Resolve a distributed future: [`crate::arbiter_client::FutureResolved`]
    /// with this id is sent to the submitter.
    Future(u64),
}

/// Scheduling attributes of a transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransAttrs {
    /// Tenant for control-plane throttling.
    pub tenant: u32,
    /// Larger = drained first among queued jobs.
    pub priority: u8,
}

/// The elastic transaction: scattered source ranges to scattered
/// destination ranges.
#[derive(Debug, Clone)]
pub struct ETrans {
    /// Source `(addr, len)` list.
    pub src: Vec<(u64, u32)>,
    /// Destination `(addr, len)` list (total length must match).
    pub dst: Vec<(u64, u32)>,
    /// The paper's immediate bit: skip queueing and throttling (the
    /// latency-sensitive synchronous path).
    pub immediate: bool,
    /// Scheduling attributes.
    pub attrs: TransAttrs,
    /// Completion routing.
    pub ownership: TransOwnership,
}

impl ETrans {
    /// Total payload bytes.
    pub fn bytes(&self) -> u64 {
        self.src.iter().map(|&(_, l)| l as u64).sum()
    }

    /// Checks source/destination length agreement.
    pub fn validate(&self) -> bool {
        let dst: u64 = self.dst.iter().map(|&(_, l)| l as u64).sum();
        self.bytes() == dst && !self.src.is_empty()
    }
}

/// Submission message to the [`TransactionEngine`].
#[derive(Debug, Clone)]
pub struct SubmitETrans {
    /// The transfer.
    pub etrans: ETrans,
    /// Caller tag echoed in completions.
    pub tag: u64,
    /// Submitter (receives completions per ownership).
    pub reply_to: ComponentId,
}

/// Completion notification (ownership = `Caller`).
#[derive(Debug, Clone, Copy)]
pub struct ETransDone {
    /// The submission's tag.
    pub tag: u64,
    /// Submission time.
    pub issued_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// Bytes moved.
    pub bytes: u64,
}

/// Per-tenant throttle configuration installed on the engine.
#[derive(Debug, Clone, Copy)]
pub struct TenantLimit {
    /// Tenant id.
    pub tenant: u32,
    /// Sustained rate in Gbit/s.
    pub gbps: f64,
    /// Burst in bytes.
    pub burst: u64,
}

/// Internal: a job handed to an agent.
#[derive(Debug, Clone)]
struct Job {
    etrans: ETrans,
    tag: u64,
    reply_to: ComponentId,
    issued_at: SimTime,
    job_id: u64,
}

/// Internal: agent → engine completion.
#[derive(Debug, Clone, Copy)]
struct JobDone {
    job_id: u64,
}

/// Internal: engine → agent dispatch.
#[derive(Debug, Clone)]
struct Dispatch {
    job: Job,
    engine: ComponentId,
}

/// The central data-movement module.
pub struct TransactionEngine {
    agents: Vec<ComponentId>,
    agent_load: Vec<u64>,
    tenants: BTreeMap<u32, TokenBucket>,
    inflight: HashMap<u64, (Job, usize)>,
    delayed: VecDeque<Job>,
    /// Earliest outstanding [`Retry`] wake-up, if one is scheduled. Kept
    /// so a queue of throttled jobs arms one timer per pacing step
    /// instead of one per job (which would multiply per retry round).
    retry_at: Option<SimTime>,
    next_job: u64,
    trace: Track,
    /// Completed transfers.
    pub completed: Counter,
    /// Bytes moved.
    pub bytes_moved: Counter,
    /// Transfer latency distribution (ps).
    pub latency: Histogram,
    /// Submissions rejected (validation).
    pub rejected: Counter,
}

/// Self-message to retry throttled submissions.
#[derive(Debug, Clone, Copy)]
struct Retry;

impl TransactionEngine {
    /// Creates an engine over the given migration agents.
    ///
    /// # Panics
    ///
    /// Panics if `agents` is empty.
    pub fn new(agents: Vec<ComponentId>) -> Self {
        assert!(!agents.is_empty(), "engine needs at least one agent");
        let n = agents.len();
        TransactionEngine {
            agents,
            agent_load: vec![0; n],
            tenants: BTreeMap::new(),
            inflight: HashMap::new(),
            delayed: VecDeque::new(),
            retry_at: None,
            next_job: 0,
            trace: Track::default(),
            completed: Counter::new(),
            bytes_moved: Counter::new(),
            latency: Histogram::new(),
            rejected: Counter::new(),
        }
    }

    /// Attaches a telemetry track; the engine then emits throttle-wait and
    /// whole-job spans for every transfer it orchestrates.
    pub fn set_trace(&mut self, track: Track) {
        self.trace = track;
    }

    /// Installs (or replaces) a tenant bandwidth limit.
    pub fn set_tenant_limit(&mut self, limit: TenantLimit) {
        self.tenants.insert(
            limit.tenant,
            TokenBucket::new(limit.gbps, limit.burst.max(1)),
        );
    }

    /// Sources all tenant limits from a fabric-scheduler budget
    /// derivation, replacing any ad-hoc per-tenant throttles. This keeps
    /// the engine's host-side pacing consistent with the admission
    /// policy the fabric switches enforce: one [`fcc_sched`] partition
    /// is the single policy surface for both.
    pub fn source_budgets(&mut self, rates: &[fcc_sched::TenantRate]) {
        for r in rates {
            self.set_tenant_limit(TenantLimit {
                tenant: r.tenant,
                gbps: r.gbps,
                burst: r.burst_bytes,
            });
        }
    }

    fn dispatch(&mut self, ctx: &mut Ctx<'_>, job: Job) {
        // Least-loaded agent (by queued bytes); at least one agent is
        // registered before any job is dispatched.
        #[allow(clippy::expect_used)]
        let (idx, _) = self
            .agent_load
            .iter()
            .enumerate()
            .min_by_key(|&(_, &l)| l)
            .expect("agents non-empty");
        self.agent_load[idx] += job.etrans.bytes();
        let agent = self.agents[idx];
        // Time between submission and dispatch is tenant throttling (or
        // Retry batching); zero for the immediate path.
        self.trace.span_nonzero(
            "arb",
            "etrans.throttle_wait",
            job.issued_at,
            ctx.now(),
            job_trace_ctx(job.job_id),
        );
        self.inflight.insert(job.job_id, (job.clone(), idx));
        ctx.send(
            agent,
            SimTime::ZERO,
            Dispatch {
                job,
                engine: ctx.self_id(),
            },
        );
    }

    fn admit(&mut self, ctx: &mut Ctx<'_>, job: Job) {
        if job.etrans.immediate {
            // The paper's immediate bit: no throttle, no queueing.
            self.dispatch(ctx, job);
            return;
        }
        let bytes = job.etrans.bytes();
        if let Some(bucket) = self.tenants.get_mut(&job.etrans.attrs.tenant) {
            // Debt-based pacing: a job dispatches once earlier debits have
            // drained (balance ≥ 0), then charges its full size, possibly
            // driving the balance negative. This paces a *stream* of jobs
            // at the tenant's rate regardless of individual job sizes
            // (waiting for `bytes` whole tokens would spin forever when a
            // job exceeds the burst capacity).
            let now = ctx.now();
            let at = bucket.earliest(now, 0);
            if at > now {
                self.delayed.push_back(job);
                if self.retry_at.is_none_or(|t| at < t) {
                    self.retry_at = Some(at);
                    ctx.send_self(at - now, Retry);
                }
                return;
            }
            bucket.force_consume(now, bytes);
        }
        self.dispatch(ctx, job);
    }
}

impl Component for TransactionEngine {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<SubmitETrans>() {
            Ok(submit) => {
                if !submit.etrans.validate() {
                    self.rejected.inc();
                    return;
                }
                let job = Job {
                    etrans: submit.etrans,
                    tag: submit.tag,
                    reply_to: submit.reply_to,
                    issued_at: ctx.now(),
                    job_id: self.next_job,
                };
                self.next_job += 1;
                self.admit(ctx, job);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Retry>() {
            Ok(Retry) => {
                // Re-admit queued jobs in priority order. Clear the timer
                // first: whichever job stays throttled re-arms it (once).
                self.retry_at = None;
                let mut queued: Vec<Job> = self.delayed.drain(..).collect();
                queued.sort_by_key(|j| std::cmp::Reverse(j.etrans.attrs.priority));
                for job in queued {
                    self.admit(ctx, job);
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<JobDone>() {
            Ok(done) => {
                // Agents only complete jobs this coordinator handed them.
                let Some((job, agent_idx)) = self.inflight.remove(&done.job_id) else {
                    return ctx.reject("completion for a job this engine never dispatched");
                };
                self.agent_load[agent_idx] =
                    self.agent_load[agent_idx].saturating_sub(job.etrans.bytes());
                self.completed.inc();
                self.bytes_moved.add(job.etrans.bytes());
                self.latency.record_time(ctx.now() - job.issued_at);
                self.trace.span(
                    "etrans",
                    "etrans.job",
                    job.issued_at,
                    ctx.now(),
                    job_trace_ctx(job.job_id),
                );
                match job.etrans.ownership {
                    TransOwnership::Caller => {
                        ctx.send(
                            job.reply_to,
                            SimTime::ZERO,
                            ETransDone {
                                tag: job.tag,
                                issued_at: job.issued_at,
                                completed_at: ctx.now(),
                                bytes: job.etrans.bytes(),
                            },
                        );
                    }
                    TransOwnership::Detached => {}
                    TransOwnership::Future(id) => {
                        ctx.send(
                            job.reply_to,
                            SimTime::ZERO,
                            crate::arbiter_client::FutureResolved {
                                future_id: id,
                                ok: true,
                            },
                        );
                    }
                }
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

/// A migration agent: executes transfers as chunked read→write pairs
/// through its own FHA, `pipeline` chunks in flight.
pub struct MigrationAgent {
    fha: ComponentId,
    chunk: u32,
    pipeline: usize,
    queue: VecDeque<ActiveJob>,
    next_tag: u64,
    outstanding: HashMap<u64, ChunkState>,
    /// Chunks moved.
    pub chunks_moved: Counter,
}

#[derive(Debug)]
struct ActiveJob {
    job: Job,
    engine: ComponentId,
    /// Flattened chunk list: `(src, dst, len)`.
    chunks: Vec<(u64, u64, u32)>,
    next_chunk: usize,
    done_chunks: usize,
}

#[derive(Debug, Clone, Copy)]
enum ChunkState {
    /// Read issued; on completion issue the write. `(src, dst, len)` kept.
    Reading { dst: u64, len: u32 },
    /// Write issued; on completion the chunk is done.
    Writing,
}

impl MigrationAgent {
    /// Creates an agent bound to an FHA, with the given chunk size and
    /// chunk pipeline depth.
    ///
    /// # Panics
    ///
    /// Panics if `chunk` or `pipeline` is zero.
    pub fn new(fha: ComponentId, chunk: u32, pipeline: usize) -> Self {
        assert!(chunk > 0 && pipeline > 0, "degenerate agent");
        MigrationAgent {
            fha,
            chunk,
            pipeline,
            queue: VecDeque::new(),
            next_tag: 0,
            outstanding: HashMap::new(),
            chunks_moved: Counter::new(),
        }
    }

    fn chunks_of(&self, etrans: &ETrans) -> Vec<(u64, u64, u32)> {
        // Flatten src and dst byte streams, then cut into chunks.
        let mut out = Vec::new();
        let mut src_iter = etrans.src.iter().copied();
        let mut dst_iter = etrans.dst.iter().copied();
        let (mut s_addr, mut s_left) = src_iter.next().unwrap_or((0, 0));
        let (mut d_addr, mut d_left) = dst_iter.next().unwrap_or((0, 0));
        loop {
            if s_left == 0 {
                match src_iter.next() {
                    Some((a, l)) => {
                        s_addr = a;
                        s_left = l;
                    }
                    None => break,
                }
                continue;
            }
            if d_left == 0 {
                match dst_iter.next() {
                    Some((a, l)) => {
                        d_addr = a;
                        d_left = l;
                    }
                    None => break,
                }
                continue;
            }
            let len = self.chunk.min(s_left).min(d_left);
            out.push((s_addr, d_addr, len));
            s_addr += len as u64;
            d_addr += len as u64;
            s_left -= len;
            d_left -= len;
        }
        out
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.outstanding.len() < self.pipeline {
            let Some(active) = self.queue.front_mut() else {
                return;
            };
            if active.next_chunk >= active.chunks.len() {
                // All chunks issued; wait for completions.
                return;
            }
            let (src, dst, len) = active.chunks[active.next_chunk];
            active.next_chunk += 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            self.outstanding
                .insert(tag, ChunkState::Reading { dst, len });
            ctx.send(
                self.fha,
                SimTime::ZERO,
                HostRequest {
                    op: HostOp::Read {
                        addr: src,
                        bytes: len,
                    },
                    tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
    }
}

impl Component for MigrationAgent {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Dispatch>() {
            Ok(dispatch) => {
                let chunks = self.chunks_of(&dispatch.job.etrans);
                self.queue.push_back(ActiveJob {
                    job: dispatch.job,
                    engine: dispatch.engine,
                    chunks,
                    next_chunk: 0,
                    done_chunks: 0,
                });
                self.pump(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<HostCompletion>() {
            Ok(hc) => {
                // The FHA only echoes tags this agent issued.
                let Some(state) = self.outstanding.remove(&hc.tag) else {
                    return ctx.reject("completion for a chunk this agent never issued");
                };
                match state {
                    ChunkState::Reading { dst, len } => {
                        // Read half done; now write to the destination.
                        self.outstanding.insert(hc.tag, ChunkState::Writing);
                        ctx.send(
                            self.fha,
                            SimTime::ZERO,
                            HostRequest {
                                op: HostOp::Write {
                                    addr: dst,
                                    bytes: len,
                                },
                                tag: hc.tag,
                                reply_to: ctx.self_id(),
                            },
                        );
                    }
                    ChunkState::Writing => {
                        self.chunks_moved.inc();
                        // A Writing chunk completion implies the job that
                        // issued it is still at the head of the queue.
                        #[allow(clippy::expect_used)]
                        let finished_job = {
                            let active = self.queue.front_mut().expect("job active");
                            active.done_chunks += 1;
                            if active.done_chunks == active.chunks.len() {
                                Some(self.queue.pop_front().expect("front"))
                            } else {
                                None
                            }
                        };
                        if let Some(active) = finished_job {
                            ctx.send(
                                active.engine,
                                SimTime::ZERO,
                                JobDone {
                                    job_id: active.job.job_id,
                                },
                            );
                        }
                        self.pump(ctx);
                    }
                }
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_fabric::endpoint::{Endpoint, FixedLatencyMemory};
    use fcc_fabric::topology::{self, TopologySpec, FAM_BASE};
    use fcc_sim::{Engine, Inbox};

    use super::*;
    use crate::arbiter_client::FutureResolved;

    type Sink = Inbox<ETransDone>;

    /// Topology: one host (whose FHA the agent uses) + two devices behind
    /// a switch; engine + one agent.
    fn setup() -> (Engine, ComponentId, ComponentId) {
        let mut engine = Engine::new(21);
        let dev = |lat: f64| -> Box<dyn Endpoint> {
            Box::new(FixedLatencyMemory::new(
                fcc_sim::SimTime::from_ns(lat),
                fcc_sim::SimTime::from_ns(lat),
                64 << 20,
            ))
        };
        let topo = topology::single_switch(
            &mut engine,
            TopologySpec::default(),
            1,
            vec![dev(100.0), dev(100.0)],
        );
        let agent = engine.add_component("agent0", MigrationAgent::new(topo.hosts[0].fha, 4096, 4));
        let te = engine.add_component("etrans", TransactionEngine::new(vec![agent]));
        let sink = engine.add_component("sink", Sink::default());
        (engine, te, sink)
    }

    fn submit(bytes: u32, tag: u64, sink: ComponentId, ownership: TransOwnership) -> SubmitETrans {
        SubmitETrans {
            etrans: ETrans {
                src: vec![(FAM_BASE, bytes)],
                dst: vec![(FAM_BASE + (32 << 20), bytes)],
                immediate: false,
                attrs: TransAttrs::default(),
                ownership,
            },
            tag,
            reply_to: sink,
        }
    }

    #[test]
    fn transfer_moves_all_chunks_and_completes() {
        let (mut engine, te, sink) = setup();
        engine.post(
            te,
            fcc_sim::SimTime::ZERO,
            submit(64 * 1024, 1, sink, TransOwnership::Caller),
        );
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        assert_eq!(s.messages().len(), 1);
        assert_eq!(s.messages()[0].bytes, 64 * 1024);
        assert!(s.messages()[0].completed_at > s.messages()[0].issued_at);
    }

    #[test]
    fn detached_and_future_ownership() {
        let (mut engine, te, sink) = setup();
        let futures = engine.add_component("futures", Inbox::<FutureResolved>::default());
        engine.post(
            te,
            fcc_sim::SimTime::ZERO,
            submit(4096, 1, sink, TransOwnership::Detached),
        );
        engine.post(
            te,
            fcc_sim::SimTime::ZERO,
            submit(4096, 2, futures, TransOwnership::Future(77)),
        );
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        assert!(s.messages().is_empty(), "detached produces no ETransDone");
        let f = engine
            .component::<Inbox<FutureResolved>>(futures)
            .messages();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].future_id, 77);
        assert!(f[0].ok);
        assert_eq!(
            engine.rejections().count(),
            0,
            "a future gets no ETransDone"
        );
    }

    #[test]
    fn scattered_lists_chunk_correctly() {
        let agent = MigrationAgent::new(
            // Component id is irrelevant for the pure chunker.
            ComponentIdStandIn::get(),
            4096,
            2,
        );
        let e = ETrans {
            src: vec![(0, 6000), (100_000, 2192)],
            dst: vec![(500_000, 8192)],
            immediate: false,
            attrs: TransAttrs::default(),
            ownership: TransOwnership::Detached,
        };
        assert!(e.validate());
        let chunks = agent.chunks_of(&e);
        let total: u64 = chunks.iter().map(|&(_, _, l)| l as u64).sum();
        assert_eq!(total, 8192);
        // Destination advances contiguously.
        let mut d = 500_000u64;
        for &(_, dst, len) in &chunks {
            assert_eq!(dst, d);
            d += len as u64;
        }
        // Chunk at the src-range boundary is cut short.
        assert!(chunks.iter().any(|&(_, _, l)| l < 4096));
    }

    /// Helper to mint a component id for pure tests.
    struct ComponentIdStandIn;

    impl ComponentIdStandIn {
        fn get() -> ComponentId {
            let mut engine = Engine::new(0);
            struct Nop;
            impl Component for Nop {
                fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}
            }
            engine.add_component("nop", Nop)
        }
    }

    #[test]
    fn tenant_throttle_paces_a_stream_of_transfers() {
        let (mut engine, te, sink) = setup();
        engine
            .component_mut::<TransactionEngine>(te)
            .set_tenant_limit(TenantLimit {
                tenant: 0,
                gbps: 8.0, // 1 byte/ns.
                burst: 4096,
            });
        // Two 64 KiB jobs: the first dispatches on the burst allowance,
        // the second must wait for the first's ~65.5 KiB debt to drain at
        // 1 byte/ns.
        for tag in [1, 2] {
            engine.post(
                te,
                fcc_sim::SimTime::ZERO,
                submit(64 * 1024, tag, sink, TransOwnership::Caller),
            );
        }
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        assert_eq!(s.messages().len(), 2);
        let first = s.messages().iter().find(|d| d.tag == 1).expect("first");
        let second = s.messages().iter().find(|d| d.tag == 2).expect("second");
        let lat1 = first.completed_at - first.issued_at;
        let lat2 = second.completed_at - second.issued_at;
        assert!(
            lat2 > lat1 + fcc_sim::SimTime::from_us(50.0),
            "second job must be paced: {lat1} vs {lat2}"
        );
    }

    #[test]
    fn immediate_bit_bypasses_throttle() {
        let (mut engine, te, sink) = setup();
        engine
            .component_mut::<TransactionEngine>(te)
            .set_tenant_limit(TenantLimit {
                tenant: 0,
                gbps: 8.0,
                burst: 4096,
            });
        // Two immediate jobs: neither is paced.
        for tag in [1, 2] {
            let mut sub = submit(64 * 1024, tag, sink, TransOwnership::Caller);
            sub.etrans.immediate = true;
            engine.post(te, fcc_sim::SimTime::ZERO, sub);
        }
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        assert_eq!(s.messages().len(), 2);
        for d in s.messages() {
            let lat = d.completed_at - d.issued_at;
            assert!(
                lat < fcc_sim::SimTime::from_us(40.0),
                "immediate transfer was throttled: {lat}"
            );
        }
    }

    #[test]
    fn budgets_sourced_from_partition_pace_like_explicit_limits() {
        use fcc_sched::{tenant_rates, CreditPartition, TenantShare};
        let (mut engine, te, sink) = setup();
        // One tenant owning the whole pool of a 8 Gbit/s admission point
        // with 4 KiB flits: equivalent to the explicit 8 Gbit/s limit in
        // `tenant_throttle_paces_a_stream_of_transfers`.
        let mut p = CreditPartition::new(1);
        p.add_tenant(
            0,
            TenantShare {
                group: 0,
                weight: 1,
                floor: 1,
            },
        );
        let rates = tenant_rates(&p, 8.0, 4096);
        engine
            .component_mut::<TransactionEngine>(te)
            .source_budgets(&rates);
        for tag in [1, 2] {
            engine.post(
                te,
                fcc_sim::SimTime::ZERO,
                submit(64 * 1024, tag, sink, TransOwnership::Caller),
            );
        }
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        assert_eq!(s.messages().len(), 2);
        let first = s.messages().iter().find(|d| d.tag == 1).expect("first");
        let second = s.messages().iter().find(|d| d.tag == 2).expect("second");
        let lat1 = first.completed_at - first.issued_at;
        let lat2 = second.completed_at - second.issued_at;
        assert!(
            lat2 > lat1 + fcc_sim::SimTime::from_us(50.0),
            "partition-sourced budget must pace: {lat1} vs {lat2}"
        );
    }

    #[test]
    fn invalid_etrans_rejected() {
        let (mut engine, te, sink) = setup();
        let mut sub = submit(4096, 1, sink, TransOwnership::Caller);
        sub.etrans.dst = vec![(FAM_BASE, 100)];
        engine.post(te, fcc_sim::SimTime::ZERO, sub);
        engine.run_until_idle();
        assert_eq!(engine.component::<TransactionEngine>(te).rejected.get(), 1);
        assert!(engine.component::<Sink>(sink).messages().is_empty());
    }
}
