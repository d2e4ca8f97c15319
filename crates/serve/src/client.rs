//! Open-loop serving clients.
//!
//! A [`ServeClient`] models one tenant's request stream against a
//! [`KvStore`](crate::KvStore): arrivals come from a
//! [`DiurnalModulator`] (Poisson gaps whose rate follows a
//! piecewise-linear sim-time curve), keys from a Zipf popularity
//! distribution, and the read/write mix and value sizes from seeded
//! draws — open loop, so the client keeps issuing at the curve's rate
//! no matter how slow the store gets (the tail shows up instead of the
//! throughput collapsing).
//!
//! Completions land in two [`SloAccountant`]s — peak and trough,
//! selected by the request's *issue* time against two configured
//! measurement windows. Requests issued during the ramps between them
//! are served but not accounted: the post-peak ramp drains whatever
//! backlog the peak built, and folding those latencies into the trough
//! would charge the trough for the peak's congestion. Tracing (when
//! enabled) emits one `serve`-category span per request named
//! `req-t{NNN}` so `trace-report` recovers the same SLO table from the
//! trace alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fcc_sim::{Component, ComponentId, Counter, Ctx, Msg, PendingWork, SimTime};
use fcc_telemetry::{SloAccountant, TraceCtx, Track};
use fcc_workloads::{DiurnalModulator, ZipfStream};

use crate::store::{KvOp, KvReply, KvRequest};

/// Trace ids for serving requests live in a reserved node-id namespace
/// (`0xFFFE`) so they never collide with FHA or eTrans ids.
fn req_trace_ctx(tenant: u32, seq: u64) -> TraceCtx {
    TraceCtx::new((0xFFFE_u64 << 48) | (u64::from(tenant) << 32) | (seq & 0xFFFF_FFFF))
}

/// Kick-off message: schedules the client's first arrival.
#[derive(Debug, Clone, Copy)]
pub struct StartClient;

/// Self-message: issue the request due now.
#[derive(Debug, Clone, Copy)]
struct Tick;

/// Configuration for a [`ServeClient`].
pub struct ServeClientCfg {
    /// The store to drive.
    pub store: ComponentId,
    /// This client's tenant id (shared with the fabric scheduler).
    pub tenant: u32,
    /// Arrival process.
    pub arrivals: DiurnalModulator,
    /// Key popularity over `0..keyspace`.
    pub keys: ZipfStream,
    /// Fraction of requests that are GETs (the rest are PUTs).
    pub read_fraction: f64,
    /// PUT value sizes as `(bytes, weight)` pairs.
    pub value_sizes: Vec<(u32, f64)>,
    /// One-way client↔store RPC latency.
    pub rpc_latency: SimTime,
    /// Issue no arrivals at or after this instant.
    pub stop_at: SimTime,
    /// SLO target for attainment accounting.
    pub slo_target: SimTime,
    /// Requests *issued* inside `[peak.0, peak.1)` account to the peak
    /// window.
    pub peak: (SimTime, SimTime),
    /// Requests *issued* inside `[trough.0, trough.1)` account to the
    /// trough window. Requests issued outside both windows (the ramps)
    /// are served but not accounted.
    pub trough: (SimTime, SimTime),
    /// RNG seed (mix + key + size draws).
    pub seed: u64,
}

/// One tenant's open-loop request generator and SLO bookkeeper.
pub struct ServeClient {
    cfg: ServeClientCfg,
    rng: StdRng,
    trace: Track,
    span_name: String,
    next_tag: u64,
    peak_slo: SloAccountant,
    trough_slo: SloAccountant,
    /// Requests issued.
    pub issued: Counter,
    /// Replies received.
    pub completed: Counter,
    /// Replies with `ok = false` (misses, failed allocations, lost
    /// version bumps).
    pub failed: Counter,
}

impl ServeClient {
    /// Creates a client; nothing runs until it receives [`StartClient`].
    pub fn new(cfg: ServeClientCfg) -> Self {
        let rng = StdRng::seed_from_u64(cfg.seed);
        let span_name = format!("req-t{:03}", cfg.tenant);
        let peak_slo = SloAccountant::new(cfg.slo_target);
        let trough_slo = SloAccountant::new(cfg.slo_target);
        ServeClient {
            cfg,
            rng,
            trace: Track::default(),
            span_name,
            next_tag: 0,
            peak_slo,
            trough_slo,
            issued: Counter::new(),
            completed: Counter::new(),
            failed: Counter::new(),
        }
    }

    /// Attaches a telemetry track; the client then emits one
    /// `serve`-category span per completed request.
    pub fn set_trace(&mut self, track: Track) {
        self.trace = track;
    }

    /// SLO accounting for requests issued inside the peak window.
    pub fn peak_slo(&self) -> &SloAccountant {
        &self.peak_slo
    }

    /// SLO accounting for requests issued inside the trough window.
    pub fn trough_slo(&self) -> &SloAccountant {
        &self.trough_slo
    }

    fn in_window(window: (SimTime, SimTime), at: SimTime) -> bool {
        at >= window.0 && at < window.1
    }

    fn draw_op(&mut self) -> KvOp {
        if self.rng.gen_range(0.0..1.0) < self.cfg.read_fraction {
            return KvOp::Get;
        }
        let total: f64 = self.cfg.value_sizes.iter().map(|&(_, w)| w).sum();
        let mut pick = self.rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
        for &(bytes, w) in &self.cfg.value_sizes {
            if pick < w {
                return KvOp::Put { bytes };
            }
            pick -= w;
        }
        let bytes = self.cfg.value_sizes.last().map_or(64, |&(b, _)| b);
        KvOp::Put { bytes }
    }

    fn schedule_next(&mut self, ctx: &mut Ctx<'_>) {
        let at = self.cfg.arrivals.next(&mut self.rng);
        if at < self.cfg.stop_at {
            let now = ctx.now();
            let delay = if at > now { at - now } else { SimTime::ZERO };
            ctx.send_self(delay, Tick);
        }
    }
}

impl Component for ServeClient {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartClient>() {
            Ok(StartClient) => {
                self.schedule_next(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<Tick>() {
            Ok(Tick) => {
                let key = self.cfg.keys.next(&mut self.rng);
                let op = self.draw_op();
                let tag = self.next_tag;
                self.next_tag += 1;
                self.issued.inc();
                ctx.send(
                    self.cfg.store,
                    self.cfg.rpc_latency,
                    KvRequest {
                        op,
                        key,
                        tenant: self.cfg.tenant,
                        tag,
                        sent_at: ctx.now(),
                        reply_to: ctx.self_id(),
                    },
                );
                self.schedule_next(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<KvReply>() {
            Ok(reply) => {
                self.completed.inc();
                if !reply.ok {
                    self.failed.inc();
                }
                let now = ctx.now();
                let latency = now - reply.sent_at;
                if Self::in_window(self.cfg.peak, reply.sent_at) {
                    self.peak_slo.record(self.cfg.tenant, latency);
                } else if Self::in_window(self.cfg.trough, reply.sent_at) {
                    self.trough_slo.record(self.cfg.tenant, latency);
                }
                self.trace.span(
                    "serve",
                    &self.span_name,
                    reply.sent_at,
                    now,
                    req_trace_ctx(self.cfg.tenant, reply.tag),
                );
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        let inflight = self.issued.get().saturating_sub(self.completed.get());
        if inflight > 0 {
            out.push(PendingWork {
                what: format!("{inflight} serving request(s) awaiting replies"),
                waiting_on: Some(self.cfg.store),
            });
        }
    }
}
