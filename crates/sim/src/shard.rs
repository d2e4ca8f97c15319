//! Conservative-lookahead sharded execution: many engines, one clock
//! discipline.
//!
//! A [`ShardedEngine`] partitions a scenario into per-shard [`Engine`]s
//! (one calendar queue each) and runs them on worker threads under the
//! classic conservative synchronization scheme: because every cross-shard
//! link carries a positive relay latency `L` (serialization and
//! propagation of the long-haul cable between switch domains), a message
//! leaving shard *a* at time `t` cannot affect shard *b* before `t + L`.
//! Each epoch therefore
//!
//! 1. computes the global minimum next-event time `m` across all shards,
//! 2. lets every shard run freely up to the *horizon* `m + L − 1`
//!    (exclusive of `m + L`), staging outbound cross-shard messages into
//!    per-`(src, dst)` mailbox cells, and
//! 3. merges the staged messages into their target shards: each target
//!    appends its cells in source-shard order and stable-sorts them by
//!    time alone.
//!
//! Every staged message is timestamped `t + L > m + L − 1`, i.e. strictly
//! beyond the horizon, so no shard can receive a message in its past:
//! the scheme is causally safe. It is also deadlock-free — the shard
//! holding the global minimum always makes progress in step 2, so `m`
//! advances by at least `L` per epoch and no null messages are needed
//! (the barrier plays their role). See DESIGN.md for the full argument.
//!
//! # Determinism
//!
//! The shard decomposition is part of the *scenario* (derived from the
//! topology), never of the thread count: `threads` in
//! [`ShardedEngine::run`] only selects how many workers the fixed set of
//! shards is spread over. Each shard is itself a deterministic
//! single-threaded [`Engine`], the epoch schedule is a pure function of
//! global simulation state, and the merge order is a pure function of
//! the staged messages — so runs with 1, 2, or 16 worker threads produce
//! byte-identical results. The merge needs no counter: every gateway of
//! shard `s` toward shard `d` pushes into the one cell `[s][d]`, in its
//! engine's dispatch order, and the cell is emptied every epoch. So
//! appending the cells in source-shard order and stable-sorting by time
//! yields `(time, source shard, emission order)`.
//!
//! A message crosses a shard as the same [`Msg`] value it was sent as:
//! the egress gateway stages it, the merge posts it with its `src`
//! cleared, and the ingress gateway forwards it to its switch.
//!
//! A panic inside one worker's shards aborts the whole run: the worker
//! raises a shared flag and keeps meeting the barriers, every worker
//! leaves after the same one, and [`ShardedEngine::run`] panics.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, MutexGuard};

use crate::engine::{Component, ComponentId, Ctx, Engine, Msg};
use crate::time::SimTime;

/// A cross-shard message parked between epochs.
struct StagedMsg {
    /// Delivery time (sender dispatch time + link latency), in ps.
    time_ps: u64,
    /// Target component in the destination shard.
    dst: ComponentId,
    msg: Msg,
}

/// One directed mailbox cell: messages staged from one shard to another,
/// in the source engine's dispatch order.
type Cell = Arc<Mutex<Vec<StagedMsg>>>;

/// Locks a mailbox cell, recovering from poisoning (a panicked worker
/// aborts the run anyway; the lock only guards a plain `Vec`).
fn lock(cell: &Mutex<Vec<StagedMsg>>) -> MutexGuard<'_, Vec<StagedMsg>> {
    cell.lock().unwrap_or_else(|e| e.into_inner())
}

/// The boundary component of a shard: egress relay for local traffic
/// heading off-shard, ingress proxy for traffic arriving from its peer.
///
/// A gateway pair `(g_a, g_b)` created by [`ShardedEngine::link`] models
/// one long-haul cable between two switch domains. Wire a gateway as the
/// connected peer of a switch port: flits the switch transmits reach the
/// gateway as ordinary messages (`src = switch`) and are staged for the
/// remote shard with the cable latency added; messages the executor
/// injects (`src = None`) are forwarded to the local attachment at the
/// same timestamp, so the switch sees them arrive *from* the gateway and
/// resolves its input port normally.
pub struct ShardGateway {
    /// Mailbox cell for this gateway's direction (`my shard → peer shard`).
    outbox: Cell,
    /// The peer gateway in the destination shard.
    peer: ComponentId,
    /// Local component injected traffic is forwarded to (the switch this
    /// gateway is attached to).
    local: ComponentId,
    /// One-way relay latency of the modeled cable.
    latency: SimTime,
    /// Messages relayed toward the peer shard.
    pub relayed_out: u64,
    /// Messages injected by the executor and forwarded locally.
    pub relayed_in: u64,
}

impl Component for ShardGateway {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.src {
            Some(_) => {
                // Local traffic heading off-shard: stage it for the peer
                // gateway one cable latency in the future. The staged
                // timestamp is what gives the executor its lookahead.
                lock(&self.outbox).push(StagedMsg {
                    time_ps: (ctx.now() + self.latency).as_ps(),
                    dst: self.peer,
                    msg,
                });
                self.relayed_out += 1;
            }
            None => {
                // Injected by the executor: hand to the local switch at
                // this timestamp so it arrives with `src = gateway`.
                ctx.forward(self.local, SimTime::ZERO, msg);
                self.relayed_in += 1;
            }
        }
    }
}

/// Shared state of one sharded run; one instance per [`ShardedEngine::run`].
struct RunShared {
    barrier: Barrier,
    /// Global minimum next-event time this epoch (ps); `u64::MAX` = idle.
    global_min: AtomicU64,
    lookahead_ps: u64,
    /// `channels[src][dst]` holds messages staged from shard `src` to
    /// shard `dst`.
    channels: Vec<Vec<Cell>>,
    /// Raised by a worker whose shards panicked; every worker leaves at
    /// the end of that epoch.
    aborted: AtomicBool,
}

/// A set of per-shard [`Engine`]s executed under conservative-lookahead
/// synchronization. See the [module docs](crate::shard) for the scheme.
pub struct ShardedEngine {
    engines: Vec<Engine>,
    channels: Vec<Vec<Cell>>,
    lookahead: Option<SimTime>,
}

impl ShardedEngine {
    /// Creates `shards` empty engines. Shard `s` gets a deterministic
    /// seed derived from `seed` and `s`, so scenario randomness is
    /// per-shard reproducible regardless of worker count.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(seed: u64, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        let engines = (0..shards)
            .map(|s| Engine::new(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)))
            .collect();
        let channels = (0..shards)
            .map(|_| (0..shards).map(|_| Cell::default()).collect())
            .collect();
        ShardedEngine {
            engines,
            channels,
            lookahead: None,
        }
    }

    /// Number of shards (fixed at construction).
    pub fn shard_count(&self) -> usize {
        self.engines.len()
    }

    /// The engine of shard `s`.
    pub fn engine(&self, s: usize) -> &Engine {
        &self.engines[s]
    }

    /// Mutable access to the engine of shard `s` (topology building,
    /// post-run inspection).
    pub fn engine_mut(&mut self, s: usize) -> &mut Engine {
        &mut self.engines[s]
    }

    /// Every shard's engine, in shard order.
    pub fn engines(&self) -> &[Engine] {
        &self.engines
    }

    /// Mutable access to every shard's engine, in shard order.
    pub fn engines_mut(&mut self) -> &mut [Engine] {
        &mut self.engines
    }

    /// The minimum cross-shard latency, i.e. the conservative lookahead.
    /// `None` until the first [`ShardedEngine::link`].
    pub fn lookahead(&self) -> Option<SimTime> {
        self.lookahead
    }

    /// Total events dispatched across all shards.
    pub fn total_events(&self) -> u64 {
        self.engines.iter().map(Engine::events_dispatched).sum()
    }

    /// Creates a linked gateway pair modeling a full-duplex cable of
    /// one-way latency `latency` between shards `a` and `b`, and lowers
    /// the run's lookahead to `latency` if it is the new minimum. Each
    /// side is `(shard, local attachment)`: the component (normally a
    /// switch) that the side's gateway hands arriving traffic to.
    /// Returns `(gateway in a, gateway in b)`; connect each to a port of
    /// its attachment.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`, either index is out of range, or `latency`
    /// is zero (zero lookahead would stall the epoch scheme).
    pub fn link(
        &mut self,
        (a, local_a): (usize, ComponentId),
        (b, local_b): (usize, ComponentId),
        latency: SimTime,
        name: &str,
    ) -> (ComponentId, ComponentId) {
        assert!(a != b, "gateway pair must span two shards");
        assert!(
            latency > SimTime::ZERO,
            "cross-shard latency must be positive"
        );
        // The two gateways name each other, so each is built with the id
        // its peer is about to receive in the other engine.
        let (ga, gb) = (
            self.engines[a].next_component_id(),
            self.engines[b].next_component_id(),
        );
        let gateway = |from: usize, to: usize, peer, local| ShardGateway {
            outbox: Arc::clone(&self.channels[from][to]),
            peer,
            local,
            latency,
            relayed_out: 0,
            relayed_in: 0,
        };
        let (gw_a, gw_b) = (gateway(a, b, gb, local_a), gateway(b, a, ga, local_b));
        self.engines[a].add_component(format!("{name}.gw{a}to{b}"), gw_a);
        self.engines[b].add_component(format!("{name}.gw{b}to{a}"), gw_b);
        self.lookahead = Some(match self.lookahead {
            Some(l) => l.min(latency),
            None => latency,
        });
        (ga, gb)
    }

    /// Runs every shard to global idle using at most `threads` worker
    /// threads (clamped to `[1, shard count]`). Byte-identical results
    /// for any `threads` value.
    ///
    /// # Panics
    ///
    /// Panics if the shards exchange traffic but no [`ShardedEngine::link`]
    /// was created (no lookahead), or a component panics in any shard; in
    /// that case every worker stops at the end of the epoch it panicked in.
    pub fn run(&mut self, threads: usize) {
        let k = self.engines.len();
        let m = threads.clamp(1, k);
        // A single unlinked shard is just a serial engine.
        let lookahead_ps = match self.lookahead {
            Some(l) => l.as_ps(),
            None if k == 1 => u64::MAX,
            // fcc-lint: allow(panic-in-lib) -- wiring error: multi-shard run without any link
            None => panic!("multi-shard run requires at least one link for lookahead"),
        };
        let shared = RunShared {
            barrier: Barrier::new(m),
            global_min: AtomicU64::new(u64::MAX),
            lookahead_ps,
            channels: self.channels.clone(),
            aborted: AtomicBool::new(false),
        };
        // Chunk shards over workers; the assignment affects scheduling
        // only, never results.
        let mut bundles: Vec<Vec<(usize, Engine)>> = (0..m).map(|_| Vec::new()).collect();
        for (s, engine) in self.engines.drain(..).enumerate() {
            bundles[s % m].push((s, engine));
        }
        let mut returned = Vec::with_capacity(k);
        std::thread::scope(|scope| {
            let shared = &shared;
            let handles: Vec<_> = bundles
                .into_iter()
                .map(|bundle| scope.spawn(move || worker_loop(bundle, shared)))
                .collect();
            for h in handles {
                match h.join() {
                    Ok(bundle) => returned.extend(bundle),
                    // fcc-lint: allow(panic-in-lib) -- worker panics propagate to the caller
                    Err(_) => panic!("shard worker panicked"),
                }
            }
        });
        returned.sort_by_key(|&(s, _)| s);
        self.engines = returned.into_iter().map(|(_, engine)| engine).collect();
    }
}

/// The per-worker epoch loop. `bundle` is the set of shards this worker
/// owns; engines come back out when the run reaches global idle. A panic
/// in these shards is held until every worker has left the loop at the
/// same barrier, then resumed.
fn worker_loop(mut bundle: Vec<(usize, Engine)>, shared: &RunShared) -> Vec<(usize, Engine)> {
    let mut failure = None;
    loop {
        // Phase A: contribute to the global minimum next-event time.
        for (_, engine) in &bundle {
            if let Some(t) = engine.next_event_time() {
                shared.global_min.fetch_min(t.as_ps(), Ordering::SeqCst);
            }
        }
        shared.barrier.wait();
        let min = shared.global_min.load(Ordering::SeqCst);
        if min == u64::MAX {
            // Globally idle: no pending events anywhere and (because
            // mailboxes were merged before this epoch's minimum was
            // computed) no staged messages either.
            break;
        }
        let horizon = SimTime::from_ps(min.saturating_add(shared.lookahead_ps - 1));
        // Phase B: run freely up to the horizon; gateways stage
        // cross-shard messages with timestamps strictly beyond it.
        guarded(shared, &mut failure, || {
            for (_, engine) in &mut bundle {
                engine.run_until(horizon);
            }
        });
        let sync = shared.barrier.wait();
        if sync.is_leader() {
            // Safe to reset here: every worker read `min` before the
            // barrier above, and none reads it again until the next
            // epoch's barrier.
            shared.global_min.store(u64::MAX, Ordering::SeqCst);
        }
        // Phase C: merge staged messages into this worker's shards. Each
        // cell holds its source shard's emissions in dispatch order, so a
        // stable sort by time over the cells taken in source-shard order
        // delivers in `(time, src shard, emission order)`.
        guarded(shared, &mut failure, || {
            for (dst, engine) in &mut bundle {
                let mut inbound = Vec::new();
                for row in &shared.channels {
                    inbound.append(&mut lock(&row[*dst]));
                }
                inbound.sort_by_key(|staged| staged.time_ps);
                for staged in inbound {
                    engine.post_msg(staged.dst, SimTime::from_ps(staged.time_ps), staged.msg);
                }
            }
        });
        shared.barrier.wait();
        // No worker raises the flag between this barrier and the next,
        // so every worker reads the same value and leaves together.
        if shared.aborted.load(Ordering::SeqCst) {
            break;
        }
    }
    if let Some(payload) = failure {
        resume_unwind(payload);
    }
    bundle
}

/// Runs one phase of this worker's engine work unless an earlier phase
/// panicked; a panic is kept in `failure` and raises the run's abort flag
/// instead of unwinding past the barriers the other workers wait at.
fn guarded(shared: &RunShared, failure: &mut Option<Box<dyn Any + Send>>, work: impl FnOnce()) {
    if failure.is_none() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(work)) {
            shared.aborted.store(true, Ordering::SeqCst);
            *failure = Some(payload);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Inbox;

    /// Echoes every `u64` payload to `target` after `delay`, decremented;
    /// stops at zero (or when no target is wired).
    struct Bouncer {
        target: Option<ComponentId>,
        delay: SimTime,
        heard: Vec<(u64, u64)>,
    }

    impl Component for Bouncer {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let v = match msg.downcast::<u64>() {
                Ok(v) => v,
                Err(m) => return ctx.reject(m.type_name()),
            };
            self.heard.push((ctx.now().as_ps(), v));
            if v > 0 {
                if let Some(t) = self.target {
                    ctx.send(t, self.delay, v - 1);
                }
            }
        }
    }

    fn bouncer(target: Option<ComponentId>, delay: SimTime) -> Bouncer {
        Bouncer {
            target,
            delay,
            heard: Vec::new(),
        }
    }

    /// `(time ps, value)` observations of one bouncer.
    type Heard = Vec<(u64, u64)>;

    /// Adds a bouncer to shards `a` and `b` and joins them by one cable,
    /// each bouncing into its own side's gateway. Returns the bouncers.
    fn bouncer_pair(
        sharded: &mut ShardedEngine,
        (a, b): (usize, usize),
        lat: SimTime,
        delay: SimTime,
    ) -> (ComponentId, ComponentId) {
        let ba = sharded
            .engine_mut(a)
            .add_component(format!("b{a}"), bouncer(None, delay));
        let bb = sharded
            .engine_mut(b)
            .add_component(format!("b{b}"), bouncer(None, delay));
        let (ga, gb) = sharded.link((a, ba), (b, bb), lat, "cable");
        sharded.engine_mut(a).component_mut::<Bouncer>(ba).target = Some(ga);
        sharded.engine_mut(b).component_mut::<Bouncer>(bb).target = Some(gb);
        (ba, bb)
    }

    /// Two shards bouncing a counter through the gateway pair.
    fn bounce_run(threads: usize) -> (Heard, Heard, u64) {
        let mut sharded = ShardedEngine::new(7, 2);
        let lat = SimTime::from_ns(50.0);
        let delay = SimTime::from_ns(10.0);
        let (b0, b1) = bouncer_pair(&mut sharded, (0, 1), lat, delay);
        sharded.engine_mut(0).post(b0, SimTime::ZERO, 6u64);
        sharded.run(threads);
        let h0 = sharded.engine(0).component::<Bouncer>(b0).heard.clone();
        let h1 = sharded.engine(1).component::<Bouncer>(b1).heard.clone();
        (h0, h1, sharded.total_events())
    }

    #[test]
    fn gateway_pair_bounces_across_shards() {
        let (h0, h1, _) = bounce_run(2);
        let v0: Vec<u64> = h0.iter().map(|&(_, v)| v).collect();
        let v1: Vec<u64> = h1.iter().map(|&(_, v)| v).collect();
        assert_eq!(v0, vec![6, 4, 2, 0]);
        assert_eq!(v1, vec![5, 3, 1]);
        // Each hop costs the bouncer delay (10ns) + cable latency (50ns).
        assert_eq!(h1[0].0, SimTime::from_ns(60.0).as_ps());
        assert_eq!(h0[1].0, SimTime::from_ns(120.0).as_ps());
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let serial = bounce_run(1);
        for threads in [2, 3, 8] {
            assert_eq!(bounce_run(threads), serial, "threads={threads}");
        }
    }

    /// Three shards; 1 and 2 each land one message in shard 0 at the same
    /// instant. The merge takes the cells in source-shard order, so shard
    /// 1's message is delivered first.
    fn star_run(threads: usize) -> Vec<(u64, u64)> {
        let lat = SimTime::from_ns(10.0);
        let mut sharded = ShardedEngine::new(0, 3);
        let sink = sharded
            .engine_mut(0)
            .add_component("sink", bouncer(None, SimTime::ZERO));
        // Shard 1 relays value 0, shard 2 relays value 1, both arriving
        // in shard 0 at the same 15ns instant.
        for (shard, value) in [(1usize, 1u64), (2, 2)] {
            let src = sharded
                .engine_mut(shard)
                .add_component("src", bouncer(None, SimTime::ZERO));
            let (_, gw_in) = sharded.link((0, sink), (shard, src), lat, "c");
            sharded
                .engine_mut(shard)
                .component_mut::<Bouncer>(src)
                .target = Some(gw_in);
            sharded
                .engine_mut(shard)
                .post(src, SimTime::from_ns(5.0), value);
        }
        sharded.run(threads);
        sharded.engine(0).component::<Bouncer>(sink).heard.clone()
    }

    #[test]
    fn merge_order_breaks_ties_by_source_shard() {
        let heard = star_run(1);
        assert_eq!(heard.len(), 2, "one message from each shard");
        assert_eq!(heard[0].0, heard[1].0, "same delivery instant");
        // Shard 1 before shard 2: values arrive as [0, 1].
        let values: Vec<u64> = heard.iter().map(|&(_, v)| v).collect();
        assert_eq!(values, vec![0, 1]);
        for threads in [2, 3] {
            assert_eq!(star_run(threads), heard, "threads={threads}");
        }
    }

    /// Sends `(target, value)` pairs in list order on every message.
    struct Spray {
        sends: Vec<(ComponentId, u64)>,
    }

    impl Component for Spray {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, _msg: Msg) {
            for &(target, value) in &self.sends {
                ctx.send(target, SimTime::ZERO, value);
            }
        }
    }

    /// Two cables from shard 1 into shard 0 (shard 2 idles, so three
    /// workers have a shard each). One dispatch in shard 1 sends value 1
    /// through the second cable, then value 2 through the first; both
    /// land in shard 0 at the same instant.
    fn shared_cell_run(threads: usize) -> Vec<(u64, u64)> {
        let lat = SimTime::from_ns(10.0);
        let mut sharded = ShardedEngine::new(0, 3);
        let sink = sharded
            .engine_mut(0)
            .add_component("sink", bouncer(None, SimTime::ZERO));
        let src = sharded
            .engine_mut(1)
            .add_component("spray", Spray { sends: Vec::new() });
        let (_, g1a) = sharded.link((0, sink), (1, src), lat, "a");
        let (_, g1b) = sharded.link((0, sink), (1, src), lat, "b");
        sharded.engine_mut(1).component_mut::<Spray>(src).sends = vec![(g1b, 1), (g1a, 2)];
        sharded.engine_mut(1).post(src, SimTime::from_ns(5.0), ());
        sharded.run(threads);
        sharded.engine(0).component::<Bouncer>(sink).heard.clone()
    }

    /// Two messages sharing one `[src][dst]` cell and one arrival instant
    /// are delivered in the order the source shard emitted them, whatever
    /// the cables and the worker count.
    #[test]
    fn same_instant_arrivals_from_one_shard_keep_emission_order() {
        let at = SimTime::from_ns(15.0).as_ps();
        for threads in [1, 2, 3] {
            assert_eq!(
                shared_cell_run(threads),
                vec![(at, 1), (at, 2)],
                "threads={threads}"
            );
        }
    }

    /// Panics on its first message.
    struct Bomb;

    impl Component for Bomb {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {
            panic!("bomb went off");
        }
    }

    /// Three shards: bouncers keep shards 1 and 2 busy across the 1-2
    /// cable while a component in shard 0 panics at 5 ns.
    fn panicking_run(threads: usize) {
        let lat = SimTime::from_ns(10.0);
        let mut sharded = ShardedEngine::new(0, 3);
        let bomb = sharded.engine_mut(0).add_component("bomb", Bomb);
        let (b1, _) = bouncer_pair(&mut sharded, (1, 2), lat, SimTime::from_ns(1.0));
        sharded.engine_mut(1).post(b1, SimTime::ZERO, 1_000u64);
        sharded.engine_mut(0).post(bomb, SimTime::from_ns(5.0), ());
        sharded.run(threads);
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn component_panic_fails_a_two_worker_run() {
        panicking_run(2);
    }

    #[test]
    #[should_panic(expected = "shard worker panicked")]
    fn component_panic_fails_a_three_worker_run() {
        panicking_run(3);
    }

    /// Three shards in a line; shard 2 is sent types its components do
    /// not take, once from its own harness and twice across a cable from
    /// shard 1, while bouncers keep every shard busy.
    fn rejecting_run(threads: usize) -> (Vec<(String, String)>, u64) {
        let lat = SimTime::from_ns(10.0);
        let mut sharded = ShardedEngine::new(5, 3);
        let (b0, _) = bouncer_pair(&mut sharded, (0, 1), lat, SimTime::from_ns(3.0));
        let (b1, b2) = bouncer_pair(&mut sharded, (1, 2), lat, SimTime::from_ns(2.0));
        let spray = Spray { sends: Vec::new() };
        let spray = sharded.engine_mut(1).add_component("spray", spray);
        let inbox = sharded
            .engine_mut(2)
            .add_component("inbox", Inbox::<u32>::default());
        let (to_2, _) = sharded.link((1, spray), (2, inbox), lat, "stray");
        sharded.engine_mut(1).component_mut::<Spray>(spray).sends = vec![(to_2, 7)];
        sharded.engine_mut(0).post(b0, SimTime::ZERO, 30u64);
        sharded.engine_mut(1).post(b1, SimTime::ZERO, 40u64);
        sharded
            .engine_mut(2)
            .post(b2, SimTime::from_ns(7.0), "stray");
        for at in [20.0, 45.0] {
            sharded.engine_mut(1).post(spray, SimTime::from_ns(at), ());
        }
        sharded.run(threads);
        for s in [0, 1] {
            assert!(sharded.engine(s).deadlock_report().is_none(), "shard {s}");
        }
        let report = sharded
            .engine(2)
            .deadlock_report()
            .expect("shard 2 rejected");
        let stuck = report.stuck.into_iter().map(|s| (s.component, s.what));
        (stuck.collect(), sharded.total_events())
    }

    #[test]
    fn rejection_in_one_shard_is_reported_at_any_worker_count() {
        let serial = rejecting_run(1);
        let expected = [
            ("b2", "rejected 1 message(s): &str"),
            ("inbox", "rejected 2 message(s): u64"),
        ];
        let expected = expected.map(|(c, w)| (c.to_string(), w.to_string()));
        assert_eq!(serial.0, expected);
        assert_eq!(rejecting_run(3), serial);
        assert_eq!(rejecting_run(2), serial);
    }

    #[test]
    fn single_unlinked_shard_runs_serially() {
        let mut sharded = ShardedEngine::new(3, 1);
        let b = sharded
            .engine_mut(0)
            .add_component("b", bouncer(None, SimTime::from_ns(1.0)));
        sharded.engine_mut(0).component_mut::<Bouncer>(b).target = Some(b);
        sharded.engine_mut(0).post(b, SimTime::ZERO, 4u64);
        sharded.run(4);
        assert_eq!(sharded.engine(0).component::<Bouncer>(b).heard.len(), 5);
    }

    #[test]
    #[should_panic(expected = "cross-shard latency must be positive")]
    fn zero_latency_link_is_rejected() {
        let mut sharded = ShardedEngine::new(0, 2);
        bouncer_pair(&mut sharded, (0, 1), SimTime::ZERO, SimTime::ZERO);
    }

    /// A parameterized two-shard bounce: every observation (timestamps,
    /// values, total event count) must be invariant to the worker count,
    /// for any seed, hop count, cable latency, and component delay.
    fn param_bounce(
        seed: u64,
        hops: u64,
        lat_ps: u64,
        delay_ps: u64,
        threads: usize,
    ) -> (Heard, Heard, u64) {
        let mut sharded = ShardedEngine::new(seed, 2);
        let lat = SimTime::from_ps(lat_ps);
        let delay = SimTime::from_ps(delay_ps);
        let (b0, b1) = bouncer_pair(&mut sharded, (0, 1), lat, delay);
        sharded.engine_mut(0).post(b0, SimTime::ZERO, hops);
        sharded.run(threads);
        let h0 = sharded.engine(0).component::<Bouncer>(b0).heard.clone();
        let h1 = sharded.engine(1).component::<Bouncer>(b1).heard.clone();
        (h0, h1, sharded.total_events())
    }

    mod properties {
        use proptest::prelude::*;

        use super::param_bounce;

        proptest! {
            /// Every observation is invariant to the worker count, for
            /// any seed, hop count, cable latency, and component delay.
            #[test]
            fn bounce_is_worker_count_invariant(
                seed in any::<u64>(),
                hops in 0u64..24,
                lat_ps in 1u64..500_000u64,
                delay_ps in 0u64..100_000u64,
                threads in 2usize..6,
            ) {
                let serial = param_bounce(seed, hops, lat_ps, delay_ps, 1);
                let threaded = param_bounce(seed, hops, lat_ps, delay_ps, threads);
                prop_assert_eq!(serial, threaded);
            }
        }
    }
}
