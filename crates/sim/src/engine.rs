//! The discrete-event engine: components, messages, and the event loop.
//!
//! Design notes:
//!
//! * Events are totally ordered by `(time, sequence)`; the sequence number is
//!   assigned at scheduling time, which makes simultaneous events fire in
//!   scheduling order and keeps runs deterministic.
//! * The pending set lives in an indexed calendar queue (see
//!   [`crate::calendar`]) whose buckets chain `(time, seq)` keys through
//!   one node array indexed by the event's slab id; event bodies sit in a
//!   slab recycled through a free list, so the steady-state loop schedules
//!   and retires events without allocating. Each dispatch probes the queue
//!   once ([`CalendarQueue::pop_until`]) and delivers one message through
//!   [`Component::on_msg`].
//! * Components are owned by the engine in a slab. During dispatch the
//!   target component is temporarily moved out, so a component may freely
//!   schedule messages (including to itself) through [`Ctx`] without
//!   aliasing the component storage.
//! * Message payloads are `Box<dyn Any>`: each subsystem defines its own
//!   payload types and downcasts on receipt (see [`Msg::downcast`]). A
//!   [`Msg`] is built once per send; the sharded executor carries that
//!   same value across a shard boundary and re-schedules it whole
//!   (`Engine::post_msg`, `Ctx::forward`). A message a component cannot
//!   use goes back through [`Ctx::reject`], which counts it.

use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::calendar::{CalEntry, CalendarQueue};
use crate::time::SimTime;

/// Identifies a component registered with an [`Engine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u32);

impl ComponentId {
    /// Returns the raw slab index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

/// A delivered message: the sender, plus an opaque payload.
///
/// Payloads are `Send` so whole engines can move across worker threads
/// in the sharded executor (see [`crate::shard`]).
pub struct Msg {
    /// The component that scheduled this message, if any (`None` for
    /// messages posted by the harness through [`Engine::post`]).
    pub src: Option<ComponentId>,
    payload: Box<dyn Any + Send>,
    type_name: &'static str,
}

impl Msg {
    /// Wraps `payload`; the sender is filled in when it is scheduled.
    fn new<T: Send + 'static>(payload: T) -> Msg {
        Msg {
            src: None,
            payload: Box::new(payload),
            type_name: std::any::type_name::<T>(),
        }
    }

    /// Attempts to downcast the payload to `T`, returning the original
    /// message on failure so dispatch chains can keep matching.
    pub fn downcast<T: 'static>(self) -> Result<T, Msg> {
        match self.payload.downcast::<T>() {
            Ok(b) => Ok(*b),
            Err(payload) => Err(Msg {
                src: self.src,
                payload,
                type_name: self.type_name,
            }),
        }
    }

    /// Returns the payload's concrete type name, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        self.type_name
    }
}

impl std::fmt::Debug for Msg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Msg")
            .field("src", &self.src)
            .field("payload", &self.type_name())
            .finish()
    }
}

/// In-flight work a component reports for post-drain deadlock analysis.
#[derive(Debug, Clone)]
pub struct PendingWork {
    /// What the component is waiting for (e.g. `"txn 42 (RdOwn)"`).
    pub what: String,
    /// The component being waited on, if known — used to build the
    /// wait-for graph.
    pub waiting_on: Option<ComponentId>,
}

/// A run of messages for [`Component::on_batch`]. The engine never builds
/// one: it delivers every message through [`Component::on_msg`]. Both stay
/// declared only because the benchmark crate (`perfbench/`, a workspace
/// of its own) still overrides `on_batch` in its timing decorator; they go
/// when it stops.
pub struct MsgBatch<'a> {
    /// The run, stored in *reverse* delivery order so `next_msg` is a
    /// plain `pop`.
    msgs: &'a mut Vec<Msg>,
}

impl MsgBatch<'_> {
    /// Takes the next message of the batch, if any.
    pub fn next_msg(&mut self) -> Option<Msg> {
        self.msgs.pop()
    }

    /// Messages not yet taken.
    pub fn remaining(&self) -> usize {
        self.msgs.len()
    }
}

/// A simulated hardware or software entity driven by timestamped messages.
///
/// The `Any` supertrait allows [`Engine::component`] to hand back concrete
/// types via trait upcasting. The `Send` supertrait lets the sharded
/// executor (see [`crate::shard`]) move whole engines — components
/// included — onto worker threads.
pub trait Component: Any + Send {
    /// Handles one message delivered at the current simulation time.
    ///
    /// A message the component cannot use (a type it does not take, a
    /// reply to a request it never issued) is a fault of the simulated
    /// fabric, not of the host: pass it to [`Ctx::reject`] instead of
    /// panicking or dropping it unseen. A downcast chain ends in
    /// `Err(m) => ctx.reject(m.type_name())`.
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg);

    /// Handles a run of messages in one call; the default forwards each
    /// to [`Component::on_msg`] in order. The engine never calls it (see
    /// [`MsgBatch`]).
    fn on_batch(&mut self, ctx: &mut Ctx<'_>, batch: &mut MsgBatch<'_>) {
        while let Some(msg) = batch.next_msg() {
            self.on_msg(ctx, msg);
        }
    }

    /// Appends work this component considers unfinished, for
    /// [`Engine::deadlock_report`]. A component with queued requests,
    /// unacknowledged transactions, or undelivered grants should push
    /// them here; the default (no pending work) suits pure sinks and
    /// stateless components. Taking an out-parameter (rather than
    /// returning a `Vec`) lets the deadlock scan reuse one buffer across
    /// every component instead of allocating per call.
    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        let _ = out;
    }
}

enum EventKind {
    Message { target: ComponentId, msg: Msg },
    Call(Box<dyn FnOnce(&mut Engine) + Send>),
}

/// One slab slot: an event body, or a link in the free list.
enum Slot {
    Occupied(EventKind),
    Vacant { next_free: u32 },
}

/// Free-list terminator.
const NO_FREE: u32 = u32::MAX;

thread_local! {
    /// Events dispatched by engines that finished on this thread; see
    /// [`thread_events_dispatched`].
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Total events dispatched by every [`Engine`] *dropped* on the calling
/// thread so far. The experiment harness samples this around a scenario to
/// compute events/second; engines flush their counter on drop, so the
/// delta is exact once a scenario's engines have been torn down.
pub fn thread_events_dispatched() -> u64 {
    THREAD_EVENTS.with(|c| c.get())
}

/// Engine state shared with components during dispatch.
struct EngineCore {
    now: SimTime,
    seq: u64,
    queue: CalendarQueue,
    /// Event bodies, indexed by the calendar entries' `id`.
    slab: Vec<Slot>,
    /// Head of the vacant-slot chain threaded through `slab`.
    free_head: u32,
    rng: StdRng,
    events_dispatched: u64,
    /// Messages components could not use, counted per `(component,
    /// what)`; see [`Ctx::reject`].
    rejected: BTreeMap<(ComponentId, String), u64>,
}

impl EngineCore {
    fn push(&mut self, time: SimTime, kind: EventKind) {
        debug_assert!(time >= self.now, "scheduling into the past");
        let seq = self.seq;
        self.seq += 1;
        let id = if self.free_head != NO_FREE {
            let id = self.free_head;
            match std::mem::replace(&mut self.slab[id as usize], Slot::Occupied(kind)) {
                Slot::Vacant { next_free } => self.free_head = next_free,
                // fcc-lint: allow(panic-in-lib) -- slab free-list invariant: a vacant head is vacant
                Slot::Occupied(_) => unreachable!("free list pointed at an occupied slot"),
            }
            id
        } else {
            self.slab.push(Slot::Occupied(kind));
            (self.slab.len() - 1) as u32
        };
        self.queue.push(CalEntry {
            time: time.as_ps(),
            seq,
            id,
        });
    }

    /// Retires slab slot `id`, returning its event body.
    fn take(&mut self, id: u32) -> EventKind {
        let slot = std::mem::replace(
            &mut self.slab[id as usize],
            Slot::Vacant {
                next_free: self.free_head,
            },
        );
        self.free_head = id;
        match slot {
            Slot::Occupied(kind) => kind,
            // fcc-lint: allow(panic-in-lib) -- slab invariant: queue entries reference occupied slots
            Slot::Vacant { .. } => unreachable!("queue entry pointed at a vacant slot"),
        }
    }
}

/// One recorded dispatch, kept by the engine's trace ring.
///
/// The target is stored as a [`ComponentId`] (not a name clone); resolve
/// it with [`Engine::trace_target_name`] when rendering.
#[derive(Debug, Clone)]
pub struct TraceEntry {
    /// Dispatch time.
    pub at: SimTime,
    /// Target component (`None` for harness closures).
    pub target: Option<ComponentId>,
    /// Payload type name (`"<closure>"` for harness closures).
    pub payload: &'static str,
}

/// The single-threaded discrete-event simulation engine.
pub struct Engine {
    core: EngineCore,
    components: Vec<Option<Box<dyn Component>>>,
    names: Vec<String>,
    trace: Option<(usize, std::collections::VecDeque<TraceEntry>)>,
}

impl Engine {
    /// Creates an engine with a deterministic RNG seeded by `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            core: EngineCore {
                now: SimTime::ZERO,
                seq: 0,
                queue: CalendarQueue::new(),
                slab: Vec::new(),
                free_head: NO_FREE,
                rng: StdRng::seed_from_u64(seed),
                events_dispatched: 0,
                rejected: BTreeMap::new(),
            },
            components: Vec::new(),
            names: Vec::new(),
            trace: None,
        }
    }

    /// Enables the dispatch trace ring, keeping the last `capacity`
    /// events. Entries are two words plus a timestamp (the target is an
    /// interned [`ComponentId`]), so the ring costs no allocation per
    /// dispatch; leave off in experiments, turn on to debug a stuck or
    /// misbehaving model.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn enable_trace(&mut self, capacity: usize) {
        assert!(capacity > 0, "empty trace ring");
        self.trace = Some((
            capacity,
            std::collections::VecDeque::with_capacity(capacity),
        ));
    }

    /// The recorded trace entries, oldest first (empty unless enabled).
    /// Borrows from the ring instead of cloning it; use
    /// [`Engine::trace_target_name`] to render targets.
    pub fn trace(&self) -> impl Iterator<Item = &TraceEntry> + '_ {
        self.trace.iter().flat_map(|(_, ring)| ring.iter())
    }

    /// Resolves a trace entry's target to its registered name
    /// (`"<call>"` for harness closures).
    pub fn trace_target_name(&self, entry: &TraceEntry) -> &str {
        match entry.target {
            Some(id) => &self.names[id.index()],
            None => "<call>",
        }
    }

    fn record_trace(&mut self, at: SimTime, target: Option<ComponentId>, payload: &'static str) {
        if let Some((cap, ring)) = self.trace.as_mut() {
            if ring.len() == *cap {
                ring.pop_front();
            }
            ring.push_back(TraceEntry {
                at,
                target,
                payload,
            });
        }
    }

    /// The id the next [`Engine::add_component`] call will return.
    pub(crate) fn next_component_id(&self) -> ComponentId {
        ComponentId(self.components.len() as u32)
    }

    /// Registers a component and returns its id.
    pub fn add_component<C: Component>(
        &mut self,
        name: impl Into<String>,
        component: C,
    ) -> ComponentId {
        let id = self.next_component_id();
        self.components.push(Some(Box::new(component)));
        self.names.push(name.into());
        id
    }

    /// Returns the registered name of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not issued by this engine.
    pub fn name(&self, id: ComponentId) -> &str {
        &self.names[id.index()]
    }

    /// Returns the current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Returns the number of events dispatched so far.
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        self.core.events_dispatched
    }

    /// Returns the number of events still pending.
    #[inline]
    pub fn pending_events(&self) -> usize {
        self.core.queue.len()
    }

    /// Returns the timestamp of the earliest pending event, if any.
    ///
    /// The sharded executor uses this to compute the global minimum
    /// next-event time that anchors each conservative epoch.
    #[inline]
    pub fn next_event_time(&self) -> Option<SimTime> {
        self.core.queue.peek().map(|e| SimTime::from_ps(e.time))
    }

    /// Immutable access to a component, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if `id` is foreign, the component is mid-dispatch, or the
    /// concrete type is not `C`.
    pub fn component<C: Component>(&self, id: ComponentId) -> &C {
        // Documented-panic accessor: the slot is empty only during that
        // component's own dispatch, which cannot reenter the engine.
        #[allow(clippy::expect_used)]
        let b = self.components[id.index()]
            .as_ref()
            .expect("component is mid-dispatch");
        (b.as_ref() as &dyn Any)
            .downcast_ref::<C>()
            .unwrap_or_else(|| {
                // fcc-lint: allow(panic-in-lib) -- documented API contract: wrong-type downcast is caller error
                panic!(
                    "component {} is not a {}",
                    self.names[id.index()],
                    std::any::type_name::<C>()
                )
            })
    }

    /// Mutable access to a component, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Engine::component`].
    pub fn component_mut<C: Component>(&mut self, id: ComponentId) -> &mut C {
        let name: &str = &self.names[id.index()];
        // Same invariant as `component`: only empty during own dispatch.
        #[allow(clippy::expect_used)]
        let b = self.components[id.index()]
            .as_mut()
            .expect("component is mid-dispatch");
        (b.as_mut() as &mut dyn Any)
            .downcast_mut::<C>()
            // fcc-lint: allow(panic-in-lib) -- documented API contract: wrong-type downcast is caller error
            .unwrap_or_else(|| panic!("component {name} is not a {}", std::any::type_name::<C>()))
    }

    /// Schedules a message from the harness (no source component).
    pub fn post<T: Send + 'static>(&mut self, target: ComponentId, at: SimTime, payload: T) {
        self.post_msg(target, at, Msg::new(payload));
    }

    /// Schedules `msg` as if posted by the harness: its `src` is cleared.
    /// The sharded executor injects cross-shard messages this way (see
    /// [`crate::shard`]).
    pub(crate) fn post_msg(&mut self, target: ComponentId, at: SimTime, mut msg: Msg) {
        assert!(
            target.index() < self.components.len(),
            "unknown component id"
        );
        msg.src = None;
        let at = at.max(self.core.now);
        self.core.push(at, EventKind::Message { target, msg });
    }

    /// Schedules a closure to run against the full engine at time `at`.
    ///
    /// Useful for harness-side load injection and probing: unlike a
    /// component, the closure may inspect and mutate any component.
    pub fn call_at(&mut self, at: SimTime, f: impl FnOnce(&mut Engine) + Send + 'static) {
        let at = at.max(self.core.now);
        self.core.push(at, EventKind::Call(Box::new(f)));
    }

    /// Direct access to the deterministic RNG (harness use).
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Delivers one event: a message through its target's
    /// [`Component::on_msg`], or a harness closure.
    fn dispatch(&mut self, entry: CalEntry) {
        let time = SimTime::from_ps(entry.time);
        self.core.now = time;
        self.core.events_dispatched += 1;
        match self.core.take(entry.id) {
            EventKind::Message { target, msg } => {
                if self.trace.is_some() {
                    self.record_trace(time, Some(target), msg.type_name);
                }
                // The engine is single-threaded and dispatch cannot
                // reenter, so the slot is always occupied here.
                #[allow(clippy::expect_used)]
                let mut component = self.components[target.index()]
                    .take()
                    .expect("component received a message while mid-dispatch");
                let mut ctx = Ctx {
                    core: &mut self.core,
                    self_id: target,
                };
                component.on_msg(&mut ctx, msg);
                self.components[target.index()] = Some(component);
            }
            EventKind::Call(f) => {
                if self.trace.is_some() {
                    self.record_trace(time, None, "<closure>");
                }
                f(self)
            }
        }
    }

    /// Runs until the queue drains and returns the final time.
    pub fn run_until_idle(&mut self) -> SimTime {
        self.run_until(SimTime::MAX)
    }

    /// Runs until the queue drains or the clock passes `deadline`.
    ///
    /// Events scheduled after `deadline` remain queued; the clock is left at
    /// the later of its current value and `deadline` only if an event
    /// actually reached it (the clock never runs ahead of dispatched work).
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(entry) = self.core.queue.pop_until(deadline.as_ps()) {
            self.dispatch(entry);
        }
        self.core.now
    }

    /// Every message a component rejected through [`Ctx::reject`], as
    /// `(component name, "rejected N message(s): <what>")`, in
    /// component-index order.
    pub fn rejections(&self) -> impl Iterator<Item = (&str, String)> + '_ {
        self.core.rejected.iter().map(|((id, what), n)| {
            (
                self.names[id.index()].as_str(),
                format!("rejected {n} message(s): {what}"),
            )
        })
    }

    /// Analyzes the simulation for a deadlock after the event queue has
    /// drained.
    ///
    /// An idle queue with components still reporting
    /// [`outstanding`](Component::outstanding) work means transactions
    /// were lost or are mutually blocked: no future event can complete
    /// them. The report lists every stuck component and, from the
    /// `waiting_on` edges, any wait-for cycles (the classic
    /// credit-deadlock signature of §3 D#3), then one entry per
    /// [`Engine::rejections`] row.
    ///
    /// Returns `None` when events are still pending (the system may yet
    /// make progress) or when nothing is outstanding or rejected.
    pub fn deadlock_report(&self) -> Option<DeadlockReport> {
        if !self.core.queue.is_empty() {
            return None;
        }
        let mut stuck = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut work: Vec<PendingWork> = Vec::new();
        for (idx, slot) in self.components.iter().enumerate() {
            let Some(component) = slot.as_ref() else {
                continue;
            };
            work.clear();
            component.outstanding(&mut work);
            for w in work.drain(..) {
                if let Some(target) = w.waiting_on {
                    edges.push((idx, target.index()));
                }
                stuck.push(StuckComponent {
                    component: self.names[idx].clone(),
                    what: w.what,
                    waiting_on: w.waiting_on.map(|t| self.names[t.index()].clone()),
                });
            }
        }
        stuck.extend(self.rejections().map(|(component, what)| StuckComponent {
            component: component.to_string(),
            what,
            waiting_on: None,
        }));
        if stuck.is_empty() {
            return None;
        }
        Some(DeadlockReport {
            cycles: find_cycles(self.components.len(), &edges)
                .into_iter()
                .map(|cycle| cycle.into_iter().map(|i| self.names[i].clone()).collect())
                .collect(),
            stuck,
        })
    }
}

impl Drop for Engine {
    fn drop(&mut self) {
        THREAD_EVENTS.with(|c| c.set(c.get() + self.core.events_dispatched));
    }
}

/// One component's stranded work inside a [`DeadlockReport`].
#[derive(Debug, Clone)]
pub struct StuckComponent {
    /// The component's registered name.
    pub component: String,
    /// Its description of the stranded work.
    pub what: String,
    /// The name of the component it waits on, if reported.
    pub waiting_on: Option<String>,
}

/// Stranded in-flight work found after the event queue drained.
#[derive(Debug, Clone)]
pub struct DeadlockReport {
    /// Every component with outstanding work.
    pub stuck: Vec<StuckComponent>,
    /// Wait-for cycles among the stuck components (each a list of
    /// component names; empty when the blockage is acyclic, e.g. a
    /// single lost message).
    pub cycles: Vec<Vec<String>>,
}

impl std::fmt::Display for DeadlockReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "deadlock: queue drained with {} component(s) stuck",
            self.stuck.len()
        )?;
        for s in &self.stuck {
            match &s.waiting_on {
                Some(t) => writeln!(f, "  {}: {} (waiting on {t})", s.component, s.what)?,
                None => writeln!(f, "  {}: {}", s.component, s.what)?,
            }
        }
        for cycle in &self.cycles {
            writeln!(f, "  wait-for cycle: {}", cycle.join(" -> "))?;
        }
        Ok(())
    }
}

/// Finds elementary cycles in the wait-for graph by walking each node's
/// out-edges depth-first (the graphs here are tiny: one node per stuck
/// component).
fn find_cycles(nodes: usize, edges: &[(usize, usize)]) -> Vec<Vec<usize>> {
    let mut adj = vec![Vec::new(); nodes];
    for &(a, b) in edges {
        if !adj[a].contains(&b) {
            adj[a].push(b);
        }
    }
    let mut cycles: Vec<Vec<usize>> = Vec::new();
    let mut in_cycle = vec![false; nodes];
    for start in 0..nodes {
        if in_cycle[start] {
            continue;
        }
        // Iterative DFS tracking the current path.
        let mut path = vec![start];
        let mut iters = vec![0usize];
        while let Some(&node) = path.last() {
            let it = match iters.last_mut() {
                Some(it) => it,
                None => break,
            };
            if let Some(&next) = adj[node].get(*it) {
                *it += 1;
                if let Some(pos) = path.iter().position(|&n| n == next) {
                    let cycle: Vec<usize> = path[pos..].to_vec();
                    if cycle.iter().any(|&n| !in_cycle[n]) {
                        for &n in &cycle {
                            in_cycle[n] = true;
                        }
                        cycles.push(cycle);
                    }
                } else {
                    path.push(next);
                    iters.push(0);
                }
            } else {
                path.pop();
                iters.pop();
            }
        }
    }
    cycles
}

/// Per-dispatch context handed to [`Component::on_msg`].
pub struct Ctx<'a> {
    core: &'a mut EngineCore,
    self_id: ComponentId,
}

impl Ctx<'_> {
    /// Returns the current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// Returns the id of the component being dispatched.
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Schedules `payload` for `target` after `delay`.
    pub fn send<T: Send + 'static>(&mut self, target: ComponentId, delay: SimTime, payload: T) {
        self.forward(target, delay, Msg::new(payload));
    }

    /// Schedules `msg` for `target` after `delay`, with the current
    /// component as its `src`. The shard gateway hands injected messages
    /// to its local switch this way (see [`crate::shard`]).
    #[inline]
    pub(crate) fn forward(&mut self, target: ComponentId, delay: SimTime, mut msg: Msg) {
        msg.src = Some(self.self_id);
        let at = self.core.now + delay;
        self.core.push(at, EventKind::Message { target, msg });
    }

    /// Schedules `payload` back to the current component after `delay`.
    pub fn send_self<T: Send + 'static>(&mut self, delay: SimTime, payload: T) {
        self.send(self.self_id, delay, payload);
    }

    /// The deterministic RNG shared by the whole simulation.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.core.rng
    }

    /// Refuses the message being dispatched, which the current component
    /// cannot use (see [`Component::on_msg`]): it is dropped and counted
    /// against the component under `what` for [`Engine::rejections`].
    /// Nothing is scheduled, so event order and counts do not move. Keep
    /// `what` free of per-message ids so the table stays bounded.
    pub fn reject(&mut self, what: impl Into<String>) {
        *self
            .core
            .rejected
            .entry((self.self_id, what.into()))
            .or_insert(0) += 1;
    }
}

/// A reply sink for harnesses and tests: keeps every `T` it receives,
/// with its arrival time, and rejects any other message.
pub struct Inbox<T> {
    messages: Vec<T>,
    arrivals: Vec<SimTime>,
}

impl<T> Inbox<T> {
    /// The messages kept, in arrival order.
    pub fn messages(&self) -> &[T] {
        &self.messages
    }

    /// When each of [`Inbox::messages`] arrived.
    pub fn arrivals(&self) -> &[SimTime] {
        &self.arrivals
    }
}

impl<T> Default for Inbox<T> {
    fn default() -> Self {
        Inbox {
            messages: Vec::new(),
            arrivals: Vec::new(),
        }
    }
}

impl<T: Send + 'static> Component for Inbox<T> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.downcast::<T>() {
            Ok(m) => {
                self.messages.push(m);
                self.arrivals.push(ctx.now());
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use std::sync::{Arc, Mutex};

    use rand::Rng;

    use super::*;

    type Recorder = Inbox<u32>;

    struct PingPong {
        peer: Option<ComponentId>,
        remaining: u32,
        bounces: u32,
    }

    struct Ball;

    impl Component for PingPong {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let _ = msg.downcast::<Ball>().expect("ball");
            self.bounces += 1;
            if self.remaining > 0 {
                self.remaining -= 1;
                let peer = self.peer.expect("peer wired");
                ctx.send(peer, SimTime::from_ns(10.0), Ball);
            }
        }
    }

    #[test]
    fn events_fire_in_time_order_with_fifo_ties() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        engine.post(rec, SimTime::from_ns(20.0), 2u32);
        engine.post(rec, SimTime::from_ns(10.0), 1u32);
        engine.post(rec, SimTime::from_ns(20.0), 3u32);
        engine.post(rec, SimTime::from_ns(20.0), 4u32);
        engine.run_until_idle();
        let rec = engine.component::<Recorder>(rec);
        assert_eq!(rec.messages(), &[1, 2, 3, 4]);
        assert_eq!(rec.arrivals()[0], SimTime::from_ns(10.0));
    }

    #[test]
    fn ping_pong_round_trips() {
        let mut engine = Engine::new(0);
        let a = engine.add_component(
            "a",
            PingPong {
                peer: None,
                remaining: 5,
                bounces: 0,
            },
        );
        let b = engine.add_component(
            "b",
            PingPong {
                peer: None,
                remaining: 5,
                bounces: 0,
            },
        );
        engine.component_mut::<PingPong>(a).peer = Some(b);
        engine.component_mut::<PingPong>(b).peer = Some(a);
        engine.post(a, SimTime::ZERO, Ball);
        engine.run_until_idle();
        let ba = engine.component::<PingPong>(a).bounces;
        let bb = engine.component::<PingPong>(b).bounces;
        // a: initial + returns; total bounces = 1 + 5 + 5 = 11 dispatches.
        assert_eq!(ba + bb, 11);
        assert_eq!(engine.now(), SimTime::from_ns(100.0));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        for i in 0..10 {
            engine.post(rec, SimTime::from_ns(i as f64 * 10.0), i as u32);
        }
        engine.run_until(SimTime::from_ns(45.0));
        assert_eq!(engine.component::<Recorder>(rec).messages().len(), 5);
        assert_eq!(engine.pending_events(), 5);
        engine.run_until_idle();
        assert_eq!(engine.component::<Recorder>(rec).messages().len(), 10);
    }

    #[test]
    fn call_at_sees_components() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        engine.post(rec, SimTime::from_ns(1.0), 7u32);
        engine.call_at(SimTime::from_ns(2.0), move |e| {
            let seen = e.component::<Recorder>(rec).messages().len();
            assert_eq!(seen, 1);
            e.post(rec, e.now(), 8u32);
        });
        engine.run_until_idle();
        assert_eq!(engine.component::<Recorder>(rec).messages().len(), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<u64> {
            let mut engine = Engine::new(seed);
            let mut out = Vec::new();
            for _ in 0..100 {
                out.push(engine.rng().gen());
            }
            out
        }
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// A component that claims to be waiting on another forever (models a
    /// lost message or credit starvation).
    struct Waiter {
        on: Option<ComponentId>,
        what: &'static str,
    }

    impl Component for Waiter {
        fn on_msg(&mut self, _ctx: &mut Ctx<'_>, _msg: Msg) {}

        fn outstanding(&self, out: &mut Vec<PendingWork>) {
            out.push(PendingWork {
                what: self.what.to_string(),
                waiting_on: self.on,
            });
        }
    }

    #[test]
    fn clean_drain_reports_no_deadlock() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        engine.post(rec, SimTime::from_ns(1.0), 1u32);
        engine.run_until_idle();
        assert!(engine.deadlock_report().is_none());
    }

    #[test]
    fn no_report_while_events_are_pending() {
        let mut engine = Engine::new(0);
        let w = engine.add_component(
            "w",
            Waiter {
                on: None,
                what: "x",
            },
        );
        engine.post(w, SimTime::from_ns(10.0), Ball);
        // Queue non-empty: the system may still make progress.
        assert!(engine.deadlock_report().is_none());
    }

    #[test]
    fn wait_for_cycle_is_detected_and_named() {
        let mut engine = Engine::new(0);
        let a = engine.add_component(
            "alpha",
            Waiter {
                on: None,
                what: "req 1",
            },
        );
        let b = engine.add_component(
            "beta",
            Waiter {
                on: None,
                what: "req 2",
            },
        );
        engine.component_mut::<Waiter>(a).on = Some(b);
        engine.component_mut::<Waiter>(b).on = Some(a);
        let report = engine.deadlock_report().expect("both components stuck");
        assert_eq!(report.stuck.len(), 2);
        assert_eq!(report.cycles.len(), 1);
        let cycle = &report.cycles[0];
        assert!(cycle.contains(&"alpha".to_string()));
        assert!(cycle.contains(&"beta".to_string()));
        let rendered = report.to_string();
        assert!(rendered.contains("wait-for cycle"));
        assert!(rendered.contains("req 1"));
    }

    #[test]
    fn acyclic_blockage_lists_stuck_without_cycles() {
        let mut engine = Engine::new(0);
        let sink = engine.add_component("sink", Recorder::default());
        let w = engine.add_component(
            "w",
            Waiter {
                on: None,
                what: "lost msg",
            },
        );
        engine.component_mut::<Waiter>(w).on = Some(sink);
        let report = engine.deadlock_report().expect("one component stuck");
        assert_eq!(report.stuck.len(), 1);
        assert_eq!(report.stuck[0].waiting_on.as_deref(), Some("sink"));
        assert!(report.cycles.is_empty());
    }

    #[test]
    fn self_wait_is_a_cycle_of_one() {
        let mut engine = Engine::new(0);
        let w = engine.add_component(
            "w",
            Waiter {
                on: None,
                what: "stuck",
            },
        );
        engine.component_mut::<Waiter>(w).on = Some(w);
        let report = engine.deadlock_report().expect("stuck on itself");
        assert_eq!(report.cycles, vec![vec!["w".to_string()]]);
    }

    /// A message of a type the receiver does not take is rejected: the
    /// run drains, the good messages are kept, and the report names the
    /// component, the type and the count after any stranded work.
    #[test]
    fn rejected_messages_are_counted_and_reported() {
        let mut engine = Engine::new(0);
        let inbox = engine.add_component("inbox", Recorder::default());
        let w = engine.add_component(
            "w",
            Waiter {
                on: None,
                what: "req 9",
            },
        );
        let early = engine.add_component("early", Inbox::<Ball>::default());
        for (i, at) in [1.0, 2.0, 3.0, 4.0].into_iter().enumerate() {
            engine.post(inbox, SimTime::from_ns(at), i as u32);
        }
        engine.post(inbox, SimTime::from_ns(2.5), Ball);
        engine.post(inbox, SimTime::from_ns(3.5), Ball);
        engine.post(early, SimTime::from_ns(5.0), 9u64);
        engine.post(w, SimTime::from_ns(6.0), Ball);
        engine.run_until_idle();
        assert_eq!(engine.events_dispatched(), 8);
        assert_eq!(
            engine.component::<Recorder>(inbox).messages(),
            &[0, 1, 2, 3]
        );
        let report = engine.deadlock_report().expect("rejections are reported");
        let stuck: Vec<(&str, &str)> = report
            .stuck
            .iter()
            .map(|s| (s.component.as_str(), s.what.as_str()))
            .collect();
        let ball = format!("rejected 2 message(s): {}", std::any::type_name::<Ball>());
        let expected = [
            ("w", "req 9"),
            ("inbox", ball.as_str()),
            ("early", "rejected 1 message(s): u64"),
        ];
        assert_eq!(stuck, expected);
        assert!(report.cycles.is_empty());
        assert_eq!(engine.rejections().count(), 2);
    }

    #[test]
    fn msg_downcast_fallthrough_preserves_payload() {
        let msg = Msg::new(5u32)
            .downcast::<String>()
            .expect_err("not a string");
        assert_eq!(msg.type_name(), std::any::type_name::<u32>());
        assert_eq!(msg.downcast::<u32>().expect("u32"), 5);
    }

    #[test]
    fn post_in_the_past_is_clamped_to_now() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        engine.post(rec, SimTime::from_ns(100.0), 1u32);
        engine.run_until_idle();
        // Posting at t=0 after the clock reached 100ns must not go backwards.
        engine.post(rec, SimTime::ZERO, 2u32);
        engine.run_until_idle();
        let arrivals = engine.component::<Recorder>(rec).arrivals();
        assert_eq!(arrivals[1], SimTime::from_ns(100.0));
    }

    #[test]
    fn trace_ring_keeps_the_tail() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        engine.enable_trace(3);
        for i in 0..10u32 {
            engine.post(rec, SimTime::from_ns(i as f64), i);
        }
        engine.run_until_idle();
        let trace: Vec<&TraceEntry> = engine.trace().collect();
        assert_eq!(trace.len(), 3, "ring keeps only the last 3");
        assert_eq!(trace[2].at, SimTime::from_ns(9.0));
        assert_eq!(engine.trace_target_name(trace[0]), "rec");
        assert!(trace[0].payload.contains("u32"));
    }

    /// A message of the dispatch-order test. Its children are a pure
    /// function of `tag`, so a replay can regenerate them.
    struct Spark {
        tag: u64,
        gen: u32,
    }

    /// One logged delivery: `(time ps, target index, tag)`.
    type Delivery = (u64, usize, u64);

    /// Relays each spark to its children and logs every delivery, in
    /// dispatch order across all components.
    struct Sparker {
        index: usize,
        peers: Vec<ComponentId>,
        log: Arc<Mutex<Vec<Delivery>>>,
    }

    const SPARK_TARGETS: usize = 4;
    const SPARK_GENS: u32 = 10;

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The children of spark `tag`: `(target, delay ps, tag)`. Delays are
    /// zero, under one calendar bucket (1024 ps), a few buckets, or past
    /// the ~4.2 µs window; the coarse grid makes same-time runs common.
    fn spark_children(tag: u64, gen: u32) -> Vec<(usize, u64, u64)> {
        if gen >= SPARK_GENS {
            return Vec::new();
        }
        let h = mix(tag);
        (0..h % 3)
            .map(|i| {
                let c = mix(h ^ (i + 1));
                let pick = (c >> 16) % 3;
                let delay = match (c >> 8) % 4 {
                    0 => 0,
                    1 => 256 * (1 + pick),
                    2 => 2048 << pick,
                    _ => 5_000_000 * (1 + pick),
                };
                ((c % SPARK_TARGETS as u64) as usize, delay, c)
            })
            .collect()
    }

    impl Component for Sparker {
        fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
            let spark = msg.downcast::<Spark>().expect("spark payload");
            let mut log = self.log.lock().expect("log lock");
            log.push((ctx.now().as_ps(), self.index, spark.tag));
            for (target, delay, tag) in spark_children(spark.tag, spark.gen) {
                let child = Spark {
                    tag,
                    gen: spark.gen + 1,
                };
                ctx.send(self.peers[target], SimTime::from_ps(delay), child);
            }
        }
    }

    /// `(time, seq, target, tag, gen)` of a spark awaiting replay.
    type QueuedSpark = (u64, u64, usize, u64, u32);

    /// The engine's dispatch order, replayed on a plain `BinaryHeap` of
    /// `(time, seq)` keys.
    #[derive(Default)]
    struct SparkReplay {
        heap: BinaryHeap<Reverse<QueuedSpark>>,
        seq: u64,
        now: u64,
        log: Vec<Delivery>,
    }

    impl SparkReplay {
        fn post(&mut self, target: usize, at: u64, tag: u64, gen: u32) {
            let at = at.max(self.now);
            self.heap.push(Reverse((at, self.seq, target, tag, gen)));
            self.seq += 1;
        }

        fn run_until(&mut self, deadline: u64) {
            while let Some(&Reverse((time, _, target, tag, gen))) = self.heap.peek() {
                if time > deadline {
                    break;
                }
                self.heap.pop();
                self.now = time;
                self.log.push((time, target, tag));
                for (child_target, delay, child_tag) in spark_children(tag, gen) {
                    self.post(child_target, time + delay, child_tag, gen + 1);
                }
            }
        }
    }

    /// The engine delivers one message per dispatch, in `(time, seq)`
    /// order, across bounded runs; same-time runs to one component (common
    /// on the coarse delay grid) deliver in posting order like any other.
    #[test]
    fn dispatch_order_and_batches_match_a_heap_replay() {
        for seed in 0..24u64 {
            let log = Arc::new(Mutex::new(Vec::new()));
            let mut engine = Engine::new(seed);
            // Components are numbered in insertion order.
            let ids: Vec<ComponentId> = (0..SPARK_TARGETS as u32).map(ComponentId).collect();
            for index in 0..SPARK_TARGETS {
                let sparker = Sparker {
                    index,
                    peers: ids.clone(),
                    log: log.clone(),
                };
                assert_eq!(
                    engine.add_component(format!("s{index}"), sparker),
                    ids[index]
                );
            }
            let mut replay = SparkReplay::default();
            // Harness posts between bounded runs: bursts at `now` (into the
            // cursor's own day), near and far, then a deadline that may fall
            // mid-bucket, several buckets out, or past the window.
            for round in 0..12u64 {
                for k in 0..6u64 {
                    let h = mix(seed << 32 | round << 8 | k);
                    let target = (h % SPARK_TARGETS as u64) as usize;
                    let at = engine.now().as_ps() + [0, 0, 512, 3072][(h >> 8) as usize % 4];
                    engine.post(ids[target], SimTime::from_ps(at), Spark { tag: h, gen: 0 });
                    replay.post(target, at, h, 0);
                }
                let span = [0, 700, 9000, 6_000_000][(mix(seed ^ round) % 4) as usize];
                let deadline = engine.now().as_ps() + span;
                engine.run_until(SimTime::from_ps(deadline));
                replay.run_until(deadline);
                assert_eq!(
                    engine.now().as_ps(),
                    replay.now,
                    "seed {seed} round {round}"
                );
            }
            engine.run_until_idle();
            replay.run_until(u64::MAX);
            let got = log.lock().expect("log lock");
            assert_eq!(*got, replay.log, "seed {seed}");
            assert_eq!(engine.events_dispatched(), got.len() as u64);
        }
    }

    #[test]
    fn thread_events_counter_flushes_on_drop() {
        let before = thread_events_dispatched();
        {
            let mut engine = Engine::new(0);
            let rec = engine.add_component("rec", Recorder::default());
            for i in 0..7u32 {
                engine.post(rec, SimTime::from_ns(i as f64 * 1000.0), i);
            }
            engine.run_until_idle();
            assert_eq!(engine.events_dispatched(), 7);
        }
        assert_eq!(thread_events_dispatched() - before, 7);
    }

    #[test]
    #[should_panic(expected = "is not a")]
    fn wrong_component_type_panics() {
        let mut engine = Engine::new(0);
        let rec = engine.add_component("rec", Recorder::default());
        let _ = engine.component::<PingPong>(rec);
    }
}
