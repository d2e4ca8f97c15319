//! Hardware cooperative scalable functions (design principle #3).
//!
//! "We propose a hardware cooperative scalable function for FAAs that
//! extends the capability of today's SR-IOV and scalable functions with an
//! active execution context. In addition to dedicated queueing resources,
//! each function defines (1) a domain-specific processing core; (2) a list
//! of message handlers, such as the actor programming model; (3) an
//! execution coordination sublayer" (§4 DP#3). The design "resembles the
//! TAM (Threaded Abstract Machine) and active messages".
//!
//! [`FaaEngine`] hosts several [`FunctionTemplate`]s on one accelerator
//! complex: each function has a dedicated submission queue and a handler
//! table; the engine runs functions cooperatively (round-robin with a
//! message quantum), paying a context save/restore cost when it switches
//! functions — the *fast context switching* the memory fabric enables
//! (§3 D#4), parameterized so experiments can contrast fabric-grade
//! (hundreds of ns) against communication-fabric-grade (µs) switch costs.

use std::collections::{HashMap, VecDeque};

use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, SimTime};

/// The cost model of one message handler.
#[derive(Debug, Clone, Copy)]
pub struct HandlerSpec {
    /// Fixed cost per invocation.
    pub per_msg: SimTime,
    /// Additional cost per payload byte (ns/byte).
    pub per_byte_ns: f64,
}

impl HandlerSpec {
    /// Service time for a payload of `bytes`.
    pub fn cost(&self, bytes: u32) -> SimTime {
        self.per_msg + SimTime::from_ns(self.per_byte_ns * bytes as f64)
    }
}

/// A scalable function: handlers plus dedicated queueing.
#[derive(Debug, Clone)]
pub struct FunctionTemplate {
    /// Function id (dense, engine-local).
    pub id: u32,
    /// Handler table: message kind → cost model.
    pub handlers: HashMap<u8, HandlerSpec>,
    /// Submission-queue depth (backpressure beyond it).
    pub queue_depth: usize,
}

impl FunctionTemplate {
    /// A template with one uniform handler (tests and simple FAAs).
    pub fn uniform(id: u32, per_msg: SimTime, per_byte_ns: f64, queue_depth: usize) -> Self {
        let mut handlers = HashMap::new();
        handlers.insert(
            0,
            HandlerSpec {
                per_msg,
                per_byte_ns,
            },
        );
        FunctionTemplate {
            id,
            handlers,
            queue_depth,
        }
    }
}

/// An invocation (active message) for a function on the engine.
#[derive(Debug, Clone, Copy)]
pub struct FnInvoke {
    /// Target function.
    pub function: u32,
    /// Handler selector.
    pub kind: u8,
    /// Payload size.
    pub bytes: u32,
    /// Caller tag echoed in [`FnDone`].
    pub tag: u64,
    /// Completion receiver.
    pub reply_to: ComponentId,
}

/// Completion of an invocation.
#[derive(Debug, Clone, Copy)]
pub struct FnDone {
    /// The invocation's tag.
    pub tag: u64,
    /// Queueing + service latency inside the engine.
    pub latency: SimTime,
    /// Whether the invocation was executed (false = queue overflow).
    pub ok: bool,
}

#[derive(Debug)]
struct QueuedInvoke {
    invoke: FnInvoke,
    arrived: SimTime,
}

#[derive(Debug)]
struct FunctionState {
    template: FunctionTemplate,
    sq: VecDeque<QueuedInvoke>,
}

/// Self-message: the engine finished the current handler.
#[derive(Debug, Clone, Copy)]
struct ServiceDone;

/// One FAA complex hosting cooperative scalable functions.
pub struct FaaEngine {
    functions: Vec<FunctionState>,
    /// Context save/restore cost when switching between functions.
    ctx_switch: SimTime,
    /// Messages a resident function may process before yielding.
    quantum: u32,
    current: Option<u32>,
    quantum_used: u32,
    busy: bool,
    /// Invocations executed.
    pub executed: Counter,
    /// Invocations rejected on queue overflow.
    pub rejected: Counter,
    /// Context switches performed.
    pub ctx_switches: Counter,
    /// Per-invocation latency (ps).
    pub latency: Histogram,
}

impl FaaEngine {
    /// Creates an engine hosting `functions`.
    ///
    /// # Panics
    ///
    /// Panics if `functions` is empty, ids are not dense `0..n`, or
    /// `quantum` is zero.
    pub fn new(functions: Vec<FunctionTemplate>, ctx_switch: SimTime, quantum: u32) -> Self {
        assert!(!functions.is_empty(), "engine needs functions");
        assert!(quantum > 0, "quantum must be positive");
        for (i, f) in functions.iter().enumerate() {
            assert_eq!(f.id as usize, i, "function ids must be dense 0..n");
        }
        FaaEngine {
            functions: functions
                .into_iter()
                .map(|template| FunctionState {
                    template,
                    sq: VecDeque::new(),
                })
                .collect(),
            ctx_switch,
            quantum,
            current: None,
            quantum_used: 0,
            busy: false,
            executed: Counter::new(),
            rejected: Counter::new(),
            ctx_switches: Counter::new(),
            latency: Histogram::new(),
        }
    }

    /// Queued invocations across all functions.
    pub fn backlog(&self) -> usize {
        self.functions.iter().map(|f| f.sq.len()).sum()
    }

    /// Picks the next function to run: the resident one while it has work
    /// and quantum, else round-robin among non-empty queues.
    fn pick_next(&mut self) -> Option<u32> {
        if let Some(cur) = self.current {
            if self.quantum_used < self.quantum && !self.functions[cur as usize].sq.is_empty() {
                return Some(cur);
            }
        }
        let n = self.functions.len() as u32;
        let start = self.current.map(|c| c + 1).unwrap_or(0);
        for off in 0..n {
            let cand = (start + off) % n;
            if !self.functions[cand as usize].sq.is_empty() {
                return Some(cand);
            }
        }
        None
    }

    fn service_next(&mut self, ctx: &mut Ctx<'_>) {
        if self.busy {
            return;
        }
        let Some(next) = self.pick_next() else {
            return;
        };
        let mut switch_cost = SimTime::ZERO;
        if self.current != Some(next) {
            if self.current.is_some() {
                switch_cost = self.ctx_switch;
                self.ctx_switches.inc();
            }
            self.current = Some(next);
            self.quantum_used = 0;
        }
        self.quantum_used += 1;
        let state = &mut self.functions[next as usize];
        // The scheduler only picks functions with a non-empty submission queue.
        #[allow(clippy::expect_used)]
        let queued = state.sq.pop_front().expect("picked non-empty");
        let handler = state
            .template
            .handlers
            .get(&queued.invoke.kind)
            .copied()
            .unwrap_or(HandlerSpec {
                per_msg: SimTime::from_ns(100.0),
                per_byte_ns: 0.0,
            });
        let service = switch_cost + handler.cost(queued.invoke.bytes);
        self.busy = true;
        self.executed.inc();
        let done_at = ctx.now() + service;
        let latency = done_at - queued.arrived;
        self.latency.record_time(latency);
        ctx.send(
            queued.invoke.reply_to,
            service,
            FnDone {
                tag: queued.invoke.tag,
                latency,
                ok: true,
            },
        );
        ctx.send_self(service, ServiceDone);
    }
}

impl Component for FaaEngine {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<FnInvoke>() {
            Ok(invoke) => {
                let Some(state) = self.functions.get_mut(invoke.function as usize) else {
                    self.rejected.inc();
                    return;
                };
                if state.sq.len() >= state.template.queue_depth {
                    self.rejected.inc();
                    ctx.send(
                        invoke.reply_to,
                        SimTime::ZERO,
                        FnDone {
                            tag: invoke.tag,
                            latency: SimTime::ZERO,
                            ok: false,
                        },
                    );
                    return;
                }
                state.sq.push_back(QueuedInvoke {
                    invoke,
                    arrived: ctx.now(),
                });
                self.service_next(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ServiceDone>() {
            Ok(ServiceDone) => {
                self.busy = false;
                self.service_next(ctx);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_sim::{Engine, Inbox};

    use super::*;

    type Sink = Inbox<FnDone>;

    fn engine_with(
        n_functions: u32,
        ctx_switch_ns: f64,
        quantum: u32,
    ) -> (Engine, ComponentId, ComponentId) {
        let mut engine = Engine::new(4);
        let sink = engine.add_component("sink", Sink::default());
        let functions = (0..n_functions)
            .map(|i| FunctionTemplate::uniform(i, SimTime::from_ns(500.0), 0.0, 64))
            .collect();
        let faa = engine.add_component(
            "faa",
            FaaEngine::new(functions, SimTime::from_ns(ctx_switch_ns), quantum),
        );
        (engine, faa, sink)
    }

    fn invoke(function: u32, tag: u64, sink: ComponentId) -> FnInvoke {
        FnInvoke {
            function,
            kind: 0,
            bytes: 0,
            tag,
            reply_to: sink,
        }
    }

    #[test]
    fn single_function_processes_in_order() {
        let (mut engine, faa, sink) = engine_with(1, 200.0, 8);
        for i in 0..5 {
            engine.post(faa, SimTime::ZERO, invoke(0, i, sink));
        }
        engine.run_until_idle();
        let s = engine.component::<Sink>(sink);
        let tags: Vec<u64> = s.messages().iter().map(|d| d.tag).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4]);
        // 5 x 500ns back-to-back, no switches.
        assert_eq!(engine.now(), SimTime::from_us(2.5));
        assert_eq!(engine.component::<FaaEngine>(faa).ctx_switches.get(), 0);
    }

    #[test]
    fn switching_between_functions_costs_context() {
        let (mut engine, faa, sink) = engine_with(2, 200.0, 1);
        // Alternate: with quantum 1 the engine must switch every message.
        for i in 0..4 {
            engine.post(faa, SimTime::ZERO, invoke((i % 2) as u32, i, sink));
        }
        engine.run_until_idle();
        let e = engine.component::<FaaEngine>(faa);
        assert_eq!(e.executed.get(), 4);
        assert_eq!(e.ctx_switches.get(), 3);
        // 4 * 500 + 3 * 200 = 2600ns.
        assert_eq!(engine.now(), SimTime::from_ns(2600.0));
    }

    #[test]
    fn larger_quantum_amortizes_switches() {
        let run = |quantum| {
            let (mut engine, faa, sink) = engine_with(2, 1000.0, quantum);
            for i in 0..16 {
                engine.post(faa, SimTime::ZERO, invoke((i % 2) as u32, i, sink));
            }
            engine.run_until_idle();
            (
                engine.now(),
                engine.component::<FaaEngine>(faa).ctx_switches.get(),
            )
        };
        let (t1, s1) = run(1);
        let (t8, s8) = run(8);
        assert!(s8 < s1, "quantum 8 switches less: {s8} vs {s1}");
        assert!(t8 < t1, "and finishes sooner: {t8} vs {t1}");
    }

    #[test]
    fn queue_overflow_backpressures() {
        let mut engine = Engine::new(4);
        let sink = engine.add_component("sink", Sink::default());
        let faa = engine.add_component(
            "faa",
            FaaEngine::new(
                vec![FunctionTemplate::uniform(0, SimTime::from_us(10.0), 0.0, 2)],
                SimTime::from_ns(200.0),
                4,
            ),
        );
        for i in 0..5 {
            engine.post(faa, SimTime::ZERO, invoke(0, i, sink));
        }
        engine.run_until_idle();
        let e = engine.component::<FaaEngine>(faa);
        // 1 in service + 2 queued; 2 rejected.
        assert_eq!(e.rejected.get(), 2);
        let s = engine.component::<Sink>(sink);
        let failed = s.messages().iter().filter(|d| !d.ok).count();
        assert_eq!(failed, 2);
    }

    #[test]
    fn per_byte_cost_scales_service_time() {
        let mut engine = Engine::new(4);
        let sink = engine.add_component("sink", Sink::default());
        let faa = engine.add_component(
            "faa",
            FaaEngine::new(
                vec![FunctionTemplate::uniform(
                    0,
                    SimTime::from_ns(100.0),
                    0.5,
                    8,
                )],
                SimTime::from_ns(200.0),
                4,
            ),
        );
        engine.post(
            faa,
            SimTime::ZERO,
            FnInvoke {
                function: 0,
                kind: 0,
                bytes: 4096,
                tag: 1,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        // 100 + 0.5 * 4096 = 2148ns.
        assert_eq!(engine.now(), SimTime::from_ns(2148.0));
    }

    #[test]
    fn unknown_function_rejected() {
        let (mut engine, faa, sink) = engine_with(1, 200.0, 4);
        engine.post(faa, SimTime::ZERO, invoke(7, 1, sink));
        engine.run_until_idle();
        assert_eq!(engine.component::<FaaEngine>(faa).rejected.get(), 1);
    }
}
