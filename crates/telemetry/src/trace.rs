//! The trace core: spans, tracks, and the shared [`TraceSink`].
//!
//! A sink is either *disabled* (the default — every emit is an `Option`
//! check and an immediate return) or *recording* (an `Arc<Mutex<…>>`
//! buffer shared by every [`Track`] handle cloned from it). Each engine
//! dispatches on one thread and a sink is only shared within one engine's
//! component graph, so the mutex is uncontended; it exists so sinks (and
//! the components holding [`Track`] handles) are `Send` and whole engines
//! can move onto the sharded executor's worker threads. Emit methods take
//! `&self`, letting components hold a handle without threading `&mut`
//! access through the engine.
//!
//! Spans are grouped two ways for display: by *process* (one per
//! experiment scenario, e.g. `e3b-alone` vs `e3b-bulk`) and by *track*
//! (one per component, e.g. `fha2` or `fs0.p1`). Trace ids tie the spans
//! of one transaction together across tracks.

use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

use fcc_sim::{DeadlockReport, SimTime};

use crate::metrics::MetricsRegistry;

/// Causal trace context carried alongside a transaction.
///
/// The id is the fabric-unique transaction id (`(node << 48) | seq`);
/// `0` marks untracked work (control flits, background chatter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TraceCtx {
    /// The trace id; `0` when untracked.
    pub id: u64,
}

impl TraceCtx {
    /// The untracked context.
    pub const NONE: TraceCtx = TraceCtx { id: 0 };

    /// Wraps a transaction id as a trace context.
    pub fn new(id: u64) -> Self {
        TraceCtx { id }
    }

    /// Whether this context tracks a real transaction.
    pub fn is_tracked(self) -> bool {
        self.id != 0
    }
}

/// How a [`SpanRecord`] renders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A duration (`ph: "X"` in the Chrome trace format).
    Complete,
    /// A point event (`ph: "i"`).
    Instant,
}

/// An interned span label: an index into the sink's label table.
///
/// Emitting a span stores this `u32` instead of cloning the label
/// `String`; the human-readable text is resolved at export time via
/// [`TraceSink::label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LabelId(pub u32);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Process group (scenario) the span belongs to.
    pub pid: u32,
    /// Track (component) the span belongs to.
    pub tid: u32,
    /// Category (`"credit"`, `"link"`, `"switch"`, `"fha"`, …).
    pub cat: &'static str,
    /// Interned human-readable label; resolve with [`TraceSink::label`].
    pub name: LabelId,
    /// Begin time in simulated picoseconds.
    pub begin_ps: u64,
    /// End time in simulated picoseconds (equals `begin_ps` for instants).
    pub end_ps: u64,
    /// Duration vs. point event.
    pub kind: SpanKind,
    /// The causal trace id (`0` = untracked).
    pub trace_id: u64,
}

#[derive(Default)]
pub(crate) struct TraceBuf {
    /// Process names; pid = index.
    pub(crate) processes: Vec<String>,
    /// Track registry: tid = index, value = (pid, track name). Tids are
    /// global (not per process) so a `Track` handle is a single integer.
    pub(crate) tracks: Vec<(u32, String)>,
    pub(crate) spans: Vec<SpanRecord>,
    /// Label table; `LabelId` = index. Labels are interned in first-use
    /// order, so the table's order is itself deterministic.
    pub(crate) labels: Vec<String>,
    /// Reverse map for interning (label text → id).
    label_index: std::collections::HashMap<String, u32>,
    /// Index of the last span pushed per `(track, category)`, for
    /// coalesced emission. Keyed by category so alternating emissions on
    /// one track (a credit wait between two serialize slots) don't break
    /// a burst's merge chain.
    last_by_tid: std::collections::HashMap<(u32, &'static str), usize>,
}

impl TraceBuf {
    fn intern(&mut self, name: &str) -> LabelId {
        if let Some(&id) = self.label_index.get(name) {
            return LabelId(id);
        }
        let id = self.labels.len() as u32;
        self.labels.push(name.to_string());
        self.label_index.insert(name.to_string(), id);
        LabelId(id)
    }

    fn push(&mut self, span: SpanRecord) {
        let key = (span.tid, span.cat);
        self.spans.push(span);
        let idx = self.spans.len() - 1;
        self.last_by_tid.insert(key, idx);
    }

    /// Pushes a complete span, coalescing it into the track's previous
    /// span when both describe the same work (same name, category, and
    /// trace id) and they touch (`span.begin <= prev.end`). Per-flit
    /// emitters (wire serialization, credit waits) use this so a bulk
    /// transfer's burst of near-identical micro-spans collapses into one
    /// span per transaction instead of one per flit.
    fn push_merged(&mut self, span: SpanRecord) {
        if let Some(&idx) = self.last_by_tid.get(&(span.tid, span.cat)) {
            let prev = &mut self.spans[idx];
            if prev.kind == SpanKind::Complete
                && prev.trace_id == span.trace_id
                && prev.name == span.name
                && span.begin_ps >= prev.begin_ps
                && span.begin_ps <= prev.end_ps
            {
                prev.end_ps = prev.end_ps.max(span.end_ps);
                return;
            }
        }
        self.push(span);
    }
}

/// A shared trace buffer handle. Cloning is cheap (an `Arc` bump); all
/// clones append to the same buffer.
#[derive(Clone, Default)]
pub struct TraceSink {
    inner: Option<Arc<Mutex<TraceBuf>>>,
}

/// Locks a trace buffer, recovering from poisoning: the buffer holds no
/// invariants a panicked emitter could break (appends only), so the data
/// recorded before the panic is still worth exporting.
fn lock(inner: &Mutex<TraceBuf>) -> MutexGuard<'_, TraceBuf> {
    inner.lock().unwrap_or_else(|e| e.into_inner())
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TraceSink({})",
            if self.inner.is_some() {
                "recording"
            } else {
                "disabled"
            }
        )
    }
}

impl TraceSink {
    /// The no-op sink: every emit returns immediately.
    pub fn disabled() -> Self {
        TraceSink::default()
    }

    /// A recording sink with an empty buffer.
    pub fn recording() -> Self {
        TraceSink {
            inner: Some(Arc::new(Mutex::new(TraceBuf::default()))),
        }
    }

    /// Whether spans are being collected.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Opens a new process group (scenario); tracks created afterwards
    /// belong to it. Returns the pid (0 on a disabled sink).
    pub fn begin_process(&self, name: &str) -> u32 {
        let Some(inner) = &self.inner else {
            return 0;
        };
        let mut buf = lock(inner);
        buf.processes.push(name.to_string());
        (buf.processes.len() - 1) as u32
    }

    /// Creates (or reuses) the named track under the current process.
    /// On a disabled sink this returns a no-op [`Track`].
    pub fn track(&self, name: &str) -> Track {
        let Some(inner) = &self.inner else {
            return Track::default();
        };
        let mut buf = lock(inner);
        if buf.processes.is_empty() {
            buf.processes.push("sim".to_string());
        }
        let pid = (buf.processes.len() - 1) as u32;
        let tid = match buf.tracks.iter().position(|(p, n)| *p == pid && n == name) {
            Some(tid) => tid,
            None => {
                buf.tracks.push((pid, name.to_string()));
                buf.tracks.len() - 1
            }
        };
        Track {
            sink: self.clone(),
            pid,
            tid: tid as u32,
        }
    }

    /// Number of spans recorded so far (0 on a disabled sink).
    pub fn span_count(&self) -> usize {
        self.with_buf(|b| b.spans.len()).unwrap_or(0)
    }

    /// A copy of every recorded span, in emission order.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.with_buf(|b| b.spans.clone()).unwrap_or_default()
    }

    /// Resolves an interned label to its text (empty on a disabled sink
    /// or an unknown id).
    pub fn label(&self, id: LabelId) -> String {
        self.with_buf(|b| b.labels.get(id.0 as usize).cloned())
            .flatten()
            .unwrap_or_default()
    }

    /// Consumes this handle and takes the recorded buffer out as a
    /// [`TraceDump`] that can cross threads. Returns `None` on a disabled
    /// sink. Handles still alive (tracks held by components, clones) keep
    /// an emptied buffer: whatever they emit afterwards is not in the dump.
    pub fn into_dump(self) -> Option<TraceDump> {
        let inner = self.inner?;
        let buf = std::mem::take(&mut *lock(&inner));
        Some(TraceDump {
            processes: buf.processes,
            tracks: buf.tracks,
            spans: buf.spans,
            labels: buf.labels,
        })
    }

    /// Appends a [`TraceDump`] to this sink, renumbering its pids, tids,
    /// and label ids after the sink's own. Absorbing per-scenario dumps
    /// in scenario order reproduces exactly the buffer a single shared
    /// sink would have recorded serially — the determinism hinge of the
    /// parallel experiment harness. No-op on a disabled sink.
    pub fn absorb(&self, dump: TraceDump) {
        let Some(inner) = &self.inner else {
            return;
        };
        let mut buf = lock(inner);
        let pid_off = buf.processes.len() as u32;
        buf.processes.extend(dump.processes);
        let tid_off = buf.tracks.len() as u32;
        buf.tracks
            .extend(dump.tracks.into_iter().map(|(p, n)| (p + pid_off, n)));
        // Interning the dump's labels in table order reproduces the
        // first-use order a serial run would have produced.
        let label_map: Vec<LabelId> = dump.labels.iter().map(|l| buf.intern(l)).collect();
        buf.spans.extend(dump.spans.into_iter().map(|mut s| {
            s.pid += pid_off;
            s.tid += tid_off;
            s.name = label_map[s.name.0 as usize];
            s
        }));
    }

    pub(crate) fn with_buf<R>(&self, f: impl FnOnce(&TraceBuf) -> R) -> Option<R> {
        self.inner.as_ref().map(|inner| f(&lock(inner)))
    }
}

/// An owned, thread-transferable snapshot of a recording sink's buffer.
///
/// Produced by [`TraceSink::into_dump`] on a worker thread and re-attached
/// to a main-thread sink with [`TraceSink::absorb`]. All ids (pids, tids,
/// label ids) are local to the dump; `absorb` renumbers them.
#[derive(Debug)]
pub struct TraceDump {
    /// Process names; dump-local pid = index.
    pub processes: Vec<String>,
    /// Track registry (dump-local pid, name); dump-local tid = index.
    pub tracks: Vec<(u32, String)>,
    /// Recorded spans with dump-local ids.
    pub spans: Vec<SpanRecord>,
    /// Label table; dump-local `LabelId` = index.
    pub labels: Vec<String>,
}

/// A component's handle onto one track of a [`TraceSink`].
///
/// The default value is permanently disabled, so components can hold a
/// `Track` field unconditionally and only pay an `Option` check per emit
/// until tracing is wired up.
#[derive(Clone, Default)]
pub struct Track {
    sink: TraceSink,
    /// The process the track was created under; a track never moves.
    pid: u32,
    tid: u32,
}

impl fmt::Debug for Track {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Track(tid={}, {:?})", self.tid, self.sink)
    }
}

impl Track {
    /// Whether emits on this track are collected. Check before building
    /// span names that would allocate.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Interns `name` and pushes (or, with `merge`, coalesces) one span,
    /// all under one lock of the sink.
    fn emit(
        &self,
        cat: &'static str,
        name: &str,
        (begin, end): (SimTime, SimTime),
        kind: SpanKind,
        ctx: TraceCtx,
        merge: bool,
    ) {
        let Some(inner) = &self.sink.inner else {
            return;
        };
        let mut buf = lock(inner);
        let span = SpanRecord {
            pid: self.pid,
            tid: self.tid,
            cat,
            name: buf.intern(name),
            begin_ps: begin.as_ps(),
            end_ps: end.as_ps().max(begin.as_ps()),
            kind,
            trace_id: ctx.id,
        };
        if merge {
            buf.push_merged(span);
        } else {
            buf.push(span);
        }
    }

    /// Records a duration span `[begin, end]`.
    pub fn span(&self, cat: &'static str, name: &str, begin: SimTime, end: SimTime, ctx: TraceCtx) {
        self.emit(cat, name, (begin, end), SpanKind::Complete, ctx, false);
    }

    /// Records a duration span, coalescing it with the immediately
    /// preceding span on this track when both have the same name,
    /// category, and trace id and overlap or touch in time. Use for
    /// per-flit emissions where a burst means one logical occupancy.
    pub fn span_merged(
        &self,
        cat: &'static str,
        name: &str,
        begin: SimTime,
        end: SimTime,
        ctx: TraceCtx,
    ) {
        self.emit(cat, name, (begin, end), SpanKind::Complete, ctx, true);
    }

    /// [`Track::span_merged`] for waits: degenerate spans (`end <=
    /// begin`) are dropped instead of recorded.
    pub fn span_nonzero_merged(
        &self,
        cat: &'static str,
        name: &str,
        begin: SimTime,
        end: SimTime,
        ctx: TraceCtx,
    ) {
        if end > begin {
            self.span_merged(cat, name, begin, end, ctx);
        }
    }

    /// Records a duration span only when it is non-degenerate
    /// (`end > begin`); zero-length waits stay out of the trace.
    pub fn span_nonzero(
        &self,
        cat: &'static str,
        name: &str,
        begin: SimTime,
        end: SimTime,
        ctx: TraceCtx,
    ) {
        if end > begin {
            self.span(cat, name, begin, end, ctx);
        }
    }

    /// Records a point event.
    pub fn instant(&self, cat: &'static str, name: &str, at: SimTime, ctx: TraceCtx) {
        self.emit(cat, name, (at, at), SpanKind::Instant, ctx, false);
    }
}

/// Lands a [`DeadlockReport`] in both observability streams: one instant
/// event per stuck component (plus one per wait-for cycle) on a dedicated
/// `deadlock` track, and counters in the metrics registry.
///
/// `Engine::deadlock_report` only *returns* its findings; harnesses that
/// export traces must call this so a wedged run is visible in the trace
/// file itself, not just on stderr.
pub fn record_deadlock(
    sink: &TraceSink,
    metrics: &mut MetricsRegistry,
    report: &DeadlockReport,
    now: SimTime,
) {
    let track = sink.track("deadlock");
    for s in &report.stuck {
        let name = match &s.waiting_on {
            Some(target) => format!("deadlock: {} [{}] waiting on {target}", s.component, s.what),
            None => format!("deadlock: {} [{}]", s.component, s.what),
        };
        track.instant("deadlock", &name, now, TraceCtx::NONE);
    }
    for cycle in &report.cycles {
        track.instant(
            "deadlock",
            &format!("wait-for cycle: {}", cycle.join(" -> ")),
            now,
            TraceCtx::NONE,
        );
    }
    metrics.add_counter("sim.deadlock.stuck_components", report.stuck.len() as u64);
    metrics.add_counter("sim.deadlock.cycles", report.cycles.len() as u64);
}

#[cfg(test)]
mod tests {
    use fcc_sim::StuckComponent;

    use super::*;

    #[test]
    fn disabled_sink_collects_nothing() {
        let sink = TraceSink::disabled();
        let track = sink.track("t");
        assert!(!track.is_enabled());
        track.span(
            "cat",
            "name",
            SimTime::ZERO,
            SimTime::from_ns(5.0),
            TraceCtx::new(1),
        );
        track.instant("cat", "p", SimTime::ZERO, TraceCtx::NONE);
        assert_eq!(sink.span_count(), 0);
        assert!(sink.spans().is_empty());
    }

    #[test]
    fn default_track_is_disabled() {
        let track = Track::default();
        assert!(!track.is_enabled());
        track.span(
            "c",
            "n",
            SimTime::ZERO,
            SimTime::from_ns(1.0),
            TraceCtx::NONE,
        );
    }

    #[test]
    fn spans_nest_and_interleave_across_tracks() {
        let sink = TraceSink::recording();
        let outer = sink.track("component-a");
        let inner = sink.track("component-b");
        let id = TraceCtx::new(0x1_0000_0000_0001);
        // Outer covers [0, 100]; inner child covers [20, 60] on another
        // track — the classic per-hop nesting an RTT span contains.
        outer.span("fha", "rtt", SimTime::ZERO, SimTime::from_ns(100.0), id);
        inner.span(
            "device",
            "service",
            SimTime::from_ns(20.0),
            SimTime::from_ns(60.0),
            id,
        );
        let spans = sink.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].tid, 0);
        assert_eq!(spans[1].tid, 1);
        assert_eq!(spans[0].trace_id, spans[1].trace_id);
        // The child nests strictly inside the parent.
        assert!(spans[1].begin_ps >= spans[0].begin_ps);
        assert!(spans[1].end_ps <= spans[0].end_ps);
    }

    #[test]
    fn track_is_reused_by_name_within_a_process() {
        let sink = TraceSink::recording();
        let a = sink.track("x");
        let b = sink.track("x");
        a.instant("c", "1", SimTime::ZERO, TraceCtx::NONE);
        b.instant("c", "2", SimTime::ZERO, TraceCtx::NONE);
        let spans = sink.spans();
        assert_eq!(spans[0].tid, spans[1].tid);
    }

    #[test]
    fn processes_partition_tracks() {
        let sink = TraceSink::recording();
        let p0 = sink.begin_process("alone");
        let t0 = sink.track("fha1");
        let p1 = sink.begin_process("bulk");
        let t1 = sink.track("fha1");
        assert_ne!(p0, p1);
        t0.instant("c", "a", SimTime::ZERO, TraceCtx::NONE);
        t1.instant("c", "b", SimTime::ZERO, TraceCtx::NONE);
        let spans = sink.spans();
        assert_eq!(spans[0].pid, p0);
        assert_eq!(spans[1].pid, p1);
        assert_ne!(spans[0].tid, spans[1].tid, "same name, distinct process");
    }

    #[test]
    fn span_merged_coalesces_flit_bursts() {
        let sink = TraceSink::recording();
        let t = sink.track("port");
        let id = TraceCtx::new(7);
        // Three contiguous serialize micro-spans of one transaction.
        t.span_merged(
            "link",
            "link.serialize",
            SimTime::ZERO,
            SimTime::from_ns(2.0),
            id,
        );
        t.span_merged(
            "link",
            "link.serialize",
            SimTime::from_ns(2.0),
            SimTime::from_ns(4.0),
            id,
        );
        t.span_merged(
            "link",
            "link.serialize",
            SimTime::from_ns(4.0),
            SimTime::from_ns(6.0),
            id,
        );
        // A different transaction must NOT merge, even when contiguous.
        t.span_merged(
            "link",
            "link.serialize",
            SimTime::from_ns(6.0),
            SimTime::from_ns(8.0),
            TraceCtx::new(8),
        );
        // A gap on the wire must not merge either.
        t.span_merged(
            "link",
            "link.serialize",
            SimTime::from_ns(50.0),
            SimTime::from_ns(52.0),
            TraceCtx::new(8),
        );
        let spans = sink.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].begin_ps, 0);
        assert_eq!(spans[0].end_ps, SimTime::from_ns(6.0).as_ps());
        assert_eq!(spans[1].trace_id, 8);
        assert_eq!(spans[2].begin_ps, SimTime::from_ns(50.0).as_ps());
    }

    #[test]
    fn span_merged_same_origin_waits_collapse() {
        let sink = TraceSink::recording();
        let t = sink.track("port");
        let id = TraceCtx::new(9);
        // Credit waits of one payload burst: same begin, growing ends.
        for end in [10.0, 20.0, 30.0] {
            t.span_nonzero_merged(
                "credit",
                "link.credit_wait",
                SimTime::ZERO,
                SimTime::from_ns(end),
                id,
            );
        }
        let spans = sink.spans();
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].end_ps, SimTime::from_ns(30.0).as_ps());
        // An interleaved span on another track does not break the chain
        // of the first track's merges.
        let other = sink.track("other");
        other.span(
            "c",
            "x",
            SimTime::ZERO,
            SimTime::from_ns(1.0),
            TraceCtx::NONE,
        );
        t.span_nonzero_merged(
            "credit",
            "link.credit_wait",
            SimTime::from_ns(15.0),
            SimTime::from_ns(40.0),
            id,
        );
        assert_eq!(sink.span_count(), 2, "overlap still merges per track");
    }

    #[test]
    fn span_nonzero_drops_degenerate_waits() {
        let sink = TraceSink::recording();
        let t = sink.track("t");
        t.span_nonzero(
            "c",
            "wait",
            SimTime::from_ns(5.0),
            SimTime::from_ns(5.0),
            TraceCtx::NONE,
        );
        assert_eq!(sink.span_count(), 0);
        t.span_nonzero(
            "c",
            "wait",
            SimTime::from_ns(5.0),
            SimTime::from_ns(6.0),
            TraceCtx::NONE,
        );
        assert_eq!(sink.span_count(), 1);
    }

    /// Emits a small scenario's worth of spans into `sink` under the
    /// given process name, with labels shared across scenarios.
    fn emit_scenario(sink: &TraceSink, process: &str, salt: u64) {
        sink.begin_process(process);
        let t = sink.track("fha1");
        t.span(
            "fha",
            "rtt",
            SimTime::from_ns(salt as f64),
            SimTime::from_ns(salt as f64 + 10.0),
            TraceCtx::new(salt + 1),
        );
        let u = sink.track("port");
        u.instant(
            "link",
            &format!("evt-{process}"),
            SimTime::ZERO,
            TraceCtx::NONE,
        );
        u.instant("link", "shared-label", SimTime::ZERO, TraceCtx::NONE);
    }

    #[test]
    fn absorbed_dumps_reproduce_the_serial_buffer_byte_for_byte() {
        // Serial reference: one sink records both scenarios directly.
        let serial = TraceSink::recording();
        emit_scenario(&serial, "s0", 100);
        emit_scenario(&serial, "s1", 200);

        // Parallel shape: each scenario records into its own sink; the
        // dumps are absorbed in scenario order.
        let merged = TraceSink::recording();
        for (process, salt) in [("s0", 100), ("s1", 200)] {
            let local = TraceSink::recording();
            emit_scenario(&local, process, salt);
            let dump = local.into_dump().expect("recording sink dumps");
            merged.absorb(dump);
        }

        assert_eq!(serial.to_chrome_json(), merged.to_chrome_json());
    }

    #[test]
    fn into_dump_with_live_track_takes_the_whole_buffer() {
        let sink = TraceSink::recording();
        sink.begin_process("p");
        let t = sink.track("t");
        t.span(
            "c",
            "x",
            SimTime::ZERO,
            SimTime::from_ns(3.0),
            TraceCtx::new(4),
        );
        t.instant("c", "y", SimTime::from_ns(1.0), TraceCtx::NONE);
        let before = sink.spans();
        // `t` still shares the buffer while the dump is taken.
        let dump = sink.clone().into_dump().expect("dump");
        assert_eq!(dump.processes, vec!["p".to_string()]);
        assert_eq!(dump.tracks, vec![(0, "t".to_string())]);
        assert_eq!(dump.labels, vec!["x".to_string(), "y".to_string()]);
        assert_eq!(format!("{:?}", dump.spans), format!("{before:?}"));
        // The buffer moved into the dump; the live handle keeps an empty one.
        assert_eq!(sink.span_count(), 0);
    }

    #[test]
    fn deadlock_report_lands_in_trace_and_metrics() {
        let report = DeadlockReport {
            stuck: vec![StuckComponent {
                component: "fha1".to_string(),
                what: "txn 0x1 awaiting fabric response".to_string(),
                waiting_on: Some("fs0".to_string()),
            }],
            cycles: vec![vec!["fha1".to_string(), "fs0".to_string()]],
        };
        let sink = TraceSink::recording();
        let mut metrics = MetricsRegistry::new();
        record_deadlock(&sink, &mut metrics, &report, SimTime::from_ns(500.0));
        let spans = sink.spans();
        assert_eq!(spans.len(), 2, "one stuck component + one cycle");
        assert!(spans.iter().all(|s| s.cat == "deadlock"));
        assert!(sink.label(spans[0].name).contains("fha1"));
        assert!(sink.label(spans[0].name).contains("waiting on fs0"));
        assert!(sink.label(spans[1].name).contains("wait-for cycle"));
        assert_eq!(metrics.counter("sim.deadlock.stuck_components"), Some(1));
        assert_eq!(metrics.counter("sim.deadlock.cycles"), Some(1));
    }
}
