//! The CPU core model: drives access streams through the hierarchy.
//!
//! §3 D#1: memory-fabric loads are synchronous — "during the data
//! transfer, the current CPU pipeline is stalled and resumed after
//! receiving the response" — and per-core fabric throughput is bounded by
//! "the number of outstanding load/store instructions that it can submit
//! in its pipeline". [`CpuCore`] models exactly that: a *dependent* stream
//! issues one access at a time (latency measurement), an *independent*
//! stream keeps up to `window` accesses in flight (throughput
//! measurement); remote misses leave through an FHA and stall their slot
//! until the fabric answers.

use std::collections::HashMap;

use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_sim::{Component, ComponentId, Ctx, Histogram, Msg, SimTime, SummaryNs};

use crate::hierarchy::{MemoryHierarchy, ServiceLevel};
use crate::prefetch::StridePrefetcher;

/// The access stream a run executes.
#[derive(Debug, Clone, Copy)]
pub enum AccessPattern {
    /// Pointer-chase semantics: the next access issues only after the
    /// previous completed. Measures latency.
    Dependent {
        /// First address.
        base: u64,
        /// Region size; addresses wrap within it.
        region: u64,
        /// Address increment per access.
        stride: u64,
        /// Measured accesses.
        count: u64,
        /// Whether accesses are writes.
        write: bool,
        /// Un-measured warm-up passes over the region.
        warmup_passes: u32,
    },
    /// Up to `window` accesses in flight. Measures throughput.
    Independent {
        /// First address.
        base: u64,
        /// Region size; addresses wrap within it.
        region: u64,
        /// Address increment per access.
        stride: u64,
        /// Measured accesses.
        count: u64,
        /// Whether accesses are writes.
        write: bool,
        /// Un-measured warm-up passes over the region.
        warmup_passes: u32,
    },
}

impl AccessPattern {
    fn params(&self) -> (u64, u64, u64, u64, bool, u32) {
        match *self {
            AccessPattern::Dependent {
                base,
                region,
                stride,
                count,
                write,
                warmup_passes,
            }
            | AccessPattern::Independent {
                base,
                region,
                stride,
                count,
                write,
                warmup_passes,
            } => (base, region, stride, count, write, warmup_passes),
        }
    }

    fn is_dependent(&self) -> bool {
        matches!(self, AccessPattern::Dependent { .. })
    }
}

/// Starts a measurement run on a [`CpuCore`].
#[derive(Debug, Clone, Copy)]
pub struct StartRun {
    /// The stream to execute.
    pub pattern: AccessPattern,
    /// Component notified with [`RunDone`].
    pub reply_to: ComponentId,
}

/// Results of a completed run.
#[derive(Debug, Clone)]
pub struct CoreReport {
    /// Measured operations.
    pub ops: u64,
    /// Wall-clock (simulated) duration of the measured phase.
    pub elapsed: SimTime,
    /// Per-access latency distribution (ns).
    pub latency: SummaryNs,
    /// Accesses served per level during measurement: `[l1, l2, local, remote]`.
    pub served: [u64; 4],
    /// Prefetches issued during the run.
    pub prefetches: u64,
}

impl CoreReport {
    /// Throughput in million operations per second.
    pub fn mops(&self) -> f64 {
        if self.elapsed == SimTime::ZERO {
            0.0
        } else {
            self.ops as f64 / self.elapsed.as_us()
        }
    }
}

/// Completion notice for a finished run.
#[derive(Debug, Clone)]
pub struct RunDone {
    /// The report.
    pub report: CoreReport,
}

/// Self-message: a locally-served access completed.
#[derive(Debug, Clone, Copy)]
struct LocalDone {
    tag: u64,
}

#[derive(Debug, Clone, Copy)]
struct InFlight {
    issued_at: SimTime,
    measured: bool,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Warmup,
    Measure,
}

struct RunState {
    pattern: AccessPattern,
    reply_to: ComponentId,
    phase: Phase,
    warmup_left: u64,
    next_index: u64,
    issued: u64,
    completed: u64,
    in_flight: HashMap<u64, InFlight>,
    next_tag: u64,
    started_at: SimTime,
    latency: Histogram,
    served_at_start: [u64; 4],
    last_completion: SimTime,
}

/// A CPU core bound to a memory hierarchy and (optionally) an FHA.
pub struct CpuCore {
    /// The hierarchy (public for probes and seeding).
    pub hierarchy: MemoryHierarchy,
    fha: Option<ComponentId>,
    window: usize,
    prefetcher: Option<StridePrefetcher>,
    run: Option<RunState>,
    trace: fcc_telemetry::Track,
}

impl CpuCore {
    /// Creates a core with the given hierarchy and load/store window depth.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(hierarchy: MemoryHierarchy, window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        CpuCore {
            hierarchy,
            fha: None,
            window,
            prefetcher: None,
            run: None,
            trace: fcc_telemetry::Track::default(),
        }
    }

    /// Binds the core to a host adapter for remote misses.
    pub fn set_fha(&mut self, fha: ComponentId) {
        self.fha = Some(fha);
    }

    /// Attaches a telemetry track; the core then emits a span covering
    /// each remote miss from FHA issue to completion delivery.
    pub fn set_trace(&mut self, track: fcc_telemetry::Track) {
        self.trace = track;
    }

    /// Enables a stride prefetcher.
    pub fn set_prefetcher(&mut self, p: StridePrefetcher) {
        self.prefetcher = Some(p);
    }

    fn window_for(&self, pattern: &AccessPattern) -> usize {
        if pattern.is_dependent() {
            1
        } else {
            self.window
        }
    }

    fn next_addr(run: &mut RunState) -> Option<(u64, bool)> {
        let (base, region, stride, count, write, _) = run.pattern.params();
        match run.phase {
            Phase::Warmup => {
                if run.warmup_left == 0 {
                    return None;
                }
                run.warmup_left -= 1;
                let i = run.next_index;
                run.next_index += 1;
                Some((base + (i * stride) % region, write))
            }
            Phase::Measure => {
                if run.issued >= count {
                    return None;
                }
                let i = run.next_index;
                run.next_index += 1;
                run.issued += 1;
                Some((base + (i * stride) % region, write))
            }
        }
    }

    fn issue_until_full(&mut self, ctx: &mut Ctx<'_>) {
        let Some(run) = self.run.as_ref() else {
            return;
        };
        let window = self.window_for(&run.pattern);
        loop {
            // Checked `Some` at entry and never cleared inside the loop.
            #[allow(clippy::expect_used)]
            let run = self.run.as_mut().expect("active run");
            if run.in_flight.len() >= window {
                break;
            }
            let Some((addr, write)) = Self::next_addr(run) else {
                break;
            };
            let measured = run.phase == Phase::Measure;
            let tag = run.next_tag;
            run.next_tag += 1;
            run.in_flight.insert(
                tag,
                InFlight {
                    issued_at: ctx.now(),
                    measured,
                },
            );
            self.issue_access(ctx, tag, addr, write);
        }
    }

    fn issue_access(&mut self, ctx: &mut Ctx<'_>, tag: u64, addr: u64, write: bool) {
        // Prefetcher observes demand accesses and fills ahead.
        let prefetch_addrs: Vec<u64> = match self.prefetcher.as_mut() {
            Some(p) => p.observe(addr),
            None => Vec::new(),
        };
        for pa in prefetch_addrs {
            if let Some(run) = self.run.as_mut() {
                // Prefetch fills are free in this model for local tiers
                // (they ride spare bandwidth) and are issued as plain
                // fabric reads for remote lines, not counted as ops.
                let plan = self.hierarchy.access(pa, false, ctx.now());
                if plan.level == ServiceLevel::Remote {
                    if let Some(fha) = self.fha {
                        let pf_tag = run.next_tag;
                        run.next_tag += 1;
                        ctx.send(
                            fha,
                            SimTime::ZERO,
                            HostRequest {
                                op: HostOp::Read {
                                    addr: pa,
                                    bytes: 64,
                                },
                                tag: pf_tag,
                                reply_to: ctx.self_id(),
                            },
                        );
                    }
                }
            }
        }
        let plan = self.hierarchy.access(addr, write, ctx.now());
        match plan.level {
            ServiceLevel::Remote => {
                // A hierarchy that returns Remote is only built when an FHA is wired.
                #[allow(clippy::expect_used)]
                let fha = self.fha.expect("remote access without an FHA");
                let op = if write {
                    HostOp::Write { addr, bytes: 64 }
                } else {
                    HostOp::Read { addr, bytes: 64 }
                };
                ctx.send(
                    fha,
                    plan.latency,
                    HostRequest {
                        op,
                        tag,
                        reply_to: ctx.self_id(),
                    },
                );
            }
            _ => {
                ctx.send_self(plan.ready_at - ctx.now(), LocalDone { tag });
            }
        }
    }

    fn complete(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let Some(run) = self.run.as_mut() else {
            return;
        };
        let Some(inflight) = run.in_flight.remove(&tag) else {
            // A prefetch completion: ignore.
            return;
        };
        if inflight.measured {
            run.completed += 1;
            run.latency.record_time(ctx.now() - inflight.issued_at);
            run.last_completion = ctx.now();
        }
        // Phase transition: warm-up drained?
        let (_, _, _, count, _, _) = run.pattern.params();
        if run.phase == Phase::Warmup && run.warmup_left == 0 && run.in_flight.is_empty() {
            run.phase = Phase::Measure;
            run.started_at = ctx.now();
            run.served_at_start = self.hierarchy.served;
        }
        let done = run.phase == Phase::Measure && run.completed >= count;
        if done {
            // `done` was computed from `run` a few lines above.
            #[allow(clippy::expect_used)]
            let run = self.run.take().expect("active");
            let served = [
                self.hierarchy.served[0] - run.served_at_start[0],
                self.hierarchy.served[1] - run.served_at_start[1],
                self.hierarchy.served[2] - run.served_at_start[2],
                self.hierarchy.served[3] - run.served_at_start[3],
            ];
            let report = CoreReport {
                ops: run.completed,
                elapsed: run.last_completion - run.started_at,
                latency: run.latency.summary_ns(),
                served,
                prefetches: self.prefetcher.as_ref().map(|p| p.issued).unwrap_or(0),
            };
            ctx.send(run.reply_to, SimTime::ZERO, RunDone { report });
            return;
        }
        self.issue_until_full(ctx);
    }
}

impl Component for CpuCore {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartRun>() {
            Ok(start) => {
                if self.run.is_some() {
                    return ctx.reject("run started while one is active");
                }
                let (_, region, stride, _, _, warmup_passes) = start.pattern.params();
                let per_pass = (region / stride.max(1)).max(1);
                self.run = Some(RunState {
                    pattern: start.pattern,
                    reply_to: start.reply_to,
                    phase: if warmup_passes > 0 {
                        Phase::Warmup
                    } else {
                        Phase::Measure
                    },
                    warmup_left: warmup_passes as u64 * per_pass,
                    next_index: 0,
                    issued: 0,
                    completed: 0,
                    in_flight: HashMap::new(),
                    next_tag: 1,
                    started_at: ctx.now(),
                    latency: Histogram::new(),
                    served_at_start: self.hierarchy.served,
                    last_completion: ctx.now(),
                });
                self.issue_until_full(ctx);
                return;
            }
            Err(m) => m,
        };
        let msg = match msg.downcast::<LocalDone>() {
            Ok(done) => {
                self.complete(ctx, done.tag);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<HostCompletion>() {
            Ok(hc) => {
                self.trace.span_nonzero(
                    "cache",
                    "cache.remote_miss",
                    hc.issued_at,
                    hc.completed_at,
                    fcc_telemetry::TraceCtx::NONE,
                );
                self.complete(ctx, hc.tag);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_sim::{Engine, Inbox};

    use crate::hierarchy::HierarchyConfig;

    use super::*;

    type Sink = Inbox<RunDone>;

    fn run_local(pattern: AccessPattern, window: usize) -> CoreReport {
        let mut engine = Engine::new(2);
        let sink = engine.add_component("sink", Sink::default());
        let core = engine.add_component(
            "core",
            CpuCore::new(MemoryHierarchy::new(HierarchyConfig::omega_like()), window),
        );
        engine.post(
            core,
            SimTime::ZERO,
            StartRun {
                pattern,
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        engine
            .component::<Sink>(sink)
            .messages()
            .last()
            .expect("run finished")
            .report
            .clone()
    }

    #[test]
    fn l1_dependent_latency_is_5_4ns() {
        let report = run_local(
            AccessPattern::Dependent {
                base: 0,
                region: 16 * 1024,
                stride: 64,
                count: 2000,
                write: false,
                warmup_passes: 1,
            },
            16,
        );
        assert!(
            (report.latency.mean - 5.4).abs() < 0.3,
            "{:?}",
            report.latency
        );
        assert_eq!(report.served[0], 2000, "all L1 after warmup");
    }

    #[test]
    fn l1_independent_throughput_is_357_mops() {
        let report = run_local(
            AccessPattern::Independent {
                base: 0,
                region: 16 * 1024,
                stride: 64,
                count: 20_000,
                write: false,
                warmup_passes: 1,
            },
            16,
        );
        let mops = report.mops();
        assert!((mops - 357.0).abs() < 25.0, "L1 throughput {mops}");
    }

    #[test]
    fn l2_dependent_latency_is_13_6ns() {
        let report = run_local(
            AccessPattern::Dependent {
                // 512 KiB region: beyond L1, within L2.
                base: 0,
                region: 512 * 1024,
                stride: 64,
                count: 4000,
                write: false,
                warmup_passes: 2,
            },
            16,
        );
        // A 64 KiB slice of the sweep still hits L1.
        let l2_share = report.served[1] as f64 / report.ops as f64;
        assert!(l2_share > 0.8, "mostly L2: {l2_share}");
        assert!(
            report.latency.mean > 12.0 && report.latency.mean < 14.5,
            "L2 latency {}",
            report.latency.mean
        );
    }

    #[test]
    fn local_memory_latency_and_throughput_match_table2() {
        // 16 MiB region with a 4 KiB stride defeats both caches.
        let dep = run_local(
            AccessPattern::Dependent {
                base: 0,
                region: 16 * 1024 * 1024,
                stride: 4096,
                count: 3000,
                write: false,
                warmup_passes: 0,
            },
            16,
        );
        assert!(
            (dep.latency.mean - 111.7).abs() < 5.0,
            "local read latency {}",
            dep.latency.mean
        );
        let ind = run_local(
            AccessPattern::Independent {
                base: 0,
                region: 16 * 1024 * 1024,
                stride: 4096,
                count: 20_000,
                write: false,
                warmup_passes: 0,
            },
            16,
        );
        let mops = ind.mops();
        assert!((mops - 29.4).abs() < 3.0, "local read MOPS {mops}");
    }

    #[test]
    fn local_write_throughput_is_lower() {
        let ind = run_local(
            AccessPattern::Independent {
                base: 0,
                region: 16 * 1024 * 1024,
                stride: 4096,
                count: 20_000,
                write: true,
                warmup_passes: 0,
            },
            16,
        );
        let mops = ind.mops();
        assert!((mops - 16.9).abs() < 2.0, "local write MOPS {mops}");
    }

    #[test]
    fn prefetcher_reduces_miss_latency_on_streams() {
        let mut engine = Engine::new(2);
        let sink = engine.add_component("sink", Sink::default());
        let mut core_model = CpuCore::new(MemoryHierarchy::new(HierarchyConfig::omega_like()), 16);
        core_model.set_prefetcher(StridePrefetcher::new(8, 4, 64));
        let core = engine.add_component("core", core_model);
        engine.post(
            core,
            SimTime::ZERO,
            StartRun {
                pattern: AccessPattern::Dependent {
                    base: 0,
                    region: 16 * 1024 * 1024,
                    stride: 64,
                    count: 5000,
                    write: false,
                    warmup_passes: 0,
                },
                reply_to: sink,
            },
        );
        engine.run_until_idle();
        let with_pf = &engine
            .component::<Sink>(sink)
            .messages()
            .last()
            .expect("done")
            .report;
        // Without prefetch, a 64B-stride sweep over 16 MiB misses every
        // line (~111.7ns each). With prefetch, most demand accesses hit L1.
        assert!(with_pf.prefetches > 0);
        assert!(
            with_pf.latency.mean < 40.0,
            "prefetched stream latency {}",
            with_pf.latency.mean
        );
    }
}
