//! A closed-loop load generator over an FHA.
//!
//! Keeps `window` operations of a fixed size in flight against a region,
//! recording per-op latency. Used by the E3 switch experiments, which need
//! transfer sizes the cache-line-granular `CpuCore` does not issue
//! (e.g. the paper's 16 KiB interfering writes).

use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_sim::{Component, ComponentId, Ctx, Histogram, Msg, SimTime};

/// Starts a load generator run.
#[derive(Debug, Clone, Copy)]
pub struct StartLoad;

/// Address selection.
#[derive(Debug, Clone, Copy)]
pub enum AddrPattern {
    /// Sequential with wraparound.
    Sequential,
    /// Uniform random (cacheline aligned).
    Random,
}

/// Configuration for a [`LoadGen`].
#[derive(Debug, Clone, Copy)]
pub struct LoadCfg {
    /// Target FHA.
    pub fha: ComponentId,
    /// Region base address.
    pub base: u64,
    /// Region length.
    pub len: u64,
    /// Bytes per operation.
    pub op_bytes: u32,
    /// Whether ops are writes.
    pub write: bool,
    /// Operations kept in flight.
    pub window: usize,
    /// Total operations to issue (`None` = run until `stop_at`).
    pub count: Option<u64>,
    /// Stop issuing at this time (open-ended runs).
    pub stop_at: SimTime,
    /// Address pattern.
    pub pattern: AddrPattern,
}

/// The load generator component.
pub struct LoadGen {
    cfg: LoadCfg,
    issued: u64,
    completed: u64,
    in_flight: usize,
    cursor: u64,
    next_tag: u64,
    started: bool,
    /// Per-op latency (ps).
    pub latency: Histogram,
    /// Completion time of the last op.
    pub finished_at: SimTime,
}

impl LoadGen {
    /// Creates a generator.
    pub fn new(cfg: LoadCfg) -> Self {
        LoadGen {
            cfg,
            issued: 0,
            completed: 0,
            in_flight: 0,
            cursor: 0,
            next_tag: 0,
            started: false,
            latency: Histogram::new(),
            finished_at: SimTime::ZERO,
        }
    }

    /// Completed operations.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Achieved throughput in operations/µs over the run.
    pub fn ops_per_us(&self) -> f64 {
        if self.finished_at == SimTime::ZERO {
            0.0
        } else {
            self.completed as f64 / self.finished_at.as_us()
        }
    }

    fn next_addr(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        let slots = (self.cfg.len / self.cfg.op_bytes.max(64) as u64).max(1);
        let slot = match self.cfg.pattern {
            AddrPattern::Sequential => {
                let s = self.cursor % slots;
                self.cursor += 1;
                s
            }
            AddrPattern::Random => {
                use rand::Rng;
                ctx.rng().gen_range(0..slots)
            }
        };
        self.cfg.base + slot * self.cfg.op_bytes.max(64) as u64
    }

    fn may_issue(&self, now: SimTime) -> bool {
        if let Some(count) = self.cfg.count {
            if self.issued >= count {
                return false;
            }
        } else if now >= self.cfg.stop_at {
            return false;
        }
        self.in_flight < self.cfg.window
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.may_issue(ctx.now()) {
            let addr = self.next_addr(ctx);
            let tag = self.next_tag;
            self.next_tag += 1;
            self.issued += 1;
            self.in_flight += 1;
            let op = if self.cfg.write {
                HostOp::Write {
                    addr,
                    bytes: self.cfg.op_bytes,
                }
            } else {
                HostOp::Read {
                    addr,
                    bytes: self.cfg.op_bytes,
                }
            };
            ctx.send(
                self.cfg.fha,
                SimTime::ZERO,
                HostRequest {
                    op,
                    tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
    }
}

impl Component for LoadGen {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartLoad>() {
            Ok(StartLoad) => {
                if self.started {
                    return ctx.reject("load generator restarted");
                }
                self.started = true;
                self.pump(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<HostCompletion>() {
            Ok(hc) => {
                self.in_flight -= 1;
                self.completed += 1;
                self.latency.record_time(hc.latency());
                self.finished_at = ctx.now();
                self.pump(ctx);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_fabric::topology::{self, FAM_BASE};
    use fcc_sim::Engine;

    use crate::calib;

    use super::*;

    #[test]
    fn closed_loop_completes_count() {
        let mut engine = Engine::new(1);
        let topo = topology::single_switch(
            &mut engine,
            calib::topo_spec(),
            1,
            vec![calib::fam(1 << 24)],
        );
        let lg = engine.add_component(
            "lg",
            LoadGen::new(LoadCfg {
                fha: topo.hosts[0].fha,
                base: FAM_BASE,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                window: 4,
                count: Some(100),
                stop_at: SimTime::MAX,
                pattern: AddrPattern::Sequential,
            }),
        );
        engine.post(lg, SimTime::ZERO, StartLoad);
        engine.run_until_idle();
        let g = engine.component::<LoadGen>(lg);
        assert_eq!(g.completed(), 100);
        assert!(g.latency.summary_ns().p50 > 1000.0, "remote write > 1us");
        assert!(g.ops_per_us() > 1.0, "window 4 pipelines");
    }

    #[test]
    fn timed_run_stops_at_deadline() {
        let mut engine = Engine::new(1);
        let topo = topology::single_switch(
            &mut engine,
            calib::topo_spec(),
            1,
            vec![calib::fam(1 << 24)],
        );
        let lg = engine.add_component(
            "lg",
            LoadGen::new(LoadCfg {
                fha: topo.hosts[0].fha,
                base: FAM_BASE,
                len: 1 << 20,
                op_bytes: 64,
                write: false,
                window: 8,
                count: None,
                stop_at: SimTime::from_us(50.0),
                pattern: AddrPattern::Random,
            }),
        );
        engine.post(lg, SimTime::ZERO, StartLoad);
        engine.run_until_idle();
        let g = engine.component::<LoadGen>(lg);
        assert!(g.completed() > 10);
        assert!(g.finished_at < SimTime::from_us(60.0));
    }
}
