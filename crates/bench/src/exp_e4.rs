//! E4 — design principle #1: data movement as a managed service.
//!
//! A worker must process `k` chunks of 64 KiB living in far memory, each
//! followed by a fixed compute phase. Two executions:
//!
//! * **Synchronous**: the worker itself loads each chunk with pipelined
//!   loads (the initiator *is* the executor), stalling for the whole
//!   transfer before computing — the paper's "stall-induced overheads".
//! * **Managed (eTrans)**: transfers are delegated to a migration agent
//!   via the elastic transaction engine, double-buffered: chunk `i+1`
//!   migrates into a staging device while the worker computes on chunk
//!   `i`, so transfer time hides behind compute.

use std::fmt;

use fcc_core::etrans::{
    ETrans, ETransDone, MigrationAgent, SubmitETrans, TransAttrs, TransOwnership, TransactionEngine,
};
use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_fabric::topology::{self, FAM_BASE};
use fcc_sim::{Component, ComponentId, Ctx, Engine, Msg, SimTime};

use crate::calib;

const CHUNK: u32 = 64 * 1024;

/// E4 outcome.
pub struct E4Result {
    /// Chunks processed.
    pub chunks: usize,
    /// Compute per chunk (µs).
    pub compute_us: f64,
    /// Synchronous total completion time (µs).
    pub sync_us: f64,
    /// Managed (eTrans, double-buffered) completion time (µs).
    pub managed_us: f64,
    /// Time the synchronous worker spent stalled on transfers (µs).
    pub sync_stall_us: f64,
    /// Time the managed worker spent stalled (µs).
    pub managed_stall_us: f64,
}

impl E4Result {
    /// Completion-time speedup of the managed service.
    pub fn speedup(&self) -> f64 {
        self.sync_us / self.managed_us
    }
}

/// Self-message ending a compute phase.
#[derive(Debug, Clone, Copy)]
struct ComputeDone;

/// Synchronous worker: read chunk (as 4 KiB pipelined loads), compute,
/// repeat.
struct SyncWorker {
    fha: ComponentId,
    chunks: usize,
    compute: SimTime,
    current: usize,
    reads_left: u32,
    reads_out: u32,
    stall_started: SimTime,
    stall_total: SimTime,
    finished_at: Option<SimTime>,
    next_tag: u64,
}

const SUB: u32 = 4096;
const SUBS_PER_CHUNK: u32 = CHUNK / SUB;
const PIPELINE: u32 = 4;

impl SyncWorker {
    fn start_chunk(&mut self, ctx: &mut Ctx<'_>) {
        self.reads_left = SUBS_PER_CHUNK;
        self.reads_out = 0;
        self.stall_started = ctx.now();
        self.pump(ctx);
    }

    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        while self.reads_out < PIPELINE && self.reads_left > 0 {
            let idx = SUBS_PER_CHUNK - self.reads_left;
            self.reads_left -= 1;
            self.reads_out += 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            ctx.send(
                self.fha,
                SimTime::ZERO,
                HostRequest {
                    op: HostOp::Read {
                        addr: FAM_BASE
                            + self.current as u64 * CHUNK as u64
                            + idx as u64 * SUB as u64,
                        bytes: SUB,
                    },
                    tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
    }
}

impl Component for SyncWorker {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<HostCompletion>() {
            Ok(_hc) => {
                self.reads_out -= 1;
                if self.reads_left > 0 {
                    self.pump(ctx);
                } else if self.reads_out == 0 {
                    // Chunk loaded: stall over, compute.
                    self.stall_total += ctx.now() - self.stall_started;
                    ctx.send_self(self.compute, ComputeDone);
                }
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ComputeDone>() {
            Ok(ComputeDone) => {
                self.current += 1;
                if self.current >= self.chunks {
                    self.finished_at = Some(ctx.now());
                } else {
                    self.start_chunk(ctx);
                }
            }
            Err(m) => match m.downcast::<Start>() {
                Ok(Start) => self.start_chunk(ctx),
                Err(m) => ctx.reject(m.type_name()),
            },
        }
    }
}

/// Managed worker: prefetches chunk `i+1` via eTrans while computing on
/// chunk `i`; waits only when the prefetch has not finished in time.
struct ManagedWorker {
    etrans: ComponentId,
    staging_base: u64,
    chunks: usize,
    compute: SimTime,
    current: usize,
    ready: Vec<bool>,
    computing: bool,
    stall_started: Option<SimTime>,
    stall_total: SimTime,
    finished_at: Option<SimTime>,
}

impl ManagedWorker {
    fn prefetch(&mut self, ctx: &mut Ctx<'_>, chunk: usize) {
        if chunk >= self.chunks {
            return;
        }
        ctx.send(
            self.etrans,
            SimTime::ZERO,
            SubmitETrans {
                etrans: ETrans {
                    src: vec![(FAM_BASE + chunk as u64 * CHUNK as u64, CHUNK)],
                    dst: vec![(self.staging_base + (chunk % 2) as u64 * CHUNK as u64, CHUNK)],
                    immediate: false,
                    attrs: TransAttrs::default(),
                    ownership: TransOwnership::Caller,
                },
                tag: chunk as u64,
                reply_to: ctx.self_id(),
            },
        );
    }

    fn try_compute(&mut self, ctx: &mut Ctx<'_>) {
        if self.computing || self.current >= self.chunks {
            return;
        }
        if self.ready[self.current] {
            if let Some(s) = self.stall_started.take() {
                self.stall_total += ctx.now() - s;
            }
            self.computing = true;
            // Prefetch the next chunk while computing this one.
            self.prefetch(ctx, self.current + 1);
            ctx.send_self(self.compute, ComputeDone);
        } else if self.stall_started.is_none() {
            self.stall_started = Some(ctx.now());
        }
    }
}

impl Component for ManagedWorker {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<ETransDone>() {
            Ok(done) => {
                self.ready[done.tag as usize] = true;
                self.try_compute(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<ComputeDone>() {
            Ok(ComputeDone) => {
                self.computing = false;
                self.current += 1;
                if self.current >= self.chunks {
                    self.finished_at = Some(ctx.now());
                } else {
                    self.try_compute(ctx);
                }
            }
            // Kick-off: prefetch chunk 0 and wait.
            Err(m) => match m.downcast::<Start>() {
                Ok(Start) => {
                    self.prefetch(ctx, 0);
                    self.try_compute(ctx);
                }
                Err(m) => ctx.reject(m.type_name()),
            },
        }
    }
}

/// Kick-off marker.
#[derive(Debug, Clone, Copy)]
struct Start;

/// Runs E4 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E4Result {
    let chunks = if quick { 8 } else { 32 };
    let compute = SimTime::from_us(20.0);
    // Synchronous.
    let sync = {
        let mut engine = Engine::new(0xE4 ^ seed);
        let topo = topology::single_switch(
            &mut engine,
            calib::topo_spec(),
            1,
            vec![calib::fam(1 << 30)],
        );
        let w = engine.add_component(
            "sync-worker",
            SyncWorker {
                fha: topo.hosts[0].fha,
                chunks,
                compute,
                current: 0,
                reads_left: 0,
                reads_out: 0,
                stall_started: SimTime::ZERO,
                stall_total: SimTime::ZERO,
                finished_at: None,
                next_tag: 0,
            },
        );
        engine.post(w, SimTime::ZERO, Start);
        engine.run_until_idle();
        let worker = engine.component::<SyncWorker>(w);
        (
            worker.finished_at.expect("finished").as_us(),
            worker.stall_total.as_us(),
        )
    };
    // Managed.
    let managed = {
        let mut engine = Engine::new((0xE4 + 1) ^ seed);
        // Two hosts: worker host + migration-agent host (same memory
        // domain), one far FAM + one staging device.
        let topo = topology::single_switch(
            &mut engine,
            calib::topo_spec(),
            2,
            vec![calib::fam(1 << 30), calib::staging(1 << 24)],
        );
        let staging_base = topo.devices[1].range.base;
        let agent = engine.add_component("agent", MigrationAgent::new(topo.hosts[1].fha, 4096, 4));
        let te = engine.add_component("etrans", TransactionEngine::new(vec![agent]));
        let w = engine.add_component(
            "managed-worker",
            ManagedWorker {
                etrans: te,
                staging_base,
                chunks,
                compute,
                current: 0,
                ready: vec![false; chunks],
                computing: false,
                stall_started: None,
                stall_total: SimTime::ZERO,
                finished_at: None,
            },
        );
        engine.post(w, SimTime::ZERO, Start);
        engine.run_until_idle();
        let worker = engine.component::<ManagedWorker>(w);
        (
            worker.finished_at.expect("finished").as_us(),
            worker.stall_total.as_us(),
        )
    };
    E4Result {
        chunks,
        compute_us: compute.as_us(),
        sync_us: sync.0,
        managed_us: managed.0,
        sync_stall_us: sync.1,
        managed_stall_us: managed.1,
    }
}

impl fmt::Display for E4Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E4 — data movement as a managed service ({} x 64 KiB chunks, {:.0} us compute each)",
            self.chunks, self.compute_us
        )?;
        let rows = vec![
            vec![
                "synchronous loads".to_string(),
                format!("{:.0}", self.sync_us),
                format!("{:.0}", self.sync_stall_us),
            ],
            vec![
                "eTrans + migration agent".to_string(),
                format!("{:.0}", self.managed_us),
                format!("{:.0}", self.managed_stall_us),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["mode", "completion (us)", "worker stall (us)"], &rows)
        )?;
        writeln!(f, "managed-service speedup: {:.2}x", self.speedup())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn managed_movement_hides_transfer_stalls() {
        let r = run(true, 0);
        assert!(
            r.speedup() > 1.15,
            "managed must beat sync: {} vs {}",
            r.sync_us,
            r.managed_us
        );
        assert!(
            r.managed_stall_us < r.sync_stall_us / 3.0,
            "stalls mostly hidden: {} vs {}",
            r.managed_stall_us,
            r.sync_stall_us
        );
        // Managed completion approaches the compute-only floor.
        let floor = r.chunks as f64 * r.compute_us;
        assert!(
            r.managed_us < floor * 1.35,
            "{} vs floor {floor}",
            r.managed_us
        );
    }
}
