//! E9 — §3 Difference #1: synchronous execution.
//!
//! Two claims measured:
//!
//! * "the throughput of a memory fabric that a core can drive depends on
//!   [...] the depth of the CPU pipeline": sweep the load/store window
//!   and watch remote MOPS scale as `window / RTT` until the device
//!   admission rate caps it.
//! * "the host-side caching structure [...] would transparently
//!   accelerate memory fabric performance": sweep the working set across
//!   the cache boundary and watch remote-region latency collapse to L1/L2
//!   levels when the set fits on chip.

use std::fmt;

use fcc_cache::core::{AccessPattern, CoreReport, CpuCore, RunDone, StartRun};
use fcc_cache::hierarchy::{HierarchyConfig, MemoryHierarchy};
use fcc_fabric::topology::{self, FAM_BASE};
use fcc_sim::{Engine, Inbox, SimTime};

use crate::calib;

/// E9 outcome.
pub struct E9Result {
    /// `(window, remote MOPS)` sweep.
    pub window_sweep: Vec<(usize, f64)>,
    /// `(working set KiB, mean latency ns)` sweep over a *remote* region.
    pub ws_sweep: Vec<(u64, f64)>,
}

type Sink = Inbox<RunDone>;

fn run_remote(pattern: AccessPattern, window: usize, seed: u64) -> CoreReport {
    let mut engine = Engine::new(0xE9 ^ seed);
    let sink = engine.add_component("sink", Sink::default());
    let topo = topology::single_switch(
        &mut engine,
        calib::topo_spec(),
        1,
        vec![calib::fam(1 << 30)],
    );
    let mut core = CpuCore::new(MemoryHierarchy::new(HierarchyConfig::omega_like()), window);
    core.set_fha(topo.hosts[0].fha);
    let core = engine.add_component("core", core);
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
        .expect("completed")
        .report
        .clone()
}

/// Runs E9 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E9Result {
    let count = if quick { 600 } else { 4000 };
    let mut window_sweep = Vec::new();
    for &window in &[1usize, 2, 4, 8, 16, 32] {
        let report = run_remote(
            AccessPattern::Independent {
                base: FAM_BASE,
                region: 64 << 20,
                stride: 4096,
                count,
                write: false,
                warmup_passes: 0,
            },
            window,
            seed,
        );
        window_sweep.push((window, report.mops()));
    }
    let mut ws_sweep = Vec::new();
    for &kib in &[16u64, 256, 4096, 65536] {
        let report = run_remote(
            AccessPattern::Dependent {
                base: FAM_BASE,
                region: kib << 10,
                stride: 64,
                count,
                write: false,
                warmup_passes: if kib <= 4096 { 1 } else { 0 },
            },
            calib::REMOTE_WINDOW,
            seed,
        );
        ws_sweep.push((kib, report.latency.mean));
    }
    E9Result {
        window_sweep,
        ws_sweep,
    }
}

impl fmt::Display for E9Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E9 — synchronous execution: pipeline depth and caching")?;
        let rows: Vec<Vec<String>> = self
            .window_sweep
            .iter()
            .map(|&(w, m)| vec![w.to_string(), format!("{m:.2}")])
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(&["load/store window", "remote MOPS"], &rows)
        )?;
        let rows: Vec<Vec<String>> = self
            .ws_sweep
            .iter()
            .map(|&(k, ns)| vec![format!("{k}"), format!("{ns:.1}")])
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["remote working set (KiB)", "mean access latency (ns)"],
                &rows
            )
        )?;
        writeln!(
            f,
            "paper: per-core fabric throughput is pipeline-window-bound; \
             caches transparently accelerate FAM accesses"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_scales_with_window_then_saturates() {
        let r = run(true, 0);
        let get = |w: usize| {
            r.window_sweep
                .iter()
                .find(|&&(x, _)| x == w)
                .map(|&(_, m)| m)
                .expect("swept")
        };
        // Linear region: 4x window ≈ 4x MOPS.
        let ratio = get(4) / get(1);
        assert!(
            ratio > 3.0 && ratio < 4.5,
            "window scaling should be near-linear: {ratio}"
        );
        // Saturation: the device admission rate (~8.3 MOPS) caps deep windows.
        let deep = get(32);
        assert!(deep < 9.5, "device cap: {deep}");
        assert!(get(16) <= deep * 1.05 + 0.5);
    }

    #[test]
    fn small_remote_working_sets_are_cache_accelerated() {
        let r = run(true, 0);
        let small = r.ws_sweep[0].1;
        let large = r.ws_sweep.last().expect("swept").1;
        // 16 KiB fits L1: ~5 ns. 64 MiB misses everything: ~1575 ns.
        assert!(small < 20.0, "cached remote set at {small} ns");
        assert!(large > 1000.0, "uncached remote set at {large} ns");
        assert!(large / small > 50.0);
    }
}
