//! T2 — Table 2: cacheline read/write latency and throughput across the
//! memory hierarchy (L1, L2, local DRAM, remote CXL DIMM).
//!
//! Latency rows use a dependent (pointer-chase-style) stream; throughput
//! rows use an independent stream bounded by the pipeline window. The
//! L1/L2/local tiers come from the Table 2-calibrated analytic hierarchy;
//! the **remote tier runs through the full fabric simulation** (FHA →
//! switch → FEA → FAM) with the calibration of [`crate::calib`].

use std::fmt;
use std::slice;

use fcc_cache::core::{AccessPattern, CoreReport, CpuCore, RunDone, StartRun};
use fcc_cache::hierarchy::{HierarchyConfig, MemoryHierarchy};
use fcc_fabric::topology::{self, FAM_BASE};
use fcc_sim::{Engine, Inbox, SimTime};

use crate::calib;
use crate::capture::Capture;

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct Tier {
    /// Row label.
    pub name: &'static str,
    /// Dependent-chain read latency (ns).
    pub read_ns: f64,
    /// Dependent-chain write latency (ns).
    pub write_ns: f64,
    /// Independent-stream read throughput (MOPS).
    pub read_mops: f64,
    /// Independent-stream write throughput (MOPS).
    pub write_mops: f64,
    /// The paper's numbers for the row: (read ns, write ns, read MOPS,
    /// write MOPS).
    pub paper: (f64, f64, f64, f64),
}

/// Table 2, reproduced.
pub struct T2Result {
    /// The four tiers.
    pub tiers: Vec<Tier>,
}

type Sink = Inbox<RunDone>;

/// Runs one measurement: a fresh engine + topology per run so tiers don't
/// share cache state.
fn measure(seed: u64, remote: bool, pattern: AccessPattern, window: usize) -> CoreReport {
    measure_captured(seed, remote, pattern, window, &mut Capture::disabled(), "")
}

/// [`measure`] with telemetry: remote runs open a `label` scenario so
/// the full FHA → switch → FEA → DRAM hop chain (plus the core's
/// `cache.remote_miss` envelope) lands in the trace.
fn measure_captured(
    seed: u64,
    remote: bool,
    pattern: AccessPattern,
    window: usize,
    cap: &mut Capture,
    label: &str,
) -> CoreReport {
    let mut engine = Engine::new((0x72 ^ seed) + remote as u64);
    let sink = engine.add_component("sink", Sink::default());
    let mut core = CpuCore::new(MemoryHierarchy::new(HierarchyConfig::omega_like()), window);
    let mut remote_topo = None;
    if remote {
        let topo = topology::single_switch(
            &mut engine,
            calib::topo_spec(),
            1,
            vec![calib::fam(1 << 30)],
        );
        core.set_fha(topo.hosts[0].fha);
        cap.begin(label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        if let Some(sink) = cap.domain_sink(0) {
            core.set_trace(sink.track("core"));
        }
        remote_topo = Some(topo);
    }
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
    if let Some(topo) = &remote_topo {
        cap.end(label, slice::from_ref(&engine), slice::from_ref(topo));
    }
    engine
        .component::<Sink>(sink)
        .messages()
        .last()
        .expect("run completed")
        .report
        .clone()
}

fn dependent(
    base: u64,
    region: u64,
    stride: u64,
    count: u64,
    write: bool,
    warmup: u32,
) -> AccessPattern {
    AccessPattern::Dependent {
        base,
        region,
        stride,
        count,
        write,
        warmup_passes: warmup,
    }
}

fn independent(
    base: u64,
    region: u64,
    stride: u64,
    count: u64,
    write: bool,
    warmup: u32,
) -> AccessPattern {
    AccessPattern::Independent {
        base,
        region,
        stride,
        count,
        write,
        warmup_passes: warmup,
    }
}

/// Runs T2 with RNG seed salt `seed`, feeding telemetry into `cap`. `quick`
/// shortens op counts (CI use). The four remote-tier measurements become
/// scenarios `t2-remote-{rd,wr}-{lat,tput}`; the on-chip tiers never touch
/// the fabric and stay untraced.
pub fn run(quick: bool, cap: &mut Capture, seed: u64) -> T2Result {
    let n: u64 = if quick { 2_000 } else { 10_000 };
    let tp: u64 = if quick { 5_000 } else { 30_000 };
    let mut tiers = Vec::new();
    // L1: 16 KiB region, resident after one warmup pass.
    let l1 = (
        measure(seed, false, dependent(0, 16 << 10, 64, n, false, 1), 16),
        measure(seed, false, dependent(0, 16 << 10, 64, n, true, 1), 16),
        measure(seed, false, independent(0, 16 << 10, 64, tp, false, 1), 16),
        measure(seed, false, independent(0, 16 << 10, 64, tp, true, 1), 16),
    );
    tiers.push(Tier {
        name: "L1 Cache",
        read_ns: l1.0.latency.mean,
        write_ns: l1.1.latency.mean,
        read_mops: l1.2.mops(),
        write_mops: l1.3.mops(),
        paper: (5.4, 5.4, 357.4, 355.4),
    });
    // L2: 512 KiB region (beyond 64 KiB L1, within 1 MiB L2).
    let l2 = (
        measure(seed, false, dependent(0, 512 << 10, 64, n, false, 2), 16),
        measure(seed, false, dependent(0, 512 << 10, 64, n, true, 2), 16),
        measure(seed, false, independent(0, 512 << 10, 64, tp, false, 2), 16),
        measure(seed, false, independent(0, 512 << 10, 64, tp, true, 2), 16),
    );
    tiers.push(Tier {
        name: "L2 Cache",
        read_ns: l2.0.latency.mean,
        write_ns: l2.1.latency.mean,
        read_mops: l2.2.mops(),
        write_mops: l2.3.mops(),
        paper: (13.6, 12.5, 143.4, 154.5),
    });
    // Local memory: 16 MiB at page stride defeats both caches.
    let local = (
        measure(
            seed,
            false,
            dependent(0, 16 << 20, 4096, n / 2, false, 0),
            16,
        ),
        measure(
            seed,
            false,
            dependent(0, 16 << 20, 4096, n / 2, true, 0),
            16,
        ),
        measure(
            seed,
            false,
            independent(0, 16 << 20, 4096, tp / 2, false, 0),
            16,
        ),
        measure(
            seed,
            false,
            independent(0, 16 << 20, 4096, tp / 2, true, 0),
            16,
        ),
    );
    tiers.push(Tier {
        name: "Local Memory",
        read_ns: local.0.latency.mean,
        write_ns: local.1.latency.mean,
        read_mops: local.2.mops(),
        write_mops: local.3.mops(),
        paper: (111.7, 119.3, 29.4, 16.9),
    });
    // Remote memory: through the simulated fabric, MLP-limited window.
    let rn = if quick { 300 } else { 2_000 };
    let remote = (
        measure_captured(
            seed,
            true,
            dependent(FAM_BASE, 16 << 20, 4096, rn, false, 0),
            calib::REMOTE_WINDOW,
            cap,
            "t2-remote-rd-lat",
        ),
        measure_captured(
            seed,
            true,
            dependent(FAM_BASE, 16 << 20, 4096, rn, true, 0),
            calib::REMOTE_WINDOW,
            cap,
            "t2-remote-wr-lat",
        ),
        measure_captured(
            seed,
            true,
            independent(FAM_BASE, 16 << 20, 4096, rn * 2, false, 0),
            calib::REMOTE_WINDOW,
            cap,
            "t2-remote-rd-tput",
        ),
        measure_captured(
            seed,
            true,
            independent(FAM_BASE, 16 << 20, 4096, rn * 2, true, 0),
            calib::REMOTE_WINDOW,
            cap,
            "t2-remote-wr-tput",
        ),
    );
    tiers.push(Tier {
        name: "Remote Memory",
        read_ns: remote.0.latency.mean,
        write_ns: remote.1.latency.mean,
        read_mops: remote.2.mops(),
        write_mops: remote.3.mops(),
        paper: (1575.3, 1613.3, 2.5, 2.5),
    });
    T2Result { tiers }
}

impl T2Result {
    /// Remote-to-local read latency ratio (the paper's "nearly 10×").
    pub fn remote_local_ratio(&self) -> f64 {
        self.tiers[3].read_ns / self.tiers[2].read_ns
    }
}

impl fmt::Display for T2Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "T2 — Table 2: 64 B read/write latency (ns) and throughput (MOPS)"
        )?;
        let rows: Vec<Vec<String>> = self
            .tiers
            .iter()
            .map(|t| {
                vec![
                    t.name.to_string(),
                    format!("{:.1}/{:.1}", t.read_ns, t.write_ns),
                    format!("{:.1}/{:.1}", t.paper.0, t.paper.1),
                    format!("{:.1}/{:.1}", t.read_mops, t.write_mops),
                    format!("{:.1}/{:.1}", t.paper.2, t.paper.3),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(
                &[
                    "Memory Hierarchy",
                    "Latency R/W (ns)",
                    "paper",
                    "Throughput R/W (MOPS)",
                    "paper"
                ],
                &rows,
            )
        )?;
        writeln!(
            f,
            "remote/local read latency ratio: {:.1}x (paper: ~14x, \"nearly 10x slower\")",
            self.remote_local_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn within(measured: f64, paper: f64, tol: f64) -> bool {
        (measured - paper).abs() <= paper * tol
    }

    #[test]
    fn table2_shape_holds() {
        let r = run(true, &mut Capture::disabled(), 0);
        for t in &r.tiers {
            assert!(
                within(t.read_ns, t.paper.0, 0.15),
                "{}: read {} vs paper {}",
                t.name,
                t.read_ns,
                t.paper.0
            );
            assert!(
                within(t.write_ns, t.paper.1, 0.15),
                "{}: write {} vs paper {}",
                t.name,
                t.write_ns,
                t.paper.1
            );
            assert!(
                within(t.read_mops, t.paper.2, 0.2),
                "{}: read MOPS {} vs paper {}",
                t.name,
                t.read_mops,
                t.paper.2
            );
            assert!(
                within(t.write_mops, t.paper.3, 0.25),
                "{}: write MOPS {} vs paper {}",
                t.name,
                t.write_mops,
                t.paper.3
            );
        }
        assert!(r.remote_local_ratio() > 10.0, "the paper's 10x gap");
    }
}
