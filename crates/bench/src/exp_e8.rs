//! E8 — the §5 case study: MIMO baseband processing over UniFabric.
//!
//! The real uplink pipeline (FFT → ZF equalization → demap → Viterbi)
//! first runs in full to establish functional correctness (BER at a
//! workable SNR). The same frame's kernel task graph then executes under
//! three deployments:
//!
//! * **host-only** — every kernel on the host core, data local;
//! * **naive composable** — kernels on two FAAs, but every data object
//!   lives in far memory and is reached with synchronous 4 KiB loads
//!   (the §3 D#1 stall regime);
//! * **UniFabric** — the paper's port: objects in the unified heap (CSI
//!   pinned hot near the FAAs), frames streamed by the elastic
//!   transaction engine at wire rate and overlapped, kernels as
//!   idempotent tasks on both FAAs.
//!
//! A failure-injection pass shows the UniFabric deployment re-executes
//! through an FAA power-domain crash and still completes.

use std::fmt;

use fcc_baseband::pipeline::UplinkPipeline;
use fcc_core::task::{DagRuntime, Executor, Half, RecoveryMode, RunStats, TaskSpec};
use fcc_sim::SimTime;
use fcc_workloads::failure::{FailureEvent, FailureSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One deployment's outcome.
#[derive(Debug, Clone)]
pub struct ModeOutcome {
    /// Label.
    pub mode: &'static str,
    /// Frame processing makespan (µs).
    pub frame_us: f64,
}

/// E8 outcome.
pub struct E8Result {
    /// Bit error rate of the real pipeline at 15 dB.
    pub ber_15db: f64,
    /// BER at 35 dB (must be zero).
    pub ber_35db: f64,
    /// Deployment comparison.
    pub modes: Vec<ModeOutcome>,
    /// Makespan of the UniFabric deployment with a mid-frame FAA crash.
    pub unifabric_with_failure_us: f64,
}

impl E8Result {
    /// The named mode.
    pub fn get(&self, mode: &str) -> f64 {
        self.modes
            .iter()
            .find(|m| m.mode == mode)
            .map(|m| m.frame_us)
            .expect("mode present")
    }
}

/// Synchronous far-memory access cost: 4 KiB pipelined loads at the
/// Table 2 remote profile (≈1.8 µs per 4 KiB with MLP 4 → ~0.45 ns/B).
const SYNC_NS_PER_BYTE: f64 = 0.45;
/// Streamed (eTrans at wire rate) cost per byte: 512 Gbit/s ≈ 0.0156 ns/B,
/// doubled for the read+write copy.
const STREAM_NS_PER_BYTE: f64 = 0.033;

fn bytes_touched(t: &TaskSpec) -> u64 {
    t.reads.iter().map(|r| r.len).sum::<u64>() + t.writes.iter().map(|w| w.len).sum::<u64>()
}

fn inflate(tasks: &[TaskSpec], ns_per_byte: f64, skip_csi_reads: bool) -> Vec<TaskSpec> {
    tasks
        .iter()
        .map(|t| {
            let mut bytes = bytes_touched(t);
            // Equalize tasks read exactly [fft_out, csi].
            if skip_csi_reads && t.reads.len() == 2 {
                // The CSI matrix (second read of equalize tasks) is pinned
                // hot near the FAAs by the heap: no fabric crossing.
                bytes = bytes.saturating_sub(t.reads[1].len);
            }
            let mut t = t.clone();
            t.compute += SimTime::from_ns(bytes as f64 * ns_per_byte);
            t
        })
        .collect()
}

fn host_executors() -> Vec<Executor> {
    vec![Executor {
        domain: 0,
        speed: 1.0,
        half: Half::Bottom,
    }]
}

fn faa_executors() -> Vec<Executor> {
    vec![
        Executor {
            domain: 1,
            speed: 1.0,
            half: Half::Bottom,
        },
        Executor {
            domain: 2,
            speed: 1.0,
            half: Half::Bottom,
        },
    ]
}

/// Runs E8 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E8Result {
    // Functional pass: the real DSP pipeline.
    let mut rng = StdRng::seed_from_u64(0xE8 ^ seed);
    let pipeline = UplinkPipeline::default();
    let frames = if quick { 3 } else { 10 };
    let mut errs15 = 0usize;
    let mut total15 = 0usize;
    let mut errs35 = 0usize;
    let mut total35 = 0usize;
    for _ in 0..frames {
        let f15 = pipeline.generate_frame(15.0, &mut rng);
        let r15 = pipeline.process(&f15);
        errs15 += r15.bit_errors;
        total15 += r15.total_bits;
        let f35 = pipeline.generate_frame(35.0, &mut rng);
        let r35 = pipeline.process(&f35);
        errs35 += r35.bit_errors;
        total35 += r35.total_bits;
    }
    // Deployment comparison on the kernel task graph.
    let tasks = pipeline.build_tasks(0x1000_0000, 0x2000_0000, 0x3000_0000, SimTime::from_us(1.0));
    let rt_host = DagRuntime::new(host_executors(), RecoveryMode::Idempotent);
    let rt_faa = DagRuntime::new(faa_executors(), RecoveryMode::Idempotent);
    let no_failures = FailureSchedule::explicit(vec![]);
    let run = |rt: &DagRuntime, tasks: &[TaskSpec], failures: &FailureSchedule| -> RunStats {
        rt.run(tasks, failures).expect("E8 builds well-formed DAGs")
    };
    let host_only = run(&rt_host, &tasks, &no_failures).makespan.as_us();
    let naive_tasks = inflate(&tasks, SYNC_NS_PER_BYTE, false);
    let naive = run(&rt_faa, &naive_tasks, &no_failures).makespan.as_us();
    let unifabric_tasks = inflate(&tasks, STREAM_NS_PER_BYTE, true);
    let unifabric = run(&rt_faa, &unifabric_tasks, &no_failures)
        .makespan
        .as_us();
    // Failure resilience: crash FAA domain 1 mid-frame.
    let crash = FailureSchedule::explicit(vec![FailureEvent {
        at: SimTime::from_us(unifabric * 0.4),
        domain: 1,
        recovered_at: SimTime::from_us(unifabric * 0.4 + 5.0),
    }]);
    let with_failure = run(&rt_faa, &unifabric_tasks, &crash);
    assert!(with_failure.correct, "idempotent kernels recover correctly");
    E8Result {
        ber_15db: errs15 as f64 / total15 as f64,
        ber_35db: errs35 as f64 / total35 as f64,
        modes: vec![
            ModeOutcome {
                mode: "host-only",
                frame_us: host_only,
            },
            ModeOutcome {
                mode: "naive composable",
                frame_us: naive,
            },
            ModeOutcome {
                mode: "UniFabric",
                frame_us: unifabric,
            },
        ],
        unifabric_with_failure_us: with_failure.makespan.as_us(),
    }
}

impl fmt::Display for E8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E8 — MIMO baseband case study over UniFabric")?;
        writeln!(
            f,
            "  functional: BER {:.5} @ 15 dB, {:.5} @ 35 dB (real FFT/ZF/QAM/Viterbi)",
            self.ber_15db, self.ber_35db
        )?;
        let base = self.get("host-only");
        let rows: Vec<Vec<String>> = self
            .modes
            .iter()
            .map(|m| {
                vec![
                    m.mode.to_string(),
                    format!("{:.2}", m.frame_us),
                    format!("{:.2}x", base / m.frame_us),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["deployment", "frame makespan (us)", "speedup vs host"],
                &rows
            )
        )?;
        writeln!(
            f,
            "with a mid-frame FAA crash, UniFabric completes (idempotent \
             re-execution) in {:.2} us",
            self.unifabric_with_failure_us
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_shape() {
        let r = run(true, 0);
        assert_eq!(r.ber_35db, 0.0, "clean at high SNR");
        assert!(r.ber_15db < 0.2, "usable at 15 dB: {}", r.ber_15db);
        let host = r.get("host-only");
        let naive = r.get("naive composable");
        let uni = r.get("UniFabric");
        assert!(
            naive > host * 2.0,
            "naive composable must pay dearly: host {host}, naive {naive}"
        );
        assert!(
            uni < naive / 2.0,
            "UniFabric recovers most of the loss: {uni} vs {naive}"
        );
        assert!(
            uni < host * 1.2,
            "two FAAs + placement ≈ or beat the host: {uni} vs {host}"
        );
        assert!(r.unifabric_with_failure_us > uni, "crash costs something");
    }
}
