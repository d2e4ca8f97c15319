//! E6 — design principle #3: idempotent tasks under passive failures.
//!
//! A fork-join DAG of bottom-half tasks runs over four executors in
//! separate power domains, under injected failures swept across MTBFs.
//! Recovery modes: idempotent re-execution (the paper's proposal) vs. a
//! checkpoint/restore baseline (Carbink-style persistent progress). A
//! task with a clobber anti-dependence is included to show the
//! compilation side: naive re-execution corrupts it; after
//! `make_idempotent` versioning it is safe.

use std::fmt;

use fcc_core::task::{
    make_idempotent, DagRuntime, Executor, Half, RecoveryMode, RunStats, TaskSpec,
};
use fcc_proto::addr::AddrRange;
use fcc_sim::SimTime;
use fcc_workloads::failure::FailureSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// One sweep point.
#[derive(Debug, Clone)]
pub struct MtbfPoint {
    /// Mean time between failures per domain (µs).
    pub mtbf_us: f64,
    /// Idempotent-mode stats.
    pub idempotent: RunStats,
    /// Checkpoint-mode stats.
    pub checkpoint: RunStats,
}

/// E6 outcome.
pub struct E6Result {
    /// Failure-free makespan (µs).
    pub baseline_us: f64,
    /// The MTBF sweep.
    pub points: Vec<MtbfPoint>,
    /// Whether the clobbering task corrupted under naive re-execution.
    pub naive_clobber_corrupts: bool,
    /// Whether versioning (make_idempotent) fixed it.
    pub versioned_is_safe: bool,
}

/// A fork-join DAG: `width` independent stages feeding a reducer, chained
/// `depth` times.
fn dag(width: u32, depth: u32, task_us: f64) -> Vec<TaskSpec> {
    let mut tasks = Vec::new();
    let mut id = 0u32;
    let mut prev_reducer: Option<u32> = None;
    for _ in 0..depth {
        let mut layer = Vec::new();
        for _ in 0..width {
            let deps = prev_reducer.map(|r| vec![r]).unwrap_or_default();
            tasks.push(TaskSpec::new(id, SimTime::from_us(task_us), deps));
            layer.push(id);
            id += 1;
        }
        tasks.push(TaskSpec::new(id, SimTime::from_us(task_us / 2.0), layer));
        prev_reducer = Some(id);
        id += 1;
    }
    tasks
}

fn executors(n: usize) -> Vec<Executor> {
    (0..n)
        .map(|d| Executor {
            domain: d,
            speed: 1.0,
            half: Half::Bottom,
        })
        .collect()
}

/// Runs E6 with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> E6Result {
    let (width, depth) = if quick { (4, 4) } else { (8, 8) };
    let tasks = dag(width, depth, 50.0);
    let execs = executors(4);
    let no_failures = FailureSchedule::explicit(vec![]);
    let idem_rt = DagRuntime::new(execs.clone(), RecoveryMode::Idempotent);
    let ckpt_rt = DagRuntime::new(
        execs.clone(),
        RecoveryMode::Checkpoint {
            interval: SimTime::from_us(10.0),
            cost: SimTime::from_us(2.0),
        },
    );
    let run = |rt: &DagRuntime, tasks: &[TaskSpec], failures: &FailureSchedule| -> RunStats {
        rt.run(tasks, failures).expect("E6 builds well-formed DAGs")
    };
    let baseline_us = run(&idem_rt, &tasks, &no_failures).makespan.as_us();
    let horizon = SimTime::from_us(baseline_us * 40.0);
    let mut rng = StdRng::seed_from_u64(0xE6 ^ seed);
    let mut points = Vec::new();
    for &mtbf_us in &[200.0, 500.0, 2000.0] {
        let schedule = FailureSchedule::draw(
            4,
            SimTime::from_us(mtbf_us),
            SimTime::from_us(20.0),
            horizon,
            &mut rng,
        );
        points.push(MtbfPoint {
            mtbf_us,
            idempotent: run(&idem_rt, &tasks, &schedule),
            checkpoint: run(&ckpt_rt, &tasks, &schedule),
        });
    }
    // Correctness demonstration with a clobbering task.
    let mut clobber = TaskSpec::new(0, SimTime::from_us(50.0), vec![]);
    clobber.reads = vec![AddrRange::new(0, 4096)];
    clobber.writes = vec![AddrRange::new(0, 4096)];
    let one_failure = FailureSchedule::explicit(vec![fcc_workloads::failure::FailureEvent {
        at: SimTime::from_us(25.0),
        domain: 0,
        recovered_at: SimTime::from_us(30.0),
    }]);
    let single_exec = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
    let naive = run(&single_exec, std::slice::from_ref(&clobber), &one_failure);
    let versioned = make_idempotent(&clobber, 0x10_0000, 999);
    let fixed = run(&single_exec, &versioned, &one_failure);
    E6Result {
        baseline_us,
        points,
        naive_clobber_corrupts: !naive.correct,
        versioned_is_safe: fixed.correct,
    }
}

impl fmt::Display for E6Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E6 — idempotent tasks vs checkpointing under passive failures \
             (failure-free makespan {:.0} us)",
            self.baseline_us
        )?;
        let mut rows = Vec::new();
        for p in &self.points {
            rows.push(vec![
                format!("{:.0}", p.mtbf_us),
                "idempotent".to_string(),
                format!("{:.0}", p.idempotent.makespan.as_us()),
                format!("{:.0}", p.idempotent.wasted_work.as_us()),
                format!("{:.0}", p.idempotent.checkpoint_overhead.as_us()),
                p.idempotent.reexecutions.to_string(),
            ]);
            rows.push(vec![
                String::new(),
                "checkpoint".to_string(),
                format!("{:.0}", p.checkpoint.makespan.as_us()),
                format!("{:.0}", p.checkpoint.wasted_work.as_us()),
                format!("{:.0}", p.checkpoint.checkpoint_overhead.as_us()),
                p.checkpoint.reexecutions.to_string(),
            ]);
        }
        write!(
            f,
            "{}",
            crate::fmt_table(
                &[
                    "MTBF (us)",
                    "recovery",
                    "makespan (us)",
                    "wasted (us)",
                    "ckpt ovh (us)",
                    "restarts"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "naive re-execution of a clobbering task corrupts: {}; after \
             output versioning: safe = {}",
            self.naive_clobber_corrupts, self.versioned_is_safe
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idempotent_recovery_wins_at_moderate_failure_rates() {
        let r = run(true, 0);
        assert!(r.naive_clobber_corrupts);
        assert!(r.versioned_is_safe);
        // At the rare-failure end, idempotent mode has no overhead and its
        // makespan beats checkpointing (which pays overhead always).
        let rare = r.points.last().expect("points");
        assert!(
            rare.idempotent.makespan < rare.checkpoint.makespan,
            "idempotent {} vs checkpoint {}",
            rare.idempotent.makespan,
            rare.checkpoint.makespan
        );
        assert_eq!(rare.idempotent.checkpoint_overhead, SimTime::ZERO);
        // At the frequent end, checkpointing wastes less work per failure.
        let frequent = &r.points[0];
        if frequent.idempotent.reexecutions > 0 && frequent.checkpoint.reexecutions > 0 {
            let idem_waste_per =
                frequent.idempotent.wasted_work.as_us() / frequent.idempotent.reexecutions as f64;
            let ckpt_waste_per =
                frequent.checkpoint.wasted_work.as_us() / frequent.checkpoint.reexecutions as f64;
            assert!(
                ckpt_waste_per <= idem_waste_per + 1e-9,
                "ckpt {ckpt_waste_per} vs idem {idem_waste_per}"
            );
        }
        // Failures always hurt.
        for p in &r.points {
            assert!(p.idempotent.makespan.as_us() >= r.baseline_us);
        }
    }
}
