//! The idempotent task framework (design principle #3).
//!
//! "The key idea is leveraging the principle of idempotence to break
//! programs into regions of code that can be recovered through simple
//! re-execution. [...] an idempotent task can be re-executed and restarted
//! multiple times without jeopardizing correctness" (§4 DP#3). Two parts:
//!
//! * The **analysis/compilation side**: [`analyze_idempotence`] detects
//!   clobber anti-dependences (a task that overwrites its own input cannot
//!   be blindly re-executed) and [`make_idempotent`] cuts such a task into
//!   an idempotent pair by versioning the clobbered output into a shadow
//!   region plus an idempotent commit task — the classic output-renaming
//!   transformation of the idempotent-processor work the paper cites.
//! * The **split runtime**: [`DagRuntime`] list-schedules a task DAG onto
//!   executors living in separate power domains, injects failures from a
//!   [`FailureSchedule`], and recovers either by idempotent re-execution
//!   or by the checkpoint/restore baseline — producing the goodput and
//!   wasted-work numbers of experiment E6.

use std::collections::HashMap;

use fcc_proto::addr::AddrRange;
use fcc_sim::SimTime;
use fcc_workloads::failure::FailureSchedule;

/// Task identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

/// Which half of the split runtime executes the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    /// Host-side dispatch/control (short, runs on the host executor).
    Top,
    /// Bulk work on a fabric-attached accelerator.
    Bottom,
}

/// A task region: its data footprint and cost.
#[derive(Debug, Clone)]
pub struct TaskSpec {
    /// Identifier (unique within a DAG).
    pub id: TaskId,
    /// Regions read.
    pub reads: Vec<AddrRange>,
    /// Regions written.
    pub writes: Vec<AddrRange>,
    /// Pure compute time on a unit-speed executor.
    pub compute: SimTime,
    /// Tasks that must complete first.
    pub deps: Vec<TaskId>,
    /// Placement half.
    pub half: Half,
}

impl TaskSpec {
    /// A convenience constructor for dependency-only tasks.
    pub fn new(id: u32, compute: SimTime, deps: Vec<u32>) -> Self {
        TaskSpec {
            id: TaskId(id),
            reads: Vec::new(),
            writes: Vec::new(),
            compute,
            deps: deps.into_iter().map(TaskId).collect(),
            half: Half::Bottom,
        }
    }
}

/// Result of idempotence analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IdempotenceReport {
    /// Read regions the task also writes (clobber anti-dependences).
    pub clobbers: Vec<AddrRange>,
}

impl IdempotenceReport {
    /// Whether re-execution is safe as-is.
    pub fn is_idempotent(&self) -> bool {
        self.clobbers.is_empty()
    }
}

/// Detects clobber anti-dependences: any overlap between the read set and
/// the write set makes naive re-execution unsafe (the second run would
/// read its own partial output).
///
/// # Examples
///
/// ```
/// use fcc_core::task::{analyze_idempotence, make_idempotent, Half, TaskId, TaskSpec};
/// use fcc_proto::addr::AddrRange;
/// use fcc_sim::SimTime;
///
/// let in_place = TaskSpec {
///     id: TaskId(1),
///     reads: vec![AddrRange::new(0, 4096)],
///     writes: vec![AddrRange::new(0, 4096)],
///     compute: SimTime::from_us(10.0),
///     deps: vec![],
///     half: Half::Bottom,
/// };
/// assert!(!analyze_idempotence(&in_place).is_idempotent());
/// // Output versioning cuts it into an idempotent pair.
/// let fixed = make_idempotent(&in_place, 0x10_0000, 99);
/// assert_eq!(fixed.len(), 2);
/// assert!(fixed.iter().all(|t| analyze_idempotence(t).is_idempotent()));
/// ```
pub fn analyze_idempotence(spec: &TaskSpec) -> IdempotenceReport {
    let mut clobbers = Vec::new();
    for r in &spec.reads {
        for w in &spec.writes {
            if r.overlaps(w) {
                let base = r.base.max(w.base);
                let end = r.end().min(w.end());
                clobbers.push(AddrRange::new(base, end - base));
            }
        }
    }
    IdempotenceReport { clobbers }
}

/// Rewrites a clobbering task into an idempotent pair:
///
/// 1. the original task with every clobbered output renamed into a shadow
///    region starting at `shadow_base` (it now reads its input intact and
///    writes elsewhere → idempotent), and
/// 2. a commit task that copies the shadow region onto the original
///    location (reads shadow, writes original — disjoint → idempotent).
///
/// Returns the task(s) to run; a task that is already idempotent is
/// returned unchanged.
pub fn make_idempotent(spec: &TaskSpec, shadow_base: u64, commit_id: u32) -> Vec<TaskSpec> {
    let report = analyze_idempotence(spec);
    if report.is_idempotent() {
        return vec![spec.clone()];
    }
    let mut shadow_cursor = shadow_base;
    let mut main = spec.clone();
    let mut commit_reads = Vec::new();
    let mut commit_writes = Vec::new();
    for w in &mut main.writes {
        let clobbered = spec.reads.iter().any(|r| r.overlaps(w));
        if clobbered {
            let shadow = AddrRange::new(shadow_cursor, w.len);
            shadow_cursor += w.len;
            commit_reads.push(shadow);
            commit_writes.push(*w);
            *w = shadow;
        }
    }
    let commit = TaskSpec {
        id: TaskId(commit_id),
        reads: commit_reads,
        writes: commit_writes,
        // Commit is a bounded copy: cost proportional to bytes at 10 GB/s.
        compute: SimTime::from_ns(commit_writes_len(&main) as f64 / 10.0),
        deps: vec![main.id],
        // Commit runs wherever the main task ran (its output is local).
        half: spec.half,
    };
    vec![main, commit]
}

fn commit_writes_len(main: &TaskSpec) -> u64 {
    main.writes.iter().map(|w| w.len).sum()
}

/// Pure compute performed during `progress` of wall time when every
/// `interval` of work is followed by a `cost` checkpoint.
fn work_done(progress: SimTime, interval: SimTime, cost: SimTime) -> SimTime {
    let rate = interval.as_ns() / (interval.as_ns() + cost.as_ns());
    SimTime::from_ns(progress.as_ns() * rate)
}

/// The checkpoint-persisted portion of [`work_done`]: rounded down to a
/// whole number of checkpoint intervals.
fn kept_work(progress: SimTime, interval: SimTime, cost: SimTime) -> SimTime {
    let done = work_done(progress, interval, cost);
    let intervals = (done.as_ns() / interval.as_ns()).floor();
    SimTime::from_ns(intervals * interval.as_ns())
}

/// Recovery strategy of the runtime.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecoveryMode {
    /// Idempotent re-execution: a failed task restarts from its inputs.
    Idempotent,
    /// Checkpoint/restore baseline: every task checkpoints each
    /// `interval`, paying `cost` per checkpoint; a failure resumes from
    /// the last checkpoint.
    Checkpoint {
        /// Checkpoint period.
        interval: SimTime,
        /// Cost per checkpoint.
        cost: SimTime,
    },
}

/// An executor: one computing element in a power domain.
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    /// Power domain index (into the failure schedule).
    pub domain: usize,
    /// Relative speed (1.0 = unit).
    pub speed: f64,
    /// Which half this executor runs.
    pub half: Half,
}

/// Outcome of a DAG run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Completion time of the last task.
    pub makespan: SimTime,
    /// Useful compute performed.
    pub useful_work: SimTime,
    /// Compute discarded by failures (partial executions).
    pub wasted_work: SimTime,
    /// Overhead spent checkpointing (zero for idempotent mode).
    pub checkpoint_overhead: SimTime,
    /// Task (re-)starts beyond the first execution.
    pub reexecutions: u64,
    /// Whether all results are trustworthy (false if a non-idempotent
    /// task was re-executed without versioning).
    pub correct: bool,
}

/// Why [`DagRuntime::run`] cannot schedule a task DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// `(task, dep)`: `task` depends on `dep`, which no task has as its id.
    MissingDependency(TaskId, TaskId),
    /// No executor of the runtime runs this task's half.
    NoExecutor(TaskId, Half),
    /// These tasks wait on a dependency cycle, so none can ever start.
    Cycle(Vec<TaskId>),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::MissingDependency(t, dep) => write!(f, "{t:?} depends on missing {dep:?}"),
            DagError::NoExecutor(t, half) => write!(f, "no {half:?} executor for {t:?}"),
            DagError::Cycle(tasks) => write!(f, "dependency cycle among {tasks:?}"),
        }
    }
}

impl std::error::Error for DagError {}

/// The split runtime: schedules a DAG over executors with failures.
pub struct DagRuntime {
    executors: Vec<Executor>,
    mode: RecoveryMode,
    trace: fcc_telemetry::Track,
}

impl DagRuntime {
    /// Creates a runtime.
    ///
    /// # Panics
    ///
    /// Panics if `executors` is empty.
    pub fn new(executors: Vec<Executor>, mode: RecoveryMode) -> Self {
        assert!(!executors.is_empty(), "no executors");
        DagRuntime {
            executors,
            mode,
            trace: fcc_telemetry::Track::default(),
        }
    }

    /// Attaches a telemetry track; `run` then emits one span per task
    /// execution, labeled by half (`task.top` / `task.bottom`).
    pub fn set_trace(&mut self, track: fcc_telemetry::Track) {
        self.trace = track;
    }

    /// Runs `tasks` to completion under `failures`, returning statistics,
    /// or the reason the DAG cannot run: a missing dependency, a task no
    /// executor can take, or a dependency cycle.
    pub fn run(
        &self,
        tasks: &[TaskSpec],
        failures: &FailureSchedule,
    ) -> Result<RunStats, DagError> {
        let by_id: HashMap<TaskId, &TaskSpec> = tasks.iter().map(|t| (t.id, t)).collect();
        for t in tasks {
            if let Some(&dep) = t.deps.iter().find(|d| !by_id.contains_key(d)) {
                return Err(DagError::MissingDependency(t.id, dep));
            }
        }
        let mut finished: HashMap<TaskId, SimTime> = HashMap::new();
        let mut exec_free: Vec<SimTime> = vec![SimTime::ZERO; self.executors.len()];
        let mut stats = RunStats {
            makespan: SimTime::ZERO,
            useful_work: SimTime::ZERO,
            wasted_work: SimTime::ZERO,
            checkpoint_overhead: SimTime::ZERO,
            reexecutions: 0,
            correct: true,
        };
        let mut remaining: Vec<&TaskSpec> = tasks.iter().collect();
        while !remaining.is_empty() {
            let mut next_round = Vec::new();
            let mut progressed = false;
            for t in remaining {
                let ready_at = match t
                    .deps
                    .iter()
                    .map(|d| finished.get(d).copied())
                    .collect::<Option<Vec<SimTime>>>()
                {
                    Some(times) => times.into_iter().max().unwrap_or(SimTime::ZERO),
                    None => {
                        next_round.push(t);
                        continue;
                    }
                };
                progressed = true;
                // Earliest-finish executor of the right half.
                let Some((exec_idx, _)) = exec_free
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| self.executors[i].half == t.half)
                    .min_by_key(|&(_, &free)| free.max(ready_at))
                else {
                    return Err(DagError::NoExecutor(t.id, t.half));
                };
                let start = exec_free[exec_idx].max(ready_at);
                let end = self.simulate_task(t, exec_idx, start, failures, &mut stats);
                let name = match t.half {
                    Half::Top => "task.top",
                    Half::Bottom => "task.bottom",
                };
                self.trace
                    .span("task", name, start, end, fcc_telemetry::TraceCtx::NONE);
                exec_free[exec_idx] = end;
                finished.insert(t.id, end);
                stats.makespan = stats.makespan.max(end);
            }
            // Every dependency exists, so a round that starts nothing
            // leaves only tasks waiting on each other.
            if !progressed {
                return Err(DagError::Cycle(next_round.iter().map(|t| t.id).collect()));
            }
            remaining = next_round;
        }
        Ok(stats)
    }

    /// Simulates one task execution with failures; returns its end time.
    fn simulate_task(
        &self,
        t: &TaskSpec,
        exec_idx: usize,
        mut start: SimTime,
        failures: &FailureSchedule,
        stats: &mut RunStats,
    ) -> SimTime {
        let exec = self.executors[exec_idx];
        let duration = SimTime::from_ns(t.compute.as_ns() / exec.speed);
        let clobbering = !analyze_idempotence(t).is_idempotent();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            assert!(
                attempts < 10_000,
                "failure storm never lets the task finish"
            );
            // Wait out any outage at the start instant.
            while failures.is_down(exec.domain, start) {
                #[allow(clippy::expect_used)]
                let recovery = failures
                    .events()
                    .iter()
                    .filter(|e| e.domain == exec.domain && e.at <= start && start < e.recovered_at)
                    .map(|e| e.recovered_at)
                    .max()
                    // `is_down` returned true, so a covering outage exists.
                    .expect("down implies an active outage");
                start = recovery;
            }
            let end = start + self.checkpointed_duration(duration, stats);
            // Does a failure interrupt [start, end)?
            let hit = failures
                .events()
                .iter()
                .filter(|e| e.domain == exec.domain && e.at >= start && e.at < end)
                .min_by_key(|e| e.at);
            match hit {
                None => {
                    stats.useful_work += duration;
                    return end;
                }
                Some(ev) => {
                    stats.reexecutions += 1;
                    let progress = ev.at - start;
                    match self.mode {
                        RecoveryMode::Idempotent => {
                            // Everything since task start is discarded.
                            stats.wasted_work += progress;
                            if clobbering {
                                // Re-executing a clobbering task reads its
                                // own partial output: silent corruption.
                                stats.correct = false;
                            }
                            start = ev.recovered_at;
                        }
                        RecoveryMode::Checkpoint { interval, cost } => {
                            // Only work since the last checkpoint is lost.
                            let kept = kept_work(progress, interval, cost);
                            stats.wasted_work += work_done(progress, interval, cost) - kept;
                            stats.useful_work += kept;
                            let remaining = duration - kept;
                            start = ev.recovered_at;
                            let end = start + self.checkpointed_duration(remaining, stats);
                            return self.finish_with_failures(
                                remaining,
                                end,
                                start,
                                exec.domain,
                                failures,
                                stats,
                                interval,
                                cost,
                            );
                        }
                    }
                }
            }
        }
    }

    fn checkpointed_duration(&self, duration: SimTime, stats: &mut RunStats) -> SimTime {
        match self.mode {
            RecoveryMode::Idempotent => duration,
            RecoveryMode::Checkpoint { interval, cost } => {
                let checkpoints = (duration.as_ns() / interval.as_ns()).floor() as u64;
                let overhead = cost * checkpoints;
                stats.checkpoint_overhead += overhead;
                duration + overhead
            }
        }
    }

    /// Continues a checkpoint-mode task after its first failure.
    #[allow(clippy::too_many_arguments)]
    fn finish_with_failures(
        &self,
        mut remaining: SimTime,
        mut end: SimTime,
        mut start: SimTime,
        domain: usize,
        failures: &FailureSchedule,
        stats: &mut RunStats,
        interval: SimTime,
        cost: SimTime,
    ) -> SimTime {
        loop {
            while failures.is_down(domain, start) {
                #[allow(clippy::expect_used)]
                let recovery = failures
                    .events()
                    .iter()
                    .filter(|e| e.domain == domain && e.at <= start && start < e.recovered_at)
                    .map(|e| e.recovered_at)
                    .max()
                    // `is_down` returned true, so a covering outage exists.
                    .expect("active outage");
                start = recovery;
                end = start + self.checkpointed_duration(remaining, stats);
            }
            let hit = failures
                .events()
                .iter()
                .filter(|e| e.domain == domain && e.at >= start && e.at < end)
                .min_by_key(|e| e.at);
            match hit {
                None => {
                    stats.useful_work += remaining;
                    return end;
                }
                Some(ev) => {
                    stats.reexecutions += 1;
                    let progress = ev.at - start;
                    let kept = kept_work(progress, interval, cost);
                    stats.wasted_work += work_done(progress, interval, cost) - kept;
                    stats.useful_work += kept;
                    remaining -= kept;
                    start = ev.recovered_at;
                    end = start + self.checkpointed_duration(remaining, stats);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use fcc_workloads::failure::FailureEvent;

    use super::*;

    fn range(base: u64, len: u64) -> AddrRange {
        AddrRange::new(base, len)
    }

    #[test]
    fn disjoint_read_write_is_idempotent() {
        let t = TaskSpec {
            id: TaskId(1),
            reads: vec![range(0, 1024)],
            writes: vec![range(4096, 1024)],
            compute: SimTime::from_us(10.0),
            deps: vec![],
            half: Half::Bottom,
        };
        assert!(analyze_idempotence(&t).is_idempotent());
    }

    #[test]
    fn in_place_update_is_a_clobber() {
        let t = TaskSpec {
            id: TaskId(1),
            reads: vec![range(0, 1024)],
            writes: vec![range(512, 1024)],
            compute: SimTime::from_us(10.0),
            deps: vec![],
            half: Half::Bottom,
        };
        let report = analyze_idempotence(&t);
        assert!(!report.is_idempotent());
        assert_eq!(report.clobbers, vec![range(512, 512)]);
    }

    #[test]
    fn make_idempotent_versions_outputs_and_commits() {
        let t = TaskSpec {
            id: TaskId(1),
            reads: vec![range(0, 1024)],
            writes: vec![range(0, 1024)],
            compute: SimTime::from_us(10.0),
            deps: vec![],
            half: Half::Bottom,
        };
        let out = make_idempotent(&t, 0x10_0000, 99);
        assert_eq!(out.len(), 2);
        let main = &out[0];
        let commit = &out[1];
        assert!(analyze_idempotence(main).is_idempotent(), "main versioned");
        assert!(analyze_idempotence(commit).is_idempotent(), "commit safe");
        assert_eq!(main.writes, vec![range(0x10_0000, 1024)]);
        assert_eq!(commit.reads, vec![range(0x10_0000, 1024)]);
        assert_eq!(commit.writes, vec![range(0, 1024)]);
        assert_eq!(commit.deps, vec![TaskId(1)]);
    }

    #[test]
    fn already_idempotent_passes_through() {
        let t = TaskSpec::new(1, SimTime::from_us(1.0), vec![]);
        let out = make_idempotent(&t, 0x10_0000, 99);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, TaskId(1));
    }

    fn executors(n: usize) -> Vec<Executor> {
        (0..n)
            .map(|i| Executor {
                domain: i,
                speed: 1.0,
                half: Half::Bottom,
            })
            .collect()
    }

    fn no_failures() -> FailureSchedule {
        FailureSchedule::explicit(vec![])
    }

    #[test]
    fn failure_free_dag_respects_dependencies() {
        let rt = DagRuntime::new(executors(2), RecoveryMode::Idempotent);
        let tasks = vec![
            TaskSpec::new(1, SimTime::from_us(10.0), vec![]),
            TaskSpec::new(2, SimTime::from_us(10.0), vec![]),
            TaskSpec::new(3, SimTime::from_us(5.0), vec![1, 2]),
        ];
        let stats = rt.run(&tasks, &no_failures()).expect("DAG runs");
        // 1 and 2 in parallel (10us), then 3 (5us).
        assert_eq!(stats.makespan, SimTime::from_us(15.0));
        assert_eq!(stats.useful_work, SimTime::from_us(25.0));
        assert_eq!(stats.wasted_work, SimTime::ZERO);
        assert!(stats.correct);
    }

    #[test]
    fn makespan_at_least_critical_path() {
        let rt = DagRuntime::new(executors(8), RecoveryMode::Idempotent);
        let tasks = vec![
            TaskSpec::new(1, SimTime::from_us(3.0), vec![]),
            TaskSpec::new(2, SimTime::from_us(4.0), vec![1]),
            TaskSpec::new(3, SimTime::from_us(5.0), vec![2]),
        ];
        let stats = rt.run(&tasks, &no_failures()).expect("DAG runs");
        assert_eq!(stats.makespan, SimTime::from_us(12.0));
    }

    #[test]
    fn idempotent_reexecution_recovers() {
        let rt = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
        let tasks = vec![TaskSpec::new(1, SimTime::from_us(10.0), vec![])];
        // Failure at 6us, back at 8us: task restarts, finishes at 18us.
        let failures = FailureSchedule::explicit(vec![FailureEvent {
            at: SimTime::from_us(6.0),
            domain: 0,
            recovered_at: SimTime::from_us(8.0),
        }]);
        let stats = rt.run(&tasks, &failures).expect("DAG runs");
        assert_eq!(stats.makespan, SimTime::from_us(18.0));
        assert_eq!(stats.reexecutions, 1);
        assert_eq!(stats.wasted_work, SimTime::from_us(6.0));
        assert!(stats.correct);
    }

    #[test]
    fn clobbering_task_reexecution_is_flagged_incorrect() {
        let rt = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
        let mut t = TaskSpec::new(1, SimTime::from_us(10.0), vec![]);
        t.reads = vec![range(0, 64)];
        t.writes = vec![range(0, 64)];
        let failures = FailureSchedule::explicit(vec![FailureEvent {
            at: SimTime::from_us(5.0),
            domain: 0,
            recovered_at: SimTime::from_us(6.0),
        }]);
        let stats = rt.run(&[t.clone()], &failures).expect("DAG runs");
        assert!(!stats.correct, "naive re-execution corrupts");
        // After versioning, the same failure is safe.
        let fixed = make_idempotent(&t, 0x10_0000, 99);
        let stats = rt.run(&fixed, &failures).expect("DAG runs");
        assert!(stats.correct);
    }

    #[test]
    fn checkpoint_mode_loses_less_work_but_pays_overhead() {
        let tasks = vec![TaskSpec::new(1, SimTime::from_us(100.0), vec![])];
        let failures = FailureSchedule::explicit(vec![FailureEvent {
            at: SimTime::from_us(90.0),
            domain: 0,
            recovered_at: SimTime::from_us(95.0),
        }]);
        let idem = DagRuntime::new(executors(1), RecoveryMode::Idempotent)
            .run(&tasks, &failures)
            .expect("DAG runs");
        let ckpt = DagRuntime::new(
            executors(1),
            RecoveryMode::Checkpoint {
                interval: SimTime::from_us(10.0),
                cost: SimTime::from_us(1.0),
            },
        )
        .run(&tasks, &failures)
        .expect("DAG runs");
        assert!(idem.wasted_work > ckpt.wasted_work, "checkpoints save work");
        assert!(ckpt.checkpoint_overhead > SimTime::ZERO);
        assert_eq!(idem.checkpoint_overhead, SimTime::ZERO);
    }

    #[test]
    fn top_half_tasks_need_top_executors() {
        let mut execs = executors(1);
        execs.push(Executor {
            domain: 1,
            speed: 1.0,
            half: Half::Top,
        });
        let rt = DagRuntime::new(execs, RecoveryMode::Idempotent);
        let mut dispatch = TaskSpec::new(1, SimTime::from_us(1.0), vec![]);
        dispatch.half = Half::Top;
        let bulk = TaskSpec::new(2, SimTime::from_us(10.0), vec![1]);
        let stats = rt.run(&[dispatch, bulk], &no_failures()).expect("DAG runs");
        assert_eq!(stats.makespan, SimTime::from_us(11.0));
    }

    #[test]
    fn dependency_cycles_detected() {
        let rt = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
        let tasks = vec![
            TaskSpec::new(1, SimTime::from_us(1.0), vec![2]),
            TaskSpec::new(2, SimTime::from_us(1.0), vec![1]),
            TaskSpec::new(3, SimTime::from_us(1.0), vec![]),
            TaskSpec::new(4, SimTime::from_us(1.0), vec![2, 3]),
        ];
        let err = rt.run(&tasks, &no_failures()).expect_err("cycle");
        assert_eq!(err, DagError::Cycle(vec![TaskId(1), TaskId(2), TaskId(4)]));
        assert!(err.to_string().contains("cycle"));
    }

    #[test]
    fn missing_dependency_is_an_error() {
        let rt = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
        let tasks = vec![
            TaskSpec::new(1, SimTime::from_us(1.0), vec![]),
            TaskSpec::new(2, SimTime::from_us(1.0), vec![1, 7]),
        ];
        let err = DagError::MissingDependency(TaskId(2), TaskId(7));
        assert_eq!(rt.run(&tasks, &no_failures()), Err(err));
    }

    #[test]
    fn task_without_an_executor_for_its_half_is_an_error() {
        let rt = DagRuntime::new(executors(2), RecoveryMode::Idempotent);
        let mut dispatch = TaskSpec::new(1, SimTime::from_us(1.0), vec![]);
        dispatch.half = Half::Top;
        let bulk = TaskSpec::new(2, SimTime::from_us(10.0), vec![1]);
        let err = DagError::NoExecutor(TaskId(1), Half::Top);
        assert_eq!(rt.run(&[dispatch, bulk], &no_failures()), Err(err));
    }
}
