//! Resilient tasks: idempotent re-execution across passive failure
//! domains (design principle #3).
//!
//! ```text
//! cargo run --release --example resilient_tasks
//! ```
//!
//! Builds a fork-join DAG, injects power-domain failures, and compares
//! idempotent re-execution with a checkpoint/restore baseline. Also
//! demonstrates the compilation side: a task that overwrites its own
//! input is detected, versioned into an idempotent pair, and survives a
//! crash that corrupts the naive version.

use fcc::proto::addr::AddrRange;
use fcc::sim::SimTime;
use fcc::unifabric::task::{
    analyze_idempotence, make_idempotent, DagError, DagRuntime, Executor, Half, RecoveryMode,
    TaskSpec,
};
use fcc::workloads::failure::FailureSchedule;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn executors(n: usize) -> Vec<Executor> {
    (0..n)
        .map(|d| Executor {
            domain: d,
            speed: 1.0,
            half: Half::Bottom,
        })
        .collect()
}

fn main() -> Result<(), DagError> {
    let mut rng = StdRng::seed_from_u64(3);
    // A 3-stage fork-join DAG of 50 µs tasks.
    let mut tasks = Vec::new();
    let mut id = 0u32;
    let mut prev: Option<u32> = None;
    for _stage in 0..3 {
        let mut layer = Vec::new();
        for _ in 0..6 {
            let deps = prev.map(|p| vec![p]).unwrap_or_default();
            tasks.push(TaskSpec::new(id, SimTime::from_us(50.0), deps));
            layer.push(id);
            id += 1;
        }
        tasks.push(TaskSpec::new(id, SimTime::from_us(25.0), layer));
        prev = Some(id);
        id += 1;
    }
    let failures = FailureSchedule::draw(
        4,
        SimTime::from_us(300.0),
        SimTime::from_us(20.0),
        SimTime::from_ms(10.0),
        &mut rng,
    );
    println!(
        "injected {} failures across 4 power domains",
        failures.events().len()
    );
    let idem = DagRuntime::new(executors(4), RecoveryMode::Idempotent).run(&tasks, &failures)?;
    let ckpt = DagRuntime::new(
        executors(4),
        RecoveryMode::Checkpoint {
            interval: SimTime::from_us(10.0),
            cost: SimTime::from_us(2.0),
        },
    )
    .run(&tasks, &failures)?;
    println!("idempotent re-execution:");
    println!(
        "  makespan {:.0} us, wasted {:.0} us, restarts {}, overhead 0 us, correct: {}",
        idem.makespan.as_us(),
        idem.wasted_work.as_us(),
        idem.reexecutions,
        idem.correct
    );
    println!("checkpoint/restore baseline:");
    println!(
        "  makespan {:.0} us, wasted {:.0} us, restarts {}, overhead {:.0} us, correct: {}",
        ckpt.makespan.as_us(),
        ckpt.wasted_work.as_us(),
        ckpt.reexecutions,
        ckpt.checkpoint_overhead.as_us(),
        ckpt.correct
    );
    // The compilation framework: clobber detection and output versioning.
    let mut in_place = TaskSpec::new(0, SimTime::from_us(50.0), vec![]);
    in_place.reads = vec![AddrRange::new(0, 4096)];
    in_place.writes = vec![AddrRange::new(0, 4096)];
    let report = analyze_idempotence(&in_place);
    println!(
        "\nin-place task: idempotent = {}, clobbered regions = {:?}",
        report.is_idempotent(),
        report.clobbers
    );
    let versioned = make_idempotent(&in_place, 0x10_0000, 99);
    println!(
        "after output versioning: {} tasks, all idempotent = {}",
        versioned.len(),
        versioned
            .iter()
            .all(|t| analyze_idempotence(t).is_idempotent())
    );
    let crash = FailureSchedule::explicit(vec![fcc::workloads::failure::FailureEvent {
        at: SimTime::from_us(25.0),
        domain: 0,
        recovered_at: SimTime::from_us(30.0),
    }]);
    let single = DagRuntime::new(executors(1), RecoveryMode::Idempotent);
    let naive = single.run(std::slice::from_ref(&in_place), &crash)?;
    let fixed = single.run(&versioned, &crash)?;
    println!(
        "crash mid-task: naive re-execution correct = {}, versioned correct = {}",
        naive.correct, fixed.correct
    );
    Ok(())
}
