//! Integration tests for the sharded executor's determinism contract:
//! a `--shards M` run must assemble into exactly the bytes a serial run
//! produces, for every export (report text, scalar JSON, Chrome trace,
//! metrics), for every worker count, composed with any `--jobs N`.
//!
//! The shard decomposition is fixed by the topology (one shard per
//! switch domain); `--shards` only picks the worker-thread fan-out, so
//! thread scheduling must be unobservable. Single-engine scenarios
//! (`e3e`, `e5`, `e11`, `nodes`) ignore the knob entirely — they ride
//! along here to pin that passing `--shards` through the harness is a
//! no-op for them.
//!
//! The serial run is also pinned across commits: its four exports must
//! hash to the FNV-1a digests recorded in `SERIAL_DIGESTS`. A refactor
//! that keeps every export byte-identical leaves them alone; a change
//! that alters an export on purpose records the new digests here.

use fcc_bench::harness::{assemble, run_ids};

/// The sharded scenarios (`e3x`, the scheduler-governed `e12`, the
/// serving-tier `e13`, and the wormhole pod `e14`) plus single-engine
/// scenarios from four layers (fabric interference, placement policy,
/// elastic composition, and `nodes`, the one scenario whose traffic
/// ends at a CC-NUMA directory node).
fn ids() -> Vec<String> {
    ["e3x", "e12", "e13", "e14", "e3e", "e5", "e11", "nodes"]
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// FNV-1a (64-bit) digests of the serial quick seed-0 run's report text,
/// scalar JSON, trace JSON and metrics JSON, in that order.
const SERIAL_DIGESTS: [u64; 4] = [
    0xea89_3188_3bd7_cf3f,
    0xcec6_55e8_d0d0_ae4d,
    0x9848_8561_26c4_3bda,
    0xe6c5_3b0f_e74b_3fe8,
];

/// 64-bit FNV-1a: a fixed hash, unlike `DefaultHasher`, whose output may
/// change between toolchains.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The deterministic exports of one recorded run, assembled by the
/// harness function the `experiments` binary exports through.
fn exports(seed: u64, jobs: usize, shards: usize) -> [String; 4] {
    assemble(run_ids(&ids(), true, seed, jobs, true, shards)).deterministic()
}

#[test]
fn sharded_runs_are_byte_identical_for_every_worker_count() {
    let serial = exports(0, 1, 1);
    let digests = serial.each_ref().map(|s| fnv1a(s.as_bytes()));
    assert_eq!(
        digests, SERIAL_DIGESTS,
        "serial exports changed; their digests are now {digests:#018x?}"
    );
    for shards in [2, 4, 8] {
        let sharded = exports(0, 1, shards);
        for (what, (a, b)) in ["report text", "scalar JSON", "trace JSON", "metrics JSON"]
            .iter()
            .zip(serial.iter().zip(&sharded))
        {
            assert_eq!(a, b, "{what} differs at --shards {shards}");
        }
    }
}

#[test]
fn sharded_workers_compose_with_parallel_scenario_jobs() {
    assert_eq!(
        exports(0, 1, 1),
        exports(0, 3, 4),
        "--shards 4 + --jobs 3 diverged from serial"
    );
}

#[test]
fn sharded_runs_are_byte_identical_under_a_nonzero_seed() {
    for seed in [42, 0xFCC] {
        assert_eq!(
            exports(seed, 1, 1),
            exports(seed, 2, 2),
            "seed {seed} diverged"
        );
    }
}
