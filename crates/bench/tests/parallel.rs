//! Integration tests for the parallel experiment runner: a `--jobs N`
//! run must assemble into exactly the bytes a serial run produces, for
//! every export (report text, scalar JSON, Chrome trace, metrics).
//!
//! Scenarios are isolated (own `Engine`s, own `Capture`, seed-derived
//! RNG streams) and the harness reassembles outputs in scenario order,
//! so thread scheduling must be unobservable. These tests pin that.

use fcc_bench::harness::{assemble, run_ids};

/// A mixed bag of cheap scenarios: traced (t2, e3d) and untraced (t1,
/// e6, e10), in non-alphabetical order to catch accidental sorting.
fn ids() -> Vec<String> {
    ["t2", "t1", "e3d", "e10", "e6"]
        .iter()
        .map(ToString::to_string)
        .collect()
}

/// The deterministic exports of one recorded run, assembled by the
/// harness function the `experiments` binary exports through.
fn exports(seed: u64, jobs: usize) -> [String; 4] {
    assemble(run_ids(&ids(), true, seed, jobs, true, 1)).deterministic()
}

#[test]
fn parallel_run_is_byte_identical_to_serial() {
    let serial = exports(0, 1);
    let parallel = exports(0, 4);
    for (what, (a, b)) in ["report text", "scalar JSON", "trace JSON", "metrics JSON"]
        .iter()
        .zip(serial.iter().zip(&parallel))
    {
        assert_eq!(a, b, "{what} differs");
    }
}

#[test]
fn parallel_run_is_byte_identical_under_a_nonzero_seed() {
    assert_eq!(exports(42, 1), exports(42, 3));
}

#[test]
fn outputs_come_back_in_request_order_with_perf_samples() {
    let outputs = run_ids(&ids(), true, 0, 4, false, 1);
    let got: Vec<&str> = outputs.iter().map(|o| o.id.as_str()).collect();
    assert_eq!(got, ["t2", "t1", "e3d", "e10", "e6"]);
    // Scenarios that drive a DES engine report a nonzero event count
    // (t1 is a pure table and e6 an analytic model — no engine).
    for o in &outputs {
        if matches!(o.id.as_str(), "t2" | "e3d" | "e10") {
            assert!(o.perf.events > 0, "{} reported no events", o.id);
        }
        assert!(o.perf.wall_ms >= 0.0);
    }
    // The perf export covers every scenario, in order.
    let perf = assemble(outputs).perf;
    let mut last = 0;
    for id in ["t2", "t1", "e3d", "e10", "e6"] {
        let pos = perf.find(&format!("\"{id}\"")).expect("id in perf JSON");
        assert!(pos > last || last == 0, "{id} out of order in perf JSON");
        last = pos;
    }
}
