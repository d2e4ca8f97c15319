//! Wall-clock regression gate over the committed experiment baseline.
//!
//! Usage:
//!
//! ```text
//! bench_gate update [--baseline <file>] [--history <file>] [--runs <n>]
//!                   [--jobs <n>]
//! bench_gate check  [--baseline <file>] [--runs <n>] [--jobs <n>]
//!                   [--tolerance <pct>] [--report <file>]
//! bench_gate shards [--id <id>] [--shards <n>] [--runs <n>]
//!                   [--min-speedup <x>] [--report <file>]
//! ```
//!
//! `update` reruns every scenario, takes the per-scenario **median** of
//! `--runs` (default 3) wall-clock samples, and rewrites the baseline
//! file (default `BENCH_experiments.json`) with the deterministic scalar
//! results plus a `"_perf"` section. It also appends a timestamped entry
//! to the trajectory file (default `BENCH_history.json`), so the
//! wall-clock history of the suite survives baseline rewrites. `check`
//! takes fresh medians and compares them against the committed `"_perf"`:
//!
//! * **events** and every **scalar result** must match the baseline
//!   exactly — both are deterministic, so any drift is a simulation
//!   change, not noise;
//! * **wall_ms** may not regress by more than `--tolerance` percent
//!   (default 25); scenarios whose baseline wall-clock is under 5 ms are
//!   exempt from the timing check (too small to measure reliably) but
//!   still event- and scalar-checked.
//!
//! `shards` gates the sharded executor itself: it runs one scenario
//! (default `e3x`) serially and with `--shards <n>` (default 4) worker
//! threads, requires **exactly equal event counts** and **byte-identical
//! exports** (report text, results, trace, metrics) between the two,
//! and — when the host has at least `<n>` CPUs — requires the sharded
//! median wall clock to beat serial by `--min-speedup` (default 1.5x).
//! On smaller hosts the timing half is reported but exempt, mirroring
//! the 5 ms rule above: parallel speedup is unmeasurable without
//! parallel hardware, while the determinism contract is checkable
//! anywhere.
//!
//! `--report` writes a per-scenario comparison JSON (the CI artifact).
//! Exit code: 0 = green, 1 = regression, event or scalar drift, 2 =
//! usage / baseline errors.

use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use fcc_bench::harness::{
    assemble, baseline_json, registry_entry, run_ids, PerfSample, Scalars, ALL,
};
use fcc_telemetry::json::{self, JsonValue};

/// Tolerated wall-clock regression, percent.
const DEFAULT_TOLERANCE: f64 = 25.0;
/// Baselines below this wall-clock are exempt from the timing check.
const MIN_GATED_WALL_MS: f64 = 5.0;
/// Default required serial/sharded speedup for `bench_gate shards`.
const DEFAULT_MIN_SPEEDUP: f64 = 1.5;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench_gate update [--baseline <file>] [--history <file>] [--runs <n>] [--jobs <n>]\n       \
         bench_gate check  [--baseline <file>] [--runs <n>] [--jobs <n>] \
         [--tolerance <pct>] [--report <file>]\n       \
         bench_gate shards [--id <id>] [--shards <n>] [--runs <n>] \
         [--min-speedup <x>] [--report <file>]"
    );
    ExitCode::from(2)
}

/// Per-scenario deterministic scalars and median perf samples.
type Measured = (Vec<(String, Scalars)>, Vec<(String, PerfSample)>);

/// Median-wall-clock fold over one scenario's samples.
fn median(mut s: Vec<PerfSample>) -> PerfSample {
    s.sort_by(|a, b| a.wall_ms.total_cmp(&b.wall_ms));
    s[s.len() / 2]
}

/// Runs every scenario `runs` times and folds each scenario to its
/// median-wall-clock sample. Scalars come from the first run (they are
/// deterministic; later runs only re-measure time).
fn measure(runs: usize, jobs: usize) -> Measured {
    let ids: Vec<String> = ALL.iter().map(|&(id, _, _, _)| id.to_string()).collect();
    let mut results: Vec<(String, Scalars)> = Vec::new();
    let mut samples: Vec<Vec<PerfSample>> = vec![Vec::new(); ids.len()];
    for run in 0..runs {
        eprintln!("bench_gate: measuring run {}/{runs}", run + 1);
        let outputs = run_ids(&ids, false, 0, jobs, false, 1);
        for (i, o) in outputs.into_iter().enumerate() {
            if run == 0 {
                results.push((o.id, o.scalars));
            }
            samples[i].push(o.perf);
        }
    }
    let perf = ids
        .into_iter()
        .zip(samples)
        .map(|(id, s)| (id, median(s)))
        .collect();
    (results, perf)
}

/// Appends one timestamped `{unix_time, runs, scenarios}` entry to the
/// JSON-array trajectory file, creating it if absent. The file stays a
/// valid JSON array after every append (verified by re-parsing).
fn append_history(path: &str, runs: usize, perf: &[(String, PerfSample)]) -> Result<(), String> {
    let unix_time = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut entry = format!("  {{\"unix_time\": {unix_time}, \"runs\": {runs}, \"scenarios\": {{");
    for (i, (id, p)) in perf.iter().enumerate() {
        entry.push_str(&format!(
            "\"{id}\": {{\"wall_ms\": {:.3}, \"events\": {}}}{}",
            p.wall_ms,
            p.events,
            if i + 1 < perf.len() { ", " } else { "" }
        ));
    }
    entry.push_str("}}");
    let existing = std::fs::read_to_string(path).unwrap_or_default();
    let trimmed = existing.trim_end().trim_end_matches(']').trim_end();
    let doc = if trimmed.is_empty() || trimmed == "[" {
        format!("[\n{entry}\n]\n")
    } else {
        format!("{trimmed},\n{entry}\n]\n")
    };
    json::parse(&doc).map_err(|e| format!("history would be invalid JSON: {e}"))?;
    std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
}

/// Differences between a scenario's fresh scalars and its `baseline`
/// object, one `key: baseline -> fresh` line each.
fn scalar_drift(baseline: Option<&JsonValue>, fresh: &Scalars) -> Vec<String> {
    let base = baseline.and_then(JsonValue::as_obj).unwrap_or(&[]);
    let lookup = |k: &str| base.iter().find(|(bk, _)| bk == k).map(|(_, v)| v);
    let mut drift = Vec::new();
    for (k, v) in fresh {
        // `results_json` writes non-finite values as null.
        let (same, was) = match lookup(k) {
            Some(JsonValue::Num(b)) => (b == v, b.to_string()),
            Some(JsonValue::Null) => (!v.is_finite(), "null".to_string()),
            Some(_) => (false, "not a number".to_string()),
            None => (false, "missing".to_string()),
        };
        if !same {
            drift.push(format!("{k}: {was} -> {v}"));
        }
    }
    for (k, _) in base {
        if fresh.iter().all(|(fk, _)| fk != k) {
            drift.push(format!("{k}: no longer reported"));
        }
    }
    drift
}

/// One scenario's baseline-vs-measured comparison.
struct Row {
    id: String,
    base: PerfSample,
    fresh: PerfSample,
    wall_gated: bool,
    scalars_ok: bool,
    ok: bool,
}

fn check(
    baseline_path: &str,
    tolerance: f64,
    report_path: Option<&str>,
    runs: usize,
    jobs: usize,
) -> ExitCode {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: baseline {baseline_path} is not valid JSON: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(perf_obj) = doc.get("_perf").and_then(|p| p.as_obj()) else {
        eprintln!(
            "error: baseline {baseline_path} has no \"_perf\" section; \
             run `bench_gate update` and commit the result"
        );
        return ExitCode::from(2);
    };
    let (results, fresh) = measure(runs, jobs);
    let mut rows: Vec<Row> = Vec::new();
    let mut failed = false;
    for ((id, perf), (_, scalars)) in fresh.into_iter().zip(&results) {
        let Some(entry) = perf_obj.iter().find(|(k, _)| *k == id).map(|(_, v)| v) else {
            eprintln!("FAIL {id}: not in baseline _perf (run `bench_gate update`)");
            failed = true;
            continue;
        };
        let base = PerfSample {
            wall_ms: entry.get("wall_ms").and_then(|v| v.as_f64()).unwrap_or(0.0),
            events: entry.get("events").and_then(|v| v.as_u64()).unwrap_or(0),
        };
        let wall_gated = base.wall_ms >= MIN_GATED_WALL_MS;
        let wall_ok = !wall_gated || perf.wall_ms <= base.wall_ms * (1.0 + tolerance / 100.0);
        let events_ok = perf.events == base.events;
        let drift = scalar_drift(doc.get(&id), scalars);
        for d in &drift {
            eprintln!("FAIL {id}: scalar {d} (simulation change, not noise)");
        }
        let scalars_ok = drift.is_empty();
        let ok = wall_ok && events_ok && scalars_ok;
        if !events_ok {
            eprintln!(
                "FAIL {id}: event count drifted {} -> {} (simulation change, not noise)",
                base.events, perf.events
            );
        } else if !wall_ok {
            eprintln!(
                "FAIL {id}: wall {:.1} ms -> {:.1} ms (+{:.0}%, tolerance {tolerance:.0}%)",
                base.wall_ms,
                perf.wall_ms,
                (perf.wall_ms / base.wall_ms - 1.0) * 100.0
            );
        } else if scalars_ok {
            eprintln!(
                "ok   {id}: wall {:.1} ms -> {:.1} ms, {} events{}",
                base.wall_ms,
                perf.wall_ms,
                perf.events,
                if wall_gated { "" } else { " (timing exempt)" }
            );
        }
        failed |= !ok;
        rows.push(Row {
            id,
            base,
            fresh: perf,
            wall_gated,
            scalars_ok,
            ok,
        });
    }
    if let Some(path) = report_path {
        let mut out = String::from("{\n");
        out.push_str(&format!(
            "  \"tolerance_pct\": {tolerance}, \"runs\": {runs}, \"pass\": {},\n  \"scenarios\": {{\n",
            !failed
        ));
        for (i, r) in rows.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {{\"baseline_wall_ms\": {:.3}, \"wall_ms\": {:.3}, \
                 \"baseline_events\": {}, \"events\": {}, \"events_per_sec\": {:.1}, \
                 \"scalars_match\": {}, \"timing_gated\": {}, \"pass\": {}}}",
                r.id,
                r.base.wall_ms,
                r.fresh.wall_ms,
                r.base.events,
                r.fresh.events,
                r.fresh.events_per_sec(),
                r.scalars_ok,
                r.wall_gated,
                r.ok
            ));
            out.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }\n}\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("error: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote comparison report to {path}");
    }
    if failed {
        eprintln!("bench_gate: FAIL");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_gate: pass");
        ExitCode::SUCCESS
    }
}

/// The deterministic exports of one recorded run, for byte-comparison.
fn assembled_exports(id: &str, shards: usize) -> [String; 4] {
    assemble(run_ids(&[id.to_string()], false, 0, 1, true, shards)).deterministic()
}

/// Gates the sharded executor: determinism everywhere, speedup where the
/// host can express it.
fn shards_gate(
    id: &str,
    shards: usize,
    runs: usize,
    min_speedup: f64,
    report_path: Option<&str>,
) -> ExitCode {
    if registry_entry(id).is_none() {
        eprintln!("error: unknown experiment id: {id}");
        return ExitCode::from(2);
    }
    let mut medians = Vec::new();
    for &workers in &[1, shards] {
        let mut samples = Vec::new();
        for run in 0..runs {
            eprintln!(
                "bench_gate: {id} --shards {workers}, run {}/{runs}",
                run + 1
            );
            let outputs = run_ids(&[id.to_string()], false, 0, 1, false, workers);
            samples.push(outputs[0].perf);
        }
        medians.push(median(samples));
    }
    let (serial, sharded) = (medians[0], medians[1]);
    let mut failed = false;
    if serial.events != sharded.events {
        eprintln!(
            "FAIL {id}: event count diverged across worker counts: {} (serial) vs {} \
             (--shards {shards}) — the executor broke determinism",
            serial.events, sharded.events
        );
        failed = true;
    }
    eprintln!("bench_gate: comparing recorded exports (serial vs --shards {shards})");
    let base = assembled_exports(id, 1);
    let exports_ok = assembled_exports(id, shards) == base;
    if !exports_ok {
        eprintln!("FAIL {id}: exports are not byte-identical across worker counts");
        failed = true;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = serial.wall_ms / sharded.wall_ms.max(1e-9);
    let timing_gated = cores >= shards;
    if timing_gated && speedup < min_speedup {
        eprintln!(
            "FAIL {id}: --shards {shards} speedup {speedup:.2}x < required {min_speedup:.2}x \
             (serial {:.1} ms, sharded {:.1} ms)",
            serial.wall_ms, sharded.wall_ms
        );
        failed = true;
    } else {
        eprintln!(
            "ok   {id}: serial {:.1} ms, --shards {shards} {:.1} ms, speedup {speedup:.2}x{}",
            serial.wall_ms,
            sharded.wall_ms,
            if timing_gated {
                String::new()
            } else {
                format!(" (timing exempt: {cores} CPUs < {shards} shards)")
            }
        );
    }
    if let Some(path) = report_path {
        let out = format!(
            "{{\n  \"id\": \"{id}\", \"shards\": {shards}, \"runs\": {runs}, \
             \"min_speedup\": {min_speedup}, \"cpus\": {cores},\n  \
             \"serial_wall_ms\": {:.3}, \"sharded_wall_ms\": {:.3}, \"speedup\": {speedup:.3},\n  \
             \"serial_events\": {}, \"sharded_events\": {}, \"exports_identical\": {exports_ok},\n  \
             \"timing_gated\": {timing_gated}, \"pass\": {}\n}}\n",
            serial.wall_ms,
            sharded.wall_ms,
            serial.events,
            sharded.events,
            !failed
        );
        if let Err(e) = std::fs::write(path, out) {
            eprintln!("error: cannot write report {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("wrote shards report to {path}");
    }
    if failed {
        eprintln!("bench_gate: FAIL");
        ExitCode::FAILURE
    } else {
        eprintln!("bench_gate: pass");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut mode: Option<String> = None;
    let mut baseline = "BENCH_experiments.json".to_string();
    let mut history = "BENCH_history.json".to_string();
    let mut report: Option<String> = None;
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut runs = 3usize;
    let mut jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut shards = 4usize;
    let mut min_speedup = DEFAULT_MIN_SPEEDUP;
    let mut id = "e3x".to_string();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "update" | "check" | "shards" if mode.is_none() => mode = Some(a),
            "--baseline" | "--history" | "--report" | "--tolerance" | "--runs" | "--jobs"
            | "--shards" | "--min-speedup" | "--id" => {
                let Some(v) = it.next() else {
                    eprintln!("error: {a} requires a value");
                    return usage();
                };
                match a.as_str() {
                    "--baseline" => baseline = v,
                    "--history" => history = v,
                    "--report" => report = Some(v),
                    "--id" => id = v,
                    other => {
                        let Ok(n) = v.parse::<f64>() else {
                            eprintln!("error: {a} {v:?}: not a number");
                            return usage();
                        };
                        match other {
                            "--tolerance" => tolerance = n,
                            "--runs" => runs = (n as usize).max(1),
                            "--shards" => shards = (n as usize).max(1),
                            "--min-speedup" => min_speedup = n,
                            _ => jobs = (n as usize).max(1),
                        }
                    }
                }
            }
            _ => {
                eprintln!("error: unexpected argument {a}");
                return usage();
            }
        }
    }
    match mode.as_deref() {
        Some("update") => {
            let (results, perf) = measure(runs, jobs);
            match std::fs::write(&baseline, baseline_json(&results, &perf)) {
                Ok(()) => {
                    eprintln!("bench_gate: wrote baseline to {baseline}");
                    match append_history(&history, runs, &perf) {
                        Ok(()) => {
                            eprintln!("bench_gate: appended trajectory entry to {history}");
                            ExitCode::SUCCESS
                        }
                        Err(e) => {
                            eprintln!("error: {e}");
                            ExitCode::from(2)
                        }
                    }
                }
                Err(e) => {
                    eprintln!("error: cannot write {baseline}: {e}");
                    ExitCode::from(2)
                }
            }
        }
        Some("check") => check(&baseline, tolerance, report.as_deref(), runs, jobs),
        Some("shards") => shards_gate(&id, shards, runs, min_speedup, report.as_deref()),
        _ => usage(),
    }
}
