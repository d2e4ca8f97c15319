//! Regenerates the paper's tables, figures, and quantified claims.
//!
//! Usage:
//!
//! ```text
//! experiments list
//! experiments [--quick] [--jobs <n>] [--shards <n>] [--json <file>] \
//!             [--trace <file>] [--metrics <file>] [--perf <file>] <id>... | all
//! ```
//!
//! * `list` prints the experiment-id table and exits.
//! * `--quick` shortens op counts (CI-friendly; same shapes).
//! * `--seed <n>` salts every scenario's RNG (default 0, the published
//!   numbers); different seeds re-draw workloads without changing shapes.
//! * `--jobs <n>` caps the scenario fan-out (default: one per core).
//!   Every export is byte-identical for any `--jobs` value: scenarios are
//!   fully isolated and outputs are assembled in scenario order.
//! * `--shards <n>` sets the worker-thread fan-out of sharded-executor
//!   scenarios (`e3x`, `e12`, `e13`, `e14`; default 1). The shard
//!   decomposition is fixed by the topology, so exports are
//!   byte-identical for any `--shards` value, composed freely with
//!   `--jobs`.
//! * `--json <file>` writes every run experiment's scalar results as one
//!   JSON object keyed by experiment id. Timing never appears here — the
//!   simulation results are deterministic and diffable.
//! * `--perf <file>` writes per-scenario wall-clock and events/sec (the
//!   non-deterministic measurements) as JSON. Nothing reads it back:
//!   the `bench_gate` binary takes its own measurements.
//! * `--trace <file>` writes a Chrome-trace-event/Perfetto JSON causal
//!   trace of the instrumented experiments (the `traced` column of
//!   `list`: T2, E3a–E3e, E3x and E11–E14); load it in
//!   `ui.perfetto.dev` or feed it to the `trace-report` binary.
//! * `--metrics <file>` writes the hierarchical metrics registry
//!   harvested from the same runs as JSON.

use std::process::ExitCode;

use fcc_bench::fmt_table;
use fcc_bench::harness::{assemble, registry_entry, run_ids, ALL};

fn print_list() {
    let rows: Vec<Vec<String>> = ALL
        .iter()
        .map(|&(id, traced, _, desc)| {
            vec![
                id.to_string(),
                if traced { "yes" } else { "-" }.to_string(),
                desc.to_string(),
            ]
        })
        .collect();
    print!("{}", fmt_table(&["id", "traced", "description"], &rows));
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: experiments list\n       experiments [--quick] [--seed <n>] [--jobs <n>] \
         [--shards <n>] [--json <file>] [--trace <file>] [--metrics <file>] [--perf <file>] \
         <id>... | all"
    );
    eprintln!(
        "ids: {} all",
        ALL.iter()
            .map(|&(id, _, _, _)| id)
            .collect::<Vec<_>>()
            .join(" ")
    );
    ExitCode::from(2)
}

fn write_file(path: &str, contents: &str, what: &str) -> Result<(), ExitCode> {
    match std::fs::write(path, contents) {
        Ok(()) => {
            eprintln!("wrote {what} to {path}");
            Ok(())
        }
        Err(e) => {
            eprintln!("error: cannot write {what} to {path}: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut seed = 0u64;
    let mut jobs: Option<usize> = None;
    let mut shards = 1usize;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut perf_path: Option<String> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--seed" | "--jobs" | "--shards" => {
                let Some(n) = it.next() else {
                    eprintln!("error: {a} requires a number");
                    return usage();
                };
                match (a.as_str(), n.parse::<u64>()) {
                    ("--seed", Ok(v)) => seed = v,
                    ("--shards", Ok(v)) => shards = (v as usize).max(1),
                    (_, Ok(v)) => jobs = Some((v as usize).max(1)),
                    (_, Err(e)) => {
                        eprintln!("error: {a} {n:?}: {e}");
                        return usage();
                    }
                }
            }
            "--json" | "--trace" | "--metrics" | "--perf" => {
                let Some(path) = it.next() else {
                    eprintln!("error: {a} requires a file argument");
                    return usage();
                };
                match a.as_str() {
                    "--json" => json_path = Some(path),
                    "--trace" => trace_path = Some(path),
                    "--perf" => perf_path = Some(path),
                    _ => metrics_path = Some(path),
                }
            }
            "list" => {
                print_list();
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(),
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other}");
                return usage();
            }
            other => ids.push(other.to_string()),
        }
    }
    if ids.is_empty() {
        return usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL.iter().map(|&(id, _, _, _)| id.to_string()).collect();
    }
    // Reject typos before running anything: a bad id at position N must
    // not cost the N-1 experiments before it.
    for id in &ids {
        if registry_entry(id).is_none() {
            eprintln!("unknown experiment id: {id}");
            return usage();
        }
    }
    let capture_wanted = trace_path.is_some() || metrics_path.is_some();
    if capture_wanted {
        let untraced: Vec<&str> = ids
            .iter()
            .map(String::as_str)
            .filter(|id| registry_entry(id).is_some_and(|&(_, traced, _, _)| !traced))
            .collect();
        if !untraced.is_empty() {
            eprintln!(
                "note: no tracing instrumentation for: {} (runs untraced)",
                untraced.join(" ")
            );
        }
    }
    let jobs = jobs.unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
    // Assembled in scenario order: every export is byte-identical for any
    // `--jobs`.
    let exports = assemble(run_ids(&ids, quick, seed, jobs, capture_wanted, shards));
    print!("{}", exports.text);
    if let Some(path) = &json_path {
        if let Err(code) = write_file(path, &exports.results, "results") {
            return code;
        }
    }
    if let Some(path) = &perf_path {
        if let Err(code) = write_file(path, &exports.perf, "perf samples") {
            return code;
        }
    }
    if let Some(path) = &trace_path {
        if let Err(code) = write_file(path, &exports.trace_json(), "trace") {
            return code;
        }
    }
    if let Some(path) = &metrics_path {
        if let Err(code) = write_file(path, &exports.metrics, "metrics") {
            return code;
        }
    }
    ExitCode::SUCCESS
}
