//! Deadlock-freedom gate for the wormhole switch core, run in CI.
//!
//! Sweeps every small-K pod plan ([`fcc_verify::routing::standard_plans`])
//! and proves the escape-VC channel dependency graph acyclic, then
//! explores the real `VcLink` credit ledger through every interleaving
//! of dispatches and credit returns, asserting conservation and that no
//! worm is ever wedged. Exits 0 when all checks pass; on a violation,
//! prints the counterexample and exits 1.
//!
//! `--report <path>` additionally writes a JSON verdict — including the
//! counterexample cycle or operation trace on failure — for the CI
//! artifact. Any other argument is a usage error: exit 2 before any
//! check runs.

use std::process::ExitCode;
use std::time::Instant;

use fcc_fabric::wormhole::VcConfig;
use fcc_verify::routing::{
    check_credit_ledger, check_escape_acyclic, standard_plans, RoutingViolation,
};

struct Outcome {
    checks: usize,
    routes: usize,
    states: usize,
    failure: Option<(String, RoutingViolation)>,
}

fn run() -> Outcome {
    let mut out = Outcome {
        checks: 0,
        routes: 0,
        states: 0,
        failure: None,
    };
    for (label, plan) in standard_plans() {
        let start = Instant::now();
        out.checks += 1;
        match check_escape_acyclic(&plan) {
            Ok(stats) => {
                out.routes += stats.routes;
                println!(
                    "ok   {label}: {} routes over {} channels, {} deps acyclic ({:.2?})",
                    stats.routes,
                    stats.channels,
                    stats.deps,
                    start.elapsed()
                );
            }
            Err(v) => {
                println!("FAIL {label}:\n{v}");
                out.failure = Some((label, v));
                return out;
            }
        }
    }
    for (vcs, buf, worms) in [(2u8, 1u32, 2u32), (2, 2, 2), (3, 2, 3)] {
        let label = format!("vc ledger {vcs} lanes x {buf} flits, {worms} worms");
        let start = Instant::now();
        out.checks += 1;
        match check_credit_ledger(
            VcConfig {
                vcs,
                buf_flits: buf,
            },
            worms,
        ) {
            Ok(report) => {
                out.states += report.states;
                println!("ok   {label}: {report} ({:.2?})", start.elapsed());
            }
            Err(v) => {
                println!("FAIL {label}:\n{v}");
                out.failure = Some((label, v));
                return out;
            }
        }
    }
    out
}

fn report_json(out: &Outcome) -> String {
    match &out.failure {
        None => format!(
            "{{\"status\":\"ok\",\"checks\":{},\"routes\":{},\"ledger_states\":{}}}",
            out.checks, out.routes, out.states
        ),
        Some((label, v)) => format!(
            "{{\"status\":\"fail\",\"check\":\"{label}\",\"counterexample\":{}}}",
            v.to_json()
        ),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let report = match args.as_slice() {
        [] => None,
        [flag, path] if flag == "--report" => Some(path),
        _ => {
            eprintln!("usage: check-routing [--report <path>]");
            return ExitCode::from(2);
        }
    };
    let out = run();
    if let Some(path) = report {
        if let Err(e) = std::fs::write(path, report_json(&out) + "\n") {
            eprintln!("cannot write report {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("report written to {path}");
    }
    if out.failure.is_none() {
        println!("escape routing is deadlock-free at small K; credit ledgers conserve");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
