//! Exhaustive scheduler-isolation check, run as a CI gate.
//!
//! Explores every per-window demand schedule (`2^(K*W)`) of the standard
//! small-K tenant configurations against the real
//! [`fcc_sched::CreditPartition`] ledger, asserting ledger soundness,
//! guaranteed floor service under saturating hogs, and work conservation
//! (see [`fcc_verify::sched`]). Exits 0 when all invariants hold; on a
//! violation, prints the counterexample demand schedule and exits 1.
//! It takes no arguments; any argument exits 2 before any check runs.

use std::process::ExitCode;
use std::time::Instant;

use fcc_verify::sched::{check, Config};

fn run(label: &str, cfg: &Config) -> bool {
    let start = Instant::now();
    match check(cfg) {
        Ok(report) => {
            println!(
                "ok   {label}: {} schedules, {} credit spends ({:.2?})",
                report.schedules,
                report.spends,
                start.elapsed()
            );
            true
        }
        Err(violation) => {
            println!("FAIL {label}:");
            println!("{violation}");
            false
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().len() > 1 {
        eprintln!("usage: check-sched (takes no arguments)");
        return ExitCode::from(2);
    }
    let mut ok = true;
    ok &= run(
        "hog vs floor-holding victim, 2 tenants x 4 windows",
        &Config::hog_pair(),
    );
    ok &= run(
        "victim/bulk/hog across 2 groups, 3 tenants x 3 windows",
        &Config::hog_triple(),
    );
    ok &= run("exact-sum rounding, 4 tenants x 2 windows", &Config::quad());
    if ok {
        println!("all scheduler isolation invariants hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
