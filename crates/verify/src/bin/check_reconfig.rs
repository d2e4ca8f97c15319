//! Exhaustive reconfiguration-protocol check, run as a CI gate.
//!
//! Explores every interleaving of the epoch-based hot-add and
//! hot-remove plans ([`fcc_elastic::epoch`]) against in-flight fabric
//! traffic on 1–3 switch chains, asserting no flit is ever dropped at a
//! missing route or delivered to a detached port. Exits 0 when all
//! invariants hold; on a violation, prints the minimal counterexample
//! trace and exits 1.
//!
//! `--inject naive-add` or `--inject naive-yank` runs the deliberately
//! broken plan variants to demonstrate the failure path (the run is
//! then *expected* to report a violation and exit non-zero).

use std::process::ExitCode;
use std::time::Instant;

use fcc_elastic::epoch::{hot_add_naive, hot_add_plan, hot_remove_naive, hot_remove_plan};
use fcc_verify::reconfig::{check, Config, Direction};

fn run(label: &str, plan: &fcc_elastic::epoch::ReconfigPlan, dir: Direction, cfg: &Config) -> bool {
    let start = Instant::now();
    match check(plan, dir, cfg) {
        Ok(report) => {
            println!("ok   {label}: {report} ({:.2?})", start.elapsed());
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
    let args: Vec<String> = std::env::args().skip(1).collect();
    let inject = match args.as_slice() {
        [] => None,
        [flag, which] if flag == "--inject" => match which.as_str() {
            "naive-add" => Some(Direction::Add),
            "naive-yank" => Some(Direction::Remove),
            other => {
                eprintln!("unknown mutation {other:?} (naive-add | naive-yank)");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: check-reconfig [--inject naive-add|naive-yank]");
            return ExitCode::from(2);
        }
    };

    if let Some(dir) = inject {
        println!("injecting {dir:?}: a violation report below is the expected outcome");
        let cfg = Config::new(2, 2);
        let ok = match dir {
            Direction::Add => run("naive add, 2 switches", &hot_add_naive(2), dir, &cfg),
            Direction::Remove => run("naive yank, 2 switches", &hot_remove_naive(2), dir, &cfg),
        };
        // A clean run under injection means the checker missed the bug.
        return if ok {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let mut ok = true;
    for switches in 1..=3 {
        let cfg = Config::new(switches, 3);
        ok &= run(
            &format!("two-phase hot-add, {switches} switch(es) x 3 flits"),
            &hot_add_plan(switches),
            Direction::Add,
            &cfg,
        );
        ok &= run(
            &format!("guarded hot-remove, {switches} switch(es) x 3 flits"),
            &hot_remove_plan(switches),
            Direction::Remove,
            &cfg,
        );
    }

    // The naive variants must be *caught* — a clean pass there means the
    // checker has lost its teeth.
    let cfg = Config::new(2, 2);
    let naive_add_caught = !run(
        "naive add (expected FAIL)",
        &hot_add_naive(2),
        Direction::Add,
        &cfg,
    );
    let naive_yank_caught = !run(
        "naive yank (expected FAIL)",
        &hot_remove_naive(2),
        Direction::Remove,
        &cfg,
    );
    if naive_add_caught && naive_yank_caught {
        println!("naive plans correctly rejected (the FAIL reports above are expected)");
    } else {
        println!("ERROR: a naive plan passed the checker");
        ok = false;
    }

    if ok {
        println!("all reconfiguration invariants hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
