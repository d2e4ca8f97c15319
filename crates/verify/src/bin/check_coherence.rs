//! Exhaustive coherence-protocol check, run as a CI gate.
//!
//! Enumerates every reachable state of small host/line configurations
//! of the real CC-NUMA protocol engines and checks coherence safety
//! and deadlock freedom. Exits 0 when all invariants hold; on a
//! violation, prints the full counterexample message trace and exits 1.
//!
//! `--inject drop-invalidate` or `--inject lose-grant` deliberately
//! breaks the protocol to demonstrate the failure path (the run is
//! then *expected* to report a violation and exit non-zero).

use std::process::ExitCode;
use std::time::Instant;

use fcc_verify::coherence::{check, Config, Mutation};

fn run(label: &str, cfg: &Config) -> bool {
    let start = Instant::now();
    match check(cfg) {
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
    let mutation = match args.as_slice() {
        [] => None,
        [flag, which] if flag == "--inject" => match which.as_str() {
            "drop-invalidate" => Some(Mutation::DropInvalidate),
            "lose-grant" => Some(Mutation::LoseGrant),
            other => {
                eprintln!("unknown mutation {other:?} (drop-invalidate | lose-grant)");
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: check-coherence [--inject drop-invalidate|lose-grant]");
            return ExitCode::from(2);
        }
    };

    let mut configs = vec![
        ("2 hosts x 1 line x 3 ops", Config::new(2, 1, 3)),
        ("2 hosts x 2 lines x 2 ops", Config::new(2, 2, 2)),
        ("3 hosts x 1 line x 2 ops", Config::new(3, 1, 2)),
    ];
    if mutation.is_some() {
        // One small config is enough to demonstrate detection.
        configs.truncate(1);
        for (_, cfg) in &mut configs {
            cfg.mutation = mutation;
        }
        println!("injecting {mutation:?}: a violation report below is the expected outcome");
    }

    let mut ok = true;
    for (label, cfg) in &configs {
        ok &= run(label, cfg);
    }
    if ok {
        println!("all coherence invariants hold");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
