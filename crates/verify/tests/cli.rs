//! The four checker binaries agree on bad arguments: each prints a usage
//! message on stderr and exits 2 before any check runs, so no result line
//! reaches stdout and no exit code is mistaken for a verdict (0 passes,
//! 1 is a found violation).

use std::process::Command;

/// Runs `bin` with `args` and asserts a usage error: exit 2, something on
/// stderr, nothing on stdout.
#[allow(clippy::expect_used)]
fn assert_usage_error(bin: &str, args: &[&str]) {
    let out = Command::new(bin)
        .args(args)
        .output()
        .expect("checker binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stdout.is_empty(), "{bin} {args:?} ran checks:\n{stdout}");
    assert!(!stderr.trim().is_empty(), "{bin} {args:?}: no message");
}

#[test]
fn check_routing_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_check-routing");
    assert_usage_error(bin, &["--report"]);
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--report", "r.json", "extra"]);
}

#[test]
fn check_sched_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_check-sched");
    assert_usage_error(bin, &["--bogus"]);
}

#[test]
fn check_coherence_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_check-coherence");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--inject"]);
    assert_usage_error(bin, &["--inject", "nope"]);
}

#[test]
fn check_reconfig_rejects_bad_arguments() {
    let bin = env!("CARGO_BIN_EXE_check-reconfig");
    assert_usage_error(bin, &["--bogus"]);
    assert_usage_error(bin, &["--inject"]);
    assert_usage_error(bin, &["--inject", "nope"]);
}
