//! Integration test: run `fcc-lint` over the live workspace and assert
//! the gate holds — zero unbaselined findings, no stale baseline
//! entries, and a deterministic report.

use std::path::PathBuf;

use fcc_lint::{baseline::Baseline, workspace};

fn repo_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    let manifest_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest_dir
        .parent()
        .and_then(|p| p.parent())
        .map(PathBuf::from)
        .unwrap_or(manifest_dir)
}

#[test]
fn live_workspace_has_zero_unbaselined_findings() {
    let root = repo_root();
    let (findings, errors) = match workspace::run(&root) {
        Ok(r) => r,
        Err(e) => panic!("lint run failed: {e}"),
    };
    assert!(errors.is_empty(), "io errors during lint: {errors:?}");

    let baseline_path = root.join("lint_baseline.json");
    let text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => panic!("read {}: {e}", baseline_path.display()),
    };
    let baseline = match Baseline::parse(&text) {
        Ok(b) => b,
        Err(e) => panic!("baseline parse: {e}"),
    };
    let res = baseline.match_findings(findings);

    let rendered: Vec<String> = res.new.iter().map(|f| f.render_text()).collect();
    assert!(
        res.new.is_empty(),
        "unbaselined findings — fix, suppress with a reason, or \
         `fcc-lint --update-baseline`:\n{}",
        rendered.join("\n")
    );
    assert!(
        res.stale.is_empty(),
        "stale baseline entries (a grandfathered finding was fixed — \
         shrink the baseline with `fcc-lint --update-baseline`):\n{}",
        res.stale.join("\n")
    );
}

#[test]
fn live_workspace_layering_is_clean() {
    // R6 across every member manifest: already covered by the zero-
    // findings assertion above, but spelled out so a layering break
    // fails with a message naming the edge.
    let root = repo_root();
    let (findings, _) = match workspace::run(&root) {
        Ok(r) => r,
        Err(e) => panic!("lint run failed: {e}"),
    };
    let layering: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == fcc_lint::RuleId::Layering)
        .collect();
    assert!(layering.is_empty(), "layering violations: {layering:?}");
}

#[test]
fn lint_run_is_deterministic() {
    // The linter holds itself to the contract it enforces: two runs
    // over the same tree produce identical findings in identical order.
    let root = repo_root();
    let a = match workspace::run(&root) {
        Ok((f, _)) => f,
        Err(e) => panic!("{e}"),
    };
    let b = match workspace::run(&root) {
        Ok((f, _)) => f,
        Err(e) => panic!("{e}"),
    };
    assert_eq!(a, b);
}

#[test]
fn baseline_shrinks_never_grows_r1() {
    // Guard the satellite win: the R1 class (the rebalance bug) is
    // fully fixed in deterministic-core crates — the baseline must not
    // quietly re-grandfather it.
    let root = repo_root();
    let text = match std::fs::read_to_string(root.join("lint_baseline.json")) {
        Ok(t) => t,
        Err(e) => panic!("{e}"),
    };
    assert!(
        !text.contains("nondet-collection-iter"),
        "lint_baseline.json must stay free of R1 entries — convert the \
         collection to BTreeMap/BTreeSet or sort explicitly"
    );
    assert!(
        !text.contains("wall-clock-in-sim") && !text.contains("entropy-rng"),
        "R2/R3 must never be grandfathered"
    );
    // A component hands a message it cannot use to `Ctx::reject`, so no
    // library panic is left to grandfather.
    assert!(
        !text.contains("panic-in-lib"),
        "R5 must never be grandfathered — fix the panic, or allow it inline \
         with the invariant it guards as the reason"
    );
}
