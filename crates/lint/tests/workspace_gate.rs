//! Integration test: run `fcc-lint` over the live workspace and assert
//! the gate holds — zero unsuppressed findings and a deterministic
//! report.

use std::path::PathBuf;

use fcc_lint::workspace;

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
fn live_workspace_has_zero_findings() {
    let root = repo_root();
    let (findings, errors) = match workspace::run(&root) {
        Ok(r) => r,
        Err(e) => panic!("lint run failed: {e}"),
    };
    assert!(errors.is_empty(), "io errors during lint: {errors:?}");
    let rendered: Vec<String> = findings.iter().map(|f| f.render_text()).collect();
    assert!(
        findings.is_empty(),
        "findings — fix, or suppress inline with \
         `// fcc-lint: allow(rule) -- reason`:\n{}",
        rendered.join("\n")
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
