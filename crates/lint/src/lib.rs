//! `fcc-lint` — the workspace determinism & layering linter.
//!
//! The FCC reproduction's headline property is **byte-identical
//! replay**: the same scenario and seed produce the same exported
//! traces and results, serially or under `--jobs N`. That property is
//! easy to break and expensive to re-debug (the `UnifiedHeap::rebalance`
//! HashMap-order bug cost a full bisection). This crate turns the
//! contract into a static gate that runs in `scripts/check.sh` and CI.
//!
//! # Rules
//!
//! | code | name | scope |
//! |------|------|-------|
//! | R1 | `nondet-collection-iter` | deterministic-core, non-test |
//! | R2 | `wall-clock-in-sim` | deterministic-core, non-test |
//! | R3 | `entropy-rng` | every crate, every file |
//! | R4 | `lossy-time-cast` | deterministic-core, non-test |
//! | R5 | `panic-in-lib` | deterministic-core, library only |
//! | R6 | `layering` | every `Cargo.toml` |
//! | S0 | `malformed-suppression` | every scanned file |
//!
//! See `DESIGN.md` ("The determinism contract") for the rationale
//! behind each rule and the crate classification.
//!
//! # Suppression
//!
//! A finding is accepted only inline, with
//! `// fcc-lint: allow(rule) -- reason` (trailing on the line or on
//! the line above; the reason is mandatory), so every accepted finding
//! sits next to the code it excuses. Any unsuppressed finding exits
//! non-zero.
//!
//! # Design constraints
//!
//! Everything is hand-rolled — lexer, TOML scanner, JSON writer —
//! because the build environment is offline and the gate must not
//! depend on crates it is not allowed to fetch. The lexer is
//! comment/string/char-literal aware, so prose mentioning `HashMap`
//! never false-positives; see [`lexer`].

#![forbid(unsafe_code)]

pub mod classify;
pub mod lexer;
pub mod manifest;
pub mod report;
pub mod rules;
pub mod workspace;

pub use classify::{CrateClass, FileKind};
pub use report::{Finding, RuleId};
pub use rules::FileCtx;

/// Lints a single source string — the unit-test entry point.
///
/// `package` selects the crate classification, `kind` the file scope,
/// and `path` is only echoed into findings.
pub fn lint_source(package: &str, kind: FileKind, path: &str, src: &str) -> Vec<Finding> {
    rules::lint_file(
        FileCtx {
            package,
            class: classify::classify(package),
            kind,
            path,
        },
        src,
    )
}
