//! Finding model and the text / JSON reporters.

use std::fmt::Write as _;

/// The linter's rule set. Codes (`R1`..`R6`, `S0`) are stable and
/// accepted in suppressions interchangeably with the kebab-case names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// R1: iteration over `HashMap`/`HashSet` in deterministic-core code.
    NondetCollectionIter,
    /// R2: `Instant`/`SystemTime` outside the measurement crates.
    WallClockInSim,
    /// R3: `thread_rng`/`from_entropy`/`OsRng` anywhere.
    EntropyRng,
    /// R4: lossy `as` cast applied to a picosecond-valued expression.
    LossyTimeCast,
    /// R5: `panic!`-family macros in deterministic-core library code.
    PanicInLib,
    /// R6: `fcc-*` dependency edge outside the layering DAG.
    Layering,
    /// S0: `fcc-lint:` comment without rules or a reason.
    MalformedSuppression,
}

impl RuleId {
    /// All rules, in report order.
    pub const ALL: [RuleId; 7] = [
        RuleId::NondetCollectionIter,
        RuleId::WallClockInSim,
        RuleId::EntropyRng,
        RuleId::LossyTimeCast,
        RuleId::PanicInLib,
        RuleId::Layering,
        RuleId::MalformedSuppression,
    ];

    /// Short stable code, e.g. `R1`.
    pub fn code(self) -> &'static str {
        match self {
            RuleId::NondetCollectionIter => "R1",
            RuleId::WallClockInSim => "R2",
            RuleId::EntropyRng => "R3",
            RuleId::LossyTimeCast => "R4",
            RuleId::PanicInLib => "R5",
            RuleId::Layering => "R6",
            RuleId::MalformedSuppression => "S0",
        }
    }

    /// Kebab-case rule name used in suppressions and reports.
    pub fn name(self) -> &'static str {
        match self {
            RuleId::NondetCollectionIter => "nondet-collection-iter",
            RuleId::WallClockInSim => "wall-clock-in-sim",
            RuleId::EntropyRng => "entropy-rng",
            RuleId::LossyTimeCast => "lossy-time-cast",
            RuleId::PanicInLib => "panic-in-lib",
            RuleId::Layering => "layering",
            RuleId::MalformedSuppression => "malformed-suppression",
        }
    }

    /// Parses a code (`R1`, case-insensitive) or name.
    pub fn parse(s: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.name() == s || r.code().eq_ignore_ascii_case(s))
    }
}

/// One lint finding at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: RuleId,
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based line; 0 for manifest-level findings (R6).
    pub line: u32,
    /// Trimmed source-line text.
    pub excerpt: String,
    pub message: String,
}

impl Finding {
    /// `file:line: rule[code]: message` — the text reporter line.
    pub fn render_text(&self) -> String {
        format!(
            "{}:{}: {} [{}]: {}",
            self.file,
            self.line,
            self.rule.name(),
            self.rule.code(),
            self.message
        )
    }
}

/// Escapes a string for JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders the machine-readable report shipped as a CI artifact.
///
/// Shape: `{ "schema": 2, "findings": [...] }` where each finding object
/// carries `rule`, `code`, `file`, `line`, `excerpt`, `message`.
pub fn render_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"schema\": 2,\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let _ = write!(
            out,
            "{sep}    {{\"rule\": \"{}\", \"code\": \"{}\", \"file\": \"{}\", \
             \"line\": {}, \"excerpt\": \"{}\", \"message\": \"{}\"}}",
            f.rule.name(),
            f.rule.code(),
            json_escape(&f.file),
            f.line,
            json_escape(&f.excerpt),
            json_escape(&f.message)
        );
    }
    out.push_str(if findings.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_parse_roundtrip() {
        for r in RuleId::ALL {
            assert_eq!(RuleId::parse(r.name()), Some(r));
            assert_eq!(RuleId::parse(r.code()), Some(r));
            assert_eq!(RuleId::parse(&r.code().to_lowercase()), Some(r));
        }
        assert_eq!(RuleId::parse("nope"), None);
    }

    #[test]
    fn text_rendering_has_file_line_rule() {
        let f = Finding {
            rule: RuleId::EntropyRng,
            file: "crates/sim/src/engine.rs".into(),
            line: 42,
            excerpt: "let mut rng = thread_rng();".into(),
            message: "entropy".into(),
        };
        let t = f.render_text();
        assert!(t.starts_with("crates/sim/src/engine.rs:42: entropy-rng [R3]:"));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
