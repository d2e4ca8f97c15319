#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! Experiment harness: regenerates every table, figure, and quantified
//! in-text claim of the paper.
//!
//! Each `exp_*` module exposes one `run*` function per scenario, taking
//! `quick`, the RNG seed salt and, where the scenario is traced, a
//! [`capture::Capture`] (and `shards` on the sharded executor). Its
//! result has a `Display` implementation that prints the paper-style
//! table, plus structured fields the integration tests assert *shape*
//! properties on (who wins, by roughly what factor). The `experiments`
//! binary dispatches by experiment id through [`harness::run_one`];
//! `bench_gate` times the same runs.
//!
//! See `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! paper-vs-measured numbers.

pub mod calib;
pub mod capture;
pub mod exp_abl;
pub mod exp_e10;
pub mod exp_e11;
pub mod exp_e12;
pub mod exp_e13;
pub mod exp_e14;
pub mod exp_e3;
pub mod exp_e3x;
pub mod exp_e4;
pub mod exp_e5;
pub mod exp_e6;
pub mod exp_e7;
pub mod exp_e8;
pub mod exp_e9;
pub mod exp_f1;
pub mod exp_nodes;
pub mod exp_t1;
pub mod exp_t2;
pub mod harness;
pub mod loadgen;
pub mod runner;

/// Renders an ASCII table.
pub fn fmt_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String| {
        for w in &widths {
            out.push('+');
            out.push_str(&"-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    line(&mut out);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    line(&mut out);
    for row in rows {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    }
    line(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = fmt_table(
            &["tier", "ns"],
            &[
                vec!["L1".into(), "5.4".into()],
                vec!["remote".into(), "1575.3".into()],
            ],
        );
        assert!(t.contains("| L1     | 5.4    |"));
        assert!(t.contains("| remote | 1575.3 |"));
    }
}
