//! Every traced scenario ends clean, traced or not.
//!
//! `Capture::end` checks each domain of a scenario for stranded work (a
//! deadlock report, §3 D#3's failure mode) and audits its credit ledgers
//! whether or not the capture records. This runs every scenario the
//! registry marks as traced, quick at seed 0 with a *disabled* capture,
//! and requires every scenario it ended to be clean — except `e11-yank`,
//! the deliberately broken removal, which must report its wedge.

use fcc_bench::capture::Capture;
use fcc_bench::harness::{run_one, ALL};

#[test]
fn every_traced_scenario_ends_clean_untraced() {
    let mut yank_seen = false;
    for &(id, traced, _, _) in &ALL {
        if !traced {
            continue;
        }
        let mut cap = Capture::disabled();
        assert!(run_one(id, true, &mut cap, 0, 1).is_some(), "{id} is known");
        assert!(!cap.ended().is_empty(), "{id} ended no scenario");
        for (label, harvest) in cap.ended() {
            if label == "e11-yank" {
                yank_seen = true;
                assert!(harvest.stranded > 0, "{label} must report its wedge");
                continue;
            }
            assert_eq!(harvest.stranded, 0, "{label} stranded work");
            assert!(harvest.audit.is_clean(), "{label}: {}", harvest.audit);
        }
    }
    assert!(yank_seen, "e11-yank ran");
}
