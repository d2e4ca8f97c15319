//! Pins each model's exact exploration: the reachable state count, the
//! transitions taken and the breadth-first depth, and the schedules and
//! credit spends of the scheduler check. These numbers move only when a
//! model or the protocol code it drives changes; the
//! larger coherence configurations of `check-coherence` are left to the
//! binary, as they take seconds in a debug build.

use fcc_elastic::epoch::{hot_add_plan, hot_remove_plan};
use fcc_fabric::wormhole::VcConfig;
use fcc_verify::explore::Report;
use fcc_verify::{coherence, reconfig, routing, sched};

/// The report, or the counterexample rendered for the failure message.
fn shown<E: std::fmt::Display>(r: Result<Report, E>) -> Result<Report, String> {
    r.map_err(|e| e.to_string())
}

fn report(states: usize, transitions: u64, depth: usize) -> Report {
    Report {
        states,
        transitions,
        depth,
    }
}

#[test]
fn every_model_explores_its_pinned_state_space() {
    let coherence = coherence::check(&coherence::Config::new(2, 1, 3));
    assert_eq!(shown(coherence), Ok(report(6_529, 13_722, 21)));

    let reconfig_pins = [
        (report(12, 14, 8), report(28, 36, 9)),
        (report(23, 33, 12), report(52, 82, 13)),
        (report(39, 64, 16), report(86, 156, 17)),
    ];
    for (switches, (add, remove)) in (1..=3).zip(reconfig_pins) {
        let cfg = reconfig::Config::new(switches, 3);
        let got = reconfig::check(&hot_add_plan(switches), reconfig::Direction::Add, &cfg);
        assert_eq!(shown(got), Ok(add), "hot-add, {switches} switch(es)");
        let got = reconfig::check(
            &hot_remove_plan(switches),
            reconfig::Direction::Remove,
            &cfg,
        );
        assert_eq!(shown(got), Ok(remove), "hot-remove, {switches} switch(es)");
    }

    let ledger_pins = [
        (2, 1, 2, report(30, 47, 8)),
        (2, 2, 2, report(44, 86, 8)),
        (3, 2, 3, report(530, 1_676, 12)),
    ];
    for (vcs, buf_flits, worms, pin) in ledger_pins {
        let got = routing::check_credit_ledger(VcConfig { vcs, buf_flits }, worms);
        assert_eq!(
            shown(got),
            Ok(pin),
            "{vcs} lanes x {buf_flits} flits, {worms} worms"
        );
    }
}

#[test]
fn the_scheduler_check_drives_its_pinned_work() {
    let pins = [
        ("hog_pair", sched::Config::hog_pair(), (256, 6_144)),
        ("hog_triple", sched::Config::hog_triple(), (512, 12_288)),
        ("quad", sched::Config::quad(), (256, 2_560)),
    ];
    for (name, cfg, pin) in pins {
        let got = sched::check(&cfg)
            .map(|r| (r.schedules, r.spends))
            .map_err(|v| v.to_string());
        assert_eq!(got, Ok(pin), "{name}");
    }
}
