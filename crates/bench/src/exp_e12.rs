//! E12 — pod-scale multi-tenant interference with and without the
//! fabric-resident QoS scheduler ([`fcc_sched`]).
//!
//! The topology and tenant mix are E3x's (`exp_e3x`'s `Chain`): eight
//! single-switch domains joined by long-haul cables, eight tenants per
//! domain — six latency-sensitive victims issuing shallow local 64 B
//! writes, one local bulk streamer, and one deep-window hog camping a
//! device four chain hops away. E3x *demonstrates* the interference
//! pathology; E12 measures the remedy. Three runs:
//!
//! 1. **idle** — hogs and bulk writers stay silent: the victims'
//!    uncontended p99 floor.
//! 2. **off** — full interference, no scheduler: the pathology.
//! 3. **on** — full interference with a [`fcc_sched::FabricScheduler`]
//!    installed at every switch: per-tenant hierarchical credit
//!    partitions gate admission per window, so hogs are contained to
//!    their share while victims' floors hold.
//!
//! The headline metric is **victim p99 inflation over idle**: the
//! acceptance bound is `inflation_on <= 2.0` while hogs still make
//! progress. Every scheduler-governed switch is audited post-run
//! (per-tenant ledger conservation, floors honored); the experiment
//! reports the violation count, which must be zero.
//!
//! Like E3x, the scenario always runs on the sharded executor and
//! `shards` selects only worker fan-out — results and telemetry exports
//! are byte-identical for any value.

use std::fmt;

use fcc_sim::{Histogram, SimTime};

use crate::capture::Capture;
use crate::exp_e3x::{
    mean, partition, Chain, Role, SchedCounters, DOMAINS, SHARED_REGIONS, TENANTS_PER_DOMAIN,
};

/// Scheduler credit pool per admission window at each switch.
const SCHED_POOL: u32 = 320;

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Idle,
    Off,
    On,
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Mode::Idle => "idle",
            Mode::Off => "off",
            Mode::On => "on",
        }
    }

    fn salt(self) -> u64 {
        match self {
            Mode::Idle => 0x1D1E,
            Mode::Off => 0x0FF0,
            Mode::On => 0x0A0A,
        }
    }
}

/// Outcome of one mode's run.
struct ModeRun {
    /// Merged victim latency distribution (ps).
    victim_latency: Histogram,
    /// Mean hog throughput (ops/µs).
    hog_ops_us: f64,
    /// Ledger audit findings across every domain.
    findings: u64,
    /// Scheduler counters.
    sched: SchedCounters,
    /// Events dispatched.
    events: u64,
}

/// E12 outcome.
pub struct E12Result {
    /// Total tenant load generators.
    pub tenants: usize,
    /// Victim p99 latency with hogs silent (ns).
    pub victim_p99_idle_ns: f64,
    /// Victim p99 latency under interference, scheduler off (ns).
    pub victim_p99_off_ns: f64,
    /// Victim p99 latency under interference, scheduler on (ns).
    pub victim_p99_on_ns: f64,
    /// Victim p999 latency, scheduler on (ns).
    pub victim_p999_on_ns: f64,
    /// Mean hog throughput, scheduler off (ops/µs).
    pub hog_ops_us_off: f64,
    /// Mean hog throughput, scheduler on (ops/µs).
    pub hog_ops_us_on: f64,
    /// Flits admitted by the schedulers in the governed run.
    pub sched_admitted: u64,
    /// Admission probes deferred in the governed run.
    pub sched_deferred: u64,
    /// Per-tenant ledger audit findings across every governed switch
    /// (acceptance: zero).
    pub ledger_violations: u64,
    /// Events dispatched across all three runs (deterministic).
    pub total_events: u64,
}

impl E12Result {
    /// Victim p99 inflation over idle with the scheduler off.
    pub fn inflation_off(&self) -> f64 {
        self.victim_p99_off_ns / self.victim_p99_idle_ns.max(1e-9)
    }

    /// Victim p99 inflation over idle with the scheduler on.
    pub fn inflation_on(&self) -> f64 {
        self.victim_p99_on_ns / self.victim_p99_idle_ns.max(1e-9)
    }

    /// The isolation acceptance bound: governed victim p99 stays within
    /// 2x the uncontended baseline.
    pub fn isolation_bounded(&self) -> bool {
        self.inflation_on() <= 2.0
    }
}

/// Runs E12, feeding telemetry into `cap`, with `shards` worker threads.
pub fn run_e12(quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> E12Result {
    let idle = run_mode(Mode::Idle, quick, cap, seed, shards);
    let off = run_mode(Mode::Off, quick, cap, seed, shards);
    let on = run_mode(Mode::On, quick, cap, seed, shards);
    let s_idle = idle.victim_latency.summary_ns();
    let s_off = off.victim_latency.summary_ns();
    let s_on = on.victim_latency.summary_ns();
    E12Result {
        tenants: DOMAINS * TENANTS_PER_DOMAIN,
        victim_p99_idle_ns: s_idle.p99,
        victim_p99_off_ns: s_off.p99,
        victim_p99_on_ns: s_on.p99,
        victim_p999_on_ns: s_on.p999,
        hog_ops_us_off: off.hog_ops_us,
        hog_ops_us_on: on.hog_ops_us,
        sched_admitted: on.sched.admitted,
        sched_deferred: on.sched.deferred,
        ledger_violations: idle.findings + off.findings + on.findings,
        total_events: idle.events + off.events + on.events,
    }
}

fn run_mode(mode: Mode, quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> ModeRun {
    let horizon = if quick {
        SimTime::from_us(25.0)
    } else {
        SimTime::from_us(120.0)
    };
    let mut chain = Chain::new(0xE120 ^ seed ^ mode.salt(), TENANTS_PER_DOMAIN, 1, horizon);
    if mode == Mode::On {
        chain.govern(&partition(SCHED_POOL, None));
    }
    let label = format!("e12-{}", mode.label());
    cap.begin(&label, chain.sharded.engines_mut(), &chain.fabric.domains);
    // Idle mode measures the victims' uncontended floor: only victim
    // generators are started there.
    let roles: &[Role] = if mode == Mode::Idle {
        &[Role::Victim]
    } else {
        &Role::ALL
    };
    chain.load_all(roles, &format!("load-{}-", mode.label()), SHARED_REGIONS);
    chain.sharded.run(shards);
    let sched = chain.harvest();
    let harvest = cap.end(&label, chain.sharded.engines(), &chain.fabric.domains);
    ModeRun {
        victim_latency: chain.latency(Role::Victim, cap, &format!("e12-{}.", mode.label())),
        hog_ops_us: mean(&chain.ops_us(Role::Hog)),
        findings: harvest.audit.findings.len() as u64,
        sched,
        events: chain.sharded.total_events(),
    }
}

impl fmt::Display for E12Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E12 — fabric-resident QoS scheduling under {}-tenant interference",
            self.tenants
        )?;
        let rows = vec![
            vec![
                "idle (hogs silent)".to_string(),
                format!("{:.0}", self.victim_p99_idle_ns),
                "1.00".to_string(),
                "-".to_string(),
            ],
            vec![
                "scheduler off".to_string(),
                format!("{:.0}", self.victim_p99_off_ns),
                format!("{:.2}", self.inflation_off()),
                format!("{:.2}", self.hog_ops_us_off),
            ],
            vec![
                "scheduler on".to_string(),
                format!("{:.0}", self.victim_p99_on_ns),
                format!("{:.2}", self.inflation_on()),
                format!("{:.2}", self.hog_ops_us_on),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(
                &["mode", "victim p99 (ns)", "inflation", "hog ops/us"],
                &rows
            )
        )?;
        writeln!(
            f,
            "governed p999 {:.0} ns; {} admitted / {} deferred flits; \
             {} ledger violations; {} events",
            self.victim_p999_on_ns,
            self.sched_admitted,
            self.sched_deferred,
            self.ledger_violations,
            self.total_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar results and event counts are identical for any worker
    /// fan-out (shards select threads, not decomposition).
    #[test]
    fn results_identical_across_worker_counts() {
        let base = run_e12(true, &mut Capture::disabled(), 7, 1);
        for workers in [2, 4] {
            let r = run_e12(true, &mut Capture::disabled(), 7, workers);
            assert_eq!(r.total_events, base.total_events, "workers={workers}");
            assert_eq!(r.victim_p99_idle_ns, base.victim_p99_idle_ns);
            assert_eq!(r.victim_p99_off_ns, base.victim_p99_off_ns);
            assert_eq!(r.victim_p99_on_ns, base.victim_p99_on_ns);
            assert_eq!(r.hog_ops_us_on, base.hog_ops_us_on);
            assert_eq!(r.sched_admitted, base.sched_admitted);
            assert_eq!(r.sched_deferred, base.sched_deferred);
        }
    }

    /// The acceptance criteria: bounded victim inflation under a clean
    /// per-tenant ledger audit, while hogs still make progress.
    #[test]
    fn scheduler_bounds_victim_inflation_with_clean_ledgers() {
        let r = run_e12(true, &mut Capture::disabled(), 0, 1);
        assert_eq!(r.tenants, 64);
        assert_eq!(r.ledger_violations, 0, "tenant ledger audit must be clean");
        assert!(r.victim_p99_idle_ns > 0.0, "victims idle-ran");
        assert!(
            r.isolation_bounded(),
            "victim p99 inflation {:.2} exceeds the 2x bound (idle {:.0} ns, on {:.0} ns)",
            r.inflation_on(),
            r.victim_p99_idle_ns,
            r.victim_p99_on_ns
        );
        assert!(r.hog_ops_us_on > 0.0, "hogs fully starved by the scheduler");
        assert!(r.sched_admitted > 0, "scheduler governed no traffic");
    }
}
