//! Explicit-state model checking of the epoch-based reconfiguration
//! protocol.
//!
//! The checker explores, breadth-first, every interleaving of a
//! [`ReconfigPlan`]'s control-plane steps against in-flight data-plane
//! traffic on an abstract fabric: a chain of `switches` switches a flit
//! must traverse in order to reach the node being added or removed.
//! The model keeps exactly what the simulator's switch keeps — a
//! per-switch route entry for the node — and applies the simulator's
//! admission rule: a flit arriving at a switch with no route entry is
//! **dropped** (routing in the real switch is exact-match per node, so a
//! missing entry can only drop, never misroute; a present entry can only
//! point at the node's port, so delivery to the wrong place is
//! unreachable by construction — drop-freedom is therefore the whole
//! safety obligation).
//!
//! Transitions from each state:
//!
//! - apply the plan's next step ([`UpdateStep`]); a
//!   [`UpdateStep::PruneRoute`] with `require_quiescent` is only enabled
//!   while no flit is in flight (the composer's ledger-verified drain
//!   condition),
//! - inject a new flit toward the node, if the node is currently
//!   *exposed* (announced and not retracted) and the flit budget allows,
//! - advance one in-flight flit by one switch hop.
//!
//! Invariants on every reachable state:
//!
//! 1. **No drop** — no flit ever reaches a switch without a route entry.
//! 2. **No post-detach delivery** — no flit completes its traversal
//!    after [`UpdateStep::Detach`].
//!
//! [`explore`] also checks that a stepless state is quiescent: every
//! flit delivered and the plan finished. A violation carries the
//! complete transition trace from the initial state (breadth-first
//! order makes it minimal). The naive plan variants
//! ([`fcc_elastic::epoch::hot_add_naive`],
//! [`fcc_elastic::epoch::hot_remove_naive`]) are the deliberate faults
//! proving the checker catches both failure modes.

use std::fmt;

use fcc_elastic::epoch::{ReconfigPlan, UpdateStep};

use crate::explore::{explore, Model};
pub use crate::explore::{Report, Violation};

/// Which lifecycle the plan performs, fixing the initial fabric state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Hot-add: no routes installed, node not yet exposed to traffic.
    Add,
    /// Hot-remove: all routes installed, node exposed and serving.
    Remove,
}

/// Checker configuration.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Switches a flit traverses to reach the node (1–3 is exhaustive
    /// in milliseconds).
    pub switches: usize,
    /// In-flight flit budget per execution.
    pub max_flits: u8,
}

impl Config {
    /// A named configuration.
    pub fn new(switches: usize, max_flits: u8) -> Self {
        Config {
            switches,
            max_flits,
        }
    }
}

/// The abstract fabric state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// Next plan step to apply.
    pc: usize,
    /// Per-switch route entry for the node.
    routes: Vec<bool>,
    /// Whether initiators may currently start traffic toward the node.
    exposed: bool,
    /// Whether the port has been physically detached.
    detached: bool,
    /// In-flight flits, each at the switch it will traverse next
    /// (kept sorted: flits are interchangeable).
    flits: Vec<u8>,
    /// Flits injected so far.
    injected: u8,
    /// Flits delivered so far.
    delivered: u8,
}

/// One enabled transition.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Apply the plan step at `pc`.
    Control(UpdateStep),
    /// Start a new flit toward the node.
    Inject,
    /// Advance the flit currently at switch `at` by one hop.
    Advance { at: u8 },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Control(UpdateStep::InstallRoute { switch }) => {
                write!(f, "install route on switch {switch}")
            }
            Step::Control(UpdateStep::Announce) => write!(f, "announce node"),
            Step::Control(UpdateStep::Retract) => write!(f, "retract node"),
            Step::Control(UpdateStep::PruneRoute {
                switch,
                require_quiescent,
            }) => write!(
                f,
                "prune route on switch {switch} ({})",
                if *require_quiescent {
                    "quiescence-guarded"
                } else {
                    "unguarded"
                }
            ),
            Step::Control(UpdateStep::Detach) => write!(f, "detach port"),
            Step::Inject => write!(f, "initiator injects a flit toward the node"),
            Step::Advance { at } => write!(f, "flit traverses switch {at}"),
        }
    }
}

/// One plan checked against in-flight traffic: the transition system
/// [`explore`] searches.
struct Reconfig<'a> {
    plan: &'a ReconfigPlan,
    direction: Direction,
    cfg: &'a Config,
}

impl Model for Reconfig<'_> {
    type State = State;
    type Key = State;
    type Step = Step;

    fn initial(&self) -> State {
        let (routed, exposed) = match self.direction {
            Direction::Add => (false, false),
            Direction::Remove => (true, true),
        };
        State {
            pc: 0,
            routes: vec![routed; self.cfg.switches],
            exposed,
            detached: false,
            flits: Vec::new(),
            injected: 0,
            delivered: 0,
        }
    }

    fn key(&self, s: &State) -> State {
        s.clone()
    }

    fn steps(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        if let Some(&step) = self.plan.steps.get(s.pc) {
            let blocked = matches!(
                step,
                UpdateStep::PruneRoute {
                    require_quiescent: true,
                    ..
                }
            ) && !s.flits.is_empty();
            if !blocked {
                steps.push(Step::Control(step));
            }
        }
        if s.exposed && s.injected < self.cfg.max_flits {
            steps.push(Step::Inject);
        }
        let mut seen_pos: Option<u8> = None;
        for &at in &s.flits {
            // Flits at the same switch are interchangeable; advance one.
            if seen_pos != Some(at) {
                steps.push(Step::Advance { at });
                seen_pos = Some(at);
            }
        }
        steps
    }

    /// Applies `step`; `Err` is an invariant violation message.
    fn apply(&self, s: &mut State, step: &Step) -> Result<(), String> {
        match *step {
            Step::Control(c) => {
                s.pc += 1;
                match c {
                    UpdateStep::InstallRoute { switch } => s.routes[switch] = true,
                    UpdateStep::Announce => s.exposed = true,
                    UpdateStep::Retract => s.exposed = false,
                    UpdateStep::PruneRoute { switch, .. } => s.routes[switch] = false,
                    UpdateStep::Detach => s.detached = true,
                }
            }
            Step::Inject => {
                s.injected += 1;
                s.flits.push(0);
                s.flits.sort_unstable();
            }
            Step::Advance { at } => {
                // Present by construction of `steps`.
                let i = match s.flits.iter().position(|&p| p == at) {
                    Some(i) => i,
                    None => return Err(format!("advance of absent flit at switch {at}")),
                };
                if !s.routes[at as usize] {
                    return Err(format!(
                        "flit dropped: switch {at} has no route entry for the node"
                    ));
                }
                s.flits.remove(i);
                if (at as usize) + 1 == self.cfg.switches {
                    if s.detached {
                        return Err("flit delivered to a detached port".into());
                    }
                    s.delivered += 1;
                } else {
                    s.flits.push(at + 1);
                    s.flits.sort_unstable();
                }
            }
        }
        Ok(())
    }

    /// Both invariants are checked by the step that would break them.
    fn invariant(&self, _: &State) -> Option<String> {
        None
    }

    /// No flit in flight and the plan finished.
    fn quiescent(&self, s: &State) -> bool {
        s.flits.is_empty() && s.pc == self.plan.steps.len()
    }

    fn dump(&self, s: &State) -> String {
        format!(
            "\n  pc={} routes={:?} exposed={} detached={}\
             \n  flits at switches {:?}, injected {}, delivered {}",
            s.pc, s.routes, s.exposed, s.detached, s.flits, s.injected, s.delivered
        )
    }
}

/// Exhaustively checks `plan` against all traffic interleavings.
/// Returns exploration statistics, or the first violation (with its
/// shortest trace).
pub fn check(
    plan: &ReconfigPlan,
    direction: Direction,
    cfg: &Config,
) -> Result<Report, Box<Violation>> {
    explore(&Reconfig {
        plan,
        direction,
        cfg,
    })
}

#[cfg(test)]
mod tests {
    use fcc_elastic::epoch::{hot_add_naive, hot_add_plan, hot_remove_naive, hot_remove_plan};

    use super::*;

    #[test]
    fn two_phase_add_never_drops() {
        for switches in 1..=3 {
            let report = check(
                &hot_add_plan(switches),
                Direction::Add,
                &Config::new(switches, 2),
            )
            .expect("safe add plan is clean");
            assert!(report.states > switches, "explored {}", report.states);
        }
    }

    #[test]
    fn guarded_remove_never_drops() {
        for switches in 1..=3 {
            check(
                &hot_remove_plan(switches),
                Direction::Remove,
                &Config::new(switches, 2),
            )
            .expect("safe remove plan is clean");
        }
    }

    #[test]
    fn announce_before_install_drops_with_trace() {
        let v = check(&hot_add_naive(2), Direction::Add, &Config::new(2, 2))
            .expect_err("naive add must drop");
        assert!(v.invariant.contains("dropped"), "got: {}", v.invariant);
        assert!(!v.trace.is_empty());
        // The minimal counterexample announces, injects, then hits the
        // still-routeless switch.
        assert!(v.trace[0].contains("announce"), "trace: {:?}", v.trace);
        assert!(v.to_string().contains("trace ("));
    }

    #[test]
    fn unguarded_prune_drops_inflight_traffic() {
        let v = check(&hot_remove_naive(2), Direction::Remove, &Config::new(2, 2))
            .expect_err("naive remove must drop");
        assert!(v.invariant.contains("dropped"), "got: {}", v.invariant);
        assert!(
            v.trace.iter().any(|s| s.contains("unguarded")),
            "trace: {:?}",
            v.trace
        );
    }

    #[test]
    fn detach_without_quiescence_is_caught() {
        // A hand-built broken plan: retract (stop new traffic) but detach
        // with routes still up — an in-flight flit completes its
        // traversal into the detached port.
        let plan = ReconfigPlan {
            steps: vec![UpdateStep::Retract, UpdateStep::Detach],
        };
        let v = check(&plan, Direction::Remove, &Config::new(1, 1))
            .expect_err("post-detach delivery must be caught");
        assert!(v.invariant.contains("detached"), "got: {}", v.invariant);
    }
}
