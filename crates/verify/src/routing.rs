//! Exhaustive routing model checker for the wormhole switch core.
//!
//! Two families of checks, both against the *real* production code:
//!
//! 1. **Escape-network acyclicity.** For every pod plan in a small-K
//!    sweep of [`fcc_fabric::pods::PodKind`] shapes, walk the escape
//!    route ([`PodPlan::escape_next_hop`]) from every switch to every
//!    edge switch and build the channel dependency graph: channel
//!    `(a, b)` depends on `(b, c)` when some escape route traverses `a ->
//!    b -> c`. Wormhole deadlock is a cycle of channel waits; because
//!    escape lane 0 admits only primary-route flits (see
//!    [`fcc_fabric::wormhole`]), an acyclic escape CDG plus Duato's
//!    argument gives deadlock freedom for the whole fabric. The check
//!    also proves every escape route terminates at its destination
//!    through real neighbor links.
//! 2. **Credit-ledger soundness.** A [`Model`] of the real [`VcLink`]
//!    ledger coupled to an abstract peer lane buffer, explored in full:
//!    every interleaving of worm dispatches and credit returns must keep
//!    conservation exact — no negative ledger, no credit minted past the
//!    cap, zero recorded violations — and must never wedge a worm.
//!
//! The `check-routing` binary sweeps the standard configurations and
//! writes a JSON verdict (with a counterexample cycle or operation trace
//! on failure) for the CI artifact.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use fcc_fabric::pods::{PodKind, PodPlan};
use fcc_fabric::wormhole::{VcConfig, VcLink};

use crate::explore::{explore, Model, Report, Violation};

/// A directed channel: one direction of a switch-to-switch cable.
pub type Channel = (usize, usize);

/// Why a routing check failed, with a minimal counterexample.
#[derive(Debug, Clone)]
pub enum RoutingViolation {
    /// An escape route did not terminate at its destination.
    BrokenEscape {
        /// Source switch.
        from: usize,
        /// Destination edge switch.
        to: usize,
        /// The (truncated) path walked.
        path: Vec<usize>,
    },
    /// An escape hop is not a physical neighbor link.
    NotANeighbor {
        /// Source switch of the offending route.
        from: usize,
        /// Destination edge switch.
        to: usize,
        /// The non-existent channel the route tried to use.
        hop: Channel,
    },
    /// The escape channel dependency graph has a cycle.
    CdgCycle {
        /// The channels of the cycle, in dependency order.
        cycle: Vec<Channel>,
        /// For each dependency in the cycle, one `(src, dst)` route pair
        /// that induces it.
        witnesses: Vec<(usize, usize)>,
    },
    /// The credit-ledger exploration broke conservation or wedged.
    CreditModel(Box<Violation>),
}

impl fmt::Display for RoutingViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoutingViolation::BrokenEscape { from, to, path } => {
                write!(f, "escape route {from} -> {to} never arrives: {path:?}")
            }
            RoutingViolation::NotANeighbor { from, to, hop } => write!(
                f,
                "escape route {from} -> {to} uses non-link channel {hop:?}"
            ),
            RoutingViolation::CdgCycle { cycle, witnesses } => {
                writeln!(f, "escape channel dependency cycle:")?;
                for (ch, w) in cycle.iter().zip(witnesses) {
                    writeln!(f, "  channel {ch:?} (witness route {} -> {})", w.0, w.1)?;
                }
                Ok(())
            }
            RoutingViolation::CreditModel(v) => writeln!(f, "credit ledger {v}"),
        }
    }
}

impl RoutingViolation {
    /// A JSON rendering for the CI counterexample artifact.
    pub fn to_json(&self) -> String {
        fn pairs(v: &[(usize, usize)]) -> String {
            let items: Vec<String> = v.iter().map(|(a, b)| format!("[{a},{b}]")).collect();
            format!("[{}]", items.join(","))
        }
        match self {
            RoutingViolation::BrokenEscape { from, to, path } => {
                let p: Vec<String> = path.iter().map(usize::to_string).collect();
                format!(
                    "{{\"kind\":\"broken_escape\",\"from\":{from},\"to\":{to},\"path\":[{}]}}",
                    p.join(",")
                )
            }
            RoutingViolation::NotANeighbor { from, to, hop } => format!(
                "{{\"kind\":\"not_a_neighbor\",\"from\":{from},\"to\":{to},\"hop\":[{},{}]}}",
                hop.0, hop.1
            ),
            RoutingViolation::CdgCycle { cycle, witnesses } => format!(
                "{{\"kind\":\"cdg_cycle\",\"cycle\":{},\"witnesses\":{}}}",
                pairs(cycle),
                pairs(witnesses)
            ),
            RoutingViolation::CreditModel(v) => {
                let ops: Vec<String> = v.trace.iter().map(|t| format!("{t:?}")).collect();
                format!(
                    "{{\"kind\":\"credit_model\",\"invariant\":{:?},\"trace\":[{}]}}",
                    v.invariant,
                    ops.join(",")
                )
            }
        }
    }
}

/// Statistics from a clean escape-CDG check.
#[derive(Debug, Clone, Copy, Default)]
pub struct CdgStats {
    /// Directed channels in the plan.
    pub channels: usize,
    /// Dependency edges induced by the escape routes.
    pub deps: usize,
    /// `(src, dst)` route pairs walked.
    pub routes: usize,
}

/// Finds a cycle in a dependency relation over channels, if any.
/// Returns the cycle's channels in order. Exposed for checker tests
/// (production plans should never produce one).
fn find_cycle(channels: &[Channel], deps: &BTreeMap<usize, BTreeSet<usize>>) -> Option<Vec<usize>> {
    #[derive(Clone, Copy, PartialEq)]
    enum Color {
        White,
        Grey,
        Black,
    }
    let mut color = vec![Color::White; channels.len()];
    // Iterative DFS keeping the grey path for cycle reconstruction.
    for root in 0..channels.len() {
        if color[root] != Color::White {
            continue;
        }
        let mut stack: Vec<(usize, Vec<usize>)> = vec![(
            root,
            deps.get(&root)
                .map(|s| s.iter().rev().copied().collect())
                .unwrap_or_default(),
        )];
        color[root] = Color::Grey;
        let mut path = vec![root];
        while let Some((node, todo)) = stack.last_mut() {
            match todo.pop() {
                Some(next) => match color[next] {
                    Color::Grey => {
                        // Back edge: the cycle is the grey path from
                        // `next` to `node`.
                        let start = path.iter().position(|&n| n == next).unwrap_or(0);
                        return Some(path[start..].to_vec());
                    }
                    Color::White => {
                        color[next] = Color::Grey;
                        path.push(next);
                        let succ = deps
                            .get(&next)
                            .map(|s| s.iter().rev().copied().collect())
                            .unwrap_or_default();
                        stack.push((next, succ));
                    }
                    Color::Black => {}
                },
                None => {
                    color[*node] = Color::Black;
                    path.pop();
                    stack.pop();
                }
            }
        }
    }
    None
}

/// Checks one plan's escape network: routes terminate over real links
/// and the induced channel dependency graph is acyclic.
pub fn check_escape_acyclic(plan: &PodPlan) -> Result<CdgStats, RoutingViolation> {
    // Channel index: both directions of every cable.
    let mut channels: Vec<Channel> = Vec::new();
    for l in &plan.links {
        channels.push((l.a, l.b));
        channels.push((l.b, l.a));
    }
    channels.sort_unstable();
    channels.dedup();
    let index: BTreeMap<Channel, usize> =
        channels.iter().enumerate().map(|(i, &c)| (c, i)).collect();
    let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
    let mut witness: BTreeMap<(usize, usize), (usize, usize)> = BTreeMap::new();
    let mut routes = 0usize;
    for s in 0..plan.switches.len() {
        for &e in &plan.edge_switches() {
            if s == e {
                continue;
            }
            routes += 1;
            let path = plan.escape_path(s, e);
            if path.last() != Some(&e) {
                return Err(RoutingViolation::BrokenEscape {
                    from: s,
                    to: e,
                    path,
                });
            }
            let hops: Vec<usize> = path
                .windows(2)
                .map(|w| index.get(&(w[0], w[1])).copied().ok_or((w[0], w[1])))
                .collect::<Result<_, _>>()
                .map_err(|hop| RoutingViolation::NotANeighbor {
                    from: s,
                    to: e,
                    hop,
                })?;
            for w in hops.windows(2) {
                if deps.entry(w[0]).or_default().insert(w[1]) {
                    witness.insert((w[0], w[1]), (s, e));
                }
            }
        }
    }
    match find_cycle(&channels, &deps) {
        None => Ok(CdgStats {
            channels: channels.len(),
            deps: deps.values().map(BTreeSet::len).sum(),
            routes,
        }),
        Some(cycle) => {
            let chans: Vec<Channel> = cycle.iter().map(|&i| channels[i]).collect();
            let witnesses = cycle
                .iter()
                .enumerate()
                .map(|(k, &i)| {
                    let j = cycle[(k + 1) % cycle.len()];
                    witness
                        .get(&(i, j))
                        .copied()
                        .unwrap_or((usize::MAX, usize::MAX))
                })
                .collect();
            Err(RoutingViolation::CdgCycle {
                cycle: chans,
                witnesses,
            })
        }
    }
}

/// State of the ledger model: the real [`VcLink`] is re-derived from the
/// abstract state in every explored state, so only the abstract part is
/// hashed.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct LedgerState {
    /// Per-lane flits in flight (sent, credit not yet returned).
    in_flight: Vec<u32>,
    /// Per-lane holder (worm id), if held.
    holder: Vec<Option<u64>>,
    /// Per-worm flits still to send (worms are two-flit transfers).
    remaining: Vec<u32>,
}

/// One ledger operation.
enum LedgerStep {
    /// Worm `worm` sends its next flit on `lane`.
    Send { worm: u64, lane: usize },
    /// The peer drains one flit from `lane`, returning its credit.
    Return { lane: usize },
}

impl fmt::Display for LedgerStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LedgerStep::Send { worm, lane } => write!(f, "worm {worm} sends on lane {lane}"),
            LedgerStep::Return { lane } => write!(f, "peer returns credit on lane {lane}"),
        }
    }
}

/// `worms` two-flit worms sharing the lanes of one [`VcLink`].
struct Ledger {
    cfg: VcConfig,
    worms: u32,
}

impl Model for Ledger {
    type State = LedgerState;
    type Key = LedgerState;
    type Step = LedgerStep;

    fn initial(&self) -> LedgerState {
        let lanes = usize::from(self.cfg.vcs.max(2));
        LedgerState {
            in_flight: vec![0; lanes],
            holder: vec![None; lanes],
            remaining: vec![2; self.worms as usize],
        }
    }

    fn key(&self, s: &LedgerState) -> LedgerState {
        s.clone()
    }

    fn steps(&self, s: &LedgerState) -> Vec<LedgerStep> {
        let mut steps = Vec::new();
        // Dispatch moves: a worm that holds a lane sends only on it, as
        // `FabricSwitch::vc_gate` sends a worm's later flits on
        // `worm.lane`; a worm that holds none takes any free lane.
        for (w, &rem) in s.remaining.iter().enumerate() {
            if rem == 0 {
                continue;
            }
            let worm = w as u64 + 1;
            let held = s.holder.iter().position(|&h| h == Some(worm));
            for (lane, &h) in s.holder.iter().enumerate() {
                let fits = s.in_flight[lane] < self.cfg.buf_flits;
                let mine = held.map_or(h.is_none(), |l| l == lane);
                // Lane 0 stands in for the escape VC: only worm 1's route
                // is "primary" in this abstract model.
                let escape_ok = lane > 0 || worm == 1;
                if fits && mine && escape_ok {
                    steps.push(LedgerStep::Send { worm, lane });
                }
            }
        }
        // Credit returns: the peer drains one flit from any lane.
        for (lane, &fl) in s.in_flight.iter().enumerate() {
            if fl > 0 {
                steps.push(LedgerStep::Return { lane });
            }
        }
        steps
    }

    fn apply(&self, s: &mut LedgerState, step: &LedgerStep) -> Result<(), String> {
        match *step {
            LedgerStep::Send { worm, lane } => {
                let w = (worm - 1) as usize;
                s.in_flight[lane] += 1;
                s.remaining[w] -= 1;
                s.holder[lane] = (s.remaining[w] > 0).then_some(worm);
            }
            LedgerStep::Return { lane } => s.in_flight[lane] -= 1,
        }
        Ok(())
    }

    /// Re-derives the real ledger from the abstract state and audits it:
    /// conservation must hold in *every* reachable state.
    fn invariant(&self, s: &LedgerState) -> Option<String> {
        let mut link = VcLink::new(self.cfg);
        for (v, (&fl, &h)) in s.in_flight.iter().zip(&s.holder).enumerate() {
            for _ in 0..fl {
                if !link.can_send(v as u8) {
                    return Some(format!(
                        "lane {v} oversubscribed: {fl} > cap {}",
                        self.cfg.buf_flits
                    ));
                }
                link.consume(v as u8, h.unwrap_or(0));
            }
            if h.is_none() {
                link.release(v as u8);
            }
        }
        if link.violations > 0 {
            return Some(format!(
                "{} violations replaying state {s:?}",
                link.violations
            ));
        }
        let conserved = link
            .lanes
            .iter()
            .enumerate()
            .all(|(v, l)| l.credits + s.in_flight[v] == l.cap);
        (!conserved).then(|| format!("credits + in_flight != cap in {s:?}"))
    }

    /// Nothing in flight, nothing left to send, no lane held.
    fn quiescent(&self, s: &LedgerState) -> bool {
        s.in_flight.iter().all(|&f| f == 0)
            && s.remaining.iter().all(|&r| r == 0)
            && s.holder.iter().all(Option::is_none)
    }

    fn dump(&self, s: &LedgerState) -> String {
        format!(
            "in_flight {:?}, holder {:?}, remaining {:?}",
            s.in_flight, s.holder, s.remaining
        )
    }
}

/// Explores every interleaving of worm dispatches and credit returns
/// over the real [`VcLink`] ledger, `worms` two-flit worms on
/// `cfg.vcs` lanes, asserting conservation in every state and that
/// every worm can always finish.
pub fn check_credit_ledger(cfg: VcConfig, worms: u32) -> Result<Report, RoutingViolation> {
    explore(&Ledger { cfg, worms }).map_err(RoutingViolation::CreditModel)
}

/// The small-K plan sweep the `check-routing` binary proves acyclic:
/// every spine-leaf shape to 4x3, every mesh and torus to 4x4.
pub fn standard_plans() -> Vec<(String, PodPlan)> {
    let mut out = Vec::new();
    for spines in 1..=4 {
        for lps in 1..=3 {
            out.push((
                format!("spine-leaf {spines}x{lps}"),
                PodPlan::new(
                    PodKind::SpineLeaf {
                        spines,
                        leaves_per_spine: lps,
                    },
                    1,
                    1,
                ),
            ));
        }
    }
    for cols in 1..=4 {
        for rows in 1..=4 {
            out.push((
                format!("mesh {cols}x{rows}"),
                PodPlan::new(PodKind::Mesh { cols, rows }, 1, 1),
            ));
            out.push((
                format!("torus {cols}x{rows}"),
                PodPlan::new(PodKind::Torus { cols, rows }, 1, 1),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_sweep_is_acyclic() {
        for (label, plan) in standard_plans() {
            let stats = check_escape_acyclic(&plan);
            assert!(stats.is_ok(), "{label}: {:?}", stats.err());
        }
    }

    #[test]
    fn cycle_detector_finds_a_planted_ring() {
        // Channels 0 -> 1 -> 2 -> 0: a wait cycle the detector must find.
        let channels = vec![(0usize, 1usize), (1, 2), (2, 0)];
        let mut deps: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        deps.entry(0).or_default().insert(1);
        deps.entry(1).or_default().insert(2);
        deps.entry(2).or_default().insert(0);
        let cycle = find_cycle(&channels, &deps).expect("ring found");
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn credit_model_is_conservation_clean() {
        // Exact counts are pinned in tests/exploration.rs.
        let config = VcConfig {
            vcs: 2,
            buf_flits: 2,
        };
        check_credit_ledger(config, 2).expect("ledger clean, no worm wedged");
    }

    #[test]
    fn violations_render_as_json() {
        let v = RoutingViolation::CdgCycle {
            cycle: vec![(0, 1), (1, 0)],
            witnesses: vec![(0, 1), (1, 0)],
        };
        let json = v.to_json();
        assert!(json.contains("\"cdg_cycle\""), "{json}");
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
    }
}
