//! Explicit-state model checking of the CC-NUMA coherence protocol.
//!
//! The checker enumerates, breadth-first, every reachable state of a
//! small system — `hosts` coherent caches sharing `lines` cache lines
//! behind one full-map directory — under all interleavings of:
//!
//! - hosts issuing loads and stores (up to `ops_per_host` each),
//! - hosts evicting lines they hold (clean or dirty),
//! - in-order delivery of each host↔directory message channel.
//!
//! The host half of every transition is executed by
//! [`fcc_cache::protocol`] — the same functions `CoherentL1` runs in
//! the simulator — and the directory half by the real
//! [`fcc_memnode::directory::Directory`], including its `Busy`
//! deferral behavior as implemented by `DirectoryNode`. The model
//! contributes only what the fabric contributes in the simulator:
//! FIFO message channels and the interleaving of deliveries.
//!
//! On every reachable state the checker asserts:
//!
//! 1. **SWMR** — at most one host holds a line `Modified`, and never
//!    concurrently with another host's `Shared` copy.
//! 2. **Freshness** — every valid copy carries the globally latest
//!    committed store version (no stale read after an invalidation).
//! 3. **Directory soundness** — the directory's own
//!    [`check_swmr`](Directory::check_swmr), plus, in quiescent
//!    states, exact agreement between the directory's sharer/owner
//!    bookkeeping and the hosts' actual line states.
//! 4. **Deadlock freedom** — every non-quiescent state has at least
//!    one enabled transition.
//!
//! A violation is reported with the complete transition trace from the
//! initial state. [`Mutation`]s deliberately break the protocol to
//! prove the checker catches both safety ([`Mutation::DropInvalidate`])
//! and liveness ([`Mutation::LoseGrant`]) violations.

use std::collections::VecDeque;
use std::fmt;

use fcc_cache::protocol::{self, HostLineState};
use fcc_memnode::directory::{DirOutcome, Directory, Grant, LineState, SnoopKind};
use fcc_proto::addr::NodeId;
use fcc_proto::channel::CacheOpcode;

use crate::explore::{explore, Model};
pub use crate::explore::{Report, Violation};

/// A checker configuration: the system size and op budget to explore.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of coherent hosts (2–3 is exhaustive in seconds).
    pub hosts: usize,
    /// Number of distinct cache lines.
    pub lines: usize,
    /// Loads/stores each host may issue along one execution.
    pub ops_per_host: u8,
    /// Optional protocol fault injected to demonstrate detection.
    pub mutation: Option<Mutation>,
}

impl Config {
    /// A named configuration with no fault injection.
    pub fn new(hosts: usize, lines: usize, ops_per_host: u8) -> Self {
        Config {
            hosts,
            lines,
            ops_per_host,
            mutation: None,
        }
    }
}

/// A deliberate protocol fault, used to validate the checker itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Hosts acknowledge `SnpInv` but keep their copy — breaks SWMR
    /// and freshness (a stale read becomes reachable).
    DropInvalidate,
    /// The directory resolves requests but the grant message is lost —
    /// the requester waits forever (a deadlock becomes reachable).
    LoseGrant,
}

/// A message in flight between a host and the directory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Msg {
    /// Host → directory: a read (`RdShared`) or ownership (`RdOwn`)
    /// request for a line.
    Req { line: usize, write: bool },
    /// Host → directory: an eviction notice (dirty = writeback).
    Evict { line: usize, dirty: bool },
    /// Host → directory: response to a snoop (dirty = data forwarded).
    SnoopRsp { line: usize, dirty: bool },
    /// Directory → host: a snoop.
    Snoop { line: usize, kind: SnoopKind },
    /// Directory → host: the grant completing the host's request,
    /// carrying the data version current at grant time.
    Grant {
        line: usize,
        grant: Grant,
        version: u32,
    },
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Req { line, write: true } => write!(f, "RdOwn(line {line})"),
            Msg::Req { line, write: false } => write!(f, "RdShared(line {line})"),
            Msg::Evict { line, dirty: true } => write!(f, "DirtyEvict(line {line})"),
            Msg::Evict { line, dirty: false } => write!(f, "CleanEvict(line {line})"),
            Msg::SnoopRsp { line, dirty } => write!(f, "SnoopRsp(line {line}, dirty={dirty})"),
            Msg::Snoop { line, kind } => write!(f, "{kind:?}Snoop(line {line})"),
            Msg::Grant {
                line,
                grant,
                version,
            } => write!(f, "Grant({grant:?}, line {line}, v{version})"),
        }
    }
}

/// One host's protocol-visible state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Host {
    /// Per-line copy: state plus the data version it carries.
    lines: Vec<Option<(HostLineState, u32)>>,
    /// The single outstanding miss (line, is-store), if any.
    outstanding: Option<(usize, bool)>,
    /// Loads/stores this host may still start.
    budget: u8,
}

/// The full model state.
#[derive(Debug, Clone)]
struct State {
    hosts: Vec<Host>,
    dir: Directory,
    /// FIFO channels host → directory, one per host.
    h2d: Vec<VecDeque<Msg>>,
    /// FIFO channels directory → host, one per host.
    d2h: Vec<VecDeque<Msg>>,
    /// Requests the directory bounced `Busy`, queued per line in
    /// arrival order (mirrors `DirectoryNode::deferred`).
    deferred: Vec<VecDeque<(usize, bool)>>,
    /// Globally latest committed store version per line.
    latest: Vec<u32>,
}

/// Hashable identity of a state (directory via its canonical
/// snapshot, which excludes statistics counters).
type StateKey = (
    Vec<Host>,
    Vec<(u64, LineState, Option<(NodeId, Grant, Vec<NodeId>, bool)>)>,
    Vec<VecDeque<Msg>>,
    Vec<VecDeque<Msg>>,
    Vec<VecDeque<(usize, bool)>>,
    Vec<u32>,
);

const LINE_BYTES: u64 = 64;

fn nid(host: usize) -> NodeId {
    NodeId(1 + host as u16)
}

fn host_of(n: NodeId) -> usize {
    (n.0 - 1) as usize
}

fn addr(line: usize) -> u64 {
    line as u64 * LINE_BYTES
}

/// One enabled transition out of a state.
enum Step {
    /// Host starts a load/store on a line.
    Access {
        host: usize,
        line: usize,
        write: bool,
    },
    /// Host evicts a held line.
    Evict { host: usize, line: usize },
    /// Deliver the head of `h2d[host]` to the directory.
    ToDir { host: usize },
    /// Deliver the head of `d2h[host]` to the host.
    ToHost { host: usize },
}

impl fmt::Display for Step {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Step::Access {
                host,
                line,
                write: true,
            } => write!(f, "host {host} stores to line {line}"),
            Step::Access {
                host,
                line,
                write: false,
            } => write!(f, "host {host} loads line {line}"),
            Step::Evict { host, line } => write!(f, "host {host} evicts line {line}"),
            Step::ToDir { host } => write!(f, "deliver host {host} → directory"),
            Step::ToHost { host } => write!(f, "deliver directory → host {host}"),
        }
    }
}

/// The checker: the transition system [`explore`] searches.
struct Checker<'a> {
    cfg: &'a Config,
}

impl Model for Checker<'_> {
    type State = State;
    type Key = StateKey;
    type Step = Step;

    fn initial(&self) -> State {
        State {
            hosts: vec![
                Host {
                    lines: vec![None; self.cfg.lines],
                    outstanding: None,
                    budget: self.cfg.ops_per_host,
                };
                self.cfg.hosts
            ],
            dir: Directory::new(),
            h2d: vec![VecDeque::new(); self.cfg.hosts],
            d2h: vec![VecDeque::new(); self.cfg.hosts],
            deferred: vec![VecDeque::new(); self.cfg.lines],
            latest: vec![0; self.cfg.lines],
        }
    }

    fn key(&self, s: &State) -> StateKey {
        (
            s.hosts.clone(),
            s.dir.canonical(),
            s.h2d.clone(),
            s.d2h.clone(),
            s.deferred.clone(),
            s.latest.clone(),
        )
    }

    fn steps(&self, s: &State) -> Vec<Step> {
        let mut steps = Vec::new();
        for (hi, h) in s.hosts.iter().enumerate() {
            if h.outstanding.is_none() && h.budget > 0 {
                for line in 0..self.cfg.lines {
                    for write in [false, true] {
                        steps.push(Step::Access {
                            host: hi,
                            line,
                            write,
                        });
                    }
                }
            }
            for line in 0..self.cfg.lines {
                // CoherentL1 only evicts lines without an outstanding
                // request (an upgrade in flight pins its Shared copy).
                if h.lines[line].is_some() && h.outstanding.map(|(l, _)| l) != Some(line) {
                    steps.push(Step::Evict { host: hi, line });
                }
            }
            if !s.h2d[hi].is_empty() {
                steps.push(Step::ToDir { host: hi });
            }
            if !s.d2h[hi].is_empty() {
                steps.push(Step::ToHost { host: hi });
            }
        }
        steps
    }

    /// Applies `step`; `Err` means the transition itself is ill-formed.
    fn apply(&self, s: &mut State, step: &Step) -> Result<(), String> {
        match *step {
            Step::Access { host, line, write } => {
                let h = &mut s.hosts[host];
                h.budget -= 1;
                let state = h.lines[line].map(|(st, _)| st);
                // Real host-side hit/miss classification.
                if protocol::access_hits(state, write) {
                    if write {
                        s.latest[line] += 1;
                        h.lines[line] = Some((HostLineState::Modified, s.latest[line]));
                    }
                } else {
                    h.outstanding = Some((line, write));
                    s.h2d[host].push_back(Msg::Req { line, write });
                }
            }
            Step::Evict { host, line } => {
                let h = &mut s.hosts[host];
                let Some((state, _)) = h.lines[line].take() else {
                    return Err(format!("host {host} evicting line {line} it does not hold"));
                };
                // Real host-side eviction classification.
                let (op, bytes) = protocol::evict_op(state);
                debug_assert!(matches!(
                    op,
                    CacheOpcode::DirtyEvict | CacheOpcode::CleanEvict
                ));
                s.h2d[host].push_back(Msg::Evict {
                    line,
                    dirty: bytes > 0,
                });
            }
            Step::ToDir { host } => {
                let Some(msg) = s.h2d[host].pop_front() else {
                    return Err(format!("delivery from empty channel h2d[{host}]"));
                };
                match msg {
                    Msg::Req { line, write } => {
                        self.dir_request(s, host, line, write);
                    }
                    Msg::Evict { line, .. } => {
                        s.dir.evict(addr(line), nid(host));
                    }
                    Msg::SnoopRsp { line, dirty } => {
                        if let Some((req, grant, _dirty)) =
                            s.dir.snoop_response(addr(line), nid(host), dirty)
                        {
                            self.push_grant(s, host_of(req), line, grant);
                            self.retry_deferred(s, line);
                        }
                    }
                    other => return Err(format!("directory received host message {other}")),
                }
            }
            Step::ToHost { host } => {
                let Some(msg) = s.d2h[host].pop_front() else {
                    return Err(format!("delivery from empty channel d2h[{host}]"));
                };
                match msg {
                    Msg::Snoop { line, kind } => {
                        let op = match kind {
                            SnoopKind::Invalidate => CacheOpcode::SnpInv,
                            SnoopKind::Data => CacheOpcode::SnpData,
                        };
                        let held = s.hosts[host].lines[line];
                        // Real host-side snoop transition.
                        let Some((next, _rsp, bytes)) =
                            protocol::snoop_transition(held.map(|(st, _)| st), op)
                        else {
                            return Err(format!("{op:?} is not a snoop"));
                        };
                        let keep_copy = self.cfg.mutation == Some(Mutation::DropInvalidate)
                            && kind == SnoopKind::Invalidate;
                        if !keep_copy {
                            s.hosts[host].lines[line] =
                                next.map(|st| (st, held.map(|(_, v)| v).unwrap_or(0)));
                        }
                        s.h2d[host].push_back(Msg::SnoopRsp {
                            line,
                            dirty: !keep_copy && bytes > 0,
                        });
                    }
                    // The fill state follows the request (as in
                    // `CoherentL1::on_completion`), not the grant kind.
                    Msg::Grant { line, version, .. } => {
                        let h = &mut s.hosts[host];
                        match h.outstanding.take() {
                            Some((l, write)) if l == line => {
                                // Real host-side fill rule.
                                let filled = protocol::fill_state(write);
                                let v = if write {
                                    s.latest[line] += 1;
                                    s.latest[line]
                                } else {
                                    version
                                };
                                h.lines[line] = Some((filled, v));
                            }
                            other => {
                                h.outstanding = other;
                                return Err(format!(
                                    "host {host} got grant for line {line} with outstanding {other:?}"
                                ));
                            }
                        }
                    }
                    other => return Err(format!("host received directory message {other}")),
                }
            }
        }
        Ok(())
    }

    /// Checks all state invariants; returns the failing one, if any.
    fn invariant(&self, s: &State) -> Option<String> {
        for line in 0..self.cfg.lines {
            let copies: Vec<_> = s
                .hosts
                .iter()
                .enumerate()
                .filter_map(|(i, h)| h.lines[line].map(|(st, v)| (i, st, v)))
                .collect();
            // 1. Single writer / multiple readers.
            let writers = copies
                .iter()
                .filter(|(_, st, _)| *st == HostLineState::Modified)
                .count();
            if writers > 1 || (writers == 1 && copies.len() > 1) {
                return Some(format!(
                    "SWMR violated on line {line}: copies {copies:?} (host, state, version)"
                ));
            }
            // 2. Freshness: every valid copy is the latest committed
            //    version — a stale copy means an invalidation was lost.
            for &(host, st, v) in &copies {
                if v != s.latest[line] {
                    return Some(format!(
                        "stale copy on line {line}: host {host} holds {st:?} v{v}, \
                         latest committed is v{}",
                        s.latest[line]
                    ));
                }
            }
        }
        // 3a. The directory's own bookkeeping invariant.
        if !s.dir.check_swmr() {
            return Some("directory SWMR bookkeeping violated".into());
        }
        // 3b. In quiescent states the directory must agree exactly
        //     with the hosts.
        if self.quiescent(s) {
            for line in 0..self.cfg.lines {
                let holders: Vec<_> = s
                    .hosts
                    .iter()
                    .enumerate()
                    .filter_map(|(i, h)| h.lines[line].map(|(st, _)| (i, st)))
                    .collect();
                let dir_state = s.dir.state(addr(line));
                let agree = match &dir_state {
                    LineState::Uncached => holders.is_empty(),
                    LineState::Shared(set) => {
                        holders.iter().all(|(_, st)| *st == HostLineState::Shared)
                            && holders.len() == set.len()
                            && holders.iter().all(|(i, _)| set.contains(&nid(*i)))
                    }
                    LineState::Modified(owner) => {
                        holders.len() == 1
                            && holders[0] == (host_of(*owner), HostLineState::Modified)
                    }
                };
                if !agree {
                    return Some(format!(
                        "directory–cache disagreement on line {line}: \
                         directory says {dir_state:?}, hosts hold {holders:?}"
                    ));
                }
            }
        }
        None
    }

    /// Nothing in flight, nothing outstanding, nothing deferred.
    fn quiescent(&self, s: &State) -> bool {
        s.h2d.iter().all(VecDeque::is_empty)
            && s.d2h.iter().all(VecDeque::is_empty)
            && s.hosts.iter().all(|h| h.outstanding.is_none())
            && s.deferred.iter().all(VecDeque::is_empty)
            && (0..self.cfg.lines).all(|l| !s.dir.is_busy(addr(l)))
    }

    fn dump(&self, s: &State) -> String {
        let mut out = String::new();
        for (i, h) in s.hosts.iter().enumerate() {
            out.push_str(&format!(
                "\n  host {i}: lines={:?} outstanding={:?} budget={}",
                h.lines, h.outstanding, h.budget
            ));
        }
        out.push_str(&format!("\n  directory: {:?}", s.dir.canonical()));
        out.push_str(&format!("\n  latest versions: {:?}", s.latest));
        for (i, q) in s.h2d.iter().enumerate() {
            if !q.is_empty() {
                out.push_str(&format!("\n  h2d[{i}]: {q:?}"));
            }
        }
        for (i, q) in s.d2h.iter().enumerate() {
            if !q.is_empty() {
                out.push_str(&format!("\n  d2h[{i}]: {q:?}"));
            }
        }
        for (l, q) in s.deferred.iter().enumerate() {
            if !q.is_empty() {
                out.push_str(&format!("\n  deferred[line {l}]: {q:?}"));
            }
        }
        out
    }
}

impl Checker<'_> {
    /// Issues a grant for a resolved request, honoring `LoseGrant`.
    fn push_grant(&self, s: &mut State, to: usize, line: usize, grant: Grant) {
        if self.cfg.mutation == Some(Mutation::LoseGrant) {
            return;
        }
        let version = s.latest[line];
        s.d2h[to].push_back(Msg::Grant {
            line,
            grant,
            version,
        });
    }

    /// Feeds one request into the real directory and routes the
    /// resulting snoops/grant; `Busy` requests join the deferred
    /// queue exactly as `DirectoryNode` defers them.
    fn dir_request(&self, s: &mut State, host: usize, line: usize, write: bool) -> bool {
        let outcome = if write {
            s.dir.write(addr(line), nid(host))
        } else {
            s.dir.read(addr(line), nid(host))
        };
        match outcome {
            DirOutcome::Ready(g) => {
                self.push_grant(s, host, line, g);
                false
            }
            DirOutcome::Wait(snoops) => {
                for (node, kind) in snoops {
                    s.d2h[host_of(node)].push_back(Msg::Snoop { line, kind });
                }
                true
            }
            DirOutcome::Busy => {
                s.deferred[line].push_back((host, write));
                false
            }
        }
    }

    /// Retries deferred requests for a line until one blocks again.
    fn retry_deferred(&self, s: &mut State, line: usize) {
        while let Some((host, write)) = s.deferred[line].pop_front() {
            if self.dir_request(s, host, line, write) {
                break;
            }
        }
    }
}

/// Exhaustively explores `cfg`, returning exploration statistics, or
/// the first invariant violation found (with its shortest trace).
pub fn check(cfg: &Config) -> Result<Report, Box<Violation>> {
    explore(&Checker { cfg })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_hosts_one_line_is_clean() {
        let report = check(&Config::new(2, 1, 2)).expect("protocol is correct");
        assert!(report.states > 100, "got {} states", report.states);
    }

    #[test]
    fn dropped_invalidation_is_caught_with_trace() {
        let mut cfg = Config::new(2, 1, 2);
        cfg.mutation = Some(Mutation::DropInvalidate);
        let v = check(&cfg).expect_err("mutation must be detected");
        assert!(
            v.invariant.contains("SWMR") || v.invariant.contains("stale"),
            "unexpected invariant: {}",
            v.invariant
        );
        assert!(!v.trace.is_empty(), "counterexample must carry a trace");
        // The trace renders end to end.
        let rendered = v.to_string();
        assert!(rendered.contains("trace ("));
    }

    #[test]
    fn lost_grant_deadlocks() {
        let mut cfg = Config::new(2, 1, 1);
        cfg.mutation = Some(Mutation::LoseGrant);
        let v = check(&cfg).expect_err("lost grants must deadlock");
        assert!(v.invariant.contains("deadlock"), "got: {}", v.invariant);
    }
}
