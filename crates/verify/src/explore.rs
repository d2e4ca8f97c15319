//! The explicit-state explorer every model checker in this crate runs on.
//!
//! A checker describes its transition system as a [`Model`]: an initial
//! state, the steps enabled in a state, how a step changes it, the
//! invariant every reachable state must satisfy, and which stepless
//! states count as finished. [`explore`] then walks every reachable
//! state breadth-first and checks, on each one:
//!
//! 1. **the model's invariant** ([`Model::invariant`]);
//! 2. **deadlock freedom** — a state with no enabled step must be
//!    [quiescent](Model::quiescent);
//! 3. **well-formed steps** — an [`Err`] from [`Model::apply`] is a
//!    violation whose trace ends with the step that raised it.
//!
//! Breadth-first order makes every counterexample a shortest one. The
//! search merges states by [`Model::key`], so a model may hash a
//! canonical form rather than the whole state.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::Hash;

/// A finite transition system the explorer can search.
pub trait Model {
    /// A full model state.
    type State: Clone;
    /// The identity under which states are merged.
    type Key: Clone + Eq + Hash;
    /// One transition out of a state; its text is a trace line.
    type Step: fmt::Display;

    /// The state the search starts from.
    fn initial(&self) -> Self::State;
    /// The identity of `s`: states with equal keys are explored once.
    fn key(&self, s: &Self::State) -> Self::Key;
    /// Every step enabled in `s`, in exploration order.
    fn steps(&self, s: &Self::State) -> Vec<Self::Step>;
    /// Applies `step` to `s`; `Err` names the invariant the step broke.
    fn apply(&self, s: &mut Self::State, step: &Self::Step) -> Result<(), String>;
    /// The invariant every reachable state must hold: `Some` names the
    /// one `s` breaks.
    fn invariant(&self, s: &Self::State) -> Option<String>;
    /// Whether `s` has finished its work, so having no enabled step is
    /// not a deadlock.
    fn quiescent(&self, s: &Self::State) -> bool;
    /// A human-readable dump of `s` for counterexamples.
    fn dump(&self, s: &Self::State) -> String;
}

/// Summary of a clean exhaustive exploration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    /// Distinct reachable states (by [`Model::key`]).
    pub states: usize,
    /// Steps applied, including ones reaching known states.
    pub transitions: u64,
    /// Longest breadth-first depth (steps from the initial state).
    pub depth: usize,
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} reachable states, {} transitions, depth {}",
            self.states, self.transitions, self.depth
        )
    }
}

/// An invariant violation with its shortest counterexample trace.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which invariant failed.
    pub invariant: String,
    /// Human-readable dump of the violating state.
    pub state: String,
    /// Every step from the initial state to the violation.
    pub trace: Vec<String>,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "invariant violated: {}", self.invariant)?;
        writeln!(f, "trace ({} steps):", self.trace.len())?;
        for (i, step) in self.trace.iter().enumerate() {
            writeln!(f, "  {:3}. {step}", i + 1)?;
        }
        write!(f, "state: {}", self.state)
    }
}

impl std::error::Error for Violation {}

/// Per discovered key: its depth and the `(parent key, step text)` that
/// first reached it (`None` for the initial state).
type Seen<K> = HashMap<K, (usize, Option<(K, String)>)>;

/// The steps from the initial state to `key`.
fn trace_to<K: Eq + Hash>(seen: &Seen<K>, key: &K) -> Vec<String> {
    let mut trace = Vec::new();
    let mut cur = key;
    while let Some((_, Some((prev, step)))) = seen.get(cur) {
        trace.push(step.clone());
        cur = prev;
    }
    trace.reverse();
    trace
}

/// Explores every state reachable in `model`, breadth-first. Returns
/// the exploration statistics, or the first violation found with its
/// shortest trace.
pub fn explore<M: Model>(model: &M) -> Result<Report, Box<Violation>> {
    let initial = model.initial();
    let initial_key = model.key(&initial);
    let mut seen: Seen<M::Key> = HashMap::new();
    seen.insert(initial_key.clone(), (0, None));
    let mut frontier = VecDeque::from([(initial, initial_key)]);
    let mut transitions = 0u64;
    let mut depth = 0usize;

    while let Some((state, key)) = frontier.pop_front() {
        let d = seen.get(&key).map_or(0, |&(d, _)| d);
        depth = depth.max(d);
        let violation = |invariant: String, at: &M::State, seen: &Seen<M::Key>| {
            Box::new(Violation {
                invariant,
                state: model.dump(at),
                trace: trace_to(seen, &key),
            })
        };
        if let Some(invariant) = model.invariant(&state) {
            return Err(violation(invariant, &state, &seen));
        }
        let steps = model.steps(&state);
        if steps.is_empty() && !model.quiescent(&state) {
            let invariant = "deadlock: in-flight work but no enabled transition".to_string();
            return Err(violation(invariant, &state, &seen));
        }
        for step in steps {
            transitions += 1;
            let mut next = state.clone();
            if let Err(invariant) = model.apply(&mut next, &step) {
                let mut v = violation(invariant, &next, &seen);
                v.trace.push(step.to_string());
                return Err(v);
            }
            let next_key = model.key(&next);
            if !seen.contains_key(&next_key) {
                seen.insert(
                    next_key.clone(),
                    (d + 1, Some((key.clone(), step.to_string()))),
                );
                frontier.push_back((next, next_key));
            }
        }
    }

    Ok(Report {
        states: seen.len(),
        transitions,
        depth,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A directed graph walked from node 0: one step per out-edge.
    struct Graph {
        edges: &'static [(u8, u8)],
        /// A node whose state breaks the invariant.
        bad: Option<u8>,
        /// Stepless nodes that count as finished.
        done: &'static [u8],
        /// An edge whose `apply` fails.
        refused: Option<(u8, u8)>,
    }

    struct Edge(u8, u8);

    impl fmt::Display for Edge {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "{} -> {}", self.0, self.1)
        }
    }

    impl Graph {
        fn new(edges: &'static [(u8, u8)], done: &'static [u8]) -> Self {
            Graph {
                edges,
                bad: None,
                done,
                refused: None,
            }
        }
    }

    impl Model for Graph {
        type State = u8;
        type Key = u8;
        type Step = Edge;

        fn initial(&self) -> u8 {
            0
        }
        fn key(&self, s: &u8) -> u8 {
            *s
        }
        fn steps(&self, s: &u8) -> Vec<Edge> {
            self.edges
                .iter()
                .filter(|&&(a, _)| a == *s)
                .map(|&(a, b)| Edge(a, b))
                .collect()
        }
        fn apply(&self, s: &mut u8, step: &Edge) -> Result<(), String> {
            if self.refused == Some((step.0, step.1)) {
                return Err(format!("edge {step} refused"));
            }
            *s = step.1;
            Ok(())
        }
        fn invariant(&self, s: &u8) -> Option<String> {
            (self.bad == Some(*s)).then(|| format!("reached bad node {s}"))
        }
        fn quiescent(&self, s: &u8) -> bool {
            self.done.contains(s)
        }
        fn dump(&self, s: &u8) -> String {
            format!("node {s}")
        }
    }

    /// Two paths to node 5: 0 -> 4 -> 5, and 0 -> 1 -> 2 -> 3 -> 5, whose
    /// first edge is listed last (so a depth-first search takes it first).
    const LONG_AND_SHORT: &[(u8, u8)] = &[(0, 4), (4, 5), (0, 1), (1, 2), (2, 3), (3, 5)];

    #[test]
    fn counterexample_is_a_shortest_path() {
        let mut g = Graph::new(LONG_AND_SHORT, &[5]);
        g.bad = Some(5);
        let v = explore(&g).expect_err("node 5 is reachable");
        assert_eq!(v.invariant, "reached bad node 5");
        assert_eq!(v.trace, ["0 -> 4", "4 -> 5"]);
        assert_eq!(v.state, "node 5");
    }

    #[test]
    fn deadlock_only_at_a_stepless_unfinished_state() {
        // Node 5 is stepless and finished: no deadlock.
        let clean = explore(&Graph::new(LONG_AND_SHORT, &[5])).expect("5 is quiescent");
        assert_eq!(clean.states, 6);
        // Node 2 is stepless and unfinished: a deadlock, reported there.
        let v = explore(&Graph::new(&[(0, 1), (1, 2), (0, 3), (3, 4)], &[4]))
            .expect_err("node 2 cannot finish");
        assert!(v.invariant.starts_with("deadlock"), "{}", v.invariant);
        assert_eq!(v.state, "node 2");
        assert_eq!(v.trace, ["0 -> 1", "1 -> 2"]);
    }

    #[test]
    fn apply_error_trace_ends_with_the_refused_step() {
        let mut g = Graph::new(LONG_AND_SHORT, &[5]);
        g.refused = Some((4, 5));
        let v = explore(&g).expect_err("edge 4 -> 5 is refused");
        assert_eq!(v.invariant, "edge 4 -> 5 refused");
        assert_eq!(v.trace, ["0 -> 4", "4 -> 5"]);
        // The dump is of the state the refused step left behind.
        assert_eq!(v.state, "node 4");
    }

    #[test]
    fn counts_are_exact_on_a_known_graph() {
        // A diamond with a back edge: 4 states, 5 steps, 2 deep.
        let g = Graph::new(&[(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)], &[]);
        let report = explore(&g).expect("every node has a step");
        assert_eq!(
            report,
            Report {
                states: 4,
                transitions: 5,
                depth: 2
            }
        );
        assert_eq!(
            report.to_string(),
            "4 reachable states, 5 transitions, depth 2"
        );
    }
}
