//! Verification harnesses for the FCC protocol stack.
//!
//! This crate contains tooling that checks the simulator's protocol
//! engines rather than simulating with them:
//!
//! - [`explore`] — the one explicit-state explorer the coherence,
//!   reconfiguration and credit-ledger checkers share. Each describes
//!   its transition system as an [`explore::Model`]; the explorer walks
//!   every reachable state breadth-first, checks the model's invariant
//!   and that every stepless state is quiescent (deadlock freedom), and
//!   reports a [`explore::Report`] or the shortest counterexample as an
//!   [`explore::Violation`].
//! - [`coherence`] — a model that drives the *real* host-side MESI
//!   transition rules ([`fcc_cache::protocol`]) and the *real* full-map
//!   directory ([`fcc_memnode::directory`]) through every interleaving
//!   of loads, stores, evictions and snoop deliveries that small
//!   configurations admit, asserting coherence safety on every
//!   reachable state.
//! - [`reconfig`] — a model of the epoch-based reconfiguration protocol
//!   ([`fcc_elastic::epoch`]): it interleaves every hot-add / hot-remove
//!   plan step with in-flight fabric traffic and proves no flit is
//!   dropped at a missing route or delivered to a detached port.
//! - [`routing`] — a routing checker for the wormhole switch core: it
//!   proves the escape-VC channel dependency graph of every small-K pod
//!   plan ([`fcc_fabric::pods`]) acyclic — the load-bearing premise of
//!   the switch's Duato-style deadlock-freedom argument — and explores
//!   a model of the real per-VC credit ledger in full, asserting exact
//!   conservation and that no worm is ever wedged.
//! - [`sched`] — an exhaustive isolation checker for the fabric QoS
//!   scheduler ([`fcc_sched`]): it drives the real credit-partition
//!   ledger through every small-K per-window demand schedule and proves
//!   a saturating hog can never starve a floor-holding tenant, the
//!   per-tenant ledgers stay conservation-clean, and the partition is
//!   work-conserving. It replays each schedule from scratch and merges
//!   no states, so it does not run on the explorer.
//!
//! The `check-coherence`, `check-reconfig`, `check-sched` and
//! `check-routing` binaries
//! run the standard configurations and exit non-zero (printing a full
//! counterexample trace) on any violation; `scripts/check.sh` wires
//! them into the repo's verification gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coherence;
pub mod explore;
pub mod reconfig;
pub mod routing;
pub mod sched;
