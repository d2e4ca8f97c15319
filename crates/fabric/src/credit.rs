//! Egress credit allocation policies for the fabric switch.
//!
//! §3 D#3 of the paper identifies three unexploited problems in
//! credit-based flow control over routable PCIe. This module implements the
//! mechanism under critique and its alternatives, so the experiments can
//! reproduce the pathologies and show the FCC remedy:
//!
//! * **Credit allocation** — "the de facto scheme is an exponential
//!   ramp-up approach based on port bandwidth utilization. A consistently
//!   heavily-used port would take more credits, leaving little room for
//!   other contending ports." [`AllocPolicy::RampUp`] implements that
//!   scheme; [`AllocPolicy::Fair`] is the static-equal baseline, and
//!   [`AllocPolicy::Arbitrated`] defers to reservations installed by the
//!   central arbiter (design principle #4).
//! * The **scheduling** and **coordination** pathologies are exercised by
//!   the switch queue discipline and multi-switch topologies respectively
//!   (see `switch.rs` and experiment E3d/E3e).

use serde::{Deserialize, Serialize};

use fcc_sim::SimTime;

/// How an output port's scarce downstream credits are divided among
/// competing input ports.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum AllocPolicy {
    /// Round-robin, equal shares. No history.
    Fair,
    /// Exponential ramp-up on utilization (Kung et al. \[56\], the de facto
    /// scheme): an input that fully uses its allocation doubles it next
    /// window; an underusing input halves. Grants come from a shared
    /// credit pool, richest first — so a hot port's grown allocation
    /// leaves "little room for other contending ports" (§3 D#3).
    RampUp {
        /// Allocation adjustment window.
        window: SimTime,
        /// Initial and minimum desired per-input allocation (flits/window).
        floor: u32,
        /// Maximum per-input allocation (flits per window).
        ceiling: u32,
        /// Total flits grantable per window across all inputs.
        pool: u32,
    },
    /// Reservations installed by the central fabric arbiter; unreserved
    /// traffic shares the remainder round-robin.
    Arbitrated,
}

impl AllocPolicy {
    /// A ramp-up policy with the defaults used in the experiments: the
    /// pool matches roughly one window of device service capacity.
    pub fn default_ramp_up() -> Self {
        AllocPolicy::RampUp {
            window: SimTime::from_us(1.0),
            floor: 2,
            ceiling: 4096,
            pool: 32,
        }
    }
}

/// Per-output ramp-up allocator state.
#[derive(Debug, Clone)]
pub struct RampUpState {
    floor: u32,
    ceiling: u32,
    pool: u32,
    /// Desired allocation per input (exponential ramp target).
    desired: Vec<u32>,
    /// Current granted allocation per input port (flits per window).
    alloc: Vec<u32>,
    /// Flits forwarded per input port in the current window.
    used: Vec<u32>,
}

impl RampUpState {
    /// Creates state for `inputs` input ports sharing `pool` flits/window.
    pub fn new(inputs: usize, floor: u32, ceiling: u32, pool: u32) -> Self {
        let floor = floor.max(1);
        let mut s = RampUpState {
            floor,
            ceiling: ceiling.max(floor),
            pool: pool.max(1),
            desired: vec![floor; inputs],
            alloc: vec![0; inputs],
            used: vec![0; inputs],
        };
        s.grant();
        s
    }

    /// Distributes the pool: richest desired allocation first (the de
    /// facto scheme's bias), everyone else takes what remains (min 1).
    fn grant(&mut self) {
        let mut order: Vec<usize> = (0..self.desired.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(self.desired[i]));
        let mut remaining = self.pool;
        for i in order {
            let granted = self.desired[i].min(remaining);
            let granted = granted.max(1);
            self.alloc[i] = granted;
            remaining = remaining.saturating_sub(granted);
        }
    }

    /// Whether input `i` may forward another flit this window.
    pub fn may_send(&self, i: usize) -> bool {
        self.used[i] < self.alloc[i]
    }

    /// Records a forwarded flit from input `i`.
    pub fn on_send(&mut self, i: usize) {
        debug_assert!(
            self.used[i] < self.alloc[i],
            "input {i} sent past its allocation ({} >= {})",
            self.used[i],
            self.alloc[i]
        );
        self.used[i] += 1;
    }

    /// Window rollover: an input that used at least its *desired*
    /// allocation doubles it; everyone else halves. Growth therefore
    /// requires demonstrated utilization — which requires credits — which
    /// a camped-on pool never hands back: the paper's pathology.
    pub fn rollover(&mut self) {
        for (desired, used) in self.desired.iter_mut().zip(self.used.iter_mut()) {
            if *used >= *desired && *used > 0 {
                *desired = (desired.saturating_mul(2)).min(self.ceiling);
            } else {
                *desired = (*desired / 2).max(self.floor);
            }
            *used = 0;
        }
        self.grant();
    }

    /// Current allocation vector (for fairness probes).
    pub fn allocations(&self) -> &[u32] {
        &self.alloc
    }

    /// Adds an input at the floor (a port added mid-run) and re-grants
    /// the pool. The new input sorts last among the floor-level inputs,
    /// so no existing allocation changes.
    pub(crate) fn add_input(&mut self) {
        self.desired.push(self.floor);
        self.alloc.push(0);
        self.used.push(0);
        self.grant();
    }

    /// Releases input `i`'s ramp history on detach: its desired
    /// allocation drops to the floor and the pool is re-granted, so a
    /// departed port's grown share returns to the contenders instead of
    /// decaying over log(ceiling) windows.
    pub fn release_input(&mut self, i: usize) {
        if i >= self.desired.len() {
            return;
        }
        self.desired[i] = self.floor;
        self.used[i] = 0;
        self.grant();
    }

    /// Checks the allocator's own conservation invariants, returning a
    /// description of the first violated one:
    ///
    /// * `floor <= desired <= ceiling` for every input (the ramp target
    ///   never escapes its configured band);
    /// * `alloc <= max(desired, 1)` (grants never exceed the ramp target,
    ///   beyond the min-1 guarantee);
    /// * `used <= alloc` (no input sends past its allocation);
    /// * `sum(alloc) <= pool + inputs` (the pool bounds total grants,
    ///   modulo the one-flit minimum guarantee per input).
    pub fn audit(&self) -> Result<(), String> {
        for (i, &desired) in self.desired.iter().enumerate() {
            if desired < self.floor || desired > self.ceiling {
                return Err(format!(
                    "input {i}: desired {desired} outside [{}, {}]",
                    self.floor, self.ceiling
                ));
            }
            if self.alloc[i] > desired.max(1) {
                return Err(format!(
                    "input {i}: alloc {} exceeds desired {desired}",
                    self.alloc[i]
                ));
            }
            if self.used[i] > self.alloc[i] {
                return Err(format!(
                    "input {i}: used {} exceeds alloc {}",
                    self.used[i], self.alloc[i]
                ));
            }
        }
        let total: u64 = self.alloc.iter().map(|&a| u64::from(a)).sum();
        let bound = u64::from(self.pool) + self.alloc.len() as u64;
        if total > bound {
            return Err(format!(
                "total allocation {total} exceeds pool {} + {} min guarantees",
                self.pool,
                self.alloc.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use fcc_sim::jain_fairness;

    use super::*;

    #[test]
    fn hot_input_grows_idle_input_stays_at_floor() {
        let mut s = RampUpState::new(2, 2, 64, 64);
        for _round in 0..8 {
            // Input 0 always saturates its allocation; input 1 is idle.
            while s.may_send(0) {
                s.on_send(0);
            }
            s.rollover();
        }
        assert!(s.allocations()[0] >= 60, "hot port took the pool");
        assert!(s.allocations()[1] <= 2, "idle port pinned at floor");
    }

    #[test]
    fn hot_port_leaves_little_room_for_late_contenders() {
        let mut s = RampUpState::new(4, 2, 1024, 32);
        // Input 0 hogs alone for 10 windows; its desired allocation grows
        // past the pool size.
        for _ in 0..10 {
            while s.may_send(0) {
                s.on_send(0);
            }
            s.rollover();
        }
        // Late contenders now demand service, but the pool is spoken for.
        for _ in 0..3 {
            for i in 0..4 {
                while s.may_send(i) {
                    s.on_send(i);
                }
            }
            s.rollover();
        }
        let allocs: Vec<f64> = s.allocations().iter().map(|&a| a as f64).collect();
        let fairness = jain_fairness(&allocs);
        assert!(
            fairness < 0.5,
            "ramp-up should be grossly unfair, Jain={fairness}, allocs {allocs:?}"
        );
        assert!(allocs[0] > allocs[1] * 4.0);
    }

    #[test]
    fn recovery_takes_log_windows() {
        let mut s = RampUpState::new(1, 2, 256, 1024);
        // Ramp to ceiling.
        for _ in 0..10 {
            while s.may_send(0) {
                s.on_send(0);
            }
            s.rollover();
        }
        assert_eq!(s.allocations()[0], 256);
        // Go idle: allocation decays geometrically, not instantly.
        s.rollover();
        assert_eq!(s.allocations()[0], 128);
        for _ in 0..10 {
            s.rollover();
        }
        assert_eq!(s.allocations()[0], 2);
    }

    #[test]
    fn release_returns_hot_share_to_the_pool() {
        let mut s = RampUpState::new(2, 2, 64, 64);
        for _ in 0..8 {
            while s.may_send(0) {
                s.on_send(0);
            }
            s.rollover();
        }
        assert!(s.allocations()[0] >= 60);
        // Input 0 detaches; its share returns immediately, and the audit
        // invariants survive the re-grant.
        s.release_input(0);
        assert!(s.audit().is_ok(), "{:?}", s.audit());
        assert!(s.allocations()[0] <= 2, "released input back at floor");
    }

    #[test]
    fn may_send_respects_allocation() {
        let mut s = RampUpState::new(1, 3, 8, 16);
        assert!(s.may_send(0));
        s.on_send(0);
        s.on_send(0);
        s.on_send(0);
        assert!(!s.may_send(0));
    }

    #[test]
    fn grants_never_exceed_pool_by_more_than_min_guarantees() {
        let s = RampUpState::new(8, 4, 64, 16);
        let total: u32 = s.allocations().iter().sum();
        // Everyone gets at least 1; pool bounds the rest.
        assert!(total <= 16 + 8);
    }

    #[test]
    fn audit_catches_oversend() {
        let mut s = RampUpState::new(2, 2, 8, 8);
        assert!(s.audit().is_ok());
        // Bypass may_send: force used past alloc and check the auditor
        // notices. (debug_assert in on_send fires first in debug builds,
        // so poke the field directly.)
        s.used[0] = s.alloc[0] + 1;
        assert!(s.audit().expect_err("oversend").contains("used"));
    }

    mod properties {
        use proptest::prelude::*;

        use super::*;

        proptest! {
            /// The allocator's conservation invariants survive arbitrary
            /// demand patterns: desired stays in `[floor, ceiling]`, used
            /// stays within alloc, and total grants stay within the pool
            /// plus the per-input minimum guarantee.
            #[test]
            fn invariants_hold_under_arbitrary_demand(
                inputs in 1usize..6,
                pool in 1u32..128,
                floor in 1u32..8,
                ceiling in 8u32..256,
                demand in prop::collection::vec(
                    prop::collection::vec(0u32..64, 6), 1..12),
            ) {
                let mut s = RampUpState::new(inputs, floor, ceiling, pool);
                prop_assert!(s.audit().is_ok(), "{:?}", s.audit());
                for window in &demand {
                    for (i, &want) in window.iter().enumerate().take(inputs) {
                        let mut sent = 0;
                        while sent < want && s.may_send(i) {
                            s.on_send(i);
                            sent += 1;
                        }
                    }
                    prop_assert!(s.audit().is_ok(), "{:?}", s.audit());
                    s.rollover();
                    prop_assert!(s.audit().is_ok(), "{:?}", s.audit());
                    let total: u64 =
                        s.allocations().iter().map(|&a| u64::from(a)).sum();
                    prop_assert!(total <= u64::from(pool) + inputs as u64);
                }
            }

            /// Under constant saturating demand from a single input the
            /// halve/double ramp converges to a band around
            /// `min(ceiling, pool)`: the allocation never exceeds it and
            /// never falls below half of it once warmed up.
            #[test]
            fn saturating_demand_converges_to_the_pool_band(
                pool in 1u32..128,
                floor in 1u32..8,
                ceiling in 8u32..256,
            ) {
                let mut s = RampUpState::new(1, floor, ceiling, pool);
                let target = ceiling.min(pool);
                for _ in 0..32 {
                    while s.may_send(0) {
                        s.on_send(0);
                    }
                    s.rollover();
                }
                // Warmed up: every subsequent window stays in the band.
                for _ in 0..8 {
                    let alloc = s.allocations()[0];
                    prop_assert!(alloc <= target,
                        "alloc {alloc} above target {target}");
                    prop_assert!(alloc * 2 >= target,
                        "alloc {alloc} below half of target {target}");
                    while s.may_send(0) {
                        s.on_send(0);
                    }
                    s.rollover();
                }
            }

            /// An input that goes idle decays geometrically back to the
            /// floor — the ramp never camps on an allocation forever.
            #[test]
            fn idle_input_decays_to_the_floor(
                pool in 8u32..128,
                floor in 1u32..8,
            ) {
                let mut s = RampUpState::new(1, floor, 1024, pool);
                for _ in 0..10 {
                    while s.may_send(0) {
                        s.on_send(0);
                    }
                    s.rollover();
                }
                // ceiling=1024 needs at most log2(1024)=10 halvings.
                for _ in 0..11 {
                    s.rollover();
                }
                prop_assert_eq!(s.allocations()[0], floor.min(pool).max(1));
            }
        }
    }
}
