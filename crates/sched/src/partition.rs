//! Hierarchical weighted credit partitioning with per-tenant ledgers.
//!
//! A [`CreditPartition`] divides a per-window credit pool among tenants
//! in two levels: the pool is split across tenant *groups*, then each
//! group's share is split among its members. Both levels use the same
//! deterministic division: guaranteed floors first, then the remainder
//! proportionally to weights among *active* participants (largest-
//! remainder rounding, ties broken by id), so the allocations always sum
//! to the pool exactly — conservation is an equality, not a bound.
//!
//! Idle tenants (no demand in the previous window) keep only their
//! floor; their weight drops out of the proportional split, so their
//! share is redistributed to tenants with demand. The partition is
//! therefore work-conserving while still honoring every floor: a
//! floor-holding tenant that wakes up is served its floor in the very
//! window it returns, regardless of how greedy the others are.
//!
//! This layers over the per-input [`RampUpState`] egress allocator in
//! `fcc-fabric`: the ramp governs *port* credits inside one switch,
//! while the partition governs *tenant* credits across the whole
//! admission point. Both are audited by the same ledger sweeps.
//!
//! [`RampUpState`]: https://docs.rs/fcc-fabric (crate `fcc-fabric`, module `credit`)

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Tenant identifier (matches the tenant field of eTrans attributes).
pub type TenantId = u32;

/// A tenant's configured share of a partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantShare {
    /// Scheduling group (level 1 of the hierarchy). Group weight
    /// defaults to the sum of member weights; see
    /// [`CreditPartition::set_group_weight`].
    pub group: u32,
    /// Proportional weight within the group (level 2).
    pub weight: u32,
    /// Guaranteed minimum credits per window. Treated as at least 1:
    /// every tenant must drain — a zero allocation would strand gated
    /// flits at the admission point forever.
    pub floor: u32,
}

impl TenantShare {
    /// The enforced floor: configured floor, but at least 1 credit so
    /// every tenant's gated flits can always drain.
    pub fn floor_min1(&self) -> u32 {
        self.floor.max(1)
    }
}

/// Per-tenant scheduling state and ledger.
#[derive(Debug, Clone)]
struct Tenant {
    share: TenantShare,
    /// This window's credit allocation.
    alloc: u32,
    /// High-water allocation this window: mid-window reconfiguration may
    /// cut `alloc` below what was already legally spent, so the spend
    /// bound is the largest allocation the window granted.
    grant_hw: u32,
    /// Credits spent this window.
    spent: u32,
    /// Whether the tenant demanded (spent or was denied) this window.
    demanded: bool,
    /// Whether the tenant demanded in the previous window; idle tenants
    /// keep their floor but forfeit their weighted share.
    active: bool,
    /// Cumulative credits granted over completed windows.
    granted_total: u64,
    /// Cumulative credits spent.
    spent_total: u64,
    /// Starvation probe: denials that hit a tenant before it received
    /// floor-worth of service in the window. Structurally impossible
    /// (allocations never drop below the floor); audited to stay 0.
    denied_under_floor: u64,
}

/// A hierarchical weighted credit partition over one admission point.
#[derive(Debug, Clone)]
pub struct CreditPartition {
    pool: u32,
    tenants: BTreeMap<TenantId, Tenant>,
    /// Explicit group-weight overrides (default: sum of member weights).
    group_weight: BTreeMap<u32, u32>,
    /// Credits assigned to no tenant. Zero whenever any tenant exists
    /// (work conservation); equal to the pool when the partition is
    /// empty.
    spare: u32,
    windows: u64,
    scratch: Scratch,
    /// Rebalance with the pre-linear implementation (test oracle).
    #[cfg(test)]
    reference: bool,
}

/// One participant in a weighted division.
#[derive(Debug, Clone, Copy, Default)]
struct Claim {
    weight: u64,
    floor: u32,
    active: bool,
}

/// One tenant group of the level-1 split.
#[derive(Debug, Clone, Copy, Default)]
struct GroupRow {
    id: u32,
    claim: Claim,
    /// First slot of the group's members in [`Scratch::members`].
    start: usize,
    /// Number of members.
    len: usize,
    /// Members placed so far.
    placed: usize,
}

/// Buffers [`CreditPartition::rebalance`] reuses between calls, so a
/// warm rebalance allocates nothing.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// Each tenant's group and claim, in tenant-id order.
    rows: Vec<(u32, Claim)>,
    /// Distinct groups, in group-id order.
    groups: Vec<GroupRow>,
    /// Each tenant's group index, then its slot in `members`, in
    /// tenant-id order.
    slot: Vec<usize>,
    /// Member claims grouped by group, each group's members in
    /// tenant-id order.
    members: Vec<Claim>,
    /// The split's result, parallel to `groups` and `members`.
    group_alloc: Vec<u32>,
    member_alloc: Vec<u32>,
    /// Group claims for the level-1 split.
    group_claims: Vec<Claim>,
    /// Nonzero remainders of one largest-remainder split.
    rems: Vec<(u128, usize)>,
}

/// The pool grown to cover `floors`, saturated to `u32`.
fn effective_pool(pool: u32, floors: u64) -> u32 {
    u64::from(pool).max(floors).min(u64::from(u32::MAX)) as u32
}

/// Adds to `out` the split of `total` across `claims` proportionally to
/// `weight` with largest-remainder rounding (deterministic: remainder
/// ties go to the lower index). The added amounts sum to `total`
/// exactly; zero-weight entries receive nothing. Linear: the `left`
/// winners are selected, not sorted, and the products stay in 64 bits
/// unless `total` times the weight sum does not fit.
fn largest_remainder(
    total: u32,
    claims: &[Claim],
    weight: impl Fn(&Claim) -> u64,
    out: &mut [u32],
    rems: &mut Vec<(u128, usize)>,
) {
    let sum: u128 = claims.iter().map(|c| u128::from(weight(c))).sum();
    if sum == 0 {
        if let Some(first) = out.first_mut() {
            // No eligible recipient: conserve by parking on the first
            // entry. Callers guarantee a nonzero weight exists.
            *first += total;
        }
        return;
    }
    rems.clear();
    let mut given: u32 = 0;
    let narrow = u64::try_from(sum)
        .ok()
        .filter(|s| s.checked_mul(u64::from(total)).is_some());
    for (i, c) in claims.iter().enumerate() {
        // num / sum <= total, so each share fits u32.
        let (share, rem) = match narrow {
            Some(s) => {
                let num = u64::from(total) * weight(c);
                ((num / s) as u32, u128::from(num % s))
            }
            None => {
                let num = u128::from(total) * u128::from(weight(c));
                ((num / sum) as u32, num % sum)
            }
        };
        out[i] += share;
        given += share;
        // The remainders sum to `left * sum`, each below `sum`, so more
        // than `left` of them are nonzero: zero ones never win.
        if rem > 0 {
            rems.push((rem, i));
        }
    }
    let left = (total - given) as usize;
    if left > 0 {
        rems.select_nth_unstable_by(left - 1, |a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in &rems[..left] {
            out[i] += 1;
        }
    }
}

/// Writes to `out` the division of `total` among claims: floors first,
/// the remainder by weight among active claims (or all claims when none
/// is active). If floors alone exceed `total`, the whole budget is split
/// proportionally to the floors instead. Always sums to `total` exactly.
fn divide(total: u32, claims: &[Claim], out: &mut [u32], rems: &mut Vec<(u128, usize)>) {
    let floor_sum: u64 = claims.iter().map(|c| u64::from(c.floor)).sum();
    if floor_sum >= u64::from(total) {
        out.fill(0);
        largest_remainder(total, claims, |c| u64::from(c.floor), out, rems);
        return;
    }
    for (o, c) in out.iter_mut().zip(claims) {
        *o = c.floor;
    }
    // floor_sum < total, so the subtraction fits in u32.
    let rem = total - floor_sum as u32;
    let any_active = claims.iter().any(|c| c.active);
    let eligible = |c: &Claim| c.active || !any_active;
    if claims.iter().any(|c| eligible(c) && c.weight > 0) {
        let weight = |c: &Claim| if eligible(c) { c.weight } else { 0 };
        largest_remainder(rem, claims, weight, out, rems);
    } else {
        // All eligible weights are zero: split the remainder evenly
        // among the eligible claims.
        largest_remainder(rem, claims, |c| u64::from(eligible(c)), out, rems);
    }
}

impl CreditPartition {
    /// Creates an empty partition over `pool` credits per window.
    pub fn new(pool: u32) -> Self {
        CreditPartition {
            pool,
            tenants: BTreeMap::new(),
            group_weight: BTreeMap::new(),
            spare: pool,
            windows: 0,
            scratch: Scratch::default(),
            #[cfg(test)]
            reference: false,
        }
    }

    /// The effective per-window pool: the configured pool, grown if
    /// needed so every tenant's floor is satisfiable. Allocations sum to
    /// exactly this value.
    pub fn pool(&self) -> u32 {
        let floors: u64 = self
            .tenants
            .values()
            .map(|t| u64::from(t.share.floor_min1()))
            .sum();
        // A u32 count of tenants each with a u32 floor cannot overflow
        // u64; saturate defensively for the cast back.
        effective_pool(self.pool, floors)
    }

    /// Adds (or reconfigures) a tenant and rebalances immediately. New
    /// tenants start active, so they receive a weighted share in the
    /// current window.
    pub fn add_tenant(&mut self, id: TenantId, share: TenantShare) {
        match self.tenants.get_mut(&id) {
            Some(t) => t.share = share,
            None => {
                self.tenants.insert(
                    id,
                    Tenant {
                        share,
                        alloc: 0,
                        grant_hw: 0,
                        spent: 0,
                        demanded: false,
                        active: true,
                        granted_total: 0,
                        spent_total: 0,
                        denied_under_floor: 0,
                    },
                );
            }
        }
        self.rebalance();
    }

    /// Removes a tenant, redistributing its share. Returns whether it
    /// existed.
    pub fn remove_tenant(&mut self, id: TenantId) -> bool {
        let existed = self.tenants.remove(&id).is_some();
        self.rebalance();
        existed
    }

    /// Updates a tenant's weight. Returns whether the tenant exists.
    pub fn set_weight(&mut self, id: TenantId, weight: u32) -> bool {
        let Some(t) = self.tenants.get_mut(&id) else {
            return false;
        };
        t.share.weight = weight;
        self.rebalance();
        true
    }

    /// Updates a tenant's floor. Returns whether the tenant exists.
    pub fn set_floor(&mut self, id: TenantId, floor: u32) -> bool {
        let Some(t) = self.tenants.get_mut(&id) else {
            return false;
        };
        t.share.floor = floor;
        self.rebalance();
        true
    }

    /// Overrides a group's weight in the level-1 split (default: the sum
    /// of its members' weights).
    pub fn set_group_weight(&mut self, group: u32, weight: u32) {
        self.group_weight.insert(group, weight);
        self.rebalance();
    }

    /// Number of tenants.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the partition has no tenants.
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// This window's allocation for `id`.
    pub fn alloc(&self, id: TenantId) -> Option<u32> {
        self.tenants.get(&id).map(|t| t.alloc)
    }

    /// Credits `id` has spent this window.
    pub fn spent(&self, id: TenantId) -> Option<u32> {
        self.tenants.get(&id).map(|t| t.spent)
    }

    /// Cumulative credits granted to `id` over completed windows.
    pub fn granted_total(&self, id: TenantId) -> Option<u64> {
        self.tenants.get(&id).map(|t| t.granted_total)
    }

    /// Cumulative credits spent by `id`.
    pub fn spent_total(&self, id: TenantId) -> Option<u64> {
        self.tenants.get(&id).map(|t| t.spent_total)
    }

    /// Per-tenant allocations, in tenant-id order.
    pub fn allocations(&self) -> impl Iterator<Item = (TenantId, u32)> + '_ {
        self.tenants.iter().map(|(&id, t)| (id, t.alloc))
    }

    /// Credits currently assigned to no tenant (nonzero only when the
    /// partition is empty).
    pub fn spare(&self) -> u32 {
        self.spare
    }

    /// Completed windows.
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Whether `id` could spend a credit right now. Unknown tenants are
    /// ungoverned and always pass.
    pub fn may_spend(&self, id: TenantId) -> bool {
        self.tenants.get(&id).is_none_or(|t| t.spent < t.alloc)
    }

    /// Attempts to spend one credit for `id`, recording demand either
    /// way. Returns whether the spend was admitted. Unknown tenants are
    /// ungoverned and always pass.
    pub fn try_spend(&mut self, id: TenantId) -> bool {
        let Some(t) = self.tenants.get_mut(&id) else {
            return true;
        };
        t.demanded = true;
        if t.spent < t.alloc {
            t.spent += 1;
            t.spent_total += 1;
            true
        } else {
            if t.spent < t.share.floor_min1() {
                t.denied_under_floor += 1;
            }
            false
        }
    }

    /// Closes the window: settles each tenant's ledger, promotes this
    /// window's demand to next window's activity, and recomputes the
    /// allocations.
    pub fn rollover(&mut self) {
        for t in self.tenants.values_mut() {
            t.granted_total += u64::from(t.grant_hw);
            t.active = t.demanded;
            t.demanded = false;
            t.spent = 0;
            t.grant_hw = 0;
        }
        self.windows += 1;
        self.rebalance();
    }

    /// Recomputes every allocation from the current shares and activity,
    /// in O(tenants · log groups) time and, once the scratch buffers
    /// have grown, with no allocation.
    fn rebalance(&mut self) {
        #[cfg(test)]
        if self.reference {
            return self.rebalance_reference();
        }
        let s = &mut self.scratch;
        // One pass over the tenants: flat rows and the floor sum.
        s.rows.clear();
        let mut floors: u64 = 0;
        for t in self.tenants.values() {
            let floor = t.share.floor_min1();
            floors += u64::from(floor);
            let claim = Claim {
                weight: u64::from(t.share.weight),
                floor,
                active: t.active,
            };
            s.rows.push((t.share.group, claim));
        }
        let ep = effective_pool(self.pool, floors);
        if s.rows.is_empty() {
            self.spare = ep;
            return;
        }
        // Level 1: aggregate per group, in group-id order.
        s.groups.clear();
        for &(gid, _) in &s.rows {
            if let Err(k) = s.groups.binary_search_by_key(&gid, |g| g.id) {
                let row = GroupRow {
                    id: gid,
                    ..GroupRow::default()
                };
                s.groups.insert(k, row);
            }
        }
        s.slot.clear();
        for &(gid, c) in &s.rows {
            let k = s.groups.partition_point(|g| g.id < gid);
            let g = &mut s.groups[k];
            g.claim.weight += c.weight;
            g.claim.floor = g.claim.floor.saturating_add(c.floor);
            g.claim.active |= c.active;
            g.len += 1;
            s.slot.push(k);
        }
        let mut start = 0;
        s.group_claims.clear();
        for g in &mut s.groups {
            g.start = start;
            start += g.len;
            if let Some(&w) = self.group_weight.get(&g.id) {
                g.claim.weight = u64::from(w);
            }
            s.group_claims.push(g.claim);
        }
        // Members laid out group by group, each in tenant-id order.
        s.members.clear();
        s.members.resize(s.rows.len(), Claim::default());
        for (slot, &(_, c)) in s.slot.iter_mut().zip(&s.rows) {
            let g = &mut s.groups[*slot];
            *slot = g.start + g.placed;
            g.placed += 1;
            s.members[*slot] = c;
        }
        s.group_alloc.clear();
        s.group_alloc.resize(s.groups.len(), 0);
        divide(ep, &s.group_claims, &mut s.group_alloc, &mut s.rems);
        // Level 2: split each group's share among its members.
        s.member_alloc.clear();
        s.member_alloc.resize(s.members.len(), 0);
        for (g, &share) in s.groups.iter().zip(&s.group_alloc) {
            let range = g.start..g.start + g.len;
            divide(
                share,
                &s.members[range.clone()],
                &mut s.member_alloc[range],
                &mut s.rems,
            );
        }
        for (t, &slot) in self.tenants.values_mut().zip(&s.slot) {
            let a = s.member_alloc[slot];
            t.alloc = a;
            t.grant_hw = t.grant_hw.max(a);
        }
        self.spare = 0;
    }

    /// Audits the partition's isolation invariants:
    ///
    /// 1. **Conservation**: per-tenant allocations plus spare equal the
    ///    effective pool exactly.
    /// 2. **Containment**: no tenant's spend exceeds the largest
    ///    allocation it held this window.
    /// 3. **Floors**: every tenant's allocation is at least its floor.
    /// 4. **No starvation**: no tenant was ever denied before receiving
    ///    floor-worth of service in a window.
    pub fn audit(&self) -> Result<(), String> {
        let ep = u64::from(self.pool());
        let total: u64 = self
            .tenants
            .values()
            .map(|t| u64::from(t.alloc))
            .sum::<u64>()
            + u64::from(self.spare);
        if total != ep {
            return Err(format!(
                "conservation: allocations+spare {total} != pool {ep}"
            ));
        }
        for (id, t) in &self.tenants {
            if t.spent > t.grant_hw.max(t.alloc) {
                return Err(format!(
                    "tenant {id}: spent {} past its partition {}",
                    t.spent,
                    t.grant_hw.max(t.alloc)
                ));
            }
            if t.alloc < t.share.floor_min1() {
                return Err(format!(
                    "tenant {id}: allocation {} below floor {}",
                    t.alloc,
                    t.share.floor_min1()
                ));
            }
            if t.denied_under_floor > 0 {
                return Err(format!(
                    "tenant {id}: denied {} time(s) under its floor",
                    t.denied_under_floor
                ));
            }
        }
        Ok(())
    }
}

/// The partition's rebalance as it was before the linear rewrite, kept
/// verbatim as the oracle the property tests compare against.
#[cfg(test)]
mod reference {
    use std::collections::BTreeMap;

    use super::{Claim, CreditPartition, TenantId};

    /// Splits `total` across `weights` proportionally with largest-remainder
    /// rounding (deterministic: remainder ties go to the lower index). The
    /// result sums to `total` exactly; zero-weight entries receive nothing.
    fn largest_remainder(total: u32, weights: &[u64]) -> Vec<u32> {
        let mut out = vec![0u32; weights.len()];
        let sum: u128 = weights.iter().map(|&w| u128::from(w)).sum();
        if sum == 0 {
            if let Some(first) = out.first_mut() {
                // No eligible recipient: conserve by parking on the first
                // entry. Callers guarantee a nonzero weight exists.
                *first = total;
            }
            return out;
        }
        let mut given: u32 = 0;
        let mut rems: Vec<(u128, usize)> = Vec::with_capacity(weights.len());
        for (i, &w) in weights.iter().enumerate() {
            let num = u128::from(total) * u128::from(w);
            // num / sum <= total, so the cast back to u32 is exact.
            out[i] = (num / sum) as u32;
            given += out[i];
            rems.push((num % sum, i));
        }
        rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut left = total - given;
        for &(_, i) in &rems {
            if left == 0 {
                break;
            }
            out[i] += 1;
            left -= 1;
        }
        out
    }

    /// Divides `total` among claims: floors first, the remainder by weight
    /// among active claims (or all claims when none is active). If floors
    /// alone exceed `total`, the whole budget is split proportionally to the
    /// floors instead. Always sums to `total` exactly.
    fn divide(total: u32, claims: &[Claim]) -> Vec<u32> {
        if claims.is_empty() {
            return Vec::new();
        }
        let floor_sum: u64 = claims.iter().map(|c| u64::from(c.floor)).sum();
        if floor_sum >= u64::from(total) {
            let floors: Vec<u64> = claims.iter().map(|c| u64::from(c.floor)).collect();
            return largest_remainder(total, &floors);
        }
        let mut out: Vec<u32> = claims.iter().map(|c| c.floor).collect();
        // floor_sum < total, so the subtraction fits in u32.
        let rem = total - floor_sum as u32;
        let any_active = claims.iter().any(|c| c.active);
        let mut weights: Vec<u64> = claims
            .iter()
            .map(|c| if c.active || !any_active { c.weight } else { 0 })
            .collect();
        if weights.iter().sum::<u64>() == 0 {
            // All eligible weights are zero: split the remainder evenly
            // among the eligible claims.
            for (w, c) in weights.iter_mut().zip(claims) {
                if c.active || !any_active {
                    *w = 1;
                }
            }
        }
        for (o, extra) in out.iter_mut().zip(largest_remainder(rem, &weights)) {
            *o += extra;
        }
        out
    }

    impl CreditPartition {
        /// The pre-linear rebalance, verbatim.
        pub(super) fn rebalance_reference(&mut self) {
            let ep = self.pool();
            if self.tenants.is_empty() {
                self.spare = ep;
                return;
            }
            // Level 1: aggregate per group, in group-id order.
            struct Group {
                weight_sum: u64,
                floor_sum: u64,
                active: bool,
                members: Vec<TenantId>,
            }
            let mut groups: BTreeMap<u32, Group> = BTreeMap::new();
            for (&id, t) in &self.tenants {
                let g = groups.entry(t.share.group).or_insert(Group {
                    weight_sum: 0,
                    floor_sum: 0,
                    active: false,
                    members: Vec::new(),
                });
                g.weight_sum += u64::from(t.share.weight);
                g.floor_sum += u64::from(t.share.floor_min1());
                g.active |= t.active;
                g.members.push(id);
            }
            let group_claims: Vec<Claim> = groups
                .iter()
                .map(|(gid, g)| Claim {
                    weight: self
                        .group_weight
                        .get(gid)
                        .map_or(g.weight_sum, |&w| u64::from(w)),
                    // Group floors fit u32: they are bounded by the
                    // effective pool computed from the same floors.
                    floor: g.floor_sum.min(u64::from(u32::MAX)) as u32,
                    active: g.active,
                })
                .collect();
            let group_alloc = divide(ep, &group_claims);
            // Level 2: split each group's share among its members.
            for (g, gshare) in groups.values().zip(group_alloc) {
                let claims: Vec<Claim> = g
                    .members
                    .iter()
                    .map(|id| {
                        let t = &self.tenants[id];
                        Claim {
                            weight: u64::from(t.share.weight),
                            floor: t.share.floor_min1(),
                            active: t.active,
                        }
                    })
                    .collect();
                for (id, a) in g.members.iter().zip(divide(gshare, &claims)) {
                    // members came from the same map; the entry exists.
                    if let Some(t) = self.tenants.get_mut(id) {
                        t.alloc = a;
                        t.grant_hw = t.grant_hw.max(a);
                    }
                }
            }
            self.spare = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn share(group: u32, weight: u32, floor: u32) -> TenantShare {
        TenantShare {
            group,
            weight,
            floor,
        }
    }

    #[test]
    fn allocations_sum_to_pool_exactly() {
        let mut p = CreditPartition::new(100);
        p.add_tenant(1, share(0, 3, 0));
        p.add_tenant(2, share(0, 7, 0));
        p.add_tenant(3, share(1, 1, 5));
        let total: u32 = p.allocations().map(|(_, a)| a).sum();
        assert_eq!(total, p.pool());
        assert_eq!(p.spare(), 0);
        p.audit().expect("clean");
    }

    #[test]
    fn weights_divide_proportionally_within_a_group() {
        let mut p = CreditPartition::new(100);
        p.add_tenant(1, share(0, 1, 0));
        p.add_tenant(2, share(0, 3, 0));
        let a1 = p.alloc(1).unwrap_or(0);
        let a2 = p.alloc(2).unwrap_or(0);
        assert_eq!(a1 + a2, 100);
        assert!(a2 > 2 * a1, "weight 3 vs 1: got {a1} / {a2}");
    }

    #[test]
    fn group_weights_partition_level_one() {
        let mut p = CreditPartition::new(120);
        p.add_tenant(1, share(0, 1, 0));
        p.add_tenant(2, share(1, 1, 0));
        p.set_group_weight(0, 2);
        p.set_group_weight(1, 1);
        assert_eq!(p.alloc(1), Some(80));
        assert_eq!(p.alloc(2), Some(40));
    }

    #[test]
    fn floors_inflate_an_undersized_pool() {
        let mut p = CreditPartition::new(4);
        p.add_tenant(1, share(0, 1, 6));
        p.add_tenant(2, share(0, 1, 6));
        assert_eq!(p.pool(), 12, "pool grows to cover floors");
        assert!(p.alloc(1) >= Some(6));
        assert!(p.alloc(2) >= Some(6));
        p.audit().expect("clean");
    }

    #[test]
    fn idle_share_redistributes_but_floor_survives() {
        let mut p = CreditPartition::new(100);
        p.add_tenant(1, share(0, 1, 10)); // will go idle
        p.add_tenant(2, share(0, 1, 1)); // stays hot
                                         // Window 0: only tenant 2 demands.
        while p.try_spend(2) {}
        p.rollover();
        // Tenant 1 is now idle: floor only; the rest flows to tenant 2.
        assert_eq!(p.alloc(1), Some(10));
        assert_eq!(p.alloc(2), Some(90));
        // Tenant 1 wakes: it still gets its floor immediately.
        let mut served = 0;
        for _ in 0..100 {
            if p.try_spend(1) {
                served += 1;
            }
        }
        assert_eq!(served, 10, "floor honored in the wake-up window");
        p.audit().expect("clean");
    }

    #[test]
    fn spend_is_capped_at_the_allocation() {
        let mut p = CreditPartition::new(10);
        p.add_tenant(1, share(0, 1, 0));
        let alloc = p.alloc(1).unwrap_or(0);
        let mut served = 0;
        for _ in 0..50 {
            if p.try_spend(1) {
                served += 1;
            }
        }
        assert_eq!(served, alloc);
        assert!(!p.may_spend(1));
        p.rollover();
        assert!(p.may_spend(1), "window rollover refills");
        p.audit().expect("clean");
    }

    #[test]
    fn unknown_tenants_are_ungoverned() {
        let mut p = CreditPartition::new(1);
        p.add_tenant(1, share(0, 1, 0));
        assert!(p.may_spend(99));
        assert!(p.try_spend(99));
    }

    #[test]
    fn ledgers_accumulate_across_windows() {
        let mut p = CreditPartition::new(8);
        p.add_tenant(1, share(0, 1, 0));
        while p.try_spend(1) {}
        p.rollover();
        while p.try_spend(1) {}
        p.rollover();
        assert_eq!(p.windows(), 2);
        assert_eq!(p.granted_total(1), Some(16));
        assert_eq!(p.spent_total(1), Some(16));
    }

    #[test]
    fn empty_partition_parks_the_pool_as_spare() {
        let mut p = CreditPartition::new(7);
        assert_eq!(p.spare(), 7);
        p.audit().expect("clean");
        p.add_tenant(1, share(0, 1, 0));
        assert_eq!(p.spare(), 0);
        p.remove_tenant(1);
        assert_eq!(p.spare(), 7);
        p.audit().expect("clean");
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// An operation on the partition, generated from four small ints.
    fn apply(p: &mut CreditPartition, op: u8, id: u8, a: u8, b: u8) {
        let id = TenantId::from(id % 8);
        match op % 6 {
            0 => p.add_tenant(
                id,
                TenantShare {
                    group: u32::from(a % 3),
                    weight: u32::from(a),
                    floor: u32::from(b % 16),
                },
            ),
            1 => {
                p.remove_tenant(id);
            }
            2 => {
                p.set_weight(id, u32::from(a));
            }
            3 => {
                p.set_floor(id, u32::from(b % 16));
            }
            4 => {
                // Spend up to `a` credits (idle-redistribution feeder:
                // tenants that never land here go idle next window).
                for _ in 0..(a % 32) {
                    let _ = p.try_spend(id);
                }
            }
            _ => p.rollover(),
        }
    }

    proptest! {
        /// Conservation holds after every step of an arbitrary sequence
        /// of weight updates, tenant add/remove, spends, and rollovers:
        /// the per-tenant allocations (plus spare when empty) equal the
        /// pool exactly, spends never escape their partition, and no
        /// tenant is ever denied under its floor.
        #[test]
        fn partition_conserves_credits_under_arbitrary_ops(
            pool in 0u32..200,
            ops in prop::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u8>(), any::<u8>()),
                0..120,
            ),
        ) {
            let mut p = CreditPartition::new(pool);
            prop_assert!(p.audit().is_ok());
            for &(op, id, a, b) in &ops {
                apply(&mut p, op, id, a, b);
                let total: u64 = p.allocations().map(|(_, x)| u64::from(x)).sum::<u64>()
                    + u64::from(p.spare());
                prop_assert_eq!(total, u64::from(p.pool()));
                if let Err(e) = p.audit() {
                    prop_assert!(false, "audit failed: {}", e);
                }
            }
        }
    }

    /// A partition that rebalances with the pre-linear reference.
    fn oracle(pool: u32) -> CreditPartition {
        let mut p = CreditPartition::new(pool);
        p.reference = true;
        p
    }

    /// Whether two partitions hold the same allocation state.
    fn same_state(p: &CreditPartition, r: &CreditPartition) -> Result<(), String> {
        let state = |x: &CreditPartition| -> Vec<(TenantId, u32, u32)> {
            x.tenants
                .iter()
                .map(|(&id, t)| (id, t.alloc, t.grant_hw))
                .collect()
        };
        let (a, b) = (state(p), state(r));
        if a != b {
            return Err(format!("(id, alloc, grant_hw): {a:?} != reference {b:?}"));
        }
        if (p.spare(), p.pool()) != (r.spare(), r.pool()) {
            return Err(format!(
                "(spare, pool): {:?} != reference {:?}",
                (p.spare(), p.pool()),
                (r.spare(), r.pool())
            ));
        }
        Ok(())
    }

    /// A weight: mostly small (zero included), one in four near
    /// `u32::MAX` so products leave 64 bits.
    fn weight(x: u32) -> u32 {
        if x.is_multiple_of(4) {
            u32::MAX - (x >> 2) % 64
        } else {
            (x >> 2) % 16
        }
    }

    /// A floor: mostly small, some above a small pool, a few so large
    /// that the floors saturate the effective pool.
    fn floor(x: u32) -> u32 {
        match x % 8 {
            0 => u32::MAX / 3 + (x >> 3) % 1000,
            1 | 2 => 100 + (x >> 3) % 300,
            _ => (x >> 3) % 16,
        }
    }

    /// Applies one generated operation to a partition.
    fn apply_wide(p: &mut CreditPartition, op: u8, id: u8, a: u32, b: u32) {
        let id = TenantId::from(id % 10);
        match op % 8 {
            0 | 1 => p.add_tenant(
                id,
                TenantShare {
                    group: a % 4,
                    weight: weight(a >> 2),
                    floor: floor(b),
                },
            ),
            2 => {
                p.remove_tenant(id);
            }
            3 => {
                p.set_weight(id, weight(a));
            }
            4 => {
                p.set_floor(id, floor(b));
            }
            5 => p.set_group_weight(a % 4, weight(b)),
            6 => {
                for _ in 0..(a % 48) {
                    let _ = p.try_spend(id);
                }
            }
            _ => p.rollover(),
        }
    }

    proptest! {
        /// The linear rebalance leaves exactly the state the reference
        /// leaves after every step: each tenant's allocation and
        /// high-water grant, the spare credits and the effective pool.
        /// Weights near `u32::MAX` force the 128-bit path, floors above
        /// the pool force the floors-only split, and rollovers without
        /// spends leave whole groups idle.
        #[test]
        fn linear_rebalance_matches_the_reference(
            pool in any::<u32>(),
            ops in prop::collection::vec(
                (any::<u8>(), any::<u8>(), any::<u32>(), any::<u32>()),
                0..200,
            ),
        ) {
            let pool = match pool % 3 {
                0 => (pool >> 2) % 200,
                1 => 1024,
                _ => u32::MAX - (pool >> 2) % 1000,
            };
            let (mut p, mut r) = (CreditPartition::new(pool), oracle(pool));
            for (step, &(op, id, a, b)) in ops.iter().enumerate() {
                apply_wide(&mut p, op, id, a, b);
                apply_wide(&mut r, op, id, a, b);
                if let Err(e) = same_state(&p, &r) {
                    prop_assert!(false, "step {} (op {}): {}", step, op % 8, e);
                }
            }
        }
    }

    /// A partition shaped like the serving pod's: 8 domains of 6
    /// victims, one bulk tenant and one hog, plus 8 store tenants, in 3
    /// groups; built one tenant at a time, then run through windows in
    /// which the groups go idle and wake in turn.
    #[test]
    fn pod_shaped_partition_matches_the_reference() {
        let (mut p, mut r) = (CreditPartition::new(1024), oracle(1024));
        let mut step = |f: &dyn Fn(&mut CreditPartition)| {
            f(&mut p);
            f(&mut r);
            if let Err(e) = same_state(&p, &r) {
                panic!("{e}");
            }
        };
        for d in 0..8u32 {
            for h in 0..8u32 {
                let share = match h {
                    0..=5 => TenantShare {
                        group: 0,
                        weight: 8,
                        floor: 2,
                    },
                    6 => TenantShare {
                        group: 1,
                        weight: 2,
                        floor: 1,
                    },
                    _ => TenantShare {
                        group: 2,
                        weight: 1,
                        floor: 1,
                    },
                };
                step(&|x| x.add_tenant(d * 8 + h, share));
            }
            let store = TenantShare {
                group: 0,
                weight: 48,
                floor: 96,
            };
            step(&|x| x.add_tenant(64 + d, store));
        }
        for window in 0..12u32 {
            step(&|x| {
                for id in 0..72 {
                    let hot = match id % 8 {
                        6 => window % 3 == 0,
                        7 => window % 2 == 1,
                        _ => id >= 64 || window % 4 != 2,
                    };
                    if hot {
                        for _ in 0..(id % 7 + 1) * 5 {
                            let _ = x.try_spend(id);
                        }
                    }
                }
            });
            step(&|x| x.rollover());
        }
        step(&|x| x.set_group_weight(2, 40));
        step(&|x| {
            x.remove_tenant(7);
        });
        step(&|x| x.rollover());
    }
}
