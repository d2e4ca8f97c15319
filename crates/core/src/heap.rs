//! The unified heap manager (design principle #2).
//!
//! "FCC instantiates memory regions/segments from different fabric-attached
//! memory nodes as a series of various-sized memory bins, and then uses a
//! heap manager for object allocation and reclamation. Under the hood is a
//! runtime system that (1) profiles the object's access characteristics
//! and the underlying memory node's availability; (2) effectively migrates
//! objects across various memory nodes (including host local memory) based
//! on the object temperature, concurrent access model, and memory node
//! capabilities" (§4 DP#2).
//!
//! Costs are analytic, taken from Table 2-calibrated
//! [`MemNodeProfile`]s, which keeps the heap pure and property-testable;
//! bulk migrations are exported as a plan the elastic transaction engine
//! executes over the simulated fabric.

use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
use fcc_sim::SimTime;

/// A heap object handle — the backward-compatible "smart pointer" of the
/// paper. It stays valid across migrations; the heap resolves it to the
/// object's current node on every access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FabricBox {
    id: u64,
    size: u64,
}

impl FabricBox {
    /// Object size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }
}

/// Heap errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeapError {
    /// No node (or the hinted node) can fit the allocation.
    OutOfMemory,
    /// The handle does not name a live object.
    InvalidHandle,
    /// The node still holds live objects (offline requires an empty node).
    NodeBusy,
}

impl std::fmt::Display for HeapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HeapError::OutOfMemory => write!(f, "out of memory"),
            HeapError::InvalidHandle => write!(f, "invalid handle"),
            HeapError::NodeBusy => write!(f, "node still holds live objects"),
        }
    }
}

impl std::error::Error for HeapError {}

/// Placement preference at allocation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementHint {
    /// Let the heap choose (coldest tier with room, so hot data earns its
    /// way up through profiling).
    Auto,
    /// Prefer a specific node kind.
    Kind(MemNodeKind),
    /// Pin to a node index (no migration).
    Pinned(usize),
}

/// Configuration of one memory node contributed to the heap.
#[derive(Debug, Clone, Copy)]
pub struct HeapNodeCfg {
    /// The node's profile (kind, latencies, capacity).
    pub profile: MemNodeProfile,
}

/// Segregated-fit bins: size classes are powers of two from 64 B up.
#[derive(Debug, Default)]
struct BinAllocator {
    /// Free lists per size class (class 0 = 64 B).
    free: BTreeMap<u32, Vec<u64>>,
    bump: u64,
    capacity: u64,
}

fn size_class(size: u64) -> u32 {
    let sz = size.max(64).next_power_of_two();
    sz.trailing_zeros() - 6
}

fn class_bytes(class: u32) -> u64 {
    64 << class
}

impl BinAllocator {
    fn new(capacity: u64) -> Self {
        BinAllocator {
            free: BTreeMap::new(),
            bump: 0,
            capacity,
        }
    }

    fn alloc(&mut self, size: u64) -> Option<u64> {
        let class = size_class(size);
        if let Some(list) = self.free.get_mut(&class) {
            if let Some(addr) = list.pop() {
                return Some(addr);
            }
        }
        let bytes = class_bytes(class);
        if self.bump + bytes > self.capacity {
            return None;
        }
        let addr = self.bump;
        self.bump += bytes;
        Some(addr)
    }

    fn release(&mut self, addr: u64, size: u64) {
        self.free.entry(size_class(size)).or_default().push(addr);
    }

    fn bytes_in_use(&self) -> u64 {
        let freed: u64 = self
            .free
            .iter()
            .map(|(c, l)| class_bytes(*c) * l.len() as u64)
            .sum();
        self.bump - freed
    }
}

/// Lifecycle state of a heap node (online fabric composition). Indices
/// stay stable across the whole lifecycle: a removed node goes
/// [`NodeState::Offline`] rather than vacating its slot, so existing
/// handles and node indices never shift.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeState {
    /// Serving allocations and accesses.
    Active,
    /// Being evacuated: no new allocations, existing objects still served.
    Draining,
    /// Detached from the fabric: no allocations, no objects.
    Offline,
}

#[derive(Debug)]
struct HeapNode {
    profile: MemNodeProfile,
    bins: BinAllocator,
    state: NodeState,
}

#[derive(Debug, Clone)]
struct ObjMeta {
    size: u64,
    node: usize,
    addr: u64,
    /// Exponentially-decayed access temperature.
    temp: f64,
    /// Hosts that have touched the object (sharing detection).
    sharers: u32,
    pinned: bool,
    reads: u64,
    writes: u64,
}

/// One migration decided by [`UnifiedHeap::rebalance`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Move {
    /// The object moved.
    pub obj: FabricBox,
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
}

/// A rebalance outcome: the moves performed and their estimated cost.
#[derive(Debug, Clone, Default)]
pub struct MigrationPlan {
    /// Objects moved (already applied to heap metadata).
    pub moves: Vec<Move>,
    /// Total bytes moved.
    pub bytes: u64,
}

/// One relocation decided by [`UnifiedHeap::drain`]: like [`Move`] but
/// carrying the node-local bin addresses on both sides, so an executor
/// (the elastic composer's eTrans jobs) can turn it into fabric reads and
/// writes without reaching into heap internals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relocation {
    /// The object relocated.
    pub obj: FabricBox,
    /// Source node index (the draining node).
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Bin address on the source node.
    pub src_addr: u64,
    /// Bin address on the destination node.
    pub dst_addr: u64,
}

/// A drain outcome: relocations off the draining node (already applied to
/// heap metadata — the data movement itself is the caller's job) plus any
/// objects no target could admit.
#[derive(Debug, Clone, Default)]
pub struct EvacuationPlan {
    /// Relocations, deterministic (object-id) order.
    pub moves: Vec<Relocation>,
    /// Total bytes to move.
    pub bytes: u64,
    /// Objects left stranded on the draining node (no admissible target
    /// with room). A non-empty list means the node cannot go offline.
    pub stranded: Vec<FabricBox>,
}

/// Hashes the heap's sequential `u64` object ids with one multiply by
/// the 64-bit golden ratio: consecutive ids land in distinct buckets and
/// the high bits the table probes on are well mixed. Ids are the heap's
/// own counter, not outside input, so SipHash's flood resistance buys
/// nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0.rotate_left(8) ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The unified heap.
///
/// # Examples
///
/// ```
/// use fcc_core::heap::{HeapNodeCfg, PlacementHint, UnifiedHeap};
/// use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
///
/// let mut heap = UnifiedHeap::new(vec![
///     HeapNodeCfg {
///         profile: MemNodeProfile::omega_like(MemNodeKind::HostLocal, 1 << 20),
///     },
///     HeapNodeCfg {
///         profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 30),
///     },
/// ]);
/// let obj = heap.alloc(4096, PlacementHint::Auto).unwrap();
/// // Objects start on the cold tier and earn promotion by temperature.
/// assert_eq!(heap.node_of(obj).unwrap(), 1);
/// for _ in 0..100 {
///     heap.access(obj, 0, false).unwrap();
/// }
/// heap.rebalance();
/// assert_eq!(heap.node_of(obj).unwrap(), 0);
/// ```
pub struct UnifiedHeap {
    nodes: Vec<HeapNode>,
    // HashMap, not BTreeMap: `access()` hits this per simulated access
    // (the e5 hot path), so the lookup must stay O(1). Every iteration
    // below is order-insensitive or explicitly sorted, and each site
    // carries an fcc-lint suppression stating which.
    objects: HashMap<u64, ObjMeta, BuildHasherDefault<IdHasher>>,
    next_id: u64,
    /// Temperature decay applied at each rebalance.
    pub decay: f64,
    /// Migrations performed over the heap's lifetime.
    pub migrations: u64,
    /// Bytes moved over the heap's lifetime.
    pub bytes_migrated: u64,
}

impl UnifiedHeap {
    /// Builds a heap over the given nodes. Node order is significant:
    /// index 0 is conventionally host-local memory.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is empty.
    pub fn new(nodes: Vec<HeapNodeCfg>) -> Self {
        assert!(!nodes.is_empty(), "heap needs at least one node");
        UnifiedHeap {
            nodes: nodes
                .into_iter()
                .map(|cfg| HeapNode {
                    profile: cfg.profile,
                    bins: BinAllocator::new(cfg.profile.capacity),
                    state: NodeState::Active,
                })
                .collect(),
            objects: HashMap::default(),
            next_id: 1,
            decay: 0.5,
            migrations: 0,
            bytes_migrated: 0,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Contributes a new node to a live heap (hot-add), returning its
    /// index. The node starts [`NodeState::Active`].
    pub fn add_node(&mut self, cfg: HeapNodeCfg) -> usize {
        self.nodes.push(HeapNode {
            profile: cfg.profile,
            bins: BinAllocator::new(cfg.profile.capacity),
            state: NodeState::Active,
        });
        self.nodes.len() - 1
    }

    /// The lifecycle state of node `idx`.
    pub fn node_state(&self, idx: usize) -> NodeState {
        self.nodes[idx].state
    }

    /// Marks node `idx` draining: existing objects stay served, but the
    /// allocator and rebalancer stop targeting it. (Usually done through
    /// [`UnifiedHeap::drain`], which also plans the evacuation.)
    pub fn set_draining(&mut self, idx: usize) {
        self.nodes[idx].state = NodeState::Draining;
    }

    /// Takes an evacuated node offline. Fails with
    /// [`HeapError::NodeBusy`] while any live object remains on it.
    pub fn set_offline(&mut self, idx: usize) -> Result<(), HeapError> {
        if self.objects.values().any(|m| m.node == idx) {
            return Err(HeapError::NodeBusy);
        }
        let node = &mut self.nodes[idx];
        node.state = NodeState::Offline;
        node.bins = BinAllocator::new(node.profile.capacity);
        Ok(())
    }

    /// Returns node `idx` to service (re-add of a drained or offline
    /// node, or cancellation of a drain).
    pub fn set_online(&mut self, idx: usize) {
        self.nodes[idx].state = NodeState::Active;
    }

    /// Live objects currently resident on node `idx` (object-id order).
    pub fn objects_on(&self, idx: usize) -> Vec<FabricBox> {
        let mut v: Vec<FabricBox> = self
            // fcc-lint: allow(nondet-collection-iter) -- sorted by id on the next statement
            .objects
            .iter()
            .filter(|(_, m)| m.node == idx)
            .map(|(&id, m)| FabricBox { id, size: m.size })
            .collect();
        v.sort_by_key(|b| b.id);
        v
    }

    /// The (node, bin-address) an object currently resolves to.
    pub fn locate(&self, obj: FabricBox) -> Result<(usize, u64), HeapError> {
        self.objects
            .get(&obj.id)
            .map(|m| (m.node, m.addr))
            .ok_or(HeapError::InvalidHandle)
    }

    /// Bytes in use on a node.
    pub fn node_used(&self, idx: usize) -> u64 {
        self.nodes[idx].bins.bytes_in_use()
    }

    /// The node profile at `idx`.
    pub fn node_profile(&self, idx: usize) -> &MemNodeProfile {
        &self.nodes[idx].profile
    }

    /// Which node currently holds `obj`.
    pub fn node_of(&self, obj: FabricBox) -> Result<usize, HeapError> {
        self.objects
            .get(&obj.id)
            .map(|m| m.node)
            .ok_or(HeapError::InvalidHandle)
    }

    /// Allocates `size` bytes with a placement hint.
    pub fn alloc(&mut self, size: u64, hint: PlacementHint) -> Result<FabricBox, HeapError> {
        let ranked: Vec<usize>;
        let order: &[usize] = match hint {
            PlacementHint::Pinned(ref idx) => std::slice::from_ref(idx),
            PlacementHint::Kind(kind) => {
                let mut preferred: Vec<usize> = (0..self.nodes.len())
                    .filter(|&i| self.nodes[i].profile.kind == kind)
                    .collect();
                let rest: Vec<usize> = (0..self.nodes.len())
                    .filter(|&i| self.nodes[i].profile.kind != kind)
                    .collect();
                preferred.extend(rest);
                ranked = preferred;
                &ranked
            }
            PlacementHint::Auto => {
                // Coldest (slowest) tier first: objects earn promotion.
                let mut idx: Vec<usize> = (0..self.nodes.len()).collect();
                idx.sort_by(|&a, &b| {
                    self.nodes[b]
                        .profile
                        .read_latency
                        .cmp(&self.nodes[a].profile.read_latency)
                });
                ranked = idx;
                &ranked
            }
        };
        for &node in order {
            if node >= self.nodes.len() {
                continue;
            }
            // Draining/offline nodes take no new allocations — the first
            // step of hot-remove is exactly this refusal.
            if self.nodes[node].state != NodeState::Active {
                continue;
            }
            if let Some(addr) = self.nodes[node].bins.alloc(size) {
                let id = self.next_id;
                self.next_id += 1;
                self.objects.insert(
                    id,
                    ObjMeta {
                        size,
                        node,
                        addr,
                        temp: 0.0,
                        sharers: 0,
                        pinned: matches!(hint, PlacementHint::Pinned(_)),
                        reads: 0,
                        writes: 0,
                    },
                );
                return Ok(FabricBox { id, size });
            }
        }
        Err(HeapError::OutOfMemory)
    }

    /// Frees an object.
    pub fn free(&mut self, obj: FabricBox) -> Result<(), HeapError> {
        let meta = self
            .objects
            .remove(&obj.id)
            .ok_or(HeapError::InvalidHandle)?;
        self.nodes[meta.node].bins.release(meta.addr, meta.size);
        Ok(())
    }

    /// Performs one access by `host`, returning its modeled cost and
    /// updating the object's profile.
    pub fn access(
        &mut self,
        obj: FabricBox,
        host: u16,
        is_write: bool,
    ) -> Result<SimTime, HeapError> {
        let meta = self
            .objects
            .get_mut(&obj.id)
            .ok_or(HeapError::InvalidHandle)?;
        meta.temp += 1.0;
        meta.sharers |= 1u32 << (host % 32);
        if is_write {
            meta.writes += 1;
        } else {
            meta.reads += 1;
        }
        let shared = meta.sharers.count_ones() > 1;
        let profile = &self.nodes[meta.node].profile;
        Ok(profile.access_cost(is_write, shared))
    }

    /// Mean access cost the current placement would give the recorded mix
    /// (diagnostics for experiments).
    pub fn placement_cost(&self) -> SimTime {
        let mut total = SimTime::ZERO;
        let mut accesses = 0u64;
        // fcc-lint: allow(nondet-collection-iter) -- commutative integer accumulation
        for meta in self.objects.values() {
            let profile = &self.nodes[meta.node].profile;
            let shared = meta.sharers.count_ones() > 1;
            total += profile.access_cost(false, shared) * meta.reads
                + profile.access_cost(true, shared) * meta.writes;
            accesses += meta.reads + meta.writes;
        }
        if accesses == 0 {
            SimTime::ZERO
        } else {
            total / accesses
        }
    }

    /// Whether `node` can correctly and efficiently host an object with
    /// the observed concurrent-access pattern: shared objects cannot live
    /// in single-host local memory, and write-shared objects avoid nodes
    /// without hardware coherence (the software-fence cost would eat the
    /// latency win) — the paper's "concurrent access model and memory
    /// node capabilities".
    fn node_admits(&self, node: usize, shared: bool, write_shared: bool) -> bool {
        let kind = self.nodes[node].profile.kind;
        if shared && !kind.shareable() {
            return false;
        }
        if write_shared && !kind.hw_coherent() {
            return false;
        }
        true
    }

    /// Runs a temperature-driven migration pass: hottest objects fill the
    /// fastest tiers *they are allowed on*, respecting capacity, sharing
    /// semantics and pinning; temperatures decay.
    pub fn rebalance(&mut self) -> MigrationPlan {
        // Rank nodes fast → slow; only active nodes may receive objects.
        let mut tiers: Vec<usize> = (0..self.nodes.len())
            .filter(|&i| self.nodes[i].state == NodeState::Active)
            .collect();
        tiers.sort_by(|&a, &b| {
            self.nodes[a]
                .profile
                .read_latency
                .cmp(&self.nodes[b].profile.read_latency)
        });
        // Rank objects hot → cold (temperature density).
        let mut ranked: Vec<(u64, f64, u64, bool, bool)> = self
            // fcc-lint: allow(nondet-collection-iter) -- fully ordered by the (density, id) sort below
            .objects
            .iter()
            .filter(|(_, m)| !m.pinned)
            .map(|(&id, m)| {
                let shared = m.sharers.count_ones() > 1;
                (
                    id,
                    m.temp / m.size.max(1) as f64,
                    m.size,
                    shared,
                    shared && m.writes > 0,
                )
            })
            .collect();
        // Tie-break equal temperatures by object id so equal-heat
        // objects rank the same in every run regardless of the HashMap's
        // arbitrary iteration order above — this sort is what makes the
        // suppression sound.
        ranked.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        // Desired placement: walk hot objects into the fastest tier with
        // remaining budget.
        let mut budget: Vec<u64> = (0..self.nodes.len())
            .map(|i| self.nodes[i].profile.capacity)
            .collect();
        let mut plan = MigrationPlan::default();
        for (id, _density, size, shared, write_shared) in ranked {
            // Find the fastest admissible tier that can take it.
            let mut target = None;
            for &t in &tiers {
                if !self.node_admits(t, shared, write_shared) {
                    continue;
                }
                let need = class_bytes(size_class(size));
                if budget[t] >= need {
                    budget[t] -= need;
                    target = Some(t);
                    break;
                }
            }
            let Some(target) = target else {
                continue;
            };
            // The ranking above was built from `objects` keys.
            #[allow(clippy::expect_used)]
            let meta = self.objects.get(&id).expect("ranked from objects");
            let (from, addr, osize) = (meta.node, meta.addr, meta.size);
            if from == target {
                continue;
            }
            // Only migrate if the destination actually has room now.
            let Some(new_addr) = self.nodes[target].bins.alloc(osize) else {
                continue;
            };
            self.nodes[from].bins.release(addr, osize);
            // Looked up successfully just above.
            #[allow(clippy::expect_used)]
            let meta = self.objects.get_mut(&id).expect("present");
            meta.node = target;
            meta.addr = new_addr;
            plan.moves.push(Move {
                obj: FabricBox { id, size: osize },
                from,
                to: target,
            });
            plan.bytes += osize;
        }
        self.migrations += plan.moves.len() as u64;
        self.bytes_migrated += plan.bytes;
        // Decay temperatures so stale heat fades.
        // fcc-lint: allow(nondet-collection-iter) -- independent per-object decay, no cross-object state
        for meta in self.objects.values_mut() {
            meta.temp *= self.decay;
        }
        plan
    }

    /// Marks node `idx` draining and plans the evacuation of every live
    /// object on it into `targets` (fastest admissible active target
    /// first), applying the moves to heap metadata immediately — the data
    /// movement itself is the caller's job (eTrans). Pinned objects move
    /// too (their node is leaving) and lose their pin.
    ///
    /// Objects no target can admit are returned in
    /// [`EvacuationPlan::stranded`] and stay on the draining node.
    pub fn drain(&mut self, idx: usize, targets: &[usize]) -> EvacuationPlan {
        self.nodes[idx].state = NodeState::Draining;
        let mut order: Vec<usize> = targets
            .iter()
            .copied()
            .filter(|&t| {
                t != idx && t < self.nodes.len() && self.nodes[t].state == NodeState::Active
            })
            .collect();
        order.sort_by(|&a, &b| {
            self.nodes[a]
                .profile
                .read_latency
                .cmp(&self.nodes[b].profile.read_latency)
        });
        let mut ids: Vec<u64> = self
            // fcc-lint: allow(nondet-collection-iter) -- sorted ascending on the next statement
            .objects
            .iter()
            .filter(|(_, m)| m.node == idx)
            .map(|(&id, _)| id)
            .collect();
        ids.sort_unstable();
        let mut plan = EvacuationPlan::default();
        for id in ids {
            // Ids were just collected from `objects`.
            #[allow(clippy::expect_used)]
            let meta = self.objects.get(&id).expect("collected from objects");
            let (size, src_addr) = (meta.size, meta.addr);
            let shared = meta.sharers.count_ones() > 1;
            let write_shared = shared && meta.writes > 0;
            let mut placed = None;
            for &t in &order {
                if !self.node_admits(t, shared, write_shared) {
                    continue;
                }
                if let Some(dst_addr) = self.nodes[t].bins.alloc(size) {
                    placed = Some((t, dst_addr));
                    break;
                }
            }
            let Some((to, dst_addr)) = placed else {
                plan.stranded.push(FabricBox { id, size });
                continue;
            };
            self.nodes[idx].bins.release(src_addr, size);
            // Present: looked up above.
            #[allow(clippy::expect_used)]
            let meta = self.objects.get_mut(&id).expect("present");
            meta.node = to;
            meta.addr = dst_addr;
            meta.pinned = false;
            plan.moves.push(Relocation {
                obj: FabricBox { id, size },
                from: idx,
                to,
                src_addr,
                dst_addr,
            });
            plan.bytes += size;
        }
        self.migrations += plan.moves.len() as u64;
        self.bytes_migrated += plan.bytes;
        plan
    }

    /// Live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Whether the heap has no live objects.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    fn two_tier(local_cap: u64, remote_cap: u64) -> UnifiedHeap {
        UnifiedHeap::new(vec![
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::HostLocal, local_cap),
            },
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, remote_cap),
            },
        ])
    }

    #[test]
    fn auto_placement_starts_cold() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let b = h.alloc(1024, PlacementHint::Auto).expect("fits");
        assert_eq!(h.node_of(b).expect("live"), 1, "remote tier first");
    }

    #[test]
    fn kind_hint_respected() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let b = h
            .alloc(1024, PlacementHint::Kind(MemNodeKind::HostLocal))
            .expect("fits");
        assert_eq!(h.node_of(b).expect("live"), 0);
    }

    #[test]
    fn oom_when_everything_full() {
        let mut h = two_tier(64, 64);
        h.alloc(64, PlacementHint::Auto).expect("first fits");
        h.alloc(64, PlacementHint::Auto).expect("second fits");
        assert_eq!(
            h.alloc(64, PlacementHint::Auto).expect_err("full"),
            HeapError::OutOfMemory
        );
    }

    #[test]
    fn free_recycles_space() {
        let mut h = two_tier(64, 64);
        let a = h.alloc(64, PlacementHint::Auto).expect("fits");
        let b = h.alloc(64, PlacementHint::Auto).expect("fits");
        h.free(a).expect("live");
        let c = h.alloc(64, PlacementHint::Auto).expect("recycled");
        assert_eq!(h.len(), 2);
        h.free(b).expect("live");
        h.free(c).expect("live");
        assert!(h.is_empty());
    }

    #[test]
    fn pinned_refusals_are_out_of_memory_and_use_no_id() {
        let mut h = two_tier(1 << 20, 1 << 20);
        h.add_node(HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 20),
        });
        let first = h.alloc(64, PlacementHint::Pinned(1)).expect("fits");
        h.set_draining(1);
        h.set_offline(2).expect("empty");
        for node in [1, 2, 3, usize::MAX] {
            assert_eq!(
                h.alloc(64, PlacementHint::Pinned(node))
                    .expect_err("refused"),
                HeapError::OutOfMemory,
                "node {node}"
            );
        }
        assert_eq!(h.len(), 1);
        let next = h.alloc(64, PlacementHint::Pinned(0)).expect("fits");
        assert_eq!(next.id, first.id + 1, "refusals consumed no id");
    }

    #[test]
    fn double_free_rejected() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let a = h.alloc(64, PlacementHint::Auto).expect("fits");
        h.free(a).expect("first free");
        assert_eq!(h.free(a).expect_err("gone"), HeapError::InvalidHandle);
    }

    #[test]
    fn hot_objects_promote_to_local() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let hot = h.alloc(4096, PlacementHint::Auto).expect("fits");
        let cold = h.alloc(4096, PlacementHint::Auto).expect("fits");
        for _ in 0..100 {
            h.access(hot, 0, false).expect("live");
        }
        h.access(cold, 0, false).expect("live");
        let plan = h.rebalance();
        assert!(plan.moves.iter().any(|m| m.obj == hot && m.to == 0));
        assert_eq!(h.node_of(hot).expect("live"), 0, "hot promoted");
    }

    #[test]
    fn capacity_pressure_keeps_only_hottest_local() {
        // Local tier fits one 4 KiB object only.
        let mut h = two_tier(4096, 1 << 20);
        let a = h.alloc(4096, PlacementHint::Auto).expect("fits");
        let b = h.alloc(4096, PlacementHint::Auto).expect("fits");
        for _ in 0..100 {
            h.access(a, 0, false).expect("live");
        }
        for _ in 0..10 {
            h.access(b, 0, false).expect("live");
        }
        h.rebalance();
        assert_eq!(h.node_of(a).expect("live"), 0);
        assert_eq!(h.node_of(b).expect("live"), 1, "no room for b");
    }

    #[test]
    fn migration_lowers_placement_cost() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let objs: Vec<FabricBox> = (0..16)
            .map(|_| h.alloc(4096, PlacementHint::Auto).expect("fits"))
            .collect();
        // Skewed: object 0 gets most accesses.
        for i in 0..1000 {
            let o = objs[if i % 10 == 0 { i % 16 } else { 0 }];
            h.access(o, 0, false).expect("live");
        }
        let before = h.placement_cost();
        h.rebalance();
        let after = h.placement_cost();
        assert!(
            after < before,
            "rebalance should cut mean cost: {before} → {after}"
        );
    }

    #[test]
    fn pinned_objects_never_move() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let p = h.alloc(4096, PlacementHint::Pinned(1)).expect("fits");
        for _ in 0..1000 {
            h.access(p, 0, false).expect("live");
        }
        let plan = h.rebalance();
        assert!(plan.moves.is_empty());
        assert_eq!(h.node_of(p).expect("live"), 1);
    }

    #[test]
    fn shared_objects_never_promote_to_single_host_memory() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let shared = h.alloc(4096, PlacementHint::Auto).expect("fits");
        // Two hosts hammer it: it is the hottest object by far.
        for i in 0..1000 {
            h.access(shared, (i % 2) as u16, false).expect("live");
        }
        h.rebalance();
        // HostLocal is not shareable: the object must stay on the fabric
        // node despite its heat.
        assert_eq!(h.node_of(shared).expect("live"), 1);
    }

    #[test]
    fn write_shared_objects_require_hw_coherence() {
        let mut h = UnifiedHeap::new(vec![
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::NonCcNuma, 1 << 20),
            },
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::CcNuma, 1 << 20),
            },
        ]);
        // NonCC reads slightly faster, so a read-shared object prefers it…
        let read_shared = h.alloc(4096, PlacementHint::Pinned(1)).expect("fits");
        let mut h2 = UnifiedHeap::new(vec![
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::NonCcNuma, 1 << 20),
            },
            HeapNodeCfg {
                profile: MemNodeProfile::omega_like(MemNodeKind::CcNuma, 1 << 20),
            },
        ]);
        let write_shared = h2.alloc(4096, PlacementHint::Auto).expect("fits");
        let _ = read_shared;
        for i in 0..100 {
            h2.access(write_shared, (i % 2) as u16, true).expect("live");
        }
        h2.rebalance();
        let node = h2.node_of(write_shared).expect("live");
        assert_eq!(
            h2.node_profile(node).kind,
            MemNodeKind::CcNuma,
            "write-shared data needs hardware coherence"
        );
    }

    #[test]
    fn shared_writes_cost_more_on_coherent_nodes() {
        let mut h = UnifiedHeap::new(vec![HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CcNuma, 1 << 20),
        }]);
        let o = h.alloc(64, PlacementHint::Auto).expect("fits");
        let single = h.access(o, 0, true).expect("live");
        h.access(o, 1, false).expect("second host touches");
        let shared = h.access(o, 0, true).expect("live");
        assert!(shared > single, "{single} vs {shared}");
    }

    #[test]
    fn draining_node_refuses_new_allocations() {
        let mut h = two_tier(1 << 20, 1 << 20);
        h.set_draining(1);
        let b = h.alloc(4096, PlacementHint::Auto).expect("fits");
        assert_eq!(h.node_of(b).expect("live"), 0, "drained tier skipped");
        assert_eq!(
            h.alloc(4096, PlacementHint::Pinned(1))
                .expect_err("refused"),
            HeapError::OutOfMemory
        );
    }

    #[test]
    fn drain_relocates_everything_with_addresses() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let a = h.alloc(4096, PlacementHint::Auto).expect("fits");
        let b = h.alloc(256, PlacementHint::Pinned(1)).expect("fits");
        let plan = h.drain(1, &[0]);
        assert_eq!(plan.moves.len(), 2);
        assert!(plan.stranded.is_empty());
        assert_eq!(plan.bytes, 4096 + 256);
        for m in &plan.moves {
            assert_eq!(m.from, 1);
            assert_eq!(m.to, 0);
        }
        assert_eq!(h.node_of(a).expect("live"), 0);
        assert_eq!(h.node_of(b).expect("live"), 0, "pins don't survive drain");
        assert_eq!(h.node_state(1), NodeState::Draining);
        h.set_offline(1).expect("empty after drain");
        assert_eq!(h.node_state(1), NodeState::Offline);
    }

    #[test]
    fn drain_strands_what_no_target_admits() {
        // Target tier fits a single 4 KiB class.
        let mut h = two_tier(4096, 1 << 20);
        let a = h.alloc(4096, PlacementHint::Auto).expect("fits");
        let b = h.alloc(4096, PlacementHint::Auto).expect("fits");
        let plan = h.drain(1, &[0]);
        assert_eq!(plan.moves.len(), 1);
        assert_eq!(plan.stranded.len(), 1);
        assert_eq!(
            h.set_offline(1).expect_err("stranded object"),
            HeapError::NodeBusy
        );
        let _ = (a, b);
    }

    #[test]
    fn offline_node_rejoins_via_set_online() {
        let mut h = two_tier(1 << 20, 1 << 20);
        h.drain(1, &[0]);
        h.set_offline(1).expect("empty");
        h.set_online(1);
        let b = h.alloc(4096, PlacementHint::Auto).expect("fits");
        assert_eq!(h.node_of(b).expect("live"), 1, "rejoined cold tier");
    }

    #[test]
    fn hot_add_extends_a_live_heap() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let idx = h.add_node(HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 20),
        });
        assert_eq!(idx, 2);
        assert_eq!(h.node_state(idx), NodeState::Active);
        assert_eq!(h.node_count(), 3);
    }

    #[test]
    fn rebalance_never_targets_a_draining_node() {
        let mut h = two_tier(1 << 20, 1 << 20);
        let hot = h.alloc(4096, PlacementHint::Auto).expect("fits");
        for _ in 0..100 {
            h.access(hot, 0, false).expect("live");
        }
        h.set_draining(0);
        let plan = h.rebalance();
        assert!(plan.moves.is_empty(), "only target tier is draining");
        assert_eq!(h.node_of(hot).expect("live"), 1);
    }

    proptest! {
        /// Allocations within one node never overlap (segregated-fit
        /// soundness), across interleaved alloc/free.
        #[test]
        fn allocations_never_overlap(ops in prop::collection::vec((1u64..8192, any::<bool>()), 1..200)) {
            let mut h = two_tier(1 << 22, 1 << 22);
            let mut live: Vec<FabricBox> = Vec::new();
            for (size, do_free) in ops {
                if do_free && !live.is_empty() {
                    let b = live.swap_remove(0);
                    h.free(b).expect("tracked live");
                } else if let Ok(b) = h.alloc(size, PlacementHint::Auto) {
                    live.push(b);
                }
                // Overlap check via (node, addr) uniqueness of class spans.
                let mut spans: Vec<(usize, u64, u64)> = h
                    .objects
                    .values()
                    .map(|m| (m.node, m.addr, class_bytes(size_class(m.size))))
                    .collect();
                spans.sort();
                for w in spans.windows(2) {
                    let (n0, a0, l0) = w[0];
                    let (n1, a1, _) = w[1];
                    prop_assert!(n0 != n1 || a0 + l0 <= a1, "overlap at node {n0}");
                }
            }
        }

        /// bytes_in_use is conserved by alloc/free pairs.
        #[test]
        fn usage_conserved(sizes in prop::collection::vec(1u64..4096, 1..50)) {
            let mut h = two_tier(1 << 22, 1 << 22);
            let before: u64 = h.node_used(0) + h.node_used(1);
            let boxes: Vec<FabricBox> = sizes
                .iter()
                .map(|&s| h.alloc(s, PlacementHint::Auto).expect("fits"))
                .collect();
            for b in boxes {
                h.free(b).expect("live");
            }
            let after: u64 = h.node_used(0) + h.node_used(1);
            prop_assert_eq!(before, after);
        }
    }
}
