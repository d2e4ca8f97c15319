//! An indexed calendar (bucket) queue for the DES hot path.
//!
//! The engine pops events in `(time, seq)` order. A `BinaryHeap` does that
//! in `O(log n)` per operation with poor locality once the pending set
//! grows (congested scenarios hold tens of thousands of in-flight flit
//! events). A calendar queue exploits what a heap cannot: simulated time
//! only moves forward, and almost every event is scheduled a short,
//! bounded delay ahead of `now`.
//!
//! # Structure and invariants
//!
//! Time is divided into fixed-width *days* (`day = time_ps >> WIDTH_SHIFT`)
//! and the queue keeps a power-of-two ring of buckets, one day per bucket:
//!
//! * **Window invariant** — the ring only holds events whose day lies in
//!   the active window `[cur_day, cur_day + nbuckets)`. Because the window
//!   spans each ring residue exactly once, a bucket never mixes events of
//!   two different days.
//! * **Bucket order invariant** — each bucket is a singly linked chain in
//!   ascending `(time, seq)` order, threaded through one dense node array
//!   indexed by the entry's `id`. A bucket owns no storage: it is a `u32`
//!   head and a `u32` tail. A push appends at the tail in `O(1)` and walks
//!   the chain from the head only when the new entry sorts before the
//!   tail; a pop unlinks the head.
//! * **Ring before far** — events beyond the window sit in a min-heap
//!   (`far`), and every far event's day is at or past the window's end.
//!   Whenever `cur_day` advances, the far events whose day entered the
//!   window migrate into the ring, so every ring event sorts before every
//!   far event. A non-empty cursor bucket's head is therefore the queue
//!   minimum, and `peek`/`pop` read it without looking at the far heap.
//! * **Occupancy bitmap** — one bit per bucket lets the cursor skip runs
//!   of empty days with `trailing_zeros` instead of probing buckets one by
//!   one, which keeps sparse phases (a lone millisecond timer) cheap.
//!
//! The queue stores `(time, seq, id)` triples where `id` indexes the
//! engine's event slab. Ids must be unique among queued entries (the slab
//! never hands out a live slot twice); a popped id may be pushed again.
//! The node array grows to the largest id seen and is reused for the
//! queue's life, so the steady state pushes and pops without allocating.
//!
//! Determinism: pop order is exactly ascending `(time, seq)` — the same
//! total order the seed heap produced — which `tests` verify against a
//! `BinaryHeap` oracle under proptest-generated insert/pop interleavings.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One queued event reference: its full sort key plus the slab id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CalEntry {
    /// Event time in picoseconds.
    pub time: u64,
    /// Engine-assigned scheduling sequence number (unique; ties in `time`
    /// fire in scheduling order).
    pub seq: u64,
    /// Event slab index.
    pub id: u32,
}

/// Calendar-queue sizing: `1 << BUCKET_SHIFT` buckets of `1 << WIDTH_SHIFT`
/// picoseconds each. 4096 buckets × 1024 ps ≈ a 4.2 µs window, sized so
/// nanosecond-scale flit hops land one-per-bucket while only coarse timers
/// (pacing steps, failure schedules) overflow to the far heap.
const BUCKET_SHIFT: u32 = 12;
const WIDTH_SHIFT: u32 = 10;

/// Chain terminator: an empty bucket's head, a chain's last `next`.
const NIL: u32 = u32::MAX;
/// `next` of a node whose id is not in the ring or the far heap.
const IDLE: u32 = u32::MAX - 1;

/// One ring entry's key and its successor in the bucket chain.
#[derive(Clone, Copy)]
struct Node {
    time: u64,
    seq: u64,
    /// Next id in the chain, `NIL` at the tail (or while parked in the
    /// far heap), `IDLE` when the id is not queued.
    next: u32,
}

/// One bucket: the ends of its chain (`head == NIL` when empty; `tail` is
/// then stale).
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// A bucket with no chain.
const EMPTY: Chain = Chain {
    head: NIL,
    tail: NIL,
};

/// A monotone priority queue over `(time, seq)` keys.
pub struct CalendarQueue {
    /// Chain links and keys, indexed by entry id.
    nodes: Vec<Node>,
    /// The bucket ring; see module docs for the invariants.
    chains: Vec<Chain>,
    /// `nbuckets - 1`, for masking a day onto the ring.
    mask: u64,
    /// Day the cursor is parked on; no queued event is earlier.
    cur_day: u64,
    /// Entries currently in the ring.
    ring_len: usize,
    /// Min-heap of events beyond the window.
    far: BinaryHeap<Reverse<CalEntry>>,
    /// One bit per bucket: set iff the bucket is non-empty.
    occupancy: Vec<u64>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// Creates an empty queue with the cursor parked on day zero.
    pub fn new() -> Self {
        let nbuckets = 1usize << BUCKET_SHIFT;
        CalendarQueue {
            nodes: Vec::new(),
            chains: vec![EMPTY; nbuckets],
            mask: (nbuckets - 1) as u64,
            cur_day: 0,
            ring_len: 0,
            far: BinaryHeap::new(),
            occupancy: vec![0u64; nbuckets / 64],
        }
    }

    #[inline]
    fn day_of(time: u64) -> u64 {
        time >> WIDTH_SHIFT
    }

    #[inline]
    fn nbuckets(&self) -> u64 {
        self.mask + 1
    }

    #[inline]
    fn bucket_of(&self, day: u64) -> usize {
        (day & self.mask) as usize
    }

    /// Total queued entries (ring plus far heap).
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    #[inline]
    fn mark(&mut self, bucket: usize, occupied: bool) {
        let (word, bit) = (bucket / 64, bucket % 64);
        if occupied {
            self.occupancy[word] |= 1 << bit;
        } else {
            self.occupancy[word] &= !(1 << bit);
        }
    }

    /// The queued entry whose node is `id`.
    #[inline]
    fn entry(&self, id: u32) -> CalEntry {
        let n = self.nodes[id as usize];
        CalEntry {
            time: n.time,
            seq: n.seq,
            id,
        }
    }

    /// The node for `id`, growing the array to cover it.
    #[inline]
    fn node_mut(&mut self, id: u32) -> &mut Node {
        let i = id as usize;
        if i >= self.nodes.len() {
            let idle = Node {
                time: 0,
                seq: 0,
                next: IDLE,
            };
            self.nodes.resize(i + 1, idle);
        }
        &mut self.nodes[i]
    }

    /// Inserts an entry.
    ///
    /// Preconditions (the engine's scheduling contract): `entry.time` is
    /// never before the last popped time, which keeps the window invariant
    /// cheap to maintain; and `entry.id` is not currently queued, because
    /// the id names the entry's node in the chain array. Both are checked
    /// by debug assertions.
    pub fn push(&mut self, entry: CalEntry) {
        let day = Self::day_of(entry.time);
        debug_assert!(day >= self.cur_day, "scheduling into a past day");
        debug_assert!(
            self.nodes
                .get(entry.id as usize)
                .is_none_or(|n| n.next == IDLE),
            "id {} is already queued",
            entry.id
        );
        if day >= self.cur_day + self.nbuckets() {
            self.node_mut(entry.id).next = NIL;
            self.far.push(Reverse(entry));
            return;
        }
        self.link(day, entry);
    }

    /// Links `entry` into the chain of in-window `day`, keeping the chain
    /// ascending.
    fn link(&mut self, day: u64, entry: CalEntry) {
        let (id, key) = (entry.id, (entry.time, entry.seq));
        *self.node_mut(id) = Node {
            time: entry.time,
            seq: entry.seq,
            next: NIL,
        };
        let bucket = self.bucket_of(day);
        let Chain { head, tail } = self.chains[bucket];
        self.ring_len += 1;
        if head == NIL {
            self.chains[bucket] = Chain { head: id, tail: id };
            self.mark(bucket, true);
            return;
        }
        let key_of = |n: &Node| (n.time, n.seq);
        if key_of(&self.nodes[tail as usize]) < key {
            self.nodes[tail as usize].next = id;
            self.chains[bucket].tail = id;
            return;
        }
        // Sorts before the tail: walk to the first later node. The walk
        // stops at the tail at the latest, so it never leaves the chain.
        let (mut prev, mut cur) = (NIL, head);
        while key_of(&self.nodes[cur as usize]) < key {
            prev = cur;
            cur = self.nodes[cur as usize].next;
        }
        self.nodes[id as usize].next = cur;
        if prev == NIL {
            self.chains[bucket].head = id;
        } else {
            self.nodes[prev as usize].next = id;
        }
    }

    /// Removes the head of `bucket`'s (non-empty) chain.
    #[inline]
    fn unlink_head(&mut self, bucket: usize) {
        let id = self.chains[bucket].head;
        let node = &mut self.nodes[id as usize];
        let next = node.next;
        node.next = IDLE;
        self.chains[bucket].head = next;
        if next == NIL {
            self.mark(bucket, false);
        }
        self.ring_len -= 1;
    }

    /// Parks the cursor on `day` and moves far events whose day has
    /// entered the window into the ring. Every migrated day lies past the
    /// old window's end, so its bucket was emptied before the cursor got
    /// here and the entries (popped in order) append at the tail.
    fn advance(&mut self, day: u64) {
        self.cur_day = day;
        let window_end = day + self.nbuckets();
        while self
            .far
            .peek()
            .is_some_and(|Reverse(top)| Self::day_of(top.time) < window_end)
        {
            if let Some(Reverse(entry)) = self.far.pop() {
                self.link(Self::day_of(entry.time), entry);
            }
        }
    }

    /// Finds the first non-empty bucket at or after `cur_day` within the
    /// window, in day order, via the occupancy bitmap. Returns its day.
    fn next_occupied_day(&self) -> Option<u64> {
        if self.ring_len == 0 {
            return None;
        }
        let nbuckets = self.nbuckets() as usize;
        let start = self.bucket_of(self.cur_day);
        let words = self.occupancy.len();
        let (start_word, start_bit) = (start / 64, start % 64);
        // Scan the bitmap circularly from `start`; because every ring
        // event's day is within the window, circular distance from the
        // cursor equals day order. The start word is visited twice: its
        // high bits (>= start_bit) first, its low bits after the wrap.
        let to_day = |bucket: usize| {
            let dist = (bucket + nbuckets - start) % nbuckets;
            self.cur_day + dist as u64
        };
        let head = self.occupancy[start_word] & (u64::MAX << start_bit);
        if head != 0 {
            return Some(to_day(start_word * 64 + head.trailing_zeros() as usize));
        }
        for k in 1..=words {
            let wi = (start_word + k) % words;
            let mut w = self.occupancy[wi];
            if k == words {
                // Back at the start word: only the wrapped-around low bits
                // remain uninspected.
                if start_bit == 0 {
                    break;
                }
                w &= (1u64 << start_bit) - 1;
            }
            if w != 0 {
                return Some(to_day(wi * 64 + w.trailing_zeros() as usize));
            }
        }
        None
    }

    /// The minimum when the cursor's bucket is empty: the head of the next
    /// occupied day, else (ring empty) the far heap's minimum.
    fn peek_later(&self) -> Option<CalEntry> {
        match self.next_occupied_day() {
            Some(day) => Some(self.entry(self.chains[self.bucket_of(day)].head)),
            None => self.far.peek().map(|Reverse(e)| *e),
        }
    }

    /// The smallest `(time, seq)` entry, if any, without removing it.
    pub fn peek(&self) -> Option<CalEntry> {
        let head = self.chains[self.bucket_of(self.cur_day)].head;
        if head != NIL {
            return Some(self.entry(head));
        }
        self.peek_later()
    }

    /// Removes and returns the smallest `(time, seq)` entry.
    pub fn pop(&mut self) -> Option<CalEntry> {
        self.pop_until(u64::MAX)
    }

    /// Removes and returns the smallest entry if its time is at most
    /// `deadline`; otherwise leaves the queue (cursor included) untouched
    /// and returns `None`.
    ///
    /// One probe serves the engine's deadline-bounded run loop. The
    /// cursor moves only when an entry is actually removed, so a caller
    /// may still push at any time from the last popped one on.
    pub fn pop_until(&mut self, deadline: u64) -> Option<CalEntry> {
        let mut bucket = self.bucket_of(self.cur_day);
        let head = self.chains[bucket].head;
        let entry = if head != NIL {
            self.entry(head)
        } else if Self::day_of(deadline) <= self.cur_day {
            // The cursor's day is empty, so the minimum is past `deadline`.
            return None;
        } else {
            self.peek_later()?
        };
        if entry.time > deadline {
            return None;
        }
        if head == NIL {
            // Migration cannot disturb the target bucket (migrated days
            // lie past the old window's end), so its head is still `entry`.
            let day = Self::day_of(entry.time);
            self.advance(day);
            bucket = self.bucket_of(day);
            debug_assert_eq!(self.chains[bucket].head, entry.id);
        }
        self.unlink_head(bucket);
        Some(entry)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    use super::*;

    /// The seed implementation, kept as the ordering oracle: a max-heap of
    /// `Reverse` keys pops in ascending `(time, seq)` order.
    #[derive(Default)]
    struct HeapOracle {
        heap: BinaryHeap<Reverse<CalEntry>>,
    }

    impl HeapOracle {
        fn push(&mut self, e: CalEntry) {
            self.heap.push(Reverse(e));
        }

        fn pop(&mut self) -> Option<CalEntry> {
            self.heap.pop().map(|Reverse(e)| e)
        }

        fn peek(&self) -> Option<CalEntry> {
            self.heap.peek().map(|Reverse(e)| *e)
        }

        fn pop_until(&mut self, deadline: u64) -> Option<CalEntry> {
            let min = self.peek()?;
            if min.time <= deadline {
                self.pop()
            } else {
                None
            }
        }
    }

    fn entry(time: u64, seq: u64) -> CalEntry {
        CalEntry {
            time,
            seq,
            id: seq as u32,
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(entry(500, 1));
        q.push(entry(100, 2));
        q.push(entry(500, 0));
        q.push(entry(100, 3));
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|e| (e.time, e.seq))
            .collect();
        assert_eq!(order, vec![(100, 2), (100, 3), (500, 0), (500, 1)]);
    }

    #[test]
    fn far_future_events_round_trip() {
        let mut q = CalendarQueue::new();
        // Beyond the 4096-day window: a millisecond-scale timer.
        q.push(entry(1_000_000_000, 0));
        q.push(entry(10, 1));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn far_event_entering_window_sorts_before_later_ring_event() {
        let mut q = CalendarQueue::new();
        let width = 1u64 << WIDTH_SHIFT;
        let window = (1u64 << BUCKET_SHIFT) * width;
        // Event A lands just past the initial window -> far heap.
        q.push(entry(window + width, 0));
        // Drain a nearby event so the cursor advances.
        q.push(entry(width * 3, 1));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        // Event B is now inside the window but *after* A in time.
        q.push(entry(window + 2 * width, 2));
        assert_eq!(
            q.pop().map(|e| e.seq),
            Some(0),
            "far event must not be overtaken"
        );
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for (i, t) in [700u64, 3, 900_000_000, 40_000, 3].iter().enumerate() {
            q.push(entry(*t, i as u64));
        }
        while let Some(p) = q.peek() {
            assert_eq!(q.pop(), Some(p));
        }
        assert!(q.peek().is_none());
    }

    #[test]
    fn interleaved_push_pop_when_time_advances() {
        let mut q = CalendarQueue::new();
        q.push(entry(100, 0));
        assert_eq!(q.pop().map(|e| e.seq), Some(0));
        // Schedule relative to the new "now" — same day and later days.
        q.push(entry(100, 1));
        q.push(entry(105, 2));
        q.push(entry(2_000_000, 3));
        assert_eq!(q.pop().map(|e| e.seq), Some(1));
        assert_eq!(q.pop().map(|e| e.seq), Some(2));
        assert_eq!(q.pop().map(|e| e.seq), Some(3));
    }

    /// One step of an engine-like driver for the oracle test.
    #[derive(Debug, Clone)]
    enum Op {
        /// Pop the minimum.
        Pop,
        /// One-probe pop through `now + slack`.
        PopUntil { slack: u64 },
        /// Push `count` entries at `now + delay`; `count > 1` is a burst
        /// of equal timestamps that only `seq` orders.
        Push { delay: u64, count: usize },
    }

    /// Draws [`Op`]s: pops and deadline pops, and pushes whose delay
    /// falls in one of four classes (zero, within a bucket, a few buckets,
    /// beyond the window).
    struct EngineOp;

    impl Strategy for EngineOp {
        type Value = Op;

        fn generate(&self, rng: &mut TestRng) -> Op {
            let width = 1u64 << WIDTH_SHIFT;
            let window = width << BUCKET_SHIFT;
            match rng.below(9) {
                0..=2 => Op::Pop,
                3..=4 => {
                    let slack = match rng.below(3) {
                        0 => 0,
                        1 => rng.below(4 * width),
                        _ => rng.below(2 * window),
                    };
                    Op::PopUntil { slack }
                }
                _ => {
                    let delay = match rng.below(4) {
                        // Zero delay lands in the cursor's own day.
                        0 => 0,
                        1 => 1 + rng.below(width - 1),
                        2 => width + rng.below(63 * width),
                        _ => window + rng.below(999 * window),
                    };
                    let count = if rng.below(4) == 0 {
                        2 + rng.below(4) as usize
                    } else {
                        1
                    };
                    Op::Push { delay, count }
                }
            }
        }
    }

    proptest! {
        /// The calendar queue and the heap oracle agree on every pop,
        /// deadline pop and peek for arbitrary monotone interleavings
        /// (pushes never land before the last popped time, matching the
        /// engine contract). Ids are recycled LIFO like the engine's slab,
        /// so the id-indexed chains see reuse while staying unique among
        /// queued entries.
        #[test]
        fn matches_heap_oracle(ops in prop::collection::vec(EngineOp, 1..400)) {
            let mut cal = CalendarQueue::new();
            let mut oracle = HeapOracle::default();
            let (mut seq, mut now, mut fresh) = (0u64, 0u64, 0u32);
            let mut free: Vec<u32> = Vec::new();
            for op in ops {
                let popped = match op {
                    Op::Pop => {
                        let a = cal.pop();
                        prop_assert_eq!(a, oracle.pop());
                        a
                    }
                    Op::PopUntil { slack } => {
                        let a = cal.pop_until(now + slack);
                        prop_assert_eq!(a, oracle.pop_until(now + slack));
                        a
                    }
                    Op::Push { delay, count } => {
                        for _ in 0..count {
                            let id = free.pop().unwrap_or_else(|| {
                                fresh += 1;
                                fresh - 1
                            });
                            let e = CalEntry { time: now + delay, seq, id };
                            seq += 1;
                            cal.push(e);
                            oracle.push(e);
                        }
                        None
                    }
                };
                if let Some(e) = popped {
                    now = e.time;
                    free.push(e.id);
                }
                prop_assert_eq!(cal.peek(), oracle.peek());
                prop_assert_eq!(cal.len(), oracle.heap.len());
            }
            // Drain both completely.
            loop {
                let a = cal.pop();
                prop_assert_eq!(a, oracle.pop());
                if a.is_none() {
                    break;
                }
            }
            prop_assert!(cal.is_empty());
        }
    }
}
