//! Layer microbenchmarks, timed from outside through each crate's public
//! functions. Every one repeats a fixed amount of work [`REPS`] times and
//! keeps the best repetition: interference from other work on the host
//! only ever adds time. [`Micro`] runs them once after each traced
//! repetition and keeps the best over the whole run, so a slow spell of
//! the host does not set the figure.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fcc_fabric::routing::RoutingTable;
use fcc_fabric::wormhole::{VcConfig, VcLink};
use fcc_proto::addr::NodeId;
use fcc_proto::channel::{MemOpcode, Transaction, TransactionKind};
use fcc_proto::flit::{Flit, FlitMode, FlitPayload};
use fcc_sim::calendar::{CalEntry, CalendarQueue};
use fcc_sim::SimTime;
use fcc_telemetry::SloAccountant;

use crate::common::Sample;

const REPS: usize = 3;

/// Best host nanoseconds of one unit of work: `f` performs `units` units
/// per call.
fn best_ns(units: u64, mut f: impl FnMut()) -> f64 {
    (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / units.max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Best value of each microbenchmark so far, by metric name.
#[derive(Default)]
pub struct Micro(BTreeMap<&'static str, f64>);

impl Micro {
    /// Runs every microbenchmark once on `sample`'s recorded timestamps
    /// and routing table.
    pub fn measure(&mut self, sample: &Sample) {
        let (table, nodes) = sample
            .routes
            .as_ref()
            .expect("workload exposes a routing table");
        let runs = [
            (
                "sim.calendar.ns_per_op",
                calendar_ns_per_op(&sample.ring.timestamps),
            ),
            ("fabric.vc.ns_per_worm", vc_ns_per_worm()),
            (
                "fabric.route.ns_per_lookup",
                route_ns_per_lookup(table, nodes),
            ),
            ("proto.crc.ns_per_flit", crc_ns_per_flit()),
            ("sched.partition.us_per_window", partition_us_per_window()),
            ("telemetry.slo.ns_per_record", slo_ns_per_record()),
        ];
        for (name, value) in runs {
            let best = self.0.entry(name).or_insert(f64::INFINITY);
            *best = best.min(value);
        }
    }

    /// The best values, by metric name.
    pub fn best(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.0.iter().map(|(&k, &v)| (k, v))
    }
}

/// `CalendarQueue` push+pop pairs replaying recorded dispatch timestamps
/// as a hold model: the queue keeps `depth` pending events, and each
/// dispatch pops the earliest and schedules the next recorded one. One
/// queue serves every repetition (each replays the timestamps shifted
/// past the previous one, as the queue only moves forward), so its
/// buffers are allocated before the clock starts.
fn calendar_ns_per_op(timestamps: &[u64]) -> f64 {
    let n = timestamps.len();
    let depth = 512.min(n / 2).max(1);
    let span = timestamps.last().copied().unwrap_or(0) + 1;
    let mut q = CalendarQueue::new();
    let mut best = f64::INFINITY;
    for rep in 0..=REPS as u64 {
        let entry = |i: usize| CalEntry {
            time: timestamps[i] + rep * span,
            seq: rep * n as u64 + i as u64,
            id: i as u32,
        };
        for i in 0..depth {
            q.push(entry(i));
        }
        let t = Instant::now();
        for i in depth..n {
            black_box(q.pop());
            q.push(entry(i));
        }
        let ns = t.elapsed().as_nanos() as f64 / (n - depth).max(1) as f64;
        while q.pop().is_some() {}
        // Repetition 0 warms the queue's buffers.
        if rep > 0 {
            best = best.min(ns);
        }
    }
    best
}

/// `VcLink` allocate, 17 consumes, release, and refunds: one worm of a
/// 1 KiB write (a header and 16 data flits) crossing one VC link.
fn vc_ns_per_worm() -> f64 {
    const WORMS: u64 = 50_000;
    let cfg = VcConfig::default();
    best_ns(WORMS, || {
        let mut link = VcLink::new(cfg);
        for worm in 0..WORMS {
            let vc = link.allocate(worm, worm % 2 == 0).unwrap_or(0);
            for _ in 0..17 {
                if !link.can_send(vc) {
                    link.refund(vc, cfg.buf_flits);
                }
                link.consume(vc, worm);
            }
            link.release(vc);
            let held = cfg.buf_flits - link.lanes[vc as usize].credits;
            link.refund(vc, held);
        }
        black_box(link.violations);
    })
}

/// `RoutingTable::route` over every endpoint node, on a switch's live
/// table.
fn route_ns_per_lookup(table: &RoutingTable, nodes: &[NodeId]) -> f64 {
    const ROUNDS: usize = 2_000;
    best_ns((ROUNDS * nodes.len()) as u64, || {
        for _ in 0..ROUNDS {
            for &n in nodes {
                black_box(table.route(black_box(n)));
            }
        }
    })
}

/// `Flit::new` (CRC over the structural encoding) for the flits of 1 KiB
/// writes: one header flit and 16 data flits each.
fn crc_ns_per_flit() -> f64 {
    const WRITES: u64 = 10_000;
    let (src, dst) = (NodeId(3), NodeId(200));
    best_ns(WRITES * 17, || {
        for id in 0..WRITES {
            let header = FlitPayload::Transaction(Transaction {
                id,
                kind: TransactionKind::Mem(MemOpcode::MemWr),
                addr: 0x1_0000_0000 + id * 1024,
                bytes: 1024,
                src,
                dst,
            });
            black_box(Flit::new(id * 17, FlitMode::Flit68, header));
            for slot in 0..16 {
                let data = FlitPayload::Data {
                    txn_id: id,
                    slot,
                    src,
                    dst,
                };
                black_box(Flit::new(
                    id * 17 + 1 + u64::from(slot),
                    FlitMode::Flit68,
                    data,
                ));
            }
        }
    })
}

/// `CreditPartition` windows at the 72-tenant serving partition: half the
/// tenants (rotating) demand credits, then the window rolls over and the
/// allocations are recomputed.
fn partition_us_per_window() -> f64 {
    const WINDOWS: u64 = 2_000;
    let base = crate::serve_diurnal::pod_partition();
    let tenants: Vec<u32> = base.allocations().map(|(t, _)| t).collect();
    best_ns(WINDOWS, || {
        let mut part = base.clone();
        for w in 0..WINDOWS as usize {
            for (i, &t) in tenants.iter().enumerate() {
                if (i + w) % 2 == 0 {
                    black_box(part.try_spend(t));
                }
            }
            part.rollover();
        }
    }) / 1e3
}

/// `SloAccountant::record` over 48 tenants with spread latencies.
fn slo_ns_per_record() -> f64 {
    const RECORDS: u64 = 200_000;
    best_ns(RECORDS, || {
        let mut acc = SloAccountant::new(SimTime::from_ns(5000.0));
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..RECORDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc.record((x % 48) as u32, SimTime::from_ps(500_000 + x % 20_000_000));
        }
        black_box(acc.overall_attainment());
    })
}
