//! Pieces every workload shares: the FabreX-like calibration, the
//! per-iteration [`Sample`], the [`Instr`] knobs of traced and perturbed
//! runs, and the timed execution of a [`ShardedEngine`].

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::endpoint::{Endpoint, PipelinedMemory};
use fcc_fabric::routing::RoutingTable;
use fcc_fabric::sharded::ShardedFabric;
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline, SwitchConfig};
use fcc_fabric::topology::TopologySpec;
use fcc_proto::addr::NodeId;
use fcc_proto::phys::PhysConfig;
use fcc_sim::{Engine, ShardedEngine, SimTime};
use fcc_telemetry::{MetricsRegistry, TraceSink};

use crate::timing::{Clock, ProbedEndpoint};

/// The E3 FabreX-like switch and adapter calibration the three pod-scale
/// scenarios share (`crates/bench/src/exp_e3.rs`, `fabrex_spec`).
pub fn fabrex_spec(queueing: QueueDiscipline) -> TopologySpec {
    TopologySpec {
        switch: SwitchConfig {
            phys: PhysConfig::omega_like(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing,
            allocation: AllocPolicy::Fair,
            ..SwitchConfig::fabrex_like()
        },
        fha_outstanding: 64,
        ..TopologySpec::default()
    }
}

/// The E3 FPGA-card-like memory device (`fabrex_device`), wrapped in the
/// run's endpoint probe when timing or a spin delay is on.
pub fn fabrex_device(instr: &Instr) -> Box<dyn Endpoint> {
    let dev = Box::new(
        PipelinedMemory::new(
            SimTime::from_ns(200.0),
            SimTime::from_ns(220.0),
            SimTime::from_ns(40.0),
            1 << 30,
        )
        .with_gap_per_byte(0.06),
    );
    ProbedEndpoint::wrap(dev, instr.clock(&instr.endpoint), instr.spin_ns)
}

/// How one iteration is instrumented.
#[derive(Default)]
pub struct Instr {
    /// Dispatch rings on every shard and timing decorators on devices
    /// and load components.
    pub traced: bool,
    /// Host nanoseconds every device `service` call spins (sensitivity
    /// check; 0 = off).
    pub spin_ns: u64,
    /// Build the workload and return before the first event (extra
    /// set-up samples).
    pub setup_only: bool,
    /// Stop every shard at this simulated time instead of running to
    /// quiescence (a deliberately truncated run).
    pub truncate: Option<SimTime>,
    /// Exact ring sizes per mode and shard, from an untraced iteration.
    pub ring_sizes: Vec<Vec<u64>>,
    /// Host time inside `Endpoint::service`.
    pub endpoint: Clock,
    /// Host time inside load-generator deliveries.
    pub loadgen: Clock,
}

impl Instr {
    /// `clock` when the run is traced, `None` otherwise.
    pub fn clock(&self, clock: &Clock) -> Option<Clock> {
        self.traced.then(|| clock.clone())
    }
}

/// Dispatch counts read back from the shards' trace rings.
#[derive(Default, Clone)]
pub struct RingStats {
    /// Dispatches per component kind (see [`component_kind`]).
    pub by_kind: BTreeMap<&'static str, u64>,
    /// Dispatches per payload type name.
    pub by_payload: BTreeMap<&'static str, u64>,
    /// Dispatch timestamps (ps) of the busiest shard's first mode, in
    /// dispatch order, for the calendar-queue replay.
    pub timestamps: Vec<u64>,
}

/// One workload iteration's measurements and deterministic outputs.
#[derive(Default)]
pub struct Sample {
    /// Host seconds from the first builder call to the first event.
    pub setup_s: f64,
    pub plan_s: f64,
    pub instantiate_s: f64,
    pub install_s: f64,
    /// Host seconds from the end of set-up to the final results.
    pub wall_s: f64,
    /// Host seconds inside `ShardedEngine::run`.
    pub run_s: f64,
    pub events: u64,
    pub audit_s: f64,
    pub deadlock_scan_s: f64,
    pub export_s: f64,
    /// Host seconds spent reading trace rings back (traced runs only;
    /// the benchmark's own cost, taken out of `wall_s`).
    pub ring_read_s: f64,
    pub trace_bytes: u64,
    /// Operations issued and completed (writes, KV requests, or tenant
    /// ops, by workload).
    pub ops_issued: u64,
    pub ops_completed: u64,
    pub admitted: u64,
    pub deferred: u64,
    pub serve_requests: u64,
    /// Events per shard, one row per mode.
    pub shard_events: Vec<Vec<u64>>,
    /// Deterministic outputs, compared against the stored reference.
    pub outputs: Vec<(&'static str, String)>,
    pub ring: RingStats,
    /// A live routing table and the nodes it routes, for the lookup
    /// microbenchmark.
    pub routes: Option<(RoutingTable, Vec<NodeId>)>,
}

impl Sample {
    pub fn output(&mut self, name: &'static str, value: impl ToString) {
        self.outputs.push((name, value.to_string()));
    }
}

/// Component kind from a registered name, as the builders name them.
pub fn component_kind(name: &str) -> &'static str {
    let digit_after = |p: &str| {
        name.strip_prefix(p)
            .is_some_and(|r| r.starts_with(|c: char| c.is_ascii_digit()))
    };
    if name.contains(".gw") {
        "gateway"
    } else if digit_after("fs") {
        "switch"
    } else if digit_after("fha") {
        "fha"
    } else if digit_after("fea") {
        "fea"
    } else if name.starts_with("load-") {
        "loadgen"
    } else if name.starts_with("client-") || name.starts_with("kv-") {
        "serve"
    } else if ["mig-", "etrans-", "faa-"]
        .iter()
        .any(|p| name.starts_with(p))
    {
        "core"
    } else if name.starts_with("nic-") {
        "nic"
    } else {
        "other"
    }
}

/// Short payload name: the last path segment, generics dropped.
pub fn payload_name(type_name: &str) -> &str {
    let base = type_name.split('<').next().unwrap_or(type_name);
    base.rsplit("::").next().unwrap_or(base)
}

/// Runs `sharded` to quiescence on `workers` threads (or to the
/// truncation point), timing the run and, when traced, reading every
/// dispatch back out of exactly-sized rings into `sample.ring`.
pub fn run_sharded(
    sharded: &mut ShardedEngine,
    workers: usize,
    instr: &Instr,
    sample: &mut Sample,
) {
    let mode = sample.shard_events.len();
    let k = sharded.shard_count();
    if instr.traced {
        for d in 0..k {
            let size = instr.ring_sizes.get(mode).and_then(|r| r.get(d)).copied();
            let size = size.expect("traced iteration needs ring sizes from an untraced one");
            sharded.engine_mut(d).enable_trace(size.max(1) as usize);
        }
    }
    let started = Instant::now();
    match instr.truncate {
        Some(deadline) => {
            for d in 0..k {
                sharded.engine_mut(d).run_until(deadline);
            }
        }
        None => sharded.run(workers),
    }
    sample.run_s += started.elapsed().as_secs_f64();
    sample.events += sharded.total_events();
    let per_shard: Vec<u64> = (0..k)
        .map(|d| sharded.engine(d).events_dispatched())
        .collect();
    if instr.traced {
        let read = Instant::now();
        let busiest = (0..k).max_by_key(|&d| per_shard[d]).unwrap_or(0);
        for (d, &dispatched) in per_shard.iter().enumerate() {
            let engine = sharded.engine(d);
            let mut seen = 0u64;
            for entry in engine.trace() {
                seen += 1;
                *sample
                    .ring
                    .by_kind
                    .entry(component_kind(engine.trace_target_name(entry)))
                    .or_default() += 1;
                *sample.ring.by_payload.entry(entry.payload).or_default() += 1;
                if mode == 0 && d == busiest {
                    sample.ring.timestamps.push(entry.at.as_ps());
                }
            }
            assert_eq!(seen, dispatched, "shard {d}: dispatch ring lost entries");
        }
        sample.ring_read_s += read.elapsed().as_secs_f64();
    }
    sample.shard_events.push(per_shard);
}

/// Domain 0's first switch's live routing table, and every endpoint
/// node of the fabric it routes to.
pub fn route_probe(engine: &Engine, fabric: &ShardedFabric) -> (RoutingTable, Vec<NodeId>) {
    let sw = engine.component::<FabricSwitch>(fabric.domains[0].switches[0]);
    let nodes = fabric
        .all_hosts()
        .map(|(_, h)| h.node)
        .chain(fabric.all_devices().map(|(_, d)| d.node))
        .collect();
    (sw.routing.clone(), nodes)
}

/// For a workload that records no telemetry: times rendering its empty
/// trace and metrics, so the export layer reads as measured everywhere.
pub fn export_empty(sample: &mut Sample) {
    let trace = timed(&mut sample.export_s, || {
        let trace = TraceSink::disabled().to_chrome_json();
        black_box(MetricsRegistry::new().to_json());
        trace
    });
    sample.trace_bytes = trace.len() as u64;
}

/// Times `f` into `acc` and returns its result.
pub fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *acc += started.elapsed().as_secs_f64();
    out
}
