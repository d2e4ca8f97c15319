//! The experiment harness core: scenario registry, single-scenario
//! execution, and the serial/parallel fan-out driver.
//!
//! The `experiments` binary is a thin CLI over this module. Every
//! scenario runs against its own isolated [`fcc_sim::Engine`] and its own
//! per-scenario [`Capture`], producing a self-contained
//! [`ScenarioOutput`]: rendered text, scalar results, a wall-clock/event
//! perf sample, and (when recording) a thread-transferable trace dump
//! plus metrics registry. [`assemble`] then joins the outputs **in
//! scenario order**, so every export — human text, results JSON, Chrome
//! trace, metrics JSON — is byte-identical whether scenarios ran on one
//! thread or eight. The `experiments` binary, `bench_gate shards` and the
//! determinism tests all export through it.

use std::fmt::Write as _;
use std::time::Instant;

use fcc_telemetry::{MetricsRegistry, TraceDump, TraceSink};

use crate::capture::Capture;
use crate::runner::par_map;
use crate::{
    exp_abl, exp_e10, exp_e11, exp_e12, exp_e13, exp_e14, exp_e3, exp_e3x, exp_e4, exp_e5, exp_e6,
    exp_e7, exp_e8, exp_e9, exp_f1, exp_nodes, exp_t1, exp_t2,
};

/// Experiment registry: `(id, traced, cost, description)`.
///
/// `cost` is a relative full-run duration estimate (roughly milliseconds
/// on the reference machine) used only for longest-job-first scheduling
/// in the parallel driver; it needs ordering fidelity, not accuracy.
pub const ALL: [(&str, bool, u64, &str); 24] = [
    ("t1", false, 2, "Table 1: commodity memory fabrics registry"),
    (
        "t2",
        true,
        270,
        "Table 2: memory-hierarchy 64 B latency/throughput",
    ),
    (
        "f1",
        false,
        3,
        "fabric discovery, PBR routing, cross-fabric reads",
    ),
    (
        "e3a",
        true,
        580,
        "concurrent 64 B writes to a disaggregated device",
    ),
    (
        "e3b",
        true,
        2600,
        "64 B writes interleaved with 16 KiB bulk traffic",
    ),
    (
        "e3c",
        true,
        420,
        "credit allocation: ramp-up starves bursty flows",
    ),
    (
        "e3d",
        true,
        25,
        "credit-agnostic FIFO scheduling: HOL blocking",
    ),
    (
        "e3e",
        true,
        125,
        "credit starvation back-propagates across switches",
    ),
    (
        "e3x",
        true,
        340,
        "sharded 8-domain chain: 64-tenant interference",
    ),
    (
        "e12",
        true,
        1000,
        "fabric QoS scheduler: tenant isolation at pod scale",
    ),
    (
        "e13",
        true,
        1400,
        "far-memory serving tier: per-tenant SLO under diurnal load",
    ),
    (
        "e14",
        true,
        700,
        "wormhole VC pod: 256-host spine-leaf drains deadlock-free",
    ),
    (
        "e4",
        false,
        420,
        "eTrans managed transfers vs synchronous loads",
    ),
    (
        "e5",
        false,
        30,
        "unified heap placement and migration policies",
    ),
    (
        "e6",
        false,
        5,
        "idempotent tasks vs checkpointing under failures",
    ),
    ("e7", false, 730, "fabric arbiter reservations and fairness"),
    ("e8", false, 15, "baseband pipeline deployment modes"),
    ("e9", false, 1600, "MLP window and working-set sweeps"),
    ("e10", false, 5, "FAA kernel launch and context switching"),
    (
        "e11",
        true,
        70,
        "online composition: hot-add, managed drain, naive yank",
    ),
    ("nodes", false, 35, "memory-node types: expander vs CC-NUMA"),
    (
        "abl-flit",
        false,
        2500,
        "ablation: 68 B vs 256 B flit framing",
    ),
    (
        "abl-adaptive",
        false,
        7400,
        "ablation: adaptive vs deterministic routing",
    ),
    (
        "abl-credits",
        false,
        3500,
        "ablation: link credit-depth sweep",
    ),
];

/// Scalar results of one experiment: `(key, value)` pairs.
pub type Scalars = Vec<(String, f64)>;

/// Looks an id up in the registry.
pub fn registry_entry(id: &str) -> Option<&'static (&'static str, bool, u64, &'static str)> {
    ALL.iter().find(|&&(known, _, _, _)| known == id)
}

/// Wall-clock and event-throughput measurements for one scenario run.
#[derive(Debug, Clone, Copy)]
pub struct PerfSample {
    /// Wall-clock duration of the scenario, in milliseconds.
    pub wall_ms: f64,
    /// Engine events dispatched by the scenario (all of its engines).
    pub events: u64,
}

impl PerfSample {
    /// Events per wall-clock second (0 for a degenerate sample).
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_ms > 0.0 {
            self.events as f64 / (self.wall_ms / 1000.0)
        } else {
            0.0
        }
    }
}

/// Everything one scenario run produces.
pub struct ScenarioOutput {
    /// The experiment id.
    pub id: String,
    /// The rendered human-readable report (the paper-style tables).
    pub text: String,
    /// Structured scalar results for the JSON export.
    pub scalars: Scalars,
    /// Wall-clock and event-count measurements.
    pub perf: PerfSample,
    /// The scenario's trace buffer, when recording.
    pub trace: Option<TraceDump>,
    /// The scenario's harvested metrics, when recording.
    pub metrics: MetricsRegistry,
}

fn kv(key: &str, v: f64) -> (String, f64) {
    (key.to_string(), v)
}

/// Lowercases and underscores a free-form label into a JSON key segment.
pub fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

fn put(text: &mut String, what: &dyn std::fmt::Display) {
    // Writing into a String cannot fail.
    let _ = writeln!(text, "{what}");
}

/// Runs one experiment by id, rendering its report into a buffer instead
/// of stdout (so parallel runs cannot interleave output). Returns `None`
/// for an unknown id.
///
/// `cap` is the scenario's own capture; traced experiments emit spans and
/// metrics into it.
pub fn run_one(
    id: &str,
    quick: bool,
    cap: &mut Capture,
    seed: u64,
    shards: usize,
) -> Option<(String, Scalars)> {
    let mut text = String::new();
    text.push_str("================================================================\n");
    let mut s: Scalars = Vec::new();
    match id {
        "t1" => {
            let r = exp_t1::run();
            put(&mut text, &r);
            s.push(kv("fabrics", r.rows.len() as f64));
        }
        "t2" => {
            let r = exp_t2::run(quick, cap, seed);
            put(&mut text, &r);
            for t in &r.tiers {
                let tier = slug(t.name);
                s.push(kv(&format!("{tier}_read_ns"), t.read_ns));
                s.push(kv(&format!("{tier}_write_ns"), t.write_ns));
                s.push(kv(&format!("{tier}_read_mops"), t.read_mops));
                s.push(kv(&format!("{tier}_write_mops"), t.write_mops));
            }
            s.push(kv("remote_local_ratio", r.remote_local_ratio()));
        }
        "f1" => {
            let r = exp_f1::run(seed);
            put(&mut text, &r);
            s.push(kv("hosts", r.hosts as f64));
            s.push(kv("devices", r.devices as f64));
            s.push(kv("switches", r.switches as f64));
            s.push(kv("routes", r.routes as f64));
            s.push(kv("verified", r.verified as f64));
            s.push(kv("attempted", r.attempted as f64));
            s.push(kv("mean_read_ns", r.mean_read_ns));
        }
        "e3a" => {
            let r = exp_e3::run_a(quick, cap, seed);
            put(&mut text, &r);
            s.push(kv("inhost_ns", r.inhost_ns));
            for &(w, ns) in &r.disaggregated {
                s.push(kv(&format!("w{w}_ns"), ns));
            }
            s.push(kv("delta_w8_ns", r.delta_at(8)));
        }
        "e3b" => {
            let r = exp_e3::run_b(quick, cap, seed);
            put(&mut text, &r);
            s.push(kv("alone_mean_ns", r.alone.mean));
            s.push(kv("alone_p99_ns", r.alone.p99));
            s.push(kv("interfered_mean_ns", r.interfered.mean));
            s.push(kv("interfered_p99_ns", r.interfered.p99));
            s.push(kv("mean_inflation", r.mean_inflation()));
            s.push(kv("p99_inflation", r.p99_inflation()));
        }
        "e3c" => {
            let r = exp_e3::run_c(quick, cap, seed);
            put(&mut text, &r);
            for o in &r.outcomes {
                let p = slug(o.policy);
                s.push(kv(&format!("{p}_hog_ops_us"), o.hog_tput));
                s.push(kv(&format!("{p}_bursty_ops_us"), o.bursty_tput));
                s.push(kv(&format!("{p}_bursty_p99_ns"), o.bursty_p99));
            }
        }
        "e3d" => {
            let r = exp_e3::run_d(quick, cap, seed);
            put(&mut text, &r);
            s.push(kv("fifo_fast_ops_us", r.fifo_fast_tput));
            s.push(kv("voq_fast_ops_us", r.voq_fast_tput));
            s.push(kv("fifo_slow_ops_us", r.fifo_slow_tput));
            s.push(kv("hol_factor", r.hol_factor()));
        }
        "e3e" => {
            let r = exp_e3::run_e(quick, cap, seed);
            put(&mut text, &r);
            s.push(kv("victim_alone_ops_us", r.victim_alone));
            s.push(kv("victim_congested_ops_us", r.victim_congested));
            s.push(kv("hog_ops_us", r.hog_tput));
            s.push(kv("degradation", r.degradation()));
        }
        "e3x" => {
            let r = exp_e3x::run_x(quick, cap, seed, shards);
            put(&mut text, &r);
            s.push(kv("tenants", r.tenants as f64));
            s.push(kv("victim_ops_us", r.victim_ops_us));
            s.push(kv("victim_fairness", r.victim_fairness));
            s.push(kv("bulk_ops_us", r.bulk_ops_us));
            s.push(kv("hog_ops_us", r.hog_ops_us));
            s.push(kv("total_events", r.total_events as f64));
        }
        "e12" => {
            let r = exp_e12::run_e12(quick, cap, seed, shards);
            put(&mut text, &r);
            s.push(kv("tenants", r.tenants as f64));
            s.push(kv("victim_p99_idle_ns", r.victim_p99_idle_ns));
            s.push(kv("victim_p99_off_ns", r.victim_p99_off_ns));
            s.push(kv("victim_p99_on_ns", r.victim_p99_on_ns));
            s.push(kv("victim_p999_on_ns", r.victim_p999_on_ns));
            s.push(kv("inflation_off", r.inflation_off()));
            s.push(kv("inflation_on", r.inflation_on()));
            s.push(kv("hog_ops_us_off", r.hog_ops_us_off));
            s.push(kv("hog_ops_us_on", r.hog_ops_us_on));
            s.push(kv("sched_admitted", r.sched_admitted as f64));
            s.push(kv("sched_deferred", r.sched_deferred as f64));
            s.push(kv("ledger_violations", r.ledger_violations as f64));
            s.push(kv(
                "isolation_bounded",
                f64::from(u8::from(r.isolation_bounded())),
            ));
            s.push(kv("total_events", r.total_events as f64));
        }
        "e13" => {
            let r = exp_e13::run_e13(quick, cap, seed, shards);
            put(&mut text, &r);
            s.push(kv("tenants", r.tenants as f64));
            s.push(kv("requests", r.requests as f64));
            s.push(kv("base_p99_peak_ns", r.base_p99_peak_ns));
            s.push(kv("base_p99_trough_ns", r.base_p99_trough_ns));
            s.push(kv("base_attain_peak", r.base_attain_peak));
            s.push(kv("off_p99_peak_ns", r.off_p99_peak_ns));
            s.push(kv("on_p99_peak_ns", r.on_p99_peak_ns));
            s.push(kv("on_p99_trough_ns", r.on_p99_trough_ns));
            s.push(kv("on_p999_peak_ns", r.on_p999_peak_ns));
            s.push(kv("off_attain_peak", r.off_attain_peak));
            s.push(kv("on_attain_peak", r.on_attain_peak));
            s.push(kv("fcc_speedup_p99", r.fcc_speedup_p99()));
            s.push(kv("sched_recovery_p99", r.sched_recovery_p99()));
            s.push(kv("lost_objects", r.lost_objects as f64));
            s.push(kv("ledger_violations", r.ledger_violations as f64));
            s.push(kv("slo_bounded", f64::from(u8::from(r.slo_bounded()))));
            s.push(kv("total_events", r.total_events as f64));
        }
        "e14" => {
            let r = exp_e14::run_e14(quick, cap, seed, shards);
            put(&mut text, &r);
            s.push(kv("hosts", r.hosts as f64));
            s.push(kv("switches", r.switches as f64));
            s.push(kv("completed", r.completed as f64));
            s.push(kv("expected", r.expected as f64));
            s.push(kv("makespan_us", r.makespan_us));
            s.push(kv("ops_us", r.ops_us()));
            s.push(kv("deadlock_events", r.deadlock_events as f64));
            s.push(kv("credit_violations", r.credit_violations as f64));
            s.push(kv("audit_findings", r.audit_findings as f64));
            s.push(kv(
                "quiesced_clean",
                f64::from(u8::from(r.quiesced_clean())),
            ));
            s.push(kv("total_events", r.total_events as f64));
        }
        "e4" => {
            let r = exp_e4::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("chunks", r.chunks as f64));
            s.push(kv("sync_us", r.sync_us));
            s.push(kv("managed_us", r.managed_us));
            s.push(kv("sync_stall_us", r.sync_stall_us));
            s.push(kv("managed_stall_us", r.managed_stall_us));
            s.push(kv("speedup", r.speedup()));
        }
        "e5" => {
            let r = exp_e5::run(quick, seed);
            put(&mut text, &r);
            for o in &r.outcomes {
                let p = slug(o.policy);
                s.push(kv(&format!("{p}_mean_ns"), o.mean_ns));
                s.push(kv(&format!("{p}_migrations"), o.migrations as f64));
                s.push(kv(&format!("{p}_bytes_migrated"), o.bytes_migrated as f64));
            }
            s.push(kv("speedup_vs_remote", r.speedup_vs_remote()));
        }
        "e6" => {
            let r = exp_e6::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("baseline_us", r.baseline_us));
            for p in &r.points {
                let m = p.mtbf_us.round() as u64;
                s.push(kv(
                    &format!("mtbf{m}us_idem_makespan_us"),
                    p.idempotent.makespan.as_us(),
                ));
                s.push(kv(
                    &format!("mtbf{m}us_ckpt_makespan_us"),
                    p.checkpoint.makespan.as_us(),
                ));
            }
            s.push(kv(
                "naive_clobber_corrupts",
                r.naive_clobber_corrupts as u64 as f64,
            ));
            s.push(kv("versioned_is_safe", r.versioned_is_safe as u64 as f64));
        }
        "e7" => {
            let r = exp_e7::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("control_rtt_ns", r.control_rtt_ns));
            s.push(kv("uncoordinated_hog_ops_us", r.uncoordinated.0));
            s.push(kv("uncoordinated_bursty_ops_us", r.uncoordinated.1));
            s.push(kv("arbitrated_hog_ops_us", r.arbitrated.0));
            s.push(kv("arbitrated_bursty_ops_us", r.arbitrated.1));
            s.push(kv("jain_before", r.jain_before));
            s.push(kv("jain_after", r.jain_after));
        }
        "e8" => {
            let r = exp_e8::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("ber_15db", r.ber_15db));
            s.push(kv("ber_35db", r.ber_35db));
            for m in &r.modes {
                s.push(kv(&format!("{}_frame_us", slug(m.mode)), m.frame_us));
            }
            s.push(kv("unifabric_with_failure_us", r.unifabric_with_failure_us));
        }
        "e9" => {
            let r = exp_e9::run(quick, seed);
            put(&mut text, &r);
            for &(w, mops) in &r.window_sweep {
                s.push(kv(&format!("window{w}_mops"), mops));
            }
            for &(ws, ns) in &r.ws_sweep {
                s.push(kv(&format!("ws{ws}kib_ns"), ns));
            }
        }
        "e10" => {
            let r = exp_e10::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("fabric_launch_ns", r.fabric_launch_ns));
            s.push(kv("rdma_launch_ns", r.rdma_launch_ns));
            s.push(kv("launch_advantage", r.launch_advantage()));
            s.push(kv("fast_switch_us", r.fast_switch_us));
            s.push(kv("slow_switch_us", r.slow_switch_us));
            s.push(kv("switches", r.switches as f64));
        }
        "e11" => {
            let r = exp_e11::run(quick, cap, seed);
            put(&mut text, &r);
            s.push(kv("steady_p99_ns", r.steady.p99_ns));
            s.push(kv("managed_p99_ns", r.managed.p99_ns));
            s.push(kv("managed_p99_inflation", r.managed_p99_inflation()));
            s.push(kv("managed_lost_objects", r.managed.lost_objects as f64));
            s.push(kv("managed_deadlocked", r.managed.deadlocked as u64 as f64));
            s.push(kv("managed_epochs", r.managed.epochs as f64));
            s.push(kv("evac_jobs", r.managed.evac_jobs as f64));
            s.push(kv("evac_bytes", r.managed.evac_bytes as f64));
            s.push(kv("yank_lost_objects", r.yank.lost_objects as f64));
            s.push(kv("yank_deadlocked", r.yank.deadlocked as u64 as f64));
        }
        "nodes" => {
            let r = exp_nodes::run(quick, seed);
            put(&mut text, &r);
            s.push(kv("expander_ns", r.expander_ns));
            s.push(kv("ccnuma_private_ns", r.ccnuma_private_ns));
            s.push(kv("ccnuma_pingpong_ns", r.ccnuma_pingpong_ns));
            s.push(kv("snoops", r.snoops as f64));
        }
        "abl-flit" => {
            let r = exp_abl::run_flit(quick, seed);
            put(&mut text, &r);
            s.push(kv("bulk_flit68_ops_us", r.bulk.0));
            s.push(kv("bulk_flit256_ops_us", r.bulk.1));
            s.push(kv("small_flit68_ns", r.small.0));
            s.push(kv("small_flit256_ns", r.small.1));
        }
        "abl-adaptive" => {
            let r = exp_abl::run_adaptive(quick, seed);
            put(&mut text, &r);
            s.push(kv("deterministic_ops_us", r.deterministic));
            s.push(kv("adaptive_ops_us", r.adaptive));
        }
        "abl-credits" => {
            let r = exp_abl::run_credits(quick, seed);
            put(&mut text, &r);
            for &(flits, tput) in &r.points {
                s.push(kv(&format!("credits{flits}_ops_us"), tput));
            }
        }
        _ => return None,
    }
    Some((text, s))
}

/// Runs one scenario end-to-end with its own capture and perf sampling.
///
/// # Panics
///
/// Panics on an unknown id — the driver validates ids up front.
pub fn run_scenario(
    id: &str,
    quick: bool,
    seed: u64,
    record: bool,
    shards: usize,
) -> ScenarioOutput {
    let mut cap = if record {
        Capture::recording()
    } else {
        Capture::disabled()
    };
    // Scenario engines run (and drop) entirely on this thread, so the
    // thread-local dispatch counter delta is exactly this scenario's
    // event count.
    let events_before = fcc_sim::thread_events_dispatched();
    let started = Instant::now();
    let Some((text, scalars)) = run_one(id, quick, &mut cap, seed, shards) else {
        panic!("unknown experiment id: {id}");
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1000.0;
    let events = fcc_sim::thread_events_dispatched() - events_before;
    ScenarioOutput {
        id: id.to_string(),
        text,
        scalars,
        perf: PerfSample { wall_ms, events },
        trace: cap.sink.into_dump(),
        metrics: cap.metrics,
    }
}

/// Runs `ids` across up to `jobs` threads (1 = serial, on the caller's
/// thread), returning outputs in `ids` order. `shards` is the worker
/// fan-out handed to the sharded-executor scenarios (`e3x`, `e12`,
/// `e13`, `e14`); engine-per-scenario experiments ignore it. Exports are
/// byte-identical for any `(jobs, shards)` combination.
///
/// Scenarios share nothing — each gets its own `Engine`s, RNG streams
/// (derived from `seed`), and capture — so the only cross-scenario state
/// is the deterministic assembly performed by the caller.
pub fn run_ids(
    ids: &[String],
    quick: bool,
    seed: u64,
    jobs: usize,
    record: bool,
    shards: usize,
) -> Vec<ScenarioOutput> {
    let items: Vec<String> = ids.to_vec();
    par_map(
        items,
        jobs,
        |_, id| registry_entry(id).map_or(0, |&(_, _, cost, _)| cost),
        move |_, id| run_scenario(&id, quick, seed, record, shards),
    )
}

/// A run's exports, assembled from its scenario outputs in scenario order.
pub struct Exports {
    /// Every scenario's rendered report, concatenated.
    pub text: String,
    /// The scalar results JSON ([`results_json`]).
    pub results: String,
    /// The merged metrics registry as JSON.
    pub metrics: String,
    /// The per-scenario perf JSON ([`perf_json`]); the one export that is
    /// not deterministic.
    pub perf: String,
    /// Every scenario's trace, absorbed in scenario order.
    trace: TraceSink,
}

impl Exports {
    /// The Chrome trace JSON. Rendered on demand: a full traced run's
    /// trace runs to hundreds of megabytes.
    pub fn trace_json(&self) -> String {
        self.trace.to_chrome_json()
    }

    /// The four deterministic exports: text, results, trace and metrics.
    pub fn deterministic(&self) -> [String; 4] {
        [
            self.text.clone(),
            self.results.clone(),
            self.trace_json(),
            self.metrics.clone(),
        ]
    }
}

/// Assembles scenario outputs, in the order given, into a run's exports:
/// report text, results, merged metrics, absorbed trace and perf samples.
pub fn assemble(outputs: Vec<ScenarioOutput>) -> Exports {
    let text = outputs.iter().map(|o| o.text.as_str()).collect();
    let results: Vec<(String, Scalars)> = outputs
        .iter()
        .map(|o| (o.id.clone(), o.scalars.clone()))
        .collect();
    let perf: Vec<(String, PerfSample)> = outputs.iter().map(|o| (o.id.clone(), o.perf)).collect();
    let trace = TraceSink::recording();
    let mut metrics = MetricsRegistry::new();
    for o in outputs {
        metrics.merge(&o.metrics);
        if let Some(dump) = o.trace {
            trace.absorb(dump);
        }
    }
    Exports {
        text,
        results: results_json(&results),
        metrics: metrics.to_json(),
        perf: perf_json(&perf),
        trace,
    }
}

/// Renders scalar results as one JSON object keyed by experiment id.
/// Non-finite values (shape-dependent NaNs) render as `null` so the
/// output is always valid JSON. Timing never appears here — this export
/// is deterministic and diffable.
pub fn results_json(results: &[(String, Scalars)]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, scalars)) in results.iter().enumerate() {
        out.push_str(&format!("  \"{id}\": {{\n"));
        for (j, (k, v)) in scalars.iter().enumerate() {
            let val = if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            };
            out.push_str(&format!("    \"{k}\": {val}"));
            out.push_str(if j + 1 < scalars.len() { ",\n" } else { "\n" });
        }
        out.push_str("  }");
        out.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders per-scenario perf samples as a JSON object keyed by id.
pub fn perf_json(entries: &[(String, PerfSample)]) -> String {
    let mut out = String::from("{\n");
    for (i, (id, perf)) in entries.iter().enumerate() {
        out.push_str(&format!(
            "  \"{id}\": {{\"wall_ms\": {:.3}, \"events\": {}, \"events_per_sec\": {:.1}}}",
            perf.wall_ms,
            perf.events,
            perf.events_per_sec()
        ));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

/// Renders the committed-baseline document: the deterministic scalar
/// results plus a `"_perf"` section holding the wall-clock baseline that
/// `scripts/bench_gate.sh` compares against. The underscore keeps the
/// perf key from colliding with (and sorting into) the experiment ids.
pub fn baseline_json(results: &[(String, Scalars)], perf: &[(String, PerfSample)]) -> String {
    let mut out = results_json(results);
    // Splice `"_perf"` in before the closing brace.
    out.truncate(out.trim_end().len() - 1);
    while out.ends_with(['\n', ' ']) {
        out.pop();
    }
    if !results.is_empty() {
        out.push(',');
    }
    out.push_str("\n  \"_perf\": ");
    let perf_obj = perf_json(perf);
    for (i, line) in perf_obj.lines().enumerate() {
        if i > 0 {
            out.push_str("\n  ");
        }
        out.push_str(line);
    }
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_known() {
        let mut ids: Vec<&str> = ALL.iter().map(|&(id, _, _, _)| id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), ALL.len());
        assert!(registry_entry("e3b").is_some());
        assert!(registry_entry("nope").is_none());
    }

    #[test]
    fn run_one_rejects_unknown_ids() {
        let mut cap = Capture::disabled();
        assert!(run_one("not-an-experiment", true, &mut cap, 0, 1).is_none());
    }

    #[test]
    fn quick_scenario_produces_text_scalars_and_perf() {
        let out = run_scenario("t1", true, 0, false, 1);
        assert_eq!(out.id, "t1");
        assert!(out.text.contains("======"));
        assert!(!out.scalars.is_empty());
        assert!(out.perf.wall_ms >= 0.0);
        assert!(out.trace.is_none(), "not recording");
    }

    #[test]
    fn traced_quick_scenario_yields_a_dump() {
        let out = run_scenario("e3d", true, 7, true, 1);
        let dump = out.trace.expect("recording scenario dumps");
        assert!(!dump.processes.is_empty());
        assert!(out.perf.events > 0, "a simulation dispatched events");
    }
}
