//! `fcc-perfbench`: runs one benchmark workload for a fixed host-time
//! budget and prints one JSON object with every iteration's host
//! timings, the workload's deterministic outputs, and (traced runs) the
//! per-layer measurements. `run.py` next to this crate turns that into
//! the benchmark's metrics; see `README.md`.
//!
//! ```text
//! fcc-perfbench --workload <name> --seed <n> --seconds <s>
//!               [--traced] [--quick] [--spin-ns <n>] [--truncate-us <t>]
//! ```

mod common;
mod layers;
mod pod_wormhole;
mod serve_diurnal;
mod tenants_recorded;
mod timing;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use fcc_sim::SimTime;

use common::{Instr, Sample};

/// The workloads: name and worker threads. Every workload times one
/// worker: on a small shared host a second worker makes the epoch
/// barrier wait on whichever vCPU is slowest at the moment, and
/// `tenants-recorded` at two workers spread up to 28% between runs.
/// Traced runs still time the parallel epoch loop at `nproc` workers
/// (`shard.speedup`).
const WORKLOADS: &[(&str, usize)] = &[
    ("pod-wormhole", 1),
    ("serve-diurnal", 1),
    ("tenants-recorded", 1),
];

/// Set-up-only builds after each measured iteration.
const SETUP_ONLY_PER_ITERATION: usize = 2;

/// Payload types reported one by one; the rest count as `other`.
const PAYLOADS: &[&str] = &[
    "FlitMsg",
    "Kick",
    "HostRequest",
    "HostCompletion",
    "ResponseDue",
    "KvRequest",
    "KvReply",
    "SchedTick",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
    spin_ns: u64,
    truncate_us: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        traced: false,
        quick: false,
        spin_ns: 0,
        truncate_us: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--spin-ns" => {
                args.spin_ns = value()?.parse().map_err(|e| format!("--spin-ns: {e}"))?
            }
            "--truncate-us" => {
                args.truncate_us = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--truncate-us: {e}"))?,
                )
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run_once(workload: &str, seed: u64, quick: bool, workers: usize, instr: &Instr) -> Sample {
    match workload {
        "pod-wormhole" => pod_wormhole::run(seed, quick, workers, instr),
        "serve-diurnal" => serve_diurnal::run(seed, quick, workers, instr),
        _ => tenants_recorded::run(seed, quick, workers, instr),
    }
}

/// One traced iteration plus the layer clocks' growth during it.
struct TracedIter {
    sample: Sample,
    endpoint_s: f64,
    endpoint_calls: u64,
    loadgen_s: f64,
}

fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn sample_json(s: &Sample) -> String {
    format!(
        "{{\"setup_s\":{},\"plan_s\":{},\"instantiate_s\":{},\"install_s\":{},\"wall_s\":{},\
         \"run_s\":{},\"events\":{},\"audit_s\":{},\"deadlock_scan_s\":{},\"export_s\":{},\
         \"ops_issued\":{},\"ops_completed\":{}}}",
        s.setup_s,
        s.plan_s,
        s.instantiate_s,
        s.install_s,
        s.wall_s,
        s.run_s,
        s.events,
        s.audit_s,
        s.deadlock_scan_s,
        s.export_s,
        s.ops_issued,
        s.ops_completed
    )
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Per-layer values of a traced run. Host times come from the traced
/// repetition with the best wall time, so they decompose one run;
/// set-up phases are each phase's best over the untraced repetitions,
/// and microbenchmarks their best over the run.
fn layer_metrics(
    workers: usize,
    untraced: &[Sample],
    traced: &[TracedIter],
    micro: &layers::Micro,
    speedup: f64,
) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let best_of = |v: &mut dyn Iterator<Item = f64>| v.fold(f64::INFINITY, f64::min);
    let best = traced
        .iter()
        .min_by(|a, b| a.sample.wall_s.total_cmp(&b.sample.wall_s))
        .expect("at least one traced repetition");
    let s = &best.sample;
    let events = s.events as f64;
    m.insert("sim.events".into(), events);
    for kind in [
        "switch", "fha", "fea", "gateway", "loadgen", "serve", "core", "nic", "other",
    ] {
        let n = s.ring.by_kind.get(kind).copied().unwrap_or(0);
        m.insert(format!("sim.events.{kind}"), n as f64);
    }
    for name in PAYLOADS.iter().chain(["other"].iter()) {
        m.insert(format!("sim.msgs.{name}"), 0.0);
    }
    for (name, &n) in &s.ring.by_payload {
        let name = common::payload_name(name);
        let key = if PAYLOADS.contains(&name) {
            name
        } else {
            "other"
        };
        *m.entry(format!("sim.msgs.{key}")).or_default() += n as f64;
    }
    m.insert("sim.run_s".into(), s.run_s);
    m.insert("sim.deadlock_scan_s".into(), s.deadlock_scan_s);

    // Shard balance over the whole repetition (all modes summed per shard).
    let shards = s.shard_events.first().map_or(0, Vec::len);
    let per_shard: Vec<f64> = (0..shards)
        .map(|d| s.shard_events.iter().map(|row| row[d]).sum::<u64>() as f64)
        .collect();
    let mean = per_shard.iter().sum::<f64>() / shards.max(1) as f64;
    let max = per_shard.iter().copied().fold(0.0, f64::max);
    m.insert("shard.events_max_over_mean".into(), max / mean.max(1.0));
    let gateway = s.ring.by_kind.get("gateway").copied().unwrap_or(0) as f64;
    m.insert("shard.cross_frac".into(), gateway / events.max(1.0));
    m.insert("shard.speedup".into(), speedup);

    m.insert("fabric.audit_s".into(), s.audit_s);
    m.insert(
        "setup.plan_s".into(),
        best_of(&mut untraced.iter().map(|u| u.plan_s)),
    );
    m.insert(
        "setup.instantiate_s".into(),
        best_of(&mut untraced.iter().map(|u| u.instantiate_s)),
    );
    m.insert(
        "setup.install_s".into(),
        best_of(&mut untraced.iter().map(|u| u.install_s)),
    );
    m.insert("memnode.endpoint_s".into(), best.endpoint_s);
    m.insert("memnode.endpoint_calls".into(), best.endpoint_calls as f64);
    let (adm, def) = (s.admitted as f64, s.deferred as f64);
    m.insert(
        "sched.admit_ratio".into(),
        if adm + def > 0.0 {
            adm / (adm + def)
        } else {
            0.0
        },
    );
    m.insert("serve.requests".into(), s.serve_requests as f64);
    m.insert("telemetry.export_s".into(), s.export_s);
    m.insert("telemetry.trace_bytes".into(), s.trace_bytes as f64);
    m.insert("loadgen.self_s".into(), best.loadgen_s);
    // Thread-seconds of the run not inside a timed layer: with several
    // workers this includes their barrier waits.
    m.insert(
        "unattributed_s".into(),
        s.run_s * workers as f64 - best.endpoint_s - best.loadgen_s,
    );
    let wall_untraced = best_of(&mut untraced.iter().map(|u| u.wall_s));
    m.insert(
        "trace.overhead_frac".into(),
        s.wall_s / wall_untraced.max(1e-9) - 1.0,
    );
    m.insert("trace.wall_untraced_s".into(), wall_untraced);
    m.extend(micro.best().map(|(k, v)| (k.to_string(), v)));
    m
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fcc-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(_, workers)) = WORKLOADS.iter().find(|(n, _)| *n == args.workload) else {
        eprintln!("fcc-perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let plain = Instr {
        spin_ns: args.spin_ns,
        truncate: args.truncate_us.map(SimTime::from_us),
        ..Instr::default()
    };
    let setup_only = Instr {
        setup_only: true,
        spin_ns: args.spin_ns,
        ..Instr::default()
    };
    let go = |instr: &Instr, w: usize| run_once(&args.workload, args.seed, args.quick, w, instr);
    // Set-up samples: every measured iteration's, plus set-up-only builds
    // spread between iterations.
    let mut setups: Vec<f64> = Vec::new();
    let extra_setups = || {
        (0..SETUP_ONLY_PER_ITERATION)
            .map(|_| go(&setup_only, workers).setup_s)
            .collect::<Vec<f64>>()
    };

    // Warm-up: page in code and allocator arenas; its per-shard event
    // counts size the traced iterations' rings exactly.
    let warm = go(&plain, workers);
    let started = Instant::now();
    let mut untraced: Vec<Sample> = Vec::new();
    let mut traced: Vec<TracedIter> = Vec::new();
    let mut micro = layers::Micro::default();
    // Serial-vs-parallel run time of the epoch loop: the workload also
    // runs at the other worker count (1 or `nproc`), interleaved.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let other_workers = if workers == 1 { nproc.min(8) } else { 1 };
    let mut other_run_s = f64::INFINITY;
    if args.traced {
        let instr = Instr {
            traced: true,
            spin_ns: args.spin_ns,
            ring_sizes: warm.shard_events.clone(),
            ..Instr::default()
        };
        while untraced.len() < 2 || started.elapsed().as_secs_f64() < args.seconds * 0.7 {
            untraced.push(go(&plain, workers));
            setups.extend(extra_setups());
            let before = (
                instr.endpoint.seconds(),
                instr.endpoint.calls(),
                instr.loadgen.seconds(),
            );
            let mut sample = go(&instr, workers);
            sample.wall_s -= sample.ring_read_s;
            micro.measure(&sample);
            traced.push(TracedIter {
                sample,
                endpoint_s: instr.endpoint.seconds() - before.0,
                endpoint_calls: instr.endpoint.calls() - before.1,
                loadgen_s: instr.loadgen.seconds() - before.2,
            });
            if other_workers != workers {
                other_run_s = other_run_s.min(go(&plain, other_workers).run_s);
            }
        }
    } else {
        while untraced.len() < 3 || started.elapsed().as_secs_f64() < args.seconds {
            untraced.push(go(&plain, workers));
            setups.extend(extra_setups());
        }
    }
    let measured = started.elapsed().as_secs_f64();

    let stable = untraced
        .iter()
        .map(|s| &s.outputs)
        .chain(traced.iter().map(|t| &t.sample.outputs))
        .all(|o| *o == warm.outputs);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":{},\"seed\":{},\"workers\":{},\"quick\":{},\"measured_s\":{},\
         \"peak_rss_kb\":{},\"outputs_stable\":{},\"outputs\":{{",
        json_str(&args.workload),
        args.seed,
        workers,
        args.quick,
        measured,
        peak_rss_kb(),
        stable
    );
    for (i, (k, v)) in warm.outputs.iter().enumerate() {
        let _ = write!(
            out,
            "{}{}:{}",
            if i > 0 { "," } else { "" },
            json_str(k),
            json_str(v)
        );
    }
    setups.extend(untraced.iter().map(|s| s.setup_s));
    let setups: Vec<String> = setups.iter().map(f64::to_string).collect();
    let _ = write!(out, "}},\"setups\":[{}]", setups.join(","));
    out.push_str(",\"samples\":[");
    let samples: Vec<String> = untraced.iter().map(sample_json).collect();
    out.push_str(&samples.join(","));
    out.push(']');
    if !traced.is_empty() {
        out.push_str(",\"layers\":{");
        let own_run_s = untraced
            .iter()
            .map(|s| s.run_s)
            .fold(f64::INFINITY, f64::min);
        let speedup = match workers {
            _ if other_workers == workers => 1.0,
            1 => own_run_s / other_run_s,
            _ => other_run_s / own_run_s,
        };
        let layers = layer_metrics(workers, &untraced, &traced, &micro, speedup);
        let fields: Vec<String> = layers
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
            .collect();
        out.push_str(&fields.join(","));
        out.push('}');
    }
    out.push('}');
    println!("{out}");
    ExitCode::SUCCESS
}
