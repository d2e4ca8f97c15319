//! E3 — the routable-PCIe experiments of §3 Difference #3.
//!
//! Five sub-experiments reproduce the paper's in-text measurements and the
//! three credit-based-flow-control pathologies it identifies:
//!
//! * [`run_a`] — concurrency adds ≈600 ns to disaggregated 64 B writes
//!   vs. holding the device in-host.
//! * [`run_b`] — 64 B write latency degrades drastically when interleaved
//!   with 16 KiB writes.
//! * [`run_c`] — exponential ramp-up credit **allocation** lets a hot
//!   port starve bursty contenders.
//! * [`run_d`] — credit-agnostic **scheduling** (FIFO) causes
//!   head-of-line blocking behind a credit-starved output.
//! * [`run_e`] — credit starvation **back-propagates** across switches,
//!   harming victim flows that never touch the congested device.
//!
//! These use a *FabreX-like* calibration (short intra-rack cables, fast
//! PCIe switch) rather than the Omega FAM calibration, matching the
//! paper's GigaIO testbed for these claims.

use std::fmt;
use std::slice;

use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::endpoint::{Endpoint, PipelinedMemory};
use fcc_fabric::sharded::DomainSpec;
use fcc_fabric::switch::{QueueDiscipline, SwitchConfig};
use fcc_fabric::topology::{self, Topology, TopologySpec, FAM_BASE};
use fcc_proto::phys::PhysConfig;
use fcc_sim::{Engine, SimTime, SummaryNs};

use crate::capture::Capture;
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

/// A FabreX-attached FPGA-card-like endpoint: per-byte controller
/// occupancy makes 16 KiB writes hold the device ~256x longer than 64 B
/// ones, as on the shared U55C card.
pub(crate) fn fabrex_device() -> Box<dyn Endpoint> {
    Box::new(
        PipelinedMemory::new(
            SimTime::from_ns(200.0),
            SimTime::from_ns(220.0),
            SimTime::from_ns(40.0),
            1 << 30,
        )
        .with_gap_per_byte(0.06),
    )
}

pub(crate) fn fabrex_spec(queueing: QueueDiscipline, allocation: AllocPolicy) -> TopologySpec {
    TopologySpec {
        switch: SwitchConfig {
            // FabreX-like link: short cable, fast SerDes (25 ns
            // propagation, 512 Gbit/s).
            phys: PhysConfig::omega_like(),
            fwd_latency: SimTime::from_ns(90.0),
            queueing,
            allocation,
            ..SwitchConfig::fabrex_like()
        },
        fha_outstanding: 64,
        ..TopologySpec::default()
    }
}

fn default_spec() -> TopologySpec {
    fabrex_spec(QueueDiscipline::Voq, AllocPolicy::Fair)
}

/// Attaches a load generator to a host and starts it at `start`.
fn attach_load(
    engine: &mut Engine,
    topo: &Topology,
    host: usize,
    cfg_fn: impl FnOnce(fcc_sim::ComponentId) -> LoadCfg,
    start: SimTime,
) -> fcc_sim::ComponentId {
    let cfg = cfg_fn(topo.hosts[host].fha);
    let lg = engine.add_component(format!("load-h{host}"), LoadGen::new(cfg));
    engine.post(lg, start, StartLoad);
    lg
}

// ---------------------------------------------------------------- E3a --

/// E3a outcome.
pub struct E3aResult {
    /// In-host (direct attach) mean 64 B write RTT (ns).
    pub inhost_ns: f64,
    /// Disaggregated mean RTT by concurrency level: `(writers, ns)`.
    pub disaggregated: Vec<(usize, f64)>,
}

impl E3aResult {
    /// RTT increase over in-host at a concurrency level.
    pub fn delta_at(&self, writers: usize) -> f64 {
        self.disaggregated
            .iter()
            .find(|&&(w, _)| w == writers)
            .map(|&(_, ns)| ns - self.inhost_ns)
            .unwrap_or(f64::NAN)
    }
}

/// The E3a device: a scarcer controller (one access per 150 ns) so that
/// concurrent writers actually queue, as on the shared U55C card.
fn e3a_device() -> Box<dyn Endpoint> {
    Box::new(PipelinedMemory::new(
        SimTime::from_ns(200.0),
        SimTime::from_ns(220.0),
        SimTime::from_ns(150.0),
        1 << 30,
    ))
}

/// Runs E3a with RNG seed salt `seed`, feeding telemetry into `cap`. Scenario
/// (process) labels: `e3a-inhost`, `e3a-w{N}`.
pub fn run_a(quick: bool, cap: &mut Capture, seed: u64) -> E3aResult {
    let count = if quick { 300 } else { 2000 };
    // In-host: direct attach, single writer.
    let inhost_ns = {
        let mut engine = Engine::new(0xE3A ^ seed);
        let topo = topology::direct(&mut engine, default_spec(), e3a_device());
        let label = "e3a-inhost";
        cap.begin(label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        let lg = attach_load(
            &mut engine,
            &topo,
            0,
            |fha| LoadCfg {
                fha,
                base: FAM_BASE,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                window: 1,
                count: Some(count),
                stop_at: SimTime::MAX,
                pattern: AddrPattern::Sequential,
            },
            SimTime::ZERO,
        );
        engine.run_until_idle();
        cap.end(label, slice::from_ref(&engine), slice::from_ref(&topo));
        engine.component::<LoadGen>(lg).latency.summary_ns().mean
    };
    // Disaggregated: one switch, N concurrent writers to the same chassis.
    let mut disaggregated = Vec::new();
    for &writers in &[1usize, 2, 4, 8] {
        let mut engine = Engine::new((0xE3A ^ seed) + writers as u64);
        let topo =
            topology::single_switch(&mut engine, default_spec(), writers, vec![e3a_device()]);
        let label = format!("e3a-w{writers}");
        cap.begin(&label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        let lgs: Vec<_> = (0..writers)
            .map(|h| {
                attach_load(
                    &mut engine,
                    &topo,
                    h,
                    |fha| LoadCfg {
                        fha,
                        base: FAM_BASE + (h as u64) * (1 << 20),
                        len: 1 << 20,
                        op_bytes: 64,
                        write: true,
                        window: 1,
                        count: Some(count),
                        stop_at: SimTime::MAX,
                        pattern: AddrPattern::Sequential,
                    },
                    SimTime::ZERO,
                )
            })
            .collect();
        engine.run_until_idle();
        cap.end(&label, slice::from_ref(&engine), slice::from_ref(&topo));
        let mean = lgs
            .iter()
            .map(|&lg| engine.component::<LoadGen>(lg).latency.summary_ns().mean)
            .sum::<f64>()
            / writers as f64;
        disaggregated.push((writers, mean));
    }
    E3aResult {
        inhost_ns,
        disaggregated,
    }
}

impl fmt::Display for E3aResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3a — concurrent 64 B writes to a disaggregated device")?;
        writeln!(f, "  in-host (direct) RTT: {:.0} ns", self.inhost_ns)?;
        let rows: Vec<Vec<String>> = self
            .disaggregated
            .iter()
            .map(|&(w, ns)| {
                vec![
                    w.to_string(),
                    format!("{ns:.0}"),
                    format!("+{:.0}", ns - self.inhost_ns),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(&["writers", "RTT (ns)", "delta vs in-host"], &rows)
        )?;
        writeln!(
            f,
            "paper: \"concurrent 64B PCIe writes can add 600ns more one-way latencies\""
        )
    }
}

// ---------------------------------------------------------------- E3b --

/// E3b outcome.
pub struct E3bResult {
    /// 64 B write latency with no interference.
    pub alone: SummaryNs,
    /// 64 B write latency sharing the fabric with 16 KiB writers.
    pub interfered: SummaryNs,
}

impl E3bResult {
    /// p99 inflation factor.
    pub fn p99_inflation(&self) -> f64 {
        self.interfered.p99 / self.alone.p99
    }

    /// Mean inflation factor.
    pub fn mean_inflation(&self) -> f64 {
        self.interfered.mean / self.alone.mean
    }
}

/// Runs E3b with RNG seed salt `seed`, feeding telemetry into `cap`. Scenario
/// labels: `e3b-alone`, `e3b-bulk` — comparing the two process groups'
/// `credit` spans shows the 16 KiB writers camping on link credits.
pub fn run_b(quick: bool, cap: &mut Capture, seed: u64) -> E3bResult {
    let count = if quick { 400 } else { 3000 };
    let mut run = |with_bulk: bool| -> SummaryNs {
        let mut engine = Engine::new((0xE3B ^ seed) + with_bulk as u64);
        let topo = topology::single_switch(&mut engine, default_spec(), 5, vec![fabrex_device()]);
        let label = if with_bulk { "e3b-bulk" } else { "e3b-alone" };
        cap.begin(label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        let small = attach_load(
            &mut engine,
            &topo,
            0,
            |fha| LoadCfg {
                fha,
                base: FAM_BASE,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                window: 2,
                count: Some(count),
                stop_at: SimTime::MAX,
                pattern: AddrPattern::Sequential,
            },
            SimTime::ZERO,
        );
        if with_bulk {
            for h in 1..5 {
                attach_load(
                    &mut engine,
                    &topo,
                    h,
                    |fha| LoadCfg {
                        fha,
                        base: FAM_BASE + (h as u64) * (64 << 20),
                        len: 32 << 20,
                        op_bytes: 16384,
                        write: true,
                        window: 2,
                        count: None,
                        stop_at: SimTime::from_ms(2.0),
                        pattern: AddrPattern::Sequential,
                    },
                    SimTime::ZERO,
                );
            }
        }
        engine.run_until_idle();
        cap.end(label, slice::from_ref(&engine), slice::from_ref(&topo));
        engine.component::<LoadGen>(small).latency.summary_ns()
    };
    E3bResult {
        alone: run(false),
        interfered: run(true),
    }
}

impl fmt::Display for E3bResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3b — 64 B writes interleaved with 16 KiB writes")?;
        let rows = vec![
            vec![
                "alone".to_string(),
                format!("{:.0}", self.alone.mean),
                format!("{:.0}", self.alone.p50),
                format!("{:.0}", self.alone.p99),
            ],
            vec![
                "with 16KiB bulk".to_string(),
                format!("{:.0}", self.interfered.mean),
                format!("{:.0}", self.interfered.p50),
                format!("{:.0}", self.interfered.p99),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["scenario", "mean (ns)", "p50", "p99"], &rows)
        )?;
        writeln!(
            f,
            "mean inflation {:.1}x, p99 inflation {:.1}x (paper: \"degraded drastically\")",
            self.mean_inflation(),
            self.p99_inflation()
        )
    }
}

// ---------------------------------------------------------------- E3c --

/// Per-policy outcome of the allocation experiment.
#[derive(Debug, Clone)]
pub struct AllocOutcome {
    /// Policy label.
    pub policy: &'static str,
    /// Hog throughput (ops/µs).
    pub hog_tput: f64,
    /// Mean bursty-host throughput during its burst (ops/µs).
    pub bursty_tput: f64,
    /// Bursty p99 latency (ns).
    pub bursty_p99: f64,
}

/// E3c outcome.
pub struct E3cResult {
    /// Fair vs ramp-up outcomes.
    pub outcomes: Vec<AllocOutcome>,
}

fn run_alloc_policy(
    policy: AllocPolicy,
    label: &'static str,
    scenario: &str,
    quick: bool,
    cap: &mut Capture,
    seed: u64,
) -> AllocOutcome {
    let horizon = if quick {
        SimTime::from_us(150.0)
    } else {
        SimTime::from_us(600.0)
    };
    let mut engine = Engine::new(0xE3C ^ seed);
    let topo = topology::single_switch(
        &mut engine,
        fabrex_spec(QueueDiscipline::Voq, policy),
        3,
        vec![fabrex_device()],
    );
    cap.begin(
        scenario,
        slice::from_mut(&mut engine),
        slice::from_ref(&topo),
    );
    // Hog: saturates from t=0 so ramp-up grants it a huge allocation.
    let hog = attach_load(
        &mut engine,
        &topo,
        0,
        |fha| LoadCfg {
            fha,
            base: FAM_BASE,
            len: 1 << 20,
            op_bytes: 64,
            write: true,
            window: 16,
            count: None,
            stop_at: horizon,
            pattern: AddrPattern::Sequential,
        },
        SimTime::ZERO,
    );
    // Bursty contenders: idle for 50 µs, then demand service.
    let burst_start = SimTime::from_us(50.0);
    let bursty: Vec<_> = (1..3)
        .map(|h| {
            attach_load(
                &mut engine,
                &topo,
                h,
                |fha| LoadCfg {
                    fha,
                    base: FAM_BASE + (h as u64) * (1 << 20),
                    len: 1 << 20,
                    op_bytes: 64,
                    write: true,
                    window: 4,
                    count: None,
                    stop_at: horizon,
                    pattern: AddrPattern::Sequential,
                },
                burst_start,
            )
        })
        .collect();
    engine.run_until_idle();
    cap.end(scenario, slice::from_ref(&engine), slice::from_ref(&topo));
    let hog_g = engine.component::<LoadGen>(hog);
    let hog_tput = hog_g.completed() as f64 / horizon.as_us();
    let burst_window = (horizon - burst_start).as_us();
    let bursty_tput = bursty
        .iter()
        .map(|&lg| engine.component::<LoadGen>(lg).completed() as f64 / burst_window)
        .sum::<f64>()
        / bursty.len() as f64;
    let bursty_p99 = bursty
        .iter()
        .map(|&lg| engine.component::<LoadGen>(lg).latency.summary_ns().p99)
        .fold(0.0f64, f64::max);
    AllocOutcome {
        policy: label,
        hog_tput,
        bursty_tput,
        bursty_p99,
    }
}

/// Runs E3c with RNG seed salt `seed`, feeding telemetry into `cap`. Scenario
/// labels: `e3c-fair`, `e3c-rampup` — the ramp-up process shows `arb`
/// (`switch.arb_wait`) spans piling up on the bursty hosts' ports.
pub fn run_c(quick: bool, cap: &mut Capture, seed: u64) -> E3cResult {
    E3cResult {
        outcomes: vec![
            run_alloc_policy(
                AllocPolicy::Fair,
                "static-fair",
                "e3c-fair",
                quick,
                cap,
                seed,
            ),
            run_alloc_policy(
                AllocPolicy::default_ramp_up(),
                "exp ramp-up",
                "e3c-rampup",
                quick,
                cap,
                seed,
            ),
        ],
    }
}

impl E3cResult {
    /// The named outcome.
    pub fn get(&self, policy: &str) -> &AllocOutcome {
        self.outcomes
            .iter()
            .find(|o| o.policy == policy)
            .expect("policy present")
    }
}

impl fmt::Display for E3cResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3c — credit allocation: hot port vs bursty contenders")?;
        let rows: Vec<Vec<String>> = self
            .outcomes
            .iter()
            .map(|o| {
                vec![
                    o.policy.to_string(),
                    format!("{:.2}", o.hog_tput),
                    format!("{:.2}", o.bursty_tput),
                    format!("{:.0}", o.bursty_p99),
                ]
            })
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(
                &[
                    "allocation",
                    "hog ops/us",
                    "bursty ops/us",
                    "bursty p99 (ns)"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "paper: \"a consistently heavily-used port would take more credits, \
             leaving little room for other contending ports\""
        )
    }
}

// ---------------------------------------------------------------- E3d --

/// E3d outcome.
pub struct E3dResult {
    /// Fast-flow throughput under FIFO (HOL-prone) queueing (ops/µs).
    pub fifo_fast_tput: f64,
    /// Fast-flow throughput with VOQs (ops/µs).
    pub voq_fast_tput: f64,
    /// Slow-flow throughput under FIFO (the device bound), for reference.
    pub fifo_slow_tput: f64,
}

impl E3dResult {
    /// How much VOQs recover.
    pub fn hol_factor(&self) -> f64 {
        self.voq_fast_tput / self.fifo_fast_tput.max(1e-9)
    }
}

/// Runs E3d: one host drives a slow and a fast device through the same
/// switch input port; the head flit to the credit-starved slow output
/// blocks flits to the idle fast output iff the queueing is FIFO.
///
/// `seed` salts the RNG streams; telemetry goes into `cap` under
/// scenario labels `e3d-fifo`, `e3d-voq`.
pub fn run_d(quick: bool, cap: &mut Capture, seed: u64) -> E3dResult {
    let horizon = if quick {
        SimTime::from_us(200.0)
    } else {
        SimTime::from_us(800.0)
    };
    let mut run = |queueing: QueueDiscipline| -> (f64, f64) {
        let mut engine = Engine::new(0xE3D ^ seed);
        let slow: Box<dyn Endpoint> = Box::new(PipelinedMemory::new(
            SimTime::from_ns(4000.0),
            SimTime::from_ns(4000.0),
            SimTime::from_ns(4000.0),
            1 << 30,
        ));
        let fast = fabrex_device();
        let mut spec = fabrex_spec(queueing, AllocPolicy::Fair);
        spec.fha_outstanding = 64;
        let topo = topology::single_switch(&mut engine, spec, 1, vec![slow, fast]);
        let label = match queueing {
            QueueDiscipline::Fifo => "e3d-fifo",
            QueueDiscipline::Voq => "e3d-voq",
            QueueDiscipline::Wormhole => "e3d-wormhole",
        };
        cap.begin(label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        // Shrink the slow FEA's admission queue so backpressure forms fast.
        let slow_fea = topo.devices[0].fea;
        engine
            .component_mut::<fcc_fabric::adapter::Fea>(slow_fea)
            .set_queue_depth(2);
        let slow_range = topo.devices[0].range;
        let fast_range = topo.devices[1].range;
        let to_slow = attach_load(
            &mut engine,
            &topo,
            0,
            |fha| LoadCfg {
                fha,
                base: slow_range.base,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                // Deep enough to exhaust the FEA's 16 request credits and
                // camp in the switch, where HOL blocking can act.
                window: 32,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            },
            SimTime::ZERO,
        );
        let to_fast = attach_load(
            &mut engine,
            &topo,
            0,
            |fha| LoadCfg {
                fha,
                base: fast_range.base,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                window: 8,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            },
            SimTime::ZERO,
        );
        engine.run_until_idle();
        cap.end(label, slice::from_ref(&engine), slice::from_ref(&topo));
        let fast_tput = engine.component::<LoadGen>(to_fast).completed() as f64 / horizon.as_us();
        let slow_tput = engine.component::<LoadGen>(to_slow).completed() as f64 / horizon.as_us();
        (fast_tput, slow_tput)
    };
    let (fifo_fast, fifo_slow) = run(QueueDiscipline::Fifo);
    let (voq_fast, _) = run(QueueDiscipline::Voq);
    E3dResult {
        fifo_fast_tput: fifo_fast,
        voq_fast_tput: voq_fast,
        fifo_slow_tput: fifo_slow,
    }
}

impl fmt::Display for E3dResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3d — credit-agnostic scheduling: head-of-line blocking")?;
        let rows = vec![
            vec![
                "FIFO (credit-agnostic)".to_string(),
                format!("{:.2}", self.fifo_fast_tput),
                format!("{:.2}", self.fifo_slow_tput),
            ],
            vec![
                "VOQ".to_string(),
                format!("{:.2}", self.voq_fast_tput),
                "-".to_string(),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["queueing", "fast-flow ops/us", "slow-flow ops/us"], &rows)
        )?;
        writeln!(
            f,
            "VOQ recovers {:.1}x fast-flow throughput (paper: \"head-of-line \
             blocking and credit waste\")",
            self.hol_factor()
        )
    }
}

// ---------------------------------------------------------------- E3e --

/// E3e outcome.
pub struct E3eResult {
    /// Victim throughput with the leaf congested (ops/µs).
    pub victim_congested: f64,
    /// Victim throughput without the hog (ops/µs).
    pub victim_alone: f64,
    /// Hog throughput (bounded by the slow device) (ops/µs).
    pub hog_tput: f64,
}

impl E3eResult {
    /// Victim degradation factor.
    pub fn degradation(&self) -> f64 {
        self.victim_alone / self.victim_congested.max(1e-9)
    }
}

/// Runs E3e: a 3-switch chain; the hog congests a slow device at the far
/// end, the victim targets an idle device one hop away — and still starves
/// because the shared inter-switch link's ingress credits are camped by
/// the hog's backlog.
///
/// `seed` salts the RNG streams; telemetry goes into `cap` under
/// scenario labels `e3e-hog`, `e3e-alone` — the hog process's `credit`
/// spans on the inter-switch ports show starvation back-propagating to
/// the victim.
pub fn run_e(quick: bool, cap: &mut Capture, seed: u64) -> E3eResult {
    let horizon = if quick {
        SimTime::from_us(200.0)
    } else {
        SimTime::from_us(800.0)
    };
    let mut run = |with_hog: bool| -> (f64, f64) {
        let mut engine = Engine::new(0xE3E ^ seed);
        let slow: Box<dyn Endpoint> = Box::new(PipelinedMemory::new(
            SimTime::from_ns(5000.0),
            SimTime::from_ns(5000.0),
            SimTime::from_ns(5000.0),
            1 << 30,
        ));
        let mut spec_chain = fabrex_spec(QueueDiscipline::Fifo, AllocPolicy::Fair);
        spec_chain.fha_outstanding = 128;
        let topo = topology::chain(
            &mut engine,
            spec_chain,
            vec![
                DomainSpec {
                    n_hosts: 2,
                    devices: vec![],
                },
                DomainSpec {
                    n_hosts: 0,
                    devices: vec![fabrex_device()],
                },
                DomainSpec {
                    n_hosts: 0,
                    devices: vec![slow],
                },
            ],
        );
        let label = if with_hog { "e3e-hog" } else { "e3e-alone" };
        cap.begin(label, slice::from_mut(&mut engine), slice::from_ref(&topo));
        // Shrink the slow device's admission queue so its backlog camps
        // in the switches, not the device.
        engine
            .component_mut::<fcc_fabric::adapter::Fea>(topo.devices[1].fea)
            .set_queue_depth(2);
        let victim_range = topo.devices[0].range;
        let slow_range = topo.devices[1].range;
        let victim = attach_load(
            &mut engine,
            &topo,
            1,
            |fha| LoadCfg {
                fha,
                base: victim_range.base,
                len: 1 << 20,
                op_bytes: 64,
                write: true,
                window: 4,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            },
            SimTime::ZERO,
        );
        let hog = with_hog.then(|| {
            attach_load(
                &mut engine,
                &topo,
                0,
                |fha| LoadCfg {
                    fha,
                    base: slow_range.base,
                    len: 1 << 20,
                    op_bytes: 64,
                    write: true,
                    // Deep enough to fill the FEA queue, the leaf switch,
                    // and camp on the shared inter-switch link credits.
                    window: 64,
                    count: None,
                    stop_at: horizon,
                    pattern: AddrPattern::Sequential,
                },
                SimTime::ZERO,
            )
        });
        engine.run_until_idle();
        cap.end(label, slice::from_ref(&engine), slice::from_ref(&topo));
        let tput = |lg| engine.component::<LoadGen>(lg).completed() as f64 / horizon.as_us();
        (tput(victim), hog.map_or(0.0, tput))
    };
    let (victim_congested, hog_tput) = run(true);
    let (victim_alone, _) = run(false);
    E3eResult {
        victim_congested,
        victim_alone,
        hog_tput,
    }
}

impl fmt::Display for E3eResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E3e — credit starvation back-propagates across switches")?;
        let rows = vec![
            vec![
                "victim alone".to_string(),
                format!("{:.2}", self.victim_alone),
            ],
            vec![
                "victim + hog to slow leaf".to_string(),
                format!("{:.2}", self.victim_congested),
            ],
            vec![
                "hog (device-bound)".to_string(),
                format!("{:.2}", self.hog_tput),
            ],
        ];
        write!(f, "{}", crate::fmt_table(&["flow", "ops/us"], &rows))?;
        writeln!(
            f,
            "victim degraded {:.1}x despite targeting an idle device one hop \
             away (paper: \"congestion can spread across a large victim area\")",
            self.degradation()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3a_concurrency_adds_hundreds_of_ns() {
        let r = run_a(true, &mut Capture::disabled(), 0);
        // Disaggregation alone costs something; concurrency adds more.
        let d1 = r.delta_at(1);
        let d8 = r.delta_at(8);
        assert!(d1 > 100.0, "switch hop must cost: {d1}");
        assert!(d8 > d1, "concurrency adds latency: {d1} → {d8}");
        assert!(
            d8 > 400.0 && d8 < 2000.0,
            "paper's ~600ns-scale delta, got {d8}"
        );
    }

    #[test]
    fn e3b_bulk_interleaving_inflates_tails() {
        let r = run_b(true, &mut Capture::disabled(), 0);
        assert!(
            r.p99_inflation() > 2.0,
            "p99 {} → {}",
            r.alone.p99,
            r.interfered.p99
        );
        assert!(
            r.mean_inflation() > 1.3,
            "mean inflation {}",
            r.mean_inflation()
        );
    }

    #[test]
    fn e3c_ramp_up_starves_bursty_flows() {
        let r = run_c(true, &mut Capture::disabled(), 0);
        let fair = r.get("static-fair");
        let ramp = r.get("exp ramp-up");
        assert!(
            fair.bursty_tput > ramp.bursty_tput * 1.3,
            "fair {} vs ramp {}",
            fair.bursty_tput,
            ramp.bursty_tput
        );
        assert!(
            ramp.hog_tput > ramp.bursty_tput * 3.0,
            "under ramp-up the hog dominates: hog {} vs bursty {}",
            ramp.hog_tput,
            ramp.bursty_tput
        );
    }

    #[test]
    fn e3d_fifo_hol_blocks_the_fast_flow() {
        let r = run_d(true, &mut Capture::disabled(), 0);
        assert!(
            r.hol_factor() > 2.0,
            "VOQ should recover >2x: fifo={} voq={}",
            r.fifo_fast_tput,
            r.voq_fast_tput
        );
    }

    #[test]
    fn e3e_congestion_spreads_to_the_victim() {
        let r = run_e(true, &mut Capture::disabled(), 0);
        assert!(
            r.degradation() > 2.0,
            "victim degradation {}: alone {} vs congested {}",
            r.degradation(),
            r.victim_alone,
            r.victim_congested
        );
    }
}
