//! E14 — a 256-host spine-leaf pod on the wormhole virtual-channel
//! switch core, driven to quiescence with zero deadlocks.
//!
//! The headline scenario for the wormhole upgrade
//! ([`fcc_fabric::switch::QueueDiscipline::Wormhole`]): eight spine
//! domains, four leaves per spine, eight hosts and one FAM device per
//! leaf — 256 hosts, 40 switches, built by the pod generator
//! ([`fcc_fabric::pods::sharded_pod`]) with every switch-to-switch link
//! under per-VC credit flow control. Every host streams fixed-count
//! 1 KiB writes to a device homed under a *different* spine, so every
//! worm climbs its leaf's up-links, crosses a spine, and descends — the
//! all-to-all pattern that deadlocks naive wormhole fabrics. The run
//! must reach quiescence (every op completes), with zero deadlock
//! reports, zero VC credit violations, and clean ledger audits — the
//! empirical face of the escape-VC acyclicity proof `check-routing`
//! establishes ([`fcc_verify`-style], see DESIGN.md).
//!
//! Like E3x, the scenario always runs on the sharded executor with one
//! shard per spine domain; `shards` picks only the worker-thread
//! fan-out, so results and telemetry exports are byte-identical across
//! `--shards {1,2,4,8}` (the CI determinism matrix).
//!
//! [`fcc_verify`-style]: crate::harness

use std::fmt;

use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::pods::{sharded_pod, PodKind, PodSpec};
use fcc_fabric::switch::{FabricSwitch, QueueDiscipline};
use fcc_fabric::wormhole::VcConfig;
use fcc_sim::{ShardedEngine, SimTime};

use crate::capture::Capture;
use crate::exp_e3::{fabrex_device, fabrex_spec};
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

/// Spine switches = shard domains of the executor.
pub const DOMAINS: usize = 8;
/// One-way latency of each cross-spine cable (the lookahead).
pub const CROSS_LATENCY_NS: f64 = 200.0;
/// Per-op transfer size: 16 data flits + header per worm at 68 B flits.
const OP_BYTES: u32 = 1024;

/// E14 outcome.
pub struct E14Result {
    /// Hosts in the pod (256 at full scale).
    pub hosts: usize,
    /// Switches in the pod (spines + leaves).
    pub switches: usize,
    /// Writes completed across all hosts.
    pub completed: u64,
    /// Writes every host was asked to issue, summed.
    pub expected: u64,
    /// Simulated time at quiescence (µs): the slowest domain's clock.
    pub makespan_us: f64,
    /// Domains whose engine reported a deadlock (must be 0).
    pub deadlock_events: u64,
    /// VC credit-conservation violations across all switches (must be 0).
    pub credit_violations: u64,
    /// Credit/ledger audit findings at quiescence (must be 0).
    pub audit_findings: u64,
    /// Events dispatched across all shard engines (deterministic).
    pub total_events: u64,
}

impl E14Result {
    /// Aggregate write throughput (ops/µs) over the makespan.
    pub fn ops_us(&self) -> f64 {
        if self.makespan_us > 0.0 {
            self.completed as f64 / self.makespan_us
        } else {
            0.0
        }
    }

    /// Whether the pod drained every op without deadlock or credit loss.
    pub fn quiesced_clean(&self) -> bool {
        self.completed == self.expected
            && self.deadlock_events == 0
            && self.credit_violations == 0
            && self.audit_findings == 0
    }
}

/// Runs E14, feeding telemetry into `cap`, with `shards` worker threads.
///
/// Quick mode shrinks the pod to one leaf per spine and four hosts per
/// leaf (32 hosts) and trims the per-host op count; the topology family,
/// VC shape, and traffic pattern are unchanged.
pub fn run_e14(quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> E14Result {
    let (leaves_per_spine, hosts_per_edge, ops) = if quick { (1, 4, 8u64) } else { (4, 8, 24u64) };
    let mut sharded = ShardedEngine::new(0xE14 ^ seed, DOMAINS);
    let mut topo = fabrex_spec(QueueDiscipline::Wormhole, AllocPolicy::Fair);
    topo.switch.adaptive = true;
    let spec = PodSpec {
        kind: PodKind::SpineLeaf {
            spines: DOMAINS,
            leaves_per_spine,
        },
        topo,
        vc: VcConfig::default(),
        hosts_per_edge,
        devices_per_edge: 1,
        cross_latency: SimTime::from_ns(CROSS_LATENCY_NS),
    };
    let plan = spec.plan();
    let specs = plan.domain_specs(|_, _| fabrex_device());
    let (plan, fabric) = sharded_pod(&mut sharded, &spec, specs);
    cap.begin("e14", sharded.engines_mut(), &fabric.domains);
    // Load: host `gh` writes a fixed count of 1 KiB ops to the device of
    // a rotating *remote* spine group, so all traffic is leaf-spine-leaf
    // and every spine carries worms in both directions.
    let mut loads = Vec::new();
    let devices_per_domain = leaves_per_spine; // one device per leaf
    for (gh, (d, host)) in fabric.all_hosts().enumerate() {
        let td = (d + 1 + gh % (DOMAINS - 1)) % DOMAINS;
        let dev = &fabric.domains[td].devices[gh % devices_per_domain];
        let cfg = LoadCfg {
            fha: host.fha,
            base: dev.range.base,
            len: 1 << 20,
            op_bytes: OP_BYTES,
            write: true,
            window: 4,
            count: Some(ops),
            stop_at: SimTime::from_us(1_000_000.0),
            pattern: AddrPattern::Sequential,
        };
        let engine = sharded.engine_mut(d);
        let lg = engine.add_component(format!("load-h{gh}"), LoadGen::new(cfg));
        engine.post(lg, SimTime::ZERO, StartLoad);
        loads.push((d, lg));
    }
    sharded.run(shards);
    // Deterministic harvest, in domain order.
    let harvest = cap.end("e14", sharded.engines(), &fabric.domains);
    let mut credit_violations = 0u64;
    let mut makespan = SimTime::ZERO;
    for (d, topo) in fabric.domains.iter().enumerate() {
        let engine = sharded.engine(d);
        for &sw in &topo.switches {
            credit_violations += engine.component::<FabricSwitch>(sw).vc_violations();
        }
        makespan = makespan.max(engine.now());
    }
    let completed: u64 = loads
        .iter()
        .map(|&(d, lg)| sharded.engine(d).component::<LoadGen>(lg).completed())
        .sum();
    E14Result {
        hosts: loads.len(),
        switches: plan.switches.len(),
        completed,
        expected: loads.len() as u64 * ops,
        makespan_us: makespan.as_us(),
        deadlock_events: harvest.stranded,
        credit_violations,
        audit_findings: harvest.audit.findings.len() as u64,
        total_events: sharded.total_events(),
    }
}

impl fmt::Display for E14Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E14 — {}-host spine-leaf wormhole pod, {} switches across {DOMAINS} domains",
            self.hosts, self.switches
        )?;
        let rows = vec![
            vec![
                "writes completed".to_string(),
                format!("{}/{}", self.completed, self.expected),
            ],
            vec![
                "makespan (us)".to_string(),
                format!("{:.1}", self.makespan_us),
            ],
            vec![
                "throughput (ops/us)".to_string(),
                format!("{:.2}", self.ops_us()),
            ],
            vec![
                "deadlock events".to_string(),
                format!("{}", self.deadlock_events),
            ],
            vec![
                "vc credit violations".to_string(),
                format!("{}", self.credit_violations),
            ],
            vec![
                "ledger audit findings".to_string(),
                format!("{}", self.audit_findings),
            ],
        ];
        write!(f, "{}", crate::fmt_table(&["metric", "value"], &rows))?;
        writeln!(
            f,
            "{} events — every cross-spine worm drained through escape-VC \
             routing with conserved credits",
            self.total_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `shards` selects worker threads, never the decomposition: scalar
    /// results and event counts are identical for any fan-out.
    #[test]
    fn results_identical_across_worker_counts() {
        let base = run_e14(true, &mut Capture::disabled(), 7, 1);
        for workers in [2, 4, 8] {
            let r = run_e14(true, &mut Capture::disabled(), 7, workers);
            assert_eq!(r.total_events, base.total_events, "workers={workers}");
            assert_eq!(r.completed, base.completed);
            assert_eq!(r.makespan_us, base.makespan_us);
        }
    }

    /// The pod drains completely: no deadlock, no credit loss, audits
    /// clean — the runtime counterpart of `check-routing`'s proof.
    #[test]
    fn pod_quiesces_without_deadlock() {
        let r = run_e14(true, &mut Capture::disabled(), 0, 1);
        assert_eq!(r.hosts, 32, "quick pod: 8 spines x 1 leaf x 4 hosts");
        assert!(
            r.quiesced_clean(),
            "completed {}/{}, deadlocks {}, violations {}, findings {}",
            r.completed,
            r.expected,
            r.deadlock_events,
            r.credit_violations,
            r.audit_findings
        );
        assert!(r.makespan_us > 0.0);
    }
}
