//! E3x — E3e's credit-starvation pathology at rack scale: 64 tenants
//! across an eight-domain sharded fabric chain.
//!
//! Where E3e shows one hog starving one victim across a three-switch
//! chain, E3x composes the same mechanics at the scale the paper argues
//! fabrics must operate: eight single-switch domains joined by long-haul
//! cables ([`fcc_fabric::sharded::sharded_chain`]), eight tenants per
//! domain. Six victims per domain issue shallow 64 B writes to their
//! local device; one bulk writer per domain streams 4 KiB writes locally;
//! one hog per domain camps a *remote* device four chain hops away with a
//! deep window, so every inter-domain cable carries standing backlog in
//! both directions.
//!
//! The scenario always runs on the sharded executor
//! ([`fcc_sim::ShardedEngine`], one shard per domain); the `shards`
//! argument picks only the **worker-thread fan-out**, never the
//! decomposition, so results and telemetry exports are byte-identical for
//! any value. This is the workload `bench_gate shards` uses to prove the
//! conservative-lookahead executor's wall-clock win.

use std::fmt;

use fcc_fabric::credit::AllocPolicy;
use fcc_fabric::sharded::{sharded_chain, DomainSpec, ShardedFabric};
use fcc_fabric::switch::QueueDiscipline;
use fcc_sim::{jain_fairness, ComponentId, ShardedEngine, SimTime};

use crate::capture::Capture;
use crate::exp_e3::{fabrex_device, fabrex_spec};
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

/// Switch domains in the chain (= shards of the executor).
pub const DOMAINS: usize = 8;
/// Tenants (load generators) per domain.
pub const TENANTS_PER_DOMAIN: usize = 8;
/// One-way latency of each inter-domain cable — and therefore the
/// executor's conservative lookahead.
pub const CROSS_LATENCY_NS: f64 = 200.0;

/// Victim tenants per domain (shallow local 64 B writers).
const VICTIMS_PER_DOMAIN: usize = 6;
/// The bulk tenant's per-op transfer size.
const BULK_BYTES: u32 = 4096;
/// The hog's window depth: enough to fill its FEA queue and camp the
/// inter-domain cable credits, as in E3e.
const HOG_WINDOW: usize = 48;

/// E3x outcome.
pub struct E3xResult {
    /// Total tenant load generators.
    pub tenants: usize,
    /// Mean victim throughput (ops/µs) across all domains.
    pub victim_ops_us: f64,
    /// Jain fairness index over the individual victim throughputs.
    pub victim_fairness: f64,
    /// Mean bulk-writer throughput (ops/µs).
    pub bulk_ops_us: f64,
    /// Mean cross-domain hog throughput (ops/µs).
    pub hog_ops_us: f64,
    /// Events dispatched across all shard engines (deterministic).
    pub total_events: u64,
}

/// Runs E3x, feeding telemetry into `cap`, with `shards` worker threads.
pub fn run_x(quick: bool, cap: &mut Capture, seed: u64, shards: usize) -> E3xResult {
    let horizon = if quick {
        SimTime::from_us(25.0)
    } else {
        SimTime::from_us(120.0)
    };
    let mut sharded = ShardedEngine::new(0xE3C0 ^ seed, DOMAINS);
    let mut spec = fabrex_spec(QueueDiscipline::Fifo, AllocPolicy::Fair);
    spec.fha_outstanding = 128;
    let domains = (0..DOMAINS)
        .map(|_| DomainSpec {
            n_hosts: TENANTS_PER_DOMAIN,
            devices: vec![fabrex_device()],
        })
        .collect();
    let fabric: ShardedFabric = sharded_chain(
        &mut sharded,
        spec,
        domains,
        SimTime::from_ns(CROSS_LATENCY_NS),
    );
    cap.begin_sharded("e3x", &mut sharded, &fabric);
    // Tenants. Per domain: six shallow local victims, one local bulk
    // streamer, one deep-window hog camping the device four hops away.
    let mut victims: Vec<(usize, ComponentId)> = Vec::new();
    let mut bulks: Vec<(usize, ComponentId)> = Vec::new();
    let mut hogs: Vec<(usize, ComponentId)> = Vec::new();
    for d in 0..DOMAINS {
        let local_range = fabric.domains[d].devices[0].range;
        let remote_range = fabric.domains[(d + DOMAINS / 2) % DOMAINS].devices[0].range;
        for h in 0..TENANTS_PER_DOMAIN {
            let fha = fabric.domains[d].hosts[h].fha;
            let (base, op_bytes, window, class) = if h < VICTIMS_PER_DOMAIN {
                (local_range.base, 64, 4, 0u8)
            } else if h == VICTIMS_PER_DOMAIN {
                (local_range.base + (1 << 24), BULK_BYTES, 8, 1)
            } else {
                (remote_range.base, 64, HOG_WINDOW, 2)
            };
            let cfg = LoadCfg {
                fha,
                base,
                len: 1 << 20,
                op_bytes,
                write: true,
                window,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            };
            let engine = sharded.engine_mut(d);
            let lg = engine.add_component(format!("load-d{d}h{h}"), LoadGen::new(cfg));
            engine.post(lg, SimTime::ZERO, StartLoad);
            match class {
                0 => victims.push((d, lg)),
                1 => bulks.push((d, lg)),
                _ => hogs.push((d, lg)),
            }
        }
    }
    sharded.run(shards);
    cap.end_sharded("e3x", &sharded, &fabric);
    let tput = |lgs: &[(usize, ComponentId)]| -> Vec<f64> {
        lgs.iter()
            .map(|&(d, lg)| {
                sharded.engine(d).component::<LoadGen>(lg).completed() as f64 / horizon.as_us()
            })
            .collect()
    };
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let victim_tputs = tput(&victims);
    E3xResult {
        tenants: DOMAINS * TENANTS_PER_DOMAIN,
        victim_ops_us: mean(&victim_tputs),
        victim_fairness: jain_fairness(&victim_tputs),
        bulk_ops_us: mean(&tput(&bulks)),
        hog_ops_us: mean(&tput(&hogs)),
        total_events: sharded.total_events(),
    }
}

impl fmt::Display for E3xResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "E3x — {} tenants across {DOMAINS} sharded switch domains",
            self.tenants
        )?;
        let rows = vec![
            vec![
                "victims (local 64 B)".to_string(),
                format!("{:.2}", self.victim_ops_us),
            ],
            vec![
                "bulk (local 4 KiB)".to_string(),
                format!("{:.2}", self.bulk_ops_us),
            ],
            vec![
                "hogs (cross-domain 64 B)".to_string(),
                format!("{:.2}", self.hog_ops_us),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["tenant class", "ops/us"], &rows)
        )?;
        writeln!(
            f,
            "victim fairness {:.3} (Jain), {} events — cross-domain hogs keep \
             every inter-domain cable loaded in both directions",
            self.victim_fairness, self.total_events
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scenario's scalar results and event count are identical for
    /// any worker fan-out (shards select threads, not decomposition).
    #[test]
    fn results_identical_across_worker_counts() {
        let base = run_x(true, &mut Capture::disabled(), 7, 1);
        for workers in [2, 4] {
            let r = run_x(true, &mut Capture::disabled(), 7, workers);
            assert_eq!(r.total_events, base.total_events, "workers={workers}");
            assert_eq!(r.victim_ops_us, base.victim_ops_us);
            assert_eq!(r.bulk_ops_us, base.bulk_ops_us);
            assert_eq!(r.hog_ops_us, base.hog_ops_us);
        }
    }

    #[test]
    fn every_tenant_class_makes_progress() {
        let r = run_x(true, &mut Capture::disabled(), 0, 1);
        assert_eq!(r.tenants, 64);
        assert!(r.victim_ops_us > 0.0, "victims starved completely");
        assert!(r.bulk_ops_us > 0.0, "bulk writers starved completely");
        assert!(r.hog_ops_us > 0.0, "hogs starved completely");
        assert!(r.victim_fairness > 0.5, "victim fairness collapsed");
    }
}
