//! F1 — Figure 1: the composable infrastructure, discovered and verified.
//!
//! Builds the paper's Figure 1 topology (two host servers, two fabric
//! switches, two FAM chassis, one FAA chassis), runs the fabric manager's
//! discovery + routing-table fill, then verifies connectivity with a
//! cross-fabric traffic pass from every host to every memory device.

use std::fmt;

use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_fabric::manager::StartDiscovery;
use fcc_fabric::switch::FabricSwitch;
use fcc_fabric::topology::{self, TopologySpec};
use fcc_sim::{Engine, Inbox, SimTime};

/// F1 outcome.
pub struct F1Result {
    /// Hosts discovered.
    pub hosts: usize,
    /// Devices discovered.
    pub devices: usize,
    /// Switches.
    pub switches: usize,
    /// PBR entries installed across all switches.
    pub routes: usize,
    /// Verification reads that completed.
    pub verified: usize,
    /// Verification reads attempted.
    pub attempted: usize,
    /// Mean cross-fabric read latency (ns).
    pub mean_read_ns: f64,
}

type Sink = Inbox<HostCompletion>;

/// Runs F1 with RNG seed salt `seed`.
pub fn run(seed: u64) -> F1Result {
    let mut engine = Engine::new(0xF1 ^ seed);
    let topo = topology::figure1(&mut engine, TopologySpec::default());
    let manager = topo.manager.expect("figure1 provides a manager");
    engine.post(manager, SimTime::ZERO, StartDiscovery);
    engine.run_until_idle();
    let routes: usize = topo
        .switches
        .iter()
        .map(|&s| engine.component::<FabricSwitch>(s).routing.pbr_entries())
        .sum();
    // Verification: every host reads 64 B from every memory device.
    let sink = engine.add_component("verify-sink", Sink::default());
    let mut attempted = 0;
    let t0 = engine.now();
    for h in &topo.hosts {
        for d in &topo.devices {
            if d.range.len < 4096 {
                continue;
            }
            attempted += 1;
            engine.post(
                h.fha,
                t0,
                HostRequest {
                    op: HostOp::Read {
                        addr: d.range.base,
                        bytes: 64,
                    },
                    tag: attempted as u64,
                    reply_to: sink,
                },
            );
        }
    }
    engine.run_until_idle();
    let done = engine.component::<Sink>(sink).messages();
    let mean_read_ns = if done.is_empty() {
        0.0
    } else {
        done.iter().map(|c| c.latency().as_ns()).sum::<f64>() / done.len() as f64
    };
    F1Result {
        hosts: topo.hosts.len(),
        devices: topo.devices.len(),
        switches: topo.switches.len(),
        routes,
        verified: done.len(),
        attempted,
        mean_read_ns,
    }
}

impl fmt::Display for F1Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "F1 — Figure 1 composable infrastructure (discovered)")?;
        writeln!(
            f,
            "  {} host servers, {} switches, {} fabric-attached devices",
            self.hosts, self.switches, self.devices
        )?;
        writeln!(
            f,
            "  fabric manager installed {} PBR routes across the fabric",
            self.routes
        )?;
        writeln!(
            f,
            "  connectivity: {}/{} host→device reads completed, mean {:.0} ns",
            self.verified, self.attempted, self.mean_read_ns
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_discovers_and_routes_everything() {
        let r = run(0);
        assert_eq!(r.hosts, 2);
        assert_eq!(r.devices, 8);
        assert_eq!(r.switches, 2);
        // Each switch learns all 10 endpoints.
        assert_eq!(r.routes, 20);
        assert_eq!(r.verified, r.attempted, "full connectivity");
        assert!(r.mean_read_ns > 100.0);
    }
}
