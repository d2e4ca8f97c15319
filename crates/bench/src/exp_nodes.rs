//! Memory-node-type comparison (§3 Difference #2, measured).
//!
//! The paper's point: "the performance and efficiency of memory fabric
//! hinge on the chosen memory node type and its access pattern and
//! locality". Here the CPU-less expander and the CC-NUMA node run through
//! the full fabric simulation:
//!
//! * **expander**: every access crosses the fabric — cheap hardware,
//!   constant (high) latency;
//! * **CC-NUMA, private lines**: after the cold miss, a [`CoherentL1`]
//!   hits locally — directory hardware buys locality;
//! * **CC-NUMA, write-shared lines**: two hosts ping-pong a line; every
//!   write pays a directory round trip *plus* a snoop round trip to the
//!   other host — coherence has a price exactly when sharing is real.

use std::fmt;

use fcc_cache::coherent::{CoherentAccess, CoherentDone, CoherentL1};
use fcc_fabric::adapter::{Fha, HostCompletion, HostOp, HostRequest};
use fcc_fabric::switch::{FabricSwitch, SwitchConfig};
use fcc_memnode::ccnuma::DirectoryNode;
use fcc_memnode::dram::DramTiming;
use fcc_proto::addr::{AddrMap, AddrRange, NodeId};
use fcc_proto::link::CreditConfig;
use fcc_proto::phys::PhysConfig;
use fcc_sim::{Component, ComponentId, Ctx, Engine, Msg, SimTime};

/// Node-type comparison outcome (mean ns per access).
pub struct NodeTypeResult {
    /// Raw expander access (every op crosses the fabric).
    pub expander_ns: f64,
    /// CC-NUMA private working set: cold miss then local hits.
    pub ccnuma_private_ns: f64,
    /// CC-NUMA write-shared line ping-pong between two hosts.
    pub ccnuma_pingpong_ns: f64,
    /// Snoops the directory issued during the ping-pong phase.
    pub snoops: u64,
}

struct Collect {
    latencies: Vec<SimTime>,
}

impl Component for Collect {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<CoherentDone>() {
            Ok(d) => {
                self.latencies.push(d.latency);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<HostCompletion>() {
            Ok(hc) => self.latencies.push(hc.latency()),
            Err(m) => ctx.reject(m.type_name()),
        }
    }
}

struct Rig {
    engine: Engine,
    fhas: Vec<ComponentId>,
    caches: Vec<ComponentId>,
    dir: ComponentId,
    sink: ComponentId,
}

fn build(seed: u64) -> Rig {
    let mut engine = Engine::new(0xD2 ^ seed);
    let phys = PhysConfig::omega_like();
    let credit = CreditConfig::default();
    let dir_nid = NodeId(10);
    let mut map = AddrMap::new();
    map.add_direct(AddrRange::new(0, 1 << 24), dir_nid);
    let sw = engine.add_component("fs", FabricSwitch::new(SwitchConfig::fabrex_like()));
    let mut fhas = Vec::new();
    let mut caches = Vec::new();
    for h in 0..2u16 {
        let nid = NodeId(1 + h);
        let fha = engine.add_component(
            format!("fha{h}"),
            Fha::new(nid, phys, credit, map.clone(), 8),
        );
        let cache = engine.add_component(
            format!("l1-{h}"),
            CoherentL1::new(fha, 256, SimTime::from_ns(5.0)),
        );
        engine.component_mut::<Fha>(fha).set_snoop_handler(cache);
        {
            let s = engine.component_mut::<FabricSwitch>(sw);
            let p = s.add_port();
            s.connect(p, fha);
            s.routing.add_pbr(nid, p);
        }
        engine.component_mut::<Fha>(fha).connect(sw);
        fhas.push(fha);
        caches.push(cache);
    }
    let dir = engine.add_component(
        "ccnuma",
        DirectoryNode::new(dir_nid, phys, credit, DramTiming::default(), 1 << 24),
    );
    {
        let s = engine.component_mut::<FabricSwitch>(sw);
        let p = s.add_port();
        s.connect(p, dir);
        s.routing.add_pbr(dir_nid, p);
    }
    engine.component_mut::<DirectoryNode>(dir).connect(sw);
    let sink = engine.add_component("collect", Collect { latencies: vec![] });
    Rig {
        engine,
        fhas,
        caches,
        dir,
        sink,
    }
}

fn drain_mean(rig: &mut Rig) -> f64 {
    rig.engine.run_until_idle();
    let c = rig.engine.component_mut::<Collect>(rig.sink);
    let lats = std::mem::take(&mut c.latencies);
    if lats.is_empty() {
        return 0.0;
    }
    lats.iter().map(|l| l.as_ns()).sum::<f64>() / lats.len() as f64
}

/// Runs the node-type comparison with RNG seed salt `seed`.
pub fn run(quick: bool, seed: u64) -> NodeTypeResult {
    let ops = if quick { 100 } else { 500 };
    // Expander-style: raw CXL.mem reads through the FHA (no local cache).
    let expander_ns = {
        let mut rig = build(seed);
        for i in 0..ops {
            let sink = rig.sink;
            rig.engine.post(
                rig.fhas[0],
                rig.engine.now(),
                HostRequest {
                    op: HostOp::Read {
                        addr: 0x10_0000 + i * 64,
                        bytes: 64,
                    },
                    tag: i,
                    reply_to: sink,
                },
            );
            rig.engine.run_until_idle();
        }
        drain_mean(&mut rig)
    };
    // CC-NUMA private: host 0 loops over a 64-line set that fits its L1.
    // One warm-up pass populates the cache; only the steady state counts.
    let ccnuma_private_ns = {
        let mut rig = build(seed);
        for warm in 0..64u64 {
            let sink = rig.sink;
            rig.engine.post(
                rig.caches[0],
                rig.engine.now(),
                CoherentAccess {
                    addr: 0x20_0000 + warm * 64,
                    write: false,
                    tag: warm,
                    reply_to: sink,
                },
            );
            rig.engine.run_until_idle();
        }
        let _ = drain_mean(&mut rig); // discard the cold pass.
        for round in 0..ops {
            let line = 0x20_0000 + (round % 64) * 64;
            let sink = rig.sink;
            rig.engine.post(
                rig.caches[0],
                rig.engine.now(),
                CoherentAccess {
                    addr: line,
                    write: false,
                    tag: 1000 + round,
                    reply_to: sink,
                },
            );
            rig.engine.run_until_idle();
        }
        drain_mean(&mut rig)
    };
    // CC-NUMA write-shared ping-pong on one line.
    let (ccnuma_pingpong_ns, snoops) = {
        let mut rig = build(seed);
        for round in 0..ops {
            let sink = rig.sink;
            rig.engine.post(
                rig.caches[(round % 2) as usize],
                rig.engine.now(),
                CoherentAccess {
                    addr: 0x30_0000,
                    write: true,
                    tag: round,
                    reply_to: sink,
                },
            );
            rig.engine.run_until_idle();
        }
        let mean = drain_mean(&mut rig);
        let snoops = rig
            .engine
            .component::<DirectoryNode>(rig.dir)
            .snoops_issued
            .get();
        (mean, snoops)
    };
    NodeTypeResult {
        expander_ns,
        ccnuma_private_ns,
        ccnuma_pingpong_ns,
        snoops,
    }
}

impl fmt::Display for NodeTypeResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "node types — §3 D#2 measured through the fabric (FabreX-like wire)"
        )?;
        let rows = vec![
            vec![
                "CPU-less expander (every access remote)".to_string(),
                format!("{:.0}", self.expander_ns),
            ],
            vec![
                "CC-NUMA, private working set (cached)".to_string(),
                format!("{:.0}", self.ccnuma_private_ns),
            ],
            vec![
                "CC-NUMA, write-shared ping-pong".to_string(),
                format!("{:.0}", self.ccnuma_pingpong_ns),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["node type / pattern", "mean access (ns)"], &rows)
        )?;
        writeln!(
            f,
            "directory snoops during ping-pong: {} (every write after the \
             first invalidates the other host)",
            self.snoops
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_type_ordering_holds() {
        let r = run(true, 0);
        // Private CC-NUMA data caches locally: far below the expander.
        assert!(
            r.ccnuma_private_ns < r.expander_ns / 5.0,
            "cached {} vs expander {}",
            r.ccnuma_private_ns,
            r.expander_ns
        );
        // Write sharing pays for the snoop round trip: worse than the
        // plain expander access.
        assert!(
            r.ccnuma_pingpong_ns > r.expander_ns,
            "ping-pong {} vs expander {}",
            r.ccnuma_pingpong_ns,
            r.expander_ns
        );
        // Nearly every ping-pong write snoops the other side.
        assert!(r.snoops as f64 > 0.8 * 100.0);
    }
}
