//! Ablations of the fabric design choices.
//!
//! Three knobs the paper's architecture leaves open, each measured:
//!
//! * [`run_flit`] — 68 B (CXL 1.1/2.0) vs 256 B (CXL 3.x) flit framing:
//!   big flits cut per-flit switch work for bulk transfers but waste wire
//!   on 64 B operations — a crossover, not a win.
//! * [`run_adaptive`] — adaptive routing over parallel inter-switch paths
//!   vs deterministic single-path routing under saturation.
//! * [`run_credits`] — link-layer credit depth vs bulk throughput: until
//!   the buffer covers the link's bandwidth-delay product, credit-return
//!   latency throttles every transfer (the §3 D#3 "credit allocation"
//!   sizing problem, quantified).

use std::fmt;

use fcc_fabric::endpoint::{Endpoint, PipelinedMemory};
use fcc_fabric::switch::{FabricSwitch, SwitchConfig};
use fcc_fabric::topology::{self, TopologySpec, FAM_BASE};
use fcc_proto::addr::NodeId;
use fcc_proto::flit::FlitMode;
use fcc_proto::link::CreditConfig;
use fcc_proto::phys::PhysConfig;
use fcc_sim::{Engine, SimTime};

use crate::calib;
use crate::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};

fn device() -> Box<dyn Endpoint> {
    Box::new(PipelinedMemory::new(
        SimTime::from_ns(200.0),
        SimTime::from_ns(220.0),
        SimTime::from_ns(20.0),
        1 << 30,
    ))
}

// ---------------------------------------------------------------- flit --

/// Flit-mode ablation outcome.
pub struct FlitAblation {
    /// 16 KiB read throughput, ops/µs: `(flit68, flit256)`.
    pub bulk: (f64, f64),
    /// 64 B read mean latency, ns: `(flit68, flit256)`.
    pub small: (f64, f64),
}

fn run_mode(mode: FlitMode, op_bytes: u32, count: u64, seed: u64) -> (f64, f64) {
    let mut engine = Engine::new(0xAB1 ^ seed);
    let phys = PhysConfig {
        flit_mode: mode,
        ..PhysConfig::omega_like()
    };
    let spec = TopologySpec {
        switch: SwitchConfig {
            phys,
            fwd_latency: SimTime::from_ns(90.0),
            ..SwitchConfig::fabrex_like()
        },
        credit: CreditConfig {
            buffer_flits: 512,
            return_threshold: 16,
            ..CreditConfig::default()
        },
        fha_outstanding: 64,
    };
    let topo = topology::single_switch(&mut engine, spec, 1, vec![device()]);
    let lg = engine.add_component(
        "lg",
        LoadGen::new(LoadCfg {
            fha: topo.hosts[0].fha,
            base: FAM_BASE,
            len: 16 << 20,
            op_bytes,
            write: false,
            window: 8,
            count: Some(count),
            stop_at: SimTime::MAX,
            pattern: AddrPattern::Sequential,
        }),
    );
    engine.post(lg, SimTime::ZERO, StartLoad);
    engine.run_until_idle();
    let g = engine.component::<LoadGen>(lg);
    (g.ops_per_us(), g.latency.summary_ns().mean)
}

/// Runs the flit-mode ablation with RNG seed salt `seed`.
pub fn run_flit(quick: bool, seed: u64) -> FlitAblation {
    let bulk_n = if quick { 200 } else { 1000 };
    let small_n = if quick { 500 } else { 3000 };
    let b68 = run_mode(FlitMode::Flit68, 16384, bulk_n, seed);
    let b256 = run_mode(FlitMode::Flit256, 16384, bulk_n, seed);
    let s68 = run_mode(FlitMode::Flit68, 64, small_n, seed);
    let s256 = run_mode(FlitMode::Flit256, 64, small_n, seed);
    FlitAblation {
        bulk: (b68.0, b256.0),
        small: (s68.1, s256.1),
    }
}

impl fmt::Display for FlitAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ablation — flit framing (same Gen5 x16 wire)")?;
        let rows = vec![
            vec![
                "16 KiB read tput (ops/us)".to_string(),
                format!("{:.2}", self.bulk.0),
                format!("{:.2}", self.bulk.1),
            ],
            vec![
                "64 B read latency (ns)".to_string(),
                format!("{:.0}", self.small.0),
                format!("{:.0}", self.small.1),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["metric", "68 B flits", "256 B flits"], &rows)
        )?;
        writeln!(
            f,
            "big flits win bulk (fewer per-flit switch traversals), small \
             ops pay the padded frame"
        )
    }
}

// ------------------------------------------------------------ adaptive --

/// Adaptive-routing ablation outcome.
pub struct AdaptiveAblation {
    /// Aggregate throughput, ops/µs, single deterministic path.
    pub deterministic: f64,
    /// Aggregate throughput with adaptive spreading over two paths.
    pub adaptive: f64,
}

/// Builds hosts → s0 → {sA | sB} → s1 → {dev0, dev1}: the two relay
/// links are the only shared segment. Deterministic routing sends both
/// write flows through relay A; adaptive routing spreads them.
fn run_paths(adaptive: bool, quick: bool, seed: u64) -> f64 {
    let horizon = if quick {
        SimTime::from_us(100.0)
    } else {
        SimTime::from_us(400.0)
    };
    let mut engine = Engine::new(0xAB2 ^ seed);
    let credit = CreditConfig {
        buffer_flits: 512,
        overcommit: 1.0,
        return_threshold: 32,
        retry_depth: 4096,
    };
    let cfg = SwitchConfig {
        phys: PhysConfig::omega_like(),
        credit,
        fwd_latency: SimTime::from_ns(90.0),
        adaptive,
        ..SwitchConfig::fabrex_like()
    };
    let s0 = engine.add_component("s0", FabricSwitch::new(cfg));
    let sa = engine.add_component("sA", FabricSwitch::new(cfg));
    let sb = engine.add_component("sB", FabricSwitch::new(cfg));
    let s1 = engine.add_component("s1", FabricSwitch::new(cfg));
    let wire = |engine: &mut Engine, a: fcc_sim::ComponentId, b: fcc_sim::ComponentId| {
        let pa = {
            let s = engine.component_mut::<FabricSwitch>(a);
            let p = s.add_port();
            s.connect(p, b);
            p
        };
        let pb = {
            let s = engine.component_mut::<FabricSwitch>(b);
            let p = s.add_port();
            s.connect(p, a);
            p
        };
        (pa, pb)
    };
    let (s0_to_a, a_to_s0) = wire(&mut engine, s0, sa);
    let (s0_to_b, b_to_s0) = wire(&mut engine, s0, sb);
    let (sa_to_s1, s1_to_a) = wire(&mut engine, sa, s1);
    let (sb_to_s1, s1_to_b) = wire(&mut engine, sb, s1);
    // Two devices on s1, one per flow; the address map covers both.
    let mut map = fcc_proto::addr::AddrMap::new();
    let mut dev_nodes = Vec::new();
    for d in 0..2u16 {
        let node = NodeId(100 + d);
        dev_nodes.push(node);
        map.add_direct(
            fcc_proto::addr::AddrRange::new(FAM_BASE + (d as u64) * (1 << 24), 1 << 24),
            node,
        );
    }
    for (d, &node) in dev_nodes.iter().enumerate() {
        let fea = engine.add_component(
            format!("fea{d}"),
            fcc_fabric::adapter::Fea::new(
                node,
                cfg.phys,
                credit,
                Box::new(PipelinedMemory::new(
                    SimTime::from_ns(100.0),
                    SimTime::from_ns(100.0),
                    SimTime::from_ns(10.0),
                    1 << 24,
                )),
            ),
        );
        let s = engine.component_mut::<FabricSwitch>(s1);
        let p = s.add_port();
        s.connect(p, fea);
        s.routing.add_pbr(node, p);
        engine
            .component_mut::<fcc_fabric::adapter::Fea>(fea)
            .connect(s1);
        // Relays forward device traffic toward s1.
        engine
            .component_mut::<FabricSwitch>(sa)
            .routing
            .add_pbr(node, sa_to_s1);
        engine
            .component_mut::<FabricSwitch>(sb)
            .routing
            .add_pbr(node, sb_to_s1);
        // s0 knows both relays as candidates (adaptive picks; the first
        // entry is the deterministic choice).
        {
            let s = engine.component_mut::<FabricSwitch>(s0);
            s.routing.add_pbr(node, s0_to_a);
            s.routing.add_pbr(node, s0_to_b);
        }
    }
    // Hosts on s0, each writing to its own device.
    let mut lgs = Vec::new();
    for h in 0..2u16 {
        let nid = NodeId(1 + h);
        let fha = engine.add_component(
            format!("fha{h}"),
            fcc_fabric::adapter::Fha::new(nid, cfg.phys, credit, map.clone(), 64),
        );
        {
            let s = engine.component_mut::<FabricSwitch>(s0);
            let p = s.add_port();
            s.connect(p, fha);
            s.routing.add_pbr(nid, p);
        }
        engine
            .component_mut::<fcc_fabric::adapter::Fha>(fha)
            .connect(s0);
        // Return routes: completions come back via either relay.
        {
            let s = engine.component_mut::<FabricSwitch>(s1);
            s.routing.add_pbr(nid, s1_to_a);
            s.routing.add_pbr(nid, s1_to_b);
        }
        engine
            .component_mut::<FabricSwitch>(sa)
            .routing
            .add_pbr(nid, a_to_s0);
        engine
            .component_mut::<FabricSwitch>(sb)
            .routing
            .add_pbr(nid, b_to_s0);
        let lg = engine.add_component(
            format!("lg{h}"),
            LoadGen::new(LoadCfg {
                fha,
                base: FAM_BASE + (h as u64) * (1 << 24),
                len: 1 << 22,
                op_bytes: 4096,
                write: true,
                window: 32,
                count: None,
                stop_at: horizon,
                pattern: AddrPattern::Sequential,
            }),
        );
        engine.post(lg, SimTime::ZERO, StartLoad);
        lgs.push(lg);
    }
    engine.run_until_idle();
    lgs.iter()
        .map(|&lg| engine.component::<LoadGen>(lg).completed() as f64 / horizon.as_us())
        .sum()
}

/// Runs the adaptive-routing ablation with RNG seed salt `seed`.
pub fn run_adaptive(quick: bool, seed: u64) -> AdaptiveAblation {
    AdaptiveAblation {
        deterministic: run_paths(false, quick, seed),
        adaptive: run_paths(true, quick, seed),
    }
}

impl AdaptiveAblation {
    /// Throughput gain from path diversity.
    pub fn gain(&self) -> f64 {
        self.adaptive / self.deterministic
    }
}

impl fmt::Display for AdaptiveAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "ablation — adaptive routing over parallel paths")?;
        let rows = vec![
            vec![
                "deterministic (one relay)".to_string(),
                format!("{:.2}", self.deterministic),
            ],
            vec![
                "adaptive (two relays)".to_string(),
                format!("{:.2}", self.adaptive),
            ],
        ];
        write!(
            f,
            "{}",
            crate::fmt_table(&["routing", "aggregate 4 KiB-write ops/us"], &rows)
        )?;
        writeln!(f, "gain: {:.2}x", self.gain())
    }
}

// ------------------------------------------------------------- credits --

/// Credit-depth ablation outcome: `(buffer_flits, bulk ops/µs)`.
pub struct CreditAblation {
    /// Sweep points.
    pub points: Vec<(u32, f64)>,
}

/// Runs the credit-depth sweep on the long calibrated links with RNG seed salt `seed`.
pub fn run_credits(quick: bool, seed: u64) -> CreditAblation {
    let count = if quick { 150 } else { 800 };
    let mut points = Vec::new();
    for &flits in &[16u32, 128, 1024, 2048] {
        let mut engine = Engine::new(0xAB3 ^ seed);
        let credit = CreditConfig {
            buffer_flits: flits,
            overcommit: 1.0,
            return_threshold: (flits / 8).max(1),
            retry_depth: 4096,
        };
        let spec = TopologySpec {
            switch: SwitchConfig {
                credit,
                ..calib::switch_cfg()
            },
            credit,
            fha_outstanding: 64,
        };
        let topo = topology::single_switch(&mut engine, spec, 1, vec![calib::fam(1 << 30)]);
        let lg = engine.add_component(
            "lg",
            LoadGen::new(LoadCfg {
                fha: topo.hosts[0].fha,
                base: FAM_BASE,
                len: 16 << 20,
                op_bytes: 16384,
                write: false,
                window: 4,
                count: Some(count),
                stop_at: SimTime::MAX,
                pattern: AddrPattern::Sequential,
            }),
        );
        engine.post(lg, SimTime::ZERO, StartLoad);
        engine.run_until_idle();
        points.push((flits, engine.component::<LoadGen>(lg).ops_per_us()));
    }
    CreditAblation { points }
}

impl fmt::Display for CreditAblation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "ablation — link credit depth vs 16 KiB read throughput \
             (180 ns links: BDP ≈ 340 flits; data-response credits get 1/4 \
             of the buffer, so the knee sits near 4x that)"
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|&(f_, t)| vec![f_.to_string(), format!("{t:.3}")])
            .collect();
        write!(
            f,
            "{}",
            crate::fmt_table(&["buffer (flits)", "ops/us"], &rows)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_flits_win_bulk_small_ops_prefer_small_flits() {
        let r = run_flit(true, 0);
        assert!(
            r.bulk.1 > r.bulk.0 * 1.5,
            "256B flits should win bulk: {} vs {}",
            r.bulk.0,
            r.bulk.1
        );
        assert!(
            r.small.1 >= r.small.0,
            "64B ops should not get faster with padded flits: {} vs {}",
            r.small.0,
            r.small.1
        );
    }

    #[test]
    fn adaptive_routing_exploits_path_diversity() {
        let r = run_adaptive(true, 0);
        assert!(
            r.gain() > 1.3,
            "two paths should beat one: {} vs {}",
            r.deterministic,
            r.adaptive
        );
    }

    #[test]
    fn throughput_rises_until_bdp_then_flattens() {
        let r = run_credits(true, 0);
        let t16 = r.points[0].1;
        let t1024 = r.points[2].1;
        let t2048 = r.points[3].1;
        assert!(
            t1024 > t16 * 2.0,
            "deeper credits unthrottle bulk: {t16} → {t1024}"
        );
        assert!(
            t2048 <= t1024 * 1.3,
            "beyond the BDP the curve flattens: {t1024} → {t2048}"
        );
    }
}
