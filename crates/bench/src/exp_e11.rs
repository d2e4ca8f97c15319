//! E11 — online composition: churn under load.
//!
//! The paper's composable infrastructure keeps serving while chassis
//! join and leave (§2 observation 3, §3 D#5). E11 quantifies that claim
//! by running the same closed-loop Zipf workload over an
//! [`ElasticCluster`] under three regimes:
//!
//! * **steady** — fixed membership; the latency baseline.
//! * **managed** — a chassis hot-adds at T/4 (two-phase routing update),
//!   then the working-set node drains at T/2: live objects evacuate
//!   through throttled eTrans jobs and the node detaches at
//!   ledger-verified quiescence. The claim under test: zero lost
//!   objects, no deadlock, and bounded p99 inflation.
//! * **yank** — the same removal with no drain and no quiescence guard.
//!   Resident objects are destroyed and in-flight flits drop as
//!   unroutable, wedging the closed loop — the failure mode the managed
//!   path exists to prevent.
//!
//! With `--trace`, each scenario exports its reconfiguration epochs as
//! Perfetto instants on the `reconfig` track, and a wedged yank lands a
//! deadlock report in the trace.

use std::fmt;
use std::slice;
use std::sync::Arc;

use fcc_core::heap::{FabricBox, PlacementHint};
use fcc_elastic::{DrainReason, ElasticCluster, HeapLoadGen, LockClusterState, StartLoad};
use fcc_fabric::topology::TopologySpec;
use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
use fcc_sim::{Engine, SimTime};

use crate::capture::Capture;
use crate::fmt_table;

/// One scenario's outcome.
pub struct E11Scenario {
    /// Scenario label (`e11-steady`, `e11-managed`, `e11-yank`).
    pub label: &'static str,
    /// p99 operation latency, ns.
    pub p99_ns: f64,
    /// Mean operation latency, ns.
    pub mean_ns: f64,
    /// Operations completed.
    pub completed: u64,
    /// Operations issued.
    pub issued: u64,
    /// Objects whose byte images were destroyed.
    pub lost_objects: u64,
    /// Working-set objects with intact byte images at the end.
    pub survived: usize,
    /// Working-set size.
    pub objects: usize,
    /// Whether the run ended wedged (stranded in-flight work).
    pub deadlocked: bool,
    /// Reconfiguration epochs that elapsed.
    pub epochs: u64,
    /// Evacuation jobs submitted.
    pub evac_jobs: u64,
    /// Evacuation bytes submitted.
    pub evac_bytes: u64,
}

/// E11 outcome.
pub struct E11Result {
    /// Fixed membership baseline.
    pub steady: E11Scenario,
    /// Hot-add + managed drain under load.
    pub managed: E11Scenario,
    /// Unmanaged removal under load.
    pub yank: E11Scenario,
}

impl E11Result {
    /// Managed-drain p99 over the steady baseline.
    pub fn managed_p99_inflation(&self) -> f64 {
        self.managed.p99_ns / self.steady.p99_ns
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Steady,
    Managed,
    Yank,
}

fn fam() -> MemNodeProfile {
    MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 20)
}

fn run_scenario(mode: Mode, quick: bool, cap: &mut Capture, seed: u64) -> E11Scenario {
    let horizon = if quick {
        SimTime::from_us(200.0)
    } else {
        SimTime::from_us(800.0)
    };
    let (label, salt) = match mode {
        Mode::Steady => ("e11-steady", 0u64),
        Mode::Managed => ("e11-managed", 1),
        Mode::Yank => ("e11-yank", 2),
    };
    let mut engine = Engine::new((0xE11 + salt) ^ seed);
    let cluster =
        ElasticCluster::build(&mut engine, TopologySpec::default(), 1, vec![fam(), fam()]);
    cap.begin(
        label,
        slice::from_mut(&mut engine),
        slice::from_ref(&cluster.state().lock_state().topo),
    );
    if let Some(sink) = cap.domain_sink(0) {
        cluster.enable_tracing(&mut engine, sink);
    }
    // Working set: 4 KiB objects, all placed on one node (identical
    // tiers, stable placement order) — that node is the churn victim.
    let n_objs = if quick { 16 } else { 64 };
    let objs: Vec<FabricBox> = {
        let mut st = cluster.state().lock_state();
        (0..n_objs)
            .map(|i| {
                let obj = st
                    .heap
                    .alloc(4096, PlacementHint::Auto)
                    .expect("working set fits");
                st.store.insert(obj, 0xE11_5EED ^ i as u64);
                obj
            })
            .collect()
    };
    let victim = cluster
        .state()
        .lock_state()
        .heap
        .node_of(objs[0])
        .expect("freshly allocated");
    // Background evacuation is throttled so it contends with — but
    // cannot starve — the foreground window on the shared FHA.
    cluster.set_evacuation_limit(&mut engine, 16.0, 16 * 1024);
    let quarter = SimTime::from_ps(horizon.as_ps() / 4);
    let half = SimTime::from_ps(horizon.as_ps() / 2);
    match mode {
        Mode::Steady => {}
        Mode::Managed => {
            let c = cluster.clone();
            engine.call_at(quarter, move |e| {
                c.hot_add(e, fam());
            });
            let c = cluster.clone();
            engine.call_at(half, move |e| {
                c.begin_drain(e, victim, DrainReason::Planned);
            });
        }
        Mode::Yank => {
            let c = cluster.clone();
            engine.call_at(half, move |e| {
                c.naive_yank(e, victim);
            });
        }
    }
    let fha = cluster.state().lock_state().topo.hosts[0].fha;
    let gen = engine.add_component(
        "e11-loadgen",
        HeapLoadGen::new(
            Arc::clone(cluster.state()),
            fha,
            100,
            objs.clone(),
            1.1,
            8,
            horizon,
        ),
    );
    engine.post(gen, SimTime::ZERO, StartLoad);
    engine.run_until_idle();

    let g = engine.component::<HeapLoadGen>(gen);
    let p99_ns = g.latency.quantile(0.99) as f64 / 1000.0;
    let mean_ns = g.latency.mean() / 1000.0;
    let completed = g.completed.get();
    let issued = g.issued.get();
    let (lost_objects, survived, epochs, evac_jobs, evac_bytes) = {
        let st = cluster.state().lock_state();
        (
            st.lost_objects,
            st.surviving(&objs),
            st.epoch,
            st.evac_jobs,
            st.evac_bytes,
        )
    };
    // The end-of-run deadlock check reads the cluster state, so the
    // topology (grown by any hot-add) is copied out of its lock first.
    let topo = cluster.state().lock_state().topo.clone();
    let harvest = cap.end(label, slice::from_ref(&engine), slice::from_ref(&topo));
    if cap.is_enabled() {
        cluster.collect_metrics(&engine, &mut cap.metrics, &format!("{label}."));
    }
    E11Scenario {
        label,
        p99_ns,
        mean_ns,
        completed,
        issued,
        lost_objects,
        survived,
        objects: objs.len(),
        deadlocked: harvest.stranded > 0,
        epochs,
        evac_jobs,
        evac_bytes,
    }
}

/// Runs E11 with RNG seed salt `seed`, feeding telemetry into `cap`. Scenario
/// labels: `e11-steady`, `e11-managed`, `e11-yank`.
pub fn run(quick: bool, cap: &mut Capture, seed: u64) -> E11Result {
    E11Result {
        steady: run_scenario(Mode::Steady, quick, cap, seed),
        managed: run_scenario(Mode::Managed, quick, cap, seed),
        yank: run_scenario(Mode::Yank, quick, cap, seed),
    }
}

impl fmt::Display for E11Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "E11 — online composition: churn under load")?;
        let row = |s: &E11Scenario| {
            vec![
                s.label.to_string(),
                format!("{:.0}", s.p99_ns),
                format!("{:.0}", s.mean_ns),
                format!("{}/{}", s.completed, s.issued),
                format!("{}", s.lost_objects),
                format!("{}/{}", s.survived, s.objects),
                if s.deadlocked { "WEDGED" } else { "no" }.to_string(),
                format!("{}", s.epochs),
            ]
        };
        let rows = vec![row(&self.steady), row(&self.managed), row(&self.yank)];
        write!(
            f,
            "{}",
            fmt_table(
                &[
                    "scenario",
                    "p99 ns",
                    "mean ns",
                    "done/issued",
                    "lost",
                    "survived",
                    "deadlocked",
                    "epochs"
                ],
                &rows
            )
        )?;
        writeln!(
            f,
            "managed drain: {} evacuation jobs, {} B moved, p99 inflation {:.2}x",
            self.managed.evac_jobs,
            self.managed.evac_bytes,
            self.managed_p99_inflation()
        )?;
        writeln!(
            f,
            "naive yank: {} objects destroyed, closed loop {}",
            self.yank.lost_objects,
            if self.yank.deadlocked {
                "wedged (stranded in-flight ops)"
            } else {
                "survived"
            }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn managed_drain_is_lossless_while_yank_is_not() {
        let r = run(true, &mut Capture::disabled(), 0);
        assert_eq!(r.managed.lost_objects, 0, "managed drain loses nothing");
        assert_eq!(r.managed.survived, r.managed.objects);
        assert!(!r.managed.deadlocked, "managed drain never wedges");
        // AddStarted, NodeAnnounced, DrainStarted, EvacuationComplete,
        // NodeDetached.
        assert_eq!(r.managed.epochs, 5);
        assert!(r.managed.evac_jobs > 0, "objects actually moved");
        // The naive yank measurably degrades: data loss and a wedge.
        assert!(r.yank.lost_objects > 0, "yank destroys residents");
        assert!(r.yank.deadlocked, "yank strands the closed loop");
        // The managed path keeps serving: more completions than the
        // wedged yank run, and finite p99 inflation.
        assert!(r.managed.completed > r.yank.completed);
        assert!(r.managed_p99_inflation().is_finite());
    }
}
