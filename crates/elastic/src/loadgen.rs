//! A closed-loop, heap-directed load generator for churn experiments.
//!
//! [`HeapLoadGen`] keeps a window of outstanding operations against a
//! Zipf-popular working set of heap objects. Every operation resolves its
//! object through the live heap (so placements moved by a drain are
//! followed transparently — the paper's migration-transparent smart
//! pointer) and issues a real fabric request through an FHA. Operations
//! whose flits are dropped (a yanked node) never complete and pin their
//! window slot forever; the generator reports them as outstanding work,
//! so a wedged run surfaces in
//! [`deadlock_report`](fcc_sim::Engine::deadlock_report).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use fcc_core::heap::FabricBox;
use fcc_fabric::adapter::{HostCompletion, HostOp, HostRequest};
use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, PendingWork, SimTime};
use fcc_workloads::ZipfStream;
use rand::Rng;

use crate::composer::{ClusterState, LockClusterState};

/// Kick-off message: post one to the generator at start time.
#[derive(Debug, Clone, Copy)]
pub struct StartLoad;

/// The closed-loop generator.
pub struct HeapLoadGen {
    state: Arc<Mutex<ClusterState>>,
    fha: ComponentId,
    host: u16,
    objects: Vec<FabricBox>,
    zipf: ZipfStream,
    window: usize,
    stop_at: SimTime,
    in_flight: BTreeMap<u64, (FabricBox, SimTime)>,
    next_tag: u64,
    /// Completed-operation latency (ps).
    pub latency: Histogram,
    /// Operations issued.
    pub issued: Counter,
    /// Operations completed.
    pub completed: Counter,
    /// Picks skipped because the object's handle no longer resolves.
    pub skipped: Counter,
}

impl HeapLoadGen {
    /// Creates a generator over `objects` with Zipf skew `theta`, keeping
    /// `window` operations outstanding through `fha` until `stop_at`.
    ///
    /// # Panics
    ///
    /// Panics if `objects` is empty or `window` is zero.
    pub fn new(
        state: Arc<Mutex<ClusterState>>,
        fha: ComponentId,
        host: u16,
        objects: Vec<FabricBox>,
        theta: f64,
        window: usize,
        stop_at: SimTime,
    ) -> Self {
        assert!(!objects.is_empty(), "empty working set");
        assert!(window > 0, "zero window");
        let zipf = ZipfStream::new(objects.len() as u64, theta);
        HeapLoadGen {
            state,
            fha,
            host,
            objects,
            zipf,
            window,
            stop_at,
            in_flight: BTreeMap::new(),
            next_tag: 0,
            latency: Histogram::new(),
            issued: Counter::new(),
            completed: Counter::new(),
            skipped: Counter::new(),
        }
    }

    fn fill(&mut self, ctx: &mut Ctx<'_>) {
        while self.in_flight.len() < self.window && ctx.now() <= self.stop_at {
            let pick = self.zipf.next(ctx.rng()) as usize;
            let obj = self.objects[pick];
            let is_write = ctx.rng().gen_range(0..10u32) < 3;
            // Resolve through the live heap: migrations are transparent.
            let addr = {
                let mut st = self.state.lock_state();
                match st.heap.locate(obj) {
                    Ok((node, bin)) => {
                        // Update the object's access profile (temperature,
                        // sharers) like a real accessor would.
                        let _ = st.heap.access(obj, self.host, is_write);
                        st.fabric_addr(node, bin)
                    }
                    Err(_) => {
                        self.skipped.inc();
                        continue;
                    }
                }
            };
            let tag = self.next_tag;
            self.next_tag += 1;
            self.in_flight.insert(tag, (obj, ctx.now()));
            self.issued.inc();
            ctx.send(
                self.fha,
                SimTime::ZERO,
                HostRequest {
                    op: if is_write {
                        HostOp::Write { addr, bytes: 64 }
                    } else {
                        HostOp::Read { addr, bytes: 64 }
                    },
                    tag,
                    reply_to: ctx.self_id(),
                },
            );
        }
    }
}

impl Component for HeapLoadGen {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<StartLoad>() {
            Ok(StartLoad) => {
                self.fill(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<HostCompletion>() {
            Ok(hc) => {
                if self.in_flight.remove(&hc.tag).is_some() {
                    self.latency.record_time(hc.latency());
                    self.completed.inc();
                }
                self.fill(ctx);
            }
            Err(m) => ctx.reject(m.type_name()),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        out.extend(
            self.in_flight
                .iter()
                .map(|(&tag, &(obj, since))| PendingWork {
                    what: format!("op {tag} on {} B object (issued {since})", obj.size()),
                    waiting_on: Some(self.fha),
                }),
        );
    }
}

#[cfg(test)]
mod tests {
    use fcc_core::heap::PlacementHint;
    use fcc_fabric::topology::TopologySpec;
    use fcc_memnode::profile::{MemNodeKind, MemNodeProfile};
    use fcc_sim::Engine;

    use crate::composer::ElasticCluster;

    use super::*;

    #[test]
    fn closed_loop_sustains_window_and_stops() {
        let mut engine = Engine::new(31);
        let cluster = ElasticCluster::build(
            &mut engine,
            TopologySpec::default(),
            1,
            vec![MemNodeProfile::omega_like(
                MemNodeKind::CpulessNuma,
                1 << 20,
            )],
        );
        let objs: Vec<FabricBox> = {
            let mut st = cluster.state().lock_state();
            (0..16)
                .map(|i| {
                    let o = st.heap.alloc(1024, PlacementHint::Auto).expect("fits");
                    st.store.insert(o, i);
                    o
                })
                .collect()
        };
        let fha = cluster.state().lock_state().topo.hosts[0].fha;
        let gen = engine.add_component(
            "loadgen",
            HeapLoadGen::new(
                Arc::clone(cluster.state()),
                fha,
                100,
                objs,
                1.1,
                4,
                SimTime::from_us(50.0),
            ),
        );
        engine.post(gen, SimTime::ZERO, StartLoad);
        engine.run_until_idle();
        let g = engine.component::<HeapLoadGen>(gen);
        assert!(g.completed.get() > 20, "completed {}", g.completed.get());
        assert_eq!(g.completed.get(), g.issued.get(), "loop drained cleanly");
        assert!(g.latency.quantile(0.5) > 0);
        assert!(engine.deadlock_report().is_none());
    }
}
