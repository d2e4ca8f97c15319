//! KV semantics under concurrency: read-your-writes and no-lost-updates.
//!
//! The store serializes requests per key and joins each PUT's version
//! bump (an FAA invocation) with its data move; these tests drive a real
//! single-switch fabric topology — FHA, switch, device, migration agent,
//! transaction engine, FAA engine — and check the guarantees end to end.

use std::collections::VecDeque;

use fcc_core::{FaaEngine, FunctionTemplate, MigrationAgent, TransactionEngine};
use fcc_fabric::commfabric::{RdmaConfig, RdmaNic};
use fcc_fabric::endpoint::{Endpoint, FixedLatencyMemory};
use fcc_fabric::topology::{self, TopologySpec, FAM_BASE};
use fcc_serve::{Backend, KvOp, KvReply, KvRequest, KvStore, KvStoreCfg};
use fcc_sim::{Component, ComponentId, Ctx, Engine, Inbox, Msg, SimTime};

const KEY: u64 = 42;

/// Builds engine + fabric + store on the given backend; returns
/// `(engine, store_id)`.
fn setup(seed: u64, rdma: bool) -> (Engine, ComponentId) {
    setup_with_agents(seed, rdma, 1)
}

/// Like [`setup`], with `n_agents` migration agents behind the fabric
/// backend (the transaction engine's job-level concurrency).
fn setup_with_agents(seed: u64, rdma: bool, n_agents: usize) -> (Engine, ComponentId) {
    let mut engine = Engine::new(seed);
    let backend = if rdma {
        let nic = engine.add_component("nic", RdmaNic::new(RdmaConfig::kernel_bypass()));
        Backend::Rdma { nic }
    } else {
        let dev: Box<dyn Endpoint> = Box::new(FixedLatencyMemory::new(
            SimTime::from_ns(100.0),
            SimTime::from_ns(100.0),
            64 << 20,
        ));
        let topo = topology::single_switch(&mut engine, TopologySpec::default(), 1, vec![dev]);
        let agents: Vec<ComponentId> = (0..n_agents)
            .map(|a| {
                engine.add_component(
                    format!("agent{a}"),
                    MigrationAgent::new(topo.hosts[0].fha, 4096, 4),
                )
            })
            .collect();
        let etrans = engine.add_component("etrans", TransactionEngine::new(agents));
        Backend::Fabric { etrans }
    };
    let faa = engine.add_component(
        "faa",
        FaaEngine::new(
            vec![
                FunctionTemplate::uniform(0, SimTime::from_ns(50.0), 0.0, 1 << 16),
                FunctionTemplate::uniform(1, SimTime::from_ns(80.0), 0.0, 1 << 16),
            ],
            SimTime::from_ns(100.0),
            8,
        ),
    );
    let store = engine.add_component(
        "kv",
        KvStore::new(KvStoreCfg {
            backend,
            faa,
            hit_fn: 0,
            version_fn: 1,
            data_bases: vec![FAM_BASE],
            staging_bases: vec![FAM_BASE + (32 << 20)],
            capacity: 16 << 20,
            rpc_latency: SimTime::from_ns(120.0),
            host: 0,
        }),
    );
    (engine, store)
}

/// Kick-off for the scripted driver.
#[derive(Debug, Clone, Copy)]
struct Go;

/// Issues its script one request at a time, each sent only after the
/// previous one's reply — the client-visible ordering the guarantees
/// are stated over.
struct Driver {
    store: ComponentId,
    tenant: u32,
    script: VecDeque<KvOp>,
    next_tag: u64,
    replies: Vec<KvReply>,
}

impl Driver {
    fn new(store: ComponentId, tenant: u32, script: Vec<KvOp>) -> Self {
        Driver {
            store,
            tenant,
            script: script.into(),
            next_tag: 0,
            replies: Vec::new(),
        }
    }

    fn issue(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(op) = self.script.pop_front() {
            let tag = self.next_tag;
            self.next_tag += 1;
            ctx.send(
                self.store,
                SimTime::from_ns(120.0),
                KvRequest {
                    op,
                    key: KEY,
                    tenant: self.tenant,
                    tag,
                    sent_at: ctx.now(),
                    reply_to: ctx.self_id(),
                },
            );
        }
    }
}

impl Component for Driver {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let msg = match msg.downcast::<Go>() {
            Ok(Go) => {
                self.issue(ctx);
                return;
            }
            Err(m) => m,
        };
        match msg.downcast::<KvReply>() {
            Ok(reply) => {
                self.replies.push(reply);
                self.issue(ctx);
            }
            Err(m) => panic!("driver: unexpected message {}", m.type_name()),
        }
    }
}

type Replies = Inbox<KvReply>;

/// Fires `count` requests for `KEY` at once, all arriving at the store
/// after one RPC latency; returns the inbox their replies land in.
fn burst(
    engine: &mut Engine,
    store: ComponentId,
    tenant: u32,
    op: KvOp,
    count: u64,
) -> ComponentId {
    let replies = engine.add_component(format!("burst-{tenant}"), Replies::default());
    for tag in 0..count {
        let req = KvRequest {
            op,
            key: KEY,
            tenant,
            tag,
            sent_at: SimTime::ZERO,
            reply_to: replies,
        };
        engine.post(store, SimTime::from_ns(120.0), req);
    }
    replies
}

fn read_your_writes_on(rdma: bool) {
    let (mut engine, store) = setup(11, rdma);
    let script = vec![
        KvOp::Put { bytes: 1024 },
        KvOp::Get,
        KvOp::Put { bytes: 1024 },
        KvOp::Get,
    ];
    let driver = engine.add_component("driver", Driver::new(store, 3, script));
    engine.post(driver, SimTime::ZERO, Go);
    engine.run_until_idle();
    let d = engine.component::<Driver>(driver);
    assert_eq!(d.replies.len(), 4);
    assert!(d.replies.iter().all(|r| r.ok), "all ops succeed");
    // Each GET observes at least the version its preceding PUT installed.
    assert_eq!(d.replies[0].version, 1);
    assert_eq!(d.replies[1].version, 1, "read your write");
    assert_eq!(d.replies[2].version, 2);
    assert_eq!(d.replies[3].version, 2, "read your second write");
    assert_eq!(d.replies[1].bytes, 1024);
    let s = engine.component::<KvStore>(store);
    assert_eq!(s.version_of(KEY), 2);
    assert_eq!(s.lost_updates.get(), 0);
    assert_eq!(s.integrity_violations(), 0);
}

#[test]
fn read_your_writes_fabric() {
    read_your_writes_on(false);
}

#[test]
fn read_your_writes_rdma_baseline() {
    read_your_writes_on(true);
}

#[test]
fn no_lost_updates_under_concurrent_tenants() {
    let (mut engine, store) = setup(23, false);
    // Two tenants, 50 concurrent PUTs each, all to one key, all in
    // flight at once: per-key serialization + joined version bumps must
    // count every single one.
    let a = burst(&mut engine, store, 1, KvOp::Put { bytes: 256 }, 50);
    let b = burst(&mut engine, store, 2, KvOp::Put { bytes: 256 }, 50);
    engine.run_until_idle();
    let s = engine.component::<KvStore>(store);
    assert_eq!(s.version_of(KEY), 100, "every update counted exactly once");
    assert_eq!(s.lost_updates.get(), 0);
    assert_eq!(s.puts.get(), 100);
    assert_eq!(s.integrity_violations(), 0);
    let ra = engine.component::<Replies>(a).messages();
    let rb = engine.component::<Replies>(b).messages();
    assert_eq!(ra.len() + rb.len(), 100);
    assert!(ra.iter().chain(rb.iter()).all(|r| r.ok));
    // Versions handed back are exactly 1..=100, each once.
    let mut versions: Vec<u64> = ra.iter().chain(rb.iter()).map(|r| r.version).collect();
    versions.sort_unstable();
    assert_eq!(versions, (1..=100).collect::<Vec<u64>>());
}

/// Runs `gets` concurrent GETs to one preloaded key on a fabric with 16
/// migration agents; returns the sim time when everything drained.
fn gets_wall_time(gets: u64) -> SimTime {
    let (mut engine, store) = setup_with_agents(31, false, 16);
    #[allow(clippy::expect_used)]
    engine
        .component_mut::<KvStore>(store)
        .preload(KEY, 1024)
        .expect("preload fits");
    let burst = burst(&mut engine, store, 1, KvOp::Get, gets);
    engine.run_until_idle();
    let replies = engine.component::<Replies>(burst).messages();
    assert_eq!(replies.len() as u64, gets);
    assert!(replies.iter().all(|r| r.ok && r.version == 1));
    engine.now()
}

/// GETs to one key share the lock: sixteen readers fired at once (with
/// enough agents that the data path is not the bottleneck) overlap —
/// wall time stays a small multiple of one GET's (per-flit fabric costs
/// still add up), nowhere near the 16x a serialized read path would
/// take. A Zipf-hot key must not serialize the read path.
#[test]
fn concurrent_gets_share_the_key() {
    let one = gets_wall_time(1);
    let sixteen = gets_wall_time(16);
    assert!(
        sixteen.as_ns() < 4.0 * one.as_ns(),
        "16 shared readers took {} ns vs {} ns for one — reads serialized?",
        sixteen.as_ns(),
        one.as_ns()
    );
}

#[test]
fn get_miss_and_preload() {
    let (mut engine, store) = setup(5, false);
    engine
        .component_mut::<KvStore>(store)
        .preload(KEY, 512)
        .expect("preload fits");
    let driver = engine.add_component("driver", Driver::new(store, 0, vec![KvOp::Get]));
    // A second client GETs a key that was never written.
    let probe = engine.add_component("probe", Replies::default());
    let miss = KvRequest {
        op: KvOp::Get,
        key: 9999,
        tenant: 0,
        tag: 0,
        sent_at: SimTime::ZERO,
        reply_to: probe,
    };
    engine.post(driver, SimTime::ZERO, Go);
    engine.post(store, SimTime::ZERO, miss);
    engine.run_until_idle();
    let hit = &engine.component::<Driver>(driver).replies[0];
    assert!(hit.ok);
    assert_eq!((hit.version, hit.bytes), (1, 512));
    let miss = engine.component::<Replies>(probe).messages();
    assert_eq!(miss.len(), 1, "miss replied");
    assert!(!miss[0].ok);
    assert_eq!(miss[0].version, 0);
    let s = engine.component::<KvStore>(store);
    assert_eq!((s.hits.get(), s.misses.get()), (1, 1));
}
