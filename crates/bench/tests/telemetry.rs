//! Integration tests for the telemetry wiring across the full stack:
//! determinism of traced runs, the E3b congestion story recovered from
//! the exported trace alone, Perfetto schema shape, and deadlock-report
//! export (a wedged run must be visible in the trace file).

use fcc_bench::capture::Capture;
use fcc_bench::exp_e3;
use fcc_bench::loadgen::{AddrPattern, LoadCfg, LoadGen, StartLoad};
use fcc_fabric::endpoint::PipelinedMemory;
use fcc_fabric::sharded::{sharded_chain, DomainSpec};
use fcc_fabric::topology::{self, TopologySpec};
use fcc_sim::{Engine, ShardedEngine, SimTime};
use fcc_telemetry::{json, TraceData};

/// A traced two-switch (host — s0 — s1 — device) run: the golden
/// scenario for determinism and schema checks.
fn two_switch_trace(seed: u64) -> String {
    let mut cap = Capture::recording();
    let mut engine = Engine::new(seed);
    let device = Box::new(PipelinedMemory::new(
        SimTime::from_ns(200.0),
        SimTime::from_ns(220.0),
        SimTime::from_ns(40.0),
        1 << 30,
    ));
    let topo = topology::chain(
        &mut engine,
        TopologySpec::default(),
        vec![
            DomainSpec {
                n_hosts: 2,
                devices: vec![],
            },
            DomainSpec {
                n_hosts: 0,
                devices: vec![device],
            },
        ],
    );
    cap.begin(
        "golden",
        std::slice::from_mut(&mut engine),
        std::slice::from_ref(&topo),
    );
    for h in 0..2 {
        let cfg = LoadCfg {
            fha: topo.hosts[h].fha,
            base: topo.devices[0].range.base + (h as u64) * (1 << 16),
            len: 1 << 16,
            op_bytes: 64,
            write: h == 0,
            window: 2,
            count: Some(50),
            stop_at: SimTime::MAX,
            pattern: AddrPattern::Sequential,
        };
        let lg = engine.add_component(format!("load-h{h}"), LoadGen::new(cfg));
        engine.post(lg, SimTime::ZERO, StartLoad);
    }
    engine.run_until_idle();
    cap.end(
        "golden",
        std::slice::from_ref(&engine),
        std::slice::from_ref(&topo),
    );
    cap.sink.to_chrome_json()
}

#[test]
fn traced_two_switch_runs_are_byte_identical() {
    let a = two_switch_trace(0x60_1D);
    let b = two_switch_trace(0x60_1D);
    assert!(!a.is_empty());
    assert!(a.contains("rtt-"), "RTT spans present");
    assert!(a.contains("switch.forward"), "switch hops present");
    assert_eq!(a, b, "same seed must export a byte-identical trace");
}

#[test]
fn exported_trace_has_perfetto_shape() {
    let text = two_switch_trace(7);
    // The export must be self-contained valid JSON...
    let root = json::parse(&text).expect("trace is valid JSON");
    let events = root
        .get("traceEvents")
        .and_then(|v| v.as_arr())
        .expect("traceEvents array");
    assert!(!events.is_empty());
    let mut saw_meta = false;
    let mut saw_complete = false;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(|v| v.as_str())
            .expect("every event has ph");
        assert!(ev.get("pid").is_some(), "every event has pid");
        assert!(ev.get("tid").is_some(), "every event has tid");
        match ph {
            "M" => {
                saw_meta = true;
                let name = ev.get("name").and_then(|v| v.as_str()).expect("meta name");
                assert!(
                    name == "process_name" || name == "thread_name",
                    "known metadata record, got {name}"
                );
            }
            "X" => {
                saw_complete = true;
                assert!(ev.get("ts").is_some(), "complete spans carry ts");
                assert!(ev.get("dur").is_some(), "complete spans carry dur");
                assert!(ev.get("cat").is_some(), "complete spans carry cat");
            }
            "i" => {
                assert_eq!(
                    ev.get("s").and_then(|v| v.as_str()),
                    Some("t"),
                    "instants carry thread scope"
                );
            }
            other => panic!("unexpected phase {other}"),
        }
    }
    assert!(saw_meta && saw_complete);
    // ...and round-trip through the analyzer.
    let data = TraceData::from_json(&text).expect("analyzer parses the export");
    assert_eq!(data.processes.len(), 1);
    assert!(!data.events.is_empty());
}

#[test]
fn e3b_trace_shows_credit_waits_growing_and_tail_inflation() {
    let mut cap = Capture::recording();
    let r = exp_e3::run_b(true, &mut cap, 0);
    // The run itself shows the paper's drastic degradation...
    assert!(r.p99_inflation() >= 10.0, "p99 {}", r.p99_inflation());
    // ...and the exported trace alone reproduces the whole story.
    let data = TraceData::from_json(&cap.sink.to_chrome_json()).expect("parses");
    let pid_of = |name: &str| -> u32 {
        *data
            .processes
            .iter()
            .find(|(_, n)| n.as_str() == name)
            .unwrap_or_else(|| panic!("process {name} in trace"))
            .0
    };
    let alone = pid_of("e3b-alone");
    let bulk = pid_of("e3b-bulk");
    let wait_alone = data.credit_wait_total(alone);
    let wait_bulk = data.credit_wait_total(bulk);
    assert!(
        wait_bulk > wait_alone.max(1) * 10,
        "credit waits grow with bulk share: alone {wait_alone} ps vs bulk {wait_bulk} ps"
    );
    let inflation = data
        .tail_inflation()
        .into_iter()
        .find(|(name, _, _)| name == "rtt-wr64B")
        .expect("small-write RTTs in both scenarios");
    assert!(
        inflation.1 >= 10.0,
        "trace-derived p99 inflation {} must reproduce the >=10x degradation",
        inflation.1
    );
    // Congestion attribution points into the bulk scenario.
    let (worst_track, _, _) = data.credit_wait_by_track().remove(0);
    assert!(
        worst_track.starts_with("e3b-bulk/"),
        "worst credit-blocked component is a bulk one: {worst_track}"
    );
}

/// A failed FAM module: accepts every transaction and never responds.
/// The requesting host's FHA is left holding the transaction forever —
/// the stranded-work signature the deadlock report must surface.
struct DeadDevice;

impl fcc_fabric::endpoint::Endpoint for DeadDevice {
    fn service(
        &mut self,
        _txn: &fcc_proto::channel::Transaction,
        now: SimTime,
    ) -> fcc_fabric::endpoint::EndpointResponse {
        fcc_fabric::endpoint::EndpointResponse {
            kind: None,
            bytes: 0,
            ready_at: now,
        }
    }

    fn capacity(&self) -> u64 {
        1 << 30
    }
}

/// A one-op read from host 0 to the first device at `base`: the op the
/// wedged fabrics below never complete.
fn one_read(fha: fcc_sim::ComponentId, base: u64) -> LoadGen {
    LoadGen::new(LoadCfg {
        fha,
        base,
        len: 1 << 16,
        op_bytes: 64,
        write: false,
        window: 1,
        count: Some(1),
        stop_at: SimTime::MAX,
        pattern: AddrPattern::Sequential,
    })
}

/// Asserts that a wedged run's deadlock report reached both export
/// streams of `cap`: a deadlock event naming the stuck FHA in the trace,
/// and `stuck` stuck components in the metrics.
fn assert_deadlock_exported(cap: &Capture, stuck: u64) {
    let data = TraceData::from_json(&cap.sink.to_chrome_json()).expect("parses");
    let deadlocks = data.deadlock_events();
    assert!(
        !deadlocks.is_empty(),
        "deadlock report must appear in the exported trace"
    );
    assert!(
        deadlocks.iter().any(|e| e.name.contains("fha")),
        "the stuck FHA is named: {:?}",
        deadlocks.iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    assert_eq!(
        cap.metrics.counter("sim.deadlock.stuck_components"),
        Some(stuck),
        "deadlock also lands in the metrics stream"
    );
    let rendered = data.render_report();
    assert!(rendered.contains("deadlock"), "report section renders");
}

#[test]
fn deadlock_report_lands_in_exported_trace() {
    // One engine: a one-domain capture.
    let mut cap = Capture::recording();
    let mut engine = Engine::new(0xDEAD);
    let topo = topology::single_switch(
        &mut engine,
        TopologySpec::default(),
        1,
        vec![Box::new(DeadDevice)],
    );
    cap.begin(
        "wedged",
        std::slice::from_mut(&mut engine),
        std::slice::from_ref(&topo),
    );
    let lg = engine.add_component(
        "load-h0",
        one_read(topo.hosts[0].fha, topo.devices[0].range.base),
    );
    engine.post(lg, SimTime::ZERO, StartLoad);
    engine.run_until_idle();
    let report = engine.deadlock_report().expect("run must wedge");
    let harvest = cap.end(
        "wedged",
        std::slice::from_ref(&engine),
        std::slice::from_ref(&topo),
    );
    assert_eq!(harvest.stranded, 1, "the one domain reports the wedge");
    assert_deadlock_exported(&cap, report.stuck.len() as u64);

    // Two domains: the host in domain 0 reads
    // the dead device across the inter-domain cable.
    let mut cap = Capture::recording();
    let mut sharded = ShardedEngine::new(0xDEAD, 2);
    let fabric = sharded_chain(
        &mut sharded,
        TopologySpec::default(),
        vec![
            DomainSpec {
                n_hosts: 1,
                devices: vec![],
            },
            DomainSpec {
                n_hosts: 0,
                devices: vec![Box::new(DeadDevice)],
            },
        ],
        SimTime::from_ns(200.0),
    );
    cap.begin("wedged-sharded", sharded.engines_mut(), &fabric.domains);
    let read = one_read(
        fabric.domains[0].hosts[0].fha,
        fabric.domains[1].devices[0].range.base,
    );
    let engine = sharded.engine_mut(0);
    let lg = engine.add_component("load-d0h0", read);
    engine.post(lg, SimTime::ZERO, StartLoad);
    sharded.run(2);
    let stuck: u64 = (0..2)
        .filter_map(|d| sharded.engine(d).deadlock_report())
        .map(|r| r.stuck.len() as u64)
        .sum();
    let harvest = cap.end("wedged-sharded", sharded.engines(), &fabric.domains);
    assert!(harvest.stranded >= 1, "a domain must report the wedge");
    assert_deadlock_exported(&cap, stuck);
}
