//! End-to-end UniFabric scenarios through the `fcc` facade: the heap, the
//! task runtime, the arbiter, and the baseband case study working
//! together the way the paper's §5 walkthrough describes.

use fcc::baseband::pipeline::UplinkPipeline;
use fcc::memnode::profile::{MemNodeKind, MemNodeProfile};
use fcc::sim::SimTime;
use fcc::unifabric::heap::{HeapNodeCfg, PlacementHint, UnifiedHeap};
use fcc::unifabric::task::{analyze_idempotence, DagRuntime, Executor, Half, RecoveryMode};
use fcc::workloads::failure::{FailureEvent, FailureSchedule};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The §5 porting steps: (1) data objects to the unified heap, (2) kernels
/// as idempotent tasks on FAAs, (3) failure-tolerant execution.
#[test]
fn case_study_port_follows_the_papers_steps() {
    // Step 1: move the frame and CSI objects into the unified heap.
    let mut heap = UnifiedHeap::new(vec![
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::HostLocal, 1 << 20),
        },
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::CpulessNuma, 1 << 26),
        },
        HeapNodeCfg {
            profile: MemNodeProfile::omega_like(MemNodeKind::Coma, 1 << 24),
        },
    ]);
    let pipeline = UplinkPipeline::default();
    let frame_bytes =
        (pipeline.fft_size * pipeline.antennas * 16) as u64 * pipeline.symbols_per_frame as u64;
    let csi_bytes = (pipeline.antennas * pipeline.streams * 16) as u64;
    let frame_obj = heap.alloc(frame_bytes, PlacementHint::Auto).expect("frame");
    let csi_obj = heap
        .alloc(csi_bytes, PlacementHint::Kind(MemNodeKind::Coma))
        .expect("csi");
    // CSI is touched by every equalize kernel: it gets hot and promotes.
    for _ in 0..200 {
        heap.access(csi_obj, 0, false).expect("live");
    }
    heap.access(frame_obj, 0, false).expect("live");
    heap.rebalance();
    let csi_node = heap.node_of(csi_obj).expect("live");
    assert_eq!(
        heap.node_profile(csi_node).kind,
        MemNodeKind::HostLocal,
        "hot CSI promoted to the fastest tier"
    );

    // Step 2: kernels become idempotent tasks.
    let tasks = pipeline.build_tasks(0x1000_0000, 0x2000_0000, 0x3000_0000, SimTime::from_us(1.0));
    assert!(tasks.iter().all(|t| analyze_idempotence(t).is_idempotent()));

    // Step 3: execute across two FAAs with a failure; re-execution
    // finishes the frame correctly.
    let execs = vec![
        Executor {
            domain: 0,
            speed: 1.0,
            half: Half::Bottom,
        },
        Executor {
            domain: 1,
            speed: 1.0,
            half: Half::Bottom,
        },
    ];
    let rt = DagRuntime::new(execs, RecoveryMode::Idempotent);
    let clean = rt
        .run(&tasks, &FailureSchedule::explicit(vec![]))
        .expect("DAG runs");
    let crash = FailureSchedule::explicit(vec![FailureEvent {
        at: clean.makespan / 2,
        domain: 0,
        recovered_at: clean.makespan / 2 + SimTime::from_us(3.0),
    }]);
    let failed = rt.run(&tasks, &crash).expect("DAG runs");
    assert!(failed.correct);
    assert!(failed.makespan >= clean.makespan);
    assert!(failed.reexecutions >= 1);
}

/// Real bits flow through the whole ported pipeline: generate at the
/// radio, decode at the MAC, verify against ground truth.
#[test]
fn real_frames_decode_after_the_port() {
    let mut rng = StdRng::seed_from_u64(99);
    let pipeline = UplinkPipeline::default();
    let frame = pipeline.generate_frame(30.0, &mut rng);
    let report = pipeline.process(&frame);
    assert_eq!(report.bit_errors, 0);
    assert_eq!(report.bits.len(), pipeline.streams);
    for (s, bits) in report.bits.iter().enumerate() {
        assert_eq!(bits, &frame.truth[s]);
    }
}
