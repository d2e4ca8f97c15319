//! The communication-fabric baseline: an RDMA-style NIC.
//!
//! The paper contrasts the memory fabric against communication fabrics that
//! interact "with the CPU asynchronously in a submission-completion
//! fashion" (§3 D#1): the processor builds a descriptor, rings a doorbell,
//! a device-side DMA engine moves the data, and an interrupt/completion
//! entry reports it. [`RdmaNic`] models that pipeline analytically over the
//! same wire parameters as the memory fabric, so experiments isolate the
//! paradigm difference rather than raw link speed.

use fcc_sim::{Component, ComponentId, Counter, Ctx, Histogram, Msg, SimTime};

/// Timing parameters of the RDMA-style path.
#[derive(Debug, Clone, Copy)]
pub struct RdmaConfig {
    /// Software submission: descriptor build + doorbell MMIO.
    pub submit_overhead: SimTime,
    /// NIC work-queue fetch and processing, per op and per direction.
    pub nic_processing: SimTime,
    /// Wire bandwidth in Gbit/s (compare with the memory fabric's link).
    pub wire_gbps: f64,
    /// One-way propagation delay.
    pub propagation: SimTime,
    /// Remote-side memory access to source/sink the payload.
    pub remote_memory: SimTime,
    /// Completion-queue write plus host poll/interrupt cost.
    pub completion_overhead: SimTime,
}

impl RdmaConfig {
    /// A kernel-bypass RDMA profile on a 512 Gbit/s wire (matching the
    /// Omega-like memory-fabric link for apples-to-apples comparisons).
    pub fn kernel_bypass() -> Self {
        RdmaConfig {
            submit_overhead: SimTime::from_ns(250.0),
            nic_processing: SimTime::from_ns(150.0),
            wire_gbps: 512.0,
            propagation: SimTime::from_ns(25.0),
            remote_memory: SimTime::from_ns(100.0),
            completion_overhead: SimTime::from_ns(150.0),
        }
    }

    /// A kernel TCP-like profile: microseconds of stack on both sides.
    pub fn kernel_tcp() -> Self {
        RdmaConfig {
            submit_overhead: SimTime::from_us(2.0),
            nic_processing: SimTime::from_ns(500.0),
            wire_gbps: 100.0,
            propagation: SimTime::from_us(1.0),
            remote_memory: SimTime::from_ns(100.0),
            completion_overhead: SimTime::from_us(2.0),
        }
    }
}

/// A one-sided RDMA operation submitted to the NIC.
#[derive(Debug, Clone, Copy)]
pub struct RdmaOp {
    /// `true` for RDMA write, `false` for RDMA read.
    pub write: bool,
    /// Payload size.
    pub bytes: u32,
    /// Caller tag echoed in the completion.
    pub tag: u64,
    /// Component to notify.
    pub reply_to: ComponentId,
}

/// Completion of an [`RdmaOp`].
#[derive(Debug, Clone, Copy)]
pub struct RdmaCompletion {
    /// The op's tag.
    pub tag: u64,
    /// Submission time.
    pub issued_at: SimTime,
    /// Completion-visible time.
    pub completed_at: SimTime,
}

impl RdmaCompletion {
    /// End-to-end latency.
    pub fn latency(&self) -> SimTime {
        self.completed_at - self.issued_at
    }
}

const HEADER_BYTES: u64 = 64;

/// An RDMA-style NIC pair (both ends modeled in one component; the wire
/// watermarks capture serialization contention in each direction).
pub struct RdmaNic {
    cfg: RdmaConfig,
    tx_free_at: SimTime,
    rx_free_at: SimTime,
    /// Ops completed.
    pub completions: Counter,
    /// Latency distribution (ps).
    pub latency: Histogram,
    /// Total payload bytes moved.
    pub bytes_moved: Counter,
}

impl RdmaNic {
    /// Creates a NIC with the given profile.
    pub fn new(cfg: RdmaConfig) -> Self {
        RdmaNic {
            cfg,
            tx_free_at: SimTime::ZERO,
            rx_free_at: SimTime::ZERO,
            completions: Counter::new(),
            latency: Histogram::new(),
            bytes_moved: Counter::new(),
        }
    }

    fn wire_time(&self, bytes: u64) -> SimTime {
        fcc_sim::serialization_time(bytes, self.cfg.wire_gbps)
    }

    /// Computes the completion time of an op submitted at `now`.
    fn schedule_op(&mut self, now: SimTime, op: &RdmaOp) -> SimTime {
        let cfg = self.cfg;
        let submitted = now + cfg.submit_overhead + cfg.nic_processing;
        // Outbound: header, plus payload if a write.
        let out_bytes = HEADER_BYTES + if op.write { op.bytes as u64 } else { 0 };
        let tx_start = self.tx_free_at.max(submitted);
        let tx_end = tx_start + self.wire_time(out_bytes);
        self.tx_free_at = tx_end;
        let at_remote = tx_end + cfg.propagation + cfg.nic_processing + cfg.remote_memory;
        // Inbound: ack, plus payload if a read.
        let back_bytes = HEADER_BYTES + if op.write { 0 } else { op.bytes as u64 };
        let rx_start = self.rx_free_at.max(at_remote);
        let rx_end = rx_start + self.wire_time(back_bytes);
        self.rx_free_at = rx_end;
        rx_end + cfg.propagation + cfg.completion_overhead
    }
}

impl Component for RdmaNic {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let op = match msg.downcast::<RdmaOp>() {
            Ok(op) => op,
            Err(m) => return ctx.reject(m.type_name()),
        };
        let now = ctx.now();
        let done = self.schedule_op(now, &op);
        self.bytes_moved.add(op.bytes as u64);
        self.completions.inc();
        self.latency.record_time(done - now);
        ctx.send(
            op.reply_to,
            done - now,
            RdmaCompletion {
                tag: op.tag,
                issued_at: now,
                completed_at: done,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use fcc_sim::{Engine, Inbox};

    use super::*;

    type Sink = Inbox<RdmaCompletion>;

    /// Each op is `(write, bytes, tag)`.
    fn run_ops(ops: Vec<(bool, u32, u64)>, cfg: RdmaConfig) -> Vec<RdmaCompletion> {
        let mut engine = Engine::new(0);
        let sink = engine.add_component("sink", Sink::default());
        let nic = engine.add_component("nic", RdmaNic::new(cfg));
        for (write, bytes, tag) in ops {
            engine.post(
                nic,
                SimTime::ZERO,
                RdmaOp {
                    write,
                    bytes,
                    tag,
                    reply_to: sink,
                },
            );
        }
        engine.run_until_idle();
        engine.component::<Sink>(sink).messages().to_vec()
    }

    fn op(write: bool, bytes: u32, tag: u64) -> (bool, u32, u64) {
        (write, bytes, tag)
    }

    #[test]
    fn small_read_latency_exceeds_memory_fabric() {
        let done = run_ops(vec![op(false, 64, 1)], RdmaConfig::kernel_bypass());
        // ~250+150+1+25+150+100+2+25+150 ≈ 850ns: far above the ~150ns the
        // directly-attached memory fabric achieves for the same wire.
        let lat = done[0].latency();
        assert!(lat > SimTime::from_ns(700.0), "{lat}");
        assert!(lat < SimTime::from_ns(1200.0), "{lat}");
    }

    #[test]
    fn async_ops_pipeline_on_the_wire() {
        let n = 64;
        let ops: Vec<_> = (0..n).map(|i| op(false, 4096, i)).collect();
        let done = run_ops(ops, RdmaConfig::kernel_bypass());
        assert_eq!(done.len(), n as usize);
        let last = done.iter().map(|c| c.completed_at).max().expect("some");
        // Wire-bound: 64 * 4KiB at 512Gbps ≈ 4.1us; overheads are per-op
        // constants that overlap. The total must be near wire time, not
        // n * per-op-latency.
        let per_op = done[0].latency();
        assert!(last < per_op * 8, "pipelining failed: last={last}");
    }

    #[test]
    fn write_ships_payload_outbound() {
        let r = run_ops(vec![op(false, 65536, 1)], RdmaConfig::kernel_bypass());
        let w = run_ops(vec![op(true, 65536, 1)], RdmaConfig::kernel_bypass());
        // Same payload either direction: symmetric wire → similar latency.
        let diff = (r[0].latency().as_ns() - w[0].latency().as_ns()).abs();
        assert!(diff < 50.0, "read/write asymmetric by {diff}ns");
    }

    #[test]
    fn kernel_tcp_is_much_slower() {
        let fast = run_ops(vec![op(false, 64, 1)], RdmaConfig::kernel_bypass());
        let slow = run_ops(vec![op(false, 64, 1)], RdmaConfig::kernel_tcp());
        assert!(slow[0].latency() > fast[0].latency() * 5);
    }
}
