//! Timing decorators applied from outside the simulator.
//!
//! The benchmark never edits program code to attribute host time. It
//! wraps the components and devices it installs: [`Timed`] around a
//! load component, [`ProbedEndpoint`] around a device's
//! `Box<dyn Endpoint>`. Each adds the host time spent inside the wrapped
//! calls to a shared [`Clock`], which shard worker threads update
//! concurrently. Neither decorator changes a message, a timestamp, or a
//! response, so simulated results stay identical with or without them.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fcc_fabric::endpoint::{Endpoint, EndpointResponse};
use fcc_proto::channel::Transaction;
use fcc_sim::{Component, Ctx, Msg, MsgBatch, PendingWork, SimTime};

/// Accumulated host nanoseconds and call count of one layer.
#[derive(Clone, Default)]
pub struct Clock(Arc<ClockCounters>);

#[derive(Default)]
struct ClockCounters {
    nanos: AtomicU64,
    calls: AtomicU64,
}

impl Clock {
    fn add(&self, started: Instant) {
        let nanos = started.elapsed().as_nanos() as u64;
        self.0.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.0.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Host seconds accumulated so far.
    pub fn seconds(&self) -> f64 {
        self.0.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Calls timed so far.
    pub fn calls(&self) -> u64 {
        self.0.calls.load(Ordering::Relaxed)
    }
}

/// A component decorator that times every delivery when it holds a
/// clock and forwards untouched when it does not.
pub struct Timed<C> {
    /// The wrapped component.
    pub inner: C,
    clock: Option<Clock>,
}

impl<C> Timed<C> {
    pub fn new(inner: C, clock: Option<Clock>) -> Self {
        Timed { inner, clock }
    }
}

impl<C: Component> Component for Timed<C> {
    fn on_msg(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match &self.clock {
            Some(clock) => {
                let started = Instant::now();
                self.inner.on_msg(ctx, msg);
                clock.add(started);
            }
            None => self.inner.on_msg(ctx, msg),
        }
    }

    fn on_batch(&mut self, ctx: &mut Ctx<'_>, batch: &mut MsgBatch<'_>) {
        match &self.clock {
            Some(clock) => {
                let started = Instant::now();
                self.inner.on_batch(ctx, batch);
                clock.add(started);
            }
            None => self.inner.on_batch(ctx, batch),
        }
    }

    fn outstanding(&self, out: &mut Vec<PendingWork>) {
        self.inner.outstanding(out);
    }
}

/// A device decorator: times `Endpoint::service` into a clock and, for
/// the sensitivity check, spins for a fixed host delay inside each call.
pub struct ProbedEndpoint {
    inner: Box<dyn Endpoint>,
    clock: Option<Clock>,
    spin: Duration,
}

impl ProbedEndpoint {
    /// Wraps `inner` when timing or a spin delay is requested; returns it
    /// unchanged otherwise.
    pub fn wrap(inner: Box<dyn Endpoint>, clock: Option<Clock>, spin_ns: u64) -> Box<dyn Endpoint> {
        if clock.is_none() && spin_ns == 0 {
            return inner;
        }
        Box::new(ProbedEndpoint {
            inner,
            clock,
            spin: Duration::from_nanos(spin_ns),
        })
    }
}

impl Endpoint for ProbedEndpoint {
    fn service(&mut self, txn: &Transaction, now: SimTime) -> EndpointResponse {
        let started = Instant::now();
        let rsp = self.inner.service(txn, now);
        while started.elapsed() < self.spin {
            std::hint::spin_loop();
        }
        if let Some(clock) = &self.clock {
            clock.add(started);
        }
        rsp
    }

    fn capacity(&self) -> u64 {
        self.inner.capacity()
    }

    fn is_idle(&self, now: SimTime) -> bool {
        self.inner.is_idle(now)
    }

    fn set_trace(&mut self, track: fcc_telemetry::Track) {
        self.inner.set_trace(track);
    }
}
