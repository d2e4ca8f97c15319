//! Shared telemetry capture for the experiment harness.
//!
//! A [`Capture`] bundles the two observability streams an experiment can
//! feed: the causal trace ([`TraceSink`]) and the labeled metrics
//! registry ([`MetricsRegistry`]). Experiments take `&mut Capture` and
//! work identically whether it is disabled (the default, near-zero cost)
//! or recording (the `--trace` / `--metrics` flags of the `experiments`
//! binary).
//!
//! A scenario on one [`Engine`] brackets its run with
//! [`Capture::begin_scenario`] / [`Capture::end_scenario`]; a scenario on
//! a [`ShardedEngine`] uses [`Capture::begin_sharded`] /
//! [`Capture::end_sharded`], which keep one sink per domain (a sink may
//! not span engines that run on different threads) and absorb them in
//! domain order, so the export is byte-identical to a serial run.

use fcc_fabric::sharded::ShardedFabric;
use fcc_fabric::topology::Topology;
use fcc_sim::{Engine, ShardedEngine};
use fcc_telemetry::{record_deadlock, MetricsRegistry, TraceSink};

/// The harness's telemetry state: one trace sink and one metrics
/// registry shared across every scenario of a run.
pub struct Capture {
    /// The causal trace stream.
    pub sink: TraceSink,
    /// The labeled metrics registry.
    pub metrics: MetricsRegistry,
    /// One sink per domain of the open sharded scenario, in domain
    /// order; empty outside `begin_sharded` .. `end_sharded`.
    domain_sinks: Vec<TraceSink>,
}

impl Capture {
    /// A disabled capture: every emit is a cheap no-op.
    pub fn disabled() -> Self {
        Capture {
            sink: TraceSink::disabled(),
            metrics: MetricsRegistry::new(),
            domain_sinks: Vec::new(),
        }
    }

    /// A recording capture.
    pub fn recording() -> Self {
        Capture {
            sink: TraceSink::recording(),
            metrics: MetricsRegistry::new(),
            domain_sinks: Vec::new(),
        }
    }

    /// Whether tracing is live.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Opens a scenario: a new trace process group named `label`, with
    /// every component track of `topo` wired into the sink.
    pub fn begin_scenario(&self, label: &str, engine: &mut Engine, topo: &Topology) {
        if !self.is_enabled() {
            return;
        }
        self.sink.begin_process(label);
        topo.enable_tracing(engine, &self.sink);
    }

    /// Closes a scenario: harvests `topo`'s counters under
    /// `"<label>."`-prefixed metric names and — if the drained engine
    /// reports stranded work — lands the deadlock report in both the
    /// trace and the metrics streams (§3 D#3's failure mode must be
    /// visible in the export, not just on stderr).
    pub fn end_scenario(&mut self, label: &str, engine: &Engine, topo: &Topology) {
        if !self.is_enabled() {
            return;
        }
        topo.collect_metrics(engine, &mut self.metrics, &format!("{label}."));
        if let Some(report) = engine.deadlock_report() {
            record_deadlock(&self.sink, &mut self.metrics, &report, engine.now());
        }
    }

    /// Opens a sharded scenario: one recording sink per domain, each a
    /// trace process group named `"<label>-d<d>"` with that domain's
    /// component tracks wired in.
    pub fn begin_sharded(
        &mut self,
        label: &str,
        sharded: &mut ShardedEngine,
        fabric: &ShardedFabric,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.domain_sinks = fabric
            .domains
            .iter()
            .enumerate()
            .map(|(d, topo)| {
                let sink = TraceSink::recording();
                sink.begin_process(&format!("{label}-d{d}"));
                topo.enable_tracing(sharded.engine_mut(d), &sink);
                sink
            })
            .collect();
    }

    /// Domain `d`'s sink while a sharded scenario is open and recording,
    /// for tracks of components the fabric does not own.
    pub fn domain_sink(&self, d: usize) -> Option<&TraceSink> {
        self.domain_sinks.get(d)
    }

    /// Closes a sharded scenario, domain by domain: absorbs the domain's
    /// trace, harvests its counters under `"<label>-d<d>."`, and lands any
    /// deadlock report as [`Capture::end_scenario`] does. Returns how many
    /// domains reported a deadlock, counted whether or not the capture
    /// records.
    pub fn end_sharded(
        &mut self,
        label: &str,
        sharded: &ShardedEngine,
        fabric: &ShardedFabric,
    ) -> u64 {
        let enabled = self.is_enabled();
        let mut sinks = std::mem::take(&mut self.domain_sinks).into_iter();
        let mut deadlocked = 0;
        for (d, topo) in fabric.domains.iter().enumerate() {
            if let Some(dump) = sinks.next().and_then(TraceSink::into_dump) {
                self.sink.absorb(dump);
            }
            let engine = sharded.engine(d);
            if enabled {
                topo.collect_metrics(engine, &mut self.metrics, &format!("{label}-d{d}."));
            }
            if let Some(report) = engine.deadlock_report() {
                deadlocked += 1;
                if enabled {
                    record_deadlock(&self.sink, &mut self.metrics, &report, engine.now());
                }
            }
        }
        deadlocked
    }
}

impl Default for Capture {
    fn default() -> Self {
        Capture::disabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_capture_is_inert() {
        let cap = Capture::disabled();
        assert!(!cap.is_enabled());
        assert!(cap.metrics.is_empty());
    }
}
