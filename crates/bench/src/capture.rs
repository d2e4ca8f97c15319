//! Shared telemetry capture for the experiment harness.
//!
//! A [`Capture`] bundles the two observability streams an experiment can
//! feed: the causal trace ([`TraceSink`]) and the labeled metrics
//! registry ([`MetricsRegistry`]). Experiments take `&mut Capture` and
//! work identically whether it is disabled (the default, near-zero cost)
//! or recording (the `--trace` / `--metrics` flags of the `experiments`
//! binary).
//!
//! Every scenario brackets its run with one pair, [`Capture::begin`] /
//! [`Capture::end`], over its engines and their topologies as slices of
//! *domains*: a scenario on one [`Engine`] is a one-domain capture, and a
//! scenario on a [`ShardedEngine`](fcc_sim::ShardedEngine) passes its K
//! shard engines ([`engines_mut`](fcc_sim::ShardedEngine::engines_mut))
//! and its fabric's K domains. Each domain records into its own sink (a
//! sink may not span engines that run on different threads), and `end`
//! absorbs the sinks in domain order, so the export is byte-identical to
//! recording into one shared sink.
//!
//! The domain naming rule follows from the domain count alone: a
//! one-domain scenario's trace process and metric prefix are its `label`,
//! and domain `d` of a K-domain scenario is `"<label>-d<d>"`.
//!
//! `end` also checks every domain for stranded work and audits its
//! credit ledgers, recording or not, and returns both as a [`Harvest`]:
//! §3 D#3's failure mode, a credit deadlock, must be seen at the end of
//! every run, not only a traced one.

use fcc_fabric::ledger::{audit_topology, AuditReport};
use fcc_fabric::topology::Topology;
use fcc_sim::Engine;
use fcc_telemetry::{record_deadlock, MetricsRegistry, TraceSink};

/// What [`Capture::end`] found in a scenario's drained domains.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Harvest {
    /// Domains whose engine reported stranded work (a deadlock report).
    pub stranded: u64,
    /// Credit-ledger audit findings, each located by its domain's name.
    pub audit: AuditReport,
}

/// The harness's telemetry state: one trace sink and one metrics
/// registry shared across every scenario of a run.
pub struct Capture {
    /// The causal trace stream.
    pub sink: TraceSink,
    /// The labeled metrics registry.
    pub metrics: MetricsRegistry,
    /// One sink per domain of the open scenario, in domain order; empty
    /// outside `begin` .. `end` and when not recording.
    domain_sinks: Vec<TraceSink>,
    /// Every ended scenario's label and harvest, in end order. Not
    /// exported.
    ended: Vec<(String, Harvest)>,
}

/// The trace process and metric prefix of domain `d` of `domains`.
fn domain_name(label: &str, domains: usize, d: usize) -> String {
    if domains == 1 {
        label.to_string()
    } else {
        format!("{label}-d{d}")
    }
}

impl Capture {
    /// A disabled capture: every emit is a cheap no-op.
    pub fn disabled() -> Self {
        Capture::new(TraceSink::disabled())
    }

    /// A recording capture.
    pub fn recording() -> Self {
        Capture::new(TraceSink::recording())
    }

    fn new(sink: TraceSink) -> Self {
        Capture {
            sink,
            metrics: MetricsRegistry::new(),
            domain_sinks: Vec::new(),
            ended: Vec::new(),
        }
    }

    /// Whether tracing is live.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Opens a scenario over `engines[d]` running `domains[d]`: when
    /// recording, one sink per domain, each a trace process group named by
    /// the domain naming rule with that domain's component tracks wired in.
    pub fn begin(&mut self, label: &str, engines: &mut [Engine], domains: &[Topology]) {
        debug_assert_eq!(engines.len(), domains.len(), "one engine per domain");
        if !self.is_enabled() {
            return;
        }
        self.domain_sinks = engines
            .iter_mut()
            .zip(domains)
            .enumerate()
            .map(|(d, (engine, topo))| {
                let sink = TraceSink::recording();
                sink.begin_process(&domain_name(label, domains.len(), d));
                topo.enable_tracing(engine, &sink);
                sink
            })
            .collect();
    }

    /// Domain `d`'s sink while a scenario is open and recording, for
    /// tracks of components the fabric does not own.
    pub fn domain_sink(&self, d: usize) -> Option<&TraceSink> {
        self.domain_sinks.get(d)
    }

    /// Closes a scenario, domain by domain: absorbs the domain's trace,
    /// harvests its counters under `"<name>."`, lands any deadlock report
    /// in both the trace and the metrics, and audits its credit ledgers.
    /// Returns the stranded-domain count and the audit findings, found
    /// whether or not the capture records.
    pub fn end(&mut self, label: &str, engines: &[Engine], domains: &[Topology]) -> Harvest {
        let enabled = self.is_enabled();
        let mut sinks = std::mem::take(&mut self.domain_sinks).into_iter();
        let mut harvest = Harvest::default();
        for (d, (engine, topo)) in engines.iter().zip(domains).enumerate() {
            let name = domain_name(label, domains.len(), d);
            if let Some(dump) = sinks.next().and_then(TraceSink::into_dump) {
                self.sink.absorb(dump);
            }
            if enabled {
                topo.collect_metrics(engine, &mut self.metrics, &format!("{name}."));
            }
            if let Some(report) = engine.deadlock_report() {
                harvest.stranded += 1;
                if enabled {
                    record_deadlock(&self.sink, &mut self.metrics, &report, engine.now());
                }
            }
            harvest.audit.absorb(&name, audit_topology(engine, topo));
        }
        self.ended.push((label.to_string(), harvest.clone()));
        harvest
    }

    /// Every ended scenario's label and harvest, in end order.
    pub fn ended(&self) -> &[(String, Harvest)] {
        &self.ended
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

    #[test]
    fn domains_are_named_by_their_count() {
        assert_eq!(domain_name("e3a-w1", 1, 0), "e3a-w1");
        assert_eq!(domain_name("e14", 8, 3), "e14-d3");
    }
}
