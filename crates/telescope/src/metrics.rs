//! Metric bundles for the ingest pipeline and its stage timings.
//!
//! Counters mirror [`IngestStats`]/[`QuarantineStats`](crate::QuarantineStats)
//! field for field. The pipeline keeps its plain (non-atomic) stats
//! structs on the hot path; the stats are the only source of truth. The
//! owner stores the merged stats into these handles with
//! [`IngestMetrics::publish`] when the registry is read — once at the
//! merge tail in batch mode, at every registry read in live mode. That
//! keeps per-record overhead at zero and makes the reconciliation
//! invariant (`counter == stats field`, exactly, at any shard count)
//! hold by construction at every export point; [`IngestMetrics::verify`]
//! checks the mapping.

use crate::pipeline::{IngestStats, PipelineStats};
use quicsand_dissect::DissectMetrics;
use quicsand_obs::{
    Counter, Gauge, Histogram, MetricsRegistry, Stability, STAGE_WALLTIME_MICROS_BUCKETS,
};

/// Counter bundle mirroring [`IngestStats`] (and, nested, the
/// quarantine taxonomy and per-dissect-kind rejections).
#[derive(Debug, Clone)]
pub struct IngestMetrics {
    /// `quicsand_ingest_records_total` == [`IngestStats::total`].
    pub records_total: Counter,
    /// `{class="quic_candidate"}` == [`IngestStats::quic_candidates`].
    pub quic_candidates: Counter,
    /// `{class="quic_valid"}` == [`IngestStats::quic_valid`].
    pub quic_valid: Counter,
    /// `{class="quic_false_positive"}` == [`IngestStats::quic_false_positives`].
    pub quic_false_positives: Counter,
    /// `{class="tcp"}` == [`IngestStats::tcp`].
    pub tcp: Counter,
    /// `{class="icmp"}` == [`IngestStats::icmp`].
    pub icmp: Counter,
    /// `{class="other_udp"}` == [`IngestStats::other_udp`].
    pub other_udp: Counter,
    /// `{class="ambiguous"}` == [`IngestStats::ambiguous`].
    pub ambiguous: Counter,
    /// Per-kind quarantine counters, one per
    /// [`QuarantineStats`](crate::QuarantineStats) field.
    pub quarantined: QuarantineMetrics,
    /// Per-[`quicsand_dissect::DissectError`]-kind rejection counters —
    /// the dissector-originated subset of the quarantine taxonomy.
    pub dissect: DissectMetrics,
}

/// One counter per [`QuarantineStats`](crate::QuarantineStats) field, registered under
/// `quicsand_ingest_quarantined_total{kind="..."}` with the same kind
/// labels `QuarantineStats::as_table` prints.
#[derive(Debug, Clone)]
#[allow(missing_docs)] // field meanings documented on QuarantineStats
pub struct QuarantineMetrics {
    pub truncated: Counter,
    pub bad_version: Counter,
    pub bad_cid: Counter,
    pub not_quic: Counter,
    pub empty_payload: Counter,
    pub duplicate: Counter,
    pub reordered: Counter,
    pub clock_skew: Counter,
    pub transport_mismatch: Counter,
}

impl QuarantineMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        const NAME: &str = "quicsand_ingest_quarantined_total";
        const HELP: &str = "Records the ingest guard or dissector quarantined, by kind";
        let kind =
            |k: &'static str| registry.counter_with(NAME, HELP, Stability::Stable, &[("kind", k)]);
        QuarantineMetrics {
            truncated: kind("truncated"),
            bad_version: kind("bad-version"),
            bad_cid: kind("bad-cid"),
            not_quic: kind("not-quic"),
            empty_payload: kind("empty-payload"),
            duplicate: kind("duplicate"),
            reordered: kind("reordered"),
            clock_skew: kind("clock-skew"),
            transport_mismatch: kind("transport-mismatch"),
        }
    }
}

impl IngestMetrics {
    /// Registers the full ingest counter family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const CLASS_NAME: &str = "quicsand_ingest_classified_total";
        const CLASS_HELP: &str = "Records classified by the ingest pipeline, by class";
        let class = |c: &'static str| {
            registry.counter_with(CLASS_NAME, CLASS_HELP, Stability::Stable, &[("class", c)])
        };
        IngestMetrics {
            records_total: registry.counter(
                "quicsand_ingest_records_total",
                "Records offered to the ingest pipeline",
                Stability::Stable,
            ),
            quic_candidates: class("quic_candidate"),
            quic_valid: class("quic_valid"),
            quic_false_positives: class("quic_false_positive"),
            tcp: class("tcp"),
            icmp: class("icmp"),
            other_udp: class("other_udp"),
            ambiguous: class("ambiguous"),
            quarantined: QuarantineMetrics::register(registry),
            dissect: DissectMetrics::register(registry),
        }
    }

    /// Every mirrored `(name, counter, stats field)` triple — the one
    /// stats-to-series mapping that [`IngestMetrics::publish`] stores
    /// and [`IngestMetrics::verify`] checks. The dissector-originated
    /// quarantine kinds feed the per-kind dissect counters one-to-one.
    fn mirror<'a>(&'a self, stats: &IngestStats) -> [(&'static str, &'a Counter, u64); 22] {
        let q = &stats.quarantine;
        let qm = &self.quarantined;
        let d = &self.dissect;
        [
            ("total", &self.records_total, stats.total),
            (
                "quic_candidates",
                &self.quic_candidates,
                stats.quic_candidates,
            ),
            ("quic_valid", &self.quic_valid, stats.quic_valid),
            (
                "quic_false_positives",
                &self.quic_false_positives,
                stats.quic_false_positives,
            ),
            ("tcp", &self.tcp, stats.tcp),
            ("icmp", &self.icmp, stats.icmp),
            ("other_udp", &self.other_udp, stats.other_udp),
            ("ambiguous", &self.ambiguous, stats.ambiguous),
            ("quarantine[truncated]", &qm.truncated, q.truncated),
            ("quarantine[bad-version]", &qm.bad_version, q.bad_version),
            ("quarantine[bad-cid]", &qm.bad_cid, q.bad_cid),
            ("quarantine[not-quic]", &qm.not_quic, q.not_quic),
            (
                "quarantine[empty-payload]",
                &qm.empty_payload,
                q.empty_payload,
            ),
            ("quarantine[duplicate]", &qm.duplicate, q.duplicate),
            ("quarantine[reordered]", &qm.reordered, q.reordered),
            ("quarantine[clock-skew]", &qm.clock_skew, q.clock_skew),
            (
                "quarantine[transport-mismatch]",
                &qm.transport_mismatch,
                q.transport_mismatch,
            ),
            ("dissect[empty]", &d.empty, q.empty_payload),
            ("dissect[truncated]", &d.truncated, q.truncated),
            ("dissect[bad_version]", &d.bad_version, q.bad_version),
            ("dissect[bad_cid]", &d.bad_cid, q.bad_cid),
            ("dissect[not_quic]", &d.not_quic, q.not_quic),
        ]
    }

    /// Stores a reading of the (monotone) stats into the counters.
    pub fn publish(&self, stats: &IngestStats) {
        for (_, counter, field) in self.mirror(stats) {
            counter.store(field);
        }
    }

    /// The reconciliation invariant: every counter equals its stats
    /// field exactly. Returns the list of mismatches on failure.
    pub fn verify(&self, stats: &IngestStats) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        for (name, counter, field) in self.mirror(stats) {
            if counter.get() != field {
                errors.push(format!(
                    "{name}: counter {} != stats {field}",
                    counter.get()
                ));
            }
        }
        if self.dissect.total() != stats.quic_false_positives {
            errors.push(format!(
                "dissect total {} != quic_false_positives {}",
                self.dissect.total(),
                stats.quic_false_positives
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

/// Stage-timing metrics over [`PipelineStats`]: walltime histograms
/// (batch: one ingest/sanitize observation per shard and one
/// sessionize/detect observation per run; live: one per chunk)
/// plus end-of-run total gauges. All `Volatile`.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    /// `quicsand_stage_walltime_micros{stage="ingest"}`.
    pub ingest_walltime: Histogram,
    /// `{stage="sanitize"}` — zero observations in live mode.
    pub sanitize_walltime: Histogram,
    /// `{stage="sessionize"}`.
    pub sessionize_walltime: Histogram,
    /// `{stage="detect"}`.
    pub detect_walltime: Histogram,
    /// `quicsand_stage_total_micros{stage=...}` gauges, same order as
    /// the histograms.
    pub totals: [Gauge; 4],
    /// `quicsand_pipeline_threads` — worker threads / shards used.
    pub threads: Gauge,
    /// `quicsand_pipeline_peak_open_sessions` ==
    /// [`PipelineStats::peak_open_sessions`].
    pub peak_open_sessions: Gauge,
}

/// Stage label values, in [`StageMetrics::totals`] order.
pub const STAGE_LABELS: [&str; 4] = ["ingest", "sanitize", "sessionize", "detect"];

impl StageMetrics {
    /// Registers the stage-timing family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const HIST_NAME: &str = "quicsand_stage_walltime_micros";
        const HIST_HELP: &str =
            "Per-shard (batch) or per-chunk (live) stage wall time, microseconds";
        let hist = |stage: &'static str| {
            registry.histogram_with(
                HIST_NAME,
                HIST_HELP,
                Stability::Volatile,
                STAGE_WALLTIME_MICROS_BUCKETS,
                &[("stage", stage)],
            )
        };
        const TOTAL_NAME: &str = "quicsand_stage_total_micros";
        const TOTAL_HELP: &str = "Whole-run stage wall time, microseconds";
        let total = |stage: &'static str| {
            registry.gauge_with(
                TOTAL_NAME,
                TOTAL_HELP,
                Stability::Volatile,
                &[("stage", stage)],
            )
        };
        StageMetrics {
            ingest_walltime: hist("ingest"),
            sanitize_walltime: hist("sanitize"),
            sessionize_walltime: hist("sessionize"),
            detect_walltime: hist("detect"),
            totals: [
                total("ingest"),
                total("sanitize"),
                total("sessionize"),
                total("detect"),
            ],
            threads: registry.gauge(
                "quicsand_pipeline_threads",
                "Worker threads (batch) or shards (live) used",
                Stability::Volatile,
            ),
            // Volatile: live shards' peaks are summed, so the value
            // depends on the shard count, not only on the trace.
            peak_open_sessions: registry.gauge(
                "quicsand_pipeline_peak_open_sessions",
                "Sum of per-sessionizer/per-detector open-state high-water marks",
                Stability::Volatile,
            ),
        }
    }

    /// Records only the sharded stages (ingest/sanitize) — for batch
    /// shards, whose products the merge tail sessionizes and detects
    /// on once ([`StageMetrics::observe_tail`]).
    pub fn observe_shard(&self, stats: &PipelineStats) {
        self.ingest_walltime.observe(ms_to_micros(stats.ingest_ms));
        self.sanitize_walltime
            .observe(ms_to_micros(stats.sanitize_ms));
    }

    /// Records the merge-tail stages (sessionize/detect) — once per
    /// batch run.
    pub fn observe_tail(&self, stats: &PipelineStats) {
        self.sessionize_walltime
            .observe(ms_to_micros(stats.sessionize_ms));
        self.detect_walltime.observe(ms_to_micros(stats.detect_ms));
    }

    /// Publishes end-of-run totals (gauges are last-write-wins, so this
    /// is safe to call repeatedly as a run progresses).
    pub fn set_totals(&self, stats: &PipelineStats) {
        let values = [
            stats.ingest_ms,
            stats.sanitize_ms,
            stats.sessionize_ms,
            stats.detect_ms,
        ];
        for (gauge, ms) in self.totals.iter().zip(values) {
            gauge.set(ms_to_micros(ms));
        }
        self.threads.set(stats.threads as u64);
        self.peak_open_sessions.set(stats.peak_open_sessions as u64);
    }
}

fn ms_to_micros(ms: f64) -> u64 {
    (ms * 1_000.0).round().max(0.0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{IngestError, QuarantineStats};

    fn faked_stats() -> IngestStats {
        let mut stats = IngestStats {
            total: 100,
            quic_candidates: 40,
            quic_valid: 30,
            quic_false_positives: 10,
            tcp: 30,
            icmp: 10,
            other_udp: 5,
            ambiguous: 0,
            quarantine: QuarantineStats::default(),
        };
        stats.quarantine.record(&IngestError::Truncated);
        stats.quarantine.record(&IngestError::EmptyPayload);
        stats.quarantine.record(&IngestError::Duplicate);
        stats.quarantine.truncated += 4;
        stats.quarantine.not_quic += 4;
        // 10 false positives == truncated 5 + empty 1 + not_quic 4.
        stats
    }

    #[test]
    fn publish_then_verify_round_trips() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        metrics.publish(&stats);
        metrics.verify(&stats).expect("counters reconcile");
    }

    #[test]
    fn publishing_successive_readings_never_double_counts() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        // Publish an intermediate reading, then the final one.
        let mid = IngestStats {
            total: 50,
            tcp: 20,
            quarantine: QuarantineStats {
                duplicate: 1,
                ..QuarantineStats::default()
            },
            ..IngestStats::default()
        };
        metrics.publish(&mid);
        metrics.verify(&mid).expect("mid reading reconciles");
        metrics.publish(&stats);
        metrics.verify(&stats).expect("final reading reconciles");
        metrics.verify(&mid).expect_err("stale reading mismatches");
    }

    #[test]
    fn verify_catches_divergence() {
        let registry = MetricsRegistry::new();
        let metrics = IngestMetrics::register(&registry);
        let stats = faked_stats();
        metrics.publish(&stats);
        metrics.records_total.inc(); // sabotage
        let errors = metrics.verify(&stats).unwrap_err();
        assert!(errors.iter().any(|e| e.starts_with("total")), "{errors:?}");
    }

    #[test]
    fn stage_metrics_convert_ms_to_micros() {
        let registry = MetricsRegistry::new();
        let stages = StageMetrics::register(&registry);
        let stats = PipelineStats {
            threads: 2,
            records: 10,
            ingest_ms: 1.5,
            sanitize_ms: 0.0,
            sessionize_ms: 0.25,
            detect_ms: 3.0,
            peak_open_sessions: 7,
            quarantined: 0,
        };
        stages.observe_shard(&stats);
        stages.observe_tail(&stats);
        stages.set_totals(&stats);
        assert_eq!(stages.ingest_walltime.sum(), 1_500);
        assert_eq!(stages.totals[3].get(), 3_000);
        assert_eq!(stages.peak_open_sessions.get(), 7);
        assert_eq!(stages.threads.get(), 2);
        assert_eq!(stages.sanitize_walltime.count(), 1);
    }
}
