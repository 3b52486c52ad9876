//! Metric bundle for the live engine: alert lifecycle, memory-cap
//! evictions, and checkpoint volume.
//!
//! Counters mirror [`LiveStats`] field for field. The merged detector
//! stats are the only source of truth: the engine stores them into the
//! handles with [`LiveMetrics::publish`] whenever its registry or
//! metrics are read, so they reconcile exactly at any shard count and
//! across restores. Attack distributions reuse the batch
//! [`DosMetrics`] family — same names, buckets, and units — which
//! is what makes live histogram totals directly comparable with a batch
//! `analyze` over the same trace.

use crate::detector::LiveStats;
use quicsand_obs::{Counter, Gauge, MetricsRegistry, Stability};
use quicsand_sessions::DosMetrics;

/// Live-engine counters (one bundle per engine, shared across shards).
#[derive(Debug, Clone)]
pub struct LiveMetrics {
    /// `quicsand_live_events_total` == [`LiveStats::events_in`].
    pub events_total: Counter,
    /// `quicsand_live_alerts_total{phase="opened"}`.
    pub opened: Counter,
    /// `{phase="escalated"}`.
    pub escalated: Counter,
    /// `{phase="closed"}`.
    pub closed: Counter,
    /// `{phase="reclassified"}`.
    pub reclassified: Counter,
    /// `quicsand_live_evictions_total` == [`LiveStats::evictions`].
    pub evictions: Counter,
    /// `quicsand_live_peak_tracked` == [`LiveStats::peak_tracked`]
    /// (volatile: per-shard peaks are summed, so the value depends on
    /// the shard count, not only on the trace).
    pub peak_tracked: Gauge,
    /// `quicsand_live_tracked` — victims tracked when the engine last
    /// published (volatile: a point-in-time reading).
    pub tracked: Gauge,
    /// `quicsand_live_checkpoints_total` — checkpoints written
    /// (volatile: depends on the operator's checkpoint cadence).
    pub checkpoints_total: Counter,
    /// `quicsand_live_checkpoint_bytes_total` — serialized checkpoint
    /// bytes written (volatile, same reason).
    pub checkpoint_bytes_total: Counter,
    /// Closed-attack distributions, shared family with batch detection.
    pub dos: DosMetrics,
}

impl LiveMetrics {
    /// Registers the live family on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const ALERTS: &str = "quicsand_live_alerts_total";
        const ALERTS_HELP: &str = "Alert lifecycle transitions, by phase";
        let phase = |p: &'static str| {
            registry.counter_with(ALERTS, ALERTS_HELP, Stability::Stable, &[("phase", p)])
        };
        LiveMetrics {
            events_total: registry.counter(
                "quicsand_live_events_total",
                "Packets offered to the live detector (post-ingest-guard)",
                Stability::Stable,
            ),
            opened: phase("opened"),
            escalated: phase("escalated"),
            closed: phase("closed"),
            reclassified: phase("reclassified"),
            evictions: registry.counter(
                "quicsand_live_evictions_total",
                "Victims evicted under the per-channel memory cap",
                Stability::Stable,
            ),
            peak_tracked: registry.gauge(
                "quicsand_live_peak_tracked",
                "High-water mark of simultaneously tracked victims",
                Stability::Volatile,
            ),
            tracked: registry.gauge(
                "quicsand_live_tracked",
                "Victims tracked when the metrics were last published",
                Stability::Volatile,
            ),
            checkpoints_total: registry.counter(
                "quicsand_live_checkpoints_total",
                "Engine checkpoints written",
                Stability::Volatile,
            ),
            checkpoint_bytes_total: registry.counter(
                "quicsand_live_checkpoint_bytes_total",
                "Serialized checkpoint bytes written",
                Stability::Volatile,
            ),
            dos: DosMetrics::register(registry),
        }
    }

    /// Stores a reading of the merged detector stats into the handles.
    pub fn publish(&self, stats: &LiveStats) {
        self.events_total.store(stats.events_in);
        self.opened.store(stats.opened);
        self.escalated.store(stats.escalated);
        self.closed.store(stats.closed);
        self.reclassified.store(stats.reclassified);
        self.evictions.store(stats.evictions);
        self.peak_tracked.set(stats.peak_tracked as u64);
    }

    /// The reconciliation invariant: every counter equals its
    /// [`LiveStats`] field exactly.
    pub fn verify(&self, stats: &LiveStats) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        let mut check = |name: &str, counter: u64, field: u64| {
            if counter != field {
                errors.push(format!("{name}: counter {counter} != stats {field}"));
            }
        };
        check("events_in", self.events_total.get(), stats.events_in);
        check("opened", self.opened.get(), stats.opened);
        check("escalated", self.escalated.get(), stats.escalated);
        check("closed", self.closed.get(), stats.closed);
        check("reclassified", self.reclassified.get(), stats.reclassified);
        check("evictions", self.evictions.get(), stats.evictions);
        check(
            "peak_tracked",
            self.peak_tracked.get(),
            stats.peak_tracked as u64,
        );
        let observed = self.dos.attacks_quic.get() + self.dos.attacks_common.get();
        if observed != stats.closed {
            errors.push(format!(
                "attack observations {observed} != closed alerts {}",
                stats.closed
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}
