//! Per-source metric bundles for multi-feed ingestion.
//!
//! Every feed in a source set gets a labeled family
//! (`quicsand_source_*{source="i"}`): delivered-record / reconnect /
//! drop counters plus queue depth and peak gauges, and the set itself
//! exports a `quicsand_sources` count. All of these are
//! [`Stability::Volatile`]: how a trace is split across feeds is a
//! property of the deployment, not of the logical trace, so the
//! *stable* exposition stays byte-identical at any source count — the
//! invariant the multi-source equivalence suite asserts.
//!
//! The owner keeps the values in its own stats; the handles only mirror
//! them. Whoever reads the registry first stores a fresh reading with
//! [`SourceSetMetrics::publish`], and [`SourceSetMetrics::verify`]
//! checks the stats-to-series mapping.

use crate::registry::{Counter, Gauge, MetricsRegistry, Stability};
use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};

/// A point-in-time reading of one feed's counters (plain data; the
/// ingestion layer converts its own stats type into this).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SourceSample {
    /// Records delivered to the consumer (absolute stream position).
    pub delivered: u64,
    /// Record batches pushed through the feed's bounded queue.
    pub batches: u64,
    /// Reconnect attempts after failures.
    pub reconnects: u64,
    /// Failed sessions skipped over (corrupt record or open error).
    pub drops: u64,
    /// Records currently buffered in the feed's queue.
    pub queue_depth: u64,
    /// Highest queue occupancy observed.
    pub queue_peak: u64,
}

/// Interned `source="<index>"` label values (metric labels are
/// `&'static str`). Small indices come from a static table; larger ones
/// are leaked once and cached, so repeated registration never re-leaks.
pub fn source_label(index: usize) -> &'static str {
    static SMALL: [&str; 16] = [
        "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
    ];
    if let Some(label) = SMALL.get(index) {
        return label;
    }
    static EXTRA: OnceLock<Mutex<BTreeMap<usize, &'static str>>> = OnceLock::new();
    let mut cache = EXTRA
        .get_or_init(Default::default)
        .lock()
        .expect("label cache lock");
    cache
        .entry(index)
        .or_insert_with(|| Box::leak(index.to_string().into_boxed_str()))
}

/// One feed's labeled handles.
#[derive(Debug, Clone)]
pub struct SourceFeedMetrics {
    /// `quicsand_source_records_total{source=...}` ==
    /// [`SourceSample::delivered`].
    pub records: Counter,
    /// `quicsand_source_batches_total{source=...}` — batched hand-offs
    /// through the queue; `records_total / batches_total` is the
    /// realized amortization factor.
    pub batches: Counter,
    /// `quicsand_source_reconnects_total{source=...}`.
    pub reconnects: Counter,
    /// `quicsand_source_drops_total{source=...}`.
    pub drops: Counter,
    /// `quicsand_source_queue_depth{source=...}` — buffered records at
    /// the last publish.
    pub queue_depth: Gauge,
    /// `quicsand_source_queue_peak{source=...}` — high-water queue
    /// occupancy.
    pub queue_peak: Gauge,
}

impl SourceFeedMetrics {
    fn register(registry: &MetricsRegistry, index: usize) -> Self {
        let labels: &[(&'static str, &'static str)] = &[("source", source_label(index))];
        SourceFeedMetrics {
            records: registry.counter_with(
                "quicsand_source_records_total",
                "Records delivered by this feed into the merged stream",
                Stability::Volatile,
                labels,
            ),
            batches: registry.counter_with(
                "quicsand_source_batches_total",
                "Record batches pushed through the feed's bounded queue",
                Stability::Volatile,
                labels,
            ),
            reconnects: registry.counter_with(
                "quicsand_source_reconnects_total",
                "Reconnect attempts after a feed failure",
                Stability::Volatile,
                labels,
            ),
            drops: registry.counter_with(
                "quicsand_source_drops_total",
                "Failed feed sessions skipped over (corrupt record or open error)",
                Stability::Volatile,
                labels,
            ),
            queue_depth: registry.gauge_with(
                "quicsand_source_queue_depth",
                "Records buffered in the feed's bounded queue when last published",
                Stability::Volatile,
                labels,
            ),
            queue_peak: registry.gauge_with(
                "quicsand_source_queue_peak",
                "High-water occupancy of the feed's bounded queue",
                Stability::Volatile,
                labels,
            ),
        }
    }
}

/// The whole set's bundle: one [`SourceFeedMetrics`] per feed plus the
/// feed-count gauge.
#[derive(Debug, Clone)]
pub struct SourceSetMetrics {
    /// Per-feed handles, indexed like the source set.
    pub feeds: Vec<SourceFeedMetrics>,
    /// `quicsand_sources` — feeds in the set.
    pub sources: Gauge,
}

impl SourceSetMetrics {
    /// Registers the per-source families for `count` feeds.
    pub fn register(registry: &MetricsRegistry, count: usize) -> Self {
        let sources = registry.gauge(
            "quicsand_sources",
            "Feeds in the ingestion source set",
            Stability::Volatile,
        );
        sources.set(count as u64);
        SourceSetMetrics {
            feeds: (0..count)
                .map(|index| SourceFeedMetrics::register(registry, index))
                .collect(),
            sources,
        }
    }

    /// Stores one reading per feed into the handles: counters take the
    /// sample's cumulative values, gauges its point-in-time ones.
    ///
    /// # Panics
    /// When the slice disagrees with the registered feed count.
    pub fn publish(&self, samples: &[SourceSample]) {
        assert_eq!(samples.len(), self.feeds.len(), "one sample per feed");
        for (feed, sample) in self.feeds.iter().zip(samples) {
            feed.records.store(sample.delivered);
            feed.batches.store(sample.batches);
            feed.reconnects.store(sample.reconnects);
            feed.drops.store(sample.drops);
            feed.queue_depth.set(sample.queue_depth);
            feed.queue_peak.set(sample.queue_peak);
        }
    }

    /// Checks that every exported handle equals the corresponding
    /// sample field; returns the mismatches on failure.
    pub fn verify(&self, samples: &[SourceSample]) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        if samples.len() != self.feeds.len() {
            return Err(vec![format!(
                "source sample count {} != registered feeds {}",
                samples.len(),
                self.feeds.len()
            )]);
        }
        if self.sources.get() != self.feeds.len() as u64 {
            errors.push(format!(
                "quicsand_sources {} != feed count {}",
                self.sources.get(),
                self.feeds.len()
            ));
        }
        for (index, (feed, sample)) in self.feeds.iter().zip(samples).enumerate() {
            let mut check = |name: &str, got: u64, want: u64| {
                if got != want {
                    errors.push(format!(
                        "{name}{{source=\"{index}\"}} {got} != stats {want}"
                    ));
                }
            };
            check(
                "quicsand_source_records_total",
                feed.records.get(),
                sample.delivered,
            );
            check(
                "quicsand_source_batches_total",
                feed.batches.get(),
                sample.batches,
            );
            check(
                "quicsand_source_reconnects_total",
                feed.reconnects.get(),
                sample.reconnects,
            );
            check(
                "quicsand_source_drops_total",
                feed.drops.get(),
                sample.drops,
            );
            check(
                "quicsand_source_queue_depth",
                feed.queue_depth.get(),
                sample.queue_depth,
            );
            check(
                "quicsand_source_queue_peak",
                feed.queue_peak.get(),
                sample.queue_peak,
            );
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_interned_and_stable() {
        assert_eq!(source_label(0), "0");
        assert_eq!(source_label(15), "15");
        let big = source_label(123);
        assert_eq!(big, "123");
        // Cached: the same pointer comes back, no re-leak.
        assert!(std::ptr::eq(big, source_label(123)));
    }

    #[test]
    fn publish_reconciles() {
        let registry = MetricsRegistry::new();
        let metrics = SourceSetMetrics::register(&registry, 2);
        let mid = [
            SourceSample {
                delivered: 10,
                batches: 2,
                reconnects: 1,
                drops: 1,
                queue_depth: 3,
                queue_peak: 5,
            },
            SourceSample {
                delivered: 4,
                batches: 1,
                ..SourceSample::default()
            },
        ];
        metrics.publish(&mid);
        metrics.verify(&mid).expect("mid reading reconciles");
        let end = [
            SourceSample {
                delivered: 25,
                batches: 4,
                reconnects: 2,
                drops: 2,
                queue_depth: 0,
                queue_peak: 7,
            },
            SourceSample {
                delivered: 9,
                batches: 3,
                queue_peak: 2,
                ..SourceSample::default()
            },
        ];
        metrics.publish(&end);
        metrics.verify(&end).expect("end reading reconciles");
        metrics.verify(&mid).expect_err("stale samples mismatch");
    }

    #[test]
    fn per_source_series_are_volatile_only() {
        let registry = MetricsRegistry::new();
        let metrics = SourceSetMetrics::register(&registry, 3);
        metrics.publish(
            &[SourceSample {
                delivered: 5,
                queue_peak: 2,
                ..SourceSample::default()
            }; 3],
        );
        let stable = registry.render_prometheus(true);
        assert!(
            !stable.contains("quicsand_source") && !stable.contains("quicsand_sources"),
            "per-source series leaked into the stable exposition:\n{stable}"
        );
        let full = registry.render_prometheus(false);
        for family in [
            "quicsand_source_records_total",
            "quicsand_source_batches_total",
            "quicsand_source_reconnects_total",
            "quicsand_source_drops_total",
            "quicsand_source_queue_depth",
            "quicsand_source_queue_peak",
            "quicsand_sources",
        ] {
            assert!(full.contains(family), "missing {family}:\n{full}");
        }
    }
}
