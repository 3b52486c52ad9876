//! Per-[`DissectError`](crate::DissectError)-kind rejection counters.
//!
//! The dissector is the stage that turns port-filter candidates into
//! validated QUIC observations; every rejection it issues is one of
//! these kinds. The counters are not incremented here: the ingest
//! pipeline counts rejections in its quarantine taxonomy, and its
//! metric bundle stores each `QuarantineStats` field into the matching
//! counter, so their sum equals `IngestStats::quic_false_positives`.

use quicsand_obs::{Counter, MetricsRegistry, Stability};

/// Prometheus family name for dissector rejections.
pub const DISSECT_REJECTED_TOTAL: &str = "quicsand_dissect_rejected_total";

/// One counter per [`DissectError`](crate::DissectError) kind, registered under
/// `quicsand_dissect_rejected_total{kind="..."}`.
#[derive(Debug, Clone)]
pub struct DissectMetrics {
    /// Zero-length UDP payloads (`DissectError::Empty`).
    pub empty: Counter,
    /// Structurally cut-off packets (`DissectError::Truncated`).
    pub truncated: Counter,
    /// Unknown version fields (`DissectError::BadVersion`).
    pub bad_version: Counter,
    /// Oversized connection IDs (`DissectError::BadCid`).
    pub bad_cid: Counter,
    /// Not structurally QUIC at all (`DissectError::NotQuic`).
    pub not_quic: Counter,
}

impl DissectMetrics {
    /// Registers the five kind-labelled counters on `registry`.
    pub fn register(registry: &MetricsRegistry) -> Self {
        const HELP: &str = "QUIC candidates rejected by the payload dissector, by error kind";
        let kind = |k: &'static str| {
            registry.counter_with(
                DISSECT_REJECTED_TOTAL,
                HELP,
                Stability::Stable,
                &[("kind", k)],
            )
        };
        DissectMetrics {
            empty: kind("empty_payload"),
            truncated: kind("truncated"),
            bad_version: kind("bad_version"),
            bad_cid: kind("bad_cid"),
            not_quic: kind("not_quic"),
        }
    }

    /// Sum over all kinds — reconciles with
    /// `IngestStats::quic_false_positives`.
    pub fn total(&self) -> u64 {
        self.empty.get()
            + self.truncated.get()
            + self.bad_version.get()
            + self.bad_cid.get()
            + self.not_quic.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_counters_surface_in_exposition() {
        let registry = MetricsRegistry::new();
        let metrics = DissectMetrics::register(&registry);
        metrics.bad_version.add(3);
        let text = registry.render_prometheus(true);
        assert!(text.contains("quicsand_dissect_rejected_total{kind=\"bad_version\"} 3"));
    }
}
