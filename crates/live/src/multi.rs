//! Multi-source front end for the live engine: a [`SourceSet`] pumped
//! into a [`LiveEngine`], with per-source metrics and a schema-v2
//! checkpoint that snapshots every feed's resume cursor.
//!
//! The engine itself is unchanged — it still consumes plain record
//! chunks — so every engine-level invariant (shard-count and chunk-size
//! independence, snapshot/restore losslessness) carries over verbatim.
//! What this layer adds on top:
//!
//! * one [`SourceSample`] bundle per feed on the engine's registry
//!   (volatile: feed layout is deployment shape, not trace content),
//! * the conservation invariant `sum(source cursors) == records
//!   offered`, checked by [`MultiSourceLive::verify_metrics`], and
//! * [`MultiSnapshot`] — checkpoint schema v2. Because the merge holds
//!   exactly one head per source, its future output is a pure function
//!   of the per-source remaining suffixes; restoring the engine state
//!   and re-opening every feed past its cursor therefore reproduces the
//!   exact continuation, even when the original run had reconnects in
//!   flight.
//!
//! **Backward compatibility:** a v1 checkpoint is a bare
//! [`LiveSnapshot`] (single implicit source, no cursor field).
//! [`parse_checkpoint`] still accepts it, and restore maps it onto a
//! one-source set resuming at `offered` — exact, because a
//! single-source merge delivers records in stream order.

use crate::alert::LiveEvent;
use crate::detector::{LiveConfig, LiveStats};
use crate::engine::{LiveEngine, LiveSnapshot};
use quicsand_net::multi::{SourceFactory, SourceSet, SourceSetConfig, SourceStats};
use quicsand_net::StreamSource;
use quicsand_obs::{MetricsRegistry, SourceSample, SourceSetMetrics};
use quicsand_telescope::{GuardConfig, IngestStats};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Current checkpoint schema version ([`MultiSnapshot::version`]).
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 2;

/// Checkpoint schema v2: the engine snapshot plus one resume cursor
/// (absolute records consumed) per source.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSnapshot {
    /// Schema version; see [`CHECKPOINT_SCHEMA_VERSION`].
    pub version: u32,
    /// The engine's own lossless snapshot.
    pub engine: LiveSnapshot,
    /// Records consumed per source at checkpoint time (empty for a
    /// parsed v1 checkpoint).
    pub cursors: Vec<u64>,
}

impl MultiSnapshot {
    /// The per-source cursors a restore over `sources` feeds should
    /// resume from. A v1 checkpoint carries no cursor vector, but the
    /// single implicit source consumed exactly `offered` records.
    pub fn resume_cursors(&self, sources: usize) -> Result<Vec<u64>, String> {
        if self.version < CHECKPOINT_SCHEMA_VERSION {
            if sources != 1 {
                return Err(format!(
                    "v1 checkpoint describes a single source, cannot resume {sources} feeds"
                ));
            }
            return Ok(vec![self.engine.offered]);
        }
        if self.cursors.len() != sources {
            return Err(format!(
                "checkpoint has {} source cursor(s), cannot resume {sources} feeds",
                self.cursors.len()
            ));
        }
        Ok(self.cursors.clone())
    }
}

/// Parses a checkpoint of either schema: v2 [`MultiSnapshot`] JSON, or
/// the v1 format (a bare [`LiveSnapshot`]) which is mapped onto a
/// `version: 1` snapshot with no cursor vector.
pub fn parse_checkpoint(json: &str) -> Result<MultiSnapshot, String> {
    match serde_json::from_str::<MultiSnapshot>(json) {
        Ok(snapshot) if (1..=CHECKPOINT_SCHEMA_VERSION).contains(&snapshot.version) => Ok(snapshot),
        Ok(snapshot) => Err(format!(
            "unsupported checkpoint schema v{} (newest supported: v{CHECKPOINT_SCHEMA_VERSION})",
            snapshot.version
        )),
        Err(_) => {
            let engine: LiveSnapshot = serde_json::from_str(json)
                .map_err(|e| format!("neither a v2 nor a v1 checkpoint: {e}"))?;
            Ok(MultiSnapshot {
                version: 1,
                engine,
                cursors: Vec::new(),
            })
        }
    }
}

fn to_samples(stats: &[SourceStats]) -> Vec<SourceSample> {
    stats
        .iter()
        .map(|s| SourceSample {
            delivered: s.delivered,
            batches: s.batches,
            reconnects: s.reconnects,
            drops: s.drops,
            queue_depth: s.queue_depth as u64,
            queue_peak: s.queue_peak as u64,
        })
        .collect()
}

/// A [`LiveEngine`] fed by a [`SourceSet`], with per-source metric
/// bundles derived from the set's stats whenever they are read.
#[derive(Debug)]
pub struct MultiSourceLive {
    engine: LiveEngine,
    set: SourceSet,
    source_metrics: SourceSetMetrics,
    exhausted: bool,
}

impl MultiSourceLive {
    /// Builds a fresh engine over `set`.
    pub fn new(config: LiveConfig, guard: GuardConfig, shards: usize, set: SourceSet) -> Self {
        Self::attach(LiveEngine::new(config, guard, shards), set)
    }

    /// Couples an engine (fresh or restored) to a source set and
    /// registers the per-source families on its registry. A resumed
    /// set's stats start at its cursors, so the counters cover the full
    /// run even after a restore.
    fn attach(engine: LiveEngine, set: SourceSet) -> Self {
        let source_metrics = SourceSetMetrics::register(engine.registry(), set.len());
        MultiSourceLive {
            engine,
            set,
            source_metrics,
            exhausted: false,
        }
    }

    /// Rebuilds engine and sources from a checkpoint: the engine via
    /// its own restore, each feed re-opened and fast-forwarded past its
    /// cursor. Replaying the rest of the stream emits exactly the
    /// events the snapshotted run would have.
    pub fn restore(
        snapshot: &MultiSnapshot,
        factories: Vec<Box<dyn SourceFactory>>,
        config: &SourceSetConfig,
    ) -> Result<MultiSourceLive, String> {
        let cursors = snapshot.resume_cursors(factories.len())?;
        let engine = LiveEngine::restore(&snapshot.engine);
        let set = SourceSet::resume(factories, config, &cursors);
        Ok(Self::attach(engine, set))
    }

    /// Pulls up to `chunk` merged records and offers them to the
    /// engine. `None` once every source is exhausted (the engine still
    /// needs [`MultiSourceLive::finish`]).
    pub fn pump(&mut self, chunk: usize) -> Option<Vec<LiveEvent>> {
        self.pump_with(chunk, &mut quicsand_events::NoopSubscriber)
    }

    /// [`MultiSourceLive::pump`], additionally forwarding the typed
    /// event stream (wire rejections, Retry/VN observations, alert
    /// lifecycle) to `subscriber`. Delegates to
    /// [`LiveEngine::offer_chunk_with`], so the stream is deterministic
    /// at any shard count.
    pub fn pump_with<S: quicsand_events::Subscriber>(
        &mut self,
        chunk: usize,
        subscriber: &mut S,
    ) -> Option<Vec<LiveEvent>> {
        if self.exhausted {
            return None;
        }
        let records = self
            .set
            .pull_chunk(chunk.max(1))
            .expect("the merged stream handles source errors internally");
        if records.is_empty() {
            self.exhausted = true;
            return None;
        }
        Some(self.engine.offer_chunk_with(&records, subscriber))
    }

    /// Ends the stream: flushes every open session and returns the
    /// trailing events.
    pub fn finish(&mut self) -> Vec<LiveEvent> {
        self.finish_with(&mut quicsand_events::NoopSubscriber)
    }

    /// [`MultiSourceLive::finish`], forwarding the trailing alert
    /// lifecycle events to `subscriber`.
    pub fn finish_with<S: quicsand_events::Subscriber>(
        &mut self,
        subscriber: &mut S,
    ) -> Vec<LiveEvent> {
        self.engine.finish_with(subscriber)
    }

    /// Takes a schema-v2 checkpoint of engine and source cursors.
    pub fn snapshot(&self) -> MultiSnapshot {
        MultiSnapshot {
            version: CHECKPOINT_SCHEMA_VERSION,
            engine: self.engine.snapshot(),
            cursors: self.set.cursors(),
        }
    }

    /// The reconciliation invariant, extended with the per-source
    /// counters: engine counters equal engine stats, source counters
    /// equal source stats, and the cursors conserve records —
    /// `sum(delivered) == offered`.
    pub fn verify_metrics(&self) -> Result<(), Vec<String>> {
        let mut errors = self.engine.verify_metrics().err().unwrap_or_default();
        // One reading serves both sides: the queue gauges move while
        // the feeds run.
        let samples = to_samples(&self.set.stats());
        self.source_metrics.publish(&samples);
        if let Err(e) = self.source_metrics.verify(&samples) {
            errors.extend(e);
        }
        let delivered = self.set.delivered_total();
        if delivered != self.engine.offered() {
            errors.push(format!(
                "records not conserved: sources delivered {delivered} != engine offered {}",
                self.engine.offered()
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The underlying engine (alerts, stats, registry).
    pub fn engine(&self) -> &LiveEngine {
        &self.engine
    }

    /// The engine's registry with the engine families and the per-feed
    /// families published from the current stats — the registry to
    /// export.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        self.source_metrics.publish(&to_samples(&self.set.stats()));
        self.engine.registry()
    }

    /// Records offered to the engine so far.
    pub fn offered(&self) -> u64 {
        self.engine.offered()
    }

    /// Merged detector counters (delegates to the engine).
    pub fn live_stats(&self) -> LiveStats {
        self.engine.live_stats()
    }

    /// Merged ingest counters (delegates to the engine).
    pub fn ingest_stats(&self) -> IngestStats {
        self.engine.ingest_stats()
    }

    /// Per-source telemetry at the last reading.
    pub fn source_stats(&self) -> Vec<SourceStats> {
        self.set.stats()
    }

    /// Number of feeds in the set.
    pub fn sources(&self) -> usize {
        self.set.len()
    }

    /// Per-source vantage labels (delegates to the set). The qlog
    /// export records these in the trace's vantage-point metadata.
    pub fn labels(&self) -> &[String] {
        self.set.labels()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_net::multi::{memory_factory, merge_records};
    use quicsand_net::{PacketRecord, TcpFlags, Timestamp};
    use std::net::Ipv4Addr;

    fn syn_ack(ts_micros: u64, last: u8) -> PacketRecord {
        PacketRecord::tcp(
            Timestamp::from_micros(ts_micros),
            Ipv4Addr::new(198, 51, 100, last),
            Ipv4Addr::new(10, 0, 0, 7),
            443,
            50_000,
            TcpFlags::SYN_ACK,
        )
    }

    fn trace(victims: u8, secs: u64) -> Vec<PacketRecord> {
        let mut records = Vec::new();
        for tick in 0..(secs * 2) {
            for v in 0..victims {
                records.push(syn_ack(tick * 500_000 + v as u64, v + 1));
            }
        }
        records
    }

    fn splits(records: &[PacketRecord], n: usize) -> Vec<Vec<PacketRecord>> {
        let mut parts = vec![Vec::new(); n];
        for (i, r) in records.iter().enumerate() {
            parts[i % n].push(r.clone());
        }
        parts
    }

    fn factories(parts: &[Vec<PacketRecord>]) -> Vec<Box<dyn SourceFactory>> {
        parts
            .iter()
            .map(|p| Box::new(memory_factory(p.clone())) as Box<dyn SourceFactory>)
            .collect()
    }

    #[test]
    fn pump_matches_a_single_engine_over_the_merged_trace() {
        let records = trace(3, 120);
        let parts = splits(&records, 2);
        let merged = merge_records(&parts);

        let mut reference = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let mut want = Vec::new();
        for chunk in merged.chunks(512) {
            want.extend(reference.offer_chunk(chunk));
        }
        want.extend(reference.finish());

        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let mut got = Vec::new();
        while let Some(events) = live.pump(512) {
            got.extend(events);
        }
        got.extend(live.finish());

        assert_eq!(got, want);
        assert_eq!(live.engine().closed_common(), reference.closed_common());
        live.verify_metrics().expect("reconciles");
    }

    #[test]
    fn v2_checkpoint_round_trips_and_resumes() {
        let records = trace(2, 120);
        let parts = splits(&records, 2);

        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
        let mut before = Vec::new();
        for _ in 0..3 {
            before.extend(live.pump(64).expect("stream not done"));
        }
        let snapshot = live.snapshot();
        let encoded = serde_json::to_string(&snapshot).unwrap();
        let decoded = parse_checkpoint(&encoded).expect("v2 parses");
        assert_eq!(decoded, snapshot);

        let mut restored =
            MultiSourceLive::restore(&decoded, factories(&parts), &SourceSetConfig::default())
                .expect("restore");
        assert_eq!(restored.snapshot(), snapshot, "restore is lossless");
        let mut after = Vec::new();
        while let Some(events) = restored.pump(64) {
            after.extend(events);
        }
        after.extend(restored.finish());
        restored.verify_metrics().expect("restored run reconciles");

        // The uninterrupted run emits exactly before ++ after.
        let mut straight = Vec::new();
        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let mut live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 2, set);
        while let Some(events) = live.pump(64) {
            straight.extend(events);
        }
        straight.extend(live.finish());
        let mut resumed = before;
        resumed.extend(after);
        assert_eq!(resumed, straight);
    }

    #[test]
    fn v1_checkpoints_still_parse_and_resume_a_single_feed() {
        let records = trace(2, 90);
        let mut engine = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let half = records.len() / 2;
        let mut before = engine.offer_chunk(&records[..half]);
        let v1_json = serde_json::to_string(&engine.snapshot()).unwrap();

        let parsed = parse_checkpoint(&v1_json).expect("v1 parses");
        assert_eq!(parsed.version, 1);
        assert!(parsed.cursors.is_empty());
        assert_eq!(
            parsed.resume_cursors(1).unwrap(),
            vec![half as u64],
            "v1 maps offered onto the single source's cursor"
        );
        parsed
            .resume_cursors(2)
            .expect_err("v1 cannot resume multiple feeds");

        let factories: Vec<Box<dyn SourceFactory>> =
            vec![Box::new(memory_factory(records.clone()))];
        let mut restored =
            MultiSourceLive::restore(&parsed, factories, &SourceSetConfig::default())
                .expect("v1 restore");
        while let Some(events) = restored.pump(256) {
            before.extend(events);
        }
        before.extend(restored.finish());

        let mut straight = LiveEngine::new(LiveConfig::default(), GuardConfig::default(), 1);
        let mut want = straight.offer_chunk(&records);
        want.extend(straight.finish());
        assert_eq!(before, want);
    }

    #[test]
    fn unknown_future_schema_is_rejected() {
        let records = trace(1, 30);
        let set = SourceSet::spawn(factories(&splits(&records, 1)), &SourceSetConfig::default());
        let live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let mut snapshot = live.snapshot();
        snapshot.version = 3;
        let encoded = serde_json::to_string(&snapshot).unwrap();
        let error = parse_checkpoint(&encoded).expect_err("v3 rejected");
        assert!(error.contains("unsupported"), "{error}");
    }

    #[test]
    fn cursor_count_mismatch_is_rejected() {
        let records = trace(1, 30);
        let parts = splits(&records, 2);
        let set = SourceSet::spawn(factories(&parts), &SourceSetConfig::default());
        let live = MultiSourceLive::new(LiveConfig::default(), GuardConfig::default(), 1, set);
        let snapshot = live.snapshot();
        let one: Vec<Box<dyn SourceFactory>> = vec![Box::new(memory_factory(parts[0].clone()))];
        MultiSourceLive::restore(&snapshot, one, &SourceSetConfig::default())
            .expect_err("2 cursors cannot resume 1 feed");
    }
}
