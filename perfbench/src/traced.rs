//! The traced run: each workload replayed in-process from the
//! benchmark's own code, with a span around every call into a layer's
//! public functions.
//!
//! The replica does what the untraced run does — the same inputs, the
//! same configuration, the same output files — but calls the layers
//! one by one, so each layer's time and counts can be read off its
//! spans. Its products (floods, classes, alerts) must equal the
//! untraced run's reference, so both measure the same work. Only the
//! replica is accounted against `trace_wall_ms`: the summed self time
//! of its spans plus `unattributed_ms` equals that wall. Set-up spans
//! (`traffic.*`) and the shard-scaling calibration run outside it.

use crate::stats::quantile;
use crate::trace::Tracer;
use crate::workload::{
    self, Inputs, Verdicts, Workload, LIVE_CHECKPOINT_EVERY, LIVE_CHUNK, SCAN_THREADS, SHARDS,
};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_dissect::{classify_record, Classification, Direction};
use quicsand_events::qlog::{validate_qlog, QlogWriter};
use quicsand_events::{EventMeta, Subscriber};
use quicsand_intel::{SyntheticInternet, TopologyConfig};
use quicsand_live::{parse_checkpoint, LiveEngine, MultiSnapshot, CHECKPOINT_SCHEMA_VERSION};
use quicsand_net::{
    capture_file_factory, merge_records, PacketRecord, SourceFactory, SourceSet, SourceSetConfig,
    StreamSource, ZeroCopyCaptureReader,
};
use quicsand_sessions::dos::AttackProtocol;
use quicsand_sessions::{
    classify_multivector_with, detect_attacks, link_migrations, Session, SessionConfig,
    Sessionizer, VectorSignals,
};
use quicsand_telescope::parallel::partition_by_source;
use quicsand_telescope::{
    Admitted, GuardConfig, QuicObservation, ResearchFilter, TelescopePipeline,
};
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Records per decode batch and per classify/admit span.
const BATCH: usize = quicsand_net::zerocopy::DEFAULT_BATCH;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.read_ms", "ms"),
    ("net.decode_ms", "ms"),
    ("net.decode_bytes", "bytes"),
    ("net.merge_ms", "ms"),
    ("net.queue_peak", "records"),
    ("net.merge_batches", "count"),
    ("net.resume_ms", "ms"),
    ("dissect.classify_ms", "ms"),
    ("dissect.quic_share", "ratio"),
    ("telescope.admit_ms", "ms"),
    ("telescope.admit_ratio", "ratio"),
    ("telescope.quarantined", "count"),
    ("telescope.sanitize_ms", "ms"),
    ("telescope.research_removed", "count"),
    ("telescope.partition_ms", "ms"),
    ("telescope.shard_skew", "ratio"),
    ("sessions.sessionize_ms", "ms"),
    ("sessions.peak_open", "count"),
    ("sessions.link_ms", "ms"),
    ("sessions.detect_ms", "ms"),
    ("sessions.attacks", "count"),
    ("core.analysis_ms", "ms"),
    ("events.repass_ms", "ms"),
    ("events.sink_ms", "ms"),
    ("events.count", "count"),
    ("events.bytes", "bytes"),
    ("live.offer_chunk_ms", "ms"),
    ("live.offer_chunk_p50_us", "us"),
    ("live.offer_chunk_p99_us", "us"),
    ("live.shard_speedup", "ratio"),
    ("live.peak_tracked", "count"),
    ("live.finish_ms", "ms"),
    ("live.snapshot_ms", "ms"),
    ("live.snapshot_bytes", "bytes"),
    ("live.restore_ms", "ms"),
    ("obs.verify_ms", "ms"),
    ("obs.render_ms", "ms"),
    ("traffic.generate_ms", "ms"),
    ("traffic.encode_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("trace_wall_ms", "ms"),
];

/// What the traced run measured. Metrics absent from `metrics` do not
/// apply to the workload.
#[derive(Debug, Default)]
pub struct TraceReport {
    pub metrics: BTreeMap<&'static str, f64>,
    /// Records the replica processed.
    pub records: u64,
    /// Why the replica's products are wrong, if they are.
    pub error: Option<String>,
    /// Summed span self time plus `unattributed_ms`, against the wall.
    pub accounted_ms: f64,
}

/// A subscriber that times every call into the wrapped qlog writer.
struct TimedSink {
    inner: QlogWriter,
    origin: Instant,
    intervals: Vec<(u64, u64)>,
}

impl TimedSink {
    fn new(inner: QlogWriter, tracer: &Tracer) -> Self {
        TimedSink {
            inner,
            origin: tracer.origin(),
            intervals: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Hands the timed calls to `tracer` as `events.sink` spans under
    /// the innermost open span.
    fn adopt_into(&mut self, tracer: &mut Tracer) {
        tracer.adopt("events.sink", &self.intervals);
        self.intervals.clear();
    }

    /// Flushes the writer inside an `events.sink` span and records the
    /// event and byte totals.
    fn finish(self, tracer: &mut Tracer) -> Result<(), String> {
        let (events, bytes) = tracer.span("events.sink", |_| self.inner.finish())?;
        tracer.count("events.count", events as f64);
        tracer.count("events.bytes", bytes as f64);
        Ok(())
    }
}

macro_rules! timed_hooks {
    ($($method:ident: $event:ident),* $(,)?) => {
        impl Subscriber for TimedSink {
            $(
                fn $method(&mut self, meta: &EventMeta, event: &quicsand_events::$event) {
                    let start = self.now_ns();
                    self.inner.$method(meta, event);
                    let end = self.now_ns();
                    self.intervals.push((start, end));
                }
            )*
        }
    };
}

timed_hooks! {
    on_wire_rejected: WireRejected,
    on_retry_observed: RetryObserved,
    on_version_negotiation: VersionNegotiationObserved,
    on_session_opened: SessionOpened,
    on_session_widened: SessionWidened,
    on_session_closed: SessionClosed,
    on_session_migrated: SessionMigrated,
    on_alert_opened: AlertOpened,
    on_alert_escalated: AlertEscalated,
    on_alert_closed: AlertClosed,
    on_alert_reclassified: AlertReclassified,
}

/// Loads one capture: `net.read` pulls the file into the arena,
/// `net.decode` decodes it batch by batch.
fn read_capture(tracer: &mut Tracer, path: &Path) -> Result<Vec<PacketRecord>, String> {
    let mut reader = tracer
        .span("net.read", |_| ZeroCopyCaptureReader::from_path(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    tracer.count("net.decode_bytes", reader.remaining_bytes() as f64);
    let mut records = Vec::new();
    loop {
        let batch = tracer
            .span("net.decode", |_| reader.read_batch(BATCH))
            .map_err(|e| format!("decode {}: {e}", path.display()))?;
        if batch.is_empty() {
            return Ok(records);
        }
        records.extend(batch.into_records());
    }
}

/// Runs the workload's traced replica (and, outside its wall, the
/// shard-scaling calibration). `work` receives the replica's output
/// files.
pub fn run(
    workload: Workload,
    seed: u64,
    inputs: &Inputs,
    setup: &Tracer,
    work: &Path,
) -> Result<(TraceReport, Tracer), String> {
    let mut tracer = Tracer::new(seed);
    let mut report = TraceReport::default();
    let wall_start = tracer.now_ns();
    let products = match workload {
        Workload::ScanBatch => scan_batch(&mut tracer, seed, inputs, work, &mut report)?,
        Workload::FloodLive => flood_live(&mut tracer, inputs, work, &mut report)?,
    };
    let wall_end = tracer.now_ns();
    let wall_ms = (wall_end - wall_start) as f64 / 1e6;
    let unattributed = wall_ms - tracer.top_level_ms(wall_start, wall_end);
    let self_total: f64 = tracer.self_ms_by_name(wall_start, wall_end).values().sum();
    report.accounted_ms = self_total + unattributed;
    report.metrics.insert("trace_wall_ms", wall_ms);
    report.metrics.insert("unattributed_ms", unattributed);
    report
        .metrics
        .insert("traffic.generate_ms", setup.total_ms("traffic.generate"));
    report
        .metrics
        .insert("traffic.encode_ms", setup.total_ms("traffic.encode"));
    let mismatch = products
        .iter()
        .find(|(_, verdicts)| verdicts != &inputs.reference);
    if let Some((source, verdicts)) = mismatch {
        report.error.get_or_insert(format!(
            "traced {source} {verdicts:?} differ from the reference {:?}",
            inputs.reference
        ));
    }
    if (report.accounted_ms - wall_ms).abs() > wall_ms * 0.01 {
        report.error.get_or_insert(format!(
            "span self time plus unattributed ({:.3} ms) is not the traced wall ({wall_ms:.3} ms)",
            report.accounted_ms
        ));
    }
    if workload == Workload::FloodLive {
        let speedup = shard_speedup(inputs)?;
        report.metrics.insert("live.shard_speedup", speedup);
    }
    Ok((report, tracer))
}

/// The world `quicsand analyze --seed <seed>` rebuilds for its
/// research-scanner AS lookups.
fn cli_world(seed: u64) -> SyntheticInternet {
    let config = ScenarioConfig {
        seed,
        ..ScenarioConfig::test()
    };
    SyntheticInternet::build(&TopologyConfig {
        seed,
        servers_per_provider: (config.victim_pool * 2).max(48),
        ..TopologyConfig::default()
    })
}

/// One shard's stage-1–3 products.
#[derive(Default)]
struct ShardStreams {
    requests: Vec<(usize, QuicObservation)>,
    responses: Vec<(usize, QuicObservation)>,
    request_sessions: Vec<Session>,
    response_sessions: Vec<Session>,
    common_sessions: Vec<Session>,
}

/// Stages 1–3 of the batch pipeline for one shard's record indices.
fn scan_shard(
    tracer: &mut Tracer,
    records: &[PacketRecord],
    indices: &[usize],
    world: &SyntheticInternet,
    config: &AnalysisConfig,
) -> ShardStreams {
    let mut pipeline = TelescopePipeline::with_guard(config.guard);
    let mut observations = Vec::new();
    let mut observation_index = Vec::new();
    let mut baseline = Vec::new();
    for batch in indices.chunks(BATCH) {
        let classes: Vec<Classification> = tracer.span("dissect.classify", |_| {
            batch
                .iter()
                .map(|&i| classify_record(&records[i]))
                .collect()
        });
        let candidates = classes
            .iter()
            .filter(|c| matches!(c, Classification::QuicCandidate(_)))
            .count();
        tracer.count("dissect.quic_candidates", candidates as f64);
        tracer.span("telescope.admit", |t| {
            let mut admitted = 0u64;
            for (&index, class) in batch.iter().zip(classes) {
                match pipeline.admit_classified(&records[index], class) {
                    Admitted::Quic(obs) => {
                        observations.push(obs);
                        observation_index.push(index);
                        admitted += 1;
                    }
                    Admitted::Baseline(record) => {
                        baseline.push(record);
                        admitted += 1;
                    }
                    Admitted::Dropped => {}
                }
            }
            t.count("telescope.offered", batch.len() as f64);
            t.count("telescope.admitted", admitted as f64);
        });
    }
    tracer.count(
        "telescope.quarantined",
        pipeline.stats().quarantine.total() as f64,
    );

    let mut streams = ShardStreams::default();
    tracer.span("telescope.sanitize", |t| {
        let filter = ResearchFilter::detect_with_asdb(
            &observations,
            &world.asdb,
            config.research_min_packets,
            config.research_min_dsts,
        );
        let mut removed = 0u64;
        for (obs, index) in observations.into_iter().zip(observation_index) {
            if filter.is_research(obs.src) {
                removed += 1;
                continue;
            }
            match obs.direction {
                Direction::Request => streams.requests.push((index, obs)),
                Direction::Response => streams.responses.push((index, obs)),
            }
        }
        t.count("telescope.research_removed", removed as f64);
    });

    tracer.span("sessions.sessionize", |t| {
        let session = SessionConfig {
            timeout: config.session_timeout,
            skew_tolerance: config.guard.reorder_tolerance,
        };
        let mut request = Sessionizer::new(session);
        for (_, obs) in &streams.requests {
            request.offer_keyed(obs.ts, obs.src, obs.dissected.client_cid_key());
        }
        let mut response = Sessionizer::new(session);
        for (_, obs) in &streams.responses {
            response.offer(obs.ts, obs.src);
        }
        let mut common = Sessionizer::new(session);
        for record in &baseline {
            common.offer(record.ts, record.src);
        }
        let peak =
            request.peak_open_count() + response.peak_open_count() + common.peak_open_count();
        t.count("sessions.peak_open", peak as f64);
        streams.request_sessions = request.finish();
        streams.response_sessions = response.finish();
        streams.common_sessions = common.finish();
    });
    streams
}

/// `quicsand analyze --threads 2 --events-out --metrics-out`, layer by
/// layer, then `Analysis::run` and `Analysis::run_with` whole.
fn scan_batch(
    tracer: &mut Tracer,
    seed: u64,
    inputs: &Inputs,
    work: &Path,
    report: &mut TraceReport,
) -> Result<Vec<(&'static str, Verdicts)>, String> {
    let capture = &inputs.captures[0];
    let records = read_capture(tracer, capture)?;
    report.records = records.len() as u64;
    let world = cli_world(seed);
    let config = AnalysisConfig {
        threads: SCAN_THREADS,
        ..AnalysisConfig::default()
    };

    let buckets = tracer.span("telescope.partition", |_| {
        partition_by_source(&records, SCAN_THREADS)
    });
    let largest = buckets.iter().map(Vec::len).max().unwrap_or(0);
    let mean = records.len() as f64 / buckets.len() as f64;
    report
        .metrics
        .insert("telescope.shard_skew", largest as f64 / mean.max(1.0));
    let mut merged = ShardStreams::default();
    for indices in &buckets {
        let shard = scan_shard(tracer, &records, indices, &world, &config);
        merged.requests.extend(shard.requests);
        merged.responses.extend(shard.responses);
        merged.request_sessions.extend(shard.request_sessions);
        merged.response_sessions.extend(shard.response_sessions);
        merged.common_sessions.extend(shard.common_sessions);
    }
    tracer.span("sessions.sessionize", |_| {
        merged.requests.sort_unstable_by_key(|(index, _)| *index);
        merged.responses.sort_unstable_by_key(|(index, _)| *index);
        for sessions in [
            &mut merged.request_sessions,
            &mut merged.response_sessions,
            &mut merged.common_sessions,
        ] {
            sessions.sort_by_key(|s| (s.start, s.src));
        }
    });
    let links = tracer.span("sessions.link", |_| {
        link_migrations(&mut merged.request_sessions, config.session_timeout)
    });
    let decomposed = tracer.span("sessions.detect", |t| {
        let quic = detect_attacks(
            &merged.response_sessions,
            AttackProtocol::Quic,
            &config.thresholds,
        );
        let common = detect_attacks(
            &merged.common_sessions,
            AttackProtocol::TcpIcmp,
            &config.thresholds,
        );
        let mut signals = VectorSignals::empty();
        for (_, obs) in &merged.responses {
            if obs.dissected.has_retry() {
                signals.record_retry(obs.src);
            }
        }
        for link in &links {
            signals.record_migration(link.from);
            signals.record_migration(link.to);
        }
        let report = classify_multivector_with(&quic, &common, &signals);
        t.count("sessions.attacks", (quic.len() + common.len()) as f64);
        Verdicts::from_report(quic.len(), common.len(), &report)
    });

    let scenario = Scenario {
        world,
        records,
        truth: quicsand_traffic::GroundTruth {
            plan: quicsand_traffic::floods::AttackPlan {
                quic: vec![],
                common: vec![],
                victims: vec![],
            },
            research_packets: 0,
            request_packets: 0,
            response_packets: 0,
            common_packets: 0,
            garbage_packets: 0,
        },
        config: workload::scan_config(seed),
    };
    let whole = tracer.span("core.analysis", |_| Analysis::run(&scenario, &config));
    let qlog = work.join("trace.qlog");
    let writer = QlogWriter::create(
        &qlog.to_string_lossy(),
        "quicsand analyze",
        &[capture.display().to_string()],
    )?;
    let mut sink = TimedSink::new(writer, tracer);
    let with_events = tracer.span("events.run_with", |t| {
        let analysis = Analysis::run_with(&scenario, &config, &mut sink);
        sink.adopt_into(t);
        analysis
    });
    sink.finish(tracer)?;
    let verified = tracer.span("obs.verify", |_| with_events.verify_metrics());
    let rendered = tracer.span("obs.render", |_| {
        let json = with_events.registry.render_json(false);
        std::fs::write(work.join("trace-metrics.json"), &json)
    });
    verified.map_err(|e| format!("metrics reconciliation: {}", e.join("; ")))?;
    rendered.map_err(|e| format!("write metrics: {e}"))?;
    check_qlog(&qlog, report);

    let ingested = whole.ingest.total;
    if ingested != inputs.records {
        report.error.get_or_insert(format!(
            "records not conserved: ingested {ingested} of {}",
            inputs.records
        ));
    }
    let offered = tracer.counted("telescope.offered");
    let m = &mut report.metrics;
    m.insert("net.read_ms", tracer.total_ms("net.read"));
    m.insert("net.decode_ms", tracer.total_ms("net.decode"));
    m.insert("net.decode_bytes", tracer.counted("net.decode_bytes"));
    m.insert("dissect.classify_ms", tracer.total_ms("dissect.classify"));
    m.insert(
        "dissect.quic_share",
        tracer.counted("dissect.quic_candidates") / offered.max(1.0),
    );
    m.insert("telescope.admit_ms", tracer.total_ms("telescope.admit"));
    m.insert(
        "telescope.admit_ratio",
        tracer.counted("telescope.admitted") / offered.max(1.0),
    );
    m.insert(
        "telescope.quarantined",
        tracer.counted("telescope.quarantined"),
    );
    m.insert(
        "telescope.sanitize_ms",
        tracer.total_ms("telescope.sanitize"),
    );
    m.insert(
        "telescope.research_removed",
        tracer.counted("telescope.research_removed"),
    );
    m.insert(
        "telescope.partition_ms",
        tracer.total_ms("telescope.partition"),
    );
    m.insert(
        "sessions.sessionize_ms",
        tracer.total_ms("sessions.sessionize"),
    );
    m.insert("sessions.peak_open", tracer.counted("sessions.peak_open"));
    m.insert("sessions.link_ms", tracer.total_ms("sessions.link"));
    m.insert("sessions.detect_ms", tracer.total_ms("sessions.detect"));
    m.insert("sessions.attacks", tracer.counted("sessions.attacks"));
    m.insert("core.analysis_ms", tracer.total_ms("core.analysis"));
    m.insert(
        "events.repass_ms",
        tracer.total_ms("events.run_with") - tracer.total_ms("core.analysis"),
    );
    insert_event_metrics(tracer, m);
    m.insert("obs.verify_ms", tracer.total_ms("obs.verify"));
    m.insert("obs.render_ms", tracer.total_ms("obs.render"));
    Ok(vec![
        ("layer-by-layer detection", decomposed),
        ("Analysis::run", Verdicts::from_analysis(&whole)),
        ("Analysis::run_with", Verdicts::from_analysis(&with_events)),
    ])
}

fn insert_event_metrics(tracer: &Tracer, m: &mut BTreeMap<&'static str, f64>) {
    m.insert("events.sink_ms", tracer.total_ms("events.sink"));
    m.insert("events.count", tracer.counted("events.count"));
    m.insert("events.bytes", tracer.counted("events.bytes"));
}

fn check_qlog(path: &Path, report: &mut TraceReport) {
    let valid = std::fs::read(path)
        .map_err(|e| e.to_string())
        .and_then(|bytes| validate_qlog(&bytes));
    if let Err(e) = valid {
        report.error.get_or_insert(format!("traced qlog: {e}"));
    }
}

fn file_factories(captures: &[PathBuf]) -> Vec<Box<dyn SourceFactory>> {
    captures
        .iter()
        .map(|path| Box::new(capture_file_factory(path.clone())) as Box<dyn SourceFactory>)
        .collect()
}

/// Folds a retiring source set's queue telemetry into the run totals.
fn retire_sources(tracer: &mut Tracer, set: &SourceSet) {
    for stats in set.stats() {
        tracer.peak("net.queue_peak", stats.queue_peak as f64);
        tracer.count("net.merge_batches", stats.batches as f64);
    }
}

/// `quicsand live --input a --input b --shards 2 --events-out
/// --metrics-out --checkpoint-every N`, with the merge, the engine and
/// the checkpoint/resume path as separate layers. The feeds' producer
/// threads decode off this thread, as in the CLI; `net.read` /
/// `net.decode` time one decode of each feed on this thread first.
fn flood_live(
    tracer: &mut Tracer,
    inputs: &Inputs,
    work: &Path,
    report: &mut TraceReport,
) -> Result<Vec<(&'static str, Verdicts)>, String> {
    for capture in &inputs.captures {
        read_capture(tracer, capture)?;
    }
    let guard = GuardConfig::default();
    let config = workload::live_config(&guard);
    let set_config = SourceSetConfig::default();
    let labels: Vec<String> = inputs
        .captures
        .iter()
        .map(|p| p.display().to_string())
        .collect();
    let qlog = work.join("trace.qlog");
    let writer = QlogWriter::create(&qlog.to_string_lossy(), "quicsand live", &labels)?;
    let mut sink = TimedSink::new(writer, tracer);
    let mut set = tracer.span("net.merge", |_| {
        SourceSet::spawn(file_factories(&inputs.captures), &set_config)
    });
    let mut engine = LiveEngine::new(config, guard, SHARDS);
    let mut at_checkpoint = 0u64;
    let mut checkpoints_equal = true;
    loop {
        let chunk = tracer
            .span("net.merge", |_| set.pull_chunk(LIVE_CHUNK))
            .map_err(|e| format!("merge: {e}"))?;
        if chunk.is_empty() {
            break;
        }
        tracer.span("live.offer_chunk", |t| {
            engine.offer_chunk_with(&chunk, &mut sink);
            sink.adopt_into(t);
        });
        if engine.offered() - at_checkpoint < LIVE_CHECKPOINT_EVERY {
            continue;
        }
        at_checkpoint = engine.offered();
        let (snapshot, json) = tracer.span("live.snapshot", |_| {
            let snapshot = MultiSnapshot {
                version: CHECKPOINT_SCHEMA_VERSION,
                engine: engine.snapshot(),
                cursors: set.cursors(),
            };
            let json = serde_json::to_string(&snapshot);
            (snapshot, json)
        });
        let json = json.map_err(|e| format!("checkpoint encode: {e}"))?;
        tracer.count("live.snapshot_bytes", json.len() as f64);
        let (decoded, restored) = tracer.span("live.restore", |_| {
            let decoded = parse_checkpoint(&json)?;
            let restored = LiveEngine::restore(&decoded.engine);
            checkpoints_equal &= restored.snapshot() == snapshot.engine;
            Ok::<_, String>((decoded, restored))
        })?;
        retire_sources(tracer, &set);
        let cursors = decoded.resume_cursors(inputs.captures.len())?;
        set = tracer.span("net.resume", |_| {
            drop(set);
            SourceSet::resume(file_factories(&inputs.captures), &set_config, &cursors)
        });
        engine = restored;
    }
    tracer.span("live.finish", |t| {
        engine.finish_with(&mut sink);
        sink.adopt_into(t);
    });
    sink.finish(tracer)?;
    let verified = tracer.span("obs.verify", |_| engine.verify_metrics());
    let delivered = set.delivered_total();
    let rendered = tracer.span("obs.render", |_| {
        let json = engine.registry().render_json(false);
        std::fs::write(work.join("trace-metrics.json"), &json)
    });
    retire_sources(tracer, &set);
    verified.map_err(|e| format!("live metrics reconciliation: {}", e.join("; ")))?;
    rendered.map_err(|e| format!("write metrics: {e}"))?;
    check_qlog(&qlog, report);
    if delivered != inputs.records || engine.offered() != inputs.records {
        report.error.get_or_insert(format!(
            "records not conserved: merged {delivered}, offered {}, captures hold {}",
            engine.offered(),
            inputs.records
        ));
    }
    if !checkpoints_equal || tracer.counted("live.snapshot_bytes") == 0.0 {
        report
            .error
            .get_or_insert("a checkpoint did not restore to an equal snapshot".into());
    }
    report.records = engine.offered();

    let chunk_us: Vec<f64> = tracer
        .durations_ms("live.offer_chunk")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let m = &mut report.metrics;
    m.insert("net.read_ms", tracer.total_ms("net.read"));
    m.insert("net.decode_ms", tracer.total_ms("net.decode"));
    m.insert("net.decode_bytes", tracer.counted("net.decode_bytes"));
    m.insert("net.merge_ms", tracer.total_ms("net.merge"));
    m.insert("net.queue_peak", tracer.counted("net.queue_peak"));
    m.insert("net.merge_batches", tracer.counted("net.merge_batches"));
    m.insert("net.resume_ms", tracer.total_ms("net.resume"));
    insert_live_metrics(tracer, &chunk_us, m);
    m.insert("live.peak_tracked", engine.live_stats().peak_tracked as f64);
    insert_event_metrics(tracer, m);
    m.insert("obs.verify_ms", tracer.total_ms("obs.verify"));
    m.insert("obs.render_ms", tracer.total_ms("obs.render"));
    Ok(vec![("live engine", Verdicts::from_engine(&engine))])
}

fn insert_live_metrics(tracer: &Tracer, chunk_us: &[f64], m: &mut BTreeMap<&'static str, f64>) {
    m.insert("live.offer_chunk_ms", tracer.total_ms("live.offer_chunk"));
    m.insert(
        "live.offer_chunk_p50_us",
        quantile(chunk_us, 0.5).unwrap_or(0.0),
    );
    m.insert(
        "live.offer_chunk_p99_us",
        quantile(chunk_us, 0.99).unwrap_or(0.0),
    );
    m.insert("live.finish_ms", tracer.total_ms("live.finish"));
    m.insert("live.snapshot_ms", tracer.total_ms("live.snapshot"));
    m.insert("live.snapshot_bytes", tracer.counted("live.snapshot_bytes"));
    m.insert("live.restore_ms", tracer.total_ms("live.restore"));
}

/// Decodes a capture outside any span.
fn load_capture(path: &Path) -> Result<Vec<PacketRecord>, String> {
    ZeroCopyCaptureReader::from_path(path)
        .and_then(|mut reader| reader.read_to_end())
        .map_err(|e| format!("read {}: {e}", path.display()))
}

/// Closed-loop `offer_chunk` time over the merged feeds at one shard,
/// divided by the same at [`SHARDS`].
fn shard_speedup(inputs: &Inputs) -> Result<f64, String> {
    let mut feeds = Vec::new();
    for capture in &inputs.captures {
        feeds.push(load_capture(capture)?);
    }
    let records = merge_records(&feeds);
    let time = |shards: usize| {
        let guard = GuardConfig::default();
        let mut engine = LiveEngine::new(workload::live_config(&guard), guard, shards);
        let start = Instant::now();
        for part in records.chunks(LIVE_CHUNK) {
            std::hint::black_box(engine.offer_chunk(part));
        }
        std::hint::black_box(engine.finish());
        start.elapsed().as_secs_f64()
    };
    let one = time(1);
    let many = time(SHARDS);
    Ok(one / many.max(f64::MIN_POSITIVE))
}
