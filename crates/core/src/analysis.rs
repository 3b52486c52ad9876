//! The end-to-end measurement pipeline (§4 + §5.1/§5.2 mechanics).
//!
//! [`Analysis::run`] executes, in order:
//!
//! 1. **Ingest** — port filter + dissection ([`quicsand_telescope`]).
//! 2. **Sanitize** — behavioural research-scanner detection corroborated
//!    with the AS database; research traffic is split off (Fig. 2).
//! 3. **Sessionize** — requests and responses separately, 5-minute
//!    timeout (Fig. 4 default), once over the merged capture-order
//!    streams.
//! 4. **Infer DoS** — Moore et al. thresholds on response sessions
//!    (QUIC) and on TCP/ICMP baseline sessions.
//! 5. **Correlate** — multi-vector classification of QUIC floods
//!    against common floods.
//!
//! Every intermediate product is a public field so experiments (and
//! downstream users) can compute whatever the paper did not.

use crate::metrics::AnalysisMetrics;
use quicsand_dissect::Direction;
use quicsand_events::{EventMeta, NoopSubscriber, SessionMigrated, Subscriber, VecSubscriber};
use quicsand_net::{Duration, Timestamp};
use quicsand_obs::MetricsRegistry;
use quicsand_sessions::dos::{detect_attacks, Attack, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::{classify_multivector_with, MultiVectorReport, VectorSignals};
use quicsand_sessions::session::{
    link_migrations, MigrationLink, Session, SessionConfig, Sessionizer, SessionizerCounters,
};
use quicsand_telescope::parallel::{
    ingest_shard_with, ingest_shard_with_events, partition_by_source,
};
pub use quicsand_telescope::PipelineStats;
use quicsand_telescope::{GuardConfig, HourlySeries, IngestStats, QuicObservation, ResearchFilter};
use quicsand_traffic::Scenario;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::Arc;
use std::time::Instant;

/// Default worker count: one shard per available core.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pipeline parameters (the paper's §4.1 choices).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalysisConfig {
    /// Sessionization timeout (paper: 5 minutes, the Fig. 4 knee).
    pub session_timeout: Duration,
    /// DoS thresholds (paper: Moore et al. defaults).
    pub thresholds: DosThresholds,
    /// Behavioural research-scanner detection: minimum request packets.
    pub research_min_packets: u64,
    /// Behavioural research-scanner detection: minimum unique targets.
    pub research_min_dsts: u64,
    /// Worker threads for the sharded ingest→sanitize stages. `1`
    /// runs a single shard; any value produces byte-identical analysis
    /// products and events (the shard merge is deterministic), so this
    /// only affects wall-clock time.
    pub threads: usize,
    /// Pre-classification ingest guard: duplicate suppression and
    /// backwards-timestamp quarantine thresholds. Per-source, so the
    /// guard's decisions are also thread-count-invariant.
    pub guard: GuardConfig,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            session_timeout: Duration::from_mins(5),
            thresholds: DosThresholds::moore(),
            research_min_packets: 500,
            research_min_dsts: 400,
            threads: default_threads(),
            guard: GuardConfig::default(),
        }
    }
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1_000.0
}

/// All pipeline products.
#[derive(Debug)]
pub struct Analysis {
    /// Ingest counters.
    pub ingest: IngestStats,
    /// Identified research scanner sources.
    pub research_sources: HashSet<Ipv4Addr>,
    /// Hourly packet counts: research scanners (Fig. 2).
    pub research_hourly: HourlySeries,
    /// Hourly packet counts: sanitized requests (Fig. 3).
    pub request_hourly: HourlySeries,
    /// Hourly packet counts: sanitized responses (Fig. 3).
    pub response_hourly: HourlySeries,
    /// Research packet total (before sanitization).
    pub research_packets: u64,
    /// Sanitized request observations.
    pub requests: Vec<QuicObservation>,
    /// Sanitized response observations.
    pub responses: Vec<QuicObservation>,
    /// Request sessions (after CID-keyed migration linking: a flow that
    /// changed source address mid-session is one session here).
    pub request_sessions: Vec<Session>,
    /// Mid-flow address changes re-joined by the migration link pass.
    pub migrations: Vec<MigrationLink>,
    /// Response sessions.
    pub response_sessions: Vec<Session>,
    /// Detected QUIC floods.
    pub quic_attacks: Vec<Attack>,
    /// TCP/ICMP baseline sessions.
    pub common_sessions: Vec<Session>,
    /// Detected TCP/ICMP floods.
    pub common_attacks: Vec<Attack>,
    /// Multi-vector correlation.
    pub multivector: MultiVectorReport,
    /// Wall-clock/memory telemetry (non-deterministic; not part of any
    /// report).
    pub stats: PipelineStats,
    /// The configuration used.
    pub config: AnalysisConfig,
    /// The per-run metric registry every counter below is registered
    /// on; render it with
    /// [`render_prometheus`](quicsand_obs::MetricsRegistry::render_prometheus)
    /// or [`render_json`](quicsand_obs::MetricsRegistry::render_json).
    pub registry: Arc<MetricsRegistry>,
    /// Handles to the published metric families (already reconciled
    /// with the stats fields above — see [`Analysis::verify_metrics`]).
    pub metrics: AnalysisMetrics,
}

/// What stages 1–2 produce for one shard, or for the whole capture
/// once the shards are merged. Every stream carries original record
/// indices, so the merge restores exact capture order and the
/// sessionize tail can tag its events with them.
#[derive(Default)]
struct Frontend {
    ingest: IngestStats,
    research_sources: HashSet<Ipv4Addr>,
    research_hourly: HourlySeries,
    request_hourly: HourlySeries,
    response_hourly: HourlySeries,
    research_packets: u64,
    requests: Vec<(usize, QuicObservation)>,
    responses: Vec<(usize, QuicObservation)>,
    /// TCP/ICMP baseline `(index, ts, src)` — all sessionization needs.
    baseline: Vec<(usize, Timestamp, Ipv4Addr)>,
    /// Wire events (rejections, Retry/VN sightings) tagged with their
    /// record index; empty unless the run collects events.
    events: VecSubscriber,
    stats: PipelineStats,
}

impl Frontend {
    /// Stages 1–2 over one shard's record indices.
    fn run(
        scenario: &Scenario,
        config: &AnalysisConfig,
        indices: &[usize],
        collect_events: bool,
    ) -> Frontend {
        let mut frontend = Frontend::default();

        // 1. Ingest (this shard's records only).
        let ingest_start = Instant::now();
        let (records, guard) = (&scenario.records, config.guard);
        let shard = if collect_events {
            ingest_shard_with_events(records, indices, guard, &mut frontend.events)
        } else {
            ingest_shard_with(records, indices, guard)
        };
        frontend.stats.ingest_ms = ms(ingest_start);

        // 2. Sanitize: behavioural detection corroborated by PeeringDB.
        // Research detection is a per-source aggregation, and sources
        // never span shards, so the per-shard result is the global
        // result restricted to this shard.
        let sanitize_start = Instant::now();
        let filter = ResearchFilter::detect_with_asdb(
            &shard.quic,
            &scenario.world.asdb,
            config.research_min_packets,
            config.research_min_dsts,
        );
        frontend.research_sources = filter.sources().clone();
        for (obs, index) in shard.quic.into_iter().zip(shard.quic_index) {
            if filter.is_research(obs.src) {
                frontend.research_packets += 1;
                frontend.research_hourly.add(obs.ts);
                continue;
            }
            match obs.direction {
                Direction::Request => {
                    frontend.request_hourly.add(obs.ts);
                    frontend.requests.push((index, obs));
                }
                Direction::Response => {
                    frontend.response_hourly.add(obs.ts);
                    frontend.responses.push((index, obs));
                }
            }
        }
        frontend.baseline = shard
            .baseline_index
            .into_iter()
            .zip(&shard.baseline)
            .map(|(index, record)| (index, record.ts, record.src))
            .collect();
        frontend.stats.sanitize_ms = ms(sanitize_start);
        frontend.ingest = shard.stats;
        frontend
    }

    /// Folds another shard in: counters and hourly series sum, streams
    /// concatenate (see [`Frontend::into_capture_order`]).
    fn merge(&mut self, shard: Frontend) {
        self.ingest.merge(&shard.ingest);
        self.research_sources.extend(shard.research_sources);
        self.research_hourly.merge(&shard.research_hourly);
        self.request_hourly.merge(&shard.request_hourly);
        self.response_hourly.merge(&shard.response_hourly);
        self.research_packets += shard.research_packets;
        self.requests.extend(shard.requests);
        self.responses.extend(shard.responses);
        self.baseline.extend(shard.baseline);
        self.events.events.extend(shard.events.events);
        self.stats.max_stage(&shard.stats);
    }

    /// Restores capture order after [`Frontend::merge`]. Record indices
    /// are unique, so the order is deterministic; each shard's stream is
    /// already sorted, so the stable sort only merges those runs. The
    /// wire events are ordered later, together with the session events.
    fn into_capture_order(mut self) -> Frontend {
        self.requests.sort_by_key(|(index, _)| *index);
        self.responses.sort_by_key(|(index, _)| *index);
        self.baseline.sort_by_key(|(index, ..)| *index);
        self
    }
}

/// Stage 3's products.
struct Sessions {
    request: Vec<Session>,
    response: Vec<Session>,
    common: Vec<Session>,
    /// Lifecycle counters summed over the three sessionizers (read
    /// *before* `finish()`, which consumes them).
    counters: SessionizerCounters,
    /// Sessions still open when the end-of-run flush ran (the flush
    /// closes them; `SessionMetrics::add_final` accounts for that).
    open_at_flush: u64,
    /// Summed open-session high-water marks.
    peak_open: usize,
}

/// Stage 3: sessionizes the capture-order merged streams, requests and
/// responses separately plus the TCP/ICMP baseline, in one global pass
/// at any thread count. The flood-relevant channels (`quic` responses
/// and the `tcp_icmp` baseline) emit their session lifecycle to
/// `events`, record-tied events tagged with the triggering record's
/// index; with [`NoopSubscriber`] the emission compiles away.
fn sessionize<E: Subscriber>(
    config: &AnalysisConfig,
    frontend: &Frontend,
    events: &mut E,
) -> Sessions {
    let session_config = SessionConfig {
        timeout: config.session_timeout,
        // Late packets admitted by the ingest guard lag at most its
        // reorder tolerance behind the watermark; the sessionizer's
        // deferred expiry must cover exactly that.
        skew_tolerance: config.guard.reorder_tolerance,
    };
    let mut request = Sessionizer::new(session_config);
    for (_, obs) in &frontend.requests {
        request.offer_keyed(obs.ts, obs.src, obs.dissected.client_cid_key());
    }
    let mut response = Sessionizer::new(session_config);
    for (index, obs) in &frontend.responses {
        let meta = EventMeta::record(*index as u64);
        response.offer_with(obs.ts, obs.src, "quic", &meta, events);
    }
    let mut common = Sessionizer::new(session_config);
    for &(index, ts, src) in &frontend.baseline {
        let meta = EventMeta::record(index as u64);
        common.offer_with(ts, src, "tcp_icmp", &meta, events);
    }
    let mut counters = SessionizerCounters::default();
    let (mut open_at_flush, mut peak_open) = (0u64, 0usize);
    for sessionizer in [&request, &response, &common] {
        counters.merge(&sessionizer.counters());
        open_at_flush += sessionizer.open_count() as u64;
        peak_open += sessionizer.peak_open_count();
    }
    let lifecycle = EventMeta::lifecycle();
    Sessions {
        request: request.finish(),
        response: response.finish_with("quic", &lifecycle, events),
        common: common.finish_with("tcp_icmp", &lifecycle, events),
        counters,
        open_at_flush,
        peak_open,
    }
}

impl Analysis {
    /// Runs the complete pipeline on a scenario.
    ///
    /// With `config.threads > 1` stages 1–2 are sharded by
    /// `hash(src) % threads` across scoped worker threads; the merge
    /// is deterministic, so every analysis product is byte-identical
    /// at any thread count (only [`Analysis::stats`] differs).
    pub fn run(scenario: &Scenario, config: &AnalysisConfig) -> Analysis {
        Self::run_with(scenario, config, &mut NoopSubscriber)
    }

    /// [`Analysis::run`], additionally mirroring the run as a typed
    /// event stream: per-record wire rejections and Retry/VN sightings
    /// plus the session lifecycle of the flood-relevant channels
    /// (`quic` responses and the `tcp_icmp` baseline), then one
    /// `session_migrated` per migration link.
    ///
    /// The events come from the run itself. Each shard worker buffers
    /// its wire events tagged with their absolute record index; the
    /// merge tail sessionizes once over the capture-order streams and
    /// buffers its record-tied session events the same way; the buffers
    /// are stable-merged by record index (a record's wire events ahead
    /// of its session events), so the stream is byte-identical at every
    /// `config.threads`. A disabled subscriber (`enabled() == false`)
    /// collects nothing: `run_with` then costs exactly what
    /// [`Analysis::run`] does.
    pub fn run_with<S: Subscriber>(
        scenario: &Scenario,
        config: &AnalysisConfig,
        subscriber: &mut S,
    ) -> Analysis {
        let threads = config.threads.max(1);
        let (mut frontend, shard_stats) =
            Self::frontend(scenario, config, threads, subscriber.enabled());
        let mut stats = frontend.stats.clone();

        // 3. Sessionize, once, in the single-threaded merge tail.
        let mut events = std::mem::take(&mut frontend.events);
        let sessionize_start = Instant::now();
        let sessions = if subscriber.enabled() {
            sessionize(config, &frontend, &mut events)
        } else {
            sessionize(config, &frontend, &mut NoopSubscriber)
        };
        stats.sessionize_ms = ms(sessionize_start);
        stats.peak_open_sessions = sessions.peak_open;
        events.sort_by_record_index();
        events.replay_into(subscriber);

        // 3b. CID-keyed migration linking on the merged request
        // sessions. Running after the cross-shard merge keeps the pass
        // shard-invariant even though a migrating flow's addresses can
        // land in different shards.
        let mut request_sessions = sessions.request;
        let migrations = link_migrations(&mut request_sessions, config.session_timeout);
        if subscriber.enabled() {
            let meta = EventMeta::lifecycle();
            for link in &migrations {
                subscriber.on_session_migrated(
                    &meta,
                    &SessionMigrated {
                        at: link.at,
                        from: link.from,
                        to: link.to,
                        channel: "quic_request".to_string(),
                        cid_key: link.cid_key,
                        gap: link.gap,
                    },
                );
            }
        }

        // 4. DoS inference.
        let detect_start = Instant::now();
        let quic_attacks =
            detect_attacks(&sessions.response, AttackProtocol::Quic, &config.thresholds);
        let common_attacks = detect_attacks(
            &sessions.common,
            AttackProtocol::TcpIcmp,
            &config.thresholds,
        );

        // 5. Multi-vector correlation, fed the packet-level vector
        // evidence: Retry backscatter per victim and the endpoints of
        // every migration link.
        let mut signals = VectorSignals::empty();
        for (_, obs) in &frontend.responses {
            if obs.dissected.has_retry() {
                signals.record_retry(obs.src);
            }
        }
        for link in &migrations {
            signals.record_migration(link.from);
            signals.record_migration(link.to);
        }
        let multivector = classify_multivector_with(&quic_attacks, &common_attacks, &signals);
        stats.detect_ms = ms(detect_start);
        stats.threads = threads;
        stats.records = frontend.ingest.total;
        stats.quarantined = frontend.ingest.quarantine.total();

        // Publish everything into a fresh per-run registry at this
        // single-threaded tail: counters are stored from the merged
        // stats, so they reconcile by construction at any thread count.
        let registry = MetricsRegistry::new();
        let metrics = AnalysisMetrics::register(&registry);
        metrics.ingest.publish(&frontend.ingest);
        metrics
            .sessions
            .add_final(sessions.counters, sessions.open_at_flush);
        metrics.sessions.migrated_total.add(migrations.len() as u64);
        metrics.dos.observe_attacks(&quic_attacks);
        metrics.dos.observe_attacks(&common_attacks);
        for shard in &shard_stats {
            metrics.stages.observe_shard(shard);
        }
        metrics.stages.observe_tail(&stats);
        metrics.stages.set_totals(&stats);

        let untag = |tagged: Vec<(usize, QuicObservation)>| -> Vec<QuicObservation> {
            tagged.into_iter().map(|(_, obs)| obs).collect()
        };
        Analysis {
            ingest: frontend.ingest,
            research_sources: frontend.research_sources,
            research_hourly: frontend.research_hourly,
            request_hourly: frontend.request_hourly,
            response_hourly: frontend.response_hourly,
            research_packets: frontend.research_packets,
            requests: untag(frontend.requests),
            responses: untag(frontend.responses),
            request_sessions,
            migrations,
            response_sessions: sessions.response,
            quic_attacks,
            common_sessions: sessions.common,
            common_attacks,
            multivector,
            stats,
            config: *config,
            registry,
            metrics,
        }
    }

    /// Stages 1–2 sharded by `hash(src) % threads` across scoped worker
    /// threads, merged back into capture order. Returns the merged
    /// products and one `PipelineStats` per shard (for the stage
    /// histograms).
    ///
    /// Every per-source computation (dissection is per-packet; the
    /// guard, research detection and the hourly split are per-source)
    /// sees exactly the packets it would see sequentially, because a
    /// source's packets all land in one shard in capture order.
    fn frontend(
        scenario: &Scenario,
        config: &AnalysisConfig,
        threads: usize,
        collect_events: bool,
    ) -> (Frontend, Vec<PipelineStats>) {
        let buckets = partition_by_source(&scenario.records, threads);
        let shards: Vec<Frontend> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .iter()
                .map(|indices| {
                    scope.spawn(move |_| Frontend::run(scenario, config, indices, collect_events))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("analysis shard worker panicked"))
                .collect()
        })
        .expect("analysis scope panicked");

        let mut merged = Frontend::default();
        let shard_stats = shards.iter().map(|shard| shard.stats.clone()).collect();
        for shard in shards {
            merged.merge(shard);
        }
        (merged.into_capture_order(), shard_stats)
    }

    /// The reconciliation invariant, checked end to end: every exported
    /// counter equals the corresponding public product exactly —
    /// ingest/quarantine/dissect counters against [`Analysis::ingest`],
    /// session lifecycle counters against the session lists, attack
    /// counters against the attack lists, and the peak-sessions gauge
    /// against [`Analysis::stats`]. Returns the mismatch list on
    /// failure. Holds at any thread count.
    pub fn verify_metrics(&self) -> Result<(), Vec<String>> {
        let mut errors = self
            .metrics
            .ingest
            .verify(&self.ingest)
            .err()
            .unwrap_or_default();
        let mut check = |name: &str, counter: u64, expected: u64| {
            if counter != expected {
                errors.push(format!("{name}: counter {counter} != expected {expected}"));
            }
        };
        let sessions = self.metrics.sessions.clone();
        // Each migration link folded two closed sessions into one, so
        // the sessionizer lifecycle counters exceed the final session
        // count by exactly the migration count.
        let migrated = self.migrations.len() as u64;
        let total_sessions = (self.request_sessions.len()
            + self.response_sessions.len()
            + self.common_sessions.len()) as u64
            + migrated;
        check(
            "sessions_opened",
            sessions.opened_total.get(),
            total_sessions,
        );
        check(
            "sessions_closed",
            sessions.closed_total.get(),
            total_sessions,
        );
        check("sessions_migrated", sessions.migrated_total.get(), migrated);
        let dos = &self.metrics.dos;
        check(
            "attacks_quic",
            dos.attacks_quic.get(),
            self.quic_attacks.len() as u64,
        );
        check(
            "attacks_common",
            dos.attacks_common.get(),
            self.common_attacks.len() as u64,
        );
        check(
            "attack_duration_observations",
            dos.duration_quic.count() + dos.duration_common.count(),
            (self.quic_attacks.len() + self.common_attacks.len()) as u64,
        );
        check(
            "peak_open_sessions",
            self.metrics.stages.peak_open_sessions.get(),
            self.stats.peak_open_sessions as u64,
        );
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Distinct flood victims.
    pub fn victims(&self) -> HashSet<Ipv4Addr> {
        self.quic_attacks.iter().map(|a| a.victim).collect()
    }

    /// The response observations attributable to one attack (victim +
    /// time window).
    pub fn attack_observations<'a>(&'a self, attack: &Attack) -> Vec<&'a QuicObservation> {
        self.responses
            .iter()
            .filter(|o| o.src == attack.victim && o.ts >= attack.start && o.ts <= attack.end)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicsand_traffic::ScenarioConfig;
    use std::sync::OnceLock;

    /// The test scenario is expensive enough to share across tests.
    fn analysis() -> &'static (Scenario, Analysis) {
        static CELL: OnceLock<(Scenario, Analysis)> = OnceLock::new();
        CELL.get_or_init(|| {
            let scenario = Scenario::generate(&ScenarioConfig::test());
            let analysis = Analysis::run(&scenario, &AnalysisConfig::default());
            (scenario, analysis)
        })
    }

    #[test]
    fn research_scanners_identified_exactly() {
        let (scenario, a) = analysis();
        let expected: HashSet<Ipv4Addr> = scenario
            .world
            .research_scanners()
            .iter()
            .map(|s| s.addr)
            .collect();
        assert_eq!(a.research_sources, expected);
        // All research packets (and only those) split off.
        assert_eq!(a.research_packets, scenario.truth.research_packets);
    }

    #[test]
    fn sanitized_directions_match_truth() {
        let (scenario, a) = analysis();
        // Garbage packets fail dissection, so sanitized counts equal
        // truth counts exactly.
        assert_eq!(a.requests.len() as u64, scenario.truth.request_packets);
        assert_eq!(a.responses.len() as u64, scenario.truth.response_packets);
        assert_eq!(
            a.ingest.quic_false_positives,
            scenario.truth.garbage_packets
        );
    }

    #[test]
    fn detected_attacks_match_planted_victims() {
        let (scenario, a) = analysis();
        assert!(!a.quic_attacks.is_empty());
        let planted: HashSet<Ipv4Addr> = scenario.truth.plan.victims.iter().copied().collect();
        for attack in &a.quic_attacks {
            assert!(
                planted.contains(&attack.victim),
                "detected victim {} was not planted",
                attack.victim
            );
        }
        // Detection recall: most planted attacks qualify.
        let detected = a.quic_attacks.len() as f64;
        let planted_count = scenario.truth.plan.quic.len() as f64;
        assert!(
            detected / planted_count > 0.6,
            "recall {detected}/{planted_count}"
        );
    }

    #[test]
    fn attack_windows_align_with_plan() {
        let (scenario, a) = analysis();
        // Every detected attack must be coverable by a planted window
        // (within the session timeout of slack).
        for attack in &a.quic_attacks {
            let matched = scenario.truth.plan.quic.iter().any(|p| {
                p.victim == attack.victim
                    && attack.start.as_secs() + 30 >= p.start_secs
                    && attack.end.as_secs() <= p.start_secs + p.duration_secs + 330
            });
            assert!(
                matched,
                "attack on {} at {} unmatched",
                attack.victim, attack.start
            );
        }
    }

    #[test]
    fn common_attacks_detected() {
        let (_, a) = analysis();
        assert!(!a.common_attacks.is_empty());
        assert!(!a.common_sessions.is_empty());
        // Durations of common floods exceed QUIC floods in the median
        // (Fig. 7 shape) — allow slack at the tiny test scale.
        let median = |attacks: &[Attack]| {
            let mut d: Vec<u64> = attacks.iter().map(|x| x.duration().as_secs()).collect();
            d.sort_unstable();
            d[d.len() / 2]
        };
        assert!(median(&a.common_attacks) > median(&a.quic_attacks));
    }

    #[test]
    fn multivector_report_covers_all_attacks() {
        let (_, a) = analysis();
        assert_eq!(a.multivector.attacks.len(), a.quic_attacks.len());
        let total: usize = a.multivector.class_counts.values().sum();
        assert_eq!(total, a.quic_attacks.len());
    }

    #[test]
    fn attack_observations_are_scoped() {
        let (_, a) = analysis();
        let attack = &a.quic_attacks[0];
        let obs = a.attack_observations(attack);
        assert!(!obs.is_empty());
        assert_eq!(obs.len() as u64, attack.packet_count);
        for o in obs {
            assert_eq!(o.src, attack.victim);
        }
    }

    #[test]
    fn thread_count_does_not_change_any_product() {
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let run_with = |threads: usize| {
            Analysis::run(
                &scenario,
                &AnalysisConfig {
                    threads,
                    ..AnalysisConfig::default()
                },
            )
        };
        let sequential = run_with(1);
        sequential
            .verify_metrics()
            .expect("sequential metrics reconcile");
        for threads in [2usize, 3, 8] {
            let parallel = run_with(threads);
            parallel
                .verify_metrics()
                .unwrap_or_else(|e| panic!("{threads}-thread metrics diverged: {e:?}"));
            assert_eq!(parallel.ingest, sequential.ingest, "{threads} threads");
            assert_eq!(parallel.research_sources, sequential.research_sources);
            assert_eq!(parallel.research_hourly, sequential.research_hourly);
            assert_eq!(parallel.request_hourly, sequential.request_hourly);
            assert_eq!(parallel.response_hourly, sequential.response_hourly);
            assert_eq!(parallel.research_packets, sequential.research_packets);
            assert_eq!(parallel.requests, sequential.requests);
            assert_eq!(parallel.responses, sequential.responses);
            assert_eq!(parallel.request_sessions, sequential.request_sessions);
            assert_eq!(parallel.response_sessions, sequential.response_sessions);
            assert_eq!(parallel.common_sessions, sequential.common_sessions);
            assert_eq!(parallel.quic_attacks, sequential.quic_attacks);
            assert_eq!(parallel.common_attacks, sequential.common_attacks);
            assert_eq!(
                parallel.multivector.class_counts,
                sequential.multivector.class_counts
            );
            assert_eq!(parallel.stats.threads, threads);
        }
    }

    #[test]
    fn run_with_events_mirror_sessions_at_any_thread_count() {
        use quicsand_events::{Event, VecSubscriber};
        let scenario = Scenario::generate(&ScenarioConfig::test());
        let run = |threads: usize| {
            let mut events = VecSubscriber::new();
            let analysis = Analysis::run_with(
                &scenario,
                &AnalysisConfig {
                    threads,
                    ..AnalysisConfig::default()
                },
                &mut events,
            );
            (analysis, events)
        };
        let (sequential, events) = run(1);
        let closed = |channel: &str| {
            events
                .events
                .iter()
                .filter(|(_, e)| matches!(e, Event::SessionClosed(c) if c.channel == channel))
                .count()
        };
        assert_eq!(
            closed("quic"),
            sequential.response_sessions.len(),
            "one close event per detected response session"
        );
        assert_eq!(closed("tcp_icmp"), sequential.common_sessions.len());
        let rejected = events
            .events
            .iter()
            .filter(|(_, e)| matches!(e, Event::WireRejected(_)))
            .count() as u64;
        assert_eq!(rejected, sequential.ingest.quarantine.total());

        for threads in [2usize, 8] {
            let (_, parallel_events) = run(threads);
            assert_eq!(
                events, parallel_events,
                "{threads}-thread events must merge back into the 1-thread stream"
            );
        }
    }

    #[test]
    fn pipeline_stats_are_populated() {
        let (_, a) = analysis();
        assert_eq!(a.stats.records, a.ingest.total);
        assert!(a.stats.peak_open_sessions > 0);
        assert!(a.stats.ingest_records_per_sec() > 0.0);
    }

    #[test]
    fn metrics_reconcile_and_export() {
        let (_, a) = analysis();
        a.verify_metrics().expect("metrics reconcile with products");
        // The registry renders both formats and the stable subset is
        // non-empty (counters mirror the ingest stats).
        let prom = a.registry.render_prometheus(true);
        assert!(prom.contains("quicsand_ingest_records_total"));
        let json = a.registry.render_json(false);
        assert!(json.contains("quicsand_detect_attacks_total"));
        assert_eq!(
            a.metrics.ingest.records_total.get(),
            a.ingest.total,
            "counter == stats field"
        );
    }

    #[test]
    fn no_retry_in_the_wild() {
        let (_, a) = analysis();
        assert!(a.responses.iter().all(|o| !o.dissected.has_retry()));
    }
}
