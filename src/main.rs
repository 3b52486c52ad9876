//! `quicsand` — command-line front end for the QUICsand reproduction.
//!
//! ```text
//! quicsand generate --out capture.qscp [--scale test|demo|paper] [--seed N]
//! quicsand analyze <capture.qscp> [--threads N] [--verbose]
//! quicsand live <capture.qscp> [--shards N] [--checkpoint-every N] [--alert-format text|json]
//! quicsand replay --pps 1000 [--requests 300001] [--workers 4] [--retry|--adaptive 0.5]
//! quicsand experiments [--scale test|demo|paper]
//! ```

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_events::qlog::QlogWriter;
use quicsand_events::Subscriber;
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_net::capture::CaptureWriter;
use quicsand_net::ZeroCopyCaptureReader;
use quicsand_obs::EventsMetrics;
use quicsand_sessions::multivector::MultiVectorClass;
use quicsand_sessions::Cdf;
use quicsand_traffic::{Scenario, ScenarioConfig, ScenarioKind};
use std::io::BufWriter;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match command.as_str() {
        "generate" => cmd_generate(&args[1..]),
        "analyze" => cmd_analyze(&args[1..]),
        "live" => cmd_live(&args[1..]),
        "replay" => cmd_replay(&args[1..]),
        "experiments" => cmd_experiments(&args[1..]),
        "export" => cmd_export(&args[1..]),
        "metrics" => cmd_metrics(&args[1..]),
        "forensics" => cmd_forensics(&args[1..]),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
quicsand — QUIC scan & DoS-flood measurement toolkit (IMC'21 reproduction)

USAGE:
    quicsand generate --out <file.qscp> [--scale test|demo|paper] [--seed N]
                      [--scenario migration-abuse|evolving-scanners|
                                  version-drift|retry-amplification]
        Generate a synthetic telescope capture and write it to disk.
        --scenario layers a post-2021 workload variant on top of the
        baseline: connection-migration abuse (stable-CID flows that
        switch source address mid-session), evolving aggressive
        scanners (cadence and coverage grow week over week), version
        drift (draft retirement -> v1 -> v2 with Version Negotiation
        backscatter), or Retry amplification (victims answer spoofed
        Initials with varied-token Retry packets).

    quicsand analyze <file.qscp> [--threads N] [--verbose]
                     [--fault-profile none|standard|aggressive] [--fault-seed N]
                     [--metrics-out <file>] [--events-out <file.qlog>]
        Run the sessionization + DoS-inference pipeline on a capture.
        --threads shards ingest+sessionization by source across N
        workers (default: all cores); results are identical at any N.
        --verbose adds a per-stage walltime breakdown.
        --fault-profile injects a seeded adversarial fault mix
        (truncation, corrupt versions, duplicates, clock skew, ...)
        into the record stream before ingest, to exercise the
        quarantine path; --fault-seed varies the mix (default 0xF4017).
        --metrics-out writes the full metrics registry (counters,
        gauges, histograms — including volatile walltimes) as
        canonical JSON after verifying it reconciles with the
        pipeline's stats.
        --events-out mirrors the run as a typed event stream in qlog
        0.4 JSON-SEQ (RFC 7464) — wire rejections, Retry/VN
        sightings, session lifecycle — emitted by the run itself and
        merged by record index, so the stream is identical at any
        --threads. An unwritable path fails before the pipeline runs.

    quicsand metrics <file.qscp> [--format prometheus|json] [--threads N]
                     [--fault-profile ...] [--fault-seed N] [--stable-only]
        Run the same pipeline and print only the metrics registry to
        stdout — Prometheus text exposition by default, canonical JSON
        with --format json. --stable-only drops volatile series
        (walltimes, thread counts), leaving exactly the
        trace-deterministic subset.

    quicsand live [file.qscp] [--input <file.qscp>]... [--window MINS]
                  [--weight W] [--escalate W] [--shards N] [--chunk N]
                  [--source-rate N] [--source-queue N] [--source-batch N]
                  [--max-victims N] [--evidence-ring N]
                  [--checkpoint-every N] [--alert-format text|json]
                  [--metrics-out <file>] [--events-out <file.qlog>]
                  [--verbose]
        Stream one or more captures through the live flood-detection
        engine and print alert lifecycle events (OPEN / ESCALATE /
        CLOSE / RECLASSIFY) as they fire. Each --input adds a feed;
        feeds run concurrently behind bounded queues and are merged in
        event-time order, so alerts are identical to a single merged
        capture at any source count. An empty feed is drained and
        counted, not fatal; a feed that fails mid-run reconnects and
        resumes. --window sets the sessionization timeout; --weight
        scales the Moore thresholds; --escalate sets the escalation
        tier multiplier; --shards runs per-source detector shards
        (alerts are identical at any N); --source-rate paces each feed
        (records/s); --source-queue bounds each feed's queue (records);
        --source-batch sets the per-feed transfer batch target
        (records; batches never change the merged order);
        --max-victims caps tracked victims per channel (LRU eviction);
        --checkpoint-every N snapshots engine + per-source cursors
        every N records (schema v2; v1 engine-only checkpoints still
        restore), round-trips through JSON, and resumes every feed
        from the restored copy — proving the checkpoint is lossless
        mid-run. --metrics-out writes the engine's metrics registry as
        canonical JSON after the run (stable series survive
        checkpoint/restore unchanged). --evidence-ring sets the
        per-alert evidence ring capacity (most recent packets kept as
        replayable forensics; default 16). --events-out writes the
        typed event stream (wire rejections, Retry/VN sightings,
        alert lifecycle) as qlog 0.4 JSON-SEQ with one vantage entry
        per feed; record-tied events are identical at any --shards
        and every event's timestamp comes from the trace, and an
        unwritable path fails before any feed is opened.

    quicsand replay --pps <rate> [--requests N] [--workers N]
                    [--retry | --adaptive <occupancy>]
        Flood the local QUIC server model (Table 1 style) and report
        service availability.

    quicsand export <file.qscp> --pcap <file.pcap>
        Convert a capture to classic libpcap (raw-IP linktype) for
        inspection in Wireshark.

    quicsand forensics <file.qscp> [--out <dir>] [--replay]
                       [--window MINS] [--weight W] [--shards N]
                       [--chunk N] [--evidence-ring N]
        Run the live engine over a capture and export every closed
        QUIC alert as a self-contained replayable qlog slice
        (alert-<i>.qlog under --out, default `forensics/`): config,
        per-minute arrival profile, evidence ring, and the correlated
        common-channel floods. --replay feeds each exported slice
        back through a fresh detector and fails unless it reproduces
        the identical closed alert and multi-vector verdict.

    quicsand forensics check <file.qlog>
        Validate a qlog file's RFC 7464 JSON-SEQ framing and header,
        and print a record/event summary.

    quicsand experiments [--scale test|demo|paper] [--threads N]
        Regenerate every paper table/figure and print the reports.";

/// The boolean switches: the only flags that take no value.
/// [`has_flag`] asserts membership in debug builds.
const SWITCHES: &[&str] = &["--replay", "--retry", "--stable-only", "--verbose"];

/// Looks up the value following `name`.
///
/// `Ok(None)` when the flag is absent; an error when the flag is
/// present but its value is missing or looks like another flag
/// (`--out --scale` used to happily write a file named `--scale`).
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    match args.get(i + 1) {
        Some(value) if value.starts_with("--") => Err(format!(
            "flag {name} expects a value, but got the flag `{value}`"
        )),
        Some(value) => Ok(Some(value.as_str())),
        None => Err(format!("flag {name} is missing its value")),
    }
}

/// Collects every value of a repeatable flag (`--input a --input b`),
/// with the same flag-shaped-value rejection as [`flag_value`].
fn flag_values<'a>(args: &'a [String], name: &str) -> Result<Vec<&'a str>, String> {
    let mut values = Vec::new();
    for (i, arg) in args.iter().enumerate() {
        if arg != name {
            continue;
        }
        match args.get(i + 1) {
            Some(value) if value.starts_with("--") => {
                return Err(format!(
                    "flag {name} expects a value, but got the flag `{value}`"
                ))
            }
            Some(value) => values.push(value.as_str()),
            None => return Err(format!("flag {name} is missing its value")),
        }
    }
    Ok(values)
}

fn has_flag(args: &[String], name: &str) -> bool {
    debug_assert!(SWITCHES.contains(&name), "{name} is not in SWITCHES");
    args.iter().any(|a| a == name)
}

/// Builds the `AnalysisConfig`, honouring `--threads N`.
fn analysis_config(args: &[String]) -> Result<AnalysisConfig, String> {
    let mut config = AnalysisConfig::default();
    if let Some(threads) = flag_value(args, "--threads")? {
        config.threads = threads
            .parse::<usize>()
            .ok()
            .filter(|&t| t >= 1)
            .ok_or(format!(
                "invalid --threads `{threads}` (want an integer >= 1)"
            ))?;
    }
    Ok(config)
}

/// Builds a [`FaultPlan`] from `--fault-profile` / `--fault-seed`.
///
/// `Ok(None)` when no profile is requested; `--fault-seed` without a
/// profile is rejected rather than silently ignored.
fn fault_plan(args: &[String]) -> Result<Option<FaultPlan>, String> {
    let profile = flag_value(args, "--fault-profile")?;
    let seed = flag_value(args, "--fault-seed")?;
    let Some(profile) = profile else {
        if seed.is_some() {
            return Err("--fault-seed requires --fault-profile".into());
        }
        return Ok(None);
    };
    let profile: FaultProfile = profile.parse()?;
    let seed: u64 = seed
        .map(|s| {
            s.parse()
                .map_err(|_| format!("invalid --fault-seed `{s}` (want a u64)"))
        })
        .transpose()?
        .unwrap_or(0xF4017);
    Ok(Some(FaultPlan::new(profile, seed)))
}

fn scale_config(args: &[String]) -> Result<ScenarioConfig, String> {
    let mut config = match flag_value(args, "--scale")?.unwrap_or("test") {
        "test" => ScenarioConfig::test(),
        "demo" => {
            // The demo preset mirrors quicsand-bench's.
            ScenarioConfig {
                days: 30,
                research_packets_per_scan: 25_000,
                request_sessions: 5_000,
                quic_attacks: 800,
                victim_pool: 110,
                common_attacks: 2_400,
                misconfig_sessions: 2_000,
                garbage_udp443_packets: 500,
                ..ScenarioConfig::paper_month()
            }
        }
        "paper" => ScenarioConfig::paper_month(),
        other => return Err(format!("unknown scale `{other}`")),
    };
    if let Some(seed) = flag_value(args, "--seed")? {
        config.seed = seed.parse().map_err(|_| format!("invalid seed `{seed}`"))?;
    }
    Ok(config)
}

fn cmd_generate(args: &[String]) -> Result<(), String> {
    let out = flag_value(args, "--out")?.ok_or("generate requires --out <file>")?;
    let config = scale_config(args)?;
    let kind = flag_value(args, "--scenario")?
        .map(|s| s.parse::<ScenarioKind>().map_err(|e| e.to_string()))
        .transpose()?;
    match kind {
        Some(kind) => eprintln!(
            "generating {kind} scenario (seed {:#x}, {} days)...",
            config.seed, config.days
        ),
        None => eprintln!(
            "generating scenario (seed {:#x}, {} days)...",
            config.seed, config.days
        ),
    }
    let scenario = match kind {
        Some(kind) => kind.generate(&config),
        None => Scenario::generate(&config),
    };
    let file = std::fs::File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    let mut writer =
        CaptureWriter::new(BufWriter::new(file)).map_err(|e| format!("write header: {e}"))?;
    for record in &scenario.records {
        writer
            .write(record)
            .map_err(|e| format!("write record: {e}"))?;
    }
    writer.finish().map_err(|e| format!("flush: {e}"))?;
    println!(
        "wrote {} records to {out} ({} QUIC floods planted against {} victims)",
        scenario.records.len(),
        scenario.truth.plan.quic.len(),
        scenario.truth.plan.victims.len()
    );
    Ok(())
}

/// First positional argument: not a flag, and not the value of a
/// value-taking flag. [`SWITCHES`] take no value, so a path right
/// after `--verbose` is still the positional.
fn positional(args: &[String]) -> Option<&String> {
    let mut skip_value = false;
    for arg in args {
        if std::mem::take(&mut skip_value) {
            continue;
        }
        if arg.starts_with("--") {
            skip_value = !SWITCHES.contains(&arg.as_str());
        } else {
            return Some(arg);
        }
    }
    None
}

/// Loads the capture at the positional path, applies any requested
/// fault plan, runs the batch pipeline, and verifies that the exported
/// metrics reconcile with the pipeline stats — shared by `analyze` and
/// `metrics`. Progress goes to stderr so stdout stays clean for the
/// caller's own output. A disabled `subscriber` (the `--events-out`
/// flag absent) makes the run collect no events at all.
fn run_pipeline<S: Subscriber>(
    args: &[String],
    command: &str,
    subscriber: &mut S,
) -> Result<Analysis, String> {
    // Validate flags before touching the filesystem.
    let mut analysis_cfg = analysis_config(args)?;
    let plan = fault_plan(args)?;
    let path = positional(args).ok_or(format!("{command} requires a capture path"))?;
    // Zero-copy load: the capture is pulled into one arena and decoded
    // in place, so UDP payloads are views rather than per-record copies.
    let mut reader =
        ZeroCopyCaptureReader::from_path(path).map_err(|e| format!("read {path}: {e}"))?;
    let mut records = reader
        .read_to_end()
        .map_err(|e| format!("read records: {e}"))?;
    eprintln!("loaded {} records; running pipeline...", records.len());

    let fault_summary = plan.map(|mut plan| {
        // The injector computes jitter/reorder deltas against the same
        // guard thresholds the pipeline will enforce.
        analysis_cfg.guard = plan.profile().guard;
        records = plan.apply_all(&records);
        *plan.summary()
    });
    if let Some(summary) = &fault_summary {
        let breakdown: Vec<String> = summary
            .as_table()
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(label, count)| format!("{label} {count}"))
            .collect();
        eprintln!(
            "fault injection: {} -> {} records, {} fault(s): {}",
            summary.input_records,
            summary.emitted_records,
            summary.total_injected(),
            if breakdown.is_empty() {
                "none".into()
            } else {
                breakdown.join(", ")
            }
        );
    }

    // The world is rebuilt deterministically; AS/provider lookups for a
    // *foreign* capture will classify unknown sources as `other`.
    let config = scale_config(args)?;
    let world = quicsand_intel::SyntheticInternet::build(&quicsand_intel::TopologyConfig {
        seed: config.seed,
        servers_per_provider: (config.victim_pool * 2).max(48),
        ..quicsand_intel::TopologyConfig::default()
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
        config,
    };
    let analysis = Analysis::run_with(&scenario, &analysis_cfg, subscriber);
    // Hard invariant: every exported counter equals the corresponding
    // stats field, at any thread count. A mismatch is a bug, not noise.
    analysis
        .verify_metrics()
        .map_err(|e| format!("metrics reconciliation failed: {}", e.join("; ")))?;
    Ok(analysis)
}

/// Writes the full (volatile included) canonical-JSON metrics dump when
/// `--metrics-out <file>` was given.
fn write_metrics_out(
    args: &[String],
    registry: &quicsand_obs::MetricsRegistry,
) -> Result<(), String> {
    if let Some(out) = flag_value(args, "--metrics-out")? {
        std::fs::write(out, registry.render_json(false))
            .map_err(|e| format!("write {out}: {e}"))?;
        eprintln!("metrics written to {out}");
    }
    Ok(())
}

/// Opens the qlog writer when `--events-out <path>` was given —
/// creating the file (and failing on an unwritable path) before any
/// heavy work starts. `None` keeps the zero-cost disabled path.
fn events_out_writer(
    args: &[String],
    title: &str,
    vantage: &[String],
) -> Result<Option<QlogWriter>, String> {
    flag_value(args, "--events-out")?
        .map(|path| QlogWriter::create(path, title, vantage))
        .transpose()
}

/// Finishes an open qlog writer: flushes, publishes the event/byte
/// totals on `registry`, and reports the write on stderr.
fn finish_events_out(
    args: &[String],
    sink: Option<QlogWriter>,
    registry: &quicsand_obs::MetricsRegistry,
) -> Result<(), String> {
    let Some(writer) = sink else {
        return Ok(());
    };
    let (events, bytes) = writer.finish()?;
    EventsMetrics::register(registry).add_totals(events, bytes);
    // The flag was present, so the path parses; unwrap via expect.
    let path = flag_value(args, "--events-out")?.expect("writer implies the flag");
    eprintln!("events: {events} event(s), {bytes} bytes -> {path}");
    Ok(())
}

fn cmd_analyze(args: &[String]) -> Result<(), String> {
    let vantage: Vec<String> = positional(args).cloned().into_iter().collect();
    let mut sink = events_out_writer(args, "quicsand analyze", &vantage)?;
    let analysis = run_pipeline(args, "analyze", &mut sink)?;
    finish_events_out(args, sink, &analysis.registry)?;
    write_metrics_out(args, &analysis.registry)?;

    let stats = &analysis.ingest;
    println!(
        "ingest: {} records, {} valid QUIC, {} false positives, {} TCP, {} ICMP, {} quarantined",
        stats.total,
        stats.quic_valid,
        stats.quic_false_positives,
        stats.tcp,
        stats.icmp,
        stats.quarantine.total()
    );
    if stats.quarantine.total() > 0 {
        let breakdown: Vec<String> = stats
            .quarantine
            .as_table()
            .iter()
            .filter(|(_, count)| *count > 0)
            .map(|(label, count)| format!("{label} {count}"))
            .collect();
        println!("quarantine: {}", breakdown.join(", "));
    }
    let pipeline = &analysis.stats;
    println!(
        "pipeline: {} thread(s), {:.0} records/s ingest; peak open sessions {}",
        pipeline.threads,
        pipeline.ingest_records_per_sec(),
        pipeline.peak_open_sessions
    );
    if has_flag(args, "--verbose") {
        // Keep the `pipeline:` prefix: walltime lines are excluded from
        // cross-thread determinism comparisons by that prefix.
        println!("pipeline: {}", pipeline.stage_summary());
    }
    println!(
        "sanitized: {} requests / {} responses after removing {} research packets from {} scanner(s)",
        analysis.requests.len(),
        analysis.responses.len(),
        analysis.research_packets,
        analysis.research_sources.len()
    );
    println!(
        "sessions: {} request, {} response, {} TCP/ICMP",
        analysis.request_sessions.len(),
        analysis.response_sessions.len(),
        analysis.common_sessions.len()
    );
    let durations = Cdf::new(
        analysis
            .quic_attacks
            .iter()
            .map(|a| a.duration().as_secs_f64())
            .collect(),
    );
    println!(
        "QUIC floods: {} against {} victims (median {:.0}s, median {:.2} max pps)",
        analysis.quic_attacks.len(),
        analysis.victims().len(),
        durations.median().unwrap_or(0.0),
        Cdf::new(analysis.quic_attacks.iter().map(|a| a.max_pps).collect())
            .median()
            .unwrap_or(0.0)
    );
    println!(
        "multi-vector: {:.0}% concurrent / {:.0}% sequential / {:.0}% isolated (of {} QUIC floods)",
        analysis.multivector.share(MultiVectorClass::Concurrent) * 100.0,
        analysis.multivector.share(MultiVectorClass::Sequential) * 100.0,
        analysis.multivector.share(MultiVectorClass::Isolated) * 100.0,
        analysis.quic_attacks.len()
    );
    Ok(())
}

fn cmd_metrics(args: &[String]) -> Result<(), String> {
    let stable_only = has_flag(args, "--stable-only");
    let format = flag_value(args, "--format")?.unwrap_or("prometheus");
    let analysis = run_pipeline(args, "metrics", &mut quicsand_events::NoopSubscriber)?;
    let rendered = match format {
        "prometheus" => analysis.registry.render_prometheus(stable_only),
        "json" => analysis.registry.render_json(stable_only),
        other => return Err(format!("unknown --format `{other}` (want prometheus|json)")),
    };
    print!("{rendered}");
    Ok(())
}

fn cmd_live(args: &[String]) -> Result<(), String> {
    use quicsand_live::{parse_checkpoint, LiveConfig, MultiSourceLive};
    use quicsand_net::multi::{capture_file_factory, SourceFactory, SourceSet, SourceSetConfig};
    use quicsand_net::Duration;
    use quicsand_sessions::dos::DosThresholds;
    use quicsand_sessions::multivector::MultiVectorClass;
    use quicsand_sessions::SessionConfig;
    use quicsand_telescope::GuardConfig;

    // Feeds: the optional positional capture plus any number of
    // repeatable --input captures, merged in event-time order.
    let mut inputs: Vec<String> = Vec::new();
    if let Some(path) = positional(args) {
        inputs.push(path.clone());
    }
    inputs.extend(flag_values(args, "--input")?.into_iter().map(String::from));
    if inputs.is_empty() {
        return Err("live requires a capture path (positional or --input <file>)".into());
    }
    let window: u64 = flag_value(args, "--window")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid --window `{v}` (minutes)"))
        })
        .transpose()?
        .unwrap_or(5);
    let weight: f64 = flag_value(args, "--weight")?
        .map(|v| v.parse().map_err(|_| format!("invalid --weight `{v}`")))
        .transpose()?
        .unwrap_or(1.0);
    let escalate: f64 = flag_value(args, "--escalate")?
        .map(|v| v.parse().map_err(|_| format!("invalid --escalate `{v}`")))
        .transpose()?
        .unwrap_or(LiveConfig::default().escalation_weight);
    let shards: usize = flag_value(args, "--shards")?
        .map(|v| v.parse().map_err(|_| format!("invalid --shards `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let chunk: usize = flag_value(args, "--chunk")?
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&c| c >= 1)
                .ok_or(format!("invalid --chunk `{v}` (want an integer >= 1)"))
        })
        .transpose()?
        .unwrap_or(1024);
    let max_victims: usize = flag_value(args, "--max-victims")?
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&m| m >= 1)
                .ok_or(format!("invalid --max-victims `{v}`"))
        })
        .transpose()?
        .unwrap_or(LiveConfig::default().max_victims);
    let evidence_ring: usize = flag_value(args, "--evidence-ring")?
        .map(|v| {
            v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or(format!(
                "invalid --evidence-ring `{v}` (want an integer >= 1)"
            ))
        })
        .transpose()?
        .unwrap_or(LiveConfig::default().evidence_capacity);
    let checkpoint_every: Option<u64> = flag_value(args, "--checkpoint-every")?
        .map(|v| {
            v.parse::<u64>()
                .ok()
                .filter(|&n| n >= 1)
                .ok_or(format!("invalid --checkpoint-every `{v}`"))
        })
        .transpose()?;
    let source_queue: usize = flag_value(args, "--source-queue")?
        .map(|v| {
            v.parse::<usize>().ok().filter(|&q| q >= 1).ok_or(format!(
                "invalid --source-queue `{v}` (want an integer >= 1)"
            ))
        })
        .transpose()?
        .unwrap_or(SourceSetConfig::default().queue_capacity);
    let source_batch: usize = flag_value(args, "--source-batch")?
        .map(|v| {
            v.parse::<usize>().ok().filter(|&b| b >= 1).ok_or(format!(
                "invalid --source-batch `{v}` (want an integer >= 1)"
            ))
        })
        .transpose()?
        .unwrap_or(SourceSetConfig::default().batch_records);
    let source_rate: Option<u64> = flag_value(args, "--source-rate")?
        .map(|v| {
            v.parse::<u64>()
                .ok()
                .filter(|&r| r >= 1)
                .ok_or(format!("invalid --source-rate `{v}` (want records/s >= 1)"))
        })
        .transpose()?;
    let json = match flag_value(args, "--alert-format")?.unwrap_or("text") {
        "text" => false,
        "json" => true,
        other => return Err(format!("unknown --alert-format `{other}` (want text|json)")),
    };
    let verbose = has_flag(args, "--verbose");

    let guard = GuardConfig::default();
    let config = LiveConfig {
        thresholds: DosThresholds::moore().scaled(weight),
        // Match the batch pipeline's convention: sessionization
        // tolerates exactly the reordering the ingest guard admits.
        session: SessionConfig {
            timeout: Duration::from_mins(window),
            skew_tolerance: guard.reorder_tolerance,
        },
        escalation_weight: escalate,
        max_victims,
        evidence_capacity: evidence_ring,
    };
    // The qlog sink (when requested) is created first: an unwritable
    // --events-out path must fail before any feed is opened. The
    // vantage metadata carries one label per feed.
    let mut sink = events_out_writer(args, "quicsand live", &inputs)?;
    // A bad path or corrupt header is still a hard, immediate error —
    // only *mid-run* source failures are tolerated (reconnect/abandon).
    // An empty capture opens as an instantly-EOF feed, not an error.
    for path in &inputs {
        capture_file_factory(path.clone())
            .open()
            .map_err(|e| format!("read {path}: {e}"))?;
    }
    let set_config = SourceSetConfig {
        queue_capacity: source_queue,
        batch_records: source_batch,
        rate_limit: source_rate,
        ..SourceSetConfig::default()
    };
    let make_factories = || -> Vec<Box<dyn SourceFactory>> {
        inputs
            .iter()
            .map(|path| Box::new(capture_file_factory(path.clone())) as Box<dyn SourceFactory>)
            .collect()
    };
    let mut live = MultiSourceLive::new(
        config,
        guard,
        shards,
        SourceSet::spawn(make_factories(), &set_config),
    );

    let emit = |event: &quicsand_live::LiveEvent| {
        if json {
            println!("{}", event.render_json());
        } else {
            println!("{}", event.render_text());
        }
    };

    let mut offered_at_checkpoint: u64 = 0;
    let mut checkpoints: u64 = 0;
    let mut checkpoint_bytes: u64 = 0;
    while let Some(events) = live.pump_with(chunk, &mut sink) {
        for event in events {
            emit(&event);
        }
        let due =
            checkpoint_every.is_some_and(|every| live.offered() - offered_at_checkpoint >= every);
        if due {
            // Self-verifying checkpoint: serialize the v2 snapshot
            // (engine + per-source cursors), parse it back, restore a
            // fresh engine *and* fresh feeds resumed past the cursors,
            // prove the round trip is lossless, and continue from the
            // restored copy — the rest of the run exercises the
            // multi-source resume path.
            let snapshot = live.snapshot();
            let encoded =
                serde_json::to_string(&snapshot).map_err(|e| format!("checkpoint encode: {e}"))?;
            let decoded = parse_checkpoint(&encoded)?;
            let restored = MultiSourceLive::restore(&decoded, make_factories(), &set_config)?;
            if restored.snapshot() != snapshot {
                return Err(format!(
                    "checkpoint self-verification failed after {} records",
                    live.offered()
                ));
            }
            live = restored;
            checkpoints += 1;
            checkpoint_bytes += encoded.len() as u64;
            offered_at_checkpoint = live.offered();
            if verbose {
                eprintln!(
                    "checkpoint {} verified at {} records ({} bytes, {} source cursor(s))",
                    checkpoints,
                    live.offered(),
                    encoded.len(),
                    snapshot.cursors.len()
                );
            }
        }
    }
    for event in live.finish_with(&mut sink) {
        emit(&event);
    }
    // Each restore starts a fresh registry and snapshots carry no
    // checkpoint telemetry, so the run totals are added once, here.
    let live_metrics = live.engine().metrics();
    live_metrics.checkpoints_total.add(checkpoints);
    live_metrics.checkpoint_bytes_total.add(checkpoint_bytes);
    finish_events_out(args, sink, live.registry())?;
    // Hard invariant: live counters reconcile with the merged detector
    // stats of the finished run — including the per-source counters
    // and the cursor/offered conservation check.
    live.verify_metrics()
        .map_err(|e| format!("live metrics reconciliation failed: {}", e.join("; ")))?;
    write_metrics_out(args, live.registry())?;

    let stats = live.live_stats();
    let ingest = live.ingest_stats();
    println!(
        "live: {} records in, {} opened / {} escalated / {} closed / {} reclassified, \
         {} eviction(s), {} quarantined",
        live.offered(),
        stats.opened,
        stats.escalated,
        stats.closed,
        stats.reclassified,
        stats.evictions,
        ingest.quarantine.total()
    );
    let quic = live.engine().closed_quic();
    let class_count = |class: MultiVectorClass| quic.iter().filter(|c| c.class() == class).count();
    println!(
        "live: {} QUIC flood(s) ({} concurrent / {} sequential / {} isolated), \
         {} TCP/ICMP flood(s), {} checkpoint(s) verified",
        quic.len(),
        class_count(MultiVectorClass::Concurrent),
        class_count(MultiVectorClass::Sequential),
        class_count(MultiVectorClass::Isolated),
        live.engine().closed_common().len(),
        checkpoints
    );
    let sources = live.source_stats();
    println!(
        "sources: {} feed(s), {} record(s) merged, {} reconnect(s), {} abandoned, {} empty",
        sources.len(),
        live.offered(),
        sources.iter().map(|s| s.reconnects).sum::<u64>(),
        sources.iter().filter(|s| s.dead).count(),
        sources.iter().filter(|s| s.eof && s.delivered == 0).count()
    );
    if verbose {
        let pipeline = live.engine().pipeline_stats();
        println!(
            "live: {} shard(s), {:.0} records/s ingest; {}; peak tracked victims {}",
            shards.max(1),
            pipeline.ingest_records_per_sec(),
            pipeline.stage_summary(),
            stats.peak_tracked
        );
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> Result<(), String> {
    use quicsand_server::model::{RetryPolicy, ServerConfig};
    use quicsand_server::replay::{replay_flood, ReplayConfig};

    let pps: u64 = flag_value(args, "--pps")?
        .ok_or("replay requires --pps <rate>")?
        .parse()
        .map_err(|_| "invalid --pps")?;
    let requests: u64 = flag_value(args, "--requests")?
        .map(|v| v.parse().map_err(|_| "invalid --requests"))
        .transpose()?
        .unwrap_or(pps * 300 + 1);
    let workers: usize = flag_value(args, "--workers")?
        .map(|v| v.parse().map_err(|_| "invalid --workers"))
        .transpose()?
        .unwrap_or(4);
    let retry_policy = if let Some(threshold) = flag_value(args, "--adaptive")? {
        RetryPolicy::Adaptive {
            occupancy_threshold: threshold.parse().map_err(|_| "invalid --adaptive")?,
        }
    } else if has_flag(args, "--retry") {
        RetryPolicy::Always
    } else {
        RetryPolicy::Off
    };

    eprintln!("replaying {requests} Initials at {pps} pps against {workers} worker(s)...");
    let outcome = replay_flood(
        &ReplayConfig {
            pps,
            total_requests: requests,
            server: ServerConfig {
                workers,
                retry_policy,
                ..ServerConfig::default()
            },
        },
        42,
    );
    println!(
        "requests {}  responses {}  answered {}  availability {}%  extra-rtt {}",
        outcome.requests,
        outcome.responses,
        outcome.answered,
        outcome.availability_percent(),
        if outcome.extra_rtt { "yes" } else { "no" }
    );
    Ok(())
}

fn cmd_export(args: &[String]) -> Result<(), String> {
    let input = positional(args).ok_or("export requires a capture path")?;
    let output = flag_value(args, "--pcap")?.ok_or("export requires --pcap <file>")?;
    let reader =
        ZeroCopyCaptureReader::from_path(input).map_err(|e| format!("read {input}: {e}"))?;
    let out = std::fs::File::create(output).map_err(|e| format!("create {output}: {e}"))?;
    let mut writer = quicsand_net::pcap::PcapWriter::new(BufWriter::new(out))
        .map_err(|e| format!("write pcap header: {e}"))?;
    for record in reader {
        let record = record.map_err(|e| format!("read record: {e}"))?;
        writer
            .write(&record)
            .map_err(|e| format!("write packet: {e}"))?;
    }
    let written = writer.written();
    writer.finish().map_err(|e| format!("flush: {e}"))?;
    println!("wrote {written} packets to {output} (libpcap, raw-IP linktype)");
    Ok(())
}

fn cmd_forensics(args: &[String]) -> Result<(), String> {
    use quicsand_events::qlog::validate_qlog;
    use quicsand_live::{parse_slice_qlog, replay_slice, LiveConfig, LiveEngine};
    use quicsand_net::Duration;
    use quicsand_sessions::dos::DosThresholds;
    use quicsand_sessions::SessionConfig;
    use quicsand_telescope::GuardConfig;

    // `forensics check <file.qlog>`: framing/header validation only.
    if args.first().map(String::as_str) == Some("check") {
        let path = positional(&args[1..]).ok_or("forensics check requires a qlog path")?;
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        let summary = validate_qlog(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "{path}: valid qlog JSON-SEQ ({} record(s), {} event(s))",
            summary.records, summary.events
        );
        return Ok(());
    }

    let path = positional(args).ok_or("forensics requires a capture path")?;
    let out_dir = flag_value(args, "--out")?
        .unwrap_or("forensics")
        .to_string();
    let replay = has_flag(args, "--replay");
    let window: u64 = flag_value(args, "--window")?
        .map(|v| {
            v.parse()
                .map_err(|_| format!("invalid --window `{v}` (minutes)"))
        })
        .transpose()?
        .unwrap_or(5);
    let weight: f64 = flag_value(args, "--weight")?
        .map(|v| v.parse().map_err(|_| format!("invalid --weight `{v}`")))
        .transpose()?
        .unwrap_or(1.0);
    let shards: usize = flag_value(args, "--shards")?
        .map(|v| v.parse().map_err(|_| format!("invalid --shards `{v}`")))
        .transpose()?
        .unwrap_or(1);
    let chunk: usize = flag_value(args, "--chunk")?
        .map(|v| {
            v.parse::<usize>()
                .ok()
                .filter(|&c| c >= 1)
                .ok_or(format!("invalid --chunk `{v}` (want an integer >= 1)"))
        })
        .transpose()?
        .unwrap_or(1024);
    let evidence_ring: usize = flag_value(args, "--evidence-ring")?
        .map(|v| {
            v.parse::<usize>().ok().filter(|&n| n >= 1).ok_or(format!(
                "invalid --evidence-ring `{v}` (want an integer >= 1)"
            ))
        })
        .transpose()?
        .unwrap_or(LiveConfig::default().evidence_capacity);

    let guard = GuardConfig::default();
    let config = LiveConfig {
        thresholds: DosThresholds::moore().scaled(weight),
        session: SessionConfig {
            timeout: Duration::from_mins(window),
            skew_tolerance: guard.reorder_tolerance,
        },
        evidence_capacity: evidence_ring,
        ..LiveConfig::default()
    };
    let mut reader =
        ZeroCopyCaptureReader::from_path(path).map_err(|e| format!("read {path}: {e}"))?;
    let records = reader
        .read_to_end()
        .map_err(|e| format!("read records: {e}"))?;
    eprintln!(
        "loaded {} records; running the live engine...",
        records.len()
    );
    let mut engine = LiveEngine::new(config, guard, shards);
    for part in records.chunks(chunk.max(1)) {
        engine.offer_chunk(part);
    }
    engine.finish();

    let slices = engine.alert_slices();
    if slices.is_empty() {
        println!("no closed QUIC alerts in {path}; nothing to export");
        return Ok(());
    }
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {out_dir}: {e}"))?;
    let mut replayed = 0usize;
    for slice in &slices {
        let bytes = slice.to_qlog()?;
        let file = format!("{out_dir}/alert-{}.qlog", slice.alert_index);
        std::fs::write(&file, &bytes).map_err(|e| format!("write {file}: {e}"))?;
        if replay {
            // The replay contract: the exported slice alone must
            // reproduce the identical closed alert and verdict in a
            // fresh detector. `replay_slice` errors on any divergence.
            let (parsed, packets) = parse_slice_qlog(&bytes).map_err(|e| format!("{file}: {e}"))?;
            replay_slice(&parsed, &packets)
                .map_err(|e| format!("{file}: replay contract violated: {e}"))?;
            replayed += 1;
        }
        println!(
            "wrote {file} (victim {}, {} packet(s), {} common flood(s), class {})",
            slice.victim,
            slice.quic.attack.packet_count,
            slice.commons.len(),
            slice.class.label()
        );
    }
    println!(
        "forensics: {} alert slice(s) exported to {out_dir}{}",
        slices.len(),
        if replay {
            format!(", {replayed} replay(s) verified")
        } else {
            String::new()
        }
    );
    Ok(())
}

fn cmd_experiments(args: &[String]) -> Result<(), String> {
    use quicsand_core::experiments as exp;
    let config = scale_config(args)?;
    eprintln!("generating scenario (seed {:#x})...", config.seed);
    let scenario = Scenario::generate(&config);
    let analysis = Analysis::run(&scenario, &analysis_config(args)?);
    let reports = vec![
        exp::fig02::run(&scenario, &analysis),
        exp::fig03::run(&scenario, &analysis),
        exp::fig04::run(&analysis),
        exp::fig05::run(&scenario, &analysis),
        exp::fig06::run(&analysis),
        exp::fig07::run(&analysis),
        exp::fig08::run(&analysis),
        exp::fig09::run(&scenario, &analysis),
        exp::fig10::run(&scenario, &analysis),
        exp::fig11::run(&analysis),
        exp::fig12::run(&analysis),
        exp::fig13::run(&analysis),
        exp::msgmix::run(&analysis),
        exp::sec3_amplification::run(),
    ];
    for report in reports {
        println!("{}", report.render());
    }
    Ok(())
}
