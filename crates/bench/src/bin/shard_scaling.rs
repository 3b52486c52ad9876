//! Scaling curve of the sharded frontend: ingest + sessionize
//! throughput at 1, 2, 4 and 8 shards on the ambient scale
//! (`QUICSAND_SCALE`, default demo).
//!
//! ```text
//! cargo run --release -p quicsand-bench --bin shard_scaling
//! ```
//!
//! Prints, per thread count, the wall time and throughput of (a) the
//! parallel ingest alone and (b) the full analysis frontend
//! (ingest → sanitize → sessionize → DoS inference), plus the speedup
//! over one shard. The acceptance bar for the parallel pipeline is
//! ≥ 2× ingest+sessionize throughput at 8 shards vs 1 at demo scale.
//!
//! Afterwards it writes `BENCH_shard_scaling.json` (the 1-thread run —
//! the machine-portable reference configuration) into
//! `QUICSAND_BENCH_DIR` for the `scripts/ci.sh bench-smoke` regression
//! gate.
//!
//! At the `medium`/`large` rungs of `QUICSAND_BENCH_SCALE`, the batch
//! frontend (which needs a materialized trace) is replaced by the live
//! engine fed from the constant-memory streaming generator, and the
//! per-tier report lands in `BENCH_shard_scaling@<scale>.json`.

use quicsand_bench::report::quantile_ms;
use quicsand_bench::{BenchReport, BenchScale, Scale, BENCH_SCHEMA_VERSION};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_live::{LiveConfig, LiveEngine};
use quicsand_net::PacketRecord;
use quicsand_sessions::SessionConfig;
use quicsand_telescope::{ingest_parallel, GuardConfig};
use quicsand_traffic::{RecordStream, Scenario, StreamConfig};
use std::collections::BTreeMap;
use std::time::Instant;

/// The streaming rungs: shard counts over lazily generated records,
/// reusing one chunk buffer so memory stays O(victims + chunk).
fn run_streaming(bench_scale: BenchScale, stream: StreamConfig) {
    const CHUNK: usize = 4096;
    eprintln!(
        "[quicsand] streaming {} records ({} tier), never materialized",
        stream.records,
        bench_scale.label()
    );
    let guard = GuardConfig::default();
    let config = LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    };
    println!(
        "shard scaling over {} streamed records ({} tier), {} cores available",
        stream.records,
        bench_scale.label(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "{:>7}  {:>12} {:>12} {:>8}",
        "shards", "wall", "rec/s", "speedup"
    );
    let mut base = 0.0f64;
    let mut reference: Option<(f64, LiveEngine)> = None;
    for shards in [1usize, 2, 4, 8] {
        let mut source = RecordStream::new(&stream);
        let mut engine = LiveEngine::new(config, guard, shards);
        let mut buf: Vec<PacketRecord> = Vec::with_capacity(CHUNK);
        let t0 = Instant::now();
        loop {
            buf.clear();
            buf.extend(source.by_ref().take(CHUNK));
            if buf.is_empty() {
                break;
            }
            engine.offer_chunk(&buf);
        }
        engine.finish();
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(engine.offered(), stream.records, "stream conserves records");
        assert!(engine.live_stats().closed > 0, "bursts close alerts");
        if shards == 1 {
            base = wall;
            reference = Some((wall, engine));
        }
        println!(
            "{shards:>7}  {:>10.2}s {:>12.0} {:>7.2}x",
            wall,
            stream.records as f64 / wall,
            base / wall,
        );
    }

    let (wall, engine) = reference.expect("1-shard run always executes");
    engine
        .verify_metrics()
        .expect("metrics reconcile at end of run");
    let stages = engine.stage_metrics();
    let stage_map = |q: f64| -> BTreeMap<String, f64> {
        [
            ("ingest", &stages.ingest_walltime),
            ("sessionize", &stages.sessionize_walltime),
            ("detect", &stages.detect_walltime),
        ]
        .into_iter()
        .map(|(stage, histogram)| (stage.to_string(), quantile_ms(histogram, q)))
        .collect()
    };
    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        name: "shard_scaling".into(),
        scale: bench_scale.label().into(),
        records: stream.records,
        wall_seconds: wall,
        throughput_rps: stream.records as f64 / wall,
        p50_stage_latency_ms: stage_map(0.50),
        p99_stage_latency_ms: stage_map(0.99),
        peak_sessions: engine.live_stats().peak_tracked as u64,
        threads: 1,
    };
    report.validate().expect("fresh report is schema-valid");
    let path = report.write().expect("write bench report");
    eprintln!("[quicsand] bench report written to {}", path.display());
}

fn main() {
    let bench_scale = BenchScale::from_env();
    if let Some(stream) = bench_scale.stream_config() {
        run_streaming(bench_scale, stream);
        return;
    }
    let scale = Scale::from_env();
    eprintln!(
        "[quicsand] generating scenario (scale={}, set QUICSAND_SCALE=test|demo|paper to change)",
        scale.label()
    );
    let scenario = Scenario::generate(&scale.scenario_config());
    let records = &scenario.records;
    println!(
        "shard scaling over {} records ({} scale), {} cores available",
        records.len(),
        scale.label(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    if std::thread::available_parallelism().map_or(1, usize::from) == 1 {
        println!(
            "note: single-core host — expect ~1x at every shard count; \
             the scaling target (>=2x at 8 shards) needs >=8 cores"
        );
    }
    println!(
        "{:>7}  {:>12} {:>12} {:>8}  {:>12} {:>12} {:>8}",
        "shards", "ingest", "rec/s", "speedup", "frontend", "rec/s", "speedup"
    );

    let mut ingest_base = 0.0f64;
    let mut frontend_base = 0.0f64;
    let mut reference: Option<(f64, Analysis)> = None;
    for threads in [1usize, 2, 4, 8] {
        // (a) Parallel ingest alone (classify + dissect).
        let t0 = Instant::now();
        let (quic, baseline, stats) = ingest_parallel(records, threads);
        let ingest_s = t0.elapsed().as_secs_f64();
        assert_eq!(stats.total, records.len() as u64);
        // Keep the products observable so the work is not optimized out.
        let sink = quic.len() + baseline.len();
        assert!(sink > 0);

        // (b) The full pipeline with the sharded frontend.
        let t1 = Instant::now();
        let analysis = Analysis::run(
            &scenario,
            &AnalysisConfig {
                threads,
                ..AnalysisConfig::default()
            },
        );
        let frontend_s = t1.elapsed().as_secs_f64();
        assert!(!analysis.quic_attacks.is_empty());

        if threads == 1 {
            ingest_base = ingest_s;
            frontend_base = frontend_s;
            reference = Some((frontend_s, analysis));
        } else {
            drop(analysis);
        }
        println!(
            "{threads:>7}  {:>10.2}s {:>12.0} {:>7.2}x  {:>10.2}s {:>12.0} {:>7.2}x",
            ingest_s,
            records.len() as f64 / ingest_s,
            ingest_base / ingest_s,
            frontend_s,
            records.len() as f64 / frontend_s,
            frontend_base / frontend_s,
        );
    }

    // Regression-gate report from the 1-thread reference run.
    let (wall, analysis) = reference.expect("1-thread run always executes");
    let stages = &analysis.metrics.stages;
    let stage_map = |q: f64| -> BTreeMap<String, f64> {
        [
            ("ingest", &stages.ingest_walltime),
            ("sanitize", &stages.sanitize_walltime),
            ("sessionize", &stages.sessionize_walltime),
            ("detect", &stages.detect_walltime),
        ]
        .into_iter()
        .map(|(stage, histogram)| (stage.to_string(), quantile_ms(histogram, q)))
        .collect()
    };
    let report = BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        name: "shard_scaling".into(),
        scale: scale.label().into(),
        records: records.len() as u64,
        wall_seconds: wall,
        throughput_rps: records.len() as f64 / wall,
        p50_stage_latency_ms: stage_map(0.50),
        p99_stage_latency_ms: stage_map(0.99),
        peak_sessions: analysis.stats.peak_open_sessions as u64,
        threads: 1,
    };
    report.validate().expect("fresh report is schema-valid");
    let path = report.write().expect("write bench report");
    eprintln!("[quicsand] bench report written to {}", path.display());
}
