//! Throughput of the multi-source ingestion tier, at any rung of the
//! perf scale ladder (`QUICSAND_BENCH_SCALE`, default `test`):
//!
//! * `test` (and any `QUICSAND_SCALE`) — the materialized scenario
//!   trace is round-robin split across in-memory feeds.
//! * `medium` / `large` — 1M / 10M records flow from the
//!   constant-memory streaming generator, entity-sharded into feeds;
//!   the trace is never materialized.
//!
//! ```text
//! cargo run --release -p quicsand-bench --bin multi_source_throughput
//! ```
//!
//! Prints records/second through the full multiplexed path (bounded
//! per-source queues → batched transfer → run-based event-time merge →
//! ingest guard → alert lifecycle) and the fan-in overhead versus a
//! single feed. When `QUICSAND_MULTI_RATIO_MAX` is set (CI
//! `scale-smoke` sets 1.5), the run fails if the 4-source wall time
//! exceeds that multiple of the single-source wall time.
//!
//! Afterwards it writes the per-tier report (`BENCH_multi_source.json`
//! at the `test` tier, `BENCH_multi_source@<scale>.json` above it; the
//! 4-source, 1-shard, 4096-chunk, default-queue run is the
//! machine-portable reference configuration) into `QUICSAND_BENCH_DIR`
//! for the `scripts/ci.sh` regression gates.

use quicsand_bench::report::quantile_ms;
use quicsand_bench::{BenchReport, BenchScale, Scale, BENCH_SCHEMA_VERSION};
use quicsand_live::{LiveConfig, MultiSourceLive};
use quicsand_net::multi::{memory_factory, DynSource, SourceFactory, SourceSet, SourceSetConfig};
use quicsand_net::PacketRecord;
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use quicsand_traffic::RecordStream;
use std::collections::BTreeMap;
use std::time::Instant;

fn splits(records: &[PacketRecord], n: usize) -> Vec<Vec<PacketRecord>> {
    let mut parts = vec![Vec::new(); n];
    for (i, record) in records.iter().enumerate() {
        parts[i % n].push(record.clone());
    }
    parts
}

const CHUNK: usize = 4096;

/// Builds the per-feed factories for a given source count.
type FeedBuilder = Box<dyn Fn(usize) -> Vec<Box<dyn SourceFactory>>>;

fn ratio_max_from_env() -> Option<f64> {
    std::env::var("QUICSAND_MULTI_RATIO_MAX")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|r| r.is_finite() && *r >= 1.0)
}

fn main() {
    let bench_scale = BenchScale::from_env();
    let scale = Scale::from_env();

    // The feed builder and the total record count, per ladder tier.
    let (total, feeds_for, report_scale): (u64, FeedBuilder, &str) = match bench_scale
        .stream_config()
    {
        // Streaming tiers: entity-sharded constant-memory generators.
        Some(stream) => {
            eprintln!(
                "[quicsand] streaming {} records ({} tier), never materialized",
                stream.records,
                bench_scale.label()
            );
            let feeds = move |sources: usize| -> Vec<Box<dyn SourceFactory>> {
                (0..sources)
                    .map(|index| {
                        let shard = stream.shard(sources as u32, index as u32);
                        Box::new(move || Ok(Box::new(RecordStream::new(&shard)) as DynSource))
                            as Box<dyn SourceFactory>
                    })
                    .collect()
            };
            (stream.records, Box::new(feeds), bench_scale.label())
        }
        // Test tier: the materialized scenario, round-robin split.
        None => {
            eprintln!(
                "[quicsand] generating scenario (scale={}, set QUICSAND_SCALE=test|demo|paper to change)",
                scale.label()
            );
            let scenario = quicsand_traffic::Scenario::generate(&scale.scenario_config());
            let records = scenario.records;
            let total = records.len() as u64;
            let feeds = move |sources: usize| -> Vec<Box<dyn SourceFactory>> {
                splits(&records, sources)
                    .into_iter()
                    .map(|p| Box::new(memory_factory(p)) as Box<dyn SourceFactory>)
                    .collect()
            };
            (total, Box::new(feeds), scale.label())
        }
    };

    let guard = GuardConfig::default();
    let config = LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    };

    println!(
        "multiplexed live engine over {total} records ({report_scale} tier), {} cores available",
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "{:>7} {:>7}  {:>10} {:>12} {:>8} {:>8} {:>8}",
        "sources", "queue", "wall", "rec/s", "events", "peak", "speedup"
    );

    let run = |sources: usize, queue: usize, base: f64| -> (f64, MultiSourceLive) {
        let set_config = SourceSetConfig {
            queue_capacity: queue,
            ..SourceSetConfig::default()
        };
        let set = SourceSet::spawn(feeds_for(sources), &set_config);
        let mut live = MultiSourceLive::new(config, guard, 1, set);
        let t0 = Instant::now();
        let mut events = 0usize;
        while let Some(batch) = live.pump(CHUNK) {
            events += batch.len();
        }
        events += live.finish().len();
        let wall = t0.elapsed().as_secs_f64();
        let stats = live.live_stats();
        assert!(stats.closed > 0, "the trace must close at least one alert");
        assert_eq!(
            live.offered(),
            total,
            "the merge must conserve every record"
        );
        println!(
            "{sources:>7} {queue:>7}  {:>9.2}s {:>12.0} {events:>8} {:>8} {:>7.2}x",
            wall,
            total as f64 / wall,
            stats.peak_tracked,
            if base > 0.0 { base / wall } else { 1.0 },
        );
        (wall, live)
    };

    let default_queue = SourceSetConfig::default().queue_capacity;
    let mut base = 0.0f64;
    let mut reference: Option<(f64, MultiSourceLive)> = None;
    for sources in [1usize, 2, 4, 8] {
        let (wall, live) = run(sources, default_queue, base);
        if sources == 1 {
            base = wall;
        }
        if sources == 4 {
            reference = Some((wall, live));
        }
    }
    // The queue-capacity sweep only makes sense where runs are cheap.
    if bench_scale == BenchScale::Test {
        for queue in [64usize, 512] {
            run(4, queue, base);
        }
    }

    let (wall, live) = reference.expect("4-source run always executes");
    if let Some(max_ratio) = ratio_max_from_env() {
        let ratio = wall / base;
        assert!(
            ratio <= max_ratio,
            "fan-in tax too high: 4-source wall {wall:.2}s is {ratio:.2}x \
             single-source {base:.2}s (max allowed {max_ratio:.2}x)"
        );
        eprintln!("[quicsand] fan-in ratio {ratio:.2}x <= {max_ratio:.2}x — ok");
    }

    // Regression-gate report from the 4-source, 1-shard reference run.
    live.verify_metrics()
        .expect("multiplexed metrics reconcile at end of run");
    let stages = live.engine().stage_metrics();
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
        name: "multi_source".into(),
        scale: report_scale.into(),
        records: total,
        wall_seconds: wall,
        throughput_rps: total as f64 / wall,
        p50_stage_latency_ms: stage_map(0.50),
        p99_stage_latency_ms: stage_map(0.99),
        peak_sessions: live.live_stats().peak_tracked as u64,
        threads: 1,
    };
    report.validate().expect("fresh report is schema-valid");
    let path = report.write().expect("write bench report");
    eprintln!("[quicsand] bench report written to {}", path.display());
}
