//! Throughput of the streaming flood-detection engine on the ambient
//! scale (`QUICSAND_SCALE`, default demo), across shard counts and a
//! sweep of chunk sizes at the best shard count.
//!
//! ```text
//! cargo run --release -p quicsand-bench --bin live_throughput
//! ```
//!
//! Prints records/second through the full live path (ingest guard →
//! per-victim state → alert lifecycle), the event volume, and the peak
//! number of tracked victims — the engine's memory high-water mark.
//!
//! Afterwards it writes `BENCH_live_throughput.json` (the 1-shard,
//! 4096-chunk run — the machine-portable reference configuration) into
//! `QUICSAND_BENCH_DIR` for the `scripts/ci.sh bench-smoke` regression
//! gate.

use quicsand_bench::report::quantile_ms;
use quicsand_bench::{BenchReport, Scale, BENCH_SCHEMA_VERSION};
use quicsand_live::{LiveConfig, LiveEngine};
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use std::collections::BTreeMap;
use std::time::Instant;

fn main() {
    let scale = Scale::from_env();
    eprintln!(
        "[quicsand] generating scenario (scale={}, set QUICSAND_SCALE=test|demo|paper to change)",
        scale.label()
    );
    let scenario = quicsand_traffic::Scenario::generate(&scale.scenario_config());
    let records = &scenario.records;
    let guard = GuardConfig::default();
    let config = LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    };

    println!(
        "live engine over {} records ({} scale), {} cores available",
        records.len(),
        scale.label(),
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "{:>7} {:>7}  {:>10} {:>12} {:>8} {:>8} {:>8}",
        "shards", "chunk", "wall", "rec/s", "events", "peak", "speedup"
    );

    let mut base = 0.0f64;
    let run = |shards: usize, chunk: usize, base: f64| -> (f64, LiveEngine) {
        let mut engine = LiveEngine::new(config, guard, shards);
        let t0 = Instant::now();
        let mut events = 0usize;
        for part in records.chunks(chunk) {
            events += engine.offer_chunk(part).len();
        }
        events += engine.finish().len();
        let wall = t0.elapsed().as_secs_f64();
        let stats = engine.live_stats();
        assert!(
            stats.closed > 0,
            "the scenario must close at least one alert"
        );
        println!(
            "{shards:>7} {chunk:>7}  {:>9.2}s {:>12.0} {events:>8} {:>8} {:>7.2}x",
            wall,
            records.len() as f64 / wall,
            stats.peak_tracked,
            if base > 0.0 { base / wall } else { 1.0 },
        );
        (wall, engine)
    };

    let mut reference: Option<(f64, LiveEngine)> = None;
    for shards in [1usize, 2, 4, 8] {
        let (wall, engine) = run(shards, 4096, base);
        if shards == 1 {
            base = wall;
            reference = Some((wall, engine));
        }
    }
    for chunk in [256usize, 1024, 16_384] {
        run(8, chunk, base);
    }

    // Regression-gate report from the 1-shard, 4096-chunk reference run.
    let (wall, engine) = reference.expect("1-shard run always executes");
    engine
        .verify_metrics()
        .expect("live metrics reconcile at end of run");
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
        name: "live_throughput".into(),
        scale: scale.label().into(),
        records: records.len() as u64,
        wall_seconds: wall,
        throughput_rps: records.len() as f64 / wall,
        p50_stage_latency_ms: stage_map(0.50),
        p99_stage_latency_ms: stage_map(0.99),
        peak_sessions: engine.live_stats().peak_tracked as u64,
        threads: 1,
    };
    report.validate().expect("fresh report is schema-valid");
    let path = report.write().expect("write bench report");
    eprintln!("[quicsand] bench report written to {}", path.display());
}
