//! End-to-end benchmark of the quicsand CLI, with a traced per-layer
//! breakdown.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload scan-batch|flood-live --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the root of a quicsand source tree. Each run generates its
//! workload from the seed (set-up, repeated three times), then either
//! measures the end-to-end metrics with tracing off (`--trace 0`) or
//! replays the workload layer by layer with spans on (`--trace 1`).
//! Every output is checked against a reference; the last stdout line is
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! The exit code is non-zero when any check failed.

mod cli;
mod stats;
mod trace;
mod traced;
mod workload;

use cli::{Expected, Invocation};
use stats::{fast_quartile_latency, median, quantile, LatencySummary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Inputs, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// CLI invocations per measured run, at least.
const MIN_INVOCATIONS: usize = 3;
/// Where runs keep their inputs, outputs and trace dumps.
const WORK_DIR: &str = ".bench_work";

/// Every end-to-end metric, with its unit, in report order.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput_rps", "1/s"),
    ("peak_rss_mb", "MB"),
    ("alert_latency_p50_ms", "ms"),
    ("alert_latency_p99_ms", "ms"),
    ("setup_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    let i = args
        .iter()
        .position(|a| a == name)
        .ok_or(format!("missing {name}"))?;
    args.get(i + 1)
        .map(String::as_str)
        .ok_or(format!("{name} is missing its value"))
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let trace = match flag(&args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace wants 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload: Workload::parse(flag(&args, "--workload")?)?,
        seed: flag(&args, "--seed")?
            .parse()
            .map_err(|_| "--seed wants a whole number".to_string())?,
        seconds: flag(&args, "--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds wants a positive number")?,
        trace,
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| bench(&args));
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::from(2)
        }
    }
}

/// Builds the `quicsand` binary from the source tree in `root` and
/// returns its path.
fn build_cli(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = std::process::Command::new(cargo)
        .current_dir(root)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "quicsand",
            "--bin",
            "quicsand",
        ])
        .status()
        .map_err(|e| format!("run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building the quicsand CLI failed ({status})"));
    }
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or(root.join("target"), |dir| root.join(PathBuf::from(dir)));
    Ok(target.join("release").join("quicsand"))
}

/// A run's verdict and metrics, as printed on the last line.
struct Outcome {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.errors.is_empty() && self.failed == 0 && self.attempted > 0
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn bench(args: &Args) -> Result<bool, String> {
    let root = std::env::current_dir().map_err(|e| format!("working directory: {e}"))?;
    if !root.join("src/main.rs").is_file() || !root.join("crates").is_dir() {
        return Err("run from the root of a quicsand source tree".into());
    }
    let work = root
        .join(WORK_DIR)
        .join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let result = bench_in(args, &root, &work);
    let _ = std::fs::remove_dir_all(&work);
    let outcome = result?;
    for error in &outcome.errors {
        eprintln!("check failed: {error}");
    }
    println!("{}", outcome.json());
    Ok(outcome.correct())
}

fn bench_in(args: &Args, root: &Path, work: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let cli = build_cli(root)?;

    let mut setup_s = Vec::new();
    let mut inputs: Option<Inputs> = None;
    let mut setup_tracer = Tracer::new(args.seed);
    for _ in 0..SETUP_REPEATS {
        setup_tracer = Tracer::new(args.seed);
        let start = Instant::now();
        let fresh = workload::setup(workload, args.seed, work, &mut setup_tracer)?;
        setup_s.push(start.elapsed().as_secs_f64());
        if let Some(previous) = &inputs {
            if previous.hash != fresh.hash {
                return Err(format!(
                    "seed {} gave different captures between set-ups",
                    args.seed
                ));
            }
        }
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("at least one set-up");
    // Let the captures reach the disk before anything is timed, so page
    // writeback does not run beside the measured processes.
    for capture in &inputs.captures {
        std::fs::File::open(capture)
            .and_then(|file| file.sync_all())
            .map_err(|e| format!("sync {}: {e}", capture.display()))?;
    }
    print_inputs(workload, args.seed, &inputs, &setup_s, &setup_tracer);

    let mut outcome = if args.trace {
        trace_run(args, &cli, &inputs, &setup_tracer, root, work)?
    } else {
        measure_cli(args, &cli, &inputs, work)?
    };
    if !args.trace {
        outcome.metrics.push(("setup_s", median(&setup_s), "s"));
        print_metrics(&outcome.metrics, &BTreeMap::new());
    }
    Ok(outcome)
}

fn print_inputs(workload: Workload, seed: u64, inputs: &Inputs, setup_s: &[f64], setup: &Tracer) {
    println!(
        "workload {} seed {seed}: {} record(s) in {} capture(s), {} bytes, {:.1} B/record, \
         QUIC share {:.3}, {} heavy source(s), capture hash {:#018x}",
        workload.name(),
        inputs.records,
        inputs.captures.len(),
        inputs.bytes,
        inputs.bytes as f64 / inputs.records.max(1) as f64,
        inputs.quic_share,
        inputs.heavy_sources,
        inputs.hash
    );
    let r = &inputs.reference;
    println!(
        "reference (Analysis::run, 1 thread): {} QUIC flood(s) ({} concurrent / {} sequential / \
         {} isolated), {} TCP/ICMP flood(s)",
        r.quic, r.concurrent, r.sequential, r.isolated, r.common
    );
    let times: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "set-up x{}: [{}] s (last: generate {:.1} ms, encode {:.1} ms, reference {:.1} ms)",
        setup_s.len(),
        times.join(", "),
        setup.total_ms("traffic.generate"),
        setup.total_ms("traffic.encode"),
        setup.total_ms("setup.reference")
    );
}

fn print_metrics(metrics: &[(&str, f64, &str)], notes: &BTreeMap<&str, String>) {
    for (name, value, unit) in metrics {
        match notes.get(name) {
            Some(note) => println!("  {name:<28} {note}"),
            None => println!("  {name:<28} {value:>16.4} {unit}"),
        }
    }
}

/// The CLI arguments of one closed-loop invocation.
fn cli_args(workload: Workload, seed: u64, inputs: &Inputs, work: &Path) -> Vec<String> {
    let path = |p: &Path| p.display().to_string();
    let mut args: Vec<String> = match workload {
        Workload::ScanBatch => vec![
            "analyze".into(),
            path(&inputs.captures[0]),
            "--seed".into(),
            seed.to_string(),
            "--threads".into(),
            workload::SCAN_THREADS.to_string(),
        ],
        _ => {
            let mut args = vec!["live".to_string()];
            for capture in &inputs.captures {
                args.push("--input".into());
                args.push(path(capture));
            }
            args.extend([
                "--shards".into(),
                workload::SHARDS.to_string(),
                "--checkpoint-every".into(),
                workload::LIVE_CHECKPOINT_EVERY.to_string(),
            ]);
            args
        }
    };
    args.extend([
        "--events-out".into(),
        path(&work.join("out.qlog")),
        "--metrics-out".into(),
        path(&work.join("out-metrics.json")),
    ]);
    args
}

/// Checks one CLI invocation's outputs; `drop_flood` first removes one
/// flood from its stdout (the checker self-test).
fn check_invocation(
    workload: Workload,
    invocation: &Invocation,
    inputs: &Inputs,
    work: &Path,
    drop_flood: bool,
) -> Result<(), String> {
    if !invocation.success {
        return Err(format!(
            "the CLI failed: {}",
            invocation.stderr.lines().last().unwrap_or("")
        ));
    }
    let qlog = std::fs::read(work.join("out.qlog")).map_err(|e| format!("read qlog: {e}"))?;
    let expected = Expected {
        verdicts: &inputs.reference,
        records: inputs.records,
        feeds: inputs.captures.len(),
    };
    match workload {
        Workload::ScanBatch => {
            let metrics = std::fs::read_to_string(work.join("out-metrics.json"))
                .map_err(|e| format!("read metrics: {e}"))?;
            let stdout = if drop_flood {
                cli::drop_flood_analyze(&invocation.stdout)
            } else {
                invocation.stdout.clone()
            };
            cli::check_analyze(&stdout, &metrics, &qlog, expected)
        }
        _ => {
            let stdout = if drop_flood {
                cli::drop_flood_live(&invocation.stdout)
            } else {
                invocation.stdout.clone()
            };
            cli::check_live(&stdout, &qlog, expected)
        }
    }
}

/// Latency samples of one invocation: every alert line for `live`;
/// for `analyze`, one per QUIC flood at the line that reports them.
fn alert_latencies(workload: Workload, invocation: &Invocation, floods: usize) -> Vec<f64> {
    let lines = invocation.stdout.lines().zip(&invocation.line_times);
    match workload {
        Workload::ScanBatch => lines
            .filter(|(line, _)| line.starts_with("QUIC floods: "))
            .flat_map(|(_, &at)| std::iter::repeat_n(at * 1e3, floods))
            .collect(),
        _ => lines
            .filter(|(line, _)| cli::is_alert_line(line))
            .map(|(_, &at)| at * 1e3)
            .collect(),
    }
}

/// Closed loop: one CLI process at a time until `--seconds` elapse.
fn measure_cli(args: &Args, cli: &Path, inputs: &Inputs, work: &Path) -> Result<Outcome, String> {
    let workload = args.workload;
    let cli_args = cli_args(workload, args.seed, inputs, work);
    let mut deadline = Instant::now();
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let mut timed: Vec<Invocation> = Vec::new();
    let mut warm = false;
    while timed.len() < MIN_INVOCATIONS || Instant::now() < deadline {
        let invocation = cli::run(cli, &cli_args)?;
        outcome.attempted += inputs.records;
        if let Err(e) = check_invocation(workload, &invocation, inputs, work, false) {
            outcome.failed += inputs.records;
            outcome.errors.push(e);
        } else if !warm && check_invocation(workload, &invocation, inputs, work, true).is_ok() {
            outcome
                .errors
                .push("self-test: the checker accepted an output with one flood removed".into());
        }
        // The first process warms the page cache and the binary; it is
        // checked but not timed.
        if !warm {
            warm = true;
            deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
            continue;
        }
        timed.push(invocation);
    }
    let rps: Vec<f64> = timed
        .iter()
        .map(|i| inputs.records as f64 / i.wall_s)
        .collect();
    let latencies: Vec<LatencySummary> = timed
        .iter()
        .map(|i| LatencySummary::of(&alert_latencies(workload, i, inputs.reference.quic)))
        .collect();
    let rss_mb: Vec<f64> = timed
        .iter()
        .map(|i| i.peak_rss_kb as f64 / 1024.0)
        .collect();
    println!(
        "closed loop: {} timed process(es), wall [{}] s; {} alert latency sample(s) per process",
        timed.len(),
        timed
            .iter()
            .map(|i| format!("{:.3}", i.wall_s))
            .collect::<Vec<_>>()
            .join(", "),
        latencies.first().map_or(0, |l| l.samples)
    );
    // The faster quarter of the processes: interference only adds time.
    let throughput = quantile(&rps, 0.75).unwrap_or(0.0);
    outcome.metrics = latency_metrics(throughput, median(&rss_mb), &latencies);
    Ok(outcome)
}

/// The end-to-end metrics other than `setup_s`, in report order.
fn latency_metrics(
    rps: f64,
    rss_mb: f64,
    latencies: &[LatencySummary],
) -> Vec<(&'static str, f64, &'static str)> {
    let (p50, p99) = fast_quartile_latency(latencies);
    let values = [rps, rss_mb, p50, p99];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| (name, value, unit))
        .collect()
}

/// `--trace 1`: one untraced invocation for the wall and products to
/// compare against, then the traced replica; reports every per-layer
/// metric and dumps the spans.
fn trace_run(
    args: &Args,
    cli: &Path,
    inputs: &Inputs,
    setup: &Tracer,
    root: &Path,
    work: &Path,
) -> Result<Outcome, String> {
    let mut outcome = Outcome {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        metrics: Vec::new(),
    };
    let invocation = cli::run(cli, &cli_args(args.workload, args.seed, inputs, work))?;
    outcome.attempted += inputs.records;
    if let Err(e) = check_invocation(args.workload, &invocation, inputs, work, false) {
        outcome.failed += inputs.records;
        outcome.errors.push(format!("untraced run: {e}"));
    }
    println!("untraced wall: {:.3} ms", invocation.wall_s * 1e3);
    let (report, tracer) = traced::run(args.workload, args.seed, inputs, setup, work)?;
    outcome.attempted += report.records;
    if let Some(error) = report.error {
        outcome.failed += report.records;
        outcome.errors.push(format!("traced run: {error}"));
    }
    let dump = root.join(WORK_DIR).join(format!(
        "trace-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    tracer
        .dump(&dump)
        .map_err(|e| format!("write {}: {e}", dump.display()))?;
    let mut notes = BTreeMap::new();
    for (name, unit) in traced::PER_LAYER {
        let value = report.metrics.get(name).copied();
        if value.is_none() {
            notes.insert(*name, "n/a (layer not on this workload's path)".to_string());
        }
        outcome.metrics.push((name, value.unwrap_or(0.0), unit));
    }
    let wall = report.metrics.get("trace_wall_ms").copied().unwrap_or(0.0);
    println!(
        "traced wall {wall:.3} ms = span self time + unattributed ({:.3} ms); {} span(s) -> {}",
        report.accounted_ms,
        tracer.spans().len(),
        dump.display()
    );
    print_metrics(&outcome.metrics, &notes);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names here and in BENCHMARK.json are one list.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let spec: serde::Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            spec.get(key)
                .and_then(serde::Value::as_seq)
                .expect("metric list")
                .iter()
                .map(|m| match m.get("name") {
                    Some(serde::Value::Str(name)) => name.clone(),
                    other => panic!("metric without a name: {other:?}"),
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<String> {
            list.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(names("end_to_end"), ours(END_TO_END));
        assert_eq!(names("per_layer"), ours(traced::PER_LAYER));
    }
}
