//! Runs the `quicsand` CLI as a child process and checks its outputs.
//!
//! Wall time runs from spawn to exit. Peak memory is the child's
//! `VmHWM`, polled from `/proc/<pid>/status` while it runs. Every
//! stdout line is stamped with the time it was read, which gives each
//! reported alert its latency from spawn.

use crate::workload::Verdicts;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the child's `VmHWM` is read.
const RSS_POLL: Duration = Duration::from_millis(10);

/// One finished child process.
#[derive(Debug, Clone)]
pub struct Invocation {
    pub wall_s: f64,
    pub peak_rss_kb: u64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
    /// Seconds from spawn at which each stdout line was read.
    pub line_times: Vec<f64>,
}

fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Runs `program args…` to completion.
pub fn run(program: &Path, args: &[String]) -> Result<Invocation, String> {
    let start = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", program.display()))?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let done = Arc::new(AtomicBool::new(false));
    let (status, wall_s, peak_rss_kb, lines, stderr) = std::thread::scope(|scope| {
        let out_reader = scope.spawn(move || {
            let mut lines = Vec::new();
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                lines.push((start.elapsed().as_secs_f64(), line));
            }
            lines
        });
        let err_reader = scope.spawn(move || {
            let mut text = String::new();
            let _ = stderr.read_to_string(&mut text);
            text
        });
        let waiter = {
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let status = child.wait();
                let wall = start.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                (status, wall)
            })
        };
        let mut peak = 0u64;
        while !done.load(Ordering::SeqCst) {
            if let Some(kb) = vm_hwm_kb(pid) {
                peak = peak.max(kb);
            }
            std::thread::sleep(RSS_POLL);
        }
        let (status, wall) = waiter.join().expect("waiter thread");
        let lines = out_reader.join().expect("stdout reader thread");
        let stderr = err_reader.join().expect("stderr reader thread");
        (status, wall, peak, lines, stderr)
    });
    let status = status.map_err(|e| format!("wait for {}: {e}", program.display()))?;
    let (line_times, text): (Vec<f64>, Vec<String>) = lines.into_iter().unzip();
    Ok(Invocation {
        wall_s,
        peak_rss_kb,
        success: status.success(),
        stdout: text.join("\n"),
        stderr,
        line_times,
    })
}

/// The whole number that follows `prefix` in `text`.
fn number_after(text: &str, prefix: &str) -> Option<u64> {
    let rest = &text[text.find(prefix)? + prefix.len()..];
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// A counter's value in a `--metrics-out` canonical-JSON dump,
/// selected by name and one label.
pub fn metric_value(metrics_json: &str, name: &str, label: (&str, &str)) -> Option<u64> {
    let root: serde::Value = serde_json::from_str(metrics_json).ok()?;
    root.get("metrics")?.as_seq()?.iter().find_map(|metric| {
        let named = matches!(metric.get("name"), Some(serde::Value::Str(n)) if n == name);
        let labelled = label.0.is_empty()
            || matches!(metric.get("labels")?.get(label.0), Some(serde::Value::Str(v)) if v == label.1);
        match metric.get("value") {
            Some(serde::Value::U64(value)) if named && labelled => Some(*value),
            _ => None,
        }
    })
}

/// What one CLI run must have produced.
#[derive(Debug, Clone, Copy)]
pub struct Expected<'a> {
    pub verdicts: &'a Verdicts,
    pub records: u64,
    pub feeds: usize,
}

/// Checks an `analyze` run: record conservation, the QUIC-flood count
/// and multi-vector shares on stdout, the TCP/ICMP flood count in the
/// metrics dump, and the qlog framing.
pub fn check_analyze(
    stdout: &str,
    metrics_json: &str,
    qlog: &[u8],
    expected: Expected<'_>,
) -> Result<(), String> {
    let ingested = metric_value(metrics_json, "quicsand_ingest_records_total", ("", ""));
    if ingested != Some(expected.records) {
        return Err(format!(
            "records not conserved: ingested {ingested:?}, capture holds {}",
            expected.records
        ));
    }
    let reference = expected.verdicts;
    let quic = number_after(stdout, "QUIC floods: ");
    if quic != Some(reference.quic as u64) {
        return Err(format!(
            "QUIC floods {quic:?}, reference {}",
            reference.quic
        ));
    }
    if !stdout.lines().any(|line| line == reference.share_line()) {
        return Err(format!(
            "multi-vector shares differ from reference `{}`",
            reference.share_line()
        ));
    }
    let common = metric_value(
        metrics_json,
        "quicsand_detect_attacks_total",
        ("protocol", "tcp_icmp"),
    );
    if common != Some(reference.common as u64) {
        return Err(format!(
            "TCP/ICMP floods {common:?}, reference {}",
            reference.common
        ));
    }
    quicsand_events::qlog::validate_qlog(qlog).map_err(|e| format!("qlog: {e}"))?;
    Ok(())
}

/// Checks a `live` run: record conservation, every feed drained, the
/// closed-flood counts and classes against the reference, one CLOSE
/// line per closed flood, at least one verified checkpoint, and the
/// qlog framing.
pub fn check_live(stdout: &str, qlog: &[u8], expected: Expected<'_>) -> Result<(), String> {
    let offered = number_after(stdout, "live: ");
    if offered != Some(expected.records) {
        return Err(format!(
            "records not conserved: offered {offered:?}, captures hold {}",
            expected.records
        ));
    }
    let sources = format!(
        "sources: {} feed(s), {} record(s) merged, 0 reconnect(s), 0 abandoned, 0 empty",
        expected.feeds, expected.records
    );
    if !stdout.lines().any(|line| line == sources) {
        return Err(format!("source summary is not `{sources}`"));
    }
    let reference = expected.verdicts;
    let summary = format!(
        "live: {} QUIC flood(s) ({} concurrent / {} sequential / {} isolated), {} TCP/ICMP flood(s), ",
        reference.quic,
        reference.concurrent,
        reference.sequential,
        reference.isolated,
        reference.common
    );
    let Some(line) = stdout.lines().find(|line| line.starts_with(&summary)) else {
        return Err(format!("flood summary does not start with `{summary}`"));
    };
    if number_after(line, &summary).unwrap_or(0) == 0 {
        return Err("no checkpoint was verified".into());
    }
    let closes = stdout
        .lines()
        .filter(|line| line.starts_with('[') && line.contains("] CLOSE "))
        .count();
    if closes != reference.quic + reference.common {
        return Err(format!(
            "{closes} CLOSE line(s), reference {} flood(s)",
            reference.quic + reference.common
        ));
    }
    quicsand_events::qlog::validate_qlog(qlog).map_err(|e| format!("qlog: {e}"))?;
    Ok(())
}

/// `analyze` stdout with one QUIC flood removed from its report.
pub fn drop_flood_analyze(stdout: &str) -> String {
    let floods = number_after(stdout, "QUIC floods: ").unwrap_or(0);
    stdout.replacen(
        &format!("QUIC floods: {floods} "),
        &format!("QUIC floods: {} ", floods.saturating_sub(1)),
        1,
    )
}

/// `live` stdout with one closed QUIC flood's CLOSE line removed.
pub fn drop_flood_live(stdout: &str) -> String {
    let mut dropped = false;
    stdout
        .lines()
        .filter(|line| {
            let hit = !dropped && line.starts_with('[') && line.contains("] CLOSE      QUIC ");
            dropped |= hit;
            !hit
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// The alert lines of a `live` run (lifecycle events, one per line).
pub fn is_alert_line(line: &str) -> bool {
    line.starts_with('[')
}

#[cfg(test)]
mod tests {
    use super::*;

    const METRICS: &str = r#"{"schema": "quicsand.metrics/v1", "metrics": [
        {"name": "quicsand_detect_attacks_total", "kind": "counter", "stability": "stable", "labels": {"protocol": "quic"}, "value": 2},
        {"name": "quicsand_detect_attacks_total", "kind": "counter", "stability": "stable", "labels": {"protocol": "tcp_icmp"}, "value": 5},
        {"name": "quicsand_ingest_records_total", "kind": "counter", "stability": "stable", "labels": {}, "value": 100}]}"#;

    fn verdicts() -> Verdicts {
        Verdicts {
            quic: 2,
            concurrent: 1,
            sequential: 1,
            isolated: 0,
            common: 5,
        }
    }

    fn qlog() -> Vec<u8> {
        let (writer, buffer) =
            quicsand_events::qlog::QlogWriter::to_buffer("t", &["a".to_string()]).unwrap();
        writer.finish().unwrap();
        buffer.contents()
    }

    #[test]
    fn analyze_checker_rejects_a_missing_flood() {
        let stdout = "QUIC floods: 2 against 2 victims (median 1s, median 1.00 max pps)\n\
                      multi-vector: 50% concurrent / 50% sequential / 0% isolated (of 2 QUIC floods)";
        let reference = verdicts();
        let expected = Expected {
            verdicts: &reference,
            records: 100,
            feeds: 1,
        };
        assert_eq!(check_analyze(stdout, METRICS, &qlog(), expected), Ok(()));
        let broken = drop_flood_analyze(stdout);
        assert!(check_analyze(&broken, METRICS, &qlog(), expected).is_err());
    }

    #[test]
    fn live_checker_rejects_a_missing_flood() {
        let mut lines = vec![
            "[       1.000] CLOSE      QUIC     victim=1.1.1.1 class=concurrent".to_string(),
            "[       2.000] CLOSE      QUIC     victim=1.1.1.2 class=sequential".to_string(),
        ];
        for i in 0..5 {
            lines.push(format!(
                "[       3.000] CLOSE      TCP/ICMP victim=2.2.2.{i}"
            ));
        }
        lines.push("live: 100 records in, 7 opened / 0 escalated / 7 closed".into());
        lines.push(
            "live: 2 QUIC flood(s) (1 concurrent / 1 sequential / 0 isolated), \
             5 TCP/ICMP flood(s), 1 checkpoint(s) verified"
                .into(),
        );
        lines.push(
            "sources: 2 feed(s), 100 record(s) merged, 0 reconnect(s), 0 abandoned, 0 empty".into(),
        );
        let stdout = lines.join("\n");
        let reference = verdicts();
        let expected = Expected {
            verdicts: &reference,
            records: 100,
            feeds: 2,
        };
        assert_eq!(check_live(&stdout, &qlog(), expected), Ok(()));
        assert!(check_live(&drop_flood_live(&stdout), &qlog(), expected).is_err());
    }

    #[test]
    fn metric_lookup_matches_name_and_label() {
        assert_eq!(
            metric_value(
                METRICS,
                "quicsand_detect_attacks_total",
                ("protocol", "tcp_icmp")
            ),
            Some(5)
        );
        assert_eq!(
            metric_value(METRICS, "quicsand_ingest_records_total", ("", "")),
            Some(100)
        );
        assert_eq!(metric_value(METRICS, "missing", ("", "")), None);
    }
}
