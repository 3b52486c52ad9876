//! End-to-end test of the `quicsand` CLI binary: generate → analyze →
//! replay, via real subprocesses and a real capture file.

use std::process::Command;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_quicsand")
}

/// Generates a test-scale capture into `out` (plus any `extra` flags).
fn generate(out: &std::path::Path, extra: &[&str]) {
    let generate = Command::new(bin())
        .args([
            "generate",
            "--out",
            out.to_str().unwrap(),
            "--scale",
            "test",
        ])
        .args(extra)
        .output()
        .expect("run generate");
    assert!(
        generate.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&generate.stderr)
    );
    let stdout = String::from_utf8_lossy(&generate.stdout);
    assert!(stdout.contains("wrote"), "stdout: {stdout}");
    assert!(out.exists());
}

#[test]
fn generate_then_analyze_roundtrip() {
    let dir = std::env::temp_dir().join("quicsand-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("cli.qscp");

    generate(&capture, &[]);

    let pcap = dir.join("cli.pcap");
    let export = Command::new(bin())
        .args([
            "export",
            capture.to_str().unwrap(),
            "--pcap",
            pcap.to_str().unwrap(),
        ])
        .output()
        .expect("run export");
    assert!(
        export.status.success(),
        "export failed: {}",
        String::from_utf8_lossy(&export.stderr)
    );
    let pcap_bytes = std::fs::read(&pcap).unwrap();
    assert_eq!(
        &pcap_bytes[0..4],
        &0xa1b2_c3d4u32.to_le_bytes(),
        "pcap magic"
    );
    std::fs::remove_file(&pcap).unwrap();

    let analyze = Command::new(bin())
        .args(["analyze", capture.to_str().unwrap(), "--threads", "2"])
        .output()
        .expect("run analyze");
    assert!(
        analyze.status.success(),
        "analyze failed: {}",
        String::from_utf8_lossy(&analyze.stderr)
    );
    let stdout = String::from_utf8_lossy(&analyze.stdout);
    assert!(stdout.contains("QUIC floods:"), "stdout: {stdout}");
    assert!(stdout.contains("multi-vector:"), "stdout: {stdout}");
    assert!(stdout.contains("pipeline: 2 thread(s)"), "stdout: {stdout}");

    // The analysis products must not depend on the thread count: the
    // deterministic report lines (everything except the walltime
    // `pipeline:` line) are byte-identical across --threads values.
    let strip = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| !l.starts_with("pipeline:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    for threads in ["1", "8"] {
        let rerun = Command::new(bin())
            .args(["analyze", capture.to_str().unwrap(), "--threads", threads])
            .output()
            .expect("run analyze");
        assert!(rerun.status.success());
        assert_eq!(
            strip(&rerun.stdout),
            strip(&analyze.stdout),
            "--threads {threads} changed the analysis output"
        );
    }

    std::fs::remove_file(&capture).unwrap();
}

#[test]
fn flag_followed_by_flag_is_rejected() {
    // `--out --scale` used to write a capture file literally named
    // `--scale`.
    let output = Command::new(bin())
        .args(["generate", "--out", "--scale", "test"])
        .output()
        .expect("run generate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("--out") && stderr.contains("expects a value"),
        "stderr: {stderr}"
    );
    assert!(!std::path::Path::new("--scale").exists());
}

#[test]
fn flag_missing_value_is_rejected() {
    let output = Command::new(bin())
        .args(["generate", "--out"])
        .output()
        .expect("run generate");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("missing its value"), "stderr: {stderr}");
}

/// A boolean switch takes no value, so a capture path right after one
/// is still the positional argument (`analyze --verbose <capture>` used
/// to fail with "analyze requires a capture path").
#[test]
fn boolean_flag_before_the_capture_path() {
    let dir = std::env::temp_dir().join("quicsand-cli-boolean-flag");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    let header_only = quicsand_net::capture::to_bytes(&[]).unwrap();
    std::fs::write(&empty, header_only).unwrap();
    let path = empty.to_str().unwrap();

    for (args, expect) in [
        (["analyze", "--verbose", path], "pipeline: stages:"),
        (
            ["metrics", "--stable-only", path],
            "quicsand_ingest_records_total 0",
        ),
    ] {
        let output = Command::new(bin()).args(args).output().expect("run cli");
        assert!(
            output.status.success(),
            "{args:?} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(stdout.contains(expect), "{args:?} stdout: {stdout}");
    }

    std::fs::remove_file(&empty).ok();
}

#[test]
fn invalid_threads_is_rejected() {
    let output = Command::new(bin())
        .args(["analyze", "whatever.qscp", "--threads", "0"])
        .output()
        .expect("run analyze");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--threads"), "stderr: {stderr}");
}

#[test]
fn replay_reports_availability() {
    let output = Command::new(bin())
        .args(["replay", "--pps", "1000", "--requests", "20000", "--retry"])
        .output()
        .expect("run replay");
    assert!(output.status.success());
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("availability 100%"), "stdout: {stdout}");
    assert!(stdout.contains("extra-rtt yes"), "stdout: {stdout}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let output = Command::new(bin())
        .arg("frobnicate")
        .output()
        .expect("run binary");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("USAGE"), "stderr: {stderr}");
}

#[test]
fn help_prints_usage() {
    let output = Command::new(bin()).arg("--help").output().expect("run");
    assert!(output.status.success());
    assert!(String::from_utf8_lossy(&output.stdout).contains("USAGE"));
}

#[test]
fn missing_required_flag_fails() {
    let output = Command::new(bin()).arg("generate").output().expect("run");
    assert!(!output.status.success());
    assert!(String::from_utf8_lossy(&output.stderr).contains("--out"));
}

/// Regression: `live` on an empty (0-byte) capture used to hard-fail
/// with a truncation error; an empty feed must be tolerated — drained,
/// counted, and reported as zero records.
#[test]
fn live_tolerates_empty_captures_standalone_and_in_a_set() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let capture = dir.join("live.qscp");
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();

    generate(&capture, &["--seed", "11"]);

    // Standalone empty capture: exits 0 with zero records, no alerts.
    let alone = Command::new(bin())
        .args(["live", empty.to_str().unwrap()])
        .output()
        .expect("run live on empty capture");
    assert!(
        alone.status.success(),
        "live on an empty capture must succeed: {}",
        String::from_utf8_lossy(&alone.stderr)
    );
    let stdout = String::from_utf8_lossy(&alone.stdout);
    assert!(stdout.contains("0 records in"), "stdout: {stdout}");
    assert!(
        stdout.contains("sources: 1 feed(s)") && stdout.contains("1 empty"),
        "stdout: {stdout}"
    );

    // A real feed plus an empty feed: alert lines byte-identical to the
    // single-source run, with the empty feed surfaced in the summary.
    let single = Command::new(bin())
        .args(["live", capture.to_str().unwrap(), "--shards", "2"])
        .output()
        .expect("run single-source live");
    assert!(single.status.success());
    let multi = Command::new(bin())
        .args([
            "live",
            "--input",
            capture.to_str().unwrap(),
            "--input",
            empty.to_str().unwrap(),
            "--shards",
            "2",
        ])
        .output()
        .expect("run multi-source live");
    assert!(
        multi.status.success(),
        "multi-source live failed: {}",
        String::from_utf8_lossy(&multi.stderr)
    );
    let pick_alerts = |out: &[u8]| -> String {
        String::from_utf8_lossy(out)
            .lines()
            .filter(|l| l.starts_with("live:"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        pick_alerts(&single.stdout),
        pick_alerts(&multi.stdout),
        "an empty extra feed must not change any alert"
    );
    let stdout = String::from_utf8_lossy(&multi.stdout);
    assert!(
        stdout.contains("sources: 2 feed(s)") && stdout.contains("1 empty"),
        "stdout: {stdout}"
    );

    std::fs::remove_file(&capture).ok();
    std::fs::remove_file(&empty).ok();
}

/// A zero-event run still writes a *valid* qlog file: header record
/// only, correct RFC 7464 framing — consumers must never special-case
/// "no events".
#[test]
fn events_out_on_a_zero_event_run_is_a_valid_header_only_qlog() {
    let dir = std::env::temp_dir().join("quicsand-cli-events-empty");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    let qlog = dir.join("empty.qlog");
    std::fs::write(&empty, b"").unwrap();

    let live = Command::new(bin())
        .args([
            "live",
            empty.to_str().unwrap(),
            "--events-out",
            qlog.to_str().unwrap(),
        ])
        .output()
        .expect("run live with events-out");
    assert!(
        live.status.success(),
        "live failed: {}",
        String::from_utf8_lossy(&live.stderr)
    );
    let bytes = std::fs::read(&qlog).unwrap();
    assert_eq!(bytes.first(), Some(&0x1Eu8), "RFC 7464 record separator");
    assert_eq!(bytes.last(), Some(&b'\n'), "record terminator");

    let check = Command::new(bin())
        .args(["forensics", "check", qlog.to_str().unwrap()])
        .output()
        .expect("run forensics check");
    assert!(
        check.status.success(),
        "forensics check rejected a header-only qlog: {}",
        String::from_utf8_lossy(&check.stderr)
    );
    let stdout = String::from_utf8_lossy(&check.stdout);
    assert!(
        stdout.contains("1 record(s), 0 event(s)"),
        "stdout: {stdout}"
    );

    std::fs::remove_file(&empty).ok();
    std::fs::remove_file(&qlog).ok();
}

/// `--events-out` pointing at an unwritable path fails up front — before
/// any feed is opened or a single record is pumped.
#[test]
fn events_out_unwritable_path_fails_up_front() {
    let dir = std::env::temp_dir().join("quicsand-cli-events-unwritable");
    std::fs::create_dir_all(&dir).unwrap();
    let empty = dir.join("empty.qscp");
    std::fs::write(&empty, b"").unwrap();

    for command in [
        vec!["live", empty.to_str().unwrap()],
        vec!["analyze", empty.to_str().unwrap()],
    ] {
        let output = Command::new(bin())
            .args(&command)
            .args(["--events-out", "/nonexistent-dir/out.qlog"])
            .output()
            .expect("run with unwritable events-out");
        assert!(
            !output.status.success(),
            "{} must fail on an unwritable --events-out",
            command[0]
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("events-out") && stderr.contains("cannot create"),
            "{} stderr: {stderr}",
            command[0]
        );
    }
    std::fs::remove_file(&empty).ok();
}

/// `--evidence-ring` validates its value like every other numeric flag.
#[test]
fn invalid_evidence_ring_is_rejected() {
    let output = Command::new(bin())
        .args(["live", "whatever.qscp", "--evidence-ring", "0"])
        .output()
        .expect("run live");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--evidence-ring"), "stderr: {stderr}");
}

/// `live` with no capture path at all still fails loudly.
#[test]
fn live_without_any_input_is_rejected() {
    let output = Command::new(bin())
        .args(["live"])
        .output()
        .expect("run live without inputs");
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--input"), "stderr: {stderr}");
}

/// `live --metrics-out` on two feeds with mid-stream checkpoints: the
/// exported counters agree with what the run printed, across every
/// restore.
#[test]
fn live_metrics_out_counters_match_the_run_summary() {
    let dir = std::env::temp_dir().join("quicsand-cli-live-metrics");
    std::fs::create_dir_all(&dir).unwrap();
    let feeds = [dir.join("a.qscp"), dir.join("b.qscp")];
    let metrics = dir.join("m.json");
    for (feed, seed) in feeds.iter().zip(["11", "12"]) {
        generate(feed, &["--seed", seed]);
    }

    let live = Command::new(bin())
        .args([
            "live",
            "--input",
            feeds[0].to_str().unwrap(),
            "--input",
            feeds[1].to_str().unwrap(),
            "--shards",
            "2",
            "--checkpoint-every",
            "150000",
            "--metrics-out",
            metrics.to_str().unwrap(),
        ])
        .output()
        .expect("run live");
    assert!(
        live.status.success(),
        "live failed: {}",
        String::from_utf8_lossy(&live.stderr)
    );
    let stdout = String::from_utf8_lossy(&live.stdout).into_owned();
    // The number right before `marker` on the first line holding it.
    let number_before = |marker: &str| -> u64 {
        let line = stdout
            .lines()
            .find(|l| l.starts_with("live:") && l.contains(marker))
            .unwrap_or_else(|| panic!("no `{marker}` in stdout: {stdout}"));
        let head = &line[..line.find(marker).unwrap()];
        let word = head.split([' ', ',', '/']).rfind(|w| !w.is_empty());
        word.and_then(|w| w.parse().ok())
            .unwrap_or_else(|| panic!("no count before `{marker}` in `{line}`"))
    };

    // The canonical JSON exposition holds one series per line.
    let json = std::fs::read_to_string(&metrics).unwrap();
    let values = |name: &str, label: &str| -> Vec<u64> {
        let name = format!("\"name\": \"{name}\",");
        json.lines()
            .filter(|l| l.contains(&name) && l.contains(label))
            .map(|l| {
                let value = &l[l.find("\"value\": ").expect("counter or gauge") + 9..];
                value.trim_end_matches([',', '}']).parse().unwrap()
            })
            .collect()
    };

    let checkpoints = number_before(" checkpoint(s) verified");
    assert!(checkpoints >= 2, "stdout: {stdout}");
    assert_eq!(values("quicsand_live_checkpoints_total", ""), [checkpoints]);
    let bytes = values("quicsand_live_checkpoint_bytes_total", "");
    assert!(
        matches!(bytes[..], [b] if b > 0),
        "checkpoint bytes {bytes:?}"
    );

    let per_feed = values("quicsand_source_records_total", "");
    assert_eq!(per_feed.len(), 2);
    assert_eq!(per_feed.iter().sum::<u64>(), number_before(" records in"));

    for phase in ["opened", "escalated", "closed", "reclassified"] {
        let label = format!("\"phase\": \"{phase}\"");
        assert_eq!(
            values("quicsand_live_alerts_total", &label),
            [number_before(&format!(" {phase}"))],
        );
    }

    for path in feeds.iter().chain([&metrics]) {
        std::fs::remove_file(path).ok();
    }
}
