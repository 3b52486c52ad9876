#!/usr/bin/env bash
# Offline CI gate: build, test, format, lint.
#
#   scripts/ci.sh              # everything (what a PR must pass)
#   scripts/ci.sh --quick      # skip the release build, run debug tests only
#   scripts/ci.sh bench-smoke  # only the benchmark-regression gate
#   scripts/ci.sh scale-smoke  # only the medium-tier streaming ladder gate
#   scripts/ci.sh scale-smoke-large
#                              # opt-in large tier (10M records); no-op
#                              # unless QUICSAND_BENCH_SCALE=large
#   scripts/ci.sh events-smoke # only the qlog export + forensic replay gate
#   scripts/ci.sh scenario-smoke
#                              # only the post-2021 scenario-tier gate
#
# The repo vendors all third-party dependencies (vendor/), so this runs
# without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

bench_smoke() {
  # Benchmark-regression gate: run the two bench binaries on the small
  # deterministic workload, validate the schema of the fresh
  # BENCH_*.json reports, and compare them against the committed
  # baselines (default tolerance 20%; QUICSAND_BENCH_TOLERANCE
  # overrides, QUICSAND_BENCH_SKIP_COMPARE=1 validates schema only —
  # for hosts not comparable to the baseline machine).
  echo "==> bench-smoke: BENCH_*.json regression gate"
  local bench_dir
  bench_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$bench_dir'" RETURN
  for bench in shard_scaling live_throughput multi_source; do
    # shard_scaling additionally carries an absolute ingest-stage floor
    # (records / median ingest walltime at 1 thread): the zero-copy
    # decode path must stay >= 3x the pre-zero-copy baseline of ~785k
    # rec/s, regardless of the relative tolerance.
    floor_args=()
    [[ "$bench" == "shard_scaling" ]] && floor_args=(--ingest-floor-rps 2360000)
    # The multi_source report comes from the multi_source_throughput
    # bin (4-source/1-shard reference configuration).
    bin="$bench"
    [[ "$bench" == "multi_source" ]] && bin="multi_source_throughput"
    # Up to 3 attempts: on a shared single-core runner one run can be
    # inflated severalfold by unrelated load, so a gate failure is only
    # real if no attempt passes.
    attempts=3
    for attempt in $(seq 1 $attempts); do
      QUICSAND_SCALE=test QUICSAND_BENCH_DIR="$bench_dir" \
        cargo run -q --release -p quicsand-bench --bin "$bin" >/dev/null
      cargo run -q --release -p quicsand-bench --bin bench_compare -- \
        --validate "BENCH_$bench.json" "$bench_dir/BENCH_$bench.json"
      if [[ "${QUICSAND_BENCH_SKIP_COMPARE:-0}" == "1" ]]; then
        break
      fi
      if cargo run -q --release -p quicsand-bench --bin bench_compare -- \
        --baseline "BENCH_$bench.json" --current "$bench_dir/BENCH_$bench.json" \
        "${floor_args[@]}"; then
        break
      elif [[ "$attempt" -eq "$attempts" ]]; then
        echo "bench-smoke: $bench failed the gate on all $attempts attempts" >&2
        exit 1
      else
        echo "bench-smoke: $bench attempt $attempt failed; retrying (noisy runner?)" >&2
      fi
    done
  done
  echo "bench-smoke: baselines validated, no regression beyond tolerance — OK"
}

scale_tier() {
  # Streaming scale-ladder gate at one tier (records generated lazily —
  # the trace is never materialized, so memory stays constant) through
  # multi_source_throughput and shard_scaling. The multi-source run
  # additionally asserts the fan-in tax: 4-source wall time must stay
  # within 1.5x of single-source. Fresh per-tier reports are
  # schema-validated and gated against the committed
  # BENCH_<name>@<tier>.json baselines (same tolerance/skip knobs as
  # bench-smoke).
  local tier="$1" label="$2"
  echo "==> scale-smoke: $tier-tier streaming ladder ($label)"
  local scale_dir
  scale_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$scale_dir'" RETURN
  for bench in multi_source shard_scaling; do
    bin="$bench"
    [[ "$bench" == "multi_source" ]] && bin="multi_source_throughput"
    ratio_env=()
    [[ "$bench" == "multi_source" ]] && ratio_env=(QUICSAND_MULTI_RATIO_MAX=1.5)
    attempts=3
    for attempt in $(seq 1 $attempts); do
      # The ratio assertion lives inside the bin, so a noisy-runner
      # violation also lands in the retry loop instead of hard-failing.
      if ! env "${ratio_env[@]}" QUICSAND_BENCH_SCALE="$tier" \
        QUICSAND_BENCH_DIR="$scale_dir" \
        cargo run -q --release -p quicsand-bench --bin "$bin" >/dev/null; then
        if [[ "$attempt" -eq "$attempts" ]]; then
          echo "scale-smoke: $bench run failed on all $attempts attempts" >&2
          exit 1
        fi
        echo "scale-smoke: $bench attempt $attempt failed; retrying (noisy runner?)" >&2
        continue
      fi
      cargo run -q --release -p quicsand-bench --bin bench_compare -- \
        --validate "BENCH_$bench@$tier.json" "$scale_dir/BENCH_$bench@$tier.json"
      if [[ "${QUICSAND_BENCH_SKIP_COMPARE:-0}" == "1" ]]; then
        break
      fi
      if cargo run -q --release -p quicsand-bench --bin bench_compare -- \
        --baseline "BENCH_$bench@$tier.json" \
        --current "$scale_dir/BENCH_$bench@$tier.json"; then
        break
      elif [[ "$attempt" -eq "$attempts" ]]; then
        echo "scale-smoke: $bench failed the gate on all $attempts attempts" >&2
        exit 1
      else
        echo "scale-smoke: $bench attempt $attempt failed; retrying (noisy runner?)" >&2
      fi
    done
  done
  echo "scale-smoke: $tier tier streamed in constant memory, fan-in ratio <= 1.5x — OK"
}

scale_smoke() {
  scale_tier medium "1M records"
}

scale_smoke_large() {
  # The large rung (10M records) is opt-in: it takes long enough that
  # it only runs when the environment explicitly asks for it.
  if [[ "${QUICSAND_BENCH_SCALE:-}" != "large" ]]; then
    echo "scale-smoke-large: skipped (set QUICSAND_BENCH_SCALE=large to opt in)"
    return 0
  fi
  scale_tier large "10M records"
}

events_smoke() {
  # Typed-event export gate: emit the qlog event stream on a reference
  # trace, validate the RFC 7464 JSON-SEQ framing, then export every
  # closed alert as a forensic slice and replay each through a fresh
  # detector (--replay hard-fails on any verdict divergence). The
  # bench lanes gate the complementary claim: the no-subscriber path
  # the bench bins run must stay within bench_compare tolerances, so
  # event emission costs nothing when nobody listens.
  echo "==> events-smoke: qlog export + forensic replay gate"
  local events_dir profile
  profile="${profile_flag---release}"
  events_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$events_dir'" RETURN
  cargo run -q $profile -- generate --out "$events_dir/ref.qscp" --scale test --seed 7
  events_out="$(cargo run -q $profile -- live "$events_dir/ref.qscp" \
    --shards 2 --events-out "$events_dir/ref.qlog" 2>&1)"
  echo "$events_out" | grep -qE '^events: [1-9][0-9]* event\(s\)' || {
    echo "events-smoke: live --events-out reported no events" >&2
    echo "$events_out" | tail -5 >&2
    exit 1
  }
  cargo run -q $profile -- forensics check "$events_dir/ref.qlog" \
    | grep -q 'valid qlog JSON-SEQ' || {
    echo "events-smoke: exported qlog failed framing validation" >&2
    exit 1
  }
  # Batch parity: analyze emits its events from the sharded run itself,
  # so the stream must be byte-identical at any --threads.
  for threads in 1 2; do
    cargo run -q $profile -- analyze "$events_dir/ref.qscp" --threads "$threads" \
      --events-out "$events_dir/analyze-$threads.qlog" >/dev/null
  done
  cmp "$events_dir/analyze-1.qlog" "$events_dir/analyze-2.qlog" || {
    echo "events-smoke: analyze --events-out differs between --threads 1 and 2" >&2
    exit 1
  }
  cargo run -q $profile -- forensics check "$events_dir/analyze-2.qlog" \
    | grep -q 'valid qlog JSON-SEQ' || {
    echo "events-smoke: analyze qlog failed framing validation" >&2
    exit 1
  }
  forensics_out="$(cargo run -q $profile -- forensics "$events_dir/ref.qscp" \
    --out "$events_dir/slices" --replay 2>&1)"
  echo "$forensics_out" | grep -qE '^forensics: [1-9][0-9]* alert slice\(s\) exported' || {
    echo "events-smoke: no alert slices exported" >&2
    echo "$forensics_out" | tail -5 >&2
    exit 1
  }
  echo "$forensics_out" | grep -qE '[1-9][0-9]* replay\(s\) verified' || {
    echo "events-smoke: replays did not verify" >&2
    echo "$forensics_out" | tail -5 >&2
    exit 1
  }
  # One slice is itself a valid JSON-SEQ document.
  first_slice="$(find "$events_dir/slices" -name 'alert-*.qlog' | sort | head -1)"
  cargo run -q $profile -- forensics check "$first_slice" >/dev/null
  echo "events-smoke: qlog framing valid, batch events thread-invariant, every closed alert replayed — OK"
}

scenario_smoke() {
  # Post-2021 scenario-tier gate: every ScenarioKind must generate,
  # analyze, stream shard-invariantly through the live engine, and
  # export a framing-valid qlog event stream — the CLI face of the
  # conformance suite in tests/scenarios.rs (which pins the goldens
  # and the full {1,2,8}-shard alert equivalence).
  echo "==> scenario-smoke: post-2021 scenario tier end-to-end gate"
  local scenario_dir profile kind one two
  profile="${profile_flag---release}"
  scenario_dir="$(mktemp -d)"
  # shellcheck disable=SC2064
  trap "rm -rf '$scenario_dir'" RETURN
  for kind in migration-abuse evolving-scanners version-drift retry-amplification; do
    echo "==> scenario-smoke: $kind"
    cargo run -q $profile -- generate --out "$scenario_dir/$kind.qscp" \
      --scale test --seed 7 --scenario "$kind"
    cargo run -q $profile -- analyze "$scenario_dir/$kind.qscp" \
      >"$scenario_dir/$kind.analyze"
    grep -qE '^QUIC floods: [1-9]' "$scenario_dir/$kind.analyze" || {
      echo "scenario-smoke: $kind analysis reported no QUIC floods" >&2
      tail -5 "$scenario_dir/$kind.analyze" >&2
      exit 1
    }
    one="$(cargo run -q $profile -- live "$scenario_dir/$kind.qscp" --shards 1 \
      | grep -E '^live: [0-9]+ QUIC flood')"
    two="$(cargo run -q $profile -- live "$scenario_dir/$kind.qscp" --shards 2 \
      --events-out "$scenario_dir/$kind.qlog" 2>/dev/null \
      | grep -E '^live: [0-9]+ QUIC flood')"
    [[ "$one" == "$two" ]] || {
      echo "scenario-smoke: $kind live summary diverges across shard counts" >&2
      echo "  shards=1: $one" >&2
      echo "  shards=2: $two" >&2
      exit 1
    }
    cargo run -q $profile -- forensics check "$scenario_dir/$kind.qlog" \
      | grep -q 'valid qlog JSON-SEQ' || {
      echo "scenario-smoke: $kind exported qlog failed framing validation" >&2
      exit 1
    }
  done
  echo "scenario-smoke: all 4 kinds generate, analyze, stream shard-invariantly, export valid qlog — OK"
}

if [[ "${1:-}" == "bench-smoke" ]]; then
  bench_smoke
  exit 0
fi

if [[ "${1:-}" == "scale-smoke" ]]; then
  scale_smoke
  exit 0
fi

if [[ "${1:-}" == "scale-smoke-large" ]]; then
  scale_smoke_large
  exit 0
fi

if [[ "${1:-}" == "events-smoke" ]]; then
  events_smoke
  exit 0
fi

if [[ "${1:-}" == "scenario-smoke" ]]; then
  scenario_smoke
  exit 0
fi

quick=0
[[ "${1:-}" == "--quick" ]] && quick=1

echo "==> cargo fmt --check"
cargo fmt --all --check

if [[ $quick -eq 0 ]]; then
  echo "==> cargo build --release --workspace"
  cargo build --release --workspace
  echo "==> cargo test -q --release --workspace"
  cargo test -q --release --workspace
else
  echo "==> cargo test -q --workspace"
  cargo test -q --workspace
fi

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy (ingest crates, zero-copy strict lane)"
# The capture/dissect path is the zero-copy hot loop: a reintroduced
# clone or by-value pass is a silent perf regression, so those lints
# are hard errors here.
cargo clippy -p quicsand-net -p quicsand-dissect --all-targets -- \
  -D warnings -D clippy::redundant_clone -D clippy::needless_pass_by_value

echo "==> cargo doc (broken intra-doc links are errors)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
  cargo doc --workspace --no-deps --keep-going

echo "==> golden-figure regression suite"
if [[ $quick -eq 0 ]]; then
  cargo test -q --release --test golden
else
  cargo test -q --test golden
fi

echo "==> faulted-smoke: CLI under the standard fault profile"
# The pipeline must survive a seeded adversarial fault mix (exit 0) and
# visibly quarantine it (nonzero per-kind counters in the breakdown).
profile_flag=""
[[ $quick -eq 0 ]] && profile_flag="--release"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
cargo run -q $profile_flag -- generate --out "$smoke_dir/smoke.qscp" --scale test --seed 7
smoke_out="$(cargo run -q $profile_flag -- analyze "$smoke_dir/smoke.qscp" \
  --scale test --seed 7 --fault-profile standard --fault-seed 7 2>&1)"
echo "$smoke_out" | grep -E '^quarantine: ' || {
  echo "faulted-smoke: no quarantine breakdown in output" >&2
  echo "$smoke_out" >&2
  exit 1
}
quarantined="$(echo "$smoke_out" | sed -n 's/.* \([0-9][0-9]*\) quarantined$/\1/p')"
if [[ -z "$quarantined" || "$quarantined" -eq 0 ]]; then
  echo "faulted-smoke: expected nonzero quarantine count, got '${quarantined:-none}'" >&2
  exit 1
fi
echo "faulted-smoke: $quarantined records quarantined, exit 0 — OK"
# A capture cut mid-record is a typed error at the CLI, never a
# silently shortened run: exit 1 with the reader's `truncated record`.
head -c -3 "$smoke_dir/smoke.qscp" > "$smoke_dir/cut.qscp"
cut_status=0
cut_err="$(cargo run -q $profile_flag -- analyze "$smoke_dir/cut.qscp" 2>&1 >/dev/null)" ||
  cut_status=$?
if [[ "$cut_status" -ne 1 ]] || ! grep -q 'truncated record' <<<"$cut_err"; then
  echo "faulted-smoke: cut capture must exit 1 with 'truncated record'," \
    "got exit $cut_status: $cut_err" >&2
  exit 1
fi
echo "faulted-smoke: capture cut by 3 bytes rejected (exit 1, truncated record) — OK"

echo "==> live-smoke: streaming engine over the same capture"
# The live engine must stream the capture cleanly (exit 0), emit at
# least one closed alert, and self-verify a mid-stream JSON checkpoint.
live_out="$(cargo run -q $profile_flag -- live "$smoke_dir/smoke.qscp" \
  --shards 2 --chunk 2048 --checkpoint-every 100000 2>&1)"
echo "$live_out" | grep -q ' CLOSE ' || {
  echo "live-smoke: no CLOSE alert in output" >&2
  echo "$live_out" | tail -20 >&2
  exit 1
}
echo "$live_out" | grep -E '^live: .* checkpoint\(s\) verified$' | grep -qv ' 0 checkpoint(s)' || {
  echo "live-smoke: checkpoint self-verification did not run" >&2
  echo "$live_out" | tail -5 >&2
  exit 1
}
closes="$(echo "$live_out" | grep -c ' CLOSE ')"
echo "live-smoke: $closes closed alert(s), checkpoints verified, exit 0 — OK"

echo "==> multi-source-smoke: the same capture through the multiplexer"
# Splitting the ingest across feeds must be invisible: the same capture
# plus an empty feed yields exactly the live-smoke alert count, the
# per-feed summary reports both feeds (one empty), and the v2
# checkpoint still self-verifies.
: > "$smoke_dir/empty.qscp"
multi_out="$(cargo run -q $profile_flag -- live \
  --input "$smoke_dir/smoke.qscp" --input "$smoke_dir/empty.qscp" \
  --shards 2 --chunk 2048 --checkpoint-every 100000 2>&1)"
multi_closes="$(echo "$multi_out" | grep -c ' CLOSE ')"
if [[ "$multi_closes" -ne "$closes" ]]; then
  echo "multi-source-smoke: $multi_closes closed alert(s), expected $closes" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
fi
echo "$multi_out" | grep -q '^sources: 2 feed' || {
  echo "multi-source-smoke: per-feed summary missing" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
}
echo "$multi_out" | grep -E '^live: .* checkpoint\(s\) verified$' | grep -qv ' 0 checkpoint(s)' || {
  echo "multi-source-smoke: checkpoint self-verification did not run" >&2
  echo "$multi_out" | tail -5 >&2
  exit 1
}
echo "multi-source-smoke: $multi_closes closed alert(s) across 2 feeds, checkpoints verified — OK"

echo "==> metrics-smoke: exposition + reconciliation on the same capture"
# `quicsand metrics` re-runs the pipeline with the exported counters
# verified against the stats structs (a mismatch exits nonzero), and
# the Prometheus rendering must carry the core families.
metrics_out="$(cargo run -q $profile_flag -- metrics "$smoke_dir/smoke.qscp" \
  --scale test --seed 7 --threads 2 2>/dev/null)"
for family in quicsand_ingest_records_total quicsand_detect_attacks_total \
              quicsand_sessions_opened_total quicsand_stage_walltime_micros; do
  echo "$metrics_out" | grep -q "^$family" || {
    echo "metrics-smoke: family $family missing from exposition" >&2
    exit 1
  }
done
echo "metrics-smoke: exposition complete, counters reconcile, exit 0 — OK"

events_smoke

if [[ $quick -eq 0 ]]; then
  bench_smoke
  scale_smoke
  scale_smoke_large
else
  echo "==> bench-smoke skipped (--quick)"
  echo "==> scale-smoke skipped (--quick)"
fi

echo "CI green."
