//! Differential tests for the capture reader: a capture written with
//! `to_bytes` must decode to exactly the records written — over both
//! the adversarial dissection corpus and large faulted streams — with
//! downstream quarantine accounting equal to the sequential pipeline's
//! over the written records at every shard count, and a cut capture
//! must fail with the explicit typed error.

use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_dissect::corpus::{adversarial_corpus, assert_expected};
use quicsand_dissect::dissect_udp_payload;
use quicsand_faults::{FaultPlan, FaultProfile};
use quicsand_live::{LiveConfig, LiveEngine};
use quicsand_net::capture::{to_bytes, CaptureError};
use quicsand_net::zerocopy::ZeroCopyCaptureReader;
use quicsand_net::{PacketRecord, Timestamp};
use quicsand_telescope::{GuardConfig, IngestStats, TelescopePipeline};
use std::net::Ipv4Addr;

fn decode_zero(bytes: &[u8]) -> Result<Vec<PacketRecord>, CaptureError> {
    ZeroCopyCaptureReader::from_bytes(bytes.to_vec())?.read_to_end()
}

/// The sequential reference: one pipeline over the written records.
fn sequential_ingest(records: &[PacketRecord], guard: GuardConfig) -> IngestStats {
    let mut pipeline = TelescopePipeline::with_guard(guard);
    pipeline.ingest_all(records);
    pipeline.finish().2
}

/// Merged ingest counters of the source-sharded live engine.
fn sharded_ingest(records: &[PacketRecord], guard: GuardConfig, shards: usize) -> IngestStats {
    let mut engine = LiveEngine::new(LiveConfig::default(), guard, shards);
    engine.offer_chunk(records);
    engine.ingest_stats()
}

/// One UDP record per corpus entry: a hostile payload arriving at the
/// telescope on the QUIC port, each from its own source.
fn corpus_records() -> Vec<PacketRecord> {
    adversarial_corpus()
        .into_iter()
        .enumerate()
        .map(|(i, entry)| {
            PacketRecord::udp(
                Timestamp::from_micros(1_000 + i as u64),
                Ipv4Addr::new(10, 99, (i / 256) as u8, (i % 256) as u8),
                Ipv4Addr::new(128, 0, 0, 7),
                40_000 + i as u16,
                443,
                entry.payload.into(),
            )
        })
        .collect()
}

/// The corpus replayed through the capture layer: the reader decodes
/// the written records, the arena-backed payload slices dissect to the
/// typed outcome each corpus entry expects, and sharded ingest of the
/// decoded records agrees with the sequential reference at 1/2/8 shards.
#[test]
fn corpus_capture_decodes_to_the_written_records() {
    let records = corpus_records();
    let bytes = to_bytes(&records).unwrap();
    let zero = decode_zero(&bytes).unwrap();
    assert_eq!(zero, records);

    // Typed dissection outcomes over the zero-copy payload views.
    for (record, entry) in zero.iter().zip(adversarial_corpus()) {
        let payload = record.udp_payload().expect("corpus records are UDP");
        let result = dissect_udp_payload(payload);
        assert_expected(entry.name, entry.expect, &result);
    }

    // Downstream quarantine accounting of the decoded records equals
    // the sequential pipeline's over the written ones.
    let guard = GuardConfig::default();
    let reference = sequential_ingest(&records, guard);
    for shards in [1usize, 2, 8] {
        let stats = sharded_ingest(&zero, guard, shards);
        assert_eq!(stats, reference, "stats differ at {shards} shard(s)");
    }
}

/// A 20k-record faulted stream round-trips byte-identically and
/// produces the reference quarantine counters and analysis products at
/// every shard count; cuts fail with the typed error.
#[test]
fn faulted_20k_stream_decodes_to_the_written_records() {
    let mut scenario =
        quicsand_traffic::Scenario::generate(&quicsand_traffic::ScenarioConfig::test());
    let clean: Vec<PacketRecord> = scenario.records.iter().take(20_000).cloned().collect();
    assert!(clean.len() >= 20_000, "need the full record volume");

    let profile = FaultProfile::standard();
    let guard = profile.guard;
    let mut plan = FaultPlan::new(profile, 0xD1FF);
    let faulted = plan.apply_all(&clean);

    let bytes = to_bytes(&faulted).unwrap();
    let zero = decode_zero(&bytes).unwrap();
    assert_eq!(zero, faulted, "the reader must round-trip the stream");

    let reference = sequential_ingest(&faulted, guard);
    for shards in [1usize, 2, 8] {
        let stats = sharded_ingest(&zero, guard, shards);
        assert_eq!(
            stats.quarantine, reference.quarantine,
            "quarantine counters differ at {shards} shard(s)"
        );
        assert_eq!(stats, reference, "stats differ at {shards} shard(s)");
    }

    // The decoded records analyze exactly like the written ones, at
    // every thread count.
    let config = |threads: usize| AnalysisConfig {
        threads,
        guard,
        ..AnalysisConfig::default()
    };
    scenario.records = faulted.clone();
    let written = Analysis::run(&scenario, &config(1));
    scenario.records = zero;
    for threads in [1usize, 2, 8] {
        let decoded = Analysis::run(&scenario, &config(threads));
        assert_eq!(
            decoded.requests, written.requests,
            "request observations differ at {threads} thread(s)"
        );
        assert_eq!(
            decoded.responses, written.responses,
            "response observations differ at {threads} thread(s)"
        );
        assert_eq!(
            decoded.common_sessions, written.common_sessions,
            "baseline differs at {threads} thread(s)"
        );
        assert_eq!(decoded.ingest, written.ingest);
    }

    // Cut the capture at a spread of offsets: the reader either stops
    // cleanly at a record boundary with exactly the written prefix, or
    // fails with `Truncated`.
    for cut in [9, 100, 1_001, bytes.len() / 2, bytes.len() - 1] {
        match decode_zero(&bytes[..cut]) {
            Ok(prefix) => {
                assert_eq!(prefix, faulted[..prefix.len()], "prefix at cut {cut}");
                assert_eq!(to_bytes(&prefix).unwrap().len(), cut, "clean stop at {cut}");
            }
            Err(CaptureError::Truncated) => {}
            Err(other) => panic!("cut {cut}: expected Truncated, got {other:?}"),
        }
    }
}
