//! Telescope-pipeline benchmarks: classification, dissection,
//! sessionization and DoS inference at capture scale.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_dissect::{classify_record, dissect_udp_payload};
use quicsand_net::{Duration, Timestamp};
use quicsand_sessions::dos::{detect_attacks, AttackProtocol, DosThresholds};
use quicsand_sessions::multivector::classify_multivector;
use quicsand_sessions::session::{sessionize, timeout_sweep, SessionConfig};
use quicsand_telescope::TelescopePipeline;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::net::Ipv4Addr;

fn scenario() -> &'static Scenario {
    use std::sync::OnceLock;
    static CELL: OnceLock<Scenario> = OnceLock::new();
    CELL.get_or_init(|| Scenario::generate(&ScenarioConfig::test()))
}

fn bench_classify_and_dissect(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("dissect");
    group.throughput(Throughput::Elements(s.records.len() as u64));
    group.bench_function("classify_capture", |b| {
        b.iter(|| {
            s.records
                .iter()
                .filter(|r| {
                    matches!(
                        classify_record(black_box(r)),
                        quicsand_dissect::Classification::QuicCandidate(_)
                    )
                })
                .count()
        })
    });
    // Per-payload dissection of a flood response datagram.
    let response = s
        .records
        .iter()
        .find_map(|r| {
            let p = r.udp_payload()?;
            (r.transport.src_port() == Some(443) && dissect_udp_payload(p).is_ok())
                .then(|| p.clone())
        })
        .expect("scenario contains valid backscatter");
    group.throughput(Throughput::Bytes(response.len() as u64));
    group.bench_function("dissect_backscatter_datagram", |b| {
        b.iter(|| dissect_udp_payload(black_box(&response)).unwrap())
    });
    group.finish();
}

fn bench_ingest(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("telescope");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.records.len() as u64));
    group.bench_function("ingest_full_capture", |b| {
        b.iter(|| {
            let mut pipeline = TelescopePipeline::new();
            pipeline.ingest_all(black_box(&s.records));
            pipeline.stats().quic_valid
        })
    });
    group.finish();
}

fn bench_analysis_frontend(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("analysis");
    group.sample_size(10);
    group.throughput(Throughput::Elements(s.records.len() as u64));
    for threads in [1usize, 8] {
        group.bench_function(&format!("run_threads_{threads}"), |b| {
            b.iter(|| {
                Analysis::run(
                    black_box(s),
                    &AnalysisConfig {
                        threads,
                        ..AnalysisConfig::default()
                    },
                )
                .quic_attacks
                .len()
            })
        });
    }
    group.finish();
}

fn synthetic_stream(n: u64) -> Vec<(Timestamp, Ipv4Addr)> {
    (0..n)
        .map(|i| {
            (
                Timestamp::from_secs(i / 7),
                Ipv4Addr::from(0x0a00_0000 + (i % 997) as u32),
            )
        })
        .collect()
}

fn bench_sessions(c: &mut Criterion) {
    let stream = synthetic_stream(100_000);
    let mut group = c.benchmark_group("sessions");
    group.throughput(Throughput::Elements(stream.len() as u64));
    group.bench_function("sessionize_100k", |b| {
        b.iter(|| sessionize(stream.iter().copied(), SessionConfig::default()).len())
    });
    let timeouts: Vec<Duration> = (1..=60).map(Duration::from_mins).collect();
    group.bench_function("timeout_sweep_60pts_100k", |b| {
        b.iter(|| {
            timeout_sweep(stream.iter().copied(), &timeouts)
                .counts
                .len()
        })
    });
    group.finish();
}

fn bench_dos(c: &mut Criterion) {
    let s = scenario();
    let analysis = Analysis::run(s, &AnalysisConfig::default());
    let mut group = c.benchmark_group("dos");
    group.throughput(Throughput::Elements(analysis.response_sessions.len() as u64));
    group.bench_function("detect_attacks", |b| {
        b.iter(|| {
            detect_attacks(
                black_box(&analysis.response_sessions),
                AttackProtocol::Quic,
                &DosThresholds::moore(),
            )
            .len()
        })
    });
    group.bench_function("multivector_correlation", |b| {
        b.iter(|| {
            classify_multivector(
                black_box(&analysis.quic_attacks),
                black_box(&analysis.common_attacks),
            )
            .attacks
            .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_classify_and_dissect,
    bench_ingest,
    bench_analysis_frontend,
    bench_sessions,
    bench_dos
);
criterion_main!(benches);
