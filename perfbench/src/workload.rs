//! Workload definitions: input generation from the seed, capture
//! writing, and the reference computation every output is checked
//! against.

use crate::trace::Tracer;
use quicsand_core::{Analysis, AnalysisConfig};
use quicsand_live::{LiveConfig, LiveEngine};
use quicsand_net::multi::merge_records;
use quicsand_net::PacketRecord;
use quicsand_sessions::multivector::{MultiVectorClass, MultiVectorReport};
use quicsand_sessions::SessionConfig;
use quicsand_telescope::GuardConfig;
use quicsand_traffic::{Scenario, ScenarioConfig};
use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;
use std::path::{Path, PathBuf};

/// Worker threads of the `scan-batch` CLI run (`analyze --threads`).
pub const SCAN_THREADS: usize = 2;
/// Detector shards of `flood-live` (`live --shards`).
pub const SHARDS: usize = 2;
/// `flood-live` checkpoint interval, records (two per run).
pub const LIVE_CHECKPOINT_EVERY: u64 = 400_000;
/// `flood-live` records per engine offer (the CLI's `--chunk` default).
pub const LIVE_CHUNK: usize = 1024;
/// A source sending at least this share of a capture's records counts
/// as heavy (the two research scanners in `scan-batch`).
const HEAVY_SOURCE_SHARE: f64 = 0.05;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ScanBatch,
    FloodLive,
}

impl Workload {
    pub fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "scan-batch" => Ok(Workload::ScanBatch),
            "flood-live" => Ok(Workload::FloodLive),
            other => Err(format!(
                "unknown workload `{other}` (want scan-batch|flood-live)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanBatch => "scan-batch",
            Workload::FloodLive => "flood-live",
        }
    }
}

/// Records kept per class — research-scanner probes, other UDP, and
/// TCP/ICMP — from the time-sorted generation. Each class keeps its
/// earliest records, so every seed yields the same count and the same
/// mix; each quota sits at least 4 standard deviations below the mean
/// a seed generates.
fn quotas(workload: Workload) -> [usize; 3] {
    match workload {
        Workload::ScanBatch => [118_000, 22_000, 160_000],
        Workload::FloodLive => [28_000, 33_000, 920_000],
    }
}

/// Halves the spread of flood durations and rates, so a run's record
/// count and flood count vary little from seed to seed.
fn narrow(config: ScenarioConfig) -> ScenarioConfig {
    ScenarioConfig {
        quic_duration_sigma: config.quic_duration_sigma / 2.0,
        quic_global_pps_sigma: config.quic_global_pps_sigma / 2.0,
        common_duration_sigma: config.common_duration_sigma / 2.0,
        common_global_pps_sigma: config.common_global_pps_sigma / 2.0,
        ..config
    }
}

/// The scanner-dominated QUIC mix: the test preset with research
/// sweeps from the two research scanners scaled up until they are the
/// largest share of the capture. QUIC floods come 4× and TCP/ICMP
/// floods 3× as often, each a quarter as long, with narrowed spreads.
pub fn scan_config(seed: u64) -> ScenarioConfig {
    let test = ScenarioConfig::test();
    narrow(ScenarioConfig {
        seed,
        research_packets_per_scan: 30_000,
        quic_attacks: test.quic_attacks * 4,
        quic_duration_median_secs: test.quic_duration_median_secs / 4.0,
        common_attacks: test.common_attacks * 3,
        common_duration_median_secs: test.common_duration_median_secs / 4.0,
        ..test
    })
}

/// The backscatter mix: the CLI's `demo` preset over 3 of its 30 days,
/// every count scaled by the same 1/10, then QUIC floods 4× and
/// TCP/ICMP floods 8× as often, each a quarter as long, with narrowed
/// spreads.
pub fn flood_config(seed: u64) -> ScenarioConfig {
    let paper = ScenarioConfig::paper_month();
    narrow(ScenarioConfig {
        seed,
        days: 3,
        research_packets_per_scan: 2_500,
        request_sessions: 500,
        quic_attacks: 80 * 4,
        quic_duration_median_secs: paper.quic_duration_median_secs / 4.0,
        victim_pool: 110,
        common_attacks: 240 * 8,
        common_duration_median_secs: paper.common_duration_median_secs / 4.0,
        misconfig_sessions: 200,
        garbage_udp443_packets: 50,
        ..paper
    })
}

/// The live engine configuration `quicsand live` runs with by default:
/// the session skew tolerance covers exactly the reordering the ingest
/// guard admits.
pub fn live_config(guard: &GuardConfig) -> LiveConfig {
    LiveConfig {
        session: SessionConfig {
            skew_tolerance: guard.reorder_tolerance,
            ..SessionConfig::default()
        },
        ..LiveConfig::default()
    }
}

/// The products every output is checked against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Verdicts {
    pub quic: usize,
    pub concurrent: usize,
    pub sequential: usize,
    pub isolated: usize,
    pub common: usize,
}

impl Verdicts {
    pub fn from_analysis(analysis: &Analysis) -> Verdicts {
        Verdicts::from_report(
            analysis.quic_attacks.len(),
            analysis.common_attacks.len(),
            &analysis.multivector,
        )
    }

    /// Flood counts plus the class counts of a multi-vector report.
    pub fn from_report(quic: usize, common: usize, report: &MultiVectorReport) -> Verdicts {
        let class = |c: MultiVectorClass| report.class_counts.get(c.label()).copied().unwrap_or(0);
        Verdicts {
            quic,
            concurrent: class(MultiVectorClass::Concurrent),
            sequential: class(MultiVectorClass::Sequential),
            isolated: class(MultiVectorClass::Isolated),
            common,
        }
    }

    pub fn from_engine(engine: &LiveEngine) -> Verdicts {
        let quic = engine.closed_quic();
        let class = |c: MultiVectorClass| quic.iter().filter(|a| a.class() == c).count();
        Verdicts {
            quic: quic.len(),
            concurrent: class(MultiVectorClass::Concurrent),
            sequential: class(MultiVectorClass::Sequential),
            isolated: class(MultiVectorClass::Isolated),
            common: engine.closed_common().len(),
        }
    }

    /// The CLI's `analyze` rendering of the multi-vector shares.
    pub fn share_line(&self) -> String {
        let share = |count: usize| {
            if self.quic == 0 {
                0.0
            } else {
                count as f64 / self.quic as f64 * 100.0
            }
        };
        format!(
            "multi-vector: {:.0}% concurrent / {:.0}% sequential / {:.0}% isolated (of {} QUIC floods)",
            share(self.concurrent),
            share(self.sequential),
            share(self.isolated),
            self.quic
        )
    }
}

/// A workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Capture files the program reads, in feed order.
    pub captures: Vec<PathBuf>,
    /// Records across all captures.
    pub records: u64,
    /// Bytes across all captures.
    pub bytes: u64,
    /// Hash over every capture's bytes, in feed order.
    pub hash: u64,
    /// Share of records that carry a UDP payload (QUIC candidates).
    pub quic_share: f64,
    /// Sources sending at least 5% of the records.
    pub heavy_sources: usize,
    /// The reference products, from a 1-thread `Analysis::run` over
    /// the (merged) record stream.
    pub reference: Verdicts,
}

/// 64-bit FNV-1a over 8-byte words (the tail bytes one at a time).
pub fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut hash = seed ^ 0xcbf2_9ce4_8422_2325;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().expect("chunk of 8"));
        hash = (hash ^ word).wrapping_mul(PRIME);
    }
    for &byte in words.remainder() {
        hash = (hash ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    hash
}

fn heavy_sources(records: &[PacketRecord]) -> usize {
    let mut per_source: HashMap<Ipv4Addr, u64> = HashMap::new();
    for record in records {
        *per_source.entry(record.src).or_default() += 1;
    }
    let floor = (records.len() as f64 * HEAVY_SOURCE_SHARE).max(1.0);
    per_source.values().filter(|&&n| n as f64 >= floor).count()
}

/// Keeps the earliest `quotas[c]` records of each class `c` (research
/// probes, other UDP, TCP/ICMP), in capture order.
fn cut_to_quotas(scenario: &mut Scenario, quotas: [usize; 3]) -> Result<(), String> {
    let research: HashSet<Ipv4Addr> = scenario
        .world
        .research_scanners()
        .iter()
        .map(|scanner| scanner.addr)
        .collect();
    let mut kept = [0usize; 3];
    scenario.records.retain(|record| {
        let class = match record.udp_payload() {
            Some(_) if research.contains(&record.src) => 0,
            Some(_) => 1,
            None => 2,
        };
        kept[class] += 1;
        kept[class] <= quotas[class]
    });
    if kept.iter().zip(quotas).any(|(&have, want)| have < want) {
        return Err(format!(
            "generated {kept:?} records per class, fewer than the quotas {quotas:?}"
        ));
    }
    Ok(())
}

/// Splits a capture by telescope destination half: two vantage points
/// of one telescope, each seeing every source.
fn split_by_destination(scenario: &Scenario) -> [Vec<PacketRecord>; 2] {
    let telescope = scenario.world.telescope;
    let base = u32::from(telescope.base());
    let half = telescope.size() / 2;
    let mut feeds = [Vec::new(), Vec::new()];
    for record in &scenario.records {
        let offset = u64::from(u32::from(record.dst).wrapping_sub(base));
        feeds[usize::from(offset >= half)].push(record.clone());
    }
    feeds
}

/// Generates the workload's inputs from `seed` into `dir` and computes
/// the reference. Generation and encoding are traced as
/// `traffic.generate` / `traffic.encode`.
pub fn setup(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Inputs, String> {
    let (mut scenario, feeds) = tracer.span("traffic.generate", |_| {
        let config = match workload {
            Workload::ScanBatch => scan_config(seed),
            Workload::FloodLive => flood_config(seed),
        };
        let mut scenario = Scenario::generate(&config);
        cut_to_quotas(&mut scenario, quotas(workload))
            .map_err(|short| format!("seed {seed}: {short}"))?;
        let feeds = match workload {
            Workload::ScanBatch => vec![std::mem::take(&mut scenario.records)],
            Workload::FloodLive => split_by_destination(&scenario).into(),
        };
        Ok::<_, String>((scenario, feeds))
    })?;
    let mut captures = Vec::new();
    let mut bytes = 0u64;
    let mut hash = 0u64;
    for (index, feed) in feeds.iter().enumerate() {
        let encoded = tracer.span("traffic.encode", |_| {
            quicsand_net::capture::to_bytes(feed).map_err(|e| format!("encode capture: {e}"))
        })?;
        let path = dir.join(format!("{}-{index}.qscp", workload.name()));
        tracer
            .span("setup.write", |_| std::fs::write(&path, &encoded))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        bytes += encoded.len() as u64;
        hash = hash_bytes(hash, &encoded);
        captures.push(path);
    }
    scenario.records = if feeds.len() == 1 {
        feeds.into_iter().next().expect("one feed")
    } else {
        merge_records(&feeds)
    };
    let records = &scenario.records;
    let quic = records.iter().filter(|r| r.udp_payload().is_some()).count();
    let quic_share = quic as f64 / records.len().max(1) as f64;
    let heavy = heavy_sources(records);
    let reference = tracer.span("setup.reference", |_| {
        let config = AnalysisConfig {
            threads: 1,
            ..AnalysisConfig::default()
        };
        Verdicts::from_analysis(&Analysis::run(&scenario, &config))
    });
    Ok(Inputs {
        captures,
        records: scenario.records.len() as u64,
        bytes,
        hash,
        quic_share,
        heavy_sources: heavy,
        reference,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sees_every_byte() {
        let a = hash_bytes(0, b"0123456789abcdef!");
        let b = hash_bytes(0, b"0123456789abcdef?");
        let c = hash_bytes(0, b"1123456789abcdef!");
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, hash_bytes(0, b"0123456789abcdef!"));
    }

    #[test]
    fn share_line_matches_cli_rendering() {
        let verdicts = Verdicts {
            quic: 4,
            concurrent: 2,
            sequential: 1,
            isolated: 1,
            common: 9,
        };
        assert_eq!(
            verdicts.share_line(),
            "multi-vector: 50% concurrent / 25% sequential / 25% isolated (of 4 QUIC floods)"
        );
    }
}
