//! Constant-memory streaming trace generation for the benchmark scale
//! ladder.
//!
//! [`crate::Scenario::generate`] materializes (and sorts) the whole
//! trace before anything can consume it; at the 10M–100M-record scales
//! a real telescope month produces, that is gigabytes of resident
//! records. [`RecordStream`] instead *yields* scenario-equivalent
//! telescope records as an iterator in globally non-decreasing event
//! time, so arbitrarily long traces flow through the live engine in
//! constant memory.
//!
//! ## Model
//!
//! The stream models the common-protocol flood backscatter component:
//! a fixed pool of flood victims, each emitting internally time-sorted
//! SYN-ACK bursts (~2 pps for ~4 minutes — comfortably over the Moore
//! thresholds) separated by gaps longer than the 5-minute session
//! timeout, so sessions open, close mid-stream, and alert on the
//! common channel exactly like the materialized scenario's floods.
//!
//! ## Memory bound
//!
//! Per-victim state is a fixed-size `VictimFlow` (next timestamp,
//! remaining budget, a 64-bit rng word), and the merge across victims
//! is a binary heap holding exactly one entry per victim with records
//! left. Memory is therefore `O(victims)` — independent of
//! [`StreamConfig::records`] — which is the bound DESIGN.md §12
//! documents and the unit tests pin down.
//!
//! ## Sharding
//!
//! A stream can be restricted to the victims of one feed
//! (`victim % shards == shard_index`): each sub-stream stays internally
//! time-sorted, the shards partition the full stream's records exactly,
//! and the per-victim budgets are computed from the *global* victim
//! pool so the union over all shards equals the unsharded stream
//! record-for-record. That makes the sub-streams drop-in feeds for the
//! multi-source `SourceSet` at any fan-in.

use quicsand_net::capture::CaptureError;
use quicsand_net::{Duration, PacketRecord, StreamSource, TcpFlags, Timestamp};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::net::Ipv4Addr;

/// Records per burst; at [`INTRA_BURST_US`] spacing a burst spans
/// ~4 minutes at ~2 pps, well over the Moore floor (25 packets, 60 s,
/// 0.5 pps).
const BURST_LEN: u64 = 512;
/// Base spacing between a burst's records, microseconds (~2 pps).
const INTRA_BURST_US: u64 = 500_000;
/// Gap between a victim's bursts, microseconds — longer than the
/// 5-minute session timeout so every burst closes as its own session.
const INTER_BURST_US: u64 = 400_000_000;
/// Victim start offsets, microseconds: staggered so bursts interleave
/// across victims instead of marching in lockstep.
const STAGGER_US: u64 = 977_003;

/// Parameters of a [`RecordStream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamConfig {
    /// Base seed; the same seed always yields the same stream.
    pub seed: u64,
    /// Total records across the whole victim pool (all shards
    /// together). A sharded stream yields its victims' share.
    pub records: u64,
    /// Concurrent flood victims — the constant that bounds memory.
    pub victims: u32,
    /// How many feeds the victim pool is partitioned into.
    pub shards: u32,
    /// Which partition this stream yields (`victim % shards`).
    pub shard_index: u32,
}

impl StreamConfig {
    /// An unsharded stream of `records` records over `victims` victims.
    pub fn new(seed: u64, records: u64, victims: u32) -> Self {
        StreamConfig {
            seed,
            records,
            victims: victims.max(1),
            shards: 1,
            shard_index: 0,
        }
    }

    /// This configuration restricted to one feed of an `n`-way
    /// partition.
    pub fn shard(self, n: u32, index: u32) -> Self {
        assert!(index < n.max(1), "shard index out of range");
        StreamConfig {
            shards: n.max(1),
            shard_index: index,
            ..self
        }
    }

    /// Records this (possibly sharded) stream will yield: the sum of
    /// its victims' budgets.
    pub fn shard_records(&self) -> u64 {
        (0..self.victims)
            .filter(|v| v % self.shards == self.shard_index)
            .map(|v| self.victim_budget(v))
            .sum()
    }

    /// The global pool's budget for victim `v`: an even split of
    /// `records`, with the remainder going to the lowest victim ids.
    fn victim_budget(&self, v: u32) -> u64 {
        let base = self.records / u64::from(self.victims);
        let extra = u64::from(u64::from(v) < self.records % u64::from(self.victims));
        base + extra
    }
}

/// `splitmix64` step: a tiny, seedable, allocation-free rng — one
/// multiply-xor chain per record keeps generation off the profile of
/// the pipeline it feeds.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One victim's fixed-size generation state.
#[derive(Debug, Clone, Copy)]
struct VictimFlow {
    src: Ipv4Addr,
    next_ts: Timestamp,
    /// Position within the current burst.
    burst_pos: u64,
    remaining: u64,
    rng: u64,
}

impl VictimFlow {
    fn new(config: &StreamConfig, v: u32) -> Self {
        VictimFlow {
            src: Ipv4Addr::new(198, 18, (v >> 8) as u8, v as u8),
            next_ts: Timestamp::from_micros(u64::from(v) * STAGGER_US),
            burst_pos: 0,
            remaining: config.victim_budget(v),
            rng: config.seed ^ (u64::from(v).wrapping_mul(0xA24B_AED4_963E_E407)),
        }
    }

    /// Emits the record at `next_ts` and advances the flow.
    fn emit(&mut self) -> PacketRecord {
        let word = splitmix(&mut self.rng);
        let record = PacketRecord::tcp(
            self.next_ts,
            self.src,
            Ipv4Addr::new(10, (word >> 16) as u8, (word >> 8) as u8, word as u8),
            443,
            1_024 + (word % 60_000) as u16,
            TcpFlags::SYN_ACK,
        );
        self.remaining -= 1;
        self.burst_pos += 1;
        let step = if self.burst_pos >= BURST_LEN {
            self.burst_pos = 0;
            INTER_BURST_US
        } else {
            // Jitter keeps per-record timestamps unique per victim
            // while staying strictly increasing.
            INTRA_BURST_US + word % 1_000
        };
        self.next_ts += Duration::from_micros(step);
        record
    }
}

/// A lazily generated, time-sorted telescope record stream; see the
/// module docs for the traffic model and the memory bound.
#[derive(Debug)]
pub struct RecordStream {
    flows: Vec<VictimFlow>,
    /// One `(next timestamp, flow slot)` entry per victim with budget
    /// left — the whole cross-victim merge state.
    heap: BinaryHeap<Reverse<(Timestamp, u32)>>,
    remaining: u64,
}

impl RecordStream {
    /// Builds the stream for `config` (honoring its shard selection).
    pub fn new(config: &StreamConfig) -> Self {
        let flows: Vec<VictimFlow> = (0..config.victims)
            .filter(|v| v % config.shards == config.shard_index)
            .map(|v| VictimFlow::new(config, v))
            .collect();
        let heap = flows
            .iter()
            .enumerate()
            .filter(|(_, f)| f.remaining > 0)
            .map(|(slot, f)| Reverse((f.next_ts, slot as u32)))
            .collect();
        let remaining = flows.iter().map(|f| f.remaining).sum();
        RecordStream {
            flows,
            heap,
            remaining,
        }
    }

    /// Records not yet yielded.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Live merge entries — never exceeds the victim count, whatever
    /// the record budget (the memory-bound witness).
    pub fn merge_width(&self) -> usize {
        self.heap.len()
    }
}

impl Iterator for RecordStream {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        let Reverse((_, slot)) = self.heap.pop()?;
        let flow = &mut self.flows[slot as usize];
        let record = flow.emit();
        if flow.remaining > 0 {
            self.heap.push(Reverse((flow.next_ts, slot)));
        }
        self.remaining -= 1;
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = usize::try_from(self.remaining).ok();
        (n.unwrap_or(usize::MAX), n)
    }
}

impl StreamSource for RecordStream {
    fn next_record(&mut self) -> Option<Result<PacketRecord, CaptureError>> {
        self.next().map(Ok)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(r: &PacketRecord) -> (u64, u32) {
        // Per-victim timestamps strictly increase and victims have
        // distinct sources, so (ts, src) identifies a record uniquely.
        (r.ts.0, u32::from(r.src))
    }

    #[test]
    fn stream_is_deterministic_and_exact() {
        let config = StreamConfig::new(7, 10_000, 16);
        let a: Vec<_> = RecordStream::new(&config).collect();
        let b: Vec<_> = RecordStream::new(&config).collect();
        assert_eq!(a.len(), 10_000);
        assert_eq!(a, b);
    }

    #[test]
    fn stream_is_time_sorted() {
        let config = StreamConfig::new(3, 20_000, 32);
        let records: Vec<_> = RecordStream::new(&config).collect();
        assert!(records.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Distinct victims actually interleave.
        let firsts: std::collections::BTreeSet<_> =
            records.iter().take(100).map(|r| r.src).collect();
        assert!(firsts.len() > 1, "victims interleave from the start");
    }

    #[test]
    fn shards_partition_the_full_stream_exactly() {
        let config = StreamConfig::new(11, 30_000, 24);
        let full: Vec<_> = RecordStream::new(&config).collect();
        let mut union: Vec<PacketRecord> = Vec::new();
        let mut budgets = 0u64;
        for index in 0..4 {
            let shard = config.shard(4, index);
            budgets += shard.shard_records();
            let part: Vec<_> = RecordStream::new(&shard).collect();
            assert!(
                part.windows(2).all(|w| w[0].ts <= w[1].ts),
                "shard {index} stays time-sorted"
            );
            union.extend(part);
        }
        assert_eq!(budgets, 30_000, "budgets conserve the record count");
        assert_eq!(union.len(), full.len());
        let mut full = full;
        union.sort_by_key(key);
        full.sort_by_key(key);
        assert_eq!(union, full, "shards partition the stream");
    }

    #[test]
    fn merge_state_is_bounded_by_the_victim_pool() {
        let config = StreamConfig::new(1, 200_000, 8);
        let mut stream = RecordStream::new(&config);
        let mut max_width = 0;
        while stream.next().is_some() {
            max_width = max_width.max(stream.merge_width());
        }
        assert!(max_width <= 8, "merge width {max_width} exceeds victims");
        assert_eq!(stream.remaining(), 0);
    }

    #[test]
    fn bursts_clear_the_moore_thresholds_and_close() {
        // One victim: every burst must be alert-worthy (>= 25 packets,
        // >= 60 s, >= 0.5 pps at peak) and separated by more than the
        // 5-minute session timeout so it closes as its own session.
        let config = StreamConfig::new(5, BURST_LEN * 2, 1);
        let records: Vec<_> = RecordStream::new(&config).collect();
        let burst: Vec<_> = records[..BURST_LEN as usize].to_vec();
        let span = burst.last().unwrap().ts.saturating_since(burst[0].ts);
        assert!(burst.len() >= 25 && span.as_micros() >= 60_000_000);
        let gap = records[BURST_LEN as usize]
            .ts
            .saturating_since(burst.last().unwrap().ts);
        assert!(gap.as_micros() > 300_000_000, "gap outlives the timeout");
    }
}
