//! Source-sharded fan-out: `hash(src) % N` partitioning across scoped
//! worker threads.
//!
//! The telescope's per-packet work (classification + dissection) and
//! all per-source state (the ingest guard, sessionization,
//! research-scanner detection) depend only on the *source* address, so
//! partitioning records by a hash of `src` lets N workers run the full
//! per-shard pipeline independently. [`fan_out`] is the one place that
//! does this; its callers (the batch `Analysis` frontend and the live
//! engine) tag every product with its original record index and merge
//! by it, which restores exact capture order regardless of thread
//! scheduling.
//!
//! The shard function is FNV-1a over the source octets — a fixed,
//! platform-independent hash (unlike [`std::collections::hash_map::DefaultHasher`],
//! whose output is unspecified across releases), so a given capture
//! shards identically everywhere.

use quicsand_net::PacketRecord;
use std::net::Ipv4Addr;

/// Shard index for a source address: FNV-1a over the four octets,
/// reduced mod `shards`. `shards == 0` is treated as 1.
pub fn shard_of(src: Ipv4Addr, shards: usize) -> usize {
    if shards <= 1 {
        return 0;
    }
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in src.octets() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as usize
}

/// Partitions record indices into `shards` buckets by source shard.
/// Within each bucket the indices remain in capture order.
pub fn partition_by_source(records: &[PacketRecord], shards: usize) -> Vec<Vec<usize>> {
    let shards = shards.max(1);
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); shards];
    // Pre-size: uniform hash → roughly equal buckets.
    let hint = records.len() / shards + 1;
    for bucket in &mut buckets {
        bucket.reserve(hint);
    }
    for (index, record) in records.iter().enumerate() {
        buckets[shard_of(record.src, shards)].push(index);
    }
    buckets
}

/// Runs `work` once per shard over that shard's record indices and
/// returns the results in shard order.
///
/// Records are split with [`partition_by_source`] into one bucket per
/// element of `shards`, so each worker sees its sources' records in
/// capture order. With one shard the work runs inline; with more, each
/// shard gets its own scoped thread that borrows `records` and its `T`.
/// A panicking worker panics the caller.
///
/// # Panics
/// If `shards` is empty, or if a worker panics.
pub fn fan_out<T, R, F>(records: &[PacketRecord], shards: &mut [T], work: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(&mut T, &[usize]) -> R + Sync,
{
    assert!(!shards.is_empty(), "fan_out needs at least one shard");
    let buckets = partition_by_source(records, shards.len());
    if let [shard] = shards {
        return vec![work(shard, &buckets[0])];
    }
    let work = &work;
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = shards
            .iter_mut()
            .zip(&buckets)
            .map(|(shard, indices)| scope.spawn(move |_| work(shard, indices)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard worker panicked"))
            .collect()
    })
    .expect("shard scope panicked")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use quicsand_net::{IcmpKind, TcpFlags, Timestamp};
    use quicsand_traffic::research::research_probe_payload;

    fn mixed_capture(n: u64) -> Vec<PacketRecord> {
        (0..n)
            .map(|i| {
                let src = Ipv4Addr::from(0x0a00_0000 + (i % 251) as u32 * 7);
                let dst = Ipv4Addr::new(192, 0, 2, (i % 200) as u8);
                let ts = Timestamp::from_secs(i);
                match i % 5 {
                    0 => PacketRecord::udp(ts, src, dst, 40_000, 443, research_probe_payload(i)),
                    1 => PacketRecord::tcp(ts, src, dst, 443, 5_000, TcpFlags::SYN_ACK),
                    2 => PacketRecord::icmp(ts, src, dst, IcmpKind::EchoReply),
                    3 => PacketRecord::udp(
                        ts,
                        src,
                        dst,
                        40_000,
                        443,
                        Bytes::from_static(&[0x12, 0x34, 0x00]),
                    ),
                    _ => PacketRecord::udp(ts, src, dst, 53, 53, Bytes::from_static(b"dns")),
                }
            })
            .collect()
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let src = Ipv4Addr::new(10, 1, 2, 3);
        for shards in 1..16 {
            let s = shard_of(src, shards);
            assert!(s < shards);
            assert_eq!(s, shard_of(src, shards), "deterministic");
        }
        assert_eq!(shard_of(src, 0), 0);
        assert_eq!(shard_of(src, 1), 0);
    }

    #[test]
    fn shard_of_spreads_sources() {
        // 256 distinct sources over 8 shards: no shard should be empty
        // or hold more than half of everything.
        let mut counts = [0usize; 8];
        for last in 0..=255u8 {
            counts[shard_of(Ipv4Addr::new(198, 51, 100, last), 8)] += 1;
        }
        for (shard, count) in counts.iter().enumerate() {
            assert!(*count > 0, "shard {shard} empty");
            assert!(*count < 128, "shard {shard} holds {count}/256");
        }
    }

    #[test]
    fn partition_covers_every_record_once() {
        let records = mixed_capture(500);
        let buckets = partition_by_source(&records, 4);
        let mut seen: Vec<usize> = buckets.iter().flatten().copied().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..records.len()).collect::<Vec<_>>());
        // Capture order within each bucket.
        for bucket in &buckets {
            assert!(bucket.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn fan_out_visits_each_index_once_in_shard_order() {
        let records = mixed_capture(500);
        for shards in [1usize, 2, 3, 8] {
            let mut ids: Vec<usize> = (0..shards).collect();
            let results = fan_out(&records, &mut ids, |id, indices| (*id, indices.to_vec()));
            assert_eq!(results.len(), shards);
            let mut seen = Vec::new();
            for (position, (id, indices)) in results.into_iter().enumerate() {
                // Results come back in shard order, each worker got its
                // own shard state and exactly its source shard's records.
                assert_eq!(id, position, "{shards} shards");
                assert!(indices.windows(2).all(|w| w[0] < w[1]), "capture order");
                assert!(indices
                    .iter()
                    .all(|&i| shard_of(records[i].src, shards) == position));
                seen.extend(indices);
            }
            seen.sort_unstable();
            assert_eq!(
                seen,
                (0..records.len()).collect::<Vec<_>>(),
                "{shards} shards"
            );
        }
        // One shard runs on the calling thread.
        let caller = std::thread::current().id();
        let ran_on = fan_out(&records, &mut [()], |_, _| std::thread::current().id());
        assert_eq!(ran_on, vec![caller]);
    }

    #[test]
    #[should_panic(expected = "shard scope panicked")]
    fn fan_out_propagates_worker_panics() {
        let records = mixed_capture(10);
        let mut shards = [(), ()];
        fan_out(&records, &mut shards, |_, _| panic!("boom"));
    }
}
