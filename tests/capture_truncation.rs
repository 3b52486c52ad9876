//! Truncation regression tests: a capture cut at *any* byte offset must
//! be reported as [`CaptureError::Truncated`] by the capture reader —
//! never silently accepted as a shorter capture, and never decoded
//! further once the error surfaced.
//!
//! The contract pinned here:
//!
//! * fewer than 8 header bytes → `Truncated`;
//! * a cut exactly at a record boundary → clean end of stream, with
//!   every preceding record decoded;
//! * a cut anywhere inside a record — including mid-timestamp —
//!   → `Truncated`;
//! * the error is sticky: every read after the valid prefix returns it
//!   again, through `read_record` and through `pull_chunk`, and never
//!   decodes the cut record's bytes as further records.

use bytes::Bytes;
use quicsand_net::capture::{to_bytes, CaptureError};
use quicsand_net::zerocopy::ZeroCopyCaptureReader;
use quicsand_net::{IcmpKind, PacketRecord, StreamSource, TcpFlags, Timestamp};
use std::net::Ipv4Addr;

/// One record of every transport, so the sweep crosses every field kind
/// (timestamp, addresses, tag, ports, length, payload, flags, icmp).
fn samples() -> Vec<PacketRecord> {
    vec![
        PacketRecord::udp(
            Timestamp::from_micros(111),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(128, 0, 0, 1),
            40000,
            443,
            Bytes::from_static(b"payload bytes"),
        ),
        PacketRecord::tcp(
            Timestamp::from_micros(222),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(128, 0, 0, 2),
            443,
            55555,
            TcpFlags::SYN_ACK,
        ),
        PacketRecord::icmp(
            Timestamp::from_micros(333),
            Ipv4Addr::new(10, 0, 0, 3),
            Ipv4Addr::new(128, 0, 0, 3),
            IcmpKind::TtlExceeded,
        ),
        PacketRecord::udp(
            Timestamp::from_micros(444),
            Ipv4Addr::new(10, 0, 0, 4),
            Ipv4Addr::new(128, 0, 0, 4),
            443,
            2,
            Bytes::new(),
        ),
    ]
}

/// [`samples`] plus a record whose 100 zero payload bytes would decode
/// as further records if a reader resumed inside them.
fn samples_with_zero_payload() -> Vec<PacketRecord> {
    let mut records = samples();
    records.push(PacketRecord::udp(
        Timestamp::from_micros(555),
        Ipv4Addr::new(10, 0, 0, 5),
        Ipv4Addr::new(128, 0, 0, 5),
        40000,
        443,
        Bytes::from(vec![0u8; 100]),
    ));
    records
}

/// Byte offsets (into the serialized capture) at which each record ends.
/// A cut exactly here is a clean end of stream; anywhere else is not.
fn record_boundaries(records: &[PacketRecord]) -> Vec<usize> {
    let mut boundaries = vec![8]; // after the file header
    for record in records {
        let one = to_bytes(std::slice::from_ref(record)).unwrap();
        boundaries.push(boundaries.last().unwrap() + (one.len() - 8));
    }
    boundaries
}

fn decode_zero(bytes: &[u8]) -> Result<Vec<PacketRecord>, CaptureError> {
    ZeroCopyCaptureReader::from_bytes(bytes.to_vec())?.read_to_end()
}

#[test]
fn truncation_at_every_byte_offset_is_detected() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    assert_eq!(*boundaries.last().unwrap(), bytes.len());

    for cut in 0..=bytes.len() {
        let zero = decode_zero(&bytes[..cut]);
        if let Some(complete) = boundaries.iter().position(|&b| b == cut) {
            // Clean prefix: exactly the records that fit.
            assert_eq!(
                zero.as_deref().expect("boundary cut decodes"),
                &records[..complete],
                "boundary {cut}"
            );
        } else {
            // Mid-header or mid-record.
            assert!(
                matches!(zero, Err(CaptureError::Truncated)),
                "the reader must report the cut at byte {cut}, got {zero:?}"
            );
        }
    }
}

/// 1–7 trailing bytes of a timestamp must not be swallowed as a clean
/// end of stream, silently dropping data.
#[test]
fn mid_timestamp_truncation_is_not_a_clean_eof() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    // Cut inside the timestamp of every record in turn.
    for &boundary in &boundaries[..boundaries.len() - 1] {
        for extra in 1..8 {
            let cut = boundary + extra;
            let zero = decode_zero(&bytes[..cut]);
            assert!(
                matches!(zero, Err(CaptureError::Truncated)),
                "cut {extra} bytes into a timestamp (offset {cut}) must be \
                 Truncated, got {zero:?}"
            );
        }
    }
}

/// Records decoded *before* the cut are still delivered by the
/// streaming interface, so a consumer sees the valid prefix and then
/// the typed error — not a silently shortened capture.
#[test]
fn valid_prefix_is_delivered_before_the_truncation_error() {
    let records = samples();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    let cut = boundaries[2] + 3; // inside the third record
    let mut zero = ZeroCopyCaptureReader::from_bytes(bytes[..cut].to_vec()).unwrap();
    for want in &records[..2] {
        assert_eq!(zero.read_record().unwrap().unwrap(), *want);
    }
    assert!(matches!(zero.read_record(), Err(CaptureError::Truncated)));
}

/// For every cut offset inside a record, every read after the valid
/// prefix returns the same typed error, through `read_record` and
/// through `pull_chunk`.
#[test]
fn every_read_after_the_valid_prefix_returns_the_same_error() {
    let records = samples_with_zero_payload();
    let bytes = to_bytes(&records).unwrap();
    let boundaries = record_boundaries(&records);
    for cut in boundaries[0]..bytes.len() {
        if boundaries.contains(&cut) {
            continue;
        }
        // Records that end at or before the cut form the valid prefix.
        let prefix = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let cut_bytes = &bytes[..cut];

        let mut reader = ZeroCopyCaptureReader::from_bytes(cut_bytes.to_vec()).unwrap();
        for want in &records[..prefix] {
            assert_eq!(reader.read_record().unwrap().as_ref(), Some(want));
        }
        for _ in 0..3 {
            let got = reader.read_record();
            assert!(
                matches!(got, Err(CaptureError::Truncated)),
                "read_record after the prefix at cut {cut}: {got:?}"
            );
        }

        let mut source = ZeroCopyCaptureReader::from_bytes(cut_bytes.to_vec()).unwrap();
        let mut delivered = Vec::new();
        let error = loop {
            match source.pull_chunk(10) {
                Ok(chunk) => {
                    assert!(!chunk.is_empty(), "clean end reported at cut {cut}");
                    delivered.extend(chunk);
                }
                Err(error) => break error,
            }
        };
        assert!(matches!(error, CaptureError::Truncated), "cut {cut}");
        assert_eq!(
            delivered,
            records[..prefix],
            "pull_chunk prefix at cut {cut}"
        );
        for _ in 0..3 {
            let got = source.pull_chunk(10);
            assert!(
                matches!(got, Err(CaptureError::Truncated)),
                "pull_chunk after the prefix at cut {cut}: {got:?}"
            );
        }
    }
}
