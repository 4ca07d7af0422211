//! Spill segments.
//!
//! A [`SpilledGroup`] is the unit the state-spill adaptation writes: one
//! partition group — the partitions of *all* input streams sharing one
//! partition ID (§2, Figure 3(b)). Spilling whole groups is what frees
//! the cleanup process from timestamp bookkeeping: within a segment, all
//! run-time results among its tuples were already produced before the
//! spill, so the cleanup only needs cross-segment combinations (§3).
//!
//! The binary layout is:
//!
//! ```text
//! segment := MAGIC:u32 VERSION:u8 partition:varint nstreams:varint stream-block^nstreams
//! ```
//!
//! Each stream's tuples become one column block (delta-coded
//! timestamps/sequence numbers, dictionary-coded low-cardinality
//! payload columns — see [`crate::codec`]), typically a fraction of the
//! size of the tuples encoded row by row. The version byte is 2; the
//! retired version 1 (verbatim rows) and any other version are rejected.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use dcape_common::error::{DcapeError, Result};
use dcape_common::ids::PartitionId;
use dcape_common::mem::HeapSize;
use dcape_common::tuple::Tuple;

use crate::codec::{decode_stream_block, encode_stream_block, get_varint, put_varint};

const MAGIC: u32 = 0xDCA9_E501;
const VERSION: u8 = 2;

/// One spilled partition group: per-stream tuple lists for one partition
/// ID, exactly as they sat in memory at spill time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpilledGroup {
    /// The partition ID of the group.
    pub partition: PartitionId,
    /// `per_stream[s]` holds the tuples of input stream `s`.
    pub per_stream: Vec<Vec<Tuple>>,
}

impl SpilledGroup {
    /// New empty group for `partition` with `num_streams` inputs.
    pub fn empty(partition: PartitionId, num_streams: usize) -> Self {
        SpilledGroup {
            partition,
            per_stream: vec![Vec::new(); num_streams],
        }
    }

    /// Total number of tuples across all streams.
    pub fn tuple_count(&self) -> usize {
        self.per_stream.iter().map(Vec::len).sum()
    }

    /// Estimated in-memory state bytes of the group's tuples (what the
    /// memory tracker had accounted before the spill).
    pub fn state_bytes(&self) -> usize {
        self.per_stream
            .iter()
            .flat_map(|v| v.iter())
            .map(HeapSize::heap_size)
            .sum()
    }

    /// True if the group holds no tuples at all.
    pub fn is_empty(&self) -> bool {
        self.per_stream.iter().all(Vec::is_empty)
    }

    /// Serialize to segment bytes.
    pub fn encode(&self) -> Bytes {
        // Compressed size is data-dependent; start from a round
        // per-tuple guess and let the buffer grow if a payload is fat.
        let mut buf = BytesMut::with_capacity(32 + self.tuple_count() * 16);
        buf.put_u32_le(MAGIC);
        buf.put_u8(VERSION);
        put_varint(&mut buf, self.partition.0 as u64);
        put_varint(&mut buf, self.per_stream.len() as u64);
        for stream_tuples in &self.per_stream {
            encode_stream_block(&mut buf, stream_tuples);
        }
        buf.freeze()
    }

    /// Deserialize from segment bytes.
    pub fn decode(mut bytes: Bytes) -> Result<Self> {
        if bytes.remaining() < 5 {
            return Err(DcapeError::codec("segment: short header"));
        }
        let magic = bytes.get_u32_le();
        if magic != MAGIC {
            return Err(DcapeError::codec(format!(
                "segment: bad magic 0x{magic:08x}"
            )));
        }
        let version = bytes.get_u8();
        if version != VERSION {
            return Err(DcapeError::codec(format!(
                "segment: unsupported version {version}"
            )));
        }
        let partition = PartitionId(get_varint(&mut bytes)? as u32);
        let nstreams = get_varint(&mut bytes)? as usize;
        if nstreams > 256 {
            return Err(DcapeError::codec("segment: implausible stream count"));
        }
        let mut per_stream = Vec::with_capacity(nstreams);
        for _ in 0..nstreams {
            per_stream.push(decode_stream_block(&mut bytes)?);
        }
        if bytes.has_remaining() {
            return Err(DcapeError::codec("segment: trailing bytes"));
        }
        Ok(SpilledGroup {
            partition,
            per_stream,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn group() -> SpilledGroup {
        let mut g = SpilledGroup::empty(PartitionId(17), 3);
        for s in 0..3u8 {
            for i in 0..5u64 {
                g.per_stream[s as usize].push(
                    TupleBuilder::new(StreamId(s))
                        .seq(i)
                        .ts(VirtualTime::from_millis(i * 30))
                        .value((i * 10 + s as u64) as i64)
                        .pad(64)
                        .build(),
                );
            }
        }
        g
    }

    #[test]
    fn round_trip() {
        let g = group();
        assert_eq!(SpilledGroup::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn heterogeneous_tuples_round_trip() {
        // Mixed value types, large seq/ts varints.
        let mut g = SpilledGroup::empty(PartitionId(300), 2);
        g.per_stream[0].push(
            TupleBuilder::new(StreamId(0))
                .seq(u64::MAX)
                .ts(VirtualTime::from_millis(1 << 40))
                .value("a long-ish text value")
                .value(-1i64)
                .value(2.5f64)
                .pad(1_000_000)
                .build(),
        );
        // Heterogeneous streams take the column block's per-stream row
        // fallback.
        assert_eq!(SpilledGroup::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn columnar_segment_is_smaller_on_regular_data() {
        let g = group();
        let rows: usize = g
            .per_stream
            .iter()
            .flatten()
            .map(crate::codec::encoded_tuple_len)
            .sum();
        assert!(
            g.encode().len() < rows,
            "column blocks should compress the regular spill shape"
        );
    }

    #[test]
    fn counts_and_sizes() {
        let g = group();
        assert_eq!(g.tuple_count(), 15);
        assert!(!g.is_empty());
        assert!(g.state_bytes() > 15 * 64, "pads must be accounted");
        let e = SpilledGroup::empty(PartitionId(0), 3);
        assert!(e.is_empty());
        assert_eq!(e.tuple_count(), 0);
        assert_eq!(e.state_bytes(), 0);
    }

    #[test]
    fn empty_group_round_trips() {
        let g = SpilledGroup::empty(PartitionId(3), 4);
        assert_eq!(SpilledGroup::decode(g.encode()).unwrap(), g);
    }

    #[test]
    fn bad_magic_rejected() {
        let g = group();
        let mut bytes = g.encode().to_vec();
        bytes[0] ^= 0xFF;
        assert!(SpilledGroup::decode(bytes.into()).is_err());
    }

    #[test]
    fn bad_version_rejected() {
        let g = group();
        // 1 is the retired row format; it must not be misread as blocks.
        for version in [1u8, 99] {
            let mut bytes = g.encode().to_vec();
            bytes[4] = version;
            assert!(SpilledGroup::decode(bytes.into()).is_err());
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let g = group();
        let mut bytes = g.encode().to_vec();
        bytes.push(0);
        assert!(SpilledGroup::decode(bytes.into()).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let g = group();
        let bytes = g.encode();
        for cut in [5usize, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SpilledGroup::decode(bytes.slice(..cut)).is_err(),
                "cut at {cut} should fail"
            );
        }
    }
}

#[cfg(test)]
mod fuzz_tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Segment decoding of arbitrary bytes must never panic.
        #[test]
        fn decode_segment_never_panics(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = SpilledGroup::decode(Bytes::from(data));
        }

        /// Corrupting any single byte of a valid segment either still
        /// round-trips (header-padding bits) or errors — never panics.
        #[test]
        fn bit_flips_never_panic(idx in 0usize..200, flip in 1u8..255) {
            let mut g = SpilledGroup::empty(PartitionId(3), 3);
            for s in 0..3u8 {
                for i in 0..4u64 {
                    g.per_stream[s as usize].push(
                        dcape_common::tuple::TupleBuilder::new(dcape_common::ids::StreamId(s))
                            .seq(i)
                            .value(i as i64)
                            .build(),
                    );
                }
            }
            let mut bytes = g.encode().to_vec();
            let idx = idx % bytes.len();
            bytes[idx] ^= flip;
            let _ = SpilledGroup::decode(bytes.into());
        }
    }
}
