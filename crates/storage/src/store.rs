//! The spill store: per-partition segment registry + I/O statistics.
//!
//! Each query engine owns one [`SpillStore`]. The state-spill adaptation
//! pushes partition groups through [`SpillStore::spill_group`]; the
//! cleanup phase (§3: "organize the disk resident partition groups based
//! on their partition ID, merge partition groups with the same partition
//! ID and generate missing results") drains them back in spill order via
//! [`SpillStore::take_segments`].
//!
//! Note that "multiple partition groups may exist given one partition
//! ID" (§3): after a group is spilled, new tuples with the same ID
//! accumulate into a fresh in-memory group which may be spilled again —
//! hence a *list* of segments per partition.

use bytes::Bytes;

use dcape_common::error::Result;
use dcape_common::hash::FxHashMap;
use dcape_common::ids::PartitionId;

use crate::backend::{SegmentHandle, SpillBackend};
use crate::segment::SpilledGroup;

/// Metadata retained in memory for one spilled segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMeta {
    /// Backend handle for retrieval.
    pub handle: SegmentHandle,
    /// Physically encoded bytes (what hit the backend).
    pub encoded_bytes: u64,
    /// Accounted state bytes (including `Pad` virtual payloads) — the
    /// amount the memory tracker was credited, and what the disk cost
    /// model charges for.
    pub state_bytes: u64,
    /// Tuples in the segment.
    pub tuples: u64,
}

/// Cumulative I/O statistics of one spill store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Number of segments written.
    pub segments_written: u64,
    /// Number of segments read back.
    pub segments_read: u64,
    /// Encoded bytes written.
    pub encoded_bytes_written: u64,
    /// Encoded bytes read.
    pub encoded_bytes_read: u64,
    /// Accounted state bytes written (drives the disk cost model).
    pub state_bytes_written: u64,
    /// Accounted state bytes read.
    pub state_bytes_read: u64,
    /// Tuples written.
    pub tuples_written: u64,
}

/// Registry of spilled segments for one query engine.
#[derive(Debug)]
pub struct SpillStore {
    backend: Box<dyn SpillBackend>,
    /// Spill-order list of segments per partition ID.
    segments: FxHashMap<PartitionId, Vec<SegmentMeta>>,
    stats: SpillStats,
}

impl SpillStore {
    /// Create a store over the given backend.
    pub fn new(backend: Box<dyn SpillBackend>) -> Self {
        SpillStore {
            backend,
            segments: FxHashMap::default(),
            stats: SpillStats::default(),
        }
    }

    /// Convenience: store over a fresh in-memory backend.
    pub fn in_memory() -> Self {
        Self::new(Box::new(crate::backend::MemBackend::new()))
    }

    /// Spill one partition group; returns its segment metadata.
    pub fn spill_group(&mut self, group: &SpilledGroup) -> Result<SegmentMeta> {
        let bytes = group.encode();
        let state_bytes = group.state_bytes() as u64;
        let handle = self.backend.write_segment(&bytes)?;
        let meta = SegmentMeta {
            handle,
            encoded_bytes: bytes.len() as u64,
            state_bytes,
            tuples: group.tuple_count() as u64,
        };
        self.segments.entry(group.partition).or_default().push(meta);
        self.stats.segments_written += 1;
        self.stats.encoded_bytes_written += meta.encoded_bytes;
        self.stats.state_bytes_written += meta.state_bytes;
        self.stats.tuples_written += meta.tuples;
        Ok(meta)
    }

    /// Partitions that currently have disk-resident segments, sorted for
    /// deterministic cleanup order.
    pub fn partitions_with_segments(&self) -> Vec<PartitionId> {
        let mut pids: Vec<PartitionId> = self.segment_lists().map(|(pid, _)| pid).collect();
        pids.sort_unstable();
        pids
    }

    /// Every partition with disk-resident segments and its segment
    /// metadata, in arbitrary order (no allocation, no sort).
    pub fn segment_lists(&self) -> impl Iterator<Item = (PartitionId, &[SegmentMeta])> {
        self.segments
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(pid, v)| (*pid, v.as_slice()))
    }

    /// Segment metadata for one partition, in spill order.
    pub fn segments_of(&self, pid: PartitionId) -> &[SegmentMeta] {
        self.segments.get(&pid).map_or(&[], Vec::as_slice)
    }

    /// Total number of disk-resident segments.
    pub fn segment_count(&self) -> usize {
        self.segments.values().map(Vec::len).sum()
    }

    /// Total accounted state bytes currently on disk.
    pub fn state_bytes_on_disk(&self) -> u64 {
        self.segments
            .values()
            .flat_map(|v| v.iter())
            .map(|m| m.state_bytes)
            .sum()
    }

    /// Read back and remove all segments of `pid`, in spill order
    /// (consumed by the cleanup phase).
    pub fn take_segments(&mut self, pid: PartitionId) -> Result<Vec<SpilledGroup>> {
        let metas = self.segments.remove(&pid).unwrap_or_default();
        let mut groups = Vec::with_capacity(metas.len());
        for meta in metas {
            let bytes: Bytes = self.backend.read_segment(meta.handle)?;
            self.stats.segments_read += 1;
            self.stats.encoded_bytes_read += bytes.len() as u64;
            self.stats.state_bytes_read += meta.state_bytes;
            let group = SpilledGroup::decode(bytes)?;
            self.backend.delete_segment(meta.handle)?;
            groups.push(group);
        }
        Ok(groups)
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> SpillStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::time::VirtualTime;
    use dcape_common::tuple::TupleBuilder;

    fn group(pid: u32, n: u64) -> SpilledGroup {
        let mut g = SpilledGroup::empty(PartitionId(pid), 2);
        for s in 0..2u8 {
            for i in 0..n {
                g.per_stream[s as usize].push(
                    TupleBuilder::new(StreamId(s))
                        .seq(i)
                        .ts(VirtualTime::from_millis(i))
                        .value(i as i64)
                        .pad(100)
                        .build(),
                );
            }
        }
        g
    }

    #[test]
    fn spill_and_take_round_trip_in_order() {
        let mut store = SpillStore::in_memory();
        let g1 = group(5, 3);
        let g2 = group(5, 7);
        store.spill_group(&g1).unwrap();
        store.spill_group(&g2).unwrap();
        assert_eq!(store.segment_count(), 2);
        let back = store.take_segments(PartitionId(5)).unwrap();
        assert_eq!(back, vec![g1, g2]);
        assert_eq!(store.segment_count(), 0);
        assert!(store.take_segments(PartitionId(5)).unwrap().is_empty());
    }

    #[test]
    fn partitions_listed_sorted() {
        let mut store = SpillStore::in_memory();
        for pid in [9u32, 2, 5] {
            store.spill_group(&group(pid, 1)).unwrap();
        }
        assert_eq!(
            store.partitions_with_segments(),
            vec![PartitionId(2), PartitionId(5), PartitionId(9)]
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut store = SpillStore::in_memory();
        let g = group(1, 4);
        let meta = store.spill_group(&g).unwrap();
        assert_eq!(meta.tuples, 8);
        assert_eq!(meta.state_bytes, g.state_bytes() as u64);
        assert!(meta.encoded_bytes > 0);
        // Pads: state bytes ≫ encoded bytes (virtual payload).
        assert!(meta.state_bytes > meta.encoded_bytes);
        let s = store.stats();
        assert_eq!(s.segments_written, 1);
        assert_eq!(s.tuples_written, 8);
        assert_eq!(s.state_bytes_written, meta.state_bytes);
        let _ = store.take_segments(PartitionId(1)).unwrap();
        let s = store.stats();
        assert_eq!(s.segments_read, 1);
        assert_eq!(s.state_bytes_read, meta.state_bytes);
        assert_eq!(s.encoded_bytes_read, meta.encoded_bytes);
    }

    #[test]
    fn state_bytes_on_disk_tracks_live_segments() {
        let mut store = SpillStore::in_memory();
        let m1 = store.spill_group(&group(1, 2)).unwrap();
        let m2 = store.spill_group(&group(2, 3)).unwrap();
        assert_eq!(store.state_bytes_on_disk(), m1.state_bytes + m2.state_bytes);
        store.take_segments(PartitionId(1)).unwrap();
        assert_eq!(store.state_bytes_on_disk(), m2.state_bytes);
    }

    #[test]
    fn segments_of_reports_metadata() {
        let mut store = SpillStore::in_memory();
        store.spill_group(&group(3, 1)).unwrap();
        store.spill_group(&group(3, 2)).unwrap();
        let metas = store.segments_of(PartitionId(3));
        assert_eq!(metas.len(), 2);
        assert!(metas[0].tuples < metas[1].tuples);
        assert!(store.segments_of(PartitionId(99)).is_empty());
    }

    #[test]
    fn file_backend_store_round_trips() {
        let dir = std::env::temp_dir().join(format!("dcape-store-{}", std::process::id()));
        let mut store = SpillStore::new(Box::new(crate::backend::FileBackend::new(&dir).unwrap()));
        let g = group(11, 5);
        store.spill_group(&g).unwrap();
        let back = store.take_segments(PartitionId(11)).unwrap();
        assert_eq!(back, vec![g]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
