//! Sliding-window join semantics (the intro's infinite-stream regime:
//! "the techniques we study … could also be applied to cases with
//! infinite data streams as long as operators have finite window
//! sizes").
//!
//! Invariants under test:
//! * results are exactly the same-key combinations whose timestamps all
//!   fit within the window (oracle comparison);
//! * purging frees the memory of expired tuples without affecting
//!   results;
//! * spill + cleanup stay exact for windowed queries — expired
//!   cross-slice combinations are NOT resurrected by the cleanup merge;
//! * a spilled partition is skipped by the purge only while it has
//!   segments: once reactivated, its expired tuples are purged.

use dcape_common::ids::{EngineId, PartitionId, StreamId};
use dcape_common::mem::HeapSize;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::{Tuple, TupleBuilder};
use dcape_engine::config::EngineConfig;
use dcape_engine::engine::QueryEngine;
use dcape_engine::sink::{CollectingSink, CountingSink};
use dcape_engine::state::partition_group::PER_TUPLE_OVERHEAD;

fn tpl(stream: u8, seq: u64, key: i64, ts_ms: u64) -> Tuple {
    TupleBuilder::new(StreamId(stream))
        .seq(seq)
        .ts(VirtualTime::from_millis(ts_ms))
        .value(key)
        .pad(64)
        .build()
}

/// Windowed reference join: all same-key triples whose max-min ts fits
/// the window.
fn windowed_reference(all: &[Tuple], window_ms: u64) -> Vec<Vec<(u8, u64)>> {
    let mut out = Vec::new();
    for a in all.iter().filter(|t| t.stream().0 == 0) {
        for b in all.iter().filter(|t| t.stream().0 == 1) {
            for c in all.iter().filter(|t| t.stream().0 == 2) {
                if a.get(0) != b.get(0) || b.get(0) != c.get(0) {
                    continue;
                }
                let ts = [a.ts().as_millis(), b.ts().as_millis(), c.ts().as_millis()];
                let span = ts.iter().max().unwrap() - ts.iter().min().unwrap();
                if span <= window_ms {
                    out.push(vec![(0, a.seq()), (1, b.seq()), (2, c.seq())]);
                }
            }
        }
    }
    out.sort();
    out
}

fn windowed_engine(window_ms: u64, threshold: u64) -> QueryEngine {
    let mut cfg = EngineConfig::three_way(1 << 30, threshold);
    cfg.join = cfg
        .join
        .with_window(VirtualDuration::from_millis(window_ms));
    // Check the spill trigger (and purge) frequently relative to the
    // sub-second windows these tests use.
    cfg.ss_timer = VirtualDuration::from_millis(200);
    QueryEngine::in_memory(EngineId(0), cfg).unwrap()
}

/// Deterministic pseudo-random workload across partitions/keys/time.
fn workload(n: u64) -> Vec<Tuple> {
    (0..n)
        .map(|i| {
            let mix = i
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let stream = (mix % 3) as u8;
            let key = ((mix >> 8) % 6) as i64;
            tpl(stream, i, key, i * 40) // 40 ms apart
        })
        .collect()
}

#[test]
fn windowed_join_matches_oracle() {
    let window_ms = 400; // ~10 tuples wide
    let all = workload(300);
    let mut engine = windowed_engine(window_ms, 1 << 29);
    let mut sink = CollectingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut sink).unwrap();
    }
    assert_eq!(sink.identities(), windowed_reference(&all, window_ms));
}

#[test]
fn purging_frees_memory_without_changing_results() {
    let window_ms = 400;
    let all = workload(400);
    // Engine A: no purging (never ticks).
    let mut a = windowed_engine(window_ms, 1 << 29);
    // Engine B: purges on every tick.
    let mut b = windowed_engine(window_ms, 1 << 29);
    let mut sink_a = CountingSink::new();
    let mut sink_b = CountingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        a.process(pid, t.clone(), &mut sink_a).unwrap();
        b.process(pid, t.clone(), &mut sink_b).unwrap();
        b.tick(t.ts()).unwrap();
    }
    assert_eq!(sink_a.count(), sink_b.count(), "purging changed results");
    assert!(
        b.memory_used() < a.memory_used() / 4,
        "purging should bound state: {} vs {}",
        b.memory_used(),
        a.memory_used()
    );
}

#[test]
fn windowed_spill_plus_cleanup_is_exact() {
    let window_ms = 600;
    let all = workload(400);
    // Tiny threshold: spills happen while the window is live.
    let mut engine = windowed_engine(window_ms, 1 << 10);
    let mut runtime = CollectingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut runtime).unwrap();
        engine.tick(t.ts()).unwrap();
    }
    assert!(
        !engine.spill_history().is_empty(),
        "threshold must force spills for this test"
    );
    let mut cleanup = CollectingSink::new();
    engine.cleanup(&mut cleanup).unwrap();
    let mut produced = runtime.identities();
    produced.extend(cleanup.identities());
    produced.sort();
    let reference = windowed_reference(&all, window_ms);
    assert_eq!(
        produced.len(),
        reference.len(),
        "windowed spill/cleanup produced wrong cardinality"
    );
    assert_eq!(produced, reference);
}

fn pid_of(t: &Tuple) -> PartitionId {
    PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32)
}

#[test]
fn reactivated_partition_leaves_the_skip_set_and_is_purged() {
    let window_ms = 600;
    let all = workload(400);
    let mut cfg = EngineConfig::three_way(1 << 30, 1 << 20).with_reactivation(0.5);
    cfg.join = cfg
        .join
        .with_window(VirtualDuration::from_millis(window_ms));
    cfg.ss_timer = VirtualDuration::from_millis(200);
    let mut engine = QueryEngine::in_memory(EngineId(0), cfg).unwrap();
    let mut sink = CollectingSink::new();
    let (before_spill, rest) = all.split_at(100);
    let (while_spilled, after) = rest.split_at(150);
    for t in before_spill {
        engine.process(pid_of(t), t.clone(), &mut sink).unwrap();
        engine.tick(t.ts()).unwrap();
    }

    // Spill while the window is live: the victims keep receiving
    // tuples, and the purge must skip them while their segments exist.
    let now = before_spill.last().unwrap().ts();
    let spilled = engine.force_spill(engine.memory_used() / 2, now).unwrap();
    assert!(
        !spilled.groups.is_empty(),
        "the forced spill must pick victims"
    );
    assert_eq!(engine.spilled_partitions(), {
        let mut pids = spilled.groups.clone();
        pids.sort_unstable();
        pids
    });
    for t in while_spilled {
        engine.process(pid_of(t), t.clone(), &mut sink).unwrap();
        engine.tick(t.ts()).unwrap();
        engine.assert_accounting_consistent().unwrap();
    }
    let now = while_spilled.last().unwrap().ts();
    let cutoff = now.as_millis() - window_ms;
    let seen = before_spill.len() + while_spilled.len();
    let bytes = |tuples: &[Tuple], pid: PartitionId, keep: &dyn Fn(&Tuple) -> bool| -> usize {
        tuples
            .iter()
            .filter(|t| pid_of(t) == pid && keep(t))
            .map(|t| t.heap_size() + PER_TUPLE_OVERHEAD)
            .sum()
    };
    let bytes_of = |engine: &QueryEngine, pid: PartitionId| {
        engine
            .join()
            .group_stats()
            .iter()
            .find(|g| g.pid == pid)
            .map_or(0, |g| g.bytes)
    };
    for &pid in &spilled.groups {
        // Skipped: every post-spill arrival is still resident, expired
        // ones included.
        assert_eq!(bytes_of(&engine, pid), bytes(while_spilled, pid, &|_| true));
        assert!(
            bytes(while_spilled, pid, &|t| t.ts().as_millis() < cutoff) > 0,
            "spilled partition {pid} must hold expired tuples the purge skipped"
        );
    }

    // Memory is far below the watermark: every spilled partition is
    // reactivated and leaves the skip set.
    let mut reactivated = 0;
    while engine.maybe_reactivate(&mut sink).unwrap().is_some() {
        reactivated += 1;
    }
    assert_eq!(reactivated, spilled.groups.len());
    assert!(engine.spilled_partitions().is_empty());
    engine.assert_accounting_consistent().unwrap();

    // The next pulse purges their expired tuples — the merged disk
    // slices and the resident ones alike. Whatever has `ts >= cutoff`
    // was never purged, so it is exactly what must remain.
    engine.tick(now).unwrap();
    engine.assert_accounting_consistent().unwrap();
    for &pid in &spilled.groups {
        let live = bytes(&all[..seen], pid, &|t| t.ts().as_millis() >= cutoff);
        assert_eq!(bytes_of(&engine, pid), live, "partition {pid} after purge");
    }
    assert_eq!(
        engine.memory_used() as usize,
        engine.join().recompute_state_bytes()
    );

    for t in after {
        engine.process(pid_of(t), t.clone(), &mut sink).unwrap();
        engine.tick(t.ts()).unwrap();
    }
    engine.assert_accounting_consistent().unwrap();
    let mut cleanup = CollectingSink::new();
    engine.cleanup(&mut cleanup).unwrap();
    let mut produced = sink.identities();
    produced.extend(cleanup.identities());
    produced.sort();
    assert_eq!(produced, windowed_reference(&all, window_ms));
}

#[test]
fn zero_width_window_only_matches_same_timestamp() {
    let mut engine = windowed_engine(0, 1 << 29);
    let mut sink = CountingSink::new();
    let pid = PartitionId(0);
    // Same timestamp: joins.
    engine.process(pid, tpl(0, 0, 1, 100), &mut sink).unwrap();
    engine.process(pid, tpl(1, 1, 1, 100), &mut sink).unwrap();
    engine.process(pid, tpl(2, 2, 1, 100), &mut sink).unwrap();
    assert_eq!(sink.count(), 1);
    // Different timestamp: no new joins.
    engine.process(pid, tpl(0, 3, 1, 101), &mut sink).unwrap();
    assert_eq!(sink.count(), 1);
}

#[test]
fn unwindowed_engine_unaffected() {
    // Regression guard: window = None behaves exactly as before.
    let all = workload(200);
    let mut engine =
        QueryEngine::in_memory(EngineId(0), EngineConfig::three_way(1 << 30, 1 << 29)).unwrap();
    let mut sink = CountingSink::new();
    for t in &all {
        let pid = PartitionId((t.get(0).unwrap().as_int().unwrap() % 4) as u32);
        engine.process(pid, t.clone(), &mut sink).unwrap();
        engine.tick(t.ts()).unwrap();
    }
    let unwindowed_reference = windowed_reference(&all, u64::MAX);
    assert_eq!(sink.count() as usize, unwindowed_reference.len());
}
