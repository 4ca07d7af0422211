//! The reference answer of a run, computed straight from the generator.
//!
//! Every runtime (the deterministic sim, the threaded driver, the
//! socket cluster) is checked against this module: the paper's
//! correctness bar is that run-time plus cleanup results equal the
//! naive m-way equi-join of the input, each result exactly once.
//!
//! The oracle is deliberately independent of the engine: it regenerates
//! the input with [`StreamSetGenerator`], groups tuples by join key and
//! applies the sliding-window rule itself — a combination (one tuple per
//! stream, equal join keys) is a result iff `max ts − min ts ≤ W`, or
//! always when no window is configured. It shares no code with the
//! join, the probe, the spill codecs or the cleanup merge, so a bug
//! there cannot hide by also being in the reference.
//!
//! [`expected`] counts results without enumerating them (per-key
//! products; windowed, each combination is counted once at its earliest
//! tuple). [`expected_digest`] also enumerates every result into a
//! [`ResultDigest`], an order-independent multiset digest of the
//! results' `(stream, seq)` identities, for collecting runs.

use std::collections::HashMap;

use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;

use crate::generator::StreamSetGenerator;
use crate::spec::StreamSetSpec;

/// The exact outcome every runtime must reproduce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// Tuples the source emits before the deadline; every runtime
    /// routes exactly these.
    pub tuples: u64,
    /// Join results over both phases (run time plus cleanup).
    pub results: u64,
}

/// Order-independent digest of a result multiset.
///
/// Each result is reduced to its identity — the `(stream, seq)` pairs
/// of its parts in stream order — hashed, and the hashes are summed, so
/// two multisets digest equal regardless of emission order, and a lost
/// or duplicated result changes both the count and the sum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResultDigest {
    /// Number of results folded in.
    pub results: u64,
    /// Wrapping sum of the results' identity hashes.
    pub sum: u64,
}

impl ResultDigest {
    /// Fold in one result, given as its parts' `(stream, seq)` pairs in
    /// stream order.
    pub fn insert(&mut self, parts: impl IntoIterator<Item = (u8, u64)>) {
        let mut h = 0x243F_6A88_85A3_08D3u64;
        for (stream, seq) in parts {
            h = mix(h ^ mix(seq ^ (u64::from(stream) << 56)));
        }
        self.results += 1;
        self.sum = self.sum.wrapping_add(h);
    }

    /// Digest of materialized results (one tuple per stream, in stream
    /// order, as a collecting sink stores them).
    pub fn of_results<'a, R>(results: impl IntoIterator<Item = &'a R>) -> Self
    where
        R: AsRef<[Tuple]> + 'a + ?Sized,
    {
        let mut digest = ResultDigest::default();
        for r in results {
            digest.insert(r.as_ref().iter().map(|t| (t.stream().0, t.seq())));
        }
        digest
    }
}

/// The splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The generator's output up to `deadline`.
fn generate(spec: &StreamSetSpec, deadline: VirtualTime) -> Vec<Tuple> {
    StreamSetGenerator::new(spec.clone())
        .expect("oracle needs a valid workload spec")
        .generate_until(deadline)
}

/// Tuple count and exact result count of the join of `spec`'s streams
/// up to `deadline`, under an optional sliding window.
pub fn expected(
    spec: &StreamSetSpec,
    window: Option<VirtualDuration>,
    deadline: VirtualTime,
) -> Expected {
    let tuples = generate(spec, deadline);
    Expected {
        tuples: tuples.len() as u64,
        results: count_results(&tuples, spec.num_streams, window),
    }
}

/// [`expected`] plus the digest of every result. Enumerates, so keep it
/// to runs whose output fits a collecting sink anyway.
pub fn expected_digest(
    spec: &StreamSetSpec,
    window: Option<VirtualDuration>,
    deadline: VirtualTime,
) -> (Expected, ResultDigest) {
    let tuples = generate(spec, deadline);
    let digest = digest_results(&tuples, spec.num_streams, window);
    let expected = Expected {
        tuples: tuples.len() as u64,
        results: digest.results,
    };
    (expected, digest)
}

/// Per join key, per stream: the key's tuples as `(ts ms, seq)`, sorted
/// by timestamp.
fn by_key(tuples: &[Tuple], num_streams: usize) -> HashMap<i64, Vec<Vec<(u64, u64)>>> {
    let mut keys: HashMap<i64, Vec<Vec<(u64, u64)>>> = HashMap::new();
    for t in tuples {
        let key = t.values()[StreamSetGenerator::JOIN_COLUMN]
            .as_int()
            .expect("generator join values are integers");
        let stream = t.stream().index();
        assert!(
            stream < num_streams,
            "tuple of stream {stream} in a {num_streams}-way join"
        );
        keys.entry(key)
            .or_insert_with(|| vec![Vec::new(); num_streams])[stream]
            .push((t.ts().as_millis(), t.seq()));
    }
    for lists in keys.values_mut() {
        for l in lists.iter_mut() {
            l.sort_unstable();
        }
    }
    keys
}

/// Exact result count of the `num_streams`-way equi-join of `tuples`
/// on the generator's join column.
///
/// Unwindowed: per key, the product of the per-stream counts.
/// Windowed: every result has a unique earliest part under the order
/// `(ts, stream)`; each tuple is counted as that earliest part of
/// `∏ |partners in [ts, ts + W]|` results, where partners from
/// lower-numbered streams must be strictly later (the tie-break).
pub fn count_results(tuples: &[Tuple], num_streams: usize, window: Option<VirtualDuration>) -> u64 {
    let keys = by_key(tuples, num_streams);
    let Some(window) = window else {
        return keys
            .values()
            .map(|lists| lists.iter().map(|l| l.len() as u64).product::<u64>())
            .sum();
    };
    let w = window.as_millis();
    let mut total = 0u64;
    for lists in keys.values() {
        for (s, list) in lists.iter().enumerate() {
            for &(ts, _) in list {
                let mut product = 1u64;
                for (other, partners) in lists.iter().enumerate() {
                    if other == s {
                        continue;
                    }
                    let lo = if other < s {
                        partners.partition_point(|&(x, _)| x <= ts)
                    } else {
                        partners.partition_point(|&(x, _)| x < ts)
                    };
                    let hi = partners.partition_point(|&(x, _)| x <= ts + w);
                    product *= hi.saturating_sub(lo) as u64;
                    if product == 0 {
                        break;
                    }
                }
                total += product;
            }
        }
    }
    total
}

/// Digest of every result of the join [`count_results`] counts,
/// enumerated one by one (pruned by the window as parts are chosen).
pub fn digest_results(
    tuples: &[Tuple],
    num_streams: usize,
    window: Option<VirtualDuration>,
) -> ResultDigest {
    fn walk(
        lists: &[Vec<(u64, u64)>],
        w: Option<u64>,
        span: Option<(u64, u64)>,
        chosen: &mut Vec<u64>,
        digest: &mut ResultDigest,
    ) {
        let s = chosen.len();
        if s == lists.len() {
            digest.insert(chosen.iter().enumerate().map(|(s, &seq)| (s as u8, seq)));
            return;
        }
        for &(ts, seq) in &lists[s] {
            let (lo, hi) = span.map_or((ts, ts), |(lo, hi)| (lo.min(ts), hi.max(ts)));
            if w.is_some_and(|w| hi - lo > w) {
                continue;
            }
            chosen.push(seq);
            walk(lists, w, Some((lo, hi)), chosen, digest);
            chosen.pop();
        }
    }
    let w = window.map(|w| w.as_millis());
    let mut digest = ResultDigest::default();
    let mut chosen = Vec::with_capacity(num_streams);
    for lists in by_key(tuples, num_streams).values() {
        walk(lists, w, None, &mut chosen, &mut digest);
    }
    digest
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcape_common::ids::StreamId;
    use dcape_common::tuple::TupleBuilder;
    use proptest::prelude::*;

    fn tpl(stream: u8, seq: u64, ts: u64, key: i64) -> Tuple {
        TupleBuilder::new(StreamId(stream))
            .seq(seq)
            .ts(VirtualTime::from_millis(ts))
            .value(key)
            .build()
    }

    /// Every combination of one tuple per stream, filtered by equal
    /// keys and the window rule — the definition, with no cleverness.
    fn brute_force(tuples: &[Tuple], m: usize, window: Option<u64>) -> ResultDigest {
        let per_stream: Vec<Vec<&Tuple>> = (0..m)
            .map(|s| tuples.iter().filter(|t| t.stream().index() == s).collect())
            .collect();
        let mut digest = ResultDigest::default();
        let mut idx = vec![0usize; m];
        if per_stream.iter().any(Vec::is_empty) {
            return digest;
        }
        loop {
            let parts: Vec<&Tuple> = (0..m).map(|s| per_stream[s][idx[s]]).collect();
            let key = parts[0].values()[0].as_int();
            let same_key = parts.iter().all(|t| t.values()[0].as_int() == key);
            let ts: Vec<u64> = parts.iter().map(|t| t.ts().as_millis()).collect();
            let span = ts.iter().max().unwrap() - ts.iter().min().unwrap();
            if same_key && window.is_none_or(|w| span <= w) {
                digest.insert(parts.iter().map(|t| (t.stream().0, t.seq())));
            }
            // Odometer increment over the per-stream indices.
            let mut s = 0;
            loop {
                idx[s] += 1;
                if idx[s] < per_stream[s].len() {
                    break;
                }
                idx[s] = 0;
                s += 1;
                if s == m {
                    return digest;
                }
            }
        }
    }

    fn small_input(m: usize) -> impl Strategy<Value = Vec<Tuple>> {
        proptest::collection::vec((0..m as u8, 0u64..40, 0i64..3), 0..24).prop_map(|raw| {
            raw.into_iter()
                .enumerate()
                .map(|(i, (s, ts, key))| tpl(s, i as u64, ts, key))
                .collect()
        })
    }

    fn check(
        tuples: &[Tuple],
        m: usize,
        window: Option<u64>,
    ) -> std::result::Result<(), TestCaseError> {
        let w = window.map(VirtualDuration::from_millis);
        let reference = brute_force(tuples, m, window);
        prop_assert_eq!(count_results(tuples, m, w), reference.results);
        prop_assert_eq!(digest_results(tuples, m, w), reference);
        Ok(())
    }

    proptest! {
        #[test]
        fn two_way_matches_brute_force(tuples in small_input(2), window in 0u64..15) {
            check(&tuples, 2, None)?;
            check(&tuples, 2, Some(window))?;
        }

        #[test]
        fn three_way_matches_brute_force(tuples in small_input(3), window in 0u64..15) {
            check(&tuples, 3, None)?;
            check(&tuples, 3, Some(window))?;
        }
    }

    #[test]
    fn equal_timestamps_are_counted_once() {
        // Three streams, all at the same instant: exactly one result,
        // whichever part the tie-break calls earliest.
        let tuples: Vec<Tuple> = (0..3).map(|s| tpl(s, 0, 100, 7)).collect();
        assert_eq!(
            count_results(&tuples, 3, Some(VirtualDuration::from_millis(0))),
            1
        );
        assert_eq!(count_results(&tuples, 3, None), 1);
    }

    #[test]
    fn digest_sees_identity_not_order() {
        let mut a = ResultDigest::default();
        a.insert([(0, 1), (1, 2)]);
        a.insert([(0, 3), (1, 4)]);
        let mut b = ResultDigest::default();
        b.insert([(0, 3), (1, 4)]);
        b.insert([(0, 1), (1, 2)]);
        assert_eq!(a, b);
        let mut c = ResultDigest::default();
        c.insert([(0, 1), (1, 4)]);
        c.insert([(0, 3), (1, 2)]);
        assert_ne!(a, c, "regrouped parts are different results");
    }

    #[test]
    fn generated_runs_count_like_they_enumerate() {
        let spec = StreamSetSpec::uniform(8, 400, 2, VirtualDuration::from_millis(30)).with_seed(5);
        let deadline = VirtualTime::from_secs(40);
        for window in [None, Some(VirtualDuration::from_secs(5))] {
            let counted = expected(&spec, window, deadline);
            let (enumerated, digest) = expected_digest(&spec, window, deadline);
            assert_eq!(counted, enumerated);
            assert_eq!(digest.results, counted.results);
            assert!(counted.results > 0);
        }
    }
}
