//! The four fixed workloads and their independent reference counts.
//!
//! Each workload is a complete `SimConfig` (2 engines) plus the virtual
//! duration one run covers. The reference count is computed from the
//! generator's output alone — no engine, split or probe code — so every
//! runtime and the traced replay are checked against the same oracle.

use std::collections::HashMap;

use dcape_cluster::runtime::sim::SimConfig;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::ids::PartitionId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_common::tuple::Tuple;
use dcape_engine::config::EngineConfig;
use dcape_repro::scale;
use dcape_streamgen::{ArrivalPattern, StreamSetGenerator, StreamSetSpec};

/// Every workload runs on this many engines: one engine thread or
/// worker process per core of the 2-vCPU reference box.
pub const ENGINES: usize = 2;

/// Spill threshold of the all-in-memory workloads: far above the state
/// a run accumulates (the paper's 200 MB threshold still spills on 2
/// engines at 60 virtual minutes).
const ROOMY_THRESHOLD: u64 = 8 << 30;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = [
    "allmem_join",
    "windowed_stream",
    "spill_cleanup",
    "skew_relocate",
];

/// One named workload instance.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name as given on the command line.
    pub name: &'static str,
    /// The complete run configuration.
    pub cfg: SimConfig,
    /// Virtual duration of one run.
    pub deadline: VirtualTime,
    /// Whether the workload is defined to never spill.
    pub never_spills: bool,
}

impl Workload {
    /// Build a workload by name. `seed` overrides the stream seed;
    /// `None` keeps the workload's own default.
    pub fn by_name(name: &str, seed: Option<u64>) -> Option<Workload> {
        let (name, mut cfg, deadline, never_spills) = match name {
            "allmem_join" => (
                NAMES[0],
                SimConfig::new(
                    ENGINES,
                    EngineConfig::three_way(scale::budget_for(ROOMY_THRESHOLD), ROOMY_THRESHOLD),
                    scale::paper_workload(),
                    StrategyConfig::NoAdaptation,
                ),
                VirtualTime::from_mins(60),
                true,
            ),
            "windowed_stream" => {
                let mut engine =
                    EngineConfig::three_way(scale::budget_for(ROOMY_THRESHOLD), ROOMY_THRESHOLD);
                engine.join = engine.join.with_window(VirtualDuration::from_secs(60));
                (
                    NAMES[1],
                    SimConfig::new(
                        ENGINES,
                        engine,
                        scale::paper_workload(),
                        StrategyConfig::NoAdaptation,
                    ),
                    VirtualTime::from_mins(30),
                    true,
                )
            }
            "spill_cleanup" => (
                NAMES[2],
                SimConfig::new(
                    ENGINES,
                    EngineConfig::three_way(4 << 20, 600 << 10).with_spill_fraction(0.4),
                    StreamSetSpec::uniform(24, 2_400, 1, VirtualDuration::from_millis(30))
                        .with_payload_blob(1024)
                        .with_seed(7),
                    StrategyConfig::NoAdaptation,
                )
                .with_stats_interval(VirtualDuration::from_secs(30)),
                VirtualTime::from_mins(30),
                false,
            ),
            "skew_relocate" => {
                let group_a: Vec<PartitionId> = (0..16).map(PartitionId).collect();
                (
                    NAMES[3],
                    SimConfig::new(
                        ENGINES,
                        EngineConfig::three_way(1 << 30, 1 << 29),
                        StreamSetSpec::uniform(32, 6_000, 1, VirtualDuration::from_millis(30))
                            .with_payload_pad(256)
                            .with_pattern(ArrivalPattern::AlternatingSkew {
                                group_a,
                                ratio: 10.0,
                                period: VirtualDuration::from_mins(5),
                            }),
                        StrategyConfig::LazyDisk {
                            theta_r: 0.9,
                            tau_m: VirtualDuration::from_secs(45),
                        },
                    )
                    .with_placement(PlacementSpec::Fractions(vec![0.5, 0.5]))
                    .with_stats_interval(VirtualDuration::from_secs(45)),
                    VirtualTime::from_mins(100),
                    true,
                )
            }
            _ => return None,
        };
        if let Some(seed) = seed {
            cfg.workload = cfg.workload.with_seed(seed);
        }
        Some(Workload {
            name,
            cfg,
            deadline,
            never_spills,
        })
    }

    /// Back-to-back runs of each runtime (sim, threaded, socket) in one
    /// round of the end-to-end measurement, so that each runtime gets a
    /// similar share of the measured time. Only `windowed_stream` needs
    /// more than one: its sim run takes ~0.7 s, its threaded and socket
    /// runs ~0.2 s.
    pub fn runs_per_round(&self) -> [usize; 3] {
        match self.name {
            "windowed_stream" => [1, 4, 3],
            _ => [1, 1, 1],
        }
    }
}

/// What the generator produces for one run, and how many results the
/// join must deliver for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// Tuples the source emits before the deadline (all runtimes route
    /// exactly these).
    pub tuples: u64,
    /// Total join results over both phases.
    pub results: u64,
}

/// Compute the reference for a workload straight from the generator.
///
/// Unwindowed: per join key, the product of per-stream tuple counts.
/// Windowed: per join key, the triples whose timestamps span at most
/// the window (the engine's `within_window` rule), counted by a direct
/// nested scan over each key's timestamp lists.
pub fn reference(w: &Workload) -> Reference {
    let mut gen = StreamSetGenerator::new(w.cfg.workload.clone()).expect("valid workload spec");
    let tuples = gen.generate_until(w.deadline);
    let streams = w.cfg.workload.num_streams;
    assert_eq!(streams, 3, "reference counts three-way joins");
    let mut per_key: HashMap<i64, [Vec<u64>; 3]> = HashMap::new();
    for t in &tuples {
        per_key.entry(join_key(t)).or_default()[t.stream().index()].push(t.ts().as_millis());
    }
    let results = match w.cfg.engine.join.window {
        None => per_key
            .values()
            .map(|lists| lists.iter().map(|l| l.len() as u64).product::<u64>())
            .sum(),
        Some(window) => {
            let w_ms = window.as_millis();
            per_key
                .values_mut()
                .map(|lists| {
                    for l in lists.iter_mut() {
                        l.sort_unstable();
                    }
                    windowed_triples(lists, w_ms)
                })
                .sum()
        }
    };
    Reference {
        tuples: tuples.len() as u64,
        results,
    }
}

fn join_key(t: &Tuple) -> i64 {
    t.values()[StreamSetGenerator::JOIN_COLUMN]
        .as_int()
        .expect("generator join keys are integers")
}

/// Triples `(a, b, c)`, one timestamp from each sorted list, with
/// `max - min <= w`. For each pair `(a, b)` within `w` of each other,
/// `c` must lie in `[max(a, b) - w, min(a, b) + w]`.
fn windowed_triples(lists: &[Vec<u64>; 3], w: u64) -> u64 {
    let [l0, l1, l2] = lists;
    let count_in = |l: &[u64], lo: u64, hi: u64| {
        (l.partition_point(|&x| x <= hi) - l.partition_point(|&x| x < lo)) as u64
    };
    let mut total = 0;
    for &a in l0 {
        let lo = a.saturating_sub(w);
        let start = l1.partition_point(|&x| x < lo);
        for &b in &l1[start..] {
            if b > a + w {
                break;
            }
            let (min, max) = (a.min(b), a.max(b));
            total += count_in(l2, max.saturating_sub(w), min + w);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_triples_matches_brute_force() {
        let lists = [vec![0, 10, 10, 50], vec![5, 10, 70], vec![0, 20, 60, 61]];
        for w in [0, 5, 10, 20, 60, 100] {
            let mut brute = 0;
            for &a in &lists[0] {
                for &b in &lists[1] {
                    for &c in &lists[2] {
                        if a.max(b).max(c) - a.min(b).min(c) <= w {
                            brute += 1;
                        }
                    }
                }
            }
            assert_eq!(windowed_triples(&lists, w), brute, "w = {w}");
        }
    }

    #[test]
    fn every_name_builds() {
        for name in NAMES {
            let w = Workload::by_name(name, Some(3)).unwrap();
            assert_eq!(w.cfg.num_engines, ENGINES);
            assert_eq!(w.cfg.workload.seed, 3);
        }
        assert!(Workload::by_name("nope", None).is_none());
    }
}
