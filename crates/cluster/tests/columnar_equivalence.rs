//! Property-based equivalence of the columnar and row state layouts.
//!
//! The struct-of-arrays partition-group layout is a pure performance
//! transform: for any workload — windowed or not, skewed or not, with
//! real blob payloads, spills, relocations, and chaos faults — it must
//! produce the same per-group `P_output`, the same adaptation history,
//! and the same journal byte-volume totals as the row layout, and both
//! layouts must produce exactly the oracle's result multiset, on both
//! the simulated and the threaded runtime.

use proptest::prelude::*;

use dcape_cluster::faults::{FaultConfig, FaultPlan};
use dcape_cluster::runtime::sim::{SimConfig, SimDriver, SimReport};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_cluster::PlacementSpec;
use dcape_common::ids::PartitionId;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::{EngineConfig, StateLayout};
use dcape_streamgen::oracle::{self, ResultDigest};
use dcape_streamgen::{ArrivalPattern, StreamSetSpec};

/// Proptest case count, overridable for CI stress runs (see
/// `count_equivalence.rs` for why the env var is read by hand).
fn cases(default: u32) -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The knobs a single equivalence case explores.
#[derive(Debug, Clone)]
struct CaseParams {
    seed: u64,
    num_partitions: u32,
    tuple_range: u64,
    /// Real blob payload bytes (0 = none) — exercises the payload
    /// arena and the dictionary column encoder.
    payload_blob: u32,
    skewed: bool,
    tight_memory: bool,
    active_disk: bool,
    num_engines: usize,
    window_ms: Option<u64>,
}

fn case_strategy() -> impl Strategy<Value = CaseParams> {
    (
        (0u64..1_000, 8u32..33, 200u64..2401, 0u32..513),
        (any::<bool>(), any::<bool>(), any::<bool>(), 2usize..4),
        (any::<bool>(), 200u64..120_000),
    )
        .prop_map(
            |(
                (seed, num_partitions, tuple_range, payload_blob),
                (skewed, tight_memory, active_disk, num_engines),
                (windowed, window_raw),
            )| CaseParams {
                seed,
                num_partitions,
                tuple_range,
                payload_blob,
                skewed,
                tight_memory,
                active_disk,
                num_engines,
                window_ms: windowed.then_some(window_raw),
            },
        )
}

fn build_config(p: &CaseParams, layout: StateLayout) -> SimConfig {
    let mut spec = StreamSetSpec::uniform(
        p.num_partitions,
        p.tuple_range,
        1,
        VirtualDuration::from_millis(30),
    )
    .with_payload_blob(p.payload_blob)
    .with_seed(p.seed);
    if p.skewed {
        let group_a: Vec<PartitionId> = (0..p.num_partitions / 4).map(PartitionId).collect();
        spec = spec.with_pattern(ArrivalPattern::AlternatingSkew {
            group_a,
            ratio: 8.0,
            period: VirtualDuration::from_mins(1),
        });
    }
    let mut engine = if p.tight_memory {
        EngineConfig::three_way(1 << 22, 600 << 10).with_spill_fraction(0.4)
    } else {
        EngineConfig::three_way(1 << 30, 1 << 29)
    };
    engine = engine.with_layout(layout);
    if let Some(w) = p.window_ms {
        engine.join = engine.join.with_window(VirtualDuration::from_millis(w));
    }
    let strategy = if p.active_disk {
        StrategyConfig::ActiveDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
            lambda: 1.5,
            spill_fraction: 0.3,
            force_spill_cap: 1 << 20,
        }
    } else {
        StrategyConfig::LazyDisk {
            theta_r: 0.8,
            tau_m: VirtualDuration::from_secs(45),
        }
    };
    let mut cfg = SimConfig::new(p.num_engines, engine, spec, strategy)
        .with_stats_interval(VirtualDuration::from_secs(30))
        .with_journal();
    if p.num_engines == 2 {
        cfg = cfg.with_placement(PlacementSpec::Fractions(vec![0.7, 0.3]));
    }
    cfg
}

/// Per-engine `(pid, bytes, P_output)` triples of every resident group —
/// the layout must leave memory accounting and productivity untouched.
type GroupOutputs = Vec<Vec<(PartitionId, usize, u64)>>;

fn group_outputs(driver: &SimDriver) -> GroupOutputs {
    driver
        .engines()
        .iter()
        .map(|e| {
            e.join()
                .group_stats()
                .iter()
                .map(|g| (g.pid, g.bytes, g.output))
                .collect()
        })
        .collect()
}

fn run_sim(cfg: SimConfig, deadline: VirtualTime) -> (SimReport, GroupOutputs) {
    let mut driver = SimDriver::new(cfg).unwrap();
    driver.run_until(deadline).unwrap();
    let groups = group_outputs(&driver);
    (driver.finish().unwrap(), groups)
}

/// Digest of the collected result multiset, both phases.
fn result_multiset(report: &SimReport) -> ResultDigest {
    let runtime = report.runtime_results.as_ref().unwrap().results();
    let cleanup = report.cleanup_results.as_ref().unwrap().results();
    ResultDigest::of_results(runtime.iter().chain(cleanup))
}

/// The oracle's total for a case.
fn oracle_total(p: &CaseParams, deadline: VirtualTime) -> u64 {
    let cfg = build_config(p, StateLayout::Columnar);
    oracle::expected(&cfg.workload, cfg.engine.join.window, deadline).results
}

proptest! {
    // Each case runs the full simulation several times; keep the
    // default count small (CI stress runs raise it via PROPTEST_CASES).
    #![proptest_config(ProptestConfig {
        cases: cases(6),
        ..ProptestConfig::default()
    })]

    /// For arbitrary workloads the columnar sim run is observationally
    /// identical to the row-layout run: same per-group `P_output` and
    /// accounted bytes, same adaptation history, same spill multiset
    /// (counts and byte volumes), and the same journal byte-volume
    /// counters — including the encoded spill/transfer volumes, since
    /// both layouts snapshot identical rows in identical order. Both
    /// emit exactly the oracle's result multiset.
    #[test]
    fn sim_columnar_equals_row(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let (row, row_groups) =
            run_sim(build_config(&p, StateLayout::Row).collecting(), deadline);
        let (col, col_groups) =
            run_sim(build_config(&p, StateLayout::Columnar).collecting(), deadline);

        prop_assert_eq!(row.runtime_output, col.runtime_output);
        prop_assert_eq!(row.cleanup_output, col.cleanup_output);
        prop_assert_eq!(row_groups, col_groups, "per-group stats diverge");
        prop_assert_eq!(row.relocations.len(), col.relocations.len());
        prop_assert_eq!(&row.spill_counts, &col.spill_counts);
        prop_assert_eq!(row.force_spills, col.force_spills);
        let cfg = build_config(&p, StateLayout::Columnar);
        let (_, digest) = oracle::expected_digest(&cfg.workload, cfg.engine.join.window, deadline);
        prop_assert_eq!(result_multiset(&row), digest, "row multiset vs oracle");
        prop_assert_eq!(result_multiset(&col), digest, "columnar multiset vs oracle");

        let r = row.journal_counters;
        let c = col.journal_counters;
        prop_assert_eq!(r.tuples_routed, c.tuples_routed);
        prop_assert_eq!(r.spill_bytes, c.spill_bytes);
        prop_assert_eq!(r.spill_bytes_written, c.spill_bytes_written);
        prop_assert_eq!(r.spill_bytes_read, c.spill_bytes_read);
        prop_assert_eq!(r.relocation_bytes, c.relocation_bytes);
        prop_assert_eq!(r.transfer_bytes, c.transfer_bytes);
        prop_assert_eq!(r.buffered_in_flight, 0);
        prop_assert_eq!(c.buffered_in_flight, 0);
    }
}

proptest! {
    // Threaded and chaos runs are slower; keep the default count
    // smaller still.
    #![proptest_config(ProptestConfig {
        cases: cases(4),
        ..ProptestConfig::default()
    })]

    /// Threaded runtime: adaptation timing is scheduler-dependent but
    /// totals are not — the columnar and row layouts must both produce
    /// exactly the oracle's total, which the deterministic sim matches.
    #[test]
    fn threaded_columnar_preserves_totals(p in case_strategy()) {
        let deadline = VirtualTime::from_mins(3);
        let row = run_threaded(build_config(&p, StateLayout::Row), deadline).unwrap();
        let col = run_threaded(build_config(&p, StateLayout::Columnar), deadline).unwrap();

        let expected = oracle_total(&p, deadline);
        prop_assert_eq!(row.total_output(), expected);
        prop_assert_eq!(col.total_output(), expected);
        prop_assert_eq!(
            row.journal_counters.tuples_routed,
            col.journal_counters.tuples_routed
        );
        prop_assert_eq!(row.journal_counters.buffered_in_flight, 0);
        prop_assert_eq!(col.journal_counters.buffered_in_flight, 0);

        let (sim, _) = run_sim(build_config(&p, StateLayout::Columnar), deadline);
        prop_assert_eq!(sim.total_output(), expected);
    }

    /// Chaos seeds: with deterministic faults active on the relocation
    /// protocol (drops, duplicates, delays, corrupt lengths), both
    /// layouts ride the same fault schedule in the deterministic sim
    /// and must still agree exactly — on results, which are the
    /// oracle's, and on the fault bookkeeping itself.
    #[test]
    fn sim_columnar_equals_row_under_chaos(
        p in case_strategy(),
        chaos_seed in 0u64..1_000,
    ) {
        let p = CaseParams { skewed: true, ..p };
        let deadline = VirtualTime::from_mins(2);
        let plan = || FaultPlan::new(chaos_seed, FaultConfig::uniform(0.2));
        let (row, row_groups) =
            run_sim(build_config(&p, StateLayout::Row).with_faults(plan()), deadline);
        let (col, col_groups) =
            run_sim(build_config(&p, StateLayout::Columnar).with_faults(plan()), deadline);
        prop_assert_eq!(col.total_output(), oracle_total(&p, deadline));

        prop_assert_eq!(row.runtime_output, col.runtime_output);
        prop_assert_eq!(row.cleanup_output, col.cleanup_output);
        prop_assert_eq!(row_groups, col_groups, "chaos per-group stats diverge");
        let r = row.journal_counters;
        let c = col.journal_counters;
        prop_assert_eq!(r.faults_injected, c.faults_injected);
        prop_assert_eq!(r.rounds_aborted, c.rounds_aborted);
        prop_assert_eq!(r.msgs_retried, c.msgs_retried);
        prop_assert_eq!(r.relocation_bytes, c.relocation_bytes);
        prop_assert_eq!(r.transfer_bytes, c.transfer_bytes);
        prop_assert_eq!(r.buffered_in_flight, 0);
        prop_assert_eq!(c.buffered_in_flight, 0);
    }
}
