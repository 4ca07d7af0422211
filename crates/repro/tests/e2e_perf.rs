//! Ignored-by-default perf probe for the fig5 end-to-end layout gap.
//!
//! Prints row vs columnar wall times over an engines × duration grid so
//! a regression can be localized (state size vs thread count):
//!
//! ```text
//! cargo test -q -p dcape-repro --release --test e2e_perf -- --ignored --nocapture
//! ```

use std::time::Instant;

use dcape_cluster::runtime::sim::SimConfig;
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_cluster::strategy::StrategyConfig;
use dcape_common::time::{VirtualDuration, VirtualTime};
use dcape_engine::config::StateLayout;
use dcape_repro::scale;

fn cfg(layout: StateLayout, engines: usize) -> SimConfig {
    SimConfig::new(
        engines,
        scale::engine_with_threshold(scale::THRESHOLD_200MB).with_layout(layout),
        scale::paper_workload(),
        StrategyConfig::NoAdaptation,
    )
    .with_stats_interval(VirtualDuration::from_secs(30))
    .with_journal()
}

#[test]
#[ignore = "perf probe, run manually with --nocapture"]
fn grid() {
    for engines in [1usize, 3] {
        for mins in [6u64, 20, 60] {
            for layout in [StateLayout::Row, StateLayout::Columnar] {
                run_threaded(cfg(layout, engines), VirtualTime::from_mins(mins)).unwrap();
                let mut best = f64::MAX;
                let mut output = 0;
                for _ in 0..3 {
                    let start = Instant::now();
                    let report =
                        run_threaded(cfg(layout, engines), VirtualTime::from_mins(mins)).unwrap();
                    best = best.min(start.elapsed().as_secs_f64());
                    output = report.total_output();
                }
                println!(
                    "e2e {engines} engines {mins:>2} min {layout:?}: {best:.4}s (output {output})"
                );
            }
        }
    }
}
