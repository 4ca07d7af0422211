//! The dcape benchmark: one workload per invocation, run on the `sim`,
//! `threaded` and `socket` runtimes through their public entry points
//! (`--trace 0`), or as a single-threaded traced replay that times each
//! layer (`--trace 1`). Every run's result count is checked against an
//! independent reference computed from the generator output.
//!
//! ```text
//! dcape-perfbench --workload NAME --seconds N --trace 0|1 --node-bin PATH [--seed N]
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`.

mod calib;
mod replay;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use dcape_cluster::runtime::sim::SimDriver;
use dcape_cluster::runtime::socket::{run_socket, SocketConfig, SocketMode};
use dcape_cluster::runtime::threaded::run_threaded;
use dcape_common::error::{DcapeError, Result};
use dcape_common::time::VirtualTime;
use dcape_metrics::journal::CountersSnapshot;

use calib::Calibration;
use replay::Trace;
use workload::{Reference, Workload};

const USAGE: &str = "usage: dcape-perfbench --workload NAME --seconds N --trace 0|1 \
                     --node-bin PATH [--seed N]\n       \
                     dcape-perfbench --rss-child --workload NAME [--seed N]";

/// Zero-length socket runs per invocation; `setup_s` is their median.
const SETUP_REPS: usize = 15;

/// Journaled live runs per traced invocation, for the counter ranges.
const OBSERVE_REPS: usize = 2;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
    node_bin: PathBuf,
    rss_child: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut name = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut node_bin = None;
    let mut rss_child = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => name = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
                })
            }
            "--node-bin" => node_bin = Some(PathBuf::from(value()?)),
            "--rss-child" => rss_child = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = Workload::by_name(&name, seed).ok_or_else(|| {
        format!(
            "unknown workload {name:?}; expected one of {}",
            workload::NAMES.join(", ")
        )
    })?;
    if rss_child {
        return Ok(Args {
            workload,
            seed,
            seconds: 0,
            trace: false,
            node_bin: PathBuf::new(),
            rss_child,
        });
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        node_bin: node_bin.ok_or("--node-bin is required")?,
        rss_child,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.rss_child {
        return match rss_child(&args.workload) {
            Ok(kb) => {
                println!("{kb}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("rss child: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if !args.node_bin.is_file() {
        eprintln!("worker binary {} not found", args.node_bin.display());
        return ExitCode::FAILURE;
    }
    let w = &args.workload;
    let reference = workload::reference(w);
    println!(
        "workload {} seed {}: {} engines, {} virtual min, {} tuples, reference {} results",
        w.name,
        w.cfg.workload.seed,
        w.cfg.num_engines,
        w.deadline.as_mins_f64(),
        reference.tuples,
        reference.results
    );
    let outcome = if args.trace {
        traced(&args, reference)
    } else {
        end_to_end(&args, reference)
    };
    match outcome {
        Ok(out) => {
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("benchmark aborted: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Tally of verified runs plus the metrics to print.
#[derive(Debug, Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Checks other than per-run result totals (replay fidelity,
    /// workload invariants).
    invariant_failures: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    /// Record one run. It passes when it succeeded and `total` of it
    /// equals `expected`; an error or another total counts as failed.
    fn check<T>(
        &mut self,
        label: &str,
        run: Result<T>,
        total: fn(&T) -> u64,
        expected: u64,
    ) -> Option<T> {
        self.attempted += 1;
        let problem = match run {
            Ok(r) if total(&r) == expected => return Some(r),
            Ok(r) => format!("{} results, reference {expected}", total(&r)),
            Err(e) => e.to_string(),
        };
        self.failed += 1;
        println!("FAILED {label}: {problem}");
        None
    }

    fn invariant(&mut self, ok: bool, what: &str) {
        if !ok {
            self.invariant_failures += 1;
            println!("FAILED check: {what}");
        }
    }

    fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.invariant_failures == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn range(values: impl Iterator<Item = u64> + Clone) -> String {
    match (values.clone().min(), values.max()) {
        (Some(lo), Some(hi)) if lo == hi => format!("{lo}"),
        (Some(lo), Some(hi)) => format!("{lo}..{hi}"),
        _ => "-".into(),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Runtime {
    Sim,
    Threaded,
    Socket,
}

impl Runtime {
    const ALL: [Runtime; 3] = [Runtime::Sim, Runtime::Threaded, Runtime::Socket];

    fn name(self) -> &'static str {
        match self {
            Runtime::Sim => "sim",
            Runtime::Threaded => "threaded",
            Runtime::Socket => "socket",
        }
    }
}

/// What one complete run (run-time phase plus cleanup) produced.
#[derive(Debug)]
struct Run {
    wall: Duration,
    runtime_results: u64,
    total_results: u64,
    counters: CountersSnapshot,
}

impl Run {
    fn total(&self) -> u64 {
        self.total_results
    }
}

/// One complete run of `w` up to `deadline` through the runtime's
/// public entry point.
fn run(
    w: &Workload,
    rt: Runtime,
    node_bin: &Path,
    deadline: VirtualTime,
    journal: bool,
) -> Result<Run> {
    let mut cfg = w.cfg.clone();
    if journal {
        cfg = cfg.with_journal();
    }
    let start = Instant::now();
    let (runtime_results, total_results, counters) = match rt {
        Runtime::Sim => {
            let mut sim = SimDriver::new(cfg)?;
            sim.run_until(deadline)?;
            let r = sim.finish()?;
            (r.runtime_output, r.total_output(), r.journal_counters)
        }
        Runtime::Threaded => {
            let r = run_threaded(cfg, deadline)?;
            (r.runtime_output, r.total_output(), r.journal_counters)
        }
        Runtime::Socket => {
            let mode = SocketMode::Spawn {
                node_bin: node_bin.to_path_buf(),
            };
            let r = run_socket(
                SocketConfig {
                    sim: cfg,
                    mode,
                    kill: None,
                },
                deadline,
            )?;
            (r.runtime_output, r.total_output(), r.journal_counters)
        }
    };
    Ok(Run {
        wall: start.elapsed(),
        runtime_results,
        total_results,
        counters,
    })
}

/// `--trace 0`: set-up time, peak RSS, then rounds of runs of every
/// runtime ([`Workload::runs_per_round`]), each run preceded by a
/// calibration sample, until the measurement time is used up. A
/// runtime's throughput is all the tuples its timed runs routed over the
/// sum of their times in reference seconds (see [`calib`]).
fn end_to_end(args: &Args, reference: Reference) -> Result<Outcome> {
    let w = &args.workload;
    let mut out = Outcome::default();

    let mut setup = Vec::with_capacity(SETUP_REPS);
    for i in 0..SETUP_REPS {
        let r = run(w, Runtime::Socket, &args.node_bin, VirtualTime::ZERO, false);
        if let Some(r) = out.check(&format!("setup run {i}"), r, Run::total, 0) {
            setup.push(r.wall.as_secs_f64());
        }
    }
    let peak_rss_mb = peak_rss_mb(args)?;

    let mut cal = Calibration::new();
    // Per runtime: (wall seconds, index of the calibration sample before).
    let mut timed: [Vec<(f64, usize)>; 3] = Default::default();
    let mut share = Vec::new();
    // One untimed round first: the allocator settles its thresholds
    // during the first large frees, which makes a cold first run slower
    // than every later one.
    let mut end = None;
    let mut round = 0;
    loop {
        // Always the same order: a run's speed can depend on the heap the
        // runs before it left behind, and a fixed order keeps that the
        // same for every run of one runtime.
        for (rt, reps) in Runtime::ALL.into_iter().zip(w.runs_per_round()) {
            for rep in 0..reps {
                let label = format!("{} run {round}.{rep}", rt.name());
                let before = end.map(|_| cal.sample());
                let r = run(w, rt, &args.node_bin, w.deadline, false);
                let Some(r) = out.check(&label, r, Run::total, reference.results) else {
                    continue;
                };
                if let Some(i) = before {
                    timed[rt as usize].push((r.wall.as_secs_f64(), i));
                }
                if rt == Runtime::Sim {
                    share.push(r.runtime_results as f64 / r.total_results.max(1) as f64);
                }
            }
        }
        round += 1;
        match end {
            None => end = Some(Instant::now() + Duration::from_secs(args.seconds)),
            Some(end) if Instant::now() >= end => break,
            Some(_) => {}
        }
    }

    cal.sample();
    println!(
        "calibration kernel: median {:.4} s over {} samples (reference {} s)",
        cal.median_s(),
        cal.samples(),
        calib::REF_S
    );
    let tuples = reference.tuples as f64;
    for rt in Runtime::ALL {
        let v = &timed[rt as usize];
        let walls: Vec<f64> = v.iter().map(|&(x, _)| x).collect();
        let refs: Vec<f64> = v.iter().map(|&(x, i)| cal.to_ref_s(x, i)).collect();
        let kt: Vec<String> = walls
            .iter()
            .map(|x| format!("{:.0}", tuples / x / 1e3))
            .collect();
        // A total, not a median: single runs fall into a fast and a slow
        // mode with the host (a pure CPU loop shows the same two modes),
        // and the median of such a mix jumps between the modes as the mix
        // shifts from one invocation to the next, while the total follows
        // it smoothly.
        let n = walls.len() as f64;
        let per_ref_s = n * tuples / refs.iter().sum::<f64>();
        println!(
            "{:>8}: {} runs, {:.0} tuples/s wall, {per_ref_s:.0} per reference second \
             (median run {:.4} s; k tuples/s wall: {})",
            rt.name(),
            walls.len(),
            n * tuples / walls.iter().sum::<f64>(),
            median(&walls),
            kt.join(" ")
        );
        out.metric(&format!("tuples_per_ref_s.{}", rt.name()), per_ref_s, "1/s");
    }
    println!(
        "setup (zero-length socket run): median {:.4} s over {} runs; peak RSS of a sim run {:.1} MB",
        median(&setup),
        setup.len(),
        peak_rss_mb
    );
    out.metric("runtime_output_share", median(&share), "ratio");
    out.metric("peak_rss_mb", peak_rss_mb, "MB");
    out.metric("setup_s", median(&setup), "s");
    Ok(out)
}

/// Run one sim run in a fresh child process and read its high-water
/// resident set size.
fn peak_rss_mb(args: &Args) -> Result<f64> {
    let mut cmd = Command::new(std::env::current_exe()?);
    cmd.args(["--rss-child", "--workload", args.workload.name]);
    if let Some(seed) = args.seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    let output = cmd.output()?;
    let kb: f64 = match (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).trim().parse(),
    ) {
        (true, Ok(kb)) => kb,
        _ => {
            return Err(DcapeError::state(format!(
                "rss child failed ({}): {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            )))
        }
    };
    Ok(kb / 1024.0)
}

fn rss_child(w: &Workload) -> Result<u64> {
    run(w, Runtime::Sim, Path::new(""), w.deadline, false)?;
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| DcapeError::state("no VmHWM in /proc/self/status"))
}

/// A named per-layer metric: name, unit and how to read it.
type Metric<T, V> = (&'static str, &'static str, fn(&T) -> V);

/// Per-layer busy times, reported as medians over the traced replays.
const TIMED: [Metric<Trace, Duration>; 16] = [
    ("streamgen.busy_s", "s", |t| t.streamgen),
    ("split.busy_s", "s", |t| t.split),
    ("wire.encode_s", "s", |t| t.wire_encode),
    ("wire.decode_s", "s", |t| t.wire_decode),
    ("join.busy_s", "s", |t| t.join),
    ("purge.busy_s", "s", |t| t.purge),
    ("spill.busy_s", "s", |t| t.spill),
    ("cleanup.busy_s", "s", |t| t.cleanup),
    ("coordinator.busy_s", "s", |t| t.coordinator),
    ("relocation.busy_s", "s", Trace::relocation),
    ("relocation.extract_s", "s", |t| t.relocation_extract),
    ("relocation.install_s", "s", |t| t.relocation_install),
    ("replay.source_s", "s", Trace::source),
    ("replay.engine_s", "s", Trace::engine),
    ("replay.glue_s", "s", Trace::glue),
    ("replay.total_s", "s", |t| t.total),
];

/// Per-layer work counts: identical on every replay of one seed.
const COUNTED: [Metric<Trace, u64>; 16] = [
    ("streamgen.tuples", "count", |t| t.streamgen_tuples),
    ("split.buffered", "count", |t| t.split_buffered),
    ("wire.bytes", "bytes", |t| t.wire_bytes),
    ("join.tuples", "count", |t| t.join_tuples),
    ("join.results", "count", |t| t.join_results),
    ("join.peak_state_bytes", "bytes", |t| {
        t.join_peak_state_bytes
    }),
    ("spill.events", "count", |t| t.spill_events),
    ("spill.state_bytes", "bytes", |t| t.spill_state_bytes),
    ("spill.bytes_written", "bytes", |t| t.spill_bytes_written),
    ("cleanup.results", "count", |t| t.cleanup_results),
    ("cleanup.scanned_tuples", "count", |t| {
        t.cleanup_scanned_tuples
    }),
    ("cleanup.bytes_read", "bytes", |t| t.cleanup_bytes_read),
    ("coordinator.decisions", "count", |t| {
        t.coordinator_decisions
    }),
    ("relocation.rounds", "count", |t| t.relocation_rounds),
    ("relocation.state_bytes", "bytes", |t| {
        t.relocation_state_bytes
    }),
    ("relocation.wire_bytes", "bytes", |t| {
        t.relocation_wire_bytes
    }),
];

/// Counters of the journaled sim run.
const COUNTERS: [Metric<CountersSnapshot, u64>; 5] = [
    ("tuples_routed", "count", |c| c.tuples_routed),
    ("spill_bytes_written", "bytes", |c| c.spill_bytes_written),
    ("spill_bytes_read", "bytes", |c| c.spill_bytes_read),
    ("relocation_bytes", "bytes", |c| c.relocation_bytes),
    ("transfer_bytes", "bytes", |c| c.transfer_bytes),
];

fn counters_line(runs: &[Run]) -> String {
    let mut line = format!(
        "run-time results {}",
        range(runs.iter().map(|r| r.runtime_results))
    );
    for (name, _, f) in COUNTERS {
        line += &format!(" {name} {}", range(runs.iter().map(|r| f(&r.counters))));
    }
    line
}

/// `--trace 1`: one journaled sim run for the deterministic counters,
/// then untraced sim runs alternating with traced replays until the
/// measurement time is used up (times are medians), then a few journaled
/// live runs for the run-to-run ranges of the same counters.
fn traced(args: &Args, reference: Reference) -> Result<Outcome> {
    let w = &args.workload;
    let node_bin = &args.node_bin;
    let mut out = Outcome::default();

    // The journaled sim run doubles as the warm-up and as the oracle of
    // the replay-fidelity check.
    let sim = run(w, Runtime::Sim, node_bin, w.deadline, true);
    let sim = out.check("journaled sim run", sim, Run::total, reference.results);
    let sim = sim.map(|s| vec![s]).unwrap_or_default();
    println!("sim: {}", counters_line(&sim));
    let sim_counters = sim.first().map(|s| s.counters).unwrap_or_default();
    if w.never_spills {
        out.invariant(
            sim_counters.spill_bytes_written == 0,
            &format!("{} must not spill", w.name),
        );
    }
    let warm = replay::replay(&w.cfg, w.deadline);
    out.check(
        "warm-up replay",
        warm,
        Trace::total_results,
        reference.results,
    );

    let mut sim_walls = Vec::new();
    let mut traces: Vec<Trace> = Vec::new();
    let end = Instant::now() + Duration::from_secs(args.seconds);
    for rep in 0.. {
        let r = run(w, Runtime::Sim, node_bin, w.deadline, false);
        if let Some(r) = out.check(&format!("sim run {rep}"), r, Run::total, reference.results) {
            sim_walls.push(r.wall.as_secs_f64());
        }
        let t = replay::replay(&w.cfg, w.deadline);
        let label = format!("traced replay {rep}");
        if let Some(t) = out.check(&label, t, Trace::total_results, reference.results) {
            let replayed = (
                t.runtime_results,
                t.total_results(),
                t.spill_bytes_written,
                t.cleanup_bytes_read,
                t.relocation_state_bytes,
            );
            let simulated = sim.first().map(|s| {
                (
                    s.runtime_results,
                    s.total_results,
                    s.counters.spill_bytes_written,
                    s.counters.spill_bytes_read,
                    s.counters.relocation_bytes,
                )
            });
            out.invariant(
                simulated == Some(replayed),
                &format!(
                    "replay fidelity: replay {replayed:?} vs sim {simulated:?} (run-time results, \
                     total results, spill bytes written, spill bytes read, relocation bytes)"
                ),
            );
            traces.push(t);
        }
        if Instant::now() >= end {
            break;
        }
    }

    for rt in [Runtime::Threaded, Runtime::Socket] {
        let runs: Vec<Run> = (0..OBSERVE_REPS)
            .filter_map(|i| {
                let r = run(w, rt, node_bin, w.deadline, true);
                let label = format!("journaled {} run {i}", rt.name());
                out.check(&label, r, Run::total, reference.results)
            })
            .collect();
        println!(
            "{} over {} runs (observed, not gated): {}",
            rt.name(),
            runs.len(),
            counters_line(&runs)
        );
    }

    let secs = |f: fn(&Trace) -> Duration| {
        let v: Vec<f64> = traces.iter().map(|t| f(t).as_secs_f64()).collect();
        median(&v)
    };
    let total = secs(|t| t.total);
    let sim_wall = median(&sim_walls);
    println!(
        "traced replay: median {total:.4} s over {} replays (untraced sim {sim_wall:.4} s)",
        traces.len()
    );
    println!(
        "replay.source_s {:.4} (streamgen + split + wire.encode), replay.engine_s {:.4} \
         (wire.decode + join + tick + cleanup)",
        secs(Trace::source),
        secs(Trace::engine)
    );
    println!("layers ranked by busy seconds (median):");
    let mut ranked: Vec<(&str, f64)> = Trace::default()
        .layers()
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let v: Vec<f64> = traces
                .iter()
                .map(|t| t.layers()[i].1.as_secs_f64())
                .collect();
            (*name, median(&v))
        })
        .collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, s) in &ranked {
        let share = 100.0 * s / total.max(f64::MIN_POSITIVE);
        println!("  {name:<18} {s:>9.4} s  {share:>5.1}%");
    }

    for (name, unit, f) in TIMED {
        out.metric(name, secs(f), unit);
    }
    out.metric("trace.overhead_s", total - sim_wall, "s");
    let last = traces.last().copied().unwrap_or_default();
    for (name, unit, f) in COUNTED {
        out.metric(name, f(&last) as f64, unit);
    }
    for (name, unit, f) in COUNTERS {
        out.metric(&format!("counters.{name}"), f(&sim_counters) as f64, unit);
    }
    Ok(out)
}
