//! Host-speed calibration of the end-to-end throughputs.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! 20% and more over minutes as other tenants come and go; no statistic
//! over one invocation removes a drift that lasts the whole invocation.
//! So a fixed, deterministic kernel is timed before every measured run
//! and once after the last, and every run's wall time is converted to
//! *reference seconds*: the seconds it would have taken on a host where
//! the kernel takes exactly [`REF_S`], judged by the mean of the two
//! samples that bracket the run. A change to the program moves run times
//! and leaves the kernel alone, so it shows in full; a slower or faster
//! host moves both and cancels out.
//!
//! The kernel is a random read-modify-write walk over a 16 MiB table,
//! like the hash-table probing and state inserts the runtimes spend most
//! of their time in, so that it slows down with the same neighbours
//! (memory bandwidth, shared caches) as they do. `perfbench/README.md`
//! gives how closely it tracks them.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, on the reference host: about the median on
/// the 2-vCPU Xeon VM the benchmark was tuned on (0.028 to 0.036 s).
pub const REF_S: f64 = 0.03;

/// Table entries (8 bytes each): 16 MiB, larger than the last-level
/// cache share of one vCPU.
const TABLE_LEN: usize = 1 << 21;

/// Random updates per kernel run.
const STEPS: u64 = 1_500_000;

/// Timed kernel runs of one invocation.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Allocate and touch the table once, so no sample pays page faults.
    pub fn new() -> Calibration {
        let mut c = Calibration {
            table: vec![0; TABLE_LEN],
            samples: Vec::new(),
        };
        c.kernel();
        c
    }

    /// Time one kernel run, keep the sample and return its index.
    pub fn sample(&mut self) -> usize {
        let start = Instant::now();
        self.kernel();
        self.samples.push(start.elapsed().as_secs_f64());
        self.samples.len() - 1
    }

    fn kernel(&mut self) {
        let mask = TABLE_LEN - 1;
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut acc = 0u64;
        for i in 0..STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let h = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            let slot = (h >> 40) as usize & mask;
            self.table[slot] = self.table[slot].wrapping_add(i ^ h);
            acc = acc.wrapping_add(self.table[(slot * 7 + 1) & mask]);
        }
        black_box(acc);
    }

    /// Median kernel time over the samples taken so far.
    pub fn median_s(&self) -> f64 {
        crate::median(&self.samples)
    }

    /// Number of samples taken so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Convert the wall seconds of a run made between samples `i` and
    /// `i + 1` to reference seconds.
    pub fn to_ref_s(&self, wall_s: f64, i: usize) -> f64 {
        wall_s * REF_S / ((self.samples[i] + self.samples[i + 1]) / 2.0)
    }
}
