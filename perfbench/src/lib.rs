//! # dift-perfbench — the workspace's measured benchmark
//!
//! One command runs a named workload from a seed, checks every answer
//! against a reference built outside the timed region, and prints the
//! end-to-end metrics (untraced run) or the per-layer metrics (traced
//! run). All timing is taken around calls into the crates' public APIs;
//! no crate is modified to be measured. See `README.md` in this
//! directory for the workload rationale and the metric → layer map.

pub mod metrics;
pub mod probe;
pub mod spans;
pub mod workloads;

use std::path::PathBuf;

pub use metrics::{Outcome, END_TO_END, PER_LAYER};

/// The workloads, each stressing a different set of layers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DebugSlice,
    TaintServer,
    LineageScience,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::DebugSlice, Workload::TaintServer, Workload::LineageScience];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DebugSlice => "debug-slice",
            Workload::TaintServer => "taint-server",
            Workload::LineageScience => "lineage-science",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is what the benchmark measures; `Tiny` keeps the
/// self-tests fast in unoptimized builds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

/// One benchmark run.
#[derive(Clone, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    /// Length of the measured closed loop. The loop always finishes the
    /// round it is in, so every run covers whole rounds of the mix.
    pub seconds: f64,
    /// Traced run: per-layer metrics and a span file instead of the
    /// end-to-end metrics.
    pub trace: bool,
    pub scale: Scale,
    /// Corrupt one reference answer before the checks run (self-test of
    /// the checks: `failed` must rise above 0).
    pub corrupt_reference: bool,
    /// Scratch directory for durable segments and span files.
    pub work_dir: PathBuf,
}

/// Epoch-parallel worker count (the host has 2 cores; never more host
/// threads than that).
pub const EPOCH_WORKERS: usize = 2;
/// Instructions per epoch for the epoch-parallel pipelines.
pub const EPOCH_LEN: usize = 1024;

/// Cores the host reports, stamped into every output.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run one workload end to end.
pub fn run(cfg: &Config) -> Outcome {
    std::fs::create_dir_all(&cfg.work_dir).expect("create the benchmark work directory");
    match cfg.workload {
        Workload::DebugSlice => workloads::debug_slice::run(cfg),
        Workload::TaintServer => workloads::taint_server::run(cfg),
        Workload::LineageScience => workloads::lineage_science::run(cfg),
    }
}

/// SplitMix64: the benchmark's only source of randomness, seeded from
/// `--seed`, so the same seed always generates the same inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}
