//! `gana-benchmark`: the end-to-end benchmark of the GANA stack.
//!
//! One run measures one workload for a fixed time. It generates every input
//! from its seed, trains its models at fixed seeds, checks every output it
//! times, and reports the metrics `BENCHMARK.json` declares: the end-to-end
//! metrics from an untraced run, the per-layer metrics from a traced run of
//! the same workload and seed. See `README.md` for the workloads and the
//! layer → metric → workload map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod annotate;
pub mod edit;
pub mod inputs;
pub mod metrics;
pub mod serve;
pub mod setup;
pub mod trace;

use metrics::Report;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Tracer;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale cold annotation of all four families, in-process.
    AnnotatePaper,
    /// One incremental session on the phased array under a seeded edit
    /// stream, in-process.
    EditSession,
    /// Open-loop Poisson traffic against the serving daemon over loopback.
    ServeSteady,
    /// Closed-loop pipelined batch frames against the serving daemon.
    ServeBatch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::AnnotatePaper,
        Workload::EditSession,
        Workload::ServeSteady,
        Workload::ServeBatch,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::AnnotatePaper => "annotate_paper",
            Workload::EditSession => "edit_session",
            Workload::ServeSteady => "serve_steady",
            Workload::ServeBatch => "serve_batch",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client threads and connections the workload's load generator uses.
    /// Each connection is driven by its own thread.
    pub fn client_load(self) -> (usize, usize) {
        match self {
            Workload::AnnotatePaper | Workload::EditSession => (1, 0),
            Workload::ServeSteady | Workload::ServeBatch => {
                (serve::CONNECTIONS, serve::CONNECTIONS)
            }
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// What to run.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Whether this is the traced run. A traced run also measures every op
    /// untraced, for the trace's own overhead and coverage.
    pub trace: bool,
}

impl RunConfig {
    /// The measured time.
    pub fn duration(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// A finished run: its report, and the spans of a traced run.
#[derive(Debug)]
pub struct Outcome {
    /// Metrics and check counts.
    pub report: Report,
    /// Spans recorded by the traced phase.
    pub tracer: Option<Tracer>,
}

/// Runs one workload.
///
/// # Errors
///
/// Returns a message when the measurement itself is invalid (the load
/// generator fell behind its schedule) or the system under test could not
/// be driven at all. Wrong outputs are not errors: they count as failed
/// operations in the report.
pub fn run(config: &RunConfig) -> Result<Outcome, String> {
    let mut report = Report::default();
    let tracer = match config.workload {
        Workload::AnnotatePaper => annotate::run(config, &mut report),
        Workload::EditSession => edit::run(config, &mut report),
        Workload::ServeSteady => serve::run_steady(config, &mut report)?,
        Workload::ServeBatch => serve::run_batch(config, &mut report)?,
    };
    if !config.trace {
        report.set("peak_rss_mb", metrics::peak_rss_mb());
    }
    Ok(Outcome { report, tracer })
}

/// Where the benchmark writes files: Cargo's target directory.
pub fn output_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Runs `op(k)` for k = 0, 1, … until `phase` has passed, stopping only
/// after a whole number of `granule` ops so that every phase covers the
/// input mix in the same proportions. `op` returns the latency of the part
/// it timed; the result lists them in µs.
pub(crate) fn closed_loop(
    phase: Duration,
    granule: u64,
    mut op: impl FnMut(u64) -> Duration,
) -> Vec<f64> {
    let deadline = Instant::now() + phase;
    let mut latencies = Vec::new();
    let mut k = 0;
    while k == 0 || k % granule != 0 || Instant::now() < deadline {
        latencies.push(op(k).as_secs_f64() * 1e6);
        k += 1;
    }
    latencies
}
