//! Set-up shared by the workloads: model training at fixed seeds, the
//! primitive library, and the timing of repeated set-ups.

use crate::metrics::median;
use gana::core::{Pipeline, Task};
use gana::datasets::{ota, ota_classes, rf, rf_classes};
use gana::gnn::{GcnConfig, GcnModel, TrainerConfig};
use gana::primitives::PrimitiveLibrary;
use std::sync::Arc;
use std::time::Instant;

/// Training corpus seed; fixed, so every run trains identical models.
const TRAIN_SEED: u64 = 1;

/// Which model a workload trains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelSize {
    /// The paper's chosen model, `GcnConfig::default()`: K=32, 32/64
    /// channels, FC-512.
    Paper,
    /// The `gana train` default: K=16, 16/32 channels, FC-128.
    Cli,
}

impl ModelSize {
    fn config(self, classes: usize) -> GcnConfig {
        match self {
            ModelSize::Paper => GcnConfig {
                num_classes: classes,
                ..GcnConfig::default()
            },
            ModelSize::Cli => GcnConfig {
                conv_channels: vec![16, 32],
                filter_order: 16,
                fc_dim: 128,
                num_classes: classes,
                dropout: 0.1,
                batch_norm: false,
                ..GcnConfig::default()
            },
        }
    }

    /// Training corpus size and epochs. Post-II reaches 100% device
    /// accuracy on every family from these; more training changes the
    /// annotation cost by less than the run-to-run noise.
    fn schedule(self) -> (usize, usize) {
        match self {
            ModelSize::Paper => (16, 4),
            ModelSize::Cli => (32, 12),
        }
    }
}

/// GCN class names of a task.
pub(crate) fn class_names(task: Task) -> Vec<String> {
    let names: &[&str] = match task {
        Task::OtaBias => &ota_classes::NAMES,
        Task::Rf => &rf_classes::NAMES,
    };
    names.iter().map(|s| s.to_string()).collect()
}

/// Trains the `task` model of the given size.
pub fn train(task: Task, size: ModelSize) -> GcnModel {
    let (circuits, epochs) = size.schedule();
    let (corpus, classes) = match task {
        Task::OtaBias => (ota::corpus(circuits, TRAIN_SEED), 2),
        Task::Rf => (rf::corpus(circuits, TRAIN_SEED), 3),
    };
    let trainer = TrainerConfig {
        epochs,
        learning_rate: 4e-3,
        ..TrainerConfig::default()
    };
    gana::eval::train_on_corpus(&corpus, size.config(classes), trainer, TRAIN_SEED)
        .expect("training on generated circuits succeeds")
        .into_model()
}

/// The standard 21-primitive library.
pub fn library() -> PrimitiveLibrary {
    PrimitiveLibrary::standard().expect("shipped templates parse")
}

/// A pipeline around a trained model and a shared library.
pub fn pipeline(model: GcnModel, library: &Arc<PrimitiveLibrary>, task: Task) -> Pipeline {
    Pipeline::shared(
        Arc::new(model),
        class_names(task).into(),
        Arc::clone(library),
        task,
    )
}

/// Time spent in each set-up phase, for the per-layer report.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Phases {
    /// Model training (s).
    pub train_s: f64,
    /// Primitive library build (ms).
    pub library_ms: f64,
    /// Engine snapshot save (ms).
    pub snapshot_save_ms: f64,
    /// Engine snapshot load (ms).
    pub snapshot_load_ms: f64,
    /// Daemon boot to first answered ping (ms).
    pub boot_ms: f64,
}

/// Runs `f` and returns its output with its wall time in seconds.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Set-up repetitions per run; `setup_s` is their median.
pub(crate) const SETUP_REPS: usize = 5;

/// Median set-up time and phase times over [`SETUP_REPS`] repetitions.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SetupTimes {
    /// Median total set-up time (s).
    pub total_s: f64,
    /// Median of each phase.
    pub phases: Phases,
}

/// Builds a fixture [`SETUP_REPS`] times from scratch and keeps the last.
/// Each earlier fixture is dropped (and so shut down) before the next is
/// built.
pub(crate) fn repeat<T>(mut build: impl FnMut(&mut Phases) -> T) -> (T, SetupTimes) {
    let mut kept = None;
    let mut totals = Vec::new();
    let mut phases = Vec::new();
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let mut p = Phases::default();
        let (fixture, secs) = timed(|| build(&mut p));
        kept = Some(fixture);
        totals.push(secs);
        phases.push(p);
    }
    let pick = |f: fn(&Phases) -> f64| median(&phases.iter().map(f).collect::<Vec<_>>());
    let times = SetupTimes {
        total_s: median(&totals),
        phases: Phases {
            train_s: pick(|p| p.train_s),
            library_ms: pick(|p| p.library_ms),
            snapshot_save_ms: pick(|p| p.snapshot_save_ms),
            snapshot_load_ms: pick(|p| p.snapshot_load_ms),
            boot_ms: pick(|p| p.boot_ms),
        },
    };
    (kept.expect("at least one repetition"), times)
}

impl SetupTimes {
    /// Writes the set-up metrics into `report`.
    pub(crate) fn report(&self, report: &mut crate::metrics::Report) {
        report.set("setup_s", self.total_s);
        report.set("setup.train_s", self.phases.train_s);
        report.set("setup.library_ms", self.phases.library_ms);
        report.set("persist.snapshot_save_ms", self.phases.snapshot_save_ms);
        report.set("persist.snapshot_load_ms", self.phases.snapshot_load_ms);
        report.set("serve.boot_ms", self.phases.boot_ms);
    }
}
