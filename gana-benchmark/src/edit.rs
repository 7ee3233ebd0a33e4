//! `edit_session`: one incremental session on the full phased array under
//! a seeded designer edit stream, closed loop, one thread, in-process.
//!
//! One op is one `IncrementalPipeline::update` against the previous
//! baseline. The model is the `gana train` default (K=16, 16/32, FC-128).

use crate::annotate::device_labels;
use crate::inputs::{EditKind, EditStream, Truth, EDIT_BLOCK};
use crate::metrics::{median, ratio, Report};
use crate::setup::{self, ModelSize, SetupTimes};
use crate::trace::{Tracer, OP};
use crate::{closed_loop, RunConfig};
use gana::core::Task;
use gana::datasets::phased_array;
use gana::graph::{CircuitGraph, GraphOptions};
use gana::incremental::{
    structural_hash, Baseline, IncrementalPipeline, NetlistDiff, RegionMap, UpdateStats,
};
use gana::netlist::Circuit;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Updates at the head of the stream checked against a cold annotate of
/// the same circuit.
const VERIFIED_UPDATES: usize = 200;

/// Per-kind metrics, indexed by `EditKind as usize`: update latency and
/// its ratio to a cold annotate of the same circuit.
const KIND_METRICS: [(&str, &str); 3] = [
    ("incremental.update_us.resize", "incremental.vs_cold.resize"),
    (
        "incremental.update_us.revalue",
        "incremental.vs_cold.revalue",
    ),
    (
        "incremental.update_us.topology",
        "incremental.vs_cold.topology",
    ),
];

/// The session: incremental pipeline plus the opened baseline.
#[derive(Debug)]
struct Fixture {
    incremental: IncrementalPipeline,
    baseline: Baseline,
}

/// Trains the model, builds the library and opens the session on `base`,
/// [`setup::SETUP_REPS`] times.
fn setup(base: &Circuit) -> (Fixture, SetupTimes) {
    setup::repeat(|phases| {
        let (model, train_s) = setup::timed(|| setup::train(Task::Rf, ModelSize::Cli));
        let (library, library_s) = setup::timed(|| Arc::new(setup::library()));
        phases.train_s = train_s;
        phases.library_ms = library_s * 1e3;
        let incremental = IncrementalPipeline::new(setup::pipeline(model, &library, Task::Rf));
        let baseline = incremental
            .annotate_full(base)
            .expect("the phased array annotates");
        Fixture {
            incremental,
            baseline,
        }
    })
}

/// What one update of the stream did.
struct Update {
    kind: EditKind,
    stats: UpdateStats,
}

type Timed = (
    gana::core::Result<(Baseline, UpdateStats)>,
    Instant,
    Instant,
);

fn timed_update(
    incremental: &IncrementalPipeline,
    baseline: &Baseline,
    circuit: &Circuit,
) -> Timed {
    let start = Instant::now();
    let result = incremental.update(baseline, circuit);
    (result, start, Instant::now())
}

/// Replays the edit stream from the opened baseline for `duration`;
/// returns each update's latency (µs) and what it did. With a tracer,
/// every update also runs a second time as the traced op — alternating
/// which of the two runs first, so drift of the machine's speed hits both
/// alike — and [`probe`] spans follow outside the op.
fn session(
    fixture: &Fixture,
    base: &Circuit,
    truth: &Truth,
    seed: u64,
    duration: Duration,
    report: &mut Report,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<f64>, Vec<Update>) {
    let incremental = &fixture.incremental;
    let mut stream = EditStream::new(base, seed);
    let mut circuit = base.clone();
    let mut baseline = fixture.baseline.clone();
    let mut updates = Vec::new();
    let latencies = closed_loop(duration, EDIT_BLOCK as u64, |k| {
        let edit = stream.next_edit();
        edit.apply(&mut circuit);
        let runs = if tracer.is_some() { 2 } else { 1 };
        let mut runs: Vec<Timed> = (0..runs)
            .map(|_| timed_update(incremental, &baseline, &circuit))
            .collect();
        let plain = if tracer.is_some() {
            (k % 2) as usize
        } else {
            0
        };
        let (result, start, end) = runs.swap_remove(plain);
        if let (Some(tracer), Some((traced, traced_start, traced_end))) =
            (tracer.as_deref_mut(), runs.pop())
        {
            let root = tracer.record(OP, k, None, traced_start, traced_end);
            tracer.record(
                "incremental.update",
                k,
                Some(root),
                traced_start,
                traced_end,
            );
            probe(incremental, &baseline, &circuit, tracer, k);
            let traced = traced.map(|(next, _)| truth.score(device_labels(&next.design)));
            report.record(traced.map_err(|e| e.to_string()));
        }
        match result {
            Ok((next, stats)) => {
                report.record(Ok(truth.score(device_labels(&next.design))));
                updates.push(Update {
                    kind: edit.kind(),
                    stats,
                });
                baseline = next;
            }
            Err(e) => report.record(Err(e.to_string())),
        }
        end - start
    });
    (latencies, updates)
}

/// Re-runs the front half of an update (preprocess, canonical hash, diff
/// against the baseline, graph build, region map) as separate spans.
fn probe(
    incremental: &IncrementalPipeline,
    baseline: &Baseline,
    circuit: &Circuit,
    tracer: &mut Tracer,
    op: u64,
) {
    let Ok(clean) = tracer.time("netlist.preprocess", op, None, || {
        incremental.pipeline().preprocess_only(circuit)
    }) else {
        return;
    };
    tracer.time("incremental.hash", op, None, || {
        black_box(structural_hash(&clean))
    });
    tracer.time("incremental.diff", op, None, || {
        black_box(NetlistDiff::compute(&baseline.design.circuit, &clean))
    });
    let graph = tracer.time("graph.build", op, None, || {
        CircuitGraph::build(&clean, GraphOptions::default())
    });
    tracer.time("incremental.regions", op, None, || {
        black_box(RegionMap::build(&clean, &graph))
    });
}

/// Checks the head of the stream: each update must equal a cold annotate
/// of the same circuit. Returns the cold annotate latencies (µs) by kind.
fn verify(
    fixture: &Fixture,
    base: &Circuit,
    truth: &Truth,
    seed: u64,
    report: &mut Report,
) -> [Vec<f64>; 3] {
    let incremental = &fixture.incremental;
    let mut stream = EditStream::new(base, seed);
    let mut circuit = base.clone();
    let mut baseline = fixture.baseline.clone();
    let mut cold_us: [Vec<f64>; 3] = Default::default();
    for k in 0..VERIFIED_UPDATES {
        let edit = stream.next_edit();
        edit.apply(&mut circuit);
        let (cold, cold_s) = setup::timed(|| incremental.pipeline().recognize(&circuit));
        cold_us[edit.kind() as usize].push(cold_s * 1e6);
        let outcome = match (incremental.update(&baseline, &circuit), cold) {
            (Ok((next, _)), Ok(cold)) => {
                let same = next.design.gcn_class == cold.gcn_class
                    && next.design.final_label == cold.final_label
                    && next.design.constraints == cold.constraints;
                let outcome = if same {
                    Ok(truth.score(device_labels(&next.design)))
                } else {
                    Err(format!(
                        "update {k} ({}) differs from a cold annotate",
                        edit.kind().name()
                    ))
                };
                baseline = next;
                outcome
            }
            (Err(e), _) | (_, Err(e)) => Err(e.to_string()),
        };
        report.record(outcome);
    }
    cold_us
}

/// Runs `edit_session`; returns the traced phase's spans on a traced run.
pub(crate) fn run(config: &RunConfig, report: &mut Report) -> Option<Tracer> {
    let system = phased_array::generate(config.seed);
    let truth = Truth::of(&system);
    let (fixture, times) = setup(&system.circuit);
    times.report(report);
    let cold_us = verify(&fixture, &system.circuit, &truth, config.seed, report);

    let mut tracer = config.trace.then(|| Tracer::new(Instant::now()));
    let (untraced, updates) = session(
        &fixture,
        &system.circuit,
        &truth,
        config.seed,
        config.duration(),
        report,
        tracer.as_mut(),
    );
    let Some(tracer) = tracer else {
        report.latencies(&untraced, EDIT_BLOCK);
        report.closed_loop_rate(&untraced, EDIT_BLOCK);
        return None;
    };

    let traced = tracer.per_op_self_us("incremental.update");
    for kind in EditKind::ALL {
        let of_kind: Vec<f64> = traced
            .iter()
            .zip(&updates)
            .filter(|(_, u)| u.kind == kind)
            .map(|(&us, _)| us)
            .collect();
        let update_us = median(&of_kind);
        let (update_metric, cold_metric) = KIND_METRICS[kind as usize];
        report.set(update_metric, update_us);
        report.set(
            cold_metric,
            ratio(update_us, median(&cold_us[kind as usize])),
        );
    }
    let sum = |f: fn(&UpdateStats) -> f64| updates.iter().map(|u| f(&u.stats)).sum::<f64>();
    report.set(
        "incremental.full_splice_frac",
        ratio(
            sum(|s| f64::from(u8::from(s.full_splice))),
            updates.len() as f64,
        ),
    );
    report.set(
        "incremental.dirty_device_frac",
        ratio(
            sum(|s| s.dirty_devices as f64),
            sum(|s| s.total_devices as f64),
        ),
    );
    report.set(
        "incremental.region_hit_frac",
        ratio(
            sum(|s| s.cache_hits as f64),
            sum(|s| (s.cache_hits + s.cache_misses) as f64),
        ),
    );
    report.set(
        "incremental.inferred_vertices",
        ratio(sum(|s| s.inferred_vertices as f64), updates.len() as f64),
    );
    for (metric, span) in [
        ("netlist.preprocess_us", "netlist.preprocess"),
        ("incremental.hash_us", "incremental.hash"),
        ("incremental.diff_us", "incremental.diff"),
        ("graph.build_us", "graph.build"),
        ("incremental.regions_us", "incremental.regions"),
    ] {
        report.set(metric, median(&tracer.per_op_self_us(span)));
    }
    report.trace_quality(&untraced, &tracer);
    Some(tracer)
}
