//! `annotate_paper`: cold annotation of all four Table II families at the
//! paper's model size, closed loop, one thread, in-process.
//!
//! One op is one design: `parse_library` + `flatten` + recognition. The
//! untraced run calls `Pipeline::recognize`; the traced run composes the
//! same stages from their public entry points ([`recognize_traced`]) so a
//! span can sit around each one.

use crate::inputs::{self, Design, Score, Truth};
use crate::metrics::{mean, median, ratio, Report};
use crate::setup::{self, ModelSize, SetupTimes};
use crate::trace::{Tracer, OP};
use crate::{closed_loop, RunConfig};
use gana::core::{CoreError, Pipeline, RecognizedDesign, Task};
use gana::gnn::{GcnModel, GraphSample};
use gana::graph::{CircuitGraph, GraphOptions};
use gana::netlist::Circuit;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The two paper-size pipelines, sharing one primitive library.
#[derive(Debug)]
struct Fixture {
    ota: Pipeline,
    rf: Pipeline,
}

impl Fixture {
    /// The pipeline that annotates `task`.
    fn pipeline(&self, task: Task) -> &Pipeline {
        match task {
            Task::OtaBias => &self.ota,
            Task::Rf => &self.rf,
        }
    }
}

/// Trains both paper-size models and builds the library,
/// [`setup::SETUP_REPS`] times.
fn setup() -> (Fixture, SetupTimes) {
    setup::repeat(|phases| {
        let ((ota, rf), train_s) = setup::timed(|| {
            (
                setup::train(Task::OtaBias, ModelSize::Paper),
                setup::train(Task::Rf, ModelSize::Paper),
            )
        });
        let (library, library_s) = setup::timed(|| Arc::new(setup::library()));
        phases.train_s = train_s;
        phases.library_ms = library_s * 1e3;
        Fixture {
            ota: setup::pipeline(ota, &library, Task::OtaBias),
            rf: setup::pipeline(rf, &library, Task::Rf),
        }
    })
}

/// Final label of every device of a recognized design.
pub(crate) fn device_labels(design: &RecognizedDesign) -> impl Iterator<Item = (&str, &str)> {
    (0..design.graph.vertex_count()).filter_map(|v| {
        design
            .graph
            .device_name(v)
            .map(|name| (name, design.final_label[v].as_str()))
    })
}

/// Scores a recognition result against ground truth.
fn score(truth: &Truth, result: Result<RecognizedDesign, String>) -> Result<Score, String> {
    result.map(|design| truth.score(device_labels(&design)))
}

fn parse(spice: &str) -> Result<Circuit, String> {
    let library = gana::netlist::parse_library(spice).map_err(|e| e.to_string())?;
    gana::netlist::flatten(&library).map_err(|e| e.to_string())
}

fn annotate(fixture: &Fixture, design: &Design) -> Result<RecognizedDesign, String> {
    let circuit = parse(&design.spice)?;
    fixture
        .pipeline(design.family.task())
        .recognize(&circuit)
        .map_err(|e| e.to_string())
}

/// `Pipeline::recognize` composed stage by stage, with a span around each
/// stage and around every primitive-annotation (VF2) call:
/// `netlist.preprocess` → `graph.build` → `gnn.prepare` → `gnn.forward` →
/// `core.post` (Postprocessing I/II, hierarchy and constraints, with the
/// `primitives.vf2` calls as its children).
///
/// The design equals `pipeline.recognize(circuit)` for a pipeline with the
/// default preprocessing options and coarsening seed, which is how every
/// pipeline of this benchmark is built. Also returns the floating-point
/// operations of the forward pass.
///
/// # Errors
///
/// Propagates the pipeline's errors.
pub fn recognize_traced(
    pipeline: &Pipeline,
    circuit: &Circuit,
    tracer: &mut Tracer,
    op: u64,
    parent: Option<usize>,
) -> Result<(RecognizedDesign, f64), CoreError> {
    let clean = tracer.time("netlist.preprocess", op, parent, || {
        pipeline.preprocess_only(circuit)
    })?;
    let mut graph = tracer.time("graph.build", op, parent, || {
        CircuitGraph::build(&clean, GraphOptions::default())
    });
    let sample = tracer.time("gnn.prepare", op, parent, || {
        let sample = GraphSample::prepare(
            clean.name().to_string(),
            &clean,
            &graph,
            vec![None; graph.vertex_count()],
            pipeline.model().config().levels(),
            0,
        )?;
        graph
            .store_mut()
            .record_coarsening(sample.coarsening.section());
        Ok::<_, CoreError>(sample)
    })?;
    let classes = tracer.time("gnn.forward", op, parent, || {
        pipeline.predict_sample(&sample)
    })?;
    let flop = forward_flop(pipeline.model(), &sample);
    let post = tracer.open("core.post", op, parent);
    let calls = Mutex::new(Vec::new());
    let library = pipeline.library_arc();
    let workspace = Arc::clone(pipeline.workspace());
    let design =
        pipeline.finish_with_annotator(clean, graph, classes, &|par, sub_circuit, sub_graph| {
            let start = Instant::now();
            let annotation = gana::primitives::annotate_with_workspace(
                par,
                &library,
                sub_circuit,
                sub_graph,
                workspace.matcher(),
            );
            calls
                .lock()
                .expect("no annotator panicked")
                .push((start, Instant::now()));
            annotation
        });
    tracer.close(post);
    for (start, end) in calls.into_inner().expect("no annotator panicked") {
        tracer.record("primitives.vf2", op, Some(post), start, end);
    }
    Ok((design, flop))
}

/// Floating-point operations of one GCN forward pass: per conv layer, the
/// Chebyshev recurrence (K−1 sparse products of the level's Laplacian
/// with the layer input) and the K tap products, then both FC layers.
pub(crate) fn forward_flop(model: &GcnModel, sample: &GraphSample) -> f64 {
    let config = model.config();
    let taps = config.filter_order as f64;
    let mut flop = 0.0;
    let mut c_in = config.input_dim as f64;
    for (level, &c_out) in config.conv_channels.iter().enumerate() {
        let laplacian = sample.coarsening.laplacian(level);
        flop += 2.0 * (taps - 1.0) * laplacian.nnz() as f64 * c_in;
        flop += 2.0 * taps * laplacian.rows() as f64 * c_in * c_out as f64;
        c_in = c_out as f64;
    }
    let rows = sample.coarsening.padded_size(config.levels()) as f64;
    let fc = config.fc_dim as f64;
    flop + 2.0 * rows * (c_in * fc + fc * config.num_classes as f64)
}

/// Runs `annotate_paper`; returns the traced phase's spans on a traced run.
pub(crate) fn run(config: &RunConfig, report: &mut Report) -> Option<Tracer> {
    let designs = inputs::paper_designs(config.seed);
    let (fixture, times) = setup();
    times.report(report);
    // Warm-up: every design once, untimed but checked.
    for design in &designs {
        report.record(score(&design.truth, annotate(&fixture, design)));
    }

    let design = |k: u64| &designs[k as usize % designs.len()];
    let plain = |k: u64, report: &mut Report| {
        let design = design(k);
        let start = Instant::now();
        let result = annotate(&fixture, design);
        let elapsed = start.elapsed();
        report.record(score(&design.truth, result));
        elapsed
    };
    if !config.trace {
        let latencies = closed_loop(config.duration(), inputs::ROUND as u64, |k| {
            plain(k, report)
        });
        report.latencies(&latencies, inputs::ROUND);
        report.closed_loop_rate(&latencies, inputs::ROUND);
        return None;
    }

    // Each op runs untraced and traced back to back, alternating which goes
    // first, so drift of the machine's speed hits both alike.
    let mut tracer = Tracer::new(Instant::now());
    let mut untraced = Vec::new();
    let mut flop = Vec::new();
    let mut pruned = Vec::new();
    closed_loop(config.duration(), inputs::ROUND as u64, |k| {
        if k % 2 == 0 {
            untraced.push(plain(k, report).as_secs_f64() * 1e6);
        }
        let design = design(k);
        let pipeline = fixture.pipeline(design.family.task());
        let pruned_before = pipeline.workspace().templates_pruned();
        let root = tracer.open(OP, k, None);
        let result = tracer
            .time("netlist.parse", k, Some(root), || parse(&design.spice))
            .and_then(|circuit| {
                recognize_traced(pipeline, &circuit, &mut tracer, k, Some(root))
                    .map_err(|e| e.to_string())
            });
        tracer.close(root);
        pruned.push((pipeline.workspace().templates_pruned() - pruned_before) as f64);
        let result = result.map(|(recognized, forward)| {
            flop.push(forward);
            recognized
        });
        report.record(score(&design.truth, result));
        if k % 2 == 1 {
            untraced.push(plain(k, report).as_secs_f64() * 1e6);
        }
        Duration::ZERO
    });
    let forward_us: f64 = tracer.per_op_self_us("gnn.forward").iter().sum();

    for (metric, span) in [
        ("netlist.parse_us", "netlist.parse"),
        ("netlist.preprocess_us", "netlist.preprocess"),
        ("graph.build_us", "graph.build"),
        ("gnn.prepare_us", "gnn.prepare"),
        ("gnn.forward_us", "gnn.forward"),
        ("primitives.vf2_us", "primitives.vf2"),
        ("core.post_us", "core.post"),
    ] {
        report.set(metric, median(&tracer.per_op_self_us(span)));
    }
    report.set(
        "primitives.vf2_calls",
        median(&tracer.per_op_count("primitives.vf2")),
    );
    report.set("primitives.templates_pruned", mean(&pruned));
    report.set("gnn.forward_gflop", mean(&flop) / 1e9);
    report.set(
        "gnn.forward_gflops",
        ratio(flop.iter().sum::<f64>() / 1e9, forward_us / 1e6),
    );
    report.trace_quality(&untraced, &tracer);
    Some(tracer)
}
