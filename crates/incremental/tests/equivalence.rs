//! Incremental-vs-cold equivalence across the four Table-II dataset
//! families: for every family, apply `gana-datasets::mutate` edits (the
//! functionality-preserving sizing idioms) plus structural edits, and
//! assert the incremental path reproduces the cold pipeline's output —
//! report, hierarchy, and constraints — byte for byte.

use gana_core::{report, Pipeline, Task};
use gana_datasets::mutate::{self, MutationConfig};
use gana_datasets::{ota, ota_classes, phased_array, rf, rf_classes, sc_filter, LabeledCircuit};
use gana_gnn::{Activation, GcnConfig, GcnModel};
use gana_incremental::IncrementalPipeline;
use gana_netlist::Circuit;
use gana_primitives::PrimitiveLibrary;

/// Deterministic untrained pipeline: inference cost and determinism are
/// identical to a trained model's, which is all equivalence needs.
fn pipeline(task: Task, names: &[&str]) -> Pipeline {
    let model = GcnModel::new(GcnConfig {
        input_dim: 18,
        conv_channels: vec![8, 16],
        filter_order: 4,
        fc_dim: 32,
        num_classes: names.len(),
        activation: Activation::Relu,
        dropout: 0.0,
        batch_norm: false,
        weight_decay: 0.0,
        seed: 3,
    })
    .expect("valid config");
    Pipeline::new(
        model,
        names.iter().map(|s| s.to_string()).collect(),
        PrimitiveLibrary::standard().expect("templates parse"),
        task,
    )
}

/// Asserts that updating `base → edited` incrementally matches a cold run
/// on `edited` exactly, and returns whether the full-splice path fired.
fn assert_equivalent(pipeline: Pipeline, base: &Circuit, edited: &Circuit) -> bool {
    assert_equivalent_inc(IncrementalPipeline::new(pipeline), base, edited)
}

/// [`assert_equivalent`] over a pre-configured incremental pipeline (used
/// to exercise non-default dirty-ring settings).
fn assert_equivalent_inc(inc: IncrementalPipeline, base: &Circuit, edited: &Circuit) -> bool {
    let baseline = inc.annotate_full(base).expect("cold baseline");
    let (next, stats) = inc.update(&baseline, edited).expect("incremental update");
    let cold = inc.pipeline().recognize(edited).expect("cold rerun");

    assert_eq!(
        report::full_report(&next.design),
        report::full_report(&cold),
        "report must match cold byte-for-byte ({stats})"
    );
    assert_eq!(
        next.design.hierarchy, cold.hierarchy,
        "hierarchy must match"
    );
    assert_eq!(
        next.design.constraints, cold.constraints,
        "constraints must match"
    );
    assert_eq!(
        next.design.final_label, cold.final_label,
        "labels must match"
    );
    stats.full_splice
}

/// The mutate edit set: jitter all sizes and sprinkle the structural-but-
/// foldable idioms (parallel splits, dummies, decaps).
fn mutated(lc: LabeledCircuit, seed: u64) -> Circuit {
    let config = MutationConfig {
        split_parallel: 0.5,
        add_dummy: 0.5,
        add_decap: 0.8,
        jitter_sizes: true,
    };
    mutate::apply(lc, config, seed).circuit
}

fn ota_base() -> LabeledCircuit {
    ota::generate(ota::OtaSpec {
        topology: ota::OtaTopology::Miller,
        pmos_input: false,
        bias: ota::BiasStyle::MirrorRef,
        seed: 7,
    })
}

fn rf_base() -> LabeledCircuit {
    rf::generate(rf::ReceiverSpec {
        lna: rf::LnaKind::InductiveDegeneration,
        mixer: rf::MixerKind::Gilbert,
        osc: rf::OscKind::CrossCoupledLc,
        seed: 13,
    })
}

#[test]
fn ota_mutate_edits_are_equivalent_and_sliced() {
    let base = ota_base();
    let edited = mutated(base.clone(), 41);
    let spliced = assert_equivalent(
        pipeline(Task::OtaBias, &ota_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(
        spliced,
        "mutate edits fold away in preprocessing: full splice expected"
    );
}

#[test]
fn rf_mutate_edits_are_equivalent_and_sliced() {
    let base = rf_base();
    let edited = mutated(base.clone(), 42);
    let spliced = assert_equivalent(
        pipeline(Task::Rf, &rf_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(
        spliced,
        "mutate edits fold away in preprocessing: full splice expected"
    );
}

#[test]
fn sc_filter_mutate_edits_are_equivalent_and_sliced() {
    let base = sc_filter::generate(5);
    let edited = mutated(base.clone(), 43);
    let spliced = assert_equivalent(
        pipeline(Task::Rf, &rf_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(
        spliced,
        "mutate edits fold away in preprocessing: full splice expected"
    );
}

#[test]
fn phased_array_mutate_edits_are_equivalent_and_sliced() {
    let base = phased_array::generate_with_channels(2, 0);
    let edited = mutated(base.clone(), 44);
    let spliced = assert_equivalent(
        pipeline(Task::Rf, &rf_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(
        spliced,
        "mutate edits fold away in preprocessing: full splice expected"
    );
}

/// Moves one passive's value into a different feature magnitude bucket and
/// returns the edited circuit. Panics if the design has no bucketed passive.
fn cross_a_bucket(circuit: &Circuit) -> Circuit {
    use gana_graph::features::value_magnitude;
    let mut edited = circuit.clone();
    let device = edited
        .devices_mut()
        .iter_mut()
        .find(|d| {
            d.value()
                .and_then(|v| value_magnitude(d.kind(), v))
                .is_some()
        })
        .expect("has a bucketed passive");
    let bucket =
        value_magnitude(device.kind(), device.value().expect("has value")).expect("bucketed kind");
    // Jump to the far bucket for the device's kind: high unless already
    // high, low otherwise.
    let target = match (device.kind(), bucket) {
        (gana_netlist::DeviceKind::Resistor, 2) => 1.0,
        (gana_netlist::DeviceKind::Resistor, _) => 1e6,
        (gana_netlist::DeviceKind::Capacitor, 2) => 1e-13,
        (gana_netlist::DeviceKind::Capacitor, _) => 1e-9,
        (gana_netlist::DeviceKind::Inductor, 2) => 1e-10,
        (gana_netlist::DeviceKind::Inductor, _) => 1e-6,
        (kind, bucket) => panic!("unbucketed kind {kind:?} in bucket {bucket}"),
    };
    *device = device.clone().with_value(target);
    edited
}

#[test]
fn resistor_bucket_crossing_edit_is_equivalent_and_not_spliced() {
    // The regression the review caught: a passive value edit that crosses a
    // feature bucket threshold changes the GCN input, so it must NOT take
    // the full-splice path — and the partial path must still reproduce the
    // cold result byte for byte.
    let base = ota_base();
    let edited = cross_a_bucket(&base.circuit);
    let spliced = assert_equivalent(
        pipeline(Task::OtaBias, &ota_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(
        !spliced,
        "a bucket-crossing value edit changes the GCN features and must re-annotate"
    );
}

#[test]
fn rf_bucket_crossing_edit_is_equivalent_and_not_spliced() {
    let base = rf_base();
    let edited = cross_a_bucket(&base.circuit);
    let spliced = assert_equivalent(
        pipeline(Task::Rf, &rf_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(!spliced, "bucket crossing must take the partial path");
}

#[test]
fn ota_structural_edit_is_equivalent_with_one_dirty_ring() {
    // The speed-over-receptive-field setting the benches use: one ring of
    // neighbors, equality carried by CCC majority smoothing.
    let base = ota_base();
    let mut edited = base.circuit.clone();
    let attach: Vec<String> = edited
        .devices()
        .iter()
        .find(|d| d.kind().is_transistor())
        .map(|d| d.terminals().to_vec())
        .expect("has a transistor");
    edited
        .add_device(
            gana_netlist::Device::new(
                "CEQ2",
                gana_netlist::DeviceKind::Capacitor,
                vec![attach[0].clone(), "gnd!".into()],
            )
            .expect("valid")
            .with_value(1e-12),
        )
        .expect("unique");
    let spliced = assert_equivalent_inc(
        IncrementalPipeline::new(pipeline(Task::OtaBias, &ota_classes::NAMES)).with_dirty_rings(1),
        &base.circuit,
        &edited,
    );
    assert!(!spliced, "a structural edit must take the partial path");
}

#[test]
fn parallel_incremental_update_matches_serial_cold_run() {
    // The intra-request pool is shared by the incremental dirty-region
    // path: an update running at 4 threads must still reproduce the cold
    // run byte for byte (the bucket-crossing edit forces the partial path,
    // so the parallel GCN re-inference actually executes; cold-vs-serial
    // identity is covered by gana-core's parallel_equivalence suite).
    let base = ota_base();
    let edited = cross_a_bucket(&base.circuit);
    let spliced = assert_equivalent(
        pipeline(Task::OtaBias, &ota_classes::NAMES).with_threads(4),
        &base.circuit,
        &edited,
    );
    assert!(!spliced, "bucket crossing must take the partial path");
}

#[test]
fn ota_structural_edit_is_equivalent() {
    // Load caps on the signal path: a real structural edit that takes the
    // partial (dirty-region) path, not the full splice.
    let base = ota_base();
    let mut edited = base.circuit.clone();
    let attach: Vec<String> = edited
        .devices()
        .iter()
        .find(|d| d.kind().is_transistor())
        .map(|d| d.terminals().to_vec())
        .expect("has a transistor");
    edited
        .add_device(
            gana_netlist::Device::new(
                "CEQ1",
                gana_netlist::DeviceKind::Capacitor,
                vec![attach[0].clone(), "gnd!".into()],
            )
            .expect("valid")
            .with_value(1e-12),
        )
        .expect("unique");
    let spliced = assert_equivalent(
        pipeline(Task::OtaBias, &ota_classes::NAMES),
        &base.circuit,
        &edited,
    );
    assert!(!spliced, "a structural edit must take the partial path");
}
