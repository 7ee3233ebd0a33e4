//! The determinism contract of micro-batched inference: fusing any batch
//! of prepared samples into one block-diagonal forward pass
//! ([`Pipeline::predict_samples`]) must produce predictions
//! **byte-identical** to running [`Pipeline::predict_sample`] on each
//! sample alone — across the dataset corpus, for every partition of the
//! pool into batches, including singleton batches and batches at the
//! serving layer's largest micro-batch. Batching is a pure scheduling
//! choice; any visible difference is a bug.

use gana_core::{Pipeline, Task};
use gana_datasets::{ota, ota_classes, phased_array, rf, rf_classes, sc_filter};
use gana_gnn::{Activation, GcnConfig, GcnModel, GnnWorkspace, GraphSample};
use gana_netlist::Circuit;
use gana_primitives::PrimitiveLibrary;
use proptest::prelude::*;

/// The largest micro-batch the serving benches exercise (`b8`); batches of
/// this size must round-trip exactly like any other.
const MAX_BATCH: usize = 8;

/// Deterministic untrained pipeline: inference determinism is identical to
/// a trained model's, which is all the equivalence needs.
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

/// Prepares every circuit through `pipeline`, then checks that the fused
/// batch prediction equals the per-sample predictions — for the whole
/// pool as one batch, for the two batches split at `pivot`, for every
/// singleton through the model's forward on a workspace of its own, and
/// for a `MAX_BATCH`-wide batch cycling the pool.
fn assert_batched_matches_serial(pipeline: &Pipeline, circuits: &[&Circuit], pivot: usize) {
    let prepared: Vec<GraphSample> = circuits
        .iter()
        .map(|c| pipeline.prepare(c).expect("prepares").2)
        .collect();
    let refs: Vec<&GraphSample> = prepared.iter().collect();
    let serial: Vec<Vec<usize>> = refs
        .iter()
        .map(|s| pipeline.predict_sample(s).expect("predicts"))
        .collect();

    let whole = pipeline.predict_samples(&refs).expect("predicts");
    assert_eq!(whole, serial, "whole pool as one batch");

    let pivot = pivot.min(refs.len());
    let (left, right) = refs.split_at(pivot);
    let mut split = pipeline.predict_samples(left).expect("predicts");
    split.extend(pipeline.predict_samples(right).expect("predicts"));
    assert_eq!(split, serial, "pool split at {pivot}");

    let mut ws = GnnWorkspace::new();
    for (s, expected) in refs.iter().zip(&serial) {
        let fused = pipeline.model().forward(&[s], &mut ws).expect("predicts");
        assert_eq!(&fused[0], expected, "singleton batch");
    }

    let cycled: Vec<&GraphSample> = (0..MAX_BATCH).map(|i| refs[i % refs.len()]).collect();
    let fused = pipeline.predict_samples(&cycled).expect("predicts");
    for (i, preds) in fused.iter().enumerate() {
        assert_eq!(preds, &serial[i % serial.len()], "max-batch slot {i}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn ota_corpus_batched_predictions_are_byte_identical(
        topo in 0usize..6,
        bias in 0usize..4,
        seed in 0u64..1000,
        pivot in 0usize..4,
    ) {
        let circuits: Vec<Circuit> = (0..3)
            .map(|i| {
                ota::generate(ota::OtaSpec {
                    topology: ota::OtaTopology::ALL[(topo + i) % ota::OtaTopology::ALL.len()],
                    pmos_input: (seed + i as u64) % 2 == 1,
                    bias: ota::BiasStyle::ALL[(bias + i) % ota::BiasStyle::ALL.len()],
                    seed: seed + i as u64,
                })
                .circuit
            })
            .collect();
        let refs: Vec<&Circuit> = circuits.iter().collect();
        assert_batched_matches_serial(&pipeline(Task::OtaBias, &ota_classes::NAMES), &refs, pivot);
    }

    #[test]
    fn rf_corpus_batched_predictions_are_byte_identical(
        lna in 0usize..3,
        mixer in 0usize..3,
        osc in 0usize..3,
        seed in 0u64..1000,
        pivot in 0usize..4,
    ) {
        let circuits: Vec<Circuit> = (0..3)
            .map(|i| {
                rf::generate(rf::ReceiverSpec {
                    lna: rf::LnaKind::ALL[(lna + i) % rf::LnaKind::ALL.len()],
                    mixer: rf::MixerKind::ALL[(mixer + i) % rf::MixerKind::ALL.len()],
                    osc: rf::OscKind::ALL[(osc + i) % rf::OscKind::ALL.len()],
                    seed: seed + i as u64,
                })
                .circuit
            })
            .collect();
        let refs: Vec<&Circuit> = circuits.iter().collect();
        assert_batched_matches_serial(&pipeline(Task::Rf, &rf_classes::NAMES), &refs, pivot);
    }
}

#[test]
fn sc_filter_batched_predictions_are_byte_identical() {
    let a = sc_filter::generate(3);
    let b = sc_filter::generate(5);
    for pivot in [0, 1, 2] {
        assert_batched_matches_serial(
            &pipeline(Task::Rf, &rf_classes::NAMES),
            &[&a.circuit, &b.circuit],
            pivot,
        );
    }
}

#[test]
fn phased_array_batched_predictions_are_byte_identical() {
    let small = phased_array::generate_with_channels(1, 0);
    let big = phased_array::generate_with_channels(2, 0);
    assert_batched_matches_serial(
        &pipeline(Task::Rf, &rf_classes::NAMES),
        &[&small.circuit, &big.circuit],
        1,
    );
}

/// Mixed-family batches through one pipeline: the fusion must hold even
/// when wildly different graph sizes share a block-diagonal operator.
#[test]
fn mixed_family_batched_predictions_are_byte_identical() {
    let ota = ota::generate(ota::OtaSpec {
        topology: ota::OtaTopology::ALL[0],
        pmos_input: false,
        bias: ota::BiasStyle::ALL[0],
        seed: 11,
    });
    let filter = sc_filter::generate(4);
    let array = phased_array::generate_with_channels(1, 0);
    assert_batched_matches_serial(
        &pipeline(Task::Rf, &rf_classes::NAMES),
        &[&ota.circuit, &filter.circuit, &array.circuit],
        2,
    );
}
