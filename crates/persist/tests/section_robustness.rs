//! Robustness of the section decoders against untrusted bytes.
//!
//! Every section payload is CRC-checked inside a snapshot container, so the
//! whole-file corruption corpus is rejected before any section decoder
//! runs. These properties feed bytes to the decoders directly: arbitrary
//! bytes, and single-byte mutations of valid payloads. No input may panic
//! or abort, and any value a decoder accepts must survive a re-encode: its
//! encoding decodes again and re-encodes to the same bytes.

use gana_core::Task;
use gana_gnn::{GcnConfig, GcnModel};
use gana_incremental::CachedBlock;
use gana_persist::{
    decode_cache_entries, decode_csr, decode_library, decode_meta, decode_model,
    encode_cache_entries, encode_csr, encode_library, encode_meta, encode_model, Meta,
    PersistError, SnapshotFlavor, Writer,
};
use gana_primitives::{
    AnnotationResult, Constraint, ConstraintKind, PrimitiveInstance, PrimitiveLibrary,
};
use gana_sparse::CsrMatrix;
use proptest::prelude::*;

fn model(batch_norm: bool) -> GcnModel {
    GcnModel::new(GcnConfig {
        conv_channels: vec![3, 2],
        filter_order: 2,
        fc_dim: 4,
        num_classes: 2,
        dropout: 0.0,
        batch_norm,
        ..GcnConfig::default()
    })
    .expect("valid model")
}

fn model_payload() -> Vec<u8> {
    encode_model(Task::OtaBias, &["ota".into(), "bias".into()], &model(true))
}

/// A three-template library: every template is re-parsed on decode, so a
/// short library keeps each case cheap while covering every field.
fn library_payload() -> Vec<u8> {
    let standard = PrimitiveLibrary::standard().expect("standard library");
    let mut small = PrimitiveLibrary::new();
    for p in standard.iter().take(3) {
        small
            .add_from_spice(
                p.name(),
                p.description(),
                p.source(),
                p.strict_source_drain(),
            )
            .expect("standard template parses");
    }
    encode_library(&small)
}

fn cache_payload() -> Vec<u8> {
    encode_cache_entries(&[(
        0x1234_5678_9abc_def0_u128,
        CachedBlock {
            devices: vec!["M0".into(), "M1".into(), "R1".into()],
            annotation: AnnotationResult {
                instances: vec![PrimitiveInstance {
                    primitive: "DiffPair".into(),
                    devices: vec!["M0".into(), "M1".into()],
                    constraints: vec![Constraint::new(
                        ConstraintKind::Symmetry,
                        vec!["M0".into(), "M1".into()],
                    )],
                }],
                unclaimed: vec!["R1".into()],
            },
        },
    )])
}

fn csr_payload() -> Vec<u8> {
    let m = CsrMatrix::from_raw_parts(
        3,
        4,
        vec![0, 2, 2, 4],
        vec![0, 3, 1, 2],
        vec![1.5, -2.25, 0.5, 4.0],
    )
    .expect("valid CSR");
    encode_csr(&m)
}

fn meta_payload() -> Vec<u8> {
    encode_meta(&Meta {
        created_by: "0.1.0".into(),
        flavor: SnapshotFlavor::Engine,
    })
}

/// Every valid payload the mutation tests start from.
fn valid_payloads() -> Vec<Vec<u8>> {
    let v2 = model_payload();
    let v1 = v2[..v2.len() - 1].to_vec();
    vec![
        v2,
        v1,
        encode_model(Task::Rf, &["lna".into()], &model(false)),
        library_payload(),
        cache_payload(),
        csr_payload(),
        meta_payload(),
    ]
}

/// Decodes, re-encodes, and checks the re-encoding is a fixed point.
fn check_fixed_point<T>(
    bytes: &[u8],
    decode: impl Fn(&[u8]) -> gana_persist::Result<T>,
    encode: impl Fn(&T) -> Vec<u8>,
) {
    if let Ok(value) = decode(bytes) {
        let once = encode(&value);
        let again = decode(&once).expect("a re-encoded value decodes");
        assert_eq!(encode(&again), once, "re-encoding is not a fixed point");
    }
}

/// Feeds `bytes` to every section decoder.
fn check_all(bytes: &[u8]) {
    check_fixed_point(bytes, decode_model, |(task, names, model)| {
        encode_model(*task, names, model)
    });
    check_fixed_point(bytes, decode_library, encode_library);
    check_fixed_point(bytes, decode_cache_entries, |entries| {
        encode_cache_entries(entries)
    });
    check_fixed_point(bytes, decode_csr, encode_csr);
    check_fixed_point(bytes, decode_meta, encode_meta);
}

/// Byte offset of the `filter_order` field in [`model_payload`].
fn filter_order_offset() -> usize {
    let mut w = Writer::new();
    w.put_u8(0);
    w.put_str_list(&["ota".to_string(), "bias".to_string()]);
    w.put_usize(18);
    w.put_usize_list(&[3, 2]);
    w.into_bytes().len()
}

#[test]
fn valid_payloads_are_fixed_points() {
    for payload in valid_payloads() {
        check_all(&payload);
    }
}

#[test]
fn huge_filter_order_is_rejected_without_allocating() {
    // A filter order of 2^40 + 2 once reached the model constructor, whose
    // tap allocation aborted the process. The stored parameter vector is
    // small, so the checked parameter count must reject it first; so must
    // a filter order whose parameter count overflows.
    let offset = filter_order_offset();
    let valid = model_payload();
    assert_eq!(
        valid[offset..offset + 8],
        2u64.to_le_bytes(),
        "filter_order located"
    );
    for order in [(1u64 << 40) + 2, u64::MAX / 4] {
        let mut evil = valid.clone();
        evil[offset..offset + 8].copy_from_slice(&order.to_le_bytes());
        assert!(
            matches!(decode_model(&evil), Err(PersistError::Malformed(_))),
            "filter order {order} must be rejected"
        );
        check_all(&evil);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        check_all(&bytes);
    }

    #[test]
    fn single_byte_mutations_of_valid_payloads(
        which in any::<usize>(),
        position in any::<usize>(),
        byte in any::<u8>(),
    ) {
        let payloads = valid_payloads();
        let mut mutated = payloads[which % payloads.len()].clone();
        let position = position % mutated.len();
        mutated[position] = byte;
        check_all(&mutated);
    }
}
