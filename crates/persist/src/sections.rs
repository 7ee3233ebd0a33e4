//! Section payload codecs: CSR matrices, GCN models, the primitive
//! library, and region-cache entries.
//!
//! Every codec is canonical (one byte sequence per value), so
//! `encode(decode(bytes)) == bytes` holds for any accepted input — the
//! property the round-trip test suite pins. Decoders follow the
//! serialize-verify idiom: where a value can be re-derived from simpler
//! data (a template's VF2 match order from its SPICE text, a CSR's
//! invariants from its arrays), the decoder re-derives and *compares*
//! rather than trusting the stored copy, so a snapshot written by a binary
//! whose derivation logic has since changed is rejected loudly instead of
//! producing silently-wrong matches.

use crate::error::{PersistError, Result};
use crate::wire::{Reader, Writer};
use gana_core::Task;
use gana_gnn::{Activation, GcnConfig, GcnModel};
use gana_incremental::CachedBlock;
use gana_netlist::DeviceKind;
use gana_primitives::{
    AnnotationResult, Constraint, ConstraintKind, PrimitiveInstance, PrimitiveLibrary,
};
use gana_sparse::CsrMatrix;

/// Section kind: snapshot metadata (creator version, flavor).
pub const SECTION_META: u16 = 1;
/// Section kind: one GCN model + its task + class names.
pub const SECTION_MODEL: u16 = 2;
/// Section kind: the primitive template library.
pub const SECTION_LIBRARY: u16 = 3;
/// Section kind: region-cache entries keyed by WL fingerprints.
pub const SECTION_REGION_CACHE: u16 = 4;
/// Section kind: a standalone CSR matrix.
pub const SECTION_CSR: u16 = 5;
/// Payload encoding version written for every section kind.
///
/// Version history:
/// * **1** — initial format.
/// * **2** — model sections end with a presence byte after the batch-norm
///   statistics. This binary always writes 0 there. A 1 marked an int8
///   weight block that older binaries wrote and this one rejects. Version-1
///   model payloads (no trailing byte) still decode, and re-encoding them
///   produces version-2 bytes.
pub const SECTION_VERSION: u16 = 2;

/// Human-readable name for a section kind tag (for `snapshot inspect`).
pub fn section_name(kind: u16) -> &'static str {
    match kind {
        SECTION_META => "meta",
        SECTION_MODEL => "model",
        SECTION_LIBRARY => "library",
        SECTION_REGION_CACHE => "region-cache",
        SECTION_CSR => "csr",
        _ => "unknown",
    }
}

/// Rejects payloads whose section version is newer than this binary.
pub fn check_section_version(kind: u16, found: u16) -> Result<()> {
    if found > SECTION_VERSION {
        return Err(PersistError::SectionVersionSkew {
            kind,
            found,
            supported: SECTION_VERSION,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------- CSR --

/// Encodes a CSR matrix: shape, row extents, then column/value arrays.
pub fn encode_csr(m: &CsrMatrix) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_usize(m.rows());
    w.put_usize(m.cols());
    w.put_usize(m.nnz());
    for r in 0..m.rows() {
        w.put_u64(m.row_iter(r).count() as u64);
    }
    for r in 0..m.rows() {
        for (c, v) in m.row_iter(r) {
            w.put_u64(c as u64);
            w.put_f64(v);
        }
    }
    w.into_bytes()
}

/// Decodes a CSR matrix, re-validating every structural invariant via
/// [`CsrMatrix::from_raw_parts`].
pub fn decode_csr(bytes: &[u8]) -> Result<CsrMatrix> {
    let mut r = Reader::new(bytes);
    let rows = r.get_usize()?;
    let cols = r.get_usize()?;
    let nnz = r.get_usize()?;
    if rows.saturating_mul(8) > bytes.len() || nnz.saturating_mul(16) > bytes.len() {
        return Err(PersistError::Truncated {
            needed: rows.saturating_mul(8).max(nnz.saturating_mul(16)),
            available: bytes.len(),
        });
    }
    let mut indptr = Vec::with_capacity(rows + 1);
    indptr.push(0usize);
    let mut total = 0usize;
    for _ in 0..rows {
        let row_nnz = r.get_usize()?;
        total = total
            .checked_add(row_nnz)
            .ok_or_else(|| PersistError::Malformed("row extent overflow".into()))?;
        indptr.push(total);
    }
    if total != nnz {
        return Err(PersistError::Malformed(format!(
            "row extents sum to {total} but nnz field says {nnz}"
        )));
    }
    let mut indices = Vec::with_capacity(nnz);
    let mut values = Vec::with_capacity(nnz);
    for _ in 0..nnz {
        indices.push(r.get_usize()?);
        values.push(r.get_f64()?);
    }
    r.expect_end()?;
    CsrMatrix::from_raw_parts(rows, cols, indptr, indices, values)
        .map_err(|e| PersistError::Malformed(format!("rejected CSR arrays: {e}")))
}

// -------------------------------------------------------------- model --

fn activation_tag(a: Activation) -> u8 {
    match a {
        Activation::Relu => 0,
        Activation::Tanh => 1,
        Activation::Identity => 2,
    }
}

fn activation_from_tag(tag: u8) -> Result<Activation> {
    match tag {
        0 => Ok(Activation::Relu),
        1 => Ok(Activation::Tanh),
        2 => Ok(Activation::Identity),
        t => Err(PersistError::Malformed(format!(
            "unknown activation tag {t}"
        ))),
    }
}

fn task_tag(t: Task) -> u8 {
    match t {
        Task::OtaBias => 0,
        Task::Rf => 1,
    }
}

fn task_from_tag(tag: u8) -> Result<Task> {
    match tag {
        0 => Ok(Task::OtaBias),
        1 => Ok(Task::Rf),
        t => Err(PersistError::Malformed(format!("unknown task tag {t}"))),
    }
}

/// Encodes a model section: task, class names, hyperparameters, flat
/// parameter vector, batch-norm running statistics, and a zero presence
/// byte (see [`SECTION_VERSION`]).
pub fn encode_model(task: Task, class_names: &[String], model: &GcnModel) -> Vec<u8> {
    let cfg = model.config();
    let mut w = Writer::new();
    w.put_u8(task_tag(task));
    w.put_str_list(class_names);
    w.put_usize(cfg.input_dim);
    w.put_usize_list(&cfg.conv_channels);
    w.put_usize(cfg.filter_order);
    w.put_usize(cfg.fc_dim);
    w.put_usize(cfg.num_classes);
    w.put_u8(activation_tag(cfg.activation));
    w.put_f64(cfg.dropout);
    w.put_u8(u8::from(cfg.batch_norm));
    w.put_f64(cfg.weight_decay);
    w.put_u64(cfg.seed);
    w.put_f64_list(&model.flatten_params());
    let bn = model.batch_norm_stats();
    w.put_u32(bn.len() as u32);
    for (mean, var) in &bn {
        w.put_f64_list(mean);
        w.put_f64_list(var);
    }
    w.put_u8(0);
    w.into_bytes()
}

/// Decodes a model section, rebuilding the model through its validating
/// constructor and exact parameter-vector restore. The configuration's
/// parameter count must equal the stored vector's length before the model
/// is built, so untrusted dimensions never size an allocation.
pub fn decode_model(bytes: &[u8]) -> Result<(Task, Vec<String>, GcnModel)> {
    let mut r = Reader::new(bytes);
    let task = task_from_tag(r.get_u8()?)?;
    let class_names = r.get_str_list()?;
    let config = GcnConfig {
        input_dim: r.get_usize()?,
        conv_channels: r.get_usize_list()?,
        filter_order: r.get_usize()?,
        fc_dim: r.get_usize()?,
        num_classes: r.get_usize()?,
        activation: activation_from_tag(r.get_u8()?)?,
        dropout: r.get_f64()?,
        batch_norm: r.get_u8()? != 0,
        weight_decay: r.get_f64()?,
        seed: r.get_u64()?,
    };
    let params = r.get_f64_list()?;
    let bn_count = r.get_count(8)?;
    let mut bn = Vec::with_capacity(bn_count);
    for _ in 0..bn_count {
        let mean = r.get_f64_list()?;
        let var = r.get_f64_list()?;
        bn.push((mean, var));
    }
    // Version-1 payloads end here; version 2 appends the presence byte.
    if !r.is_empty() {
        match r.get_u8()? {
            0 => r.expect_end()?,
            1 => {
                return Err(PersistError::Malformed(
                    "model section carries int8 weights, which this binary does not \
                     load; re-save the snapshot from the f64 model"
                        .into(),
                ))
            }
            t => {
                return Err(PersistError::Malformed(format!(
                    "unknown model presence byte {t}"
                )))
            }
        }
    }
    let needed = config
        .parameter_count()
        .map_err(|e| PersistError::Malformed(format!("rejected model config: {e}")))?;
    if needed != params.len() {
        return Err(PersistError::Malformed(format!(
            "model config needs {needed} parameters, section stores {}",
            params.len()
        )));
    }
    let mut model = GcnModel::new(config)
        .map_err(|e| PersistError::Malformed(format!("rejected model config: {e}")))?;
    model
        .apply_flat_params(&params)
        .map_err(|e| PersistError::Malformed(format!("rejected parameter vector: {e}")))?;
    if !bn.is_empty() {
        model
            .set_batch_norm_stats(&bn)
            .map_err(|e| PersistError::Malformed(format!("rejected batch-norm stats: {e}")))?;
    }
    Ok((task, class_names, model))
}

// ------------------------------------------------------------ library --

/// Every device kind, in the fixed order signatures are serialized in.
const KIND_ORDER: [DeviceKind; 9] = [
    DeviceKind::Nmos,
    DeviceKind::Pmos,
    DeviceKind::Resistor,
    DeviceKind::Capacitor,
    DeviceKind::Inductor,
    DeviceKind::VoltageSource,
    DeviceKind::CurrentSource,
    DeviceKind::Diode,
    DeviceKind::Instance,
];

/// Encodes the primitive library: per template, its registration data
/// (name, description, SPICE source, strict flag) plus the *derived*
/// artifacts (VF2 match order, prefilter signature) that the decoder will
/// re-derive and verify.
pub fn encode_library(lib: &PrimitiveLibrary) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(lib.len() as u32);
    for p in lib.iter() {
        w.put_str(p.name());
        w.put_str(p.description());
        w.put_str(p.source());
        w.put_u8(u8::from(p.strict_source_drain()));
        w.put_usize_list(p.match_order());
        w.put_usize(p.signature().max_degree());
        for kind in KIND_ORDER {
            w.put_u64(p.signature().kind_count(kind) as u64);
        }
    }
    w.into_bytes()
}

/// Decodes the primitive library by re-parsing each template from its
/// stored SPICE source, then verifying the re-derived match order and
/// signature against the stored copies (serialize-verify).
pub fn decode_library(bytes: &[u8]) -> Result<PrimitiveLibrary> {
    let mut r = Reader::new(bytes);
    let count = r.get_count(8)?;
    let mut lib = PrimitiveLibrary::new();
    for _ in 0..count {
        let name = r.get_str()?;
        let description = r.get_str()?;
        let source = r.get_str()?;
        let strict = r.get_u8()? != 0;
        let order = r.get_usize_list()?;
        let max_degree = r.get_usize()?;
        let mut kind_counts = [0usize; KIND_ORDER.len()];
        for slot in &mut kind_counts {
            *slot = r.get_usize()?;
        }
        lib.add_from_spice(&name, &description, &source, strict)
            .map_err(|e| PersistError::Malformed(format!("template {name}: {e}")))?;
        let p = lib
            .find(&name)
            .expect("template registered immediately above");
        if p.match_order() != order.as_slice() {
            return Err(PersistError::Malformed(format!(
                "template {name}: stored VF2 match order diverges from re-derived order"
            )));
        }
        if p.signature().max_degree() != max_degree
            || KIND_ORDER
                .iter()
                .zip(kind_counts.iter())
                .any(|(&k, &n)| p.signature().kind_count(k) != n)
        {
            return Err(PersistError::Malformed(format!(
                "template {name}: stored prefilter signature diverges from re-derived signature"
            )));
        }
    }
    r.expect_end()?;
    Ok(lib)
}

// ------------------------------------------------------- region cache --

fn constraint_kind_tag(k: ConstraintKind) -> u8 {
    match k {
        ConstraintKind::Symmetry => 0,
        ConstraintKind::Matching => 1,
        ConstraintKind::CommonCentroid => 2,
        ConstraintKind::Proximity => 3,
        ConstraintKind::GuardRing => 4,
        ConstraintKind::MinimizeWireLength => 5,
        _ => unreachable!("non-exhaustive constraint kind added without a persist tag"),
    }
}

fn constraint_kind_from_tag(tag: u8) -> Result<ConstraintKind> {
    match tag {
        0 => Ok(ConstraintKind::Symmetry),
        1 => Ok(ConstraintKind::Matching),
        2 => Ok(ConstraintKind::CommonCentroid),
        3 => Ok(ConstraintKind::Proximity),
        4 => Ok(ConstraintKind::GuardRing),
        5 => Ok(ConstraintKind::MinimizeWireLength),
        t => Err(PersistError::Malformed(format!(
            "unknown constraint kind tag {t}"
        ))),
    }
}

/// Encodes region-cache entries: WL fingerprint key, device-name guard
/// list, and the cached annotation (instances + constraints + unclaimed).
pub fn encode_cache_entries(entries: &[(u128, CachedBlock)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u32(entries.len() as u32);
    for (key, block) in entries {
        w.put_u128(*key);
        w.put_str_list(&block.devices);
        w.put_u32(block.annotation.instances.len() as u32);
        for inst in &block.annotation.instances {
            w.put_str(&inst.primitive);
            w.put_str_list(&inst.devices);
            w.put_u32(inst.constraints.len() as u32);
            for c in &inst.constraints {
                w.put_u8(constraint_kind_tag(c.kind));
                w.put_str_list(&c.members);
            }
        }
        w.put_str_list(&block.annotation.unclaimed);
    }
    w.into_bytes()
}

/// Decodes region-cache entries in their stored (LRU) order.
pub fn decode_cache_entries(bytes: &[u8]) -> Result<Vec<(u128, CachedBlock)>> {
    let mut r = Reader::new(bytes);
    let count = r.get_count(16)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let key = r.get_u128()?;
        let devices = r.get_str_list()?;
        let inst_count = r.get_count(12)?;
        let mut instances = Vec::with_capacity(inst_count);
        for _ in 0..inst_count {
            let primitive = r.get_str()?;
            let inst_devices = r.get_str_list()?;
            let c_count = r.get_count(5)?;
            let mut constraints = Vec::with_capacity(c_count);
            for _ in 0..c_count {
                let kind = constraint_kind_from_tag(r.get_u8()?)?;
                let members = r.get_str_list()?;
                if members.windows(2).any(|w| w[0] > w[1]) {
                    return Err(PersistError::Malformed(
                        "constraint members are not sorted".into(),
                    ));
                }
                constraints.push(Constraint::new(kind, members));
            }
            instances.push(PrimitiveInstance {
                primitive,
                devices: inst_devices,
                constraints,
            });
        }
        let unclaimed = r.get_str_list()?;
        out.push((
            key,
            CachedBlock {
                devices,
                annotation: AnnotationResult {
                    instances,
                    unclaimed,
                },
            },
        ));
    }
    r.expect_end()?;
    Ok(out)
}

// --------------------------------------------------------------- meta --

/// Snapshot flavor recorded in the meta section.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotFlavor {
    /// A full engine snapshot: models + library + region cache.
    Engine,
}

/// What the meta section records about a snapshot's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Meta {
    /// `CARGO_PKG_VERSION` of the writing binary.
    pub created_by: String,
    /// Snapshot flavor.
    pub flavor: SnapshotFlavor,
}

/// Encodes the meta section.
pub fn encode_meta(meta: &Meta) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_str(&meta.created_by);
    w.put_u8(match meta.flavor {
        SnapshotFlavor::Engine => 0,
    });
    w.into_bytes()
}

/// Decodes the meta section.
pub fn decode_meta(bytes: &[u8]) -> Result<Meta> {
    let mut r = Reader::new(bytes);
    let created_by = r.get_str()?;
    let flavor = match r.get_u8()? {
        0 => SnapshotFlavor::Engine,
        t => {
            return Err(PersistError::Malformed(format!(
                "unknown snapshot flavor tag {t}"
            )))
        }
    };
    r.expect_end()?;
    Ok(Meta { created_by, flavor })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csr_round_trip_is_byte_identical() {
        let m = CsrMatrix::from_raw_parts(
            3,
            4,
            vec![0, 2, 2, 4],
            vec![0, 3, 1, 2],
            vec![1.5, -2.25, 0.5, 4.0],
        )
        .unwrap();
        let bytes = encode_csr(&m);
        let back = decode_csr(&bytes).unwrap();
        assert_eq!(encode_csr(&back), bytes);
        assert_eq!(back.get(0, 3), -2.25);
    }

    #[test]
    fn csr_nnz_mismatch_rejected() {
        let m = CsrMatrix::identity(4);
        let mut bytes = encode_csr(&m);
        // Overwrite the nnz field (third u64) with a lie.
        bytes[16..24].copy_from_slice(&99u64.to_le_bytes());
        assert!(matches!(
            decode_csr(&bytes),
            Err(PersistError::Truncated { .. } | PersistError::Malformed(_))
        ));
    }

    #[test]
    fn library_round_trip_verifies() {
        let lib = PrimitiveLibrary::standard().unwrap();
        let bytes = encode_library(&lib);
        let back = decode_library(&bytes).unwrap();
        assert_eq!(back.len(), lib.len());
        assert_eq!(encode_library(&back), bytes);
    }

    #[test]
    fn library_order_drift_rejected() {
        let lib = PrimitiveLibrary::standard().unwrap();
        let bytes = encode_library(&lib);
        // Corrupt one stored match-order entry of the first template:
        // locate its order list right after name/description/source/strict.
        let mut r = Reader::new(&bytes);
        let _count = r.get_u32().unwrap();
        let _name = r.get_str().unwrap();
        let _desc = r.get_str().unwrap();
        let _src = r.get_str().unwrap();
        let _strict = r.get_u8().unwrap();
        let order_pos = bytes.len() - r.remaining() + 4; // skip list length
        let mut evil = bytes.clone();
        evil[order_pos..order_pos + 8].copy_from_slice(&1_000u64.to_le_bytes());
        assert!(matches!(
            decode_library(&evil),
            Err(PersistError::Malformed(_))
        ));
    }

    #[test]
    fn cache_entries_round_trip() {
        let entries = vec![(
            42u128 << 64 | 7,
            CachedBlock {
                devices: vec!["m1".into(), "m2".into()],
                annotation: AnnotationResult {
                    instances: vec![PrimitiveInstance {
                        primitive: "CM_N2".into(),
                        devices: vec!["m1".into(), "m2".into()],
                        constraints: vec![Constraint::new(
                            ConstraintKind::Matching,
                            vec!["m1".into(), "m2".into()],
                        )],
                    }],
                    unclaimed: vec![],
                },
            },
        )];
        let bytes = encode_cache_entries(&entries);
        let back = decode_cache_entries(&bytes).unwrap();
        assert_eq!(back, entries);
        assert_eq!(encode_cache_entries(&back), bytes);
    }

    fn small_model() -> GcnModel {
        GcnModel::new(GcnConfig {
            conv_channels: vec![4],
            filter_order: 2,
            fc_dim: 8,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn f64_and_v1_model_payloads_decode() {
        let model = small_model();
        let bytes = encode_model(Task::Rf, &["lna".into()], &model);
        assert_eq!(bytes.last(), Some(&0), "presence byte is always 0");
        let (task, names, back) = decode_model(&bytes).unwrap();
        assert_eq!(encode_model(task, &names, &back), bytes);
        // A version-1 payload is the same encoding minus the trailing
        // presence byte; it decodes to the same model.
        let v1 = &bytes[..bytes.len() - 1];
        let (_, _, old) = decode_model(v1).unwrap();
        assert_eq!(old.flatten_params(), back.flatten_params());
    }

    #[test]
    fn int8_model_section_is_rejected() {
        // Presence byte 1 started the int8 weight block older binaries
        // wrote; loading it as f64 would silently change the model.
        let mut bytes = encode_model(Task::OtaBias, &["a".into(), "b".into()], &small_model());
        *bytes.last_mut().unwrap() = 1;
        bytes.extend_from_slice(&1u32.to_le_bytes());
        match decode_model(&bytes) {
            Err(PersistError::Malformed(message)) => {
                assert!(message.contains("int8"), "{message}")
            }
            other => panic!("int8 section must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn quantized_block_shape_lies_rejected() {
        // The int8 block is refused at its presence byte, before any of its
        // shape fields are read: a lying level count, a huge one, or no
        // block body at all all give the same int8 error.
        let plain = encode_model(Task::OtaBias, &["a".into(), "b".into()], &small_model());
        let block_start = plain.len() - 1;
        for tail in [
            &9u32.to_le_bytes()[..],
            &u32::MAX.to_le_bytes()[..],
            &[][..],
        ] {
            let mut evil = plain[..block_start].to_vec();
            evil.push(1);
            evil.extend_from_slice(tail);
            match decode_model(&evil) {
                Err(PersistError::Malformed(message)) => {
                    assert!(message.contains("int8"), "{message}")
                }
                other => panic!("int8 block must be rejected, got {other:?}"),
            }
        }
        let mut unknown = plain.clone();
        unknown[block_start] = 2;
        assert!(matches!(
            decode_model(&unknown),
            Err(PersistError::Malformed(message)) if message.contains("presence byte 2")
        ));
    }

    #[test]
    fn meta_round_trip() {
        let meta = Meta {
            created_by: "0.1.0".into(),
            flavor: SnapshotFlavor::Engine,
        };
        let back = decode_meta(&encode_meta(&meta)).unwrap();
        assert_eq!(back, meta);
    }
}
