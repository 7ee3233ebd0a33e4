//! End-to-end test of the `gana` CLI binary: generate → inspect → train →
//! annotate with checkpoint round-trip through the filesystem.

use std::path::PathBuf;
use std::process::Command;

fn gana() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gana"))
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gana_cli_{tag}"));
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn generate_then_inspect() {
    let dir = temp_dir("inspect");
    let netlist = dir.join("sc.sp");
    let out = gana()
        .args(["generate", "--kind", "sc-filter", "--out"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(netlist.exists());

    let out = gana().arg("inspect").arg(&netlist).output().expect("runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("devices"), "{text}");
    assert!(text.contains("primitives:"), "{text}");
    assert!(text.contains("DP_N"), "telescopic OTA's pair found: {text}");
}

#[test]
fn train_checkpoint_annotate_roundtrip() {
    let dir = temp_dir("train");
    let ckpt = dir.join("ota.ckpt");
    let netlist = dir.join("design.sp");
    let export = dir.join("annotated.sp");

    let out = gana()
        .args(["generate", "--kind", "ota", "--seed", "3", "--out"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Tiny training run: the test checks plumbing, not accuracy.
    let out = gana()
        .args([
            "train",
            "--task",
            "ota",
            "--circuits",
            "16",
            "--epochs",
            "2",
            "--out",
        ])
        .arg(&ckpt)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(ckpt.exists());

    let dot = dir.join("hierarchy.dot");
    let out = gana()
        .arg("annotate")
        .arg(&netlist)
        .arg("--model")
        .arg(&ckpt)
        .args(["--task", "ota", "--export"])
        .arg(&export)
        .arg("--dot")
        .arg(&dot)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("hierarchy:"), "{text}");
    let dot_text = std::fs::read_to_string(&dot).expect("dot written");
    assert!(dot_text.starts_with("digraph"), "{dot_text}");

    // The exported hierarchical netlist parses and flattens back to the
    // same device count as the *preprocessed* input (the pipeline folds
    // parallel splits, dummies, and decaps before recognition).
    let exported = std::fs::read_to_string(&export).expect("written");
    let lib = gana::netlist::parse_library(&exported).expect("parses");
    assert!(!lib.subckts().is_empty(), "sub-blocks exported");
    let flat = gana::netlist::flatten(&lib).expect("flattens");
    let original = std::fs::read_to_string(&netlist).expect("readable");
    let original_lib = gana::netlist::parse_library(&original).expect("parses");
    let (clean, _) = gana::netlist::preprocess(
        original_lib.top(),
        gana::netlist::PreprocessOptions::default(),
    )
    .expect("preprocesses");
    assert_eq!(flat.device_count(), clean.device_count());

    // Incremental re-annotation against a baseline revision: identical
    // revisions take the full-splice path and report it.
    let out = gana()
        .arg("annotate")
        .arg(&netlist)
        .arg("--model")
        .arg(&ckpt)
        .args(["--task", "ota", "--baseline"])
        .arg(&netlist)
        .output()
        .expect("runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("incremental vs"), "{text}");
    assert!(text.contains("full splice"), "{text}");
    assert!(text.contains("hierarchy:"), "{text}");
}

#[test]
fn submit_exits_nonzero_on_per_job_error() {
    use gana::core::{Pipeline, Task};
    use gana::gnn::{GcnConfig, GcnModel};
    use gana::primitives::PrimitiveLibrary;
    use gana::serve::server::{serve, ServerConfig};
    use gana::serve::Engine;

    // In-process daemon on an ephemeral port; the model is untrained —
    // per-job error handling doesn't depend on accuracy.
    let pipeline = Pipeline::new(
        GcnModel::new(GcnConfig {
            conv_channels: vec![8, 8],
            filter_order: 4,
            fc_dim: 16,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        })
        .expect("valid config"),
        vec!["ota".into(), "bias".into()],
        PrimitiveLibrary::standard().expect("library parses"),
        Task::OtaBias,
    );
    let engine = std::sync::Arc::new(Engine::builder().pipeline(pipeline).workers(2).build());
    let handle = serve(
        engine,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            stats_interval: None,
            snapshot_interval: None,
        },
    )
    .expect("binds an ephemeral port");
    let addr = handle.local_addr().to_string();

    let dir = temp_dir("submit_err");
    let garbage = dir.join("garbage.sp");
    std::fs::write(&garbage, "M0 not a netlist\n").expect("writes");

    let out = gana()
        .arg("submit")
        .arg(&garbage)
        .args(["--task", "ota", "--addr", &addr])
        .output()
        .expect("runs");
    assert!(
        !out.status.success(),
        "a structured per-job error must exit non-zero: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("parse"),
        "error names the job error code: {err}"
    );

    handle.shutdown();
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = gana().arg("annotate").output().expect("runs");
    assert!(!out.status.success(), "missing args must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("error:"), "{err}");

    let out = gana().arg("frobnicate").output().expect("runs");
    assert!(!out.status.success());

    let out = gana().arg("help").output().expect("runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("USAGE"));
}

/// Runs `gana` with `args` and returns its stderr, asserting a non-zero
/// exit.
fn failing_stderr(args: &[&str]) -> String {
    let out = gana().args(args).output().expect("runs");
    assert!(
        !out.status.success(),
        "{args:?} must fail: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn serve_rejects_the_removed_quantized_flag() {
    // The model path does not exist: if the flag were accepted, the
    // daemon would fail on the checkpoint instead of naming the flag.
    let model = temp_dir("serve_flag").join("missing.ckpt");
    let model = model.to_str().expect("utf-8 path");
    let err = failing_stderr(&["serve", "--quantized", "--model", model, "--task", "ota"]);
    assert!(err.contains("--quantized"), "error names the flag: {err}");
    let err = failing_stderr(&["serve", "--quantizd", "--model", model, "--task", "ota"]);
    assert!(err.contains("--quantizd"), "a typo is named too: {err}");
}

#[test]
fn train_rejects_a_misspelled_flag() {
    let out = temp_dir("train_flag").join("x.ckpt");
    let out = out.to_str().expect("utf-8 path");
    let err = failing_stderr(&[
        "train",
        "--task",
        "ota",
        "--circuits",
        "2",
        "--epoch",
        "1",
        "--out",
        out,
    ]);
    assert!(err.contains("--epoch "), "error names the flag: {err}");
}
