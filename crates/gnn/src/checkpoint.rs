//! Model checkpoints: save a trained GCN to disk and reload it later.
//!
//! The paper trains for "under 2 hours for each dataset"; a deployment
//! annotates many netlists with one trained model, so persistence is part
//! of the public API. The format is a versioned, line-oriented text file
//! (config header + parameter block) with no extra dependencies.

use crate::activation::Activation;
use crate::model::{GcnConfig, GcnModel};
use crate::{GnnError, Result};
use std::fmt::Write as _;
use std::path::Path;

const MAGIC: &str = "gana-gcn-checkpoint v1";

/// Serializes a model (config + all parameters) to the checkpoint format.
pub fn to_string(model: &GcnModel) -> String {
    let config = model.config();
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "input_dim {}", config.input_dim);
    let channels: Vec<String> = config.conv_channels.iter().map(|c| c.to_string()).collect();
    let _ = writeln!(out, "conv_channels {}", channels.join(","));
    let _ = writeln!(out, "filter_order {}", config.filter_order);
    let _ = writeln!(out, "fc_dim {}", config.fc_dim);
    let _ = writeln!(out, "num_classes {}", config.num_classes);
    let activation = match config.activation {
        Activation::Relu => "relu",
        Activation::Tanh => "tanh",
        Activation::Identity => "identity",
    };
    let _ = writeln!(out, "activation {activation}");
    let _ = writeln!(out, "dropout {:e}", config.dropout);
    let _ = writeln!(out, "batch_norm {}", config.batch_norm);
    let _ = writeln!(out, "weight_decay {:e}", config.weight_decay);
    let _ = writeln!(out, "seed {}", config.seed);
    let params = model.flatten_params();
    let _ = writeln!(out, "params {}", params.len());
    for chunk in params.chunks(8) {
        let line: Vec<String> = chunk.iter().map(|p| format!("{p:e}")).collect();
        let _ = writeln!(out, "{}", line.join(" "));
    }
    // Batch-norm running statistics, one mean line + one variance line per
    // layer (inference fidelity for batch_norm models).
    let bn_stats = model.batch_norm_stats();
    if !bn_stats.is_empty() {
        let _ = writeln!(out, "bn_stats {}", bn_stats.len());
        for (means, vars) in bn_stats {
            let m: Vec<String> = means.iter().map(|v| format!("{v:e}")).collect();
            let v: Vec<String> = vars.iter().map(|v| format!("{v:e}")).collect();
            let _ = writeln!(out, "{}", m.join(" "));
            let _ = writeln!(out, "{}", v.join(" "));
        }
    }
    out
}

/// Reconstructs a model from checkpoint text.
///
/// # Errors
///
/// Returns [`GnnError::InvalidConfig`] for a wrong magic line, malformed
/// fields, or a parameter count that does not match the config.
pub fn from_str(text: &str) -> Result<GcnModel> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(MAGIC) {
        return Err(GnnError::InvalidConfig(
            "not a gana checkpoint (bad magic)".to_string(),
        ));
    }
    let mut config = GcnConfig::default();
    let mut expected_params: Option<usize> = None;
    for line in lines.by_ref() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, value) = line
            .split_once(' ')
            .ok_or_else(|| GnnError::InvalidConfig(format!("malformed line {line:?}")))?;
        let bad = |what: &str| GnnError::InvalidConfig(format!("bad {what}: {value:?}"));
        match key {
            "input_dim" => config.input_dim = value.parse().map_err(|_| bad("input_dim"))?,
            "conv_channels" => {
                config.conv_channels = value
                    .split(',')
                    .map(|c| c.trim().parse::<usize>())
                    .collect::<std::result::Result<_, _>>()
                    .map_err(|_| bad("conv_channels"))?;
            }
            "filter_order" => {
                config.filter_order = value.parse().map_err(|_| bad("filter_order"))?;
            }
            "fc_dim" => config.fc_dim = value.parse().map_err(|_| bad("fc_dim"))?,
            "num_classes" => config.num_classes = value.parse().map_err(|_| bad("num_classes"))?,
            "activation" => {
                config.activation = match value {
                    "relu" => Activation::Relu,
                    "tanh" => Activation::Tanh,
                    "identity" => Activation::Identity,
                    _ => return Err(bad("activation")),
                };
            }
            "dropout" => config.dropout = value.parse().map_err(|_| bad("dropout"))?,
            "batch_norm" => config.batch_norm = value.parse().map_err(|_| bad("batch_norm"))?,
            "weight_decay" => {
                config.weight_decay = value.parse().map_err(|_| bad("weight_decay"))?;
            }
            "seed" => config.seed = value.parse().map_err(|_| bad("seed"))?,
            "params" => {
                expected_params = Some(value.parse().map_err(|_| bad("params count"))?);
                break;
            }
            _ => {
                return Err(GnnError::InvalidConfig(format!(
                    "unknown checkpoint key {key:?}"
                )))
            }
        }
    }
    let expected = expected_params
        .ok_or_else(|| GnnError::InvalidConfig("checkpoint has no params block".to_string()))?;
    // Grown from the text, never pre-sized from the declared count: the
    // file's own length bounds this allocation.
    let mut params: Vec<f64> = Vec::new();
    let mut bn_layer_count: Option<usize> = None;
    let mut bn_lines: Vec<Vec<f64>> = Vec::new();
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(count) = line.strip_prefix("bn_stats ") {
            bn_layer_count =
                Some(count.parse().map_err(|_| {
                    GnnError::InvalidConfig(format!("bad bn_stats count {count:?}"))
                })?);
            continue;
        }
        let values: Vec<f64> = line
            .split_whitespace()
            .map(|token| {
                token
                    .parse()
                    .map_err(|_| GnnError::InvalidConfig(format!("bad parameter {token:?}")))
            })
            .collect::<Result<_>>()?;
        if bn_layer_count.is_some() {
            bn_lines.push(values);
        } else {
            params.extend(values);
        }
    }
    if params.len() != expected {
        return Err(GnnError::InvalidConfig(format!(
            "checkpoint declares {expected} parameters but contains {}",
            params.len()
        )));
    }
    // Checked before the model is built, so untrusted dimensions never
    // size an allocation beyond the parameters actually present.
    let needed = config.parameter_count()?;
    if needed != params.len() {
        return Err(GnnError::InvalidConfig(format!(
            "checkpoint config needs {needed} parameters but contains {}",
            params.len()
        )));
    }
    let mut model = GcnModel::new(config)?;
    model.apply_flat_params(&params)?;
    if let Some(count) = bn_layer_count {
        if count.checked_mul(2) != Some(bn_lines.len()) {
            return Err(GnnError::InvalidConfig(format!(
                "bn_stats declares {count} layers but has {} lines",
                bn_lines.len()
            )));
        }
        let stats: Vec<(Vec<f64>, Vec<f64>)> = bn_lines
            .chunks(2)
            .map(|pair| (pair[0].clone(), pair[1].clone()))
            .collect();
        model.set_batch_norm_stats(&stats)?;
    }
    Ok(model)
}

/// Saves a model to a file.
///
/// # Errors
///
/// Returns [`GnnError::InvalidConfig`] wrapping the I/O failure message.
pub fn save(model: &GcnModel, path: impl AsRef<Path>) -> Result<()> {
    std::fs::write(path.as_ref(), to_string(model)).map_err(|e| {
        GnnError::InvalidConfig(format!("cannot write checkpoint {:?}: {e}", path.as_ref()))
    })
}

/// Loads a model from a file.
///
/// # Errors
///
/// Returns [`GnnError::InvalidConfig`] for I/O failures and format errors.
pub fn load(path: impl AsRef<Path>) -> Result<GcnModel> {
    let text = std::fs::read_to_string(path.as_ref()).map_err(|e| {
        GnnError::InvalidConfig(format!("cannot read checkpoint {:?}: {e}", path.as_ref()))
    })?;
    from_str(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::GraphSample;
    use gana_graph::{CircuitGraph, GraphOptions};

    fn trained_model() -> (GcnModel, GraphSample) {
        let circuit =
            gana_netlist::parse("M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\nR1 d2 o 1k\n")
                .expect("valid");
        let graph = CircuitGraph::build(&circuit, GraphOptions::default());
        let labels = (0..graph.vertex_count()).map(|v| Some(v % 2)).collect();
        let sample = GraphSample::prepare("t", &circuit, &graph, labels, 1, 0).expect("ok");
        let mut model = GcnModel::new(GcnConfig {
            conv_channels: vec![4],
            filter_order: 3,
            fc_dim: 8,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        })
        .expect("valid");
        // A few steps so parameters differ from initialization.
        use crate::optimizer::{Adam, Optimizer};
        let mut opt = Adam::new(0.01);
        for _ in 0..3 {
            let step = model.train_step(&sample).expect("steps");
            let mut params = model.flatten_params();
            opt.step(&mut params, &step.grads.flatten());
            model.apply_flat_params(&params).expect("applies");
        }
        (model, sample)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (model, sample) = trained_model();
        let text = to_string(&model);
        let restored = from_str(&text).expect("loads");
        assert_eq!(restored.flatten_params(), model.flatten_params());
        assert_eq!(
            restored.predict(&sample).expect("predicts"),
            model.predict(&sample).expect("predicts")
        );
    }

    #[test]
    fn file_round_trip() {
        let (model, _) = trained_model();
        let dir = std::env::temp_dir().join("gana_ckpt_test");
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("model.ckpt");
        save(&model, &path).expect("saves");
        let restored = load(&path).expect("loads");
        assert_eq!(restored.flatten_params(), model.flatten_params());
    }

    #[test]
    fn batch_norm_running_stats_round_trip() {
        let circuit =
            gana_netlist::parse("M0 d1 d1 gnd! gnd! NMOS\nM1 d2 d1 gnd! gnd! NMOS\nR1 d2 o 1k\n")
                .expect("valid");
        let graph = gana_graph::CircuitGraph::build(&circuit, gana_graph::GraphOptions::default());
        let labels = (0..graph.vertex_count()).map(|v| Some(v % 2)).collect();
        let sample = GraphSample::prepare("t", &circuit, &graph, labels, 1, 0).expect("ok");
        let mut model = GcnModel::new(GcnConfig {
            conv_channels: vec![4],
            filter_order: 2,
            fc_dim: 8,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: true,
            ..GcnConfig::default()
        })
        .expect("valid");
        // Train a few steps so running stats move off their defaults.
        for _ in 0..5 {
            model.train_step(&sample).expect("steps");
        }
        let stats_before = model.batch_norm_stats();
        assert!(!stats_before.is_empty());
        let restored = from_str(&to_string(&model)).expect("loads");
        assert_eq!(restored.batch_norm_stats(), stats_before);
        assert_eq!(
            restored.predict(&sample).expect("predicts"),
            model.predict(&sample).expect("predicts"),
            "inference identical incl. batch-norm statistics"
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(from_str("not a checkpoint\n").is_err());
    }

    #[test]
    fn truncated_params_are_rejected() {
        let (model, _) = trained_model();
        let text = to_string(&model);
        let truncated: String = text
            .lines()
            .take(text.lines().count() - 2)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(from_str(&truncated).is_err());
    }

    #[test]
    fn oversized_dimensions_are_rejected_before_allocation() {
        // A filter order of 2^40 + 2 with an empty or short parameter
        // block must be a structured error, not an allocation abort.
        let (model, _) = trained_model();
        let text = to_string(&model).replace(
            "filter_order 3\n",
            &format!("filter_order {}\n", (1u64 << 40) + 2),
        );
        assert!(from_str(&text).is_err());
        let empty = format!("{MAGIC}\nfilter_order {}\nparams 0\n", (1u64 << 40) + 2);
        assert!(from_str(&empty).is_err());
        let huge_count = format!("{MAGIC}\nparams {}\n", u64::MAX);
        assert!(from_str(&huge_count).is_err());
    }

    #[test]
    fn unknown_keys_are_rejected() {
        let text = format!("{MAGIC}\nfrobnicate 7\nparams 0\n");
        assert!(from_str(&text).is_err());
    }
}
