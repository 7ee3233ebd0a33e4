//! The end-to-end GANA pipeline.

use crate::hierarchy::{self, HierarchyNode};
use crate::workspace::Workspace;
use crate::{post1, post2, Result};
use gana_gnn::{GcnModel, GraphSample};
use gana_graph::{CircuitGraph, GraphOptions, VertexId};
use gana_netlist::{preprocess, Circuit, PreprocessOptions};
use gana_par::Parallelism;
use gana_primitives::{constraints, AnnotationResult, Constraint, PrimitiveLibrary};
use std::sync::Arc;

/// Which recognition task the pipeline runs; selects the Postprocessing II
/// rule set (Section V-A: "Postprocessing II requires domain-specific
/// annotation, and may require new rules as new classes … are added").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// OTA signal path vs. bias network (2 classes).
    OtaBias,
    /// LNA / mixer / oscillator, plus BPF/BUF/INV via postprocessing.
    Rf,
}

/// A recognized sub-block with its final label and primitive contents.
#[derive(Debug, Clone)]
pub struct SubBlock {
    /// Final label after Postprocessing II (`"ota"`, `"lna"`, `"bpf"`, …).
    pub label: String,
    /// Majority GCN class before postprocessing.
    pub gcn_class: usize,
    /// Device names, sorted.
    pub devices: Vec<String>,
    /// Element vertex ids in the design graph.
    pub elements: Vec<VertexId>,
    /// Net vertex ids owned by the block.
    pub nets: Vec<VertexId>,
    /// Primitive annotation within the block.
    pub annotation: AnnotationResult,
    /// True when the block is a separated stand-alone primitive.
    pub standalone: bool,
}

/// The full recognition result.
#[derive(Debug, Clone)]
pub struct RecognizedDesign {
    /// The preprocessed flat circuit the graph was built from.
    pub circuit: Circuit,
    /// The bipartite design graph.
    pub graph: CircuitGraph,
    /// Raw GCN class per vertex.
    pub gcn_class: Vec<usize>,
    /// Class per vertex after Postprocessing I smoothing.
    pub smoothed_class: Vec<usize>,
    /// Final label per vertex after Postprocessing II.
    pub final_label: Vec<String>,
    /// Recognized sub-blocks.
    pub sub_blocks: Vec<SubBlock>,
    /// The hierarchy tree.
    pub hierarchy: HierarchyNode,
    /// All layout constraints (primitive-level + sub-block-level).
    pub constraints: Vec<Constraint>,
}

impl RecognizedDesign {
    /// Final label of a device, if it is part of the design graph.
    pub fn device_label(&self, device: &str) -> Option<&str> {
        self.graph
            .element_vertex(device)
            .map(|v| self.final_label[v].as_str())
    }

    /// Device-level accuracy against ground-truth labels
    /// (the metric of the paper's Fig. 7 discussion: "all 522 devices
    /// (100%) are classified correctly").
    ///
    /// `truth` maps device names to expected labels; devices missing from
    /// the map are skipped.
    pub fn device_accuracy<'a>(&self, truth: impl IntoIterator<Item = (&'a str, &'a str)>) -> f64 {
        let mut total = 0usize;
        let mut correct = 0usize;
        for (device, expected) in truth {
            if let Some(actual) = self.device_label(device) {
                total += 1;
                if actual == expected {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }
}

/// The GANA pipeline: trained model + primitive library + task rules.
///
/// The heavyweight immutable artifacts — the trained [`GcnModel`] and the
/// 21-primitive [`PrimitiveLibrary`] — live behind [`Arc`], so cloning a
/// `Pipeline` is a handful of reference-count bumps. A service can load the
/// artifacts once and hand a clone to every worker thread; all per-request
/// state lives on the stack of [`Pipeline::recognize`].
#[derive(Debug, Clone)]
pub struct Pipeline {
    model: Arc<GcnModel>,
    class_names: Arc<[String]>,
    library: Arc<PrimitiveLibrary>,
    task: Task,
    preprocess_options: PreprocessOptions,
    coarsen_seed: u64,
    parallelism: Parallelism,
    workspace: Arc<Workspace>,
}

impl Pipeline {
    /// Creates a pipeline around a trained model, taking ownership of the
    /// artifacts (they are moved behind `Arc`s).
    pub fn new(
        model: GcnModel,
        class_names: Vec<String>,
        library: PrimitiveLibrary,
        task: Task,
    ) -> Pipeline {
        Pipeline::shared(Arc::new(model), class_names.into(), Arc::new(library), task)
    }

    /// Creates a pipeline around already-shared artifacts. Several pipelines
    /// (e.g. one per task) can reference the same model or library without
    /// duplicating either.
    pub fn shared(
        model: Arc<GcnModel>,
        class_names: Arc<[String]>,
        library: Arc<PrimitiveLibrary>,
        task: Task,
    ) -> Pipeline {
        Pipeline {
            model,
            class_names,
            library,
            task,
            preprocess_options: PreprocessOptions::default(),
            coarsen_seed: 0,
            parallelism: Parallelism::serial(),
            workspace: Arc::new(Workspace::new()),
        }
    }

    /// Overrides the preprocessing options.
    pub fn with_preprocess(mut self, options: PreprocessOptions) -> Pipeline {
        self.preprocess_options = options;
        self
    }

    /// Sets the intra-request thread budget spent on the per-sub-block
    /// Postprocessing I and per-template VF2 fan-out; the GCN forward pass
    /// always runs on the calling thread. The default is serial; the output
    /// is bit-identical at any thread count (`gana-par`'s determinism
    /// contract, enforced by the `parallel_equivalence` tests).
    pub fn with_threads(self, threads: usize) -> Pipeline {
        self.with_parallelism(Parallelism::new(threads))
    }

    /// Sets a shared [`Parallelism`] budget (e.g. one owned by a serving
    /// engine, so every worker's pipelines report into one pool gauge).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Pipeline {
        self.parallelism = parallelism;
        self
    }

    /// Attaches a shared [`Workspace`] whose scratch buffers survive across
    /// requests. Pipelines created without one get a private workspace, so
    /// back-to-back calls on a single `Pipeline` already reuse buffers; a
    /// serving engine passes one workspace per worker instead, keeping the
    /// steady-state footprint at one buffer set per thread.
    pub fn with_workspace(mut self, workspace: Arc<Workspace>) -> Pipeline {
        self.workspace = workspace;
        self
    }

    /// The annotation workspace (scratch buffers + prune/footprint counters).
    pub fn workspace(&self) -> &Arc<Workspace> {
        &self.workspace
    }

    /// Overrides the coarsening seed used when preparing inference samples.
    pub fn with_coarsen_seed(mut self, seed: u64) -> Pipeline {
        self.coarsen_seed = seed;
        self
    }

    /// The GCN class names.
    pub fn class_names(&self) -> &[String] {
        &self.class_names
    }

    /// The trained model.
    pub fn model(&self) -> &GcnModel {
        &self.model
    }

    /// Shared handle to the trained model.
    pub fn model_arc(&self) -> Arc<GcnModel> {
        Arc::clone(&self.model)
    }

    /// The primitive library.
    pub fn library(&self) -> &PrimitiveLibrary {
        &self.library
    }

    /// Shared handle to the primitive library.
    pub fn library_arc(&self) -> Arc<PrimitiveLibrary> {
        Arc::clone(&self.library)
    }

    /// The recognition task this pipeline runs.
    pub fn task(&self) -> Task {
        self.task
    }

    /// Runs only the preprocessing stage (Section II-B folding).
    ///
    /// # Errors
    ///
    /// Propagates preprocessing errors.
    pub fn preprocess_only(&self, circuit: &Circuit) -> Result<Circuit> {
        let (clean, _) = preprocess(circuit, self.preprocess_options)?;
        Ok(clean)
    }

    /// Builds the graph and inference sample for an already-preprocessed
    /// circuit (the coarsening half of [`Pipeline::prepare`]); incremental
    /// callers use it to prepare samples for dirty subcircuits only.
    ///
    /// # Errors
    ///
    /// Propagates coarsening errors.
    pub fn prepare_preprocessed(&self, clean: &Circuit) -> Result<(CircuitGraph, GraphSample)> {
        let mut graph = CircuitGraph::build(clean, GraphOptions::default());
        let labels = vec![None; graph.vertex_count()];
        let sample = GraphSample::prepare(
            clean.name().to_string(),
            clean,
            &graph,
            labels,
            self.model.config().levels(),
            self.coarsen_seed,
        )?;
        // The coarsening permutation joins the design's unified store, so
        // one handle owns everything derived from the netlist.
        graph
            .store_mut()
            .record_coarsening(sample.coarsening.section());
        Ok((graph, sample))
    }

    /// Prepares an inference sample for a circuit (preprocess + graph +
    /// coarsening), without labels.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and coarsening errors.
    pub fn prepare(&self, circuit: &Circuit) -> Result<(Circuit, CircuitGraph, GraphSample)> {
        let clean = self.preprocess_only(circuit)?;
        let (graph, sample) = self.prepare_preprocessed(&clean)?;
        Ok((clean, graph, sample))
    }

    /// Runs the full pipeline on a flattened circuit.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and model errors.
    pub fn recognize(&self, circuit: &Circuit) -> Result<RecognizedDesign> {
        let (clean, graph, sample) = self.prepare(circuit)?;
        let gcn_class = self.predict_sample(&sample)?;
        Ok(self.finish(clean, graph, gcn_class))
    }

    /// Runs GCN inference on a prepared sample through the pipeline's
    /// workspace buffers (byte-identical to [`GcnModel::predict`] on a
    /// fresh workspace).
    ///
    /// # Errors
    ///
    /// Propagates model shape errors.
    pub fn predict_sample(&self, sample: &GraphSample) -> Result<Vec<usize>> {
        let mut out = self.predict_samples(&[sample])?;
        Ok(out.pop().unwrap_or_default())
    }

    /// Runs GCN inference on a whole batch of prepared samples in one
    /// forward pass ([`GcnModel::forward`]), returning one prediction
    /// vector per sample in order. Two or more samples fuse into a
    /// block-diagonal operator so the batch shares a single Chebyshev sweep
    /// per layer; results are byte-identical to calling
    /// [`Pipeline::predict_sample`] per sample.
    ///
    /// # Errors
    ///
    /// Propagates model shape errors for any sample in the batch.
    pub fn predict_samples(&self, samples: &[&GraphSample]) -> Result<Vec<Vec<usize>>> {
        Ok(self.workspace.forward(&self.model, samples)?)
    }

    /// Runs postprocessing and hierarchy construction on externally
    /// produced per-vertex predictions (used by evaluation code that wants
    /// to score the raw GCN separately).
    pub fn finish(
        &self,
        circuit: Circuit,
        graph: CircuitGraph,
        gcn_class: Vec<usize>,
    ) -> RecognizedDesign {
        let library = Arc::clone(&self.library);
        let workspace = Arc::clone(&self.workspace);
        self.finish_with_annotator(circuit, graph, gcn_class, &|par, sub_circuit, sub_graph| {
            gana_primitives::annotate_with_workspace(
                par,
                &library,
                sub_circuit,
                sub_graph,
                workspace.matcher(),
            )
        })
    }

    /// [`Pipeline::finish`] with per-sub-block primitive annotation
    /// delegated to `annotator` (see [`post1::apply_with_annotator`]);
    /// everything else — smoothing, merging, Postprocessing II, hierarchy,
    /// constraints — is computed exactly as in the cold path. Sub-blocks
    /// annotate concurrently over the pipeline's thread budget, so the
    /// annotator must be `Sync`; it receives the leftover per-sub-block
    /// budget for template-level fan-out.
    pub fn finish_with_annotator(
        &self,
        circuit: Circuit,
        mut graph: CircuitGraph,
        gcn_class: Vec<usize>,
        annotator: &post1::Annotator<'_>,
    ) -> RecognizedDesign {
        let separate_inverters = self.task == Task::Rf;
        let stage1 = post1::apply_with_annotator(
            &self.parallelism,
            &circuit,
            &graph,
            &gcn_class,
            separate_inverters,
            annotator,
        );
        let labels = post2::apply(
            &circuit,
            &graph,
            &stage1.sub_blocks,
            &self.class_names,
            self.task,
        );

        // Consume the stage-1 blocks so their element/net/annotation buffers
        // move into the result instead of being deep-cloned per block.
        let mut sub_blocks: Vec<SubBlock> = Vec::with_capacity(stage1.sub_blocks.len());
        for (raw, label) in stage1.sub_blocks.into_iter().zip(labels) {
            let standalone = raw.standalone_label.is_some();
            sub_blocks.push(SubBlock {
                label,
                gcn_class: raw.gcn_class,
                devices: raw.device_names(&graph),
                elements: raw.elements,
                nets: raw.nets,
                annotation: raw.annotation,
                standalone,
            });
        }

        // Per-vertex final labels: sub-block label, else smoothed class name.
        let class_name = |c: usize| {
            self.class_names
                .get(c)
                .cloned()
                .unwrap_or_else(|| format!("class{c}"))
        };
        let mut final_label: Vec<String> = stage1.smoothed.iter().map(|&c| class_name(c)).collect();
        for (idx, block) in sub_blocks.iter().enumerate() {
            let _ = idx;
            for &v in block.elements.iter().chain(block.nets.iter()) {
                final_label[v] = block.label.clone();
            }
        }
        // Vertices not owned by any block (gate-only nets): take the label
        // of a neighboring owned vertex when available.
        for v in 0..graph.vertex_count() {
            if stage1.block_of[v].is_none() {
                if let Some(&(u, _)) = graph
                    .neighbors(v)
                    .iter()
                    .find(|&&(u, _)| stage1.block_of[u].is_some())
                {
                    final_label[v] = final_label[u].clone();
                }
            }
        }

        // Constraints: primitive-level from annotation, block-level from
        // the final label.
        let mut all_constraints: Vec<Constraint> = Vec::new();
        for block in &sub_blocks {
            for inst in &block.annotation.instances {
                all_constraints.extend(inst.constraints.iter().cloned());
            }
            for kind in constraints::sub_block_constraints(&block.label) {
                // Block-level symmetry means "symmetric about the
                // differential/cross-coupled pair axis" (Section III-C):
                // it covers the symmetric pairs, not every device.
                let members = if kind == gana_primitives::ConstraintKind::Symmetry {
                    let pair_devices: Vec<String> = block
                        .annotation
                        .instances
                        .iter()
                        .filter(|i| {
                            i.primitive.starts_with("DP_") || i.primitive.starts_with("CCP_")
                        })
                        .flat_map(|i| i.devices.iter().cloned())
                        .collect();
                    if pair_devices.is_empty() {
                        continue;
                    }
                    pair_devices
                } else {
                    block.devices.clone()
                };
                all_constraints.push(Constraint::new(kind, members));
            }
        }
        all_constraints.sort();
        all_constraints.dedup();

        let hierarchy = hierarchy::build(circuit.name(), &sub_blocks);
        graph
            .store_mut()
            .record_hierarchy(hierarchy::to_slab(&hierarchy));
        let smoothed_class = stage1.smoothed;
        RecognizedDesign {
            circuit,
            graph,
            gcn_class,
            smoothed_class,
            final_label,
            sub_blocks,
            hierarchy,
            constraints: all_constraints,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana_gnn::GcnConfig;

    fn tiny_pipeline(task: Task, names: &[&str]) -> Pipeline {
        let config = GcnConfig {
            conv_channels: vec![4, 4],
            filter_order: 2,
            fc_dim: 8,
            num_classes: names.len(),
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        };
        let model = GcnModel::new(config).expect("valid");
        Pipeline::new(
            model,
            names.iter().map(|s| s.to_string()).collect(),
            PrimitiveLibrary::standard().expect("parse"),
            task,
        )
    }

    #[test]
    fn recognize_produces_consistent_shapes() {
        let pipeline = tiny_pipeline(Task::OtaBias, &["ota", "bias"]);
        let circuit = gana_netlist::parse(
            "M0 o1 i1 t gnd! NMOS\nM1 o2 i2 t gnd! NMOS\nM2 t vb gnd! gnd! NMOS\nM3 vb vb gnd! gnd! NMOS\nR1 vdd! vb 10k\n",
        )
        .expect("valid");
        let design = pipeline.recognize(&circuit).expect("runs");
        let n = design.graph.vertex_count();
        assert_eq!(design.gcn_class.len(), n);
        assert_eq!(design.smoothed_class.len(), n);
        assert_eq!(design.final_label.len(), n);
        let covered: usize = design.sub_blocks.iter().map(|b| b.devices.len()).sum();
        assert_eq!(covered, design.graph.element_count());
        assert_eq!(
            design.hierarchy.elements().len(),
            design.graph.element_count()
        );
    }

    #[test]
    fn untrained_model_with_post2_still_finds_structure() {
        // Even with random GCN weights, the DP rule labels the amplifier.
        let mut circuit = gana_netlist::parse(
            "M0 o1 i1 t gnd! NMOS\nM1 o2 i2 t gnd! NMOS\nM2 t vb gnd! gnd! NMOS\nM3 vb vb gnd! gnd! NMOS\nR1 vdd! vb 10k\n",
        )
        .expect("valid");
        circuit.set_port_label("vb", gana_netlist::PortLabel::Bias);
        let pipeline = tiny_pipeline(Task::OtaBias, &["ota", "bias"]);
        let design = pipeline.recognize(&circuit).expect("runs");
        assert_eq!(design.device_label("M0"), Some("ota"));
        assert_eq!(design.device_label("M3"), Some("bias"));
    }

    #[test]
    fn device_accuracy_scores() {
        let pipeline = tiny_pipeline(Task::OtaBias, &["ota", "bias"]);
        let mut circuit = gana_netlist::parse(
            "M0 o1 i1 t gnd! NMOS\nM1 o2 i2 t gnd! NMOS\nM2 t vb gnd! gnd! NMOS\nM3 vb vb gnd! gnd! NMOS\nR1 vdd! vb 10k\n",
        )
        .expect("valid");
        circuit.set_port_label("vb", gana_netlist::PortLabel::Bias);
        let design = pipeline.recognize(&circuit).expect("runs");
        let truth = [("M0", "ota"), ("M1", "ota"), ("M3", "bias"), ("R1", "bias")];
        let acc = design.device_accuracy(truth);
        assert!(acc >= 0.75, "structural rules should get most right: {acc}");
    }

    #[test]
    fn constraints_are_collected_and_deduped() {
        let pipeline = tiny_pipeline(Task::OtaBias, &["ota", "bias"]);
        let circuit = gana_netlist::parse(
            "M0 o1 i1 t gnd! NMOS\nM1 o2 i2 t gnd! NMOS\nM2 t vb gnd! gnd! NMOS\n",
        )
        .expect("valid");
        let design = pipeline.recognize(&circuit).expect("runs");
        assert!(
            design
                .constraints
                .iter()
                .any(|c| c.kind == gana_primitives::ConstraintKind::Symmetry),
            "{:?}",
            design.constraints
        );
        let mut sorted = design.constraints.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), design.constraints.len(), "no duplicates");
    }

    #[test]
    fn preprocessing_folds_sizing_artifacts() {
        let pipeline = tiny_pipeline(Task::OtaBias, &["ota", "bias"]);
        // Parallel split + dummy + decap must vanish before recognition.
        let circuit = gana_netlist::parse(
            "M0 o i t gnd! NMOS\nM0b o i t gnd! NMOS\nMd x x x x NMOS\nCd vdd! gnd! 10p\nM2 t vb gnd! gnd! NMOS\n",
        )
        .expect("valid");
        let design = pipeline.recognize(&circuit).expect("runs");
        assert_eq!(
            design.graph.element_count(),
            2,
            "M0+M0b merge, Md/Cd dropped"
        );
    }
}
