//! Corpus container with Table I-style statistics.

use crate::LabeledCircuit;

/// A named set of labeled circuits (one Table I row).
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    /// Corpus name (e.g. "OTA bias").
    pub name: String,
    /// The circuits.
    pub samples: Vec<LabeledCircuit>,
    /// Class display names.
    pub class_names: Vec<String>,
}

/// The statistics Table I reports per dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusStats {
    /// Number of circuits (`# Circuits`).
    pub circuits: usize,
    /// Total graph nodes — devices + nets (`# Nodes`).
    pub nodes: usize,
    /// Number of classes (`# Labels`).
    pub labels: usize,
    /// Per-vertex features (`# Features`, always 18).
    pub features: usize,
}

impl Corpus {
    /// Creates a corpus.
    pub fn new(
        name: impl Into<String>,
        samples: Vec<LabeledCircuit>,
        class_names: Vec<String>,
    ) -> Corpus {
        Corpus {
            name: name.into(),
            samples,
            class_names,
        }
    }

    /// Computes Table I statistics.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats {
            circuits: self.samples.len(),
            nodes: self.samples.iter().map(LabeledCircuit::node_count).sum(),
            labels: self.class_names.len(),
            features: gana_graph::features::FEATURE_COUNT,
        }
    }

    /// Splits off every `k`-th sample into a held-out set (deterministic
    /// disjoint test split).
    pub fn split_holdout(mut self, every: usize) -> (Corpus, Corpus) {
        let mut held = Vec::new();
        let mut kept = Vec::new();
        for (i, s) in self.samples.drain(..).enumerate() {
            if every > 0 && i % every == 0 {
                held.push(s);
            } else {
                kept.push(s);
            }
        }
        let train = Corpus::new(self.name.clone(), kept, self.class_names.clone());
        let test = Corpus::new(format!("{} (held out)", self.name), held, self.class_names);
        (train, test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CircuitBuilder;
    use gana_netlist::DeviceKind;

    fn tiny(name: &str) -> LabeledCircuit {
        let mut b = CircuitBuilder::new(name, &["x"]);
        b.block("c", 0);
        b.mos(DeviceKind::Nmos, "a", "b", "gnd!", "gnd!");
        b.finish()
    }

    #[test]
    fn stats_sum_nodes() {
        let corpus = Corpus::new("t", vec![tiny("a"), tiny("b")], vec!["x".to_string()]);
        let stats = corpus.stats();
        assert_eq!(stats.circuits, 2);
        assert_eq!(stats.features, 18);
        assert_eq!(stats.nodes, 2 * tiny("z").node_count());
    }

    #[test]
    fn holdout_splits_disjointly() {
        let corpus = Corpus::new(
            "t",
            (0..10).map(|i| tiny(&format!("s{i}"))).collect(),
            vec!["x".to_string()],
        );
        let (train, test) = corpus.split_holdout(5);
        assert_eq!(test.samples.len(), 2);
        assert_eq!(train.samples.len(), 8);
    }
}
