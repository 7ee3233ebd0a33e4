//! A circuit with per-vertex ground-truth classes.

use gana_graph::{CircuitGraph, GraphOptions};
use gana_netlist::Circuit;
use std::collections::BTreeMap;

/// A generated circuit with ground-truth classes on devices and nets.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledCircuit {
    /// Identifier used in reports.
    pub name: String,
    /// The flat circuit.
    pub circuit: Circuit,
    /// Device name → class id.
    pub device_class: BTreeMap<String, usize>,
    /// Net name → class id (boundary nets get the class of their driver).
    pub net_class: BTreeMap<String, usize>,
    /// Class display names, indexed by class id.
    pub class_names: Vec<String>,
}

impl LabeledCircuit {
    /// Builds the bipartite graph with default options.
    pub fn graph(&self) -> CircuitGraph {
        CircuitGraph::build(&self.circuit, GraphOptions::default())
    }

    /// Per-vertex labels for a graph built from this circuit.
    ///
    /// Devices and nets missing from the class maps (rails, dummies merged
    /// away) yield `None` — they do not count toward accuracy, matching the
    /// paper's device-level accounting.
    pub fn vertex_labels(&self, graph: &CircuitGraph) -> Vec<Option<usize>> {
        (0..graph.vertex_count())
            .map(|v| {
                if let Some(d) = graph.device_name(v) {
                    self.device_class.get(d).copied()
                } else if let Some(n) = graph.net_name(v) {
                    self.net_class.get(n).copied()
                } else {
                    None
                }
            })
            .collect()
    }

    /// Number of graph vertices (devices + nets), the "nodes" of Table I.
    pub fn node_count(&self) -> usize {
        self.circuit.device_count() + self.circuit.net_count()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.class_names.len()
    }

    /// Count of devices with each class.
    pub fn device_class_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0; self.class_names.len()];
        for &c in self.device_class.values() {
            if c < hist.len() {
                hist[c] += 1;
            }
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana_netlist::parse;

    fn sample() -> LabeledCircuit {
        let circuit = parse("M0 a b c c NMOS\nR1 a d 1k\n").expect("valid");
        let mut device_class = BTreeMap::new();
        device_class.insert("M0".to_string(), 0);
        device_class.insert("R1".to_string(), 1);
        let mut net_class = BTreeMap::new();
        net_class.insert("a".to_string(), 0);
        LabeledCircuit {
            name: "t".to_string(),
            circuit,
            device_class,
            net_class,
            class_names: vec!["x".to_string(), "y".to_string()],
        }
    }

    #[test]
    fn vertex_labels_follow_maps() {
        let lc = sample();
        let g = lc.graph();
        let labels = lc.vertex_labels(&g);
        let m0 = g.element_vertex("M0").expect("exists");
        assert_eq!(labels[m0], Some(0));
        let r1 = g.element_vertex("R1").expect("exists");
        assert_eq!(labels[r1], Some(1));
        let a = g.net_vertex("a").expect("exists");
        assert_eq!(labels[a], Some(0));
        let d = g.net_vertex("d").expect("exists");
        assert_eq!(labels[d], None, "unlabeled net");
    }

    #[test]
    fn node_count_is_devices_plus_nets() {
        let lc = sample();
        assert_eq!(lc.node_count(), 2 + 4);
    }

    #[test]
    fn histogram_counts_devices() {
        let lc = sample();
        assert_eq!(lc.device_class_histogram(), vec![1, 1]);
    }
}
