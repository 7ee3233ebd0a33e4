//! The recognized hierarchy tree (paper Fig. 1(b)).
//!
//! Elements → primitives → sub-blocks → system: the output structure that
//! downstream layout tools consume.

use crate::pipeline::SubBlock;
use std::fmt;

/// Kind of a hierarchy node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The whole design (tree root).
    System,
    /// A recognized sub-block (OTA, LNA, mixer, …).
    SubBlock,
    /// A recognized primitive (DP, CM, INV, …).
    Primitive,
    /// A leaf element (transistor/passive).
    Element,
}

/// A node of the hierarchy tree.
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyNode {
    /// Display name (`ota0`, `CM_N2`, `M3`, …).
    pub name: String,
    /// Node kind.
    pub kind: NodeKind,
    /// Functional label for sub-blocks (`"ota"`, `"lna"`, …).
    pub label: Option<String>,
    /// Children, ordered.
    pub children: Vec<HierarchyNode>,
}

impl HierarchyNode {
    /// Creates a leaf element node.
    pub fn element(name: impl Into<String>) -> HierarchyNode {
        HierarchyNode {
            name: name.into(),
            kind: NodeKind::Element,
            label: None,
            children: Vec::new(),
        }
    }

    /// Number of nodes in the subtree (including `self`).
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(HierarchyNode::size).sum::<usize>()
    }

    /// Depth of the subtree (a lone node has depth 1).
    pub fn depth(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(HierarchyNode::depth)
            .max()
            .unwrap_or(0)
    }

    /// All element names in the subtree, in tree order.
    pub fn elements(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_elements(&mut out);
        out
    }

    fn collect_elements<'a>(&'a self, out: &mut Vec<&'a str>) {
        if self.kind == NodeKind::Element {
            out.push(&self.name);
        }
        for c in &self.children {
            c.collect_elements(out);
        }
    }

    /// Finds the first descendant (or self) with the given label.
    pub fn find_labeled(&self, label: &str) -> Option<&HierarchyNode> {
        if self.label.as_deref() == Some(label) {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find_labeled(label))
    }

    fn render(&self, f: &mut fmt::Formatter<'_>, indent: usize) -> fmt::Result {
        let pad = "  ".repeat(indent);
        let kind = match self.kind {
            NodeKind::System => "system",
            NodeKind::SubBlock => "sub-block",
            NodeKind::Primitive => "primitive",
            NodeKind::Element => "element",
        };
        match &self.label {
            Some(label) => writeln!(f, "{pad}{} [{kind}: {label}]", self.name)?,
            None => writeln!(f, "{pad}{} [{kind}]", self.name)?,
        }
        for c in &self.children {
            c.render(f, indent + 1)?;
        }
        Ok(())
    }
}

impl fmt::Display for HierarchyNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.render(f, 0)
    }
}

/// Builds the hierarchy tree from recognized sub-blocks.
pub fn build(design_name: &str, sub_blocks: &[SubBlock]) -> HierarchyNode {
    let mut root = HierarchyNode {
        name: design_name.to_string(),
        kind: NodeKind::System,
        label: None,
        children: Vec::new(),
    };
    for (i, block) in sub_blocks.iter().enumerate() {
        let kind = if block.standalone {
            NodeKind::Primitive
        } else {
            NodeKind::SubBlock
        };
        let mut node = HierarchyNode {
            name: format!("{}{}", block.label, i),
            kind,
            label: Some(block.label.clone()),
            children: Vec::new(),
        };
        let mut placed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for inst in &block.annotation.instances {
            let mut prim = HierarchyNode {
                name: inst.primitive.clone(),
                kind: NodeKind::Primitive,
                label: None,
                children: Vec::new(),
            };
            for d in &inst.devices {
                prim.children.push(HierarchyNode::element(d.clone()));
                placed.insert(d);
            }
            node.children.push(prim);
        }
        for d in &block.devices {
            if !placed.contains(d.as_str()) {
                node.children.push(HierarchyNode::element(d.clone()));
            }
        }
        root.children.push(node);
    }
    root
}

/// Flattens a hierarchy tree into a store slab ([`gana_store::HierarchySlab`]):
/// nodes and child lists in contiguous slabs with interned names, added
/// bottom-up so children precede parents.
pub fn to_slab(root: &HierarchyNode) -> gana_store::HierarchySlab {
    fn add(slab: &mut gana_store::HierarchySlab, node: &HierarchyNode) -> gana_store::HierNodeId {
        let kids: Vec<gana_store::HierNodeId> =
            node.children.iter().map(|c| add(slab, c)).collect();
        let kind = match node.kind {
            NodeKind::System => gana_store::HierKind::System,
            NodeKind::SubBlock => gana_store::HierKind::SubBlock,
            NodeKind::Primitive => gana_store::HierKind::Primitive,
            NodeKind::Element => gana_store::HierKind::Element,
        };
        slab.add(&node.name, kind, node.label.as_deref(), &kids)
    }
    let mut slab = gana_store::HierarchySlab::new();
    let root_id = add(&mut slab, root);
    slab.set_root(root_id);
    slab
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leafy() -> HierarchyNode {
        HierarchyNode {
            name: "sys".to_string(),
            kind: NodeKind::System,
            label: None,
            children: vec![HierarchyNode {
                name: "ota0".to_string(),
                kind: NodeKind::SubBlock,
                label: Some("ota".to_string()),
                children: vec![
                    HierarchyNode {
                        name: "DP_N".to_string(),
                        kind: NodeKind::Primitive,
                        label: None,
                        children: vec![HierarchyNode::element("M1"), HierarchyNode::element("M2")],
                    },
                    HierarchyNode::element("C1"),
                ],
            }],
        }
    }

    #[test]
    fn size_and_depth() {
        let t = leafy();
        assert_eq!(t.size(), 6);
        assert_eq!(t.depth(), 4);
    }

    #[test]
    fn elements_in_tree_order() {
        assert_eq!(leafy().elements(), vec!["M1", "M2", "C1"]);
    }

    #[test]
    fn find_labeled_descends() {
        let t = leafy();
        assert!(t.find_labeled("ota").is_some());
        assert!(t.find_labeled("lna").is_none());
    }

    #[test]
    fn display_is_indented() {
        let text = leafy().to_string();
        assert!(text.contains("sys [system]"));
        assert!(text.contains("  ota0 [sub-block: ota]"));
        assert!(text.contains("    DP_N [primitive]"));
        assert!(text.contains("      M1 [element]"));
    }
}
