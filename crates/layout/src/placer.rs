//! The hierarchical constraint-driven placer.
//!
//! Every recognized sub-block becomes a column of primitive rows sharing
//! one vertical symmetry axis; symmetric primitives (differential and
//! cross-coupled pairs) are placed mirror-imaged about that axis,
//! common-centroid mirrors are interleaved `A B A B …` around the center,
//! and sub-blocks are assembled side by side into the die.

use crate::cell::{Cell, Placement, Rect};
use crate::pdk::Pdk;
use gana_core::RecognizedDesign;
use gana_primitives::ConstraintKind;
use std::error::Error;
use std::fmt;

/// Placement failure.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LayoutError {
    /// A device in the hierarchy was missing from the circuit.
    UnknownDevice(String),
    /// Generated placements overlap (an internal invariant violation).
    Overlap {
        /// First offending device.
        a: String,
        /// Second offending device.
        b: String,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::UnknownDevice(d) => write!(f, "device {d} not found in circuit"),
            LayoutError::Overlap { a, b } => write!(f, "placements of {a} and {b} overlap"),
        }
    }
}

impl Error for LayoutError {}

/// A placed sub-block outline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOutline {
    /// Sub-block display name.
    pub name: String,
    /// Functional label.
    pub label: String,
    /// Bounding box.
    pub rect: Rect,
    /// Vertical symmetry axis position, doubled (grid halves allowed).
    pub axis_x2: i64,
}

/// The finished symbolic layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Layout {
    /// Every placed leaf cell.
    pub placements: Vec<Placement>,
    /// One outline per sub-block.
    pub blocks: Vec<BlockOutline>,
    /// Die bounding box.
    pub die: Rect,
}

impl Layout {
    /// Total cell area over die area (1.0 = perfect packing).
    pub fn utilization(&self) -> f64 {
        if self.die.area() == 0 {
            return 0.0;
        }
        let cells: i64 = self.placements.iter().map(|p| p.rect.area()).sum();
        cells as f64 / self.die.area() as f64
    }

    /// Verifies that no two placements overlap.
    ///
    /// # Errors
    ///
    /// Returns [`LayoutError::Overlap`] naming the first offending pair.
    pub fn validate(&self) -> Result<(), LayoutError> {
        for i in 0..self.placements.len() {
            for j in (i + 1)..self.placements.len() {
                if self.placements[i].rect.overlaps(&self.placements[j].rect) {
                    return Err(LayoutError::Overlap {
                        a: self.placements[i].cell.device.clone(),
                        b: self.placements[j].cell.device.clone(),
                    });
                }
            }
        }
        Ok(())
    }

    /// The placement of a device, if present.
    pub fn placement_of(&self, device: &str) -> Option<&Placement> {
        self.placements.iter().find(|p| p.cell.device == device)
    }

    /// Renders a coarse ASCII map (see [`crate::render`]).
    pub fn to_ascii(&self) -> String {
        crate::render::ascii(self)
    }
}

/// Places a recognized design on the abstract grid.
///
/// # Errors
///
/// Returns [`LayoutError::UnknownDevice`] if the hierarchy references a
/// device the circuit does not contain.
pub fn place_design(design: &RecognizedDesign, pdk: &Pdk) -> Result<Layout, LayoutError> {
    let mut placements: Vec<Placement> = Vec::new();
    let mut blocks: Vec<BlockOutline> = Vec::new();
    let mut cursor_x: i64 = 0;
    // Work on a doubled grid: every footprint and gap becomes even, so any
    // row can be centered *exactly* on the block axis regardless of the
    // parity of (block width − row width). Mirror symmetry then holds in
    // integer arithmetic.
    const SCALE: i64 = 2;
    let spacing = pdk.spacing as i64 * SCALE;

    for (bi, block) in design.sub_blocks.iter().enumerate() {
        let block_name = format!("{}{}", block.label, bi);
        // Rows: one per primitive instance, one shared row for leftovers.
        let mut rows: Vec<(Vec<String>, bool, bool)> = Vec::new(); // (devices, symmetric, centroid)
        let mut placed: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
        for inst in &block.annotation.instances {
            let symmetric = inst
                .constraints
                .iter()
                .any(|c| c.kind == ConstraintKind::Symmetry);
            let centroid = inst
                .constraints
                .iter()
                .any(|c| c.kind == ConstraintKind::CommonCentroid);
            rows.push((inst.devices.clone(), symmetric, centroid));
            placed.extend(inst.devices.iter().map(String::as_str));
        }
        let leftovers: Vec<String> = block
            .devices
            .iter()
            .filter(|d| !placed.contains(d.as_str()))
            .cloned()
            .collect();
        if !leftovers.is_empty() {
            rows.push((leftovers, false, false));
        }

        // Measure rows to find the block width.
        type MeasuredRow = (Vec<(String, i64, i64)>, bool, bool);
        let mut measured: Vec<MeasuredRow> = Vec::new();
        let mut block_w: i64 = 0;
        for (devices, symmetric, centroid) in rows {
            let mut cells = Vec::new();
            let mut row_w = 0;
            for name in devices {
                let device = design
                    .circuit
                    .device(&name)
                    .ok_or_else(|| LayoutError::UnknownDevice(name.clone()))?;
                let (w, h) = pdk.footprint(device.kind());
                let (w, h) = (w as i64 * SCALE, h as i64 * SCALE);
                row_w += w + spacing;
                cells.push((name, w, h));
            }
            row_w -= spacing.min(row_w);
            block_w = block_w.max(row_w);
            measured.push((cells, symmetric, centroid));
        }
        block_w = block_w.max(1);
        let axis_x2 = 2 * cursor_x + block_w;

        // Place rows bottom-up, centered on the axis.
        let mut y = 0i64;
        let mut block_h = 0i64;
        for (mut cells, symmetric, centroid) in measured {
            if centroid {
                // Interleave around the middle: A B A B -> A B B A order.
                cells = interleave_common_centroid(cells);
            }
            let row_w: i64 = cells.iter().map(|&(_, w, _)| w + spacing).sum::<i64>() - spacing;
            let row_h: i64 = cells.iter().map(|&(_, _, h)| h).max().unwrap_or(1);
            let mut x = cursor_x + (block_w - row_w) / 2;
            let n = cells.len();
            for (i, (name, w, h)) in cells.into_iter().enumerate() {
                // Mirror the right half of a symmetric row.
                let mirrored = symmetric && i >= n / 2;
                placements.push(Placement {
                    cell: Cell { device: name, w, h },
                    rect: Rect::new(x, y, w, h),
                    mirrored,
                    block: block_name.clone(),
                });
                x += w + spacing;
            }
            y += row_h + spacing;
            block_h = y - spacing;
        }

        blocks.push(BlockOutline {
            name: block_name,
            label: block.label.clone(),
            rect: Rect::new(cursor_x, 0, block_w, block_h.max(1)),
            axis_x2,
        });
        cursor_x += block_w + pdk.block_gap as i64 * SCALE;
    }

    let die = blocks
        .iter()
        .map(|b| b.rect)
        .reduce(|a, b| a.union(&b))
        .unwrap_or(Rect::new(0, 0, 1, 1));
    let layout = Layout {
        placements,
        blocks,
        die,
    };
    layout.validate()?;
    Ok(layout)
}

/// Reorders cells `A B C D …` into a centroid-friendly `A C … D B` pattern
/// so equal devices straddle the center.
fn interleave_common_centroid(cells: Vec<(String, i64, i64)>) -> Vec<(String, i64, i64)> {
    let mut left = Vec::new();
    let mut right = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        if i % 2 == 0 {
            left.push(cell);
        } else {
            right.push(cell);
        }
    }
    right.reverse();
    left.extend(right);
    left
}

#[cfg(test)]
mod tests {
    use super::*;
    use gana_core::{Pipeline, Task};
    use gana_gnn::{GcnConfig, GcnModel};
    use gana_primitives::PrimitiveLibrary;

    fn recognized(src: &str) -> RecognizedDesign {
        let config = GcnConfig {
            conv_channels: vec![4, 4],
            filter_order: 2,
            fc_dim: 8,
            num_classes: 2,
            dropout: 0.0,
            batch_norm: false,
            ..GcnConfig::default()
        };
        let pipeline = Pipeline::new(
            GcnModel::new(config).expect("valid"),
            vec!["ota".to_string(), "bias".to_string()],
            PrimitiveLibrary::standard().expect("parse"),
            Task::OtaBias,
        );
        let circuit = gana_netlist::parse(src).expect("valid");
        pipeline.recognize(&circuit).expect("runs")
    }

    const OTA: &str = "\
M0 id id gnd! gnd! NMOS
M1 tail id gnd! gnd! NMOS
M2 o1 in1 tail gnd! NMOS
M3 o2 in2 tail gnd! NMOS
M4 o1 vb vdd! vdd! PMOS
M5 o2 vb vdd! vdd! PMOS
C1 o1 gnd! 1p
";

    #[test]
    fn layout_is_legal_and_covers_all_devices() {
        let design = recognized(OTA);
        let layout = place_design(&design, &Pdk::default()).expect("places");
        layout.validate().expect("no overlaps");
        assert_eq!(layout.placements.len(), design.graph.element_count());
        assert!(layout.utilization() > 0.1);
    }

    #[test]
    fn differential_pair_is_mirrored_about_axis() {
        let design = recognized(OTA);
        let layout = place_design(&design, &Pdk::default()).expect("places");
        let m2 = layout.placement_of("M2").expect("placed");
        let m3 = layout.placement_of("M3").expect("placed");
        assert_ne!(m2.mirrored, m3.mirrored, "one side of the pair is mirrored");
        // Equidistant from the block axis.
        let block = layout
            .blocks
            .iter()
            .find(|b| b.name == m2.block)
            .expect("block exists");
        let d2 = (m2.rect.center_x2() - block.axis_x2).abs();
        let d3 = (m3.rect.center_x2() - block.axis_x2).abs();
        assert_eq!(d2, d3, "pair centers mirror about the axis");
    }

    #[test]
    fn blocks_do_not_overlap() {
        let design = recognized(OTA);
        let layout = place_design(&design, &Pdk::default()).expect("places");
        for i in 0..layout.blocks.len() {
            for j in (i + 1)..layout.blocks.len() {
                assert!(!layout.blocks[i].rect.overlaps(&layout.blocks[j].rect));
            }
        }
    }

    #[test]
    fn centroid_interleave_pattern() {
        let cells: Vec<(String, i64, i64)> = ["A", "B", "C"]
            .iter()
            .map(|n| (n.to_string(), 1, 1))
            .collect();
        let out = interleave_common_centroid(cells);
        let names: Vec<&str> = out.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["A", "C", "B"]);
    }

    #[test]
    fn empty_design_produces_unit_die() {
        let design = recognized("R1 a b 1k\n");
        let layout = place_design(&design, &Pdk::default()).expect("places");
        assert!(layout.die.area() >= 1);
    }
}
