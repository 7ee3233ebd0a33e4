//! Cells, rectangles, and placements on the symbolic grid.

/// An axis-aligned rectangle on the grid (half-open: `[x, x+w) × [y, y+h)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Rect {
    /// Left edge.
    pub x: i64,
    /// Bottom edge.
    pub y: i64,
    /// Width (> 0).
    pub w: i64,
    /// Height (> 0).
    pub h: i64,
}

impl Rect {
    /// Creates a rectangle.
    pub fn new(x: i64, y: i64, w: i64, h: i64) -> Rect {
        Rect { x, y, w, h }
    }

    /// Right edge.
    pub fn right(&self) -> i64 {
        self.x + self.w
    }

    /// Top edge.
    pub fn top(&self) -> i64 {
        self.y + self.h
    }

    /// Horizontal center times two (kept integral).
    pub fn center_x2(&self) -> i64 {
        2 * self.x + self.w
    }

    /// True if two rectangles overlap with positive area.
    pub fn overlaps(&self, other: &Rect) -> bool {
        self.x < other.right()
            && other.x < self.right()
            && self.y < other.top()
            && other.y < self.top()
    }

    /// The union bounding box.
    pub fn union(&self, other: &Rect) -> Rect {
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let right = self.right().max(other.right());
        let top = self.top().max(other.top());
        Rect {
            x,
            y,
            w: right - x,
            h: top - y,
        }
    }

    /// Area.
    pub fn area(&self) -> i64 {
        self.w * self.h
    }
}

/// A leaf cell: one device's abstract footprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Device name the cell implements.
    pub device: String,
    /// Width in grid units.
    pub w: i64,
    /// Height in grid units.
    pub h: i64,
}

/// A placed cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// The cell.
    pub cell: Cell,
    /// Position and extent.
    pub rect: Rect,
    /// Mirrored about the vertical axis (symmetric partners differ here).
    pub mirrored: bool,
    /// Name of the sub-block the cell belongs to.
    pub block: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_detection() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(1, 1, 2, 2);
        let c = Rect::new(2, 0, 2, 2);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching edges do not overlap");
    }

    #[test]
    fn union_bounds() {
        let a = Rect::new(0, 0, 1, 1);
        let b = Rect::new(3, 4, 1, 1);
        let u = a.union(&b);
        assert_eq!((u.x, u.y, u.w, u.h), (0, 0, 4, 5));
    }

    #[test]
    fn center_is_doubled_for_exactness() {
        let r = Rect::new(1, 0, 3, 1);
        assert_eq!(r.center_x2(), 5, "center 2.5 stored as 5");
    }
}
