use std::fmt;

/// The 3-bit (+body) terminal label on a transistor–net edge.
///
/// Paper, Section II-C: "Each edge connected to a transistor is assigned a
/// three-bit label `l_g l_s l_d`, where `l_g = 1` if the edge from the
/// transistor vertex connects to the net vertex through its gate … similarly
/// `l_s` (`l_d`) are 1 if the transistor connects to the net through its
/// source (drain)". A transistor touching one net through several terminals
/// (e.g. the diode connection in a current mirror, gate+drain = `101`) gets
/// the OR of the bits. Edges at passives carry [`EdgeLabel::NONE`].
///
/// We additionally track a body bit so body-aware matching is possible, but
/// it is excluded from [`EdgeLabel::bits`] and from [`fmt::Display`], which
/// follow the paper's 3-bit convention.
///
/// # Examples
///
/// ```
/// use gana_store::EdgeLabel;
///
/// let diode = EdgeLabel::GATE.union(EdgeLabel::DRAIN);
/// assert_eq!(diode.to_string(), "101");
/// assert!(diode.has_gate() && diode.has_drain() && !diode.has_source());
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeLabel(u8);

impl EdgeLabel {
    /// Unlabeled edge (passives, sources).
    pub const NONE: EdgeLabel = EdgeLabel(0);
    /// Gate connection (`l_g`).
    pub const GATE: EdgeLabel = EdgeLabel(0b100);
    /// Source connection (`l_s`).
    pub const SOURCE: EdgeLabel = EdgeLabel(0b010);
    /// Drain connection (`l_d`).
    pub const DRAIN: EdgeLabel = EdgeLabel(0b001);
    /// Body connection (tracked separately from the 3-bit label).
    pub const BODY: EdgeLabel = EdgeLabel(0b1000);

    /// Combines two labels (bitwise OR).
    #[must_use]
    pub fn union(self, other: EdgeLabel) -> EdgeLabel {
        EdgeLabel(self.0 | other.0)
    }

    /// The paper's 3-bit `l_g l_s l_d` value (body excluded), in `0..8`.
    pub fn bits(self) -> u8 {
        self.0 & 0b111
    }

    /// Raw bits including the body flag.
    pub fn raw(self) -> u8 {
        self.0
    }

    /// True if the gate bit is set.
    pub fn has_gate(self) -> bool {
        self.0 & Self::GATE.0 != 0
    }

    /// True if the source bit is set.
    pub fn has_source(self) -> bool {
        self.0 & Self::SOURCE.0 != 0
    }

    /// True if the drain bit is set.
    pub fn has_drain(self) -> bool {
        self.0 & Self::DRAIN.0 != 0
    }

    /// True if the body bit is set.
    pub fn has_body(self) -> bool {
        self.0 & Self::BODY.0 != 0
    }

    /// True if the label touches the channel (source or drain, not only gate).
    pub fn touches_channel(self) -> bool {
        self.has_source() || self.has_drain()
    }

    /// A label equivalent to `self` with source and drain swapped.
    ///
    /// MOS devices are symmetric in source/drain for recognition purposes;
    /// the VF2 semantic check accepts a pattern label if it matches the
    /// target label either directly or swapped.
    #[must_use]
    pub fn swap_source_drain(self) -> EdgeLabel {
        let mut out = self.0 & !0b011;
        if self.has_source() {
            out |= Self::DRAIN.0;
        }
        if self.has_drain() {
            out |= Self::SOURCE.0;
        }
        EdgeLabel(out)
    }

    /// Number of set terminal bits (body included).
    pub fn terminal_count(self) -> u32 {
        self.0.count_ones()
    }
}

impl fmt::Display for EdgeLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            u8::from(self.has_gate()),
            u8::from(self.has_source()),
            u8::from(self.has_drain())
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_paper_convention() {
        assert_eq!(EdgeLabel::GATE.to_string(), "100");
        assert_eq!(EdgeLabel::SOURCE.to_string(), "010");
        assert_eq!(EdgeLabel::DRAIN.to_string(), "001");
        assert_eq!(EdgeLabel::GATE.union(EdgeLabel::DRAIN).to_string(), "101");
        assert_eq!(EdgeLabel::NONE.to_string(), "000");
    }

    #[test]
    fn body_is_excluded_from_bits() {
        let l = EdgeLabel::BODY.union(EdgeLabel::SOURCE);
        assert_eq!(l.bits(), 0b010);
        assert!(l.has_body());
        assert_eq!(l.to_string(), "010");
    }

    #[test]
    fn swap_source_drain_behaviour() {
        let sd = EdgeLabel::SOURCE;
        assert_eq!(sd.swap_source_drain(), EdgeLabel::DRAIN);
        let gd = EdgeLabel::GATE.union(EdgeLabel::DRAIN);
        assert_eq!(
            gd.swap_source_drain(),
            EdgeLabel::GATE.union(EdgeLabel::SOURCE)
        );
        let both = EdgeLabel::SOURCE.union(EdgeLabel::DRAIN);
        assert_eq!(both.swap_source_drain(), both);
    }

    #[test]
    fn terminal_count() {
        assert_eq!(EdgeLabel::NONE.terminal_count(), 0);
        assert_eq!(EdgeLabel::GATE.union(EdgeLabel::DRAIN).terminal_count(), 2);
    }
}
