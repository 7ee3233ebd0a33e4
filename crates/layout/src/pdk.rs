//! The abstract grid PDK standing in for ASAP7.

use gana_netlist::DeviceKind;

/// Abstract process rules: unit footprints per device kind on an integer
/// grid, plus the minimum spacing between cells.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pdk {
    /// Transistor footprint (width, height) in grid units.
    pub mos: (u32, u32),
    /// Resistor footprint.
    pub resistor: (u32, u32),
    /// Capacitor footprint (capacitors dominate SC-filter area, as the
    /// large green arrays in the paper's Fig. 6 show).
    pub capacitor: (u32, u32),
    /// Inductor footprint (spirals are huge).
    pub inductor: (u32, u32),
    /// Footprint for sources/diodes and anything else.
    pub other: (u32, u32),
    /// Minimum spacing between cells in grid units.
    pub spacing: u32,
    /// Gap between placed sub-blocks in grid units.
    pub block_gap: u32,
}

impl Default for Pdk {
    fn default() -> Self {
        Pdk {
            mos: (2, 3),
            resistor: (1, 4),
            capacitor: (4, 4),
            inductor: (8, 8),
            other: (2, 2),
            spacing: 1,
            block_gap: 2,
        }
    }
}

impl Pdk {
    /// Footprint for a device kind.
    pub fn footprint(&self, kind: DeviceKind) -> (u32, u32) {
        match kind {
            DeviceKind::Nmos | DeviceKind::Pmos => self.mos,
            DeviceKind::Resistor => self.resistor,
            DeviceKind::Capacitor => self.capacitor,
            DeviceKind::Inductor => self.inductor,
            _ => self.other,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprints_cover_all_kinds() {
        let pdk = Pdk::default();
        assert_eq!(pdk.footprint(DeviceKind::Nmos), pdk.mos);
        assert_eq!(pdk.footprint(DeviceKind::Pmos), pdk.mos);
        assert_eq!(pdk.footprint(DeviceKind::Capacitor), pdk.capacitor);
        assert_eq!(pdk.footprint(DeviceKind::VoltageSource), pdk.other);
    }

    #[test]
    fn capacitors_dominate_transistors() {
        // Matches the Fig. 6 proportions: cap arrays dwarf the switches.
        let pdk = Pdk::default();
        let (cw, ch) = pdk.capacitor;
        let (mw, mh) = pdk.mos;
        assert!(cw * ch > mw * mh);
    }
}
