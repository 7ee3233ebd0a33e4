//! In-memory circuit data model: devices, circuits, libraries, port labels.

use crate::{NetlistError, Result};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Net names treated as global power supplies during recognition.
pub const SUPPLY_NAMES: [&str; 4] = ["vdd!", "vdd", "vcc!", "vcc"];

/// Net names treated as global grounds during recognition.
pub const GROUND_NAMES: [&str; 5] = ["gnd!", "gnd", "vss!", "vss", "0"];

/// The kind of a circuit element.
///
/// Matches the paper's element taxonomy (Section II-A): transistors
/// (NMOS/PMOS) and passives (R, C, L), plus sources, diodes, and subcircuit
/// instances which only exist pre-flattening.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceKind {
    /// N-channel MOSFET (`M` card with an N model).
    Nmos,
    /// P-channel MOSFET (`M` card with a P model).
    Pmos,
    /// Resistor (`R` card).
    Resistor,
    /// Capacitor (`C` card).
    Capacitor,
    /// Inductor (`L` card).
    Inductor,
    /// Independent voltage source (`V` card).
    VoltageSource,
    /// Independent current source (`I` card).
    CurrentSource,
    /// Junction diode (`D` card).
    Diode,
    /// Subcircuit instance (`X` card); removed by flattening.
    Instance,
}

impl DeviceKind {
    /// True for NMOS/PMOS transistors.
    pub fn is_transistor(self) -> bool {
        matches!(self, DeviceKind::Nmos | DeviceKind::Pmos)
    }

    /// True for R/C/L passives.
    pub fn is_passive(self) -> bool {
        matches!(
            self,
            DeviceKind::Resistor | DeviceKind::Capacitor | DeviceKind::Inductor
        )
    }

    /// True for V/I sources.
    pub fn is_source(self) -> bool {
        matches!(self, DeviceKind::VoltageSource | DeviceKind::CurrentSource)
    }

    /// The canonical SPICE card letter for this kind.
    pub fn card_letter(self) -> char {
        match self {
            DeviceKind::Nmos | DeviceKind::Pmos => 'M',
            DeviceKind::Resistor => 'R',
            DeviceKind::Capacitor => 'C',
            DeviceKind::Inductor => 'L',
            DeviceKind::VoltageSource => 'V',
            DeviceKind::CurrentSource => 'I',
            DeviceKind::Diode => 'D',
            DeviceKind::Instance => 'X',
        }
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DeviceKind::Nmos => "nmos",
            DeviceKind::Pmos => "pmos",
            DeviceKind::Resistor => "resistor",
            DeviceKind::Capacitor => "capacitor",
            DeviceKind::Inductor => "inductor",
            DeviceKind::VoltageSource => "vsource",
            DeviceKind::CurrentSource => "isource",
            DeviceKind::Diode => "diode",
            DeviceKind::Instance => "instance",
        };
        f.write_str(name)
    }
}

/// The four MOS terminals in SPICE card order (`M d g s b`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MosTerminal {
    /// Drain (terminal index 0).
    Drain,
    /// Gate (terminal index 1).
    Gate,
    /// Source (terminal index 2).
    Source,
    /// Body/bulk (terminal index 3).
    Body,
}

impl MosTerminal {
    /// Terminal index within a MOS device's terminal list.
    pub fn index(self) -> usize {
        match self {
            MosTerminal::Drain => 0,
            MosTerminal::Gate => 1,
            MosTerminal::Source => 2,
            MosTerminal::Body => 3,
        }
    }

    /// All four terminals in card order.
    pub fn all() -> [MosTerminal; 4] {
        [
            MosTerminal::Drain,
            MosTerminal::Gate,
            MosTerminal::Source,
            MosTerminal::Body,
        ]
    }
}

/// Designer-provided port annotation, consumed by Postprocessing II.
///
/// The paper (Section V-A, "Postprocessing II") differentiates structurally
/// similar sub-blocks through port knowledge: "an LNA has an antenna input,
/// while a mixer has an oscillating input. Such information can be provided
/// by the designer as a separate label on the port".
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum PortLabel {
    /// RF antenna input (identifies LNAs).
    Antenna,
    /// Periodic local-oscillator input (identifies mixers/oscillator loads).
    Oscillating,
    /// Generic signal input.
    Input,
    /// Generic signal output.
    Output,
    /// DC bias distribution net.
    Bias,
    /// Power supply net.
    Supply,
    /// Ground net.
    Ground,
    /// Any other designer label.
    Custom(String),
}

impl PortLabel {
    /// Parses a label keyword as written in a `.PORTLABEL` directive.
    pub fn from_keyword(word: &str) -> PortLabel {
        match word.to_ascii_lowercase().as_str() {
            "antenna" => PortLabel::Antenna,
            "oscillating" | "osc" | "lo" => PortLabel::Oscillating,
            "input" | "in" => PortLabel::Input,
            "output" | "out" => PortLabel::Output,
            "bias" => PortLabel::Bias,
            "supply" | "vdd" | "power" => PortLabel::Supply,
            "ground" | "gnd" => PortLabel::Ground,
            other => PortLabel::Custom(other.to_string()),
        }
    }

    /// The keyword used when writing this label back to SPICE.
    pub fn keyword(&self) -> &str {
        match self {
            PortLabel::Antenna => "antenna",
            PortLabel::Oscillating => "oscillating",
            PortLabel::Input => "input",
            PortLabel::Output => "output",
            PortLabel::Bias => "bias",
            PortLabel::Supply => "supply",
            PortLabel::Ground => "ground",
            PortLabel::Custom(s) => s,
        }
    }
}

impl fmt::Display for PortLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.keyword())
    }
}

/// A single circuit element: a transistor, passive, source, or instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    name: String,
    kind: DeviceKind,
    terminals: Vec<String>,
    model: Option<String>,
    value: Option<f64>,
    params: BTreeMap<String, f64>,
}

impl Device {
    /// Creates a device after validating the terminal count for its kind.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Semantic`] when the terminal count is invalid:
    /// MOS devices need 4 terminals, two-terminal elements need 2, instances
    /// need at least 1.
    pub fn new(
        name: impl Into<String>,
        kind: DeviceKind,
        terminals: Vec<String>,
    ) -> Result<Device> {
        let name = name.into();
        let expected: Option<usize> = match kind {
            DeviceKind::Nmos | DeviceKind::Pmos => Some(4),
            DeviceKind::Resistor
            | DeviceKind::Capacitor
            | DeviceKind::Inductor
            | DeviceKind::VoltageSource
            | DeviceKind::CurrentSource
            | DeviceKind::Diode => Some(2),
            DeviceKind::Instance => None,
        };
        if let Some(expected) = expected {
            if terminals.len() != expected {
                return Err(NetlistError::Semantic(format!(
                    "device {name} ({kind}) has {} terminals, expected {expected}",
                    terminals.len()
                )));
            }
        } else if terminals.is_empty() {
            return Err(NetlistError::Semantic(format!(
                "instance {name} must connect at least one net"
            )));
        }
        Ok(Device {
            name,
            kind,
            terminals,
            model: None,
            value: None,
            params: BTreeMap::new(),
        })
    }

    /// Builder-style: attach a model (MOS model or subcircuit name).
    pub fn with_model(mut self, model: impl Into<String>) -> Device {
        self.model = Some(model.into());
        self
    }

    /// Builder-style: attach a primary value (resistance, capacitance, …).
    pub fn with_value(mut self, value: f64) -> Device {
        self.value = Some(value);
        self
    }

    /// Builder-style: attach a named parameter (`W`, `L`, `m`, …).
    pub fn with_param(mut self, key: impl Into<String>, value: f64) -> Device {
        self.params.insert(key.into().to_ascii_lowercase(), value);
        self
    }

    /// Instance/device name as written in the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the device (used by flattening to add the hierarchical prefix).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The element kind.
    pub fn kind(&self) -> DeviceKind {
        self.kind
    }

    /// Connected net names in card order.
    pub fn terminals(&self) -> &[String] {
        &self.terminals
    }

    /// Mutable access to the terminal list (used by flattening to remap nets).
    pub fn terminals_mut(&mut self) -> &mut Vec<String> {
        &mut self.terminals
    }

    /// Model name (MOS model, diode model, or subcircuit for instances).
    pub fn model(&self) -> Option<&str> {
        self.model.as_deref()
    }

    /// The primary value for two-terminal elements.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Sets the primary value.
    pub fn set_value(&mut self, value: Option<f64>) {
        self.value = value;
    }

    /// Named parameters, keys lower-cased.
    pub fn params(&self) -> &BTreeMap<String, f64> {
        &self.params
    }

    /// Looks up a named parameter (case-insensitive).
    pub fn param(&self, key: &str) -> Option<f64> {
        self.params.get(&key.to_ascii_lowercase()).copied()
    }

    /// Sets a named parameter (key stored lower-cased).
    pub fn set_param(&mut self, key: impl Into<String>, value: f64) {
        self.params.insert(key.into().to_ascii_lowercase(), value);
    }

    /// The net connected at the given MOS terminal.
    ///
    /// Returns `None` for non-transistor devices.
    pub fn mos_terminal(&self, t: MosTerminal) -> Option<&str> {
        if self.kind.is_transistor() {
            self.terminals.get(t.index()).map(String::as_str)
        } else {
            None
        }
    }

    /// The device multiplier (`m` parameter), defaulting to 1.
    pub fn multiplier(&self) -> f64 {
        self.param("m").unwrap_or(1.0)
    }
}

/// A circuit: a named list of devices with an ordered port list.
///
/// Used both for subcircuit definitions and for the (possibly flat)
/// top-level design.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Circuit {
    name: String,
    ports: Vec<String>,
    devices: Vec<Device>,
    port_labels: BTreeMap<String, PortLabel>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            ports: Vec::new(),
            devices: Vec::new(),
            port_labels: BTreeMap::new(),
        }
    }

    /// Creates an empty circuit with the given external ports.
    pub fn with_ports(name: impl Into<String>, ports: Vec<String>) -> Circuit {
        Circuit {
            name: name.into(),
            ports,
            devices: Vec::new(),
            port_labels: BTreeMap::new(),
        }
    }

    /// Circuit (or subcircuit) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// External port net names in declaration order.
    pub fn ports(&self) -> &[String] {
        &self.ports
    }

    /// Devices in declaration order.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Mutable device list.
    pub fn devices_mut(&mut self) -> &mut Vec<Device> {
        &mut self.devices
    }

    /// Appends a device.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Semantic`] if a device with the same name
    /// already exists.
    pub fn add_device(&mut self, device: Device) -> Result<()> {
        if self.devices.iter().any(|d| d.name() == device.name()) {
            return Err(NetlistError::Semantic(format!(
                "duplicate device name {} in circuit {}",
                device.name(),
                self.name
            )));
        }
        self.devices.push(device);
        Ok(())
    }

    /// Finds a device by name.
    pub fn device(&self, name: &str) -> Option<&Device> {
        self.devices.iter().find(|d| d.name() == name)
    }

    /// All designer port labels.
    pub fn port_labels(&self) -> &BTreeMap<String, PortLabel> {
        &self.port_labels
    }

    /// The label on a specific net, if any.
    pub fn port_label(&self, net: &str) -> Option<&PortLabel> {
        self.port_labels.get(net)
    }

    /// Attaches a designer label to a net (Postprocessing II input).
    pub fn set_port_label(&mut self, net: impl Into<String>, label: PortLabel) {
        self.port_labels.insert(net.into(), label);
    }

    /// The set of all net names referenced by devices or ports, sorted.
    pub fn nets(&self) -> Vec<String> {
        let mut set: BTreeSet<String> = self.ports.iter().cloned().collect();
        for d in &self.devices {
            set.extend(d.terminals().iter().cloned());
        }
        set.into_iter().collect()
    }

    /// Borrowed variant of [`Circuit::nets`]: every net name referenced by a
    /// device or port, sorted and deduplicated, without cloning any `String`.
    pub fn net_refs(&self) -> Vec<&str> {
        let mut refs: Vec<&str> = self.ports.iter().map(String::as_str).collect();
        for d in &self.devices {
            refs.extend(d.terminals().iter().map(String::as_str));
        }
        refs.sort_unstable();
        refs.dedup();
        refs
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Number of distinct nets.
    pub fn net_count(&self) -> usize {
        self.nets().len()
    }

    /// True if `net` is a global supply (vdd!, vcc, …) or labeled `Supply`.
    pub fn is_supply(&self, net: &str) -> bool {
        SUPPLY_NAMES.iter().any(|s| net.eq_ignore_ascii_case(s))
            || matches!(self.port_label(net), Some(PortLabel::Supply))
    }

    /// True if `net` is a global ground (gnd!, 0, vss, …) or labeled `Ground`.
    pub fn is_ground(&self, net: &str) -> bool {
        GROUND_NAMES.iter().any(|g| net.eq_ignore_ascii_case(g))
            || matches!(self.port_label(net), Some(PortLabel::Ground))
    }

    /// Number of transistor devices.
    pub fn transistor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|d| d.kind().is_transistor())
            .count()
    }
}

/// A parsed SPICE source: subcircuit definitions plus the top-level circuit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpiceLibrary {
    subckts: Vec<Circuit>,
    top: Circuit,
    globals: BTreeSet<String>,
}

impl SpiceLibrary {
    /// Creates a library with the given top-level circuit and no subcircuits.
    pub fn new(top: Circuit) -> SpiceLibrary {
        SpiceLibrary {
            subckts: Vec::new(),
            top,
            globals: BTreeSet::new(),
        }
    }

    /// Declares a `.GLOBAL` net: flattening keeps its name at every level
    /// of hierarchy instead of prefixing it with instance paths (the same
    /// treatment `vdd!`/`gnd!` receive implicitly).
    pub fn add_global(&mut self, net: impl Into<String>) {
        self.globals.insert(net.into());
    }

    /// True if `net` was declared `.GLOBAL` or is a built-in rail name.
    pub fn is_global(&self, net: &str) -> bool {
        let lower = net.to_ascii_lowercase();
        self.globals.contains(net)
            || SUPPLY_NAMES.contains(&lower.as_str())
            || GROUND_NAMES.contains(&lower.as_str())
    }

    /// Nets declared `.GLOBAL`, sorted.
    pub fn globals(&self) -> impl Iterator<Item = &str> {
        self.globals.iter().map(String::as_str)
    }

    /// Registers a subcircuit definition.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Semantic`] on duplicate definitions.
    pub fn add_subckt(&mut self, circuit: Circuit) -> Result<()> {
        if self.find_subckt(circuit.name()).is_some() {
            return Err(NetlistError::Semantic(format!(
                "duplicate subcircuit definition {}",
                circuit.name()
            )));
        }
        self.subckts.push(circuit);
        Ok(())
    }

    /// Looks up a subcircuit by name (case-insensitive, as in SPICE).
    pub fn find_subckt(&self, name: &str) -> Option<&Circuit> {
        self.subckts
            .iter()
            .find(|c| c.name().eq_ignore_ascii_case(name))
    }

    /// All subcircuit definitions in declaration order.
    pub fn subckts(&self) -> &[Circuit] {
        &self.subckts
    }

    /// The top-level circuit (cards outside any `.SUBCKT`).
    pub fn top(&self) -> &Circuit {
        &self.top
    }

    /// Mutable access to the top-level circuit.
    pub fn top_mut(&mut self) -> &mut Circuit {
        &mut self.top
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_validates_terminal_counts() {
        assert!(Device::new("M1", DeviceKind::Nmos, vec!["d".into(), "g".into()]).is_err());
        assert!(Device::new(
            "M1",
            DeviceKind::Nmos,
            vec!["d".into(), "g".into(), "s".into(), "b".into()]
        )
        .is_ok());
        assert!(Device::new("R1", DeviceKind::Resistor, vec!["a".into()]).is_err());
        assert!(Device::new("X1", DeviceKind::Instance, vec![]).is_err());
    }

    #[test]
    fn mos_terminal_accessors() {
        let m = Device::new(
            "M0",
            DeviceKind::Pmos,
            vec!["out".into(), "in".into(), "vdd!".into(), "vdd!".into()],
        )
        .expect("valid MOS");
        assert_eq!(m.mos_terminal(MosTerminal::Drain), Some("out"));
        assert_eq!(m.mos_terminal(MosTerminal::Gate), Some("in"));
        assert_eq!(m.mos_terminal(MosTerminal::Source), Some("vdd!"));
        let r = Device::new("R1", DeviceKind::Resistor, vec!["a".into(), "b".into()])
            .expect("valid resistor");
        assert_eq!(r.mos_terminal(MosTerminal::Gate), None);
    }

    #[test]
    fn params_are_case_insensitive() {
        let d = Device::new(
            "M0",
            DeviceKind::Nmos,
            vec!["d".into(), "g".into(), "s".into(), "b".into()],
        )
        .expect("valid")
        .with_param("W", 2e-6);
        assert_eq!(d.param("w"), Some(2e-6));
        assert_eq!(d.param("W"), Some(2e-6));
        assert_eq!(d.multiplier(), 1.0);
    }

    #[test]
    fn circuit_rejects_duplicate_device_names() {
        let mut c = Circuit::new("top");
        let d =
            Device::new("R1", DeviceKind::Resistor, vec!["a".into(), "b".into()]).expect("valid");
        c.add_device(d.clone()).expect("first insert");
        assert!(c.add_device(d).is_err());
    }

    #[test]
    fn nets_are_deduplicated_and_sorted() {
        let mut c = Circuit::with_ports("top", vec!["in".into(), "out".into()]);
        c.add_device(
            Device::new("R1", DeviceKind::Resistor, vec!["in".into(), "mid".into()])
                .expect("valid"),
        )
        .expect("insert");
        c.add_device(
            Device::new("R2", DeviceKind::Resistor, vec!["mid".into(), "out".into()])
                .expect("valid"),
        )
        .expect("insert");
        assert_eq!(c.nets(), vec!["in", "mid", "out"]);
        assert_eq!(c.net_count(), 3);
    }

    #[test]
    fn supply_and_ground_recognition() {
        let mut c = Circuit::new("top");
        assert!(c.is_supply("vdd!"));
        assert!(c.is_supply("VDD"));
        assert!(c.is_ground("0"));
        assert!(c.is_ground("GND!"));
        assert!(!c.is_supply("out"));
        c.set_port_label("avdd", PortLabel::Supply);
        assert!(c.is_supply("avdd"));
    }

    #[test]
    fn library_subckt_lookup_is_case_insensitive() {
        let mut lib = SpiceLibrary::default();
        lib.add_subckt(Circuit::new("OTA")).expect("first");
        assert!(lib.find_subckt("ota").is_some());
        assert!(lib.add_subckt(Circuit::new("ota")).is_err());
    }

    #[test]
    fn port_label_keywords_round_trip() {
        for label in [
            PortLabel::Antenna,
            PortLabel::Oscillating,
            PortLabel::Input,
            PortLabel::Output,
            PortLabel::Bias,
            PortLabel::Supply,
            PortLabel::Ground,
            PortLabel::Custom("ref".into()),
        ] {
            assert_eq!(PortLabel::from_keyword(label.keyword()), label);
        }
        assert_eq!(PortLabel::from_keyword("LO"), PortLabel::Oscillating);
    }
}
