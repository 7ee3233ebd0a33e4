//! Workload inputs, generated from the run's seed.
//!
//! Every generator here is a pure function of its seed: the same seed gives
//! byte-identical netlists, edit streams and arrival schedules. The seed
//! varies sizing jitter, order and timing, never the structural mix, so runs
//! on different seeds measure the same amount of work.

use gana::core::Task;
use gana::datasets::{ota, phased_array, rf, sc_filter, LabeledCircuit};
use gana::graph::features::value_magnitude;
use gana::netlist::{write_spice, Circuit, Device, DeviceKind, SpiceLibrary};
use rand::prelude::*;
use std::collections::BTreeMap;
use std::time::Duration;

/// The four circuit families of the paper's Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// OTA + bias network.
    Ota,
    /// RF receiver (LNA, mixer, oscillator).
    Rf,
    /// Switched-capacitor filter around a telescopic OTA.
    ScFilter,
    /// The 564-device phased-array system of Fig. 7.
    PhasedArray,
}

impl Family {
    /// The model that annotates this family.
    pub fn task(self) -> Task {
        match self {
            Family::Ota | Family::ScFilter => Task::OtaBias,
            Family::Rf | Family::PhasedArray => Task::Rf,
        }
    }
}

/// Ground truth of one generated circuit: device name → class name.
#[derive(Debug, Clone)]
pub struct Truth(BTreeMap<String, String>);

/// Devices checked against a [`Truth`] and how many carried a wrong label.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Score {
    /// Devices compared.
    pub devices: u64,
    /// Devices whose label differs from the truth.
    pub wrong: u64,
}

impl Truth {
    /// The generator's device classes, by name.
    pub fn of(lc: &LabeledCircuit) -> Truth {
        Truth(
            lc.device_class
                .iter()
                .map(|(device, &class)| (device.clone(), lc.class_names[class].clone()))
                .collect(),
        )
    }

    /// Scores `(device, label)` pairs; devices the generator did not label
    /// (e.g. one an edit added) are skipped.
    pub fn score<'a>(&self, labels: impl IntoIterator<Item = (&'a str, &'a str)>) -> Score {
        let mut score = Score::default();
        for (device, label) in labels {
            if let Some(expected) = self.0.get(device) {
                score.devices += 1;
                score.wrong += u64::from(expected != label);
            }
        }
        score
    }
}

/// One generated design: SPICE text plus its ground truth.
#[derive(Debug, Clone)]
pub struct Design {
    /// Which family generated it.
    pub family: Family,
    /// The netlist as SPICE text (port labels included).
    pub spice: String,
    /// Device classes the annotation must reproduce.
    pub truth: Truth,
}

impl Design {
    fn new(family: Family, lc: &LabeledCircuit) -> Design {
        Design {
            family,
            spice: write_spice(&SpiceLibrary::new(lc.circuit.clone())),
            truth: Truth::of(lc),
        }
    }
}

/// Designs per `annotate_paper` round: 8 OTA, 8 RF receivers, 1 SC filter
/// and 1 phased array.
pub const ROUND: usize = 18;

/// Rounds in the `annotate_paper` input set. Six rounds hold every one of
/// the 48 OTA variants exactly once and a fixed multiset of the 27 RF
/// receiver variants, so the structural mix is the same for every seed.
pub const ROUNDS: usize = 6;

fn ota_variant(i: usize, seed: u64) -> LabeledCircuit {
    ota::generate(ota::OtaSpec {
        topology: ota::OtaTopology::ALL[i % 6],
        pmos_input: (i / 6) % 2 == 1,
        bias: ota::BiasStyle::ALL[(i / 12) % 4],
        seed,
    })
}

fn rf_variant(i: usize, seed: u64) -> LabeledCircuit {
    rf::generate(rf::ReceiverSpec {
        lna: rf::LnaKind::ALL[i % 3],
        mixer: rf::MixerKind::ALL[(i / 3) % 3],
        osc: rf::OscKind::ALL[(i / 9) % 3],
        seed,
    })
}

/// The `annotate_paper` input set: [`ROUNDS`] rounds of [`ROUND`] designs,
/// in the order they are annotated.
pub fn paper_designs(seed: u64) -> Vec<Design> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut otas: Vec<Design> = (0..ROUNDS * 8)
        .map(|i| Design::new(Family::Ota, &ota_variant(i, rng.gen())))
        .collect();
    let mut rfs: Vec<Design> = (0..ROUNDS * 8)
        .map(|i| Design::new(Family::Rf, &rf_variant(i % 27, rng.gen())))
        .collect();
    otas.shuffle(&mut rng);
    rfs.shuffle(&mut rng);
    let mut designs = Vec::with_capacity(ROUNDS * ROUND);
    for r in 0..ROUNDS {
        let mut round: Vec<Design> = otas[r * 8..(r + 1) * 8]
            .iter()
            .chain(&rfs[r * 8..(r + 1) * 8])
            .cloned()
            .collect();
        round.push(Design::new(
            Family::ScFilter,
            &sc_filter::generate(rng.gen()),
        ));
        round.push(Design::new(
            Family::PhasedArray,
            &phased_array::generate(rng.gen()),
        ));
        round.shuffle(&mut rng);
        designs.extend(round);
    }
    designs
}

/// Kind of one edit in the `edit_session` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EditKind {
    /// A transistor width change; no GCN feature sees it.
    Resize,
    /// An R/C value moved across a feature bucket, or moved back.
    Revalue,
    /// One device added or removed.
    Topology,
}

impl EditKind {
    /// Every kind, in report order.
    pub const ALL: [EditKind; 3] = [EditKind::Resize, EditKind::Revalue, EditKind::Topology];

    /// Report name.
    pub(crate) fn name(self) -> &'static str {
        match self {
            EditKind::Resize => "resize",
            EditKind::Revalue => "revalue",
            EditKind::Topology => "topology",
        }
    }
}

/// One designer edit of the session circuit.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// Sets device `device`'s `w` parameter.
    Resize {
        /// Index into the circuit's device list.
        device: usize,
        /// New width in metres.
        w: f64,
    },
    /// Sets device `device`'s value.
    Revalue {
        /// Index into the circuit's device list.
        device: usize,
        /// New value in SI units.
        value: f64,
    },
    /// Appends a device.
    Add(Device),
    /// Removes the last device (the one the previous `Add` appended).
    RemoveLast,
}

impl Edit {
    /// The edit's kind.
    pub fn kind(&self) -> EditKind {
        match self {
            Edit::Resize { .. } => EditKind::Resize,
            Edit::Revalue { .. } => EditKind::Revalue,
            Edit::Add(_) | Edit::RemoveLast => EditKind::Topology,
        }
    }

    /// Applies the edit in place.
    pub fn apply(&self, circuit: &mut Circuit) {
        match self {
            Edit::Resize { device, w } => circuit.devices_mut()[*device].set_param("w", *w),
            Edit::Revalue { device, value } => {
                circuit.devices_mut()[*device].set_value(Some(*value));
            }
            Edit::Add(device) => circuit
                .add_device(device.clone())
                .expect("added device names are unique"),
            Edit::RemoveLast => {
                circuit.devices_mut().pop();
            }
        }
    }
}

/// Edits per block of the edit stream: 6 resizes, 2 revalues and 2
/// topology edits in seeded order, so any whole number of blocks has
/// exactly the 60/20/20 mix.
pub const EDIT_BLOCK: usize = 10;

/// The seeded `edit_session` edit stream over one circuit: 60% resizes,
/// 20% bucket-crossing R/C revalues (every second one reverts the one
/// before), 20% topology edits (adding a capacitor, then removing it).
#[derive(Debug, Clone)]
pub struct EditStream {
    rng: StdRng,
    block: Vec<EditKind>,
    transistors: Vec<(usize, f64)>,
    passives: Vec<(usize, DeviceKind, f64)>,
    signal_nets: Vec<String>,
    revalued: Option<(usize, f64)>,
    added: bool,
    next_name: u64,
}

impl EditStream {
    /// Starts the stream for `base`.
    pub fn new(base: &Circuit, seed: u64) -> EditStream {
        let mut transistors = Vec::new();
        let mut passives = Vec::new();
        for (i, d) in base.devices().iter().enumerate() {
            if d.kind().is_transistor() {
                transistors.push((i, d.param("w").unwrap_or(1e-6)));
            } else if matches!(d.kind(), DeviceKind::Resistor | DeviceKind::Capacitor) {
                if let Some(v) = d
                    .value()
                    .filter(|&v| value_magnitude(d.kind(), v).is_some())
                {
                    passives.push((i, d.kind(), v));
                }
            }
        }
        let signal_nets = base
            .nets()
            .into_iter()
            .filter(|n| !base.is_supply(n) && !base.is_ground(n))
            .collect();
        EditStream {
            rng: StdRng::seed_from_u64(seed),
            block: Vec::with_capacity(EDIT_BLOCK),
            transistors,
            passives,
            signal_nets,
            revalued: None,
            added: false,
            next_name: 0,
        }
    }

    /// The next edit.
    pub fn next_edit(&mut self) -> Edit {
        if self.block.is_empty() {
            self.block.extend([EditKind::Resize; 6]);
            self.block.extend([EditKind::Revalue; 2]);
            self.block.extend([EditKind::Topology; 2]);
            self.block.shuffle(&mut self.rng);
        }
        match self.block.pop().expect("refilled above") {
            EditKind::Resize => {
                let (device, w0) = self.transistors[self.rng.gen_range(0..self.transistors.len())];
                Edit::Resize {
                    device,
                    w: w0 * self.rng.gen_range(0.5..2.0),
                }
            }
            EditKind::Revalue => {
                if let Some((device, value)) = self.revalued.take() {
                    return Edit::Revalue { device, value };
                }
                let (device, kind, value) =
                    self.passives[self.rng.gen_range(0..self.passives.len())];
                self.revalued = Some((device, value));
                Edit::Revalue {
                    device,
                    value: far_bucket(kind, value),
                }
            }
            EditKind::Topology => self.topology_edit(),
        }
    }

    fn topology_edit(&mut self) -> Edit {
        if std::mem::take(&mut self.added) {
            return Edit::RemoveLast;
        }
        self.added = true;
        self.next_name += 1;
        let net = &self.signal_nets[self.rng.gen_range(0..self.signal_nets.len())];
        Edit::Add(
            Device::new(
                format!("CEDIT{}", self.next_name),
                DeviceKind::Capacitor,
                vec![net.clone(), "gnd!".to_string()],
            )
            .expect("two-terminal capacitor")
            .with_value(50e-15),
        )
    }
}

/// A value in the feature bucket farthest from `value`'s, so the edit
/// always changes the GCN's input features.
fn far_bucket(kind: DeviceKind, value: f64) -> f64 {
    let high = value_magnitude(kind, value) == Some(2);
    match (kind, high) {
        (DeviceKind::Resistor, true) => 1.0,
        (DeviceKind::Resistor, false) => 1e6,
        (_, true) => 1e-13,
        (_, false) => 1e-9,
    }
}

/// The serving families, most popular first.
pub const SERVE_FAMILIES: [Family; 3] = [Family::Ota, Family::Rf, Family::ScFilter];

/// An index into [`SERVE_FAMILIES`], Zipf-distributed (exponent 1):
/// weights 1, 1/2, 1/3.
fn pick_family(rng: &mut StdRng) -> usize {
    let u: f64 = rng.gen::<f64>() * (1.0 + 1.0 / 2.0 + 1.0 / 3.0);
    if u < 1.0 {
        0
    } else if u < 1.5 {
        1
    } else {
        2
    }
}

/// One netlist of the serving corpus, with the edited twin a session
/// update sends.
#[derive(Debug, Clone)]
pub struct PoolEntry {
    /// The design.
    pub design: Design,
    /// The same netlist with its first transistor resized.
    pub resized: String,
}

/// The serving corpus, one pool per entry of [`SERVE_FAMILIES`]: all 48 OTA
/// variants, all 27 RF receiver variants and the SC filter.
pub fn serve_pools(seed: u64) -> Vec<Vec<PoolEntry>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E12_7E00);
    let entry = |family: Family, lc: LabeledCircuit| {
        let mut resized = lc.circuit.clone();
        if let Some(d) = resized
            .devices_mut()
            .iter_mut()
            .find(|d| d.kind().is_transistor())
        {
            let w = d.param("w").unwrap_or(1e-6);
            d.set_param("w", w * 1.5);
        }
        PoolEntry {
            design: Design::new(family, &lc),
            resized: write_spice(&SpiceLibrary::new(resized)),
        }
    };
    let otas = (0..48).map(|i| entry(Family::Ota, ota_variant(i, rng.gen())));
    let otas = otas.collect();
    let rfs = (0..27).map(|i| entry(Family::Rf, rf_variant(i, rng.gen())));
    let rfs = rfs.collect();
    let sc = vec![entry(Family::ScFilter, sc_filter::generate(rng.gen()))];
    vec![otas, rfs, sc]
}

/// One request of the open-loop serving schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeRequest {
    /// A stateless annotate of `pools[family][index]`.
    Annotate {
        /// Index into [`SERVE_FAMILIES`].
        family: usize,
        /// Index into the family's pool.
        index: usize,
    },
    /// Opens a session on `pools[family][index]`.
    Open {
        /// Index into [`SERVE_FAMILIES`].
        family: usize,
        /// Index into the family's pool.
        index: usize,
    },
    /// Sends the open session's netlist, alternately resized and restored.
    Update,
    /// Closes the open session.
    Close,
}

/// One scheduled request: its arrival offset from the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// When the request is due.
    pub at: Duration,
    /// What it asks.
    pub request: ServeRequest,
}

/// Updates a session receives between its open and its close.
pub const SESSION_UPDATES: usize = 3;

/// The open-loop schedule of one connection: `rate_rps × duration`
/// arrivals (rounded) placed uniformly at random over `duration` — a
/// Poisson process conditioned on its count, so every seed offers the same
/// load. Every block of 20 arrivals, in seeded order, holds 17 stateless
/// annotates by family — 9 OTA, 5 RF, 3 SC filter: the Zipf (exponent 1)
/// shares 6/11, 3/11, 2/11, rounded — and 3 session steps (15%), so any
/// whole number of blocks has exactly this mix. Session steps cycle open,
/// [`SESSION_UPDATES`] updates, close.
pub fn arrival_schedule(
    seed: u64,
    connection: usize,
    rate_rps: f64,
    duration: Duration,
    pools: &[Vec<PoolEntry>],
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(0xA221_7A15 * (connection as u64 + 1)));
    let count = (rate_rps * duration.as_secs_f64()).round().max(1.0) as usize;
    let mut times: Vec<f64> = (0..count)
        .map(|_| rng.gen::<f64>() * duration.as_secs_f64())
        .collect();
    times.sort_by(f64::total_cmp);
    let mut block = Vec::new();
    let mut session_step: Option<usize> = None;
    let mut arrivals = Vec::with_capacity(count);
    for at in times {
        if block.is_empty() {
            block.extend([Some(0); 9]);
            block.extend([Some(1); 5]);
            block.extend([Some(2); 3]);
            block.extend([None; 3]);
            block.shuffle(&mut rng);
        }
        let request = match (block.pop().expect("refilled above"), session_step) {
            (Some(family), _) => ServeRequest::Annotate {
                family,
                index: rng.gen_range(0..pools[family].len()),
            },
            (None, None) => {
                session_step = Some(0);
                let family = pick_family(&mut rng);
                ServeRequest::Open {
                    family,
                    index: rng.gen_range(0..pools[family].len()),
                }
            }
            (None, Some(n)) if n < SESSION_UPDATES => {
                session_step = Some(n + 1);
                ServeRequest::Update
            }
            (None, Some(_)) => {
                session_step = None;
                ServeRequest::Close
            }
        };
        arrivals.push(Arrival {
            at: Duration::from_secs_f64(at),
            request,
        });
    }
    arrivals
}

/// Netlists per `serve_batch` frame group.
pub(crate) const BATCH: usize = 4;

/// The closed-loop batch sequence of one `serve_batch` connection: each
/// batch is one family (Zipf-picked) and [`BATCH`] pool indices.
#[derive(Debug, Clone)]
pub(crate) struct BatchPlan {
    rng: StdRng,
}

impl BatchPlan {
    /// Starts connection `connection`'s sequence.
    pub(crate) fn new(seed: u64, connection: usize) -> BatchPlan {
        BatchPlan {
            rng: StdRng::seed_from_u64(seed.wrapping_add(0xBA7C_4000 * (connection as u64 + 1))),
        }
    }

    /// The next batch: a family index and the pool entries to send.
    pub(crate) fn next_batch(&mut self, pools: &[Vec<PoolEntry>]) -> (usize, [usize; BATCH]) {
        let family = pick_family(&mut self.rng);
        let len = pools[family].len();
        let mut indices = [0; BATCH];
        for slot in &mut indices {
            *slot = self.rng.gen_range(0..len);
        }
        (family, indices)
    }
}
