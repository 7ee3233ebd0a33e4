//! Layout constraints attached to recognized structures (paper Sections
//! III-C and IV-B).
//!
//! "For every known category of blocks, it is possible to associate the
//! recognized block with a set of layout constraints based on its
//! functionality": symmetry about a differential-pair axis, matching and
//! common-centroid for mirrors and capacitor arrays, proximity to the
//! antenna for LNAs, guard rings for RF devices.

use std::fmt;
use std::sync::Arc;

/// The kinds of geometric/layout constraints GANA annotates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[non_exhaustive]
pub enum ConstraintKind {
    /// Devices must be placed mirror-symmetrically about a common axis.
    Symmetry,
    /// Devices must use identical layout (orientation, size, surroundings).
    Matching,
    /// Devices must share a common centroid (capacitor arrays, big mirrors).
    CommonCentroid,
    /// Block must be placed close to a specific port (LNA near antenna).
    Proximity,
    /// Devices need a guard ring for isolation (RF blocks).
    GuardRing,
    /// Wire length on the listed nets must be minimized (parasitic-sensitive).
    MinimizeWireLength,
}

impl fmt::Display for ConstraintKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ConstraintKind::Symmetry => "symmetry",
            ConstraintKind::Matching => "matching",
            ConstraintKind::CommonCentroid => "common-centroid",
            ConstraintKind::Proximity => "proximity",
            ConstraintKind::GuardRing => "guard-ring",
            ConstraintKind::MinimizeWireLength => "min-wirelength",
        };
        f.write_str(name)
    }
}

/// One constraint instance over a set of devices (or nets for wire-length).
///
/// Members live behind an [`Arc`] so the several constraints a primitive
/// implies (symmetry + matching + …) share one name list instead of each
/// cloning it; `Clone` on a constraint is a reference-count bump.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Constraint {
    /// The constraint kind.
    pub kind: ConstraintKind,
    /// Device (or net) names the constraint covers, sorted.
    pub members: Arc<[String]>,
}

impl Constraint {
    /// Creates a constraint, sorting members for deterministic equality.
    pub fn new(kind: ConstraintKind, mut members: Vec<String>) -> Constraint {
        members.sort();
        Constraint {
            kind,
            members: members.into(),
        }
    }

    /// Creates a constraint over an already-sorted shared member list
    /// without copying it.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `members` is not sorted — unsorted members
    /// would break the deterministic-equality contract of [`Constraint::new`].
    pub fn from_shared(kind: ConstraintKind, members: Arc<[String]>) -> Constraint {
        debug_assert!(
            members.windows(2).all(|w| w[0] <= w[1]),
            "shared constraint members must be pre-sorted"
        );
        Constraint { kind, members }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.kind, self.members.join(", "))
    }
}

/// The constraint kinds a primitive class implies for its matched devices.
///
/// Differential and cross-coupled pairs demand symmetry + matching; current
/// mirrors demand matching (common centroid from three transistors up);
/// passive dividers and compensation networks demand matching.
pub fn primitive_constraints(primitive: &str, transistor_count: usize) -> Vec<ConstraintKind> {
    let upper = primitive.to_ascii_uppercase();
    if upper.starts_with("DP_") || upper.starts_with("CCP_") {
        vec![ConstraintKind::Symmetry, ConstraintKind::Matching]
    } else if upper.starts_with("CM_") {
        if transistor_count >= 3 {
            vec![ConstraintKind::Matching, ConstraintKind::CommonCentroid]
        } else {
            vec![ConstraintKind::Matching]
        }
    } else if upper.starts_with("RDIV") || upper.starts_with("CDIV") {
        // Same-kind passive arrays match; mixed R-C / L-C networks do not
        // imply equal footprints.
        vec![ConstraintKind::Matching]
    } else if upper.starts_with("TG") || upper.starts_with("INV") {
        vec![ConstraintKind::Matching]
    } else {
        Vec::new()
    }
}

/// The constraint kinds a recognized *sub-block* class implies
/// (paper Section III-C).
pub fn sub_block_constraints(class_name: &str) -> Vec<ConstraintKind> {
    match class_name.to_ascii_lowercase().as_str() {
        // "an OTA layout should be symmetric about a differential pair axis"
        "ota" => vec![ConstraintKind::Symmetry],
        // "it is vital for an LNA to be placed close to the antenna; devices
        // in RF blocks such as LNAs and mixers need guard rings"
        "lna" => vec![
            ConstraintKind::Proximity,
            ConstraintKind::GuardRing,
            ConstraintKind::MinimizeWireLength,
        ],
        "mixer" => vec![
            ConstraintKind::GuardRing,
            ConstraintKind::MinimizeWireLength,
        ],
        // "oscillators and BPFs must be symmetric about a cross-coupled
        // transistor pair"
        "oscillator" | "osc" | "bpf" => {
            vec![ConstraintKind::Symmetry, ConstraintKind::MinimizeWireLength]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_are_sorted_for_equality() {
        let a = Constraint::new(ConstraintKind::Matching, vec!["M2".into(), "M1".into()]);
        let b = Constraint::new(ConstraintKind::Matching, vec!["M1".into(), "M2".into()]);
        assert_eq!(a, b);
    }

    #[test]
    fn from_shared_equals_new() {
        let shared: Arc<[String]> = vec!["M1".to_string(), "M2".to_string()].into();
        let a = Constraint::from_shared(ConstraintKind::Matching, Arc::clone(&shared));
        let b = Constraint::new(ConstraintKind::Matching, vec!["M2".into(), "M1".into()]);
        assert_eq!(a, b);
        assert!(Arc::ptr_eq(&a.members, &shared), "no copy taken");
    }

    #[test]
    fn dp_implies_symmetry_and_matching() {
        let kinds = primitive_constraints("DP_N", 2);
        assert!(kinds.contains(&ConstraintKind::Symmetry));
        assert!(kinds.contains(&ConstraintKind::Matching));
    }

    #[test]
    fn big_mirrors_get_common_centroid() {
        assert!(!primitive_constraints("CM_N2", 2).contains(&ConstraintKind::CommonCentroid));
        assert!(primitive_constraints("CM_N3", 3).contains(&ConstraintKind::CommonCentroid));
    }

    #[test]
    fn lna_gets_proximity_and_guard_ring() {
        let kinds = sub_block_constraints("LNA");
        assert!(kinds.contains(&ConstraintKind::Proximity));
        assert!(kinds.contains(&ConstraintKind::GuardRing));
    }

    #[test]
    fn oscillator_gets_symmetry() {
        assert!(sub_block_constraints("oscillator").contains(&ConstraintKind::Symmetry));
        assert!(sub_block_constraints("bpf").contains(&ConstraintKind::Symmetry));
    }

    #[test]
    fn unknown_classes_get_nothing() {
        assert!(sub_block_constraints("frobnicator").is_empty());
        assert!(primitive_constraints("SW_N", 1).is_empty());
    }

    #[test]
    fn display_formats() {
        let c = Constraint::new(ConstraintKind::Symmetry, vec!["M1".into(), "M2".into()]);
        assert_eq!(c.to_string(), "symmetry(M1, M2)");
    }
}
