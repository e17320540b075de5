//! Sweep compilation and enumeration: `SweepSpec` → CNF → every
//! admissible pick-vector → `Scenario` stream.
//!
//! The compilation is deliberately tiny — one atom per (group,
//! alternative), `exactly(1, …)` per group, the `require` constraints
//! asserted positively and the `forbid` constraints negated — because the
//! point is to reuse the engine's own logic layer as the generator. All
//! name resolution against the catalog happens here (lowering is purely
//! syntactic), so a sweep over a system or NIC the catalog never defines
//! is an error, not an empty stream.

use netarch_core::prelude::*;
use netarch_dsl::{AltRef, ChoiceKind, SweepConstraint, SweepSpec};
use netarch_logic::enumerate::enumerate_models;
use netarch_logic::{Atom, Encoder, Formula};
use netarch_rt::Rng;
use std::fmt;

/// Hard cap on the unconstrained universe (product of group arities).
/// Exhaustive enumeration is what makes the stream order-independent, so
/// the universe must stay walkable; a sweep past this bound is a spec
/// bug, not a workload.
pub const MAX_UNIVERSE: u64 = 1 << 16;

/// Why a sweep cannot be compiled or enumerated.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SweepError {
    /// The unconstrained universe exceeds [`MAX_UNIVERSE`].
    UniverseTooLarge {
        /// Product of group arities.
        bound: u64,
    },
    /// Two choice groups share a name.
    DuplicateGroup {
        /// The repeated group name.
        group: String,
    },
    /// One group lists the same alternative twice.
    DuplicateAlternative {
        /// The group.
        group: String,
        /// The repeated alternative label.
        alternative: String,
    },
    /// A `systems` group names a system the catalog does not define.
    UnknownSystem {
        /// The group.
        group: String,
        /// The unresolved id.
        id: SystemId,
    },
    /// A hardware group names a model the catalog does not define.
    UnknownHardware {
        /// The group.
        group: String,
        /// The unresolved id.
        id: HardwareId,
    },
    /// A hardware group names a model of the wrong kind (e.g. a switch in
    /// a `nics` group).
    WrongHardwareKind {
        /// The group.
        group: String,
        /// The offending id.
        id: HardwareId,
        /// The kind the group sweeps.
        expected: HardwareKind,
        /// The catalog's kind for the id.
        actual: HardwareKind,
    },
    /// A constraint references a group the sweep never defines.
    UnknownGroup {
        /// The unresolved group name.
        group: String,
    },
    /// A constraint references an alternative its group never lists.
    UnknownAlternative {
        /// The group.
        group: String,
        /// The unresolved alternative label.
        alternative: String,
    },
}

impl fmt::Display for SweepError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepError::UniverseTooLarge { bound } => write!(
                f,
                "sweep universe has {bound} combinations (max {MAX_UNIVERSE}); \
                 shrink a choice group or split the sweep"
            ),
            SweepError::DuplicateGroup { group } => {
                write!(f, "duplicate choice group `{group}`")
            }
            SweepError::DuplicateAlternative { group, alternative } => {
                write!(f, "group `{group}` lists alternative `{alternative}` twice")
            }
            SweepError::UnknownSystem { group, id } => {
                write!(f, "group `{group}` sweeps unknown system `{id}`")
            }
            SweepError::UnknownHardware { group, id } => {
                write!(f, "group `{group}` sweeps unknown hardware `{id}`")
            }
            SweepError::WrongHardwareKind { group, id, expected, actual } => write!(
                f,
                "group `{group}` sweeps `{id}` as a {expected:?} but the catalog \
                 defines it as a {actual:?}"
            ),
            SweepError::UnknownGroup { group } => {
                write!(f, "constraint references unknown choice group `{group}`")
            }
            SweepError::UnknownAlternative { group, alternative } => {
                write!(f, "group `{group}` has no alternative `{alternative}`")
            }
        }
    }
}

impl std::error::Error for SweepError {}

/// One enumerated variant: a pick index per choice group, in group order.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Variant {
    /// Position in the final (shuffled, truncated) stream.
    pub index: usize,
    /// Chosen alternative per group.
    pub picks: Vec<usize>,
}

/// The deterministic variant stream of one sweep.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepStream {
    /// The sweep's name.
    pub name: String,
    /// The shuffle seed.
    pub seed: u64,
    /// Total admissible combinations *before* the limit truncated.
    pub admissible: u64,
    /// Whether `limit` dropped admissible variants from the stream.
    pub truncated: bool,
    /// The stream, in emission order.
    pub variants: Vec<Variant>,
    /// FNV-1a 128-bit digest of the full stream (names, picks, and
    /// alternative labels). Equal digests ⇒ bit-identical streams.
    pub digest: u128,
}

impl SweepStream {
    /// The digest as a fixed-width hex string (manifest form).
    pub fn digest_hex(&self) -> String {
        format!("{:032x}", self.digest)
    }
}

fn validate(spec: &SweepSpec, catalog: &Catalog) -> Result<(), SweepError> {
    for (i, group) in spec.groups.iter().enumerate() {
        if spec.groups[..i].iter().any(|g| g.name == group.name) {
            return Err(SweepError::DuplicateGroup { group: group.name.clone() });
        }
        let labels = group.alternative_labels();
        for (j, label) in labels.iter().enumerate() {
            if labels[..j].contains(label) {
                return Err(SweepError::DuplicateAlternative {
                    group: group.name.clone(),
                    alternative: label.clone(),
                });
            }
        }
        match &group.kind {
            ChoiceKind::Systems { candidates, .. } => {
                for id in candidates {
                    if catalog.system(id).is_none() {
                        return Err(SweepError::UnknownSystem {
                            group: group.name.clone(),
                            id: id.clone(),
                        });
                    }
                }
            }
            ChoiceKind::Nics(ids) => check_hardware(catalog, group, ids, HardwareKind::Nic)?,
            ChoiceKind::Servers(ids) => {
                check_hardware(catalog, group, ids, HardwareKind::Server)?
            }
            ChoiceKind::Switches(ids) => {
                check_hardware(catalog, group, ids, HardwareKind::Switch)?
            }
            ChoiceKind::NumServers(_) | ChoiceKind::Param { .. } => {}
        }
    }
    for constraint in spec.require.iter().chain(&spec.forbid) {
        resolve_constraint(spec, constraint)?;
    }
    Ok(())
}

fn check_hardware(
    catalog: &Catalog,
    group: &netarch_dsl::ChoiceGroup,
    ids: &[HardwareId],
    expected: HardwareKind,
) -> Result<(), SweepError> {
    for id in ids {
        let Some(spec) = catalog.hardware(id) else {
            return Err(SweepError::UnknownHardware {
                group: group.name.clone(),
                id: id.clone(),
            });
        };
        if spec.kind != expected {
            return Err(SweepError::WrongHardwareKind {
                group: group.name.clone(),
                id: id.clone(),
                expected,
                actual: spec.kind,
            });
        }
    }
    Ok(())
}

fn alt_text(alt: &AltRef) -> String {
    match alt {
        AltRef::Name(n) => n.clone(),
        AltRef::Number(v) => format!("{v}"),
    }
}

/// Resolves a constraint's references; `Ok` carries nothing, the work is
/// the error reporting.
fn resolve_constraint(spec: &SweepSpec, constraint: &SweepConstraint) -> Result<(), SweepError> {
    match constraint {
        SweepConstraint::Picked { group, alternative } => {
            let g = spec
                .groups
                .iter()
                .find(|g| g.name == *group)
                .ok_or_else(|| SweepError::UnknownGroup { group: group.clone() })?;
            g.resolve(alternative).ok_or_else(|| SweepError::UnknownAlternative {
                group: group.clone(),
                alternative: alt_text(alternative),
            })?;
            Ok(())
        }
        SweepConstraint::Not(inner) => resolve_constraint(spec, inner),
        SweepConstraint::All(parts) | SweepConstraint::Any(parts) => {
            parts.iter().try_for_each(|c| resolve_constraint(spec, c))
        }
    }
}

fn constraint_formula(
    spec: &SweepSpec,
    offsets: &[u32],
    constraint: &SweepConstraint,
) -> Formula {
    match constraint {
        SweepConstraint::Picked { group, alternative } => {
            // Resolution already validated; unwraps are unreachable.
            let gi = spec
                .groups
                .iter()
                .position(|g| g.name == *group)
                .expect("validated group reference");
            let ai = spec.groups[gi]
                .resolve(alternative)
                .expect("validated alternative reference");
            Formula::atom(Atom(offsets[gi] + ai as u32))
        }
        SweepConstraint::Not(inner) => Formula::not(constraint_formula(spec, offsets, inner)),
        SweepConstraint::All(parts) => {
            Formula::and(parts.iter().map(|c| constraint_formula(spec, offsets, c)))
        }
        SweepConstraint::Any(parts) => {
            Formula::or(parts.iter().map(|c| constraint_formula(spec, offsets, c)))
        }
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013B;

fn fnv(mut state: u128, bytes: &[u8]) -> u128 {
    for &b in bytes {
        state ^= u128::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

fn stream_digest(spec: &SweepSpec, admissible: u64, variants: &[Variant]) -> u128 {
    let mut state = fnv(FNV_OFFSET, spec.name.as_bytes());
    state = fnv(state, &spec.seed.to_le_bytes());
    state = fnv(state, &admissible.to_le_bytes());
    let labels: Vec<Vec<String>> =
        spec.groups.iter().map(|g| g.alternative_labels()).collect();
    for variant in variants {
        state = fnv(state, &[0xFF]);
        for (gi, &pick) in variant.picks.iter().enumerate() {
            state = fnv(state, &(pick as u64).to_le_bytes());
            state = fnv(state, spec.groups[gi].name.as_bytes());
            state = fnv(state, &[0]);
            state = fnv(state, labels[gi][pick].as_bytes());
            state = fnv(state, &[0]);
        }
    }
    state
}

/// Compiles the sweep and enumerates its variant stream.
///
/// Determinism contract (see crate docs): the admissible set is
/// enumerated exhaustively on a private sequential solver, sorted
/// canonically, shuffled with `spec.seed`, and truncated to `spec.limit`
/// — so equal `(spec, catalog)` inputs yield equal streams everywhere.
pub fn enumerate_sweep(spec: &SweepSpec, catalog: &Catalog) -> Result<SweepStream, SweepError> {
    validate(spec, catalog)?;
    let bound = spec.universe_bound();
    if bound > MAX_UNIVERSE {
        return Err(SweepError::UniverseTooLarge { bound });
    }

    let mut offsets: Vec<u32> = Vec::with_capacity(spec.groups.len());
    let mut next = 0u32;
    for group in &spec.groups {
        offsets.push(next);
        next += group.arity() as u32;
    }

    let mut encoder = Encoder::new();
    for (gi, group) in spec.groups.iter().enumerate() {
        let alternatives =
            (0..group.arity()).map(|ai| Formula::atom(Atom(offsets[gi] + ai as u32)));
        encoder.assert(&Formula::exactly(1, alternatives));
    }
    for constraint in &spec.require {
        encoder.assert(&constraint_formula(spec, &offsets, constraint));
    }
    for constraint in &spec.forbid {
        encoder.assert(&Formula::not(constraint_formula(spec, &offsets, constraint)));
    }

    let atoms: Vec<Atom> = (0..next).map(Atom).collect();
    // `bound + 1` would only be reached if blocking-clause enumeration
    // produced more models than the universe holds; the +1 turns that
    // impossibility into a visible `truncated` flag instead of a silence.
    let models = enumerate_models(encoder, &atoms, &[], bound as usize + 1);
    debug_assert!(!models.truncated, "enumeration exceeded the universe bound");

    let mut picks: Vec<Vec<usize>> = models
        .models
        .iter()
        .map(|model| {
            spec.groups
                .iter()
                .zip(&offsets)
                .map(|(group, &offset)| {
                    let chosen: Vec<usize> = (0..group.arity())
                        .filter(|&ai| {
                            model[(offset + ai as u32) as usize].1
                        })
                        .collect();
                    match chosen.as_slice() {
                        [one] => *one,
                        other => unreachable!(
                            "exactly-one constraint yielded {} picks in group `{}`",
                            other.len(),
                            group.name
                        ),
                    }
                })
                .collect()
        })
        .collect();

    // Canonical order first (the enumerator's discovery order is
    // deterministic too, but tying the stream to solver heuristics would
    // make every solver improvement a silent stream change), then the
    // seeded shuffle so `limit` samples the universe instead of slicing
    // its lexicographic prefix.
    picks.sort();
    let admissible = picks.len() as u64;
    let mut rng = Rng::seed_from_u64(spec.seed);
    rng.shuffle(&mut picks);
    let truncated = admissible > spec.limit;
    picks.truncate(spec.limit as usize);

    let variants: Vec<Variant> = picks
        .into_iter()
        .enumerate()
        .map(|(index, picks)| Variant { index, picks })
        .collect();
    let digest = stream_digest(spec, admissible, &variants);
    Ok(SweepStream {
        name: spec.name.clone(),
        seed: spec.seed,
        admissible,
        truncated,
        variants,
        digest,
    })
}

/// The scenario edits one pick-vector stands for, in group order.
pub fn variant_edits(spec: &SweepSpec, picks: &[usize]) -> Vec<ScenarioEdit> {
    let mut edits = Vec::new();
    for (group, &pick) in spec.groups.iter().zip(picks) {
        match &group.kind {
            ChoiceKind::Systems { candidates, .. } => {
                // Picking a system pins it in and all rivals out, so the
                // group's choice is decisive; the implicit `none`
                // alternative (pick == candidates.len()) pins every
                // candidate out.
                for (i, id) in candidates.iter().enumerate() {
                    edits.push(if i == pick {
                        ScenarioEdit::RequireSystem(id.clone())
                    } else {
                        ScenarioEdit::ForbidSystem(id.clone())
                    });
                }
            }
            ChoiceKind::Nics(ids) => {
                edits.push(ScenarioEdit::NicCandidates(vec![ids[pick].clone()]));
            }
            ChoiceKind::Servers(ids) => {
                edits.push(ScenarioEdit::ServerCandidates(vec![ids[pick].clone()]));
            }
            ChoiceKind::Switches(ids) => {
                edits.push(ScenarioEdit::SwitchCandidates(vec![ids[pick].clone()]));
            }
            ChoiceKind::NumServers(counts) => {
                edits.push(ScenarioEdit::NumServers(counts[pick]));
            }
            ChoiceKind::Param { name, values } => {
                edits.push(ScenarioEdit::SetParam(name.clone(), values[pick]));
            }
        }
    }
    edits
}

/// Materializes one variant over the base scenario.
pub fn variant_scenario(spec: &SweepSpec, base: &Scenario, picks: &[usize]) -> Scenario {
    base.with_edits(&variant_edits(spec, picks))
}

/// Human-readable `group=alternative` summary of one variant.
pub fn variant_label(spec: &SweepSpec, picks: &[usize]) -> String {
    spec.groups
        .iter()
        .zip(picks)
        .map(|(group, &pick)| format!("{}={}", group.name, group.alternative_labels()[pick]))
        .collect::<Vec<_>>()
        .join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use netarch_dsl::ChoiceGroup;

    fn catalog() -> Catalog {
        let mut catalog = Catalog::new();
        for id in ["A", "B", "C"] {
            catalog
                .add_system(SystemSpec::builder(id, Category::Monitoring).build())
                .unwrap();
        }
        catalog
            .add_hardware(HardwareSpec::builder("NIC1", HardwareKind::Nic).build())
            .unwrap();
        catalog
            .add_hardware(HardwareSpec::builder("NIC2", HardwareKind::Nic).build())
            .unwrap();
        catalog
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            name: "s".into(),
            seed: 0,
            limit: 256,
            groups: vec![
                ChoiceGroup {
                    name: "mon".into(),
                    kind: ChoiceKind::Systems {
                        candidates: vec![SystemId::new("A"), SystemId::new("B")],
                        optional: true,
                    },
                },
                ChoiceGroup {
                    name: "nic".into(),
                    kind: ChoiceKind::Nics(vec![
                        HardwareId::new("NIC1"),
                        HardwareId::new("NIC2"),
                    ]),
                },
            ],
            require: vec![],
            forbid: vec![],
        }
    }

    #[test]
    fn unconstrained_sweep_enumerates_the_product() {
        let stream = enumerate_sweep(&spec(), &catalog()).unwrap();
        assert_eq!(stream.admissible, 6); // (A | B | none) × (NIC1 | NIC2)
        assert!(!stream.truncated);
        let mut sorted: Vec<Vec<usize>> =
            stream.variants.iter().map(|v| v.picks.clone()).collect();
        sorted.sort();
        let expected: Vec<Vec<usize>> =
            (0..3).flat_map(|a| (0..2).map(move |b| vec![a, b])).collect();
        assert_eq!(sorted, expected);
    }

    #[test]
    fn forbid_prunes_and_require_pins() {
        let mut s = spec();
        s.require = vec![SweepConstraint::Picked {
            group: "nic".into(),
            alternative: AltRef::Name("NIC1".into()),
        }];
        s.forbid = vec![SweepConstraint::Picked {
            group: "mon".into(),
            alternative: AltRef::Name("none".into()),
        }];
        let stream = enumerate_sweep(&s, &catalog()).unwrap();
        assert_eq!(stream.admissible, 2); // mon ∈ {A, B}, nic = NIC1
        for v in &stream.variants {
            assert_eq!(v.picks[1], 0, "nic pinned to NIC1");
            assert!(v.picks[0] < 2, "none forbidden");
        }
    }

    #[test]
    fn same_seed_same_stream_different_seed_reorders() {
        let base = enumerate_sweep(&spec(), &catalog()).unwrap();
        let again = enumerate_sweep(&spec(), &catalog()).unwrap();
        assert_eq!(base, again);
        let mut reseeded = spec();
        reseeded.seed = 1;
        let other = enumerate_sweep(&reseeded, &catalog()).unwrap();
        assert_ne!(base.digest, other.digest, "seed participates in the digest");
        let mut a: Vec<_> = base.variants.iter().map(|v| v.picks.clone()).collect();
        let mut b: Vec<_> = other.variants.iter().map(|v| v.picks.clone()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "the admissible *set* is seed-independent");
    }

    #[test]
    fn limit_truncates_after_the_shuffle() {
        let mut s = spec();
        s.limit = 4;
        let stream = enumerate_sweep(&s, &catalog()).unwrap();
        assert_eq!(stream.admissible, 6);
        assert!(stream.truncated);
        assert_eq!(stream.variants.len(), 4);
    }

    #[test]
    fn unknown_references_are_errors() {
        let mut s = spec();
        s.groups.push(ChoiceGroup {
            name: "ghost".into(),
            kind: ChoiceKind::Systems {
                candidates: vec![SystemId::new("NOPE")],
                optional: false,
            },
        });
        assert!(matches!(
            enumerate_sweep(&s, &catalog()),
            Err(SweepError::UnknownSystem { .. })
        ));

        let mut s = spec();
        s.require = vec![SweepConstraint::Picked {
            group: "mon".into(),
            alternative: AltRef::Name("Z".into()),
        }];
        assert!(matches!(
            enumerate_sweep(&s, &catalog()),
            Err(SweepError::UnknownAlternative { .. })
        ));
    }

    #[test]
    fn universe_guard_rejects_oversized_sweeps() {
        let mut s = spec();
        for i in 0..20 {
            s.groups.push(ChoiceGroup {
                name: format!("g{i}"),
                kind: ChoiceKind::NumServers((1..=8).collect()),
            });
        }
        assert!(matches!(
            enumerate_sweep(&s, &catalog()),
            Err(SweepError::UniverseTooLarge { .. })
        ));
    }

    #[test]
    fn variant_edits_pin_systems_decisively() {
        let s = spec();
        let edits = variant_edits(&s, &[0, 1]);
        assert_eq!(
            edits,
            vec![
                ScenarioEdit::RequireSystem(SystemId::new("A")),
                ScenarioEdit::ForbidSystem(SystemId::new("B")),
                ScenarioEdit::NicCandidates(vec![HardwareId::new("NIC2")]),
            ]
        );
        // The `none` alternative forbids every candidate.
        let edits = variant_edits(&s, &[2, 0]);
        assert_eq!(
            edits,
            vec![
                ScenarioEdit::ForbidSystem(SystemId::new("A")),
                ScenarioEdit::ForbidSystem(SystemId::new("B")),
                ScenarioEdit::NicCandidates(vec![HardwareId::new("NIC1")]),
            ]
        );
        assert_eq!(variant_label(&s, &[2, 0]), "mon=none nic=NIC1");
    }
}
