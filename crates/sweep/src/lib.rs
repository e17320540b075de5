//! # netarch-sweep
//!
//! The engine enumerating its own test universe. A `sweep` block (lowered
//! by `netarch-dsl` into a [`SweepSpec`]) is a small constraint program
//! over *choice atoms*: each `choose` group contributes exactly one
//! alternative, and `require` / `forbid` prune combinations. This crate
//! compiles that program onto the same logic layer the reasoning engine
//! itself runs on — one Boolean atom per (group, alternative), an
//! exactly-one cardinality constraint per group — and walks every
//! admissible assignment through projected model enumeration.
//!
//! The result is a **deterministic, seeded stream of `Scenario` values**:
//!
//! 1. enumerate the admissible pick-vectors *exhaustively* (the universe
//!    is bounded, so the model set — not just its cardinality — is
//!    independent of solver timing and enumeration order),
//! 2. sort them canonically (lexicographic pick indices),
//! 3. shuffle with the sweep's seed through the repo's own xoshiro PRNG,
//! 4. truncate to the sweep's `limit`.
//!
//! Identical inputs therefore produce a bit-identical variant stream on
//! any machine; the stream digest in
//! [`SweepStream::digest`] makes that contract checkable in CI.
//!
//! Each variant fans out three ways downstream: a differential test case
//! ([`diff`] runs every query kind on a warm session vs a fresh-engine
//! oracle, including budget-bounded traversal of *query orderings*), a
//! bench instance (`exp_sweep`), and an exportable `.narch` corpus entry
//! (`netarch sweep --export`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
pub mod diff;

pub use compile::{
    enumerate_sweep, variant_edits, variant_label, variant_scenario, SweepError, SweepStream,
    Variant, MAX_UNIVERSE,
};
pub use diff::{run_differential, variant_tape, DiffOptions, DiffReport, QueryOp};
pub use netarch_dsl::{AltRef, ChoiceGroup, ChoiceKind, SweepConstraint, SweepSpec};
