//! Answer digests and design checks shared by the workloads.
//!
//! Digests follow `netarch_serve::request::run_query`, so an answer from
//! a warm engine compares by equality with the fresh-engine oracle.

use netarch_core::baseline::validate_design;
use netarch_core::disambiguate::Disambiguation;
use netarch_core::prelude::*;
use netarch_core::query::OptimizedDesign;
use netarch_serve::Answer;

/// `check`'s digest.
pub fn check(outcome: &Outcome) -> Answer {
    Answer::Feasibility(outcome.design().is_some())
}

/// `enumerate_designs(limit, false)`'s digest: the class count, plus the
/// sorted class sets when the enumeration was exhaustive.
pub fn enumerate(designs: &[Design], limit: usize) -> Answer {
    let count = designs.len();
    let exhaustive = (count < limit).then(|| {
        let mut classes: Vec<Vec<String>> = designs
            .iter()
            .map(|d| d.systems().iter().map(|s| s.to_string()).collect())
            .collect();
        classes.sort();
        classes
    });
    Answer::Classes { count, exhaustive }
}

/// `plan_capacity`'s digest: the minimal fleet, if any.
pub fn capacity(plan: &Result<CapacityPlan, Diagnosis>) -> Answer {
    Answer::Capacity(plan.as_ref().ok().map(|p| p.servers_needed))
}

/// `optimize`'s digest: the per-level penalties, if feasible.
pub fn optimize(result: &Result<OptimizedDesign, Diagnosis>) -> Answer {
    Answer::Penalties(
        result
            .as_ref()
            .ok()
            .map(|r| r.levels.iter().map(|l| l.penalty).collect()),
    )
}

/// The decided part of a disambiguation plan: everything when the class
/// list was exhaustive, only the class count when it was truncated
/// (which classes surface first is the solver's choice).
pub fn plan(plan: &Disambiguation) -> Disambiguation {
    if plan.truncated {
        Disambiguation {
            classes: plan.classes,
            truncated: true,
            ..Disambiguation::default()
        }
    } else {
        plan.clone()
    }
}

/// Checks a returned design with the rule evaluator that is independent
/// of the SAT encoding.
pub fn validate(scenario: &Scenario, design: &Design, what: &str) -> Result<(), String> {
    match validate_design(scenario, design).first() {
        None => Ok(()),
        Some(v) => Err(format!(
            "{what} returned a design violating {}: {}",
            v.label, v.description
        )),
    }
}
