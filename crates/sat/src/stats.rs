//! Solver statistics counters.

use std::fmt;

/// Counters accumulated across the lifetime of a [`crate::Solver`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Stats {
    /// Number of `solve`/`solve_with` invocations.
    pub solves: u64,
    /// Branching decisions made.
    pub decisions: u64,
    /// Literals enqueued by unit propagation (including decisions).
    pub propagations: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Restarts performed.
    pub restarts: u64,
    /// Clauses learnt from conflicts (excluding learnt units).
    pub learnt_clauses: u64,
    /// Total literals across learnt clauses.
    pub learnt_literals: u64,
    /// Literals removed by learned-clause minimization.
    pub minimized_literals: u64,
    /// Learnt-clause database reductions.
    pub reductions: u64,
    /// Learnt clauses deleted by reductions.
    pub deleted_clauses: u64,
    /// Activation literals permanently retired via [`crate::Solver::retire`].
    pub retired_activations: u64,
    /// Root-satisfied clauses reclaimed by [`crate::Solver::simplify`]
    /// (mostly retired activation-gated clauses in incremental sessions).
    pub garbage_collected_clauses: u64,
    /// Conflicts resolved by chronological backtracking (one level) instead
    /// of a far non-chronological backjump.
    pub chrono_backtracks: u64,
}

impl Stats {
    /// Adds every counter from `other` into `self`, so statistics of
    /// several solvers (e.g. an engine's cached capacity sessions) fold
    /// into one total.
    pub fn absorb(&mut self, other: &Stats) {
        self.solves += other.solves;
        self.decisions += other.decisions;
        self.propagations += other.propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learnt_clauses += other.learnt_clauses;
        self.learnt_literals += other.learnt_literals;
        self.minimized_literals += other.minimized_literals;
        self.reductions += other.reductions;
        self.deleted_clauses += other.deleted_clauses;
        self.retired_activations += other.retired_activations;
        self.garbage_collected_clauses += other.garbage_collected_clauses;
        self.chrono_backtracks += other.chrono_backtracks;
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "solves={} decisions={} propagations={} conflicts={} restarts={} \
             learnt={} deleted={} minimized_lits={} retired={} gc={} \
             chrono_backtracks={}",
            self.solves,
            self.decisions,
            self.propagations,
            self.conflicts,
            self.restarts,
            self.learnt_clauses,
            self.deleted_clauses,
            self.minimized_literals,
            self.retired_activations,
            self.garbage_collected_clauses,
            self.chrono_backtracks,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_adds_fieldwise() {
        let mut a = Stats { solves: 2, conflicts: 7, chrono_backtracks: 1, ..Stats::default() };
        let b = Stats { solves: 3, conflicts: 5, garbage_collected_clauses: 4, ..Stats::default() };
        a.absorb(&b);
        assert_eq!(a.solves, 5);
        assert_eq!(a.conflicts, 12);
        assert_eq!(a.chrono_backtracks, 1);
        assert_eq!(a.garbage_collected_clauses, 4);
        // Absorbing the default is the identity.
        let before = a;
        a.absorb(&Stats::default());
        assert_eq!(a, before);
    }

    #[test]
    fn display_mentions_key_counters() {
        let s = Stats {
            conflicts: 7,
            ..Stats::default()
        };
        let text = s.to_string();
        assert!(text.contains("conflicts=7"));
        assert!(text.contains("decisions=0"));
    }
}
