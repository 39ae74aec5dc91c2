//! Quality-level allocation algorithms.
//!
//! The central entry point is [`DensityValueGreedy`], the paper's
//! Algorithm 1, which carries a proven 1/2-approximation guarantee for the
//! per-slot problem (Theorem 1). The pure [`DensityGreedy`] and
//! [`ValueGreedy`] passes are also exposed individually — each alone can be
//! arbitrarily bad (the two counterexamples in Section III are unit tests
//! here), which is precisely why the paper combines them.

mod greedy;

pub use greedy::{DensityGreedy, DensityValueGreedy, GreedyOutcome, ValueGreedy};

/// Crate-internal greedy machinery shared with [`crate::engine`], so the
/// buffer-reusing engine runs the *same* monomorphised pass as the
/// allocating path.
pub(crate) mod greedy_internal {
    pub(crate) use super::greedy::{greedy_pass_into, Candidate, PassProblem, Score};
}

use crate::engine::SlotEngine;
use crate::objective::SlotProblem;
use crate::quality::QualityLevel;

/// A per-slot quality-level allocator.
///
/// Allocators may be stateful across slots (e.g. the PAVQ dual price or the
/// Firefly LRU queue), hence `&mut self`.
pub trait Allocator {
    /// Chooses a quality level for every user in the slot problem.
    ///
    /// The returned assignment always has one entry per user and starts from
    /// the mandatory level-1 baseline; levels above 1 respect both rate
    /// constraints whenever the solver honours them (all solvers in this
    /// crate do).
    fn allocate(&mut self, problem: &SlotProblem) -> Vec<QualityLevel>;

    /// Human-readable algorithm name for reports and plots.
    fn name(&self) -> &'static str;

    /// Resets any cross-slot state; default is a no-op for stateless
    /// allocators.
    fn reset(&mut self) {}

    /// Solves a slot staged in a [`SlotEngine`], returning the assignment
    /// borrowed from the engine.
    ///
    /// The default materialises the staged tables into a [`SlotProblem`]
    /// and delegates to [`Allocator::allocate`] — correct for every
    /// allocator, but allocating. The greedy solvers override it with the
    /// engine's zero-allocation fast path; overrides must produce the same
    /// assignment `allocate` would on the equivalent problem.
    ///
    /// # Panics
    ///
    /// The default panics if the staged tables fail [`SlotProblem::new`]
    /// validation.
    fn allocate_staged<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel] {
        let problem = engine
            .to_problem()
            .expect("staged slot problem must be valid");
        let assignment = self.allocate(&problem);
        engine.set_assignment(assignment)
    }
}

impl<A: Allocator + ?Sized> Allocator for Box<A> {
    fn allocate(&mut self, problem: &SlotProblem) -> Vec<QualityLevel> {
        (**self).allocate(problem)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn reset(&mut self) {
        (**self).reset();
    }

    fn allocate_staged<'e>(&mut self, engine: &'e mut SlotEngine) -> &'e [QualityLevel] {
        (**self).allocate_staged(engine)
    }
}
