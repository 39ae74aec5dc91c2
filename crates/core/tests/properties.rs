//! Property-based tests for the core invariants:
//!
//! * Algorithm 1 always returns a feasible assignment and dominates both
//!   pure greedy passes.
//! * Theorem 1: Algorithm 1 achieves at least half the exact optimum (and
//!   of the fractional bound) on random concave instances.
//! * The Welford tracker matches the two-pass variance and the Eq. (4)
//!   identity on arbitrary streams.
//! * `sanitize_rates` turns any rate row into a positive, strictly
//!   increasing one and leaves an already well-formed row bit-identical.

use cvr_core::alloc::{Allocator, DensityGreedy, DensityValueGreedy, GreedyOutcome, ValueGreedy};
use cvr_core::engine::SlotEngine;
use cvr_core::objective::{SlotProblem, UserSlot};
use cvr_core::offline::{
    dp_slot_optimum, exact_slot_optimum, exhaustive_slot_optimum, fractional_upper_bound,
};
use cvr_core::stage::{
    accumulate_group_values, sanitize_rates, stage_rates, stage_rates_values,
    stage_rates_values_with,
};
use cvr_core::variance::{population_variance, VarianceTracker};
use proptest::prelude::*;

/// Staging-kernel operand strategy: ordinary magnitudes plus the awkward
/// bit patterns (±0.0, denormals) where `a + b` bit-identity could slip.
fn staging_f64() -> impl Strategy<Value = f64> {
    // Selector values >= 5 mean "ordinary magnitude" (the shim has no
    // weighted-union strategy, so a byte picks the case).
    (0u8..10, -1.0e3f64..1.0e3).prop_map(|(kind, x)| match kind {
        0 => 0.0,
        1 => -0.0,
        2 => 4.9e-324,  // smallest positive denormal
        3 => -4.9e-324, // smallest negative denormal
        4 => 1.0e-310,  // mid-range denormal
        _ => x,
    })
}

/// Raw rate-row entry strategy for `sanitize_rates`: NaN, ±inf, ±0.0,
/// denormals, negatives and ordinary magnitudes. Finite values stay below
/// 1e9 Mbps; near `f64::MAX` the repair's `r · 1.000001` step itself
/// overflows.
fn raw_rate() -> impl Strategy<Value = f64> {
    (0u8..12, -1.0e9f64..1.0e9).prop_map(|(kind, x)| match kind {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => 0.0,
        4 => -0.0,
        5 => 4.9e-324,
        6 => -x.abs(),
        7 => 0.05,
        _ => x,
    })
}

/// Strategy: one user with concave values over convex-ish increasing rates.
fn concave_user() -> impl Strategy<Value = UserSlot> {
    (
        2usize..=6,                            // number of levels
        0.5f64..3.0,                           // base rate
        prop::collection::vec(0.2f64..4.0, 5), // rate increments
        0.0f64..2.0,                           // base value
        0.1f64..2.0,                           // first marginal value
        0.3f64..0.95,                          // marginal decay (concavity)
        1.0f64..200.0,                         // link budget
    )
        .prop_map(|(levels, r0, dr, v0, dv0, decay, link)| {
            let mut rates = vec![r0];
            let mut values = vec![v0];
            let mut dv = dv0;
            for i in 1..levels {
                rates.push(rates[i - 1] + dr[i - 1].max(0.2));
                values.push(values[i - 1] + dv);
                dv *= decay;
            }
            UserSlot {
                rates,
                values,
                link_budget: link,
            }
        })
}

fn concave_problem(max_users: usize) -> impl Strategy<Value = SlotProblem> {
    (
        prop::collection::vec(concave_user(), 1..=max_users),
        2.0f64..60.0,
    )
        .prop_map(|(users, budget)| {
            // Ensure the baseline fits so instances are non-degenerate.
            let base: f64 = users.iter().map(|u| u.rates[0]).sum();
            SlotProblem::new(users, budget.max(base + 0.1)).expect("valid problem")
        })
}

/// Like [`concave_problem`], but with at most 5 levels per user and the
/// level-1 value pinned to zero, so the objective *is* the knapsack gain
/// Theorem 1 bounds (no baseline subtraction needed).
fn small_nonneg_problem() -> impl Strategy<Value = SlotProblem> {
    (
        prop::collection::vec(
            (
                2usize..=5,                            // number of levels
                0.5f64..3.0,                           // base rate
                prop::collection::vec(0.2f64..4.0, 4), // rate increments
                0.1f64..2.0,                           // first marginal value
                0.3f64..0.95,                          // marginal decay
                1.0f64..200.0,                         // link budget
            ),
            1..=6,
        ),
        2.0f64..60.0,
    )
        .prop_map(|(raw, budget)| {
            let users: Vec<UserSlot> = raw
                .into_iter()
                .map(|(levels, r0, dr, dv0, decay, link)| {
                    let mut rates = vec![r0];
                    let mut values = vec![0.0];
                    let mut dv = dv0;
                    for i in 1..levels {
                        rates.push(rates[i - 1] + dr[i - 1].max(0.2));
                        values.push(values[i - 1] + dv);
                        dv *= decay;
                    }
                    UserSlot {
                        rates,
                        values,
                        link_budget: link,
                    }
                })
                .collect();
            let base: f64 = users.iter().map(|u| u.rates[0]).sum();
            SlotProblem::new(users, budget.max(base + 0.1)).expect("valid problem")
        })
}

/// Arbitrary (not necessarily concave) instances for feasibility checks.
fn arbitrary_problem() -> impl Strategy<Value = SlotProblem> {
    (
        prop::collection::vec(
            (
                prop::collection::vec(0.2f64..3.0, 1..=6),
                prop::collection::vec(-2.0f64..4.0, 6),
                0.5f64..50.0,
            ),
            1..=8,
        ),
        1.0f64..40.0,
    )
        .prop_map(|(raw, budget)| {
            let users: Vec<UserSlot> = raw
                .into_iter()
                .map(|(drs, vals, link)| {
                    let mut rates = Vec::with_capacity(drs.len());
                    let mut acc = 0.0;
                    for d in &drs {
                        acc += d;
                        rates.push(acc);
                    }
                    let values = vals[..rates.len()].to_vec();
                    UserSlot {
                        rates,
                        values,
                        link_budget: link,
                    }
                })
                .collect();
            let base: f64 = users.iter().map(|u| u.rates[0]).sum();
            SlotProblem::new(users, budget.max(base + 0.1)).expect("valid problem")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn algorithm1_is_feasible(problem in arbitrary_problem()) {
        let a = DensityValueGreedy::new().allocate(&problem);
        prop_assert!(problem.is_feasible(&a));
    }

    #[test]
    fn pure_passes_are_feasible(problem in arbitrary_problem()) {
        let d = DensityGreedy::new().allocate(&problem);
        let v = ValueGreedy::new().allocate(&problem);
        prop_assert!(problem.is_feasible(&d));
        prop_assert!(problem.is_feasible(&v));
    }

    #[test]
    fn algorithm1_dominates_both_passes(problem in arbitrary_problem()) {
        let best = problem.objective(&DensityValueGreedy::new().allocate(&problem));
        let d = problem.objective(&DensityGreedy::new().allocate(&problem));
        let v = problem.objective(&ValueGreedy::new().allocate(&problem));
        prop_assert!(best >= d - 1e-9);
        prop_assert!(best >= v - 1e-9);
    }

    #[test]
    fn theorem1_half_of_exact_optimum(problem in concave_problem(6)) {
        let alg = problem.objective(&DensityValueGreedy::new().allocate(&problem));
        let opt = exact_slot_optimum(&problem).unwrap().value;
        // Values can be negative in general; Theorem 1 is stated for the
        // knapsack's nonnegative gains, so compare against the gain above
        // the baseline.
        let base = problem.objective(&problem.baseline_assignment());
        let alg_gain = alg - base;
        let opt_gain = opt - base;
        prop_assert!(opt_gain >= -1e-9);
        prop_assert!(
            alg_gain >= 0.5 * opt_gain - 1e-9,
            "alg gain {} below half of optimal gain {}",
            alg_gain,
            opt_gain
        );
    }

    #[test]
    fn fractional_bound_dominates_exact(problem in concave_problem(6)) {
        let opt = exact_slot_optimum(&problem).unwrap().value;
        let bound = fractional_upper_bound(&problem);
        prop_assert!(bound >= opt - 1e-9, "bound {} < opt {}", bound, opt);
    }

    #[test]
    fn branch_and_bound_matches_exhaustive(problem in concave_problem(4)) {
        let bb = exact_slot_optimum(&problem).unwrap();
        let ex = exhaustive_slot_optimum(&problem).unwrap();
        prop_assert!((bb.value - ex.value).abs() < 1e-9);
        prop_assert!(problem.is_feasible(&bb.assignment));
    }

    #[test]
    fn dp_feasible_and_converging(problem in concave_problem(5)) {
        let bb = exact_slot_optimum(&problem).unwrap();
        let coarse = dp_slot_optimum(&problem, 0.5).unwrap();
        prop_assert!(problem.is_feasible(&coarse.assignment));
        prop_assert!(coarse.value <= bb.value + 1e-9);

        let resolution = 0.005;
        let fine = dp_slot_optimum(&problem, resolution).unwrap();
        prop_assert!(problem.is_feasible(&fine.assignment));
        prop_assert!(fine.value <= bb.value + 1e-9);
        // The exact guarantee: rounding rates up by at most one grid cell
        // per user means the DP dominates every solution that fits with
        // `n · resolution` of budget slack.
        let slack = resolution * problem.num_users() as f64;
        let reduced_budget = problem.server_budget() - slack;
        let base: f64 = problem.users().iter().map(|u| u.rates[0]).sum();
        if reduced_budget > base {
            let reduced =
                SlotProblem::new(problem.users().to_vec(), reduced_budget).expect("valid");
            let bb_reduced = exact_slot_optimum(&reduced).unwrap();
            prop_assert!(
                fine.value >= bb_reduced.value - 1e-9,
                "fine dp {} below slack-reduced optimum {}",
                fine.value,
                bb_reduced.value
            );
        }
    }

    #[test]
    fn theorem1_best_value_half_of_oracle(problem in small_nonneg_problem()) {
        // Theorem 1 stated directly on GreedyOutcome::best_value(): with
        // level-1 values pinned at zero the objective equals the knapsack
        // gain, so no baseline correction is needed. Cross-checked against
        // both the branch-and-bound and the DP oracle.
        let outcome = GreedyOutcome::solve(&problem);
        let bb = exact_slot_optimum(&problem).unwrap();
        prop_assert!(
            outcome.best_value() >= 0.5 * bb.value - 1e-9,
            "best {} below half of exact optimum {}",
            outcome.best_value(),
            bb.value
        );
        let dp = dp_slot_optimum(&problem, 0.01).unwrap();
        prop_assert!(dp.value <= bb.value + 1e-9);
        prop_assert!(
            outcome.best_value() >= 0.5 * dp.value - 1e-9,
            "best {} below half of DP oracle {}",
            outcome.best_value(),
            dp.value
        );
    }

    #[test]
    fn engine_matches_allocator_bit_for_bit(
        first in arbitrary_problem(),
        second in arbitrary_problem(),
    ) {
        // The buffer-reusing engine must return *identical* assignments to
        // the allocating path — including after being reused for a slot of
        // a different shape, which is how the simulators drive it.
        let mut engine = SlotEngine::new();
        for problem in [&first, &second] {
            engine.stage_problem(problem);
            let staged = engine.solve().to_vec();
            prop_assert_eq!(staged, DensityValueGreedy::new().allocate(problem));
        }
    }

    #[test]
    fn staged_entry_points_match_allocate(problem in arbitrary_problem()) {
        // allocate_staged (fast path for greedy allocators, materialising
        // fallback otherwise) must agree with allocate for every solver.
        let mut engine = SlotEngine::new();

        let mut dv = DensityValueGreedy::new();
        engine.stage_problem(&problem);
        let staged = dv.allocate_staged(&mut engine).to_vec();
        prop_assert_eq!(staged, dv.allocate(&problem));

        let mut d = DensityGreedy::new();
        engine.stage_problem(&problem);
        let staged = d.allocate_staged(&mut engine).to_vec();
        prop_assert_eq!(staged, d.allocate(&problem));

        let mut v = ValueGreedy::new();
        engine.stage_problem(&problem);
        let staged = v.allocate_staged(&mut engine).to_vec();
        prop_assert_eq!(staged, v.allocate(&problem));
    }

    #[test]
    fn greedy_outcome_best_is_max_of_passes(problem in arbitrary_problem()) {
        let o = GreedyOutcome::solve(&problem);
        prop_assert!((o.best_value() - o.density_value.max(o.value_value)).abs() < 1e-12);
        prop_assert_eq!(o.best().len(), problem.num_users());
    }

    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(0.0f64..8.0, 1..200)) {
        let mut tracker = VarianceTracker::new();
        for &x in &xs {
            tracker.push(x);
        }
        let direct = population_variance(&xs);
        prop_assert!((tracker.variance() - direct).abs() < 1e-9);
    }

    #[test]
    fn eq4_identity(xs in prop::collection::vec(0.0f64..8.0, 1..200)) {
        let mut tracker = VarianceTracker::new();
        let sum: f64 = xs.iter().map(|&x| tracker.push(x)).sum();
        let t_sigma2 = xs.len() as f64 * population_variance(&xs);
        prop_assert!((sum - t_sigma2).abs() < 1e-8);
    }

    #[test]
    fn expected_penalty_interpolates_hit_miss(
        xs in prop::collection::vec(0.0f64..8.0, 1..50),
        q in 1.0f64..6.0,
        delta in 0.0f64..1.0,
    ) {
        let mut tracker = VarianceTracker::new();
        for &x in &xs {
            tracker.push(x);
        }
        let hit = tracker.peek_penalty(q);
        let miss = tracker.peek_penalty(0.0);
        let expected = tracker.expected_penalty(q, delta);
        let lo = hit.min(miss) - 1e-12;
        let hi = hit.max(miss) + 1e-12;
        prop_assert!(expected >= lo && expected <= hi);
    }

    // The fused staging kernels must be *bitwise* equal to their scalar
    // reference loops at every length — including tails that are not a
    // multiple of the 4-wide lane — and for denormal and ±0.0 operands.
    #[test]
    fn stage_rates_matches_scalar_reference_bitwise(
        sums in prop::collection::vec(staging_f64(), 0..23),
        overhead in staging_f64(),
    ) {
        let mut rates = vec![f64::NAN; sums.len()];
        stage_rates(&sums, overhead, &mut rates);
        for (l, (&s, &r)) in sums.iter().zip(&rates).enumerate() {
            prop_assert_eq!((s + overhead).to_bits(), r.to_bits(), "level {} drifted", l);
        }
    }

    #[test]
    fn stage_rates_values_copies_weights_and_adds_overhead_bitwise(
        rows in prop::collection::vec((staging_f64(), staging_f64()), 0..23),
        overhead in staging_f64(),
    ) {
        let sums: Vec<f64> = rows.iter().map(|r| r.0).collect();
        let weights: Vec<f64> = rows.iter().map(|r| r.1).collect();
        let mut rates = vec![f64::NAN; sums.len()];
        let mut values = vec![f64::NAN; sums.len()];
        stage_rates_values(&sums, overhead, &weights, &mut rates, &mut values);
        for l in 0..sums.len() {
            prop_assert_eq!((sums[l] + overhead).to_bits(), rates[l].to_bits());
            prop_assert_eq!(weights[l].to_bits(), values[l].to_bits());
        }
    }

    #[test]
    fn stage_rates_values_with_hands_raw_rate_to_the_closure(
        sums in prop::collection::vec(staging_f64(), 0..23),
        overhead in staging_f64(),
        scale in staging_f64(),
    ) {
        let mut rates = vec![f64::NAN; sums.len()];
        let mut values = vec![f64::NAN; sums.len()];
        stage_rates_values_with(&sums, overhead, &mut rates, &mut values, |l, raw| {
            scale * (l + 1) as f64 + raw
        });
        for l in 0..sums.len() {
            let raw = sums[l] + overhead;
            prop_assert_eq!(raw.to_bits(), rates[l].to_bits());
            prop_assert_eq!((scale * (l + 1) as f64 + raw).to_bits(), values[l].to_bits());
        }
    }

    #[test]
    fn accumulate_group_values_matches_clamped_scalar_fold(
        member in prop::collection::vec(staging_f64(), 1..23),
        seed in prop::collection::vec(staging_f64(), 1..23),
        cap_raw in 0usize..23,
    ) {
        let levels = member.len().min(seed.len());
        let member = &member[..levels];
        let seed = &seed[..levels];
        let cap = cap_raw % levels;
        let mut fused = seed.to_vec();
        accumulate_group_values(member, cap, &mut fused);
        for l in 0..levels {
            let expect = seed[l] + member[l.min(cap)];
            prop_assert_eq!(expect.to_bits(), fused[l].to_bits(), "level {} drifted", l);
        }
    }

    #[test]
    fn sanitize_rates_output_is_positive_and_strictly_increasing(
        raw in prop::collection::vec(raw_rate(), 0..23),
    ) {
        let mut rates = raw.clone();
        sanitize_rates(&mut rates);
        prop_assert_eq!(rates.len(), raw.len());
        for (l, &r) in rates.iter().enumerate() {
            prop_assert!(r.is_finite() && r > 0.0, "level {} not positive: {:?}", l, rates);
        }
        for w in rates.windows(2) {
            prop_assert!(w[1] > w[0], "not strictly increasing: {:?}", rates);
        }
    }

    #[test]
    fn sanitize_rates_leaves_well_formed_rows_bit_identical(
        first in 0.05f64..1.0e3,
        steps in prop::collection::vec((0u8..4, 0.0f64..100.0), 0..22),
    ) {
        // Each level sits exactly on, or above, the repair floor of the
        // level below: r[i+1] >= r[i] * 1.000001 + 1e-6.
        let mut row = vec![first];
        for &(kind, gap) in &steps {
            let floor = row[row.len() - 1] * 1.000_001 + 1e-6;
            row.push(if kind == 0 { floor } else { floor + gap });
        }
        let mut sanitized = row.clone();
        sanitize_rates(&mut sanitized);
        for l in 0..row.len() {
            prop_assert_eq!(row[l].to_bits(), sanitized[l].to_bits(), "level {} changed", l);
        }
    }
}
