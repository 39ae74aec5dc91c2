//! Property-based tests for the network substrate.

use cvr_net::estimate::{EmaEstimator, PolyRegression};
use cvr_net::impair::{BufferbloatQueue, ImpairmentConfig, Pathology};
use cvr_net::multilink::{BondedLink, FailoverPolicy, LinkId};
use cvr_net::queueing::TokenBucket;
use cvr_net::router::fair_share;
use cvr_net::trace::{TraceGeneratorConfig, TraceProfile};
use proptest::prelude::*;
use std::collections::VecDeque;

fn pathology() -> impl Strategy<Value = Pathology> {
    (0usize..Pathology::ALL.len()).prop_map(|i| Pathology::ALL[i])
}

/// The regressor as it was when every `predict` refit the whole window:
/// the bit-identity oracle for the fit-once-per-observation
/// [`PolyRegression`].
struct RefitPerCall {
    degree: usize,
    window: usize,
    samples: VecDeque<(f64, f64)>,
}

impl RefitPerCall {
    fn new(degree: usize, window: usize) -> Self {
        RefitPerCall {
            degree,
            window,
            samples: VecDeque::new(),
        }
    }

    fn observe(&mut self, x: f64, y: f64) {
        self.samples.push_back((x, y));
        if self.samples.len() > self.window {
            self.samples.pop_front();
        }
    }

    fn reset(&mut self) {
        self.samples.clear();
    }

    fn fit(&self) -> Option<Vec<f64>> {
        let m = self.degree + 1;
        if self.samples.len() < m {
            return None;
        }
        let mut xtx = vec![vec![0.0f64; m]; m];
        let mut xty = vec![0.0f64; m];
        for &(x, y) in &self.samples {
            let mut powers = vec![1.0f64; 2 * m - 1];
            for i in 1..2 * m - 1 {
                powers[i] = powers[i - 1] * x;
            }
            for i in 0..m {
                for j in 0..m {
                    xtx[i][j] += powers[i + j];
                }
                xty[i] += powers[i] * y;
            }
        }
        refit_solve(&mut xtx, &mut xty)
    }

    fn predict(&self, x: f64) -> Option<f64> {
        let coeffs = self.fit()?;
        let mut acc = 0.0;
        let mut p = 1.0;
        for c in coeffs {
            acc += c * p;
            p *= x;
        }
        Some(acc)
    }
}

#[allow(clippy::needless_range_loop)]
fn refit_solve(a: &mut [Vec<f64>], b: &mut [f64]) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in col + 1..n {
            let factor = a[row][col] / a[col][col];
            for k in col..n {
                a[row][k] -= factor * a[col][k];
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Asserts `fitted` and `oracle` agree bit for bit: coefficients and
/// predictions at `probes`.
fn assert_same_fit(
    fitted: &PolyRegression,
    oracle: &RefitPerCall,
    probes: &[f64],
) -> Result<(), String> {
    prop_assert_eq!(
        fitted.coefficients().map(bits),
        oracle.fit().as_deref().map(bits)
    );
    for &x in probes {
        prop_assert_eq!(
            fitted.predict(x).map(f64::to_bits),
            oracle.predict(x).map(f64::to_bits)
        );
    }
    Ok(())
}

proptest! {
    #[test]
    fn traces_respect_envelope(
        seed in 0u64..5000,
        min in 5.0f64..40.0,
        span in 10.0f64..80.0,
        duration in 10.0f64..200.0,
        lte in proptest::bool::ANY,
    ) {
        let cfg = TraceGeneratorConfig {
            profile: if lte { TraceProfile::LteLike } else { TraceProfile::FccLike },
            min_mbps: min,
            max_mbps: min + span,
            duration_s: duration,
        };
        let t = cfg.generate(seed);
        prop_assert!((t.duration() - duration).abs() < 1e-6);
        prop_assert!(t.min() >= min - 1e-9);
        prop_assert!(t.max() <= min + span + 1e-9);
        // Lookup at arbitrary times stays within the envelope, including
        // past the end (cyclic).
        for i in 0..20 {
            let v = t.at(duration * i as f64 / 7.3);
            prop_assert!(v >= min - 1e-9 && v <= min + span + 1e-9);
        }
    }

    #[test]
    fn ema_stays_within_observed_range(
        weight in 0.01f64..1.0,
        xs in prop::collection::vec(1.0f64..100.0, 1..100),
    ) {
        let mut e = EmaEstimator::new(weight);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for &x in &xs {
            let v = e.update(x);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }

    #[test]
    fn token_bucket_enforces_long_run_rate(
        rate in 1.0f64..50.0,
        burst in 0.5f64..10.0,
        chunk in 0.05f64..2.0,
    ) {
        let mut tb = TokenBucket::new(rate, burst);
        let mut sent = 0.0;
        let horizon = 20.0;
        let mut t = 0.0;
        while t < horizon {
            if tb.try_send(chunk, t) {
                sent += chunk;
            }
            t += 0.01;
        }
        // Long-run throughput bounded by rate plus the initial burst.
        prop_assert!(sent <= rate * horizon + burst + chunk + 1e-6);
    }

    #[test]
    fn poly_regression_recovers_lines(
        slope in -5.0f64..5.0,
        intercept in -10.0f64..10.0,
        n in 4usize..40,
    ) {
        let mut p = PolyRegression::new(1, 64);
        for i in 0..n {
            let x = i as f64 * 0.7;
            p.observe(x, slope * x + intercept);
        }
        let c = p.coefficients().expect("enough samples");
        prop_assert!((c[0] - intercept).abs() < 1e-6);
        prop_assert!((c[1] - slope).abs() < 1e-6);
    }

    #[test]
    fn poly_fit_once_is_bit_identical_to_refit_per_call(
        degree in 1usize..4,
        slack in 0usize..24,
        // (x, y, op): op 0 resets the window, anything else observes.
        // Small-integer rates make repeated and near-singular windows.
        stream in prop::collection::vec((0u8..24, -50.0f64..200.0, 0u8..40), 0..120),
        continuous in proptest::bool::ANY,
        probes in prop::collection::vec(-20.0f64..250.0, 1..6),
    ) {
        let window = degree + 1 + slack;
        let mut fitted = PolyRegression::new(degree, window);
        let mut oracle = RefitPerCall::new(degree, window);
        assert_same_fit(&fitted, &oracle, &probes)?;
        for (i, &(step, y, op)) in stream.iter().enumerate() {
            if op == 0 {
                fitted.reset();
                oracle.reset();
            } else {
                let x = if continuous {
                    f64::from(step) * 7.3 + (i as f64 * 0.37).sin()
                } else {
                    f64::from(step % 4)
                };
                fitted.observe(x, y);
                oracle.observe(x, y);
            }
            prop_assert_eq!(fitted.len(), oracle.samples.len());
            assert_same_fit(&fitted, &oracle, &probes)?;
        }
    }

    #[test]
    fn poly_without_a_fit_predicts_none(
        degree in 1usize..4,
        x in 0u8..8,
        y in -10.0f64..10.0,
        count in 1usize..30,
    ) {
        // Fewer than degree + 1 samples, then a window of one repeated x
        // (singular normal equations; a small integer keeps the
        // elimination exact, so the pivot is exactly zero): neither
        // regressor fits.
        let x = f64::from(x);
        let mut fitted = PolyRegression::new(degree, degree + 4);
        let mut oracle = RefitPerCall::new(degree, degree + 4);
        for i in 0..count {
            fitted.observe(x, y + i as f64);
            oracle.observe(x, y + i as f64);
            prop_assert!(fitted.coefficients().is_none());
            prop_assert!(oracle.fit().is_none());
            prop_assert!(fitted.predict(x).is_none());
            prop_assert!(oracle.predict(x).is_none());
        }
    }

    #[test]
    fn fair_share_is_feasible_and_demand_bounded(
        capacity in 0.0f64..100.0,
        demands in prop::collection::vec(0.0f64..50.0, 0..12),
    ) {
        let shares = fair_share(capacity, &demands);
        prop_assert_eq!(shares.len(), demands.len());
        let total: f64 = shares.iter().sum();
        prop_assert!(total <= capacity + 1e-6);
        for (s, d) in shares.iter().zip(&demands) {
            prop_assert!(*s >= -1e-12);
            prop_assert!(*s <= d + 1e-9);
        }
        // Pareto efficiency: leftover capacity only if all demands met.
        if total + 1e-6 < capacity {
            for (s, d) in shares.iter().zip(&demands) {
                prop_assert!((s - d).abs() < 1e-6);
            }
        }
    }

    // Every impairment pathology is a pure function of (config, seed):
    // regenerating must reproduce the segment list bit for bit, per user.
    #[test]
    fn impairment_generation_is_seed_deterministic(
        seed in 0u64..=u64::MAX,
        p in pathology(),
        users in 1usize..6,
    ) {
        let cfg = ImpairmentConfig {
            duration_s: 60.0,
            ..ImpairmentConfig::paper_default(p)
        };
        let a = cfg.generate_group(users, seed);
        let b = cfg.generate_group(users, seed);
        prop_assert_eq!(a.len(), users);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.segments(), y.segments());
        }
    }

    // Whatever the pathology, traces stay inside [0, max_mbps] and hit
    // the requested duration exactly.
    #[test]
    fn impairment_traces_respect_envelope_and_duration(
        seed in 0u64..5000,
        p in pathology(),
        duration in 30.0f64..120.0,
    ) {
        let cfg = ImpairmentConfig {
            duration_s: duration,
            ..ImpairmentConfig::paper_default(p)
        };
        let t = cfg.generate(seed);
        prop_assert!((t.duration() - duration).abs() < 1e-6);
        prop_assert!(t.min() >= 0.0);
        prop_assert!(t.max() <= cfg.max_mbps * 1.05 + 1e-9);
    }

    // Markov fading spends most of its time in the good state, so the
    // long-run mean must sit well above the deep-fade floor and inside
    // the envelope; dwell times must match the per-state bounds.
    #[test]
    fn markov_fading_mean_and_dwells_are_sane(seed in 0u64..2000) {
        let cfg = ImpairmentConfig {
            duration_s: 120.0,
            ..ImpairmentConfig::paper_default(Pathology::MarkovFading)
        };
        let t = cfg.generate(seed);
        prop_assert!(t.mean() > cfg.min_mbps * 0.25, "mean {} too low", t.mean());
        prop_assert!(t.mean() <= cfg.max_mbps);
        // No dwell shorter than the deepest state's lower bound; the
        // final segment may be clipped by the duration cut.
        let segments = t.segments();
        for &(dwell, _) in &segments[..segments.len() - 1] {
            prop_assert!(dwell >= 0.15 - 1e-9, "dwell {dwell} below bound");
        }
    }

    // Handover gaps are *exact* zeros — not small floats — and every
    // non-gap segment respects the envelope floor.
    #[test]
    fn handover_gaps_are_exact_zeros(seed in 0u64..2000) {
        let cfg = ImpairmentConfig {
            duration_s: 90.0,
            ..ImpairmentConfig::paper_default(Pathology::Handover)
        };
        let t = cfg.generate(seed);
        let mut gaps = 0usize;
        let segments = t.segments();
        for (i, &(dwell, mbps)) in segments.iter().enumerate() {
            if mbps == 0.0 {
                gaps += 1;
                if i + 1 < segments.len() {
                    prop_assert!((0.25 - 1e-9..=1.5 + 1e-9).contains(&dwell));
                }
            } else {
                prop_assert!(mbps >= cfg.min_mbps - 1e-9);
            }
        }
        prop_assert!(gaps >= 2, "90 s must contain at least two handovers");
    }

    // The fluid bufferbloat model: under constant overload the queue
    // only grows, so reported latency is monotone in queue depth (until
    // the RLC buffer cap), and it never goes negative or NaN.
    #[test]
    fn bufferbloat_latency_is_monotone_in_queue_depth(
        capacity in 1.0f64..50.0,
        overload in 1.1f64..4.0,
        dt in 0.005f64..0.1,
    ) {
        let mut q = BufferbloatQueue::rlc_default();
        let offered = capacity * overload;
        let mut last = 0.0f64;
        for _ in 0..2000 {
            let delay = q.step(offered, capacity, dt);
            prop_assert!(delay.is_finite() && delay >= 0.0);
            prop_assert!(delay >= last - 1e-9, "delay shrank under overload");
            last = delay;
        }
        // And the queue drains back to exactly zero delay when idle.
        for _ in 0..100_000 {
            q.step(0.0, capacity, 0.1);
        }
        prop_assert_eq!(q.delay_s(capacity), 0.0);
    }

    // Whatever garbage the traces contain (including hard zeros), a
    // bonded link never reports a negative, NaN, or infinite bandwidth,
    // and the active rate always equals the chosen link's rate.
    #[test]
    fn bonded_failover_never_reports_negative_or_nan(
        wifi in prop::collection::vec((0.1f64..5.0, 0.0f64..100.0), 1..8),
        lte in prop::collection::vec((0.1f64..5.0, 0.0f64..100.0), 1..8),
        failover in 1.0f64..10.0,
        recover_extra in 0.5f64..20.0,
        hold in 1u32..6,
    ) {
        use cvr_net::trace::ThroughputTrace;
        let policy = FailoverPolicy {
            failover_mbps: failover,
            recover_mbps: failover + recover_extra,
            recover_hold: hold,
        };
        let mut link = BondedLink::new(
            ThroughputTrace::from_segments(wifi),
            ThroughputTrace::from_segments(lte),
            policy,
        );
        for i in 0..200 {
            let s = link.sample(i as f64 * 0.05);
            for v in [s.wifi_mbps, s.lte_mbps, s.active_mbps] {
                prop_assert!(v.is_finite() && v >= 0.0, "bad bandwidth {v}");
            }
            let expected = match s.active {
                LinkId::Wifi => s.wifi_mbps,
                LinkId::Lte => s.lte_mbps,
            };
            prop_assert_eq!(s.active_mbps, expected);
        }
    }

    #[test]
    fn fair_share_is_max_min_fair(
        capacity in 1.0f64..100.0,
        demands in prop::collection::vec(0.1f64..50.0, 2..10),
    ) {
        // Max–min property: if user i got strictly less than its demand,
        // nobody else got more than (i's share + epsilon) unless their
        // demand was below it.
        let shares = fair_share(capacity, &demands);
        for i in 0..demands.len() {
            if shares[i] + 1e-9 < demands[i] {
                for j in 0..demands.len() {
                    prop_assert!(
                        shares[j] <= shares[i] + 1e-6 || (shares[j] - demands[j]).abs() < 1e-6,
                        "user {j} got {} while unsatisfied user {i} got {}",
                        shares[j],
                        shares[i]
                    );
                }
            }
        }
    }
}
