//! Property-based tests for the motion substrate.

use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{angular_distance, wrap_degrees, Orientation, Pose, Vec3};
use cvr_motion::predict::LinearPredictor;
use cvr_motion::synthetic::{MotionConfig, MotionGenerator};
use proptest::prelude::*;
use std::collections::VecDeque;

/// The predictor before it fitted once per observation: it kept only the
/// history and re-ran the least-squares fit inside every prediction. Kept
/// verbatim as the bit-identity oracle.
struct RefitPerPredict {
    window: usize,
    history: [VecDeque<f64>; 6],
    last_yaw: Option<f64>,
    unwrapped_yaw: f64,
}

impl RefitPerPredict {
    fn new(window: usize) -> Self {
        RefitPerPredict {
            window,
            history: Default::default(),
            last_yaw: None,
            unwrapped_yaw: 0.0,
        }
    }

    fn observe(&mut self, pose: &Pose) {
        let mut c = pose.components();
        let raw_yaw = c[3];
        match self.last_yaw {
            Some(last) => {
                self.unwrapped_yaw += wrap_degrees(raw_yaw - last);
            }
            None => {
                self.unwrapped_yaw = raw_yaw;
            }
        }
        self.last_yaw = Some(raw_yaw);
        c[3] = self.unwrapped_yaw;

        for (axis, &value) in c.iter().enumerate() {
            let h = &mut self.history[axis];
            h.push_back(value);
            if h.len() > self.window {
                h.pop_front();
            }
        }
    }

    fn predict_fractional(&self, horizon: f64) -> Option<Pose> {
        if !horizon.is_finite() {
            return None;
        }
        let n = self.history[0].len();
        if n < 2 {
            return None;
        }
        let mut out = [0.0f64; 6];
        for (axis, h) in self.history.iter().enumerate() {
            out[axis] = extrapolate(h, horizon);
        }
        out[3] = wrap_degrees(out[3]);
        out[4] = out[4].clamp(-90.0, 90.0);
        out[5] = out[5].clamp(-90.0, 90.0);
        Some(Pose::from_components(out))
    }

    fn reset(&mut self) {
        for h in &mut self.history {
            h.clear();
        }
        self.last_yaw = None;
        self.unwrapped_yaw = 0.0;
    }
}

fn extrapolate(values: &VecDeque<f64>, horizon: f64) -> f64 {
    let n = values.len() as f64;
    let mean_x = (n - 1.0) / 2.0;
    let mean_y: f64 = values.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    for (i, &y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        sxy += dx * (y - mean_y);
        sxx += dx * dx;
    }
    let slope = if sxx > 0.0 { sxy / sxx } else { 0.0 };
    let intercept = mean_y - slope * mean_x;
    slope * (n - 1.0 + horizon) + intercept
}

/// One step of a predictor workload: observe a pose, predict at a
/// horizon, or reset.
#[derive(Debug, Clone)]
enum PredictorStep {
    Observe([f64; 6]),
    Predict(f64),
    Reset,
}

fn arb_predictor_step() -> impl Strategy<Value = PredictorStep> {
    const NON_FINITE: [f64; 3] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let component = -400.0f64..400.0;
    let components = (
        component.clone(),
        component.clone(),
        component.clone(),
        component.clone(),
        component.clone(),
        component,
    );
    (
        0u8..17,
        components,
        -2.0f64..12.0,
        0usize..NON_FINITE.len() * 6,
    )
        .prop_map(|(kind, c, horizon, special)| match kind {
            0..=9 => PredictorStep::Observe([c.0, c.1, c.2, c.3, c.4, c.5]),
            // One prediction in six asks for a non-finite horizon.
            10..=15 => PredictorStep::Predict(NON_FINITE.get(special).copied().unwrap_or(horizon)),
            _ => PredictorStep::Reset,
        })
}

proptest! {
    #[test]
    fn wrap_degrees_lands_in_range(angle in -100_000.0f64..100_000.0) {
        let w = wrap_degrees(angle);
        prop_assert!((-180.0..180.0).contains(&w));
        // Wrapping is idempotent.
        prop_assert!((wrap_degrees(w) - w).abs() < 1e-9);
    }

    #[test]
    fn angular_distance_is_a_metric_on_the_circle(a in -720.0f64..720.0, b in -720.0f64..720.0) {
        let d = angular_distance(a, b);
        prop_assert!((0.0..=180.0).contains(&d));
        prop_assert!((angular_distance(b, a) - d).abs() < 1e-9);
        prop_assert!(angular_distance(a, a) < 1e-9);
    }

    #[test]
    fn predictor_is_exact_on_affine_motion(
        slopes in prop::collection::vec(-2.0f64..2.0, 6),
        intercepts in prop::collection::vec(-20.0f64..20.0, 6),
        window in 3usize..12,
        horizon in 1usize..5,
    ) {
        // Keep yaw slope small enough that unwrapping is unambiguous.
        let yaw_slope = slopes[3].clamp(-1.0, 1.0) * 10.0;
        let mut p = LinearPredictor::new(window);
        for t in 0..window {
            let tf = t as f64;
            p.observe(&Pose::from_components([
                slopes[0] * tf + intercepts[0],
                slopes[1] * tf + intercepts[1],
                slopes[2] * tf + intercepts[2],
                wrap_degrees(yaw_slope * tf + intercepts[3]),
                (slopes[4] * tf + intercepts[4]).clamp(-80.0, 80.0),
                0.0,
            ]));
        }
        let predicted = p.predict(horizon).expect("enough history");
        let tf = (window - 1 + horizon) as f64;
        prop_assert!((predicted.position.x - (slopes[0] * tf + intercepts[0])).abs() < 1e-6);
        prop_assert!((predicted.position.z - (slopes[2] * tf + intercepts[2])).abs() < 1e-6);
        let expected_yaw = wrap_degrees(yaw_slope * tf + intercepts[3]);
        prop_assert!(
            angular_distance(predicted.orientation.yaw, expected_yaw) < 1e-6,
            "yaw {} vs expected {}",
            predicted.orientation.yaw,
            expected_yaw
        );
    }

    #[test]
    fn covers_is_reflexive(x in -5.0f64..5.0, z in -5.0f64..5.0, yaw in -180.0f64..180.0, pitch in -85.0f64..85.0) {
        let spec = FovSpec::paper_default();
        let pose = Pose::new(Vec3::new(x, 1.7, z), Orientation::new(yaw, pitch, 0.0));
        prop_assert!(spec.covers(&pose, &pose));
    }

    #[test]
    fn covers_is_monotone_in_margin(
        x in -1.0f64..1.0,
        yaw_a in -180.0f64..180.0,
        yaw_err in -30.0f64..30.0,
        m in 0.0f64..30.0,
        extra in 0.0f64..30.0,
    ) {
        let a = Pose::new(Vec3::new(x, 1.7, 0.0), Orientation::new(yaw_a, 0.0, 0.0));
        let b = Pose::new(Vec3::new(x, 1.7, 0.0), Orientation::new(yaw_a + yaw_err, 0.0, 0.0));
        let tight = FovSpec::paper_default().with_margin(m);
        let wide = FovSpec::paper_default().with_margin(m + extra);
        if tight.covers(&a, &b) {
            prop_assert!(wide.covers(&a, &b));
        }
    }

    #[test]
    fn generator_respects_physics(seed in 0u64..200, slots in 100usize..2000) {
        let cfg = MotionConfig::paper_default();
        let trace = MotionGenerator::new(cfg, seed).take_trace(slots);
        let max_step = cfg.walk_speed_mps * cfg.slot_duration_s + 1e-9;
        for w in trace.windows(2) {
            prop_assert!(w[0].position.distance(&w[1].position) <= max_step);
        }
        for p in &trace {
            prop_assert!(p.position.x.abs() <= cfg.room_extent_m + 1e-9);
            prop_assert!(p.position.z.abs() <= cfg.room_extent_m + 1e-9);
            prop_assert!((-180.0..180.0).contains(&p.orientation.yaw));
            prop_assert!(p.orientation.pitch.abs() <= 60.0 + 1e-9);
        }
    }

    #[test]
    fn fractional_prediction_interpolates(
        slope in -1.0f64..1.0,
        window in 4usize..10,
    ) {
        let mut p = LinearPredictor::new(window);
        for t in 0..window {
            p.observe(&Pose::new(
                Vec3::new(slope * t as f64, 1.7, 0.0),
                Orientation::default(),
            ));
        }
        let half = p.predict_fractional(0.5).expect("history");
        let one = p.predict(1).expect("history");
        let zero = p.predict_fractional(0.0).expect("history");
        // Linearity of the extrapolation: half-horizon is the midpoint.
        let mid = (zero.position.x + one.position.x) / 2.0;
        prop_assert!((half.position.x - mid).abs() < 1e-9);
    }

    // Fitting once per observation predicts bit-for-bit what refitting in
    // every prediction did: windows 2–12, streams long enough to evict,
    // resets mid-stream, and non-finite horizons (still `None`).
    #[test]
    fn fit_once_predictor_matches_refit_per_predict(
        window in 2usize..=12,
        steps in prop::collection::vec(arb_predictor_step(), 1..80),
    ) {
        let mut fit_once = LinearPredictor::new(window);
        let mut oracle = RefitPerPredict::new(window);
        for step in steps {
            match step {
                PredictorStep::Observe(c) => {
                    let pose = Pose::from_components(c);
                    fit_once.observe(&pose);
                    oracle.observe(&pose);
                }
                PredictorStep::Predict(h) => {
                    let got = fit_once.predict_fractional(h).map(|p| p.components().map(f64::to_bits));
                    let want = oracle.predict_fractional(h).map(|p| p.components().map(f64::to_bits));
                    prop_assert_eq!(got, want, "horizon {}", h);
                }
                PredictorStep::Reset => {
                    fit_once.reset();
                    oracle.reset();
                }
            }
        }
    }
}
