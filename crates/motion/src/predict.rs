//! 6-DoF motion prediction by per-axis linear regression.
//!
//! The paper follows Firefly's methodology: each of the six pose components
//! is predicted independently with least-squares linear regression over a
//! short history window, extrapolated one (or more) slots ahead — the slot
//! the content will actually be displayed in, given the paper's
//! transmit-then-decode pipeline. Yaw is unwrapped before fitting so the
//! regression never sees the ±180° discontinuity.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::pose::{wrap_degrees, Pose};

/// Per-axis sliding-window linear-regression predictor.
///
/// # Examples
///
/// ```
/// use cvr_motion::pose::{Orientation, Pose, Vec3};
/// use cvr_motion::predict::LinearPredictor;
///
/// let mut p = LinearPredictor::new(8);
/// for t in 0..8 {
///     let pose = Pose::new(Vec3::new(t as f64 * 0.1, 1.7, 0.0), Orientation::default());
///     p.observe(&pose);
/// }
/// // Linear motion extrapolates exactly.
/// let predicted = p.predict(1).unwrap();
/// assert!((predicted.position.x - 0.8).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinearPredictor {
    window: usize,
    /// History of unwrapped components, one deque per axis.
    history: [VecDeque<f64>; 6],
    /// Per-axis `(slope, intercept)` of the least-squares line over
    /// `history` at abscissae `0..n`, refitted by every
    /// [`LinearPredictor::observe`] (meaningful from two observations on).
    fit: [(f64, f64); 6],
    /// Last raw yaw, for unwrapping.
    last_yaw: Option<f64>,
    /// Running unwrapped yaw.
    unwrapped_yaw: f64,
}

impl LinearPredictor {
    /// Creates a predictor with a history window of `window` slots
    /// (at least 2).
    ///
    /// # Panics
    ///
    /// Panics if `window < 2` — a line needs two points.
    pub fn new(window: usize) -> Self {
        assert!(window >= 2, "regression window must be at least 2");
        LinearPredictor {
            window,
            history: std::array::from_fn(|_| VecDeque::with_capacity(window)),
            fit: [(0.0, 0.0); 6],
            last_yaw: None,
            unwrapped_yaw: 0.0,
        }
    }

    /// The paper's window: 8 slots (120 ms at 66 FPS).
    pub fn paper_default() -> Self {
        LinearPredictor::new(8)
    }

    /// Number of poses observed so far (capped at the window length).
    pub fn observed(&self) -> usize {
        self.history[0].len()
    }

    /// Feeds the pose measured in the current slot and refits every axis,
    /// so predictions only evaluate the stored lines.
    pub fn observe(&mut self, pose: &Pose) {
        let mut c = pose.components();
        // Unwrap yaw: accumulate the wrapped delta.
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
            if h.len() == self.window {
                h.pop_front();
            }
            h.push_back(value);
            if h.len() >= 2 {
                self.fit[axis] = fit_line(h);
            }
        }
    }

    /// Predicts the pose `horizon` **observation intervals** ahead of the
    /// last observation.
    ///
    /// The horizon unit is observation intervals, *not* slots: when poses
    /// are observed every `p` slots, `predict(k)` targets the slot `k * p`
    /// slots after the last observation. Equivalently, a target `k * p`
    /// slots ahead is `predict_fractional((k * p) as f64 / p as f64)` —
    /// the two agree bit-for-bit because the regression is fitted in
    /// observation-index space and only the evaluation abscissa scales
    /// (see `slot_boundary_semantics_agree_for_non_unit_periods`).
    ///
    /// Returns `None` until at least two observations have been made.
    pub fn predict(&self, horizon: usize) -> Option<Pose> {
        self.predict_fractional(horizon as f64)
    }

    /// Like [`LinearPredictor::predict`] but with a fractional horizon —
    /// needed when observations arrive every `p` slots and the target is
    /// `k` slots ahead (`horizon = k / p` observation intervals).
    ///
    /// Returns `None` until at least two observations have been made, and
    /// `None` for non-finite horizons: a NaN or infinite horizon would
    /// otherwise propagate NaN components into every downstream FoV
    /// computation, which silently poisons tile selection.
    pub fn predict_fractional(&self, horizon: f64) -> Option<Pose> {
        if !horizon.is_finite() {
            return None;
        }
        let n = self.history[0].len();
        if n < 2 {
            return None;
        }
        // The fit lives in observation-index space: the last observation
        // sits at `n - 1`, the target `horizon` intervals past it.
        let x = n as f64 - 1.0 + horizon;
        let mut out = [0.0f64; 6];
        for (axis, &(slope, intercept)) in self.fit.iter().enumerate() {
            out[axis] = slope * x + intercept;
        }
        // Re-wrap yaw into canonical range; clamp pitch/roll to physical
        // head limits (long extrapolations must not leave the sphere).
        out[3] = wrap_degrees(out[3]);
        out[4] = out[4].clamp(-90.0, 90.0);
        out[5] = out[5].clamp(-90.0, 90.0);
        Some(Pose::from_components(out))
    }

    /// Clears all history.
    pub fn reset(&mut self) {
        for h in &mut self.history {
            h.clear();
        }
        self.fit = [(0.0, 0.0); 6];
        self.last_yaw = None;
        self.unwrapped_yaw = 0.0;
    }
}

/// Least-squares line fit over `values` at abscissae `0..n`, as
/// `(slope, intercept)`.
fn fit_line(values: &VecDeque<f64>) -> (f64, f64) {
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
    (slope, intercept)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pose::{Orientation, Vec3};

    fn linear_pose(t: f64) -> Pose {
        Pose::new(
            Vec3::new(0.1 * t, 1.7, -0.05 * t),
            Orientation::new(2.0 * t, 0.5 * t, 0.0),
        )
    }

    #[test]
    fn needs_two_observations() {
        let mut p = LinearPredictor::new(4);
        assert!(p.predict(1).is_none());
        p.observe(&linear_pose(0.0));
        assert!(p.predict(1).is_none());
        p.observe(&linear_pose(1.0));
        assert!(p.predict(1).is_some());
    }

    #[test]
    fn exact_on_linear_motion() {
        let mut p = LinearPredictor::new(8);
        for t in 0..8 {
            p.observe(&linear_pose(t as f64));
        }
        let predicted = p.predict(2).unwrap();
        let truth = linear_pose(9.0);
        assert!((predicted.position.x - truth.position.x).abs() < 1e-9);
        assert!((predicted.position.z - truth.position.z).abs() < 1e-9);
        assert!((predicted.orientation.yaw - truth.orientation.yaw).abs() < 1e-9);
        assert!((predicted.orientation.pitch - truth.orientation.pitch).abs() < 1e-9);
    }

    #[test]
    fn exact_on_static_pose() {
        let mut p = LinearPredictor::new(4);
        let pose = linear_pose(3.0);
        for _ in 0..4 {
            p.observe(&pose);
        }
        let predicted = p.predict(5).unwrap();
        assert!((predicted.position.x - pose.position.x).abs() < 1e-9);
        assert!((predicted.orientation.yaw - pose.orientation.yaw).abs() < 1e-9);
    }

    #[test]
    fn yaw_unwrapping_crosses_the_discontinuity() {
        // Yaw rotating +5°/slot through the ±180° wrap.
        let mut p = LinearPredictor::new(6);
        let yaws = [165.0, 170.0, 175.0, -180.0, -175.0, -170.0];
        for &y in &yaws {
            p.observe(&Pose::new(Vec3::default(), Orientation::new(y, 0.0, 0.0)));
        }
        let predicted = p.predict(1).unwrap();
        assert!(
            (predicted.orientation.yaw - (-165.0)).abs() < 1e-6,
            "got {}",
            predicted.orientation.yaw
        );
    }

    #[test]
    fn window_slides() {
        let mut p = LinearPredictor::new(3);
        // Early garbage followed by a clean linear segment.
        p.observe(&linear_pose(100.0));
        for t in 0..3 {
            p.observe(&linear_pose(t as f64));
        }
        assert_eq!(p.observed(), 3);
        let predicted = p.predict(1).unwrap();
        let truth = linear_pose(3.0);
        assert!((predicted.position.x - truth.position.x).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_history() {
        let mut p = LinearPredictor::new(4);
        p.observe(&linear_pose(0.0));
        p.observe(&linear_pose(1.0));
        p.reset();
        assert_eq!(p.observed(), 0);
        assert!(p.predict(1).is_none());
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn rejects_tiny_window() {
        let _ = LinearPredictor::new(1);
    }

    #[test]
    fn paper_default_window_is_8() {
        let p = LinearPredictor::paper_default();
        assert_eq!(p.window, 8);
    }

    #[test]
    fn slot_boundary_semantics_agree_for_non_unit_periods() {
        // Poses observed every `p` slots with the paper-default window:
        // `predict(k)` (k observation intervals ahead) must agree bitwise
        // with `predict_fractional((k * p) / p)` — the slot-denominated
        // spelling used by callers that convert a slot horizon back into
        // observation intervals. Non-linear motion so the fit is not
        // trivially exact.
        for p in [2usize, 3, 5] {
            let mut predictor = LinearPredictor::paper_default();
            for i in 0..8 {
                let t = (i * p) as f64;
                predictor.observe(&Pose::new(
                    Vec3::new(0.07 * t + 0.001 * t * t, 1.7, -0.03 * t),
                    Orientation::new(1.5 * t, 0.25 * t, 0.0),
                ));
            }
            for k in 1usize..=8 {
                let by_intervals = predictor.predict(k).unwrap();
                let by_slots = predictor
                    .predict_fractional((k * p) as f64 / p as f64)
                    .unwrap();
                assert_eq!(
                    by_intervals.components().map(f64::to_bits),
                    by_slots.components().map(f64::to_bits),
                    "p={p} k={k}: interval- and slot-denominated horizons diverge"
                );
            }
        }
    }

    #[test]
    fn non_finite_horizons_are_rejected() {
        let mut p = LinearPredictor::new(4);
        for t in 0..4 {
            p.observe(&linear_pose(t as f64));
        }
        assert!(p.predict_fractional(f64::NAN).is_none());
        assert!(p.predict_fractional(f64::INFINITY).is_none());
        assert!(p.predict_fractional(f64::NEG_INFINITY).is_none());
        // Finite horizons still work after a rejection.
        assert!(p.predict_fractional(1.5).is_some());
    }
}
