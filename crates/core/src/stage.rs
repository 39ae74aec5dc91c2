//! Fused staging kernels for the per-slot problem build.
//!
//! Every staging path in the system — the full-system simulator, the
//! classroom multicast simulator, the trace simulator, the live server,
//! and the group-staging helper — ends in the same inner loop: turn a
//! user's per-level undelivered sums into the staged rate row
//! (`rate[l] = sums[l] + overhead`) and fill the per-level objective
//! values next to it. This module is that loop, written once:
//!
//! * [`stage_rates`] / [`stage_rates_values`] walk the contiguous slices
//!   in `chunks_exact(4)` f64 lanes so LLVM autovectorises them on stable
//!   Rust (no `std::simd`), with a scalar tail for lengths that are not a
//!   multiple of four.
//! * [`stage_rates_values_with`] is the variant for objectives whose
//!   value terms depend on the staged rate itself (delay models, loss
//!   scaling): one fused pass that computes the rate and hands it to an
//!   inlined per-level closure.
//! * [`sanitize_rates`] repairs a ledger-suppressed rate row into the
//!   positive, strictly increasing shape the allocator requires.
//! * [`accumulate_group_values`] is the group-staging member fold of
//!   `cvr-mcast`, split into a contiguous vectorisable prefix and a
//!   clamped constant tail.
//!
//! **Bit-identity contract.** Each kernel performs exactly the same
//! per-element f64 operations, in the same per-level order, as the naive
//! loop it replaces — element-wise `sums[l] + overhead` involves no
//! reassociation, so chunking cannot change a single bit. Debug builds
//! cross-check every output lane against the naive loop; the staging
//! benchmark additionally fingerprint-compares the assignments of the
//! staged tables across paths.

/// Control/pose-stream overhead always present on a user's downlink, Mbps.
///
/// Every staged rate row charges this on top of the undelivered tile
/// sums — the pose upload stream and the delivery manifests share the
/// link with the tiles. One shared constant, imported by the simulators,
/// the live server, and the benchmarks, so the paths can never drift.
pub const CONTROL_OVERHEAD_MBPS: f64 = 0.2;

/// Fills `out_rates[l] = sums[l] + overhead` in one contiguous pass.
///
/// Chunked into 4-wide f64 lanes for autovectorisation; bit-identical to
/// the scalar loop (element-wise addition is not reassociated).
///
/// # Panics
///
/// Panics if `sums` and `out_rates` differ in length.
#[inline]
pub fn stage_rates(sums: &[f64], overhead: f64, out_rates: &mut [f64]) {
    assert_eq!(
        sums.len(),
        out_rates.len(),
        "sums and rate rows must have the same level count"
    );
    let mut out_lanes = out_rates.chunks_exact_mut(4);
    let mut sum_lanes = sums.chunks_exact(4);
    for (out, s) in (&mut out_lanes).zip(&mut sum_lanes) {
        out[0] = s[0] + overhead;
        out[1] = s[1] + overhead;
        out[2] = s[2] + overhead;
        out[3] = s[3] + overhead;
    }
    let tail = sum_lanes.remainder();
    for (out, &s) in out_lanes.into_remainder().iter_mut().zip(tail) {
        *out = s + overhead;
    }
    #[cfg(debug_assertions)]
    for (l, (&s, &r)) in sums.iter().zip(out_rates.iter()).enumerate() {
        debug_assert_eq!(
            r.to_bits(),
            (s + overhead).to_bits(),
            "stage_rates diverged from the naive loop at level index {l}"
        );
    }
}

/// Fused rate + value staging for rate-independent value rows:
/// `out_rates[l] = sums[l] + overhead` and `out_values[l] = weights[l]`
/// in one chunked pass.
///
/// `weights` is the precomputed per-level value row (e.g. the classroom
/// simulator's `δ_n · (l + 1)` ladder, hoisted out of the slot loop);
/// copying it is bit-identical to recomputing it per slot. Objectives
/// whose values depend on the staged rate use
/// [`stage_rates_values_with`] instead.
///
/// # Panics
///
/// Panics if any slice length differs.
#[inline]
pub fn stage_rates_values(
    sums: &[f64],
    overhead: f64,
    weights: &[f64],
    out_rates: &mut [f64],
    out_values: &mut [f64],
) {
    let levels = sums.len();
    assert!(
        weights.len() == levels && out_rates.len() == levels && out_values.len() == levels,
        "staged rows must all have the same level count"
    );
    let mut rate_lanes = out_rates.chunks_exact_mut(4);
    let mut value_lanes = out_values.chunks_exact_mut(4);
    let mut sum_lanes = sums.chunks_exact(4);
    let mut weight_lanes = weights.chunks_exact(4);
    for (((r, v), s), w) in (&mut rate_lanes)
        .zip(&mut value_lanes)
        .zip(&mut sum_lanes)
        .zip(&mut weight_lanes)
    {
        r[0] = s[0] + overhead;
        r[1] = s[1] + overhead;
        r[2] = s[2] + overhead;
        r[3] = s[3] + overhead;
        v[0] = w[0];
        v[1] = w[1];
        v[2] = w[2];
        v[3] = w[3];
    }
    let sum_tail = sum_lanes.remainder();
    let weight_tail = weight_lanes.remainder();
    for (i, (r, v)) in rate_lanes
        .into_remainder()
        .iter_mut()
        .zip(value_lanes.into_remainder().iter_mut())
        .enumerate()
    {
        *r = sum_tail[i] + overhead;
        *v = weight_tail[i];
    }
    #[cfg(debug_assertions)]
    for l in 0..levels {
        debug_assert_eq!(
            out_rates[l].to_bits(),
            (sums[l] + overhead).to_bits(),
            "stage_rates_values rate diverged from the naive loop at level index {l}"
        );
        debug_assert_eq!(
            out_values[l].to_bits(),
            weights[l].to_bits(),
            "stage_rates_values value diverged from the weight row at level index {l}"
        );
    }
}

/// Fused rate + value staging for rate-*dependent* objectives: one pass
/// computing `raw = sums[l] + overhead`, storing it, and filling
/// `out_values[l] = value_of(l, raw)` with the inlined closure.
///
/// The closure receives the 0-based level index and the staged rate; its
/// body is the call site's unchanged per-level value formula, so the
/// staged tables stay bit-identical to the hand-rolled loop (the kernel
/// only owns the iteration, never the arithmetic).
///
/// # Panics
///
/// Panics if any slice length differs.
#[inline]
pub fn stage_rates_values_with<F>(
    sums: &[f64],
    overhead: f64,
    out_rates: &mut [f64],
    out_values: &mut [f64],
    mut value_of: F,
) where
    F: FnMut(usize, f64) -> f64,
{
    let levels = sums.len();
    assert!(
        out_rates.len() == levels && out_values.len() == levels,
        "staged rows must all have the same level count"
    );
    for l in 0..levels {
        let raw = sums[l] + overhead;
        out_rates[l] = raw;
        out_values[l] = value_of(l, raw);
    }
    #[cfg(debug_assertions)]
    for (l, (&s, &r)) in sums.iter().zip(out_rates.iter()).enumerate() {
        debug_assert_eq!(
            r.to_bits(),
            (s + overhead).to_bits(),
            "stage_rates_values_with rate diverged from the naive loop at level index {l}"
        );
    }
}

/// Forces a raw per-level rate vector to be positive and strictly
/// increasing (retransmission suppression can make levels momentarily
/// equal-cost; the allocator's invariants require strict monotonicity).
/// Every loop that stages ledger-suppressed rates into a
/// [`crate::engine::SlotEngine`] — the simulators, the live server
/// runtime — enforces the same invariant the same way.
pub fn sanitize_rates(rates: &mut [f64]) {
    let mut floor = 0.05;
    for r in rates.iter_mut() {
        if !r.is_finite() || *r < floor {
            *r = floor;
        }
        floor = *r * 1.000_001 + 1e-6;
    }
}

/// Folds one group member's clamped value row into the staged group row:
/// `out_values[l] += member_values[min(l, cap)]`.
///
/// Levels `0..=cap` add the member's own per-level value — a contiguous
/// chunked pass LLVM can vectorise — and levels above the cap add the
/// constant `member_values[cap]` (the member's link saturated). Both
/// halves perform the identical element-wise `+=` of the naive
/// `min`-indexed loop, so the group row is bit-identical.
///
/// # Panics
///
/// Panics if the rows differ in length or `cap` is out of range.
#[inline]
pub fn accumulate_group_values(member_values: &[f64], cap: usize, out_values: &mut [f64]) {
    let levels = out_values.len();
    assert_eq!(
        member_values.len(),
        levels,
        "value row length mismatch between member and group"
    );
    assert!(cap < levels, "cap must be a valid level index");
    let split = cap + 1;
    let (head, tail) = out_values.split_at_mut(split);
    let mut out_lanes = head.chunks_exact_mut(4);
    let mut val_lanes = member_values[..split].chunks_exact(4);
    for (out, v) in (&mut out_lanes).zip(&mut val_lanes) {
        out[0] += v[0];
        out[1] += v[1];
        out[2] += v[2];
        out[3] += v[3];
    }
    let val_tail = val_lanes.remainder();
    for (out, &v) in out_lanes.into_remainder().iter_mut().zip(val_tail) {
        *out += v;
    }
    let capped = member_values[cap];
    for out in tail {
        *out += capped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rates(sums: &[f64], overhead: f64) -> Vec<f64> {
        sums.iter().map(|&s| s + overhead).collect()
    }

    #[test]
    fn stage_rates_matches_naive_for_all_tail_lengths() {
        for n in 0..13 {
            let sums: Vec<f64> = (0..n).map(|i| 0.37 * i as f64 + 0.01).collect();
            let mut out = vec![f64::NAN; n];
            stage_rates(&sums, CONTROL_OVERHEAD_MBPS, &mut out);
            let reference = naive_rates(&sums, CONTROL_OVERHEAD_MBPS);
            for l in 0..n {
                assert_eq!(out[l].to_bits(), reference[l].to_bits(), "n={n} l={l}");
            }
        }
    }

    #[test]
    fn stage_rates_values_copies_weights_bitwise() {
        let sums = [0.0, -0.0, 1.5e-308, 3.25, 7.0, 11.25, 0.2];
        let weights = [1.0, -0.0, 2.5, f64::MIN_POSITIVE / 2.0, 4.0, 5.5, 9.0];
        let mut rates = vec![0.0; sums.len()];
        let mut values = vec![0.0; sums.len()];
        stage_rates_values(&sums, 0.2, &weights, &mut rates, &mut values);
        for l in 0..sums.len() {
            assert_eq!(rates[l].to_bits(), (sums[l] + 0.2).to_bits());
            assert_eq!(values[l].to_bits(), weights[l].to_bits());
        }
    }

    #[test]
    fn stage_rates_values_with_runs_the_closure_per_level() {
        let sums = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut rates = vec![0.0; 5];
        let mut values = vec![0.0; 5];
        stage_rates_values_with(&sums, 0.5, &mut rates, &mut values, |l, raw| {
            (l + 1) as f64 * 10.0 - raw
        });
        for l in 0..5 {
            let raw = sums[l] + 0.5;
            assert_eq!(rates[l].to_bits(), raw.to_bits());
            assert_eq!(values[l].to_bits(), ((l + 1) as f64 * 10.0 - raw).to_bits());
        }
    }

    #[test]
    fn sanitize_rates_makes_strictly_increasing_positive() {
        let mut r = vec![0.0, 0.0, 5.0, 5.0, 4.0, f64::NAN];
        sanitize_rates(&mut r);
        assert!(r[0] > 0.0);
        for w in r.windows(2) {
            assert!(w[1] > w[0], "{r:?} not strictly increasing");
        }
    }

    #[test]
    fn accumulate_group_values_matches_min_indexed_loop() {
        for levels in 1..10usize {
            for cap in 0..levels {
                let member: Vec<f64> = (0..levels).map(|l| 1.5 * l as f64 + 0.25).collect();
                let mut fused: Vec<f64> = (0..levels).map(|l| 0.1 * l as f64).collect();
                let mut naive = fused.clone();
                accumulate_group_values(&member, cap, &mut fused);
                for (l, out) in naive.iter_mut().enumerate() {
                    *out += member[l.min(cap)];
                }
                for l in 0..levels {
                    assert_eq!(
                        fused[l].to_bits(),
                        naive[l].to_bits(),
                        "levels={levels} cap={cap} l={l}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "same level count")]
    fn mismatched_lengths_panic() {
        let mut out = [0.0; 3];
        stage_rates(&[1.0, 2.0], 0.2, &mut out);
    }

    #[test]
    #[should_panic(expected = "valid level index")]
    fn out_of_range_cap_panics() {
        let mut out = [0.0; 3];
        accumulate_group_values(&[1.0, 2.0, 3.0], 3, &mut out);
    }
}
