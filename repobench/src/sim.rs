//! The `walk-sim` workload: `SystemConfig::setup2` (15 walking users,
//! two routers, 800 Mbps) under Algorithm 1, timed around
//! `system::run_instrumented` — one public call that runs a whole
//! simulated session, its own set-up included. It is the miss-heavy use
//! of the content caches, with no protocol or transport layer.
//!
//! A round is a fixed list of sessions with distinct seeds derived from
//! the workload seed. The slot loop inside a call cannot be timed from
//! outside, so a slot-time sample is one call's mean slot time.
//!
//! The simulator's own per-session set-up (content library, per-user
//! state, links) also happens inside the call. A round's set-up therefore
//! runs a one-slot session of its first configuration beside building the
//! configurations, so that work moved into the simulator's set-up shows
//! in the set-up time rather than hiding in the slot time.

use std::time::Instant;

use cvr_sim::allocators::AllocatorKind;
use cvr_sim::system::{self, ObjectiveMode, SystemConfig};

use crate::fingerprint::Fnv;
use crate::round::{derive_seed, Round};
use crate::trace::Recorder;

/// Sessions per round. One session's QoE varies a lot with its motion
/// trace (its spread across traces is ~16% at 10 s, and several-fold at
/// 2 s), so a round averages 24 of them.
pub const CALLS_PER_ROUND: usize = 24;
/// Simulated seconds per session (600 slots of 1/60 s).
pub const DURATION_S: f64 = 10.0;
/// Users per session (experimental setup 2).
pub const USERS: usize = 15;

/// A round's inputs.
pub struct Setup {
    /// The configurations the round runs.
    pub configs: Vec<SystemConfig>,
    /// User summaries the one-slot set-up session returned.
    probe_users: usize,
}

/// The configurations one round runs.
pub fn configs(seed: u64, calls: usize) -> Vec<SystemConfig> {
    (0..calls)
        .map(|k| SystemConfig {
            duration_s: DURATION_S,
            ..SystemConfig::setup2(derive_seed(seed, k))
        })
        .collect()
}

/// Builds a round's configurations and runs a one-slot session of the
/// first: the simulator's per-session set-up plus a single slot.
pub fn setup(seed: u64, calls: usize) -> Setup {
    let configs = configs(seed, calls);
    let probe = SystemConfig {
        duration_s: configs[0].slot_duration_s,
        ..configs[0].clone()
    };
    let mut allocator = AllocatorKind::DensityValueGreedy.build();
    let (result, _) =
        system::run_instrumented(&probe, &mut allocator, "ours", ObjectiveMode::DelayAware);
    Setup {
        configs,
        probe_users: result.users.len(),
    }
}

/// Runs one round. With a recorder, also records one span per call and
/// fills the round's per-layer values: the engine's stage totals per
/// simulated slot, and the rest of the call's time as the remainder.
pub fn run(setup: &Setup, mut trace: Option<&mut Recorder>) -> Round {
    let configs = &setup.configs;
    let mut round = Round::default();
    if setup.probe_users != configs[0].num_users {
        round.errors.push(format!(
            "set-up session: {} user summaries for {} users",
            setup.probe_users, configs[0].num_users
        ));
    }
    let mut h = Fnv::default();
    let mut slots = 0u64;
    let mut call_ns = 0u128;
    // Build, density, value, accounting totals, microseconds.
    let mut stages_us = [0.0f64; 4];
    let mut cache_hit_rate = 0.0;
    for (k, config) in configs.iter().enumerate() {
        let mut allocator = AllocatorKind::DensityValueGreedy.build();
        let start = Instant::now();
        let (result, timing) =
            system::run_instrumented(config, &mut allocator, "ours", ObjectiveMode::DelayAware);
        let end = Instant::now();
        if let Some(rec) = trace.as_deref_mut() {
            rec.push("sim.run_instrumented", k as u64, None, start, end);
        }
        let call_slots = timing.slots as u64;
        round
            .slot_ms
            .push((end - start).as_secs_f64() * 1e3 / call_slots as f64);
        slots += call_slots;
        call_ns += (end - start).as_nanos();
        for (total, stage) in stages_us.iter_mut().zip([
            &timing.build,
            &timing.density,
            &timing.value,
            &timing.accounting,
        ]) {
            *total += stage.total_ms * 1e3;
        }
        cache_hit_rate += result.cache_hit_rate;
        round.user_slots += call_slots * config.num_users as u64;
        round.qoe += result.summary.avg_qoe;
        round.viewed_quality += result.summary.avg_quality;
        if result.users.len() != config.num_users {
            round.errors.push(format!(
                "call {k}: {} user summaries for {} users",
                result.users.len(),
                config.num_users
            ));
        }
        for u in &result.users {
            h.word(u.slots)
                .float(u.avg_viewed_quality)
                .float(u.avg_chosen_quality)
                .float(u.avg_delay)
                .float(u.variance)
                .float(u.hit_rate)
                .float(u.total_qoe);
        }
    }
    let calls = configs.len() as f64;
    round.server_s = call_ns as f64 / 1e9;
    round.qoe /= calls;
    round.viewed_quality /= calls;
    round.fingerprint = h.finish();
    if !round.qoe.is_finite() {
        round.errors.push(format!("non-finite QoE {}", round.qoe));
    }
    if trace.is_some() {
        let slot = call_ns as f64 / 1e3 / slots as f64;
        let [build, density, value, accounting] = stages_us.map(|t| t / slots as f64);
        let stage_sum = build + density + value + accounting;
        round.layers = vec![
            ("sim.slot_us", slot),
            ("sim.build_us", build),
            ("sim.density_us", density),
            ("sim.value_us", value),
            ("sim.accounting_us", accounting),
            ("sim.stage_sum_us", stage_sum),
            ("sim.unattributed_us", slot - stage_sum),
            ("sim.build_us_per_user", build / USERS as f64),
            ("sim.cache_hit_rate", cache_hit_rate / calls),
        ];
    }
    round
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_repeat_and_follow_the_seed() {
        let a = run(&setup(4, 2), None);
        let b = run(&setup(4, 2), None);
        let c = run(&setup(5, 2), None);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.qoe.to_bits(), b.qoe.to_bits());
        assert_ne!(a.fingerprint, c.fingerprint);
        assert_eq!(a.slot_ms.len(), 2);
        assert_eq!(a.user_slots, 2 * 600 * USERS as u64);
    }

    #[test]
    fn traced_round_stages_plus_remainder_equal_the_slot() {
        let mut rec = Recorder::default();
        let r = run(&setup(1, 1), Some(&mut rec));
        let get = |n: &str| r.layers.iter().find(|(k, _)| *k == n).unwrap().1;
        let sum = get("sim.stage_sum_us") + get("sim.unattributed_us");
        assert!((sum - get("sim.slot_us")).abs() < 1e-6);
        assert!(get("sim.cache_hit_rate") > 0.0);
        assert_eq!(rec.spans().len(), 1);
    }
}
