//! Co-located classroom simulator behind `mcast_bench`: N users in one
//! cell staring at a handful of shared gaze targets, allocated either
//! per-user (unicast — today's path) or per-group (multicast — one staged
//! row and one constraint-(6) charge per [`cvr_mcast`] group).
//!
//! The simulator is deliberately narrower than [`crate::system`]: no
//! packet loss, routers, or estimation noise — the question it answers is
//! purely *how much delivered quality does shared-FoV dedup buy at a
//! fixed server budget*, with every other variable pinned. Both modes run
//! the identical per-user problem build, the identical quality-increment
//! greedy, and the identical delivery accounting; the only difference is
//! whether users sharing a [`GroupKey`] are staged once or N times. With
//! grouping disabled every "group" is a singleton staged byte-identically
//! to the unicast row, which is the unicast-parity guarantee
//! `mcast_bench` fingerprints.

use cvr_content::cache::{DeliveryLedger, UndeliveredSums};
use cvr_content::grid::GridWorld;
use cvr_content::id::VideoId;
use cvr_content::plane::{RatePlane, SharedFovCache};
use cvr_content::sizing::TileSizeModel;
use cvr_content::tile::TileId;
use cvr_core::alloc::{Allocator as _, DensityValueGreedy};
use cvr_core::engine::SlotEngine;
use cvr_core::quality::QualityLevel;
use cvr_core::stage::{sanitize_rates, stage_rates_values, CONTROL_OVERHEAD_MBPS};
use cvr_mcast::group::{content_fingerprint, GroupKey, GroupTracker};
use cvr_mcast::stage::{stage_group, GroupMember};
use cvr_motion::fov::FovSpec;
use cvr_motion::pose::{Orientation, Pose, Vec3};

/// Slot length of the classroom loop, seconds (the paper's 15 ms).
const SLOT_S: f64 = 0.015;

/// Configuration of one classroom run.
#[derive(Debug, Clone)]
pub struct McastConfig {
    /// Co-located users.
    pub users: usize,
    /// Slots to simulate.
    pub slots: u64,
    /// Fixed server budget `B(t)` in Mbps, shared by all users.
    pub server_total_mbps: f64,
    /// Per-user link budget `B_n` in Mbps (uniform — one classroom Wi-Fi).
    pub per_user_mbps: f64,
    /// Distinct shared gaze targets users cluster around.
    pub clusters: usize,
    /// Base seed folded into the deterministic gaze trajectories.
    pub seed: u64,
    /// Group co-oriented users and stage each group once (`false` =
    /// today's unicast path).
    pub multicast: bool,
    /// Slots a group id survives after its key was last seen.
    pub hysteresis_slots: u64,
}

impl McastConfig {
    /// The classroom scenario `mcast_bench` sweeps: `users` phones in one
    /// cell, four shared gaze targets, a fixed 400 Mbps server budget.
    pub fn classroom(users: usize, multicast: bool) -> Self {
        McastConfig {
            users,
            slots: 200,
            server_total_mbps: 400.0,
            per_user_mbps: 50.0,
            clusters: 4,
            seed: 2022,
            multicast,
            hysteresis_slots: 8,
        }
    }
}

/// Aggregates of one classroom run.
#[derive(Debug, Clone)]
pub struct McastRunResult {
    /// Mean delivered quality level per user-slot (1-based level value).
    pub delivered_quality: f64,
    /// Megabits the server actually put on the wire (each staged row
    /// charged once — the multicast saving shows up here).
    pub wire_mbit: f64,
    /// Peak number of ≥2-member groups in any slot (0 in unicast mode).
    pub peak_multicast_groups: usize,
    /// Mean members per staged row (1.0 in unicast mode).
    pub mean_group_size: f64,
    /// FNV-1a fingerprint over every per-slot staging, assignment, and
    /// delivery decision.
    pub fingerprint: u64,
}

/// FNV-1a offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv64(hash: u64, word: u64) -> u64 {
    let mut h = hash;
    for &b in &word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The deterministic gaze of user `u` at `slot`: clustered yaw/pitch
/// around one of `clusters` shared targets (bucket interiors, so
/// co-oriented users provably share orientation buckets) with smooth
/// jitter, plus an occasional glance away that crosses buckets — the
/// churn that exercises group-id hysteresis.
fn gaze(config: &McastConfig, u: usize, slot: u64) -> Pose {
    let cluster = u % config.clusters.max(1);
    let phase = (config.seed.wrapping_mul(0x9E37_79B9) as f64 / u64::MAX as f64) * 3.0;
    let t = slot as f64;
    // Cluster centers sit mid-bucket (3.75° past a 7.5° multiple) so the
    // ±2° jitter never leaves the bucket or its guard band.
    let mut yaw = cluster as f64 * 30.0 + 3.75 + 2.0 * (0.11 * t + phase).sin();
    let pitch = 3.75 + 2.0 * (0.07 * t + phase + u as f64 * 0.01).cos();
    // Every ~3 s one user glances at a neighbour's target for two slots.
    if (slot + 29 * u as u64) % 200 < 2 {
        yaw += 30.0;
    }
    Pose::new(
        Vec3::new(0.51, 1.7, 0.52),
        Orientation::new(yaw, pitch, 0.0),
    )
}

/// Runs the classroom loop and returns its aggregates.
///
/// # Panics
///
/// Panics if `users` or `slots` is zero.
pub fn run(config: &McastConfig) -> McastRunResult {
    assert!(config.users > 0, "classroom needs users");
    assert!(config.slots > 0, "classroom needs slots");
    let users = config.users;
    let grid = GridWorld::paper_default();
    let sizing = TileSizeModel::paper_default();
    let levels = sizing.levels();
    let spec = FovSpec::paper_default();

    let mut plane = RatePlane::new(sizing, 64);
    let mut shared_fov = SharedFovCache::new(spec);
    let mut ledgers: Vec<DeliveryLedger> = (0..users).map(|_| DeliveryLedger::new()).collect();
    let mut undelivered: Vec<UndeliveredSums> =
        (0..users).map(|_| UndeliveredSums::new(levels)).collect();
    // Per-user QoE slope δ_n: varied so group values are genuine sums of
    // heterogeneous member gains, not N× one row.
    let deltas: Vec<f64> = (0..users)
        .map(|u| 0.8 + 0.4 * u as f64 / users as f64)
        .collect();
    // Per-user value ladders δ_n · (l + 1), hoisted out of the slot loop:
    // the classroom objective is rate-independent, so the staged value row
    // is a bitwise copy of this precomputed table every slot.
    let mut value_weights = vec![0.0f64; users * levels];
    for u in 0..users {
        for l in 0..levels {
            value_weights[u * levels + l] = deltas[u] * (l + 1) as f64;
        }
    }

    let mut tracker = GroupTracker::new(config.hysteresis_slots);
    let mut engine = SlotEngine::new();
    let mut allocator = DensityValueGreedy;

    // Flat per-user scratch rows: a group's row is staged from its
    // members' rows, so every user's row is built before any is staged.
    let mut rates_table = vec![0.0f64; users * levels];
    let mut values_table = vec![0.0f64; users * levels];
    let mut tiles_of: Vec<Vec<TileId>> = vec![Vec::new(); users];
    let mut key_of: Vec<Option<GroupKey>> = vec![None; users];
    let mut caps: Vec<usize> = Vec::new();

    let mut fingerprint = FNV_OFFSET;
    let mut quality_sum = 0.0f64;
    let mut wire_mbit = 0.0f64;
    let mut peak_groups = 0usize;
    let mut staged_rows = 0u64;
    let mut staged_members = 0u64;

    for slot in 0..config.slots {
        // 1. Poses, FoV tile sets, undelivered retargets and the per-user
        //    problem build into the scratch rows.
        for u in 0..users {
            let pose = gaze(config, u, slot);
            let cell = grid.cell_of(&pose.position);
            let tiles = shared_fov.tiles_for(&pose);
            tiles_of[u].clear();
            tiles_of[u].extend_from_slice(tiles);
            if !undelivered[u].targets(cell, &tiles_of[u]) {
                undelivered[u].retarget(cell, &tiles_of[u], plane.rows(cell), &ledgers[u]);
            }
            key_of[u] = shared_fov.key_for(&pose).map(|orientation| GroupKey {
                cell,
                orientation,
                content: content_fingerprint(&undelivered[u]),
            });
            let row = u * levels..(u + 1) * levels;
            let rates = &mut rates_table[row.clone()];
            stage_rates_values(
                undelivered[u].sums(),
                CONTROL_OVERHEAD_MBPS,
                &value_weights[row.clone()],
                rates,
                &mut values_table[row],
            );
            sanitize_rates(rates);
        }

        // 2. Group discovery (multicast) — unicast stages everyone alone.
        let mut group_start_of: Vec<Option<usize>> = vec![None; users];
        let mut members_of: Vec<Vec<usize>> = Vec::new();
        let mut id_of: Vec<u64> = Vec::new();
        if config.multicast {
            tracker.begin_slot(slot);
            for (u, key) in key_of.iter().enumerate() {
                if let Some(key) = key {
                    tracker.observe(u, *key);
                }
            }
            for group in tracker.finish_slot() {
                let first = group.members[0];
                group_start_of[first] = Some(members_of.len());
                members_of.push(group.members.clone());
                id_of.push(group.id);
            }
        }
        peak_groups = peak_groups.max(members_of.iter().filter(|m| m.len() >= 2).count());

        // 3. Stage: walk users in plan order; a grouped user stages its
        //    whole group at the first member's position, ungrouped users
        //    stage alone. With no groups this is exactly the unicast
        //    staging order.
        engine.begin_slot(config.server_total_mbps);
        caps.clear();
        // (staged index) -> member list start in `caps` plus users.
        let mut staged: Vec<Vec<usize>> = Vec::new();
        for u in 0..users {
            let row = |i: usize| &rates_table[i * levels..(i + 1) * levels];
            let vrow = |i: usize| &values_table[i * levels..(i + 1) * levels];
            if config.multicast && key_of[u].is_some() {
                let Some(gi) = group_start_of[u] else {
                    continue; // grouped, but not the first member
                };
                let members = &members_of[gi];
                let member_slices: Vec<GroupMember<'_>> = members
                    .iter()
                    .map(|&m| GroupMember {
                        values: vrow(m),
                        link_budget: config.per_user_mbps,
                    })
                    .collect();
                stage_group(&mut engine, row(members[0]), &member_slices, &mut caps);
                fingerprint = fnv64(fingerprint, id_of[gi]);
                fingerprint = fnv64(fingerprint, members.len() as u64);
                staged.push(members.clone());
            } else {
                stage_group(
                    &mut engine,
                    row(u),
                    &[GroupMember {
                        values: vrow(u),
                        link_budget: config.per_user_mbps,
                    }],
                    &mut caps,
                );
                staged.push(vec![u]);
            }
        }
        staged_rows += staged.len() as u64;
        staged_members += users as u64;

        // 4. Solve and account: each staged row is charged once; each
        //    member receives min(assigned, cap) and acknowledges those
        //    tiles.
        let assignment = allocator.allocate_staged(&mut engine).to_vec();
        let mut cap_cursor = 0usize;
        for (e, members) in staged.iter().enumerate() {
            let assigned = assignment[e].index();
            let rate = engine.rates(e)[assigned];
            wire_mbit += rate * SLOT_S;
            fingerprint = fnv64(fingerprint, assigned as u64);
            fingerprint = fnv64(fingerprint, rate.to_bits());
            for &m in members {
                let cap = caps[cap_cursor];
                cap_cursor += 1;
                let q = assigned.min(cap);
                quality_sum += (q + 1) as f64;
                fingerprint = fnv64(fingerprint, ((m as u64) << 8) | q as u64);
                let cell = undelivered[m].cell().expect("targeted");
                let level = QualityLevel::new((q + 1) as u8);
                for &tile in &tiles_of[m] {
                    let id = VideoId::new(cell, tile, level);
                    if !ledgers[m].is_delivered(&id) {
                        undelivered[m].acknowledge(&mut ledgers[m], id);
                    }
                }
            }
        }
        debug_assert_eq!(cap_cursor, caps.len());
    }

    McastRunResult {
        delivered_quality: quality_sum / (config.users as f64 * config.slots as f64),
        wire_mbit,
        peak_multicast_groups: peak_groups,
        mean_group_size: staged_members as f64 / staged_rows.max(1) as f64,
        fingerprint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multicast_beats_unicast_in_a_crowded_classroom() {
        let mut unicast = McastConfig::classroom(32, false);
        unicast.slots = 60;
        let mut multicast = unicast.clone();
        multicast.multicast = true;
        let uni = run(&unicast);
        let multi = run(&multicast);
        assert!(multi.peak_multicast_groups >= 1, "groups must form");
        assert!(
            multi.delivered_quality >= 1.2 * uni.delivered_quality,
            "multicast {} vs unicast {}",
            multi.delivered_quality,
            uni.delivered_quality
        );
        assert!(multi.wire_mbit < uni.wire_mbit, "dedup must cut wire bytes");
    }

    #[test]
    fn unicast_mode_never_groups() {
        let mut config = McastConfig::classroom(8, false);
        config.slots = 20;
        let result = run(&config);
        assert_eq!(result.peak_multicast_groups, 0);
        assert_eq!(result.mean_group_size, 1.0);
    }
}
