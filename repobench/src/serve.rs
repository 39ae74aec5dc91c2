//! The serve workloads: a 32-session × 8-client fleet of replay clients
//! on one `ShardHost` shard, stepped in lockstep over loopback.
//!
//! Closed loop: every client uploads one pose per slot, then the host
//! runs one slot (ingest → plan → transmit) for all 256 users, and the
//! next slot starts only after that. Lockstep rather than 15 ms realtime
//! pacing, because realtime pacing would measure the OS scheduler's
//! wakeups instead of the program's slot work.

use std::time::Instant;

use cvr_serve::client::{ClientConfig, ClientReport, ReplayClient};
use cvr_serve::harness::sharded_loopback_fleet;
use cvr_serve::server::{ServeConfig, ServeReport};
use cvr_serve::shard::{HostConfig, SessionId, ShardHost};
use cvr_serve::transport::LoopbackClientEnd;

use crate::alloc;
use crate::fingerprint::Fnv;
use crate::round::{derive_seed, Round};
use crate::trace::Recorder;

/// Sessions (classrooms) on the host.
pub const SESSIONS: usize = 32;
/// Replay clients per session.
pub const CLIENTS_PER_SESSION: usize = 8;
/// Users in the fleet.
pub const USERS: usize = SESSIONS * CLIENTS_PER_SESSION;
/// Slots per timed round (15 s of session time): long enough for a
/// steady per-round QoE, and one round is one block of the 1000 samples a
/// p99 with ten beyond it needs.
pub const ROUND_SLOTS: u64 = 1000;
/// Slots of the fixed-seed reference round checked against the recorded
/// fingerprint.
pub const REFERENCE_SLOTS: u64 = 150;

/// The server configuration a fleet runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fleet {
    /// Shared-FoV multicast grouping.
    pub multicast: bool,
    /// Lookahead horizon H (1 = the paper's myopic allocator).
    pub horizon: usize,
}

/// `fleet`: unicast, H = 1 — the paper's allocator in the live server.
pub const FLEET: Fleet = Fleet {
    multicast: false,
    horizon: 1,
};

/// `fleet-h4`: multicast on and horizon 4, the serve-smoke configuration.
pub const FLEET_H4: Fleet = Fleet {
    multicast: true,
    horizon: 4,
};

/// A built fleet: the host and its clients, tagged with their session.
pub type Built = (ShardHost, Vec<(SessionId, ReplayClient<LoopbackClientEnd>)>);

/// Builds the fleet: one shard, 32 sessions, 256 loopback clients routed
/// through the host's control plane. Client link means step from 40 to
/// 68 Mbps within each session.
pub fn build(fleet: Fleet, seed: u64) -> Built {
    let configs: Vec<ClientConfig> = (0..USERS)
        .map(|u| ClientConfig {
            seed: derive_seed(seed, u),
            bandwidth_mbps: 40.0 + 4.0 * (u % CLIENTS_PER_SESSION) as f64,
            ..ClientConfig::default()
        })
        .collect();
    sharded_loopback_fleet(
        HostConfig {
            shards: 1,
            session: ServeConfig {
                multicast: fleet.multicast,
                horizon: fleet.horizon,
                ..ServeConfig::default()
            },
        },
        SESSIONS,
        &configs,
    )
}

/// Failed user-slots of a round: slots a client got no decoded
/// assignment for, plus every protocol error on either side, plus every
/// frame the server dropped under backpressure.
pub fn failures(
    slots: u64,
    clients: &[ClientReport],
    sessions: &[(SessionId, ServeReport)],
) -> u64 {
    let client: u64 = clients
        .iter()
        .map(|c| slots.saturating_sub(c.assignments) + c.protocol_errors)
        .sum();
    let server: u64 = sessions
        .iter()
        .map(|(_, s)| s.counters.protocol_errors + s.counters.frames_dropped)
        .sum();
    client + server
}

/// Fingerprint of the client-side and server-side per-user summaries.
/// Round-trip times are wall-clock and left out.
pub fn fingerprint(clients: &[ClientReport], sessions: &[(SessionId, ServeReport)]) -> u64 {
    let mut h = Fnv::default();
    for c in clients {
        h.word(u64::from(c.user_id)).word(c.seed);
        let s = &c.summary;
        h.word(s.slots)
            .float(s.avg_viewed_quality)
            .float(s.avg_chosen_quality)
            .float(s.avg_delay)
            .float(s.variance)
            .float(s.hit_rate)
            .float(s.total_qoe);
        h.word(c.displayed_quality.count)
            .word(c.displayed_quality.sum)
            .word(c.assignments)
            .word(c.protocol_errors)
            .word(u64::from(c.welcomed));
    }
    for (id, report) in sessions {
        h.word(u64::from(*id));
        for u in &report.users {
            h.word(u64::from(u.user_id)).word(u.seed);
            let q = &u.qoe;
            h.word(q.slots)
                .float(q.avg_viewed_quality)
                .float(q.avg_chosen_quality)
                .float(q.avg_delay)
                .float(q.variance)
                .float(q.hit_rate)
                .float(q.total_qoe)
                .float(u.delta)
                .float(u.bandwidth_mbps)
                .word(u.frames_dropped)
                .word(u.degrade_transitions);
        }
    }
    h.finish()
}

/// Runs a built fleet for `slots` lockstep slots. With a recorder, also
/// records one span per client-fleet step and per host step, counts
/// allocations on each side, and fills the round's per-layer values.
pub fn run(built: Built, slots: u64, trace: Option<&mut Recorder>) -> Round {
    let (mut host, mut clients) = built;
    let round_start = Instant::now();
    let mut slot_ms = Vec::with_capacity(slots as usize);
    let mut server_ns = 0u128;
    let mut client_ns = 0u128;
    let (mut client_allocs, mut server_allocs) = (0u64, 0u64);
    let mut steps = Vec::new();
    if trace.is_some() {
        alloc::start();
    }
    for slot in 0..slots {
        let a0 = alloc::count();
        let c0 = Instant::now();
        for (_, client) in &mut clients {
            client.step_slot();
        }
        let a1 = alloc::count();
        let s0 = Instant::now();
        host.step_slot();
        let s1 = Instant::now();
        let a2 = alloc::count();
        let step = s1 - s0;
        slot_ms.push(step.as_secs_f64() * 1e3);
        server_ns += step.as_nanos();
        client_ns += (s0 - c0).as_nanos();
        if trace.is_some() {
            client_allocs += a1 - a0;
            server_allocs += a2 - a1;
            steps.push((slot, c0, s0, s1));
        }
    }
    if trace.is_some() {
        alloc::stop();
    }
    host.shutdown();
    let client_reports: Vec<ClientReport> = clients
        .into_iter()
        .map(|(_, client)| client.finish())
        .collect();
    let sessions = host.reports();

    let mut round = summarise(slots, &client_reports, &sessions);
    round.slot_ms = slot_ms;
    round.server_s = server_ns as f64 / 1e9;
    if let Some(rec) = trace {
        let parent = rec.push("round", 0, None, round_start, Instant::now());
        for &(slot, c0, s0, s1) in &steps {
            rec.push("client.step_slot", slot, Some(parent), c0, s0);
            rec.push("serve.step_slot", slot, Some(parent), s0, s1);
        }
        round.layers = layers(
            slots,
            &sessions,
            server_ns as f64 / 1e3,
            client_ns as f64 / 1e3,
            client_allocs,
            server_allocs,
        );
    }
    round
}

/// Outputs, failures and checks of a finished round.
fn summarise(slots: u64, clients: &[ClientReport], sessions: &[(SessionId, ServeReport)]) -> Round {
    let mut errors = Vec::new();
    let n = clients.len() as f64;
    let qoe = clients.iter().map(|c| c.summary.qoe_per_slot).sum::<f64>() / n;
    let viewed = clients
        .iter()
        .map(|c| c.summary.avg_viewed_quality)
        .sum::<f64>()
        / n;
    if clients.len() != USERS || clients.iter().any(|c| !c.welcomed) {
        errors.push("not every client completed the handshake".to_string());
    }
    let joins: u64 = sessions.iter().map(|(_, s)| s.counters.joins).sum();
    if joins != USERS as u64 {
        errors.push(format!("server admitted {joins} of {USERS} clients"));
    }
    let summarised: usize = sessions.iter().map(|(_, s)| s.users.len()).sum();
    if summarised != USERS {
        errors.push(format!("server summarised {summarised} of {USERS} users"));
    }
    if !qoe.is_finite() || !(0.0..=8.0).contains(&viewed) {
        errors.push(format!("implausible QoE {qoe} / viewed quality {viewed}"));
    }
    Round {
        user_slots: slots * USERS as u64,
        qoe,
        viewed_quality: viewed,
        failed: failures(slots, clients, sessions),
        fingerprint: fingerprint(clients, sessions),
        errors,
        ..Round::default()
    }
}

/// Per-layer values of a traced round. Stage times are the sessions' own
/// `StageStats` totals summed over the fleet and divided by slots, so
/// they are per host slot like `serve.slot_us`; the remainder is slot
/// time no stage clock covers.
fn layers(
    slots: u64,
    sessions: &[(SessionId, ServeReport)],
    server_us: f64,
    client_us: f64,
    client_allocs: u64,
    server_allocs: u64,
) -> Vec<(&'static str, f64)> {
    let per_slot = |pick: fn(&ServeReport) -> f64| {
        sessions.iter().map(|(_, s)| pick(s)).sum::<f64>() * 1e3 / slots as f64
    };
    let ingest = per_slot(|s| s.ingest.total_ms);
    let build = per_slot(|s| s.build.total_ms);
    let density = per_slot(|s| s.density.total_ms);
    let value = per_slot(|s| s.value.total_ms);
    let transmit = per_slot(|s| s.transmit.total_ms);
    let slot = server_us / slots as f64;
    let stage_sum = ingest + build + density + value + transmit;
    let user_slots = (slots * USERS as u64) as f64;
    let counters = sessions.iter().map(|(_, s)| &s.counters);
    vec![
        ("serve.slot_us", slot),
        ("serve.ingest_us", ingest),
        ("serve.build_us", build),
        ("serve.density_us", density),
        ("serve.value_us", value),
        ("serve.transmit_us", transmit),
        ("serve.stage_sum_us", stage_sum),
        ("serve.unattributed_us", slot - stage_sum),
        ("serve.build_us_per_user", build / USERS as f64),
        (
            "serve.frames_dropped",
            counters.clone().map(|c| c.frames_dropped).sum::<u64>() as f64,
        ),
        (
            "serve.max_queue_depth",
            counters
                .clone()
                .map(|c| c.max_outbound_queue_depth)
                .max()
                .unwrap_or(0) as f64,
        ),
        (
            "serve.degraded_transitions",
            counters.map(|c| c.degraded_transitions).sum::<u64>() as f64,
        ),
        (
            "serve.allocs_per_user_slot",
            server_allocs as f64 / user_slots,
        ),
        ("client.step_us", client_us / user_slots),
        (
            "client.allocs_per_user_slot",
            client_allocs as f64 / user_slots,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cvr_core::qoe::UserQoeSummary;
    use cvr_obs::HistogramSummary;

    fn client(assignments: u64, protocol_errors: u64) -> ClientReport {
        ClientReport {
            user_id: 0,
            seed: 0,
            summary: UserQoeSummary {
                slots: 0,
                avg_viewed_quality: 0.0,
                avg_chosen_quality: 0.0,
                avg_delay: 0.0,
                variance: 0.0,
                hit_rate: 0.0,
                total_qoe: 0.0,
                qoe_per_slot: 0.0,
            },
            rtt: HistogramSummary::default(),
            displayed_quality: HistogramSummary::default(),
            assignments,
            protocol_errors,
            welcomed: true,
            link_switches: 0,
        }
    }

    #[test]
    fn failures_count_missing_assignments_and_errors() {
        let clients = [client(100, 0), client(97, 0), client(100, 2)];
        assert_eq!(failures(100, &clients, &[]), 3 + 2);
        // Extra assignments never go negative.
        assert_eq!(failures(100, &[client(101, 0)], &[]), 0);
    }

    #[test]
    fn fleet_round_is_deterministic_and_fails_nothing() {
        let a = run(build(FLEET, 7), 30, None);
        let b = run(build(FLEET, 7), 30, None);
        let c = run(build(FLEET, 8), 30, None);
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert_eq!(a.failed, 0);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_ne!(a.fingerprint, c.fingerprint, "the seed must change inputs");
        assert_eq!(a.user_slots, 30 * USERS as u64);
        assert_eq!(a.slot_ms.len(), 30);
    }

    #[test]
    fn traced_round_stages_plus_remainder_equal_the_slot() {
        let mut rec = Recorder::default();
        let r = run(build(FLEET_H4, 3), 20, Some(&mut rec));
        let get = |n: &str| r.layers.iter().find(|(k, _)| *k == n).unwrap().1;
        let sum = get("serve.stage_sum_us") + get("serve.unattributed_us");
        assert!((sum - get("serve.slot_us")).abs() < 1e-6);
        assert_eq!(
            rec.spans()
                .iter()
                .filter(|s| s.name == "serve.step_slot")
                .count(),
            20
        );
        assert!(get("client.allocs_per_user_slot") > 0.0);
    }
}
