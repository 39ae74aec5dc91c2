//! `cvr-serve`: boot a sharded multi-session host on a TCP listener,
//! admit a fixed number of clients, and run a fixed number of 15 ms
//! slots.
//!
//! ```text
//! cvr-serve --listen 127.0.0.1:7015 --clients 8 --slots 200 \
//!     [--sessions 4] [--shards 2] [--slot-ms 15] \
//!     [--metrics-addr 127.0.0.1:9090] [--multicast] [--horizon H]
//! ```
//!
//! Clients are routed to the least-joined session by the host's control
//! plane; sessions are placed on the least-loaded shard. Each shard runs
//! all of its sessions off one amortised tick loop and services its
//! connections with a readiness poll loop — no per-connection threads.
//!
//! With `--metrics-addr`, a background responder serves the merged
//! host-wide metrics registry as Prometheus text (`curl
//! http://ADDR/metrics`), including per-shard
//! `cvr_shard_sessions{shard="i"}` gauges, refreshed every few slots.
//!
//! A failed accept or registration is logged to stderr, counted
//! (`accept_errors` in the final summary) and skipped; the server keeps
//! accepting until `--clients` peers are registered.
//!
//! Exits non-zero if any protocol error occurred or any expected client
//! never joined — the properties the CI smoke job asserts.

use std::net::TcpListener;
use std::time::Duration;

use cvr_serve::expose::MetricsExporter;
use cvr_serve::server::{ServeConfig, ServerCounters};
use cvr_serve::shard::{HostConfig, ShardHost};

/// Slots between snapshot publishes to the metrics exporter (~0.5 s at
/// the 15 ms default cadence).
const METRICS_PUBLISH_EVERY: u64 = 32;

/// Pause after a failed `accept` before trying again.
const ACCEPT_RETRY: Duration = Duration::from_millis(10);

struct Args {
    listen: String,
    clients: usize,
    sessions: usize,
    shards: usize,
    slots: u64,
    slot_ms: f64,
    metrics_addr: Option<String>,
    multicast: bool,
    horizon: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7015".to_string(),
        clients: 2,
        sessions: 1,
        shards: 1,
        slots: 200,
        slot_ms: 15.0,
        metrics_addr: None,
        multicast: false,
        horizon: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--listen" => args.listen = value(),
            "--clients" => args.clients = value().parse().expect("--clients"),
            "--sessions" => args.sessions = value().parse().expect("--sessions"),
            "--shards" => args.shards = value().parse().expect("--shards"),
            "--slots" => args.slots = value().parse().expect("--slots"),
            "--slot-ms" => args.slot_ms = value().parse().expect("--slot-ms"),
            "--metrics-addr" => args.metrics_addr = Some(value()),
            "--multicast" => args.multicast = true,
            "--horizon" => args.horizon = value().parse().expect("--horizon"),
            other => panic!("unknown flag {other}"),
        }
    }
    assert!(args.sessions >= 1, "--sessions must be at least 1");
    assert!(args.horizon >= 1, "--horizon must be at least 1");
    args
}

fn main() {
    let args = parse_args();
    let config = ServeConfig {
        slot_duration: Duration::from_secs_f64(args.slot_ms / 1000.0),
        multicast: args.multicast,
        horizon: args.horizon,
        ..ServeConfig::default()
    };
    let queue_frames = config.outbound_queue_frames;
    let mut host = ShardHost::new(HostConfig {
        shards: args.shards,
        session: config.clone(),
    });
    for _ in 0..args.sessions {
        host.add_session();
    }

    let exporter = args.metrics_addr.as_deref().map(|addr| {
        let exporter = MetricsExporter::bind(addr).expect("bind metrics address");
        println!("metrics exposed at http://{}/metrics", exporter.addr());
        exporter
    });

    let listener = TcpListener::bind(&args.listen).expect("bind listener");
    println!(
        "cvr-serve listening on {} for {} clients over {} sessions on {} shards \
         ({} slots at {} ms)",
        listener.local_addr().expect("local addr"),
        args.clients,
        args.sessions,
        host.shard_count(),
        args.slots,
        args.slot_ms
    );
    // A failed accept (e.g. EMFILE, ECONNABORTED) or a peer that resets
    // before registration is counted and skipped; admission continues
    // until `--clients` peers have been registered.
    let mut accept_errors = 0u64;
    let mut registered = 0;
    while registered < args.clients {
        let (stream, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(e) => {
                accept_errors += 1;
                eprintln!("accept failed: {e}");
                // Back off so a persistent error (out of descriptors)
                // does not spin.
                std::thread::sleep(ACCEPT_RETRY);
                continue;
            }
        };
        // Routing counts admissions, so a peer lost during registration
        // still advances the round-robin.
        let session = host.route_join();
        match host.add_tcp(session, stream, queue_frames) {
            Ok(()) => {
                registered += 1;
                println!(
                    "accepted {peer} -> session {session} (shard {})",
                    host.shard_of(session)
                );
            }
            Err(e) => {
                accept_errors += 1;
                eprintln!("registering {peer} failed: {e}");
            }
        }
    }

    host.run_realtime(
        args.slots,
        config.slot_duration,
        exporter
            .as_ref()
            .map(|exporter| (exporter, METRICS_PUBLISH_EVERY)),
        Some(args.clients as u64),
    );
    host.shutdown();
    if let Some(exporter) = &exporter {
        exporter.publish(host.render_metrics());
    }
    let reports = host.reports();

    let mut total = ServerCounters::default();
    let mut worst_on_time = 1.0f64;
    for (id, report) in &reports {
        total.ticks += report.counters.ticks;
        total.on_time_ticks += report.counters.on_time_ticks;
        total.tick_overruns += report.counters.tick_overruns;
        total.joins += report.counters.joins;
        total.leaves += report.counters.leaves;
        total.protocol_errors += report.counters.protocol_errors;
        total.frames_dropped += report.counters.frames_dropped;
        total.degraded_transitions += report.counters.degraded_transitions;
        total.max_outbound_queue_depth = total
            .max_outbound_queue_depth
            .max(report.counters.max_outbound_queue_depth);
        worst_on_time = worst_on_time.min(report.on_time_fraction());
        println!(
            "session {}: slots={} on_time={:.3} joins={} leaves={} protocol_errors={} \
             frames_dropped={} degraded={} tick_p99_us={:.1}",
            id,
            report.counters.ticks,
            report.on_time_fraction(),
            report.counters.joins,
            report.counters.leaves,
            report.counters.protocol_errors,
            report.counters.frames_dropped,
            report.counters.degraded_transitions,
            report.tick.p99_us,
        );
        for user in &report.users {
            println!(
                "  user {}: seed={} slots={} avg_viewed_q={:.3} delta={:.3} dropped={} degrades={}",
                user.user_id,
                user.seed,
                user.qoe.slots,
                user.qoe.avg_viewed_quality,
                user.delta,
                user.frames_dropped,
                user.degrade_transitions,
            );
        }
    }
    let on_time = if total.ticks == 0 {
        1.0
    } else {
        total.on_time_ticks as f64 / total.ticks as f64
    };
    println!(
        "slots={} on_time={:.3} worst_session_on_time={:.3} overruns={} joins={} leaves={} \
         protocol_errors={} frames_dropped={} degraded={} max_queue={} accept_errors={}",
        total.ticks,
        on_time,
        worst_on_time,
        total.tick_overruns,
        total.joins,
        total.leaves,
        total.protocol_errors,
        total.frames_dropped,
        total.degraded_transitions,
        total.max_outbound_queue_depth,
        accept_errors,
    );

    if total.protocol_errors > 0 {
        eprintln!("FAIL: {} protocol errors", total.protocol_errors);
        std::process::exit(1);
    }
    if total.joins < args.clients as u64 {
        eprintln!("FAIL: only {}/{} clients joined", total.joins, args.clients);
        std::process::exit(1);
    }
}
