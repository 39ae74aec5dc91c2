//! CI bench gate: reads the `BENCH_*.json` artifacts written by the
//! bench binaries and fails (exit code 1) when a performance or
//! determinism regression slipped in. One [`GateSpec`] row per
//! artifact — adding a new bench to the gate is one table row plus its
//! check function:
//!
//! * `BENCH_slot_engine.json` — every synthetic workload must keep the
//!   slot-engine speedup ≥ 1.5× over the pre-engine path, with identical
//!   assignments;
//! * `BENCH_parallel.json` — parallel execution must be bit-identical to
//!   the 1-thread baseline, and on multi-core hosts the largest in-budget
//!   thread count must reach speedup ≥ 1.5× with parallel efficiency
//!   ≥ 0.6. On a single-core host (recorded `available_parallelism` = 1)
//!   the speedup gates are skipped — there is nothing to parallelise
//!   onto — but determinism is still enforced.
//! * `BENCH_serve.json` — the live-server loopback sweep must include a
//!   point with ≥ 8 clients that keeps ≥ 95 % of its 15 ms slots on
//!   time, and no sweep point may record a single protocol error. The
//!   multi-session tier must run ≥ 64 sessions / ≥ 512 clients on the
//!   sharded host with zero protocol errors and ≥ 95 % on-time slots.
//! * `BENCH_build.json` — the cached build-stage data plane must keep a
//!   ≥ 2× build speedup over the per-slot rederiving path on every
//!   setup, with solver assignments identical to the reference build.
//!   Its **staging** tier must keep a ≥ 1.3× speedup of the fused
//!   level-major staging kernel over the old tile-major strided walk +
//!   hand-rolled fill, with identical per-slot assignment fingerprints.
//! * `BENCH_obs.json` — metrics + sampled tracing must cost ≤ 2 % of the
//!   uninstrumented slot loop on every setup, and never change the
//!   solver's output.
//! * `BENCH_net.json` — the cellular digital-twin scenario matrix must
//!   cover every impairment pathology, its two thread-count runs must
//!   carry identical determinism fingerprints, and Algorithm 1
//!   (`ours`) must keep QoE ≥ each baseline on at least 4 of the 5
//!   pathologies.
//! * `BENCH_mcast.json` — the multicast classroom must lift delivered
//!   quality ≥ 1.2× over unicast at ≥ 32 co-located users while putting
//!   fewer megabits on the wire, reproduce its fingerprints bit for bit
//!   on a second run, and keep one-member groups bit-identical to the
//!   unicast path (singleton parity).
//! * `BENCH_lookahead.json` — the horizon sweep must cover every
//!   impairment pathology, stay bit-identical across thread counts,
//!   keep the H = 1 column bit-identical to the horizonless config
//!   (lookahead is pay-for-what-you-use), and some H > 1 horizon must
//!   reach QoE ≥ myopic with no higher quality variance on at least
//!   3 of the 5 pathologies.
//!
//! Run after the benches: `cargo run -p cvr-bench --release --bin bench_check`

use cvr_bench::json::Json;

const MIN_ENGINE_SPEEDUP: f64 = 1.5;
const MIN_BUILD_SPEEDUP: f64 = 2.0;
const MIN_STAGING_SPEEDUP: f64 = 1.3;
const MIN_PARALLEL_SPEEDUP: f64 = 1.5;
const MIN_PARALLEL_EFFICIENCY: f64 = 0.6;
const MIN_SERVE_CLIENTS: usize = 8;
const MIN_SERVE_ONTIME: f64 = 0.95;
const MIN_SERVE_SESSIONS: usize = 64;
const MIN_SERVE_FLEET_CLIENTS: usize = 512;
const MAX_OBS_OVERHEAD_PCT: f64 = 2.0;
const NET_PATHOLOGIES: [&str; 5] = [
    "markov-fading",
    "blockage",
    "handover",
    "bufferbloat",
    "flash-crowd",
];
const NET_BASELINES: [&str; 2] = ["firefly", "pavq"];
const MIN_NET_WINS: usize = 4;
const MIN_MCAST_GAIN: f64 = 1.2;
const MIN_MCAST_GAIN_USERS: usize = 32;
const MIN_LOOKAHEAD_WINS: usize = 3;

/// One row of the gate table: which artifact to load and which check
/// function judges it.
struct GateSpec {
    name: &'static str,
    file: &'static str,
    check: fn(&mut Gate, &Json),
}

/// The declarative gate table `main` walks. New benches join the gate
/// by adding one row here.
const GATES: [GateSpec; 9] = [
    GateSpec {
        name: "slot_engine",
        file: "BENCH_slot_engine.json",
        check: check_slot_engine,
    },
    GateSpec {
        name: "parallel",
        file: "BENCH_parallel.json",
        check: check_parallel,
    },
    GateSpec {
        name: "serve",
        file: "BENCH_serve.json",
        check: check_serve,
    },
    GateSpec {
        name: "build",
        file: "BENCH_build.json",
        check: check_build,
    },
    GateSpec {
        name: "staging",
        file: "BENCH_build.json",
        check: check_staging,
    },
    GateSpec {
        name: "obs",
        file: "BENCH_obs.json",
        check: check_obs,
    },
    GateSpec {
        name: "net",
        file: "BENCH_net.json",
        check: check_net,
    },
    GateSpec {
        name: "mcast",
        file: "BENCH_mcast.json",
        check: check_mcast,
    },
    GateSpec {
        name: "lookahead",
        file: "BENCH_lookahead.json",
        check: check_lookahead,
    },
];

#[derive(Default)]
struct Gate {
    checks: usize,
    failures: Vec<String>,
}

impl Gate {
    fn check(&mut self, ok: bool, message: String) {
        self.checks += 1;
        if ok {
            println!("ok   {message}");
        } else {
            println!("FAIL {message}");
            self.failures.push(message);
        }
    }
}

fn load(path: &str) -> Json {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("read {path}: {e} (run the benches first)"));
    Json::parse(&text).unwrap_or_else(|e| panic!("parse {path}: {e}"))
}

fn check_slot_engine(gate: &mut Gate, doc: &Json) {
    let synthetic = doc
        .get("synthetic")
        .and_then(Json::as_array)
        .expect("slot_engine JSON has a `synthetic` array");
    gate.check(
        !synthetic.is_empty(),
        "slot_engine: at least one synthetic workload".to_string(),
    );
    for entry in synthetic {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let speedup = entry
            .get("speedup")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let identical = entry
            .get("assignments_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        gate.check(
            speedup >= MIN_ENGINE_SPEEDUP,
            format!("slot_engine {name}: speedup {speedup:.2}x >= {MIN_ENGINE_SPEEDUP}x"),
        );
        gate.check(
            identical,
            format!("slot_engine {name}: engine assignments identical to reference path"),
        );
    }
}

fn check_parallel(gate: &mut Gate, doc: &Json) {
    let available = doc
        .get("available_parallelism")
        .and_then(Json::as_f64)
        .expect("parallel JSON has `available_parallelism`") as usize;
    let deterministic = doc
        .get("deterministic")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    gate.check(
        deterministic,
        "parallel: all thread counts bit-identical to the 1-thread baseline".to_string(),
    );
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .expect("parallel JSON has an `entries` array");
    gate.check(
        !entries.is_empty(),
        "parallel: at least one sweep point".to_string(),
    );
    for entry in entries {
        let setup = entry.get("setup").and_then(Json::as_str).unwrap_or("?");
        let threads = entry.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        gate.check(
            entry
                .get("identical")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            format!("parallel {setup} @ {threads} threads: results identical"),
        );
    }

    if available < 2 {
        println!(
            "skip parallel speedup/efficiency gates: benchmark host reported \
             available_parallelism = {available} (nothing to parallelise onto)"
        );
        return;
    }

    // Judge the largest thread count that fits the host — oversubscribed
    // points (threads > cores) legitimately lose efficiency.
    for setup in ["setup1", "setup2"] {
        let best = entries
            .iter()
            .filter(|e| {
                e.get("setup").and_then(Json::as_str) == Some(setup)
                    && e.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize <= available
            })
            .max_by_key(|e| e.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize);
        let Some(entry) = best else {
            gate.check(false, format!("parallel {setup}: no in-budget sweep point"));
            continue;
        };
        let threads = entry.get("threads").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        if threads < 2 {
            gate.check(
                false,
                format!("parallel {setup}: no multi-threaded sweep point within {available} cores"),
            );
            continue;
        }
        let speedup = entry
            .get("speedup")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let efficiency = entry
            .get("efficiency")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        gate.check(
            speedup >= MIN_PARALLEL_SPEEDUP,
            format!(
                "parallel {setup} @ {threads} threads: speedup {speedup:.2}x >= {MIN_PARALLEL_SPEEDUP}x"
            ),
        );
        gate.check(
            efficiency >= MIN_PARALLEL_EFFICIENCY,
            format!(
                "parallel {setup} @ {threads} threads: efficiency {efficiency:.2} >= {MIN_PARALLEL_EFFICIENCY}"
            ),
        );
    }
}

fn check_serve(gate: &mut Gate, doc: &Json) {
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .expect("serve JSON has an `entries` array");
    gate.check(
        !entries.is_empty(),
        "serve: at least one sweep point".to_string(),
    );
    let mut saw_full_classroom = false;
    for entry in entries {
        let users = entry.get("users").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let on_time = entry
            .get("on_time_fraction")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let protocol_errors = entry
            .get("protocol_errors")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        gate.check(
            protocol_errors == 0.0,
            format!("serve @ {users} clients: zero protocol errors"),
        );
        if users >= MIN_SERVE_CLIENTS {
            saw_full_classroom = true;
            gate.check(
                on_time >= MIN_SERVE_ONTIME,
                format!(
                    "serve @ {users} clients: on-time fraction {on_time:.4} >= {MIN_SERVE_ONTIME}"
                ),
            );
        }
    }
    gate.check(
        saw_full_classroom,
        format!("serve: sweep reaches >= {MIN_SERVE_CLIENTS} clients"),
    );

    // Multi-session tier: the sharded host must actually run the full
    // fleet (64 sessions / 512 clients) with zero protocol errors and
    // keep its slots on time. Unlike raw parallel speedup, this holds
    // even on a single-core host: a shard's whole-fleet slot work is
    // well under the 15 ms period, so pacing — not core count — decides
    // the deadline behaviour.
    let multi = doc
        .get("multi_session")
        .and_then(Json::as_array)
        .expect("serve JSON has a `multi_session` array");
    gate.check(
        !multi.is_empty(),
        "serve: at least one multi-session point".to_string(),
    );
    let mut saw_full_fleet = false;
    for entry in multi {
        let sessions = entry.get("sessions").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let clients = entry.get("clients").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let shards = entry.get("shards").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let on_time = entry
            .get("on_time_fraction")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let protocol_errors = entry
            .get("protocol_errors")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        gate.check(
            protocol_errors == 0.0,
            format!("serve multi-session @ {sessions} sessions: zero protocol errors"),
        );
        if sessions >= MIN_SERVE_SESSIONS && clients >= MIN_SERVE_FLEET_CLIENTS {
            saw_full_fleet = true;
            gate.check(
                on_time >= MIN_SERVE_ONTIME,
                format!(
                    "serve multi-session @ {sessions} sessions / {clients} clients on \
                     {shards} shards: on-time fraction {on_time:.4} >= {MIN_SERVE_ONTIME}"
                ),
            );
        }
    }
    gate.check(
        saw_full_fleet,
        format!(
            "serve: multi-session tier reaches >= {MIN_SERVE_SESSIONS} sessions and \
             >= {MIN_SERVE_FLEET_CLIENTS} clients"
        ),
    );
}

fn check_build(gate: &mut Gate, doc: &Json) {
    let setups = doc
        .get("setups")
        .and_then(Json::as_array)
        .expect("build JSON has a `setups` array");
    gate.check(!setups.is_empty(), "build: at least one setup".to_string());
    for entry in setups {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let speedup = entry
            .get("build_speedup")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let identical = entry
            .get("assignments_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        gate.check(
            speedup >= MIN_BUILD_SPEEDUP,
            format!("build {name}: build speedup {speedup:.2}x >= {MIN_BUILD_SPEEDUP}x"),
        );
        gate.check(
            identical,
            format!("build {name}: cached-plane assignments identical to reference build"),
        );
    }
}

fn check_staging(gate: &mut Gate, doc: &Json) {
    let setups = doc
        .get("setups")
        .and_then(Json::as_array)
        .expect("build JSON has a `setups` array");
    gate.check(
        !setups.is_empty(),
        "staging: at least one setup".to_string(),
    );
    for entry in setups {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(staging) = entry.get("staging") else {
            gate.check(false, format!("staging {name}: staging tier present"));
            continue;
        };
        let speedup = staging
            .get("staging_speedup")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        gate.check(
            speedup >= MIN_STAGING_SPEEDUP,
            format!("staging {name}: fused-kernel speedup {speedup:.2}x >= {MIN_STAGING_SPEEDUP}x"),
        );
        gate.check(
            staging
                .get("identical")
                .and_then(Json::as_bool)
                .unwrap_or(false),
            format!("staging {name}: assignment fingerprints identical"),
        );
    }
}

fn check_obs(gate: &mut Gate, doc: &Json) {
    let entries = doc
        .get("entries")
        .and_then(Json::as_array)
        .expect("obs JSON has an `entries` array");
    gate.check(!entries.is_empty(), "obs: at least one setup".to_string());
    for entry in entries {
        let name = entry.get("name").and_then(Json::as_str).unwrap_or("?");
        let overhead = entry
            .get("overhead_pct")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
            .max(0.0);
        let identical = entry
            .get("assignments_identical")
            .and_then(Json::as_bool)
            .unwrap_or(false);
        let observations = entry
            .get("observations")
            .and_then(Json::as_f64)
            .unwrap_or(0.0);
        gate.check(
            overhead <= MAX_OBS_OVERHEAD_PCT,
            format!("obs {name}: overhead {overhead:.3}% <= {MAX_OBS_OVERHEAD_PCT}%"),
        );
        gate.check(
            identical,
            format!("obs {name}: instrumented solver output identical"),
        );
        gate.check(
            observations > 0.0,
            format!("obs {name}: the instrumented mode actually recorded observations"),
        );
    }
}

fn check_net(gate: &mut Gate, doc: &Json) {
    let deterministic = doc
        .get("deterministic")
        .and_then(Json::as_bool)
        .unwrap_or(false);
    gate.check(
        deterministic,
        "net: scenario matrix bit-identical across thread counts".to_string(),
    );
    let fp_main = doc.get("fingerprint_main").and_then(Json::as_str);
    let fp_check = doc.get("fingerprint_check").and_then(Json::as_str);
    gate.check(
        fp_main.is_some() && fp_main == fp_check,
        format!(
            "net: determinism fingerprints match ({} vs {})",
            fp_main.unwrap_or("missing"),
            fp_check.unwrap_or("missing")
        ),
    );
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("net JSON has a `rows` array");

    // QoE per (pathology, algorithm), pathology presence included.
    let qoe_of = |row: &Json, name: &str| -> Option<f64> {
        row.get("algorithms")?
            .as_array()?
            .iter()
            .find(|a| a.get("name").and_then(Json::as_str) == Some(name))?
            .get("qoe")
            .and_then(Json::as_f64)
    };
    let mut wins = std::collections::BTreeMap::new();
    for pathology in NET_PATHOLOGIES {
        let row = rows
            .iter()
            .find(|r| r.get("pathology").and_then(Json::as_str) == Some(pathology));
        gate.check(
            row.is_some(),
            format!("net: pathology `{pathology}` present in the matrix"),
        );
        let Some(row) = row else { continue };
        let Some(ours) = qoe_of(row, "ours") else {
            gate.check(false, format!("net {pathology}: `ours` QoE present"));
            continue;
        };
        for baseline in NET_BASELINES {
            let Some(other) = qoe_of(row, baseline) else {
                gate.check(false, format!("net {pathology}: `{baseline}` QoE present"));
                continue;
            };
            if ours >= other {
                *wins.entry(baseline).or_insert(0usize) += 1;
            }
        }
    }
    for baseline in NET_BASELINES {
        let won = wins.get(baseline).copied().unwrap_or(0);
        gate.check(
            won >= MIN_NET_WINS,
            format!(
                "net: ours QoE >= {baseline} on {won}/{} pathologies (need >= {MIN_NET_WINS})",
                NET_PATHOLOGIES.len()
            ),
        );
    }
}

fn check_mcast(gate: &mut Gate, doc: &Json) {
    gate.check(
        doc.get("deterministic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        "mcast: classroom bit-identical across repeated runs".to_string(),
    );
    gate.check(
        doc.get("singleton_parity")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        "mcast: one-member groups bit-identical to the unicast path".to_string(),
    );
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("mcast JSON has a `rows` array");
    gate.check(
        !rows.is_empty(),
        "mcast: at least one classroom size".to_string(),
    );
    let mut saw_crowded = false;
    for row in rows {
        let users = row.get("users").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        let fp_main = row.get("fingerprint_main").and_then(Json::as_str);
        let fp_check = row.get("fingerprint_check").and_then(Json::as_str);
        gate.check(
            fp_main.is_some() && fp_main == fp_check,
            format!(
                "mcast @ {users} users: fingerprints match ({} vs {})",
                fp_main.unwrap_or("missing"),
                fp_check.unwrap_or("missing")
            ),
        );
        if users < MIN_MCAST_GAIN_USERS {
            continue;
        }
        saw_crowded = true;
        let gain = row.get("gain").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let uni_wire = row
            .get("unicast_wire_mbit")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let multi_wire = row
            .get("multicast_wire_mbit")
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let groups = row.get("peak_groups").and_then(Json::as_f64).unwrap_or(0.0) as usize;
        gate.check(
            gain >= MIN_MCAST_GAIN,
            format!(
                "mcast @ {users} users: delivered-quality gain {gain:.3}x >= {MIN_MCAST_GAIN}x"
            ),
        );
        gate.check(
            multi_wire < uni_wire,
            format!(
                "mcast @ {users} users: wire {multi_wire:.1} Mbit < unicast {uni_wire:.1} Mbit"
            ),
        );
        gate.check(
            groups >= 1,
            format!("mcast @ {users} users: multicast groups actually formed"),
        );
    }
    gate.check(
        saw_crowded,
        format!("mcast: sweep reaches >= {MIN_MCAST_GAIN_USERS} co-located users"),
    );
}

fn check_lookahead(gate: &mut Gate, doc: &Json) {
    gate.check(
        doc.get("deterministic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        "lookahead: horizon sweep bit-identical across thread counts".to_string(),
    );
    let fp_main = doc.get("fingerprint_main").and_then(Json::as_str);
    let fp_check = doc.get("fingerprint_check").and_then(Json::as_str);
    gate.check(
        fp_main.is_some() && fp_main == fp_check,
        format!(
            "lookahead: determinism fingerprints match ({} vs {})",
            fp_main.unwrap_or("missing"),
            fp_check.unwrap_or("missing")
        ),
    );
    gate.check(
        doc.get("h1_equals_myopic")
            .and_then(Json::as_bool)
            .unwrap_or(false),
        "lookahead: H = 1 column bit-identical to the horizonless config".to_string(),
    );
    let rows = doc
        .get("rows")
        .and_then(Json::as_array)
        .expect("lookahead JSON has a `rows` array");
    let mut qoe_wins = 0usize;
    let mut variance_wins = 0usize;
    for pathology in NET_PATHOLOGIES {
        let row = rows
            .iter()
            .find(|r| r.get("pathology").and_then(Json::as_str) == Some(pathology));
        gate.check(
            row.is_some(),
            format!("lookahead: pathology `{pathology}` present in the sweep"),
        );
        let Some(row) = row else { continue };
        let horizons = row
            .get("horizons")
            .and_then(Json::as_array)
            .map(<[Json]>::len)
            .unwrap_or(0);
        gate.check(
            horizons >= 2,
            format!("lookahead {pathology}: sweep covers a horizon beyond myopic"),
        );
        qoe_wins += row.get("qoe_win").and_then(Json::as_bool).unwrap_or(false) as usize;
        variance_wins += row
            .get("variance_win")
            .and_then(Json::as_bool)
            .unwrap_or(false) as usize;
    }
    gate.check(
        qoe_wins >= MIN_LOOKAHEAD_WINS,
        format!(
            "lookahead: best horizon QoE >= myopic on {qoe_wins}/{} pathologies \
             (need >= {MIN_LOOKAHEAD_WINS})",
            NET_PATHOLOGIES.len()
        ),
    );
    gate.check(
        variance_wins >= MIN_LOOKAHEAD_WINS,
        format!(
            "lookahead: QoE win with no higher quality variance on {variance_wins}/{} \
             pathologies (need >= {MIN_LOOKAHEAD_WINS})",
            NET_PATHOLOGIES.len()
        ),
    );
}

fn main() {
    let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

    println!("# Bench gate\n");
    let mut summaries: Vec<String> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for spec in &GATES {
        println!("## {}", spec.name);
        let mut gate = Gate::default();
        (spec.check)(&mut gate, &load(&format!("{root}/{}", spec.file)));
        let passed = gate.checks - gate.failures.len();
        let verdict = if gate.failures.is_empty() {
            "PASS"
        } else {
            "FAIL"
        };
        let summary = format!(
            "{verdict} {name}: {passed}/{total} checks passed ({file})",
            name = spec.name,
            total = gate.checks,
            file = spec.file,
        );
        println!("{summary}\n");
        summaries.push(summary);
        failures.extend(
            gate.failures
                .into_iter()
                .map(|f| format!("[{}] {f}", spec.name)),
        );
    }

    println!("# Summary");
    for line in &summaries {
        println!("{line}");
    }
    println!();
    if failures.is_empty() {
        println!("bench gate: all checks passed");
    } else {
        println!("bench gate: {} check(s) FAILED:", failures.len());
        for f in &failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
