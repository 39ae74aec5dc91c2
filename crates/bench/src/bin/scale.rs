//! Scaling benchmark for the sharded parallel experiment runner: sweeps
//! session counts × thread counts over both testbed setups, checks that
//! every thread count reproduces the 1-thread results bit for bit, and
//! writes `BENCH_parallel.json` at the repository root for the CI bench
//! gate (`bench_check`).
//!
//! Each "session" is one independent full-system simulation (a simulated
//! multi-user CVR classroom) with its seed derived from
//! `(base_seed, run_id)`, so the work list is identical no matter how it
//! is scheduled across workers.
//!
//! Run: `cargo run -p cvr-bench --release --bin scale [--quick]`

use std::time::Instant;

use cvr_bench::{f3, print_header, print_row, FigureArgs};
use cvr_sim::allocators::AllocatorKind;
use cvr_sim::parallel::{self, RunSpec};
use cvr_sim::system::{self, SystemConfig, SystemRunResult};

/// Shortest 1-thread wall time a sweep point should take, seconds.
const MIN_POINT_WALL_S: f64 = 1.0;

/// One timed sweep point.
struct Entry {
    setup: &'static str,
    sessions: usize,
    threads: usize,
    wall_s: f64,
    sessions_per_sec: f64,
    speedup: f64,
    efficiency: f64,
    identical: bool,
}

fn run_sessions(
    base: &SystemConfig,
    specs: &[RunSpec],
    threads: usize,
) -> (Vec<SystemRunResult>, f64) {
    let start = Instant::now();
    let results = parallel::parallel_map(specs, threads, |spec| {
        let config = SystemConfig {
            seed: spec.seed,
            ..base.clone()
        };
        system::run(&config, AllocatorKind::DensityValueGreedy)
    });
    (results, start.elapsed().as_secs_f64())
}

fn main() {
    let args = FigureArgs::parse();
    let duration = args.duration_or(6.0);
    let available = parallel::available_threads();
    // On a single-core host a multi-thread wall-clock comparison measures
    // scheduler overhead, not parallel scaling: keep the determinism
    // sweep but make no speedup/efficiency claims.
    let single_core = available < 2;

    let mut thread_counts = vec![1usize, 2, 4, available];
    thread_counts.sort_unstable();
    thread_counts.dedup();
    // Enough sessions per point to measure: the cheaper setup's 1-thread
    // run must last `MIN_POINT_WALL_S`, or a scaled-down sweep times
    // thread start-up and one straggling session, not the work.
    let mut sessions = args.runs_or(16).max(2);
    let probe = SystemConfig {
        duration_s: duration,
        ..SystemConfig::setup1(args.seed)
    };
    let (_, probe_wall) = run_sessions(&probe, &parallel::run_specs(args.seed, sessions), 1);
    if probe_wall < MIN_POINT_WALL_S {
        sessions = (sessions as f64 * MIN_POINT_WALL_S / probe_wall).ceil() as usize;
    }

    println!(
        "# Parallel runner scaling — {sessions} sessions × {duration:.1} s, \
         threads {thread_counts:?} (available parallelism: {available})\n"
    );

    let mut entries: Vec<Entry> = Vec::new();
    let mut deterministic = true;
    for (setup, config) in [
        ("setup1", SystemConfig::setup1(args.seed)),
        ("setup2", SystemConfig::setup2(args.seed)),
    ] {
        let base = SystemConfig {
            duration_s: duration,
            ..config
        };
        let specs = parallel::run_specs(args.seed, sessions);

        // Warm up allocators/caches so the 1-thread baseline isn't charged
        // for first-touch costs the parallel runs don't pay.
        let _ = run_sessions(&base, &specs[..1], 1);

        let (baseline, baseline_wall) = run_sessions(&base, &specs, 1);
        print_header(&[
            "setup",
            "threads",
            "wall s",
            "sess/s",
            "speedup",
            "eff",
            "identical",
        ]);
        for &threads in &thread_counts {
            let (results, wall_s) = if threads == 1 {
                (baseline.clone(), baseline_wall)
            } else {
                run_sessions(&base, &specs, threads)
            };
            let identical = results == baseline;
            deterministic &= identical;
            let speedup = baseline_wall / wall_s;
            let entry = Entry {
                setup,
                sessions,
                threads,
                wall_s,
                sessions_per_sec: sessions as f64 / wall_s,
                speedup,
                efficiency: speedup / threads as f64,
                identical,
            };
            let (speedup_cell, efficiency_cell) = if single_core {
                ("-".to_string(), "-".to_string())
            } else {
                (f3(entry.speedup), f3(entry.efficiency))
            };
            print_row(&[
                setup.to_string(),
                threads.to_string(),
                f3(entry.wall_s),
                f3(entry.sessions_per_sec),
                speedup_cell,
                efficiency_cell,
                entry.identical.to_string(),
            ]);
            entries.push(entry);
        }
        println!();
    }

    assert!(
        deterministic,
        "parallel execution diverged from the 1-thread baseline"
    );
    println!("all thread counts bit-identical to the 1-thread baseline: true");
    if single_core {
        println!(
            "skipped thread-sweep speedup/efficiency claims: available \
             parallelism is {available} (determinism still checked)"
        );
    }

    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            let claims = if single_core {
                "\"speedup\": null, \"efficiency\": null".to_string()
            } else {
                format!(
                    "\"speedup\": {:.3}, \"efficiency\": {:.3}",
                    e.speedup, e.efficiency
                )
            };
            format!(
                "    {{\"setup\": \"{}\", \"sessions\": {}, \"threads\": {}, \
                 \"wall_s\": {:.4}, \"sessions_per_sec\": {:.3}, {}, \
                 \"identical\": {}}}",
                e.setup, e.sessions, e.threads, e.wall_s, e.sessions_per_sec, claims, e.identical
            )
        })
        .collect();
    let notes = if single_core {
        "\"skipped_thread_sweep\""
    } else {
        ""
    };
    let json = format!(
        "{{\n  \"bench\": \"parallel_scale\",\n  \"available_parallelism\": {},\n  \
         \"sessions\": {},\n  \"duration_s\": {:.1},\n  \"deterministic\": {},\n  \
         \"notes\": [{}],\n  \"entries\": [\n{}\n  ]\n}}\n",
        available,
        sessions,
        duration,
        deterministic,
        notes,
        rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_parallel.json");
    std::fs::write(out, &json).expect("write benchmark JSON");
    println!("wrote {out}");
}
