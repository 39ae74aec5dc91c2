//! One-command benchmark of the collaborative-VR workspace.
//!
//! ```text
//! cargo run --release --manifest-path repobench/Cargo.toml -- \
//!     --workload <fleet|fleet-h4|walk-sim> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path repobench/Cargo.toml -- --steadiness <reps> --seconds <s>
//! cargo run --release --manifest-path repobench/Cargo.toml -- --record-fingerprints
//! ```
//!
//! A run checks the workload's fixed-seed reference round against
//! `fingerprints.txt`, times the workload's set-up several times, then
//! repeats whole rounds for `--seconds`. The last stdout line is one JSON
//! object: `correct`, `attempted` and `failed` user-slots, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics (`--trace 1`,
//! which splits its time between an untraced and a traced pass and writes
//! the spans to `.bench_trace/`). See README.md for the workloads.

mod alloc;
mod fingerprint;
mod host;
mod metrics;
mod round;
mod serve;
mod sim;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use round::Round;
use trace::Recorder;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Every workload, in the order the steadiness mode interleaves them.
pub const WORKLOADS: [&str; 3] = ["fleet", "fleet-h4", "walk-sim"];

/// Seed of every workload's reference round.
const REFERENCE_SEED: u64 = 2022;
/// A set-up sample times a batch of builds that takes about this long,
/// so a build of a fraction of a microsecond is not lost in the clock's
/// own overhead.
const SETUP_BATCH_TIME: Duration = Duration::from_micros(100);
/// Each round takes at least this many set-up samples...
const SETUP_MIN_REPS: usize = 20;
/// ...and keeps sampling until this much time went into them...
const SETUP_MIN_TIME: Duration = Duration::from_millis(5);
/// ...unless this many samples came first.
const SETUP_MAX_REPS: usize = 200;
/// `setup_s` is this percentile of a run's set-up samples. Set-up times
/// on a shared host fall into a fast and a ~1.7x slower state that switch
/// every few seconds, so a run's median lands in either; the slow state
/// shows in almost every run, and its value is what this picks up.
const SETUP_PERCENTILE: f64 = 90.0;
/// Where a traced run writes its spans, relative to the working directory.
const TRACE_DIR: &str = ".bench_trace";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Fleet(serve::Fleet),
    WalkSim,
}

/// A workload's inputs, built before its timed loop.
enum Instance {
    Fleet(Box<serve::Built>),
    WalkSim(sim::Setup),
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet" => Some(Workload::Fleet(serve::FLEET)),
            "fleet-h4" => Some(Workload::Fleet(serve::FLEET_H4)),
            "walk-sim" => Some(Workload::WalkSim),
            _ => None,
        }
    }

    /// Builds a round's inputs; the reference round is a smaller one.
    fn build(self, seed: u64, reference: bool) -> Instance {
        match self {
            Workload::Fleet(f) => Instance::Fleet(Box::new(serve::build(f, seed))),
            Workload::WalkSim => {
                let calls = if reference { 1 } else { sim::CALLS_PER_ROUND };
                Instance::WalkSim(sim::setup(seed, calls))
            }
        }
    }

    fn run(self, instance: Instance, reference: bool, trace: Option<&mut Recorder>) -> Round {
        match instance {
            Instance::Fleet(built) => {
                let slots = if reference {
                    serve::REFERENCE_SLOTS
                } else {
                    serve::ROUND_SLOTS
                };
                serve::run(*built, slots, trace)
            }
            Instance::WalkSim(setup) => sim::run(&setup, trace),
        }
    }

    /// Fingerprint of the fixed-seed reference round.
    fn reference_fingerprint(self) -> u64 {
        let instance = self.build(REFERENCE_SEED, true);
        self.run(instance, true, None).fingerprint
    }
}

/// Builds a round's inputs repeatedly and returns the last build with
/// the per-build time of each timed batch.
fn timed_build(workload: Workload, seed: u64) -> (Instance, Vec<f64>) {
    let start = Instant::now();
    let first = workload.build(seed, false);
    let one = start.elapsed().as_nanos().max(1);
    let batch = (SETUP_BATCH_TIME.as_nanos() / one).clamp(1, 1000) as usize;
    let mut held = vec![first];
    held.reserve(batch);
    let mut samples = Vec::new();
    let mut spent = Duration::ZERO;
    while samples.len() < SETUP_MIN_REPS
        || (spent < SETUP_MIN_TIME && samples.len() < SETUP_MAX_REPS)
    {
        // Free the previous batch outside the timed region.
        held.clear();
        let start = Instant::now();
        for _ in 0..batch {
            held.push(std::hint::black_box(workload.build(seed, false)));
        }
        let took = start.elapsed();
        samples.push(took.as_secs_f64() / batch as f64);
        spent += took;
    }
    (held.pop().expect("at least one batch ran"), samples)
}

/// Repeats whole rounds until the next one would overrun `seconds`
/// (always at least one).
fn timed_pass(
    workload: Workload,
    seed: u64,
    seconds: f64,
    mut trace: Option<&mut Recorder>,
) -> Vec<Round> {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut rounds = Vec::new();
    loop {
        let round_start = Instant::now();
        let (instance, setup_s) = timed_build(workload, seed);
        if let Some(rec) = trace.as_deref_mut() {
            rec.push(
                "setup",
                rounds.len() as u64,
                None,
                round_start,
                Instant::now(),
            );
        }
        let mut round = workload.run(instance, false, trace.as_deref_mut());
        round.setup_s = setup_s;
        rounds.push(round);
        if start.elapsed() + round_start.elapsed() > budget {
            return rounds;
        }
    }
}

/// The outcome of one benchmark invocation.
struct Outcome {
    errors: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64)>,
    notes: Vec<String>,
}

/// Output checks shared by both passes: every round must reproduce the
/// first round's fingerprint, and no round may report a failed check.
fn check_rounds(rounds: &[Round], errors: &mut Vec<String>) {
    for (i, r) in rounds.iter().enumerate() {
        errors.extend(r.errors.iter().map(|e| format!("round {i}: {e}")));
        if r.fingerprint != rounds[0].fingerprint {
            errors.push(format!(
                "round {i} fingerprint {:#018x} differs from round 0 ({:#018x}): the program is not deterministic",
                r.fingerprint, rounds[0].fingerprint
            ));
        }
    }
}

/// Runs one workload and gathers its metrics.
fn bench(workload: Workload, name: &str, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut errors = Vec::new();
    let mut notes = Vec::new();

    // Correctness gate first; it doubles as warm-up.
    let got = workload.reference_fingerprint();
    match fingerprint::recorded(name) {
        Some(want) if want == got => notes.push(format!("reference fingerprint {got:#018x} ok")),
        Some(want) => errors.push(format!(
            "reference fingerprint {got:#018x} != recorded {want:#018x}: outputs changed"
        )),
        None => errors.push(format!("no recorded fingerprint for {name}")),
    }

    // A traced run splits its time: an untraced pass first, then the
    // traced pass the per-layer values come from. Both count as attempted
    // work and both must reproduce the same outputs.
    let (rounds, layers) = if traced {
        let mut rounds = timed_pass(workload, seed, seconds / 2.0, None);
        let plain = rounds.len();
        let mut rec = Recorder::default();
        rounds.extend(timed_pass(workload, seed, seconds / 2.0, Some(&mut rec)));
        let (untraced, traced) = rounds.split_at(plain);
        let rate = |rs: &[Round]| stats::median(&round::throughputs(rs)).unwrap_or(0.0);
        let mut layers = round::mean_layers(traced);
        layers.push((
            "trace.overhead_pct",
            (rate(untraced) / rate(traced) - 1.0) * 100.0,
        ));
        // Central timings come from the untraced pass; they vary too much
        // between runs on a shared host to carry a bound (see README.md).
        let slot_ms: Vec<f64> = untraced
            .iter()
            .flat_map(|r| r.slot_ms.iter().copied())
            .collect();
        layers.push(("slot_ms_p50", stats::median(&slot_ms).unwrap_or(0.0)));
        layers.push(("user_slots_per_s", rate(untraced)));
        let path = std::path::Path::new(TRACE_DIR).join(format!("{name}-seed{seed}.csv"));
        match rec.write_csv(&path) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                rec.spans().len(),
                path.display()
            )),
            Err(e) => errors.push(format!("writing {}: {e}", path.display())),
        }
        (rounds, Some(layers))
    } else {
        (timed_pass(workload, seed, seconds, None), None)
    };
    check_rounds(&rounds, &mut errors);

    let attempted: u64 = rounds.iter().map(|r| r.user_slots).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    let metrics = match layers {
        Some(mut layers) => {
            layers.push(("failed_frac", round::failed_frac(failed, attempted)));
            metrics::PER_LAYER
                .iter()
                .map(|d| {
                    let v = layers
                        .iter()
                        .find(|(n, _)| *n == d.name)
                        .map_or(0.0, |l| l.1);
                    (d.name, v)
                })
                .collect()
        }
        None => {
            let setup_s: Vec<f64> = rounds
                .iter()
                .flat_map(|r| r.setup_s.iter().copied())
                .collect();
            let per_round: Vec<&[f64]> = rounds.iter().map(|r| r.slot_ms.as_slice()).collect();
            let p99 = stats::block_tail(&per_round, 99.0);
            match p99 {
                Some(t) => notes.push(format!(
                    "slot_ms_p99 is the median block p{:.2} of {} slot samples",
                    t.percentile, t.samples
                )),
                None => errors.push("too few slot samples for a tail".to_string()),
            }
            let setup = stats::tail(&setup_s, SETUP_PERCENTILE);
            match setup {
                Some(t) => notes.push(format!(
                    "setup_s is the p{:.2} of {} set-up samples",
                    t.percentile, t.samples
                )),
                None => errors.push("too few set-up samples for a percentile".to_string()),
            }
            vec![
                ("setup_s", setup.map_or(0.0, |t| t.value)),
                ("slot_ms_p99", p99.map_or(0.0, |t| t.value)),
                ("qoe", rounds[0].qoe),
                ("viewed_quality", rounds[0].viewed_quality),
            ]
        }
    };
    for (name, value) in &metrics {
        if !value.is_finite() {
            errors.push(format!("{name} is {value}"));
        }
    }
    notes.push(format!(
        "{} rounds, {attempted} user-slots, {failed} failed",
        rounds.len()
    ));
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.4}", stats::median(&r.slot_ms).unwrap_or(0.0)))
        .collect();
    notes.push(format!("per-round slot_ms_p50: {}", per_round.join(" ")));
    let per_round: Vec<String> = rounds
        .iter()
        .map(|r| format!("{:.4e}", stats::median(&r.setup_s).unwrap_or(0.0)))
        .collect();
    notes.push(format!("per-round setup_s: {}", per_round.join(" ")));
    Outcome {
        errors,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// The result line: one JSON object.
fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value)| {
            let unit = metrics::find(name).map_or("", |d| d.unit);
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    )
}

/// Parsed command line.
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
    record: bool,
}

const USAGE: &str = "usage: cvr-repobench --workload <fleet|fleet-h4|walk-sim> --seed <n> \
--seconds <s> --trace <0|1>\n       cvr-repobench --steadiness <reps> [--seconds <s>] [--workload <w>]\n       \
cvr-repobench --record-fingerprints";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steadiness: None,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record-fingerprints" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            "--steadiness" => args.steadiness = Some(value.parse().map_err(|e| bad(&e))?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if let Some(w) = &args.workload {
        if Workload::parse(w).is_none() {
            return Err(format!("unknown workload {w}"));
        }
    }
    Ok(args)
}

/// Runs every workload `reps` times, interleaved, each time with another
/// seed, and prints each end-to-end metric's median, quartiles and
/// spread (interquartile distance over median) per workload.
fn steadiness(reps: usize, seconds: f64, only: Option<&str>) -> bool {
    let names: Vec<&str> = WORKLOADS
        .iter()
        .copied()
        .filter(|w| only.is_none_or(|o| o == *w))
        .collect();
    let mut values: Vec<Vec<Vec<f64>>> =
        vec![vec![Vec::new(); metrics::END_TO_END.len()]; names.len()];
    let mut ok = true;
    for rep in 0..reps {
        for (wi, name) in names.iter().enumerate() {
            let workload = Workload::parse(name).expect("listed workload");
            let outcome = bench(workload, name, rep as u64 + 1, seconds, false);
            for e in &outcome.errors {
                eprintln!("{name} rep {rep}: {e}");
                ok = false;
            }
            for (mi, d) in metrics::END_TO_END.iter().enumerate() {
                if let Some(&(_, v)) = outcome.metrics.iter().find(|(n, _)| *n == d.name) {
                    values[wi][mi].push(v);
                }
            }
            println!("rep {rep} {name}: {}", result_json(&outcome));
        }
    }
    println!("workload metric better median q1 q3 spread");
    for (wi, name) in names.iter().enumerate() {
        for (mi, d) in metrics::END_TO_END.iter().enumerate() {
            let v = &values[wi][mi];
            let (q1, q3) = stats::quartiles(v).unwrap_or((f64::NAN, f64::NAN));
            println!(
                "{name} {} {} {:.6e} {:.6e} {:.6e} {:.4}",
                d.name,
                d.better,
                stats::median(v).unwrap_or(f64::NAN),
                q1,
                q3,
                stats::relative_spread(v)
            );
        }
    }
    ok
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("host {}", host::json());
    if args.record {
        for name in WORKLOADS {
            let workload = Workload::parse(name).expect("listed workload");
            println!("{name} {:#018x}", workload.reference_fingerprint());
        }
        return ExitCode::SUCCESS;
    }
    if let Some(reps) = args.steadiness {
        let ok = steadiness(reps, args.seconds, args.workload.as_deref());
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = args.workload else {
        eprintln!("--workload is required\n{USAGE}");
        return ExitCode::from(2);
    };
    let workload = Workload::parse(&name).expect("checked in parse_args");
    let outcome = bench(workload, &name, args.seed, args.seconds, args.trace);
    for note in &outcome.notes {
        println!("{name}: {note}");
    }
    for (metric, value) in &outcome.metrics {
        if let Some(d) = metrics::find(metric) {
            println!(
                "{name}: {metric} = {value} {} ({} is better)",
                d.unit, d.better
            );
        }
    }
    for e in &outcome.errors {
        eprintln!("{name}: INCORRECT: {e}");
    }
    println!("{}", result_json(&outcome));
    if outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
