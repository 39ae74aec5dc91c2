//! Multicast classroom benchmark: sweeps co-located user counts through
//! `cvr_sim::mcast` at a fixed 400 Mbps server budget, unicast vs
//! multicast, and proves three properties the CI bench gate asserts:
//!
//! * **gain** — shared-FoV dedup lifts delivered quality (≥1.2× at 32
//!   users) while putting *fewer* megabits on the wire;
//! * **determinism** — every multicast run, executed a second time with
//!   the same configuration, reproduces the same FNV-1a fingerprint bit
//!   for bit;
//! * **singleton parity** — a classroom of one (every group has exactly
//!   one member) is bit-identical to the unicast path, the end-to-end
//!   face of the Theorem-1 parity guarantee.
//!
//! Writes `BENCH_mcast.json` at the repository root for `bench_check`
//! and, with `--csv DIR`, a plot-ready `mcast_classroom.csv`.
//!
//! Run: `cargo run -p cvr-bench --release --bin mcast_bench [--quick]`

use cvr_bench::{f3, print_header, print_row, write_csv, FigureArgs};
use cvr_sim::mcast::{run, McastConfig};

/// Co-located classroom sizes the paper's density argument spans.
const USER_SWEEP: [usize; 4] = [8, 16, 32, 64];

fn main() {
    let args = FigureArgs::parse();
    let slots = ((200.0 * args.scale) as u64).max(60);
    println!("# Multicast classroom — {slots} slots, 400 Mbps budget\n");

    let configured = |users: usize, multicast: bool| McastConfig {
        slots,
        seed: args.seed,
        ..McastConfig::classroom(users, multicast)
    };

    // Singleton parity: with one user every staged row is a one-member
    // group, which must be bit-identical to the unicast staging.
    let uni_alone = run(&configured(1, false));
    let multi_alone = run(&configured(1, true));
    let singleton_parity = multi_alone.peak_multicast_groups == 0
        && multi_alone.delivered_quality.to_bits() == uni_alone.delivered_quality.to_bits()
        && multi_alone.wire_mbit.to_bits() == uni_alone.wire_mbit.to_bits();

    print_header(&[
        "users",
        "uni_q",
        "multi_q",
        "gain",
        "uni_mbit",
        "multi_mbit",
        "groups",
        "grp_size",
    ]);
    let mut deterministic = true;
    let mut csv_rows: Vec<String> = Vec::new();
    let mut json_rows: Vec<String> = Vec::new();
    for users in USER_SWEEP {
        let uni = run(&configured(users, false));
        let multi = run(&configured(users, true));
        let check = run(&configured(users, true));
        deterministic &= multi.fingerprint == check.fingerprint;
        let gain = multi.delivered_quality / uni.delivered_quality;
        print_row(&[
            users.to_string(),
            f3(uni.delivered_quality),
            f3(multi.delivered_quality),
            f3(gain),
            f3(uni.wire_mbit),
            f3(multi.wire_mbit),
            multi.peak_multicast_groups.to_string(),
            f3(multi.mean_group_size),
        ]);
        csv_rows.push(format!(
            "{},{:.6},{:.6},{:.6},{:.6},{:.6},{},{:.6}",
            users,
            uni.delivered_quality,
            multi.delivered_quality,
            gain,
            uni.wire_mbit,
            multi.wire_mbit,
            multi.peak_multicast_groups,
            multi.mean_group_size
        ));
        json_rows.push(format!(
            "    {{\"users\": {}, \"unicast_quality\": {:.6}, \"multicast_quality\": {:.6}, \
             \"gain\": {:.6}, \"unicast_wire_mbit\": {:.6}, \"multicast_wire_mbit\": {:.6}, \
             \"peak_groups\": {}, \"mean_group_size\": {:.6}, \
             \"fingerprint_main\": \"{:#018x}\", \"fingerprint_check\": \"{:#018x}\"}}",
            users,
            uni.delivered_quality,
            multi.delivered_quality,
            gain,
            uni.wire_mbit,
            multi.wire_mbit,
            multi.peak_multicast_groups,
            multi.mean_group_size,
            multi.fingerprint,
            check.fingerprint
        ));
    }
    println!();
    println!("determinism across repeated runs: {deterministic}");
    println!("singleton unicast parity: {singleton_parity}");
    assert!(deterministic, "multicast classroom diverged between runs");
    assert!(
        singleton_parity,
        "one-member groups are not bit-identical to unicast"
    );

    if let Some(dir) = &args.csv_dir {
        write_csv(
            dir,
            "mcast_classroom.csv",
            "users,unicast_quality,multicast_quality,gain,unicast_wire_mbit,\
             multicast_wire_mbit,peak_groups,mean_group_size",
            &csv_rows,
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"mcast_classroom\",\n  \"slots\": {},\n  \
         \"server_total_mbps\": 400.0,\n  \"deterministic\": {},\n  \
         \"singleton_parity\": {},\n  \"rows\": [\n{}\n  ]\n}}\n",
        slots,
        deterministic,
        singleton_parity,
        json_rows.join(",\n")
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_mcast.json");
    std::fs::write(out, &json).expect("write benchmark JSON");
    println!("wrote {out}");
}
