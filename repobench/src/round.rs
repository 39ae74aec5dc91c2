//! What one round of a workload returns, and how rounds add up.

/// The result of one round: a fixed amount of deterministic work, so
/// every round of a run must produce the same fingerprint.
#[derive(Debug, Clone, Default)]
pub struct Round {
    /// One end-to-end slot-time sample per server slot (serve workloads)
    /// or per simulator call (its mean slot time), milliseconds.
    pub slot_ms: Vec<f64>,
    /// Users × slots served in the round.
    pub user_slots: u64,
    /// Server-side seconds: the time the users × slots above took,
    /// excluding the load generator.
    pub server_s: f64,
    /// Mean per-user per-slot QoE (the paper's objective).
    pub qoe: f64,
    /// Mean viewed quality level.
    pub viewed_quality: f64,
    /// User-slots that failed: no decoded assignment, a protocol error,
    /// or a dropped frame.
    pub failed: u64,
    /// FNV-1a fingerprint of the round's outputs.
    pub fingerprint: u64,
    /// Output checks that did not hold.
    pub errors: Vec<String>,
    /// Per-layer values of this round (only filled by a traced round).
    pub layers: Vec<(&'static str, f64)>,
    /// Seconds each timed build of the round's inputs took.
    pub setup_s: Vec<f64>,
}

/// Server-side user-slots per second of each round.
pub fn throughputs(rounds: &[Round]) -> Vec<f64> {
    rounds
        .iter()
        .map(|r| r.user_slots as f64 / r.server_s)
        .collect()
}

/// The seed of item `index` (a client, a simulator call) of a workload
/// seeded with `seed`: one SplitMix64 step, so neighbouring workload
/// seeds share no item seeds.
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(index as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Per-layer values averaged over rounds by name. Rounds repeat the same
/// work, so the mean of per-round means is the mean over the pass, and
/// sums such as "stages + remainder = slot" survive averaging.
pub fn mean_layers(rounds: &[Round]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64, usize)> = Vec::new();
    for round in rounds {
        for &(name, value) in &round.layers {
            match out.iter_mut().find(|(n, _, _)| *n == name) {
                Some(entry) => {
                    entry.1 += value;
                    entry.2 += 1;
                }
                None => out.push((name, value, 1)),
            }
        }
    }
    out.into_iter()
        .map(|(name, sum, n)| (name, sum / n as f64))
        .collect()
}

/// Failures as a share of user-slots attempted.
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_accounting_counts_against_user_slots() {
        assert_eq!(failed_frac(0, 256_000), 0.0);
        assert_eq!(failed_frac(256, 256_000), 0.001);
        assert_eq!(failed_frac(0, 0), 0.0);
    }

    #[test]
    fn layers_average_by_name_and_keep_sums() {
        let round = |slot: f64, stage: f64| Round {
            layers: vec![("slot", slot), ("stage", stage), ("rest", slot - stage)],
            ..Round::default()
        };
        let mean = mean_layers(&[round(10.0, 6.0), round(14.0, 7.0)]);
        let get = |n: &str| mean.iter().find(|(k, _)| *k == n).unwrap().1;
        assert_eq!(get("slot"), 12.0);
        assert_eq!(get("stage") + get("rest"), get("slot"));
    }
}
