//! FNV-1a fingerprints of workload outputs and the recorded reference
//! values they are checked against.
//!
//! Every workload first runs a small reference instance with a fixed
//! seed and compares its fingerprint with the value recorded in
//! `fingerprints.txt`. A change that alters any assignment, QoE figure or
//! multicast grouping therefore fails the run instead of reporting a
//! "faster" number.

/// FNV-1a offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// The reference fingerprints, one `workload 0xHEX` line each.
const RECORDED: &str = include_str!("../fingerprints.txt");

/// An FNV-1a hash folded over 64-bit words (little-endian bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Folds one word in.
    pub fn word(&mut self, word: u64) -> &mut Self {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(PRIME);
        }
        self
    }

    /// Folds a float in by its exact bits, so any change in the last
    /// place changes the fingerprint.
    pub fn float(&mut self, value: f64) -> &mut Self {
        self.word(value.to_bits())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// The recorded reference fingerprint of `workload`, if any.
pub fn recorded(workload: &str) -> Option<u64> {
    parse(RECORDED, workload)
}

/// Looks `workload` up in `workload 0xHEX` lines; `#` starts a comment.
fn parse(text: &str, workload: &str) -> Option<u64> {
    text.lines()
        .map(|line| line.split('#').next().unwrap_or("").trim())
        .filter_map(|line| line.split_once(char::is_whitespace))
        .find(|(name, _)| *name == workload)
        .and_then(|(_, hex)| u64::from_str_radix(hex.trim().trim_start_matches("0x"), 16).ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_fnv1a_reference_vectors() {
        // FNV-1a 64 of the empty input is the offset basis; of eight zero
        // bytes it is 0xa8c7f832281a39c5.
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().word(0).finish(), 0xa8c7_f832_281a_39c5);
    }

    #[test]
    fn order_and_last_bit_matter() {
        let a = Fnv::default().word(1).word(2).finish();
        let b = Fnv::default().word(2).word(1).finish();
        assert_ne!(a, b);
        let x = Fnv::default().float(1.0).finish();
        let y = Fnv::default()
            .float(f64::from_bits(1.0f64.to_bits() + 1))
            .finish();
        assert_ne!(x, y);
    }

    #[test]
    fn parses_recorded_lines() {
        let text = "# comment\nfleet 0x00ff\nwalk-sim\t0xABC # trailing\n";
        assert_eq!(parse(text, "fleet"), Some(0xff));
        assert_eq!(parse(text, "walk-sim"), Some(0xabc));
        assert_eq!(parse(text, "fleet-h4"), None);
    }

    #[test]
    fn every_workload_has_a_recorded_fingerprint() {
        for w in crate::WORKLOADS {
            assert!(recorded(w).is_some(), "{w} missing from fingerprints.txt");
        }
    }
}
