//! Host metadata recorded with every run: logical CPUs online, the CPU
//! model, and what the standard library reports as available
//! parallelism (which also honours affinity masks and cgroup quotas).

use std::fmt::Write as _;

extern "C" {
    fn sysconf(name: i32) -> i64;
}

/// `_SC_NPROCESSORS_ONLN` on Linux (glibc and musl).
const SC_NPROCESSORS_ONLN: i32 = 84;

/// Logical CPUs online, as `nproc --all` counts them.
pub fn nproc() -> u64 {
    // SAFETY: `sysconf` takes an integer and reads no caller memory; it
    // is thread-safe and returns -1 for an unknown name.
    let n = unsafe { sysconf(SC_NPROCESSORS_ONLN) };
    u64::try_from(n).unwrap_or(0)
}

/// The CPU brand string from `cpuid` leaves 0x8000_0002..=0x8000_0004.
#[cfg(target_arch = "x86_64")]
pub fn cpu_model() -> String {
    use std::arch::x86_64::__cpuid;
    // Leaf 0x8000_0000 reports the highest extended leaf.
    let max_ext = __cpuid(0x8000_0000).eax;
    if max_ext < 0x8000_0004 {
        return "unknown".to_string();
    }
    let mut bytes = Vec::with_capacity(48);
    for leaf in 0x8000_0002u32..=0x8000_0004 {
        let r = __cpuid(leaf);
        for word in [r.eax, r.ebx, r.ecx, r.edx] {
            bytes.extend_from_slice(&word.to_le_bytes());
        }
    }
    String::from_utf8_lossy(&bytes)
        .trim_matches(char::from(0))
        .trim()
        .to_string()
}

/// The CPU model is only read from `cpuid` on x86_64.
#[cfg(not(target_arch = "x86_64"))]
pub fn cpu_model() -> String {
    "unknown".to_string()
}

/// One JSON object with the host metadata.
pub fn json() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut model = String::new();
    for c in cpu_model().chars() {
        match c {
            '"' | '\\' => {
                let _ = write!(model, "\\{c}");
            }
            c if c.is_control() => {}
            c => model.push(c),
        }
    }
    format!(
        "{{\"nproc\": {}, \"cpu_model\": \"{}\", \"available_parallelism\": {}}}",
        nproc(),
        model,
        parallelism
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_at_least_one_cpu() {
        assert!(nproc() >= 1);
        let j = json();
        assert!(j.starts_with("{\"nproc\": "));
        assert!(j.contains("\"available_parallelism\": "));
        assert!(!cpu_model().is_empty());
    }
}
