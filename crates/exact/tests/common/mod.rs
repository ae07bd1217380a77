//! Helpers shared by the exact-verifier integration tests.

use mmaes_exact::ExactReport;

/// FNV-1a (64-bit) of the report's `"{label}\t{verdict:?}\n"` listing —
/// the listing the repository benchmark digests. Equal digests mean
/// byte-identical verdicts: counterexample keys, probabilities, support
/// widths and `enumerated` counts.
pub fn verdict_digest(report: &ExactReport) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for (label, verdict) in &report.verdicts {
        for &byte in format!("{label}\t{verdict:?}\n").as_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}
