//! Verdicts and reports for exact verification.

use std::fmt;

/// A concrete witness that a probing set leaks: two secret assignments
/// under which the observation distribution differs.
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// Human-readable description of the first secret assignment.
    pub secret_a: String,
    /// Human-readable description of the second secret assignment.
    pub secret_b: String,
    /// The packed observation value whose probability differs.
    pub observation: u128,
    /// Probability of the observation under `secret_a`.
    pub probability_a: f64,
    /// Probability of the observation under `secret_b`.
    pub probability_b: f64,
}

impl fmt::Display for Counterexample {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            formatter,
            "P[obs={:#x} | {}] = {:.6} ≠ {:.6} = P[obs={:#x} | {}]",
            self.observation,
            self.secret_a,
            self.probability_a,
            self.probability_b,
            self.observation,
            self.secret_b
        )
    }
}

/// The exhaustive verdict for one probing set.
#[derive(Debug, Clone, PartialEq)]
pub enum ProbeVerdict {
    /// The observation distribution is identical for every secret value —
    /// a *proof* of security for this probe under the chosen model.
    Secure {
        /// Variables enumerated (conditioning + free).
        support_bits: usize,
        /// Total assignments evaluated.
        enumerated: u64,
    },
    /// The probe leaks; a witness is attached.
    Leaky {
        /// The witnessing distribution difference.
        counterexample: Counterexample,
        /// Variables enumerated.
        support_bits: usize,
    },
    /// The support exceeded the configured enumeration bound, or the
    /// observation is wider than a 128-bit key; no verdict.
    TooWide {
        /// Variables that would have to be enumerated.
        support_bits: usize,
    },
}

impl ProbeVerdict {
    /// True for [`ProbeVerdict::Secure`].
    pub fn is_secure(&self) -> bool {
        matches!(self, ProbeVerdict::Secure { .. })
    }

    /// True for [`ProbeVerdict::Leaky`].
    pub fn is_leaky(&self) -> bool {
        matches!(self, ProbeVerdict::Leaky { .. })
    }
}

/// The result of verifying every enumerable probing set of a design.
#[derive(Debug, Clone)]
pub struct ExactReport {
    /// Design name.
    pub design: String,
    /// Total simulator cell evaluations spent enumerating assignments
    /// (the throughput denominator for cell-evals/sec; probes skipped
    /// as too wide contribute nothing, and a leaky probe stops at its
    /// first differing secret value, so it contributes only the
    /// assignments enumerated up to its witness).
    pub cell_evals: u64,
    /// Per-probe verdicts with the probe labels.
    pub verdicts: Vec<(String, ProbeVerdict)>,
}

impl ExactReport {
    /// True when every probe got a verdict and none leaked.
    pub fn proven_secure(&self) -> bool {
        self.verdicts.iter().all(|(_, verdict)| verdict.is_secure())
    }

    /// True when at least one probe has a leak witness.
    pub fn leak_found(&self) -> bool {
        self.verdicts.iter().any(|(_, verdict)| verdict.is_leaky())
    }

    /// The leaking probes with their witnesses.
    pub fn leaks(&self) -> Vec<(&str, &Counterexample)> {
        self.verdicts
            .iter()
            .filter_map(|(label, verdict)| match verdict {
                ProbeVerdict::Leaky { counterexample, .. } => {
                    Some((label.as_str(), counterexample))
                }
                _ => None,
            })
            .collect()
    }

    /// Number of probes proven secure.
    pub fn secure_count(&self) -> usize {
        self.verdicts
            .iter()
            .filter(|(_, verdict)| verdict.is_secure())
            .count()
    }

    /// Probes skipped because their support or observation was too wide.
    pub fn too_wide(&self) -> Vec<&str> {
        self.verdicts
            .iter()
            .filter_map(|(label, verdict)| match verdict {
                ProbeVerdict::TooWide { .. } => Some(label.as_str()),
                _ => None,
            })
            .collect()
    }
}

impl fmt::Display for ExactReport {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(formatter, "exact verification of `{}`:", self.design)?;
        let secure = self
            .verdicts
            .iter()
            .filter(|(_, verdict)| verdict.is_secure())
            .count();
        let leaky = self.leaks().len();
        let wide = self.too_wide().len();
        writeln!(
            formatter,
            "  {} probes: {} proven secure, {} leaky, {} too wide",
            self.verdicts.len(),
            secure,
            leaky,
            wide
        )?;
        for (label, counterexample) in self.leaks().into_iter().take(8) {
            writeln!(formatter, "  LEAK {label}: {counterexample}")?;
        }
        Ok(())
    }
}
