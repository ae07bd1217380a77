//! The campaign's typed error surface.
//!
//! Every failure mode of [`crate::campaign::FixedVsRandom::try_run`]
//! is a [`CampaignError`] variant, so CLI layers can map them to exit
//! code 2 (invalid input / infrastructure fault) — deliberately
//! distinct from the exit-1 statistical finding.

use std::fmt;

use mmaes_netlist::{NetlistError, SecretId};

use crate::snapshot::SnapshotError;

/// Error from [`crate::campaign::FixedVsRandom::try_run`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CampaignError {
    /// The netlist failed structural validation.
    Netlist(NetlistError),
    /// The snapshot file could not be loaded, parsed or written.
    Snapshot(SnapshotError),
    /// The netlist declares no secret shares — there is nothing to fix
    /// versus randomize.
    NoSecretShares,
    /// A declared secret's share wires do not form a dense
    /// `share × bit` matrix (no share wires at all, or a hole at some
    /// `(share, bit)` position) — the input driver cannot re-share such
    /// a secret.
    MalformedShares {
        /// The secret whose share matrix is malformed.
        secret: SecretId,
        /// What exactly is missing.
        detail: String,
    },
    /// A batch kept faulting after exhausting its retry
    /// budget (see [`crate::supervisor`]); the campaign stopped with a
    /// contiguous folded prefix and an emergency snapshot.
    Worker {
        /// The batch whose attempts were exhausted.
        batch: u64,
        /// Attempts consumed (the supervisor's full budget).
        attempts: u32,
        /// The last fault's message.
        message: String,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, formatter: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Netlist(error) => write!(formatter, "invalid netlist: {error}"),
            CampaignError::Snapshot(error) => write!(formatter, "{error}"),
            CampaignError::NoSecretShares => {
                write!(formatter, "netlist declares no secret shares")
            }
            CampaignError::MalformedShares { secret, detail } => {
                write!(
                    formatter,
                    "secret {} has a malformed share matrix: {detail}",
                    secret.0
                )
            }
            CampaignError::Worker {
                batch,
                attempts,
                message,
            } => {
                write!(
                    formatter,
                    "batch {batch} failed {attempts} attempts: {message}"
                )
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Netlist(error) => Some(error),
            CampaignError::Snapshot(error) => Some(error),
            CampaignError::NoSecretShares
            | CampaignError::MalformedShares { .. }
            | CampaignError::Worker { .. } => None,
        }
    }
}

impl From<NetlistError> for CampaignError {
    fn from(error: NetlistError) -> Self {
        CampaignError::Netlist(error)
    }
}

impl From<SnapshotError> for CampaignError {
    fn from(error: SnapshotError) -> Self {
        CampaignError::Snapshot(error)
    }
}
