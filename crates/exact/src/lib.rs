//! Exhaustive (SILVER-style) probing-security verification.
//!
//! Where `mmaes-leakage` samples, this crate *enumerates*: for a probing
//! set it computes the exact joint distribution of the glitch-extended
//! (optionally transition-extended) observation, conditioned on every
//! value of the unshared secrets, and checks the distributions are
//! identical — the simulatability criterion of the probing model. A
//! passing verdict is a proof (for that probe and model); a failing one
//! comes with a concrete counterexample: two secret assignments whose
//! observation distributions differ, and an observation value witnessing
//! the difference.
//!
//! The paper's conclusion predicts that SILVER, run on the De Meyer
//! Kronecker delta, would confirm PROLEAD's findings; this crate plays
//! that role (experiments E4/E5/E6).
//!
//! # How it scales
//!
//! The circuit is *unrolled* over a window of cycles: every primary
//! input at every cycle is an independent variable (this is what makes
//! the randomness-port timing semantics exact — a port bit at cycle `t`
//! is a different variable from the same port at `t+1`). For each
//! probing set only the variables in the observation's *support*
//! (transitive dependencies through registers) are enumerated; everything
//! else is irrelevant and held at zero. Supports in the Kronecker delta
//! are 15–30 bits, so exhaustive enumeration is fast with the 64-lane
//! bit-parallel simulator. Probes whose support exceeds a configurable
//! bound, or whose observation is wider than a 128-bit key, are reported
//! as [`ProbeVerdict::TooWide`] rather than silently skipped.
//!
//! Each batch of 64 assignments is packed and counted exactly as the
//! statistical campaign does it (`mmaes_leakage::tabulate::Lanes` into a
//! `Table`). Only the first secret value's table and the current one are
//! held, so memory does not grow with the number of secret values, and a
//! leaky set stops at the first secret value whose distribution differs:
//! its cost (and [`ExactReport::cell_evals`]) covers only the secret
//! values enumerated up to the witness.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod report;
pub mod unroll;
mod verifier;

pub use report::{ExactReport, ProbeVerdict};
pub use unroll::{Unrolled, UnrolledVar};
pub use verifier::{ExactConfig, ExactVerifier};
