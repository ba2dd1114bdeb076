//! # rsc-absint
//!
//! Abstract interpretation for the RSC refinement checker: a
//! worklist-based forward dataflow analysis over the IRSC SSA form,
//! computing a reduced product of
//!
//! * **intervals** over `i64` with ±∞ (widening at loop heads,
//!   narrowing on descent),
//! * **congruences** `v ≡ r (mod m)`, and
//! * **definite nullness / truthiness**,
//!
//! per SSA value per function unit ([`analyze_program`]).
//!
//! The results feed the **lints** ([`lint_program`]): advisory
//! warnings with stable codes L0001–L0004 (unreachable branch,
//! tautological guard, dead refinement, always-out-of-bounds index).
//! Lints may use the full product including congruences, and never
//! affect type errors or the checker's verdict.
//!
//! This crate decides no verification condition. Obligations whose
//! hypotheses and negated goal are literal conjunctions are answered by
//! the SMT solver's own one-check path (`rsc_smt::Solver::is_valid`),
//! so the fixpoint has one decision procedure.

#![warn(missing_docs)]

pub mod domain;
pub mod engine;
pub mod lint;

pub use domain::{AbsVal, Congruence, Interval, Nullness, Truth};
pub use engine::{analyze_body, analyze_program, AbsEnv, BodyFacts, ProgramFacts};
pub use lint::{lint_program, Lint};
