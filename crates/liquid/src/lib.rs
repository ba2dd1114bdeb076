//! # rsc-liquid
//!
//! Liquid type inference (Rondon–Kawaguchi–Jhala) as used by RSC
//! (§2.2.1–§2.2.2 of *Refinement Types for TypeScript*, PLDI 2016):
//!
//! 1. the checker creates **templates** — refinements containing
//!    κ-variables — for polymorphic instantiations and Φ-variables,
//! 2. typing produces **subtyping constraints** over the templates,
//! 3. this crate solves them by **predicate abstraction**: each κ starts
//!    as the conjunction of all well-sorted qualifier instantiations and
//!    is iteratively weakened until all κ-headed constraints are valid,
//! 4. remaining concrete constraints are checked under the solution; any
//!    failure is a type error.
//!
//! # Example: inferring the loop invariant of `reduce`
//!
//! See `tests/loop_invariant.rs`, which reproduces the fixpoint run of
//! §2.2.2 ending in `κ_i2 ↦ 0 ≤ ν ∧ ν ≤ len(a)`.

#![warn(missing_docs)]

mod blame;
mod bundle;
mod constraint;
mod fingerprint;
mod solve;

pub use blame::{Blame, ObligationKind};
pub use bundle::{partition, ConstraintBundle};
pub use constraint::{CEnv, ConstraintSet, SubC};
pub use fingerprint::{bundle_fingerprint, global_fingerprint};
pub use solve::{filter_relevant, solve, LiquidResult, Solution};
