//! # rsc-smt
//!
//! An SMT solver for the decidable logic used by Refined TypeScript
//! (*Refinement Types for TypeScript*, PLDI 2016): quantifier-free linear
//! integer arithmetic, equality with uninterpreted functions, 32-bit
//! bit-vectors (interface-hierarchy flags, §4.3) and distinct string
//! constants (`ttag` reflection tags, §4.2).
//!
//! The paper discharges verification conditions with Z3 [Nelson 1981 /
//! de Moura–Bjørner]; this crate is a from-scratch replacement covering
//! exactly the fragment RSC emits:
//!
//! * [`sat`] — a CDCL SAT core (watched literals, 1UIP learning),
//! * [`euf`] — congruence closure,
//! * [`lia`] — a bounded simplex over exact rationals (Dutertre–de
//!   Moura) with branch-and-bound, a GCD test for equalities and
//!   model-driven disequality splitting; every feasible answer carries
//!   an integer model,
//! * [`bv`] — eager bit-blasting of 32-bit vector operations,
//! * [`theory`] — EUF+LIA combination by bounded Nelson–Oppen equality
//!   propagation, where pairs an integer model already separates are
//!   pruned and the rest are probed on the live simplex tableau,
//! * [`solver`] — the lazy DPLL(T) driver exposing [`Solver::is_valid`].
//!
//! Every validity query takes one path: a single theory check over its
//! literal conjuncts (which also answers queries that fail to encode),
//! then the shared VC [`cache`], then a fresh encoding solved by DPLL(T),
//! where each round re-solves the query's clauses with a new SAT
//! instance.
//!
//! Soundness contract: the only answer verification relies on is
//! [`SatResult::Unsat`], and every resource cap or incompleteness in the
//! solver errs toward `Sat`/`Unknown`, i.e. toward *rejecting* programs.
//! The LIA core's one cap is its fuel per problem (pivots plus branches,
//! shared by the check and its equality probes); spending it, or
//! overflowing `i128`, answers "feasible".

#![warn(missing_docs)]

pub mod atom;
pub mod bv;
pub mod cache;
pub mod cnf;
pub mod encode;
pub mod euf;
pub mod lia;
pub mod node;
pub mod sat;
pub mod solver;
pub mod theory;

pub use cache::{canonical_query, CacheCounters, CanonicalQuery, DiskCache, VcCache};
pub use solver::{SatResult, Solver, SolverStats};
