//! The DPLL(T) driver: lazy SMT by CDCL enumeration of propositional
//! models with theory-conflict blocking clauses.

use std::sync::Arc;

use rsc_logic::{Pred, SortLookup, SortScope};

use crate::atom::{AtomData, AtomId, Formula};
use crate::bv::Blaster;
use crate::cache::{canonical_query_refs, VcCache};
use crate::cnf::{tseitin, CnfStore};
use crate::encode::{Encoder, EncoderState};
use crate::sat::{Lit, SatOutcome, Var};
use crate::theory::{self, TheoryVerdict};

/// The answer of a satisfiability query.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// A theory-consistent model exists.
    Sat,
    /// No model exists.
    Unsat,
    /// The solver gave up (resource caps or unencodable input). Validity
    /// checking treats this as "not proven".
    Unknown,
}

/// Per-solver statistics.
///
/// A validity query is answered either by the *theory-only* check
/// (`theory_only`) or by the cache/DPLL(T) path (`cache_hits` or
/// `queries`), so `theory_only + cache_hits + cache_misses` is the
/// number of validity questions asked of a cache-attached solver.
///
/// Counters accumulate from the last [`SolverStats::reset`] (or solver
/// creation). Callers that report per-unit numbers — e.g. the parallel
/// checking driver's per-function bundles — must [`SolverStats::take`]
/// between units; earlier versions of the pipeline read the cumulative
/// counters and mis-attributed all prior queries to the last unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Number of satisfiability queries actually solved by DPLL(T)
    /// (cache hits and theory-only answers are counted separately).
    pub queries: u64,
    /// Validity queries answered by one theory check over their literal
    /// conjuncts, without Tseitin, SAT or the VC cache.
    pub theory_only: u64,
    /// Number of validity queries answered "valid".
    pub valid: u64,
    /// Total SAT rounds across all queries.
    pub sat_rounds: u64,
    /// Total theory conflicts (blocking clauses added).
    pub theory_conflicts: u64,
    /// Validity queries answered from the shared VC cache.
    pub cache_hits: u64,
    /// Validity queries that missed the cache and ran the solver.
    pub cache_misses: u64,
    /// LIA searches: one feasibility check per theory-combination round
    /// plus one per equality-probe half.
    pub lia_checks: u64,
    /// Nelson–Oppen equality probes solved on the tableau.
    pub eq_probes: u64,
    /// Equality probes skipped because an integer model already gave the
    /// pair different values.
    pub eq_probes_pruned: u64,
    /// Simplex pivots across all LIA searches.
    pub lia_pivots: u64,
    /// LIA searches that ran out of fuel or overflowed and answered
    /// "feasible" without proof.
    pub lia_gave_up: u64,
}

impl SolverStats {
    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = SolverStats::default();
    }

    /// Returns the counters accumulated so far and resets them — the
    /// per-bundle reporting primitive.
    pub fn take(&mut self) -> SolverStats {
        std::mem::take(self)
    }

    /// Adds `other`'s counters into `self` (merging per-bundle stats).
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.theory_only += other.theory_only;
        self.valid += other.valid;
        self.sat_rounds += other.sat_rounds;
        self.theory_conflicts += other.theory_conflicts;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.lia_checks += other.lia_checks;
        self.eq_probes += other.eq_probes;
        self.eq_probes_pruned += other.eq_probes_pruned;
        self.lia_pivots += other.lia_pivots;
        self.lia_gave_up += other.lia_gave_up;
    }
}

/// An SMT solver for the RSC refinement logic.
///
/// Validity of a verification condition `⟦Γ⟧ ⇒ p ⇒ q` is checked by
/// refuting `⟦Γ⟧ ∧ p ∧ ¬q` (§2.1.1 of the paper).
///
/// ```
/// use rsc_logic::{CmpOp, Pred, Sort, SortEnv, Term};
/// use rsc_smt::Solver;
///
/// let mut env = SortEnv::new();
/// env.bind("a", Sort::Ref);
/// env.bind("v", Sort::Int);
/// // 0 < len(a) ⊢ v = 0 ⇒ 0 ≤ v ∧ v < len(a)   (the `head` example VC)
/// let len_a = Term::len_of(Term::var("a"));
/// let hyp = Pred::cmp(CmpOp::Lt, Term::int(0), len_a.clone());
/// let lhs = Pred::vv_eq(Term::int(0));
/// let rhs = Pred::and(vec![
///     Pred::cmp(CmpOp::Le, Term::int(0), Term::vv()),
///     Pred::cmp(CmpOp::Lt, Term::vv(), len_a),
/// ]);
/// let mut solver = Solver::new();
/// assert!(solver.is_valid(&env, &[hyp, lhs], &rhs));
/// ```
pub struct Solver {
    /// Statistics since the last [`SolverStats::take`]/[`SolverStats::reset`].
    pub stats: SolverStats,
    max_rounds: usize,
    cache: Option<Arc<VcCache>>,
}

impl Solver {
    /// Creates a solver with default resource limits and no VC cache.
    pub fn new() -> Self {
        Solver {
            stats: SolverStats::default(),
            max_rounds: 600,
            cache: None,
        }
    }

    /// Creates a solver that shares `cache` for validity queries.
    ///
    /// With a cache attached, [`Solver::is_valid`] solves the *canonical*
    /// form of each query (see [`crate::cache`]), so its verdict is a
    /// pure function of the canonical fingerprint: hit or miss, and
    /// whichever thread gets there first, the answer is identical.
    pub fn with_cache(cache: Arc<VcCache>) -> Self {
        Solver {
            stats: SolverStats::default(),
            max_rounds: 600,
            cache: Some(cache),
        }
    }

    /// The shared VC cache, when one is attached.
    pub fn cache(&self) -> Option<&Arc<VcCache>> {
        self.cache.as_ref()
    }

    /// The DPLL(T) round cap per query. A query whose `sat_rounds` reach
    /// this bound was answered `Unknown` by resource exhaustion, not by
    /// proof — relevant when comparing cached (canonical-form) and
    /// uncached (original-form) verdicts, which may legitimately differ
    /// on capped queries only.
    pub fn max_rounds(&self) -> usize {
        self.max_rounds
    }

    /// Checks satisfiability of the conjunction of `preds` under `env`
    /// (an owned [`rsc_logic::SortEnv`] or a borrowed
    /// [`rsc_logic::SortScope`] overlay).
    pub fn is_sat(&mut self, env: &dyn SortLookup, preds: &[Pred]) -> SatResult {
        let refs: Vec<&Pred> = preds.iter().collect();
        self.is_sat_refs(env, &refs)
    }

    /// [`Solver::is_sat`] over borrowed conjuncts, so validity checking
    /// can pass `hyps + ¬goal` without cloning every hypothesis.
    fn is_sat_refs(&mut self, env: &dyn SortLookup, preds: &[&Pred]) -> SatResult {
        self.stats.queries += 1;
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(env, &mut st);
        let mut formulas = Vec::new();
        for &p in preds {
            match enc.encode_pred(p, true) {
                Ok(f) => match f.simplify() {
                    Formula::Const(true) => {}
                    Formula::Const(false) => return SatResult::Unsat,
                    g => formulas.push(g),
                },
                Err(_) => return SatResult::Unknown,
            }
        }
        if formulas.is_empty() && st.defs.is_empty() {
            return SatResult::Sat;
        }

        let mut cnf = CnfStore::new();
        let mut blaster = Blaster::new();
        let atoms = st.atoms.clone();
        let mut atom_lits: Vec<Lit> = Vec::with_capacity(atoms.len());
        for a in &atoms {
            match a {
                AtomData::BvEq(x, y) => {
                    let l = blaster.eq_lit(x, y, &mut cnf);
                    atom_lits.push(l);
                }
                _ => {
                    let v: Var = cnf.new_var();
                    atom_lits.push(Lit::pos(v));
                }
            }
        }
        let lookup = |a: crate::atom::AtomId, pol: bool| {
            let l = atom_lits[a.0 as usize];
            if pol {
                l
            } else {
                l.negate()
            }
        };
        for f in &formulas {
            let root = tseitin(f, &lookup, &mut cnf);
            cnf.add_clause(vec![root]);
        }

        for _round in 0..self.max_rounds {
            self.stats.sat_rounds += 1;
            match cnf.solve() {
                SatOutcome::Unsat => return SatResult::Unsat,
                SatOutcome::Sat(model) => {
                    let assign: Vec<Option<bool>> = atoms
                        .iter()
                        .enumerate()
                        .map(|(i, a)| match a {
                            AtomData::BvEq(..) => None,
                            _ => {
                                let l = atom_lits[i];
                                let val = model[l.var() as usize];
                                Some(if l.is_neg() { !val } else { val })
                            }
                        })
                        .collect();
                    match theory::check(
                        &st.arena,
                        &atoms,
                        &st.defs,
                        &assign,
                        st.true_node,
                        st.false_node,
                        &mut self.stats,
                    ) {
                        TheoryVerdict::Consistent => return SatResult::Sat,
                        TheoryVerdict::Conflict(ids) => {
                            self.stats.theory_conflicts += 1;
                            // Core minimization: a short blocking clause
                            // prunes exponentially more models than
                            // negating the whole assignment.
                            let restrict = |core: &[crate::atom::AtomId]| {
                                let mut a: Vec<Option<bool>> = vec![None; assign.len()];
                                for id in core {
                                    a[id.0 as usize] = assign[id.0 as usize];
                                }
                                a
                            };
                            let mut core = ids.clone();
                            let mut check_core = |core: &[crate::atom::AtomId]| {
                                matches!(
                                    theory::check(
                                        &st.arena,
                                        &atoms,
                                        &st.defs,
                                        &restrict(core),
                                        st.true_node,
                                        st.false_node,
                                        &mut self.stats,
                                    ),
                                    TheoryVerdict::Conflict(_)
                                )
                            };
                            // A core covering every assigned atom restricts
                            // to the assignment itself — already known to
                            // conflict, so skip the confirmation check.
                            let assigned = assign.iter().filter(|a| a.is_some()).count();
                            if core.len() >= assigned || check_core(&core) {
                                core = theory::minimize_core(core, check_core);
                            }
                            let clause: Vec<Lit> = core
                                .iter()
                                .map(|id| {
                                    let l = atom_lits[id.0 as usize];
                                    match assign[id.0 as usize] {
                                        Some(true) => l.negate(),
                                        _ => l,
                                    }
                                })
                                .collect();
                            if clause.is_empty() {
                                return SatResult::Unsat;
                            }
                            cnf.add_clause(clause);
                        }
                    }
                }
            }
        }
        SatResult::Unknown
    }

    /// The theory-only path, tried first by every validity query: one
    /// [`theory::check`] over the literal conjuncts of `hyps ∧ ¬goal`,
    /// encoded in the same order as the DPLL(T) path encodes them.
    ///
    /// * A conflict among the literal parts refutes the whole
    ///   conjunction, whatever its non-literal parts say: *valid*.
    /// * When every part is a literal conjunction, every atom is
    ///   assigned and none is a bit-vector atom, the DPLL(T) loop's
    ///   first model is exactly this assignment, so a consistent check
    ///   is the `Sat` that loop would return: *not valid*.
    ///
    /// Anything else — an encoding error, or a consistent check with
    /// disjunctions or unassigned atoms left — returns `None` and the
    /// query takes the full path.
    fn theory_only(&mut self, env: &dyn SortLookup, hyps: &[Pred], goal: &Pred) -> Option<bool> {
        let mut st = EncoderState::new();
        let mut enc = Encoder::over(env, &mut st);
        let mut lits: Vec<(AtomId, bool)> = Vec::new();
        let mut all_literal = true;
        let answer = |stats: &mut SolverStats, r: bool| {
            stats.theory_only += 1;
            Some(r)
        };
        for (p, pol) in hyps.iter().map(|h| (h, true)).chain([(goal, false)]) {
            match enc.encode_pred(p, pol).ok()?.simplify() {
                Formula::Const(true) => {}
                Formula::Const(false) => return answer(&mut self.stats, true),
                Formula::Lit(a, pol) => lits.push((a, pol)),
                Formula::And(fs) => {
                    for f in fs {
                        match f {
                            Formula::Lit(a, pol) => lits.push((a, pol)),
                            _ => all_literal = false,
                        }
                    }
                }
                Formula::Or(_) => all_literal = false,
            }
        }
        let mut assign: Vec<Option<bool>> = vec![None; st.atoms.len()];
        for (a, pol) in lits {
            let slot = &mut assign[a.0 as usize];
            if *slot == Some(!pol) {
                return answer(&mut self.stats, true);
            }
            *slot = Some(pol);
        }
        let verdict = theory::check(
            &st.arena,
            &st.atoms,
            &st.defs,
            &assign,
            st.true_node,
            st.false_node,
            &mut self.stats,
        );
        let complete = || {
            all_literal
                && assign
                    .iter()
                    .zip(&st.atoms)
                    .all(|(a, d)| a.is_some() && !matches!(d, AtomData::BvEq(..)))
        };
        match verdict {
            TheoryVerdict::Conflict(_) => answer(&mut self.stats, true),
            TheoryVerdict::Consistent if complete() => answer(&mut self.stats, false),
            TheoryVerdict::Consistent => None,
        }
    }

    /// Checks validity of `hyps ⇒ goal`: true only when the negation is
    /// proven unsatisfiable (Unknown answers count as *not valid*, the
    /// conservative direction for verification).
    ///
    /// The theory-only path answers literal conjunctions first. With a
    /// [`VcCache`] attached, the remaining queries are canonicalized;
    /// cached Unsat fingerprints answer without solving, and misses
    /// solve the canonical form and memoize an Unsat outcome.
    pub fn is_valid(&mut self, env: &dyn SortLookup, hyps: &[Pred], goal: &Pred) -> bool {
        let _sp = rsc_obs::span!("smt-query");
        if let Some(r) = self.theory_only(env, hyps, goal) {
            return self.count_valid(r);
        }
        let neg_goal = Pred::not(goal.clone());
        let mut preds: Vec<&Pred> = hyps.iter().collect();
        preds.push(&neg_goal);
        let r = match self.cache.clone() {
            Some(cache) => {
                let canonical = canonical_query_refs(env, &preds);
                if cache.probe(&canonical.key) {
                    self.stats.cache_hits += 1;
                    true
                } else {
                    self.stats.cache_misses += 1;
                    // Solve the canonical form under an overlay of the
                    // canonical binders — a pair of borrows, not a clone
                    // of the source environment.
                    let canon_env = SortScope::new(env, &canonical.binders);
                    let unsat = self.is_sat(&canon_env, &canonical.preds) == SatResult::Unsat;
                    if unsat {
                        cache.record_unsat(canonical.key);
                    }
                    unsat
                }
            }
            None => self.is_sat_refs(env, &preds) == SatResult::Unsat,
        };
        self.count_valid(r)
    }

    fn count_valid(&mut self, r: bool) -> bool {
        if r {
            self.stats.valid += 1;
        }
        r
    }

    /// Like [`Solver::is_valid`], but solving inside the persistent
    /// incremental context `ctx` instead of a fresh encoder/CNF. The
    /// theory-only path still runs first, on a fresh encoding.
    ///
    /// The context caches the encoding of every hypothesis and goal it
    /// has seen under activation literals, so repeated queries over the
    /// same constraint (the fixpoint weakening loop) re-solve only the
    /// delta. With a [`VcCache`] attached, the canonical fingerprint is
    /// probed first; on a miss the *original* query form is solved — the
    /// canonical α-renamed form would defeat context reuse — and an
    /// Unsat verdict is recorded under the canonical key. Both forms
    /// refute the same conjunction, so the cached verdict is sound; they
    /// can differ only on round-capped (`Unknown`) queries, which the
    /// cache never stores.
    pub fn is_valid_ctx(
        &mut self,
        ctx: &mut crate::incr::IncrContext,
        env: &dyn SortLookup,
        hyps: &[Pred],
        goal: &Pred,
    ) -> bool {
        let _sp = rsc_obs::span!("smt-query");
        if let Some(r) = self.theory_only(env, hyps, goal) {
            return self.count_valid(r);
        }
        let r = match self.cache.clone() {
            Some(cache) => {
                let neg_goal = Pred::not(goal.clone());
                let mut preds: Vec<&Pred> = hyps.iter().collect();
                preds.push(&neg_goal);
                let canonical = canonical_query_refs(env, &preds);
                if cache.probe(&canonical.key) {
                    self.stats.cache_hits += 1;
                    true
                } else {
                    self.stats.cache_misses += 1;
                    let unsat = ctx.query(env, hyps, goal, &mut self.stats, self.max_rounds)
                        == SatResult::Unsat;
                    if unsat {
                        cache.record_unsat(canonical.key);
                    }
                    unsat
                }
            }
            None => {
                ctx.query(env, hyps, goal, &mut self.stats, self.max_rounds) == SatResult::Unsat
            }
        };
        self.count_valid(r)
    }
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Sort, SortEnv, Term};

    fn int_env() -> SortEnv {
        let mut env = SortEnv::new();
        env.bind("x", Sort::Int);
        env
    }

    fn x_cmp(op: CmpOp, n: i64) -> Pred {
        Pred::cmp(op, Term::var("x"), Term::int(n))
    }

    /// `x < 0 ∨ x > 5 ⊢ x ≠ 3`: valid, but only by case split, so it
    /// takes the DPLL(T) path (and, with a cache attached, the cache).
    fn disjunctive_query() -> (Vec<Pred>, Pred) {
        let hyp = Pred::or(vec![x_cmp(CmpOp::Lt, 0), x_cmp(CmpOp::Gt, 5)]);
        (vec![hyp], x_cmp(CmpOp::Ne, 3))
    }

    /// Per-bundle reporting relies on `take` zeroing the counters: before
    /// this existed, readers of `stats` after each bundle saw cumulative
    /// totals and attributed every earlier bundle's queries to the last.
    #[test]
    fn stats_take_resets_per_bundle_counters() {
        let env = int_env();
        let (hyps, goal) = disjunctive_query();
        let mut s = Solver::new();
        assert!(s.is_valid(&env, &hyps, &goal));
        let first = s.stats.take();
        assert_eq!(first.queries, 1);
        assert_eq!(first.theory_only, 0, "a disjunction needs DPLL(T)");
        assert_eq!(s.stats, SolverStats::default(), "take must reset");
        assert!(s.is_valid(&env, &hyps, &goal));
        assert_eq!(s.stats.queries, 1, "second bundle counts only itself");
        let mut merged = first;
        merged.merge(&s.stats);
        assert_eq!(merged.queries, 2);
        assert_eq!(merged.valid, 2);
    }

    #[test]
    fn cache_hits_skip_solving() {
        let env = int_env();
        let (hyps, goal) = disjunctive_query();
        let cache = VcCache::shared();
        let mut a = Solver::with_cache(cache.clone());
        assert!(a.is_valid(&env, &hyps, &goal));
        assert_eq!(a.stats.cache_misses, 1);
        let mut b = Solver::with_cache(cache);
        assert!(b.is_valid(&env, &hyps, &goal));
        assert_eq!(b.stats.cache_hits, 1);
        assert_eq!(b.stats.queries, 0, "hit must not run the SAT core");
    }

    /// Literal conjunctions are answered by one theory check in both
    /// directions, before the cache and without a SAT round.
    #[test]
    fn literal_conjunctions_take_the_theory_only_path() {
        let env = int_env();
        let cache = VcCache::shared();
        let mut s = Solver::with_cache(cache.clone());
        assert!(s.is_valid(&env, &[x_cmp(CmpOp::Lt, 3)], &x_cmp(CmpOp::Le, 5)));
        assert!(!s.is_valid(&env, &[x_cmp(CmpOp::Lt, 3)], &x_cmp(CmpOp::Le, 1)));
        let mut ctx = crate::incr::IncrContext::new();
        assert!(s.is_valid_ctx(&mut ctx, &env, &[x_cmp(CmpOp::Eq, 2)], &x_cmp(CmpOp::Ge, 2)));
        assert_eq!(s.stats.theory_only, 3);
        assert_eq!(s.stats.valid, 2);
        assert_eq!(s.stats.queries + s.stats.sat_rounds, 0);
        assert_eq!(s.stats.cache_hits + s.stats.cache_misses, 0);
        assert!(
            cache.snapshot_keys().is_empty(),
            "theory-only answers are not memoized"
        );
    }

    fn env_of(binders: &[(&str, Sort)]) -> SortEnv {
        let mut env = SortEnv::new();
        for (x, s) in binders {
            env.bind(*x, *s);
        }
        env.declare_fun("nullv", rsc_logic::FunSig::Fixed(vec![], Sort::Ref));
        env.declare_fun("undefv", rsc_logic::FunSig::Fixed(vec![], Sort::Ref));
        env
    }

    /// `is_valid` on a fresh solver, asserting the theory-only path
    /// answered it.
    fn decide(env: &SortEnv, hyps: &[Pred], goal: &Pred) -> bool {
        let mut s = Solver::new();
        let r = s.is_valid(env, hyps, goal);
        assert_eq!((s.stats.theory_only, s.stats.queries), (1, 0), "{goal}");
        r
    }

    fn int_binders() -> SortEnv {
        env_of(&[("x", Sort::Int), ("y", Sort::Int), ("v", Sort::Int)])
    }

    #[test]
    fn interval_discharge_basics() {
        let env = int_binders();
        // x = 0 ∧ v = x + 1 ⊨ 0 < v
        let hyps = [
            Pred::cmp(CmpOp::Eq, Term::var("x"), Term::int(0)),
            Pred::cmp(
                CmpOp::Eq,
                Term::vv(),
                Term::add(Term::var("x"), Term::int(1)),
            ),
        ];
        let lt = |n| Pred::cmp(CmpOp::Lt, Term::int(n), Term::vv());
        assert!(decide(&env, &hyps, &lt(0)));
        assert!(!decide(&env, &hyps, &lt(1)));
    }

    #[test]
    fn tightening_matches_integer_division() {
        let env = int_binders();
        // 2x ≤ 7 ⊨ x ≤ 3 (integer tightening), but not x ≤ 2.
        let hyps = [Pred::cmp(
            CmpOp::Le,
            Term::mul(Term::int(2), Term::var("x")),
            Term::int(7),
        )];
        assert!(decide(&env, &hyps, &x_cmp(CmpOp::Le, 3)));
        assert!(!decide(&env, &hyps, &x_cmp(CmpOp::Le, 2)));
    }

    /// Contradictory literal hypotheses entail any encodable goal, even
    /// one whose negation is a disjunction the theory check never sees.
    #[test]
    fn contradictory_hypotheses_entail_everything() {
        let env = int_binders();
        let hyps = [x_cmp(CmpOp::Lt, 0), x_cmp(CmpOp::Gt, 0)];
        assert!(decide(&env, &hyps, &Pred::False));
        let goal = Pred::and(vec![x_cmp(CmpOp::Eq, 7), x_cmp(CmpOp::Eq, 8)]);
        assert!(decide(&env, &hyps, &goal));
    }

    #[test]
    fn nullness_through_equalities() {
        let env = env_of(&[("p", Sort::Ref), ("v", Sort::Ref)]);
        let ne = |t: Term, c: &str| Pred::cmp(CmpOp::Ne, t, Term::app(c, vec![]));
        let hyps = [
            ne(Term::var("p"), "nullv"),
            Pred::cmp(CmpOp::Eq, Term::vv(), Term::var("p")),
        ];
        assert!(decide(&env, &hyps, &ne(Term::vv(), "nullv")));
        // EUF cannot refute nullv = undefv.
        assert!(!decide(&env, &hyps, &ne(Term::vv(), "undefv")));
    }

    #[test]
    fn len_atoms_flow_through_axioms() {
        let env = env_of(&[("a", Sort::Ref), ("i", Sort::Int), ("v", Sort::Int)]);
        // 0 ≤ len(a) ∧ i < len(a) ∧ 0 ≤ i ∧ v = i ⊨ 0 ≤ v ∧ v < len(a)
        let len_a = Term::len_of(Term::var("a"));
        let hyps = [
            Pred::cmp(CmpOp::Le, Term::int(0), len_a.clone()),
            Pred::cmp(CmpOp::Lt, Term::var("i"), len_a.clone()),
            Pred::cmp(CmpOp::Le, Term::int(0), Term::var("i")),
            Pred::cmp(CmpOp::Eq, Term::vv(), Term::var("i")),
        ];
        assert!(decide(
            &env,
            &hyps,
            &Pred::cmp(CmpOp::Le, Term::int(0), Term::vv())
        ));
        assert!(decide(
            &env,
            &hyps,
            &Pred::cmp(CmpOp::Lt, Term::vv(), len_a)
        ));
    }

    /// A goal that fails to encode (a variable outside the sort scope)
    /// is never proven — not even under contradictory hypotheses — and
    /// is left to the full path, which answers `Unknown` for it.
    #[test]
    fn unencodable_goal_falls_through() {
        let env = int_env();
        let mut s = Solver::new();
        let hyps = [x_cmp(CmpOp::Lt, 0), x_cmp(CmpOp::Ge, 0)];
        let goal = Pred::vv_eq(Term::var("unbound"));
        assert!(!s.is_valid(&env, &hyps, &goal));
        assert_eq!((s.stats.theory_only, s.stats.queries), (0, 1));
    }
}
