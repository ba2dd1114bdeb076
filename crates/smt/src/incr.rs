//! Persistent incremental SMT contexts for the Liquid fixpoint.
//!
//! The fixpoint re-validates each candidate qualifier of a κ-headed
//! constraint on every weakening iteration. A fresh [`crate::Solver`]
//! call re-encodes and re-CNFs the whole query each time — 85–96% of a
//! cold check. An [`IncrContext`] instead keeps one SAT instance, one
//! term arena and one atom table alive per constraint:
//!
//! - Every hypothesis conjunct and every goal is encoded **once**, the
//!   first time it appears, under an *activation literal* `a` with the
//!   clause `¬a ∨ root(p)`. Asserting the item in a later query is just
//!   assuming `a` ([`crate::sat::SatSolver::solve_under`]); a dropped
//!   item's clauses stay behind, inert, because Tseitin definitions are
//!   bidirectional and fully define their fresh variables.
//! - Learnt clauses and theory blocking clauses are retained across
//!   queries: both are implied by the clause database alone (blocking
//!   clauses state theory-valid facts about atoms whose meaning never
//!   changes), so each query starts where the last one left off.
//! - Theory checks are *scoped* ([`crate::theory::check_scoped`]): only
//!   the atoms of the current query are assigned, only the defining
//!   equations reachable from it are passed, and the heuristic arena
//!   sweeps are restricted to the query's subterm closure, so unrelated
//!   queries sharing the context can neither consume bounded probe
//!   budgets nor surface in each other's conflicts.
//!
//! # Context-per-constraint invariants
//!
//! A context must only be reused across queries that share one sort
//! environment (in the fixpoint: one constraint's binder scope layered
//! over the program environment). Item identity is the `(Pred, polarity)`
//! pair; the caller must not reuse a context across scopes where the
//! same predicate text means different sorts. Verdicts are `Unsat` only
//! when the clause database plus assumptions is refuted — activation
//! implications, Tseitin definitions and retained blocking clauses are
//! all consequences of the asserted items' theory semantics, so an
//! `Unsat` here is an `Unsat` of the original conjunction.

use std::collections::{BTreeSet, HashMap};

use rsc_logic::{Pred, SortLookup};

use crate::atom::{AtomData, AtomId, Formula, NLinExp};
use crate::bv::Blaster;
use crate::cnf::{tseitin, ClauseSink};
use crate::encode::{Encoder, EncoderState};
use crate::node::{Node, NodeId};
use crate::sat::{Lit, SatOutcome, SatSolver};
use crate::solver::{SatResult, SolverStats};
use crate::theory::{self, TheoryVerdict};

/// How one encoded item participates in queries.
///
/// Atom lists are shared (`Arc`): the hot path clones the slot on every
/// query of every item, and the list is immutable after encoding.
#[derive(Clone, Debug)]
enum Slot {
    /// Assume `lit` to assert the item; `atoms` are the theory atoms it
    /// references (for scoping the theory check).
    Active {
        lit: Lit,
        atoms: std::sync::Arc<[AtomId]>,
    },
    /// The item simplified to `true`; it asserts nothing, but its atoms
    /// (interned before folding) still join the query scope, mirroring
    /// the fresh encoder whose table keeps them.
    Tautology { atoms: std::sync::Arc<[AtomId]> },
    /// The item simplified to `false`: any query asserting it is Unsat.
    Contradiction,
    /// The item failed to encode: any query asserting it is Unknown.
    Poisoned,
}

/// A persistent incremental solving context (one per constraint).
pub struct IncrContext {
    sat: SatSolver,
    st: EncoderState,
    blaster: Blaster,
    /// SAT literal of each atom in `st.atoms` (parallel).
    atom_lits: Vec<Lit>,
    /// Encoded items, keyed by predicate; the two cells are the slots
    /// for the encoding polarities (index `pol as usize` — hypotheses
    /// use `true`; goals are refuted, so they use `false`). Keying by
    /// predicate alone lets the hot lookup borrow the caller's `&Pred`
    /// instead of cloning one per query item.
    items: HashMap<Pred, [Option<Slot>; 2]>,
}

impl IncrContext {
    /// An empty context.
    pub fn new() -> Self {
        IncrContext {
            sat: SatSolver::new(),
            st: EncoderState::new(),
            blaster: Blaster::new(),
            atom_lits: Vec::new(),
            items: HashMap::new(),
        }
    }

    /// Number of items encoded so far (observability).
    pub fn items_len(&self) -> usize {
        self.items
            .values()
            .map(|slots| slots.iter().flatten().count())
            .sum()
    }

    /// Allocates SAT literals for atoms interned since the last call.
    fn extend_atom_lits(&mut self) {
        while self.atom_lits.len() < self.st.atoms.len() {
            let i = self.atom_lits.len();
            let lit = match self.st.atoms[i].clone() {
                AtomData::BvEq(x, y) => self.blaster.eq_lit(&x, &y, &mut self.sat),
                _ => Lit::pos(ClauseSink::new_var(&mut self.sat)),
            };
            self.atom_lits.push(lit);
        }
    }

    /// Atoms referenced by a simplified formula, in first-occurrence
    /// traversal order.
    fn formula_atoms(f: &Formula, out: &mut Vec<AtomId>, seen: &mut BTreeSet<u32>) {
        match f {
            Formula::Const(_) => {}
            Formula::Lit(a, _) => {
                if seen.insert(a.0) {
                    out.push(*a);
                }
            }
            Formula::And(fs) | Formula::Or(fs) => {
                for g in fs {
                    Self::formula_atoms(g, out, seen);
                }
            }
        }
    }

    /// Encodes `(pred, pol)` into the context if not already present and
    /// returns its slot.
    fn item(&mut self, env: &dyn SortLookup, pred: &Pred, pol: bool) -> Slot {
        if let Some(Some(slot)) = self.items.get(pred).map(|s| &s[pol as usize]) {
            return slot.clone();
        }
        let atoms_before = self.st.atoms.len() as u32;
        let mut enc = Encoder::over(env, &mut self.st);
        let slot = match enc.encode_pred(pred, pol) {
            Err(_) => Slot::Poisoned,
            Ok(f) => {
                let f = f.simplify();
                // Atoms of the item: those its formula references plus any
                // interned during encoding but folded away (the fresh
                // encoder keeps the latter in its table too, where they
                // get model polarities and join the theory check).
                let mut atoms = Vec::new();
                let mut seen = BTreeSet::new();
                Self::formula_atoms(&f, &mut atoms, &mut seen);
                for i in atoms_before..self.st.atoms.len() as u32 {
                    if seen.insert(i) {
                        atoms.push(AtomId(i));
                    }
                }
                match f {
                    Formula::Const(true) => Slot::Tautology {
                        atoms: atoms.into(),
                    },
                    Formula::Const(false) => Slot::Contradiction,
                    g => {
                        self.extend_atom_lits();
                        let atom_lits = &self.atom_lits;
                        let lookup = |a: AtomId, pol: bool| {
                            let l = atom_lits[a.0 as usize];
                            if pol {
                                l
                            } else {
                                l.negate()
                            }
                        };
                        let root = tseitin(&g, &lookup, &mut self.sat);
                        let a = Lit::pos(ClauseSink::new_var(&mut self.sat));
                        self.sat.add_clause(vec![a.negate(), root]);
                        Slot::Active {
                            lit: a,
                            atoms: atoms.into(),
                        }
                    }
                }
            }
        };
        self.items.entry(pred.clone()).or_insert([None, None])[pol as usize] = Some(slot.clone());
        slot
    }

    /// The subterm closure of the query's atoms, together with every
    /// defining equation whose lifted node it reaches (a fixpoint: a
    /// definition's right-hand side joins the closure, which can pull in
    /// further definitions). Returns the sorted scope and the selected
    /// definitions in table order.
    fn scope_and_defs(&self, atoms: &[AtomId]) -> (Vec<NodeId>, Vec<NLinExp>) {
        let mut scope: BTreeSet<NodeId> = BTreeSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &a in atoms {
            match &self.st.atoms[a.0 as usize] {
                AtomData::LinLe(l) => stack.extend(l.coeffs.keys().copied()),
                AtomData::IntEq(l, pair) => {
                    stack.extend(l.coeffs.keys().copied());
                    if let Some((x, y)) = pair {
                        stack.push(*x);
                        stack.push(*y);
                    }
                }
                AtomData::EufEq(x, y) => {
                    stack.push(*x);
                    stack.push(*y);
                }
                AtomData::BoolNode(n) => stack.push(*n),
                AtomData::BvEq(..) => {}
            }
        }
        // True/false nodes are always in scope (BoolNode merges them).
        stack.push(self.st.true_node);
        stack.push(self.st.false_node);
        let mut included = vec![false; self.st.defs.len()];
        loop {
            while let Some(n) = stack.pop() {
                if !scope.insert(n) {
                    continue;
                }
                if let Node::App(_, args, _) = self.st.arena.node(n) {
                    stack.extend(args.iter().copied());
                }
            }
            let mut grew = false;
            for (i, dn) in self.st.def_nodes.iter().enumerate() {
                if !included[i] && scope.contains(dn) {
                    included[i] = true;
                    stack.extend(self.st.defs[i].coeffs.keys().copied());
                    grew = true;
                }
            }
            if !grew {
                break;
            }
        }
        let defs = included
            .iter()
            .enumerate()
            .filter(|(_, inc)| **inc)
            .map(|(i, _)| self.st.defs[i].clone())
            .collect();
        (scope.into_iter().collect(), defs)
    }

    /// Checks satisfiability of `hyps ∧ ¬goal` in this context. `Unsat`
    /// means the implication `hyps ⇒ goal` is valid. Mirrors
    /// [`crate::Solver::is_sat`] over the persistent state: same
    /// simplification short-circuits, same DPLL(T) loop, same greedy core
    /// minimization — but encoding is incremental and learnt/blocking
    /// clauses persist.
    pub fn query(
        &mut self,
        env: &dyn SortLookup,
        hyps: &[Pred],
        goal: &Pred,
        stats: &mut SolverStats,
        max_rounds: usize,
    ) -> SatResult {
        stats.queries += 1;
        let mut assumptions: Vec<Lit> = Vec::new();
        let mut relevant: Vec<AtomId> = Vec::new();
        let mut seen_atoms: BTreeSet<u32> = BTreeSet::new();
        let mut add_atoms = |relevant: &mut Vec<AtomId>, atoms: &[AtomId]| {
            for &a in atoms {
                if seen_atoms.insert(a.0) {
                    relevant.push(a);
                }
            }
        };
        // Items in fresh-solver order: hypotheses, then the negated goal.
        let goal_key = (goal, false);
        for (pred, pol) in hyps
            .iter()
            .map(|h| (h, true))
            .chain(std::iter::once(goal_key))
        {
            match self.item(env, pred, pol) {
                Slot::Poisoned => return SatResult::Unknown,
                Slot::Contradiction => return SatResult::Unsat,
                Slot::Tautology { atoms } => add_atoms(&mut relevant, &atoms),
                Slot::Active { lit, atoms } => {
                    add_atoms(&mut relevant, &atoms);
                    assumptions.push(lit);
                }
            }
        }
        let (scope, defs) = self.scope_and_defs(&relevant);
        // Ascending-id copy of the relevant atoms: the theory check
        // derives its involved sets from this instead of scanning the
        // context's whole atom table on every (re-)check.
        let mut assigned_hint = relevant.clone();
        assigned_hint.sort_unstable_by_key(|a| a.0);
        if assumptions.is_empty() && defs.is_empty() {
            return SatResult::Sat;
        }
        if self.sat.is_unsat() {
            // The clause database itself is contradictory (a hypothesis
            // set once asserted `false` at level zero — cannot happen
            // via activation literals, but stay defensive).
            return SatResult::Unsat;
        }

        for _round in 0..max_rounds {
            stats.sat_rounds += 1;
            match self.sat.solve_under(&assumptions) {
                SatOutcome::Unsat => return SatResult::Unsat,
                SatOutcome::Sat(model) => {
                    let mut assign: Vec<Option<bool>> = vec![None; self.st.atoms.len()];
                    for &a in &relevant {
                        let i = a.0 as usize;
                        if matches!(self.st.atoms[i], AtomData::BvEq(..)) {
                            continue;
                        }
                        let l = self.atom_lits[i];
                        let val = model[l.var() as usize];
                        assign[i] = Some(if l.is_neg() { !val } else { val });
                    }
                    let run = |assign: &[Option<bool>], stats: &mut SolverStats| {
                        theory::check_scoped(
                            &self.st.arena,
                            &self.st.atoms,
                            &defs,
                            assign,
                            self.st.true_node,
                            self.st.false_node,
                            Some(&scope),
                            Some(&assigned_hint),
                            stats,
                        )
                    };
                    match run(&assign, stats) {
                        TheoryVerdict::Consistent => return SatResult::Sat,
                        TheoryVerdict::Conflict(ids) => {
                            stats.theory_conflicts += 1;
                            let restrict = |core: &[AtomId]| {
                                let mut a: Vec<Option<bool>> = vec![None; assign.len()];
                                for id in core {
                                    a[id.0 as usize] = assign[id.0 as usize];
                                }
                                a
                            };
                            let mut core = ids.clone();
                            let mut check_core = |core: &[AtomId]| {
                                matches!(run(&restrict(core), stats), TheoryVerdict::Conflict(_))
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
                                    let l = self.atom_lits[id.0 as usize];
                                    match assign[id.0 as usize] {
                                        Some(true) => l.negate(),
                                        _ => l,
                                    }
                                })
                                .collect();
                            if clause.is_empty() {
                                return SatResult::Unsat;
                            }
                            // Blocking clauses are theory-valid facts about
                            // the atoms: sound to retain for every future
                            // query of this context.
                            self.sat.add_clause(clause);
                        }
                    }
                }
            }
        }
        SatResult::Unknown
    }
}

impl Default for IncrContext {
    fn default() -> Self {
        IncrContext::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::{CmpOp, Sort, SortEnv, Term};

    fn env() -> SortEnv {
        let mut e = SortEnv::new();
        e.bind("x", Sort::Int);
        e.bind("y", Sort::Int);
        e.bind("v", Sort::Int);
        e.bind("a", Sort::Ref);
        e
    }

    fn le(a: Term, b: Term) -> Pred {
        Pred::cmp(CmpOp::Le, a, b)
    }

    #[test]
    fn valid_and_invalid_in_one_context() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let hyp = le(Term::int(0), Term::var("x"));
        let weak = le(Term::int(-1), Term::var("x"));
        let wrong = le(Term::int(1), Term::var("x"));
        assert_eq!(
            ctx.query(&e, std::slice::from_ref(&hyp), &weak, &mut stats, 600),
            SatResult::Unsat,
            "0 <= x ⊢ -1 <= x must be valid"
        );
        assert_eq!(
            ctx.query(&e, std::slice::from_ref(&hyp), &wrong, &mut stats, 600),
            SatResult::Sat,
            "0 <= x ⊬ 1 <= x"
        );
        // Re-ask the valid one: the context must still answer correctly
        // after a Sat query and its retained clauses.
        assert_eq!(
            ctx.query(&e, &[hyp], &weak, &mut stats, 600),
            SatResult::Unsat
        );
    }

    #[test]
    fn hypothesis_subsets_via_activation_literals() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let h1 = le(Term::int(0), Term::var("x"));
        let h2 = le(Term::var("x"), Term::var("y"));
        let goal = le(Term::int(0), Term::var("y"));
        assert_eq!(
            ctx.query(&e, &[h1.clone(), h2.clone()], &goal, &mut stats, 600),
            SatResult::Unsat
        );
        // Dropping h2 invalidates the implication; its clauses must be
        // inert when its activation literal is not assumed.
        assert_eq!(ctx.query(&e, &[h1], &goal, &mut stats, 600), SatResult::Sat);
        assert_eq!(ctx.query(&e, &[h2], &goal, &mut stats, 600), SatResult::Sat);
    }

    #[test]
    fn contradictory_hypothesis_and_tautology() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        let fals = Pred::cmp(CmpOp::Lt, Term::int(1), Term::int(0));
        let goal = le(Term::int(1), Term::var("x"));
        assert_eq!(
            ctx.query(&e, &[fals], &goal, &mut stats, 600),
            SatResult::Unsat,
            "false hypothesis proves anything"
        );
        // The contradiction must not poison unrelated queries.
        let taut = le(Term::int(0), Term::int(1));
        assert_eq!(
            ctx.query(&e, &[taut], &goal, &mut stats, 600),
            SatResult::Sat
        );
    }

    #[test]
    fn euf_congruence_across_queries() {
        let e = env();
        let mut ctx = IncrContext::new();
        let mut stats = SolverStats::default();
        // 0 <= len(a) ∧ v = len(a) ⊢ 0 <= v
        let len_a = Term::len_of(Term::var("a"));
        let h1 = le(Term::int(0), len_a.clone());
        let h2 = Pred::vv_eq(len_a);
        let goal = le(Term::int(0), Term::vv());
        assert_eq!(
            ctx.query(&e, &[h1.clone(), h2.clone()], &goal, &mut stats, 600),
            SatResult::Unsat
        );
        // A weaker query in the same context: h1 alone does not bound v.
        assert_eq!(ctx.query(&e, &[h1], &goal, &mut stats, 600), SatResult::Sat);
    }
}
