//! A clause store with Tseitin transformation from [`Formula`]s.
//!
//! [`CnfStore`] is the one clause target of the solver: the Tseitin
//! transform and the bit-blaster ([`crate::bv`]) write a query's clauses
//! into it, the DPLL(T) driver adds theory blocking clauses, and each
//! round solves the whole store with a fresh [`SatSolver`].

use crate::atom::{AtomId, Formula};
use crate::sat::{Lit, SatOutcome, SatSolver, Var};

/// A persistent store of CNF clauses. The DPLL(T) driver accumulates
/// blocking clauses here and re-solves from scratch each round (VCs are
/// small, so a fresh CDCL run is cheap and keeps the SAT core simple).
#[derive(Default, Debug)]
pub struct CnfStore {
    num_vars: u32,
    clauses: Vec<Vec<Lit>>,
}

impl CnfStore {
    /// An empty store.
    pub fn new() -> Self {
        CnfStore::default()
    }

    /// Allocates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = self.num_vars;
        self.num_vars += 1;
        v
    }

    /// Adds a clause.
    pub fn add_clause(&mut self, lits: Vec<Lit>) {
        self.clauses.push(lits);
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Solves the current clause set with a fresh CDCL solver.
    pub fn solve(&self) -> SatOutcome {
        let mut s = SatSolver::new();
        for _ in 0..self.num_vars {
            s.new_var();
        }
        for c in &self.clauses {
            s.add_clause(c.clone());
        }
        s.solve()
    }
}

/// Tseitin-encodes `f` (which must be free of `Const` after
/// [`Formula::simplify`]) and returns a literal equivalent to `f`.
///
/// `atom_lit` maps an atom with polarity to its SAT literal. The
/// definitional clauses are bidirectional (`o ↔ …`), so each fresh
/// variable is fully defined by its inputs.
pub fn tseitin(f: &Formula, atom_lit: &impl Fn(AtomId, bool) -> Lit, cnf: &mut CnfStore) -> Lit {
    match f {
        Formula::Const(_) => panic!("tseitin: simplify the formula first"),
        Formula::Lit(a, pol) => atom_lit(*a, *pol),
        Formula::And(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| tseitin(g, atom_lit, cnf)).collect();
            let o = Lit::pos(cnf.new_var());
            // o -> l_i
            for &l in &lits {
                cnf.add_clause(vec![o.negate(), l]);
            }
            // (∧ l_i) -> o
            let mut big: Vec<Lit> = lits.iter().map(|l| l.negate()).collect();
            big.push(o);
            cnf.add_clause(big);
            o
        }
        Formula::Or(fs) => {
            let lits: Vec<Lit> = fs.iter().map(|g| tseitin(g, atom_lit, cnf)).collect();
            let o = Lit::pos(cnf.new_var());
            // l_i -> o
            for &l in &lits {
                cnf.add_clause(vec![l.negate(), o]);
            }
            // o -> (∨ l_i)
            let mut big: Vec<Lit> = lits.clone();
            big.push(o.negate());
            cnf.add_clause(big);
            o
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tseitin_and_or() {
        // (a || b) && !a  — satisfiable with b=true, a=false.
        let mut cnf = CnfStore::new();
        let va = cnf.new_var();
        let vb = cnf.new_var();
        let lookup = move |a: AtomId, pol: bool| {
            let v = if a.0 == 0 { va } else { vb };
            Lit::new(v, pol)
        };
        let f = Formula::And(vec![
            Formula::Or(vec![
                Formula::Lit(AtomId(0), true),
                Formula::Lit(AtomId(1), true),
            ]),
            Formula::Lit(AtomId(0), false),
        ]);
        let root = tseitin(&f, &lookup, &mut cnf);
        cnf.add_clause(vec![root]);
        match cnf.solve() {
            SatOutcome::Sat(m) => {
                assert!(!m[va as usize]);
                assert!(m[vb as usize]);
            }
            SatOutcome::Unsat => panic!("expected sat"),
        }
    }

    #[test]
    fn tseitin_unsat() {
        // a && !a
        let mut cnf = CnfStore::new();
        let va = cnf.new_var();
        let lookup = move |_: AtomId, pol: bool| Lit::new(va, pol);
        let f = Formula::And(vec![
            Formula::Lit(AtomId(0), true),
            Formula::Lit(AtomId(0), false),
        ]);
        let root = tseitin(&f, &lookup, &mut cnf);
        cnf.add_clause(vec![root]);
        assert_eq!(cnf.solve(), SatOutcome::Unsat);
    }
}
