//! Theory combination: congruence closure (EUF) plus linear integer
//! arithmetic, glued by a bounded Nelson–Oppen equality-propagation loop.
//!
//! Each round closes the EUF atoms, translates the arithmetic atoms over
//! the congruence classes and checks them with the simplex core. If they
//! are feasible, the round looks for an equality between two integer
//! arguments of uninterpreted applications that the arithmetic entails
//! and EUF does not know yet; merging it may expose a new congruence, so
//! the next round starts over. The search is model-based: the core
//! returns integer models, a pair the models give different values
//! cannot be entailed, and only model-equal pairs are probed, each by
//! one bound asserted on the tableau and retracted. At most
//! `MAX_NO_ROUNDS` rounds run, and each visits at most
//! `MAX_EQ_PROBE_PAIRS` pairs.
//!
//! Each [`check`] sees one query's own encoding (the theory-only path's
//! literal conjuncts, or one DPLL(T) round's model), so its sweeps over
//! the arena visit exactly that query's terms.

use rsc_logic::Sort;

use crate::atom::{AtomData, AtomId, NLinExp};
use crate::euf::{Euf, EufResult};
use crate::lia::{LiaProblem, LiaResult, LinExp, Simplex};
use crate::node::{Arena, ConstKind, Node, NodeId};
use crate::solver::SolverStats;

/// The verdict of a theory consistency check over a full propositional
/// assignment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TheoryVerdict {
    /// The assignment is theory-consistent.
    Consistent,
    /// The assignment is inconsistent; the listed atoms participate in the
    /// conflict (a superset of a minimal core).
    Conflict(Vec<AtomId>),
}

const MAX_NO_ROUNDS: usize = 6;

/// Shrinks a conflicting atom core to a 1-minimal one with binary
/// chunking: try dropping left-to-right chunks of halving size, ending
/// with the single-atom pass that guarantees 1-minimality (the final
/// level is exactly the greedy scan). `check(core)` must return whether
/// the assignment restricted to `core` is still theory-inconsistent.
///
/// The typical conflict involves a handful of atoms inside a large
/// assigned set, and every probe is a full theory check — chunking
/// reaches the kernel in `O(k log n)` checks instead of the greedy
/// scan's `O(n)`.
pub fn minimize_core(
    mut core: Vec<AtomId>,
    mut check: impl FnMut(&[AtomId]) -> bool,
) -> Vec<AtomId> {
    let mut chunk = (core.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < core.len() && core.len() > 1 {
            let end = (i + chunk).min(core.len());
            if end - i == core.len() {
                break; // never try the empty core
            }
            let mut trial = Vec::with_capacity(core.len() - (end - i));
            trial.extend_from_slice(&core[..i]);
            trial.extend_from_slice(&core[end..]);
            if check(&trial) {
                core = trial;
            } else {
                i = end;
            }
        }
        if chunk == 1 {
            return core;
        }
        chunk /= 2;
    }
}

/// Derives variable values implied by single-variable linear equalities,
/// propagating until a fixpoint (e.g. `x - 5 = 0` gives `x = 5`, which may
/// determine further equations).
fn derive_constants(eqs: &[crate::lia::LinExp]) -> std::collections::HashMap<u32, i128> {
    let mut values: std::collections::HashMap<u32, i128> = std::collections::HashMap::new();
    let mut work: Vec<crate::lia::LinExp> = eqs.to_vec();
    loop {
        let mut changed = false;
        for e in &mut work {
            // Substitute known values.
            let known: Vec<(u32, i128)> = e
                .coeffs
                .iter()
                .filter_map(|(&x, &c)| values.get(&x).map(|v| (x, c * v)))
                .collect();
            for (x, add) in known {
                e.coeffs.remove(&x);
                e.konst += add;
            }
            if e.coeffs.len() == 1 {
                let (&x, &c) = e.coeffs.iter().next().unwrap();
                if c != 0 && e.konst % c == 0 {
                    let v = -e.konst / c;
                    if values.insert(x, v) != Some(v) {
                        changed = true;
                    }
                    e.coeffs.clear();
                    e.konst = 0;
                }
            }
        }
        if !changed {
            return values;
        }
    }
}
const MAX_EQ_PROBE_PAIRS: usize = 48;

/// The first candidate pair, in order, whose equality the feasible
/// arithmetic rows entail — model-based theory combination.
///
/// Pairs are visited in a fixed order under a budget of
/// [`MAX_EQ_PROBE_PAIRS`]. A pair is skipped without solving when a
/// variable occurs in no row (an unconstrained variable always admits a
/// strict separation) or when an integer model found so far gives the
/// two different values (that model refutes the equality). Skipped pairs
/// still count against the budget, so the pairs visited, and thus the
/// verdict, do not depend on which models the search happened to find.
/// The remaining pairs are probed on the live tableau, and every
/// feasible probe adds a model that prunes later pairs.
fn entailed_pair(
    lia: &mut Simplex,
    candidates: &[NodeId],
    stats: &mut SolverStats,
) -> Option<(NodeId, NodeId)> {
    let mut budget = MAX_EQ_PROBE_PAIRS;
    for (i, &x) in candidates.iter().enumerate() {
        for &y in &candidates[i + 1..] {
            if budget == 0 {
                return None;
            }
            budget -= 1;
            if !(lia.mentions(x.0) && lia.mentions(y.0)) {
                continue;
            }
            if lia.separated(x.0, y.0) {
                stats.eq_probes_pruned += 1;
                continue;
            }
            stats.eq_probes += 1;
            if lia.entails_eq(x.0, y.0) {
                return Some((x, y));
            }
        }
    }
    None
}

/// Checks whether the assignment of theory atoms is consistent with
/// EUF + LIA. `assign[i]` is the polarity of atom `i`, or `None` for atoms
/// outside the theory (bit-vector atoms, which are blasted eagerly). The
/// arithmetic counters (`lia_*`, `eq_probes*`) accumulate into `stats`.
pub fn check(
    arena: &Arena,
    atoms: &[AtomData],
    defs: &[NLinExp],
    assign: &[Option<bool>],
    true_node: NodeId,
    false_node: NodeId,
    stats: &mut SolverStats,
) -> TheoryVerdict {
    let sweep: Vec<NodeId> = arena
        .iter()
        .filter(|(_, n)| matches!(n, Node::App(..)))
        .map(|(id, _)| id)
        .collect();
    let assigned = |i: usize| assign[i].is_some();
    let involved: Vec<AtomId> = atoms
        .iter()
        .enumerate()
        .filter(|(i, a)| assigned(*i) && !matches!(a, AtomData::BvEq(..)))
        .map(|(i, _)| AtomId(i as u32))
        .collect();
    // A smaller core for EUF-phase conflicts: only equality-bearing atoms.
    let euf_core: Vec<AtomId> = atoms
        .iter()
        .enumerate()
        .filter(|(i, a)| {
            assigned(*i)
                && matches!(
                    a,
                    AtomData::EufEq(..) | AtomData::BoolNode(..) | AtomData::IntEq(_, Some(_))
                )
        })
        .map(|(i, _)| AtomId(i as u32))
        .collect();

    let mut extra_merges: Vec<(NodeId, NodeId)> = Vec::new();

    for _round in 0..MAX_NO_ROUNDS {
        // --- EUF phase -----------------------------------------------------
        let mut euf = Euf::new(arena);
        for &AtomId(i) in &involved {
            let a = &atoms[i as usize];
            let Some(pol) = assign[i as usize] else {
                continue;
            };
            match a {
                AtomData::EufEq(x, y) => {
                    if pol {
                        euf.merge(*x, *y);
                    } else {
                        euf.assert_diseq(*x, *y);
                    }
                }
                AtomData::BoolNode(n) => {
                    euf.merge(*n, if pol { true_node } else { false_node });
                }
                AtomData::IntEq(_, Some((x, y))) => {
                    if pol {
                        euf.merge(*x, *y);
                    } else {
                        euf.assert_diseq(*x, *y);
                    }
                }
                _ => {}
            }
        }
        for &(x, y) in &extra_merges {
            euf.merge(x, y);
        }
        if euf.close_over(&sweep) == EufResult::Conflict {
            return TheoryVerdict::Conflict(if extra_merges.is_empty() {
                euf_core.clone()
            } else {
                involved.clone()
            });
        }

        // --- LIA phase -----------------------------------------------------
        let translate = |euf: &mut Euf, l: &NLinExp| -> LinExp {
            let mut out = LinExp::konst(l.konst);
            for (&n, &c) in &l.coeffs {
                let rep = euf.find(n);
                match arena.const_kind(rep) {
                    Some(ConstKind::Int(v)) => out.konst += c * v as i128,
                    _ => out.add_term(rep.0, c),
                }
            }
            out
        };
        let mut prob = LiaProblem::default();
        for d in defs {
            let e = translate(&mut euf, d);
            prob.eqs.push(e);
        }
        for &AtomId(i) in &involved {
            let a = &atoms[i as usize];
            let Some(pol) = assign[i as usize] else {
                continue;
            };
            match a {
                AtomData::LinLe(l) => {
                    let e = translate(&mut euf, l);
                    if pol {
                        prob.les.push(e);
                    } else {
                        // ¬(e ≤ 0) over integers: -e + 1 ≤ 0.
                        let mut neg = e.scale(-1);
                        neg.konst += 1;
                        prob.les.push(neg);
                    }
                }
                AtomData::IntEq(l, _) => {
                    let e = translate(&mut euf, l);
                    if pol {
                        prob.eqs.push(e);
                    } else {
                        prob.diseqs.push(e);
                    }
                }
                _ => {}
            }
        }
        // --- Nonlinear constant evaluation ----------------------------------
        // Derive variable values implied by the (linear) equalities, then
        // evaluate uninterpreted `mul`/`div`/`mod` applications whose
        // arguments are determined — e.g. `(z.w+2)*(z.h+2)` with
        // `z.w = 3 ∧ z.h = 7` becomes 45.
        let consts = derive_constants(&prob.eqs);
        for &id in &sweep {
            if let Node::App(f, args, _) = arena.node(id) {
                let op = f.as_str();
                if !matches!(op, "mul" | "div" | "mod") || args.len() != 2 {
                    continue;
                }
                let val_of = |euf: &mut Euf, a: NodeId| -> Option<i128> {
                    let rep = euf.find(a);
                    match arena.const_kind(rep) {
                        Some(ConstKind::Int(v)) => Some(v as i128),
                        _ => consts.get(&rep.0).copied(),
                    }
                };
                let (Some(va), Some(vb)) = (val_of(&mut euf, args[0]), val_of(&mut euf, args[1]))
                else {
                    continue;
                };
                let value = match op {
                    "mul" => va.checked_mul(vb),
                    "div" if vb != 0 => Some(va / vb),
                    "mod" if vb != 0 => Some(va % vb),
                    _ => None,
                };
                if let Some(v) = value {
                    let rep = euf.find(id);
                    let mut e = match arena.const_kind(rep) {
                        Some(ConstKind::Int(existing)) => {
                            if existing as i128 != v {
                                return TheoryVerdict::Conflict(involved);
                            }
                            continue;
                        }
                        _ => crate::lia::LinExp::var(rep.0),
                    };
                    e.konst = -v;
                    prob.eqs.push(e);
                }
            }
        }

        let mut lia = Simplex::new(&prob);
        let feasible = lia.check() == LiaResult::Feasible;
        let found = if feasible {
            // --- Nelson–Oppen equality propagation --------------------------
            // Candidate nodes: integer-sorted nodes in argument position of
            // an uninterpreted application (only these can trigger new
            // congruences).
            let mut candidates: Vec<NodeId> = Vec::new();
            for &id in &sweep {
                if let Node::App(_, args, _) = arena.node(id) {
                    for &a in args {
                        if arena.sort(a) == Sort::Int {
                            let rep = euf.find(a);
                            if arena.const_kind(rep).is_none() && !candidates.contains(&rep) {
                                candidates.push(rep);
                            }
                        }
                    }
                }
            }
            entailed_pair(&mut lia, &candidates, stats)
        } else {
            None
        };
        stats.lia_checks += lia.stats.checks;
        stats.lia_pivots += lia.stats.pivots;
        stats.lia_gave_up += lia.stats.gave_up;
        if !feasible {
            return TheoryVerdict::Conflict(involved);
        }
        match found {
            Some(pair) => extra_merges.push(pair),
            None => return TheoryVerdict::Consistent,
        }
    }
    TheoryVerdict::Consistent
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsc_logic::Sym;

    fn check_fresh(
        arena: &Arena,
        atoms: &[AtomData],
        assign: &[Option<bool>],
        tn: NodeId,
        fnode: NodeId,
    ) -> TheoryVerdict {
        check(
            arena,
            atoms,
            &[],
            assign,
            tn,
            fnode,
            &mut SolverStats::default(),
        )
    }

    /// x = y, len(x) ≤ 3, len(y) ≥ 5 should conflict via congruence.
    #[test]
    fn euf_lia_interaction() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Ref));
        let y = arena.intern(Node::Var(Sym::from("y"), Sort::Ref));
        let lx = arena.intern(Node::App(Sym::from("len"), vec![x], Sort::Int));
        let ly = arena.intern(Node::App(Sym::from("len"), vec![y], Sort::Int));
        let atoms = vec![
            AtomData::EufEq(x, y),
            AtomData::LinLe({
                let mut e = NLinExp::node(lx);
                e.konst = -3;
                e
            }), // len(x) - 3 <= 0
            AtomData::LinLe({
                let mut e = NLinExp::node(ly).scale(-1);
                e.konst = 5;
                e
            }), // 5 - len(y) <= 0
        ];
        let assign = vec![Some(true), Some(true), Some(true)];
        let v = check_fresh(&arena, &atoms, &assign, tn, fnode);
        assert!(matches!(v, TheoryVerdict::Conflict(_)));
    }

    /// Arithmetic forces i = j, so f(i) != f(j) conflicts (Nelson–Oppen).
    #[test]
    fn no_equality_propagation() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let i = arena.intern(Node::Var(Sym::from("i"), Sort::Int));
        let j = arena.intern(Node::Var(Sym::from("j"), Sort::Int));
        let fi = arena.intern(Node::App(Sym::from("f"), vec![i], Sort::Ref));
        let fj = arena.intern(Node::App(Sym::from("f"), vec![j], Sort::Ref));
        // i <= j, j <= i, f(i) != f(j)
        let mut le1 = NLinExp::node(i);
        le1.add_term(j, -1);
        let mut le2 = NLinExp::node(j);
        le2.add_term(i, -1);
        let atoms = vec![
            AtomData::LinLe(le1),
            AtomData::LinLe(le2),
            AtomData::EufEq(fi, fj),
        ];
        let assign = vec![Some(true), Some(true), Some(false)];
        let v = check_fresh(&arena, &atoms, &assign, tn, fnode);
        assert!(matches!(v, TheoryVerdict::Conflict(_)));
    }

    #[test]
    fn consistent_assignment() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Int));
        let mut e = NLinExp::node(x);
        e.konst = -10; // x <= 10
        let atoms = vec![AtomData::LinLe(e)];
        let v = check_fresh(&arena, &atoms, &[Some(true)], tn, fnode);
        assert_eq!(v, TheoryVerdict::Consistent);
    }

    #[test]
    fn bool_node_conflict() {
        let mut arena = Arena::new();
        let tn = arena.intern(Node::True);
        let fnode = arena.intern(Node::False);
        let x = arena.intern(Node::Var(Sym::from("x"), Sort::Ref));
        let p = arena.intern(Node::App(Sym::from("impl"), vec![x], Sort::Bool));
        let q = arena.intern(Node::App(Sym::from("impl"), vec![x], Sort::Bool));
        assert_eq!(p, q);
        let atoms = vec![AtomData::BoolNode(p)];
        // Atom asserted both ways cannot happen with one atom id; check that
        // a single positive assertion is consistent.
        let v = check_fresh(&arena, &atoms, &[Some(true)], tn, fnode);
        assert_eq!(v, TheoryVerdict::Consistent);
    }
}
