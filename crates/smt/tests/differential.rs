//! Differential testing of the SMT solver against a brute-force
//! finite-domain evaluator.
//!
//! Random QF LIA+EUF+BV32 predicates are generated with proptest and
//! checked both ways:
//!
//! * if the solver claims **Unsat**, no model may exist in the finite
//!   domain (a finite model would witness satisfiability outright);
//! * if the solver claims a VC is **valid**, no finite countermodel may
//!   exist;
//! * cached and uncached solvers must agree on every validity verdict,
//!   and a second probe of the same query must agree with the first;
//! * queries that mention a variable outside the sort scope get the
//!   uncached full path's answer with a cache attached;
//! * on literal conjunctions (linear, `len`, reference/null equalities,
//!   disequalities, nonlinear products) the solver's theory-only path
//!   must answer, and agree with the full DPLL(T) path (`is_sat`).
//!
//! The finite domain is deliberately one-directional: a formula with no
//! model over `x, y ∈ [-2, 2]` may still be satisfiable over ℤ, so the
//! evaluator can never refute a `Sat` answer — only `Unsat`/valid claims
//! are falsifiable, which is exactly the soundness-critical direction
//! (and the only direction the VC cache memoizes).

use proptest::prelude::*;
use rsc_logic::{BinOp, CmpOp, FunSig, Pred, Sort, SortEnv, Sym, Term};
use rsc_smt::{SatResult, Solver, VcCache};

// ------------------------------------------------------------ generator ---

const CMPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

fn int_term() -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(Term::var("x")),
        Just(Term::var("y")),
        (-2i64..=2).prop_map(Term::int),
    ]
    .boxed();
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(Term::neg),
            inner.clone().prop_map(|t| Term::app("f", vec![t])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::add(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::Sub, a, b)),
            ((-2i64..=2), inner).prop_map(|(c, t)| Term::bin(BinOp::Mul, Term::int(c), t)),
        ]
    })
}

fn bv_term() -> BoxedStrategy<Term> {
    let leaf = prop_oneof![
        Just(Term::var("u")),
        Just(Term::var("w")),
        (0u32..=3).prop_map(Term::bv),
    ]
    .boxed();
    leaf.prop_recursive(1, 4, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::BvAnd, a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Term::bin(BinOp::BvOr, a, b)),
        ]
    })
}

fn pred() -> BoxedStrategy<Pred> {
    let atom = prop_oneof![
        (0usize..6, int_term(), int_term()).prop_map(|(i, a, b)| Pred::cmp(CMPS[i], a, b)),
        (0usize..2, bv_term(), bv_term())
            .prop_map(|(i, a, b)| { Pred::cmp(if i == 0 { CmpOp::Eq } else { CmpOp::Ne }, a, b) }),
        Just(Pred::TermPred(Term::var("p"))),
    ]
    .boxed();
    atom.prop_recursive(2, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::and(vec![a, b])),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::or(vec![a, b])),
            inner.clone().prop_map(Pred::not),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::imp(a, b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Pred::iff(a, b)),
        ]
    })
}

/// Literal-conjunction atoms: linear and nonlinear integer comparisons
/// over `x, y, z` and `len(a), len(b)`, plus reference equalities
/// between `a`, `b` and `nullv`.
fn literal_atom() -> BoxedStrategy<Pred> {
    let leaf = prop_oneof![
        Just(Term::var("x")),
        Just(Term::var("y")),
        Just(Term::var("z")),
        Just(Term::len_of(Term::var("a"))),
        Just(Term::len_of(Term::var("b"))),
        (-2i64..=2).prop_map(Term::int),
    ]
    .boxed();
    let int = prop_oneof![
        leaf.clone(),
        leaf.clone(),
        (leaf.clone(), leaf.clone()).prop_map(|(a, b)| Term::add(a, b)),
        ((-2i64..=2), leaf).prop_map(|(c, t)| Term::mul(Term::int(c), t)),
        (0usize..3, 0usize..3).prop_map(|(i, j)| {
            let v = |k: usize| Term::var(["x", "y", "z"][k]);
            Term::mul(v(i), v(j))
        }),
    ]
    .boxed();
    let reference = prop_oneof![
        Just(Term::var("a")),
        Just(Term::var("b")),
        Just(Term::app("nullv", vec![])),
    ]
    .boxed();
    let cmp = (0usize..6, int.clone(), int).prop_map(|(i, a, b)| Pred::cmp(CMPS[i], a, b));
    let ref_eq =
        (0usize..2, reference.clone(), reference).prop_map(|(i, a, b)| Pred::cmp(CMPS[i], a, b));
    let cmp = cmp.boxed();
    prop_oneof![cmp.clone(), cmp.clone(), cmp, ref_eq].boxed()
}

/// A hypothesis: one literal atom or a conjunction of two.
fn literal_hyp() -> BoxedStrategy<Pred> {
    prop_oneof![
        literal_atom(),
        literal_atom(),
        (literal_atom(), literal_atom()).prop_map(|(a, b)| Pred::and(vec![a, b])),
    ]
    .boxed()
}

fn env() -> SortEnv {
    let mut e = SortEnv::new();
    e.bind("x", Sort::Int);
    e.bind("y", Sort::Int);
    e.bind("z", Sort::Int);
    e.bind("p", Sort::Bool);
    e.bind("u", Sort::Bv32);
    e.bind("w", Sort::Bv32);
    e.bind("a", Sort::Ref);
    e.bind("b", Sort::Ref);
    e.declare_fun("f", FunSig::Fixed(vec![Sort::Int], Sort::Int));
    e.declare_fun("nullv", FunSig::Fixed(vec![], Sort::Ref));
    e
}

// ------------------------------------------------- brute-force evaluator ---

/// Integer domain for variables.
const D: [i64; 5] = [-2, -1, 0, 1, 2];
/// Bit-vector domain.
const DBV: [u32; 4] = [0, 1, 2, 3];
/// Range of each entry of the uninterpreted function's table. `f` is
/// interpreted as the total periodic function `n ↦ table[n mod 5]` — a
/// legitimate interpretation, so any model found this way is a real model.
const DF: [i64; 3] = [-1, 0, 1];
/// References are object ids `0..3`; `nullv` is object 0 and `len` is a
/// table over the ids with entries in `DLEN`.
const DREF: [u8; 3] = [0, 1, 2];
const DLEN: [i64; 3] = [0, 1, 2];

#[derive(Clone, Copy)]
struct Model {
    x: i64,
    y: i64,
    z: i64,
    p: bool,
    u: u32,
    w: u32,
    a: u8,
    b: u8,
    len: [i64; 3],
    f: [i64; 5],
}

#[derive(Clone, Copy, PartialEq)]
enum Val {
    I(i64),
    B(bool),
    Bv(u32),
    R(u8),
}

fn eval_term(t: &Term, m: &Model) -> Option<Val> {
    Some(match t {
        Term::Var(x) => match x.as_str() {
            "x" => Val::I(m.x),
            "y" => Val::I(m.y),
            "z" => Val::I(m.z),
            "a" => Val::R(m.a),
            "b" => Val::R(m.b),
            "p" => Val::B(m.p),
            "u" => Val::Bv(m.u),
            "w" => Val::Bv(m.w),
            _ => return None,
        },
        Term::IntLit(n) => Val::I(*n),
        Term::BoolLit(b) => Val::B(*b),
        Term::BvLit(n) => Val::Bv(*n),
        Term::Neg(a) => match eval_term(a, m)? {
            Val::I(n) => Val::I(-n),
            _ => return None,
        },
        Term::App(f, args) if f.as_str() == "f" && args.len() == 1 => {
            match eval_term(&args[0], m)? {
                Val::I(n) => Val::I(m.f[(n.rem_euclid(5)) as usize]),
                _ => return None,
            }
        }
        Term::App(f, args) if f.as_str() == "len" && args.len() == 1 => {
            match eval_term(&args[0], m)? {
                Val::R(r) => Val::I(m.len[r as usize]),
                _ => return None,
            }
        }
        Term::App(f, args) if f.as_str() == "nullv" && args.is_empty() => Val::R(0),
        Term::Bin(op, a, b) => {
            let (va, vb) = (eval_term(a, m)?, eval_term(b, m)?);
            match (op, va, vb) {
                (BinOp::Add, Val::I(a), Val::I(b)) => Val::I(a + b),
                (BinOp::Sub, Val::I(a), Val::I(b)) => Val::I(a - b),
                (BinOp::Mul, Val::I(a), Val::I(b)) => Val::I(a * b),
                (BinOp::BvAnd, Val::Bv(a), Val::Bv(b)) => Val::Bv(a & b),
                (BinOp::BvOr, Val::Bv(a), Val::Bv(b)) => Val::Bv(a | b),
                _ => return None,
            }
        }
        _ => return None,
    })
}

fn eval_pred(p: &Pred, m: &Model) -> Option<bool> {
    Some(match p {
        Pred::True => true,
        Pred::False => false,
        Pred::And(ps) => {
            for q in ps {
                if !eval_pred(q, m)? {
                    return Some(false);
                }
            }
            true
        }
        Pred::Or(ps) => {
            for q in ps {
                if eval_pred(q, m)? {
                    return Some(true);
                }
            }
            false
        }
        Pred::Not(q) => !eval_pred(q, m)?,
        Pred::Imp(a, b) => !eval_pred(a, m)? || eval_pred(b, m)?,
        Pred::Iff(a, b) => eval_pred(a, m)? == eval_pred(b, m)?,
        Pred::Cmp(op, a, b) => {
            let (va, vb) = (eval_term(a, m)?, eval_term(b, m)?);
            match (va, vb) {
                (Val::I(a), Val::I(b)) => match op {
                    CmpOp::Eq => a == b,
                    CmpOp::Ne => a != b,
                    CmpOp::Lt => a < b,
                    CmpOp::Le => a <= b,
                    CmpOp::Gt => a > b,
                    CmpOp::Ge => a >= b,
                },
                (va, vb) => match op {
                    CmpOp::Eq => va == vb,
                    CmpOp::Ne => va != vb,
                    _ => return None,
                },
            }
        }
        Pred::TermPred(t) => match eval_term(t, m)? {
            Val::B(b) => b,
            _ => return None,
        },
        _ => return None,
    })
}

fn contains_app_term(t: &Term, name: &str) -> bool {
    match t {
        Term::App(f, args) => f.as_str() == name || args.iter().any(|a| contains_app_term(a, name)),
        Term::Bin(_, a, b) => contains_app_term(a, name) || contains_app_term(b, name),
        Term::Neg(a) | Term::Field(a, _) => contains_app_term(a, name),
        _ => false,
    }
}

fn contains_app(p: &Pred, name: &str) -> bool {
    match p {
        Pred::And(ps) | Pred::Or(ps) => ps.iter().any(|q| contains_app(q, name)),
        Pred::Not(q) => contains_app(q, name),
        Pred::Imp(a, b) | Pred::Iff(a, b) => contains_app(a, name) || contains_app(b, name),
        Pred::Cmp(_, a, b) => contains_app_term(a, name) || contains_app_term(b, name),
        Pred::TermPred(t) => contains_app_term(t, name),
        Pred::App(_, args) => args.iter().any(|a| contains_app_term(a, name)),
        _ => false,
    }
}

/// Decodes `code` into one entry of `domain` per slot (mixed radix).
fn table<T: Copy + Default, const N: usize>(domain: &[T], mut code: usize) -> [T; N] {
    let mut out = [T::default(); N];
    for slot in &mut out {
        *slot = domain[code % domain.len()];
        code /= domain.len();
    }
    out
}

/// Exhaustive search for a model over the finite domain, enumerating only
/// the dimensions the formula actually mentions.
fn exists_finite_model(preds: &[Pred]) -> bool {
    let mut vars = std::collections::BTreeSet::new();
    for p in preds {
        p.free_vars_into(&mut vars);
    }
    let used = |n: &str| vars.contains(&Sym::from(n));
    let ints = |n: &str| if used(n) { &D[..] } else { &D[2..3] };
    let refs = |n: &str| if used(n) { &DREF[..] } else { &DREF[..1] };
    let uses_app = |name: &str| preds.iter().any(|p| contains_app(p, name));
    let codes = |domain: usize, slots: u32, name: &str| {
        if uses_app(name) {
            domain.pow(slots)
        } else {
            1
        }
    };
    let ps: &[bool] = if used("p") { &[false, true] } else { &[false] };
    let us: &[u32] = if used("u") { &DBV } else { &DBV[..1] };
    let ws: &[u32] = if used("w") { &DBV } else { &DBV[..1] };

    for f_code in 0..codes(DF.len(), 5, "f") {
        let f = table(&DF, f_code);
        for len_code in 0..codes(DLEN.len(), 3, "len") {
            let len = table(&DLEN, len_code);
            for &x in ints("x") {
                for &y in ints("y") {
                    for &z in ints("z") {
                        for &p in ps {
                            for &u in us {
                                for &w in ws {
                                    for &a in refs("a") {
                                        for &b in refs("b") {
                                            let m = Model {
                                                x,
                                                y,
                                                z,
                                                p,
                                                u,
                                                w,
                                                a,
                                                b,
                                                len,
                                                f,
                                            };
                                            if preds.iter().all(|q| eval_pred(q, &m) == Some(true))
                                            {
                                                return true;
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    false
}

// ----------------------------------------------------------- properties ---

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Soundness: an Unsat claim must survive exhaustive finite search.
    #[test]
    fn unsat_claims_have_no_finite_model(hyps in prop::collection::vec(pred(), 1..4)) {
        let e = env();
        let mut solver = Solver::new();
        if solver.is_sat(&e, &hyps) == SatResult::Unsat {
            prop_assert!(
                !exists_finite_model(&hyps),
                "solver claimed Unsat but a finite model exists for {:?}",
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }

    /// Soundness of validity: `hyps ⊢ goal` must have no countermodel.
    #[test]
    fn valid_claims_have_no_finite_countermodel(
        hyps in prop::collection::vec(pred(), 0..3),
        goal in pred(),
    ) {
        let e = env();
        let mut solver = Solver::new();
        if solver.is_valid(&e, &hyps, &goal) {
            let mut refutation = hyps.clone();
            refutation.push(Pred::not(goal.clone()));
            prop_assert!(
                !exists_finite_model(&refutation),
                "solver claimed valid but a finite countermodel exists for {} under {:?}",
                goal,
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }

    /// Cache coherence: a cache-sharing solver and a second probe of the
    /// same cache always agree (the verdict is a pure function of the
    /// canonical fingerprint), and Unsat answers served from the cache
    /// stay sound. The uncached solver solves the *original* conjunct
    /// orientation, which is only guaranteed to agree when neither side
    /// was cut off by the round cap — so that comparison is gated.
    ///
    /// A disjunctive hypothesis keeps queries off the theory-only path
    /// (which answers before the cache), unless their literal parts
    /// alone conflict.
    #[test]
    fn cached_and_uncached_answers_agree(
        hyps in prop::collection::vec(pred(), 0..3),
        goal in pred(),
    ) {
        let e = env();
        let p = Pred::TermPred(Term::var("p"));
        let mut hyps = hyps;
        hyps.push(Pred::or(vec![p.clone(), Pred::not(p)]));
        let mut plain = Solver::new();
        let uncached = plain.is_valid(&e, &hyps, &goal);

        let cache = VcCache::shared();
        let mut first = Solver::with_cache(cache.clone());
        let v1 = first.is_valid(&e, &hyps, &goal);
        let mut second = Solver::with_cache(cache.clone());
        let v2 = second.is_valid(&e, &hyps, &goal);

        let capped = plain.stats.sat_rounds >= plain.max_rounds() as u64
            || first.stats.sat_rounds >= first.max_rounds() as u64;
        if !capped {
            prop_assert_eq!(uncached, v1, "cache changed a decided validity verdict");
        }
        prop_assert_eq!(v1, v2, "second probe of the cache disagreed");
        prop_assert_eq!(first.stats.theory_only, second.stats.theory_only);
        if v1 && first.stats.theory_only == 0 {
            // The second solver must have answered from the cache.
            prop_assert_eq!(second.stats.cache_hits, 1);
            prop_assert_eq!(second.stats.queries, 0);
            prop_assert!(
                !exists_finite_model(
                    &hyps.iter().cloned().chain([Pred::not(goal.clone())]).collect::<Vec<_>>()
                ),
                "cached Unsat answer has a finite countermodel"
            );
        }
    }

    /// Unencodable queries: a hypothesis or the goal mentions a variable
    /// outside the sort scope. `is_valid` with a VC cache attached must
    /// give the uncached full path's answer, `is_sat(hyps ∧ ¬goal) ==
    /// Unsat` (normally `Unknown`, i.e. not valid; valid when an earlier
    /// conjunct already simplified to `false`), and count the query the
    /// way that path does.
    #[test]
    fn unencodable_queries_agree_with_uncached_full_path(
        hyps in prop::collection::vec(pred(), 0..3),
        goal in pred(),
        unbound in (0usize..6, int_term()).prop_map(|(i, t)| {
            Pred::cmp(CMPS[i], Term::var("unbound"), t)
        }),
        site in 0usize..4,
    ) {
        let mut hyps = hyps;
        let goal = match site {
            0 => {
                hyps.insert(0, unbound);
                goal
            }
            1 => {
                hyps.push(Pred::or(vec![unbound, Pred::TermPred(Term::var("p"))]));
                goal
            }
            2 => unbound,
            _ => Pred::and(vec![goal, unbound]),
        };
        let e = env();
        let mut cached = Solver::with_cache(VcCache::shared());
        let valid = cached.is_valid(&e, &hyps, &goal);
        let refutation: Vec<Pred> = hyps
            .iter()
            .cloned()
            .chain([Pred::not(goal.clone())])
            .collect();
        let mut reference = Solver::new();
        let unsat = reference.is_sat(&e, &refutation) == SatResult::Unsat;
        if reference.stats.sat_rounds < reference.max_rounds() as u64 {
            prop_assert_eq!(
                valid,
                unsat,
                "cached is_valid disagrees with the uncached full path on {} under {:?}",
                goal,
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
        prop_assert_eq!(
            cached.stats.queries + cached.stats.theory_only + cached.stats.cache_hits,
            reference.stats.queries,
            "every query is counted once"
        );
    }

    /// The theory-only path on literal conjunctions: it must answer every
    /// such query by itself (no DPLL(T) run), its verdict must equal the
    /// unchanged full path's `is_sat(hyps ∧ ¬goal) == Unsat` unless that
    /// reference hit the round cap, and a valid answer must have no
    /// finite countermodel.
    #[test]
    fn theory_only_path_agrees_with_dpll_on_literal_conjunctions(
        hyps in prop::collection::vec(literal_hyp(), 0..4),
        goal in literal_atom(),
    ) {
        let e = env();
        let mut solver = Solver::new();
        let valid = solver.is_valid(&e, &hyps, &goal);
        prop_assert_eq!(
            (solver.stats.theory_only, solver.stats.queries),
            (1, 0),
            "literal conjunction left the theory-only path: {} under {:?}",
            goal,
            hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
        );
        let refutation: Vec<Pred> = hyps
            .iter()
            .cloned()
            .chain([Pred::not(goal.clone())])
            .collect();
        let mut reference = Solver::new();
        let unsat = reference.is_sat(&e, &refutation) == SatResult::Unsat;
        if reference.stats.sat_rounds < reference.max_rounds() as u64 {
            prop_assert_eq!(
                valid,
                unsat,
                "theory-only path disagrees with DPLL(T) on {} under {:?}",
                goal,
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
        if valid {
            prop_assert!(
                !exists_finite_model(&refutation),
                "theory-only path claimed valid but a finite countermodel exists for {} under {:?}",
                goal,
                hyps.iter().map(|p| p.to_string()).collect::<Vec<_>>()
            );
        }
    }
}

/// Runs one query through `is_valid` and through the full DPLL(T)
/// reference, returning `(is_valid, is_sat(hyps ∧ ¬goal) == Unsat)`.
fn both_paths(env: &SortEnv, hyps: &[Pred], goal: &Pred) -> (bool, bool) {
    let valid = Solver::new().is_valid(env, hyps, goal);
    let mut refutation = hyps.to_vec();
    refutation.push(Pred::not(goal.clone()));
    let unsat = Solver::new().is_sat(env, &refutation) == SatResult::Unsat;
    (valid, unsat)
}

/// The nonlinear congruence shape (`a = b ⊢ a·c = b·c`): the theory
/// check's Nelson–Oppen probing depends on atom order, so the one-check
/// path must encode the hypotheses before `¬goal`, as DPLL(T) does.
#[test]
fn theory_only_path_keeps_nonlinear_congruence() {
    let e = env();
    let (x, y, z) = (Term::var("x"), Term::var("y"), Term::var("z"));
    let hyps = [Pred::eq(x.clone(), y.clone())];
    let goal = Pred::eq(Term::mul(x, z.clone()), Term::mul(y, z));
    assert_eq!(both_paths(&e, &hyps, &goal), (true, true));
}

/// A dead-code loop-entry query from `benchmarks/raytrace.rsc`: the
/// hypotheses contradict each other (`i$18 < len(cx$12)` and
/// `i$18 >= len(cx$12)`), and the candidate goal names `steps$25`,
/// which is not among the constraint's binders. The full path cannot
/// encode the goal and answers `Unknown`; `is_valid` must give the same
/// answer instead of proving the goal from the contradiction.
#[test]
fn raytrace_unbound_goal_matches_full_path() {
    let mut e = SortEnv::new();
    for x in ["cx$12", "cy$13", "cz$14", "r2$15"] {
        e.bind(x, Sort::Ref);
    }
    for x in ["i$17", "i$18", "steps$24", "v"] {
        e.bind(x, Sort::Int);
    }
    let hyps: Vec<Pred> = [
        "ttag(cx$12) = \"object\"",
        "len(cx$12) = 4",
        "ttag(cy$13) = \"object\"",
        "len(cy$13) = 4",
        "ttag(cz$14) = \"object\"",
        "len(cz$14) = 4",
        "ttag(r2$15) = \"object\"",
        "len(r2$15) = 4",
        "ttag(i$17) = \"number\"",
        "i$17 = 0",
        "ttag(i$18) = \"number\"",
        "0 <= i$18",
        "i$18 >= i$17",
        "i$18 < len(cx$12)",
        "i$18 < len(cy$13)",
        "i$18 < len(cz$14)",
        "i$18 < len(r2$15)",
        "i$18 <= len(cx$12)",
        "i$18 <= len(cy$13)",
        "i$18 <= len(cz$14)",
        "i$18 <= len(r2$15)",
        "ttag(steps$24) = \"number\"",
        "steps$24 = 0",
        "ttag(v) = \"number\"",
        "v = 0",
        "v = steps$24",
        "0 <= len(cx$12)",
        "0 <= len(cy$13)",
        "0 <= len(cz$14)",
        "0 <= len(r2$15)",
        "i$18 >= len(cx$12)",
    ]
    .iter()
    .map(|h| rsc_syntax::parse_pred(h).expect("hypothesis parses"))
    .collect();
    let goal = rsc_syntax::parse_pred("v = steps$25").expect("goal parses");
    let (valid, unsat) = both_paths(&e, &hyps, &goal);
    assert_eq!(valid, unsat, "is_valid must match the DPLL(T) reference");
    assert!(!valid, "an unencodable goal is never proven");
    // With the goal in scope the contradiction proves it on either path.
    e.bind("steps$25", Sort::Int);
    assert_eq!(both_paths(&e, &hyps, &goal), (true, true));
}
