//! Linear integer arithmetic: satisfiability of conjunctions of linear
//! constraints `e ≤ 0`, `e = 0` and `e ≠ 0` over ℤ, decided by a bounded
//! simplex in the style of Dutertre and de Moura ("A Fast
//! Linear-Arithmetic Solver for DPLL(T)", CAV 2006).
//!
//! * Equalities with a unit coefficient are eliminated up front by
//!   substitution; the others get a GCD test (`2x = 1` has no integer
//!   solution) and become fixed rows.
//! * Every remaining row `Σcᵢxᵢ + k ≤ 0` is a bound on a column
//!   `s = Σ(cᵢ/g)xᵢ` (`g` the GCD of the coefficients), rounded to an
//!   integer bound. Rows with the same linear form share one slack
//!   column, and single-variable rows bound the variable directly.
//! * Rational feasibility is the general simplex over a sparse tableau
//!   with Bland's rule. Bounds live on a trail and are retracted by
//!   backtracking; the tableau and the assignment survive retraction, so
//!   asserting one more bound and retracting it costs only the pivots
//!   that bound needs.
//! * Integrality is branch-and-bound on fractional problem columns, and a
//!   disequality `s ≠ v` is split (`s ≤ v−1 ∨ s ≥ v+1`) only when the
//!   current integer model violates it.
//!
//! Every `Feasible` answer found by search comes with an **integer
//! model**. [`Simplex::separated`] asks the models seen so far whether a
//! pair of variables is provably not equal, which lets Nelson–Oppen
//! combination skip most equality probes; the rest are answered by
//! [`Simplex::entails_eq`] on the live tableau.
//!
//! Soundness contract: [`LiaResult::Infeasible`] is only returned when the
//! constraints have no integer solution. Arithmetic is exact rationals
//! over checked `i128`. A search that overflows, or that finds the
//! problem's [`FUEL`] (pivots plus branches, shared by the check and
//! every probe) spent, answers [`LiaResult::Feasible`] without a model —
//! the conservative direction, because verification treats only UNSAT
//! answers as proof. An overflow also retires the problem: it may have
//! left the tableau half rewritten, so no later probe runs on it.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A linear expression `Σ cᵢ·xᵢ + c` over variables indexed by `u32`.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct LinExp {
    /// Variable coefficients (never zero).
    pub coeffs: BTreeMap<u32, i128>,
    /// The constant term.
    pub konst: i128,
}

impl LinExp {
    /// The constant expression `c`.
    pub fn konst(c: i128) -> LinExp {
        LinExp {
            coeffs: BTreeMap::new(),
            konst: c,
        }
    }

    /// The expression `x`.
    pub fn var(x: u32) -> LinExp {
        let mut coeffs = BTreeMap::new();
        coeffs.insert(x, 1);
        LinExp { coeffs, konst: 0 }
    }

    /// Adds `c·x` to the expression.
    pub fn add_term(&mut self, x: u32, c: i128) {
        let e = self.coeffs.entry(x).or_insert(0);
        *e += c;
        if *e == 0 {
            self.coeffs.remove(&x);
        }
    }

    /// `k · self`.
    pub fn scale(&self, k: i128) -> LinExp {
        if k == 0 {
            return LinExp::konst(0);
        }
        LinExp {
            coeffs: self.coeffs.iter().map(|(&x, &c)| (x, c * k)).collect(),
            konst: self.konst * k,
        }
    }

    /// True if the expression has no variables.
    pub fn is_const(&self) -> bool {
        self.coeffs.is_empty()
    }
}

/// The answer of the LIA feasibility check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LiaResult {
    /// An integer solution exists, or the search gave up; treated as
    /// satisfiable.
    Feasible,
    /// No integer solution exists.
    Infeasible,
}

/// A conjunction of linear constraints.
#[derive(Clone, Debug, Default)]
pub struct LiaProblem {
    /// Constraints `e ≤ 0`.
    pub les: Vec<LinExp>,
    /// Constraints `e = 0`.
    pub eqs: Vec<LinExp>,
    /// Constraints `e ≠ 0`.
    pub diseqs: Vec<LinExp>,
}

impl LiaProblem {
    /// Checks feasibility of the conjunction.
    pub fn feasible(&self) -> LiaResult {
        Simplex::new(self).check()
    }
}

/// The work budget of one [`Simplex`], in pivots plus branches, shared
/// by its feasibility check and all its equality probes; a search that
/// finds it spent answers [`LiaResult::Feasible`]. Whole problems on the
/// benchmark corpus, its seeded mutants and join chains up to n = 20
/// spend at most 19, and the bounded-box tests at most 131, so the cap
/// is never reached in practice; what it bounds is an integer search that
/// does not terminate, such as branch-and-bound on an unbounded polytope
/// with no integer point (`2x − y − w = 1` with `w = y`), to 1 000 steps
/// per combination round.
pub const FUEL: u64 = 1_000;

/// Counters of one [`Simplex`], accumulated since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiaStats {
    /// Searches run (the feasibility check plus each probe half).
    pub checks: u64,
    /// Simplex pivots.
    pub pivots: u64,
    /// Searches that overflowed `i128` or found the fuel spent.
    pub gave_up: u64,
}

/// An arithmetic overflow; the search stops and answers `Feasible`.
#[derive(Debug)]
struct Overflow;

type Res<T> = Result<T, Overflow>;

fn ck(v: Option<i128>) -> Res<i128> {
    v.ok_or(Overflow)
}

fn gcd(a: i128, b: i128) -> u128 {
    let (mut a, mut b) = (a.unsigned_abs(), b.unsigned_abs());
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The GCD of the coefficients of a nonempty term list.
fn coeff_gcd(terms: impl IntoIterator<Item = i128>) -> Res<i128> {
    let g = terms.into_iter().fold(0u128, |g, c| gcd(g as i128, c));
    i128::try_from(g).map_err(|_| Overflow)
}

/// An exact rational `n/d` with `d > 0` and `gcd(n, d) = 1`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Rat {
    n: i128,
    d: i128,
}

impl Rat {
    const ZERO: Rat = Rat { n: 0, d: 1 };

    fn int(n: i128) -> Rat {
        Rat { n, d: 1 }
    }

    fn new(n: i128, d: i128) -> Res<Rat> {
        if n == 0 {
            return Ok(Rat::ZERO);
        }
        let g = i128::try_from(gcd(n, d)).map_err(|_| Overflow)?;
        let (n, d) = (n / g, d / g);
        if d < 0 {
            Ok(Rat {
                n: ck(n.checked_neg())?,
                d: ck(d.checked_neg())?,
            })
        } else {
            Ok(Rat { n, d })
        }
    }

    fn add(self, o: Rat) -> Res<Rat> {
        if self.d == 1 && o.d == 1 {
            return Ok(Rat::int(ck(self.n.checked_add(o.n))?));
        }
        // gcd(d, d') divides both positive denominators, so it fits.
        let g = gcd(self.d, o.d) as i128;
        let (a, b) = (
            ck(self.n.checked_mul(o.d / g))?,
            ck(o.n.checked_mul(self.d / g))?,
        );
        Rat::new(ck(a.checked_add(b))?, ck(self.d.checked_mul(o.d / g))?)
    }

    fn neg(self) -> Res<Rat> {
        Ok(Rat {
            n: ck(self.n.checked_neg())?,
            d: self.d,
        })
    }

    fn sub(self, o: Rat) -> Res<Rat> {
        self.add(o.neg()?)
    }

    fn mul(self, o: Rat) -> Res<Rat> {
        if self.n == 0 || o.n == 0 {
            return Ok(Rat::ZERO);
        }
        // Cross-reduce; each GCD divides a positive denominator.
        let g1 = gcd(self.n, o.d) as i128;
        let g2 = gcd(o.n, self.d) as i128;
        Ok(Rat {
            n: ck((self.n / g1).checked_mul(o.n / g2))?,
            d: ck((self.d / g2).checked_mul(o.d / g1))?,
        })
    }

    /// `1/self`; `self` must be nonzero.
    fn recip(self) -> Res<Rat> {
        if self.n < 0 {
            Ok(Rat {
                n: ck(self.d.checked_neg())?,
                d: ck(self.n.checked_neg())?,
            })
        } else {
            Ok(Rat {
                n: self.d,
                d: self.n,
            })
        }
    }

    fn cmp_int(self, k: i128) -> Res<Ordering> {
        Ok(self.n.cmp(&ck(k.checked_mul(self.d))?))
    }

    fn floor(self) -> i128 {
        self.n.div_euclid(self.d)
    }
}

/// A linear form over columns, sorted by column, with a constant.
type ColExp = (Vec<(usize, i128)>, i128);

/// One tableau row: `basic = Σ terms`, terms sorted by column.
#[derive(Clone, Debug)]
struct Row {
    basic: usize,
    terms: Vec<(usize, Rat)>,
}

fn coeff_of(terms: &[(usize, Rat)], col: usize) -> Option<Rat> {
    terms
        .binary_search_by_key(&col, |&(c, _)| c)
        .ok()
        .map(|i| terms[i].1)
}

/// `dst − dst[skip]·x_skip + c·src`, merged in column order.
fn merge_scaled(
    dst: &[(usize, Rat)],
    skip: usize,
    c: Rat,
    src: &[(usize, Rat)],
) -> Res<Vec<(usize, Rat)>> {
    let mut out = Vec::with_capacity(dst.len() + src.len());
    let (mut i, mut j) = (0, 0);
    while i < dst.len() || j < src.len() {
        let next = match (dst.get(i), src.get(j)) {
            (Some(&(a, x)), Some(&(b, y))) if a == b => {
                i += 1;
                j += 1;
                (a, x.add(c.mul(y)?)?)
            }
            (Some(&(a, x)), Some(&(b, _))) if a < b => {
                i += 1;
                (a, x)
            }
            (Some(&(a, x)), None) => {
                i += 1;
                (a, x)
            }
            (_, Some(&(b, y))) => {
                j += 1;
                (b, c.mul(y)?)
            }
            (None, None) => unreachable!(),
        };
        if next.0 != skip && next.1.n != 0 {
            out.push(next);
        }
    }
    Ok(out)
}

/// Substitutes `x := image` into `e`, with checked arithmetic.
fn substitute(e: &mut LinExp, x: u32, image: &LinExp) -> Res<()> {
    let Some(c) = e.coeffs.remove(&x) else {
        return Ok(());
    };
    for (&y, &d) in &image.coeffs {
        let sum = ck(e
            .coeffs
            .get(&y)
            .copied()
            .unwrap_or(0)
            .checked_add(ck(c.checked_mul(d))?))?;
        if sum == 0 {
            e.coeffs.remove(&y);
        } else {
            e.coeffs.insert(y, sum);
        }
    }
    e.konst = ck(e.konst.checked_add(ck(c.checked_mul(image.konst))?))?;
    Ok(())
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Rel {
    Le,
    Eq,
    Ne,
}

/// The outcome of a search; `Unknown` means the fuel ran out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    Sat,
    Unsat,
    Unknown,
}

const BASIC_NONE: usize = usize::MAX;

/// How loading the problem ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loaded {
    Ok,
    Infeasible,
    Overflow,
}

/// The simplex state for one [`LiaProblem`]: a tableau over the problem's
/// columns, bounds with a retraction trail, and the integer models found
/// so far. See the module docs.
pub struct Simplex {
    loaded: Loaded,
    /// Column of each problem variable that survived substitution.
    col: HashMap<u32, usize>,
    /// Eliminated variables, each mapped to its image over surviving
    /// variables.
    subst: HashMap<u32, LinExp>,
    /// Columns `0..n_struct` are problem variables; the rest are slacks.
    n_struct: usize,
    rows: Vec<Row>,
    /// Row of each basic column, or [`BASIC_NONE`].
    basic_row: Vec<usize>,
    value: Vec<Rat>,
    lo: Vec<Option<i128>>,
    hi: Vec<Option<i128>>,
    /// Overwritten bounds `(column, lo, hi)`, for backtracking.
    trail: Vec<(usize, Option<i128>, Option<i128>)>,
    /// Slack column of each normalized linear form.
    slacks: HashMap<Vec<(usize, i128)>, usize>,
    /// Disequalities `column ≠ value`.
    diseqs: Vec<(usize, i128)>,
    /// Integer models found so far (values of columns `0..n_struct`).
    models: Vec<Vec<i128>>,
    fuel: u64,
    /// Counters since construction.
    pub stats: LiaStats,
}

impl Simplex {
    /// Loads `p`: eliminates unit equalities, builds the tableau and
    /// asserts every row's bound. Infeasibility found while loading
    /// (a constant row, a GCD test, clashing bounds) is reported by
    /// [`Simplex::check`].
    pub fn new(p: &LiaProblem) -> Simplex {
        let mut s = Simplex {
            loaded: Loaded::Ok,
            col: HashMap::new(),
            subst: HashMap::new(),
            n_struct: 0,
            rows: Vec::new(),
            basic_row: Vec::new(),
            value: Vec::new(),
            lo: Vec::new(),
            hi: Vec::new(),
            trail: Vec::new(),
            slacks: HashMap::new(),
            diseqs: Vec::new(),
            models: Vec::new(),
            fuel: FUEL,
            stats: LiaStats::default(),
        };
        match s.load(p) {
            Ok(true) => {}
            Ok(false) => {
                s.loaded = Loaded::Infeasible;
                s.col.clear();
                s.subst.clear();
            }
            Err(Overflow) => s.poison(),
        }
        s.trail.clear();
        s
    }

    /// Gives up on the problem after an overflow. The overflow may have
    /// left the tableau or the assignment half rewritten, so from now on
    /// [`Simplex::check`] answers `Feasible`, no variable is mentioned and
    /// no model or probe answers anything.
    fn poison(&mut self) {
        self.loaded = Loaded::Overflow;
        self.col.clear();
        self.subst.clear();
        self.models.clear();
    }

    fn load(&mut self, p: &LiaProblem) -> Res<bool> {
        let mut les = p.les.clone();
        let mut eqs = p.eqs.clone();
        let mut diseqs = p.diseqs.clone();
        let mut fixed: Vec<LinExp> = Vec::new();
        while let Some(pos) = eqs.iter().position(|e| !e.is_const()) {
            let mut e = eqs.swap_remove(pos);
            let g = coeff_gcd(e.coeffs.values().copied())?;
            if e.konst % g != 0 {
                return Ok(false); // GCD test, e.g. 2x = 1
            }
            for c in e.coeffs.values_mut() {
                *c /= g;
            }
            e.konst /= g;
            let Some((&x, &c)) = e.coeffs.iter().find(|(_, &c)| c == 1 || c == -1) else {
                fixed.push(e);
                continue;
            };
            // c·x + rest = 0 with c = ±1, so x = −c·rest.
            e.coeffs.remove(&x);
            let mut image = LinExp::konst(ck(e.konst.checked_mul(-c))?);
            for (&y, &d) in &e.coeffs {
                image.coeffs.insert(y, ck(d.checked_mul(-c))?);
            }
            for row in les
                .iter_mut()
                .chain(eqs.iter_mut())
                .chain(diseqs.iter_mut())
                .chain(fixed.iter_mut())
                .chain(self.subst.values_mut())
            {
                substitute(row, x, &image)?;
            }
            self.subst.insert(x, image);
        }
        if eqs.iter().any(|e| e.konst != 0) {
            return Ok(false);
        }
        let survivors: BTreeSet<u32> = p
            .les
            .iter()
            .chain(&p.eqs)
            .chain(&p.diseqs)
            .flat_map(|e| e.coeffs.keys().copied())
            .filter(|x| !self.subst.contains_key(x))
            .collect();
        for x in survivors {
            let c = self.new_column();
            self.col.insert(x, c);
        }
        self.n_struct = self.value.len();
        for (rows, rel) in [(&les, Rel::Le), (&fixed, Rel::Eq), (&diseqs, Rel::Ne)] {
            for e in rows {
                if !self.assert_rel(self.to_cols(e), rel)? {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    fn new_column(&mut self) -> usize {
        self.value.push(Rat::ZERO);
        self.lo.push(None);
        self.hi.push(None);
        self.basic_row.push(BASIC_NONE);
        self.value.len() - 1
    }

    /// `e` over columns; every variable must have survived substitution.
    fn to_cols(&self, e: &LinExp) -> ColExp {
        let mut terms: Vec<(usize, i128)> =
            e.coeffs.iter().map(|(x, &c)| (self.col[x], c)).collect();
        terms.sort_unstable_by_key(|&(c, _)| c);
        (terms, e.konst)
    }

    /// A mentioned variable over columns: its own column, or its image.
    fn resolve(&self, x: u32) -> Option<ColExp> {
        if let Some(&c) = self.col.get(&x) {
            return Some((vec![(c, 1)], 0));
        }
        self.subst.get(&x).map(|image| self.to_cols(image))
    }

    /// `x − y` over columns; `None` when either variable is unknown or
    /// the difference overflows.
    fn diff(&self, x: u32, y: u32) -> Option<ColExp> {
        let ((xt, xk), (yt, yk)) = (self.resolve(x)?, self.resolve(y)?);
        let mut acc: BTreeMap<usize, i128> = xt.into_iter().collect();
        for (c, a) in yt {
            let e = acc.entry(c).or_insert(0);
            *e = e.checked_sub(a)?;
        }
        let terms = acc.into_iter().filter(|&(_, a)| a != 0).collect();
        Some((terms, xk.checked_sub(yk)?))
    }

    /// Asserts `e rel 0`. Returns `false` on an immediate conflict.
    fn assert_rel(&mut self, (terms, k): ColExp, rel: Rel) -> Res<bool> {
        if terms.is_empty() {
            return Ok(match rel {
                Rel::Le => k <= 0,
                Rel::Eq => k == 0,
                Rel::Ne => k != 0,
            });
        }
        // e = sg·form + k, with form normalized to GCD 1 and a positive
        // leading coefficient.
        let g = coeff_gcd(terms.iter().map(|&(_, a)| a))?;
        let sg = if terms[0].1 < 0 {
            ck(g.checked_neg())?
        } else {
            g
        };
        let mut form: Vec<(usize, i128)> = Vec::with_capacity(terms.len());
        for &(c, a) in &terms {
            form.push((c, ck(a.checked_div(sg))?));
        }
        let col = self.column_of(form)?;
        let neg_k = ck(k.checked_neg())?;
        match rel {
            // g·form ≤ −k, i.e. form ≤ ⌊−k/g⌋; or −g·form ≤ −k, i.e. form ≥ ⌈k/g⌉.
            Rel::Le if sg > 0 => self.assert_upper(col, neg_k.div_euclid(g)),
            Rel::Le => self.assert_lower(col, ck(neg_k.div_euclid(g).checked_neg())?),
            Rel::Eq if k % g != 0 => Ok(false),
            Rel::Eq => {
                let v = neg_k / sg;
                Ok(self.assert_lower(col, v)? && self.assert_upper(col, v)?)
            }
            Rel::Ne => {
                if k % g == 0 {
                    self.diseqs.push((col, neg_k / sg));
                }
                Ok(true)
            }
        }
    }

    /// The column holding the normalized linear `form`, adding a slack
    /// row (over the current nonbasic columns) on first use.
    fn column_of(&mut self, form: Vec<(usize, i128)>) -> Res<usize> {
        if let [(c, 1)] = form[..] {
            return Ok(c);
        }
        if let Some(&s) = self.slacks.get(&form) {
            return Ok(s);
        }
        let mut acc: BTreeMap<usize, Rat> = BTreeMap::new();
        let mut val = Rat::ZERO;
        for &(c, a) in &form {
            let a = Rat::int(a);
            val = val.add(self.value[c].mul(a)?)?;
            let expansion = match self.basic_row[c] {
                BASIC_NONE => vec![(c, Rat::int(1))],
                r => self.rows[r].terms.clone(),
            };
            for (j, b) in expansion {
                let e = acc.entry(j).or_insert(Rat::ZERO);
                *e = e.add(b.mul(a)?)?;
            }
        }
        let s = self.new_column();
        self.value[s] = val;
        self.basic_row[s] = self.rows.len();
        self.rows.push(Row {
            basic: s,
            terms: acc.into_iter().filter(|(_, v)| v.n != 0).collect(),
        });
        self.slacks.insert(form, s);
        Ok(s)
    }

    fn assert_upper(&mut self, x: usize, u: i128) -> Res<bool> {
        if self.hi[x].is_some_and(|h| h <= u) {
            return Ok(true);
        }
        if self.lo[x].is_some_and(|l| l > u) {
            return Ok(false);
        }
        self.trail.push((x, self.lo[x], self.hi[x]));
        self.hi[x] = Some(u);
        if self.basic_row[x] == BASIC_NONE && self.value[x].cmp_int(u)? == Ordering::Greater {
            self.update(x, Rat::int(u))?;
        }
        Ok(true)
    }

    fn assert_lower(&mut self, x: usize, l: i128) -> Res<bool> {
        if self.lo[x].is_some_and(|v| v >= l) {
            return Ok(true);
        }
        if self.hi[x].is_some_and(|h| h < l) {
            return Ok(false);
        }
        self.trail.push((x, self.lo[x], self.hi[x]));
        self.lo[x] = Some(l);
        if self.basic_row[x] == BASIC_NONE && self.value[x].cmp_int(l)? == Ordering::Less {
            self.update(x, Rat::int(l))?;
        }
        Ok(true)
    }

    fn backtrack(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let (x, lo, hi) = self.trail.pop().expect("above mark");
            self.lo[x] = lo;
            self.hi[x] = hi;
        }
    }

    /// Moves nonbasic column `x` to `v`, keeping every row satisfied.
    fn update(&mut self, x: usize, v: Rat) -> Res<()> {
        let delta = v.sub(self.value[x])?;
        for row in &self.rows {
            if let Some(a) = coeff_of(&row.terms, x) {
                self.value[row.basic] = self.value[row.basic].add(a.mul(delta)?)?;
            }
        }
        self.value[x] = v;
        Ok(())
    }

    /// Rational feasibility of the current bounds (Bland's rule).
    fn simplex(&mut self) -> Res<Verdict> {
        loop {
            // Leaving: the violated basic column with the smallest index.
            let mut leave: Option<(usize, usize, i128, bool)> = None;
            for (r, row) in self.rows.iter().enumerate() {
                let b = row.basic;
                if leave.is_some_and(|(_, lb, _, _)| lb < b) {
                    continue;
                }
                if let Some(l) = self.lo[b] {
                    if self.value[b].cmp_int(l)? == Ordering::Less {
                        leave = Some((r, b, l, true));
                        continue;
                    }
                }
                if let Some(h) = self.hi[b] {
                    if self.value[b].cmp_int(h)? == Ordering::Greater {
                        leave = Some((r, b, h, false));
                    }
                }
            }
            let Some((r, _, target, raise)) = leave else {
                return Ok(Verdict::Sat);
            };
            // Entering: the smallest column that can move the basic one
            // toward its bound.
            let mut enter = None;
            for &(j, a) in &self.rows[r].terms {
                let slack = if (a.n > 0) == raise {
                    match self.hi[j] {
                        Some(h) => self.value[j].cmp_int(h)? == Ordering::Less,
                        None => true,
                    }
                } else {
                    match self.lo[j] {
                        Some(l) => self.value[j].cmp_int(l)? == Ordering::Greater,
                        None => true,
                    }
                };
                if slack {
                    enter = Some((j, a));
                    break;
                }
            }
            let Some((j, a)) = enter else {
                return Ok(Verdict::Unsat);
            };
            if self.fuel == 0 {
                return Ok(Verdict::Unknown);
            }
            self.fuel -= 1;
            self.stats.pivots += 1;
            self.pivot_and_update(r, j, a, Rat::int(target))?;
        }
    }

    /// Sets row `r`'s basic column to `target` by moving column `j`
    /// (coefficient `a` in the row), then swaps the two.
    fn pivot_and_update(&mut self, r: usize, j: usize, a: Rat, target: Rat) -> Res<()> {
        let b = self.rows[r].basic;
        let inv = a.recip()?;
        let theta = target.sub(self.value[b])?.mul(inv)?;
        self.value[b] = target;
        self.value[j] = self.value[j].add(theta)?;
        for (r2, row) in self.rows.iter().enumerate() {
            if r2 != r {
                if let Some(c) = coeff_of(&row.terms, j) {
                    self.value[row.basic] = self.value[row.basic].add(c.mul(theta)?)?;
                }
            }
        }
        // b = a·x_j + rest  ⇒  x_j = b/a − rest/a.
        let neg_inv = inv.neg()?;
        let old = std::mem::take(&mut self.rows[r].terms);
        let mut terms = Vec::with_capacity(old.len());
        for &(k, ak) in &old {
            if k != j {
                terms.push((k, ak.mul(neg_inv)?));
            }
        }
        let at = terms.partition_point(|&(k, _)| k < b);
        terms.insert(at, (b, inv));
        for r2 in 0..self.rows.len() {
            if r2 == r {
                continue;
            }
            if let Some(c) = coeff_of(&self.rows[r2].terms, j) {
                self.rows[r2].terms = merge_scaled(&self.rows[r2].terms, j, c, &terms)?;
            }
        }
        self.rows[r] = Row { basic: j, terms };
        self.basic_row[j] = r;
        self.basic_row[b] = BASIC_NONE;
        Ok(())
    }

    /// Where an integer search must branch next: a fractional problem
    /// column, then a disequality the model violates, as
    /// `(column, upper bound of the first branch, lower bound of the
    /// second)`.
    fn branch_point(&self) -> Res<Option<(usize, i128, i128)>> {
        for c in 0..self.n_struct {
            let v = self.value[c];
            if v.d != 1 {
                return Ok(Some((c, v.floor(), ck(v.floor().checked_add(1))?)));
            }
        }
        for &(s, v) in &self.diseqs {
            if self.value[s] == Rat::int(v) {
                return Ok(Some((s, ck(v.checked_sub(1))?, ck(v.checked_add(1))?)));
            }
        }
        Ok(None)
    }

    /// One integer search from the current bounds, drawing on the
    /// problem's fuel. The bounds are restored on return; a `Sat` leaf
    /// records its model, and an overflow retires the problem.
    fn search(&mut self) -> Verdict {
        self.stats.checks += 1;
        let base = self.trail.len();
        let out = self.branch_and_bound();
        self.backtrack(base);
        match out {
            Ok(Verdict::Unknown) => {
                self.stats.gave_up += 1;
                Verdict::Unknown
            }
            Err(Overflow) => {
                self.stats.gave_up += 1;
                self.poison();
                Verdict::Unknown
            }
            Ok(v) => v,
        }
    }

    fn branch_and_bound(&mut self) -> Res<Verdict> {
        // Second branches still to explore: (trail mark, column, lower).
        let mut pending: Vec<(usize, usize, i128)> = Vec::new();
        loop {
            let mut unsat = match self.simplex()? {
                Verdict::Unknown => return Ok(Verdict::Unknown),
                Verdict::Unsat => true,
                Verdict::Sat => match self.branch_point()? {
                    None => {
                        let model = self.value[..self.n_struct].iter().map(|v| v.n).collect();
                        self.models.push(model);
                        return Ok(Verdict::Sat);
                    }
                    Some((c, upper, lower)) => {
                        if self.fuel == 0 {
                            return Ok(Verdict::Unknown);
                        }
                        self.fuel -= 1;
                        pending.push((self.trail.len(), c, lower));
                        !self.assert_upper(c, upper)?
                    }
                },
            };
            while unsat {
                let Some((mark, c, lower)) = pending.pop() else {
                    return Ok(Verdict::Unsat);
                };
                self.backtrack(mark);
                unsat = !self.assert_lower(c, lower)?;
            }
        }
    }

    /// Decides the loaded problem. A `Feasible` answer found by search
    /// records an integer model.
    pub fn check(&mut self) -> LiaResult {
        match self.loaded {
            Loaded::Infeasible => {
                self.stats.checks += 1;
                LiaResult::Infeasible
            }
            Loaded::Overflow => {
                self.stats.checks += 1;
                self.stats.gave_up += 1;
                LiaResult::Feasible
            }
            Loaded::Ok => match self.search() {
                Verdict::Unsat => LiaResult::Infeasible,
                Verdict::Sat | Verdict::Unknown => LiaResult::Feasible,
            },
        }
    }

    /// True if `x` occurs in some row of the loaded problem. A variable
    /// that occurs in none is unconstrained, so no equality with it can
    /// be entailed.
    pub fn mentions(&self, x: u32) -> bool {
        self.col.contains_key(&x) || self.subst.contains_key(&x)
    }

    /// The value of `x` in the most recent integer model, if any.
    pub fn model_value(&self, x: u32) -> Option<i128> {
        let model = self.models.last()?;
        let (terms, k) = self.resolve(x)?;
        eval(&terms, k, model)
    }

    /// True if some integer model found so far gives `x` and `y`
    /// different values. That model satisfies every row, so `x = y` is
    /// then not entailed over ℤ, and no probe is needed.
    pub fn separated(&self, x: u32, y: u32) -> bool {
        let Some((terms, k)) = self.diff(x, y) else {
            return false;
        };
        self.models
            .iter()
            .any(|m| eval(&terms, k, m).is_some_and(|v| v != 0))
    }

    /// True if the rows entail `x = y`: both strict separations `x < y`
    /// and `y < x` are infeasible. Each separation is one bound asserted
    /// on the live tableau and retracted after its search; a feasible
    /// separation adds its model to the ones [`Simplex::separated`] uses.
    pub fn entails_eq(&mut self, x: u32, y: u32) -> bool {
        if self.loaded != Loaded::Ok {
            return false;
        }
        let Some((terms, k)) = self.diff(x, y) else {
            return false;
        };
        for sign in [1i128, -1] {
            let mark = self.trail.len();
            let verdict =
                match separation(&terms, k, sign).and_then(|e| self.assert_rel(e, Rel::Le)) {
                    Ok(true) => self.search(),
                    Ok(false) => {
                        self.stats.checks += 1;
                        Verdict::Unsat
                    }
                    Err(Overflow) => {
                        self.stats.checks += 1;
                        self.stats.gave_up += 1;
                        self.poison();
                        Verdict::Unknown
                    }
                };
            self.backtrack(mark);
            if verdict != Verdict::Unsat {
                return false;
            }
        }
        true
    }
}

/// `sign·(Σ terms + k) + 1`, the left side of a strict separation
/// `sign·(x − y) < 0` over ℤ.
fn separation(terms: &[(usize, i128)], k: i128, sign: i128) -> Res<ColExp> {
    let mut t = Vec::with_capacity(terms.len());
    for &(c, a) in terms {
        t.push((c, ck(a.checked_mul(sign))?));
    }
    Ok((t, ck(ck(k.checked_mul(sign))?.checked_add(1))?))
}

fn eval(terms: &[(usize, i128)], k: i128, model: &[i128]) -> Option<i128> {
    terms
        .iter()
        .try_fold(k, |acc, &(c, a)| acc.checked_add(a.checked_mul(model[c])?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn le(pairs: &[(u32, i128)], k: i128) -> LinExp {
        let mut e = LinExp::konst(k);
        for &(x, c) in pairs {
            e.add_term(x, c);
        }
        e
    }

    #[test]
    fn simple_infeasible() {
        // x ≤ 0 ∧ -x + 1 ≤ 0 (x ≥ 1)
        let p = LiaProblem {
            les: vec![le(&[(0, 1)], 0), le(&[(0, -1)], 1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn simple_feasible() {
        // 0 ≤ x ∧ x ≤ 10
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -10)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
    }

    #[test]
    fn array_bounds_vc() {
        // 0 < len ∧ v = 0 ∧ ¬(0 ≤ v ∧ v < len) — the head example, negated.
        // Branch 1: v < 0; branch 2: v ≥ len. Vars: v=0, len=1.
        let base_eq = le(&[(0, 1)], 0); // v = 0
        let len_pos = le(&[(1, -1)], 1); // 1 - len ≤ 0
        let p1 = LiaProblem {
            les: vec![len_pos.clone(), le(&[(0, 1)], 1)], // v + 1 ≤ 0
            eqs: vec![base_eq.clone()],
            ..Default::default()
        };
        assert_eq!(p1.feasible(), LiaResult::Infeasible);
        let p2 = LiaProblem {
            les: vec![len_pos, le(&[(0, -1), (1, 1)], 0)], // len - v ≤ 0
            eqs: vec![base_eq],
            ..Default::default()
        };
        assert_eq!(p2.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn gcd_integrality() {
        // 2x = 1 infeasible over Z.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 2)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn tightening_catches_strict_bounds() {
        // 2x ≤ 1 ∧ x ≥ 1: tightened 2x ≤ 1 becomes x ≤ 0.
        let p = LiaProblem {
            les: vec![le(&[(0, 2)], -1), le(&[(0, -1)], 1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn diseq_split() {
        // 0 ≤ x ≤ 1 ∧ x ≠ 0 ∧ x ≠ 1 infeasible over Z.
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -1)],
            diseqs: vec![le(&[(0, 1)], 0), le(&[(0, 1)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn diseq_feasible() {
        // 0 ≤ x ≤ 2 ∧ x ≠ 1 feasible (x = 0).
        let p = LiaProblem {
            les: vec![le(&[(0, -1)], 0), le(&[(0, 1)], -2)],
            diseqs: vec![le(&[(0, 1)], -1)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
    }

    #[test]
    fn equality_substitution() {
        // x = y + 1 ∧ y = 3 ∧ x ≤ 3 infeasible.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 1), (1, -1)], -1), le(&[(1, 1)], -3)],
            les: vec![le(&[(0, 1)], -3)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn entailed_equality() {
        // x ≤ y ∧ y ≤ x entails x = y.
        let p = LiaProblem {
            les: vec![le(&[(0, 1), (1, -1)], 0), le(&[(0, -1), (1, 1)], 0)],
            ..Default::default()
        };
        assert!(Simplex::new(&p).entails_eq(0, 1));
        let q = LiaProblem {
            les: vec![le(&[(0, 1), (1, -1)], 0)],
            ..Default::default()
        };
        assert!(!Simplex::new(&q).entails_eq(0, 1));
    }

    #[test]
    fn three_var_chain() {
        // a ≤ b ∧ b ≤ c ∧ c ≤ a - 1 infeasible.
        let p = LiaProblem {
            les: vec![
                le(&[(0, 1), (1, -1)], 0),
                le(&[(1, 1), (2, -1)], 0),
                le(&[(2, 1), (0, -1)], 1),
            ],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    #[test]
    fn nonunit_equality_fallback() {
        // 2x + 3y = 7 ∧ x ≥ 0 ∧ y ≥ 0 ∧ x + y ≤ 1: the largest 2x + 3y
        // with x, y ≥ 0 and x + y ≤ 1 is 3 < 7, so infeasible.
        let p = LiaProblem {
            eqs: vec![le(&[(0, 2), (1, 3)], -7)],
            les: vec![
                le(&[(0, -1)], 0),
                le(&[(1, -1)], 0),
                le(&[(0, 1), (1, 1)], -1),
            ],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
    }

    /// A variable-elimination decider that multiplied rows without
    /// overflow checks wrapped `i128` on this instance in release builds
    /// and answered `Infeasible`. Every constant is ≤ 0, so
    /// `x = y = z = 0` is a solution.
    #[test]
    fn huge_coefficients_do_not_overflow() {
        let (x0, x1, x2) = (0, 1, 2);
        let p = LiaProblem {
            les: vec![
                le(&[(x0, 2147483648), (x1, -1)], -2305843009213693951),
                le(
                    &[(x0, -2147483648), (x2, 9223372036854775807)],
                    -1099511627783,
                ),
                le(&[(x0, 1)], -2305843009213693951),
                le(
                    &[(x0, 2147483648), (x2, 2305843009213693951)],
                    -9223372036854775807,
                ),
                le(&[(x1, 9223372036854775807)], -3),
                le(&[(x1, 2305843009213693951), (x2, -1)], -2305843009213693951),
            ],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Feasible);
    }

    /// Coefficients at the edge of `i128` answer without panicking, in
    /// debug builds too.
    #[test]
    fn extreme_coefficients_do_not_panic() {
        let p = LiaProblem {
            les: vec![le(&[(0, i128::MIN), (1, 1)], 0), le(&[(0, 1)], i128::MIN)],
            diseqs: vec![le(&[(0, i128::MAX), (1, i128::MIN)], i128::MAX)],
            ..Default::default()
        };
        // x = y = 0 and x = 0, y = −1 both satisfy every row.
        let mut s = Simplex::new(&p);
        assert_eq!(s.check(), LiaResult::Feasible);
        assert!(!s.entails_eq(0, 1));
        // An overflow while loading, after x0 := x1 was substituted,
        // leaves nothing to ask about either variable.
        let q = LiaProblem {
            eqs: vec![le(&[(0, 1), (1, -1)], 0)],
            les: vec![le(&[(1, 1)], i128::MIN)],
            ..Default::default()
        };
        let mut s = Simplex::new(&q);
        assert_eq!(s.check(), LiaResult::Feasible);
        assert!(!s.separated(0, 1) && !s.entails_eq(0, 1));
    }

    /// The rows force `x = 2 ∧ z = 4` and leave `y` free in [−4, 4], so
    /// neither `x = z` nor `y = z` is entailed. Loading succeeds, but the
    /// search overflows `i128` while pivoting and can leave a row half
    /// rewritten; the probes must not run on that tableau.
    #[test]
    fn overflow_in_search_blocks_later_probes() {
        let (x, y, z) = (0, 1, 2);
        let mut les = Vec::new();
        for v in [x, y, z] {
            les.push(le(&[(v, -1)], -4));
            les.push(le(&[(v, 1)], -4));
        }
        les.push(le(
            &[(x, -4), (z, -288230376151710992)],
            1152921504606843975,
        ));
        let p = LiaProblem {
            les,
            eqs: vec![le(
                &[(x, 799914002483085), (z, 716898219213255)],
                -4467420881819190,
            )],
            ..Default::default()
        };
        let mut s = Simplex::new(&p);
        assert_eq!(s.loaded, Loaded::Ok);
        assert_eq!(s.check(), LiaResult::Feasible);
        assert_eq!(s.loaded, Loaded::Overflow);
        assert_eq!(s.stats.gave_up, 1);
        assert!(!s.entails_eq(x, z) && !s.entails_eq(y, z));
        assert!(!s.mentions(x) && !s.separated(x, z));
    }

    /// 2x − 2y ≤ 1 ∧ 2y − 2x ≤ 1 ∧ 3x + 3y = 9 has the rational solution
    /// x = y = 3/2 but no integer one; a search over ℤ must find the
    /// integer point of a polytope that has fractional vertices.
    #[test]
    fn integer_reasoning_refutes_rational_solutions() {
        let p = LiaProblem {
            les: vec![le(&[(0, 2), (1, -2)], -1), le(&[(0, -2), (1, 2)], -1)],
            eqs: vec![le(&[(0, 3), (1, 3)], -9)],
            ..Default::default()
        };
        assert_eq!(p.feasible(), LiaResult::Infeasible);
        // 1 ≤ 3y − 2x ≤ 2 ∧ 0 ≤ x ≤ 3: x = 1, y = 1 is the integer point.
        let q = LiaProblem {
            les: vec![
                le(&[(1, -3), (0, 2)], 1),
                le(&[(1, 3), (0, -2)], -2),
                le(&[(0, -1)], 0),
                le(&[(0, 1)], -3),
            ],
            ..Default::default()
        };
        let mut s = Simplex::new(&q);
        assert_eq!(s.check(), LiaResult::Feasible);
        let (x, y) = (s.model_value(0).unwrap(), s.model_value(1).unwrap());
        assert!((1..=2).contains(&(3 * y - 2 * x)) && (0..=3).contains(&x));
    }

    /// `2x − y − w = 1` with `w = y` is rationally feasible along an
    /// unbounded line but has no integer point, so branch-and-bound never
    /// closes. The check spends the fuel and answers `Feasible`, and the
    /// probes after it share that fuel instead of each starting over.
    #[test]
    fn spent_fuel_answers_feasible_and_bounds_probes() {
        let (x, y, w, z) = (0, 1, 2, 3);
        let p = LiaProblem {
            les: vec![
                le(&[(w, 1), (y, -1)], 0),
                le(&[(y, 1), (w, -1)], 0),
                le(&[(x, 2), (y, -1), (w, -1)], -1),
                le(&[(x, -2), (y, 1), (w, 1)], 1),
                le(&[(z, -1)], 0),
                le(&[(z, 1)], -5),
            ],
            ..Default::default()
        };
        let mut s = Simplex::new(&p);
        assert_eq!(s.check(), LiaResult::Feasible);
        assert_eq!(s.stats.gave_up, 1);
        assert_eq!(s.model_value(x), None);
        let pivots = s.stats.pivots;
        assert!(pivots <= FUEL);
        // The rows force w = y and x − y = 1/2 over ℚ, so these
        // separations are refuted without a pivot (vacuously true over ℤ).
        assert!(s.entails_eq(y, w) && s.entails_eq(x, y));
        // Separating x from z needs a search, and the fuel is gone.
        assert!(!s.entails_eq(x, z));
        assert_eq!(s.stats.gave_up, 2);
        assert_eq!(s.stats.pivots, pivots);
    }

    /// Models cover eliminated variables and prove separations; model-equal
    /// pairs are left to a probe.
    #[test]
    fn models_separate_pairs() {
        // x = y + 1 ∧ 0 ≤ y ≤ 5 ∧ z = y
        let p = LiaProblem {
            eqs: vec![le(&[(0, 1), (1, -1)], -1), le(&[(2, 1), (1, -1)], 0)],
            les: vec![le(&[(1, -1)], 0), le(&[(1, 1)], -5)],
            ..Default::default()
        };
        let mut s = Simplex::new(&p);
        assert_eq!(s.check(), LiaResult::Feasible);
        assert_eq!(s.model_value(0), Some(s.model_value(1).unwrap() + 1));
        assert!(s.separated(0, 1));
        assert!(!s.separated(1, 2));
        assert!(s.entails_eq(1, 2));
        assert!(!s.entails_eq(0, 2));
        assert!(!s.mentions(7));
    }
}
