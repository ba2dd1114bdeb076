//! The abstract domains: intervals over `i64` with ±∞, congruences
//! `v ≡ r (mod m)`, boolean truthiness and reference nullness — combined
//! as a reduced product in [`AbsVal`].
//!
//! Every operation errs toward ⊤ (no information); the only way an
//! analysis result can be wrong is a transfer function claiming more
//! than the concrete semantics guarantees, so each transfer here models
//! the *solver-visible* semantics: operations the SMT layer leaves
//! uninterpreted (nonlinear multiplication, division and modulus by
//! non-constants) map to ⊤ in the interval component, and only the
//! congruence component reasons about `%`.

/// An interval `[lo, hi]` over `i64` with `None` as ±∞.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Lower bound (`None` = −∞).
    pub lo: Option<i64>,
    /// Upper bound (`None` = +∞).
    pub hi: Option<i64>,
}

impl Interval {
    /// The full interval (⊤).
    pub const TOP: Interval = Interval { lo: None, hi: None };

    /// The singleton `[n, n]`.
    pub fn exact(n: i64) -> Interval {
        Interval {
            lo: Some(n),
            hi: Some(n),
        }
    }

    /// `[lo, +∞)`.
    pub fn at_least(lo: i64) -> Interval {
        Interval {
            lo: Some(lo),
            hi: None,
        }
    }

    /// `(-∞, hi]`.
    pub fn at_most(hi: i64) -> Interval {
        Interval {
            lo: None,
            hi: Some(hi),
        }
    }

    /// True when the interval contains no integer (the meet produced ⊥).
    pub fn is_empty(&self) -> bool {
        matches!((self.lo, self.hi), (Some(l), Some(h)) if l > h)
    }

    /// True when the interval is a single known constant.
    pub fn as_const(&self) -> Option<i64> {
        match (self.lo, self.hi) {
            (Some(l), Some(h)) if l == h => Some(l),
            _ => None,
        }
    }

    /// Least upper bound.
    pub fn join(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.min(b)),
                _ => None,
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }

    /// Greatest lower bound (may be empty).
    pub fn meet(&self, other: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, other.lo) {
                (Some(a), Some(b)) => Some(a.max(b)),
                (a, b) => a.or(b),
            },
            hi: match (self.hi, other.hi) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (a, b) => a.or(b),
            },
        }
    }

    /// Standard widening: bounds that grew since `self` jump to ∞.
    pub fn widen(&self, next: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (Some(a), Some(b)) if b < a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
            hi: match (self.hi, next.hi) {
                (Some(a), Some(b)) if b > a => None,
                (Some(a), Some(_)) => Some(a),
                _ => None,
            },
        }
    }

    /// Narrowing: an ∞ bound may be refined back to `next`'s finite
    /// bound; finite bounds keep their widened value.
    pub fn narrow(&self, next: &Interval) -> Interval {
        Interval {
            lo: match (self.lo, next.lo) {
                (None, b) => b,
                (a, _) => a,
            },
            hi: match (self.hi, next.hi) {
                (None, b) => b,
                (a, _) => a,
            },
        }
    }

    /// Abstract addition (saturating to ∞ on overflow).
    pub fn add(&self, other: &Interval) -> Interval {
        let lift = |a: Option<i64>, b: Option<i64>| match (a, b) {
            (Some(x), Some(y)) => x.checked_add(y),
            _ => None,
        };
        Interval {
            lo: lift(self.lo, other.lo),
            hi: lift(self.hi, other.hi),
        }
    }

    /// Abstract subtraction.
    pub fn sub(&self, other: &Interval) -> Interval {
        self.add(&other.neg())
    }

    /// Abstract negation.
    pub fn neg(&self) -> Interval {
        Interval {
            lo: self.hi.and_then(|h| h.checked_neg()),
            hi: self.lo.and_then(|l| l.checked_neg()),
        }
    }

    /// Abstract multiplication by a constant.
    pub fn mul_const(&self, k: i64) -> Interval {
        if k == 0 {
            return Interval::exact(0);
        }
        let scaled = Interval {
            lo: self.lo.and_then(|l| l.checked_mul(k)),
            hi: self.hi.and_then(|h| h.checked_mul(k)),
        };
        if k > 0 {
            scaled
        } else {
            Interval {
                lo: scaled.hi,
                hi: scaled.lo,
            }
        }
    }

    /// True when every value of `self` is ≤ every value of `other`.
    pub fn definitely_le(&self, other: &Interval) -> bool {
        matches!((self.hi, other.lo), (Some(a), Some(b)) if a <= b)
    }

    /// True when every value of `self` is < every value of `other`.
    pub fn definitely_lt(&self, other: &Interval) -> bool {
        matches!((self.hi, other.lo), (Some(a), Some(b)) if a < b)
    }

    /// True when the two intervals cannot share a value.
    pub fn definitely_ne(&self, other: &Interval) -> bool {
        self.definitely_lt(other) || other.definitely_lt(self)
    }
}

/// A congruence `v ≡ rem (mod modulus)`. `modulus == 1` is ⊤;
/// `modulus == 0` means `v` is exactly the constant `rem`.
///
/// The SMT layer treats `%` as uninterpreted, so a congruence fact is
/// *not* in general re-derivable by the solver; only lints use it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Congruence {
    /// The modulus (0 = exact constant, 1 = ⊤).
    pub modulus: u64,
    /// The residue, normalized into `[0, modulus)` when `modulus > 1`.
    pub rem: i64,
}

impl Congruence {
    /// ⊤ (no congruence information).
    pub const TOP: Congruence = Congruence { modulus: 1, rem: 0 };

    /// The exact constant `n`.
    pub fn exact(n: i64) -> Congruence {
        Congruence { modulus: 0, rem: n }
    }

    /// `v ≡ r (mod m)` for `m > 1`.
    pub fn modular(m: u64, r: i64) -> Congruence {
        if m <= 1 {
            return Congruence::TOP;
        }
        Congruence {
            modulus: m,
            rem: r.rem_euclid(m as i64),
        }
    }

    fn gcd(a: u64, b: u64) -> u64 {
        let (mut a, mut b) = (a, b);
        while b != 0 {
            let t = a % b;
            a = b;
            b = t;
        }
        a
    }

    /// Least upper bound: the coarsest congruence implied by both.
    pub fn join(&self, other: &Congruence) -> Congruence {
        match (self.modulus, other.modulus) {
            (0, 0) => {
                if self.rem == other.rem {
                    *self
                } else {
                    let d = self.rem.abs_diff(other.rem);
                    Congruence::modular(d, self.rem)
                }
            }
            (0, m) | (m, 0) => {
                let (c, modular) = if self.modulus == 0 {
                    (self.rem, other)
                } else {
                    (other.rem, self)
                };
                if m <= 1 {
                    return Congruence::TOP;
                }
                let m2 = Self::gcd(m, c.abs_diff(modular.rem));
                Congruence::modular(m2, modular.rem)
            }
            (a, b) => {
                let g = Self::gcd(Self::gcd(a, b), self.rem.abs_diff(other.rem));
                Congruence::modular(g, self.rem)
            }
        }
    }

    /// True when `n` satisfies the congruence.
    pub fn admits(&self, n: i64) -> bool {
        match self.modulus {
            0 => n == self.rem,
            1 => true,
            m => n.rem_euclid(m as i64) == self.rem,
        }
    }

    /// Abstract addition.
    pub fn add(&self, other: &Congruence) -> Congruence {
        match (self.modulus, other.modulus) {
            (0, 0) => match self.rem.checked_add(other.rem) {
                Some(s) => Congruence::exact(s),
                None => Congruence::TOP,
            },
            (0, m) | (m, 0) if m > 1 => {
                let c = if self.modulus == 0 {
                    self.rem
                } else {
                    other.rem
                };
                let r = if self.modulus == 0 {
                    other.rem
                } else {
                    self.rem
                };
                Congruence::modular(m, r.wrapping_add(c))
            }
            (a, b) if a > 1 && b > 1 => {
                Congruence::modular(Self::gcd(a, b), self.rem.wrapping_add(other.rem))
            }
            _ => Congruence::TOP,
        }
    }

    /// Abstract multiplication by a constant.
    pub fn mul_const(&self, k: i64) -> Congruence {
        match self.modulus {
            0 => match self.rem.checked_mul(k) {
                Some(p) => Congruence::exact(p),
                None => Congruence::TOP,
            },
            1 => {
                // ⊤ · k is still a multiple of k.
                Congruence::modular(k.unsigned_abs(), 0)
            }
            m => match (m as i64).checked_mul(k.abs()) {
                Some(m2) => Congruence::modular(m2 as u64, self.rem.wrapping_mul(k)),
                None => Congruence::TOP,
            },
        }
    }
}

/// Three-valued boolean truthiness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Truth {
    /// Definitely `true`.
    True,
    /// Definitely `false`.
    False,
    /// Unknown.
    Top,
}

impl Truth {
    /// Least upper bound.
    pub fn join(&self, other: &Truth) -> Truth {
        if self == other {
            *self
        } else {
            Truth::Top
        }
    }

    /// Logical negation.
    pub fn not(&self) -> Truth {
        match self {
            Truth::True => Truth::False,
            Truth::False => Truth::True,
            Truth::Top => Truth::Top,
        }
    }
}

/// Definite nullness of a reference value (`null`/`undefined` count as
/// null).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Nullness {
    /// Definitely not null/undefined.
    NonNull,
    /// Definitely null or undefined.
    Null,
    /// Unknown.
    Top,
}

impl Nullness {
    /// Least upper bound.
    pub fn join(&self, other: &Nullness) -> Nullness {
        if self == other {
            *self
        } else {
            Nullness::Top
        }
    }
}

/// The reduced product of every domain, one record per abstract value.
/// Components irrelevant to a value's actual type simply stay ⊤; the
/// `reduce` step propagates information between components (an empty
/// interval or an interval/congruence contradiction collapses to ⊥).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsVal {
    /// Numeric range.
    pub itv: Interval,
    /// Numeric congruence.
    pub cong: Congruence,
    /// Boolean truthiness.
    pub truth: Truth,
    /// Reference nullness.
    pub null: Nullness,
    /// Range of `len(v)` for array references.
    pub len: Interval,
    /// ⊥: the program point binding this value is unreachable.
    pub bottom: bool,
}

impl AbsVal {
    /// ⊤ in every component.
    pub const TOP: AbsVal = AbsVal {
        itv: Interval::TOP,
        cong: Congruence::TOP,
        truth: Truth::Top,
        null: Nullness::Top,
        len: Interval::TOP,
        bottom: false,
    };

    /// ⊥.
    pub fn bottom() -> AbsVal {
        AbsVal {
            bottom: true,
            ..AbsVal::TOP
        }
    }

    /// The abstract integer `n`.
    pub fn int(n: i64) -> AbsVal {
        AbsVal {
            itv: Interval::exact(n),
            cong: Congruence::exact(n),
            ..AbsVal::TOP
        }
    }

    /// The abstract boolean `b`.
    pub fn bool(b: bool) -> AbsVal {
        AbsVal {
            truth: if b { Truth::True } else { Truth::False },
            ..AbsVal::TOP
        }
    }

    /// A known-null reference.
    pub fn null() -> AbsVal {
        AbsVal {
            null: Nullness::Null,
            ..AbsVal::TOP
        }
    }

    /// A known-non-null reference with the given length range.
    pub fn non_null(len: Interval) -> AbsVal {
        AbsVal {
            null: Nullness::NonNull,
            len,
            ..AbsVal::TOP
        }
    }

    /// The reduction step of the product: cross-propagates between
    /// components and collapses contradictions to ⊥.
    pub fn reduce(mut self) -> AbsVal {
        if self.bottom {
            return AbsVal::bottom();
        }
        // Interval/congruence reduction: tighten bounds to the nearest
        // admitted residue; an exact congruence is an exact interval.
        if self.cong.modulus == 0 {
            self.itv = self.itv.meet(&Interval::exact(self.cong.rem));
        } else if self.cong.modulus > 1 {
            let m = self.cong.modulus as i64;
            if let Some(lo) = self.itv.lo {
                let shift = (self.cong.rem - lo).rem_euclid(m);
                self.itv.lo = lo.checked_add(shift).or(self.itv.lo);
            }
            if let Some(hi) = self.itv.hi {
                let shift = (hi - self.cong.rem).rem_euclid(m);
                self.itv.hi = hi.checked_sub(shift).or(self.itv.hi);
            }
        }
        if let Some(c) = self.itv.as_const() {
            if !self.cong.admits(c) {
                return AbsVal::bottom();
            }
            self.cong = Congruence::exact(c);
        }
        if self.itv.is_empty() || self.len.is_empty() {
            return AbsVal::bottom();
        }
        self
    }

    /// Least upper bound (componentwise; ⊥ is the unit).
    pub fn join(&self, other: &AbsVal) -> AbsVal {
        if self.bottom {
            return *other;
        }
        if other.bottom {
            return *self;
        }
        AbsVal {
            itv: self.itv.join(&other.itv),
            cong: self.cong.join(&other.cong),
            truth: self.truth.join(&other.truth),
            null: self.null.join(&other.null),
            len: self.len.join(&other.len),
            bottom: false,
        }
    }

    /// Greatest lower bound, reduced.
    pub fn meet(&self, other: &AbsVal) -> AbsVal {
        if self.bottom || other.bottom {
            return AbsVal::bottom();
        }
        let met = AbsVal {
            itv: self.itv.meet(&other.itv),
            // Congruence meet is approximated by keeping the more precise
            // side (sound: the meet is below both).
            cong: if self.cong.modulus == 1 {
                other.cong
            } else {
                self.cong
            },
            truth: match (self.truth, other.truth) {
                (Truth::Top, t) | (t, Truth::Top) => t,
                (a, b) if a == b => a,
                _ => return AbsVal::bottom(),
            },
            null: match (self.null, other.null) {
                (Nullness::Top, n) | (n, Nullness::Top) => n,
                (a, b) if a == b => a,
                _ => return AbsVal::bottom(),
            },
            len: self.len.meet(&other.len),
            bottom: false,
        };
        met.reduce()
    }

    /// Widening: intervals widen, everything else joins.
    pub fn widen(&self, next: &AbsVal) -> AbsVal {
        if self.bottom {
            return *next;
        }
        if next.bottom {
            return *self;
        }
        AbsVal {
            itv: self.itv.widen(&next.itv),
            cong: self.cong.join(&next.cong),
            truth: self.truth.join(&next.truth),
            null: self.null.join(&next.null),
            len: self.len.widen(&next.len),
            bottom: false,
        }
    }

    /// Narrowing against a recomputed (descending) value.
    pub fn narrow(&self, next: &AbsVal) -> AbsVal {
        if self.bottom || next.bottom {
            return AbsVal::bottom();
        }
        AbsVal {
            itv: self.itv.narrow(&next.itv),
            len: self.len.narrow(&next.len),
            ..*self
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_lattice_basics() {
        let a = Interval::exact(3);
        let b = Interval::exact(7);
        assert_eq!(
            a.join(&b),
            Interval {
                lo: Some(3),
                hi: Some(7)
            }
        );
        assert!(a.meet(&b).is_empty());
        assert_eq!(a.add(&b), Interval::exact(10));
        assert_eq!(a.sub(&b), Interval::exact(-4));
        assert_eq!(b.mul_const(-2), Interval::exact(-14));
        assert!(a.definitely_lt(&b));
        assert!(a.definitely_ne(&b));
    }

    #[test]
    fn widening_jumps_to_infinity_and_narrowing_recovers() {
        let a = Interval {
            lo: Some(0),
            hi: Some(1),
        };
        let b = Interval {
            lo: Some(0),
            hi: Some(2),
        };
        let w = a.widen(&b);
        assert_eq!(
            w,
            Interval {
                lo: Some(0),
                hi: None
            }
        );
        // A later descending pass recovers the loop-exit bound.
        let n = w.narrow(&Interval {
            lo: Some(0),
            hi: Some(10),
        });
        assert_eq!(
            n,
            Interval {
                lo: Some(0),
                hi: Some(10)
            }
        );
    }

    #[test]
    fn congruence_join_and_transfer() {
        let a = Congruence::exact(4);
        let b = Congruence::exact(10);
        let j = a.join(&b); // both ≡ 4 (mod 6) — gcd of difference
        assert_eq!(j.modulus, 6);
        assert!(j.admits(4) && j.admits(10) && j.admits(16));
        assert!(!j.admits(5));
        let even = Congruence::modular(2, 0);
        assert!(even.add(&Congruence::exact(1)).admits(3));
        assert_eq!(Congruence::TOP.mul_const(4).modulus, 4);
    }

    #[test]
    fn reduced_product_collapses_contradictions() {
        // v ∈ [3,3] but v ≡ 0 (mod 2): no integer satisfies both.
        let v = AbsVal {
            itv: Interval::exact(3),
            cong: Congruence::modular(2, 0),
            ..AbsVal::TOP
        };
        assert!(v.reduce().bottom);
        // v ∈ [1,6] ∧ v ≡ 0 (mod 3) tightens to [3,6].
        let v = AbsVal {
            itv: Interval {
                lo: Some(1),
                hi: Some(6),
            },
            cong: Congruence::modular(3, 0),
            ..AbsVal::TOP
        };
        let r = v.reduce();
        assert_eq!(
            r.itv,
            Interval {
                lo: Some(3),
                hi: Some(6)
            }
        );
    }

    #[test]
    fn meet_of_contradictory_nullness_is_bottom() {
        let a = AbsVal::null();
        let b = AbsVal::non_null(Interval::TOP);
        assert!(a.meet(&b).bottom);
    }
}
