//! Exhaustive bounded-box differential test of the LIA core.
//!
//! Random conjunctions of `≤`, `=` and `≠` rows over at most three
//! variables are checked with every variable boxed in `[-4, 4]`. The box
//! makes feasibility decidable by enumerating its 729 points, so both
//! directions are checked exactly:
//!
//! * `Infeasible` must mean no point of the box satisfies every row, and
//!   `Feasible` that some point does;
//! * every model must satisfy every row, box included;
//! * `entails_eq` must agree with "every solution gives x = y", and a pair
//!   the models separate must really take two values.
//!
//! A second leg draws coefficients up to 2⁶⁴, so that pivoting overflows
//! `i128` and the search gives up. Only soundness is checked there:
//! `Infeasible`, a model, an entailed equality and a separated pair must
//! each still be true of the box.

use proptest::prelude::*;
use rsc_smt::lia::{LiaProblem, LiaResult, LinExp, Simplex};

const BOX: i128 = 4;
const VARS: u32 = 3;

/// `(kind, coefficients, constant)`: kind 0 is `e ≤ 0`, 1 is `e = 0`,
/// 2 is `e ≠ 0`.
type RawRow = (u8, Vec<i128>, i128);

fn raw_row() -> impl Strategy<Value = RawRow> {
    (
        0u8..3,
        prop::collection::vec(-3i64..=3, VARS as usize..=VARS as usize),
        -6i64..=6,
    )
        .prop_map(|(kind, coeffs, k)| {
            (kind, coeffs.into_iter().map(i128::from).collect(), k.into())
        })
}

/// A small coefficient, or one within 1000 of `±2ᵇ` for `20 ≤ b ≤ 64`.
fn wide_coeff() -> impl Strategy<Value = i128> {
    prop_oneof![
        (-3i64..=3).prop_map(i128::from),
        (20u32..65, -1000i64..=1000, 0u8..2).prop_map(|(bits, off, neg)| {
            let c = (1i128 << bits) + i128::from(off);
            if neg == 1 {
                -c
            } else {
                c
            }
        }),
    ]
}

/// Rows with wide coefficients whose constant puts `point` within 3 of
/// the boundary, so that many problems are feasible.
fn wide_rows() -> impl Strategy<Value = Vec<RawRow>> {
    (
        prop::collection::vec(-BOX as i64..=BOX as i64, VARS as usize..=VARS as usize),
        prop::collection::vec(
            (
                0u8..3,
                prop::collection::vec(wide_coeff(), VARS as usize..=VARS as usize),
                -3i64..=3,
            ),
            1..6,
        ),
    )
        .prop_map(|(point, rows)| {
            rows.into_iter()
                .map(|(kind, coeffs, delta)| {
                    let at: i128 = coeffs
                        .iter()
                        .zip(&point)
                        .map(|(&c, &v)| c * i128::from(v))
                        .sum();
                    (kind, coeffs, i128::from(delta) - at)
                })
                .collect()
        })
}

fn exp(coeffs: &[i128], k: i128) -> LinExp {
    let mut e = LinExp::konst(k);
    for (x, &c) in coeffs.iter().enumerate() {
        if c != 0 {
            e.add_term(x as u32, c);
        }
    }
    e
}

/// The problem with every variable boxed in `[-BOX, BOX]`.
fn problem(rows: &[RawRow], nvars: u32) -> LiaProblem {
    let mut p = LiaProblem::default();
    for (kind, coeffs, k) in rows {
        let e = exp(&coeffs[..nvars as usize], *k);
        match kind {
            0 => p.les.push(e),
            1 => p.eqs.push(e),
            _ => p.diseqs.push(e),
        }
    }
    for x in 0..nvars {
        let mut hi = LinExp::var(x);
        hi.konst = -BOX; // x − 4 ≤ 0
        p.les.push(hi);
        let mut lo = LinExp::konst(-BOX);
        lo.add_term(x, -1); // −x − 4 ≤ 0
        p.les.push(lo);
    }
    p
}

fn eval(e: &LinExp, point: &[i128]) -> i128 {
    e.konst
        + e.coeffs
            .iter()
            .map(|(&x, &c)| c * point[x as usize])
            .sum::<i128>()
}

fn satisfies(p: &LiaProblem, point: &[i128]) -> bool {
    p.les.iter().all(|e| eval(e, point) <= 0)
        && p.eqs.iter().all(|e| eval(e, point) == 0)
        && p.diseqs.iter().all(|e| eval(e, point) != 0)
}

fn solutions(p: &LiaProblem, nvars: u32) -> Vec<Vec<i128>> {
    let side = 2 * BOX + 1;
    let count = (0..nvars).fold(1, |n, _| n * side);
    (0..count)
        .map(|mut code| {
            (0..nvars)
                .map(|_| {
                    let v = code % side - BOX;
                    code /= side;
                    v
                })
                .collect::<Vec<i128>>()
        })
        .filter(|point| satisfies(p, point))
        .collect()
}

/// Checks one boxed problem against enumeration of the box. With
/// `exact`, the answers must be complete too: no search may give up, and
/// every verdict and probe must match the box.
fn check_against_box(rows: &[RawRow], nvars: u32, exact: bool) {
    let p = problem(rows, nvars);
    let sols = solutions(&p, nvars);
    let mut lia = Simplex::new(&p);
    let verdict = lia.check();
    if verdict == LiaResult::Infeasible || exact {
        assert_eq!(
            verdict == LiaResult::Feasible,
            !sols.is_empty(),
            "verdict {verdict:?} but the box has {} solutions: {p:?}",
            sols.len(),
        );
    }
    if verdict == LiaResult::Infeasible {
        return;
    }
    if exact {
        assert_eq!(lia.stats.gave_up, 0, "gave up on {p:?}");
    }
    let model: Option<Vec<i128>> = (0..nvars).map(|x| lia.model_value(x)).collect();
    match model {
        Some(model) => assert!(satisfies(&p, &model), "model {model:?} violates {p:?}"),
        None => assert!(!exact, "no model for {p:?}"),
    }
    for x in 0..nvars {
        for y in (x + 1)..nvars {
            let entailed = sols.iter().all(|s| s[x as usize] == s[y as usize]);
            if lia.separated(x, y) {
                assert!(!entailed, "models separate {x} and {y} in {p:?}");
            }
            let answer = lia.entails_eq(x, y);
            if exact || answer {
                assert_eq!(answer, entailed, "entails_eq({x}, {y}) on {p:?}");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn simplex_decides_boxed_problems_exactly(
        rows in prop::collection::vec(raw_row(), 1..7),
        nvars in 1u32..4,
    ) {
        check_against_box(&rows, nvars, true);
    }

    #[test]
    fn simplex_is_sound_when_pivots_overflow(rows in wide_rows()) {
        check_against_box(&rows, VARS, false);
    }
}
