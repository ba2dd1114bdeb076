//! Scaling regression for the join-chain repro:
//!
//! ```text
//! function f(x: number): number {
//!     var a1 = x + c1;  if (a1 > 0) { x = a1; }
//!     ...
//!     var an = x + cn;  if (an > 0) { x = an; }
//!     return x;
//! }
//! ```
//!
//! Every join's κ solution carries `v >= x_j` for each earlier `x_j`, so
//! the hypotheses grow quadratically with `n`, and every `number`
//! variable is a Nelson–Oppen candidate. The program must verify at
//! n = 12, and the simplex work must grow at most cubically. The bound is
//! on the deterministic pivot counter, not on wall-clock time, so it
//! holds on any machine.

use rsc_core::{check_program, CheckResult, CheckerOptions};

fn join_chain(n: usize) -> String {
    let mut s = String::from("function f(x: number): number {\n");
    for i in 1..=n {
        let c = 1 + (i * 5) % 9;
        s.push_str(&format!(
            "    var a{i} = x + {c};\n    if (a{i} > 0) {{ x = a{i}; }}\n"
        ));
    }
    s.push_str("    return x;\n}\n");
    s
}

fn check(n: usize) -> CheckResult {
    let opts = CheckerOptions {
        jobs: 1,
        ..CheckerOptions::default()
    };
    let r = check_program(&join_chain(n), opts);
    assert!(r.ok(), "join chain n={n} must verify: {:?}", r.diagnostics);
    r
}

fn pivots(r: &CheckResult) -> u64 {
    r.bundle_reports.iter().map(|b| b.smt.lia_pivots).sum()
}

#[test]
fn join_chain_pivots_grow_at_most_cubically() {
    let (small, large) = (check(6), check(12));
    let (p6, p12) = (pivots(&small), pivots(&large));
    assert!(p6 > 0, "the n=6 chain must reach the simplex");
    assert!(
        p12 <= 8 * p6,
        "lia_pivots grew from {p6} (n=6) to {p12} (n=12): faster than n³"
    );
    let gave_up: u64 = large.bundle_reports.iter().map(|b| b.smt.lia_gave_up).sum();
    assert_eq!(gave_up, 0, "no LIA search may run out of fuel at n=12");
}
