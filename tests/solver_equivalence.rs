//! Solver-configuration equivalence: the VC cache and its persistent
//! `--vc-cache` disk tier are performance features only — every
//! benchmark of the Figure 6 corpus (clean *and* with seeded bugs) must
//! produce byte-identical diagnostics, verdicts, and query counts with
//! the cache on or off, and with a disk cache cold or warm, at any
//! worker count.
//!
//! Why this holds: the cache stores only Unsat verdicts of canonical
//! queries, the queries it could answer differently from the uncached
//! path (unencodable ones) are answered before it, the disk tier stores
//! the same verdicts under a versioned key, and bundle-verdict reuse
//! replays a pure function of the canonical bundle fingerprint. This
//! suite is the regression net under those arguments.

use rsc_bench::{benchmark_names, load_benchmark};
use rsc_core::{check_program, CheckResult, CheckerOptions};
use rsc_incr::CheckSession;

fn options(vc_cache: bool, jobs: usize) -> CheckerOptions {
    CheckerOptions {
        vc_cache,
        jobs,
        ..CheckerOptions::default()
    }
}

/// Renders a result exactly as consumers see it (severity, span, text).
fn render(r: &CheckResult) -> String {
    r.diagnostics
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join("\n")
}

fn assert_equivalent(name: &str, a_label: &str, a: &CheckResult, b_label: &str, b: &CheckResult) {
    assert_eq!(
        a.ok(),
        b.ok(),
        "{name}: verdict differs between {a_label} and {b_label}"
    );
    assert_eq!(
        render(a),
        render(b),
        "{name}: diagnostics differ between {a_label} and {b_label}"
    );
    assert_eq!(
        a.stats.smt_queries, b.stats.smt_queries,
        "{name}: liquid query count differs between {a_label} and {b_label}"
    );
    assert_eq!(
        a.stats.smt_queries + a.stats.obligations_discharged,
        b.stats.smt_queries + b.stats.obligations_discharged,
        "{name}: validity questions asked differ between {a_label} and {b_label}"
    );
    assert_eq!(a.stats.constraints, b.stats.constraints, "{name}");
    assert_eq!(a.stats.bundles, b.stats.bundles, "{name}");
}

/// Every (clean, seeded-bug) corpus source, parseable mutants only.
fn corpus() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for name in benchmark_names() {
        let src = load_benchmark(name).expect("benchmark file");
        out.push((name.to_string(), src));
    }
    for &(name, from, to) in rsc_bench::seeded_mutations() {
        let src = load_benchmark(name).expect("benchmark file");
        let mutated = src.replacen(from, to, 1);
        if rsc_syntax::parse_program(&mutated).is_ok() {
            out.push((format!("{name}+bug"), mutated));
        }
    }
    out
}

#[test]
fn uncached_matches_cached_on_corpus() {
    for (name, src) in corpus() {
        let cached = check_program(&src, options(true, 1));
        let uncached = check_program(&src, options(false, 1));
        assert_equivalent(&name, "cache on", &cached, "cache off", &uncached);
        // And across worker counts with the shared cache on (a verdict
        // is a pure function of the canonical query, whichever bundle
        // solver records it first).
        let cached4 = check_program(&src, options(true, 4));
        assert_equivalent(&name, "jobs=1", &cached, "jobs=4", &cached4);
    }
}

#[test]
fn disk_cache_warm_matches_cold_on_corpus() {
    let dir = std::env::temp_dir().join(format!("rsc-vcc-equiv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for (name, src) in corpus() {
        let cold = check_program(&src, CheckerOptions::default());

        // First session populates the disk tier; a second, fresh session
        // (simulating a process restart) must serve every bundle from
        // disk and still match the cold run byte for byte.
        let populate = CheckSession::with_disk(CheckerOptions::default(), &dir).check(&src);
        assert_equivalent(&name, "cold", &cold, "disk-cold", &populate.result);

        let warm = CheckSession::with_disk(CheckerOptions::default(), &dir).check(&src);
        assert_equivalent(&name, "cold", &cold, "disk-warm", &warm.result);
        assert_eq!(
            warm.incr.reused, warm.incr.bundles,
            "{name}: a warm disk cache must reuse every bundle"
        );
        assert_eq!(
            warm.incr.solved, 0,
            "{name}: a warm re-check must solve zero bundles"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
