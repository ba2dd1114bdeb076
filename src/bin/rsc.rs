//! The `rsc` command-line checker: verify `.rsc` files (and their
//! import closures) from the shell, serve an editor session over
//! stdin/stdout, watch a file set, batch-check a tree, or fuzz the
//! checker itself.
//!
//! ```text
//! cargo run --bin rsc -- benchmarks/navier-stokes.rsc
//! cargo run --bin rsc -- app.rsc lib.rsc        # multi-file roots
//! cargo run --bin rsc -- src/                   # directory mode
//! cargo run --bin rsc -- --no-path-sensitivity file.rsc
//! cargo run --bin rsc -- --jobs 4 benchmarks/*.rsc
//! cargo run --bin rsc -- serve          # NDJSON requests on stdin
//! cargo run --bin rsc -- --watch a.rsc b.rsc  # re-check on save
//! cargo run --bin rsc -- check --recursive workspace/  # parallel batch
//! cargo run --bin rsc -- fuzz --cases 1000 --seed 0    # oracles
//! cargo run --bin rsc -- --profile trace.json file.rsc # Perfetto trace
//! cargo run --bin rsc -- --stats-json file.rsc         # per-phase JSON
//! ```
//!
//! Files may `import {name} from "./other"`: each root is checked as
//! its full import closure (a merged program), through one shared
//! workspace so overlapping closures share the VC cache. Directory
//! arguments expand to every `.rsc`/`.ts` file beneath them, sorted.
//!
//! Rejections are rendered rustc-style, with the error code of the
//! failed obligation kind, a source excerpt, and a caret underline over
//! the blamed range — located in the owning *file* of the closure (see
//! `rsc_core::Diagnostic::render`).
//!
//! Both `serve` and `--watch` run a persistent [`rsc_incr::Workspace`]:
//! after the first check, only the constraint bundles whose canonical
//! problem changed are re-solved, per document (see `ARCHITECTURE.md`).
//! `--watch` polls every file in the watched documents' import
//! closures, so saving an imported dependency re-checks its importers.
//!
//! Exit code 0 = verified, 1 = verification errors, 2 = usage/IO error.

use std::collections::BTreeMap;
use std::sync::Arc;

use rsc_core::{CheckerOptions, LineIndex};
use rsc_gen::FuzzConfig;
use rsc_incr::{DocReport, Serve, VcCache, Workspace};
use threadpool::Pool;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    // Subcommands: `rsc fuzz ...` has its own flag set; `rsc check ...`
    // is an alias for the default mode (so `rsc check --recursive dir`
    // reads naturally).
    if argv.first().map(String::as_str) == Some("fuzz") {
        run_fuzz_cli(&argv[1..]);
    }
    if argv.first().map(String::as_str) == Some("check") {
        argv.remove(0);
    }

    let mut opts = CheckerOptions::default();
    let mut args_files: Vec<String> = Vec::new();
    let mut quiet = false;
    let mut want_jobs = false;
    let mut want_cache_cap = false;
    let mut want_profile = false;
    let mut want_vc_cache_dir = false;
    let mut vc_cache_dir: Option<String> = None;
    let mut serve = false;
    let mut watch = false;
    let mut recursive = false;
    let mut profile_path: Option<String> = None;
    let mut stats_json = false;
    for arg in argv {
        if want_jobs {
            want_jobs = false;
            opts.jobs = parse_jobs(&arg);
            continue;
        }
        if want_cache_cap {
            want_cache_cap = false;
            opts.cache_capacity = parse_cache_cap(&arg);
            continue;
        }
        if want_profile {
            want_profile = false;
            profile_path = Some(arg);
            continue;
        }
        if want_vc_cache_dir {
            want_vc_cache_dir = false;
            vc_cache_dir = Some(arg);
            continue;
        }
        match arg.as_str() {
            "serve" => serve = true,
            "--watch" | "-w" => watch = true,
            "--recursive" | "-r" => recursive = true,
            "--no-path-sensitivity" => opts.path_sensitivity = false,
            "--no-prelude-qualifiers" => opts.prelude_qualifiers = false,
            "--no-mined-qualifiers" => opts.mine_qualifiers = false,
            "--no-vc-cache" => opts.vc_cache = false,
            "--no-incremental-smt" => opts.incremental_smt = false,
            "--lints" => opts.lints = true,
            "--no-lints" => opts.lints = false,
            "--jobs" | "-j" => want_jobs = true,
            "--cache-cap" => want_cache_cap = true,
            "--vc-cache" => want_vc_cache_dir = true,
            "--profile" => want_profile = true,
            "--stats-json" => stats_json = true,
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print_usage();
                return;
            }
            f if !f.starts_with('-') => args_files.push(f.to_string()),
            other => match other.strip_prefix("--jobs=") {
                Some(n) => opts.jobs = parse_jobs(n),
                None => match other.strip_prefix("--cache-cap=") {
                    Some(n) => opts.cache_capacity = parse_cache_cap(n),
                    None => match other.strip_prefix("--profile=") {
                        Some(p) => profile_path = Some(p.to_string()),
                        None => match other.strip_prefix("--vc-cache=") {
                            Some(d) => vc_cache_dir = Some(d.to_string()),
                            None => {
                                eprintln!("rsc: unknown flag {other}");
                                print_usage();
                                std::process::exit(2);
                            }
                        },
                    },
                },
            },
        }
    }
    if want_jobs {
        eprintln!("rsc: --jobs expects a worker count");
        print_usage();
        std::process::exit(2);
    }
    if want_cache_cap {
        eprintln!("rsc: --cache-cap expects an entry count");
        print_usage();
        std::process::exit(2);
    }
    if want_profile {
        eprintln!("rsc: --profile expects an output path");
        print_usage();
        std::process::exit(2);
    }
    if want_vc_cache_dir {
        eprintln!("rsc: --vc-cache expects a directory");
        print_usage();
        std::process::exit(2);
    }
    // The flag wins; RSC_VC_CACHE is the no-flag spelling for wrappers.
    if vc_cache_dir.is_none() {
        if let Ok(d) = std::env::var("RSC_VC_CACHE") {
            if !d.is_empty() {
                vc_cache_dir = Some(d);
            }
        }
    }
    let with_disk = |ws: Workspace| match &vc_cache_dir {
        Some(dir) => ws.persisting_to(dir),
        None => ws,
    };
    if serve {
        if watch || !args_files.is_empty() {
            eprintln!("rsc: serve takes no files (send load requests on stdin)");
            std::process::exit(2);
        }
        if profile_path.is_some() || stats_json {
            eprintln!("rsc: serve reports timing via the {{\"cmd\":\"metrics\"}} request");
            std::process::exit(2);
        }
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        if let Err(e) =
            Serve::run_over(with_disk(Workspace::new(opts)), stdin.lock(), stdout.lock())
        {
            eprintln!("rsc: serve I/O error: {e}");
            std::process::exit(2);
        }
        return;
    }
    let files = expand_files(&args_files);
    if watch {
        if files.is_empty() {
            eprintln!("rsc: --watch expects at least one file");
            std::process::exit(2);
        }
        run_watch(
            &files,
            opts,
            quiet,
            profile_path.as_deref(),
            vc_cache_dir.as_deref(),
        );
        return;
    }
    if files.is_empty() {
        print_usage();
        std::process::exit(2);
    }
    if recursive {
        if stats_json {
            eprintln!("rsc: --stats-json is not supported with --recursive");
            std::process::exit(2);
        }
        run_recursive(
            &files,
            opts,
            quiet,
            profile_path.as_deref(),
            vc_cache_dir.as_deref(),
        );
    }

    // Observability surfaces: both flags flip the same collector on;
    // collection must never change verdicts or diagnostics (see
    // `tests/profile_determinism.rs`).
    let obs_on = profile_path.is_some() || stats_json;
    if obs_on {
        rsc_obs::set_enabled(true);
        rsc_obs::drain(); // discard anything recorded before the batch
    }

    // One workspace for the whole batch: each root is checked as its
    // import closure, and overlapping closures share the VC cache.
    let mut ws = with_disk(Workspace::new(opts));
    let mut failed = false;
    let mut all_spans: Vec<rsc_obs::SpanRecord> = Vec::new();
    let mut json_files: Vec<String> = Vec::new();
    for file in &files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rsc: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        let start = std::time::Instant::now();
        let report = ws.check_one(file, src);
        let elapsed = start.elapsed();
        let profile = if obs_on {
            rsc_obs::drain()
        } else {
            rsc_obs::Profile::default()
        };
        let result = &report.outcome.result;
        let closure = report.merged.files.len();
        if stats_json {
            json_files.push(stats_json_entry(file, &report, &profile, elapsed));
            if !result.ok() {
                failed = true;
                // Keep stdout machine-readable; humans read stderr.
                eprint!("{}", rendered(&report));
            }
            eprint!("{}", rendered_lints(&report));
        } else if result.ok() {
            if !quiet {
                let files_note = if closure > 1 {
                    format!(", {closure} files")
                } else {
                    String::new()
                };
                println!(
                    "{file}: SAFE ({} constraints, {} κ-vars, {} SMT queries, \
                     {} bundles{files_note}, {:.0}% VC-cache hits, {:.0?})",
                    result.stats.constraints,
                    result.stats.kvars,
                    result.stats.smt_queries,
                    result.stats.bundles,
                    100.0 * result.stats.cache_hit_rate(),
                    elapsed
                );
            }
        } else {
            failed = true;
            println!(
                "{file}: UNSAFE ({} errors, {:.0?})",
                result.diagnostics.len(),
                elapsed
            );
            print_rendered(&report);
        }
        if !stats_json {
            print!("{}", rendered_lints(&report));
        }
        if profile_path.is_some() {
            all_spans.extend(profile.spans);
        }
    }
    if stats_json {
        println!("{{\"files\":[{}]}}", json_files.join(","));
    }
    if let Some(path) = &profile_path {
        write_trace(path, &all_spans);
    }
    std::process::exit(if failed { 1 } else { 0 });
}

/// Writes a Chrome trace-event file (loadable in Perfetto /
/// `chrome://tracing`) from the collected spans.
fn write_trace(path: &str, spans: &[rsc_obs::SpanRecord]) {
    if let Err(e) = std::fs::write(path, rsc_obs::chrome_trace_json(spans)) {
        eprintln!("rsc: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// One `--stats-json` entry: verdict and structural stats are
/// deterministic at any `--jobs` (per-bundle rows are in bundle-index
/// order); `*_us` timings and the VC-cache hit/miss split are
/// measurements and vary run to run.
fn stats_json_entry(
    file: &str,
    report: &DocReport,
    profile: &rsc_obs::Profile,
    elapsed: std::time::Duration,
) -> String {
    use std::fmt::Write;
    let result = &report.outcome.result;
    let stats = &result.stats;
    let mut bundles = String::new();
    for (i, b) in result.bundle_reports.iter().enumerate() {
        if i > 0 {
            bundles.push(',');
        }
        write!(
            bundles,
            "{{\"index\":{i},\"constraints\":{},\"kvars\":{},\"cached\":{},\
             \"failures\":{},\"smt_queries\":{},\"cache_hits\":{},\
             \"lia_checks\":{},\"eq_probes\":{},\"eq_probes_pruned\":{},\
             \"lia_pivots\":{},\"lia_gave_up\":{},\
             \"discharged_static\":{},\"solve_us\":{}}}",
            b.constraints,
            b.kvars,
            b.cached,
            b.failures.len(),
            b.smt_queries,
            b.smt.cache_hits,
            b.smt.lia_checks,
            b.smt.eq_probes,
            b.smt.eq_probes_pruned,
            b.smt.lia_pivots,
            b.smt.lia_gave_up,
            b.discharged,
            b.solve_ns / 1_000,
        )
        .unwrap();
    }
    let mut phases = String::new();
    for (i, p) in profile.phase_totals().iter().enumerate() {
        if i > 0 {
            phases.push(',');
        }
        write!(
            phases,
            "{{\"name\":{},\"count\":{},\"total_us\":{}}}",
            json_str(p.name),
            p.count,
            p.total_ns / 1_000,
        )
        .unwrap();
    }
    format!(
        "{{\"file\":{},\"ok\":{},\"files_in_closure\":{},\
         \"stats\":{{\"constraints\":{},\"kvars\":{},\"smt_queries\":{},\
         \"obligations_discharged\":{},\"bundles\":{},\"bundles_reused\":{},\
         \"diagnostics\":{},\"lints\":{}}},\
         \"bundles\":[{bundles}],\"phases\":[{phases}],\
         \"cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{}}},\
         \"time_us\":{}}}",
        json_str(file),
        result.ok(),
        report.merged.files.len(),
        stats.constraints,
        stats.kvars,
        stats.smt_queries,
        stats.obligations_discharged,
        stats.bundles,
        stats.bundles_reused,
        result.diagnostics.len(),
        result.lints.len(),
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        elapsed.as_micros(),
    )
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a per-phase accumulator as `name 1.2ms×3, ...` (name order).
fn phase_summary(acc: &BTreeMap<&'static str, (u64, u64)>) -> String {
    acc.iter()
        .map(|(name, (count, ns))| format!("{name} {:.1}ms\u{d7}{count}", *ns as f64 / 1e6))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Renders every diagnostic of a report against its owning file's own
/// text (a closure diagnostic may live in an imported file, not the
/// root).
fn print_rendered(report: &DocReport) {
    print!("{}", rendered(report));
}

fn rendered(report: &DocReport) -> String {
    let idxs: Vec<LineIndex> = report
        .merged
        .files
        .iter()
        .map(|f| LineIndex::new(&f.text))
        .collect();
    let mut out = String::new();
    for d in &report.outcome.result.diagnostics {
        let (fi, local) = report.merged.localize(d);
        let f = &report.merged.files[fi];
        out.push_str(&local.render_with(&f.name, &f.text, &idxs[fi]));
    }
    out
}

/// Renders a report's lint warnings rustc-style (empty string when the
/// lint pass is off or found nothing). Printed after the verdict line —
/// lints never change the verdict or the exit code.
fn rendered_lints(report: &DocReport) -> String {
    let idxs: Vec<LineIndex> = report
        .merged
        .files
        .iter()
        .map(|f| LineIndex::new(&f.text))
        .collect();
    let mut out = String::new();
    for d in &report.outcome.result.lints {
        let (fi, local) = report.merged.localize(d);
        let f = &report.merged.files[fi];
        out.push_str(&local.render_with(&f.name, &f.text, &idxs[fi]));
    }
    out
}

/// `--recursive` batch mode: one job per root file on a work-stealing
/// [`Pool`], each job running its own single-threaded [`Workspace`]
/// over one shared VC cache (verdicts are pure functions of the
/// canonical VC, so cross-thread sharing is sound). Per-file output is
/// buffered and printed in input order, byte-identical to the serial
/// loop's lines.
fn run_recursive(
    files: &[String],
    opts: CheckerOptions,
    quiet: bool,
    profile: Option<&str>,
    vc_cache_dir: Option<&str>,
) -> ! {
    if profile.is_some() {
        rsc_obs::set_enabled(true);
        rsc_obs::drain();
    }
    let pool = Pool::new(opts.effective_jobs());
    let cache = VcCache::shared_with_capacity(opts.effective_cache_capacity());
    // File-level parallelism replaces bundle-level parallelism.
    let mut inner = opts;
    inner.jobs = 1;
    let start = std::time::Instant::now();
    let jobs: Vec<_> = files
        .iter()
        .map(|file| {
            let file = file.clone();
            let cache = Arc::clone(&cache);
            let disk_dir = vc_cache_dir.map(str::to_string);
            // Returns (output text, verified, I/O error).
            move || -> (String, bool, bool) {
                let src = match std::fs::read_to_string(&file) {
                    Ok(s) => s,
                    Err(e) => {
                        return (format!("rsc: cannot read {file}: {e}\n"), false, true);
                    }
                };
                let t = std::time::Instant::now();
                let mut ws = Workspace::with_cache(inner, cache);
                if let Some(dir) = disk_dir {
                    ws = ws.persisting_to(dir);
                }
                let report = ws.check_one(&file, src);
                let elapsed = t.elapsed();
                let result = &report.outcome.result;
                let closure = report.merged.files.len();
                if result.ok() {
                    let mut out = String::new();
                    if !quiet {
                        let files_note = if closure > 1 {
                            format!(", {closure} files")
                        } else {
                            String::new()
                        };
                        out = format!(
                            "{file}: SAFE ({} constraints, {} κ-vars, {} SMT queries, \
                             {} bundles{files_note}, {:.0}% VC-cache hits, {:.0?})\n",
                            result.stats.constraints,
                            result.stats.kvars,
                            result.stats.smt_queries,
                            result.stats.bundles,
                            100.0 * result.stats.cache_hit_rate(),
                            elapsed
                        );
                    }
                    out.push_str(&rendered_lints(&report));
                    (out, true, false)
                } else {
                    let mut out = format!(
                        "{file}: UNSAFE ({} errors, {:.0?})\n",
                        result.diagnostics.len(),
                        elapsed
                    );
                    out.push_str(&rendered(&report));
                    out.push_str(&rendered_lints(&report));
                    (out, false, false)
                }
            }
        })
        .collect();
    let results = pool.run(jobs);
    if let Some(path) = profile {
        write_trace(path, &rsc_obs::drain().spans);
    }
    let mut failed = false;
    let mut io_err = false;
    for (text, ok, io) in &results {
        if *io {
            eprint!("{text}");
        } else {
            print!("{text}");
        }
        failed |= !ok && !io;
        io_err |= io;
    }
    if !quiet {
        let safe = results.iter().filter(|(_, ok, _)| *ok).count();
        println!(
            "checked {} files ({safe} safe) in {:.1?} on {} workers",
            files.len(),
            start.elapsed(),
            pool.workers()
        );
    }
    std::process::exit(if io_err {
        2
    } else if failed {
        1
    } else {
        0
    });
}

/// `rsc fuzz`: generate well-typed programs, break one obligation per
/// case, and run the four differential oracles. With
/// `--emit-workspace DIR`, instead materializes a ≥`--min-loc`-LOC
/// multi-file workspace for `rsc check --recursive`.
fn run_fuzz_cli(args: &[String]) -> ! {
    let mut cfg = FuzzConfig::default();
    let mut quiet = false;
    let mut emit: Option<std::path::PathBuf> = None;
    let mut min_loc = 20_000usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--cases" => cfg.cases = fuzz_num(fuzz_val(args, &mut i, "--cases"), "--cases"),
            "--seed" => cfg.seed = fuzz_num(fuzz_val(args, &mut i, "--seed"), "--seed"),
            "--skip" => cfg.skip = fuzz_num(fuzz_val(args, &mut i, "--skip"), "--skip"),
            "--size" => cfg.size = fuzz_num(fuzz_val(args, &mut i, "--size"), "--size"),
            "--workspace-depth" => {
                cfg.workspace_depth = fuzz_num(
                    fuzz_val(args, &mut i, "--workspace-depth"),
                    "--workspace-depth",
                )
            }
            "--jobs" | "-j" => cfg.jobs = fuzz_num(fuzz_val(args, &mut i, "--jobs"), "--jobs"),
            "--emit-workspace" => emit = Some(fuzz_val(args, &mut i, "--emit-workspace").into()),
            "--min-loc" => min_loc = fuzz_num(fuzz_val(args, &mut i, "--min-loc"), "--min-loc"),
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                print_usage();
                std::process::exit(0);
            }
            other => {
                eprintln!("rsc fuzz: unknown flag {other}");
                print_usage();
                std::process::exit(2);
            }
        }
        i += 1;
    }

    if let Some(dir) = emit {
        match rsc_gen::emit_workspace(&dir, cfg.seed, min_loc, cfg.workspace_depth, 12) {
            Ok(s) => {
                println!(
                    "emitted {} files, {} LOC ({} clusters) under {}",
                    s.files,
                    s.loc,
                    s.clusters,
                    s.dir.display()
                );
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("rsc fuzz: cannot write {}: {e}", dir.display());
                std::process::exit(2);
            }
        }
    }

    let start = std::time::Instant::now();
    // Aggregate phase timings over every generated check (the per-phase
    // accumulator is deterministic in shape, wall-clock in values).
    rsc_obs::set_enabled(true);
    rsc_obs::drain();
    let heartbeat = (cfg.cases / 10).max(50);
    let summary = rsc_gen::run_fuzz(&cfg, |case, out| {
        let done = case + 1 - cfg.skip;
        if !quiet && done % heartbeat == 0 {
            println!(
                "[fuzz] {done}/{} cases, {} mutants, {} violations, {:.1?}",
                cfg.cases,
                out.mutants,
                out.violations.len(),
                start.elapsed()
            );
        }
    });

    let mut timing: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    rsc_obs::drain().accumulate_into(&mut timing);
    if !quiet && !timing.is_empty() {
        println!("fuzz timing: {}", phase_summary(&timing));
    }

    for v in &summary.violations {
        println!(
            "FAIL case {} ({} oracle) — replay: rsc fuzz --seed {} --skip {} --cases 1",
            v.case, v.oracle, v.seed, v.case
        );
        for line in v.detail.lines() {
            println!("  {line}");
        }
    }
    let kinds: Vec<String> = summary
        .kinds
        .iter()
        .map(|(k, n)| format!("{k}\u{d7}{n}"))
        .collect();
    println!(
        "fuzz: seed {}, {} cases, {} mutants [{}] in {:.1?}: {}",
        cfg.seed,
        summary.cases,
        summary.mutants,
        kinds.join(" "),
        start.elapsed(),
        if summary.violations.is_empty() {
            "all oracles passed".to_string()
        } else {
            format!("{} VIOLATIONS", summary.violations.len())
        }
    );
    std::process::exit(if summary.violations.is_empty() { 0 } else { 1 });
}

/// Fetches the value after a `rsc fuzz` flag, advancing the cursor.
fn fuzz_val<'a>(args: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    match args.get(*i) {
        Some(v) => v,
        None => {
            eprintln!("rsc fuzz: {flag} expects a value");
            std::process::exit(2);
        }
    }
}

fn fuzz_num<T: std::str::FromStr>(v: &str, flag: &str) -> T {
    v.parse().unwrap_or_else(|_| {
        eprintln!("rsc fuzz: {flag} expects a number, got {v:?}");
        std::process::exit(2);
    })
}

/// Expands directory arguments to every `.rsc`/`.ts` file beneath them
/// (sorted); plain files pass through in argument order.
fn expand_files(args: &[String]) -> Vec<String> {
    let mut out = Vec::new();
    for a in args {
        let path = std::path::Path::new(a);
        if path.is_dir() {
            let mut found = Vec::new();
            collect_sources(path, &mut found);
            found.sort();
            if found.is_empty() {
                eprintln!("rsc: no .rsc/.ts files under {a}");
                std::process::exit(2);
            }
            out.extend(found);
        } else {
            out.push(a.clone());
        }
    }
    out
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<String>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            collect_sources(&p, out);
        } else if matches!(
            p.extension().and_then(|e| e.to_str()),
            Some("rsc") | Some("ts")
        ) {
            if let Some(s) = p.to_str() {
                out.push(s.to_string());
            }
        }
    }
}

/// Prints one watch-loop check: verdict, incremental reuse, timing.
fn report_watch(report: &DocReport, quiet: bool) {
    let incr = &report.outcome.incr;
    let file = &report.uri;
    let reuse = if incr.fast_path {
        "unchanged".to_string()
    } else {
        format!("{} reused / {} solved", incr.reused, incr.solved)
    };
    if report.outcome.result.ok() {
        if !quiet {
            println!(
                "[watch] {file}: SAFE ({} bundles, {reuse}, {}µs)",
                incr.bundles, incr.total_micros
            );
        }
    } else {
        println!(
            "[watch] {file}: UNSAFE ({} errors, {reuse}, {}µs)",
            report.outcome.result.diagnostics.len(),
            incr.total_micros
        );
        let multi = report.merged.files.len() > 1;
        for d in &report.outcome.result.diagnostics {
            let (fi, local) = report.merged.localize(d);
            if multi {
                println!("  [{}] {local}", report.merged.files[fi].name);
            } else {
                println!("  {local}");
            }
        }
    }
    let multi = report.merged.files.len() > 1;
    for d in &report.outcome.result.lints {
        let (fi, local) = report.merged.localize(d);
        if multi {
            println!("  [{}] {local}", report.merged.files[fi].name);
        } else {
            println!("  {local}");
        }
    }
}

/// Re-checks the watched roots through one persistent workspace
/// whenever any file in their import closures changes on disk. Polling
/// interval: `RSC_WATCH_POLL_MS` (default 150). For scripted runs,
/// `RSC_WATCH_MAX_CHECKS` bounds the number of document checks before
/// exiting (the exit code then reflects each document's last check).
fn run_watch(
    files: &[String],
    opts: CheckerOptions,
    quiet: bool,
    profile: Option<&str>,
    vc_cache_dir: Option<&str>,
) {
    let poll = std::env::var("RSC_WATCH_POLL_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(150);
    let max_checks = std::env::var("RSC_WATCH_MAX_CHECKS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let mtime = |f: &str| std::fs::metadata(f).and_then(|m| m.modified()).ok();

    // The watch loop always collects phase timings: each drained batch
    // folds into a per-phase accumulator so a bounded run
    // (`RSC_WATCH_MAX_CHECKS`) can exit with an aggregate summary.
    rsc_obs::set_enabled(true);
    rsc_obs::drain();
    let mut timing: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    let mut spans: Vec<rsc_obs::SpanRecord> = Vec::new();
    let take_profile = |timing: &mut BTreeMap<&'static str, (u64, u64)>,
                        spans: &mut Vec<rsc_obs::SpanRecord>| {
        let p = rsc_obs::drain();
        p.accumulate_into(timing);
        if profile.is_some() {
            spans.extend(p.spans);
        }
    };

    let mut ws = Workspace::new(opts);
    if let Some(dir) = vc_cache_dir {
        ws = ws.persisting_to(dir);
    }
    let mut checks = 0u64;
    let mut verdicts: BTreeMap<String, bool> = BTreeMap::new();
    let exit = |verdicts: &BTreeMap<String, bool>,
                timing: &BTreeMap<&'static str, (u64, u64)>,
                spans: &[rsc_obs::SpanRecord]|
     -> ! {
        if !quiet && !timing.is_empty() {
            println!("[watch] timing: {}", phase_summary(timing));
        }
        if let Some(path) = profile {
            write_trace(path, spans);
        }
        std::process::exit(if verdicts.values().all(|&ok| ok) {
            0
        } else {
            1
        });
    };

    for file in files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rsc: cannot read {file}: {e}");
                std::process::exit(2);
            }
        };
        for report in ws.update(file, src) {
            verdicts.insert(report.uri.clone(), report.outcome.result.ok());
            report_watch(&report, quiet);
            checks += 1;
        }
        take_profile(&mut timing, &mut spans);
    }

    let mut seen: BTreeMap<String, Option<std::time::SystemTime>> = ws
        .watched_files()
        .iter()
        .map(|f| (f.clone(), mtime(f)))
        .collect();

    loop {
        if let Some(max) = max_checks {
            if checks >= max {
                exit(&verdicts, &timing, &spans);
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(poll));
        // The poll set tracks the *current* closures: a newly added
        // import gets watched from the next iteration on.
        let watched = ws.watched_files();
        let mut changed: Vec<String> = Vec::new();
        for f in &watched {
            let now = mtime(f);
            match seen.get(f) {
                Some(prev) if *prev != now => changed.push(f.clone()),
                Some(_) => {}
                // Newly watched (an import added by the edit that was
                // just checked): record its mtime without re-checking —
                // the update that introduced it already covered it.
                None => {}
            }
            seen.insert(f.clone(), now);
        }
        seen.retain(|k, _| watched.contains(k));
        for f in &changed {
            let reports = if ws.contains(f) {
                match std::fs::read_to_string(f) {
                    Ok(src) => ws.update(f, src),
                    Err(e) => {
                        eprintln!("rsc: cannot read {f}: {e} (still watching)");
                        continue;
                    }
                }
            } else {
                // A dependency changed: re-check every root that
                // imports it (the closure re-reads the disk).
                ws.importers_of(f)
                    .into_iter()
                    .filter_map(|root| ws.recheck(&root))
                    .collect()
            };
            for report in reports {
                verdicts.insert(report.uri.clone(), report.outcome.result.ok());
                report_watch(&report, quiet);
                checks += 1;
            }
            take_profile(&mut timing, &mut spans);
        }
    }
}

fn parse_jobs(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => {
            eprintln!("rsc: --jobs expects a positive integer, got {s:?}");
            std::process::exit(2);
        }
    }
}

fn parse_cache_cap(s: &str) -> usize {
    match s.parse::<usize>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("rsc: --cache-cap expects a non-negative integer, got {s:?}");
            std::process::exit(2);
        }
    }
}

fn print_usage() {
    eprintln!(
        "usage: rsc [--no-path-sensitivity] [--no-prelude-qualifiers] \
         [--no-mined-qualifiers] [--no-vc-cache] [--no-incremental-smt] \
         [--no-lints] [--vc-cache DIR] [--jobs N] [--quiet] \
         <file.rsc | dir>...\n\
         \u{20}      rsc serve            read NDJSON requests on stdin (load/edit/check,\n\
         \u{20}                           LSP didOpen/didChange), respond per line\n\
         \u{20}      rsc --watch <file>...  incremental re-check on every mtime change\n\
         \u{20}                           of the files or their imported dependencies\n\
         \u{20}      rsc check --recursive <dir>  batch-check every file in parallel\n\
         \u{20}                           (work-stealing pool, shared VC cache)\n\
         \u{20}      rsc fuzz [--cases N] [--seed S] [--skip K] [--size F]\n\
         \u{20}               [--workspace-depth D] [--jobs N]\n\
         \u{20}                           generate well-typed programs + mutants and\n\
         \u{20}                           run the differential oracles\n\
         \u{20}      rsc fuzz --emit-workspace <dir> [--min-loc N] [--seed S]\n\
         \u{20}                           materialize a large multi-file workspace\n\
         \n\
         Files may `import {{name}} from \"./other\"`; each root is checked\n\
         as its full import closure. Directories expand to their .rsc/.ts files.\n\
         \n\
         --jobs N  solve constraint bundles on N worker threads\n\
         \u{20}         (default: RSC_JOBS env var, else available cores, max 8)\n\
         --cache-cap N  bound the VC cache to ~N entries (LRU eviction;\n\
         \u{20}         default: RSC_CACHE_CAP env var, else unbounded)\n\
         --vc-cache DIR  persist solver verdicts to DIR across runs\n\
         \u{20}         (RSC_VC_CACHE env var; a warm re-check of unchanged\n\
         \u{20}         code reuses every bundle and solves 0 VCs)\n\
         --no-incremental-smt  solve each fixpoint query in a fresh SMT\n\
         \u{20}         context instead of per-constraint persistent ones\n\
         \u{20}         (ablation/debug; diagnostics are identical)\n\
         --no-lints  suppress the dataflow lint warnings (L0001-L0004:\n\
         \u{20}         unreachable branch, tautological guard, dead\n\
         \u{20}         refinement, constant index out of bounds)\n\
         --profile FILE  write a Chrome trace-event profile of every phase\n\
         \u{20}         (open in Perfetto or chrome://tracing)\n\
         --stats-json  print a machine-readable per-phase/per-bundle report\n\
         \u{20}         on stdout (diagnostics then render on stderr)"
    );
}
