//! The repository benchmark harness.
//!
//! ```text
//! rsc_perfbench --workload <corpus-cold|edit-serve|join-chain|warm-restart>
//!               --seed N --seconds S --trace 0|1 [--work-dir DIR]
//! ```
//!
//! Each workload is one closed-loop client: one request at a time, the
//! next sent when the verdict returns, with `CheckerOptions { jobs: 1 }`.
//! Inputs come from the seed; every verdict is judged. The last stdout
//! line is one JSON object: end-to-end metrics with `--trace 0`,
//! per-layer metrics with `--trace 1`. See `README.md` beside this crate.

mod inputs;
mod layers;
mod speed;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use inputs::{Expect, Verdict};
use layers::LayerSum;
use speed::Speed;

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUPS: usize = 3;

/// Failure descriptions printed to stderr (the count is always exact).
const SHOWN_FAILURES: usize = 5;

/// The client side of a run: request latencies, verdict failures and,
/// in traced passes, per-layer samples.
pub struct Recorder {
    /// Whether the current pass collects spans and layer samples.
    pub traced: bool,
    /// True while set-up runs its warm-up pass.
    pub setup: bool,
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    /// Input, measured latency (ms) and speed mark of the requests of
    /// the current pass.
    current: Vec<(String, f64, usize)>,
    /// Per untraced pass: its latencies and its wall time (s), both at
    /// the reference speed.
    passes: Vec<(Vec<f64>, f64)>,
    /// Per traced pass: the sum of its latencies (ms, reference speed).
    traced_sums: Vec<f64>,
    /// The machine's speed: kernel samples between requests.
    pub speed: Speed,
    /// Per pass, the median kernel time (ms).
    kernel_ms: Vec<f64>,
    /// Per input, its size (the constraints the checker generates for
    /// it) and its untraced latencies (reference speed), for the growth
    /// fit.
    by_input: BTreeMap<String, (f64, Vec<f64>)>,
    pub layers: LayerSum,
}

impl Recorder {
    fn new(setup: bool) -> Recorder {
        Recorder {
            traced: false,
            setup,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            current: Vec::new(),
            passes: Vec::new(),
            traced_sums: Vec::new(),
            speed: Speed::new(),
            kernel_ms: Vec::new(),
            by_input: BTreeMap::new(),
            layers: LayerSum::default(),
        }
    }

    /// Times one request. A panic inside it is caught and counted as a
    /// failed request (`None`); otherwise returns the output and the
    /// latency in nanoseconds.
    pub fn request<T>(&mut self, input: &str, work: impl FnOnce() -> T) -> Option<(T, f64)> {
        self.attempted += 1;
        let start = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(work));
        let ns = start.elapsed().as_nanos() as f64;
        let Ok(out) = out else {
            self.fail(input, "the check panicked".to_string());
            return None;
        };
        let mark = self.speed.tick();
        self.current.push((input.to_string(), ns / 1e6, mark));
        Some((out, ns))
    }

    /// Records an input's size for the growth fit.
    pub fn size(&mut self, input: &str, size: f64) {
        self.by_input.entry(input.to_string()).or_default().0 = size;
    }

    pub fn fail(&mut self, input: &str, why: String) {
        self.failed += 1;
        if self.failures.len() < SHOWN_FAILURES {
            self.failures.push(format!("{input}: {why}"));
        }
    }

    pub fn judge(&mut self, input: &str, expect: &Expect, verdict: &Verdict) {
        if let Err(why) = expect.judge(verdict) {
            self.fail(input, why);
        }
    }

    /// Closes a pass that took `secs` of wall time, rescaling its times
    /// to the reference speed.
    fn end_pass(&mut self, secs: f64) {
        self.kernel_ms.push(self.speed.median_ms());
        let current = std::mem::take(&mut self.current);
        let marks: Vec<usize> = current.iter().map(|r| r.2).collect();
        let secs = secs - self.speed.spent;
        let factors = self.speed.take_factors(&marks);
        let raw: f64 = current.iter().map(|r| r.1).sum();
        let lat: Vec<(String, f64)> = current
            .into_iter()
            .zip(factors)
            .map(|((input, ms, _), f)| (input, ms * f))
            .collect();
        // The pass's wall time, rescaled as its requests were on average.
        let scaled: f64 = lat.iter().map(|l| l.1).sum();
        let secs = if raw > 0.0 { secs * scaled / raw } else { secs };
        if self.traced {
            self.traced_sums.push(scaled);
            self.layers.end_pass();
        } else {
            for (input, ms) in &lat {
                if let Some(entry) = self.by_input.get_mut(input) {
                    entry.1.push(*ms);
                }
            }
            self.passes
                .push((lat.into_iter().map(|l| l.1).collect(), secs));
        }
    }

    /// Keeps only the verdict tallies (set-up warm-up passes are not
    /// measured, but their failures count).
    fn absorb_verdicts(&mut self, warm: Recorder) {
        self.attempted += warm.attempted;
        self.failed += warm.failed;
        self.failures.extend(warm.failures);
        self.failures.truncate(SHOWN_FAILURES);
    }
}

/// A workload after set-up: one call runs one pass of its request script.
pub trait Workload {
    fn pass(&mut self, rec: &mut Recorder);

    /// The untimed warm-up of set-up: one pass unless the workload
    /// warms every code path with less.
    fn warm_up(&mut self, rec: &mut Recorder) {
        self.pass(rec);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    work_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        map.insert(key, value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or_else(|| format!("missing --{k}"));
    let num =
        |k: &str| -> Result<u64, String> { get(k)?.parse().map_err(|e| format!("--{k}: {e}")) };
    Ok(Args {
        workload: get("workload")?,
        seed: num("seed")?,
        seconds: num("seconds")?,
        trace: match get("trace")?.as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, not {t:?}")),
        },
        work_dir: map
            .get("work-dir")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("rsc-perfbench")),
    })
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rsc_perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = args.work_dir.join(format!("run-{}", std::process::id()));
    let code = run(&args, &work_dir, process_start);
    let _ = std::fs::remove_dir_all(&work_dir);
    std::process::exit(code);
}

fn run(args: &Args, work_dir: &std::path::Path, process_start: Instant) -> i32 {
    let opts = rsc_core::CheckerOptions {
        jobs: 1,
        ..rsc_core::CheckerOptions::default()
    };
    let mut rec = Recorder::new(false);

    // Set-up (inputs, warm-up pass, sessions, disk cache) runs SETUPS
    // times; the first time is counted from process start.
    let mut setup_s = Vec::new();
    let mut workload: Option<Box<dyn Workload>> = None;
    for i in 0..SETUPS {
        drop(workload.take());
        let start = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let mut warm = Recorder::new(true);
        let built = workloads::setup(
            &args.workload,
            args.seed,
            opts,
            work_dir,
            args.trace,
            &mut warm,
        );
        // The set-up's time at the reference speed, without the samples.
        let secs = start.elapsed().as_secs_f64() - warm.speed.spent;
        let kernel_ms = warm.speed.median_ms();
        rec.absorb_verdicts(warm);
        match built {
            Ok(w) => workload = Some(w),
            Err(e) => {
                eprintln!("rsc_perfbench: set-up of {} failed: {e}", args.workload);
                return 1;
            }
        }
        setup_s.push(secs * speed::factor(kernel_ms));
    }
    let mut workload = workload.expect("set-up ran");

    // Whole passes, so every input class keeps its share of the samples,
    // while the next one (as long as the mean pass so far) ends within
    // `--seconds`. Traced runs alternate traced and untraced passes: the
    // difference is the tracing overhead.
    let min_passes = if args.trace { 2 } else { 1 };
    rec.speed = Speed::new();
    let measured_start = Instant::now();
    let mut passes = 0;
    let mut elapsed = 0.0;
    while passes < min_passes
        || elapsed * (passes + 1) as f64 / passes as f64 <= args.seconds as f64
    {
        rec.traced = args.trace && passes % 2 == 0;
        let start = Instant::now();
        workload.pass(&mut rec);
        rec.end_pass(start.elapsed().as_secs_f64());
        passes += 1;
        elapsed = measured_start.elapsed().as_secs_f64();
    }

    for f in &rec.failures {
        eprintln!("rsc_perfbench: failed request: {f}");
    }
    for d in &rec.layers.drift {
        eprintln!("rsc_perfbench: count drift: {d}");
    }
    let correct = rec.failed == 0 && rec.layers.drift.is_empty();
    let metrics = if args.trace {
        layer_metrics(&rec)
    } else {
        end_to_end_metrics(&rec, &setup_s)
    };
    eprintln!(
        "rsc_perfbench: {} {} passes, {} requests, {} failed, reference kernel {:.4} ms (times rescaled to {} ms)",
        args.workload,
        passes,
        rec.attempted,
        rec.failed,
        stats::median(&rec.kernel_ms),
        speed::NOMINAL_MS
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("{name:?}: {{\"value\": {value}, \"unit\": {unit:?}}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rec.attempted,
        rec.failed,
        body.join(", ")
    );
    0
}

type Metric = (&'static str, f64, &'static str);

/// Latency percentiles and throughput are taken per pass (every input
/// once, times at the reference speed), then as the median over the
/// run's passes.
fn end_to_end_metrics(rec: &Recorder, setup_s: &[f64]) -> Vec<Metric> {
    let per_pass = |f: &dyn Fn(&[f64], f64) -> f64| -> f64 {
        let v: Vec<f64> = rec.passes.iter().map(|(lat, secs)| f(lat, *secs)).collect();
        stats::median(&v)
    };
    let growth: Vec<(f64, f64)> = rec
        .by_input
        .values()
        .map(|(size, ms)| (*size, stats::median(ms)))
        .collect();
    vec![
        (
            "check_p50_ms",
            per_pass(&|l, _| stats::percentile(l, 50.0)),
            "ms",
        ),
        (
            "check_p90_ms",
            per_pass(&|l, _| stats::percentile(l, 90.0)),
            "ms",
        ),
        (
            "check_p99_ms",
            per_pass(&|l, _| stats::percentile(l, 99.0)),
            "ms",
        ),
        (
            "checks_per_s",
            per_pass(&|l, secs| l.len() as f64 / secs),
            "1/s",
        ),
        ("setup_s", stats::median(setup_s), "s"),
        ("peak_rss_mb", stats::peak_rss_mb(), "MiB"),
        ("growth_exponent", stats::loglog_slope(&growth), "1"),
    ]
}

fn layer_metrics(rec: &Recorder) -> Vec<Metric> {
    let l = &rec.layers;
    let t = &l.total;
    let n = l.requests.max(1) as f64;
    let ms = |ns: f64| ns / n / 1e6;
    let c = l.first_pass.unwrap_or_default();
    let ratio = |a: u64, b: u64| {
        if a + b == 0 {
            0.0
        } else {
            a as f64 / (a + b) as f64
        }
    };
    let all_queries = t.counts.smt_queries;
    let untraced: Vec<f64> = rec.passes.iter().map(|(lat, _)| lat.iter().sum()).collect();
    let untraced_ms = stats::median(&untraced);
    vec![
        ("syntax.parse_ms", ms(t.parse), "ms"),
        ("ssa.transform_ms", ms(t.ssa), "ms"),
        ("core.generate_ms", ms(t.generate), "ms"),
        ("core.constraints", c.constraints as f64, "count"),
        ("core.kvars", c.kvars as f64, "count"),
        ("core.bundles", c.bundles as f64, "count"),
        ("core.solve_overhead_ms", ms(t.solve - t.bundle_solve), "ms"),
        ("absint.lint_ms", ms(t.absint), "ms"),
        ("absint.discharged", c.discharged as f64, "count"),
        (
            "absint.discharge_ratio",
            ratio(c.discharged, c.smt_queries),
            "ratio",
        ),
        ("liquid.solve_ms", ms(t.bundle_solve), "ms"),
        ("liquid.fixpoint_iters", c.fixpoint_iters as f64, "count"),
        ("liquid.fixpoint_self_ms", ms(t.fixpoint_self), "ms"),
        (
            "liquid.max_bundle_share",
            l.mean_max_bundle_share(),
            "ratio",
        ),
        ("smt.queries", c.smt_queries as f64, "count"),
        (
            "smt.queries_unedited",
            c.smt_queries_unedited as f64,
            "count",
        ),
        ("smt.query_ms", ms(t.smt_query), "ms"),
        (
            "smt.us_per_query",
            if all_queries == 0 {
                0.0
            } else {
                t.smt_query / all_queries as f64 / 1e3
            },
            "us",
        ),
        ("smt.sat_rounds", c.sat_rounds as f64, "count"),
        ("smt.theory_conflicts", c.theory_conflicts as f64, "count"),
        ("smt.cache_hits", c.cache_hits as f64, "count"),
        (
            "smt.cache_hit_ratio",
            ratio(c.cache_hits, c.cache_misses),
            "ratio",
        ),
        ("incr.serve_overhead_ms", ms(t.serve_overhead), "ms"),
        ("incr.bundles_resolved", c.bundles_resolved as f64, "count"),
        (
            "incr.reuse_ratio",
            ratio(c.bundles_reused, c.bundles_resolved),
            "ratio",
        ),
        (
            "incr.importers_skipped",
            c.importers_skipped as f64,
            "count",
        ),
        ("incr.session_ms", ms(t.session), "ms"),
        ("incr.persist_open_ms", ms(t.persist_open), "ms"),
        (
            "obs.overhead_pct",
            (stats::median(&rec.traced_sums) / untraced_ms - 1.0) * 100.0,
            "%",
        ),
        (
            "unattributed_pct",
            if t.wall > 0.0 {
                (t.wall - t.attributed()) / t.wall * 100.0
            } else {
                0.0
            },
            "%",
        ),
    ]
}
