//! Per-layer attribution of one request, built from outside: wall times
//! of the public layer entry points the harness calls, the spans
//! `rsc_obs` already records inside those calls, and the counters the
//! checker returns (`CheckStats`, `BundleReport`, `IncrStats`).

use rsc_core::CheckResult;
use rsc_obs::Profile;

/// Deterministic work counts of one request (or, summed, of one pass).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub constraints: u64,
    pub kvars: u64,
    pub bundles: u64,
    /// SMT queries actually issued (bundles served from a cache tier
    /// carry their historical query counts; those are not counted).
    pub smt_queries: u64,
    /// SMT queries issued re-checking documents unchanged since the disk
    /// cache was filled (warm-restart only).
    pub smt_queries_unedited: u64,
    pub discharged: u64,
    pub sat_rounds: u64,
    pub theory_conflicts: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub fixpoint_iters: u64,
    pub bundles_resolved: u64,
    pub bundles_reused: u64,
    pub importers_skipped: u64,
}

impl Counts {
    pub fn add(&mut self, o: &Counts) {
        self.constraints += o.constraints;
        self.kvars += o.kvars;
        self.bundles += o.bundles;
        self.smt_queries += o.smt_queries;
        self.smt_queries_unedited += o.smt_queries_unedited;
        self.discharged += o.discharged;
        self.sat_rounds += o.sat_rounds;
        self.theory_conflicts += o.theory_conflicts;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        self.fixpoint_iters += o.fixpoint_iters;
        self.bundles_resolved += o.bundles_resolved;
        self.bundles_reused += o.bundles_reused;
        self.importers_skipped += o.importers_skipped;
    }

    /// The counts the benchmark requires to repeat exactly for a seed.
    pub fn deterministic(&self) -> [(&'static str, u64); 7] {
        [
            ("core.constraints", self.constraints),
            ("core.bundles", self.bundles),
            ("smt.queries", self.smt_queries),
            ("absint.discharged", self.discharged),
            ("smt.sat_rounds", self.sat_rounds),
            ("smt.theory_conflicts", self.theory_conflicts),
            ("liquid.fixpoint_iters", self.fixpoint_iters),
        ]
    }
}

/// Layer times (nanoseconds) and counts of one traced request.
#[derive(Clone, Debug, Default)]
pub struct LayerSample {
    /// Request wall time, as the client saw it.
    pub wall: f64,
    pub parse: f64,
    pub ssa: f64,
    /// Class table, constraint generation and partitioning.
    pub generate: f64,
    pub absint: f64,
    /// `solve_artifacts` wall time (the `solve` span inside sessions).
    pub solve: f64,
    /// Σ `BundleReport.solve_ns` of the bundles solved in this request.
    pub bundle_solve: f64,
    /// `fixpoint-iter` time outside `smt-query` (the fixpoint's dark time).
    pub fixpoint_self: f64,
    pub smt_query: f64,
    pub serve_overhead: f64,
    /// Self time of the session and workspace spans (`check`, `imports`):
    /// diffing, retention, opening and appending the disk tier.
    pub session: f64,
    /// Opening the disk tier, timed from outside (part of `session`).
    pub persist_open: f64,
    /// Slowest solved bundle over all solved bundles, when any was solved.
    pub max_bundle_share: Option<f64>,
    pub counts: Counts,
}

impl LayerSample {
    /// Time covered by some layer metric; the rest of `wall` is
    /// unattributed.
    pub fn attributed(&self) -> f64 {
        self.parse
            + self.ssa
            + self.generate
            + self.absint
            + self.solve
            + self.serve_overhead
            + self.session
    }

    /// Folds in one checker result: sizes, solver counters of the bundles
    /// solved in this run, cache deltas and the bundle share.
    pub fn add_result(&mut self, r: &CheckResult, unedited: bool) {
        let c = &mut self.counts;
        c.constraints += r.stats.constraints as u64;
        c.kvars += r.stats.kvars as u64;
        c.bundles += r.stats.bundles as u64;
        c.cache_hits += r.stats.cache_hits;
        c.cache_misses += r.stats.cache_misses;
        let mut max_ns = 0u64;
        let mut sum_ns = 0u64;
        for b in &r.bundle_reports {
            if b.cached {
                c.bundles_reused += 1;
                continue;
            }
            c.bundles_resolved += 1;
            c.smt_queries += b.smt_queries;
            if unedited {
                c.smt_queries_unedited += b.smt_queries;
            }
            c.discharged += b.discharged;
            c.sat_rounds += b.smt.sat_rounds;
            c.theory_conflicts += b.smt.theory_conflicts;
            max_ns = max_ns.max(b.solve_ns);
            sum_ns += b.solve_ns;
        }
        self.bundle_solve += sum_ns as f64;
        if sum_ns > 0 {
            // Several results in one request (importers): keep the
            // largest share, the one that gates the reply.
            let share = max_ns as f64 / sum_ns as f64;
            self.max_bundle_share = Some(self.max_bundle_share.map_or(share, |s| s.max(share)));
        }
    }

    /// Fills the layer times only reachable as spans inside the public
    /// calls: lint pass, fixpoint iterations and SMT queries (plus, when
    /// `inner` is set, the phases a session or workspace runs internally).
    pub fn add_spans(&mut self, p: &Profile, inner: bool) {
        self.absint += covered(p, &["absint"]);
        let smt = covered(p, &["smt-query"]);
        self.fixpoint_self += covered(p, &["fixpoint-iter", "smt-query"]) - smt;
        self.smt_query += smt;
        self.counts.fixpoint_iters +=
            p.spans.iter().filter(|s| s.name == "fixpoint-iter").count() as u64;
        if inner {
            const LEAVES: [&str; 7] = [
                "parse",
                "ssa",
                "class-table",
                "constraint-gen",
                "partition",
                "absint",
                "solve",
            ];
            self.parse += covered(p, &["parse"]);
            self.ssa += covered(p, &["ssa"]);
            self.generate += covered(p, &["class-table", "constraint-gen", "partition"]);
            self.solve += covered(p, &["solve"]);
            let session: Vec<&str> = LEAVES.iter().copied().chain(["check", "imports"]).collect();
            self.session += covered(p, &session) - covered(p, &LEAVES);
        }
    }
}

/// Nanoseconds covered by the union of the named spans (nesting and
/// repeats are counted once; the checker runs with one worker, so all
/// spans share a thread).
pub fn covered(p: &Profile, names: &[&str]) -> f64 {
    let mut iv: Vec<(u64, u64)> = p
        .spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| (s.start_ns, s.start_ns + s.dur_ns))
        .collect();
    iv.sort_unstable();
    let mut total = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (lo, hi) in iv {
        match cur {
            Some((a, b)) if lo <= b => cur = Some((a, b.max(hi))),
            Some((a, b)) => {
                total += b - a;
                cur = Some((lo, hi));
            }
            None => cur = Some((lo, hi)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total as f64
}

/// Runs `f` with span collection on and returns its spans.
pub fn with_spans<T>(f: impl FnOnce() -> T) -> (T, Profile) {
    rsc_obs::drain();
    rsc_obs::set_enabled(true);
    let out = f();
    rsc_obs::set_enabled(false);
    (out, rsc_obs::drain())
}

/// Sums of traced requests, and the counts of each traced pass.
#[derive(Default)]
pub struct LayerSum {
    pub requests: u64,
    pub total: LayerSample,
    share_sum: f64,
    share_n: u64,
    pass: Counts,
    pub first_pass: Option<Counts>,
    /// Count drift between traced passes of this run.
    pub drift: Vec<String>,
}

impl LayerSum {
    pub fn add(&mut self, s: &LayerSample) {
        self.requests += 1;
        let t = &mut self.total;
        t.wall += s.wall;
        t.parse += s.parse;
        t.ssa += s.ssa;
        t.generate += s.generate;
        t.absint += s.absint;
        t.solve += s.solve;
        t.bundle_solve += s.bundle_solve;
        t.fixpoint_self += s.fixpoint_self;
        t.smt_query += s.smt_query;
        t.serve_overhead += s.serve_overhead;
        t.session += s.session;
        t.persist_open += s.persist_open;
        t.counts.add(&s.counts);
        if let Some(share) = s.max_bundle_share {
            self.share_sum += share;
            self.share_n += 1;
        }
        self.pass.add(&s.counts);
    }

    /// Closes a traced pass: the first pass's counts are the reported
    /// ones, and every later pass must repeat them exactly.
    pub fn end_pass(&mut self) {
        let pass = std::mem::take(&mut self.pass);
        match &self.first_pass {
            None => self.first_pass = Some(pass),
            Some(first) => {
                for ((name, a), (_, b)) in first.deterministic().iter().zip(pass.deterministic()) {
                    if *a != b {
                        self.drift
                            .push(format!("{name}: {a} in the first traced pass, {b} later"));
                    }
                }
            }
        }
    }

    pub fn mean_max_bundle_share(&self) -> f64 {
        if self.share_n == 0 {
            0.0
        } else {
            self.share_sum / self.share_n as f64
        }
    }
}
