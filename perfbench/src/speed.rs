//! The machine's speed during a run, read from a fixed reference kernel.
//!
//! The benchmark shares a 2-core machine with other tenants, and its
//! speed drifts by a third or more, over minutes and within seconds
//! (the same pass of cold checks takes 0.8 s, then 1.4 s). The drift is
//! in the memory system and reaches the checker and this kernel
//! together, so the harness times the kernel between requests and
//! reports every time at the speed the machine has when the kernel
//! takes `NOMINAL_MS`: a request that took `t` is reported as
//! `t × (NOMINAL_MS / kernel_ms)^ELASTICITY`, with `kernel_ms` the mean
//! of the kernel samples just before and after it. The kernel calls no
//! checker code, so a change to the checker cannot move it. Within a
//! run this cut the spread of one input's request times (coefficient of
//! variation) from 0.12-0.20 to 0.07-0.12 across the workloads.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

/// The kernel's time (ms) at the reference speed: its median on the
/// 2-core x86-64 VM the benchmark was calibrated on, when quiet.
pub const NOMINAL_MS: f64 = 0.65;

/// How much more the checker's time moves than the kernel's when the
/// load changes: times are rescaled by `(NOMINAL_MS / kernel_ms)` to this
/// power. Regressing the log of each rescaled time (latency percentiles,
/// throughput) on the log of the run's median kernel time, over runs in
/// loaded and quiet minutes, left a slope of 0.18-0.38 on every
/// workload (10 runs each, seeds 1-10) and 0.18-0.47 in another 5 runs
/// each: the kernel reads about four fifths of the slowdown the checker
/// sees.
pub const ELASTICITY: f64 = 1.25;

/// At most one kernel sample per this much wall time (ms) of requests.
const INTERVAL_MS: f64 = 20.0;

/// Fixed work of the kinds the checker does: hashing, ordered maps,
/// small allocations, string formatting and sorting, then linear
/// arithmetic (Fourier–Motzkin elimination with gcd normalisation and
/// hashed row dedup, as in its LIA core); about `NOMINAL_MS` on a quiet
/// machine.
fn kernel() -> u64 {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut hashed: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut ordered = BTreeMap::new();
    let mut strings = Vec::new();
    for _ in 0..1000 {
        let k = next() % 500;
        hashed.entry(k).or_default().push(k);
        ordered.insert(next() % 800, k);
        strings.push(format!("{k:x}"));
    }
    strings.sort();
    let mut acc = strings.len() as u64;
    for (k, v) in &hashed {
        acc = acc.wrapping_add(k ^ v.len() as u64);
    }
    for (k, v) in &ordered {
        acc = acc.wrapping_add(k.wrapping_mul(*v));
    }

    // Rows `c·x <= c0` over VARS variables with small coefficients.
    const VARS: usize = 5;
    let mut rows: Vec<Vec<i64>> = (0..14)
        .map(|_| (0..=VARS).map(|_| (next() % 7) as i64 - 3).collect())
        .collect();
    for var in 0..VARS - 1 {
        let (pos, rest): (Vec<_>, Vec<_>) = rows.into_iter().partition(|r| r[var] > 0);
        let (neg, zero): (Vec<_>, Vec<_>) = rest.into_iter().partition(|r| r[var] < 0);
        let mut seen = HashSet::new();
        rows = zero
            .into_iter()
            .filter(|r| seen.insert(r.clone()))
            .collect();
        for p in &pos {
            for n in &neg {
                let (a, b) = (p[var], -n[var]);
                let mut row: Vec<i64> = p.iter().zip(n).map(|(u, v)| b * u + a * v).collect();
                let g = row.iter().fold(0, |g, &c| gcd(g, c.abs()));
                if g > 1 {
                    row.iter_mut().for_each(|c| *c /= g);
                }
                if rows.len() < 120 && seen.insert(row.clone()) {
                    rows.push(row);
                }
            }
        }
    }
    for r in &rows {
        acc = acc.wrapping_add(r.iter().fold(0u64, |h, &c| h.wrapping_mul(31) ^ c as u64));
    }
    acc
}

/// The factor that rescales a time measured while the kernel took
/// `kernel_ms` to the reference speed.
pub fn factor(kernel_ms: f64) -> f64 {
    (NOMINAL_MS / kernel_ms).powf(ELASTICITY)
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Kernel samples, taken between requests.
pub struct Speed {
    /// Kernel times (ms) since the last [`Speed::take_factors`], in
    /// order; the first is the last sample before it.
    samples: Vec<f64>,
    last: Instant,
    /// Wall time (s) the samples since the last `take_factors` took, to
    /// leave out of pass times.
    pub spent: f64,
}

impl Speed {
    pub fn new() -> Speed {
        let mut s = Speed {
            samples: Vec::new(),
            last: Instant::now(),
            spent: 0.0,
        };
        s.sample();
        s.spent = 0.0;
        s
    }

    /// Times the kernel once.
    fn sample(&mut self) {
        let start = Instant::now();
        black_box(kernel());
        let secs = start.elapsed().as_secs_f64();
        self.samples.push(secs * 1e3);
        self.spent += secs;
        self.last = Instant::now();
    }

    /// Called as a request ends: returns its mark, and samples if
    /// `INTERVAL_MS` has passed since the last sample. The request lies
    /// between samples `mark - 1` and `mark`.
    pub fn tick(&mut self) -> usize {
        let mark = self.samples.len();
        if self.last.elapsed().as_secs_f64() * 1e3 >= INTERVAL_MS {
            self.sample();
        }
        mark
    }

    /// The median kernel time (ms) since the last `take_factors`.
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&self.samples)
    }

    /// For requests with these marks, the factors that rescale their
    /// times to the reference speed, from the mean of the samples just
    /// before and just after each. Starts over from the last sample.
    pub fn take_factors(&mut self, marks: &[usize]) -> Vec<f64> {
        if marks.last().is_some_and(|&m| m == self.samples.len()) {
            self.sample();
        }
        let factors = marks
            .iter()
            .map(|&m| factor((self.samples[m - 1] + self.samples[m]) / 2.0))
            .collect();
        self.samples.drain(..self.samples.len() - 1);
        self.spent = 0.0;
        factors
    }
}
