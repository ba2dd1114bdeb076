//! The four workloads. Why each exists is in `README.md`.

mod edit_serve;
mod warm_restart;

use std::path::Path;
use std::time::Instant;

use proptest::test_runner::TestRng;
use rsc_core::CheckerOptions;

use crate::inputs::{self, Expect, Verdict};
use crate::layers::{with_spans, LayerSample};
use crate::{Recorder, Workload};

/// Builds a workload from the seed and runs its untimed warm-up pass
/// into `warm`.
pub fn setup(
    name: &str,
    seed: u64,
    opts: CheckerOptions,
    work_dir: &Path,
    trace: bool,
    warm: &mut Recorder,
) -> Result<Box<dyn Workload>, String> {
    let rng = TestRng::from_seed(seed);
    let mut w: Box<dyn Workload> = match name {
        "corpus-cold" => Box::new(corpus_cold(rng, opts)?),
        "join-chain" => Box::new(join_chain(rng, opts)),
        "edit-serve" => Box::new(edit_serve::EditServe::new(rng, opts, trace, warm)?),
        "warm-restart" => Box::new(warm_restart::WarmRestart::new(rng, opts, work_dir, warm)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    w.warm_up(warm);
    Ok(w)
}

struct ColdInput {
    name: String,
    text: String,
    expect: Expect,
}

/// Cold checks of a fixed input set, in a seed-shuffled order each pass.
struct Cold {
    inputs: Vec<ColdInput>,
    rng: TestRng,
    opts: CheckerOptions,
    /// The warm-up checks every this-many-th input (inputs that differ
    /// only in their constants take the same code paths).
    warm_stride: usize,
}

/// The 7 Fig. 6 programs and their 7 seeded mutants.
fn corpus_cold(rng: TestRng, opts: CheckerOptions) -> Result<Cold, String> {
    let mut inputs = Vec::new();
    for p in inputs::corpus()? {
        inputs.push(ColdInput {
            name: p.name.to_string(),
            text: p.clean,
            expect: Expect::Verify,
        });
        inputs.push(ColdInput {
            name: format!("{}~mutant", p.name),
            text: p.mutant,
            expect: Expect::Golden(p.golden),
        });
    }
    Ok(Cold {
        inputs,
        rng,
        opts,
        warm_stride: 1,
    })
}

/// Join chains of each length this many times, with different constants.
/// The constants move the cost of a long chain by up to a fifth (at n=7,
/// 830 ms for one seed's draw, 1070 ms for another's), so one draw per
/// length would make the figures depend on the seed.
const JOIN_DRAWS: usize = 4;

/// Join chains of length 1..=7 with seeded constants, `JOIN_DRAWS` each.
fn join_chain(mut rng: TestRng, opts: CheckerOptions) -> Cold {
    let mut inputs = Vec::new();
    for n in 1..=7 {
        for d in 0..JOIN_DRAWS {
            inputs.push(ColdInput {
                name: format!("n={n} #{d}"),
                text: inputs::join_chain(&mut rng, n),
                expect: Expect::Verify,
            });
        }
    }
    Cold {
        inputs,
        rng,
        opts,
        warm_stride: JOIN_DRAWS,
    }
}

impl Workload for Cold {
    fn pass(&mut self, rec: &mut Recorder) {
        let mut order: Vec<usize> = (0..self.inputs.len()).collect();
        inputs::shuffle(&mut self.rng, &mut order);
        for i in order {
            cold_check(rec, &self.inputs[i], self.opts);
        }
    }

    fn warm_up(&mut self, rec: &mut Recorder) {
        for input in self.inputs.iter().step_by(self.warm_stride) {
            cold_check(rec, input, self.opts);
        }
    }
}

/// One cold check: a fresh VC cache, every layer entry point called and
/// timed from here (`parse_program` → `transform_program` →
/// `generate_artifacts` → `solve_artifacts`).
fn cold_check(rec: &mut Recorder, input: &ColdInput, opts: CheckerOptions) {
    let work = || {
        let mut t = [0f64; 4];
        let mut lap = Instant::now();
        let mut split = |i: usize| {
            t[i] = lap.elapsed().as_nanos() as f64;
            lap = Instant::now();
        };
        let prog = rsc_syntax::parse_program(&input.text).map_err(|e| e.message)?;
        split(0);
        let ir = rsc_ssa::transform_program(&prog).map_err(|e| e.message)?;
        split(1);
        let cache = rsc_smt::VcCache::shared_with_capacity(opts.effective_cache_capacity());
        let art = rsc_core::generate_artifacts(&ir, opts, cache);
        split(2);
        let result = rsc_core::solve_artifacts(art, &mut |_| None);
        split(3);
        Ok::<_, String>((result, t))
    };
    let (out, profile) = if rec.traced {
        let (out, p) = with_spans(|| rec.request(&input.name, work));
        (out, Some(p))
    } else {
        (rec.request(&input.name, work), None)
    };
    let ((result, t), wall) = match out {
        None => return, // panicked: already counted
        Some((Err(e), _)) => return rec.fail(&input.name, e),
        Some((Ok(v), wall)) => (v, wall),
    };
    rec.judge(&input.name, &input.expect, &Verdict::of(&result));
    rec.size(&input.name, result.stats.constraints as f64);
    if let Some(p) = profile {
        let mut s = LayerSample {
            wall,
            parse: t[0],
            ssa: t[1],
            generate: t[2],
            solve: t[3],
            ..LayerSample::default()
        };
        s.add_result(&result, false);
        s.add_spans(&p, false);
        // The lint pass runs inside `generate_artifacts`.
        s.generate -= s.absint;
        rec.layers.add(&s);
    }
}
