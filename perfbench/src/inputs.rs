//! Seeded inputs and the verdict oracle.
//!
//! Everything the checker sees is text made here from the seed: the
//! Fig. 6 corpus and its seeded mutants, `rsc_gen` import-chain
//! workspaces with one-obligation mutants, and the join-chain family.

use proptest::test_runner::TestRng;
use rsc_core::{CheckResult, Diagnostic};
use rsc_gen::{generate, GenConfig};

/// What a request's verdict must be.
#[derive(Clone, Debug)]
pub enum Expect {
    /// No error diagnostics.
    Verify,
    /// Error diagnostics rendered exactly as this golden file.
    Golden(String),
    /// Rejected, with some diagnostic carrying this obligation code.
    Code(&'static str),
}

/// A verdict in checker-neutral form, so session results and LSP
/// publishes are judged by the same rule.
pub struct Verdict {
    pub ok: bool,
    /// Error diagnostics, one rendered diagnostic per element.
    pub errors: Vec<String>,
    pub codes: Vec<String>,
}

impl Verdict {
    pub fn of(r: &CheckResult) -> Verdict {
        Verdict {
            ok: r.ok(),
            errors: r.diagnostics.iter().map(Diagnostic::to_string).collect(),
            codes: r
                .diagnostics
                .iter()
                .filter_map(|d| d.code.map(str::to_string))
                .collect(),
        }
    }
}

impl Expect {
    pub fn judge(&self, v: &Verdict) -> Result<(), String> {
        match self {
            Expect::Verify if v.ok => Ok(()),
            Expect::Verify => Err(format!("expected to verify, got:\n{}", v.errors.join("\n"))),
            Expect::Golden(g) => {
                let got = format!("{}\n", v.errors.join("\n"));
                if !v.ok && got == *g {
                    Ok(())
                } else {
                    Err(format!("diagnostics differ from the golden file:\n{got}"))
                }
            }
            Expect::Code(c) if !v.ok && v.codes.iter().any(|x| x == c) => Ok(()),
            Expect::Code(c) => Err(format!(
                "expected rejection with {c}, got:\n{}",
                v.errors.join("\n")
            )),
        }
    }
}

/// One Fig. 6 program with its seeded mutant and that mutant's golden
/// diagnostics (`tests/golden/seeded-<name>.diag`, read-only).
pub struct CorpusProgram {
    pub name: &'static str,
    pub clean: String,
    pub mutant: String,
    pub golden: String,
}

pub fn corpus() -> Result<Vec<CorpusProgram>, String> {
    let golden_dir = rsc_bench::benchmarks_dir()
        .parent()
        .map(|root| root.join("tests").join("golden"))
        .ok_or("benchmarks directory has no parent")?;
    rsc_bench::seeded_mutations()
        .iter()
        .map(|&(name, from, to)| {
            let clean = rsc_bench::load_benchmark(name).map_err(|e| format!("{name}: {e}"))?;
            if !clean.contains(from) {
                return Err(format!("{name}: mutation site `{from}` not found"));
            }
            let mutant = clean.replacen(from, to, 1);
            let path = golden_dir.join(format!("seeded-{name}.diag"));
            let golden =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            Ok(CorpusProgram {
                name,
                clean,
                mutant,
                golden,
            })
        })
        .collect()
}

/// A generated import chain: files `m0.rsc` … `m{depth}.rsc` in
/// topological order (the root, holding the top-level `return`, last),
/// and the program's type-alias preamble.
pub struct GenWorkspace {
    pub files: Vec<(String, String)>,
    pub preamble: String,
}

pub fn gen_workspace(rng: &mut TestRng, funs: usize, depth: usize) -> GenWorkspace {
    let p = generate(
        rng,
        GenConfig {
            funs,
            cluster: None,
        },
    );
    GenWorkspace {
        files: rsc_gen::workspace::split(&p, depth, |k| format!("m{k}.rsc"), true),
        preamble: p.preamble,
    }
}

/// A verdict-preserving edit of file `k` of a [`GenWorkspace`]: the body
/// of its non-exported `sharedHelper` returns `a + k + 2` instead of
/// `a + k + 1`, still within its `a + k <= v` refinement. The export
/// surface is unchanged, so importers need no re-check.
pub fn helper_body_edit(k: usize, text: &str) -> Result<String, String> {
    let from = format!("return a + {};", k + 1);
    if !text.contains(&from) {
        return Err(format!("m{k}.rsc: shared helper body not found"));
    }
    Ok(text.replacen(&from, &format!("return a + {};", k + 2), 1))
}

/// The join-chain repro with `n` joins and seeded constants:
/// `var a_i = x + c_i; if (a_i > 0) { x = a_i; }`, repeated.
pub fn join_chain(rng: &mut TestRng, n: usize) -> String {
    let mut s = String::from("function f(x: number): number {\n");
    for i in 1..=n {
        let c = 1 + rng.below(9);
        s.push_str(&format!(
            "    var a{i} = x + {c};\n    if (a{i} > 0) {{ x = a{i}; }}\n"
        ));
    }
    s.push_str("    return x;\n}\n");
    s
}

pub fn shuffle<T>(rng: &mut TestRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}
