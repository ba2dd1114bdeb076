//! `edit-serve`: one editor client driving `Serve::handle` with LSP
//! `didOpen`/`didChange` over the corpus plus a generated import chain.

use std::collections::BTreeMap;
use std::time::Instant;

use proptest::test_runner::TestRng;
use rsc_core::CheckerOptions;
use rsc_incr::{qualified_program, resolve_closure, Json, Merged, Serve, VcCache, Workspace};

use crate::inputs::{self, Expect, Verdict};
use crate::layers::{with_spans, LayerSample};
use crate::{Recorder, Workload};

/// Functions in the generated program and files in its import chain.
const GEN_FUNS: usize = 12;
const GEN_DEPTH: usize = 3;

/// Comment-only edits per document per pass (each an insert and its
/// revert). They re-solve no bundle; keeping them the large majority of
/// requests keeps the median inside that class, away from the boundary
/// with the re-solving edits.
const COMMENT_EDITS: usize = 3;

/// One didChange: the document's new full text and the verdict due.
struct Step {
    uri: String,
    text: String,
    expect: Expect,
    /// Enters the growth fit: a comment-only edit (or its revert) of a
    /// corpus document. Such an edit costs re-checking the document,
    /// which grows with its size; a median over mixed edit classes would
    /// sit on the boundary between them, and the generated chain's sizes
    /// change with the seed.
    fit: bool,
}

pub struct EditServe {
    serve: Serve,
    /// Fed the same updates in traced passes, under span collection and
    /// outside the timed request: its spans and reports give the layer
    /// breakdown that `Serve::handle` keeps to itself. Traced runs only.
    shadow: Option<Workspace>,
    /// Edit units (an edit and its revert), shuffled per pass.
    units: Vec<Vec<Step>>,
    rng: TestRng,
    version: u64,
    /// Constraints generated for each document's unedited closure (its
    /// size for the growth fit).
    sizes: BTreeMap<String, f64>,
}

/// Constraints generated for `uri`'s import closure, as the workspace
/// merges it (generation only, no solve).
fn constraints(
    uri: &str,
    texts: &BTreeMap<String, String>,
    opts: CheckerOptions,
) -> Result<f64, String> {
    let files =
        resolve_closure(uri, &mut |name| texts.get(name).cloned()).map_err(|e| e.message)?;
    let merged = Merged::build(&files);
    let prog = if files.len() <= 1 {
        rsc_syntax::parse_program(&merged.text).map_err(|e| e.message)?
    } else {
        qualified_program(&merged, &files).map_err(|e| e.message)?
    };
    let ir = rsc_ssa::transform_program(&prog).map_err(|e| e.message)?;
    Ok(rsc_core::generate_artifacts(&ir, opts, VcCache::shared()).constraints as f64)
}

fn comment_edits(uri: &str, text: &str, fit: bool, rng: &mut TestRng, units: &mut Vec<Vec<Step>>) {
    let starts: Vec<usize> = std::iter::once(0)
        .chain(
            text.match_indices('\n')
                .map(|(i, _)| i + 1)
                .filter(|&i| i < text.len()),
        )
        .collect();
    for k in 0..COMMENT_EDITS {
        let at = starts[rng.below(starts.len() as u64) as usize];
        let edited = format!("{}// edit {k}\n{}", &text[..at], &text[at..]);
        units.push(vec![
            Step {
                uri: uri.to_string(),
                text: edited,
                expect: Expect::Verify,
                fit,
            },
            Step {
                uri: uri.to_string(),
                text: text.to_string(),
                expect: Expect::Verify,
                fit,
            },
        ]);
    }
}

impl EditServe {
    pub fn new(
        mut rng: TestRng,
        opts: CheckerOptions,
        trace: bool,
        warm: &mut Recorder,
    ) -> Result<EditServe, String> {
        let mut docs: Vec<(String, String)> = Vec::new();
        let mut units = Vec::new();
        for p in inputs::corpus()? {
            let uri = format!("untitled:corpus/{}.rsc", p.name);
            comment_edits(&uri, &p.clean, true, &mut rng, &mut units);
            units.push(vec![
                Step {
                    uri: uri.clone(),
                    text: p.mutant,
                    expect: Expect::Golden(p.golden),
                    fit: false,
                },
                Step {
                    uri: uri.clone(),
                    text: p.clean.clone(),
                    expect: Expect::Verify,
                    fit: false,
                },
            ]);
            docs.push((uri, p.clean));
        }
        let ws = inputs::gen_workspace(&mut rng, GEN_FUNS, GEN_DEPTH);
        let last = ws.files.len() - 1;
        for (k, (name, text)) in ws.files.iter().enumerate() {
            let uri = format!("untitled:ws/{name}");
            comment_edits(&uri, text, false, &mut rng, &mut units);
            if k < last {
                // A non-exported body edit in an exporter: importers are
                // skipped, one bundle re-solves.
                units.push(vec![
                    Step {
                        uri: uri.clone(),
                        text: inputs::helper_body_edit(k, text)?,
                        expect: Expect::Verify,
                        fit: false,
                    },
                    Step {
                        uri: uri.clone(),
                        text: text.clone(),
                        expect: Expect::Verify,
                        fit: false,
                    },
                ]);
            }
            docs.push((uri, text.clone()));
        }
        // Every mutation template typed into (and removed from) a scratch
        // document holding the generated alias preamble. Inserted into
        // the chain itself, 5 of the 13 add a mined qualifier, change the
        // run-global fingerprint and re-solve the whole closure, whose
        // cost is then a property of the seed's program.
        let scratch = "untitled:ws/scratch.rsc".to_string();
        for m in rsc_gen::templates("bm", "nat", "pos") {
            units.push(vec![
                Step {
                    uri: scratch.clone(),
                    text: format!("{}{}", ws.preamble, m.text),
                    expect: Expect::Code(m.kind.code()),
                    fit: false,
                },
                Step {
                    uri: scratch.clone(),
                    text: ws.preamble.clone(),
                    expect: Expect::Verify,
                    fit: false,
                },
            ]);
        }
        docs.push((scratch, ws.preamble));

        let texts: BTreeMap<String, String> = docs.iter().cloned().collect();
        let sizes = texts
            .keys()
            .map(|uri| Ok((uri.clone(), constraints(uri, &texts, opts)?)))
            .collect::<Result<_, String>>()?;
        let mut me = EditServe {
            serve: Serve::new(opts),
            shadow: trace.then(|| Workspace::new(opts)),
            units,
            rng,
            version: 0,
            sizes,
        };
        for (uri, text) in docs {
            let step = Step {
                uri,
                text,
                expect: Expect::Verify,
                fit: false,
            };
            me.send(warm, "textDocument/didOpen", &step);
        }
        Ok(me)
    }

    /// Sends one `didOpen`/`didChange` through `Serve::handle`, judges
    /// every publish it answers with, and returns its latency unless the
    /// check panicked.
    fn send(&mut self, rec: &mut Recorder, method: &str, step: &Step) -> Option<f64> {
        self.version += 1;
        let mut doc = vec![
            ("uri".into(), Json::str(step.uri.as_str())),
            ("version".into(), Json::num(self.version as f64)),
        ];
        let text = Json::str(step.text.as_str());
        let params = if method == "textDocument/didOpen" {
            doc.push(("text".into(), text));
            vec![("textDocument".into(), Json::Obj(doc))]
        } else {
            vec![
                ("textDocument".into(), Json::Obj(doc)),
                (
                    "contentChanges".into(),
                    Json::Arr(vec![Json::Obj(vec![("text".into(), text)])]),
                ),
            ]
        };
        let line = Json::Obj(vec![
            ("jsonrpc".into(), Json::str("2.0")),
            ("method".into(), Json::str(method)),
            ("params".into(), Json::Obj(params)),
        ])
        .to_string();
        let serve = &mut self.serve;
        let input = if step.fit {
            step.uri.clone()
        } else {
            format!("{} (edit)", step.uri)
        };
        let ((reply, _), wall) = rec.request(&input, || serve.handle(&line))?;
        if step.fit {
            rec.size(&input, self.sizes.get(&step.uri).copied().unwrap_or(0.0));
        }
        judge_publishes(rec, step, &reply);
        if rec.setup {
            if let Some(shadow) = &mut self.shadow {
                shadow.update(&step.uri, step.text.clone());
            }
        }
        Some(wall)
    }
}

fn shadow_update(shadow: &mut Workspace, rec: &mut Recorder, step: &Step, wall: f64) {
    let text = step.text.clone();
    let ((reports, update_ns), p) = with_spans(|| {
        let start = Instant::now();
        let reports = shadow.update(&step.uri, text);
        (reports, start.elapsed().as_nanos() as f64)
    });
    let mut s = LayerSample {
        wall,
        serve_overhead: wall - update_ns,
        ..LayerSample::default()
    };
    for r in &reports {
        s.add_result(&r.outcome.result, false);
        s.counts.importers_skipped += r.outcome.incr.importers_skipped as u64;
    }
    s.add_spans(&p, true);
    rec.layers.add(&s);
}

/// Judges each `publishDiagnostics` in a reply: the edited document
/// against the step's expectation, any re-checked importer must verify.
fn judge_publishes(rec: &mut Recorder, step: &Step, reply: &str) {
    let mut saw_doc = false;
    for line in reply.lines().filter(|l| !l.is_empty()) {
        let publish = match Json::parse(line) {
            Ok(j) => j,
            Err(e) => return rec.fail(&step.uri, format!("unparsable reply: {e}")),
        };
        let params = publish.get("params");
        let uri = params
            .and_then(|p| p.get("uri"))
            .and_then(Json::as_str)
            .unwrap_or_default();
        let Some(verified) = publish.get("rsc").and_then(|r| r.get("verified")) else {
            continue; // an empty publish clearing a URI
        };
        let mut v = Verdict {
            ok: matches!(verified, Json::Bool(true)),
            errors: Vec::new(),
            codes: Vec::new(),
        };
        if let Some(Json::Arr(diags)) = params.and_then(|p| p.get("diagnostics")) {
            for d in diags
                .iter()
                .filter(|d| d.get("severity").and_then(Json::as_f64) == Some(1.0))
            {
                let code = d.get("code").and_then(Json::as_str).unwrap_or_default();
                let line = d
                    .get("range")
                    .and_then(|r| r.get("start"))
                    .and_then(|s| s.get("line"))
                    .and_then(Json::as_f64)
                    .unwrap_or(-1.0) as i64
                    + 1;
                let message = d.get("message").and_then(Json::as_str).unwrap_or_default();
                // The golden rendering: notes folded into the LSP message
                // one per line come back as `  = note` lines.
                let rendered = message.lines().collect::<Vec<_>>().join("\n  = ");
                v.errors
                    .push(format!("error[{code}] (line {line}): {rendered}"));
                v.codes.push(code.to_string());
            }
        }
        if uri == step.uri {
            saw_doc = true;
            rec.judge(uri, &step.expect, &v);
        } else {
            rec.judge(uri, &Expect::Verify, &v);
        }
    }
    if !saw_doc {
        rec.fail(
            &step.uri,
            "no publishDiagnostics for the edited document".to_string(),
        );
    }
}

impl Workload for EditServe {
    fn pass(&mut self, rec: &mut Recorder) {
        let mut units = std::mem::take(&mut self.units);
        inputs::shuffle(&mut self.rng, &mut units);
        let mut sent = Vec::new();
        for unit in &units {
            for step in unit {
                if let Some(wall) = self.send(rec, "textDocument/didChange", step) {
                    sent.push((step, wall));
                }
            }
        }
        // The shadow sees set-up and every traced pass, replayed after
        // the pass so its work does not disturb the timed requests. Each
        // edit unit ends with its revert, so untraced passes leave the
        // documents (and, after warm-up, the caches) as the shadow knows
        // them.
        if let (true, Some(shadow)) = (rec.traced, &mut self.shadow) {
            for (step, wall) in sent {
                shadow_update(shadow, rec, step, wall);
            }
        }
        self.units = units;
    }
}
