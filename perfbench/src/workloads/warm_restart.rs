//! `warm-restart`: every request re-checks one document in a fresh
//! disk-backed session (`CheckSession::with_disk` for corpus programs,
//! `Workspace::persisting_to` for the generated import chain), as a
//! restarted `rsc --vc-cache DIR` would.

use std::path::{Path, PathBuf};
use std::time::Instant;

use proptest::test_runner::TestRng;
use rsc_core::{CheckResult, CheckerOptions};
use rsc_incr::{BundleStore, CheckSession, Workspace};

use crate::inputs::{self, Expect, Verdict};
use crate::layers::{with_spans, LayerSample};
use crate::{Recorder, Workload};

const GEN_FUNS: usize = 12;
const GEN_DEPTH: usize = 3;

enum Kind {
    Corpus,
    /// A workspace document whose imports are read from disk.
    Workspace,
}

struct Doc {
    key: String,
    text: String,
    kind: Kind,
    expect: Expect,
    /// Unchanged since the cache was filled.
    unedited: bool,
}

pub struct WarmRestart {
    docs: Vec<Doc>,
    /// The live cache directory, restored before every pass.
    cache: PathBuf,
    /// The cache as set-up left it.
    snapshot: PathBuf,
    rng: TestRng,
    opts: CheckerOptions,
}

fn check(doc: &Doc, opts: CheckerOptions, cache: &Path) -> CheckResult {
    match doc.kind {
        Kind::Corpus => CheckSession::with_disk(opts, cache).check(&doc.text).result,
        Kind::Workspace => {
            let mut ws = Workspace::new(opts).persisting_to(cache);
            ws.update(&doc.key, doc.text.clone())
                .swap_remove(0)
                .outcome
                .result
        }
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().expect("directory entries have names");
        std::fs::copy(&path, to.join(name)).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

impl WarmRestart {
    pub fn new(
        mut rng: TestRng,
        opts: CheckerOptions,
        work_dir: &Path,
        warm: &mut Recorder,
    ) -> Result<WarmRestart, String> {
        let files_dir = work_dir.join("ws");
        let cache = work_dir.join("cache");
        let snapshot = work_dir.join("snapshot");
        let _ = std::fs::remove_dir_all(work_dir);
        std::fs::create_dir_all(&files_dir).map_err(|e| format!("{}: {e}", files_dir.display()))?;

        let mut docs = Vec::new();
        for p in inputs::corpus()? {
            docs.push(Doc {
                key: p.name.to_string(),
                text: p.clean,
                kind: Kind::Corpus,
                expect: Expect::Verify,
                unedited: true,
            });
        }
        let ws = inputs::gen_workspace(&mut rng, GEN_FUNS, GEN_DEPTH);
        for (name, text) in &ws.files {
            let path = files_dir.join(name);
            std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
            docs.push(Doc {
                key: path.to_string_lossy().into_owned(),
                text: text.clone(),
                kind: Kind::Workspace,
                expect: Expect::Verify,
                unedited: true,
            });
        }

        // Fill the cache with cold checks of the unedited documents.
        std::fs::create_dir_all(&cache).map_err(|e| format!("{}: {e}", cache.display()))?;
        for doc in &docs {
            if let Some((r, _)) = warm.request(&doc.key, || check(doc, opts, &cache)) {
                warm.judge(&doc.key, &doc.expect, &Verdict::of(&r));
            }
        }
        copy_dir(&cache, &snapshot)?;

        // The edit of every pass, held as an editor overlay: a body edit
        // in the import chain's root that re-solves one bundle (and
        // appends its verdict to the cache).
        let root = docs.last_mut().expect("the import chain has a root");
        root.text = inputs::helper_body_edit(ws.files.len() - 1, &root.text)?;
        root.unedited = false;
        Ok(WarmRestart {
            docs,
            cache,
            snapshot,
            rng,
            opts,
        })
    }

    /// Time to open every disk tier in the restored cache (what the
    /// sessions of one pass open between them, one tier each).
    fn open_tiers(&self) -> f64 {
        let start = Instant::now();
        for entry in std::fs::read_dir(&self.cache)
            .into_iter()
            .flatten()
            .flatten()
        {
            let name = entry.file_name().to_string_lossy().into_owned();
            let Some(hex) = name
                .strip_prefix("bundles-")
                .and_then(|n| n.strip_suffix(".rbc"))
            else {
                continue;
            };
            let Ok(version) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            let vc = rsc_smt::DiskCache::open(&self.cache, version);
            if let Ok(vc) = vc {
                vc.load_into(&rsc_smt::VcCache::new());
            }
            let _ = BundleStore::open(&self.cache, version);
        }
        start.elapsed().as_nanos() as f64
    }
}

impl Workload for WarmRestart {
    fn pass(&mut self, rec: &mut Recorder) {
        if let Err(e) = copy_dir(&self.snapshot, &self.cache) {
            return rec.fail("cache restore", e);
        }
        let persist_open = if rec.traced {
            self.open_tiers() / self.docs.len() as f64
        } else {
            0.0
        };
        let mut order: Vec<usize> = (0..self.docs.len()).collect();
        inputs::shuffle(&mut self.rng, &mut order);
        for i in order {
            let doc = &self.docs[i];
            let (opts, cache) = (self.opts, &self.cache);
            let work = || check(doc, opts, cache);
            let (out, profile) = if rec.traced {
                let (out, p) = with_spans(|| rec.request(&doc.key, work));
                (out, Some(p))
            } else {
                (rec.request(&doc.key, work), None)
            };
            let Some((result, wall)) = out else { continue };
            rec.judge(&doc.key, &doc.expect, &Verdict::of(&result));
            // The generated chain's sizes change with the seed; the fit
            // keeps to the fixed corpus.
            if matches!(doc.kind, Kind::Corpus) {
                rec.size(&doc.key, result.stats.constraints as f64);
            }
            if let Some(p) = profile {
                let mut s = LayerSample {
                    wall,
                    persist_open,
                    ..LayerSample::default()
                };
                s.add_result(&result, doc.unedited);
                s.add_spans(&p, true);
                rec.layers.add(&s);
            }
        }
    }
}
