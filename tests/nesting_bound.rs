//! The parser's nesting bound ([`rsc_syntax::MAX_NESTING`]): input
//! nested exactly that deep checks end to end on a 2 MiB thread (the
//! smallest stack the pipeline runs on: a `--jobs 2` worker), and deeper
//! input gets a spanned parse error instead of overflowing the stack —
//! through `check_program` and through `rsc serve`, where the other open
//! documents keep checking afterwards.

use rsc_core::{check_program, CheckResult, CheckerOptions};
use rsc_incr::{Json, Serve};
use rsc_syntax::MAX_NESTING;

const NAT: &str = "type nat = {v: number | 0 <= v};\n";

/// `return` of `x` inside `n` parentheses.
fn parens(n: usize) -> String {
    format!(
        "{NAT}function f(x: nat): nat {{ return {}x{}; }}\n",
        "(".repeat(n),
        ")".repeat(n)
    )
}

/// `return x + 1 + … + 1` with `n` additions: a left-nested chain `n`
/// deep.
fn chain(n: usize) -> String {
    format!(
        "{NAT}function f(x: nat): nat {{ return x{}; }}\n",
        " + 1".repeat(n)
    )
}

/// `n` nested blocks around one statement.
fn blocks(n: usize) -> String {
    format!(
        "{NAT}function f(x: nat): nat {{ {}x = x + 1;{} return x; }}\n",
        "{".repeat(n),
        "}".repeat(n)
    )
}

/// Runs `f` on a fresh 2 MiB thread.
fn on_small_stack<T: Send>(f: impl FnOnce() -> T + Send) -> T {
    std::thread::scope(|s| {
        std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn_scoped(s, f)
            .expect("spawn")
            .join()
            .expect("no panic")
    })
}

fn check(src: &str) -> CheckResult {
    let opts = CheckerOptions {
        jobs: 2,
        ..CheckerOptions::default()
    };
    on_small_stack(|| check_program(src, opts))
}

fn assert_too_deep(what: &str, r: &CheckResult) {
    assert!(!r.ok(), "{what}: must be rejected");
    let d = &r.diagnostics[0];
    assert!(
        d.message
            .contains(&format!("nesting exceeds the limit of {MAX_NESTING}")),
        "{what}: {d}"
    );
    assert!(d.span.lo < d.span.hi, "{what}: the error is spanned: {d}");
}

#[test]
fn depth_bound_is_exact() {
    for (what, src) in [
        ("parens", parens(MAX_NESTING)),
        ("chain", chain(MAX_NESTING)),
    ] {
        let r = check(&src);
        assert!(r.ok(), "{what} at depth {MAX_NESTING}: {:?}", r.diagnostics);
    }
    assert_too_deep("parens", &check(&parens(MAX_NESTING + 1)));
    assert_too_deep("chain", &check(&chain(MAX_NESTING + 1)));
    assert_too_deep("blocks", &check(&blocks(MAX_NESTING + 1)));
}

#[test]
fn deep_input_gets_a_parse_error() {
    assert_too_deep("2000 parentheses", &check(&parens(2000)));
    assert_too_deep("10 000-term chain", &check(&chain(10_000)));
    assert_too_deep("5000 nested blocks", &check(&blocks(5000)));
}

fn did_open(uri: &str, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didOpen","params":{{"textDocument":{{"uri":{},"text":{}}}}}}}"#,
        Json::str(uri),
        Json::str(text)
    )
}

fn did_change(uri: &str, text: &str) -> String {
    format!(
        r#"{{"jsonrpc":"2.0","method":"textDocument/didChange","params":{{"textDocument":{{"uri":{}}},"contentChanges":[{{"text":{}}}]}}}}"#,
        Json::str(uri),
        Json::str(text)
    )
}

/// The `rsc.verified` flag and the first diagnostic message of a
/// serve response's first line.
fn outcome(resp: &str) -> (bool, Option<String>) {
    let v = Json::parse(resp.lines().next().expect("a response line")).expect("json");
    let verified = v.get("rsc").and_then(|r| r.get("verified")) == Some(&Json::Bool(true));
    let msg = match v.get("params").and_then(|p| p.get("diagnostics")) {
        Some(Json::Arr(ds)) => ds
            .first()
            .and_then(|d| d.get("message"))
            .and_then(Json::as_str)
            .map(str::to_string),
        _ => None,
    };
    (verified, msg)
}

#[test]
fn serve_rejects_deep_documents_and_keeps_serving() {
    on_small_stack(|| {
        let opts = CheckerOptions {
            jobs: 2,
            ..CheckerOptions::default()
        };
        let mut serve = Serve::new(opts);
        let other = "file:///w/other.rsc";
        let (resp, _) = serve.handle(&did_open(other, &chain(3)));
        assert!(outcome(&resp).0, "{resp}");

        let deep = "file:///w/deep.rsc";
        let (resp, _) = serve.handle(&did_open(deep, &parens(MAX_NESTING)));
        assert!(outcome(&resp).0, "depth {MAX_NESTING}: {resp}");
        for src in [
            parens(MAX_NESTING + 1),
            chain(MAX_NESTING + 1),
            parens(2000),
            chain(10_000),
        ] {
            let (resp, _) = serve.handle(&did_change(deep, &src));
            let (verified, msg) = outcome(&resp);
            assert!(!verified, "{resp}");
            let msg = msg.expect("a diagnostic");
            assert!(msg.contains("nesting exceeds the limit"), "{msg}");
        }

        let (resp, _) = serve.handle(&did_change(other, &chain(4)));
        assert!(outcome(&resp).0, "the other document still checks: {resp}");
    });
}
