//! The rule registry: [`LintRule`] plus the workspace's seeded rules.
//!
//! Each rule is a small token-level check over a [`FileContext`].  Rules
//! never see comments or string/char literals unless they explicitly opt
//! in to literal content (only [`StringBandKeys`] does, because the banned
//! pattern *is* a formatting literal).  Scoping — which files a rule
//! applies to — lives in the rule itself, next to the invariant it guards;
//! the catalog with rationale per rule is `docs/LINTS.md`.

use crate::context::FileContext;
use crate::diag::{Diagnostic, Severity};
use crate::lexer::{float_value, number_is_float, TokenKind};

/// One workspace invariant, checked per file.
pub trait LintRule {
    /// Stable id: the pragma target and the `[rule]` tag in output.
    fn id(&self) -> &'static str;

    /// One-line description for `--list-rules` and the JSON report.
    fn description(&self) -> &'static str;

    /// Severity of this rule's findings.
    fn severity(&self) -> Severity {
        Severity::Error
    }

    /// Runs the rule over one file.
    fn check(&self, file: &FileContext) -> Vec<Diagnostic>;
}

/// The seeded registry, in catalog order.
pub fn default_rules() -> Vec<Box<dyn LintRule>> {
    vec![
        Box::new(RawThreads),
        Box::new(StringBandKeys),
        Box::new(UnsafeScope),
        Box::new(ServePanicPath),
        Box::new(WallclockInReplay),
        Box::new(FloatEq),
    ]
}

/// The ids of every registered rule (pragma validation checks against this).
pub fn all_rule_ids() -> Vec<&'static str> {
    default_rules().iter().map(|r| r.id()).collect()
}

fn diag(
    rule: &'static str,
    severity: Severity,
    file: &FileContext,
    offset: usize,
    message: String,
) -> Diagnostic {
    let (line, col) = file.line_col(offset);
    Diagnostic { rule, severity, path: file.path.clone(), line, col, message }
}

/// `raw-threads`: no `std::thread` primitives outside `crates/runtime`.
///
/// Every parallel site must route through `lake_runtime::run_scope` /
/// `spawn_service`; ad-hoc pools escape the executor's ordering, panic and
/// diagnostics guarantees.  Alias-resolved, so `use std::thread as t;
/// t::spawn(..)` fires too.
pub struct RawThreads;

impl LintRule for RawThreads {
    fn id(&self) -> &'static str {
        "raw-threads"
    }

    fn description(&self) -> &'static str {
        "no std::thread primitives outside crates/runtime"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if file.path.starts_with("crates/runtime/") {
            return Vec::new();
        }
        file.paths
            .iter()
            .filter(|p| p.starts_with(&["std", "thread"]))
            .map(|p| {
                let written = p.written.join("::");
                let resolved = p.resolved.join("::");
                let via = if written == resolved {
                    String::new()
                } else {
                    format!(" (written `{written}`)")
                };
                diag(
                    self.id(),
                    self.severity(),
                    file,
                    p.offset,
                    format!(
                        "raw thread primitive `{resolved}`{via} outside crates/runtime — \
                         route through lake_runtime::run_scope / spawn_service"
                    ),
                )
            })
            .collect()
    }
}

/// `string-band-keys`: the planner hot path must never build `String` band
/// keys.  The packed-u64 representation (`packed_band_key`) exists so the
/// per-vector `Vec<String>` churn cannot come back: the planning files may
/// not format the `sh{band}:{bucket}` key shape themselves.
pub struct StringBandKeys;

/// The files on the planning hot path: candidate planning, block solving
/// and the ANN index they drive.
const PLANNER_HOT_PATH: [&str; 3] =
    ["crates/core/src/blocking.rs", "crates/core/src/value_match.rs", "crates/embed/src/ann.rs"];

impl LintRule for StringBandKeys {
    fn id(&self) -> &'static str {
        "string-band-keys"
    }

    fn description(&self) -> &'static str {
        "no String band keys (sh{band}: formatting) on the planner hot path"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if !PLANNER_HOT_PATH.contains(&file.path.as_str()) {
            return Vec::new();
        }
        let mut out = Vec::new();
        // The one rule that inspects literal content: the banned pattern is
        // itself a format string.  Comments stay immune.
        for token in &file.tokens {
            if matches!(token.kind, TokenKind::Str | TokenKind::RawStr)
                && file.text_of(token).contains("sh{")
            {
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    token.start,
                    "`sh{band}:{bucket}` band-key formatting on the planner hot path — use \
                     packed_band_key instead"
                        .to_string(),
                ));
            }
        }
        out
    }
}

/// `unsafe-scope`: the single scoped `unsafe` lives in
/// `crates/embed/src/kernel.rs` (CPU intrinsics have no safe form); the
/// workspace-wide `unsafe_code = "deny"` lint covers the compiler side,
/// this rule keeps the *exception list* from growing silently.
pub struct UnsafeScope;

/// The one file allowed to contain `unsafe` (SIMD intrinsics).
const UNSAFE_ALLOWED: &str = "crates/embed/src/kernel.rs";

impl LintRule for UnsafeScope {
    fn id(&self) -> &'static str {
        "unsafe-scope"
    }

    fn description(&self) -> &'static str {
        "no `unsafe` outside crates/embed/src/kernel.rs"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if file.path == UNSAFE_ALLOWED {
            return Vec::new();
        }
        file.significant()
            .filter(|t| t.kind == TokenKind::Ident && file.text_of(t) == "unsafe")
            .map(|t| {
                diag(
                    self.id(),
                    self.severity(),
                    file,
                    t.start,
                    format!(
                        "`unsafe` outside {UNSAFE_ALLOWED} — the workspace has exactly one \
                             scoped unsafe region (SIMD intrinsics)"
                    ),
                )
            })
            .collect()
    }
}

/// `serve-panic-path`: no `unwrap`/`expect`/`panic!` in `lake-serve`
/// request-handling modules.  A panic in a reader kills the connection
/// with no response and shrinks the reader pool; degraded requests must
/// become `500` bodies instead.  Test modules are exempt.
pub struct ServePanicPath;

/// The request-handling modules: framing, routing, shard admission, wire
/// rendering.  `client.rs` (test client) and `policy.rs` (startup
/// validation, runs before any request exists) are deliberately out.
const SERVE_REQUEST_PATH: [&str; 4] = [
    "crates/serve/src/http.rs",
    "crates/serve/src/server.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/wire.rs",
];

impl LintRule for ServePanicPath {
    fn id(&self) -> &'static str {
        "serve-panic-path"
    }

    fn description(&self) -> &'static str {
        "no unwrap/expect/panic! in lake-serve request-handling modules"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if !SERVE_REQUEST_PATH.contains(&file.path.as_str()) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..file.sig_len() {
            let Some(token) = file.sig_token(i) else { break };
            if file.in_test_code(token.start) {
                continue;
            }
            let method_call = sig_text(file, i) == Some(".")
                && file.sig_token(i + 1).is_some_and(|t| {
                    t.kind == TokenKind::Ident && matches!(file.text_of(t), "unwrap" | "expect")
                })
                && sig_text(file, i + 2) == Some("(");
            if method_call {
                let callee = file.sig_token(i + 1).expect("checked above");
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    callee.start,
                    format!(
                        "`.{}()` in a request-handling module — degrade to a 500 response \
                         (or lint:allow with a proof it is unreachable)",
                        file.text_of(callee)
                    ),
                ));
            }
            let is_panic = token.kind == TokenKind::Ident
                && file.text_of(token) == "panic"
                && sig_text(file, i + 1) == Some("!");
            if is_panic {
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    token.start,
                    "`panic!` in a request-handling module — degrade to a 500 response".to_string(),
                ));
            }
        }
        out
    }
}

/// `wallclock-in-replay`: no `Instant::now` / `SystemTime::now` in
/// deterministic-replay code.  Recovery replays the WAL and incremental
/// sessions replay appends; anything wall-clock-derived in those paths
/// would make a recovered lake differ from the live one.
/// `lake-metrics::timing` (observability) is outside the scope by
/// construction.
pub struct WallclockInReplay;

impl WallclockInReplay {
    fn in_scope(path: &str) -> bool {
        path.starts_with("crates/store/src/") || path == "crates/core/src/session.rs"
    }
}

impl LintRule for WallclockInReplay {
    fn id(&self) -> &'static str {
        "wallclock-in-replay"
    }

    fn description(&self) -> &'static str {
        "no Instant::now/SystemTime::now in deterministic-replay code (store, session)"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if !Self::in_scope(&file.path) {
            return Vec::new();
        }
        file.paths
            .iter()
            .filter(|p| !file.in_test_code(p.offset))
            .filter(|p| p.contains_pair("Instant", "now") || p.contains_pair("SystemTime", "now"))
            .map(|p| {
                diag(
                    self.id(),
                    self.severity(),
                    file,
                    p.offset,
                    format!(
                        "wall clock (`{}`) in deterministic-replay code — replayed state must \
                         not depend on when replay runs",
                        p.written.join("::")
                    ),
                )
            })
            .collect()
    }
}

/// `float-eq`: no bare `==` / `!=` against float literals outside the
/// designated epsilon module (`crates/embed/src/vector.rs`, home of
/// `DISTANCE_EPSILON` and the `approx_eq` helpers).  Comparisons
/// against literal zero are exempt — `x == 0.0` is an exact guard (zero is
/// exactly representable and the usual divide-by-norm check), while
/// `x == 0.944` is a rounding bug waiting to fire.  Test code is exempt
/// (asserting exact fixture values is legitimate).
pub struct FloatEq;

/// The designated epsilon module: owns `DISTANCE_EPSILON` and the
/// `approx_eq` helpers, and is the one place allowed to write the raw
/// comparisons those helpers are built from.
const EPSILON_MODULE: &str = "crates/embed/src/vector.rs";

impl LintRule for FloatEq {
    fn id(&self) -> &'static str {
        "float-eq"
    }

    fn description(&self) -> &'static str {
        "no bare ==/!= against non-zero float literals outside the epsilon module"
    }

    fn check(&self, file: &FileContext) -> Vec<Diagnostic> {
        if file.path == EPSILON_MODULE || file.is_test_file() {
            return Vec::new();
        }
        let mut out = Vec::new();
        for i in 0..file.sig_len() {
            let Some(op_len) = self.comparison_at(file, i) else { continue };
            let op = file.sig_token(i).expect("comparison_at checked");
            if file.in_test_code(op.start) {
                continue;
            }
            let before = i.checked_sub(1).and_then(|j| self.float_literal(file, j, false));
            let after = self.float_literal(file, i + op_len, true);
            if let Some(text) = before.or(after) {
                out.push(diag(
                    self.id(),
                    self.severity(),
                    file,
                    op.start,
                    format!(
                        "bare float comparison against `{text}` — use \
                         lake_embed::approx_eq (DISTANCE_EPSILON) instead"
                    ),
                ));
            }
        }
        out
    }
}

impl FloatEq {
    /// If significant tokens `i..` form `==` or `!=`, the operator's token
    /// count (always 2); `None` otherwise.
    fn comparison_at(&self, file: &FileContext, i: usize) -> Option<usize> {
        let a = file.sig_token(i)?;
        let b = file.sig_token(i + 1)?;
        if a.kind != TokenKind::Punct || b.kind != TokenKind::Punct || a.end != b.start {
            return None;
        }
        let (at, bt) = (file.text_of(a), file.text_of(b));
        if bt != "=" || (at != "=" && at != "!") {
            return None;
        }
        // Reject `=` pairs that are the tail of a longer operator (`<=`,
        // `+=`, …): the preceding punct must not be glued on.
        if at == "=" {
            if let Some(prev) = i.checked_sub(1).and_then(|j| file.sig_token(j)) {
                let glued = prev.kind == TokenKind::Punct && prev.end == a.start;
                if glued && "<>=!+-*/%&|^".contains(file.text_of(prev)) {
                    return None;
                }
            }
        }
        Some(2)
    }

    /// A non-zero float literal at significant index `j` (looking through a
    /// unary minus when scanning forward).
    fn float_literal(&self, file: &FileContext, j: usize, forward: bool) -> Option<String> {
        let mut j = j;
        if forward && file.sig_token(j).is_some_and(|t| file.text_of(t) == "-") {
            j += 1;
        }
        let token = file.sig_token(j)?;
        if token.kind != TokenKind::Number {
            return None;
        }
        let text = file.text_of(token);
        if !number_is_float(text) || float_value(text) == Some(0.0) {
            return None;
        }
        Some(text.to_string())
    }
}

fn sig_text(file: &FileContext, i: usize) -> Option<&str> {
    file.sig_token(i).map(|t| file.text_of(t))
}
