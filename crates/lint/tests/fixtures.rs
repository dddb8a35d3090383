//! Fixture tests: inline sources through the exact pipeline CI runs
//! ([`lake_lint::check_source`] = lex → resolve → rules → pragmas).
//!
//! Fixtures are deliberately *inline strings*, never `.rs` files on disk:
//! the engine scans everything under `crates/`, so an on-disk fixture
//! containing a violation would fail the real CI gate it exists to test.

use lake_lint::{check_source, lexer, Diagnostic, EMPTY_JUSTIFICATION, UNKNOWN_RULE};

/// Path that puts a fixture in scope for `raw-threads` (any non-runtime
/// crate) without tripping file-level test exemptions.
const LIB: &str = "crates/x/src/lib.rs";

fn rules_of(diags: &[Diagnostic]) -> Vec<&'static str> {
    diags.iter().map(|d| d.rule).collect()
}

// ---------------------------------------------------------------- lexer --

#[test]
fn lexing_is_lossless_on_gnarly_input() {
    let source = r##"#!/usr/bin/env run
//! doc
/* outer /* nested */ still comment */
fn f<'a>(x: &'a str) -> char {
    let _s = "thread::spawn \" escaped";
    let _r = r#"raw "quoted" text"#;
    let _b = b"bytes";
    let _c = 'x';
    let _n = 0xFF_u32 + 1.5e-3 + 1..2;
    'q'
}
"##;
    let tokens = lexer::lex(source);
    let rebuilt: String = tokens.iter().map(|t| t.text(source)).collect();
    assert_eq!(rebuilt, source, "token ranges must tile the input exactly");
    let mut pos = 0;
    for token in &tokens {
        assert_eq!(token.start, pos, "tokens must be contiguous");
        pos = token.end;
    }
    assert_eq!(pos, source.len());
}

// --------------------------------------------------- trivia is invisible --

#[test]
fn comments_do_not_fire_rules() {
    let src = "\
// std::thread::spawn in a line comment
/* std::thread::spawn in a block comment
   /* nested: thread::scope */ still inside */
fn f() {}
";
    assert!(check_source(LIB, src).is_empty());
}

#[test]
fn string_and_char_literals_do_not_fire_path_rules() {
    let src = r##"
fn f() {
    let _a = "std::thread::spawn";
    let _b = r#"use std::thread; t::spawn"#;
    let _c = ':';
    let _d = "unsafe { }";
}
"##;
    // Path in `crates/x`: raw-threads and unsafe-scope both in scope, and
    // neither may fire on literal content.
    assert!(check_source(LIB, src).is_empty());
}

// ------------------------------------------------------ alias resolution --

#[test]
fn direct_use_fires_raw_threads() {
    let src = "use std::thread;\n";
    let diags = check_source(LIB, src);
    assert_eq!(rules_of(&diags), ["raw-threads"]);
}

#[test]
fn alias_evasion_fires_raw_threads() {
    // The case greps could never catch: neither `t::spawn` nor the bare
    // import line contains the full textual pattern at the call site.
    let src = "use std::thread as t;\nfn f() { t::spawn(|| {}); }\n";
    let diags = check_source(LIB, src);
    assert_eq!(diags.len(), 2, "the import and the aliased call: {diags:?}");
    assert!(diags.iter().all(|d| d.rule == "raw-threads"));
    let call = diags.iter().find(|d| d.line == 2).expect("call-site diagnostic");
    assert!(
        call.message.contains("std::thread::spawn") && call.message.contains("t::spawn"),
        "the message should show both written and resolved forms: {}",
        call.message
    );
}

#[test]
fn grouped_self_import_fires_raw_threads() {
    let src = "use std::{thread::{self}, time::Duration};\n";
    let diags = check_source(LIB, src);
    assert!(diags.iter().any(|d| d.rule == "raw-threads"), "got {diags:?}");
}

#[test]
fn runtime_crate_is_exempt_from_raw_threads() {
    let src = "use std::thread;\nfn f() { std::thread::spawn(|| {}); }\n";
    assert!(check_source("crates/runtime/src/executor.rs", src).is_empty());
}

// ---------------------------------------------------------------- spans --

#[test]
fn diagnostics_point_at_the_exact_token() {
    let src = "fn f() {\n    std::thread::spawn(|| {});\n}\n";
    let diags = check_source(LIB, src);
    assert_eq!(diags.len(), 1);
    // `std` starts at line 2, column 5 (1-based, after 4 spaces).
    assert_eq!((diags[0].line, diags[0].col), (2, 5));
    assert_eq!(
        diags[0].to_string().split(": ").next().expect("span prefix"),
        "crates/x/src/lib.rs:2:5"
    );
}

// -------------------------------------------------------------- pragmas --

#[test]
fn pragma_with_justification_suppresses_on_both_lines() {
    let trailing = "use std::thread; // lint:allow(raw-threads): doc example, never compiled\n";
    assert!(check_source(LIB, trailing).is_empty());
    let preceding = "// lint:allow(raw-threads): doc example, never compiled\nuse std::thread;\n";
    assert!(check_source(LIB, preceding).is_empty());
}

#[test]
fn pragma_does_not_reach_two_lines_down() {
    let src = "// lint:allow(raw-threads): too far away\n\nuse std::thread;\n";
    assert_eq!(rules_of(&check_source(LIB, src)), ["raw-threads"]);
}

#[test]
fn empty_justification_is_its_own_finding() {
    let src = "use std::thread; // lint:allow(raw-threads)\n";
    let diags = check_source(LIB, src);
    // Suppression still applies (the author's intent is clear), but the
    // missing justification is an error so CI fails anyway.
    assert_eq!(rules_of(&diags), [EMPTY_JUSTIFICATION]);
}

#[test]
fn unknown_rule_in_pragma_is_a_finding() {
    let src = "fn f() {} // lint:allow(raw-thread): typo'd id\n";
    let diags = check_source(LIB, src);
    assert_eq!(rules_of(&diags), [UNKNOWN_RULE]);
    assert!(diags[0].message.contains("raw-thread"));
}

// -------------------------------------------------------- scoping rules --

#[test]
fn band_keys_fire_only_on_hot_path_files() {
    let fmt = "fn f(b: u32) -> String { format!(\"sh{b}:{b}\") }\n";
    assert_eq!(rules_of(&check_source("crates/embed/src/ann.rs", fmt)), ["string-band-keys"]);
    assert!(check_source("crates/core/src/lib.rs", fmt).is_empty());
}

#[test]
fn unsafe_fires_outside_the_kernel_only() {
    let src = "fn f() { let _ = 1; }\nunsafe fn g() {}\n";
    assert_eq!(rules_of(&check_source(LIB, src)), ["unsafe-scope"]);
    assert!(check_source("crates/embed/src/kernel.rs", src).is_empty());
}

#[test]
fn serve_panic_path_fires_in_request_modules_but_not_their_tests() {
    let src = "\
fn live(x: Option<u32>) -> u32 { x.unwrap() }
#[cfg(test)]
mod tests {
    fn t(x: Option<u32>) -> u32 { x.expect(\"test code may\") }
}
";
    let diags = check_source("crates/serve/src/http.rs", src);
    assert_eq!(rules_of(&diags), ["serve-panic-path"], "only the live unwrap: {diags:?}");
    assert_eq!(diags[0].line, 1);
    // The same source outside the serve request modules is fine.
    assert!(check_source("crates/core/src/lib.rs", src).is_empty());
}

#[test]
fn wallclock_fires_in_replay_code_only() {
    let src = "use std::time::Instant;\nfn f() { let _t = Instant::now(); }\n";
    let diags = check_source("crates/store/src/recovery.rs", src);
    assert_eq!(rules_of(&diags), ["wallclock-in-replay"]);
    assert!(check_source("crates/metrics/src/timing.rs", src).is_empty());
}

#[test]
fn float_eq_flags_nonzero_literals_and_exempts_zero_guards() {
    let nonzero = "fn f(x: f32) -> bool { x == 0.944 }\n";
    assert_eq!(rules_of(&check_source(LIB, nonzero)), ["float-eq"]);

    let negated = "fn f(x: f32) -> bool { x != -1.5 }\n";
    assert_eq!(rules_of(&check_source(LIB, negated)), ["float-eq"]);

    // Zero is exactly representable: the idiomatic divide-by-norm guard.
    let zero = "fn f(n: f32) -> bool { n == 0.0 }\n";
    assert!(check_source(LIB, zero).is_empty());

    // Integer comparisons and compound operators are not float equality.
    let ints = "fn f(x: usize) -> bool { let y = x <= 2; x == 3 && y }\n";
    assert!(check_source(LIB, ints).is_empty());

    // The epsilon module itself may write raw comparisons.
    assert!(check_source("crates/embed/src/vector.rs", nonzero).is_empty());

    // Test files assert exact fixture values legitimately.
    assert!(check_source("tests/some_test.rs", nonzero).is_empty());
}
