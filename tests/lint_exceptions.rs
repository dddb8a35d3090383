//! The exception inventory of the workspace invariants (docs/LINTS.md).
//!
//! rustc and clippy hold the invariants themselves — no raw threads outside
//! `lake-runtime`, no panic on a request path, no wall clock in replayed
//! code, no `unsafe`, no bare float equality — and an exception is an
//! `allow` / `expect` attribute with a reason.  What a `deny` plus an
//! attribute cannot do is make a *new* exception visible: this test pins
//! every one of them to a literal list, so adding one is a diff here that a
//! reviewer sees.

use std::fs;
use std::path::{Path, PathBuf};

/// The source trees that make up the workspace (vendored stubs included).
const SCANNED: [&str; 5] = ["src", "crates", "tests", "examples", "vendor"];

/// The lints that hold an invariant; an attribute relaxing any other lint
/// is style and not inventoried.
const INVARIANT_LINTS: [&str; 7] = [
    "unsafe_code",
    "clippy::disallowed_methods",
    "clippy::disallowed_types",
    "clippy::unwrap_used",
    "clippy::expect_used",
    "clippy::panic",
    "clippy::float_cmp",
];

/// Every exception in the workspace, one row per lint per attribute, sorted.
const EXCEPTIONS: [(&str, &str); 12] = [
    // Exact tie-breaks of the scipy port.
    ("crates/assign/src/sap.rs", "clippy::float_cmp"),
    ("crates/assign/src/sparse.rs", "clippy::float_cmp"),
    // The two phase-attribution timers (observability, never replayed state).
    ("crates/core/src/session.rs", "clippy::disallowed_methods"),
    ("crates/core/src/session.rs", "clippy::disallowed_methods"),
    // `mod simd`: CPU intrinsics have no safe form.
    ("crates/embed/src/kernel.rs", "unsafe_code"),
    // The epsilon module's zero-spread test.
    ("crates/embed/src/vector.rs", "clippy::float_cmp"),
    // The executor: the one crate allowed to touch `std::thread`.
    ("crates/runtime/src/lib.rs", "clippy::disallowed_methods"),
    ("crates/runtime/src/lib.rs", "clippy::disallowed_types"),
    // A proven-unreachable panic and a deliberately caught one.
    ("crates/serve/src/server.rs", "clippy::expect_used"),
    ("crates/serve/src/shard.rs", "clippy::panic"),
    // The two counting `#[global_allocator]`s.
    ("tests/embed_alloc.rs", "unsafe_code"),
    ("tests/planner_alloc.rs", "unsafe_code"),
];

fn rust_sources(root: &Path) -> Vec<PathBuf> {
    let mut stack: Vec<PathBuf> = SCANNED.iter().map(|dir| root.join(dir)).collect();
    let mut sources = Vec::new();
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).unwrap_or_else(|err| panic!("unreadable directory {dir:?}: {err}"));
        for entry in entries {
            let path =
                entry.unwrap_or_else(|err| panic!("unreadable entry in {dir:?}: {err}")).path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|ext| ext == "rs") {
                sources.push(path);
            }
        }
    }
    sources
}

/// The invariant lints named by the `allow(..)` / `expect(..)` lists in
/// `source`.  `reason = ".."` must come last in a lint attribute, so the
/// lint names are whatever precedes the first quote or closing parenthesis;
/// `.expect(` method calls are not attributes.
fn relaxed_lints(source: &str) -> Vec<&'static str> {
    let mut found = Vec::new();
    for opener in ["allow(", "expect("] {
        for (at, _) in source.match_indices(opener) {
            let is_word_tail = source[..at]
                .chars()
                .next_back()
                .is_some_and(|c| c == '.' || c == '_' || c.is_alphanumeric());
            if is_word_tail {
                continue;
            }
            let list = &source[at + opener.len()..];
            let list = &list[..list.find(['"', ')']).unwrap_or(list.len())];
            for name in list.split(',').map(str::trim) {
                found.extend(INVARIANT_LINTS.iter().filter(|lint| **lint == name));
            }
        }
    }
    found
}

#[test]
fn every_invariant_exception_is_on_the_list() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found: Vec<(String, &str)> = Vec::new();
    for path in rust_sources(root) {
        let source = fs::read_to_string(&path)
            .unwrap_or_else(|err| panic!("unreadable source {path:?}: {err}"));
        let relative = path.strip_prefix(root).expect("walked from root");
        let relative = relative.to_string_lossy().replace('\\', "/");
        found.extend(relaxed_lints(&source).into_iter().map(|lint| (relative.clone(), lint)));
    }
    found.sort();
    let found: Vec<(&str, &str)> =
        found.iter().map(|(path, lint)| (path.as_str(), *lint)).collect();
    assert_eq!(
        found, EXCEPTIONS,
        "the set of invariant exceptions changed — an exception needs a reason next to the code \
         and a row in this list (docs/LINTS.md)"
    );
}
