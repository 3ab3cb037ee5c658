//! The documents name source files; a rename must not leave them behind.
//!
//! Every `crates/<crate>/(src|tests)/….rs` path named in DESIGN.md,
//! README.md, ROADMAP.md and `benchmark/README.md` — `{a,b}` brace lists
//! expanded — exists. (Not EXPERIMENTS.md or CHANGES.md: a dated log may
//! name files since deleted.) The pattern is
//! `env::tests::readme_table_mirrors_the_knobs`: prose that a test reads
//! cannot drift from the code it describes.

use std::path::Path;

/// The `crates/…rs` paths spelled in `text`, brace lists expanded.
fn named_paths(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (at, _) in text.match_indices("crates/") {
        let spelled: String = text[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '/' | '.' | '{' | '}' | ','))
            .collect();
        // A path, not a sentence that goes on: cut at the first `.rs`.
        let Some(end) = spelled.find(".rs") else { continue };
        let spelled = &spelled[..end + 3];
        let mut parts = spelled.splitn(4, '/');
        let (Some(_), Some(_crate), Some(dir), Some(_)) = (parts.next(), parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if dir != "src" && dir != "tests" {
            continue;
        }
        match (spelled.find('{'), spelled.find('}')) {
            (Some(open), Some(close)) if open < close => {
                for alt in spelled[open + 1..close].split(',') {
                    out.push(format!("{}{alt}{}", &spelled[..open], &spelled[close + 1..]));
                }
            }
            _ => out.push(spelled.to_string()),
        }
    }
    out
}

#[test]
fn every_source_path_a_document_names_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "ROADMAP.md", "benchmark/README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for path in named_paths(&text) {
            checked += 1;
            if !root.join(&path).is_file() {
                missing.push(format!("{doc} names {path}"));
            }
        }
    }
    assert!(checked >= 10, "the scan found only {checked} paths: is it still reading the documents?");
    assert!(missing.is_empty(), "documents name files that do not exist:\n  {}", missing.join("\n  "));
}

#[test]
fn the_scan_expands_brace_lists_and_stops_at_the_extension() {
    let text = "see `crates/runtime/src/{ctx,event}.rs`, crates/serve/tests/serve.rs. And crates/bench is a crate.";
    assert_eq!(
        named_paths(text),
        ["crates/runtime/src/ctx.rs", "crates/runtime/src/event.rs", "crates/serve/tests/serve.rs"]
    );
}
