//! The documents name source files, environment knobs and benchmark
//! metrics; a rename or a deletion must not leave them behind.
//!
//! Every `crates/<crate>/(src|tests)/….rs` path named in DESIGN.md,
//! README.md, ROADMAP.md and `benchmark/README.md` — `{a,b}` brace lists
//! expanded — exists, and every `FX_…` variable named in DESIGN.md,
//! README.md and `benchmark/README.md` is a knob of
//! `fx_runtime::env::KNOBS`, and every metric named in backticks in
//! DESIGN.md, README.md and ROADMAP.md — a token under one of
//! `BENCHMARK.json`'s per-layer prefixes (`serve.`, `runtime.`, …) —
//! is a metric that file lists; and DESIGN.md and README.md name no
//! `localhost:` URL (the removed names are `tests/surface.rs`'s). (Not
//! EXPERIMENTS.md or CHANGES.md: a dated
//! log may name files and knobs since deleted; and ROADMAP.md names knobs
//! it plans, such as `FX_SCHED_SEED`.) A test or function cited as
//! `file.rs::name` in any of them but CHANGES.md is defined in that file,
//! EXPERIMENTS.md included: a cite says where a claim is checked now. The pattern is
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
        out.extend(expand_braces(spelled));
    }
    out
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs`: one brace list expanded, anything
/// else as spelled.
fn expand_braces(spelled: &str) -> Vec<String> {
    match (spelled.find('{'), spelled.find('}')) {
        (Some(open), Some(close)) if open < close => spelled[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{alt}{}", &spelled[..open], &spelled[close + 1..]))
            .collect(),
        _ => vec![spelled.to_string()],
    }
}

/// The `FX_…` variable names spelled in `text`. A bare prefix (`FX_`,
/// `FX_*`, `FX_SERVE_*`) names no variable and is skipped.
fn named_knobs(text: &str) -> Vec<&str> {
    let word = |c: char| c.is_ascii_alphanumeric() || c == '_';
    let mut out = Vec::new();
    for (at, _) in text.match_indices("FX_") {
        let rest = &text[at..];
        let end = rest.find(|c: char| !(c.is_ascii_uppercase() || c == '_')).unwrap_or(rest.len());
        let inside_a_word = text[..at].chars().next_back().is_some_and(word);
        if !inside_a_word && end > 3 && !rest[end..].starts_with('*') {
            out.push(&rest[..end]);
        }
    }
    out
}

#[test]
fn every_knob_a_document_names_is_in_the_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut checked = 0;
    let mut unknown = Vec::new();
    for doc in ["DESIGN.md", "README.md", "benchmark/README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for name in named_knobs(&text) {
            checked += 1;
            if !fx::runtime::env::KNOBS.iter().any(|k| k.name == name) {
                unknown.push(format!("{doc} names {name}"));
            }
        }
    }
    assert!(checked >= 20, "the scan found only {checked} names: is it still reading the documents?");
    unknown.sort();
    unknown.dedup();
    assert!(unknown.is_empty(), "documents name knobs `env::KNOBS` lacks:\n  {}", unknown.join("\n  "));
}

#[test]
fn the_knob_scan_skips_bare_prefixes() {
    let text = "every `FX_*` read; FX_WORKERS=two, `FX_DATAFLOW={off,on}`, the FX_SERVE_* rows, PFX_NOT and `FX_`.";
    assert_eq!(named_knobs(text), ["FX_WORKERS", "FX_DATAFLOW"]);
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

/// The library serves nothing over a socket: its telemetry is read in
/// process (`Telemetry::render_openmetrics`, `exemplar_trace`,
/// `flight_dump`), so a user-facing document must not send readers to a
/// `localhost:` URL.
#[test]
fn no_document_points_at_a_local_server() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut found = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (n, line) in text.lines().enumerate().filter(|(_, l)| l.contains("localhost:")) {
            found.push(format!("{doc}:{}: {line}", n + 1));
        }
    }
    assert!(found.is_empty(), "documents name a local server the library does not run:\n  {}", found.join("\n  "));
}

#[test]
fn the_scan_expands_brace_lists_and_stops_at_the_extension() {
    let text = "see `crates/runtime/src/{ctx,event}.rs`, crates/serve/tests/serve.rs. And crates/bench is a crate.";
    assert_eq!(
        named_paths(text),
        ["crates/runtime/src/ctx.rs", "crates/runtime/src/event.rs", "crates/serve/tests/serve.rs"]
    );
}

/// The `file.rs::name` cites in `text`, as (the file as spelled — a path
/// or its tail — and the item's name, its last `::` segment). A name cut
/// short with `…` keeps the `…`.
fn named_items(text: &str) -> Vec<(&str, &str)> {
    let path = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '/' | '.');
    let mut out = Vec::new();
    for (at, _) in text.match_indices(".rs::") {
        let start = text[..at].rfind(|c: char| !path(c)).map_or(0, |i| i + text[i..].chars().next().unwrap().len_utf8());
        let rest = &text[at + 5..];
        let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | ':' | '…'))).unwrap_or(rest.len());
        let name = rest[..end].trim_end_matches(':').rsplit("::").next().unwrap_or("");
        if !name.is_empty() {
            out.push((&text[start..at + 3], name));
        }
    }
    out
}

/// Every `.rs` file of the repository's own code (not `target/`, not
/// `vendor/`), relative to `root`.
fn source_files(root: &Path) -> Vec<String> {
    let mut out = Vec::new();
    let mut dirs: Vec<std::path::PathBuf> =
        ["crates", "src", "tests", "examples", "benchmark/src", "benchmark/tests"].iter().map(|d| root.join(d)).collect();
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path.strip_prefix(root).unwrap().to_string_lossy().into_owned());
            }
        }
    }
    out
}

/// `source` defines an item called `name` (`…` at its end: any name it
/// begins).
fn defines(source: &str, name: &str) -> bool {
    let (name, cut) = name.strip_suffix('…').map_or((name, false), |n| (n, true));
    ["fn", "struct", "enum", "mod", "const", "static", "trait", "type", "macro_rules!"].iter().any(|kw| {
        source.match_indices(&format!("{kw} {name}")).any(|(at, spelled)| {
            let before = source[..at].chars().next_back().is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
            let after = source[at + spelled.len()..].chars().next().is_none_or(|c| !(c.is_ascii_alphanumeric() || c == '_'));
            before && (cut || after)
        })
    })
}

/// A test or function a document cites by `file.rs::name` exists in that
/// file: a rename must take its cites along. A file spelled by its tail
/// (`serve.rs::…`, `tests/telemetry.rs::…`) may be any file it ends.
#[test]
fn every_item_a_document_cites_is_in_its_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = source_files(root);
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in ["DESIGN.md", "README.md", "ROADMAP.md", "EXPERIMENTS.md", "benchmark/README.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (file, name) in named_items(&text) {
            checked += 1;
            let found = files.iter().filter(|f| *f == file || f.ends_with(&format!("/{file}"))).any(|f| {
                let source = std::fs::read_to_string(root.join(f)).unwrap_or_else(|e| panic!("{f}: {e}"));
                defines(&source, name)
            });
            if !found {
                missing.push(format!("{doc} cites {file}::{name}"));
            }
        }
    }
    assert!(checked >= 20, "the scan found only {checked} cites: is it still reading the documents?");
    assert!(missing.is_empty(), "documents cite items their files do not define:\n  {}", missing.join("\n  "));
}

#[test]
fn the_cite_scan_reads_paths_tails_and_cut_names() {
    let text = "see `crates/serve/src/report.rs::assemble`, (serve.rs::served_outputs_are_bit_identical_…) and \
                `src/lib.rs::tests::prelude_covers_the_basics`; not `serve.rs` alone.";
    assert_eq!(
        named_items(text),
        [
            ("crates/serve/src/report.rs", "assemble"),
            ("serve.rs", "served_outputs_are_bit_identical_…"),
            ("src/lib.rs", "prelude_covers_the_basics")
        ]
    );
    assert!(defines("pub fn served_outputs_are_bit_identical_under_load() {}", "served_outputs_are_bit_identical_…"));
    assert!(!defines("fn assembled() {}", "assemble") && !defines("fn reassemble() {}", "assemble"));
}

/// The per-layer prefixes of `BENCHMARK.json`'s metric names.
const METRIC_LAYERS: [&str; 9] = ["runtime", "core", "darray", "kernels", "mapping", "apps", "serve", "process", "trace"];

/// The metric names spelled in backticks in `text`: a token of metric
/// characters whose first dot-component is a per-layer prefix, brace
/// lists expanded (and allowed to wrap after a comma). File names
/// (`serve.rs`), method calls and wildcards (`serve.*_ms.dp`) are not
/// metric tokens.
fn named_metrics(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for token in text.split('`').skip(1).step_by(2) {
        let token: String = token.split(',').map(str::trim).collect::<Vec<_>>().join(",");
        let metric_chars = token.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '_' | '.' | '{' | '}' | ','));
        let layered = token.split_once('.').is_some_and(|(layer, rest)| METRIC_LAYERS.contains(&layer) && !rest.is_empty());
        let file = [".rs", ".md", ".json", ".txt", ".toml", ".yml"].iter().any(|ext| token.ends_with(ext));
        if !metric_chars || !layered || file {
            continue;
        }
        out.extend(expand_braces(&token));
    }
    out
}

#[test]
fn every_metric_a_document_names_is_in_the_benchmark() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let listed: Vec<&str> = include_str!("../BENCHMARK.json")
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| rest.split('"').next().expect("a closing quote"))
        .collect();
    for end_to_end in ["setup_s", "host_wall_s", "peak_rss_mib", "virt_makespan_s", "virt_op_p50_ms", "virt_op_p95_ms", "virt_goodput"] {
        assert!(listed.contains(&end_to_end), "BENCHMARK.json lists no {end_to_end}: is the scan still reading it?");
    }
    let mut checked = 0;
    let mut unknown = Vec::new();
    for doc in ["DESIGN.md", "README.md", "ROADMAP.md"] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for name in named_metrics(&text) {
            checked += 1;
            if !listed.contains(&name.as_str()) {
                unknown.push(format!("{doc} names {name}"));
            }
        }
    }
    assert!(checked >= 20, "the scan found only {checked} names: is it still reading the documents?");
    unknown.sort();
    unknown.dedup();
    assert!(unknown.is_empty(), "documents name metrics BENCHMARK.json lacks:\n  {}", unknown.join("\n  "));
}

#[test]
fn the_metric_scan_expands_brace_lists_and_skips_files_and_wildcards() {
    let text = "`serve.{p50,\n  p99}_ms.dp` and `serve.hist_p99_err_frac`; not `serve.rs`, `serve.*_p99_ms.dp`, \
                `trace.len()`, `machine.tracing`, serve.p50_ms.dp unquoted or `host_wall_s`.";
    assert_eq!(named_metrics(text), ["serve.p50_ms.dp", "serve.p99_ms.dp", "serve.hist_p99_err_frac"]);
}

/// A table cell or a printed column as a comparable token: no spaces, no
/// emphasis, no code quotes, no percent sign, no explicit plus, and an
/// ASCII minus.
fn cell(text: &str) -> String {
    let text = text.replace("**", "").replace(['`', ' ', '%'], "").replace('−', "-");
    text.strip_prefix('+').unwrap_or(&text).to_string()
}

/// The body rows of the first Markdown table in `text`, as cells (an
/// escaped `\|` stays inside its cell; `×` reads as `x`).
fn table_body(text: &str) -> Vec<Vec<String>> {
    let rows = text.lines().skip_while(|l| !l.starts_with('|')).take_while(|l| l.starts_with('|'));
    let cells = |l: &str| -> Vec<String> {
        let l = l.replace("\\|", "\u{1}").replace('×', "x");
        l.trim_matches('|').split('|').map(|c| cell(&c.replace('\u{1}', "|"))).collect()
    };
    rows.skip(2).map(cells).collect()
}

/// The rows of the first Markdown table in `text` whose first cell is a
/// number.
fn table_rows(text: &str) -> Vec<Vec<String>> {
    table_body(text).into_iter().filter(|r| r[0].parse::<usize>().is_ok()).collect()
}

/// The `## {title}` section of `doc`, up to the next `## ` heading.
fn section<'a>(doc: &'a str, title: &str) -> &'a str {
    let at = doc.find(&format!("## {title}")).unwrap_or_else(|| panic!("no section {title:?}"));
    let len = doc[at + 1..].find("\n## ").map_or(doc.len() - at, |n| n + 1);
    &doc[at..at + len]
}

/// `results/table1.txt` as printed: per program a measured row and a
/// paper row, each as its seven numeric columns (DP thr/s, DP lat s,
/// constraint, best thr/s, best lat s, thr x, lat x) plus, for the measured
/// row, the mapping.
fn printed_table1() -> Vec<(Vec<String>, String)> {
    include_str!("../results/table1.txt")
        .lines()
        .filter(|l| l.starts_with(' ') && !l.trim_start().starts_with("Program"))
        .map(|l| {
            let words: Vec<&str> = l.split_whitespace().collect();
            let skip = if words[0] == "(paper)" { 1 } else { 2 };
            let numbers = words[skip..skip + 7].iter().map(|w| w.to_string()).collect();
            (numbers, words[skip + 7..].join(" "))
        })
        .collect()
}

#[test]
fn the_table1_and_fig5_tables_are_the_committed_results() {
    // ROADMAP 8(i): every cell of EXPERIMENTS.md's Table 1 and Figure 5
    // tables as `results/table1.txt` and `results/fig5_mappings.txt` print
    // them. (The prose around them compares and derives, so it is not
    // held to the files.)
    let experiments = include_str!("../EXPERIMENTS.md");
    let printed = printed_table1();
    assert_eq!(printed.len(), 8, "results/table1.txt: a measured and a paper row per program");
    let doc = table_body(section(experiments, "Table 1 — "));
    assert_eq!(doc.len(), printed.len(), "EXPERIMENTS.md's Table 1 has a row per printed row");
    for (row, (numbers, mapping)) in doc.iter().zip(&printed) {
        // Table columns: DP thr, DP lat, best thr, best lat, thr ×, lat ×.
        let expect: Vec<String> = [0, 1, 3, 4, 5, 6].iter().map(|&i| cell(&numbers[i])).collect();
        assert_eq!(row[2..8], expect[..], "EXPERIMENTS.md's Table 1 row {row:?} drifted from results/table1.txt");
        assert_eq!(row[8], cell(mapping), "the mapping of {row:?}");
    }

    let fig5 = include_str!("../results/fig5_mappings.txt");
    let field = |name: &str| -> Vec<String> {
        fig5.lines()
            .filter_map(|l| l.trim_start().strip_prefix(name)?.trim_start().strip_prefix(':'))
            .map(|v| v.trim().to_string())
            .collect()
    };
    let rate = |v: &String| {
        let w: Vec<&str> = v.split_whitespace().collect();
        cell(&format!("{}/s @ {} s", w[0], w[3]))
    };
    let (mappings, predicted, measured) = (field("mapping"), field("predicted"), field("measured"));
    let doc = table_body(section(experiments, "Figure 5 — "));
    assert_eq!(doc.len(), 3, "EXPERIMENTS.md's Figure 5 table: one row a requirement");
    assert_eq!(mappings.len(), 3, "results/fig5_mappings.txt: one mapping a requirement");
    for (i, row) in doc.iter().enumerate() {
        let expect = [cell(&mappings[i]), rate(&predicted[i]), rate(&measured[i])];
        assert_eq!(row[1..], expect[..], "EXPERIMENTS.md's Figure 5 row {i} drifted from results/fig5_mappings.txt");
    }
}

#[test]
fn the_readme_quotes_table1_and_fig5_as_committed() {
    // Every `N.NN×` of a README paragraph naming `results/table1.txt` is a
    // thr × or lat × cell of it, measured or paper; every `N sets/s` of a
    // paragraph naming `results/fig5_mappings.txt` is a rate it prints.
    let readme = include_str!("../README.md");
    let ratios: Vec<String> = printed_table1().into_iter().flat_map(|(n, _)| [n[5].clone(), n[6].clone()]).collect();
    let fig5 = include_str!("../results/fig5_mappings.txt");
    let rates: Vec<&str> = fig5.split_whitespace().collect::<Vec<_>>().windows(2).filter(|w| w[1] == "sets/s").map(|w| w[0]).collect();
    let mut quoted = 0;
    for paragraph in readme.split("\n\n") {
        let words: Vec<&str> = paragraph.split_whitespace().map(|w| w.trim_end_matches([',', '.', ')', ';'])).collect();
        if paragraph.contains("results/table1.txt") {
            for ratio in words.iter().filter_map(|w| w.strip_suffix('×')) {
                assert!(ratios.iter().any(|r| r == ratio), "README quotes {ratio}× but results/table1.txt prints no such ratio");
                quoted += 1;
            }
        }
        if paragraph.contains("results/fig5_mappings.txt") {
            for pair in words.windows(2).filter(|w| w[1] == "sets/s") {
                assert!(rates.contains(&pair[0]), "README quotes {} sets/s but results/fig5_mappings.txt prints no such rate", pair[0]);
                quoted += 1;
            }
        }
    }
    assert!(quoted >= 10, "the README's headline paragraph quotes Table 1 and Figure 5 ({quoted} numbers found)");
}

#[test]
fn design_quotes_each_crates_non_test_lines() {
    // ROADMAP 8(ii): DESIGN §3's size table, recounted by its own rule —
    // a file's lines before its first line starting `#[cfg(test)]`,
    // summed over the crate's `src/*.rs`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = include_str!("../DESIGN.md");
    let inventory = section(design, "3. ");
    let at = inventory.find("| Crate | Non-test lines |").expect("DESIGN §3 has a size table");
    let rows = table_body(&inventory[at..]);
    let mut crates: Vec<String> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|e| e.expect("a crate directory").path())
        .filter(|p| p.join("Cargo.toml").exists())
        .map(|p| p.file_name().unwrap().to_string_lossy().into_owned())
        .collect();
    crates.sort();
    let count = |dir: &str| -> usize {
        let src = root.join("crates").join(dir).join("src");
        std::fs::read_dir(&src)
            .expect("a src/ directory")
            .map(|e| e.expect("a source file").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .map(|p| {
                let text = std::fs::read_to_string(&p).expect("readable source");
                text.lines().take_while(|l| !l.starts_with("#[cfg(test)]")).count()
            })
            .sum()
    };
    let mut listed: Vec<String> = Vec::new();
    for row in &rows {
        let dir = row[0].strip_prefix("fx-").unwrap_or_else(|| panic!("DESIGN §3 size row {row:?} names no fx- crate"));
        let quoted: usize = row[1].parse().expect("a line count");
        assert_eq!(quoted, count(dir), "DESIGN §3 quotes {quoted} non-test lines for {}", row[0]);
        listed.push(dir.to_string());
    }
    listed.sort();
    assert_eq!(listed, crates, "DESIGN §3's size table lists every crate once");
}

#[test]
fn the_fig6_table_is_the_committed_result() {
    // ROADMAP 8(i)'s first slice: every cell of EXPERIMENTS.md's Figure 6
    // table, and its sequential time and I/O share, as
    // `results/fig6_airshed.txt` prints them.
    let section = section(include_str!("../EXPERIMENTS.md"), "Figure 6");
    let printed = include_str!("../results/fig6_airshed.txt");
    let seq = printed.lines().find_map(|l| l.strip_prefix("sequential time: ")).expect("a sequential time");
    let (secs, share) = (seq.split(' ').next().unwrap(), seq.split("I/O ").nth(1).unwrap().split('%').next().unwrap());
    for quoted in [format!("{secs} s"), format!("{share} %")] {
        assert!(section.contains(&quoted), "the Figure 6 section does not quote {quoted:?}");
    }
    let results: Vec<Vec<String>> = printed
        .lines()
        .skip_while(|l| !l.trim_start().starts_with("procs"))
        .skip(1)
        .take_while(|l| !l.is_empty())
        .map(|l| {
            let mut cols: Vec<String> = l.split_whitespace().take(7).map(cell).collect();
            cols.push(cell(l.split_whitespace().skip(7).collect::<Vec<_>>().join(" ").as_str()));
            cols
        })
        .collect();
    let doc = table_rows(section);
    assert_eq!(results.len(), 5, "results/fig6_airshed.txt: one row a machine size");
    assert_eq!(doc, results, "EXPERIMENTS.md's Figure 6 table drifted from results/fig6_airshed.txt");
}

#[test]
fn the_ablation_quotes_are_the_committed_results() {
    // Each number EXPERIMENTS.md's ablation section quotes is the figure
    // `results/ablations.txt` prints, rounded to the digits quoted. A quote is the word after a phrase of the section; a printed
    // figure the word after `key` on the line naming the leg.
    let text = section(include_str!("../EXPERIMENTS.md"), "§4 implementation claims — ablations");
    let prose = text.split_whitespace().collect::<Vec<_>>().join(" ");
    let printed = include_str!("../results/ablations.txt");
    let word_after = |text: &str, key: &str| -> String {
        let at = text.find(key).unwrap_or_else(|| panic!("no {key:?} in {text:?}")) + key.len();
        let word = text[at..].split_whitespace().next().unwrap_or("");
        word.trim_matches(|c: char| !c.is_ascii_digit()).to_string()
    };
    let leg = |name: &str, key: &str| -> f64 {
        let line = printed.lines().find(|l| l.contains(name)).unwrap_or_else(|| panic!("no {name:?} leg"));
        word_after(line, key).parse().expect("a printed number")
    };
    for (phrase, value) in [
        ("streams at", leg("minimal subsets (paper)", "throughput")),
        ("collapses it to", leg("whole-group sync (ablated)", "throughput")),
        ("induction variables vs", leg("owner-broadcast (ablated)", "total time")),
        ("assignment moves", leg("exact sets (paper)", ")")),
        ("same data moves", leg("naive all-to-all (ablated)", ")")),
    ] {
        let quoted = word_after(&prose, phrase);
        let digits = quoted.split('.').nth(1).map_or(0, str::len);
        assert_eq!(quoted, format!("{value:.digits$}"), "EXPERIMENTS.md's ablations quote {quoted} after {phrase:?}");
    }
}

#[test]
fn a_table_row_keeps_escaped_pipes_and_reads_signs_plainly() {
    let text = "prose\n| procs | gain | mapping |\n|---|---|---|\n| 64 | **+28.2 %** | `1x [a:1 \\| b:2]` |\n\nmore";
    assert_eq!(table_rows(text), [["64", "28.2", "1x[a:1|b:2]"]]);
    assert_eq!(cell("−92.7%"), "-92.7");
}
