//! The surface rules. Each "one X" of the design (one executor, one event
//! record, one mapping search, one serve ledger, …) was won by deleting a
//! second path, and each test here fails when a source brings that path
//! back: a removed name spelled again, or a second call site. One test per
//! rule, run by `cargo test -q --test surface -- <rule>`, with its names
//! and allow-lists as data beside it and a reason for each allowed line.
//!
//! The scans are plain `str` matching over the files under `crates/`,
//! `src/`, `tests/` and `examples/`, every file, not only `.rs`, and this
//! file excepted, since it spells every name it bans. A file's non-test
//! part is its lines before the first line that starts with `#[cfg(test)]`,
//! the rule DESIGN §3 counts lines by.

use std::fs;
use std::path::{Path, PathBuf};

/// This file, which every walk skips.
const SELF: &str = "tests/surface.rs";

/// The roots of the repository's own sources (not `target/`, `vendor/` or
/// `benchmark/`).
const TREE: [&str; 4] = ["crates", "src", "tests", "examples"];

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every file under `roots` (a root may be a file), as (its path from the
/// repository root, its text), sorted by path. [`SELF`] is skipped.
fn walk(roots: &[&str]) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = roots.iter().map(|r| root().join(r)).collect();
    while let Some(path) = paths.pop() {
        let name = path.strip_prefix(root()).expect("under the root").to_string_lossy().into_owned();
        if path.is_dir() {
            let entries = fs::read_dir(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            paths.extend(entries.map(|e| e.expect("a directory entry").path()));
        } else if name != SELF {
            let bytes = fs::read(&path).unwrap_or_else(|e| panic!("{name}: {e}"));
            out.push((name, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
    out.sort();
    out
}

/// Every file of each crate's `src/`, `src/bin/` included.
fn crate_sources() -> Vec<(String, String)> {
    walk(&["crates"]).into_iter().filter(|(path, _)| path.split('/').nth(2) == Some("src")).collect()
}

/// `text` up to its first line that starts with `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    let mut end = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            break;
        }
        end += line.len();
    }
    &text[..end]
}

/// `path:line: text` for each line of `files` that spells one of `names`,
/// except the lines `allowed` names by (path, the line's start; `""` allows
/// every line of the file).
fn spelled(files: &[(String, String)], names: &[&str], allowed: &[(&str, &str)]) -> Vec<String> {
    let mut out = Vec::new();
    for (path, text) in files {
        for (n, line) in text.lines().enumerate() {
            let banned = names.iter().any(|name| line.contains(name));
            if banned && !allowed.iter().any(|(file, start)| file == path && line.starts_with(start)) {
                out.push(format!("{path}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    out
}

/// The number of lines of `text` that spell `needle`.
fn lines_with(text: &str, needle: &str) -> usize {
    text.lines().filter(|l| l.contains(needle)).count()
}

/// The lines of each closure body opened on a line that spells `opener`:
/// the lines after it that are indented past it, up to the first that is
/// not.
fn closure_bodies<'a>(text: &'a str, opener: &str) -> Vec<&'a str> {
    let indent = |l: &str| l.len() - l.trim_start_matches(' ').len();
    let lines: Vec<&str> = text.lines().collect();
    let mut out = Vec::new();
    for (i, open) in lines.iter().enumerate().filter(|(_, l)| l.contains(opener)) {
        out.extend(lines[i + 1..].iter().take_while(|l| indent(l) > indent(open)));
    }
    out
}

#[track_caller]
fn assert_none(found: Vec<String>, rule: &str) {
    assert!(found.is_empty(), "{rule}:\n  {}", found.join("\n  "));
}

/// One wait/wake protocol: the mailbox registers and parks through
/// `runtime/src/parker.rs`. A condvar or a timed wait back in the mailbox
/// is a second protocol.
#[test]
fn mailbox_has_one_wake_protocol() {
    let mailbox = walk(&["crates/runtime/src/mailbox.rs"]);
    assert_none(spelled(&mailbox, &["Condvar", "wait_for", "notify_"], &[]), "a second wakeup protocol in the mailbox");
}

/// Promotion lives in fx-core: each promotable loop takes its own board
/// beside the protocol that reads it. A board, a peer view or an epoch in
/// the runtime is the machine-wide board coming back.
const PROMOTION_GONE: &[&str] = &["HeartbeatBoard", "PeerView", "enter_epoch"];

#[test]
fn promotion_lives_in_fx_core() {
    assert_none(spelled(&walk(&["crates/runtime/src"]), PROMOTION_GONE, &[]), "promotion state in the runtime");
}

/// One executor: every machine runs on the coroutine pool, and the worker
/// count is its only schedule knob. A thread-per-processor executor, its
/// park arm, its per-processor context enum or its knob is the second
/// executor coming back.
const EXECUTOR_GONE: &[&str] = &["Threaded", "run_threaded", "park_thread", "ExecCtx", "FX_EXECUTOR"];

/// `benchmark/tests/schema.rs` spells one worker per processor as
/// `Executor::Threaded`, a hidden const, until ROADMAP item 5 moves it.
const EXECUTOR_ALLOWED: &[(&str, &str)] = &[("crates/runtime/src/run.rs", "    pub const Threaded: Executor = ")];

#[test]
fn one_executor() {
    assert_none(spelled(&walk(&TREE), EXECUTOR_GONE, EXECUTOR_ALLOWED), "a second executor");
}

/// One array type, one distribution enum: `DArray1` and `Dist1` are
/// aliases, and replication is `Dist::Star` on a vector's one dimension.
const ARRAY_GONE: &[&str] = &["struct DArray1", "enum Dist1"];

#[test]
fn one_array_type() {
    let darray = walk(&["crates/darray/src"]);
    assert_none(spelled(&darray, ARRAY_GONE, &[]), "a second array type or distribution enum");
    let defined: usize = darray.iter().map(|(_, text)| text.lines().filter(|l| l.starts_with("pub struct DArray<")).count()).sum();
    assert_eq!(defined, 1, "fx-darray defines `pub struct DArray<` once");
}

/// One bench surface: fx-bench is the seven paper bins whose stdout is
/// `results/*.txt`. A host-time or serve number is a `benchmark/` metric
/// and a claim is a test; an eighth bin or a `BENCH_*.json` is the second
/// surface coming back.
#[test]
fn seven_bench_bins() {
    let bins = fs::read_dir(root().join("crates/bench/src/bin")).expect("crates/bench/src/bin").count();
    assert_eq!(bins, 7, "crates/bench/src/bin holds the seven paper bins");
    for dir in [".", "results"] {
        let stray: Vec<String> = fs::read_dir(root().join(dir))
            .expect("a directory")
            .map(|e| e.expect("a directory entry").file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("BENCH_") && (dir == "results" || name.ends_with(".json")))
            .collect();
        assert!(stray.is_empty(), "{dir}/ holds bench records: {stray:?}");
    }
}

/// One event record, one producer: marks, duration events and the flight
/// tail are the one `Event` of `runtime/src/event.rs`, made by the one
/// `ProcCtx::emit`. A per-view record type or a second emit is the
/// parallel bookkeeping coming back.
const EVENT_GONE: &[&str] =
    &["struct EventLog", "struct SpanLog", "struct RawEvent", "struct FlightEvent", "enum FlightKind", "fn span_ref"];

#[test]
fn one_event_record_and_emit() {
    assert_none(spelled(&crate_sources(), EVENT_GONE, &[]), "a second event record");
    assert_eq!(lines_with(&read("crates/runtime/src/ctx.rs"), "fn emit"), 1, "ctx.rs has one `fn emit`");
}

/// A Table 1 stream program, or Airshed, written twice: a dp or pipeline
/// twin, a mapping-named twin, or a `_requests` twin for serving.
const STREAM_GONE: &[&str] = &[
    "fn radar_pipeline",
    "fn radar_replicated",
    "fn stereo_pipeline",
    "fn stereo_replicated",
    "fn fft_hist_segmented",
    "fn fft_hist_pipeline_mode",
];

/// (file, call, non-test lines that spell it): each stage kernel has one
/// call site in its program.
const WRITTEN_ONCE: [(&str, &str, usize); 8] = [
    // `fft_hist_program` is the only caller of the FFT-Hist stage kernels:
    // a definition and that call each.
    ("crates/apps/src/ffthist.rs", "cffts_local(", 2),
    ("crates/apps/src/ffthist.rs", "rffts_local(", 2),
    ("crates/apps/src/ffthist.rs", "hist_local(", 2),
    // Radar's Doppler FFT: the oracle and `radar_program`.
    ("crates/apps/src/radar.rs", "fft_any_in_place(", 2),
    // Stereo's window sum and disparity shift: `stereo_program`'s calls
    // (and the shift's definition).
    ("crates/apps/src/stereo.rs", "box_sum_rows_with_halo(", 1),
    ("crates/apps/src/stereo.rs", "shift_cols(", 2),
    // Airshed's hour (a definition and one call) and its two hops, in
    // `airshed_hours`.
    ("crates/apps/src/airshed.rs", "compute_hour(", 2),
    ("crates/apps/src/airshed.rs", "assign3(", 2),
];

#[test]
fn stream_programs_are_written_once() {
    for (file, call, want) in WRITTEN_ONCE {
        assert_eq!(lines_with(non_test(&read(file)), call), want, "{file}: non-test lines spelling `{call}`");
    }
    let requests_twin = read("crates/apps/src/ffthist.rs")
        .lines()
        .any(|l| l.split_once("fn fft_hist_").is_some_and(|(_, rest)| rest.contains("_requests")));
    assert!(!requests_twin, "ffthist.rs defines a `fn fft_hist_…_requests` twin: serving is two hooks on the program");
    let apps = walk(&["crates/apps/src"]);
    assert_none(spelled(&apps, STREAM_GONE, &[]), "a second stream program");
    // Stage names are formatted by the one partition prologue
    // (`util::stage_chain`), not typed per program.
    assert_none(spelled(&apps, &["\"G1\"", "\"G2\"", "\"G3\""], &[]), "a stage name typed in a program");
}

/// One mapping search: every Table 1 row and Fig. 6's best column profile
/// their program with fx-bench's one chain-model builder and search
/// fx-mapping, and array statements are planned. Inside fx-mapping,
/// `tradeoff_frontier` is the one allocation search, exact at any chain
/// depth. A private replication probe, a second profiler, a closure
/// statement, a private Airshed model or collective, a boolean mapping,
/// a hill-climb, a throughput-ceiling search or a capped composition
/// enumeration is a second path.
const SEARCH_GONE: &[&str] = &[
    "pick_replication",
    "replicated_row",
    "module_sizes",
    "fft_hist_chain_model",
    "copy_remap",
    "enumerate_copy",
    "airshed_best",
    "predict_hour_times",
    "scatter_from_zero",
    "gather_to_zero",
    "task_parallel: bool",
    "fn allocate_procs",
    "max_throughput_mapping",
    "num_compositions",
    "fn allocations",
    "fn compose",
    "fn shapes",
];

#[test]
fn one_mapping_search() {
    assert_none(spelled(&walk(&["crates"]), SEARCH_GONE, &[]), "a second mapping search");
}

/// One mapping value from the search to the server: a `Placement` dealt by
/// the one `run_mapped`, one `Stream::run` / `Stream::serve`, one
/// `StreamServable`. A second mapping enum, a runner translating the
/// search's mapping, or a per-program request function or `Servable` is
/// the second path coming back.
const VALUE_GONE: &[&str] = &["enum StreamMapping", "fn run_mapping", "fn fft_hist_requests", "fn airshed_requests", "AirshedServable"];

/// `FftHistMapping` and `FftHistServable` are `benchmark/`'s spellings of
/// `Placement` and `StreamServable`, kept until ROADMAP item 5 moves it:
/// they appear only where they are defined and re-exported.
const VALUE_ALLOWED: &[(&str, &str)] =
    &[("crates/apps/src/ffthist.rs", ""), ("crates/serve/src/servable.rs", ""), ("crates/serve/src/lib.rs", "")];

#[test]
fn one_mapping_value() {
    assert_none(spelled(&walk(&["crates"]), VALUE_GONE, &[]), "a second mapping value");
    let shims = spelled(&walk(&["crates", "tests", "examples"]), &["FftHistMapping", "FftHistServable"], VALUE_ALLOWED);
    assert_none(shims, "benchmark/'s shim spelled outside its definition");
}

/// Replicated state is built once on the host: Barnes-Hut's root tree and
/// every partial tree go through `Cx::replicated`, an all-gather is read in
/// place from the one buffer the group shares, `to_global` returns the
/// group's one `Global<T>`, and `bh_forces` assembles its force array
/// inside `replicated(`. A member building its own tree, flattening a
/// gather into its own copy or assembling its own result `Vec` is the
/// per-member path coming back.
#[test]
fn replicated_state_is_built_once() {
    let bh = read("crates/apps/src/barnes_hut.rs");
    let bh = non_test(&bh);
    let builds: Vec<&str> = bh.lines().filter(|l| l.contains("BhTree::build(") || l.contains(".split_range(")).collect();
    assert_eq!(builds.len(), 3, "Barnes-Hut builds its root tree and two partial trees: {builds:#?}");
    assert!(builds.iter().all(|l| l.contains("replicated(")), "a tree built outside `replicated(`: {builds:#?}");

    let flattened: Vec<String> = crate_sources()
        .into_iter()
        .filter(|(_, text)| {
            text.match_indices("allgather_vecs(").any(|(at, _)| {
                let statement: String = text[at..].split(';').next().unwrap_or("").split_whitespace().collect();
                statement.contains(").into_iter().flatten()")
            })
        })
        .map(|(path, _)| path)
        .collect();
    assert!(flattened.is_empty(), "an all-gather flattened into a copy of its own: {flattened:?}");

    let array = read("crates/darray/src/array.rs");
    let vec_to_global = non_test(&array).match_indices("fn to_global").any(|(at, name)| {
        let rest = &array[at + name.len()..];
        let signature: String = rest.split('{').next().unwrap_or("").split_whitespace().collect();
        !rest.starts_with(|c: char| c.is_alphanumeric() || c == '_') && signature.contains("->Vec<")
    });
    assert!(!vec_to_global, "`to_global` returns a `Vec` of its own, not the group's `Global<T>`");

    let assembly = "forces[tree.order[i]] = ";
    assert_eq!(lines_with(bh, assembly), 1, "Barnes-Hut assembles its force array once");
    let inside = closure_bodies(bh, "replicated(|| {").iter().filter(|l| l.contains(assembly)).count();
    assert_eq!(inside, 1, "Barnes-Hut's force array is assembled inside `replicated(|| {{`");
}

/// fx-serve is one procedure with one ledger: no real-time frontend loop
/// and no idle declaration for it, no serving atomics in the registry, and
/// tenant accounting is a fold over what the run returns.
const LEDGER_GONE: &[&str] = &["fn serve_real", "fn set_idle", "fn record_shared", "struct TenantStats", "fn begin_tenants"];

#[test]
fn serve_has_one_ledger() {
    assert_none(spelled(&crate_sources(), LEDGER_GONE, &[]), "a second serve procedure or ledger");
    // Nothing in the serve crate or the registry does an atomic
    // read-modify-write.
    let telemetry = read("crates/runtime/src/telemetry.rs");
    assert_eq!(lines_with(non_test(&telemetry), "fetch_add"), 0, "the registry's non-test part does a `fetch_add`");
    assert_none(spelled(&walk(&["crates/serve/src"]), &["fetch_add"], &[]), "an atomic read-modify-write in fx-serve");
}

/// No thread but the pool's workers: fx-runtime's non-test code starts
/// threads in one place, the worker scope in `runtime/src/pool.rs`. A
/// deadlock is a state the workers see at once and a stall report is its
/// diagnosis, so a tick, a timer over park stamps or a stall sampler is
/// a second way to find one. Its names stay gone: the coarse clock and
/// its tick, the park stamps and their expiry, the receive timeout and
/// its knob, message ages and the stall window; and, from before, a
/// private wait edge or in-flight gauge in the registry, or a stall or
/// flight knob.
const THREAD_GONE: &[&str] = &[
    "fx-stall-detector",
    "wait_src",
    "NO_WAIT",
    "chunk_flight",
    "stall_window",
    "stall_sample_every",
    "flight_capacity",
    "CoarseClock",
    "spawn_ticker",
    "TickGuard",
    "tick_period",
    "expire_parked",
    "blocked_at_ns",
    "take_timed_out",
    "clear_timeout",
    "recv_timeout",
    "FX_RECV_TIMEOUT_MS",
    "StallWatch",
    "stalled_for",
    "enqueued: ",
    "oldest_wait",
    "oldest_queued",
    "watchdog_deadline",
    "watchdog_expired",
];

#[test]
fn no_thread_but_the_pool_workers() {
    let mut sites = Vec::new();
    for (path, text) in walk(&["crates/runtime/src"]) {
        for line in non_test(&text).lines().filter(|l| l.contains("spawn(") || l.contains("thread::Builder")) {
            sites.push(format!("{path}: {}", line.trim()));
        }
    }
    assert!(
        sites.len() == 1 && sites[0].starts_with("crates/runtime/src/pool.rs: scope.spawn("),
        "fx-runtime starts threads only in the pool's worker scope: {sites:#?}"
    );
    assert_none(spelled(&walk(&["crates", "tests", "examples"]), THREAD_GONE, &[]), "a second way to find a deadlock");
}

/// One clock on the message path: an observed processor reads the host
/// clock once per cut of its lap (`runtime/src/counters.rs` states the
/// rule). A stopwatch type or a per-step pack timer is a second clock, and
/// so is any read in ctx.rs besides the lap's `cut`: `now()` is the
/// virtual clock, on every machine.
const CLOCK_GONE: &[&str] = &["HostTimer", "host_timer", "note_pack_ns", "add_pack_ns"];

#[test]
fn one_clock_on_the_message_path() {
    assert_none(spelled(&walk(&["crates", "tests", "examples"]), CLOCK_GONE, &[]), "a second clock");
    let ctx = read("crates/runtime/src/ctx.rs");
    let sites: Vec<&str> = non_test(&ctx).lines().filter(|l| l.contains("host_now(") || l.contains("ns_since(")).collect();
    assert!(
        sites.len() == 1 && sites[0].contains("let now = ns_since(start);"),
        "ctx.rs reads the host clock at the lap's `cut` only: {sites:#?}"
    );
}

/// A processor owns what it observes until it finishes: its counter row,
/// its histograms and its flight ring are plain fields of its context,
/// handed to the report and the registry once, as it returns or unwinds,
/// and the run hands over its mailboxes' end state. A shared counter
/// block, a registry shard, a seqlock ring or a registry that reaches back
/// into a live world is the read-while-running design coming back.
const OWNER_GONE: &[&str] = &["FlightRing", "ProcShard", "struct Counters", "pub struct Histogram {", "fn shard"];

#[test]
fn a_processor_owns_what_it_observes() {
    assert_none(spelled(&walk(&["crates", "tests", "examples"]), OWNER_GONE, &[]), "a live per-processor store");
    for path in ["crates/runtime/src/counters.rs", "crates/runtime/src/telemetry.rs"] {
        let text = read(path);
        for name in ["AtomicU64", "Weak<"] {
            assert_eq!(lines_with(non_test(&text), name), 0, "{path}'s non-test part spells `{name}`");
        }
    }
    assert!(!root().join("crates/runtime/src/flight.rs").exists(), "crates/runtime/src/flight.rs is back");
}

/// The FFT's twiddles come from its plan's table, each straight from
/// `cis`: a running `w *= wlen` product is the recurrence it replaced
/// (kept in `crates/kernels/tests/fft_plan.rs` as the ratio gate's
/// reference), and it drifts from the table's bits.
#[test]
fn fft_has_no_twiddle_recurrence() {
    assert_none(spelled(&walk(&["crates/kernels/src/fft.rs"]), &["w *= wlen"], &[]), "a twiddle recurrence in the FFT");
}

/// Names removed with no rule of their own: replication is `Dist::Star`,
/// not a `Dist1::Replicated` variant, and a designated I/O processor is a
/// one-owner array filled by `assign*`, not root I/O.
const REMOVED: &[&str] = &["Dist1::Replicated", "gather_to_root", "scatter_from_root", "rootio"];

/// Every array statement, the structured remaps included, is a sync edge
/// its own receives order, so no write is opaque and no array tracks taint.
const TAINT_GONE: &[&str] = &["VersionVec", "IntervalVer", "WriteKind", "clear_taint", "record_write"];

/// Every machine runs on virtual time: there is no time mode, no
/// wall-clock machine and nothing to ask which clock a run is on.
const REAL_TIME_GONE: &[&str] = &["TimeMode", "Machine::real", "time_mode(", "is_simulated("];

/// One way to say "this toggle changes nothing": two runs and
/// `RunReport::agrees_with`. A run mode that runs the program twice, a
/// helper that compares two runs of its own, or a second determinism
/// suite with its own loop is a second way.
const COMPARATOR_GONE: &[&str] =
    &["DataflowMode::Validate", "FX_DATAFLOW=validate", "assert_promotion_transparent", "validate_elision", "trace_determinism"];

/// The user-facing documents teach no removed name: neither [`REMOVED`],
/// [`TAINT_GONE`], [`REAL_TIME_GONE`], [`COMPARATOR_GONE`] nor one a rule
/// above bans. A source may not spell the first four either; a source that
/// spells a rule's name fails that rule.
#[test]
fn no_document_or_source_names_a_removed_api() {
    let removed: Vec<&str> =
        REMOVED.iter().chain(TAINT_GONE).chain(REAL_TIME_GONE).chain(COMPARATOR_GONE).copied().collect();
    assert_none(spelled(&walk(&TREE), &removed, &[]), "sources name removed APIs");
    let every_rule =
        [PROMOTION_GONE, EXECUTOR_GONE, ARRAY_GONE, EVENT_GONE, STREAM_GONE, SEARCH_GONE, VALUE_GONE, LEDGER_GONE, THREAD_GONE, CLOCK_GONE, OWNER_GONE];
    let names: Vec<&str> = removed.iter().chain(every_rule.iter().copied().flatten()).copied().collect();
    assert_none(spelled(&walk(&["DESIGN.md", "README.md"]), &names, &[]), "documents name removed APIs");
}

/// The rules live here and nowhere else: CI's `lint` job checks out and
/// runs `fmt` and `clippy`, and a grep step beside them is a second copy
/// that `cargo test` does not run.
#[test]
fn the_lint_job_runs_only_fmt_and_clippy() {
    let ci = read(".github/workflows/ci.yml");
    let job = ci.split("\n  lint:\n").nth(1).expect("ci.yml has a `lint` job");
    let steps: Vec<&str> = job
        .lines()
        .take_while(|l| l.trim().is_empty() || l.starts_with("    "))
        .filter_map(|l| l.strip_prefix("      - "))
        .collect();
    assert_eq!(steps, ["uses: actions/checkout@v4", "name: fmt", "name: clippy"], "the `lint` job's steps");
}

#[test]
fn the_non_test_cut_stops_at_the_first_cfg_test() {
    let text = "fn a() {}\n    #[cfg(test)]\nfn b() {}\n#[cfg(test)]\nmod tests {}\n#[cfg(test)]\nmod more {}\n";
    assert_eq!(non_test(text), "fn a() {}\n    #[cfg(test)]\nfn b() {}\n", "an indented attribute does not cut");
    assert_eq!(non_test("fn a() {}"), "fn a() {}");
}

#[test]
fn the_walk_visits_nested_bin_files_and_skips_this_file() {
    let crates: Vec<String> = crate_sources().into_iter().map(|(path, _)| path).collect();
    assert!(crates.contains(&"crates/bench/src/bin/table1.rs".to_string()), "src/bin/ files are crate sources");
    assert!(!crates.iter().any(|p| p.contains("/tests/") || p.ends_with("Cargo.toml")), "only src/ files: {crates:?}");
    let tests: Vec<String> = walk(&["tests"]).into_iter().map(|(path, _)| path).collect();
    assert!(tests.contains(&"tests/docs.rs".to_string()) && !tests.contains(&SELF.to_string()));
}

#[test]
fn the_closure_reader_sees_only_lines_indented_past_the_opener() {
    let text = "fn f() {\n    let t = cx.replicated(|| {\n        inside();\n            deeper();\n    });\n    outside();\n    \
                cx.replicated(|| {\n        second();\n\n        after_a_blank();\n    })\n}\n";
    assert_eq!(closure_bodies(text, "replicated(|| {"), ["        inside();", "            deeper();", "        second();"]);
}
