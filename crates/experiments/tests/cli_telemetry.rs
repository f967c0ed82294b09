//! End-to-end check of the `--trace-out` / `--metrics-out` plumbing: run
//! the real `mlc` binary, then parse its outputs with the telemetry crate's
//! own JSON tooling and validate the metrics file against
//! `results/metrics_schema.json`. Also pins the usage errors (exit status
//! 2) that the shared flag extractors raise before a binary does any work.

use mlc_telemetry::json::JsonValue;
use mlc_telemetry::schema::validate;
use std::path::{Path, PathBuf};
use std::process::Command;

fn schema() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/metrics_schema.json");
    let text = std::fs::read_to_string(&path).expect("read results/metrics_schema.json");
    JsonValue::parse(&text).expect("schema file is valid JSON")
}

fn out_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mlc-cli-telemetry-{tag}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_mlc(args: &[&str]) {
    let status = Command::new(env!("CARGO_BIN_EXE_mlc"))
        .args(args)
        .status()
        .expect("spawn mlc");
    assert!(status.success(), "mlc {args:?} failed");
}

/// `mlc --metrics-out m.json --trace-out t.jsonl <kernel>` — the acceptance
/// command — writes a schema-valid metrics file and a JSONL trace holding
/// per-pass spans (with wall time and positions tried) plus the per-level
/// 3C miss counts.
#[test]
fn acceptance_command_produces_valid_outputs() {
    let dir = out_dir("accept");
    let m = dir.join("m.json");
    let t = dir.join("t.jsonl");
    run_mlc(&[
        "--metrics-out",
        m.to_str().unwrap(),
        "--trace-out",
        t.to_str().unwrap(),
        "dot512",
    ]);

    // Metrics: parse, validate against the schema, and check contents.
    let metrics = JsonValue::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let errors = validate(&schema(), &metrics);
    assert!(errors.is_empty(), "schema violations: {errors:?}");
    let counters = metrics.get("counters").expect("counters object");
    for key in [
        "sim.l1.miss.compulsory",
        "sim.l1.miss.capacity",
        "sim.l1.miss.conflict",
        "sim.l2.miss.compulsory",
        "sim.l2.miss.capacity",
        "sim.l2.miss.conflict",
        "optimizer.pad.positions_tried",
    ] {
        assert!(
            counters.get(key).and_then(JsonValue::as_u64).is_some(),
            "missing counter {key}"
        );
    }
    // The classifier's per-level counts are mutually consistent.
    let c = |k: &str| counters.get(k).and_then(JsonValue::as_u64).unwrap();
    assert_eq!(
        c("sim.l1.misses"),
        c("sim.l1.miss.compulsory") + c("sim.l1.miss.capacity") + c("sim.l1.miss.conflict")
    );

    // Trace: every line is JSON; pass spans carry wall time and attrs.
    let trace = std::fs::read_to_string(&t).unwrap();
    let lines: Vec<JsonValue> = trace
        .lines()
        .map(|l| JsonValue::parse(l).expect("JSONL line parses"))
        .collect();
    assert!(!lines.is_empty(), "trace is empty");
    let span_named = |name: &str| {
        lines.iter().find(|v| {
            v.get("type").and_then(JsonValue::as_str) == Some("span")
                && v.get("name").and_then(JsonValue::as_str) == Some(name)
        })
    };
    for name in ["simulate", "optimize", "pass.pad", "sim.classified"] {
        let span = span_named(name).unwrap_or_else(|| panic!("no span named {name}"));
        assert!(
            span.get("dur_us").and_then(JsonValue::as_u64).is_some(),
            "{name} has no dur_us"
        );
    }
    let pad = span_named("pass.pad").unwrap();
    let tried = pad
        .get("attrs")
        .and_then(|a| a.get("positions_tried"))
        .and_then(JsonValue::as_u64)
        .expect("pass.pad records positions_tried");
    assert!(tried > 0);
    std::fs::remove_dir_all(&dir).ok();
}

/// `mlc simulate adi32 --assoc 2 --metrics-out` runs one classified cold
/// sweep; its per-level 3C counts, evictions and write-backs are pinned.
#[test]
fn classified_cold_sweep_counts_are_pinned() {
    let dir = out_dir("adi32");
    let m = dir.join("m.json");
    run_mlc(&[
        "simulate",
        "adi32",
        "--assoc",
        "2",
        "--metrics-out",
        m.to_str().unwrap(),
    ]);
    let metrics = JsonValue::parse(&std::fs::read_to_string(&m).unwrap()).unwrap();
    let counters = metrics.get("counters").expect("counters object");
    let counts = |level: &str| -> Vec<u64> {
        [
            "accesses",
            "hits",
            "miss.compulsory",
            "miss.capacity",
            "miss.conflict",
            "evictions",
            "writebacks",
        ]
        .iter()
        .map(|k| {
            let name = format!("sim.{level}.{k}");
            counters
                .get(&name)
                .and_then(JsonValue::as_u64)
                .unwrap_or_else(|| panic!("missing counter {name}"))
        })
        .collect()
    };
    assert_eq!(
        counts("l1"),
        [956_416, 573_696, 49_152, 95_488, 238_080, 382_208, 159_232]
    );
    assert_eq!(
        counts("l2"),
        [382_720, 159_120, 24_576, 32_368, 166_656, 215_408, 0]
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A path flag with no value, or with another flag in its value slot, is a
/// usage error: exit status 2 and a message naming the flag, not a silently
/// dropped option or a flag swallowed as a file name.
#[test]
fn valueless_path_flag_exits_2_naming_it() {
    for (args, needle) in [
        (&["dot512", "--trace-out"][..], "--trace-out needs a value"),
        (
            &["--trace-out", "--metrics-out", "m.json", "dot512"][..],
            "--trace-out needs a value, got the flag --metrics-out",
        ),
    ] {
        assert_usage_error(env!("CARGO_BIN_EXE_mlc"), args, needle);
    }
}

/// Run `bin` with `args`, expecting a usage error: exit status 2, a message
/// containing `needle` on stderr, and nothing on stdout.
fn assert_usage_error(bin: &str, args: &[&str], needle: &str) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(needle), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
}

/// An option given twice is a usage error naming it, on the binaries that
/// read their own arguments in a loop, not a silent "last value wins".
#[test]
fn repeated_option_exits_2_naming_it() {
    let layout_search = env!("CARGO_BIN_EXE_layout_search");
    let mlc = env!("CARGO_BIN_EXE_mlc");
    for (bin, args, needle) in [
        (
            layout_search,
            &["--grid", "full", "--grid", "smoke"][..],
            "layout_search: --grid given twice",
        ),
        (
            layout_search,
            &["--csv", "--grid", "smoke", "--csv"][..],
            "layout_search: --csv given twice",
        ),
        (
            layout_search,
            &["--bogus"][..],
            "layout_search: unknown argument --bogus",
        ),
        (
            layout_search,
            &["--grid", "big"][..],
            r#"layout_search: --grid needs smoke|full, got "big""#,
        ),
        (
            mlc,
            &["simulate", "dot512", "--sweeps", "2", "--sweeps", "1"][..],
            "mlc: --sweeps given twice",
        ),
        (
            mlc,
            &[
                "simulate", "dot512", "--opt", "pad", "--l1", "8192", "--opt", "none",
            ][..],
            "mlc: --opt given twice",
        ),
    ] {
        assert_usage_error(bin, args, needle);
    }
}

/// The removed engine flags fail loudly instead of being ignored.
#[test]
fn removed_engine_flag_exits_2_naming_it() {
    for flag in ["--no-fast-path", "--no-analytic", "--no-fast-search"] {
        assert_usage_error(
            env!("CARGO_BIN_EXE_mlc"),
            &[flag, "dot512"],
            &format!("{flag} was removed"),
        );
    }
}

/// A bad `--step` or `--at` is a usage error before any work: a zero step
/// never advances, and a value that does not parse must not fall back to
/// the default sweep.
#[test]
fn bad_step_or_at_exits_2_naming_it() {
    let fig11 = env!("CARGO_BIN_EXE_fig11");
    let fig12 = env!("CARGO_BIN_EXE_fig12");
    let fig13 = env!("CARGO_BIN_EXE_fig13");
    for (bin, args, needle) in [
        (fig11, &["--step", "0"][..], r#"--step="0" is not"#),
        (fig11, &["--step", "x"][..], r#"--step="x" is not"#),
        (fig11, &["--csv", "--step"][..], "--step needs a value"),
        (fig12, &["--step", "0"][..], r#"--step="0" is not"#),
        (fig12, &["--at", "x"][..], r#"--at="x" is not"#),
        (fig13, &["--step", "0"][..], r#"--step="0" is not"#),
    ] {
        assert_usage_error(bin, args, needle);
    }
}

/// An argument a binary does not read, or a value it cannot use, is a
/// usage error before any work, not a silently dropped option, a panic or
/// the exit status of a failed run. The binaries that simulate nothing take
/// none of the shared telemetry and cache flags either, `serve_load` no
/// longer takes `--history-dir`, and no binary takes `--no-cache`.
#[test]
fn unknown_argument_exits_2_naming_it() {
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let mlc = env!("CARGO_BIN_EXE_mlc");
    let serve_load = env!("CARGO_BIN_EXE_serve_load");
    for (bin, args, needle) in [
        (
            env!("CARGO_BIN_EXE_table1"),
            &["--bogus"][..],
            "table1: unknown argument --bogus",
        ),
        (
            env!("CARGO_BIN_EXE_fusion_example"),
            &["--csv"][..],
            "fusion_example: unknown argument --csv",
        ),
        (
            env!("CARGO_BIN_EXE_diagrams"),
            &["--metrics-out", "m.json"][..],
            "diagrams: unknown argument --metrics-out",
        ),
        (
            sweep,
            &["--shard", "0/2"][..],
            "sweep: unknown argument --shard",
        ),
        (
            sweep,
            &["run", "--grid", "smoke"][..],
            "unknown argument run",
        ),
        (
            sweep,
            &["--grid", "conflict", "--threads", "1", "--no-cache"][..],
            "sweep: unknown argument --no-cache",
        ),
        (sweep, &["--grid", "bogus"][..], r#"got "bogus""#),
        (mlc, &["--bogus"][..], "unknown command '--bogus'"),
        (
            mlc,
            &["simulate", "dot512", "--bogus"][..],
            "unknown flag --bogus",
        ),
        (mlc, &["simulate", "nosuch"][..], "unknown program 'nosuch'"),
        (
            mlc,
            &["simulate", "dot512", "--opt", "bogus"][..],
            "unknown --opt bogus",
        ),
        (
            mlc,
            &["simulate", "dot512", "--l1", "1000"][..],
            "--l1 1000: cache size 1000 must be a power of two",
        ),
        (
            mlc,
            &["simulate", "dot512", "--assoc", "3"][..],
            "associativity 3 must divide",
        ),
        (
            env!("CARGO_BIN_EXE_serve"),
            &["--bogus"][..],
            "serve: unknown argument --bogus",
        ),
        (
            serve_load,
            &["--bogus"][..],
            "serve_load: unknown argument --bogus",
        ),
        (
            serve_load,
            &["--requests", "x"][..],
            r#"--requests needs a positive count, got "x""#,
        ),
        (
            serve_load,
            &["--history-dir", "ledger"][..],
            "serve_load: unknown argument --history-dir",
        ),
    ] {
        assert_usage_error(bin, args, needle);
    }
}

/// Without telemetry flags the binary writes nothing and prints the same
/// simulate summary (stdout equality between a plain run and a run whose
/// flags were merely absent is what users rely on for scripting).
#[test]
fn no_flags_writes_no_files() {
    let dir = out_dir("none");
    let before: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    run_mlc(&["simulate", "dot512"]);
    let after: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert_eq!(before.len(), after.len());
    std::fs::remove_dir_all(&dir).ok();
}
