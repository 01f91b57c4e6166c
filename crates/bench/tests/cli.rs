//! Process-level contract of the `hsc` command line, for every
//! sub-command: a flag the sub-command does not use, or an output path it
//! cannot create, is a usage error — the message and the usage line on
//! stderr, exit status 2, nothing on stdout, and no simulation run first.
//! Also the shape of what a campaign writes: its table rows and its run
//! report's records.

use std::process::{Command, Output};

use hsc_obs::json::{parse, Value};

/// Every sub-command, as typed.
const SUB_COMMANDS: [&str; 16] = [
    "table 1",
    "table 2",
    "table 3",
    "fig 4",
    "fig 5",
    "fig 6",
    "fig 7",
    "ablation",
    "extension",
    "characterize",
    "faults",
    "check",
    "trace-gen",
    "report validate",
    "report analyze",
    "repro",
];

fn hsc(sub_command: &str, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hsc"))
        .args(sub_command.split(' '))
        .args(args)
        .output()
        .expect("hsc spawns")
}

/// Asserts the usage-error contract and returns stderr.
fn usage_error(sub_command: &str, args: &[&str]) -> String {
    let out = hsc(sub_command, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "hsc {sub_command} {args:?} must exit 2: {stderr}");
    assert!(
        stderr.contains(&format!("usage: hsc {sub_command}")),
        "hsc {sub_command} {args:?} shows its usage: {stderr}"
    );
    assert!(out.stdout.is_empty(), "hsc {sub_command} {args:?} prints nothing on stdout");
    stderr
}

/// Flags that exist — on some other sub-command. The first five used to
/// be accepted and silently ignored; `repro --trace` replayed what
/// `characterize --trace` replays.
#[test]
fn a_flag_the_sub_command_does_not_use_is_rejected() {
    let pairs: [(&str, &[&str]); 16] = [
        ("check", &["--report", "x.json"]),
        ("characterize", &["--quick", "--perfetto", "p.json"]),
        ("faults", &["--quick"]),
        ("table 2", &["--bogus"]),
        ("table 3", &["--bogus"]),
        ("characterize", &["--perfetto", "p.json"]),
        ("faults", &["--perfetto", "p.json"]),
        ("check", &["--trace-gen", "pingpong"]),
        ("fig 4", &["--quick"]),
        ("table 1", &["--jobs", "2"]),
        ("ablation", &["--report", "x.json"]),
        ("trace-gen", &["--jobs", "2"]),
        ("report analyze", &["--jobs", "2"]),
        ("repro", &["--observed"]),
        ("repro", &["--trace", "t.trace"]),
        ("table 1", &["--observed"]),
    ];
    for (sub_command, args) in pairs {
        let stderr = usage_error(sub_command, args);
        assert!(
            stderr.contains(&format!("unknown argument '{}'", args[0])),
            "hsc {sub_command} names the flag: {stderr}"
        );
    }
}

#[test]
fn every_sub_command_rejects_an_unknown_flag_and_a_stray_operand() {
    for sub_command in SUB_COMMANDS {
        let stderr = usage_error(sub_command, &["--shards", "2"]);
        assert!(stderr.contains("unknown argument '--shards'"), "{sub_command}: {stderr}");
        let stderr = usage_error(sub_command, &["one", "two"]);
        assert!(stderr.contains("unknown argument"), "{sub_command}: {stderr}");
    }
}

/// An output path that cannot be created is reported before the campaign
/// runs, as `<command>: <path>: <os error>` — not as a panic after it.
#[test]
fn an_unwritable_output_path_is_a_usage_error_before_any_work() {
    let report = "/nonexistent/dir/r.json";
    let cases: [(&str, &[&str]); 8] = [
        ("repro", &["--quick", "--report", report]),
        ("repro", &["--quick", "--perfetto", report]),
        ("characterize", &["--report", report]),
        ("faults", &["--report", report]),
        ("report analyze", &["--report", report]),
        ("trace-gen", &["--spec", "pingpong", "--out", report]),
        // A directory cannot be created below a file.
        ("trace-gen", &["--corpus", concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/corpus")]),
        ("check", &["--perfetto", concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.toml/traces")]),
    ];
    for (sub_command, args) in cases {
        // `usage_error` checks that stdout is empty: no table was written,
        // so no campaign ran.
        let stderr = usage_error(sub_command, args);
        let path = args.last().expect("the path operand");
        assert!(
            stderr.starts_with(&format!("hsc {sub_command}: {path}: ")),
            "hsc {sub_command} names the path and the OS error: {stderr}"
        );
    }
}

/// `repro --quick` skips the sections, so without `--report` or
/// `--perfetto` it has nothing to do.
#[test]
fn repro_quick_alone_is_a_usage_error() {
    let stderr = usage_error("repro", &["--quick"]);
    assert!(stderr.contains("--report") && stderr.contains("--perfetto"), "{stderr}");
}

#[test]
fn bare_hsc_and_help_print_the_index_and_an_unknown_sub_command_is_an_error() {
    for args in [&[][..], &["help"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsc")).args(args).output().expect("hsc spawns");
        assert_eq!(out.status.code(), Some(0));
        let stdout = String::from_utf8_lossy(&out.stdout);
        for sub_command in SUB_COMMANDS {
            assert!(
                stdout.contains(&format!("\n  hsc {sub_command}")),
                "index lists {sub_command}"
            );
        }
    }
    for args in [&["frobnicate"][..], &["fig"], &["fig", "9"], &["--jobs", "2"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_hsc")).args(args).output().expect("hsc spawns");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown sub-command") && stderr.contains("\n  hsc repro"));
    }
}

/// A replay whose verification fails is the command's own failure — one
/// `hsc <cmd>: …` line and exit status 1 — not a panic with a backtrace
/// and status 101.
#[test]
fn a_failed_replay_is_one_line_and_exit_1() {
    let trace = std::env::temp_dir().join(format!("hsc-wrong-expect-{}.trace", std::process::id()));
    std::fs::write(&trace, "hsc-trace v1\ninit 0x1000 5\nstream cpu\nread 0x1000 expect 6\n")
        .expect("the trace file is writable");
    let path = trace.to_str().expect("a UTF-8 temp path");
    for sub_command in ["characterize", "faults"] {
        let out = hsc(sub_command, &["--trace", path]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "hsc {sub_command}: {stderr}");
        assert!(!stderr.contains("panicked"), "hsc {sub_command}: {stderr}");
        // Campaign timing lines share stderr.
        let said: Vec<&str> = stderr.lines().filter(|l| !l.starts_with("[par]")).collect();
        if sub_command == "faults" {
            // Its table has a row for the run that failed.
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(said.is_empty() && stdout.contains("GOLDEN RUN FAILED: verification failed"));
        } else {
            let start = format!("hsc {sub_command}: workload trace: verification failed: ");
            assert!(said.len() == 1 && said[0].starts_with(&start), "hsc {sub_command}: {stderr}");
        }
    }
    std::fs::remove_file(&trace).expect("the trace file is removable");
}

/// `hsc faults --report` writes one record per printed table row, in row
/// order, and nothing else: a report record is one run, never a sum of
/// runs.
#[test]
fn the_faults_report_has_one_record_per_table_row() {
    let report = std::env::temp_dir().join(format!("hsc-faults-rows-{}.json", std::process::id()));
    let path = report.to_str().expect("a UTF-8 temp path");
    let out = hsc("faults", &["--trace-gen", "pingpong,ops=16", "--jobs", "1", "--report", path]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "{stdout}{}", String::from_utf8_lossy(&out.stderr));

    // Table rows follow the header and start in column 0; a deadlock's
    // stuck-line bullets are indented.
    let rows: Vec<(&str, &str)> = stdout
        .lines()
        .skip_while(|l| !l.starts_with("bench "))
        .skip(1)
        .take_while(|l| !l.starts_with("run report written"))
        .filter(|l| !l.starts_with(' '))
        .map(|l| {
            let mut cols = l.split_whitespace();
            (cols.next().expect("bench column"), cols.next().expect("drop_ppm column"))
        })
        .collect();
    assert_eq!(rows.len(), 5, "one row per fault plan: {stdout}");

    let text = std::fs::read_to_string(&report).expect("the report was written");
    let doc = parse(&text).expect("the report is JSON");
    let records: Vec<(String, String)> = doc
        .get("runs")
        .and_then(Value::as_array)
        .expect("a runs array")
        .iter()
        .map(|r| {
            let field = |k: &str| r.get(k).and_then(Value::as_str).expect(k).to_owned();
            (field("workload"), field("config"))
        })
        .collect();
    let expected: Vec<(String, String)> = rows
        .iter()
        .map(|(bench, ppm)| ((*bench).to_owned(), format!("sharer_tracking drop_ppm={ppm}")))
        .collect();
    assert_eq!(records, expected, "one record per table row, in row order");

    let out = hsc("report validate", &[path]);
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    std::fs::remove_file(&report).expect("the report is removable");
}
