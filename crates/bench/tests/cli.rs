//! Every binary's command line at the process boundary. The contract is
//! `sg_core::cli`'s: `--help` or `-h` prints the usage on stdout and exits
//! 0; an unknown flag, a flag missing its value, a flag given where a
//! value belongs, a stray or missing operand, or a value the binary
//! refuses prints the error and the usage on stderr and exits 2, before
//! any work starts.
//!
//! The binaries of the other packages are found next to `sg-bench`: a
//! workspace `cargo test` builds every one of them. The values that
//! `sg-experiments` and `sg-loadtest` refuse are checked in
//! `crates/experiments/tests/cli.rs`.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Every command: its binary, the words that select it, and one of its
/// flags that takes a value.
const COMMANDS: [(&str, &[&str], &str); 6] = [
    ("sg-experiments", &[], "--json"),
    ("sg-loadtest", &[], "--telemetry"),
    ("sg-bench", &[], "--out"),
    ("sg-trace", &[], "--folded"),
    ("sg-trace", &["watch"], "--topk"),
    ("sg-trace", &["timeline"], "--svg"),
];

/// `sg-trace` command lines that parse but carry a value it refuses, and
/// what its error says.
const REFUSED: &[(&[&str], &str)] = &[
    (&["sg-trace"], "missing TRACE.jsonl"),
    (
        &["sg-trace", "a.jsonl", "b.jsonl"],
        "unexpected argument 'b.jsonl'",
    ),
    (
        &["sg-trace", "--qos", "0", "t.jsonl"],
        "--qos must be positive",
    ),
    (
        &["sg-trace", "watch", "--objective", "100", "m.jsonl"],
        "--objective must be in [0, 100)",
    ),
    (
        &["sg-trace", "timeline", "--reconcile", "m.jsonl"],
        "--reconcile requires --trace",
    ),
];

fn run(bin: &str, args: &[&str]) -> Output {
    let name = format!("{bin}{}", std::env::consts::EXE_SUFFIX);
    let path = PathBuf::from(env!("CARGO_BIN_EXE_sg-bench")).with_file_name(name);
    assert!(
        path.exists(),
        "{} is not built: run `cargo test` at the workspace root",
        path.display()
    );
    Command::new(path).args(args).output().unwrap()
}

fn assert_refused(bin: &str, args: &[&str], message: &str) {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{bin} {args:?} wrote to stdout");
    assert!(stderr.contains(message), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains("\nusage: "), "{bin} {args:?}: {stderr}");
}

#[test]
fn help_exits_0_and_a_bad_flag_exits_2() {
    for (bin, words, value_flag) in COMMANDS {
        let command = [&[bin][..], words].concat().join(" ");
        let line = |tail: &[&'static str]| [words, tail].concat();
        for help in ["--help", "-h"] {
            let out = run(bin, &line(&[help]));
            assert_eq!(out.status.code(), Some(0), "{command} {help}");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                stdout.starts_with(&format!("usage: {command} ")),
                "{command} {help}: {stdout}"
            );
            assert!(stdout.contains(value_flag), "{command} {help}: {stdout}");
        }
        assert_refused(bin, &line(&["--bogus"]), "unknown flag '--bogus'");
        let missing = format!("{value_flag} expects a value");
        assert_refused(bin, &line(&[value_flag]), &missing);
        assert_refused(bin, &line(&[value_flag, "--bogus"]), &missing);
    }
    for (line, message) in REFUSED {
        assert_refused(line[0], &line[1..], message);
    }
}

#[test]
fn help_prints_usage_and_exits_0() {
    for help in ["--help", "-h"] {
        let out = run("sg-bench", &[help]);
        assert_eq!(out.status.code(), Some(0), "{help}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: sg-bench "), "{help}: {stdout}");
        for flag in [
            "--quick",
            "--full",
            "--out",
            "--compare",
            "--threshold",
            "--only",
            "--demo-cluster",
        ] {
            assert!(stdout.contains(flag), "{help} lists no {flag}: {stdout}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for (args, message) in [
        (&["--bogus"][..], "unknown flag '--bogus'"),
        (&["--out"], "--out expects a value"),
        (&["--out", "--full"], "--out expects a value"),
        (&["--only", "--quick"], "--only expects a value"),
        (
            &["--threshold", "ten"],
            "--threshold expects a number, got 'ten'",
        ),
    ] {
        assert_refused("sg-bench", args, message);
    }
}

#[test]
fn newer_headers_warn_in_every_reader() {
    let path = std::env::temp_dir().join(format!("sg-cli-newer-{}.jsonl", std::process::id()));
    std::fs::write(
        &path,
        "{\"type\":\"metrics_meta\",\"version\":4,\"interval_ns\":0}\n\
         {\"type\":\"profile_meta\",\"version\":3,\"substrate\":\"sim\",\"wall_ns\":1}\n",
    )
    .unwrap();
    let file = path.to_str().unwrap();
    for args in [&[file][..], &["watch", file], &["timeline", file]] {
        let stderr = String::from_utf8_lossy(&run("sg-trace", args).stderr).into_owned();
        assert!(
            stderr.contains("metrics schema v4 is newer"),
            "{args:?}: {stderr}"
        );
        assert!(
            stderr.contains("profile schema v3 is newer"),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
