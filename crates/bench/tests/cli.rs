//! `sg-bench` exit codes: usage on stdout and 0 for `--help`, usage on
//! stderr and 2 for an unknown flag or a flag given where a value belongs.
//! Every case here exits before any scenario runs.

use std::process::Command;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sg-bench"))
        .args(args)
        .output()
        .unwrap()
}

#[test]
fn help_prints_usage_and_exits_0() {
    for help in ["--help", "-h"] {
        let out = run(&[help]);
        assert_eq!(out.status.code(), Some(0), "{help}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
    }
}

#[test]
fn bad_arguments_exit_2_with_usage() {
    for (args, message) in [
        (&["--bogus"][..], "unknown argument '--bogus'"),
        (&["--out"], "--out needs PATH"),
        (&["--out", "--full"], "--out needs PATH"),
        (&["--only", "--quick"], "--only needs NAMES"),
        (
            &["--threshold", "ten"],
            "--threshold expects a number, got 'ten'",
        ),
    ] {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
