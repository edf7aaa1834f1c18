//! `sg-experiments` argument parsing: help, defaults, and every error
//! case, at the parser and at the binary's exit code; `sg-loadtest`'s
//! help and error cases at its exit code. The contract every binary
//! shares is checked in `crates/bench/tests/cli.rs`.

use sg_experiments::cli::{parse_args, Cli};
use sg_experiments::FIGURES;
use std::process::Command;

fn parse(args: &[&str]) -> Result<Cli, String> {
    parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
}

/// `bin` refuses `args`: exit 2, nothing on stdout, and `message` and
/// the usage on stderr.
fn assert_refused(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().unwrap();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert!(stderr.contains(message), "{args:?}: {stderr}");
    assert!(stderr.contains("\nusage: "), "{args:?}: {stderr}");
}

#[test]
fn no_experiment_or_all_selects_every_figure() {
    let every: Vec<&str> = FIGURES.iter().map(|(n, _)| *n).collect();
    assert_eq!(parse(&[]).unwrap().experiments, every);
    assert_eq!(parse(&["fig5", "all"]).unwrap().experiments, every);
}

#[test]
fn flags_and_experiments_parse() {
    let cli = parse(&[
        "fig12",
        "--full",
        "fig15",
        "--json",
        "out.json",
        "--threads",
        "2",
    ])
    .unwrap();
    assert_eq!(
        cli,
        Cli {
            help: false,
            experiments: vec!["fig12", "fig15"],
            full: true,
            json: Some("out.json".into()),
            threads: Some(2),
        }
    );
    assert!(parse(&["-h"]).unwrap().help);
    assert!(parse(&["fig5", "--help"]).unwrap().help);
}

#[test]
fn bad_arguments_are_errors() {
    for args in [
        &["--bogus"][..],
        &["--serial"],
        &["fig99"],
        &["--json"],
        &["--json", "--full"],
        &["--threads"],
        &["--threads", "0"],
        &["--threads", "two"],
    ] {
        assert!(parse(args).is_err(), "{args:?} parsed");
    }
}

#[test]
fn binary_exits_0_on_help_and_2_on_a_bad_flag() {
    let bin = env!("CARGO_BIN_EXE_sg-experiments");
    let help = Command::new(bin).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&help.stdout).starts_with("usage: sg-experiments "));
    for (args, message) in [
        (&["--bogus"][..], "unknown flag '--bogus'"),
        (&["fig99"], "unknown experiment 'fig99'"),
        (
            &["--threads", "0"],
            "--threads expects a positive integer, got '0'",
        ),
    ] {
        assert_refused(bin, args, message);
    }
}

#[test]
fn sg_loadtest_exits_0_on_help_and_2_on_a_bad_argument() {
    let bin = env!("CARGO_BIN_EXE_sg-loadtest");
    for help in ["--help", "-h"] {
        let out = Command::new(bin)
            .args(["--workload", "read", help])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(0), "{help}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage: sg-loadtest "));
    }
    for (args, message) in [
        (&["--bogus"][..], "unknown flag '--bogus'"),
        (&["--duraton", "3"], "unknown flag '--duraton'"),
        (&["chain"], "unexpected argument 'chain'"),
        (&["--telemetry"], "--telemetry expects a value"),
        (&["--rate", "--seed", "1"], "--rate expects a value"),
        (&["--nodes", "two"], "--nodes expects a number, got 'two'"),
        (
            &["--duration", "1.5"],
            "--duration expects a number, got '1.5'",
        ),
        (&["--qos", "5ms"], "--qos expects a number, got '5ms'"),
        (&["--workload", "nope"], "unknown workload 'nope'"),
        (&["--span-sample", "3/2"], "bad --span-sample '3/2'"),
        (
            &["--metrics-listen", "127.0.0.1:9184"],
            "--metrics-listen needs --backend live",
        ),
    ] {
        assert_refused(bin, args, message);
    }
}
