//! `sg-trace` and `sg-timeline` at the process boundary: `--help`
//! succeeds, a bad flag is a usage error, and a stream header newer than
//! the build warns in every mode that reads it.

use std::process::{Command, Output};

const SG_TRACE: &str = env!("CARGO_BIN_EXE_sg-trace");
const SG_TIMELINE: &str = env!("CARGO_BIN_EXE_sg-timeline");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().unwrap()
}

#[test]
fn help_exits_0_and_a_bad_flag_exits_2() {
    let help_runs = [
        (SG_TRACE, &["--help"][..]),
        (SG_TRACE, &["-h"]),
        (SG_TRACE, &["watch", "--help"]),
        (SG_TIMELINE, &["--help"]),
        (SG_TIMELINE, &["-h"]),
    ];
    for (bin, args) in help_runs {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).starts_with("usage:"));
    }
    for (bin, args) in [
        (SG_TRACE, &["--bogus"][..]),
        (SG_TRACE, &["watch", "--bogus"]),
        (SG_TIMELINE, &["--bogus"]),
    ] {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));
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
    for (bin, args) in [
        (SG_TRACE, &[file][..]),
        (SG_TRACE, &["watch", file]),
        (SG_TIMELINE, &[file]),
    ] {
        let stderr = String::from_utf8_lossy(&run(bin, args).stderr).into_owned();
        assert!(
            stderr.contains("metrics schema v4 is newer"),
            "{bin} {args:?}: {stderr}"
        );
        assert!(
            stderr.contains("profile schema v3 is newer"),
            "{bin} {args:?}: {stderr}"
        );
    }
    std::fs::remove_file(&path).unwrap();
}
