//! The `sg-experiments` command line: a flag table read by
//! [`sg_core::cli`], then the experiment names checked against
//! [`FIGURES`].

use crate::FIGURES;
use sg_core::cli::{Flag, Operands, Spec, Stop};

/// The flag table; its [`Spec::usage`] is the help text.
pub static SPEC: Spec = Spec {
    name: "sg-experiments",
    flags: &[
        Flag::switch(
            "--full",
            "paper-scale protocol (17 trials, 60s windows) -- substantially slower",
        ),
        Flag::value("--json", "PATH", "also write machine-readable rows to PATH"),
        Flag::value(
            "--threads",
            "N",
            "worker threads, N >= 1 (default: all cores); output is identical for any N",
        ),
    ],
    operands: Operands::Many("EXPERIMENTS"),
    subcommands: &[],
    notes: "\
EXPERIMENTS are any of: table1 fig4 fig5 fig6 fig7 fig10 fig11 fig12 fig13
fig14 fig15 hybrid netsurge zoo chaos all (default: all)
",
};

/// A parsed command line.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cli {
    /// `--help` / `-h` was given: print usage, run nothing.
    pub help: bool,
    /// Experiments to run, in [`FIGURES`] order when `all`.
    pub experiments: Vec<&'static str>,
    /// Paper-scale profile.
    pub full: bool,
    /// Where to write the JSON rows.
    pub json: Option<String>,
    /// Worker-thread count, if given.
    pub threads: Option<usize>,
}

/// Parse the arguments after the program name. Unknown flags and
/// experiments, a flag missing its value, and `--threads 0` are errors.
pub fn parse_args(args: &[String]) -> Result<Cli, String> {
    let parsed = match SPEC.parse(args) {
        Ok(parsed) => parsed,
        Err(Stop::Help(_)) => {
            return Ok(Cli {
                help: true,
                ..Cli::default()
            })
        }
        Err(Stop::Usage(_, message)) => return Err(message),
    };
    let threads = match parsed.value("--threads") {
        None => None,
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Some(n),
            _ => return Err(format!("--threads expects a positive integer, got '{v}'")),
        },
    };
    let names = parsed.operands();
    let mut experiments = Vec::new();
    for name in names.iter().filter(|name| *name != "all") {
        match FIGURES.iter().find(|(n, _)| n == name) {
            Some((n, _)) => experiments.push(*n),
            None => return Err(format!("unknown experiment '{name}'")),
        }
    }
    if experiments.is_empty() || names.iter().any(|a| a == "all") {
        experiments = FIGURES.map(|(name, _)| name).to_vec();
    }
    Ok(Cli {
        help: false,
        experiments,
        full: parsed.has("--full"),
        json: parsed.value("--json").map(str::to_string),
        threads,
    })
}
