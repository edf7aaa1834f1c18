//! The `sg-experiments` command line, parsed by one function.

use crate::FIGURES;

/// Usage text, printed by `--help` and on a parse error.
pub const USAGE: &str = "\
usage: sg-experiments [EXPERIMENTS...] [--full] [--json PATH] [--threads N]

  EXPERIMENTS   any of: table1 fig4 fig5 fig6 fig7 fig10 fig11 fig12
                fig13 fig14 fig15 hybrid netsurge zoo chaos all
                (default: all)
  --full        paper-scale protocol (17 trials, 60s windows) --
                substantially slower
  --json PATH   also write machine-readable rows to PATH
  --threads N   worker threads, N >= 1 (default: all cores); output is
                identical for any N
  -h, --help    print this help
";

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
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| match it.next() {
            Some(v) if !v.starts_with('-') => Ok(v.clone()),
            _ => Err(format!("{flag} expects a value")),
        };
        match arg.as_str() {
            "-h" | "--help" => cli.help = true,
            "--full" => cli.full = true,
            "--json" => cli.json = Some(value("--json")?),
            "--threads" => {
                let v = value("--threads")?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => cli.threads = Some(n),
                    _ => return Err(format!("--threads expects a positive integer, got '{v}'")),
                }
            }
            "all" => {}
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            name => match FIGURES.iter().find(|(n, _)| *n == name) {
                Some((n, _)) => cli.experiments.push(n),
                None => return Err(format!("unknown experiment '{name}'")),
            },
        }
    }
    if cli.experiments.is_empty() || args.iter().any(|a| a == "all") {
        cli.experiments = FIGURES.map(|(name, _)| name).to_vec();
    }
    Ok(cli)
}
