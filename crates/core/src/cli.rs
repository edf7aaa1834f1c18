//! One command-line contract for every binary in the workspace.
//!
//! A binary declares its flags as rows of a [`Spec`]. [`Spec::parse`]
//! reads a command line against those rows and [`Spec::usage`] renders
//! the help text from the same rows, so a flag cannot be accepted without
//! being documented, or documented without being held to the contract:
//!
//! * `--help` or `-h` prints the usage on stdout and exits 0;
//! * an unknown flag, a flag missing its value, a flag given where a value
//!   belongs, a missing or unexpected operand, or a value the binary
//!   rejects after parsing ([`Args::fail`]) prints the error and the usage
//!   on stderr and exits 2.
//!
//! A spec may have subcommands (`sg-trace watch`): when the first argument
//! is the last word of a subcommand's name, the rest of the line is read
//! against that subcommand's spec.

use std::str::FromStr;

/// Column the usage text wraps at.
const WIDTH: usize = 78;
/// Widest flag column; a longer flag starts its help on the next line.
const FLAG_COLUMN: usize = 20;

/// One row of a flag table.
#[derive(Debug)]
pub struct Flag {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            help,
        }
    }

    /// A flag followed by a value, shown in the usage as `value`.
    pub const fn value(name: &'static str, value: &'static str, help: &'static str) -> Flag {
        Flag {
            name,
            value: Some(value),
            help,
        }
    }
}

/// The row every spec gets without declaring it.
const HELP: Flag = Flag::switch("-h, --help", "print this help");

/// The operands (arguments that are not flags) a command takes.
#[derive(Debug)]
pub enum Operands {
    /// None.
    None,
    /// Exactly one, shown in the usage under this name.
    One(&'static str),
    /// Any number, shown in the usage under this name.
    Many(&'static str),
}

/// A command's flag table, operands, subcommands and help text.
#[derive(Debug)]
pub struct Spec {
    /// The command as typed, e.g. `sg-trace watch`; prefixes its errors.
    pub name: &'static str,
    /// The flag table, in usage order.
    pub flags: &'static [Flag],
    /// The operands it takes.
    pub operands: Operands,
    /// Subcommands, each selected by the last word of its name.
    pub subcommands: &'static [&'static Spec],
    /// Text printed after the flag table; empty or ending in a newline.
    pub notes: &'static str,
}

/// Why [`Spec::parse`] stopped before producing [`Args`].
#[derive(Debug)]
pub enum Stop {
    /// `--help` or `-h` was given.
    Help(&'static Spec),
    /// A usage error, with its message.
    Usage(&'static Spec, String),
}

impl Spec {
    /// Read `args` (the command line after the program name).
    pub fn parse(&'static self, args: &[String]) -> Result<Args, Stop> {
        let sub = args.first().and_then(|first| {
            self.subcommands
                .iter()
                .find(|sub| sub.name.rsplit_once(' ').map(|(_, word)| word) == Some(first))
        });
        if let Some(sub) = sub {
            return sub.parse(&args[1..]);
        }
        let usage = |message: String| Stop::Usage(self, message);
        let mut parsed = Args {
            spec: self,
            given: Vec::new(),
            operands: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--help" || arg == "-h" {
                return Err(Stop::Help(self));
            }
            if !arg.starts_with('-') {
                parsed.operands.push(arg.clone());
                continue;
            }
            let Some(flag) = self.flags.iter().find(|f| f.name == arg) else {
                return Err(usage(format!("unknown flag '{arg}'")));
            };
            let value = match flag.value {
                None => None,
                Some(_) => match it.next() {
                    Some(v) if !v.starts_with('-') => Some(v.clone()),
                    _ => return Err(usage(format!("{arg} expects a value"))),
                },
            };
            parsed.given.push((flag.name, value));
        }
        match (&self.operands, parsed.operands.as_slice()) {
            (Operands::None, []) | (Operands::One(_), [_]) | (Operands::Many(_), _) => Ok(parsed),
            (Operands::One(name), []) => Err(usage(format!("missing {name}"))),
            (_, [.., extra]) => Err(usage(format!("unexpected argument '{extra}'"))),
        }
    }

    /// [`Spec::parse`] the process's command line; on [`Stop::Help`]
    /// print the usage on stdout and exit 0, on [`Stop::Usage`]
    /// [`Spec::fail`].
    pub fn parse_or_exit(&'static self) -> Args {
        let args: Vec<String> = std::env::args().skip(1).collect();
        match self.parse(&args) {
            Ok(parsed) => parsed,
            Err(Stop::Help(spec)) => {
                print!("{}", spec.usage());
                std::process::exit(0)
            }
            Err(Stop::Usage(spec, message)) => spec.fail(&message),
        }
    }

    /// A usage error: `name: message`, a blank line and the usage on
    /// stderr, exit 2.
    pub fn fail(&self, message: &str) -> ! {
        eprint!("{}: {message}\n\n{}", self.name, self.usage());
        std::process::exit(2)
    }

    /// The help text: synopsis lines (this command's, then each
    /// subcommand's), the flag table and the notes.
    pub fn usage(&self) -> String {
        let mut out = String::new();
        self.synopsis(&mut out, "usage: ");
        for sub in self.subcommands {
            sub.synopsis(&mut out, "       ");
        }
        out.push('\n');
        for flag in self.flags.iter().chain([&HELP]) {
            let left = match flag.value {
                Some(value) => format!("{} {value}", flag.name),
                None => flag.name.to_string(),
            };
            let head = if left.len() > FLAG_COLUMN {
                out.push_str(&format!("  {left}\n"));
                " ".repeat(FLAG_COLUMN + 4)
            } else {
                format!("  {left:<FLAG_COLUMN$}  ")
            };
            fill(
                &mut out,
                head,
                flag.help.split_whitespace(),
                FLAG_COLUMN + 4,
            );
        }
        if !self.notes.is_empty() {
            out.push('\n');
            out.push_str(self.notes);
        }
        out
    }

    fn synopsis(&self, out: &mut String, lead: &str) {
        let head = format!("{lead}{} ", self.name);
        let indent = head.len();
        let operand = match self.operands {
            Operands::None => None,
            Operands::One(name) => Some(name.to_string()),
            Operands::Many(name) => Some(format!("[{name}...]")),
        };
        let words: Vec<String> = self
            .flags
            .iter()
            .map(|f| match f.value {
                Some(value) => format!("[{} {value}]", f.name),
                None => format!("[{}]", f.name),
            })
            .chain(operand)
            .collect();
        fill(out, head, words.iter().map(String::as_str), indent);
    }
}

/// Append `words` after `head`, one space apart, breaking lines before
/// [`WIDTH`] and indenting continuation lines by `indent`.
fn fill<'a>(out: &mut String, head: String, words: impl Iterator<Item = &'a str>, indent: usize) {
    let mut line = head;
    let mut fresh = true;
    for word in words {
        if !fresh && line.len() + 1 + word.len() > WIDTH {
            out.push_str(line.trim_end());
            out.push('\n');
            line = " ".repeat(indent);
            fresh = true;
        }
        if !fresh {
            line.push(' ');
        }
        line.push_str(word);
        fresh = false;
    }
    out.push_str(line.trim_end());
    out.push('\n');
}

/// A command line read against a [`Spec`].
#[derive(Debug)]
pub struct Args {
    spec: &'static Spec,
    given: Vec<(&'static str, Option<String>)>,
    operands: Vec<String>,
}

impl Args {
    /// Whether these arguments were read against `spec`, i.e. which
    /// subcommand, if any, was chosen.
    pub fn is(&self, spec: &Spec) -> bool {
        std::ptr::eq(self.spec, spec)
    }

    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.check(flag);
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// The value `flag` was last given, if it was given.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.check(flag);
        self.given
            .iter()
            .rev()
            .find(|(name, _)| *name == flag)
            .and_then(|(_, value)| value.as_deref())
    }

    /// `flag`'s value as a number; a value that does not parse is a
    /// usage error ([`Args::fail`]).
    pub fn number<T: FromStr>(&self, flag: &str) -> Option<T> {
        let value = self.value(flag)?;
        Some(
            value
                .parse()
                .unwrap_or_else(|_| self.fail(&format!("{flag} expects a number, got '{value}'"))),
        )
    }

    /// The operands, in order.
    pub fn operands(&self) -> &[String] {
        &self.operands
    }

    /// The operand of an [`Operands::One`] command.
    pub fn operand(&self) -> &str {
        self.operands
            .first()
            .expect("parse admits an Operands::One command only with its operand")
    }

    /// A usage error found after parsing: see [`Spec::fail`].
    pub fn fail(&self, message: &str) -> ! {
        self.spec.fail(message)
    }

    /// Reading a flag that is not in the table is a bug in the binary.
    fn check(&self, flag: &str) {
        debug_assert!(
            self.spec.flags.iter().any(|f| f.name == flag),
            "{flag} is not in {}'s flag table",
            self.spec.name
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    static SUB: Spec = Spec {
        name: "tool sub",
        flags: &[Flag::value("--grace", "MS", "grace window")],
        operands: Operands::One("FILE"),
        subcommands: &[],
        notes: "",
    };
    static TOOL: Spec = Spec {
        name: "tool",
        flags: &[
            Flag::switch("--json", "machine-readable output"),
            Flag::value(
                "--seed",
                "N",
                "run seed; a long help text that has to wrap onto a second line of the table",
            ),
        ],
        operands: Operands::None,
        subcommands: &[&SUB],
        notes: "Notes go last.\n",
    };

    fn parse(args: &[&str]) -> Result<Args, Stop> {
        TOOL.parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn flags_values_and_subcommands_parse() {
        let args = parse(&["--seed", "1", "--json", "--seed", "7"]).unwrap();
        assert!(args.is(&TOOL) && args.has("--json"));
        assert_eq!(args.number::<u64>("--seed"), Some(7), "the last one wins");
        let args = parse(&["sub", "f.jsonl", "--grace", "5"]).unwrap();
        assert!(args.is(&SUB));
        assert_eq!(
            (args.operand(), args.value("--grace")),
            ("f.jsonl", Some("5"))
        );
    }

    #[test]
    fn help_wins_wherever_it_appears() {
        assert!(matches!(parse(&["--json", "-h"]), Err(Stop::Help(s)) if s.name == "tool"));
        assert!(matches!(parse(&["sub", "--help"]), Err(Stop::Help(s)) if s.name == "tool sub"));
    }

    #[test]
    fn every_contract_violation_is_a_usage_error() {
        for (args, message) in [
            (&["--bogus"][..], "unknown flag '--bogus'"),
            (&["--seed"], "--seed expects a value"),
            (&["--seed", "--json"], "--seed expects a value"),
            (&["stray"], "unexpected argument 'stray'"),
            (&["sub"], "missing FILE"),
            (&["sub", "a", "b"], "unexpected argument 'b'"),
            (&["sub", "a", "--json"], "unknown flag '--json'"),
        ] {
            match parse(args) {
                Err(Stop::Usage(_, got)) => assert_eq!(got, message, "{args:?}"),
                other => panic!("{args:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn usage_is_rendered_from_the_table() {
        let usage = TOOL.usage();
        assert!(
            usage.starts_with(
                "usage: tool [--json] [--seed N]\n       tool sub [--grace MS] FILE\n\n"
            ),
            "{usage}"
        );
        for row in [
            "  --json ",
            "  --seed N ",
            "  -h, --help ",
            "\nNotes go last.\n",
        ] {
            assert!(usage.contains(row), "{row}: {usage}");
        }
        assert!(usage.lines().all(|l| l.len() <= WIDTH), "{usage}");
        let continued = format!("\n{}second line", " ".repeat(FLAG_COLUMN + 4));
        assert!(usage.contains(&continued), "{usage}");
    }
}
